#!/bin/bash
# Offline compile-check of the whole workspace against the stub deps in
# stubs/ (sequential rayon, mini serde_json; serde derives
# are stripped from copied sources). For sandboxes with no crates.io
# access — see tools/wscheck/README.md. Not a substitute for tier-1
# `cargo build && cargo test`, which CI runs with the real dependencies.
set -e
R="$(cd "$(dirname "$0")/../.." && pwd)"
W="${WSCHECK_DIR:-/tmp/wscheck-run}"
S="$R/tools/wscheck/stubs"
mkdir -p "$W"
cd "$W"
rm -rf src out
mkdir -p src out

echo "=== stub deps ==="
rustc --edition 2021 -O --crate-type rlib --crate-name rayon "$S/rayon.rs" -o out/librayon.rlib
rustc --edition 2021 -O --crate-type rlib --crate-name serde_json "$S/serde_json.rs" -o out/libserde_json.rlib
rustc --edition 2021 -O --crate-type rlib --crate-name proptest "$S/proptest.rs" -o out/libproptest.rlib

# Copy a crate's src tree with serde derives stripped.
copysrc() { # $1 = repo-relative src dir, $2 = dest name
  mkdir -p "src/$2"
  cp -r "$R/$1"/* "src/$2/"
  find "src/$2" -name '*.rs' | while read -r f; do
    sed -i \
      -e '/^use serde::/d' \
      -e 's/, Serialize, Deserialize)/)/' \
      -e 's/(Serialize, Deserialize, /(/' \
      -e 's/Serialize, Deserialize, //' \
      -e '/#\[serde(/d' \
      "$f"
  done
}

copysrc crates/vizmesh/src vizmesh
copysrc crates/powersim/src powersim
copysrc crates/vizalgo/src vizalgo
copysrc crates/cloverleaf/src cloverleaf
copysrc crates/insitu/src insitu
copysrc crates/core/src vizpower
copysrc crates/governor/src governor
copysrc crates/service/src service
copysrc crates/conformance/src conformance
copysrc crates/bench/src bench
copysrc crates/xtask/src xtask
copysrc src suite

# rayon's 2-arg reduce has no std equivalent; sequential fold is identical here.
sed -i 's/\.reduce(|| 0\.0, f64::max)/.fold(0.0, f64::max)/' src/cloverleaf/kernels.rs

E="--edition 2021 -O -L dependency=out"
X() { echo "--- $1 ---"; shift; rustc $E "$@"; }

X vizmesh   --crate-type rlib --crate-name vizmesh src/vizmesh/lib.rs -o out/libvizmesh.rlib
X powersim  --crate-type rlib --crate-name powersim src/powersim/lib.rs -o out/libpowersim.rlib
X vizalgo   --crate-type rlib --crate-name vizalgo src/vizalgo/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern rayon=out/librayon.rlib \
  -o out/libvizalgo.rlib
X cloverleaf --crate-type rlib --crate-name cloverleaf src/cloverleaf/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern powersim=out/libpowersim.rlib \
  --extern rayon=out/librayon.rlib -o out/libcloverleaf.rlib
X insitu    --crate-type rlib --crate-name insitu src/insitu/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern cloverleaf=out/libcloverleaf.rlib --extern powersim=out/libpowersim.rlib \
  --extern serde_json=out/libserde_json.rlib -o out/libinsitu.rlib
X vizpower  --crate-type rlib --crate-name vizpower src/vizpower/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern cloverleaf=out/libcloverleaf.rlib --extern powersim=out/libpowersim.rlib \
  --extern insitu=out/libinsitu.rlib --extern serde_json=out/libserde_json.rlib \
  -o out/libvizpower.rlib
X governor  --crate-type rlib --crate-name governor src/governor/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern cloverleaf=out/libcloverleaf.rlib --extern powersim=out/libpowersim.rlib \
  --extern insitu=out/libinsitu.rlib --extern vizpower=out/libvizpower.rlib \
  -o out/libgovernor.rlib
X service   --crate-type rlib --crate-name service src/service/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern powersim=out/libpowersim.rlib --extern vizpower=out/libvizpower.rlib \
  --extern governor=out/libgovernor.rlib -o out/libservice.rlib
X conformance --crate-type rlib --crate-name conformance src/conformance/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern powersim=out/libpowersim.rlib --extern rayon=out/librayon.rlib \
  -o out/libconformance.rlib
X vizpower_bench --crate-type rlib --crate-name vizpower_bench src/bench/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern cloverleaf=out/libcloverleaf.rlib --extern powersim=out/libpowersim.rlib \
  --extern insitu=out/libinsitu.rlib --extern vizpower=out/libvizpower.rlib \
  --extern serde_json=out/libserde_json.rlib -o out/libvizpower_bench.rlib
X reproduce-bin --crate-name reproduce src/bench/bin/reproduce.rs \
  --extern vizpower_bench=out/libvizpower_bench.rlib \
  --extern vizpower=out/libvizpower.rlib --extern powersim=out/libpowersim.rlib \
  --extern governor=out/libgovernor.rlib --extern service=out/libservice.rlib \
  --extern conformance=out/libconformance.rlib \
  --extern cloverleaf=out/libcloverleaf.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern insitu=out/libinsitu.rlib --extern vizmesh=out/libvizmesh.rlib \
  --extern serde_json=out/libserde_json.rlib -o out/reproduce
# xtask is std-only by design: no stub externs needed.
X xtask --crate-type rlib --crate-name xtask src/xtask/lib.rs -o out/libxtask.rlib
X xtask-bin --crate-name xtask src/xtask/main.rs \
  --extern xtask=out/libxtask.rlib -o out/xtask
X vizpower_suite --crate-type rlib --crate-name vizpower_suite src/suite/lib.rs \
  --extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
  --extern cloverleaf=out/libcloverleaf.rlib --extern powersim=out/libpowersim.rlib \
  --extern insitu=out/libinsitu.rlib --extern vizpower=out/libvizpower.rlib \
  --extern governor=out/libgovernor.rlib --extern service=out/libservice.rlib \
  --extern conformance=out/libconformance.rlib \
  --extern rayon=out/librayon.rlib --extern serde_json=out/libserde_json.rlib \
  -o out/libvizpower_suite.rlib

echo "=== all rlibs + reproduce bin compiled ==="
