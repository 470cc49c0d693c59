#!/bin/bash
# Build the benchmark harness offline and print the binary's path on
# stdout (everything else goes to stderr).
#
# 1. `cargo build --release --offline` of this standalone package. It
#    resolves only when every registry crate the workspace names is
#    available offline — not the case today.
# 2. Fallback: the stub workspace of tools/wscheck (sequential rayon,
#    serde stripped) plus one rustc line linking the harness against
#    those rlibs.
#
# The mode that was used is compiled into the binary (BENCH_BUILD_MODE)
# and stamped on every result, so sequential-stub numbers are never
# mistaken for threaded ones. A content stamp over the sources skips the
# build when nothing changed.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "$HERE/.." && pwd)"
T="${CARGO_TARGET_DIR:-$HERE/target}"
case "$T" in /*) ;; *) T="$PWD/$T" ;; esac
mkdir -p "$T/tmp"
# rustc and the linker keep their scratch files inside the checkout too.
export TMPDIR="$T/tmp"

cd "$ROOT"
inputs=(benchmarks/src benchmarks/Cargo.toml benchmarks/build.sh)
for p in crates src tools/wscheck Cargo.toml; do
  [ -e "$p" ] && inputs+=("$p")
done
stamp="$(find "${inputs[@]}" -type f \( -name '*.rs' -o -name '*.toml' -o -name '*.sh' \) -print0 |
  sort -z | xargs -0 cksum | cksum)"
if [ -f "$T/vizbench.stamp" ] && [ "$(cat "$T/vizbench.stamp")" = "$stamp" ] &&
  [ -x "$(cat "$T/vizbench.path" 2>/dev/null)" ]; then
  cat "$T/vizbench.path"
  exit 0
fi

export BENCH_RUSTC_VERSION="$(rustc -V)"
if BENCH_BUILD_MODE=cargo CARGO_TARGET_DIR="$T" \
  cargo build --release --offline --manifest-path benchmarks/Cargo.toml >&2; then
  bin="$T/release/vizbench"
else
  echo "build.sh: cargo could not resolve offline; falling back to the tools/wscheck stub build" >&2
  if [ ! -f tools/wscheck/build.sh ]; then
    echo "build.sh: tools/wscheck/build.sh not found: nothing to build the harness against" >&2
    exit 1
  fi
  WSCHECK_DIR="$T/ws" bash tools/wscheck/build.sh >&2
  O="$T/ws/out"
  externs=()
  for c in vizmesh vizalgo powersim cloverleaf insitu vizpower governor service conformance; do
    externs+=(--extern "$c=$O/lib$c.rlib")
  done
  mkdir -p "$T/stub"
  bin="$T/stub/vizbench"
  BENCH_BUILD_MODE=stub-sequential rustc --edition 2021 -O -L "dependency=$O" \
    --crate-name vizbench benchmarks/src/main.rs "${externs[@]}" -o "$bin" >&2
fi
echo "$bin" >"$T/vizbench.path"
echo "$stamp" >"$T/vizbench.stamp"
echo "$bin"
