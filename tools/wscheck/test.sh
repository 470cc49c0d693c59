#!/bin/bash
# Build + run unit tests (lib --test) for the hot-path crates, the
# integration/golden tests from tests/, the property suites under the
# stub proptest (deterministic seeds, no shrinking), and reproduce smoke
# runs, under the stub deps compiled by build.sh (run that first).
# Tier-1 CI reruns everything with the real crates.io dependencies.
set -e
R="$(cd "$(dirname "$0")/../.." && pwd)"
W="${WSCHECK_DIR:-/tmp/wscheck-run}"
cd "$W"
E="--edition 2021 -O -L dependency=out"
EXT="--extern vizmesh=out/libvizmesh.rlib --extern vizalgo=out/libvizalgo.rlib \
 --extern cloverleaf=out/libcloverleaf.rlib --extern powersim=out/libpowersim.rlib \
 --extern insitu=out/libinsitu.rlib --extern vizpower=out/libvizpower.rlib \
 --extern governor=out/libgovernor.rlib --extern service=out/libservice.rlib \
 --extern conformance=out/libconformance.rlib \
 --extern rayon=out/librayon.rlib --extern serde_json=out/libserde_json.rlib"

T() { name=$1; src=$2; echo "=== unit: $name ==="; \
  rustc $E --test --crate-name ${name}_t $src $EXT $3 -o out/${name}_t && out/${name}_t -q; }

T vizmesh src/vizmesh/lib.rs
echo "=== unit: vizalgo (serde round-trips skipped under stub) ==="
rustc $E --test --crate-name vizalgo_t src/vizalgo/lib.rs $EXT -o out/vizalgo_t
out/vizalgo_t -q --skip serde_round_trip
T powersim src/powersim/lib.rs
T cloverleaf src/cloverleaf/lib.rs
echo "=== unit: insitu (serde round-trips skipped under stub) ==="
rustc $E --test --crate-name insitu_t src/insitu/lib.rs $EXT -o out/insitu_t
out/insitu_t -q --skip json_round_trip --skip parses_handwritten_json --skip serde_round_trip
T vizpower src/vizpower/lib.rs
T governor src/governor/lib.rs
T service src/service/lib.rs
T conformance src/conformance/lib.rs
T vizpower_bench src/bench/lib.rs
T reproduce src/bench/bin/reproduce.rs "--extern vizpower_bench=out/libvizpower_bench.rlib"
echo "=== unit: xtask (std-only) ==="
rustc $E --test --crate-name xtask_t src/xtask/lib.rs -o out/xtask_t && out/xtask_t -q

# xtask's golden/lexer/analyze suites: include_str! fixtures resolve
# relative to the test source, so copy tests/ (with fixtures/) wholesale;
# env!("CARGO_BIN_EXE_xtask") is baked in at compile time.
XG() { name=$1; echo "=== xtask golden: $name ==="; \
  mkdir -p src/xtask_tests; cp -r "$R/crates/xtask/tests/." src/xtask_tests/; \
  CARGO_BIN_EXE_xtask="$W/out/xtask" rustc $E --test --crate-name xtask_$name \
    src/xtask_tests/$name.rs --extern xtask=out/libxtask.rlib -o out/xtask_$name && \
  out/xtask_$name -q; }

XG golden
XG lexer
XG analyze

I() { name=$1; echo "=== integration: $name ==="; \
  mkdir -p src/roottests; cp "$R/tests/$name.rs" src/roottests/; \
  rustc $E --test --crate-name $name src/roottests/$name.rs \
    --extern vizpower_suite=out/libvizpower_suite.rlib $EXT -o out/$name && out/$name -q; }

I journal_golden
I experiments_smoke
I governor_golden
I conformance_golden
I registry_parity
I service_parity
I service_golden
I advect_golden

# Property suites from crates/*/tests/, compiled and run against the
# stub proptest (fixed per-test seeds, no shrinking or regression-seed
# replay). insitu's actions_json_round_trip needs real serde and is
# compile-checked but skipped at runtime.
P() { crate=$1; name=$2; skip=$3; echo "=== proptest: $crate/$name ==="; \
  mkdir -p src/proptests; cp "$R/crates/$crate/tests/$name.rs" src/proptests/${crate}_$name.rs; \
  rustc $E --test --crate-name ${crate}_$name src/proptests/${crate}_$name.rs \
    --extern proptest=out/libproptest.rlib $EXT -o out/${crate}_$name && \
  out/${crate}_$name -q $skip; }

P vizmesh proptests
P vizalgo proptests
P vizalgo dpp_proptests
P cloverleaf proptests
P powersim proptests
P insitu proptests "--skip actions_json_round_trip"
P governor invariants
P service invariants

echo "=== smoke: reproduce serve --quick (gate: >= 50% cache hit rate) ==="
out/reproduce serve --quick | tee out/serve_quick.txt
hit_pct=$(sed -n 's/.*outcomes: [0-9]* hits (\([0-9]*\)\.[0-9]*%).*/\1/p' out/serve_quick.txt)
test -n "$hit_pct" && test "$hit_pct" -ge 50 || { echo "serve --quick hit rate below 50% (got ${hit_pct:-none})"; exit 1; }
echo "=== smoke: reproduce governor --budget-sweep --quick ==="
out/reproduce governor --budget-sweep --quick
echo "=== smoke: reproduce conformance --quick ==="
out/reproduce conformance --quick
echo "=== smoke: reproduce conformance --quick --backend dpp ==="
out/reproduce conformance --quick --backend dpp
echo "=== smoke: reproduce fig2b --quick --backend dpp (traditional-vs-DPP IPC contrast) ==="
out/reproduce fig2b --quick --backend dpp
echo "=== smoke: reproduce advect --quick (time-varying scenario sweep) ==="
out/reproduce advect --quick
echo "=== smoke: xtask lint + analyze --ratchet against the repo ==="
out/xtask lint --root "$R"
out/xtask analyze --ratchet --root "$R"
echo "=== ALL TESTS PASSED ==="
