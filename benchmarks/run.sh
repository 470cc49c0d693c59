#!/bin/bash
# One command for the benchmark: builds the harness offline (see
# build.sh), then hands every argument to it.
#
#   run.sh --workload W --seed S --seconds N --trace 0|1   one run; the last
#                                  stdout line is the BENCHMARK.json result
#   run.sh [--runs R] [--seed S] [--seconds N] [--out F]   every workload, R
#                                  untraced runs + traced runs, all metrics
#                                  with unit, sample count and quartiles
#   run.sh compare OLD.json NEW.json                       apply the bounds
#   run.sh table SET.json                                  per-layer table
#   run.sh contract                                        BENCHMARK.json
#   run.sh --selftest                                      unit checks + smoke
#
# Runs from the repository root so the harness finds BENCHMARK.json.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
BIN="$(bash "$HERE/build.sh")"
T="${CARGO_TARGET_DIR:-$HERE/target}"
case "$T" in /*) ;; *) T="$PWD/$T" ;; esac
# Keep freed memory inside the process (no mmap per large allocation, no
# trimming). On a shared VM the cost of faulting freshly mapped pages
# swings with the host's memory pressure (measured here: pass times of
# allocation-heavy workloads +-20 % over minutes); with the heap retained,
# steady-state passes reuse resident pages and the swing mostly goes.
# Part of the benchmark, so parent and change run under the same setting.
export MALLOC_MMAP_MAX_=0
export MALLOC_TRIM_THRESHOLD_=17179869184
export MALLOC_TOP_PAD_=268435456
# One arena: with glibc's per-thread arenas the service workers' peak
# memory depends on which arena each new thread is handed (measured:
# serve_cold peak RSS 206-295 MiB over ten runs; 111-113 MiB with one).
export MALLOC_ARENA_MAX=1
# Where a traced run writes its chrome-trace file.
export BENCH_OUT_DIR="$T"
cd "$HERE/.."
exec "$BIN" "$@"
