#!/usr/bin/env bash
# Quick bench smoke: runs the six hand-rolled microbenchmarks in --quick
# mode and leaves machine-readable results at the repo root
# (BENCH_hotpath.json from micro_sharded_pool, BENCH_contention.json from
# micro_contention, BENCH_policy_overhead.json from micro_policy_overhead,
# BENCH_faults.json from fault_sweep, BENCH_async_io.json from
# micro_async_io, BENCH_meta_policy.json from ablation_meta_policy).
# Each JSON is stamped with provenance (git SHA, CMake build type,
# sanitizer) so a result file can always be traced to the commit and build
# flavour that produced it. Validates that every file parses as JSON. CI
# runs this to catch bench regressions and malformed emitters; the
# full-length runs stay manual (--full).
#
# Usage: bench/run_quick.sh [--full] [--sanitizer <name>]
#                           [--build-type <type>]
#        BUILD=build-rel bench/run_quick.sh
#
# --full drops --quick (full-length op counts); --sanitizer records which
# sanitizer the binaries were built with (default none); --build-type
# overrides the build type each bench stamps by default, the one it was
# compiled in.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}

QUICK=--quick
SANITIZER=none
BUILD_TYPE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) QUICK="" ;;
    --sanitizer) SANITIZER="$2"; shift ;;
    --build-type) BUILD_TYPE="$2"; shift ;;
    *) echo "usage: $0 [--full] [--sanitizer <name>] [--build-type <type>]" >&2
       exit 2 ;;
  esac
  shift
done

GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

for bin in micro_sharded_pool micro_contention micro_policy_overhead \
           fault_sweep micro_async_io ablation_meta_policy; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    echo "bench binaries not found under $BUILD/bench — build first:" >&2
    echo "  cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
    exit 1
  fi
done

PROVENANCE=(--git-sha "$GIT_SHA" --sanitizer "$SANITIZER")
if [[ -n "$BUILD_TYPE" ]]; then
  PROVENANCE+=(--build-type "$BUILD_TYPE")
fi

"$BUILD/bench/micro_sharded_pool" $QUICK --json BENCH_hotpath.json \
    "${PROVENANCE[@]}"
"$BUILD/bench/micro_contention" $QUICK --json BENCH_contention.json \
    "${PROVENANCE[@]}"
"$BUILD/bench/micro_policy_overhead" $QUICK \
    --json BENCH_policy_overhead.json "${PROVENANCE[@]}"
"$BUILD/bench/fault_sweep" $QUICK --json BENCH_faults.json \
    "${PROVENANCE[@]}"
"$BUILD/bench/micro_async_io" $QUICK --json BENCH_async_io.json \
    "${PROVENANCE[@]}"
"$BUILD/bench/ablation_meta_policy" $QUICK --json BENCH_meta_policy.json \
    "${PROVENANCE[@]}"

for f in BENCH_hotpath.json BENCH_contention.json \
         BENCH_policy_overhead.json BENCH_faults.json \
         BENCH_async_io.json BENCH_meta_policy.json; do
  python3 -m json.tool "$f" > /dev/null
  echo "$f: valid JSON"
done
