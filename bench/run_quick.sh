#!/usr/bin/env bash
# Quick bench smoke: runs the six hand-rolled microbenchmarks in --quick
# mode and leaves machine-readable results at the repo root
# (BENCH_hotpath.json from micro_sharded_pool, BENCH_contention.json from
# micro_contention, BENCH_policy_overhead.json from micro_policy_overhead,
# BENCH_faults.json from fault_sweep, BENCH_async_io.json from
# micro_async_io, BENCH_meta_policy.json from ablation_meta_policy).
# Each JSON is stamped with provenance (git SHA, CMake build type,
# sanitizer) so a result file can always be traced to the commit and build
# flavour that produced it. Validates that every file parses as JSON. A
# bench that fails (a NO shape line, or a crash) does not stop the others:
# every bench runs and every JSON is checked, then the script names each
# failure and exits with the first failure's status. CI runs this to catch
# bench regressions and malformed emitters; the full-length runs stay
# manual (--full).
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

# Each bench and the JSON file it writes.
BENCHES=(micro_sharded_pool:BENCH_hotpath.json
         micro_contention:BENCH_contention.json
         micro_policy_overhead:BENCH_policy_overhead.json
         fault_sweep:BENCH_faults.json
         micro_async_io:BENCH_async_io.json
         ablation_meta_policy:BENCH_meta_policy.json)

for entry in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD/bench/${entry%%:*}" ]]; then
    echo "bench binaries not found under $BUILD/bench — build first:" >&2
    echo "  cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
    exit 1
  fi
done

PROVENANCE=(--git-sha "$GIT_SHA" --sanitizer "$SANITIZER")
if [[ -n "$BUILD_TYPE" ]]; then
  PROVENANCE+=(--build-type "$BUILD_TYPE")
fi

FAILED=()
STATUS=0
fail() {  # fail <what> <status>
  FAILED+=("$1")
  if [[ $STATUS -eq 0 ]]; then STATUS=$2; fi
}

for entry in "${BENCHES[@]}"; do
  bin=${entry%%:*}
  json=${entry#*:}
  # A bench that dies before writing must not leave an older file to pass
  # the JSON check.
  rm -f "$json"
  rc=0
  "$BUILD/bench/$bin" $QUICK --json "$json" "${PROVENANCE[@]}" || rc=$?
  if [[ $rc -ne 0 ]]; then fail "$bin (exit $rc)" "$rc"; fi
  rc=0
  python3 -m json.tool "$json" > /dev/null || rc=$?
  if [[ $rc -eq 0 ]]; then
    echo "$json: valid JSON"
  else
    fail "$json (missing or not valid JSON)" "$rc"
  fi
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "run_quick.sh: ${#FAILED[@]} failed:" >&2
  printf '  %s\n' "${FAILED[@]}" >&2
  exit "$STATUS"
fi
