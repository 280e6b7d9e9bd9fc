#!/usr/bin/env bash
# End-to-end benchmark: builds bench/e2e (a standalone Release CMake
# project, into build/e2e-bench/) and runs the scored closed-loop
# workloads tpca and scan_mix. See bench/e2e/README.md.
#
#   bench/e2e/run.sh                 every scored workload once, untraced:
#                                    the end-to-end metrics
#   bench/e2e/run.sh --trace         every scored workload once, traced:
#                                    the per-layer metrics (spans under
#                                    build/e2e-bench/out/)
#   bench/e2e/run.sh --check         deterministic self-test, tiny sizes
#   bench/e2e/run.sh --repeat N      N untraced runs per workload (seeds
#                                    1..N): median and quartiles per metric
#   bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#                                    one run of W (tpca, scan_mix, or the
#                                    unscored hot_read); the last line of
#                                    standard output is the JSON result
#
# --seed and --seconds also apply to the multi-workload modes. The exit
# code is non-zero if the build or any correctness check fails.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
BUILD="$ROOT/build/e2e-bench"
BIN="$BUILD/e2e_bench"
OUT="$BUILD/out"
WORKLOADS=(tpca scan_mix)

WORKLOAD=""
SEED=1
WINDOW=30
TRACE=0
CHECK=0
REPEAT=0

usage() {
  sed -n '2,20p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || usage; WORKLOAD="$2"; shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; SEED="$2"; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; WINDOW="$2"; shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        TRACE="$2"; shift 2
      else
        TRACE=1; shift
      fi ;;
    --check) CHECK=1; shift ;;
    --repeat) [[ $# -ge 2 && "$2" =~ ^[1-9][0-9]*$ ]] || usage
              REPEAT="$2"; shift 2 ;;
    *) usage ;;
  esac
done

build() {
  if [[ ! -f "$ROOT/src/CMakeLists.txt" ]]; then
    echo "e2e: library sources not found under $ROOT/src" >&2
    exit 1
  fi
  mkdir -p "$BUILD"
  local jobs generator=()
  jobs=$(nproc 2>/dev/null || echo 2)
  (( jobs > 4 )) && jobs=4
  command -v ninja > /dev/null && generator=(-G Ninja)
  if ! {
    if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
      cmake -S "$HERE" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
          "${generator[@]}"
    fi
    cmake --build "$BUILD" -j "$jobs"
  } > "$BUILD/build.log" 2>&1; then
    tail -n 40 "$BUILD/build.log" >&2
    echo "e2e: build failed (log: $BUILD/build.log)" >&2
    exit 1
  fi
}

GIT_SHA=$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)

# Sets ARGS to e2e_bench's arguments for one run.
bench_args() {
  local workload="$1" seed="$2" trace="$3"
  ARGS=(--workload "$workload" --seed "$seed" --seconds "$WINDOW"
        --git-sha "$GIT_SHA" --build-type Release)
  if [[ "$trace" == 1 ]]; then ARGS+=(--trace "$OUT"); fi
}

run_one() {
  bench_args "$@"
  "$BIN" "${ARGS[@]}"
}

build

if [[ "$CHECK" == 1 ]]; then
  exec "$BIN" --self-test
fi

if [[ -n "$WORKLOAD" ]]; then
  bench_args "$WORKLOAD" "$SEED" "$TRACE"
  exec "$BIN" "${ARGS[@]}"
fi

status=0
if [[ "$REPEAT" -gt 0 ]]; then
  mkdir -p "$OUT"
  files=()
  for w in "${WORKLOADS[@]}"; do
    file="$OUT/repeat-$w.jsonl"
    : > "$file"
    for ((seed = 1; seed <= REPEAT; ++seed)); do
      echo "== $w seed $seed" >&2
      if ! run_one "$w" "$seed" "$TRACE" > "$OUT/last.txt"; then
        status=1
        grep '^FAILED' "$OUT/last.txt" >&2 || true
      fi
      echo "{\"workload\": \"$w\", \"result\": $(tail -n 1 "$OUT/last.txt")}" \
          >> "$file"
    done
    files+=("$file")
  done
  python3 "$HERE/summarize.py" "${files[@]}"
  exit $status
fi

for w in "${WORKLOADS[@]}"; do
  echo "== $w"
  if ! run_one "$w" "$SEED" "$TRACE"; then
    status=1
  fi
done
exit $status
