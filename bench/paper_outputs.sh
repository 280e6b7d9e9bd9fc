#!/usr/bin/env bash
# Runs the 19 single-threaded benches that print the paper's tables, the
# ablations and the analyses, and writes each one's standard output to
# <out-dir>/<bench>.txt. Their output is deterministic: two runs of one
# build print the same bytes. So when a parent and a change are built the
# same way, `diff -r` of their two output directories shows exactly what
# the change moved. Every bench runs even if one fails; the script then
# names each failure and exits nonzero.
#
# Usage: bench/paper_outputs.sh <build-dir> <out-dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
BUILD=$1
OUT=$2

BENCHES=(table_4_1_two_pool table_4_2_zipfian table_4_3_oltp
         ablation_adaptivity ablation_convergence ablation_crp
         ablation_memory_budget ablation_meta_policy ablation_process_crp
         ablation_rip ablation_tuned_pools ablation_tuning_sensitivity
         analysis_bayes analysis_lru_model example_1_1_btree
         example_1_2_scan lineage_comparison replication_check
         scale_invariance)

mkdir -p "$OUT"
failed=()
for bench in "${BENCHES[@]}"; do
  if ! "$BUILD/bench/$bench" > "$OUT/$bench.txt"; then
    failed+=("$bench")
  fi
done
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "failed: ${failed[*]}" >&2
  exit 1
fi
