#!/usr/bin/env bash
# Builds the benchmark, runs every workload (the four of BENCHMARK.json and
# the two ungated ones) untraced and then traced, and leaves the printed
# metrics in benchmark/out/summary.txt next to the per-workload
# results.*.json and trace.*.json.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--quick] [--check-repeat]
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(spmv_dram spmv_irregular apply_small krylov_frozen gray_scott_solve serve_open)
pass=()
while (($#)); do
  case $1 in
    --workload) workloads=("$2"); shift 2 ;;
    *) pass+=("$1"); shift ;;
  esac
done

bench=(cargo run --release --quiet --manifest-path benchmark/Cargo.toml --)
cargo build --release --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/out
: > benchmark/out/summary.txt

status=0
for trace in 0 1; do
  for w in "${workloads[@]}"; do
    "${bench[@]}" --workload "$w" --trace "$trace" ${pass[@]+"${pass[@]}"} \
      | grep -v '^{' | tee -a benchmark/out/summary.txt || status=1
  done
done
echo "summary in benchmark/out/summary.txt"
exit $status
