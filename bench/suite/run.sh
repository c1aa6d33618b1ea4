#!/usr/bin/env bash
# Builds the benchmark suite and runs it exactly as BENCHMARK.json's
# command does; every detail record and trace lands in bench_out/suite/.
#
#   bench/suite/run.sh          untraced runs of every workload, one per
#                               seed in $SEEDS (default "1 2 3 4 5"), then
#                               one traced run per workload
#   bench/suite/run.sh --smoke  every workload once on 2k-source corpora,
#                               every correctness gate, in seconds
#
# Two result sets (e.g. of two commits) compare with bench/suite/compare.py.
set -euo pipefail
cd "$(dirname "$0")/../.."

spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }
mapfile -t command < <(spec '"\n".join(s["command"])')
mapfile -t workloads < <(spec '"\n".join(w["name"] for w in s["workloads"])')
seconds=$(spec 's["run_seconds"]')
extra=()
if [[ "${1:-}" == "--smoke" ]]; then
  extra=(--smoke)
  seconds=1
fi

run() {
  printf '%-12s seed %-3s trace %s  ' "$1" "$2" "$3"
  "${command[@]}" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" "${extra[@]}"
}

if ((${#extra[@]})); then
  for w in "${workloads[@]}"; do run "$w" 1 0; done
  exit 0
fi
for w in "${workloads[@]}"; do
  for seed in ${SEEDS:-1 2 3 4 5}; do run "$w" "$seed" 0; done
done
for w in "${workloads[@]}"; do run "$w" 1 1; done
