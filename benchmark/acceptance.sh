#!/usr/bin/env bash
# Acceptance set: every workload once per seed (workloads interleaved, so a
# slow burst of the box lands on all of them alike), full records appended
# to OUT. Take two sets at least ten minutes apart and compare them:
#   bash benchmark/acceptance.sh a.jsonl "1 2 3 4 5 6 7 8 9 10"
#   bash benchmark/acceptance.sh b.jsonl "1 2 3 4 5 6 7 8 9 10"
#   .bench_build/release/gw2v-benchmark compare a.jsonl b.jsonl
set -euo pipefail
out="$(realpath "${1:?usage: acceptance.sh OUT.jsonl [SEEDS] [TRACE]}")"
seeds="${2:-1 2 3 4 5 6 7 8 9 10}"
trace="${3:-0}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$(dirname "$0")/../BENCHMARK.json")"
for seed in $seeds; do
  for workload in text-shm text-sim8 graph-cluster2 serve-mixed; do
    bash "$(dirname "$0")/run.sh" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" --record "$out" | tail -n 1
  done
done
