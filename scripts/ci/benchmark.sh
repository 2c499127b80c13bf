#!/usr/bin/env bash
# Benchmark harness: its own tests, one correct run of each workload, the
# traced metrics each engine's round span feeds, and a frozen harness.
set -euo pipefail
cd "$(dirname "$0")/../.."
step() { printf '\n== %s\n' "$*"; }

step "Harness tests (manifest, BENCHMARK.json and metrics in step)"
cargo test --release --manifest-path benchmark/Cargo.toml
W=target/ci/benchmark
rm -rf $W && mkdir -p $W

# Correctness only: the lap's output CRC, CommStats and pair count repeat,
# quality clears its floor and the CLI writes the same bytes; serve-mixed
# answers every query, with recall@10 = 1.0 on the 64 sampled queries
# against the f64 brute-force scan. A shared runner's timings are not
# evidence, so none is asserted.
for workload in graph-cluster2 text-sim8 text-shm serve-mixed; do
    step "One $workload run is correct with no failed lap"
    bash benchmark/run.sh --workload $workload --seed 1 --seconds 8 --trace 0 | tee $W/$workload.out
    python3 scripts/ci/check.py record $W/$workload.out
done

# The harness reads each engine's round time from the trace events of its
# round span (`gluon.sync`, `gluon.threaded.sync`), and text-sim8's
# sequential reference and per-sentence SGNS time from theirs, and reports
# 0.0 when there are none, so a renamed span would pass every check above.
step "Traced runs still see each engine's round span"
bash benchmark/run.sh --workload text-sim8 --seed 1 --seconds 8 --trace 1 --record $W/traced.jsonl
bash benchmark/run.sh --workload graph-cluster2 --seed 1 --seconds 8 --trace 1 --record $W/traced.jsonl
python3 scripts/ci/check.py traced $W/traced.jsonl text-sim8:gluon.sync.round_ms \
    text-sim8:core.seq.train_s text-sim8:core.sgns.sentence_ns graph-cluster2:gluon.threaded.round_ms

# Building and running the harness must leave `benchmark/` and its
# manifest as committed, so a dependency edit that rewrites
# `benchmark/Cargo.lock` fails here.
step "Harness and its lock file are unchanged"
git diff --exit-code -- benchmark/ BENCHMARK.json
