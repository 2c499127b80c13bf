#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the harness and the `gw2v` CLI it
# checks itself against into one target directory, then runs one benchmark.
#   bash benchmark/run.sh --workload text-shm --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet -p gw2v-cli
exec "$CARGO_TARGET_DIR/release/gw2v-benchmark" run "$@"
