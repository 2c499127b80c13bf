#!/usr/bin/env bash
# Graph smoke: SBM edge list → biased walks with a held-out edge split,
# backend-invariant walk text, and link prediction from HogBatch and
# distributed models above the planted-community gate.
set -euo pipefail
cd "$(dirname "$0")/../.."
ROOT=$PWD
G=$ROOT/target/release/gw2v
step() { printf '\n== %s\n' "$*"; }

step "Build CLI (release)"
cargo build --release -p gw2v-cli
rm -rf target/ci/graph-smoke && mkdir -p target/ci/graph-smoke && cd target/ci/graph-smoke

step "SBM edge list → biased walks (with a held-out edge split)"
"$G" corpus graph --out graph.edges --kind sbm \
    --nodes 240 --blocks 8 --p-in 0.3 --p-out 0.001 --seed 42
walks="corpus walks --edges graph.edges --walks 10 --length 40 --q 2 --seed 1 --holdout 0.2 --holdout-seed 7"
"$G" $walks --out walks.txt

step "Walk corpus is byte-identical on the forced-scalar backend"
GW2V_FORCE_SCALAR=1 "$G" $walks --out walks_scalar.txt
cmp walks.txt walks_scalar.txt
echo "walk generation is backend-invariant"

step "Train on walks (HogBatch and distributed; subsample off)"
shape="--dim 32 --epochs 6 --negative 5 --window 4 --subsample 0 --seed 3"
"$G" train --input walks.txt --out model_hb.txt --trainer hogbatch --threads 2 $shape
"$G" train --input walks.txt --out model_dist.txt --trainer dist --hosts 3 --sync-rounds 2 $shape

step "Link prediction beats the planted-community threshold"
for m in hb dist; do
    "$G" eval linkpred --model model_$m.txt --edges graph.edges --holdout 0.2 --holdout-seed 7 \
        --negatives-per-edge 2 --score cosine --out report_$m.json
done
python3 "$ROOT/scripts/ci/check.py" linkpred report_hb.json report_dist.json --min-auc 0.85
