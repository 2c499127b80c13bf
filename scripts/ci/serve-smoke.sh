#!/usr/bin/env bash
# Serve smoke: a served model answers with the planted corpus structure,
# and the answers are the same bytes whichever backend, batch size or
# scan (coded or GEMM) produced them. No timing is asserted.
set -euo pipefail
cd "$(dirname "$0")/../.."
ROOT=$PWD
G=$ROOT/target/release/gw2v
step() { printf '\n== %s\n' "$*"; }

step "Build CLI (release)"
cargo build --release -p gw2v-cli
rm -rf target/ci/serve-smoke && mkdir -p target/ci/serve-smoke && cd target/ci/serve-smoke

step "Train a tiny model with checkpointing, then serve it"
"$G" generate --out corpus.txt --scale tiny --tokens 120000 --seed 42
"$G" train --input corpus.txt --out model.txt --trainer dist \
    --hosts 3 --dim 48 --epochs 8 --negative 5 --seed 1 --checkpoint-dir ckpts
printf 'sim mk0_a0\nsim tp0_0_0\nsim zz_not_a_word\n' > queries.txt
serve="$G serve --checkpoint ckpts --vocab corpus.txt --k 10"
$serve --queries queries.txt --out answers.jsonl

step "Served neighbours match the planted corpus structure"
python3 "$ROOT/scripts/ci/check.py" planted answers.jsonl

step "Scalar and dispatched backends serve byte-identical answers"
GW2V_FORCE_SCALAR=1 $serve --queries queries.txt --out answers_scalar.jsonl
cmp answers.jsonl answers_scalar.jsonl
echo "serve output is backend-invariant"

# `--batch 1` scans every query from the u8 codes; a batch of more than
# sixteen is scored by GEMM: coded == GEMM == scalar, byte for byte.
step "One query at a time serves the same bytes as a batch"
printf 'sim mk0_a0\nsim tp0_0_0\nanalogy mk0_a0 mk0_a1 mk0_a2\nsim mk0_a3\nsim zz_not_a_word\n' > mixed.txt
for batch in 32 1; do
    $serve --queries mixed.txt --out mixed_$batch.jsonl --batch $batch
    GW2V_FORCE_SCALAR=1 $serve --queries mixed.txt --out mixed_scalar_$batch.jsonl --batch $batch
done
cmp mixed_32.jsonl mixed_1.jsonl
cmp mixed_32.jsonl mixed_scalar_32.jsonl
cmp mixed_32.jsonl mixed_scalar_1.jsonl
echo "coded scan == GEMM scan == scalar"

# dim 300: not a multiple of the integer kernel's 16 codes, and past the
# 257 coordinates beyond which the quantized query's L1 limit, not its i16
# range, can set its scale. Eight epochs, so that the coded filter skips
# most rows rather than scoring them all. A batch of at most 16 queries
# takes the coded scan, so the query files here hold more than 16
# resolvable lines: `--batch 32` is the GEMM scan at both dims.
step "A dim-300 model serves the same bytes coded, by GEMM and scalar"
"$G" train --input corpus.txt --out model300.txt --trainer seq \
    --dim 300 --epochs 8 --negative 5 --seed 1
for m in model300 model; do
    awk 'NR > 1 && NR <= 25 { print "sim " $1 }' $m.txt > many_$m.txt
    cat mixed.txt >> many_$m.txt
    serve="$G serve --model $m.txt --queries many_$m.txt --k 10"
    $serve --out ${m}_32.jsonl --batch 32
    $serve --out ${m}_1.jsonl --batch 1
    GW2V_FORCE_SCALAR=1 $serve --out ${m}_scalar_1.jsonl --batch 1
    cmp ${m}_32.jsonl ${m}_1.jsonl
    cmp ${m}_32.jsonl ${m}_scalar_1.jsonl
done
echo "dims 300 and 48: coded scan == GEMM scan == scalar"

# The tokenizer splits on ASCII whitespace only, so a no-break space is
# part of a word: the model reader and the query parser must agree, or
# the trained file cannot be served.
step "A word holding U+00A0 trains, saves, loads and is served"
nb=$'\xc2\xa0'
awk -v nb="$nb" 'BEGIN {
    n = split("alpha" nb "beta,gamma,delta" nb "x,epsilon,zeta", words, ",")
    for (i = 0; i < 400; i++) printf "%s%s", words[i % n + 1], (i % 9 == 8 ? "\n" : " ")
}' > nbsp.txt
printf 'sim alpha%sbeta\nsim delta%sx\n' "$nb" "$nb" > nbsp_queries.txt
"$G" train --input nbsp.txt --out nbsp_model.txt \
    --trainer seq --dim 8 --epochs 1 --negative 2 --subsample 0
"$G" serve --model nbsp_model.txt --queries nbsp_queries.txt --out nbsp_answers.jsonl --k 3
python3 "$ROOT/scripts/ci/check.py" nbsp nbsp_answers.jsonl
