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

# `model.txt` holds the final epoch's embeddings as text and `ckpts` the
# same floats as bits. Each float's text is the shortest decimal that
# reads back to it, so the text round trip must lose no bit the answers
# could show.
step "The text model serves the same bytes as the checkpoint"
$G serve --model model.txt --queries queries.txt --k 10 --out answers_text.jsonl
cmp answers.jsonl answers_text.jsonl
echo "model.txt == ckpts"

step "Scalar and dispatched backends serve byte-identical answers"
GW2V_FORCE_SCALAR=1 $serve --queries queries.txt --out answers_scalar.jsonl
cmp answers.jsonl answers_scalar.jsonl
echo "serve output is backend-invariant"

# `--batch 1` scans every query from the 4-bit codes, and so does a batch
# of at most 32: the same bytes either way, and from the scalar backend.
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

# dims 300 and 67: not multiples of the integer kernel's groups of eight
# codes, so the last group of every block is padded (four and three
# coordinates). Eight epochs, so that the coded filter skips most rows
# rather than scoring them all. A batch of at most 32 queries takes the
# coded scan, so the query files here hold more than 32 resolvable
# lines: `--batch 64` is the GEMM scan at every dim.
step "Dim-300 and dim-67 models serve the same bytes coded, by GEMM and scalar"
for dim in 300 67; do
    "$G" train --input corpus.txt --out model$dim.txt --trainer seq \
        --dim $dim --epochs 8 --negative 5 --seed 1
done
for m in model300 model67 model; do
    awk 'NR > 1 && NR <= 41 { print "sim " $1 }' $m.txt > many_$m.txt
    cat mixed.txt >> many_$m.txt
    serve="$G serve --model $m.txt --queries many_$m.txt --k 10"
    $serve --out ${m}_64.jsonl --batch 64
    $serve --out ${m}_1.jsonl --batch 1
    GW2V_FORCE_SCALAR=1 $serve --out ${m}_scalar_1.jsonl --batch 1
    cmp ${m}_64.jsonl ${m}_1.jsonl
    cmp ${m}_64.jsonl ${m}_scalar_1.jsonl
done
echo "dims 300, 67 and 48: coded scan == GEMM scan == scalar"

# Every float form a model file may hold, rows ending in CRLF and the
# last in nothing: the AVX2 decimal parse reads tokens of at most 16
# bytes in one load and hands the rest to `str::parse`, so tokens of
# 15-18 bytes with and without a sign, forms outside the fast path
# (`+1`, `1e-5`, `.5`, `5.`), 22 and 23 fraction digits and a decimal
# on an f32 midpoint must load to the same bits on both backends.
step "A hand-written model with every float form serves the same bytes on both backends"
{
    printf '6 4\r\n'
    printf 'f0 -0 0 7 +1\r\n'
    printf 'f1 1e-5 .5 5. 0.0000000000000000000001\r\n'
    printf 'f2 0.00000000000000000000001 0.1234567890123 -0.123456789012 0.12345678901234\r\n'
    printf 'f3 -0.1234567890123 0.123456789012345 -0.12345678901234 0.1234567890123456\r\n'
    printf 'f4 -0.123456789012345 1234567890123456 -9007199254740993 0.25\r\n'
    printf 'f5 0.5 -0.75 0.001003017823677510 -1.5'
} > forms_model.txt
printf 'sim f0\nsim f1\nsim f2\nsim f3\nsim f4\nsim f5\nanalogy f0 f1 f2\n' > forms_queries.txt
serve="$G serve --model forms_model.txt --queries forms_queries.txt --k 3"
$serve --out forms_answers.jsonl
GW2V_FORCE_SCALAR=1 $serve --out forms_answers_scalar.jsonl
cmp forms_answers.jsonl forms_answers_scalar.jsonl
echo "every float form loads alike on both backends"

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
