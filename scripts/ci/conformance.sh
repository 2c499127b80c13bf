#!/usr/bin/env bash
# Conformance: the differential and golden suites that hold both cluster
# engines and every trainer to the same bits, then the release CLI driven
# through the parities those suites cannot reach from inside one process,
# the compact wire modes and the refusal of `--wire memo` among them.
set -euo pipefail
cd "$(dirname "$0")/../.."
ROOT=$PWD
G=$ROOT/target/release/gw2v
step() { printf '\n== %s\n' "$*"; }

step "Differential suite (threaded vs simulator, plan × fault family)"
cargo test --test conformance -q
step "Golden sync rounds (plan × wire mode × liveness, bytes and bits)"
cargo test -p gw2v-gluon --test golden_rounds
step "Golden trained models (per-pair and HogBatch bits, both kernel backends)"
GW2V_FORCE_SCALAR=0 cargo test --test golden_models
GW2V_FORCE_SCALAR=1 cargo test --test golden_models
step "Golden faulted runs (both cluster engines under each fault family, both kernel backends)"
GW2V_FORCE_SCALAR=0 cargo test --test golden_faults
GW2V_FORCE_SCALAR=1 cargo test --test golden_faults
step "Golden set-up (vocabulary, ids, walk text and model-text floats)"
cargo test --test golden_setup
step "Build CLI (release)"
cargo build --release -p gw2v-cli
rm -rf target/ci/conformance && mkdir -p target/ci/conformance && cd target/ci/conformance

# The shared-memory loop picks the model's storage from the workers it
# builds: one worker steps a plain model in place, whatever the trainer or
# `--threads`. So one Hogwild thread writes the sequential trainer's bytes,
# and HogBatch over one sentence builds one worker at `--threads 3` and
# writes the `--threads 1` bytes.
step "One worker is the one-thread run (both kernel backends)"
"$G" generate --out corpus.txt --scale tiny --tokens 30000 --seed 42
head -n 1 corpus.txt | cut -d ' ' -f 1-200 > sentence.txt
for scalar in 0 1; do
    train="$G train --dim 16 --epochs 2 --negative 3"
    GW2V_FORCE_SCALAR=$scalar $train --input corpus.txt --out seq.txt --trainer seq
    GW2V_FORCE_SCALAR=$scalar $train --input corpus.txt --out hogwild1.txt \
        --trainer hogwild --threads 1
    cmp seq.txt hogwild1.txt
    # One worker updates the plain rows in place, three gather them from
    # the atomic cells into blocks of -0: the window kernel must not tell.
    # Dim 64 with 5 negatives scores a group of four targets plus a tail;
    # dim 67 with 40 adds the `dim % 8` tail and several blocks; window 9
    # puts up to 18 inputs in a window, so an id repeats across them.
    for shape in "--dim 16 --negative 3" "--dim 64 --negative 5" "--dim 67 --negative 40" \
        "--window 9 --dim 67 --negative 40"; do
        hogbatch="$G train --epochs 2 $shape --input sentence.txt --trainer hogbatch --subsample 0"
        GW2V_FORCE_SCALAR=$scalar $hogbatch --out hogbatch1.txt --threads 1
        GW2V_FORCE_SCALAR=$scalar $hogbatch --out hogbatch3.txt --threads 3
        cmp hogbatch1.txt hogbatch3.txt
    done
done
echo "one worker writes the one-thread bytes on both backends"

# Both cluster engines dispatch a sentence through `Step`, built from
# `--sgns`; under `--plan pull` each host's inspection phase runs the
# recording store through the HogBatch loop.
step "Both engines run HogBatch through Step (opt, naive, pull)"
train="$G train --input corpus.txt --hosts 3 --sync-rounds 2 --dim 16 --epochs 2 --negative 3 --sgns hogbatch"
for plan in opt naive pull; do
    $train --out hogbatch-dist.txt --trainer dist --plan $plan
    $train --out hogbatch-threaded.txt --trainer threaded --plan $plan
    cmp hogbatch-dist.txt hogbatch-threaded.txt
    echo "--plan $plan: dist and threaded write the same HogBatch bytes"
done
# The replica store at a dim with a `dim % 8` tail, then also with
# windows of up to 18 inputs and 41 targets.
for shape in "--dim 67" "--window 9 --dim 67 --negative 40"; do
    $train $shape --out hogbatch-dist.txt --trainer dist
    $train $shape --out hogbatch-threaded.txt --trainer threaded
    cmp hogbatch-dist.txt hogbatch-threaded.txt
done

# The compact wire modes go through each engine's own transport: the
# simulator hands payloads over in process, the threaded engine ships them
# in CRC-sealed frames between threads. Under the dense plan both must
# write the same model. `--wire memo` is no mode: a typed error that names
# the modes there are, and no model.
step "Compact wire modes through the CLI (naive; delta, quant; memo refused)"
train="$G train --input corpus.txt --hosts 3 --sync-rounds 2 --dim 16 --epochs 2 --negative 3 --plan naive"
for wire in delta quant; do
    $train --out wire-dist.txt --trainer dist --wire $wire
    $train --out wire-threaded.txt --trainer threaded --wire $wire
    cmp wire-dist.txt wire-threaded.txt
    echo "--wire $wire: dist and threaded write the same bytes"
done
rm -f wire-memo.txt
status=0
$train --out wire-memo.txt --trainer dist --wire memo 2> memo.err || status=$?
cat memo.err
if [ "$status" -ne 1 ] || ! grep -q delta memo.err || ! grep -q id-value memo.err \
    || [ -e wire-memo.txt ]; then
    echo "--wire memo: want exit 1 naming delta and id-value and no model, got exit $status" >&2
    exit 1
fi

step "Threaded chaos-rejoin smoke: at least one host rejoined and training converged"
GW2V_METRICS=1 GW2V_METRICS_OUT=metrics.json "$G" train \
    --input corpus.txt --out model.txt --trainer threaded \
    --fault-plan "seed=7,crash=1@1,rejoin=1@2" \
    --hosts 3 --sync-rounds 2 --dim 16 --epochs 3 --negative 3 --seed 5
python3 "$ROOT/scripts/ci/check.py" counters metrics.json \
    --require faults.recovered.rejoin gluon.state_transfer_bytes
python3 "$ROOT/scripts/ci/check.py" model model.txt

# One rule writes every checkpoint, so a run killed on one engine resumes
# on the other: host 1 is dead at the epoch-1 checkpoint and rejoins after
# the resume, and both directions must land on the uninterrupted
# simulator's bytes.
step "Resume across engines (dist → threaded, threaded → dist)"
train="$G train --input corpus.txt --hosts 3 --sync-rounds 2 --dim 16 --epochs 3 --negative 3 --seed 5"
plan="seed=7,crash=1@1,rejoin=1@2"
$train --out full.txt --trainer dist --fault-plan "$plan"
for engines in "dist threaded" "threaded dist"; do
    set -- $engines
    rm -rf ck
    $train --out killed.txt --trainer "$1" --fault-plan "$plan,kill=1" --checkpoint-dir ck
    $train --out resumed.txt --trainer "$2" --fault-plan "$plan,kill=1" \
        --checkpoint-dir ck --resume
    cmp resumed.txt full.txt
    echo "killed on $1, resumed on $2: the uninterrupted bytes"
done

# The simulator trains its hosts' rounds on every core this process may
# run on, each host on one thread against its own replica. Pinned to one
# core it trains them all on one thread, and must write the same bytes.
step "One core is the same run (dist --hosts 8: opt, pull, crash/rejoin)"
if ! command -v taskset > /dev/null; then
    echo "taskset is missing: this step needs it to pin a run to one core" >&2
    exit 1
fi
train="$G train --input corpus.txt --trainer dist --hosts 8 --sync-rounds 2 --dim 16 --epochs 3 --negative 3 --seed 5"
for args in "--plan opt" "--plan pull" "--plan opt --fault-plan seed=7,crash=2@1,rejoin=2@2"; do
    $train $args --out cores.txt
    taskset -c 0 $train $args --out one-core.txt
    cmp cores.txt one-core.txt
    echo "$args: one core writes the bytes of $(nproc) cores"
done
