#!/usr/bin/env bash
# Chaos smoke: trains one fault plan on both cluster engines with metrics
# on and requires every counter of its families to be non-zero on both:
# each injected fault was detected and recovered. Both engines draw one
# injector (`FaultPlan::attempt`): the threaded cluster acts on it, the
# simulator's mailboxes count it.
#   scripts/ci/chaos.sh crash-drop-straggle|partition-stall|partition-degrade|all
set -euo pipefail
cd "$(dirname "$0")/../.."
ROOT=$PWD
G=$ROOT/target/release/gw2v

cell() {
    local plan required extra_flags=""
    case "$1" in
    # The pinned chaos plan of tests/chaos.rs: one crash, 2% message drops,
    # one straggler, all deterministic under seed=7.
    crash-drop-straggle)
        plan="seed=7,drop=0.02,crash=1@2,straggle=2@1x20ms"
        required="faults.injected.drop faults.injected.crash faults.injected.straggle
            faults.detected.crash faults.recovered.resend faults.recovered.adopt" ;;
    # A 2-round partition of host 2 plus duplicated and reordered messages,
    # ridden out in the default stall mode: every frame heals through the
    # NAK backoff and the model is bit-identical to a faultless run.
    partition-stall)
        plan="seed=7,partition=0.1|2@2..4,dup=0.05,reorder=0.2"
        required="faults.injected.partition faults.injected.dup faults.injected.reorder
            faults.detected.timeout faults.recovered.dedup faults.recovered.heal
            faults.recovered.resend" ;;
    # The same plan in bounded-staleness degrade mode: the dormant side is
    # turned into crash + rejoin, so the reachable side keeps training and
    # heals through adoption and re-admission.
    partition-degrade)
        plan="seed=7,partition=0.1|2@2..4,dup=0.05,reorder=0.2"
        extra_flags="--on-partition degrade --max-stale-rounds 8"
        required="faults.injected.partition faults.detected.partition
            faults.recovered.heal faults.recovered.adopt faults.recovered.rejoin" ;;
    *)
        echo "unknown chaos cell: $1" >&2
        exit 2 ;;
    esac
    printf '\n== Chaos smoke (%s)\n' "$1"
    rm -rf "target/ci/chaos/$1" && mkdir -p "target/ci/chaos/$1"
    (
        cd "target/ci/chaos/$1"
        export GW2V_METRICS=1 GW2V_FAULT_PLAN="$plan"
        "$G" generate --out corpus.txt --scale tiny --tokens 30000 --seed 42
        for trainer in threaded dist; do
            GW2V_METRICS_OUT=metrics_$trainer.json "$G" train \
                --input corpus.txt --out model_$trainer.txt --trainer $trainer \
                --hosts 3 --sync-rounds 2 --dim 16 --epochs 3 --negative 3 --seed 5 \
                $extra_flags
        done
        python3 "$ROOT/scripts/ci/check.py" counters metrics_threaded.json metrics_dist.json \
            --require $required
    )
}

: "${1:?usage: scripts/ci/chaos.sh <cell>|all}"
[ "$1" = all ] && set -- crash-drop-straggle partition-stall partition-degrade
cargo build --release -p gw2v-cli
for name in "$@"; do cell "$name"; done
