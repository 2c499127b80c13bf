#!/usr/bin/env bash
# Perf smoke: the two regressions this repo has actually shipped, turned
# into cheap CI assertions.
#
#   1. The parallel path must be *faster* than the baseline it replaced:
#      epoch/hogbatch_2threads < epoch/hogwild_2threads.
#   2. The quantized codec must pay for itself: both `wire/quant_*`
#      benches must hit GW2V_QUANT_MIN_SPEEDUP (default 1.0) vs
#      forced-scalar — its kernels do real arithmetic (u8 quantize), so
#      SIMD losing to scalar means the dispatch table regressed.
#      Healthy runs: quant encode ~8x. The id-value, value-only and
#      delta codecs are one plain little-endian copy, the same code
#      under either backend, so there is nothing to compare for them.
#   3. Compressed payloads must stay ordered on a repeat-heavy Naive
#      workload: delta <= memo <= classic total bytes, pinned by the
#      `conformance_naive_wire_bytes_ordering` test.
#
# Parses the vendored criterion stub's output:
#   BENCH_RESULT\t<group>/<id>\t<ns_per_iter>\t<iters>
set -euo pipefail

cd "$(dirname "$0")/.."

QUANT_MIN_SPEEDUP="${GW2V_QUANT_MIN_SPEEDUP:-1.0}"

echo "building benches (release)..." >&2
cargo build --release --benches -q

bench() { # $1 = bench name, $2 = GW2V_FORCE_SCALAR value
    GW2V_FORCE_SCALAR="$2" cargo bench -q -p gw2v-bench --bench "$1" 2>/dev/null |
        grep -a $'^BENCH_RESULT\t'
}

echo "running epoch benches (dispatched)..." >&2
EPOCH="$(bench epoch_end_to_end 0)"
HB="$(awk -F'\t' '$2 == "epoch/hogbatch_2threads" { print $3 }' <<<"$EPOCH")"
HW="$(awk -F'\t' '$2 == "epoch/hogwild_2threads" { print $3 }' <<<"$EPOCH")"
awk -v hb="$HB" -v hw="$HW" 'BEGIN {
    if (hb + 0 <= 0 || hw + 0 <= 0) {
        print "FAIL: missing epoch/hogbatch_2threads or epoch/hogwild_2threads"
        exit 1
    }
    printf "epoch/hogbatch_2threads %.1f ms vs epoch/hogwild_2threads %.1f ms (%.2fx)\n", \
        hb / 1e6, hw / 1e6, hw / hb
    if (hb >= hw) {
        print "FAIL: hogbatch_2threads is not faster than hogwild_2threads"
        exit 1
    }
}'

echo "running wire/quant_* benches (dispatched + forced-scalar)..." >&2
SIMD_TSV="$(mktemp)"
SCALAR_TSV="$(mktemp)"
trap 'rm -f "$SIMD_TSV" "$SCALAR_TSV"' EXIT
bench sync_plans 0 | awk -F'\t' '$2 ~ /^wire\/quant_/ { print $2 "\t" $3 }' >"$SIMD_TSV"
bench sync_plans 1 | awk -F'\t' '$2 ~ /^wire\/quant_/ { print $2 "\t" $3 }' >"$SCALAR_TSV"

awk -F'\t' -v floor="$QUANT_MIN_SPEEDUP" '
    FNR == 1 { file++ }
    file == 1 { simd[$1] = $2; order[++n] = $1 }
    file == 2 { scalar[$1] = $2 }
    END {
        if (n != 2) {
            printf "FAIL: expected 2 wire/quant_* benches, found %d\n", n
            exit 1
        }
        bad = 0
        for (i = 1; i <= n; i++) {
            id = order[i]
            sp = (simd[id] > 0) ? scalar[id] / simd[id] : 0
            verdict = (sp >= floor) ? "ok" : "FAIL"
            if (sp < floor) bad++
            printf "%-28s scalar %10.1f ns  simd %10.1f ns  speedup %.3f  floor %.2f  %s\n", \
                id, scalar[id], simd[id], sp, floor, verdict
        }
        if (bad > 0) {
            print "FAIL: " bad " wire bench(es) below their speedup floor"
            exit 1
        }
    }
' "$SIMD_TSV" "$SCALAR_TSV"

echo "running wire byte-ordering assertion (delta <= memo <= classic, Naive plan)..." >&2
cargo test --release -q -p graph-word2vec --test conformance \
    conformance_naive_wire_bytes_ordering

echo "perf smoke passed" >&2
