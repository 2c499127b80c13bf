#!/usr/bin/env bash
# Perf smoke: the two regressions this repo has actually shipped, turned
# into cheap CI assertions, plus the wire byte ordering.
#
#   1. The parallel path must be *faster* than the baseline it replaced:
#      epoch/hogbatch_2threads < epoch/hogwild_2threads.
#   2. The quantizing encoder must pay for itself: `wire/quant_encode_500x64`
#      must hit GW2V_QUANT_MIN_SPEEDUP (default 1.0) vs forced-scalar —
#      its kernel does real arithmetic (u8 quantize), so SIMD losing to
#      scalar means the dispatch table regressed. Healthy runs: ~8x.
#      Decoding runs the one scalar `dequantize_rows` on both backends,
#      and the id-value, value-only and delta codecs are one plain
#      little-endian copy, so there is nothing to compare for them.
#   3. Compressed payloads must stay ordered on a repeat-heavy Naive
#      workload: delta <= memo <= classic total bytes, pinned by the
#      `conformance_naive_wire_bytes_ordering` test.
#
# Parses the vendored criterion stub's output:
#   BENCH_RESULT\t<group>/<id>\t<ns_per_iter>\t<iters>
# GW2V_BENCH_MS (default 500 here) is the per-bench budget: shared
# runners are noisy.
set -euo pipefail

cd "$(dirname "$0")/../.."
export GW2V_BENCH_MS="${GW2V_BENCH_MS:-500}"
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

echo "running wire/quant_encode_500x64 (dispatched + forced-scalar)..." >&2
quant() { bench sync_plans "$1" | awk -F'\t' '$2 == "wire/quant_encode_500x64" { print $3 }'; }
SIMD="$(quant 0)"
SCALAR="$(quant 1)"
awk -v simd="$SIMD" -v scalar="$SCALAR" -v floor="$QUANT_MIN_SPEEDUP" 'BEGIN {
    if (simd + 0 <= 0 || scalar + 0 <= 0) {
        print "FAIL: missing wire/quant_encode_500x64"
        exit 1
    }
    sp = scalar / simd
    printf "wire/quant_encode_500x64 scalar %.1f ns  simd %.1f ns  speedup %.3f  floor %.2f\n", \
        scalar, simd, sp, floor
    if (sp < floor) {
        print "FAIL: wire/quant_encode_500x64 is below its speedup floor"
        exit 1
    }
}'

echo "running wire byte-ordering assertion (delta <= memo <= classic, Naive plan)..." >&2
cargo test --release -q -p graph-word2vec --test conformance \
    conformance_naive_wire_bytes_ordering

echo "perf smoke passed" >&2
