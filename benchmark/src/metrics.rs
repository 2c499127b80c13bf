//! The metric tables: every name `BENCHMARK.json` lists, with its unit
//! and direction (tests/manifest.rs holds the two in step).
//!
//! A per-layer metric whose layer is not on a workload's path reads 0
//! there; README.md has the layer → end-to-end metric → workload table.

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`. Each
/// bound is about three times the widest quartile distance its metric
/// showed over ten seeds on any workload in the sets behind README.md's
/// "Acceptance run"; a tighter one would reject unchanged code on this
/// box.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("run_s", "s", false, 0.20),
    e2e("throughput_per_s", "1/s", true, 0.20),
    e2e("cpu_s", "s", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.15),
    e2e("quality_score", "ratio", true, 0.15),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    lower("corpus.read_s", "s"),
    lower("corpus.vocab_s", "s"),
    lower("corpus.encode_s", "s"),
    higher("corpus.encode_mtok_per_s", "Mtok/s"),
    lower("corpus.edge_list_load_s", "s"),
    lower("corpus.holdout_split_s", "s"),
    lower("corpus.walks_s", "s"),
    higher("corpus.walks_mtok_per_s", "Mtok/s"),
    lower("corpus.walks_write_s", "s"),
    lower("core.train_s", "s"),
    higher("core.pairs", "count"),
    higher("core.pairs_per_s", "1/s"),
    lower("core.epoch_s", "s"),
    lower("core.hogbatch.sentence_ns", "ns"),
    higher("util.simd.gemm_nt_gflops", "GFLOP/s"),
    higher("util.simd.gemm_tn_gflops", "GFLOP/s"),
    lower("core.sgns.sentence_ns", "ns"),
    higher("util.simd.dot_gflops", "GFLOP/s"),
    higher("util.simd.axpy_gflops", "GFLOP/s"),
    lower("core.seq.train_s", "s"),
    lower("core.dist.overhead_vs_seq", "ratio"),
    lower("core.dist.virtual_compute_s", "s"),
    lower("core.dist.virtual_comm_s", "s"),
    lower("gluon.sync.round_ms", "ms"),
    lower("gluon.sync.rows_per_round", "count"),
    lower("gluon.rounds", "count"),
    higher("combiner.mc_mrows_per_s", "Mrows/s"),
    lower("gluon.threaded.round_ms", "ms"),
    lower("gluon.threaded.msgs", "count"),
    lower("gluon.threaded.barrier_wait_frac", "ratio"),
    higher("gluon.wire.idvalue_encode_mb_per_s", "MB/s"),
    higher("gluon.wire.idvalue_decode_mb_per_s", "MB/s"),
    higher("gluon.wire.frame_seal_mb_per_s", "MB/s"),
    higher("util.crc32_gb_per_s", "GB/s"),
    higher("gluon.wire.quant_encode_mb_per_s", "MB/s"),
    higher("gluon.wire.delta_encode_mb_per_s", "MB/s"),
    lower("gluon.comm_mb", "MB"),
    lower("gluon.reduce_mb", "MB"),
    lower("gluon.broadcast_mb", "MB"),
    lower("core.hogbatch.t2_train_s", "s"),
    higher("core.hogbatch.t2_speedup", "ratio"),
    lower("core.save_text_s", "s"),
    higher("core.save_text_mb_per_s", "MB/s"),
    lower("core.load_text_s", "s"),
    higher("core.load_text_mb_per_s", "MB/s"),
    lower("serve.store_build_s", "s"),
    lower("serve.parse_s", "s"),
    lower("serve.single_p50_us", "us"),
    lower("serve.single_p99_us", "us"),
    lower("serve.batch32_p50_us", "us"),
    lower("serve.json_s", "s"),
    higher("serve.scan_mrows_per_s", "Mrows/s"),
    lower("eval.analogy_s", "s"),
    lower("eval.linkpred_s", "s"),
    higher("bench.box_speed", "ratio"),
    lower("bench.inputs_s", "s"),
    lower("bench.lap_spread", "ratio"),
    higher("bench.quiet_laps", "count"),
    lower("trace.overhead_frac", "ratio"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
