//! Ablation study (not in the paper — design-choice validation from
//! DESIGN.md §4): combiner variants, negative-sampler implementations,
//! and the incremental vs pairwise-tree model-combiner fold.

use gw2v_bench::{
    bench_params, epochs_from_env, obs_init, prepare, scale_from_env, write_json_run,
};
use gw2v_combiner::CombinerKind;
use gw2v_core::distributed::{DistConfig, DistributedTrainer};
use gw2v_core::params::SamplerChoice;
use gw2v_corpus::datasets::{DatasetPreset, Scale};
use gw2v_eval::analogy::evaluate;
use gw2v_gluon::plan::SyncPlan;
use gw2v_gluon::wire::WireMode;
use gw2v_util::table::{fmt_secs, Align, Table};
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    study: String,
    variant: String,
    total_accuracy: f64,
    virtual_secs: f64,
    comm_bytes: u64,
}

fn main() {
    obs_init();
    let scale = scale_from_env(Scale::Tiny);
    let epochs = epochs_from_env(8);
    let hosts = 8;
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    println!(
        "Ablations on {} at {hosts} hosts (scale {scale:?}, {epochs} epochs)\n",
        preset.paper_name
    );
    let d = prepare(preset, scale, 42);
    let mut rows = Vec::new();

    // Study 1: reduction operator.
    for combiner in [
        CombinerKind::ModelCombiner,
        CombinerKind::ModelCombinerPairwise,
        CombinerKind::Avg,
        CombinerKind::Sum,
    ] {
        eprintln!("[ablation] combiner {} ...", combiner.label());
        let params = bench_params(scale, epochs, 1);
        let mut config = DistConfig::paper_default(hosts);
        config.combiner = combiner;
        let result = DistributedTrainer::new(params, config).train(&d.corpus, &d.vocab);
        let report = evaluate(&result.model, &d.vocab, &d.synth.analogies);
        rows.push(AblationRow {
            study: "combiner".into(),
            variant: combiner.label().into(),
            total_accuracy: report.total(),
            virtual_secs: result.virtual_time(),
            comm_bytes: result.stats.total_bytes(),
        });
    }

    // Study 2: negative-sampling table vs alias method.
    for sampler in [SamplerChoice::Table, SamplerChoice::Alias] {
        eprintln!("[ablation] sampler {sampler:?} ...");
        let mut params = bench_params(scale, epochs, 1);
        params.sampler = sampler;
        let config = DistConfig::paper_default(hosts);
        let result = DistributedTrainer::new(params, config).train(&d.corpus, &d.vocab);
        let report = evaluate(&result.model, &d.vocab, &d.synth.analogies);
        rows.push(AblationRow {
            study: "sampler".into(),
            variant: format!("{sampler:?}"),
            total_accuracy: report.total(),
            virtual_secs: result.virtual_time(),
            comm_bytes: result.stats.total_bytes(),
        });
    }

    // Study 3: wire payload mode. Delta ships a changed-row bitmask plus
    // changed rows against a per-key shadow; quant ships u8 codes with a
    // per-row scale/offset pair. Id+value and delta must be bit-identical
    // in accuracy — they change bytes, never arithmetic — while quant is
    // deterministically lossy (bounded accuracy delta, biggest byte cut).
    for plan in [
        SyncPlan::RepModelNaive,
        SyncPlan::RepModelOpt,
        SyncPlan::PullModel,
    ] {
        for wire in [WireMode::IdValue, WireMode::Delta, WireMode::Quant] {
            eprintln!("[ablation] wire {}/{} ...", plan.label(), wire.label());
            let params = bench_params(scale, epochs, 1);
            let mut config = DistConfig::paper_default(hosts);
            config.plan = plan;
            config.wire = wire;
            let result = DistributedTrainer::new(params, config).train(&d.corpus, &d.vocab);
            let report = evaluate(&result.model, &d.vocab, &d.synth.analogies);
            rows.push(AblationRow {
                study: "wire".into(),
                variant: format!("{}/{}", plan.label(), wire.label()),
                total_accuracy: report.total(),
                virtual_secs: result.virtual_time(),
                comm_bytes: result.stats.total_bytes(),
            });
        }
    }

    let mut table = Table::new(vec!["Study", "Variant", "Total acc", "Virt time", "Volume"])
        .with_aligns(&[
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for r in &rows {
        table.add_row(vec![
            r.study.clone(),
            r.variant.clone(),
            format!("{:.2}", r.total_accuracy),
            fmt_secs(r.virtual_secs),
            gw2v_util::table::fmt_bytes(r.comm_bytes),
        ]);
    }
    print!("{table}");
    println!("\nExpected: MC ≈ MC-PW ≫ AVG; SUM degraded or diverged; Table ≈ Alias accuracy;");
    println!("delta wire == id-value accuracy at ≤ volume (strictly lower for naive);");
    println!("quant wire: every plan cut to the (12+dim)/(4+4dim) fraction of id-value volume,");
    println!("accuracy within a few points (lossy). Delta can undercut quant on the naive plan,");
    println!("whose dense lists are mostly unchanged rows.");
    write_json_run("ablation", scale, 1, &rows);
}
