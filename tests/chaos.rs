//! Chaos tests: the fault-tolerance subsystem end-to-end.
//!
//! Under a pinned fault plan the threaded cluster must detect and
//! recover every injected fault and still produce the *exact* model the
//! sequential simulator computes for the same plan; checkpoint → kill →
//! resume must be bit-identical to an uninterrupted run; and with the
//! inert plan the whole subsystem must be invisible (zero-cost-when-off).

use graph_word2vec::combiner::CombinerKind;
use graph_word2vec::core::distributed::{DistConfig, DistributedTrainer};
use graph_word2vec::core::loss::estimate_loss;
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::core::setup::TrainSetup;
use graph_word2vec::core::trainer_threaded::ThreadedTrainer;
use graph_word2vec::corpus::datasets::{DatasetPreset, Scale};
use graph_word2vec::corpus::shard::Corpus;
use graph_word2vec::corpus::tokenizer::{sentences_from_text, TokenizerConfig};
use graph_word2vec::corpus::vocab::{VocabBuilder, Vocabulary};
use graph_word2vec::faults::FaultPlan;
use graph_word2vec::gluon::cost::CostModel;
use graph_word2vec::gluon::plan::SyncPlan;
use graph_word2vec::gluon::threaded::ClusterError;
use graph_word2vec::gluon::ClusterConfig;
use std::path::PathBuf;
use std::time::Duration;

fn prepare() -> (Vocabulary, Corpus, Hyperparams) {
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    let synth = preset.generate(Scale::Tiny, 99);
    let cfg = TokenizerConfig::default();
    let mut b = VocabBuilder::new();
    for s in sentences_from_text(&synth.text, cfg.clone()) {
        b.add_sentence(&s);
    }
    let vocab = b.build(1);
    // Shrink the corpus so the threaded runs stay fast.
    let corpus = Corpus::from_sentences(
        Corpus::from_text(&synth.text, &vocab, cfg)
            .sentences()
            .iter()
            .take(300)
            .cloned()
            .collect(),
    );
    let params = Hyperparams {
        dim: 16,
        window: 3,
        negative: 3,
        epochs: 3,
        seed: 5,
        ..Hyperparams::default()
    };
    (vocab, corpus, params)
}

fn dist_cfg(n_hosts: usize, rounds: usize) -> DistConfig {
    DistConfig {
        n_hosts,
        sync_rounds: rounds,
        plan: SyncPlan::RepModelOpt,
        combiner: CombinerKind::ModelCombiner,
        cost: CostModel::infiniband_56g(),
        wire: graph_word2vec::gluon::WireMode::IdValue,
        sgns: graph_word2vec::core::trainer_hogbatch::SgnsMode::PerPair,
        on_partition: graph_word2vec::faults::OnPartition::Stall,
        max_stale_rounds: 8,
    }
}

fn fast_cluster() -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(1),
        nak_delay: Duration::from_millis(10),
        ..ClusterConfig::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gw2v-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The pinned chaos plan of ISSUE/CI: one crash, 2% message drops, one
/// straggler. Every fault must be detected, recovered, and leave the
/// threaded engine bit-identical to the sequential simulator.
#[test]
fn pinned_chaos_plan_recovers_and_converges() {
    graph_word2vec::obs::set_enabled(true);
    let (vocab, corpus, params) = prepare();
    let plan = FaultPlan::parse("seed=7,drop=0.02,crash=1@2,straggle=2@1x20ms").unwrap();
    let cfg = dist_cfg(3, 2);

    let clean = DistributedTrainer::new(params.clone(), cfg).train(&corpus, &vocab);

    let before = graph_word2vec::obs::snapshot().counters;
    let sim = DistributedTrainer::new(params.clone(), cfg)
        .with_faults(plan.clone())
        .train(&corpus, &vocab);
    let thr = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(plan)
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("chaos run must complete");
    let after = graph_word2vec::obs::snapshot().counters;

    // Recovery is exact: both engines degrade identically.
    assert_eq!(sim.model, thr.model, "chaos engines must agree bit-for-bit");
    assert_eq!(sim.pairs_trained, thr.pairs_trained);

    // The run converges: finite loss, within tolerance of faultless.
    let setup = TrainSetup::new(&vocab, &params);
    let probe = |m| estimate_loss(m, &corpus, &setup, params.window, params.negative, 512, 17);
    let clean_loss = probe(&clean.model);
    let chaos_loss = probe(&thr.model);
    assert!(chaos_loss.is_finite(), "chaos loss {chaos_loss}");
    assert!(
        chaos_loss <= clean_loss * 1.25 + 0.1,
        "chaos loss {chaos_loss} vs faultless {clean_loss}"
    );

    // Every fault family was exercised: injected, detected, recovered.
    let delta =
        |name: &str| after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);
    for name in [
        "faults.injected.drop",
        "faults.injected.crash",
        "faults.injected.straggle",
        "faults.detected.crash",
        "faults.recovered.resend",
        "faults.recovered.adopt",
    ] {
        assert!(delta(name) > 0, "{name} never counted");
    }
    // The simulator charges dropped messages as virtual retransmission
    // latency: with drops alone (no crash shrinking the cluster) the
    // communication clock must rise while the model bits stay untouched.
    let drops_only = DistributedTrainer::new(params, cfg)
        .with_faults(FaultPlan::parse("seed=7,drop=0.02").unwrap())
        .train(&corpus, &vocab);
    assert!(
        drops_only.comm_time > clean.comm_time,
        "drops must cost virtual time: {} vs {}",
        drops_only.comm_time,
        clean.comm_time
    );
    assert_eq!(
        drops_only.model, clean.model,
        "recovered drops must not change the model"
    );
    assert!(sim.compute_time > 0.0 && !sim.killed);
}

/// Checkpoint, kill after epoch 1, resume: the resumed run must finish
/// with exactly the bits an uninterrupted run produces.
#[test]
fn checkpoint_kill_resume_is_bit_identical() {
    let (vocab, corpus, params) = prepare();
    let cfg = dist_cfg(3, 2);
    let dir = tmpdir("resume");

    let uninterrupted = DistributedTrainer::new(params.clone(), cfg).train(&corpus, &vocab);

    let killed = DistributedTrainer::new(params.clone(), cfg)
        .with_checkpointing(&dir, 1)
        .with_faults(FaultPlan::parse("kill=1").unwrap())
        .train(&corpus, &vocab);
    assert!(killed.killed, "kill=1 must stop the run early");
    assert_ne!(
        killed.model, uninterrupted.model,
        "the killed run stopped an epoch short"
    );

    let resumed = DistributedTrainer::new(params.clone(), cfg)
        .with_checkpointing(&dir, 1)
        .with_resume(true)
        .train(&corpus, &vocab);
    assert_eq!(resumed.resumed_from, Some(2), "must resume at epoch 2");
    assert_eq!(
        resumed.model, uninterrupted.model,
        "resume must reproduce the uninterrupted run bit-for-bit"
    );
    assert_eq!(resumed.pairs_trained, uninterrupted.pairs_trained);
    assert_eq!(resumed.stats, uninterrupted.stats);

    // Resuming again from the final checkpoint is a no-op run that still
    // returns the same model.
    let again = DistributedTrainer::new(params, cfg)
        .with_checkpointing(&dir, 1)
        .with_resume(true)
        .train(&corpus, &vocab);
    assert_eq!(again.model, uninterrupted.model);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The partition families end-to-end. Stall mode: the threaded cluster
/// withholds, NAKs, dedups and heals — every new counter family fires —
/// while the model stays bit-identical to the simulator. Degrade mode:
/// the reachable side keeps training with the dormant host's shard
/// adopted, the heal runs the rejoin/state-transfer path, and the final
/// model's loss stays inside the chaos envelope of the stall baseline.
#[test]
fn partition_stall_and_degrade_recover_and_converge() {
    graph_word2vec::obs::set_enabled(true);
    let (vocab, corpus, params) = prepare();
    let cfg = dist_cfg(3, 2);
    let plan = FaultPlan::parse("seed=7,partition=0.1|2@2..4,dup=0.05,reorder=0.2").unwrap();
    let delta = |a: &std::collections::BTreeMap<String, u64>,
                 b: &std::collections::BTreeMap<String, u64>,
                 name: &str| {
        b.get(name).copied().unwrap_or(0) - a.get(name).copied().unwrap_or(0)
    };

    // --- Stall mode ---
    let before = graph_word2vec::obs::snapshot().counters;
    let stall_sim = DistributedTrainer::new(params.clone(), cfg)
        .with_faults(plan.clone())
        .train(&corpus, &vocab);
    let stall_thr = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(plan.clone())
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("stalled partition run must complete");
    let after = graph_word2vec::obs::snapshot().counters;
    assert_eq!(stall_sim.model, stall_thr.model, "stall mode bit-identity");
    for name in [
        "faults.injected.partition",
        "faults.injected.dup",
        "faults.injected.reorder",
        "faults.recovered.dedup",
        "faults.recovered.heal",
        "faults.recovered.resend",
        "faults.detected.timeout",
    ] {
        assert!(delta(&before, &after, name) > 0, "{name} never counted");
    }

    // --- Degrade mode ---
    let degrade_cfg = DistConfig {
        on_partition: graph_word2vec::faults::OnPartition::Degrade,
        ..cfg
    };
    let before = graph_word2vec::obs::snapshot().counters;
    let deg_sim = DistributedTrainer::new(params.clone(), degrade_cfg)
        .with_faults(plan.clone())
        .train(&corpus, &vocab);
    let deg_thr = ThreadedTrainer::new(params.clone(), degrade_cfg)
        .with_faults(plan)
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("degraded partition run must complete");
    let after = graph_word2vec::obs::snapshot().counters;
    assert_eq!(deg_sim.model, deg_thr.model, "degrade mode bit-identity");
    for name in [
        "faults.injected.partition",
        "faults.detected.partition",
        "faults.recovered.heal",
        "faults.recovered.adopt",
        "faults.recovered.rejoin",
    ] {
        assert!(delta(&before, &after, name) > 0, "{name} never counted");
    }

    // Degrade trades some accuracy for availability, bounded by the
    // staleness limit: its loss stays inside the chaos envelope of the
    // stall baseline.
    let setup = TrainSetup::new(&vocab, &params);
    let probe = |m| estimate_loss(m, &corpus, &setup, params.window, params.negative, 512, 17);
    let stall_loss = probe(&stall_thr.model);
    let degrade_loss = probe(&deg_thr.model);
    assert!(degrade_loss.is_finite(), "degrade loss {degrade_loss}");
    assert!(
        degrade_loss <= stall_loss * 1.25 + 0.1,
        "degrade loss {degrade_loss} vs stall {stall_loss}"
    );
}

/// A plan under which no frame arrives fails on both engines with the
/// receiver's give-up. A threaded host that gives up leaves the liveness
/// registry first, so a peer's send to its thread is no `SendFailed`
/// and the peer gives up too; the simulator's `train` panics with the
/// same text.
#[test]
fn a_plan_no_frame_survives_fails_with_the_give_up() {
    let (vocab, corpus, params) = prepare();
    let cfg = dist_cfg(2, 2);
    let plan = FaultPlan::parse("seed=7,flip=1").unwrap();
    let cluster = ClusterConfig {
        max_retries: 3,
        ..fast_cluster()
    };
    // Which host gives up first is a race: repeat to meet both orders.
    for _ in 0..16 {
        let got = ThreadedTrainer::new(params.clone(), cfg)
            .with_faults(plan.clone())
            .with_cluster_config(cluster)
            .train(&corpus, &vocab);
        let gave_up = matches!(got, Err(ClusterError::RetriesExhausted { .. }));
        assert!(gave_up, "{:?}", got.map(|r| r.pairs_trained));
    }
    let sim = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        DistributedTrainer::new(params, cfg)
            .with_faults(plan)
            .train(&corpus, &vocab)
    }));
    let why = sim
        .expect_err("the simulator gives up")
        .downcast::<String>();
    let why = why.expect("a formatted panic");
    assert!(why.contains("after max retries"), "{why}");
}

/// Zero-cost-when-off: the inert plan and checkpoint writes must leave
/// the training computation bit-identical to a plain run.
#[test]
fn inert_plan_and_checkpointing_change_nothing() {
    let (vocab, corpus, params) = prepare();
    let cfg = dist_cfg(4, 3);
    let dir = tmpdir("inert");

    let plain = DistributedTrainer::new(params.clone(), cfg).train(&corpus, &vocab);
    let instrumented = DistributedTrainer::new(params, cfg)
        .with_faults(FaultPlan::none())
        .with_checkpointing(&dir, 2)
        .train(&corpus, &vocab);

    assert_eq!(plain.model, instrumented.model);
    assert_eq!(plain.pairs_trained, instrumented.pairs_trained);
    assert_eq!(plain.stats, instrumented.stats);
    assert!(!instrumented.killed && instrumented.resumed_from.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
