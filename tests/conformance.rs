//! Differential conformance suite: threaded engine vs BSP simulator.
//!
//! The two engines implement the same protocol on very different
//! substrates — virtual clocks and in-order folds on one side, OS
//! threads, CRC-framed transport and real barriers on the other. The
//! contract is that for every sync plan and every fault family they
//! produce **bit-identical** final models (`syn0`/`syn1neg`) and train
//! the same number of pairs, and the whole `CommStats` wherever a test
//! compares it. Virtual-time numbers are not compared: the threaded
//! engine reports the resume point's clocks and lives its latency
//! instead. Fault counters are compared in `tests/golden_faults.rs`,
//! which serializes the process-global counters
//! (`engines_count_the_same_faults`).
//!
//! The suite also pins the threaded engine's checkpoint/resume story:
//! kill → resume must be bit-for-bit the uninterrupted run, including
//! when a host is dead at the checkpoint and re-admitted after resume.

use graph_word2vec::combiner::CombinerKind;
use graph_word2vec::core::distributed::{DistConfig, DistributedTrainer, TrainResult};
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::core::trainer_threaded::ThreadedTrainer;
use graph_word2vec::corpus::datasets::{DatasetPreset, Scale};
use graph_word2vec::corpus::shard::Corpus;
use graph_word2vec::corpus::tokenizer::{sentences_from_text, TokenizerConfig};
use graph_word2vec::corpus::vocab::{VocabBuilder, Vocabulary};
use graph_word2vec::faults::FaultPlan;
use graph_word2vec::gluon::cost::CostModel;
use graph_word2vec::gluon::plan::SyncPlan;
use graph_word2vec::gluon::{ClusterConfig, WireMode};
use std::path::PathBuf;
use std::time::Duration;

const PLANS: [SyncPlan; 3] = [
    SyncPlan::RepModelNaive,
    SyncPlan::RepModelOpt,
    SyncPlan::PullModel,
];

fn prepare() -> (Vocabulary, Corpus, Hyperparams) {
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    let synth = preset.generate(Scale::Tiny, 42);
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
            .take(240)
            .cloned()
            .collect(),
    );
    let params = Hyperparams {
        dim: 16,
        window: 3,
        negative: 3,
        epochs: 3,
        seed: 11,
        ..Hyperparams::default()
    };
    (vocab, corpus, params)
}

fn dist_cfg(plan: SyncPlan) -> DistConfig {
    DistConfig {
        n_hosts: 3,
        sync_rounds: 2,
        plan,
        combiner: CombinerKind::ModelCombiner,
        cost: CostModel::infiniband_56g(),
        wire: WireMode::IdValue,
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
    let dir = std::env::temp_dir().join(format!("gw2v-conf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs both engines under `plan_str` and asserts model + pairs
/// bit-identity; returns the pair for extra per-family assertions.
fn run_pair(sync: SyncPlan, plan_str: &str) -> (TrainResult, TrainResult) {
    run_pair_wire(sync, WireMode::IdValue, plan_str)
}

/// [`run_pair`] with an explicit wire payload mode.
fn run_pair_wire(sync: SyncPlan, wire: WireMode, plan_str: &str) -> (TrainResult, TrainResult) {
    let (vocab, corpus, params) = prepare();
    let cfg = DistConfig {
        wire,
        ..dist_cfg(sync)
    };
    let plan = FaultPlan::parse(plan_str).expect("fault plan");
    let sim = DistributedTrainer::new(params.clone(), cfg)
        .with_faults(plan.clone())
        .train(&corpus, &vocab);
    let thr = ThreadedTrainer::new(params, cfg)
        .with_faults(plan)
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("threaded run must complete");
    assert_eq!(
        sim.model, thr.model,
        "[{sync:?} / {plan_str:?}] engines must agree bit-for-bit"
    );
    assert_eq!(
        sim.pairs_trained, thr.pairs_trained,
        "[{sync:?} / {plan_str:?}] pair counts must agree"
    );
    (sim, thr)
}

/// Faultless: every plan, both engines, identical bits and identical
/// communication volume.
#[test]
fn conformance_faultless_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair(sync, "seed=7");
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
        assert_eq!(sim.stats.rounds, thr.stats.rounds);
    }
}

/// Message corruption: drops and bit-flips are repaired by NAK/resend in
/// the threaded engine and charged as virtual latency in the simulator —
/// the model bits must come out untouched either way.
#[test]
fn conformance_drops_and_flips_all_plans() {
    for sync in PLANS {
        run_pair(sync, "seed=7,drop=0.03,flip=0.02");
    }
}

/// Host crash mid-run: the survivor adoption protocol must degrade both
/// engines identically, shard bytes included.
#[test]
fn conformance_crash_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair(sync, "seed=7,crash=1@2");
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
        assert!(!sim.killed && !thr.killed);
    }
}

/// Stragglers delay but never change arithmetic.
#[test]
fn conformance_straggle_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair(sync, "seed=7,straggle=2@1x15ms");
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
    }
}

/// Crash → re-admission: the rejoined host takes its partition back at
/// an epoch boundary (an analytic copy in the simulator, a CRC-sealed
/// state stream from the adopter in the threaded engine) and both
/// engines land on the same bits.
#[test]
fn conformance_rejoin_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair(sync, "seed=7,crash=1@1,rejoin=1@2");
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
    }
}

/// `CommStats::rounds` counts the rounds the run executed, not the most
/// any one host sat: here each of two hosts misses a round and rejoins,
/// and both engines report the whole `CommStats` alike.
#[test]
fn conformance_rounds_count_the_run_not_a_host() {
    let (vocab, corpus, params) = prepare();
    let cfg = DistConfig {
        n_hosts: 2,
        ..dist_cfg(SyncPlan::RepModelOpt)
    };
    let plan = FaultPlan::parse("crash=0@1,rejoin=0@1,crash=1@3,rejoin=1@2").unwrap();
    let sim = DistributedTrainer::new(params.clone(), cfg)
        .with_faults(plan.clone())
        .train(&corpus, &vocab);
    let thr = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(plan)
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("threaded run must complete");
    assert_eq!(sim.model, thr.model, "engines must agree bit-for-bit");
    assert_eq!(sim.stats, thr.stats, "engines must count the same traffic");
    assert_eq!(thr.stats.rounds, (params.epochs * cfg.sync_rounds) as u64);
}

/// Threaded checkpoint → kill → resume must reproduce the uninterrupted
/// threaded run bit-for-bit (which itself matches the simulator).
#[test]
fn threaded_kill_resume_is_bit_identical() {
    let (vocab, corpus, params) = prepare();
    let cfg = dist_cfg(SyncPlan::RepModelOpt);
    let dir = tmpdir("thr-resume");

    let uninterrupted = ThreadedTrainer::new(params.clone(), cfg)
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("uninterrupted run");

    let killed = ThreadedTrainer::new(params.clone(), cfg)
        .with_cluster_config(fast_cluster())
        .with_checkpointing(&dir, 1)
        .with_faults(FaultPlan::parse("kill=1").unwrap())
        .train(&corpus, &vocab)
        .expect("killed run");
    assert!(killed.killed, "kill=1 must stop the cluster early");
    assert_ne!(
        killed.model, uninterrupted.model,
        "the killed run stopped an epoch short"
    );

    let resumed = ThreadedTrainer::new(params.clone(), cfg)
        .with_cluster_config(fast_cluster())
        .with_checkpointing(&dir, 1)
        .with_resume(true)
        .train(&corpus, &vocab)
        .expect("resumed run");
    assert_eq!(resumed.resumed_from, Some(2), "must resume at epoch 2");
    assert_eq!(
        resumed.model, uninterrupted.model,
        "threaded resume must reproduce the uninterrupted run bit-for-bit"
    );
    assert_eq!(resumed.pairs_trained, uninterrupted.pairs_trained);
    assert_eq!(resumed.stats, uninterrupted.stats);

    // The simulator agrees with the whole story.
    let sim = DistributedTrainer::new(params, cfg).train(&corpus, &vocab);
    assert_eq!(sim.model, resumed.model);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hard case: a host is dead at the checkpoint, the cluster is
/// killed, and the resumed run re-admits it at the first epoch back.
/// Kill → resume must equal the uninterrupted crash+rejoin run in both
/// engines, and the engines must agree with each other.
#[test]
fn threaded_resume_with_dormant_rejoin_is_bit_identical() {
    let (vocab, corpus, params) = prepare();
    let cfg = dist_cfg(SyncPlan::RepModelOpt);
    let full_plan = FaultPlan::parse("seed=7,crash=1@1,rejoin=1@2").unwrap();
    let cut_plan = FaultPlan::parse("seed=7,crash=1@1,rejoin=1@2,kill=1").unwrap();

    let thr_full = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(full_plan.clone())
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("uninterrupted crash+rejoin run");

    let dir = tmpdir("thr-dormant");
    let thr_cut = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(cut_plan.clone())
        .with_cluster_config(fast_cluster())
        .with_checkpointing(&dir, 1)
        .train(&corpus, &vocab)
        .expect("killed run");
    assert!(thr_cut.killed);
    let thr_resumed = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(cut_plan.clone())
        .with_cluster_config(fast_cluster())
        .with_checkpointing(&dir, 1)
        .with_resume(true)
        .train(&corpus, &vocab)
        .expect("resumed run with dormant host");
    assert_eq!(thr_resumed.resumed_from, Some(2));
    assert_eq!(
        thr_resumed.model, thr_full.model,
        "resume with a dormant rejoiner must match the uninterrupted run"
    );
    assert_eq!(thr_resumed.pairs_trained, thr_full.pairs_trained);
    assert_eq!(thr_resumed.stats, thr_full.stats);
    let _ = std::fs::remove_dir_all(&dir);

    // Simulator under the same kill → resume sequence.
    let dir = tmpdir("sim-dormant");
    let sim_full = DistributedTrainer::new(params.clone(), cfg)
        .with_faults(full_plan)
        .train(&corpus, &vocab);
    let _ = DistributedTrainer::new(params.clone(), cfg)
        .with_faults(cut_plan.clone())
        .with_checkpointing(&dir, 1)
        .train(&corpus, &vocab);
    let sim_resumed = DistributedTrainer::new(params, cfg)
        .with_faults(cut_plan)
        .with_checkpointing(&dir, 1)
        .with_resume(true)
        .train(&corpus, &vocab);
    assert_eq!(sim_resumed.model, sim_full.model);
    assert_eq!(
        sim_full.model, thr_full.model,
        "engines must agree on the crash+rejoin run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delta wire mode, faultless: shadow copies on both ends must make
/// identical full/delta decisions in the analytic simulator and the
/// threaded engine (analytic == measured bytes), training must stay
/// bit-identical to the classic id+value mode (delta is lossless), and
/// the mode must never cost more bytes than classic. The dense plan
/// re-ships mostly-unchanged rows every round, so the change mask must
/// save bytes there.
#[test]
fn conformance_delta_faultless_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair_wire(sync, WireMode::Delta, "seed=7");
        assert_eq!(
            sim.stats, thr.stats,
            "[{sync:?}] delta counters must agree across engines"
        );

        let (vocab, corpus, params) = prepare();
        let classic = DistributedTrainer::new(params, dist_cfg(sync)).train(&corpus, &vocab);
        assert_eq!(
            sim.model, classic.model,
            "[{sync:?}] delta payloads must not change training arithmetic"
        );
        assert!(
            sim.stats.total_bytes() <= classic.stats.total_bytes(),
            "[{sync:?}] delta mode must never ship more than classic"
        );
        if sync == SyncPlan::RepModelNaive {
            assert!(
                sim.stats.total_bytes() < classic.stats.total_bytes(),
                "[{sync:?}] dense rows repeat — the change mask must save bytes"
            );
        }
    }
}

/// Delta mode across every fault family: drops and flips are healed
/// under the CRC frames without touching the shadows; crash, rejoin and
/// the combined partition plan flip liveness, which must invalidate
/// every shadow in both engines at the same round boundary.
#[test]
fn conformance_delta_chaos_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair_wire(sync, WireMode::Delta, "seed=7,drop=0.03,flip=0.02");
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
        let (sim, thr) = run_pair_wire(sync, WireMode::Delta, "seed=7,crash=1@2");
        assert_eq!(sim.stats, thr.stats);
        let (sim, thr) = run_pair_wire(sync, WireMode::Delta, "seed=7,crash=1@1,rejoin=1@2");
        assert_eq!(sim.stats, thr.stats);
        let (sim, thr) = run_pair_wire(sync, WireMode::Delta, COMBINED_PARTITION_PLAN);
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
    }
}

/// Quantized wire mode, faultless: the transform is deterministically
/// lossy, so the engines must agree bit-for-bit with *each other* (the
/// simulator replays the exact quantize→dequantize image the threaded
/// payloads apply), counters must match analytically, and one byte per
/// dimension plus the 12-byte row header must undercut classic's four
/// bytes per dimension on every plan.
#[test]
fn conformance_quant_faultless_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair_wire(sync, WireMode::Quant, "seed=7");
        assert_eq!(
            sim.stats, thr.stats,
            "[{sync:?}] quant counters must agree across engines"
        );

        let (vocab, corpus, params) = prepare();
        let classic = DistributedTrainer::new(params, dist_cfg(sync)).train(&corpus, &vocab);
        assert_ne!(
            sim.model, classic.model,
            "[{sync:?}] quantization is lossy — bit-equality with classic \
             would mean the transform never ran"
        );
        assert!(
            sim.stats.total_bytes() < classic.stats.total_bytes(),
            "[{sync:?}] quantized rows must beat classic on total bytes"
        );
    }
}

/// Quantized mode across every fault family: payload repair and liveness
/// churn must leave the deterministic transform untouched — the engines
/// stay bit-identical to each other under chaos.
#[test]
fn conformance_quant_chaos_all_plans() {
    for sync in PLANS {
        let (sim, thr) = run_pair_wire(sync, WireMode::Quant, "seed=7,drop=0.03,flip=0.02");
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
        let (sim, thr) = run_pair_wire(sync, WireMode::Quant, "seed=7,crash=1@2");
        assert_eq!(sim.stats, thr.stats);
        let (sim, thr) = run_pair_wire(sync, WireMode::Quant, "seed=7,crash=1@1,rejoin=1@2");
        assert_eq!(sim.stats, thr.stats);
        let (sim, thr) = run_pair_wire(sync, WireMode::Quant, COMBINED_PARTITION_PLAN);
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
    }
}

/// On the dense plan delta must ship strictly fewer bytes than classic:
/// an unchanged row repeated on a key costs one mask bit in place of its
/// id and values. Invoked from scripts/ci/perf-smoke.sh as the CI bytes
/// assertion for the compressed wire modes.
#[test]
fn conformance_naive_wire_bytes_ordering() {
    // The workload is repeat-heavy: a large vocabulary touched only
    // sparsely per round, so most dense rows repeat *unchanged* and cost
    // a mask bit alone. The shared `prepare` corpus is built on a
    // ~200-word synthetic vocabulary that negative sampling covers
    // almost entirely every round (changed ≈ n), so this cell builds its
    // own: 1500 words in the vocabulary, training sentences drawing on a
    // 40-word pool.
    let mut text = String::new();
    for i in 0..24 {
        for j in 0..12 {
            text.push_str(&format!("w{:04} ", (i * 5 + j * 7) % 40));
        }
        text.push('\n');
    }
    let corpus_lines = text.lines().count();
    for w in 0..1500 {
        text.push_str(&format!("w{w:04} "));
        if w % 20 == 19 {
            text.push('\n');
        }
    }
    let cfg = TokenizerConfig::default();
    let mut b = VocabBuilder::new();
    for s in sentences_from_text(&text, cfg.clone()) {
        b.add_sentence(&s);
    }
    let vocab = b.build(1);
    let corpus = Corpus::from_sentences(
        Corpus::from_text(&text, &vocab, cfg)
            .sentences()
            .iter()
            .take(corpus_lines)
            .cloned()
            .collect(),
    );
    let params = Hyperparams {
        dim: 16,
        window: 3,
        negative: 3,
        epochs: 2,
        seed: 11,
        ..Hyperparams::default()
    };
    let total = |wire: WireMode| {
        let cfg = DistConfig {
            wire,
            ..dist_cfg(SyncPlan::RepModelNaive)
        };
        DistributedTrainer::new(params.clone(), cfg)
            .train(&corpus, &vocab)
            .stats
            .total_bytes()
    };
    let classic = total(WireMode::IdValue);
    let delta = total(WireMode::Delta);
    assert!(
        delta < classic,
        "delta ({delta}) must strictly beat classic ({classic}) on the dense plan: \
         unchanged dense rows cost a mask bit, not an id and a value row"
    );
}

/// A combined partition + dup + reorder + drop + crash plan. Everything
/// a partition withholds in stall mode is healed by the NAK loop, so a
/// stall run must be bit-identical across engines AND bit-identical to
/// the same plan with the partition erased (delivery-order and retry
/// noise never reach the fold).
const COMBINED_PARTITION_PLAN: &str =
    "seed=9,partition=0.1|2@2..4,dup=0.05,reorder=0.2,drop=0.01,crash=1@5";

#[test]
fn conformance_partition_combined_stall_all_plans() {
    for sync in PLANS {
        let (sim, _thr) = run_pair(sync, COMBINED_PARTITION_PLAN);
        let (unpartitioned, _) = run_pair(sync, "seed=9,dup=0.05,reorder=0.2,drop=0.01,crash=1@5");
        assert_eq!(
            sim.model, unpartitioned.model,
            "[{sync:?}] a stalled partition heals without touching bits"
        );
        // The simulator charges the stall as virtual time.
        assert!(
            sim.comm_time > unpartitioned.comm_time,
            "[{sync:?}] stalling must cost virtual communication time"
        );
    }
}

/// Degrade mode under the same combined plan: the dormant side (host 2,
/// the smaller group) is converted to a deterministic crash at the
/// partition's start and a rejoin at its healing epoch. Both engines
/// must agree bit-for-bit, and the result must *differ* from the stall
/// run (the reachable side really trains without host 2 for a while).
#[test]
fn conformance_partition_combined_degrade_all_plans() {
    let (vocab, corpus, params) = prepare();
    let plan = FaultPlan::parse(COMBINED_PARTITION_PLAN).expect("fault plan");
    for sync in PLANS {
        let cfg = DistConfig {
            on_partition: graph_word2vec::faults::OnPartition::Degrade,
            ..dist_cfg(sync)
        };
        let sim = DistributedTrainer::new(params.clone(), cfg)
            .with_faults(plan.clone())
            .train(&corpus, &vocab);
        let thr = ThreadedTrainer::new(params.clone(), cfg)
            .with_faults(plan.clone())
            .with_cluster_config(fast_cluster())
            .train(&corpus, &vocab)
            .expect("degraded threaded run");
        assert_eq!(
            sim.model, thr.model,
            "[{sync:?}] degrade mode must stay bit-identical across engines"
        );
        assert_eq!(sim.pairs_trained, thr.pairs_trained);

        let (stall, _) = run_pair(sync, COMBINED_PARTITION_PLAN);
        assert_ne!(
            sim.model, stall.model,
            "[{sync:?}] degrade really changes arithmetic: the dormant \
             side's work moves to an adopter on the recovery RNG stream"
        );
    }
}

/// A partition longer than the staleness bound must fall back to stall
/// even under `--on-partition degrade`: the whole run is then
/// bit-identical to the stall run of the same plan.
#[test]
fn conformance_degrade_staleness_fallback() {
    let (vocab, corpus, params) = prepare();
    let plan = FaultPlan::parse(COMBINED_PARTITION_PLAN).expect("fault plan");
    let tight = DistConfig {
        on_partition: graph_word2vec::faults::OnPartition::Degrade,
        max_stale_rounds: 1, // the spec spans 2 rounds: beyond the bound
        ..dist_cfg(SyncPlan::RepModelOpt)
    };
    let degraded = DistributedTrainer::new(params.clone(), tight)
        .with_faults(plan.clone())
        .train(&corpus, &vocab);
    let (stall_sim, _) = run_pair(SyncPlan::RepModelOpt, COMBINED_PARTITION_PLAN);
    assert_eq!(
        degraded.model, stall_sim.model,
        "a partition past the staleness bound must stall, not degrade"
    );
    let thr = ThreadedTrainer::new(params, tight)
        .with_faults(plan)
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("threaded fallback run");
    assert_eq!(degraded.model, thr.model);
}

/// Checkpoint → kill at an epoch boundary *inside* an active partition →
/// resume: the resumed cluster re-enters the still-covered rounds, heals
/// through the NAK loop exactly like the uninterrupted run, and must be
/// bit-identical to it.
#[test]
fn threaded_resume_mid_partition_is_bit_identical() {
    let (vocab, corpus, params) = prepare();
    let cfg = dist_cfg(SyncPlan::RepModelOpt);
    // Rounds 1..4 are partitioned; kill=1 cuts after epoch 1 (round 3),
    // so the resume at epoch 2 re-enters round 4 mid-partition.
    let full_plan = FaultPlan::parse("seed=9,partition=0.1|2@1..5,dup=0.05,reorder=0.2").unwrap();
    let cut_plan =
        FaultPlan::parse("seed=9,partition=0.1|2@1..5,dup=0.05,reorder=0.2,kill=1").unwrap();

    let thr_full = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(full_plan.clone())
        .with_cluster_config(fast_cluster())
        .train(&corpus, &vocab)
        .expect("uninterrupted partitioned run");

    let dir = tmpdir("thr-mid-partition");
    let thr_cut = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(cut_plan.clone())
        .with_cluster_config(fast_cluster())
        .with_checkpointing(&dir, 1)
        .train(&corpus, &vocab)
        .expect("killed mid-partition run");
    assert!(thr_cut.killed, "kill=1 must stop the cluster early");
    let thr_resumed = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(cut_plan.clone())
        .with_cluster_config(fast_cluster())
        .with_checkpointing(&dir, 1)
        .with_resume(true)
        .train(&corpus, &vocab)
        .expect("resumed mid-partition run");
    assert_eq!(thr_resumed.resumed_from, Some(2), "must resume at epoch 2");
    assert_eq!(
        thr_resumed.model, thr_full.model,
        "resume inside an active partition must match the uninterrupted run"
    );
    assert_eq!(thr_resumed.pairs_trained, thr_full.pairs_trained);
    let _ = std::fs::remove_dir_all(&dir);

    // The simulator agrees with the whole story.
    let sim_full = DistributedTrainer::new(params, cfg)
        .with_faults(full_plan)
        .train(&corpus, &vocab);
    assert_eq!(sim_full.model, thr_full.model);
}
