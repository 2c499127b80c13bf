//! The simulator's mailboxes draw the fault plan's attempt chain
//! (`FaultPlan::attempt`) at the coordinates the threaded engine uses:
//! round `g` of a plan with `P` phases per round (`phases_per_round`: 2
//! for the RepModel plans, 3 for PullModel) runs phases `P·g+1 ..= P·g+P`,
//! and every delivery attempt's coin is a hash of that sequence number.
//! Simulator only — no threads, no sleeps.
//!
//! One test function on purpose: it reads deltas of process-wide
//! counters, so nothing else may run in this process meanwhile.

use gw2v_combiner::CombinerKind;
use gw2v_core::distributed::{DistConfig, DistributedTrainer};
use gw2v_core::params::Hyperparams;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_corpus::vocab::{VocabBuilder, Vocabulary};
use gw2v_faults::FaultPlan;
use gw2v_gluon::plan::SyncPlan;
use gw2v_gluon::threaded::phases_per_round;

const HOSTS: usize = 3;
const ROUNDS: usize = 2;
const LAYERS: usize = 2;
/// `TrainResult::comm_time` bits of the two RepModel runs below, cut
/// while the simulator still replayed the coins with two phases per
/// round hard-coded.
const REPMODEL_NAIVE_COMM_BITS: u64 = 0x3f30_f151_5a34_914b;
const REPMODEL_OPT_COMM_BITS: u64 = 0x3f23_f604_34f4_161e;

fn corpus() -> (Corpus, Vocabulary) {
    let mut text = String::new();
    for i in 0..60 {
        text.push_str(match i % 3 {
            0 => "a0 a1 a2 a3 a1 a2\n",
            1 => "b0 b1 b2 b3 b1 b2\n",
            _ => "c0 c1 a1 b1 c2 c0\n",
        });
    }
    let mut b = VocabBuilder::new();
    for tok in text.split_whitespace() {
        b.add_token(tok);
    }
    let vocab = b.build(1);
    let cfg = TokenizerConfig {
        lowercase: false,
        max_sentence_len: 6,
    };
    (Corpus::from_text(&text, &vocab, cfg), vocab)
}

/// Drops the threaded engine would inject over `ROUNDS` rounds: per
/// phase, ordered pair and layer, the attempts dropped before the first
/// that gets through.
fn drops_by_hand(plan: &FaultPlan, phases: u64) -> u64 {
    let mut drops = 0;
    for g in 0..ROUNDS as u64 {
        for seq in phases * g + 1..=phases * g + phases {
            for from in 0..HOSTS {
                for to in (0..HOSTS).filter(|&to| to != from) {
                    for layer in 0..LAYERS {
                        let mut attempt = 0;
                        while plan.should_drop(from, to, layer, seq, attempt) {
                            attempt += 1;
                        }
                        drops += u64::from(attempt);
                    }
                }
            }
        }
    }
    drops
}

#[test]
fn replayed_drops_follow_the_plans_phase_numbering() {
    gw2v_obs::set_enabled(true);
    let (corpus, vocab) = corpus();
    let plan = FaultPlan::parse("seed=21,drop=0.3").expect("plan");
    let params = Hyperparams {
        epochs: 1,
        ..Hyperparams::test_scale()
    };
    let injected = || {
        gw2v_obs::snapshot()
            .counters
            .get("faults.injected.drop")
            .copied()
            .unwrap_or(0)
    };
    let mut comm_bits = Vec::new();
    for sync_plan in [
        SyncPlan::RepModelNaive,
        SyncPlan::RepModelOpt,
        SyncPlan::PullModel,
    ] {
        let mut cfg = DistConfig::paper_default(HOSTS);
        cfg.sync_rounds = ROUNDS;
        cfg.plan = sync_plan;
        cfg.combiner = CombinerKind::Sum;
        let before = injected();
        let result = DistributedTrainer::new(params.clone(), cfg)
            .with_faults(plan.clone())
            .train(&corpus, &vocab);
        assert_eq!(
            injected() - before,
            drops_by_hand(&plan, phases_per_round(sync_plan)),
            "{sync_plan:?}: faults.injected.drop"
        );
        comm_bits.push(result.comm_time.to_bits());
    }
    // PullModel's third phase is not a no-op under this plan: drawing
    // two phases per round (what the simulator once did for every plan)
    // counts differently, so the assertion above can tell.
    assert_ne!(drops_by_hand(&plan, 3), drops_by_hand(&plan, 2));
    // The RepModel plans never had that bug: their virtual comm clock is
    // the one the two-phase replay computed, bit for bit (constants cut
    // before the fix).
    assert_eq!(
        comm_bits[..2],
        [REPMODEL_NAIVE_COMM_BITS, REPMODEL_OPT_COMM_BITS],
        "RepModel comm_time bits: {:#018x} {:#018x}",
        comm_bits[0],
        comm_bits[1]
    );
}
