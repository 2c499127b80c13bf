//! The distributed GraphWord2Vec engine — Algorithm 1 of the paper.
//!
//! ```text
//! procedure GraphWord2Vec(Corpus C, epochs R, sync rounds S, lr α):
//!   build vocabulary V from C            (done upstream, gw2v-corpus)
//!   read partition h of C as worklist WL (contiguous, token-balanced)
//!   build graph G from V                 (model replicas: 2 labels/node)
//!   for epoch r in 1..R:
//!     for sync round s in 1..S:
//!       Compute(WL_s, α, G)              (SGNS operator on chunk s)
//!       Synchronize(G)                   (Gluon reduce+broadcast, §4.3)
//!     decay α
//! ```
//!
//! Hosts are simulated deterministically in id order within one OS
//! thread (DESIGN.md §1/§3): the simulator walks the epoch loop of
//! `host::run` over all of them, the loop each thread of
//! [`crate::trainer_threaded::ThreadedTrainer`] walks over its one host.
//! What it supplies is what a simulation does differently: a rejoiner's
//! replica is a copy, a death is known at once, and stragglers and the
//! network cost *virtual* time. Each host's compute phase is wall-clock
//! timed individually, so per-round virtual time is
//! `max_h(compute_h) + cost_model(volume)`, which is what a BSP cluster
//! would experience.
//!
//! # Fault tolerance (DESIGN.md §3d)
//!
//! A [`FaultPlan`] injects faults into the simulator's *virtual* clocks
//! and schedule: scheduled crashes kill a host at a round boundary (its
//! partition is adopted by the next alive host, continuing on the
//! deterministic recovery RNG stream) and stragglers add virtual seconds
//! to a host's compute clock. Message faults — partitions, drops, flips,
//! dups, reorders — strike in the sync round's mailboxes, which draw the
//! threaded transport's own chain of delivery attempts for every letter
//! (`gw2v_gluon::sync::sync_round_degraded`) and price the extra frames
//! and NAK backoff into the round's virtual communication time.
//! With the inert plan (the default) every fault path is skipped and the
//! run is bit-identical to a build without the fault subsystem.
//! Epoch-boundary [`crate::checkpoint::Checkpoint`]s capture enough
//! state — replicas, RNG streams, schedule positions, liveness,
//! accumulated clocks — to resume bit-identically after a kill.

use crate::host::{canonical, run, Checkpointing, Engine, HostEnv, Hosts, Tally, Ward};
use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::trainer_hogbatch::SgnsMode;
use gw2v_combiner::CombinerKind;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_faults::{counters, FaultPlan, OnPartition};
use gw2v_gluon::cost::CostModel;
use gw2v_gluon::plan::{AccessSets, SyncPlan};
use gw2v_gluon::sync::sync_round_degraded;
use gw2v_gluon::threaded::{ClusterError, REJOIN_CONTROL_BYTES};
use gw2v_gluon::volume::CommStats;
use gw2v_gluon::wire::{entry_bytes, WireMode};
use gw2v_obs::registry::{Counter, Gauge, Histogram};
use gw2v_obs::trace::Span;
use gw2v_util::fvec::FlatMatrix;
use std::path::PathBuf;
use std::time::Instant;

/// Sampled positive pairs per epoch-end loss probe (`core.loss` gauge).
const LOSS_PROBE_PAIRS: usize = 256;

/// Distributed-run configuration.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Number of (simulated) hosts.
    pub n_hosts: usize,
    /// Synchronization rounds per epoch (the paper's key new
    /// hyperparameter, §4.1/§5.4).
    pub sync_rounds: usize,
    /// Communication plan (§4.4).
    pub plan: SyncPlan,
    /// Reduction operator (§3).
    pub combiner: CombinerKind,
    /// Network model for virtual communication time.
    pub cost: CostModel,
    /// Wire payload mode (§4.4 / Table 3): classic id+value entries,
    /// shadow-diffed delta payloads, or u8-quantized rows. See
    /// docs/WIRE.md.
    pub wire: WireMode,
    /// SGNS inner loop: classic per-pair or shared-negative minibatch
    /// (HogBatch). Part of the checkpoint fingerprint — the RNG streams
    /// differ between modes, so a resume must match.
    pub sgns: SgnsMode,
    /// Policy for fault-plan network partitions: `Stall` rides out the
    /// NAK loop bit-identically to faultless runs; `Degrade` marks the
    /// dormant side unreachable and keeps training on the reachable side
    /// (a deterministic crash at the partition's first round and a rejoin
    /// at the epoch it heals by).
    pub on_partition: OnPartition,
    /// Staleness bound for `Degrade`: a partition spanning more than
    /// this many rounds falls back to `Stall` (the dormant side would
    /// drift too far to heal inside the bound).
    pub max_stale_rounds: usize,
}

impl DistConfig {
    /// The paper's rule of thumb: "the synchronization frequency needs to
    /// be increased (roughly) linearly with the number of hosts"; Figure
    /// 8's labels are 1(1), 2(3), 4(6), 8(12), 16(24), 32(48), 64(96) —
    /// i.e. `S = 1.5·H` (and 1 for a single host).
    pub fn paper_sync_rounds(n_hosts: usize) -> usize {
        if n_hosts <= 1 {
            1
        } else {
            (3 * n_hosts) / 2
        }
    }

    /// Paper-default configuration for `n_hosts`: RepModel-Opt + Model
    /// Combiner, InfiniBand cost model, linear sync-frequency rule.
    pub fn paper_default(n_hosts: usize) -> Self {
        Self {
            n_hosts,
            sync_rounds: Self::paper_sync_rounds(n_hosts),
            plan: SyncPlan::RepModelOpt,
            combiner: CombinerKind::ModelCombiner,
            cost: CostModel::infiniband_56g(),
            wire: WireMode::IdValue,
            sgns: SgnsMode::PerPair,
            on_partition: OnPartition::Stall,
            max_stale_rounds: 8,
        }
    }
}

/// Passed to the per-epoch callback alongside the canonical model.
#[derive(Clone, Copy, Debug)]
pub struct EpochSnapshot {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Virtual time elapsed so far (compute + modeled communication).
    pub virtual_time: f64,
}

/// Everything a distributed run produces.
#[derive(Debug)]
pub struct TrainResult {
    /// The trained canonical model.
    pub model: Word2VecModel,
    /// Communication counters for the whole run.
    pub stats: CommStats,
    /// Virtual computation time: Σ_rounds max_h(compute_h), including
    /// PullModel inspection overhead.
    pub compute_time: f64,
    /// Virtual communication time: Σ_rounds cost_model(volume).
    pub comm_time: f64,
    /// Actual wall-clock time of the whole simulation.
    pub wall_time: f64,
    /// Positive pairs trained across all hosts.
    pub pairs_trained: u64,
    /// True when the run was stopped early by the fault plan's `kill`
    /// directive (after checkpointing that epoch).
    pub killed: bool,
    /// The epoch this run started at, when it resumed from a checkpoint.
    pub resumed_from: Option<usize>,
}

impl TrainResult {
    /// Total virtual execution time (what the paper's Figures 8–9 plot).
    pub fn virtual_time(&self) -> f64 {
        self.compute_time + self.comm_time
    }
}

/// The distributed trainer.
pub struct DistributedTrainer {
    /// Hyperparameters.
    pub params: Hyperparams,
    /// Cluster configuration.
    pub config: DistConfig,
    faults: FaultPlan,
    checkpointing: Checkpointing,
}

impl DistributedTrainer {
    /// Creates a trainer.
    pub fn new(params: Hyperparams, config: DistConfig) -> Self {
        assert!(config.n_hosts > 0);
        assert!(config.sync_rounds > 0);
        Self {
            params,
            config,
            faults: FaultPlan::none(),
            checkpointing: Checkpointing::default(),
        }
    }

    /// Installs a fault plan. The inert plan (the default) leaves every
    /// fault path disabled and the run bit-identical to an unfaulted one.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables epoch-boundary checkpointing into `dir`, writing every
    /// `every_epochs` epochs (and always at the final epoch and before a
    /// planned kill).
    pub fn with_checkpointing(mut self, dir: impl Into<PathBuf>, every_epochs: usize) -> Self {
        assert!(every_epochs > 0, "checkpoint interval must be positive");
        self.checkpointing.dir = Some(dir.into());
        self.checkpointing.every = every_epochs;
        self
    }

    /// When enabled, training resumes from the newest checkpoint in the
    /// checkpointing directory (if one exists and matches this run's
    /// fingerprint), continuing bit-identically to the run that wrote it.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.checkpointing.resume = resume;
        self
    }

    /// Trains and returns the result.
    pub fn train(&self, corpus: &Corpus, vocab: &Vocabulary) -> TrainResult {
        self.train_with_callback(corpus, vocab, |_, _| {})
    }

    /// Trains, invoking `on_epoch(&snapshot, &canonical_model)` after the
    /// synchronization that closes each epoch. Panics with the
    /// [`ClusterError`]'s text when a receiver gives up on a plan no frame
    /// survives, as the threaded engine fails.
    pub fn train_with_callback(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        on_epoch: impl FnMut(&EpochSnapshot, &Word2VecModel),
    ) -> TrainResult {
        let (p, cfg) = (&self.params, &self.config);
        let wall_start = Instant::now();
        let env = HostEnv::new(p, cfg, &self.faults, &self.checkpointing, corpus, vocab);
        let mut hosts = Hosts::new(&env, 0..cfg.n_hosts);
        // Cached instrument handles: one registry lookup for the whole
        // run, then per-round recording is a relaxed atomic each. All of
        // this only *reads* the computation (never the RNG streams or the
        // model), so enabling metrics cannot change what gets trained —
        // pinned by tests/obs_overhead.rs.
        let obs_on = gw2v_obs::enabled();
        let mut sim = Simulator {
            env: &env,
            cost: cfg.cost,
            corpus,
            on_epoch,
            obs_on,
            pairs_ctr: obs_on.then(|| gw2v_obs::counter("core.pairs")),
            compute_hist: obs_on.then(|| gw2v_obs::histogram("core.host_compute_ns")),
            lr_gauge: obs_on.then(|| gw2v_obs::gauge("core.lr")),
            round_span: None,
            pairs_before: 0,
        };
        run(&env, &mut hosts, &mut sim).unwrap_or_else(|e| panic!("{e}"));
        let result = env.result(vec![hosts], wall_start);
        if obs_on {
            gw2v_obs::gauge_set("core.compute_s", result.compute_time);
            gw2v_obs::gauge_set("core.comm_virtual_s", result.comm_time);
            gw2v_obs::gauge_set("core.wall_s", result.wall_time);
            if result.wall_time > 0.0 {
                let pairs_per_sec = result.pairs_trained as f64 / result.wall_time;
                gw2v_obs::gauge_set("core.pairs_per_sec", pairs_per_sec);
            }
            gw2v_obs::add("core.epochs", p.epochs as u64);
            gw2v_obs::add(
                "core.negatives",
                result.pairs_trained.saturating_mul(p.negative as u64),
            );
        }
        result
    }
}

/// The simulator's side of the epoch loop: every host in one thread,
/// deaths learned at once, stragglers and the network priced on virtual
/// clocks, tallies in hand.
struct Simulator<'e, F> {
    env: &'e HostEnv<'e>,
    cost: CostModel,
    corpus: &'e Corpus,
    on_epoch: F,
    obs_on: bool,
    pairs_ctr: Option<Counter>,
    compute_hist: Option<Histogram>,
    lr_gauge: Option<Gauge>,
    /// The open round's span, from its crashes to its sync.
    round_span: Option<Span>,
    pairs_before: u64,
}

impl<F: FnMut(&EpochSnapshot, &Word2VecModel)> Engine for Simulator<'_, F> {
    /// The adopter streams its full replica; the copy is charged what
    /// the threaded engine's state transfer sends.
    fn hand_over(
        &mut self,
        hosts: &Hosts<'_>,
        _d: usize,
        a: usize,
        ward: Option<Ward>,
    ) -> Result<Option<(Ward, Vec<FlatMatrix>)>, ClusterError> {
        let layers = hosts.replicas[a].layers.clone();
        let bytes: u64 = layers
            .iter()
            .map(|l| l.rows() as u64 * entry_bytes(l.dim()) as u64)
            .sum::<u64>()
            + REJOIN_CONTROL_BYTES;
        gw2v_obs::add("gluon.state_transfer_bytes", bytes);
        Ok(Some((
            ward.expect("the simulator holds every host"),
            layers,
        )))
    }

    fn begin_round(&mut self, hosts: &Hosts<'_>, epoch: usize, g: usize, crashing: &[usize]) {
        self.round_span = Some(gw2v_obs::span("core.round").epoch(epoch).round(g));
        self.pairs_before = hosts.pairs;
        for _ in crashing {
            counters::bump(counters::INJECTED_CRASH);
            // The simulator notices instantly; the threaded engine
            // waits on its liveness registry for the same effect.
            counters::bump(counters::DETECTED_CRASH);
        }
    }

    /// Virtual-clock injection: the round's compute, the slowest host's,
    /// waits for the straggler.
    fn straggle(&mut self, delay: f64) -> f64 {
        delay
    }

    fn sync(
        &mut self,
        hosts: &mut Hosts<'_>,
        access: Option<&AccessSets>,
        compute: &[f64],
        g: usize,
    ) -> Result<(), ClusterError> {
        let env = self.env;
        let (volume, round_comm) = sync_round_degraded(
            &mut hosts.replicas,
            &env.sync,
            access,
            &mut hosts.stats,
            &mut hosts.scratch,
            &hosts.live,
            &mut hosts.wire,
            &env.faults,
            g,
            &self.cost,
        )?;
        let round_comp = compute.iter().cloned().fold(0.0, f64::max);
        hosts.clock[0] += round_comp;
        hosts.clock[1] += round_comm;

        let mut round_span = self.round_span.take().expect("an open round");
        if self.obs_on {
            let pairs = hosts.pairs - self.pairs_before;
            if let Some(c) = &self.pairs_ctr {
                c.add(pairs);
            }
            if let Some(h) = &self.compute_hist {
                for &t in compute {
                    h.observe_secs(t);
                }
            }
            if let Some(g) = &self.lr_gauge {
                // Shard 0's position, on whichever host carries it.
                let mut carrier = hosts.work[hosts.live.effective_master(0)].slots();
                let (.., position) = carrier.find(|&(d, ..)| d == 0).expect("carried");
                g.set(env.schedule.alpha_for_host(position, env.h_count) as f64);
            }
            gw2v_obs::add("core.compute_ns", (round_comp * 1e9) as u64);
            gw2v_obs::add("core.comm_virtual_ns", (round_comm * 1e9) as u64);
            round_span.field("pairs", pairs as f64);
            round_span.field("compute_max_s", round_comp);
            round_span.field("comm_s", round_comm);
            round_span.field("bytes", volume.total_bytes() as f64);
            round_span.virtual_secs(round_comp + round_comm);
        }
        Ok(())
    }

    fn gather(&mut self, hosts: &Hosts<'_>) -> Option<Vec<Tally>> {
        Some(vec![hosts.tally()])
    }

    fn end_epoch(&mut self, hosts: &Hosts<'_>, epoch: usize) {
        let env = self.env;
        let model = canonical(&hosts.live, |h| &hosts.replicas[h].layers);
        let virtual_time = hosts.clock[0] + hosts.clock[1];
        if self.obs_on {
            // Read-only loss probe on the canonical model, outside any
            // timed section and on its own RNG stream — the training
            // streams never see it.
            let p = &env.params;
            let loss = crate::loss::estimate_loss(
                &model,
                self.corpus,
                &env.setup,
                p.window,
                p.negative,
                LOSS_PROBE_PAIRS,
                p.seed,
            );
            gw2v_obs::gauge_set("core.loss", loss);
            let mut ev = gw2v_obs::TraceEvent::new("core.epoch");
            ev.epoch = Some(epoch as u64);
            ev.virtual_s = Some(virtual_time);
            ev.fields.push(("loss".to_owned(), loss));
            gw2v_obs::event(ev);
        }
        let snap = EpochSnapshot {
            epoch,
            virtual_time,
        };
        (self.on_epoch)(&snap, &model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer_seq::SequentialTrainer;
    use crate::trainer_shared::{dist_config, toy_corpus};
    use gw2v_util::fvec;

    #[test]
    fn paper_sync_rounds_rule() {
        assert_eq!(DistConfig::paper_sync_rounds(1), 1);
        assert_eq!(DistConfig::paper_sync_rounds(2), 3);
        assert_eq!(DistConfig::paper_sync_rounds(4), 6);
        assert_eq!(DistConfig::paper_sync_rounds(8), 12);
        assert_eq!(DistConfig::paper_sync_rounds(16), 24);
        assert_eq!(DistConfig::paper_sync_rounds(32), 48);
        assert_eq!(DistConfig::paper_sync_rounds(64), 96);
    }

    #[test]
    fn one_host_matches_sequential_within_float_noise() {
        let (corpus, vocab) = toy_corpus(120);
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let seq = SequentialTrainer::new(params.clone()).train(&corpus, &vocab);
        // 4 sync rounds/epoch: sync is a no-op at 1 host beyond the
        // base+delta reconstruction (float re-association only).
        let dist = DistributedTrainer::new(
            params,
            dist_config(1, 4, SyncPlan::RepModelOpt, CombinerKind::Sum),
        )
        .train(&corpus, &vocab);
        let a = seq.syn0.as_slice();
        let b = dist.model.syn0.as_slice();
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= 1e-5 + 1e-4 * x.abs(), "{x} vs {y}");
        }
        assert_eq!(dist.stats.total_bytes(), 0, "1 host moves no bytes");
    }

    #[test]
    fn plans_train_identically() {
        let (corpus, vocab) = toy_corpus(90);
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let run = |plan: SyncPlan| {
            DistributedTrainer::new(
                params.clone(),
                dist_config(3, 2, plan, CombinerKind::ModelCombiner),
            )
            .train(&corpus, &vocab)
        };
        let opt = run(SyncPlan::RepModelOpt);
        let naive = run(SyncPlan::RepModelNaive);
        let pull = run(SyncPlan::PullModel);
        assert_eq!(opt.model, naive.model, "Opt and Naive: same arithmetic");
        assert_eq!(opt.model, pull.model, "Opt and Pull: same arithmetic");
        // But very different communication volumes.
        assert!(naive.stats.total_bytes() > opt.stats.total_bytes());
        assert!(opt.pairs_trained > 0);
        assert_eq!(opt.pairs_trained, pull.pairs_trained);
    }

    #[test]
    fn determinism_across_runs() {
        let (corpus, vocab) = toy_corpus(60);
        let params = Hyperparams {
            epochs: 1,
            ..Hyperparams::test_scale()
        };
        let mk = || {
            DistributedTrainer::new(
                params.clone(),
                dist_config(4, 3, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner),
            )
            .train(&corpus, &vocab)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.model, b.model);
        assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
        assert_eq!(a.pairs_trained, b.pairs_trained);
    }

    #[test]
    fn combiners_differ_at_multiple_hosts() {
        let (corpus, vocab) = toy_corpus(90);
        let params = Hyperparams {
            epochs: 1,
            ..Hyperparams::test_scale()
        };
        let run = |c: CombinerKind| {
            DistributedTrainer::new(params.clone(), dist_config(4, 2, SyncPlan::RepModelOpt, c))
                .train(&corpus, &vocab)
                .model
        };
        let mc = run(CombinerKind::ModelCombiner);
        let avg = run(CombinerKind::Avg);
        let sum = run(CombinerKind::Sum);
        assert_ne!(mc, avg);
        assert_ne!(mc, sum);
        assert_ne!(avg, sum);
    }

    #[test]
    fn distributed_still_learns() {
        let (corpus, vocab) = toy_corpus(240);
        let params = Hyperparams {
            dim: 24,
            epochs: 6,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let res =
            DistributedTrainer::new(params, DistConfig::paper_default(4)).train(&corpus, &vocab);
        let emb = |w: &str| res.model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("a0"), emb("a2"));
        let cross = fvec::cosine(emb("a0"), emb("b3"));
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn epoch_callback_sees_progress() {
        let (corpus, vocab) = toy_corpus(60);
        let params = Hyperparams {
            epochs: 3,
            ..Hyperparams::test_scale()
        };
        let mut epochs_seen = Vec::new();
        let mut last_t = -1.0;
        DistributedTrainer::new(params, DistConfig::paper_default(2)).train_with_callback(
            &corpus,
            &vocab,
            |snap, model| {
                epochs_seen.push(snap.epoch);
                assert!(snap.virtual_time >= last_t);
                last_t = snap.virtual_time;
                assert_eq!(model.dim(), 16);
            },
        );
        assert_eq!(epochs_seen, vec![0, 1, 2]);
    }

    #[test]
    fn more_hosts_spread_compute() {
        // Each host processes 1/H of the tokens; pairs_trained stays in
        // the same ballpark (not identical: different RNG streams).
        let (corpus, vocab) = toy_corpus(150);
        let params = Hyperparams {
            epochs: 1,
            ..Hyperparams::test_scale()
        };
        let r1 = DistributedTrainer::new(
            params.clone(),
            dist_config(1, 1, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner),
        )
        .train(&corpus, &vocab);
        let r4 = DistributedTrainer::new(
            params,
            dist_config(4, 6, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner),
        )
        .train(&corpus, &vocab);
        let lo = r1.pairs_trained / 2;
        let hi = r1.pairs_trained * 2;
        assert!((lo..hi).contains(&r4.pairs_trained));
        assert!(r4.stats.total_bytes() > 0);
        assert!(r4.comm_time > 0.0);
    }

    #[test]
    fn crash_degrades_gracefully_and_still_learns() {
        let (corpus, vocab) = toy_corpus(180);
        let params = Hyperparams {
            dim: 24,
            epochs: 4,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let plan: FaultPlan = "crash=1@2".parse().unwrap();
        let res = DistributedTrainer::new(
            params,
            dist_config(3, 2, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner),
        )
        .with_faults(plan)
        .train(&corpus, &vocab);
        assert!(!res.killed);
        assert!(res.model.syn0.as_slice().iter().all(|x| x.is_finite()));
        let emb = |w: &str| res.model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("a0"), emb("a2"));
        let cross = fvec::cosine(emb("a0"), emb("b3"));
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let (corpus, vocab) = toy_corpus(90);
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let plan: FaultPlan = "seed=11,drop=0.05,crash=2@1,straggle=0@0x10ms"
            .parse()
            .unwrap();
        let mk = || {
            DistributedTrainer::new(
                params.clone(),
                dist_config(3, 2, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner),
            )
            .with_faults(plan.clone())
            .train(&corpus, &vocab)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.model, b.model, "same plan, same bits");
        assert_eq!(a.pairs_trained, b.pairs_trained);
        assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
    }

    #[test]
    fn stragglers_inflate_virtual_time_only() {
        let (corpus, vocab) = toy_corpus(60);
        let params = Hyperparams {
            epochs: 1,
            ..Hyperparams::test_scale()
        };
        let cfg = dist_config(2, 2, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner);
        let clean = DistributedTrainer::new(params.clone(), cfg).train(&corpus, &vocab);
        let slow = DistributedTrainer::new(params, cfg)
            .with_faults("straggle=1@0x2s".parse().unwrap())
            .train(&corpus, &vocab);
        assert_eq!(clean.model, slow.model, "a straggler changes no bits");
        assert!(
            slow.compute_time >= clean.compute_time + 1.9,
            "virtual clock must absorb the 2 s delay: {} vs {}",
            slow.compute_time,
            clean.compute_time
        );
    }
}
