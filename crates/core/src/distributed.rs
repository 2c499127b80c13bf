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
//! thread (DESIGN.md §1/§3), each driving its `host::HostWork` — the
//! host side of the epoch (compute, wards, PullModel inspection) that
//! [`crate::trainer_threaded::ThreadedTrainer`] drives concurrently. Each host's compute
//! phase is wall-clock timed individually, so per-round *virtual* time
//! is `max_h(compute_h) + cost_model(volume)`, which is what a BSP
//! cluster would experience.
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
//! (`gw2v_gluon::sync::sync_round_degraded`); the extra frames and NAK
//! backoff they count are charged here as virtual communication time.
//! With the inert plan (the default) every fault path is skipped and the
//! run is bit-identical to a build without the fault subsystem.
//! Epoch-boundary [`Checkpoint`]s capture enough state — replicas, RNG
//! streams, schedule positions, liveness, accumulated clocks — to resume
//! bit-identically after a kill.

use crate::checkpoint::Checkpoint;
use crate::host::{
    canonical, kill_epoch, save, slot_columns, start_liveness, Checkpointing, HostEnv, HostWork,
};
use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::trainer_hogbatch::SgnsMode;
use gw2v_combiner::CombinerKind;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_faults::{counters, FaultPlan, OnPartition};
use gw2v_gluon::cost::CostModel;
use gw2v_gluon::plan::SyncPlan;
use gw2v_gluon::sync::{sync_round_degraded, SyncScratch};
use gw2v_gluon::threaded::REJOIN_CONTROL_BYTES;
use gw2v_gluon::volume::CommStats;
use gw2v_gluon::wire::{entry_bytes, WireMode, WireState};
use gw2v_gluon::ModelReplica;
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
    /// the id-memoized value-only format, shadow-diffed delta payloads,
    /// or u8-quantized rows. See docs/WIRE.md.
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
    /// synchronization that closes each epoch.
    pub fn train_with_callback(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        mut on_epoch: impl FnMut(&EpochSnapshot, &Word2VecModel),
    ) -> TrainResult {
        let p = &self.params;
        let cfg = &self.config;
        let h_count = cfg.n_hosts;
        let wall_start = Instant::now();
        let env = HostEnv::new(p, cfg, &self.faults, corpus, vocab);
        let plan = &env.faults;
        let fingerprint = Checkpoint::fingerprint_of(p, cfg);
        let resume = self.checkpointing.resume_point(fingerprint);
        let resume = resume.as_ref();
        let start_epoch = resume.map_or(0, |c| c.epoch + 1);
        let kill = kill_epoch(plan, start_epoch, p.epochs);
        let mut live = start_liveness(h_count, resume);
        let mut replicas: Vec<_> = (0..h_count).map(|h| env.start_replica(h, resume)).collect();
        // A dead host's stream and position live in its adopter's ward,
        // as they do on the threaded engine.
        let mut work: Vec<_> = (0..h_count)
            .map(|h| match resume {
                Some(ckpt) => HostWork::restore(&env, h, ckpt, &live),
                None => HostWork::fresh(&env, h),
            })
            .collect();
        let mut stats = resume.map_or_else(CommStats::default, |c| c.stats);
        let mut compute_time = resume.map_or(0.0, |c| c.compute_time);
        let mut comm_time = resume.map_or(0.0, |c| c.comm_time);
        let mut pairs_trained = resume.map_or(0, |c| c.pairs_trained);

        // Cached instrument handles: one registry lookup for the whole
        // run, then per-round recording is a relaxed atomic each. All of
        // this only *reads* the computation (never the RNG streams or the
        // model), so enabling metrics cannot change what gets trained —
        // pinned by tests/obs_overhead.rs.
        let obs_on = gw2v_obs::enabled();
        let pairs_ctr = obs_on.then(|| gw2v_obs::counter("core.pairs"));
        let compute_hist = obs_on.then(|| gw2v_obs::histogram("core.host_compute_ns"));
        let lr_gauge = obs_on.then(|| gw2v_obs::gauge("core.lr"));
        // One sync scratch per host for the whole run: after the first
        // round the fold/apply path recycles its slabs and buffers
        // instead of reallocating per round.
        let mut sync_scratch: Vec<SyncScratch> = (0..h_count).map(|_| SyncScratch::new()).collect();
        // Per-host wire-protocol state (memo caches / delta shadows):
        // epoch-scoped, cleared below at every epoch start so
        // checkpoint-resumed runs (which cut at epoch boundaries) make
        // identical payload-form decisions.
        let mut wire: Vec<WireState> = (0..h_count)
            .map(|_| WireState::for_mode(cfg.wire))
            .collect();
        // Per-host compute seconds of the current round, reused across
        // rounds.
        let mut round_compute = vec![0.0f64; h_count];

        for epoch in start_epoch..p.epochs {
            wire.iter_mut().for_each(WireState::begin_epoch);
            // ---- Epoch-boundary re-admission (rejoin=H@E). ----
            let rejoining = env.rejoining(&live, epoch);
            for &d in &rejoining {
                // The adopter hands the ward back and streams its full
                // replica: the rejoiner resumes its worklist on the
                // stream it was carried on.
                let (a, ward) = (0..h_count)
                    .filter(|&a| live.is_alive(a))
                    .find_map(|a| Some((a, work[a].release(d)?)))
                    .expect("dead host has an adopter");
                replicas[d] = ModelReplica::new(replicas[a].layers.clone());
                work[d].readmit(ward);
                live.mark_alive(d);
                counters::bump(counters::RECOVERED_REJOIN);
                let bytes: u64 = replicas[d]
                    .layers
                    .iter()
                    .map(|l| l.rows() as u64 * entry_bytes(l.dim()) as u64)
                    .sum::<u64>()
                    + REJOIN_CONTROL_BYTES;
                gw2v_obs::add("gluon.state_transfer_bytes", bytes);
            }
            // A rejoin can change effective masters, hence wards.
            if !rejoining.is_empty() {
                for w in work.iter_mut().filter(|w| live.is_alive(w.host)) {
                    w.adopt(&live, epoch, 0);
                }
            }
            for s in 0..cfg.sync_rounds {
                let g = epoch * cfg.sync_rounds + s;
                let mut round_span = gw2v_obs::span("core.round").epoch(epoch).round(g);
                let pairs_before = pairs_trained;

                // ---- Scheduled crashes strike at the round boundary. ----
                let crashing = env.crashing(&live, g);
                for &h in &crashing {
                    counters::bump(counters::INJECTED_CRASH);
                    live.mark_dead(h);
                    // The simulator notices instantly; the threaded engine
                    // waits on its liveness registry for the same effect.
                    counters::bump(counters::DETECTED_CRASH);
                }
                if !crashing.is_empty() {
                    for w in work.iter_mut().filter(|w| live.is_alive(w.host)) {
                        w.adopt(&live, epoch, s);
                    }
                }

                // ---- Compute phase (each host timed individually). ----
                round_compute.fill(0.0);
                for (h, w) in work.iter_mut().enumerate() {
                    if !live.is_alive(h) {
                        continue;
                    }
                    let t0 = Instant::now();
                    pairs_trained += w.train_round(&mut replicas[h], s);
                    round_compute[h] = t0.elapsed().as_secs_f64();
                    if let Some(delay) = plan.straggler_delay(h, g) {
                        counters::bump(counters::INJECTED_STRAGGLE);
                        // Virtual-clock injection: the barrier (the max
                        // below) waits for the straggler.
                        round_compute[h] += delay;
                    }
                }

                // ---- PullModel inspection of the *next* round (§4.4). ----
                let access = env.access_sets(epoch, s, |next_s, sets| {
                    for (h, w) in work.iter_mut().enumerate() {
                        if live.is_alive(h) {
                            let t0 = Instant::now();
                            w.inspect(next_s, sets);
                            // Inspection is real per-host work: charge it.
                            round_compute[h] += t0.elapsed().as_secs_f64();
                        }
                    }
                });

                // ---- Synchronize (reduce + broadcast). ----
                let (volume, resends) = sync_round_degraded(
                    &mut replicas,
                    &env.sync,
                    access.as_ref(),
                    &mut stats,
                    &mut sync_scratch,
                    &live,
                    &mut wire,
                    plan,
                    g,
                );
                let round_comp = round_compute.iter().cloned().fold(0.0, f64::max);
                // The fault plan's extra frames cost the round's average
                // letter and one latency each; its NAK backoff adds on.
                let mut round_comm = cfg.cost.round_time(&volume);
                if resends.frames > 0 {
                    let avg_bytes = volume.total_bytes() / resends.letters;
                    round_comm += cfg.cost.transfer_time(resends.frames * avg_bytes)
                        + resends.frames as f64 * cfg.cost.latency_sec;
                }
                round_comm += resends.backoff_secs;
                compute_time += round_comp;
                comm_time += round_comm;

                if obs_on {
                    if let Some(c) = &pairs_ctr {
                        c.add(pairs_trained - pairs_before);
                    }
                    if let Some(h) = &compute_hist {
                        for &t in &round_compute {
                            h.observe_secs(t);
                        }
                    }
                    if let Some(g) = &lr_gauge {
                        // Shard 0's position, on whichever host carries it.
                        let mut carrier = work[live.effective_master(0)].slots();
                        let (.., position) = carrier.find(|&(d, ..)| d == 0).expect("carried");
                        g.set(env.schedule.alpha_for_host(position, h_count) as f64);
                    }
                    gw2v_obs::add("core.compute_ns", (round_comp * 1e9) as u64);
                    gw2v_obs::add("core.comm_virtual_ns", (round_comm * 1e9) as u64);
                    round_span.field("pairs", (pairs_trained - pairs_before) as f64);
                    round_span.field("compute_max_s", round_comp);
                    round_span.field("comm_s", round_comm);
                    round_span.field("bytes", volume.total_bytes() as f64);
                    round_span.virtual_secs(round_comp + round_comm);
                }
                drop(round_span);
            }
            let model = canonical(&replicas, &live);
            if obs_on {
                // Read-only loss probe on the canonical model, outside any
                // timed section and on its own RNG stream — the training
                // streams never see it.
                let loss = crate::loss::estimate_loss(
                    &model,
                    corpus,
                    &env.setup,
                    p.window,
                    p.negative,
                    LOSS_PROBE_PAIRS,
                    p.seed,
                );
                gw2v_obs::gauge_set("core.loss", loss);
                let mut ev = gw2v_obs::TraceEvent::new("core.epoch");
                ev.epoch = Some(epoch as u64);
                ev.virtual_s = Some(compute_time + comm_time);
                ev.fields.push(("loss".to_owned(), loss));
                gw2v_obs::event(ev);
            }
            let snap = EpochSnapshot {
                epoch,
                virtual_time: compute_time + comm_time,
            };
            on_epoch(&snap, &model);

            // ---- Epoch-boundary checkpoint + planned kill. ----
            let kill_here = kill == Some(epoch);
            if let Some(dir) = self.checkpointing.due(epoch, p.epochs, kill_here) {
                let live_work = work.iter().filter(|w| live.is_alive(w.host));
                let (processed, rng_states) =
                    slot_columns(h_count, live_work.flat_map(HostWork::slots));
                let ckpt = Checkpoint {
                    fingerprint,
                    epoch,
                    pairs_trained,
                    compute_time,
                    comm_time,
                    processed,
                    alive: (0..h_count).map(|h| live.is_alive(h)).collect(),
                    rng_states,
                    stats,
                    // A dead slot keeps that host's last replica.
                    layers: replicas.iter().map(|r| r.layers.clone()).collect(),
                };
                save(&ckpt, dir);
            }
            if kill_here {
                counters::bump(counters::INJECTED_KILL);
                break;
            }
        }

        let model = canonical(&replicas, &live);
        let wall_time = wall_start.elapsed().as_secs_f64();
        if obs_on {
            gw2v_obs::gauge_set("core.compute_s", compute_time);
            gw2v_obs::gauge_set("core.comm_virtual_s", comm_time);
            gw2v_obs::gauge_set("core.wall_s", wall_time);
            if wall_time > 0.0 {
                gw2v_obs::gauge_set("core.pairs_per_sec", pairs_trained as f64 / wall_time);
            }
            gw2v_obs::add("core.epochs", p.epochs as u64);
            gw2v_obs::add(
                "core.negatives",
                pairs_trained.saturating_mul(p.negative as u64),
            );
        }
        TrainResult {
            model,
            stats,
            compute_time,
            comm_time,
            wall_time,
            pairs_trained,
            killed: kill.is_some(),
            resumed_from: resume.map(|_| start_epoch),
        }
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
