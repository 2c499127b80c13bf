//! The distributed epoch loop, written once, and one host's side of it.
//!
//! Algorithm 1 is a per-host loop: train this round's chunk, then
//! synchronize. [`run`] is that loop over the [`Hosts`] one process
//! holds: all of them in [`crate::distributed::DistributedTrainer`], one
//! per thread in [`crate::trainer_threaded::ThreadedTrainer`]. Every
//! process walks every round and replays the plan's crashes and rejoins
//! into its own [`Liveness`] view, so no view is ever sent. A dead host's
//! thread walks the loop too: it trains, syncs and confirms nothing, and
//! blocks only at its rejoin boundary, for its state.
//!
//! [`HostWork`] is one host's training stream, schedule position and
//! *wards*, the shards it trains for dead hosts. An [`Engine`] supplies
//! only what really differs: a rejoiner's hand-over (a copy or a state
//! transfer), how a death is learned (at once or through the liveness
//! registry), a straggler (virtual seconds or a sleep), the round (its
//! transport and clock), and how every process's [`Tally`] reaches the
//! checkpoint writer (in hand or through a rendezvous).
//! [`HostEnv::checkpoint`] is the one rule that sums tallies; it writes
//! every checkpoint and the result of both engines.

use crate::checkpoint::Checkpoint;
use crate::distributed::{DistConfig, TrainResult};
use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::schedule::LrSchedule;
use crate::setup::{Sampler, TrainSetup, HOST_RNG_BASE, RECOVERY_RNG_BASE};
use crate::sgns::{RecordingStore, ReplicaStore, TrainContext};
use crate::trainer_hogbatch::MinibatchScratch;
use crate::trainer_shared::Step;
use gw2v_corpus::shard::{Corpus, CorpusShard};
use gw2v_corpus::vocab::Vocabulary;
use gw2v_faults::{counters, FaultPlan, OnPartition};
use gw2v_gluon::liveness::Liveness;
use gw2v_gluon::plan::{AccessSets, SyncConfig, SyncPlan};
use gw2v_gluon::sync::{assemble_canonical_layers, SyncScratch};
use gw2v_gluon::threaded::ClusterError;
use gw2v_gluon::volume::CommStats;
use gw2v_gluon::wire::{WireMode, WireState};
use gw2v_gluon::ModelReplica;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{SplitMix64, Xoshiro256};
use std::iter::once;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The plan a run executes. Under [`OnPartition::Degrade`] every
/// partition spec within `max_stale_rounds` becomes a crash of its
/// dormant side at the first partitioned round and a rejoin at the epoch
/// it heals by, so the crash/rejoin machinery runs it unchanged; a
/// longer spec stays and stalls.
fn effective_plan(faults: &FaultPlan, cfg: &DistConfig, epochs: usize) -> FaultPlan {
    if cfg.on_partition != OnPartition::Degrade {
        return faults.clone();
    }
    let (plan, converted) = faults.degrade_partitions(cfg.max_stale_rounds, cfg.sync_rounds);
    for spec in &converted {
        counters::bump(counters::INJECTED_PARTITION);
        counters::bump(counters::DETECTED_PARTITION);
        if spec.to_round.div_ceil(cfg.sync_rounds.max(1)) < epochs {
            // The dormant side rejoins inside the run: the partition heals.
            counters::bump(counters::RECOVERED_HEAL);
        }
    }
    plan
}

/// The epoch after which `kill=E` stops a run that starts at
/// `start_epoch`. A kill after the last epoch stops nothing.
fn kill_epoch(plan: &FaultPlan, start_epoch: usize, epochs: usize) -> Option<usize> {
    plan.kill_after_epoch
        .filter(|&e| e >= start_epoch && e + 1 < epochs)
}

/// Tokens shard `shard` has processed by the start of `(epoch, s)`.
/// Raw token counts are independent of any RNG stream, so an adopter
/// can recompute a dead host's schedule position exactly.
fn processed_at(shard: &CorpusShard<'_>, epoch: usize, s: usize, s_count: usize) -> u64 {
    let mut total = epoch as u64 * shard.total_tokens() as u64;
    for s_prior in 0..s {
        total += shard.round_chunk(s_prior, s_count).total_tokens() as u64;
    }
    total
}

/// The canonical model: each block from its effective master, host `h`
/// holding `layers(h)`.
pub(crate) fn canonical<'a>(
    live: &Liveness,
    layers: impl Fn(usize) -> &'a [FlatMatrix],
) -> Word2VecModel {
    let mut it = assemble_canonical_layers(live, layers).into_iter();
    Word2VecModel::from_layers(it.next().expect("syn0"), it.next().expect("syn1neg"))
}

/// Epoch-boundary checkpointing as a trainer's `with_checkpointing` and
/// `with_resume` set it; the default writes and resumes nothing.
#[derive(Default)]
pub(crate) struct Checkpointing {
    pub(crate) dir: Option<PathBuf>,
    pub(crate) every: usize,
    pub(crate) resume: bool,
}

impl Checkpointing {
    /// The checkpoint a resuming run continues from; `None` starts fresh.
    fn resume_point(&self, fingerprint: u64) -> Option<Checkpoint> {
        if !self.resume {
            return None;
        }
        let dir = self
            .dir
            .as_ref()
            .expect("resume requires a checkpoint directory");
        let ckpt = Checkpoint::resume_point(dir, fingerprint)
            .unwrap_or_else(|e| panic!("resuming from {}: {e}", dir.display()));
        ckpt.inspect(|_| counters::bump(counters::RECOVERED_RESUME))
    }

    /// Where the checkpoint closing `epoch` goes, when one is due: every
    /// `every` epochs, at the last epoch, and before a kill.
    fn due(&self, epoch: usize, epochs: usize, kill_here: bool) -> Option<&Path> {
        let due = (epoch + 1).is_multiple_of(self.every) || epoch + 1 == epochs || kill_here;
        self.dir.as_deref().filter(|_| due)
    }
}

/// What every host of a run reads and none writes.
pub(crate) struct HostEnv<'a> {
    pub(crate) params: Hyperparams,
    pub(crate) setup: TrainSetup,
    pub(crate) schedule: LrSchedule,
    pub(crate) h_count: usize,
    pub(crate) s_count: usize,
    pub(crate) n_words: usize,
    pub(crate) sync: SyncConfig,
    /// The fault plan the run executes: [`effective_plan`].
    pub(crate) faults: FaultPlan,
    wire: WireMode,
    /// What a host does to one sentence, training or inspecting.
    step: Step,
    shards: Vec<CorpusShard<'a>>,
    root: SplitMix64,
    init: Word2VecModel,
    checkpointing: &'a Checkpointing,
    fingerprint: u64,
    /// The checkpoint this run resumes from.
    resume: Option<Checkpoint>,
    start_epoch: usize,
    kill: Option<usize>,
}

impl<'a> HostEnv<'a> {
    /// The run of `p` and `cfg` over `corpus` under `faults`, resuming
    /// as `checkpointing` says.
    pub(crate) fn new(
        p: &Hyperparams,
        cfg: &DistConfig,
        faults: &FaultPlan,
        checkpointing: &'a Checkpointing,
        corpus: &'a Corpus,
        vocab: &Vocabulary,
    ) -> Self {
        let total_tokens = corpus.total_tokens() as u64;
        let faults = effective_plan(faults, cfg, p.epochs);
        let fingerprint = Checkpoint::fingerprint_of(p, cfg);
        let resume = checkpointing.resume_point(fingerprint);
        let start_epoch = resume.as_ref().map_or(0, |c| c.epoch + 1);
        Self {
            params: p.clone(),
            setup: TrainSetup::new(vocab, p),
            schedule: LrSchedule::new(p.alpha, p.min_alpha_frac, total_tokens, p.epochs),
            h_count: cfg.n_hosts,
            s_count: cfg.sync_rounds,
            n_words: vocab.len(),
            sync: SyncConfig {
                plan: cfg.plan,
                combiner: cfg.combiner,
            },
            kill: kill_epoch(&faults, start_epoch, p.epochs),
            faults,
            wire: cfg.wire,
            step: Step::from(cfg.sgns),
            shards: (0..cfg.n_hosts)
                .map(|h| corpus.partition(h, cfg.n_hosts))
                .collect(),
            root: SplitMix64::new(p.seed),
            init: Word2VecModel::init(vocab.len(), p.dim, p.seed),
            checkpointing,
            fingerprint,
            resume,
            start_epoch,
        }
    }

    /// Host `h`'s replica at the start of the run: as the resume point
    /// left it, else the initial model.
    fn start_replica(&self, h: usize) -> ModelReplica {
        ModelReplica::new(match &self.resume {
            Some(ckpt) => ckpt.layers[h].clone(),
            None => vec![self.init.syn0.clone(), self.init.syn1neg.clone()],
        })
    }

    /// Dead hosts the fault plan re-admits at the boundary of `epoch`.
    fn rejoining(&self, live: &Liveness, epoch: usize) -> Vec<usize> {
        let back = |&d: &usize| !live.is_alive(d) && self.faults.rejoin_epoch(d) == Some(epoch);
        (0..self.h_count).filter(back).collect()
    }

    /// Live hosts the fault plan crashes at the start of round `g`.
    fn crashing(&self, live: &Liveness, g: usize) -> Vec<usize> {
        let dies = |&h: &usize| live.is_alive(h) && self.faults.crash_round(h) == Some(g);
        (0..self.h_count).filter(dies).collect()
    }

    fn ctx(&self) -> TrainContext<'_, Sampler> {
        self.setup.ctx(&self.params)
    }

    /// PullModel's access sets for the round after `(epoch, s)`, with
    /// `fill(next_s, sets)` writing the rows of the hosts it inspects;
    /// `None` under the RepModel plans.
    fn access_sets(
        &self,
        epoch: usize,
        s: usize,
        fill: impl FnOnce(usize, &mut AccessSets),
    ) -> Option<AccessSets> {
        (self.sync.plan == SyncPlan::PullModel).then(|| {
            let mut sets = AccessSets::new(self.h_count, 2, self.n_words);
            let next_epoch = (epoch + 1 < self.params.epochs).then_some(0);
            if let Some(next_s) = (s + 1 < self.s_count).then_some(s + 1).or(next_epoch) {
                fill(next_s, &mut sets);
            }
            sets
        })
    }

    /// The one tally rule: the run's state where `hosts` stands, from
    /// every process's tally on top of the resume point. Bytes, messages
    /// and pairs add up; `rounds` counts the rounds the run executed,
    /// however many hosts sat them. A dead host's slot holds its own last
    /// replica, and its stream and position are its adopter's ward's.
    pub(crate) fn checkpoint(&self, hosts: &Hosts<'_>, tallies: Vec<Tally>) -> Checkpoint {
        let base = self.resume.as_ref();
        let mut stats = base.map_or_else(CommStats::default, |c| c.stats);
        let mut pairs_trained = base.map_or(0, |c| c.pairs_trained);
        let mut layers = vec![Vec::new(); self.h_count];
        let mut processed = vec![0u64; self.h_count];
        let mut rng_states = vec![[0u64; 4]; self.h_count];
        for tally in tallies {
            stats.merge(&tally.stats);
            pairs_trained += tally.pairs;
            for (h, host_layers, slots) in tally.hosts {
                layers[h] = host_layers;
                for (d, state, position) in slots.into_iter().filter(|_| hosts.live.is_alive(h)) {
                    rng_states[d] = state;
                    processed[d] = position;
                }
            }
        }
        assert!(
            layers.iter().all(|l| !l.is_empty()),
            "a host's tally is missing"
        );
        let executed = (hosts.closed - self.start_epoch) * self.s_count;
        stats.rounds = base.map_or(0, |c| c.stats.rounds) + executed as u64;
        Checkpoint {
            fingerprint: self.fingerprint,
            epoch: hosts.closed.saturating_sub(1),
            pairs_trained,
            compute_time: hosts.clock[0],
            comm_time: hosts.clock[1],
            processed,
            alive: (0..self.h_count).map(|h| hosts.live.is_alive(h)).collect(),
            rng_states,
            stats,
            layers,
        }
    }

    /// The result of a run that every process in `processes` walked to
    /// its end, started at `wall_start`: the last checkpoint's rule.
    pub(crate) fn result(&self, mut processes: Vec<Hosts<'_>>, wall_start: Instant) -> TrainResult {
        let tallies = processes.iter_mut().map(Hosts::take_tally).collect();
        let ckpt = self.checkpoint(&processes[0], tallies);
        TrainResult {
            model: canonical(&processes[0].live, |h| &ckpt.layers[h]),
            stats: ckpt.stats,
            compute_time: ckpt.compute_time,
            comm_time: ckpt.comm_time,
            wall_time: wall_start.elapsed().as_secs_f64(),
            pairs_trained: ckpt.pairs_trained,
            killed: self.kill.is_some(),
            resumed_from: self.resume.as_ref().map(|_| self.start_epoch),
        }
    }
}

/// A dead host's shard, carried forward by its adopter.
pub(crate) struct Ward {
    pub(crate) host: usize,
    pub(crate) rng: Xoshiro256,
    pub(crate) processed: u64,
}

/// `(shard, rng state, processed)`: one shard's fields of a checkpoint.
type Slot = (usize, [u64; 4], u64);

/// One process's share of a checkpoint: per host it holds, the replica
/// (a dead host's last one) and [`HostWork::slots`]; and what its hosts
/// sent and trained.
#[derive(Clone)]
pub(crate) struct Tally {
    hosts: Vec<(usize, Vec<FlatMatrix>, Vec<Slot>)>,
    stats: CommStats,
    pairs: u64,
}

/// The hosts one process holds, its liveness view and its tallies.
pub(crate) struct Hosts<'a> {
    pub(crate) live: Liveness,
    pub(crate) work: Vec<HostWork<'a>>,
    pub(crate) replicas: Vec<ModelReplica>,
    pub(crate) wire: Vec<WireState>,
    pub(crate) scratch: Vec<SyncScratch>,
    /// What the held hosts sent, in this run.
    pub(crate) stats: CommStats,
    /// Positive pairs the held hosts trained, in this run.
    pub(crate) pairs: u64,
    /// Virtual compute and communication seconds, from the resume
    /// point's on; only the simulator advances them.
    pub(crate) clock: [f64; 2],
    /// The epochs before this one are closed.
    closed: usize,
}

impl<'a> Hosts<'a> {
    /// Hosts `held` at the start of the run.
    pub(crate) fn new(env: &'a HostEnv<'a>, held: impl IntoIterator<Item = usize>) -> Self {
        let resume = env.resume.as_ref();
        let live = resume.map_or_else(|| Liveness::all(env.h_count), Checkpoint::liveness);
        let held: Vec<usize> = held.into_iter().collect();
        Self {
            work: held
                .iter()
                .map(|&h| match resume {
                    Some(ckpt) => HostWork::restore(env, h, ckpt, &live),
                    None => HostWork::fresh(env, h),
                })
                .collect(),
            replicas: held.iter().map(|&h| env.start_replica(h)).collect(),
            wire: held.iter().map(|_| WireState::for_mode(env.wire)).collect(),
            scratch: held.iter().map(|_| SyncScratch::new()).collect(),
            stats: CommStats::default(),
            pairs: 0,
            clock: resume.map_or([0.0; 2], |c| [c.compute_time, c.comm_time]),
            closed: env.start_epoch,
            live,
        }
    }

    /// Where host `h` sits among the held ones.
    fn index(&self, h: usize) -> Option<usize> {
        self.work.iter().position(|w| w.host == h)
    }

    /// Whether this process holds a live host.
    fn any_alive(&self) -> bool {
        self.work.iter().any(|w| self.live.is_alive(w.host))
    }

    /// Whether this process holds the lowest live host, which writes
    /// checkpoints and counts a kill.
    pub(crate) fn writes(&self) -> bool {
        let lowest = (0..self.live.n_hosts()).find(|&h| self.live.is_alive(h));
        lowest.and_then(|h| self.index(h)).is_some()
    }

    /// Brings every live held host's wards in line with the view.
    fn adopt(&mut self, epoch: usize, s: usize) {
        for w in self.work.iter_mut().filter(|w| self.live.is_alive(w.host)) {
            w.adopt(&self.live, epoch, s);
        }
    }

    /// This process's tally, replicas copied.
    pub(crate) fn tally(&self) -> Tally {
        self.tally_of(self.replicas.iter().map(|r| r.layers.clone()).collect())
    }

    /// This process's tally, replicas moved out.
    fn take_tally(&mut self) -> Tally {
        let replicas = std::mem::take(&mut self.replicas);
        self.tally_of(replicas.into_iter().map(|r| r.layers).collect())
    }

    fn tally_of(&self, layers: Vec<Vec<FlatMatrix>>) -> Tally {
        let hosts = self.work.iter().zip(layers);
        Tally {
            hosts: hosts
                .map(|(w, l)| (w.host, l, w.slots().collect()))
                .collect(),
            stats: self.stats,
            pairs: self.pairs,
        }
    }
}

/// What a cluster engine does its own way inside [`run`].
pub(crate) trait Engine {
    /// Hands rejoining host `d`'s partition back from its adopter `a`.
    /// `ward` is `d`'s ward when this process holds `a`; returns the
    /// ward and `a`'s replica layers when it holds `d`.
    fn hand_over(
        &mut self,
        hosts: &Hosts<'_>,
        d: usize,
        a: usize,
        ward: Option<Ward>,
    ) -> Result<Option<(Ward, Vec<FlatMatrix>)>, ClusterError>;

    /// Opens round `g` of `epoch`, at whose start the hosts `crashing`
    /// die: the engine learns of each death.
    fn begin_round(&mut self, hosts: &Hosts<'_>, epoch: usize, g: usize, crashing: &[usize]);

    /// Serves a straggler's `delay` seconds; returns the virtual seconds
    /// it adds to its host's compute.
    fn straggle(&mut self, delay: f64) -> f64;

    /// Synchronizes round `g`; `compute` holds each held host's compute
    /// seconds of the round.
    fn sync(
        &mut self,
        hosts: &mut Hosts<'_>,
        access: Option<&AccessSets>,
        compute: &[f64],
        g: usize,
    ) -> Result<(), ClusterError>;

    /// Every process's tally, for the process that writes the
    /// checkpoint closing the epoch; `None` for every other.
    fn gather(&mut self, hosts: &Hosts<'_>) -> Option<Vec<Tally>>;

    /// Runs after the round that closes `epoch`.
    fn end_epoch(&mut self, _hosts: &Hosts<'_>, _epoch: usize) {}
}

/// Algorithm 1 over the hosts `hosts` holds, from the resume point to
/// the last epoch or the kill.
pub(crate) fn run<E: Engine>(
    env: &HostEnv<'_>,
    hosts: &mut Hosts<'_>,
    engine: &mut E,
) -> Result<(), ClusterError> {
    let epochs = env.params.epochs;
    let mut compute = vec![0.0f64; hosts.work.len()];
    for epoch in env.start_epoch..epochs {
        hosts.wire.iter_mut().for_each(WireState::begin_epoch);
        // ---- Epoch-boundary re-admission (rejoin=H@E). ----
        // Adopters are read off the view before this boundary's
        // re-admissions: it is the one their wards follow.
        let rejoining = env.rejoining(&hosts.live, epoch);
        for &d in &rejoining {
            let a = hosts
                .live
                .adopter_of(d)
                .expect("a dead host has an adopter");
            let ward = hosts.index(a).map(|i| {
                hosts.work[i]
                    .release(d)
                    .expect("the adopter carries the ward")
            });
            // The rejoiner resumes its worklist on the stream it was
            // carried on, from its adopter's replica.
            if let Some((ward, layers)) = engine.hand_over(hosts, d, a, ward)? {
                let i = hosts.index(d).expect("the rejoiner is held");
                hosts.replicas[i] = ModelReplica::new(layers);
                hosts.work[i].readmit(ward);
                counters::bump(counters::RECOVERED_REJOIN);
            }
        }
        // A rejoin can change effective masters, hence wards.
        if !rejoining.is_empty() {
            rejoining.iter().for_each(|&d| hosts.live.mark_alive(d));
            hosts.adopt(epoch, 0);
        }
        for s in 0..env.s_count {
            let g = epoch * env.s_count + s;
            // ---- Scheduled crashes strike at the round boundary. ----
            let crashing = env.crashing(&hosts.live, g);
            engine.begin_round(hosts, epoch, g, &crashing);
            if !crashing.is_empty() {
                crashing.iter().for_each(|&h| hosts.live.mark_dead(h));
                hosts.adopt(epoch, s);
            }
            if !hosts.any_alive() {
                continue;
            }
            // ---- Compute phase (each host timed individually). ----
            compute.fill(0.0);
            let Hosts {
                live,
                work,
                replicas,
                pairs,
                ..
            } = &mut *hosts;
            let alive = |(_, w): &(usize, &mut HostWork<'_>)| live.is_alive(w.host);
            for (i, w) in work.iter_mut().enumerate().filter(alive) {
                let t0 = Instant::now();
                *pairs += w.train_round(&mut replicas[i], s);
                compute[i] = t0.elapsed().as_secs_f64();
                if let Some(delay) = env.faults.straggler_delay(w.host, g) {
                    counters::bump(counters::INJECTED_STRAGGLE);
                    compute[i] += engine.straggle(delay);
                }
            }
            // ---- PullModel inspection of the *next* round (§4.4). ----
            let access = env.access_sets(epoch, s, |next_s, sets| {
                for (i, w) in work.iter_mut().enumerate().filter(alive) {
                    let t0 = Instant::now();
                    w.inspect(next_s, sets);
                    // Inspection is real per-host work: charge it.
                    compute[i] += t0.elapsed().as_secs_f64();
                }
            });
            // ---- Synchronize (reduce + broadcast). ----
            engine.sync(hosts, access.as_ref(), &compute, g)?;
        }
        hosts.closed = epoch + 1;
        engine.end_epoch(hosts, epoch);

        // ---- Epoch-boundary checkpoint + planned kill. ----
        let kill_here = env.kill == Some(epoch);
        if let Some(dir) = env.checkpointing.due(epoch, epochs, kill_here) {
            if let Some(tallies) = engine.gather(hosts) {
                env.checkpoint(hosts, tallies)
                    .save_in(dir)
                    .unwrap_or_else(|e| panic!("writing checkpoint: {e}"));
            }
        }
        if kill_here {
            // Whole-cluster stop; the checkpoint writer counts it.
            if hosts.writes() {
                counters::bump(counters::INJECTED_KILL);
            }
            break;
        }
    }
    Ok(())
}

/// One host's side of the epoch loop: its stream, schedule position and
/// wards. A ward is (re)assigned whenever the adoption map changes — on
/// a death or a rejoin — and then restarts on the recovery stream
/// `RECOVERY_RNG_BASE + d` at its recomputed position.
pub(crate) struct HostWork<'a> {
    env: &'a HostEnv<'a>,
    pub(crate) host: usize,
    rng: Xoshiro256,
    processed: u64,
    wards: Vec<Ward>,
    scratch: MinibatchScratch,
}

impl<'a> HostWork<'a> {
    /// Host `host` at the start of a run.
    fn fresh(env: &'a HostEnv<'a>, host: usize) -> Self {
        Self {
            env,
            host,
            rng: Xoshiro256::new(env.root.derive(HOST_RNG_BASE + host as u64)),
            processed: 0,
            wards: Vec::new(),
            scratch: MinibatchScratch::new(),
        }
    }

    /// Host `host` as `ckpt` left it. Its wards are the dead hosts it is
    /// `adopter_of` under `live`, because both engines keep the adoption
    /// map equal to `adopter_of` at every boundary. No adopt counter: the
    /// run that wrote the checkpoint counted it.
    fn restore(env: &'a HostEnv<'a>, host: usize, ckpt: &Checkpoint, live: &Liveness) -> Self {
        let rng = |d: usize| Xoshiro256::from_state(ckpt.rng_states[d]);
        Self {
            rng: rng(host),
            processed: ckpt.processed[host],
            wards: (0..env.h_count)
                .filter(|&d| live.adopter_of(d) == Some(host))
                .map(|d| Ward {
                    host: d,
                    rng: rng(d),
                    processed: ckpt.processed[d],
                })
                .collect(),
            ..Self::fresh(env, host)
        }
    }

    /// Brings the wards in line with `live` at the start of `(epoch, s)`:
    /// drops the ones another host now adopts and starts the ones this
    /// host newly adopts.
    fn adopt(&mut self, live: &Liveness, epoch: usize, s: usize) {
        let (env, h) = (self.env, self.host);
        self.wards.retain(|w| live.adopter_of(w.host) == Some(h));
        for d in 0..env.h_count {
            if live.adopter_of(d) != Some(h) || self.wards.iter().any(|w| w.host == d) {
                continue;
            }
            counters::bump(counters::RECOVERED_ADOPT);
            self.wards.push(Ward {
                host: d,
                rng: Xoshiro256::new(env.root.derive(RECOVERY_RNG_BASE + d as u64)),
                processed: processed_at(&env.shards[d], epoch, s, env.s_count),
            });
        }
        self.wards.sort_by_key(|w| w.host);
    }

    /// Hands back ward `d`, which is rejoining, if this host carries it.
    fn release(&mut self, d: usize) -> Option<Ward> {
        let pos = self.wards.iter().position(|w| w.host == d)?;
        Some(self.wards.remove(pos))
    }

    /// Takes this host's own shard back from the ward its adopter
    /// carried; a rejoiner holds no wards until it next adopts.
    fn readmit(&mut self, ward: Ward) {
        self.rng = ward.rng;
        self.processed = ward.processed;
        self.wards.clear();
    }

    /// Trains round `s`'s chunk of the own shard, then of each ward in
    /// host order, into `replica`; returns the pairs trained.
    fn train_round(&mut self, replica: &mut ModelReplica, s: usize) -> u64 {
        let (env, ctx) = (self.env, self.env.ctx());
        let mut store = ReplicaStore { replica };
        let own = (self.host, &mut self.rng, &mut self.processed);
        let wards = self
            .wards
            .iter_mut()
            .map(|w| (w.host, &mut w.rng, &mut w.processed));
        let mut pairs = 0;
        for (d, rng, processed) in once(own).chain(wards) {
            for sentence in env.shards[d].round_chunk(s, env.s_count).sentences() {
                let alpha = env.schedule.alpha_for_host(*processed, env.h_count);
                pairs += env
                    .step
                    .apply(&mut store, sentence, alpha, &ctx, rng, &mut self.scratch);
                *processed += sentence.len() as u64;
            }
        }
        pairs
    }

    /// PullModel inspection (§4.4): replays round `next_s` — own chunk,
    /// then the wards' — on copies of the streams against a recorder,
    /// and writes the rows it will touch into this host's access sets.
    fn inspect(&mut self, next_s: usize, sets: &mut AccessSets) {
        let (env, ctx) = (self.env, self.env.ctx());
        let mut recorder = RecordingStore::new(env.n_words, env.params.dim);
        let streams = once((self.host, self.rng)).chain(self.wards.iter().map(|w| (w.host, w.rng)));
        for (d, mut rng) in streams {
            for sentence in env.shards[d].round_chunk(next_s, env.s_count).sentences() {
                env.step.apply(
                    &mut recorder,
                    sentence,
                    0.0,
                    &ctx,
                    &mut rng,
                    &mut self.scratch,
                );
            }
        }
        *sets.get_mut(self.host, 0) = recorder.syn0_access;
        *sets.get_mut(self.host, 1) = recorder.syn1_access;
    }

    /// `(shard, rng state, processed)` of the own shard and each ward:
    /// this host's fields of a checkpoint.
    pub(crate) fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        let own = (self.host, self.rng.state(), self.processed);
        once(own).chain(
            self.wards
                .iter()
                .map(|w| (w.host, w.rng.state(), w.processed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer_shared::{dist_config, toy_corpus};
    use gw2v_combiner::CombinerKind;

    #[test]
    fn a_kill_after_the_last_epoch_stops_nothing() {
        let kill = |e: usize| FaultPlan {
            kill_after_epoch: Some(e),
            ..FaultPlan::none()
        };
        assert_eq!(kill_epoch(&kill(1), 0, 3), Some(1));
        assert_eq!(kill_epoch(&kill(2), 0, 3), None, "after the last epoch");
        assert_eq!(kill_epoch(&kill(1), 2, 3), None, "before the resume point");
        assert_eq!(kill_epoch(&FaultPlan::none(), 0, 3), None);
    }

    #[test]
    fn processed_at_is_where_training_leaves_a_shard() {
        let (corpus, vocab) = toy_corpus(60);
        let cfg = dist_config(3, 2, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner);
        let params = Hyperparams::test_scale();
        let none = Checkpointing::default();
        let env = HostEnv::new(&params, &cfg, &FaultPlan::none(), &none, &corpus, &vocab);
        let mut work = HostWork::fresh(&env, 1);
        let mut replica = env.start_replica(1);
        for epoch in 0..2 {
            for s in 0..2 {
                let position = processed_at(&env.shards[1], epoch, s, 2);
                assert_eq!(work.processed, position, "epoch {epoch} round {s}");
                work.train_round(&mut replica, s);
            }
        }
    }

    #[test]
    fn wards_follow_the_adoption_map() {
        let (corpus, vocab) = toy_corpus(60);
        let cfg = dist_config(3, 2, SyncPlan::RepModelOpt, CombinerKind::ModelCombiner);
        let params = Hyperparams::test_scale();
        let none = Checkpointing::default();
        let env = HostEnv::new(&params, &cfg, &FaultPlan::none(), &none, &corpus, &vocab);
        let mut work: Vec<_> = (0..3).map(|h| HostWork::fresh(&env, h)).collect();
        let shards = |w: &HostWork| w.slots().map(|(d, ..)| d).collect::<Vec<_>>();
        let mut live = Liveness::all(3);
        live.mark_dead(2);
        work[0].adopt(&live, 0, 1);
        assert_eq!(shards(&work[0]), [0, 2]);
        let recovery = Xoshiro256::new(env.root.derive(RECOVERY_RNG_BASE + 2));
        let ward = work[0].slots().nth(1).unwrap();
        assert_eq!(
            ward.1,
            recovery.state(),
            "a new ward starts on its recovery stream"
        );
        assert_eq!(ward.2, processed_at(&env.shards[2], 0, 1, 2));
        // The adopter dies: host 1 carries both wards.
        live.mark_dead(0);
        work[1].adopt(&live, 1, 0);
        assert_eq!(shards(&work[1]), [1, 0, 2]);
        // Host 0 rejoins: it takes shard 0 back and adopts 2 again.
        live.mark_alive(0);
        let own = work[1].release(0).expect("host 1 carries shard 0");
        work[0].readmit(own);
        work[1].adopt(&live, 2, 0);
        work[0].adopt(&live, 2, 0);
        assert_eq!(shards(&work[1]), [1]);
        assert_eq!(shards(&work[0]), [0, 2]);
    }
}
