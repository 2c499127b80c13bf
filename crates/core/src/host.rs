//! One host's side of a distributed epoch, written once.
//!
//! Algorithm 1 is a per-host loop: train this round's chunk, then
//! synchronize. [`HostWork`] is everything a host carries through that
//! loop except its replica: its training stream and schedule position,
//! and the *wards* it trains for dead hosts. Both cluster engines drive
//! it — [`crate::distributed::DistributedTrainer`] keeps one per simulated host,
//! [`crate::trainer_threaded::ThreadedTrainer`] one per host thread — so ward adoption,
//! compute, PullModel inspection and checkpoint restore are the same
//! code in both. Replicas stay with the engines, because the simulator
//! synchronizes all of them at once.
//!
//! What stays in the engines is what really differs: the transport, how
//! a death is learned (at once vs through the liveness registry), how a
//! rejoiner gets its partition back (a copy vs a state transfer), the
//! checkpoint totals, and the simulator's virtual clocks.

use crate::checkpoint::Checkpoint;
use crate::distributed::DistConfig;
use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::schedule::LrSchedule;
use crate::setup::{Sampler, TrainSetup, HOST_RNG_BASE, RECOVERY_RNG_BASE};
use crate::sgns::{RecordingStore, ReplicaStore, TrainContext};
use crate::trainer_hogbatch::{train_sentence_mode, MinibatchScratch, SgnsMode};
use gw2v_corpus::shard::{Corpus, CorpusShard};
use gw2v_corpus::vocab::Vocabulary;
use gw2v_faults::{counters, FaultPlan, OnPartition};
use gw2v_gluon::liveness::Liveness;
use gw2v_gluon::plan::{AccessSets, SyncConfig, SyncPlan};
use gw2v_gluon::sync::assemble_canonical_live;
use gw2v_gluon::ModelReplica;
use gw2v_util::rng::{SplitMix64, Xoshiro256};
use std::iter::once;
use std::path::{Path, PathBuf};

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
pub(crate) fn kill_epoch(plan: &FaultPlan, start_epoch: usize, epochs: usize) -> Option<usize> {
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

/// The canonical model: each block from its effective master.
pub(crate) fn canonical(replicas: &[ModelReplica], live: &Liveness) -> Word2VecModel {
    let mut it = assemble_canonical_live(replicas, live).into_iter();
    Word2VecModel::from_layers(it.next().expect("syn0"), it.next().expect("syn1neg"))
}

/// Liveness at the start of a run: as `resume` recorded it, else all
/// `h_count` hosts alive.
pub(crate) fn start_liveness(h_count: usize, resume: Option<&Checkpoint>) -> Liveness {
    let mut live = Liveness::all(h_count);
    if let Some(ckpt) = resume {
        (0..h_count)
            .filter(|&d| !ckpt.alive[d])
            .for_each(|d| live.mark_dead(d));
    }
    live
}

/// A checkpoint's `processed` and `rng_states` columns, from the
/// [`HostWork::slots`] of every live host: a dead host's slot holds the
/// stream its adopter carries.
pub(crate) fn slot_columns(
    h_count: usize,
    slots: impl IntoIterator<Item = (usize, [u64; 4], u64)>,
) -> (Vec<u64>, Vec<[u64; 4]>) {
    let mut processed = vec![0u64; h_count];
    let mut rng_states = vec![[0u64; 4]; h_count];
    for (d, state, position) in slots {
        rng_states[d] = state;
        processed[d] = position;
    }
    (processed, rng_states)
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
    pub(crate) fn resume_point(&self, fingerprint: u64) -> Option<Checkpoint> {
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
    pub(crate) fn due(&self, epoch: usize, epochs: usize, kill_here: bool) -> Option<&Path> {
        let due = (epoch + 1).is_multiple_of(self.every) || epoch + 1 == epochs || kill_here;
        self.dir.as_deref().filter(|_| due)
    }
}

/// Writes `ckpt` into `dir`.
pub(crate) fn save(ckpt: &Checkpoint, dir: &Path) {
    ckpt.save_in(dir)
        .unwrap_or_else(|e| panic!("writing checkpoint: {e}"));
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
    sgns: SgnsMode,
    shards: Vec<CorpusShard<'a>>,
    root: SplitMix64,
    init: Word2VecModel,
}

impl<'a> HostEnv<'a> {
    /// The run of `p` and `cfg` over `corpus` under `faults`.
    pub(crate) fn new(
        p: &Hyperparams,
        cfg: &DistConfig,
        faults: &FaultPlan,
        corpus: &'a Corpus,
        vocab: &Vocabulary,
    ) -> Self {
        let total_tokens = corpus.total_tokens() as u64;
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
            faults: effective_plan(faults, cfg, p.epochs),
            sgns: cfg.sgns,
            shards: (0..cfg.n_hosts)
                .map(|h| corpus.partition(h, cfg.n_hosts))
                .collect(),
            root: SplitMix64::new(p.seed),
            init: Word2VecModel::init(vocab.len(), p.dim, p.seed),
        }
    }

    /// Host `h`'s replica at the start of a run: as `resume` left it,
    /// else the initial model.
    pub(crate) fn start_replica(&self, h: usize, resume: Option<&Checkpoint>) -> ModelReplica {
        ModelReplica::new(match resume {
            Some(ckpt) => ckpt.layers[h].clone(),
            None => vec![self.init.syn0.clone(), self.init.syn1neg.clone()],
        })
    }

    /// Dead hosts the fault plan re-admits at the boundary of `epoch`.
    pub(crate) fn rejoining(&self, live: &Liveness, epoch: usize) -> Vec<usize> {
        let back = |&d: &usize| !live.is_alive(d) && self.faults.rejoin_epoch(d) == Some(epoch);
        (0..self.h_count).filter(back).collect()
    }

    /// Live hosts the fault plan crashes at the start of round `g`.
    pub(crate) fn crashing(&self, live: &Liveness, g: usize) -> Vec<usize> {
        let dies = |&h: &usize| live.is_alive(h) && self.faults.crash_round(h) == Some(g);
        (0..self.h_count).filter(dies).collect()
    }

    fn ctx(&self) -> TrainContext<'_, Sampler> {
        self.setup.ctx(&self.params)
    }

    /// PullModel's access sets for the round after `(epoch, s)`, with
    /// `fill(next_s, sets)` writing the rows of the hosts it inspects;
    /// `None` under the RepModel plans.
    pub(crate) fn access_sets(
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
}

/// A dead host's shard, carried forward by its adopter.
pub(crate) struct Ward {
    pub(crate) host: usize,
    pub(crate) rng: Xoshiro256,
    pub(crate) processed: u64,
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
    pub(crate) fn fresh(env: &'a HostEnv<'a>, host: usize) -> Self {
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
    pub(crate) fn restore(
        env: &'a HostEnv<'a>,
        host: usize,
        ckpt: &Checkpoint,
        live: &Liveness,
    ) -> Self {
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
    pub(crate) fn adopt(&mut self, live: &Liveness, epoch: usize, s: usize) {
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
    pub(crate) fn release(&mut self, d: usize) -> Option<Ward> {
        let pos = self.wards.iter().position(|w| w.host == d)?;
        Some(self.wards.remove(pos))
    }

    /// Takes this host's own shard back from the ward its adopter
    /// carried; a rejoiner holds no wards until it next adopts.
    pub(crate) fn readmit(&mut self, ward: Ward) {
        self.rng = ward.rng;
        self.processed = ward.processed;
        self.wards.clear();
    }

    /// Trains round `s`'s chunk of the own shard, then of each ward in
    /// host order, into `replica`; returns the pairs trained.
    pub(crate) fn train_round(&mut self, replica: &mut ModelReplica, s: usize) -> u64 {
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
                pairs += train_sentence_mode(
                    env.sgns,
                    &mut store,
                    sentence,
                    alpha,
                    &ctx,
                    rng,
                    &mut self.scratch,
                );
                *processed += sentence.len() as u64;
            }
        }
        pairs
    }

    /// PullModel inspection (§4.4): replays round `next_s` — own chunk,
    /// then the wards' — on copies of the streams against a recorder,
    /// and writes the rows it will touch into this host's access sets.
    pub(crate) fn inspect(&mut self, next_s: usize, sets: &mut AccessSets) {
        let (env, ctx) = (self.env, self.env.ctx());
        let mut recorder = RecordingStore::new(env.n_words, env.params.dim);
        let streams = once((self.host, self.rng)).chain(self.wards.iter().map(|w| (w.host, w.rng)));
        for (d, mut rng) in streams {
            for sentence in env.shards[d].round_chunk(next_s, env.s_count).sentences() {
                train_sentence_mode(
                    env.sgns,
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
    pub(crate) fn slots(&self) -> impl Iterator<Item = (usize, [u64; 4], u64)> + '_ {
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
        let env = HostEnv::new(&params, &cfg, &FaultPlan::none(), &corpus, &vocab);
        let mut work = HostWork::fresh(&env, 1);
        let mut replica = env.start_replica(1, None);
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
        let env = HostEnv::new(&params, &cfg, &FaultPlan::none(), &corpus, &vocab);
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
