//! The distributed protocol on the threaded cluster engine.
//!
//! [`ThreadedTrainer`] runs Algorithm 1 with one OS thread per host on
//! the gw2v-gluon threaded fabric: real message passing (CRC-framed,
//! NAK/resend reliable), real barriers, real crashes. Each thread walks
//! the epoch loop of `host::run` over its one host, the loop the
//! simulator walks over all of them, so every run — any sync plan, any
//! fault plan — trains the bits and writes the checkpoints
//! [`crate::distributed::DistributedTrainer`] does. What this engine does
//! for real where the simulator models it:
//!
//! * drops and bit-flips are detected (CRC / timeout) and repaired by
//!   retransmission;
//! * a peer's death is confirmed through the runtime liveness registry;
//!   a dead host's thread walks on without training or syncing;
//! * a `rejoin=H@E` directive re-admits a crashed host at the boundary
//!   of epoch `E`: its adopter streams the partition state (replica rows,
//!   ward RNG state, schedule position) back over CRC-sealed out-of-band
//!   frames, and the rejoiner re-registers in the liveness registry
//!   before acknowledging;
//! * a straggler sleeps;
//! * epoch-boundary GW2VCKP1 checkpoints are written by the lowest
//!   alive host from the tallies every host deposits: a live host at a
//!   shared rendezvous barrier, a dead one once, when it dies.
//!
//! Virtual time is the simulator's: `compute_time`/`comm_time` stay at
//! the resume point's, and wall time is the real measurement.

use crate::distributed::{DistConfig, TrainResult};
use crate::host::{run, Checkpointing, Engine, HostEnv, Hosts, Tally, Ward};
use crate::params::Hyperparams;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_faults::FaultPlan;
use gw2v_gluon::plan::AccessSets;
use gw2v_gluon::threaded::{
    run_cluster_with, sync_round_threaded_degraded, ClusterConfig, ClusterError, HostCtx,
};
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::Xoshiro256;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The distributed trainer on the threaded cluster engine.
pub struct ThreadedTrainer {
    /// Hyperparameters.
    pub params: Hyperparams,
    /// Cluster configuration (all three [`gw2v_gluon::plan::SyncPlan`]s
    /// are supported).
    pub config: DistConfig,
    faults: FaultPlan,
    cluster: ClusterConfig,
    checkpointing: Checkpointing,
}

impl ThreadedTrainer {
    /// Creates a trainer.
    pub fn new(params: Hyperparams, config: DistConfig) -> Self {
        assert!(config.n_hosts > 0);
        assert!(config.sync_rounds > 0);
        Self {
            params,
            config,
            faults: FaultPlan::none(),
            cluster: ClusterConfig::default(),
            checkpointing: Checkpointing::default(),
        }
    }

    /// Installs a fault plan; drops, flips, stragglers, crashes and
    /// re-admissions are injected for real (withheld frames, corrupted
    /// bytes, `sleep`s, exiting threads, state transfers).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Overrides the reliable-transport timing knobs.
    pub fn with_cluster_config(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Enables epoch-boundary checkpointing into `dir`, writing every
    /// `every` epochs (plus the final epoch and any `kill=E` boundary).
    /// All live hosts deposit their state at a shared rendezvous barrier
    /// and the lowest alive host writes one simulator-compatible
    /// GW2VCKP1 file.
    pub fn with_checkpointing(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be at least 1 epoch");
        self.checkpointing.dir = Some(dir.into());
        self.checkpointing.every = every;
        self
    }

    /// Resumes from the newest checkpoint in the configured directory
    /// (no-op when the directory has none).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.checkpointing.resume = resume;
        self
    }

    /// Trains on one thread per host. Returns the canonical model
    /// (assembled block-wise from each partition's effective master, so
    /// PullModel's deliberately divergent mirrors don't matter) or the
    /// first cluster-fabric error.
    pub fn train(&self, corpus: &Corpus, vocab: &Vocabulary) -> Result<TrainResult, ClusterError> {
        let (p, cfg) = (&self.params, &self.config);
        let wall_start = Instant::now();
        // The coordinator loads and validates the resume point once,
        // before any thread spawns; every host restores from it.
        let env = &HostEnv::new(p, cfg, &self.faults, &self.checkpointing, corpus, vocab);
        // The checkpoint writer's mailbox: a live host deposits its tally
        // at every checkpoint, a dead one once, when it dies.
        let deposits = &Mutex::new((0..cfg.n_hosts).map(|_| None).collect());
        let processes = run_cluster_with(cfg.n_hosts, env.faults.clone(), self.cluster, |ctx| {
            let mut hosts = Hosts::new(env, [ctx.host]);
            let mut thread = Thread {
                env,
                ctx: &ctx,
                deposits,
            };
            if !hosts.live.is_alive(ctx.host) {
                // Dead at the resume point: the run that wrote it counted
                // the crash.
                thread.deposit(hosts.tally());
                ctx.resign();
            }
            run(env, &mut hosts, &mut thread).map(|()| hosts)
        });
        let processes = processes.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(env.result(processes, wall_start))
    }
}

/// One host thread's side of the epoch loop: state transfers, deaths
/// confirmed through the liveness registry, real sleeps and barriers,
/// and a rendezvous that brings every host's tally to the writer.
struct Thread<'t> {
    env: &'t HostEnv<'t>,
    ctx: &'t HostCtx,
    deposits: &'t Mutex<Vec<Option<Tally>>>,
}

impl Thread<'_> {
    fn deposit(&self, tally: Tally) {
        self.deposits.lock().expect("deposit lock")[self.ctx.host] = Some(tally);
    }
}

impl Engine for Thread<'_> {
    fn hand_over(
        &mut self,
        hosts: &Hosts<'_>,
        d: usize,
        a: usize,
        ward: Option<Ward>,
    ) -> Result<Option<(Ward, Vec<FlatMatrix>)>, ClusterError> {
        if let Some(ward) = ward {
            // This host is the adopter. The send blocks for the
            // rejoiner's ACK, which it sends only after re-registering
            // alive — so the next barrier already counts it.
            let (rng, layers) = (ward.rng.state(), &hosts.replicas[0].layers);
            let sent = self
                .ctx
                .send_partition_state(d, rng, ward.processed, layers)?;
            gw2v_obs::add("gluon.state_transfer_bytes", sent);
            return Ok(None);
        }
        if self.ctx.host != d {
            return Ok(None);
        }
        let shape = [(self.env.n_words, self.env.params.dim); 2];
        let (rng, processed, layers) = self.ctx.recv_partition_state(a, &shape)?;
        let ward = Ward {
            host: d,
            rng: Xoshiro256::from_state(rng),
            processed,
        };
        Ok(Some((ward, layers)))
    }

    fn begin_round(&mut self, hosts: &Hosts<'_>, _epoch: usize, _g: usize, crashing: &[usize]) {
        let h = self.ctx.host;
        if !hosts.live.is_alive(h) {
            return;
        }
        if crashing.contains(&h) {
            // Deposit *before* announcing the death: await_death releases
            // the survivors, and the next checkpoint writer must find it.
            self.deposit(hosts.tally());
            self.ctx.mark_self_dead();
        } else {
            // Confirm each scheduled death through the runtime registry
            // before the shared view degrades.
            crashing.iter().for_each(|&peer| self.ctx.await_death(peer));
        }
    }

    fn straggle(&mut self, delay: f64) -> f64 {
        std::thread::sleep(Duration::from_secs_f64(delay));
        0.0
    }

    fn sync(
        &mut self,
        hosts: &mut Hosts<'_>,
        access: Option<&AccessSets>,
        _compute: &[f64],
        g: usize,
    ) -> Result<(), ClusterError> {
        sync_round_threaded_degraded(
            self.ctx,
            &mut hosts.replicas[0],
            &self.env.sync,
            access,
            &mut hosts.stats,
            &mut hosts.scratch[0],
            &hosts.live,
            &mut hosts.wire[0],
            g,
        )
    }

    /// Every live host deposits; the writer copies every deposit out
    /// between two barriers, so none changes while it reads.
    fn gather(&mut self, hosts: &Hosts<'_>) -> Option<Vec<Tally>> {
        if !hosts.live.is_alive(self.ctx.host) {
            return None;
        }
        self.deposit(hosts.tally());
        self.ctx.barrier_wait();
        // No checkpoint of a failing run: a host that gave up left
        // without depositing this epoch's tally.
        let whole = !self.ctx.a_peer_left(&hosts.live);
        let tallies = (hosts.writes() && whole).then(|| {
            let deposits = self.deposits.lock().expect("deposit lock");
            deposits.iter().flatten().cloned().collect()
        });
        self.ctx.barrier_wait();
        tallies
    }
}
