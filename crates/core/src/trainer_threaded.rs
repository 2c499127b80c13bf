//! The distributed protocol on the threaded cluster engine.
//!
//! [`ThreadedTrainer`] runs Algorithm 1 with one OS thread per host on
//! the gw2v-gluon threaded fabric: real message passing (CRC-framed,
//! NAK/resend reliable), real barriers, real crashes. Each thread drives
//! its `host::HostWork`, the host side of the epoch the simulator drives
//! too, so every run — any sync plan, any fault plan — trains the bits
//! [`crate::distributed::DistributedTrainer`] trains. What this engine does for real
//! where the simulator models it:
//!
//! * drops and bit-flips are detected (CRC / timeout) and repaired by
//!   retransmission;
//! * a peer's death is confirmed through the runtime liveness registry;
//! * a `rejoin=H@E` directive re-admits a crashed host at the boundary
//!   of epoch `E`: its adopter streams the partition state (replica rows,
//!   ward RNG state, schedule position) back over CRC-sealed out-of-band
//!   frames, and the rejoiner re-registers in the liveness registry
//!   before acknowledging and resynchronizes its lockstep phase counter;
//! * epoch-boundary GW2VCKP1 checkpoints are written by the lowest
//!   alive host after all live hosts deposit their state at a shared
//!   rendezvous barrier.
//!
//! Virtual time is the simulator's: `compute_time`/`comm_time` are
//! reported as zero here, and wall time is the real measurement.

use crate::checkpoint::Checkpoint;
use crate::distributed::{DistConfig, TrainResult};
use crate::host::{
    canonical, kill_epoch, save, slot_columns, start_liveness, Checkpointing, HostEnv, HostWork,
    Ward,
};
use crate::params::Hyperparams;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_faults::{counters, FaultPlan};
use gw2v_gluon::liveness::Liveness;
use gw2v_gluon::sync::SyncScratch;
use gw2v_gluon::threaded::{
    phases_per_round, run_cluster_with, sync_round_threaded_degraded, ClusterConfig, ClusterError,
    HostCtx,
};
use gw2v_gluon::volume::CommStats;
use gw2v_gluon::wire::WireState;
use gw2v_gluon::ModelReplica;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::Xoshiro256;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// One host's tallies, as deposited at a checkpoint rendezvous and as
/// handed back to the coordinator; `layers` is `None` for a host that
/// ended the run dead.
struct Tally {
    layers: Option<Vec<FlatMatrix>>,
    /// [`HostWork::slots`] (rendezvous deposits only).
    slots: Vec<(usize, [u64; 4], u64)>,
    stats: CommStats,
    pairs: u64,
}

/// The deterministic liveness view just *before* the re-admissions at
/// the boundary of `epoch`, derived by replaying the plan's events from
/// the start of the run. Both engines re-evaluate the adoption map at
/// every liveness change (death rounds and rejoin boundaries alike), so
/// this view's `adopter_of` is exactly the host holding a dormant host's
/// ward at that boundary — which is how a rejoiner knows whom to expect
/// its state transfer from without any coordination.
fn liveness_before_epoch(env: &HostEnv<'_>, epoch: usize) -> Liveness {
    let mut live = Liveness::all(env.h_count);
    for e in 0..epoch {
        for d in env.rejoining(&live, e) {
            live.mark_alive(d);
        }
        for g in e * env.s_count..(e + 1) * env.s_count {
            for h in env.crashing(&live, g) {
                live.mark_dead(h);
            }
        }
    }
    live
}

/// Dormancy of a dead host (crashed in round `crashed_g`, or dead at the
/// checkpoint this run resumed from): `None` when it never comes back.
/// Otherwise blocks until the adopter streams the partition state at
/// the re-admission boundary, takes it into `(work, replica, live)` —
/// `live` being the shared view *after* this host's own re-admission
/// (other same-boundary rejoiners are folded in by the epoch-top block
/// the caller re-enters) — resynchronizes the phase counter, and
/// returns the epoch to re-enter.
fn dormancy(
    ctx: &HostCtx,
    env: &HostEnv<'_>,
    (work, replica, live): (&mut HostWork<'_>, &mut ModelReplica, &mut Liveness),
    crashed_g: Option<usize>,
    start_epoch: usize,
) -> Result<Option<usize>, ClusterError> {
    let (h, s_count, epochs) = (ctx.host, env.s_count, env.params.epochs);
    // Only a re-admission the cluster reaches counts: after the crash,
    // within this run, and not beyond a kill that fires first.
    let kill = kill_epoch(&env.faults, start_epoch, epochs);
    let reached = |&e: &usize| {
        (start_epoch..epochs).contains(&e)
            && crashed_g.is_none_or(|g| e * s_count > g)
            && kill.is_none_or(|k| e <= k)
    };
    let Some(e) = env.faults.rejoin_epoch(h).filter(reached) else {
        return Ok(None);
    };
    *live = liveness_before_epoch(env, e);
    let adopter = live.adopter_of(h).expect("dormant host has an adopter");
    let shape = [(env.n_words, env.params.dim); 2];
    let (rng_state, processed, layers) = ctx.recv_partition_state(adopter, &shape)?;
    counters::bump(counters::RECOVERED_REJOIN);
    live.mark_alive(h);
    *replica = ModelReplica::new(layers);
    work.readmit(Ward {
        host: h,
        rng: Xoshiro256::from_state(rng_state),
        processed,
    });
    ctx.resync_seq(phases_per_round(env.sync.plan) * ((e - start_epoch) * s_count) as u64);
    Ok(Some(e))
}

/// `base` plus each host's `(stats, pairs)`: sums, except that `rounds`
/// adds only the most rounds any one host synchronized.
fn totals(
    base: Option<&Checkpoint>,
    hosts: impl IntoIterator<Item = (CommStats, u64)>,
) -> (CommStats, u64) {
    let mut stats = base.map(|c| c.stats).unwrap_or_default();
    let mut pairs = base.map_or(0, |c| c.pairs_trained);
    let mut rounds = 0;
    for (host_stats, host_pairs) in hosts {
        stats.merge(&host_stats);
        rounds = rounds.max(host_stats.rounds);
        pairs += host_pairs;
    }
    stats.rounds = base.map_or(0, |c| c.stats.rounds) + rounds;
    (stats, pairs)
}

/// Per-host layers with each dead host's slot filled from the first live
/// one: never read, it keeps a replica vector or a checkpoint uniformly
/// shaped.
fn fill_dead(layers: Vec<Option<Vec<FlatMatrix>>>) -> Vec<Vec<FlatMatrix>> {
    let first = layers
        .iter()
        .flatten()
        .next()
        .expect("a host is alive")
        .clone();
    layers
        .into_iter()
        .map(|l| l.unwrap_or_else(|| first.clone()))
        .collect()
}

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
        let p = &self.params;
        let cfg = &self.config;
        let h_count = cfg.n_hosts;
        let wall_start = Instant::now();
        let env = &HostEnv::new(p, cfg, &self.faults, corpus, vocab);
        let fingerprint = Checkpoint::fingerprint_of(p, cfg);
        // The coordinator loads and validates once, before any thread
        // spawns; every host restores from the same snapshot.
        let resume = self.checkpointing.resume_point(fingerprint);
        let resume = resume.as_ref();
        let start_epoch = resume.map_or(0, |c| c.epoch + 1);
        let kill = kill_epoch(&env.faults, start_epoch, p.epochs);

        // Checkpoint rendezvous mailbox: live hosts deposit, the lowest
        // alive host assembles and writes, the second barrier releases
        // everyone back into the epoch loop.
        let deposits: &Mutex<Vec<Option<Tally>>> =
            &Mutex::new((0..h_count).map(|_| None).collect());
        // A crashing host leaves its tallies here so checkpoints written
        // while it is dead still account for its pre-crash work (the
        // simulator's global accumulators keep it implicitly). Cleared on
        // re-admission: from then on the host's own counters carry it.
        let orphans: &Mutex<Vec<Option<(CommStats, u64)>>> =
            &Mutex::new((0..h_count).map(|_| None).collect());

        let outcomes = run_cluster_with(
            h_count,
            env.faults.clone(),
            self.cluster,
            |ctx| -> Result<Tally, ClusterError> {
                let h = ctx.host;
                let mut live = start_liveness(h_count, resume);
                let mut replica = env.start_replica(h, resume);
                let mut work = match resume {
                    Some(ckpt) => HostWork::restore(env, h, ckpt, &live),
                    None => HostWork::fresh(env, h),
                };
                let mut stats = CommStats::default();
                let mut pairs = 0u64;
                let mut sync_scratch = SyncScratch::new();
                // This host's memo caches / delta shadows (its sender and
                // receiver keys), reset at every epoch top, which also
                // covers rejoin re-entry, as the simulator resets its own.
                let mut wire = WireState::for_mode(cfg.wire);
                let mut epoch = start_epoch;
                // While dead: the round it crashed in, or `None` when it
                // was dead at the checkpoint this run resumed from — the
                // run that wrote it counted the crash, so resign quietly.
                let mut dormant = None;
                if !live.is_alive(h) {
                    ctx.resign();
                    dormant = Some(None);
                }

                'epochs: loop {
                    // Back from dormancy, a host re-evaluates its wards
                    // even if it is the only rejoiner at the boundary.
                    let woke = dormant.is_some();
                    if let Some(crashed_g) = dormant.take() {
                        let back = (&mut work, &mut replica, &mut live);
                        let Some(e) = dormancy(&ctx, env, back, crashed_g, start_epoch)? else {
                            return Ok(Tally {
                                layers: None,
                                slots: Vec::new(),
                                stats,
                                pairs,
                            });
                        };
                        epoch = e;
                        // Alive again: this host's own counters carry its
                        // pre-crash work from here on.
                        orphans.lock().expect("orphan lock")[h] = None;
                    }
                    if epoch == p.epochs {
                        break;
                    }
                    wire.begin_epoch();
                    // ---- Epoch-boundary re-admission (rejoin=H@E). ----
                    let rejoining = env.rejoining(&live, epoch);
                    for &d in &rejoining {
                        if let Some(ward) = work.release(d) {
                            // This host is the adopter: stream the
                            // partition back. The send blocks for the
                            // rejoiner's ACK, which it sends only after
                            // re-registering alive — so the next barrier
                            // already counts it.
                            let sent = ctx.send_partition_state(
                                d,
                                ward.rng.state(),
                                ward.processed,
                                &replica.layers,
                            )?;
                            gw2v_obs::add("gluon.state_transfer_bytes", sent);
                        }
                        live.mark_alive(d);
                    }
                    // A rejoin can change effective masters, hence wards.
                    if !rejoining.is_empty() || woke {
                        work.adopt(&live, epoch, 0);
                    }
                    for s in 0..cfg.sync_rounds {
                        let g = epoch * cfg.sync_rounds + s;
                        // Partition blocking is round-indexed: tell the
                        // fabric which global round the coming phases
                        // belong to.
                        ctx.begin_round(g);
                        let crashing = env.crashing(&live, g);
                        if crashing.contains(&h) {
                            // Orphan the tallies *before* announcing the
                            // death: await_death releases survivors, and
                            // the next checkpoint writer must already see
                            // this record.
                            orphans.lock().expect("orphan lock")[h] = Some((stats, pairs));
                            ctx.mark_self_dead();
                            dormant = Some(Some(g));
                            continue 'epochs;
                        }
                        // Peers scheduled to die this round: confirm each
                        // death through the runtime registry, then degrade
                        // the deterministic view every survivor shares.
                        for &peer in &crashing {
                            ctx.await_death(peer);
                            live.mark_dead(peer);
                        }
                        if !crashing.is_empty() {
                            work.adopt(&live, epoch, s);
                        }
                        ctx.maybe_straggle(g);

                        pairs += work.train_round(&mut replica, s);
                        let access =
                            env.access_sets(epoch, s, |next_s, sets| work.inspect(next_s, sets));
                        sync_round_threaded_degraded(
                            &ctx,
                            &mut replica,
                            &env.sync,
                            access.as_ref(),
                            &mut stats,
                            &mut sync_scratch,
                            &live,
                            &mut wire,
                        )?;
                    }

                    // ---- Epoch-boundary checkpoint rendezvous. ----
                    let kill_here = kill == Some(epoch);
                    let writer = (0..h_count).find(|&x| live.is_alive(x)) == Some(h);
                    if let Some(dir) = self.checkpointing.due(epoch, p.epochs, kill_here) {
                        deposits.lock().expect("deposit lock")[h] = Some(Tally {
                            layers: Some(replica.layers.clone()),
                            slots: work.slots().collect(),
                            stats,
                            pairs,
                        });
                        ctx.barrier_wait();
                        if writer {
                            let mut slots = deposits.lock().expect("deposit lock");
                            let orphan_slots = orphans.lock().expect("orphan lock");
                            let ckpt = assemble_checkpoint(
                                fingerprint,
                                epoch,
                                &live,
                                &slots,
                                &orphan_slots,
                                resume,
                            );
                            drop(orphan_slots);
                            save(&ckpt, dir);
                            slots.iter_mut().for_each(|slot| *slot = None);
                        }
                        ctx.barrier_wait();
                    }
                    if kill_here {
                        // Whole-cluster stop; the checkpoint writer counts it.
                        if writer {
                            counters::bump(counters::INJECTED_KILL);
                        }
                        break;
                    }
                    epoch += 1;
                }
                Ok(Tally {
                    layers: Some(replica.layers),
                    slots: Vec::new(),
                    stats,
                    pairs,
                })
            },
        );

        // Coordinator: merge host outcomes onto the resume base, then
        // assemble the canonical model block-wise from each partition's
        // effective master (for RepModel plans every survivor's replica
        // is already canonical; for PullModel only the masters are).
        let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        let (stats, pairs_trained) = totals(resume, outcomes.iter().map(|o| (o.stats, o.pairs)));
        let mut final_live = Liveness::all(h_count);
        for (h, outcome) in outcomes.iter().enumerate() {
            if outcome.layers.is_none() {
                final_live.mark_dead(h);
            }
        }
        let layers = fill_dead(outcomes.into_iter().map(|o| o.layers).collect());
        let replicas: Vec<ModelReplica> = layers.into_iter().map(ModelReplica::new).collect();
        Ok(TrainResult {
            model: canonical(&replicas, &final_live),
            stats,
            compute_time: 0.0,
            comm_time: 0.0,
            wall_time: wall_start.elapsed().as_secs_f64(),
            pairs_trained,
            killed: kill.is_some(),
            resumed_from: resume.map(|_| start_epoch),
        })
    }
}

/// Reassembles a simulator-shaped [`Checkpoint`] from the rendezvous
/// deposits: live slots come from each host's snapshot, dead slots from
/// their adopters' ward records, and the totals ride on top of whatever
/// base this run resumed from.
fn assemble_checkpoint(
    fingerprint: u64,
    epoch: usize,
    live: &Liveness,
    slots: &[Option<Tally>],
    orphans: &[Option<(CommStats, u64)>],
    base: Option<&Checkpoint>,
) -> Checkpoint {
    for (h, slot) in slots.iter().enumerate() {
        assert!(
            slot.is_some() || !live.is_alive(h),
            "live host missed the rendezvous"
        );
    }
    let snapshots = slots.iter().flatten();
    // A dead host's pre-crash tallies, parked when it crashed this run,
    // count toward the sums but not the rounds.
    let orphaned = orphans
        .iter()
        .flatten()
        .map(|&(s, p)| (CommStats { rounds: 0, ..s }, p));
    let hosts = snapshots.clone().map(|s| (s.stats, s.pairs));
    let (stats, pairs_trained) = totals(base, hosts.chain(orphaned));
    let (processed, rng_states) =
        slot_columns(slots.len(), snapshots.flat_map(|s| s.slots.iter().copied()));
    Checkpoint {
        fingerprint,
        epoch,
        pairs_trained,
        compute_time: base.map_or(0.0, |c| c.compute_time),
        comm_time: base.map_or(0.0, |c| c.comm_time),
        processed,
        alive: (0..slots.len()).map(|h| live.is_alive(h)).collect(),
        rng_states,
        stats,
        // A dead slot holds the writer's replica; resume never reads it
        // (a dead host resigns, or takes its adopter's state transfer).
        layers: fill_dead(slots.iter().map(|s| s.as_ref()?.layers.clone()).collect()),
    }
}
