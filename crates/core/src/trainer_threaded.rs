//! The distributed protocol on the threaded cluster engine.
//!
//! [`ThreadedTrainer`] runs Algorithm 1 with one OS thread per host on
//! the gw2v-gluon threaded fabric: real message passing (CRC-framed,
//! NAK/resend reliable), real barriers, real crashes. It is the
//! demonstration that the protocol the BSP simulator models — including
//! the fault-tolerance story of DESIGN.md §3d — executes correctly under
//! genuine concurrency:
//!
//! * a faultless run produces a model **bit-identical** to
//!   [`crate::DistributedTrainer`]'s (same RNG streams, same fold order),
//!   for all three sync plans — PullModel runs the same inspection
//!   replay per host and pulls exactly the rows the simulator copies;
//! * drops and bit-flips are detected (CRC / timeout) and repaired by
//!   retransmission, leaving the result bit-identical to a clean run;
//! * a crashed host's shard is adopted by the next alive host, which
//!   re-derives the dead worklist's position deterministically (raw token
//!   counts are RNG-free) and continues it on the recovery RNG stream —
//!   the same rule the simulator applies, so degraded runs also match the
//!   simulator bit-for-bit;
//! * a `rejoin=H@E` directive re-admits a crashed host at the boundary
//!   of epoch `E`: its adopter streams the full partition state (replica
//!   rows, ward RNG state, schedule position) back over CRC-sealed
//!   out-of-band frames, the rejoiner re-registers in the liveness
//!   registry before acknowledging, resynchronizes its lockstep phase
//!   counter, and resumes ownership — again bit-identical to the
//!   simulator's analytic re-admission;
//! * epoch-boundary GW2VCKP1 checkpoints are written by the lowest
//!   alive host after all live hosts deposit their state at a shared
//!   rendezvous barrier, and `--resume` restores a kill→resume run
//!   bit-for-bit equal to an uninterrupted one;
//! * a `kill=E` directive stops the whole cluster after epoch `E`.
//!
//! The one scope limit that remains by design: virtual time accounting
//! (`compute_time`/`comm_time` are reported as zero — wall time is the
//! real measurement here; the simulator owns the virtual clocks).

use crate::checkpoint::Checkpoint;
use crate::distributed::{DistConfig, TrainResult};
use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::schedule::LrSchedule;
use crate::setup::{TrainSetup, HOST_RNG_BASE, RECOVERY_RNG_BASE};
use crate::sgns::{RecordingStore, ReplicaStore};
use crate::trainer_hogbatch::{train_sentence_mode, MinibatchScratch};
use gw2v_corpus::shard::{Corpus, CorpusShard};
use gw2v_corpus::vocab::Vocabulary;
use gw2v_faults::{counters, FaultPlan, OnPartition};
use gw2v_gluon::liveness::Liveness;
use gw2v_gluon::plan::{AccessSets, SyncConfig, SyncPlan};
use gw2v_gluon::sync::{assemble_canonical_live, SyncScratch};
use gw2v_gluon::threaded::{
    phases_per_round, run_cluster_with, sync_round_threaded_degraded, ClusterConfig, ClusterError,
    HostCtx,
};
use gw2v_gluon::volume::CommStats;
use gw2v_gluon::wire::WireState;
use gw2v_gluon::ModelReplica;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{SplitMix64, Xoshiro256};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// A dead host's shard, carried forward by its adopter.
struct Ward {
    host: usize,
    rng: Xoshiro256,
    processed: u64,
}

/// What each host thread hands back to the coordinator.
struct HostOutcome {
    crashed: bool,
    layers: Vec<FlatMatrix>,
    stats: CommStats,
    pairs: u64,
}

/// One live host's contribution to a checkpoint rendezvous: everything
/// the writer needs to reassemble the simulator-shaped [`Checkpoint`].
struct HostSnapshot {
    layers: Vec<FlatMatrix>,
    rng: [u64; 4],
    processed: u64,
    stats: CommStats,
    pairs: u64,
    /// `(host, rng_state, processed)` for each ward this host carries —
    /// the dead slots of the checkpoint are filled from these.
    wards: Vec<(usize, [u64; 4], u64)>,
}

/// Tokens host `d` has processed by the start of `(epoch, s)`: full
/// epochs' worth of its shard plus this epoch's earlier chunks. Raw
/// token counts are independent of any RNG stream, so an adopter can
/// recompute a dead host's schedule position exactly.
fn processed_at(shard: &CorpusShard<'_>, epoch: usize, s: usize, s_count: usize) -> u64 {
    let mut total = epoch as u64 * shard.total_tokens() as u64;
    for s_prior in 0..s {
        total += shard.round_chunk(s_prior, s_count).total_tokens() as u64;
    }
    total
}

/// The deterministic liveness view just *before* the re-admissions at
/// the boundary of `epoch`, derived by replaying the plan's events from
/// the start of the run. Both engines re-evaluate the adoption map at
/// every liveness change (death rounds and rejoin boundaries alike), so
/// this view's `adopter_of` is exactly the host holding a dormant host's
/// ward at that boundary — which is how a rejoiner knows whom to expect
/// its state transfer from without any coordination.
fn liveness_before_epoch(
    plan: &FaultPlan,
    h_count: usize,
    s_count: usize,
    epoch: usize,
) -> Liveness {
    let mut live = Liveness::all(h_count);
    for e in 0..epoch {
        for d in 0..h_count {
            if !live.is_alive(d) && plan.rejoin_epoch(d) == Some(e) {
                live.mark_alive(d);
            }
        }
        for g in e * s_count..(e + 1) * s_count {
            for h in 0..h_count {
                if live.is_alive(h) && plan.crash_round(h) == Some(g) {
                    live.mark_dead(h);
                }
            }
        }
    }
    live
}

/// The epoch at which dead `host` will be re-admitted, if the plan
/// schedules one the cluster will actually reach: strictly after the
/// crash (when its round is known), within this run's epochs, and not
/// beyond a whole-cluster kill that fires first.
fn readmission_epoch(
    plan: &FaultPlan,
    host: usize,
    crashed_g: Option<usize>,
    start_epoch: usize,
    epochs: usize,
    s_count: usize,
) -> Option<usize> {
    let e = plan.rejoin_epoch(host)?;
    if e >= epochs || e < start_epoch {
        return None;
    }
    if let Some(g) = crashed_g {
        if e * s_count <= g {
            return None;
        }
    }
    if let Some(k) = plan.kill_after_epoch {
        if k + 1 < epochs && k >= start_epoch && e > k {
            return None;
        }
    }
    Some(e)
}

/// Dormancy's wake-up call: blocks until the adopter streams the
/// partition state for the boundary of `e_rejoin`, registers this host
/// alive, and returns the restored `(replica, rng, processed, live)` —
/// `live` being the shared deterministic view *after* this host's own
/// re-admission (other same-boundary rejoiners are folded in by the
/// epoch-top block the caller re-enters).
fn await_readmission(
    ctx: &HostCtx,
    h_count: usize,
    s_count: usize,
    e_rejoin: usize,
    n_words: usize,
    dim: usize,
) -> Result<(ModelReplica, Xoshiro256, u64, Liveness), ClusterError> {
    let pre = liveness_before_epoch(ctx.plan(), h_count, s_count, e_rejoin);
    let adopter = pre
        .adopter_of(ctx.host)
        .expect("dormant host has an adopter");
    let shape = vec![(n_words, dim); 2];
    let (rng_state, processed, layers) = ctx.recv_partition_state(adopter, &shape)?;
    counters::bump(counters::RECOVERED_REJOIN);
    let mut live = pre;
    live.mark_alive(ctx.host);
    Ok((
        ModelReplica::new(layers),
        Xoshiro256::from_state(rng_state),
        processed,
        live,
    ))
}

/// The distributed trainer on the threaded cluster engine.
pub struct ThreadedTrainer {
    /// Hyperparameters.
    pub params: Hyperparams,
    /// Cluster configuration (all three [`SyncPlan`]s are supported).
    pub config: DistConfig,
    faults: FaultPlan,
    cluster: ClusterConfig,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
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
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
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
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every;
        self
    }

    /// Resumes from the newest checkpoint in the configured directory
    /// (no-op when the directory has none).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Trains on one thread per host. Returns the canonical model
    /// (assembled block-wise from each partition's effective master, so
    /// PullModel's deliberately divergent mirrors don't matter) or the
    /// first cluster-fabric error.
    pub fn train(&self, corpus: &Corpus, vocab: &Vocabulary) -> Result<TrainResult, ClusterError> {
        let p = &self.params;
        let cfg = &self.config;
        let h_count = cfg.n_hosts;
        let s_count = cfg.sync_rounds;
        let n_words = vocab.len();
        // Degrade mode rewrites qualifying partition specs into crash +
        // rejoin pairs for the dormant side before the fabric spawns
        // (mirroring the simulator exactly — see
        // [`FaultPlan::degrade_partitions`]); every host and the fabric
        // then run the established crash/rejoin machinery on the single
        // effective plan. Non-qualifying specs stay and stall.
        let degraded_plan;
        let plan: &FaultPlan = if cfg.on_partition == OnPartition::Degrade {
            let (eff, converted) = self
                .faults
                .degrade_partitions(cfg.max_stale_rounds, cfg.sync_rounds);
            for spec in &converted {
                counters::bump(counters::INJECTED_PARTITION);
                counters::bump(counters::DETECTED_PARTITION);
                if spec.to_round.div_ceil(cfg.sync_rounds.max(1)) < p.epochs {
                    counters::bump(counters::RECOVERED_HEAL);
                }
            }
            degraded_plan = eff;
            &degraded_plan
        } else {
            &self.faults
        };
        let faults_on = !plan.is_inert();
        let wall_start = Instant::now();

        let setup = TrainSetup::new(vocab, p);
        let init = Word2VecModel::init(n_words, p.dim, p.seed);
        let root = SplitMix64::new(p.seed);
        let schedule = LrSchedule::new(
            p.alpha,
            p.min_alpha_frac,
            corpus.total_tokens() as u64,
            p.epochs,
        );
        let sync_cfg = SyncConfig {
            plan: cfg.plan,
            combiner: cfg.combiner,
        };
        let fingerprint = Checkpoint::fingerprint_of(p, cfg);

        // Resume: the coordinator loads and validates once, before any
        // thread spawns; every host restores from the same snapshot.
        let resume_ckpt: Option<Checkpoint> = if self.resume {
            let dir = self
                .checkpoint_dir
                .as_ref()
                .expect("resume requires a checkpoint directory");
            let resume_point = Checkpoint::resume_point(dir, fingerprint)
                .unwrap_or_else(|e| panic!("resuming from {}: {e}", dir.display()));
            resume_point.inspect(|_| counters::bump(counters::RECOVERED_RESUME))
        } else {
            None
        };
        let start_epoch = resume_ckpt.as_ref().map_or(0, |c| c.epoch + 1);
        let resumed_from = resume_ckpt.as_ref().map(|_| start_epoch);
        let killed = plan
            .kill_after_epoch
            .is_some_and(|e| e + 1 < p.epochs && e >= start_epoch);

        // Checkpoint rendezvous mailbox: live hosts deposit, the lowest
        // alive host assembles and writes, the second barrier releases
        // everyone back into the epoch loop.
        let deposits: Mutex<Vec<Option<HostSnapshot>>> =
            Mutex::new((0..h_count).map(|_| None).collect());
        // A crashing host leaves its tallies here so checkpoints written
        // while it is dead still account for its pre-crash work (the
        // simulator's global accumulators keep it implicitly). Cleared on
        // re-admission: from then on the host's own counters carry it.
        let orphans: Mutex<Vec<Option<(CommStats, u64)>>> =
            Mutex::new((0..h_count).map(|_| None).collect());
        let ckpt_dir = self.checkpoint_dir.as_deref();
        let ckpt_every = self.checkpoint_every;
        let resume_ckpt = &resume_ckpt;
        let deposits_ref = &deposits;
        let orphans_ref = &orphans;

        let outcomes = run_cluster_with(
            h_count,
            plan.clone(),
            self.cluster,
            |ctx| -> Result<HostOutcome, ClusterError> {
                let h = ctx.host;
                let train_ctx = setup.ctx(p);
                let shard = corpus.partition(h, h_count);
                let mut replica = ModelReplica::new(vec![init.syn0.clone(), init.syn1neg.clone()]);
                let mut rng = Xoshiro256::new(root.derive(HOST_RNG_BASE + h as u64));
                let mut processed = 0u64;
                let mut stats = CommStats::default();
                let mut pairs = 0u64;
                let mut scratch = MinibatchScratch::new();
                let mut sync_scratch = SyncScratch::new();
                // Per-host wire-protocol state (memo caches / delta
                // shadows). Holds this host's sender keys
                // (self→*) and receiver keys (*→self); epoch-scoped via
                // `begin_epoch` at the loop top, which also covers rejoin
                // re-entry, so payload-form decisions match the
                // simulator's exactly.
                let mut wire = WireState::for_mode(cfg.wire);
                let mut live = Liveness::all(h_count);
                let mut wards: Vec<Ward> = Vec::new();
                let mut epoch = start_epoch;
                // Set when this host just came back from dormancy: forces
                // the epoch-top ward migration even if it is the only
                // rejoiner at the boundary.
                let mut pending_migration = false;

                if let Some(ckpt) = resume_ckpt.as_ref() {
                    for (d, &alive) in ckpt.alive.iter().enumerate() {
                        if !alive {
                            live.mark_dead(d);
                        }
                    }
                    if !ckpt.alive[h] {
                        // Dead at the checkpoint: the crash was already
                        // counted by the run that wrote it. Resign
                        // quietly, then either wait out dormancy until a
                        // scheduled re-admission or exit for good.
                        ctx.resign();
                        let Some(e_rejoin) =
                            readmission_epoch(ctx.plan(), h, None, start_epoch, p.epochs, s_count)
                        else {
                            return Ok(HostOutcome {
                                crashed: true,
                                layers: Vec::new(),
                                stats,
                                pairs,
                            });
                        };
                        let (r, g, t, l) =
                            await_readmission(&ctx, h_count, s_count, e_rejoin, n_words, p.dim)?;
                        (replica, rng, processed, live) = (r, g, t, l);
                        wards.clear();
                        pending_migration = true;
                        ctx.resync_seq(
                            phases_per_round(cfg.plan)
                                * ((e_rejoin - start_epoch) * s_count) as u64,
                        );
                        epoch = e_rejoin;
                    } else {
                        replica = ModelReplica::new(ckpt.layers[h].clone());
                        rng = Xoshiro256::from_state(ckpt.rng_states[h]);
                        processed = ckpt.processed[h];
                        // Reconstruct wards the way the simulator
                        // reconstructs its adoption map: both engines keep
                        // the map equal to `adopter_of` at every boundary,
                        // so the restored liveness view determines them.
                        // No adopt counter — the original run counted it.
                        for d in 0..h_count {
                            if live.is_alive(d) || live.adopter_of(d) != Some(h) {
                                continue;
                            }
                            wards.push(Ward {
                                host: d,
                                rng: Xoshiro256::from_state(ckpt.rng_states[d]),
                                processed: ckpt.processed[d],
                            });
                        }
                        wards.sort_by_key(|w| w.host);
                    }
                }

                'epochs: while epoch < p.epochs {
                    wire.begin_epoch();
                    // ---- Epoch-boundary re-admission (rejoin=H@E). ----
                    if faults_on {
                        let mut someone_rejoined = false;
                        for d in 0..h_count {
                            if live.is_alive(d) || ctx.plan().rejoin_epoch(d) != Some(epoch) {
                                continue;
                            }
                            if let Some(pos) = wards.iter().position(|w| w.host == d) {
                                // This host is the adopter: stream the
                                // partition back and release the ward. The
                                // send blocks for the rejoiner's ACK, which
                                // it sends only after re-registering alive —
                                // so the next barrier already counts it.
                                let ward = wards.remove(pos);
                                let sent = ctx.send_partition_state(
                                    d,
                                    ward.rng.state(),
                                    ward.processed,
                                    &replica.layers,
                                )?;
                                gw2v_obs::add("gluon.state_transfer_bytes", sent);
                            }
                            live.mark_alive(d);
                            someone_rejoined = true;
                        }
                        if someone_rejoined || pending_migration {
                            pending_migration = false;
                            // Mirror the simulator's adoption-map
                            // re-evaluation: a rejoin can change effective
                            // masters, migrating a ward to a new holder —
                            // which restarts it on a fresh recovery stream
                            // at its RNG-free recomputed schedule position.
                            wards.retain(|w| live.adopter_of(w.host) == Some(h));
                            for d in 0..h_count {
                                if live.is_alive(d)
                                    || live.adopter_of(d) != Some(h)
                                    || wards.iter().any(|w| w.host == d)
                                {
                                    continue;
                                }
                                counters::bump(counters::RECOVERED_ADOPT);
                                wards.push(Ward {
                                    host: d,
                                    rng: Xoshiro256::new(root.derive(RECOVERY_RNG_BASE + d as u64)),
                                    processed: processed_at(
                                        &corpus.partition(d, h_count),
                                        epoch,
                                        0,
                                        s_count,
                                    ),
                                });
                            }
                            wards.sort_by_key(|w| w.host);
                        }
                    }
                    for s in 0..s_count {
                        let g = epoch * s_count + s;
                        // Partition blocking is round-indexed: tell the
                        // fabric which global round the coming phases
                        // belong to.
                        ctx.begin_round(g);
                        if ctx.plan().crash_round(h) == Some(g) {
                            // Orphan the tallies *before* announcing the
                            // death: await_death releases survivors, and
                            // the next checkpoint writer must already see
                            // this record.
                            orphans_ref.lock().expect("orphan lock")[h] = Some((stats, pairs));
                            ctx.mark_self_dead();
                            let Some(e_rejoin) = readmission_epoch(
                                ctx.plan(),
                                h,
                                Some(g),
                                start_epoch,
                                p.epochs,
                                s_count,
                            ) else {
                                return Ok(HostOutcome {
                                    crashed: true,
                                    layers: Vec::new(),
                                    stats,
                                    pairs,
                                });
                            };
                            // Dormancy: wait for the adopter's state
                            // transfer at epoch `e_rejoin`'s boundary, take
                            // the partition back, resynchronize the phase
                            // counter, and re-enter the epoch loop there.
                            let (r, g2, t, l) = await_readmission(
                                &ctx, h_count, s_count, e_rejoin, n_words, p.dim,
                            )?;
                            (replica, rng, processed, live) = (r, g2, t, l);
                            // Alive again: this host's own counters carry
                            // its pre-crash work from here on.
                            orphans_ref.lock().expect("orphan lock")[h] = None;
                            wards.clear();
                            pending_migration = true;
                            ctx.resync_seq(
                                phases_per_round(cfg.plan)
                                    * ((e_rejoin - start_epoch) * s_count) as u64,
                            );
                            epoch = e_rejoin;
                            continue 'epochs;
                        }
                        // Peers scheduled to die this round: confirm each
                        // death through the runtime registry, then degrade
                        // the deterministic view every survivor shares.
                        let mut someone_died = false;
                        for peer in 0..h_count {
                            if peer != h
                                && live.is_alive(peer)
                                && ctx.plan().crash_round(peer) == Some(g)
                            {
                                ctx.await_death(peer);
                                live.mark_dead(peer);
                                someone_died = true;
                            }
                        }
                        if someone_died {
                            for d in 0..h_count {
                                if live.is_alive(d)
                                    || live.adopter_of(d) != Some(h)
                                    || wards.iter().any(|w| w.host == d)
                                {
                                    continue;
                                }
                                counters::bump(counters::RECOVERED_ADOPT);
                                wards.push(Ward {
                                    host: d,
                                    rng: Xoshiro256::new(root.derive(RECOVERY_RNG_BASE + d as u64)),
                                    processed: processed_at(
                                        &corpus.partition(d, h_count),
                                        epoch,
                                        s,
                                        s_count,
                                    ),
                                });
                            }
                            wards.sort_by_key(|w| w.host);
                        }
                        ctx.maybe_straggle(g);

                        // Own chunk first, then adopted chunks in dead-host
                        // order — the simulator applies updates to this
                        // replica in exactly this sequence.
                        for sentence in shard.round_chunk(s, s_count).sentences() {
                            let alpha = schedule.alpha_for_host(processed, h_count);
                            let mut store = ReplicaStore {
                                replica: &mut replica,
                            };
                            pairs += train_sentence_mode(
                                cfg.sgns,
                                &mut store,
                                sentence,
                                alpha,
                                &train_ctx,
                                &mut rng,
                                &mut scratch,
                            );
                            processed += sentence.len() as u64;
                        }
                        for w in wards.iter_mut() {
                            let ward_shard = corpus.partition(w.host, h_count);
                            for sentence in ward_shard.round_chunk(s, s_count).sentences() {
                                let alpha = schedule.alpha_for_host(w.processed, h_count);
                                let mut store = ReplicaStore {
                                    replica: &mut replica,
                                };
                                pairs += train_sentence_mode(
                                    cfg.sgns,
                                    &mut store,
                                    sentence,
                                    alpha,
                                    &train_ctx,
                                    &mut w.rng,
                                    &mut scratch,
                                );
                                w.processed += sentence.len() as u64;
                            }
                        }

                        // ---- PullModel inspection of the *next* round:
                        // replay its edge generation (own chunk plus
                        // wards) against a recorder with cloned RNGs —
                        // this host's rows of the access-set matrix, same
                        // replay the simulator runs (§4.4). ----
                        let access = if cfg.plan == SyncPlan::PullModel {
                            let next = if s + 1 < s_count {
                                Some(s + 1)
                            } else if epoch + 1 < p.epochs {
                                Some(0)
                            } else {
                                None
                            };
                            let mut sets = AccessSets::new(h_count, 2, n_words);
                            if let Some(next_s) = next {
                                let mut recorder = RecordingStore::new(n_words, p.dim);
                                let mut probe_rng = rng;
                                for sentence in shard.round_chunk(next_s, s_count).sentences() {
                                    train_sentence_mode(
                                        cfg.sgns,
                                        &mut recorder,
                                        sentence,
                                        0.0,
                                        &train_ctx,
                                        &mut probe_rng,
                                        &mut scratch,
                                    );
                                }
                                for w in wards.iter() {
                                    let ward_shard = corpus.partition(w.host, h_count);
                                    let mut ward_rng = w.rng;
                                    for sentence in
                                        ward_shard.round_chunk(next_s, s_count).sentences()
                                    {
                                        train_sentence_mode(
                                            cfg.sgns,
                                            &mut recorder,
                                            sentence,
                                            0.0,
                                            &train_ctx,
                                            &mut ward_rng,
                                            &mut scratch,
                                        );
                                    }
                                }
                                *sets.get_mut(h, 0) = recorder.syn0_access;
                                *sets.get_mut(h, 1) = recorder.syn1_access;
                            }
                            Some(sets)
                        } else {
                            None
                        };

                        sync_round_threaded_degraded(
                            &ctx,
                            &mut replica,
                            &sync_cfg,
                            access.as_ref(),
                            &mut stats,
                            &mut sync_scratch,
                            &live,
                            &mut wire,
                        )?;
                    }

                    // ---- Epoch-boundary checkpoint rendezvous. ----
                    let kill_here = faults_on && ctx.plan().kill_after_epoch == Some(epoch);
                    if let Some(dir) = ckpt_dir {
                        if (epoch + 1).is_multiple_of(ckpt_every)
                            || epoch + 1 == p.epochs
                            || kill_here
                        {
                            {
                                let mut slots = deposits_ref.lock().expect("deposit lock");
                                slots[h] = Some(HostSnapshot {
                                    layers: replica.layers.clone(),
                                    rng: rng.state(),
                                    processed,
                                    stats,
                                    pairs,
                                    wards: wards
                                        .iter()
                                        .map(|w| (w.host, w.rng.state(), w.processed))
                                        .collect(),
                                });
                            }
                            ctx.barrier_wait();
                            if (0..h_count).find(|&x| live.is_alive(x)) == Some(h) {
                                let mut slots = deposits_ref.lock().expect("deposit lock");
                                let orphan_slots = orphans_ref.lock().expect("orphan lock");
                                let ckpt = assemble_checkpoint(
                                    fingerprint,
                                    epoch,
                                    h_count,
                                    &live,
                                    &slots,
                                    &orphan_slots,
                                    resume_ckpt.as_ref(),
                                );
                                drop(orphan_slots);
                                ckpt.save_in(dir)
                                    .unwrap_or_else(|e| panic!("writing checkpoint: {e}"));
                                for slot in slots.iter_mut() {
                                    *slot = None;
                                }
                            }
                            ctx.barrier_wait();
                        }
                    }
                    if ctx.plan().kill_after_epoch == Some(epoch) && epoch + 1 < p.epochs {
                        // Whole-cluster stop; the lowest alive host counts it.
                        if (0..h_count).find(|&x| live.is_alive(x)) == Some(h) {
                            counters::bump(counters::INJECTED_KILL);
                        }
                        break;
                    }
                    epoch += 1;
                }
                Ok(HostOutcome {
                    crashed: false,
                    layers: replica.layers,
                    stats,
                    pairs,
                })
            },
        );

        // Coordinator: merge host outcomes onto the resume base, then
        // assemble the canonical model block-wise from each partition's
        // effective master (for RepModel plans every survivor's replica
        // is already canonical; for PullModel only the masters are).
        let mut stats = resume_ckpt.as_ref().map(|c| c.stats).unwrap_or_default();
        let base_rounds = stats.rounds;
        let mut pairs_trained = resume_ckpt.as_ref().map_or(0, |c| c.pairs_trained);
        let mut rounds = 0u64;
        let mut final_live = Liveness::all(h_count);
        let mut host_layers: Vec<Option<Vec<FlatMatrix>>> = Vec::with_capacity(h_count);
        for (h, outcome) in outcomes.into_iter().enumerate() {
            let outcome = outcome?;
            stats.merge(&outcome.stats);
            rounds = rounds.max(outcome.stats.rounds);
            pairs_trained += outcome.pairs;
            if outcome.crashed {
                final_live.mark_dead(h);
                host_layers.push(None);
            } else {
                host_layers.push(Some(outcome.layers));
            }
        }
        stats.rounds = base_rounds + rounds;
        // Dead hosts' replicas are never read by the block-wise assembly
        // (every effective master is alive); give them a survivor's
        // layers so the replica vector is uniformly shaped.
        let fallback = host_layers
            .iter()
            .flatten()
            .next()
            .expect("at least one host survives")
            .clone();
        let replicas: Vec<ModelReplica> = host_layers
            .into_iter()
            .map(|layers| ModelReplica::new(layers.unwrap_or_else(|| fallback.clone())))
            .collect();
        let mut it = assemble_canonical_live(&replicas, &final_live).into_iter();
        let model =
            Word2VecModel::from_layers(it.next().expect("syn0"), it.next().expect("syn1neg"));
        Ok(TrainResult {
            model,
            stats,
            compute_time: 0.0,
            comm_time: 0.0,
            wall_time: wall_start.elapsed().as_secs_f64(),
            pairs_trained,
            killed,
            resumed_from,
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
    h_count: usize,
    live: &Liveness,
    slots: &[Option<HostSnapshot>],
    orphans: &[Option<(CommStats, u64)>],
    base: Option<&Checkpoint>,
) -> Checkpoint {
    let mut stats = base.map(|c| c.stats).unwrap_or_default();
    let base_rounds = stats.rounds;
    let mut rounds = 0u64;
    let mut pairs_trained = base.map_or(0, |c| c.pairs_trained);
    // Dead hosts' pre-crash tallies, parked when they crashed this run.
    for (ostats, opairs) in orphans.iter().flatten() {
        stats.merge(ostats);
        pairs_trained += opairs;
    }
    let mut processed = vec![0u64; h_count];
    let mut rng_states = vec![[0u64; 4]; h_count];
    let mut layers: Vec<Option<Vec<FlatMatrix>>> = (0..h_count).map(|_| None).collect();
    for (h, slot) in slots.iter().enumerate() {
        let Some(snap) = slot else {
            assert!(!live.is_alive(h), "live host missed the rendezvous");
            continue;
        };
        stats.merge(&snap.stats);
        rounds = rounds.max(snap.stats.rounds);
        pairs_trained += snap.pairs;
        processed[h] = snap.processed;
        rng_states[h] = snap.rng;
        layers[h] = Some(snap.layers.clone());
        for &(d, state, proc) in &snap.wards {
            rng_states[d] = state;
            processed[d] = proc;
        }
    }
    stats.rounds = base_rounds + rounds;
    // Dead slots' layers are never read on resume (a dead host either
    // resigns or is overwritten by its adopter's state transfer at the
    // rejoin boundary); store the writer's view to keep the file shaped
    // exactly like the simulator's.
    let fallback = layers
        .iter()
        .flatten()
        .next()
        .expect("at least one live host deposits")
        .clone();
    Checkpoint {
        fingerprint,
        epoch,
        pairs_trained,
        compute_time: base.map_or(0.0, |c| c.compute_time),
        comm_time: base.map_or(0.0, |c| c.comm_time),
        processed,
        alive: (0..h_count).map(|h| live.is_alive(h)).collect(),
        rng_states,
        stats,
        layers: layers
            .into_iter()
            .map(|l| l.unwrap_or_else(|| fallback.clone()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::DistributedTrainer;
    use gw2v_combiner::CombinerKind;
    use gw2v_corpus::tokenizer::TokenizerConfig;
    use gw2v_corpus::vocab::VocabBuilder;
    use gw2v_gluon::cost::CostModel;

    fn corpus(n_sentences: usize) -> (Corpus, Vocabulary) {
        let mut text = String::new();
        for i in 0..n_sentences {
            match i % 3 {
                0 => text.push_str("a0 a1 a2 a3 a1 a2\n"),
                1 => text.push_str("b0 b1 b2 b3 b1 b2\n"),
                _ => text.push_str("c0 c1 a1 b1 c2 c0\n"),
            }
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

    fn cfg(n_hosts: usize, rounds: usize) -> DistConfig {
        DistConfig {
            n_hosts,
            sync_rounds: rounds,
            plan: SyncPlan::RepModelOpt,
            combiner: CombinerKind::ModelCombiner,
            cost: CostModel::infiniband_56g(),
            wire: gw2v_gluon::wire::WireMode::IdValue,
            sgns: crate::trainer_hogbatch::SgnsMode::PerPair,
            on_partition: gw2v_faults::OnPartition::Stall,
            max_stale_rounds: 8,
        }
    }

    #[test]
    fn faultless_threaded_matches_simulator_bitwise() {
        let (corpus, vocab) = corpus(90);
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let sim = DistributedTrainer::new(params.clone(), cfg(3, 2)).train(&corpus, &vocab);
        let thr = ThreadedTrainer::new(params, cfg(3, 2))
            .train(&corpus, &vocab)
            .expect("faultless cluster run");
        assert_eq!(sim.model, thr.model, "engines must agree bit-for-bit");
        assert_eq!(sim.pairs_trained, thr.pairs_trained);
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
        assert_eq!(sim.stats.rounds, thr.stats.rounds);
    }

    #[test]
    fn hogbatch_threaded_matches_simulator_bitwise() {
        // PullModel + HogBatch is the strictest combination: both the
        // training and the inspection-replay sites must dispatch to the
        // minibatch loop identically in both engines.
        let (corpus, vocab) = corpus(90);
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let dc = DistConfig {
            plan: SyncPlan::PullModel,
            sgns: crate::trainer_hogbatch::SgnsMode::HogBatch,
            ..cfg(3, 2)
        };
        let sim = DistributedTrainer::new(params.clone(), dc).train(&corpus, &vocab);
        let thr = ThreadedTrainer::new(params, dc)
            .train(&corpus, &vocab)
            .expect("hogbatch cluster run");
        assert_eq!(sim.model, thr.model, "engines must agree bit-for-bit");
        assert_eq!(sim.pairs_trained, thr.pairs_trained);
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
    }

    #[test]
    fn pull_model_threaded_matches_simulator_bitwise() {
        let (corpus, vocab) = corpus(90);
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let dc = DistConfig {
            plan: SyncPlan::PullModel,
            ..cfg(3, 2)
        };
        let sim = DistributedTrainer::new(params.clone(), dc).train(&corpus, &vocab);
        let thr = ThreadedTrainer::new(params, dc)
            .train(&corpus, &vocab)
            .expect("pull-model cluster run");
        assert_eq!(sim.model, thr.model, "engines must agree bit-for-bit");
        assert_eq!(sim.pairs_trained, thr.pairs_trained);
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
    }

    #[test]
    fn rejoined_host_matches_simulator_bitwise() {
        let (corpus, vocab) = corpus(90);
        let params = Hyperparams {
            epochs: 3,
            ..Hyperparams::test_scale()
        };
        let plan = FaultPlan::parse("seed=7,crash=1@1,rejoin=1@2").unwrap();
        let sim = DistributedTrainer::new(params.clone(), cfg(3, 2))
            .with_faults(plan.clone())
            .train(&corpus, &vocab);
        let thr = ThreadedTrainer::new(params, cfg(3, 2))
            .with_faults(plan)
            .train(&corpus, &vocab)
            .expect("rejoin cluster run");
        assert_eq!(sim.model, thr.model, "engines must agree bit-for-bit");
        assert_eq!(sim.pairs_trained, thr.pairs_trained);
        assert_eq!(sim.stats.total_bytes(), thr.stats.total_bytes());
    }
}
