//! The simulator's transport for the sync round.
//!
//! [`sync_round_degraded`] runs one full Gluon synchronization across
//! all host replicas, deterministically, within the calling thread: the
//! round `round.rs` drives for both engines, over in-process mailboxes.
//! An exchange is sender-major — each alive host in id order encodes its
//! letters, they reach their receivers' folds or applies at once, and
//! they are dropped before the next sender encodes, so one host's
//! outgoing payloads exist at a time. No frames and no wall clock: the
//! fault plan's attempt chain is drawn for every letter, as the threaded
//! transport draws it for every frame, fed to the receiver's inbox — the
//! one receiver rule of both engines — and priced with the round's
//! volume on a [`CostModel`] (docs/WIRE.md § engine parity says what the
//! two transports may differ in).
//!
//! Semantics (identical across plans — plans only change which payloads
//! cross the wire, paper §4.4):
//!
//! * every host touching a node contributes `delta = current − base`;
//! * deltas are folded at the master in host-id order with the
//!   configured combiner (for `Avg`, the divisor is the number of
//!   *touching* hosts, as in Gluon where only updated proxies join the
//!   reduction);
//! * `canonical = base + combined` replaces the master row and is
//!   broadcast to mirror replicas (all of them for RepModel plans; each
//!   host's next-round access set for PullModel).
//!
//! The module also keeps what both transports share but the protocol
//! does not define: the per-host scratch ([`SyncScratch`]) and the
//! canonical-model assembly ([`assemble_canonical_layers`]).

use crate::cost::{nak_backoff_secs, CostModel};
use crate::inbox::Inbox;
use crate::liveness::Liveness;
use crate::plan::{AccessSets, SyncConfig};
use crate::replica::ModelReplica;
use crate::round::{drive, Receives, Round, Sends, Transport};
use crate::threaded::{ClusterConfig, ClusterError};
use crate::volume::{CommStats, RoundVolume};
use crate::wire::{RowEncoder, WireState, FRAME_HEADER_BYTES};
use bytes::Bytes;
use gw2v_combiner::{CombineAccumulator, CombinerKind};
use gw2v_faults::{counters, Attempt, FaultPlan};
use gw2v_graph::partition::master_host;
use gw2v_obs::trace::Span;
use gw2v_util::bitvec::BitVec;
use gw2v_util::fvec::FlatMatrix;

/// Sentinel in [`NodeAccSlab::slot_of`]: no accumulator assigned.
const NO_SLOT: u32 = u32::MAX;

/// A recyclable pool of per-node [`CombineAccumulator`]s.
///
/// The reduce phase needs one accumulator per node touched this round —
/// a sparse subset of the graph. Earlier versions materialized
/// `Vec<Option<CombineAccumulator>>` over *all* nodes every round; this
/// slab instead keeps a dense pool of accumulators (sized by the
/// high-water mark of concurrently touched nodes) plus an O(1) node→slot
/// index, so steady-state rounds assign, fold, and release without
/// touching the heap. Slots are released in O(touched), not O(nodes).
#[derive(Debug, Default)]
pub(crate) struct NodeAccSlab {
    /// node id → pool index, [`NO_SLOT`] when unassigned. Sized `n_nodes`.
    slot_of: Vec<u32>,
    /// Reusable accumulators; `pool[..used]` are live this layer.
    pool: Vec<CombineAccumulator>,
    /// Nodes holding slots, for O(touched) release.
    touched: Vec<u32>,
    used: usize,
}

impl NodeAccSlab {
    /// Sizes the node→slot index (no-op when already `n_nodes` wide).
    pub(crate) fn ensure_nodes(&mut self, n_nodes: usize) {
        if self.slot_of.len() != n_nodes {
            debug_assert_eq!(self.used, 0, "resize mid-round");
            self.slot_of.clear();
            self.slot_of.resize(n_nodes, NO_SLOT);
        }
    }

    /// The accumulator for `node`, assigning (and recycling) a pool slot
    /// on the node's first touch this round.
    pub(crate) fn acc_mut(
        &mut self,
        node: u32,
        kind: CombinerKind,
        dim: usize,
    ) -> &mut CombineAccumulator {
        let slot = self.slot_of[node as usize];
        let idx = if slot == NO_SLOT {
            let idx = self.used;
            if idx == self.pool.len() {
                self.pool.push(CombineAccumulator::new(kind, dim));
            } else {
                self.pool[idx].reset(kind, dim);
            }
            self.slot_of[node as usize] = idx as u32;
            self.touched.push(node);
            self.used += 1;
            idx
        } else {
            slot as usize
        };
        &mut self.pool[idx]
    }

    /// Finishes `node`'s reduction into `out`; the slot stays assigned
    /// until [`NodeAccSlab::release_all`].
    pub(crate) fn finish_into(&mut self, node: u32, out: &mut [f32]) {
        let slot = self.slot_of[node as usize];
        assert_ne!(slot, NO_SLOT, "node {node} has no accumulator");
        self.pool[slot as usize].finish_into(out);
    }

    /// Returns every slot to the pool without deallocating.
    pub(crate) fn release_all(&mut self) {
        for &n in &self.touched {
            self.slot_of[n as usize] = NO_SLOT;
        }
        self.touched.clear();
        self.used = 0;
    }
}

/// One layer's share of a [`SyncScratch`].
#[derive(Debug)]
pub(crate) struct LayerScratch {
    /// Reduce accumulators for the rows this host masters.
    pub(crate) slab: NodeAccSlab,
    /// The rows this host reconciled (the RepModelOpt broadcast set).
    pub(crate) updated: BitVec,
    /// This round's touched rows by (effective) master, first-touch
    /// order within each list.
    pub(crate) touched_by_master: Vec<Vec<u32>>,
}

/// One host's reusable working memory for a sync round, in either
/// engine: per layer an accumulator slab, the updated-rows bit vector
/// and the touched rows sorted by master; the delta and combined row
/// buffers; and the one encoder every outgoing batch is staged in.
/// Constructed empty and sized on first use; after the first round on a
/// given model shape the stage/fold/apply path performs no steady-state
/// heap allocation (the `ModelCombinerPairwise` ablation combiner is the
/// documented exception — it buffers deltas internally). What a round
/// still allocates is the wire's: one buffer per payload.
#[derive(Debug, Default)]
pub struct SyncScratch {
    pub(crate) layers: Vec<LayerScratch>,
    pub(crate) delta: Vec<f32>,
    pub(crate) combined: Vec<f32>,
    pub(crate) staged: RowEncoder,
}

impl SyncScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the per-layer state for `replica`'s shape and `n_hosts`
    /// masters, and clears what the previous round left in it.
    pub(crate) fn fit(&mut self, replica: &ModelReplica, n_hosts: usize) {
        let n_nodes = replica.n_nodes();
        self.layers
            .resize_with(replica.n_layers(), || LayerScratch {
                slab: NodeAccSlab::default(),
                updated: BitVec::new(n_nodes),
                touched_by_master: Vec::new(),
            });
        for layer in &mut self.layers {
            layer.slab.ensure_nodes(n_nodes);
            if layer.updated.len() == n_nodes {
                layer.updated.clear_all();
            } else {
                layer.updated = BitVec::new(n_nodes);
            }
            layer.touched_by_master.resize_with(n_hosts, Vec::new);
            layer.touched_by_master.iter_mut().for_each(Vec::clear);
        }
    }
}

/// Runs one synchronization round over all replicas with every host
/// alive, the classic id+value wire and no faults, allocating its working
/// memory afresh; the global round is the one `stats` counts next.
///
/// `access` must be `Some` when `cfg.plan == PullModel`: for each host
/// and layer, the nodes that host will access in its *next* compute
/// round. Returns the round's per-host volume and adds to `stats`; delta
/// trackers are cleared on return. Callers that synchronize repeatedly
/// should hold their scratches across rounds in [`sync_round_degraded`]
/// — the same bits (pinned by tests below).
pub fn sync_round(
    replicas: &mut [ModelReplica],
    cfg: &SyncConfig,
    access: Option<&AccessSets>,
    stats: &mut CommStats,
) -> RoundVolume {
    let mut scratch: Vec<SyncScratch> = replicas.iter().map(|_| SyncScratch::new()).collect();
    let live = Liveness::all(replicas.len());
    let mut wire: Vec<WireState> = replicas.iter().map(|_| WireState::Classic).collect();
    let g = stats.rounds as usize;
    let none = FaultPlan::none();
    simulate(
        replicas,
        cfg,
        access,
        stats,
        &mut scratch,
        &live,
        &mut wire,
        &none,
        g,
    )
    .expect("the inert plan never gives up")
    .0
}

/// One payload in flight between two simulated hosts.
struct Letter {
    to: usize,
    layer: usize,
    payload: Bytes,
    value_only: bool,
}

/// What the fault plan cost one simulated round, as its mailboxes
/// counted it; all zero under the inert plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Resends {
    /// Letters handed over, each once.
    letters: u64,
    /// Frames beyond one per letter: a resend per withheld or corrupt
    /// attempt, and every second copy.
    frames: u64,
    /// NAK backoff the round waited out: per phase, the slowest
    /// receiver's.
    backoff_secs: f64,
}

/// The simulator's transport: every alive host in one thread, a phase
/// sender by sender in host-id order. A sender's letters reach their
/// receivers as soon as it has built them and are dropped before the
/// next sender encodes, so only one host's outgoing payloads exist at a
/// time.
struct Mailboxes<'a> {
    /// The fault plan, `None` when inert.
    faults: Option<&'a FaultPlan>,
    /// Per receiver, its inbox (none under the inert plan).
    inboxes: Vec<Inbox<()>>,
    /// Per receiver, the longest NAK backoff it waited out for one
    /// letter of the current phase.
    stall: Vec<f64>,
    resends: Resends,
}

impl Mailboxes<'_> {
    /// Feeds the threaded transport's chain of attempts for letter `l`
    /// from `from` in phase `seq` of global round `g`
    /// ([`FaultPlan::attempt`]) to its receiver's inbox until one is
    /// delivered, on the letter's own clock: a withheld attempt is
    /// silence until the slot's deadline. Counts the frames that took
    /// and the NAK backoff (at the transport's default base delay) the
    /// receiver waited out for the attempts a partition withheld.
    fn deliver(
        &mut self,
        plan: &FaultPlan,
        g: usize,
        seq: u64,
        from: usize,
        l: &Letter,
    ) -> Result<(), ClusterError> {
        // A deferred send changes per-channel delivery order, not bytes
        // or time.
        plan.reorder(from, l.to, l.layer, seq);
        let base = ClusterConfig::default().nak_delay.as_secs_f64();
        let frame_len = FRAME_HEADER_BYTES + l.payload.len();
        let inbox = &mut self.inboxes[l.to];
        let (layer, mut now, mut wait) = (l.layer, 0.0, 0.0);
        self.resends.letters += 1;
        for attempt in 0.. {
            match plan.attempt(from, l.to, layer, seq, g, attempt, frame_len) {
                Attempt::Partitioned => {
                    wait += nak_backoff_secs(plan, base, l.to, seq, attempt);
                    now = inbox.silence(from, layer)?;
                }
                Attempt::Dropped => now = inbox.silence(from, layer)?,
                Attempt::Flipped(_) => inbox.frame(from, layer, seq, None, now)?,
                Attempt::Delivered { twice } => {
                    inbox.frame(from, layer, seq, Some(()), now)?;
                    if twice {
                        inbox.frame(from, layer, seq, Some(()), now)?;
                        self.resends.frames += 1;
                    }
                    break;
                }
            }
            counters::bump(counters::RECOVERED_RESEND);
            self.resends.frames += 1;
        }
        let longest = &mut self.stall[l.to];
        *longest = longest.max(wait);
        Ok(())
    }
}

impl Transport for Mailboxes<'_> {
    fn span(&self) -> Span {
        gw2v_obs::span("gluon.sync")
    }

    fn exchange(
        &mut self,
        round: &mut Round<'_>,
        seq: u64,
        send: &mut Sends<'_>,
        recv: &mut Receives<'_>,
    ) -> Result<(), ClusterError> {
        let hosts = round.hosts();
        let n_layers = round.replicas[0].n_layers();
        for inbox in &mut self.inboxes {
            inbox.open(seq, round.live, n_layers)?;
        }
        for &from in &hosts {
            let mut outbox = Vec::new();
            send(
                &mut round.host(from),
                &mut |to, layer, payload, value_only| {
                    outbox.push(Letter {
                        to,
                        layer,
                        payload,
                        value_only,
                    });
                    Ok(())
                },
            )?;
            if let Some(plan) = self.faults {
                for letter in &outbox {
                    self.deliver(plan, round.g, seq, from, letter)?;
                }
            }
            for &to in &hosts {
                let mut mine = outbox
                    .iter()
                    .filter(|l| l.to == to)
                    .map(|l| (l.layer, &l.payload, l.value_only));
                recv(&mut round.host(to), from, &mut mine)?;
            }
        }
        // Receivers wait concurrently, phases in turn.
        let slowest = self.stall.iter().fold(0.0, |a: f64, &b| a.max(b));
        self.resends.backoff_secs += slowest;
        self.stall.fill(0.0);
        Ok(())
    }

    /// Phases already run in turn.
    fn barrier(&mut self) {}
}

/// The simulated round [`sync_round_degraded`] prices: the round and
/// what its mailboxes counted of the fault plan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate(
    replicas: &mut [ModelReplica],
    cfg: &SyncConfig,
    access: Option<&AccessSets>,
    stats: &mut CommStats,
    scratch: &mut [SyncScratch],
    live: &Liveness,
    wire: &mut [WireState],
    faults: &FaultPlan,
    g: usize,
) -> Result<(RoundVolume, Resends), ClusterError> {
    let n_hosts = replicas.len();
    assert!(n_hosts > 0);
    assert_eq!(live.n_hosts(), n_hosts, "liveness view size mismatch");
    assert_eq!(scratch.len(), n_hosts, "one scratch per host");
    assert_eq!(wire.len(), n_hosts, "one wire state per host");
    let faults = (!faults.is_inert()).then_some(faults);
    let inboxes = faults.map_or_else(Vec::new, |plan| {
        let inbox = |h| Inbox::new(h, plan, ClusterConfig::default());
        (0..n_hosts).map(inbox).collect()
    });
    let mut mailboxes = Mailboxes {
        faults,
        inboxes,
        stall: vec![0.0; n_hosts],
        resends: Resends::default(),
    };
    let mut round = Round {
        cfg,
        live,
        access,
        g,
        first: 0,
        replicas,
        wire,
        scratch,
        stats,
        volume: RoundVolume::new(n_hosts),
    };
    drive(&mut mailboxes, &mut round)?;
    Ok((round.volume, mailboxes.resends))
}

/// What a simulated round costs on `cost`'s fabric: its volume, plus
/// each extra frame at the round's average letter and one latency, plus
/// the NAK backoff.
fn price(cost: &CostModel, volume: &RoundVolume, resends: &Resends) -> f64 {
    let mut secs = cost.round_time(volume);
    if resends.frames > 0 {
        let avg_bytes = volume.total_bytes() / resends.letters;
        secs += (resends.frames * avg_bytes) as f64 / cost.bandwidth_bytes_per_sec
            + resends.frames as f64 * cost.latency_sec;
    }
    secs + resends.backoff_secs
}

/// One synchronization round of the simulator in global round `g`,
/// under a liveness view, wire mode and fault plan, reusing `scratch`.
///
/// Every host has its own entry of `replicas`, `scratch` and `wire`,
/// indexed by host id (a wire state is never shared). Dead hosts
/// contribute no deltas, receive no broadcasts and keep their trackers;
/// their adopters reconcile their master blocks
/// ([`Liveness::effective_master`]). Each letter draws the threaded
/// transport's attempt chain under `faults` ([`FaultPlan::attempt`])
/// into its receiver's inbox: it arrives whole, so no plan moves a bit,
/// or the inbox gives up on it with [`ClusterError::RetriesExhausted`]
/// where the threaded engine would.
///
/// `stats` accumulates every host's sends. Returns the round's per-host
/// sent and received bytes and its modeled seconds on `cost`'s fabric:
/// the volume's time, plus the extra frames and NAK backoff the fault
/// plan cost.
#[allow(clippy::too_many_arguments)]
pub fn sync_round_degraded(
    replicas: &mut [ModelReplica],
    cfg: &SyncConfig,
    access: Option<&AccessSets>,
    stats: &mut CommStats,
    scratch: &mut [SyncScratch],
    live: &Liveness,
    wire: &mut [WireState],
    faults: &FaultPlan,
    g: usize,
    cost: &CostModel,
) -> Result<(RoundVolume, f64), ClusterError> {
    let (volume, resends) = simulate(replicas, cfg, access, stats, scratch, live, wire, faults, g)?;
    let secs = price(cost, &volume, &resends);
    Ok((volume, secs))
}

/// Assembles the canonical model (each node's master row) into a fresh
/// set of layer matrices — the trained model a user would save.
pub fn assemble_canonical(replicas: &[ModelReplica]) -> Vec<FlatMatrix> {
    assemble_canonical_live(replicas, &Liveness::all(replicas.len()))
}

/// [`assemble_canonical`] under a liveness view: rows mastered by dead
/// hosts are read from their adopters' replicas instead.
pub fn assemble_canonical_live(replicas: &[ModelReplica], live: &Liveness) -> Vec<FlatMatrix> {
    assemble_canonical_layers(live, |h| &replicas[h].layers)
}

/// The canonical layers of the hosts of `live`, host `h` holding
/// `layers(h)`: each node's row from its effective master. Replicas and
/// checkpoints both assemble through here, so a served checkpoint holds
/// the trainer's model bit for bit.
pub fn assemble_canonical_layers<'a>(
    live: &Liveness,
    layers: impl Fn(usize) -> &'a [FlatMatrix],
) -> Vec<FlatMatrix> {
    let first = layers(0);
    let n_nodes = first[0].rows();
    let owners: Vec<usize> = (0..n_nodes as u32)
        .map(|node| live.effective_master(master_host(n_nodes, live.n_hosts(), node)))
        .collect();
    (0..first.len())
        .map(|layer| {
            let mut m = FlatMatrix::zeros(n_nodes, first[layer].dim());
            for (node, &owner) in owners.iter().enumerate() {
                m.row_mut(node)
                    .copy_from_slice(layers(owner)[layer].row(node));
            }
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SyncPlan;
    use crate::wire::entry_bytes;

    fn make_replicas(n_hosts: usize, n_nodes: usize, dim: usize) -> Vec<ModelReplica> {
        (0..n_hosts)
            .map(|_| {
                let mut m0 = FlatMatrix::zeros(n_nodes, dim);
                let mut m1 = FlatMatrix::zeros(n_nodes, dim);
                for r in 0..n_nodes {
                    for d in 0..dim {
                        m0.row_mut(r)[d] = (r * dim + d) as f32;
                        m1.row_mut(r)[d] = -((r * dim + d) as f32);
                    }
                }
                ModelReplica::new(vec![m0, m1])
            })
            .collect()
    }

    fn cfg(plan: SyncPlan, combiner: CombinerKind) -> SyncConfig {
        SyncConfig { plan, combiner }
    }

    #[test]
    fn sum_combiner_adds_concurrent_deltas() {
        let mut reps = make_replicas(3, 6, 2);
        // Hosts 0 and 1 both bump node 5 (owned by host 2) on layer 0.
        reps[0].row_mut(0, 5)[0] += 1.0;
        reps[1].row_mut(0, 5)[0] += 2.0;
        let base = 5.0 * 2.0; // value at (5,0) = r*dim+d = 10
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        for h in 0..3 {
            assert_eq!(reps[h].row(0, 5)[0], base + 3.0, "host {h}");
        }
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.reduce_msgs, 2);
        // Broadcast to 2 mirrors.
        assert_eq!(stats.broadcast_msgs, 2);
    }

    #[test]
    fn avg_divides_by_touching_hosts_only() {
        let mut reps = make_replicas(4, 4, 1);
        reps[0].row_mut(0, 3)[0] += 4.0;
        reps[1].row_mut(0, 3)[0] += 2.0;
        // Hosts 2, 3 do not touch node 3.
        let base = 3.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Avg),
            None,
            &mut stats,
        );
        for h in 0..4 {
            assert_eq!(reps[h].row(0, 3)[0], base + 3.0, "avg of 4 and 2");
        }
    }

    #[test]
    fn master_local_touch_reconciles_with_remote() {
        let mut reps = make_replicas(2, 2, 1);
        // Node 0 owned by host 0; both hosts touch it.
        reps[0].row_mut(0, 0)[0] += 10.0;
        reps[1].row_mut(0, 0)[0] += 20.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        // base 0.0, combined = 30.
        assert_eq!(reps[0].row(0, 0)[0], 30.0);
        assert_eq!(reps[1].row(0, 0)[0], 30.0);
    }

    #[test]
    fn layers_synchronize_independently() {
        let mut reps = make_replicas(2, 4, 2);
        reps[0].row_mut(0, 1)[0] += 1.0;
        reps[1].row_mut(1, 2)[1] += 5.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        // Layer 0 node 1 synced.
        assert_eq!(reps[1].row(0, 1)[0], reps[0].row(0, 1)[0]);
        // Layer 1 node 2 synced.
        assert_eq!(reps[0].row(1, 2)[1], reps[1].row(1, 2)[1]);
        // Unrelated cells untouched.
        assert_eq!(reps[0].row(1, 1)[0], -(1.0 * 2.0));
    }

    #[test]
    fn plans_produce_identical_models() {
        use gw2v_util::rng::{Rng64, Xoshiro256};
        let combiner = CombinerKind::ModelCombiner;
        let run = |plan: SyncPlan| -> Vec<FlatMatrix> {
            let mut reps = make_replicas(4, 12, 3);
            let mut stats = CommStats::default();
            let mut rng = Xoshiro256::new(7);
            for _round in 0..5 {
                // Deterministic pseudo-random touches per host.
                let mut access = AccessSets::new(4, 2, 12);
                for h in 0..4 {
                    for _ in 0..6 {
                        let layer = rng.index(2);
                        let node = rng.index(12) as u32;
                        let bump = rng.next_f32() - 0.5;
                        reps[h].row_mut(layer, node)[rng.index(3)] += bump;
                    }
                }
                // Access sets for the *next* round must cover whatever the
                // next round touches; since touches are random we declare
                // everything accessed (superset is always safe for Pull).
                for h in 0..4 {
                    for l in 0..2 {
                        access.get_mut(h, l).set_all();
                    }
                }
                let cfg = cfg(plan, combiner);
                sync_round(&mut reps, &cfg, Some(&access), &mut stats);
            }
            assemble_canonical(&reps)
        };
        let opt = run(SyncPlan::RepModelOpt);
        let naive = run(SyncPlan::RepModelNaive);
        let pull = run(SyncPlan::PullModel);
        assert_eq!(opt, naive, "Naive and Opt must train identically");
        assert_eq!(opt, pull, "Pull and Opt must train identically");
    }

    #[test]
    fn volume_opt_leq_naive() {
        let touch = |reps: &mut Vec<ModelReplica>| {
            reps[0].row_mut(0, 1)[0] += 1.0;
            reps[2].row_mut(1, 5)[0] += 1.0;
        };
        let mut naive_reps = make_replicas(4, 16, 4);
        let mut opt_reps = make_replicas(4, 16, 4);
        touch(&mut naive_reps);
        touch(&mut opt_reps);
        let mut s_naive = CommStats::default();
        let mut s_opt = CommStats::default();
        let v_naive = sync_round(
            &mut naive_reps,
            &cfg(SyncPlan::RepModelNaive, CombinerKind::Sum),
            None,
            &mut s_naive,
        );
        let v_opt = sync_round(
            &mut opt_reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut s_opt,
        );
        assert!(v_opt.total_bytes() < v_naive.total_bytes());
        assert!(s_opt.total_bytes() < s_naive.total_bytes());
        // Naive ships the whole model each way regardless of touches:
        // reduce = H*(N - own block) rows, broadcast same.
        let expected_rows = 4 * (16 - 4) as u64; // per layer, per direction
        let ebytes = entry_bytes(4) as u64;
        assert_eq!(s_naive.reduce_bytes, 2 * expected_rows * ebytes);
        assert_eq!(s_naive.broadcast_bytes, 2 * expected_rows * ebytes);
    }

    #[test]
    fn pull_ships_access_set_not_updates() {
        let mut reps = make_replicas(2, 8, 2);
        // Host 0 touches node 7 (owned by host 1).
        reps[0].row_mut(0, 7)[0] += 1.0;
        // Next round host 0 will access nodes 0..4 on layer 0 — note node 7
        // is NOT accessed, and nodes 0..4 were NOT updated.
        let mut access = AccessSets::new(2, 2, 8);
        for n in 0..4 {
            access.get_mut(0, 0).set(n);
        }
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::PullModel, CombinerKind::Sum),
            Some(&access),
            &mut stats,
        );
        // Reduce shipped the one touched mirror row.
        assert_eq!(stats.reduce_msgs, 1);
        // Broadcast shipped exactly the accessed-but-remote rows: nodes
        // 0..4 are owned by host 0 itself (block 0..4 of 8 at 2 hosts), so
        // nothing crosses the wire.
        assert_eq!(stats.broadcast_msgs, 0);
        // Canonical master (host 1) still got the update.
        assert_eq!(reps[1].row(0, 7)[0], reps[1].layers[0].row(7)[0]);
        let canon = assemble_canonical(&reps);
        assert_eq!(canon[0].row(7)[0], 7.0 * 2.0 + 1.0);
    }

    #[test]
    fn pull_refreshes_stale_accessed_rows() {
        let mut reps = make_replicas(2, 4, 1);
        // Round 1: host 1 updates node 0 (owned by host 0). Host 0's access
        // set for round 2 does not include node 0; host 1's does.
        reps[1].row_mut(0, 0)[0] += 5.0;
        let mut access = AccessSets::new(2, 2, 4);
        access.get_mut(1, 0).set(0);
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::PullModel, CombinerKind::Sum),
            Some(&access),
            &mut stats,
        );
        // Host 1's mirror of node 0 is canonical; master too.
        assert_eq!(reps[0].row(0, 0)[0], 5.0);
        assert_eq!(reps[1].row(0, 0)[0], 5.0);
        // Round 2: nobody touches node 0; host 0 now accesses it. The pull
        // must refresh host 0's (never-stale here: host 0 IS the master) —
        // instead check a remote case: host 1 accesses node 1 (owned by
        // host 0) which it never touched; its replica already matches the
        // master, and the pull ships it anyway (counted on the wire).
        let mut access2 = AccessSets::new(2, 2, 4);
        access2.get_mut(1, 0).set(1);
        let before = stats.broadcast_msgs;
        sync_round(
            &mut reps,
            &cfg(SyncPlan::PullModel, CombinerKind::Sum),
            Some(&access2),
            &mut stats,
        );
        assert_eq!(
            stats.broadcast_msgs,
            before + 1,
            "unchanged row still pulled"
        );
    }

    #[test]
    fn trackers_cleared_after_round() {
        let mut reps = make_replicas(2, 4, 1);
        reps[0].row_mut(0, 1)[0] += 1.0;
        let mut stats = CommStats::default();
        sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        assert_eq!(reps[0].tracker(0).touched_count(), 0);
        // A second sync with no touches moves nothing.
        let v = sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
        );
        assert_eq!(v.total_bytes(), 0);
    }

    #[test]
    fn single_host_needs_no_communication() {
        let mut reps = make_replicas(1, 4, 2);
        reps[0].row_mut(0, 1)[0] += 1.0;
        reps[0].row_mut(1, 2)[0] += 1.0;
        let mut stats = CommStats::default();
        let v = sync_round(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::ModelCombiner),
            None,
            &mut stats,
        );
        assert_eq!(v.total_bytes(), 0);
        assert_eq!(stats.total_bytes(), 0);
        // But the update is retained.
        assert_eq!(reps[0].row(0, 1)[0], 1.0 * 2.0 + 1.0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_rounds() {
        use gw2v_util::rng::{Rng64, Xoshiro256};
        // Scratches carried across rounds (slots and buffers recycled,
        // pools warm) must produce exactly the models fresh scratches
        // per round do — for every combiner, over enough rounds
        // that the pool is actually reused.
        for combiner in [
            CombinerKind::Sum,
            CombinerKind::Avg,
            CombinerKind::ModelCombiner,
            CombinerKind::ModelCombinerPairwise,
        ] {
            let cfg = cfg(SyncPlan::RepModelOpt, combiner);
            let mut reused_reps = make_replicas(3, 10, 4);
            let mut fresh_reps = make_replicas(3, 10, 4);
            let mut s1 = CommStats::default();
            let mut s2 = CommStats::default();
            let mut scratch: Vec<SyncScratch> = (0..3).map(|_| SyncScratch::new()).collect();
            let mut rng = Xoshiro256::new(99);
            for round in 0..4 {
                // Identical pseudo-random touches on both replica sets.
                for h in 0..3 {
                    for _ in 0..5 {
                        let layer = rng.index(2);
                        let node = rng.index(10) as u32;
                        let slot = rng.index(4);
                        let bump = rng.next_f32() - 0.5;
                        reused_reps[h].row_mut(layer, node)[slot] += bump;
                        fresh_reps[h].row_mut(layer, node)[slot] += bump;
                    }
                }
                let (v1, _) = sync_round_degraded(
                    &mut reused_reps,
                    &cfg,
                    None,
                    &mut s1,
                    &mut scratch,
                    &Liveness::all(3),
                    &mut [WireState::Classic, WireState::Classic, WireState::Classic],
                    &FaultPlan::none(),
                    round,
                    &CostModel::infiniband_56g(),
                )
                .unwrap();
                let v2 = sync_round(&mut fresh_reps, &cfg, None, &mut s2);
                assert_eq!(
                    v1.total_bytes(),
                    v2.total_bytes(),
                    "{combiner:?} round {round}"
                );
                for h in 0..3 {
                    assert_eq!(
                        reused_reps[h].layers, fresh_reps[h].layers,
                        "{combiner:?} round {round} host {h}"
                    );
                }
            }
            assert_eq!(s1.total_bytes(), s2.total_bytes(), "{combiner:?}");
        }
    }

    #[test]
    fn degraded_round_routes_to_adopter() {
        // Host 1 of 3 is dead. Hosts 0 and 2 touch node 5 (block-owned by
        // the dead host 1 → adopted by host 2); the reconciled value must
        // land on host 2's replica and broadcast only to host 0.
        let mut reps = make_replicas(3, 9, 1);
        let mut live = Liveness::all(3);
        live.mark_dead(1);
        reps[0].row_mut(0, 5)[0] += 1.0;
        reps[2].row_mut(0, 5)[0] += 2.0;
        let base = 5.0;
        let dead_before = reps[1].layers.clone();
        let mut stats = CommStats::default();
        let mut scratch: Vec<SyncScratch> = (0..3).map(|_| SyncScratch::new()).collect();
        let mut wire: Vec<WireState> = (0..3).map(|_| WireState::Classic).collect();
        let (v, _) = sync_round_degraded(
            &mut reps,
            &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
            None,
            &mut stats,
            &mut scratch,
            &live,
            &mut wire,
            &FaultPlan::none(),
            0,
            &CostModel::infiniband_56g(),
        )
        .unwrap();
        assert_eq!(reps[2].row(0, 5)[0], base + 3.0, "adopter holds canonical");
        assert_eq!(reps[0].row(0, 5)[0], base + 3.0, "survivor mirrors it");
        assert_eq!(reps[1].layers, dead_before, "dead replica stays frozen");
        // One delta shipped (host 0 → adopter 2), one broadcast back.
        assert_eq!(stats.reduce_msgs, 1);
        assert_eq!(stats.broadcast_msgs, 1);
        assert!(v.total_bytes() > 0);
        let canon = assemble_canonical_live(&reps, &live);
        assert_eq!(canon[0].row(5)[0], base + 3.0);
    }

    /// One round over three hosts that touch and access every row of both
    /// layers, so every host posts to every other in every phase, under
    /// fault plan `spec` in global round `round`.
    fn faulted_round(spec: &str, plan: SyncPlan, round: usize, dead: Option<usize>) -> Resends {
        let (n_hosts, n_nodes) = (3, 12);
        let mut reps = make_replicas(n_hosts, n_nodes, 2);
        let mut access = AccessSets::new(n_hosts, 2, n_nodes);
        for h in 0..n_hosts {
            for layer in 0..2 {
                access.get_mut(h, layer).set_all();
                for node in 0..n_nodes as u32 {
                    reps[h].row_mut(layer, node)[0] += 1.0;
                }
            }
        }
        let mut live = Liveness::all(n_hosts);
        if let Some(h) = dead {
            live.mark_dead(h);
        }
        let mut scratch: Vec<SyncScratch> = (0..n_hosts).map(|_| SyncScratch::new()).collect();
        let mut wire: Vec<WireState> = (0..n_hosts).map(|_| WireState::Classic).collect();
        simulate(
            &mut reps,
            &cfg(plan, CombinerKind::Sum),
            Some(&access),
            &mut CommStats::default(),
            &mut scratch,
            &live,
            &mut wire,
            &FaultPlan::parse(spec).unwrap(),
            round,
        )
        .unwrap()
        .1
    }

    #[test]
    fn a_partition_stalls_only_the_rounds_it_covers() {
        let spec = "seed=5,partition=0|1@2..4";
        let opt = SyncPlan::RepModelOpt;
        for round in [1, 4] {
            let r = faulted_round(spec, opt, round, None);
            assert!(r.letters > 0, "round {round}");
            assert_eq!((r.frames, r.backoff_secs), (0, 0.0), "round {round}");
        }
        let stalled = faulted_round(spec, opt, 2, None);
        assert!(stalled.frames > 0 && stalled.backoff_secs > 0.0);
        assert_eq!(stalled, faulted_round(spec, opt, 2, None), "deterministic");
        assert_eq!(faulted_round("", opt, 2, None), Resends::default(), "inert");
    }

    #[test]
    fn a_dead_side_of_the_partition_stalls_nobody() {
        let r = faulted_round(
            "seed=5,partition=0|1@2..4",
            SyncPlan::RepModelOpt,
            2,
            Some(1),
        );
        assert!(r.letters > 0);
        assert_eq!((r.frames, r.backoff_secs), (0, 0.0));
    }

    #[test]
    fn pull_stalls_in_each_of_its_three_phases() {
        // Host 0 is cut off from hosts 1 and 2, so every receiver has a
        // letter withheld in every phase: reduce, pull-request and
        // pull-response, numbered 3·g+1 ..= 3·g+3.
        let spec = "seed=5,partition=0|1.2@2..4";
        let plan = FaultPlan::parse(spec).unwrap();
        let base = ClusterConfig::default().nak_delay.as_secs_f64();
        let by_hand: f64 = (7..=9)
            .map(|seq| {
                (0..3)
                    .map(|to| {
                        (0..gw2v_faults::PARTITION_STALL_ATTEMPTS)
                            .map(|nr| nak_backoff_secs(&plan, base, to, seq, nr))
                            .sum::<f64>()
                    })
                    .fold(0.0, f64::max)
            })
            .sum();
        let r = faulted_round(spec, SyncPlan::PullModel, 2, None);
        assert_eq!(r.backoff_secs, by_hand);
        // A phase's two NAK windows last 3·base to 4.5·base: two phases
        // alone stay under 9·base.
        assert!(r.backoff_secs >= 9.0 * base, "{}", r.backoff_secs);
    }

    #[test]
    fn a_plan_under_which_no_frame_arrives_gives_up() {
        // Host 1's first slot, host 0's layer 0, fails all its
        // `max_retries + 1` attempts: the threaded engine's verdict.
        for spec in ["seed=7,drop=1", "seed=7,flip=1"] {
            let mut reps = make_replicas(2, 4, 1);
            reps[0].row_mut(0, 3)[0] += 1.0;
            let got = sync_round_degraded(
                &mut reps,
                &cfg(SyncPlan::RepModelOpt, CombinerKind::Sum),
                None,
                &mut CommStats::default(),
                &mut [SyncScratch::new(), SyncScratch::new()],
                &Liveness::all(2),
                &mut [WireState::Classic, WireState::Classic],
                &FaultPlan::parse(spec).unwrap(),
                0,
                &CostModel::infiniband_56g(),
            );
            let starved = ClusterError::RetriesExhausted {
                host: 1,
                peer: 0,
                layer: 0,
            };
            assert_eq!(got.map(drop), Err(starved), "{spec}");
        }
    }

    #[test]
    fn assemble_canonical_reads_masters() {
        let mut reps = make_replicas(2, 4, 1);
        // Desynchronize *without* tracking: replicas disagree.
        reps[0].row_mut_untracked(0, 0)[0] = 100.0; // node 0 owned by host 0
        reps[1].row_mut_untracked(0, 0)[0] = -1.0;
        reps[0].row_mut_untracked(0, 3)[0] = -1.0; // node 3 owned by host 1
        reps[1].row_mut_untracked(0, 3)[0] = 300.0;
        let canon = assemble_canonical(&reps);
        assert_eq!(canon[0].row(0)[0], 100.0);
        assert_eq!(canon[0].row(3)[0], 300.0);
    }
}
