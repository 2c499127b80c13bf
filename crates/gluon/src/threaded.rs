//! The cluster's transport for the sync round: one OS thread per host.
//!
//! This is the engine a real multi-core/multi-host deployment would use:
//! hosts run concurrently, exchange serialized [`crate::wire`] buffers
//! over crossbeam channels, and separate protocol phases with a barrier.
//! The protocol itself — what a host sends, folds, applies and accounts
//! — is the per-host round in `round.rs`, the same code the simulator
//! ([`crate::sync`]) drives; [`sync_round_threaded_degraded`] is its
//! phase calls with a collect and a barrier between them, so the engines
//! agree bit for bit by construction (docs/WIRE.md § engine parity says
//! what the transports may differ in: framing, faults and clocks). This
//! module owns everything that is transport.
//!
//! # Reliability
//!
//! The transport is lossy by decree: a [`FaultPlan`] may drop messages,
//! flip payload bits, delay hosts or kill them outright. The protocol
//! therefore ships every payload inside a CRC-32 frame
//! ([`crate::wire::seal_frame`]) and runs a NAK/resend loop on top:
//!
//! * every phase (reduce, broadcast) carries a lockstep sequence number;
//! * senders buffer each phase's payloads until the phase's closing
//!   barrier, so any receiver still missing data can NAK the
//!   `(sender, layer)` slot and get a retransmission;
//! * receivers NAK on CRC failure immediately and on silence; the
//!   silence window grows per NAK round by deterministic exponential
//!   backoff with seeded jitter (`crate::cost::nak_backoff_secs`,
//!   base [`ClusterConfig::nak_delay`]), with bounded retries
//!   ([`ClusterConfig::max_retries`]);
//! * duplicate deliveries (a resend racing the original, or the `dup`
//!   injector sending a clean frame twice) are deduped by
//!   `(sender, layer)` and counted under `faults.recovered.dedup`;
//!   resent bytes are identical, so either copy folds bit-identically;
//! * `reorder` injection defers chosen sends to the end of their
//!   phase's send sequence, shuffling per-channel delivery order; model
//!   bits are unaffected because receivers fold in host-id order;
//! * a stall-mode `partition` withholds cross-group data frames of
//!   covered rounds ([`HostCtx::begin_round`] supplies the round index)
//!   for the first [`gw2v_faults::PARTITION_STALL_ATTEMPTS`] delivery
//!   attempts; the NAK loop heals the channel deterministically.
//!   Control frames (NAKs, state transfer) bypass the injector, so the
//!   protocol cannot deadlock;
//! * every data frame's delivery attempt asks [`FaultPlan::attempt`]
//!   what happens to it — the chain of attempts the simulator's
//!   mailboxes ([`crate::sync`]) draw too, so both engines inject, and
//!   count, the same faults;
//! * the phase barrier is crash-aware ([`HostCtx::barrier_wait`]): it
//!   releases when all *registered-alive* hosts arrive, serves NAKs while
//!   waiting, and counts long waits under `gluon.barrier_timeout`.
//!
//! Crashed hosts flag themselves in the shared liveness registry at a
//! round boundary; survivors route around them using a deterministic
//! [`Liveness`] view (see [`sync_round_threaded_degraded`]), with the
//! next alive host adopting the dead host's master block.
//!
//! With an inert plan the protocol delivers every frame on the first
//! attempt; under any plan recovery is exact (a resent frame carries the
//! same bytes), so chaos runs stay bit-identical to the simulator —
//! `tests/chaos.rs` pins this.
//!
//! `RepModelNaive` and `RepModelOpt` run two phases per round (reduce,
//! broadcast); `PullModel` runs three (reduce, pull-request,
//! pull-response) — [`phases_per_round`], which also numbers the
//! lockstep sequence the fault plan's coins are drawn at.
//!
//! Beyond the phase protocol, the fabric carries **out-of-band state
//! transfer** for crashed-host re-admission: at an epoch boundary a
//! rejoining host's adopter streams its full replica (plus the ward's
//! RNG state and schedule position) back over CRC-sealed frames tagged
//! with `STATE_TRANSFER_SEQ`, outside the lockstep phase numbering and
//! the fault injector (state transfer models a reliable bulk channel).

use crate::liveness::{Liveness, SharedLiveness};
use crate::plan::{AccessSets, SyncConfig, SyncPlan};
use crate::replica::ModelReplica;
use crate::round::{HostRound, Post};
use crate::sync::SyncScratch;
use crate::volume::{CommStats, RoundVolume};
use crate::wire::{
    entry_bytes, open_frame, seal_frame, RowDecoder, RowEncoder, WireError, WireState,
    FRAME_HEADER_BYTES,
};
use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gw2v_faults::{counters, Attempt, FaultPlan};
use gw2v_util::fvec::FlatMatrix;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Verified payloads collected for one sync phase, keyed by
/// `(sender host, layer)`; the `bool` is the sender's `value_only` tag.
type PhasePayloads = HashMap<(usize, usize), (Bytes, bool)>;

/// A cluster-fabric failure surfaced to the caller instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A send to `to` failed while `to` was still registered alive
    /// (its thread is gone without flagging the liveness registry).
    SendFailed {
        /// Sending host.
        from: usize,
        /// Intended receiver.
        to: usize,
    },
    /// `host`'s own receive channel closed (all peer threads gone).
    RecvFailed {
        /// The host whose channel died.
        host: usize,
    },
    /// `host` gave up waiting for `(peer, layer)` after
    /// [`ClusterConfig::max_retries`] NAK rounds went unanswered.
    RetriesExhausted {
        /// The starved receiver.
        host: usize,
        /// The peer that never delivered.
        peer: usize,
        /// Model layer of the missing payload.
        layer: usize,
    },
    /// A payload `from` built for `to` cannot be framed
    /// ([`WireError::PayloadTooLarge`]); retransmission cannot help.
    Unframeable {
        /// Sending host.
        from: usize,
        /// Intended receiver.
        to: usize,
        /// Why sealing failed.
        source: WireError,
    },
    /// A payload from `from` passed its frame CRC at `to` but does not
    /// decode against `to`'s wire state or model shape; the sender built
    /// those bytes, so retransmission cannot help.
    BadPayload {
        /// Sending host.
        from: usize,
        /// Receiving host.
        to: usize,
        /// Model layer of the payload.
        layer: usize,
        /// Why decoding failed.
        source: WireError,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::SendFailed { from, to } => {
                write!(
                    f,
                    "host {from}: send to live host {to} failed (channel closed)"
                )
            }
            ClusterError::RecvFailed { host } => {
                write!(f, "host {host}: receive channel closed (all peers gone)")
            }
            ClusterError::RetriesExhausted { host, peer, layer } => write!(
                f,
                "host {host}: no payload from host {peer} for layer {layer} after max retries"
            ),
            ClusterError::Unframeable { from, to, source } => {
                write!(
                    f,
                    "host {from}: cannot frame payload for host {to}: {source}"
                )
            }
            ClusterError::BadPayload {
                from,
                to,
                layer,
                source,
            } => write!(
                f,
                "host {to}: undecodable layer-{layer} payload from host {from}: {source}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Timing knobs for the reliable transport.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Receive-poll granularity inside collect loops and barrier waits.
    pub tick: Duration,
    /// Silence (no progress) tolerated before NAKing missing payloads.
    pub nak_delay: Duration,
    /// NAK rounds per phase before a receiver errors out with
    /// [`ClusterError::RetriesExhausted`].
    pub max_retries: u32,
    /// Barrier wait beyond this duration counts one
    /// `gluon.barrier_timeout` (the stuck-peer signal; the wait itself
    /// continues until the alive set arrives).
    pub barrier_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(2),
            nak_delay: Duration::from_millis(25),
            max_retries: 200,
            barrier_timeout: Duration::from_millis(250),
        }
    }
}

/// What a [`Message`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgKind {
    /// A sealed payload frame; `attempt` counts retransmissions so the
    /// fault injector draws an independent coin per delivery attempt.
    Data {
        /// 0 for the original send, incremented per resend.
        attempt: u32,
    },
    /// A negative acknowledgement: "resend your payload for `layer` of
    /// phase `seq` to me". Payload is empty.
    Nak,
}

/// A message between host threads: one layer's payload for one phase.
/// Cloning is cheap (`Bytes` is reference-counted); the dup injector
/// clones a sealed frame to deliver it twice.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    /// Sending host.
    pub from: usize,
    /// Model layer the payload belongs to.
    pub layer: usize,
    /// Lockstep phase sequence number (two phases per sync round).
    pub seq: u64,
    /// Data or NAK.
    pub kind: MsgKind,
    /// True when the payload is a compact form only the receiver's wire
    /// state can expand: a memoized value-only buffer
    /// ([`crate::wire::WireMode::Memo`] cache hit, decoded against the
    /// receiver's cached id list) or a delta mask + changed-rows buffer
    /// ([`crate::wire::WireMode::Delta`], replayed against the
    /// receiver's shadow copy). Metadata, not payload: it rides outside
    /// the CRC-sealed frame (like `from`/`layer`/`seq`) so byte
    /// accounting stays exact and the fault injector's bit flips cannot
    /// silently change a payload's layout.
    pub value_only: bool,
    /// Sealed frame for data (`(node, row)` entries, or a compact form
    /// when `value_only`); empty for NAKs.
    pub payload: Bytes,
}

/// Generation-counting barrier that releases when all *registered-alive*
/// hosts arrive, so a crashed host cannot wedge the cluster.
#[derive(Debug)]
struct FaultBarrier {
    lock: Mutex<BarrierGen>,
    cvar: Condvar,
}

#[derive(Debug, Default)]
struct BarrierGen {
    arrived: usize,
    generation: u64,
}

impl FaultBarrier {
    fn new() -> Self {
        Self {
            lock: Mutex::new(BarrierGen::default()),
            cvar: Condvar::new(),
        }
    }

    /// Waits until all alive hosts arrive. `on_tick` runs (unlocked)
    /// roughly every `tick` so waiters keep serving NAKs. Returns true
    /// if the wait exceeded `patience`.
    fn wait(
        &self,
        live: &SharedLiveness,
        tick: Duration,
        patience: Duration,
        mut on_tick: impl FnMut(),
    ) -> bool {
        let start = Instant::now();
        let mut guard = self.lock.lock().unwrap();
        let generation = guard.generation;
        guard.arrived += 1;
        if guard.arrived >= live.n_alive() {
            guard.arrived = 0;
            guard.generation += 1;
            drop(guard);
            self.cvar.notify_all();
            return false;
        }
        let mut late = false;
        loop {
            let (g, res) = self.cvar.wait_timeout(guard, tick).unwrap();
            guard = g;
            if guard.generation != generation {
                return late;
            }
            if res.timed_out() {
                // A host may have died while we waited: re-check whether
                // the remaining alive set is already fully here.
                if guard.arrived >= live.n_alive() {
                    guard.arrived = 0;
                    guard.generation += 1;
                    drop(guard);
                    self.cvar.notify_all();
                    return late;
                }
                late = late || start.elapsed() >= patience;
                drop(guard);
                on_tick();
                guard = self.lock.lock().unwrap();
                if guard.generation != generation {
                    return late;
                }
            }
        }
    }

    /// Wakes all waiters to re-check the alive set (called by
    /// [`ClusterState::mark_dead`]).
    fn poke(&self, live: &SharedLiveness) {
        let mut guard = self.lock.lock().unwrap();
        if guard.arrived > 0 && guard.arrived >= live.n_alive() {
            guard.arrived = 0;
            guard.generation += 1;
        }
        drop(guard);
        self.cvar.notify_all();
    }
}

/// Shared fabric state: fault plan, transport config, liveness registry
/// and the crash-aware barrier.
#[derive(Debug)]
struct ClusterState {
    plan: FaultPlan,
    config: ClusterConfig,
    live: SharedLiveness,
    barrier: FaultBarrier,
}

impl ClusterState {
    fn mark_dead(&self, host: usize) {
        self.live.mark_dead(host);
        self.barrier.poke(&self.live);
    }
}

/// A buffered payload awaiting possible retransmission.
#[derive(Debug)]
struct ResendSlot {
    payload: Bytes,
    value_only: bool,
    attempts: u32,
}

/// Sequence number reserved for out-of-band state-transfer frames
/// (crashed-host re-admission). They ride the same channels as protocol
/// messages but sit outside the lockstep phase numbering and bypass the
/// drop/flip injector — state transfer models a reliable bulk transport.
pub(crate) const STATE_TRANSFER_SEQ: u64 = u64::MAX;

/// Payload bytes of the re-admission control frame: the ward's four
/// Xoshiro256 state words plus its schedule position, all `u64`. The
/// sequential simulator charges the same constant to
/// `gluon.state_transfer_bytes` so both engines report identical
/// transfer volumes.
pub const REJOIN_CONTROL_BYTES: u64 = 5 * 8;

/// Protocol phases per sync round: the replication plans run reduce +
/// broadcast, PullModel runs reduce + pull-request + pull-response.
/// Round `g`'s phases are numbered `phases_per_round(plan) · g + 1` on.
pub const fn phases_per_round(plan: SyncPlan) -> u64 {
    match plan {
        SyncPlan::PullModel => 3,
        SyncPlan::RepModelNaive | SyncPlan::RepModelOpt => 2,
    }
}

/// Tag (in the layer slot) of a state transfer's leading control frame.
const STATE_CTRL_TAG: usize = usize::MAX;
/// Tag of the rejoiner's closing acknowledgement frame.
const STATE_ACK_TAG: usize = usize::MAX - 1;

/// A host thread's handle to the cluster fabric.
pub struct HostCtx {
    /// This host's id.
    pub host: usize,
    /// Total hosts.
    pub n_hosts: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    state: Arc<ClusterState>,
    /// Lockstep phase counter: [`HostCtx::begin_round`] sets it from the
    /// global round, each phase advances it.
    seq: Cell<u64>,
    /// Current global sync round, set by the driver
    /// ([`HostCtx::begin_round`]); partition blocking is round-indexed.
    round: Cell<usize>,
    /// Current phase's sent payloads, kept until the closing barrier so
    /// NAKs can be served.
    resend: RefCell<HashMap<(usize, usize), ResendSlot>>,
    /// Sends deferred by the reorder injector, flushed (in deferral
    /// order, i.e. shuffled relative to the canonical send sequence) at
    /// the start of this host's next collect.
    deferred: RefCell<Vec<(usize, usize, Bytes, bool)>>,
    /// Stash for frames from a future phase (drained at next collect).
    pending: RefCell<VecDeque<Message>>,
    /// Dead hosts this ctx has already counted under `faults.detected.crash`.
    crash_noted: RefCell<Vec<bool>>,
}

fn empty_bytes() -> Bytes {
    BytesMut::new().freeze()
}

impl HostCtx {
    /// The fault plan this cluster runs under.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.state.plan
    }

    /// Flags this host dead in the liveness registry and wakes any
    /// barrier waiters; the host must stop syncing after this.
    pub fn mark_self_dead(&self) {
        counters::bump(counters::INJECTED_CRASH);
        self.state.mark_dead(self.host);
    }

    /// Blocks until `dead` is flagged in the liveness registry, counting
    /// the first observation under `faults.detected.crash`. Callers know
    /// *when* a peer dies from the shared plan; this confirms the death
    /// through the runtime registry before degrading the round.
    pub fn await_death(&self, dead: usize) {
        assert_ne!(dead, self.host, "a host cannot await its own death");
        while self.state.live.is_alive(dead) {
            std::thread::yield_now();
        }
        let mut noted = self.crash_noted.borrow_mut();
        if !noted[dead] {
            noted[dead] = true;
            counters::bump(counters::DETECTED_CRASH);
        }
    }

    /// Tells the fabric which global sync round of a `plan` run the next
    /// phases belong to. Drivers call this once per round before
    /// syncing. Partition blocking ([`FaultPlan::attempt`]) is
    /// round-indexed, and the phase counter is set to
    /// [`phases_per_round`]` · global_round`, where the simulator's
    /// mailboxes draw the round's coins too — also after a resume or a
    /// rejoin.
    pub fn begin_round(&self, global_round: usize, plan: SyncPlan) {
        self.round.set(global_round);
        self.seq.set(phases_per_round(plan) * global_round as u64);
    }

    /// Opens a new phase: advances the lockstep sequence number and
    /// forgets the previous phase's resend buffer (its closing barrier
    /// proved every receiver got the data).
    fn begin_phase(&self) {
        self.seq.set(self.seq.get() + 1);
        self.resend.borrow_mut().clear();
    }

    /// Sends `msg` to `to`, tolerating channels of dead hosts.
    fn post(&self, to: usize, msg: Message) -> Result<(), ClusterError> {
        if self.senders[to].send(msg).is_err() && self.state.live.is_alive(to) {
            return Err(ClusterError::SendFailed {
                from: self.host,
                to,
            });
        }
        Ok(())
    }

    /// Buffers `payload` for NAK service, then delivers it (attempt 0)
    /// through the fault injector. `value_only` tags memoized payloads
    /// ([`crate::wire::WireMode::Memo`] cache hits).
    fn ship(
        &self,
        to: usize,
        layer: usize,
        payload: Bytes,
        value_only: bool,
    ) -> Result<(), ClusterError> {
        self.resend.borrow_mut().insert(
            (to, layer),
            ResendSlot {
                payload: payload.clone(),
                value_only,
                attempts: 0,
            },
        );
        // Reorder injection: defer this send to the end of the phase's
        // send sequence (flushed at the next collect). The ResendSlot is
        // already registered, so NAK recovery covers the deferred frame.
        if self
            .state
            .plan
            .reorder(self.host, to, layer, self.seq.get())
        {
            self.deferred
                .borrow_mut()
                .push((to, layer, payload, value_only));
            return Ok(());
        }
        self.send_data(to, layer, &payload, value_only, 0)
    }

    /// Seals `payload` for `to`, naming both ends if it cannot be framed.
    fn seal(&self, to: usize, payload: &Bytes) -> Result<Bytes, ClusterError> {
        seal_frame(payload).map_err(|source| ClusterError::Unframeable {
            from: self.host,
            to,
            source,
        })
    }

    /// One delivery attempt: the injector ([`FaultPlan::attempt`]) may
    /// withhold the frame, flip one bit of it or deliver it twice; what
    /// survives goes on the channel sealed. A withheld frame is healed by
    /// the receiver's NAK loop.
    fn send_data(
        &self,
        to: usize,
        layer: usize,
        payload: &Bytes,
        value_only: bool,
        attempt: u32,
    ) -> Result<(), ClusterError> {
        let seq = self.seq.get();
        let outcome = self.state.plan.attempt(
            self.host,
            to,
            layer,
            seq,
            self.round.get(),
            attempt,
            FRAME_HEADER_BYTES + payload.len(),
        );
        let mut frame = match outcome {
            Attempt::Partitioned | Attempt::Dropped => return Ok(()),
            _ => self.seal(to, payload)?,
        };
        if let Attempt::Flipped(bit) = outcome {
            let mut raw = frame.as_slice().to_vec();
            raw[bit / 8] ^= 1 << (bit % 8);
            frame = Bytes::from(raw);
        }
        let msg = Message {
            from: self.host,
            layer,
            seq,
            kind: MsgKind::Data { attempt },
            value_only,
            payload: frame,
        };
        if outcome == (Attempt::Delivered { twice: true }) {
            self.post(to, msg.clone())?;
        }
        self.post(to, msg)
    }

    /// Asks `peer` to retransmit its current-phase payload for `layer`.
    fn nak(&self, peer: usize, layer: usize) -> Result<(), ClusterError> {
        self.post(
            peer,
            Message {
                from: self.host,
                layer,
                seq: self.seq.get(),
                kind: MsgKind::Nak,
                value_only: false,
                payload: empty_bytes(),
            },
        )
    }

    /// Retransmits the buffered payload a NAK points at. Stale NAKs
    /// (earlier phases) are ignored — their phase's closing barrier
    /// proved delivery.
    fn serve_nak(&self, to: usize, layer: usize, seq: u64) -> Result<(), ClusterError> {
        if seq != self.seq.get() {
            return Ok(());
        }
        let (payload, value_only, attempt) = {
            let mut resend = self.resend.borrow_mut();
            match resend.get_mut(&(to, layer)) {
                Some(slot) => {
                    slot.attempts += 1;
                    (slot.payload.clone(), slot.value_only, slot.attempts)
                }
                // NAK for a slot we never shipped this phase; nothing to do.
                None => return Ok(()),
            }
        };
        counters::bump(counters::RECOVERED_RESEND);
        self.send_data(to, layer, &payload, value_only, attempt)
    }

    /// Drains whatever is queued without blocking: serves NAKs, stashes
    /// future-phase data, drops current-phase duplicates. Runs from
    /// barrier waits, where this host's collect is already complete.
    fn drain_for_naks(&self) {
        while let Ok(msg) = self.receiver.try_recv() {
            match msg.kind {
                MsgKind::Nak => {
                    // A send failure here means a peer thread vanished
                    // without flagging liveness; its own collect will
                    // surface the error (or its panic fails the join).
                    let _ = self.serve_nak(msg.from, msg.layer, msg.seq);
                }
                MsgKind::Data { .. } => {
                    if msg.seq > self.seq.get() {
                        self.pending.borrow_mut().push_back(msg);
                    }
                }
            }
        }
    }

    /// Receives one payload per `(alive peer, layer)` slot for the
    /// current phase, NAKing corrupt or missing deliveries until the set
    /// completes or retries exhaust. Each entry carries the sender's
    /// `value_only` tag alongside the verified payload.
    fn collect_phase(
        &self,
        live: &Liveness,
        n_layers: usize,
    ) -> Result<PhasePayloads, ClusterError> {
        let seq = self.seq.get();
        let cfg = self.state.config;
        // Flush reorder-deferred sends now, after every in-order send of
        // the phase has gone out: per-channel delivery order is shuffled
        // relative to the canonical send sequence, but every frame still
        // belongs to this phase (each phase is ship-loop then collect on
        // the same host), so model bits — folded in host-id order at the
        // receiver — are unaffected.
        let deferred: Vec<(usize, usize, Bytes, bool)> =
            self.deferred.borrow_mut().drain(..).collect();
        for (to, layer, payload, value_only) in deferred {
            self.send_data(to, layer, &payload, value_only, 0)?;
        }
        let expected: Vec<(usize, usize)> = (0..self.n_hosts)
            .filter(|&h| h != self.host && live.is_alive(h))
            .flat_map(|h| (0..n_layers).map(move |l| (h, l)))
            .collect();
        let mut got: HashMap<(usize, usize), (Bytes, bool)> =
            HashMap::with_capacity(expected.len());

        let handle = |msg: Message,
                      got: &mut HashMap<(usize, usize), (Bytes, bool)>|
         -> Result<bool, ClusterError> {
            match msg.kind {
                MsgKind::Nak => {
                    self.serve_nak(msg.from, msg.layer, msg.seq)?;
                    Ok(false)
                }
                MsgKind::Data { .. } => {
                    let key = (msg.from, msg.layer);
                    if got.contains_key(&key) {
                        // Duplicate delivery (dup injection or a resend
                        // racing its NAK) — the slot is filled, discard.
                        counters::bump(counters::RECOVERED_DEDUP);
                        return Ok(false);
                    }
                    if !live.is_alive(msg.from) {
                        return Ok(false); // routed-around host
                    }
                    match open_frame(&msg.payload) {
                        Ok(payload) => {
                            got.insert(key, (payload, msg.value_only));
                            Ok(true)
                        }
                        Err(_) => {
                            counters::bump(counters::DETECTED_CORRUPT);
                            self.nak(msg.from, msg.layer)?;
                            Ok(false)
                        }
                    }
                }
            }
        };

        // Frames stashed by an earlier barrier drain may belong to this
        // phase now.
        let stashed: Vec<Message> = self.pending.borrow_mut().drain(..).collect();
        for msg in stashed {
            if msg.seq == seq {
                handle(msg, &mut got)?;
            } else if msg.seq > seq {
                self.pending.borrow_mut().push_back(msg);
            }
        }

        let mut last_progress = Instant::now();
        let mut nak_rounds = 0u32;
        while got.len() < expected.len() {
            match self.receiver.recv_timeout(cfg.tick) {
                Ok(msg) => {
                    if msg.seq > seq {
                        self.pending.borrow_mut().push_back(msg);
                        continue;
                    }
                    if msg.seq < seq {
                        continue; // stale duplicate or stale NAK
                    }
                    if handle(msg, &mut got)? {
                        last_progress = Instant::now();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::RecvFailed { host: self.host })
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Adaptive cadence: NAK round k fires only after a
                    // deterministic exponential-with-jitter silence
                    // window ([`crate::cost::nak_backoff_secs`]), so
                    // retry load spreads instead of synchronizing.
                    let wait = crate::cost::nak_backoff_secs(
                        &self.state.plan,
                        cfg.nak_delay.as_secs_f64(),
                        self.host,
                        seq,
                        nak_rounds,
                    );
                    if last_progress.elapsed() < Duration::from_secs_f64(wait) {
                        continue;
                    }
                    let missing: Vec<(usize, usize)> = expected
                        .iter()
                        .filter(|k| !got.contains_key(k))
                        .copied()
                        .collect();
                    nak_rounds += 1;
                    if nak_rounds > cfg.max_retries {
                        let (peer, layer) = missing[0];
                        return Err(ClusterError::RetriesExhausted {
                            host: self.host,
                            peer,
                            layer,
                        });
                    }
                    counters::bump(counters::DETECTED_TIMEOUT);
                    gw2v_obs::observe("gluon.nak_backoff_ms", (wait * 1e3) as u64);
                    for (peer, layer) in missing {
                        self.nak(peer, layer)?;
                    }
                    last_progress = Instant::now();
                }
            }
        }
        Ok(got)
    }

    /// Blocks until all registered-alive hosts reach the same point,
    /// serving NAKs while waiting. A wait past
    /// [`ClusterConfig::barrier_timeout`] counts one
    /// `gluon.barrier_timeout`.
    pub fn barrier_wait(&self) {
        let cfg = self.state.config;
        let late = self
            .state
            .barrier
            .wait(&self.state.live, cfg.tick, cfg.barrier_timeout, || {
                self.drain_for_naks()
            });
        if late {
            gw2v_obs::add("gluon.barrier_timeout", 1);
        }
    }

    /// [`HostCtx::barrier_wait`], recording the wait in the
    /// `gluon.barrier_wait_ns` histogram when metrics are enabled. The
    /// wait time is the straggler signal: a host that arrives early
    /// waits for the slowest one, so the histogram's spread measures
    /// per-round load imbalance across hosts.
    pub(crate) fn barrier_wait_timed(&self) {
        if gw2v_obs::enabled() {
            let start = std::time::Instant::now();
            self.barrier_wait();
            gw2v_obs::observe("gluon.barrier_wait_ns", start.elapsed().as_nanos() as u64);
        } else {
            self.barrier_wait();
        }
    }

    /// Flags this host dead in the liveness registry *without* counting
    /// an injected crash — used when a resumed run restores a host that
    /// was already dead at the checkpoint boundary (the crash was counted
    /// in the run that wrote the checkpoint).
    pub fn resign(&self) {
        self.state.mark_dead(self.host);
    }

    /// Re-registers this host alive (re-admission). Called by the
    /// rejoining host *before* it acknowledges the state transfer, so the
    /// adopter cannot reach the next barrier while the registry still
    /// excludes the rejoiner.
    pub(crate) fn register_alive(&self) {
        self.state.live.mark_alive(self.host);
    }

    /// Sends one out-of-band state-transfer frame to `to`, tagged with
    /// `tag` in the layer slot and [`STATE_TRANSFER_SEQ`] in the sequence
    /// slot. The frame is CRC-sealed but bypasses the drop/flip injector
    /// (state transfer models a reliable bulk transport). Returns the
    /// payload length for `gluon.state_transfer_bytes` accounting.
    pub(crate) fn send_state(
        &self,
        to: usize,
        tag: usize,
        payload: Bytes,
    ) -> Result<usize, ClusterError> {
        let len = payload.len();
        self.post(
            to,
            Message {
                from: self.host,
                layer: tag,
                seq: STATE_TRANSFER_SEQ,
                kind: MsgKind::Data { attempt: 0 },
                value_only: false,
                payload: self.seal(to, &payload)?,
            },
        )?;
        Ok(len)
    }

    /// Blocks until the next state-transfer frame from `from` arrives and
    /// returns `(tag, payload)`. Protocol messages that arrive in the
    /// meantime are stashed for the next `collect_phase` (Data) or
    /// dropped (NAKs — the peer re-NAKs until served). State frames come
    /// from a single sender over a FIFO channel, so callers may rely on
    /// their send order. State frames bypass the fault injector, so one
    /// that fails to open is [`ClusterError::BadPayload`]: resending
    /// cannot help.
    pub(crate) fn recv_state(&self, from: usize) -> Result<(usize, Bytes), ClusterError> {
        loop {
            let msg = self
                .receiver
                .recv()
                .map_err(|_| ClusterError::RecvFailed { host: self.host })?;
            if msg.seq == STATE_TRANSFER_SEQ {
                if msg.from != from {
                    continue; // not the transfer we are waiting for
                }
                return open_frame(&msg.payload)
                    .map(|payload| (msg.layer, payload))
                    .map_err(|source| self.bad_state(from, msg.layer, source));
            }
            if let MsgKind::Data { .. } = msg.kind {
                self.pending.borrow_mut().push_back(msg);
            }
        }
    }

    /// [`HostCtx::recv_state`] for a frame that must carry `tag` and
    /// exactly `len` payload bytes.
    fn recv_state_exact(&self, from: usize, tag: usize, len: usize) -> Result<Bytes, ClusterError> {
        let (got, payload) = self.recv_state(from)?;
        let source = match (got == tag, payload.len()) {
            (false, _) => WireError::UnexpectedForm,
            (true, actual) if actual != len => WireError::BadLength {
                claimed: len,
                actual,
            },
            _ => return Ok(payload),
        };
        Err(self.bad_state(from, tag, source))
    }

    /// A state-transfer frame from `from` in tag slot `tag` (a layer, or
    /// the control / ACK tag) that this host cannot use.
    fn bad_state(&self, from: usize, tag: usize, source: WireError) -> ClusterError {
        ClusterError::BadPayload {
            from,
            to: self.host,
            layer: tag,
            source,
        }
    }

    /// Streams a full partition state to rejoining host `to`: one
    /// control frame (the ward's RNG state and schedule position), then
    /// one frame per layer carrying every row, then blocks for the ACK —
    /// the rejoiner registers itself alive *before* acking, so this host
    /// cannot reach the next barrier while the registry still excludes
    /// it. Returns the payload bytes sent (`gluon.state_transfer_bytes`).
    pub fn send_partition_state(
        &self,
        to: usize,
        rng_state: [u64; 4],
        processed: u64,
        layers: &[FlatMatrix],
    ) -> Result<u64, ClusterError> {
        let mut ctrl = BytesMut::with_capacity(REJOIN_CONTROL_BYTES as usize);
        for word in rng_state {
            ctrl.put_slice(&word.to_le_bytes());
        }
        ctrl.put_slice(&processed.to_le_bytes());
        let mut sent = self.send_state(to, STATE_CTRL_TAG, ctrl.freeze())? as u64;
        for (layer, matrix) in layers.iter().enumerate() {
            let mut enc = RowEncoder::new(matrix.dim());
            for node in 0..matrix.rows() {
                enc.push(node as u32, matrix.row(node));
            }
            sent += self.send_state(to, layer, enc.finish())? as u64;
        }
        self.recv_state_exact(to, STATE_ACK_TAG, 0)?;
        Ok(sent)
    }

    /// Receives the partition state streamed by adopter `from` (see
    /// [`HostCtx::send_partition_state`]), registers this host alive in
    /// the runtime registry, and acknowledges. `shape` gives `(rows,
    /// dim)` per layer. Returns `(rng_state, processed, layers)`, or
    /// [`ClusterError::BadPayload`] for a frame out of order, of the
    /// wrong size, or naming a row `shape` does not have — checked
    /// before anything is acknowledged.
    pub fn recv_partition_state(
        &self,
        from: usize,
        shape: &[(usize, usize)],
    ) -> Result<([u64; 4], u64, Vec<FlatMatrix>), ClusterError> {
        let ctrl = self.recv_state_exact(from, STATE_CTRL_TAG, REJOIN_CONTROL_BYTES as usize)?;
        let raw = ctrl.as_slice();
        let word =
            |i: usize| u64::from_le_bytes(raw[i * 8..(i + 1) * 8].try_into().expect("8-byte word"));
        let rng_state = [word(0), word(1), word(2), word(3)];
        let processed = word(4);
        let mut layers = Vec::with_capacity(shape.len());
        for (layer, &(rows, dim)) in shape.iter().enumerate() {
            // One whole entry per row, so no row is silently left zero.
            let payload = self.recv_state_exact(from, layer, rows * entry_bytes(dim))?;
            let mut matrix = FlatMatrix::zeros(rows, dim);
            let mut dec = RowDecoder::new(payload, dim);
            while let Some((node, row)) = dec.next_entry() {
                if node as usize >= rows {
                    let source = WireError::NodeOutOfRange {
                        node,
                        n_nodes: rows,
                    };
                    return Err(self.bad_state(from, layer, source));
                }
                matrix.row_mut(node as usize).copy_from_slice(row);
            }
            layers.push(matrix);
        }
        self.register_alive();
        self.send_state(from, STATE_ACK_TAG, empty_bytes())?;
        Ok((rng_state, processed, layers))
    }
}

/// Spawns `n_hosts` threads, each running `f` with its [`HostCtx`], and
/// collects their results in host order. Runs with the inert fault plan
/// and default transport timing; see [`run_cluster_with`] for chaos runs.
pub fn run_cluster<T, F>(n_hosts: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(HostCtx) -> T + Sync,
{
    run_cluster_with(n_hosts, FaultPlan::none(), ClusterConfig::default(), f)
}

/// [`run_cluster`] under an explicit [`FaultPlan`] and transport config.
pub fn run_cluster_with<T, F>(
    n_hosts: usize,
    plan: FaultPlan,
    config: ClusterConfig,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(HostCtx) -> T + Sync,
{
    assert!(n_hosts > 0);
    let mut senders = Vec::with_capacity(n_hosts);
    let mut receivers = Vec::with_capacity(n_hosts);
    for _ in 0..n_hosts {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let state = Arc::new(ClusterState {
        plan,
        config,
        live: SharedLiveness::all(n_hosts),
        barrier: FaultBarrier::new(),
    });
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_hosts);
        for (host, receiver) in receivers.into_iter().enumerate() {
            let ctx = HostCtx {
                host,
                n_hosts,
                senders: senders.clone(),
                receiver,
                state: Arc::clone(&state),
                seq: Cell::new(0),
                round: Cell::new(0),
                resend: RefCell::new(HashMap::new()),
                deferred: RefCell::new(Vec::new()),
                pending: RefCell::new(VecDeque::new()),
                crash_noted: RefCell::new(vec![false; n_hosts]),
            };
            handles.push(scope.spawn(move || f(ctx)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("host thread panicked"))
            .collect()
    })
}

/// One synchronization round from a single host's perspective, with
/// per-round working memory allocated afresh.
///
/// Thin wrapper around `sync_round_threaded_with_scratch`; hosts that
/// synchronize repeatedly should hold a [`SyncScratch`] instead.
pub fn sync_round_threaded(
    ctx: &HostCtx,
    replica: &mut ModelReplica,
    cfg: &SyncConfig,
    stats: &mut CommStats,
) -> Result<(), ClusterError> {
    let mut scratch = SyncScratch::new();
    sync_round_threaded_with_scratch(ctx, replica, cfg, stats, &mut scratch)
}

/// Access sets for [`sync_round_threaded_degraded`]'s PullModel path.
///
/// Each host only consults *its own* row of the set matrix (what it will
/// touch next round, from its local inspection replay), unlike the
/// simulator where one [`AccessSets`] holds every host's sets.
pub(crate) type PullAccess<'a> = Option<&'a AccessSets>;

/// One synchronization round from a single host's perspective, reusing
/// `scratch`; every host must call this the same number of times with
/// the same `cfg`.
///
/// `stats` accumulates the bytes *this host sends* (summing over hosts
/// gives cluster totals).
pub(crate) fn sync_round_threaded_with_scratch(
    ctx: &HostCtx,
    replica: &mut ModelReplica,
    cfg: &SyncConfig,
    stats: &mut CommStats,
    scratch: &mut SyncScratch,
) -> Result<(), ClusterError> {
    let live = Liveness::all(ctx.n_hosts);
    sync_round_threaded_degraded(
        ctx,
        replica,
        cfg,
        None,
        stats,
        scratch,
        &live,
        &mut WireState::Classic,
    )
}

/// `sync_round_threaded_with_scratch` under an explicit liveness view
/// and wire mode: the cluster's transport for the per-host round both
/// engines run (`round.rs`; docs/WIRE.md § engine parity). This function
/// is the phase calls with a collect and a barrier between them.
///
/// Dead hosts are neither sent to nor expected from, and their master
/// blocks are handled by their adopters ([`Liveness::effective_master`]).
/// All alive hosts must call this with the *same* `live` view for the
/// round — the view is derived from the shared fault plan, so no
/// agreement protocol is needed.
///
/// For [`SyncPlan::PullModel`], `access` must carry this host's
/// inspection-derived sets (see `PullAccess`); the replication plans
/// ignore it.
///
/// `wire` is this host's state for the run's payload mode
/// ([`crate::wire::WireMode`]). Every host must run the same mode;
/// caches and shadows must be cleared at epoch starts by the caller
/// ([`WireState::begin_epoch`]) — liveness changes clear them here.
#[allow(clippy::too_many_arguments)]
pub fn sync_round_threaded_degraded(
    ctx: &HostCtx,
    replica: &mut ModelReplica,
    cfg: &SyncConfig,
    access: PullAccess<'_>,
    stats: &mut CommStats,
    scratch: &mut SyncScratch,
    live: &Liveness,
    wire: &mut WireState,
) -> Result<(), ClusterError> {
    // Inert when metrics are disabled; otherwise times this host's whole
    // round and records its send-side byte deltas below.
    let mut obs_span = gw2v_obs::span("gluon.threaded.sync").host(ctx.host);
    let before = gw2v_obs::enabled().then_some(*stats);
    let n_layers = replica.n_layers();
    let mut volume = RoundVolume::new(ctx.n_hosts);
    let mut host = HostRound {
        host: ctx.host,
        cfg,
        live,
        access,
        replica,
        wire,
        scratch,
        stats,
        volume: &mut volume,
    };
    let post: &mut Post<'_> =
        &mut |to, layer, payload, value_only| ctx.ship(to, layer, payload, value_only);
    host.begin();

    // ---- Phase 1: reduce. ----
    ctx.begin_phase();
    host.send_reduce(post)?;
    let incoming = ctx.collect_phase(live, n_layers)?;
    for from in 0..ctx.n_hosts {
        if from == ctx.host {
            host.fold_own();
        }
        for (layer, payload, value_only) in payloads_from(&incoming, from, n_layers) {
            host.fold_reduce(from, layer, payload, value_only)?;
        }
    }
    host.apply_reduce();
    ctx.barrier_wait_timed();

    if cfg.plan == SyncPlan::PullModel {
        // ---- Phase 2: pull requests. ----
        ctx.begin_phase();
        host.send_requests(post)?;
        let requests = ctx.collect_phase(live, n_layers)?;
        // The closing barrier proves every owner holds all requests
        // before anyone advances the phase counter (begin_phase drops the
        // resend buffer that NAK recovery would need).
        ctx.barrier_wait_timed();
        // ---- Phase 3: pull responses. ----
        ctx.begin_phase();
        for from in 0..ctx.n_hosts {
            for (layer, request, _) in payloads_from(&requests, from, n_layers) {
                host.answer_request(from, layer, request, post)?;
            }
        }
    } else {
        // ---- Phase 2: broadcast. ----
        ctx.begin_phase();
        host.send_broadcast(post)?;
    }
    let incoming = ctx.collect_phase(live, n_layers)?;
    for from in 0..ctx.n_hosts {
        for (layer, payload, value_only) in payloads_from(&incoming, from, n_layers) {
            host.apply_broadcast(from, layer, payload, value_only)?;
        }
    }
    host.end();
    stats.rounds += 1;
    ctx.barrier_wait_timed();

    if let Some(before) = before {
        let reduce_b = stats.reduce_bytes - before.reduce_bytes;
        let bcast_b = stats.broadcast_bytes - before.broadcast_bytes;
        gw2v_obs::add("gluon.threaded.reduce_bytes", reduce_b);
        gw2v_obs::add("gluon.threaded.broadcast_bytes", bcast_b);
        gw2v_obs::add(
            "gluon.threaded.msgs",
            (stats.reduce_msgs - before.reduce_msgs)
                + (stats.broadcast_msgs - before.broadcast_msgs),
        );
        obs_span.field("reduce_bytes", reduce_b as f64);
        obs_span.field("broadcast_bytes", bcast_b as f64);
    }
    drop(obs_span);
    Ok(())
}

/// The payloads `from` delivered this phase, in layer order (none for a
/// dead host or for the collecting host itself).
fn payloads_from(
    phase: &PhasePayloads,
    from: usize,
    n_layers: usize,
) -> impl Iterator<Item = (usize, &Bytes, bool)> {
    (0..n_layers).filter_map(move |layer| {
        phase
            .get(&(from, layer))
            .map(|(payload, value_only)| (layer, payload, *value_only))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{assemble_canonical, sync_round};
    use gw2v_combiner::CombinerKind;
    use gw2v_util::fvec::FlatMatrix;
    use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};

    fn fresh_replica(n_nodes: usize, dim: usize, seed: u64) -> ModelReplica {
        let mut rng = Xoshiro256::new(seed);
        let mut m0 = FlatMatrix::zeros(n_nodes, dim);
        let mut m1 = FlatMatrix::zeros(n_nodes, dim);
        for r in 0..n_nodes {
            for d in 0..dim {
                m0.row_mut(r)[d] = rng.next_f32() - 0.5;
                m1.row_mut(r)[d] = rng.next_f32() - 0.5;
            }
        }
        ModelReplica::new(vec![m0, m1])
    }

    /// Deterministic per-host workload: same touches whichever engine runs it.
    fn apply_workload(replica: &mut ModelReplica, host: usize, round: usize, n_nodes: usize) {
        let seed = SplitMix64::new(42).derive((host * 1000 + round) as u64);
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..8 {
            let layer = rng.index(2);
            let node = rng.index(n_nodes) as u32;
            let slot = rng.index(replica.layers[layer].dim());
            let bump = rng.next_f32() - 0.5;
            replica.row_mut(layer, node)[slot] += bump;
        }
    }

    fn run_threaded_plan(
        n_hosts: usize,
        n_nodes: usize,
        dim: usize,
        rounds: usize,
        plan: SyncPlan,
        combiner: CombinerKind,
        faults: FaultPlan,
    ) -> (Vec<FlatMatrix>, CommStats) {
        let cfg = SyncConfig { plan, combiner };
        let cluster_cfg = ClusterConfig {
            nak_delay: Duration::from_millis(10),
            ..ClusterConfig::default()
        };
        let results = run_cluster_with(n_hosts, faults, cluster_cfg, |ctx| {
            // All replicas start identical (same init seed). Each host
            // carries one scratch across rounds, so these equivalence
            // tests also referee the recycled-scratch path bitwise.
            let mut replica = fresh_replica(n_nodes, dim, 7);
            let mut stats = CommStats::default();
            let mut scratch = SyncScratch::new();
            for round in 0..rounds {
                apply_workload(&mut replica, ctx.host, round, n_nodes);
                sync_round_threaded_with_scratch(
                    &ctx,
                    &mut replica,
                    &cfg,
                    &mut stats,
                    &mut scratch,
                )
                .unwrap();
            }
            (replica, stats)
        });
        let (replicas, host_stats): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let mut total = CommStats::default();
        for s in &host_stats {
            total.merge(s);
        }
        total.rounds = host_stats[0].rounds;
        (assemble_canonical(&replicas), total)
    }

    fn run_threaded(
        n_hosts: usize,
        n_nodes: usize,
        dim: usize,
        rounds: usize,
        plan: SyncPlan,
        combiner: CombinerKind,
    ) -> (Vec<FlatMatrix>, CommStats) {
        run_threaded_plan(
            n_hosts,
            n_nodes,
            dim,
            rounds,
            plan,
            combiner,
            FaultPlan::none(),
        )
    }

    fn run_sequential(
        n_hosts: usize,
        n_nodes: usize,
        dim: usize,
        rounds: usize,
        plan: SyncPlan,
        combiner: CombinerKind,
    ) -> (Vec<FlatMatrix>, CommStats) {
        let cfg = SyncConfig { plan, combiner };
        let mut replicas: Vec<ModelReplica> = (0..n_hosts)
            .map(|_| fresh_replica(n_nodes, dim, 7))
            .collect();
        let mut stats = CommStats::default();
        for round in 0..rounds {
            for (host, replica) in replicas.iter_mut().enumerate() {
                apply_workload(replica, host, round, n_nodes);
            }
            sync_round(&mut replicas, &cfg, None, &mut stats);
        }
        (assemble_canonical(&replicas), stats)
    }

    #[test]
    fn threaded_matches_sequential_bitwise() {
        for combiner in [
            CombinerKind::Sum,
            CombinerKind::Avg,
            CombinerKind::ModelCombiner,
        ] {
            let (seq_model, seq_stats) =
                run_sequential(4, 20, 5, 4, SyncPlan::RepModelOpt, combiner);
            let (thr_model, thr_stats) = run_threaded(4, 20, 5, 4, SyncPlan::RepModelOpt, combiner);
            assert_eq!(
                seq_model, thr_model,
                "{combiner:?} models must be identical"
            );
            assert_eq!(
                seq_stats.reduce_bytes, thr_stats.reduce_bytes,
                "{combiner:?}"
            );
            assert_eq!(
                seq_stats.broadcast_bytes, thr_stats.broadcast_bytes,
                "{combiner:?}"
            );
        }
    }

    #[test]
    fn threaded_naive_matches_sequential() {
        let (seq_model, seq_stats) = run_sequential(
            3,
            12,
            4,
            3,
            SyncPlan::RepModelNaive,
            CombinerKind::ModelCombiner,
        );
        let (thr_model, thr_stats) = run_threaded(
            3,
            12,
            4,
            3,
            SyncPlan::RepModelNaive,
            CombinerKind::ModelCombiner,
        );
        assert_eq!(seq_model, thr_model);
        assert_eq!(seq_stats.reduce_bytes, thr_stats.reduce_bytes);
        assert_eq!(seq_stats.broadcast_bytes, thr_stats.broadcast_bytes);
    }

    #[test]
    fn drops_and_flips_recovered_bitwise() {
        // Heavy message loss and corruption: the NAK/resend loop must
        // reconstruct the exact faultless result — recovery is exact,
        // not approximate — and the *accounted* payload volume must not
        // change (retransmissions are transport overhead, not model
        // traffic).
        let faults = FaultPlan::parse("seed=9,drop=0.15,flip=0.05").unwrap();
        let (clean_model, clean_stats) = run_sequential(
            3,
            16,
            4,
            3,
            SyncPlan::RepModelOpt,
            CombinerKind::ModelCombiner,
        );
        let (chaos_model, chaos_stats) = run_threaded_plan(
            3,
            16,
            4,
            3,
            SyncPlan::RepModelOpt,
            CombinerKind::ModelCombiner,
            faults,
        );
        assert_eq!(clean_model, chaos_model);
        assert_eq!(clean_stats.reduce_bytes, chaos_stats.reduce_bytes);
        assert_eq!(clean_stats.broadcast_bytes, chaos_stats.broadcast_bytes);
    }

    #[test]
    fn crash_degrades_and_survivors_agree() {
        // Host 1 dies at the start of global round 1 (of 3). Survivors
        // route around it with the deterministic plan-derived liveness
        // view; after every remaining round their replicas must agree.
        let faults = FaultPlan::parse("seed=5,crash=1@1").unwrap();
        let n_hosts = 3;
        let n_nodes = 12;
        let cfg = SyncConfig {
            plan: SyncPlan::RepModelOpt,
            combiner: CombinerKind::ModelCombiner,
        };
        let crash_round = 1usize;
        let results = run_cluster_with(n_hosts, faults.clone(), ClusterConfig::default(), |ctx| {
            let mut replica = fresh_replica(n_nodes, 4, 7);
            let mut stats = CommStats::default();
            let mut scratch = SyncScratch::new();
            let mut live = Liveness::all(n_hosts);
            for round in 0..3 {
                if ctx.plan().crash_round(ctx.host) == Some(round) {
                    ctx.mark_self_dead();
                    return None;
                }
                if round == crash_round {
                    ctx.await_death(1);
                    live.mark_dead(1);
                }
                apply_workload(&mut replica, ctx.host, round, n_nodes);
                sync_round_threaded_degraded(
                    &ctx,
                    &mut replica,
                    &cfg,
                    None,
                    &mut stats,
                    &mut scratch,
                    &live,
                    &mut WireState::Classic,
                )
                .unwrap();
            }
            Some(replica)
        });
        assert!(results[1].is_none(), "host 1 must have crashed");
        let survivors: Vec<&ModelReplica> = results.iter().flatten().collect();
        assert_eq!(survivors.len(), 2);
        assert_eq!(
            survivors[0].layers, survivors[1].layers,
            "survivors must hold identical replicas after degraded rounds"
        );
    }

    #[test]
    fn barrier_releases_without_dead_host() {
        // One host dies before ever reaching the barrier; the others'
        // barrier must release on the reduced alive count instead of
        // hanging.
        let done = run_cluster_with(
            3,
            FaultPlan::none(),
            ClusterConfig {
                tick: Duration::from_millis(1),
                barrier_timeout: Duration::from_millis(5),
                ..ClusterConfig::default()
            },
            |ctx| {
                if ctx.host == 2 {
                    std::thread::sleep(Duration::from_millis(20));
                    ctx.mark_self_dead();
                    return false;
                }
                ctx.barrier_wait();
                true
            },
        );
        assert_eq!(done, vec![true, true, false]);
    }

    #[test]
    fn replicas_agree_after_each_round() {
        let cfg = SyncConfig {
            plan: SyncPlan::RepModelOpt,
            combiner: CombinerKind::ModelCombiner,
        };
        let models = run_cluster(3, |ctx| {
            let mut replica = fresh_replica(10, 3, 1);
            let mut stats = CommStats::default();
            for round in 0..3 {
                apply_workload(&mut replica, ctx.host, round, 10);
                sync_round_threaded(&ctx, &mut replica, &cfg, &mut stats).unwrap();
            }
            replica
        });
        // After the final sync every host's full replica is canonical.
        for h in 1..3 {
            assert_eq!(models[0].layers, models[h].layers);
        }
    }

    #[test]
    fn two_hosts_no_touches_is_quiet() {
        let cfg = SyncConfig::default();
        let stats = run_cluster(2, |ctx| {
            let mut replica = fresh_replica(6, 2, 3);
            let mut stats = CommStats::default();
            sync_round_threaded(&ctx, &mut replica, &cfg, &mut stats).unwrap();
            stats
        });
        for s in stats {
            assert_eq!(s.total_bytes(), 0);
        }
    }

    #[test]
    fn run_cluster_collects_in_host_order() {
        let ids = run_cluster(5, |ctx| ctx.host * 10);
        assert_eq!(ids, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn pull_model_threaded_matches_sequential() {
        // PullModel replicas diverge by design (only accessed rows are
        // refreshed), so parity is per-host: each threaded replica must
        // be bit-identical to its sequential counterpart, and the summed
        // send-side stats must match the sequential accounting.
        let n_hosts = 3;
        let n_nodes = 12;
        let dim = 4;
        let rounds = 3;
        let cfg = SyncConfig {
            plan: SyncPlan::PullModel,
            combiner: CombinerKind::ModelCombiner,
        };
        // Deterministic stand-in for the inspection replay: the rows each
        // host "will touch next round", same sets for both engines.
        let access_for = |round: usize| {
            let mut sets = AccessSets::new(n_hosts, 2, n_nodes);
            for host in 0..n_hosts {
                for layer in 0..2 {
                    for node in 0..n_nodes {
                        if (node + host + round + layer).is_multiple_of(3) {
                            sets.get_mut(host, layer).set(node);
                        }
                    }
                }
            }
            sets
        };

        let mut seq_replicas: Vec<ModelReplica> = (0..n_hosts)
            .map(|_| fresh_replica(n_nodes, dim, 7))
            .collect();
        let mut seq_stats = CommStats::default();
        for round in 0..rounds {
            for (host, replica) in seq_replicas.iter_mut().enumerate() {
                apply_workload(replica, host, round, n_nodes);
            }
            sync_round(
                &mut seq_replicas,
                &cfg,
                Some(&access_for(round)),
                &mut seq_stats,
            );
        }

        let results = run_cluster(n_hosts, |ctx| {
            let mut replica = fresh_replica(n_nodes, dim, 7);
            let mut stats = CommStats::default();
            let mut scratch = SyncScratch::new();
            let live = Liveness::all(n_hosts);
            for round in 0..rounds {
                apply_workload(&mut replica, ctx.host, round, n_nodes);
                let access = access_for(round);
                sync_round_threaded_degraded(
                    &ctx,
                    &mut replica,
                    &cfg,
                    Some(&access),
                    &mut stats,
                    &mut scratch,
                    &live,
                    &mut WireState::Classic,
                )
                .unwrap();
            }
            (replica, stats)
        });
        let mut total = CommStats::default();
        for (host, (replica, stats)) in results.iter().enumerate() {
            assert_eq!(
                seq_replicas[host].layers, replica.layers,
                "host {host} replica must be bit-identical across engines"
            );
            total.merge(stats);
        }
        assert_eq!(seq_stats.reduce_bytes, total.reduce_bytes);
        assert_eq!(seq_stats.broadcast_bytes, total.broadcast_bytes);
        assert_eq!(seq_stats.broadcast_msgs, total.broadcast_msgs);
    }

    fn run_sequential_wire(
        n_hosts: usize,
        n_nodes: usize,
        dim: usize,
        rounds: usize,
        plan: SyncPlan,
        mode: crate::wire::WireMode,
    ) -> (Vec<FlatMatrix>, CommStats) {
        let cfg = SyncConfig {
            plan,
            combiner: CombinerKind::ModelCombiner,
        };
        let live = Liveness::all(n_hosts);
        let mut wire: Vec<WireState> = (0..n_hosts).map(|_| WireState::for_mode(mode)).collect();
        let mut scratch: Vec<SyncScratch> = (0..n_hosts).map(|_| SyncScratch::new()).collect();
        let mut replicas: Vec<ModelReplica> = (0..n_hosts)
            .map(|_| fresh_replica(n_nodes, dim, 7))
            .collect();
        let mut stats = CommStats::default();
        for round in 0..rounds {
            for (host, replica) in replicas.iter_mut().enumerate() {
                apply_workload(replica, host, round, n_nodes);
            }
            crate::sync::sync_round_degraded(
                &mut replicas,
                &cfg,
                None,
                &mut stats,
                &mut scratch,
                &live,
                &mut wire,
                &FaultPlan::none(),
                0,
            );
        }
        (assemble_canonical(&replicas), stats)
    }

    fn run_threaded_wire(
        n_hosts: usize,
        n_nodes: usize,
        dim: usize,
        rounds: usize,
        plan: SyncPlan,
        mode: crate::wire::WireMode,
    ) -> (Vec<FlatMatrix>, CommStats) {
        let cfg = SyncConfig {
            plan,
            combiner: CombinerKind::ModelCombiner,
        };
        let results = run_cluster(n_hosts, |ctx| {
            let mut replica = fresh_replica(n_nodes, dim, 7);
            let mut stats = CommStats::default();
            let mut scratch = SyncScratch::new();
            let mut wire = WireState::for_mode(mode);
            let live = Liveness::all(n_hosts);
            for round in 0..rounds {
                apply_workload(&mut replica, ctx.host, round, n_nodes);
                sync_round_threaded_degraded(
                    &ctx,
                    &mut replica,
                    &cfg,
                    None,
                    &mut stats,
                    &mut scratch,
                    &live,
                    &mut wire,
                )
                .unwrap();
            }
            (replica, stats)
        });
        let (replicas, host_stats): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let mut total = CommStats::default();
        for s in &host_stats {
            total.merge(s);
        }
        total.rounds = host_stats[0].rounds;
        (assemble_canonical(&replicas), total)
    }

    #[test]
    fn delta_and_quant_wire_match_sequential_bitwise() {
        use crate::wire::WireMode;
        for mode in [WireMode::Delta, WireMode::Quant] {
            for plan in [SyncPlan::RepModelNaive, SyncPlan::RepModelOpt] {
                let (seq_model, seq_stats) = run_sequential_wire(3, 12, 4, 3, plan, mode);
                let (thr_model, thr_stats) = run_threaded_wire(3, 12, 4, 3, plan, mode);
                assert_eq!(seq_model, thr_model, "{mode:?} {plan:?} models");
                assert_eq!(
                    seq_stats.reduce_bytes, thr_stats.reduce_bytes,
                    "{mode:?} {plan:?} reduce bytes"
                );
                assert_eq!(
                    seq_stats.broadcast_bytes, thr_stats.broadcast_bytes,
                    "{mode:?} {plan:?} broadcast bytes"
                );
                assert_eq!(
                    seq_stats.reduce_msgs, thr_stats.reduce_msgs,
                    "{mode:?} {plan:?} reduce msgs"
                );
                assert_eq!(
                    seq_stats.broadcast_msgs, thr_stats.broadcast_msgs,
                    "{mode:?} {plan:?} broadcast msgs"
                );
            }
        }
    }

    #[test]
    fn delta_wire_is_lossless_and_cheaper_on_dense_plan() {
        use crate::wire::WireMode;
        for plan in [SyncPlan::RepModelNaive, SyncPlan::RepModelOpt] {
            let (classic_model, classic_stats) =
                run_sequential_wire(3, 12, 4, 3, plan, WireMode::IdValue);
            let (delta_model, delta_stats) =
                run_sequential_wire(3, 12, 4, 3, plan, WireMode::Delta);
            assert_eq!(
                classic_model, delta_model,
                "{plan:?} delta must be lossless"
            );
            assert!(
                delta_stats.total_bytes() <= classic_stats.total_bytes(),
                "{plan:?} delta must not cost more than classic"
            );
        }
        // On the dense plan most rows repeat round over round, so the
        // change mask must beat re-shipping them.
        let (_, classic_stats) =
            run_sequential_wire(3, 12, 4, 3, SyncPlan::RepModelNaive, WireMode::IdValue);
        let (_, delta_stats) =
            run_sequential_wire(3, 12, 4, 3, SyncPlan::RepModelNaive, WireMode::Delta);
        assert!(delta_stats.total_bytes() < classic_stats.total_bytes());
    }

    #[test]
    fn delta_and_quant_pull_match_sequential() {
        use crate::wire::WireMode;
        let n_hosts = 3;
        let n_nodes = 12;
        let dim = 4;
        let rounds = 3;
        let cfg = SyncConfig {
            plan: SyncPlan::PullModel,
            combiner: CombinerKind::ModelCombiner,
        };
        let access_for = |round: usize| {
            let mut sets = AccessSets::new(n_hosts, 2, n_nodes);
            for host in 0..n_hosts {
                for layer in 0..2 {
                    for node in 0..n_nodes {
                        if (node + host + round + layer).is_multiple_of(3) {
                            sets.get_mut(host, layer).set(node);
                        }
                    }
                }
            }
            sets
        };
        for mode in [WireMode::Delta, WireMode::Quant] {
            let mut seq_replicas: Vec<ModelReplica> = (0..n_hosts)
                .map(|_| fresh_replica(n_nodes, dim, 7))
                .collect();
            let mut seq_stats = CommStats::default();
            let mut seq_scratch: Vec<SyncScratch> =
                (0..n_hosts).map(|_| SyncScratch::new()).collect();
            let mut seq_wire: Vec<WireState> =
                (0..n_hosts).map(|_| WireState::for_mode(mode)).collect();
            let live = Liveness::all(n_hosts);
            for round in 0..rounds {
                for (host, replica) in seq_replicas.iter_mut().enumerate() {
                    apply_workload(replica, host, round, n_nodes);
                }
                crate::sync::sync_round_degraded(
                    &mut seq_replicas,
                    &cfg,
                    Some(&access_for(round)),
                    &mut seq_stats,
                    &mut seq_scratch,
                    &live,
                    &mut seq_wire,
                    &FaultPlan::none(),
                    round,
                );
            }

            let results = run_cluster(n_hosts, |ctx| {
                let mut replica = fresh_replica(n_nodes, dim, 7);
                let mut stats = CommStats::default();
                let mut scratch = SyncScratch::new();
                let mut wire = WireState::for_mode(mode);
                let live = Liveness::all(n_hosts);
                for round in 0..rounds {
                    apply_workload(&mut replica, ctx.host, round, n_nodes);
                    let access = access_for(round);
                    sync_round_threaded_degraded(
                        &ctx,
                        &mut replica,
                        &cfg,
                        Some(&access),
                        &mut stats,
                        &mut scratch,
                        &live,
                        &mut wire,
                    )
                    .unwrap();
                }
                (replica, stats)
            });
            let mut total = CommStats::default();
            for (host, (replica, stats)) in results.iter().enumerate() {
                assert_eq!(
                    seq_replicas[host].layers, replica.layers,
                    "{mode:?} host {host} replica must be bit-identical across engines"
                );
                total.merge(stats);
            }
            assert_eq!(seq_stats.reduce_bytes, total.reduce_bytes, "{mode:?}");
            assert_eq!(seq_stats.broadcast_bytes, total.broadcast_bytes, "{mode:?}");
            assert_eq!(seq_stats.broadcast_msgs, total.broadcast_msgs, "{mode:?}");
        }
    }

    /// A `ctrl`-byte control frame, then frame `tag` with 3-wide rows for
    /// `nodes`: a well-formed transfer of one 2 × 3 layer at `(40, 0,
    /// &[0, 1])`.
    fn transfer(ctrl: usize, tag: usize, nodes: &[u32]) -> Vec<(usize, Bytes)> {
        let mut enc = RowEncoder::new(3);
        for &node in nodes {
            enc.push(node, &[1.0, 2.0, 3.0]);
        }
        vec![
            (STATE_CTRL_TAG, Bytes::from(vec![7u8; ctrl])),
            (tag, enc.finish()),
        ]
    }

    /// Host 0 sends `frames`; host 1's `recv_partition_state` must
    /// return `BadPayload` for slot `tag` (not panic): its source.
    fn refused(frames: &[(usize, Bytes)], tag: usize) -> WireError {
        let got = run_cluster(2, |ctx| {
            if ctx.host == 1 {
                return ctx.recv_partition_state(0, &[(2, 3)]).map(|_| ());
            }
            for (tag, payload) in frames {
                ctx.send_state(1, *tag, payload.clone()).unwrap();
            }
            Ok(())
        });
        match got[1] {
            Err(ClusterError::BadPayload {
                from: 0,
                to: 1,
                layer,
                source,
            }) if layer == tag => source,
            other => panic!("slot {tag}: {other:?}"),
        }
    }

    fn bad_len(claimed: usize, actual: usize) -> WireError {
        WireError::BadLength { claimed, actual }
    }

    #[test]
    fn short_rejoin_control_frame_is_refused() {
        assert_eq!(
            refused(&transfer(39, 0, &[0, 1]), STATE_CTRL_TAG),
            bad_len(40, 39)
        );
    }

    #[test]
    fn rejoin_frame_with_the_wrong_tag_is_refused() {
        let got = refused(&transfer(40, 1, &[0, 1]), 0);
        assert_eq!(got, WireError::UnexpectedForm);
    }

    #[test]
    fn rejoin_row_beyond_the_layer_is_refused() {
        let beyond = WireError::NodeOutOfRange {
            node: 2,
            n_nodes: 2,
        };
        assert_eq!(refused(&transfer(40, 0, &[0, 2]), 0), beyond);
    }

    #[test]
    fn ragged_or_short_rejoin_layer_is_refused() {
        let mut ragged = transfer(40, 0, &[0, 1]);
        ragged[1].1 = ragged[1].1.slice(0..31);
        assert_eq!(refused(&ragged, 0), bad_len(32, 31));
        // A whole entry short: row 1 would silently stay zero.
        assert_eq!(refused(&transfer(40, 0, &[0]), 0), bad_len(32, 16));
    }

    #[test]
    fn rejoin_ack_with_the_wrong_tag_is_refused() {
        let got = run_cluster(2, |ctx| {
            if ctx.host == 1 {
                ctx.recv_state(0).unwrap();
                ctx.recv_state(0).unwrap();
                return ctx.send_state(0, 0, empty_bytes()).map(|_| ());
            }
            let layers = [FlatMatrix::zeros(2, 3)];
            ctx.send_partition_state(1, [1, 2, 3, 4], 5, &layers)
                .map(|_| ())
        });
        let want = ClusterError::BadPayload {
            from: 1,
            to: 0,
            layer: STATE_ACK_TAG,
            source: WireError::UnexpectedForm,
        };
        assert_eq!(got[0], Err(want));
    }

    #[test]
    #[should_panic(expected = "host thread panicked")]
    fn pull_without_access_sets_is_rejected() {
        let cfg = SyncConfig {
            plan: SyncPlan::PullModel,
            combiner: CombinerKind::ModelCombiner,
        };
        run_cluster(2, |ctx| {
            let mut replica = fresh_replica(4, 2, 1);
            let mut stats = CommStats::default();
            let _ = sync_round_threaded(&ctx, &mut replica, &cfg, &mut stats);
        });
    }
}
