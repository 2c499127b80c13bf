//! The cluster's transport for the sync round: one OS thread per host.
//!
//! This is the engine a real multi-core/multi-host deployment would use:
//! hosts run concurrently and exchange serialized [`crate::wire`]
//! buffers over crossbeam channels. The round itself — its schedule, its
//! phase numbers, what a host sends, folds, applies and counts — is
//! `round.rs`, which the simulator ([`crate::sync`]) drives too; this
//! module is the transport under it ([`sync_round_threaded_degraded`]):
//! an exchange posts all of a host's sends, then collects what its
//! peers sent, and a barrier separates phases. docs/WIRE.md § engine
//! parity says what the two transports may differ in: framing, faults
//! and clocks.
//!
//! # Reliability
//!
//! The transport is lossy by decree: a [`FaultPlan`] may drop messages,
//! flip payload bits, delay hosts or kill them outright. Every payload
//! therefore travels in a CRC-32 frame ([`crate::wire::seal_frame`])
//! under a NAK/resend loop:
//!
//! * every frame carries its phase's number in the run, which the round
//!   driver sets from the global round ([`phases_per_round`]);
//! * senders buffer a phase's payloads until its closing barrier, so a
//!   receiver still missing a `(sender, layer)` slot can NAK it;
//! * a receiver files every frame in its inbox — `inbox.rs`, the one
//!   receiver rule, which the simulator drives too — and posts the NAKs
//!   it decides: a corrupt frame's at once, a silent slot's after a
//!   window that backs off per NAK from [`ClusterConfig::nak_delay`].
//!   Every NAK of a `(sender, layer)` slot counts against
//!   [`ClusterConfig::max_retries`]; a receiver that gives up leaves the
//!   cluster, so no peer waits for it at a barrier. The inbox's clock is
//!   the seconds since the phase's collect began. It counts duplicates
//!   (a resend racing the original, or the `dup` injector) under
//!   `faults.recovered.dedup`; resent bytes are identical, so either
//!   copy folds the same bits;
//! * `reorder` defers chosen sends to the end of their phase's send
//!   sequence; receivers fold in host-id order, so bits do not move;
//! * a stall-mode `partition` withholds cross-group frames of the rounds
//!   it covers for the first [`gw2v_faults::PARTITION_STALL_ATTEMPTS`]
//!   attempts, and the NAK loop heals the channel. Control frames (NAKs,
//!   state transfer) bypass the injector, so nothing deadlocks;
//! * every data frame's delivery attempt asks [`FaultPlan::attempt`]
//!   what happens to it — the chain the simulator's mailboxes draw too,
//!   so both engines inject, and count, the same faults;
//! * the barrier is crash-aware ([`HostCtx::barrier_wait`]): it releases
//!   when all *registered-alive* hosts arrive, serves NAKs while waiting,
//!   and counts long waits under `gluon.barrier_timeout`.
//!
//! Crashed hosts flag themselves in the shared liveness registry at a
//! round boundary; survivors route around them with a deterministic
//! [`Liveness`] view, the next alive host adopting the dead host's
//! master block. Recovery is exact (a resent frame carries the same
//! bytes), so chaos runs stay bit-identical to the simulator —
//! `tests/chaos.rs` pins this.
//!
//! Beyond the rounds, the fabric carries **out-of-band state transfer**
//! for crashed-host re-admission: at an epoch boundary a rejoining
//! host's adopter streams its full replica (plus the ward's RNG state
//! and schedule position) back over CRC-sealed frames tagged with
//! `STATE_TRANSFER_SEQ`, outside the phase numbering and the fault
//! injector (state transfer models a reliable bulk channel).

use crate::inbox::Inbox;
use crate::liveness::{Liveness, SharedLiveness};
use crate::plan::{AccessSets, SyncConfig, SyncPlan};
use crate::replica::ModelReplica;
use crate::round::{drive, Receives, Round, Sends, Transport};
use crate::sync::SyncScratch;
use crate::volume::{CommStats, RoundVolume};
use crate::wire::{
    entry_bytes, open_frame, seal_frame, RowDecoder, RowEncoder, WireError, WireState,
    FRAME_HEADER_BYTES,
};
use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gw2v_faults::{counters, Attempt, FaultPlan};
use gw2v_obs::trace::Span;
use gw2v_util::fvec::FlatMatrix;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// `host` gave up on `(peer, layer)`: the NAK after
    /// [`ClusterConfig::max_retries`] NAKs of it was due.
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
    /// Silence (no progress) tolerated before a missing payload's first
    /// NAK; the window grows per NAK.
    pub nak_delay: Duration,
    /// NAKs per `(peer, layer)` slot and phase, for silence or
    /// corruption, before a receiver gives up with
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
    /// state can expand: a delta mask + changed-rows buffer
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
        if self.open_if_full(&mut guard, live) {
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

    /// Releases the waiters if a death left every alive host arrived
    /// (called by [`ClusterState::mark_dead`]). Every drop of the alive
    /// count goes through here, so a waiter never re-checks it itself.
    fn poke(&self, live: &SharedLiveness) {
        self.open_if_full(&mut self.lock.lock().unwrap(), live);
    }

    /// The one release: once every alive host has arrived, resets the
    /// count, starts the next generation and wakes the waiters.
    fn open_if_full(&self, gen: &mut BarrierGen, live: &SharedLiveness) -> bool {
        let full = gen.arrived > 0 && gen.arrived >= live.n_alive();
        if full {
            gen.arrived = 0;
            gen.generation += 1;
            self.cvar.notify_all();
        }
        full
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
    /// The current phase's number in the run and its global sync round
    /// (partition blocking is round-indexed), both set by the round
    /// driver's exchange.
    seq: Cell<u64>,
    round: Cell<usize>,
    /// Current phase's sent payloads, kept until the closing barrier so
    /// NAKs can be served.
    resend: RefCell<HashMap<(usize, usize), ResendSlot>>,
    /// Sends deferred by the reorder injector, flushed (in deferral
    /// order, i.e. shuffled relative to the canonical send sequence) at
    /// the start of this host's next collect.
    deferred: RefCell<Vec<(usize, usize, Bytes, bool)>>,
    /// This phase's receiving side, on a clock started at `phase_start`.
    inbox: RefCell<Inbox<(Bytes, bool)>>,
    phase_start: Cell<Instant>,
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

    /// Whether a host the shared view `live` holds alive has left the
    /// liveness registry: it gave up on a slot, and the run is failing.
    pub fn a_peer_left(&self, live: &Liveness) -> bool {
        (0..self.n_hosts).any(|h| live.is_alive(h) && !self.state.live.is_alive(h))
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
    /// through the fault injector. `value_only` tags delta payloads
    /// ([`crate::wire::WireMode::Delta`] shadow hits).
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

    /// Seconds since the current phase's collect began: the inbox's clock.
    fn now(&self) -> f64 {
        self.phase_start.get().elapsed().as_secs_f64()
    }

    /// Opens a data frame and files it in `inbox`.
    fn file(&self, inbox: &mut Inbox<(Bytes, bool)>, msg: Message) -> Result<(), ClusterError> {
        let body = open_frame(&msg.payload).ok().map(|p| (p, msg.value_only));
        inbox.frame(msg.from, msg.layer, msg.seq, body, self.now())
    }

    /// One message off the channel: a NAK is served, a data frame filed.
    fn handle(&self, inbox: &mut Inbox<(Bytes, bool)>, msg: Message) -> Result<(), ClusterError> {
        match msg.kind {
            MsgKind::Nak => self.serve_nak(msg.from, msg.layer, msg.seq),
            MsgKind::Data { .. } => self.file(inbox, msg),
        }
    }

    /// Drains whatever is queued without blocking: serves NAKs and files
    /// data frames. Runs from barrier waits, where this host's collect is
    /// already complete: a frame is a copy or a later phase's, so the
    /// inbox decides no NAK.
    fn drain_for_naks(&self) {
        let mut inbox = self.inbox.borrow_mut();
        while let Ok(msg) = self.receiver.try_recv() {
            // A send failure here means a peer thread vanished without
            // flagging liveness; its own collect will surface the error
            // (or its panic fails the join).
            let _ = self.handle(&mut inbox, msg);
        }
    }

    /// Fills the inbox with one payload per `(alive peer, layer)` slot of
    /// the current phase, serving NAKs and posting the inbox's, until the
    /// phase is complete or a slot gives up. A host that gives up leaves
    /// first: a peer waiting for it at a barrier goes on, and gives up in
    /// turn on the slot this host no longer fills.
    fn collect_phase(&self, live: &Liveness, n_layers: usize) -> Result<(), ClusterError> {
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
        self.phase_start.set(Instant::now());
        let inbox = &mut *self.inbox.borrow_mut();
        let mut collect = || {
            inbox.open(self.seq.get(), live, n_layers)?;
            loop {
                for (peer, layer) in inbox.naks() {
                    self.nak(peer, layer)?;
                }
                if inbox.complete() {
                    return Ok(());
                }
                match self.receiver.recv_timeout(self.state.config.tick) {
                    Ok(msg) => self.handle(inbox, msg)?,
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(ClusterError::RecvFailed { host: self.host })
                    }
                }
                inbox.expire(self.now())?;
            }
        };
        let collected = collect();
        if let Err(ClusterError::RetriesExhausted { .. }) = collected {
            self.resign();
        }
        collected
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
    /// meantime are filed in the inbox (Data) or dropped (NAKs — the
    /// peer re-NAKs until served). State frames come
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
                self.file(&mut self.inbox.borrow_mut(), msg)?;
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
                inbox: RefCell::new(Inbox::new(host, &state.plan, config)),
                phase_start: Cell::new(Instant::now()),
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
/// every host alive, the classic id+value wire and per-round working
/// memory allocated afresh; the global round is the one `stats` counts
/// next, so every host must call this the same number of times with the
/// same `cfg`. Hosts that synchronize repeatedly should hold a
/// [`SyncScratch`] and call [`sync_round_threaded_degraded`] instead.
pub fn sync_round_threaded(
    ctx: &HostCtx,
    replica: &mut ModelReplica,
    cfg: &SyncConfig,
    stats: &mut CommStats,
) -> Result<(), ClusterError> {
    let live = Liveness::all(ctx.n_hosts);
    let g = stats.rounds as usize;
    sync_round_threaded_degraded(
        ctx,
        replica,
        cfg,
        None,
        stats,
        &mut SyncScratch::new(),
        &live,
        &mut WireState::Classic,
        g,
    )
}

/// This host's transport: its frames over the fabric. An exchange posts
/// all of the host's sends before it collects, so hosts send
/// concurrently; a barrier is the crash-aware one.
impl Transport for &HostCtx {
    fn span(&self) -> Span {
        gw2v_obs::span("gluon.threaded.sync").host(self.host)
    }

    fn exchange(
        &mut self,
        round: &mut Round<'_>,
        seq: u64,
        send: &mut Sends<'_>,
        recv: &mut Receives<'_>,
    ) -> Result<(), ClusterError> {
        let ctx: &HostCtx = self;
        // The previous phase's closing barrier proved every receiver got
        // its data: its resend buffer goes.
        ctx.round.set(round.g);
        ctx.seq.set(seq);
        ctx.resend.borrow_mut().clear();
        send(
            &mut round.host(ctx.host),
            &mut |to, layer, payload, value_only| ctx.ship(to, layer, payload, value_only),
        )?;
        let n_layers = round.replicas[0].n_layers();
        ctx.collect_phase(round.live, n_layers)?;
        let mut inbox = ctx.inbox.borrow_mut();
        for from in (0..ctx.n_hosts).filter(|&h| round.live.is_alive(h)) {
            let got: Vec<_> = (0..n_layers)
                .filter_map(|layer| Some((layer, inbox.take(from, layer)?)))
                .collect();
            recv(
                &mut round.host(ctx.host),
                from,
                &mut got.iter().map(|(layer, (p, v))| (*layer, p, *v)),
            )?;
        }
        Ok(())
    }

    /// [`HostCtx::barrier_wait`], recording the wait in the
    /// `gluon.barrier_wait_ns` histogram when metrics are enabled: a host
    /// that arrives early waits for the slowest one, so the histogram's
    /// spread measures per-round load imbalance across hosts.
    fn barrier(&mut self) {
        let start = gw2v_obs::enabled().then(Instant::now);
        self.barrier_wait();
        if let Some(start) = start {
            gw2v_obs::observe("gluon.barrier_wait_ns", start.elapsed().as_nanos() as u64);
        }
    }
}

/// One synchronization round of global round `g` from this host's side,
/// under a liveness view and wire mode, reusing `scratch`: `round.rs`'s
/// round over this host's frames.
///
/// All alive hosts must call this with the same `cfg`, `live` view and
/// `g` — the view is derived from the shared fault plan, so no agreement
/// protocol is needed. Dead hosts are neither sent to nor expected from;
/// their adopters master their blocks ([`Liveness::effective_master`]).
/// PullModel needs this host's inspection-derived `access` sets; `wire`
/// is this host's state for the run's payload mode, cleared at epoch
/// starts by the caller ([`WireState::begin_epoch`]) and on liveness
/// changes here. `stats` accumulates the bytes *this host sends*.
#[allow(clippy::too_many_arguments)]
pub fn sync_round_threaded_degraded(
    ctx: &HostCtx,
    replica: &mut ModelReplica,
    cfg: &SyncConfig,
    access: Option<&AccessSets>,
    stats: &mut CommStats,
    scratch: &mut SyncScratch,
    live: &Liveness,
    wire: &mut WireState,
    g: usize,
) -> Result<(), ClusterError> {
    let mut round = Round {
        cfg,
        live,
        access,
        g,
        first: ctx.host,
        replicas: std::slice::from_mut(replica),
        wire: std::slice::from_mut(wire),
        scratch: std::slice::from_mut(scratch),
        stats,
        volume: RoundVolume::new(ctx.n_hosts),
    };
    drive(&mut &*ctx, &mut round)
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
                sync_round_threaded_degraded(
                    &ctx,
                    &mut replica,
                    &cfg,
                    None,
                    &mut stats,
                    &mut scratch,
                    &Liveness::all(n_hosts),
                    &mut WireState::Classic,
                    round,
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
                    round,
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
        // One host dies once the others wait at the barrier, without ever
        // reaching it: its death must release them on the reduced alive
        // count instead of hanging. Their tick outlasts the test, so the
        // release is the dying host's poke.
        let done = run_cluster_with(
            3,
            FaultPlan::none(),
            ClusterConfig {
                tick: Duration::from_secs(3600),
                ..ClusterConfig::default()
            },
            |ctx| {
                if ctx.host == 2 {
                    while ctx.state.barrier.lock.lock().unwrap().arrived < 2 {
                        std::thread::yield_now();
                    }
                    ctx.mark_self_dead();
                    return false;
                }
                ctx.barrier_wait();
                true
            },
        );
        assert_eq!(done, vec![true, true, false]);
    }

    /// Whether `result` is `host`'s give-up on its one peer of two.
    fn gave_up_on_peer(host: usize, result: &Result<(), ClusterError>) -> bool {
        let Err(ClusterError::RetriesExhausted { host: h, peer, .. }) = *result else {
            return false;
        };
        (h, peer) == (host, 1 - host)
    }

    #[test]
    fn a_plan_that_corrupts_every_frame_gives_up() {
        // Every attempt of every frame fails its CRC. Each NAK counts
        // against the slot's budget, so a receiver gives up at its fourth
        // corrupt copy instead of trading NAKs and resends forever. It
        // leaves, so its peer gives up too, on silence if not corruption.
        let faults = FaultPlan::parse("seed=7,flip=1").unwrap();
        let config = ClusterConfig {
            nak_delay: Duration::from_millis(5),
            max_retries: 3,
            ..ClusterConfig::default()
        };
        let got = run_cluster_with(2, faults, config, |ctx| {
            let mut replica = fresh_replica(6, 2, 3);
            apply_workload(&mut replica, ctx.host, 0, 6);
            let cfg = SyncConfig::default();
            let result = sync_round_threaded(&ctx, &mut replica, &cfg, &mut CommStats::default());
            let resends = ctx.resend.borrow().values().map(|s| s.attempts).max();
            (result, resends.unwrap_or(0))
        });
        for (host, (result, resends)) in got.iter().enumerate() {
            assert!(gave_up_on_peer(host, result), "host {host}: {result:?}");
            assert!(
                *resends <= 3,
                "host {host} resent one frame {resends} times"
            );
        }
    }

    #[test]
    fn a_host_that_gives_up_leaves_and_strands_no_peer() {
        // With one retry, a slot gives up when both of its attempts fail
        // their CRC. Under this plan a phase comes where one host gives
        // up while its peer holds all its frames and waits at the
        // barrier: the host leaves, so the peer goes on and gives up in
        // turn on the slot the host no longer fills, or finishes. A
        // watchdog turns a stranded peer into a failure.
        let faults = FaultPlan::parse("seed=3,flip=0.4").unwrap();
        let config = ClusterConfig {
            nak_delay: Duration::from_millis(5),
            max_retries: 1,
            ..ClusterConfig::default()
        };
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let got = run_cluster_with(2, faults, config, |ctx| {
                let (cfg, stats) = (SyncConfig::default(), &mut CommStats::default());
                let mut replica = fresh_replica(6, 2, 3);
                (0..40).try_for_each(|round| {
                    apply_workload(&mut replica, ctx.host, round, 6);
                    sync_round_threaded(&ctx, &mut replica, &cfg, stats)
                })
            });
            done.send(got).unwrap();
        });
        let got = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a peer of the host that gave up is stranded");
        assert!(got.iter().any(Result::is_err), "no host gave up");
        for (host, result) in got.iter().enumerate() {
            assert!(
                result.is_ok() || gave_up_on_peer(host, result),
                "host {host}: {result:?}"
            );
        }
    }

    #[test]
    fn a_host_that_left_is_seen_until_the_view_drops_it() {
        let left = run_cluster(2, |ctx| {
            if ctx.host == 1 {
                ctx.resign();
                return (false, false);
            }
            ctx.await_death(1);
            let mut view = Liveness::all(2);
            let before = ctx.a_peer_left(&view);
            view.mark_dead(1);
            (before, ctx.a_peer_left(&view))
        });
        assert_eq!(left, [(true, false), (false, false)]);
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
                    round,
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
            crate::sync::simulate(
                &mut replicas,
                &cfg,
                None,
                &mut stats,
                &mut scratch,
                &live,
                &mut wire,
                &FaultPlan::none(),
                0,
            )
            .unwrap();
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
                    round,
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
                crate::sync::simulate(
                    &mut seq_replicas,
                    &cfg,
                    Some(&access_for(round)),
                    &mut seq_stats,
                    &mut seq_scratch,
                    &live,
                    &mut seq_wire,
                    &FaultPlan::none(),
                    round,
                )
                .unwrap();
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
                        round,
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
