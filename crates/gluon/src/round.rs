//! The sync round — the only statement of the protocol, and the only
//! driver of it. [`drive`] runs a round's schedule over a [`Transport`],
//! which decides only how a phase's payloads move and what a barrier is:
//! the simulator's in-process mailboxes ([`crate::sync`]) or the threaded
//! engine's sealed frames over channels ([`crate::threaded`]).
//!
//! A round `g` is, on every alive host a process holds:
//!
//! 1. [`begin`](HostRound::begin);
//! 2. the reduce exchange, phase `P·g + 1` (`P` =
//!    [`phases_per_round`]): [`send_reduce`](HostRound::send_reduce) —
//!    deltas of touched mirror rows to their (effective) masters — then
//!    one turn per alive sender **in host-id order**,
//!    [`fold_reduce`](HostRound::fold_reduce) for a peer's payloads and
//!    [`fold_own`](HostRound::fold_own) at this host's own turn, so the
//!    order-sensitive combiner sees the same sequence whatever delivered
//!    the payloads;
//! 3. [`apply_reduce`](HostRound::apply_reduce) — `canonical = base +
//!    combined` on the rows this host masters — and a barrier;
//! 4. RepModel plans: the broadcast exchange, phase `P·g + 2`
//!    ([`send_broadcast`](HostRound::send_broadcast)). PullModel: the
//!    request exchange, phase `P·g + 2`
//!    ([`send_requests`](HostRound::send_requests)), a barrier, and the
//!    answer exchange, phase `P·g + 3`
//!    ([`answer_request`](HostRound::answer_request) per request held);
//! 5. [`apply_broadcast`](HostRound::apply_broadcast) per payload
//!    received (broadcast or pull response), in any order — masters own
//!    disjoint rows;
//! 6. [`end`](HostRound::end), the round's counters, and a barrier.
//!
//! The wire mode never shows here: rows go out through
//! [`WireState::encode`] and come in through [`WireState::decode`], and
//! every transfer is accounted once, in [`HostRound::account`], from the
//! payload that was actually built.

use crate::liveness::Liveness;
use crate::plan::{AccessSets, SyncConfig, SyncPlan};
use crate::replica::ModelReplica;
use crate::sync::{LayerScratch, SyncScratch};
use crate::threaded::{phases_per_round, ClusterError};
use crate::volume::{CommStats, RoundVolume};
use crate::wire::{decode_ids, encode_ids, Channel, WireError, WireState};
use bytes::Bytes;
use gw2v_graph::partition::{master_block, master_host};
use gw2v_obs::trace::Span;

/// Where a sending phase puts a payload: `(to, layer, payload,
/// value_only)`. The transport's half of the round.
pub(crate) type Post<'a> = dyn FnMut(usize, usize, Bytes, bool) -> Result<(), ClusterError> + 'a;

/// One host's share of a round: its replica, wire state and scratch,
/// the round's constants, and where its sends are accounted.
pub(crate) struct HostRound<'a> {
    pub host: usize,
    pub cfg: &'a SyncConfig,
    pub live: &'a Liveness,
    /// This host's next-round access sets (PullModel only).
    pub access: Option<&'a AccessSets>,
    pub replica: &'a mut ModelReplica,
    pub wire: &'a mut WireState,
    pub scratch: &'a mut SyncScratch,
    /// Send-side counters: what *this host* ships.
    pub stats: &'a mut CommStats,
    pub volume: &'a mut RoundVolume,
}

/// Every row `master` reconciles under `live`, ascending: its own block
/// plus the blocks of the dead hosts it adopted. RepModelNaive ships
/// exactly these, both ways.
fn owned_rows(live: &Liveness, n_nodes: usize, master: usize) -> impl Iterator<Item = u32> + '_ {
    let n_hosts = live.n_hosts();
    (0..n_hosts)
        .filter(move |&owner| live.effective_master(owner) == master)
        .flat_map(move |owner| master_block(n_nodes, n_hosts, owner))
}

/// The host that reconciles `node` under `live`.
fn master_of(live: &Liveness, n_nodes: usize, node: u32) -> usize {
    live.effective_master(master_host(n_nodes, live.n_hosts(), node))
}

/// Sizes a row buffer for the current layer (no-op at steady state).
fn fit(buf: &mut Vec<f32>, dim: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(dim, 0.0);
    buf
}

impl<'a> HostRound<'a> {
    /// Opens the round. Any liveness change invalidates every cached id
    /// list and shadow payload; all hosts derive the same view from the
    /// shared fault plan, so every state in the cluster clears on the
    /// same round. Also sorts this round's touched rows by master: the
    /// reduce needs them per peer, the fold needs this host's own.
    pub(crate) fn begin(&mut self) {
        assert!(
            self.cfg.plan != SyncPlan::PullModel || self.access.is_some(),
            "PullModel requires inspection access sets"
        );
        assert!(self.live.is_alive(self.host), "dead hosts do not sync");
        self.wire.observe_liveness(self.live);
        self.scratch.fit(self.replica, self.live.n_hosts());
        let n_nodes = self.replica.n_nodes();
        for (layer, scratch) in self.scratch.layers.iter_mut().enumerate() {
            for &node in self.replica.tracker(layer).touched_nodes() {
                scratch.touched_by_master[master_of(self.live, n_nodes, node)].push(node);
            }
        }
    }

    /// Closes the round: the next one tracks deltas afresh.
    pub(crate) fn end(&mut self) {
        self.replica.clear_tracking();
    }

    /// The alive hosts other than this one, in id order.
    fn peers(&self) -> impl Iterator<Item = usize> + 'a {
        let (live, host) = (self.live, self.host);
        (0..live.n_hosts()).filter(move |&p| p != host && live.is_alive(p))
    }

    /// The one place a transfer is counted: `rows` entries in `bytes`
    /// payload bytes from this host to `to`.
    fn account(&mut self, channel: Channel, to: usize, rows: usize, bytes: usize) {
        let (total_bytes, total_msgs) = match channel {
            Channel::Reduce => (&mut self.stats.reduce_bytes, &mut self.stats.reduce_msgs),
            Channel::Broadcast => (
                &mut self.stats.broadcast_bytes,
                &mut self.stats.broadcast_msgs,
            ),
        };
        *total_bytes += bytes as u64;
        *total_msgs += rows as u64;
        self.volume.record(self.host, to, bytes as u64);
    }

    /// Encodes the staged batch for `to` in whatever form the wire state
    /// picks, accounts it and posts it.
    fn ship_staged(
        &mut self,
        to: usize,
        layer: usize,
        channel: Channel,
        post: &mut Post<'_>,
    ) -> Result<(), ClusterError> {
        let staged = &self.scratch.staged;
        let (payload, value_only) = self.wire.encode(self.host, to, layer, channel, staged);
        self.account(channel, to, staged.count(), payload.len());
        post(to, layer, payload, value_only)
    }

    fn bad_payload(&self, from: usize, layer: usize) -> impl Fn(WireError) -> ClusterError {
        let to = self.host;
        move |source| ClusterError::BadPayload {
            from,
            to,
            layer,
            source,
        }
    }

    /// Ships this host's touched-mirror deltas to their masters: one
    /// payload (possibly empty) per alive peer per layer, so caches and
    /// shadows advance in lockstep on every pair.
    pub(crate) fn send_reduce(&mut self, post: &mut Post<'_>) -> Result<(), ClusterError> {
        for layer in 0..self.replica.n_layers() {
            let dim = self.replica.layers[layer].dim();
            for peer in self.peers() {
                let SyncScratch {
                    layers,
                    delta,
                    staged,
                    ..
                } = &mut *self.scratch;
                let delta = fit(delta, dim);
                let tracker = self.replica.tracker(layer);
                staged.reset(dim);
                for &node in &layers[layer].touched_by_master[peer] {
                    tracker.delta_into(node, self.replica.row(layer, node), delta);
                    staged.push(node, delta);
                }
                if self.cfg.plan == SyncPlan::RepModelNaive {
                    // Dense plan: account every row the peer masters,
                    // ship the touched ones (see `encode_dense_reduce`).
                    let dense: Vec<u32> =
                        owned_rows(self.live, self.replica.n_nodes(), peer).collect();
                    let (payload, bytes) = self
                        .wire
                        .encode_dense_reduce(self.host, peer, layer, &dense, staged);
                    self.account(Channel::Reduce, peer, dense.len(), bytes);
                    post(peer, layer, payload, false)?;
                } else {
                    self.ship_staged(peer, layer, Channel::Reduce, post)?;
                }
            }
        }
        Ok(())
    }

    /// Folds this host's own touches of rows it masters — its turn in
    /// the host-id fold order.
    pub(crate) fn fold_own(&mut self) {
        for layer in 0..self.replica.n_layers() {
            let dim = self.replica.layers[layer].dim();
            let SyncScratch { layers, delta, .. } = &mut *self.scratch;
            let LayerScratch {
                slab,
                updated,
                touched_by_master,
            } = &mut layers[layer];
            let delta = fit(delta, dim);
            let tracker = self.replica.tracker(layer);
            for &node in &touched_by_master[self.host] {
                tracker.delta_into(node, self.replica.row(layer, node), delta);
                slab.acc_mut(node, self.cfg.combiner, dim).push(delta);
                updated.set(node as usize);
            }
        }
    }

    /// Folds the reduce payloads `from` shipped, one per layer.
    pub(crate) fn fold_reduce(
        &mut self,
        from: usize,
        payloads: Payloads<'_, '_>,
    ) -> Result<(), ClusterError> {
        for (layer, payload, value_only) in payloads {
            let dim = self.replica.layers[layer].dim();
            let combiner = self.cfg.combiner;
            let LayerScratch { slab, updated, .. } = &mut self.scratch.layers[layer];
            self.wire
                .decode(
                    from,
                    self.host,
                    layer,
                    Channel::Reduce,
                    payload,
                    value_only,
                    dim,
                    self.replica.n_nodes(),
                    |node, row| {
                        slab.acc_mut(node, combiner, dim).push(row);
                        updated.set(node as usize);
                    },
                )
                .map_err(self.bad_payload(from, layer))?;
        }
        Ok(())
    }

    /// Applies the combined deltas at the rows this host masters:
    /// `canonical = base + combined`.
    pub(crate) fn apply_reduce(&mut self) {
        for layer in 0..self.replica.n_layers() {
            let dim = self.replica.layers[layer].dim();
            let SyncScratch {
                layers, combined, ..
            } = &mut *self.scratch;
            let LayerScratch { slab, updated, .. } = &mut layers[layer];
            let combined = fit(combined, dim);
            let (matrix, tracker) = self.replica.layer_and_tracker_mut(layer);
            for node in updated.iter_ones() {
                let node_u = node as u32;
                slab.finish_into(node_u, combined);
                let row = matrix.row_mut(node);
                if tracker.is_touched(node_u) {
                    row.copy_from_slice(tracker.base_of(node_u));
                }
                (gw2v_util::simd::kernels().add_assign)(row, combined);
            }
            slab.release_all();
        }
    }

    /// Ships canonical rows to every mirror: the rows reconciled this
    /// round (RepModelOpt) or every row this host masters
    /// (RepModelNaive). One staged batch per layer serves all peers.
    pub(crate) fn send_broadcast(&mut self, post: &mut Post<'_>) -> Result<(), ClusterError> {
        for layer in 0..self.replica.n_layers() {
            let SyncScratch { layers, staged, .. } = &mut *self.scratch;
            staged.reset(self.replica.layers[layer].dim());
            match self.cfg.plan {
                SyncPlan::RepModelOpt => {
                    for node in layers[layer].updated.iter_ones() {
                        staged.push(node as u32, self.replica.row(layer, node as u32));
                    }
                }
                SyncPlan::RepModelNaive => {
                    for node in owned_rows(self.live, self.replica.n_nodes(), self.host) {
                        staged.push(node, self.replica.row(layer, node));
                    }
                }
                SyncPlan::PullModel => unreachable!("PullModel answers requests instead"),
            }
            for peer in self.peers() {
                self.ship_staged(peer, layer, Channel::Broadcast, post)?;
            }
        }
        Ok(())
    }

    /// PullModel: asks each owner for the rows this host will access
    /// next round, as bare id lists in node-id order. Control traffic,
    /// like NAKs and frame armor: not accounted.
    pub(crate) fn send_requests(&mut self, post: &mut Post<'_>) -> Result<(), ClusterError> {
        let access = self.access.expect("checked in begin");
        for layer in 0..self.replica.n_layers() {
            let mut lists = vec![Vec::new(); self.live.n_hosts()];
            for node in access.get(self.host, layer).iter_ones() {
                let owner = master_of(self.live, self.replica.n_nodes(), node as u32);
                lists[owner].push(node as u32);
            }
            for peer in self.peers() {
                post(peer, layer, encode_ids(&lists[peer]), false)?;
            }
        }
        Ok(())
    }

    /// PullModel: answers `from`'s request for `layer` with the
    /// requested canonical rows, in request order — whether or not they
    /// were updated (paper: "it sends masters that may not have been
    /// updated").
    pub(crate) fn answer_request(
        &mut self,
        from: usize,
        layer: usize,
        request: &Bytes,
        post: &mut Post<'_>,
    ) -> Result<(), ClusterError> {
        let nodes =
            decode_ids(request, self.replica.n_nodes()).map_err(self.bad_payload(from, layer))?;
        self.scratch.staged.reset(self.replica.layers[layer].dim());
        for node in nodes {
            self.scratch
                .staged
                .push(node, self.replica.row(layer, node));
        }
        self.ship_staged(from, layer, Channel::Broadcast, post)
    }

    /// Overwrites this host's mirror rows with the canonical rows `from`
    /// shipped (a broadcast or a pull response), one payload per layer.
    pub(crate) fn apply_broadcast(
        &mut self,
        from: usize,
        payloads: Payloads<'_, '_>,
    ) -> Result<(), ClusterError> {
        for (layer, payload, value_only) in payloads {
            let dim = self.replica.layers[layer].dim();
            let n_nodes = self.replica.n_nodes();
            let on_bad = self.bad_payload(from, layer);
            let replica = &mut *self.replica;
            self.wire
                .decode(
                    from,
                    self.host,
                    layer,
                    Channel::Broadcast,
                    payload,
                    value_only,
                    dim,
                    n_nodes,
                    |node, row| replica.row_mut_untracked(layer, node).copy_from_slice(row),
                )
                .map_err(on_bad)?;
        }
        Ok(())
    }
}

/// What one sender delivered to one receiver in a phase: `(layer,
/// payload, value_only)`, in layer order.
pub(crate) type Payloads<'a, 'b> = &'a mut dyn Iterator<Item = (usize, &'b Bytes, bool)>;

/// A sending phase, run on each host a process holds.
pub(crate) type Sends<'a> =
    dyn FnMut(&mut HostRound<'_>, &mut Post<'_>) -> Result<(), ClusterError> + 'a;

/// A receiver's turn for one sender of a phase: `(receiver, from,
/// payloads)`.
pub(crate) type Receives<'a> =
    dyn FnMut(&mut HostRound<'_>, usize, Payloads<'_, '_>) -> Result<(), ClusterError> + 'a;

/// How one engine moves a phase's payloads and closes a phase.
pub(crate) trait Transport {
    /// Opens the span the round is traced under.
    fn span(&self) -> Span;

    /// Runs exchange `seq` of the run: each alive host `round` holds
    /// posts through `send`, and each of them takes, through `recv`, one
    /// turn per alive sender in host-id order — its own turn included,
    /// with nothing delivered.
    fn exchange(
        &mut self,
        round: &mut Round<'_>,
        seq: u64,
        send: &mut Sends<'_>,
        recv: &mut Receives<'_>,
    ) -> Result<(), ClusterError>;

    /// Closes a phase: no host goes on before every alive host is here.
    fn barrier(&mut self);
}

/// One process's share of sync round `g`: the hosts it holds (slot `i`
/// of each slice is host `first + i`), the round's constants, and where
/// its hosts' sends are counted.
pub(crate) struct Round<'a> {
    pub cfg: &'a SyncConfig,
    pub live: &'a Liveness,
    /// Every host's next-round access sets (PullModel only).
    pub access: Option<&'a AccessSets>,
    /// The global round: the phase numbers and partitions count it.
    pub g: usize,
    pub first: usize,
    pub replicas: &'a mut [ModelReplica],
    pub wire: &'a mut [WireState],
    pub scratch: &'a mut [SyncScratch],
    /// What the held hosts send, cumulative.
    pub stats: &'a mut CommStats,
    /// What the held hosts sent this round, and to whom.
    pub volume: RoundVolume,
}

impl Round<'_> {
    /// The alive hosts this process holds, ascending.
    pub(crate) fn hosts(&self) -> Vec<usize> {
        (self.first..self.first + self.replicas.len())
            .filter(|&h| self.live.is_alive(h))
            .collect()
    }

    /// Host `h`'s share of the round.
    pub(crate) fn host(&mut self, h: usize) -> HostRound<'_> {
        let i = h - self.first;
        HostRound {
            host: h,
            cfg: self.cfg,
            live: self.live,
            access: self.access,
            replica: &mut self.replicas[i],
            wire: &mut self.wire[i],
            scratch: &mut self.scratch[i],
            stats: self.stats,
            volume: &mut self.volume,
        }
    }
}

/// Runs sync round `round.g` over `transport`: the schedule of the
/// module doc, the phase numbers, and the round's counters — each process
/// counts what its hosts sent, and the one holding the lowest alive host
/// counts the round.
pub(crate) fn drive(
    transport: &mut impl Transport,
    round: &mut Round<'_>,
) -> Result<(), ClusterError> {
    // Inert when metrics are disabled; otherwise times the round and
    // records the byte and message deltas below.
    let mut span = transport.span();
    let before = gw2v_obs::enabled().then_some(*round.stats);
    let hosts = round.hosts();
    let seq = phases_per_round(round.cfg.plan) * round.g as u64;
    for &h in &hosts {
        round.host(h).begin();
    }
    transport.exchange(
        round,
        seq + 1,
        &mut |h, post| h.send_reduce(post),
        &mut |h, from, payloads| {
            if from == h.host {
                h.fold_own();
            }
            h.fold_reduce(from, payloads)
        },
    )?;
    for &h in &hosts {
        round.host(h).apply_reduce();
    }
    transport.barrier();
    let apply: &mut Receives<'_> = &mut |h, from, payloads| h.apply_broadcast(from, payloads);
    if round.cfg.plan == SyncPlan::PullModel {
        // Owners hold their requests across the barrier, which proves
        // every request arrived before any transport forgets what it
        // would resend; then each owner answers in requester order.
        let mut requests: Vec<Vec<(usize, usize, Bytes)>> = vec![Vec::new(); round.live.n_hosts()];
        transport.exchange(
            round,
            seq + 2,
            &mut |h, post| h.send_requests(post),
            &mut |h, from, payloads| {
                let held = payloads.map(|(layer, request, _)| (from, layer, request.clone()));
                requests[h.host].extend(held);
                Ok(())
            },
        )?;
        transport.barrier();
        transport.exchange(
            round,
            seq + 3,
            &mut |h, post| {
                let held = std::mem::take(&mut requests[h.host]);
                held.iter().try_for_each(|(from, layer, request)| {
                    h.answer_request(*from, *layer, request, post)
                })
            },
            apply,
        )?;
    } else {
        transport.exchange(round, seq + 2, &mut |h, post| h.send_broadcast(post), apply)?;
    }
    for &h in &hosts {
        round.host(h).end();
    }
    round.stats.rounds += 1;
    transport.barrier();
    if let Some(before) = before {
        let stats = &*round.stats;
        let reduce_b = stats.reduce_bytes - before.reduce_bytes;
        let bcast_b = stats.broadcast_bytes - before.broadcast_bytes;
        if hosts.first().copied() == (0..round.live.n_hosts()).find(|&h| round.live.is_alive(h)) {
            gw2v_obs::add("gluon.rounds", 1);
        }
        gw2v_obs::add("gluon.reduce_bytes", reduce_b);
        gw2v_obs::add("gluon.broadcast_bytes", bcast_b);
        gw2v_obs::add("gluon.reduce_msgs", stats.reduce_msgs - before.reduce_msgs);
        gw2v_obs::add(
            "gluon.broadcast_msgs",
            stats.broadcast_msgs - before.broadcast_msgs,
        );
        span.field("reduce_bytes", reduce_b as f64);
        span.field("broadcast_bytes", bcast_b as f64);
        span.field("max_host_bytes", round.volume.max_host_bytes() as f64);
        span.field("hosts", hosts.len() as f64);
    }
    Ok(())
}
