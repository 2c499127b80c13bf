//! # gw2v-gluon
//!
//! The communication substrate — the Gluon analogue (paper §2.4, §4.3,
//! §4.4) specialized for synchronizing replicated vector models across
//! simulated hosts.
//!
//! The model is fully replicated (every host has a proxy for every node,
//! paper §4.2); masters are assigned in contiguous blocks. Each
//! synchronization round runs the Gluon protocol:
//!
//! 1. hosts compute *deltas* for the nodes they touched since the last
//!    sync (current value minus the snapshot taken on first touch);
//! 2. **reduce** — touched mirror deltas are shipped to the node's master
//!    host and folded together with a [`gw2v_combiner::CombinerKind`]
//!    (Sum / Avg / the paper's Model Combiner);
//! 3. **broadcast** — reconciled canonical values are shipped back to
//!    mirrors.
//!
//! Three communication plans reproduce the paper's variants (§4.4):
//! [`SyncPlan::RepModelNaive`] ships everything both ways;
//! [`SyncPlan::RepModelOpt`] ships only touched/updated nodes (bit-vector
//! sparse); [`SyncPlan::PullModel`] additionally restricts the broadcast
//! to the nodes each host will access in its *next* round, supplied by an
//! inspection pass. All three plans produce bit-identical models — they
//! differ only in bytes moved — and tests pin that invariant.
//!
//! The round is written once (`round.rs`): one host's side of it (send
//! reduce → fold in host-id order → apply at masters → broadcast or pull
//! → apply), reaching the payload modes only through the
//! [`wire::WireState`] encode/decode seam, and the one driver of its
//! phase schedule, phase numbers and counters over a transport. Two
//! transports sit under it (docs/WIRE.md § engine parity is the contract
//! between them), each with its round entry:
//!
//! * [`sync::sync_round_degraded`] — the simulator: every alive host in
//!   one thread, a phase sender by sender in host-id order over
//!   in-process mailboxes. Exact and reproducible; all scaling
//!   experiments use it, and it prices each round with a
//!   [`cost::CostModel`], converting counted bytes and fault resends into
//!   modeled network time (this reproduction runs on a single machine —
//!   see DESIGN.md §1).
//! * [`threaded::sync_round_threaded_degraded`] — one OS thread per host
//!   ([`threaded::run_cluster`]) exchanging CRC-sealed frames over
//!   crossbeam channels, a crash-aware barrier between phases, NAK/resend
//!   under a fault plan.
//!
//! Every host carries one [`sync::SyncScratch`] and one
//! [`wire::WireState`] across rounds in either engine, so the
//! fold/apply path runs without steady-state heap allocation.

#![deny(missing_docs)]
// Index-driven loops across parallel per-host arrays are clearer than
// iterator chains in the synchronization protocol code.
#![allow(clippy::needless_range_loop)]

pub mod cost;
mod inbox;
pub mod liveness;
pub mod plan;
pub mod replica;
mod round;
pub mod sync;
pub mod threaded;
pub mod volume;
pub mod wire;

pub use liveness::Liveness;
pub use plan::{AccessSets, SyncConfig, SyncPlan};
pub use replica::ModelReplica;
pub use threaded::ClusterConfig;
pub use volume::CommStats;
pub use wire::WireMode;
