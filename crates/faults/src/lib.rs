//! # gw2v-faults
//!
//! Deterministic fault injection for the distributed engines.
//!
//! The paper's D-Galois deployment ran on 32 real Azure hosts, where
//! stragglers, dropped packets and host failures are facts of life. This
//! crate provides the *injection* half of the reproduction's
//! fault-tolerance story: a seeded [`FaultPlan`] describing which faults
//! strike where, evaluated as a **pure function of coordinates** — never
//! of wall-clock time, thread scheduling or query order — so a chaos run
//! is exactly as reproducible as a faultless one.
//!
//! Faults modeled:
//!
//! * **Message drops** — a per-attempt Bernoulli coin; the threaded
//!   cluster really withholds the frame, the BSP simulator's mailboxes
//!   count the resend and charge its virtual time.
//! * **Payload bit-flips** — a deterministic bit of the sealed frame;
//!   the CRC-32 wire frame (gw2v-gluon) is guaranteed to detect it.
//! * **Host crashes** — [`FaultPlan::crash_round`] kills a host at the
//!   start of a chosen global sync round; a surviving host adopts its
//!   corpus shard and master block.
//! * **Straggler delays** — [`FaultPlan::straggler_delay`] slows one
//!   host's compute phase in chosen rounds (a real `sleep` on the
//!   threaded engine, virtual seconds on the simulator).
//! * **Process kills** — [`FaultPlan::kill_after_epoch`] stops the whole
//!   training run after an epoch boundary, standing in for SIGKILL in
//!   checkpoint/resume tests.
//! * **Network partitions** — withhold cross-group data frames for a
//!   round range; the trainer's
//!   [`OnPartition`] policy decides between stalling on the NAK loop and
//!   degrading to dormant-unreachable peers with deterministic healing.
//! * **Duplicate deliveries** — a clean frame delivered twice,
//!   exercising the receiver's attempt-dedup path.
//! * **Send reordering** — [`FaultPlan::reorder`] defers a frame to the
//!   end of its phase's send sequence, shuffling per-channel delivery
//!   order (model bits are fold-order-canonical, so unchanged).
//!
//! Partitions, drops, flips and dups strike one delivery attempt of a
//! data frame, and [`FaultPlan::attempt`] is the one place that decides
//! which: both cluster engines draw its chain of attempts, so they inject
//! the same faults by construction.
//!
//! Plans parse from a compact spec string (`GW2V_FAULT_PLAN` /
//! `--fault-plan`), e.g.:
//!
//! ```text
//! seed=42,drop=0.02,flip=0.001,crash=1@3,straggle=2@1x50ms,kill=2
//! ```
//!
//! Every injected, detected and recovered fault event is counted through
//! [`gw2v_obs`] under the [`counters`] names, so chaos runs are auditable
//! from the metrics snapshot alone.

#![deny(missing_docs)]

pub mod counters;
mod plan;

pub use plan::{
    Attempt, CrashSpec, FaultPlan, OnPartition, PartitionSpec, PlanParseError, RejoinSpec,
    StragglerSpec, PARTITION_STALL_ATTEMPTS,
};
