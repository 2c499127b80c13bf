//! Network cost model.
//!
//! This reproduction runs all hosts on one machine, so wall-clock time
//! cannot show network behaviour. Instead, every byte that crosses the
//! simulated wire is counted exactly ([`crate::volume`]), and this model
//! converts a round's measured volume into the time the paper's fabric —
//! 56 Gb/s InfiniBand between Azure hosts (paper §5.1) — would have
//! spent:
//!
//! ```text
//! t_round = 2·latency + max_h(sent_h + recv_h) / bandwidth
//! ```
//!
//! The `2·latency` term charges one fabric round-trip per phase (reduce,
//! broadcast); the volume term charges the bottleneck host's traffic,
//! assuming a full-duplex non-blocking switch (all hosts transfer
//! concurrently, so the busiest port dominates). This is the standard
//! α-β (latency–bandwidth) model of collective-communication analysis.

use crate::volume::RoundVolume;
use gw2v_faults::FaultPlan;
use serde::{Deserialize, Serialize};

/// Exponent cap for [`nak_backoff_secs`]: backoff grows `2^k` per NAK
/// round up to `2^4 = 16×` the base delay, bounding worst-case silence
/// while still spreading retry load.
pub(crate) const NAK_BACKOFF_EXP_CAP: u32 = 4;

/// Deterministic exponential NAK backoff with seeded jitter.
///
/// The silence a receiver's slot NAKed `nak_round` times tolerates
/// before its next NAK (`crate::inbox`):
/// `base · 2^min(nak_round, cap) · (1 + ½·jitter)`, where the jitter is
/// a pure `[0, 1)` hash of `(plan seed, waiter, seq, nak_round)`
/// ([`FaultPlan::backoff_jitter`]). Attempt-indexed and coordinate-
/// hashed, so the sequential simulator and the threaded cluster draw
/// identical schedules for the same plan — wall-clock never enters.
pub(crate) fn nak_backoff_secs(
    plan: &FaultPlan,
    base_secs: f64,
    waiter: usize,
    seq: u64,
    nak_round: u32,
) -> f64 {
    let mult = (1u64 << nak_round.min(NAK_BACKOFF_EXP_CAP)) as f64;
    base_secs * mult * (1.0 + 0.5 * plan.backoff_jitter(waiter, seq, nak_round))
}

/// α–β network cost model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Link bandwidth in bytes/second (per host port, full duplex).
    pub bandwidth_bytes_per_sec: f64,
    /// One-way message latency in seconds (α).
    pub latency_sec: f64,
    /// Fixed per-phase software overhead in seconds (marshalling, MPI
    /// stack); charged once per phase like latency.
    pub per_phase_overhead_sec: f64,
}

impl CostModel {
    /// The paper's fabric: 56 Gb/s InfiniBand (§5.1). Effective bandwidth
    /// is taken at ~80% of line rate (5.6 GB/s), latency at 2 µs, plus a
    /// 50 µs per-phase software overhead.
    pub fn infiniband_56g() -> Self {
        Self {
            bandwidth_bytes_per_sec: 0.8 * 56.0e9 / 8.0,
            latency_sec: 2.0e-6,
            per_phase_overhead_sec: 50.0e-6,
        }
    }

    /// Modeled communication time for one synchronization round.
    pub(crate) fn round_time(&self, volume: &RoundVolume) -> f64 {
        if volume.total_bytes() == 0 {
            return 0.0;
        }
        let bottleneck = volume.max_host_bytes() as f64;
        2.0 * (self.latency_sec + self.per_phase_overhead_sec)
            + bottleneck / self.bandwidth_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_volume_costs_nothing() {
        let m = CostModel::infiniband_56g();
        let v = RoundVolume::new(4);
        assert_eq!(m.round_time(&v), 0.0);
    }

    #[test]
    fn volume_term_dominates_large_transfers() {
        let m = CostModel::infiniband_56g();
        let mut v = RoundVolume::new(2);
        v.record(0, 1, 5_600_000_000); // 5.6 GB at ~5.6 GB/s ≈ 1 s
        let t = m.round_time(&v);
        assert!((0.9..1.3).contains(&t), "t = {t}");
    }

    #[test]
    fn latency_floor_for_small_messages() {
        let m = CostModel::infiniband_56g();
        let mut v = RoundVolume::new(2);
        v.record(0, 1, 8);
        let t = m.round_time(&v);
        let floor = 2.0 * (m.latency_sec + m.per_phase_overhead_sec);
        assert!(t >= floor);
        assert!(t < floor * 1.01);
    }

    #[test]
    fn bottleneck_host_not_total_drives_cost() {
        let m = CostModel::infiniband_56g();
        // Balanced: 4 hosts each send 1 GB to distinct peers.
        let mut balanced = RoundVolume::new(4);
        balanced.record(0, 1, 1 << 30);
        balanced.record(1, 0, 1 << 30);
        balanced.record(2, 3, 1 << 30);
        balanced.record(3, 2, 1 << 30);
        // Skewed: one host receives everything.
        let mut skewed = RoundVolume::new(4);
        skewed.record(0, 3, 1 << 30);
        skewed.record(1, 3, 1 << 30);
        skewed.record(2, 3, 1 << 30);
        skewed.record(3, 0, 1 << 30);
        assert!(m.round_time(&skewed) > m.round_time(&balanced));
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let plan = FaultPlan::parse("seed=5").unwrap();
        let base = 0.01;
        for nr in 0..10u32 {
            let w = nak_backoff_secs(&plan, base, 1, 3, nr);
            let mult = (1u64 << nr.min(NAK_BACKOFF_EXP_CAP)) as f64;
            // Jitter adds at most 50% on top of the exponential step.
            assert!(w >= base * mult && w < base * mult * 1.5, "round {nr}: {w}");
            assert_eq!(w, nak_backoff_secs(&plan, base, 1, 3, nr), "deterministic");
        }
    }
}
