//! Learning-rate schedule.
//!
//! The C implementation decays the learning rate linearly with global
//! progress: `α = α₀ · max(min_frac, 1 − processed/(epochs·total + 1))`,
//! re-evaluated periodically as training advances. In the distributed
//! setting each host observes only its own progress; since shards are
//! token-balanced, `own_processed · n_hosts` estimates global progress
//! (this is also how the multi-threaded C code's shared `word_count_actual`
//! behaves). The paper's Algorithm 1 decays once per epoch; evaluating
//! the same linear formula continuously is the C-compatible refinement
//! and makes the 1-host distributed run match the sequential baseline
//! exactly.

use serde::{Deserialize, Serialize};

/// Linear decay schedule.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LrSchedule {
    /// Starting learning rate α₀.
    pub alpha0: f32,
    /// Floor as a fraction of α₀.
    pub min_frac: f32,
    /// Total tokens per epoch across all hosts.
    pub total_tokens: u64,
    /// Number of epochs.
    pub epochs: usize,
}

impl LrSchedule {
    /// Creates a schedule.
    pub fn new(alpha0: f32, min_frac: f32, total_tokens: u64, epochs: usize) -> Self {
        Self {
            alpha0,
            min_frac,
            total_tokens,
            epochs,
        }
    }

    /// Learning rate after `processed_global` tokens of global progress.
    #[inline]
    pub(crate) fn alpha_at(&self, processed_global: u64) -> f32 {
        let denom = self.epochs as f64 * self.total_tokens as f64 + 1.0;
        let frac = 1.0 - processed_global as f64 / denom;
        (self.alpha0 as f64 * frac.max(self.min_frac as f64)) as f32
    }

    /// Learning rate for a host that has processed `own` tokens out of a
    /// cluster of `n_hosts` (global progress estimated as `own·n_hosts`).
    #[inline]
    pub fn alpha_for_host(&self, own_processed: u64, n_hosts: usize) -> f32 {
        self.alpha_at(own_processed * n_hosts as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_alpha0() {
        let s = LrSchedule::new(0.025, 1e-4, 1000, 4);
        assert_eq!(s.alpha_at(0), 0.025);
    }

    #[test]
    fn decays_linearly() {
        let s = LrSchedule::new(0.1, 1e-4, 1000, 1);
        let half = s.alpha_at(500);
        assert!((half - 0.05).abs() < 1e-3, "{half}");
    }

    #[test]
    fn never_below_floor() {
        let s = LrSchedule::new(0.025, 1e-4, 100, 1);
        let end = s.alpha_at(10_000);
        assert!((end - 0.025 * 1e-4).abs() < 1e-9);
    }

    #[test]
    fn host_estimate_scales() {
        let s = LrSchedule::new(0.02, 1e-4, 3200, 2);
        // 4 hosts, each processed 800 of 3200/epoch → global 3200 of 6400.
        let a = s.alpha_for_host(800, 4);
        assert!((a - 0.01).abs() < 1e-4, "{a}");
        // Equivalent to a single host having processed 3200.
        assert_eq!(a, s.alpha_at(3200));
    }

    #[test]
    fn monotone_nonincreasing() {
        let s = LrSchedule::new(0.05, 1e-4, 500, 3);
        let mut prev = f32::INFINITY;
        for p in (0..3000).step_by(100) {
            let a = s.alpha_at(p);
            assert!(a <= prev);
            prev = a;
        }
    }
}
