//! Log-bucketed histograms with quantile readout.
//!
//! [`LogHistogram`] records non-negative `u64` observations (nanoseconds,
//! bytes, counts) into logarithmically spaced buckets: four sub-buckets
//! per power of two, so any bucket's representative value is within
//! 12.5 % of every observation it absorbed. Recording is lock-free
//! (relaxed atomics) and all counters saturate instead of wrapping, so a
//! histogram can never overflow no matter how long a run is.
//!
//! Quantiles are read back from the bucket counts and clamped to the
//! exact observed `[min, max]` range — a single-sample histogram
//! therefore reports that sample exactly at every quantile.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket resolution: 2 bits → 4 sub-buckets per power of two.
const SUB_BITS: u32 = 2;
/// Number of sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// Bucket count: indices 0–3 hold the exact values 0–3; every later
/// octave (exponents 2..=63) contributes [`SUBS`] buckets.
const N_BUCKETS: usize = 4 + 62 * SUBS as usize;

/// Adds `n` to `cell`, saturating at `u64::MAX` instead of wrapping.
fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// Maps an observation to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        // 0..=3 stored exactly.
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // ilog2(v), e >= 2
        let sub = (v >> (e - SUB_BITS)) & (SUBS - 1);
        (4 + (e as u64 - 2) * SUBS + sub) as usize
    }
}

/// Lower bound (inclusive) and width of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUBS as usize {
        (i as u64, 1)
    } else {
        let e = (i as u64 - 4) / SUBS + 2;
        let sub = (i as u64 - 4) % SUBS;
        let width = 1u64 << (e - SUB_BITS as u64);
        ((1u64 << e) + sub * width, width)
    }
}

/// The midpoint value a bucket reports for everything it absorbed.
fn bucket_mid(i: usize) -> u64 {
    let (lo, width) = bucket_bounds(i);
    lo + width / 2
}

/// A concurrent log-bucketed histogram of `u64` observations.
///
/// See the [module docs](self) for the bucketing scheme. All methods are
/// callable from any thread; recording uses relaxed atomics only.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations (all counters saturate).
    pub(crate) fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        saturating_fetch_add(&self.buckets[bucket_index(v)], n);
        saturating_fetch_add(&self.count, n);
        saturating_fetch_add(&self.sum, v.saturating_mul(n));
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Number of observations (saturating).
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all observations (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Smallest observation, or `None` if empty.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Relaxed))
    }

    /// Largest observation, or `None` if empty.
    pub(crate) fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Relaxed))
    }

    /// Arithmetic mean, or `None` if empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` if the histogram is
    /// empty or `q` is out of range.
    ///
    /// The answer is the representative (midpoint) value of the bucket
    /// holding the rank-`⌈q·(n−1)⌉` observation, clamped to the exact
    /// observed `[min, max]` — so `quantile(0.0)` is exactly `min`,
    /// `quantile(1.0)` exactly `max`, and a single-sample histogram
    /// reports that sample at every `q`.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let n = self.count();
        if n == 0 {
            return None;
        }
        let lo = self.min.load(Relaxed);
        let hi = self.max.load(Relaxed);
        // The extremes are tracked exactly; answer them without consulting
        // the (lossy) buckets.
        if q == 0.0 {
            return Some(lo);
        }
        if q == 1.0 {
            return Some(hi);
        }
        // Rank of the order statistic we want (0-based).
        let target = (q * ((n - 1) as f64)).round() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Relaxed);
            if c == 0 {
                continue;
            }
            seen = seen.saturating_add(c);
            if seen > target {
                return Some(bucket_mid(i).clamp(lo, hi));
            }
        }
        Some(hi)
    }

    /// Clears every counter back to the empty state.
    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }

    /// Point-in-time summary for export.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// A serializable point-in-time summary of a [`LogHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_small_values_exact() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_partition_the_line() {
        // Every bucket's range starts exactly where the previous ended.
        let mut expected_lo = 0u64;
        for i in 0..N_BUCKETS - 1 {
            let (lo, width) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i}");
            expected_lo = lo + width;
        }
    }

    #[test]
    fn bucket_index_respects_bounds() {
        for v in [
            1u64,
            3,
            4,
            5,
            7,
            8,
            100,
            1_000,
            12_345,
            1 << 20,
            (1 << 20) + 17,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let (lo, width) = bucket_bounds(i);
            assert!(
                v >= lo && v - lo < width.max(1),
                "v={v} landed in bucket {i} [{lo}, {lo}+{width})"
            );
        }
    }

    #[test]
    fn relative_error_bounded() {
        // The midpoint representative is within 12.5 % of any member.
        for v in [10u64, 97, 1023, 1025, 1 << 30, (1 << 40) + 123_456] {
            let mid = bucket_mid(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.125, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let h = LogHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(12_345), "q={q}");
        }
        assert_eq!(h.min(), Some(12_345));
        assert_eq!(h.max(), Some(12_345));
        assert_eq!(h.mean(), Some(12_345.0));
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        let h = LogHistogram::new();
        h.record(1);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(1000));
        // Log-bucketed: p50 within one bucket (12.5 %) of the true 500.
        let p50 = h.quantile(0.5).unwrap() as f64;
        assert!((p50 - 500.0).abs() / 500.0 <= 0.125, "p50={p50}");
        let p90 = h.quantile(0.9).unwrap() as f64;
        assert!((p90 - 900.0).abs() / 900.0 <= 0.125, "p90={p90}");
    }

    #[test]
    fn saturating_counts_never_wrap() {
        let h = LogHistogram::new();
        h.record_n(7, u64::MAX);
        h.record_n(7, u64::MAX); // would wrap if counters weren't saturating
        h.record(9);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(9));
        // Quantile readout still terminates and stays in range.
        let q = h.quantile(0.99).unwrap();
        assert!((7..=9).contains(&q));
    }

    #[test]
    fn extreme_values_land_in_last_buckets() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn record_n_zero_is_noop() {
        let h = LogHistogram::new();
        h.record_n(42, 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn reset_restores_empty_state() {
        let h = LogHistogram::new();
        h.record(5);
        h.record(500);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        h.record(3);
        assert_eq!(h.quantile(0.5), Some(3));
    }

    #[test]
    fn concurrent_recording_is_lossless_below_saturation() {
        let h = std::sync::Arc::new(LogHistogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
