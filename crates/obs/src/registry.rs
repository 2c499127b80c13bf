//! The metrics registry: named counters, gauges, and histograms.
//!
//! A [`MetricsRegistry`] is a name → instrument map guarded by one mutex;
//! the mutex is taken only when an instrument handle is created or a
//! snapshot is read. The handles themselves ([`Counter`], [`Gauge`],
//! [`Histogram`]) are cheap `Arc`s over atomics and can be cached across
//! rounds by hot code. Every recording method first checks the global
//! [`crate::enabled`] flag — one relaxed atomic load — so a disabled
//! registry costs a predicted branch per call site and nothing else.

use crate::hist::{HistSummary, LogHistogram};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter handle.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.cell.fetch_add(n, Relaxed);
        }
    }

    /// Adds 1 (no-op while metrics are disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[cfg(test)]
    pub(crate) fn value(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// A last-write-wins `f64` gauge handle (stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Relaxed);
        }
    }

    /// Current value.
    #[cfg(test)]
    pub(crate) fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

/// A handle to a log-bucketed histogram (see [`LogHistogram`]).
#[derive(Clone, Debug)]
pub struct Histogram {
    hist: Arc<LogHistogram>,
}

impl Histogram {
    /// Records one observation (no-op while metrics are disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if crate::enabled() {
            self.hist.record(v);
        }
    }

    /// Records a duration in integer nanoseconds.
    #[inline]
    pub fn observe_secs(&self, secs: f64) {
        self.observe((secs.max(0.0) * 1e9) as u64);
    }

    /// Read access to the underlying histogram.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &LogHistogram {
        &self.hist
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    hists: BTreeMap<String, Arc<LogHistogram>>,
}

/// A named collection of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Returns (registering on first use) the counter called `name`.
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let cell = inner
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Arc::clone(cell),
        }
    }

    /// Returns (registering on first use) the gauge called `name`.
    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let cell = inner
            .gauges
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0.0f64.to_bits())));
        Gauge {
            bits: Arc::clone(cell),
        }
    }

    /// Returns (registering on first use) the histogram called `name`.
    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let cell = inner
            .hists
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(LogHistogram::new()));
        Histogram {
            hist: Arc::clone(cell),
        }
    }

    /// A serializable point-in-time snapshot of every instrument.
    ///
    /// Instruments that never recorded anything are omitted, so the
    /// snapshot reflects what actually ran.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Relaxed)))
                .filter(|&(_, v)| v != 0)
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Relaxed))))
                .filter(|&(_, v)| v != 0.0)
                .collect(),
            histograms: inner
                .hists
                .iter()
                .filter(|(_, h)| h.count() > 0)
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// Zeroes every instrument (handles stay valid).
    pub(crate) fn reset(&self) {
        let inner = self.inner.lock().expect("registry poisoned");
        for c in inner.counters.values() {
            c.store(0, Relaxed);
        }
        for g in inner.gauges.values() {
            g.store(0.0f64.to_bits(), Relaxed);
        }
        for h in inner.hists.values() {
            h.reset();
        }
    }
}

/// A serializable snapshot of a [`MetricsRegistry`] — the uniform
/// `metrics` block embedded in every benchmark JSON record.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name (non-zero only).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (non-zero only).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name (non-empty only).
    pub histograms: BTreeMap<String, HistSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests toggle the global enabled flag; they live in one #[test]
    // body to avoid interleaving with each other.
    #[test]
    fn registry_roundtrip() {
        let _flag = crate::FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = MetricsRegistry::default();
        crate::set_enabled(true);

        let c = r.counter("pairs");
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        // Same name → same instrument.
        assert_eq!(r.counter("pairs").value(), 4);

        let g = r.gauge("lr");
        g.set(0.025);
        assert_eq!(g.value(), 0.025);

        let h = r.histogram("round_ns");
        h.observe(1000);
        h.observe(3000);
        assert_eq!(h.inner().count(), 2);

        let snap = r.snapshot();
        assert_eq!(snap.counters["pairs"], 4);
        assert_eq!(snap.gauges["lr"], 0.025);
        assert_eq!(snap.histograms["round_ns"].count, 2);

        // Disabled handles are inert but readable.
        crate::set_enabled(false);
        c.add(100);
        g.set(9.0);
        h.observe(5);
        assert_eq!(c.value(), 4);
        assert_eq!(g.value(), 0.025);
        assert_eq!(h.inner().count(), 2);

        // Reset zeroes everything; untouched instruments are omitted.
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
