//! `gw2v-obs`: the observability layer for the GraphWord2Vec workspace.
//!
//! One process-wide [`MetricsRegistry`] (counters, gauges, log-bucketed
//! histograms) plus a structured [`trace`] sink, both behind a single
//! global on/off switch that makes every instrument an almost-free no-op
//! when disabled:
//!
//! - **Disabled** (the default): every recording call is one relaxed
//!   atomic load and a predicted branch. Spans never read the clock.
//!   This is the contract that lets the hot layers (`gw2v-gluon` rounds,
//!   `gw2v-core` trainers, `gw2v-serve` batches) stay permanently
//!   instrumented.
//! - **Enabled** (via [`set_enabled`] or `GW2V_METRICS=1`): counters and
//!   histograms record through relaxed atomics on cached handles; spans
//!   measure wall time and buffer [`trace::TraceEvent`]s for JSONL
//!   export ([`flush_trace`], `GW2V_TRACE_OUT`).
//!
//! Instrumentation only *reads* the computation — it never touches RNG
//! streams or model values — so enabling metrics cannot perturb results;
//! `tests/obs_overhead.rs` asserts trained embeddings are bit-identical
//! with metrics off and on.
//!
//! # Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | `GW2V_METRICS` | `1`/`true`/`on`/`yes` enables metrics at first use |
//! | `GW2V_TRACE_OUT` | Path for the JSONL trace written by [`flush_trace`] |
//! | `GW2V_GIT_SHA` | Overrides git discovery in [`provenance()`] |
//!
//! # Quick use
//!
//! ```
//! gw2v_obs::set_enabled(true);
//! let pairs = gw2v_obs::counter("core.pairs");   // cache me in hot loops
//! pairs.add(128);
//! {
//!     let mut span = gw2v_obs::span("core.round").round(0);
//!     span.field("bytes", 4096.0);
//!     // ... timed work ...
//! }
//! let snap = gw2v_obs::snapshot();
//! assert_eq!(snap.counters["core.pairs"], 128);
//! gw2v_obs::set_enabled(false);
//! # gw2v_obs::reset();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod provenance;
pub mod registry;
pub mod trace;

pub use hist::LogHistogram;
pub use provenance::{provenance, Provenance};
pub use registry::MetricsSnapshot;
pub use trace::TraceEvent;

use registry::{Counter, Gauge, Histogram, MetricsRegistry};
use trace::{Span, TraceSink};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::OnceLock;

/// The process-wide observability state: one registry, one trace sink.
#[derive(Debug, Default)]
pub struct Obs {
    /// The global metrics registry.
    pub registry: MetricsRegistry,
    /// The global trace sink.
    pub trace: TraceSink,
}

static OBS: OnceLock<Obs> = OnceLock::new();

/// The process-wide [`Obs`] instance (created on first use).
pub fn obs() -> &'static Obs {
    OBS.get_or_init(Obs::default)
}

// 0 = uninitialised (consult GW2V_METRICS on first check), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether metrics are currently enabled.
///
/// This is the single branch every instrument takes; when it returns
/// `false` nothing else runs. The first call resolves the `GW2V_METRICS`
/// environment variable; afterwards it is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("GW2V_METRICS")
        .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
        .unwrap_or(false);
    let state = if on { 2 } else { 1 };
    // Lose the race gracefully: a concurrent set_enabled wins.
    let _ = ENABLED.compare_exchange(0, state, Relaxed, Relaxed);
    ENABLED.load(Relaxed) == 2
}

/// Turns metrics on or off programmatically (overrides `GW2V_METRICS`).
///
/// Benchmarks and tests use this instead of mutating the environment,
/// which is not thread-safe.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Relaxed);
}

/// Shorthand for `MetricsRegistry::counter` on the global registry.
///
/// Handle creation takes the registry mutex — hot code should call this
/// once and cache the returned [`Counter`].
pub fn counter(name: &str) -> Counter {
    obs().registry.counter(name)
}

/// Shorthand for `MetricsRegistry::gauge` on the global registry.
pub fn gauge(name: &str) -> Gauge {
    obs().registry.gauge(name)
}

/// Shorthand for `MetricsRegistry::histogram` on the global registry.
pub fn histogram(name: &str) -> Histogram {
    obs().registry.histogram(name)
}

/// Adds `n` to the named global counter (uncached; prefer a cached
/// [`Counter`] handle in hot loops).
pub fn add(name: &str, n: u64) {
    if enabled() {
        obs().registry.counter(name).add(n);
    }
}

/// Sets the named global gauge (uncached convenience).
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        obs().registry.gauge(name).set(v);
    }
}

/// Records one observation in the named global histogram (uncached
/// convenience).
pub fn observe(name: &str, v: u64) {
    if enabled() {
        obs().registry.histogram(name).observe(v);
    }
}

/// Buffers a fully-formed [`TraceEvent`] (dropped while disabled).
pub fn event(ev: TraceEvent) {
    if enabled() {
        obs().trace.push(ev);
    }
}

/// Starts a [`Span`] that records its wall time to the trace sink when
/// dropped. While metrics are disabled the span is inert: it does not
/// read the clock and its builder/field methods do nothing.
pub fn span(name: &str) -> Span {
    if enabled() {
        Span::started(name)
    } else {
        Span::disabled()
    }
}

/// Snapshot of the global registry (see `MetricsRegistry::snapshot`).
pub fn snapshot() -> MetricsSnapshot {
    obs().registry.snapshot()
}

/// Zeroes the global registry and discards buffered trace events.
pub fn reset() {
    obs().registry.reset();
    obs().trace.drain();
}

/// Renders the global registry as human-readable summary tables (see
/// `export::summary_table`).
pub fn summary() -> String {
    export::summary_table(&snapshot())
}

/// Drains the global trace sink to a JSONL file.
///
/// The destination is `path` if given, else the `GW2V_TRACE_OUT`
/// environment variable; with neither, buffered events are discarded.
/// Returns the number of events written.
pub fn flush_trace(path: Option<&std::path::Path>) -> std::io::Result<usize> {
    let dest: Option<PathBuf> = match path {
        Some(p) => Some(p.to_path_buf()),
        None => std::env::var_os("GW2V_TRACE_OUT").map(PathBuf::from),
    };
    let events = obs().trace.drain();
    match dest {
        Some(p) if !events.is_empty() => {
            export::write_trace_jsonl(&p, &events)?;
            Ok(events.len())
        }
        _ => Ok(0),
    }
}

/// Serialises the tests of this crate that toggle the global enabled
/// flag: `cargo test` runs them on parallel threads.
#[cfg(test)]
pub(crate) static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // One test body: these manipulate the global enabled flag and
    // registry, which other tests in this crate also touch.
    #[test]
    fn global_api_roundtrip() {
        let _flag = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        assert!(enabled());

        add("t.counter", 5);
        gauge_set("t.gauge", 1.5);
        observe("t.hist", 42);
        {
            let mut s = span("t.span").epoch(0).round(1).host(2);
            s.field("x", 3.0);
            s.virtual_secs(0.125);
        }
        event(TraceEvent::new("t.event"));

        let snap = snapshot();
        assert_eq!(snap.counters["t.counter"], 5);
        assert_eq!(snap.gauges["t.gauge"], 1.5);
        assert_eq!(snap.histograms["t.hist"].count, 1);
        assert_eq!(obs().trace.len(), 2);

        // flush_trace with an explicit path writes JSONL and drains.
        let path = std::env::temp_dir().join("gw2v_obs_lib_test_trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let n = flush_trace(Some(&path)).unwrap();
        assert_eq!(n, 2);
        assert!(obs().trace.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"t.span\""), "{text}");
        assert!(text.contains("\"virtual_s\":0.125"), "{text}");
        let _ = std::fs::remove_file(&path);

        // Disabled: everything inert.
        set_enabled(false);
        add("t.counter", 100);
        {
            let mut s = span("t.span");
            s.field("ignored", 1.0);
        }
        assert_eq!(snapshot().counters["t.counter"], 5);
        assert!(obs().trace.is_empty());

        reset();
        assert!(snapshot().counters.is_empty());
    }
}
