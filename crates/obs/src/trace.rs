//! Structured span tracing.
//!
//! A [`TraceEvent`] is one timed, scoped observation: a name (what ran),
//! an optional epoch/round/host scope (where in the BSP schedule it ran),
//! the measured wall time, an optional *virtual* time (the modeled
//! cluster time the paper's figures plot — see DESIGN.md §"Observability"
//! for how the two compose), and free-form numeric fields (bytes moved,
//! pairs trained, …).
//!
//! Events are produced either directly ([`crate::event`]) or through the
//! RAII [`Span`] guard ([`crate::span`]), and buffered in a process-wide
//! [`TraceSink`] until exported as JSONL (`GW2V_TRACE_OUT`, see
//! [`crate::flush_trace`]). While metrics are disabled a span neither
//! reads the clock nor touches the sink.

use serde::{Serialize, Value};
use std::sync::Mutex;
use std::time::Instant;

/// One structured trace record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceEvent {
    /// What this event measures (e.g. `"core.round"`, `"gluon.sync"`).
    pub name: String,
    /// Epoch index, when the event is scoped to one.
    pub epoch: Option<u64>,
    /// Synchronization-round index within the run.
    pub round: Option<u64>,
    /// Host id, when the event is host-scoped.
    pub host: Option<u64>,
    /// Measured wall-clock duration in seconds.
    pub wall_s: f64,
    /// Modeled virtual duration in seconds (compute-max + α–β network
    /// time), when the event has one.
    pub virtual_s: Option<f64>,
    /// Additional numeric payload (bytes, message counts, rates, …),
    /// flattened into the JSONL object alongside the fixed keys.
    pub fields: Vec<(String, f64)>,
}

impl TraceEvent {
    /// Creates an event with the given name and zero wall time.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }
}

// Hand-written (the vendored derive does not flatten): emits one flat
// JSON object so a JSONL line is grep/jq-friendly.
impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut entries = vec![("name".to_owned(), Value::Str(self.name.clone()))];
        if let Some(e) = self.epoch {
            entries.push(("epoch".to_owned(), Value::UInt(e)));
        }
        if let Some(r) = self.round {
            entries.push(("round".to_owned(), Value::UInt(r)));
        }
        if let Some(h) = self.host {
            entries.push(("host".to_owned(), Value::UInt(h)));
        }
        entries.push(("wall_s".to_owned(), Value::Float(self.wall_s)));
        if let Some(v) = self.virtual_s {
            entries.push(("virtual_s".to_owned(), Value::Float(v)));
        }
        for (k, v) in &self.fields {
            entries.push((k.clone(), Value::Float(*v)));
        }
        Value::Map(entries)
    }
}

/// A bounded, process-wide buffer of [`TraceEvent`]s.
///
/// The cap (1 M events) only exists so a pathological run cannot grow
/// without bound; at the paper's scales a full experiment emits a few
/// thousand events.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

/// Hard cap on buffered events; pushes beyond it are dropped.
const MAX_BUFFERED_EVENTS: usize = 1 << 20;

impl TraceSink {
    /// Buffers one event (dropped if the sink is at capacity).
    pub(crate) fn push(&self, ev: TraceEvent) {
        let mut events = self.events.lock().expect("trace sink poisoned");
        if events.len() < MAX_BUFFERED_EVENTS {
            events.push(ev);
        }
    }

    /// Removes and returns all buffered events.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink poisoned"))
    }

    /// Number of buffered events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// True when nothing is buffered.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII guard that records a [`TraceEvent`] with measured wall time when
/// dropped. Created by [`crate::span`]; inert (no clock reads, no sink
/// writes) when metrics were disabled at creation time.
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    start: Instant,
    ev: TraceEvent,
}

impl Span {
    pub(crate) fn started(name: &str) -> Self {
        Span(Some(SpanInner {
            start: Instant::now(),
            ev: TraceEvent::new(name),
        }))
    }

    pub(crate) fn disabled() -> Self {
        Span(None)
    }

    /// Scopes the span to an epoch.
    pub fn epoch(mut self, e: usize) -> Self {
        if let Some(i) = &mut self.0 {
            i.ev.epoch = Some(e as u64);
        }
        self
    }

    /// Scopes the span to a synchronization round.
    pub fn round(mut self, r: usize) -> Self {
        if let Some(i) = &mut self.0 {
            i.ev.round = Some(r as u64);
        }
        self
    }

    /// Scopes the span to a host.
    pub fn host(mut self, h: usize) -> Self {
        if let Some(i) = &mut self.0 {
            i.ev.host = Some(h as u64);
        }
        self
    }

    /// Attaches a numeric field to the eventual event.
    pub fn field(&mut self, key: &str, value: f64) {
        if let Some(i) = &mut self.0 {
            i.ev.fields.push((key.to_owned(), value));
        }
    }

    /// Records the span's modeled virtual duration.
    pub fn virtual_secs(&mut self, v: f64) {
        if let Some(i) = &mut self.0 {
            i.ev.virtual_s = Some(v);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut inner) = self.0.take() {
            inner.ev.wall_s = inner.start.elapsed().as_secs_f64();
            crate::obs().trace.push(inner.ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_push_drain() {
        let sink = TraceSink::default();
        assert!(sink.is_empty());
        sink.push(TraceEvent::new("a"));
        sink.push(TraceEvent::new("b"));
        assert_eq!(sink.len(), 2);
        let evs = sink.drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert!(sink.is_empty());
    }

    #[test]
    fn event_serializes_flat() {
        let ev = TraceEvent {
            name: "core.round".into(),
            epoch: Some(1),
            round: Some(3),
            host: None,
            wall_s: 0.5,
            virtual_s: Some(0.25),
            fields: vec![("bytes".into(), 1024.0)],
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.contains("\"name\":\"core.round\""), "{json}");
        assert!(json.contains("\"round\":3"), "{json}");
        assert!(json.contains("\"bytes\":1024.0"), "{json}");
        assert!(!json.contains("host"), "absent scope omitted: {json}");
    }
}
