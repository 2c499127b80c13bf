//! Exporters: JSONL trace files and end-of-run summary tables.
//!
//! Two consumers read the observability data: machines (the JSONL trace
//! and the `metrics` block in `results/*.json`) and humans (the summary
//! table printed at the end of a run). Both render the same snapshot.

use crate::registry::MetricsSnapshot;
use crate::trace::TraceEvent;
use gw2v_util::table::{Align, Table};
use std::io::Write;
use std::path::Path;

/// Writes trace events as JSONL (one compact JSON object per line),
/// appending to `path` so multiple runs can share one trace file.
pub(crate) fn write_trace_jsonl(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = std::io::BufWriter::new(file);
    for ev in events {
        let line = serde_json::to_string(ev).expect("trace event serializes");
        writeln!(w, "{line}")?;
    }
    w.flush()
}

/// Renders a human-readable summary of a metrics snapshot: one aligned
/// ASCII table per instrument kind (counters, gauges, histograms), in
/// name order. Empty sections are omitted; an entirely empty snapshot
/// renders a one-line note instead.
pub(crate) fn summary_table(snap: &MetricsSnapshot) -> String {
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
        return "metrics: no instruments recorded\n".to_owned();
    }
    let mut out = String::new();
    if !snap.counters.is_empty() {
        let mut t = Table::new(vec!["counter", "value"]).with_aligns(&[Align::Left, Align::Right]);
        for (name, v) in &snap.counters {
            t.add_row(vec![name.clone(), v.to_string()]);
        }
        out.push_str(&t.render());
    }
    if !snap.gauges.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let mut t = Table::new(vec!["gauge", "value"]).with_aligns(&[Align::Left, Align::Right]);
        for (name, v) in &snap.gauges {
            t.add_row(vec![name.clone(), format!("{v:.6}")]);
        }
        out.push_str(&t.render());
    }
    if !snap.histograms.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let mut t = Table::new(vec![
            "histogram",
            "count",
            "mean",
            "p50",
            "p90",
            "p99",
            "max",
        ])
        .with_aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for (name, h) in &snap.histograms {
            t.add_row(vec![
                name.clone(),
                h.count.to_string(),
                format!("{:.1}", h.mean),
                h.p50.to_string(),
                h.p90.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    #[test]
    fn summary_table_sections() {
        let mut snap = MetricsSnapshot::default();
        assert!(summary_table(&snap).contains("no instruments"));

        snap.counters.insert("core.pairs".into(), 1234);
        snap.gauges.insert("core.lr".into(), 0.025);
        let h = LogHistogram::new();
        h.record(100);
        h.record(200);
        snap.histograms
            .insert("gluon.barrier_ns".into(), h.summary());

        let s = summary_table(&snap);
        assert!(s.contains("core.pairs"), "{s}");
        assert!(s.contains("1234"), "{s}");
        assert!(s.contains("0.025000"), "{s}");
        assert!(s.contains("gluon.barrier_ns"), "{s}");
        assert!(s.contains("p99"), "{s}");
    }

    #[test]
    fn jsonl_appends_one_line_per_event() {
        let dir = std::env::temp_dir().join("gw2v_obs_export_test");
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);

        let evs = vec![TraceEvent::new("a"), TraceEvent::new("b")];
        write_trace_jsonl(&path, &evs).unwrap();
        write_trace_jsonl(&path, &[TraceEvent::new("c")]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"a\""), "{}", lines[0]);
        assert!(lines[2].contains("\"name\":\"c\""), "{}", lines[2]);
        let _ = std::fs::remove_file(&path);
    }
}
