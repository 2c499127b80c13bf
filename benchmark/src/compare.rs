//! `gw2v-benchmark compare A.jsonl B.jsonl`: per workload × metric, the
//! median and quartiles of each set of records, the gap as a share of A,
//! the metric's bound, and a verdict.

use crate::measure::quartiles;
use crate::metrics;
use serde::Value;
use std::collections::BTreeMap;
use std::error::Error;
use std::path::Path;

type Res<T> = Result<T, Box<dyn Error>>;

/// `(workload, metric) → values`, in record order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_records(path: &Path) -> Res<Samples> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |e: serde::Error| format!("{}:{}: {e}", path.display(), i + 1);
        let record: Value = serde_json::from_str(line).map_err(bad)?;
        let workload = record
            .field("workload")
            .map_err(bad)?
            .as_str()
            .map_err(bad)?;
        for (name, m) in record
            .field("metrics")
            .map_err(bad)?
            .as_map()
            .map_err(bad)?
        {
            let value = m.field("value").map_err(bad)?.as_f64().map_err(bad)?;
            samples
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// One row of the comparison.
#[derive(Debug, PartialEq)]
pub struct Row {
    /// `(q1, median, q3)` of set A.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of set B.
    pub b: (f64, f64, f64),
    /// Quartile distance of each set as a share of its median.
    pub spread: (f64, f64),
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    /// `ok`, `worse`, `unresolved`, or `-` for a metric without a bound.
    pub verdict: &'static str,
}

/// Compares two samples of one metric.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: Option<f64>) -> Row {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let gap = if qa.1 == 0.0 {
        0.0
    } else {
        (qb.1 - qa.1) / qa.1.abs()
    };
    let worse_by = if higher_is_better { -gap } else { gap };
    let spread = |q: (f64, f64, f64)| {
        if q.1 == 0.0 {
            0.0
        } else {
            (q.2 - q.0) / q.1.abs()
        }
    };
    let spread = (spread(qa), spread(qb));
    let verdict = match bound {
        None => "-",
        // A spread wider than the bound cannot resolve a gap of the bound.
        Some(bound) if spread.0 > bound || spread.1 > bound => "unresolved",
        Some(bound) if worse_by > bound => "worse",
        Some(_) => "ok",
    };
    Row {
        a: qa,
        b: qb,
        spread,
        worse_by,
        verdict,
    }
}

/// Prints the comparison table; `Ok(true)` when no metric is `worse`.
pub fn compare(a_path: &Path, b_path: &Path) -> Res<bool> {
    let (a, b) = (read_records(a_path)?, read_records(b_path)?);
    println!(
        "{:<15} {:<36} {:>3} {:>12} {:>12} {:>12} {:>7} | {:>3} {:>12} {:>12} {:>12} {:>7} | {:>8} {:>6} verdict",
        "workload", "metric", "nA", "q1", "median", "q3", "spread", "nB", "q1", "median", "q3",
        "spread", "worse by", "bound"
    );
    let mut all_ok = true;
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let metric = metrics::find(name);
        let row = judge(
            va,
            vb,
            metric.is_some_and(|m| m.higher_is_better),
            metric.and_then(|m| m.bound),
        );
        all_ok &= row.verdict != "worse";
        println!(
            "{:<15} {:<36} {:>3} {:>12.6} {:>12.6} {:>12.6} {:>7.4} | {:>3} {:>12.6} {:>12.6} {:>12.6} {:>7.4} | {:>+8.4} {:>6} {}",
            workload,
            name,
            va.len(),
            row.a.0,
            row.a.1,
            row.a.2,
            row.spread.0,
            vb.len(),
            row.b.0,
            row.b.1,
            row.b.2,
            row.spread.1,
            row.worse_by,
            metric
                .and_then(|m| m.bound)
                .map_or("-".to_owned(), |b| format!("{b:.3}")),
            row.verdict
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Lower is better, 3 % slower, bound 8 %.
        assert_eq!(
            judge(&a, &a.map(|x| x * 1.03), false, Some(0.08)).verdict,
            "ok"
        );
        let slow = judge(&a, &a.map(|x| x * 1.20), false, Some(0.08));
        assert_eq!(slow.verdict, "worse");
        assert!((slow.worse_by - 0.20).abs() < 1e-9);
        // Higher is better: the same 20 % rise is an improvement.
        let fast = judge(&a, &a.map(|x| x * 1.20), true, Some(0.08));
        assert_eq!(fast.verdict, "ok");
        assert!(fast.worse_by < 0.0);
        // Quartiles further apart than the bound resolve nothing.
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(judge(&a, &noisy, false, Some(0.08)).verdict, "unresolved");
        assert_eq!(judge(&a, &a, false, None).verdict, "-");
    }
}
