//! Keeps the three descriptions of the benchmark in step: the root
//! manifest's release profile and this crate's, and `BENCHMARK.json` and
//! the harness's metric and workload tables.

use gw2v_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use gw2v_benchmark::workloads::NAMES;
use serde::Value;
use std::path::Path;

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_owned())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = release_profile(&here.join("../Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        release_profile(&here.join("Cargo.toml")),
        root,
        "benchmark/Cargo.toml must repeat the root [profile.release], or the harness times \
         library code compiled differently from the shipped gw2v"
    );
}

fn names(list: &Value) -> Vec<String> {
    list.as_seq()
        .unwrap()
        .iter()
        .map(|e| e.field("name").unwrap().as_str().unwrap().to_owned())
        .collect()
}

fn assert_table_matches(listed: &Value, table: &[Metric], bounded: bool) {
    assert_eq!(
        names(listed),
        table.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (entry, m) in listed.as_seq().unwrap().iter().zip(table) {
        assert_eq!(
            entry.field("unit").unwrap().as_str().unwrap(),
            m.unit,
            "{}",
            m.name
        );
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            entry.field("better").unwrap().as_str().unwrap(),
            better,
            "{}",
            m.name
        );
        if bounded {
            let bound = entry.field("bound").unwrap().as_f64().unwrap();
            assert_eq!(Some(bound), m.bound, "{}", m.name);
            assert!(bound <= 0.25, "{}", m.name);
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_harness_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(names(spec.field("workloads").unwrap()), NAMES);
    assert_table_matches(spec.field("end_to_end").unwrap(), END_TO_END, true);
    assert_table_matches(spec.field("per_layer").unwrap(), PER_LAYER, false);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
}
