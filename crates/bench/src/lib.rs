//! # gw2v-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section (see DESIGN.md §4 for the index), plus criterion
//! microbenchmarks under `benches/`.
//!
//! Every binary:
//!
//! * prints the reproduced table as aligned text,
//! * writes a machine-readable JSON record under `results/`,
//! * honours the environment knobs below so runs can be scaled to the
//!   available time budget:
//!   - `GW2V_SCALE` — `tiny | small | medium` (default varies per binary),
//!   - `GW2V_EPOCHS` — override the epoch count,
//!   - `GW2V_DATASETS` — comma-separated subset of
//!     `1-billion,news,wiki`.

#![warn(missing_docs)]

use gw2v_core::params::Hyperparams;
use gw2v_corpus::datasets::{DatasetPreset, Scale, PRESETS};
use gw2v_corpus::file::build_vocab_streaming;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::synth::SynthCorpus;
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_obs::{MetricsSnapshot, Provenance};
use serde::{Serialize, Value};
use std::path::Path;

/// A generated dataset ready for training.
pub struct PreparedDataset {
    /// The preset that produced it.
    pub preset: &'static DatasetPreset,
    /// Raw generated corpus + analogy suite.
    pub synth: SynthCorpus,
    /// Vocabulary (graph nodes).
    pub vocab: Vocabulary,
    /// Encoded corpus (worklist source).
    pub corpus: Corpus,
}

/// Generates and encodes a dataset.
pub fn prepare(preset: &'static DatasetPreset, scale: Scale, seed: u64) -> PreparedDataset {
    let synth = preset.generate(scale, seed);
    let tok_cfg = TokenizerConfig::default();
    let vocab = build_vocab_streaming(synth.text.as_bytes(), tok_cfg.clone(), 1)
        .expect("in-memory read cannot fail");
    let corpus = Corpus::from_text(&synth.text, &vocab, tok_cfg);
    PreparedDataset {
        preset,
        synth,
        vocab,
        corpus,
    }
}

/// Reads `GW2V_SCALE`, defaulting to `default`.
pub fn scale_from_env(default: Scale) -> Scale {
    std::env::var("GW2V_SCALE")
        .ok()
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(default)
}

/// Reads `GW2V_EPOCHS`, defaulting to `default`.
pub fn epochs_from_env(default: usize) -> usize {
    std::env::var("GW2V_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reads `GW2V_HOSTS` (comma-separated host counts), defaulting to
/// `default`.
pub fn hosts_from_env(default: &[usize]) -> Vec<usize> {
    match std::env::var("GW2V_HOSTS") {
        Ok(s) if !s.trim().is_empty() => {
            s.split(',').filter_map(|h| h.trim().parse().ok()).collect()
        }
        _ => default.to_vec(),
    }
}

/// Reads `GW2V_DATASETS` (comma-separated paper names), defaulting to
/// all three presets.
pub fn datasets_from_env() -> Vec<&'static DatasetPreset> {
    match std::env::var("GW2V_DATASETS") {
        Ok(s) if !s.trim().is_empty() => s
            .split(',')
            .filter_map(|name| DatasetPreset::by_name(name.trim()))
            .collect(),
        _ => PRESETS.iter().collect(),
    }
}

/// The harness's scaled-down training parameters (documented in
/// EXPERIMENTS.md): dimensionality and negative-sample count are reduced
/// from the paper's 200/15 so the full experiment matrix completes on
/// one core; all other hyperparameters match §5.1.
pub fn bench_params(scale: Scale, epochs: usize, seed: u64) -> Hyperparams {
    let dim = match scale {
        Scale::Tiny => 32,
        Scale::Small => 64,
        Scale::Medium => 96,
    };
    Hyperparams {
        dim,
        negative: 5,
        epochs,
        seed,
        ..Hyperparams::default()
    }
}

/// Writes a JSON result record under `results/<name>.json` (creating the
/// directory if needed) and reports where it went.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => println!("\n[results written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Initializes observability for a benchmark binary.
///
/// The harness runs with metrics **on** by default — every result record
/// should carry its metrics block — and `GW2V_METRICS=0` (or `false`,
/// `off`, `no`) opts out. Call once at the top of `main`.
pub fn obs_init() {
    let off = std::env::var("GW2V_METRICS")
        .is_ok_and(|v| matches!(v.trim(), "0" | "false" | "off" | "no"));
    gw2v_obs::set_enabled(!off);
}

/// The uniform shape of every `results/*.json` record: the reproduced
/// table/figure data plus the run's metrics snapshot and provenance.
pub struct RunRecord<'a, T> {
    /// Where the numbers came from (git sha, SIMD backend, scale, seed).
    pub provenance: Provenance,
    /// Snapshot of every instrument the run recorded.
    pub metrics: MetricsSnapshot,
    /// The table/figure payload itself.
    pub data: &'a T,
}

// Hand-written: the vendored derive does not handle generic structs.
impl<T: Serialize> Serialize for RunRecord<'_, T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("provenance".to_owned(), self.provenance.to_value()),
            ("metrics".to_owned(), self.metrics.to_value()),
            ("data".to_owned(), self.data.to_value()),
        ])
    }
}

/// Writes `results/<name>.json` as a [`RunRecord`] wrapping `data`, then
/// flushes any buffered trace events (`GW2V_TRACE_OUT`). This is what
/// every table/figure binary calls; plain [`write_json`] remains for
/// records that are not experiment runs.
pub fn write_json_run<T: Serialize>(name: &str, scale: Scale, seed: u64, data: &T) {
    let record = RunRecord {
        provenance: gw2v_obs::provenance(&format!("{scale:?}"), seed),
        metrics: gw2v_obs::snapshot(),
        data,
    };
    write_json(name, &record);
    match gw2v_obs::flush_trace(None) {
        Ok(n) if n > 0 => {
            if let Ok(dest) = std::env::var("GW2V_TRACE_OUT") {
                println!("[{n} trace events appended to {dest}]");
            }
        }
        Ok(_) => {}
        Err(e) => eprintln!("warning: cannot write trace: {e}"),
    }
}

/// Formats a speedup as the paper does ("14x", "14.6x").
pub fn fmt_speedup(x: f64) -> String {
    if (x - x.round()).abs() < 0.05 {
        format!("{:.0}x", x.round())
    } else {
        format!("{x:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_tiny_dataset() {
        let d = prepare(&PRESETS[0], Scale::Tiny, 7);
        assert!(d.vocab.len() > 100);
        assert!(d.corpus.total_tokens() > 50_000);
        assert_eq!(d.synth.analogies.categories.len(), 14);
    }

    #[test]
    fn env_parsers_default() {
        // No env set in the test runner (we do not mutate process env in
        // tests to stay thread-safe); defaults must come through.
        assert_eq!(epochs_from_env(7), 7);
        assert_eq!(datasets_from_env().len(), 3);
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(14.02), "14x");
        assert_eq!(fmt_speedup(14.6), "14.6x");
    }
}
