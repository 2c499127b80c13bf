//! Golden trained models: every trainer that runs the per-pair SGNS
//! operator, plus the 1-thread HogBatch trainer (also at window 9, where
//! a window holds up to 18 inputs) and the RepModel-Opt cluster under
//! `--sgns hogbatch` (`dist-4-opt-hogbatch`), trained for two epochs
//! on a small generated corpus at dims {8, 67} (vector body only / body +
//! scalar tail) and negatives {5, 40} (one block of targets / several),
//! with the CRC-32 of `syn0` and of `syn1neg` and the number of pairs
//! trained pinned to `tests/fixtures/golden_models.txt`. The 2-thread
//! `hogwild-2` / `hogbatch-2` cells pin the pair count only: their bits
//! race, but the count is a pure function of each worker's RNG stream
//! and shard, so it holds `HOST_RNG_BASE + t` and `partition(t, n)` for
//! `t > 0`.
//!
//! `conformance` and `engines_equivalence` compare two engines that
//! change together and `golden_rounds` stops at the sync layer; this
//! file is the record of what the per-pair step computed at the commit
//! the fixture was cut on, so a changed value means trained bits changed.
//!
//! Scalar and AVX2 runs legitimately differ (FMA, lane association), so
//! each line carries one column per [`simd::backend_name`]; a run checks
//! the column of the backend it selected. Run it under
//! `GW2V_FORCE_SCALAR=0` and `=1`.
//!
//! After a *deliberate* change of the trained bits, re-cut both columns:
//! `cargo test --test golden_models -- --ignored regenerate` once per
//! backend (the other backend's column is kept).

use graph_word2vec::core::distributed::{DistConfig, DistributedTrainer};
use graph_word2vec::core::model::Word2VecModel;
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::core::trainer_batched::BatchedTrainer;
use graph_word2vec::core::trainer_hogbatch::{HogBatchTrainer, SgnsMode};
use graph_word2vec::core::trainer_hogwild::HogwildTrainer;
use graph_word2vec::core::trainer_seq::SequentialTrainer;
use graph_word2vec::core::trainer_threaded::ThreadedTrainer;
use graph_word2vec::corpus::datasets::{DatasetPreset, Scale};
use graph_word2vec::corpus::shard::Corpus;
use graph_word2vec::corpus::tokenizer::{sentences_from_text, TokenizerConfig};
use graph_word2vec::corpus::vocab::{VocabBuilder, Vocabulary};
use graph_word2vec::gluon::plan::SyncPlan;
use graph_word2vec::obs;
use graph_word2vec::util::crc32::Crc32;
use graph_word2vec::util::fvec::FlatMatrix;
use graph_word2vec::util::simd;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

const TRAINERS: [&str; 11] = [
    "seq",
    "batched",
    "hogwild-1",
    "hogwild-2",
    "hogbatch-1",
    "hogbatch-1-w9",
    "hogbatch-2",
    "dist-4-opt",
    "dist-4-opt-hogbatch",
    "dist-4-pull",
    "threaded-2",
];
/// Cells whose workers race on the model: only the pair count repeats.
const RACING: [&str; 2] = ["hogwild-2", "hogbatch-2"];
const DIMS: [usize; 2] = [8, 67];
const NEGATIVES: [usize; 2] = [5, 40];

/// The shared-memory trainers report their pair count only through the
/// process-global metrics registry; the two tests here must not overlap.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_models.txt")
}

/// `scalar` or `avx2+fma`: a forced scalar run checks the same column
/// as a host without AVX2.
fn backend() -> &'static str {
    simd::backend_name()
        .split_whitespace()
        .next()
        .expect("backend name")
}

fn prepare() -> (Vocabulary, Corpus) {
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    let synth = preset.generate(Scale::Tiny, 23);
    let cfg = TokenizerConfig::default();
    let mut b = VocabBuilder::new();
    for s in sentences_from_text(&synth.text, cfg.clone()) {
        b.add_sentence(&s);
    }
    let vocab = b.build(1);
    // 120 sentences of 40 tokens: every cell trains in tens of
    // milliseconds, and four hosts still get several sentences a round.
    let short = TokenizerConfig {
        max_sentence_len: 40,
        ..cfg
    };
    let corpus = Corpus::from_sentences(
        Corpus::from_text(&synth.text, &vocab, short)
            .sentences()
            .iter()
            .take(120)
            .cloned()
            .collect(),
    );
    (vocab, corpus)
}

fn crc_of(layer: &FlatMatrix) -> u32 {
    let mut crc = Crc32::new();
    for x in layer.as_slice() {
        crc.update(&x.to_le_bytes());
    }
    crc.finish()
}

fn counted(name: &str, train: impl FnOnce() -> Word2VecModel) -> (Word2VecModel, u64) {
    obs::reset();
    let model = train();
    let pairs = obs::snapshot().counters.get(name).copied().unwrap_or(0);
    (model, pairs)
}

/// Trains one cell and renders its `syn0:syn1neg:pairs` value (`pairs`
/// alone for a cell whose threads race).
fn run_cell(trainer: &str, dim: usize, negative: usize, vocab: &Vocabulary, c: &Corpus) -> String {
    let params = Hyperparams {
        dim,
        window: if trainer == "hogbatch-1-w9" { 9 } else { 3 },
        negative,
        epochs: 2,
        // Tiny-scale word frequencies sit far above the default 1e-4;
        // this keeps most tokens while still consuming the subsampler's
        // RNG draws.
        subsample: 1e-2,
        seed: 17,
        ..Hyperparams::default()
    };
    let dist = |hosts: usize, plan: SyncPlan| DistConfig {
        sync_rounds: 2,
        plan,
        ..DistConfig::paper_default(hosts)
    };
    let dist_hogbatch = DistConfig {
        sgns: SgnsMode::HogBatch,
        ..dist(4, SyncPlan::RepModelOpt)
    };
    let (model, pairs) = match trainer {
        "seq" => counted("core.seq.pairs", || {
            SequentialTrainer::new(params).train(c, vocab)
        }),
        "batched" => counted("core.batched.pairs", || {
            BatchedTrainer::new(params).train(c, vocab)
        }),
        "hogwild-1" | "hogwild-2" => counted("core.hogwild.pairs", || {
            HogwildTrainer::new(params, threads_of(trainer)).train(c, vocab)
        }),
        "hogbatch-1" | "hogbatch-1-w9" | "hogbatch-2" => counted("core.hogbatch.pairs", || {
            HogBatchTrainer::new(params, threads_of(trainer)).train(c, vocab)
        }),
        "dist-4-opt" | "dist-4-pull" => {
            let plan = if trainer == "dist-4-opt" {
                SyncPlan::RepModelOpt
            } else {
                SyncPlan::PullModel
            };
            let r = DistributedTrainer::new(params, dist(4, plan)).train(c, vocab);
            (r.model, r.pairs_trained)
        }
        "dist-4-opt-hogbatch" => {
            let r = DistributedTrainer::new(params, dist_hogbatch).train(c, vocab);
            (r.model, r.pairs_trained)
        }
        "threaded-2" => {
            let r = ThreadedTrainer::new(params, dist(2, SyncPlan::RepModelOpt))
                .train(c, vocab)
                .expect("faultless threaded run");
            (r.model, r.pairs_trained)
        }
        other => unreachable!("unknown trainer {other}"),
    };
    assert!(pairs > 0, "{trainer}: no pairs counted");
    if RACING.contains(&trainer) {
        return pairs.to_string();
    }
    format!(
        "{:08x}:{:08x}:{pairs}",
        crc_of(&model.syn0),
        crc_of(&model.syn1neg)
    )
}

/// The worker count a `hogwild-N` / `hogbatch-N[-wW]` cell name carries.
fn threads_of(trainer: &str) -> usize {
    let n = trainer.split('-').nth(1).expect("trainer-N");
    n.parse().expect("thread count")
}

/// `cell → value` for the backend this process selected.
fn run_all() -> BTreeMap<String, String> {
    let (vocab, corpus) = prepare();
    obs::set_enabled(true);
    let mut out = BTreeMap::new();
    for trainer in TRAINERS {
        for dim in DIMS {
            for negative in NEGATIVES {
                out.insert(
                    format!("{trainer} dim={dim} negative={negative}"),
                    run_cell(trainer, dim, negative, &vocab, &corpus),
                );
            }
        }
    }
    obs::set_enabled(false);
    out
}

/// Parses the fixture into `cell → backend → value`; a missing file is
/// an empty record.
fn committed() -> BTreeMap<String, BTreeMap<String, String>> {
    let text = std::fs::read_to_string(fixture()).unwrap_or_default();
    let mut cells = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split(" | ");
        let cell = parts.next().expect("cell name").to_owned();
        let columns = parts
            .map(|col| {
                let (backend, value) = col.split_once('=').expect("backend=value");
                (backend.to_owned(), value.to_owned())
            })
            .collect();
        cells.insert(cell, columns);
    }
    cells
}

#[test]
fn trained_models_match_the_committed_record() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let committed = committed();
    let got = run_all();
    assert_eq!(
        committed.len(),
        TRAINERS.len() * DIMS.len() * NEGATIVES.len(),
        "11 trainers × 2 dims × 2 negatives"
    );
    for (cell, value) in &got {
        let want = committed
            .get(cell)
            .and_then(|columns| columns.get(backend()))
            .unwrap_or_else(|| panic!("no `{}` column for `{cell}` in the fixture", backend()));
        assert_eq!(
            value,
            want,
            "`{cell}` on {}: trained bits (syn0:syn1neg:pairs) no longer match the committed record",
            backend()
        );
    }
    // Engine parity, read off the record: the 1-thread Hogwild trainer
    // is the sequential one.
    for (cell, value) in &got {
        if let Some(rest) = cell.strip_prefix("hogwild-1 ") {
            assert_eq!(value, &got[&format!("seq {rest}")], "{cell}");
        }
    }
}

#[test]
#[ignore = "rewrites this backend's column of tests/fixtures/golden_models.txt; run only after a deliberate change of trained bits"]
fn regenerate() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut committed = committed();
    let mut text = String::new();
    for (cell, value) in run_all() {
        let mut columns = committed.remove(&cell).unwrap_or_default();
        columns.insert(backend().to_owned(), value);
        text.push_str(&cell);
        for (backend, value) in &columns {
            text.push_str(&format!(" | {backend}={value}"));
        }
        text.push('\n');
    }
    std::fs::write(fixture(), text).expect("write fixture");
}
