//! Set-up probe: milliseconds of the passes that turn input files into
//! what a trainer or the query engine reads, through the public API the
//! CLI and the benchmark harness call.
//!
//! Inputs are generated in process as the benchmark harness generates
//! them for seed 1, and written to a temporary file so each pass reads
//! what it reads there:
//!
//! * `text-shm`: the 1-billion preset's small synthetic corpus (about
//!   800 k tokens, 5.2 MB);
//! * `graph-cluster2`: walks (10 a node, length 20) over the training
//!   side of a 4 000-node, 40-block SBM after a 20 % holdout;
//! * `serve-mixed`: a 50 000 × 64 model of clustered rows in the
//!   word2vec text format (about 37 MB).
//!
//! For each corpus it times the vocabulary pass
//! (`build_vocab_from_path`) and the encode pass (`Corpus::from_text`
//! over the text in memory), in ms and Mtok/s of raw tokens; for the
//! model, `Word2VecModel::load_text` over a buffered file, in ms and
//! MB/s. Each figure is the best of N passes (default 15).
//!
//! Usage: `cargo run --release -p gw2v-bench --bin setup_probe [N]`.

use gw2v_core::model::Word2VecModel;
use gw2v_corpus::datasets::{DatasetPreset, Scale};
use gw2v_corpus::file::build_vocab_from_path;
use gw2v_corpus::graphs::{even_blocks, holdout_split, sbm};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::synth::SynthCorpus;
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_corpus::walks::{generate_walks, WalkParams};
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEED: u64 = 1;
const SERVE_ROWS: usize = 50_000;
const SERVE_CLUSTERS: usize = 500;
const DIM: usize = 64;

/// Best of `passes` timings of `f`, in ms.
fn best_ms(passes: usize, mut f: impl FnMut()) -> f64 {
    (0..passes)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gw2v_setup_probe_{}_{name}", std::process::id()))
}

/// Times both corpus passes over `text`, written to `path`.
fn corpus_passes(name: &str, text: &str, path: &Path, passes: usize) {
    std::fs::write(path, text).expect("write the corpus");
    let cfg = TokenizerConfig::default();
    let vocab = build_vocab_from_path(path, cfg.clone(), 1).expect("read the corpus");
    let mtok = vocab.total_words() as f64 / 1e6;
    let vocab_ms = best_ms(passes, || {
        black_box(build_vocab_from_path(path, cfg.clone(), 1).expect("read the corpus"));
    });
    let encode_ms = best_ms(passes, || {
        black_box(Corpus::from_text(text, &vocab, cfg.clone()));
    });
    for (pass, ms) in [("vocab", vocab_ms), ("encode", encode_ms)] {
        println!(
            "{name:<15} {pass:<10} {ms:>9.2} {:>9.1} Mtok/s",
            mtok / (ms / 1e3)
        );
    }
    std::fs::remove_file(path).ok();
}

/// The serve-mixed model as the benchmark harness writes it.
fn write_serve_model(path: &Path) {
    let mut rng = Xoshiro256::new(SplitMix64::new(SEED).derive(1));
    let mut centres = FlatMatrix::zeros(SERVE_CLUSTERS, DIM);
    for v in centres.as_mut_slice() {
        *v = rng.next_f32() - 0.5;
    }
    let mut table = FlatMatrix::zeros(SERVE_ROWS, DIM);
    for r in 0..SERVE_ROWS {
        let c = (rng.next_u64() % SERVE_CLUSTERS as u64) as usize;
        for (v, centre) in table.row_mut(r).iter_mut().zip(centres.row(c)) {
            *v = centre + 0.6 * (rng.next_f32() - 0.5);
        }
    }
    let n = SERVE_ROWS as u64;
    let vocab = Vocabulary::from_counts(
        (0..SERVE_ROWS).map(|i| (format!("w{i:05}"), n - i as u64)),
        1,
    );
    let model = Word2VecModel::from_layers(table, FlatMatrix::zeros(SERVE_ROWS, DIM));
    let mut w = BufWriter::new(File::create(path).expect("create the model file"));
    model.save_text(&vocab, &mut w).expect("write the model");
    w.flush().expect("write the model");
}

fn main() {
    let passes: usize = std::env::args()
        .nth(1)
        .map(|n| n.parse().expect("N is a pass count"))
        .unwrap_or(15)
        .max(1);
    println!(
        "backend {}, best of {passes}",
        gw2v_util::simd::backend_name()
    );
    println!("{:<15} {:<10} {:>9} {:>9}", "input", "pass", "ms", "rate");

    let preset = DatasetPreset::by_name("1-billion").expect("preset exists");
    // Every distinct question, as the harness asks for.
    let synth = SynthCorpus::generate(
        &preset.spec(Scale::Small, SEED),
        preset.target_tokens(Scale::Small),
        1_000,
    );
    corpus_passes("text-shm", &synth.text, &scratch_file("text"), passes);

    let (graph, _) = sbm(&even_blocks(4_000, 40), 0.2, 0.0005, SEED);
    let (train, _) = holdout_split(&graph, 0.2, 7);
    let walks = generate_walks(
        &train,
        &WalkParams {
            walks_per_node: 10,
            walk_length: 20,
            p: 1.0,
            q: 1.0,
            seed: 1,
        },
    );
    corpus_passes(
        "graph-cluster2",
        &walks.text,
        &scratch_file("walks"),
        passes,
    );

    let path = scratch_file("model");
    write_serve_model(&path);
    let mb = std::fs::metadata(&path).expect("model file").len() as f64 / 1e6;
    let ms = best_ms(passes, || {
        let file = File::open(&path).expect("open the model");
        black_box(Word2VecModel::load_text(BufReader::new(file)).expect("load the model"));
    });
    println!(
        "{:<15} {:<10} {ms:>9.2} {:>9.1} MB/s",
        "serve-mixed",
        "load_text",
        mb / (ms / 1e3)
    );
    std::fs::remove_file(&path).ok();
}
