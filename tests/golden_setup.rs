//! Golden set-up: what the corpus and model readers hand to training and
//! serving, as CRC-32s pinned to `tests/fixtures/golden_setup.txt`.
//!
//! - The vocabulary's `(word, count)` list, the encoded ids with their
//!   sentence lengths, and three file partitions of the text-shm corpus
//!   (`1-billion`, `Scale::Small`, seed 1), under the default
//!   `TokenizerConfig` and under `{ lowercase: true, max_sentence_len:
//!   40 }`.
//! - The walk text of the graph-cluster2 shape: SBM 4 000 / 40 with
//!   p 0.2 / 0.0005 and seed 1, holdout 0.2 with seed 7, walks 10 × 20
//!   with seed 1.
//! - The bytes `save_text` writes for a 5 000 × 64 model and the f32
//!   bits `load_text` reads back from them, and the bytes it writes for
//!   a model holding one float of every class `{}` lays out apart.
//!
//! Set-up is scalar code, so one column serves both kernel backends. A
//! changed value means set-up changed what training or serving sees.
//! After a *deliberate* change, re-cut the record with
//! `cargo test --test golden_setup -- --ignored regenerate`.

use graph_word2vec::core::model::Word2VecModel;
use graph_word2vec::corpus::datasets::{DatasetPreset, Scale};
use graph_word2vec::corpus::file::{build_vocab_from_path, read_partition};
use graph_word2vec::corpus::graphs::{even_blocks, holdout_split, sbm};
use graph_word2vec::corpus::shard::Corpus;
use graph_word2vec::corpus::synth::SynthCorpus;
use graph_word2vec::corpus::tokenizer::TokenizerConfig;
use graph_word2vec::corpus::vocab::Vocabulary;
use graph_word2vec::corpus::walks::{generate_walks, WalkParams};
use graph_word2vec::util::crc32::{crc32, Crc32};
use graph_word2vec::util::fvec::FlatMatrix;
use graph_word2vec::util::rng::{Rng64, SplitMix64, Xoshiro256};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Hosts the partition cells split the corpus file between.
const HOSTS: usize = 3;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_setup.txt")
}

fn vocab_crc(vocab: &Vocabulary) -> u32 {
    let mut crc = Crc32::new();
    for e in vocab.entries() {
        crc.update(e.word.as_bytes());
        crc.update(&[0]);
        crc.update(&e.count.to_le_bytes());
    }
    crc.finish()
}

/// Each sentence as its length, then its ids, all little-endian `u32`.
fn sentences_crc(sentences: &[Vec<u32>]) -> u32 {
    let mut crc = Crc32::new();
    for s in sentences {
        crc.update(&(s.len() as u32).to_le_bytes());
        for id in s {
            crc.update(&id.to_le_bytes());
        }
    }
    crc.finish()
}

/// The text-shm cells, under the default config and a short lowercasing
/// one.
fn corpus_cells(out: &mut BTreeMap<String, String>) {
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    // The harness's call: every distinct question, which leaves the
    // text as any question count does.
    let synth = SynthCorpus::generate(
        &preset.spec(Scale::Small, 1),
        preset.target_tokens(Scale::Small),
        1_000,
    );
    let path = std::env::temp_dir().join(format!("gw2v_golden_setup_{}.txt", std::process::id()));
    std::fs::write(&path, &synth.text).expect("write corpus");
    let configs = [
        ("default", TokenizerConfig::default()),
        (
            "lower40",
            TokenizerConfig {
                lowercase: true,
                max_sentence_len: 40,
            },
        ),
    ];
    for (name, cfg) in configs {
        let vocab = build_vocab_from_path(&path, cfg.clone(), 1).expect("vocab");
        out.insert(
            format!("text-shm {name} vocab"),
            format!("{:08x}:{}", vocab_crc(&vocab), vocab.len()),
        );
        let corpus = Corpus::from_text(&synth.text, &vocab, cfg.clone());
        out.insert(
            format!("text-shm {name} encode"),
            format!(
                "{:08x}:{}:{}",
                sentences_crc(corpus.sentences()),
                corpus.len(),
                corpus.total_tokens()
            ),
        );
        let mut parts = Vec::new();
        for h in 0..HOSTS {
            parts.extend(read_partition(&path, h, HOSTS, &vocab, cfg.clone()).expect("partition"));
        }
        out.insert(
            format!("text-shm {name} partitions-{HOSTS}"),
            format!("{:08x}:{}", sentences_crc(&parts), parts.len()),
        );
    }
    std::fs::remove_file(&path).ok();
}

fn walks_cell(out: &mut BTreeMap<String, String>) {
    let (graph, _) = sbm(&even_blocks(4_000, 40), 0.2, 0.0005, 1);
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
    out.insert(
        "graph-cluster2 walks".to_owned(),
        format!(
            "{:08x}:{}:{}",
            crc32(walks.text.as_bytes()),
            walks.n_walks,
            walks.n_tokens
        ),
    );
}

/// A 5 000 × 64 table as a trained one looks, with every 97th row scaled
/// to magnitudes whose `{}` form is long or huge.
fn model_table() -> FlatMatrix {
    let (rows, dim) = (5_000, 64);
    let mut rng = Xoshiro256::new(SplitMix64::new(1).derive(0x5E7));
    let mut t = FlatMatrix::zeros(rows, dim);
    for r in 0..rows {
        let scale = match r % 97 {
            0 => 1e-30,
            1 => 1e-9,
            2 => 1e12,
            3 => 1e30,
            _ => 1.0,
        };
        for v in t.row_mut(r) {
            *v = (rng.next_f32() - 0.5) * scale;
        }
    }
    t
}

fn model_cells(out: &mut BTreeMap<String, String>) {
    let table = model_table();
    let n = table.rows() as u64;
    let vocab = Vocabulary::from_counts((0..n).map(|i| (format!("w{i:04}"), n - i)), 1);
    let dim = table.dim();
    let model = Word2VecModel::from_layers(table, FlatMatrix::zeros(n as usize, dim));
    let mut text = Vec::new();
    model.save_text(&vocab, &mut text).expect("save");
    out.insert(
        "model save_text".to_owned(),
        format!("{:08x}:{}", crc32(&text), text.len()),
    );
    let (words, loaded) = Word2VecModel::load_text(text.as_slice()).expect("load");
    let mut crc = Crc32::new();
    for w in &words {
        crc.update(w.as_bytes());
        crc.update(&[0]);
    }
    for x in loaded.syn0.as_slice() {
        crc.update(&x.to_bits().to_le_bytes());
    }
    out.insert(
        "model load_text".to_owned(),
        format!("{:08x}:{}x{}", crc.finish(), loaded.n_words(), loaded.dim()),
    );
    // `{}` is the shortest form that reads back to the same float.
    assert!(
        loaded
            .syn0
            .as_slice()
            .iter()
            .zip(model.syn0.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "save_text → load_text changed a bit"
    );
}

/// One float of every class `{}` lays out differently: signed zeros,
/// the ends of the subnormals and of the normals, powers of 2 and 10
/// either side of 1e7 (where `{}` stops printing a fraction for every
/// float) and of 1e-5, nine-digit values, exact decimal ties (the
/// shortest digits end in a 5 that `{}` rounds up), NaN and infinities.
fn f32_classes() -> Vec<f32> {
    let mut v = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        1.0,
        -1.0,
        0.1,
        123_456_789.0,
        0.123_456_79,
        1.234_567_9e-6,
        -9.876_543e12,
        3.402_823_4e37,
        f32::from_bits(0x40bf_2000),
        f32::from_bits(0x3f80_0001),
        f32::from_bits(0x4b7f_ffff),
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    // Each power read from its decimal, so the bits are the correctly
    // rounded ones whatever the platform's `powi`.
    let pow10 = |e: i32| format!("1e{e}").parse::<f32>().expect("a power of 10");
    for e in -3..=3 {
        let (hi, lo) = (pow10(7 + e), pow10(-5 + e));
        v.extend([
            hi.next_down(),
            hi,
            hi.next_up(),
            lo.next_down(),
            lo,
            -lo.next_up(),
        ]);
    }
    for e in -30..=30 {
        v.extend([
            f32::from_bits(((127 + 24 + e) as u32) << 23),
            f32::from_bits(((127 - 17 + e) as u32) << 23),
        ]);
    }
    // Ties: a 24-bit mantissa over 2^k, k ≥ 1, holds a 5 in its last
    // exact decimal digit, and some of these are their shortest form's.
    for m in [0x00bf_2000u32, 0x00c0_0001, 0x00ff_fffd, 0x0080_0003] {
        for k in [1, 3, 11, 17, 23] {
            v.push(m as f32 / (1u32 << k) as f32);
        }
    }
    v
}

fn classes_cell(out: &mut BTreeMap<String, String>) {
    let mut values = f32_classes();
    let dim = 8;
    values.resize(values.len().next_multiple_of(dim), 0.5);
    let rows = values.len() / dim;
    let table = FlatMatrix::from_vec(values, rows, dim);
    let n = rows as u64;
    let vocab = Vocabulary::from_counts((0..n).map(|i| (format!("c{i:03}"), n - i)), 1);
    let model = Word2VecModel::from_layers(table, FlatMatrix::zeros(rows, dim));
    let mut text = Vec::new();
    model.save_text(&vocab, &mut text).expect("save");
    out.insert(
        "model save_text f32 classes".to_owned(),
        format!("{:08x}:{}", crc32(&text), text.len()),
    );
}

fn run_all() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    corpus_cells(&mut out);
    walks_cell(&mut out);
    model_cells(&mut out);
    classes_cell(&mut out);
    out
}

fn committed() -> BTreeMap<String, String> {
    std::fs::read_to_string(fixture())
        .unwrap_or_default()
        .lines()
        .map(|line| {
            let (cell, value) = line.split_once(" = ").expect("cell = value");
            (cell.to_owned(), value.to_owned())
        })
        .collect()
}

#[test]
fn setup_matches_the_committed_record() {
    let committed = committed();
    let got = run_all();
    assert_eq!(
        committed.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "the fixture names every cell"
    );
    for (cell, value) in &got {
        assert_eq!(
            value, &committed[cell],
            "`{cell}`: set-up output no longer matches the committed record"
        );
    }
}

#[test]
#[ignore = "rewrites tests/fixtures/golden_setup.txt; run only after a deliberate change of set-up output"]
fn regenerate() {
    let text: String = run_all()
        .into_iter()
        .map(|(cell, value)| format!("{cell} = {value}\n"))
        .collect();
    std::fs::write(fixture(), text).expect("write fixture");
}
