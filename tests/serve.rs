//! Serving-layer integration tests: the GW2VCKP1 → store load path, the
//! bitwise store-equals-trainer contract, and the backend-invariant
//! (quantized) ranking contract.

use graph_word2vec::core::checkpoint::{Checkpoint, CheckpointError};
use graph_word2vec::core::distributed::{DistConfig, DistributedTrainer};
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::corpus::datasets::{DatasetPreset, Scale};
use graph_word2vec::corpus::shard::Corpus;
use graph_word2vec::corpus::tokenizer::{sentences_from_text, TokenizerConfig};
use graph_word2vec::corpus::vocab::{VocabBuilder, Vocabulary};
use graph_word2vec::faults::FaultPlan;
use graph_word2vec::serve::query::quantize;
use graph_word2vec::serve::{Query, QueryEngine, ServeError, ShardedStore};
use std::path::PathBuf;

fn prepare_tiny(seed: u64) -> (Vocabulary, Corpus) {
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    let synth = preset.generate(Scale::Tiny, seed);
    let cfg = TokenizerConfig::default();
    let mut b = VocabBuilder::new();
    for s in sentences_from_text(&synth.text, cfg.clone()) {
        b.add_sentence(&s);
    }
    let vocab = b.build(1);
    let corpus = Corpus::from_text(&synth.text, &vocab, cfg);
    (vocab, corpus)
}

fn fast_params() -> Hyperparams {
    Hyperparams {
        dim: 24,
        negative: 4,
        epochs: 2,
        seed: 1,
        ..Hyperparams::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gw2v_serve_test_{}_{name}", std::process::id()))
}

/// Trains with checkpointing and returns (final canonical syn0, ckpt dir).
fn train_with_checkpoints(
    name: &str,
    faults: Option<&str>,
) -> (Vocabulary, graph_word2vec::util::fvec::FlatMatrix, PathBuf) {
    let (vocab, corpus) = prepare_tiny(42);
    let dir = tmpdir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut t = DistributedTrainer::new(fast_params(), DistConfig::paper_default(3))
        .with_checkpointing(&dir, 1);
    if let Some(spec) = faults {
        t = t.with_faults(FaultPlan::parse(spec).unwrap());
    }
    let result = t.train(&corpus, &vocab);
    (vocab, result.model.syn0, dir)
}

#[test]
fn corrupted_and_truncated_checkpoints_are_rejected_with_typed_errors() {
    let dir = tmpdir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Empty directory: typed "no checkpoint" error, not a panic.
    match ShardedStore::load(&dir, 4) {
        Err(ServeError::NoCheckpoint(d)) => assert_eq!(d, dir),
        other => panic!("want NoCheckpoint, got {other:?}", other = other.err()),
    }

    // Not a checkpoint at all.
    let bogus = dir.join("epoch-00000.gw2vckp");
    std::fs::write(&bogus, b"definitely not a checkpoint").unwrap();
    assert!(matches!(
        ShardedStore::load(&bogus, 4),
        Err(ServeError::Checkpoint(CheckpointError::BadMagic))
    ));

    // A real checkpoint, corrupted one byte at a time and truncated.
    let (_vocab, _syn0, ckdir) = train_with_checkpoints("corrupt_src", None);
    let real = Checkpoint::latest_in(&ckdir).unwrap().unwrap();
    let bytes = std::fs::read(&real).unwrap();
    let flipped = dir.join("epoch-00001.gw2vckp");
    for pos in [64usize, bytes.len() / 2, bytes.len() - 8] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        std::fs::write(&flipped, &bad).unwrap();
        assert!(
            matches!(
                ShardedStore::load(&flipped, 4),
                Err(ServeError::Checkpoint(CheckpointError::Corrupt { .. }))
            ),
            "flip at byte {pos} must be caught by the CRC trailer"
        );
    }
    let truncated = dir.join("epoch-00002.gw2vckp");
    std::fs::write(&truncated, &bytes[..bytes.len() / 3]).unwrap();
    assert!(matches!(
        ShardedStore::load(&truncated, 4),
        Err(ServeError::Checkpoint(
            CheckpointError::Corrupt { .. } | CheckpointError::Malformed(_)
        ))
    ));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckdir).ok();
}

#[test]
fn store_rows_are_bitwise_equal_to_trainer_layers() {
    let (_vocab, syn0, ckdir) = train_with_checkpoints("bitwise", None);
    let (store, summary) = ShardedStore::load(&ckdir, 8).unwrap();
    assert_eq!(summary.epoch + 1, fast_params().epochs);
    assert_eq!(store.len(), syn0.rows());
    assert_eq!(store.dim(), syn0.dim());
    for id in 0..syn0.rows() as u32 {
        let got = store.vector(id).unwrap();
        let want = syn0.row(id as usize);
        assert!(
            got.iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "store row {id} differs from the trainer's canonical syn0"
        );
    }
    std::fs::remove_dir_all(&ckdir).ok();
}

#[test]
fn store_reconstructs_the_canonical_model_under_a_crashed_host() {
    // Host 1 crashes mid-run, so the checkpoint's replicas disagree and
    // its liveness map records a dead host; the store must read each
    // dead-mastered row from the adopter's replica, exactly like the
    // trainer's own end-of-run assembly.
    let (_vocab, syn0, ckdir) = train_with_checkpoints("crash", Some("seed=7,crash=1@0"));
    let ckpt = Checkpoint::load(&Checkpoint::latest_in(&ckdir).unwrap().unwrap()).unwrap();
    assert!(
        ckpt.alive.iter().any(|&a| !a),
        "fault plan must leave a dead host in the checkpoint"
    );
    let store = ShardedStore::from_checkpoint(&ckpt, 4).unwrap();
    for id in 0..syn0.rows() as u32 {
        let got = store.vector(id).unwrap();
        let want = syn0.row(id as usize);
        assert!(
            got.iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "adopted row {id} differs from the trainer's canonical syn0"
        );
    }
    std::fs::remove_dir_all(&ckdir).ok();
}

/// Reference ranking in the serving layer's *canonical* arithmetic: a
/// full scan scoring every row with the fixed-order scalar kernel
/// (`scalar::dot(unit_query, row) * inv_norm`), quantized and tie-broken
/// exactly like the engine. The engine's dispatched GEMM scan only
/// nominates candidates; its served scores must reproduce this reference
/// bit-for-bit on every backend — which transitively pins scalar ≡ AVX2.
fn reference_topk(
    store: &ShardedStore,
    probe: &[f32],
    exclude: &[u32],
    k: usize,
) -> Vec<(i64, u32)> {
    use graph_word2vec::util::simd::scalar;
    let mut scored: Vec<(i64, u32)> = (0..store.len() as u32)
        .filter(|id| !exclude.contains(id))
        .map(|id| {
            let row = store.vector(id).unwrap();
            let inv = store.inv_norm(id).unwrap();
            (quantize(scalar::dot(probe, row) * inv), id)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored
}

/// The canonical unit vector of a stored row: raw row × precomputed
/// (scalar) inverse norm, mirroring the engine's query construction.
fn unit_of(store: &ShardedStore, id: u32) -> Vec<f32> {
    let inv = store.inv_norm(id).unwrap();
    store.vector(id).unwrap().iter().map(|x| x * inv).collect()
}

#[test]
fn topk_matches_the_canonical_full_scan_reference() {
    use graph_word2vec::util::simd::scalar;
    let (vocab, syn0, ckdir) = train_with_checkpoints("parity", None);
    let store = ShardedStore::from_matrix(&syn0, 8);
    let engine = QueryEngine::new(&store, &vocab);
    let k = 10;
    let n = store.len() as u32;
    for probe_id in (0..n).step_by((n as usize / 12).max(1)) {
        let word = vocab.word_of(probe_id).to_owned();
        let hits = engine.answer(&Query::Similar { word }, k).hits.unwrap();
        let got: Vec<(i64, u32)> = hits.iter().map(|h| (h.score_micro, h.id)).collect();
        let probe = unit_of(&store, probe_id);
        let want = reference_topk(&store, &probe, &[probe_id], k);
        assert_eq!(
            got,
            want,
            "sim top-{k} for id {probe_id} diverges from the canonical \
             full-scan reference (backend {})",
            graph_word2vec::util::simd::backend_name()
        );
        // Quantization really is the serialized value, and the canonical
        // f32 score tracks the true f64 cosine to within rounding.
        for h in &hits {
            assert_eq!(quantize(h.score() as f32), h.score_micro);
            let row = store.vector(h.id).unwrap();
            let (mut dot, mut nn) = (0.0f64, 0.0f64);
            for (p, &x) in probe.iter().zip(row) {
                dot += *p as f64 * x as f64;
                nn += x as f64 * x as f64;
            }
            let cos = dot / nn.sqrt();
            assert!(
                (h.score() - cos).abs() < 2e-6,
                "canonical score {got} drifted from f64 cosine {cos} for id {id}",
                got = h.score(),
                id = h.id
            );
        }
    }
    // A few analogies over planted-relation words.
    for (a, b, c) in [(0u32, 1u32, 2u32), (5, 9, 13), (20, 21, 22)] {
        let q = Query::Analogy {
            a: vocab.word_of(a).into(),
            b: vocab.word_of(b).into(),
            c: vocab.word_of(c).into(),
        };
        let hits = engine.answer(&q, k).hits.unwrap();
        let got: Vec<(i64, u32)> = hits.iter().map(|h| (h.score_micro, h.id)).collect();
        let (ua, ub, uc) = (unit_of(&store, a), unit_of(&store, b), unit_of(&store, c));
        let mut probe: Vec<f32> = (0..store.dim()).map(|i| ub[i] - ua[i] + uc[i]).collect();
        let pn = scalar::dot(&probe, &probe).sqrt();
        let pinv = 1.0 / pn;
        for x in &mut probe {
            *x *= pinv;
        }
        let want = reference_topk(&store, &probe, &[a, b, c], k);
        assert_eq!(
            got, want,
            "analogy({a},{b},{c}) diverges from the canonical reference"
        );
    }
    std::fs::remove_dir_all(&ckdir).ok();
}
