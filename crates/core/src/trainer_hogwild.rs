//! Hogwild shared-memory trainer (paper §2.3).
//!
//! "In Hogwild! multiple threads compute gradients for different training
//! examples and they update the model parameters in a race fashion.
//! Surprisingly, this approach works well on a shared-memory system
//! specially when the gradients are sparse. We incorporated this method
//! for parallelizing within a node."
//!
//! Model cells are `AtomicU32`s holding `f32` bits, read and written with
//! `Relaxed` ordering: individual loads/stores are atomic (no torn
//! values, which would be UB with plain `f32` under racing threads) but
//! read-modify-write sequences deliberately race — the Hogwild recipe.
//! On x86 a relaxed atomic load/store compiles to a plain move, so the
//! single-thread path pays nothing.

use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::schedule::LrSchedule;
use crate::setup::{TrainSetup, HOST_RNG_BASE};
use crate::sgns::{train_sentence, SgnsStore};
use crate::sigmoid::SigmoidTable;
use crate::trainer_hogbatch::MinibatchScratch;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec;
use gw2v_util::rng::{SplitMix64, Xoshiro256};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

/// Model storage shared across racing threads.
pub struct AtomicModel {
    syn0: Vec<AtomicU32>,
    syn1neg: Vec<AtomicU32>,
    rows: usize,
    dim: usize,
}

impl AtomicModel {
    /// Converts a model into atomic storage.
    pub fn from_model(m: &Word2VecModel) -> Self {
        let conv = |s: &[f32]| s.iter().map(|v| AtomicU32::new(v.to_bits())).collect();
        Self {
            syn0: conv(m.syn0.as_slice()),
            syn1neg: conv(m.syn1neg.as_slice()),
            rows: m.n_words(),
            dim: m.dim(),
        }
    }

    /// Copies the current (settled) state into a plain model without
    /// consuming the atomic storage.
    pub fn snapshot(&self) -> Word2VecModel {
        let conv = |v: &[AtomicU32]| -> Vec<f32> {
            v.iter().map(|a| f32::from_bits(a.load(Relaxed))).collect()
        };
        Word2VecModel::from_layers(
            gw2v_util::fvec::FlatMatrix::from_vec(conv(&self.syn0), self.rows, self.dim),
            gw2v_util::fvec::FlatMatrix::from_vec(conv(&self.syn1neg), self.rows, self.dim),
        )
    }

    /// Converts back into a plain model.
    pub fn into_model(self) -> Word2VecModel {
        let conv = |v: Vec<AtomicU32>| -> Vec<f32> {
            v.into_iter()
                .map(|a| f32::from_bits(a.into_inner()))
                .collect()
        };
        let dim = self.dim;
        let rows = self.rows;
        Word2VecModel::from_layers(
            gw2v_util::fvec::FlatMatrix::from_vec(conv(self.syn0), rows, dim),
            gw2v_util::fvec::FlatMatrix::from_vec(conv(self.syn1neg), rows, dim),
        )
    }

    /// Embedding dimensionality.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Copies `syn0[row]` into `out` (one relaxed load per cell).
    #[inline]
    pub(crate) fn read_row0(&self, row: usize, out: &mut [f32]) {
        let base = row * self.dim;
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f32::from_bits(self.syn0[base + i].load(Relaxed));
        }
    }

    /// Copies `syn1neg[row]` into `out`.
    #[inline]
    pub(crate) fn read_row1(&self, row: usize, out: &mut [f32]) {
        let base = row * self.dim;
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f32::from_bits(self.syn1neg[base + i].load(Relaxed));
        }
    }

    /// Writes `vals` into `syn0[row]` (one relaxed store per cell).
    #[inline]
    pub(crate) fn write_row0(&self, row: usize, vals: &[f32]) {
        let base = row * self.dim;
        for (i, &v) in vals.iter().enumerate() {
            self.syn0[base + i].store(v.to_bits(), Relaxed);
        }
    }

    /// Writes `vals` into `syn1neg[row]`.
    #[inline]
    pub(crate) fn write_row1(&self, row: usize, vals: &[f32]) {
        let base = row * self.dim;
        for (i, &v) in vals.iter().enumerate() {
            self.syn1neg[base + i].store(v.to_bits(), Relaxed);
        }
    }
}

/// Per-thread view of the shared atomic model.
///
/// Rows are staged through per-store scratch buffers so the arithmetic
/// runs the same dispatched kernel as every other trainer: a 1-thread
/// Hogwild run stays bit-identical to the sequential trainer on
/// whichever SIMD backend is active (pinned by a test below). A pair
/// gathers its context row once and each target row once; the
/// read-copy / compute / write-back sequence keeps the Hogwild recipe's
/// racy read-modify-write semantics — each cell is still one relaxed
/// load and one relaxed store per update, deliberately unsynchronized
/// across threads. Create one store per worker (outside the sentence
/// loop) so the scratch is allocated once.
pub struct HogwildStore<'a> {
    model: &'a AtomicModel,
    win_buf: Vec<f32>,
    wout_buf: Vec<f32>,
}

impl<'a> HogwildStore<'a> {
    /// Creates a worker view with dimension-sized scratch.
    pub fn new(model: &'a AtomicModel) -> Self {
        Self {
            model,
            win_buf: vec![0.0; model.dim],
            wout_buf: vec![0.0; model.dim],
        }
    }
}

impl SgnsStore for HogwildStore<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.model.dim
    }

    #[inline]
    fn step_pair(
        &mut self,
        context: u32,
        targets: &[u32],
        positive: bool,
        alpha: f32,
        sigmoid: &SigmoidTable,
        neu1e: &mut [f32],
    ) {
        self.model.read_row0(context as usize, &mut self.win_buf);
        for (k, &t) in targets.iter().enumerate() {
            // The staged copy is a one-row layer, so the target is its
            // row 0; writing it back before the next gather lets a
            // repeated target see this step.
            self.model.read_row1(t as usize, &mut self.wout_buf);
            fvec::sgns_pair(
                &self.win_buf,
                &mut self.wout_buf,
                &[0],
                positive && k == 0,
                alpha,
                sigmoid,
                neu1e,
            );
            self.model.write_row1(t as usize, &self.wout_buf);
        }
    }

    #[inline]
    fn add_in(&mut self, win: u32, buf: &[f32]) {
        self.model.read_row0(win as usize, &mut self.win_buf);
        fvec::add_assign(&mut self.win_buf, buf);
        self.model.write_row0(win as usize, &self.win_buf);
    }
}

/// Multi-threaded Hogwild trainer.
pub struct HogwildTrainer {
    /// Hyperparameters.
    pub params: Hyperparams,
    /// Number of racing worker threads.
    pub n_threads: usize,
}

impl HogwildTrainer {
    /// Creates a trainer with `n_threads` workers.
    pub fn new(params: Hyperparams, n_threads: usize) -> Self {
        assert!(n_threads > 0);
        Self { params, n_threads }
    }

    /// Trains and returns the model. Threads split the corpus into
    /// contiguous token-balanced shards (like the C implementation) and
    /// share a global progress counter for the learning-rate schedule.
    pub fn train(&self, corpus: &Corpus, vocab: &Vocabulary) -> Word2VecModel {
        self.train_with_callback(corpus, vocab, |_, _| {})
    }

    /// Trains with a per-epoch callback: each epoch spawns a fresh thread
    /// scope (threads race within an epoch; epoch boundaries are exact),
    /// so the callback observes a settled model. Per-thread RNGs, stores
    /// and scratches persist across epochs, so steady-state epochs
    /// allocate nothing.
    pub fn train_with_callback(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        mut on_epoch: impl FnMut(usize, &Word2VecModel),
    ) -> Word2VecModel {
        let p = &self.params;
        let setup = TrainSetup::new(vocab, p);
        let init = Word2VecModel::init(vocab.len(), p.dim, p.seed);
        let atomic = AtomicModel::from_model(&init);
        let schedule = LrSchedule::new(
            p.alpha,
            p.min_alpha_frac,
            corpus.total_tokens() as u64,
            p.epochs,
        );
        let progress = AtomicU64::new(0);
        let root = SplitMix64::new(p.seed);
        // Per-thread state hoisted outside the epoch loop: the RNG (so
        // streams continue across epochs), the store (its row staging
        // buffers) and the pooled scratch are each allocated once per
        // run, never per epoch or per sentence.
        let mut workers: Vec<(Xoshiro256, HogwildStore<'_>, MinibatchScratch)> = (0..self
            .n_threads)
            .map(|t| {
                (
                    Xoshiro256::new(root.derive(HOST_RNG_BASE + t as u64)),
                    HogwildStore::new(&atomic),
                    MinibatchScratch::new(),
                )
            })
            .collect();

        for epoch in 0..p.epochs {
            let mut epoch_span = gw2v_obs::span("core.hogwild.epoch").epoch(epoch);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (t, (rng, store, scratch)) in workers.iter_mut().enumerate() {
                    let shard = corpus.partition(t, self.n_threads);
                    let setup = &setup;
                    let progress = &progress;
                    let schedule = &schedule;
                    handles.push(scope.spawn(move || {
                        let ctx = setup.ctx(p);
                        let mut pairs: u64 = 0;
                        for sentence in shard.sentences() {
                            let done = progress.load(Relaxed);
                            let alpha = schedule.alpha_at(done);
                            pairs += train_sentence(
                                store,
                                sentence,
                                alpha,
                                &ctx,
                                rng,
                                &mut scratch.pair,
                            );
                            progress.fetch_add(sentence.len() as u64, Relaxed);
                        }
                        // One registry touch per thread per epoch.
                        gw2v_obs::add("core.hogwild.pairs", pairs);
                    }));
                }
                for h in handles {
                    h.join().expect("hogwild worker panicked");
                }
            });
            if gw2v_obs::enabled() {
                epoch_span.field("threads", self.n_threads as f64);
            }
            drop(epoch_span);
            // Settled between epochs: snapshot for the callback.
            let snapshot = atomic.snapshot();
            on_epoch(epoch, &snapshot);
        }
        drop(workers);
        atomic.into_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_corpus::tokenizer::TokenizerConfig;
    use gw2v_corpus::vocab::VocabBuilder;
    use gw2v_util::fvec;

    fn corpus() -> (Corpus, Vocabulary) {
        let mut text = String::new();
        for i in 0..300 {
            if i % 2 == 0 {
                text.push_str("x0 x1 x2 x1 x0\n");
            } else {
                text.push_str("y0 y1 y2 y1 y0\n");
            }
        }
        let mut b = VocabBuilder::new();
        for tok in text.split_whitespace() {
            b.add_token(tok);
        }
        let vocab = b.build(1);
        let cfg = TokenizerConfig {
            lowercase: false,
            max_sentence_len: 5,
        };
        (Corpus::from_text(&text, &vocab, cfg), vocab)
    }

    #[test]
    fn single_thread_matches_sequential_bitwise() {
        let (corpus, vocab) = corpus();
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let seq = crate::trainer_seq::SequentialTrainer::new(params.clone()).train(&corpus, &vocab);
        let hog = HogwildTrainer::new(params, 1).train(&corpus, &vocab);
        assert_eq!(seq, hog, "1-thread Hogwild must equal sequential");
    }

    #[test]
    fn multi_thread_still_learns() {
        let (corpus, vocab) = corpus();
        let params = Hyperparams {
            dim: 24,
            epochs: 6,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let model = HogwildTrainer::new(params, 4).train(&corpus, &vocab);
        let emb = |w: &str| model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("x0"), emb("x1"));
        let cross = fvec::cosine(emb("x0"), emb("y1"));
        assert!(same > cross, "same {same} vs cross {cross}");
        assert!(model.syn0.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn atomic_model_roundtrip() {
        let m = Word2VecModel::init(5, 8, 3);
        let back = AtomicModel::from_model(&m).into_model();
        assert_eq!(m, back);
    }
}
