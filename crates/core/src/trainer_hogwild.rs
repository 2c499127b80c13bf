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
//! On x86 a relaxed atomic load/store compiles to a plain move; what a
//! worker does pay is the staging — every row is copied out of the
//! atomic cells, stepped by the dispatched kernel and copied back. Only
//! racing workers pay it: one worker steps a plain model in place
//! (`trainer_shared`), so one Hogwild thread is the sequential trainer.
//! This trainer is the paper's baseline;
//! [`crate::trainer_hogbatch::HogBatchTrainer`], which stages a row once
//! per window instead of once per target, is the threaded trainer to use.

use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::sgns::{SgnsStore, LAYER_SYN0, LAYER_SYN1NEG};
use crate::trainer_shared::{Preset, Step};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec::{self, FlatMatrix};
use gw2v_util::sigmoid::SigmoidTable;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Model storage shared across racing threads.
pub(crate) struct AtomicModel {
    /// `[syn0, syn1neg]`, indexed by [`LAYER_SYN0`] / [`LAYER_SYN1NEG`].
    layers: [Vec<AtomicU32>; 2],
    rows: usize,
    dim: usize,
}

impl AtomicModel {
    /// Converts a model into atomic storage.
    pub(crate) fn from_model(m: &Word2VecModel) -> Self {
        let conv = |layer: &FlatMatrix| {
            let cells = layer.as_slice().iter();
            cells.map(|v| AtomicU32::new(v.to_bits())).collect()
        };
        Self {
            layers: [conv(&m.syn0), conv(&m.syn1neg)],
            rows: m.n_words(),
            dim: m.dim(),
        }
    }

    /// Copies the current (settled) state into a plain model.
    pub(crate) fn snapshot(&self) -> Word2VecModel {
        let conv = |cells: &[AtomicU32]| {
            let vals = cells.iter().map(|a| f32::from_bits(a.load(Relaxed)));
            FlatMatrix::from_vec(vals.collect(), self.rows, self.dim)
        };
        Word2VecModel::from_layers(
            conv(&self.layers[LAYER_SYN0]),
            conv(&self.layers[LAYER_SYN1NEG]),
        )
    }

    /// The cells of `layer`'s row `row`, taken by one checked slice; `len`
    /// is the caller's buffer length, which must be the row's.
    #[inline]
    fn row(&self, layer: usize, row: usize, len: usize) -> &[AtomicU32] {
        assert_eq!(len, self.dim, "row buffer length");
        &self.layers[layer][row * self.dim..(row + 1) * self.dim]
    }

    /// Copies row `row` of `layer` into `out` (one relaxed load per cell).
    #[inline]
    pub(crate) fn read(&self, layer: usize, row: usize, out: &mut [f32]) {
        let cells = self.row(layer, row, out.len());
        for (slot, cell) in out.iter_mut().zip(cells) {
            *slot = f32::from_bits(cell.load(Relaxed));
        }
    }

    /// Writes `vals` into row `row` of `layer` (one relaxed store per cell).
    #[inline]
    pub(crate) fn write(&self, layer: usize, row: usize, vals: &[f32]) {
        for (v, cell) in vals.iter().zip(self.row(layer, row, vals.len())) {
            cell.store(v.to_bits(), Relaxed);
        }
    }
}

/// Per-thread view of the shared atomic model, for both SGNS loops.
///
/// Rows are staged through per-store scratch buffers so the arithmetic
/// runs the same dispatched kernel as every other trainer: with one
/// worker this store stays bit-identical to `PlainStore` on whichever
/// SIMD backend is active (pinned by a test in `trainer_shared`). The
/// per-pair loop gathers its context row once a pair and each target row
/// once; the minibatch loop gathers a row once per *window*. Either way
/// the read-copy / compute / write-back sequence keeps the Hogwild
/// recipe's racy read-modify-write semantics — each cell is one relaxed
/// load and one relaxed store per update, deliberately unsynchronized
/// across threads.
pub(crate) struct AtomicStore<'a> {
    model: &'a AtomicModel,
    /// The context row of a pair, or the row a delta is being added to.
    staged: Vec<f32>,
    /// The target row being stepped.
    target: Vec<f32>,
}

impl<'a> AtomicStore<'a> {
    /// Creates a worker view with dimension-sized scratch.
    pub(crate) fn new(model: &'a AtomicModel) -> Self {
        Self {
            model,
            staged: vec![0.0; model.dim],
            target: vec![0.0; model.dim],
        }
    }
}

impl SgnsStore for AtomicStore<'_> {
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
        self.model
            .read(LAYER_SYN0, context as usize, &mut self.staged);
        for (k, &t) in targets.iter().enumerate() {
            // The staged copy is a one-row layer, so the target is its
            // row 0; writing it back before the next gather lets a
            // repeated target see this step.
            self.model.read(LAYER_SYN1NEG, t as usize, &mut self.target);
            fvec::sgns_pair(
                &self.staged,
                &mut self.target,
                &[0],
                positive && k == 0,
                alpha,
                sigmoid,
                neu1e,
            );
            self.model.write(LAYER_SYN1NEG, t as usize, &self.target);
        }
    }

    #[inline]
    fn load(&self, layer: usize, row: u32, out: &mut [f32]) {
        self.model.read(layer, row as usize, out);
    }

    /// Read, `add_assign`, write.
    #[inline]
    fn add(&mut self, layer: usize, row: u32, delta: &[f32]) {
        self.model.read(layer, row as usize, &mut self.staged);
        fvec::add_assign(&mut self.staged, delta);
        self.model.write(layer, row as usize, &self.staged);
    }
}

/// Multi-threaded Hogwild trainer: the per-pair loop of
/// [`crate::trainer_seq::SequentialTrainer`] run by racing workers over
/// an `AtomicModel` when two or more are built; a lone worker steps a
/// plain model in place (see `trainer_shared` for the loop).
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

    /// Trains and returns the model.
    pub fn train(&self, corpus: &Corpus, vocab: &Vocabulary) -> Word2VecModel {
        self.train_with_callback(corpus, vocab, |_, _| {})
    }

    /// Trains with a per-epoch callback (observes a settled model).
    pub(crate) fn train_with_callback(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        on_epoch: impl FnMut(usize, &Word2VecModel),
    ) -> Word2VecModel {
        Preset {
            name: "hogwild",
            rng_stream: 0,
            params: &self.params,
            n_threads: self.n_threads,
            step: Step::PerPair,
        }
        .run(corpus, vocab, on_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer_shared::clustered_corpus;
    use gw2v_util::fvec;

    #[test]
    fn single_thread_matches_sequential_bitwise() {
        let (corpus, vocab) = clustered_corpus();
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
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            dim: 24,
            epochs: 6,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let model = HogwildTrainer::new(params, 4).train(&corpus, &vocab);
        let emb = |w: &str| model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("a0"), emb("a1"));
        let cross = fvec::cosine(emb("a0"), emb("b1"));
        assert!(same > cross, "same {same} vs cross {cross}");
        assert!(model.syn0.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn atomic_model_roundtrip() {
        let m = Word2VecModel::init(5, 8, 3);
        assert_eq!(AtomicModel::from_model(&m).snapshot(), m);
    }

    #[test]
    fn accessors_move_one_whole_row_of_the_named_layer() {
        let m = Word2VecModel::init(5, 8, 3);
        let atomic = AtomicModel::from_model(&m);
        let mut row = [0.0f32; 8];
        atomic.read(LAYER_SYN0, 4, &mut row);
        assert_eq!(row, m.syn0.row(4));
        row[7] = 0.5;
        atomic.write(LAYER_SYN1NEG, 0, &row);
        let mut want = m.clone();
        want.syn1neg.row_mut(0).copy_from_slice(&row);
        assert_eq!(atomic.snapshot(), want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_row_past_the_end_panics_on_the_slice_bound() {
        let atomic = AtomicModel::from_model(&Word2VecModel::init(5, 8, 3));
        atomic.read(LAYER_SYN1NEG, 5, &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "row buffer length")]
    fn a_short_read_buffer_is_rejected_not_truncated() {
        let atomic = AtomicModel::from_model(&Word2VecModel::init(5, 8, 3));
        atomic.read(LAYER_SYN0, 0, &mut [0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "row buffer length")]
    fn a_long_write_buffer_is_rejected_not_truncated() {
        let atomic = AtomicModel::from_model(&Word2VecModel::init(5, 8, 3));
        atomic.write(LAYER_SYN0, 0, &[0.0; 9]);
    }
}
