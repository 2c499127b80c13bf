//! HogBatch shared-negative minibatch trainer (Ji et al.,
//! arXiv:1604.04661 / arXiv:1611.06172).
//!
//! Per-pair SGNS ([`crate::sgns::train_sentence`]) walks one
//! (context, target) edge at a time with level-1 `dot`/`axpy` kernels:
//! every step re-reads both model rows, so the arithmetic intensity is
//! too low for threads (or SIMD) to win anything — the shared rows
//! bounce between per-pair atomic copies. HogBatch restructures the
//! window update so each sentence window becomes a *minibatch*:
//!
//! ```text
//! for each surviving center i:
//!   inputs  = the context words of i's (shrunk) window   # mb rows
//!   targets = [center] + negative samples (one shared set) # nt rows
//!   X = syn0[inputs]                                      # mb×d
//!   O = syn1neg[targets]                                  # nt×d
//!   S = X·Oᵀ                                              # mb×nt
//!   G[r,j] = (label_j − σ(S[r,j]))·α                      # elementwise
//!   syn1neg[targets] += Gᵀ·X                              # rank-mb update
//!   syn0[inputs]     += G·O                               # rank-nt update
//! ```
//!
//! Ji et al. run the three products as level-3 BLAS calls. At this
//! repo's shapes (about 6 inputs × 6 targets × dim 64) the gathers,
//! the transpose and the scatter around three tiny GEMMs cost more than
//! the GEMMs, so one dispatched kernel, [`fvec::sgns_window`], does the
//! whole window in place: it reads `X` and `O` where they live
//! ([`SgnsStore::window_layers`]), takes all of `G` before its first
//! write, and adds each delta row to its row, the targets first, then
//! the inputs, as a scatter would — with the bits of `gemm_nt` → σ →
//! `gemm_tn` → row-by-row `+=` on gathered copies. The racing atomic
//! model has no plain slices: it gathers copies, takes the deltas in
//! blocks of `-0.0` and adds them through [`SgnsStore::add`].
//! The price is *staleness*: every product in a window sees the rows as
//! they were at the start of the window (plus one shared negative set
//! per window instead of one per pair).
//! Ji et al. show — and `tests/hogbatch_parity.rs` pins — that accuracy
//! is statistically indistinguishable from the sequential trainer.
//!
//! The RNG discipline matters for the distributed engines: frequent-word
//! subsampling and window shrinking make the same *kinds* of draws as
//! the per-pair loop (the streams diverge after the first window, since
//! one shared set consumes fewer draws than per-pair negatives), and the
//! shared negative set is drawn *only when the window has at least one
//! context* (the per-pair loop draws nothing for empty windows either).
//! No stochastic choice depends on model values, so replaying a sentence
//! against the [`crate::sgns::RecordingStore`] with a cloned RNG predicts
//! the touch set of the real execution exactly — the same property the
//! PullModel inspection phase relies on for per-pair training.
//!
//! The loop reaches the model through the per-pair loop's
//! [`SgnsStore`]: it never does arithmetic *through* the store. It takes
//! both layers for the kernel ([`SgnsStore::window_layers`], where a
//! tracking store first touches the targets, then the inputs), or else
//! copies rows out ([`SgnsStore::load`]) and adds whole-row deltas back
//! ([`SgnsStore::add`]), the targets first, then the inputs.

use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::sgns::{
    keep_subsampled, window_contexts, SgnsStore, TrainContext, TrainScratch, LAYER_SYN0,
    LAYER_SYN1NEG,
};
use crate::trainer_shared::{Preset, Step};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::unigram::NegativeSampler;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec;
use gw2v_util::rng::Rng64;
use gw2v_util::sigmoid::SigmoidTable;
use gw2v_util::simd::{WindowRoom, WindowRows};

/// Which SGNS inner loop a trainer runs.
///
/// Part of [`crate::distributed::DistConfig`], so it feeds the
/// checkpoint fingerprint: resuming a run under a different mode is
/// rejected (the RNG streams differ, so the trajectories diverge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SgnsMode {
    /// Classic per-pair loop ([`crate::sgns::train_sentence`]): one
    /// dot/axpy step per (context, target) edge, fresh negatives per
    /// pair. Bit-compatible with the reference C implementation.
    PerPair,
    /// Shared-negative minibatch loop ([`train_sentence_hogbatch`]): one
    /// negative set per window, GEMM-shaped updates.
    HogBatch,
}

/// Pooled per-worker scratch for both SGNS loops.
///
/// Owns the per-pair [`TrainScratch`] plus every buffer the minibatch
/// path writes, so a worker allocates nothing per sentence after
/// the first window of the hot shape (same discipline as
/// `gw2v_gluon::SyncScratch`): buffers grow to the high-water mark on
/// first use and are reused verbatim afterwards. Create one per worker
/// and keep it across epochs.
#[derive(Clone, Debug, Default)]
pub struct MinibatchScratch {
    /// Per-pair scratch (`kept` doubles as the subsample buffer for the
    /// minibatch loop; `neu1e` is the batched trainer's accumulator).
    pub(crate) pair: TrainScratch,
    /// Deferred (context, target) pairs for the batched trainer.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// Context word ids of the current window (minibatch rows).
    inputs: Vec<u32>,
    /// Center + shared negative ids of the current window.
    targets: Vec<u32>,
    /// What [`step_window`] writes.
    window: WindowScratch,
    minibatches: u64,
    shared_negatives: u64,
}

impl MinibatchScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the `(minibatches, shared_negatives)` counters accumulated
    /// since the last call — flush them into `gw2v-obs` once per worker
    /// per epoch, not per sentence.
    pub(crate) fn take_stats(&mut self) -> (u64, u64) {
        let stats = (self.minibatches, self.shared_negatives);
        self.minibatches = 0;
        self.shared_negatives = 0;
        stats
    }
}

/// Pooled buffers of [`step_window`], grown to the largest window seen
/// and reused.
#[derive(Clone, Debug, Default)]
pub struct WindowScratch {
    /// The window kernel's working room.
    room: WindowRoom,
    // The rest serves only a store without plain slices.
    /// `syn0[inputs]`, `mb×d` row-major.
    x: Vec<f32>,
    /// `syn1neg[targets]`, `nt×d`.
    o: Vec<f32>,
    /// `0, 1, 2, …`: the gathered rows' ids.
    ids: Vec<u32>,
    /// The gathered rows' deltas, `mb×d` then `nt×d`, each added into
    /// `-0.0`.
    deltas: Vec<f32>,
}

/// One HogBatch window against `rows`: `inputs` (the context words,
/// `syn0` rows) against `targets` (the center, then the shared
/// negatives, `syn1neg` rows), every product reading the rows as they
/// were at the start of the window, the `syn1neg` rows updated first,
/// then the `syn0` rows. A repeated id takes each of its deltas.
pub fn step_window<M: SgnsStore>(
    rows: &mut M,
    inputs: &[u32],
    targets: &[u32],
    alpha: f32,
    sigmoid: &SigmoidTable,
    scratch: &mut WindowScratch,
) {
    let d = rows.dim();
    if let Some(layers) = rows.window_layers(inputs, targets) {
        let layers = WindowRows::InPlace(layers);
        fvec::sgns_window(
            layers,
            d,
            inputs,
            targets,
            alpha,
            sigmoid,
            &mut scratch.room,
        );
        return;
    }
    // No plain slices (the racing atomic model): gather the rows, name
    // them by their place in the copies, and take each delta's exact
    // bits in a block of `-0.0`, the additive identity.
    let (mb, nt) = (inputs.len(), targets.len());
    scratch.x.resize(mb * d, 0.0);
    for (r, &w) in inputs.iter().enumerate() {
        rows.load(LAYER_SYN0, w, &mut scratch.x[r * d..(r + 1) * d]);
    }
    scratch.o.resize(nt * d, 0.0);
    for (j, &t) in targets.iter().enumerate() {
        rows.load(LAYER_SYN1NEG, t, &mut scratch.o[j * d..(j + 1) * d]);
    }
    let ids = &mut scratch.ids;
    ids.extend(ids.len() as u32..mb.max(nt) as u32);
    scratch.deltas.clear();
    scratch.deltas.resize((mb + nt) * d, -0.0);
    let (in_delta, out_delta) = scratch.deltas.split_at_mut(mb * d);
    let gathered = WindowRows::Apart {
        src: [&scratch.x, &scratch.o],
        dst: [&mut *in_delta, &mut *out_delta],
    };
    fvec::sgns_window(
        gathered,
        d,
        &ids[..mb],
        &ids[..nt],
        alpha,
        sigmoid,
        &mut scratch.room,
    );
    // Sequential `+=` per row: duplicate ids (repeated negatives, a word
    // appearing twice in a window) take both deltas — the HogBatch
    // staleness contract.
    for (j, &t) in targets.iter().enumerate() {
        rows.add(LAYER_SYN1NEG, t, &out_delta[j * d..(j + 1) * d]);
    }
    for (r, &w) in inputs.iter().enumerate() {
        rows.add(LAYER_SYN0, w, &in_delta[r * d..(r + 1) * d]);
    }
}

/// Trains one sentence with shared-negative minibatches; returns the
/// number of (positive) pairs stepped, like
/// [`crate::sgns::train_sentence`].
///
/// Subsampling and window shrinking consume `rng` exactly as the
/// per-pair loop does; the negative draws differ by construction (one
/// set per window instead of one per pair), so the two modes are
/// trajectory-different but accuracy-equivalent.
pub fn train_sentence_hogbatch<M, S, R>(
    rows: &mut M,
    sentence: &[u32],
    alpha: f32,
    ctx: &TrainContext<'_, S>,
    rng: &mut R,
    scratch: &mut MinibatchScratch,
) -> u64
where
    M: SgnsStore,
    S: NegativeSampler,
    R: Rng64,
{
    debug_assert!(ctx.window >= 1);
    keep_subsampled(&mut scratch.pair.kept, sentence, ctx.subsample, rng);
    let mut pairs = 0u64;
    for (i, &center) in scratch.pair.kept.iter().enumerate() {
        // Random window shrink, same draw as the per-pair loop.
        let b = rng.index(ctx.window);
        scratch.inputs.clear();
        scratch
            .inputs
            .extend(window_contexts(&scratch.pair.kept, i, ctx.window, b));
        if scratch.inputs.is_empty() {
            // The per-pair loop draws no negatives for an empty window
            // either; keeping that invariant keeps inspection replays in
            // lock-step with execution.
            continue;
        }
        // One shared negative set for the whole window. Accidental hits
        // on the center are skipped (not redrawn), as in the C code.
        scratch.targets.clear();
        scratch.targets.push(center);
        for _ in 0..ctx.negative {
            let t = ctx.sampler.sample(rng);
            if t != center {
                scratch.targets.push(t);
            }
        }
        let mb = scratch.inputs.len();
        let nt = scratch.targets.len();
        scratch.minibatches += 1;
        scratch.shared_negatives += (nt - 1) as u64;
        pairs += mb as u64;
        if !M::COMPUTE {
            // Inspection: mark the rows the real run will read & write.
            for &t in &scratch.targets {
                rows.add(LAYER_SYN1NEG, t, &[]);
            }
            for &w in &scratch.inputs {
                rows.add(LAYER_SYN0, w, &[]);
            }
            continue;
        }
        step_window(
            rows,
            &scratch.inputs,
            &scratch.targets,
            alpha,
            ctx.sigmoid,
            &mut scratch.window,
        );
    }
    pairs
}

/// Multi-threaded shared-memory HogBatch trainer.
///
/// The same run as [`crate::trainer_hogwild::HogwildTrainer`] — racing
/// workers over an `AtomicModel` (a lone worker steps a plain model),
/// contiguous token-balanced shards, a shared progress counter for the
/// learning-rate schedule, exact epoch boundaries, worker `t` on the same
/// RNG stream (see `trainer_shared`) — only the sentence step differs. That
/// makes `hogwild` vs `hogbatch` benches an apples-to-apples measurement
/// of the minibatch restructuring.
pub struct HogBatchTrainer {
    /// Hyperparameters.
    pub params: Hyperparams,
    /// Number of racing worker threads.
    pub n_threads: usize,
}

impl HogBatchTrainer {
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
            name: "hogbatch",
            rng_stream: 0,
            params: &self.params,
            n_threads: self.n_threads,
            step: Step::HogBatch,
        }
        .run(corpus, vocab, on_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Sampler;
    use crate::sgns::{train_sentence, PlainStore, RecordingStore, ReplicaStore};
    use crate::trainer_shared::clustered_corpus;
    use gw2v_corpus::subsample::SubsampleTable;
    use gw2v_corpus::unigram::AliasSampler;
    use gw2v_corpus::vocab::VocabBuilder;
    use gw2v_gluon::ModelReplica;
    use gw2v_util::rng::Xoshiro256;
    use gw2v_util::sigmoid::SigmoidTable;

    struct Fixture {
        sampler: AliasSampler,
        sigmoid: SigmoidTable,
        subsample: SubsampleTable,
    }

    impl Fixture {
        fn new(n: usize) -> Self {
            let mut b = VocabBuilder::new();
            for i in 0..n {
                for _ in 0..(2 * (n - i)) {
                    b.add_token(&format!("w{i:03}"));
                }
            }
            let vocab = b.build(1);
            let sampler = AliasSampler::from_vocab(&vocab);
            Self {
                subsample: SubsampleTable::new(&vocab, 0.0), // keep all
                sigmoid: SigmoidTable::new(),
                sampler,
            }
        }

        fn ctx(&self, window: usize, negative: usize) -> TrainContext<'_, AliasSampler> {
            TrainContext {
                window,
                negative,
                sigmoid: &self.sigmoid,
                sampler: &self.sampler,
                subsample: &self.subsample,
            }
        }
    }

    #[test]
    fn hogbatch_sentence_is_deterministic() {
        let fx = Fixture::new(12);
        let sentence: Vec<u32> = vec![0, 3, 5, 7, 2, 1];
        let ctx = fx.ctx(3, 5);
        let run = || {
            let mut model = Word2VecModel::init(12, 8, 11);
            let mut rng = Xoshiro256::new(42);
            let mut scratch = MinibatchScratch::new();
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            let pairs =
                train_sentence_hogbatch(&mut store, &sentence, 0.025, &ctx, &mut rng, &mut scratch);
            (model, pairs, scratch.take_stats())
        };
        let (m1, p1, s1) = run();
        let (m2, p2, s2) = run();
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
        assert!(p1 > 0);
        assert!(s1.0 > 0, "no minibatches counted");
        assert!(s1.1 > 0, "no shared negatives counted");
    }

    #[test]
    fn hogbatch_counts_same_pairs_as_per_pair() {
        // With window=1 and a two-token sentence every window holds
        // exactly one context, so both loops draw the same number of
        // negatives and their RNG streams stay in lock-step — the pair
        // counts must then match exactly. (Longer windows interleave
        // draws differently, so counts legitimately diverge there.)
        let fx = Fixture::new(15);
        let sentence: Vec<u32> = vec![4, 9];
        let ctx = fx.ctx(1, 4);
        let mut model_a = Word2VecModel::init(15, 12, 77);
        let mut rng_a = Xoshiro256::new(9);
        let mut scratch_a = TrainScratch::default();
        let mut store_a = PlainStore {
            syn0: &mut model_a.syn0,
            syn1neg: &mut model_a.syn1neg,
        };
        let per_pair = train_sentence(
            &mut store_a,
            &sentence,
            0.03,
            &ctx,
            &mut rng_a,
            &mut scratch_a,
        );
        let mut model_b = Word2VecModel::init(15, 12, 77);
        let mut rng_b = Xoshiro256::new(9);
        let mut scratch_b = MinibatchScratch::new();
        let mut store_b = PlainStore {
            syn0: &mut model_b.syn0,
            syn1neg: &mut model_b.syn1neg,
        };
        let hogbatch = train_sentence_hogbatch(
            &mut store_b,
            &sentence,
            0.03,
            &ctx,
            &mut rng_b,
            &mut scratch_b,
        );
        assert_eq!(per_pair, hogbatch);
        assert!(per_pair > 0);
    }

    #[test]
    fn hogbatch_positive_pair_similarity_increases() {
        let fx = Fixture::new(10);
        let mut model = Word2VecModel::init(10, 16, 3);
        let sentence = vec![1u32, 2];
        let ctx = fx.ctx(2, 3);
        let before = fvec::dot(model.syn0.row(2), model.syn1neg.row(1));
        let mut rng = Xoshiro256::new(5);
        let mut scratch = MinibatchScratch::new();
        for _ in 0..200 {
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            train_sentence_hogbatch(&mut store, &sentence, 0.05, &ctx, &mut rng, &mut scratch);
        }
        let after = fvec::dot(model.syn0.row(2), model.syn1neg.row(1));
        assert!(after > before + 0.5, "dot went {before} -> {after}");
    }

    #[test]
    fn recording_store_predicts_hogbatch_touch_sets_exactly() {
        let fx = Fixture::new(20);
        let sentence: Vec<u32> = vec![3, 8, 15, 1, 0, 19, 4, 4, 7];
        let ctx = fx.ctx(3, 6);
        // Inspection replay with a cloned RNG...
        let mut rng_inspect = Xoshiro256::new(123);
        let mut recorder = RecordingStore::new(20, 10);
        let mut scratch = MinibatchScratch::new();
        train_sentence_hogbatch(
            &mut recorder,
            &sentence,
            0.025,
            &ctx,
            &mut rng_inspect,
            &mut scratch,
        );
        // ...then the real execution with the same starting RNG state.
        let init = Word2VecModel::init(20, 10, 5);
        let mut replica = ModelReplica::new(vec![init.syn0, init.syn1neg]);
        let mut rng_real = Xoshiro256::new(123);
        {
            let mut store = ReplicaStore {
                replica: &mut replica,
            };
            train_sentence_hogbatch(
                &mut store,
                &sentence,
                0.025,
                &ctx,
                &mut rng_real,
                &mut scratch,
            );
        }
        assert_eq!(
            &recorder.syn0_access,
            replica.tracker(LAYER_SYN0).touched_bits(),
            "inspection must predict syn0 touches exactly"
        );
        assert_eq!(
            &recorder.syn1_access,
            replica.tracker(LAYER_SYN1NEG).touched_bits(),
            "inspection must predict syn1neg touches exactly"
        );
        // And the RNGs advanced identically.
        assert_eq!(rng_inspect.next_u64(), rng_real.next_u64());
    }

    #[test]
    fn replica_store_matches_plain_store_under_hogbatch() {
        let fx = Fixture::new(15);
        let sentence: Vec<u32> = vec![4, 9, 1, 0, 13, 2, 6];
        let ctx = fx.ctx(2, 4);
        let mut model = Word2VecModel::init(15, 12, 77);
        let mut rng_a = Xoshiro256::new(9);
        let mut scratch = MinibatchScratch::new();
        {
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            train_sentence_hogbatch(&mut store, &sentence, 0.03, &ctx, &mut rng_a, &mut scratch);
        }
        let init = Word2VecModel::init(15, 12, 77);
        let mut replica = ModelReplica::new(vec![init.syn0, init.syn1neg]);
        let mut rng_b = Xoshiro256::new(9);
        {
            let mut store = ReplicaStore {
                replica: &mut replica,
            };
            train_sentence_hogbatch(&mut store, &sentence, 0.03, &ctx, &mut rng_b, &mut scratch);
        }
        assert_eq!(model.syn0, replica.layers[LAYER_SYN0]);
        assert_eq!(model.syn1neg, replica.layers[LAYER_SYN1NEG]);
    }

    /// A plain model reached only through `load` and `add`, as the
    /// atomic store is, logging each layer's rows in first-`add` order.
    struct AddLog {
        model: Word2VecModel,
        order: [Vec<u32>; 2],
    }

    impl SgnsStore for AddLog {
        fn dim(&self) -> usize {
            self.model.dim()
        }

        fn step_pair(
            &mut self,
            _: u32,
            _: &[u32],
            _: bool,
            _: f32,
            _: &SigmoidTable,
            _: &mut [f32],
        ) {
            unreachable!("the HogBatch loop steps no pair");
        }

        fn load(&self, layer: usize, row: u32, out: &mut [f32]) {
            let layers = [&self.model.syn0, &self.model.syn1neg];
            out.copy_from_slice(layers[layer].row(row as usize));
        }

        fn add(&mut self, layer: usize, row: u32, delta: &[f32]) {
            if !self.order[layer].contains(&row) {
                self.order[layer].push(row);
            }
            let layers = [&mut self.model.syn0, &mut self.model.syn1neg];
            fvec::add_assign(layers[layer].row_mut(row as usize), delta);
        }
    }

    #[test]
    fn the_in_place_window_is_the_gathered_window_added_row_by_row() {
        // Window 4 over a sentence with repeats: up to eight inputs, and
        // a repeated id among them or among the 12 negatives.
        let fx = Fixture::new(9);
        let sentence: Vec<u32> = vec![4, 8, 1, 0, 4, 2, 6, 1, 3, 8, 5, 4];
        let ctx = fx.ctx(4, 12);
        let init = Word2VecModel::init(9, 11, 21);
        let mut scratch = MinibatchScratch::new();
        let mut gathered = AddLog {
            model: init.clone(),
            order: [Vec::new(), Vec::new()],
        };
        let mut rng = Xoshiro256::new(3);
        train_sentence_hogbatch(&mut gathered, &sentence, 0.05, &ctx, &mut rng, &mut scratch);
        let mut replica = ModelReplica::new(vec![init.syn0.clone(), init.syn1neg.clone()]);
        let mut rng = Xoshiro256::new(3);
        let mut store = ReplicaStore {
            replica: &mut replica,
        };
        train_sentence_hogbatch(&mut store, &sentence, 0.05, &ctx, &mut rng, &mut scratch);
        assert_eq!(gathered.model.syn0, replica.layers[LAYER_SYN0]);
        assert_eq!(gathered.model.syn1neg, replica.layers[LAYER_SYN1NEG]);
        // The replica took its rows in the order the adds reach them, each
        // base the row as it was before the sentence.
        for (layer, init) in [(LAYER_SYN0, &init.syn0), (LAYER_SYN1NEG, &init.syn1neg)] {
            let tracker = replica.tracker(layer);
            assert_eq!(
                tracker.touched_nodes(),
                &gathered.order[layer][..],
                "layer {layer}"
            );
            for &node in tracker.touched_nodes() {
                assert_eq!(tracker.base_of(node), init.row(node as usize));
            }
        }
    }

    #[test]
    fn hogbatch_single_thread_is_deterministic() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let a = HogBatchTrainer::new(params.clone(), 1).train(&corpus, &vocab);
        let b = HogBatchTrainer::new(params, 1).train(&corpus, &vocab);
        assert_eq!(a, b, "1-thread HogBatch must be run-to-run deterministic");
    }

    #[test]
    fn hogbatch_multi_thread_still_learns() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            dim: 24,
            epochs: 6,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let model = HogBatchTrainer::new(params, 4).train(&corpus, &vocab);
        let emb = |w: &str| model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("a0"), emb("a1"));
        let cross = fvec::cosine(emb("a0"), emb("b1"));
        assert!(same > cross, "same {same} vs cross {cross}");
        assert!(model.syn0.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mode_dispatch_routes_both_loops() {
        let fx = Fixture::new(10);
        let sentence: Vec<u32> = vec![1, 2, 3, 4, 5];
        let sampler = Sampler::Alias(fx.sampler.clone());
        let ctx = TrainContext {
            window: 2,
            negative: 3,
            sigmoid: &fx.sigmoid,
            sampler: &sampler,
            subsample: &fx.subsample,
        };
        let run = |mode: SgnsMode| {
            let mut model = Word2VecModel::init(10, 8, 4);
            let mut rng = Xoshiro256::new(17);
            let mut scratch = MinibatchScratch::new();
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            let step = Step::from(mode);
            let pairs = step.apply(&mut store, &sentence, 0.025, &ctx, &mut rng, &mut scratch);
            (model, pairs, scratch.take_stats().0)
        };
        let (m_pp, p_pp, mb_pp) = run(SgnsMode::PerPair);
        let (m_hb, p_hb, mb_hb) = run(SgnsMode::HogBatch);
        // Both loops train; only HogBatch counts minibatches.
        assert!(p_pp > 0);
        assert!(p_hb > 0);
        assert_eq!(mb_pp, 0);
        assert!(mb_hb > 0);
        // The trajectories legitimately differ (different negative-draw
        // discipline) — but both trained.
        let init = Word2VecModel::init(10, 8, 4);
        assert_ne!(m_pp, init);
        assert_ne!(m_hb, init);
    }
}
