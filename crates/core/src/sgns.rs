//! The Skip-Gram-with-Negative-Sampling training operator.
//!
//! This is the *graph operator* of GraphWord2Vec (paper §4.1): applied to
//! a chunk of the worklist (corpus positions), it generates edges on the
//! fly — positive edges between a center word and its context window,
//! negative edges to sampled words — and walks each edge with one SGD
//! step, updating the two node labels (`syn0` on the context side,
//! `syn1neg` on the center/negative side), exactly as the reference C
//! implementation does:
//!
//! ```text
//! for each surviving position i (after frequent-word subsampling):
//!   b = rng % window                      # shrink the window randomly
//!   for each context position c in the shrunk window around i:
//!     targets = [center] ++ [t for t in negative × sample() if t != center]
//!     neu1e = 0
//!     for (target, label) in targets, labels [1, 0, 0, …]:   # one kernel call
//!       f = syn0[context] · syn1neg[target]
//!       g = (label − σ(f)) · α
//!       neu1e        += g · syn1neg[target]      # read before write!
//!       syn1neg[target] += g · syn0[context]
//!     syn0[context] += neu1e
//! ```
//!
//! The C code draws each negative just before stepping it; here a pair's
//! targets are drawn first and stepped by one
//! [`Kernels::sgns_pair`](gw2v_util::simd::Kernels::sgns_pair) call. The
//! two orders are the same computation: the RNG is consumed by the
//! subsampler, the window shrink and the sampler only, no draw depends
//! on a model value, and nothing else draws between a pair's samples —
//! so the stream, the targets and their order are unchanged. Targets are
//! handed over in stack blocks of `TARGET_BLOCK` (`negative = 5` is
//! one block), so nothing is sized by `negative`; blocks compose bit for
//! bit because the kernel only ever accumulates into `neu1e`.
//!
//! A pair's negative draws read
//! [`UnigramTable`](gw2v_corpus::unigram::UnigramTable), which keeps
//! its slots as run ends and a coarse index (tens of KB, not 4 MB), so
//! they hit cache beside the model; it maps every draw to the word the
//! C code's flat table holds there, so the draws are the C loop's.
//!
//! The loop is written once, generic over [`SgnsStore`], and reused by
//! the sequential, Hogwild, batched and distributed trainers — plus the
//! no-write [`RecordingStore`] that implements the PullModel *inspection*
//! phase (paper §4.4): by the same argument, replaying the loop against
//! a recording store with a cloned RNG yields exactly the nodes the real
//! execution will access. [`SgnsStore`] is the one row interface of every
//! SGNS loop: the HogBatch loop (`crate::trainer_hogbatch`) updates rows
//! in place through [`SgnsStore::window_layers`] (or, where a store has
//! no plain slices, gathers them and adds whole-row deltas through the
//! same trait), and `crate::trainer_shared::Step` picks the loop a
//! sentence runs.

use gw2v_corpus::subsample::SubsampleTable;
use gw2v_corpus::unigram::NegativeSampler;
use gw2v_util::bitvec::BitVec;
use gw2v_util::fvec::{self, FlatMatrix};
use gw2v_util::rng::Rng64;
use gw2v_util::sigmoid::SigmoidTable;

/// Layer index of the embedding layer (`syn0`) in multi-layer stores.
pub(crate) const LAYER_SYN0: usize = 0;
/// Layer index of the training layer (`syn1neg`).
pub(crate) const LAYER_SYN1NEG: usize = 1;

/// Targets handed to [`SgnsStore::step_pair`] per call; a pair with more
/// than `TARGET_BLOCK − 1` negatives takes several calls.
pub(crate) const TARGET_BLOCK: usize = 32;

/// Model access used by every SGNS loop.
///
/// Implementations decide where rows live (plain matrices, a tracked
/// distributed replica, relaxed atomics) and what "access" means (the
/// recording store only takes notes). A row is named by its layer (0 is
/// `syn0`, 1 is `syn1neg`) and its id.
pub trait SgnsStore {
    /// `false` for inspection-only stores: the HogBatch loop then skips
    /// its window kernel and calls [`SgnsStore::add`] with empty deltas,
    /// purely to mark the touch set. The RNG draws
    /// are identical either way.
    const COMPUTE: bool = true;
    /// Vector dimensionality.
    fn dim(&self) -> usize;
    /// Steps `syn0[context]` against `syn1neg[t]` for each `t` of
    /// `targets`, in order: `g = (label − σ(syn0[context] · syn1neg[t]))
    /// · alpha`, then `neu1e += g · syn1neg[t]` and `syn1neg[t] += g ·
    /// syn0[context]`, reading the pre-update `syn1neg` row (a repeated
    /// target sees the earlier step's write). The label is 1 for
    /// `targets[0]` when `positive`, else 0. `syn0` is not written.
    fn step_pair(
        &mut self,
        context: u32,
        targets: &[u32],
        positive: bool,
        alpha: f32,
        sigmoid: &SigmoidTable,
        neu1e: &mut [f32],
    );
    /// Both layers as plain row-major slices (`syn0`, `syn1neg`), for a
    /// kernel that reads the `inputs` rows of `syn0` and the `targets`
    /// rows of `syn1neg` and then updates them in place, the targets
    /// first. A tracking store takes the rows as written here: the
    /// targets, then the inputs, each in list order. `None` (the
    /// default) where rows can only be copied out through
    /// [`SgnsStore::load`] and written through [`SgnsStore::add`].
    fn window_layers(&mut self, inputs: &[u32], targets: &[u32]) -> Option<[&mut [f32]; 2]> {
        let _ = (inputs, targets);
        None
    }
    /// Copies `layer[row]` into `out`.
    fn load(&self, layer: usize, row: u32, out: &mut [f32]);
    /// `layer[row] += delta`.
    fn add(&mut self, layer: usize, row: u32, delta: &[f32]);
}

/// Shared, immutable per-run training context.
pub struct TrainContext<'a, S> {
    /// Maximum window radius.
    pub window: usize,
    /// Negative samples per pair.
    pub negative: usize,
    /// Sigmoid lookup table.
    pub sigmoid: &'a SigmoidTable,
    /// Negative-sample source.
    pub sampler: &'a S,
    /// Frequent-word downsampling table.
    pub subsample: &'a SubsampleTable,
}

/// Reusable per-worker scratch buffers.
#[derive(Clone, Debug, Default)]
pub struct TrainScratch {
    pub(crate) kept: Vec<u32>,
    pub(crate) neu1e: Vec<f32>,
}

/// Trains one sentence; returns the number of (positive) pairs stepped.
///
/// `sentence` is the raw encoded sentence; frequent-word subsampling is
/// applied inside (consuming `rng`), as in the C implementation.
pub fn train_sentence<M, S, R>(
    store: &mut M,
    sentence: &[u32],
    alpha: f32,
    ctx: &TrainContext<'_, S>,
    rng: &mut R,
    scratch: &mut TrainScratch,
) -> u64
where
    M: SgnsStore,
    S: NegativeSampler,
    R: Rng64,
{
    debug_assert!(ctx.window >= 1);
    keep_subsampled(&mut scratch.kept, sentence, ctx.subsample, rng);
    scratch.neu1e.resize(store.dim(), 0.0);
    let kept = &scratch.kept;
    let mut pairs = 0u64;
    for (i, &center) in kept.iter().enumerate() {
        let b = rng.index(ctx.window);
        for context in window_contexts(kept, i, ctx.window, b) {
            train_pair(store, context, center, alpha, ctx, rng, &mut scratch.neu1e);
            pairs += 1;
        }
    }
    pairs
}

/// Refills `kept` with the words of `sentence` that survive frequent-word
/// subsampling — one `rng` draw per word that may be dropped, in sentence
/// order. Each word is written, then kept by stepping past it, so the
/// loop does not branch on the coin: on a Zipf sentence at `sample =
/// 1e-4` that branch is a coin flip for the frequent words, and this form
/// filters 1 000 tokens in about 1.0 µs instead of 3.9.
pub(crate) fn keep_subsampled<R: Rng64>(
    kept: &mut Vec<u32>,
    sentence: &[u32],
    subsample: &SubsampleTable,
    rng: &mut R,
) {
    kept.resize(sentence.len(), 0);
    let mut n = 0;
    for &w in sentence {
        kept[n] = w;
        n += usize::from(subsample.keep(w, rng));
    }
    kept.truncate(n);
}

/// The context words of center position `i`, left to right: the window
/// shrunk by the caller's draw `b = rng.index(window)` to `window - b`
/// positions a side, clipped to the sentence, without `i` itself.
#[inline]
pub(crate) fn window_contexts(
    kept: &[u32],
    i: usize,
    window: usize,
    b: usize,
) -> impl Iterator<Item = u32> + '_ {
    let reach = window - b;
    let first = i.saturating_sub(reach);
    let last = (i + reach).min(kept.len() - 1);
    (first..=last).filter(move |&c| c != i).map(|c| kept[c])
}

/// One SGNS pair: draws the pair's targets — `center`, then `negative`
/// samples minus those equal to `center` — steps `context` against them
/// and applies the accumulated `neu1e` (`store.dim()` long) to
/// `syn0[context]`.
pub(crate) fn train_pair<M, S, R>(
    store: &mut M,
    context: u32,
    center: u32,
    alpha: f32,
    ctx: &TrainContext<'_, S>,
    rng: &mut R,
    neu1e: &mut [f32],
) where
    M: SgnsStore,
    S: NegativeSampler,
    R: Rng64,
{
    neu1e.fill(0.0);
    let mut targets = [center; TARGET_BLOCK];
    let (mut n, mut positive) = (1, true);
    let mut undrawn = ctx.negative;
    loop {
        while undrawn > 0 && n < TARGET_BLOCK {
            undrawn -= 1;
            let t = ctx.sampler.sample(rng);
            if t != center {
                targets[n] = t;
                n += 1;
            }
        }
        store.step_pair(context, &targets[..n], positive, alpha, ctx.sigmoid, neu1e);
        if undrawn == 0 {
            break;
        }
        (n, positive) = (0, false);
    }
    store.add(LAYER_SYN0, context, neu1e);
}

/// Plain two-matrix store: the sequential baseline's model access.
pub struct PlainStore<'a> {
    /// Embedding layer.
    pub syn0: &'a mut FlatMatrix,
    /// Training layer.
    pub syn1neg: &'a mut FlatMatrix,
}

impl SgnsStore for PlainStore<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.syn0.dim()
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
        fvec::sgns_pair(
            self.syn0.row(context as usize),
            self.syn1neg.as_mut_slice(),
            targets,
            positive,
            alpha,
            sigmoid,
            neu1e,
        );
    }

    #[inline]
    fn window_layers(&mut self, _inputs: &[u32], _targets: &[u32]) -> Option<[&mut [f32]; 2]> {
        Some([self.syn0.as_mut_slice(), self.syn1neg.as_mut_slice()])
    }

    #[inline]
    fn load(&self, layer: usize, row: u32, out: &mut [f32]) {
        out.copy_from_slice([&*self.syn0, &*self.syn1neg][layer].row(row as usize));
    }

    #[inline]
    fn add(&mut self, layer: usize, row: u32, delta: &[f32]) {
        let rows = [&mut *self.syn0, &mut *self.syn1neg];
        fvec::add_assign(rows[layer].row_mut(row as usize), delta);
    }
}

/// Distributed store over a host's tracked [`gw2v_gluon::ModelReplica`]
/// (layer 0 = `syn0`, layer 1 = `syn1neg`); every write snapshots the
/// row base so the synchronization phase can ship deltas.
pub struct ReplicaStore<'a> {
    /// The host's replica.
    pub replica: &'a mut gw2v_gluon::ModelReplica,
}

impl SgnsStore for ReplicaStore<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.replica.layers[LAYER_SYN0].dim()
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
        // Tracked write: the split borrow snapshots each target's base
        // on first touch, in list order; syn0[context] is only read.
        let (win, syn1neg) =
            self.replica
                .row_and_layer_mut(LAYER_SYN0, context, LAYER_SYN1NEG, targets);
        fvec::sgns_pair(
            win,
            syn1neg.as_mut_slice(),
            targets,
            positive,
            alpha,
            sigmoid,
            neu1e,
        );
    }

    /// Tracked writes: the first touch of each row snapshots its base,
    /// the targets' first, as [`SgnsStore::add`] would one by one.
    #[inline]
    fn window_layers(&mut self, inputs: &[u32], targets: &[u32]) -> Option<[&mut [f32]; 2]> {
        self.replica.touch(LAYER_SYN1NEG, targets);
        self.replica.touch(LAYER_SYN0, inputs);
        let (syn0, syn1neg) = self.replica.layers.split_at_mut(LAYER_SYN1NEG);
        Some([syn0[0].as_mut_slice(), syn1neg[0].as_mut_slice()])
    }

    #[inline]
    fn load(&self, layer: usize, row: u32, out: &mut [f32]) {
        out.copy_from_slice(self.replica.row(layer, row));
    }

    #[inline]
    fn add(&mut self, layer: usize, row: u32, delta: &[f32]) {
        // Tracked write: `row_mut` snapshots the base on first touch so
        // the synchronization phase ships the delta.
        fvec::add_assign(self.replica.row_mut(layer, row), delta);
    }
}

/// Access-recording store for the PullModel inspection phase: performs no
/// arithmetic, just marks which rows the replayed round will read/write.
pub struct RecordingStore {
    dim: usize,
    /// Accessed `syn0` rows.
    pub syn0_access: BitVec,
    /// Accessed `syn1neg` rows.
    pub syn1_access: BitVec,
}

impl RecordingStore {
    /// Creates a recorder for a model of `n_words` rows.
    pub fn new(n_words: usize, dim: usize) -> Self {
        Self {
            dim,
            syn0_access: BitVec::new(n_words),
            syn1_access: BitVec::new(n_words),
        }
    }
}

impl SgnsStore for RecordingStore {
    const COMPUTE: bool = false;

    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn step_pair(
        &mut self,
        context: u32,
        targets: &[u32],
        _positive: bool,
        _alpha: f32,
        _sigmoid: &SigmoidTable,
        _neu1e: &mut [f32],
    ) {
        self.syn0_access.set(context as usize);
        for &t in targets {
            self.syn1_access.set(t as usize);
        }
    }

    #[inline]
    fn load(&self, _layer: usize, _row: u32, _out: &mut [f32]) {}

    #[inline]
    fn add(&mut self, layer: usize, row: u32, _delta: &[f32]) {
        [&mut self.syn0_access, &mut self.syn1_access][layer].set(row as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Word2VecModel;
    use gw2v_corpus::unigram::AliasSampler;
    use gw2v_corpus::vocab::{VocabBuilder, Vocabulary};
    use gw2v_gluon::ModelReplica;
    use gw2v_util::rng::Xoshiro256;

    fn vocab_n(n: usize) -> Vocabulary {
        let mut b = VocabBuilder::new();
        for i in 0..n {
            // Descending counts so ids are stable: w0 most frequent.
            for _ in 0..(2 * (n - i)) {
                b.add_token(&format!("w{i:03}"));
            }
        }
        b.build(1)
    }

    fn ctx_for<'a>(
        vocab: &Vocabulary,
        sampler: &'a AliasSampler,
        sigmoid: &'a SigmoidTable,
        subsample: &'a SubsampleTable,
        window: usize,
        negative: usize,
    ) -> TrainContext<'a, AliasSampler> {
        let _ = vocab;
        TrainContext {
            window,
            negative,
            sigmoid,
            sampler,
            subsample,
        }
    }

    struct Fixture {
        vocab: Vocabulary,
        sampler: AliasSampler,
        sigmoid: SigmoidTable,
        subsample: SubsampleTable,
    }

    impl Fixture {
        fn new(n: usize) -> Self {
            let vocab = vocab_n(n);
            let sampler = AliasSampler::from_vocab(&vocab);
            let sigmoid = SigmoidTable::new();
            let subsample = SubsampleTable::new(&vocab, 0.0); // keep all
            Self {
                vocab,
                sampler,
                sigmoid,
                subsample,
            }
        }

        fn ctx(&self, window: usize, negative: usize) -> TrainContext<'_, AliasSampler> {
            ctx_for(
                &self.vocab,
                &self.sampler,
                &self.sigmoid,
                &self.subsample,
                window,
                negative,
            )
        }
    }

    #[test]
    fn positive_pair_similarity_increases() {
        let fx = Fixture::new(10);
        let mut model = Word2VecModel::init(10, 16, 3);
        let sentence = vec![1u32, 2];
        let ctx = fx.ctx(2, 3);
        let before = fvec::dot(model.syn0.row(2), model.syn1neg.row(1));
        let mut rng = Xoshiro256::new(5);
        let mut scratch = TrainScratch::default();
        for _ in 0..200 {
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            train_sentence(&mut store, &sentence, 0.05, &ctx, &mut rng, &mut scratch);
        }
        // After repeated training on the pair (1,2), σ(syn0[2]·syn1neg[1])
        // should approach 1 (and symmetric for the other direction).
        let after = fvec::dot(model.syn0.row(2), model.syn1neg.row(1));
        assert!(after > before + 0.5, "dot went {before} -> {after}");
    }

    #[test]
    fn training_is_deterministic() {
        let fx = Fixture::new(12);
        let sentence: Vec<u32> = vec![0, 3, 5, 7, 2, 1];
        let ctx = fx.ctx(3, 5);
        let run = || {
            let mut model = Word2VecModel::init(12, 8, 11);
            let mut rng = Xoshiro256::new(42);
            let mut scratch = TrainScratch::default();
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            let pairs = train_sentence(&mut store, &sentence, 0.025, &ctx, &mut rng, &mut scratch);
            (model, pairs)
        };
        let (m1, p1) = run();
        let (m2, p2) = run();
        assert_eq!(p1, p2);
        assert_eq!(m1, m2);
        assert!(p1 > 0);
    }

    #[test]
    fn replica_store_matches_plain_store() {
        let fx = Fixture::new(15);
        let sentence: Vec<u32> = vec![4, 9, 1, 0, 13, 2, 6];
        let ctx = fx.ctx(2, 4);
        // Plain.
        let mut model = Word2VecModel::init(15, 12, 77);
        let mut rng_a = Xoshiro256::new(9);
        let mut scratch = TrainScratch::default();
        {
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            train_sentence(&mut store, &sentence, 0.03, &ctx, &mut rng_a, &mut scratch);
        }
        // Replica.
        let init = Word2VecModel::init(15, 12, 77);
        let mut replica = ModelReplica::new(vec![init.syn0, init.syn1neg]);
        let mut rng_b = Xoshiro256::new(9);
        {
            let mut store = ReplicaStore {
                replica: &mut replica,
            };
            train_sentence(&mut store, &sentence, 0.03, &ctx, &mut rng_b, &mut scratch);
        }
        assert_eq!(model.syn0, replica.layers[LAYER_SYN0]);
        assert_eq!(model.syn1neg, replica.layers[LAYER_SYN1NEG]);
        // And the replica tracked its touches by the rule the wire bytes
        // rest on: per layer, rows in the order the loop first reaches
        // them (a pair's targets in draw order, then its context), each
        // base being the row as it was before that first touch.
        let mut rng_c = Xoshiro256::new(9);
        let mut log = TouchLog::default();
        train_sentence(&mut log, &sentence, 0.03, &ctx, &mut rng_c, &mut scratch);
        assert!(log.syn0.len() > 1 && log.syn1neg.len() > 1);
        let init = Word2VecModel::init(15, 12, 77);
        for (layer, order, rows) in [
            (LAYER_SYN0, &log.syn0, &init.syn0),
            (LAYER_SYN1NEG, &log.syn1neg, &init.syn1neg),
        ] {
            let tracker = replica.tracker(layer);
            assert_eq!(tracker.touched_nodes(), &order[..], "layer {layer}");
            for &node in order {
                assert_eq!(tracker.base_of(node), rows.row(node as usize));
            }
        }
    }

    /// Logs, per layer, the rows in first-touch order.
    #[derive(Default)]
    struct TouchLog {
        syn0: Vec<u32>,
        syn1neg: Vec<u32>,
    }

    impl SgnsStore for TouchLog {
        fn dim(&self) -> usize {
            12
        }

        fn step_pair(
            &mut self,
            _context: u32,
            targets: &[u32],
            _positive: bool,
            _alpha: f32,
            _sigmoid: &SigmoidTable,
            _neu1e: &mut [f32],
        ) {
            for &t in targets {
                if !self.syn1neg.contains(&t) {
                    self.syn1neg.push(t);
                }
            }
        }

        fn load(&self, _layer: usize, _row: u32, _out: &mut [f32]) {}

        fn add(&mut self, layer: usize, row: u32, _delta: &[f32]) {
            let log = if layer == LAYER_SYN0 {
                &mut self.syn0
            } else {
                &mut self.syn1neg
            };
            if !log.contains(&row) {
                log.push(row);
            }
        }
    }

    /// The per-pair step as the parent commit wrote it, kept test-side as
    /// the reference: draw, skip the center, dot → σ → fused step, one
    /// target at a time. Returns the targets in draw order.
    fn reference_pair(
        model: &mut Word2VecModel,
        (context, center): (usize, u32),
        alpha: f32,
        ctx: &TrainContext<'_, AliasSampler>,
        rng: &mut Xoshiro256,
    ) -> Vec<u32> {
        let mut neu1e = vec![0.0; model.dim()];
        let mut drawn = Vec::new();
        for d in 0..=ctx.negative {
            let target = if d == 0 {
                center
            } else {
                ctx.sampler.sample(rng)
            };
            if d > 0 && target == center {
                continue;
            }
            drawn.push(target);
            let wout = model.syn1neg.row_mut(target as usize);
            let f = fvec::dot(model.syn0.row(context), wout);
            let label = if d == 0 { 1.0 } else { 0.0 };
            let g = (label - ctx.sigmoid.value(f)) * alpha;
            fvec::fused_grad_step(g, model.syn0.row(context), wout, &mut neu1e);
        }
        fvec::add_assign(model.syn0.row_mut(context), &neu1e);
        drawn
    }

    #[test]
    fn a_pair_spanning_several_blocks_matches_the_one_target_at_a_time_reference() {
        // 100 negatives over six words: four blocks, the center drawn
        // (and skipped) often, every row stepped many times.
        let fx = Fixture::new(6);
        let ctx = fx.ctx(2, 100);
        let (context, center) = (4u32, 1u32);
        let init = Word2VecModel::init(6, 8, 31);
        let mut want = init.clone();
        let mut rng_ref = Xoshiro256::new(77);
        let pair = (context as usize, center);
        let drawn = reference_pair(&mut want, pair, 0.05, &ctx, &mut rng_ref);
        assert!(drawn.len() > 2 * TARGET_BLOCK && drawn.len() < 101);

        let mut neu1e = vec![0.0; 8];
        let mut plain = init.clone();
        let mut rng = Xoshiro256::new(77);
        let mut store = PlainStore {
            syn0: &mut plain.syn0,
            syn1neg: &mut plain.syn1neg,
        };
        train_pair(
            &mut store, context, center, 0.05, &ctx, &mut rng, &mut neu1e,
        );
        assert_eq!(plain, want);
        assert_eq!(rng.next_u64(), rng_ref.next_u64());

        let mut replica = ModelReplica::new(vec![init.syn0.clone(), init.syn1neg.clone()]);
        let mut rng = Xoshiro256::new(77);
        let mut store = ReplicaStore {
            replica: &mut replica,
        };
        train_pair(
            &mut store, context, center, 0.05, &ctx, &mut rng, &mut neu1e,
        );
        assert_eq!(replica.layers[LAYER_SYN0], want.syn0);
        assert_eq!(replica.layers[LAYER_SYN1NEG], want.syn1neg);
        let mut first_touches = Vec::new();
        for t in drawn {
            if !first_touches.contains(&t) {
                first_touches.push(t);
            }
        }
        let tracker = replica.tracker(LAYER_SYN1NEG);
        assert_eq!(tracker.touched_nodes(), &first_touches[..]);
        for &t in &first_touches {
            assert_eq!(tracker.base_of(t), init.syn1neg.row(t as usize));
        }
        assert_eq!(replica.tracker(LAYER_SYN0).touched_nodes(), &[context]);
    }

    #[test]
    fn no_buffer_grows_with_negative() {
        // `--negative` is user input: it must cost time, never memory.
        // The targets of a pair live in a `TARGET_BLOCK` stack array, so
        // the scratch holds the sentence and one row whatever it is.
        let fx = Fixture::new(3);
        let ctx = fx.ctx(2, 10_000);
        let sentence = vec![0u32, 1, 2, 1, 0, 2];
        let mut model = Word2VecModel::init(3, 4, 9);
        let mut rng = Xoshiro256::new(3);
        let mut scratch = TrainScratch::default();
        let mut store = PlainStore {
            syn0: &mut model.syn0,
            syn1neg: &mut model.syn1neg,
        };
        let pairs = train_sentence(&mut store, &sentence, 0.025, &ctx, &mut rng, &mut scratch);
        assert!(pairs > 0);
        assert!(scratch.kept.capacity() <= 2 * sentence.len());
        assert!(scratch.neu1e.capacity() <= 2 * 4);
        assert!(model.syn0.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn recording_store_predicts_exact_touch_sets() {
        let fx = Fixture::new(20);
        let sentence: Vec<u32> = vec![3, 8, 15, 1, 0, 19, 4, 4, 7];
        let ctx = fx.ctx(3, 6);
        // Inspection replay with a cloned RNG...
        let mut rng_inspect = Xoshiro256::new(123);
        let mut recorder = RecordingStore::new(20, 10);
        let mut scratch = TrainScratch::default();
        train_sentence(
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
            train_sentence(
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

    /// Adds `delta` to `syn1neg[r]`, then loads `syn0[r]`.
    fn add_then_load<M: SgnsStore>(store: &mut M, r: u32, delta: &[f32]) -> Vec<f32> {
        store.add(LAYER_SYN1NEG, r, delta);
        let mut row = vec![0.0; store.dim()];
        store.load(LAYER_SYN0, r, &mut row);
        row
    }

    #[test]
    fn every_store_loads_and_adds_the_layer_it_names() {
        use crate::trainer_hogwild::{AtomicModel, AtomicStore};
        let init = Word2VecModel::init(5, 4, 8);
        let (r, delta) = (3u32, [0.5f32; 4]);
        let mut want = init.clone();
        fvec::add_assign(want.syn1neg.row_mut(r as usize), &delta);
        let syn0_r = init.syn0.row(r as usize);

        let mut plain = init.clone();
        let mut store = PlainStore {
            syn0: &mut plain.syn0,
            syn1neg: &mut plain.syn1neg,
        };
        assert_eq!(add_then_load(&mut store, r, &delta), syn0_r, "plain");
        assert_eq!(plain, want, "plain");

        let mut replica = ModelReplica::new(vec![init.syn0.clone(), init.syn1neg.clone()]);
        let mut store = ReplicaStore {
            replica: &mut replica,
        };
        assert_eq!(add_then_load(&mut store, r, &delta), syn0_r, "replica");
        assert_eq!(replica.layers, [want.syn0.clone(), want.syn1neg.clone()]);
        assert_eq!(replica.tracker(LAYER_SYN1NEG).touched_nodes(), &[r]);
        assert!(replica.tracker(LAYER_SYN0).touched_nodes().is_empty());

        let atomic = AtomicModel::from_model(&init);
        let mut store = AtomicStore::new(&atomic);
        assert_eq!(add_then_load(&mut store, r, &delta), syn0_r, "atomic");
        assert_eq!(atomic.snapshot(), want, "atomic");

        let mut recorder = RecordingStore::new(5, 4);
        recorder.add(LAYER_SYN1NEG, r, &[]);
        let mut only_r = BitVec::new(5);
        only_r.set(r as usize);
        assert_eq!(recorder.syn1_access, only_r);
        assert_eq!(recorder.syn0_access, BitVec::new(5));
    }

    #[test]
    fn empty_and_single_word_sentences_train_nothing() {
        let fx = Fixture::new(5);
        let ctx = fx.ctx(2, 2);
        let mut model = Word2VecModel::init(5, 4, 1);
        let before = model.clone();
        let mut rng = Xoshiro256::new(1);
        let mut scratch = TrainScratch::default();
        for sentence in [vec![], vec![3u32]] {
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            let pairs = train_sentence(&mut store, &sentence, 0.025, &ctx, &mut rng, &mut scratch);
            assert_eq!(pairs, 0);
        }
        assert_eq!(model, before);
    }

    #[test]
    fn zero_alpha_changes_nothing_but_consumes_rng() {
        let fx = Fixture::new(8);
        let ctx = fx.ctx(2, 3);
        let sentence = vec![0u32, 1, 2, 3];
        let mut model = Word2VecModel::init(8, 6, 2);
        let before = model.clone();
        let mut rng = Xoshiro256::new(7);
        let mut scratch = TrainScratch::default();
        let mut store = PlainStore {
            syn0: &mut model.syn0,
            syn1neg: &mut model.syn1neg,
        };
        let pairs = train_sentence(&mut store, &sentence, 0.0, &ctx, &mut rng, &mut scratch);
        assert!(pairs > 0);
        assert_eq!(model, before);
    }

    #[test]
    fn subsampling_reduces_trained_pairs() {
        // With an aggressive threshold the most frequent words are mostly
        // dropped, so fewer pairs get trained.
        let vocab = vocab_n(6);
        let sampler = AliasSampler::from_vocab(&vocab);
        let sigmoid = SigmoidTable::new();
        let keep_all = SubsampleTable::new(&vocab, 0.0);
        let aggressive = SubsampleTable::new(&vocab, 1e-6);
        let sentence: Vec<u32> = (0..6u32).cycle().take(60).collect();
        let count_pairs = |sub: &SubsampleTable| -> u64 {
            let ctx = TrainContext {
                window: 2,
                negative: 2,
                sigmoid: &sigmoid,
                sampler: &sampler,
                subsample: sub,
            };
            let mut model = Word2VecModel::init(6, 4, 3);
            let mut rng = Xoshiro256::new(55);
            let mut scratch = TrainScratch::default();
            let mut store = PlainStore {
                syn0: &mut model.syn0,
                syn1neg: &mut model.syn1neg,
            };
            train_sentence(&mut store, &sentence, 0.025, &ctx, &mut rng, &mut scratch)
        };
        let full = count_pairs(&keep_all);
        let sub = count_pairs(&aggressive);
        assert!(sub < full / 2, "subsampled {sub} vs full {full}");
    }
}
