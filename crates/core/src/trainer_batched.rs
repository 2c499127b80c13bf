//! Sentence-batched trainer — the "GEN" (Gensim) analogue.
//!
//! Gensim's Word2Vec achieves its speed by materializing each sentence's
//! training pairs up front and pushing them through vectorized NumPy/BLAS
//! kernels. This trainer mirrors that execution shape in Rust: a
//! *pair-generation* pass per sentence (window sampling + subsampling)
//! followed by a *batched update* pass that walks the pair list with the
//! fused vector kernels. The learned model is the same family as the
//! sequential baseline (same loss, same schedule) but not bit-identical —
//! negatives are drawn in the update pass, so the RNG consumption order
//! differs, exactly as a distinct implementation would. In the paper's
//! tables GEN serves as the *second* shared-memory reference point for
//! both time and accuracy; this trainer plays that role here.

use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::sgns::{keep_subsampled, train_pair, window_contexts, SgnsStore, TrainContext};
use crate::trainer_hogbatch::MinibatchScratch;
use crate::trainer_shared::{Preset, Step};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::unigram::NegativeSampler;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::rng::Rng64;

/// Worker 0's RNG stream above `HOST_RNG_BASE`: a distinct
/// implementation draws from its own stream.
const BATCHED_RNG_STREAM: u64 = 0x47;

/// Trains one sentence in GEN's execution shape and returns its pair
/// count: pass 1 materialises the sentence's (context, center) pairs,
/// pass 2 walks the list with the per-pair kernel. The scratch pools the
/// kept-token, pair-list and accumulator buffers across sentences.
pub(crate) fn train_sentence_pairs_first<M, S, R>(
    store: &mut M,
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
    keep_subsampled(&mut scratch.pair.kept, sentence, ctx.subsample, rng);
    let kept = &scratch.pair.kept;
    scratch.pairs.clear();
    for (i, &center) in kept.iter().enumerate() {
        let b = rng.index(ctx.window);
        let contexts = window_contexts(kept, i, ctx.window, b);
        scratch.pairs.extend(contexts.map(|input| (input, center)));
    }
    let neu1e = &mut scratch.pair.neu1e;
    neu1e.resize(store.dim(), 0.0);
    for &(input, center) in &scratch.pairs {
        train_pair(store, input, center, alpha, ctx, rng, neu1e);
    }
    scratch.pairs.len() as u64
}

/// Sentence-batched shared-memory trainer: one worker on a plain model
/// (see `trainer_shared` for the loop).
pub struct BatchedTrainer {
    /// Hyperparameters.
    pub params: Hyperparams,
}

impl BatchedTrainer {
    /// Creates a trainer.
    pub fn new(params: Hyperparams) -> Self {
        Self { params }
    }

    /// Trains and returns the model.
    pub fn train(&self, corpus: &Corpus, vocab: &Vocabulary) -> Word2VecModel {
        self.train_with_callback(corpus, vocab, |_, _| {})
    }

    /// Trains with a per-epoch callback.
    pub(crate) fn train_with_callback(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        on_epoch: impl FnMut(usize, &Word2VecModel),
    ) -> Word2VecModel {
        Preset {
            name: "batched",
            rng_stream: BATCHED_RNG_STREAM,
            params: &self.params,
            n_threads: 1,
            step: Step::PairsFirst,
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
    fn learns_cooccurrence() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            dim: 24,
            epochs: 6,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let model = BatchedTrainer::new(params).train(&corpus, &vocab);
        let emb = |w: &str| model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("a0"), emb("a1"));
        let cross = fvec::cosine(emb("a0"), emb("b1"));
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn deterministic() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let a = BatchedTrainer::new(params.clone()).train(&corpus, &vocab);
        let b = BatchedTrainer::new(params).train(&corpus, &vocab);
        assert_eq!(a, b);
    }

    #[test]
    fn differs_from_sequential_but_comparably_good() {
        // A distinct implementation: not bit-identical to the sequential
        // trainer, but both learn the structure.
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            dim: 24,
            epochs: 6,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let gen = BatchedTrainer::new(params.clone()).train(&corpus, &vocab);
        let seq = crate::trainer_seq::SequentialTrainer::new(params).train(&corpus, &vocab);
        assert_ne!(gen, seq);
        let sim = |m: &Word2VecModel, a: &str, b: &str| {
            fvec::cosine(
                m.embedding(vocab.id_of(a).unwrap()),
                m.embedding(vocab.id_of(b).unwrap()),
            )
        };
        assert!(sim(&gen, "a0", "a1") > sim(&gen, "a0", "b1"));
        assert!(sim(&seq, "a0", "a1") > sim(&seq, "a0", "b1"));
    }
}
