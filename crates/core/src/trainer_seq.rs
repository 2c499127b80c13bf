//! Sequential SGD trainer — the "W2V" baseline.
//!
//! One thread, the corpus in order, the exact C-implementation recipe:
//! this is the convergence gold standard the paper measures everything
//! against ("a sequential SGD is simple to tune and converges fast.
//! Unfortunately, it is slow", §5.3). It is also, by construction, the
//! 1-host special case of the distributed engine — the equivalence is a
//! pinned integration test.

use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::trainer_shared::{Preset, Step};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;

/// Sequential shared-memory trainer: one worker with exclusive access to
/// a plain model (see `trainer_shared` for the loop).
pub struct SequentialTrainer {
    /// Hyperparameters.
    pub params: Hyperparams,
}

impl SequentialTrainer {
    /// Creates a trainer.
    pub fn new(params: Hyperparams) -> Self {
        Self { params }
    }

    /// Trains and returns the model.
    pub fn train(&self, corpus: &Corpus, vocab: &Vocabulary) -> Word2VecModel {
        self.train_with_callback(corpus, vocab, |_, _| {})
    }

    /// Trains, invoking `on_epoch(epoch_index, &model)` after each epoch
    /// (the hook the accuracy-vs-epoch experiments use).
    pub fn train_with_callback(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        on_epoch: impl FnMut(usize, &Word2VecModel),
    ) -> Word2VecModel {
        Preset {
            name: "seq",
            rng_stream: 0,
            params: &self.params,
            n_threads: 1,
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
    fn learns_cluster_structure() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            dim: 24,
            window: 3,
            negative: 5,
            epochs: 8,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let model = SequentialTrainer::new(params).train(&corpus, &vocab);
        let emb = |w: &str| model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("a0"), emb("a1"));
        let cross = fvec::cosine(emb("a0"), emb("b1"));
        assert!(
            same > cross + 0.3,
            "same-cluster cosine {same} vs cross {cross}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            epochs: 2,
            ..Hyperparams::test_scale()
        };
        let m1 = SequentialTrainer::new(params.clone()).train(&corpus, &vocab);
        let m2 = SequentialTrainer::new(params).train(&corpus, &vocab);
        assert_eq!(m1, m2);
    }

    #[test]
    fn seed_changes_model() {
        let (corpus, vocab) = clustered_corpus();
        let p1 = Hyperparams {
            epochs: 1,
            ..Hyperparams::test_scale()
        };
        let p2 = Hyperparams {
            seed: 999,
            ..p1.clone()
        };
        let m1 = SequentialTrainer::new(p1).train(&corpus, &vocab);
        let m2 = SequentialTrainer::new(p2).train(&corpus, &vocab);
        assert_ne!(m1, m2);
    }

    #[test]
    fn epoch_callback_fires_in_order() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            epochs: 3,
            ..Hyperparams::test_scale()
        };
        let mut seen = Vec::new();
        SequentialTrainer::new(params).train_with_callback(&corpus, &vocab, |e, m| {
            assert_eq!(m.dim(), 16);
            seen.push(e);
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn vectors_stay_finite() {
        let (corpus, vocab) = clustered_corpus();
        let params = Hyperparams {
            epochs: 4,
            alpha: 0.05,
            ..Hyperparams::test_scale()
        };
        let model = SequentialTrainer::new(params).train(&corpus, &vocab);
        assert!(model.syn0.as_slice().iter().all(|v| v.is_finite()));
        assert!(model.syn1neg.as_slice().iter().all(|v| v.is_finite()));
    }
}
