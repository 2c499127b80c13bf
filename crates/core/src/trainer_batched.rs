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
use crate::schedule::LrSchedule;
use crate::setup::{TrainSetup, HOST_RNG_BASE};
use crate::sgns::{train_pair, PlainStore};
use crate::trainer_hogbatch::MinibatchScratch;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};

/// Sentence-batched shared-memory trainer.
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
    pub fn train_with_callback(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        mut on_epoch: impl FnMut(usize, &Word2VecModel),
    ) -> Word2VecModel {
        let p = &self.params;
        let setup = TrainSetup::new(vocab, p);
        let ctx = setup.ctx(p);
        let mut model = Word2VecModel::init(vocab.len(), p.dim, p.seed);
        let schedule = LrSchedule::new(
            p.alpha,
            p.min_alpha_frac,
            corpus.total_tokens() as u64,
            p.epochs,
        );
        let mut rng = Xoshiro256::new(SplitMix64::new(p.seed).derive(HOST_RNG_BASE + 0x47));
        let mut processed = 0u64;
        // The shared minibatch scratch pools the kept-token, pair-list
        // and accumulator buffers across sentences and epochs.
        let mut scratch = MinibatchScratch::new();
        scratch.pair.neu1e.resize(p.dim, 0.0);
        let mut pairs_total: u64 = 0;
        for epoch in 0..p.epochs {
            let mut epoch_span = gw2v_obs::span("core.batched.epoch").epoch(epoch);
            let epoch_start_pairs = pairs_total;
            for sentence in corpus.sentences() {
                let alpha = schedule.alpha_at(processed);
                // Pass 1: generate the sentence's pair batch.
                scratch.pair.kept.clear();
                scratch.pair.kept.extend(
                    sentence
                        .iter()
                        .copied()
                        .filter(|&w| setup.subsample.keep(w, &mut rng)),
                );
                let kept = &scratch.pair.kept;
                scratch.pairs.clear();
                for i in 0..kept.len() {
                    let b = rng.index(p.window);
                    let span = 2 * p.window + 1 - b;
                    for a in b..span {
                        if a == p.window {
                            continue;
                        }
                        let c = i as isize + a as isize - p.window as isize;
                        if c < 0 || c as usize >= kept.len() {
                            continue;
                        }
                        scratch.pairs.push((kept[c as usize], kept[i]));
                    }
                }
                // Pass 2: batched updates over the pair list.
                let mut store = PlainStore {
                    syn0: &mut model.syn0,
                    syn1neg: &mut model.syn1neg,
                };
                for &(input, center) in &scratch.pairs {
                    train_pair(
                        &mut store,
                        input,
                        center,
                        alpha,
                        &ctx,
                        &mut rng,
                        &mut scratch.pair.neu1e,
                    );
                }
                pairs_total += scratch.pairs.len() as u64;
                processed += sentence.len() as u64;
            }
            if gw2v_obs::enabled() {
                let epoch_pairs = pairs_total - epoch_start_pairs;
                gw2v_obs::add("core.batched.pairs", epoch_pairs);
                epoch_span.field("pairs", epoch_pairs as f64);
            }
            drop(epoch_span);
            on_epoch(epoch, &model);
        }
        model
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
                text.push_str("p0 p1 p2 p1 p0\n");
            } else {
                text.push_str("q0 q1 q2 q1 q0\n");
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
    fn learns_cooccurrence() {
        let (corpus, vocab) = corpus();
        let params = Hyperparams {
            dim: 24,
            epochs: 6,
            negative: 5,
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let model = BatchedTrainer::new(params).train(&corpus, &vocab);
        let emb = |w: &str| model.embedding(vocab.id_of(w).unwrap());
        let same = fvec::cosine(emb("p0"), emb("p1"));
        let cross = fvec::cosine(emb("p0"), emb("q1"));
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn deterministic() {
        let (corpus, vocab) = corpus();
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
        let (corpus, vocab) = corpus();
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
        assert!(sim(&gen, "p0", "p1") > sim(&gen, "p0", "q1"));
        assert!(sim(&seq, "p0", "p1") > sim(&seq, "p0", "q1"));
    }
}
