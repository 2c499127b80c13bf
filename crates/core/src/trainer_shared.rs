//! The shared-memory epoch loop, written once.
//!
//! The sequential ("W2V"), sentence-batched ("GEN"), Hogwild and HogBatch
//! trainers are the same run: build the pipeline, initialise the model,
//! and for every epoch let each worker walk its contiguous shard sentence
//! by sentence, reading the learning rate off a shared progress counter
//! before a sentence and adding the sentence's raw length after it. A
//! trainer fixes what a worker does to one sentence (a [`Step`]) and how
//! many workers it asks for; that is all a [`Preset`] holds.
//!
//! Where the model lives (a [`Backing`]) follows from the workers
//! [`Preset::run`] builds, and is decided there alone. One worker steps a
//! plain [`Word2VecModel`] in place: no atomic copy, snapshot or staging.
//! Only two or more race over an [`AtomicModel`] and stage every row.
//!
//! Worker `t` of `n` owns the RNG stream `HOST_RNG_BASE + rng_stream + t`
//! and the shard `corpus.partition(t, n)` for the whole run; its RNG and
//! scratch persist across epochs. Each epoch is one thread scope, so the
//! callback observes a settled model.

use crate::model::Word2VecModel;
use crate::params::Hyperparams;
use crate::schedule::LrSchedule;
use crate::setup::{Sampler, TrainSetup, HOST_RNG_BASE};
use crate::sgns::{train_sentence, PlainStore, SgnsStore, TrainContext};
use crate::trainer_batched::train_sentence_pairs_first;
use crate::trainer_hogbatch::{train_sentence_hogbatch, MinibatchScratch, SgnsMode};
use crate::trainer_hogwild::{AtomicModel, AtomicStore};
use gw2v_corpus::shard::{Corpus, CorpusShard};
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::rng::{SplitMix64, Xoshiro256};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// What a worker or a host does to one sentence: the one sentence
/// dispatcher of the shared-memory trainers and both cluster engines.
#[derive(Clone, Copy)]
pub(crate) enum Step {
    /// [`train_sentence`]: the sequential and Hogwild trainers.
    PerPair,
    /// [`train_sentence_pairs_first`]: the batched trainer.
    PairsFirst,
    /// [`train_sentence_hogbatch`]: the HogBatch trainer.
    HogBatch,
}

/// The cluster engines' `--sgns` loop.
impl From<SgnsMode> for Step {
    fn from(mode: SgnsMode) -> Self {
        match mode {
            SgnsMode::PerPair => Self::PerPair,
            SgnsMode::HogBatch => Self::HogBatch,
        }
    }
}

impl Step {
    /// Trains one sentence through `store`; returns its pairs.
    pub(crate) fn apply<M: SgnsStore>(
        self,
        store: &mut M,
        words: &[u32],
        alpha: f32,
        ctx: &TrainContext<'_, Sampler>,
        rng: &mut Xoshiro256,
        scratch: &mut MinibatchScratch,
    ) -> u64 {
        match self {
            Self::PerPair => train_sentence(store, words, alpha, ctx, rng, &mut scratch.pair),
            Self::PairsFirst => train_sentence_pairs_first(store, words, alpha, ctx, rng, scratch),
            Self::HogBatch => train_sentence_hogbatch(store, words, alpha, ctx, rng, scratch),
        }
    }
}

/// One worker's shard, RNG and scratch, kept for the whole run.
type Worker<'c> = (CorpusShard<'c>, Xoshiro256, MinibatchScratch);

/// Where the model lives while the workers train it.
pub(crate) trait Backing: Sized {
    /// One worker's view of the model.
    type Store<'a>: Send + SgnsStore
    where
        Self: 'a;
    /// Takes over the freshly initialised model.
    fn wrap(init: Word2VecModel) -> Self;
    /// One view per worker, for the length of an epoch.
    fn stores(&mut self, n: usize) -> Vec<Self::Store<'_>>;
    /// The model between epochs, when no worker holds a view.
    fn settled(&self) -> Cow<'_, Word2VecModel>;
    /// The trained model.
    fn finish(self) -> Word2VecModel;
}

impl Backing for Word2VecModel {
    type Store<'a> = PlainStore<'a>;

    fn wrap(init: Word2VecModel) -> Self {
        init
    }

    fn stores(&mut self, n: usize) -> Vec<PlainStore<'_>> {
        assert!(n <= 1, "a plain model has one exclusive writer");
        vec![PlainStore {
            syn0: &mut self.syn0,
            syn1neg: &mut self.syn1neg,
        }]
    }

    fn settled(&self) -> Cow<'_, Word2VecModel> {
        Cow::Borrowed(self)
    }

    fn finish(self) -> Word2VecModel {
        self
    }
}

impl Backing for AtomicModel {
    type Store<'a> = AtomicStore<'a>;

    fn wrap(init: Word2VecModel) -> Self {
        AtomicModel::from_model(&init)
    }

    fn stores(&mut self, n: usize) -> Vec<AtomicStore<'_>> {
        let model = &*self;
        (0..n).map(|_| AtomicStore::new(model)).collect()
    }

    fn settled(&self) -> Cow<'_, Word2VecModel> {
        Cow::Owned(self.snapshot())
    }

    fn finish(self) -> Word2VecModel {
        self.snapshot()
    }
}

/// What one of the four trainers fixes about a run.
pub(crate) struct Preset<'a> {
    /// Metric stem: the run emits span `core.<name>.epoch` and counter
    /// `core.<name>.pairs`.
    pub name: &'a str,
    /// Offset of worker 0's RNG stream above `HOST_RNG_BASE`.
    pub rng_stream: u64,
    /// Hyperparameters.
    pub params: &'a Hyperparams,
    /// Worker threads asked for.
    pub n_threads: usize,
    /// What a worker does to one sentence.
    pub step: Step,
}

impl Preset<'_> {
    /// Trains `params.epochs` epochs and returns the model, calling
    /// `on_epoch(epoch, &model)` on the settled model after each.
    pub(crate) fn run(
        &self,
        corpus: &Corpus,
        vocab: &Vocabulary,
        on_epoch: impl FnMut(usize, &Word2VecModel),
    ) -> Word2VecModel {
        let workers = self.workers(corpus);
        if workers.len() > 1 {
            self.train::<AtomicModel>(workers, corpus, vocab, on_epoch)
        } else {
            self.train::<Word2VecModel>(workers, corpus, vocab, on_epoch)
        }
    }

    /// One worker per non-empty shard (an empty one would step nothing),
    /// keeping its `t`, hence its stream; a sole worker's shard is the
    /// whole corpus, so it is worker 0 of the one-worker run.
    fn workers<'c>(&self, corpus: &'c Corpus) -> Vec<Worker<'c>> {
        let n = self.n_threads;
        let root = SplitMix64::new(self.params.seed);
        let mut shards: Vec<_> = (0..n)
            .map(|t| (t, corpus.partition(t, n)))
            .filter(|(_, shard)| !shard.sentences().is_empty())
            .collect();
        if let [(t, _)] = &mut shards[..] {
            *t = 0;
        }
        let worker = |(t, shard)| {
            let rng = root.derive(HOST_RNG_BASE + self.rng_stream + t as u64);
            (shard, Xoshiro256::new(rng), MinibatchScratch::new())
        };
        shards.into_iter().map(worker).collect()
    }

    /// The epoch loop over `workers`, with the model in a `B`.
    fn train<B: Backing>(
        &self,
        mut workers: Vec<Worker<'_>>,
        corpus: &Corpus,
        vocab: &Vocabulary,
        mut on_epoch: impl FnMut(usize, &Word2VecModel),
    ) -> Word2VecModel {
        let (p, n, step) = (self.params, self.n_threads, self.step);
        let setup = TrainSetup::new(vocab, p);
        let mut backing = B::wrap(Word2VecModel::init(vocab.len(), p.dim, p.seed));
        let schedule = LrSchedule::new(
            p.alpha,
            p.min_alpha_frac,
            corpus.total_tokens() as u64,
            p.epochs,
        );
        let progress = AtomicU64::new(0);
        let epoch_name = format!("core.{}.epoch", self.name);
        let pairs_name = format!("core.{}.pairs", self.name);

        for epoch in 0..p.epochs {
            let mut epoch_span = gw2v_obs::span(&epoch_name).epoch(epoch);
            let stores = backing.stores(workers.len());
            let pairs: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .zip(stores)
                    .map(|((shard, rng, scratch), mut store)| {
                        let (setup, schedule, progress) = (&setup, &schedule, &progress);
                        scope.spawn(move || {
                            let ctx = setup.ctx(p);
                            let mut pairs = 0u64;
                            for sentence in shard.sentences() {
                                let alpha = schedule.alpha_at(progress.load(Relaxed));
                                pairs +=
                                    step.apply(&mut store, sentence, alpha, &ctx, rng, scratch);
                                progress.fetch_add(sentence.len() as u64, Relaxed);
                            }
                            // One registry touch per counter per worker
                            // per epoch; zero unless the step batches (a
                            // zero counter is left out of snapshots).
                            let (minibatches, shared_negatives) = scratch.take_stats();
                            gw2v_obs::add("sgns.minibatches", minibatches);
                            gw2v_obs::add("sgns.shared_negatives", shared_negatives);
                            pairs
                        })
                    })
                    .collect();
                let joined = handles.into_iter().map(|h| h.join());
                joined.map(|p| p.expect("trainer worker panicked")).sum()
            });
            // Each of these is inert while metrics are off.
            gw2v_obs::add(&pairs_name, pairs);
            gw2v_obs::gauge_set("core.lr", schedule.alpha_at(progress.load(Relaxed)) as f64);
            epoch_span.field("pairs", pairs as f64);
            epoch_span.field("threads", n as f64);
            drop(epoch_span);
            on_epoch(epoch, &backing.settled());
        }
        backing.finish()
    }
}

/// Two disjoint clusters of co-occurring words (`a0..a3`, `b0..b3`),
/// 400 seven-token sentences: training should pull same-cluster
/// embeddings together. The one toy corpus of the trainer tests.
#[cfg(test)]
pub(crate) fn clustered_corpus() -> (Corpus, Vocabulary) {
    use gw2v_corpus::tokenizer::TokenizerConfig;
    use gw2v_corpus::vocab::VocabBuilder;
    let mut text = String::new();
    for i in 0..400 {
        text.push_str(if i % 2 == 0 {
            "a0 a1 a2 a3 a1 a0 a2\n"
        } else {
            "b0 b1 b2 b3 b1 b0 b2\n"
        });
    }
    let mut b = VocabBuilder::new();
    for tok in text.split_whitespace() {
        b.add_token(tok);
    }
    let vocab = b.build(1);
    let cfg = TokenizerConfig {
        lowercase: false,
        max_sentence_len: 7,
    };
    (Corpus::from_text(&text, &vocab, cfg), vocab)
}

/// `n_sentences` six-token sentences cycling through an `a` line, a `b`
/// line and a line mixing both with `c` words. The toy corpus of the
/// cluster-engine tests.
#[cfg(test)]
pub(crate) fn toy_corpus(n_sentences: usize) -> (Corpus, Vocabulary) {
    use gw2v_corpus::tokenizer::TokenizerConfig;
    use gw2v_corpus::vocab::VocabBuilder;
    let mut text = String::new();
    for i in 0..n_sentences {
        text.push_str(match i % 3 {
            0 => "a0 a1 a2 a3 a1 a2\n",
            1 => "b0 b1 b2 b3 b1 b2\n",
            _ => "c0 c1 a1 b1 c2 c0\n",
        });
    }
    let mut b = VocabBuilder::new();
    for tok in text.split_whitespace() {
        b.add_token(tok);
    }
    let vocab = b.build(1);
    let cfg = TokenizerConfig {
        lowercase: false,
        max_sentence_len: 6,
    };
    (Corpus::from_text(&text, &vocab, cfg), vocab)
}

/// A cluster configuration for the engine tests: `n_hosts` hosts,
/// `rounds` sync rounds, per-pair SGNS, id+value payloads, stalled
/// partitions.
#[cfg(test)]
pub(crate) fn dist_config(
    n_hosts: usize,
    rounds: usize,
    plan: gw2v_gluon::plan::SyncPlan,
    combiner: gw2v_combiner::CombinerKind,
) -> crate::distributed::DistConfig {
    crate::distributed::DistConfig {
        n_hosts,
        sync_rounds: rounds,
        plan,
        combiner,
        ..crate::distributed::DistConfig::paper_default(n_hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer_hogbatch::HogBatchTrainer;
    use crate::trainer_hogwild::HogwildTrainer;

    /// The atomic store against `PlainStore`, one SGNS loop at a time:
    /// the loop forced onto an `AtomicModel` with its one worker
    /// reproduces the one-thread trainers, which step a plain model, bit
    /// for bit (vector body only / body + scalar tail).
    #[test]
    fn plain_backing_matches_one_thread_atomic_trainers_bitwise() {
        let (corpus, vocab) = clustered_corpus();
        for dim in [8, 67] {
            let params = Hyperparams {
                dim,
                epochs: 2,
                ..Hyperparams::test_scale()
            };
            let atomic = |name, step| {
                let preset = Preset {
                    name,
                    rng_stream: 0,
                    params: &params,
                    n_threads: 1,
                    step,
                };
                let workers = preset.workers(&corpus);
                assert_eq!(workers.len(), 1);
                preset.train::<AtomicModel>(workers, &corpus, &vocab, |_, _| {})
            };
            let hogbatch = HogBatchTrainer::new(params.clone(), 1).train(&corpus, &vocab);
            let atomic_hogbatch = atomic("hogbatch", Step::HogBatch);
            assert_eq!(atomic_hogbatch, hogbatch, "HogBatch loop, dim {dim}");
            let hogwild = HogwildTrainer::new(params.clone(), 1).train(&corpus, &vocab);
            let atomic_hogwild = atomic("hogwild", Step::PerPair);
            assert_eq!(atomic_hogwild, hogwild, "per-pair loop, dim {dim}");
            assert_ne!(hogbatch, hogwild);
        }
    }

    /// The backing follows the workers built, not the thread count: over
    /// one sentence one worker is built, and it is the one-thread run.
    #[test]
    fn one_sentence_trains_as_one_thread_whatever_the_thread_count() {
        let (corpus, vocab) = toy_corpus(1);
        let params = Hyperparams {
            subsample: 0.0,
            ..Hyperparams::test_scale()
        };
        let init = Word2VecModel::init(vocab.len(), params.dim, params.seed);
        let hogbatch = |n| HogBatchTrainer::new(params.clone(), n).train(&corpus, &vocab);
        assert_ne!(hogbatch(1), init, "the sentence trained nothing");
        assert_eq!(hogbatch(4), hogbatch(1), "HogBatch");
        let hogwild = |n| HogwildTrainer::new(params.clone(), n).train(&corpus, &vocab);
        assert_eq!(hogwild(4), hogwild(1), "Hogwild");
    }
}
