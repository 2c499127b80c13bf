//! Shared training-pipeline construction.
//!
//! Everything a trainer needs besides the model itself: the sigmoid
//! table, the frequent-word subsampling table and the negative-sampling
//! distribution, built once from `(vocabulary, hyperparameters)` and
//! shared (immutably) by all workers/hosts.

use crate::params::{Hyperparams, SamplerChoice};
use crate::sgns::TrainContext;
use gw2v_corpus::subsample::SubsampleTable;
use gw2v_corpus::unigram::{AliasSampler, NegativeSampler, UnigramTable};
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::rng::Rng64;
use gw2v_util::sigmoid::SigmoidTable;

/// Stream-id base for per-host training RNGs; host `h` trains with the
/// stream `SplitMix64::new(params.seed).derive(HOST_RNG_BASE + h)`. The
/// sequential baseline is host 0 of a 1-host cluster, which is what makes
/// it bit-comparable with distributed runs.
pub const HOST_RNG_BASE: u64 = 0x1000;

/// Stream-id base for *recovery* RNGs: when host `d` crashes and a
/// survivor adopts its partition, the adopter continues `d`'s worklist
/// with the fresh stream `SplitMix64::new(params.seed).derive(
/// RECOVERY_RNG_BASE + d)` — the dead host's in-memory stream state is
/// gone, so a deterministic replacement stream is derived instead. Both
/// the sequential simulator and the threaded cluster use this rule,
/// which keeps degraded runs bit-comparable across engines.
pub(crate) const RECOVERY_RNG_BASE: u64 = 0x2000;

/// Enum-dispatched negative sampler (the [`NegativeSampler`] trait has a
/// generic method, so trait objects are not an option).
#[derive(Clone, Debug)]
pub enum Sampler {
    /// Classic lookup table.
    Table(UnigramTable),
    /// Walker alias method.
    Alias(AliasSampler),
}

impl NegativeSampler for Sampler {
    #[inline]
    fn sample<R: Rng64>(&self, rng: &mut R) -> u32 {
        match self {
            Sampler::Table(t) => t.sample(rng),
            Sampler::Alias(a) => a.sample(rng),
        }
    }
}

/// The immutable pipeline pieces shared by every worker.
pub struct TrainSetup {
    /// Sigmoid lookup table.
    pub sigmoid: SigmoidTable,
    /// Frequent-word downsampling probabilities.
    pub subsample: SubsampleTable,
    /// Negative-sampling distribution.
    pub sampler: Sampler,
}

impl TrainSetup {
    /// Builds the pipeline for a vocabulary under the given parameters.
    pub fn new(vocab: &Vocabulary, params: &Hyperparams) -> Self {
        let sampler = match params.sampler {
            SamplerChoice::Table => {
                Sampler::Table(UnigramTable::new(vocab, UnigramTable::DEFAULT_SIZE))
            }
            SamplerChoice::Alias => Sampler::Alias(AliasSampler::from_vocab(vocab)),
        };
        Self {
            sigmoid: SigmoidTable::new(),
            subsample: SubsampleTable::new(vocab, params.subsample),
            sampler,
        }
    }

    /// Borrows a [`TrainContext`] for the inner loop.
    pub fn ctx<'a>(&'a self, params: &Hyperparams) -> TrainContext<'a, Sampler> {
        TrainContext {
            window: params.window,
            negative: params.negative,
            sigmoid: &self.sigmoid,
            sampler: &self.sampler,
            subsample: &self.subsample,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_corpus::vocab::VocabBuilder;
    use gw2v_util::rng::Xoshiro256;

    fn vocab() -> Vocabulary {
        let mut b = VocabBuilder::new();
        for i in 0..20 {
            for _ in 0..(20 - i) {
                b.add_token(&format!("w{i}"));
            }
        }
        b.build(1)
    }

    #[test]
    fn both_sampler_choices_build_and_sample() {
        let v = vocab();
        for choice in [SamplerChoice::Table, SamplerChoice::Alias] {
            let params = Hyperparams {
                sampler: choice,
                ..Hyperparams::test_scale()
            };
            let setup = TrainSetup::new(&v, &params);
            let mut rng = Xoshiro256::new(1);
            for _ in 0..100 {
                let s = setup.sampler.sample(&mut rng);
                assert!((s as usize) < v.len());
            }
            let ctx = setup.ctx(&params);
            assert_eq!(ctx.window, params.window);
            assert_eq!(ctx.negative, params.negative);
        }
    }
}
