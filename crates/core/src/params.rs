//! Hyperparameters.
//!
//! Defaults follow the paper's §5.1: "window size: 5, number of negative
//! samples: 15, sentence length of 10K, threshold of 1e-4 for
//! downsampling the frequent words, and vector dimensionality (or
//! embedding size) of 200. We also trained all the models for 16
//! epochs", with the C implementation's default starting learning rate
//! of 0.025 for Skip-Gram.

use serde::{Deserialize, Serialize};

/// Which negative-sampling table implementation to use (ablation knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplerChoice {
    /// The classic big-array table of the C implementation.
    Table,
    /// Exact Walker alias sampling.
    Alias,
}

/// Word2Vec training hyperparameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Hyperparams {
    /// Embedding dimensionality (paper: 200).
    pub dim: usize,
    /// Maximum context window radius (paper: 5); each center position
    /// samples an effective radius uniformly from `1..=window`.
    pub window: usize,
    /// Negative samples per positive pair (paper: 15).
    pub negative: usize,
    /// Starting learning rate (C default for SG: 0.025).
    pub alpha: f32,
    /// The learning rate never decays below `alpha * min_alpha_frac`
    /// (C uses 1e-4).
    pub min_alpha_frac: f32,
    /// Training epochs (paper: 16).
    pub epochs: usize,
    /// Frequent-word downsampling threshold (paper: 1e-4; 0 disables).
    pub subsample: f64,
    /// Minimum corpus count for a word to enter the vocabulary.
    pub min_count: u64,
    /// Maximum training-sentence length in words (paper: 10 000).
    pub max_sentence_len: usize,
    /// Negative-sampling table implementation.
    pub sampler: SamplerChoice,
    /// Master seed for all stochastic choices.
    pub seed: u64,
}

impl Default for Hyperparams {
    fn default() -> Self {
        Self {
            dim: 200,
            window: 5,
            negative: 15,
            alpha: 0.025,
            min_alpha_frac: 1e-4,
            epochs: 16,
            subsample: 1e-4,
            min_count: 1,
            max_sentence_len: 10_000,
            sampler: SamplerChoice::Table,
            seed: 1,
        }
    }
}

impl Hyperparams {
    /// A tiny configuration for unit/integration tests.
    pub fn test_scale() -> Self {
        Self {
            dim: 16,
            window: 3,
            negative: 3,
            epochs: 2,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = Hyperparams::default();
        assert_eq!(p.dim, 200);
        assert_eq!(p.window, 5);
        assert_eq!(p.negative, 15);
        assert_eq!(p.epochs, 16);
        assert_eq!(p.subsample, 1e-4);
        assert_eq!(p.max_sentence_len, 10_000);
        assert!((p.alpha - 0.025).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Hyperparams::test_scale();
        let json = serde_json::to_string(&p).unwrap();
        let back: Hyperparams = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dim, 16);
        assert_eq!(back.negative, 3);
        assert_eq!(back.sampler, SamplerChoice::Table);
    }
}
