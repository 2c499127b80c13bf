//! Frequent-word subsampling.
//!
//! Very frequent words ("the", "a") carry little signal per occurrence;
//! Mikolov et al. (2013) discard each occurrence of word `w` with a
//! frequency-dependent probability. We follow the *C implementation's*
//! formula (which differs slightly from the paper's): an occurrence is
//! **kept** with probability
//!
//! ```text
//! p_keep(w) = (sqrt(f_w / (t·T)) + 1) · (t·T) / f_w
//! ```
//!
//! clamped to 1, where `f_w` is the corpus count of `w`, `T` the total
//! token count and `t` the threshold (1e-4 in the paper's experiments).

use crate::vocab::Vocabulary;
use gw2v_util::rng::Rng64;

/// Precomputed per-word keep probabilities.
#[derive(Clone, Debug)]
pub struct SubsampleTable {
    keep_prob: Vec<f32>,
    /// Threshold used to build the table (0 disables subsampling).
    pub threshold: f64,
}

impl SubsampleTable {
    /// Builds the table from a vocabulary and threshold `t`.
    ///
    /// `t == 0.0` disables subsampling (every word kept), matching the C
    /// tool's `-sample 0`.
    pub fn new(vocab: &Vocabulary, threshold: f64) -> Self {
        let total = vocab.total_words() as f64;
        let keep_prob = if threshold <= 0.0 {
            vec![1.0; vocab.len()]
        } else {
            let tt = threshold * total;
            vocab
                .entries()
                .iter()
                .map(|w| {
                    let f = w.count as f64;
                    (((f / tt).sqrt() + 1.0) * tt / f).min(1.0) as f32
                })
                .collect()
        };
        Self {
            keep_prob,
            threshold,
        }
    }

    /// Keep probability for word id `w`.
    #[cfg(test)]
    #[inline]
    pub(crate) fn keep_prob(&self, w: u32) -> f32 {
        self.keep_prob[w as usize]
    }

    /// Randomized keep decision for one occurrence of `w`.
    #[inline]
    pub fn keep<R: Rng64>(&self, w: u32, rng: &mut R) -> bool {
        let p = self.keep_prob[w as usize];
        p >= 1.0 || rng.next_f32() < p
    }

    /// Applies subsampling to an encoded sentence, returning the surviving
    /// word ids in order.
    pub fn filter_sentence<R: Rng64>(&self, sentence: &[u32], rng: &mut R) -> Vec<u32> {
        sentence
            .iter()
            .copied()
            .filter(|&w| self.keep(w, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::VocabBuilder;
    use gw2v_util::rng::Xoshiro256;

    fn make_vocab(counts: &[(&str, u64)]) -> Vocabulary {
        let mut b = VocabBuilder::new();
        for &(w, c) in counts {
            for _ in 0..c {
                b.add_token(w);
            }
        }
        b.build(1)
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let v = make_vocab(&[("the", 1000), ("rare", 1)]);
        let t = SubsampleTable::new(&v, 0.0);
        for id in 0..v.len() as u32 {
            assert_eq!(t.keep_prob(id), 1.0);
        }
    }

    #[test]
    fn rare_words_always_kept() {
        // A word at exactly the threshold frequency has keep prob
        // (sqrt(1)+1)*1 = 2, clamped to 1; anything rarer also 1.
        let v = make_vocab(&[("common", 99_000), ("rare", 1_000)]);
        let t = SubsampleTable::new(&v, 1e-2);
        let rare = v.id_of("rare").unwrap();
        assert_eq!(t.keep_prob(rare), 1.0);
    }

    #[test]
    fn frequent_words_downsampled() {
        let v = make_vocab(&[("the", 90_000), ("x", 10_000)]);
        let t = SubsampleTable::new(&v, 1e-3);
        let the = v.id_of("the").unwrap();
        let p = t.keep_prob(the) as f64;
        // f/T = 0.9, t*T = 100; formula: (sqrt(90000/100)+1)*100/90000 ≈ 0.0344.
        let expected = ((90_000f64 / 100.0).sqrt() + 1.0) * 100.0 / 90_000.0;
        assert!((p - expected).abs() < 1e-6, "{p} vs {expected}");
        assert!(p < 0.05);
    }

    #[test]
    fn keep_rate_matches_probability() {
        let v = make_vocab(&[("the", 90_000), ("x", 10_000)]);
        let t = SubsampleTable::new(&v, 1e-3);
        let the = v.id_of("the").unwrap();
        let p = t.keep_prob(the) as f64;
        let mut rng = Xoshiro256::new(7);
        let n = 200_000;
        let kept = (0..n).filter(|_| t.keep(the, &mut rng)).count();
        let observed = kept as f64 / n as f64;
        assert!(
            (observed - p).abs() < 0.005,
            "observed {observed}, expected {p}"
        );
    }

    #[test]
    fn filter_sentence_preserves_order() {
        let v = make_vocab(&[("a", 10), ("b", 10), ("c", 10)]);
        let t = SubsampleTable::new(&v, 0.0);
        let mut rng = Xoshiro256::new(1);
        let sent = vec![2, 0, 1];
        assert_eq!(t.filter_sentence(&sent, &mut rng), sent);
    }

    #[test]
    fn monotone_in_frequency() {
        // More frequent => lower (or equal) keep probability.
        let v = make_vocab(&[
            ("w1", 50_000),
            ("w2", 30_000),
            ("w3", 15_000),
            ("w4", 5_000),
        ]);
        let t = SubsampleTable::new(&v, 1e-3);
        let probs: Vec<f32> = (0..4).map(|i| t.keep_prob(i)).collect();
        for pair in probs.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-7, "{probs:?}");
        }
    }
}
