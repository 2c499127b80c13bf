//! Negative-sampling distributions.
//!
//! SGNS draws "negative" words from the unigram distribution raised to the
//! 3/4 power (Mikolov et al. 2013). Two exact-or-close implementations:
//!
//! * [`UnigramTable`] — the classic big-array lookup the C code uses:
//!   `table_size` slots filled proportionally to `count^0.75`; sampling
//!   is one random slot index, distribution quantized to `1/table_size`.
//!   The slots are not stored: each word's slots are one contiguous run,
//!   so the table keeps the run ends plus a coarse index of every
//!   `2^k`-th slot's word and maps an index to the word the flat array
//!   would hold there. Memory `O(vocab)`, not `O(table_size)`: about
//!   26 KB instead of 4 MB for a 2.5 k-word vocabulary, so the per-pair
//!   draws stay in cache beside the model.
//! * [`AliasSampler`] — Walker's alias method: `O(vocab)` memory, exact
//!   probabilities, one random draw + one comparison per sample.
//!
//! Both implement [`NegativeSampler`]; the ablation bench compares them.

use crate::vocab::Vocabulary;
use gw2v_util::rng::Rng64;

/// Power applied to unigram counts (0.75 from the paper).
pub(crate) const UNIGRAM_POWER: f64 = 0.75;

/// A source of negative samples: word ids drawn from the smoothed unigram
/// distribution.
pub trait NegativeSampler: Send + Sync {
    /// Draws one word id.
    fn sample<R: Rng64>(&self, rng: &mut R) -> u32;
}

/// Classic lookup-table sampler (the C implementation's `InitUnigramTable`),
/// stored as its run ends.
///
/// Slot `i` of the flat table holds the word `w` with `ends[w − 1] ≤ i <
/// ends[w]`. `coarse[j]` is the word at slot `j << shift`, and `shift` is
/// the largest with `size >> shift ≥ ends.len()`, so there are at least
/// as many coarse entries as runs: a uniformly drawn index steps past at
/// most one run end on average.
#[derive(Clone, Debug)]
pub struct UnigramTable {
    size: usize,
    shift: u32,
    ends: Vec<u32>,
    coarse: Vec<u32>,
}

impl UnigramTable {
    /// Default table size; the C tool uses 1e8, we default to 1e6 — at our
    /// scaled-down vocabulary sizes the quantization error is comparable.
    pub const DEFAULT_SIZE: usize = 1 << 20;

    /// Builds a table of `size` slots from the vocabulary.
    pub fn new(vocab: &Vocabulary, size: usize) -> Self {
        assert!(
            !vocab.is_empty(),
            "cannot build unigram table for empty vocabulary"
        );
        assert!(size > 0);
        assert!(u32::try_from(size).is_ok(), "unigram table size {size}");
        let pow_sum: f64 = vocab
            .entries()
            .iter()
            .map(|w| (w.count as f64).powf(UNIGRAM_POWER))
            .sum();
        // The flat table's fill loop, keeping where each run ends: slot
        // `i` holds `word`, and the word moves on after it at most once
        // (a move after the last slot shows in no slot).
        let mut ends = Vec::with_capacity(vocab.len().min(size));
        let mut word: usize = 0;
        let mut cum = (vocab.count_of(0) as f64).powf(UNIGRAM_POWER) / pow_sum;
        for i in 0..size - 1 {
            if (i + 1) as f64 / size as f64 > cum && word + 1 < vocab.len() {
                ends.push(i as u32 + 1);
                word += 1;
                cum += (vocab.count_of(word as u32) as f64).powf(UNIGRAM_POWER) / pow_sum;
            }
        }
        ends.push(size as u32);
        let shift = (size / ends.len()).ilog2();
        let mut coarse = Vec::with_capacity(size.div_ceil(1 << shift));
        let mut w = 0;
        for i in (0..size as u32).step_by(1 << shift) {
            while ends[w] <= i {
                w += 1;
            }
            coarse.push(w as u32);
        }
        Self {
            size,
            shift,
            ends,
            coarse,
        }
    }

    /// The word the flat table holds at slot `i < size`.
    ///
    /// A slot is at most a few runs past its coarse entry (on a Zipf
    /// 2 500-word vocabulary at [`Self::DEFAULT_SIZE`], 72 % of slots
    /// are 0 runs past, 25 % one, 2.8 % two), so the first two steps are
    /// taken as adds of a comparison, with no branch to mispredict, and
    /// a loop finishes the rare longer walk. No step passes the last
    /// run, whose end is `size`.
    #[inline]
    fn word_at(&self, i: u32) -> u32 {
        let ends = &self.ends;
        let mut w = self.coarse[(i >> self.shift) as usize] as usize;
        w += usize::from(ends[w] <= i);
        w += usize::from(ends[w] <= i);
        while ends[w] <= i {
            w += 1;
        }
        w as u32
    }

    /// Bytes the table holds on the heap.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        (self.ends.capacity() + self.coarse.capacity()) * std::mem::size_of::<u32>()
    }
}

impl NegativeSampler for UnigramTable {
    #[inline]
    fn sample<R: Rng64>(&self, rng: &mut R) -> u32 {
        self.word_at(rng.index(self.size) as u32)
    }
}

/// Walker alias sampler: exact sampling from an arbitrary discrete
/// distribution in O(1) per draw.
#[derive(Clone, Debug)]
pub struct AliasSampler {
    prob: Vec<f32>,
    alias: Vec<u32>,
}

impl AliasSampler {
    /// Builds an alias table over `count^0.75` for the whole vocabulary.
    pub fn from_vocab(vocab: &Vocabulary) -> Self {
        let weights: Vec<f64> = vocab
            .entries()
            .iter()
            .map(|w| (w.count as f64).powf(UNIGRAM_POWER))
            .collect();
        Self::from_weights(&weights)
    }

    /// Builds an alias table from arbitrary non-negative weights (at least
    /// one must be positive).
    pub(crate) fn from_weights(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "empty weight vector");
        let sum: f64 = weights.iter().sum();
        assert!(sum > 0.0, "weights must not all be zero");
        // Scaled probabilities: mean 1.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / sum).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut prob = vec![1.0f32; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = scaled[s as usize] as f32;
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (numerical residue) get probability 1 (already set).
        Self { prob, alias }
    }
}

impl NegativeSampler for AliasSampler {
    #[inline]
    fn sample<R: Rng64>(&self, rng: &mut R) -> u32 {
        let i = rng.index(self.prob.len());
        if rng.next_f32() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::VocabBuilder;
    use gw2v_util::rng::Xoshiro256;

    fn vocab_with_counts(counts: &[u64]) -> Vocabulary {
        let mut b = VocabBuilder::new();
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                b.add_token(&format!("w{i:04}"));
            }
        }
        b.build(1)
    }

    fn expected_dist(counts: &[u64]) -> Vec<f64> {
        let pows: Vec<f64> = counts
            .iter()
            .map(|&c| (c as f64).powf(UNIGRAM_POWER))
            .collect();
        let sum: f64 = pows.iter().sum();
        pows.iter().map(|p| p / sum).collect()
    }

    fn empirical<S: NegativeSampler>(s: &S, n_outcomes: usize, draws: usize) -> Vec<f64> {
        let mut rng = Xoshiro256::new(99);
        let mut counts = vec![0usize; n_outcomes];
        for _ in 0..draws {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn unigram_table_distribution() {
        // Descending counts so vocab ids align with the counts order.
        let counts = [1000u64, 400, 150, 60, 20];
        let vocab = vocab_with_counts(&counts);
        let table = UnigramTable::new(&vocab, 100_000);
        let expected = expected_dist(&counts);
        let got = empirical(&table, counts.len(), 300_000);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 0.01, "got {g}, expected {e}");
        }
    }

    #[test]
    fn alias_distribution_exact() {
        let counts = [1000u64, 400, 150, 60, 20];
        let vocab = vocab_with_counts(&counts);
        let alias = AliasSampler::from_vocab(&vocab);
        let expected = expected_dist(&counts);
        let got = empirical(&alias, counts.len(), 300_000);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 0.01, "got {g}, expected {e}");
        }
    }

    #[test]
    fn alias_handles_degenerate_weights() {
        let alias = AliasSampler::from_weights(&[0.0, 1.0, 0.0]);
        let mut rng = Xoshiro256::new(1);
        for _ in 0..1000 {
            assert_eq!(alias.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_single_outcome() {
        let alias = AliasSampler::from_weights(&[5.0]);
        let mut rng = Xoshiro256::new(1);
        assert_eq!(alias.sample(&mut rng), 0);
    }

    #[test]
    fn alias_uniform_weights() {
        let alias = AliasSampler::from_weights(&[1.0; 7]);
        let got = empirical(&alias, 7, 140_000);
        for g in got {
            assert!((g - 1.0 / 7.0).abs() < 0.01);
        }
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn alias_all_zero_panics() {
        let _ = AliasSampler::from_weights(&[0.0, 0.0]);
    }

    #[test]
    fn table_covers_all_words() {
        let counts = [100u64, 50, 25, 12, 6, 3];
        let vocab = vocab_with_counts(&counts);
        let table = UnigramTable::new(&vocab, 10_000);
        let mut seen = vec![false; counts.len()];
        for i in 0..10_000 {
            seen[table.word_at(i) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every word appears in the table");
    }

    /// The flat `size`-slot table the C code fills, which [`UnigramTable`]
    /// stores as run ends.
    fn flat_table(vocab: &Vocabulary, size: usize) -> Vec<u32> {
        let pow_sum: f64 = vocab
            .entries()
            .iter()
            .map(|w| (w.count as f64).powf(UNIGRAM_POWER))
            .sum();
        let mut table = Vec::with_capacity(size);
        let mut word: usize = 0;
        let mut cum = (vocab.count_of(0) as f64).powf(UNIGRAM_POWER) / pow_sum;
        for i in 0..size {
            table.push(word as u32);
            if (i + 1) as f64 / size as f64 > cum && word + 1 < vocab.len() {
                word += 1;
                cum += (vocab.count_of(word as u32) as f64).powf(UNIGRAM_POWER) / pow_sum;
            }
        }
        table
    }

    /// `words` words with Zipf counts `10 · words / rank`.
    fn zipf_vocab(words: usize) -> Vocabulary {
        Vocabulary::from_counts(
            (1..=words).map(|r| (format!("w{r}"), (10 * words / r) as u64)),
            1,
        )
    }

    #[test]
    fn every_slot_is_the_flat_tables_word() {
        let vocabs = [
            vocab_with_counts(&[1000, 400, 150, 60, 20]),
            vocab_with_counts(&[100, 50, 25, 12, 6, 3]),
            vocab_with_counts(&[5000, 2000, 800, 300, 100, 40, 15]),
            zipf_vocab(2_500),
            zipf_vocab(100_000),
        ];
        for vocab in &vocabs {
            for size in [1, 7, 255, 256, 257, 100_000, UnigramTable::DEFAULT_SIZE] {
                let table = UnigramTable::new(vocab, size);
                let flat = flat_table(vocab, size);
                for (i, &w) in flat.iter().enumerate() {
                    assert_eq!(
                        table.word_at(i as u32),
                        w,
                        "vocab {} size {size} slot {i}",
                        vocab.len()
                    );
                }
            }
        }
        let heap = |words, bound| {
            let table = UnigramTable::new(&zipf_vocab(words), UnigramTable::DEFAULT_SIZE);
            assert!(
                table.heap_bytes() <= bound,
                "{words} words: {} B",
                table.heap_bytes()
            );
        };
        heap(2_500, 64 << 10);
        heap(100_000, 1 << 20);
    }

    /// The run walk `word_at` made before its two unconditional steps:
    /// start at the coarse entry and step while the run ends at or
    /// before `i`.
    fn walk(table: &UnigramTable, i: u32) -> u32 {
        let mut w = table.coarse[(i >> table.shift) as usize];
        while table.ends[w as usize] <= i {
            w += 1;
        }
        w
    }

    #[test]
    fn word_at_is_the_run_walk_at_every_slot() {
        let tables = [
            UnigramTable::new(&zipf_vocab(2_500), UnigramTable::DEFAULT_SIZE),
            UnigramTable::new(&vocab_with_counts(&[7]), 1_000),
            // 100 003 slots over 40 runs: the last coarse step is short.
            UnigramTable::new(&zipf_vocab(40), 100_003),
        ];
        assert_ne!(tables[2].size % (1 << tables[2].shift), 0);
        for table in &tables {
            for i in 0..table.size as u32 {
                assert_eq!(table.word_at(i), walk(table, i), "slot {i}");
            }
        }
    }

    #[test]
    fn a_seeded_draw_sequence_is_unchanged() {
        let table = UnigramTable::new(&zipf_vocab(2_500), UnigramTable::DEFAULT_SIZE);
        let mut rng = Xoshiro256::new(2_500);
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..100_000 {
            fnv = (fnv ^ u64::from(table.sample(&mut rng))).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(fnv, 14_149_140_844_787_053_293, "draws changed");
    }

    #[test]
    fn samplers_agree_with_each_other() {
        let counts = [5000u64, 2000, 800, 300, 100, 40, 15];
        let vocab = vocab_with_counts(&counts);
        let table = UnigramTable::new(&vocab, 1 << 18);
        let alias = AliasSampler::from_vocab(&vocab);
        let a = empirical(&table, counts.len(), 200_000);
        let b = empirical(&alias, counts.len(), 200_000);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.015, "table {x} vs alias {y}");
        }
    }
}
