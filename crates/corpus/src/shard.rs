//! Encoded corpora, host partitioning and round chunking.
//!
//! Paper §4.1–§4.2: the training corpus is (logically) split into roughly
//! equal *contiguous* chunks, one per host; each host's chunk is its
//! worklist. Within an epoch, the worklist is further split into `S`
//! contiguous chunks, one per synchronization round.
//!
//! Splits here always respect sentence boundaries and balance *token*
//! counts (not sentence counts), since per-token work is what must be
//! balanced across hosts.

use crate::tokenizer::{TokenizerConfig, Tokens};
use crate::vocab::Vocabulary;

/// An encoded in-memory corpus: sentences of word ids.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    sentences: Vec<Vec<u32>>,
    total_tokens: usize,
}

impl Corpus {
    /// Encodes raw text through a vocabulary. Out-of-vocabulary words are
    /// dropped; sentences that become empty are discarded.
    pub fn from_text(text: &str, vocab: &Vocabulary, config: TokenizerConfig) -> Self {
        Self::from_sentences(
            Tokens::new(text.as_bytes(), &config)
                .encode(vocab)
                .expect("in-memory text is UTF-8 and cannot fail to read"),
        )
    }

    /// Wraps pre-encoded sentences.
    pub fn from_sentences(sentences: Vec<Vec<u32>>) -> Self {
        let total_tokens = sentences.iter().map(Vec::len).sum();
        Self {
            sentences,
            total_tokens,
        }
    }

    /// All sentences.
    pub fn sentences(&self) -> &[Vec<u32>] {
        &self.sentences
    }

    /// Total encoded tokens.
    pub fn total_tokens(&self) -> usize {
        self.total_tokens
    }

    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    /// True if the corpus has no sentences.
    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    /// Contiguous, token-balanced partition for host `host` of `n_hosts`
    /// (paper §4.2: "The training corpus file is partitioned (logically)
    /// into roughly equal contiguous chunks among hosts").
    pub fn partition(&self, host: usize, n_hosts: usize) -> CorpusShard<'_> {
        assert!(n_hosts > 0 && host < n_hosts, "host {host} of {n_hosts}");
        let (start, end) = balanced_range(&self.sentences, host, n_hosts);
        CorpusShard::new(&self.sentences[start..end])
    }
}

/// One host's contiguous slice of the corpus.
#[derive(Clone, Copy, Debug)]
pub struct CorpusShard<'a> {
    sentences: &'a [Vec<u32>],
    total_tokens: usize,
}

impl<'a> CorpusShard<'a> {
    /// Wraps a sentence slice.
    pub(crate) fn new(sentences: &'a [Vec<u32>]) -> Self {
        let total_tokens = sentences.iter().map(Vec::len).sum();
        Self {
            sentences,
            total_tokens,
        }
    }

    /// Sentences in this shard.
    pub fn sentences(&self) -> &'a [Vec<u32>] {
        self.sentences
    }

    /// Tokens in this shard.
    pub fn total_tokens(&self) -> usize {
        self.total_tokens
    }

    /// The `round`-th of `n_rounds` contiguous, token-balanced chunks of
    /// this shard (paper §4.1: "the worklist on each host is partitioned
    /// into roughly equal contiguous chunks", one per sync round).
    pub fn round_chunk(&self, round: usize, n_rounds: usize) -> CorpusShard<'a> {
        assert!(n_rounds > 0 && round < n_rounds);
        let (start, end) = balanced_range(self.sentences, round, n_rounds);
        CorpusShard::new(&self.sentences[start..end])
    }
}

/// Computes the sentence range `[start, end)` of chunk `k` of `n` such
/// that cumulative token counts split as evenly as sentence boundaries
/// allow: chunk `k` covers sentences whose cumulative-token midpoint falls
/// in `[k·T/n, (k+1)·T/n)`.
fn balanced_range(sentences: &[Vec<u32>], k: usize, n: usize) -> (usize, usize) {
    let total: usize = sentences.iter().map(Vec::len).sum();
    if total == 0 {
        // Degenerate: spread empty slices.
        return (0, 0);
    }
    let lo = (k * total) / n;
    let hi = ((k + 1) * total) / n;
    let mut start = None;
    let mut end = sentences.len();
    let mut cum = 0usize;
    for (i, s) in sentences.iter().enumerate() {
        let mid = cum + s.len() / 2;
        if start.is_none() && mid >= lo {
            start = Some(i);
        }
        if mid >= hi {
            end = i;
            break;
        }
        cum += s.len();
    }
    let start = start.unwrap_or(sentences.len());
    (start, end.max(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::VocabBuilder;
    use proptest::prelude::*;

    fn corpus_of_lens(lens: &[usize]) -> Corpus {
        let sentences: Vec<Vec<u32>> = lens.iter().map(|&l| vec![0u32; l]).collect();
        Corpus::from_sentences(sentences)
    }

    #[test]
    fn from_text_encodes_and_drops_oov() {
        let mut b = VocabBuilder::new();
        for t in "a b c".split_whitespace() {
            b.add_token(t);
        }
        let vocab = b.build(1);
        let corpus = Corpus::from_text("a x b\nc y", &vocab, TokenizerConfig::default());
        assert_eq!(corpus.total_tokens(), 3);
        assert_eq!(corpus.len(), 1, "single sentence (10K max length)");
    }

    #[test]
    fn empty_sentences_discarded() {
        let mut b = VocabBuilder::new();
        b.add_token("known");
        let vocab = b.build(1);
        let cfg = TokenizerConfig {
            lowercase: false,
            max_sentence_len: 2,
        };
        let corpus = Corpus::from_text("x y known z w q", &vocab, cfg);
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.total_tokens(), 1);
    }

    #[test]
    fn partitions_cover_exactly() {
        let corpus = corpus_of_lens(&[5, 3, 8, 2, 7, 4, 6, 1]);
        for n_hosts in 1..=8 {
            let mut tokens = 0;
            let mut count = 0;
            for h in 0..n_hosts {
                let shard = corpus.partition(h, n_hosts);
                tokens += shard.total_tokens();
                count += shard.sentences().len();
            }
            assert_eq!(tokens, corpus.total_tokens(), "n_hosts={n_hosts}");
            assert_eq!(count, corpus.len(), "n_hosts={n_hosts}");
        }
    }

    #[test]
    fn partitions_are_contiguous_in_order() {
        let corpus = corpus_of_lens(&[4; 20]);
        let mut next_expected = corpus.sentences().as_ptr();
        for h in 0..5 {
            let shard = corpus.partition(h, 5);
            if !shard.sentences().is_empty() {
                assert_eq!(shard.sentences().as_ptr(), next_expected);
                next_expected = unsafe { next_expected.add(shard.sentences().len()) };
            }
        }
    }

    #[test]
    fn balance_is_reasonable() {
        // 100 sentences of 10 tokens, 4 hosts: perfect split is 250 each.
        let corpus = corpus_of_lens(&[10; 100]);
        for h in 0..4 {
            let shard = corpus.partition(h, 4);
            assert_eq!(shard.total_tokens(), 250);
        }
    }

    #[test]
    fn more_hosts_than_sentences() {
        let corpus = corpus_of_lens(&[5, 5]);
        let mut total = 0;
        for h in 0..8 {
            total += corpus.partition(h, 8).total_tokens();
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn round_chunks_cover_shard() {
        let corpus = corpus_of_lens(&[3, 9, 2, 8, 5, 5, 7, 1, 6]);
        let shard = corpus.partition(0, 1);
        for s in 1..=6 {
            let mut tokens = 0;
            for r in 0..s {
                tokens += shard.round_chunk(r, s).total_tokens();
            }
            assert_eq!(tokens, shard.total_tokens(), "rounds={s}");
        }
    }

    #[test]
    fn empty_corpus_partitions() {
        let corpus = corpus_of_lens(&[]);
        for h in 0..3 {
            assert_eq!(corpus.partition(h, 3).total_tokens(), 0);
        }
    }

    proptest! {
        #[test]
        fn prop_partition_exact_cover(
            lens in proptest::collection::vec(1usize..40, 0..60),
            n_hosts in 1usize..10,
        ) {
            let corpus = corpus_of_lens(&lens);
            let mut tokens = 0;
            let mut sentences = 0;
            for h in 0..n_hosts {
                let s = corpus.partition(h, n_hosts);
                tokens += s.total_tokens();
                sentences += s.sentences().len();
            }
            prop_assert_eq!(tokens, corpus.total_tokens());
            prop_assert_eq!(sentences, corpus.len());
        }

        #[test]
        fn prop_partition_balanced(
            sent_len in 1usize..20,
            n_sent in 50usize..200,
            n_hosts in 1usize..8,
        ) {
            // Uniform sentences: every shard within one sentence of ideal.
            let corpus = corpus_of_lens(&vec![sent_len; n_sent]);
            let ideal = corpus.total_tokens() as f64 / n_hosts as f64;
            for h in 0..n_hosts {
                let t = corpus.partition(h, n_hosts).total_tokens() as f64;
                prop_assert!((t - ideal).abs() <= sent_len as f64 + 1.0,
                    "host {} got {} vs ideal {}", h, t, ideal);
            }
        }
    }
}
