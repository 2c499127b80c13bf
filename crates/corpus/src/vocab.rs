//! Vocabulary construction.
//!
//! A [`Vocabulary`] assigns each unique word a dense `u32` id. Ids are
//! assigned in *descending frequency order* (id 0 = most frequent), the
//! same convention as the Word2Vec C implementation — the unigram table
//! and subsampling both exploit it. Construction streams over tokens and
//! never needs the corpus in memory (paper §4.1: "Stream C from disk to
//! build vocabulary V").
//!
//! In the graph formulation (paper §2.1/§4.2), vocabulary entries are the
//! *nodes* of the training graph; the id assigned here is the node id used
//! by the partitioner and the communication substrate.

use crate::word_table::WordTable;

/// One vocabulary entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VocabWord {
    /// The surface form.
    pub word: String,
    /// Number of occurrences in the training corpus.
    pub count: u64,
}

/// An immutable vocabulary: words sorted by descending frequency with a
/// reverse index.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    words: Vec<VocabWord>,
    index: WordTable,
    total_words: u64,
}

impl Vocabulary {
    /// Builds a vocabulary from `(word, count)` pairs, dropping words with
    /// fewer than `min_count` occurrences, sorting by descending count
    /// (ties broken lexicographically so construction is deterministic).
    pub fn from_counts<I>(counts: I, min_count: u64) -> Self
    where
        I: IntoIterator<Item = (String, u64)>,
    {
        let mut words: Vec<VocabWord> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_count)
            .map(|(word, count)| VocabWord { word, count })
            .collect();
        words.sort_unstable_by(|a, b| b.count.cmp(&a.count).then_with(|| a.word.cmp(&b.word)));
        // A word listed twice keeps its last id, as a map collected from
        // the list would.
        let mut index = WordTable::with_capacity(words.len());
        for (i, w) in words.iter().enumerate() {
            index.insert(w.word.as_bytes(), i as u32);
        }
        let total_words = words.iter().map(|w| w.count).sum();
        Self {
            words,
            index,
            total_words,
        }
    }

    /// Number of unique words (graph nodes).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total token occurrences summed over retained words.
    pub fn total_words(&self) -> u64 {
        self.total_words
    }

    /// Id of `word`, if present.
    pub fn id_of(&self, word: &str) -> Option<u32> {
        self.index.get(word.as_bytes())
    }

    /// Surface form of id `id`.
    pub fn word_of(&self, id: u32) -> &str {
        &self.words[id as usize].word
    }

    /// Occurrence count of id `id`.
    pub(crate) fn count_of(&self, id: u32) -> u64 {
        self.words[id as usize].count
    }

    /// All entries in id order.
    pub fn entries(&self) -> &[VocabWord] {
        &self.words
    }

    /// Maps a token sentence to ids, silently dropping out-of-vocabulary
    /// words (the behaviour of the C implementation).
    #[cfg(test)]
    pub(crate) fn encode_sentence<S: AsRef<str>>(&self, sentence: &[S]) -> Vec<u32> {
        sentence
            .iter()
            .filter_map(|w| self.id_of(w.as_ref()))
            .collect()
    }
}

/// Streaming vocabulary builder: feed tokens, then
/// [`VocabBuilder::build`].
///
/// Each distinct word is interned once into a word table whose value is
/// its slot in `counts`; a token seen before costs one lookup and one
/// add, with no allocation.
#[derive(Default, Debug)]
pub struct VocabBuilder {
    table: WordTable,
    counts: Vec<u64>,
}

impl VocabBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one token occurrence.
    #[inline]
    pub fn add_token(&mut self, token: &str) {
        let next = u32::try_from(self.counts.len()).expect("fewer than 2^32 distinct words");
        let slot = self.table.get_or_insert(token.as_bytes(), next);
        if slot == next {
            self.counts.push(1);
        } else {
            self.counts[slot as usize] += 1;
        }
    }

    /// Counts every token in a sentence.
    pub fn add_sentence<S: AsRef<str>>(&mut self, sentence: &[S]) {
        for t in sentence {
            self.add_token(t.as_ref());
        }
    }

    /// Number of distinct words seen so far.
    #[cfg(test)]
    pub(crate) fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Finalizes into a [`Vocabulary`].
    pub fn build(self, min_count: u64) -> Vocabulary {
        let mut counts = Vec::with_capacity(self.counts.len());
        self.table.for_each(|word, slot| {
            let word = std::str::from_utf8(word).expect("words are interned from &str");
            counts.push((word.to_owned(), self.counts[slot as usize]));
        });
        Vocabulary::from_counts(counts, min_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn vocab_from_text(text: &str, min_count: u64) -> Vocabulary {
        let mut b = VocabBuilder::new();
        for tok in text.split_whitespace() {
            b.add_token(tok);
        }
        b.build(min_count)
    }

    #[test]
    fn builds_sorted_by_frequency() {
        let v = vocab_from_text("the quick the brown the fox quick", 1);
        assert_eq!(v.len(), 4);
        assert_eq!(v.word_of(0), "the");
        assert_eq!(v.count_of(0), 3);
        assert_eq!(v.word_of(1), "quick");
        assert_eq!(v.count_of(1), 2);
        assert_eq!(v.total_words(), 7);
    }

    #[test]
    fn tie_break_is_lexicographic() {
        let v = vocab_from_text("b a c", 1);
        assert_eq!(v.word_of(0), "a");
        assert_eq!(v.word_of(1), "b");
        assert_eq!(v.word_of(2), "c");
    }

    #[test]
    fn min_count_filters() {
        let v = vocab_from_text("a a a b b c", 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.id_of("c"), None);
        assert_eq!(v.total_words(), 5, "filtered words excluded from total");
    }

    #[test]
    fn id_roundtrip() {
        let v = vocab_from_text("x y z y z z", 1);
        for id in 0..v.len() as u32 {
            assert_eq!(v.id_of(v.word_of(id)), Some(id));
        }
        assert_eq!(v.id_of("missing"), None);
    }

    #[test]
    fn encode_sentence_drops_oov() {
        let v = vocab_from_text("a b c", 1);
        let ids = v.encode_sentence(&["a", "unknown", "c"]);
        assert_eq!(ids.len(), 2);
        assert_eq!(v.word_of(ids[0]), "a");
        assert_eq!(v.word_of(ids[1]), "c");
    }

    /// The counting and the index as they were before the word table:
    /// a `HashMap<String, _>` under SipHash, one owned key per distinct
    /// word, and the index collected from the sorted entries.
    fn oracle(tokens: &[&str], min_count: u64) -> (Vec<VocabWord>, HashMap<String, u32>) {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for &t in tokens {
            *counts.entry(t.to_owned()).or_default() += 1;
        }
        let mut words: Vec<VocabWord> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_count)
            .map(|(word, count)| VocabWord { word, count })
            .collect();
        words.sort_unstable_by(|a, b| b.count.cmp(&a.count).then_with(|| a.word.cmp(&b.word)));
        let index = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.word.clone(), i as u32))
            .collect();
        (words, index)
    }

    /// Words around the inline bound and the ways two keys can nearly
    /// agree: every length 0–100, words sharing a 32-byte prefix, words
    /// that differ only in length (trailing NULs look like the inline
    /// padding), non-ASCII words, and 100 000 distinct short words.
    fn hard_words() -> Vec<String> {
        let mut words = Vec::new();
        for len in 0..=100usize {
            words.push("x".repeat(len));
            words.push(
                (0..len)
                    .map(|i| (b'a' + (i * 7 % 26) as u8) as char)
                    .collect(),
            );
            words.push(format!("{}\0", "y".repeat(len)));
            words.push(format!("{}\0\0", "y".repeat(len)));
        }
        let prefix = "p".repeat(32);
        for i in 0..300 {
            words.push(format!("{prefix}{i}"));
        }
        for w in [
            "ünï",
            "Ünï",
            "a\u{a0}b",
            "x\u{3000}y",
            "日本語の単語",
            "𝄞𝄞𝄞𝄞𝄞𝄞𝄞",
        ] {
            words.push(w.to_owned());
            words.push(w.repeat(5));
        }
        for i in 0..100_000 {
            words.push(format!("w{i}"));
        }
        words
    }

    #[test]
    fn the_word_table_counts_and_looks_up_like_the_hash_map_it_replaced() {
        let words = hard_words();
        // Each word occurs 1 to 4 times, interleaved, so the counts give
        // ids with ties broken by the words.
        let mut tokens: Vec<&str> = Vec::new();
        for round in 0..4 {
            for (i, w) in words.iter().enumerate() {
                if i % 4 >= round {
                    tokens.push(w);
                }
            }
        }
        let unknown: Vec<String> = (0..=60usize)
            .map(|len| "z".repeat(len))
            .chain((0..1000).map(|i| format!("w{i}_")))
            .chain((100_000..101_000).map(|i| format!("w{i}")))
            .chain([format!("{}x", "p".repeat(32)), "y\0\0\0".to_owned()])
            .collect();
        for min_count in [1, 3] {
            let mut b = VocabBuilder::new();
            b.add_sentence(&tokens);
            let vocab = b.build(min_count);
            let (want, index) = oracle(&tokens, min_count);
            assert_eq!(vocab.entries(), want.as_slice(), "min_count {min_count}");
            assert_eq!(
                vocab.total_words(),
                want.iter().map(|w| w.count).sum::<u64>()
            );
            for w in words.iter().chain(&unknown) {
                assert_eq!(vocab.id_of(w), index.get(w).copied(), "{w:?}");
            }
        }
    }

    #[test]
    fn a_word_listed_twice_keeps_its_last_id_as_a_collected_map_would() {
        let counts = [
            ("b", 5),
            ("a", 9),
            ("b", 7),
            ("long_".repeat(9).as_str(), 1),
        ]
        .map(|(w, c)| (w.to_owned(), c));
        let vocab = Vocabulary::from_counts(counts.clone(), 1);
        let index: HashMap<String, u32> = vocab
            .entries()
            .iter()
            .enumerate()
            .map(|(i, w)| (w.word.clone(), i as u32))
            .collect();
        for (w, _) in &counts {
            assert_eq!(vocab.id_of(w), index.get(w).copied(), "{w:?}");
        }
        assert_eq!(vocab.id_of("b"), Some(2));
    }
}
