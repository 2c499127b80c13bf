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

use std::collections::HashMap;

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
    index: HashMap<String, u32>,
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
        let index = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.word.clone(), i as u32))
            .collect();
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
        self.index.get(word).copied()
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
#[derive(Default, Debug)]
pub struct VocabBuilder {
    counts: HashMap<String, u64>,
}

impl VocabBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one token occurrence.
    pub fn add_token(&mut self, token: &str) {
        match self.counts.get_mut(token) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(token.to_owned(), 1);
            }
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
        Vocabulary::from_counts(self.counts, min_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
