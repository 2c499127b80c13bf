//! Phrase detection (`word2phrase`).
//!
//! Mikolov et al. (2013) §4 ship a preprocessing pass that joins
//! frequently co-occurring word pairs into single tokens ("new york" →
//! "new_york") before training, scoring each bigram as
//!
//! ```text
//! score(a, b) = (count(ab) − δ) / (count(a) · count(b)) · total
//! ```
//!
//! and joining pairs whose score exceeds a threshold. This module
//! implements that pass as a corpus→corpus transformation; the original
//! tool is run repeatedly to build longer phrases, which works here too
//! (joined tokens become ordinary words in the next round).

use std::collections::HashMap;

/// Phrase-detection parameters.
#[derive(Clone, Debug)]
pub struct PhraseConfig {
    /// Discount `δ`: bigrams rarer than this can never join (the C
    /// tool's `-min-count`, default 5).
    pub discount: u64,
    /// Minimum score for joining (the C tool's `-threshold`, default 100).
    pub threshold: f64,
    /// Separator placed between joined words.
    pub separator: char,
}

impl Default for PhraseConfig {
    fn default() -> Self {
        Self {
            discount: 5,
            threshold: 100.0,
            separator: '_',
        }
    }
}

/// Bigram statistics gathered in one pass over sentences.
#[derive(Debug, Default)]
pub(crate) struct PhraseModel {
    unigrams: HashMap<String, u64>,
    bigrams: HashMap<(String, String), u64>,
    total: u64,
}

impl PhraseModel {
    /// Counts unigrams and adjacent bigrams over tokenized sentences.
    /// Bigrams never span sentence boundaries.
    pub(crate) fn count<S: AsRef<str>>(sentences: &[Vec<S>]) -> Self {
        let mut model = PhraseModel::default();
        for sentence in sentences {
            for (i, tok) in sentence.iter().enumerate() {
                let w = tok.as_ref();
                *model.unigrams.entry(w.to_owned()).or_insert(0) += 1;
                model.total += 1;
                if i + 1 < sentence.len() {
                    let pair = (w.to_owned(), sentence[i + 1].as_ref().to_owned());
                    *model.bigrams.entry(pair).or_insert(0) += 1;
                }
            }
        }
        model
    }

    /// The score of a bigram under `config` (0 if unseen or below the
    /// discount).
    pub(crate) fn score(&self, a: &str, b: &str, config: &PhraseConfig) -> f64 {
        let ab = match self.bigrams.get(&(a.to_owned(), b.to_owned())) {
            Some(&c) if c > config.discount => c,
            _ => return 0.0,
        };
        let ca = *self.unigrams.get(a).unwrap_or(&0);
        let cb = *self.unigrams.get(b).unwrap_or(&0);
        if ca == 0 || cb == 0 {
            return 0.0;
        }
        (ab - config.discount) as f64 / (ca as f64 * cb as f64) * self.total as f64
    }

    /// Rewrites sentences, greedily joining qualifying bigrams
    /// left-to-right (a joined pair's second word cannot start another
    /// join, matching the C tool's streaming behaviour).
    pub(crate) fn apply<S: AsRef<str>>(
        &self,
        sentences: &[Vec<S>],
        config: &PhraseConfig,
    ) -> Vec<Vec<String>> {
        sentences
            .iter()
            .map(|sentence| {
                let mut out: Vec<String> = Vec::with_capacity(sentence.len());
                let mut i = 0;
                while i < sentence.len() {
                    let a = sentence[i].as_ref();
                    if i + 1 < sentence.len() {
                        let b = sentence[i + 1].as_ref();
                        if self.score(a, b, config) > config.threshold {
                            out.push(format!("{a}{}{b}", config.separator));
                            i += 2;
                            continue;
                        }
                    }
                    out.push(a.to_owned());
                    i += 1;
                }
                out
            })
            .collect()
    }
}

/// One full word2phrase pass: count then apply.
pub fn detect_phrases<S: AsRef<str>>(
    sentences: &[Vec<S>],
    config: &PhraseConfig,
) -> Vec<Vec<String>> {
    PhraseModel::count(sentences).apply(sentences, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sents(text: &str) -> Vec<Vec<String>> {
        text.lines()
            .map(|l| l.split_whitespace().map(str::to_owned).collect())
            .collect()
    }

    fn repeat_line(line: &str, n: usize) -> String {
        std::iter::repeat_n(line, n).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn frequent_bigram_joins() {
        // "new york" always adjacent; "the" everywhere (never joins with
        // its varying successors).
        let text = repeat_line("the new york subway", 50) + "\n" + &repeat_line("the a b", 50);
        let sentences = sents(&text);
        // score(new, york) = (50−2)/(50·50)·350 ≈ 6.7;
        // score(the, new) = (50−2)/(100·50)·350 ≈ 3.4 — threshold between.
        let cfg = PhraseConfig {
            discount: 2,
            threshold: 5.0,
            separator: '_',
        };
        let out = detect_phrases(&sentences, &cfg);
        assert!(out[0].contains(&"new_york".to_owned()), "{:?}", out[0]);
        assert!(out[0].contains(&"the".to_owned()));
    }

    #[test]
    fn rare_bigram_does_not_join() {
        let text = repeat_line("alpha beta", 3)
            + "\n"
            + &repeat_line("alpha gamma", 100)
            + "\n"
            + &repeat_line("delta beta", 100);
        let sentences = sents(&text);
        let cfg = PhraseConfig {
            discount: 5,
            threshold: 10.0,
            separator: '_',
        };
        let out = detect_phrases(&sentences, &cfg);
        // "alpha beta" occurs only 3 times (≤ discount): never joined.
        assert!(out[0].iter().all(|w| !w.contains('_')), "{:?}", out[0]);
    }

    #[test]
    fn greedy_no_overlap() {
        // "a b" qualifies; after joining, "b c" must not also consume b.
        let text = repeat_line("a b c", 100);
        let sentences = sents(&text);
        let cfg = PhraseConfig {
            discount: 1,
            threshold: 0.5,
            separator: '_',
        };
        let out = detect_phrases(&sentences, &cfg);
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[0][0], "a_b");
        assert_eq!(out[0][1], "c");
    }

    #[test]
    fn no_cross_sentence_bigrams() {
        let sentences = sents("x\ny\nx\ny\nx\ny");
        let model = PhraseModel::count(&sentences);
        let cfg = PhraseConfig::default();
        assert_eq!(model.score("x", "y", &cfg), 0.0);
    }

    #[test]
    fn score_formula() {
        let text = repeat_line("p q", 10);
        let sentences = sents(&text);
        let model = PhraseModel::count(&sentences);
        let cfg = PhraseConfig {
            discount: 0,
            threshold: 0.0,
            separator: '_',
        };
        // count(pq)=10, count(p)=count(q)=10, total=20 → 10/(100)·20 = 2.
        let s = model.score("p", "q", &cfg);
        assert!((s - 2.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn iterated_passes_build_trigrams() {
        let text = repeat_line("new york city council", 100);
        let sentences = sents(&text);
        let cfg = PhraseConfig {
            discount: 1,
            threshold: 0.5,
            separator: '_',
        };
        let pass1 = detect_phrases(&sentences, &cfg);
        let pass2 = detect_phrases(&pass1, &cfg);
        assert!(
            pass2[0]
                .iter()
                .any(|w| w == "new_york_city_council" || w == "new_york_city"),
            "{:?}",
            pass2[0]
        );
    }
}
