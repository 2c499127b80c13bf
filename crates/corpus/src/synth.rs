//! Synthetic corpus generation with planted analogy relations.
//!
//! The paper trains on the 1-billion, news and wiki corpora and evaluates
//! with the `question-words.txt` analogical-reasoning suite (14 categories,
//! 5 semantic + 9 syntactic). Neither the corpora nor the question file is
//! available here, so this module generates both *jointly* from a
//! generative model whose geometry is exactly what the analogy task
//! measures:
//!
//! * **Background text** is drawn from a Zipf–Mandelbrot distribution —
//!   the long-tailed frequency profile subsampling and negative sampling
//!   are designed around.
//! * **Relation categories** plant word pairs `(aᵢ, bᵢ)`. Every pair `i`
//!   owns a set of *topic words* `Tᵢ` shared between its two sides, and
//!   the category owns two disjoint *marker sets* `Mᴬ`, `Mᴮ`. Sentences
//!   mentioning `aᵢ` mix `Tᵢ` with `Mᴬ`; sentences mentioning `bᵢ` mix
//!   `Tᵢ` with `Mᴮ`. Under SGNS this drives `v(aᵢ) ≈ f(Tᵢ) + g(Mᴬ)` and
//!   `v(bᵢ) ≈ f(Tᵢ) + g(Mᴮ)`, so `v(bᵢ) − v(aᵢ)` converges to a common
//!   per-category offset — precisely the linear structure 3CosAdd
//!   analogy evaluation (`a : b :: c : ?`) exploits.
//! * **Semantic vs. syntactic.** Semantic categories get low in-sentence
//!   noise, syntactic categories high noise and fewer topic words, which
//!   reproduces the paper's persistent semantic > syntactic accuracy gap
//!   (Table 3).
//!
//! Generation is fully deterministic given [`SynthSpec::seed`].

use crate::zipf::ZipfSampler;
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Whether a relation category models a semantic or a syntactic analogy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CategoryKind {
    /// Semantic relations (capital-country, family, currency, ...).
    Semantic,
    /// Syntactic relations (comparative, plural, verb forms, ...).
    Syntactic,
}

/// Parameters of one planted relation category.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CategorySpec {
    /// Category name, e.g. `"capital-common"` — used in accuracy reports.
    pub name: String,
    /// Semantic or syntactic.
    pub kind: CategoryKind,
    /// Number of planted `(a, b)` pairs.
    pub n_pairs: usize,
    /// Marker words per side (shared across the category's pairs).
    pub n_markers: usize,
    /// Topic words per pair (shared between the pair's two sides).
    pub n_topics: usize,
    /// Fraction of background-noise tokens in this category's sentences.
    pub noise: f64,
}

impl CategorySpec {
    /// Unique words this category contributes to the vocabulary.
    pub(crate) fn vocab_words(&self) -> usize {
        2 * self.n_pairs + 2 * self.n_markers + self.n_pairs * self.n_topics
    }
}

/// Full corpus-generator specification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Number of distinct background (Zipfian) words.
    pub background_vocab: usize,
    /// Zipf exponent for background words (≈1.07 for English).
    pub zipf_exponent: f64,
    /// Zipf–Mandelbrot shift.
    pub zipf_shift: f64,
    /// Relation categories to plant.
    pub categories: Vec<CategorySpec>,
    /// Probability that a sentence is a relation sentence.
    pub p_relation: f64,
    /// Inclusive sentence-length range in tokens.
    pub sentence_len: (usize, usize),
    /// Master seed; everything derives from it.
    pub seed: u64,
}

impl SynthSpec {
    /// The default 14 categories: 5 semantic + 9 syntactic, mirroring the
    /// structure of `question-words.txt`.
    pub(crate) fn default_categories(n_pairs: usize) -> Vec<CategorySpec> {
        let semantic = [
            "capital-common",
            "capital-world",
            "currency",
            "city-in-state",
            "family",
        ];
        let syntactic = [
            "gram1-adjective-adverb",
            "gram2-opposite",
            "gram3-comparative",
            "gram4-superlative",
            "gram5-present-participle",
            "gram6-nationality-adjective",
            "gram7-past-tense",
            "gram8-plural",
            "gram9-plural-verbs",
        ];
        let mut cats = Vec::new();
        for name in semantic {
            cats.push(CategorySpec {
                name: name.to_owned(),
                kind: CategoryKind::Semantic,
                n_pairs,
                n_markers: 6,
                n_topics: 3,
                noise: 0.25,
            });
        }
        for name in syntactic {
            cats.push(CategorySpec {
                name: name.to_owned(),
                kind: CategoryKind::Syntactic,
                n_pairs,
                n_markers: 4,
                n_topics: 2,
                noise: 0.45,
            });
        }
        cats
    }

    /// A small spec for unit tests.
    #[cfg(test)]
    pub(crate) fn small(seed: u64) -> Self {
        Self {
            background_vocab: 800,
            zipf_exponent: 1.07,
            zipf_shift: 2.7,
            categories: Self::default_categories(8),
            p_relation: 0.5,
            sentence_len: (10, 20),
            seed,
        }
    }

    /// Total unique words the generator can emit (before `min_count`
    /// filtering, which may drop rare background ranks).
    #[cfg(test)]
    pub(crate) fn vocab_upper_bound(&self) -> usize {
        self.background_vocab
            + self
                .categories
                .iter()
                .map(|c| c.vocab_words())
                .sum::<usize>()
    }
}

/// One analogy question `a : b :: c : expected`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalogyQuestion {
    /// First word of the exemplar pair.
    pub a: String,
    /// Second word of the exemplar pair.
    pub b: String,
    /// First word of the query pair.
    pub c: String,
    /// The expected completion.
    pub expected: String,
}

/// Questions of one category.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnalogyCategory {
    /// Category name (matches the generating [`CategorySpec`]).
    pub name: String,
    /// Semantic or syntactic.
    pub kind: CategoryKind,
    /// The questions.
    pub questions: Vec<AnalogyQuestion>,
}

/// The full question suite co-generated with a corpus.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AnalogySet {
    /// All categories.
    pub categories: Vec<AnalogyCategory>,
}

impl AnalogySet {
    /// Total questions over all categories.
    pub fn total_questions(&self) -> usize {
        self.categories.iter().map(|c| c.questions.len()).sum()
    }
}

/// A generated corpus: plain text plus its analogy suite.
#[derive(Clone, Debug)]
pub struct SynthCorpus {
    /// Whitespace-separated text, one generated sentence per line.
    pub text: String,
    /// The co-generated analogy questions.
    pub analogies: AnalogySet,
    /// Number of tokens in `text`.
    pub n_tokens: usize,
    /// The spec the corpus was generated from.
    pub spec: SynthSpec,
}

/// Internal: materialized word lists for one category.
struct CategoryWords {
    a_words: Vec<String>,
    b_words: Vec<String>,
    a_markers: Vec<String>,
    b_markers: Vec<String>,
    /// `topics[pair][j]`
    topics: Vec<Vec<String>>,
}

fn build_category_words(idx: usize, spec: &CategorySpec) -> CategoryWords {
    let name = &spec.name;
    let a_words = (0..spec.n_pairs).map(|i| format!("{name}_a{i}")).collect();
    let b_words = (0..spec.n_pairs).map(|i| format!("{name}_b{i}")).collect();
    let a_markers = (0..spec.n_markers)
        .map(|j| format!("mk{idx}_a{j}"))
        .collect();
    let b_markers = (0..spec.n_markers)
        .map(|j| format!("mk{idx}_b{j}"))
        .collect();
    let topics = (0..spec.n_pairs)
        .map(|i| {
            (0..spec.n_topics)
                .map(|j| format!("tp{idx}_{i}_{j}"))
                .collect()
        })
        .collect();
    CategoryWords {
        a_words,
        b_words,
        a_markers,
        b_markers,
        topics,
    }
}

impl SynthCorpus {
    /// Generates a corpus of at least `target_tokens` tokens (generation
    /// stops at the first sentence boundary at or past the target) plus
    /// `questions_per_category` analogy questions per category.
    pub fn generate(spec: &SynthSpec, target_tokens: usize, questions_per_category: usize) -> Self {
        assert!(
            spec.sentence_len.0 >= 4,
            "sentences must fit a pair word plus context"
        );
        assert!(spec.sentence_len.0 <= spec.sentence_len.1);
        assert!((0.0..=1.0).contains(&spec.p_relation));

        let root = SplitMix64::new(spec.seed);
        let mut rng = Xoshiro256::new(root.derive(0));
        let zipf = ZipfSampler::new(spec.background_vocab, spec.zipf_exponent, spec.zipf_shift);
        let cat_words: Vec<CategoryWords> = spec
            .categories
            .iter()
            .enumerate()
            .map(|(i, c)| build_category_words(i, c))
            .collect();

        // Rough pre-allocation: ~8 bytes per token.
        let mut text = String::with_capacity(target_tokens * 8);
        let mut n_tokens = 0usize;
        let mut bg_word_buf = String::new();

        while n_tokens < target_tokens {
            let len =
                spec.sentence_len.0 + rng.index(spec.sentence_len.1 - spec.sentence_len.0 + 1);
            let is_relation = !spec.categories.is_empty() && rng.chance(spec.p_relation);
            if is_relation {
                let ci = rng.index(spec.categories.len());
                let cat = &spec.categories[ci];
                let words = &cat_words[ci];
                let pair = rng.index(cat.n_pairs);
                let side_a = rng.chance(0.5);
                let pair_pos = rng.index(len);
                for pos in 0..len {
                    if pos > 0 {
                        text.push(' ');
                    }
                    if pos == pair_pos {
                        let w = if side_a {
                            &words.a_words[pair]
                        } else {
                            &words.b_words[pair]
                        };
                        text.push_str(w);
                    } else if rng.chance(cat.noise) {
                        push_bg_word(&mut text, &mut bg_word_buf, zipf.sample(&mut rng));
                    } else if rng.chance(0.5) && cat.n_topics > 0 {
                        let t = &words.topics[pair][rng.index(cat.n_topics)];
                        text.push_str(t);
                    } else {
                        let markers = if side_a {
                            &words.a_markers
                        } else {
                            &words.b_markers
                        };
                        text.push_str(&markers[rng.index(markers.len())]);
                    }
                }
            } else {
                for pos in 0..len {
                    if pos > 0 {
                        text.push(' ');
                    }
                    push_bg_word(&mut text, &mut bg_word_buf, zipf.sample(&mut rng));
                }
            }
            text.push('\n');
            n_tokens += len;
        }

        // Questions: distinct ordered pairs (i, j), i != j, per category.
        let mut qrng = Xoshiro256::new(root.derive(1));
        let mut categories = Vec::with_capacity(spec.categories.len());
        for (ci, cat) in spec.categories.iter().enumerate() {
            let words = &cat_words[ci];
            let mut questions = Vec::with_capacity(questions_per_category);
            let max_distinct = cat.n_pairs * (cat.n_pairs.saturating_sub(1));
            let want = questions_per_category.min(max_distinct);
            let mut seen = std::collections::HashSet::new();
            while questions.len() < want {
                let i = qrng.index(cat.n_pairs);
                let j = qrng.index(cat.n_pairs);
                if i == j || !seen.insert((i, j)) {
                    continue;
                }
                questions.push(AnalogyQuestion {
                    a: words.a_words[i].clone(),
                    b: words.b_words[i].clone(),
                    c: words.a_words[j].clone(),
                    expected: words.b_words[j].clone(),
                });
            }
            categories.push(AnalogyCategory {
                name: cat.name.clone(),
                kind: cat.kind,
                questions,
            });
        }

        Self {
            text,
            analogies: AnalogySet { categories },
            n_tokens,
            spec: spec.clone(),
        }
    }

    /// Corpus size in bytes (what Table 1 reports as "Size").
    pub fn size_bytes(&self) -> usize {
        self.text.len()
    }
}

fn push_bg_word(text: &mut String, buf: &mut String, rank: usize) {
    buf.clear();
    let _ = write!(buf, "bg{rank}");
    text.push_str(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{sentences_from_text, TokenizerConfig};
    use crate::vocab::VocabBuilder;

    fn tiny_spec(seed: u64) -> SynthSpec {
        SynthSpec {
            background_vocab: 50,
            zipf_exponent: 1.0,
            zipf_shift: 0.0,
            categories: SynthSpec::default_categories(4),
            p_relation: 0.5,
            sentence_len: (8, 12),
            seed,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let spec = tiny_spec(42);
        let a = SynthCorpus::generate(&spec, 5_000, 10);
        let b = SynthCorpus::generate(&spec, 5_000, 10);
        assert_eq!(a.text, b.text);
        assert_eq!(a.analogies.total_questions(), b.analogies.total_questions());
        for (ca, cb) in a.analogies.categories.iter().zip(&b.analogies.categories) {
            assert_eq!(ca.questions, cb.questions);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthCorpus::generate(&tiny_spec(1), 2_000, 5);
        let b = SynthCorpus::generate(&tiny_spec(2), 2_000, 5);
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn token_count_reaches_target() {
        let c = SynthCorpus::generate(&tiny_spec(3), 10_000, 5);
        assert!(c.n_tokens >= 10_000);
        assert!(
            c.n_tokens < 10_000 + 13,
            "overshoot bounded by one sentence"
        );
        let counted = c.text.split_whitespace().count();
        assert_eq!(counted, c.n_tokens);
    }

    #[test]
    fn fourteen_categories_by_default() {
        let cats = SynthSpec::default_categories(8);
        assert_eq!(cats.len(), 14);
        let sem = cats
            .iter()
            .filter(|c| c.kind == CategoryKind::Semantic)
            .count();
        let syn = cats
            .iter()
            .filter(|c| c.kind == CategoryKind::Syntactic)
            .count();
        assert_eq!(sem, 5);
        assert_eq!(syn, 9);
    }

    #[test]
    fn questions_are_well_formed() {
        let c = SynthCorpus::generate(&tiny_spec(9), 2_000, 6);
        assert_eq!(c.analogies.categories.len(), 14);
        for cat in &c.analogies.categories {
            assert_eq!(cat.questions.len(), 6);
            for q in &cat.questions {
                assert_ne!(q.a, q.c, "exemplar and query pairs must differ");
                // a/b and c/expected share the pair index inside the name.
                assert_eq!(q.a.replace("_a", "_b"), q.b);
                assert_eq!(q.c.replace("_a", "_b"), q.expected);
            }
        }
    }

    #[test]
    fn question_count_capped_by_distinct_pairs() {
        let mut spec = tiny_spec(5);
        for cat in &mut spec.categories {
            cat.n_pairs = 3; // only 3*2 = 6 ordered pairs
        }
        let c = SynthCorpus::generate(&spec, 1_000, 100);
        for cat in &c.analogies.categories {
            assert_eq!(cat.questions.len(), 6);
        }
    }

    #[test]
    fn pair_words_occur_in_corpus() {
        let spec = tiny_spec(7);
        let c = SynthCorpus::generate(&spec, 60_000, 5);
        let sents = sentences_from_text(&c.text, TokenizerConfig::default());
        let mut b = VocabBuilder::new();
        for s in &sents {
            b.add_sentence(s);
        }
        let vocab = b.build(1);
        // Every planted pair word should appear at least a few times in a
        // 60 K-token corpus with p_relation = 0.5 and 4 pairs per category.
        let mut missing = 0;
        for cat in &c.analogies.categories {
            for q in &cat.questions {
                for w in [&q.a, &q.b, &q.c, &q.expected] {
                    if vocab.id_of(w).is_none() {
                        missing += 1;
                    }
                }
            }
        }
        assert_eq!(missing, 0, "all question words present in vocabulary");
    }

    #[test]
    fn vocab_upper_bound_holds() {
        let spec = tiny_spec(8);
        let c = SynthCorpus::generate(&spec, 40_000, 5);
        let sents = sentences_from_text(&c.text, TokenizerConfig::default());
        let mut b = VocabBuilder::new();
        for s in &sents {
            b.add_sentence(s);
        }
        assert!(b.distinct() <= spec.vocab_upper_bound());
    }

    #[test]
    fn background_follows_zipf_shape() {
        let mut spec = tiny_spec(11);
        spec.p_relation = 0.0; // background only
        let c = SynthCorpus::generate(&spec, 100_000, 0);
        let sents = sentences_from_text(&c.text, TokenizerConfig::default());
        let mut b = VocabBuilder::new();
        for s in &sents {
            b.add_sentence(s);
        }
        let vocab = b.build(1);
        // Most frequent background word is rank 0.
        assert_eq!(vocab.word_of(0), "bg0");
        // Frequency should drop by roughly 2x from rank 0 to rank 1 (s=1, q=0).
        let c0 = vocab.count_of(0) as f64;
        let c1 = vocab.count_of(vocab.id_of("bg1").unwrap()) as f64;
        let ratio = c0 / c1;
        assert!((1.6..2.6).contains(&ratio), "ratio {ratio}");
    }
}
