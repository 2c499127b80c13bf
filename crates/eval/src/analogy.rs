//! Analogical-reasoning evaluation (3CosAdd).
//!
//! For each question `a : b :: c : ?` the predicted word is
//! `argmax_x cos(v(x), v(b) − v(a) + v(c))` over the vocabulary,
//! excluding the three question words — the method and exclusion rule of
//! the original `compute-accuracy` tool. Questions with any
//! out-of-vocabulary word are skipped (counted separately), again
//! matching the original script.

use crate::knn::EmbeddingIndex;
use gw2v_core::model::Word2VecModel;
use gw2v_corpus::synth::{AnalogySet, CategoryKind};
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec;
use serde::{Deserialize, Serialize};

/// Result for one question category.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CategoryOutcome {
    /// Category name.
    pub name: String,
    /// Semantic or syntactic.
    pub kind: CategoryKind,
    /// Correctly answered questions.
    pub correct: usize,
    /// Questions attempted (in-vocabulary).
    pub attempted: usize,
    /// Questions skipped for OOV words.
    pub skipped: usize,
}

impl CategoryOutcome {
    /// Accuracy in percent (0 when nothing was attempted).
    pub fn accuracy(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.correct as f64 / self.attempted as f64
        }
    }
}

/// The full accuracy report the paper's Table 3 and Figures 6–7 plot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Per-category outcomes, in question-set order.
    pub categories: Vec<CategoryOutcome>,
}

impl AccuracyReport {
    fn acc_over(&self, filter: impl Fn(&CategoryOutcome) -> bool) -> f64 {
        let (correct, attempted) = self
            .categories
            .iter()
            .filter(|c| filter(c))
            .fold((0usize, 0usize), |(c, a), o| {
                (c + o.correct, a + o.attempted)
            });
        if attempted == 0 {
            0.0
        } else {
            100.0 * correct as f64 / attempted as f64
        }
    }

    /// Semantic accuracy (%), micro-averaged over semantic questions.
    pub fn semantic(&self) -> f64 {
        self.acc_over(|c| c.kind == CategoryKind::Semantic)
    }

    /// Syntactic accuracy (%).
    pub fn syntactic(&self) -> f64 {
        self.acc_over(|c| c.kind == CategoryKind::Syntactic)
    }

    /// Total accuracy (%) over all questions.
    pub fn total(&self) -> f64 {
        self.acc_over(|_| true)
    }

    /// Total questions skipped for OOV words.
    pub fn skipped(&self) -> usize {
        self.categories.iter().map(|c| c.skipped).sum()
    }
}

/// Which analogy-resolution objective to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalogyMethod {
    /// `argmax cos(x, b − a + c)` — the original Word2Vec objective.
    CosAdd,
    /// `argmax cos(x,b)·cos(x,c) / (cos(x,a) + ε)` — Levy & Goldberg
    /// (2014) 3CosMul, usually a point or two stronger.
    CosMul,
}

/// Evaluates a model against an analogy suite with 3CosAdd (the paper's
/// methodology).
pub fn evaluate(model: &Word2VecModel, vocab: &Vocabulary, set: &AnalogySet) -> AccuracyReport {
    evaluate_with(model, vocab, set, AnalogyMethod::CosAdd)
}

/// Evaluates with an explicit resolution method.
pub fn evaluate_with(
    model: &Word2VecModel,
    vocab: &Vocabulary,
    set: &AnalogySet,
    method: AnalogyMethod,
) -> AccuracyReport {
    let index = EmbeddingIndex::new(model);
    let dim = model.dim();
    let mut categories = Vec::with_capacity(set.categories.len());
    let mut query = vec![0.0f32; dim];
    for cat in &set.categories {
        let mut outcome = CategoryOutcome {
            name: cat.name.clone(),
            kind: cat.kind,
            correct: 0,
            attempted: 0,
            skipped: 0,
        };
        for q in &cat.questions {
            let ids = [
                vocab.id_of(&q.a),
                vocab.id_of(&q.b),
                vocab.id_of(&q.c),
                vocab.id_of(&q.expected),
            ];
            let [Some(a), Some(b), Some(c), Some(expected)] = ids else {
                outcome.skipped += 1;
                continue;
            };
            outcome.attempted += 1;
            let best = match method {
                AnalogyMethod::CosAdd => {
                    // 3CosAdd on unit vectors: v(b) − v(a) + v(c).
                    let (va, vb, vc) = (index.vector(a), index.vector(b), index.vector(c));
                    for i in 0..dim {
                        query[i] = vb[i] - va[i] + vc[i];
                    }
                    index.best(&query, &[a, b, c]).map(|(w, _)| w)
                }
                AnalogyMethod::CosMul => cosmul_best(&index, a, b, c),
            };
            if best == Some(expected) {
                outcome.correct += 1;
            }
        }
        categories.push(outcome);
    }
    AccuracyReport { categories }
}

/// 3CosMul resolution: cosines are shifted into `[0, 1]` as in Levy &
/// Goldberg before multiplying.
fn cosmul_best(index: &EmbeddingIndex, a: u32, b: u32, c: u32) -> Option<u32> {
    const EPS: f32 = 1e-3;
    let (va, vb, vc) = (index.vector(a), index.vector(b), index.vector(c));
    let mut best: Option<(u32, f32)> = None;
    for x in 0..index.len() as u32 {
        if x == a || x == b || x == c {
            continue;
        }
        let vx = index.vector(x);
        let shift = |cos: f32| (cos + 1.0) / 2.0;
        let score =
            shift(fvec::dot(vx, vb)) * shift(fvec::dot(vx, vc)) / (shift(fvec::dot(vx, va)) + EPS);
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((x, score));
        }
    }
    best.map(|(w, _)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_corpus::synth::{AnalogyCategory, AnalogyQuestion};
    use gw2v_corpus::vocab::VocabBuilder;
    use gw2v_util::fvec::FlatMatrix;

    /// Builds a vocabulary and a model where the analogy structure is
    /// planted *exactly*: v(b_i) = v(a_i) + offset.
    fn planted() -> (Vocabulary, Word2VecModel, AnalogySet) {
        let words = ["a0", "a1", "a2", "b0", "b1", "b2", "noise0", "noise1"];
        let mut builder = VocabBuilder::new();
        // Give descending counts so ids follow this order.
        for (i, w) in words.iter().enumerate() {
            for _ in 0..(100 - i) {
                builder.add_token(w);
            }
        }
        let vocab = builder.build(1);
        let dim = 4;
        let mut syn0 = FlatMatrix::zeros(vocab.len(), dim);
        let base = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ];
        let offset = [0.0, 0.0, 0.0, 2.0];
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            let a = vocab.id_of(&format!("a{i}")).unwrap();
            let b = vocab.id_of(&format!("b{i}")).unwrap();
            syn0.row_mut(a as usize).copy_from_slice(&base[i]);
            let mut bv = base[i];
            for (x, o) in bv.iter_mut().zip(&offset) {
                *x += o;
            }
            syn0.row_mut(b as usize).copy_from_slice(&bv);
        }
        syn0.row_mut(vocab.id_of("noise0").unwrap() as usize)
            .copy_from_slice(&[-1.0, -1.0, 0.5, -2.0]);
        syn0.row_mut(vocab.id_of("noise1").unwrap() as usize)
            .copy_from_slice(&[0.3, -0.7, -0.2, -1.0]);
        let model = Word2VecModel::from_layers(syn0, FlatMatrix::zeros(vocab.len(), dim));
        let q = |a: &str, b: &str, c: &str, e: &str| AnalogyQuestion {
            a: a.into(),
            b: b.into(),
            c: c.into(),
            expected: e.into(),
        };
        let set = AnalogySet {
            categories: vec![
                AnalogyCategory {
                    name: "planted".into(),
                    kind: CategoryKind::Semantic,
                    questions: vec![
                        q("a0", "b0", "a1", "b1"),
                        q("a0", "b0", "a2", "b2"),
                        q("a1", "b1", "a0", "b0"),
                    ],
                },
                AnalogyCategory {
                    name: "with-oov".into(),
                    kind: CategoryKind::Syntactic,
                    questions: vec![q("a0", "b0", "MISSING", "b1"), q("a2", "b2", "a1", "b1")],
                },
            ],
        };
        (vocab, model, set)
    }

    #[test]
    fn perfect_geometry_scores_100() {
        let (vocab, model, set) = planted();
        let report = evaluate(&model, &vocab, &set);
        assert_eq!(report.categories[0].correct, 3);
        assert_eq!(report.categories[0].attempted, 3);
        assert!((report.categories[0].accuracy() - 100.0).abs() < 1e-9);
        assert!(report.semantic() > 99.0);
    }

    #[test]
    fn oov_questions_skipped() {
        let (vocab, model, set) = planted();
        let report = evaluate(&model, &vocab, &set);
        assert_eq!(report.categories[1].skipped, 1);
        assert_eq!(report.categories[1].attempted, 1);
        assert_eq!(report.skipped(), 1);
    }

    #[test]
    fn random_model_scores_low() {
        let (vocab, _, set) = planted();
        let random = Word2VecModel::init(vocab.len(), 4, 99);
        let report = evaluate(&random, &vocab, &set);
        // 8-word vocab, so chance is high-ish, but must not be 100%.
        assert!(report.total() < 100.0);
    }

    #[test]
    fn totals_weight_by_question_count() {
        let (vocab, model, set) = planted();
        let report = evaluate(&model, &vocab, &set);
        // semantic: 3/3; syntactic: 1 attempted (correct: b2-a2+a1 -> b1 is
        // exact geometry, so correct).
        assert_eq!(report.categories[1].correct, 1);
        let expected_total = 100.0 * 4.0 / 4.0;
        assert!((report.total() - expected_total).abs() < 1e-9);
    }

    #[test]
    fn cosmul_matches_cosadd_on_planted_geometry() {
        let (vocab, model, set) = planted();
        let add = evaluate_with(&model, &vocab, &set, AnalogyMethod::CosAdd);
        let mul = evaluate_with(&model, &vocab, &set, AnalogyMethod::CosMul);
        assert_eq!(add.categories[0].attempted, mul.categories[0].attempted);
        // Exact planted geometry: both methods solve everything.
        assert!((mul.categories[0].accuracy() - 100.0).abs() < 1e-9);
        assert_eq!(add.skipped(), mul.skipped());
    }
}
