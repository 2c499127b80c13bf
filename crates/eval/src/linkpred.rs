//! Link-prediction evaluation for graph embeddings.
//!
//! The standard extrinsic test for walk-based embeddings (DeepWalk,
//! node2vec): hold out a fraction of the graph's edges before walk
//! generation, train on the rest, then ask whether the model scores the
//! held-out (true) edges above sampled non-edges. The metric is the
//! area under the ROC curve — the probability that a uniformly chosen
//! positive pair outscores a uniformly chosen negative pair — computed
//! exactly via tie-averaged ranks:
//!
//! ```text
//! AUC = (R⁺ − m(m+1)/2) / (m·n)
//! ```
//!
//! where `R⁺` is the rank sum of the `m` positives among all `m + n`
//! scores. On an SBM with planted communities, embeddings that recover
//! the blocks separate intra-community holdout edges from random
//! non-edges, so AUC well above 0.5 certifies the whole pipeline
//! (graph → walks → trainer → model).
//!
//! Node pairs are mapped into the model through the shared
//! [`node_word`] spelling; pairs whose
//! nodes never entered the vocabulary (isolated in the train split and
//! dropped by `min_count`) are counted in
//! [`LinkPredReport::skipped`] rather than scored.

use gw2v_core::model::Word2VecModel;
use gw2v_corpus::graphs::node_word;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec;
use serde::{Deserialize, Serialize};

/// How a node pair is scored from the two embedding vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkScore {
    /// Raw inner product of the embedding vectors.
    Dot,
    /// Cosine similarity (normalized inner product).
    Cosine,
}

impl LinkScore {
    /// Parses the CLI spelling (`dot` / `cosine`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dot" => Some(LinkScore::Dot),
            "cosine" => Some(LinkScore::Cosine),
            _ => None,
        }
    }

    fn score(self, a: &[f32], b: &[f32]) -> f64 {
        let s = match self {
            LinkScore::Dot => fvec::dot(a, b),
            LinkScore::Cosine => fvec::cosine(a, b),
        };
        // A diverged model may produce NaN; rank it below every real
        // score instead of poisoning the rank sort.
        if s.is_nan() {
            f64::NEG_INFINITY
        } else {
            s as f64
        }
    }
}

/// Result of a link-prediction evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkPredReport {
    /// Area under the ROC curve (tie-averaged rank formula).
    pub auc: f64,
    /// Positive (held-out edge) pairs scored.
    pub n_pos: usize,
    /// Negative (non-edge) pairs scored.
    pub n_neg: usize,
    /// Mean score over positives.
    pub mean_pos: f64,
    /// Mean score over negatives.
    pub mean_neg: f64,
    /// Pairs skipped because a node was missing from the vocabulary.
    pub skipped: usize,
}

/// Exact AUC from two score samples via tie-averaged ranks. Degenerate
/// inputs (either side empty) return 0.5, the uninformative baseline.
pub(crate) fn auc_from_scores(pos: &[f64], neg: &[f64]) -> f64 {
    let (m, n) = (pos.len(), neg.len());
    if m == 0 || n == 0 {
        return 0.5;
    }
    let mut all = Vec::with_capacity(m + n);
    all.extend_from_slice(pos);
    all.extend_from_slice(neg);
    let r = ranks(&all);
    let rank_sum_pos: f64 = r[..m].iter().sum();
    (rank_sum_pos - (m * (m + 1)) as f64 / 2.0) / (m as f64 * n as f64)
}

/// Scores held-out edges against sampled non-edges and reports AUC.
/// Node `u` is looked up as the vocabulary word [`node_word`]`(u)`;
/// pairs with an unknown node are skipped (see [`LinkPredReport`]).
pub fn evaluate_link_prediction(
    model: &Word2VecModel,
    vocab: &Vocabulary,
    positives: &[(u32, u32)],
    negatives: &[(u32, u32)],
    score: LinkScore,
) -> LinkPredReport {
    let mut skipped = 0usize;
    let mut score_pairs = |pairs: &[(u32, u32)]| -> Vec<f64> {
        pairs
            .iter()
            .filter_map(|&(u, v)| {
                let iu = vocab.id_of(&node_word(u));
                let iv = vocab.id_of(&node_word(v));
                match (iu, iv) {
                    (Some(iu), Some(iv)) => {
                        Some(score.score(model.embedding(iu), model.embedding(iv)))
                    }
                    _ => {
                        skipped += 1;
                        None
                    }
                }
            })
            .collect()
    };
    let pos = score_pairs(positives);
    let neg = score_pairs(negatives);
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    LinkPredReport {
        auc: auc_from_scores(&pos, &neg),
        n_pos: pos.len(),
        n_neg: neg.len(),
        mean_pos: mean(&pos),
        mean_neg: mean(&neg),
        skipped,
    }
}

/// Average ranks (1-based) with ties sharing their mean rank.
fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("NaN in rank input"));
    let mut ranks = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_corpus::vocab::VocabBuilder;
    use gw2v_util::fvec::FlatMatrix;
    use gw2v_util::rng::{Rng64, Xoshiro256};

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn ranks_degenerate_inputs() {
        assert!(ranks(&[]).is_empty());
        assert_eq!(ranks(&[7.0]), vec![1.0]);
        assert_eq!(ranks(&[3.0, 3.0, 3.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn auc_hand_computed() {
        // pos {0.8, 0.2}, neg {0.5}: one of two positives outranks the
        // negative → AUC = 1/2.
        assert_eq!(auc_from_scores(&[0.8, 0.2], &[0.5]), 0.5);
        // pos {0.9, 0.8}, neg {0.5, 0.1}: all 4 comparisons won.
        assert_eq!(auc_from_scores(&[0.9, 0.8], &[0.5, 0.1]), 1.0);
        // pos {0.1}, neg {0.5, 0.9}: all lost.
        assert_eq!(auc_from_scores(&[0.1], &[0.5, 0.9]), 0.0);
        // pos {0.7, 0.3}, neg {0.5}: win + loss → 0.5.
        assert_eq!(auc_from_scores(&[0.7, 0.3], &[0.5]), 0.5);
    }

    #[test]
    fn auc_ties_average() {
        // All scores identical: every comparison is a tie, worth 1/2.
        assert_eq!(auc_from_scores(&[0.4, 0.4], &[0.4, 0.4, 0.4]), 0.5);
        // pos {0.6, 0.4}, neg {0.4}: one win, one tie → (1 + 0.5)/2.
        assert_eq!(auc_from_scores(&[0.6, 0.4], &[0.4]), 0.75);
    }

    #[test]
    fn auc_degenerate_inputs() {
        assert_eq!(auc_from_scores(&[], &[0.5]), 0.5);
        assert_eq!(auc_from_scores(&[0.5], &[]), 0.5);
        assert_eq!(auc_from_scores(&[], &[]), 0.5);
    }

    #[test]
    fn auc_nan_scores_rank_last() {
        // LinkScore maps NaN to -inf before ranking; -inf positives
        // lose every comparison.
        assert_eq!(auc_from_scores(&[f64::NEG_INFINITY], &[0.1, 0.2]), 0.0);
    }

    /// A vocabulary of `n` node words and a model with the given rows.
    fn node_setup(rows: &[&[f32]]) -> (Word2VecModel, Vocabulary) {
        let mut b = VocabBuilder::new();
        // Descending counts so vocab id i == node id i.
        for u in 0..rows.len() {
            for _ in 0..(rows.len() - u + 1) {
                b.add_sentence(&[node_word(u as u32)]);
            }
        }
        let vocab = b.build(1);
        let dim = rows[0].len();
        let mut syn0 = FlatMatrix::zeros(rows.len(), dim);
        for (i, r) in rows.iter().enumerate() {
            let id = vocab.id_of(&node_word(i as u32)).unwrap() as usize;
            syn0.row_mut(id).copy_from_slice(r);
        }
        let model = Word2VecModel::from_layers(syn0, FlatMatrix::zeros(rows.len(), dim));
        (model, vocab)
    }

    #[test]
    fn separable_embeddings_reach_auc_one() {
        // Two tight clusters: nodes 0-1 near +x, nodes 2-3 near +y.
        let (model, vocab) = node_setup(&[&[1.0, 0.1], &[0.9, 0.0], &[0.1, 1.0], &[0.0, 0.9]]);
        let positives = [(0, 1), (2, 3)];
        let negatives = [(0, 2), (0, 3), (1, 2), (1, 3)];
        let report =
            evaluate_link_prediction(&model, &vocab, &positives, &negatives, LinkScore::Cosine);
        assert_eq!(report.auc, 1.0);
        assert_eq!(report.n_pos, 2);
        assert_eq!(report.n_neg, 4);
        assert_eq!(report.skipped, 0);
        assert!(report.mean_pos > report.mean_neg);
    }

    #[test]
    fn random_embeddings_hover_at_half() {
        let n = 60usize;
        let dim = 16usize;
        let mut rng = Xoshiro256::new(99);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32() - 0.5).collect())
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let (model, vocab) = node_setup(&refs);
        // Arbitrary disjoint pair sets.
        let positives: Vec<(u32, u32)> = (0..n as u32 / 2).map(|u| (u, u + n as u32 / 2)).collect();
        let negatives: Vec<(u32, u32)> = (0..n as u32 - 1).map(|u| (u, u + 1)).collect();
        let report =
            evaluate_link_prediction(&model, &vocab, &positives, &negatives, LinkScore::Dot);
        assert!(
            (report.auc - 0.5).abs() < 0.2,
            "random embeddings must not separate arbitrary pairs: {}",
            report.auc
        );
    }

    #[test]
    fn unknown_nodes_are_skipped_not_scored() {
        let (model, vocab) = node_setup(&[&[1.0, 0.0], &[0.9, 0.1]]);
        let report =
            evaluate_link_prediction(&model, &vocab, &[(0, 1), (0, 7)], &[(1, 9)], LinkScore::Dot);
        assert_eq!(report.n_pos, 1);
        assert_eq!(report.n_neg, 0);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.auc, 0.5, "no negatives → uninformative baseline");
    }

    #[test]
    fn dot_and_cosine_agree_on_unit_vectors() {
        let (model, vocab) = node_setup(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 0.0]]);
        let pos = [(0, 1)];
        let neg = [(0, 2)];
        let d = evaluate_link_prediction(&model, &vocab, &pos, &neg, LinkScore::Dot);
        let c = evaluate_link_prediction(&model, &vocab, &pos, &neg, LinkScore::Cosine);
        assert_eq!(d.auc, c.auc);
    }
}
