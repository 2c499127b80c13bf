//! Nearest-neighbour queries over normalized embeddings.

use gw2v_core::model::Word2VecModel;
use gw2v_util::fvec::{self, FlatMatrix};

/// A query index: every embedding row normalized to unit length, so
/// cosine similarity is a plain dot product.
pub struct EmbeddingIndex {
    normed: FlatMatrix,
}

impl EmbeddingIndex {
    /// Builds the index from a model's embedding layer.
    pub fn new(model: &Word2VecModel) -> Self {
        let mut normed = model.syn0.clone();
        for r in 0..normed.rows() {
            fvec::normalize(normed.row_mut(r));
        }
        Self { normed }
    }

    /// Number of words.
    pub(crate) fn len(&self) -> usize {
        self.normed.rows()
    }

    /// Vector dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.normed.dim()
    }

    /// The unit-normalized vector of word `w`.
    pub fn vector(&self, w: u32) -> &[f32] {
        self.normed.row(w as usize)
    }

    /// The `k` most-cosine-similar words to `query` (which need not be
    /// normalized), excluding ids in `exclude`. Returns `(id, cosine)`
    /// pairs, most similar first.
    pub fn nearest(&self, query: &[f32], k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim());
        let mut q = query.to_vec();
        fvec::normalize(&mut q);
        // Score all rows, then select top-k. A diverged model (e.g.
        // summed gradients at a 32x learning rate, paper Fig. 6's red
        // line) legitimately contains NaN/inf rows; such rows rank last
        // rather than poisoning the sort.
        let scores: Vec<f32> = (0..self.len())
            .map(|r| {
                let s = fvec::dot(&q, self.normed.row(r));
                if s.is_nan() {
                    f32::NEG_INFINITY
                } else {
                    s
                }
            })
            .collect();
        let mut candidates: Vec<(u32, f32)> = scores
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s))
            .filter(|(i, _)| !exclude.contains(i))
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN mapped to -inf above"));
        candidates.truncate(k);
        candidates
    }

    /// The single best match (convenience for analogy evaluation).
    pub fn best(&self, query: &[f32], exclude: &[u32]) -> Option<(u32, f32)> {
        self.nearest(query, 1, exclude).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with_rows(rows: &[&[f32]]) -> Word2VecModel {
        let dim = rows[0].len();
        let mut syn0 = FlatMatrix::zeros(rows.len(), dim);
        for (i, r) in rows.iter().enumerate() {
            syn0.row_mut(i).copy_from_slice(r);
        }
        Word2VecModel::from_layers(syn0, FlatMatrix::zeros(rows.len(), dim))
    }

    #[test]
    fn finds_identical_direction() {
        let m = model_with_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.7, 0.7], &[-1.0, 0.0]]);
        let idx = EmbeddingIndex::new(&m);
        let hits = idx.nearest(&[2.0, 0.0], 2, &[]);
        assert_eq!(hits[0].0, 0);
        assert!((hits[0].1 - 1.0).abs() < 1e-5);
        assert_eq!(hits[1].0, 2, "45° vector is second closest");
    }

    #[test]
    fn exclusion_respected() {
        let m = model_with_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0]]);
        let idx = EmbeddingIndex::new(&m);
        let best = idx.best(&[1.0, 0.0], &[0]).unwrap();
        assert_eq!(best.0, 1);
    }

    #[test]
    fn k_larger_than_vocab() {
        let m = model_with_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let idx = EmbeddingIndex::new(&m);
        let hits = idx.nearest(&[1.0, 1.0], 10, &[]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn zero_rows_rank_last() {
        let m = model_with_rows(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let idx = EmbeddingIndex::new(&m);
        let hits = idx.nearest(&[1.0, 0.0], 2, &[]);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits[1].1, 0.0, "zero vector scores 0");
    }

    #[test]
    fn nan_rows_rank_last_without_panicking() {
        // A diverged model layer: one row is all-NaN.
        let mut m = model_with_rows(&[&[1.0, 0.0], &[0.5, 0.5], &[0.0, 1.0]]);
        m.syn0.row_mut(1).fill(f32::NAN);
        let idx = EmbeddingIndex::new(&m);
        let hits = idx.nearest(&[1.0, 0.0], 3, &[]);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[2].0, 1, "NaN row ranks last");
        assert_eq!(hits[2].1, f32::NEG_INFINITY);
    }

    #[test]
    fn ties_break_by_ascending_id() {
        // Rows 0, 1 and 3 are the same direction: identical cosine.
        // The stable sort must keep them in ascending-id order, so the
        // result is deterministic and backend-independent.
        let m = model_with_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[0.0, 1.0], &[3.0, 0.0]]);
        let idx = EmbeddingIndex::new(&m);
        let hits = idx.nearest(&[1.0, 0.0], 4, &[]);
        let ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 2]);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let m = Word2VecModel::from_layers(FlatMatrix::zeros(0, 3), FlatMatrix::zeros(0, 3));
        let idx = EmbeddingIndex::new(&m);
        assert_eq!(idx.len(), 0);
        assert!(idx.nearest(&[1.0, 0.0, 0.0], 5, &[]).is_empty());
        assert!(idx.best(&[1.0, 0.0, 0.0], &[]).is_none());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let m = model_with_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let idx = EmbeddingIndex::new(&m);
        assert!(idx.nearest(&[1.0, 0.0], 0, &[]).is_empty());
    }

    #[test]
    fn excluding_everything_returns_nothing() {
        let m = model_with_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let idx = EmbeddingIndex::new(&m);
        assert!(idx.nearest(&[1.0, 0.0], 2, &[0, 1]).is_empty());
        assert!(idx.best(&[1.0, 0.0], &[0, 1]).is_none());
    }

    #[test]
    fn zero_query_scores_everything_zero() {
        let m = model_with_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let idx = EmbeddingIndex::new(&m);
        let hits = idx.nearest(&[0.0, 0.0], 2, &[]);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.1 == 0.0));
        assert_eq!(hits[0].0, 0, "all-tied scores keep ascending-id order");
    }

    #[test]
    fn ordering_is_descending() {
        let m = model_with_rows(&[&[1.0, 0.0], &[0.8, 0.6], &[0.0, 1.0], &[-0.5, -0.5]]);
        let idx = EmbeddingIndex::new(&m);
        let hits = idx.nearest(&[1.0, 0.2], 4, &[]);
        for pair in hits.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}
