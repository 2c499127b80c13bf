//! # gw2v-combiner
//!
//! Reduction operators for reconciling concurrently-computed model deltas
//! — the paper's Section 3 contribution.
//!
//! When `H` hosts train replicas of the same model between two
//! synchronization points, each produces a *delta* `dᵢ` (its local model
//! minus the shared base). The synchronization substrate must reduce
//! `{d₁ … d_H}` to one delta. The options implemented here:
//!
//! * [`Sum`](CombinerKind::Sum) — `Σ dᵢ`. For near-parallel deltas this
//!   effectively multiplies the learning rate by `H` and diverges
//!   (paper Fig. 2a / Fig. 6's `AVG lr=0.8` line is equivalent).
//! * [`Avg`](CombinerKind::Avg) — `Σ dᵢ / H`. Safe but approaches batch
//!   gradient descent as `H` grows: convergence per epoch degrades
//!   (Fig. 6's `AVG` lines).
//! * [`ModelCombiner`](CombinerKind::ModelCombiner) — the paper's
//!   contribution: deltas are combined *as if applied sequentially* by
//!   projecting each incoming delta onto the orthogonal complement of the
//!   accumulated combination (`d′ = d − (g·d/‖g‖²)·g`, then `g += d′`).
//!   Parallel components (which would double-count) are dropped,
//!   orthogonal components (independent progress) are kept whole.
//! * [`ModelCombinerPairwise`](CombinerKind::ModelCombinerPairwise) — the
//!   same projection applied in a balanced binary tree, the order an
//!   MPI-style reduction tree would produce; included for the ablation
//!   bench.
//!
//! Two invariants from the paper are upheld and property-tested:
//! Eq. (4): `‖d′‖ ≤ ‖d‖`, and (consequently)
//! `‖combine(d₁…d_n)‖² ≤ Σ‖dᵢ‖²`, which is what prevents divergence.

#![deny(missing_docs)]

use gw2v_util::fvec;
use serde::{Deserialize, Serialize};

/// Which reduction to use when reconciling host deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CombinerKind {
    /// Add all deltas (the divergent baseline).
    Sum,
    /// Average all deltas (the slow-convergence baseline, "AVG").
    Avg,
    /// Orthogonal-projection model combiner, incremental induction ("MC").
    ModelCombiner,
    /// Model combiner applied as a balanced reduction tree.
    ModelCombinerPairwise,
}

impl CombinerKind {
    /// Parses `"sum" | "avg" | "mc" | "mc-pairwise"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sum" => Some(Self::Sum),
            "avg" => Some(Self::Avg),
            "mc" | "modelcombiner" => Some(Self::ModelCombiner),
            "mc-pairwise" => Some(Self::ModelCombinerPairwise),
            _ => None,
        }
    }

    /// Short display name used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Sum => "SUM",
            Self::Avg => "AVG",
            Self::ModelCombiner => "MC",
            Self::ModelCombinerPairwise => "MC-PW",
        }
    }

    /// Combines `deltas` (all the same length) into `out`.
    ///
    /// `out` is overwritten; its length must match. With zero deltas `out`
    /// is left as all zeros.
    pub fn combine_into(&self, deltas: &[&[f32]], out: &mut [f32]) {
        out.fill(0.0);
        match self {
            Self::Sum => {
                for d in deltas {
                    fvec::add_assign(out, d);
                }
            }
            Self::Avg => {
                for d in deltas {
                    fvec::add_assign(out, d);
                }
                if !deltas.is_empty() {
                    fvec::scale(1.0 / deltas.len() as f32, out);
                }
            }
            Self::ModelCombiner => {
                let mut scratch = vec![0.0f32; out.len()];
                for d in deltas {
                    mc_push(out, d, &mut scratch);
                }
            }
            Self::ModelCombinerPairwise => {
                if let Some(result) = pairwise_tree(deltas, out.len()) {
                    out.copy_from_slice(&result);
                }
            }
        }
    }

    /// Allocating convenience wrapper around [`CombinerKind::combine_into`].
    #[cfg(test)]
    pub(crate) fn combine(&self, deltas: &[&[f32]], dim: usize) -> Vec<f32> {
        let mut out = vec![0.0; dim];
        self.combine_into(deltas, &mut out);
        out
    }
}

/// Numerical floor below which an accumulated vector is treated as zero
/// (projecting onto a ~zero vector is meaningless and numerically unstable).
const NORM_FLOOR: f32 = 1e-12;

/// Projects `d` onto the orthogonal complement of `g` and adds the result
/// to `g` in place: `g += d − (g·d/‖g‖²)·g`. This is one induction step of
/// the paper's model combiner. `scratch` must have the same length.
#[inline]
pub(crate) fn mc_push(g: &mut [f32], d: &[f32], scratch: &mut [f32]) {
    let g_norm_sq = fvec::norm_sq(g);
    if g_norm_sq <= NORM_FLOOR {
        fvec::add_assign(g, d);
        return;
    }
    let coeff = fvec::dot(g, d) / g_norm_sq;
    // scratch = d - coeff * g  (the projected component d′)
    scratch.copy_from_slice(d);
    fvec::axpy(-coeff, g, scratch);
    fvec::add_assign(g, scratch);
}

/// Projects `d` onto the orthogonal complement of `g`, writing `d′` into
/// `out` (does not modify `g`); returns `‖d′‖²`.
#[cfg(test)]
pub(crate) fn project_orthogonal(d: &[f32], g: &[f32], out: &mut [f32]) -> f32 {
    let g_norm_sq = fvec::norm_sq(g);
    out.copy_from_slice(d);
    if g_norm_sq > NORM_FLOOR {
        let coeff = fvec::dot(g, d) / g_norm_sq;
        fvec::axpy(-coeff, g, out);
    }
    fvec::norm_sq(out)
}

/// Balanced binary reduction tree over the deltas; each merge is
/// `combine(a, b) = a + b′` with `b′ ⊥ a`.
fn pairwise_tree(deltas: &[&[f32]], dim: usize) -> Option<Vec<f32>> {
    match deltas.len() {
        0 => None,
        1 => Some(deltas[0].to_vec()),
        n => {
            let mid = n / 2;
            let left = pairwise_tree(&deltas[..mid], dim);
            let right = pairwise_tree(&deltas[mid..], dim);
            match (left, right) {
                (Some(mut l), Some(r)) => {
                    let mut scratch = vec![0.0f32; dim];
                    mc_push(&mut l, &r, &mut scratch);
                    Some(l)
                }
                (l, r) => l.or(r),
            }
        }
    }
}

/// Streaming accumulator for one node's reduction at its master proxy:
/// deltas arrive one host at a time (own delta first, then each incoming
/// message) and the combined delta is read out at the end of the phase.
#[derive(Clone, Debug)]
pub struct CombineAccumulator {
    kind: CombinerKind,
    acc: Vec<f32>,
    count: usize,
    buffered: Vec<Vec<f32>>,
    scratch: Vec<f32>,
}

impl CombineAccumulator {
    /// Creates an accumulator for vectors of length `dim`.
    pub fn new(kind: CombinerKind, dim: usize) -> Self {
        Self {
            kind,
            acc: vec![0.0; dim],
            count: 0,
            buffered: Vec::new(),
            scratch: vec![0.0; dim],
        }
    }

    /// Re-arms a used accumulator for a new reduction, reusing its
    /// allocations. After `reset` the accumulator is indistinguishable
    /// from `CombineAccumulator::new(kind, dim)`, so pools of
    /// accumulators (one per concurrently-reduced node) can be recycled
    /// across synchronization rounds without touching the heap. (The
    /// `ModelCombinerPairwise` kind still buffers each pushed delta —
    /// it is the ablation-only tree variant and keeps its allocations.)
    pub fn reset(&mut self, kind: CombinerKind, dim: usize) {
        self.kind = kind;
        self.count = 0;
        self.buffered.clear();
        self.acc.clear();
        self.acc.resize(dim, 0.0);
        self.scratch.clear();
        self.scratch.resize(dim, 0.0);
    }

    /// Adds one host's delta.
    pub fn push(&mut self, delta: &[f32]) {
        assert_eq!(delta.len(), self.acc.len(), "delta dimension mismatch");
        self.count += 1;
        match self.kind {
            CombinerKind::Sum | CombinerKind::Avg => fvec::add_assign(&mut self.acc, delta),
            CombinerKind::ModelCombiner => mc_push(&mut self.acc, delta, &mut self.scratch),
            CombinerKind::ModelCombinerPairwise => self.buffered.push(delta.to_vec()),
        }
    }

    /// Number of deltas pushed.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Finishes the reduction, returning the combined delta.
    pub fn finish(mut self) -> Vec<f32> {
        let mut out = vec![0.0; self.acc.len()];
        self.finish_into(&mut out);
        out
    }

    /// Finishes the reduction into a caller-provided buffer, leaving the
    /// accumulator reusable via [`CombineAccumulator::reset`]. Writes the
    /// same values [`CombineAccumulator::finish`] would return (`finish`
    /// is a thin allocating wrapper around this). `out.len()` must match
    /// the accumulator's dimension.
    pub fn finish_into(&mut self, out: &mut [f32]) {
        assert_eq!(out.len(), self.acc.len(), "output dimension mismatch");
        match self.kind {
            CombinerKind::Avg => {
                out.copy_from_slice(&self.acc);
                if self.count > 0 {
                    fvec::scale(1.0 / self.count as f32, out);
                }
            }
            CombinerKind::ModelCombinerPairwise => {
                let refs: Vec<&[f32]> = self.buffered.iter().map(|v| v.as_slice()).collect();
                match pairwise_tree(&refs, self.acc.len()) {
                    Some(combined) => out.copy_from_slice(&combined),
                    None => out.copy_from_slice(&self.acc),
                }
            }
            _ => out.copy_from_slice(&self.acc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_util::fvec::{dot, norm, norm_sq};
    use proptest::prelude::*;

    fn v(x: &[f32]) -> Vec<f32> {
        x.to_vec()
    }

    #[test]
    fn parse_and_label() {
        assert_eq!(CombinerKind::parse("mc"), Some(CombinerKind::ModelCombiner));
        assert_eq!(CombinerKind::parse("AVG"), Some(CombinerKind::Avg));
        assert_eq!(CombinerKind::parse("sum").unwrap().label(), "SUM");
        assert_eq!(CombinerKind::parse("mc-pairwise").unwrap().label(), "MC-PW");
        assert_eq!(CombinerKind::parse("bogus"), None);
    }

    #[test]
    fn sum_and_avg_basics() {
        let d1 = v(&[1.0, 2.0]);
        let d2 = v(&[3.0, -2.0]);
        let deltas = [d1.as_slice(), d2.as_slice()];
        assert_eq!(CombinerKind::Sum.combine(&deltas, 2), vec![4.0, 0.0]);
        assert_eq!(CombinerKind::Avg.combine(&deltas, 2), vec![2.0, 0.0]);
    }

    #[test]
    fn empty_deltas_yield_zero() {
        for kind in [
            CombinerKind::Sum,
            CombinerKind::Avg,
            CombinerKind::ModelCombiner,
            CombinerKind::ModelCombinerPairwise,
        ] {
            assert_eq!(kind.combine(&[], 3), vec![0.0; 3], "{kind:?}");
        }
    }

    #[test]
    fn single_delta_passes_through() {
        let d = v(&[1.0, -2.0, 3.0]);
        for kind in [
            CombinerKind::Sum,
            CombinerKind::Avg,
            CombinerKind::ModelCombiner,
            CombinerKind::ModelCombinerPairwise,
        ] {
            assert_eq!(kind.combine(&[d.as_slice()], 3), d, "{kind:?}");
        }
    }

    #[test]
    fn mc_orthogonal_inputs_equal_sum() {
        // Fig. 2(b): orthogonal gradients should be added whole.
        let d1 = v(&[1.0, 0.0, 0.0]);
        let d2 = v(&[0.0, 2.0, 0.0]);
        let d3 = v(&[0.0, 0.0, -3.0]);
        let got = CombinerKind::ModelCombiner.combine(&[&d1, &d2, &d3], 3);
        assert_eq!(got, vec![1.0, 2.0, -3.0]);
    }

    #[test]
    fn mc_parallel_inputs_collapse_to_first() {
        // Fig. 2(a): a second gradient parallel to the first contributes
        // nothing new — MC keeps the step at 1x, not 2x.
        let d1 = v(&[1.0, 1.0]);
        let d2 = v(&[2.0, 2.0]);
        let got = CombinerKind::ModelCombiner.combine(&[&d1, &d2], 2);
        assert!(
            (got[0] - 1.0).abs() < 1e-6 && (got[1] - 1.0).abs() < 1e-6,
            "{got:?}"
        );
    }

    #[test]
    fn mc_intermediate_case_matches_formula() {
        // Fig. 2(c): g = g1 + (g2 − (g1·g2/‖g1‖²) g1).
        let g1 = v(&[2.0, 0.0]);
        let g2 = v(&[1.0, 1.0]);
        let got = CombinerKind::ModelCombiner.combine(&[&g1, &g2], 2);
        // proj coeff = (2*1)/4 = 0.5; g2' = (1,1) − 0.5·(2,0) = (0,1).
        assert!((got[0] - 2.0).abs() < 1e-6);
        assert!((got[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mc_zero_first_delta_does_not_nan() {
        let z = v(&[0.0, 0.0]);
        let d = v(&[1.0, 2.0]);
        let got = CombinerKind::ModelCombiner.combine(&[&z, &d], 2);
        assert_eq!(got, vec![1.0, 2.0]);
    }

    #[test]
    fn projection_orthogonality_and_eq4_contraction() {
        let g = v(&[3.0, 1.0, -2.0]);
        let d = v(&[1.0, 4.0, 0.5]);
        let mut out = vec![0.0; 3];
        let n2 = project_orthogonal(&d, &g, &mut out);
        assert!(dot(&out, &g).abs() < 1e-4, "d' ⊥ g");
        assert!(n2 <= norm_sq(&d) + 1e-6, "Eq. (4): ‖d'‖ ≤ ‖d‖");
        // ‖d'‖² = ‖d‖²(1 − cos²θ)
        let cos = dot(&g, &d) / (norm(&g) * norm(&d));
        let expect = norm_sq(&d) * (1.0 - cos * cos);
        assert!((n2 - expect).abs() < 1e-4);
    }

    #[test]
    fn accumulator_matches_batch_combine() {
        let deltas = [
            v(&[1.0, 2.0, 3.0]),
            v(&[-1.0, 0.5, 2.0]),
            v(&[0.0, 1.0, -1.0]),
            v(&[2.0, 2.0, 2.0]),
        ];
        let refs: Vec<&[f32]> = deltas.iter().map(|d| d.as_slice()).collect();
        for kind in [
            CombinerKind::Sum,
            CombinerKind::Avg,
            CombinerKind::ModelCombiner,
            CombinerKind::ModelCombinerPairwise,
        ] {
            let batch = kind.combine(&refs, 3);
            let mut acc = CombineAccumulator::new(kind, 3);
            for d in &deltas {
                acc.push(d);
            }
            assert_eq!(acc.count(), 4);
            let streamed = acc.finish();
            for (a, b) in batch.iter().zip(&streamed) {
                assert!((a - b).abs() < 1e-5, "{kind:?}: {batch:?} vs {streamed:?}");
            }
        }
    }

    #[test]
    fn reset_accumulator_matches_fresh_bitwise() {
        // A pooled accumulator, reset between reductions (possibly with a
        // different kind and dimension), must be bit-identical to a fresh
        // one — this is what lets sync rounds recycle accumulator pools.
        let rounds: [(CombinerKind, usize, &[&[f32]]); 4] = [
            (
                CombinerKind::ModelCombiner,
                3,
                &[&[1.0, 2.0, 3.0], &[0.5, -1.0, 2.0]],
            ),
            (
                CombinerKind::Avg,
                2,
                &[&[4.0, 2.0], &[2.0, 0.0], &[0.0, 1.0]],
            ),
            (CombinerKind::Sum, 4, &[&[1.0, 1.0, 1.0, 1.0]]),
            (
                CombinerKind::ModelCombinerPairwise,
                2,
                &[&[1.0, 0.0], &[1.0, 1.0]],
            ),
        ];
        let mut pooled = CombineAccumulator::new(CombinerKind::Sum, 1);
        for (kind, dim, deltas) in rounds {
            pooled.reset(kind, dim);
            let mut fresh = CombineAccumulator::new(kind, dim);
            for d in deltas {
                pooled.push(d);
                fresh.push(d);
            }
            let mut out = vec![0.0; dim];
            pooled.finish_into(&mut out);
            assert_eq!(out, fresh.finish(), "{kind:?}");
        }
    }

    #[test]
    fn quadratic_losses_decrease_under_mc() {
        // Two quadratic losses L_i(w) = ½‖w − cᵢ‖² with gradients w − cᵢ.
        // The paper proves (Eq. 3) that the *projected* component g2′ is a
        // valid descent direction for L2; it does not claim the full
        // combined step decreases each individual loss (that is the
        // acknowledged "algorithmic overhead"). We check exactly the
        // proven statements: (a) a step along g2′ decreases L2, (b) the
        // combined step decreases L1 (whose gradient is kept whole) and
        // (c) the total loss.
        let w = v(&[1.0, 1.0, 1.0]);
        let c1 = v(&[0.0, 2.0, 1.0]);
        let c2 = v(&[2.0, 0.0, 0.0]);
        let loss = |w: &[f32], c: &[f32]| -> f32 {
            0.5 * w.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
        };
        let g1: Vec<f32> = w.iter().zip(&c1).map(|(a, b)| a - b).collect();
        let g2: Vec<f32> = w.iter().zip(&c2).map(|(a, b)| a - b).collect();
        let alpha = 0.1;
        // (a) step along the projected component alone decreases L2.
        let mut g2p = vec![0.0; 3];
        project_orthogonal(&g2, &g1, &mut g2p);
        let w_proj: Vec<f32> = w.iter().zip(&g2p).map(|(a, b)| a - alpha * b).collect();
        assert!(
            loss(&w_proj, &c2) < loss(&w, &c2),
            "Eq. 3: L2 decreases along g2'"
        );
        // (b)+(c) the combined step decreases L1 and the total loss.
        let g = CombinerKind::ModelCombiner.combine(&[&g1, &g2], 3);
        let w_new: Vec<f32> = w.iter().zip(&g).map(|(a, b)| a - alpha * b).collect();
        assert!(loss(&w_new, &c1) < loss(&w, &c1), "L1 decreased");
        assert!(
            loss(&w_new, &c1) + loss(&w_new, &c2) < loss(&w, &c1) + loss(&w, &c2),
            "total loss decreased"
        );
    }

    #[test]
    fn sum_diverges_where_mc_does_not() {
        // Replicated quadratic loss L(w) = ½‖w‖², H identical gradients g = w.
        // Gradient descent with α = 0.75: SUM over 2 hosts steps by 1.5‖w‖
        // each time (factor |1 − 2α| = 0.5... choose α where SUM overshoots):
        // with α = 0.75, SUM multiplies w by (1 − 1.5) = −0.5 (oscillates),
        // with 3 hosts by (1 − 2.25) = −1.25 (diverges). MC keeps the factor
        // at (1 − 0.75) = 0.25 regardless of host count.
        let alpha = 0.75f32;
        let hosts = 3;
        let mut w_sum = vec![1.0f32, 1.0];
        let mut w_mc = vec![1.0f32, 1.0];
        for _ in 0..20 {
            let grads_sum: Vec<Vec<f32>> = (0..hosts).map(|_| w_sum.clone()).collect();
            let refs: Vec<&[f32]> = grads_sum.iter().map(|g| g.as_slice()).collect();
            let g = CombinerKind::Sum.combine(&refs, 2);
            for i in 0..2 {
                w_sum[i] -= alpha * g[i];
            }
            let grads_mc: Vec<Vec<f32>> = (0..hosts).map(|_| w_mc.clone()).collect();
            let refs: Vec<&[f32]> = grads_mc.iter().map(|g| g.as_slice()).collect();
            let g = CombinerKind::ModelCombiner.combine(&refs, 2);
            for i in 0..2 {
                w_mc[i] -= alpha * g[i];
            }
        }
        assert!(norm(&w_sum) > 100.0, "SUM diverges: {w_sum:?}");
        assert!(norm(&w_mc) < 1e-3, "MC converges: {w_mc:?}");
    }

    proptest! {
        #[test]
        fn prop_mc_norm_bounded_by_root_sum_sq(
            deltas in proptest::collection::vec(
                proptest::collection::vec(-5.0f32..5.0, 8), 1..8)
        ) {
            let refs: Vec<&[f32]> = deltas.iter().map(|d| d.as_slice()).collect();
            for kind in [CombinerKind::ModelCombiner, CombinerKind::ModelCombinerPairwise] {
                let combined = kind.combine(&refs, 8);
                let bound: f32 = deltas.iter().map(|d| norm_sq(d)).sum();
                prop_assert!(
                    norm_sq(&combined) <= bound * (1.0 + 1e-3) + 1e-5,
                    "{:?}: ‖g‖²={} > Σ‖dᵢ‖²={}", kind, norm_sq(&combined), bound
                );
            }
        }

        #[test]
        fn prop_mc_never_nan(
            deltas in proptest::collection::vec(
                proptest::collection::vec(-100.0f32..100.0, 4), 0..6)
        ) {
            let refs: Vec<&[f32]> = deltas.iter().map(|d| d.as_slice()).collect();
            let combined = CombinerKind::ModelCombiner.combine(&refs, 4);
            prop_assert!(combined.iter().all(|x| x.is_finite()));
        }

        #[test]
        fn prop_projection_contracts(
            d in proptest::collection::vec(-10.0f32..10.0, 6),
            g in proptest::collection::vec(-10.0f32..10.0, 6),
        ) {
            let mut out = vec![0.0; 6];
            let n2 = project_orthogonal(&d, &g, &mut out);
            prop_assert!(n2 <= norm_sq(&d) * (1.0 + 1e-3) + 1e-6);
            if norm_sq(&g) > 1e-6 {
                // Approximate orthogonality, scaled by magnitudes.
                prop_assert!(dot(&out, &g).abs() <= 1e-2 * (1.0 + norm(&out) * norm(&g)));
            }
        }

        #[test]
        fn prop_sum_avg_linear(
            deltas in proptest::collection::vec(
                proptest::collection::vec(-10.0f32..10.0, 5), 1..6)
        ) {
            let refs: Vec<&[f32]> = deltas.iter().map(|d| d.as_slice()).collect();
            let sum = CombinerKind::Sum.combine(&refs, 5);
            let avg = CombinerKind::Avg.combine(&refs, 5);
            for i in 0..5 {
                prop_assert!((sum[i] / deltas.len() as f32 - avg[i]).abs() < 1e-4);
            }
        }
    }
}
