//! Dense `f32` vector kernels.
//!
//! The SGNS inner loop is built from a handful of kernels — dot product,
//! axpy (`y += a·x`), scale, and a fused gradient step — applied to short
//! (dim ≈ 100–300) vectors. Every public function here routes through the
//! runtime-dispatched table in [`crate::simd`]: hand-written AVX2+FMA
//! implementations where the host supports them, the original 4-way
//! unrolled scalar loops otherwise (or when `GW2V_FORCE_SCALAR=1`). The
//! model-combiner math (projections, norms) reuses the same kernels.

use crate::sigmoid::SigmoidTable;
use crate::simd::{kernels, CodeBound, WindowRoom, WindowRows, CODE_BLOCK_ROWS};

/// Dot product `x · y`. Panics in debug builds on length mismatch.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    (kernels().dot)(x, y)
}

/// `y += a * x` (the BLAS axpy).
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    (kernels().axpy)(a, x, y)
}

/// `x *= a` in place.
#[inline]
pub fn scale(a: f32, x: &mut [f32]) {
    (kernels().scale)(a, x)
}

/// Fused SGNS gradient step: `neu1e += g·wout; wout += g·win`, reading and
/// writing each row once. `wout` is read before it is updated, so this is
/// element-wise equivalent to `axpy(g, wout, neu1e)` followed by
/// `axpy(g, win, wout)` — and bit-identical to that pair on the scalar
/// backend.
#[inline]
pub fn fused_grad_step(g: f32, win: &[f32], wout: &mut [f32], neu1e: &mut [f32]) {
    (kernels().fused_grad_step)(g, win, wout, neu1e)
}

/// One SGNS pair: `win` stepped against rows `targets` of `layer` in
/// order (`dot` → sigmoid → `fused_grad_step` each), label 1 for
/// `targets[0]` when `positive` and 0 otherwise, accumulating into
/// `neu1e` (see [`Kernels::sgns_pair`](crate::simd::Kernels::sgns_pair)).
#[inline]
pub fn sgns_pair(
    win: &[f32],
    layer: &mut [f32],
    targets: &[u32],
    positive: bool,
    alpha: f32,
    sigmoid: &SigmoidTable,
    neu1e: &mut [f32],
) {
    (kernels().sgns_pair)(win, layer, targets, positive, alpha, sigmoid, neu1e)
}

/// One HogBatch window: the `inputs` rows of layer 0 (`X`) against the
/// `targets` rows of layer 1 (`O`), rows of `dim` floats, with `G =
/// (label − σ(X·Oᵀ)) · alpha`, label 1 for `targets[0]` only; adds
/// `Gᵀ·X` to the targets' destination rows, then `G·O` to the inputs',
/// every product reading the rows as they were before the call, working
/// in `room` (see
/// [`Kernels::sgns_window`](crate::simd::Kernels::sgns_window)).
#[inline]
pub fn sgns_window(
    rows: WindowRows<'_>,
    dim: usize,
    inputs: &[u32],
    targets: &[u32],
    alpha: f32,
    sigmoid: &SigmoidTable,
    room: &mut WindowRoom,
) {
    (kernels().sgns_window)(rows, dim, inputs, targets, alpha, sigmoid, room)
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    norm_sq(x).sqrt()
}

/// `out = x - y`, element-wise, writing into a caller-provided buffer.
#[inline]
pub fn sub_into(x: &[f32], y: &[f32], out: &mut [f32]) {
    (kernels().sub_into)(x, y, out)
}

/// `x += y`, element-wise.
#[inline]
pub fn add_assign(x: &mut [f32], y: &[f32]) {
    (kernels().add_assign)(x, y)
}

/// One-pass `(x·y, ‖x‖², ‖y‖²)`. The fused traversal reads each input
/// once instead of the three passes separate `dot` calls would make; on
/// the scalar backend the three results are bit-identical to three `dot`
/// calls.
#[inline]
pub fn dot_norms(x: &[f32], y: &[f32]) -> (f32, f32, f32) {
    (kernels().dot_norms)(x, y)
}

/// Cosine similarity of two vectors; returns 0 for zero-norm inputs so
/// freshly-initialized (all-zero) training vectors compare as dissimilar
/// rather than NaN.
#[inline]
pub fn cosine(x: &[f32], y: &[f32]) -> f32 {
    let (xy, xx, yy) = dot_norms(x, y);
    let nx = xx.sqrt();
    let ny = yy.sqrt();
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    xy / (nx * ny)
}

/// Normalizes `x` to unit length in place; leaves an all-zero vector
/// untouched. Computes `‖x‖²` once and rescans only for the rescale
/// (two passes total, down from three via `norm` + `scale`).
#[inline]
pub fn normalize(x: &mut [f32]) {
    let n = norm_sq(x).sqrt();
    if n > 0.0 {
        scale(1.0 / n, x);
    }
}

/// Asks for the cache lines of `x` ahead of a read: a caller that knows
/// the scattered rows it will score next overlaps their misses instead
/// of waiting on each in turn. A hint only: it changes no value and
/// never faults; a no-op off x86.
#[inline]
pub fn prefetch(x: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for line in x.chunks(16) {
        // SAFETY: a prefetch reads nothing architecturally and cannot
        // fault; the pointer is in bounds of `x` anyway.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                line.as_ptr() as *const i8
            )
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = x;
}

/// Small-matrix GEMM, "NT" shape: `C[m×n] += A[m×k] · B[n×k]ᵀ`, all
/// row-major. `C[i][j]` accumulates `row_i(A) · row_j(B)` — the serve
/// scan, and the scores [`sgns_window`] is held to, where `A` holds
/// input rows, `B` target rows, and `k` is the embedding dimension.
/// Accumulate semantics: zero `c` first for a fresh product.
#[inline]
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    (kernels().gemm_nt)(m, n, k, a, b, c)
}

/// Small-matrix GEMM, "TN" shape: `C[m×n] += A[k×m]ᵀ · B[k×n]`, all
/// row-major. `C[i][j]` accumulates `Σ_l A[l][i] · B[l][j]` — the
/// rank-`k` updates [`sgns_window`] is held to, where `A` is the tiny
/// gradient matrix, `B` holds rows, and `n` is the embedding dimension.
#[inline]
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    (kernels().gemm_tn)(m, n, k, a, b, c)
}

/// One `i8` query against blocks of 4-bit codes: each row's integer
/// dot, its coded-scan bound and each lane's largest bound (see
/// [`Kernels::dot_codes`](crate::simd::Kernels::dot_codes) for the
/// layout and the cross-backend contract).
#[inline]
pub fn dot_codes(
    q: &[i8],
    codes: &[u8],
    bound: &CodeBound<'_>,
    dots: &mut [i32],
    bounds: &mut [f32],
    lane_max: &mut [f32; CODE_BLOCK_ROWS],
) {
    (kernels().dot_codes)(q, codes, bound, dots, bounds, lane_max)
}

/// A flat matrix of `rows` vectors of dimension `dim`, stored row-major in
/// one contiguous allocation.
///
/// This is the storage layout for both model layers (`syn0`, `syn1neg`):
/// contiguous rows keep each word's vector on a handful of cache lines and
/// make zero-copy row borrowing trivial.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatMatrix {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl FlatMatrix {
    /// Creates a `rows × dim` matrix of zeros.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            rows,
            dim,
        }
    }

    /// Takes ownership of an existing buffer; `data.len()` must equal
    /// `rows * dim`.
    pub fn from_vec(data: Vec<f32>, rows: usize, dim: usize) -> Self {
        assert_eq!(data.len(), rows * dim, "buffer size mismatch");
        Self { data, rows, dim }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// The whole backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole backing buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_dot(x: &[f32], y: &[f32]) -> f32 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn dot_matches_naive_various_lengths() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 100, 101, 200] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect();
            let y: Vec<f32> = (0..n).map(|i| 1.0 / (i as f32 + 1.0)).collect();
            let d = dot(&x, &y);
            let nd = naive_dot(&x, &y);
            assert!(
                (d - nd).abs() <= 1e-4 * (1.0 + nd.abs()),
                "n={n}: {d} vs {nd}"
            );
        }
    }

    #[test]
    fn axpy_matches_naive() {
        for n in [1usize, 3, 4, 9, 64, 65] {
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut y: Vec<f32> = (0..n).map(|i| (i as f32) * -0.5).collect();
            let mut y2 = y.clone();
            axpy(0.3, &x, &mut y);
            for i in 0..n {
                y2[i] += 0.3 * x[i];
            }
            // The dispatched backend may use FMA, which rounds once where
            // the naive mul+add rounds twice — allow that single-rounding
            // difference. (Bitwise agreement with the scalar reference is
            // pinned separately in `simd`'s tests and tests/prop_simd.rs.)
            for i in 0..n {
                assert!(
                    (y[i] - y2[i]).abs() <= 1e-6 * (1.0 + y2[i].abs()),
                    "n={n}, lane {i}: {} vs {}",
                    y[i],
                    y2[i]
                );
            }
        }
    }

    #[test]
    fn norm_and_normalize() {
        let mut v = vec![3.0f32, 4.0];
        assert!((norm(&v) - 5.0).abs() < 1e-6);
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0f32; 8];
        normalize(&mut z);
        assert!(z.iter().all(|&x| x == 0.0), "zero vector stays zero");
    }

    #[test]
    fn cosine_basics() {
        let x = [1.0f32, 0.0];
        let y = [0.0f32, 2.0];
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-6);
        assert!(cosine(&x, &y).abs() < 1e-6);
        assert_eq!(cosine(&x, &[0.0, 0.0]), 0.0);
        let neg = [-2.0f32, 0.0];
        assert!((cosine(&x, &neg) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn flat_matrix_rows() {
        let mut m = FlatMatrix::zeros(3, 4);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(0), &[0.0; 4]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn sub_into_and_add_assign_are_inverse() {
        let x = [5.0f32, -1.0, 2.5];
        let y = [1.0f32, 1.0, 1.0];
        let mut d = [0.0f32; 3];
        sub_into(&x, &y, &mut d);
        let mut back = y;
        add_assign(&mut back, &d);
        assert_eq!(back, x);
    }

    proptest! {
        #[test]
        fn prop_dot_symmetric(x in proptest::collection::vec(-10.0f32..10.0, 0..64)) {
            let y: Vec<f32> = x.iter().rev().copied().collect();
            prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-3);
        }

        #[test]
        fn prop_cauchy_schwarz(
            x in proptest::collection::vec(-10.0f32..10.0, 1..64),
        ) {
            let y: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.0).collect();
            let lhs = dot(&x, &y).abs();
            let rhs = norm(&x) * norm(&y);
            prop_assert!(lhs <= rhs * (1.0 + 1e-4) + 1e-4);
        }

        #[test]
        fn prop_normalize_unit(x in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            prop_assume!(norm(&x) > 1e-3);
            let mut v = x.clone();
            normalize(&mut v);
            prop_assert!((norm(&v) - 1.0).abs() < 1e-3);
            // Direction preserved: cosine with the original is 1.
            prop_assert!((cosine(&v, &x) - 1.0).abs() < 1e-3);
        }
    }
}
