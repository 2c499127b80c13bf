//! Runtime-dispatched SIMD kernels for the dense `f32` hot paths, the
//! CRC-32 that guards their wire form, and the byte kernels under the
//! text readers (the whitespace mask and the decimal parse).
//!
//! Every kernel exists twice: a portable scalar reference in [`scalar`]
//! (the exact 4-way-unrolled code the workspace shipped with, kept
//! bit-for-bit stable so forced-scalar runs reproduce historical results)
//! and a hand-written AVX2+FMA implementation in the private `avx2`
//! module. The one integer entry, `crc32_update`, lives in
//! [`crate::crc32`]: slice-by-8 in the scalar table, PCLMULQDQ folding
//! in the vector table. A process-wide dispatch table is selected once,
//! on first use, by [`kernels`]:
//!
//! 1. if the `GW2V_FORCE_SCALAR` environment variable is set to `1` or
//!    `true`, the scalar table is used unconditionally (tests, benches,
//!    and bit-exact reproduction of pre-SIMD results);
//! 2. otherwise, on x86/x86_64 hosts where `is_x86_feature_detected!`
//!    reports both `avx2` and `fma`, the vector table is used — with
//!    its CRC entry swapped back to slice-by-8 if the separate
//!    `pclmulqdq` / `sse4.1` CPUID bits are missing;
//! 3. otherwise the scalar table is the portable fallback.
//!
//! The public entry points in [`crate::fvec`] route through this table, so
//! callers never name a backend. [`backend_name`] reports which table won,
//! for logs and bench output.
//!
//! # Numerics
//!
//! The AVX2 kernels use fused multiply-add and 8/16-lane reassociation;
//! results may differ from the scalar reference by a couple of ULPs per
//! element (reductions like `dot` additionally reassociate the sum).
//! NaN and ±∞ propagate the same way in both backends. The property suite
//! in `tests/prop_simd.rs` pins scalar/SIMD agreement across lengths
//! 0–512, including non-multiple-of-8 tails and non-finite inputs.

use crate::sigmoid::SigmoidTable;
use std::sync::OnceLock;

/// Signature of the per-pair SGNS kernel: `win` (a `syn0` row) stepped
/// against rows `targets` of `layer` (`syn1neg`'s backing buffer, rows
/// of `win.len()`), accumulating into `neu1e`.
pub type SgnsPairFn = fn(
    win: &[f32],
    layer: &mut [f32],
    targets: &[u32],
    positive: bool,
    alpha: f32,
    sigmoid: &SigmoidTable,
    neu1e: &mut [f32],
);

/// Panics on the slice bound if an id of `targets` is past the last
/// `dim`-float row of `layer`, so a kernel writes nothing before it
/// fails.
#[inline]
fn check_rows(layer: &[f32], dim: usize, targets: &[u32]) {
    if let Some(&last) = targets.iter().max() {
        let _ = &layer[last as usize * dim..(last as usize + 1) * dim];
    }
}

/// Where a window kernel reads its rows and where it adds their deltas.
/// Layer 0 is `syn0` (the inputs' rows), layer 1 `syn1neg` (the
/// targets'); every layer holds rows of `dim` floats back to back.
#[derive(Debug)]
pub enum WindowRows<'a> {
    /// The rows are read from and updated in the same layers.
    InPlace([&'a mut [f32]; 2]),
    /// The rows are read from `src`, and each delta is added to the row
    /// of the same id in `dst`. A `dst` row of `-0.0` (the additive
    /// identity) receives the delta's exact bits.
    Apart {
        /// The layers read.
        src: [&'a [f32]; 2],
        /// The layers written.
        dst: [&'a mut [f32]; 2],
    },
}

/// Signature of the HogBatch window kernel: the `inputs` rows of layer 0
/// against the `targets` rows of layer 1, rows of `dim` floats, each
/// row's delta added to its destination, working in `room` (see
/// [`Kernels::sgns_window`]).
pub type SgnsWindowFn = fn(
    rows: WindowRows<'_>,
    dim: usize,
    inputs: &[u32],
    targets: &[u32],
    alpha: f32,
    sigmoid: &SigmoidTable,
    room: &mut WindowRoom,
);

/// The room a window kernel works in (its row-pointer lists, `G` and
/// the input deltas), grown to the largest window it is handed and then
/// reused, so a kernel call allocates nothing once its window size has
/// been seen. Keep one per worker; what it holds between calls is never
/// read.
#[derive(Clone, Debug, Default)]
pub struct WindowRoom(Vec<u64>);

impl WindowRoom {
    /// Uninitialised room for `n` eight-byte words.
    #[inline(always)]
    fn words(&mut self, n: usize) -> *mut u64 {
        // The length stays 0, so this grows the capacity to `n` at most.
        self.0.reserve_exact(n);
        self.0.as_mut_ptr()
    }
}

/// A window's layers behind raw pointers, every id checked against the
/// layers it is read from and written to by [`Window::new`], so a row
/// pointer of an id the kernel was given stays inside its layer.
#[derive(Clone, Copy)]
struct Window {
    src: [*const f32; 2],
    dst: [*mut f32; 2],
    /// Floats of each destination layer, for the debug-build checks.
    dst_len: [usize; 2],
    dim: usize,
}

impl Window {
    /// Panics, before a kernel writes anything, if an id is past a
    /// layer it is read from or written to.
    fn new(rows: WindowRows<'_>, dim: usize, inputs: &[u32], targets: &[u32]) -> Self {
        let ids = [inputs, targets];
        match rows {
            WindowRows::InPlace(layers) => {
                for (layer, ids) in layers.iter().zip(ids) {
                    check_rows(layer, dim, ids);
                }
                let dst_len = layers.each_ref().map(|l| l.len());
                let dst = layers.map(|l| l.as_mut_ptr());
                Self {
                    src: dst.map(|p| p.cast_const()),
                    dst,
                    dst_len,
                    dim,
                }
            }
            WindowRows::Apart { src, dst } => {
                for ((src, dst), ids) in src.iter().zip(&dst).zip(ids) {
                    check_rows(src, dim, ids);
                    check_rows(dst, dim, ids);
                }
                Self {
                    src: src.map(|l| l.as_ptr()),
                    dst_len: dst.each_ref().map(|l| l.len()),
                    dst: dst.map(|l| l.as_mut_ptr()),
                    dim,
                }
            }
        }
    }

    /// Row `id` of layer `layer` to read.
    #[inline(always)]
    fn src(&self, layer: usize, id: u32) -> *const f32 {
        self.src[layer].wrapping_add(id as usize * self.dim)
    }

    /// Row `id` of layer `layer` to write.
    #[inline(always)]
    fn dst(&self, layer: usize, id: u32) -> *mut f32 {
        debug_assert!(
            (id as usize + 1) * self.dim <= self.dst_len[layer],
            "row {id} is past layer {layer}"
        );
        self.dst[layer].wrapping_add(id as usize * self.dim)
    }
}

/// Signature of the one-pass `(x·y, x·x, y·y)` kernel.
pub(crate) type DotNormsFn = fn(x: &[f32], y: &[f32]) -> (f32, f32, f32);

/// Signature of the small-matrix GEMM kernels (`gemm_nt`/`gemm_tn`):
/// `C[m×n] += op(A) · op(B)` with `k` the contraction length.
pub(crate) type GemmFn = fn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]);

/// Signature of the bulk row-quantization kernel: `values` holds
/// `n = scales.len()` rows of `dim` `f32`s back to back; each row is
/// mapped to `dim` `u8` codes in `out` plus one `f32` scale/offset pair.
pub(crate) type QuantizeFn =
    fn(values: &[f32], dim: usize, scales: &mut [f32], offsets: &mut [f32], out: &mut [u8]);

/// Signature of the bulk row-dequantization kernel; the approximate
/// inverse of [`QuantizeFn`]: `values[r·dim + i] = offsets[r] +
/// scales[r] · packed[r·dim + i]`.
pub(crate) type DequantizeFn =
    fn(packed: &[u8], dim: usize, scales: &[f32], offsets: &[f32], values: &mut [f32]);

/// Signature of the coded-scan kernel: one `i8` query against rows of
/// 4-bit codes in [`CODE_BLOCK_ROWS`]-row blocks (see
/// [`pack_code_block`]), writing each row's integer dot to `dots`, its
/// [`CodeBound::row`] to `bounds` and folding the bounds into
/// `lane_max` (see [`Kernels::dot_codes`]).
pub(crate) type DotCodesFn = fn(
    q: &[i8],
    codes: &[u8],
    bound: &CodeBound<'_>,
    dots: &mut [i32],
    bounds: &mut [f32],
    lane_max: &mut [f32; CODE_BLOCK_ROWS],
);

/// Signature of the whitespace-mask kernel: bit `i` of the result is
/// set iff `block[i]` is ASCII whitespace (see
/// [`Kernels::ascii_whitespace`]).
pub type WhitespaceMaskFn = fn(block: &[u8; 64]) -> u64;

/// Signature of the decimal-parse kernel: the `f32` of the token at the
/// start of `tail`, which ends at the first ASCII-whitespace byte, and
/// the token's length (see [`Kernels::parse_f32`]).
pub type ParseF32Fn = fn(tail: &[u8]) -> (Option<f32>, usize);

/// Rows in one block of 4-bit codes: one per 32-bit lane of a 256-bit
/// register.
pub const CODE_BLOCK_ROWS: usize = 8;

/// Bytes of one block of [`CODE_BLOCK_ROWS`] rows of `dim` 4-bit codes:
/// a 32-byte group per eight coordinates, the last group zero-padded.
pub const fn code_block_bytes(dim: usize) -> usize {
    32 * dim.div_ceil(8)
}

/// Packs [`CODE_BLOCK_ROWS`] rows of `dim` codes, each at most 15 and
/// one per byte, row-major, into one block: group `g` holds 32 bytes,
/// row `r`'s four at `32·g + 4·r`, coordinate `8·g + t` in the low
/// nibble of byte `t` and `8·g + 4 + t` in its high nibble (`t < 4`).
/// Coordinates past `dim` are zero codes.
pub fn pack_code_block(codes: &[u8], dim: usize, block: &mut [u8]) {
    assert_eq!(codes.len(), CODE_BLOCK_ROWS * dim);
    assert_eq!(block.len(), code_block_bytes(dim));
    block.fill(0);
    for (r, row) in codes.chunks_exact(dim.max(1)).enumerate() {
        for (i, &c) in row.iter().enumerate() {
            debug_assert!(c <= 15, "code {c} does not fit a nibble");
            block[32 * (i / 8) + 4 * r + i % 4] |= c << (4 * (i % 8 / 4));
        }
    }
}

/// What turns a row's integer dot `I` with the codes into the coded
/// scan's upper bound on its cosine (docs/SERVING.md § "The bound"):
/// per-row `a`, `b` and `slack`, aligned with the rows of a
/// [`Kernels::dot_codes`] call, and the query's four scalars.
#[derive(Clone, Copy, Debug)]
pub struct CodeBound<'a> {
    /// Per row: the slope from a dot with the codes to a cosine.
    pub a: &'a [f32],
    /// Per row: the intercept, times the query's sum.
    pub b: &'a [f32],
    /// Per row: what the bound allows for, times the query's norm.
    pub slack: &'a [f32],
    /// The query's `2^-shift`: its integer dot times this is a dot of
    /// the unrounded query, give or take `lift`.
    pub unscale: f32,
    /// What the query's rounding can hide of a dot with the codes.
    pub lift: f32,
    /// The query's coordinate sum.
    pub sum: f32,
    /// The query's Euclidean norm.
    pub norm: f32,
}

impl CodeBound<'_> {
    /// The bound of row `j` given its integer dot: `a·(fl(I)·unscale +
    /// lift) + b·sum + slack·norm`, in that operation order, every
    /// operation one `f32` rounding (no FMA), and `+∞` in place of NaN.
    #[inline(always)]
    pub fn row(&self, j: usize, dot: i32) -> f32 {
        let ub = self.a[j] * (dot as f32 * self.unscale + self.lift)
            + self.b[j] * self.sum
            + self.slack[j] * self.norm;
        if ub.is_nan() {
            f32::INFINITY
        } else {
            ub
        }
    }

    /// The same bound over rows `from..` of this one.
    fn from(&self, from: usize) -> Self {
        Self {
            a: &self.a[from..],
            b: &self.b[from..],
            slack: &self.slack[from..],
            ..*self
        }
    }
}

/// Panics unless a [`Kernels::dot_codes`] call's slices agree: `dots`
/// rows, the codes of their blocks (the last one whole), and one `a`,
/// `b`, `slack` and bound per row.
fn check_codes(dim: usize, codes: &[u8], bound: &CodeBound<'_>, dots: &[i32], bounds: &[f32]) {
    let n = dots.len();
    assert_eq!(
        codes.len(),
        n.div_ceil(CODE_BLOCK_ROWS) * code_block_bytes(dim)
    );
    assert!(
        bounds.len() == n && bound.a.len() == n && bound.b.len() == n && bound.slack.len() == n,
        "one bound, a, b and slack per row"
    );
}

/// The per-backend kernel function table.
///
/// # Dispatch contract
///
/// * The table is chosen **once per process** (on the first [`kernels`]
///   call) and never changes afterwards: a run is entirely scalar or
///   entirely AVX2, so intermediate results compose bit-identically
///   across every crate in the workspace.
/// * Every entry accepts **any slice length**, including zero and
///   non-multiple-of-lane-width tails; vector backends must handle the
///   tail with the scalar reference code so the last elements are not
///   special-cased differently between backends.
/// * All slices must have matching lengths (debug-asserted);
///   `fused_grad_step` requires `win`, `wout`, and `neu1e` to be
///   non-overlapping, which Rust's borrow rules already guarantee for
///   safe callers.
/// * A backend may reassociate reductions and use FMA (see the module
///   docs on numerics) but must propagate NaN/±∞ identically to the
///   scalar reference and must never read or write out of bounds —
///   new backends are gated by `tests/prop_simd.rs` before dispatch.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// Dot product `x · y`.
    pub dot: fn(x: &[f32], y: &[f32]) -> f32,
    /// `y += a · x`.
    pub axpy: fn(a: f32, x: &[f32], y: &mut [f32]),
    /// `x *= a`.
    pub scale: fn(a: f32, x: &mut [f32]),
    /// `out = x - y`.
    pub sub_into: fn(x: &[f32], y: &[f32], out: &mut [f32]),
    /// `x += y`.
    pub add_assign: fn(x: &mut [f32], y: &[f32]),
    /// One-pass `(x·y, x·x, y·y)` for cosine similarity.
    pub dot_norms: DotNormsFn,
    /// Fused SGNS gradient step: `neu1e += g·wout; wout += g·win`, reading
    /// each row once (`wout` is read before it is updated).
    pub fused_grad_step: fn(g: f32, win: &[f32], wout: &mut [f32], neu1e: &mut [f32]),
    /// One SGNS pair, the paper's per-edge operator (§4.1), in one call:
    /// for each `t` of `targets`, in order, with `wout` = row `t` of
    /// `layer`: `f = dot(win, wout)`, `g = (label − σ(f)) · alpha` with
    /// σ from [`SigmoidTable::value`], then `fused_grad_step(g, win,
    /// wout, neu1e)`. The label is 1 for `targets[0]` when `positive`
    /// and 0 everywhere else, so a caller may hand a long target list
    /// over in several calls (only the first `positive`): `neu1e` is
    /// only ever accumulated into, never zeroed or applied. **On each
    /// backend bit-identical to that composition of the backend's own
    /// `dot` and `fused_grad_step`** — a repeated target sees the
    /// earlier step's write — and therefore different *between*
    /// backends by exactly what `dot` and `fused_grad_step` differ by
    /// (FMA, lane association). `layer` holds rows of `win.len()`
    /// floats back to back; an id past its last row panics on the slice
    /// bound before any row is written. `win` and `neu1e` cannot alias
    /// `layer` (borrow rules), which is why the row being read lives
    /// in the other matrix.
    pub sgns_pair: SgnsPairFn,
    /// One HogBatch window (Ji et al.'s shared-negative minibatch), each
    /// row read and written in place: `X` = the `inputs` rows of layer
    /// 0, `O` = the `targets` rows of layer 1, `S = X·Oᵀ`, `G[r][j] =
    /// (label_j − σ(S[r][j])) · alpha` with label 1 for `j = 0` only and
    /// σ from [`SigmoidTable::value`], `ΔO = Gᵀ·X` and `ΔX = G·O`; then
    /// each delta row is added to its destination row (the same layers,
    /// or the `dst` of [`WindowRows::Apart`]) in a scatter's order: the
    /// targets' rows first, then the inputs', each in list order. Every
    /// product reads the rows as they were before the call, so a
    /// repeated id adds each of its deltas, each computed against the
    /// start-of-window rows. **On each backend bit-identical to that
    /// composition of the backend's own kernels**: the rows gathered,
    /// [`gemm_nt`](Self::gemm_nt) into zeros, σ, two
    /// [`gemm_tn`](Self::gemm_tn) into zeros (`Gᵀ` transposed for the
    /// first), then one [`add_assign`](Self::add_assign) per delta row
    /// in that order, up to NaN payloads. An id past a layer it is read
    /// from or written to panics before anything is written. The kernel
    /// works in the caller's [`WindowRoom`], which it grows as needed.
    pub sgns_window: SgnsWindowFn,
    /// Small-matrix GEMM, "NT" shape: `C[m×n] += A[m×k] · B[n×k]ᵀ`.
    /// All matrices row-major; `B` holds `n` rows of length `k`, so each
    /// `C[i][j]` accumulates the dot product of row `i` of `A` with row
    /// `j` of `B`. This is the serve scan (`A` = the batch's unit
    /// queries, `B` = a tile of the table) and the score product
    /// [`sgns_window`](Self::sgns_window) is held to. The vector backend
    /// holds a 2×4 block of `C` in registers; on both backends an
    /// output depends only on its two rows and on whether its `B` row
    /// falls in the `n % 4` tail, so a caller may split `A` anywhere and
    /// `B` at multiples of four rows without changing a bit.
    pub gemm_nt: GemmFn,
    /// Small-matrix GEMM, "TN" shape: `C[m×n] += A[k×m]ᵀ · B[k×n]`.
    /// All matrices row-major; `C[i][j]` accumulates
    /// `Σ_l A[l][i] · B[l][j]`: the rank-k updates
    /// [`sgns_window`](Self::sgns_window) is held to (`A` = the tiny
    /// gradient matrix, `B` = gathered rows, `n` = embedding dim).
    pub gemm_tn: GemmFn,
    /// Bulk per-row u8 quantization for the `--wire quant` payload mode:
    /// each row's values map affinely onto the 0..=255 grid
    /// (`offset = min(row)`, `scale = (max − min)/255`, codes rounded
    /// nearest-ties-even). **Backend-bit-identical by contract**: both
    /// implementations use plain sub/mul (never FMA) plus one
    /// correctly-rounded round-to-nearest-even per element, so scalar
    /// and AVX2 produce identical codes, scales, and offsets for any
    /// finite input — quantized payloads must not depend on the
    /// sender's backend. Inputs are finite by contract (wire rows never
    /// carry NaN/∞).
    pub quantize_rows: QuantizeFn,
    /// Bulk dequantization: `offset + scale · code`, plain mul+add (no
    /// FMA). Both tables hold the scalar entry, so reconstruction is
    /// backend-bit-identical too.
    pub dequantize_rows: DequantizeFn,
    /// One `i8` query against rows of 4-bit codes laid out in blocks of
    /// [`CODE_BLOCK_ROWS`] by [`pack_code_block`], `dim = q.len()`:
    /// `dots[j] = Σ_i q[i] · code_j[i]` in wrapping `i32` arithmetic,
    /// `bounds[j] = bound.row(j, dots[j])`, and `lane_max[j % 8]` raised
    /// to each `bounds[j]` in row order as `if m > x { m } else { x }`;
    /// any `dim`, any row count (the codes of a last partial block are
    /// still a whole block). **Backend-bit-identical by contract**, and
    /// the dots are exact when `15·Σ_i |q[i]| < 2³¹` — docs/SERVING.md
    /// § "Coded scan" states the contract and the bound built on it.
    pub dot_codes: DotCodesFn,
    /// CRC-32 (IEEE) state update behind [`crate::crc32::Crc32::update`]:
    /// absorbs `bytes` into the raw (pre-inversion) `state` and returns
    /// the new state. Slice-by-8 in the scalar table, PCLMULQDQ folding
    /// in the vector table. **Backend-bit-identical by contract** for
    /// every length and every incoming state — sealed frames,
    /// checkpoint trailers and fingerprints must not depend on which
    /// backend wrote them.
    pub crc32_update: fn(state: u32, bytes: &[u8]) -> u32,
    /// The ASCII-whitespace mask of a 64-byte block: bit `i` is set iff
    /// `block[i].is_ascii_whitespace()` — space, `\t`, `\n`, `\x0C` and
    /// `\r`, never `\x0B` or a byte of a non-ASCII space. The one byte
    /// classifier under [`crate::split`], so the readers that split
    /// through it (listed there) cut tokens where
    /// `str::split_ascii_whitespace` does.
    /// **Backend-bit-identical by contract.**
    pub ascii_whitespace: WhitespaceMaskFn,
    /// The token at the start of `tail` — its bytes up to the first
    /// ASCII-whitespace byte (space, `\t`, `\n`, `\x0C`, `\r`) or the
    /// end of `tail` — read as `str::parse::<f32>` reads it, bit for bit,
    /// and its length: the kernel finds the token's end itself. The value
    /// is `None` where `str::parse` fails or the token is not UTF-8;
    /// an empty token (`tail` empty or starting with whitespace) is
    /// `(None, 0)`. The scalar entry finds the end and reads
    /// `-?[0-9]+(\.[0-9]+)?` one byte at a time. The AVX2 entry classifies
    /// the first 16 bytes and reads a token of at most 16 bytes in that
    /// one load, so it wants `tail` to hold 16 bytes (the scalar entry
    /// reads anything else). Both round a decimal of mantissa `m < 2^53`
    /// and `k ≤ 22` fraction digits with one `f64` division (see
    /// [`scalar::parse_f32`]) and hand every other form to `str::parse`.
    /// **Backend-bit-identical by contract**, the length too.
    pub parse_f32: ParseF32Fn,
}

static SCALAR_KERNELS: Kernels = Kernels {
    dot: scalar::dot,
    axpy: scalar::axpy,
    scale: scalar::scale,
    sub_into: scalar::sub_into,
    add_assign: scalar::add_assign,
    dot_norms: scalar::dot_norms,
    fused_grad_step: scalar::fused_grad_step,
    sgns_pair: scalar::sgns_pair,
    sgns_window: scalar::sgns_window,
    gemm_nt: scalar::gemm_nt,
    gemm_tn: scalar::gemm_tn,
    quantize_rows: scalar::quantize_rows,
    dequantize_rows: scalar::dequantize_rows,
    dot_codes: scalar::dot_codes,
    crc32_update: scalar::crc32_update,
    ascii_whitespace: scalar::ascii_whitespace,
    parse_f32: scalar::parse_f32,
};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
static AVX2_KERNELS: Kernels = Kernels {
    dot: |x, y| unsafe { avx2::dot(x, y) },
    axpy: |a, x, y| unsafe { avx2::axpy(a, x, y) },
    scale: |a, x| unsafe { avx2::scale(a, x) },
    sub_into: |x, y, out| unsafe { avx2::sub_into(x, y, out) },
    add_assign: |x, y| unsafe { avx2::add_assign(x, y) },
    dot_norms: |x, y| unsafe { avx2::dot_norms(x, y) },
    fused_grad_step: |g, win, wout, neu1e| unsafe { avx2::fused_grad_step(g, win, wout, neu1e) },
    sgns_pair: |win, layer, targets, positive, alpha, sigmoid, neu1e| unsafe {
        avx2::sgns_pair(win, layer, targets, positive, alpha, sigmoid, neu1e)
    },
    sgns_window: |rows, dim, inputs, targets, alpha, sigmoid, room| unsafe {
        avx2::sgns_window(rows, dim, inputs, targets, alpha, sigmoid, room)
    },
    gemm_nt: |m, n, k, a, b, c| unsafe { avx2::gemm_nt(m, n, k, a, b, c) },
    gemm_tn: |m, n, k, a, b, c| unsafe { avx2::gemm_tn(m, n, k, a, b, c) },
    quantize_rows: |values, dim, scales, offsets, out| unsafe {
        avx2::quantize_rows(values, dim, scales, offsets, out)
    },
    // One entry on both tables: an AVX2 loop measured no faster than
    // the scalar one.
    dequantize_rows: scalar::dequantize_rows,
    dot_codes: |q, codes, bound, dots, bounds, lane_max| unsafe {
        avx2::dot_codes(q, codes, bound, dots, bounds, lane_max)
    },
    // SAFETY: needs two CPUID bits the table's avx2+fma test does not
    // imply; `select` keeps this entry only where `clmul::supported()`
    // and installs slice-by-8 otherwise.
    crc32_update: |state, bytes| unsafe { crate::crc32::clmul::update(state, bytes) },
    ascii_whitespace: |block| unsafe { avx2::ascii_whitespace(block) },
    parse_f32: |tail| unsafe { avx2::parse_f32(tail) },
};

struct Selected {
    kernels: Kernels,
    name: &'static str,
}

static SELECTED: OnceLock<Selected> = OnceLock::new();

fn select() -> Selected {
    if force_scalar() {
        return Selected {
            kernels: SCALAR_KERNELS,
            name: "scalar (forced by GW2V_FORCE_SCALAR)",
        };
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            let mut kernels = AVX2_KERNELS;
            if !crate::crc32::clmul::supported() {
                kernels.crc32_update = SCALAR_KERNELS.crc32_update;
            }
            return Selected {
                kernels,
                name: "avx2+fma",
            };
        }
    }
    Selected {
        kernels: SCALAR_KERNELS,
        name: "scalar",
    }
}

/// True if `GW2V_FORCE_SCALAR` requests the scalar backend.
pub fn force_scalar() -> bool {
    matches!(
        std::env::var("GW2V_FORCE_SCALAR").as_deref(),
        Ok("1") | Ok("true")
    )
}

/// The process-wide kernel table (selected once, on first call).
#[inline]
pub fn kernels() -> &'static Kernels {
    &SELECTED.get_or_init(select).kernels
}

/// Human-readable name of the selected backend.
pub fn backend_name() -> &'static str {
    SELECTED.get_or_init(select).name
}

/// Exact powers of ten in `f64`: 10²² is the last one.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The correctly rounded `f32` of `±mantissa / 10^k`, or `None` where
/// one `f64` division does not settle it: see [`scalar::parse_f32`].
#[inline]
fn round_decimal(mantissa: u64, k: usize, negative: bool) -> Option<f32> {
    if mantissa >= 1 << 53 || k >= POW10.len() {
        return None;
    }
    let quotient = mantissa as f64 / POW10[k];
    const LOW: u64 = (1 << 29) - 1;
    if quotient.to_bits() & LOW == 1 << 28 {
        return None;
    }
    // The sign set without a branch: a model's signs are coin flips.
    let x = (quotient as f32).to_bits() | u32::from(negative) << 31;
    Some(f32::from_bits(x))
}

/// `str::parse::<f32>` of a token, where it is UTF-8: every form the
/// decimal fast paths leave.
fn parse_f32_str(token: &[u8]) -> Option<f32> {
    std::str::from_utf8(token).ok()?.parse().ok()
}

/// Portable scalar reference kernels.
///
/// These are the workspace's original 4-way-unrolled loops, moved here
/// verbatim: their exact operation order is load-bearing, because forced
/// scalar runs (`GW2V_FORCE_SCALAR=1`) must reproduce pre-dispatch results
/// bit-for-bit, and the SIMD property tests compare against them.
pub mod scalar {
    use crate::sigmoid::SigmoidTable;

    /// Dot product `x · y` with four independent accumulators, folded as
    /// `(s0 + s1) + (s2 + s3)`.
    #[inline]
    pub fn dot(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let chunks = n / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in 0..chunks {
            let b = i * 4;
            s0 += x[b] * y[b];
            s1 += x[b + 1] * y[b + 1];
            s2 += x[b + 2] * y[b + 2];
            s3 += x[b + 3] * y[b + 3];
        }
        let mut s = (s0 + s1) + (s2 + s3);
        for i in chunks * 4..n {
            s += x[i] * y[i];
        }
        s
    }

    /// `y += a * x`.
    #[inline]
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let chunks = n / 4;
        for i in 0..chunks {
            let b = i * 4;
            y[b] += a * x[b];
            y[b + 1] += a * x[b + 1];
            y[b + 2] += a * x[b + 2];
            y[b + 3] += a * x[b + 3];
        }
        for i in chunks * 4..n {
            y[i] += a * x[i];
        }
    }

    /// `x *= a`.
    #[inline]
    pub fn scale(a: f32, x: &mut [f32]) {
        for v in x {
            *v *= a;
        }
    }

    /// `out = x - y`.
    #[inline]
    pub fn sub_into(x: &[f32], y: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        debug_assert_eq!(x.len(), out.len());
        for i in 0..x.len() {
            out[i] = x[i] - y[i];
        }
    }

    /// `x += y`.
    #[inline]
    pub fn add_assign(x: &mut [f32], y: &[f32]) {
        axpy(1.0, y, x);
    }

    /// One-pass `(x·y, x·x, y·y)`. Each reduction uses the same four
    /// accumulators and fold order as [`dot`], so the three results are
    /// bit-identical to three separate `dot` calls.
    #[inline]
    pub fn dot_norms(x: &[f32], y: &[f32]) -> (f32, f32, f32) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let chunks = n / 4;
        let mut xy = [0.0f32; 4];
        let mut xx = [0.0f32; 4];
        let mut yy = [0.0f32; 4];
        for i in 0..chunks {
            let b = i * 4;
            for l in 0..4 {
                let (a, c) = (x[b + l], y[b + l]);
                xy[l] += a * c;
                xx[l] += a * a;
                yy[l] += c * c;
            }
        }
        let mut sxy = (xy[0] + xy[1]) + (xy[2] + xy[3]);
        let mut sxx = (xx[0] + xx[1]) + (xx[2] + xx[3]);
        let mut syy = (yy[0] + yy[1]) + (yy[2] + yy[3]);
        for i in chunks * 4..n {
            let (a, c) = (x[i], y[i]);
            sxy += a * c;
            sxx += a * a;
            syy += c * c;
        }
        (sxy, sxx, syy)
    }

    /// Fused SGNS gradient step. Element-wise this is exactly
    /// `axpy(g, wout, neu1e)` followed by `axpy(g, win, wout)`: each lane
    /// is independent, so fusing the loops preserves bitwise results.
    #[inline]
    pub fn fused_grad_step(g: f32, win: &[f32], wout: &mut [f32], neu1e: &mut [f32]) {
        debug_assert_eq!(win.len(), wout.len());
        debug_assert_eq!(win.len(), neu1e.len());
        for i in 0..win.len() {
            let w = wout[i];
            neu1e[i] += g * w;
            wout[i] = w + g * win[i];
        }
    }

    /// One SGNS pair: [`dot`] → [`SigmoidTable::value`] →
    /// [`fused_grad_step`] per target, in order, after checking every
    /// id against `layer` (see [`crate::simd::Kernels::sgns_pair`] for
    /// the contract).
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
        let dim = win.len();
        assert_eq!(neu1e.len(), dim, "neu1e length");
        super::check_rows(layer, dim, targets);
        for (k, &t) in targets.iter().enumerate() {
            let wout = &mut layer[t as usize * dim..(t as usize + 1) * dim];
            let label = if positive && k == 0 { 1.0f32 } else { 0.0 };
            let g = (label - sigmoid.value(dot(win, wout))) * alpha;
            fused_grad_step(g, win, wout, neu1e);
        }
    }

    /// One HogBatch window (see [`crate::simd::Kernels::sgns_window`]
    /// for the contract). First all of `G`: `g = (label − σ(dot(x_r,
    /// o_j))) · alpha` for each input `r`, then each target `j`. Then
    /// every `ΔX_r` into a buffer (reading the target rows), then each
    /// `ΔO_j`, added to its row as it is made (reading only input rows),
    /// then each buffered `ΔX_r`, added to its row. A delta element is
    /// the composition's: [`gemm_nt`] is one [`dot`] per score (its `+
    /// 0` is invisible to σ), [`gemm_tn`] one [`axpy`] per term from
    /// `0.0` in increasing contraction index (`r` for `ΔO`, `j` for
    /// `ΔX`), and the scatter one [`add_assign`].
    pub fn sgns_window(
        rows: super::WindowRows<'_>,
        dim: usize,
        inputs: &[u32],
        targets: &[u32],
        alpha: f32,
        sigmoid: &SigmoidTable,
        room: &mut super::WindowRoom,
    ) {
        let win = super::Window::new(rows, dim, inputs, targets);
        let (mb, nt) = (inputs.len(), targets.len());
        let g = room
            .words((mb * nt + (mb + 1) * dim).div_ceil(2))
            .cast::<f32>();
        // SAFETY: every row pointer is of an id `Window::new` checked,
        // `dim` floats; the room holds `G` (`mb × nt`), then `ΔX` (`mb ×
        // dim`) and one `ΔO` row, each zeroed or written before it is
        // read. A row is borrowed only while no row of its layer is
        // written.
        unsafe {
            let row = |p: *const f32| std::slice::from_raw_parts(p, dim);
            let zeroed = |p: *mut f32| {
                p.write_bytes(0, dim);
                std::slice::from_raw_parts_mut(p, dim)
            };
            for (r, &w) in inputs.iter().enumerate() {
                for (j, &t) in targets.iter().enumerate() {
                    let label = if j == 0 { 1.0f32 } else { 0.0 };
                    let f = dot(row(win.src(0, w)), row(win.src(1, t)));
                    *g.add(r * nt + j) = (label - sigmoid.value(f)) * alpha;
                }
            }
            let d_in = g.add(mb * nt);
            for r in 0..mb {
                let d = zeroed(d_in.add(r * dim));
                for (j, &t) in targets.iter().enumerate() {
                    axpy(*g.add(r * nt + j), row(win.src(1, t)), d);
                }
            }
            let d_out = d_in.add(mb * dim);
            for (j, &t) in targets.iter().enumerate() {
                let d = zeroed(d_out);
                for (r, &w) in inputs.iter().enumerate() {
                    axpy(*g.add(r * nt + j), row(win.src(0, w)), d);
                }
                add_assign(std::slice::from_raw_parts_mut(win.dst(1, t), dim), d);
            }
            for (r, &w) in inputs.iter().enumerate() {
                let out = std::slice::from_raw_parts_mut(win.dst(0, w), dim);
                add_assign(out, row(d_in.add(r * dim)));
            }
        }
    }

    /// CRC-32 (IEEE) state update, slice-by-8 over compile-time tables;
    /// the tables and the loop live in [`crate::crc32`].
    #[inline]
    pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
        crate::crc32::update_slice8(state, bytes)
    }

    /// ASCII-whitespace mask of a 64-byte block, one byte at a time with
    /// `u8::is_ascii_whitespace`.
    #[inline]
    pub fn ascii_whitespace(block: &[u8; 64]) -> u64 {
        block.iter().enumerate().fold(0, |mask, (i, b)| {
            mask | u64::from(b.is_ascii_whitespace()) << i
        })
    }

    /// The `f32` of the token at the start of `tail` (up to its first
    /// ASCII-whitespace byte), as `str::parse` reads it, and the token's
    /// length, with a fast path for `[-]digits[.digits]`, the forms a
    /// saved model holds: one byte at a time, one dependent multiply-add
    /// per digit.
    ///
    /// With a mantissa `m < 2^53` and `k ≤ 22` fraction digits, `m` and
    /// `10^k` are exact in `f64`, so one division rounds `m / 10^k` to
    /// the nearest `f64`. Rounding that to `f32` is rounding the decimal
    /// to `f32` unless an `f32` midpoint lies between the decimal and the
    /// `f64`; the `f64` is the nearest one to the decimal and midpoints
    /// are `f64`s, so the only such case is an `f64` exactly on a
    /// midpoint, and that goes to `str::parse`. A midpoint is an `f64`
    /// whose 29 low fraction bits are `1 << 28`: every nonzero quotient
    /// lies in `[10^-22, 2^53)`, inside the normal `f32` range.
    pub fn parse_f32(tail: &[u8]) -> (Option<f32>, usize) {
        let len = tail
            .iter()
            .position(u8::is_ascii_whitespace)
            .unwrap_or(tail.len());
        let token = &tail[..len];
        (
            parse_decimal(token).or_else(|| super::parse_f32_str(token)),
            len,
        )
    }

    /// [`parse_f32`]'s fast path: `None` for every other form, and for
    /// a decimal one `f64` division does not settle.
    pub(super) fn parse_decimal(bytes: &[u8]) -> Option<f32> {
        let (negative, digits) = match bytes {
            [b'-', rest @ ..] => (true, rest),
            _ => (false, bytes),
        };
        let (mut mantissa, mut int_digits, mut fraction_digits) = (0u64, 0usize, None::<usize>);
        for &b in digits {
            match b {
                b'0'..=b'9' => {
                    mantissa = mantissa * 10 + u64::from(b - b'0');
                    if mantissa >= 1 << 53 {
                        return None;
                    }
                    match &mut fraction_digits {
                        Some(k) => *k += 1,
                        None => int_digits += 1,
                    }
                }
                b'.' if fraction_digits.is_none() => fraction_digits = Some(0),
                _ => return None,
            }
        }
        if int_digits == 0 || fraction_digits == Some(0) {
            return None;
        }
        super::round_decimal(mantissa, fraction_digits.unwrap_or(0), negative)
    }

    /// Per-row affine u8 quantization (see [`crate::simd::Kernels`] for
    /// the cross-backend bit-identity contract).
    ///
    /// Every arithmetic step is a single correctly-rounded IEEE
    /// operation — `min + 0.0` (canonicalizes a `-0.0` minimum to
    /// `+0.0` so offsets have one wire representation), `max − min`,
    /// the two divisions by/into 255, `(v − offset) · inv`, and one
    /// `round_ties_even` — so any backend repeating the same steps
    /// reproduces the exact same codes. The clamp mirrors the vector
    /// `max_ps(t, 0)` / `min_ps(t, 255)` operand semantics (a NaN `t`
    /// clamps to 0), and a flat row (`max == min`, which also covers
    /// `±0.0` ties) short-circuits to `scale = 0`, all-zero codes.
    #[inline]
    pub fn quantize_rows(
        values: &[f32],
        dim: usize,
        scales: &mut [f32],
        offsets: &mut [f32],
        out: &mut [u8],
    ) {
        let n = scales.len();
        debug_assert_eq!(values.len(), n * dim);
        debug_assert_eq!(offsets.len(), n);
        debug_assert_eq!(out.len(), n * dim);
        if dim == 0 {
            scales.fill(0.0);
            offsets.fill(0.0);
            return;
        }
        for r in 0..n {
            let row = &values[r * dim..(r + 1) * dim];
            let codes = &mut out[r * dim..(r + 1) * dim];
            let mut min = row[0];
            let mut max = row[0];
            for &v in &row[1..] {
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
            let offset = min + 0.0;
            let range = max - min;
            offsets[r] = offset;
            if range == 0.0 {
                scales[r] = 0.0;
                codes.fill(0);
                continue;
            }
            scales[r] = range / 255.0;
            let inv = 255.0 / range;
            for (code, &v) in codes.iter_mut().zip(row) {
                let t = (v - offset) * inv;
                let t = if t > 0.0 { t } else { 0.0 };
                let t = if t < 255.0 { t } else { 255.0 };
                *code = t.round_ties_even() as u8;
            }
        }
    }

    /// Dequantization: `offset + scale · code`, one multiply and one add
    /// per element (never fused). The AVX2 table uses this entry too.
    #[inline]
    pub fn dequantize_rows(
        packed: &[u8],
        dim: usize,
        scales: &[f32],
        offsets: &[f32],
        values: &mut [f32],
    ) {
        let n = scales.len();
        debug_assert_eq!(packed.len(), n * dim);
        debug_assert_eq!(offsets.len(), n);
        debug_assert_eq!(values.len(), n * dim);
        for r in 0..n {
            let (scale, offset) = (scales[r], offsets[r]);
            let codes = &packed[r * dim..(r + 1) * dim];
            for (v, &code) in values[r * dim..(r + 1) * dim].iter_mut().zip(codes) {
                *v = offset + scale * (code as f32);
            }
        }
    }

    /// `dots[j] = Σ_i q[i] · code_j[i]`, `dim = q.len()`, row by row,
    /// reading each code from its nibble; then the row's bound and its
    /// lane's maximum (see [`Kernels::dot_codes`](super::Kernels::dot_codes)).
    pub fn dot_codes(
        q: &[i8],
        codes: &[u8],
        bound: &super::CodeBound<'_>,
        dots: &mut [i32],
        bounds: &mut [f32],
        lane_max: &mut [f32; super::CODE_BLOCK_ROWS],
    ) {
        let dim = q.len();
        super::check_codes(dim, codes, bound, dots, bounds);
        let block = super::code_block_bytes(dim);
        for (j, (dot, ub)) in dots.iter_mut().zip(bounds.iter_mut()).enumerate() {
            let lane = j % super::CODE_BLOCK_ROWS;
            let blk = &codes[j / super::CODE_BLOCK_ROWS * block..][..block];
            let mut s = 0i32;
            for (g, group) in q.chunks(8).enumerate() {
                for (t, &x) in group.iter().enumerate() {
                    let code = (blk[32 * g + 4 * lane + t % 4] >> (4 * (t / 4))) & 15;
                    s = s.wrapping_add(x as i32 * code as i32);
                }
            }
            *dot = s;
            *ub = bound.row(j, s);
            let m = &mut lane_max[lane];
            *m = if *m > *ub { *m } else { *ub };
        }
    }

    /// `C[m×n] += A[m×k] · B[n×k]ᵀ`, row-major. Each output element is
    /// one [`dot`] call over rows of `A` and `B`, so every entry carries
    /// the reference dot product's exact accumulator fold.
    pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(c.len(), m * n);
        for i in 0..m {
            let ar = &a[i * k..(i + 1) * k];
            let cr = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                cr[j] += dot(ar, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// `C[m×n] += A[k×m]ᵀ · B[k×n]`, row-major. Row `i` of `C`
    /// accumulates `Σ_l A[l][i] · row_l(B)`, applied as `k` successive
    /// [`axpy`] calls in increasing-`l` order — the accumulation order is
    /// part of the reference semantics.
    pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        for l in 0..k {
            let br = &b[l * n..(l + 1) * n];
            for i in 0..m {
                axpy(a[l * m + i], br, &mut c[i * n..(i + 1) * n]);
            }
        }
    }
}

/// AVX2+FMA kernels. Callers must have verified `avx2` and `fma` support
/// (the dispatch table in [`select`] does).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    use crate::sigmoid::SigmoidTable;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Horizontal sum of the 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        // Register-only intrinsics are safe inside a matching
        // #[target_feature] fn; no inner unsafe block needed.
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let quad = _mm_add_ps(lo, hi);
        let duo = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        let one = _mm_add_ss(duo, _mm_movehdup_ps(duo));
        _mm_cvtss_f32(one)
    }

    /// ASCII-whitespace mask of a 64-byte block, 32 bytes a compare. A
    /// byte `b` is whitespace iff `T[b & 15] == b` for the table `T`
    /// below: `vpshufb` looks `T` up by the low nibble (and yields 0
    /// for a byte with its high bit set, which equals no such byte).
    /// `T` holds `0x20` at 0, itself at 9, 10, 12 and 13, and `0xFF`,
    /// whose low nibble is none of theirs, everywhere else.
    #[target_feature(enable = "avx2")]
    pub unsafe fn ascii_whitespace(block: &[u8; 64]) -> u64 {
        const FF: i8 = -1;
        let table = _mm256_setr_epi8(
            0x20, FF, FF, FF, FF, FF, FF, FF, FF, 0x09, 0x0A, FF, 0x0C, 0x0D, FF, FF, //
            0x20, FF, FF, FF, FF, FF, FF, FF, FF, 0x09, 0x0A, FF, 0x0C, 0x0D, FF, FF,
        );
        let p = block.as_ptr();
        // SAFETY: both 32-byte loads lie inside the 64-byte block.
        let (lo, hi) = unsafe {
            (
                _mm256_loadu_si256(p.cast()),
                _mm256_loadu_si256(p.add(32).cast()),
            )
        };
        let lo = _mm256_cmpeq_epi8(_mm256_shuffle_epi8(table, lo), lo);
        let hi = _mm256_cmpeq_epi8(_mm256_shuffle_epi8(table, hi), hi);
        u64::from(_mm256_movemask_epi8(lo) as u32)
            | u64::from(_mm256_movemask_epi8(hi) as u32) << 32
    }

    /// The `f32` of a token of at most 16 bytes read in one 16-byte load
    /// (any other call is the scalar entry's). The load's whitespace
    /// mask (the `pshufb` table of [`ascii_whitespace`]) ends the token
    /// at its lowest bit, or at byte 16 where that one is whitespace or
    /// past the end. Masks of the digit and dot bytes check the token
    /// against `-?[0-9]+(\.[0-9]+)?` (a mismatch goes to `str::parse`);
    /// one `pshufb` squeezes out the dot and right-aligns the digits
    /// behind zeros, and `pmaddubsw`, `pmaddwd`, `packusdw` and
    /// `pmaddwd` fold them into two 8-digit halves, `m = hi · 10^8 + lo`. The token's `m` and `k`
    /// are then exactly those of the scalar loop, and so is the rounding.
    #[target_feature(enable = "avx2")]
    pub unsafe fn parse_f32(tail: &[u8]) -> (Option<f32>, usize) {
        let Some(block) = tail.first_chunk::<16>() else {
            return super::scalar::parse_f32(tail);
        };
        // SAFETY: the load lies inside the 16-byte block.
        let v = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        const FF: i8 = -1;
        let table = _mm_setr_epi8(
            0x20, FF, FF, FF, FF, FF, FF, FF, FF, 0x09, 0x0A, FF, 0x0C, 0x0D, FF, FF,
        );
        let ws = _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_shuffle_epi8(table, v), v)) as u32;
        let len = if ws != 0 {
            ws.trailing_zeros()
        } else if tail.get(16).is_none_or(u8::is_ascii_whitespace) {
            16
        } else {
            return super::scalar::parse_f32(tail);
        };
        let d = _mm_sub_epi8(v, _mm_set1_epi8(b'0' as i8));
        let digits = _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_min_epu8(d, _mm_set1_epi8(9)), d)) as u32;
        let dots = _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(b'.' as i8))) as u32;
        let sign = u32::from(block[0] == b'-');
        // The token's bytes after the sign (`sign` is bit 0 or nothing):
        // digits and at most one dot, with a digit on each side of it.
        let body = ((1u32 << len) - 1) & !sign;
        let dot = dots & body;
        let at = dot.trailing_zeros();
        let valid = (digits | dot) & body == body
            && if dot == 0 {
                body != 0
            } else {
                dot & (dot - 1) == 0 && at > sign && at + 1 < len
            };
        let token = &block[..len as usize];
        if !valid {
            return (super::parse_f32_str(token), token.len());
        }
        // The digits end at `end` once the dot is squeezed out. Output
        // byte `j` takes byte `j + end - 16` (a zero where that is
        // negative: `pshufb` reads an index with its top bit set as 0),
        // one further on in the last `k` bytes, which hold the fraction;
        // `subs` then turns the digits into 0–9 and the sign into 0.
        let (end, k) = if dot == 0 {
            (len, 0)
        } else {
            (len - 1, len - 1 - at)
        };
        let iota = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let from = _mm_add_epi8(iota, _mm_set1_epi8(end as i8 - 16));
        let fraction = _mm_cmpgt_epi8(iota, _mm_set1_epi8(15 - k as i8));
        let idx = _mm_sub_epi8(from, fraction);
        let x = _mm_subs_epu8(_mm_shuffle_epi8(v, idx), _mm_set1_epi8(b'0' as i8));
        let x = _mm_maddubs_epi16(
            x,
            _mm_setr_epi8(10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1),
        );
        let x = _mm_madd_epi16(x, _mm_setr_epi16(100, 1, 100, 1, 100, 1, 100, 1));
        let x = _mm_packus_epi32(x, x);
        let x = _mm_madd_epi16(x, _mm_setr_epi16(10000, 1, 10000, 1, 10000, 1, 10000, 1));
        let hi = u64::from(_mm_cvtsi128_si32(x) as u32);
        let lo = u64::from(_mm_extract_epi32::<1>(x) as u32);
        let x = super::round_decimal(hi * 100_000_000 + lo, k as usize, sign == 1)
            .or_else(|| super::parse_f32_str(token));
        (x, token.len())
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        // SAFETY: all loads stay within `n` elements of the slices.
        unsafe {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 16 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 8)),
                    _mm256_loadu_ps(yp.add(i + 8)),
                    acc1,
                );
                i += 16;
            }
            if i + 8 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
                i += 8;
            }
            let mut s = hsum(_mm256_add_ps(acc0, acc1));
            while i < n {
                s = x[i].mul_add(y[i], s);
                i += 1;
            }
            s
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        // SAFETY: all loads/stores stay within `n` elements.
        unsafe {
            let va = _mm256_set1_ps(a);
            let mut i = 0usize;
            while i + 8 <= n {
                let v = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
                _mm256_storeu_ps(yp.add(i), v);
                i += 8;
            }
            while i < n {
                y[i] = a.mul_add(x[i], y[i]);
                i += 1;
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn scale(a: f32, x: &mut [f32]) {
        let n = x.len();
        let xp = x.as_mut_ptr();
        // SAFETY: all loads/stores stay within `n` elements.
        unsafe {
            let va = _mm256_set1_ps(a);
            let mut i = 0usize;
            while i + 8 <= n {
                _mm256_storeu_ps(xp.add(i), _mm256_mul_ps(va, _mm256_loadu_ps(xp.add(i))));
                i += 8;
            }
            while i < n {
                x[i] *= a;
                i += 1;
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sub_into(x: &[f32], y: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        debug_assert_eq!(x.len(), out.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let op = out.as_mut_ptr();
        // SAFETY: all loads/stores stay within `n` elements.
        unsafe {
            let mut i = 0usize;
            while i + 8 <= n {
                _mm256_storeu_ps(
                    op.add(i),
                    _mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i))),
                );
                i += 8;
            }
            while i < n {
                out[i] = x[i] - y[i];
                i += 1;
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn add_assign(x: &mut [f32], y: &[f32]) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_mut_ptr();
        let yp = y.as_ptr();
        // SAFETY: all loads/stores stay within `n` elements.
        unsafe {
            let mut i = 0usize;
            while i + 8 <= n {
                _mm256_storeu_ps(
                    xp.add(i),
                    _mm256_add_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i))),
                );
                i += 8;
            }
            while i < n {
                x[i] += y[i];
                i += 1;
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_norms(x: &[f32], y: &[f32]) -> (f32, f32, f32) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        // SAFETY: all loads stay within `n` elements.
        unsafe {
            let mut axy = _mm256_setzero_ps();
            let mut axx = _mm256_setzero_ps();
            let mut ayy = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 8 <= n {
                let vx = _mm256_loadu_ps(xp.add(i));
                let vy = _mm256_loadu_ps(yp.add(i));
                axy = _mm256_fmadd_ps(vx, vy, axy);
                axx = _mm256_fmadd_ps(vx, vx, axx);
                ayy = _mm256_fmadd_ps(vy, vy, ayy);
                i += 8;
            }
            let mut sxy = hsum(axy);
            let mut sxx = hsum(axx);
            let mut syy = hsum(ayy);
            while i < n {
                let (a, c) = (x[i], y[i]);
                sxy = a.mul_add(c, sxy);
                sxx = a.mul_add(a, sxx);
                syy = c.mul_add(c, syy);
                i += 1;
            }
            (sxy, sxx, syy)
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn fused_grad_step(g: f32, win: &[f32], wout: &mut [f32], neu1e: &mut [f32]) {
        debug_assert_eq!(win.len(), wout.len());
        debug_assert_eq!(win.len(), neu1e.len());
        let n = win.len();
        let ip = win.as_ptr();
        let op = wout.as_mut_ptr();
        let np = neu1e.as_mut_ptr();
        // SAFETY: all loads/stores stay within `n` elements; the three
        // slices are disjoint by Rust's aliasing rules.
        unsafe {
            let vg = _mm256_set1_ps(g);
            let mut i = 0usize;
            while i + 8 <= n {
                let vout = _mm256_loadu_ps(op.add(i));
                let vn = _mm256_fmadd_ps(vg, vout, _mm256_loadu_ps(np.add(i)));
                _mm256_storeu_ps(np.add(i), vn);
                let vw = _mm256_fmadd_ps(vg, _mm256_loadu_ps(ip.add(i)), vout);
                _mm256_storeu_ps(op.add(i), vw);
                i += 8;
            }
            while i < n {
                let w = wout[i];
                neu1e[i] = g.mul_add(w, neu1e[i]);
                wout[i] = g.mul_add(win[i], w);
                i += 1;
            }
        }
    }

    /// One SGNS pair. The per-target sequence is this module's own
    /// [`dot`] and [`fused_grad_step`], inlined into one
    /// `#[target_feature]` body, so the bits are theirs by
    /// construction; every target id is checked against `layer` before
    /// the first row is written.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sgns_pair(
        win: &[f32],
        layer: &mut [f32],
        targets: &[u32],
        positive: bool,
        alpha: f32,
        sigmoid: &SigmoidTable,
        neu1e: &mut [f32],
    ) {
        let dim = win.len();
        // The two kernels below index all their slices by `win.len()`
        // through raw pointers and only debug-assert the lengths.
        assert_eq!(neu1e.len(), dim, "neu1e length");
        super::check_rows(layer, dim, targets);
        for (k, &t) in targets.iter().enumerate() {
            let wout = &mut layer[t as usize * dim..(t as usize + 1) * dim];
            let label = if positive && k == 0 { 1.0f32 } else { 0.0 };
            // SAFETY: this function's caller verified avx2+fma, which is
            // all `dot` and `fused_grad_step` require of the CPU; `wout`
            // was sliced to `dim` elements and `neu1e` asserted to be
            // `dim` long above, so every access stays in bounds.
            unsafe {
                let g = (label - sigmoid.value(dot(win, wout))) * alpha;
                fused_grad_step(g, win, wout, neu1e);
            }
        }
    }

    /// Per-row affine u8 quantization; must match `scalar::quantize_rows`
    /// bit-for-bit (see the `Kernels` contract). Min/max reduce 8-wide
    /// (exact operations, so association doesn't matter; sign-of-zero
    /// ties wash out through the scalar `min + 0.0` canonicalization),
    /// then the code loop runs 8 floats → 8 `u8`s per iteration:
    /// sub/mul (no FMA, deliberately — FMA would round differently from
    /// the scalar backend), clamp via `max_ps`/`min_ps`, and
    /// `cvtps_epi32`, which rounds nearest-ties-even under the default
    /// MXCSR exactly like the scalar `round_ties_even`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn quantize_rows(
        values: &[f32],
        dim: usize,
        scales: &mut [f32],
        offsets: &mut [f32],
        out: &mut [u8],
    ) {
        let n = scales.len();
        debug_assert_eq!(values.len(), n * dim);
        debug_assert_eq!(offsets.len(), n);
        debug_assert_eq!(out.len(), n * dim);
        if dim == 0 {
            scales.fill(0.0);
            offsets.fill(0.0);
            return;
        }
        // SAFETY: all loads/stores stay within one `dim`-element row of
        // `values`/`out`, bounded by the length equalities above.
        unsafe {
            for r in 0..n {
                let row = &values[r * dim..(r + 1) * dim];
                let rp = row.as_ptr();
                let mut min = row[0];
                let mut max = row[0];
                let mut i = 0usize;
                if dim >= 8 {
                    let mut vmin = _mm256_loadu_ps(rp);
                    let mut vmax = vmin;
                    i = 8;
                    while i + 8 <= dim {
                        let v = _mm256_loadu_ps(rp.add(i));
                        vmin = _mm256_min_ps(vmin, v);
                        vmax = _mm256_max_ps(vmax, v);
                        i += 8;
                    }
                    let mut lanes = [0.0f32; 8];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), vmin);
                    for &l in &lanes {
                        if l < min {
                            min = l;
                        }
                    }
                    _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
                    for &l in &lanes {
                        if l > max {
                            max = l;
                        }
                    }
                }
                while i < dim {
                    let v = row[i];
                    if v < min {
                        min = v;
                    }
                    if v > max {
                        max = v;
                    }
                    i += 1;
                }
                let offset = min + 0.0;
                let range = max - min;
                offsets[r] = offset;
                let codes = &mut out[r * dim..(r + 1) * dim];
                if range == 0.0 {
                    scales[r] = 0.0;
                    codes.fill(0);
                    continue;
                }
                scales[r] = range / 255.0;
                let inv = 255.0 / range;
                let qp = codes.as_mut_ptr();
                let voff = _mm256_set1_ps(offset);
                let vinv = _mm256_set1_ps(inv);
                let zero = _mm256_setzero_ps();
                let v255 = _mm256_set1_ps(255.0);
                let mut i = 0usize;
                while i + 8 <= dim {
                    let t = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(rp.add(i)), voff), vinv);
                    let t = _mm256_min_ps(_mm256_max_ps(t, zero), v255);
                    let q = _mm256_cvtps_epi32(t);
                    let w =
                        _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
                    let b = _mm_packus_epi16(w, w);
                    _mm_storel_epi64(qp.add(i) as *mut __m128i, b);
                    i += 8;
                }
                while i < dim {
                    let t = (row[i] - offset) * inv;
                    let t = if t > 0.0 { t } else { 0.0 };
                    let t = if t < 255.0 { t } else { 255.0 };
                    *qp.add(i) = t.round_ties_even() as u8;
                    i += 1;
                }
            }
        }
    }

    /// `dots[j] = Σ_i q[i] · code_j[i]` eight rows at a time, one row
    /// per 32-bit lane: each 32-byte group of a block splits into its
    /// low and its high nibbles (`vpand`, `vpsrlw`), each half is
    /// multiplied by four query words broadcast to every lane and summed
    /// in pairs (`vpmaddubsw`: codes ≤ 15 and `|q| ≤ 127` keep a pair
    /// within 3 810 and the two halves' sum within 7 620, so nothing
    /// saturates), and `vpmaddwd` by ones adds each lane's two pairs into
    /// its `i32` sum. No horizontal add: the accumulator's lanes are the
    /// rows. The bound follows in the same registers, in
    /// [`CodeBound::row`](super::CodeBound::row)'s operation order with
    /// no FMA. A last partial block is the scalar reference's. Every
    /// integer add wraps, so each dot is the scalar kernel's, and so is
    /// each bound and each lane's maximum, bit for bit.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. The slice lengths are checked.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_codes(
        q: &[i8],
        codes: &[u8],
        bound: &super::CodeBound<'_>,
        dots: &mut [i32],
        bounds: &mut [f32],
        lane_max: &mut [f32; super::CODE_BLOCK_ROWS],
    ) {
        const ROWS: usize = super::CODE_BLOCK_ROWS;
        let (dim, n) = (q.len(), dots.len());
        super::check_codes(dim, codes, bound, dots, bounds);
        let block = super::code_block_bytes(dim);
        let (full, whole) = (dim / 8, n / ROWS);
        // The last group's query words, zero past `dim` (its codes are
        // zero there too).
        let mut last = [0u8; 8];
        for (l, &x) in last.iter_mut().zip(&q[full * 8..]) {
            *l = x as u8;
        }
        let word = |w: &[u8]| i32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let (last_lo, last_hi) = (
            _mm256_set1_epi32(word(&last[..4])),
            _mm256_set1_epi32(word(&last[4..])),
        );
        let unscale = _mm256_set1_ps(bound.unscale);
        let lift = _mm256_set1_ps(bound.lift);
        let sum = _mm256_set1_ps(bound.sum);
        let norm = _mm256_set1_ps(bound.norm);
        let inf = _mm256_set1_ps(f32::INFINITY);
        // SAFETY: block `k < whole` is `codes[k·block..(k + 1)·block]`,
        // in bounds by `check_codes`; group loads stop at `block`, the
        // query words read stop at `8·full <= dim`, and rows `8k..8k + 8`
        // of `dots`, `bounds`, `a`, `b` and `slack` are in bounds for
        // `k < whole`. No access needs alignment.
        unsafe {
            let mut max = _mm256_loadu_ps(lane_max.as_ptr());
            let qp = q.as_ptr();
            let mut epilogue = |r: usize, acc: __m256i, max: &mut __m256| {
                _mm256_storeu_si256(dots.as_mut_ptr().add(r) as *mut __m256i, acc);
                let d = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), unscale), lift);
                let ub = _mm256_add_ps(
                    _mm256_add_ps(
                        _mm256_mul_ps(_mm256_loadu_ps(bound.a.as_ptr().add(r)), d),
                        _mm256_mul_ps(_mm256_loadu_ps(bound.b.as_ptr().add(r)), sum),
                    ),
                    _mm256_mul_ps(_mm256_loadu_ps(bound.slack.as_ptr().add(r)), norm),
                );
                let ub = _mm256_blendv_ps(ub, inf, _mm256_cmp_ps::<_CMP_UNORD_Q>(ub, ub));
                _mm256_storeu_ps(bounds.as_mut_ptr().add(r), ub);
                *max = _mm256_max_ps(*max, ub);
            };
            let last = (last_lo, last_hi);
            let mut k = 0;
            while k + 2 <= whole {
                let base = codes.as_ptr().add(k * block);
                let [a0, a1] = block_dots::<2>(base, block, qp, dim, last);
                epilogue(k * ROWS, a0, &mut max);
                epilogue((k + 1) * ROWS, a1, &mut max);
                k += 2;
            }
            if k < whole {
                let [a0] = block_dots::<1>(codes.as_ptr().add(k * block), block, qp, dim, last);
                epilogue(k * ROWS, a0, &mut max);
            }
            _mm256_storeu_ps(lane_max.as_mut_ptr(), max);
        }
        let r = whole * ROWS;
        super::scalar::dot_codes(
            q,
            &codes[whole * block..],
            &bound.from(r),
            &mut dots[r..],
            &mut bounds[r..],
            lane_max,
        );
    }

    /// The integer dots of `B` consecutive code blocks (`block` bytes
    /// each, from `base`) with the query at `qp` (`dim` words, the last
    /// partial group's in `last`), one row per lane: each group's query
    /// words are broadcast once for all `B` blocks, and four groups'
    /// pair sums add up in `i16` (4·7 620 < 2¹⁵) before they widen.
    ///
    /// # Safety
    ///
    /// AVX2; `B` whole blocks at `base` and `dim / 8 · 8` words at `qp`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn block_dots<const B: usize>(
        base: *const u8,
        block: usize,
        qp: *const i8,
        dim: usize,
        last: (__m256i, __m256i),
    ) -> [__m256i; B] {
        let full = dim / 8;
        let ones = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); B];
        // SAFETY: group `g < full` of block `b < B` is in bounds, and so
        // are query words `8g..8g + 8`, by the caller's contract.
        unsafe {
            let mut pairs = [_mm256_setzero_si256(); B];
            let add_group = |pairs: &mut [__m256i; B], g: usize, lo: __m256i, hi: __m256i| {
                for (b, pairs) in pairs.iter_mut().enumerate() {
                    let v = _mm256_loadu_si256(base.add(b * block + 32 * g) as *const __m256i);
                    *pairs = _mm256_add_epi16(*pairs, nibble_pairs(v, lo, hi));
                }
            };
            for g in 0..full {
                let lo = _mm256_set1_epi32((qp.add(8 * g) as *const i32).read_unaligned());
                let hi = _mm256_set1_epi32((qp.add(8 * g + 4) as *const i32).read_unaligned());
                add_group(&mut pairs, g, lo, hi);
                if g % 4 == 3 {
                    for (acc, pairs) in acc.iter_mut().zip(&mut pairs) {
                        *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(*pairs, ones));
                        *pairs = _mm256_setzero_si256();
                    }
                }
            }
            if full * 8 < dim {
                add_group(&mut pairs, full, last.0, last.1);
            }
            for (acc, pairs) in acc.iter_mut().zip(pairs) {
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(pairs, ones));
            }
        }
        acc
    }

    /// One 32-byte group of a code block against its eight query words,
    /// `lo` (the low nibbles') and `hi` (the high nibbles') four each,
    /// broadcast: per 32-bit lane, the row's two `i16` pair sums over the
    /// group, each at most 7 620 in size.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn nibble_pairs(v: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
        let nibble = _mm256_set1_epi8(15);
        let low = _mm256_and_si256(v, nibble);
        let high = _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
        _mm256_add_epi16(
            _mm256_maddubs_epi16(low, lo),
            _mm256_maddubs_epi16(high, hi),
        )
    }

    /// Horizontal sums of four accumulators at once, one per lane of the
    /// result. Each accumulator goes through exactly [`hsum`]'s add tree
    /// (`lo + hi`, then lanes `0+2`/`1+3`, then `even + odd`, same
    /// operand order), transposed so the three steps run four-wide:
    /// lane `r` of the result is bit-equal to `hsum(v_r)`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum4(v0: __m256, v1: __m256, v2: __m256, v3: __m256) -> __m128 {
        let q0 = _mm_add_ps(_mm256_castps256_ps128(v0), _mm256_extractf128_ps(v0, 1));
        let q1 = _mm_add_ps(_mm256_castps256_ps128(v1), _mm256_extractf128_ps(v1, 1));
        let q2 = _mm_add_ps(_mm256_castps256_ps128(v2), _mm256_extractf128_ps(v2, 1));
        let q3 = _mm_add_ps(_mm256_castps256_ps128(v3), _mm256_extractf128_ps(v3, 1));
        // (q0[0]+q0[2], q0[1]+q0[3], q1[0]+q1[2], q1[1]+q1[3]), and the
        // same for q2/q3.
        let d01 = _mm_add_ps(_mm_movelh_ps(q0, q1), _mm_movehl_ps(q1, q0));
        let d23 = _mm_add_ps(_mm_movelh_ps(q2, q3), _mm_movehl_ps(q3, q2));
        _mm_add_ps(
            _mm_shuffle_ps(d01, d23, 0b10_00_10_00),
            _mm_shuffle_ps(d01, d23, 0b11_01_11_01),
        )
    }

    /// Folds the `k % 8` tail of one `A` row against four `B` rows into
    /// their four reduced sums, one fused multiply-add per element
    /// (lane-wise what `f32::mul_add` does).
    ///
    /// # Safety
    ///
    /// `ar` and every `b[r]` must be readable for `k` floats.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn finish_quad(
        mut sums: __m128,
        ar: *const f32,
        b: [*const f32; 4],
        from: usize,
        k: usize,
    ) -> __m128 {
        // SAFETY: `from..k` is inside all five rows by the caller's
        // contract.
        unsafe {
            for p in from..k {
                let bv = _mm_set_ps(*b[3].add(p), *b[2].add(p), *b[1].add(p), *b[0].add(p));
                sums = _mm_fmadd_ps(_mm_set1_ps(*ar.add(p)), bv, sums);
            }
        }
        sums
    }

    /// Two `A` rows against four `B` rows, eight ymm accumulators: each
    /// `B` load feeds two FMAs, each `A` load four. Lane `j` of the
    /// first / second result is `row(a0) · row(b[j])` / `row(a1) ·
    /// row(b[j])`: one 8-lane FMA chain in increasing `k`, [`hsum4`],
    /// then [`finish_quad`] — the same value [`quad_1`] gives either row.
    ///
    /// # Safety
    ///
    /// All six rows must be readable for `k` floats.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn quad_2(
        a0: *const f32,
        a1: *const f32,
        bj: [*const f32; 4],
        k: usize,
    ) -> (__m128, __m128) {
        // SAFETY: every load is inside the six rows, `k` floats each.
        unsafe {
            let mut acc00 = _mm256_setzero_ps();
            let mut acc01 = _mm256_setzero_ps();
            let mut acc02 = _mm256_setzero_ps();
            let mut acc03 = _mm256_setzero_ps();
            let mut acc10 = _mm256_setzero_ps();
            let mut acc11 = _mm256_setzero_ps();
            let mut acc12 = _mm256_setzero_ps();
            let mut acc13 = _mm256_setzero_ps();
            let mut p = 0usize;
            while p + 8 <= k {
                let va0 = _mm256_loadu_ps(a0.add(p));
                let va1 = _mm256_loadu_ps(a1.add(p));
                let vb = _mm256_loadu_ps(bj[0].add(p));
                acc00 = _mm256_fmadd_ps(va0, vb, acc00);
                acc10 = _mm256_fmadd_ps(va1, vb, acc10);
                let vb = _mm256_loadu_ps(bj[1].add(p));
                acc01 = _mm256_fmadd_ps(va0, vb, acc01);
                acc11 = _mm256_fmadd_ps(va1, vb, acc11);
                let vb = _mm256_loadu_ps(bj[2].add(p));
                acc02 = _mm256_fmadd_ps(va0, vb, acc02);
                acc12 = _mm256_fmadd_ps(va1, vb, acc12);
                let vb = _mm256_loadu_ps(bj[3].add(p));
                acc03 = _mm256_fmadd_ps(va0, vb, acc03);
                acc13 = _mm256_fmadd_ps(va1, vb, acc13);
                p += 8;
            }
            let s0 = hsum4(acc00, acc01, acc02, acc03);
            let s1 = hsum4(acc10, acc11, acc12, acc13);
            (finish_quad(s0, a0, bj, p, k), finish_quad(s1, a1, bj, p, k))
        }
    }

    /// One `A` row against four `B` rows: [`quad_2`] one row tall.
    ///
    /// # Safety
    ///
    /// All five rows must be readable for `k` floats.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn quad_1(ar: *const f32, bj: [*const f32; 4], k: usize) -> __m128 {
        // SAFETY: every load is inside the five rows, `k` floats each.
        unsafe {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut p = 0usize;
            while p + 8 <= k {
                let va = _mm256_loadu_ps(ar.add(p));
                acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj[0].add(p)), acc0);
                acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj[1].add(p)), acc1);
                acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj[2].add(p)), acc2);
                acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bj[3].add(p)), acc3);
                p += 8;
            }
            finish_quad(hsum4(acc0, acc1, acc2, acc3), ar, bj, p, k)
        }
    }

    /// Two `A` rows against the first `n` (1–3) of four `B` rows, lane
    /// `t < n` of the `i`th result bit-equal to [`dot`] of `a[i]` and
    /// `bj[t]`; the other lanes are not specified.
    ///
    /// # Safety
    ///
    /// As [`dots_n`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dots(
        n: usize,
        a: [*const f32; 2],
        bj: [*const f32; 4],
        k: usize,
    ) -> (__m128, __m128) {
        // SAFETY: passed through from the caller.
        unsafe {
            match n {
                1 => dots_n::<1>(a, bj, k),
                2 => dots_n::<2>(a, bj, k),
                _ => dots_n::<3>(a, bj, k),
            }
        }
    }

    /// [`dots`] for `T` targets: [`dot`]'s two accumulators (even and
    /// odd 8-float blocks, a last odd block into the even one) per input
    /// and target, their sums reduced by [`hsum4`] and the `k % 8` tail
    /// folded in by [`finish_quad`], lane-wise what `dot`'s `hsum` and
    /// scalar `mul_add`s do.
    ///
    /// # Safety
    ///
    /// Both `a` rows and all four `bj` rows must be readable for `k`
    /// floats.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dots_n<const T: usize>(
        a: [*const f32; 2],
        bj: [*const f32; 4],
        k: usize,
    ) -> (__m128, __m128) {
        let mut even = [[_mm256_setzero_ps(); 4]; 2];
        let mut odd = [[_mm256_setzero_ps(); 4]; 2];
        // SAFETY: every load is inside the six rows, `k` floats each.
        unsafe {
            let mut p = 0usize;
            while p + 16 <= k {
                for t in 0..T {
                    let (b0, b1) = (
                        _mm256_loadu_ps(bj[t].add(p)),
                        _mm256_loadu_ps(bj[t].add(p + 8)),
                    );
                    for i in 0..2 {
                        even[i][t] = _mm256_fmadd_ps(_mm256_loadu_ps(a[i].add(p)), b0, even[i][t]);
                        odd[i][t] =
                            _mm256_fmadd_ps(_mm256_loadu_ps(a[i].add(p + 8)), b1, odd[i][t]);
                    }
                }
                p += 16;
            }
            if p + 8 <= k {
                for t in 0..T {
                    let b0 = _mm256_loadu_ps(bj[t].add(p));
                    for i in 0..2 {
                        even[i][t] = _mm256_fmadd_ps(_mm256_loadu_ps(a[i].add(p)), b0, even[i][t]);
                    }
                }
                p += 8;
            }
            let sums = |i: usize| {
                let v: [__m256; 4] = std::array::from_fn(|t| _mm256_add_ps(even[i][t], odd[i][t]));
                finish_quad(hsum4(v[0], v[1], v[2], v[3]), a[i], bj, p, k)
            };
            (sums(0), sums(1))
        }
    }

    /// `C[m×n] += A[m×k] · B[n×k]ᵀ`, row-major, as a 2×4 register tile:
    /// four `B` rows in the outer loop, two `A` rows in the inner one
    /// ([`quad_2`]), so `B` streams through the cache once per call while
    /// the (small) `A` stays resident — the serve scan's `B` is a tile
    /// of the table. An odd last `A` row runs [`quad_1`]; the `n % 4`
    /// last `B` rows are plain [`dot`]s. Every output goes through one
    /// 8-lane FMA chain in increasing `k` and [`hsum`]'s add tree
    /// whichever body computes it, so a value depends only on its two
    /// rows and on whether its `B` row sits in a group of four (`j < n −
    /// n % 4`) — never on `m`, on `i`, or on how a caller splits `A` or
    /// splits `B` at multiples of four rows.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(c.len(), m * n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        // SAFETY: every pointer offset below is bounded by the three
        // length equalities asserted above.
        unsafe {
            let add_to = |cr: *mut f32, sums: __m128| {
                _mm_storeu_ps(cr, _mm_add_ps(_mm_loadu_ps(cr), sums));
            };
            let mut j = 0usize;
            while j + 4 <= n {
                let bj = [
                    bp.add(j * k),
                    bp.add((j + 1) * k),
                    bp.add((j + 2) * k),
                    bp.add((j + 3) * k),
                ];
                let mut i = 0usize;
                while i + 2 <= m {
                    let (s0, s1) = quad_2(ap.add(i * k), ap.add((i + 1) * k), bj, k);
                    add_to(cp.add(i * n + j), s0);
                    add_to(cp.add((i + 1) * n + j), s1);
                    i += 2;
                }
                if i < m {
                    add_to(cp.add(i * n + j), quad_1(ap.add(i * k), bj, k));
                }
                j += 4;
            }
            while j < n {
                let br = &b[j * k..(j + 1) * k];
                for i in 0..m {
                    *cp.add(i * n + j) += dot(&a[i * k..(i + 1) * k], br);
                }
                j += 1;
            }
        }
    }

    /// The kernel [`gemm_nt`] replaced — one `A` row against four `B`
    /// rows, four serial [`hsum`]s — kept verbatim as the oracle the
    /// register-tiled kernel must equal bit for bit.
    #[cfg(test)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_nt_1x4(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(c.len(), m * n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        // SAFETY: every pointer offset below is bounded by the three
        // length equalities asserted above.
        unsafe {
            for i in 0..m {
                let ar = ap.add(i * k);
                let cr = &mut c[i * n..(i + 1) * n];
                let mut j = 0usize;
                while j + 4 <= n {
                    let b0 = bp.add(j * k);
                    let b1 = bp.add((j + 1) * k);
                    let b2 = bp.add((j + 2) * k);
                    let b3 = bp.add((j + 3) * k);
                    let mut acc0 = _mm256_setzero_ps();
                    let mut acc1 = _mm256_setzero_ps();
                    let mut acc2 = _mm256_setzero_ps();
                    let mut acc3 = _mm256_setzero_ps();
                    let mut p = 0usize;
                    while p + 8 <= k {
                        let va = _mm256_loadu_ps(ar.add(p));
                        acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0.add(p)), acc0);
                        acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1.add(p)), acc1);
                        acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2.add(p)), acc2);
                        acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3.add(p)), acc3);
                        p += 8;
                    }
                    let mut s0 = hsum(acc0);
                    let mut s1 = hsum(acc1);
                    let mut s2 = hsum(acc2);
                    let mut s3 = hsum(acc3);
                    while p < k {
                        let av = *ar.add(p);
                        s0 = av.mul_add(*b0.add(p), s0);
                        s1 = av.mul_add(*b1.add(p), s1);
                        s2 = av.mul_add(*b2.add(p), s2);
                        s3 = av.mul_add(*b3.add(p), s3);
                        p += 1;
                    }
                    cr[j] += s0;
                    cr[j + 1] += s1;
                    cr[j + 2] += s2;
                    cr[j + 3] += s3;
                    j += 4;
                }
                while j < n {
                    cr[j] += dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    j += 1;
                }
            }
        }
    }

    /// One HogBatch window (see `Kernels::sgns_window` for the
    /// contract), the rows read and written in place.
    ///
    /// 1. All of `G`, in 2×4 tiles, two inputs against a group of four
    ///    targets (the `nt % 4` last targets are one smaller group):
    ///    the tile's scores are `gemm_nt`'s — [`quad_2`] / [`quad_1`]
    ///    for a group of four, [`dots`] (in [`dot`]'s order) for the
    ///    last targets — and σ and the gradient run on its eight lanes
    ///    at once ([`SigmoidTable::values8`]). An id may repeat, so no
    ///    row is written before every score is taken.
    /// 2. The rank updates ([`updates`]): every input's `ΔX` into a
    ///    buffer, which reads the target rows; then each group of four
    ///    targets' `ΔO`, added to its rows as it is made, which reads
    ///    only input rows; then the buffered `ΔX`, added to the input
    ///    rows. So every read of a row comes before its first write.
    ///
    /// `gemm_tn` computes every delta element as one FMA chain from `+0`
    /// in increasing contraction index, then adds it to the zeroed
    /// output in its 4-row tiles only (a `-0` chain becomes `+0`), and
    /// the scatter adds the delta to the row: here a chain likewise,
    /// `+ 0` on the four-row groups of [`chains`] (groups start at
    /// multiples of four, as the tiles do), then `row + delta`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sgns_window(
        rows: super::WindowRows<'_>,
        dim: usize,
        inputs: &[u32],
        targets: &[u32],
        alpha: f32,
        sigmoid: &SigmoidTable,
        room: &mut super::WindowRoom,
    ) {
        let win = super::Window::new(rows, dim, inputs, targets);
        let (mb, nt) = (inputs.len(), targets.len());
        // `G[r][j]` is `g[r · stride + j]`: whole groups of four targets.
        let stride = nt.next_multiple_of(4);
        let pointers = 2 * (mb + nt);
        let floats = mb * (stride + dim);
        let room = room.words(pointers + floats.div_ceil(2));
        // SAFETY: the room holds the four row-pointer lists (eight-byte
        // words), then `G` and `ΔX` (`mb` rows of `dim` floats); every
        // list is filled before it is borrowed, and `G` and `ΔX` are read
        // only where written. Every row pointer is of an id
        // `Window::new` checked; the caller verified avx2+fma.
        unsafe {
            let xs = room.cast::<*const f32>();
            let os = xs.add(mb);
            let xd = os.add(nt).cast::<*mut f32>();
            let od = xd.add(mb);
            for (r, &id) in inputs.iter().enumerate() {
                xs.add(r).write(win.src(0, id));
                xd.add(r).write(win.dst(0, id));
            }
            for (j, &id) in targets.iter().enumerate() {
                os.add(j).write(win.src(1, id));
                od.add(j).write(win.dst(1, id));
            }
            let g = room.add(pointers).cast::<f32>();
            let w = Win {
                xs: std::slice::from_raw_parts(xs, mb),
                os: std::slice::from_raw_parts(os, nt),
                xd: std::slice::from_raw_parts(xd, mb),
                od: std::slice::from_raw_parts(od, nt),
                g,
                stride,
                buf: g.add(mb * stride),
                dim,
            };
            scores(&w, alpha, sigmoid);
            updates(&w);
        }
    }

    /// What the steps of [`sgns_window`] share: where each input's and
    /// each target's row is read (`xs`, `os`) and written (`xd`, `od`),
    /// `G` (`xs.len()` rows of `stride` floats) and the buffered `ΔX`
    /// (`xs.len()` rows of `dim` floats).
    struct Win<'a> {
        xs: &'a [*const f32],
        os: &'a [*const f32],
        xd: &'a [*mut f32],
        od: &'a [*mut f32],
        g: *mut f32,
        stride: usize,
        buf: *mut f32,
        dim: usize,
    }

    /// Step 1 of [`sgns_window`]: all of `G`.
    ///
    /// # Safety
    ///
    /// As [`sgns_window`]'s body: every row pointer readable for `dim`
    /// floats, `g` writable for `xs.len() · stride`, avx2+fma present.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn scores(w: &Win<'_>, alpha: f32, sigmoid: &SigmoidTable) {
        let (mb, nt, dim, xs) = (w.xs.len(), w.os.len(), w.dim, w.xs);
        let positive = _mm256_setr_ps(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0);
        let alpha8 = _mm256_set1_ps(alpha);
        for t0 in (0..nt).step_by(4) {
            let n = (nt - t0).min(4);
            // A short last group repeats its first row.
            let group: [*const f32; 4] =
                std::array::from_fn(|t| w.os[t0 + if t < n { t } else { 0 }]);
            let label = if t0 == 0 {
                positive
            } else {
                _mm256_setzero_ps()
            };
            for r in (0..mb).step_by(2) {
                let pair = r + 1 < mb;
                let zero = _mm_setzero_ps();
                // Row `r` against the group, then row `r + 1` (if any):
                // lane 4·ρ + t scores input `r + ρ` against target
                // `t0 + t`.
                // SAFETY: every row pointer covers `dim` floats; row `r`
                // (and `r + 1` for a pair) of `G` has room for four
                // floats from `t0`, since `t0 + 4 <= stride`.
                unsafe {
                    let (s0, s1) = match (n, pair) {
                        (4, true) => quad_2(xs[r], xs[r + 1], group, dim),
                        (4, false) => (quad_1(xs[r], group, dim), zero),
                        (n, true) => dots(n, [xs[r], xs[r + 1]], group, dim),
                        (n, false) => (dots(n, [xs[r]; 2], group, dim).0, zero),
                    };
                    let sig = sigmoid.values8(_mm256_set_m128(s1, s0));
                    let grad = _mm256_mul_ps(_mm256_sub_ps(label, sig), alpha8);
                    let at = w.g.add(r * w.stride + t0);
                    _mm_storeu_ps(at, _mm256_castps256_ps128(grad));
                    if pair {
                        _mm_storeu_ps(at.add(w.stride), _mm256_extractf128_ps(grad, 1));
                    }
                }
            }
        }
    }

    /// Step 2 of [`sgns_window`]: every input's `ΔX` into the buffer,
    /// then each group of targets' `ΔO` added to its rows, then the
    /// buffered `ΔX` added to the inputs' rows, each `row + delta` one
    /// add.
    ///
    /// # Safety
    ///
    /// As [`scores`], with `G` written and every destination row
    /// writable.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn updates(w: &Win<'_>) {
        let (mb, nt, dim) = (w.xs.len(), w.os.len(), w.dim);
        // SAFETY: by the caller's contract.
        unsafe {
            for r in (0..mb).step_by(4) {
                let coefs = Coefs {
                    base: w.g.add(r * w.stride),
                    row_step: w.stride,
                    term_step: 1,
                };
                let out = |i: usize| w.buf.add((r + i) * dim);
                rank_update((mb - r).min(4), coefs, w.os, dim, out, false);
            }
            for t in (0..nt).step_by(4) {
                let coefs = Coefs {
                    base: w.g.add(t),
                    row_step: 1,
                    term_step: w.stride,
                };
                let out = |i: usize| w.od[t + i];
                rank_update((nt - t).min(4), coefs, w.xs, dim, out, true);
            }
            for (r, &row) in w.xd.iter().enumerate() {
                let d = std::slice::from_raw_parts(w.buf.add(r * dim), dim);
                add_assign(std::slice::from_raw_parts_mut(row, dim), d);
            }
        }
    }

    /// Where [`chains`] reads its coefficients: row `i`'s for term `k`
    /// at `base + i·row_step + k·term_step`.
    #[derive(Clone, Copy)]
    struct Coefs {
        base: *const f32,
        row_step: usize,
        term_step: usize,
    }

    impl Coefs {
        /// Row `i`'s coefficient for term `k`.
        ///
        /// # Safety
        ///
        /// The address must be inside the coefficients' allocation.
        #[inline]
        unsafe fn at(self, i: usize, k: usize) -> *const f32 {
            // SAFETY: by the caller's contract.
            unsafe { self.base.add(i * self.row_step + k * self.term_step) }
        }
    }

    /// `n` (1–4) delta rows of `dim` floats: row `i` is `Σ_k coefs(i, k)
    /// · terms[k]`, one fused multiply-add per term in order from `+0`,
    /// lane by lane on the vector body ([`chains`]) and `f32::mul_add`
    /// on the `dim % 8` tail, then `+ 0` on the body of four rows
    /// (`gemm_tn`'s 4-row tiles). With `add`, row `i` is added to the
    /// `dim` floats at `out(i)`, one row after another (two rows may be
    /// one); without, stored there.
    ///
    /// # Safety
    ///
    /// Every coefficient readable, every term row readable for `dim`
    /// floats, `out(i)` writable (and, with `add`, readable) for `dim`,
    /// and the CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rank_update(
        n: usize,
        coefs: Coefs,
        terms: &[*const f32],
        dim: usize,
        out: impl Fn(usize) -> *mut f32,
        add: bool,
    ) {
        // SAFETY: passed through from the caller.
        unsafe {
            match n {
                1 => rows_n::<1>(coefs, terms, dim, out, add),
                2 => rows_n::<2>(coefs, terms, dim, out, add),
                3 => rows_n::<3>(coefs, terms, dim, out, add),
                _ => rows_n::<4>(coefs, terms, dim, out, add),
            }
        }
    }

    /// [`rank_update`] with `R` rows: 16 columns at a time (eight
    /// accumulators for four rows, as in `gemm_tn`'s tile), then 8, then
    /// the scalar tail.
    ///
    /// # Safety
    ///
    /// As [`rank_update`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rows_n<const R: usize>(
        coefs: Coefs,
        terms: &[*const f32],
        dim: usize,
        out: impl Fn(usize) -> *mut f32,
        add: bool,
    ) {
        // SAFETY: by the caller's contract.
        unsafe {
            let mut p = 0usize;
            while p + 16 <= dim {
                chains::<R, 2>(coefs, terms, p, &out, add);
                p += 16;
            }
            if p + 8 <= dim {
                chains::<R, 1>(coefs, terms, p, &out, add);
                p += 8;
            }
            for i in 0..R {
                let row = out(i);
                for p in p..dim {
                    let mut acc = 0.0f32;
                    for (k, term) in terms.iter().enumerate() {
                        acc = (*coefs.at(i, k)).mul_add(*term.add(p), acc);
                    }
                    *row.add(p) = if add { *row.add(p) + acc } else { acc };
                }
            }
        }
    }

    /// `R` delta rows of `8·W` columns from `col`: row `i` is `Σ_k
    /// coefs(i, k) · terms[k][col..]`, one fused multiply-add per term
    /// in order from `+0`, then `+ 0` when `R = 4` (`gemm_tn`'s 4-row
    /// tiles). With `add`, row `i` is then added to the `8·W` floats at
    /// `out(i) + col`, one row after another; without, stored there.
    ///
    /// # Safety
    ///
    /// As [`rank_update`], with `col + 8·W <= dim`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn chains<const R: usize, const W: usize>(
        coefs: Coefs,
        terms: &[*const f32],
        col: usize,
        out: &impl Fn(usize) -> *mut f32,
        add: bool,
    ) {
        // SAFETY: by the caller's contract.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); W]; R];
            for (k, &row) in terms.iter().enumerate() {
                let src = row.add(col);
                let v: [__m256; W] = std::array::from_fn(|w| _mm256_loadu_ps(src.add(8 * w)));
                for (i, acc) in acc.iter_mut().enumerate() {
                    let c = _mm256_broadcast_ss(&*coefs.at(i, k));
                    for (acc, v) in acc.iter_mut().zip(v) {
                        *acc = _mm256_fmadd_ps(c, v, *acc);
                    }
                }
            }
            for (i, acc) in acc.into_iter().enumerate() {
                let at = out(i).add(col);
                for (w, mut d) in acc.into_iter().enumerate() {
                    if R == 4 {
                        d = _mm256_add_ps(d, _mm256_setzero_ps());
                    }
                    let at = at.add(8 * w);
                    if add {
                        d = _mm256_add_ps(_mm256_loadu_ps(at), d);
                    }
                    _mm256_storeu_ps(at, d);
                }
            }
        }
    }

    /// `C[m×n] += A[k×m]ᵀ · B[k×n]`, row-major. Register-blocked 4×16:
    /// four `C` rows × two 8-lane column strips held in eight ymm
    /// accumulators across the whole `k` loop, fed by two `B` loads and
    /// four scalar broadcasts per iteration. With `n` the embedding dim,
    /// a dim-64 update runs four full column blocks per row quad;
    /// dim 200 runs twelve plus an 8-wide strip. Row/column tails reuse
    /// [`axpy`], whose own tail handling covers any residue.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        // SAFETY: every pointer offset below is bounded by the three
        // length equalities asserted above; `a`, `b`, and `c` are
        // distinct slices by Rust's aliasing rules.
        unsafe {
            let mut i = 0usize;
            while i + 4 <= m {
                let mut j = 0usize;
                while j + 16 <= n {
                    let mut acc00 = _mm256_setzero_ps();
                    let mut acc01 = _mm256_setzero_ps();
                    let mut acc10 = _mm256_setzero_ps();
                    let mut acc11 = _mm256_setzero_ps();
                    let mut acc20 = _mm256_setzero_ps();
                    let mut acc21 = _mm256_setzero_ps();
                    let mut acc30 = _mm256_setzero_ps();
                    let mut acc31 = _mm256_setzero_ps();
                    for l in 0..k {
                        let br = bp.add(l * n + j);
                        let b0 = _mm256_loadu_ps(br);
                        let b1 = _mm256_loadu_ps(br.add(8));
                        let al = ap.add(l * m + i);
                        let a0 = _mm256_set1_ps(*al);
                        acc00 = _mm256_fmadd_ps(a0, b0, acc00);
                        acc01 = _mm256_fmadd_ps(a0, b1, acc01);
                        let a1 = _mm256_set1_ps(*al.add(1));
                        acc10 = _mm256_fmadd_ps(a1, b0, acc10);
                        acc11 = _mm256_fmadd_ps(a1, b1, acc11);
                        let a2 = _mm256_set1_ps(*al.add(2));
                        acc20 = _mm256_fmadd_ps(a2, b0, acc20);
                        acc21 = _mm256_fmadd_ps(a2, b1, acc21);
                        let a3 = _mm256_set1_ps(*al.add(3));
                        acc30 = _mm256_fmadd_ps(a3, b0, acc30);
                        acc31 = _mm256_fmadd_ps(a3, b1, acc31);
                    }
                    let c0 = cp.add(i * n + j);
                    let c1 = cp.add((i + 1) * n + j);
                    let c2 = cp.add((i + 2) * n + j);
                    let c3 = cp.add((i + 3) * n + j);
                    _mm256_storeu_ps(c0, _mm256_add_ps(_mm256_loadu_ps(c0), acc00));
                    _mm256_storeu_ps(c0.add(8), _mm256_add_ps(_mm256_loadu_ps(c0.add(8)), acc01));
                    _mm256_storeu_ps(c1, _mm256_add_ps(_mm256_loadu_ps(c1), acc10));
                    _mm256_storeu_ps(c1.add(8), _mm256_add_ps(_mm256_loadu_ps(c1.add(8)), acc11));
                    _mm256_storeu_ps(c2, _mm256_add_ps(_mm256_loadu_ps(c2), acc20));
                    _mm256_storeu_ps(c2.add(8), _mm256_add_ps(_mm256_loadu_ps(c2.add(8)), acc21));
                    _mm256_storeu_ps(c3, _mm256_add_ps(_mm256_loadu_ps(c3), acc30));
                    _mm256_storeu_ps(c3.add(8), _mm256_add_ps(_mm256_loadu_ps(c3.add(8)), acc31));
                    j += 16;
                }
                while j + 8 <= n {
                    let mut acc0 = _mm256_setzero_ps();
                    let mut acc1 = _mm256_setzero_ps();
                    let mut acc2 = _mm256_setzero_ps();
                    let mut acc3 = _mm256_setzero_ps();
                    for l in 0..k {
                        let bv = _mm256_loadu_ps(bp.add(l * n + j));
                        let al = ap.add(l * m + i);
                        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*al), bv, acc0);
                        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(1)), bv, acc1);
                        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(2)), bv, acc2);
                        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(3)), bv, acc3);
                    }
                    for (r, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                        let cr = cp.add((i + r) * n + j);
                        _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc));
                    }
                    j += 8;
                }
                if j < n {
                    for l in 0..k {
                        for r in 0..4 {
                            let av = *ap.add(l * m + i + r);
                            for jj in j..n {
                                let cc = cp.add((i + r) * n + jj);
                                *cc = av.mul_add(*bp.add(l * n + jj), *cc);
                            }
                        }
                    }
                }
                i += 4;
            }
            while i < m {
                for l in 0..k {
                    axpy(
                        *ap.add(l * m + i),
                        &b[l * n..(l + 1) * n],
                        &mut c[i * n..(i + 1) * n],
                    );
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_stable_and_named() {
        let a = kernels() as *const Kernels;
        let b = kernels() as *const Kernels;
        assert_eq!(a, b, "dispatch table must be selected exactly once");
        let name = backend_name();
        assert!(
            name.contains("scalar") || name == "avx2+fma",
            "unexpected backend name {name:?}"
        );
    }

    #[test]
    fn crc_entry_follows_the_detected_features() {
        // CI runs this under GW2V_FORCE_SCALAR=0 and =1: the forced cell
        // must carry slice-by-8, the dispatched cell CLMUL wherever the
        // CPU has it. `select` copies the slice-by-8 entry out of the
        // scalar table, so identity with that stored pointer tells the
        // two kernels apart.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let expect_clmul = !force_scalar()
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            && crate::crc32::clmul::supported();
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let expect_clmul = false;
        let is_slice8 = std::ptr::fn_addr_eq(kernels().crc32_update, SCALAR_KERNELS.crc32_update);
        assert_eq!(
            is_slice8,
            !expect_clmul,
            "backend {:?} carries the wrong crc32 kernel",
            backend_name()
        );
    }

    #[test]
    fn scalar_fused_grad_step_matches_axpy_pair_bitwise() {
        let dims = [0usize, 1, 3, 8, 15, 64, 100, 200];
        for &d in &dims {
            let g = 0.37f32;
            let win: Vec<f32> = (0..d).map(|i| (i as f32) * 0.11 - 2.0).collect();
            let mut wout: Vec<f32> = (0..d).map(|i| 1.0 / (i as f32 + 1.5)).collect();
            let mut neu1e: Vec<f32> = (0..d).map(|i| (i as f32) * -0.05).collect();
            let mut wout_ref = wout.clone();
            let mut neu1e_ref = neu1e.clone();
            scalar::axpy(g, &wout_ref, &mut neu1e_ref);
            scalar::axpy(g, &win, &mut wout_ref);
            scalar::fused_grad_step(g, &win, &mut wout, &mut neu1e);
            assert_eq!(wout, wout_ref, "wout diverged at dim {d}");
            assert_eq!(neu1e, neu1e_ref, "neu1e diverged at dim {d}");
        }
    }

    #[test]
    fn scalar_dot_norms_matches_three_dots_bitwise() {
        for d in [0usize, 1, 2, 5, 8, 33, 128, 200] {
            let x: Vec<f32> = (0..d).map(|i| (i as f32).sin()).collect();
            let y: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).cos()).collect();
            let (xy, xx, yy) = scalar::dot_norms(&x, &y);
            assert_eq!(xy.to_bits(), scalar::dot(&x, &y).to_bits());
            assert_eq!(xx.to_bits(), scalar::dot(&x, &x).to_bits());
            assert_eq!(yy.to_bits(), scalar::dot(&y, &y).to_bits());
        }
    }

    #[test]
    fn scalar_quantize_reconstructs_within_half_step() {
        for dim in [1usize, 2, 7, 8, 9, 16, 64, 200] {
            let n = 5;
            let values: Vec<f32> = (0..n * dim)
                .map(|i| ((i as f32) * 0.61).sin() * 3.0 - 0.5)
                .collect();
            let mut scales = vec![0.0f32; n];
            let mut offsets = vec![0.0f32; n];
            let mut codes = vec![0u8; n * dim];
            scalar::quantize_rows(&values, dim, &mut scales, &mut offsets, &mut codes);
            let mut back = vec![0.0f32; n * dim];
            scalar::dequantize_rows(&codes, dim, &scales, &offsets, &mut back);
            for r in 0..n {
                // Nearest-grid-point rounding: each element lands within
                // half a quantization step of its original (plus fp fuzz).
                let tol = scales[r] * 0.5 + 1e-6;
                for i in 0..dim {
                    let (v, b) = (values[r * dim + i], back[r * dim + i]);
                    assert!(
                        (v - b).abs() <= tol,
                        "dim {dim} row {r} lane {i}: {v} vs {b} (tol {tol})"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_quantize_flat_and_negative_zero_rows() {
        // A flat row takes the degenerate branch: scale 0, codes 0, and
        // the row reconstructs exactly (offset alone).
        let values = vec![2.5f32; 6];
        let mut scales = vec![9.0f32; 2];
        let mut offsets = vec![9.0f32; 2];
        let mut codes = vec![1u8; 6];
        scalar::quantize_rows(&values, 3, &mut scales, &mut offsets, &mut codes);
        assert_eq!(scales, vec![0.0, 0.0]);
        assert_eq!(offsets, vec![2.5, 2.5]);
        assert_eq!(codes, vec![0; 6]);
        // -0.0 minima canonicalize to +0.0 offsets, so the wire form of a
        // row never depends on which zero the reduction happened to keep.
        let values = vec![-0.0f32, 0.0, 1.0];
        let mut scales = vec![0.0f32; 1];
        let mut offsets = vec![0.0f32; 1];
        let mut codes = vec![0u8; 3];
        scalar::quantize_rows(&values, 3, &mut scales, &mut offsets, &mut codes);
        assert_eq!(
            offsets[0].to_bits(),
            0.0f32.to_bits(),
            "-0 min canonicalized"
        );
        assert_eq!(codes, vec![0, 0, 255]);
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn avx2_quantize_bit_identical_to_scalar_when_supported() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        let k = &AVX2_KERNELS;
        // Dims straddle the 8-lane boundary; rows mix magnitudes, signs,
        // flat rows, and ±0 ties.
        for dim in [1usize, 3, 7, 8, 9, 15, 16, 17, 64, 200] {
            let n = 7;
            let mut values: Vec<f32> = (0..n * dim)
                .map(|i| ((i as f32) * 0.37 + 0.1).sin() * 10.0f32.powi((i % 5) as i32 - 2))
                .collect();
            values[..dim].fill(1.25); // row 0 flat
            if dim >= 2 {
                values[dim] = -0.0; // row 1 leads with -0
                values[dim + 1] = 0.0;
            }
            let mut s = vec![0.0f32; n];
            let mut o = vec![0.0f32; n];
            let mut c = vec![0u8; n * dim];
            let mut s_ref = s.clone();
            let mut o_ref = o.clone();
            let mut c_ref = c.clone();
            (k.quantize_rows)(&values, dim, &mut s, &mut o, &mut c);
            scalar::quantize_rows(&values, dim, &mut s_ref, &mut o_ref, &mut c_ref);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s), bits(&s_ref), "scales diverged at dim {dim}");
            assert_eq!(bits(&o), bits(&o_ref), "offsets diverged at dim {dim}");
            assert_eq!(c, c_ref, "codes diverged at dim {dim}");

            let mut v = vec![0.0f32; n * dim];
            let mut v_ref = vec![0.0f32; n * dim];
            (k.dequantize_rows)(&c, dim, &s, &o, &mut v);
            scalar::dequantize_rows(&c_ref, dim, &s_ref, &o_ref, &mut v_ref);
            assert_eq!(bits(&v), bits(&v_ref), "dequant diverged at dim {dim}");
        }
    }

    fn pattern_mat(rows: usize, cols: usize, salt: f32) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i as f32) * 0.37 + salt).sin() * 2.0)
            .collect()
    }

    fn naive_gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    s += (a[i * k + p] as f64) * (b[j * k + p] as f64);
                }
                c[i * n + j] += s as f32;
            }
        }
    }

    fn naive_gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for l in 0..k {
                    s += (a[l * m + i] as f64) * (b[l * n + j] as f64);
                }
                c[i * n + j] += s as f32;
            }
        }
    }

    #[test]
    fn scalar_gemms_match_naive() {
        for &(m, n, k) in &[
            (0usize, 0usize, 0usize),
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 11),
            (5, 21, 64),
            (7, 13, 200),
            (2, 6, 32),
        ] {
            let a = pattern_mat(m, k, 0.1);
            let b = pattern_mat(n, k, 0.7);
            let mut c = pattern_mat(m, n, -0.3);
            let mut c_ref = c.clone();
            scalar::gemm_nt(m, n, k, &a, &b, &mut c);
            naive_gemm_nt(m, n, k, &a, &b, &mut c_ref);
            for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                    "nt ({m},{n},{k}) elem {i}: {x} vs {y}"
                );
            }

            let a = pattern_mat(k, m, 0.2);
            let b = pattern_mat(k, n, -0.9);
            let mut c = pattern_mat(m, n, 0.5);
            let mut c_ref = c.clone();
            scalar::gemm_tn(m, n, k, &a, &b, &mut c);
            naive_gemm_tn(m, n, k, &a, &b, &mut c_ref);
            for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                    "tn ({m},{n},{k}) elem {i}: {x} vs {y}"
                );
            }
        }
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn avx2_gemms_close_to_scalar_when_supported() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        let kn = &AVX2_KERNELS;
        // Shapes straddle every block boundary: m tails (m % 4 ≠ 0),
        // n tails (16-, 8-, and sub-8 strips), and k tails (k % 8 ≠ 0),
        // plus the dim ∈ {32, 64, 200} hot sizes.
        for &(m, n, k) in &[
            (0usize, 0usize, 0usize),
            (1, 1, 1),
            (4, 16, 8),
            (5, 17, 9),
            (3, 7, 5),
            (8, 33, 64),
            (6, 21, 200),
            (9, 40, 32),
            (2, 19, 13),
        ] {
            let a = pattern_mat(m, k, 0.4);
            let b = pattern_mat(n, k, -0.2);
            let mut c = pattern_mat(m, n, 1.1);
            let mut c_ref = c.clone();
            (kn.gemm_nt)(m, n, k, &a, &b, &mut c);
            scalar::gemm_nt(m, n, k, &a, &b, &mut c_ref);
            for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                    "nt ({m},{n},{k}) elem {i}: {x} vs {y}"
                );
            }

            let a = pattern_mat(k, m, -0.6);
            let b = pattern_mat(k, n, 0.9);
            let mut c = pattern_mat(m, n, -1.4);
            let mut c_ref = c.clone();
            (kn.gemm_tn)(m, n, k, &a, &b, &mut c);
            scalar::gemm_tn(m, n, k, &a, &b, &mut c_ref);
            for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                    "tn ({m},{n},{k}) elem {i}: {x} vs {y}"
                );
            }
        }
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn avx2_gemm_nt_is_bit_identical_to_the_1x4_kernel() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        // Shapes straddle m % 2, n % 4 and k % 8, plus the HogBatch
        // minibatch (8, 6, 64) and the serve scan's single-query shard,
        // full tile and short tail tile.
        for &(m, n, k) in &[
            (0usize, 0usize, 0usize),
            (1, 1, 1),
            (2, 4, 8),
            (3, 5, 9),
            (2, 3, 16),
            (5, 8, 7),
            (8, 6, 64),
            (1, 6250, 64),
            (32, 256, 64),
            (33, 257, 67),
            (6, 21, 200),
        ] {
            let a = pattern_mat(m, k, 0.4);
            let mut b = pattern_mat(n, k, -0.2);
            // A poisoned second row (in a group of four) and last row
            // (in the `n % 4` tail when there is one): NaN must land in
            // the same outputs (payloads may differ).
            if n >= 4 && k > 0 {
                b[k] = f32::NAN;
                b[(n - 1) * k] = f32::INFINITY;
            }
            let mut c = pattern_mat(m, n, 1.1);
            let mut c_ref = c.clone();
            // SAFETY: avx2 and fma were detected above.
            unsafe {
                avx2::gemm_nt(m, n, k, &a, &b, &mut c);
                avx2::gemm_nt_1x4(m, n, k, &a, &b, &mut c_ref);
            }
            for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "nt ({m},{n},{k}) elem {i}: {x} vs {y}"
                );
            }
        }
    }

    /// The scalar `parse_f32` entry, and the AVX2 one where the host
    /// has it.
    fn parse_entries() -> Vec<(&'static str, ParseF32Fn)> {
        let mut entries = vec![("scalar", SCALAR_KERNELS.parse_f32)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            entries.push(("avx2", AVX2_KERNELS.parse_f32));
        }
        entries
    }

    /// Both `parse_f32` entries against `str::parse` of the text before
    /// the first ASCII whitespace, bit for bit (NaN payloads too) and
    /// with that text's length, on the text alone and with 16 spaces
    /// after it.
    fn assert_parses_like_str(text: &str) {
        let tok = text
            .split(|c: char| c.is_ascii_whitespace())
            .next()
            .unwrap();
        let want = (tok.parse::<f32>().ok().map(f32::to_bits), tok.len());
        let padded = format!("{text}{:16}", "");
        for tail in [text, &padded] {
            for (name, parse) in parse_entries() {
                let (x, len) = parse(tail.as_bytes());
                assert_eq!((x.map(f32::to_bits), len), want, "{name}: {tail:?}");
            }
        }
    }

    #[test]
    fn float_fast_path_equals_str_parse_on_strided_bit_patterns() {
        // A prime stride visits every exponent and scatters mantissas;
        // each pattern in the three forms a model file may hold.
        let (mut fast, mut all) = (0, 0);
        for bits in (0..=u32::MAX).step_by(10_007) {
            let x = f32::from_bits(bits);
            for tok in [format!("{x}"), format!("{x:.6}"), format!("{x:.9}")] {
                assert_parses_like_str(&tok);
                fast += scalar::parse_decimal(tok.as_bytes()).is_some() as usize;
                all += 1;
            }
        }
        // Not vacuously: most of them take the fast path.
        assert!(fast > all / 3, "{fast} of {all}");
    }

    #[test]
    fn float_forms_outside_the_fast_path_parse_like_str() {
        for tok in [
            "-0", "0", "0.", ".5", "-.5", "+1", "1e5", "1E-3", "inf", "-inf", "NaN", "nan", "-",
            "", ".", "1.2.3", "0x10", "1_0", " 1", "١",
        ] {
            assert_parses_like_str(tok);
        }
        assert_eq!(
            scalar::parse_f32(b"-0").0.map(f32::to_bits),
            Some((-0.0f32).to_bits())
        );
        // 17- and 20-digit mantissas: below and above 2^53.
        for tok in [
            "1.2345678901234567",
            "-9007199254740991",
            "9007199254740992",
            "12345678901234567890",
            "0.12345678901234567890",
        ] {
            assert_parses_like_str(tok);
        }
        assert!(scalar::parse_decimal(b"-9007199254740991").is_some());
        assert!(scalar::parse_decimal(b"9007199254740992").is_none());
        // 22 fraction digits take the fast path, 23 do not.
        let (k22, k23) = ("0.0000000000000000000001", "0.00000000000000000000001");
        assert!(scalar::parse_decimal(k22.as_bytes()).is_some());
        assert!(scalar::parse_decimal(k23.as_bytes()).is_none());
        for tok in [k22, k23, "1.000000059604644775390625"] {
            assert_parses_like_str(tok);
        }
    }

    #[test]
    fn an_f64_on_an_f32_midpoint_takes_the_slow_path() {
        // Found by search over decimals of f32 midpoints: the quotient
        // rounds to the midpoint exactly, and rounding that again to f32
        // goes the wrong way.
        let tok = "0.001003017823677510";
        let quotient = 1_003_017_823_677_510_f64 / 1e18;
        let (lo, hi) = (0.0010030178_f32, 0.0010030178_f32.next_up());
        let midpoint = (f64::from(lo) + f64::from(hi)) / 2.0;
        assert_eq!(quotient, midpoint);
        let exact: f32 = tok.parse().unwrap();
        assert_ne!((quotient as f32).to_bits(), exact.to_bits());
        assert_eq!(scalar::parse_decimal(tok.as_bytes()), None);
        assert_parses_like_str(tok);
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn avx2_table_close_to_scalar_when_supported() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        let k = &AVX2_KERNELS;
        for d in [0usize, 1, 7, 8, 9, 64, 100, 200] {
            let x: Vec<f32> = (0..d).map(|i| (i as f32) * 0.013 - 1.0).collect();
            let y: Vec<f32> = (0..d).map(|i| ((i * 7) % 13) as f32 * 0.1 - 0.5).collect();
            let simd = (k.dot)(&x, &y);
            let reference = scalar::dot(&x, &y);
            assert!(
                (simd - reference).abs() <= 1e-4 * (1.0 + reference.abs()),
                "dim {d}: {simd} vs {reference}"
            );
        }
    }
}
