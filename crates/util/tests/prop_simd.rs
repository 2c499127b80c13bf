//! SIMD-vs-scalar equivalence suite.
//!
//! The dispatched kernels (`fvec::*`, AVX2+FMA on hosts that support it)
//! must agree with the portable scalar reference (`simd::scalar::*`) on
//! every input shape the trainers produce:
//!
//! * all lengths 0..=512, including every non-multiple-of-8 tail, so both
//!   the 16-wide/8-wide vector bodies and the scalar tail paths are hit;
//! * within a scaled ~2-ULP-per-accumulation tolerance for reductions
//!   (the two backends sum in different association orders) and a 1-ULP
//!   FMA tolerance for element-wise kernels (FMA rounds `a*x + y` once,
//!   mul+add rounds twice);
//! * bit-exactly for kernels with one rounding per element (`scale`,
//!   `sub_into`, `add_assign`);
//! * propagating NaN/∞ identically (a lane is NaN under one backend iff
//!   it is NaN under the other).
//!
//! Run with `GW2V_FORCE_SCALAR=1` the dispatched side *is* the scalar
//! reference and every comparison collapses to exact equality — which is
//! how the seed's pre-SIMD results are reproduced.

use gw2v_util::fvec;
use gw2v_util::sigmoid::SigmoidTable;
use gw2v_util::simd::{self, scalar, WindowRoom, WindowRows};
use gw2v_util::split;
use proptest::prelude::*;

/// Relative closeness for element-wise FMA-vs-mul+add differences:
/// one rounding of difference on a term of magnitude `scale`.
fn fma_close(a: f32, b: f32, scale: f32) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    (a - b).abs() <= 2.0 * f32::EPSILON * (scale + a.abs().max(b.abs())) + 1e-30
}

/// Closeness for reductions over `n` terms whose absolute sum is
/// `abs_sum`: the backends associate differently, so allow ~2 ULP per
/// accumulation step, scaled by the mass actually summed.
fn reduce_close(a: f32, b: f32, n: usize, abs_sum: f32) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    let steps = (n as f32).max(8.0);
    (a - b).abs() <= 2.0 * f32::EPSILON * steps * (abs_sum + a.abs().max(b.abs())) + 1e-30
}

/// Deterministic patterned vector: varied signs and magnitudes, no two
/// adjacent lanes equal, so lane-shuffling bugs can't cancel out.
fn pattern(n: usize, salt: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let k = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            let mag = ((k >> 8) & 0xFF) as f32 / 32.0 - 4.0;
            if k & 1 == 0 {
                mag
            } else {
                -mag * 0.75
            }
        })
        .collect()
}

#[test]
fn dot_matches_scalar_all_lengths_0_to_512() {
    for n in 0..=512usize {
        let x = pattern(n, 1);
        let y = pattern(n, 2);
        let got = fvec::dot(&x, &y);
        let want = scalar::dot(&x, &y);
        let abs_sum: f32 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
        assert!(
            reduce_close(got, want, n, abs_sum),
            "dot n={n}: {got} vs {want}"
        );
    }
}

#[test]
fn dot_norms_matches_scalar_all_lengths_0_to_512() {
    for n in 0..=512usize {
        let x = pattern(n, 3);
        let y = pattern(n, 4);
        let (xy, xx, yy) = fvec::dot_norms(&x, &y);
        let (sxy, sxx, syy) = scalar::dot_norms(&x, &y);
        let mass =
            |p: &[f32], q: &[f32]| -> f32 { p.iter().zip(q).map(|(a, b)| (a * b).abs()).sum() };
        assert!(reduce_close(xy, sxy, n, mass(&x, &y)), "xy n={n}");
        assert!(reduce_close(xx, sxx, n, mass(&x, &x)), "xx n={n}");
        assert!(reduce_close(yy, syy, n, mass(&y, &y)), "yy n={n}");
    }
}

#[test]
fn axpy_matches_scalar_all_lengths_0_to_512() {
    for n in 0..=512usize {
        let a = 0.37f32;
        let x = pattern(n, 5);
        let mut y = pattern(n, 6);
        let mut y_ref = y.clone();
        fvec::axpy(a, &x, &mut y);
        scalar::axpy(a, &x, &mut y_ref);
        for i in 0..n {
            assert!(
                fma_close(y[i], y_ref[i], (a * x[i]).abs()),
                "axpy n={n} lane {i}: {} vs {}",
                y[i],
                y_ref[i]
            );
        }
    }
}

#[test]
fn fused_grad_step_matches_scalar_all_lengths_0_to_512() {
    for n in 0..=512usize {
        let g = -0.21f32;
        let win = pattern(n, 7);
        let mut wout = pattern(n, 8);
        let mut neu1e = pattern(n, 9);
        let wout_old = wout.clone();
        let mut wout_ref = wout.clone();
        let mut neu1e_ref = neu1e.clone();
        fvec::fused_grad_step(g, &win, &mut wout, &mut neu1e);
        scalar::fused_grad_step(g, &win, &mut wout_ref, &mut neu1e_ref);
        for i in 0..n {
            // neu1e's FMA multiplies g by the *pre-update* wout.
            assert!(
                fma_close(neu1e[i], neu1e_ref[i], (g * wout_old[i]).abs()),
                "fused neu1e n={n} lane {i}"
            );
            assert!(
                fma_close(wout[i], wout_ref[i], (g * win[i]).abs()),
                "fused wout n={n} lane {i}"
            );
        }
    }
}

#[test]
fn crc32_update_matches_scalar_bitwise_all_lengths_0_to_512() {
    // The checksum is integer arithmetic: the dispatched entry (CLMUL
    // folding where the CPU has it) must equal the slice-by-8 reference
    // for every length, slice alignment and incoming state, or frames
    // sealed by one backend would fail to open under the other.
    let k = gw2v_util::simd::kernels();
    let buf: Vec<u8> = (0..512u32 + 3)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect();
    for n in 0..=512usize {
        for offset in [0usize, 3] {
            let data = &buf[offset..offset + n];
            for state in [0xFFFF_FFFFu32, 0, 0xDEAD_BEEF] {
                assert_eq!(
                    (k.crc32_update)(state, data),
                    scalar::crc32_update(state, data),
                    "crc32_update n={n} offset={offset} state={state:#010x}"
                );
            }
        }
    }
}

#[test]
fn dot_codes_is_exact_and_backend_identical_all_dims_0_to_300() {
    // The serve quantizer rounds a query into `|q| ≤ 127`, so 15·‖q‖₁
    // stays far below 2³¹ at every dim here: no i32 partial sum can
    // overflow, in any order. Queries of ±127 throughout (the largest L1
    // norm admitted) against all-15 codes put every pair sum at its
    // 3 810 limit and every group at 7 620. The dispatched kernel must
    // equal the scalar one and an i64 sum of the unpacked nibbles, bit
    // for bit, and so must the bounds and each lane's maximum, with NaN
    // and ±∞ rows among the finite ones.
    let cycles: [&[i8]; 4] = [&[127], &[-127], &[127, -127, -127], &[3, -1, 0, 127, -64]];
    let mixed: Vec<u8> = (0..3 * 32 * 38 + 3u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let full = vec![0xFFu8; mixed.len()];
    let per_row = |i: usize, special: f32| match i % 7 {
        3 => special,
        _ => (i % 5) as f32 * 0.125 - 0.25,
    };
    let (a, b, slack): (Vec<f32>, Vec<f32>, Vec<f32>) = (
        (0..17).map(|i| per_row(i, f32::NAN)).collect(),
        (0..17).map(|i| per_row(i + 1, f32::NEG_INFINITY)).collect(),
        (0..17).map(|i| per_row(i + 2, f32::INFINITY)).collect(),
    );
    for dim in 0..=300usize {
        let block = simd::code_block_bytes(dim);
        for cycle in cycles {
            let q: Vec<i8> = (0..dim).map(|i| cycle[i % cycle.len()]).collect();
            let bound = |rows: usize| simd::CodeBound {
                a: &a[..rows],
                b: &b[..rows],
                slack: &slack[..rows],
                unscale: 2f32.powi(-7),
                lift: 0.375,
                sum: -1.5,
                norm: 1.25,
            };
            for codes in [&mixed, &full] {
                for rows in [0usize, 1, 7, 8, 9, 17] {
                    for offset in [0usize, 1, 3] {
                        let codes = &codes[offset..offset + rows.div_ceil(8) * block];
                        let bound = bound(rows);
                        let (mut dots, mut want_dots) = (vec![i32::MIN; rows], vec![0; rows]);
                        let (mut ubs, mut want_ubs) = (vec![0.0f32; rows], vec![1.0f32; rows]);
                        let mut lanes = [-1.0f32, 0.0, -0.0, 2.0, 0.5, -0.5, 1.0, -3.0];
                        let mut want_lanes = lanes;
                        fvec::dot_codes(&q, codes, &bound, &mut dots, &mut ubs, &mut lanes);
                        scalar::dot_codes(
                            &q,
                            codes,
                            &bound,
                            &mut want_dots,
                            &mut want_ubs,
                            &mut want_lanes,
                        );
                        let at = format!("dim={dim} q={cycle:?} rows={rows} offset={offset}");
                        for j in 0..rows {
                            let blk = &codes[j / 8 * block..(j / 8 + 1) * block];
                            let exact: i64 = (0..dim)
                                .map(|i| {
                                    let byte = blk[32 * (i / 8) + 4 * (j % 8) + i % 4];
                                    let code = if i % 8 < 4 { byte & 15 } else { byte >> 4 };
                                    q[i] as i64 * code as i64
                                })
                                .sum();
                            assert_eq!(dots[j] as i64, exact, "dispatched {at} row {j}");
                            assert_eq!(want_dots[j] as i64, exact, "scalar {at} row {j}");
                            let ub = bound.row(j, exact as i32);
                            assert!(!ub.is_nan(), "{at} row {j}: a NaN bound");
                            assert_eq!(ubs[j].to_bits(), ub.to_bits(), "dispatched {at} row {j}");
                            assert_eq!(want_ubs[j].to_bits(), ub.to_bits(), "scalar {at} row {j}");
                        }
                        let bits = |l: &[f32; 8]| l.map(f32::to_bits);
                        assert_eq!(bits(&lanes), bits(&want_lanes), "lane maxima {at}");
                    }
                }
            }
        }
    }
}

#[test]
fn packed_code_blocks_hold_each_code_in_its_documented_nibble() {
    for dim in [0usize, 1, 4, 7, 8, 9, 16, 67] {
        let codes: Vec<u8> = (0..8 * dim).map(|i| (i * 7 % 16) as u8).collect();
        let mut block = vec![0xAAu8; simd::code_block_bytes(dim)];
        simd::pack_code_block(&codes, dim, &mut block);
        let mut seen = vec![0u8; block.len() * 2];
        for r in 0..8 {
            for i in 0..dim {
                let byte = 32 * (i / 8) + 4 * r + i % 4;
                let nibble = 2 * byte + i % 8 / 4;
                let got = (block[byte] >> (4 * (i % 8 / 4))) & 15;
                assert_eq!(got, codes[r * dim + i], "dim {dim} row {r} coordinate {i}");
                seen[nibble] = 1;
            }
        }
        // Every nibble no coordinate owns is a zero code.
        for (nibble, &owned) in seen.iter().enumerate() {
            let value = (block[nibble / 2] >> (4 * (nibble % 2))) & 15;
            assert!(owned == 1 || value == 0, "dim {dim} nibble {nibble}");
        }
    }
}

/// One backend's three entries: the pair kernel and the two kernels its
/// contract is written in.
struct PairBackend {
    name: &'static str,
    pair: simd::SgnsPairFn,
    dot: fn(&[f32], &[f32]) -> f32,
    step: fn(f32, &[f32], &mut [f32], &mut [f32]),
}

const PAIR_BACKENDS: [PairBackend; 2] = [
    PairBackend {
        name: "dispatched",
        pair: fvec::sgns_pair,
        dot: fvec::dot,
        step: fvec::fused_grad_step,
    },
    PairBackend {
        name: "scalar",
        pair: scalar::sgns_pair,
        dot: scalar::dot,
        step: scalar::fused_grad_step,
    },
];

const PAIR_ROWS: usize = 6;

/// Runs `b.pair` and the `dot` → `SigmoidTable::value` → `fused_grad_step`
/// composition it must equal on copies of the same inputs, compares
/// `layer` and `neu1e` bit for bit and returns the dots the composition
/// saw. Every slice starts at an odd offset of its buffer.
fn check_pair(
    b: &PairBackend,
    win: &[f32],
    layer: &[f32],
    targets: &[u32],
    alpha: f32,
) -> Vec<f32> {
    let sigmoid = SigmoidTable::new();
    let dim = win.len();
    let unaligned = |v: &[f32], pad: usize| [&vec![0.0; pad][..], v].concat();
    let mut dots = Vec::new();
    for positive in [true, false] {
        let win = unaligned(win, 1);
        let (mut got_layer, mut want_layer) = (unaligned(layer, 3), unaligned(layer, 3));
        let (mut got_neu1e, mut want_neu1e) = (unaligned(&pattern(dim, 31), 5), pattern(dim, 31));
        let label_of = |k: usize| if positive && k == 0 { 1.0f32 } else { 0.0 };
        (b.pair)(
            &win[1..],
            &mut got_layer[3..],
            targets,
            positive,
            alpha,
            &sigmoid,
            &mut got_neu1e[5..],
        );
        for (k, &t) in targets.iter().enumerate() {
            let wout = &mut want_layer[3 + t as usize * dim..][..dim];
            let f = (b.dot)(&win[1..], wout);
            dots.push(f);
            let g = (label_of(k) - sigmoid.value(f)) * alpha;
            (b.step)(g, &win[1..], wout, &mut want_neu1e);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let case = format!(
            "{} dim={dim} targets={targets:?} positive={positive}",
            b.name
        );
        assert_eq!(bits(&got_layer), bits(&want_layer), "layer: {case}");
        assert_eq!(bits(&got_neu1e[5..]), bits(&want_neu1e), "neu1e: {case}");
    }
    dots
}

#[test]
fn sgns_pair_is_the_dot_sigmoid_step_composition_bitwise_dims_0_to_130() {
    // One target; a repeated target (the second step must see the
    // first's write); the positive again in a later, label-0 slot.
    let lists: [&[u32]; 4] = [&[2], &[1, 4, 1], &[3, 0, 3, 5, 0], &[]];
    for b in &PAIR_BACKENDS {
        let (mut saturated_hi, mut saturated_lo, mut inside) = (0, 0, 0);
        for dim in 0..=130usize {
            // Scales put the dots on both sides of ±6 and inside.
            for scale in [1.0f32, 0.05] {
                let win: Vec<f32> = pattern(dim, 21).iter().map(|v| v * scale).collect();
                let layer = pattern(PAIR_ROWS * dim, 22);
                for targets in lists {
                    for f in check_pair(b, &win, &layer, targets, 0.025) {
                        saturated_hi += (f >= 6.0) as usize;
                        saturated_lo += (f <= -6.0) as usize;
                        inside += (f.abs() < 6.0) as usize;
                    }
                }
            }
        }
        assert!(
            saturated_hi > 100 && saturated_lo > 100 && inside > 100,
            "{}: every σ regime must be exercised ({saturated_hi}/{saturated_lo}/{inside})",
            b.name
        );
    }
}

#[test]
fn sgns_pair_matches_the_composition_on_specials_and_zero_alpha() {
    for b in &PAIR_BACKENDS {
        for dim in [1usize, 7, 8, 19, 67] {
            let win = pattern(dim, 23);
            let layer = pattern(PAIR_ROWS * dim, 24);
            // alpha = 0: g is ±0, the rows keep their values.
            check_pair(b, &win, &layer, &[0, 5, 0], 0.0);
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for pos in [0, dim / 2, dim - 1] {
                    let mut bad_win = win.clone();
                    bad_win[pos] = special;
                    check_pair(b, &bad_win, &layer, &[1, 2, 1], 0.025);
                    // Row 2 carries the special; row 1 is stepped after
                    // neu1e has absorbed it.
                    let mut bad_layer = layer.clone();
                    bad_layer[2 * dim + pos] = special;
                    check_pair(b, &win, &bad_layer, &[2, 1, 2], 0.025);
                }
            }
        }
    }
}

#[test]
fn sgns_pair_matches_the_composition_on_distinct_blocks_and_late_repeats() {
    // Enough rows for one full block of distinct targets (the SGNS loop
    // hands a pair's targets over in blocks of 32).
    let rows = 32;
    let block: Vec<u32> = (0..rows as u32).map(|k| k * 7 % rows as u32).collect();
    let lists: [&[u32]; 7] = [
        &[3, 1],
        &[0, 7, 2],
        &[5, 9, 1, 30],
        &[2, 4, 6, 8, 10],
        &[31, 0, 17, 3, 12, 25],
        &block,
        // A late repeat: the last step must see the first one's write.
        &[0, 1, 2, 3, 4, 0],
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for b in &PAIR_BACKENDS {
        for dim in [1usize, 7, 8, 9, 16, 64, 67] {
            for scale in [1.0f32, 0.05] {
                let win: Vec<f32> = pattern(dim, 27).iter().map(|v| v * scale).collect();
                let layer = pattern(rows * dim, 28);
                for targets in lists {
                    check_pair(b, &win, &layer, targets, 0.025);
                }
            }
            // A distinct list whose last id is past the layer fails
            // before any row is written.
            let layer = pattern(rows * dim, 29);
            let mut got = layer.clone();
            let mut neu1e = vec![0.0; dim];
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (b.pair)(
                    &pattern(dim, 30),
                    &mut got,
                    &[4, 0, 9, rows as u32],
                    true,
                    0.025,
                    &SigmoidTable::new(),
                    &mut neu1e,
                )
            }));
            assert!(outcome.is_err(), "{} dim={dim}: no panic", b.name);
            assert_eq!(
                bits(&got),
                bits(&layer),
                "{} dim={dim}: layer written",
                b.name
            );
        }
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn dispatched_sgns_pair_panics_on_a_target_past_the_layer() {
    let mut layer = pattern(PAIR_ROWS * 8, 25);
    let mut neu1e = vec![0.0; 8];
    let row = PAIR_ROWS as u32;
    fvec::sgns_pair(
        &pattern(8, 26),
        &mut layer,
        &[0, row],
        true,
        0.025,
        &SigmoidTable::new(),
        &mut neu1e,
    );
}

#[test]
#[should_panic(expected = "out of range")]
fn scalar_sgns_pair_panics_on_a_target_past_the_layer() {
    let mut layer = pattern(PAIR_ROWS * 8, 25);
    let mut neu1e = vec![0.0; 8];
    let row = PAIR_ROWS as u32;
    scalar::sgns_pair(
        &pattern(8, 26),
        &mut layer,
        &[0, row],
        true,
        0.025,
        &SigmoidTable::new(),
        &mut neu1e,
    );
}

type Gemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// One backend's window kernel and the kernels its contract is written
/// in.
struct WindowBackend {
    name: &'static str,
    window: simd::SgnsWindowFn,
    gemm_nt: Gemm,
    gemm_tn: Gemm,
    add_assign: fn(&mut [f32], &[f32]),
}

const WINDOW_BACKENDS: [WindowBackend; 2] = [
    WindowBackend {
        name: "dispatched",
        window: fvec::sgns_window,
        gemm_nt: fvec::gemm_nt,
        gemm_tn: fvec::gemm_tn,
        add_assign: fvec::add_assign,
    },
    WindowBackend {
        name: "scalar",
        window: scalar::sgns_window,
        gemm_nt: scalar::gemm_nt,
        gemm_tn: scalar::gemm_tn,
        add_assign: scalar::add_assign,
    },
];

/// The gather / GEMM / scatter the window kernel is held to: the rows
/// gathered, `S = X·Oᵀ` by `gemm_nt` into zeros, `G = (label − σ(S)) ·
/// alpha`, `ΔO = Gᵀ·X` and `ΔX = G·O` by `gemm_tn` into zeros (`G`
/// transposed for the second). Returns `(ΔX, ΔO, S)`.
fn window_composition(
    b: &WindowBackend,
    layers: [&[f32]; 2],
    dim: usize,
    inputs: &[u32],
    targets: &[u32],
    alpha: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let sigmoid = SigmoidTable::new();
    let (mb, nt) = (inputs.len(), targets.len());
    let (x, o) = (
        gather(layers[0], dim, inputs),
        gather(layers[1], dim, targets),
    );
    let mut scores = vec![0.0; mb * nt];
    (b.gemm_nt)(mb, nt, dim, &x, &o, &mut scores);
    let grad = |r: usize, j: usize| {
        let label = if j == 0 { 1.0f32 } else { 0.0 };
        (label - sigmoid.value(scores[r * nt + j])) * alpha
    };
    let grads: Vec<f32> = (0..mb * nt).map(|i| grad(i / nt, i % nt)).collect();
    let grads_t: Vec<f32> = (0..nt * mb).map(|i| grad(i % mb, i / mb)).collect();
    let mut d_out = vec![0.0; nt * dim];
    (b.gemm_tn)(nt, dim, mb, &grads, &x, &mut d_out);
    let mut d_in = vec![0.0; mb * dim];
    (b.gemm_tn)(mb, dim, nt, &grads_t, &o, &mut d_in);
    (d_in, d_out, scores)
}

/// The `ids` rows of `layer`, back to back.
fn gather(layer: &[f32], dim: usize, ids: &[u32]) -> Vec<f32> {
    ids.iter()
        .flat_map(|&id| &layer[id as usize * dim..][..dim])
        .copied()
        .collect()
}

/// The first element where `got` and `want` differ in bits (a NaN may
/// carry another payload), as `(row, column, got, want)`.
fn first_difference(got: &[f32], want: &[f32], dim: usize) -> Option<(usize, usize, f32, f32)> {
    let same = |x: &f32, y: &f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    (0..got.len())
        .find(|&i| !same(&got[i], &want[i]))
        .map(|i| (i / dim.max(1), i % dim.max(1), got[i], want[i]))
}

/// Holds `window` to the composition, bit for bit, two ways:
///
/// * in place on copies of `layers`, against the composition's deltas
///   added with the backend's `add_assign`, one row at a time, the
///   targets first, then the inputs;
/// * on gathered copies of the rows (ids `0, 1, …`) into blocks of
///   `-0.0`, which must then hold the composition's delta bits.
///
/// Returns the composition's scores, or the first difference.
fn window_difference(
    b: &WindowBackend,
    window: simd::SgnsWindowFn,
    layers: [&[f32]; 2],
    dim: usize,
    inputs: &[u32],
    targets: &[u32],
    alpha: f32,
) -> Result<Vec<f32>, String> {
    let (d_in, d_out, scores) = window_composition(b, layers, dim, inputs, targets, alpha);
    let sigmoid = SigmoidTable::new();
    let mut want = layers.map(<[f32]>::to_vec);
    for (j, &t) in targets.iter().enumerate() {
        let row = &mut want[1][t as usize * dim..][..dim];
        (b.add_assign)(row, &d_out[j * dim..][..dim]);
    }
    for (r, &w) in inputs.iter().enumerate() {
        let row = &mut want[0][w as usize * dim..][..dim];
        (b.add_assign)(row, &d_in[r * dim..][..dim]);
    }
    let mut got = layers.map(<[f32]>::to_vec);
    let [syn0, syn1neg] = &mut got;
    let in_place = WindowRows::InPlace([syn0, syn1neg]);
    // One room for both calls: the second works in what the first left.
    let mut room = WindowRoom::default();
    window(in_place, dim, inputs, targets, alpha, &sigmoid, &mut room);
    let (x, o) = (
        gather(layers[0], dim, inputs),
        gather(layers[1], dim, targets),
    );
    let mut got_in = vec![-0.0f32; inputs.len() * dim];
    let mut got_out = vec![-0.0f32; targets.len() * dim];
    let ids: Vec<u32> = (0..inputs.len().max(targets.len()) as u32).collect();
    let apart = WindowRows::Apart {
        src: [&x, &o],
        dst: [&mut got_in, &mut got_out],
    };
    window(
        apart,
        dim,
        &ids[..inputs.len()],
        &ids[..targets.len()],
        alpha,
        &sigmoid,
        &mut room,
    );
    let cases = [
        ("syn0 in place", &got[0], &want[0]),
        ("syn1neg in place", &got[1], &want[1]),
        ("ΔX into -0", &got_in, &d_in),
        ("ΔO into -0", &got_out, &d_out),
    ];
    for (what, got, want) in cases {
        if let Some((row, col, g, w)) = first_difference(got, want, dim) {
            return Err(format!(
                "{} {what}[{row}][{col}]: {g:e} vs {w:e}, dim={dim} inputs={inputs:?} targets={targets:?}",
                b.name
            ));
        }
    }
    Ok(scores)
}

/// [`window_difference`] for the backend's own kernel; panics on a
/// difference.
fn check_window(
    b: &WindowBackend,
    layers: [&[f32]; 2],
    dim: usize,
    inputs: &[u32],
    targets: &[u32],
    alpha: f32,
) -> Vec<f32> {
    window_difference(b, b.window, layers, dim, inputs, targets, alpha)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// `n` ids below `rows` that repeat within the list (from the fourth id
/// on, every third one repeats an earlier one, so with more than 16
/// inputs or 8 targets an id repeats across the kernel's blocks).
fn window_ids(n: usize, rows: usize, salt: usize) -> Vec<u32> {
    (0..n)
        .map(|i| {
            let i = if i >= 3 && i % 3 == 0 { i / 3 } else { i };
            ((i * 7 + salt) % rows) as u32
        })
        .collect()
}

const WINDOW_DIMS: [usize; 11] = [1, 7, 8, 9, 16, 63, 64, 65, 67, 200, 300];

#[test]
fn sgns_window_is_the_gemm_sigmoid_gemm_composition_bitwise() {
    // 1–20 inputs and 1–41 targets: every `mb % 4`, every `nt % 4`, one
    // and several blocks of 16 inputs and of 8 targets, ids repeated
    // within and across blocks on both sides.
    let rows = 45;
    for b in &WINDOW_BACKENDS {
        let (mut saturated, mut inside) = (0, 0);
        for dim in WINDOW_DIMS {
            // Scales put the scores on both sides of ±6 and inside.
            for scale in [1.0f32, 0.02] {
                let syn0: Vec<f32> = pattern(rows * dim, 41).iter().map(|v| v * scale).collect();
                let syn1neg = pattern(rows * dim, 42);
                for mb in 1..=20 {
                    for nt in 1..=41 {
                        let inputs = window_ids(mb, rows, mb + nt);
                        let targets = window_ids(nt, rows, 3 * mb);
                        let layers = [&syn0[..], &syn1neg[..]];
                        for f in check_window(b, layers, dim, &inputs, &targets, 0.025) {
                            saturated += (f.abs() >= 6.0) as usize;
                            inside += (f.abs() < 6.0) as usize;
                        }
                    }
                }
            }
        }
        assert!(
            saturated > 1000 && inside > 1000,
            "{}: both σ regimes must be exercised ({saturated}/{inside})",
            b.name
        );
    }
}

/// The dispatched kernel run on one block of 16 inputs after another,
/// each block reading the target rows the blocks before it wrote: the
/// order an in-place window must not take.
fn blockwise_window(
    rows: WindowRows<'_>,
    dim: usize,
    inputs: &[u32],
    targets: &[u32],
    alpha: f32,
    sigmoid: &SigmoidTable,
    room: &mut WindowRoom,
) {
    match rows {
        WindowRows::InPlace([syn0, syn1neg]) => {
            for block in inputs.chunks(16) {
                let rows = WindowRows::InPlace([&mut *syn0, &mut *syn1neg]);
                fvec::sgns_window(rows, dim, block, targets, alpha, sigmoid, room);
            }
        }
        rows => fvec::sgns_window(rows, dim, inputs, targets, alpha, sigmoid, room),
    }
}

#[test]
fn a_window_that_writes_rows_before_a_later_block_reads_them_fails_the_check() {
    let rows = 45;
    let b = &WINDOW_BACKENDS[0];
    for dim in [8usize, 67] {
        // Scores inside ±6, where a changed row changes `G`.
        let syn0: Vec<f32> = pattern(rows * dim, 41).iter().map(|v| v * 0.02).collect();
        let syn1neg = pattern(rows * dim, 42);
        let layers = [&syn0[..], &syn1neg[..]];
        for (mb, nt) in [(17, 1), (18, 6), (20, 41)] {
            let inputs = window_ids(mb, rows, mb + nt);
            let targets = window_ids(nt, rows, 3 * mb);
            check_window(b, layers, dim, &inputs, &targets, 0.025);
            let blockwise =
                window_difference(b, blockwise_window, layers, dim, &inputs, &targets, 0.025);
            let err = blockwise.expect_err("a blockwise window passed the check");
            assert!(err.contains("in place"), "{err}");
        }
        // One block: the two orders are one.
        let inputs = window_ids(16, rows, 5);
        let targets = window_ids(9, rows, 2);
        window_difference(b, blockwise_window, layers, dim, &inputs, &targets, 0.025)
            .expect("one block");
    }
}

#[test]
fn sgns_window_scores_the_last_targets_in_dot_order() {
    // On the AVX2 backend `gemm_nt` sums a score in a different order
    // for a target in a group of four than for one of the `nt % 4` last
    // targets. Rows whose large terms cancel to a score inside ±6 make
    // the two orders differ by more than a σ slot now and then: find
    // such rows by putting one target row in both places, then hold the
    // kernel to the composition with the row in each.
    let sigmoid = SigmoidTable::new();
    for b in &WINDOW_BACKENDS {
        let mut found = 0;
        for dim in [16usize, 64, 67, 200] {
            for salt in 0..400u32 {
                let wave = |phase: f32| -> Vec<f32> {
                    (0..dim)
                        .map(|p| (p as f32 * 0.7 + phase).sin() * 100.0)
                        .collect()
                };
                let (x, mut o) = (wave(salt as f32), wave(salt as f32 * 1.3 + 0.5));
                let last = dim - 1;
                if x[last] == 0.0 {
                    continue;
                }
                // The last element sets the exact score to a point of (-6, 6).
                let want = (salt % 23) as f64 * 0.5 - 5.5;
                let head: f64 = (0..last).map(|p| x[p] as f64 * o[p] as f64).sum();
                o[last] = ((want - head) / x[last] as f64) as f32;
                let mut scores = [0.0f32; 5];
                (b.gemm_nt)(1, 5, dim, &x, &o.repeat(5), &mut scores);
                if sigmoid.value(scores[0]) == sigmoid.value(scores[4]) {
                    continue;
                }
                found += 1;
                let syn1neg = [&o[..], &pattern(dim, salt + 2000)].concat();
                let layers = [&x[..], &syn1neg[..]];
                for targets in [
                    &[0u32][..],
                    &[1, 0],
                    &[0, 1, 1, 1, 0],
                    &[1, 1, 1, 1, 0, 0, 1],
                ] {
                    check_window(b, layers, dim, &[0, 0, 0], targets, 0.025);
                }
            }
        }
        if b.name == "dispatched" && simd::backend_name() == "avx2+fma" {
            assert!(found >= 100, "only {found} rows tell the two orders apart");
        }
    }
}

#[test]
fn sgns_window_matches_the_composition_at_the_saturation_edges() {
    // Input rows are 2·e₀; target rows v·e₀ put the score exactly at
    // 2v: ±6 and its f32 neighbours, ±0 and ±1e30.
    let edges = [
        3.0f32,
        3.0f32.next_up(),
        3.0f32.next_down(),
        -3.0,
        (-3.0f32).next_up(),
        (-3.0f32).next_down(),
        0.0,
        -0.0,
        5e29,
        -5e29,
    ];
    for b in &WINDOW_BACKENDS {
        for dim in WINDOW_DIMS {
            let mut syn0 = vec![0.0f32; 3 * dim];
            syn0[0] = 2.0;
            syn0[dim] = 2.0;
            syn0[2 * dim + dim / 2] = 2.0;
            let mut syn1neg = vec![0.0f32; edges.len() * dim];
            for (r, &v) in edges.iter().enumerate() {
                syn1neg[r * dim] = v;
            }
            let targets: Vec<u32> = (0..edges.len() as u32).collect();
            for inputs in [&[0u32][..], &[0, 1], &[1, 0, 2, 0, 1]] {
                let scores = check_window(b, [&syn0, &syn1neg], dim, inputs, &targets, 0.025);
                let edge = |v: f32| scores.contains(&v);
                assert!(
                    edge(6.0) && edge(-6.0) && edge(6.0f32.next_up()),
                    "{}",
                    b.name
                );
            }
        }
    }
}

#[test]
fn sgns_window_matches_the_composition_on_nan_and_infinity() {
    let rows = 12;
    for b in &WINDOW_BACKENDS {
        for dim in WINDOW_DIMS {
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for pos in [0, dim / 2, dim - 1] {
                    let mut syn0 = pattern(rows * dim, 43);
                    let mut syn1neg = pattern(rows * dim, 44);
                    syn0[3 * dim + pos] = special;
                    syn1neg[5 * dim + pos] = special;
                    for (inputs, targets) in [
                        (&[3u32][..], &[5u32][..]),
                        (&[0, 3, 1], &[2, 5, 4, 5, 6, 7]),
                        (&[1, 2, 4, 6, 3, 3], &[5, 0, 1, 2, 8, 9, 10, 11, 1]),
                    ] {
                        check_window(b, [&syn0, &syn1neg], dim, inputs, targets, 0.025);
                    }
                }
            }
        }
    }
}

#[test]
fn sgns_window_keeps_the_sign_of_zeros_that_underflow() {
    // Every product of a gradient and a subnormal row element underflows
    // to ±0: `gemm_tn` keeps a `-0` chain in its strips and `axpy` rows
    // but adds it to the zeroed output (`+0`) in its 4-row tiles. A row
    // plus a zero delta hides the sign; a `-0.0` destination keeps it.
    let tiny = -f32::from_bits(1);
    for b in &WINDOW_BACKENDS {
        let mut zeros = [0usize; 2];
        for dim in [1usize, 7, 8, 9, 16, 17, 67] {
            let rows = 12;
            let layer: Vec<f32> = (0..rows * dim)
                .map(|i| if i % 3 == 0 { -tiny } else { tiny })
                .collect();
            for mb in 1..=20 {
                for nt in 1..=10 {
                    let inputs = window_ids(mb, rows, nt);
                    let targets = window_ids(nt, rows, mb);
                    check_window(b, [&layer, &layer], dim, &inputs, &targets, 0.025);
                    let (d_in, d_out, _) =
                        window_composition(b, [&layer, &layer], dim, &inputs, &targets, 0.025);
                    for v in d_in.iter().chain(&d_out).filter(|v| **v == 0.0) {
                        zeros[v.is_sign_negative() as usize] += 1;
                    }
                }
            }
        }
        // AVX2's chains keep a `-0` where `gemm_tn` does; scalar `axpy`
        // adds every product to `0.0`, so its zeros are all `+0`.
        assert!(zeros[0] > 0, "{}: no +0 delta", b.name);
        if b.name == "dispatched" && simd::backend_name() == "avx2+fma" {
            assert!(zeros[1] > 0, "{}: no -0 delta", b.name);
        }
    }
}

#[test]
fn sgns_window_panics_on_an_id_past_its_layer_before_writing() {
    let rows = 6u32;
    for b in &WINDOW_BACKENDS {
        for dim in [1usize, 8, 67] {
            let syn0 = pattern(rows as usize * dim, 45);
            let syn1neg = pattern(rows as usize * dim, 46);
            for (inputs, targets) in [
                (&[0u32, 5, rows][..], &[1u32, 2][..]),
                (&[0, 1], &[4, 0, 3, 2, 1, rows]),
            ] {
                let case = format!("{} dim={dim} inputs={inputs:?} targets={targets:?}", b.name);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let (mut in_place0, mut in_place1) = (syn0.clone(), syn1neg.clone());
                let mut d_in = vec![7.0f32; inputs.len() * dim];
                let mut d_out = vec![7.0f32; targets.len() * dim];
                let outcomes = [
                    WindowRows::InPlace([&mut in_place0, &mut in_place1]),
                    // Into blocks of 7s, which must stay 7s.
                    WindowRows::Apart {
                        src: [&syn0, &syn1neg],
                        dst: [&mut d_in, &mut d_out],
                    },
                ]
                .map(|rows| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let (sigmoid, mut room) = (SigmoidTable::new(), WindowRoom::default());
                        (b.window)(rows, dim, inputs, targets, 0.025, &sigmoid, &mut room)
                    }))
                });
                assert!(outcomes.iter().all(|o| o.is_err()), "{case}: no panic");
                assert!(
                    bits(&in_place0) == bits(&syn0) && bits(&in_place1) == bits(&syn1neg),
                    "{case}: a row was written"
                );
                assert!(
                    d_in.iter().chain(&d_out).all(|&v| v == 7.0),
                    "{case}: a delta was written"
                );
            }
        }
    }
}

#[test]
fn single_rounding_kernels_match_scalar_bitwise() {
    // scale, sub_into, and add_assign perform exactly one IEEE operation
    // per lane on both backends, so the results must be bit-identical.
    for n in 0..=512usize {
        let x = pattern(n, 10);
        let y = pattern(n, 11);

        let mut s = x.clone();
        let mut s_ref = x.clone();
        fvec::scale(1.7, &mut s);
        scalar::scale(1.7, &mut s_ref);
        assert_eq!(s, s_ref, "scale n={n}");

        let mut d = vec![0.0; n];
        let mut d_ref = vec![0.0; n];
        fvec::sub_into(&x, &y, &mut d);
        scalar::sub_into(&x, &y, &mut d_ref);
        assert_eq!(d, d_ref, "sub_into n={n}");

        let mut a = x.clone();
        let mut a_ref = x.clone();
        fvec::add_assign(&mut a, &y);
        scalar::add_assign(&mut a_ref, &y);
        assert_eq!(a, a_ref, "add_assign n={n}");
    }
}

#[test]
fn nan_and_infinity_propagate_identically() {
    // Specials planted in the vector body, at a lane straddling the
    // 8-wide boundary, and in the scalar tail.
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for n in [1usize, 7, 8, 9, 16, 19, 67] {
        for &s in &specials {
            for pos in [0, n / 2, n - 1] {
                let mut x = pattern(n, 12);
                x[pos] = s;
                let y = pattern(n, 13);

                let got = fvec::dot(&x, &y);
                let want = scalar::dot(&x, &y);
                assert_eq!(
                    got.is_nan(),
                    want.is_nan(),
                    "dot NaN-ness n={n} pos={pos} s={s}"
                );
                if !want.is_nan() {
                    assert_eq!(got, want, "dot special n={n} pos={pos} s={s}");
                }

                let mut y1 = y.clone();
                let mut y2 = y.clone();
                fvec::axpy(1.5, &x, &mut y1);
                scalar::axpy(1.5, &x, &mut y2);
                for i in 0..n {
                    assert_eq!(
                        y1[i].is_nan(),
                        y2[i].is_nan(),
                        "axpy NaN lane n={n} pos={pos} lane={i}"
                    );
                    if !y2[i].is_nan() {
                        assert_eq!(y1[i], y2[i], "axpy lane n={n} pos={pos} lane={i}");
                    }
                }

                // inf − inf and inf + (−inf) must turn into NaN on both.
                let mut d1 = vec![0.0; n];
                let mut d2 = vec![0.0; n];
                fvec::sub_into(&x, &x, &mut d1);
                scalar::sub_into(&x, &x, &mut d2);
                assert_eq!(
                    d1.iter().map(|v| v.is_nan()).collect::<Vec<_>>(),
                    d2.iter().map(|v| v.is_nan()).collect::<Vec<_>>(),
                    "sub_into NaN pattern n={n} pos={pos} s={s}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn prop_dot_matches_scalar(
        pairs in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 0..512)
    ) {
        let (x, y): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let got = fvec::dot(&x, &y);
        let want = scalar::dot(&x, &y);
        let abs_sum: f32 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
        prop_assert!(
            reduce_close(got, want, x.len(), abs_sum),
            "n={}: {} vs {}", x.len(), got, want
        );
    }

    #[test]
    fn prop_dot_norms_matches_three_dots(
        pairs in proptest::collection::vec((-20.0f32..20.0, -20.0f32..20.0), 0..512)
    ) {
        let (x, y): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let (xy, xx, yy) = fvec::dot_norms(&x, &y);
        let n = x.len();
        let mass = |p: &[f32], q: &[f32]| -> f32 {
            p.iter().zip(q).map(|(a, b)| (a * b).abs()).sum()
        };
        prop_assert!(reduce_close(xy, fvec::dot(&x, &y), n, mass(&x, &y)));
        prop_assert!(reduce_close(xx, fvec::dot(&x, &x), n, mass(&x, &x)));
        prop_assert!(reduce_close(yy, fvec::dot(&y, &y), n, mass(&y, &y)));
    }

    #[test]
    fn prop_axpy_matches_scalar(
        a in -4.0f32..4.0,
        pairs in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 0..512)
    ) {
        let (x, y0): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let mut y = y0.clone();
        let mut y_ref = y0;
        fvec::axpy(a, &x, &mut y);
        scalar::axpy(a, &x, &mut y_ref);
        for i in 0..x.len() {
            prop_assert!(
                fma_close(y[i], y_ref[i], (a * x[i]).abs()),
                "lane {}: {} vs {}", i, y[i], y_ref[i]
            );
        }
    }

    #[test]
    fn prop_fused_grad_step_is_axpy_pair(
        g in -2.0f32..2.0,
        triples in proptest::collection::vec(
            (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0), 0..512)
    ) {
        // The fused kernel must equal the two-axpy sequence it replaces,
        // computed by the scalar reference (which is exactly that pair).
        let n = triples.len();
        let mut win = Vec::with_capacity(n);
        let mut wout = Vec::with_capacity(n);
        let mut neu1e = Vec::with_capacity(n);
        for (a, b, c) in triples {
            win.push(a);
            wout.push(b);
            neu1e.push(c);
        }
        let wout_old = wout.clone();
        let (mut wout_ref, mut neu1e_ref) = (wout.clone(), neu1e.clone());
        scalar::axpy(g, &wout_old, &mut neu1e_ref);
        scalar::axpy(g, &win, &mut wout_ref);
        fvec::fused_grad_step(g, &win, &mut wout, &mut neu1e);
        for i in 0..n {
            // neu1e's FMA multiplies g by the *pre-update* wout.
            prop_assert!(fma_close(neu1e[i], neu1e_ref[i], (g * wout_old[i]).abs()));
            prop_assert!(fma_close(wout[i], wout_ref[i], (g * win[i]).abs()));
        }
    }

    #[test]
    fn prop_gemm_nt_matches_scalar(
        m in 0usize..9,
        n in 0usize..34,
        k in 0usize..72,
        salt in 0u32..1000,
    ) {
        let a = pattern(m * k, salt);
        let b = pattern(n * k, salt.wrapping_add(1));
        let c0 = pattern(m * n, salt.wrapping_add(2));
        let mut c = c0.clone();
        let mut c_ref = c0;
        fvec::gemm_nt(m, n, k, &a, &b, &mut c);
        scalar::gemm_nt(m, n, k, &a, &b, &mut c_ref);
        for i in 0..m {
            for j in 0..n {
                let abs_sum: f32 = (0..k)
                    .map(|p| (a[i * k + p] * b[j * k + p]).abs())
                    .sum();
                prop_assert!(
                    reduce_close(c[i * n + j], c_ref[i * n + j], k, abs_sum),
                    "nt ({},{},{}) elem ({},{}): {} vs {}",
                    m, n, k, i, j, c[i * n + j], c_ref[i * n + j]
                );
            }
        }
    }

    #[test]
    fn prop_gemm_tn_matches_scalar(
        m in 0usize..9,
        n in 0usize..72,
        k in 0usize..34,
        salt in 0u32..1000,
    ) {
        let a = pattern(k * m, salt);
        let b = pattern(k * n, salt.wrapping_add(1));
        let c0 = pattern(m * n, salt.wrapping_add(2));
        let mut c = c0.clone();
        let mut c_ref = c0;
        fvec::gemm_tn(m, n, k, &a, &b, &mut c);
        scalar::gemm_tn(m, n, k, &a, &b, &mut c_ref);
        for i in 0..m {
            for j in 0..n {
                let abs_sum: f32 = (0..k)
                    .map(|l| (a[l * m + i] * b[l * n + j]).abs())
                    .sum();
                prop_assert!(
                    reduce_close(c[i * n + j], c_ref[i * n + j], k, abs_sum),
                    "tn ({},{},{}) elem ({},{}): {} vs {}",
                    m, n, k, i, j, c[i * n + j], c_ref[i * n + j]
                );
            }
        }
    }

    #[test]
    fn prop_quantize_matches_scalar_bitwise_and_bounds_error(
        dim in 1usize..48,
        rows in proptest::collection::vec(-100.0f32..100.0, 1..480),
    ) {
        // Truncate to whole rows; quantize through the dispatched table
        // and the scalar reference — codes, scales, and offsets must be
        // bit-identical (the kernels are FMA-free and round ties-to-even
        // on both backends by contract), and reconstruction must land
        // within half a quantization step per element.
        let n = rows.len() / dim;
        prop_assume!(n > 0);
        let values = &rows[..n * dim];
        let k = gw2v_util::simd::kernels();
        let mut s = vec![0.0f32; n];
        let mut o = vec![0.0f32; n];
        let mut c = vec![0u8; n * dim];
        let (mut s_ref, mut o_ref, mut c_ref) = (s.clone(), o.clone(), c.clone());
        (k.quantize_rows)(values, dim, &mut s, &mut o, &mut c);
        scalar::quantize_rows(values, dim, &mut s_ref, &mut o_ref, &mut c_ref);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&s), bits(&s_ref), "scales");
        prop_assert_eq!(bits(&o), bits(&o_ref), "offsets");
        prop_assert_eq!(&c, &c_ref, "codes");

        let mut back = vec![0.0f32; n * dim];
        let mut back_ref = vec![0.0f32; n * dim];
        (k.dequantize_rows)(&c, dim, &s, &o, &mut back);
        scalar::dequantize_rows(&c_ref, dim, &s_ref, &o_ref, &mut back_ref);
        prop_assert_eq!(bits(&back), bits(&back_ref), "dequant");
        for r in 0..n {
            let tol = s[r] * 0.5 + 1e-4 * (1.0 + o[r].abs());
            for i in 0..dim {
                let (v, b) = (values[r * dim + i], back[r * dim + i]);
                prop_assert!(
                    (v - b).abs() <= tol,
                    "row {} lane {}: {} vs {} (tol {})", r, i, v, b, tol
                );
            }
        }
    }

    #[test]
    fn prop_crc32_update_matches_scalar_bitwise(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        state in any::<u32>()
    ) {
        let k = gw2v_util::simd::kernels();
        prop_assert_eq!((k.crc32_update)(state, &data), scalar::crc32_update(state, &data));
    }

    #[test]
    fn prop_single_rounding_kernels_bitwise(
        a in -4.0f32..4.0,
        pairs in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 0..512)
    ) {
        let (x, y): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let mut s = x.clone();
        let mut s_ref = x.clone();
        fvec::scale(a, &mut s);
        scalar::scale(a, &mut s_ref);
        prop_assert_eq!(s, s_ref);

        let n = x.len();
        let mut d = vec![0.0; n];
        let mut d_ref = vec![0.0; n];
        fvec::sub_into(&x, &y, &mut d);
        scalar::sub_into(&x, &y, &mut d_ref);
        prop_assert_eq!(d, d_ref);

        let mut t = x.clone();
        let mut t_ref = x;
        fvec::add_assign(&mut t, &y);
        scalar::add_assign(&mut t_ref, &y);
        prop_assert_eq!(t, t_ref);
    }
}

/// The two whitespace-mask entries: the scalar reference and the
/// dispatched one (AVX2 where the host has it).
fn mask_backends() -> [(&'static str, simd::WhitespaceMaskFn); 2] {
    [
        ("scalar", scalar::ascii_whitespace),
        ("dispatched", simd::kernels().ascii_whitespace),
    ]
}

fn per_byte_mask(block: &[u8; 64]) -> u64 {
    (0..64).fold(0, |m, i| m | u64::from(block[i].is_ascii_whitespace()) << i)
}

#[test]
fn ascii_whitespace_mask_is_u8_is_ascii_whitespace_for_every_byte_at_every_position() {
    // Exactly five bytes: not `\x0B`, not a byte of U+00A0 or U+3000.
    let ws: Vec<u8> = (0..=255u8).filter(u8::is_ascii_whitespace).collect();
    assert_eq!(ws, b"\t\n\x0C\r ");
    for (name, mask) in mask_backends() {
        for b in 0..=255u8 {
            let want = if b.is_ascii_whitespace() { u64::MAX } else { 0 };
            assert_eq!(mask(&[b; 64]), want, "{name}: byte {b:#04x}");
        }
        // Each byte value visits every position against a changing
        // background.
        for salt in 0..256usize {
            let block: [u8; 64] = std::array::from_fn(|i| (i * 37 + salt * 101) as u8);
            assert_eq!(mask(&block), per_byte_mask(&block), "{name}: salt {salt}");
        }
    }
}

/// What `str::split_ascii_whitespace` yields, on bytes that need not be
/// UTF-8.
fn split_oracle(bytes: &[u8]) -> Vec<&[u8]> {
    bytes
        .split(u8::is_ascii_whitespace)
        .filter(|w| !w.is_empty())
        .collect()
}

/// Checks both backends' splitters, and `str_words` where the input is
/// text, against `split_ascii_whitespace`.
fn check_words(bytes: &[u8]) {
    let want = split_oracle(bytes);
    for (name, mask) in mask_backends() {
        let got: Vec<&[u8]> = split::Words::with_mask(bytes, mask).collect();
        assert_eq!(got, want, "{name}: {} bytes", bytes.len());
        for word in &got {
            // Subslices of the input, not copies.
            let offset = word.as_ptr() as usize - bytes.as_ptr() as usize;
            assert!(offset + word.len() <= bytes.len());
        }
    }
    if let Ok(text) = std::str::from_utf8(bytes) {
        let got: Vec<&str> = split::str_words(text).collect();
        let want: Vec<&str> = text.split_ascii_whitespace().collect();
        assert_eq!(got, want);
    }
}

#[test]
fn words_split_like_split_ascii_whitespace_across_blocks_and_chunks() {
    check_words(b"");
    check_words(b" ");
    check_words(&[b' '; 64]);
    check_words(&b"\t\n\x0C\r ".repeat(60));
    check_words(b"a");
    check_words(&[b'x'; 64]);
    check_words(&[b'x'; 200]);
    // A token ending on, before and after each block edge, with and
    // without whitespace after it, and one that fills a block exactly.
    for len in 1..200usize {
        for lead in [0usize, 1, 63, 64, 65] {
            let mut bytes = vec![b' '; lead];
            bytes.extend(std::iter::repeat_n(b'w', len));
            check_words(&bytes);
            bytes.push(b'\n');
            bytes.extend_from_slice(b"tail");
            check_words(&bytes);
        }
    }
    // Tokens across the 64 KB edge the corpus reader splits its buffer
    // at, and non-ASCII spaces inside tokens.
    let mut big = "ab\u{a0}c \x0Bv\u{3000}x\r\n".repeat(6_000).into_bytes();
    big.truncate(65_530);
    big.extend_from_slice(b"straddles_the_edge tail");
    check_words(&big);
}

/// Piece table for the splitter's inputs: the five whitespace bytes
/// twice over, `\x0B`, U+00A0, two- to four-byte characters, and ASCII
/// letters.
const SPLIT_PIECES: [&[u8]; 16] = [
    b" ",
    b"\t",
    b"\n",
    b"\x0C",
    b"\r",
    b" ",
    b"\t",
    b"\n",
    b"\x0C",
    b"\r",
    b"\x0B",
    b"\xC2\xA0",
    "é".as_bytes(),
    "\u{3000}".as_bytes(),
    "𝄞".as_bytes(),
    b"q",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_words_split_like_split_ascii_whitespace(
        pieces in proptest::collection::vec((0usize..SPLIT_PIECES.len() + 6, any::<u8>()), 0..300),
        len in 0usize..=300,
    ) {
        // An index past the table is one byte: a random one a third of
        // the time, so some inputs are not UTF-8, else a letter, so
        // tokens run long.
        let mut bytes = Vec::new();
        for (i, byte) in pieces {
            match SPLIT_PIECES.get(i) {
                Some(piece) => bytes.extend_from_slice(piece),
                None if i % 3 == 0 => bytes.push(byte),
                None => bytes.push(b'a' + byte % 26),
            }
        }
        bytes.truncate(len);
        check_words(&bytes);
    }
}
