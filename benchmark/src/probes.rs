//! Isolated probes of single layers on rows captured from the workload
//! (the trained model, or the served table): kernel GFLOP/s, codec MB/s,
//! CRC GB/s, combiner rows/s. Each reports the best of a few short
//! repetitions; they run once per traced run, outside the laps.

use gw2v_combiner::{CombineAccumulator, CombinerKind};
use gw2v_gluon::wire::{seal_frame, Channel, DeltaForm, DeltaShadow, RowDecoder, RowEncoder};
use gw2v_util::crc32::crc32;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::simd::kernels;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const MIN_REP_SECS: f64 = 0.02;
/// Rows per wire payload: a sync round of the graph workload ships a
/// few thousand rows per host pair.
const PAYLOAD_ROWS: usize = 2_048;
/// HogBatch minibatch shape: window positives × (1 + negatives) targets.
const BATCH_INPUTS: usize = 8;
const BATCH_TARGETS: usize = 6;
const SIM_HOSTS: usize = 8;

/// Seconds per call of `f`: best of [`REPS`] repetitions, each long
/// enough to time.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed().as_secs_f64() >= MIN_REP_SECS {
            break;
        }
        calls *= 2;
    }
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Probe results, by per-layer metric name.
pub fn run(rows: &FlatMatrix, scan_shape: bool) -> Vec<(&'static str, f64)> {
    let dim = rows.dim();
    let n = rows.rows();
    let k = kernels();
    let mut out = Vec::new();

    // Level-1 kernels over consecutive row pairs, as the per-pair SGNS
    // step walks them.
    let mut acc = vec![0.0f32; dim];
    let t = secs_per_call(|| {
        let mut s = 0.0f32;
        for r in 0..n - 1 {
            s += (k.dot)(rows.row(r), rows.row(r + 1));
        }
        black_box(s);
    });
    out.push((
        "util.simd.dot_gflops",
        2.0 * dim as f64 * (n - 1) as f64 / t / 1e9,
    ));
    let t = secs_per_call(|| {
        for r in 0..n {
            (k.axpy)(1e-3, rows.row(r), &mut acc);
        }
        black_box(&mut acc);
    });
    out.push((
        "util.simd.axpy_gflops",
        2.0 * dim as f64 * n as f64 / t / 1e9,
    ));

    // GEMM in the shape the workload gives it: the serve scan scores a
    // batch of 32 queries against a whole shard; HogBatch scores one
    // minibatch of gathered rows.
    let (m, nn) = if scan_shape {
        (32, n / 8)
    } else {
        (BATCH_INPUTS, BATCH_TARGETS)
    };
    let a = &rows.as_slice()[..m * dim];
    let b = &rows.as_slice()[(n - nn) * dim..];
    let mut c = vec![0.0f32; m * nn];
    let t = secs_per_call(|| {
        (k.gemm_nt)(m, nn, dim, a, b, &mut c);
        black_box(&mut c);
    });
    out.push((
        "util.simd.gemm_nt_gflops",
        2.0 * (m * nn * dim) as f64 / t / 1e9,
    ));
    // Rank-k write-back: C[targets × dim] += G[inputs × targets]ᵀ · A[inputs × dim].
    let g = vec![1e-3f32; BATCH_INPUTS * BATCH_TARGETS];
    let a = &rows.as_slice()[..BATCH_INPUTS * dim];
    let mut c = vec![0.0f32; BATCH_TARGETS * dim];
    let t = secs_per_call(|| {
        (k.gemm_tn)(BATCH_TARGETS, dim, BATCH_INPUTS, &g, a, &mut c);
        black_box(&mut c);
    });
    out.push((
        "util.simd.gemm_tn_gflops",
        2.0 * (BATCH_INPUTS * BATCH_TARGETS * dim) as f64 / t / 1e9,
    ));

    // Wire codecs over one payload of captured rows.
    let payload_rows = PAYLOAD_ROWS.min(n);
    let mut enc = RowEncoder::new(dim);
    for r in 0..payload_rows {
        enc.push(r as u32, rows.row(r));
    }
    let payload = enc.finish();
    let mb = payload.len() as f64 / 1e6;
    let t = secs_per_call(|| {
        black_box(enc.finish());
    });
    out.push(("gluon.wire.idvalue_encode_mb_per_s", mb / t));
    let mut sink = FlatMatrix::zeros(payload_rows, dim);
    let t = secs_per_call(|| {
        let mut dec = RowDecoder::new(payload.clone(), dim);
        while let Some((node, row)) = dec.next_entry() {
            sink.row_mut(node as usize).copy_from_slice(row);
        }
        black_box(&mut sink);
    });
    out.push(("gluon.wire.idvalue_decode_mb_per_s", mb / t));
    let t = secs_per_call(|| {
        black_box(seal_frame(&payload));
    });
    out.push(("gluon.wire.frame_seal_mb_per_s", mb / t));
    let t = secs_per_call(|| {
        black_box(crc32(payload.as_slice()));
    });
    out.push(("util.crc32_gb_per_s", mb / 1e3 / t));
    let t = secs_per_call(|| {
        black_box(enc.finish_quant());
    });
    out.push(("gluon.wire.quant_encode_mb_per_s", mb / t));
    // Delta: the id list repeats and every other row differs from the
    // shadow, alternating between two value sets so each call sees the
    // same half-changed payload. Rates are over the classic payload size,
    // so the three encoders compare on the same rows.
    let mut enc_alt = RowEncoder::new(dim);
    for r in 0..payload_rows {
        let mut row = rows.row(r).to_vec();
        if r % 2 == 0 {
            row[0] += 1.0;
        }
        enc_alt.push(r as u32, &row);
    }
    let mut shadow = DeltaShadow::new();
    let (from, to, layer) = (0, 1, 0);
    // The receiver-side `store` seeds the shadow a first `submit` would.
    shadow.store(
        from,
        to,
        layer,
        Channel::Reduce,
        enc.ids().to_vec(),
        enc.values().to_vec(),
    );
    let mut flip = false;
    let t = secs_per_call(|| {
        flip = !flip;
        let e = if flip { &enc_alt } else { &enc };
        match shadow.submit(from, to, layer, Channel::Reduce, e.ids(), e.values(), dim) {
            DeltaForm::Delta { mask, .. } => {
                black_box(e.finish_delta(&mask));
            }
            DeltaForm::Full => unreachable!("id list repeats"),
        }
    });
    out.push(("gluon.wire.delta_encode_mb_per_s", mb / t));

    // Model combiner: every row folds one delta per simulated host.
    let mut mc = CombineAccumulator::new(CombinerKind::ModelCombiner, dim);
    let mut combined = vec![0.0f32; dim];
    let t = secs_per_call(|| {
        for r in 0..payload_rows {
            mc.reset(CombinerKind::ModelCombiner, dim);
            for h in 0..SIM_HOSTS {
                mc.push(rows.row((r + h) % n));
            }
            mc.finish_into(&mut combined);
        }
        black_box(&mut combined);
    });
    out.push((
        "combiner.mc_mrows_per_s",
        (payload_rows * SIM_HOSTS) as f64 / t / 1e6,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_rate() {
        let mut rows = FlatMatrix::zeros(64, 16);
        for (i, v) in rows.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 7) as f32 * 0.25 - 0.5;
        }
        for scan_shape in [false, true] {
            let results = run(&rows, scan_shape);
            assert_eq!(results.len(), 11);
            for (name, value) in results {
                assert!(value.is_finite() && value > 0.0, "{name} = {value}");
            }
        }
    }
}
