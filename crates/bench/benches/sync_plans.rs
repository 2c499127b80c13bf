//! Microbenchmarks for the synchronization substrate: one Gluon round
//! under each communication plan, and the wire codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gw2v_combiner::CombinerKind;
use gw2v_gluon::plan::{AccessSets, SyncConfig, SyncPlan};
use gw2v_gluon::sync::sync_round;
use gw2v_gluon::volume::CommStats;
use gw2v_gluon::wire::{mask_bytes, Channel, DeltaShadow, QuantDecoder, RowDecoder, RowEncoder};
use gw2v_gluon::ModelReplica;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{Rng64, Xoshiro256};
use std::hint::black_box;

const N_NODES: usize = 2_000;
const DIM: usize = 64;

fn make_replicas(n_hosts: usize) -> Vec<ModelReplica> {
    (0..n_hosts)
        .map(|_| {
            ModelReplica::new(vec![
                FlatMatrix::zeros(N_NODES, DIM),
                FlatMatrix::zeros(N_NODES, DIM),
            ])
        })
        .collect()
}

/// Touch ~10% of the nodes on each host.
fn touch_workload(replicas: &mut [ModelReplica], seed: u64) {
    let mut rng = Xoshiro256::new(seed);
    for r in replicas.iter_mut() {
        for _ in 0..N_NODES / 10 {
            let layer = rng.index(2);
            let node = rng.index(N_NODES) as u32;
            r.row_mut(layer, node)[0] += rng.next_f32() - 0.5;
        }
    }
}

fn bench_sync_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_round");
    group.sample_size(20);
    for hosts in [4usize, 16] {
        for plan in [
            SyncPlan::RepModelNaive,
            SyncPlan::RepModelOpt,
            SyncPlan::PullModel,
        ] {
            group.bench_function(BenchmarkId::new(plan.label(), hosts), |b| {
                let cfg = SyncConfig {
                    plan,
                    combiner: CombinerKind::ModelCombiner,
                };
                let mut access = AccessSets::new(hosts, 2, N_NODES);
                for h in 0..hosts {
                    for l in 0..2 {
                        access.get_mut(h, l).set_all();
                    }
                }
                b.iter_with_setup(
                    || {
                        let mut reps = make_replicas(hosts);
                        touch_workload(&mut reps, 11);
                        reps
                    },
                    |mut reps| {
                        let mut stats = CommStats::default();
                        black_box(sync_round(&mut reps, &cfg, Some(&access), &mut stats));
                    },
                );
            });
        }
    }
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let rows: Vec<(u32, Vec<f32>)> = (0..500u32)
        .map(|i| (i, (0..DIM).map(|d| (i + d as u32) as f32).collect()))
        .collect();
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("encode_500x64", |b| {
        b.iter(|| {
            let mut enc = RowEncoder::new(DIM);
            for (n, r) in &rows {
                enc.push(*n, r);
            }
            black_box(enc.finish())
        });
    });
    let mut enc = RowEncoder::new(DIM);
    for (n, r) in &rows {
        enc.push(*n, r);
    }
    let buf = enc.finish();
    group.bench_function("decode_500x64", |b| {
        b.iter(|| {
            let mut dec = RowDecoder::new(buf.clone(), DIM);
            let mut sum = 0.0f32;
            while let Some((_, row)) = dec.next_entry() {
                sum += row[0];
            }
            black_box(sum)
        });
    });
    // Delta format: steady-state payload with ~1-in-8 rows changed
    // (mask + changed rows only), and its shadow-side reconstruction.
    let mut mask = vec![0u8; mask_bytes(rows.len())];
    for r in (0..rows.len()).step_by(8) {
        mask[r / 8] |= 1 << (r % 8);
    }
    group.bench_function("delta_encode_500x64", |b| {
        b.iter(|| black_box(enc.finish_delta(&mask)));
    });
    let dbuf = enc.finish_delta(&mask);
    let mut shadow = DeltaShadow::new();
    shadow.store(
        0,
        1,
        0,
        Channel::Reduce,
        enc.ids().to_vec(),
        rows.iter().flat_map(|(_, r)| r.iter().copied()).collect(),
    );
    group.bench_function("delta_decode_500x64", |b| {
        b.iter(|| {
            let (_, vals) = shadow
                .apply_delta(0, 1, 0, Channel::Reduce, &dbuf, DIM)
                .expect("payload matches shadow");
            black_box(vals[0])
        });
    });
    // Quantized format: u8 codes with per-row scale/offset, SoA layout.
    group.bench_function("quant_encode_500x64", |b| {
        b.iter(|| black_box(enc.finish_quant()));
    });
    let qbuf = enc.finish_quant();
    group.bench_function("quant_decode_500x64", |b| {
        b.iter(|| {
            let mut dec = QuantDecoder::new(qbuf.clone(), DIM).expect("well-formed payload");
            let mut sum = 0.0f32;
            while let Some((_, row)) = dec.next_entry() {
                sum += row[0];
            }
            black_box(sum)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sync_round, bench_wire_codec);
criterion_main!(benches);
