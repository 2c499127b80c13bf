//! Serving-side microbenchmarks: single and batched top-k queries
//! against stores of increasing size, plus the store build itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gw2v_core::model::Word2VecModel;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_serve::{Query, QueryEngine, ShardedStore};
use std::hint::black_box;

fn fixture(n_words: usize, dim: usize, n_shards: usize) -> (ShardedStore, Vocabulary) {
    // Seeded random init gives realistic dense rows without training.
    let model = Word2VecModel::init(n_words, dim, 7);
    let store = ShardedStore::from_matrix(&model.syn0, n_shards);
    let n = n_words as u64;
    let vocab = Vocabulary::from_counts((0..n_words).map(|i| (format!("w{i}"), n - i as u64)), 1);
    (store, vocab)
}

fn bench_serve(c: &mut Criterion) {
    let dim = 128;
    let mut group = c.benchmark_group("serve");
    group.sample_size(20);
    for n_words in [1_000usize, 10_000] {
        let (store, vocab) = fixture(n_words, dim, 8);
        let engine = QueryEngine::new(&store, &vocab);
        let sim = Query::Similar { word: "w17".into() };
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("sim_top10", n_words), |b| {
            b.iter(|| black_box(engine.answer(&sim, 10)));
        });
        let analogy = Query::Analogy {
            a: "w1".into(),
            b: "w2".into(),
            c: "w3".into(),
        };
        group.bench_function(BenchmarkId::new("analogy_top10", n_words), |b| {
            b.iter(|| black_box(engine.answer(&analogy, 10)));
        });
        let batch: Vec<Query> = (0..32)
            .map(|i| Query::Similar {
                word: format!("w{i}"),
            })
            .collect();
        group.throughput(Throughput::Elements(batch.len() as u64));
        group.bench_function(BenchmarkId::new("sim_top10_batch32", n_words), |b| {
            b.iter(|| black_box(engine.answer_batch(&batch, 10)));
        });
    }
    // Store construction (shard + norm precomputation) from a table.
    let model = Word2VecModel::init(10_000, dim, 7);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("store_build_10k", |b| {
        b.iter(|| black_box(ShardedStore::from_matrix(&model.syn0, 8)));
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
