//! Closed-loop load harness for the gw2v-serve query engine.
//!
//! Trains a small model through the real distributed path (so the store
//! loads from an actual GW2VCKP1 checkpoint), then replays a synthetic
//! 80% similarity / 20% analogy query mix at each configured concurrency
//! level. Every request is timed client-side into both a per-level
//! histogram (for the table below) and the global `serve.request_ns`
//! instrument, and the run snapshot — per-level throughput plus p50/p90/
//! p99 latency — lands in `results/serve_load.json`.
//!
//! Knobs (environment):
//!
//! | Variable            | Default   | Meaning                          |
//! |---------------------|-----------|----------------------------------|
//! | `GW2V_SCALE`        | `tiny`    | Corpus scale for the model       |
//! | `SERVE_CONCURRENCY` | `1,2,4,8` | Client thread counts to sweep    |
//! | `SERVE_REQUESTS`    | `2000`    | Requests per concurrency level   |
//! | `SERVE_K`           | `10`      | Top-k per query                  |
//! | `SERVE_SHARDS`      | `8`       | Store shard count                |
//! | `SERVE_DIM`         | `128`     | Embedding dimensionality         |
//! | `SERVE_HOSTS`       | `4`       | Simulated hosts for training     |

use gw2v_bench::{obs_init, prepare, scale_from_env, write_json_run};
use gw2v_core::distributed::{DistConfig, DistributedTrainer};
use gw2v_core::params::Hyperparams;
use gw2v_corpus::datasets::{DatasetPreset, Scale};
use gw2v_obs::LogHistogram;
use gw2v_serve::{Query, QueryEngine, ShardedStore};
use gw2v_util::table::{Align, Table};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    concurrency: usize,
    requests: usize,
    qps: f64,
    mean_us: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_usizes(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

/// Deterministic 80/20 sim/analogy mix over the vocabulary.
fn query_mix(n_words: u32, n: usize, word_of: impl Fn(u32) -> String) -> Vec<Query> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    (0..n)
        .map(|_| {
            if next(10) < 8 {
                Query::Similar {
                    word: word_of(next(n_words as u64) as u32),
                }
            } else {
                Query::Analogy {
                    a: word_of(next(n_words as u64) as u32),
                    b: word_of(next(n_words as u64) as u32),
                    c: word_of(next(n_words as u64) as u32),
                }
            }
        })
        .collect()
}

fn main() {
    obs_init();
    let scale = scale_from_env(Scale::Tiny);
    let levels = env_usizes("SERVE_CONCURRENCY", &[1, 2, 4, 8]);
    let requests = env_usize("SERVE_REQUESTS", 2000);
    let k = env_usize("SERVE_K", 10);
    let n_shards = env_usize("SERVE_SHARDS", 8);
    let dim = env_usize("SERVE_DIM", 128);
    let hosts = env_usize("SERVE_HOSTS", 4);
    let seed = 42u64;

    let preset = DatasetPreset::by_name("1-billion").expect("builtin preset");
    eprintln!("[serve_load] preparing {} ({scale:?}) ...", preset.name);
    let d = prepare(preset, scale, seed);
    let params = Hyperparams {
        dim,
        epochs: 1,
        negative: 5,
        min_count: 1,
        seed: 1,
        ..Hyperparams::default()
    };

    // Train through the distributed engine with checkpointing on, then
    // load the store from the checkpoint — the exact serving path.
    let ckdir = std::env::temp_dir().join(format!("gw2v-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckdir);
    eprintln!("[serve_load] training {hosts}-host model (dim {dim}) ...");
    let t_train = Instant::now();
    DistributedTrainer::new(params, DistConfig::paper_default(hosts))
        .with_checkpointing(&ckdir, 1)
        .train(&d.corpus, &d.vocab);
    eprintln!(
        "[serve_load] trained in {:.1}s; loading store ...",
        t_train.elapsed().as_secs_f64()
    );
    let t_load = Instant::now();
    let (store, summary) = ShardedStore::load(&ckdir, n_shards).expect("checkpoint loads");
    eprintln!(
        "[serve_load] store: {} x {} vectors, {} shards, epoch {} ({:.3}s load)",
        store.len(),
        store.dim(),
        store.n_shards(),
        summary.epoch,
        t_load.elapsed().as_secs_f64()
    );

    let n_words = d.vocab.len() as u32;
    let queries = query_mix(n_words, requests, |id| d.vocab.word_of(id).to_owned());

    let mut table = Table::new(vec![
        "Threads", "Requests", "QPS", "mean µs", "p50 µs", "p90 µs", "p99 µs", "max µs",
    ])
    .with_aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut rows = Vec::new();
    for &c in &levels {
        let c = c.max(1);
        let hist = LogHistogram::new();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for chunk in queries.chunks(queries.len().div_ceil(c)) {
                let (store, vocab, hist) = (&store, &d.vocab, &hist);
                scope.spawn(move || {
                    let engine = QueryEngine::new(store, vocab);
                    for q in chunk {
                        let t = Instant::now();
                        let answer = engine.answer(q, k);
                        let ns = t.elapsed().as_nanos() as u64;
                        hist.record(ns);
                        gw2v_obs::observe("serve.request_ns", ns);
                        assert!(answer.hits.is_ok(), "in-vocab query must answer");
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let s = hist.summary();
        let us = |ns: u64| ns as f64 / 1000.0;
        let row = Row {
            concurrency: c,
            requests: queries.len(),
            qps: queries.len() as f64 / wall,
            mean_us: s.mean / 1000.0,
            p50_us: us(s.p50),
            p90_us: us(s.p90),
            p99_us: us(s.p99),
            max_us: us(s.max),
        };
        table.add_row(vec![
            format!("{c}"),
            format!("{}", row.requests),
            format!("{:.0}", row.qps),
            format!("{:.1}", row.mean_us),
            format!("{:.1}", row.p50_us),
            format!("{:.1}", row.p90_us),
            format!("{:.1}", row.p99_us),
            format!("{:.1}", row.max_us),
        ]);
        rows.push(row);
    }
    print!("{table}");
    write_json_run("serve_load", scale, seed, &rows);
    let _ = std::fs::remove_dir_all(&ckdir);
}
