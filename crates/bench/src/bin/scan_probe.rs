//! Serve scan probe: microseconds a query through
//! [`QueryEngine::answer`] and [`QueryEngine::answer_batch`], and the
//! coded scan's integer kernel on its own.
//!
//! The store is built in process as the serve-mixed benchmark builds
//! its model: 50 000 rows of dim 64, each a random one of 500 cluster
//! centres plus uniform noise, in 8 shards. The queries are 80 %
//! `sim` and 20 % `analogy` over uniformly drawn words, k = 10.
//!
//! * `singles`: 1 000 queries, one `answer` call each.
//! * `batch m`: 1 536 queries in `answer_batch` calls of `m`, for `m`
//!   ∈ {1, 2, 4, 8, 16, 24, 32, 48}.
//! * `kernel streamed`: one query against the codes of 50 000 rows,
//!   256 rows a call, the codes read from memory; `kernel L1`: the same
//!   number of calls on one 256-row tile's codes, which stay in L1.
//!
//! Each figure is the median of five passes, with the best pass beside
//! it, in µs a query (the kernel: µs per 50 000 rows).
//!
//! Usage: `cargo run --release -p gw2v-bench --bin scan_probe`.

use gw2v_corpus::vocab::Vocabulary;
use gw2v_serve::{Query, QueryEngine, ShardedStore};
use gw2v_util::fvec::{self, FlatMatrix};
use gw2v_util::rng::{Rng64, Xoshiro256};
use gw2v_util::simd::{self, CodeBound, CODE_BLOCK_ROWS};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 50_000;
const DIM: usize = 64;
const CLUSTERS: usize = 500;
const SHARDS: usize = 8;
const K: usize = 10;
const SINGLES: usize = 1_000;
const BATCHED: usize = 1_536;
const BATCHES: [usize; 8] = [1, 2, 4, 8, 16, 24, 32, 48];
const PASSES: usize = 5;
const TILE: usize = 256;

/// Median and best of `PASSES` timings of `f`, each divided by `per`.
fn measure(per: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut us: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6 / per as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    (us[PASSES / 2], us[0])
}

fn main() {
    let mut rng = Xoshiro256::new(41);
    let mut centres = FlatMatrix::zeros(CLUSTERS, DIM);
    for v in centres.as_mut_slice() {
        *v = rng.next_f32() - 0.5;
    }
    let mut table = FlatMatrix::zeros(ROWS, DIM);
    for r in 0..ROWS {
        let c = rng.index(CLUSTERS);
        for (v, centre) in table.row_mut(r).iter_mut().zip(centres.row(c)) {
            *v = centre + 0.6 * (rng.next_f32() - 0.5);
        }
    }
    let vocab = Vocabulary::from_counts(
        (0..ROWS).map(|i| (format!("w{i:05}"), (ROWS - i) as u64)),
        1,
    );
    let store = ShardedStore::from_matrix(&table, SHARDS);
    let engine = QueryEngine::new(&store, &vocab);
    let mut word = || format!("w{:05}", rng.index(ROWS));
    let queries: Vec<Query> = (0..SINGLES + BATCHED)
        .map(|i| {
            if i % 5 == 4 {
                Query::Analogy {
                    a: word(),
                    b: word(),
                    c: word(),
                }
            } else {
                Query::Similar { word: word() }
            }
        })
        .collect();
    let (singles, batched) = queries.split_at(SINGLES);

    println!("backend {}", gw2v_util::simd::backend_name());
    println!("{:<16} {:>9} {:>9}", "scan", "median", "best");
    let (median, best) = measure(SINGLES, || {
        for q in singles {
            black_box(engine.answer(q, K));
        }
    });
    println!("{:<16} {median:>9.1} {best:>9.1}", "singles");
    for m in BATCHES {
        let (median, best) = measure(BATCHED, || {
            for chunk in batched.chunks(m) {
                black_box(engine.answer_batch(chunk, K));
            }
        });
        println!("{:<16} {median:>9.1} {best:>9.1}", format!("batch {m}"));
    }

    let (streamed, in_l1) = kernel(&mut rng);
    println!(
        "{:<16} {:>9.1} {:>9.1}",
        "kernel streamed", streamed.0, streamed.1
    );
    println!("{:<16} {:>9.1} {:>9.1}", "kernel L1", in_l1.0, in_l1.1);
}

/// The codes kernel over `ROWS` rows of random codes, streamed and from
/// one tile: (median, best) µs each.
fn kernel(rng: &mut Xoshiro256) -> ((f64, f64), (f64, f64)) {
    let block = simd::code_block_bytes(DIM);
    let codes: Vec<u8> = (0..ROWS / CODE_BLOCK_ROWS * block)
        .map(|_| rng.next_u64() as u8)
        .collect();
    let q: Vec<i8> = (0..DIM).map(|_| (rng.next_u64() % 255) as i8).collect();
    let per_row: Vec<f32> = (0..TILE).map(|_| rng.next_f32()).collect();
    let bound = CodeBound {
        a: &per_row,
        b: &per_row,
        slack: &per_row,
        unscale: 2f32.powi(-8),
        lift: 0.5,
        sum: 0.25,
        norm: 1.0,
    };
    let (mut dots, mut bounds) = (vec![0i32; TILE], vec![0.0f32; TILE]);
    let mut lane_max = [f32::NEG_INFINITY; CODE_BLOCK_ROWS];
    let tile = TILE / CODE_BLOCK_ROWS * block;
    let tiles = ROWS / TILE;
    let mut run = |tile_codes: &mut dyn FnMut(usize) -> usize| {
        for t in 0..tiles {
            let at = tile_codes(t);
            fvec::dot_codes(
                &q,
                &codes[at..at + tile],
                &bound,
                &mut dots,
                &mut bounds,
                &mut lane_max,
            );
            black_box((&dots, &bounds, &lane_max));
        }
    };
    let streamed = measure(1, || run(&mut |t| t * tile));
    let in_l1 = measure(1, || run(&mut |_| 0));
    (streamed, in_l1)
}
