//! HogBatch window probe: nanoseconds per window of
//! [`step_window`] on the plain store — the kernel and the write-back
//! of both layers, nothing of the sentence loop around it (no
//! subsampling, no window shrink, no negative draws).
//!
//! Rows come from a 2 500 × 64 layer pair (text-shm's vocabulary and
//! dim). Each window's ids are drawn two ways: uniformly, so a window
//! touches rows spread over the whole 1.3 MB model and many miss L1,
//! and by rank from Zipf(1), as a corpus and its unigram negatives
//! reach a vocabulary sorted by frequency, so the frequent rows stay
//! cached. Shapes are `mb` ∈ {2, 4, 6, 8, 10} inputs × `nt` = 6 targets
//! (one center and five negatives, the default), plus 6 × 5 and 6 × 7.
//! Each figure is the best of three passes over the same 200 000
//! windows.
//!
//! Usage: `cargo run --release -p gw2v-bench --bin window_probe`.
//! Prints one `mb nt uniform zipf` line per shape, in ns a window.

use gw2v_core::sgns::PlainStore;
use gw2v_core::trainer_hogbatch::{step_window, WindowScratch};
use gw2v_corpus::zipf::ZipfSampler;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{Rng64, Xoshiro256};
use gw2v_util::sigmoid::SigmoidTable;
use std::time::Instant;

const WORDS: usize = 2_500;
const DIM: usize = 64;
const PASSES: usize = 3;
const WINDOWS: usize = 200_000;
const SHAPES: [(usize, usize); 7] = [(2, 6), (4, 6), (6, 6), (8, 6), (10, 6), (6, 5), (6, 7)];

fn main() {
    let mut rng = Xoshiro256::new(7);
    let mut layer = || {
        let mut m = FlatMatrix::zeros(WORDS, DIM);
        for v in m.as_mut_slice() {
            *v = (rng.next_f32() - 0.5) / DIM as f32;
        }
        m
    };
    let (mut syn0, mut syn1neg) = (layer(), layer());
    let sigmoid = SigmoidTable::new();
    let zipf = ZipfSampler::new(WORDS, 1.0, 0.0);
    let mut scratch = WindowScratch::default();
    println!("backend {}", gw2v_util::simd::backend_name());
    println!("{:>3} {:>3} {:>8} {:>8}", "mb", "nt", "uniform", "zipf");
    for (mb, nt) in SHAPES {
        let mut best = [f64::INFINITY; 2];
        for (best, skewed) in best.iter_mut().zip([false, true]) {
            let ids: Vec<u32> = (0..WINDOWS * (mb + nt))
                .map(|_| {
                    let id = if skewed {
                        zipf.sample(&mut rng)
                    } else {
                        rng.index(WORDS)
                    };
                    id as u32
                })
                .collect();
            for _ in 0..PASSES {
                let start = Instant::now();
                for window in ids.chunks_exact(mb + nt) {
                    let (inputs, targets) = window.split_at(mb);
                    let mut store = PlainStore {
                        syn0: &mut syn0,
                        syn1neg: &mut syn1neg,
                    };
                    step_window(&mut store, inputs, targets, 0.025, &sigmoid, &mut scratch);
                }
                *best = best.min(start.elapsed().as_nanos() as f64 / WINDOWS as f64);
            }
        }
        println!("{mb:>3} {nt:>3} {:>8.1} {:>8.1}", best[0], best[1]);
    }
    // Keeps the updates observable, so no pass is optimised away.
    let sum: f32 = syn0.as_slice().iter().chain(syn1neg.as_slice()).sum();
    eprintln!("checksum {sum}");
}
