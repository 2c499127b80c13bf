//! Heap allocations of `Word2VecModel::load_text` and `save_text`,
//! counted exactly.
//!
//! Both are deterministic, so their allocation counts repeat to the unit
//! and a limit on them is a regression test with no noise: a load makes
//! one `String` per row for its word and a constant number of buffers
//! besides, a save a constant number whatever the row count.
//!
//! The counter counts on the calling thread only, so nothing else the
//! test harness runs reaches it.

use gw2v_core::model::Word2VecModel;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ON.try_with(Cell::get).unwrap_or(false) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the allocations and reallocations
/// it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(0));
    ON.with(|on| on.set(true));
    let value = f();
    ON.with(|on| on.set(false));
    (value, COUNT.with(Cell::get))
}

/// A `rows × dim` model of uniform floats in `[-0.5, 0.5)` and its
/// vocabulary.
fn model(rows: usize, dim: usize) -> (Word2VecModel, Vocabulary) {
    let mut rng = Xoshiro256::new(SplitMix64::new(3).derive(1));
    let mut table = FlatMatrix::zeros(rows, dim);
    for v in table.as_mut_slice() {
        *v = rng.next_f32() - 0.5;
    }
    let n = rows as u64;
    let vocab = Vocabulary::from_counts((0..n).map(|i| (format!("w{i:04}"), n - i)), 1);
    let model = Word2VecModel::from_layers(table, FlatMatrix::zeros(rows, dim));
    (model, vocab)
}

#[test]
fn save_text_allocates_a_constant() {
    let mut counts = Vec::new();
    for rows in [10, 1_000, 5_000] {
        let (model, vocab) = model(rows, 64);
        let mut text = Vec::new();
        model.save_text(&vocab, &mut text).expect("save");
        // Into room reserved beforehand, so the sink never grows.
        let mut out = Vec::with_capacity(text.len());
        let ((), n) = counted(|| model.save_text(&vocab, &mut out).expect("save"));
        assert_eq!(out, text);
        eprintln!("save_text: {n} allocations for {rows} rows");
        counts.push(n);
    }
    assert!(
        counts.iter().all(|&n| n == counts[0] && n <= 16),
        "save_text: {counts:?} allocations for 10, 1 000 and 5 000 rows"
    );
}

#[test]
fn load_text_allocates_one_word_per_row() {
    let (rows, dim) = (5_000usize, 64usize);
    let (model, vocab) = model(rows, dim);
    let mut text = Vec::new();
    model.save_text(&vocab, &mut text).expect("save");

    let (loaded, n) = counted(|| Word2VecModel::load_text(text.as_slice()).expect("load"));
    assert_eq!(loaded.1.syn0, model.syn0);
    eprintln!("load_text: {n} allocations for {rows} rows");
    assert!(
        n <= rows as u64 + 256,
        "load_text: {n} allocations for {rows} rows"
    );
}
