//! Heap allocations of the set-up passes, counted exactly.
//!
//! Set-up is deterministic, so its allocation count repeats to the unit
//! and a limit on it is a regression test with no noise. The limits say
//! what each pass may allocate per unit of output — per vocabulary word,
//! per sentence, per graph node — and a pass that allocates per token
//! breaks them by two orders of magnitude.
//!
//! This binary holds one `#[test]` and counts on the calling thread
//! only, so nothing else the test harness runs reaches the counter.

use gw2v_corpus::datasets::{DatasetPreset, Scale};
use gw2v_corpus::file::build_vocab_streaming;
use gw2v_corpus::graphs::{even_blocks, holdout_split, sbm};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::synth::SynthCorpus;
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_corpus::walks::{generate_walks, WalkParams};
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

#[test]
fn setup_passes_allocate_per_word_sentence_and_node_not_per_token() {
    // The text-shm corpus, as the benchmark harness generates it.
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    let synth = SynthCorpus::generate(
        &preset.spec(Scale::Small, 1),
        preset.target_tokens(Scale::Small),
        1_000,
    );
    let cfg = TokenizerConfig::default();

    let (vocab, n) = counted(|| {
        build_vocab_streaming(synth.text.as_bytes(), cfg.clone(), 1).expect("in-memory read")
    });
    eprintln!("vocabulary pass: {n} allocations for {} words", vocab.len());
    assert!(
        n <= 3 * vocab.len() as u64 + 256,
        "vocabulary pass: {n} allocations for {} words",
        vocab.len()
    );

    let (corpus, n) = counted(|| Corpus::from_text(&synth.text, &vocab, cfg));
    eprintln!(
        "encode pass: {n} allocations for {} sentences",
        corpus.len()
    );
    assert!(
        n <= 32 * corpus.len() as u64 + 256,
        "encode pass: {n} allocations for {} sentences",
        corpus.len()
    );

    // The graph-cluster2 shape.
    let nodes = 4_000;
    let (graph, _) = sbm(&even_blocks(nodes, 40), 0.2, 0.0005, 1);
    let (train, _) = holdout_split(&graph, 0.2, 7);
    let params = WalkParams {
        walks_per_node: 10,
        walk_length: 20,
        p: 1.0,
        q: 1.0,
        seed: 1,
    };
    let (walks, n) = counted(|| generate_walks(&train, &params));
    eprintln!(
        "generate_walks: {n} allocations for {nodes} nodes, {} tokens",
        walks.n_tokens
    );
    assert!(
        n <= 10 * nodes as u64,
        "generate_walks: {n} allocations for {nodes} nodes"
    );
}
