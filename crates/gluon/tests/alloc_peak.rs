//! Heap high-water mark of one simulated sync round.
//!
//! The simulator's exchange is sender-major: a sender's payloads are
//! folded (or applied) at their receivers and dropped before the next
//! sender encodes, so about one sender's share of a phase is live at a
//! time. A transport that posted a whole phase before folding would
//! hold every sender's payloads at once; this test measures the round's
//! peak of live heap bytes and holds it under half of the round's
//! reduce bytes, which only the streaming exchange stays under at eight
//! hosts.
//!
//! This binary holds one `#[test]` and tracks the calling thread only,
//! so nothing else the test harness runs reaches the tally.

use gw2v_combiner::CombinerKind;
use gw2v_faults::FaultPlan;
use gw2v_gluon::cost::CostModel;
use gw2v_gluon::sync::{sync_round_degraded, SyncScratch};
use gw2v_gluon::wire::{WireMode, WireState};
use gw2v_gluon::{CommStats, Liveness, ModelReplica, SyncConfig, SyncPlan};
use gw2v_util::fvec::FlatMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Tracking;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since tracking began.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since tracking began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    if ON.try_with(Cell::get).unwrap_or(false) {
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every call forwards to `System` unchanged; tracking touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Runs `f` and returns its value with the most heap bytes that were
/// live on this thread at once during it, above what was live at its
/// start.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ON.with(|on| on.set(true));
    let value = f();
    ON.with(|on| on.set(false));
    (value, PEAK.with(Cell::get) as u64)
}

const HOSTS: usize = 8;
const NODES: usize = 4_000;
const DIM: usize = 64;

/// Host `h` moves every other row of both layers (the parity of `h`
/// picks which), so each host ships about 1 750 rows a layer to its
/// seven peers every round.
fn touch(replicas: &mut [ModelReplica], round: usize) {
    for (h, replica) in replicas.iter_mut().enumerate() {
        for layer in 0..2 {
            for node in (h % 2..NODES).step_by(2) {
                replica.row_mut(layer, node as u32)[(h + round) % DIM] += 0.25;
            }
        }
    }
}

#[test]
fn a_simulated_round_holds_one_senders_payloads_at_a_time() {
    let cfg = SyncConfig {
        plan: SyncPlan::RepModelOpt,
        combiner: CombinerKind::Sum,
    };
    let live = Liveness::all(HOSTS);
    let layers = || vec![FlatMatrix::zeros(NODES, DIM), FlatMatrix::zeros(NODES, DIM)];
    let mut replicas: Vec<ModelReplica> = (0..HOSTS).map(|_| ModelReplica::new(layers())).collect();
    let mut scratch: Vec<SyncScratch> = (0..HOSTS).map(|_| SyncScratch::new()).collect();
    let mut wire: Vec<WireState> = (0..HOSTS)
        .map(|_| WireState::for_mode(WireMode::IdValue))
        .collect();
    let (faults, cost) = (FaultPlan::none(), CostModel::infiniband_56g());
    let mut stats = CommStats::default();
    let mut round = |replicas: &mut Vec<ModelReplica>, g: usize, stats: &mut CommStats| {
        sync_round_degraded(
            replicas,
            &cfg,
            None,
            stats,
            &mut scratch,
            &live,
            &mut wire,
            &faults,
            g,
            &cost,
        )
        .unwrap()
    };
    // Warm-up: sizes every scratch, slab and tracker.
    touch(&mut replicas, 0);
    round(&mut replicas, 0, &mut stats);
    touch(&mut replicas, 1);
    let before = stats;
    let (_, peak) = peak_of(|| round(&mut replicas, 1, &mut stats));
    let reduce_bytes = stats.reduce_bytes - before.reduce_bytes;
    eprintln!("round peak {peak} B of heap, {reduce_bytes} B reduced");
    assert!(reduce_bytes > 5_000_000, "the round must move data");
    assert!(
        peak < reduce_bytes / 2,
        "a round held {peak} B at once, half its reduce payloads are {} B",
        reduce_bytes / 2
    );
}
