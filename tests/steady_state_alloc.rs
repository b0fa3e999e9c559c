//! DESIGN.md §7: the per-event path allocates nothing in the steady
//! state. This binary counts every allocation the process makes, so it
//! holds a single test: the counter is process-wide, and a second test
//! running beside it would count into it.
//!
//! A 16-switch fabric runs uniform traffic below saturation. `advance`
//! carries it past the warm-up uncounted; then two counted stretches
//! follow, one of no events and one of many. What a stepping call costs
//! whatever its length (the window context `advance` builds) shows in
//! both, so the difference is what the stretch itself allocated.
//!
//! That difference is not zero: the window loop allocates per window
//! (`WindowCtx::run_worker`), two for the one window a lone shard runs
//! and thousands over the windows of two shards. The counts are pinned
//! exactly, so the per-hop path cannot start allocating unseen and the
//! window loop cannot allocate more.

use iba_far::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let r = f();
    ON.store(false, Ordering::Relaxed);
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Allocations of a steady-state stretch beyond those of an empty
/// stepping call, and the events the stretch ran.
fn steady_allocs(
    topo: &Topology,
    routing: &FaRouting,
    shards: usize,
    frac: f64,
    armed: bool,
) -> (u64, u64) {
    let spec = WorkloadSpec::uniform32(0.01).with_adaptive_fraction(frac);
    let mut builder = Network::builder(topo, routing)
        .workload(spec)
        .config(SimConfig::paper(7))
        .shards(shards)
        .threads(1);
    if armed {
        builder = builder.recorder(RecorderOpts {
            capacity_per_switch: 256,
            trigger_on_drop: false,
            latency_threshold_ns: None,
            watchdog: None,
        });
    }
    let mut net = builder.build().unwrap();
    assert!(net.advance(30_000) >= 30_000, "the warm-up ran short");
    let (_, fixed) = counted(|| net.advance(0));
    let (ran, total) = counted(|| net.advance(60_000));
    assert!(
        ran >= 60_000,
        "the horizon came before the counted stretch ended"
    );
    (total - fixed, ran)
}

#[test]
fn the_steady_state_allocates_nothing_per_event() {
    let topo = IrregularConfig::paper(16, 3).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut seen = Vec::new();
    for shards in [1, 2] {
        for frac in [0.0, 1.0] {
            for armed in [false, true] {
                let (allocs, ran) = steady_allocs(&topo, &routing, shards, frac, armed);
                seen.push((shards, frac, armed, allocs, ran));
            }
        }
    }
    // (shards, adaptive fraction, recorder armed) → allocations.
    let pinned = [2, 2, 2, 2, 4532, 4532, 4366, 4366];
    for (&(shards, frac, armed, allocs, ran), want) in seen.iter().zip(pinned) {
        assert_eq!(
            allocs, want,
            "shards {shards}, adaptive {frac}, recorder armed {armed}, {ran} events"
        );
    }
}
