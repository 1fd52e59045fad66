//! Verifies the disabled recorder's zero-allocation contract with a
//! counting global allocator. This lives in its own integration-test
//! binary (one test, no threads) so no concurrent test can allocate
//! while the counter window is open.

use nws_obs::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recorder_never_allocates() {
    let rec = Recorder::disabled();
    // Warm anything lazy (thread-id caches etc.) outside the window.
    rec.counter_add("warmup", 1);
    drop(rec.span("warmup"));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        rec.counter_add("solver_iterations_total", i);
        rec.counter_add_labeled("daemon_requests_total", "cmd", "ping", i);
        rec.gauge_set("daemon_queue_depth", i as f64);
        rec.observe("daemon_resolve_latency_ms", i as f64);
        rec.observe_labeled("daemon_command_latency_ms", "cmd", "ping", i as f64);
        let _span = rec.span("solve");
        let _inner = rec.span("direction");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled recording must stay allocation-free on the hot path"
    );
}
