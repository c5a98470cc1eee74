//! What recording, snapshotting and exporting cost in heap allocations —
//! counted, not guessed. Its own test binary, so the counting allocator
//! below is the global allocator of nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ewc_telemetry::export::{chrome, jsonl};
use ewc_telemetry::TelemetrySink;

thread_local! {
    /// Allocations and reallocations made by this thread (tests run on
    /// one thread each, in parallel).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell
// with no destructor and no lazy initialiser, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    let count = ALLOCATIONS.with(Cell::get) - before;
    println!("{count} allocations"); // shown by `-- --nocapture`
    (count, out)
}

/// `n` spans with two attributes each on four tracks.
fn record(sink: &TelemetrySink, n: u64) {
    const LANES: [&str; 4] = ["backend", "ctx1", "ctx2", "ctx3"];
    for i in 0..n {
        let at = i as f64 * 1e-3;
        sink.span("host", LANES[(i % 4) as usize], "request", at, at + 5e-4)
            .attr("seq", i)
            .attr("choice", "consolidate")
            .emit();
    }
}

#[test]
fn a_disabled_sink_never_allocates() {
    let sink = TelemetrySink::disabled();
    let (count, ()) = allocations(|| record(&sink, 10_000));
    assert_eq!(count, 0);
}

#[test]
fn recording_on_seen_tracks_allocates_only_to_grow_the_store() {
    let sink = TelemetrySink::enabled();
    record(&sink, 4); // every track, name and key has been seen
    let (count, ()) = allocations(|| record(&sink, 10_000));
    // Two vectors doubling from a handful of entries to 10k and 20k.
    assert!(count < 64, "{count} allocations for 10k spans");
}

#[test]
fn snapshot_and_exports_allocate_per_column_not_per_span() {
    let sink = TelemetrySink::enabled();
    record(&sink, 100_000);
    let (count, snap) = allocations(|| sink.snapshot().expect("enabled"));
    assert!(count < 16, "{count} allocations for a 100k-span snapshot");
    assert_eq!(snap.spans.len(), 100_000);

    let (count, trace) = allocations(|| chrome::render(&snap));
    assert!(count < 16, "{count} allocations to render the chrome trace");
    assert!(trace.len() > 100_000 * 100);
    let (count, lines) = allocations(|| jsonl::render(&snap));
    assert!(count < 16, "{count} allocations to render the JSON lines");
    assert_eq!(lines.lines().count(), 100_000);
}
