//! Bytes per subscription: what one parsed tree pattern keeps on the heap,
//! and what a copy of it costs.
//!
//! A counting global allocator records every allocation and free made on
//! the measuring thread. This binary holds this one test, so nothing else
//! allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tree_pattern_similarity::pattern::TreePattern;
use tree_pattern_similarity::workload::{Dtd, XPathGenConfig, XPathGenerator};

/// Subscriptions measured.
const PATTERNS: usize = 1_000;

/// Live allocations one parsed pattern may hold: its shared header, node
/// array, edge array and text buffer.
const MOST_ALLOCATIONS: usize = 4;

/// Mean requested bytes one parsed pattern may hold.
const MOST_MEAN_BYTES: f64 = 320.0;

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    allocations: usize,
    frees: usize,
    allocated: usize,
    freed: usize,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocations: 0, frees: 0, allocated: 0, freed: 0 })
    };
}

fn record(allocated: usize, freed: usize, allocations: usize, frees: usize) {
    // `try_with`: the allocator also serves threads whose locals are gone.
    let _ = COUNTS.try_with(|c| {
        let mut counts = c.get();
        counts.allocations += allocations;
        counts.frees += frees;
        counts.allocated += allocated;
        counts.freed += freed;
        c.set(counts);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments,
// and only adds bookkeeping that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, 1, 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, 1, 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size(), 0, 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size(), 1, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `run` left allocated (allocations and bytes still live) and how
/// many allocations it made at all.
struct Held {
    live: usize,
    bytes: usize,
    made: usize,
}

fn measure<T>(run: impl FnOnce() -> T) -> (T, Held) {
    let before = COUNTS.with(Cell::get);
    let value = run();
    let after = COUNTS.with(Cell::get);
    let live = |c: Counts| (c.allocations - c.frees, c.allocated - c.freed);
    let (live_before, bytes_before) = live(before);
    let (live_after, bytes_after) = live(after);
    let held = Held {
        live: live_after - live_before,
        bytes: bytes_after - bytes_before,
        made: after.allocations - before.allocations,
    };
    (value, held)
}

#[test]
fn a_parsed_subscription_holds_at_most_four_allocations_and_a_clone_none() {
    let dtd = Dtd::nitf_like();
    let texts: Vec<String> = XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(12))
        .generate_many(PATTERNS)
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(texts.len(), PATTERNS);

    // Room for every pattern and its clone, reserved before measuring.
    let mut kept = Vec::with_capacity(2 * texts.len());
    let (mut most, mut allocations, mut bytes, mut nodes, mut clone_allocations) = (0, 0, 0, 0, 0);
    for text in &texts {
        let (pattern, held) =
            measure(|| TreePattern::parse(text).expect("generated patterns parse"));
        most = most.max(held.live);
        allocations += held.live;
        bytes += held.bytes;
        nodes += pattern.node_count();
        let (copy, cloned) = measure(|| pattern.clone());
        clone_allocations += cloned.made;
        kept.push(pattern);
        kept.push(copy);
    }
    let n = texts.len() as f64;
    let mean_bytes = bytes as f64 / n;
    println!(
        "{PATTERNS} nitf patterns: {:.2} nodes, {:.2} allocations ({most} most) and {mean_bytes:.1} B \
         requested per pattern; {clone_allocations} allocations in {PATTERNS} clones",
        nodes as f64 / n,
        allocations as f64 / n,
    );
    assert!(
        most <= MOST_ALLOCATIONS,
        "a pattern holds {most} allocations"
    );
    assert!(
        mean_bytes <= MOST_MEAN_BYTES,
        "a pattern holds {mean_bytes:.1} B on the mean"
    );
    assert_eq!(clone_allocations, 0, "a clone copies nothing");
}
