//! `with_flattened` over a vector of per-destination buckets sizes its
//! buffer once: flattening k non-empty buckets allocates exactly the data
//! buffer and the counts vector. Growing the first bucket in place would
//! give the same bytes and reallocate on the way, which only this counter
//! sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kamping::prelude::*;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocations and reallocations.
struct Counting;

// SAFETY: defers to the system allocator; the counter is a thread-local
// `Cell` without a destructor, so touching it here cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn flattening_buckets_allocates_data_and_counts_only() {
    let size = 8;
    for k in 1..=size / 2 {
        // 100 words at each of the first k even destinations; the empty
        // buckets in between must cost nothing.
        let buckets: Vec<Vec<u64>> = (0..size)
            .map(|d| {
                if d % 2 == 0 && d / 2 < k {
                    (0..100).map(|i| (d * 1000 + i) as u64).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let nonempty = buckets.iter().filter(|b| !b.is_empty()).count();
        let want: Vec<u64> = buckets.concat();
        let (flat, allocs) = allocations_during(|| with_flattened(buckets, size));
        assert_eq!(flat.data, want);
        assert_eq!(flat.counts.iter().sum::<usize>(), want.len());
        assert_eq!(allocs, 2, "{nonempty} non-empty buckets");
    }
}
