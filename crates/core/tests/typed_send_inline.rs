//! A typed `send` of a message that fits the substrate's inline envelope
//! must cost what `RawComm::send` costs: no heap allocation, one `Send`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kamping::prelude::*;
use kamping_mpi::transport::{Payload, INLINE_CAP};
use kamping_mpi::Op;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocations (the rank under test is one thread).
struct Counting;

// SAFETY: defers to the system allocator; the counter is a thread-local
// `Cell` without a destructor, so touching it here cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn eight_byte_typed_send_is_inline_and_allocation_free() {
    let word = [7u64];
    assert!(std::mem::size_of_val(&word) <= INLINE_CAP);
    assert!(Payload::from_slice(&word[0].to_le_bytes()).is_inline());

    kamping::run(1, |comm| {
        let drain = |n: usize| {
            for _ in 0..n {
                let (got, _) = comm.recv::<u64>(source(0)).tag(1).call().unwrap();
                assert_eq!(got, word);
            }
        };
        let typed_send = || {
            let to_self = comm.send(send_buf(&word), destination(0));
            to_self.tag(1).call().unwrap()
        };
        // Let the mailbox reach its steady-state capacity first.
        (0..8).for_each(|_| typed_send());
        drain(8);

        let before = comm.profile();
        assert_eq!(allocations_during(|| (0..8).for_each(|_| typed_send())), 0);
        let sends = comm.profile().since(&before);
        assert_eq!(sends.total_calls(Op::Send), 8);
        assert_eq!(sends.total_messages(), 8);
        assert_eq!(sends.total_bytes(), 8 * 8);
        drain(8);
    });
}
