//! A typed `recv` writes into the buffer its caller names (§III-C): with a
//! buffer that is reused, receiving allocates nothing; with none, exactly
//! the vector it returns. In-process, so the cost pinned here is that of
//! the mailbox-hit path every backend shares.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kamping::prelude::*;

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

const ROUNDS: usize = 8;

#[test]
fn reused_receive_buffer_receives_without_allocating() {
    kamping::run(1, |comm| {
        // One word rides inline in the envelope, 512 words in a shared
        // payload: the receive side must not care.
        for words in [1usize, 512] {
            let msg: Vec<u64> = (0..words as u64).collect();
            let send = |n: usize| {
                for _ in 0..n {
                    let to_self = comm.send(send_buf(&msg), destination(0));
                    to_self.tag(1).call().unwrap();
                }
            };
            let from_self = || comm.recv::<u64>(source(0)).tag(1);

            // By value: the returned vector and nothing else.
            send(ROUNDS);
            let by_value = allocations_during(|| {
                for _ in 0..ROUNDS {
                    assert_eq!(from_self().call().unwrap().0, msg);
                }
            });
            assert_eq!(by_value, ROUNDS as u64, "{words} words by value");

            let mut buf: Vec<u64> = Vec::with_capacity(words);
            send(3 * ROUNDS);
            let into_reused = allocations_during(|| {
                for _ in 0..ROUNDS {
                    let call = from_self().recv_buf_resize::<ResizeToFit, _>(&mut buf);
                    call.call().unwrap();
                    assert_eq!(buf, msg);
                    from_self().recv_buf(&mut buf).call().unwrap();
                    let call = from_self().recv_buf_resize::<GrowOnly, _>(&mut buf);
                    call.call().unwrap();
                    assert_eq!(buf, msg);
                }
            });
            assert_eq!(into_reused, 0, "{words} words into a borrowed buffer");

            send(ROUNDS);
            let owned_reuse = allocations_during(|| {
                for _ in 0..ROUNDS {
                    let (back, _) = from_self()
                        .recv_buf_owned(std::mem::take(&mut buf))
                        .call()
                        .unwrap();
                    buf = back;
                    assert_eq!(buf, msg);
                }
            });
            assert_eq!(owned_reuse, 0, "{words} words into a moved-in buffer");
        }
    });
}
