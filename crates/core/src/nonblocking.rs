//! Safety for non-blocking communication (paper §III-E).
//!
//! MPI leaves it to the programmer not to touch buffers involved in a
//! pending non-blocking operation. KaMPIng's C++ answer is an ownership
//! model built with move semantics; in Rust the same design is *enforced*
//! by the language (the paper itself points to rsmpi/Rust as the only
//! other system with such guarantees):
//!
//! * `isend` **moves** the buffer into the call; the only way to get it
//!   back is [`NonBlockingResult::wait`] (or a successful
//!   [`NonBlockingResult::test`]), which completes the request first.
//!   While the transfer is in flight no alias to the buffer exists.
//! * `irecv` returns a [`NonBlockingResult`] whose data is likewise only
//!   obtainable after completion — `test` returns `None` until then, the
//!   `std::optional`-style interface of the paper.
//!
//! [`RequestPool`] (unbounded) and [`BoundedRequestPool`] (fixed number of
//! slots, §III-E's "more sophisticated variant") complete many requests
//! conveniently.

use kamping_mpi::{RawRequest, Status};

use crate::error::KResult;
use crate::types::{bytes_to_pods, PodType};

enum NbState<T> {
    /// A send whose buffer is held until completion (synchronous mode), or
    /// an eager send that completed immediately (`req.is_complete()`).
    Send { req: RawRequest, buf: Vec<T> },
    /// A receive in flight.
    Recv {
        req: RawRequest,
        expected: Option<usize>,
    },
    /// Completed and extracted.
    Spent,
}

/// A non-blocking operation holding ownership of its data (§III-E).
#[must_use = "dropping a NonBlockingResult abandons the operation's data"]
pub struct NonBlockingResult<T> {
    state: NbState<T>,
}

impl<T: PodType> NonBlockingResult<T> {
    pub(crate) fn send(req: RawRequest, buf: Vec<T>) -> Self {
        Self {
            state: NbState::Send { req, buf },
        }
    }

    pub(crate) fn recv(req: RawRequest, expected: Option<usize>) -> Self {
        Self {
            state: NbState::Recv { req, expected },
        }
    }

    /// Blocks until the operation completes; returns the data — the send
    /// buffer moved back to the caller, or the received elements.
    pub fn wait(self) -> KResult<Vec<T>> {
        Ok(self.wait_with_status()?.0)
    }

    /// Like [`wait`](Self::wait), also returning the delivery status
    /// (meaningful for receives).
    pub fn wait_with_status(mut self) -> KResult<(Vec<T>, Status)> {
        match std::mem::replace(&mut self.state, NbState::Spent) {
            NbState::Send { mut req, buf } => {
                let (_, status) = req.wait()?;
                Ok((buf, status))
            }
            NbState::Recv { mut req, expected } => {
                let (bytes, status) = req.wait()?;
                let data = bytes_to_pods::<T>(&bytes)?;
                check_expected(&data, expected)?;
                Ok((data, status))
            }
            NbState::Spent => Ok((
                Vec::new(),
                Status {
                    source: usize::MAX,
                    tag: 0,
                    bytes: 0,
                },
            )),
        }
    }

    /// Polls for completion: returns `Some(data)` exactly once, when the
    /// operation has completed; `None` while it is still in flight.
    pub fn test(&mut self) -> KResult<Option<Vec<T>>> {
        match std::mem::replace(&mut self.state, NbState::Spent) {
            NbState::Send { mut req, buf } => match req.test()? {
                Some(_) => Ok(Some(buf)),
                None => {
                    self.state = NbState::Send { req, buf };
                    Ok(None)
                }
            },
            NbState::Recv { mut req, expected } => match req.test()? {
                Some((bytes, _status)) => {
                    let data = bytes_to_pods::<T>(&bytes)?;
                    check_expected(&data, expected)?;
                    Ok(Some(data))
                }
                None => {
                    self.state = NbState::Recv { req, expected };
                    Ok(None)
                }
            },
            NbState::Spent => Ok(None),
        }
    }

    /// True once the data has been extracted (by `wait` or a successful
    /// `test`).
    pub fn is_spent(&self) -> bool {
        matches!(self.state, NbState::Spent)
    }
}

pub(crate) fn check_expected<T>(data: &[T], expected: Option<usize>) -> KResult<()> {
    if let Some(n) = expected {
        if data.len() != n {
            return Err(crate::KampingError::InvalidArgument(
                "received element count differs from recv_count",
            ));
        }
    }
    Ok(())
}

/// Unbounded request pool: submit non-blocking results, complete them all
/// at once (§III-E).
#[must_use = "pooled requests must be completed with wait_all()"]
pub struct RequestPool<T> {
    pending: Vec<NonBlockingResult<T>>,
}

impl<T: PodType> Default for RequestPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PodType> RequestPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
        }
    }

    /// Submits a request to the pool.
    pub fn push(&mut self, result: NonBlockingResult<T>) {
        self.pending.push(result);
    }

    /// Number of pooled requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when the pool holds no requests.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Completes every pooled request; returns each one's data in
    /// submission order and empties the pool.
    pub fn wait_all(&mut self) -> KResult<Vec<Vec<T>>> {
        let pending = std::mem::take(&mut self.pending);
        pending.into_iter().map(NonBlockingResult::wait).collect()
    }
}

/// Request pool with a fixed number of slots: submitting to a full pool
/// first completes the oldest request, bounding the number of concurrent
/// non-blocking operations (§III-E's slot-limited variant).
pub struct BoundedRequestPool<T> {
    slots: usize,
    pending: std::collections::VecDeque<NonBlockingResult<T>>,
    harvested: Vec<Vec<T>>,
}

impl<T: PodType> BoundedRequestPool<T> {
    /// Creates a pool with `slots` concurrent-request slots.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "a bounded pool needs at least one slot");
        Self {
            slots,
            pending: std::collections::VecDeque::new(),
            harvested: Vec::new(),
        }
    }

    /// Number of requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Submits a request; if all slots are taken, completes the oldest
    /// in-flight request first (its data is kept for [`finish`](Self::finish)).
    pub fn push(&mut self, result: NonBlockingResult<T>) -> KResult<()> {
        if self.pending.len() == self.slots {
            let oldest = self
                .pending
                .pop_front()
                .expect("pool is full, so non-empty");
            self.harvested.push(oldest.wait()?);
        }
        self.pending.push_back(result);
        Ok(())
    }

    /// Completes all remaining requests and returns every completed
    /// request's data, in completion order.
    pub fn finish(mut self) -> KResult<Vec<Vec<T>>> {
        while let Some(r) = self.pending.pop_front() {
            self.harvested.push(r.wait()?);
        }
        Ok(self.harvested)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{BoundedRequestPool, RequestPool};

    #[test]
    fn isend_moves_buffer_and_wait_returns_it() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                let v = vec![1u64, 2, 3];
                // Fig. 6: v is moved into the call...
                let r1 = comm
                    .isend(send_buf_owned(v), destination(1))
                    .call()
                    .unwrap();
                // ...and moved back after completion.
                let v = r1.wait().unwrap();
                assert_eq!(v, vec![1, 2, 3]);
            } else {
                let (got, _) = comm.recv::<u64>(source(0)).call().unwrap();
                assert_eq!(got, vec![1, 2, 3]);
            }
        });
    }

    #[test]
    fn irecv_test_returns_none_until_complete() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                let mut r = comm.irecv::<u32>(source(1)).call().unwrap();
                assert!(r.test().unwrap().is_none(), "nothing sent yet");
                comm.send(send_buf(&[0u8]), destination(1))
                    .tag(9)
                    .call()
                    .unwrap();
                let data = loop {
                    if let Some(d) = r.test().unwrap() {
                        break d;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(data, vec![77]);
                assert!(r.is_spent());
                assert!(r.test().unwrap().is_none(), "spent results stay spent");
            } else {
                comm.recv::<u8>(source(0)).tag(9).call().unwrap();
                comm.send(send_buf(&[77u32]), destination(0))
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn irecv_with_recv_count_validates() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                let r = comm.irecv::<u8>(source(1)).recv_count(42).call().unwrap();
                let data = r.wait().unwrap();
                assert_eq!(data.len(), 42);

                let r = comm.irecv::<u8>(source(1)).recv_count(5).call().unwrap();
                assert!(r.wait().is_err(), "wrong count must error");
            } else {
                comm.send(send_buf(&[9u8; 42]), destination(0))
                    .call()
                    .unwrap();
                comm.send(send_buf(&[9u8; 6]), destination(0))
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn request_pool_completes_in_order() {
        crate::run(4, |comm| {
            if comm.rank() == 0 {
                let mut pool = RequestPool::new();
                for src in 1..comm.size() {
                    pool.push(comm.irecv::<u64>(source(src)).call().unwrap());
                }
                assert_eq!(pool.len(), 3);
                let data = pool.wait_all().unwrap();
                assert!(pool.is_empty());
                assert_eq!(data, vec![vec![1], vec![2], vec![3]]);
            } else {
                comm.send(send_buf(&[comm.rank() as u64]), destination(0))
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn bounded_pool_limits_in_flight() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                let mut pool = BoundedRequestPool::new(2);
                for i in 0..5u64 {
                    pool.push(
                        comm.isend(send_buf_owned(vec![i]), destination(1))
                            .call()
                            .unwrap(),
                    )
                    .unwrap();
                    assert!(pool.in_flight() <= 2);
                }
                let bufs = pool.finish().unwrap();
                assert_eq!(bufs.len(), 5);
                // Buffers come back in completion order = submission order.
                assert_eq!(bufs[0], vec![0]);
                assert_eq!(bufs[4], vec![4]);
            } else {
                for i in 0..5u64 {
                    let (got, _) = comm.recv::<u64>(source(0)).call().unwrap();
                    assert_eq!(got, vec![i]);
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_pool_rejected() {
        let _ = BoundedRequestPool::<u8>::new(0);
    }
}
