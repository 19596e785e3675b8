//! Typed nonblocking collectives — compute/communication overlap with the
//! ownership guarantees of §III-E.
//!
//! Each `i*` method moves its buffer into the operation and returns a
//! [`CollRequest<T>`]; the data comes back out of
//! [`CollRequest::wait`]/[`CollRequest::test`]/[`CollRequest::wait_timeout`],
//! so no code can touch a buffer while the collective is in flight. The
//! schedules themselves are run by the substrate engine
//! ([`kamping_mpi::icoll`]): peers' message deliveries advance them in the
//! background, so the issuing rank is free to compute between *issue* and
//! *wait* — the overlap the `icoll` benchmark measures.
//!
//! ```
//! use kamping::prelude::*;
//!
//! let sums = kamping::run(4, |comm| {
//!     let me = comm.rank() as u64;
//!     // Issue the reduction, overlap it with local work, then collect.
//!     let pending = comm.iallreduce_vec(vec![me], |a, b| a + b).unwrap();
//!     let local: u64 = (0..100).sum(); // ... useful compute here ...
//!     let sum = pending.wait().unwrap()[0];
//!     (sum, local).0
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use kamping_mpi::{OwnedByteOp, RawCollRequest};

use crate::collectives::reduce::combine_bytes;
use crate::collectives::{excl_prefix_sum, resolve, to_bytes, Exchange};
use crate::communicator::Communicator;
use crate::error::KResult;
use crate::params::Unset;
use crate::types::{bytes_to_pods, pod_as_bytes, PodType};

/// A nonblocking collective in flight, owning its buffers (§III-E).
///
/// Dropping the request abandons the *result* but not the schedule — the
/// substrate completes it in the background so peers are not stranded.
#[must_use = "dropping a CollRequest abandons the collective's result"]
pub struct CollRequest<T> {
    inner: RawCollRequest,
    _elem: PhantomData<T>,
}

impl<T: PodType> CollRequest<T> {
    fn new(inner: RawCollRequest) -> Self {
        Self {
            inner,
            _elem: PhantomData,
        }
    }

    /// Blocks until the collective completes and returns its result
    /// elements (operation-specific; e.g. the reduced vector for
    /// `iallreduce`, empty on non-roots for `ireduce`).
    pub fn wait(mut self) -> KResult<Vec<T>> {
        bytes_to_pods(&self.inner.wait()?)
    }

    /// Like [`CollRequest::wait`] with a bounded time budget: a timeout
    /// surfaces as [`kamping_mpi::MpiError::Timeout`] and leaves the
    /// request retryable, with the reported `waited` accumulating across
    /// attempts.
    pub fn wait_timeout(&mut self, timeout: Duration) -> KResult<Vec<T>> {
        bytes_to_pods(&self.inner.wait_timeout(timeout)?)
    }

    /// Polls for completion without blocking: `Some(result)` exactly once,
    /// when the schedule has completed; `None` while in flight. Doubles as
    /// a progress call for every outstanding collective of this rank.
    pub fn test(&mut self) -> KResult<Option<Vec<T>>> {
        match self.inner.test()? {
            Some(bytes) => Ok(Some(bytes_to_pods(&bytes)?)),
            None => Ok(None),
        }
    }

    /// True once the schedule has settled (without consuming the result).
    pub fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
}

impl<T> std::fmt::Debug for CollRequest<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CollRequest").field(&self.inner).finish()
    }
}

/// Lifts a typed combine into the substrate's owned byte operator. The
/// closure must be `Send + Sync + 'static`: any delivering thread may run
/// it, and the operation may outlive the issuing stack frame.
fn owned_byte_op<T: PodType>(op: impl Fn(T, T) -> T + Send + Sync + 'static) -> OwnedByteOp {
    Arc::new(move |acc: &mut [u8], rhs: &[u8]| combine_bytes(&op, acc, rhs))
}

impl Communicator {
    /// Nonblocking broadcast of a vector from `root_rank`: the root moves
    /// its data in; every rank's `wait` returns the broadcast elements.
    pub fn ibcast_vec<T: PodType>(
        &self,
        data: Vec<T>,
        root_rank: usize,
    ) -> KResult<CollRequest<T>> {
        let bytes = pod_as_bytes(&data).to_vec();
        Ok(CollRequest::new(self.raw().ibcast(bytes, root_rank)?))
    }

    /// Nonblocking elementwise reduction to `root_rank`: `wait` returns the
    /// reduced vector there and an empty vector elsewhere.
    pub fn ireduce_vec<T: PodType>(
        &self,
        data: Vec<T>,
        op: impl Fn(T, T) -> T + Send + Sync + 'static,
        root_rank: usize,
    ) -> KResult<CollRequest<T>> {
        let bytes = pod_as_bytes(&data).to_vec();
        Ok(CollRequest::new(self.raw().ireduce(
            bytes,
            owned_byte_op::<T>(op),
            T::SIZE,
            root_rank,
        )?))
    }

    /// Nonblocking elementwise all-reduction: `wait` returns the reduced
    /// vector on every rank.
    pub fn iallreduce_vec<T: PodType>(
        &self,
        data: Vec<T>,
        op: impl Fn(T, T) -> T + Send + Sync + 'static,
    ) -> KResult<CollRequest<T>> {
        let bytes = pod_as_bytes(&data).to_vec();
        Ok(CollRequest::new(self.raw().iallreduce(
            bytes,
            owned_byte_op::<T>(op),
            T::SIZE,
        )?))
    }

    /// Nonblocking allgather of equal-length vectors: `wait` returns the
    /// rank-ordered concatenation on every rank.
    pub fn iallgather_vec<T: PodType>(&self, data: Vec<T>) -> KResult<CollRequest<T>> {
        let bytes = pod_as_bytes(&data).to_vec();
        Ok(CollRequest::new(self.raw().iallgather(bytes)?))
    }

    /// Nonblocking allgather of variable-length vectors. The per-rank
    /// counts are exchanged with one *blocking* allgather up front (the
    /// same extra round every omitted `recv_counts` parameter costs); only
    /// the data exchange itself is nonblocking.
    pub fn iallgatherv_vec<T: PodType>(&self, data: Vec<T>) -> KResult<CollRequest<T>> {
        let exchange = Exchange::Allgather(data.len());
        let layout = resolve(self, &Unset, &Unset, exchange, None)?;
        let bytes = pod_as_bytes(&data).to_vec();
        let byte_counts = to_bytes(&layout.counts, T::SIZE);
        Ok(CollRequest::new(
            self.raw().iallgatherv(bytes, &byte_counts)?,
        ))
    }

    /// Nonblocking personalized exchange of equal-size blocks: `data` holds
    /// `size()` equal element blocks, block `i` for rank `i`; `wait`
    /// returns the received blocks in rank order.
    pub fn ialltoall_vec<T: PodType>(&self, data: Vec<T>) -> KResult<CollRequest<T>> {
        let bytes = pod_as_bytes(&data).to_vec();
        Ok(CollRequest::new(self.raw().ialltoall(bytes)?))
    }

    /// Nonblocking personalized exchange of variable-length blocks:
    /// `send_counts[d]` elements go to destination `d`. Receive counts are
    /// exchanged with one *blocking* alltoall up front; the data exchange
    /// is nonblocking and `wait` returns the received concatenation in
    /// source order.
    pub fn ialltoallv_vec<T: PodType>(
        &self,
        data: Vec<T>,
        send_counts: &[usize],
    ) -> KResult<CollRequest<T>> {
        let exchange = Exchange::Alltoall(send_counts);
        let recv = resolve(self, &Unset, &Unset, exchange, None)?;
        let bytes = pod_as_bytes(&data).to_vec();
        Ok(CollRequest::new(self.raw().ialltoallv(
            bytes,
            &to_bytes(send_counts, T::SIZE),
            &to_bytes(&excl_prefix_sum(send_counts), T::SIZE),
            &to_bytes(&recv.counts, T::SIZE),
            &to_bytes(&recv.displs(), T::SIZE),
        )?))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn iallreduce_matches_blocking_twin() {
        crate::run(4, |comm| {
            let me = comm.rank() as u64 + 1;
            let blocking = comm.allreduce_single(me, |a, b| a * b).unwrap();
            let req = comm.iallreduce_vec(vec![me], |a, b| a * b).unwrap();
            assert_eq!(req.wait().unwrap(), vec![blocking]);
        });
    }

    #[test]
    fn ibcast_returns_root_data_everywhere() {
        crate::run(3, |comm| {
            let data = if comm.rank() == 1 {
                vec![5u32, 6, 7]
            } else {
                Vec::new()
            };
            let req = comm.ibcast_vec(data, 1).unwrap();
            assert_eq!(req.wait().unwrap(), vec![5, 6, 7]);
        });
    }

    #[test]
    fn ireduce_lands_at_root_only() {
        crate::run(4, |comm| {
            let req = comm
                .ireduce_vec(vec![comm.rank() as u32, 10], |a, b| a + b, 2)
                .unwrap();
            let out = req.wait().unwrap();
            if comm.rank() == 2 {
                assert_eq!(out, vec![1 + 2 + 3, 40]);
            } else {
                assert!(out.is_empty());
            }
        });
    }

    #[test]
    fn iallgatherv_concatenates_in_rank_order() {
        crate::run(4, |comm| {
            let mine = vec![comm.rank() as u16; comm.rank() + 1];
            let expect = comm.allgatherv_vec(&mine).unwrap();
            let req = comm.iallgatherv_vec(mine).unwrap();
            assert_eq!(req.wait().unwrap(), expect);
        });
    }

    #[test]
    fn ialltoallv_matches_blocking_twin() {
        crate::run(4, |comm| {
            let p = comm.size();
            // Rank r sends d+1 copies of (r*10 + d) to destination d.
            let counts: Vec<usize> = (0..p).map(|d| d + 1).collect();
            let data: Vec<u32> = (0..p)
                .flat_map(|d| vec![(comm.rank() * 10 + d) as u32; d + 1])
                .collect();
            let expect = comm.alltoallv_vec(&data, &counts).unwrap();
            let req = comm.ialltoallv_vec(data, &counts).unwrap();
            assert_eq!(req.wait().unwrap(), expect);
        });
    }

    #[test]
    fn test_polls_without_blocking_and_yields_once() {
        crate::run(2, |comm| {
            let mut req = comm
                .iallreduce_vec(vec![comm.rank() as u64], |a, b| a + b)
                .unwrap();
            let out = loop {
                if let Some(out) = req.test().unwrap() {
                    break out;
                }
                std::thread::yield_now();
            };
            assert_eq!(out, vec![1]);
            assert!(req.is_complete());
            assert!(req.test().unwrap().unwrap().is_empty(), "result taken once");
        });
    }

    #[test]
    fn single_rank_schedules_settle_immediately() {
        crate::run(1, |comm| {
            let req = comm.iallreduce_vec(vec![9u64], |a, b| a + b).unwrap();
            assert_eq!(req.wait().unwrap(), vec![9]);
            let req = comm.ialltoallv_vec(vec![1u32, 2], &[2]).unwrap();
            assert_eq!(req.wait().unwrap(), vec![1, 2]);
            let req = comm.ibcast_vec(vec![4u8], 0).unwrap();
            assert_eq!(req.wait().unwrap(), vec![4]);
            let req = comm.iallgatherv_vec(vec![8u16, 9]).unwrap();
            assert_eq!(req.wait().unwrap(), vec![8, 9]);
        });
    }

    #[test]
    fn multiple_outstanding_collectives_complete_in_any_wait_order() {
        crate::run(4, |comm| {
            let me = comm.rank() as u64;
            let r1 = comm.iallreduce_vec(vec![me], |a, b| a + b).unwrap();
            let r2 = comm.iallreduce_vec(vec![me + 1], |a, b| a + b).unwrap();
            let r3 = comm.iallgather_vec(vec![me]).unwrap();
            // Waited in reverse issue order: per-issue tags keep the three
            // schedules' envelopes apart.
            assert_eq!(r3.wait().unwrap(), vec![0, 1, 2, 3]);
            assert_eq!(r2.wait().unwrap(), vec![1 + 2 + 3 + 4]);
            assert_eq!(r1.wait().unwrap(), vec![1 + 2 + 3]);
        });
    }
}
