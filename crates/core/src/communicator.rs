//! The [`Communicator`] — entry point of every operation.
//!
//! Wraps a substrate [`RawComm`] and adds the three abstraction levels of
//! the paper's Fig. 1: STL-style convenience methods (defined here), the
//! named-parameter calls (started by the `impl Communicator` blocks of
//! [`crate::collectives`] and [`crate::p2p`], built on [`crate::call`]), and
//! raw access via [`Communicator::raw`].

use kamping_mpi::{RawComm, Universe};

use crate::error::KResult;
use crate::params::send_buf;
use crate::types::PodType;

/// A communication context of one rank (KaMPIng `Communicator`).
pub struct Communicator {
    raw: RawComm,
}

impl Communicator {
    /// Wraps a substrate communicator. This is the interoperability story
    /// of §III-F: existing code holding low-level handles can layer the
    /// ergonomic API on top (and [`Communicator::raw`] goes the other way).
    pub fn new(raw: RawComm) -> Self {
        Self { raw }
    }

    /// This rank's number within the communicator.
    pub fn rank(&self) -> usize {
        self.raw.rank()
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.raw.size()
    }

    /// The underlying low-level communicator (full plain-MPI-style API).
    pub fn raw(&self) -> &RawComm {
        &self.raw
    }

    /// Duplicates the communicator (collective).
    pub fn dup(&self) -> KResult<Communicator> {
        Ok(Communicator::new(self.raw.dup()?))
    }

    /// Splits the communicator by `color`, ordering by `key` (collective).
    pub fn split(&self, color: u64, key: u64) -> KResult<Communicator> {
        Ok(Communicator::new(self.raw.split(color, key)?))
    }

    /// Synchronizes all ranks.
    pub fn barrier(&self) -> KResult<()> {
        Ok(self.raw.barrier()?)
    }

    /// Freezes the profiling counters (see [`kamping_mpi::profile`]).
    pub fn profile(&self) -> kamping_mpi::ProfileSnapshot {
        self.raw.profile()
    }

    /// Exchanges per-rank element counts: returns `counts` with
    /// `counts[r]` = the `local_count` rank `r` passed. This is the extra
    /// communication behind every omitted `recv_counts` parameter
    /// (paper Fig. 2 / §III-A).
    pub(crate) fn exchange_counts(&self, local_count: usize) -> KResult<Vec<usize>> {
        let mine = crate::buffers::encode_counts(&[local_count]);
        let all = self.raw.allgather(&mine)?;
        Ok(crate::buffers::decode_counts(&all))
    }
}

/// Runs `f` on `size` ranks (threads) and returns the per-rank results in
/// rank order — the `mpirun` of the binding layer.
pub fn run<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Communicator) -> R + Sync,
{
    Universe::run(size, |raw| f(Communicator::new(raw)))
}

/// Like [`run`], also returning the final profile snapshot.
pub fn run_profiled<R, F>(size: usize, f: F) -> (Vec<R>, kamping_mpi::ProfileSnapshot)
where
    R: Send,
    F: Fn(Communicator) -> R + Sync,
{
    Universe::run_profiled(size, |raw| f(Communicator::new(raw)))
}

// ---------------------------------------------------------------------------
// Level-1 convenience methods (STL style)
// ---------------------------------------------------------------------------

impl Communicator {
    /// Concatenates everyone's (equal-length) slice on every rank.
    pub fn allgather_vec<T: PodType>(&self, data: &[T]) -> KResult<Vec<T>> {
        Ok(self.allgather(send_buf(data)).call()?.into_recv_buf())
    }

    /// Concatenates everyone's variable-length slice on every rank; counts
    /// and displacements are exchanged and computed internally — the
    /// paper's flagship one-liner (Fig. 1, version (1)).
    pub fn allgatherv_vec<T: PodType>(&self, data: &[T]) -> KResult<Vec<T>> {
        Ok(self.allgatherv(send_buf(data)).call()?.into_recv_buf())
    }

    /// Gathers everyone's variable-length slice on `root_rank`; returns the
    /// concatenation there and an empty vector elsewhere.
    pub fn gatherv_vec<T: PodType>(&self, data: &[T], root_rank: usize) -> KResult<Vec<T>> {
        Ok(self
            .gatherv(send_buf(data))
            .root(root_rank)
            .call()?
            .into_recv_buf())
    }

    /// Broadcasts `value` from `root_rank` to every rank.
    pub fn bcast_single<T: PodType>(&self, value: T, root_rank: usize) -> KResult<T> {
        let out = self
            .bcast(send_recv_buf_single(self.rank() == root_rank, value))
            .root(root_rank)
            .call()?;
        Ok(out.into_recv_buf()[0])
    }

    /// Broadcasts a vector from `root_rank` (non-roots pass anything, e.g.
    /// an empty vector) and returns the broadcast data on every rank.
    pub fn bcast_vec<T: PodType>(&self, data: Vec<T>, root_rank: usize) -> KResult<Vec<T>> {
        use crate::params::send_recv_buf_owned;
        Ok(self
            .bcast(send_recv_buf_owned(data))
            .root(root_rank)
            .call()?
            .into_recv_buf())
    }

    /// Element-wise all-reduction of one value per rank.
    pub fn allreduce_single<T: PodType>(
        &self,
        value: T,
        op: impl Fn(T, T) -> T + Sync,
    ) -> KResult<T> {
        let out = self
            .allreduce(send_buf(std::slice::from_ref(&value)))
            .op(op)
            .call()?;
        Ok(out.into_recv_buf()[0])
    }

    /// Inclusive prefix reduction of one value per rank.
    pub fn scan_single<T: PodType>(&self, value: T, op: impl Fn(T, T) -> T + Sync) -> KResult<T> {
        let out = self
            .scan(send_buf(std::slice::from_ref(&value)))
            .op(op)
            .call()?;
        Ok(out.into_recv_buf()[0])
    }

    /// Exclusive prefix reduction of one value per rank; rank 0 receives
    /// `identity`.
    pub fn exscan_single<T: PodType>(
        &self,
        value: T,
        identity: T,
        op: impl Fn(T, T) -> T + Sync,
    ) -> KResult<T> {
        let out = self
            .exscan(send_buf(std::slice::from_ref(&value)))
            .op(op)
            .call()?;
        let v = out.into_recv_buf();
        Ok(v.first().copied().unwrap_or(identity))
    }

    /// Gathers one value per rank at `root_rank` (rank order); empty
    /// elsewhere.
    pub fn gather_single<T: PodType>(&self, value: T, root_rank: usize) -> KResult<Vec<T>> {
        Ok(self
            .gather(send_buf(std::slice::from_ref(&value)))
            .root(root_rank)
            .call()?
            .into_recv_buf())
    }

    /// Gathers one value per rank on every rank (rank order).
    pub fn allgather_single<T: PodType>(&self, value: T) -> KResult<Vec<T>> {
        self.allgather_vec(std::slice::from_ref(&value))
    }

    /// Personalized exchange of variable-length per-destination blocks:
    /// `data` holds the blocks back-to-back, `send_counts[d]` elements for
    /// destination `d`. Receive counts and all displacements are computed
    /// internally. Returns the received concatenation in source order.
    pub fn alltoallv_vec<T: PodType>(&self, data: &[T], counts: &[usize]) -> KResult<Vec<T>> {
        use crate::params::send_counts;
        Ok(self
            .alltoallv(send_buf(data), send_counts(counts))
            .call()?
            .into_recv_buf())
    }
}

/// Builds the per-rank `send_recv_buf` for single-value broadcast: the root
/// contributes `[value]`, everyone else an empty slot to be filled.
fn send_recv_buf_single<T: PodType>(is_root: bool, value: T) -> crate::params::SendRecvBuf<Vec<T>> {
    if is_root {
        crate::params::send_recv_buf_owned(vec![value])
    } else {
        crate::params::send_recv_buf_owned(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_size_and_raw_access() {
        run(3, |comm| {
            assert_eq!(comm.size(), 3);
            assert!(comm.rank() < 3);
            assert_eq!(comm.raw().size(), 3);
        });
    }

    #[test]
    fn split_and_dup_wrap_substrate() {
        run(4, |comm| {
            let sub = comm.split((comm.rank() % 2) as u64, 0).unwrap();
            assert_eq!(sub.size(), 2);
            let dup = comm.dup().unwrap();
            assert_eq!(dup.size(), 4);
            comm.barrier().unwrap();
        });
    }

    #[test]
    fn single_value_conveniences() {
        run(3, |comm| {
            let g = comm.gather_single(comm.rank() as u32 + 1, 1).unwrap();
            if comm.rank() == 1 {
                assert_eq!(g, vec![1, 2, 3]);
            } else {
                assert!(g.is_empty());
            }
            let a = comm.allgather_single(comm.rank() as u64).unwrap();
            assert_eq!(a, vec![0, 1, 2]);
        });
    }

    #[test]
    fn exchange_counts_matches_ranks() {
        run(4, |comm| {
            let counts = comm.exchange_counts(comm.rank() * 10).unwrap();
            assert_eq!(counts, vec![0, 10, 20, 30]);
        });
    }
}
