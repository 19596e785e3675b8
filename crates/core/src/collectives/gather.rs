//! `gather` / `gatherv` (rooted collectives).
//!
//! The root receives the rank-ordered concatenation; other ranks receive
//! nothing (their result buffer is empty). Receive counts may be supplied
//! at the root, requested as an out-value, or omitted entirely — in the
//! latter cases the root learns them through an internal `gather` of the
//! send counts (§III-A applied to a rooted collective).

use crate::call::{role, Call, Rooted, Takes};
use crate::collectives::{resolve, to_bytes, Exchange};
use crate::communicator::Communicator;
use crate::error::KResult;
use crate::params::{Absent, CountSlot, RecvBufSlot, SendBuf, SendBufSlot, Unset};
use crate::result::CallResult;
use crate::types::{pod_as_bytes, PodType};

/// Fixed-size `gather` (equal contribution per rank).
pub struct Gather {
    root: usize,
}
impl Takes<role::RecvBuf> for Gather {}
impl Rooted for Gather {
    fn root_mut(&mut self) -> &mut usize {
        &mut self.root
    }
}

/// Variable-size `gatherv`.
pub struct Gatherv {
    root: usize,
}
impl Takes<role::RecvBuf> for Gatherv {}
impl Takes<role::RecvCounts> for Gatherv {}
impl Rooted for Gatherv {
    fn root_mut(&mut self) -> &mut usize {
        &mut self.root
    }
}

impl Communicator {
    /// Starts a fixed-size `gather` of `send_buf` (default root 0).
    pub fn gather<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Gather, SendBuf<X>> {
        Call::new(self, Gather { root: 0 }, send_buf)
    }

    /// Starts a variable-size `gatherv` of `send_buf` (default root 0).
    pub fn gatherv<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Gatherv, SendBuf<X>> {
        Call::new(self, Gatherv { root: 0 }, send_buf)
    }
}

impl<S, R> Call<'_, Gather, S, R> {
    /// Executes the gather. Non-root ranks receive an empty buffer.
    pub fn call<T>(self) -> KResult<CallResult<R::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
    {
        let mine = pod_as_bytes(self.send.slice());
        let bytes = self.comm.raw().gather(mine, self.op.root)?;
        let out = self.recv.place(bytes.as_deref().unwrap_or(&[]))?;
        Ok(CallResult::new(out, Absent, Absent))
    }
}

impl<S, R, RC> Call<'_, Gatherv, S, R, Unset, Unset, RC> {
    /// Executes the gatherv. Non-root ranks receive an empty buffer and,
    /// for `recv_counts_out()`, empty counts; counts they provide are
    /// ignored.
    pub fn call<T>(self) -> KResult<CallResult<R::Out, RC::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
        RC: CountSlot,
    {
        let (comm, root) = (self.comm, self.op.root);
        let mine = self.send.slice();
        let layout = resolve(
            comm,
            &self.recv_counts,
            &Unset,
            Exchange::Gather {
                len: mine.len(),
                root,
            },
            (comm.rank() == root).then_some((comm.size(), "gatherv: recv_counts length")),
        )?;
        let byte_counts = to_bytes(&layout.counts, T::SIZE);
        let bytes = comm
            .raw()
            .gatherv(pod_as_bytes(mine), Some(&byte_counts), root)?;
        let out = self.recv.place(bytes.as_deref().unwrap_or(&[]))?;
        Ok(CallResult::new(
            out,
            RC::out(|| layout.counts.into_owned()),
            Absent,
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn gather_concatenates_at_root() {
        crate::run(4, |comm| {
            let mine = [comm.rank() as u32, 100];
            let out = comm
                .gather(send_buf(&mine))
                .root(2)
                .call()
                .unwrap()
                .into_recv_buf();
            if comm.rank() == 2 {
                assert_eq!(out, vec![0, 100, 1, 100, 2, 100, 3, 100]);
            } else {
                assert!(out.is_empty());
            }
        });
    }

    #[test]
    fn gatherv_default_counts_exchanged() {
        let (_, profile) = crate::run_profiled(3, |comm| {
            let mine = vec![comm.rank() as u8; comm.rank()];
            let out = comm.gatherv_vec(&mine, 0).unwrap();
            if comm.rank() == 0 {
                assert_eq!(out, vec![1, 2, 2]);
            }
        });
        // One counts-gather plus the payload gatherv per rank.
        assert_eq!(profile.total_calls(kamping_mpi::Op::Gather), 3);
        assert_eq!(profile.total_calls(kamping_mpi::Op::Gatherv), 3);
    }

    #[test]
    fn gatherv_counts_out_at_root() {
        crate::run(3, |comm| {
            let mine = vec![9u64; comm.rank() + 1];
            let (buf, counts) = comm
                .gatherv(send_buf(&mine))
                .recv_counts_out()
                .call()
                .unwrap()
                .into_parts2();
            if comm.rank() == 0 {
                assert_eq!(counts, vec![1, 2, 3]);
                assert_eq!(buf.len(), 6);
            } else {
                assert!(counts.is_empty());
                assert!(buf.is_empty());
            }
        });
    }

    #[test]
    fn gatherv_provided_counts_skip_exchange() {
        let (_, profile) = crate::run_profiled(2, |comm| {
            let mine = vec![5u16; 2];
            let counts = [2usize, 2];
            let out = comm
                .gatherv(send_buf(&mine))
                .recv_counts(&counts)
                .call()
                .unwrap()
                .into_recv_buf();
            if comm.rank() == 0 {
                assert_eq!(out, vec![5; 4]);
            }
        });
        assert_eq!(profile.total_calls(kamping_mpi::Op::Gather), 0);
    }

    #[test]
    fn gather_into_provided_buffer_at_root() {
        crate::run(2, |comm| {
            let mine = [comm.rank() as u8];
            let mut buf = vec![0u8; if comm.rank() == 0 { 2 } else { 0 }];
            comm.gather(send_buf(&mine))
                .recv_buf(&mut buf)
                .call()
                .unwrap();
            if comm.rank() == 0 {
                assert_eq!(buf, vec![0, 1]);
            }
        });
    }
}
