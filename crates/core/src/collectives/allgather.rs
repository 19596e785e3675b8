//! `allgather` / `allgatherv` — the paper's flagship example
//! (Fig. 1, Fig. 2, Fig. 3).

use crate::call::{role, Call, Takes};
use crate::collectives::{place_by_displs, resolve, to_bytes, Exchange};
use crate::communicator::Communicator;
use crate::error::{KResult, KampingError};
use crate::params::{
    Absent, CountSlot, RecvBufSlot, SendBuf, SendBufSlot, SendRecvBuf, SendRecvBufSlot, Unset,
};
use crate::result::CallResult;
use crate::types::{pod_as_bytes, PodType};

/// Fixed-size `allgather`: every rank contributes the same number of
/// elements; the rank-ordered concatenation is received everywhere.
pub struct Allgather;
impl Takes<role::RecvBuf> for Allgather {}

/// Variable-size `allgatherv`; omitted receive counts are exchanged
/// internally, omitted displacements computed by prefix sum.
pub struct Allgatherv;
impl Takes<role::RecvBuf> for Allgatherv {}
impl Takes<role::RecvCounts> for Allgatherv {}
impl Takes<role::RecvDispls> for Allgatherv {}

/// In-place `allgather` (`send_recv_buf`, §III-G): the buffer holds
/// `size * n` elements of which this rank's block is at `rank * n`; after
/// the call it holds everyone's blocks. Takes no optional parameter.
pub struct AllgatherInplace;

impl Communicator {
    /// Starts a fixed-size `allgather` of `send_buf`.
    pub fn allgather<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Allgather, SendBuf<X>> {
        Call::new(self, Allgather, send_buf)
    }

    /// Starts a variable-size `allgatherv` of `send_buf`.
    pub fn allgatherv<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Allgatherv, SendBuf<X>> {
        Call::new(self, Allgatherv, send_buf)
    }

    /// Starts an in-place `allgather` on `send_recv_buf`.
    pub fn allgather_inplace<X>(
        &self,
        send_recv_buf: SendRecvBuf<X>,
    ) -> Call<'_, AllgatherInplace, SendRecvBuf<X>> {
        Call::new(self, AllgatherInplace, send_recv_buf)
    }
}

impl<S, R> Call<'_, Allgather, S, R> {
    /// Executes the allgather.
    pub fn call<T>(self) -> KResult<CallResult<R::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
    {
        let bytes = self.comm.raw().allgather(pod_as_bytes(self.send.slice()))?;
        Ok(CallResult::new(self.recv.place(&bytes)?, Absent, Absent))
    }
}

impl<S, R, RC, RD> Call<'_, Allgatherv, S, R, Unset, Unset, RC, RD> {
    /// Executes the allgatherv. Omitted counts cost one internal
    /// `allgather`; omitted displacements cost a local prefix sum — exactly
    /// the boilerplate of paper Fig. 2, generated only when needed.
    pub fn call<T>(self) -> KResult<CallResult<R::Out, RC::Out, RD::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
        RC: CountSlot,
        RD: CountSlot,
    {
        let comm = self.comm;
        let mine = self.send.slice();
        let layout = resolve(
            comm,
            &self.recv_counts,
            &self.recv_displs,
            Exchange::Allgather(mine.len()),
            Some((comm.size(), "allgatherv: recv_counts/recv_displs length")),
        )?;
        if RC::PROVIDED {
            if layout.counts[comm.rank()] != mine.len() {
                return Err(KampingError::InvalidArgument(
                    "allgatherv: provided recv_counts inconsistent with send_buf",
                ));
            }
            // Communication-level assertion (§III-G): verify the provided
            // counts against what every rank actually sends. Costs one
            // allgather; disabled below AssertionLevel::Communication.
            if crate::assertions::communication_assertions_enabled() {
                let actual = comm.exchange_counts(mine.len())?;
                crate::assertions::check_light(
                    actual == *layout.counts,
                    "allgatherv: recv_counts disagree with peers' send sizes",
                )?;
            }
        }

        let byte_counts = to_bytes(&layout.counts, T::SIZE);
        let concat = comm.raw().allgatherv(pod_as_bytes(mine), &byte_counts)?;
        // The substrate concatenates in rank order; custom displacements
        // are applied to its result.
        let out = if RD::PROVIDED {
            let displs = layout.displs();
            self.recv
                .place(&place_by_displs(&concat, &layout.counts, &displs, T::SIZE)?)?
        } else {
            self.recv.place(&concat)?
        };
        Ok(CallResult::new(
            out,
            RC::out(|| layout.counts.to_vec()),
            RD::out(|| layout.displs().into_owned()),
        ))
    }
}

impl<B> Call<'_, AllgatherInplace, B> {
    /// Executes the in-place allgather: the buffer must hold
    /// `size * block` elements with this rank's block at `rank * block`.
    pub fn call<T>(self) -> KResult<CallResult<B::Out>>
    where
        T: PodType,
        B: SendRecvBufSlot<T>,
    {
        let (p, rank) = (self.comm.size(), self.comm.rank());
        let all = self.send.slice();
        if !all.len().is_multiple_of(p) {
            return Err(KampingError::InvalidArgument(
                "in-place allgather: buffer length not divisible by comm size",
            ));
        }
        let block = all.len() / p;
        let mine = &all[rank * block..(rank + 1) * block];
        let bytes = self.comm.raw().allgather(pod_as_bytes(mine))?;
        Ok(CallResult::new(self.send.replace(&bytes)?, Absent, Absent))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::resize::GrowOnly;

    #[test]
    fn one_liner_matches_manual_reference() {
        crate::run(4, |comm| {
            let mine = vec![comm.rank() as u32; comm.rank() + 1];
            let all = comm.allgatherv_vec(&mine).unwrap();
            let want: Vec<u32> = (0..4)
                .flat_map(|r| vec![r as u32; r as usize + 1])
                .collect();
            assert_eq!(all, want);
        });
    }

    #[test]
    fn counts_and_displs_out() {
        crate::run(3, |comm| {
            let mine = vec![comm.rank() as u64; 2 * comm.rank()];
            let (buf, counts, displs) = comm
                .allgatherv(send_buf(&mine))
                .recv_counts_out()
                .recv_displs_out()
                .call()
                .unwrap()
                .into_parts3();
            assert_eq!(counts, vec![0, 2, 4]);
            assert_eq!(displs, vec![0, 0, 2]);
            assert_eq!(buf.len(), 6);
        });
    }

    #[test]
    fn provided_counts_skip_exchange() {
        let (_, profile) = crate::run_profiled(4, |comm| {
            let mine = vec![comm.rank() as u16; 3];
            let counts = vec![3usize; 4];
            let out = comm
                .allgatherv(send_buf(&mine))
                .recv_counts(&counts)
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out.len(), 12);
        });
        // With counts provided, no internal allgather happens (§III-H).
        assert_eq!(profile.total_calls(kamping_mpi::Op::Allgather), 0);
        assert_eq!(profile.total_calls(kamping_mpi::Op::Allgatherv), 4);
    }

    #[test]
    fn omitted_counts_cost_exactly_one_allgather() {
        let (_, profile) = crate::run_profiled(4, |comm| {
            let mine = vec![1u8; comm.rank()];
            comm.allgatherv(send_buf(&mine))
                .call()
                .unwrap()
                .into_recv_buf();
        });
        assert_eq!(profile.total_calls(kamping_mpi::Op::Allgather), 4);
        assert_eq!(profile.total_calls(kamping_mpi::Op::Allgatherv), 4);
    }

    #[test]
    fn recv_buf_policies() {
        crate::run(2, |comm| {
            let mine = [comm.rank() as u32];

            // NoResize with sufficient space: ok, no allocation.
            let mut exact = vec![0u32; 2];
            comm.allgather(send_buf(&mine))
                .recv_buf(&mut exact)
                .call()
                .unwrap();
            assert_eq!(exact, vec![0, 1]);

            // NoResize too small: error names the policy fix.
            let mut small = vec![0u32; 1];
            let err = comm
                .allgatherv(send_buf(&mine))
                .recv_buf(&mut small)
                .call()
                .unwrap_err();
            assert!(matches!(
                err,
                KampingError::BufferTooSmall {
                    needed: 2,
                    available: 1
                }
            ));

            // GrowOnly grows.
            let mut grow = Vec::new();
            comm.allgatherv(send_buf(&mine))
                .recv_buf_resize::<GrowOnly, u32>(&mut grow)
                .call()
                .unwrap();
            assert_eq!(grow, vec![0, 1]);

            // Owned buffer: allocation reused, data returned by value.
            let spare = Vec::with_capacity(64);
            let out = comm
                .allgatherv(send_buf(&mine))
                .recv_buf_owned(spare)
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, vec![0, 1]);
            assert!(out.capacity() >= 64);
        });
    }

    #[test]
    fn custom_displacements_place_blocks() {
        crate::run(2, |comm| {
            let mine = [comm.rank() as u8 + 1];
            // Reverse placement: rank 0's block at element 1, rank 1's at 0.
            let displs = [1usize, 0];
            let counts = [1usize, 1];
            let out = comm
                .allgatherv(send_buf(&mine))
                .recv_counts(&counts)
                .recv_displs(&displs)
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, vec![2, 1]);
        });
    }

    #[test]
    fn inplace_allgather_fig_3_version_1() {
        crate::run(4, |comm| {
            // The counts-exchange idiom of paper Fig. 3 / §III-G.
            let mut rc = vec![0usize; comm.size()];
            rc[comm.rank()] = comm.rank() + 10;
            comm.allgather_inplace(send_recv_buf(&mut rc))
                .call()
                .unwrap();
            assert_eq!(rc, vec![10, 11, 12, 13]);
        });
    }

    #[test]
    fn inplace_allgather_owned_move_style() {
        crate::run(3, |comm| {
            let mut data = vec![0u64; comm.size()];
            data[comm.rank()] = comm.rank() as u64;
            // `data = comm.allgather(send_recv_buf(std::move(data)))` — §III-G.
            let data = comm
                .allgather_inplace(send_recv_buf_owned(data))
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(data, vec![0, 1, 2]);
        });
    }

    #[test]
    fn send_buf_owned_is_accepted() {
        crate::run(2, |comm| {
            let out = comm
                .allgatherv(crate::params::send_buf_owned(vec![comm.rank() as u32]))
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, vec![0, 1]);
        });
    }

    #[test]
    fn mismatched_provided_counts_rejected() {
        crate::run(2, |comm| {
            let mine = [1u8, 2];
            let wrong = [1usize, 1];
            let err = comm
                .allgatherv(send_buf(&mine))
                .recv_counts(&wrong)
                .call()
                .unwrap_err();
            assert!(matches!(err, KampingError::InvalidArgument(_)));
        });
    }
}
