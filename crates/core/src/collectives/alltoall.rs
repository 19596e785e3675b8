//! `alltoall` / `alltoallv` (personalized all-to-all exchange).
//!
//! `alltoallv` is the paper's running example of an error-prone MPI call
//! (§III): eight parameters in C, of which kamping requires two
//! (`send_buf`, `send_counts`) and infers the rest — receive counts through
//! one internal `alltoall` of the send counts, displacements by prefix
//! sums. Note that Boost.MPI ships *no* `alltoallv` binding at all (§II).

use crate::call::{role, Call, Takes};
use crate::collectives::{resolve, to_bytes, Exchange};
use crate::communicator::Communicator;
use crate::error::{KResult, KampingError};
use crate::params::{Absent, CountSlot, Counts, RecvBufSlot, SendBuf, SendBufSlot, Unset};
use crate::result::CallResult;
use crate::types::{pod_as_bytes, PodType};

/// Fixed-size `alltoall`: the send buffer is `size` equal blocks, block `i`
/// goes to rank `i`; the result is the received blocks in rank order.
pub struct Alltoall;
impl Takes<role::RecvBuf> for Alltoall {}

/// Variable-size `alltoallv`.
pub struct Alltoallv;
impl Takes<role::RecvBuf> for Alltoallv {}
impl Takes<role::SendDispls> for Alltoallv {}
impl Takes<role::RecvCounts> for Alltoallv {}
impl Takes<role::RecvDispls> for Alltoallv {}

impl Communicator {
    /// Starts a fixed-size `alltoall` of `send_buf`.
    pub fn alltoall<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Alltoall, SendBuf<X>> {
        Call::new(self, Alltoall, send_buf)
    }

    /// Starts a variable-size `alltoallv`: `send_counts[d]` elements of
    /// `send_buf` go to rank `d` (blocks back-to-back unless `send_displs`
    /// is added).
    pub fn alltoallv<X, Y>(
        &self,
        send_buf: SendBuf<X>,
        send_counts: Counts<Y>,
    ) -> Call<'_, Alltoallv, SendBuf<X>, Unset, Counts<Y>> {
        Call::new(self, Alltoallv, send_buf)
            .reslot(|(r, _, sd, rc, rd)| (r, send_counts, sd, rc, rd))
    }
}

impl<S, R> Call<'_, Alltoall, S, R> {
    /// Executes the alltoall.
    pub fn call<T>(self) -> KResult<CallResult<R::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
    {
        let data = self.send.slice();
        if !data.len().is_multiple_of(self.comm.size()) {
            return Err(KampingError::InvalidArgument(
                "alltoall: send buffer length not divisible by comm size",
            ));
        }
        let bytes = self.comm.raw().alltoall(pod_as_bytes(data))?;
        Ok(CallResult::new(self.recv.place(&bytes)?, Absent, Absent))
    }
}

impl<S, R, SC, SD, RC, RD> Call<'_, Alltoallv, S, R, SC, SD, RC, RD> {
    /// Executes the alltoallv. Omitted receive counts cost one internal
    /// `alltoall`; the substrate places every block at its (given or
    /// prefix-sum) displacement directly.
    pub fn call<T>(self) -> KResult<CallResult<R::Out, RC::Out, RD::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
        SC: CountSlot,
        SD: CountSlot,
        RC: CountSlot,
        RD: CountSlot,
    {
        let comm = self.comm;
        let p = comm.size();
        let data = self.send.slice();
        let send = resolve(
            comm,
            &self.send_counts,
            &self.send_displs,
            Exchange::Required("alltoallv: send_counts"),
            Some((p, "alltoallv: send_counts/send_displs length")),
        )?;
        send.check_packed(
            data.len(),
            "alltoallv: send_counts do not sum to send buffer length",
        )?;
        let recv = resolve(
            comm,
            &self.recv_counts,
            &self.recv_displs,
            Exchange::Alltoall(&send.counts),
            Some((p, "alltoallv: recv_counts/recv_displs length")),
        )?;
        let recv_displs = recv.displs();
        let bytes = comm.raw().alltoallv(
            pod_as_bytes(data),
            &to_bytes(&send.counts, T::SIZE),
            &to_bytes(&send.displs(), T::SIZE),
            &to_bytes(&recv.counts, T::SIZE),
            &to_bytes(&recv_displs, T::SIZE),
        )?;
        Ok(CallResult::new(
            self.recv.place(&bytes)?,
            RC::out(|| recv.counts.to_vec()),
            RD::out(|| recv_displs.into_owned()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn alltoall_transposes() {
        crate::run(3, |comm| {
            let me = comm.rank() as u32;
            let send: Vec<u32> = (0..3).map(|d| me * 10 + d).collect();
            let out = comm
                .alltoall(send_buf(&send))
                .call()
                .unwrap()
                .into_recv_buf();
            let want: Vec<u32> = (0..3).map(|s| s * 10 + me).collect();
            assert_eq!(out, want);
        });
    }

    #[test]
    fn alltoallv_two_required_params_only() {
        crate::run(3, |comm| {
            let me = comm.rank();
            // Send (me + d + 1) copies of my rank id to rank d.
            let counts: Vec<usize> = (0..3).map(|d| me + d + 1).collect();
            let data: Vec<u64> = (0..3).flat_map(|d| vec![me as u64; me + d + 1]).collect();
            let out = comm.alltoallv_vec(&data, &counts).unwrap();
            let want: Vec<u64> = (0..3).flat_map(|s| vec![s as u64; s + me + 1]).collect();
            assert_eq!(out, want);
        });
    }

    #[test]
    fn alltoallv_counts_exchange_is_one_alltoall() {
        let (_, profile) = crate::run_profiled(4, |comm| {
            let counts = vec![1usize; 4];
            let data = vec![comm.rank() as u8; 4];
            comm.alltoallv_vec(&data, &counts).unwrap();
        });
        assert_eq!(profile.total_calls(kamping_mpi::Op::Alltoall), 4);
        assert_eq!(profile.total_calls(kamping_mpi::Op::Alltoallv), 4);
    }

    #[test]
    fn alltoallv_with_recv_counts_skips_exchange() {
        let (_, profile) = crate::run_profiled(2, |comm| {
            let counts = [2usize, 2];
            let data = vec![comm.rank() as u16; 4];
            let out = comm
                .alltoallv(send_buf(&data), send_counts(&counts))
                .recv_counts(&counts)
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, vec![0, 0, 1, 1]);
        });
        assert_eq!(profile.total_calls(kamping_mpi::Op::Alltoall), 0);
    }

    #[test]
    fn alltoallv_recv_counts_and_displs_out() {
        crate::run(2, |comm| {
            let me = comm.rank();
            let counts: Vec<usize> = vec![me + 1, me + 1];
            let data = vec![me as u8; 2 * (me + 1)];
            let (buf, rc, rd) = comm
                .alltoallv(send_buf(&data), send_counts(&counts))
                .recv_counts_out()
                .recv_displs_out()
                .call()
                .unwrap()
                .into_parts3();
            assert_eq!(rc, vec![1, 2]);
            assert_eq!(rd, vec![0, 1]);
            assert_eq!(buf, vec![0, 1, 1]);
        });
    }

    #[test]
    fn alltoallv_explicit_displacements() {
        crate::run(2, |comm| {
            // Send buffer has a junk gap; displacements pick the real blocks.
            let me = comm.rank() as u32;
            let data = vec![me, 999, me + 10];
            let counts = [1usize, 1];
            let displs = [0usize, 2];
            let out = comm
                .alltoallv(send_buf(&data), send_counts(&counts))
                .send_displs(&displs)
                .call()
                .unwrap()
                .into_recv_buf();
            // From rank 0: element at displ of my column; from rank 1 same.
            let want: Vec<u32> = (0..2u32).map(|s| s + 10 * me).collect();
            assert_eq!(out, want);
        });
    }

    #[test]
    fn alltoallv_bad_counts_rejected() {
        crate::run(1, |comm| {
            let data = [1u8, 2];
            let counts = [1usize]; // sums to 1, data has 2
            let err = comm
                .alltoallv(send_buf(&data), send_counts(&counts))
                .call()
                .unwrap_err();
            assert!(matches!(err, KampingError::InvalidArgument(_)));
        });
    }
}
