//! `bcast` (broadcast from a root).
//!
//! Broadcast is inherently in-place: the same buffer is the source at the
//! root and the destination everywhere else, so the call takes a
//! [`crate::params::send_recv_buf`] and does not accept a `recv_buf` —
//! there is no separate receive buffer to misuse (§III-G's compile-time
//! in-place story).

use crate::call::{Call, Rooted};
use crate::communicator::Communicator;
use crate::error::KResult;
use crate::params::{Absent, SendRecvBuf, SendRecvBufSlot};
use crate::result::CallResult;
use crate::types::{pod_as_bytes, PodType};

/// Broadcast: the root's contents replace everyone's.
pub struct Bcast {
    root: usize,
}
impl Rooted for Bcast {
    fn root_mut(&mut self) -> &mut usize {
        &mut self.root
    }
}

impl Communicator {
    /// Starts a broadcast of `send_recv_buf` (default root 0).
    pub fn bcast<X>(&self, send_recv_buf: SendRecvBuf<X>) -> Call<'_, Bcast, SendRecvBuf<X>> {
        Call::new(self, Bcast { root: 0 }, send_recv_buf)
    }
}

impl<B> Call<'_, Bcast, B> {
    /// Executes the broadcast.
    pub fn call<T>(self) -> KResult<CallResult<B::Out>>
    where
        T: PodType,
        B: SendRecvBufSlot<T>,
    {
        // Zero-overhead path: the root sends from its borrowed buffer (no
        // encode copy) and keeps it (no decode copy); non-roots decode the
        // received bytes straight into their buffer.
        let at_root = pod_as_bytes(self.send.slice());
        let out = match self.comm.raw().bcast_from(at_root, self.op.root)? {
            None => self.send.keep(),
            Some(bytes) => self.send.replace(&bytes)?,
        };
        Ok(CallResult::new(out, Absent, Absent))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn bcast_replaces_everyones_buffer() {
        crate::run(4, |comm| {
            let mut v: Vec<u32> = if comm.rank() == 1 {
                vec![7, 8, 9]
            } else {
                Vec::new()
            };
            comm.bcast(send_recv_buf(&mut v)).root(1).call().unwrap();
            assert_eq!(v, vec![7, 8, 9]);
        });
    }

    #[test]
    fn bcast_owned_move_style() {
        crate::run(3, |comm| {
            let data: Vec<u64> = if comm.rank() == 0 {
                vec![42; 5]
            } else {
                Vec::new()
            };
            let data = comm
                .bcast(send_recv_buf_owned(data))
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(data, vec![42; 5]);
        });
    }

    #[test]
    fn bcast_single_convenience() {
        crate::run(4, |comm| {
            let v = comm.bcast_single(comm.rank() as u64 * 100, 3).unwrap();
            assert_eq!(v, 300);
        });
    }

    #[test]
    fn bcast_vec_convenience() {
        crate::run(2, |comm| {
            let data = if comm.rank() == 0 {
                vec![1.5f64, 2.5]
            } else {
                Vec::new()
            };
            let data = comm.bcast_vec(data, 0).unwrap();
            assert_eq!(data, vec![1.5, 2.5]);
        });
    }

    #[test]
    fn bcast_uses_binomial_tree_messages() {
        let (_, profile) = crate::run_profiled(8, |comm| {
            let mut v = vec![comm.rank() as u8];
            comm.bcast(send_recv_buf(&mut v)).call().unwrap();
            assert_eq!(v, vec![0]);
        });
        // A binomial broadcast posts exactly p - 1 envelopes in total.
        assert_eq!(profile.total_messages(), 7);
    }
}
