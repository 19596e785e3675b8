//! `scatter` / `scatterv` (root distributes blocks).

use crate::call::{role, Call, Rooted, Takes};
use crate::collectives::{resolve, Exchange};
use crate::communicator::Communicator;
use crate::error::{KResult, KampingError};
use crate::params::{Absent, CountSlot, RecvBufSlot, SendBuf, SendBufSlot, Unset};
use crate::result::CallResult;
use crate::types::{pod_as_bytes, PodType};

/// Fixed-size `scatter`: the root's buffer is split into `size` equal
/// blocks; rank `i` receives block `i`.
pub struct Scatter {
    root: usize,
}
impl Takes<role::RecvBuf> for Scatter {}
impl Rooted for Scatter {
    fn root_mut(&mut self) -> &mut usize {
        &mut self.root
    }
}

/// Variable-size `scatterv`; the root must supply `send_counts` (one block
/// length per destination).
pub struct Scatterv {
    root: usize,
}
impl Takes<role::RecvBuf> for Scatterv {}
impl Takes<role::SendCounts> for Scatterv {}
impl Rooted for Scatterv {
    fn root_mut(&mut self) -> &mut usize {
        &mut self.root
    }
}

impl Communicator {
    /// Starts a fixed-size `scatter` of the root's `send_buf` (non-roots
    /// pass an empty buffer). Default root 0.
    pub fn scatter<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Scatter, SendBuf<X>> {
        Call::new(self, Scatter { root: 0 }, send_buf)
    }

    /// Starts a variable-size `scatterv` of the root's `send_buf`.
    pub fn scatterv<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Scatterv, SendBuf<X>> {
        Call::new(self, Scatterv { root: 0 }, send_buf)
    }
}

impl<S, R> Call<'_, Scatter, S, R> {
    /// Executes the scatter.
    pub fn call<T>(self) -> KResult<CallResult<R::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
    {
        let (comm, root) = (self.comm, self.op.root);
        let p = comm.size();
        let data = if comm.rank() == root {
            let data = self.send.slice();
            if !data.len().is_multiple_of(p) {
                return Err(KampingError::InvalidArgument(
                    "scatter: send buffer length not divisible by comm size",
                ));
            }
            Some(pod_as_bytes(data))
        } else {
            None
        };
        let bytes = comm.raw().scatter(data, root)?;
        Ok(CallResult::new(self.recv.place(&bytes)?, Absent, Absent))
    }
}

impl<S, R, SC> Call<'_, Scatterv, S, R, SC> {
    /// Executes the scatterv.
    pub fn call<T>(self) -> KResult<CallResult<R::Out>>
    where
        T: PodType,
        S: SendBufSlot<T>,
        R: RecvBufSlot<T>,
        SC: CountSlot,
    {
        let (comm, root) = (self.comm, self.op.root);
        let elem = std::mem::size_of::<T>();
        let layout = if comm.rank() == root {
            let data = self.send.slice();
            let layout = resolve(
                comm,
                &self.send_counts,
                &Unset,
                Exchange::Required("scatterv: root must supply send_counts"),
                Some((comm.size(), "scatterv: send_counts length")),
            )?;
            layout.check_packed(
                data.len(),
                "scatterv: send_counts do not sum to send buffer length",
            )?;
            let counts: Vec<usize> = layout.counts.iter().map(|c| c * elem).collect();
            Some((pod_as_bytes(data), counts))
        } else {
            None
        };
        let send = layout.as_ref().map(|(data, counts)| (*data, &counts[..]));
        let bytes = comm.raw().scatterv(send, root)?;
        Ok(CallResult::new(self.recv.place(&bytes)?, Absent, Absent))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn scatter_equal_blocks() {
        crate::run(3, |comm| {
            let data: Vec<u32> = if comm.rank() == 0 {
                (0..6).collect()
            } else {
                Vec::new()
            };
            let out = comm
                .scatter(send_buf(&data))
                .call()
                .unwrap()
                .into_recv_buf();
            let r = comm.rank() as u32;
            assert_eq!(out, vec![2 * r, 2 * r + 1]);
        });
    }

    #[test]
    fn scatterv_variable_blocks() {
        crate::run(3, |comm| {
            let (data, counts): (Vec<u8>, Vec<usize>) = if comm.rank() == 1 {
                (vec![0, 1, 1, 2, 2, 2], vec![1, 2, 3])
            } else {
                (Vec::new(), Vec::new())
            };
            let out = comm
                .scatterv(send_buf(&data))
                .send_counts(&counts)
                .root(1)
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, vec![comm.rank() as u8; comm.rank() + 1]);
        });
    }

    #[test]
    fn scatterv_without_counts_rejected_at_root() {
        crate::run(1, |comm| {
            let data = [1u8];
            let err = comm.scatterv(send_buf(&data)).call().unwrap_err();
            assert!(matches!(err, KampingError::InvalidArgument(_)));
        });
    }

    #[test]
    fn scatter_into_preallocated_buffer() {
        crate::run(2, |comm| {
            let data: Vec<u16> = if comm.rank() == 0 {
                vec![7, 8]
            } else {
                Vec::new()
            };
            let mut out = vec![0u16; 1];
            comm.scatter(send_buf(&data))
                .recv_buf(&mut out)
                .call()
                .unwrap();
            assert_eq!(out, vec![7 + comm.rank() as u16]);
        });
    }

    #[test]
    fn scatter_indivisible_rejected() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                let data = [1u8, 2, 3];
                let err = comm.scatter(send_buf(&data)).call().unwrap_err();
                assert!(matches!(err, KampingError::InvalidArgument(_)));
            }
        });
    }
}
