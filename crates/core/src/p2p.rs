//! Point-to-point operations: `send`, `recv`, `isend`, `issend`, `irecv`.
//!
//! The peer is positional ([`crate::destination`], [`crate::source`]); the
//! named parameters are `.tag(..)` and, on receives, `.recv_count(..)`;
//! send buffers work exactly as in the collectives, and so does the
//! blocking receive's `.recv_buf(..)` family (§III-C): the vector named
//! there — or the one the call allocates — is the very buffer the substrate
//! writes the message into ([`kamping_mpi::RawComm::recv_into`]).
//! Non-blocking variants return the ownership-safe [`NonBlockingResult`] of
//! §III-E.

use std::marker::PhantomData;

use kamping_mpi::{Status, Tag};

use crate::call::{role, Call, Counted, Tagged, Takes};
use crate::communicator::Communicator;
use crate::error::KResult;
use crate::nonblocking::NonBlockingResult;
use crate::params::{
    fill_slot, Destination, RecvBufSlot, SendBuf, SendBufSlot, Source, TagParam, Unset,
};
use crate::types::{pod_as_bytes, PodType};

/// Default tag of point-to-point operations when none is named.
pub const DEFAULT_TAG: Tag = 0;

/// Blocking send.
pub struct Send {
    dest: usize,
    tag: Tag,
}

/// Non-blocking send, standard or synchronous mode.
pub struct Isend {
    dest: usize,
    tag: Tag,
    synchronous: bool,
}

/// Blocking receive of elements of type `T`.
pub struct Recv<T> {
    src: usize,
    tag: Tag,
    expected: Option<usize>,
    _elem: PhantomData<T>,
}

/// Non-blocking receive of elements of type `T`.
pub struct Irecv<T>(Recv<T>);

impl Tagged for Send {
    fn tag_mut(&mut self) -> &mut Tag {
        &mut self.tag
    }
}

impl Tagged for Isend {
    fn tag_mut(&mut self) -> &mut Tag {
        &mut self.tag
    }
}

impl<T> Tagged for Recv<T> {
    fn tag_mut(&mut self) -> &mut Tag {
        &mut self.tag
    }
}

impl<T> Tagged for Irecv<T> {
    fn tag_mut(&mut self) -> &mut Tag {
        &mut self.0.tag
    }
}

impl<T> Takes<role::RecvBuf> for Recv<T> {}

impl<T> Counted for Recv<T> {
    fn expected_mut(&mut self) -> &mut Option<usize> {
        &mut self.expected
    }
}

impl<T> Counted for Irecv<T> {
    fn expected_mut(&mut self) -> &mut Option<usize> {
        &mut self.0.expected
    }
}

impl Communicator {
    /// Starts a blocking send of `send_buf` to `destination`.
    pub fn send<X>(
        &self,
        send_buf: SendBuf<X>,
        destination: Destination,
    ) -> Call<'_, Send, SendBuf<X>> {
        let (dest, tag) = (destination.0, DEFAULT_TAG);
        Call::new(self, Send { dest, tag }, send_buf)
    }

    /// Starts a blocking receive from `source`.
    pub fn recv<T: PodType>(&self, source: Source) -> Call<'_, Recv<T>> {
        let op = Recv {
            src: source.0,
            tag: DEFAULT_TAG,
            expected: None,
            _elem: PhantomData,
        };
        Call::new(self, op, Unset)
    }

    fn isend_mode<X>(
        &self,
        send_buf: SendBuf<X>,
        destination: Destination,
        synchronous: bool,
    ) -> Call<'_, Isend, SendBuf<X>> {
        let op = Isend {
            dest: destination.0,
            tag: DEFAULT_TAG,
            synchronous,
        };
        Call::new(self, op, send_buf)
    }

    /// Starts a non-blocking send; the buffer is moved in and handed back
    /// by `wait()` (§III-E).
    pub fn isend<X>(
        &self,
        send_buf: SendBuf<X>,
        destination: Destination,
    ) -> Call<'_, Isend, SendBuf<X>> {
        self.isend_mode(send_buf, destination, false)
    }

    /// Starts a non-blocking *synchronous-mode* send (completes only once
    /// matched — the NBX building block).
    pub fn issend<X>(
        &self,
        send_buf: SendBuf<X>,
        destination: Destination,
    ) -> Call<'_, Isend, SendBuf<X>> {
        self.isend_mode(send_buf, destination, true)
    }

    /// Starts a non-blocking receive.
    pub fn irecv<T: PodType>(&self, source: Source) -> Call<'_, Irecv<T>> {
        let Call { comm, op, .. } = self.recv(source);
        Call::new(comm, Irecv(op), Unset)
    }

    /// Non-blocking probe: status of a matching pending message, if any.
    pub fn iprobe<T: PodType>(
        &self,
        source: Source,
        tag_param: TagParam,
    ) -> KResult<Option<Status>> {
        Ok(self.raw().iprobe(source.0, tag_param.0)?)
    }
}

impl<S> Call<'_, Send, S> {
    /// Executes the send: the substrate copies the borrowed elements once,
    /// into the envelope itself when they fit inline.
    pub fn call<T>(self) -> KResult<()>
    where
        T: PodType,
        S: SendBufSlot<T>,
    {
        let Send { dest, tag } = self.op;
        Ok(self
            .comm
            .raw()
            .send(dest, tag, pod_as_bytes(self.send.slice()))?)
    }
}

impl<T: PodType, R: RecvBufSlot<T>> Call<'_, Recv<T>, Unset, R> {
    /// Executes the receive; returns the elements — by value, or `()` when
    /// they went to a borrowed `recv_buf` — and the delivery status.
    pub fn call(self) -> KResult<(R::Out, Status)> {
        let (raw, op) = (self.comm.raw(), self.op);
        let mut got = 0;
        let (out, status) = fill_slot(self.recv, |sink| {
            let status = raw.recv_into(op.src, op.tag, sink)?;
            if sink.grew {
                raw.count_payload(status.bytes, 0, 1);
            }
            got = sink.n;
            Ok::<_, kamping_mpi::MpiError>(status)
        })?;
        if op.expected.is_some_and(|n| n != got) {
            return Err(crate::KampingError::InvalidArgument(
                "received element count differs from recv_count",
            ));
        }
        Ok((out, status))
    }
}

impl<S> Call<'_, Isend, S> {
    /// Executes the non-blocking send; the returned result owns the buffer
    /// until completion.
    pub fn call<T>(self) -> KResult<NonBlockingResult<T>>
    where
        T: PodType,
        S: SendBufSlot<T>,
    {
        let Isend {
            dest,
            tag,
            synchronous,
        } = self.op;
        let raw = self.comm.raw();
        let wire = pod_as_bytes(self.send.slice()).to_vec();
        let req = if synchronous {
            raw.issend(dest, tag, wire)?
        } else {
            raw.isend(dest, tag, wire)?
        };
        let buf = self.send.reclaim().unwrap_or_default();
        Ok(NonBlockingResult::send(req, buf))
    }
}

impl<T: PodType> Call<'_, Irecv<T>> {
    /// Executes the non-blocking receive.
    pub fn call(self) -> KResult<NonBlockingResult<T>> {
        let Recv {
            src, tag, expected, ..
        } = self.op.0;
        let req = self.comm.raw().irecv(src, tag)?;
        Ok(NonBlockingResult::recv(req, expected))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn typed_ping_pong_with_tags() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(send_buf(&[1.5f64, 2.5]), destination(1))
                    .tag(4)
                    .call()
                    .unwrap();
                let (got, st) = comm.recv::<i32>(source(1)).tag(5).call().unwrap();
                assert_eq!(got, vec![-1, -2]);
                assert_eq!(st.source, 1);
            } else {
                let (got, _) = comm.recv::<f64>(source(0)).tag(4).call().unwrap();
                assert_eq!(got, vec![1.5, 2.5]);
                comm.send(send_buf(&[-1i32, -2]), destination(0))
                    .tag(5)
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn any_source_receive() {
        crate::run(3, |comm| {
            if comm.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (data, st) = comm.recv::<u8>(any_source()).call().unwrap();
                    seen.push((st.source, data[0]));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(1, 10), (2, 20)]);
            } else {
                comm.send(send_buf(&[comm.rank() as u8 * 10]), destination(0))
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn recv_count_validation_on_blocking_recv() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                assert!(comm.recv::<u8>(source(1)).recv_count(3).call().is_ok());
                assert!(comm.recv::<u8>(source(1)).recv_count(3).call().is_err());
            } else {
                comm.send(send_buf(&[1u8, 2, 3]), destination(0))
                    .call()
                    .unwrap();
                comm.send(send_buf(&[1u8]), destination(0)).call().unwrap();
            }
        });
    }

    #[test]
    fn iprobe_sees_pending_message() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(send_buf(&[1u32]), destination(1))
                    .tag(3)
                    .call()
                    .unwrap();
                comm.barrier().unwrap();
            } else {
                comm.barrier().unwrap();
                let st = comm.iprobe::<u32>(source(0), tag(3)).unwrap().unwrap();
                assert_eq!(st.bytes, 4);
                assert!(comm.iprobe::<u32>(source(0), tag(7)).unwrap().is_none());
                comm.recv::<u32>(source(0)).tag(3).call().unwrap();
            }
        });
    }
}
