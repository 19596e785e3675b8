//! Point-to-point communication.
//!
//! All ranks are addressed with *communicator-local* ranks; payloads are
//! packed byte buffers (the typed layer above packs and unpacks). Sends are
//! eager and complete locally; synchronous-mode sends complete when matched.
//!
//! Buffers travel as [`Payload`]s: messages of at most
//! [`crate::transport::INLINE_CAP`] bytes are carried inline in the envelope
//! (no allocation), larger ones as a refcounted heap buffer that fan-out
//! senders (broadcast) share across all receivers. A borrowed
//! [`RawComm::send`] to another process skips the payload where it can
//! (the caller's slice goes onto a shared-memory ring as it is), and
//! [`RawComm::recv_into`] lets the receiver name the buffer the wire fills.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::comm::NOT_MEMBER;
use crate::error::{MpiError, MpiResult};
use crate::profile::Op;
use crate::request::{RawRequest, RequestKind};
use crate::tag::{Tag, ANY_SOURCE};
use crate::transport::{AckCell, Envelope, Mailbox, MatchKey, Payload, Sink};
use crate::universe::wait_interrupt;
use crate::RawComm;

/// Delivery metadata of a completed receive or probe (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Communicator-local source rank.
    pub source: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload length in bytes.
    pub bytes: usize,
}

impl Status {
    /// The status of a message from `src_global`, its source translated by
    /// a communicator's global → local table ([`crate::comm::rank_index`]).
    pub(crate) fn of(inverse: &[usize], src_global: usize, tag: Tag, bytes: usize) -> Self {
        let source = inverse.get(src_global).copied().unwrap_or(NOT_MEMBER);
        Self { source, tag, bytes }
    }
}

impl RawComm {
    /// Checks this communicator is usable and that the backend can carry
    /// `len` payload bytes in one message, and translates `dest`.
    fn check_send(&self, dest: usize, len: usize) -> MpiResult<usize> {
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        if len > self.state.transport.max_payload() {
            return Err(MpiError::InvalidCounts {
                what: "payload exceeds the largest message the transport can frame",
            });
        }
        self.global_rank(dest)
    }

    /// Deposits `payload` in `dest_global`'s mailbox
    /// ([`crate::universe::UniverseState::post`]).
    pub(crate) fn post_to(
        &self,
        dest_global: usize,
        tag: Tag,
        payload: Payload,
        ack: Option<Arc<AckCell>>,
    ) {
        let envelope = Envelope {
            src: self.my_global_rank(),
            tag,
            ctx: self.ctx,
            payload,
            ack,
        };
        self.state.post(dest_global, envelope);
    }

    #[inline]
    fn match_key(&self, source: usize, tag: Tag) -> MpiResult<MatchKey> {
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        let src_global = if source == ANY_SOURCE {
            ANY_SOURCE
        } else {
            self.global_rank(source)?
        };
        Ok(MatchKey {
            src: src_global,
            tag,
            ctx: self.ctx,
        })
    }

    #[inline]
    fn status_of(&self, src_global: usize, tag: Tag, bytes: usize) -> Status {
        Status::of(&self.inverse, src_global, tag, bytes)
    }

    /// Blocking standard-mode send of `payload` to local rank `dest`.
    ///
    /// Payloads up to [`crate::transport::INLINE_CAP`] bytes travel inline
    /// in the envelope and never touch the heap; a larger one is copied
    /// once — into a shared payload, or straight onto the wire where the
    /// backend has one to lend ([`crate::transport::Transport::send_borrowed`]).
    pub fn send(&self, dest: usize, tag: Tag, payload: &[u8]) -> MpiResult<()> {
        let _op = self.record(Op::Send);
        let dest_global = self.check_send(dest, payload.len())?;
        let src = self.my_global_rank();
        let msg = MatchKey {
            src,
            tag,
            ctx: self.ctx,
        };
        self.state.send(dest_global, msg, payload);
        Ok(())
    }

    /// Blocking send that *moves* the buffer (no copy) — the substrate
    /// counterpart of KaMPIng's ownership-transferring `send_buf(move)`.
    pub fn send_owned(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> MpiResult<()> {
        let _op = self.record(Op::Send);
        let dest_global = self.check_send(dest, payload.len())?;
        self.post_to(dest_global, tag, Payload::from_vec(payload), None);
        Ok(())
    }

    /// Blocking receive returning the transport payload (zero-copy when the
    /// payload is uniquely held).
    pub(crate) fn recv_payload(&self, source: usize, tag: Tag) -> MpiResult<(Payload, Status)> {
        let _op = self.record(Op::Recv);
        let key = self.match_key(source, tag)?;
        let me = self.my_global_rank();
        let interrupt = wait_interrupt(&self.state, key.src, self.ctx);
        let d = self.state.mailbox(me).take_blocking(key, &interrupt)?;
        let status = self.status_of(d.src, d.tag, d.payload.len());
        Ok((d.payload, status))
    }

    /// Blocking receive from local rank `source` (or [`ANY_SOURCE`]).
    pub fn recv(&self, source: usize, tag: Tag) -> MpiResult<(Vec<u8>, Status)> {
        let (payload, status) = self.recv_payload(source, tag)?;
        Ok((payload.into_vec(), status))
    }

    /// Blocking receive into a destination of the caller's choosing — the
    /// typed layer's `Vec<T>`, a buffer it reuses, a plain `Vec<u8>`.
    ///
    /// A message that has already arrived is copied into `sink`. Otherwise
    /// a cross-process backend is handed `sink` itself, and whichever of its
    /// threads reads the message writes the payload there directly: the
    /// bytes are copied once on their way in and `sink` is the only buffer
    /// allocated for them (wildcard receives and inline-sized messages take
    /// the mailbox, as ever). A payload the sink refuses
    /// ([`Sink::reserve`]) is consumed and dropped; the status still
    /// describes it. `sink` comes back filled or untouched, with one
    /// exception: when the receive fails (dead peer, deadline) while its
    /// payload is half written, the buffer stays with the transport and
    /// `sink` is left `S::default()`.
    pub fn recv_into<S: Sink + Default>(
        &self,
        source: usize,
        tag: Tag,
        sink: &mut S,
    ) -> MpiResult<Status> {
        self.recv_into_until(source, tag, sink, None)
    }

    /// Like [`RawComm::recv_into`], but gives up after `timeout` with
    /// [`MpiError::Timeout`]; the message, whenever it is whole, stays
    /// receivable.
    pub fn recv_into_timeout<S: Sink + Default>(
        &self,
        source: usize,
        tag: Tag,
        sink: &mut S,
        timeout: Duration,
    ) -> MpiResult<Status> {
        self.recv_into_until(source, tag, sink, Some(Instant::now() + timeout))
    }

    #[inline]
    fn recv_into_until<S: Sink + Default>(
        &self,
        source: usize,
        tag: Tag,
        sink: &mut S,
        deadline: Option<Instant>,
    ) -> MpiResult<Status> {
        let _op = self.record(Op::Recv);
        let key = self.match_key(source, tag)?;
        let interrupt = wait_interrupt(&self.state, key.src, self.ctx);
        let (src, tag, bytes) = self.mailbox().take_into(key, sink, &interrupt, deadline)?;
        Ok(self.status_of(src, tag, bytes))
    }

    /// This rank's mailbox (diagnostics: `Mailbox::len`,
    /// [`Mailbox::posted_from`]).
    #[inline]
    pub fn mailbox(&self) -> &Mailbox {
        self.state.mailbox(self.my_global_rank())
    }

    /// Like [`RawComm::recv`], but gives up after `timeout` with
    /// [`MpiError::Timeout`] — the bounded receive for failure paths where
    /// the sender may be hung rather than provably dead (severed link,
    /// undetected crash). No message is consumed on timeout.
    pub fn recv_timeout(
        &self,
        source: usize,
        tag: Tag,
        timeout: Duration,
    ) -> MpiResult<(Vec<u8>, Status)> {
        let _op = self.record(Op::Recv);
        let key = self.match_key(source, tag)?;
        let me = self.my_global_rank();
        let interrupt = wait_interrupt(&self.state, key.src, self.ctx);
        let deadline = Some(Instant::now() + timeout);
        let d = self
            .state
            .mailbox(me)
            .take_blocking_deadline(key, &interrupt, deadline)?;
        let status = self.status_of(d.src, d.tag, d.payload.len());
        Ok((d.payload.into_vec(), status))
    }

    /// Non-blocking standard-mode send. Completes immediately (eager
    /// transport) but still returns a request for uniform completion code.
    pub fn isend(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> MpiResult<RawRequest> {
        let _op = self.record(Op::Isend);
        let dest_global = self.check_send(dest, payload.len())?;
        self.post_to(dest_global, tag, Payload::from_vec(payload), None);
        Ok(RawRequest::new(self.state.clone(), RequestKind::SendDone))
    }

    /// Non-blocking synchronous-mode send: the request completes only once a
    /// matching receive has consumed the message (needed by NBX).
    ///
    /// Whichever thread sets the ack — the receiver, a post to a dead rank,
    /// a transport thread reading the `Ack` frame — bumps this rank's gate
    /// and nobody else's. The hook holds the universe weakly: an unmatched
    /// envelope holding it strongly would keep its own mailbox alive.
    pub fn issend(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> MpiResult<RawRequest> {
        let _op = self.record(Op::Issend);
        let dest_global = self.check_send(dest, payload.len())?;
        let (state, me) = (Arc::downgrade(&self.state), self.my_global_rank());
        let ack = Arc::new(AckCell::with_hook(move || {
            if let Some(state) = state.upgrade() {
                state.mailbox(me).bump();
            }
        }));
        self.post_to(
            dest_global,
            tag,
            Payload::from_vec(payload),
            Some(ack.clone()),
        );
        Ok(RawRequest::new(
            self.state.clone(),
            RequestKind::Ssend {
                ack,
                dest_global,
                me,
            },
        ))
    }

    /// Non-blocking receive.
    pub fn irecv(&self, source: usize, tag: Tag) -> MpiResult<RawRequest> {
        let _op = self.record(Op::Irecv);
        let key = self.match_key(source, tag)?;
        Ok(RawRequest::new(
            self.state.clone(),
            RequestKind::Recv {
                key,
                me: self.my_global_rank(),
                inverse: Arc::clone(&self.inverse),
            },
        ))
    }

    /// Blocking probe: waits on the mailbox's gate (re-attempting for one
    /// patience, then asleep until a deposit — no polling interval) until a
    /// matching message is available and returns its status without
    /// consuming it.
    pub fn probe(&self, source: usize, tag: Tag) -> MpiResult<Status> {
        self.probe_until(source, tag, None)
    }

    /// Like [`RawComm::probe`], but gives up after `timeout` with
    /// [`MpiError::Timeout`] — the bounded twin, as
    /// [`RawComm::recv_timeout`] is `recv`'s. Consumes nothing either way.
    pub fn probe_timeout(&self, source: usize, tag: Tag, timeout: Duration) -> MpiResult<Status> {
        self.probe_until(source, tag, Some(Instant::now() + timeout))
    }

    fn probe_until(&self, source: usize, tag: Tag, deadline: Option<Instant>) -> MpiResult<Status> {
        let _op = self.record(Op::Probe);
        let key = self.match_key(source, tag)?;
        let interrupt = wait_interrupt(&self.state, key.src, self.ctx);
        let (src, t, n) = self.mailbox().peek_blocking(key, &interrupt, deadline)?;
        Ok(self.status_of(src, t, n))
    }

    /// Non-blocking probe (`MPI_Iprobe`).
    pub fn iprobe(&self, source: usize, tag: Tag) -> MpiResult<Option<Status>> {
        let _op = self.record(Op::Iprobe);
        let key = self.match_key(source, tag)?;
        let me = self.my_global_rank();
        Ok(self
            .state
            .mailbox(me)
            .try_peek(key)
            .map(|(s, t, n)| self.status_of(s, t, n)))
    }

    /// Combined send + receive (`MPI_Sendrecv`), deadlock-free.
    pub fn sendrecv(
        &self,
        dest: usize,
        send_tag: Tag,
        payload: &[u8],
        source: usize,
        recv_tag: Tag,
    ) -> MpiResult<(Vec<u8>, Status)> {
        // The eager transport makes the send non-blocking, so the naive
        // order is already deadlock-free.
        self.send(dest, send_tag, payload)?;
        self.recv(source, recv_tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ANY_TAG;
    use crate::Universe;

    #[test]
    fn ping_pong() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"ping").unwrap();
                let (msg, st) = comm.recv(1, 8).unwrap();
                assert_eq!(msg, b"pong");
                assert_eq!(
                    st,
                    Status {
                        source: 1,
                        tag: 8,
                        bytes: 4
                    }
                );
            } else {
                let (msg, _) = comm.recv(0, 7).unwrap();
                assert_eq!(msg, b"ping");
                comm.send(0, 8, b"pong").unwrap();
            }
        });
    }

    #[test]
    fn any_source_any_tag() {
        Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (msg, st) = comm.recv(ANY_SOURCE, ANY_TAG).unwrap();
                    assert_eq!(msg.len(), 1);
                    seen.push((st.source, st.tag, msg[0]));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(1, 10, 1), (2, 20, 2)]);
            } else {
                let me = comm.rank() as u8;
                comm.send(0, comm.rank() as Tag * 10, &[me]).unwrap();
            }
        });
    }

    #[test]
    fn non_overtaking_same_channel() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..50u8 {
                    comm.send(1, 3, &[i]).unwrap();
                }
            } else {
                for i in 0..50u8 {
                    let (msg, _) = comm.recv(0, 3).unwrap();
                    assert_eq!(msg, vec![i]);
                }
            }
        });
    }

    #[test]
    fn tags_demultiplex() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"one").unwrap();
                comm.send(1, 2, b"two").unwrap();
            } else {
                // Receive out of send order via tags.
                let (two, _) = comm.recv(0, 2).unwrap();
                let (one, _) = comm.recv(0, 1).unwrap();
                assert_eq!((one.as_slice(), two.as_slice()), (&b"one"[..], &b"two"[..]));
            }
        });
    }

    #[test]
    fn irecv_test_then_complete() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.irecv(1, 0).unwrap();
                // Tell rank 1 we're ready, then spin on test().
                comm.send(1, 1, b"go").unwrap();
                loop {
                    if let Some((payload, st)) = req.test().unwrap() {
                        assert_eq!(payload, b"data");
                        assert_eq!(st.tag, 0);
                        break;
                    }
                    std::thread::yield_now();
                }
            } else {
                comm.recv(0, 1).unwrap();
                comm.send(0, 0, b"data").unwrap();
            }
        });
    }

    #[test]
    fn issend_completes_only_on_match() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.issend(1, 0, b"sync".to_vec()).unwrap();
                assert!(
                    req.test().unwrap().is_none(),
                    "unmatched ssend must be incomplete"
                );
                comm.send(1, 1, b"now-recv").unwrap();
                req.wait().unwrap();
            } else {
                comm.recv(0, 1).unwrap();
                let (msg, _) = comm.recv(0, 0).unwrap();
                assert_eq!(msg, b"sync");
            }
        });
    }

    #[test]
    fn probe_then_recv() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, &[9; 17]).unwrap();
            } else {
                let st = comm.probe(0, 4).unwrap();
                assert_eq!(st.bytes, 17);
                let (msg, _) = comm.recv(st.source, st.tag).unwrap();
                assert_eq!(msg.len(), 17);
            }
        });
    }

    #[test]
    fn iprobe_none_when_empty() {
        Universe::run(1, |comm| {
            assert!(comm.iprobe(0, 0).unwrap().is_none());
        });
    }

    #[test]
    fn sendrecv_ring_rotation() {
        Universe::run(4, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let (got, _) = comm
                .sendrecv(right, 0, &[comm.rank() as u8], left, 0)
                .unwrap();
            assert_eq!(got, vec![left as u8]);
        });
    }

    /// A status names its source by the index table: a member's local
    /// rank, and `usize::MAX` for a global rank outside the group (beyond
    /// the table's end too).
    #[test]
    fn status_source_of_a_non_member_is_usize_max() {
        Universe::run(4, |comm| {
            let half = comm
                .split(comm.rank() as u64 % 2, 9 - comm.rank() as u64)
                .unwrap();
            let (mate, stranger) = ((comm.rank() + 2) % 4, (comm.rank() + 1) % 4);
            let source = |g: usize| half.status_of(g, 0, 0).source;
            assert_eq!(source(mate), usize::from(mate < comm.rank()));
            assert_eq!(source(comm.rank()), usize::from(mate > comm.rank()));
            assert_eq!(
                (source(stranger), source(7), source(ANY_SOURCE)),
                (usize::MAX, usize::MAX, usize::MAX)
            );
        });
    }

    #[test]
    fn invalid_rank_rejected() {
        Universe::run(2, |comm| {
            assert!(matches!(
                comm.send(5, 0, b"x"),
                Err(MpiError::InvalidRank { rank: 5, size: 2 })
            ));
        });
    }

    /// The shared-memory backend behind a 64-byte message cap — the socket
    /// backend's frame limit in miniature.
    struct Capped(crate::transport::ShmTransport);

    impl crate::transport::Transport for Capped {
        fn name(&self) -> &'static str {
            "capped"
        }
        fn post(&self, dest: usize, envelope: Envelope) {
            self.0.post(dest, envelope);
        }
        fn mailbox(&self, rank: usize) -> &Mailbox {
            self.0.mailbox(rank)
        }
        fn is_local(&self, rank: usize) -> bool {
            self.0.is_local(rank)
        }
        fn control(&self, _msg: crate::transport::ControlMsg) {}
        fn kick_local(&self) {
            self.0.kick_local();
        }
        fn max_payload(&self) -> usize {
            64
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn payload_above_the_transport_cap_is_rejected_at_the_send() {
        use crate::trace::TraceCtx;
        use crate::transport::ShmTransport;
        use crate::universe::UniverseState;
        let trace = TraceCtx::disabled(1);
        let capped = Arc::new(Capped(ShmTransport::new(1, &trace)));
        let config = crate::config::Config::default();
        let state = UniverseState::with_transport(1, vec![0], capped, trace, config);
        let comm = RawComm::world(Arc::new(state), 0);
        let too_long = MpiError::InvalidCounts {
            what: "payload exceeds the largest message the transport can frame",
        };
        let big = vec![0u8; 65];
        assert_eq!(comm.send(0, 1, &big).unwrap_err(), too_long);
        assert_eq!(comm.send_owned(0, 1, big.clone()).unwrap_err(), too_long);
        assert_eq!(comm.isend(0, 1, big.clone()).err(), Some(too_long.clone()));
        assert_eq!(comm.issend(0, 1, big).err(), Some(too_long));
        // Nothing was posted; a message at the cap goes through.
        assert!(comm.iprobe(0, 1).unwrap().is_none());
        comm.send(0, 1, &[7; 64]).unwrap();
        assert_eq!(comm.recv(0, 1).unwrap().0, [7; 64]);
    }

    #[test]
    fn send_owned_moves_buffer() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let buf = vec![1u8, 2, 3];
                comm.send_owned(1, 0, buf).unwrap();
            } else {
                let (msg, _) = comm.recv(0, 0).unwrap();
                assert_eq!(msg, vec![1, 2, 3]);
            }
        });
    }

    /// `probe_timeout` consumes nothing, gives up typed, and a deposit
    /// wakes it long before its deadline.
    #[test]
    fn probe_timeout_is_woken_by_a_deposit_and_consumes_nothing() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let err = comm.probe_timeout(1, 4, Duration::from_millis(10));
                assert!(err.unwrap_err().is_timeout());
                comm.send(1, 0, b"go").unwrap();
                let t = Instant::now();
                let st = comm.probe_timeout(ANY_SOURCE, ANY_TAG, Duration::from_secs(30));
                assert_eq!(
                    st.unwrap(),
                    Status {
                        source: 1,
                        tag: 4,
                        bytes: 5
                    }
                );
                assert!(
                    t.elapsed() < Duration::from_secs(10),
                    "woken by the deposit"
                );
                assert_eq!(comm.recv(1, 4).unwrap().0, b"hello");
            } else {
                comm.recv(0, 0).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                comm.send(0, 4, b"hello").unwrap();
            }
        });
    }
}
