//! Non-blocking request handles.
//!
//! A [`RawRequest`] is the substrate analog of `MPI_Request`: it is produced
//! by `isend`/`issend`/`irecv`/`ibarrier` and completed with
//! [`RawRequest::test`] or [`RawRequest::wait`]. Receive requests yield the
//! message payload and a [`Status`]; send/barrier requests yield nothing.
//!
//! The ownership-based safety guarantees the paper builds (§III-E) live one
//! level up, in `kamping::nonblocking` — at this level requests are as
//! unsafe-to-misuse as MPI's, by design.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{MpiError, MpiResult};
use crate::icoll::RawCollRequest;
use crate::p2p::Status;
use crate::transport::{AckCell, MatchKey};
use crate::universe::{wait_interrupt, UniverseState};

/// What a request is waiting for.
pub(crate) enum RequestKind {
    /// Eager send: already complete.
    SendDone,
    /// Synchronous-mode send: complete when the ack cell is set, error if
    /// the destination dies before matching (avoids an unbounded wait).
    Ssend {
        ack: Arc<AckCell>,
        dest_global: usize,
    },
    /// Receive: complete when a matching envelope arrives. `inverse` is
    /// the communicator's global → local table ([`crate::comm::rank_index`]).
    Recv {
        key: MatchKey,
        me: usize,
        inverse: Arc<Vec<usize>>,
    },
    /// Non-blocking collective (today only the barrier arrives here):
    /// complete when the icoll engine settles the schedule.
    Coll(RawCollRequest),
}

/// Payload of a completed request.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Completion {
    /// A send or barrier completed.
    Done,
    /// A receive completed with this payload and status.
    Message(Vec<u8>, Status),
}

/// A non-blocking operation in flight.
pub struct RawRequest {
    state: Arc<UniverseState>,
    kind: Option<RequestKind>,
    /// Blocked time accumulated across *all* timed-out wait attempts, so a
    /// retried [`RawRequest::wait_timeout`] reports the total in
    /// [`MpiError::Timeout`] instead of restarting the clock each attempt.
    waited: Duration,
}

impl RawRequest {
    pub(crate) fn new(state: Arc<UniverseState>, kind: RequestKind) -> Self {
        Self {
            state,
            kind: Some(kind),
            waited: Duration::ZERO,
        }
    }

    /// True once [`test`](Self::test)/[`wait`](Self::wait) has completed the
    /// request (subsequent calls are no-ops, mirroring
    /// `MPI_REQUEST_NULL` semantics).
    pub fn is_complete(&self) -> bool {
        self.kind.is_none()
    }

    /// Polls for completion. For receives, returns the payload/status pair
    /// when complete. A completed (null) request reports `Some(None)`-like
    /// behaviour: it is complete with no payload.
    pub fn test(&mut self) -> MpiResult<Option<(Vec<u8>, Status)>> {
        match self.test_any()? {
            None => Ok(None),
            Some(Completion::Done) => Ok(Some((
                Vec::new(),
                Status {
                    source: usize::MAX,
                    tag: 0,
                    bytes: 0,
                },
            ))),
            Some(Completion::Message(payload, status)) => Ok(Some((payload, status))),
        }
    }

    /// Polls for completion, distinguishing send/barrier completions from
    /// message deliveries.
    pub(crate) fn test_any(&mut self) -> MpiResult<Option<Completion>> {
        let Some(kind) = self.kind.take() else {
            return Ok(Some(Completion::Done));
        };
        match kind {
            RequestKind::SendDone => Ok(Some(Completion::Done)),
            RequestKind::Ssend { ack, dest_global } => {
                match ssend_verdict(|| ack.is_set(), || self.state.is_gone(dest_global)) {
                    Some(true) => Ok(Some(Completion::Done)),
                    Some(false) => Err(MpiError::ProcFailed { rank: dest_global }),
                    None => {
                        self.kind = Some(RequestKind::Ssend { ack, dest_global });
                        Ok(None)
                    }
                }
            }
            RequestKind::Recv { key, me, inverse } => {
                // Surface failures/revocation even while polling.
                let interrupt = wait_interrupt(&self.state, key.src, key.ctx);
                match self.state.mailbox(me).try_take(key) {
                    Some(d) => {
                        let status = Status::of(&inverse, d.src, d.tag, d.payload.len());
                        Ok(Some(Completion::Message(d.payload.into_vec(), status)))
                    }
                    None => {
                        if let Some(err) = interrupt() {
                            return Err(err);
                        }
                        self.kind = Some(RequestKind::Recv { key, me, inverse });
                        Ok(None)
                    }
                }
            }
            RequestKind::Coll(mut req) => match req.test() {
                Ok(Some(_)) => Ok(Some(Completion::Done)),
                Ok(None) => {
                    self.kind = Some(RequestKind::Coll(req));
                    Ok(None)
                }
                Err(e) => Err(e),
            },
        }
    }

    /// Blocks until the request completes. Never polls: receives and
    /// collectives block on the owning mailbox's condvar, synchronous-send
    /// acks block on the universe [`crate::transport::Hub`].
    pub fn wait(&mut self) -> MpiResult<(Vec<u8>, Status)> {
        self.wait_deadline(None)
    }

    /// Like [`RawRequest::wait`], but gives up after `timeout` with
    /// [`MpiError::Timeout`]. The request stays *pending* on timeout (it
    /// can be waited on again with a longer budget), so a hung peer —
    /// severed link, silent death the failure detector has not caught yet
    /// — surfaces as an error instead of blocking forever.
    pub fn wait_timeout(&mut self, timeout: Duration) -> MpiResult<(Vec<u8>, Status)> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    /// [`RawRequest::wait`] with an optional absolute deadline — the form
    /// used when one budget spans several requests. `None` waits forever.
    pub(crate) fn wait_deadline(
        &mut self,
        deadline: Option<Instant>,
    ) -> MpiResult<(Vec<u8>, Status)> {
        let start = Instant::now();
        let done_status = Status {
            source: usize::MAX,
            tag: 0,
            bytes: 0,
        };
        match self.kind.take() {
            None | Some(RequestKind::SendDone) => Ok((Vec::new(), done_status)),
            Some(RequestKind::Recv { key, me, inverse }) => {
                let interrupt = wait_interrupt(&self.state, key.src, key.ctx);
                match self
                    .state
                    .mailbox(me)
                    .take_blocking_deadline(key, &interrupt, deadline)
                {
                    Ok(d) => {
                        let status = Status::of(&inverse, d.src, d.tag, d.payload.len());
                        Ok((d.payload.into_vec(), status))
                    }
                    Err(e) => {
                        if e.is_timeout() {
                            self.kind = Some(RequestKind::Recv { key, me, inverse });
                            self.waited += start.elapsed();
                            return Err(MpiError::Timeout {
                                waited: self.waited,
                            });
                        }
                        Err(e)
                    }
                }
            }
            Some(RequestKind::Ssend { ack, dest_global }) => {
                let state = Arc::clone(&self.state);
                let verdict = state.hub.wait_until_deadline(
                    || ssend_verdict(|| ack.is_set(), || state.is_gone(dest_global)),
                    deadline,
                );
                match verdict {
                    Some(true) => Ok((Vec::new(), done_status)),
                    Some(false) => Err(MpiError::ProcFailed { rank: dest_global }),
                    None => {
                        self.kind = Some(RequestKind::Ssend { ack, dest_global });
                        self.waited += start.elapsed();
                        Err(MpiError::Timeout {
                            waited: self.waited,
                        })
                    }
                }
            }
            Some(RequestKind::Coll(mut req)) => match req.wait_deadline(deadline) {
                Ok(_) => Ok((Vec::new(), done_status)),
                Err(e) => {
                    if e.is_timeout() {
                        // The inner request accumulates `waited` across
                        // attempts itself.
                        self.kind = Some(RequestKind::Coll(req));
                    }
                    Err(e)
                }
            },
        }
    }
}

/// The verdict on a synchronous-mode send from one look at its ack and its
/// destination: `Some(true)` once matched, `Some(false)` once the
/// destination is gone without having matched, `None` while pending.
///
/// The ack is read again after the destination is seen gone, because a
/// receiver may match the message and then finish between the two reads. A
/// receiver sets the ack when it matches, which is before its closure
/// returns and the universe marks it finished; on the socket backend its
/// `Ack` frame travels ahead of its `Finished` frame on the same FIFO
/// channel. The finish bit is set with `Release` and `gone` loads it with
/// `Acquire`, so once `gone` holds, any ack set before it is visible: a
/// second miss means the message was never matched.
fn ssend_verdict(acked: impl Fn() -> bool, gone: impl FnOnce() -> bool) -> Option<bool> {
    if acked() {
        return Some(true);
    }
    gone().then(acked)
}

#[cfg(test)]
mod tests {
    use super::ssend_verdict;
    use crate::Universe;
    use std::cell::Cell;

    /// Replays one sequence of ack observations through the verdict;
    /// returns it with the number of ack reads it took.
    fn verdict(acks: &[bool], gone: bool) -> (Option<bool>, usize) {
        let reads = Cell::new(0);
        let acked = || {
            reads.set(reads.get() + 1);
            acks[reads.get() - 1]
        };
        (ssend_verdict(acked, || gone), reads.get())
    }

    /// The check-then-fault race, scripted: the receiver matches (ack set)
    /// and finishes between the sender's first ack read and its fate read.
    /// The send completed; it must not read as `ProcFailed`.
    #[test]
    fn issend_matched_then_finished_is_complete() {
        assert_eq!(verdict(&[false, true], true), (Some(true), 2));
        assert_eq!(verdict(&[false, false], true), (Some(false), 2));
        assert_eq!(verdict(&[true], true), (Some(true), 1));
        assert_eq!(verdict(&[false], false), (None, 1));
    }

    /// The same race on real ranks: rank 1 matches the `issend` and returns
    /// at once, so rank 0's wait often sees it finished. Every wait must
    /// complete.
    #[test]
    fn issend_to_a_rank_that_matches_and_returns_completes() {
        for _ in 0..100 {
            Universe::run(2, |comm| {
                if comm.rank() == 0 {
                    let mut req = comm.issend(1, 3, b"x".to_vec()).unwrap();
                    req.wait().unwrap();
                } else {
                    comm.recv(0, 3).unwrap();
                }
            });
        }
    }

    #[test]
    fn isend_request_completes_immediately() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.isend(1, 0, b"x".to_vec()).unwrap();
                assert!(req.test().unwrap().is_some());
                assert!(req.is_complete());
                // Completed requests stay complete.
                assert!(req.test().unwrap().is_some());
            } else {
                comm.recv(0, 0).unwrap();
            }
        });
    }

    #[test]
    fn wait_timeout_accumulates_waited_across_attempts() {
        use std::time::Duration;
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.irecv(1, 7).unwrap();
                let budget = Duration::from_millis(40);
                let crate::MpiError::Timeout { waited: w1 } = req.wait_timeout(budget).unwrap_err()
                else {
                    panic!("expected timeout");
                };
                let crate::MpiError::Timeout { waited: w2 } = req.wait_timeout(budget).unwrap_err()
                else {
                    panic!("expected timeout");
                };
                // The second report must include the first attempt's wait:
                // total-so-far, not per-attempt.
                assert!(
                    w2 >= w1 + budget,
                    "waited must accumulate: w1={w1:?} w2={w2:?}"
                );
                comm.send(1, 0, b"go").unwrap();
                let (payload, _) = req.wait().unwrap();
                assert_eq!(payload, b"late");
            } else {
                comm.recv(0, 0).unwrap();
                comm.send(0, 7, b"late").unwrap();
            }
        });
    }
}
