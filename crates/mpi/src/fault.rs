//! User-Level Failure Mitigation (ULFM) core operations.
//!
//! The upcoming MPI 5.0 standard lets applications survive process failures
//! (paper §V-B): a failed peer surfaces as `MPI_ERR_PROC_FAILED`, the
//! application *revokes* the communicator to propagate the error, *shrinks*
//! it to the survivors, and continues. This module provides those
//! primitives on the substrate; the idiomatic `Result`-based wrapper the
//! paper's plugin offers lives in `kamping-plugins::ulfm`.
//!
//! Failures are *injected*: a rank calls [`RawComm::simulate_failure`] and
//! stops participating (returns from the SPMD closure). A rank that panics
//! is marked failed automatically by the universe.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::comm::ContextKind;
use crate::error::{MpiError, MpiResult};
use crate::profile::Op;
use crate::tag::coll_tag;
use crate::transport::{MatchKey, Payload};
use crate::RawComm;

/// What a blocking membership wait observed first (see
/// [`RawComm::await_membership_change_timeout`]): elastic services watch
/// for both directions of churn with one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// A member failed; carries the lowest failed local rank.
    Failure(usize),
    /// The universe grew; carries the new membership epoch.
    Grow(u64),
}

impl RawComm {
    /// Marks this rank as failed and wakes all peers. The caller should
    /// return from the SPMD closure afterwards; any further operation by
    /// this rank is undefined (like a half-dead MPI process).
    pub fn simulate_failure(&self) {
        self.state.mark_failed(self.my_global_rank());
    }

    /// Revokes this communicator on all ranks (`MPI_Comm_revoke`): every
    /// pending and future operation on it fails with [`MpiError::Revoked`],
    /// except [`RawComm::shrink`] and [`RawComm::agree`].
    pub fn revoke(&self) {
        self.state.mark_revoked(self.ctx);
    }

    /// True once the communicator has been revoked (by any rank).
    pub fn is_revoked(&self) -> bool {
        self.state.is_revoked(self.ctx)
    }

    /// Blocks (without polling) until this communicator is revoked.
    /// Failure-handling code uses this to rendezvous on the revocation
    /// instead of spinning on [`RawComm::is_revoked`].
    pub fn await_revoked(&self) {
        self.state
            .hub
            .wait_until(|| self.state.is_revoked(self.ctx).then_some(()));
    }

    /// Blocks (without polling) until at least one member of this
    /// communicator is marked failed; returns the lowest failed local rank.
    pub fn await_failure(&self) -> usize {
        self.state.hub.wait_until(|| self.first_failed())
    }

    /// Lowest-numbered failed member of this communicator, if any
    /// (`MPI_Comm_failure_ack`/`get_acked` rolled into one query).
    pub(crate) fn first_failed(&self) -> Option<usize> {
        (0..self.size()).find(|&l| self.state.is_failed(self.group[l]))
    }

    /// Local ranks of all surviving members, in rank order.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.size())
            .filter(|&l| !self.state.is_failed(self.group[l]))
            .collect()
    }

    /// Builds a new communicator containing only the surviving processes
    /// (`MPI_Comm_shrink`). Works on revoked communicators. Collective over
    /// the survivors.
    pub fn shrink(&self) -> MpiResult<RawComm> {
        let _op = self.record(Op::Shrink);
        let survivors = self.survivors();
        let globals: Vec<usize> = survivors.iter().map(|&l| self.group[l]).collect();
        if !globals.contains(&self.my_global_rank()) {
            return Err(MpiError::Internal("a failed rank cannot shrink"));
        }
        // The shrunk context is a pure function of (parent context,
        // survivor set) — deliberately NOT of a collective sequence
        // number. Ranks can observe overlapping failures in different
        // batches: one shrinks at {A}, gets `ProcFailed` from the
        // convergence barrier when B dies mid-shrink, and retries; another
        // jumps straight to {A, B}. Retrying callers must land in the
        // *same* context as first-time callers with the same survivor
        // view, or the barrier would wait on contexts nobody else enters.
        let mut words: Vec<u64> = vec![self.ctx, ContextKind::Shrink as u64];
        words.extend(globals.iter().map(|&g| g as u64));
        let ctx = crate::comm::fnv1a(&words);
        let shrunk = self.derive(ctx, globals, self.my_global_rank(), None);
        // Synchronize the survivors on the new context so that nobody races
        // ahead with operations before everybody agrees the shrink happened.
        shrunk.barrier()?;
        Ok(shrunk)
    }

    /// The membership epoch this communicator was built under: 0 for the
    /// launch membership, and each admission ([`RawComm::grow`]) bumps it.
    /// Derived communicators (`dup`/`split`/`shrink`) inherit the epoch.
    pub fn membership_epoch(&self) -> u64 {
        self.epoch
    }

    /// Builds the communicator of the next membership epoch after this
    /// one (`grow` — the inverse of [`RawComm::shrink`]). Collective over
    /// the grown membership: every surviving member calls `grow()` while
    /// the admitted rank enters through the same context from its side,
    /// and all of them synchronize on an admission barrier. Steps exactly
    /// one epoch; a process that lagged several admissions calls it
    /// repeatedly to replay them in order.
    ///
    /// Errors with [`MpiError::Internal`] when no newer epoch exists (use
    /// [`RawComm::await_grow_timeout`] to block for one). A member failing
    /// *during* the admission barrier does not fail the grow: the grown
    /// communicator is returned with the failure already marked, and the
    /// caller handles it through the normal path (`RawComm::first_failed`
    /// → [`RawComm::shrink`]).
    pub fn grow(&self) -> MpiResult<RawComm> {
        let _op = self.record(Op::Grow);
        let event = self
            .state
            .next_grow_after(self.epoch)
            .ok_or(MpiError::Internal(
                "no grow event beyond this communicator's epoch",
            ))?;
        if !event.members.contains(&self.my_global_rank()) {
            return Err(MpiError::Internal(
                "a rank outside the grown membership cannot grow",
            ));
        }
        let grown = RawComm::from_grow(
            Arc::clone(&self.state),
            event.epoch,
            event.members,
            self.my_global_rank(),
        );
        // Admission barrier: nobody proceeds on the new epoch until the
        // joiners and every survivor have arrived at the same context. A
        // member dying *during* admission must not make the epoch
        // unenterable — every future grow() call would step into this
        // same event and fail its barrier forever — so failure-class
        // errors are tolerated: the grown communicator is returned with
        // the corpse already marked, and the caller's normal failure path
        // (first_failed → shrink) removes it.
        match grown.barrier() {
            Ok(()) => {}
            Err(e) if e.is_failure() => {}
            Err(e) => return Err(e),
        }
        Ok(grown)
    }

    /// Blocks until the universe has grown past this communicator's epoch,
    /// or gives up after `timeout` with [`MpiError::Timeout`]. Returns the
    /// newest observed epoch; follow with [`RawComm::grow`] to step into
    /// it.
    pub fn await_grow_timeout(&self, timeout: Duration) -> MpiResult<u64> {
        let start = Instant::now();
        self.state
            .hub
            .wait_until_deadline(
                || {
                    let e = self.state.membership_epoch.load(Ordering::Acquire);
                    (e > self.epoch).then_some(e)
                },
                Some(start + timeout),
            )
            .ok_or(MpiError::Timeout {
                waited: start.elapsed(),
            })
    }

    /// Blocks until membership churns in *either* direction — a member
    /// failure or an admission past this communicator's epoch — giving up
    /// after `timeout` with [`MpiError::Timeout`]. Failures win ties, so
    /// recovery (revoke/shrink) runs before the service grows again.
    pub fn await_membership_change_timeout(
        &self,
        timeout: Duration,
    ) -> MpiResult<MembershipChange> {
        let start = Instant::now();
        self.state
            .hub
            .wait_until_deadline(
                || {
                    if let Some(l) = self.first_failed() {
                        return Some(MembershipChange::Failure(l));
                    }
                    let e = self.state.membership_epoch.load(Ordering::Acquire);
                    (e > self.epoch).then_some(MembershipChange::Grow(e))
                },
                Some(start + timeout),
            )
            .ok_or(MpiError::Timeout {
                waited: start.elapsed(),
            })
    }

    /// Admits `n` parked ranks into the universe (`MPI_Comm_spawn` +
    /// merge rolled into one): creates the next grow event and steps this
    /// handle into it via [`RawComm::grow`]. Call it from exactly one
    /// member; the others observe the admission and call
    /// [`RawComm::grow`] themselves.
    ///
    /// Only the shm backend parks ranks ([`crate::Universe::run_elastic`]);
    /// on the socket backend joining processes are admitted by the
    /// rendezvous monitor instead (`kampirun --elastic`), and this errors
    /// with [`MpiError::Config`].
    pub fn spawn_merge(&self, n: usize) -> MpiResult<RawComm> {
        if n == 0 {
            return Err(MpiError::Config(
                "spawn_merge needs at least one joiner".into(),
            ));
        }
        let joiners: Vec<usize> = {
            let mut parked = self.state.parked.lock().expect("parked pool poisoned");
            if parked.len() < n {
                return Err(MpiError::Config(format!(
                    "spawn_merge({n}): only {} parked rank(s) available — park ranks with \
                     Universe::run_elastic (shm); on the socket backend the rendezvous \
                     monitor admits joiners (kampirun --elastic)",
                    parked.len()
                )));
            }
            parked.drain(..n).collect()
        };
        // Keep the termination accounting ahead of the event publication
        // so the job cannot close while an admitted rank is waking up.
        self.state.active_unfinished.fetch_add(n, Ordering::AcqRel);
        let epoch = self.state.membership_epoch.load(Ordering::Acquire) + 1;
        let mut members: Vec<usize> = self
            .state
            .current_members()
            .into_iter()
            .filter(|&r| !self.state.is_gone(r))
            .collect();
        members.extend(joiners.iter().copied());
        members.sort_unstable();
        self.state.mark_grow(epoch, joiners, members);
        self.grow()
    }

    /// Fault-tolerant agreement (`MPI_Comm_agree`): returns the logical AND
    /// of `flag` over all *surviving* members. Works on revoked
    /// communicators; failures of further ranks during the agreement
    /// surface as [`MpiError::ProcFailed`].
    pub fn agree(&self, flag: bool) -> MpiResult<bool> {
        let _op = self.record(Op::Agree);
        let tag = coll_tag(self.next_coll_seq());
        let survivors = self.survivors();
        let me_pos = survivors
            .iter()
            .position(|&l| l == self.rank())
            .ok_or(MpiError::Internal("a failed rank cannot agree"))?;
        let leader = survivors[0];
        // Gather-to-leader, AND, broadcast back. Uses failure-aware
        // receives that ignore revocation (agree must work when revoked).
        if me_pos == 0 {
            let mut acc = flag;
            for &src in &survivors[1..] {
                let payload = self.recv_ignoring_revocation(src, tag)?;
                acc &= payload == [1u8];
            }
            for &dest in &survivors[1..] {
                let g = self.global_rank(dest)?;
                self.post_to(g, tag, Payload::from_slice(&[acc as u8]), None);
            }
            Ok(acc)
        } else {
            let g = self.global_rank(leader)?;
            self.post_to(g, tag, Payload::from_slice(&[flag as u8]), None);
            let payload = self.recv_ignoring_revocation(leader, tag)?;
            Ok(payload == [1u8])
        }
    }

    /// Receive that (unlike normal receives) keeps working on a revoked
    /// communicator; only peer failure interrupts it.
    fn recv_ignoring_revocation(&self, src: usize, tag: crate::Tag) -> MpiResult<Vec<u8>> {
        let src_global = self.global_rank(src)?;
        let key = MatchKey {
            src: src_global,
            tag,
            ctx: self.ctx,
        };
        let state = &self.state;
        let interrupt = move || {
            if state.is_gone(src_global) {
                Some(MpiError::ProcFailed { rank: src_global })
            } else {
                None
            }
        };
        let d = self
            .state
            .mailbox(self.my_global_rank())
            .take_blocking(key, &interrupt)?;
        Ok(d.payload.into_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn failure_surfaces_at_receivers() {
        Universe::run(3, |comm| {
            if comm.rank() == 2 {
                comm.simulate_failure();
                return;
            }
            if comm.rank() == 0 {
                let err = comm.recv(2, 0).unwrap_err();
                assert_eq!(err, MpiError::ProcFailed { rank: 2 });
            }
        });
    }

    #[test]
    fn failure_breaks_collectives() {
        Universe::run(4, |comm| {
            if comm.rank() == 3 {
                comm.simulate_failure();
                return;
            }
            // The barrier needs rank 3; survivors must get an error, not hang.
            let err = comm.barrier().unwrap_err();
            assert!(err.is_failure());
        });
    }

    #[test]
    fn revoke_interrupts_blocked_peers() {
        Universe::run(3, |comm| {
            match comm.rank() {
                0 => {
                    // Blocks forever unless the revocation wakes it.
                    let err = comm.recv(1, 99).unwrap_err();
                    assert_eq!(err, MpiError::Revoked);
                }
                1 => {
                    comm.revoke();
                    assert!(comm.is_revoked());
                }
                _ => {
                    // New operations on a revoked communicator fail fast —
                    // wait until the revocation is visible.
                    comm.await_revoked();
                    assert_eq!(comm.send(0, 0, b"x").unwrap_err(), MpiError::Revoked);
                }
            }
        });
    }

    #[test]
    fn shrink_and_continue() {
        Universe::run(4, |comm| {
            if comm.rank() == 1 {
                comm.simulate_failure();
                return 0u64;
            }
            // Survivors wait until the failure is visible, then shrink.
            assert_eq!(comm.await_failure(), 1);
            let shrunk = comm.shrink().unwrap();
            assert_eq!(shrunk.size(), 3);
            // The shrunk communicator is fully operational.
            let mut buf = (shrunk.rank() as u64).to_le_bytes().to_vec();
            shrunk
                .allreduce(
                    &mut buf,
                    &|a: &mut [u8], b: &[u8]| {
                        let x = u64::from_le_bytes(a.try_into().unwrap());
                        let y = u64::from_le_bytes(b.try_into().unwrap());
                        a.copy_from_slice(&(x + y).to_le_bytes());
                    },
                    8,
                )
                .unwrap();
            u64::from_le_bytes(buf.try_into().unwrap())
        });
    }

    #[test]
    fn agree_ands_over_survivors() {
        Universe::run(4, |comm| {
            if comm.rank() == 2 {
                comm.simulate_failure();
                return;
            }
            comm.await_failure();
            // Rank 0 votes false; everyone must learn `false`.
            let verdict = comm.agree(comm.rank() != 0).unwrap();
            assert!(!verdict);
        });
    }

    #[test]
    fn agree_works_on_revoked_comm() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.revoke();
            }
            comm.await_revoked();
            assert!(comm.agree(true).unwrap());
        });
    }

    #[test]
    fn first_failed_reports_lowest() {
        Universe::run(3, |comm| {
            if comm.rank() == 1 {
                comm.simulate_failure();
                return;
            }
            assert_eq!(comm.await_failure(), 1);
            assert_eq!(comm.first_failed(), Some(1));
            assert_eq!(comm.survivors(), vec![0, 2]);
        });
    }
}
