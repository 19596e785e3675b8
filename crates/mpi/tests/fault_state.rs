//! Fault state and rank translation on the message path: revoking one of
//! two sibling communicators leaves the other alone, and the source a
//! receive or probe reports is the sender's rank *in the receiving
//! communicator* whatever that communicator's group looks like.

use std::time::Duration;

use kamping_mpi::{MpiError, RawComm, Status, Tag, Universe, ANY_SOURCE};

const WAIT: Duration = Duration::from_secs(20);

/// Every rank but local 0 sends its local rank as the tag; local 0 takes
/// the messages as `ANY_SOURCE` through probe + recv, irecv and recv, and
/// checks each reported source against the tag.
fn any_source_reports_local_ranks(comm: &RawComm) {
    let p = comm.size();
    if comm.rank() != 0 {
        for _ in 0..3 {
            let me = comm.rank();
            comm.send(0, me as Tag, &[me as u8]).unwrap();
        }
        return;
    }
    let check = |st: Status, payload: &[u8]| {
        assert_eq!(
            st.source as Tag, st.tag,
            "source is the sender's local rank"
        );
        assert_eq!(payload, [st.source as u8]);
    };
    for _ in 1..p {
        let probed = comm.probe(ANY_SOURCE, kamping_mpi::ANY_TAG).unwrap();
        let (payload, st) = comm.recv(probed.source, probed.tag).unwrap();
        assert_eq!(st, probed);
        check(st, &payload);
    }
    for _ in 1..p {
        let (payload, st) = comm
            .irecv(ANY_SOURCE, kamping_mpi::ANY_TAG)
            .unwrap()
            .wait()
            .unwrap();
        check(st, &payload);
    }
    for _ in 1..p {
        let (payload, st) = comm.recv(ANY_SOURCE, kamping_mpi::ANY_TAG).unwrap();
        check(st, &payload);
    }
}

/// Waits until `n` members of `comm` are marked failed.
fn await_failures(comm: &RawComm, n: usize) {
    let start = std::time::Instant::now();
    while comm.size() - comm.survivors().len() < n {
        assert!(start.elapsed() < WAIT, "failures never arrived");
        std::thread::yield_now();
    }
}

/// A split whose keys reverse the order: local rank `l` is global `p-1-l`.
#[test]
fn any_source_status_on_a_reversed_split() {
    Universe::run(4, |comm| {
        let sub = comm.split(0, (comm.size() - comm.rank()) as u64).unwrap();
        assert_eq!(sub.global_rank(0).unwrap(), 3);
        any_source_reports_local_ranks(&sub);
        // Two colors, reversed within each: {3, 1} and {2, 0}.
        let half = comm
            .split(comm.rank() as u64 % 2, (10 - comm.rank()) as u64)
            .unwrap();
        let other = (comm.rank() + 2) % 4;
        assert_eq!(
            half.local_rank_of(other),
            Some(usize::from(other < comm.rank()))
        );
        assert_eq!(
            half.local_rank_of((comm.rank() + 1) % 4),
            None,
            "other color"
        );
        any_source_reports_local_ranks(&half);
    });
}

/// A shrink over non-contiguous survivors: globals {0, 2, 4} are locals
/// {0, 1, 2}, and the failed globals translate to no local rank.
#[test]
fn any_source_status_on_a_shrunk_communicator() {
    Universe::run(5, |comm| {
        if comm.rank() % 2 == 1 {
            comm.simulate_failure();
            return;
        }
        await_failures(&comm, 2);
        let shrunk = comm.shrink().unwrap();
        assert_eq!(shrunk.size(), 3);
        assert_eq!(shrunk.local_rank_of(4), Some(2));
        for gone in [1, 3, 5, 99, ANY_SOURCE] {
            assert_eq!(shrunk.local_rank_of(gone), None, "global {gone}");
        }
        any_source_reports_local_ranks(&shrunk);
    });
}

/// A grown communicator over a gap: global 1 fails, the survivors {0, 2}
/// admit the parked global 3, so the grown group is {0, 2, 3}.
#[test]
fn any_source_status_on_a_grown_communicator() {
    let ran = Universe::run_elastic(3, 4, |comm| {
        let grown = if comm.membership_epoch() == 0 {
            if comm.rank() == 1 {
                comm.simulate_failure();
                return comm.my_global_rank();
            }
            await_failures(&comm, 1);
            let shrunk = comm.shrink().unwrap();
            if shrunk.rank() == 0 {
                shrunk.spawn_merge(1).unwrap()
            } else {
                shrunk.await_grow_timeout(WAIT).unwrap();
                comm.grow().unwrap()
            }
        } else {
            comm
        };
        let globals: Vec<usize> = (0..grown.size())
            .map(|l| grown.global_rank(l).unwrap())
            .collect();
        assert_eq!(globals, [0, 2, 3]);
        assert_eq!(
            (grown.local_rank_of(1), grown.local_rank_of(3)),
            (None, Some(2))
        );
        any_source_reports_local_ranks(&grown);
        grown.my_global_rank()
    })
    .unwrap();
    let ran: Vec<usize> = ran.iter().map(|&(g, _)| g).collect();
    assert_eq!(ran, [0, 1, 2, 3]);
}

/// Two `dup`s over the same ranks; revoking one interrupts a receive
/// blocked on it and fails its every later call, while the sibling's
/// point-to-point and collective traffic is untouched.
#[test]
fn revoking_one_dup_leaves_its_sibling_working() {
    Universe::run(3, |comm| {
        let (doomed, sibling) = (comm.dup().unwrap(), comm.dup().unwrap());
        sibling.barrier().unwrap();
        match comm.rank() {
            // Announce the receive on the sibling, then block on the doomed
            // communicator for a message nobody sends.
            2 => {
                sibling.send(0, 1, b"blocking").unwrap();
                assert_eq!(doomed.recv(1, 9).unwrap_err(), MpiError::Revoked);
            }
            0 => {
                sibling.recv(2, 1).unwrap();
                // Let rank 2 reach its wait: the revoke lands on a parked
                // receive, not on the check before it.
                std::thread::sleep(Duration::from_millis(20));
                doomed.revoke();
            }
            _ => doomed.await_revoked(),
        }
        assert!(doomed.is_revoked() && !sibling.is_revoked() && !comm.is_revoked());
        assert_eq!(doomed.send(0, 2, b"x").unwrap_err(), MpiError::Revoked);
        assert_eq!(doomed.barrier().unwrap_err(), MpiError::Revoked);
        assert!(doomed.irecv(0, 2).is_err());

        let (me, p) = (sibling.rank(), sibling.size());
        sibling.send((me + 1) % p, 4, &[me as u8]).unwrap();
        let (got, st) = sibling.recv(ANY_SOURCE, 4).unwrap();
        assert_eq!(
            (got, st.source),
            (vec![((me + p - 1) % p) as u8], (me + p - 1) % p)
        );
        let mut sum = (me as u64).to_le_bytes().to_vec();
        let add = |acc: &mut [u8], x: &[u8]| {
            let s = u64::from_le_bytes(acc.try_into().unwrap())
                + u64::from_le_bytes(x.try_into().unwrap());
            acc.copy_from_slice(&s.to_le_bytes());
        };
        sibling.allreduce(&mut sum, &add, 8).unwrap();
        assert_eq!(sum, 3u64.to_le_bytes());
        sibling.ibarrier().unwrap().wait().unwrap();
        sibling.barrier().unwrap();
    });
}
