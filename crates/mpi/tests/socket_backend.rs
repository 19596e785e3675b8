//! Multi-process tests of the cross-process backends (sockets and
//! shm-xproc rings).
//!
//! Each `socket_*` test below launches N copies of *this test binary* via
//! [`kamping_mpi::net::launch`] (the `kampirun` library), filtered down to
//! the [`worker_entry`] test. Inside each child, `KAMPING_TRANSPORT=socket`
//! makes `Universe::run` join the job as one rank, so the case functions
//! here run unchanged code paths — the very ones the shared-memory tests
//! (`transport_ordering.rs` and the unit suites) exercise in-process. A
//! case asserts inside the child; the parent only checks exit statuses.
//!
//! Every case also runs as a `ring_*` test under `Backend::ShmXproc`,
//! where co-located ranks talk over mmap'd shared-memory rings instead of
//! sockets — same `Transport` seam, same invariants, different wire. A
//! `mixed_*` family splits the co-located set (`KAMPING_LOCAL_RANKS`) so
//! some pairs ride rings while others keep sockets in one job.
//!
//! The mirrored invariants:
//!
//! 1. FIFO non-overtaking per (source, tag, context) across the wire;
//! 2. `ANY_SOURCE` matches follow mailbox arrival stamps (with arrival
//!    order *enforced* through rank-0-mediated tokens — unlike shared
//!    memory, sockets do not make cross-sender delivery causal on their
//!    own, and MPI does not promise it either);
//! 3. `issend` completes exactly on match (wire acks), or errors when the
//!    destination is gone;
//! 4. collectives (blocking and — this PR — the nonblocking engine:
//!    equivalence against the blocking names, chaos seeds surfacing typed
//!    `Timeout`/`ProcFailed` instead of hangs), non-blocking barriers,
//!    revocation and rank-death recovery (a child killed mid-job surfaces
//!    as `ProcFailed` and the survivors shrink and continue).

mod oracle;

use std::time::Duration;

use kamping_mpi::net::{launch, Backend, LaunchSpec, RankExit};
use kamping_mpi::{MpiError, RawComm, Universe, ANY_SOURCE, ANY_TAG};

const MSGS: u32 = 50;
const CASE_VAR: &str = "KAMPING_TEST_CASE";

fn seq_payload(src: usize, seq: u32) -> Vec<u8> {
    let mut v = (src as u32).to_le_bytes().to_vec();
    v.extend_from_slice(&seq.to_le_bytes());
    v
}

fn decode(payload: &[u8]) -> (u32, u32) {
    (
        u32::from_le_bytes(payload[..4].try_into().unwrap()),
        u32::from_le_bytes(payload[4..8].try_into().unwrap()),
    )
}

/// Launches `ranks` copies of this test binary running `case` over
/// `backend`, with any extra environment for the children.
fn run_job_full(
    case: &str,
    ranks: usize,
    tcp: bool,
    backend: Backend,
    extra: &[(&str, String)],
) -> Vec<RankExit> {
    let mut spec = LaunchSpec::new(
        ranks,
        std::env::current_exe().expect("test binary path available"),
    );
    spec.tcp = tcp;
    spec.backend = backend;
    spec.args = vec!["worker_entry".into(), "--exact".into()];
    spec.env = vec![(CASE_VAR.into(), case.into())];
    for (k, v) in extra {
        spec.env.push(((*k).into(), v.clone()));
    }
    launch(&spec).expect("launching the job")
}

/// Launches `ranks` copies of this test binary running `case`.
fn run_job(case: &str, ranks: usize, tcp: bool) -> Vec<RankExit> {
    run_job_chaos(case, ranks, tcp, None)
}

/// Like [`run_job`], but with a `KAMPING_CHAOS` schedule exported to the
/// children — the socket-backend variant of `Universe::run_with_chaos`.
fn run_job_chaos(case: &str, ranks: usize, tcp: bool, chaos: Option<&str>) -> Vec<RankExit> {
    let extra: Vec<(&str, String)> = chaos
        .map(|c| ("KAMPING_CHAOS", c.to_string()))
        .into_iter()
        .collect();
    run_job_full(case, ranks, tcp, Backend::Socket, &extra)
}

/// Like [`run_job`], with one extra environment variable for the children.
fn run_job_env(
    case: &str,
    ranks: usize,
    tcp: bool,
    extra: Option<(&str, String)>,
) -> Vec<RankExit> {
    let extra: Vec<(&str, String)> = extra.into_iter().collect();
    run_job_full(case, ranks, tcp, Backend::Socket, &extra)
}

/// [`run_job`] over shm-xproc rings (every pair co-located).
fn run_ring_job(case: &str, ranks: usize) -> Vec<RankExit> {
    run_ring_job_chaos(case, ranks, None)
}

/// [`run_job_chaos`] over shm-xproc rings.
fn run_ring_job_chaos(case: &str, ranks: usize, chaos: Option<&str>) -> Vec<RankExit> {
    let extra: Vec<(&str, String)> = chaos
        .map(|c| ("KAMPING_CHAOS", c.to_string()))
        .into_iter()
        .collect();
    run_job_full(case, ranks, false, Backend::ShmXproc, &extra)
}

/// A mixed-topology job: ranks listed in `local` use rings among
/// themselves; every pair involving an unlisted rank stays on sockets.
fn run_mixed_job(case: &str, ranks: usize, local: &str) -> Vec<RankExit> {
    run_job_full(
        case,
        ranks,
        false,
        Backend::ShmXproc,
        &[("KAMPING_LOCAL_RANKS", local.to_string())],
    )
}

fn assert_all_success(case: &str, exits: &[RankExit]) {
    for e in exits {
        assert!(
            e.status.success(),
            "case {case}: rank {} exited with {}",
            e.rank,
            e.status
        );
    }
}

// ---------------------------------------------------------------------
// The case bodies, executed inside the child processes.
// ---------------------------------------------------------------------

fn case_fifo(comm: &RawComm) {
    if comm.rank() == 0 {
        for src in 1..comm.size() {
            for expect in 0..MSGS {
                let (payload, status) = comm.recv(src, 7).unwrap();
                assert_eq!(status.source, src);
                assert_eq!(decode(&payload), (src as u32, expect));
            }
        }
    } else {
        for seq in 0..MSGS {
            comm.send(0, 7, &seq_payload(comm.rank(), seq)).unwrap();
        }
    }
}

fn case_fifo_tags(comm: &RawComm) {
    if comm.rank() == 1 {
        for seq in 0..MSGS {
            comm.send(0, 10, &seq_payload(1, seq)).unwrap();
            comm.send(0, 20, &seq_payload(1, seq)).unwrap();
        }
    } else {
        // Drain the second tag first: tag-20 must overtake queued tag-10
        // messages while each tag stays FIFO — across the wire.
        for expect in 0..MSGS {
            let (payload, _) = comm.recv(1, 20).unwrap();
            assert_eq!(decode(&payload).1, expect);
        }
        for expect in 0..MSGS {
            let (payload, _) = comm.recv(1, 10).unwrap();
            assert_eq!(decode(&payload).1, expect);
        }
    }
}

fn case_any_source(comm: &RawComm) {
    // Senders 1..3 deposit into rank 0's mailbox one at a time: rank 0
    // acknowledges each deposit before unleashing the next sender, so the
    // arrival order is forced and ANY_SOURCE must observe exactly it.
    if comm.rank() == 0 {
        for expect in 1..comm.size() {
            let (payload, status) = comm.recv(ANY_SOURCE, 5).unwrap();
            assert_eq!(decode(&payload).0, expect as u32);
            assert_eq!(status.source, expect);
            if expect + 1 < comm.size() {
                comm.send(expect + 1, 1, b"go").unwrap();
            }
        }
    } else {
        if comm.rank() > 1 {
            comm.recv(0, 1).unwrap();
        }
        comm.send(0, 5, &seq_payload(comm.rank(), 0)).unwrap();
    }
}

fn case_wildcard_drain(comm: &RawComm) {
    let p = comm.size();
    if comm.rank() == 0 {
        let mut next_seq = vec![0u32; p];
        let mut total = 0usize;
        while total < (p - 1) * MSGS as usize {
            let (payload, status) = comm.recv(ANY_SOURCE, ANY_TAG).unwrap();
            let (src, seq) = decode(&payload);
            assert_eq!(src as usize, status.source);
            assert_eq!(status.tag, status.source as kamping_mpi::Tag);
            assert_eq!(seq, next_seq[status.source], "per-source FIFO broken");
            next_seq[status.source] += 1;
            total += 1;
        }
    } else {
        let tag = comm.rank() as kamping_mpi::Tag;
        for seq in 0..MSGS {
            comm.send(0, tag, &seq_payload(comm.rank(), seq)).unwrap();
        }
    }
}

fn case_issend(comm: &RawComm) {
    if comm.rank() == 0 {
        let mut req = comm.issend(1, 1, b"payload".to_vec()).unwrap();
        // Rank 1 is blocked waiting for the go message, so no Ack frame
        // can have come back yet.
        assert!(req.test().unwrap().is_none());
        comm.send(1, 0, b"go").unwrap();
        req.wait().unwrap();
    } else {
        comm.recv(0, 0).unwrap();
        let (payload, _) = comm.recv(0, 1).unwrap();
        assert_eq!(payload, b"payload");
    }
}

fn case_issend_failed_rank(comm: &RawComm) {
    if comm.rank() == 0 {
        let mut req = comm.issend(1, 42, b"never read".to_vec()).unwrap();
        comm.send(1, 0, b"posted").unwrap();
        assert_eq!(req.wait().unwrap_err(), MpiError::ProcFailed { rank: 1 });
        // Sends to an already-dead process complete locally.
        let mut req2 = comm.issend(1, 3, b"into the void".to_vec()).unwrap();
        req2.wait().unwrap();
    } else {
        comm.recv(0, 0).unwrap();
        comm.simulate_failure();
    }
}

fn case_probe(comm: &RawComm) {
    if comm.rank() == 0 {
        for _ in 0..2 * MSGS {
            let s = comm.probe(ANY_SOURCE, ANY_TAG).unwrap();
            let (payload, status) = comm.recv(s.source, s.tag).unwrap();
            assert_eq!(status, s);
            assert_eq!(payload.len(), s.bytes);
        }
    } else {
        let tag = comm.rank() as kamping_mpi::Tag;
        for seq in 0..MSGS {
            comm.send(0, tag, &seq_payload(comm.rank(), seq)).unwrap();
        }
    }
}

fn case_collectives(comm: &RawComm) {
    comm.barrier().unwrap();
    // Broadcast from rank 1.
    let mut buf = if comm.rank() == 1 {
        b"root-data".to_vec()
    } else {
        vec![0; 9]
    };
    comm.bcast(&mut buf, 1).unwrap();
    assert_eq!(buf, b"root-data");
    // Allreduce a u64 sum.
    let mut acc = (comm.rank() as u64).to_le_bytes().to_vec();
    comm.allreduce(
        &mut acc,
        &|a: &mut [u8], b: &[u8]| {
            let x = u64::from_le_bytes(a.try_into().unwrap());
            let y = u64::from_le_bytes(b.try_into().unwrap());
            a.copy_from_slice(&(x + y).to_le_bytes());
        },
        8,
    )
    .unwrap();
    let n = comm.size() as u64;
    assert_eq!(u64::from_le_bytes(acc.try_into().unwrap()), n * (n - 1) / 2);
    // Allgather one byte per rank.
    let gathered = comm.allgather(&[comm.rank() as u8]).unwrap();
    assert_eq!(gathered, (0..comm.size() as u8).collect::<Vec<_>>());
    // Sendrecv ring rotation (payload > INLINE_CAP to cover heap frames).
    let right = (comm.rank() + 1) % comm.size();
    let left = (comm.rank() + comm.size() - 1) % comm.size();
    let (got, _) = comm
        .sendrecv(right, 0, &[comm.rank() as u8; 100], left, 0)
        .unwrap();
    assert_eq!(got, vec![left as u8; 100]);
    comm.barrier().unwrap();
}

fn case_ibarrier(comm: &RawComm) {
    if comm.rank() == 0 {
        let mut req = comm.ibarrier().unwrap();
        // Nobody else entered yet (they wait for our go signal).
        assert!(req.test().unwrap().is_none());
        for dest in 1..comm.size() {
            comm.send(dest, 0, b"go").unwrap();
        }
        req.wait().unwrap();
    } else {
        comm.recv(0, 0).unwrap();
        let mut req = comm.ibarrier().unwrap();
        req.wait().unwrap();
    }
    // Successive barriers stay independent across processes.
    for _ in 0..5 {
        let mut req = comm.ibarrier().unwrap();
        req.wait().unwrap();
    }
}

fn case_ibarrier_dead_member(comm: &RawComm) {
    if comm.rank() == 2 {
        comm.simulate_failure();
        return;
    }
    // A bounded wait, not a test_any spin: the remote Failed frame must
    // surface as a typed failure well before the deadline.
    let mut req = comm.ibarrier().unwrap();
    let err = req.wait_timeout(Duration::from_secs(30)).unwrap_err();
    assert!(err.is_failure(), "expected a failure, got {err:?}");
}

/// Byte-level u64 sum for the blocking reduction twins.
fn byte_sum(a: &mut [u8], b: &[u8]) {
    let x = u64::from_le_bytes(a.try_into().unwrap());
    let y = u64::from_le_bytes(b.try_into().unwrap());
    a.copy_from_slice(&(x + y).to_le_bytes());
}

/// The same sum as an owned operator for the nonblocking twins.
fn sum_op() -> kamping_mpi::OwnedByteOp {
    std::sync::Arc::new(byte_sum)
}

/// Tentpole acceptance: every i-collective must produce exactly the bytes
/// of its blocking twin, across the wire. Runs with 5 ranks so the
/// `ialltoall` small-block path exercises the Bruck schedule (p > 4).
fn case_icoll(comm: &RawComm) {
    let p = comm.size();
    let me = comm.rank();

    // ibcast vs bcast (root 1).
    let mut expect = if me == 1 {
        b"root-data".to_vec()
    } else {
        vec![0; 9]
    };
    comm.bcast(&mut expect, 1).unwrap();
    let input = if me == 1 {
        b"root-data".to_vec()
    } else {
        Vec::new()
    };
    let mut req = comm.ibcast(input, 1).unwrap();
    assert_eq!(req.wait().unwrap(), expect);

    // iallreduce vs allreduce (u64 sum).
    let mine = (me as u64 + 3).to_le_bytes().to_vec();
    let mut expect = mine.clone();
    comm.allreduce(&mut expect, &byte_sum, 8).unwrap();
    let mut req = comm.iallreduce(mine, sum_op(), 8).unwrap();
    assert_eq!(req.wait().unwrap(), expect);

    // ireduce vs reduce (root 2).
    let mine = (me as u64 * 7).to_le_bytes().to_vec();
    let mut expect = mine.clone();
    comm.reduce(&mut expect, &byte_sum, 8, 2).unwrap();
    let mut req = comm.ireduce(mine, sum_op(), 8, 2).unwrap();
    let out = req.wait().unwrap();
    if me == 2 {
        assert_eq!(out, expect);
    } else {
        assert!(out.is_empty());
    }

    // iallgatherv vs allgatherv (rank r contributes r+1 bytes).
    let mine = vec![me as u8; me + 1];
    let counts: Vec<usize> = (0..p).map(|r| r + 1).collect();
    let expect = comm.allgatherv(&mine, &counts).unwrap();
    let mut req = comm.iallgatherv(mine, &counts).unwrap();
    assert_eq!(req.wait().unwrap(), expect);

    // ialltoall vs alltoall (3-byte blocks: Bruck when p > 4).
    let send: Vec<u8> = (0..p).flat_map(|d| [(me * p + d) as u8; 3]).collect();
    let expect = comm.alltoall(&send).unwrap();
    let mut req = comm.ialltoall(send).unwrap();
    assert_eq!(req.wait().unwrap(), expect);

    // ialltoallv vs alltoallv (send (me + d) % 3 bytes to destination d).
    let sc: Vec<usize> = (0..p).map(|d| (me + d) % 3).collect();
    let sd = kamping_mpi::coll::excl_prefix_sum(&sc);
    let rc: Vec<usize> = (0..p).map(|s| (s + me) % 3).collect();
    let rd = kamping_mpi::coll::excl_prefix_sum(&rc);
    let send: Vec<u8> = (0..p)
        .flat_map(|d| vec![(me * 10 + d) as u8; (me + d) % 3])
        .collect();
    let expect = comm.alltoallv(&send, &sc, &sd, &rc, &rd).unwrap();
    let mut req = comm.ialltoallv(send, &sc, &sd, &rc, &rd).unwrap();
    assert_eq!(req.wait().unwrap(), expect);

    // Multiple outstanding collectives, waited in reverse issue order:
    // per-issue schedule tags keep the envelope streams apart.
    let mut r1 = comm
        .iallreduce((1u64).to_le_bytes().to_vec(), sum_op(), 8)
        .unwrap();
    let mut r2 = comm.iallgather(vec![me as u8]).unwrap();
    let mut r3 = comm.ibarrier().unwrap();
    r3.wait().unwrap();
    assert_eq!(r2.wait().unwrap(), (0..p as u8).collect::<Vec<_>>());
    assert_eq!(r1.wait().unwrap(), (p as u64).to_le_bytes());
}

/// Satellite: a severed 0→1 link starves rank 1's i-collectives, which
/// must surface as typed `Timeout`s — not hangs — while rank 0 (whose
/// inbound traffic is intact) completes normally.
fn case_icoll_sever(comm: &RawComm) {
    let counts = vec![1usize; 2];
    let displs = vec![0usize, 1];
    if comm.rank() == 1 {
        // The reduce partial flows 1→0 (alive); the bcast 0→1 is cut.
        let mut req = comm
            .iallreduce(5u64.to_le_bytes().to_vec(), sum_op(), 8)
            .unwrap();
        let err = req.wait_timeout(Duration::from_millis(500)).unwrap_err();
        assert!(err.is_timeout(), "expected Timeout, got {err:?}");
        // The alltoallv block from rank 0 never arrives.
        let mut req = comm
            .ialltoallv(vec![7, 8], &counts, &displs, &counts, &displs)
            .unwrap();
        let err = req.wait_timeout(Duration::from_millis(500)).unwrap_err();
        assert!(err.is_timeout(), "expected Timeout, got {err:?}");
        // Keep rank 0 alive until both timeouts are observed — its exit
        // would turn rank 1's starvation into ProcFailed. 1→0 is intact.
        comm.send(0, 99, b"done").unwrap();
    } else {
        let mut req = comm
            .iallreduce(2u64.to_le_bytes().to_vec(), sum_op(), 8)
            .unwrap();
        assert_eq!(req.wait().unwrap(), 7u64.to_le_bytes());
        let mut req = comm
            .ialltoallv(vec![3, 4], &counts, &displs, &counts, &displs)
            .unwrap();
        assert_eq!(req.wait().unwrap(), vec![3, 7]);
        comm.recv(1, 99).unwrap();
    }
}

/// Satellite: a chaos-killed rank mid-`ialltoallv` must surface as a typed
/// failure on every survivor (each directly awaits the dead rank's block).
fn case_icoll_kill(comm: &RawComm) {
    let p = comm.size();
    let counts = vec![1usize; p];
    let displs: Vec<usize> = (0..p).collect();
    if comm.rank() == 2 {
        // The first send passes the kill budget; the collective's own
        // sends trigger the death, so rank 2 dies mid-schedule.
        comm.send(0, 9, b"first").unwrap();
        let _ = comm.ialltoallv(vec![9; p], &counts, &displs, &counts, &displs);
        return;
    }
    if comm.rank() == 0 {
        let (payload, _) = comm.recv(2, 9).unwrap();
        assert_eq!(payload, b"first");
    }
    let mut req = comm
        .ialltoallv(
            vec![comm.rank() as u8; p],
            &counts,
            &displs,
            &counts,
            &displs,
        )
        .unwrap();
    let err = req.wait_timeout(Duration::from_secs(30)).unwrap_err();
    assert!(err.is_failure(), "expected a failure, got {err:?}");
}

/// Satellite: the kill seed against `iallreduce` — the survivor directly
/// awaits the dead rank's reduce partial and must get `ProcFailed`.
fn case_icoll_kill_reduce(comm: &RawComm) {
    if comm.rank() == 1 {
        comm.send(0, 9, b"first").unwrap();
        // The reduce partial send (1→0) triggers the death.
        let _ = comm.iallreduce(4u64.to_le_bytes().to_vec(), sum_op(), 8);
        return;
    }
    let (payload, _) = comm.recv(1, 9).unwrap();
    assert_eq!(payload, b"first");
    let mut req = comm
        .iallreduce(1u64.to_le_bytes().to_vec(), sum_op(), 8)
        .unwrap();
    let err = req.wait_timeout(Duration::from_secs(30)).unwrap_err();
    assert!(err.is_failure(), "expected a failure, got {err:?}");
}

/// Satellite: a severed link (chaos drops the data, no failure mark) must
/// surface as `Timeout` on the starved receiver — on the socket backend,
/// where the wait parks on the rank's own mailbox gate.
fn case_chaos_sever(comm: &RawComm) {
    if comm.rank() == 0 {
        comm.send(1, 3, b"vanishes").unwrap();
        // Reverse direction is unaffected by the directional cut.
        let (payload, _) = comm.recv(1, 4).unwrap();
        assert_eq!(payload, b"alive");
    } else {
        let err = comm
            .recv_timeout(0, 3, Duration::from_millis(500))
            .unwrap_err();
        assert!(err.is_timeout(), "expected Timeout, got {err:?}");
        comm.send(0, 4, b"alive").unwrap();
    }
}

/// Satellite: a chaos-injected rank death in *one* process must broadcast
/// the `Failed` control frame so every survivor gets `ProcFailed` — the
/// cross-process version of the shm chaos-kill test.
fn case_chaos_kill(comm: &RawComm) {
    if comm.rank() == 2 {
        // The first send passes the kill budget; the second triggers the
        // death (in this process's chaos layer) and is discarded.
        comm.send(0, 9, b"first").unwrap();
        comm.send(0, 9, b"second").unwrap();
        return;
    }
    if comm.rank() == 0 {
        let (payload, _) = comm.recv(2, 9).unwrap();
        assert_eq!(payload, b"first");
        let err = comm
            .recv_timeout(2, 9, Duration::from_secs(20))
            .unwrap_err();
        assert!(err.is_failure(), "expected ProcFailed, got {err:?}");
    }
    let mut req = comm.ibarrier().unwrap();
    let err = req.wait_timeout(Duration::from_secs(30)).unwrap_err();
    assert!(err.is_failure(), "expected a failure, got {err:?}");
}

/// The rooted collectives at p=32 across a mixed topology — two 16-rank
/// "hosts" joined by sockets, rings inside each — over the one binomial
/// tree, whose edges cross the ring/socket seam (0 → 16 when rooted at
/// 0). Broadcast / reduce / allreduce must produce the same bytes as the
/// linear oracle on the same communicator.
fn case_tree_collectives(comm: &RawComm) {
    let p = comm.size();
    let n = p as u64;
    // Broadcast 4 KiB from a root inside the first host.
    let pattern: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
    let seed = || {
        if comm.rank() == 5 {
            pattern.clone()
        } else {
            Vec::new()
        }
    };
    let mut buf = seed();
    comm.bcast(&mut buf, 5).unwrap();
    let mut want = seed();
    oracle::bcast(comm, &mut want, 5);
    assert_eq!(buf, want);
    assert_eq!(buf, pattern);
    // Allreduce against the oracle's reduce + bcast.
    let mine = (comm.rank() as u64).to_le_bytes().to_vec();
    let mut acc = mine.clone();
    comm.allreduce(&mut acc, &byte_sum, 8).unwrap();
    let mut flat = mine;
    oracle::reduce(comm, &mut flat, &byte_sum, 8, 0);
    oracle::bcast(comm, &mut flat, 0);
    assert_eq!(acc, flat);
    assert_eq!(u64::from_le_bytes(acc.try_into().unwrap()), n * (n - 1) / 2);
    // Reduce rooted in the *second* host, against the oracle's reduce.
    let mine = (comm.rank() as u64 + 1).to_le_bytes().to_vec();
    let mut acc = mine.clone();
    comm.reduce(&mut acc, &byte_sum, 8, p / 2).unwrap();
    let mut naive = mine;
    oracle::reduce(comm, &mut naive, &byte_sum, 8, p / 2);
    if comm.rank() == p / 2 {
        assert_eq!(acc, naive);
        assert_eq!(u64::from_le_bytes(acc.try_into().unwrap()), n * (n + 1) / 2);
    }
    comm.barrier().unwrap();
}

/// Chaos kills rank 16 — an interior node of the binomial tree over 32
/// ranks rooted at 0, with parent 0 and children 24, 20, 18 and 17 — as
/// it posts its reduced partial up to 0, mid allreduce. Every survivor
/// must surface a typed failure — not hang: rank 0 starves on the
/// partial, 16's subtree starves on the broadcast down from 16, and the
/// rest of the tree starves on the broadcast down from 0. The `Failed`
/// broadcast (plus peers' clean exits) must wake all of them.
fn case_interior_kill(comm: &RawComm) {
    let victim = comm.size() / 2;
    let mut acc = (comm.rank() as u64).to_le_bytes().to_vec();
    if comm.rank() == victim {
        // Every process counts the posts touching 16 that it makes. The
        // victim's post #1 passes (`kill=16@1`). In the allreduce it
        // posts nothing until its four children's partials have arrived
        // (each child's one post to 16 stays inside its own budget of
        // 1), then gives its partial to 0: post #2 fires the death.
        comm.send(0, 9, b"first").unwrap();
        let _ = comm.allreduce(&mut acc, &byte_sum, 8);
        return;
    }
    if comm.rank() == 0 {
        let (payload, _) = comm.recv(victim, 9).unwrap();
        assert_eq!(payload, b"first");
    }
    let err = comm.allreduce(&mut acc, &byte_sum, 8).unwrap_err();
    assert!(err.is_failure(), "expected a failure, got {err:?}");
}

/// Chaos severs the link `16 -> 17` before its first message
/// (`sever=16->17@0`). In the binomial tree over 32 ranks rooted at 0,
/// rank 17 is a leaf under 16; the allreduce's reduce leg runs 17 → 16,
/// so the only message on the cut link is the broadcast down. Rank 17
/// starves, every other rank completes; the peers' clean exits must
/// convert rank 17's starvation into a typed `ProcFailed`, not a hang.
fn case_bcast_sever(comm: &RawComm) {
    let p = comm.size();
    let mut acc = (comm.rank() as u64).to_le_bytes().to_vec();
    let n = p as u64;
    if comm.rank() == p / 2 + 1 {
        let err = comm.allreduce(&mut acc, &byte_sum, 8).unwrap_err();
        assert!(err.is_failure(), "expected ProcFailed, got {err:?}");
    } else {
        comm.allreduce(&mut acc, &byte_sum, 8).unwrap();
        assert_eq!(u64::from_le_bytes(acc.try_into().unwrap()), n * (n - 1) / 2);
    }
}

fn case_revoke(comm: &RawComm) {
    match comm.rank() {
        0 => {
            // Blocks forever unless the remote revocation frame wakes it.
            let err = comm.recv(1, 99).unwrap_err();
            assert_eq!(err, MpiError::Revoked);
        }
        1 => {
            comm.revoke();
            assert!(comm.is_revoked());
        }
        _ => {
            comm.await_revoked();
            assert_eq!(comm.send(0, 0, b"x").unwrap_err(), MpiError::Revoked);
        }
    }
}

/// Satellite: a rank killed without warning (no panic path, no Finished
/// frame) must surface as `ProcFailed` on the survivors via the rendezvous
/// monitor, and the ULFM shrink-and-continue recovery must work across
/// processes.
fn case_kill_recovery(comm: &RawComm) {
    if comm.rank() == 2 {
        // Die abruptly: no unwinding, no goodbye of any kind.
        std::process::exit(7);
    }
    let err = comm.recv(2, 9).unwrap_err();
    assert_eq!(err, MpiError::ProcFailed { rank: 2 });
    let shrunk = comm.shrink().unwrap();
    assert_eq!(shrunk.size(), comm.size() - 1);
    // The shrunk communicator is fully operational.
    let mut acc = (shrunk.rank() as u64).to_le_bytes().to_vec();
    shrunk
        .allreduce(
            &mut acc,
            &|a: &mut [u8], b: &[u8]| {
                let x = u64::from_le_bytes(a.try_into().unwrap());
                let y = u64::from_le_bytes(b.try_into().unwrap());
                a.copy_from_slice(&(x + y).to_le_bytes());
            },
            8,
        )
        .unwrap();
    let n = shrunk.size() as u64;
    assert_eq!(u64::from_le_bytes(acc.try_into().unwrap()), n * (n - 1) / 2);
}

/// Satellite: traffic run under `KAMPING_TRACE=<dir>` — the parent merges
/// the per-rank traces afterwards. Every rank both sends and receives so
/// every pid shows up in the merged Perfetto document.
fn case_traced_work(comm: &RawComm) {
    let right = (comm.rank() + 1) % comm.size();
    let left = (comm.rank() + comm.size() - 1) % comm.size();
    let (got, _) = comm
        .sendrecv(right, 4, &[comm.rank() as u8; 16], left, 4)
        .unwrap();
    assert_eq!(got, vec![left as u8; 16]);
    comm.barrier().unwrap();
    comm.allgather(&[comm.rank() as u8]).unwrap();
}

/// Satellite: an idle-but-connected pair exchanges heartbeat `Ping`
/// frames (every 500ms), and those must not move the data-plane
/// message/byte counters the LogGP cost model reads.
fn case_heartbeat_idle(comm: &RawComm) {
    // Establish data connections in both directions first.
    if comm.rank() == 0 {
        comm.send(1, 1, b"hi").unwrap();
        comm.recv(1, 2).unwrap();
    } else {
        comm.recv(0, 1).unwrap();
        comm.send(0, 2, b"yo").unwrap();
    }
    let me = comm.my_global_rank();
    let before = comm.profile().ranks[me].clone();
    // Longer than two heartbeat intervals: pings are flowing.
    std::thread::sleep(Duration::from_millis(1300));
    let after = comm.profile().ranks[me].clone();
    assert_eq!(
        before.messages_sent, after.messages_sent,
        "heartbeat pings must not count as data-plane messages"
    );
    assert_eq!(
        before.bytes_sent, after.bytes_sent,
        "heartbeat pings must not count as data-plane bytes"
    );
    comm.barrier().unwrap();
}

/// Runs `recv`, a blocking receive from `src` that will have to post its
/// destination, and creates the file `flag` once it has: the sender holds
/// its message back until the file is there ([`await_flag`]), so the
/// message finds the receive posted — by construction, not by timing. The
/// flag is a file because the watching thread has no communicator.
fn recv_posted<R>(
    comm: &RawComm,
    src: usize,
    flag: &std::path::Path,
    recv: impl FnOnce() -> R,
) -> R {
    let mailbox = comm.mailbox();
    std::thread::scope(|s| {
        s.spawn(move || {
            while !mailbox.posted_from(src) {
                std::thread::yield_now();
            }
            std::fs::write(flag, b"").expect("raising the posted flag");
        });
        recv()
    })
}

/// The sender's half of [`recv_posted`].
fn await_flag(flag: &std::path::Path) {
    while !flag.exists() {
        std::thread::yield_now();
    }
    std::fs::remove_file(flag).expect("clearing the posted flag");
}

/// The per-job scratch directory the parent test provides.
fn scratch() -> std::path::PathBuf {
    std::env::var("KAMPING_TEST_SCRATCH")
        .expect("parent provides a scratch directory")
        .into()
}

/// [`recv_posted`] where receives post at all; in-process nothing is ever
/// posted and the sender does not wait.
fn recv_maybe_posted<R>(comm: &RawComm, src: usize, recv: impl FnOnce() -> R) -> R {
    if in_process() {
        return recv();
    }
    recv_posted(comm, src, &scratch().join(format!("posted-{src}")), recv)
}

/// The sender's half of [`recv_maybe_posted`].
fn await_posted_flag(comm: &RawComm) {
    if !in_process() {
        await_flag(&scratch().join(format!("posted-{}", comm.rank())));
    }
}

/// Satellite (copy budget): large typed messages to a receiver that has
/// its receive posted (and, second budget, to one that receives late),
/// with the user-space copies and the payload-sized allocations of both
/// processes counted by the library itself (`payload_bytes_copied`,
/// `payload_allocs`; needs `KAMPING_METRICS`). Copies per message = bytes
/// copied / bytes sent; the parent test names the exact pairs this backend
/// must hit in `KAMPING_TEST_BUDGET` ("copies,allocs" posted, then
/// unexpected).
fn case_large_copy_budget(comm: &RawComm) {
    use kamping::prelude::*;
    use kamping_mpi::metrics::Counter;
    const SIZES: [usize; 3] = [64 << 10, 256 << 10, 1 << 20];
    const REPS: usize = 4;
    const WORD: usize = std::mem::size_of::<u64>();
    let budget = std::env::var("KAMPING_TEST_BUDGET").expect("parent names the budget");
    let budget: Vec<u64> = budget.split(',').map(|n| n.parse().unwrap()).collect();
    let flag = scratch().join("posted");

    let typed = kamping::Communicator::new(comm.clone());
    let pattern = |bytes: usize, rep: usize| -> Vec<u64> {
        (0..bytes / WORD)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rep as u64)
            .collect()
    };
    let moved = |m: &kamping_mpi::metrics::MetricsSnapshot| {
        [
            m.counter(Counter::PayloadBytesCopied),
            m.counter(Counter::PayloadAllocs),
        ]
    };
    let sent: u64 = SIZES.iter().map(|&b| (b * REPS) as u64).sum();
    let msgs = (SIZES.len() * REPS) as u64;
    // Every phase is counted from the snapshot that closed the one before
    // it: taken before this rank reports, so before the sender moves on —
    // and the receiver stays until the sender has taken its own, or the
    // stats block it sends at teardown (larger than inline) is counted there.
    let mut before = moved(&comm.metrics());
    for (posted, want) in [(true, &budget[..2]), (false, &budget[2..])] {
        for bytes in SIZES {
            for rep in 0..REPS {
                if comm.rank() == 0 {
                    if posted {
                        await_flag(&flag);
                    }
                    let msg = pattern(bytes, rep);
                    let to = typed.send(send_buf(&msg), destination(1));
                    to.tag(2).call().unwrap();
                    // Behind the message on the same channel: when it is
                    // there, so is the whole message.
                    comm.send(1, 1, b"").unwrap();
                } else {
                    let recv = || typed.recv::<u64>(source(0)).tag(2).call().unwrap();
                    let (got, status) = if posted {
                        let got = recv_posted(comm, 0, &flag, recv);
                        comm.recv(0, 1).unwrap();
                        got
                    } else {
                        comm.recv(0, 1).unwrap();
                        recv()
                    };
                    assert_eq!(status.bytes, bytes);
                    assert!(got == pattern(bytes, rep), "{bytes}-byte message corrupted");
                }
            }
        }
        let after = moved(&comm.metrics());
        let mine = [after[0] - before[0], after[1] - before[1]];
        before = after;
        if comm.rank() == 1 {
            let wire: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
            comm.send(0, 3, &wire).unwrap();
            comm.recv(0, 3).unwrap();
            continue;
        }
        let (theirs, _) = comm.recv(1, 3).unwrap();
        comm.send(1, 3, b"").unwrap();
        let theirs = |i: usize| u64::from_le_bytes(theirs[i * 8..i * 8 + 8].try_into().unwrap());
        assert_eq!(
            (mine[0] + theirs(0), mine[1] + theirs(1)),
            (want[0] * sent, want[1] * msgs),
            "(bytes copied, allocations) over {msgs} messages of {sent} bytes, \
             receive posted: {posted}; expected {} copies and {} allocations per message",
            want[0],
            want[1]
        );
    }
}

// ---------------------------------------------------------------------
// The posted path: a blocking receive hands the transport its buffer.
// ---------------------------------------------------------------------

/// True on the shm-xproc rings, where a test can write (part of) a frame
/// into the peer's inbox by hand.
fn on_rings() -> bool {
    std::env::var("KAMPING_TRANSPORT").as_deref() == Ok("shm-xproc")
}

/// True when all ranks are threads of this process: nothing is ever posted.
fn in_process() -> bool {
    std::env::var("KAMPING_TRANSPORT").is_err()
}

/// Deterministic content of message `id`: its id, then a counter pattern.
fn body(id: u64, len: usize) -> Vec<u8> {
    let word = |i: usize| (id ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes();
    (0..len.div_ceil(8)).flat_map(word).take(len).collect()
}

/// A second producer handle on rank `dest`'s inbox ring from this rank —
/// for writing a frame in two halves. Only safe to use while this rank's
/// transport is not sending to `dest` itself.
fn raw_ring(comm: &RawComm, dest: usize) -> kamping_mpi::net::ring::RingTx {
    use kamping_mpi::net::ring::{RingTx, DEFAULT_RING_BYTES};
    let dir = std::env::var("KAMPING_SHM_DIR").expect("ring jobs know their directory");
    RingTx::open(
        dir.as_ref(),
        dest,
        comm.rank(),
        comm.size(),
        DEFAULT_RING_BYTES,
    )
    .expect("opening the peer's inbox")
}

/// The bytes of the data frame `comm.send(dest, tag, payload)` would put
/// on the wire from this rank (world communicator: context 0).
fn frame_bytes(comm: &RawComm, tag: u32, payload: &[u8]) -> Vec<u8> {
    let frame = kamping_mpi::net::wire::Frame::Data {
        src: comm.rank(),
        tag,
        ctx: 0,
        ack_id: 0,
        payload: payload.to_vec(),
    };
    let body = frame.encode();
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    bytes
}

/// Satellite (ordering): one source, three tags, every size class around
/// the inline cap, the frame header and the ring size — sent in one seeded
/// order, received in another through every kind of receive (posted into a
/// buffer, plain, `ANY_SOURCE`, `ANY_TAG`, probe-then-receive), two of them
/// synchronous-mode. What each receive returns is fixed by MPI's matching
/// rules alone, so rank 0's transcript must be the in-process one the
/// parent wrote to `order.txt` (which the in-process run itself writes).
fn case_posted_order(comm: &RawComm, reference: &std::path::Path) {
    const SIZES: [usize; 8] = [
        0,
        8,
        32,
        33,
        4 << 10,
        (256 << 10) - 45,
        256 << 10,
        (1 << 20) + 1,
    ];
    const TAGS: [u32; 3] = [10, 11, 12];
    const MSGS: usize = 36;
    let mut rng = 0x5eed_u64;
    let mut draw = |n: usize| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize % n
    };
    // (tag, size) of message `id`, in send order.
    let script: Vec<(u32, usize)> = (0..MSGS).map(|_| (TAGS[draw(3)], SIZES[draw(8)])).collect();

    if comm.rank() == 1 {
        let mut pending = Vec::new();
        for (id, &(tag, len)) in script.iter().enumerate() {
            let payload = body(id as u64, len);
            match id {
                // Matched only when rank 0 says so: the ack is for the
                // match, not for the arrival of the bytes.
                5 => {
                    let mut req = comm.issend(0, 20, payload).unwrap();
                    comm.recv(0, 21).unwrap();
                    assert!(
                        req.test().unwrap().is_none(),
                        "acknowledged before its match"
                    );
                    comm.send(0, 22, b"").unwrap();
                    req.wait().unwrap();
                }
                17 | 29 => pending.push(comm.issend(0, tag, payload).unwrap()),
                _ => comm.send(0, tag, &payload).unwrap(),
            }
        }
        for mut req in pending {
            req.wait().unwrap();
        }
        return;
    }

    // Rank 0: receive everything, choosing among the receives that some
    // outstanding message can satisfy.
    let mut left: Vec<Vec<usize>> = TAGS
        .iter()
        .map(|&t| {
            (0..MSGS)
                .filter(|&id| id != 5 && script[id].0 == t)
                .collect()
        })
        .collect();
    let mut transcript = String::new();
    let mut note = |how: &str, tag: u32, bytes: &[u8]| {
        let id = if bytes.len() >= 8 {
            u64::from_le_bytes(bytes[..8].try_into().unwrap()) as i64
        } else {
            -1
        };
        if id >= 0 {
            assert!(bytes == body(id as u64, bytes.len()), "message {id} torn");
        }
        transcript.push_str(&format!("{how} tag {tag} len {} id {id}\n", bytes.len()));
    };
    let mut sink: Vec<u8> = Vec::new();
    let mut synced = false;
    while left.iter().any(|q| !q.is_empty()) {
        // Until message 5 is matched, rank 1 has sent nothing behind it.
        let sent = |c: usize| left[c].first().is_some_and(|&id| synced || id < 5);
        if !(0..3).any(sent) {
            // The explicitly synchronised issend: everything sent before
            // it has been received.
            comm.send(1, 21, b"").unwrap();
            comm.recv(1, 22).unwrap();
            let st = comm.recv_into(1, 20, &mut sink).unwrap();
            note("sync", st.tag, &sink);
            synced = true;
            continue;
        }
        let class = loop {
            let c = draw(3);
            if sent(c) {
                break c;
            }
        };
        // The oldest outstanding message over all tags: what a receive
        // with `ANY_TAG` has to return (message 5, on a tag of its own, is
        // younger than anything receivable before the sync).
        let oldest = (0..3)
            .filter(|&c| !left[c].is_empty())
            .min_by_key(|&c| left[c][0])
            .unwrap();
        let (how, class) = match draw(5) {
            0 => ("into", class),
            1 => ("plain", class),
            2 => ("any-source", class),
            3 => ("any-tag", oldest),
            _ => ("probe", oldest),
        };
        let tag = TAGS[class];
        match how {
            "into" => {
                let st = comm.recv_into(1, tag, &mut sink).unwrap();
                assert_eq!((st.source, st.tag, st.bytes), (1, tag, sink.len()));
                note(how, st.tag, &sink);
            }
            "plain" => {
                let (bytes, st) = comm.recv(1, tag).unwrap();
                note(how, st.tag, &bytes);
            }
            "any-source" => {
                let (bytes, st) = comm.recv(ANY_SOURCE, tag).unwrap();
                assert_eq!(st.source, 1);
                note(how, st.tag, &bytes);
            }
            "any-tag" => {
                let (bytes, st) = comm.recv(1, ANY_TAG).unwrap();
                assert_eq!(st.tag, tag, "ANY_TAG must take the oldest message");
                note(how, st.tag, &bytes);
            }
            _ => {
                let seen = comm.probe(1, ANY_TAG).unwrap();
                assert_eq!(seen.tag, tag, "probe must see the oldest message");
                let st = comm.recv_into(seen.source, seen.tag, &mut sink).unwrap();
                assert_eq!(st, seen);
                note(how, st.tag, &sink);
            }
        }
        left[class].remove(0);
    }
    if in_process() {
        std::fs::write(reference, transcript).expect("writing the reference transcript");
    } else {
        let want = std::fs::read_to_string(reference).expect("reference transcript");
        assert!(
            transcript == want,
            "transcript differs from the in-process one:\n{transcript}"
        );
    }
}

/// Satellite (timeout): a receive into a buffer times out while its
/// message is half on the wire (on the rings, where the test can write the
/// frame in two halves; elsewhere the message is simply late). The message
/// must then arrive intact for a plain receive, and the lane must take the
/// next posted receive — no stuck slot, no torn bytes.
fn case_posted_timeout(comm: &RawComm) {
    const LEN: usize = 1 << 20;
    if comm.rank() == 1 {
        let wire = frame_bytes(comm, 5, &body(1, LEN));
        let cut = wire.len() / 3;
        if on_rings() {
            let ring = raw_ring(comm, 0);
            await_posted_flag(comm);
            assert!(ring.write(&[&wire[..cut]], || false, |_| ()));
            comm.recv(0, 6).unwrap();
            assert!(ring.write(&[&wire[cut..]], || false, |_| ()));
        } else {
            comm.recv(0, 6).unwrap();
            comm.send(0, 5, &body(1, LEN)).unwrap();
        }
        await_posted_flag(comm);
        comm.send(0, 7, &body(2, LEN)).unwrap();
        return;
    }
    let mut sink = vec![0xaa_u8; 16];
    let short = Duration::from_millis(200);
    let timed_out = |sink: &mut Vec<u8>| comm.recv_into_timeout(1, 5, sink, short).unwrap_err();
    let err = if on_rings() {
        recv_maybe_posted(comm, 1, || timed_out(&mut sink))
    } else {
        timed_out(&mut sink)
    };
    assert!(err.is_timeout(), "expected Timeout, got {err:?}");
    // The buffer is back untouched, or stayed with the transport.
    assert!(
        sink == [0xaa; 16] || sink.is_empty(),
        "torn bytes surfaced: {sink:?}"
    );
    comm.send(1, 6, b"timed out").unwrap();
    let (late, st) = comm.recv(1, 5).unwrap();
    assert_eq!(st.bytes, LEN);
    assert!(late == body(1, LEN), "late message corrupted");
    assert!(!comm.mailbox().posted_from(1), "the lane is still taken");
    // The lane is free again: the next receive posts and is filled.
    let st = recv_maybe_posted(comm, 1, || comm.recv_into(1, 7, &mut sink).unwrap());
    assert_eq!(st.bytes, LEN);
    assert!(sink == body(2, LEN), "message after the timeout corrupted");
}

/// Satellite (sender death): rank 1 dies with a 1 MiB frame half on the
/// wire — by hand on the rings; on sockets by exiting right behind a send
/// too large for the socket buffers. Rank 0's receive must end in
/// `ProcFailed` (or, on sockets, with the whole message if the kernel got
/// it all): never with torn bytes. Receiving from the live rank 2 still
/// works, posted.
fn case_posted_sender_dies(comm: &RawComm) {
    const LEN: usize = 1 << 20;
    match comm.rank() {
        // In-process a message is there whole or not at all.
        1 if in_process() => comm.simulate_failure(),
        1 if on_rings() => {
            let wire = frame_bytes(comm, 5, &body(1, LEN));
            let ring = raw_ring(comm, 0);
            await_posted_flag(comm);
            assert!(ring.write(&[&wire[..wire.len() / 2]], || false, |_| ()));
            std::process::exit(7);
        }
        1 => {
            await_posted_flag(comm);
            comm.send(0, 5, &body(1, 16 * LEN)).unwrap();
            std::process::exit(7);
        }
        2 => {
            await_posted_flag(comm);
            comm.send(0, 5, &body(2, LEN)).unwrap();
        }
        _ => {
            let mut sink = vec![0xaa_u8; 16];
            match recv_maybe_posted(comm, 1, || comm.recv_into(1, 5, &mut sink)) {
                Err(e) => {
                    assert_eq!(e, MpiError::ProcFailed { rank: 1 });
                    assert!(sink == [0xaa; 16] || sink.is_empty(), "torn bytes surfaced");
                }
                Ok(st) => {
                    assert!(!on_rings(), "half a frame cannot complete");
                    assert!(st.bytes == 16 * LEN && sink == body(1, 16 * LEN));
                }
            }
            let st = recv_maybe_posted(comm, 2, || comm.recv_into(2, 5, &mut sink)).unwrap();
            assert_eq!(st.bytes, LEN);
            assert!(sink == body(2, LEN), "message from the live rank corrupted");
        }
    }
    // The survivors leave together, both knowing who died.
    if comm.rank() == 2 {
        assert_eq!(
            comm.recv(1, 9).unwrap_err(),
            MpiError::ProcFailed { rank: 1 }
        );
    }
    if comm.rank() != 1 {
        comm.shrink().unwrap().barrier().unwrap();
    }
}

/// Satellite (eager guarantee): both ranks send 1 MiB to each other before
/// either receives. Nobody is receiving, so nothing is posted and no rank
/// thread drains: the sends complete only because the transport's own
/// threads keep taking payloads off the wire.
fn case_posted_cross_send(comm: &RawComm) {
    const LEN: usize = 1 << 20;
    let peer = 1 - comm.rank();
    for round in 0..4u64 {
        comm.send(peer, 5, &body(round * 2 + comm.rank() as u64, LEN))
            .unwrap();
        let mut sink = Vec::new();
        let st = comm.recv_into(peer, 5, &mut sink).unwrap();
        assert_eq!(st.bytes, LEN);
        assert!(
            sink == body(round * 2 + peer as u64, LEN),
            "round {round} corrupted"
        );
    }
}

/// Satellite (corrupt stream): garbage where a frame should start must
/// surface as the typed death of its source — on a ring there is no
/// connection to drop, and a skipped length prefix desynchronises the
/// stream for good. Frames before the garbage are delivered.
fn case_corrupt_ring(comm: &RawComm) {
    if comm.rank() == 1 {
        comm.send(0, 5, b"fine").unwrap();
        comm.recv(0, 6).unwrap();
        // A length prefix beyond the frame cap, then noise.
        let ring = raw_ring(comm, 0);
        assert!(ring.write(&[&u32::MAX.to_le_bytes(), &[0x5a; 64]], || false, |_| ()));
        // Stay alive: the verdict must come from the stream, not from the
        // rendezvous monitor noticing an exit.
        comm.recv(0, 7).unwrap_err();
        return;
    }
    assert_eq!(comm.recv(1, 5).unwrap().0, b"fine");
    comm.send(1, 6, b"go on").unwrap();
    let err = comm.recv(1, 5).unwrap_err();
    assert_eq!(err, MpiError::ProcFailed { rank: 1 });
}

/// Acceptance check of the progress-engine rewrite: the number of OS
/// threads per rank must be *independent of job size* (the old design
/// spent a reader + writer thread pair per peer). Every rank exchanges a
/// message with every other rank first, so all connections/rings exist
/// and every transport thread that will ever run is running; then each
/// rank counts its own threads and rank 0 reports the job-wide maximum.
fn case_thread_count(comm: &RawComm) {
    for peer in 0..comm.size() {
        if peer != comm.rank() {
            comm.send(peer, 1, b"x").unwrap();
        }
    }
    for peer in 0..comm.size() {
        if peer != comm.rank() {
            comm.recv(peer, 1).unwrap();
        }
    }
    comm.barrier().unwrap();
    let threads = std::fs::read_dir("/proc/self/task")
        .expect("procfs thread listing")
        .count() as u8;
    let all = comm.allgather(&[threads]).unwrap();
    if comm.rank() == 0 {
        let path = std::env::var("KAMPING_THREADS_OUT").expect("parent provides output path");
        let max = all.iter().copied().max().unwrap();
        std::fs::write(path, max.to_string()).expect("writing thread count");
    }
    comm.barrier().unwrap();
}

/// Satellite: the end-of-run profile exchange — the snapshot a process
/// gets back covers *every* rank's counters, not just its own (remote
/// rows used to read all-zero on the socket backend).
fn profile_gather_entry() {
    let ranks: usize = std::env::var("KAMPING_RANKS")
        .expect("socket env")
        .parse()
        .expect("integer rank count");
    let (_, profile) = Universe::run_profiled(1, |comm| {
        comm.barrier().unwrap();
        let gathered = comm.allgather(&[comm.rank() as u8]).unwrap();
        assert_eq!(gathered.len(), comm.size());
    });
    if std::env::var("KAMPING_CHAOS").is_ok() {
        // Under a chaos schedule the end-of-run exchange is skipped by
        // design (a lossy transport could stall it), so only the local
        // row is live — nothing cross-rank to assert.
        return;
    }
    use kamping_mpi::profile::Op;
    for r in 0..ranks {
        assert_eq!(
            profile.ranks[r].calls(Op::Barrier),
            1,
            "rank {r}'s barrier call missing from the gathered profile"
        );
        assert_eq!(profile.ranks[r].calls(Op::Allgather), 1);
        assert!(
            profile.ranks[r].messages_sent > 0,
            "rank {r}'s transport counters missing from the gathered profile"
        );
    }
}

/// The child-side entry point: a no-op under a plain `cargo test`, the
/// rank body when launched by one of the `socket_*` tests below.
#[test]
fn worker_entry() {
    let Ok(case) = std::env::var(CASE_VAR) else {
        return;
    };
    // A deadlocked child must not hang CI: die loudly instead. (This is a
    // watchdog, not synchronization — it never fires on the happy path.)
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(120));
        eprintln!("worker_entry: watchdog fired, aborting rank");
        std::process::exit(86);
    });
    if case == "profile_gather" {
        profile_gather_entry();
        return;
    }
    // Size argument is ignored under KAMPING_TRANSPORT=socket — the
    // launcher's --ranks is authoritative, as with mpirun -n.
    Universe::run(1, |comm| match case.as_str() {
        "fifo" => case_fifo(&comm),
        "fifo_tags" => case_fifo_tags(&comm),
        "any_source" => case_any_source(&comm),
        "wildcard_drain" => case_wildcard_drain(&comm),
        "issend" => case_issend(&comm),
        "issend_failed_rank" => case_issend_failed_rank(&comm),
        "probe" => case_probe(&comm),
        "collectives" => case_collectives(&comm),
        "ibarrier" => case_ibarrier(&comm),
        "ibarrier_dead_member" => case_ibarrier_dead_member(&comm),
        "icoll" => case_icoll(&comm),
        "icoll_sever" => case_icoll_sever(&comm),
        "icoll_kill" => case_icoll_kill(&comm),
        "icoll_kill_reduce" => case_icoll_kill_reduce(&comm),
        "chaos_sever" => case_chaos_sever(&comm),
        "chaos_kill" => case_chaos_kill(&comm),
        "tree_collectives" => case_tree_collectives(&comm),
        "interior_kill" => case_interior_kill(&comm),
        "bcast_sever" => case_bcast_sever(&comm),
        "revoke" => case_revoke(&comm),
        "kill_recovery" => case_kill_recovery(&comm),
        "traced_work" => case_traced_work(&comm),
        "heartbeat_idle" => case_heartbeat_idle(&comm),
        "thread_count" => case_thread_count(&comm),
        "large_copy_budget" => case_large_copy_budget(&comm),
        "posted_order" => case_posted_order(&comm, &scratch().join("order.txt")),
        "posted_timeout" => case_posted_timeout(&comm),
        "posted_sender_dies" => case_posted_sender_dies(&comm),
        "posted_cross_send" => case_posted_cross_send(&comm),
        "corrupt_ring" => case_corrupt_ring(&comm),
        other => panic!("unknown case {other:?}"),
    });
}

// ---------------------------------------------------------------------
// The parent-side tests.
// ---------------------------------------------------------------------

#[test]
fn socket_fifo_per_source_and_tag() {
    assert_all_success("fifo", &run_job("fifo", 4, false));
}

#[test]
fn socket_fifo_holds_per_tag_out_of_order_drain() {
    assert_all_success("fifo_tags", &run_job("fifo_tags", 2, false));
}

#[test]
fn socket_any_source_follows_arrival_stamps() {
    assert_all_success("any_source", &run_job("any_source", 4, false));
}

#[test]
fn socket_wildcard_drain_keeps_per_source_fifo() {
    assert_all_success("wildcard_drain", &run_job("wildcard_drain", 4, false));
}

#[test]
fn socket_issend_completes_only_on_match() {
    assert_all_success("issend", &run_job("issend", 2, false));
}

#[test]
fn socket_issend_to_failing_rank_errors() {
    assert_all_success(
        "issend_failed_rank",
        &run_job("issend_failed_rank", 2, false),
    );
}

#[test]
fn socket_probe_and_recv_agree() {
    assert_all_success("probe", &run_job("probe", 3, false));
}

#[test]
fn socket_collectives_end_to_end() {
    assert_all_success("collectives", &run_job("collectives", 4, false));
}

#[test]
fn socket_collectives_over_tcp() {
    assert_all_success("collectives", &run_job("collectives", 3, true));
}

#[test]
fn socket_ibarrier_completes_after_all_enter() {
    assert_all_success("ibarrier", &run_job("ibarrier", 3, false));
}

#[test]
fn socket_ibarrier_detects_dead_member() {
    assert_all_success(
        "ibarrier_dead_member",
        &run_job("ibarrier_dead_member", 3, false),
    );
}

#[test]
fn socket_icoll_matches_blocking_twins() {
    assert_all_success("icoll", &run_job("icoll", 5, false));
}

#[test]
fn socket_icoll_survives_delay_chaos() {
    // Delay chaos is semantics-preserving, so the full equivalence sweep
    // must pass unchanged under it.
    assert_all_success(
        "icoll",
        &run_job_chaos("icoll", 5, false, Some("5:delay=20@2")),
    );
}

#[test]
fn socket_icoll_severed_link_times_out() {
    assert_all_success(
        "icoll_sever",
        &run_job_chaos("icoll_sever", 2, false, Some("11:sever=0->1@0")),
    );
}

#[test]
fn socket_icoll_killed_rank_fails_alltoallv() {
    assert_all_success(
        "icoll_kill",
        &run_job_chaos("icoll_kill", 3, false, Some("13:kill=2@1")),
    );
}

#[test]
fn socket_icoll_killed_rank_fails_iallreduce() {
    assert_all_success(
        "icoll_kill_reduce",
        &run_job_chaos("icoll_kill_reduce", 2, false, Some("13:kill=1@1")),
    );
}

#[test]
fn socket_chaos_severed_link_times_out() {
    assert_all_success(
        "chaos_sever",
        &run_job_chaos("chaos_sever", 2, false, Some("11:sever=0->1@0")),
    );
}

#[test]
fn socket_chaos_kill_broadcasts_proc_failed() {
    assert_all_success(
        "chaos_kill",
        &run_job_chaos("chaos_kill", 3, false, Some("7:kill=2@1")),
    );
}

#[test]
fn socket_collectives_survive_delay_chaos() {
    // Delay chaos is semantics-preserving (per-channel FIFO), so the full
    // collectives case must pass unchanged under it — the property the CI
    // chaos-soak job's delay-seeded socket runs lean on.
    assert_all_success(
        "collectives",
        &run_job_chaos("collectives", 3, false, Some("3:delay=30@2")),
    );
}

#[test]
fn socket_revoke_interrupts_blocked_peers() {
    assert_all_success("revoke", &run_job("revoke", 3, false));
}

#[test]
fn socket_trace_merges_time_sorted_across_processes() {
    const RANKS: usize = 3;
    let dir = std::env::temp_dir().join(format!("kamping-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating trace dir");
    let exits = run_job_env(
        "traced_work",
        RANKS,
        false,
        Some(("KAMPING_TRACE", dir.display().to_string())),
    );
    assert_all_success("traced_work", &exits);

    for r in 0..RANKS {
        assert!(
            dir.join(format!("trace-rank{r}.jsonl")).exists(),
            "rank {r} must write its per-process trace"
        );
    }
    let out = dir.join("merged.json");
    let report = kamping_mpi::trace::merge_trace_dir(&dir, &out).expect("merging traces");
    assert!(report.events > 0, "merged trace must contain events");
    assert_eq!(
        report.total_dropped(),
        0,
        "this tiny job must not overflow any rank's ring: {:?}",
        report.dropped
    );
    let doc = std::fs::read_to_string(&out).expect("reading merged trace");
    assert!(doc.starts_with("{\"displayTimeUnit\""));

    // Merged events are globally time-sorted and every rank contributed.
    let mut last = f64::NEG_INFINITY;
    let mut events = 0usize;
    for line in doc.lines() {
        // The dropped-events metadata record also carries a "ts" key but is
        // not one of the merged events.
        if line.contains("\"ph\":\"M\"") {
            continue;
        }
        let Some(at) = line.find("\"ts\":") else {
            continue;
        };
        let rest = &line[at + 5..];
        let end = rest
            .find(|c: char| c != '.' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let ts: f64 = rest[..end].parse().expect("numeric ts");
        assert!(ts >= last, "merged trace out of order: {ts} after {last}");
        last = ts;
        events += 1;
    }
    assert_eq!(events, report.events);
    for r in 0..RANKS {
        assert!(
            doc.contains(&format!("\"src\":{r}")),
            "rank {r} posted no traced envelopes"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn socket_profile_snapshot_covers_remote_ranks() {
    assert_all_success("profile_gather", &run_job("profile_gather", 4, false));
}

#[test]
fn socket_heartbeats_stay_out_of_message_counters() {
    assert_all_success("heartbeat_idle", &run_job("heartbeat_idle", 2, false));
}

/// A fresh scratch directory for the children of one job.
fn scratch_dir(case: &str, backend: Backend) -> (&'static str, String) {
    let dir = std::env::temp_dir().join(format!(
        "kamping-test-{}-{case}-{backend:?}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    ("KAMPING_TEST_SCRATCH", dir.to_string_lossy().into_owned())
}

/// Runs the copy-budget case with metrics on and the backend's exact
/// (copies, allocations) per large message, posted then unexpected, as the
/// budget.
fn copy_budget(backend: Backend, budget: &str) {
    let scratch = scratch_dir("copy-budget", backend);
    // The budget is the bare backend's. A chaos schedule this suite may run
    // under wraps the backend in a layer without a borrowed send (a delayed
    // message must own its payload), so blank it: blank means unset.
    let env = [
        ("KAMPING_METRICS", "1".to_string()),
        ("KAMPING_TEST_BUDGET", budget.to_string()),
        ("KAMPING_CHAOS", String::new()),
        scratch.clone(),
    ];
    let exits = run_job_full("large_copy_budget", 2, false, backend, &env);
    let _ = std::fs::remove_dir_all(scratch.1);
    assert_all_success("large_copy_budget", &exits);
}

#[test]
fn socket_large_copy_budget() {
    // Posted: slice -> the queued payload (its allocation), [kernel],
    // socket -> the `Vec<T>` the caller gets (its allocation). Unexpected:
    // the socket fills an exact-size buffer first, copied once more.
    copy_budget(Backend::Socket, "2,2,3,3");
}

/// Runs a posted-path case over `backend` with a scratch directory for its
/// flag files; `posted_order` first runs in-process, which writes the
/// transcript the cross-process run must reproduce.
fn posted_case(case: &str, ranks: usize, backend: Backend) -> Vec<RankExit> {
    let scratch = scratch_dir(case, backend);
    if case == "posted_order" {
        let reference = std::path::Path::new(&scratch.1).join("order.txt");
        Universe::run(ranks, |comm| case_posted_order(&comm, &reference));
    }
    let exits = run_job_full(case, ranks, false, backend, std::slice::from_ref(&scratch));
    let _ = std::fs::remove_dir_all(scratch.1);
    exits
}

/// The sender-death case: rank 1 exits with 7, everybody else cleanly.
fn assert_only_rank_1_died(exits: &[RankExit]) {
    for e in exits {
        match e.rank {
            1 => assert_eq!(e.status.code(), Some(7), "rank 1 dies by its own hand"),
            _ => assert!(
                e.status.success(),
                "rank {} exited with {}",
                e.rank,
                e.status
            ),
        }
    }
}

#[test]
fn shm_posted_cases_hold_in_process() {
    // The same scripts with every rank a thread: nothing is posted, and
    // the results are what the cross-process runs are compared against.
    let dir = scratch_dir("posted-shm", Backend::Socket).1;
    let reference = std::path::Path::new(&dir).join("order.txt");
    Universe::run(2, |comm| case_posted_order(&comm, &reference));
    let _ = std::fs::remove_dir_all(dir);
    Universe::run(2, |comm| case_posted_timeout(&comm));
    Universe::run(3, |comm| case_posted_sender_dies(&comm));
    Universe::run(2, |comm| case_posted_cross_send(&comm));
}

#[test]
fn socket_posted_receives_keep_mpi_order() {
    let exits = posted_case("posted_order", 2, Backend::Socket);
    assert_all_success("posted_order", &exits);
}

#[test]
fn socket_posted_receive_times_out_and_leaves_the_message_whole() {
    let exits = posted_case("posted_timeout", 2, Backend::Socket);
    assert_all_success("posted_timeout", &exits);
}

#[test]
fn socket_posted_receive_survives_its_sender_dying_mid_frame() {
    assert_only_rank_1_died(&posted_case("posted_sender_dies", 3, Backend::Socket));
}

#[test]
fn socket_cross_sends_complete_before_either_side_receives() {
    let exits = posted_case("posted_cross_send", 2, Backend::Socket);
    assert_all_success("posted_cross_send", &exits);
}

#[test]
fn socket_killed_rank_surfaces_and_survivors_recover() {
    let exits = run_job("kill_recovery", 4, false);
    for e in &exits {
        if e.rank == 2 {
            assert_eq!(
                e.status.code(),
                Some(7),
                "killed rank must report its own exit code"
            );
        } else {
            assert!(
                e.status.success(),
                "survivor rank {} exited with {}",
                e.rank,
                e.status
            );
        }
    }
}

// ---------------------------------------------------------------------
// The same invariants over shm-xproc rings.
// ---------------------------------------------------------------------

#[test]
fn ring_fifo_per_source_and_tag() {
    assert_all_success("fifo", &run_ring_job("fifo", 4));
}

#[test]
fn ring_fifo_holds_per_tag_out_of_order_drain() {
    assert_all_success("fifo_tags", &run_ring_job("fifo_tags", 2));
}

#[test]
fn ring_any_source_follows_arrival_stamps() {
    assert_all_success("any_source", &run_ring_job("any_source", 4));
}

#[test]
fn ring_wildcard_drain_keeps_per_source_fifo() {
    assert_all_success("wildcard_drain", &run_ring_job("wildcard_drain", 4));
}

#[test]
fn ring_issend_completes_only_on_match() {
    assert_all_success("issend", &run_ring_job("issend", 2));
}

#[test]
fn ring_issend_to_failing_rank_errors() {
    assert_all_success("issend_failed_rank", &run_ring_job("issend_failed_rank", 2));
}

#[test]
fn ring_probe_and_recv_agree() {
    assert_all_success("probe", &run_ring_job("probe", 3));
}

#[test]
fn ring_collectives_end_to_end() {
    assert_all_success("collectives", &run_ring_job("collectives", 4));
}

#[test]
fn ring_ibarrier_completes_after_all_enter() {
    assert_all_success("ibarrier", &run_ring_job("ibarrier", 3));
}

#[test]
fn ring_ibarrier_detects_dead_member() {
    assert_all_success(
        "ibarrier_dead_member",
        &run_ring_job("ibarrier_dead_member", 3),
    );
}

#[test]
fn ring_icoll_matches_blocking_twins() {
    assert_all_success("icoll", &run_ring_job("icoll", 5));
}

#[test]
fn ring_icoll_severed_link_times_out() {
    assert_all_success(
        "icoll_sever",
        &run_ring_job_chaos("icoll_sever", 2, Some("11:sever=0->1@0")),
    );
}

#[test]
fn ring_icoll_killed_rank_fails_alltoallv() {
    assert_all_success(
        "icoll_kill",
        &run_ring_job_chaos("icoll_kill", 3, Some("13:kill=2@1")),
    );
}

#[test]
fn ring_icoll_killed_rank_fails_iallreduce() {
    assert_all_success(
        "icoll_kill_reduce",
        &run_ring_job_chaos("icoll_kill_reduce", 2, Some("13:kill=1@1")),
    );
}

#[test]
fn ring_chaos_severed_link_times_out() {
    // Chaos wraps the transport *above* the ring/socket split, so fault
    // injection applies to ring traffic identically.
    assert_all_success(
        "chaos_sever",
        &run_ring_job_chaos("chaos_sever", 2, Some("11:sever=0->1@0")),
    );
}

#[test]
fn ring_chaos_kill_broadcasts_proc_failed() {
    assert_all_success(
        "chaos_kill",
        &run_ring_job_chaos("chaos_kill", 3, Some("7:kill=2@1")),
    );
}

#[test]
fn ring_collectives_survive_delay_chaos() {
    assert_all_success(
        "collectives",
        &run_ring_job_chaos("collectives", 3, Some("3:delay=30@2")),
    );
}

#[test]
fn ring_revoke_interrupts_blocked_peers() {
    assert_all_success("revoke", &run_ring_job("revoke", 3));
}

#[test]
fn ring_large_copy_budget() {
    // Posted: slice -> ring, ring -> the `Vec<T>` the caller gets, the one
    // allocation. Unexpected: ring -> an exact-size buffer -> `Vec<T>`.
    copy_budget(Backend::ShmXproc, "2,1,3,2");
}

#[test]
fn ring_posted_receives_keep_mpi_order() {
    let exits = posted_case("posted_order", 2, Backend::ShmXproc);
    assert_all_success("posted_order", &exits);
}

#[test]
fn ring_posted_receive_times_out_mid_frame_and_leaves_the_message_whole() {
    let exits = posted_case("posted_timeout", 2, Backend::ShmXproc);
    assert_all_success("posted_timeout", &exits);
}

#[test]
fn ring_posted_receive_survives_its_sender_dying_mid_frame() {
    assert_only_rank_1_died(&posted_case("posted_sender_dies", 3, Backend::ShmXproc));
}

#[test]
fn ring_cross_sends_complete_before_either_side_receives() {
    let exits = posted_case("posted_cross_send", 2, Backend::ShmXproc);
    assert_all_success("posted_cross_send", &exits);
}

#[test]
fn ring_corrupt_stream_fails_its_source() {
    let exits = posted_case("corrupt_ring", 2, Backend::ShmXproc);
    assert_all_success("corrupt_ring", &exits);
}

#[test]
fn ring_killed_rank_surfaces_and_survivors_recover() {
    let exits = run_ring_job("kill_recovery", 4);
    for e in &exits {
        if e.rank == 2 {
            assert_eq!(e.status.code(), Some(7));
        } else {
            assert!(
                e.status.success(),
                "survivor rank {} exited with {}",
                e.rank,
                e.status
            );
        }
    }
}

// ---------------------------------------------------------------------
// Mixed topology: rings inside the local set, sockets across it.
// ---------------------------------------------------------------------

#[test]
fn mixed_backend_collectives_span_rings_and_sockets() {
    // Ranks 0,1 talk over rings; every pair touching ranks 2,3 uses
    // sockets. The collectives case sweeps broadcast/allreduce/allgather/
    // sendrecv over all pairs, so both wires carry traffic in one job.
    assert_all_success("collectives", &run_mixed_job("collectives", 4, "0,1"));
}

#[test]
fn mixed_backend_keeps_per_source_fifo() {
    assert_all_success("wildcard_drain", &run_mixed_job("wildcard_drain", 4, "0,1"));
}

/// The rooted collectives at 32 ranks on two 16-rank "hosts" (rings
/// inside each, sockets across), over the binomial tree.
#[test]
fn mixed_backend_tree_collectives_p32() {
    let exits = run_job_full(
        "tree_collectives",
        32,
        false,
        Backend::ShmXproc,
        &[("KAMPING_LOCAL_RANKS", "0-15;16-31".to_string())],
    );
    assert_all_success("tree_collectives", &exits);
}

/// Chaos kill of an interior tree node mid allreduce, across the
/// ring/socket seam: every survivor surfaces a typed failure instead of
/// hanging.
///
/// The kill budget counts the victim's posts: a handshake, then its
/// partial of the reduce leg (see `case_interior_kill`).
#[test]
fn mixed_backend_interior_rank_death_fails_allreduce() {
    let exits = run_job_full(
        "interior_kill",
        32,
        false,
        Backend::ShmXproc,
        &[
            ("KAMPING_LOCAL_RANKS", "0-15;16-31".to_string()),
            ("KAMPING_CHAOS", "13:kill=16@1".to_string()),
        ],
    );
    // The victim's exit status is not asserted (its own teardown races
    // the locally-fired death); every survivor must succeed.
    for e in &exits {
        if e.rank != 16 {
            assert!(
                e.status.success(),
                "survivor rank {} exited with {}",
                e.rank,
                e.status
            );
        }
    }
}

/// Chaos sever of the broadcast-down link to a leaf: the starved leaf
/// gets `ProcFailed` once its peers finish; nobody hangs.
///
/// The sever offset is pinned to the tree's message counts (see
/// `case_bcast_sever`).
#[test]
fn mixed_backend_severed_bcast_link_fails_starved_leaf() {
    let exits = run_job_full(
        "bcast_sever",
        32,
        false,
        Backend::ShmXproc,
        &[
            ("KAMPING_LOCAL_RANKS", "0-15;16-31".to_string()),
            ("KAMPING_CHAOS", "11:sever=16->17@0".to_string()),
        ],
    );
    assert_all_success("bcast_sever", &exits);
}

// ---------------------------------------------------------------------
// Thread-count flatness (acceptance criterion of the engine rewrite).
// ---------------------------------------------------------------------

/// Runs the `thread_count` case and returns the job-wide maximum thread
/// count per rank after all-pairs traffic.
fn max_threads(ranks: usize, backend: Backend) -> u32 {
    let out = std::env::temp_dir().join(format!(
        "kamping-threads-{}-{ranks}-{}",
        std::process::id(),
        backend.transport_name(),
    ));
    let exits = run_job_full(
        "thread_count",
        ranks,
        false,
        backend,
        &[("KAMPING_THREADS_OUT", out.display().to_string())],
    );
    assert_all_success("thread_count", &exits);
    let n = std::fs::read_to_string(&out)
        .expect("rank 0 wrote the thread count")
        .trim()
        .parse()
        .expect("numeric thread count");
    let _ = std::fs::remove_file(&out);
    n
}

#[test]
fn thread_count_per_rank_is_flat_in_job_size() {
    // The seed design spawned a reader thread per inbound connection and
    // a writer thread per outbound one: rank 0 of a p-rank job idled at
    // 2(p-1)+monitors threads. The progress engine pins this to: main +
    // engine + watchdog (this harness) + one monitor on rank 0, plus one
    // ring consumer under shm-xproc — independent of p.
    let socket_small = max_threads(2, Backend::Socket);
    let socket_large = max_threads(8, Backend::Socket);
    assert_eq!(
        socket_small, socket_large,
        "socket backend thread count must not grow with job size"
    );
    assert!(
        socket_large <= 6,
        "unexpectedly many threads per rank: {socket_large}"
    );

    let ring_small = max_threads(2, Backend::ShmXproc);
    let ring_large = max_threads(8, Backend::ShmXproc);
    assert_eq!(
        ring_small, ring_large,
        "shm-xproc thread count must not grow with job size"
    );
    assert!(ring_large <= 7, "unexpectedly many threads: {ring_large}");
}
