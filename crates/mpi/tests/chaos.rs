//! End-to-end chaos and deadline tests on the shared-memory backend.
//!
//! The unit suite in `src/chaos.rs` pins the *schedule* (which message is
//! delayed or cut under which seed); these tests pin the *observable
//! contract*: a hung peer surfaces as [`MpiError::Timeout`] and a killed
//! peer as [`MpiError::ProcFailed`] — typed errors within a caller-chosen
//! deadline, never a wedged test suite and never a panic.

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use kamping_mpi::{ChaosSpec, MpiError, Universe};

/// A peer that stays alive but never sends: the receiver's bounded wait
/// must report `Timeout` (not hang, not `ProcFailed`), and the release
/// message afterwards must still go through — timing out is not fatal.
#[test]
fn hung_peer_recv_times_out_then_recovers() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            let err = comm
                .recv_timeout(1, 7, Duration::from_millis(200))
                .unwrap_err();
            assert!(err.is_timeout(), "expected Timeout, got {err:?}");
            if let MpiError::Timeout { waited } = err {
                assert!(waited >= Duration::from_millis(200));
            }
            comm.send(1, 0, b"release").unwrap();
        } else {
            // Silent on tag 7, parked on tag 0 — alive the whole time.
            let (payload, _) = comm.recv(0, 0).unwrap();
            assert_eq!(payload, b"release");
        }
    });
}

/// `wait_timeout` on a request must leave it pending: after the deadline
/// fires, the same request can be waited again and complete normally.
#[test]
fn timed_out_request_stays_retryable() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            let mut req = comm.issend(1, 5, b"payload".to_vec()).unwrap();
            // Rank 1 won't match tag 5 until it gets the go message.
            let err = req.wait_timeout(Duration::from_millis(150)).unwrap_err();
            assert!(err.is_timeout(), "expected Timeout, got {err:?}");
            comm.send(1, 0, b"go").unwrap();
            req.wait().unwrap();
        } else {
            comm.recv(0, 0).unwrap();
            let (payload, _) = comm.recv(0, 5).unwrap();
            assert_eq!(payload, b"payload");
        }
    });
}

/// A severed link loses traffic *without* any failure mark: the only
/// detector is the deadline. The reverse direction keeps working.
#[test]
fn severed_link_surfaces_as_timeout() {
    Universe::run_with_chaos(2, ChaosSpec::parse("11:sever=0->1@0").unwrap(), |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, b"vanishes").unwrap();
            // Reverse direction is unaffected by the directional cut.
            let (payload, _) = comm.recv(1, 4).unwrap();
            assert_eq!(payload, b"alive");
        } else {
            let err = comm
                .recv_timeout(0, 3, Duration::from_millis(300))
                .unwrap_err();
            assert!(err.is_timeout(), "expected Timeout, got {err:?}");
            comm.send(0, 4, b"alive").unwrap();
        }
    })
    .unwrap();
}

/// An injected rank death must surface as `ProcFailed` on receivers and
/// break collectives for the survivors — within the deadline, typed.
#[test]
fn chaos_kill_surfaces_as_proc_failed() {
    Universe::run_with_chaos(3, ChaosSpec::parse("7:kill=2@1").unwrap(), |comm| {
        if comm.rank() == 2 {
            // First send passes the kill budget; the second triggers the
            // death and is discarded. No simulate_failure, no panic — the
            // chaos layer is the only thing marking this rank dead.
            comm.send(0, 9, b"first").unwrap();
            comm.send(0, 9, b"second").unwrap();
            return;
        }
        if comm.rank() == 0 {
            let (payload, _) = comm.recv(2, 9).unwrap();
            assert_eq!(payload, b"first");
            let err = comm
                .recv_timeout(2, 9, Duration::from_secs(10))
                .unwrap_err();
            assert!(err.is_failure(), "expected ProcFailed, got {err:?}");
            comm.send(1, 5, b"dead").unwrap();
        } else {
            // The barrier now rides the data plane, so a dissemination
            // envelope posted *to* rank 2 would count against its kill
            // budget and race the accounting above — hold rank 1 back
            // until rank 0 has observed the death.
            comm.recv(0, 5).unwrap();
        }
        // The dead member never enters the barrier; survivors must get a
        // typed failure instead of wedging.
        let mut req = comm.ibarrier().unwrap();
        let err = req.wait_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(err.is_failure(), "expected a failure, got {err:?}");
    })
    .unwrap();
}

fn byte_sum(a: &mut [u8], b: &[u8]) {
    let x = u64::from_le_bytes(a.try_into().unwrap());
    let y = u64::from_le_bytes(b.try_into().unwrap());
    a.copy_from_slice(&(x + y).to_le_bytes());
}

fn sum_op() -> kamping_mpi::OwnedByteOp {
    std::sync::Arc::new(byte_sum)
}

/// A severed link starves an i-collective the same way it starves a
/// receive: `wait_timeout` must report `Timeout` (the request stays
/// retryable), never a hang — while the rank with intact inbound traffic
/// completes normally.
#[test]
fn severed_link_times_out_icollectives() {
    Universe::run_with_chaos(2, ChaosSpec::parse("11:sever=0->1@0").unwrap(), |comm| {
        let counts = vec![1usize; 2];
        let displs = vec![0usize, 1];
        if comm.rank() == 1 {
            // The reduce partial flows 1→0 (alive); the bcast 0→1 is cut.
            let mut req = comm
                .iallreduce(5u64.to_le_bytes().to_vec(), sum_op(), 8)
                .unwrap();
            let err = req.wait_timeout(Duration::from_millis(300)).unwrap_err();
            assert!(err.is_timeout(), "expected Timeout, got {err:?}");
            let mut req = comm
                .ialltoallv(vec![7, 8], &counts, &displs, &counts, &displs)
                .unwrap();
            let err = req.wait_timeout(Duration::from_millis(300)).unwrap_err();
            assert!(err.is_timeout(), "expected Timeout, got {err:?}");
            // Keep rank 0 alive until both timeouts have been observed:
            // were it to finish first, the fault scan would turn rank 1's
            // starvation into ProcFailed instead of Timeout. 1→0 is the
            // intact direction.
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
    })
    .unwrap();
}

/// A chaos-killed rank mid-`ialltoallv` surfaces as a typed failure on
/// every survivor: each one directly awaits the dead rank's block.
#[test]
fn chaos_kill_fails_ialltoallv_on_survivors() {
    Universe::run_with_chaos(3, ChaosSpec::parse("13:kill=2@1").unwrap(), |comm| {
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
        // Collective posts *to* rank 2 count against its kill budget, so
        // neither survivor may issue before rank 2's own "first" send has
        // passed it — sequence both behind that receive.
        if comm.rank() == 0 {
            let (payload, _) = comm.recv(2, 9).unwrap();
            assert_eq!(payload, b"first");
            comm.send(1, 5, b"go").unwrap();
        } else {
            comm.recv(0, 5).unwrap();
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
        let err = req.wait_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(err.is_failure(), "expected a failure, got {err:?}");
    })
    .unwrap();
}

/// The kill seed against `iallreduce`: the survivor directly awaits the
/// dead rank's reduce partial and must get `ProcFailed`.
#[test]
fn chaos_kill_fails_iallreduce_on_survivor() {
    Universe::run_with_chaos(2, ChaosSpec::parse("13:kill=1@1").unwrap(), |comm| {
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
        let err = req.wait_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(err.is_failure(), "expected a failure, got {err:?}");
    })
    .unwrap();
}

/// A *transitively* stalled survivor gets the typed failure too. In the
/// binomial allreduce on 3 ranks, rank 1's schedule only ever waits on
/// rank 0 (its bcast parent) — never on rank 2 — while rank 0 itself
/// awaits the dead rank's reduce partial. The fault scan's waited-on
/// check alone cannot see that, so without the any-member-failed doom
/// check rank 1 would fall through to a generic `Timeout`; it must get
/// `ProcFailed` for the rank that actually died.
#[test]
fn chaos_kill_fails_transitively_stalled_icollective() {
    Universe::run_with_chaos(3, ChaosSpec::parse("13:kill=2@1").unwrap(), |comm| {
        if comm.rank() == 2 {
            comm.send(0, 9, b"first").unwrap();
            // The reduce partial send (2→0) triggers the death, so the
            // partial never reaches rank 0 and the whole tree stalls.
            let _ = comm.iallreduce(4u64.to_le_bytes().to_vec(), sum_op(), 8);
            return;
        }
        // Sequence survivors behind rank 2's budget-passing send (see
        // `chaos_kill_fails_ialltoallv_on_survivors` for why).
        if comm.rank() == 0 {
            let (payload, _) = comm.recv(2, 9).unwrap();
            assert_eq!(payload, b"first");
            comm.send(1, 5, b"go").unwrap();
        } else {
            comm.recv(0, 5).unwrap();
        }
        let mut req = comm
            .iallreduce(1u64.to_le_bytes().to_vec(), sum_op(), 8)
            .unwrap();
        let err = req.wait_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(
            matches!(err, MpiError::ProcFailed { rank: 2 }),
            "expected ProcFailed {{ rank: 2 }}, got {err:?}"
        );
    })
    .unwrap();
}

/// Delay chaos is semantics-preserving, so i-collectives must complete
/// with the exact blocking-twin results — several outstanding at once,
/// waited in reverse issue order.
#[test]
fn delay_chaos_preserves_icollective_results() {
    Universe::run_with_chaos(3, ChaosSpec::parse("5:delay=20@2").unwrap(), |comm| {
        let p = comm.size() as u64;
        let me = comm.rank() as u64;
        let mut r1 = comm
            .iallreduce(me.to_le_bytes().to_vec(), sum_op(), 8)
            .unwrap();
        let mut r2 = comm.iallgather(vec![me as u8]).unwrap();
        let mut r3 = comm.ibarrier().unwrap();
        r3.wait().unwrap();
        assert_eq!(r2.wait().unwrap(), (0..p as u8).collect::<Vec<_>>());
        assert_eq!(r1.wait().unwrap(), (p * (p - 1) / 2).to_le_bytes());
    })
    .unwrap();
}

/// A typed error as a comparable outcome: `Timeout` carries how long it
/// waited, which differs from run to run. Any other error fails the test.
fn outcome<T>(r: Result<T, MpiError>) -> String {
    match r {
        Ok(_) => "ok".to_string(),
        Err(MpiError::Timeout { .. }) => "timeout".to_string(),
        Err(MpiError::ProcFailed { rank }) => format!("failed({rank})"),
        Err(e) => panic!("expected a result, Timeout or ProcFailed, got {e:?}"),
    }
}

/// Receives from `source` on `tag` until the first error; returns the
/// first byte of every message taken and that error as an outcome.
fn drain_channel(
    comm: &kamping_mpi::RawComm,
    source: usize,
    tag: kamping_mpi::Tag,
    patience: Duration,
) -> (Vec<u8>, String) {
    let mut got = Vec::new();
    loop {
        match comm.recv_timeout(source, tag, patience) {
            Ok((payload, _)) => got.push(payload[0]),
            Err(e) => return (got, outcome::<()>(Err(e))),
        }
    }
}

/// Rank 0 sends 40 messages to rank 1 under `delay` + `kill=1@20`: the
/// victim receives the 20 its death let through (delayed ones included),
/// then times out; the sender's receive from the victim is `ProcFailed`.
fn deliveries_under_kill(seed: u64) -> Vec<(Vec<u8>, String)> {
    let spec = ChaosSpec::parse(&format!("{seed}:delay=30@1,kill=1@20")).unwrap();
    // Outside the transport, so no rank finishes (which would turn the
    // victim's timeout into ProcFailed) before both have their outcome.
    let done = std::sync::Barrier::new(2);
    Universe::run_with_chaos(2, spec, |comm| {
        let got = if comm.rank() == 0 {
            for i in 0..40u8 {
                comm.send(1, 7, &[i]).unwrap();
            }
            let err = comm.recv_timeout(1, 9, Duration::from_secs(10));
            (Vec::new(), outcome(err))
        } else {
            drain_channel(&comm, 0, 7, Duration::from_millis(500))
        };
        done.wait();
        got
    })
    .unwrap()
}

/// The seeded schedule is reproducible end-to-end: the same seed delivers
/// the same prefix and surfaces the same typed errors on every run.
#[test]
fn same_seed_same_deliveries_end_to_end() {
    let a = deliveries_under_kill(2024);
    assert_eq!(a, deliveries_under_kill(2024), "same seed, same outcome");
    assert_eq!(a[0], (Vec::new(), "failed(1)".to_string()));
    assert_eq!(a[1], ((0..20).collect(), "timeout".to_string()));
}

/// One soak run, p = 4, `delay` + `sever=0->1@5` + `kill=3@9`:
/// * p2p — 0 → 1 (severed), 1 → 2 (intact) and 2 → 3 (whose 10th
///   message kills rank 3) each carry 16 messages, and 0 receives from the
///   victim, which sends nothing;
/// * then `ibarrier` and `iallreduce` on the damaged universe.
///
/// Returns every rank's outcomes, in order.
fn soak(seed: u64) -> Vec<Vec<String>> {
    const N: u8 = 16;
    let spec = ChaosSpec::parse(&format!("{seed}:delay=25@1,sever=0->1@5,kill=3@9")).unwrap();
    // Phases are fenced outside the transport: the death has fired before
    // anyone receives, and nobody finishes before everyone is done.
    let fence = std::sync::Barrier::new(4);
    let patience = Duration::from_millis(300);
    Universe::run_with_chaos(4, spec, |comm| {
        let me = comm.rank();
        if me < 3 {
            for i in 0..N {
                comm.send(me + 1, 7, &[i]).unwrap();
            }
        }
        fence.wait();
        let (got, end) = if me == 0 {
            drain_channel(&comm, 3, 7, patience)
        } else {
            drain_channel(&comm, me - 1, 7, patience)
        };
        let mut log = vec![format!("p2p {got:?} then {end}")];
        fence.wait();
        let barrier = comm
            .ibarrier()
            .and_then(|mut r| r.wait_timeout(Duration::from_secs(1)));
        log.push(format!("ibarrier {}", outcome(barrier)));
        let sum = comm
            .iallreduce(1u64.to_le_bytes().to_vec(), sum_op(), 8)
            .and_then(|mut r| r.wait_timeout(Duration::from_secs(1)));
        log.push(format!("iallreduce {}", outcome(sum)));
        fence.wait();
        log
    })
    .unwrap()
}

/// Seeded soak under every fault MPI admits: each run ends in bounded
/// time with a result, `Timeout` or `ProcFailed` on every rank; each
/// receiver gets exactly the FIFO prefix of its channel that the spec
/// implies; and two runs of a seed agree.
#[test]
fn seeded_chaos_soak_ends_in_bounded_time() {
    for seed in [7, 42, 2024] {
        let (tx, rx) = std::sync::mpsc::channel();
        let runs = std::thread::spawn(move || {
            let runs = (soak(seed), soak(seed));
            let _ = tx.send(());
            runs
        });
        if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(60)) {
            panic!("seed {seed}: chaos soak did not end within 60 s");
        }
        let (a, b) = runs
            .join()
            .unwrap_or_else(|_| panic!("seed {seed}: a soak run panicked"));
        assert_eq!(a, b, "seed {seed}: two runs must agree");
        // 0 hears from the victim only that it died, 1 gets the prefix
        // before the cut, 2 everything, the victim what preceded its death;
        // the collectives of the damaged universe fail alike everywhere.
        let expect = |n: u8, end: &str| {
            let got: Vec<u8> = (0..n).collect();
            [
                format!("p2p {got:?} then {end}"),
                "ibarrier failed(3)".to_string(),
                "iallreduce failed(3)".to_string(),
            ]
        };
        let want = [
            expect(0, "failed(3)"),
            expect(5, "timeout"),
            expect(16, "timeout"),
            expect(9, "timeout"),
        ];
        assert_eq!(a, want, "seed {seed}");
    }
}

/// Delay chaos models a slow link, not a reordering one: per-channel FIFO
/// survives end-to-end even when deliveries detour through the delay
/// thread.
#[test]
fn delay_chaos_preserves_fifo_end_to_end() {
    Universe::run_with_chaos(2, ChaosSpec::parse("5:delay=40@3").unwrap(), |comm| {
        if comm.rank() == 1 {
            for i in 0..30u8 {
                comm.send(0, 7, &[i]).unwrap();
            }
            // Stay alive until rank 0 drained everything: returning early
            // would race the delay queue against finish detection. The ack
            // itself may be delayed, but quiesce-before-Finished guarantees
            // it arrives rather than being overtaken by rank 0's exit.
            comm.recv_timeout(0, 8, Duration::from_secs(10)).unwrap();
        } else {
            for expect in 0..30u8 {
                let (payload, _) = comm.recv_timeout(1, 7, Duration::from_secs(10)).unwrap();
                assert_eq!(payload, vec![expect], "FIFO broken by delay chaos");
            }
            comm.send(1, 8, b"done").unwrap();
        }
    })
    .unwrap();
}

/// The de-panicked entry point: an impossible universe is a typed Config
/// error from `try_run`, not an abort.
#[test]
fn try_run_rejects_zero_ranks_with_typed_error() {
    let err = Universe::try_run(0, |_| ()).unwrap_err();
    assert!(
        matches!(err, MpiError::Config(_)),
        "expected Config, got {err:?}"
    );
}
