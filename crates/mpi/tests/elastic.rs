//! Elastic-universe tests: dynamic rank join, shrink→grow→shrink cycles,
//! and the rendezvous failure modes around them.
//!
//! The multi-process tests follow the `socket_backend.rs` pattern: each
//! launches N copies of *this test binary* (plus late joiners via
//! `LaunchSpec::elastic`) filtered down to [`elastic_worker_entry`], with
//! the case selected by `KAMPING_TEST_CASE`. Initial ranks enter at
//! membership epoch 0 and observe admissions as typed epoch transitions
//! through [`RawComm::grow`]; a joiner's closure starts directly on the
//! grown communicator (its epoch is already past 0), which is how the
//! case bodies tell the two roles apart.
//!
//! The shm tests exercise the same epoch machinery in-process through
//! [`Universe::run_elastic`] + [`RawComm::spawn_merge`].

use std::time::Duration;

use kamping_mpi::net::{launch, Backend, LaunchSpec, RankExit};
use kamping_mpi::{MpiError, RawComm, Universe};

const CASE_VAR: &str = "KAMPING_TEST_CASE";
const GROW_WAIT: Duration = Duration::from_secs(20);

fn byte_sum(a: &mut [u8], b: &[u8]) {
    let x = u64::from_le_bytes(a.try_into().unwrap());
    let y = u64::from_le_bytes(b.try_into().unwrap());
    a.copy_from_slice(&(x + y).to_le_bytes());
}

/// Allreduced sum of every member's global rank — the membership
/// fingerprint each epoch is checked against.
fn global_sum(comm: &RawComm) -> u64 {
    let mut acc = (comm.my_global_rank() as u64).to_le_bytes().to_vec();
    comm.allreduce(&mut acc, &byte_sum, 8).unwrap();
    u64::from_le_bytes(acc.try_into().unwrap())
}

/// Asserts the communicator's members are exactly `globals`, densely
/// renumbered in ascending global order.
fn assert_members(comm: &RawComm, globals: &[usize]) {
    assert_eq!(comm.size(), globals.len());
    for (l, &g) in globals.iter().enumerate() {
        assert_eq!(comm.global_rank(l).unwrap(), g, "local {l} misnumbered");
    }
}

fn launch_elastic(
    case: &str,
    ranks: usize,
    elastic: usize,
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
    spec.elastic = elastic;
    spec.join_delay_ms = 50;
    spec.args = vec!["elastic_worker_entry".into(), "--exact".into()];
    spec.env = vec![(CASE_VAR.into(), case.into())];
    for (k, v) in extra {
        spec.env.push(((*k).into(), v.clone()));
    }
    launch(&spec).expect("launching the job")
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
// Case bodies (run inside the child processes).
// ---------------------------------------------------------------------

/// 2 launch ranks + 1 joiner: the launch ranks block for the admission
/// and step into epoch 1; the joiner starts there. Everyone agrees on
/// the grown membership and runs a collective over it.
fn case_grow(comm: RawComm) {
    let grown = if comm.membership_epoch() == 0 {
        assert_eq!(comm.size(), 2);
        let epoch = comm.await_grow_timeout(GROW_WAIT).unwrap();
        assert_eq!(epoch, 1);
        comm.grow().unwrap()
    } else {
        assert_eq!(comm.membership_epoch(), 1, "joiner enters at epoch 1");
        comm
    };
    assert_members(&grown, &[0, 1, 2]);
    assert_eq!(global_sum(&grown), 3);
    grown.barrier().unwrap();
}

/// 3 launch ranks + 1 joiner, then two kills: a full
/// grow → shrink → shrink cycle. Each epoch is fingerprinted by a
/// collective over the membership and by its dense renumbering; both
/// shrinks derive from the same epoch communicator (the pinned-base
/// pattern the elastic service uses).
fn case_cycle(comm: RawComm) {
    // --- epoch 0 → 1: admission ---------------------------------------
    let comm4 = if comm.membership_epoch() == 0 {
        assert_eq!(global_sum(&comm), 3, "launch membership is {{0,1,2}}");
        comm.await_grow_timeout(GROW_WAIT).unwrap();
        comm.grow().unwrap()
    } else {
        comm
    };
    assert_members(&comm4, &[0, 1, 2, 3]);
    assert_eq!(global_sum(&comm4), 6);

    // --- first kill: global 2 dies, the rest shrink --------------------
    if comm4.my_global_rank() == 2 {
        comm4.simulate_failure();
        return;
    }
    match comm4.await_membership_change_timeout(GROW_WAIT).unwrap() {
        kamping_mpi::MembershipChange::Failure(l) => {
            assert_eq!(comm4.global_rank(l).unwrap(), 2)
        }
        other => panic!("expected a failure, got {other:?}"),
    }
    let shrunk = comm4.shrink().unwrap();
    assert_members(&shrunk, &[0, 1, 3]);
    assert_eq!(global_sum(&shrunk), 4);

    // Satellite: on shm-xproc, the dead rank's inbox ring file must be
    // unlinked once the failure is processed — ring files must not
    // accumulate across membership cycles.
    if let Ok(dir) = std::env::var("KAMPING_SHM_DIR") {
        let corpse = std::path::Path::new(&dir).join("inbox-2.ring");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while corpse.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "dead rank's ring file {corpse:?} still linked"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // p2p on the shrunk epoch: rotate a token around the ring.
    let p = shrunk.size();
    let right = (shrunk.rank() + 1) % p;
    let left = (shrunk.rank() + p - 1) % p;
    let (got, _) = shrunk
        .sendrecv(right, 4, &[shrunk.rank() as u8; 16], left, 4)
        .unwrap();
    assert_eq!(got, vec![left as u8; 16]);
    shrunk.barrier().unwrap();

    // --- second kill: global 1 dies; both shrinks share the base -------
    if shrunk.my_global_rank() == 1 {
        shrunk.simulate_failure();
        return;
    }
    match shrunk.await_membership_change_timeout(GROW_WAIT).unwrap() {
        kamping_mpi::MembershipChange::Failure(l) => {
            assert_eq!(shrunk.global_rank(l).unwrap(), 1)
        }
        other => panic!("expected a failure, got {other:?}"),
    }
    let pair = comm4.shrink().unwrap();
    assert_members(&pair, &[0, 3]);
    assert_eq!(global_sum(&pair), 3);
    let peer = 1 - pair.rank();
    let (got, _) = pair
        .sendrecv(peer, 5, &[pair.my_global_rank() as u8], peer, 5)
        .unwrap();
    assert_eq!(got, vec![pair.global_rank(peer).unwrap() as u8]);
}

/// Satellite: a joiner whose rendezvous endpoint never answers must get
/// a typed `MpiError::Timeout` — a bounded failure, not a hang.
fn case_join_timeout() {
    let err = Universe::try_run(1, |_comm| ()).unwrap_err();
    assert!(err.is_timeout(), "expected Timeout, got {err:?}");
}

// ---------------------------------------------------------------------
// The child-side entry point.
// ---------------------------------------------------------------------

/// A no-op under a plain `cargo test`; the rank body when launched by
/// the parent tests below.
#[test]
fn elastic_worker_entry() {
    let Ok(case) = std::env::var(CASE_VAR) else {
        return;
    };
    // A deadlocked child must not hang CI: die loudly instead.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(120));
        eprintln!("elastic_worker_entry: watchdog fired, aborting rank");
        std::process::exit(86);
    });
    if case == "join_timeout" {
        case_join_timeout();
        return;
    }
    Universe::run(1, |comm| match case.as_str() {
        "grow" => case_grow(comm),
        "cycle" => case_cycle(comm),
        other => panic!("unknown case {other:?}"),
    });
}

// ---------------------------------------------------------------------
// Multi-process parent tests.
// ---------------------------------------------------------------------

#[test]
fn socket_joiner_grows_universe() {
    assert_all_success(
        "grow",
        &launch_elastic("grow", 2, 1, false, Backend::Socket, &[]),
    );
}

#[test]
fn tcp_joiner_grows_universe() {
    assert_all_success(
        "grow",
        &launch_elastic("grow", 2, 1, true, Backend::Socket, &[]),
    );
}

#[test]
fn ring_joiner_grows_universe() {
    assert_all_success(
        "grow",
        &launch_elastic("grow", 2, 1, false, Backend::ShmXproc, &[]),
    );
}

#[test]
fn socket_shrink_grow_shrink_cycle() {
    assert_all_success(
        "cycle",
        &launch_elastic("cycle", 3, 1, false, Backend::Socket, &[]),
    );
}

/// The cycle over shm-xproc rings, with the launcher's ring directory
/// overridden so the parent can verify that *no* ring files survive the
/// job — every member's inbox is unlinked on failure or goodbye.
#[test]
fn ring_shrink_grow_shrink_cycle_unlinks_ring_files() {
    let dir = std::env::temp_dir().join(format!("kamping-elastic-rings-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating ring dir");
    let exits = launch_elastic(
        "cycle",
        3,
        1,
        false,
        Backend::ShmXproc,
        &[("KAMPING_SHM_DIR", dir.display().to_string())],
    );
    assert_all_success("cycle", &exits);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("reading ring dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".ring"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "ring files leaked past the job: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a joiner pointed at a rendezvous endpoint nobody serves
/// must come back with a typed `Timeout` within the rendezvous deadline.
#[test]
fn joiner_times_out_on_severed_rendezvous() {
    let absent = std::env::temp_dir().join(format!(
        "kamping-absent-rendezvous-{}.sock",
        std::process::id()
    ));
    let status =
        std::process::Command::new(std::env::current_exe().expect("test binary path available"))
            .args(["elastic_worker_entry", "--exact"])
            .env(CASE_VAR, "join_timeout")
            .env("KAMPING_TRANSPORT", "socket")
            .env("KAMPING_JOIN", "1")
            .env("KAMPING_RANKS", "2")
            .env("KAMPING_MAX_RANKS", "3")
            .env("KAMPING_RENDEZVOUS", format!("unix:{}", absent.display()))
            .stdin(std::process::Stdio::null())
            .status()
            .expect("spawning joiner");
    assert!(
        status.success(),
        "joiner must exit cleanly after its typed timeout, got {status}"
    );
}

// ---------------------------------------------------------------------
// In-process (shm) elastic tests.
// ---------------------------------------------------------------------

/// `spawn_merge` admits a parked rank as a typed epoch transition; the
/// never-admitted rank stays parked and returns nothing.
#[test]
fn shm_spawn_merge_admits_parked_rank() {
    let results = Universe::run_elastic(2, 4, |comm| {
        let grown = if comm.membership_epoch() == 0 {
            comm.barrier().unwrap();
            if comm.rank() == 0 {
                comm.spawn_merge(1).unwrap()
            } else {
                comm.await_grow_timeout(GROW_WAIT).unwrap();
                comm.grow().unwrap()
            }
        } else {
            assert_eq!(comm.membership_epoch(), 1);
            comm
        };
        assert_members(&grown, &[0, 1, 2]);
        assert_eq!(global_sum(&grown), 3);
        grown.barrier().unwrap();
        grown.my_global_rank()
    })
    .unwrap();
    // Globals 0..2 ran; the second parked rank (global 3) never did.
    let ran: Vec<usize> = results.iter().map(|&(g, _)| g).collect();
    assert_eq!(ran, vec![0, 1, 2]);
    for &(g, r) in &results {
        assert_eq!(g, r);
    }
}

/// The full shrink → grow → shrink cycle in one process, with an
/// allreduce fingerprinting every epoch's membership.
#[test]
fn shm_shrink_grow_shrink_cycle() {
    let results = Universe::run_elastic(4, 5, |comm| {
        let mut slot = Some(comm);
        // --- epoch 0: the launch membership ---------------------------
        let world = if slot.as_ref().unwrap().membership_epoch() == 0 {
            let comm = slot.take().unwrap();
            assert_eq!(global_sum(&comm), 6, "launch membership is {{0,1,2,3}}");
            if comm.my_global_rank() == 3 {
                comm.simulate_failure();
                return comm.my_global_rank();
            }
            Some(comm)
        } else {
            None
        };

        // --- shrink to {0,1,2} ----------------------------------------
        let shrunk = world.as_ref().map(|w| {
            match w.await_membership_change_timeout(GROW_WAIT).unwrap() {
                kamping_mpi::MembershipChange::Failure(l) => {
                    assert_eq!(w.global_rank(l).unwrap(), 3)
                }
                other => panic!("expected a failure, got {other:?}"),
            }
            let s = w.shrink().unwrap();
            assert_members(&s, &[0, 1, 2]);
            assert_eq!(global_sum(&s), 3);
            s
        });

        // --- grow to {0,1,2,4}: leader admits the parked rank ---------
        let grown = match (&world, shrunk) {
            (Some(w), Some(s)) => {
                if s.rank() == 0 {
                    s.spawn_merge(1).unwrap()
                } else {
                    s.await_grow_timeout(GROW_WAIT).unwrap();
                    w.grow().unwrap()
                }
            }
            // The joiner (global 4) starts here, at epoch 1.
            _ => {
                let comm = slot.take().unwrap();
                assert_eq!(comm.membership_epoch(), 1);
                comm
            }
        };
        assert_members(&grown, &[0, 1, 2, 4]);
        assert_eq!(global_sum(&grown), 7);

        // --- second shrink to {0,1,4} ---------------------------------
        if grown.my_global_rank() == 2 {
            grown.simulate_failure();
            return grown.my_global_rank();
        }
        match grown.await_membership_change_timeout(GROW_WAIT).unwrap() {
            kamping_mpi::MembershipChange::Failure(l) => {
                assert_eq!(grown.global_rank(l).unwrap(), 2)
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        let pair = grown.shrink().unwrap();
        assert_members(&pair, &[0, 1, 4]);
        assert_eq!(global_sum(&pair), 5);
        pair.my_global_rank()
    })
    .unwrap();
    let ran: Vec<usize> = results.iter().map(|&(g, _)| g).collect();
    assert_eq!(ran, vec![0, 1, 2, 3, 4], "every rank ran, none parked");
}

/// Misuse surfaces as typed configuration errors, not hangs or panics.
#[test]
fn shm_elastic_misuse_is_typed() {
    // grow() with no admission event pending.
    Universe::run(2, |comm| {
        let err = comm.grow().unwrap_err();
        assert!(matches!(err, MpiError::Internal(_)), "got {err:?}");
        // spawn_merge(0) is a request for nothing.
        let err = comm.spawn_merge(0).unwrap_err();
        assert!(matches!(err, MpiError::Config(_)), "got {err:?}");
        comm.barrier().unwrap();
        // More joiners than the parked pool holds.
        if comm.rank() == 0 {
            let err = comm.spawn_merge(1).unwrap_err();
            assert!(matches!(err, MpiError::Config(_)), "got {err:?}");
        }
    });
    // Capacity below the initial rank count.
    let err = Universe::run_elastic(3, 2, |_comm| ()).unwrap_err();
    assert!(matches!(err, MpiError::Config(_)), "got {err:?}");
}

// ---------------------------------------------------------------------
// Teardown artefacts of the shm runner under `run_elastic`.
// ---------------------------------------------------------------------

const ARTIFACT_CASE_VAR: &str = "KAMPING_ELASTIC_ARTIFACT_CASE";

/// Child-side entry of [`shm_run_elastic_writes_trace_and_crash_reports`]:
/// a no-op under plain `cargo test`.
#[test]
fn shm_artifact_child_entry() {
    let Ok(case) = std::env::var(ARTIFACT_CASE_VAR) else {
        return;
    };
    match case.as_str() {
        "barrier" => {
            Universe::run_elastic(2, 2, |comm| comm.barrier().unwrap()).unwrap();
        }
        // Rank 1 panics; rank 0 observes the failure and survives. The
        // panic is re-raised after teardown, so this child exits nonzero.
        "panic" => {
            let _ = Universe::run_elastic(2, 3, |comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                assert!(comm.recv(1, 0).unwrap_err().is_failure());
            });
        }
        other => panic!("unknown case {other:?}"),
    }
}

/// `run_elastic` on the shm backend goes through the same teardown as
/// `run`: the `KAMPING_TRACE` export is written, and after a panicking
/// rank the survivor's `KAMPING_CRASH_DIR` report. The environment only
/// reaches a universe through its process, so each case re-executes this
/// test binary — without `KAMPING_TRANSPORT`, so the child runs rank
/// threads, not a `kampirun` job.
#[test]
fn shm_run_elastic_writes_trace_and_crash_reports() {
    let scratch = std::env::temp_dir().join(format!("kamping-elastic-art-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("creating scratch dir");
    let child = |case: &str, var: &str, value: &std::path::Path| {
        std::process::Command::new(std::env::current_exe().expect("test binary path available"))
            .args(["shm_artifact_child_entry", "--exact"])
            .env(ARTIFACT_CASE_VAR, case)
            .env(var, value)
            .env_remove("KAMPING_TRANSPORT")
            .output()
            .expect("spawning the child")
    };

    let trace = scratch.join("trace.json");
    let out = child("barrier", "KAMPING_TRACE", &trace);
    assert!(out.status.success(), "barrier child failed: {out:?}");
    let doc = std::fs::read_to_string(&trace).expect("run_elastic wrote no trace file");
    assert!(doc.contains("traceEvents"), "not a trace document: {doc}");

    let out = child("panic", "KAMPING_CRASH_DIR", &scratch);
    assert!(!out.status.success(), "the rank panic must fail the child");
    assert!(
        scratch.join("crash-rank0.json").is_file(),
        "surviving rank 0 wrote no crash report: {out:?}"
    );
    assert!(
        !scratch.join("crash-rank1.json").exists() && !scratch.join("crash-rank2.json").exists(),
        "only ranks that ran and survived report"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
