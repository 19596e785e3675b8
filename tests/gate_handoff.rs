//! The blocking hand-off of `mpi.transport` through the public API: a
//! seeded stress case for lost wake-ups, and a measurement of how often a
//! waiting rank goes to sleep (EXPERIMENTS.md, "Sleeps per hand-off").

use std::sync::mpsc;
use std::time::{Duration, Instant};

use kamping::Communicator;
use kamping_graphs::bfs::bfs_kamping;
use kamping_graphs::gen::rgg2d;
use kamping_mpi::metrics::Counter;
use kamping_mpi::{Op, Universe, ANY_SOURCE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Two posters and one receiver, 2 x 10^4 hand-offs. Before each post its
/// poster busy-waits for a drawn delay, so the receiver's waits end on the
/// fast path, inside its patience, at the patience's edge and in its sleep;
/// every message is echoed, so the posters wait in turn. Every fourth round
/// goes by `issend` in both directions: those completions are woken by the
/// ack's bump of the sender's own gate.
/// A wake-up that is lost leaves all three ranks asleep; the watchdog then
/// names the seed and ends the process.
#[test]
fn seeded_handoffs_lose_no_wake() {
    const SEED: u64 = 0x6761_7465;
    const ROUNDS: u64 = 10_000;
    const DELAYS_US: [u64; 5] = [0, 5, 80, 120, 250];
    let (done, hung) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if hung.recv_timeout(Duration::from_secs(60)).is_err() {
            eprintln!("seeded_handoffs_lose_no_wake: no progress after 60 s, seed {SEED:#x}");
            std::process::abort();
        }
    });
    Universe::run(3, |comm| {
        let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        let send = |dest: usize, tag, seq: u64| {
            let bytes = seq.to_le_bytes();
            if seq % 4 == 3 {
                comm.issend(dest, tag, bytes.to_vec())
                    .and_then(|mut r| r.wait())
                    .map(drop)
            } else {
                comm.send(dest, tag, &bytes)
            }
        };
        if comm.rank() == 0 {
            let mut next = [0u64; 3];
            for _ in 0..2 * ROUNDS {
                let (bytes, status) = comm.recv(ANY_SOURCE, 1).unwrap();
                let seq = word(&bytes);
                assert_eq!(seq, next[status.source], "seed {SEED:#x}: order per source");
                next[status.source] += 1;
                send(status.source, 2, seq).unwrap();
            }
        } else {
            let mut rng = SmallRng::seed_from_u64(SEED + comm.rank() as u64);
            for seq in 0..ROUNDS {
                let delay = Duration::from_micros(DELAYS_US[rng.gen_range(0..DELAYS_US.len())]);
                let t = Instant::now();
                while t.elapsed() < delay {
                    std::hint::spin_loop();
                }
                send(0, 1, seq).unwrap();
                let (echo, _) = comm.recv(0, 2).unwrap();
                assert_eq!(word(&echo), seq, "seed {SEED:#x}: echo");
            }
        }
    });
    done.send(()).expect("watchdog is waiting");
    watchdog.join().expect("watchdog");
}

/// Binds the calling thread to the `slot`-th CPU (modulo the machine's).
#[cfg(target_os = "linux")]
fn pin_to_cpu(slot: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mask = [1u64 << (slot % cpus.min(64))];
    // SAFETY: `mask` is a live one-word CPU set and its size is passed
    // along; pid 0 is the calling thread. A refusal leaves the thread
    // unbound, which only blurs the measurement.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_slot: usize) {}

/// Time, sleeps and wakes per hand-off at p = 2, one rank per core: a BFS
/// level (the Fig. 10 graph of kbench: RGG-2D, 2^14 vertices per rank,
/// average degree 12), an 8-byte echo, an 8-byte `allreduce`, and a counts +
/// data exchange of 8 bytes. The gate counters move only with metrics on:
///
/// ```text
/// KAMPING_METRICS=1 cargo test --release --test gate_handoff -- --ignored --nocapture
/// ```
#[test]
#[ignore = "a measurement: prints, asserts nothing about the scheduler"]
fn sleeps_per_bfs_level_and_per_echo() {
    const ROUNDS: u64 = 20_000;
    let (rows, _) = Universe::run_profiled(2, |raw| {
        pin_to_cpu(raw.rank());
        let comm = Communicator::new(raw);
        let raw = comm.raw();
        let n = (1u64 << 14) * comm.size() as u64;
        let radius = (12.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let g = rgg2d(&comm, n, radius, 1).unwrap();
        bfs_kamping(&comm, &g, 0).unwrap(); // warm-up

        // (seconds, sleeps, wakes) of `body`, entered together.
        let measured = |body: &dyn Fn()| {
            let gate = |c| raw.metrics().counter(c);
            raw.barrier().unwrap();
            let before = (gate(Counter::GateSleeps), gate(Counter::GateWakes));
            let t = Instant::now();
            body();
            let secs = t.elapsed().as_secs_f64();
            let sleeps = gate(Counter::GateSleeps) - before.0;
            (secs, sleeps, gate(Counter::GateWakes) - before.1)
        };
        let peer = 1 - raw.rank();
        let calls = raw.profile();
        let bfs = measured(&|| {
            for _ in 0..5 {
                bfs_kamping(&comm, &g, 0).unwrap();
            }
        });
        let levels = raw.profile().since(&calls).ranks[raw.rank()].calls(Op::Allreduce);
        let echo = measured(&|| {
            for i in 0..ROUNDS {
                if raw.rank() == 0 {
                    raw.send(peer, 7, &i.to_le_bytes()).unwrap();
                    raw.recv(peer, 7).unwrap();
                } else {
                    let (word, _) = raw.recv(peer, 7).unwrap();
                    raw.send(peer, 7, &word).unwrap();
                }
            }
        });
        let allreduce = measured(&|| {
            for i in 0..ROUNDS {
                comm.allreduce_single(i, |a, b| a + b).unwrap();
            }
        });
        let exchange = measured(&|| {
            for i in 0..ROUNDS {
                comm.alltoallv_vec(&[i], &[1 - peer, peer]).unwrap();
            }
        });
        [
            ("BFS level", levels, bfs),
            ("echo", ROUNDS, echo),
            ("allreduce", ROUNDS, allreduce),
            ("exchange", ROUNDS, exchange),
        ]
    });
    for (rank, row) in rows.into_iter().enumerate() {
        for (name, ops, (secs, sleeps, wakes)) in row {
            println!(
                "rank {rank}: {ops:6} x {name:9} {:8.2} us, {:.3} sleeps, {:.3} wakes each",
                secs * 1e6 / ops as f64,
                sleeps as f64 / ops as f64,
                wakes as f64 / ops as f64,
            );
        }
    }
}
