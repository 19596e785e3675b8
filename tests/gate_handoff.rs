//! The blocking hand-off of `mpi.transport` through the public API: a
//! measurement of how often a waiting rank goes to sleep (EXPERIMENTS.md,
//! "Sleeps per hand-off").

use kamping::Communicator;
use kamping_graphs::bfs::bfs_kamping;
use kamping_graphs::gen::rgg2d;
use kamping_mpi::metrics::Counter;
use kamping_mpi::{Op, Universe};

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

/// Sleeps and wakes per BFS level (the Fig. 10 graph of kbench: RGG-2D,
/// 2^14 vertices per rank, average degree 12) and per 8-byte echo at
/// p = 2, one rank per core. The gate counters move only with metrics on:
///
/// ```text
/// KAMPING_METRICS=1 cargo test --release --test gate_handoff -- --ignored --nocapture
/// ```
#[test]
#[ignore = "a measurement: prints, asserts nothing about the scheduler"]
fn sleeps_per_bfs_level_and_per_echo() {
    const ECHOES: u64 = 20_000;
    let gate = |raw: &kamping_mpi::RawComm| {
        let m = raw.metrics();
        [
            m.counter(Counter::GateSleeps),
            m.counter(Counter::GateWakes),
        ]
    };
    let (rows, _) = Universe::run_profiled(2, |raw| {
        pin_to_cpu(raw.rank());
        let comm = Communicator::new(raw);
        let raw = comm.raw();
        let n = (1u64 << 14) * comm.size() as u64;
        let radius = (12.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let g = rgg2d(&comm, n, radius, 1).unwrap();
        bfs_kamping(&comm, &g, 0).unwrap(); // warm-up

        let (calls, before, t) = (raw.profile(), gate(raw), std::time::Instant::now());
        for _ in 0..5 {
            bfs_kamping(&comm, &g, 0).unwrap();
        }
        let bfs_s = t.elapsed().as_secs_f64();
        let levels = raw.profile().since(&calls).ranks[raw.rank()].calls(Op::Allreduce);
        let bfs = gate(raw);

        let peer = 1 - raw.rank();
        let t = std::time::Instant::now();
        for i in 0..ECHOES {
            if raw.rank() == 0 {
                raw.send(peer, 7, &i.to_le_bytes()).unwrap();
                raw.recv(peer, 7).unwrap();
            } else {
                let (word, _) = raw.recv(peer, 7).unwrap();
                raw.send(peer, 7, &word).unwrap();
            }
        }
        let echo_s = t.elapsed().as_secs_f64();
        let echo = gate(raw);
        (levels, bfs_s, [0, 1].map(|i| bfs[i] - before[i]), echo_s, {
            [0, 1].map(|i| echo[i] - bfs[i])
        })
    });
    for (rank, (levels, bfs_s, bfs, echo_s, echo)) in rows.into_iter().enumerate() {
        let per = |count: u64, ops: u64| count as f64 / ops as f64;
        println!(
            "rank {rank}: {levels} BFS levels at {:.1} us, {:.2} sleeps and {:.2} wakes per level; \
             {ECHOES} echoes at {:.2} us, {:.3} sleeps and {:.3} wakes per echo",
            bfs_s * 1e6 / levels as f64,
            per(bfs[0], levels),
            per(bfs[1], levels),
            echo_s * 1e6 / ECHOES as f64,
            per(echo[0], ECHOES),
            per(echo[1], ECHOES),
        );
    }
}
