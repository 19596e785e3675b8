//! Regenerates Fig. 8: weak-scaling running time of sample sort under the
//! different binding layers.
//!
//! The paper sorts 10^6 u64 per rank on 1..256 SuperMUC-NG nodes; here
//! ranks are threads on one machine, so the default is 10^5 elements per
//! rank and p up to 16 (override via CLI). The *shape* claims under test:
//! kamping ≈ plain (near zero overhead), the MPL-like lowering is
//! consistently slower.
//!
//! Run with
//! `cargo run --release -p kamping-bench --bin fig8_samplesort -- [max_p] [n_per_rank] [reps]`.

use std::time::{Duration, Instant};

use kamping_bench::{ms, time_world_custom};
use kamping_sort::{sample_sort_kamping, sample_sort_mpl_like, sample_sort_plain};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

fn data_for(rank: usize, n: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(0xF160 + rank as u64);
    (0..n).map(|_| rng.next_u64()).collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let max_p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let reps: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    println!("Fig. 8 analog — sample sort weak scaling, {n} u64/rank, best of {reps}");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>10}",
        "p", "plain ms", "kamping ms", "mpl-like ms", "k/p ratio"
    );

    let mut p = 1;
    while p <= max_p {
        // The input is drawn before the clock starts: only the sort is timed.
        let time = |sort: &(dyn Fn(&kamping::Communicator, &mut Vec<u64>) + Sync)| {
            time_world_custom(p, |comm| {
                let mut d = data_for(comm.rank(), n);
                comm.barrier().expect("opening barrier");
                let start = Instant::now();
                sort(comm, &mut d);
                comm.barrier().expect("closing barrier");
                let elapsed = start.elapsed();
                std::hint::black_box(&d);
                elapsed
            })
        };
        // The columns take turns within a repetition, so a slow stretch of
        // the host falls on all three.
        let [mut t_plain, mut t_kamping, mut t_mpl] = [Duration::MAX; 3];
        for _ in 0..reps {
            t_plain = t_plain.min(time(&|comm, d| sample_sort_plain(comm.raw(), d, 7)));
            t_kamping = t_kamping.min(time(&|comm, d| sample_sort_kamping(comm, d, 7).unwrap()));
            t_mpl = t_mpl.min(time(&|comm, d| sample_sort_mpl_like(comm, d, 7).unwrap()));
        }
        println!(
            "{:>5} {} {} {} {:>10.3}",
            p,
            ms(t_plain),
            ms(t_kamping),
            ms(t_mpl),
            t_kamping.as_secs_f64() / t_plain.as_secs_f64(),
        );
        p *= 2;
    }
    println!();
    println!("expected shape: kamping/plain ratio ~1.0 at every p; mpl-like above both");
}
