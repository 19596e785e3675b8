//! Distributed sample sort (paper §IV-A, Fig. 7).
//!
//! Sorts a distributed array of random integers with all three
//! implementations (kamping / plain / MPL-like lowering) and verifies they
//! produce identical, globally sorted output that is a permutation of the
//! input; a second round sorts nothing at all. Per-implementation timings
//! are collected in a [`TimerTree`] and printed as a cross-rank
//! min/mean/max aggregate (the `kamping::measurements` workflow).
//!
//! Run with `cargo run --release --example sample_sort -- [ranks] [n_per_rank]`.

use kamping_mpi::measurements::TimerTree;
use kamping_sort::{sample_sort_kamping, sample_sort_mpl_like, sample_sort_plain};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// (sum, xor, count) over every rank's elements: equal before and after a
/// sort unless an element was lost, repeated or altered. The variants
/// share their merge, so their agreement would not show that.
fn multiset(comm: &kamping::Communicator, data: &[u64]) -> [u64; 3] {
    let mine = data.iter().fold([0u64, 0, data.len() as u64], |m, &x| {
        [m[0].wrapping_add(x), m[1] ^ x, m[2]]
    });
    comm.allreduce_single(mine, |a, b| {
        [a[0].wrapping_add(b[0]), a[1] ^ b[1], a[2] + b[2]]
    })
    .unwrap()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);

    kamping::run(ranks, |comm| {
        let mut rng = SmallRng::seed_from_u64(1234 + comm.rank() as u64);
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let input = multiset(&comm, &data);
        let mut timers = TimerTree::new();
        timers.counter_put("elements_per_rank", n as f64);

        let mut a = data.clone();
        timers.start("kamping");
        sample_sort_kamping(&comm, &mut a, 7).unwrap();
        timers.synchronized_stop(comm.raw()).unwrap();

        let mut b = data.clone();
        timers.start("plain");
        sample_sort_plain(comm.raw(), &mut b, 7);
        timers.synchronized_stop(comm.raw()).unwrap();

        let mut c = data.clone();
        timers.start("mpl_like");
        sample_sort_mpl_like(&comm, &mut c, 7).unwrap();
        timers.synchronized_stop(comm.raw()).unwrap();

        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(kamping_sort::sample_sort::is_globally_sorted(&comm, &a).unwrap());
        assert_eq!(
            multiset(&comm, &a),
            input,
            "output is a permutation of the input"
        );

        // No rank holds an element: nothing to sample, nothing to do.
        let mut none: Vec<u64> = Vec::new();
        sample_sort_kamping(&comm, &mut none, 7).unwrap();
        sample_sort_plain(comm.raw(), &mut none, 7);
        sample_sort_mpl_like(&comm, &mut none, 7).unwrap();
        assert!(none.is_empty());

        // Every rank participates in the aggregation; rank 0 prints the
        // min/mean/max tree (the slowest rank dominates `max`).
        let agg = timers.aggregate(comm.raw()).unwrap();
        if comm.rank() == 0 {
            println!("sample_sort OK on {ranks} ranks x {n} elements");
            print!("{}", agg.render());
        }
    });
}
