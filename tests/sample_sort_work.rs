//! How much comparing a sample sort does, counted rather than timed: an
//! element type whose `Ord` bumps a thread-local counter (ranks are
//! threads, so the count is per rank) goes through `sample_sort_kamping`
//! and `sample_sort_plain`, next to one `sort_unstable` of the same rank's
//! input. The sort before the exchange is the only sort: what follows it
//! is a merge of the `p` runs received, at most one comparison per element
//! and pass. Exact and repeatable on any host (EXPERIMENTS.md, "Fig. 8:
//! sort once"); `--nocapture` prints the table.

use std::cell::Cell;
use std::cmp::Ordering;

use kamping::{pod_struct, Communicator};
use kamping_sort::{sample_sort_kamping, sample_sort_plain};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

pod_struct! {
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Counted {
        key: u64,
    }
}

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARISONS.with(|c| c.set(c.get() + 1));
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

type Sort = fn(&Communicator, &mut Vec<Counted>);

/// Comparisons this rank's thread makes inside `f`.
fn comparisons_of(f: impl FnOnce()) -> u64 {
    let before = COMPARISONS.with(Cell::get);
    f();
    COMPARISONS.with(Cell::get) - before
}

/// Per rank: comparisons of one local sort, comparisons of the distributed
/// sort, elements the rank ends up with.
fn work(p: usize, n: usize, sort: Sort) -> Vec<[u64; 3]> {
    kamping::run(p, |comm| {
        let mut rng = SmallRng::seed_from_u64(0x5047 + comm.rank() as u64);
        let input: Vec<Counted> = (0..n)
            .map(|_| Counted {
                key: rng.next_u64(),
            })
            .collect();
        let mut alone = input.clone();
        let one_sort = comparisons_of(|| alone.sort_unstable());
        let mut data = input;
        let distributed = comparisons_of(|| sort(&comm, &mut data));
        assert!(data.windows(2).all(|w| w[0].key <= w[1].key));
        [one_sort, distributed, data.len() as u64]
    })
}

#[test]
fn sample_sort_compares_about_one_local_sort() {
    const N: usize = 1 << 14;
    for p in [2usize, 4] {
        let variants: [(&str, Sort); 2] = [
            ("kamping", |comm, data| {
                sample_sort_kamping(comm, data, 7).unwrap()
            }),
            ("plain", |comm, data| sample_sort_plain(comm.raw(), data, 7)),
        ];
        for (name, sort) in variants {
            // Independent of N: the global sample (16 log2(p) + 1 per rank)
            // is sorted on every rank, and p - 1 splitters are searched for.
            let samples = (p * (16 * p.ilog2() as usize + 1)) as u64;
            let fixed = samples * u64::from(samples.next_power_of_two().ilog2()) + 64 * p as u64;
            let passes = u64::from(p.next_power_of_two().ilog2());
            for (rank, [one_sort, distributed, received]) in
                work(p, N, sort).into_iter().enumerate()
            {
                println!(
                    "p={p} {name:7} rank {rank}: one sort {one_sort}, sample sort {distributed} \
                     ({:.2}x), received {received}",
                    distributed as f64 / one_sort as f64
                );
                assert!(
                    distributed <= one_sort + received * passes + fixed,
                    "p={p} {name} rank {rank}: {distributed} comparisons are more than one \
                     local sort ({one_sort}) and {passes} merge pass(es) over {received} elements"
                );
            }
        }
    }
}
