//! Distributed sample sort as a self-checking smoke test — the program CI
//! runs under both backends:
//!
//! ```text
//! cargo run --release -p kamping-bench --example sort_smoke             # threads
//! kampirun --ranks 4 -- target/release/examples/sort_smoke             # processes
//! ```
//!
//! Each rank sorts 10^5 random `u64` through the kamping binding layer,
//! then the job *proves* the result: local runs sorted, rank boundaries
//! ordered, element checksum conserved. Under `kampirun` the exact same
//! binary exercises the socket transport end to end (rendezvous, lazy
//! mesh, framed envelopes, collectives); without the launcher environment
//! it runs ranks as threads of this process.

use kamping_sort::sample_sort_kamping;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

fn wrapping_sum(data: &[u64]) -> u64 {
    data.iter().fold(0u64, |acc, &x| acc.wrapping_add(x))
}

fn main() {
    let mut args = std::env::args().skip(1);
    // Ignored under kampirun, where --ranks is authoritative.
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);

    let oks = kamping::run(ranks, |comm| {
        let mut data: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(0x5A17 + comm.rank() as u64);
            (0..n).map(|_| rng.next_u64()).collect()
        };
        let sum_before = wrapping_sum(&data);
        sample_sort_kamping(&comm, &mut data, 7).unwrap();

        // 1. The local partition is sorted.
        assert!(
            data.windows(2).all(|w| w[0] <= w[1]),
            "rank {}: local run not sorted",
            comm.rank()
        );

        // 2. Partitions are globally ordered and no element vanished:
        //    allgather (len, first, last) per rank and check the seams.
        let mut entry = Vec::with_capacity(24);
        entry.extend_from_slice(&(data.len() as u64).to_le_bytes());
        entry.extend_from_slice(&data.first().copied().unwrap_or(0).to_le_bytes());
        entry.extend_from_slice(&data.last().copied().unwrap_or(0).to_le_bytes());
        let all = comm.raw().allgather(&entry).unwrap();
        let stats: Vec<(u64, u64, u64)> = all
            .chunks_exact(24)
            .map(|c| {
                (
                    u64::from_le_bytes(c[..8].try_into().unwrap()),
                    u64::from_le_bytes(c[8..16].try_into().unwrap()),
                    u64::from_le_bytes(c[16..24].try_into().unwrap()),
                )
            })
            .collect();
        let total: u64 = stats.iter().map(|s| s.0).sum();
        assert_eq!(
            total as usize,
            n * comm.size(),
            "elements lost or duplicated"
        );
        let mut prev_last: Option<u64> = None;
        for &(len, first, last) in &stats {
            if len == 0 {
                continue;
            }
            if let Some(p) = prev_last {
                assert!(p <= first, "rank boundary out of order");
            }
            prev_last = Some(last);
        }

        // 3. The multiset is conserved (wrapping checksum survives any
        //    permutation, so pre/post sums must agree globally).
        let mut acc = wrapping_sum(&data)
            .wrapping_sub(sum_before)
            .to_le_bytes()
            .to_vec();
        comm.raw()
            .allreduce(
                &mut acc,
                &|a: &mut [u8], b: &[u8]| {
                    let x = u64::from_le_bytes(a.try_into().unwrap());
                    let y = u64::from_le_bytes(b.try_into().unwrap());
                    a.copy_from_slice(&x.wrapping_add(y).to_le_bytes());
                },
                8,
            )
            .unwrap();
        assert_eq!(
            u64::from_le_bytes(acc.try_into().unwrap()),
            0,
            "checksum drift: data corrupted in flight"
        );

        if comm.rank() == 0 {
            println!(
                "sample_sort ok: {} ranks x {} u64, globally sorted, checksum conserved",
                comm.size(),
                n
            );
        }
        true
    });
    assert!(oks.iter().all(|&ok| ok));
}
