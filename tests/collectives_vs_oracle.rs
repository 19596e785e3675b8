//! Every collective algorithm must be *observationally equivalent* to its
//! linear reference: same bytes on every rank, for every communicator size
//! from 1 to 9 plus 13, 16 and 64 — in particular the non-power-of-two
//! sizes where binomial trees go ragged and Bruck's rounds wrap.
//!
//! The references are the oracle functions of
//! `crates/mpi/tests/oracle/mod.rs`, written over public `send`/`recv`
//! only; no collective dispatch reaches them. Each case runs the blocking
//! call *and* its nonblocking name (`i*().wait()`), which drive the same
//! state machine through the inline and the registered driver.

#[path = "../crates/mpi/tests/oracle/mod.rs"]
mod oracle;

use std::sync::Arc;

use kamping_mpi::{CollStrategy, OwnedByteOp, RawComm, Universe};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

const SIZES: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 64];

/// All roots up to p = 9, the middle rank beyond.
fn roots(p: usize) -> Vec<usize> {
    if p <= 9 {
        (0..p).collect()
    } else {
        vec![p / 2]
    }
}

fn rank_bytes(seed: u64, rank: usize, len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (rank as u64) << 32);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

fn sum_u64(acc: &mut [u8], x: &[u8]) {
    for (a, b) in acc.chunks_exact_mut(8).zip(x.chunks_exact(8)) {
        let s = u64::from_le_bytes(a.try_into().unwrap())
            .wrapping_add(u64::from_le_bytes(b.try_into().unwrap()));
        a.copy_from_slice(&s.to_le_bytes());
    }
}

fn owned_sum() -> OwnedByteOp {
    Arc::new(sum_u64)
}

/// Rank `r`'s contribution to the reductions: `elems` u64 values.
fn reduce_input(rank: usize, elems: usize) -> Vec<u8> {
    (0..elems)
        .flat_map(|e| ((rank * 1000 + e) as u64).to_le_bytes())
        .collect()
}

/// Sequential reference for the sum of everyone's [`reduce_input`].
fn reduce_want(p: usize, elems: usize) -> Vec<u8> {
    (0..elems)
        .flat_map(|e| {
            (0..p)
                .map(|r| (r * 1000 + e) as u64)
                .fold(0u64, u64::wrapping_add)
                .to_le_bytes()
        })
        .collect()
}

/// bcast / ibcast / oracle from `root`; returns the broadcast bytes.
fn check_bcast(comm: &RawComm, data: &[u8], root: usize, what: &str) -> Vec<u8> {
    let seed = || {
        if comm.rank() == root {
            data.to_vec()
        } else {
            Vec::new()
        }
    };
    let mut tree = seed();
    comm.bcast(&mut tree, root).unwrap();
    let itree = comm.ibcast(seed(), root).unwrap().wait().unwrap();
    let mut naive = seed();
    oracle::bcast(comm, &mut naive, root);
    assert_eq!(tree, naive, "{what} root={root} rank={}", comm.rank());
    assert_eq!(itree, naive, "i {what} root={root} rank={}", comm.rank());
    tree
}

/// reduce / ireduce / oracle to `root`; returns the root's result.
fn check_reduce(comm: &RawComm, mine: &[u8], root: usize, what: &str) -> Vec<u8> {
    let mut tree = mine.to_vec();
    comm.reduce(&mut tree, &sum_u64, 8, root).unwrap();
    let itree = comm
        .ireduce(mine.to_vec(), owned_sum(), 8, root)
        .unwrap()
        .wait()
        .unwrap();
    let mut naive = mine.to_vec();
    oracle::reduce(comm, &mut naive, &sum_u64, 8, root);
    if comm.rank() == root {
        assert_eq!(tree, naive, "{what} root={root}");
        assert_eq!(itree, naive, "i {what} root={root}");
    } else {
        // Non-root buffers are consumed on both paths.
        assert!(tree.is_empty() && itree.is_empty(), "{what} root={root}");
    }
    naive
}

/// allreduce / iallreduce against oracle reduce + bcast.
fn check_allreduce(comm: &RawComm, mine: &[u8], what: &str) {
    let mut all = mine.to_vec();
    comm.allreduce(&mut all, &sum_u64, 8).unwrap();
    let iall = comm
        .iallreduce(mine.to_vec(), owned_sum(), 8)
        .unwrap()
        .wait()
        .unwrap();
    let mut naive = mine.to_vec();
    oracle::reduce(comm, &mut naive, &sum_u64, 8, 0);
    oracle::bcast(comm, &mut naive, 0);
    assert_eq!(all, naive, "{what} rank={}", comm.rank());
    assert_eq!(iall, naive, "i {what} rank={}", comm.rank());
}

#[test]
fn bcast_tree_matches_naive() {
    for p in SIZES {
        for len in [0usize, 1, 31, 32, 33, 1000] {
            let data = rank_bytes(0xB0, 0, len);
            let outs = Universe::run(p, |comm| {
                let comm = &comm;
                let mut last = Vec::new();
                for root in roots(p) {
                    last = check_bcast(comm, &data, root, &format!("bcast p={p} len={len}"));
                }
                last
            });
            for o in outs {
                assert_eq!(o, data, "p={p} len={len}");
            }
        }
    }
}

#[test]
fn segmented_bcast_matches_naive() {
    // Payload longer than the segment (several envelopes per link, ragged
    // tail) and the empty payload (one header-only envelope).
    for p in 1..=9 {
        for (len, segment) in [(1000usize, 64usize), (0, 64)] {
            let data = rank_bytes(0xB5, 0, len);
            Universe::run(p, |comm| {
                let comm = &comm;
                for root in 0..p {
                    let mut seg = if comm.rank() == root {
                        data.clone()
                    } else {
                        Vec::new()
                    };
                    comm.bcast_segmented(&mut seg, root, segment).unwrap();
                    let whole = check_bcast(comm, &data, root, "bcast vs segmented");
                    assert_eq!(seg, whole, "p={p} len={len} root={root}");
                    assert_eq!(seg, data);
                }
            });
        }
    }
}

#[test]
fn reduce_tree_matches_naive() {
    for p in SIZES {
        for elems in [1usize, 4, 17] {
            let outs = Universe::run(p, |comm| {
                let comm = &comm;
                let mine = reduce_input(comm.rank(), elems);
                let what = format!("reduce p={p} elems={elems}");
                for root in roots(p) {
                    let got = check_reduce(comm, &mine, root, &what);
                    if comm.rank() == root {
                        // Independent sequential reference at the root.
                        assert_eq!(got, reduce_want(p, elems), "{what} root={root}");
                    }
                }
                check_allreduce(comm, &mine, &format!("allreduce p={p} elems={elems}"));
                let mut tree = mine;
                comm.reduce(&mut tree, &sum_u64, 8, 0).unwrap();
                tree
            });
            assert_eq!(outs[0], reduce_want(p, elems), "p={p} elems={elems}");
        }
    }
}

#[test]
fn allgather_log_matches_naive() {
    for p in SIZES {
        for len in [0usize, 1, 9, 257] {
            let outs = Universe::run(p, |comm| {
                let comm = &comm;
                let mine = rank_bytes(0xA6, comm.rank(), len);
                let log = comm.allgather(&mine).unwrap();
                let ilog = comm.iallgather(mine.clone()).unwrap().wait().unwrap();
                let naive = oracle::allgatherv(comm, &mine);
                assert_eq!(log, naive, "p={p} len={len} rank={}", comm.rank());
                assert_eq!(ilog, naive, "i p={p} len={len} rank={}", comm.rank());
                log
            });
            let want: Vec<u8> = (0..p).flat_map(|r| rank_bytes(0xA6, r, len)).collect();
            for o in outs {
                assert_eq!(o, want, "p={p} len={len}");
            }
        }
    }
}

#[test]
fn allgatherv_log_matches_naive_ragged_counts() {
    for p in SIZES {
        let counts: Vec<usize> = (0..p).map(|r| (r * 5 + 3) % 7).collect();
        let outs = Universe::run(p, |comm| {
            let comm = &comm;
            let mine = rank_bytes(0xA7, comm.rank(), counts[comm.rank()]);
            let log = comm.allgatherv(&mine, &counts).unwrap();
            let ilog = comm
                .iallgatherv(mine.clone(), &counts)
                .unwrap()
                .wait()
                .unwrap();
            let naive = oracle::allgatherv(comm, &mine);
            assert_eq!(log, naive, "p={p} rank={}", comm.rank());
            assert_eq!(ilog, naive, "i p={p} rank={}", comm.rank());
            log
        });
        let want: Vec<u8> = (0..p)
            .flat_map(|r| rank_bytes(0xA7, r, counts[r]))
            .collect();
        for o in outs {
            assert_eq!(o, want, "p={p}");
        }
    }
}

#[test]
fn alltoall_bruck_matches_linear() {
    for p in SIZES {
        // Below and above the Bruck dispatch threshold, plus zero blocks.
        for block in [0usize, 1, 8, 300] {
            let outs = Universe::run(p, |comm| {
                let comm = &comm;
                let mut rng = SmallRng::seed_from_u64(0xA2A ^ comm.rank() as u64);
                let send: Vec<u8> = (0..p * block).map(|_| rng.next_u32() as u8).collect();
                let what = format!("p={p} block={block} rank={}", comm.rank());
                let bruck = comm.alltoall_bruck(&send).unwrap();
                let linear = oracle::alltoall(comm, &send);
                assert_eq!(bruck, linear, "bruck {what}");
                let auto = comm.alltoall(&send).unwrap();
                assert_eq!(auto, linear, "auto {what}");
                let iauto = comm.ialltoall(send.clone()).unwrap().wait().unwrap();
                assert_eq!(iauto, linear, "i auto {what}");
                // The same exchange through the variable-size surface.
                let counts = vec![block; p];
                let displs: Vec<usize> = (0..p).map(|r| r * block).collect();
                let v = comm
                    .alltoallv(&send, &counts, &displs, &counts, &displs)
                    .unwrap();
                assert_eq!(v, linear, "alltoallv {what}");
                let iv = comm
                    .ialltoallv(send, &counts, &displs, &counts, &displs)
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(iv, linear, "ialltoallv {what}");
                auto
            });
            // Cross-rank reference: rank d's slot s == rank s's slot d.
            for (d, out) in outs.iter().enumerate() {
                for s in 0..p {
                    let mut rng = SmallRng::seed_from_u64(0xA2A ^ s as u64);
                    let sent: Vec<u8> = (0..p * block).map(|_| rng.next_u32() as u8).collect();
                    assert_eq!(
                        &out[s * block..(s + 1) * block],
                        &sent[d * block..(d + 1) * block],
                        "p={p} block={block} {s}->{d}"
                    );
                }
            }
        }
    }
}

#[test]
fn barriers_synchronize_for_all_sizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    for p in SIZES {
        let before = AtomicUsize::new(0);
        Universe::run(p, |comm| {
            let comm = &comm;
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(before.load(Ordering::SeqCst), p, "dissemination p={p}");
            oracle::barrier(comm);
            before.fetch_add(1, Ordering::SeqCst);
            comm.ibarrier().unwrap().wait().unwrap();
            assert_eq!(before.load(Ordering::SeqCst), 2 * p, "ibarrier p={p}");
            oracle::barrier(comm);
            before.fetch_add(1, Ordering::SeqCst);
            oracle::barrier(comm);
            assert_eq!(before.load(Ordering::SeqCst), 3 * p, "naive p={p}");
        });
    }
}

#[test]
fn hier_strategy_matches_naive_small_sizes() {
    // The two-level shapes over synthetic hosts, every size and root: the
    // same machines as the flat case, over `hier_tree`'s output, with the
    // broadcasts segmented and a leader exchange inside the allreduce.
    for p in 1..=9 {
        for hosts in [2usize, 3] {
            let data = rank_bytes(0xB2, 0, 300);
            Universe::run(p, |comm| {
                let comm = &comm;
                comm.set_fake_hosts(hosts);
                comm.set_coll_strategy(CollStrategy::Hier);
                let mine = reduce_input(comm.rank(), 5);
                let what = format!("hier p={p} hosts={hosts}");
                for root in 0..p {
                    assert_eq!(check_bcast(comm, &data, root, &what), data);
                    check_reduce(comm, &mine, root, &what);
                }
                check_allreduce(comm, &mine, &what);
            });
        }
    }
}

#[test]
fn hier_strategy_matches_naive_at_p64() {
    // Force the two-level (node-leader + intra-node) algorithms on a
    // synthetic 4-host topology and check them against the naive
    // baselines at a production-ish rank count.
    let p = 64;
    for root in [0usize, 17, 63] {
        let data = rank_bytes(0xB1 ^ root as u64, 0, 777);
        let outs = Universe::run(p, |comm| {
            let comm = &comm;
            comm.set_fake_hosts(4);
            comm.set_coll_strategy(CollStrategy::Hier);
            let tree = check_bcast(comm, &data, root, "hier bcast");
            let mine = reduce_input(comm.rank(), 9);
            let red_naive = check_reduce(comm, &mine, root, "hier reduce");
            let mut all = mine.clone();
            comm.allreduce(&mut all, &sum_u64, 8).unwrap();
            let mut all_naive = red_naive;
            oracle::bcast(comm, &mut all_naive, root);
            assert_eq!(all, all_naive, "allreduce root={root} rank={}", comm.rank());
            check_allreduce(comm, &mine, "hier allreduce");
            tree
        });
        for o in outs {
            assert_eq!(o, data, "root={root}");
        }
    }
}

#[test]
fn rabenseifner_auto_kicks_in_and_matches_at_p64() {
    // A >=32 KiB payload at p=64 on one host takes the Rabenseifner
    // reduce-scatter + allgather schedule under Auto, through the blocking
    // and the nonblocking name; equivalence vs naive.
    let p = 64;
    let elems = 8 * 1024; // 64 KiB
    Universe::run(p, |comm| {
        let comm = &comm;
        let mine: Vec<u8> = (0..elems)
            .flat_map(|e| ((comm.rank() * 1_000_003 + e) as u64).to_le_bytes())
            .collect();
        check_allreduce(comm, &mine, "rabenseifner");
    });
}

#[test]
fn rabenseifner_matches_oracle_through_both_drivers() {
    // Element counts around the chunk count k (the largest power of two
    // <= p): none, fewer elements than chunks (empty chunks), one per
    // chunk, and a ragged many — at every size, so the non-power-of-two
    // fold runs too. Elements are sized so that every non-empty buffer
    // reaches 32 KiB, where `Auto` picks Rabenseifner at p >= 4 under both
    // names: `allreduce` runs the schedule through the inline driver,
    // `iallreduce` through the registered one. `allreduce_rabenseifner`
    // forces it where `Auto` would not (p < 4, the empty buffer).
    for p in SIZES {
        let k = 1usize << p.ilog2();
        for count in [0, 1, k - 1, k, 4097] {
            let elem = match count {
                0 => 8,
                _ => (32 * 1024usize).div_ceil(count).next_multiple_of(8),
            };
            Universe::run(p, |comm| {
                let comm = &comm;
                let what = format!("rabenseifner p={p} count={count} rank={}", comm.rank());
                let mine = reduce_input(comm.rank(), count * elem / 8);
                let mut naive = mine.clone();
                oracle::reduce(comm, &mut naive, &sum_u64, elem, 0);
                oracle::bcast(comm, &mut naive, 0);
                let mut forced = mine.clone();
                comm.allreduce_rabenseifner(&mut forced, &sum_u64, elem)
                    .unwrap();
                assert_eq!(forced, naive, "forced {what}");
                let mut auto = mine.clone();
                comm.allreduce(&mut auto, &sum_u64, elem).unwrap();
                assert_eq!(auto, naive, "{what}");
                let req = comm.iallreduce(mine, owned_sum(), elem);
                assert_eq!(req.unwrap().wait().unwrap(), naive, "i {what}");
            });
        }
    }
}

#[test]
fn mixed_sequence_stays_consistent_across_algorithms() {
    // Interleaving blocking, nonblocking and oracle collectives on one
    // communicator must not desynchronize the collective sequence numbers.
    for p in [3usize, 5, 8] {
        Universe::run(p, |comm| {
            let comm = &comm;
            let mut rng = SmallRng::seed_from_u64(99 + comm.rank() as u64);
            for round in 0..10 {
                let mine = vec![rng.gen_range(0u32..=255) as u8; round % 4 + 1];
                let a = comm.allgather(&mine).unwrap();
                let b = oracle::allgatherv(comm, &mine);
                assert_eq!(a, b, "p={p} round={round}");
                let mut pending = comm.iallgather(mine.clone()).unwrap();
                oracle::barrier(comm);
                let c = comm.allgather(&mine).unwrap();
                assert_eq!(a, c, "p={p} round={round}");
                assert_eq!(pending.wait().unwrap(), a, "p={p} round={round}");
            }
        });
    }
}

#[test]
fn nonblocking_names_follow_coll_strategy() {
    // `ix` must run the algorithm `x` runs under every strategy: same
    // results and the exact same envelopes (count and bytes) — at 48 bytes,
    // and at 64 KiB, where `Auto` switches the allreduce to Rabenseifner.
    type Case = fn(&RawComm, bool) -> Vec<u8>;
    let bcast: Case = |comm, nonblocking| {
        let seed = if comm.rank() == 1 {
            rank_bytes(0xC0, 1, 500)
        } else {
            Vec::new()
        };
        if nonblocking {
            return comm.ibcast(seed, 1).unwrap().wait().unwrap();
        }
        let mut buf = seed;
        comm.bcast(&mut buf, 1).unwrap();
        buf
    };
    let reduce: Case = |comm, nonblocking| {
        let mine = reduce_input(comm.rank(), 6);
        if nonblocking {
            let req = comm.ireduce(mine, owned_sum(), 8, 3);
            return req.unwrap().wait().unwrap();
        }
        let mut buf = mine;
        comm.reduce(&mut buf, &sum_u64, 8, 3).unwrap();
        buf
    };
    fn allreduce_of(comm: &RawComm, nonblocking: bool, elems: usize) -> Vec<u8> {
        let mine = reduce_input(comm.rank(), elems);
        if nonblocking {
            let req = comm.iallreduce(mine, owned_sum(), 8);
            return req.unwrap().wait().unwrap();
        }
        let mut buf = mine;
        comm.allreduce(&mut buf, &sum_u64, 8).unwrap();
        buf
    }
    let allreduce: Case = |comm, nonblocking| allreduce_of(comm, nonblocking, 6);
    let allreduce_64k: Case = |comm, nonblocking| allreduce_of(comm, nonblocking, 8 * 1024);
    // Results, envelope count and envelope bytes of one profiled run.
    let run = |p: usize, strategy: CollStrategy, hosts: Option<usize>, case: Case, nb: bool| {
        let (outs, profile) = Universe::run_profiled(p, |comm| {
            let comm = &comm;
            if let Some(hosts) = hosts {
                comm.set_fake_hosts(hosts);
            }
            comm.set_coll_strategy(strategy);
            case(comm, nb)
        });
        (outs, profile.total_messages(), profile.total_bytes())
    };
    for p in [4usize, 6] {
        for (name, case) in [
            ("bcast", bcast),
            ("reduce", reduce),
            ("allreduce", allreduce),
        ] {
            let mut bytes_by_strategy = Vec::new();
            for strategy in [CollStrategy::Flat, CollStrategy::Hier] {
                let blocking = run(p, strategy, Some(2), case, false);
                let nonblocking = run(p, strategy, Some(2), case, true);
                assert_eq!(blocking, nonblocking, "{name} p={p} {strategy:?}");
                bytes_by_strategy.push(blocking.2);
            }
            // The strategies are told apart by their envelopes: two-level
            // broadcasts carry a segment header per link, the leader
            // exchange of the two-level allreduce moves different bytes.
            if name != "reduce" {
                assert_ne!(bytes_by_strategy[0], bytes_by_strategy[1], "{name} p={p}");
            }
        }
        // One host, 64 KiB: `Auto` leaves the tree for Rabenseifner's
        // halving/doubling — under both names, told from the flat tree by
        // its envelope count (the same bytes in total, in more and smaller
        // envelopes off the critical path).
        let blocking = run(p, CollStrategy::Auto, None, allreduce_64k, false);
        let nonblocking = run(p, CollStrategy::Auto, None, allreduce_64k, true);
        assert_eq!(blocking, nonblocking, "allreduce 64 KiB p={p} Auto");
        let flat = run(p, CollStrategy::Flat, None, allreduce_64k, false);
        assert_eq!(blocking.0, flat.0, "allreduce 64 KiB p={p}");
        assert_ne!(
            blocking.1, flat.1,
            "allreduce 64 KiB p={p}: Auto ran the tree"
        );
    }
}
