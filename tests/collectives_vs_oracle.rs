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

use kamping_mpi::{AlltoallAlgo, OwnedByteOp, RawComm, Universe};
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
fn nonblocking_names_follow_the_size_rule() {
    // `ix` must run the algorithm `x` runs: same results and the exact
    // same envelopes (count and bytes). Every rooted collective runs over
    // the one binomial tree; the only size rule left is the allreduce's,
    // which leaves the tree for Rabenseifner from 32 KiB at p >= 4.
    // `set_fake_hosts` feeds only the alltoall rule, so it changes none
    // of this.
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
    const ELEMS_64K: usize = 8 * 1024;
    let allreduce_8b: Case = |comm, nonblocking| allreduce_of(comm, nonblocking, 1);
    let allreduce_48b: Case = |comm, nonblocking| allreduce_of(comm, nonblocking, 6);
    let allreduce_64k: Case = |comm, nonblocking| allreduce_of(comm, nonblocking, ELEMS_64K);
    let forced_64k: Case = |comm, _| {
        let mut buf = reduce_input(comm.rank(), ELEMS_64K);
        comm.allreduce_rabenseifner(&mut buf, &sum_u64, 8).unwrap();
        buf
    };
    // Results, envelope count and envelope bytes of one profiled run.
    let run = |p: usize, hosts: Option<usize>, case: Case, nb: bool| {
        let (outs, profile) = Universe::run_profiled(p, |comm| {
            if let Some(hosts) = hosts {
                comm.set_fake_hosts(hosts);
            }
            case(&comm, nb)
        });
        (outs, profile.total_messages(), profile.total_bytes())
    };
    // Every rank's result of the oracle's reduce + bcast.
    let oracle_allreduce = |p: usize, elems: usize| {
        Universe::run(p, |comm| {
            let mut naive = reduce_input(comm.rank(), elems);
            oracle::reduce(&comm, &mut naive, &sum_u64, 8, 0);
            oracle::bcast(&comm, &mut naive, 0);
            naive
        })
    };
    for p in [4usize, 6] {
        let tree_msgs = 2 * (p as u64 - 1);
        for (name, case) in [
            ("bcast", bcast),
            ("reduce", reduce),
            ("allreduce 48 B", allreduce_48b),
        ] {
            let blocking = run(p, None, case, false);
            assert_eq!(blocking, run(p, None, case, true), "{name} p={p}");
            assert_eq!(
                blocking,
                run(p, Some(2), case, false),
                "{name} p={p} 2 hosts"
            );
        }
        // 8 B: the tree's reduce up and broadcast down, p − 1 envelopes
        // each — on one host and on two (kbench's
        // `mpi.hier.msgs_per_allreduce_p4_2hosts` = 6 at p = 4).
        let naive = oracle_allreduce(p, 1);
        for hosts in [None, Some(2)] {
            for nb in [false, true] {
                let (outs, msgs, bytes) = run(p, hosts, allreduce_8b, nb);
                assert_eq!(outs, naive, "allreduce 8 B p={p} {hosts:?} nb={nb}");
                assert_eq!(msgs, tree_msgs, "allreduce 8 B p={p} {hosts:?} nb={nb}");
                assert_eq!(bytes, 8 * tree_msgs, "allreduce 8 B p={p} {hosts:?}");
            }
        }
        // 64 KiB: `Auto`, `iallreduce` and the forced schedule all run
        // Rabenseifner's halving/doubling — told from the tree by its
        // envelope count: the same 2·(p−1)·64 KiB in total, in more and
        // smaller envelopes off the critical path. p = 4: 4 ranks × 4
        // rounds; p = 6: the 2 parked odd ranks send 1, their partners 5,
        // the 2 unpaired ranks 4.
        let raben_msgs = match p {
            4 => 16,
            6 => 20,
            _ => unreachable!(),
        };
        let auto = run(p, None, allreduce_64k, false);
        assert_eq!(
            auto,
            run(p, None, allreduce_64k, true),
            "iallreduce 64 KiB p={p}"
        );
        assert_eq!(auto, run(p, None, forced_64k, false), "forced 64 KiB p={p}");
        assert_eq!(
            auto.0,
            oracle_allreduce(p, ELEMS_64K),
            "allreduce 64 KiB p={p}"
        );
        assert_eq!(auto.1, raben_msgs, "allreduce 64 KiB p={p}");
        assert_ne!(
            auto.1, tree_msgs,
            "allreduce 64 KiB p={p}: Auto ran the tree"
        );
        assert_eq!(auto.2, tree_msgs * 64 * 1024, "allreduce 64 KiB p={p}");
    }
}

#[test]
fn rooted_collectives_ignore_fake_hosts_small_sizes() {
    // `set_fake_hosts` is read by the alltoall rule only: under 2 and 3
    // synthetic hosts every size and root still runs the one tree — the
    // same results and the exact same envelopes (count and bytes) as on
    // one host — and still agrees with the oracle under both names.
    type Out = (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<u8>);
    let (len, elems) = (300usize, 5usize);
    let data = rank_bytes(0xB2, 0, len);
    for p in 1..=9 {
        let want = reduce_want(p, elems);
        let run = |hosts: Option<usize>| {
            let (outs, profile) = Universe::run_profiled(p, |comm| -> Out {
                if let Some(hosts) = hosts {
                    comm.set_fake_hosts(hosts);
                }
                let mine = reduce_input(comm.rank(), elems);
                let mut bcasts = Vec::new();
                let mut reduces = Vec::new();
                for root in 0..p {
                    let mut buf = if comm.rank() == root {
                        data.clone()
                    } else {
                        Vec::new()
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    bcasts.push(buf);
                    let mut red = mine.clone();
                    comm.reduce(&mut red, &sum_u64, 8, root).unwrap();
                    reduces.push(red);
                }
                let mut all = mine;
                comm.allreduce(&mut all, &sum_u64, 8).unwrap();
                (bcasts, reduces, all)
            });
            (outs, profile.total_messages(), profile.total_bytes())
        };
        let one_host = run(None);
        for (rank, (bcasts, reduces, all)) in one_host.0.iter().enumerate() {
            for root in 0..p {
                assert_eq!(bcasts[root], data, "p={p} root={root} rank={rank}");
                let red_want = if rank == root { &want[..] } else { &[] };
                assert_eq!(reduces[root], red_want, "p={p} root={root} rank={rank}");
            }
            assert_eq!(*all, want, "p={p} rank={rank}");
        }
        for hosts in [2usize, 3] {
            assert_eq!(run(Some(hosts)), one_host, "p={p} hosts={hosts}");
            Universe::run(p, |comm| {
                let comm = &comm;
                comm.set_fake_hosts(hosts);
                let mine = reduce_input(comm.rank(), elems);
                let what = format!("p={p} hosts={hosts}");
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
fn tree_collectives_post_p_minus_1_envelopes_from_every_root_at_p64() {
    // One binomial tree for every rooted collective, whatever the root:
    // a bcast and a reduce post exactly p − 1 envelopes each and a small
    // allreduce 2·(p − 1) (the reduce up, the bcast down), each carrying
    // the bare payload. Roots 0, an odd interior rank and p − 1 at p = 64,
    // a payload that is no multiple of anything; results against the
    // sequential sum, then against the oracle under both names.
    let p = 64;
    let (len, elems) = (777usize, 9usize);
    let want = reduce_want(p, elems);
    let edges = (p - 1) as u64;
    for root in [0usize, 17, 63] {
        let data = rank_bytes(0xB1 ^ root as u64, 0, len);
        let (outs, profile) = Universe::run_profiled(p, |comm| {
            let mut buf = if comm.rank() == root {
                data.clone()
            } else {
                Vec::new()
            };
            comm.bcast(&mut buf, root).unwrap();
            let mut red = reduce_input(comm.rank(), elems);
            comm.reduce(&mut red, &sum_u64, 8, root).unwrap();
            let mut all = reduce_input(comm.rank(), elems);
            comm.allreduce(&mut all, &sum_u64, 8).unwrap();
            (buf, red, all)
        });
        for (rank, (buf, red, all)) in outs.iter().enumerate() {
            assert_eq!(*buf, data, "bcast root={root} rank={rank}");
            let red_want = if rank == root { &want[..] } else { &[] };
            assert_eq!(*red, red_want, "reduce root={root} rank={rank}");
            assert_eq!(*all, want, "allreduce root={root} rank={rank}");
        }
        assert_eq!(profile.total_messages(), 4 * edges, "root={root}");
        assert_eq!(
            profile.total_bytes(),
            edges * (len + 3 * 8 * elems) as u64,
            "root={root}"
        );
        Universe::run(p, |comm| {
            let comm = &comm;
            let what = format!("p64 root={root}");
            check_bcast(comm, &data, root, &what);
            let mine = reduce_input(comm.rank(), elems);
            check_reduce(comm, &mine, root, &what);
            check_allreduce(comm, &mine, &what);
        });
    }
}

#[test]
fn alltoall_auto_goes_grid_across_hosts_from_p16() {
    // The alltoall `Auto` rule: the grid from p >= 48, or from p >= 16
    // when the communicator spans hosts — the branch `set_fake_hosts`
    // exists to reach. Which algorithm ran is read off the envelopes:
    // `Auto` must post exactly what the explicit algorithm posts, and the
    // grid's three phases post a different count than the dense exchange.
    // Results against the oracle's linear alltoall.
    let block = 24usize;
    let send_of = |rank: usize, p: usize| rank_bytes(0xA1A, rank, p * block);
    let run = |p: usize, hosts: Option<usize>, algo: AlltoallAlgo| {
        let (outs, profile) = Universe::run_profiled(p, |comm| {
            if let Some(hosts) = hosts {
                comm.set_fake_hosts(hosts);
            }
            let parts: Vec<Vec<u8>> = send_of(comm.rank(), p)
                .chunks_exact(block)
                .map(<[u8]>::to_vec)
                .collect();
            comm.alltoallv_strategy(&parts, algo).unwrap().concat()
        });
        (outs, profile.total_messages(), profile.total_bytes())
    };
    for (p, hosts, want) in [
        (16usize, None, AlltoallAlgo::Dense),
        (16, Some(2), AlltoallAlgo::Grid),
        (15, Some(2), AlltoallAlgo::Dense),
        (48, None, AlltoallAlgo::Grid),
    ] {
        let auto = run(p, hosts, AlltoallAlgo::Auto);
        assert_eq!(
            auto,
            run(p, None, want),
            "p={p} {hosts:?}: Auto != {want:?}"
        );
        let other = match want {
            AlltoallAlgo::Dense => AlltoallAlgo::Grid,
            _ => AlltoallAlgo::Dense,
        };
        let (other_outs, other_msgs, _) = run(p, None, other);
        assert_eq!(auto.0, other_outs, "p={p} {hosts:?}: {other:?} results");
        assert_ne!(auto.1, other_msgs, "p={p} {hosts:?}: {other:?} envelopes");
        let linear = Universe::run(p, |comm| oracle::alltoall(&comm, &send_of(comm.rank(), p)));
        assert_eq!(auto.0, linear, "p={p} {hosts:?}: oracle");
    }
}
