//! Traffic pins: the messages, payload bytes and `issend` calls one BFS
//! posts, summed over all ranks, for every frontier-exchange strategy and
//! for the Table I implementations, on fixed GNM, RGG and RHG graphs at
//! p = 2, 3 and 4. The counts are exact (own-rank counters, no clock), so
//! a change to how a level buckets or flattens its frontier that alters a
//! single message or byte on the wire fails here.
//!
//! A second test pins NBX's `issend` count level by level on a path graph
//! whose ranks take turns having nothing to send: an idle rank must post
//! no message at all, not one empty message per destination.

use kamping::prelude::*;
use kamping_graphs::bfs::{
    absorb_candidates, bfs_kamping, bfs_overlapped, bfs_plain, bfs_with_strategy, expand_frontier,
    ExchangeStrategy, Exchanger,
};
use kamping_graphs::gen::{gnm, rgg2d, rhg, rhg_radius};
use kamping_graphs::{DistGraph, VertexId, UNREACHED};
use kamping_mpi::Op;

/// Messages, payload bytes and `issend` calls posted by this rank while
/// `f` runs.
fn own_traffic(comm: &Communicator, f: impl FnOnce()) -> [u64; 3] {
    let me = comm.raw().my_global_rank();
    let before = comm.profile().ranks[me].clone();
    f();
    let after = comm.profile().ranks[me].clone();
    [
        after.messages_sent - before.messages_sent,
        after.bytes_sent - before.bytes_sent,
        after.calls(Op::Issend) - before.calls(Op::Issend),
    ]
}

fn family(comm: &Communicator, name: &str) -> DistGraph {
    match name {
        "gnm" => gnm(comm, 120, 300, 3).unwrap(),
        "rgg" => rgg2d(comm, 150, 0.15, 5).unwrap(),
        "rhg" => rhg(comm, 150, rhg_radius(150, 8.0), 7).unwrap(),
        _ => unreachable!(),
    }
}

/// Traffic of every variant on one family, summed over all ranks and
/// labelled as in the Fig. 10 legend.
fn traffic(p: usize, name: &str) -> Vec<(&'static str, [u64; 3])> {
    let per_rank = kamping::run(p, |comm| {
        let g = family(&comm, name);
        let mut rows: Vec<(&'static str, [u64; 3])> = ExchangeStrategy::ALL
            .iter()
            .map(|&strategy| {
                let t = own_traffic(&comm, || {
                    bfs_with_strategy(&comm, &g, 0, strategy).unwrap();
                });
                (strategy.label(), t)
            })
            .collect();
        rows.push((
            "bfs_kamping",
            own_traffic(&comm, || {
                bfs_kamping(&comm, &g, 0).unwrap();
            }),
        ));
        rows.push((
            "bfs_overlapped",
            own_traffic(&comm, || {
                bfs_overlapped(&comm, &g, 0).unwrap();
            }),
        ));
        rows.push((
            "bfs_plain",
            own_traffic(&comm, || {
                bfs_plain(comm.raw(), &g, 0);
            }),
        ));
        rows
    });
    (0..per_rank[0].len())
        .map(|v| {
            let sum = std::array::from_fn(|i| per_rank.iter().map(|rows| rows[v].1[i]).sum());
            (per_rank[0][v].0, sum)
        })
        .collect()
}

/// `(family, p, variant, messages, payload bytes, issend calls)`, summed
/// over all ranks for one BFS from vertex 0. Recorded with the
/// `HashMap`-bucketed, sort-deduplicated level kernels; the rank-indexed
/// buckets and the bitmap absorb must reproduce them exactly.
#[rustfmt::skip]
const PINS: &[(&str, usize, &str, u64, u64, u64)] = &[
    ("gnm", 2, "kamping", 38, 2558, 0),
    ("gnm", 2, "mpi_neighbor", 40, 3006, 0),
    ("gnm", 2, "mpi_neighbor_rebuild", 50, 3086, 0),
    ("gnm", 2, "kamping_sparse", 43, 2990, 17),
    ("gnm", 2, "kamping_grid", 42, 2862, 0),
    ("gnm", 2, "kamping_auto", 38, 2558, 0),
    ("gnm", 2, "bfs_kamping", 38, 2558, 0),
    ("gnm", 2, "bfs_overlapped", 62, 2654, 0),
    ("gnm", 2, "bfs_plain", 38, 2558, 0),
    ("gnm", 3, "kamping", 100, 3500, 0),
    ("gnm", 3, "mpi_neighbor", 88, 3636, 0),
    ("gnm", 3, "mpi_neighbor_rebuild", 118, 3876, 0),
    ("gnm", 3, "kamping_sparse", 100, 3588, 36),
    ("gnm", 3, "kamping_grid", 112, 5780, 0),
    ("gnm", 3, "kamping_auto", 100, 3500, 0),
    ("gnm", 3, "bfs_kamping", 100, 3500, 0),
    ("gnm", 3, "bfs_overlapped", 172, 3788, 0),
    ("gnm", 3, "bfs_plain", 100, 3500, 0),
    ("gnm", 4, "kamping", 186, 4202, 0),
    ("gnm", 4, "mpi_neighbor", 146, 4018, 0),
    ("gnm", 4, "mpi_neighbor_rebuild", 186, 4498, 0),
    ("gnm", 4, "kamping_sparse", 151, 3922, 61),
    ("gnm", 4, "kamping_grid", 202, 7402, 0),
    ("gnm", 4, "kamping_auto", 186, 4202, 0),
    ("gnm", 4, "bfs_kamping", 186, 4202, 0),
    ("gnm", 4, "bfs_overlapped", 330, 4778, 0),
    ("gnm", 4, "bfs_plain", 186, 4202, 0),
    ("rgg", 2, "kamping", 74, 874, 0),
    ("rgg", 2, "mpi_neighbor", 76, 1818, 0),
    ("rgg", 2, "mpi_neighbor_rebuild", 98, 1994, 0),
    ("rgg", 2, "kamping_sparse", 73, 1802, 23),
    ("rgg", 2, "kamping_grid", 78, 1154, 0),
    ("rgg", 2, "kamping_auto", 74, 874, 0),
    ("rgg", 2, "bfs_kamping", 74, 874, 0),
    ("rgg", 2, "bfs_overlapped", 122, 1066, 0),
    ("rgg", 2, "bfs_plain", 74, 874, 0),
    ("rgg", 3, "kamping", 196, 2180, 0),
    ("rgg", 3, "mpi_neighbor", 142, 2684, 0),
    ("rgg", 3, "mpi_neighbor_rebuild", 208, 3212, 0),
    ("rgg", 3, "kamping_sparse", 157, 2636, 33),
    ("rgg", 3, "kamping_grid", 208, 3780, 0),
    ("rgg", 3, "kamping_auto", 196, 2180, 0),
    ("rgg", 3, "bfs_kamping", 196, 2180, 0),
    ("rgg", 3, "bfs_overlapped", 340, 2756, 0),
    ("rgg", 3, "bfs_plain", 196, 2180, 0),
    ("rgg", 4, "kamping", 366, 3406, 0),
    ("rgg", 4, "mpi_neighbor", 206, 3350, 0),
    ("rgg", 4, "mpi_neighbor_rebuild", 294, 4406, 0),
    ("rgg", 4, "kamping_sparse", 223, 3254, 49),
    ("rgg", 4, "kamping_grid", 382, 5422, 0),
    ("rgg", 4, "kamping_auto", 366, 3406, 0),
    ("rgg", 4, "bfs_kamping", 366, 3406, 0),
    ("rgg", 4, "bfs_overlapped", 654, 4558, 0),
    ("rgg", 4, "bfs_plain", 366, 3406, 0),
    ("rhg", 2, "kamping", 50, 706, 0),
    ("rhg", 2, "mpi_neighbor", 52, 1746, 0),
    ("rhg", 2, "mpi_neighbor_rebuild", 66, 1858, 0),
    ("rhg", 2, "kamping_sparse", 53, 1730, 19),
    ("rhg", 2, "kamping_grid", 54, 986, 0),
    ("rhg", 2, "kamping_auto", 50, 706, 0),
    ("rhg", 2, "bfs_kamping", 50, 706, 0),
    ("rhg", 2, "bfs_overlapped", 82, 834, 0),
    ("rhg", 2, "bfs_plain", 50, 706, 0),
    ("rhg", 3, "kamping", 132, 1444, 0),
    ("rhg", 3, "mpi_neighbor", 114, 2236, 0),
    ("rhg", 3, "mpi_neighbor_rebuild", 156, 2572, 0),
    ("rhg", 3, "kamping_sparse", 112, 2188, 28),
    ("rhg", 3, "kamping_grid", 144, 2388, 0),
    ("rhg", 3, "kamping_auto", 132, 1444, 0),
    ("rhg", 3, "bfs_kamping", 132, 1444, 0),
    ("rhg", 3, "bfs_overlapped", 228, 1828, 0),
    ("rhg", 3, "bfs_plain", 132, 1444, 0),
    ("rhg", 4, "kamping", 246, 1798, 0),
    ("rhg", 4, "mpi_neighbor", 174, 2246, 0),
    ("rhg", 4, "mpi_neighbor_rebuild", 230, 2918, 0),
    ("rhg", 4, "kamping_sparse", 156, 2150, 38),
    ("rhg", 4, "kamping_grid", 262, 3446, 0),
    ("rhg", 4, "kamping_auto", 246, 1798, 0),
    ("rhg", 4, "bfs_kamping", 246, 1798, 0),
    ("rhg", 4, "bfs_overlapped", 438, 2566, 0),
    ("rhg", 4, "bfs_plain", 246, 1798, 0),
];

#[test]
fn bfs_traffic_is_pinned() {
    let mut measured = Vec::new();
    for name in ["gnm", "rgg", "rhg"] {
        for p in [2, 3, 4] {
            for (variant, [msgs, bytes, issends]) in traffic(p, name) {
                measured.push((name, p, variant, msgs, bytes, issends));
            }
        }
    }
    let table: String = measured.iter().map(|r| format!("    {r:?},\n")).collect();
    assert_eq!(measured, PINS, "measured traffic:\n{table}");
}

/// Path 0-1-…-5 over two ranks (rank 0 owns 0..3, rank 1 owns 3..6), BFS
/// from 0 through the NBX exchange. Rank 1 has nothing to send on levels
/// 0-2 and rank 0 nothing on levels 3-5, so those levels post no `issend`
/// from that rank; a rank that reaches its own vertices sends to itself.
#[test]
fn sparse_sends_only_nonempty_buckets() {
    let per_rank = kamping::run(2, |comm| {
        let n = 6u64;
        let edges: Vec<(u64, u64)> = (0..n - 1).flat_map(|v| [(v, v + 1), (v + 1, v)]).collect();
        let g = DistGraph::from_scattered_edges(&comm, n, edges).unwrap();
        let mut ex = Exchanger::new(&comm, &g, ExchangeStrategy::Sparse).unwrap();
        let mut dist = vec![UNREACHED; g.local_size()];
        let mut frontier: Vec<VertexId> = Vec::new();
        if g.is_local(0) {
            dist[g.local_index(0)] = 0;
            frontier.push(0);
        }
        let mut issends = Vec::new();
        for level in 0..n {
            let [_, _, calls] = own_traffic(&comm, || {
                let buckets = expand_frontier(&g, &frontier, &mut dist, level);
                let candidates = ex.exchange(&comm, buckets).unwrap();
                frontier = absorb_candidates(&g, &candidates, &mut dist, level);
            });
            issends.push(calls);
        }
        (issends, dist)
    });
    // Level 0: 0 → {1} (self). 1: 1 → {2} (self). 2: 2 → {3} (rank 1).
    // 3: 3 → {2} (rank 0) and {4} (self). 4: 4 → {5} (self). 5: nothing.
    assert_eq!(
        per_rank[0].0,
        vec![1, 1, 1, 0, 0, 0],
        "rank 0 issends per level"
    );
    assert_eq!(
        per_rank[1].0,
        vec![0, 0, 0, 2, 1, 0],
        "rank 1 issends per level"
    );
    assert_eq!(per_rank[0].1, vec![0, 1, 2]);
    assert_eq!(per_rank[1].1, vec![3, 4, 5]);
}

/// `gnm` ships every generated edge to its source's owner through
/// `DistGraph::from_scattered_edges`; its traffic, summed over all ranks,
/// is pinned the same way for `(p, messages, payload bytes)`.
#[test]
fn gnm_setup_traffic_is_pinned() {
    let measured: Vec<(usize, u64, u64)> = [2, 3, 4]
        .into_iter()
        .map(|p| {
            let per_rank = kamping::run(p, |comm| {
                own_traffic(&comm, || {
                    gnm(&comm, 120, 300, 3).unwrap();
                })
            });
            let sum = |i: usize| per_rank.iter().map(|t| t[i]).sum::<u64>();
            (p, sum(0), sum(1))
        })
        .collect();
    assert_eq!(measured, [(2, 4, 4784), (3, 12, 5984), (4, 24, 6928)]);
}
