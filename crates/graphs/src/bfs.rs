//! Distributed breadth-first search (paper §IV-B, Fig. 9, Fig. 10).
//!
//! The graph is distributed by contiguous vertex ranges; each BFS level
//! expands the local frontier and exchanges the discovered remote vertices
//! with their owners. That *frontier exchange* is exactly the irregular,
//! dynamically-changing personalized communication §V-A is about, so the
//! exchange is pluggable ([`ExchangeStrategy`]): built-in dense
//! `alltoallv`, neighborhood collectives (static topology, or rebuilt
//! every level to model dynamic patterns), NBX sparse all-to-all, and 2D
//! grid all-to-all — the curves of Fig. 10.
//!
//! Two additional self-contained implementations exist for the Table I
//! lines-of-code comparison, delimited by `LOC-BEGIN`/`LOC-END` markers
//! counted by the `table1_loc` harness:
//! [`bfs_plain`] uses only the low-level substrate API (the "plain MPI"
//! column: hand-rolled count exchange, displacement computation and byte
//! packing), while [`bfs_kamping`] is the paper's Fig. 9.

use kamping::prelude::*;
use kamping_mpi::RawComm;
use kamping_plugins::{GridAlltoall, GridCommunicator, SparseAlltoall};

use crate::dist_graph::{DistGraph, VertexId, UNREACHED};

/// How the per-level frontier exchange is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeStrategy {
    /// Dense `alltoallv` through the kamping binding layer.
    BuiltinAlltoallv,
    /// `neighbor_alltoallv` on a graph topology built **once** from the
    /// graph's static rank adjacency.
    Neighbor,
    /// `neighbor_alltoallv` with the topology **rebuilt before every
    /// exchange** — the paper's model of dynamic communication patterns
    /// ("MPI_Neighbor_alltoallv does not scale" under rebuilds, §V-A).
    NeighborRebuild,
    /// NBX sparse all-to-all (kamping-plugins).
    Sparse,
    /// Two-dimensional grid all-to-all (kamping-plugins).
    Grid,
    /// The substrate's strategy-selection layer
    /// ([`RawComm::alltoallv_strategy`] with `AlltoallAlgo::Auto`): picks
    /// dense or grid from payload size, locality and communicator size,
    /// overridable via `KAMPING_ALLTOALL`.
    Adaptive,
}

impl ExchangeStrategy {
    /// All strategies, for sweep harnesses.
    pub const ALL: [ExchangeStrategy; 6] = [
        ExchangeStrategy::BuiltinAlltoallv,
        ExchangeStrategy::Neighbor,
        ExchangeStrategy::NeighborRebuild,
        ExchangeStrategy::Sparse,
        ExchangeStrategy::Grid,
        ExchangeStrategy::Adaptive,
    ];

    /// Label used in benchmark output (matches the Fig. 10 legend).
    pub fn label(self) -> &'static str {
        match self {
            ExchangeStrategy::BuiltinAlltoallv => "kamping",
            ExchangeStrategy::Neighbor => "mpi_neighbor",
            ExchangeStrategy::NeighborRebuild => "mpi_neighbor_rebuild",
            ExchangeStrategy::Sparse => "kamping_sparse",
            ExchangeStrategy::Grid => "kamping_grid",
            ExchangeStrategy::Adaptive => "kamping_auto",
        }
    }
}

/// Prepared exchange state (grid/topology built once where applicable).
pub struct Exchanger {
    strategy: ExchangeStrategy,
    grid: Option<GridCommunicator>,
    neighbor_comm: Option<RawComm>,
    neighbor_ranks: Vec<usize>,
}

impl Exchanger {
    /// Builds the exchanger for `strategy` (collective).
    pub fn new(comm: &Communicator, g: &DistGraph, strategy: ExchangeStrategy) -> KResult<Self> {
        let mut ex = Exchanger {
            strategy,
            grid: None,
            neighbor_comm: None,
            neighbor_ranks: Vec::new(),
        };
        match strategy {
            ExchangeStrategy::Grid => ex.grid = Some(comm.make_grid()?),
            ExchangeStrategy::Neighbor | ExchangeStrategy::NeighborRebuild => {
                ex.neighbor_ranks = g.neighbor_ranks();
                if strategy == ExchangeStrategy::Neighbor {
                    ex.neighbor_comm = Some(comm.raw().dist_graph_create_adjacent(
                        ex.neighbor_ranks.clone(),
                        ex.neighbor_ranks.clone(),
                    )?);
                }
            }
            _ => {}
        }
        Ok(ex)
    }

    /// Delivers `buckets` (vertex ids indexed by destination rank, one
    /// bucket per rank) and returns every received id. Collective.
    pub fn exchange(
        &mut self,
        comm: &Communicator,
        mut buckets: Vec<Vec<VertexId>>,
    ) -> KResult<Vec<VertexId>> {
        match self.strategy {
            ExchangeStrategy::BuiltinAlltoallv => {
                let flat = with_flattened(buckets, comm.size());
                comm.alltoallv_vec(&flat.data, &flat.counts)
            }
            ExchangeStrategy::Sparse => Ok(self
                .comm_sparse(comm, buckets)?
                .into_iter()
                .flatten()
                .collect()),
            ExchangeStrategy::Grid => {
                let flat = with_flattened(buckets, comm.size());
                let grid = self.grid.as_ref().expect("grid built in new()");
                Ok(grid.alltoallv(&flat.data, &flat.counts)?.0)
            }
            ExchangeStrategy::Adaptive => {
                let parts: Vec<Vec<u8>> = buckets
                    .iter()
                    .map(|vs| kamping::types::pod_as_bytes(vs).to_vec())
                    .collect();
                let by_source = comm
                    .raw()
                    .alltoallv_strategy(&parts, kamping_mpi::AlltoallAlgo::Auto)?;
                let mut out = Vec::new();
                for bytes in by_source {
                    out.extend(kamping::types::bytes_to_pods::<VertexId>(&bytes)?);
                }
                Ok(out)
            }
            ExchangeStrategy::Neighbor | ExchangeStrategy::NeighborRebuild => {
                // Messages may only target statically-adjacent ranks.
                let parts: Vec<Vec<u8>> = self
                    .neighbor_ranks
                    .iter()
                    .map(|&r| {
                        let vs = std::mem::take(&mut buckets[r]);
                        kamping::types::pod_as_bytes(&vs).to_vec()
                    })
                    .collect();
                debug_assert!(
                    buckets.iter().all(Vec::is_empty),
                    "frontier left the static topology"
                );
                let rebuilt;
                let ncomm = if self.strategy == ExchangeStrategy::NeighborRebuild {
                    // Dynamic pattern: pay the topology (re)construction.
                    rebuilt = comm.raw().dist_graph_create_adjacent(
                        self.neighbor_ranks.clone(),
                        self.neighbor_ranks.clone(),
                    )?;
                    &rebuilt
                } else {
                    self.neighbor_comm
                        .as_ref()
                        .expect("static topology built in new()")
                };
                let recv = ncomm.neighbor_alltoallv(&parts)?;
                let mut out = Vec::new();
                for bytes in recv {
                    out.extend(kamping::types::bytes_to_pods::<VertexId>(&bytes)?);
                }
                Ok(out)
            }
        }
    }

    fn comm_sparse(
        &self,
        comm: &Communicator,
        buckets: Vec<Vec<VertexId>>,
    ) -> KResult<Vec<Vec<VertexId>>> {
        // Only non-empty buckets become messages: NBX sends one per entry.
        let messages: std::collections::HashMap<usize, Vec<VertexId>> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, vs)| !vs.is_empty())
            .collect();
        Ok(comm
            .sparse_alltoall(messages)?
            .into_iter()
            .map(|m| m.data)
            .collect())
    }
}

/// Expands the current frontier: marks newly discovered local vertices,
/// buckets remote ones by owner. Returns one bucket per rank, indexed by
/// destination. Shared by all implementations (the paper extracts shared
/// logic the same way for its LoC comparison).
pub fn expand_frontier(
    g: &DistGraph,
    frontier: &[VertexId],
    dist: &mut [u64],
    level: u64,
) -> Vec<Vec<VertexId>> {
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); g.ranks];
    for &v in frontier {
        for &w in g.neighbors(v) {
            if g.is_local(w) {
                let i = g.local_index(w);
                if dist[i] == UNREACHED {
                    // Pre-mark and route through the self bucket so every
                    // exchange strategy shares one code path.
                    dist[i] = level + 1;
                    buckets[g.rank].push(w);
                }
            } else {
                buckets[g.owner_of(w)].push(w);
            }
        }
    }
    buckets
}

/// Filters received candidates into the next frontier, setting distances.
/// The frontier is ascending and duplicate-free: accepted vertices are
/// marked in a bitmap over the local range and read back word by word.
pub fn absorb_candidates(
    g: &DistGraph,
    candidates: &[VertexId],
    dist: &mut [u64],
    level: u64,
) -> Vec<VertexId> {
    let mut accepted = vec![0u64; g.local_size().div_ceil(64)];
    for &w in candidates {
        let i = g.local_index(w);
        if dist[i] == UNREACHED || dist[i] == level + 1 {
            dist[i] = level + 1;
            accepted[i / 64] |= 1 << (i % 64);
        }
    }
    let mut next = Vec::new();
    for (k, &word) in accepted.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            next.push(g.first + (64 * k) as u64 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }
    next
}

/// BFS with a pluggable frontier exchange (the Fig. 10 benchmark kernel).
/// Returns the hop distance from `source` for every local vertex.
pub fn bfs_with_strategy(
    comm: &Communicator,
    g: &DistGraph,
    source: VertexId,
    strategy: ExchangeStrategy,
) -> KResult<Vec<u64>> {
    let mut ex = Exchanger::new(comm, g, strategy)?;
    let mut dist = vec![UNREACHED; g.local_size()];
    let mut frontier: Vec<VertexId> = Vec::new();
    if g.is_local(source) {
        dist[g.local_index(source)] = 0;
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let empty = comm.allreduce_single(frontier.is_empty() as u8, |a, b| a & b)? == 1;
        if empty {
            break;
        }
        let buckets = expand_frontier(g, &frontier, &mut dist, level);
        let candidates = ex.exchange(comm, buckets)?;
        frontier = absorb_candidates(g, &candidates, &mut dist, level);
        level += 1;
    }
    Ok(dist)
}

// LOC-BEGIN bfs_kamping
/// Distributed BFS exactly as in paper Fig. 9: emptiness via
/// `allreduce_single`, frontier exchange via `with_flattened` +
/// `alltoallv` with all counts inferred.
pub fn bfs_kamping(comm: &Communicator, g: &DistGraph, source: VertexId) -> KResult<Vec<u64>> {
    fn is_empty(frontier: &[VertexId], comm: &Communicator) -> KResult<bool> {
        Ok(comm.allreduce_single(frontier.is_empty() as u8, |a, b| a & b)? == 1)
    }
    fn exchange(frontier: Vec<Vec<VertexId>>, comm: &Communicator) -> KResult<Vec<VertexId>> {
        let flat = with_flattened(frontier, comm.size());
        comm.alltoallv_vec(&flat.data, &flat.counts)
    }
    let mut dist = vec![UNREACHED; g.local_size()];
    let mut frontier = Vec::new();
    if g.is_local(source) {
        dist[g.local_index(source)] = 0;
        frontier.push(source);
    }
    let mut level = 0;
    while !is_empty(&frontier, comm)? {
        let next_frontier = expand_frontier(g, &frontier, &mut dist, level);
        frontier = absorb_candidates(g, &exchange(next_frontier, comm)?, &mut dist, level);
        level += 1;
    }
    Ok(dist)
}
// LOC-END bfs_kamping

// LOC-BEGIN bfs_overlapped
/// Distributed BFS with compute/communication overlap: each level's
/// emptiness vote (`iallreduce`) is in flight while the frontier expands,
/// and the frontier itself is expanded in two halves so the first half's
/// `ialltoallv` rides the wire while the second half is still being
/// bucketed. Results are identical to [`bfs_kamping`]; the blocked-wait
/// shrinks by whatever expansion work the schedules hide.
pub fn bfs_overlapped(comm: &Communicator, g: &DistGraph, source: VertexId) -> KResult<Vec<u64>> {
    let mut dist = vec![UNREACHED; g.local_size()];
    let mut frontier = Vec::new();
    if g.is_local(source) {
        dist[g.local_index(source)] = 0;
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        // The emptiness vote flies while the first half expands. An empty
        // local frontier expands to nothing, so breaking afterwards never
        // discards real work.
        let vote = comm.iallreduce_vec(vec![frontier.is_empty() as u8], |a, b| a & b)?;
        let (first, second) = frontier.split_at(frontier.len() / 2);
        let first_buckets = expand_frontier(g, first, &mut dist, level);
        if vote.wait()?[0] == 1 {
            break;
        }
        // First half's exchange is on the wire while the second half is
        // still being bucketed.
        let flat = with_flattened(first_buckets, comm.size());
        let first_req = comm.ialltoallv_vec(flat.data, &flat.counts)?;
        let second_buckets = expand_frontier(g, second, &mut dist, level);
        let flat = with_flattened(second_buckets, comm.size());
        let second_req = comm.ialltoallv_vec(flat.data, &flat.counts)?;
        let mut candidates = first_req.wait()?;
        candidates.extend(second_req.wait()?);
        frontier = absorb_candidates(g, &candidates, &mut dist, level);
        level += 1;
    }
    Ok(dist)
}
// LOC-END bfs_overlapped

// LOC-BEGIN bfs_plain
/// Distributed BFS against the raw substrate only — the "plain MPI"
/// column of Table I: the counts exchange, displacement computation and
/// byte packing that kamping infers are all spelled out by hand.
pub fn bfs_plain(comm: &RawComm, g: &DistGraph, source: VertexId) -> Vec<u64> {
    fn is_empty(frontier: &[VertexId], comm: &RawComm) -> bool {
        let mut buf = vec![frontier.is_empty() as u8];
        let and = |a: &mut [u8], b: &[u8]| a[0] &= b[0];
        comm.allreduce(&mut buf, &and, 1).expect("allreduce");
        buf[0] == 1
    }
    fn exchange(frontier: Vec<Vec<VertexId>>, comm: &RawComm) -> Vec<VertexId> {
        let p = comm.size();
        // flatten the buckets into a contiguous send buffer by hand
        let mut send_counts = vec![0usize; p];
        for (dest, msgs) in frontier.iter().enumerate() {
            send_counts[dest] = msgs.len() * 8;
        }
        let mut send = Vec::new();
        for msgs in frontier {
            for v in msgs {
                send.extend_from_slice(&v.to_le_bytes());
            }
        }
        // exchange the counts, then compute displacements by prefix sums
        let mut count_wire = Vec::with_capacity(p * 8);
        for &c in &send_counts {
            count_wire.extend_from_slice(&(c as u64).to_le_bytes());
        }
        let recv_count_wire = comm.alltoall(&count_wire).expect("alltoall");
        let recv_counts: Vec<usize> = recv_count_wire
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect();
        let mut send_displs = vec![0usize; p];
        let mut recv_displs = vec![0usize; p];
        for i in 1..p {
            send_displs[i] = send_displs[i - 1] + send_counts[i - 1];
            recv_displs[i] = recv_displs[i - 1] + recv_counts[i - 1];
        }
        let recv = comm
            .alltoallv(
                &send,
                &send_counts,
                &send_displs,
                &recv_counts,
                &recv_displs,
            )
            .expect("alltoallv");
        recv.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
    let mut dist = vec![UNREACHED; g.local_size()];
    let mut frontier = Vec::new();
    if g.is_local(source) {
        dist[g.local_index(source)] = 0;
        frontier.push(source);
    }
    let mut level = 0;
    while !is_empty(&frontier, comm) {
        let next_frontier = expand_frontier(g, &frontier, &mut dist, level);
        frontier = absorb_candidates(g, &exchange(next_frontier, comm), &mut dist, level);
        level += 1;
    }
    dist
}
// LOC-END bfs_plain

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::gen::{gnm, rgg2d, rhg};

    /// Sequential reference BFS over the globally collected edge list.
    fn reference_bfs(n: u64, edges: &[(u64, u64)], source: u64) -> Vec<u64> {
        let mut adj = vec![Vec::new(); n as usize];
        for &(u, v) in edges {
            adj[u as usize].push(v);
        }
        let mut dist = vec![UNREACHED; n as usize];
        let mut queue = std::collections::VecDeque::new();
        dist[source as usize] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v as usize] {
                if dist[w as usize] == UNREACHED {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    fn collect_edges(comm: &kamping::Communicator, g: &DistGraph) -> Vec<(u64, u64)> {
        let mut mine = Vec::new();
        for v in g.first..g.last {
            for &w in g.neighbors(v) {
                mine.push(v);
                mine.push(w);
            }
        }
        let all = comm.allgatherv_vec(&mine).unwrap();
        all.chunks_exact(2).map(|c| (c[0], c[1])).collect()
    }

    fn check_all_strategies(p: usize, gen: impl Fn(&kamping::Communicator) -> DistGraph + Sync) {
        kamping::run(p, |comm| {
            let g = gen(&comm);
            let edges = collect_edges(&comm, &g);
            let want_global = reference_bfs(g.n, &edges, 0);
            let want_local = &want_global[g.first as usize..g.last as usize];

            for strategy in ExchangeStrategy::ALL {
                let got = bfs_with_strategy(&comm, &g, 0, strategy).unwrap();
                assert_eq!(got, want_local, "strategy {strategy:?} p={p}");
            }
            let got = bfs_kamping(&comm, &g, 0).unwrap();
            assert_eq!(got, want_local, "bfs_kamping");
            let got = bfs_overlapped(&comm, &g, 0).unwrap();
            assert_eq!(got, want_local, "bfs_overlapped");
            let got = bfs_plain(comm.raw(), &g, 0);
            assert_eq!(got, want_local, "bfs_plain");
        });
    }

    #[test]
    fn all_strategies_match_reference_on_gnm() {
        check_all_strategies(4, |comm| gnm(comm, 120, 300, 3).unwrap());
    }

    #[test]
    fn all_strategies_match_reference_on_rgg() {
        check_all_strategies(3, |comm| rgg2d(comm, 150, 0.15, 5).unwrap());
    }

    #[test]
    fn all_strategies_match_reference_on_rhg() {
        check_all_strategies(4, |comm| {
            let r = crate::gen::rhg_radius(150, 8.0);
            rhg(comm, 150, r, 7).unwrap()
        });
    }

    /// The `HashMap`-bucketed expansion the rank-indexed one replaced.
    fn reference_expand(
        g: &DistGraph,
        frontier: &[VertexId],
        dist: &mut [u64],
        level: u64,
    ) -> HashMap<usize, Vec<VertexId>> {
        let mut buckets: HashMap<usize, Vec<VertexId>> = HashMap::new();
        for &v in frontier {
            for &w in g.neighbors(v) {
                if g.is_local(w) {
                    let i = g.local_index(w);
                    if dist[i] == UNREACHED {
                        dist[i] = level + 1;
                        buckets.entry(g.owner_of(w)).or_default().push(w);
                    }
                } else {
                    buckets.entry(g.owner_of(w)).or_default().push(w);
                }
            }
        }
        buckets
    }

    /// The sort-and-dedup absorb the bitmap one replaced.
    fn reference_absorb(
        g: &DistGraph,
        candidates: &[VertexId],
        dist: &mut [u64],
        level: u64,
    ) -> Vec<VertexId> {
        let mut next = Vec::new();
        for &w in candidates {
            let i = g.local_index(w);
            if dist[i] == UNREACHED || dist[i] == level + 1 {
                if dist[i] == UNREACHED {
                    dist[i] = level + 1;
                }
                next.push(w);
            }
        }
        next.sort_unstable();
        next.dedup();
        next
    }

    /// Both kernels against their references on seeded random graphs,
    /// distances and candidate lists: duplicate candidates, vertices
    /// pre-marked for the next level, reached earlier or still unreached,
    /// local ranges that are and are not a multiple of 64, and ranks that
    /// own no vertex at all (n < p).
    #[test]
    fn kernels_match_their_hashing_references() {
        let level = 3u64;
        for (n, p, seed) in [
            (1000u64, 4usize, 1u64),
            (256, 2, 2),
            (130, 1, 3),
            (3, 5, 4),
            (97, 3, 5),
        ] {
            for rank in 0..p {
                let mut state = seed * 1009 + rank as u64;
                let mut below = |bound: u64| {
                    state = crate::gen::splitmix64(state);
                    state % bound.max(1)
                };
                let first = crate::dist_graph::range_start(n, p, rank);
                let last = crate::dist_graph::range_start(n, p, rank + 1);
                let local = last - first;
                let edges: Vec<(u64, u64)> = (first..last)
                    .flat_map(|u| (0..below(8)).map(|_| (u, below(n))).collect::<Vec<_>>())
                    .collect();
                let g = DistGraph::from_local_edges(n, p, rank, edges);
                let dist: Vec<u64> = (0..local)
                    .map(|_| match below(4) {
                        0 => level + 1,
                        1 => below(level + 1),
                        _ => UNREACHED,
                    })
                    .collect();
                let frontier: Vec<u64> = (first..last).filter(|_| below(3) == 0).collect();

                let (mut got_dist, mut want_dist) = (dist.clone(), dist);
                let got = expand_frontier(&g, &frontier, &mut got_dist, level);
                let want = reference_expand(&g, &frontier, &mut want_dist, level);
                assert_eq!(got_dist, want_dist, "expand dist n={n} p={p} rank={rank}");
                assert_eq!(got.len(), p);
                for (dest, bucket) in got.iter().enumerate() {
                    let want_bucket = want.get(&dest).map_or(&[][..], Vec::as_slice);
                    assert_eq!(bucket, want_bucket, "bucket {dest} n={n} p={p} rank={rank}");
                }

                // What the exchange would hand back: the self bucket plus
                // random owned ids, duplicates included.
                let mut candidates = got[rank].clone();
                if local > 0 {
                    candidates.extend((0..below(3 * local)).map(|_| first + below(local)));
                }
                let got = absorb_candidates(&g, &candidates, &mut got_dist, level);
                let want = reference_absorb(&g, &candidates, &mut want_dist, level);
                assert_eq!(got, want, "frontier n={n} p={p} rank={rank}");
                assert_eq!(got_dist, want_dist, "absorb dist n={n} p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        kamping::run(2, |comm| {
            // Path 0-1; vertices 2,3 isolated.
            let edges = vec![(0u64, 1u64), (1, 0)];
            let g = DistGraph::from_scattered_edges(&comm, 4, edges).unwrap();
            let dist = bfs_kamping(&comm, &g, 0).unwrap();
            for v in g.first..g.last {
                let d = dist[g.local_index(v)];
                match v {
                    0 => assert_eq!(d, 0),
                    1 => assert_eq!(d, 1),
                    _ => assert_eq!(d, UNREACHED),
                }
            }
        });
    }

    #[test]
    fn source_on_nonzero_rank() {
        kamping::run(3, |comm| {
            // Star centered at the last vertex.
            let n = 9u64;
            let center = n - 1;
            let edges: Vec<(u64, u64)> = (0..n - 1)
                .flat_map(|v| [(v, center), (center, v)])
                .collect();
            let g = DistGraph::from_scattered_edges(&comm, n, edges).unwrap();
            let dist = bfs_with_strategy(&comm, &g, center, ExchangeStrategy::Sparse).unwrap();
            for v in g.first..g.last {
                let want = if v == center { 0 } else { 1 };
                assert_eq!(dist[g.local_index(v)], want);
            }
        });
    }
}
