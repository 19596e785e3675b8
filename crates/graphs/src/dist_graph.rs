//! Distributed graph representation.
//!
//! Vertices `0..n` are distributed in contiguous, balanced ranges; each
//! rank stores its vertices' incident edges as an adjacency array (CSR) —
//! the representation the paper's BFS example assumes (§IV-B).

use kamping::prelude::*;

/// Global vertex identifier.
pub type VertexId = u64;

/// Distance marker for unreached vertices (paper Fig. 9's `undef`).
pub const UNREACHED: u64 = u64::MAX;

/// A distributed graph: this rank's contiguous vertex range plus the
/// adjacency array of those vertices.
#[derive(Debug, Clone)]
pub struct DistGraph {
    /// Total number of vertices (global).
    pub n: u64,
    /// Number of ranks the graph is distributed over.
    pub ranks: usize,
    /// This rank (the owner of `first..last`).
    pub rank: usize,
    /// First vertex owned by this rank.
    pub first: VertexId,
    /// One past the last vertex owned by this rank.
    pub last: VertexId,
    /// CSR offsets: local vertex `v` has neighbors
    /// `adjacency[offsets[v]..offsets[v + 1]]`.
    pub offsets: Vec<usize>,
    /// Concatenated neighbor lists (global vertex ids).
    pub adjacency: Vec<VertexId>,
}

/// First vertex of `rank`'s range for `n` vertices over `ranks` ranks.
pub fn range_start(n: u64, ranks: usize, rank: usize) -> VertexId {
    // Balanced contiguous ranges: the first (n % ranks) ranks get one extra.
    let base = n / ranks as u64;
    let extra = n % ranks as u64;
    let r = rank as u64;
    r * base + r.min(extra)
}

/// The rank owning vertex `v`.
pub fn owner(n: u64, ranks: usize, v: VertexId) -> usize {
    debug_assert!(v < n);
    let base = n / ranks as u64;
    let extra = n % ranks as u64;
    let boundary = extra * (base + 1);
    if v < boundary {
        (v / (base + 1)) as usize
    } else {
        (extra + (v - boundary) / base) as usize
    }
}

impl DistGraph {
    /// Builds the CSR from this rank's (locally owned) edge list. Every
    /// edge `(u, v)` must satisfy `first <= u < last`; both directions of
    /// an undirected edge must be present at their respective owners.
    pub fn from_local_edges(
        n: u64,
        ranks: usize,
        rank: usize,
        mut edges: Vec<(VertexId, VertexId)>,
    ) -> Self {
        let first = range_start(n, ranks, rank);
        let last = range_start(n, ranks, rank + 1);
        let local = (last - first) as usize;
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; local + 1];
        for &(u, _) in &edges {
            debug_assert!(
                u >= first && u < last,
                "edge source {u} not owned by rank {rank}"
            );
            offsets[(u - first) as usize + 1] += 1;
        }
        for i in 0..local {
            offsets[i + 1] += offsets[i];
        }
        let adjacency = edges.iter().map(|&(_, v)| v).collect();
        Self {
            n,
            ranks,
            rank,
            first,
            last,
            offsets,
            adjacency,
        }
    }

    /// Redistributes an arbitrary edge list: each directed edge is shipped
    /// to its source's owner, then the CSR is built. Collective.
    pub fn from_scattered_edges(
        comm: &Communicator,
        n: u64,
        edges: Vec<(VertexId, VertexId)>,
    ) -> KResult<Self> {
        let p = comm.size();
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); p];
        for (u, v) in edges {
            buckets[owner(n, p, u)].extend([u, v]);
        }
        let flat = with_flattened(buckets, p);
        let received = comm.alltoallv_vec(&flat.data, &flat.counts)?;
        let local_edges: Vec<(VertexId, VertexId)> =
            received.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        Ok(Self::from_local_edges(n, p, comm.rank(), local_edges))
    }

    /// Number of vertices owned by this rank.
    pub fn local_size(&self) -> usize {
        (self.last - self.first) as usize
    }

    /// True if this rank owns `v`.
    pub fn is_local(&self, v: VertexId) -> bool {
        v >= self.first && v < self.last
    }

    /// Local index of an owned vertex.
    pub fn local_index(&self, v: VertexId) -> usize {
        debug_assert!(self.is_local(v));
        (v - self.first) as usize
    }

    /// Neighbors of an owned vertex.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = self.local_index(v);
        &self.adjacency[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The rank owning vertex `v`.
    pub fn owner_of(&self, v: VertexId) -> usize {
        owner(self.n, self.ranks, v)
    }

    /// Number of locally stored directed edges.
    pub fn local_edge_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Ranks owning at least one neighbor of this rank's vertices — the
    /// static communication topology for neighborhood collectives.
    pub fn neighbor_ranks(&self) -> Vec<usize> {
        let mut set: Vec<bool> = vec![false; self.ranks];
        for &v in &self.adjacency {
            set[self.owner_of(v)] = true;
        }
        (0..self.ranks).filter(|&r| set[r]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_balanced_and_cover() {
        for (n, p) in [(10u64, 3usize), (7, 7), (100, 8), (5, 8)] {
            let mut covered = 0;
            for r in 0..p {
                let a = range_start(n, p, r);
                let b = range_start(n, p, r + 1);
                assert!(b >= a);
                assert!(b - a <= n / p as u64 + 1);
                covered += b - a;
                for v in a..b {
                    assert_eq!(owner(n, p, v), r, "n={n} p={p} v={v}");
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn csr_from_local_edges() {
        // Rank 0 of 2 owns vertices 0..2 of a 4-vertex graph.
        let edges = vec![(0, 1), (0, 3), (1, 0), (0, 1)]; // duplicate dropped
        let g = DistGraph::from_local_edges(4, 2, 0, edges);
        assert_eq!(g.local_size(), 2);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.local_edge_count(), 3);
        assert_eq!(g.neighbor_ranks(), vec![0, 1]);
    }

    #[test]
    fn scattered_edges_reach_their_owner() {
        kamping::run(3, |comm| {
            // Every rank proposes the full ring 0-1-2-3-4-5-0 (duplicates
            // collapse at the owners).
            let n = 6u64;
            let ring: Vec<(u64, u64)> = (0..n)
                .flat_map(|u| {
                    let v = (u + 1) % n;
                    [(u, v), (v, u)]
                })
                .collect();
            let g = DistGraph::from_scattered_edges(&comm, n, ring).unwrap();
            for v in g.first..g.last {
                let mut nb = g.neighbors(v).to_vec();
                nb.sort_unstable();
                let mut want = vec![(v + n - 1) % n, (v + 1) % n];
                want.sort_unstable();
                assert_eq!(nb, want);
            }
        });
    }
}
