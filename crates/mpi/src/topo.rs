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
        // Envelopes of a universe that builds the ring topology and runs
        // one exchange, minus those of one that only builds it: the
        // exchange alone, exactly one envelope per rank.
        let ring = |exchange: bool| {
            let (_, profile) = Universe::run_profiled(4, |comm| {
                let right = (comm.rank() + 1) % comm.size();
                let left = (comm.rank() + comm.size() - 1) % comm.size();
                let g = comm
                    .dist_graph_create_adjacent(vec![left], vec![right])
                    .unwrap();
                if exchange {
                    g.neighbor_alltoallv(&[vec![0u8; 64]]).unwrap();
                }
            });
            profile
        };
        let (with, setup) = (ring(true), ring(false));
        assert_eq!(with.total_messages() - setup.total_messages(), 4);
        assert_eq!(with.total_bytes() - setup.total_bytes(), 4 * 64);
        assert_eq!(with.total_calls(Op::NeighborAlltoallv), 4);
        assert_eq!(setup.total_calls(Op::NeighborAlltoallv), 0);
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
