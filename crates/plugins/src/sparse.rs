//! Sparse all-to-all via the NBX algorithm (paper §V-A).
//!
//! `MPI_Alltoallv` needs a counts array with one entry *per rank* and posts
//! one message per peer — linear in the communicator size even when almost
//! all counts are zero. For sparse, rapidly changing communication patterns
//! (dynamic graph algorithms!) the paper's `SparseAlltoall` plugin accepts
//! a set of destination→message pairs and runs the NBX dynamic sparse data
//! exchange of Hoefler, Siebert and Lumsdaine (PPoPP'10):
//!
//! 1. issend every outgoing message (synchronous mode: the request
//!    completes only when the receiver matched it);
//! 2. loop: probe for incoming messages and receive them; once all own
//!    sends completed, enter a non-blocking barrier; once the barrier
//!    completes, every message in the system has been matched — stop.
//!
//! Cost: O(degree) messages per rank plus a barrier — no term linear in p.
//! A message travels as its bare payload: channels are reliable and
//! non-overtaking, so it needs no sequence header and the receiver no
//! dedupe.
//!
//! The NBX engine itself lives in the substrate
//! ([`kamping_mpi::RawComm::sparse_alltoallv`]) so it can participate in
//! the strategy-selected all-to-all dispatch
//! ([`kamping_mpi::RawComm::alltoallv_strategy`]); this plugin is the typed
//! convenience surface over it, exactly as the paper's plugin wraps its
//! C++ core.

use std::collections::HashMap;

use kamping::plugin::CommunicatorPlugin;
use kamping::types::{bytes_to_pods, pod_as_bytes, PodType};
use kamping::{Communicator, KResult};

/// First tag of the band reserved for NBX traffic (re-exported from the
/// substrate; applications should stay below it).
pub use kamping_mpi::coll::SPARSE_TAG_BASE;

/// A message received by [`SparseAlltoall::sparse_alltoall`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMessage<T> {
    /// Sender's rank.
    pub source: usize,
    /// The payload.
    pub data: Vec<T>,
}

/// The sparse all-to-all plugin (extension trait, §III-F).
pub trait SparseAlltoall: CommunicatorPlugin {
    /// Exchanges destination→message pairs using NBX. Returns all received
    /// messages, sorted by source rank for determinism.
    ///
    /// Every rank of the communicator must call this (it contains a
    /// barrier), but ranks may pass empty message sets.
    fn sparse_alltoall<T: PodType>(
        &self,
        messages: HashMap<usize, Vec<T>>,
    ) -> KResult<Vec<SparseMessage<T>>> {
        let raw = self.comm().raw();
        let wire: Vec<(usize, Vec<u8>)> = messages
            .iter()
            .map(|(dest, data)| (*dest, pod_as_bytes(data).to_vec()))
            .collect();
        let received = raw.sparse_alltoallv(wire)?;
        let mut out = Vec::with_capacity(received.len());
        for msg in received {
            out.push(SparseMessage {
                source: msg.source,
                data: bytes_to_pods(&msg.data)?,
            });
        }
        Ok(out)
    }
}

impl SparseAlltoall for Communicator {}

#[cfg(test)]
mod tests {
    use super::*;
    use kamping_mpi::{Op, Universe};

    #[test]
    fn ring_pattern_delivers_exactly_neighbors() {
        kamping::run(5, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let mut msgs = HashMap::new();
            msgs.insert(right, vec![comm.rank() as u64; 3]);
            let got = comm.sparse_alltoall(msgs).unwrap();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].source, left);
            assert_eq!(got[0].data, vec![left as u64; 3]);
        });
    }

    #[test]
    fn empty_pattern_terminates() {
        kamping::run(4, |comm| {
            let got = comm
                .sparse_alltoall(HashMap::<usize, Vec<u8>>::new())
                .unwrap();
            assert!(got.is_empty());
        });
    }

    #[test]
    fn asymmetric_pattern() {
        kamping::run(4, |comm| {
            // Only rank 0 sends, to everyone including itself.
            let mut msgs = HashMap::new();
            if comm.rank() == 0 {
                for d in 0..comm.size() {
                    msgs.insert(d, vec![d as u32 * 7]);
                }
            }
            let got = comm.sparse_alltoall(msgs).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].source, 0);
            assert_eq!(got[0].data, vec![comm.rank() as u32 * 7]);
        });
    }

    #[test]
    fn repeated_rounds_do_not_interfere() {
        kamping::run(3, |comm| {
            for round in 0..5u64 {
                let mut msgs = HashMap::new();
                msgs.insert((comm.rank() + 1) % comm.size(), vec![round]);
                let got = comm.sparse_alltoall(msgs).unwrap();
                assert_eq!(got.len(), 1);
                assert_eq!(got[0].data, vec![round]);
            }
        });
    }

    #[test]
    fn message_cost_is_degree_not_p() {
        // One universe runs a round in which nobody sends (the barrier
        // alone), the other a ring round: the difference is the payload.
        let round = |ring: bool| {
            let (_, profile) = kamping::run_profiled(8, |comm| {
                let mut msgs = HashMap::new();
                if ring {
                    msgs.insert((comm.rank() + 1) % comm.size(), vec![1u8; 100]);
                }
                comm.sparse_alltoall(msgs).unwrap();
            });
            profile
        };
        let (barrier, ring) = (round(false), round(true));
        // Issend per rank: exactly 1 (its one destination) — not p-1.
        assert_eq!(ring.total_calls(Op::Issend), 8);
        assert_eq!(ring.total_calls(Op::Alltoallv), 0);
        // A dense alltoallv would have been 8 calls x 7 peers = 56 posts;
        // NBX posts 8 payload envelopes on top of the barrier's tokens, and
        // each carries its 100 payload bytes and nothing else.
        assert_eq!(ring.total_messages() - barrier.total_messages(), 8);
        assert_eq!(ring.total_bytes() - barrier.total_bytes(), 8 * 100);
    }

    #[test]
    fn sorted_by_source() {
        kamping::run(6, |comm| {
            // Everyone sends to rank 0.
            let mut msgs = HashMap::new();
            if comm.rank() != 0 {
                msgs.insert(0, vec![comm.rank() as u16]);
            }
            let got = comm.sparse_alltoall(msgs).unwrap();
            if comm.rank() == 0 {
                let sources: Vec<usize> = got.iter().map(|m| m.source).collect();
                assert_eq!(sources, vec![1, 2, 3, 4, 5]);
            }
        });
    }

    /// Two messages from one source to one destination arrive once each,
    /// in send order: the last rank's ring neighbour is 0, and it also
    /// sends 0 a direct message. Channel FIFO is what orders them — the
    /// exchange sorts by source only, and stably.
    #[test]
    fn same_source_messages_arrive_once_each_in_send_order() {
        let p = 6;
        Universe::run(p, |comm| {
            for round in 0..3u8 {
                let right = (comm.rank() + 1) % p;
                let msgs = vec![
                    (right, vec![round, comm.rank() as u8]),
                    (0, vec![0xA0 | comm.rank() as u8]),
                ];
                let got = comm.sparse_alltoallv(msgs).unwrap();
                if comm.rank() == 0 {
                    // Ring message from p-1 plus one direct message from
                    // every rank: p + 1 in total, with BOTH messages from
                    // rank p-1 present exactly once each, in send order.
                    assert_eq!(got.len(), p + 1, "round {round}");
                    let from_last: Vec<&Vec<u8>> = got
                        .iter()
                        .filter(|m| m.source == p - 1)
                        .map(|m| &m.data)
                        .collect();
                    assert_eq!(
                        from_last,
                        vec![&vec![round, (p - 1) as u8], &vec![0xA0 | (p - 1) as u8]],
                        "round {round}"
                    );
                } else {
                    let left = (comm.rank() + p - 1) % p;
                    assert_eq!(got.len(), 1, "round {round}");
                    assert_eq!(got[0].source, left);
                    assert_eq!(got[0].data, vec![round, left as u8]);
                }
            }
        });
    }
}
