//! PMPI-analog profiling interface.
//!
//! The paper (§III-H) uses MPI's profiling interface to verify that the
//! binding layer "only issues the expected MPI calls" when it computes
//! default parameters. This module is our equivalent, as a view of the
//! always-on cells of every rank's stats block ([`crate::trace`]): the
//! op-start probe increments a per-rank call counter, the post probe the
//! per-rank message/byte counters.
//!
//! Two consumers:
//! * the test suites assert exact call patterns (e.g. an `allgatherv` with
//!   omitted receive counts issues exactly one extra `allgather`);
//! * the benchmark harness reads message/byte counts as a machine-independent
//!   LogGP-style cost model (`alpha * messages + beta * bytes`), which is how
//!   EXPERIMENTS.md verifies the *asymptotic shape* of Fig. 10 (linear
//!   all-to-all vs. O(sqrt p) grid vs. degree-proportional sparse exchange)
//!   independent of wall-clock noise.

use crate::metrics::Counter;
use crate::trace::TraceCtx;

/// Declares [`Op`], [`ALL_OPS`] and [`Op::name`] from one list, so a new
/// operation is added in exactly one place.
macro_rules! ops {
    ($($variant:ident => $name:literal,)*) => {
        /// Substrate operations tracked by the profiler.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        #[allow(missing_docs)]
        pub enum Op {
            $($variant,)*
        }

        /// Number of distinct [`Op`] variants.
        pub(crate) const N_OPS: usize = [$($name,)*].len();

        /// All operations, in discriminant order (for reporting).
        pub const ALL_OPS: [Op; N_OPS] = [$(Op::$variant,)*];

        impl Op {
            /// Short lowercase name used in reports.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(Op::$variant => $name,)*
                }
            }
        }
    };
}

ops! {
    Send => "send",
    Isend => "isend",
    Issend => "issend",
    Recv => "recv",
    Irecv => "irecv",
    Probe => "probe",
    Iprobe => "iprobe",
    Barrier => "barrier",
    Ibarrier => "ibarrier",
    Bcast => "bcast",
    Gather => "gather",
    Gatherv => "gatherv",
    Scatter => "scatter",
    Scatterv => "scatterv",
    Allgather => "allgather",
    Allgatherv => "allgatherv",
    Alltoall => "alltoall",
    Alltoallv => "alltoallv",
    Alltoallw => "alltoallw",
    Reduce => "reduce",
    Allreduce => "allreduce",
    Scan => "scan",
    Exscan => "exscan",
    NeighborAlltoallv => "neighbor_alltoallv",
    CommSplit => "comm_split",
    CommDup => "comm_dup",
    Shrink => "shrink",
    Agree => "agree",
    Ibcast => "ibcast",
    Ireduce => "ireduce",
    Iallreduce => "iallreduce",
    Iallgather => "iallgather",
    Iallgatherv => "iallgatherv",
    Ialltoall => "ialltoall",
    Ialltoallv => "ialltoallv",
    Grow => "grow",
}

/// Frozen always-on counters of one rank — the §III-H / LogGP view of its
/// stats block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankProfile {
    /// Call count per [`Op`] (indexed by discriminant).
    pub op_calls: [u64; N_OPS],
    /// Envelopes posted by this rank.
    pub messages_sent: u64,
    /// Payload bytes posted by this rank.
    pub bytes_sent: u64,
}

impl RankProfile {
    /// The profile columns of one stats block (live or frozen).
    pub(crate) fn of<T>(block: &crate::trace::StatsBlock<T>, read: impl Fn(&T) -> u64) -> Self {
        Self {
            op_calls: std::array::from_fn(|i| read(&block.op_calls[i])),
            messages_sent: read(&block.counters[Counter::MsgsSent as usize]),
            bytes_sent: read(&block.counters[Counter::BytesSent as usize]),
        }
    }

    /// Call count for one operation.
    pub fn calls(&self, op: Op) -> u64 {
        self.op_calls[op as usize]
    }

    fn saturating_sub(&self, earlier: &RankProfile) -> RankProfile {
        RankProfile {
            op_calls: std::array::from_fn(|i| self.op_calls[i].saturating_sub(earlier.op_calls[i])),
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
        }
    }
}

/// Frozen counters of the whole universe at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// One entry per global rank.
    pub ranks: Vec<RankProfile>,
}

impl ProfileSnapshot {
    /// Freezes the always-on part of every rank's live block.
    pub(crate) fn capture(ctx: &TraceCtx) -> Self {
        Self {
            ranks: (0..ctx.size()).map(|r| ctx.rank(r).profile()).collect(),
        }
    }

    /// Counter deltas since `earlier` (elementwise saturating).
    pub fn since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            ranks: self
                .ranks
                .iter()
                .zip(&earlier.ranks)
                .map(|(now, then)| now.saturating_sub(then))
                .collect(),
        }
    }

    /// Total call count for one operation across all ranks.
    pub fn total_calls(&self, op: Op) -> u64 {
        self.ranks.iter().map(|r| r.calls(op)).sum()
    }

    /// Total envelopes posted across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.messages_sent).sum()
    }

    /// Total payload bytes posted across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Maximum envelopes posted by any single rank (bottleneck startups).
    pub fn max_messages_per_rank(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.messages_sent)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(ctx: &TraceCtx, src: usize, bytes: usize) {
        let msg = crate::transport::MatchKey {
            src,
            tag: 0,
            ctx: 0,
        };
        ctx.posted(0, msg, bytes);
    }

    #[test]
    fn record_and_snapshot() {
        let c = TraceCtx::disabled(1);
        drop(c.op(Op::Bcast, 0));
        drop(c.op(Op::Bcast, 0));
        drop(c.op(Op::Allgatherv, 0));
        message(&c, 0, 100);
        message(&c, 0, 28);
        let snap = ProfileSnapshot::capture(&c);
        assert_eq!(snap.total_calls(Op::Bcast), 2);
        assert_eq!(snap.total_calls(Op::Allgatherv), 1);
        assert_eq!(snap.total_calls(Op::Reduce), 0);
        assert_eq!(snap.total_messages(), 2);
        assert_eq!(snap.total_bytes(), 128);
    }

    #[test]
    fn since_computes_deltas() {
        let c = TraceCtx::disabled(1);
        drop(c.op(Op::Send, 0));
        let before = ProfileSnapshot::capture(&c);
        drop(c.op(Op::Send, 0));
        message(&c, 0, 10);
        let after = ProfileSnapshot::capture(&c);
        let d = after.since(&before);
        assert_eq!(d.total_calls(Op::Send), 1);
        assert_eq!(d.total_bytes(), 10);
    }

    #[test]
    fn op_names_unique() {
        let mut names: Vec<_> = ALL_OPS.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OPS);
    }
}
