//! The six workloads and the interface the passes drive them through.
//!
//! A workload is a script both ranks of a pair execute. The same rank
//! body runs whether the ranks are threads of the worker process (the
//! `*-shm`, `sort-fig8` and `bfs-fig10` workloads) or two processes
//! launched over rings or sockets (`stream-large-*`): the transport is
//! chosen by how the pair is started, never inside the script.

use std::collections::BTreeMap;

use kamping::Communicator;
use kamping_mpi::net::Backend;

use crate::span::{NameTotals, SpanBuf, Tracer};

pub mod bfs;
pub mod p2p_small;
pub mod p2p_wild;
pub mod sort;
pub mod stream;

/// Which API a block goes through: the typed `kamping` layer or direct
/// `kamping_mpi` substrate calls written out by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Typed,
    Plain,
}

/// What a run of samples did besides taking time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Ops whose result the oracle rejected.
    pub failed: u64,
    /// Useful payload bytes this rank received (no headers, no acks); the
    /// passes sum it over the ranks.
    pub payload_bytes: u64,
}

impl Outcome {
    pub fn add(&mut self, other: Outcome) {
        self.failed += other.failed;
        self.payload_bytes += other.payload_bytes;
    }
}

/// Where the ranks of a pair run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Rank r bound to the r-th allowed core (`mpirun --bind-to core`).
    OnePerCore,
    /// Both ranks bound to the first allowed core.
    SameCore,
    /// Left to the scheduler.
    Unbound,
}

/// One workload, as the passes see it. Every rank of the pair holds its
/// own instance and calls the same methods with the same arguments.
pub trait Workload: Sized {
    /// Ops between two clock reads on rank 0 (one latency sample covers
    /// this many ops and is divided by it).
    fn ops_per_sample(&self) -> u64;
    /// Fixed warm-up length, in samples per variant; part of `setup_s`.
    const WARMUP_SAMPLES: usize;
    /// Ops one root span of the traced pass covers (one root per sample
    /// unless the workload opens one per op).
    fn ops_per_root_span(&self) -> u64 {
        self.ops_per_sample()
    }

    /// Builds this rank's inputs from `seed` and touches what the loop
    /// will touch. Collective.
    fn setup(comm: &Communicator, seed: u64) -> Result<Self, String>;

    /// Called before every block of quad `quad`. A workload whose op cost
    /// depends on a per-op random draw restarts its draw sequence here, so
    /// the four blocks of a quad do identical work.
    fn begin_block(&mut self, _quad: usize) {}

    /// Runs `samples` samples through `variant`, pushing one per-op
    /// latency in µs per sample (rank 0's view is the one reported).
    /// A typed error from the library aborts the run with its message; a
    /// wrong result is counted in [`Outcome::failed`] and the run goes on.
    fn run<T: Tracer>(
        &mut self,
        comm: &Communicator,
        variant: Variant,
        samples: usize,
        lat_us: &mut Vec<f64>,
        tr: &mut T,
    ) -> Result<Outcome, String>;

    /// The traced pass's typed op. Workloads whose op is one library call
    /// (`sort-fig8`, `bfs-fig10`) override this with a bench-side loop
    /// built from the same public pieces, so the spans can show phases.
    fn run_traced(
        &mut self,
        comm: &Communicator,
        samples: usize,
        lat_us: &mut Vec<f64>,
        tr: &mut SpanBuf,
    ) -> Result<Outcome, String> {
        self.run(comm, Variant::Typed, samples, lat_us, tr)
    }

    /// Layer metrics only this workload's traced pass can produce, from
    /// this rank's span totals (rank 0's values are reported).
    fn traced_extras(
        &self,
        _totals: &BTreeMap<&'static str, NameTotals>,
    ) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Static facts about a workload the supervisor and the README share.
pub struct Info {
    pub name: &'static str,
    /// `None`: the pair are threads of the worker. `Some`: the pair are
    /// processes started by `net::launch` on that backend.
    pub backend: Option<Backend>,
    pub placement: Placement,
    pub op_unit: &'static str,
    pub why: &'static str,
}

pub const ALL: [Info; 6] = [
    Info {
        name: "p2p-small-shm",
        backend: None,
        placement: Placement::SameCore,
        op_unit: "8 B echo completed, 64 in flight",
        why: "smallest base cost (~1 us): core, mpi.p2p and the mailbox do all the work, binding overhead is undiluted; net.* idle",
    },
    Info {
        name: "p2p-wild-shm",
        backend: None,
        placement: Placement::SameCore,
        op_unit: "message matched",
        why: "same mailbox used the other way: 256-deep unexpected queue, reverse exact matching and ANY_SOURCE/ANY_TAG probes",
    },
    Info {
        name: "stream-large-ring",
        backend: Some(Backend::ShmXproc),
        placement: Placement::Unbound,
        op_unit: "acknowledged window of 8 messages",
        why: "64 KiB-1 MiB Vec<u64> over shm-xproc rings: ring chunking, wire framing and the bytes-to-Vec copy dominate; binding builder idle",
    },
    Info {
        name: "stream-large-socket",
        backend: Some(Backend::Socket),
        placement: Placement::Unbound,
        op_unit: "acknowledged window of 8 messages",
        why: "the identical script over Unix sockets (loopback only): epoll engine, writev batching, net::sys; a ring-only fix must not move it",
    },
    Info {
        name: "sort-fig8",
        backend: None,
        placement: Placement::OnePerCore,
        op_unit: "sample sort of 2^17 u64 per rank",
        why: "paper Fig. 8: local compute plus one large alltoallv, so sort and bandwidth matter and per-call latency does not",
    },
    Info {
        name: "bfs-fig10",
        backend: None,
        placement: Placement::OnePerCore,
        op_unit: "BFS level (sweeps of RGG-2D then GNM)",
        why: "paper Fig. 10: many tiny alltoallv + allreduce votes per level, so blocking small-collective latency dominates",
    },
];

pub fn info(name: &str) -> Option<&'static Info> {
    ALL.iter().find(|i| i.name == name)
}
