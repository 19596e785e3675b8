//! # kamping-mpi — an in-process MPI-like message-passing substrate
//!
//! This crate is the *substrate* of the kamping-rs reproduction of the
//! KaMPIng paper. The paper's contribution is a binding layer over MPI; since
//! a real MPI installation (and a supercomputer) is out of scope here, this
//! crate implements the message-passing system itself. Two interchangeable
//! backends sit behind the [`transport::Transport`] seam: the default
//! shared-memory backend runs every "rank" as an OS thread inside one
//! process, and the [`net`] socket backend runs each rank as its own OS
//! process connected over Unix-domain or TCP sockets (launched with the
//! `kampirun` binary, selected via `KAMPING_TRANSPORT=socket`).
//!
//! The public API is deliberately C-flavoured and low-level — explicit
//! counts, displacements, byte buffers, tags, request handles — because it
//! plays the role of *plain MPI* in every comparison the paper makes. The
//! ergonomic layer (crate `kamping`) is built on top of it, and the paper's
//! "(near) zero overhead relative to plain MPI" claim is evaluated as
//! "(near) zero overhead relative to direct use of this crate".
//!
//! ## Feature inventory
//!
//! * [`Universe::run`] — spawn `p` rank-threads and run an SPMD closure.
//! * [`RawComm`] — communicators with `dup`/`split`, deterministic context
//!   ids, collective-ordering semantics.
//! * Point-to-point: [`RawComm::send`], [`RawComm::recv`], `isend`, `irecv`,
//!   `issend` (synchronous-mode send, needed by the NBX sparse all-to-all),
//!   `probe`/`iprobe` with `ANY_SOURCE`/`ANY_TAG` wildcards.
//! * Collectives: barrier, bcast, gather(v), scatter(v), allgather(v),
//!   alltoall(v), an `alltoallw`-style per-peer-datatype variant, reduce,
//!   allreduce, scan, exscan, and a non-blocking barrier ([`RawComm::ibarrier`]).
//! * Nonblocking collectives ([`icoll`]): `ibcast`, `ireduce`, `iallreduce`,
//!   `iallgather(v)`, `ialltoall(v)` as explicit schedules advanced by the
//!   progress machinery, enabling compute/communication overlap.
//! * Graph topologies and neighborhood collectives
//!   ([`RawComm::dist_graph_create_adjacent`], `neighbor_alltoallv`).
//! * Derived datatypes: a runtime pack/unpack engine ([`dtype::TypeDesc`])
//!   mirroring `MPI_Type_contiguous` / `vector` / `indexed` /
//!   `create_struct`.
//! * User-level failure mitigation (ULFM) core: failure injection,
//!   [`RawComm::revoke`], [`RawComm::shrink`], [`RawComm::agree`].
//! * Elastic universes: dynamic rank admission as typed epoch transitions
//!   ([`Universe::run_elastic`], [`RawComm::grow`], [`RawComm::spawn_merge`])
//!   plus a consistent-hash shard map ([`elastic::ShardMap`]) for services
//!   that rebalance across membership changes.
//! * A PMPI-analog profiling interface ([`profile`]) counting calls,
//!   messages and bytes — used by the test suite to assert that the binding
//!   layer issues exactly the expected calls, and by the benchmark harness
//!   as a LogGP-style cost model.
//!
//! ## Example
//!
//! ```
//! use kamping_mpi::Universe;
//!
//! let sums = Universe::run(4, |comm| {
//!     let me = comm.rank() as u64;
//!     // allreduce of one u64 per rank
//!     let mut buf = me.to_le_bytes().to_vec();
//!     comm.allreduce(&mut buf, &|acc, x| {
//!         let a = u64::from_le_bytes(acc.try_into().unwrap());
//!         let b = u64::from_le_bytes(x.try_into().unwrap());
//!         acc.copy_from_slice(&(a + b).to_le_bytes());
//!     }, 8).unwrap();
//!     u64::from_le_bytes(buf.try_into().unwrap())
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

#![warn(unreachable_pub)]

pub mod chaos;
pub mod coll;
mod comm;
mod config;
pub mod dtype;
pub mod elastic;
mod error;
mod fault;
mod ibarrier;
pub mod icoll;
pub mod measurements;
pub mod metrics;
pub mod net;
mod p2p;
pub mod profile;
mod request;
mod tag;
mod topo;
pub mod trace;
pub mod transport;
mod universe;

pub use chaos::ChaosSpec;
pub use coll::AlltoallAlgo;
pub use comm::RawComm;
pub use error::MpiError;
pub use fault::MembershipChange;
pub use icoll::{OwnedByteOp, RawCollRequest};
pub use p2p::Status;
pub use profile::{Op, ProfileSnapshot};
pub use request::RawRequest;
pub use tag::{Tag, ANY_SOURCE, ANY_TAG};
pub use universe::Universe;

/// Reduction operator over packed byte buffers.
///
/// The closure combines one *element* at a time: it receives `acc` (the
/// accumulated element, updated in place) and `rhs` (the incoming element),
/// both exactly `elem_size` bytes long. The typed layer above supplies
/// closures that reinterpret the bytes. Operators are applied in a
/// deterministic tree order by the collectives, but the *shape* of that tree
/// depends on the communicator size — see the reproducible-reduce plugin for
/// an order-invariant alternative.
pub type ByteOp<'a> = &'a (dyn Fn(&mut [u8], &[u8]) + Sync);
