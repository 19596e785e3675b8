//! # kamping — flexible, (near) zero-overhead message-passing bindings
//!
//! This crate is the Rust reproduction of the KaMPIng C++ library: an
//! ergonomic binding layer over a low-level message-passing interface (the
//! [`kamping_mpi`] substrate here; real MPI in the paper) that covers the
//! *complete range of abstraction levels* (paper Fig. 1):
//!
//! 1. **STL-style one-liners** — `comm.allgatherv_vec(&v)` concatenates
//!    everyone's vector with all counts/displacements inferred;
//! 2. **named parameters** — any subset of an operation's optional
//!    parameters can be supplied, in any order, as methods of the one
//!    typestate [`call::Call`]; omitted parameters are *computed* (sometimes
//!    with extra communication, e.g. an allgather of send counts), requested
//!    out-parameters are returned by value, and a parameter the operation
//!    would ignore does not compile;
//! 3. **raw access** — [`Communicator::raw`] exposes the full low-level
//!    interface for code that wants plain-MPI semantics.
//!
//! Because parameter presence is encoded in *types*, the default-computation
//! code paths are selected at compile time (monomorphization — the Rust
//! analog of the paper's `constexpr if`) and a fully-specified call compiles
//! to the same code a hand-rolled low-level implementation does. That is the
//! "(near) zero overhead" claim, and the `overhead` benchmark in
//! `kamping-bench` measures it.
//!
//! ```
//! use kamping::prelude::*;
//!
//! let worlds = kamping::run(4, |comm| {
//!     let mine = vec![comm.rank() as u64; comm.rank() + 1];
//!     // Level 1: everything inferred.
//!     let all = comm.allgatherv_vec(&mine).unwrap();
//!     assert_eq!(all.len(), 1 + 2 + 3 + 4);
//!     // Level 2: ask for the receive counts too.
//!     let (all2, counts) = comm
//!         .allgatherv(send_buf(&mine))
//!         .recv_counts_out()
//!         .call()
//!         .unwrap()
//!         .into_parts2();
//!     assert_eq!(all2, all);
//!     assert_eq!(counts, vec![1, 2, 3, 4]);
//!     all.len()
//! });
//! assert_eq!(worlds, vec![10; 4]);
//! ```
//!
//! ## Safety features (paper §III-E, §III-G)
//!
//! * Non-blocking operations *own* their buffers: `isend` moves the send
//!   buffer into the call and `NonBlockingResult::wait` moves it back, so
//!   no code can touch a buffer while the transfer is in flight — enforced
//!   by the borrow checker, not by programmer discipline.
//! * Failures surface as `Result`s ([`KampingError`]), never as silent
//!   return codes; usage errors (missing parameters, wrong buffer types)
//!   are compile errors.
//! * Receive buffers carry a [`ResizePolicy`] chosen
//!   at compile time: `ResizeToFit`, `GrowOnly`, or the checking `NoResize`.

pub mod assertions;
pub mod buffers;
pub mod call;
pub mod collectives;
pub mod communicator;
pub mod error;
pub mod icoll;
pub mod measurements;
pub mod nonblocking;
pub mod p2p;
pub mod params;
pub mod plugin;
pub mod resize;
pub mod result;
pub mod serialize;
pub mod topology;
pub mod types;
pub mod utils;

pub use communicator::{run, run_profiled, Communicator};
pub use error::{KResult, KampingError};
pub use icoll::CollRequest;
pub use nonblocking::{BoundedRequestPool, NonBlockingResult, RequestPool};
pub use params::*;
pub use resize::{GrowOnly, NoResize, ResizePolicy, ResizeToFit};
pub use serialize::{as_deserializable, as_serialized};
pub use topology::TopoComm;
pub use types::PodType;

/// Everything needed to write kamping applications.
pub mod prelude {
    pub use crate::communicator::{run, Communicator};
    pub use crate::error::{KResult, KampingError};
    pub use crate::params::*;
    pub use crate::resize::{GrowOnly, NoResize, ResizeToFit};
    pub use crate::serialize::{as_deserializable, as_serialized};
    pub use crate::types::PodType;
    pub use crate::utils::with_flattened;
}
