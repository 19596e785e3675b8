//! # kamping-repro — umbrella crate of the kamping-rs workspace
//!
//! Re-exports the public surface of every workspace crate so that the
//! examples (`examples/`) and the cross-crate integration tests (`tests/`)
//! can use a single dependency. Library users should depend on the
//! individual crates instead:
//!
//! * [`kamping`] — the binding layer (the paper's contribution)
//! * [`kamping_mpi`] — the message-passing substrate
//! * [`kamping_plugins`] — grid/sparse all-to-all, ULFM, reproducible reduce
//! * [`kamping_serial`] — binary serialization
//! * [`kamping_graphs`] — graph generators, BFS, label propagation
//! * [`kamping_sort`] — sample sort and suffix arrays
//! * [`kamping_phylo`] — the RAxML-NG-like mini application
//!
//! # Required parameters are checked at compile time (paper §III-G)
//!
//! A call's required parameters are the arguments of the method that
//! starts it; the optional ones are named methods that may be left out or
//! given in any order. Omitting a required parameter therefore does not
//! compile. Each pair below is a compiling call and the same call with one
//! required parameter removed.
//!
//! `send_buf` on `allgatherv`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64];
//!     comm.allgatherv(send_buf(&v)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64];
//!     comm.allgatherv().call().unwrap();
//! });
//! ```
//!
//! `send_buf` and `destination` on `send`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64];
//!     if comm.rank() == 0 {
//!         comm.send(send_buf(&v), destination(1)).call().unwrap();
//!     } else {
//!         comm.recv::<u64>(source(0)).call().unwrap();
//!     }
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64];
//!     comm.send(destination(1)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64];
//!     comm.send(send_buf(&v)).call().unwrap();
//! });
//! ```
//!
//! `send_buf` on `alltoallv`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (v, counts) = (vec![comm.rank() as u64; 2], [1usize, 1]);
//!     comm.alltoallv(send_buf(&v), send_counts(&counts)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (v, counts) = (vec![comm.rank() as u64; 2], [1usize, 1]);
//!     comm.alltoallv(send_counts(&counts)).call().unwrap();
//! });
//! ```
//!
//! `send_recv_buf` on `bcast`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let mut v = vec![comm.rank() as u64];
//!     comm.bcast(send_recv_buf(&mut v)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let mut v = vec![comm.rank() as u64];
//!     comm.bcast().call().unwrap();
//! });
//! ```

pub use kamping;
pub use kamping_graphs;
pub use kamping_mpi;
pub use kamping_phylo;
pub use kamping_plugins;
pub use kamping_serial;
pub use kamping_sort;
