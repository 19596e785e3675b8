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
//!
//! The remaining required parameters, one pair per operation:
//!
//! `send_buf` on `gather`, `scatter`, `alltoall`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.gather(send_buf(&v)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.gather().call().unwrap();
//! });
//! ```
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2 * (1 - comm.rank())];
//!     comm.scatter(send_buf(&v)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2 * (1 - comm.rank())];
//!     comm.scatter().call().unwrap();
//! });
//! ```
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.alltoall(send_buf(&v)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.alltoall().call().unwrap();
//! });
//! ```
//!
//! `send_buf` and the operation on `reduce`, `allreduce`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.reduce(send_buf(&v)).op(|a: u64, b: u64| a + b).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.reduce().op(|a: u64, b: u64| a + b).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.reduce(send_buf(&v)).call().unwrap();
//! });
//! ```
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.allreduce(send_buf(&v)).op(|a: u64, b: u64| a + b).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.allreduce().op(|a: u64, b: u64| a + b).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.allreduce(send_buf(&v)).call().unwrap();
//! });
//! ```
//!
//! `source` on `recv` and `irecv`, `send_buf` and `destination` on `isend`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let peer = 1 - comm.rank();
//!     let sent = comm.isend(send_buf_owned(vec![7u64]), destination(peer)).call().unwrap();
//!     comm.recv::<u64>(source(peer)).call().unwrap();
//!     sent.wait().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let peer = 1 - comm.rank();
//!     comm.recv::<u64>().call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let peer = 1 - comm.rank();
//!     comm.isend(destination(peer)).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let peer = 1 - comm.rank();
//!     comm.isend(send_buf_owned(vec![7u64])).call().unwrap();
//! });
//! ```
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let peer = 1 - comm.rank();
//!     let pending = comm.irecv::<u64>(source(peer)).call().unwrap();
//!     comm.send(send_buf(&[7u64]), destination(peer)).call().unwrap();
//!     pending.wait().unwrap();
//! });
//! ```
//! ```compile_fail,E0061
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let peer = 1 - comm.rank();
//!     comm.irecv::<u64>().call().unwrap();
//! });
//! ```
//!
//! # Parameters an operation would ignore are rejected too (§III-G)
//!
//! Every named parameter is one method of the call engine
//! ([`kamping::call::Call`]), available only on the operations that
//! declare it ([`kamping::call::Takes`] and friends; DESIGN.md has the
//! table). Naming it on any other operation does not compile, instead of
//! being accepted and dropped. Each pair is the nearest call that does
//! take the parameter and the one that does not.
//!
//! `root` belongs to `reduce`, not `allreduce` (likewise `scan`, `exscan`):
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.reduce(send_buf(&v)).op(|a: u64, b: u64| a + b).root(1).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let v = vec![comm.rank() as u64; 2];
//!     comm.allreduce(send_buf(&v)).op(|a: u64, b: u64| a + b).root(1).call().unwrap();
//! });
//! ```
//!
//! `recv_counts` belongs to `allgatherv`, not `allgather`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (v, c) = (vec![comm.rank() as u64; 2], [2usize, 2]);
//!     comm.allgatherv(send_buf(&v)).recv_counts(&c).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (v, c) = (vec![comm.rank() as u64; 2], [2usize, 2]);
//!     comm.allgather(send_buf(&v)).recv_counts(&c).call().unwrap();
//! });
//! ```
//!
//! `recv_displs` belongs to `alltoallv`, not `alltoall` or `gather`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (v, c, d) = (vec![comm.rank() as u64; 2], [1usize, 1], [1usize, 0]);
//!     comm.alltoallv(send_buf(&v), send_counts(&c)).recv_displs(&d).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (v, c, d) = (vec![comm.rank() as u64; 2], [1usize, 1], [1usize, 0]);
//!     comm.alltoall(send_buf(&v)).recv_displs(&d).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (v, c, d) = (vec![comm.rank() as u64; 2], [1usize, 1], [1usize, 0]);
//!     comm.gather(send_buf(&v)).recv_displs(&d).call().unwrap();
//! });
//! ```
//!
//! `recv_buf` belongs to the calls with a separate receive buffer, not `bcast`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (mut v, mut out) = (vec![comm.rank() as u64], vec![0u64; 2]);
//!     comm.allgather(send_buf(&v)).recv_buf(&mut out).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (mut v, mut out) = (vec![comm.rank() as u64], vec![0u64; 2]);
//!     comm.bcast(send_recv_buf(&mut v)).recv_buf(&mut out).call().unwrap();
//! });
//! ```
//!
//! ... and to `recv`, whose buffer the substrate fills directly, not `send`:
//!
//! ```
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (peer, mut out) = (1 - comm.rank(), vec![0u64; 1]);
//!     comm.send(send_buf(&[7u64]), destination(peer)).call().unwrap();
//!     comm.recv::<u64>(source(peer)).recv_buf(&mut out).call().unwrap();
//! });
//! ```
//! ```compile_fail,E0277
//! # use kamping_repro::kamping::{self, prelude::*};
//! kamping::run(2, |comm| {
//!     let (peer, mut out) = (1 - comm.rank(), vec![0u64; 1]);
//!     comm.send(send_buf(&[7u64]), destination(peer)).recv_buf(&mut out).call().unwrap();
//! });
//! ```

pub use kamping;
pub use kamping_graphs;
pub use kamping_mpi;
pub use kamping_phylo;
pub use kamping_plugins;
pub use kamping_serial;
pub use kamping_sort;
