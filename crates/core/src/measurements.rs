//! Cross-rank time measurements.
//!
//! The KaMPIng library ships a measurement component used throughout its
//! example studies (the running-time plots of §IV are produced with it):
//! named timers accumulated locally and *aggregated over the communicator*
//! (min / max / mean / gather) at evaluation points. The implementation is
//! the substrate's hierarchical [`TimerTree`]; this module re-exports it
//! for the typed layer.
//!
//! ```
//! use kamping::measurements::{aggregate, TimerTree};
//!
//! kamping::run(4, |comm| {
//!     let mut t = TimerTree::new();
//!     t.start("compute");
//!     let mut acc = 0u64;
//!     for i in 0..1000 * (comm.rank() as u64 + 1) {
//!         acc = acc.wrapping_add(i);
//!     }
//!     std::hint::black_box(acc);
//!     t.stop();
//!     let agg = aggregate(&t, &comm).unwrap();
//!     let row = &agg.root.children[0].measurements[0];
//!     assert_eq!(agg.root.children[0].name, "compute");
//!     assert!(row.max >= row.min);
//!     assert_eq!(row.per_rank.len(), 4);
//! });
//! ```

pub use kamping_mpi::measurements::{AggNode, Aggregate, TimerTree, TreeAggregate};

use crate::communicator::Communicator;
use crate::error::KResult;

/// Collectively aggregates `tree` over the communicator
/// ([`TimerTree::aggregate`] on the underlying raw communicator): every
/// rank must call it with an identically-shaped tree; the result is
/// identical on every rank.
pub fn aggregate(tree: &TimerTree, comm: &Communicator) -> KResult<TreeAggregate> {
    Ok(tree.aggregate(comm.raw())?)
}
