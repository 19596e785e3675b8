//! Error codes of the substrate.
//!
//! MPI reports errors through integer return codes and makes no distinction
//! between *failures* (a peer died, a buffer was too small) and *usage
//! errors* (invalid rank). The paper (§III-G) argues for a richer model; the
//! substrate therefore exposes a proper error enum and the binding layer
//! maps it onto its own error-handling policy.

use std::fmt;
use std::time::Duration;

/// Result alias used throughout the substrate.
pub(crate) type MpiResult<T> = Result<T, MpiError>;

/// Errors raised by substrate operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// A process that this operation must hear from has failed
    /// (ULFM `MPI_ERR_PROC_FAILED`).
    ProcFailed {
        /// Global rank of (one of) the failed process(es).
        rank: usize,
    },
    /// The communicator has been revoked (ULFM `MPI_ERR_REVOKED`).
    Revoked,
    /// A bounded wait (`recv_timeout`, [`crate::RawRequest::wait_timeout`])
    /// hit its deadline before the awaited event occurred. The peer may merely be slow — unlike
    /// [`MpiError::ProcFailed`] this carries no evidence of death, only
    /// that the operation did not complete within the budget.
    Timeout {
        /// How long the operation actually waited before giving up.
        waited: Duration,
    },
    /// The launch/transport configuration is unusable: a malformed
    /// `KAMPING_TRANSPORT`/`KAMPING_CHAOS` value, a missing rendezvous
    /// variable, an unbindable listener address. Surfaced through
    /// [`crate::Universe::try_run`] instead of panicking, so launcher bugs
    /// are testable.
    Config(String),
    /// A rank argument was outside the communicator.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The communicator size it was checked against.
        size: usize,
    },
    /// Count/displacement vectors disagreed with the communicator size or
    /// the buffer length.
    InvalidCounts {
        /// Human-readable description of the mismatch.
        what: &'static str,
    },
    /// The operation is not valid on this communicator (e.g. a neighborhood
    /// collective on a communicator without a graph topology).
    InvalidTopology,
    /// Internal invariant violation — a bug in the substrate itself.
    Internal(&'static str),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::ProcFailed { rank } => {
                write!(f, "process failure detected (global rank {rank})")
            }
            MpiError::Revoked => write!(f, "communicator has been revoked"),
            MpiError::Timeout { waited } => {
                write!(f, "operation timed out after {waited:?}")
            }
            MpiError::Config(what) => write!(f, "invalid configuration: {what}"),
            MpiError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for communicator of size {size}")
            }
            MpiError::InvalidCounts { what } => write!(f, "invalid counts/displacements: {what}"),
            MpiError::InvalidTopology => write!(f, "communicator has no (suitable) topology"),
            MpiError::Internal(msg) => write!(f, "internal substrate error: {msg}"),
        }
    }
}

impl std::error::Error for MpiError {}

impl MpiError {
    /// Whether this error is a *failure* in the paper's sense (potentially
    /// recoverable, e.g. via ULFM) as opposed to a usage error.
    pub fn is_failure(&self) -> bool {
        matches!(self, MpiError::ProcFailed { .. } | MpiError::Revoked)
    }

    /// Whether this error means "the awaited event has not happened yet"
    /// ([`MpiError::Timeout`]): the operation may be retried with a longer
    /// deadline, unlike failures and usage errors.
    pub fn is_timeout(&self) -> bool {
        matches!(self, MpiError::Timeout { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = MpiError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("invalid rank 9"));
    }

    #[test]
    fn failure_classification() {
        assert!(MpiError::ProcFailed { rank: 0 }.is_failure());
        assert!(MpiError::Revoked.is_failure());
        assert!(!MpiError::InvalidRank { rank: 0, size: 1 }.is_failure());
        let t = MpiError::Timeout {
            waited: Duration::from_millis(5),
        };
        assert!(!t.is_failure());
        assert!(t.is_timeout());
        assert!(t.to_string().contains("timed out"));
        let c = MpiError::Config("KAMPING_TRANSPORT must be shm or socket".into());
        assert!(!c.is_failure());
        assert!(!c.is_timeout());
        assert!(c.to_string().contains("invalid configuration"));
    }
}
