//! Result objects (paper §III-B).
//!
//! Every call returns the receive buffer implicitly, plus a value for each
//! explicitly requested `*_out()` parameter — all **by value** (the C++
//! core-guidelines style the paper adopts), never through out-pointers.
//! Unrequested slots have type [`Absent`] and occupy no space.
//!
//! Values are taken out with the `extract_*` methods (move semantics; a
//! second extraction is a logic error and panics, mirroring KaMPIng's
//! extracted-state checking) or all at once with `into_parts*` — the Rust
//! analog of decomposing the C++ result object with structured bindings.

use crate::params::Absent;

/// Result of a collective call.
///
/// Type parameters encode which values are present:
/// * `B` — the receive buffer (`Vec<T>`, or `()` when written through a
///   caller-provided reference),
/// * `C` — receive counts (`Vec<usize>` or [`Absent`]),
/// * `D` — receive displacements (`Vec<usize>` or [`Absent`]).
#[derive(Debug)]
pub struct CallResult<B, C = Absent, D = Absent> {
    pub(crate) recv: Option<B>,
    pub(crate) counts: Option<C>,
    pub(crate) displs: Option<D>,
}

impl<B, C, D> CallResult<B, C, D> {
    pub(crate) fn new(recv: B, counts: C, displs: D) -> Self {
        Self {
            recv: Some(recv),
            counts: Some(counts),
            displs: Some(displs),
        }
    }

    /// Moves the receive buffer out of the result.
    ///
    /// # Panics
    /// Panics if the buffer was already extracted.
    pub fn extract_recv_buf(&mut self) -> B {
        self.recv.take().expect("receive buffer already extracted")
    }

    /// Moves the receive counts out of the result.
    ///
    /// # Panics
    /// Panics if they were already extracted.
    pub fn extract_recv_counts(&mut self) -> C {
        self.counts
            .take()
            .expect("receive counts already extracted")
    }

    /// Moves the receive displacements out of the result.
    ///
    /// # Panics
    /// Panics if they were already extracted.
    pub fn extract_recv_displs(&mut self) -> D {
        self.displs
            .take()
            .expect("receive displacements already extracted")
    }

    /// Decomposes into (recv buffer, counts, displacements) — the
    /// structured-bindings analog.
    pub fn into_parts3(mut self) -> (B, C, D) {
        (
            self.extract_recv_buf(),
            self.extract_recv_counts(),
            self.extract_recv_displs(),
        )
    }
}

impl<B, C> CallResult<B, C, Absent> {
    /// Decomposes into (recv buffer, counts).
    pub fn into_parts2(mut self) -> (B, C) {
        (self.extract_recv_buf(), self.extract_recv_counts())
    }
}

impl<B> CallResult<B, Absent, Absent> {
    /// Takes the receive buffer — the whole result when nothing else was
    /// requested.
    pub fn into_recv_buf(mut self) -> B {
        self.extract_recv_buf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_moves_each_slot_once() {
        let mut r: CallResult<Vec<u8>, Vec<usize>> = CallResult::new(vec![1, 2], vec![3], Absent);
        assert_eq!(r.extract_recv_buf(), vec![1, 2]);
        assert_eq!(r.extract_recv_counts(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "already extracted")]
    fn double_extraction_panics() {
        let mut r: CallResult<Vec<u8>> = CallResult::new(vec![1], Absent, Absent);
        let _ = r.extract_recv_buf();
        let _ = r.extract_recv_buf();
    }

    #[test]
    fn into_parts_variants() {
        let r: CallResult<Vec<u8>> = CallResult::new(vec![9], Absent, Absent);
        assert_eq!(r.into_recv_buf(), vec![9]);

        let r: CallResult<Vec<u8>, Vec<usize>> = CallResult::new(vec![9], vec![1], Absent);
        assert_eq!(r.into_parts2(), (vec![9], vec![1]));

        let r: CallResult<Vec<u8>, Vec<usize>, Vec<usize>> =
            CallResult::new(vec![9], vec![1], vec![0]);
        assert_eq!(r.into_parts3(), (vec![9], vec![1], vec![0]));
    }
}
