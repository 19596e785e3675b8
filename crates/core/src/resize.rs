//! Resize policies — compile-time memory-allocation control (paper §III-C).
//!
//! Every parameter that accepts a container carries a policy type deciding
//! what happens when the incoming data does not fit:
//!
//! * [`ResizeToFit`] — always resize to exactly the incoming size (the
//!   convenient default of high-level bindings; hidden allocation allowed);
//! * [`GrowOnly`] — grow if too small, never shrink (amortizes repeated
//!   calls against one peak-size allocation);
//! * [`NoResize`] — never (re)allocate; error if the data does not fit.
//!   This is the policy for highly-tuned code that manages memory itself.
//!   (KaMPIng's C++ default performs *no checking at all*; in Rust we keep
//!   the no-allocation guarantee but always perform the bounds check —
//!   one branch, and the failure mode is an error value instead of UB.)
//!
//! The policy is a type parameter, so the choice compiles away entirely.

use crate::error::{KResult, KampingError};

/// Compile-time policy deciding how a receive container adapts to incoming
/// data of `needed` elements.
pub trait ResizePolicy: Send + 'static {
    /// Human-readable policy name (diagnostics).
    const NAME: &'static str;

    /// True when the policy always resizes to exactly the incoming size.
    /// Receive paths use this (statically) to skip the zero-initialization
    /// of elements that are immediately overwritten.
    const EXACT_FIT: bool = false;

    /// Prepares `buf` to hold exactly `needed` elements starting at index 0
    /// (contents afterwards are unspecified; the caller overwrites them).
    /// `fill` initializes any newly created slots. On success,
    /// `buf.len() >= needed`.
    fn prepare<T: Clone>(buf: &mut Vec<T>, needed: usize, fill: T) -> KResult<()>;
}

/// Always resize the container to exactly the incoming size.
pub struct ResizeToFit;

impl ResizePolicy for ResizeToFit {
    const NAME: &'static str = "resize_to_fit";
    const EXACT_FIT: bool = true;

    fn prepare<T: Clone>(buf: &mut Vec<T>, needed: usize, fill: T) -> KResult<()> {
        buf.resize(needed, fill);
        Ok(())
    }
}

/// Grow when too small, never shrink.
pub struct GrowOnly;

impl ResizePolicy for GrowOnly {
    const NAME: &'static str = "grow_only";

    fn prepare<T: Clone>(buf: &mut Vec<T>, needed: usize, fill: T) -> KResult<()> {
        if buf.len() < needed {
            buf.resize(needed, fill);
        }
        Ok(())
    }
}

/// Never allocate: the container must already be large enough.
pub struct NoResize;

impl ResizePolicy for NoResize {
    const NAME: &'static str = "no_resize";

    fn prepare<T: Clone>(buf: &mut Vec<T>, needed: usize, _fill: T) -> KResult<()> {
        if buf.len() < needed {
            return Err(KampingError::BufferTooSmall {
                needed,
                available: buf.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_to_fit_shrinks_and_grows() {
        let mut v = vec![1u32; 10];
        ResizeToFit::prepare(&mut v, 3, 0).unwrap();
        assert_eq!(v.len(), 3);
        ResizeToFit::prepare(&mut v, 8, 0).unwrap();
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn grow_only_never_shrinks() {
        let mut v = vec![1u32; 10];
        GrowOnly::prepare(&mut v, 3, 0).unwrap();
        assert_eq!(v.len(), 10);
        GrowOnly::prepare(&mut v, 20, 0).unwrap();
        assert_eq!(v.len(), 20);
    }

    #[test]
    fn no_resize_checks_but_never_allocates() {
        let mut v = vec![0u8; 4];
        let cap = v.capacity();
        NoResize::prepare(&mut v, 4, 0).unwrap();
        assert_eq!(v.capacity(), cap);
        let err = NoResize::prepare(&mut v, 5, 0).unwrap_err();
        assert_eq!(
            err,
            KampingError::BufferTooSmall {
                needed: 5,
                available: 4
            }
        );
    }
}
