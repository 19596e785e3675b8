//! `reduce` / `allreduce` / `scan` / `exscan`.
//!
//! The reduction operation is a named parameter too: any `Fn(T, T) -> T`
//! closure works (the "reduction via lambda" feature the MPI forum asked
//! for, §II), and [`ops`] provides the standard functors (`ops::sum()`,
//! `ops::min()`, …) that play the role of `std::plus` mapping to
//! `MPI_SUM`. Only a reduction that was given an `.op(..)` has a `call` —
//! forgetting the operation is a compile error, not a runtime one — and
//! `.root(..)` exists on `reduce` alone: the other three would ignore it
//! (§III-G). The in-place variants are the same operations started on a
//! `send_recv_buf`.

use kamping_mpi::{ByteOp, RawComm};

use crate::call::{Call, Reduces, Rooted};
use crate::communicator::Communicator;
use crate::error::{KResult, KampingError};
use crate::params::{Absent, ReduceBufSlot, SendBuf, SendRecvBuf, Unset};
use crate::result::CallResult;
use crate::types::{pod_as_bytes, pod_from_bytes, pod_value_as_bytes, PodType};

/// Standard reduction functors (the `std::plus` → `MPI_SUM` mapping).
pub mod ops {
    /// Addition.
    pub fn sum<T: std::ops::Add<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a + b
    }

    /// Multiplication.
    pub fn prod<T: std::ops::Mul<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a * b
    }

    /// Minimum (PartialOrd; ties keep the accumulator, NaNs propagate the
    /// right operand's position semantics like `MPI_MIN` on floats).
    pub fn min<T: PartialOrd>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| if b < a { b } else { a }
    }

    /// Maximum.
    pub fn max<T: PartialOrd>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| if b > a { b } else { a }
    }

    /// Bitwise and.
    pub fn bit_and<T: std::ops::BitAnd<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a & b
    }

    /// Bitwise or.
    pub fn bit_or<T: std::ops::BitOr<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a | b
    }

    /// Bitwise xor.
    pub fn bit_xor<T: std::ops::BitXor<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a ^ b
    }
}

/// A reduction of kind `K` ([`ToRoot`], [`All`], [`Prefix`],
/// [`ExclusivePrefix`]) combining elements with `F` ([`Unset`] until
/// `.op(..)` names it).
pub struct Reduction<K, F = Unset> {
    kind: K,
    f: F,
}

impl<K, F> Reduces for Reduction<K, F> {
    type With<G> = Reduction<K, G>;
    fn with_op<G>(self, f: G) -> Reduction<K, G> {
        Reduction { kind: self.kind, f }
    }
}

/// What distinguishes the four reductions: the substrate call that
/// combines everyone's `bytes` with `op`, and who receives what.
pub trait ReduceKind {
    /// Runs the reduction; returns this rank's result bytes.
    fn run(self, raw: &RawComm, bytes: Vec<u8>, op: ByteOp<'_>, elem: usize) -> KResult<Vec<u8>>;
}

/// `reduce`: the elementwise reduction of everyone's buffer lands at the
/// root (others receive empty output).
pub struct ToRoot {
    root: usize,
}

impl<F> Rooted for Reduction<ToRoot, F> {
    fn root_mut(&mut self) -> &mut usize {
        &mut self.kind.root
    }
}

impl ReduceKind for ToRoot {
    fn run(
        self,
        raw: &RawComm,
        mut bytes: Vec<u8>,
        op: ByteOp<'_>,
        elem: usize,
    ) -> KResult<Vec<u8>> {
        raw.reduce(&mut bytes, op, elem, self.root)?;
        Ok(if raw.rank() == self.root {
            bytes
        } else {
            Vec::new()
        })
    }
}

/// `allreduce`: the reduction is received by every rank.
pub struct All;

impl ReduceKind for All {
    fn run(
        self,
        raw: &RawComm,
        mut bytes: Vec<u8>,
        op: ByteOp<'_>,
        elem: usize,
    ) -> KResult<Vec<u8>> {
        raw.allreduce(&mut bytes, op, elem)?;
        Ok(bytes)
    }
}

/// `scan`: inclusive prefix reduction over ranks.
pub struct Prefix;

impl ReduceKind for Prefix {
    fn run(
        self,
        raw: &RawComm,
        mut bytes: Vec<u8>,
        op: ByteOp<'_>,
        elem: usize,
    ) -> KResult<Vec<u8>> {
        raw.scan(&mut bytes, op, elem)?;
        Ok(bytes)
    }
}

/// `exscan`: exclusive prefix reduction; rank 0 receives an empty buffer,
/// as its value is undefined in MPI.
pub struct ExclusivePrefix;

impl ReduceKind for ExclusivePrefix {
    fn run(self, raw: &RawComm, bytes: Vec<u8>, op: ByteOp<'_>, elem: usize) -> KResult<Vec<u8>> {
        Ok(raw.exscan(&bytes, op, elem)?.unwrap_or_default())
    }
}

impl Communicator {
    fn reduction<K, B>(&self, kind: K, buf: B) -> Call<'_, Reduction<K>, B> {
        Call::new(self, Reduction { kind, f: Unset }, buf)
    }

    /// Starts a rooted `reduce` of `send_buf` (default root 0); attach the
    /// reduction with `.op(…)`.
    pub fn reduce<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Reduction<ToRoot>, SendBuf<X>> {
        self.reduction(ToRoot { root: 0 }, send_buf)
    }

    /// Starts an `allreduce` of `send_buf`; attach the reduction with
    /// `.op(…)`.
    pub fn allreduce<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Reduction<All>, SendBuf<X>> {
        self.reduction(All, send_buf)
    }

    /// Starts a `scan` of `send_buf`; attach the reduction with `.op(…)`.
    pub fn scan<X>(&self, send_buf: SendBuf<X>) -> Call<'_, Reduction<Prefix>, SendBuf<X>> {
        self.reduction(Prefix, send_buf)
    }

    /// Starts an `exscan` of `send_buf`; attach the reduction with
    /// `.op(…)`.
    pub fn exscan<X>(
        &self,
        send_buf: SendBuf<X>,
    ) -> Call<'_, Reduction<ExclusivePrefix>, SendBuf<X>> {
        self.reduction(ExclusivePrefix, send_buf)
    }

    /// Starts the in-place `reduce` on `send_recv_buf`.
    pub fn reduce_inplace<X>(
        &self,
        send_recv_buf: SendRecvBuf<X>,
    ) -> Call<'_, Reduction<ToRoot>, SendRecvBuf<X>> {
        self.reduction(ToRoot { root: 0 }, send_recv_buf)
    }

    /// Starts the in-place `allreduce` on `send_recv_buf`.
    pub fn allreduce_inplace<X>(
        &self,
        send_recv_buf: SendRecvBuf<X>,
    ) -> Call<'_, Reduction<All>, SendRecvBuf<X>> {
        self.reduction(All, send_recv_buf)
    }

    /// Starts the in-place `scan` on `send_recv_buf`.
    pub fn scan_inplace<X>(
        &self,
        send_recv_buf: SendRecvBuf<X>,
    ) -> Call<'_, Reduction<Prefix>, SendRecvBuf<X>> {
        self.reduction(Prefix, send_recv_buf)
    }

    /// Starts the in-place `exscan` on `send_recv_buf`.
    pub fn exscan_inplace<X>(
        &self,
        send_recv_buf: SendRecvBuf<X>,
    ) -> Call<'_, Reduction<ExclusivePrefix>, SendRecvBuf<X>> {
        self.reduction(ExclusivePrefix, send_recv_buf)
    }
}

/// Applies a typed combine to one element in wire form: `acc = op(acc, rhs)`.
pub(crate) fn combine_bytes<T: PodType>(op: &impl Fn(T, T) -> T, acc: &mut [u8], rhs: &[u8]) {
    let a = pod_from_bytes::<T>(acc).expect("element size");
    let b = pod_from_bytes::<T>(rhs).expect("element size");
    acc.copy_from_slice(pod_value_as_bytes(&op(a, b)));
}

impl<K: ReduceKind, F, B> Call<'_, Reduction<K, F>, B> {
    /// Executes the reduction. With a `send_buf` the result is a fresh
    /// vector; with a `send_recv_buf` it replaces the buffer's contents.
    pub fn call<T>(self) -> KResult<CallResult<B::Out>>
    where
        T: PodType,
        B: ReduceBufSlot<T>,
        F: Fn(T, T) -> T + Sync,
    {
        if T::SIZE == 0 {
            return Err(KampingError::InvalidArgument(
                "cannot reduce zero-sized elements",
            ));
        }
        let Reduction { kind, f } = self.op;
        let op = move |acc: &mut [u8], rhs: &[u8]| combine_bytes(&f, acc, rhs);
        let bytes = pod_as_bytes(self.send.input()).to_vec();
        let reduced = kind.run(self.comm.raw(), bytes, &op, T::SIZE)?;
        Ok(CallResult::new(
            self.send.deliver(&reduced)?,
            Absent,
            Absent,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::ops;
    use crate::prelude::*;

    #[test]
    fn allreduce_sum_vector() {
        crate::run(4, |comm| {
            let mine = vec![1u64, comm.rank() as u64];
            let out = comm
                .allreduce(send_buf(&mine))
                .op(ops::sum())
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, vec![4, 6]);
        });
    }

    #[test]
    fn allreduce_with_lambda() {
        crate::run(3, |comm| {
            // "reduction via lambda": keep the lexicographically larger pair.
            let mine = [comm.rank() as u32 % 2, comm.rank() as u32];
            let out = comm
                .allreduce(send_buf(&mine))
                .op(|a: u32, b: u32| a.rotate_left(1) ^ b)
                .call()
                .unwrap()
                .into_recv_buf();
            // Deterministic tree order ⇒ same value on every rank.
            let all = comm.allgather_vec(&out).unwrap();
            assert!(all.chunks(2).all(|c| c == &all[0..2]));
        });
    }

    #[test]
    fn reduce_lands_at_root_only() {
        crate::run(4, |comm| {
            let mine = [comm.rank() as u64 + 1];
            let out = comm
                .reduce(send_buf(&mine))
                .op(ops::prod())
                .root(2)
                .call()
                .unwrap()
                .into_recv_buf();
            if comm.rank() == 2 {
                assert_eq!(out, vec![24]);
            } else {
                assert!(out.is_empty());
            }
        });
    }

    #[test]
    fn scan_and_exscan() {
        crate::run(4, |comm| {
            let r = comm.rank() as u64;
            let inc = comm.scan_single(r + 1, ops::sum()).unwrap();
            assert_eq!(inc, (r + 1) * (r + 2) / 2);

            let exc = comm.exscan_single(r + 1, 0, ops::sum()).unwrap();
            assert_eq!(exc, r * (r + 1) / 2);
        });
    }

    #[test]
    fn min_max_ops() {
        crate::run(5, |comm| {
            let v = comm
                .allreduce_single(comm.rank() as i64 - 2, ops::min())
                .unwrap();
            assert_eq!(v, -2);
            let v = comm
                .allreduce_single(comm.rank() as f64, ops::max())
                .unwrap();
            assert_eq!(v, 4.0);
        });
    }

    #[test]
    fn bitwise_ops() {
        crate::run(3, |comm| {
            let v = comm
                .allreduce_single(1u8 << comm.rank(), ops::bit_or())
                .unwrap();
            assert_eq!(v, 0b111);
            let v = comm
                .allreduce_single(0b110u8 | comm.rank() as u8, ops::bit_and())
                .unwrap();
            assert_eq!(v, 0b110);
            let v = comm.allreduce_single(1u8, ops::bit_xor()).unwrap();
            assert_eq!(v, 1);
        });
    }

    #[test]
    fn allreduce_inplace_reuses_buffer() {
        crate::run(2, |comm| {
            let mut v = vec![comm.rank() as u32 + 1; 3];
            comm.allreduce_inplace(send_recv_buf(&mut v))
                .op(ops::sum())
                .call()
                .unwrap();
            assert_eq!(v, vec![3; 3]);
        });
    }

    #[test]
    fn float_reduction_tree_depends_on_p_motivating_repro_reduce() {
        // Documented non-guarantee: with floats, different communicator
        // sizes may give different roundings — exactly why §V-C exists.
        // Here we only check the reduction completes and is close.
        for p in [1, 2, 3, 4] {
            crate::run(p, |comm| {
                let x = 1.0f64 / (comm.rank() as f64 + 3.0);
                let s = comm.allreduce_single(x, ops::sum()).unwrap();
                let want: f64 = (0..comm.size()).map(|r| 1.0 / (r as f64 + 3.0)).sum();
                assert!((s - want).abs() < 1e-12);
            });
        }
    }
}
