//! The named-parameter engine (paper §III-A, §III-G, §III-H).
//!
//! Every typed operation — collective or point-to-point, blocking or not —
//! is a [`Call`]: a small operation value `O` (which operation it is, plus
//! its scalars such as the root or the tag) and six parameter slots, each
//! [`Unset`] or one of the slot types of [`crate::params`]:
//!
//! | slot          | filled by                                              |
//! |---------------|--------------------------------------------------------|
//! | `send`        | the positional `send_buf(..)` / `send_recv_buf(..)`    |
//! | `recv`        | `.recv_buf(..)`, `.recv_buf_resize(..)`, `.recv_buf_owned(..)` |
//! | `send_counts` | `.send_counts(..)` (positional on `alltoallv`)         |
//! | `send_displs` | `.send_displs(..)`                                     |
//! | `recv_counts` | `.recv_counts(..)`, `.recv_counts_out()`               |
//! | `recv_displs` | `.recv_displs(..)`, `.recv_displs_out()`               |
//!
//! Each named parameter is one generic method of `Call`, defined here and
//! nowhere else, bounded by a legality trait of the operation
//! ([`Takes`]`<role>`, [`Rooted`], [`Tagged`], [`Counted`], [`Reduces`]).
//! An operation states which parameters it accepts with one `impl` line
//! each; naming any other parameter on it does not compile (§III-G), and
//! DESIGN.md's *operation × parameter* table is checked against exactly
//! those impls by this module's unit test. What an operation *does* with
//! its slots is its `call()`, an inherent method of `Call<'_, ThatOp, ..>`
//! next to the operation's definition.
//!
//! Zero overhead (§III-H): a slot's presence is a type, so `call()` selects
//! "use the given value" or "compute the default" per slot through
//! associated constants ([`crate::params::CountSlot::PROVIDED`]) — the
//! branch not taken, including any communication it would do, is never
//! instantiated for that call.

use kamping_mpi::Tag;

use crate::communicator::Communicator;
use crate::params::{Counts, CountsOut, RecvBuf, Unset};
use crate::resize::{NoResize, ResizePolicy, ResizeToFit};
use crate::types::PodType;

/// The named parameters that occupy a slot, as type-level names for
/// [`Takes`].
pub mod role {
    /// `recv_buf`, `recv_buf_resize`, `recv_buf_owned`.
    pub struct RecvBuf;
    /// `send_counts`.
    pub struct SendCounts;
    /// `send_displs`.
    pub struct SendDispls;
    /// `recv_counts`, `recv_counts_out`.
    pub struct RecvCounts;
    /// `recv_displs`, `recv_displs_out`.
    pub struct RecvDispls;
}

/// Legality of a slot parameter: operation `Self` accepts the named
/// parameter `Role`.
pub trait Takes<Role> {}

/// Operations with a root rank (`.root(..)`, default 0).
pub trait Rooted {
    /// The root the call will use.
    fn root_mut(&mut self) -> &mut usize;
}

/// Point-to-point operations (`.tag(..)`, default [`crate::p2p::DEFAULT_TAG`]).
pub trait Tagged {
    /// The tag the call will use.
    fn tag_mut(&mut self) -> &mut Tag;
}

/// Receives that can validate the delivered element count (`.recv_count(..)`).
pub trait Counted {
    /// The element count the call will insist on, if any.
    fn expected_mut(&mut self) -> &mut Option<usize>;
}

/// Reductions (`.op(..)`): the operation value changes type to carry the
/// combine function.
pub trait Reduces {
    /// The same operation holding `G` as its combine function.
    type With<G>;
    /// Attaches the combine function.
    fn with_op<G>(self, f: G) -> Self::With<G>;
}

/// One typed operation under construction; see the [module docs](self).
#[must_use = "a call does nothing until .call()"]
pub struct Call<'c, O, S = Unset, R = Unset, SC = Unset, SD = Unset, RC = Unset, RD = Unset> {
    pub(crate) comm: &'c Communicator,
    pub(crate) op: O,
    pub(crate) send: S,
    pub(crate) recv: R,
    pub(crate) send_counts: SC,
    pub(crate) send_displs: SD,
    pub(crate) recv_counts: RC,
    pub(crate) recv_displs: RD,
}

impl<'c, O, S> Call<'c, O, S> {
    /// Operation `op` on `comm` with its positional buffer in the send slot
    /// and every optional slot unset.
    pub(crate) fn new(comm: &'c Communicator, op: O, send: S) -> Self {
        Call {
            comm,
            op,
            send,
            recv: Unset,
            send_counts: Unset,
            send_displs: Unset,
            recv_counts: Unset,
            recv_displs: Unset,
        }
    }
}

// A call's type is the list of its slots; the setters' return types spell
// it out once so that no call site ever has to.
#[allow(clippy::type_complexity)]
impl<'c, O, S, R, SC, SD, RC, RD> Call<'c, O, S, R, SC, SD, RC, RD> {
    /// The same call with its optional slots `(recv, send_counts,
    /// send_displs, recv_counts, recv_displs)` replaced by `f`'s.
    pub(crate) fn reslot<R2, SC2, SD2, RC2, RD2>(
        self,
        f: impl FnOnce((R, SC, SD, RC, RD)) -> (R2, SC2, SD2, RC2, RD2),
    ) -> Call<'c, O, S, R2, SC2, SD2, RC2, RD2> {
        let slots = (
            self.recv,
            self.send_counts,
            self.send_displs,
            self.recv_counts,
            self.recv_displs,
        );
        let (recv, send_counts, send_displs, recv_counts, recv_displs) = f(slots);
        Call {
            comm: self.comm,
            op: self.op,
            send: self.send,
            recv,
            send_counts,
            send_displs,
            recv_counts,
            recv_displs,
        }
    }

    /// Writes the result into `buf` under the checking [`NoResize`] policy
    /// (no hidden allocation; errors if `buf` is too short).
    pub fn recv_buf<'b, T: PodType>(
        self,
        buf: &'b mut Vec<T>,
    ) -> Call<'c, O, S, RecvBuf<&'b mut Vec<T>, NoResize>, SC, SD, RC, RD>
    where
        O: Takes<role::RecvBuf>,
    {
        self.reslot(|(_, sc, sd, rc, rd)| (RecvBuf::new(buf), sc, sd, rc, rd))
    }

    /// Writes the result into `buf` under resize policy `P`
    /// (`.recv_buf_resize::<ResizeToFit, _>(&mut v)`).
    pub fn recv_buf_resize<'b, P: ResizePolicy, T: PodType>(
        self,
        buf: &'b mut Vec<T>,
    ) -> Call<'c, O, S, RecvBuf<&'b mut Vec<T>, P>, SC, SD, RC, RD>
    where
        O: Takes<role::RecvBuf>,
    {
        self.reslot(|(_, sc, sd, rc, rd)| (RecvBuf::new(buf), sc, sd, rc, rd))
    }

    /// Moves `buf` into the call so its allocation is *reused* for the
    /// result, which is then returned by value — the paper's answer to
    /// "returning by value costs a redundant allocation" (§III-B).
    pub fn recv_buf_owned<T: PodType>(
        self,
        buf: Vec<T>,
    ) -> Call<'c, O, S, RecvBuf<Vec<T>, ResizeToFit>, SC, SD, RC, RD>
    where
        O: Takes<role::RecvBuf>,
    {
        self.reslot(|(_, sc, sd, rc, rd)| (RecvBuf::new(buf), sc, sd, rc, rd))
    }

    /// Supplies the number of elements sent to each rank.
    pub fn send_counts<'v>(
        self,
        counts: &'v [usize],
    ) -> Call<'c, O, S, R, Counts<&'v [usize]>, SD, RC, RD>
    where
        O: Takes<role::SendCounts>,
    {
        self.reslot(|(r, _, sd, rc, rd)| (r, Counts { values: counts }, sd, rc, rd))
    }

    /// Supplies the element offset at which each rank's outgoing block
    /// starts (default: blocks back to back).
    pub fn send_displs<'v>(
        self,
        displs: &'v [usize],
    ) -> Call<'c, O, S, R, SC, Counts<&'v [usize]>, RC, RD>
    where
        O: Takes<role::SendDispls>,
    {
        self.reslot(|(r, sc, _, rc, rd)| (r, sc, Counts { values: displs }, rc, rd))
    }

    /// Supplies the number of elements received from each rank, which
    /// saves the exchange that otherwise learns them.
    pub fn recv_counts<'v>(
        self,
        counts: &'v [usize],
    ) -> Call<'c, O, S, R, SC, SD, Counts<&'v [usize]>, RD>
    where
        O: Takes<role::RecvCounts>,
    {
        self.reslot(|(r, sc, sd, _, rd)| (r, sc, sd, Counts { values: counts }, rd))
    }

    /// Requests the receive counts as an out-value (§III-B).
    pub fn recv_counts_out(self) -> Call<'c, O, S, R, SC, SD, CountsOut, RD>
    where
        O: Takes<role::RecvCounts>,
    {
        self.reslot(|(r, sc, sd, _, rd)| (r, sc, sd, CountsOut, rd))
    }

    /// Supplies the element offset at which each rank's received block
    /// starts (default: blocks back to back in rank order).
    pub fn recv_displs<'v>(
        self,
        displs: &'v [usize],
    ) -> Call<'c, O, S, R, SC, SD, RC, Counts<&'v [usize]>>
    where
        O: Takes<role::RecvDispls>,
    {
        self.reslot(|(r, sc, sd, rc, _)| (r, sc, sd, rc, Counts { values: displs }))
    }

    /// Requests the receive displacements as an out-value (§III-B).
    pub fn recv_displs_out(self) -> Call<'c, O, S, R, SC, SD, RC, CountsOut>
    where
        O: Takes<role::RecvDispls>,
    {
        self.reslot(|(r, sc, sd, rc, _)| (r, sc, sd, rc, CountsOut))
    }

    /// Supplies the reduction operation: any `Fn(T, T) -> T`, e.g. a
    /// closure or one of [`crate::collectives::reduce::ops`].
    pub fn op<G>(self, f: G) -> Call<'c, O::With<G>, S, R, SC, SD, RC, RD>
    where
        O: Reduces,
    {
        Call {
            comm: self.comm,
            op: self.op.with_op(f),
            send: self.send,
            recv: self.recv,
            send_counts: self.send_counts,
            send_displs: self.send_displs,
            recv_counts: self.recv_counts,
            recv_displs: self.recv_displs,
        }
    }

    /// Names the root rank.
    pub fn root(mut self, rank: usize) -> Self
    where
        O: Rooted,
    {
        *self.op.root_mut() = rank;
        self
    }

    /// Names the message tag.
    pub fn tag(mut self, t: Tag) -> Self
    where
        O: Tagged,
    {
        *self.op.tag_mut() = t;
        self
    }

    /// Declares the expected element count, validated on delivery — paper
    /// Fig. 6's `recv_count(42)`.
    pub fn recv_count(mut self, n: usize) -> Self
    where
        O: Counted,
    {
        *self.op.expected_mut() = Some(n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allgather::{Allgather, AllgatherInplace, Allgatherv};
    use crate::collectives::alltoall::{Alltoall, Alltoallv};
    use crate::collectives::bcast::Bcast;
    use crate::collectives::gather::{Gather, Gatherv};
    use crate::collectives::reduce::{All, ExclusivePrefix, Prefix, Reduction, ToRoot};
    use crate::collectives::scatter::{Scatter, Scatterv};
    use crate::p2p::{Irecv, Isend, Recv, Send};

    /// Whether `$op: $bound` holds, as a `bool`: the inherent constant
    /// exists only where the bound does and then shadows the trait's.
    macro_rules! accepts {
        ($op:ty: $($bound:tt)+) => {{
            struct Probe<X>(std::marker::PhantomData<X>);
            #[allow(dead_code)] // unused where the bound holds, and vice versa
            trait Rejected {
                const ACCEPTS: bool = false;
            }
            impl<X> Rejected for Probe<X> {}
            #[allow(dead_code)]
            impl<X: $($bound)+> Probe<X> {
                const ACCEPTS: bool = true;
            }
            <Probe<$op>>::ACCEPTS
        }};
    }

    /// One row of the legality table, from the operation's trait impls.
    macro_rules! row {
        ($name:literal, $op:ty) => {{
            let cells = [
                accepts!($op: Takes<role::RecvBuf>),
                accepts!($op: Takes<role::SendCounts>),
                accepts!($op: Takes<role::SendDispls>),
                accepts!($op: Takes<role::RecvCounts>),
                accepts!($op: Takes<role::RecvDispls>),
                accepts!($op: Reduces),
                accepts!($op: Rooted),
                accepts!($op: Tagged),
                accepts!($op: Counted),
            ];
            let cells = cells.map(|yes| if yes { " ✓ |" } else { "   |" });
            format!("| {} |{}\n", $name, cells.concat())
        }};
    }

    /// DESIGN.md's *operation × named parameter* table is exactly what the
    /// `Takes`/`Rooted`/`Tagged`/`Counted`/`Reduces` impls say.
    #[test]
    fn design_md_legality_table_matches_the_impls() {
        let table = [
            row!("`allgather`", Allgather),
            row!("`allgatherv`", Allgatherv),
            row!("`allgather_inplace`", AllgatherInplace),
            row!("`alltoall`", Alltoall),
            row!("`alltoallv`", Alltoallv),
            row!("`gather`", Gather),
            row!("`gatherv`", Gatherv),
            row!("`scatter`", Scatter),
            row!("`scatterv`", Scatterv),
            row!("`bcast`", Bcast),
            row!("`reduce`, `reduce_inplace`", Reduction<ToRoot>),
            row!("`allreduce`, `allreduce_inplace`", Reduction<All>),
            row!("`scan`, `scan_inplace`", Reduction<Prefix>),
            row!("`exscan`, `exscan_inplace`", Reduction<ExclusivePrefix>),
            row!("`send`", Send),
            row!("`isend`, `issend`", Isend),
            row!("`recv`", Recv<u8>),
            row!("`irecv`", Irecv<u8>),
        ]
        .concat();
        let design = include_str!("../../../DESIGN.md");
        assert!(
            design.contains(&table),
            "DESIGN.md's legality table should read:\n{table}"
        );
    }
}
