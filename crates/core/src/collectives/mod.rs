//! The collective operations of the named-parameter engine.
//!
//! Each submodule defines its operations as small values for
//! [`crate::call::Call`]: the `Communicator` method that starts the call
//! (required parameters are its arguments), one `impl Takes<..>` line per
//! optional parameter the operation accepts, and its `call()`. The setters
//! themselves live once in [`crate::call`]; the "omitted ⇒ exchange the
//! counts, prefix-sum the displacements" default lives once here, in
//! `resolve`.

pub mod allgather;
pub mod alltoall;
pub mod bcast;
pub mod gather;
pub mod reduce;
pub mod scatter;

use std::borrow::Cow;

use crate::buffers::{decode_counts, encode_counts};
use crate::communicator::Communicator;
use crate::error::{KResult, KampingError};
use crate::params::CountSlot;

/// Exclusive prefix sum — the canonical displacements of `counts`.
pub(crate) fn excl_prefix_sum(counts: &[usize]) -> Vec<usize> {
    kamping_mpi::coll::excl_prefix_sum(counts)
}

/// Scales element counts or displacements to bytes.
pub(crate) fn to_bytes(elements: &[usize], elem_size: usize) -> Vec<usize> {
    elements.iter().map(|&c| c * elem_size).collect()
}

/// The extra communication behind an omitted counts parameter
/// (paper Fig. 2 / §III-A).
pub(crate) enum Exchange<'a> {
    /// Everyone learns everyone's block length: one `allgather`.
    Allgather(usize),
    /// Everyone learns what each peer sends it: one `alltoall` of the send
    /// counts.
    Alltoall(&'a [usize]),
    /// `root` learns everyone's block length (others learn nothing): one
    /// `gather`.
    Gather { len: usize, root: usize },
    /// Nothing can supply the counts: omitting them is this error.
    Required(&'static str),
}

/// Per-rank block layout of one side of a variable-size collective, in
/// elements.
pub(crate) struct Layout<'a> {
    /// Block length per rank.
    pub counts: Cow<'a, [usize]>,
    given_displs: Option<&'a [usize]>,
}

impl Layout<'_> {
    /// Block offset per rank: the caller's, or the blocks back to back.
    pub fn displs(&self) -> Cow<'_, [usize]> {
        match self.given_displs {
            Some(d) => Cow::Borrowed(d),
            None => Cow::Owned(excl_prefix_sum(&self.counts)),
        }
    }

    /// Back-to-back blocks must cover a buffer of `len` elements exactly.
    pub fn check_packed(&self, len: usize, what: &'static str) -> KResult<()> {
        if self.given_displs.is_none() && self.counts.iter().sum::<usize>() != len {
            return Err(KampingError::InvalidArgument(what));
        }
        Ok(())
    }
}

/// Resolves one side of a variable-size collective from its two slots:
/// counts are the caller's or learned by `exchange`, displacements the
/// caller's or (on demand) a prefix sum. Both branches are chosen by the
/// slots' `PROVIDED` constants, so a fully specified call instantiates
/// neither the exchange nor the prefix sum. With `check = (len, what)`,
/// provided values must have `len` entries or the call fails with `what`.
pub(crate) fn resolve<'a, C: CountSlot, D: CountSlot>(
    comm: &Communicator,
    counts: &'a C,
    displs: &'a D,
    exchange: Exchange<'_>,
    check: Option<(usize, &'static str)>,
) -> KResult<Layout<'a>> {
    let check_len = |values: &[usize]| match check {
        Some((len, what)) if values.len() != len => Err(KampingError::InvalidArgument(what)),
        _ => Ok(()),
    };
    let counts = if C::PROVIDED {
        check_len(counts.provided())?;
        Cow::Borrowed(counts.provided())
    } else {
        Cow::Owned(match exchange {
            Exchange::Allgather(len) => comm.exchange_counts(len)?,
            Exchange::Alltoall(send_counts) => {
                decode_counts(&comm.raw().alltoall(&encode_counts(send_counts))?)
            }
            Exchange::Gather { len, root } => {
                let gathered = comm.raw().gather(&encode_counts(&[len]), root)?;
                gathered.map(|b| decode_counts(&b)).unwrap_or_default()
            }
            Exchange::Required(missing) => return Err(KampingError::InvalidArgument(missing)),
        })
    };
    let given_displs = if D::PROVIDED {
        check_len(displs.provided())?;
        Some(displs.provided())
    } else {
        None
    };
    Ok(Layout {
        counts,
        given_displs,
    })
}

/// Re-places rank blocks that arrive concatenated in rank order into a
/// buffer laid out according to caller-provided element displacements.
/// Returns the displaced byte image.
pub(crate) fn place_by_displs(
    concat: &[u8],
    counts: &[usize],
    displs: &[usize],
    elem_size: usize,
) -> KResult<Vec<u8>> {
    if counts.len() != displs.len() {
        return Err(KampingError::InvalidArgument(
            "counts/displs length mismatch",
        ));
    }
    let total_elems = counts
        .iter()
        .zip(displs)
        .map(|(&c, &d)| d + c)
        .max()
        .unwrap_or(0);
    let mut out = vec![0u8; total_elems * elem_size];
    let mut src = 0usize;
    for (&c, &d) in counts.iter().zip(displs) {
        let nbytes = c * elem_size;
        if src + nbytes > concat.len() || (d * elem_size) + nbytes > out.len() {
            return Err(KampingError::InvalidArgument("displacement out of bounds"));
        }
        out[d * elem_size..d * elem_size + nbytes].copy_from_slice(&concat[src..src + nbytes]);
        src += nbytes;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_by_displs_reorders_blocks() {
        // Two ranks, 1 and 2 elements of 2 bytes, displaced with a gap.
        let concat = [1u8, 1, 2, 2, 3, 3];
        let placed = place_by_displs(&concat, &[1, 2], &[2, 0], 2).unwrap();
        // rank 1's block at element 0, rank 0's at element 2
        assert_eq!(placed, vec![2, 2, 3, 3, 1, 1]);
    }

    #[test]
    fn place_by_displs_bounds_checked() {
        let concat = [0u8; 4];
        assert!(place_by_displs(&concat, &[2], &[0], 2).is_ok());
        assert!(place_by_displs(&concat, &[3], &[0], 2).is_err());
        assert!(place_by_displs(&concat, &[2], &[0, 1], 2).is_err());
    }

    #[test]
    fn byte_scaling() {
        assert_eq!(to_bytes(&[1, 2, 3], 8), vec![8, 16, 24]);
    }

    #[test]
    fn resolve_uses_given_values_and_checks_their_length() {
        use crate::params::{send_counts, Unset};
        crate::run(1, |comm| {
            let (c, d) = (send_counts(&[3]), send_counts(&[5]));
            let never = || Exchange::Required("never exchanged");
            let layout = resolve(&comm, &c, &d, never(), Some((1, "len"))).unwrap();
            assert_eq!((&*layout.counts, &*layout.displs()), (&[3][..], &[5][..]));
            layout
                .check_packed(99, "explicit displacements lift the check")
                .unwrap();
            assert!(resolve(&comm, &c, &d, never(), Some((2, "len"))).is_err());
            assert!(resolve(&comm, &c, &d, never(), None).is_ok());

            let layout = resolve(&comm, &c, &Unset, never(), None).unwrap();
            assert_eq!(&*layout.displs(), &[0]);
            assert!(layout.check_packed(4, "3 != 4").is_err());
            assert!(resolve(&comm, &Unset, &Unset, never(), None).is_err());
        });
    }
}
