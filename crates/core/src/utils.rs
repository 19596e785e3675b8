//! Utilities for unstructured send data.
//!
//! The MPI forum wish-list (§II) includes "support for unstructured send
//! data, i.e. a mapping of communication partners to data buffers". The
//! paper's `with_flattened(...)` helper turns a container of
//! destination→messages pairs into the contiguous buffer + send counts an
//! `alltoallv` needs; this is its Rust counterpart (used by the BFS
//! example exactly as in paper Fig. 9). The container is either a
//! `dest → messages` map or a vector of messages indexed by destination.

use std::collections::{BTreeMap, HashMap};

/// A flattened destination-keyed message set, ready for `alltoallv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flattened<T> {
    /// All messages back-to-back, grouped by destination rank.
    pub data: Vec<T>,
    /// `counts[d]` = number of elements destined for rank `d`.
    pub counts: Vec<usize>,
}

/// A container of per-destination message buckets that [`with_flattened`]
/// accepts: a `dest → messages` map, or a vector indexed by destination
/// rank (paper Fig. 9 takes either kind of container of containers).
pub trait Buckets<T> {
    /// Number of messages over all buckets.
    fn total_len(&self) -> usize;
    /// Hands every bucket to `f` as `(destination, messages)`, in
    /// ascending destination order.
    fn for_each_ordered(self, f: impl FnMut(usize, Vec<T>));
}

impl<T> Buckets<T> for HashMap<usize, Vec<T>> {
    fn total_len(&self) -> usize {
        self.values().map(Vec::len).sum()
    }
    fn for_each_ordered(self, mut f: impl FnMut(usize, Vec<T>)) {
        // Deterministic destination order regardless of hash order.
        let ordered: BTreeMap<usize, Vec<T>> = self.into_iter().collect();
        for (dest, msgs) in ordered {
            f(dest, msgs);
        }
    }
}

impl<T> Buckets<T> for Vec<Vec<T>> {
    fn total_len(&self) -> usize {
        self.iter().map(Vec::len).sum()
    }
    fn for_each_ordered(self, mut f: impl FnMut(usize, Vec<T>)) {
        for (dest, msgs) in self.into_iter().enumerate() {
            f(dest, msgs);
        }
    }
}

/// Flattens per-destination buckets into a contiguous buffer plus send
/// counts for a communicator of `size` ranks. A non-empty bucket for a
/// destination out of range panics (a programming error, like an invalid
/// rank in MPI); a vector of buckets may be shorter than `size`.
///
/// `data` is allocated once, at its exact final length, and every bucket
/// is appended into it.
pub fn with_flattened<T>(buckets: impl Buckets<T>, size: usize) -> Flattened<T> {
    let mut counts = vec![0usize; size];
    let mut data = Vec::with_capacity(buckets.total_len());
    buckets.for_each_ordered(|dest, mut msgs| {
        if msgs.is_empty() {
            return;
        }
        assert!(
            dest < size,
            "with_flattened: destination {dest} out of range for size {size}"
        );
        counts[dest] = msgs.len();
        data.append(&mut msgs);
    });
    Flattened { data, counts }
}

/// Inverse helper: splits a received concatenation into per-source slices
/// according to `counts`.
pub fn split_by_counts<'a, T>(data: &'a [T], counts: &[usize]) -> Vec<&'a [T]> {
    let mut out = Vec::with_capacity(counts.len());
    let mut offset = 0;
    for &c in counts {
        out.push(&data[offset..offset + c]);
        offset += c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_orders_by_destination() {
        let mut buckets = HashMap::new();
        buckets.insert(2, vec![20, 21]);
        buckets.insert(0, vec![1]);
        let f = with_flattened(buckets, 4);
        assert_eq!(f.data, vec![1, 20, 21]);
        assert_eq!(f.counts, vec![1, 0, 2, 0]);
    }

    #[test]
    fn flatten_empty() {
        let f = with_flattened(HashMap::<usize, Vec<u8>>::new(), 3);
        assert!(f.data.is_empty());
        assert_eq!(f.counts, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flatten_rejects_bad_destination() {
        let mut buckets = HashMap::new();
        buckets.insert(9, vec![1u8]);
        with_flattened(buckets, 2);
    }

    #[test]
    fn flatten_vec_orders_by_destination() {
        let f = with_flattened(vec![vec![1], vec![], vec![20, 21], vec![]], 4);
        assert_eq!(f.data, vec![1, 20, 21]);
        assert_eq!(f.counts, vec![1, 0, 2, 0]);
    }

    #[test]
    fn flatten_vec_empty() {
        let f = with_flattened(Vec::<Vec<u8>>::new(), 3);
        assert!(f.data.is_empty());
        assert_eq!(f.counts, vec![0, 0, 0]);
    }

    #[test]
    fn flatten_vec_trailing_empty_buckets() {
        // Shorter than `size`, or longer with only empty buckets past it.
        let f = with_flattened(vec![vec![7u8]], 3);
        assert_eq!((f.data, f.counts), (vec![7], vec![1, 0, 0]));
        let f = with_flattened(vec![vec![], vec![7u8], vec![], vec![]], 2);
        assert_eq!((f.data, f.counts), (vec![7], vec![0, 1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flatten_vec_rejects_bad_destination() {
        with_flattened(vec![vec![], vec![], vec![1u8]], 2);
    }

    #[test]
    fn split_by_counts_roundtrips() {
        let data = [1, 2, 3, 4, 5];
        let parts = split_by_counts(&data, &[2, 0, 3]);
        assert_eq!(parts, vec![&data[0..2], &data[2..2], &data[2..5]]);
    }

    #[test]
    fn flatten_then_exchange() {
        crate::run(2, |comm| {
            use crate::prelude::*;
            let mut buckets = HashMap::new();
            buckets.insert(0, vec![comm.rank() as u64]);
            buckets.insert(1, vec![comm.rank() as u64 + 100]);
            let f = with_flattened(buckets, comm.size());
            let got = comm.alltoallv_vec(&f.data, &f.counts).unwrap();
            if comm.rank() == 0 {
                assert_eq!(got, vec![0, 1]);
            } else {
                assert_eq!(got, vec![100, 101]);
            }
        });
    }
}
