//! Distributed suffix-array construction by prefix doubling
//! (Manber–Myers; paper §IV-A "Suffix Array Construction").
//!
//! The text is block-distributed; the algorithm maintains a distributed
//! rank array over suffix start positions and doubles the compared prefix
//! length every round: fetch the rank `k` positions ahead, sort the
//! (rank, rank+k, index) tuples with the distributed sample sort, re-rank
//! densely, and repeat until all ranks are distinct. This is the
//! application for which the paper reports its starkest LoC collapse
//! (163 LoC with KaMPIng vs. 426 LoC plain, §IV-A) — our implementation is
//! in the same ballpark because every counts/displacement exchange is a
//! one-liner.

use std::collections::HashMap;

use kamping::prelude::*;

use crate::sample_sort::sample_sort_kamping;

kamping::pod_struct! {
    /// (rank, rank-at-offset-k, suffix index) — the sort key of one round.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Tup {
        key1: u64,
        key2: u64,
        idx: u64,
    }
}

/// Balanced contiguous block distribution of `n` items over `p` ranks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Blocks {
    pub(crate) n: u64,
    pub(crate) p: usize,
}

impl Blocks {
    pub(crate) fn start(&self, rank: usize) -> u64 {
        let base = self.n / self.p as u64;
        let extra = self.n % self.p as u64;
        let r = rank as u64;
        r * base + r.min(extra)
    }

    pub(crate) fn owner(&self, i: u64) -> usize {
        debug_assert!(i < self.n);
        let base = self.n / self.p as u64;
        let extra = self.n % self.p as u64;
        let boundary = extra * (base + 1);
        if i < boundary {
            (i / (base + 1)) as usize
        } else {
            (extra + (i - boundary) / base) as usize
        }
    }
}

/// Computes the suffix array of the distributed text. `text_local` is this
/// rank's contiguous block of the global text of length `n`; the returned
/// vector is this rank's contiguous block of the suffix array (the suffix
/// start positions in lexicographic order). Collective.
pub fn suffix_array_prefix_doubling(
    comm: &Communicator,
    text_local: &[u8],
    n: u64,
) -> KResult<Vec<u64>> {
    let p = comm.size();
    let blocks = Blocks { n, p };
    let lo = blocks.start(comm.rank());
    let hi = blocks.start(comm.rank() + 1);
    assert_eq!(text_local.len() as u64, hi - lo, "text block size mismatch");
    if n == 0 {
        return Ok(Vec::new());
    }

    // Initial ranks: the characters themselves, 1-based (0 = past the end).
    let mut rank_arr: Vec<u64> = text_local.iter().map(|&c| c as u64 + 1).collect();
    let mut k = 1u64;
    loop {
        // rank2[i] = rank_arr[i + k], or 0 beyond the text: the owner of
        // position j ships rank_arr[j] to the owner of j - k.
        let mut buckets: HashMap<usize, Vec<u64>> = HashMap::new();
        for j in lo.max(k)..hi {
            let dest = blocks.owner(j - k);
            buckets
                .entry(dest)
                .or_default()
                .extend([j, rank_arr[(j - lo) as usize]]);
        }
        let flat = with_flattened(buckets, p);
        let received = comm.alltoallv_vec(&flat.data, &flat.counts)?;
        let mut rank2 = vec![0u64; (hi - lo) as usize];
        for pair in received.chunks_exact(2) {
            rank2[(pair[0] - k - lo) as usize] = pair[1];
        }

        // Sort the (rank, rank2, index) tuples globally.
        let mut tuples: Vec<Tup> = (lo..hi)
            .map(|i| Tup {
                key1: rank_arr[(i - lo) as usize],
                key2: rank2[(i - lo) as usize],
                idx: i,
            })
            .collect();
        sample_sort_kamping(comm, &mut tuples, 0xA5A5 ^ k)?;

        // Dense re-ranking: each tuple's new rank is the number of
        // distinct key pairs up to and including it.
        let prev_keys = previous_rank_last_keys(comm, &tuples)?;
        let mut flags = vec![0u64; tuples.len()];
        for (t, w) in tuples.iter().enumerate() {
            let differs = if t == 0 {
                match prev_keys {
                    Some((k1, k2)) => (w.key1, w.key2) != (k1, k2),
                    None => true,
                }
            } else {
                (w.key1, w.key2) != (tuples[t - 1].key1, tuples[t - 1].key2)
            };
            flags[t] = differs as u64;
        }
        let local_distinct: u64 = flags.iter().sum();
        let offset = comm.exscan_single(local_distinct, 0, |a, b| a + b)?;
        let mut acc = offset;
        let mut new_ranks = Vec::with_capacity(tuples.len());
        for &f in &flags {
            acc += f;
            new_ranks.push(acc);
        }

        // Ship (index, new rank) back to the index's owner.
        let mut back: HashMap<usize, Vec<u64>> = HashMap::new();
        for (w, &r) in tuples.iter().zip(&new_ranks) {
            back.entry(blocks.owner(w.idx))
                .or_default()
                .extend([w.idx, r]);
        }
        let flat = with_flattened(back, p);
        let received = comm.alltoallv_vec(&flat.data, &flat.counts)?;
        for pair in received.chunks_exact(2) {
            rank_arr[(pair[0] - lo) as usize] = pair[1];
        }

        let total_distinct = comm.allreduce_single(local_distinct, |a, b| a + b)?;
        if total_distinct == n || k >= n {
            break;
        }
        k *= 2;
    }

    // All ranks distinct: suffix at position i sorts to SA[rank - 1].
    // Ship (position, index) to the position's owner.
    let mut out_buckets: HashMap<usize, Vec<u64>> = HashMap::new();
    for i in lo..hi {
        let pos = rank_arr[(i - lo) as usize] - 1;
        out_buckets
            .entry(blocks.owner(pos))
            .or_default()
            .extend([pos, i]);
    }
    let flat = with_flattened(out_buckets, p);
    let received = comm.alltoallv_vec(&flat.data, &flat.counts)?;
    let mut sa = vec![0u64; (hi - lo) as usize];
    for pair in received.chunks_exact(2) {
        sa[(pair[0] - lo) as usize] = pair[1];
    }
    Ok(sa)
}

/// Last (key1, key2) of the nearest non-empty predecessor rank, if any —
/// the cross-rank seam of the dense re-ranking step.
fn previous_rank_last_keys(comm: &Communicator, tuples: &[Tup]) -> KResult<Option<(u64, u64)>> {
    // Everyone contributes (has_data, key1, key2).
    let mine: [u64; 3] = match tuples.last() {
        Some(t) => [1, t.key1, t.key2],
        None => [0, 0, 0],
    };
    let all = comm.allgather_vec(&mine)?;
    let mut prev = None;
    for r in (0..comm.rank()).rev() {
        if all[3 * r] == 1 {
            prev = Some((all[3 * r + 1], all[3 * r + 2]));
            break;
        }
    }
    Ok(prev)
}

/// Sequential reference suffix array (for tests and the harness).
pub fn naive_suffix_array(text: &[u8]) -> Vec<u64> {
    let mut sa: Vec<u64> = (0..text.len() as u64).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

/// Splits a global text into this rank's block (test/harness helper).
pub fn text_block(text: &[u8], p: usize, rank: usize) -> Vec<u8> {
    let blocks = Blocks {
        n: text.len() as u64,
        p,
    };
    text[blocks.start(rank) as usize..blocks.start(rank + 1) as usize].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &[u8], p: usize) {
        let want = naive_suffix_array(text);
        let got: Vec<u64> = kamping::run(p, |comm| {
            let local = text_block(text, p, comm.rank());
            suffix_array_prefix_doubling(&comm, &local, text.len() as u64).unwrap()
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(got, want, "text {:?} p={p}", String::from_utf8_lossy(text));
    }

    #[test]
    fn banana() {
        for p in [1, 2, 3] {
            check(b"banana", p);
        }
    }

    #[test]
    fn mississippi() {
        check(b"mississippi", 4);
    }

    #[test]
    fn repetitive_worst_case() {
        // All-equal text: maximal number of doubling rounds.
        check(&[b'a'; 37], 3);
    }

    #[test]
    fn abracadabra_like_periodic() {
        check(b"abcabcabcabcabcabcab", 4);
    }

    #[test]
    fn random_bytes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let text: Vec<u8> = (0..200).map(|_| rng.gen_range(b'a'..=b'd')).collect();
        for p in [1, 4] {
            check(&text, p);
        }
    }

    #[test]
    fn tiny_texts() {
        check(b"a", 1);
        check(b"ab", 2);
        check(b"ba", 2);
        kamping::run(2, |comm| {
            let sa = suffix_array_prefix_doubling(&comm, &[], 0).unwrap();
            assert!(sa.is_empty());
        });
    }

    #[test]
    fn naive_reference_is_correct_on_known_case() {
        // banana: suffixes sorted = a(5), ana(3), anana(1), banana(0),
        // na(4), nana(2)
        assert_eq!(naive_suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
    }
}
