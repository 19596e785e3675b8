//! Distributed DC3/DCX suffix-array construction (paper §IV-A).
//!
//! DCX (Kärkkäinen–Sanders–Burkhardt) is the paper's second suffix-array
//! algorithm: its KaMPIng port is 1 264 LoC against pDCX's 1 396 LoC of
//! plain MPI, with the savings coming from exactly the boilerplate this
//! crate's binding layer eliminates (send-count distribution for
//! `MPI_Alltoallv`, type construction).
//!
//! This is the X = 3 member (the skew algorithm), fully distributed,
//! including the **distributed recursion**:
//!
//! 1. build the `(t[i], t[i+1], t[i+2])` triples of the *sample* suffixes
//!    (i mod 3 ≠ 0) — the shifted characters come from neighbour blocks
//!    via one personalized exchange per shift;
//! 2. sort the triples with the distributed sample sort and name them
//!    densely; if names are not unique, recurse on the two-thirds-length
//!    text of names (distributed again);
//! 3. the recursion yields the total order of the sample suffixes; every
//!    suffix then gets a constant-size comparison key — (char, char,
//!    sample-rank, sample-rank, own-rank) — under which *suffix order is a
//!    total order computable per pair*, so one final distributed sort of
//!    all n keyed records produces the suffix array. (Sequential DC3
//!    merges two sequences instead; a comparison-based global sort is the
//!    natural distributed formulation and what pDCX's merge amounts to.)
//!
//! Small subproblems bottom out in a sequential prefix-doubling sort at
//! rank 0.

use std::cmp::Ordering;
use std::collections::HashMap;

use kamping::prelude::*;

use crate::sample_sort::sample_sort_kamping;
use crate::suffix::Blocks;

/// Below this size, gather the values to rank 0 and finish sequentially.
const SEQ_BASE: u64 = 2048;

kamping::pod_struct! {
    /// A named sample triple: (c0, c1, c2) with its position.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Triple {
        c0: u64,
        c1: u64,
        c2: u64,
        idx: u64,
    }
}

kamping::pod_struct! {
    /// The merge record of one suffix: everything any pairwise suffix
    /// comparison can need (§ module docs).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct MergeRec {
        /// Suffix start position.
        idx: u64,
        /// t[idx], t[idx + 1] (0 past the end).
        c0: u64,
        c1: u64,
        /// Sample ranks of idx, idx + 1, idx + 2 (0 where not a sample /
        /// past the end).
        r0: u64,
        r1: u64,
        r2: u64,
    }
}

impl MergeRec {
    /// Suffix-order comparison via the DC3 case analysis.
    fn suffix_cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self, other);
        let am = a.idx % 3;
        let bm = b.idx % 3;
        let semantic = if am != 0 && bm != 0 {
            // two sample suffixes: total order by sample rank
            a.r0.cmp(&b.r0)
        } else if am == 0 && bm == 0 {
            (a.c0, a.r1).cmp(&(b.c0, b.r1))
        } else if am == 0 {
            // a ≡ 0 vs sample b
            if bm == 1 {
                (a.c0, a.r1).cmp(&(b.c0, b.r1))
            } else {
                (a.c0, a.c1, a.r2).cmp(&(b.c0, b.c1, b.r2))
            }
        } else {
            // sample a vs b ≡ 0: mirror
            other.suffix_cmp(self).reverse()
        };
        // Distinct suffixes never tie semantically; the index fallback
        // keeps Ord total (and consistent with Eq) regardless.
        semantic.then_with(|| a.idx.cmp(&b.idx))
    }
}

impl PartialOrd for MergeRec {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeRec {
    fn cmp(&self, other: &Self) -> Ordering {
        self.suffix_cmp(other)
    }
}

/// Computes the suffix array of the distributed text with DC3.
/// Same interface as [`crate::suffix::suffix_array_prefix_doubling`].
pub fn suffix_array_dc3(comm: &Communicator, text_local: &[u8], n: u64) -> KResult<Vec<u64>> {
    let vals: Vec<u64> = text_local.iter().map(|&c| c as u64 + 1).collect();
    dc3_rec(comm, vals, n)
}

/// One level of the distributed recursion over a value text (values >= 1).
fn dc3_rec(comm: &Communicator, vals: Vec<u64>, n: u64) -> KResult<Vec<u64>> {
    let p = comm.size();
    let blocks = Blocks { n, p };
    let lo = blocks.start(comm.rank());
    let hi = blocks.start(comm.rank() + 1);
    debug_assert_eq!(vals.len() as u64, hi - lo);
    if n == 0 {
        return Ok(Vec::new());
    }
    if n <= SEQ_BASE {
        return sequential_base(comm, &vals, n);
    }

    // --- 1. sample triples ------------------------------------------------
    let t1 = fetch_shifted(comm, &vals, blocks, 1)?;
    let t2 = fetch_shifted(comm, &vals, blocks, 2)?;
    let mut triples: Vec<Triple> = (lo..hi)
        .filter(|i| i % 3 != 0)
        .map(|i| {
            let k = (i - lo) as usize;
            Triple {
                c0: vals[k],
                c1: t1[k],
                c2: t2[k],
                idx: i,
            }
        })
        .collect();
    sample_sort_kamping(comm, &mut triples, 0xDC3 ^ n)?;

    // --- 2. dense naming ---------------------------------------------------
    let prev = previous_last_triple(comm, &triples)?;
    let mut flags = vec![0u64; triples.len()];
    for (t, w) in triples.iter().enumerate() {
        let differs = if t == 0 {
            match prev {
                Some((a, b, c)) => (w.c0, w.c1, w.c2) != (a, b, c),
                None => true,
            }
        } else {
            let q = &triples[t - 1];
            (w.c0, w.c1, w.c2) != (q.c0, q.c1, q.c2)
        };
        flags[t] = differs as u64;
    }
    let local_distinct: u64 = flags.iter().sum();
    let name_offset = comm.exscan_single(local_distinct, 0, |a, b| a + b)?;
    let total_names = comm.allreduce_single(local_distinct, |a, b| a + b)?;

    let n1 = (n + 1) / 3; // #positions ≡ 1 (mod 3)
    let n2 = n / 3; // #positions ≡ 2 (mod 3)
    let m_real = n1 + n2;
    // Canonical skew sentinel: when n ≡ 1 (mod 3) the reduced text gets a
    // dummy mod-1 position (conceptually i = n with a 0-triple); without
    // it, a mod-1 suffix of R can run into the mod-2 block and compare
    // incorrectly. The dummy's value is strictly smaller than every real
    // name, acting as a separator at the 1/2 boundary.
    let has_dummy = n % 3 == 1;
    let n1_pad = n1 + u64::from(has_dummy);
    let m = n1_pad + n2;

    // R-position of sample position i (dummy occupies slot n1_pad - 1).
    let r_pos = |i: u64| {
        if i % 3 == 1 {
            (i - 1) / 3
        } else {
            n1_pad + (i - 2) / 3
        }
    };
    // Original position of R-position q (the dummy maps to i = n).
    let orig_pos = |q: u64| {
        if q < n1_pad {
            3 * q + 1
        } else {
            3 * (q - n1_pad) + 2
        }
    };

    let sample_rank_by_rpos: Vec<u64>;
    let r_blocks;
    if total_names == m_real {
        // Names already unique: they are the sample ranks; no reduced
        // text, no dummy needed.
        r_blocks = Blocks { n: m, p };
        let mut names_acc = name_offset;
        let mut to_r: HashMap<usize, Vec<u64>> = HashMap::new();
        for (w, &f) in triples.iter().zip(&flags) {
            names_acc += f;
            to_r.entry(r_blocks.owner(r_pos(w.idx)))
                .or_default()
                .extend([r_pos(w.idx), names_acc]);
        }
        sample_rank_by_rpos = deliver_indexed(comm, to_r, r_blocks)?;
    } else {
        // Recurse on the text of names (length m, distributed). Real names
        // are shifted by 1 past the dummy's value.
        r_blocks = Blocks { n: m, p };
        let shift = u64::from(has_dummy);
        let mut names_acc = name_offset;
        let mut to_r: HashMap<usize, Vec<u64>> = HashMap::new();
        for (w, &f) in triples.iter().zip(&flags) {
            names_acc += f;
            to_r.entry(r_blocks.owner(r_pos(w.idx)))
                .or_default()
                .extend([r_pos(w.idx), names_acc + shift]);
        }
        if has_dummy && comm.rank() == 0 {
            // Exactly one rank contributes the sentinel (value 1).
            let q_d = n1_pad - 1;
            to_r.entry(r_blocks.owner(q_d))
                .or_default()
                .extend([q_d, 1]);
        }
        let r_local = deliver_indexed(comm, to_r, r_blocks)?;
        let sa_r = dc3_rec(comm, r_local, m)?;
        // Invert: R-position sa_r[q] has rank q + 1 (the dummy absorbs the
        // smallest rank; real ranks only need to be order-correct).
        let r_lo = r_blocks.start(comm.rank());
        let mut inv: HashMap<usize, Vec<u64>> = HashMap::new();
        for (off, &rpos) in sa_r.iter().enumerate() {
            let global_pos = r_lo + off as u64;
            inv.entry(r_blocks.owner(rpos))
                .or_default()
                .extend([rpos, global_pos + 1]);
        }
        sample_rank_by_rpos = deliver_indexed(comm, inv, r_blocks)?;
    }

    // --- 3. distribute sample ranks onto original positions ---------------
    // S[i] = sample rank of i (0 for i ≡ 0 mod 3), block-distributed by i.
    let r_lo = r_blocks.start(comm.rank());
    let mut to_orig: HashMap<usize, Vec<u64>> = HashMap::new();
    for (off, &rank) in sample_rank_by_rpos.iter().enumerate() {
        let i = orig_pos(r_lo + off as u64);
        if i >= n {
            continue; // the dummy position has no original suffix
        }
        to_orig
            .entry(blocks.owner(i))
            .or_default()
            .extend([i, rank]);
    }
    let s_local = deliver_indexed(comm, to_orig, blocks)?;
    let s1 = fetch_shifted(comm, &s_local, blocks, 1)?;
    let s2 = fetch_shifted(comm, &s_local, blocks, 2)?;

    // --- 4. one global sort of keyed records = the suffix array -----------
    let mut records: Vec<MergeRec> = (lo..hi)
        .map(|i| {
            let k = (i - lo) as usize;
            MergeRec {
                idx: i,
                c0: vals[k],
                c1: t1[k],
                r0: s_local[k],
                r1: s1[k],
                r2: s2[k],
            }
        })
        .collect();
    sample_sort_kamping(comm, &mut records, 0xDC3F ^ n)?;

    // Convert sorted records to the block-distributed suffix array.
    let my_count = records.len() as u64;
    let pos_offset = comm.exscan_single(my_count, 0, |a, b| a + b)?;
    let mut out: HashMap<usize, Vec<u64>> = HashMap::new();
    for (off, w) in records.iter().enumerate() {
        let pos = pos_offset + off as u64;
        out.entry(blocks.owner(pos))
            .or_default()
            .extend([pos, w.idx]);
    }
    deliver_indexed(comm, out, blocks)
}

/// Values of the distributed array at positions `i + d` for this rank's
/// `i` range (0 past the end): the owner of `j` ships `arr[j]` to the
/// owner of `j - d`.
fn fetch_shifted(comm: &Communicator, local: &[u64], blocks: Blocks, d: u64) -> KResult<Vec<u64>> {
    let lo = blocks.start(comm.rank());
    let hi = blocks.start(comm.rank() + 1);
    let mut buckets: HashMap<usize, Vec<u64>> = HashMap::new();
    for j in lo.max(d)..hi {
        buckets
            .entry(blocks.owner(j - d))
            .or_default()
            .extend([j, local[(j - lo) as usize]]);
    }
    let flat = with_flattened(buckets, comm.size());
    let received = comm.alltoallv_vec(&flat.data, &flat.counts)?;
    let mut out = vec![0u64; (hi - lo) as usize];
    for pair in received.chunks_exact(2) {
        out[(pair[0] - d - lo) as usize] = pair[1];
    }
    Ok(out)
}

/// Routes `(global index, value)` pairs to the index's owner under
/// `blocks` and materializes this rank's dense local block.
fn deliver_indexed(
    comm: &Communicator,
    buckets: HashMap<usize, Vec<u64>>,
    blocks: Blocks,
) -> KResult<Vec<u64>> {
    let lo = blocks.start(comm.rank());
    let hi = blocks.start(comm.rank() + 1);
    let flat = with_flattened(buckets, comm.size());
    let received = comm.alltoallv_vec(&flat.data, &flat.counts)?;
    let mut out = vec![0u64; (hi - lo) as usize];
    for pair in received.chunks_exact(2) {
        out[(pair[0] - lo) as usize] = pair[1];
    }
    Ok(out)
}

/// Last triple key of the nearest non-empty predecessor rank.
fn previous_last_triple(
    comm: &Communicator,
    triples: &[Triple],
) -> KResult<Option<(u64, u64, u64)>> {
    let mine: [u64; 4] = match triples.last() {
        Some(t) => [1, t.c0, t.c1, t.c2],
        None => [0, 0, 0, 0],
    };
    let all = comm.allgather_vec(&mine)?;
    for r in (0..comm.rank()).rev() {
        if all[4 * r] == 1 {
            return Ok(Some((all[4 * r + 1], all[4 * r + 2], all[4 * r + 3])));
        }
    }
    Ok(None)
}

/// Base case: gather everything at rank 0, sort sequentially (prefix
/// doubling, O(n log² n)), scatter the suffix-array blocks back.
fn sequential_base(comm: &Communicator, vals: &[u64], n: u64) -> KResult<Vec<u64>> {
    let all = comm.gatherv_vec(vals, 0)?;
    let p = comm.size();
    let blocks = Blocks { n, p };
    let parts: Option<Vec<Vec<u64>>> = if comm.rank() == 0 {
        let sa = sequential_suffix_array(&all);
        Some(
            (0..p)
                .map(|r| sa[blocks.start(r) as usize..blocks.start(r + 1) as usize].to_vec())
                .collect(),
        )
    } else {
        None
    };
    // scatterv needs the parts flattened at the root
    let (flat, counts): (Vec<u64>, Vec<usize>) = match &parts {
        Some(parts) => (parts.concat(), parts.iter().map(Vec::len).collect()),
        None => (Vec::new(), Vec::new()),
    };
    Ok(comm
        .scatterv(send_buf(&flat))
        .send_counts(&counts)
        .call()?
        .into_recv_buf())
}

/// Sequential suffix array over a u64 alphabet (values >= 1), by prefix
/// doubling — the recursion's base-case workhorse.
pub fn sequential_suffix_array(vals: &[u64]) -> Vec<u64> {
    let n = vals.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rank: Vec<u64> = vals.to_vec();
    let mut idx: Vec<u64> = (0..n as u64).collect();
    let mut tmp = vec![0u64; n];
    let mut k = 1usize;
    loop {
        let key = |i: u64| {
            let i = i as usize;
            (rank[i], if i + k < n { rank[i + k] } else { 0 })
        };
        idx.sort_unstable_by_key(|&i| key(i));
        // dense re-rank
        tmp[idx[0] as usize] = 1;
        let mut distinct = 1u64;
        for w in 1..n {
            if key(idx[w]) != key(idx[w - 1]) {
                distinct += 1;
            }
            tmp[idx[w] as usize] = distinct;
        }
        rank.copy_from_slice(&tmp);
        if distinct == n as u64 || k >= n {
            break;
        }
        k *= 2;
    }
    let mut sa = vec![0u64; n];
    for (i, &r) in rank.iter().enumerate() {
        sa[(r - 1) as usize] = i as u64;
    }
    sa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suffix::{naive_suffix_array, text_block};

    fn check(text: &[u8], p: usize) {
        let want = naive_suffix_array(text);
        let got: Vec<u64> = kamping::run(p, |comm| {
            let local = text_block(text, p, comm.rank());
            suffix_array_dc3(&comm, &local, text.len() as u64).unwrap()
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(got, want, "text len {} p={p}", text.len());
    }

    #[test]
    fn sequential_base_is_correct() {
        for text in [&b"banana"[..], b"mississippi", b"aaaaaaa", b"abcabcabc"] {
            let vals: Vec<u64> = text.iter().map(|&c| c as u64 + 1).collect();
            let want = naive_suffix_array(text);
            assert_eq!(sequential_suffix_array(&vals), want);
        }
    }

    #[test]
    fn small_texts_hit_base_case() {
        for p in [1, 2, 3] {
            check(b"banana", p);
            check(b"the quick brown fox", p);
        }
    }

    /// Builds a text long enough to force at least one distributed level.
    fn long_text(len: usize, period: usize) -> Vec<u8> {
        (0..len)
            .map(|i| b'a' + ((i / period + i) % 4) as u8)
            .collect()
    }

    #[test]
    fn distributed_level_no_recursion() {
        // Random-ish text: triples unique at the first level.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let text: Vec<u8> = (0..4000).map(|_| rng.gen_range(b'a'..=b'z')).collect();
        for p in [1, 3, 4] {
            check(&text, p);
        }
    }

    #[test]
    fn distributed_level_with_recursion() {
        // Highly repetitive text: naming collides, forcing recursion.
        let text = long_text(4000, 100);
        for p in [2, 4] {
            check(&text, p);
        }
    }

    #[test]
    fn worst_case_all_equal() {
        let text = vec![b'x'; 3000];
        check(&text, 3);
    }

    #[test]
    fn dc3_agrees_with_prefix_doubling() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        let text: Vec<u8> = (0..5000).map(|_| rng.gen_range(b'a'..=b'c')).collect();
        kamping::run(4, |comm| {
            let local = text_block(&text, comm.size(), comm.rank());
            let a = suffix_array_dc3(&comm, &local, text.len() as u64).unwrap();
            let b = crate::suffix::suffix_array_prefix_doubling(&comm, &local, text.len() as u64)
                .unwrap();
            assert_eq!(a, b);
        });
    }
}
