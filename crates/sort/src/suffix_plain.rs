//! Prefix-doubling suffix arrays against the **raw substrate** — the
//! "plain MPI" counterpart of [`crate::suffix`] for the §IV-A LoC
//! comparison (paper: 426 LoC plain vs 163 LoC KaMPIng).
//!
//! The algorithm is identical; every piece of communication is spelled
//! out: byte packing/unpacking of `(index, value)` pairs, explicit count
//! exchanges, hand-computed displacements, hand-rolled reductions and
//! scans. Reading this module next to `suffix.rs` *is* the paper's
//! argument.

use std::collections::HashMap;

use kamping_mpi::coll::excl_prefix_sum;
use kamping_mpi::RawComm;

use crate::sample_sort::merge_runs;

// LOC-BEGIN suffix_plain
/// Balanced block distribution (duplicated here: plain code has no shared
/// library to lean on).
fn block_start(n: u64, p: usize, rank: usize) -> u64 {
    let base = n / p as u64;
    let extra = n % p as u64;
    let r = rank as u64;
    r * base + r.min(extra)
}

fn block_owner(n: u64, p: usize, i: u64) -> usize {
    let base = n / p as u64;
    let extra = n % p as u64;
    let boundary = extra * (base + 1);
    if i < boundary {
        (i / (base + 1)) as usize
    } else {
        (extra + (i - boundary) / base) as usize
    }
}

/// Hand-rolled alltoallv of u64 payloads bucketed by destination rank.
fn exchange_u64(comm: &RawComm, buckets: HashMap<usize, Vec<u64>>) -> Vec<u64> {
    let p = comm.size();
    let mut send_counts = vec![0usize; p];
    for (&d, v) in &buckets {
        send_counts[d] = v.len() * 8;
    }
    let mut ordered: Vec<(usize, Vec<u64>)> = buckets.into_iter().collect();
    ordered.sort_by_key(|&(d, _)| d);
    let mut send = Vec::new();
    for (_, vals) in ordered {
        for v in vals {
            send.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut count_wire = Vec::with_capacity(p * 8);
    for &c in &send_counts {
        count_wire.extend_from_slice(&(c as u64).to_le_bytes());
    }
    let rcw = comm.alltoall(&count_wire).expect("alltoall");
    let recv_counts: Vec<usize> = rcw
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
        .collect();
    let send_displs = excl_prefix_sum(&send_counts);
    let recv_displs = excl_prefix_sum(&recv_counts);
    let recv = comm
        .alltoallv(
            &send,
            &send_counts,
            &send_displs,
            &recv_counts,
            &recv_displs,
        )
        .expect("alltoallv");
    recv.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Hand-rolled allreduce(sum) of a single u64.
fn allreduce_sum(comm: &RawComm, value: u64) -> u64 {
    let mut wire = value.to_le_bytes().to_vec();
    let add = |a: &mut [u8], b: &[u8]| {
        let x = u64::from_le_bytes(a.try_into().unwrap());
        let y = u64::from_le_bytes(b.try_into().unwrap());
        a.copy_from_slice(&(x + y).to_le_bytes());
    };
    comm.allreduce(&mut wire, &add, 8).expect("allreduce");
    u64::from_le_bytes(wire.try_into().unwrap())
}

/// Hand-rolled exscan(sum) of a single u64 (0 on rank 0).
fn exscan_sum(comm: &RawComm, value: u64) -> u64 {
    let wire = value.to_le_bytes();
    let add = |a: &mut [u8], b: &[u8]| {
        let x = u64::from_le_bytes(a.try_into().unwrap());
        let y = u64::from_le_bytes(b.try_into().unwrap());
        a.copy_from_slice(&(x + y).to_le_bytes());
    };
    match comm.exscan(&wire, &add, 8).expect("exscan") {
        Some(bytes) => u64::from_le_bytes(bytes.try_into().unwrap()),
        None => 0,
    }
}

/// Hand-rolled allgather of (has_data, key1, key2) boundary triples.
fn boundary_prev(comm: &RawComm, last: Option<(u64, u64)>) -> Option<(u64, u64)> {
    let mine: [u64; 3] = match last {
        Some((a, b)) => [1, a, b],
        None => [0, 0, 0],
    };
    let mut wire = Vec::with_capacity(24);
    for v in mine {
        wire.extend_from_slice(&v.to_le_bytes());
    }
    let all = comm.allgather(&wire).expect("allgather");
    let vals: Vec<u64> = all
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    for r in (0..comm.rank()).rev() {
        if vals[3 * r] == 1 {
            return Some((vals[3 * r + 1], vals[3 * r + 2]));
        }
    }
    None
}

/// The distributed prefix-doubling suffix array, plain-substrate edition.
/// Semantics identical to [`crate::suffix::suffix_array_prefix_doubling`].
pub fn suffix_array_prefix_doubling_plain(comm: &RawComm, text_local: &[u8], n: u64) -> Vec<u64> {
    let p = comm.size();
    let lo = block_start(n, p, comm.rank());
    let hi = block_start(n, p, comm.rank() + 1);
    assert_eq!(text_local.len() as u64, hi - lo);
    if n == 0 {
        return Vec::new();
    }
    let mut rank_arr: Vec<u64> = text_local.iter().map(|&c| c as u64 + 1).collect();
    let mut k = 1u64;
    loop {
        // fetch rank[i + k] by shipping rank[j] to owner(j - k)
        let mut buckets: HashMap<usize, Vec<u64>> = HashMap::new();
        for j in lo.max(k)..hi {
            buckets
                .entry(block_owner(n, p, j - k))
                .or_default()
                .extend([j, rank_arr[(j - lo) as usize]]);
        }
        let received = exchange_u64(comm, buckets);
        let mut rank2 = vec![0u64; (hi - lo) as usize];
        for pair in received.chunks_exact(2) {
            rank2[(pair[0] - k - lo) as usize] = pair[1];
        }
        // sort (rank, rank2, idx) tuples globally
        let mut tuples: Vec<(u64, u64, u64)> = (lo..hi)
            .map(|i| (rank_arr[(i - lo) as usize], rank2[(i - lo) as usize], i))
            .collect();
        sample_sort_tuples_plain(comm, &mut tuples, 0xA5A5 ^ k);
        // dense re-rank with hand-rolled boundary/exscan plumbing
        let prev = boundary_prev(comm, tuples.last().map(|t| (t.0, t.1)));
        let mut flags = vec![0u64; tuples.len()];
        for (t, w) in tuples.iter().enumerate() {
            flags[t] = if t == 0 {
                match prev {
                    Some(pk) => u64::from((w.0, w.1) != pk),
                    None => 1,
                }
            } else {
                u64::from((w.0, w.1) != (tuples[t - 1].0, tuples[t - 1].1))
            };
        }
        let local_distinct: u64 = flags.iter().sum();
        let offset = exscan_sum(comm, local_distinct);
        let mut acc = offset;
        let mut back: HashMap<usize, Vec<u64>> = HashMap::new();
        for (w, &f) in tuples.iter().zip(&flags) {
            acc += f;
            back.entry(block_owner(n, p, w.2))
                .or_default()
                .extend([w.2, acc]);
        }
        let received = exchange_u64(comm, back);
        for pair in received.chunks_exact(2) {
            rank_arr[(pair[0] - lo) as usize] = pair[1];
        }
        if allreduce_sum(comm, local_distinct) == n || k >= n {
            break;
        }
        k *= 2;
    }
    // invert: position rank-1 holds suffix i
    let mut out_buckets: HashMap<usize, Vec<u64>> = HashMap::new();
    for i in lo..hi {
        let pos = rank_arr[(i - lo) as usize] - 1;
        out_buckets
            .entry(block_owner(n, p, pos))
            .or_default()
            .extend([pos, i]);
    }
    let received = exchange_u64(comm, out_buckets);
    let mut sa = vec![0u64; (hi - lo) as usize];
    for pair in received.chunks_exact(2) {
        sa[(pair[0] - lo) as usize] = pair[1];
    }
    sa
}

/// Plain-substrate sample sort of `(u64, u64, u64)` tuples — the inner
/// sorter the plain suffix construction needs; all count exchanges and
/// conversions written out.
fn sample_sort_tuples_plain(comm: &RawComm, data: &mut Vec<(u64, u64, u64)>, seed: u64) {
    let p = comm.size();
    if p == 1 {
        data.sort_unstable();
        return;
    }
    // local samples (with replacement)
    let want = 16 * (usize::BITS - p.leading_zeros() - 1) as usize + 1;
    let mut samples: Vec<(u64, u64, u64)> = Vec::with_capacity(want);
    if !data.is_empty() {
        let mut state = seed ^ (comm.rank() as u64).wrapping_mul(0x9e3779b97f4a7c15);
        for _ in 0..want {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            samples.push(data[(state >> 33) as usize % data.len()]);
        }
    }
    // allgatherv of the samples (counts first)
    let my_bytes = samples.len() * 24;
    let wire_count = (my_bytes as u64).to_le_bytes();
    let counts_wire = comm.allgather(&wire_count).expect("allgather");
    let counts: Vec<usize> = counts_wire
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
        .collect();
    let mut sample_wire = Vec::with_capacity(my_bytes);
    for &(a, b, c) in &samples {
        sample_wire.extend_from_slice(&a.to_le_bytes());
        sample_wire.extend_from_slice(&b.to_le_bytes());
        sample_wire.extend_from_slice(&c.to_le_bytes());
    }
    let gathered = comm.allgatherv(&sample_wire, &counts).expect("allgatherv");
    let mut gsamples: Vec<(u64, u64, u64)> = gathered
        .chunks_exact(24)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..16].try_into().unwrap()),
                u64::from_le_bytes(c[16..].try_into().unwrap()),
            )
        })
        .collect();
    if gsamples.is_empty() {
        return; // nobody holds a tuple
    }
    gsamples.sort_unstable();
    let splitters: Vec<(u64, u64, u64)> =
        (1..p).map(|i| gsamples[i * gsamples.len() / p]).collect();
    // partition and exchange
    data.sort_unstable();
    let mut scounts = Vec::with_capacity(p);
    let mut prev = 0usize;
    for s in &splitters {
        let idx = data.partition_point(|x| x <= s);
        scounts.push((idx - prev) * 24);
        prev = idx;
    }
    scounts.push((data.len() - prev) * 24);
    let mut scount_wire = Vec::with_capacity(p * 8);
    for &c in &scounts {
        scount_wire.extend_from_slice(&(c as u64).to_le_bytes());
    }
    let rcw = comm.alltoall(&scount_wire).expect("alltoall");
    let rcounts: Vec<usize> = rcw
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
        .collect();
    let sdispls = excl_prefix_sum(&scounts);
    let rdispls = excl_prefix_sum(&rcounts);
    let mut send = Vec::with_capacity(data.len() * 24);
    for &(a, b, c) in data.iter() {
        send.extend_from_slice(&a.to_le_bytes());
        send.extend_from_slice(&b.to_le_bytes());
        send.extend_from_slice(&c.to_le_bytes());
    }
    let recv = comm
        .alltoallv(&send, &scounts, &sdispls, &rcounts, &rdispls)
        .expect("alltoallv");
    *data = recv
        .chunks_exact(24)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..16].try_into().unwrap()),
                u64::from_le_bytes(c[16..].try_into().unwrap()),
            )
        })
        .collect();
    // Freed before the merge allocates: see `sample_sort_plain`'s `drop`.
    drop(recv);
    let rcounts_elems: Vec<usize> = rcounts.iter().map(|&c| c / 24).collect();
    merge_runs(data, &rcounts_elems);
}
// LOC-END suffix_plain

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suffix::{naive_suffix_array, suffix_array_prefix_doubling, text_block};

    fn check(text: &[u8], p: usize) {
        let want = naive_suffix_array(text);
        let got: Vec<u64> = kamping::run(p, |comm| {
            let local = text_block(text, p, comm.rank());
            suffix_array_prefix_doubling_plain(comm.raw(), &local, text.len() as u64)
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(got, want, "text {:?} p={p}", String::from_utf8_lossy(text));
    }

    #[test]
    fn plain_matches_naive() {
        for p in [1, 2, 4] {
            check(b"banana", p);
            check(b"mississippi river delta", p);
        }
    }

    #[test]
    fn plain_and_kamping_agree() {
        let text = b"the quick brown fox jumps over the lazy dog";
        kamping::run(3, |comm| {
            let local = text_block(text, comm.size(), comm.rank());
            let a = suffix_array_prefix_doubling_plain(comm.raw(), &local, text.len() as u64);
            let b = suffix_array_prefix_doubling(&comm, &local, text.len() as u64).unwrap();
            assert_eq!(a, b);
        });
    }

    #[test]
    fn tuple_sort_of_nothing_returns() {
        kamping::run(3, |comm| {
            let mut none = Vec::new();
            sample_sort_tuples_plain(comm.raw(), &mut none, 1);
            assert!(none.is_empty());
        });
    }

    #[test]
    fn plain_repetitive_text() {
        check(&[b'z'; 33], 3);
    }
}
