//! Distributed sample sort (paper §IV-A, Fig. 7, Fig. 8, Table I).
//!
//! Textbook algorithm (Sanders et al.): every rank samples
//! `16 log2(p) + 1` local elements, the samples are allgathered and
//! sorted, `p - 1` splitters partition the locally sorted data into
//! per-destination buckets, one `alltoallv` redistributes, and a merge
//! finishes. The data is sorted **once**: sorted before it is cut, every
//! bucket is a sorted run, so a rank receives `p` runs whose lengths are the
//! receive counts and `merge_runs` joins them in `ceil(log2 p)` passes.
//!
//! The four variants here differ **only** in how they talk to the
//! message-passing layer — the algorithmic code is shared — which is
//! exactly the setup of the paper's Fig. 8 comparison. The `LOC` markers
//! delimit the communication code counted by the `table1_loc` harness.

use kamping::prelude::*;
use kamping_mpi::coll::excl_prefix_sum;
use kamping_mpi::dtype::TypeDesc;
use kamping_mpi::RawComm;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of local samples for a communicator of `p` ranks (paper Fig. 7).
fn num_samples(p: usize) -> usize {
    16 * (usize::BITS - p.leading_zeros() - 1) as usize + 1
}

/// Draws `k` samples (with replacement) from `data`; empty input yields no
/// samples. Deterministic per (seed, rank).
fn local_samples<T: Copy>(data: &[T], k: usize, seed: u64, rank: usize) -> Vec<T> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9e3779b97f4a7c15));
    (0..k).map(|_| data[rng.gen_range(0..data.len())]).collect()
}

/// Chooses `p - 1` splitters from the sorted, non-empty global sample.
fn splitters<T: Copy>(gsamples: &[T], p: usize) -> Vec<T> {
    (1..p).map(|i| gsamples[i * gsamples.len() / p]).collect()
}

/// Partitions `data` (sorted) into `p` buckets by `splitters`; returns the
/// bucket sizes. `data` is sorted in place first so buckets are ranges.
fn partition<T: PodType + Ord>(data: &mut [T], splits: &[T]) -> Vec<usize> {
    data.sort_unstable();
    let mut counts = Vec::with_capacity(splits.len() + 1);
    let mut prev = 0usize;
    for s in splits {
        let idx = data.partition_point(|x| x <= s);
        counts.push(idx - prev);
        prev = idx;
    }
    counts.push(data.len() - prev);
    counts
}

/// Merges the sorted runs lying back to back in `data` (`counts[i]` elements
/// from source `i`, as an `alltoallv` delivers them) into one sorted vector:
/// `ceil(log2(runs))` rounds of pairwise merges between `data` and a second
/// buffer, written left to right. Panics unless `counts` sums to `data.len()`.
pub(crate) fn merge_runs<T: Copy + Ord>(data: &mut Vec<T>, counts: &[usize]) {
    let mut ends: Vec<usize> = Vec::with_capacity(counts.len());
    let mut end = 0;
    for &c in counts.iter().filter(|&&c| c > 0) {
        end += c;
        ends.push(end);
    }
    assert_eq!(end, data.len(), "merge_runs: counts must sum to data.len()");
    let mut out: Vec<T> = Vec::with_capacity(if ends.len() > 1 { end } else { 0 });
    while ends.len() > 1 {
        out.clear();
        for k in (0..ends.len()).step_by(2) {
            let last = ends[(k + 1).min(ends.len() - 1)];
            let (a, b) = data[out.len()..last].split_at(ends[k] - out.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let from_b = b[j] < a[i];
                out.push(if from_b { b[j] } else { a[i] });
                i += usize::from(!from_b);
                j += usize::from(from_b);
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            ends[k / 2] = last;
        }
        ends.truncate(ends.len().div_ceil(2));
        std::mem::swap(data, &mut out);
    }
}

// LOC-BEGIN samplesort_kamping
/// Sample sort through the kamping binding layer (paper Fig. 7).
pub fn sample_sort_kamping<T: PodType + Ord>(
    comm: &Communicator,
    data: &mut Vec<T>,
    seed: u64,
) -> KResult<()> {
    let p = comm.size();
    if p == 1 {
        data.sort_unstable();
        return Ok(());
    }
    let lsamples = local_samples(data, num_samples(p), seed, comm.rank());
    let mut gsamples = comm.allgatherv_vec(&lsamples)?;
    if gsamples.is_empty() {
        return Ok(()); // nobody holds an element
    }
    gsamples.sort_unstable();
    let splits = splitters(&gsamples, p);
    let scounts = partition(data, &splits);
    let (recv, rcounts) = comm
        .alltoallv(send_buf(&data[..]), send_counts(&scounts))
        .recv_counts_out()
        .call()?
        .into_parts2();
    *data = recv;
    merge_runs(data, &rcounts);
    Ok(())
}
// LOC-END samplesort_kamping

// LOC-BEGIN samplesort_plain
/// Sample sort against the raw substrate: every count exchange,
/// displacement computation and byte conversion by hand (the paper's
/// "plain MPI" implementation, 32 LoC of communication there).
pub fn sample_sort_plain<T: PodType + Ord>(comm: &RawComm, data: &mut Vec<T>, seed: u64) {
    let p = comm.size();
    if p == 1 {
        data.sort_unstable();
        return;
    }
    // allgatherv of the samples: exchange counts, then payload
    let lsamples = local_samples(data, num_samples(p), seed, comm.rank());
    let mut sample_count_wire = vec![0u8; 8];
    sample_count_wire.copy_from_slice(&(lsamples.len() as u64 * T::SIZE as u64).to_le_bytes());
    let counts_wire = comm.allgather(&sample_count_wire).expect("allgather");
    let recv_counts: Vec<usize> = counts_wire
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
        .collect();
    let gathered = comm
        .allgatherv(kamping::types::pod_as_bytes(&lsamples), &recv_counts)
        .expect("allgatherv");
    let mut gsamples: Vec<T> = kamping::types::bytes_to_pods(&gathered).expect("decode");
    if gsamples.is_empty() {
        return; // nobody holds an element
    }
    gsamples.sort_unstable();
    let splits = splitters(&gsamples, p);
    // alltoallv of the buckets: counts, displacements, then payload
    let scounts_elems = partition(data, &splits);
    let scounts: Vec<usize> = scounts_elems.iter().map(|&c| c * T::SIZE).collect();
    let mut scount_wire = Vec::with_capacity(p * 8);
    for &c in &scounts {
        scount_wire.extend_from_slice(&(c as u64).to_le_bytes());
    }
    let rcount_wire = comm.alltoall(&scount_wire).expect("alltoall");
    let rcounts: Vec<usize> = rcount_wire
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
        .collect();
    let sdispls = excl_prefix_sum(&scounts);
    let rdispls = excl_prefix_sum(&rcounts);
    let recv = comm
        .alltoallv(
            kamping::types::pod_as_bytes(data),
            &scounts,
            &sdispls,
            &rcounts,
            &rdispls,
        )
        .expect("alltoallv");
    *data = kamping::types::bytes_to_pods(&recv).expect("decode");
    // Freed where MPI code frees its receive buffer: two live MiB-sized blocks
    // (this, the merge's buffer) thrash glibc's mmap threshold, ROADMAP item 5.
    drop(recv);
    let rcounts_elems: Vec<usize> = rcounts.iter().map(|&c| c / T::SIZE).collect();
    merge_runs(data, &rcounts_elems);
}
// LOC-END samplesort_plain

// LOC-BEGIN samplesort_overlapped
/// Sample sort with compute/communication overlap: the local input is
/// partitioned in two halves, and the first half's bucket exchange is
/// already in flight (a nonblocking `ialltoallv`) while the second half
/// is still being sorted and partitioned. Both requests own their buffers
/// (§III-E), so the borrow checker — not discipline — keeps the halves
/// apart; the blocked-wait saved by the overlap is what the `icoll`
/// benchmark measures.
pub fn sample_sort_overlapped<T: PodType + Ord>(
    comm: &Communicator,
    data: &mut Vec<T>,
    seed: u64,
) -> KResult<()> {
    let p = comm.size();
    if p == 1 {
        data.sort_unstable();
        return Ok(());
    }
    let lsamples = local_samples(data, num_samples(p), seed, comm.rank());
    let mut gsamples = comm.allgatherv_vec(&lsamples)?;
    if gsamples.is_empty() {
        return Ok(()); // nobody holds an element
    }
    gsamples.sort_unstable();
    let splits = splitters(&gsamples, p);
    let mut second = data.split_off(data.len() / 2);
    let first_counts = partition(data, &splits);
    let first_req = comm.ialltoallv_vec(std::mem::take(data), &first_counts)?;
    // ... the first exchange is on the wire while this partition runs ...
    let second_counts = partition(&mut second, &splits);
    let second_req = comm.ialltoallv_vec(second, &second_counts)?;
    *data = first_req.wait()?;
    data.extend(second_req.wait()?);
    // 2p sorted runs of lengths unknown here (`i*` calls get `recv_counts_out`
    // with ROADMAP item 3), so this variant sorts where the others merge.
    data.sort_unstable();
    Ok(())
}
// LOC-END samplesort_overlapped

// LOC-BEGIN samplesort_mpl_like
/// Sample sort with the MPL-style lowering (§II): the bucket exchange goes
/// through `alltoallw` with one *derived datatype per peer* instead of a
/// plain `alltoallv` — per-peer type construction plus type-driven
/// pack/unpack loops on both sides. Same result, measurably slower; this
/// is the ablation behind the MPL curve of Fig. 8.
pub fn sample_sort_mpl_like<T: PodType + Ord>(
    comm: &Communicator,
    data: &mut Vec<T>,
    seed: u64,
) -> KResult<()> {
    let p = comm.size();
    if p == 1 {
        data.sort_unstable();
        return Ok(());
    }
    let lsamples = local_samples(data, num_samples(p), seed, comm.rank());
    let mut gsamples = comm.allgatherv_vec(&lsamples)?;
    if gsamples.is_empty() {
        return Ok(()); // nobody holds an element
    }
    gsamples.sort_unstable();
    let splits = splitters(&gsamples, p);
    let scounts = partition(data, &splits);
    // counts still travel ahead of time (MPL exchanges them too) ...
    let rcounts = comm.alltoallv_vec(
        &scounts.iter().map(|&c| c as u64).collect::<Vec<_>>(),
        &vec![1usize; p],
    )?;
    // ... but the payload is lowered to alltoallw with per-peer
    // single-block indexed datatypes over the send/recv buffers.
    let sdispls = excl_prefix_sum(&scounts);
    let send_types: Vec<TypeDesc> = (0..p)
        .map(|i| TypeDesc::Indexed {
            blocks: vec![(sdispls[i] * T::SIZE, scounts[i] * T::SIZE)],
            extent: data.len() * T::SIZE,
        })
        .collect();
    let rcounts: Vec<usize> = rcounts.iter().map(|&c| c as usize).collect();
    let rdispls = excl_prefix_sum(&rcounts);
    let total: usize = rcounts.iter().sum();
    let recv_types: Vec<TypeDesc> = (0..p)
        .map(|i| TypeDesc::Indexed {
            blocks: vec![(rdispls[i] * T::SIZE, rcounts[i] * T::SIZE)],
            extent: total * T::SIZE,
        })
        .collect();
    let mut recv_bytes = vec![0u8; total * T::SIZE];
    comm.raw().alltoallw(
        kamping::types::pod_as_bytes(data),
        &send_types,
        &mut recv_bytes,
        &recv_types,
    )?;
    *data = kamping::types::bytes_to_pods(&recv_bytes)?;
    merge_runs(data, &rcounts);
    Ok(())
}
// LOC-END samplesort_mpl_like

/// Checks global sortedness: locally sorted and boundary order across
/// ranks (used by tests and the Fig. 8 harness).
pub fn is_globally_sorted<T: PodType + Ord>(comm: &Communicator, data: &[T]) -> KResult<bool> {
    let locally = data.windows(2).all(|w| w[0] <= w[1]);
    // Boundary check: allgather (first, last, len) triples.
    let mine: Vec<T> = match (data.first(), data.last()) {
        (Some(&f), Some(&l)) => vec![f, l],
        _ => vec![],
    };
    let borders = comm.allgatherv_vec(&mine)?;
    let cross = borders.windows(2).all(|w| w[0] <= w[1]);
    Ok(comm.allreduce_single((locally && cross) as u8, |a, b| a & b)? == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorter::DistributedSorter;
    use rand::RngCore;

    fn random_data(rank: usize, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(rank as u64 * 77));
        (0..n).map(|_| rng.next_u64() % 10_000).collect()
    }

    type Variant = fn(&Communicator, &mut Vec<u64>, u64);
    const VARIANTS: [(&str, Variant); 4] = [
        ("kamping", |c, d, s| sample_sort_kamping(c, d, s).unwrap()),
        ("plain", |c, d, s| sample_sort_plain(c.raw(), d, s)),
        ("mpl-like", |c, d, s| sample_sort_mpl_like(c, d, s).unwrap()),
        ("overlapped", |c, d, s| {
            sample_sort_overlapped(c, d, s).unwrap()
        }),
    ];

    /// `f` must leave rank `r` of `p` with a globally sorted block of the
    /// multiset that `input(0) ++ input(1) ++ ...` is.
    fn check_sorts(
        p: usize,
        input: impl Fn(usize) -> Vec<u64> + Sync,
        f: impl Fn(&Communicator, &mut Vec<u64>) + Sync,
    ) {
        let outputs = kamping::run(p, |comm| {
            let mut data = input(comm.rank());
            let reference_input = comm.allgatherv_vec(&data).unwrap();
            f(&comm, &mut data);
            assert!(is_globally_sorted(&comm, &data).unwrap());
            (data, reference_input)
        });
        // Concatenated outputs must be a permutation-preserving sort of
        // the concatenated inputs.
        let mut want = outputs[0].1.clone();
        want.sort_unstable();
        let got: Vec<u64> = outputs.into_iter().flat_map(|(d, _)| d).collect();
        assert_eq!(got, want);
    }

    fn check_variant(p: usize, n: usize, f: impl Fn(&Communicator, &mut Vec<u64>) + Sync) {
        check_sorts(p, |rank| random_data(rank, n, 42), f);
    }

    #[test]
    fn kamping_variant_sorts() {
        for p in [1, 2, 4, 5] {
            check_variant(p, 200, |comm, data| {
                sample_sort_kamping(comm, data, 1).unwrap();
            });
        }
    }

    #[test]
    fn plain_variant_sorts() {
        for p in [1, 3, 4] {
            check_variant(p, 150, |comm, data| {
                sample_sort_plain(comm.raw(), data, 1);
            });
        }
    }

    #[test]
    fn overlapped_variant_sorts() {
        for p in [1, 2, 3, 5] {
            check_variant(p, 200, |comm, data| {
                sample_sort_overlapped(comm, data, 1).unwrap();
            });
        }
    }

    #[test]
    fn mpl_like_variant_sorts() {
        for p in [1, 2, 4] {
            check_variant(p, 150, |comm, data| {
                sample_sort_mpl_like(comm, data, 1).unwrap();
            });
        }
    }

    /// Three of the four variants end in the same `merge_runs`, so their
    /// agreement alone would not notice a merge that loses an element:
    /// the common output is also held against the sorted input.
    #[test]
    fn variants_agree_elementwise() {
        for p in [2, 3, 4, 7] {
            check_sorts(
                p,
                |rank| random_data(rank, 300, 9),
                |comm, data| {
                    let input = data.clone();
                    VARIANTS[0].1(comm, data, 5);
                    for (name, sort) in &VARIANTS[1..] {
                        let mut other = input.clone();
                        sort(comm, &mut other, 5);
                        assert_eq!(*data, other, "p={p}: kamping vs {name}");
                    }
                },
            );
        }
    }

    #[test]
    fn skewed_and_duplicate_heavy_input() {
        // All ranks hold mostly the same value: splitter degeneracy.
        let input = |rank: usize| {
            let mut data = vec![7u64; 100];
            if rank == 0 {
                data.extend(0..50u64);
            }
            data
        };
        for (_, sort) in VARIANTS {
            check_sorts(4, input, |comm, data| sort(comm, data, 3));
        }
    }

    #[test]
    fn empty_rank_input() {
        kamping::run(3, |comm| {
            let mut data: Vec<u64> = if comm.rank() == 1 {
                vec![5, 3, 1]
            } else {
                vec![]
            };
            sample_sort_kamping(&comm, &mut data, 2).unwrap();
            assert!(is_globally_sorted(&comm, &data).unwrap());
        });
    }

    /// No rank has an element, so there is no sample to take splitters from.
    #[test]
    fn globally_empty_input() {
        for (_, sort) in VARIANTS {
            check_sorts(3, |_| Vec::new(), |comm, data| sort(comm, data, 2));
        }
        check_sorts(
            3,
            |_| Vec::new(),
            |comm, data| comm.sort_distributed(data).unwrap(),
        );
    }

    #[test]
    fn single_rank_is_local_sort() {
        kamping::run(1, |comm| {
            let mut data = vec![3u64, 1, 2];
            sample_sort_kamping(&comm, &mut data, 0).unwrap();
            assert_eq!(data, vec![1, 2, 3]);
        });
    }

    #[test]
    fn num_samples_matches_paper_formula() {
        assert_eq!(num_samples(2), 17); // 16 * log2(2) + 1
        assert_eq!(num_samples(4), 33);
        assert_eq!(num_samples(256), 129);
    }

    /// `runs` sorted runs back to back and their lengths (0..40 each, or as
    /// `fixed` says for that run), keys drawn by `key`.
    fn sorted_runs<T: Copy + Ord>(
        rng: &mut SmallRng,
        runs: usize,
        fixed: &[(usize, usize)],
        mut key: impl FnMut(&mut SmallRng) -> T,
    ) -> (Vec<T>, Vec<usize>) {
        let mut counts: Vec<usize> = (0..runs).map(|_| rng.gen_range(0..40)).collect();
        for &(run, len) in fixed {
            counts[run] = len;
        }
        let mut data = Vec::new();
        for &c in &counts {
            let mut run: Vec<T> = (0..c).map(|_| key(rng)).collect();
            run.sort_unstable();
            data.extend(run);
        }
        (data, counts)
    }

    fn check_merge<T: Copy + Ord + std::fmt::Debug>(data: Vec<T>, counts: &[usize], case: &str) {
        let mut want = data.clone();
        want.sort_unstable();
        let mut got = data;
        merge_runs(&mut got, counts);
        assert_eq!(got, want, "{case}, run lengths {counts:?}");
    }

    #[test]
    fn merge_runs_equals_sorting_the_concatenation() {
        for runs in (1..=9).chain([64]) {
            // No run forced empty, then empty runs at the front, in the
            // middle, at the end, and everywhere but one place.
            let (mid, last) = (runs / 2, runs - 1);
            let all_but_mid: Vec<(usize, usize)> =
                (0..runs).filter(|&r| r != mid).map(|r| (r, 0)).collect();
            let shapes: [&[(usize, usize)]; 6] = [
                &[],
                &[(0, 0)],
                &[(mid, 0)],
                &[(last, 0)],
                &[(0, 0), (mid, 0), (last, 0)],
                &all_but_mid,
            ];
            for (shape, fixed) in shapes.into_iter().enumerate() {
                let case = format!("{runs} runs, shape {shape}");
                let rng = &mut SmallRng::seed_from_u64(0x6d72 ^ (runs * 8 + shape) as u64);
                let (data, counts) = sorted_runs(rng, runs, fixed, |r| r.next_u64());
                check_merge(data, &counts, &case);
                let (data, counts) = sorted_runs(rng, runs, fixed, |r| r.next_u64() % 7);
                check_merge(data, &counts, &format!("{case}, keys % 7"));
                let (data, counts) = sorted_runs(rng, runs, fixed, |r| {
                    (r.next_u64() % 3, r.next_u64() % 3, r.next_u64())
                });
                check_merge(data, &counts, &format!("{case}, tuples"));
            }
        }
    }

    #[test]
    fn merge_runs_leaves_one_run_and_nothing_as_they_are() {
        let mut one = vec![1u64, 2, 2, 9];
        let at = one.as_ptr();
        merge_runs(&mut one, &[0, 4, 0]);
        assert_eq!(one, [1, 2, 2, 9]);
        assert_eq!(one.as_ptr(), at, "a single run is not copied");
        let mut none: Vec<u64> = Vec::new();
        merge_runs(&mut none, &[]);
        merge_runs(&mut none, &[0, 0, 0]);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "counts must sum to data.len()")]
    fn merge_runs_rejects_counts_that_miss_the_length() {
        merge_runs(&mut vec![1u64, 2, 3], &[2, 2]);
    }

    /// The table of EXPERIMENTS.md, "Fig. 8: sort once": what the step after
    /// the exchange costs on 2^17 `u64` in 2 / 4 / 16 / 64 sorted runs.
    /// `cargo test --release --offline -p kamping-sort step_table -- --ignored --nocapture`
    #[test]
    #[ignore = "prints timings, checks nothing a faster test does not"]
    fn step_table() {
        const N: usize = 1 << 17;
        const REPS: usize = 9;
        let time = |input: &[u64], step: &dyn Fn(&mut Vec<u64>)| {
            let mut ms: Vec<f64> = (0..REPS)
                .map(|_| {
                    let mut data = input.to_vec();
                    let t = std::time::Instant::now();
                    step(std::hint::black_box(&mut data));
                    let dt = t.elapsed().as_secs_f64() * 1e3;
                    assert!(data.windows(2).all(|w| w[0] <= w[1]));
                    dt
                })
                .collect();
            ms.sort_by(f64::total_cmp);
            format!("{:.2}-{:.2}", ms[REPS / 4], ms[REPS - 1 - REPS / 4])
        };
        println!("runs  sort_unstable  sort()  merge_runs   (ms, quartiles of {REPS})");
        for runs in [2usize, 4, 16, 64] {
            let mut rng = SmallRng::seed_from_u64(runs as u64);
            let mut input: Vec<u64> = (0..N).map(|_| rng.next_u64()).collect();
            let counts = vec![N / runs; runs];
            input.chunks_mut(N / runs).for_each(<[u64]>::sort_unstable);
            println!(
                "{runs:4}  {:>13}  {:>9}  {:>10}",
                time(&input, &|d| d.sort_unstable()),
                time(&input, &|d| d.sort()),
                time(&input, &|d| merge_runs(d, &counts)),
            );
        }
    }
}
