//! `sort-fig8`: the paper's Fig. 8 — distributed sample sort of 2^17
//! seeded `u64` per rank, `sample_sort_kamping` against
//! `sample_sort_plain`.
//!
//! One op is one full sort of a fresh copy of the rank's input (the copy
//! and the oracle are outside the clocked region). The oracle runs after
//! every op: ranks ascending locally, rank borders ascending globally,
//! and the output's multiset checksum equal to the input's.
//!
//! The traced pass cannot look inside `sample_sort_kamping`, so it runs
//! [`mirror_sort`]: the same algorithm written out here from the same
//! public calls, one span per phase. `sort.mirror_agrees` records whether
//! the mirror's output is still element-for-element what the library
//! function produces; when it reads 0 the phase split describes a
//! different algorithm and this file needs a benchmark PR of its own.

use std::collections::BTreeMap;
use std::time::Instant;

use kamping::prelude::*;
use kamping_sort::{sample_sort_kamping, sample_sort_plain};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{Outcome, Variant, Workload};
use crate::err;
use crate::inputs;
use crate::oracle::{locally_sorted, sort_globally_ok, Checksum};
use crate::span::{NameTotals, SpanBuf, Tracer};

/// Elements per rank.
pub const N_PER_RANK: usize = 1 << 17;

pub struct SortFig8 {
    input: Vec<u64>,
    /// Checksum of all ranks' inputs together.
    input_sum: Checksum,
    /// Seed handed to the next sort for its splitter sampling. The 34
    /// samples of a two-rank sort split the data anywhere between 40:60
    /// and 60:40, which moves one op's time by ±15 %; every op therefore
    /// draws afresh, and every block of a quad replays the same draws.
    sort_seed: u64,
    base_seed: u64,
    op_id: u32,
    mirror_agrees: Option<bool>,
    alltoallv_bytes: u64,
}

/// Gathers every rank's verdict in one collective and evaluates it on
/// every rank: (locally sorted, first, last, checksum).
fn output_ok(comm: &Communicator, data: &[u64], input_sum: Checksum) -> Result<bool, String> {
    let local = Checksum::of(data);
    let mine = [
        locally_sorted(data) as u64,
        data.is_empty() as u64,
        data.first().copied().unwrap_or(0),
        data.last().copied().unwrap_or(0),
        local.sum,
        local.xor,
        local.count,
    ];
    let all = comm.allgather_vec(&mine).map_err(err("oracle allgather"))?;
    let mut sorted = true;
    let mut borders = Vec::new();
    let mut total = Checksum::default();
    for r in all.chunks_exact(mine.len()) {
        sorted &= r[0] == 1;
        if r[1] == 0 {
            borders.extend_from_slice(&r[2..4]);
        }
        total = total.combine(Checksum {
            sum: r[4],
            xor: r[5],
            count: r[6],
        });
    }
    Ok(sort_globally_ok(&borders, sorted, total, input_sum))
}

/// The algorithm of `sample_sort_kamping` (paper Fig. 7), phase by phase.
fn mirror_sort<T: Tracer>(
    comm: &Communicator,
    data: &mut Vec<u64>,
    seed: u64,
    tr: &mut T,
) -> KResult<()> {
    let p = comm.size();
    if p == 1 {
        data.sort_unstable();
        return Ok(());
    }
    let s = tr.enter("sort.sample");
    let k = 16 * (usize::BITS - p.leading_zeros() - 1) as usize + 1;
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (comm.rank() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let lsamples: Vec<u64> = if data.is_empty() {
        Vec::new()
    } else {
        (0..k).map(|_| data[rng.gen_range(0..data.len())]).collect()
    };
    tr.exit(s);
    let s = tr.enter("core.allgatherv");
    let mut gsamples = comm.allgatherv_vec(&lsamples)?;
    tr.exit(s);
    let s = tr.enter("sort.splitters");
    gsamples.sort_unstable();
    let splits: Vec<u64> = (1..p).map(|i| gsamples[i * gsamples.len() / p]).collect();
    tr.exit(s);
    let s = tr.enter("sort.local_sort");
    data.sort_unstable();
    let mut counts = Vec::with_capacity(p);
    let mut prev = 0usize;
    for split in &splits {
        let idx = data.partition_point(|x| x <= split);
        counts.push(idx - prev);
        prev = idx;
    }
    counts.push(data.len() - prev);
    tr.exit(s);
    let s = tr.enter("core.alltoallv");
    *data = comm.alltoallv_vec(data, &counts)?;
    tr.exit(s);
    let s = tr.enter("sort.local_sort");
    data.sort_unstable();
    tr.exit(s);
    Ok(())
}

impl SortFig8 {
    /// `n` seeded words on this rank and the checksum of all ranks' words.
    /// Collective.
    fn new(comm: &Communicator, seed: u64, n: usize) -> Result<Self, String> {
        let input = inputs::random_words(seed, "sort-fig8", comm.rank(), n);
        let local = Checksum::of(&input);
        let parts = comm
            .allgather_vec(&[local.sum, local.xor, local.count])
            .map_err(err("input checksum"))?;
        let input_sum = parts.chunks_exact(3).fold(Checksum::default(), |acc, c| {
            acc.combine(Checksum {
                sum: c[0],
                xor: c[1],
                count: c[2],
            })
        });
        let base_seed = inputs::derived_seed(seed, "sort-fig8", 1);
        Ok(SortFig8 {
            input,
            input_sum,
            sort_seed: base_seed,
            base_seed,
            op_id: 0,
            mirror_agrees: None,
            alltoallv_bytes: 0,
        })
    }

    /// Exact bytes all ranks post during the mirror's `alltoallv_vec`
    /// (counts exchange included), and whether the mirror still equals
    /// the library function. Collective; called once per traced pass.
    fn audit_mirror(&mut self, comm: &Communicator) -> Result<(), String> {
        let mut lib = self.input.clone();
        sample_sort_kamping(comm, &mut lib, self.sort_seed).map_err(err("sample_sort_kamping"))?;
        let mut mine = self.input.clone();
        mirror_sort(comm, &mut mine, self.sort_seed, &mut crate::span::NoTrace)
            .map_err(err("mirror sort"))?;
        let agree = comm
            .allreduce_single((lib == mine) as u8, |a, b| a & b)
            .map_err(err("mirror vote"))?;
        self.mirror_agrees = Some(agree == 1);

        // Replay the exchange alone between two profile snapshots.
        let p = comm.size();
        let mut data = self.input.clone();
        data.sort_unstable();
        let counts: Vec<usize> = (0..p)
            .map(|r| (r + 1) * data.len() / p - r * data.len() / p)
            .collect();
        comm.barrier().map_err(err("barrier"))?;
        let me = comm.raw().my_global_rank();
        let before = comm.profile().ranks[me].bytes_sent;
        let out = comm
            .alltoallv_vec(&data, &counts)
            .map_err(err("alltoallv replay"))?;
        std::hint::black_box(&out);
        let sent = comm.profile().ranks[me].bytes_sent - before;
        self.alltoallv_bytes = comm
            .allreduce_single(sent, |a, b| a + b)
            .map_err(err("bytes sum"))?;
        Ok(())
    }
}

impl Workload for SortFig8 {
    const WARMUP_SAMPLES: usize = 4;

    fn ops_per_sample(&self) -> u64 {
        1
    }

    fn setup(comm: &Communicator, seed: u64) -> Result<Self, String> {
        SortFig8::new(comm, seed, N_PER_RANK)
    }

    fn begin_block(&mut self, quad: usize) {
        self.sort_seed = self.base_seed.wrapping_add(quad as u64 * 1_000_003);
    }

    fn run<T: Tracer>(
        &mut self,
        comm: &Communicator,
        variant: Variant,
        samples: usize,
        lat_us: &mut Vec<f64>,
        tr: &mut T,
    ) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for _ in 0..samples {
            let mut data = self.input.clone();
            tr.set_op(self.op_id);
            self.op_id = self.op_id.wrapping_add(1);
            let start = Instant::now();
            let op = tr.enter("op");
            match variant {
                Variant::Typed => sample_sort_kamping(comm, &mut data, self.sort_seed)
                    .map_err(err("sample_sort_kamping"))?,
                Variant::Plain => sample_sort_plain(comm.raw(), &mut data, self.sort_seed),
            }
            tr.exit(op);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
            self.sort_seed = self.sort_seed.wrapping_add(1);
            // Every rank reaches the same verdict; rank 0 reports it.
            let ok = output_ok(comm, &data, self.input_sum)?;
            out.failed += (!ok && comm.rank() == 0) as u64;
            out.payload_bytes += data.len() as u64 * 8;
        }
        Ok(out)
    }

    fn run_traced(
        &mut self,
        comm: &Communicator,
        samples: usize,
        lat_us: &mut Vec<f64>,
        tr: &mut SpanBuf,
    ) -> Result<Outcome, String> {
        if self.mirror_agrees.is_none() {
            self.audit_mirror(comm)?;
        }
        let mut out = Outcome::default();
        for _ in 0..samples {
            let mut data = self.input.clone();
            tr.set_op(self.op_id);
            self.op_id = self.op_id.wrapping_add(1);
            let start = Instant::now();
            let op = tr.enter("op");
            mirror_sort(comm, &mut data, self.sort_seed, tr).map_err(err("mirror sort"))?;
            tr.exit(op);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
            self.sort_seed = self.sort_seed.wrapping_add(1);
            let ok = output_ok(comm, &data, self.input_sum)?;
            out.failed += (!ok && comm.rank() == 0) as u64;
            out.payload_bytes += data.len() as u64 * 8;
        }
        Ok(out)
    }

    fn traced_extras(
        &self,
        totals: &BTreeMap<&'static str, NameTotals>,
    ) -> Vec<(&'static str, f64)> {
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let ops = get("op").count.max(1) as f64;
        let op_ns = get("op").total_ns.max(1) as f64;
        vec![
            (
                "sort.local_sort_ms",
                get("sort.local_sort").total_ns as f64 / ops / 1e6,
            ),
            (
                "sort.exchange_share",
                get("core.alltoallv").total_ns as f64 / op_ns,
            ),
            ("sort.alltoallv_bytes_per_op", self.alltoallv_bytes as f64),
            (
                "sort.mirror_agrees",
                self.mirror_agrees.map_or(0.0, |a| a as u8 as f64),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_a_sort_and_rejects_a_corrupted_one() {
        let verdicts = kamping::run(2, |comm| {
            let w = SortFig8::new(&comm, 5, 4096).unwrap();
            let mut data = w.input.clone();
            sample_sort_kamping(&comm, &mut data, 1).unwrap();
            let good = output_ok(&comm, &data, w.input_sum).unwrap();
            // Rank 1 loses its largest element's low bit.
            if comm.rank() == 1 {
                let last = data.len() - 1;
                data[last] ^= 1;
            }
            let corrupted = output_ok(&comm, &data, w.input_sum).unwrap();
            (good, corrupted)
        });
        assert!(verdicts.iter().all(|&(good, corrupted)| good && !corrupted));
    }

    #[test]
    fn mirror_matches_the_library_sort() {
        let agree = kamping::run(2, |comm| {
            let mut w = SortFig8::new(&comm, 9, 10_000).unwrap();
            w.audit_mirror(&comm).unwrap();
            (w.mirror_agrees, w.alltoallv_bytes)
        });
        assert_eq!(agree[0].0, Some(true));
        // Equal parts: each rank posts half its 10 000 words plus one count
        // word to the other rank, and every rank learns the same total.
        assert_eq!(agree[0].1, 2 * (5_000 + 1) * 8);
        assert_eq!(agree[0], agree[1]);
    }
}
