//! `bfs-fig10`: the paper's Fig. 10 — breadth-first search over an
//! RGG-2D and a GNM graph of 2^14 vertices per rank, `bfs_kamping`
//! against `bfs_plain`.
//!
//! Both graphs are built once in set-up from seeds derived from `--seed`.
//! A latency sample is one sweep: a BFS from vertex 0 over the RGG (high
//! diameter: a hundred-odd levels of tiny exchanges) followed by one over
//! the GNM graph (a handful of dense levels), so every sample sees the
//! same mix. **One op is one BFS level** — one frontier expansion, one
//! exchange, one vote — and a sweep counts as many ops as the reference
//! BFS has levels: the RGG's diameter moves by ±5 % with the seed and a
//! sweep's time with it, while the time per level barely does. The oracle
//! compares each rank's distances with a sequential BFS computed in
//! set-up over the allgathered edge list.
//!
//! The traced pass runs [`mirror_bfs`], the loop of `bfs_kamping` written
//! out from the public `expand_frontier` / `Exchanger::exchange` /
//! `absorb_candidates`, one span per phase per level.

use std::collections::BTreeMap;
use std::time::Instant;

use kamping::prelude::*;
use kamping_graphs::bfs::{absorb_candidates, expand_frontier, ExchangeStrategy, Exchanger};
use kamping_graphs::gen::{gnm, rgg2d};
use kamping_graphs::{bfs_kamping, bfs_plain, DistGraph, VertexId, UNREACHED};

use super::{Outcome, Variant, Workload};
use crate::err;
use crate::inputs;
use crate::oracle::{bfs_ok, reference_bfs};
use crate::span::{NameTotals, SpanBuf, Tracer};

/// Vertices per rank.
pub const VERTS_PER_RANK: u64 = 1 << 14;
/// Average RGG degree. 12 keeps the graph above the connectivity
/// threshold (ln n ≈ 10.4 at n = 2^15) while leaving well over a hundred
/// BFS levels, so the exchanges stay tiny and many.
const RGG_AVG_DEGREE: f64 = 12.0;
const SOURCE: VertexId = 0;

struct Case {
    graph: DistGraph,
    /// The reference distances of this rank's vertex range.
    want: Vec<u64>,
    /// Levels a BFS from [`SOURCE`] expands: its eccentricity plus one.
    levels: u64,
}

pub struct BfsFig10 {
    cases: Vec<Case>,
    op_id: u32,
    levels: u64,
    level_ops: u64,
    msgs_per_level: f64,
}

fn case_of(comm: &Communicator, graph: DistGraph) -> Result<Case, String> {
    let mut mine = Vec::with_capacity(2 * graph.local_edge_count());
    for v in graph.first..graph.last {
        for &w in graph.neighbors(v) {
            mine.push(v);
            mine.push(w);
        }
    }
    let all = comm
        .allgatherv_vec(&mine)
        .map_err(err("edge list allgather"))?;
    let edges: Vec<(u64, u64)> = all.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    let reference = reference_bfs(graph.n, &edges, SOURCE);
    let want = reference[graph.first as usize..graph.last as usize].to_vec();
    let levels = 1 + reference
        .iter()
        .filter(|&&d| d != UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);
    Ok(Case {
        graph,
        want,
        levels,
    })
}

/// `bfs_kamping`'s loop with a span around each phase. Returns the
/// distances and the number of levels expanded.
fn mirror_bfs<T: Tracer>(
    comm: &Communicator,
    g: &DistGraph,
    source: VertexId,
    tr: &mut T,
) -> KResult<(Vec<u64>, u64)> {
    let mut ex = Exchanger::new(comm, g, ExchangeStrategy::BuiltinAlltoallv)?;
    let mut dist = vec![UNREACHED; g.local_size()];
    let mut frontier = Vec::new();
    if g.is_local(source) {
        dist[g.local_index(source)] = 0;
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let s = tr.enter("core.allreduce");
        let done = comm.allreduce_single(frontier.is_empty() as u8, |a, b| a & b)? == 1;
        tr.exit(s);
        if done {
            return Ok((dist, level));
        }
        let s = tr.enter("graphs.expand");
        let buckets = expand_frontier(g, &frontier, &mut dist, level);
        tr.exit(s);
        let s = tr.enter("graphs.exchange");
        let candidates = ex.exchange(comm, buckets)?;
        tr.exit(s);
        let s = tr.enter("graphs.absorb");
        frontier = absorb_candidates(g, &candidates, &mut dist, level);
        tr.exit(s);
        level += 1;
    }
}

impl BfsFig10 {
    /// Exact messages per level of one mirrored sweep. Collective.
    fn count_messages(&mut self, comm: &Communicator) -> Result<(), String> {
        comm.barrier().map_err(err("barrier"))?;
        let me = comm.raw().my_global_rank();
        let before = comm.profile().ranks[me].messages_sent;
        let mut levels = 0u64;
        for case in &self.cases {
            let (_, l) = mirror_bfs(comm, &case.graph, SOURCE, &mut crate::span::NoTrace)
                .map_err(err("mirror bfs"))?;
            levels += l;
        }
        let sent = comm.profile().ranks[me].messages_sent - before;
        let total = comm
            .allreduce_single(sent, |a, b| a + b)
            .map_err(err("message sum"))?;
        self.msgs_per_level = total as f64 / levels.max(1) as f64;
        Ok(())
    }
}

impl Workload for BfsFig10 {
    const WARMUP_SAMPLES: usize = 6;

    fn ops_per_sample(&self) -> u64 {
        self.cases.iter().map(|c| c.levels).sum()
    }

    fn setup(comm: &Communicator, seed: u64) -> Result<Self, String> {
        let n = VERTS_PER_RANK * comm.size() as u64;
        let radius = (RGG_AVG_DEGREE / (std::f64::consts::PI * n as f64)).sqrt();
        let rgg = rgg2d(comm, n, radius, inputs::derived_seed(seed, "bfs-fig10", 1))
            .map_err(err("rgg2d"))?;
        let er =
            gnm(comm, n, 4 * n, inputs::derived_seed(seed, "bfs-fig10", 2)).map_err(err("gnm"))?;
        Ok(BfsFig10 {
            cases: vec![case_of(comm, rgg)?, case_of(comm, er)?],
            op_id: 0,
            levels: 0,
            level_ops: 0,
            msgs_per_level: 0.0,
        })
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
            tr.set_op(self.op_id);
            self.op_id = self.op_id.wrapping_add(1);
            let start = Instant::now();
            let op = tr.enter("op");
            let mut dists = Vec::with_capacity(self.cases.len());
            for case in &self.cases {
                dists.push(match variant {
                    Variant::Typed => {
                        bfs_kamping(comm, &case.graph, SOURCE).map_err(err("bfs_kamping"))?
                    }
                    Variant::Plain => bfs_plain(comm.raw(), &case.graph, SOURCE),
                });
            }
            tr.exit(op);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6 / self.ops_per_sample() as f64);
            let ok = dists
                .iter()
                .zip(&self.cases)
                .all(|(d, case)| bfs_ok(d, &case.want));
            out.failed += !ok as u64;
            out.payload_bytes +=
                dists.iter().flatten().filter(|&&d| d != UNREACHED).count() as u64 * 8;
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
        if self.msgs_per_level == 0.0 {
            self.count_messages(comm)?;
        }
        let mut out = Outcome::default();
        for _ in 0..samples {
            tr.set_op(self.op_id);
            self.op_id = self.op_id.wrapping_add(1);
            let start = Instant::now();
            let op = tr.enter("op");
            let mut ok = true;
            for case in &self.cases {
                let (dist, levels) =
                    mirror_bfs(comm, &case.graph, SOURCE, tr).map_err(err("mirror bfs"))?;
                ok &= bfs_ok(&dist, &case.want);
                self.levels += levels;
                out.payload_bytes += dist.iter().filter(|&&d| d != UNREACHED).count() as u64 * 8;
            }
            tr.exit(op);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6 / self.ops_per_sample() as f64);
            self.level_ops += 1;
            out.failed += !ok as u64;
        }
        Ok(out)
    }

    fn traced_extras(
        &self,
        totals: &BTreeMap<&'static str, NameTotals>,
    ) -> Vec<(&'static str, f64)> {
        let per_level_us = |name: &str| {
            let t = totals.get(name).copied().unwrap_or_default();
            t.total_ns as f64 / t.count.max(1) as f64 / 1e3
        };
        vec![
            ("graphs.expand_us_per_level", per_level_us("graphs.expand")),
            (
                "graphs.exchange_us_per_level",
                per_level_us("graphs.exchange"),
            ),
            ("graphs.absorb_us_per_level", per_level_us("graphs.absorb")),
            (
                "graphs.levels_per_bfs",
                self.levels as f64 / (self.level_ops.max(1) * self.cases.len() as u64) as f64,
            ),
            ("graphs.msgs_per_level", self.msgs_per_level),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_and_library_agree_with_the_reference_and_corruption_is_caught() {
        let ok = kamping::run(2, |comm| {
            let n = 600;
            let g = rgg2d(&comm, n, 0.09, 3).unwrap();
            let case = case_of(&comm, g).unwrap();
            let lib = bfs_kamping(&comm, &case.graph, SOURCE).unwrap();
            let (mine, levels) =
                mirror_bfs(&comm, &case.graph, SOURCE, &mut crate::span::NoTrace).unwrap();
            let mut corrupted = lib.clone();
            corrupted[5] = corrupted[5].wrapping_add(1);
            levels > 3
                && bfs_ok(&lib, &case.want)
                && bfs_ok(&mine, &case.want)
                && !bfs_ok(&corrupted, &case.want)
        });
        assert_eq!(ok, vec![true, true]);
    }
}
