//! 2D random geometric graph generator.
//!
//! `n` points in the unit square; vertices are adjacent iff their
//! Euclidean distance is at most `radius`. Points are generated inside
//! their owner's vertical strip (locality by construction, mirroring how
//! KaGen partitions space), so only points within `radius` of a strip
//! boundary must be exchanged — with the NBX sparse all-to-all, fittingly,
//! since the partner set is the small set of nearby strips.
//!
//! RGGs are the high-locality, high-diameter family of Fig. 10: BFS takes
//! many levels, each touching only neighbouring ranks — the regime where
//! sparse exchange shines and dense alltoallv wastes p startups per level.

use std::collections::HashMap;

use kamping::prelude::*;
use kamping_plugins::SparseAlltoall;

use crate::dist_graph::{range_start, DistGraph, VertexId};
use crate::gen::unit_f64;

kamping::pod_struct! {
    /// A generated point (id + position), exchanged across strips.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Point {
        id: u64,
        x: f64,
        y: f64,
    }
}

/// Position of point `i` (deterministic in the seed and — crucially —
/// independent of the rank count): the x coordinate is stratified by
/// index, `x(i) ∈ [i/n, (i+1)/n)`, so the same seed yields the same graph
/// for every p while contiguous index ranges remain spatial strips.
fn point(n: u64, seed: u64, i: u64) -> Point {
    let x = (i as f64 + unit_f64(seed, i, 0)) / n as f64;
    let y = unit_f64(seed, i, 1);
    Point { id: i, x, y }
}

fn dist2(a: &Point, b: &Point) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    dx * dx + dy * dy
}

/// Generates a distributed 2D random geometric graph. Collective.
pub fn rgg2d(comm: &Communicator, n: u64, radius: f64, seed: u64) -> KResult<DistGraph> {
    let p = comm.size();
    let rank = comm.rank();
    let first = range_start(n, p, rank);
    let last = range_start(n, p, rank + 1);
    let mine: Vec<Point> = (first..last).map(|i| point(n, seed, i)).collect();

    // Ship boundary points to every rank whose x-interval (its index range
    // over n, by stratification) lies within `radius`.
    let mut outgoing: HashMap<usize, Vec<Point>> = HashMap::new();
    for q in &mine {
        let i_lo = ((q.x - radius).max(0.0) * n as f64).floor() as u64;
        let i_hi = (((q.x + radius) * n as f64).ceil() as u64).min(n - 1);
        let r_lo = crate::dist_graph::owner(n, p, i_lo.min(n - 1));
        let r_hi = crate::dist_graph::owner(n, p, i_hi);
        for dest in r_lo..=r_hi {
            if dest != rank {
                outgoing.entry(dest).or_default().push(*q);
            }
        }
    }
    let foreign: Vec<Point> = comm
        .sparse_alltoall(outgoing)?
        .into_iter()
        .flat_map(|m| m.data)
        .collect();

    // Bucket grid over candidates for near-linear neighbor search.
    let cell = radius.max(1e-9);
    let cells = (1.0 / cell).ceil() as i64;
    let key = |q: &Point| {
        ((q.x / cell) as i64).min(cells - 1) * (cells + 1) + ((q.y / cell) as i64).min(cells - 1)
    };
    let mut buckets: HashMap<i64, Vec<Point>> = HashMap::new();
    for q in mine.iter().chain(&foreign) {
        buckets.entry(key(q)).or_default().push(*q);
    }

    let r2 = radius * radius;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for q in &mine {
        let qc = key(q);
        let (cx, cy) = (qc / (cells + 1), qc % (cells + 1));
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(cands) = buckets.get(&((cx + dx) * (cells + 1) + (cy + dy))) else {
                    continue;
                };
                for c in cands {
                    if c.id != q.id && dist2(q, c) <= r2 {
                        edges.push((q.id, c.id));
                    }
                }
            }
        }
    }
    Ok(DistGraph::from_local_edges(n, p, rank, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential reference: all-pairs within radius.
    fn reference_edges(n: u64, radius: f64, seed: u64) -> Vec<(u64, u64)> {
        let pts: Vec<Point> = (0..n).map(|i| point(n, seed, i)).collect();
        let mut edges = Vec::new();
        for a in &pts {
            for b in &pts {
                if a.id != b.id && dist2(a, b) <= radius * radius {
                    edges.push((a.id, b.id));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    #[test]
    fn matches_all_pairs_reference() {
        let want = reference_edges(120, 0.12, 5);
        for p in [1, 2, 4] {
            let got: Vec<(u64, u64)> = kamping::run(p, |comm| {
                let g = rgg2d(&comm, 120, 0.12, 5).unwrap();
                let mut e = Vec::new();
                for v in g.first..g.last {
                    for &w in g.neighbors(v) {
                        e.push((v, w));
                    }
                }
                e
            })
            .into_iter()
            .flatten()
            .collect();
            let mut got = got;
            got.sort_unstable();
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn radius_larger_than_strip_width() {
        // p=6 strips of width 1/6 < radius 0.3: multi-strip exchange path.
        let want = reference_edges(60, 0.3, 11);
        let got: Vec<(u64, u64)> = kamping::run(6, |comm| {
            let g = rgg2d(&comm, 60, 0.3, 11).unwrap();
            let mut e = Vec::new();
            for v in g.first..g.last {
                for &w in g.neighbors(v) {
                    e.push((v, w));
                }
            }
            e
        })
        .into_iter()
        .flatten()
        .collect();
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn locality_most_edges_stay_near() {
        kamping::run(4, |comm| {
            let g = rgg2d(&comm, 2000, 0.03, 3).unwrap();
            let mut near = 0usize;
            let mut far = 0usize;
            for &w in &g.adjacency {
                let o = g.owner_of(w);
                if o.abs_diff(comm.rank()) <= 1 {
                    near += 1;
                } else {
                    far += 1;
                }
            }
            assert!(far == 0 || near > 10 * far, "near={near} far={far}");
        });
    }
}
