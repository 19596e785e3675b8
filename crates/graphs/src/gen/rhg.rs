//! Random hyperbolic graph generator (threshold model).
//!
//! `n` points in a hyperbolic disk of radius `R`; angle uniform, radius
//! with density ∝ sinh(αr) (α = 1 gives a power-law degree exponent of 3).
//! Vertices are adjacent iff their hyperbolic distance is at most `R`.
//! RHGs combine heavy-tailed degrees with small diameter and intermediate
//! locality — the regime where the paper's grid all-to-all wins (Fig. 10,
//! §V-A: "for RHGs the most scalable communication method is our grid
//! all-to-all").
//!
//! Distribution strategy: each rank owns an angular sector. Points with
//! radius ≤ R/2 ("inner", the hubs — any two of them are always adjacent
//! since d ≤ r₁ + r₂ ≤ R) are replicated everywhere with one allgatherv;
//! outer points are shipped only to the sectors their bounded angular
//! reach touches (sparse exchange). This mirrors the band-structure of
//! communication-free RHG generators at laptop scale.

use std::collections::HashMap;

use kamping::prelude::*;
use kamping_plugins::SparseAlltoall;

use crate::dist_graph::{owner, range_start, DistGraph, VertexId};
use crate::gen::unit_f64;

kamping::pod_struct! {
    /// A point in polar hyperbolic coordinates.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct HPoint {
        id: u64,
        radius: f64,
        theta: f64,
    }
}

const TAU: f64 = std::f64::consts::TAU;

/// Deterministic point `i`: angle stratified by index
/// (`θ(i) ∈ [i, i+1) · 2π/n` — independent of the rank count, and index
/// ranges stay angular sectors for every p), radius with density
/// sinh(α r) on [0, R] (α = 1).
fn point(n: u64, big_r: f64, seed: u64, i: u64) -> HPoint {
    let theta = (i as f64 + unit_f64(seed, i, 0)) * TAU / n as f64;
    // Inverse CDF of sinh: F(r) = (cosh r - 1) / (cosh R - 1).
    let u = unit_f64(seed, i, 1);
    let radius = (1.0 + u * (big_r.cosh() - 1.0)).acosh();
    HPoint {
        id: i,
        radius,
        theta,
    }
}

/// Hyperbolic distance between two points.
fn hdist(a: &HPoint, b: &HPoint) -> f64 {
    let dt = angular_diff(a.theta, b.theta);
    let c = a.radius.cosh() * b.radius.cosh() - a.radius.sinh() * b.radius.sinh() * dt.cos();
    c.max(1.0).acosh()
}

/// Smallest absolute angular difference (wrap-around aware).
fn angular_diff(a: f64, b: f64) -> f64 {
    let d = (a - b).abs() % TAU;
    d.min(TAU - d)
}

/// Maximum angular difference at which a point of radius `r` can still be
/// adjacent to *any* partner of radius ≥ `partner_min` (monotone bound).
fn max_reach(r: f64, partner_min: f64, big_r: f64) -> f64 {
    let num = r.cosh() * partner_min.cosh() - big_r.cosh();
    let den = r.sinh() * partner_min.sinh();
    if den <= 0.0 {
        return std::f64::consts::PI;
    }
    let cosine = num / den;
    if cosine <= -1.0 {
        std::f64::consts::PI
    } else if cosine >= 1.0 {
        0.0
    } else {
        cosine.acos()
    }
}

/// Disk radius giving roughly `avg_degree` for `n` vertices (α = 1); the
/// leading 2 ln n term is standard, the offset is calibrated empirically.
pub fn radius_for_degree(n: u64, avg_degree: f64) -> f64 {
    2.0 * (n as f64).ln() - 2.0 * (avg_degree / 2.0).max(1.0).ln()
}

/// Generates a distributed random hyperbolic graph with disk radius
/// `big_r` (see [`radius_for_degree`]). Collective.
pub fn rhg(comm: &Communicator, n: u64, big_r: f64, seed: u64) -> KResult<DistGraph> {
    let p = comm.size();
    let rank = comm.rank();
    let first = range_start(n, p, rank);
    let last = range_start(n, p, rank + 1);
    let mine: Vec<HPoint> = (first..last).map(|i| point(n, big_r, seed, i)).collect();
    let half = big_r / 2.0;

    // Hubs everywhere: allgather the inner points.
    let inner_local: Vec<HPoint> = mine.iter().copied().filter(|q| q.radius <= half).collect();
    let inner_all: Vec<HPoint> = comm.allgatherv_vec(&inner_local)?;

    // Outer points travel to every rank whose angular sector (its index
    // range, by stratification) their reach touches.
    let idx_per_angle = n as f64 / TAU;
    let mut outgoing: HashMap<usize, Vec<HPoint>> = HashMap::new();
    for q in mine.iter().filter(|q| q.radius > half) {
        let reach = max_reach(q.radius, half, big_r);
        let lo = ((q.theta - reach) * idx_per_angle).floor() as i64;
        let hi = ((q.theta + reach) * idx_per_angle).ceil() as i64;
        let mut dests = std::collections::HashSet::new();
        if (hi - lo) as u64 >= n {
            dests.extend(0..p);
        } else {
            // Walk the circular rank range covering [lo, hi] index-wise.
            let r_lo = owner(n, p, lo.rem_euclid(n as i64) as u64);
            let r_hi = owner(n, p, hi.rem_euclid(n as i64) as u64);
            let mut r = r_lo;
            loop {
                dests.insert(r);
                if r == r_hi {
                    break;
                }
                r = (r + 1) % p;
            }
        }
        for dest in dests {
            if dest != rank {
                outgoing.entry(dest).or_default().push(*q);
            }
        }
    }
    let mut candidates: Vec<HPoint> = comm
        .sparse_alltoall(outgoing)?
        .into_iter()
        .flat_map(|m| m.data)
        .collect();
    candidates.sort_by_key(|q| q.id);
    candidates.dedup_by_key(|q| q.id);

    // Local outer points are candidates for each other too.
    let outer_local: Vec<HPoint> = mine.iter().copied().filter(|q| q.radius > half).collect();

    // Every pair is discovered by at least one side (hubs are global; the
    // outer-outer reach bound holds for partners of radius >= R/2), but not
    // necessarily by *both* — e.g. an inner point's owner never sees remote
    // outer partners. So each discoverer emits both directions and the
    // edges are scattered to their owners (duplicates collapse there).
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut emit = |a: u64, b: u64| {
        edges.push((a, b));
        edges.push((b, a));
    };
    for q in &mine {
        // vs hubs (covers inner-inner and outer-inner pairs)
        for c in &inner_all {
            if c.id != q.id && hdist(q, c) <= big_r {
                emit(q.id, c.id);
            }
        }
        if q.radius > half {
            // vs local and received outer points
            for c in outer_local.iter().chain(&candidates) {
                if c.id != q.id && hdist(q, c) <= big_r {
                    emit(q.id, c.id);
                }
            }
        }
    }
    DistGraph::from_scattered_edges(comm, n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_edges(n: u64, big_r: f64, seed: u64) -> Vec<(u64, u64)> {
        let pts: Vec<HPoint> = (0..n).map(|i| point(n, big_r, seed, i)).collect();
        let mut edges = Vec::new();
        for a in &pts {
            for b in &pts {
                if a.id != b.id && hdist(a, b) <= big_r {
                    edges.push((a.id, b.id));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    fn generated_edges(p: usize, n: u64, big_r: f64, seed: u64) -> Vec<(u64, u64)> {
        let mut got: Vec<(u64, u64)> = kamping::run(p, |comm| {
            let g = rhg(&comm, n, big_r, seed).unwrap();
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
        got.sort_unstable();
        got
    }

    #[test]
    fn matches_all_pairs_reference() {
        let n = 150;
        let big_r = radius_for_degree(n, 8.0);
        let want = reference_edges(n, big_r, 13);
        for p in [1, 2, 5] {
            let got = generated_edges(p, n, big_r, 13);
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        kamping::run(2, |comm| {
            let n = 3000;
            let big_r = radius_for_degree(n, 12.0);
            let g = rhg(&comm, n, big_r, 21).unwrap();
            let degs: Vec<u64> = (0..g.local_size())
                .map(|v| (g.offsets[v + 1] - g.offsets[v]) as u64)
                .collect();
            let local_max = degs.iter().copied().max().unwrap_or(0);
            let local_sum: u64 = degs.iter().sum();
            let max = comm.allreduce_single(local_max, |a, b| a.max(b)).unwrap();
            let sum = comm.allreduce_single(local_sum, |a, b| a + b).unwrap();
            let avg = sum as f64 / n as f64;
            // Hubs: max degree far above average (power-law-ish tail).
            assert!(avg > 2.0, "avg degree {avg}");
            assert!(max as f64 > 8.0 * avg, "max {max} vs avg {avg}");
        });
    }

    #[test]
    fn radius_heuristic_lands_in_band() {
        kamping::run(1, |comm| {
            let n = 2000;
            let big_r = radius_for_degree(n, 16.0);
            let g = rhg(&comm, n, big_r, 2).unwrap();
            let avg = g.local_edge_count() as f64 / n as f64;
            assert!((2.0..200.0).contains(&avg), "avg degree {avg} out of band");
        });
    }

    #[test]
    fn reach_bound_is_monotone_and_clamped() {
        let big_r = 12.0;
        assert_eq!(max_reach(big_r, big_r, big_r * 2.0), std::f64::consts::PI);
        let a = max_reach(7.0, 6.0, big_r);
        let b = max_reach(9.0, 6.0, big_r);
        assert!(a >= b, "reach must shrink with radius: {a} < {b}");
        assert!(max_reach(big_r, big_r, big_r) >= 0.0);
    }

    #[test]
    fn angular_diff_wraps() {
        assert!((angular_diff(0.1, TAU - 0.1) - 0.2).abs() < 1e-12);
        assert!((angular_diff(1.0, 2.5) - 1.5).abs() < 1e-12);
    }
}
