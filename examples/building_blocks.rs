//! The "general building blocks for distributed computing" of paper §V in
//! one program: the STL-like distributed sorter plugin, connected
//! components, triangle counting (the §V-A-cited application of sparse
//! exchange), and the cross-rank measurement module timing it all.
//!
//! Run with `cargo run --release --example building_blocks -- [ranks]`.

use kamping::measurements::{aggregate, TimerTree};
use kamping_graphs::components::{component_count, connected_components};
use kamping_graphs::gen::{gnm, rhg, rhg_radius};
use kamping_graphs::triangles::count_triangles;
use kamping_sort::DistributedSorter;

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    // Times `f` as the phase `name`.
    fn timed<R>(timer: &mut TimerTree, name: &str, f: impl FnOnce() -> R) -> R {
        timer.start(name);
        let out = f();
        timer.stop();
        out
    }
    kamping::run(ranks, |comm| {
        let mut timer = TimerTree::new();

        // STL-like distributed sort (the §V sorter plugin).
        let mut data: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) ^ comm.rank() as u64)
            .collect();
        timed(&mut timer, "sort", || {
            comm.sort_distributed(&mut data).unwrap()
        });
        assert!(kamping_sort::sample_sort::is_globally_sorted(&comm, &data).unwrap());

        // Connected components on a sparse random graph.
        let g = timed(&mut timer, "gen_gnm", || gnm(&comm, 4000, 3000, 7).unwrap());
        let labels = timed(&mut timer, "components", || {
            connected_components(&comm, &g).unwrap()
        });
        let k = component_count(&comm, &labels).unwrap();

        // Triangles of a hyperbolic graph (hubs make them plentiful).
        let h = timed(&mut timer, "gen_rhg", || {
            rhg(&comm, 1500, rhg_radius(1500, 10.0), 5).unwrap()
        });
        let triangles = timed(&mut timer, "triangles", || {
            count_triangles(&comm, &h).unwrap()
        });

        // Aggregate timings across ranks (the measurements module).
        let agg = aggregate(&timer, &comm).unwrap();
        if comm.rank() == 0 {
            println!("building_blocks OK on {ranks} ranks");
            println!("  components of G(4000, 3000): {k}");
            println!("  triangles of RHG(1500):      {triangles}");
            println!(
                "  {:<12} {:>10} {:>10} {:>10}",
                "region", "min ms", "mean ms", "max ms"
            );
            for phase in &agg.root.children {
                let a = &phase.measurements[0];
                println!(
                    "  {:<12} {:>10.3} {:>10.3} {:>10.3}",
                    phase.name,
                    a.min * 1e3,
                    a.mean * 1e3,
                    a.max * 1e3
                );
            }
        }
    });
}
