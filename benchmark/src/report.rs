//! Result sets: taking one (`run` without `--workload`), printing it,
//! comparing two (`agree`) and deriving bounds from five (`calibrate`).
//!
//! A result set is one timed and one traced pass of every workload at one
//! seed, with the environment it was taken in:
//!
//! ```text
//! {"schema": "kbench-set-1", "seed": 1, "seconds": 10, "env": {...},
//!  "workloads": {"p2p-small-shm": {"attempted": n, "failed": 0, "failures": [],
//!      "end_to_end": {"ops_per_s": {"value": v, "unit": "1/s", "q1": a, "q3": b, "n": k}, ...},
//!      "per_layer":  {"core.typed_call_self_ns": {"value": v, "unit": "ns"}, ...}}, ...}}
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::catalog::{self, Better};
use crate::json::Json;
use crate::procfs;
use crate::stats;
use crate::supervisor::{self, Dirs, PassSpec};
use crate::workloads::{self, Placement};

/// A set whose rank threads waited this share of their time for a core
/// is marked noisy.
const NOISY_RUNQ_SHARE: f64 = 0.05;
/// Bounds `calibrate` will write: three times the seed-to-seed spread,
/// no tighter than this …
const MIN_BOUND: f64 = 0.02;
/// … flagged when wider than this, and capped at [`MAX_BOUND`] (the run
/// contract's cap). A metric whose spread is more than half the cap has
/// no usable bound left and is refused: it belongs in `per_layer`.
const WIDE_BOUND: f64 = 0.10;
const MAX_BOUND: f64 = 0.25;

/// `BENCHMARK.json` as the catalog and the workload list define it, with
/// `bound` for every end-to-end metric taken from `bounds` (the file being
/// replaced, normally) or [`MAX_BOUND`] for a metric new to it.
pub fn manifest(bounds: &[(String, f64)]) -> Json {
    let workloads = workloads::ALL
        .iter()
        .map(|w| {
            Json::obj()
                .with("name", Json::Str(w.name.into()))
                .with("why", Json::Str(format!("op = {}; {}", w.op_unit, w.why)))
        })
        .collect();
    let end_to_end = catalog::END_TO_END
        .iter()
        .map(|m| {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(MAX_BOUND, |(_, b)| *b);
            Json::obj()
                .with("name", Json::Str(m.name.into()))
                .with("unit", Json::Str(m.unit.into()))
                .with("better", Json::Str(m.better.as_str().into()))
                .with("bound", Json::Num(bound))
        })
        .collect();
    let per_layer = catalog::PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", Json::Str(m.name.into()))
                .with("unit", Json::Str(m.unit.into()))
                .with("better", Json::Str(m.better.as_str().into()))
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj()
        .with(
            "command",
            Json::Arr(command.iter().map(|c| Json::Str(c.to_string())).collect()),
        )
        .with("paths", Json::Arr(vec![Json::Str("benchmark".into())]))
        .with("run_seconds", Json::Num(crate::DEFAULT_SECONDS))
        .with("workloads", Json::Arr(workloads))
        .with("end_to_end", Json::Arr(end_to_end))
        .with("per_layer", Json::Arr(per_layer))
}

/// `kbench metrics`: every metric with its unit, direction and what it
/// stands for or predicts.
pub fn cmd_metrics() -> Result<ExitCode, String> {
    for (title, list) in [
        ("end to end", &catalog::END_TO_END[..]),
        ("per layer", &catalog::PER_LAYER[..]),
    ] {
        println!("-- {title}");
        for m in list {
            println!(
                "{:<44} {:<7} {:<7} {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.note
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `kbench manifest`: prints the `BENCHMARK.json` this build stands for,
/// keeping the bounds of the committed file.
pub fn cmd_manifest() -> Result<ExitCode, String> {
    let bounds = declared_bounds().unwrap_or_default();
    print!("{}", manifest(&bounds).pretty());
    Ok(ExitCode::SUCCESS)
}

fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn run_set(seed: u64, seconds: f64, dirs: &Dirs, scrubbed: &[String]) -> Json {
    let mut per_workload = Json::obj();
    for info in &workloads::ALL {
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut failures = Vec::new();
        // [end_to_end, per_layer], from the timed and the traced pass.
        let mut groups = [Json::obj(), Json::obj()];
        for trace in [false, true] {
            eprintln!(
                "kbench: {} ({} pass, {seconds} s, seed {seed})",
                info.name,
                if trace { "traced" } else { "timed" }
            );
            let spec = PassSpec {
                workload: info.name.to_string(),
                seed,
                seconds,
                trace,
            };
            let pass = supervisor::run_pass(&spec, dirs);
            attempted += pass.attempted;
            failed += pass.failed;
            failures.extend(pass.failures.iter().cloned().map(Json::Str));
            let cells = match (pass.metrics(trace), &pass.doc) {
                (Ok(_), Some(doc)) => doc.get("metrics").cloned().unwrap_or_else(Json::obj),
                (Err(e), _) => {
                    failed += 1;
                    failures.push(Json::Str(e));
                    Json::obj()
                }
                (Ok(_), None) => Json::obj(),
            };
            groups[trace as usize] = if trace {
                // Layer cells are bare numbers; attach the declared units.
                Json::Obj(
                    cells
                        .fields()
                        .iter()
                        .filter_map(|(name, v)| {
                            let unit = catalog::per_layer(name)?.unit;
                            Some((
                                name.clone(),
                                Json::obj()
                                    .with("value", v.clone())
                                    .with("unit", Json::Str(unit.into())),
                            ))
                        })
                        .collect(),
                )
            } else {
                cells
            };
        }
        let [end_to_end, per_layer] = groups;
        let runq = per_layer
            .get("env.runq_wait_share")
            .and_then(|c| c.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let entry = Json::obj()
            .with("attempted", Json::Num(attempted as f64))
            .with("failed", Json::Num(failed as f64))
            .with("failures", Json::Arr(failures))
            // Only where each rank thread has a core to itself does
            // run-queue waiting mean interference: ranks sharing a core wait
            // for each other, and launched ranks for the library's own
            // progress threads, by design.
            .with(
                "noisy",
                Json::Bool(info.placement == Placement::OnePerCore && runq > NOISY_RUNQ_SHARE),
            )
            .with("end_to_end", end_to_end)
            .with("per_layer", per_layer);
        per_workload.set(info.name, entry);
    }
    Json::obj()
        .with("schema", Json::Str("kbench-set-1".into()))
        .with("seed", Json::Num(seed as f64))
        .with("seconds", Json::Num(seconds))
        .with(
            "transport_note",
            Json::Str(
                "stream-large-socket runs over Unix-domain sockets on one host: loopback only, no real link is measured"
                    .into(),
            ),
        )
        .with("env", procfs::env_fingerprint(scrubbed))
        .with("workloads", per_workload)
}

pub fn set_correct(set: &Json) -> bool {
    set.get("workloads").is_some_and(|w| {
        w.fields().iter().all(|(_, entry)| {
            entry.get("failed").and_then(Json::as_f64) == Some(0.0)
                && !entry
                    .get("end_to_end")
                    .is_none_or(|e| e.fields().is_empty())
        })
    })
}

fn cell_value(entry: &Json, group: &str, metric: &str) -> Option<f64> {
    entry.get(group)?.get(metric)?.get("value")?.as_f64()
}

/// Every metric of every workload, by name, with its unit.
pub fn print_set(set: &Json) {
    let Some(per_workload) = set.get("workloads") else {
        return;
    };
    println!(
        "kbench result set: seed {}, {} s per pass",
        set.get("seed").and_then(Json::as_f64).unwrap_or(0.0),
        set.get("seconds").and_then(Json::as_f64).unwrap_or(0.0)
    );
    if let Some(env) = set.get("env") {
        println!("env: {}", env.compact());
    }
    if let Some(note) = set.get("transport_note").and_then(Json::as_str) {
        println!("note: {note}");
    }
    for (name, entry) in per_workload.fields() {
        let count = |k| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "\n== {name}: {} ops attempted, {} failed (failed_ratio {}){}",
            count("attempted"),
            count("failed"),
            count("failed") / count("attempted").max(1.0),
            if entry.get("noisy").and_then(Json::as_bool) == Some(true) {
                "  [NOISY: run-queue wait above 5 %]"
            } else {
                ""
            }
        );
        for f in entry.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            println!("   failure: {}", f.as_str().unwrap_or("?"));
        }
        println!("   -- end to end (trimmed mean [q1, q3] over the pairs)");
        for m in &catalog::END_TO_END {
            if let Some(cell) = entry.get("end_to_end").and_then(|e| e.get(m.name)) {
                let f = |k| cell.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                println!(
                    "   {:<26} {:>14.4} {:<6} [{:.4}, {:.4}]",
                    m.name,
                    f("value"),
                    m.unit,
                    f("q1"),
                    f("q3")
                );
            }
        }
        println!("   -- per layer");
        for m in &catalog::PER_LAYER {
            if let Some(v) = cell_value(entry, "per_layer", m.name) {
                println!("   {:<44} {:>14.4} {}", m.name, v, m.unit);
            }
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = read_json(&benchmark_json_path())?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// One row of `agree` per (workload, end-to-end metric), one per exact
/// count that differs. Returns the rows and the names that disagree.
pub fn compare_sets(a: &Json, b: &Json, bounds: &[(String, f64)]) -> (Vec<String>, Vec<String>) {
    let mut rows = Vec::new();
    let mut disagree = Vec::new();
    let empty = Json::obj();
    let wa = a.get("workloads").unwrap_or(&empty);
    let wb = b.get("workloads").unwrap_or(&empty);
    for info in &workloads::ALL {
        let (Some(ea), Some(eb)) = (wa.get(info.name), wb.get(info.name)) else {
            disagree.push(format!("{}: missing from a set", info.name));
            continue;
        };
        for m in &catalog::END_TO_END {
            let cell = |e: &Json, k: &str| {
                e.get("end_to_end")
                    .and_then(|g| g.get(m.name))
                    .and_then(|c| c.get(k))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (cell(ea, "value"), cell(eb, "value")) else {
                disagree.push(format!(
                    "{} {}: not measured in both sets",
                    info.name, m.name
                ));
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(MAX_BOUND, |(_, b)| *b);
            // One commit, two sets: neither may be worse than the other
            // by more than the bound.
            let gap = worse_by(va, vb, m.better).max(worse_by(vb, va, m.better));
            let ok = gap <= bound;
            let q = |e: &Json, k| cell(e, k).unwrap_or(f64::NAN);
            rows.push(format!(
                "{:<20} {:<24} {:>12.4} [{:.4}, {:.4}]  {:>12.4} [{:.4}, {:.4}]  gap {:>6.2}%  bound {:>5.1}%  {}",
                info.name,
                m.name,
                va,
                q(ea, "q1"),
                q(ea, "q3"),
                vb,
                q(eb, "q1"),
                q(eb, "q3"),
                gap * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            ));
            if !ok {
                disagree.push(format!("{} {}", info.name, m.name));
            }
        }
        for m in catalog::PER_LAYER
            .iter()
            .filter(|m| catalog::is_exact_count(m))
        {
            let va = cell_value(ea, "per_layer", m.name);
            let vb = cell_value(eb, "per_layer", m.name);
            if va != vb || va.is_none() {
                rows.push(format!(
                    "{:<20} {:<44} {:?} vs {:?}  exact count DIFFERS",
                    info.name, m.name, va, vb
                ));
                disagree.push(format!("{} {}", info.name, m.name));
            }
        }
        for (set, e) in [("first", ea), ("second", eb)] {
            if e.get("failed").and_then(Json::as_f64) != Some(0.0) {
                disagree.push(format!("{}: failed ops in the {set} set", info.name));
            }
        }
    }
    (rows, disagree)
}

pub fn cmd_agree(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("agree takes two result set files".into());
    };
    let bounds = declared_bounds()?;
    let (rows, disagree) = compare_sets(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &bounds,
    );
    println!(
        "{:<20} {:<24} {:>12} {:<20}  {:>12} {:<20}",
        "workload", "metric", "A median", "[q1, q3]", "B median", "[q1, q3]"
    );
    for row in &rows {
        println!("{row}");
    }
    if disagree.is_empty() {
        println!("the two sets agree on every (workload, metric) pair and every exact count");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("DISAGREE on {} pair(s):", disagree.len());
        for d in &disagree {
            println!("  {d}");
        }
        Ok(ExitCode::from(1))
    }
}

/// The bound `calibrate` derives for one metric from its values across
/// sets, per workload: three times the widest spread, floored at
/// [`MIN_BOUND`], rounded up to a whole percent.
pub fn derive_bound(values_per_workload: &[Vec<f64>]) -> f64 {
    let widest = values_per_workload
        .iter()
        .map(|v| stats::spread(v))
        .fold(0.0, f64::max);
    ((3.0 * widest).max(MIN_BOUND) * 100.0).ceil() / 100.0
}

pub fn cmd_calibrate(sets: usize, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    if sets < 3 {
        return Err("calibrate needs at least 3 sets".into());
    }
    let scrubbed = procfs::scrub_kamping_env();
    let dirs = Dirs::create()?;
    let mut taken = Vec::with_capacity(sets);
    for i in 0..sets {
        let set = run_set(seed + i as u64, seconds, &dirs, &scrubbed);
        let path = dirs.out.join(format!("calibrate-set{i}.json"));
        std::fs::write(&path, set.pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !set_correct(&set) {
            return Err(format!("set {i} has failed ops; see {}", path.display()));
        }
        taken.push(set);
    }

    let path = benchmark_json_path();
    let mut doc = read_json(&path)?;
    let mut refused = Vec::new();
    let Some(Json::Arr(declared)) = doc.get_mut("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    println!("{:<26} {:>10} {:>8}", "metric", "spread", "bound");
    for cell in declared.iter_mut() {
        let name = cell
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?
            .to_string();
        let per_workload: Vec<Vec<f64>> = workloads::ALL
            .iter()
            .map(|info| {
                taken
                    .iter()
                    .filter_map(|set| {
                        cell_value(set.get("workloads")?.get(info.name)?, "end_to_end", &name)
                    })
                    .collect()
            })
            .collect();
        let derived = derive_bound(&per_workload);
        // Set-up time gets the widest bound the contract allows: it is
        // reported so that work moved into set-up shows, not to gate noise.
        let bound = if name == "setup_s" {
            MAX_BOUND
        } else {
            derived
        };
        println!(
            "{:<26} {:>9.2}% {:>7.0}%{}",
            name,
            derived / 3.0 * 100.0,
            bound * 100.0,
            if bound > WIDE_BOUND && name != "setup_s" {
                "  (wide: above 10 %)"
            } else {
                ""
            }
        );
        if bound > MAX_BOUND {
            refused.push(name);
        } else {
            cell.set("bound", Json::Num(bound));
        }
    }
    if !refused.is_empty() {
        return Err(format!(
            "spread above {:.1} % (half the bound cap) for {}: demote these to per_layer and say why in the README",
            MAX_BOUND / 2.0 * 100.0,
            refused.join(", ")
        ));
    }
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("bounds written to {}", path.display());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_what_this_build_declares() {
        let committed = read_json(&benchmark_json_path()).expect("BENCHMARK.json at the repo root");
        let bounds = declared_bounds().expect("bounds");
        assert_eq!(
            committed,
            manifest(&bounds),
            "BENCHMARK.json drifted from benchmark/src/catalog.rs; regenerate it with `kbench manifest`"
        );
        for (name, bound) in bounds {
            assert!(bound > 0.0 && bound <= MAX_BOUND, "{name}: bound {bound}");
        }
        for w in &workloads::ALL {
            let why = format!("op = {}; {}", w.op_unit, w.why);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: {}",
                w.name,
                why.len()
            );
        }
    }

    fn set_with(ops_per_s: f64, msgs: f64) -> Json {
        let mut per_workload = Json::obj();
        for info in &workloads::ALL {
            let mut e2e = Json::obj();
            for m in &catalog::END_TO_END {
                let v = if m.name == "ops_per_s" {
                    ops_per_s
                } else {
                    5.0
                };
                e2e.set(
                    m.name,
                    Json::obj()
                        .with("value", Json::Num(v))
                        .with("q1", Json::Num(v))
                        .with("q3", Json::Num(v)),
                );
            }
            let mut layer = Json::obj();
            for m in &catalog::PER_LAYER {
                layer.set(m.name, Json::obj().with("value", Json::Num(msgs)));
            }
            per_workload.set(
                info.name,
                Json::obj()
                    .with("failed", Json::Num(0.0))
                    .with("end_to_end", e2e)
                    .with("per_layer", layer),
            );
        }
        Json::obj().with("workloads", per_workload)
    }

    #[test]
    fn agree_accepts_within_bound_and_names_what_is_outside() {
        let bounds: Vec<(String, f64)> = catalog::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 0.05))
            .collect();
        let (_, none) = compare_sets(&set_with(100.0, 4.0), &set_with(103.0, 4.0), &bounds);
        assert!(none.is_empty(), "{none:?}");
        let (_, slow) = compare_sets(&set_with(100.0, 4.0), &set_with(90.0, 4.0), &bounds);
        assert_eq!(slow.len(), workloads::ALL.len());
        assert!(slow[0].ends_with("ops_per_s"));
        // An exact count that moved is a disagreement however small.
        let (_, counts) = compare_sets(&set_with(100.0, 4.0), &set_with(100.0, 5.0), &bounds);
        assert!(counts.iter().any(|d| d.contains("mpi.profile.msgs_per_op")));
        assert!(!counts.iter().any(|d| d.contains("barrier_us")));
    }

    #[test]
    fn bounds_are_three_spreads_floored_and_rounded_up() {
        // spread of 1..=10 is 1.0 -> far above any cap, still computed
        let wide: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(derive_bound(&[wide]), 3.0);
        // identical values -> the floor
        assert_eq!(derive_bound(&[vec![7.0; 5]]), MIN_BOUND);
        // the widest workload decides; 3 x 1.1 % -> 4 %
        let tight = vec![100.0, 100.1, 100.2, 100.3, 100.4];
        let loose = vec![100.0, 100.5, 101.0, 101.1, 101.2];
        let b = derive_bound(&[tight, loose.clone()]);
        assert!((b - (3.0 * stats::spread(&loose) * 100.0).ceil() / 100.0).abs() < 1e-12);
        assert!((0.03..=0.05).contains(&b), "{b}");
    }
}
