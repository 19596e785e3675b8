//! The worker process: one pass of one workload.
//!
//! The supervisor starts a worker per pass, in a process group of its
//! own, so a hang can be killed without leaving rank processes behind.
//! A timed run starts five pairs one after the other, each measuring a
//! fifth of the window and each giving one `setup_s` sample; a traced run
//! starts one pair and then the layer probes. Pairs are threads of the worker for the
//! in-process workloads and two `kbench rank` processes started through
//! `net::launch` for the stream workloads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use kamping_mpi::net::{launch, Backend, LaunchSpec};

use crate::json::Json;
use crate::passes::{self, Phase, RankCfg};
use crate::probes;
use crate::stats::Summary;
use crate::workloads;

/// Pairs a timed run starts one after the other; each measures a fifth
/// of the window, and each is one `setup_s` sample.
pub const TIMED_PAIRS: usize = 5;

pub struct WorkerArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the result JSON goes.
    pub out: PathBuf,
    /// Directory for everything transient (rendezvous sockets, rings,
    /// rank reports); the supervisor removes it.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub trace_dir: PathBuf,
}

fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Setup => "setup",
        Phase::Timed => "timed",
        Phase::Traced => "traced",
    }
}

pub fn parse_phase(s: &str) -> Option<Phase> {
    [Phase::Setup, Phase::Timed, Phase::Traced]
        .into_iter()
        .find(|&p| phase_name(p) == s)
}

/// Runs `cfg` on a pair of threads of this process.
fn pair_in_process(cfg: &RankCfg) -> Result<Option<Json>, String> {
    let run = std::panic::catch_unwind(|| kamping::run(2, |comm| passes::rank_main(comm, cfg)));
    let per_rank = run.map_err(|p| {
        let what = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("rank panicked: {what}")
    })?;
    let mut report = None;
    for (rank, r) in per_rank.into_iter().enumerate() {
        match r {
            Ok(Some(j)) => report = Some(j),
            Ok(None) => {}
            Err(e) => return Err(format!("rank {rank}: {e}")),
        }
    }
    Ok(report)
}

/// Launches `cfg` as two `kbench rank` processes on `backend`. Every file
/// the job touches — rendezvous and data sockets, ring files, the rank
/// report — lives under `scratch` (the harness may only write inside its
/// checkout, so the rings are file-backed there instead of `/dev/shm`).
fn pair_launched(
    cfg: &RankCfg,
    backend: Backend,
    scratch: &Path,
    seq: usize,
) -> Result<Option<Json>, String> {
    let report = scratch.join(format!("rank0-{seq}.json"));
    let shm = scratch.join(format!("shm-{seq}"));
    std::fs::create_dir_all(&shm).map_err(|e| format!("creating {}: {e}", shm.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut spec = LaunchSpec::new(2, exe);
    spec.backend = backend;
    spec.args = [
        "rank",
        "--workload",
        &cfg.workload,
        "--seed",
        &cfg.seed.to_string(),
        "--seconds",
        &cfg.seconds.to_string(),
        "--phase",
        phase_name(cfg.phase),
        "--out",
        &report.display().to_string(),
    ]
    .map(String::from)
    .to_vec();
    spec.env = vec![("KAMPING_SHM_DIR".into(), shm.display().to_string())];
    let exits = launch(&spec).map_err(|e| format!("net::launch: {e}"))?;
    let _ = std::fs::remove_dir_all(&shm);
    let text = std::fs::read_to_string(&report).ok();
    let _ = std::fs::remove_file(&report);
    let parsed = text.as_deref().map(Json::parse);
    // A rank's own account of its failure beats its exit status.
    if let Some(Ok(j)) = &parsed {
        if let Some(e) = j.get("error").and_then(Json::as_str) {
            return Err(e.to_string());
        }
    }
    if let Some(bad) = exits.iter().find(|e| !e.status.success()) {
        return Err(format!("rank {} exited with {}", bad.rank, bad.status));
    }
    match (cfg.phase, parsed) {
        (Phase::Setup, _) => Ok(None),
        (_, Some(Ok(j))) => Ok(j.get("report").cloned()),
        (_, Some(Err(e))) => Err(format!("rank 0 report unreadable: {e}")),
        (_, None) => Err("rank 0 wrote no report".into()),
    }
}

/// The body of a `kbench rank` process: joins the launched job, runs the
/// pass, and (rank 0) writes `{"report": …}` or `{"error": …}` to `out`.
pub fn rank_process_main(cfg: &RankCfg, out: &Path) -> i32 {
    let run = std::panic::catch_unwind(|| {
        kamping::run(2, |comm| {
            let rank = comm.rank();
            (rank, passes::rank_main(comm, cfg))
        })
    });
    let (rank, result) = match run {
        Ok(mut v) if v.len() == 1 => v.remove(0),
        Ok(_) => (
            0,
            Err("not started by a launcher: no rank environment".into()),
        ),
        Err(_) => (usize::MAX, Err("rank panicked".into())),
    };
    let doc = match &result {
        Ok(Some(report)) => Some(Json::obj().with("report", report.clone())),
        Ok(None) if rank == 0 => Some(Json::obj()),
        Ok(None) => None,
        Err(e) => Some(Json::obj().with("error", Json::Str(format!("rank {rank}: {e}")))),
    };
    // Only rank 0 owns the file on success; on an error whoever fails
    // first says why (the peer's follow-up error is the less useful one).
    if let Some(doc) = doc {
        if result.is_ok() || !out.exists() {
            let _ = std::fs::write(out, doc.compact());
        }
    }
    if result.is_ok() {
        0
    } else {
        3
    }
}

/// Trimmed mean: the mean of what is left after dropping the smallest
/// and the largest value (all of them when there are fewer than four).
fn mid_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let kept = if v.len() >= 4 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// One end-to-end cell from the pairs' values of a metric.
fn combine(name: &str, unit: &str, per_pair: &[f64]) -> Json {
    // Memory is a high-water mark, not a rate: the worst pair counts.
    let value = if name == "peak_rss_mib" {
        per_pair.iter().copied().fold(0.0, f64::max)
    } else {
        mid_mean(per_pair)
    };
    let spread = Summary::of(per_pair);
    Json::obj()
        .with("value", Json::Num(value))
        .with("unit", Json::Str(unit.into()))
        .with("q1", Json::Num(spread.q1))
        .with("q3", Json::Num(spread.q3))
        .with("n", Json::Num(per_pair.len() as f64))
}

pub fn worker_main(args: &WorkerArgs) -> Result<(), String> {
    let info = workloads::info(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    // `net::launch` puts its rendezvous directory under the temp dir.
    std::env::set_var("TMPDIR", &args.scratch);
    // Pair `i` of a run draws its inputs from a seed of its own, derived
    // from `--seed`: what depends on the drawn input (a graph's diameter,
    // a sort's splitters) is then averaged over the pairs instead of
    // being fixed by the one seed.
    let cfg = |phase, seconds, pair: usize| RankCfg {
        workload: args.workload.clone(),
        seed: crate::inputs::derived_seed(args.seed, "pair", pair as u64),
        seconds,
        phase,
        shared_process: info.backend.is_none(),
    };
    let mut seq = 0;
    let mut start_pair = |phase: Phase, seconds: f64, pair: usize| {
        seq += 1;
        let cfg = cfg(phase, seconds, pair);
        match info.backend {
            None => pair_in_process(&cfg),
            Some(backend) => pair_launched(&cfg, backend, &args.scratch, seq),
        }
    };
    let mut result = Json::obj()
        .with("workload", Json::Str(args.workload.clone()))
        .with("seed", Json::Num(args.seed as f64))
        .with("seconds", Json::Num(args.seconds))
        .with("trace", Json::Bool(args.trace));
    let count = |report: &Json, key: &str| report.get(key).and_then(Json::as_f64).unwrap_or(0.0);

    if args.trace {
        let report =
            start_pair(Phase::Traced, args.seconds, 0)?.ok_or("the pair returned no report")?;
        let mut layer = report.get("layer").cloned().unwrap_or_else(Json::obj);
        let budget_s = args.seconds * (1.0 - passes::TRACED_PASS_SHARE);
        for (name, value) in probes::run_all(&args.workload, args.seed, budget_s, &args.scratch)? {
            if layer.get(&name).is_none() {
                layer.set(&name, Json::Num(value));
            }
        }
        result.set("attempted", Json::Num(count(&report, "attempted")));
        result.set("failed", Json::Num(count(&report, "failed")));
        result.set("metrics", layer);
        if let Some(trace) = report.get("trace_file") {
            std::fs::create_dir_all(&args.trace_dir)
                .map_err(|e| format!("creating {}: {e}", args.trace_dir.display()))?;
            let path = args.trace_dir.join(format!("trace-{}.json", args.workload));
            std::fs::write(&path, trace.compact())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    } else {
        // The window is split over TIMED_PAIRS pairs started one after
        // the other. How the scheduler places a pair's threads is decided
        // when it starts and sticks; sampling several placements and
        // trimming the extremes is what makes a run repeat.
        let mut reports = Vec::with_capacity(TIMED_PAIRS);
        let mut setup_s = Vec::with_capacity(TIMED_PAIRS);
        for pair in 0..TIMED_PAIRS {
            let start = Instant::now();
            let report = start_pair(Phase::Timed, args.seconds / TIMED_PAIRS as f64, pair)?
                .ok_or("the pair returned no report")?;
            // Everything about the pair that was not its timed window:
            // spawn or launch, rendezvous, inputs, warm-up, teardown.
            let window_s = report.get("detail").map_or(0.0, |d| count(d, "window_s"));
            setup_s.push(start.elapsed().as_secs_f64() - window_s);
            reports.push(report);
        }
        let mut metrics = Json::obj().with("setup_s", combine("setup_s", "s", &setup_s));
        for m in crate::catalog::END_TO_END
            .iter()
            .filter(|m| m.name != "setup_s")
        {
            let per_pair: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.as_f64())
                .collect();
            if per_pair.len() != reports.len() {
                return Err(format!("a pair did not report {}", m.name));
            }
            metrics.set(m.name, combine(m.name, m.unit, &per_pair));
        }
        result.set(
            "attempted",
            Json::Num(reports.iter().map(|r| count(r, "attempted")).sum()),
        );
        result.set(
            "failed",
            Json::Num(reports.iter().map(|r| count(r, "failed")).sum()),
        );
        result.set("metrics", metrics);
        result.set(
            "detail",
            Json::Arr(
                reports
                    .iter()
                    .filter_map(|r| r.get("detail").cloned())
                    .collect(),
            ),
        );
    }
    std::fs::write(&args.out, result.pretty())
        .map_err(|e| format!("writing {}: {e}", args.out.display()))
}
