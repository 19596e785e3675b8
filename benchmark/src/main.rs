//! `kbench` — the benchmark of kamping-rs.
//!
//! ```text
//! kbench run --seed N                          every workload, both passes, one table, one result set
//! kbench run --workload W --seed N --seconds S --trace 0|1
//!                                              one pass of one workload; last stdout line is the result
//! kbench calibrate                             5 result sets -> regression bounds in BENCHMARK.json
//! kbench agree A.json B.json                   do two result sets agree within the bounds?
//! kbench manifest                              print BENCHMARK.json as this build declares it
//! kbench metrics                               list every metric: unit, direction, what it predicts
//! ```
//!
//! See `benchmark/README.md` for the metrics, the workloads and why each
//! exists.

mod catalog;
mod inputs;
mod json;
mod oracle;
mod passes;
mod probes;
mod procfs;
mod report;
mod span;
mod stats;
mod supervisor;
mod worker;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use supervisor::{Dirs, PassSpec};

/// `.map_err(err("what was being done"))`: a library error as the message
/// the harness reports verbatim.
fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// `--key value` pairs after the subcommand, plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_string(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace takes 0 or 1, got {v:?}")),
        }
    }
}

/// Default window per pass, seconds (`run_seconds` of BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 10.0;

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let scrubbed = procfs::scrub_kamping_env();
    let seed: u64 = args.parsed("seed", 1)?;
    let seconds: f64 = args.parsed("seconds", DEFAULT_SECONDS)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let dirs = Dirs::create()?;
    match args.get("workload") {
        Some(workload) => {
            if workloads::info(workload).is_none() {
                return Err(format!("unknown workload {workload:?}"));
            }
            let trace = args.trace()?;
            let spec = PassSpec {
                workload: workload.to_string(),
                seed,
                seconds,
                trace,
            };
            let pass = supervisor::run_pass(&spec, &dirs);
            let cells = pass.metrics(trace)?;
            for (name, value, unit) in &cells {
                eprintln!("{name:<44} {value:>16.4} {unit}");
            }
            for f in &pass.failures {
                eprintln!("failure: {f}");
            }
            let metrics = cells
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::obj()
                            .with("value", Json::Num(*value))
                            .with("unit", Json::Str(unit.to_string())),
                    )
                })
                .collect();
            let line = Json::obj()
                .with("correct", Json::Bool(pass.correct()))
                .with("attempted", Json::Num(pass.attempted as f64))
                .with("failed", Json::Num(pass.failed as f64))
                .with("metrics", Json::Obj(metrics));
            println!("{}", line.compact());
            Ok(if pass.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        None => {
            let set = report::run_set(seed, seconds, &dirs, &scrubbed);
            report::print_set(&set);
            let path = match args.get("out") {
                Some(p) => PathBuf::from(p),
                None => dirs.out.join(format!("results-seed{seed}.json")),
            };
            std::fs::write(&path, set.pretty())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("result set written to {}", path.display());
            Ok(if report::set_correct(&set) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
    }
}

fn cmd_worker(args: &Args) -> Result<ExitCode, String> {
    let wargs = worker::WorkerArgs {
        workload: args.required("workload")?.to_string(),
        seed: args.parsed("seed", 1)?,
        seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
        trace: args.trace()?,
        out: PathBuf::from(args.required("out")?),
        scratch: PathBuf::from(args.required("scratch")?),
        trace_dir: PathBuf::from(args.required("trace-dir")?),
    };
    match worker::worker_main(&wargs) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            // The supervisor reports this verbatim.
            let doc = Json::obj().with("error", Json::Str(e.clone()));
            let _ = std::fs::write(&wargs.out, doc.compact());
            Err(e)
        }
    }
}

fn cmd_rank(args: &Args) -> Result<ExitCode, String> {
    let phase = worker::parse_phase(args.required("phase")?).ok_or("--phase: unknown phase")?;
    let cfg = passes::RankCfg {
        workload: args.required("workload")?.to_string(),
        seed: args.parsed("seed", 1)?,
        seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
        phase,
        shared_process: false,
    };
    let out = PathBuf::from(args.required("out")?);
    Ok(ExitCode::from(worker::rank_process_main(&cfg, &out) as u8))
}

fn usage() -> String {
    "usage: kbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
     kbench calibrate [--sets 5] [--seed N] [--seconds S]\n       \
     kbench agree A.json B.json\n       \
     kbench manifest | metrics\n\
     workloads: "
        .to_string()
        + &workloads::ALL
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "worker" => cmd_worker(&args),
        "rank" => cmd_rank(&args),
        "probe-rank" => probes::probe_rank_main(&args.positional),
        "calibrate" => report::cmd_calibrate(
            args.parsed("sets", 5)?,
            args.parsed("seed", 1)?,
            args.parsed("seconds", DEFAULT_SECONDS)?,
        ),
        "agree" => report::cmd_agree(&args.positional),
        "manifest" => report::cmd_manifest(),
        "metrics" => report::cmd_metrics(),
        _ => Err(usage()),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("kbench: {e}");
            ExitCode::from(2)
        }
    }
}
