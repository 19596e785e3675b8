//! The supervisor: starts one worker per pass, watches it, cleans up.
//!
//! Every pass runs in a worker process with a process group of its own
//! and a hard deadline of three times its window. A worker that hangs,
//! panics or reports a typed error from the library (the known spurious
//! `ProcFailed` of ROADMAP item 1, say) is killed with its whole group,
//! counted as one failed op with its message kept verbatim, and started
//! again, so one bad pair does not lose the run. The scratch directory —
//! rendezvous sockets, ring files, rank reports — is removed on every
//! exit path.

use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::catalog;
use crate::json::Json;
use crate::procfs;

/// Pairs started per pass before the supervisor gives up on it.
const MAX_ATTEMPTS: usize = 2;
/// Added to the 3 × window deadline: five pair start-ups, or the probes'
/// launches.
const DEADLINE_SLACK_S: f64 = 25.0;

/// Where the harness may write: `<benchmark>/out`, and a scratch
/// directory below it that lives as long as this value.
pub struct Dirs {
    pub out: PathBuf,
    pub scratch: PathBuf,
}

impl Dirs {
    /// `out` is `benchmark/out` next to this crate's manifest; when that
    /// lies below the current directory the relative form is used, which
    /// keeps Unix socket paths under their 108-byte limit in deep
    /// checkouts.
    pub fn create() -> Result<Dirs, String> {
        let absolute = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let out = std::env::current_dir()
            .ok()
            .and_then(|cwd| absolute.strip_prefix(cwd).map(Path::to_path_buf).ok())
            .unwrap_or(absolute);
        let scratch = out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
        Ok(Dirs { out, scratch })
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

#[derive(Debug, Clone)]
pub struct PassSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a pass came to, lost attempts folded in.
pub struct PassResult {
    /// The worker's result document, if any attempt produced one.
    pub doc: Option<Json>,
    pub attempted: u64,
    pub failed: u64,
    /// Why attempts were lost, verbatim.
    pub failures: Vec<String>,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.doc.is_some() && self.failed == 0
    }

    /// The metric cells of the pass, checked against the catalog: every
    /// declared metric present, each with its declared unit.
    pub fn metrics(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let doc = self.doc.as_ref().ok_or("no attempt produced a result")?;
        let cells = doc.get("metrics").ok_or("result has no metrics")?;
        let declared: &[catalog::Metric] = if trace {
            &catalog::PER_LAYER
        } else {
            &catalog::END_TO_END
        };
        declared
            .iter()
            .map(|m| {
                let cell = cells
                    .get(m.name)
                    .ok_or_else(|| format!("metric {} was not measured", m.name))?;
                // Timed cells are {value, unit, q1, q3, n}; layer cells are numbers.
                let value = cell
                    .as_f64()
                    .or_else(|| cell.get("value").and_then(Json::as_f64))
                    .ok_or_else(|| format!("metric {} has no value", m.name))?;
                if let Some(unit) = cell.get("unit").and_then(Json::as_str) {
                    if unit != m.unit {
                        return Err(format!(
                            "metric {}: unit {unit}, declared {}",
                            m.name, m.unit
                        ));
                    }
                }
                Ok((m.name, value, m.unit))
            })
            .collect()
    }
}

/// Runs one worker to completion or to its deadline.
fn attempt(spec: &PassSpec, dirs: &Dirs, n: usize) -> Result<Json, String> {
    let out = dirs.scratch.join(format!("result-{n}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = Command::new(exe)
        .arg("worker")
        .args(["--workload", &spec.workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .arg("--scratch")
        .arg(&dirs.scratch)
        .arg("--trace-dir")
        .arg(&dirs.out)
        .stdin(Stdio::null())
        // The last line of our stdout is the result; nothing a worker or
        // a rank prints may land there.
        .stdout(Stdio::null())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("starting the worker: {e}"))?;
    let pgid = child.id();
    let deadline = Instant::now() + Duration::from_secs_f64(3.0 * spec.seconds + DEADLINE_SLACK_S);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => break Err("deadline passed".to_string()),
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("waiting for the worker: {e}")),
        }
    };
    // Whatever happened, nothing of this attempt may outlive it: rank
    // processes share the worker's group.
    procfs::kill_group(pgid);
    let _ = child.wait();
    let doc = std::fs::read_to_string(&out)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let _ = std::fs::remove_file(&out);
    let said = doc
        .as_ref()
        .and_then(|d| d.get("error"))
        .and_then(Json::as_str)
        .map(str::to_string);
    match (status, doc, said) {
        (_, _, Some(e)) => Err(e),
        (Ok(s), Some(doc), None) if s.success() => Ok(doc),
        (Ok(s), _, None) => Err(format!("worker exited with {s} and no result")),
        (Err(e), _, None) => Err(format!("worker killed: {e}")),
    }
}

pub fn run_pass(spec: &PassSpec, dirs: &Dirs) -> PassResult {
    let mut result = PassResult {
        doc: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for n in 0..MAX_ATTEMPTS {
        match attempt(spec, dirs, n) {
            Ok(doc) => {
                let count = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                result.attempted += count("attempted");
                result.failed += count("failed");
                result.doc = Some(doc);
                break;
            }
            Err(e) => {
                eprintln!("kbench: {} attempt {}: {e}", spec.workload, n + 1);
                // The ops of a lost pair are unknown; it counts as one
                // attempted and failed op.
                result.attempted += 1;
                result.failed += 1;
                result.failures.push(e);
            }
        }
    }
    result.attempted = result.attempted.max(1);
    result
}
