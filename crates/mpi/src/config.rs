//! The process environment, parsed once.
//!
//! Every `KAMPING_*` variable the library understands is read here, by
//! `Config::from_lookup`, exactly once per universe: the `Universe::run*`
//! entry points build one `Config`, hand it to the universe state, and
//! everything below — instrumentation switches, the chaos schedule, the
//! collective-selection defaults, the `kampirun` launch environment —
//! reads that struct. A malformed value is always a typed
//! [`MpiError::Config`] naming the variable, never a silent default. The
//! README's environment table lists every variable with its type and
//! default; a unit test below keeps it in step with this file.

use std::path::PathBuf;

use crate::chaos::ChaosSpec;
use crate::coll::AlltoallAlgo;
use crate::error::{MpiError, MpiResult};
use crate::net::SocketConfig;
use crate::trace::{EVENTS, MEASURE, METRICS};

/// Everything the environment configures, for one universe.
#[derive(Debug, Clone)]
pub(crate) struct Config {
    /// Record lifecycle events into the ring (`KAMPING_TRACE`).
    pub(crate) tracing: bool,
    /// Measure per-op latency and wait attribution (`KAMPING_MEASURE`;
    /// implied by tracing).
    pub(crate) measuring: bool,
    /// Where to write the trace at teardown (`KAMPING_TRACE` value when it
    /// names a path; `None` for flag-only activation).
    pub(crate) trace_out: Option<PathBuf>,
    /// Collect live metrics (`KAMPING_METRICS`).
    pub(crate) metrics: bool,
    /// Where rank 0 appends the merged JSONL interval records
    /// (`KAMPING_METRICS` value when it names a path).
    pub(crate) metrics_out: Option<PathBuf>,
    /// Snapshot poll interval (`KAMPING_METRICS_INTERVAL_MS`).
    pub(crate) metrics_interval_ms: u64,
    /// Flight-recorder output directory (`KAMPING_CRASH_DIR`). Setting it
    /// forces tracing, measuring, and metrics on: crash evidence needs the
    /// rings populated.
    pub(crate) crash_dir: Option<PathBuf>,
    /// Fault-injection schedule (`KAMPING_CHAOS`).
    pub(crate) chaos: Option<ChaosSpec>,
    /// What `AlltoallAlgo::Auto` resolves to when not `Auto` itself
    /// (`KAMPING_ALLTOALL`).
    pub(crate) alltoall: AlltoallAlgo,
    /// The `kampirun` launch environment, when this process is one rank of
    /// a multi-process job (`KAMPING_TRANSPORT=socket|shm-xproc`).
    pub(crate) socket: Option<SocketConfig>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            tracing: false,
            measuring: false,
            trace_out: None,
            metrics: false,
            metrics_out: None,
            metrics_interval_ms: 1000,
            crash_dir: None,
            chaos: None,
            alltoall: AlltoallAlgo::Auto,
            socket: None,
        }
    }
}

/// `""`/`0`/`false` → off, `1`/`true` → on, anything else is not a switch
/// (either a path or a config error, depending on the variable).
fn parse_switch(v: &str) -> Option<bool> {
    match v {
        "" | "0" | "false" => Some(false),
        "1" | "true" => Some(true),
        _ => None,
    }
}

/// A switch-or-path variable: `(on, path)`. Whitespace-only is malformed.
fn switch_or_path(key: &str, v: String) -> MpiResult<(bool, Option<PathBuf>)> {
    match parse_switch(&v) {
        Some(on) => Ok((on, None)),
        None if v.trim().is_empty() => Err(MpiError::Config(format!(
            "{key} must be 0/false, 1/true, or an output path (got {v:?})"
        ))),
        None => Ok((true, Some(PathBuf::from(v)))),
    }
}

impl Config {
    /// Reads the process environment.
    pub(crate) fn from_env() -> MpiResult<Self> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`Config::from_env`] over an arbitrary lookup (testable without
    /// process-global env mutation).
    pub(crate) fn from_lookup(get: impl Fn(&str) -> Option<String>) -> MpiResult<Self> {
        // `key` set and non-blank → `parse` it or fail naming `key`.
        fn var<T>(
            get: &impl Fn(&str) -> Option<String>,
            key: &str,
            expect: &str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> MpiResult<Option<T>> {
            match get(key) {
                Some(v) if !v.trim().is_empty() => parse(v.trim())
                    .map(Some)
                    .ok_or_else(|| MpiError::Config(format!("{key} must be {expect} (got {v:?})"))),
                _ => Ok(None),
            }
        }
        let mut cfg = Self::default();
        if let Some(v) = get("KAMPING_TRACE") {
            let (on, out) = switch_or_path("KAMPING_TRACE", v)?;
            (cfg.tracing, cfg.measuring, cfg.trace_out) = (on, on, out);
        }
        if let Some(v) = get("KAMPING_MEASURE") {
            cfg.measuring |= parse_switch(&v).ok_or_else(|| {
                MpiError::Config(format!(
                    "KAMPING_MEASURE must be 0, 1, true, or false (got {v:?})"
                ))
            })?;
        }
        if let Some(v) = get("KAMPING_METRICS") {
            (cfg.metrics, cfg.metrics_out) = switch_or_path("KAMPING_METRICS", v)?;
        }
        cfg.metrics_interval_ms = var(
            &get,
            "KAMPING_METRICS_INTERVAL_MS",
            "an integer >= 10",
            |v| v.parse().ok().filter(|&ms: &u64| ms >= 10),
        )?
        .unwrap_or(cfg.metrics_interval_ms);
        if let Some(dir) = get("KAMPING_CRASH_DIR").filter(|v| !v.trim().is_empty()) {
            cfg.crash_dir = Some(PathBuf::from(dir));
            (cfg.tracing, cfg.measuring, cfg.metrics) = (true, true, true);
        }
        if let Some(spec) = get("KAMPING_CHAOS").filter(|v| !v.is_empty()) {
            cfg.chaos = Some(ChaosSpec::parse(&spec)?);
        }
        let alltoall = var(
            &get,
            "KAMPING_ALLTOALL",
            "auto, dense, sparse or grid",
            AlltoallAlgo::parse,
        )?;
        cfg.alltoall = alltoall.unwrap_or_default();
        cfg.socket = SocketConfig::from_lookup(get)?;
        Ok(cfg)
    }

    /// The instrumentation bits these switches ask for (see
    /// [`crate::trace::TraceCtx::new`]).
    pub(crate) fn trace_flags(&self) -> u8 {
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        bit(self.measuring || self.tracing, MEASURE)
            | bit(self.metrics, METRICS)
            | bit(self.tracing, EVENTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn config_env_switches() {
        let cfg = Config::from_lookup(lookup(&[("KAMPING_TRACE", "1")])).unwrap();
        assert!(cfg.tracing && cfg.measuring && cfg.trace_out.is_none());
        let cfg = Config::from_lookup(lookup(&[("KAMPING_TRACE", "/tmp/t.json")])).unwrap();
        assert_eq!(cfg.trace_out.as_deref(), Some(Path::new("/tmp/t.json")));
        let cfg = Config::from_lookup(lookup(&[("KAMPING_MEASURE", "false")])).unwrap();
        assert!(!cfg.measuring, "false now means off, not a silent enable");
        let cfg = Config::from_lookup(lookup(&[("KAMPING_METRICS", "/tmp/m.jsonl")])).unwrap();
        assert!(cfg.metrics);
        assert_eq!(cfg.metrics_out.as_deref(), Some(Path::new("/tmp/m.jsonl")));
        let cfg = Config::from_lookup(lookup(&[("KAMPING_CRASH_DIR", "/tmp/crash")])).unwrap();
        assert!(
            cfg.tracing && cfg.measuring && cfg.metrics,
            "crash dir forces evidence collection on"
        );
        assert_eq!(cfg.trace_flags(), MEASURE | METRICS | EVENTS);
        assert_eq!(Config::default().trace_flags(), 0);
    }

    #[test]
    fn config_bad_values_are_typed_errors() {
        for (var, val) in [
            ("KAMPING_MEASURE", "yes"),
            ("KAMPING_TRACE", "   "),
            ("KAMPING_METRICS", " "),
            ("KAMPING_METRICS_INTERVAL_MS", "fast"),
            ("KAMPING_METRICS_INTERVAL_MS", "5"),
            ("KAMPING_CHAOS", "7:explode=1"),
            ("KAMPING_ALLTOALL", "bruck"),
            ("KAMPING_TRANSPORT", "carrier-pigeon"),
        ] {
            let err = Config::from_lookup(lookup(&[(var, val)]))
                .expect_err(&format!("{var}={val:?} must be rejected"));
            match err {
                MpiError::Config(msg) => {
                    assert!(msg.contains(var), "error names the variable: {msg}")
                }
                other => panic!("expected Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn collective_selection_and_chaos_are_parsed_once() {
        let cfg = Config::from_lookup(lookup(&[
            ("KAMPING_ALLTOALL", "grid"),
            ("KAMPING_CHAOS", "7:delay=20@1"),
        ]))
        .unwrap();
        assert_eq!(cfg.alltoall, AlltoallAlgo::Grid);
        assert_eq!(cfg.chaos.expect("chaos spec parsed").seed, 7);
        assert!(cfg.socket.is_none());
        // Blank means unset, as it does for a shell's `VAR= cmd`.
        let cfg = Config::from_lookup(lookup(&[
            ("KAMPING_METRICS_INTERVAL_MS", " "),
            ("KAMPING_ALLTOALL", ""),
            ("KAMPING_CHAOS", ""),
        ]))
        .unwrap();
        assert_eq!(cfg.metrics_interval_ms, 1000);
        assert_eq!(cfg.alltoall, AlltoallAlgo::Auto);
        assert!(cfg.chaos.is_none());
    }

    #[test]
    fn launch_environment_is_parsed_from_the_same_lookup() {
        let cfg = Config::from_lookup(lookup(&[
            ("KAMPING_TRANSPORT", "socket"),
            ("KAMPING_RANK", "1"),
            ("KAMPING_RANKS", "2"),
            ("KAMPING_RENDEZVOUS", "unix:/tmp/rdv.sock"),
        ]))
        .unwrap();
        let socket = cfg.socket.expect("socket launch detected");
        assert_eq!((socket.rank, socket.ranks), (1, 2));
    }

    /// The README's environment table and the parsers agree on the set of
    /// variables: nothing is read that is undocumented, nothing documented
    /// that is not read (`KAMPING_BACKEND` belongs to the `kampirun` binary).
    #[test]
    fn readme_table_lists_exactly_the_variables_read() {
        fn variables(text: &str, open: &str, close: char) -> Vec<String> {
            let mut found: Vec<String> = text
                .split(open)
                .skip(1)
                .filter_map(|rest| rest.split_once(close))
                .map(|(name, _)| format!("KAMPING_{name}"))
                .filter(|v| v[8..].chars().all(|c| c.is_ascii_uppercase() || c == '_'))
                .collect();
            found.sort();
            found.dedup();
            found
        }
        let sources = [include_str!("config.rs"), include_str!("net/mod.rs")];
        let non_test: String = (sources.iter())
            .map(|src| src.split("#[cfg(test)]").next().expect("split yields one"))
            .collect();
        let read = variables(&non_test, "\"KAMPING_", '"');
        let readme = include_str!("../../../README.md");
        let table = (readme.split("### Environment reference").nth(1))
            .and_then(|rest| rest.split("\n### ").next())
            .expect("README has the environment reference section");
        let mut documented = Vec::new();
        for row in table.lines().filter(|l| l.starts_with("| `KAMPING_")) {
            let first_cell = row.split('|').nth(1).expect("row has cells");
            documented.extend(variables(first_cell, "`KAMPING_", '`'));
        }
        documented.retain(|v| v != "KAMPING_BACKEND");
        documented.sort();
        assert_eq!(read, documented);
    }
}
