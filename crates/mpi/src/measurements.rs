//! Distributed measurements: hierarchical timer trees and named counters
//! with cross-rank aggregation, mirroring `kamping::measurements`.
//!
//! A [`TimerTree`] is a per-rank structure: nested `start`/`stop` pairs
//! build a tree of named phases, each phase holding one or more
//! *measurement slots* (repeated `start`/`stop` of the same phase
//! accumulates into the current slot; [`TimerTree::append_seconds`] adds a
//! slot, so imported values stay distinguishable). Named counters ride on
//! the same tree. Nothing here touches the network until
//! [`TimerTree::aggregate`], which — using the library's *own* collectives
//! — verifies that every rank built the same tree shape and reduces each
//! slot across ranks to min/max/mean plus the full per-rank vector,
//! emitted as deterministic JSON ([`TreeAggregate::to_json`]) or a
//! pretty-printed tree ([`TreeAggregate::render`]).
//!
//! `op_tree` builds the same aggregate from the per-op cells of every
//! rank's stats block ([`crate::trace`]), giving per-op `calls` / `wait` /
//! `compute` splits across ranks without any manual instrumentation.
//!
//! Aggregation is collective: every rank of the communicator must call it,
//! in the same collective order, with an identically-shaped tree — a shape
//! mismatch is reported as [`MpiError::Config`] rather than a hang or a
//! garbled reduce.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::comm::RawComm;
use crate::error::{MpiError, MpiResult};
use crate::metrics::MetricsSnapshot;
use crate::profile::ALL_OPS;

/// Field / record separators for the schema exchange (control characters,
/// never valid in phase names).
const FIELD_SEP: char = '\u{1f}';
const NODE_SEP: char = '\u{1e}';
const SECTION_SEP: char = '\u{1d}';

/// Control characters are the separators of the aggregation wire format.
fn check_name(what: &str, name: &str) {
    assert!(
        !name.chars().any(|c| c.is_control()),
        "{what} names must not contain control characters"
    );
}

#[derive(Debug)]
struct Node {
    name: String,
    children: Vec<usize>,
    /// Accumulated seconds per measurement slot.
    values: Vec<f64>,
    /// Set while this phase is open (between `start` and `stop`).
    started: Option<Instant>,
}

impl Node {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            children: Vec::new(),
            values: Vec::new(),
            started: None,
        }
    }

    fn accumulate(&mut self, seconds: f64) {
        match self.values.last_mut() {
            Some(slot) => *slot += seconds,
            None => self.values.push(seconds),
        }
    }
}

/// Per-rank hierarchical timer tree with named counters.
///
/// ```
/// use kamping_mpi::{measurements::TimerTree, Universe};
///
/// let reports = Universe::run(2, |comm| {
///     let mut t = TimerTree::new();
///     t.start("phase_a");
///     // ... work ...
///     t.stop();
///     t.counter_put("items", 42.0);
///     t.aggregate(&comm).unwrap().to_json()
/// });
/// assert_eq!(reports[0], reports[1]);
/// ```
#[derive(Debug)]
pub struct TimerTree {
    nodes: Vec<Node>,
    /// Open phases; `stack[0]` is the implicit root.
    stack: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Default for TimerTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerTree {
    /// An empty tree (implicit unnamed root, nothing running).
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::new("root")],
            stack: vec![0],
            counters: BTreeMap::new(),
        }
    }

    fn child_named(&mut self, name: &str) -> usize {
        let top = *self.stack.last().expect("root never popped");
        if let Some(&c) = self.nodes[top]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let id = self.nodes.len();
        self.nodes.push(Node::new(name));
        self.nodes[top].children.push(id);
        id
    }

    /// Opens (or re-opens) the phase `name` nested under the currently
    /// open phase and starts its clock.
    ///
    /// # Panics
    /// If `name` contains ASCII control characters (reserved for the
    /// aggregation wire format) or the phase is already running.
    pub fn start(&mut self, name: &str) {
        check_name("phase", name);
        let id = self.child_named(name);
        assert!(
            self.nodes[id].started.is_none(),
            "phase {name:?} is already running"
        );
        self.nodes[id].started = Some(Instant::now());
        self.stack.push(id);
    }

    /// Stops the innermost open phase, *accumulating* the elapsed time
    /// into its current measurement slot.
    ///
    /// # Panics
    /// If no phase is open.
    pub fn stop(&mut self) {
        assert!(self.stack.len() > 1, "stop() without a running phase");
        let id = self.stack.pop().expect("checked non-root");
        let started = self.nodes[id].started.take().expect("phase was running");
        self.nodes[id].accumulate(started.elapsed().as_secs_f64());
    }

    /// Barrier on `comm`, then [`TimerTree::stop`] — so the recorded time
    /// includes waiting for the slowest rank and all ranks measure the
    /// same phase boundary (the `synchronized_stop` of
    /// `kamping::measurements`). Collective.
    pub fn synchronized_stop(&mut self, comm: &RawComm) -> MpiResult<()> {
        comm.barrier()?;
        self.stop();
        Ok(())
    }

    /// Records an explicit measurement (in seconds) as a new slot of the
    /// phase `name` under the currently open phase, without running a
    /// clock. Used to import externally-timed values and by deterministic
    /// tests.
    pub fn append_seconds(&mut self, name: &str, seconds: f64) {
        check_name("phase", name);
        let id = self.child_named(name);
        self.nodes[id].values.push(seconds);
    }

    /// Sets the named counter to `value`.
    pub fn counter_put(&mut self, name: &str, value: f64) {
        check_name("counter", name);
        self.counters.insert(name.to_string(), value);
    }

    /// Serialized tree *shape* (names, nesting, slot counts, counter
    /// keys) — identical across ranks iff aggregation is well-defined.
    fn schema(&self) -> String {
        let mut out = String::new();
        self.schema_dfs(0, 0, &mut out);
        out.push(SECTION_SEP);
        for (i, key) in self.counters.keys().enumerate() {
            if i > 0 {
                out.push(NODE_SEP);
            }
            out.push_str(key);
        }
        out
    }

    fn schema_dfs(&self, id: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[id];
        if id != 0 {
            out.push(NODE_SEP);
        }
        out.push_str(&depth.to_string());
        out.push(FIELD_SEP);
        out.push_str(&n.name);
        out.push(FIELD_SEP);
        out.push_str(&n.values.len().to_string());
        for &c in &n.children {
            self.schema_dfs(c, depth + 1, out);
        }
    }

    /// All slot values in DFS order, then counter values in key order —
    /// the fixed-size payload exchanged once shapes are verified equal.
    fn values_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.values_dfs(0, &mut out);
        out.extend(self.counters.values().copied());
        out
    }

    fn values_dfs(&self, id: usize, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.nodes[id].values);
        for &c in &self.nodes[id].children {
            self.values_dfs(c, out);
        }
    }

    /// Aggregates this tree across all ranks of `comm` (collective; every
    /// rank must call it with an identically-shaped tree — same phase
    /// names, nesting, slot counts and counter keys, in the same order).
    ///
    /// Still-running phases are not included (their slot was never
    /// accumulated); a shape mismatch returns [`MpiError::Config`] on
    /// every rank.
    pub fn aggregate(&self, comm: &RawComm) -> MpiResult<TreeAggregate> {
        let schema = self.schema().into_bytes();
        // Exchange schema lengths, then the schemas themselves, and insist
        // on bytewise equality before touching any values.
        let lens = comm.allgather(&(schema.len() as u64).to_le_bytes())?;
        let counts: Vec<usize> = lens
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
            .collect();
        let all_schemas = comm.allgatherv(&schema, &counts)?;
        let mut off = 0;
        for (r, &len) in counts.iter().enumerate() {
            if all_schemas[off..off + len] != schema[..] {
                return Err(MpiError::Config(format!(
                    "measurement tree shape mismatch: rank {} differs from rank {r}",
                    comm.rank()
                )));
            }
            off += len;
        }
        let mine = self.values_flat();
        let mut bytes = Vec::with_capacity(mine.len() * 8);
        for v in &mine {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let all = comm.allgather(&bytes)?;
        let per_rank: Vec<Vec<f64>> = all
            .chunks_exact(bytes.len().max(1))
            .map(|chunk| {
                chunk
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect()
            })
            .collect();
        // Degenerate case: empty tree, no values — allgather of zero bytes.
        let size = comm.size();
        let columns = |slot: usize| -> Aggregate {
            Aggregate::from_per_rank((0..size).map(|r| per_rank[r][slot]).collect())
        };
        let mut cursor = 0usize;
        let root = self.build_agg(0, &mut cursor, &columns);
        let counters = self
            .counters
            .keys()
            .map(|k| {
                let a = columns(cursor);
                cursor += 1;
                (k.clone(), a)
            })
            .collect();
        Ok(TreeAggregate { root, counters })
    }

    fn build_agg(
        &self,
        id: usize,
        cursor: &mut usize,
        columns: &dyn Fn(usize) -> Aggregate,
    ) -> AggNode {
        let n = &self.nodes[id];
        let measurements = (0..n.values.len())
            .map(|_| {
                let a = columns(*cursor);
                *cursor += 1;
                a
            })
            .collect();
        let children = n
            .children
            .iter()
            .map(|&c| self.build_agg(c, cursor, columns))
            .collect();
        AggNode {
            name: n.name.clone(),
            measurements,
            children,
        }
    }
}

/// One measurement slot reduced across ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Smallest value contributed by any rank.
    pub min: f64,
    /// Largest value contributed by any rank.
    pub max: f64,
    /// Arithmetic mean over ranks.
    pub mean: f64,
    /// Every rank's value, indexed by communicator rank.
    pub per_rank: Vec<f64>,
}

impl Aggregate {
    fn from_per_rank(per_rank: Vec<f64>) -> Self {
        let min = per_rank.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_rank.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = per_rank.iter().sum::<f64>() / per_rank.len().max(1) as f64;
        Self {
            min,
            max,
            mean,
            per_rank,
        }
    }

    fn to_json(&self) -> String {
        let per: Vec<String> = self.per_rank.iter().map(|v| fmt_f64(*v)).collect();
        format!(
            r#"{{"min":{},"max":{},"mean":{},"per_rank":[{}]}}"#,
            fmt_f64(self.min),
            fmt_f64(self.max),
            fmt_f64(self.mean),
            per.join(",")
        )
    }
}

/// `f64` as JSON: finite values via `Display` (shortest round-trip form,
/// deterministic), non-finite as `null`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One phase of the aggregated tree.
#[derive(Debug, Clone, PartialEq)]
pub struct AggNode {
    /// Phase name (`"root"` at the top).
    pub name: String,
    /// One [`Aggregate`] per measurement slot.
    pub measurements: Vec<Aggregate>,
    /// Nested phases, in first-`start` order.
    pub children: Vec<AggNode>,
}

impl AggNode {
    fn to_json(&self) -> String {
        let meas: Vec<String> = self.measurements.iter().map(Aggregate::to_json).collect();
        let kids: Vec<String> = self.children.iter().map(AggNode::to_json).collect();
        format!(
            r#"{{"name":{},"measurements":[{}],"children":[{}]}}"#,
            json_str(&self.name),
            meas.join(","),
            kids.join(",")
        )
    }

    fn render_into(&self, prefix: &str, last: bool, top: bool, out: &mut String) {
        let (branch, cont) = if top {
            ("", "")
        } else if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&self.name);
        if !self.measurements.is_empty() {
            let slots: Vec<String> = self
                .measurements
                .iter()
                .map(|a| format!("min {:.6} max {:.6} mean {:.6}", a.min, a.max, a.mean))
                .collect();
            out.push_str(": ");
            out.push_str(&slots.join(" | "));
        }
        out.push('\n');
        let child_prefix = format!("{prefix}{cont}");
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(&child_prefix, i + 1 == self.children.len(), false, out);
        }
    }
}

/// A [`TimerTree`] reduced across all ranks of a communicator.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeAggregate {
    /// The aggregated phase tree.
    pub root: AggNode,
    /// Aggregated named counters, in key order.
    pub counters: BTreeMap<String, Aggregate>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl TreeAggregate {
    /// Deterministic JSON document: identical on every rank (aggregation
    /// gave all ranks the same data) and across runs with the same values.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, a)| format!("{}:{}", json_str(k), a.to_json()))
            .collect();
        format!(
            r#"{{"root":{},"counters":{{{}}}}}"#,
            self.root.to_json(),
            counters.join(",")
        )
    }

    /// Human-readable tree with per-slot min/max/mean (seconds).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into("", true, true, &mut out);
        for (k, a) in &self.counters {
            out.push_str(&format!(
                "counter {k}: min {:.6} max {:.6} mean {:.6}\n",
                a.min, a.max, a.mean
            ));
        }
        out
    }
}

/// The per-op timing tree of a job, as a view of its ranks' stats blocks.
///
/// The tree has a `mpi_ops` root with one child per operation that was
/// called on *any* rank; each op node's measurement is its total seconds,
/// with `calls` / `wait` / `compute` children splitting the latency. The
/// call counts are always on; the times are zero unless measuring was
/// active (`KAMPING_MEASURE`, `KAMPING_TRACE` or `Universe::run_traced`).
pub(crate) fn op_tree(ranks: &[MetricsSnapshot]) -> TreeAggregate {
    let leaf = |name: &str, per_rank: Vec<f64>| AggNode {
        name: name.into(),
        measurements: vec![Aggregate::from_per_rank(per_rank)],
        children: vec![],
    };
    let children = (ALL_OPS.iter().enumerate())
        .filter(|(i, _)| ranks.iter().any(|r| r.op_calls[*i] != 0))
        .map(|(i, op)| {
            let secs = |ns: u64| ns as f64 / 1e9;
            let column = |f: &dyn Fn(&MetricsSnapshot) -> f64| ranks.iter().map(f).collect();
            AggNode {
                children: vec![
                    leaf("calls", column(&|r| r.op_calls[i] as f64)),
                    leaf("wait", column(&|r| secs(r.op_wait_ns[i]))),
                    leaf(
                        "compute",
                        column(&|r| secs(r.op_total_ns[i].saturating_sub(r.op_wait_ns[i]))),
                    ),
                ],
                ..leaf(op.name(), column(&|r| secs(r.op_total_ns[i])))
            }
        })
        .collect();
    TreeAggregate {
        root: AggNode {
            name: "mpi_ops".into(),
            measurements: vec![],
            children,
        },
        counters: BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_stop_accumulates_into_one_slot() {
        let mut t = TimerTree::new();
        t.start("a");
        t.stop();
        t.start("a");
        t.stop(); // same slot
        assert_eq!(t.nodes[1].values.len(), 1);
    }

    #[test]
    fn append_seconds_is_exact() {
        let mut t = TimerTree::new();
        t.append_seconds("x", 1.5);
        t.append_seconds("x", 2.5);
        assert_eq!(t.nodes[1].values, vec![1.5, 2.5]);
    }

    #[test]
    fn nesting_builds_distinct_paths() {
        let mut t = TimerTree::new();
        t.start("outer");
        t.start("inner");
        t.stop();
        t.stop();
        t.start("inner"); // top-level "inner" is a different node
        t.stop();
        let schema = t.schema();
        assert!(schema.contains("1\u{1f}outer"));
        assert!(schema.contains("2\u{1f}inner"));
        assert!(schema.contains("1\u{1f}inner"));
    }

    #[test]
    #[should_panic(expected = "without a running phase")]
    fn stop_without_start_panics() {
        TimerTree::new().stop();
    }

    #[test]
    #[should_panic(expected = "control characters")]
    fn control_chars_rejected() {
        TimerTree::new().start("bad\u{1e}name");
    }

    #[test]
    fn counters_are_sorted() {
        let mut t = TimerTree::new();
        t.counter_put("zeta", 1.0);
        t.counter_put("alpha", 2.0);
        t.counter_put("zeta", 3.0);
        t.counter_put("mid", 7.0);
        let keys: Vec<&str> = t.counters.keys().map(String::as_str).collect();
        assert_eq!(keys, ["alpha", "mid", "zeta"]);
        assert_eq!(t.counters["zeta"], 3.0);
    }

    #[test]
    fn aggregate_math() {
        let a = Aggregate::from_per_rank(vec![1.0, 3.0, 2.0]);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert!(a.min <= a.mean && a.mean <= a.max);
    }

    #[test]
    fn json_escapes_and_shape() {
        assert_eq!(json_str("a\"b\\c"), r#""a\"b\\c""#);
        let agg = TreeAggregate {
            root: AggNode {
                name: "root".into(),
                measurements: vec![Aggregate::from_per_rank(vec![0.5, 1.5])],
                children: vec![],
            },
            counters: BTreeMap::from([("n".to_string(), Aggregate::from_per_rank(vec![2.0, 2.0]))]),
        };
        let j = agg.to_json();
        assert!(j.starts_with(r#"{"root":{"name":"root""#));
        assert!(j.contains(r#""per_rank":[0.5,1.5]"#));
        assert!(j.contains(r#""counters":{"n":"#));
    }

    #[test]
    fn render_draws_tree() {
        let agg = TreeAggregate {
            root: AggNode {
                name: "root".into(),
                measurements: vec![],
                children: vec![
                    AggNode {
                        name: "a".into(),
                        measurements: vec![Aggregate::from_per_rank(vec![1.0])],
                        children: vec![],
                    },
                    AggNode {
                        name: "b".into(),
                        measurements: vec![],
                        children: vec![],
                    },
                ],
            },
            counters: BTreeMap::new(),
        };
        let r = agg.render();
        assert!(r.contains("├─ a"));
        assert!(r.contains("└─ b"));
    }
}
