//! Live views of the stats blocks: the frozen snapshot type, the periodic
//! snapshot protocol, and the crash-evidence flight recorder.
//!
//! Where the Perfetto export of [`crate::trace`] answers *what happened,
//! in order* and [`crate::profile`] counts calls, this module answers *how
//! is the universe doing right now*. It names the counters, high-water
//! gauges and log-bucketed (base-2, 1 µs – 16 s) latency histograms every
//! rank's [`crate::trace::StatsBlock`] carries, and defines the operations
//! on a frozen block ([`MetricsSnapshot`]: delta, merge, percentiles, the
//! one wire form). The probes that write those cells live in
//! [`crate::trace::TraceCtx`], behind its single gate.
//!
//! # Snapshot protocol
//!
//! Rank 0 periodically pulls every rank's block and emits one merged
//! JSONL record per interval (throughput, p50/p99 op latency, per-rank
//! blocked-wait ratios, straggler flags). In-process (shm) the poller
//! reads all blocks directly; across processes it rides the normal data
//! plane on a reserved collective-tag pair
//! (`crate::tag::METRICS_SEQ_BASE`), so no new wire machinery
//! is needed. Dead or unresponsive ranks are reported as `stale` for the
//! interval instead of stalling the poll — the property the chaos-kill
//! soak relies on.
//!
//! # Flight recorder
//!
//! With `KAMPING_CRASH_DIR` set, tracing + metrics are forced on and every
//! surviving rank that observes a failure (peer death, timeout, panic)
//! dumps its last trace events plus a final snapshot to
//! `crash-rank<R>.json` at teardown. `kampirun` folds those into one
//! post-mortem naming the first-failing rank and the ops in flight.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::MpiError;
use crate::profile::RankProfile;
use crate::tag::{coll_tag, Tag, METRICS_SEQ_BASE};
use crate::trace::{StatsBlock, TraceEvent};
use crate::transport::{Envelope, MatchKey, Payload};
use crate::universe::UniverseState;

/// Histogram buckets: bucket 0 is `< 1 µs`, bucket `i` (1 ≤ i ≤ 24) is
/// `[2^(i-1), 2^i) µs`, bucket 25 collects everything ≥ 2^24 µs (~16.8 s).
pub(crate) const N_BUCKETS: usize = 26;

/// Declares a `#[repr(usize)]` enum together with its variant count, its
/// discriminant-ordered variant list and its stable snake_case names, so a
/// new cell is added in exactly one place.
macro_rules! named_cells {
    ($(#[$meta:meta])* $ty:ident, $n:ident, $all:ident; $($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $ty {
            $($(#[$doc])* $variant,)*
        }

        /// Number of variants.
        pub(crate) const $n: usize = [$($name,)*].len();

        /// All variants in discriminant order (the wire and JSONL layout).
        pub(crate) const $all: [$ty; $n] = [$($ty::$variant,)*];

        impl $ty {
            /// Stable snake_case name (JSONL `totals` key).
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

named_cells! {
    /// Monotonic counters, one cell per variant per rank. The first two are
    /// always on; the rest count while metrics are enabled.
    Counter, N_COUNTERS, ALL_COUNTERS;
    /// Data-plane messages posted (always on — the LogGP message count).
    MsgsSent => "msgs_sent",
    /// Data-plane payload bytes posted (always on).
    BytesSent => "bytes_sent",
    /// Envelopes deposited into this rank's mailbox.
    MsgsDelivered => "msgs_delivered",
    /// Payload bytes deposited into this rank's mailbox.
    BytesDelivered => "bytes_delivered",
    /// Substrate operations started (also the latency-sampling base).
    OpsStarted => "ops_started",
    /// Nanoseconds blocked past the fast path of a mailbox or hub wait:
    /// re-attempting, yielding and asleep alike (sampled 1 wait in 8).
    BlockedNs => "blocked_ns",
    /// Bounded waits that gave up with [`MpiError::Timeout`].
    Timeouts => "timeouts",
    /// Chaos faults injected, by kind: envelopes delayed.
    FaultsDelayed => "faults_delayed",
    /// Envelopes discarded by a severed channel or a killed rank.
    FaultsSevered => "faults_severed",
    /// Rank deaths fired (counted on the victim).
    FaultsKilled => "faults_killed",
    /// Progress-engine wakeups (socket backend).
    EpollWakeups => "epoll_wakeups",
    /// Ready epoll events serviced.
    EpollEvents => "epoll_events",
    /// Data-plane frames moved by the progress engine.
    EpollFrames => "epoll_frames",
    /// `writev` batches flushed.
    WritevCalls => "writev_calls",
    /// Frames coalesced across all `writev` batches.
    WritevFrames => "writev_frames",
    /// Heartbeat pings sent.
    PingsSent => "pings_sent",
    /// shm-xproc futex sleeps (producer full-ring + consumer idle).
    RingFutexSleeps => "ring_futex_sleeps",
    /// Nanoseconds spent in those futex sleeps.
    RingFutexSleepNs => "ring_futex_sleep_ns",
    /// Nonblocking collectives issued.
    CollsIssued => "colls_issued",
    /// Nonblocking collectives retired (completed, failed, or abandoned).
    CollsCompleted => "colls_completed",
    /// Collective state-machine steps taken.
    CollSteps => "coll_steps",
    /// Allreduces dispatched to Rabenseifner reduce-scatter+allgather.
    StrategyRabenseifner => "strategy_raben",
    /// Bytes of non-inline point-to-point payloads moved by a user-space
    /// `memcpy` (send packing, wire, reassembly, bytes → `Vec<T>`); kernel
    /// copies are not seen. Divided by `bytes_sent`: copies per message.
    PayloadBytesCopied => "payload_bytes_copied",
    /// Payload-sized buffers allocated on the same path.
    PayloadAllocs => "payload_allocs",
    /// Bumps that found a sleeper, took the gate lock and notified the
    /// condvar: a mailbox's are charged to its owner, a hub's to the rank
    /// that notified.
    GateWakes => "gate_wakes",
    /// Times a blocking wait outlasted its patience and went to sleep on
    /// the gate's condvar.
    GateSleeps => "gate_sleeps",
}

named_cells! {
    /// Gauges. `CollsOutstanding` is a live level (summed across ranks when
    /// merging); the `*Max` gauges are high-water marks (max across ranks).
    Gauge, N_GAUGES, ALL_GAUGES;
    /// Nonblocking collectives currently in flight.
    CollsOutstanding => "colls_outstanding",
    /// Deepest progress-engine outbound queue observed.
    OutboundQueueMax => "outbound_queue_max",
    /// Highest shm-xproc ring occupancy (bytes) observed.
    RingOccupancyMax => "ring_occupancy_max",
}

impl Gauge {
    /// True for high-water gauges (merged with `max`, not `+`).
    fn is_high_water(self) -> bool {
        !matches!(self, Gauge::CollsOutstanding)
    }
}

/// Latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub(crate) enum Hist {
    /// Substrate op latency (sampled 1-in-64 unless measuring is on).
    OpLatency,
    /// Heartbeat ping → pong round trips (socket backend).
    HeartbeatRtt,
    /// Nonblocking-collective state-machine step latency.
    CollStep,
}

/// Number of [`Hist`] variants.
pub(crate) const N_HISTS: usize = 3;

/// Bucket index for a duration in nanoseconds (see [`N_BUCKETS`]).
#[inline]
pub(crate) fn bucket_of(ns: u64) -> usize {
    let us = ns / 1000;
    if us == 0 {
        0
    } else {
        (64 - us.leading_zeros() as usize).min(N_BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` in microseconds (used for percentile
/// reporting; the overflow bucket reports `2^25`).
pub(crate) fn bucket_bound_us(i: usize) -> u64 {
    1u64 << i.min(25)
}

// ---------------------------------------------------------------------------
// Snapshots: delta / merge / wire
// ---------------------------------------------------------------------------

/// Frozen copy of one rank's stats block (or a delta, or a cross-rank
/// merge — the same shape serves all three), taken with
/// `crate::trace::RankStats::snapshot`.
pub type MetricsSnapshot = StatsBlock<u64>;

/// Wire size of one snapshot: every cell as a little-endian `u64`.
pub(crate) const METRICS_WIRE_BYTES: usize =
    (3 * crate::profile::N_OPS + N_COUNTERS + N_GAUGES + N_HISTS * N_BUCKETS) * 8;

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The §III-H / LogGP columns of this block.
    pub(crate) fn profile(&self) -> RankProfile {
        RankProfile::of(self, |v| *v)
    }

    /// What happened since `earlier`: every cell subtracts, except gauges,
    /// which keep the latest value (levels and high-waters are
    /// instantaneous, not cumulative).
    pub(crate) fn delta(&self, earlier: &Self) -> Self {
        let mut d = self.clone();
        for (v, e) in d.words_mut().zip(earlier.words()) {
            *v = v.saturating_sub(*e);
        }
        d.gauges = self.gauges;
        d
    }

    /// Folds `other` (another rank) into `self`: every cell adds, except
    /// high-water gauges, which take the max.
    pub(crate) fn merge(&mut self, other: &Self) {
        let mine = self.gauges;
        for (v, o) in self.words_mut().zip(other.words()) {
            *v = v.saturating_add(*o);
        }
        for g in ALL_GAUGES.into_iter().filter(|g| g.is_high_water()) {
            self.gauges[g as usize] = mine[g as usize].max(other.gauges[g as usize]);
        }
    }

    /// Fixed little-endian `u64` blob ([`METRICS_WIRE_BYTES`] long) — the
    /// one wire form of per-rank numbers, used by the live plane and the
    /// teardown gather alike.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        self.words().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Parses a [`MetricsSnapshot::to_bytes`] blob; `None` on any size
    /// mismatch (version skew across processes).
    pub(crate) fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != METRICS_WIRE_BYTES {
            return None;
        }
        let mut s = Self::default();
        for (v, word) in s.words_mut().zip(bytes.chunks_exact(8)) {
            *v = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        }
        Some(s)
    }

    /// The `q`-quantile (0 < q ≤ 1) of a histogram, reported as the upper
    /// bucket bound in microseconds; 0 when the histogram is empty.
    pub(crate) fn percentile_us(&self, h: Hist, q: f64) -> u64 {
        hist_percentile_us(&self.hists[h as usize], q)
    }

    /// The `"totals"` object of the JSONL record and the crash report:
    /// every counter, then every gauge, by name.
    fn totals_json(&self) -> String {
        let counters = ALL_COUNTERS.iter().zip(&self.counters);
        let gauges = ALL_GAUGES.iter().zip(&self.gauges);
        let cells: Vec<String> = counters
            .map(|(c, v)| format!("\"{}\":{v}", c.name()))
            .chain(gauges.map(|(g, v)| format!("\"{}\":{v}", g.name())))
            .collect();
        format!("{{{}}}", cells.join(","))
    }
}

/// `q`-quantile of one bucket array, as the upper bucket bound in µs.
pub(crate) fn hist_percentile_us(buckets: &[u64; N_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return bucket_bound_us(i);
        }
    }
    bucket_bound_us(N_BUCKETS - 1)
}

// ---------------------------------------------------------------------------
// Interval records (JSONL)
// ---------------------------------------------------------------------------

/// Top-level JSONL field order — fixed, and asserted identical across
/// backends by the telemetry tests.
pub const JSONL_FIELDS: [&str; 13] = [
    "seq",
    "t_unix_ms",
    "interval_ms",
    "ranks",
    "stale",
    "msgs_per_s",
    "bytes_per_s",
    "op_p50_us",
    "op_p99_us",
    "blocked_ratio",
    "blocked_median",
    "stragglers",
    "totals",
];

/// Inputs for one merged interval record.
pub(crate) struct IntervalRecord<'a> {
    /// Poll sequence number (1-based).
    pub(crate) seq: u64,
    /// Wall clock at emission, unix milliseconds.
    pub(crate) t_unix_ms: u64,
    /// Actual elapsed interval, milliseconds (≥ 1).
    pub(crate) interval_ms: u64,
    /// Universe size.
    pub(crate) ranks: usize,
    /// Ranks that did not report this interval (dead or unresponsive).
    pub(crate) stale: &'a [usize],
    /// Cross-rank merge of the per-rank deltas.
    pub(crate) merged: &'a MetricsSnapshot,
    /// Per-rank blocked-wait ratio for the interval (0..=1, one per rank).
    pub(crate) blocked: &'a [f64],
}

/// Straggler threshold: a rank is flagged when its blocked-wait ratio
/// exceeds this multiple of the interval's median.
const STRAGGLER_FACTOR: f64 = 2.0;

/// Median of `vals` (already assumed small); 0 for empty input.
fn median(vals: &mut [f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(|a, b| a.total_cmp(b));
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        (vals[n / 2 - 1] + vals[n / 2]) / 2.0
    }
}

/// Stragglers for the record: non-stale ranks whose blocked ratio exceeds
/// [`STRAGGLER_FACTOR`] × the non-stale median (and a 1% floor, so an
/// all-idle interval flags nobody). Returns (median, stragglers).
pub(crate) fn stragglers(blocked: &[f64], stale: &[usize]) -> (f64, Vec<usize>) {
    let mut live: Vec<f64> = blocked
        .iter()
        .enumerate()
        .filter(|(r, _)| !stale.contains(r))
        .map(|(_, &v)| v)
        .collect();
    let med = median(&mut live);
    let threshold = (med * STRAGGLER_FACTOR).max(0.01);
    let out = blocked
        .iter()
        .enumerate()
        .filter(|(r, &v)| !stale.contains(r) && v > threshold)
        .map(|(r, _)| r)
        .collect();
    (med, out)
}

fn json_usize_array(vals: &[usize]) -> String {
    let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Renders one merged interval as a single JSON line (no trailing
/// newline), with the exact field order of [`JSONL_FIELDS`] — hand-built
/// so the order is deterministic on every backend.
pub(crate) fn format_interval_record(r: &IntervalRecord<'_>) -> String {
    let interval_ms = r.interval_ms.max(1);
    let msgs_per_s = r.merged.counter(Counter::MsgsSent) * 1000 / interval_ms;
    let bytes_per_s = r.merged.counter(Counter::BytesSent) * 1000 / interval_ms;
    let p50 = r.merged.percentile_us(Hist::OpLatency, 0.50);
    let p99 = r.merged.percentile_us(Hist::OpLatency, 0.99);
    let (blocked_median, straggler_ranks) = stragglers(r.blocked, r.stale);
    let blocked: Vec<String> = r.blocked.iter().map(|v| format!("{v:.4}")).collect();
    format!(
        "{{\"seq\":{},\"t_unix_ms\":{},\"interval_ms\":{},\"ranks\":{},\"stale\":{},\
         \"msgs_per_s\":{},\"bytes_per_s\":{},\"op_p50_us\":{},\"op_p99_us\":{},\
         \"blocked_ratio\":[{}],\"blocked_median\":{:.4},\"stragglers\":{},\"totals\":{}}}",
        r.seq,
        r.t_unix_ms,
        interval_ms,
        r.ranks,
        json_usize_array(r.stale),
        msgs_per_s,
        bytes_per_s,
        p50,
        p99,
        blocked.join(","),
        blocked_median,
        json_usize_array(&straggler_ranks),
        r.merged.totals_json(),
    )
}

/// One human dashboard line for `--metrics-tty`, derived from the scalar
/// fields of a JSONL record line (field-scraped, no JSON parser).
pub fn tty_line(record: &str) -> Option<String> {
    let seq = scrape_u64(record, "seq")?;
    let msgs = scrape_u64(record, "msgs_per_s")?;
    let bytes = scrape_u64(record, "bytes_per_s")?;
    let p50 = scrape_u64(record, "op_p50_us")?;
    let p99 = scrape_u64(record, "op_p99_us")?;
    let med = scrape_f64(record, "blocked_median")?;
    let stale = scrape_array(record, "stale")?;
    let strag = scrape_array(record, "stragglers")?;
    let mut line = format!(
        "[metrics #{seq}] {msgs} msg/s  {:.1} KiB/s  p50 {p50}us  p99 {p99}us  blocked {:.0}%",
        bytes as f64 / 1024.0,
        med * 100.0,
    );
    if !strag.is_empty() {
        line.push_str(&format!("  STRAGGLERS {strag:?}"));
    }
    if !stale.is_empty() {
        line.push_str(&format!("  stale {stale:?}"));
    }
    Some(line)
}

/// Parses the number after `"key":` in a JSON line.
fn scrape_num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the integer after `"key":` in a JSON line.
pub fn scrape_u64(line: &str, key: &str) -> Option<u64> {
    scrape_num(line, key)
}

/// Extracts the float after `"key":` in a JSON line.
pub(crate) fn scrape_f64(line: &str, key: &str) -> Option<f64> {
    scrape_num(line, key)
}

/// Extracts the `[..]` integer array after `"key":` in a JSON line.
pub fn scrape_array(line: &str, key: &str) -> Option<Vec<usize>> {
    let pat = format!("\"{key}\":[");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|s| s.trim().parse().ok()).collect()
}

// ---------------------------------------------------------------------------
// Snapshot plane: the poller / responder threads
// ---------------------------------------------------------------------------

/// Reserved collective-tag pair of the pull protocol.
const REQUEST_TAG: Tag = coll_tag(METRICS_SEQ_BASE);
const REPLY_TAG: Tag = coll_tag(METRICS_SEQ_BASE + 1);

/// Handle to this process's background snapshot thread;
/// [`MetricsPlane::stop`] joins it (call before transport teardown).
pub(crate) struct MetricsPlane {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl MetricsPlane {
    /// Signals the thread and joins it. The poller emits one final
    /// partial interval on the way out, so even runs shorter than the
    /// interval produce a record.
    pub(crate) fn stop(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.handle.join();
    }

    /// Starts this process's part of the plane; `None` when metrics are
    /// off or the poller has no output path. `me` is the one rank a
    /// multi-process backend hosts here: rank 0 runs the poller (requests
    /// every live peer's snapshot each interval over the reserved tag
    /// pair), every other rank a responder. On shm (`me: None`) every
    /// block is in this address space, so the poll is a direct read.
    pub(crate) fn start(state: &Arc<UniverseState>, me: Option<usize>) -> Option<Self> {
        fn spawn(
            name: &str,
            body: impl FnOnce() + Send + 'static,
        ) -> Option<std::thread::JoinHandle<()>> {
            std::thread::Builder::new()
                .name(name.into())
                .spawn(body)
                .ok()
        }
        if !state.config.metrics {
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, st) = (Arc::clone(&stop), Arc::clone(state));
        let handle = match me {
            Some(me) if me != 0 => spawn("kamping-metrics-resp", move || responder(&st, &flag, me)),
            _ => {
                let out = state.config.metrics_out.clone()?;
                spawn("kamping-metrics", move || {
                    poller(&st, &flag, &out, me.is_some())
                })
            }
        }?;
        Some(Self { stop, handle })
    }
}

/// Sleeps `interval` in short slices; returns true when `stop` was raised.
fn sleep_until(stop: &AtomicBool, interval: Duration) -> bool {
    let deadline = Instant::now() + interval;
    while Instant::now() < deadline {
        if stop.load(Ordering::Acquire) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10).min(interval));
    }
    stop.load(Ordering::Acquire)
}

/// The poll loop: every interval, refresh the per-rank totals — read
/// directly, or pulled from the other processes when `remote` — and append
/// one merged record of what happened since the previous one to `out`.
fn poller(state: &Arc<UniverseState>, stop: &AtomicBool, out: &Path, remote: bool) {
    let size = state.size;
    let interval = Duration::from_millis(state.config.metrics_interval_ms);
    // Last known totals per rank, and the totals the previous record was
    // cut at. Stale ranks keep both, so a later successful pull attributes
    // the missed interval's work instead of losing it.
    let mut totals = vec![MetricsSnapshot::default(); size];
    let mut prev = totals.clone();
    let mut last_emit = Instant::now();
    for seq in 1u64.. {
        let stopped = sleep_until(stop, interval);
        let stale: Vec<usize> = if remote {
            totals[0] = state.trace.rank(0).snapshot();
            pull_remote(state, seq, interval, &mut totals)
        } else {
            for (r, total) in totals.iter_mut().enumerate() {
                *total = state.trace.rank(r).snapshot();
            }
            (0..size).filter(|&r| state.is_gone(r)).collect()
        };
        let interval_ms = (last_emit.elapsed().as_millis() as u64).max(1);
        last_emit = Instant::now();
        let mut merged = MetricsSnapshot::default();
        let mut blocked = vec![0.0; size];
        for r in (0..size).filter(|r| !stale.contains(r)) {
            let d = totals[r].delta(&prev[r]);
            let blocked_ns = d.counter(Counter::BlockedNs) as f64;
            blocked[r] = (blocked_ns / (interval_ms as f64 * 1e6)).clamp(0.0, 1.0);
            merged.merge(&d);
            prev[r] = totals[r].clone();
        }
        let line = format_interval_record(&IntervalRecord {
            seq,
            t_unix_ms: (std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH))
                .map_or(0, |d| d.as_millis() as u64),
            interval_ms,
            ranks: size,
            stale: &stale,
            merged: &merged,
            blocked: &blocked,
        });
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out);
        let _ = file.and_then(|mut f| f.write_all(format!("{line}\n").as_bytes()));
        if stopped {
            return;
        }
    }
}

/// One round of rank 0's cross-process pull: request every live peer's
/// snapshot, collect the replies into `totals`, and return the ranks that
/// did not answer within the reply budget — the poll never hangs on a
/// dead rank.
fn pull_remote(
    state: &UniverseState,
    seq: u64,
    interval: Duration,
    totals: &mut [MetricsSnapshot],
) -> Vec<usize> {
    // Membership, not slot range: on an elastic universe `size` is the
    // capacity, and never-admitted slots must not be polled (or they
    // would eat the reply budget every interval).
    let members = state.current_members();
    let (live, mut stale): (Vec<usize>, Vec<usize>) = members
        .iter()
        .filter(|&&r| r != 0)
        .partition(|&&r| !state.is_gone(r));
    for &r in &live {
        state.transport.post(
            r,
            Envelope {
                src: 0,
                tag: REQUEST_TAG,
                ctx: 0,
                payload: Payload::from_slice(&seq.to_le_bytes()),
                ack: None,
            },
        );
    }
    // Reply budget: most of the interval, but never unbounded — a rank
    // that died between the liveness check and the reply is simply stale
    // this round.
    let budget = (interval / 2).clamp(Duration::from_millis(50), Duration::from_millis(500));
    let deadline = Instant::now() + budget;
    let no_interrupt = || None;
    for &r in &live {
        let key = MatchKey {
            src: r,
            tag: REPLY_TAG,
            ctx: 0,
        };
        loop {
            let reply = state
                .mailbox(0)
                .take_blocking_deadline(key, &no_interrupt, Some(deadline));
            let Ok(d) = reply else {
                stale.push(r);
                break;
            };
            let bytes = d.payload.as_slice();
            // Shorter than a seq, or a late answer to an earlier poll:
            // drain it and keep waiting for the current one.
            if bytes.len() < 8 || u64::from_le_bytes(bytes[..8].try_into().expect("8")) < seq {
                continue;
            }
            match MetricsSnapshot::from_bytes(&bytes[8..]) {
                Some(s) => totals[r] = s,
                None => stale.push(r),
            }
            break;
        }
    }
    stale.sort_unstable();
    stale
}

/// A non-zero rank's reply loop: answer each snapshot request with the
/// current registry blob, checking the stop flag between bounded waits.
fn responder(state: &Arc<UniverseState>, stop: &AtomicBool, me: usize) {
    let key = MatchKey {
        src: 0,
        tag: REQUEST_TAG,
        ctx: 0,
    };
    let no_interrupt = || None;
    while !stop.load(Ordering::Acquire) {
        let deadline = Instant::now() + Duration::from_millis(100);
        match state
            .mailbox(me)
            .take_blocking_deadline(key, &no_interrupt, Some(deadline))
        {
            Ok(d) => {
                let bytes = d.payload.as_slice();
                if bytes.len() < 8 {
                    continue;
                }
                let mut payload = bytes[..8].to_vec();
                payload.extend(state.trace.rank(me).snapshot().to_bytes());
                state.transport.post(
                    0,
                    Envelope {
                        src: me,
                        tag: REPLY_TAG,
                        ctx: 0,
                        payload: Payload::from_vec(payload),
                        ack: None,
                    },
                );
            }
            Err(MpiError::Timeout { .. }) => continue,
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Everything one rank knows at crash time.
pub(crate) struct CrashInfo<'a> {
    /// This (surviving) global rank.
    pub(crate) rank: usize,
    /// True when the rank's own closure panicked.
    pub(crate) panicked: bool,
    /// Global ranks marked failed, sorted.
    pub(crate) failed: &'a [usize],
    /// The first failure this process observed, if any.
    pub(crate) first_failed: Option<usize>,
    /// Ops open at dump time: `(global rank, op name, since_ns)`.
    pub(crate) ops_in_flight: &'a [(usize, &'static str, u64)],
    /// Trace events lost to ring overflow.
    pub(crate) dropped_events: u64,
    /// Final totals of this rank's block.
    pub(crate) totals: MetricsSnapshot,
    /// Last trace events, already rendered as Chrome JSON objects.
    pub(crate) events: &'a [String],
}

/// Writes `crash-rank<R>.json`. Scalar fields come first so the
/// post-mortem collector can field-scrape the prefix without parsing the
/// (arbitrary) event bodies.
pub(crate) fn write_crash_report(dir: &Path, info: &CrashInfo<'_>) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let ops: Vec<String> = (info.ops_in_flight.iter())
        .map(|(rank, op, since)| {
            format!("{{\"rank\":{rank},\"op\":\"{op}\",\"since_ns\":{since}}}")
        })
        .collect();
    let doc = format!(
        "{{\"rank\":{},\"panicked\":{},\"failed\":{},\"first_failed\":{},\"timeouts\":{},\
         \"dropped_events\":{},\"ops_in_flight\":[{}],\"totals\":{},\"events\":[\n{}\n]}}\n",
        info.rank,
        info.panicked,
        json_usize_array(info.failed),
        info.first_failed
            .map_or("null".to_string(), |r| r.to_string()),
        info.totals.counter(Counter::Timeouts),
        info.dropped_events,
        ops.join(","),
        info.totals.totals_json(),
        info.events.join(",\n"),
    );
    let path = dir.join(format!("crash-rank{}.json", info.rank));
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// Writes one crash report per rank in `report_ranks` (ranks this process
/// hosts) from the already-drained `events`. In-flight ops are gathered
/// from every block visible in this process — on the shm backend that
/// includes the frozen blocks of dead ranks, which is usually where the
/// interesting op sits.
pub(crate) fn dump_crash_reports(
    state: &UniverseState,
    dir: &Path,
    panicked: &[usize],
    failed: &[usize],
    events: &[TraceEvent],
    report_ranks: &[usize],
) {
    /// How many trailing trace events each crash report keeps.
    const CRASH_EVENT_TAIL: usize = 256;
    let trace = &state.trace;
    let tail = &events[events.len().saturating_sub(CRASH_EVENT_TAIL)..];
    let tail = crate::trace::render_events(tail, trace.epoch_unix_ns());
    let ops_in_flight: Vec<(usize, &'static str, u64)> = (0..trace.size())
        .filter_map(|r| {
            let (op, since) = trace.rank(r).in_flight()?;
            Some((r, op.name(), since))
        })
        .collect();
    for &r in report_ranks {
        let info = CrashInfo {
            rank: r,
            panicked: panicked.contains(&r),
            failed,
            first_failed: state.first_failed.get().copied(),
            ops_in_flight: &ops_in_flight,
            dropped_events: trace.dropped_events(),
            totals: trace.rank(r).snapshot(),
            events: &tail,
        };
        if let Err(e) = write_crash_report(dir, &info) {
            eprintln!("kamping: failed to write crash report for rank {r}: {e}");
        }
    }
}

/// Folds every `crash-rank*.json` in `dir` into one post-mortem document:
/// the first-failing rank (consensus across reports), the union of failed
/// and panicked ranks, and all ops in flight. Returns `None` when no
/// crash reports exist.
pub fn collect_crash_reports(dir: &Path) -> io::Result<Option<String>> {
    let mut reports: Vec<(usize, String)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(rank) = name
            .strip_prefix("crash-rank")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        reports.push((rank, std::fs::read_to_string(&path)?));
    }
    if reports.is_empty() {
        return Ok(None);
    }
    reports.sort_by_key(|(r, _)| *r);
    let mut failed: Vec<usize> = Vec::new();
    let mut panicked: Vec<usize> = Vec::new();
    let mut first_votes: Vec<usize> = Vec::new();
    let mut ops: Vec<String> = Vec::new();
    let mut timeouts = 0u64;
    for (rank, body) in &reports {
        // Scalar fields precede the event bodies; scrape only the prefix.
        let head = &body[..body.find("\"events\"").unwrap_or(body.len())];
        if let Some(f) = scrape_array(head, "failed") {
            failed.extend(f);
        }
        if head.contains("\"panicked\":true") {
            panicked.push(*rank);
        }
        if let Some(v) = scrape_u64(head, "first_failed") {
            first_votes.push(v as usize);
        }
        timeouts += scrape_u64(head, "timeouts").unwrap_or(0);
        if let Some(at) = head.find("\"ops_in_flight\":[") {
            let rest = &head[at + "\"ops_in_flight\":[".len()..];
            if let Some(end) = rest.find(']') {
                let body = rest[..end].trim();
                if !body.is_empty() {
                    ops.push(body.to_string());
                }
            }
        }
    }
    failed.sort_unstable();
    failed.dedup();
    // Consensus first-failing rank: the most frequent vote, smallest on a
    // tie; fall back to the smallest failed rank when nobody voted.
    let votes = |v: usize| first_votes.iter().filter(|&&x| x == v).count();
    let first_failed = (first_votes.iter().copied())
        .max_by_key(|&v| (votes(v), std::cmp::Reverse(v)))
        .or_else(|| failed.first().copied());
    let reporters: Vec<usize> = reports.iter().map(|(r, _)| *r).collect();
    let doc = format!(
        "{{\"reports\":{},\"reporters\":{},\"first_failed\":{},\"failed\":{},\
         \"panicked\":{},\"timeouts\":{},\"ops_in_flight\":[{}]}}",
        reports.len(),
        json_usize_array(&reporters),
        first_failed.map_or("null".to_string(), |r| r.to_string()),
        json_usize_array(&failed),
        json_usize_array(&panicked),
        timeouts,
        ops.join(","),
    );
    Ok(Some(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceCtx, METRICS};

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(999), 0); // < 1 µs
        assert_eq!(bucket_of(1_000), 1); // [1, 2) µs
        assert_eq!(bucket_of(1_999), 1);
        assert_eq!(bucket_of(2_000), 2); // [2, 4) µs
        assert_eq!(bucket_of(16_000_000_000), 24); // 16 s: last finite bucket
        assert_eq!(bucket_of(17_000_000_000), 25); // > 2^24 µs -> overflow
        assert_eq!(bucket_of(u64::MAX), 25);
    }

    #[test]
    fn bucket_of_one_ms() {
        // 1 ms = 1000 µs, 2^9 = 512 ≤ 1000 < 1024 = 2^10 → bucket 10.
        assert_eq!(bucket_of(1_000_000), 10);
    }

    #[test]
    fn percentiles_walk_buckets() {
        let mut b = [0u64; N_BUCKETS];
        b[1] = 50; // [1,2) µs
        b[5] = 49; // [16,32) µs
        b[10] = 1; // [512,1024) µs
        assert_eq!(hist_percentile_us(&b, 0.50), 2);
        assert_eq!(hist_percentile_us(&b, 0.99), 32);
        assert_eq!(hist_percentile_us(&b, 1.0), 1024);
        assert_eq!(hist_percentile_us(&[0; N_BUCKETS], 0.5), 0);
    }

    #[test]
    fn histogram_merge_equals_concatenated_samples() {
        // Satellite invariant: merging per-rank bucket arrays must equal
        // bucketing the concatenation of the raw samples.
        let rank_a = [1_100u64, 3_000, 900, 64_000, 1_000_000];
        let rank_b = [2_500u64, 2_500, 17_000, 5_000_000_000];
        let bucketize = |samples: &[u64]| {
            let mut b = [0u64; N_BUCKETS];
            for &s in samples {
                b[bucket_of(s)] += 1;
            }
            b
        };
        let mut merged = MetricsSnapshot::default();
        let mut a = MetricsSnapshot::default();
        a.hists[Hist::OpLatency as usize] = bucketize(&rank_a);
        let mut b = MetricsSnapshot::default();
        b.hists[Hist::OpLatency as usize] = bucketize(&rank_b);
        merged.merge(&a);
        merged.merge(&b);
        let concat: Vec<u64> = rank_a.iter().chain(rank_b.iter()).copied().collect();
        assert_eq!(merged.hists[Hist::OpLatency as usize], bucketize(&concat));
    }

    #[test]
    fn snapshot_wire_round_trip() {
        let ctx = TraceCtx::new(1, METRICS);
        ctx.count(0, Counter::MsgsDelivered, 7);
        ctx.count(0, Counter::BlockedNs, 12345);
        ctx.gauge_max(0, Gauge::OutboundQueueMax, 42);
        ctx.observe(0, Hist::OpLatency, 3_000);
        ctx.observe(0, Hist::HeartbeatRtt, 900_000);
        for bytes in [100, 122] {
            let msg = MatchKey {
                src: 0,
                tag: 0,
                ctx: 0,
            };
            ctx.posted(0, msg, bytes);
        }
        drop(ctx.op(crate::Op::Bcast, 0));
        let snap = ctx.rank(0).snapshot();
        assert_eq!(snap.counter(Counter::MsgsSent), 2);
        assert_eq!(snap.counter(Counter::BytesSent), 222);
        assert_eq!(snap.profile().calls(crate::Op::Bcast), 1);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), METRICS_WIRE_BYTES);
        assert_eq!(MetricsSnapshot::from_bytes(&bytes), Some(snap));
        assert_eq!(MetricsSnapshot::from_bytes(&bytes[1..]), None);
    }

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let ctx = TraceCtx::new(1, METRICS);
        ctx.count(0, Counter::MsgsDelivered, 10);
        ctx.gauge_max(0, Gauge::RingOccupancyMax, 100);
        let first = ctx.rank(0).snapshot();
        ctx.count(0, Counter::MsgsDelivered, 5);
        ctx.gauge_max(0, Gauge::RingOccupancyMax, 50); // high-water stays 100
        let second = ctx.rank(0).snapshot();
        let d = second.delta(&first);
        assert_eq!(d.counter(Counter::MsgsDelivered), 5);
        assert_eq!(d.gauges[Gauge::RingOccupancyMax as usize], 100);
    }

    #[test]
    fn merge_gauge_semantics() {
        let mut a = MetricsSnapshot::default();
        a.gauges[Gauge::CollsOutstanding as usize] = 2;
        a.gauges[Gauge::OutboundQueueMax as usize] = 10;
        let mut b = MetricsSnapshot::default();
        b.gauges[Gauge::CollsOutstanding as usize] = 3;
        b.gauges[Gauge::OutboundQueueMax as usize] = 7;
        a.merge(&b);
        assert_eq!(a.gauges[Gauge::CollsOutstanding as usize], 5, "levels add");
        assert_eq!(
            a.gauges[Gauge::OutboundQueueMax as usize],
            10,
            "high-waters take max"
        );
    }

    #[test]
    fn record_field_order_is_fixed() {
        let merged = MetricsSnapshot::default();
        let rec = IntervalRecord {
            seq: 3,
            t_unix_ms: 1000,
            interval_ms: 250,
            ranks: 2,
            stale: &[1],
            merged: &merged,
            blocked: &[0.25, 0.0],
        };
        let line = format_interval_record(&rec);
        let mut last = 0;
        for key in JSONL_FIELDS {
            let at = line
                .find(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("missing field {key}"));
            assert!(at > last || last == 0, "field {key} out of order");
            last = at;
        }
        assert_eq!(scrape_array(&line, "stale"), Some(vec![1]));
        assert_eq!(scrape_u64(&line, "seq"), Some(3));
    }

    #[test]
    fn stragglers_flag_outliers_only() {
        // Ranks 0..3 mildly blocked, rank 3 way over 2x median.
        let blocked = [0.10, 0.12, 0.11, 0.60];
        let (med, s) = stragglers(&blocked, &[]);
        assert!((med - 0.115).abs() < 1e-9);
        assert_eq!(s, vec![3]);
        // Stale ranks are excluded from both median and flags.
        let (_, s) = stragglers(&blocked, &[3]);
        assert!(s.is_empty());
        // All idle: the 1% floor keeps noise from flagging anyone.
        let (_, s) = stragglers(&[0.0, 0.001, 0.0], &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn tty_line_scrapes_record() {
        let merged = MetricsSnapshot::default();
        let rec = IntervalRecord {
            seq: 1,
            t_unix_ms: 0,
            interval_ms: 1000,
            ranks: 2,
            stale: &[],
            merged: &merged,
            blocked: &[0.0, 0.0],
        };
        let line = format_interval_record(&rec);
        let tty = tty_line(&line).expect("scrapes");
        assert!(tty.contains("#1"), "{tty}");
        assert!(!tty.contains("STRAGGLERS"));
    }

    #[test]
    fn crash_report_round_trip() {
        let dir = std::env::temp_dir().join(format!("kamping-crash-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut totals = MetricsSnapshot::default();
        totals.counters[Counter::Timeouts as usize] = 2;
        let info = CrashInfo {
            rank: 1,
            panicked: false,
            failed: &[3],
            first_failed: Some(3),
            ops_in_flight: &[(1, "recv", 500)],
            dropped_events: 0,
            totals,
            events: &["{\"ts\":1.000,\"name\":\"x\"}".into()],
        };
        write_crash_report(&dir, &info).unwrap();
        let post = collect_crash_reports(&dir).unwrap().expect("has reports");
        assert!(post.contains("\"first_failed\":3"), "{post}");
        assert!(post.contains("\"failed\":[3]"), "{post}");
        assert!(post.contains("\"timeouts\":2"), "{post}");
        assert!(post.contains("\"op\":\"recv\""), "{post}");
        assert!(collect_crash_reports(&dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
