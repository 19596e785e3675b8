//! The instrumentation core: one per-rank stats block, one gate word, one
//! probe per seam.
//!
//! The paper verifies its zero-overhead claim through *one* profiling
//! interface (PMPI, §III-H); this module is that interface for the
//! substrate. Every seam — an operation starts, an envelope is posted /
//! delivered / taken, a thread parks — calls exactly one probe on the
//! per-universe [`TraceCtx`], which updates the calling rank's
//! [`StatsBlock`] (per-op `calls / total_ns / wait_ns`, counters, gauges,
//! histograms, the in-flight breadcrumb) and, when events are on, the
//! bounded event ring. Everything else is a *view* that reads the block
//! or the ring: [`crate::profile`] (call counts, LogGP messages/bytes),
//! the `mpi_ops` wait/compute tree of [`crate::measurements`], the live
//! JSONL stream and the crash report of [`crate::metrics`], and the
//! Perfetto export below.
//!
//! # One gate
//!
//! The exact counts (`calls`, messages and bytes sent) are always on and
//! need no gate. Everything else hangs off one flags word
//! (`TraceCtx::flags`, bits `MEASURE` | `METRICS` | `EVENTS`):
//! with all bits clear (the default) every probe is the always-on
//! `fetch_add`s plus one relaxed load and a branch — no clock is read, no
//! allocation happens, no lock is taken; under the `no-trace` feature the
//! word is a compile-time 0. Only this module reads it.
//!
//! # Activation
//!
//! * `KAMPING_TRACE=<path|dir|1>` — events + measuring; the trace is
//!   written at teardown (see `crate::config::Config`).
//! * `KAMPING_MEASURE=1` — per-op latency and wait attribution only.
//! * `KAMPING_METRICS=<path|1>` — counters, gauges, sampled histograms.
//! * [`crate::Universe::run_traced`] — programmatic, env-independent.
//!
//! # Export
//!
//! Events export as Chrome trace-event JSON (the `traceEvents` array
//! format), which loads directly in Perfetto / `chrome://tracing`:
//! lifecycle events are instants on a per-peer track (`pid` = rank,
//! `tid` = peer), waits and op spans are complete (`"ph":"X"`) slices.
//! Multi-process runs write one JSONL file per rank (absolute-µs
//! timestamps) that [`merge_trace_dir`] — used by `kampirun --trace` —
//! sorts into a single Perfetto-loadable file. Timestamps within one
//! process come from a single monotonic clock, so per-channel event order
//! is exact; across processes they are anchored to the wall clock at
//! process start, so cross-process skew is bounded by wall-clock agreement
//! (sub-millisecond on one host).

use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{bucket_of, Counter, Gauge, Hist, N_BUCKETS, N_COUNTERS, N_GAUGES, N_HISTS};
use crate::profile::{Op, RankProfile, ALL_OPS, N_OPS};
use crate::tag::Tag;
use crate::transport::MatchKey;

/// Ring shards; events from different threads usually hit different
/// shards, so recording never contends in the common case.
const SHARDS: usize = 8;

/// Events retained per shard before the oldest are overwritten. Bounded so
/// a long traced run cannot exhaust memory; `dropped_events` reports how
/// many were lost.
const SHARD_CAP: usize = 1 << 14;

thread_local! {
    /// Global rank hosted by this thread (rank threads on shm, the main
    /// thread on socket); `u32::MAX` for helper threads.
    static THREAD_RANK: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Nanoseconds this thread has spent blocked (mailbox gate waits),
    /// accumulated monotonically. Op scopes snapshot it on entry and
    /// attribute the delta to the op on exit.
    static THREAD_WAIT_NS: Cell<u64> = const { Cell::new(0) };
    /// This thread's ring shard, assigned round-robin on first use.
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Blocking waits this thread has entered on behalf of the rank it hosts
    /// — the sampling base for blocked-wait timing.
    static THREAD_PARKS: Cell<u64> = const { Cell::new(0) };
}

/// Marks the current thread as hosting global rank `rank` (what sampled
/// wait timing and timeouts are attributed by).
pub(crate) fn set_thread_rank(rank: usize) {
    THREAD_RANK.with(|r| r.set(rank as u32));
}

/// The global rank hosted by the current thread, or `u32::MAX`.
pub(crate) fn thread_rank() -> u32 {
    THREAD_RANK.with(Cell::get)
}

/// Total nanoseconds the current thread has spent blocked so far.
pub(crate) fn thread_wait_ns() -> u64 {
    THREAD_WAIT_NS.with(Cell::get)
}

fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    THREAD_SHARD.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
        }
        v
    })
}

/// One recorded event. `ts_ns` is nanoseconds since the owning
/// [`TraceCtx`]'s monotonic epoch; for span-like kinds it is the span
/// *start*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch (span start for span kinds).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Event taxonomy. Ranks are global; `tag`/`ctx` identify the channel the
/// envelope travelled on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An envelope entered the transport at the sender.
    Post {
        /// Sending global rank.
        src: u32,
        /// Destination global rank.
        dst: u32,
        /// Message tag.
        tag: Tag,
        /// Communicator context id.
        ctx: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// An envelope landed in the destination rank's mailbox.
    Deliver {
        /// Sending global rank.
        src: u32,
        /// Destination (mailbox owner) global rank.
        dst: u32,
        /// Message tag.
        tag: Tag,
        /// Communicator context id.
        ctx: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A receive/probe matched and consumed an envelope.
    Take {
        /// Sending global rank.
        src: u32,
        /// Destination (mailbox owner) global rank.
        dst: u32,
        /// Message tag.
        tag: Tag,
        /// Communicator context id.
        ctx: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A thread was blocked (a mailbox gate wait). `ts_ns` is the moment
    /// the wait began.
    Wait {
        /// Global rank of the blocked thread (`u32::MAX` if unknown).
        rank: u32,
        /// How long the thread was parked.
        dur_ns: u64,
    },
    /// One substrate operation completed. `ts_ns` is the op start.
    OpSpan {
        /// Global rank that ran the op.
        rank: u32,
        /// Which operation.
        op: Op,
        /// Wall-clock duration of the op.
        dur_ns: u64,
        /// Portion of `dur_ns` spent blocked waiting.
        wait_ns: u64,
    },
    /// The chaos layer injected a fault on a channel.
    Chaos {
        /// Sending global rank of the affected envelope.
        src: u32,
        /// Destination global rank.
        dst: u32,
        /// Fault kind: `"delay"`, `"sever"` (an envelope discarded by a
        /// cut link or a dead rank) or `"kill"` (the death itself).
        fault: &'static str,
    },
    /// A socket control-plane frame left this process (excluded from the
    /// data-plane message counters; visible here so keepalive traffic can
    /// be audited).
    Control {
        /// Global rank that sent the frame.
        rank: u32,
        /// Peer the frame went to.
        peer: u32,
        /// Frame kind (`"ping"`, `"hello"`, `"control"`, `"ack"`).
        frame: &'static str,
    },
    /// One wakeup of the socket progress-engine thread: how much readiness
    /// it saw and how long servicing it took. `ts_ns` is the wakeup.
    Progress {
        /// Global rank whose engine woke.
        rank: u32,
        /// Ready epoll events handled in this wakeup.
        events: u32,
        /// Data-plane frames moved (sent + received) in this wakeup.
        frames: u32,
        /// Busy time from wakeup to going back to sleep.
        dur_ns: u64,
    },
    /// A shm-xproc ring blocked: a producer on a full ring, or the
    /// consumer parked on its inbox doorbell. `ts_ns` is when the wait
    /// began.
    RingWait {
        /// Global rank that waited.
        rank: u32,
        /// Ring peer (`u32::MAX` for the consumer, which parks on the
        /// whole inbox rather than one peer's ring).
        peer: u32,
        /// `"send"` (ring full) or `"recv"` (inbox idle).
        role: &'static str,
        /// How long the thread was parked.
        dur_ns: u64,
    },
}

/// Timestamp source for the instrumentation clock: the raw TSC, converted
/// to nanoseconds with a fixed-point multiplier calibrated once per
/// process against the OS monotonic clock. `Instant::now` costs ~30 ns on
/// a VM where the vDSO path is degraded; `rdtsc` is ~2× cheaper, and the
/// measuring path reads the clock up to six times per blocking op — this
/// is most of the gap between the +36% measure overhead the observability
/// bench used to report and the current number. Requires an invariant TSC
/// (`constant_tsc`/`nonstop_tsc`, universal on the hardware this targets);
/// when calibration fails, [`TraceCtx::now_ns`] falls back to `Instant`.
#[cfg(target_arch = "x86_64")]
mod tscclock {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    /// `ns = (Δtsc × mult) >> SHIFT`.
    pub(super) const SHIFT: u32 = 24;

    static CAL: OnceLock<Option<u64>> = OnceLock::new();

    #[inline]
    pub(super) fn read() -> u64 {
        // SAFETY: `rdtsc` is part of the x86_64 baseline ISA.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// The process-wide multiplier, if calibration has run and succeeded.
    #[inline]
    pub(super) fn mult() -> Option<u64> {
        CAL.get().copied().flatten()
    }

    /// Calibrates once per process: a ~2 ms spin bounded by the OS clock
    /// on both ends, giving a relative error well under 0.1% — drift of
    /// microseconds over a minutes-long run, far below the wall-clock
    /// skew that already bounds cross-process trace alignment. Called
    /// from [`super::TraceCtx::new`] only when instrumentation is on, so
    /// fully-disabled universes never pay the spin.
    pub(super) fn calibrate() {
        CAL.get_or_init(|| {
            let t0 = Instant::now();
            let c0 = read();
            while t0.elapsed() < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            let c1 = read();
            let dt = t0.elapsed().as_nanos();
            let dc = c1.wrapping_sub(c0) as u128;
            if dc == 0 {
                return None;
            }
            u64::try_from((dt << SHIFT) / dc).ok().filter(|&m| m > 0)
        });
    }
}

/// Gate bit: per-op latency and wait attribution (`total_ns` / `wait_ns`).
pub(crate) const MEASURE: u8 = 1;
/// Gate bit: counters, gauges, sampled histograms, the in-flight breadcrumb.
pub(crate) const METRICS: u8 = 2;
/// Gate bit: lifecycle events into the ring (set together with [`MEASURE`]).
pub(crate) const EVENTS: u8 = 4;

/// The numbers kept per rank, in wire order. Instantiated twice: over
/// `AtomicU64` as the live block the probes write (`RankStats`), over
/// `u64` as its frozen copy ([`crate::metrics::MetricsSnapshot`]) — one
/// layout, so a snapshot, a delta, a merge and the wire form are all walks
/// over `StatsBlock::words`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsBlock<T> {
    /// Invocations per [`Op`] (always on; indexed by discriminant).
    pub op_calls: [T; N_OPS],
    /// Wall-clock nanoseconds per [`Op`] (while `MEASURE` is set).
    pub op_total_ns: [T; N_OPS],
    /// The blocked-waiting part of `op_total_ns`.
    pub op_wait_ns: [T; N_OPS],
    /// Counter values in `crate::metrics::ALL_COUNTERS` order.
    pub counters: [T; N_COUNTERS],
    /// Gauge values in `crate::metrics::ALL_GAUGES` order.
    pub gauges: [T; N_GAUGES],
    /// Histogram buckets, `[hist][bucket]`.
    pub hists: [[T; N_BUCKETS]; N_HISTS],
}

impl<T: Default> Default for StatsBlock<T> {
    fn default() -> Self {
        Self {
            op_calls: std::array::from_fn(|_| T::default()),
            op_total_ns: std::array::from_fn(|_| T::default()),
            op_wait_ns: std::array::from_fn(|_| T::default()),
            counters: std::array::from_fn(|_| T::default()),
            gauges: std::array::from_fn(|_| T::default()),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| T::default())),
        }
    }
}

impl<T> StatsBlock<T> {
    /// Every cell, in wire order.
    pub(crate) fn words(&self) -> impl Iterator<Item = &T> {
        (self.op_calls.iter())
            .chain(&self.op_total_ns)
            .chain(&self.op_wait_ns)
            .chain(&self.counters)
            .chain(&self.gauges)
            .chain(self.hists.iter().flatten())
    }

    /// Every cell, in wire order, mutably.
    pub(crate) fn words_mut(&mut self) -> impl Iterator<Item = &mut T> {
        (self.op_calls.iter_mut())
            .chain(&mut self.op_total_ns)
            .chain(&mut self.op_wait_ns)
            .chain(&mut self.counters)
            .chain(&mut self.gauges)
            .chain(self.hists.iter_mut().flatten())
    }
}

/// One rank's live block. Written by threads hosting that rank (or its
/// transport helpers), read by the views — all relaxed. Aligned so the
/// always-on words of neighbouring ranks never share a cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct RankStats {
    block: StatsBlock<AtomicU64>,
    /// `start_ns << 8 | (op + 1)` while an op scope is open, 0 otherwise —
    /// the flight recorder's "op in flight at failure time" (`start_ns` is
    /// 0 when the scope was not timed). Only the rank's own thread writes.
    in_flight: AtomicU64,
}

impl RankStats {
    #[inline]
    fn counter(&self, c: Counter) -> &AtomicU64 {
        &self.block.counters[c as usize]
    }

    /// Freezes the whole block.
    pub(crate) fn snapshot(&self) -> StatsBlock<u64> {
        let mut snap = StatsBlock::<u64>::default();
        for (out, cell) in snap.words_mut().zip(self.block.words()) {
            *out = cell.load(Ordering::Relaxed);
        }
        snap
    }

    /// Freezes the always-on part only (cheap enough to call per op).
    pub(crate) fn profile(&self) -> RankProfile {
        RankProfile::of(&self.block, |cell| cell.load(Ordering::Relaxed))
    }

    /// The op currently in flight, with its start (`now_ns` domain, 0 when
    /// the start was not timed).
    pub(crate) fn in_flight(&self) -> Option<(Op, u64)> {
        let v = self.in_flight.load(Ordering::Relaxed);
        let op = *ALL_OPS.get(((v & 0xff) as usize).checked_sub(1)?)?;
        Some((op, v >> 8))
    }
}

/// The event of the `$bytes`-byte message `$msg` (its source, tag and
/// context as a [`MatchKey`]) reaching lifecycle stage `$stage` at `$dst`.
macro_rules! envelope_event {
    ($stage:ident, $dst:expr, $msg:expr, $bytes:expr) => {
        EventKind::$stage {
            src: $msg.src as u32,
            dst: $dst as u32,
            tag: $msg.tag,
            ctx: $msg.ctx,
            bytes: $bytes as u64,
        }
    };
}

/// Per-universe instrumentation state: the gate word, the monotonic
/// epoch, the event ring and one `RankStats` per global rank.
#[derive(Debug)]
pub struct TraceCtx {
    /// The activation bits — the only gate in the crate.
    flags: AtomicU8,
    epoch: Instant,
    /// Raw TSC at `epoch` (x86_64 fast clock base).
    #[cfg(target_arch = "x86_64")]
    tsc_epoch: u64,
    /// Wall-clock nanoseconds (unix) at `epoch`; anchors cross-process
    /// trace merging.
    epoch_unix_ns: u64,
    shards: Vec<Mutex<VecDeque<TraceEvent>>>,
    dropped: AtomicU64,
    ranks: Vec<RankStats>,
}

impl TraceCtx {
    /// A context for `size` ranks with the given activation bits
    /// ([`crate::config::Config::trace_flags`]).
    pub(crate) fn new(size: usize, flags: u8) -> Self {
        // Calibrate the fast clock before capturing the epoch pair, so the
        // one-time spin never lands between the two base readings.
        #[cfg(target_arch = "x86_64")]
        if flags != 0 {
            tscclock::calibrate();
        }
        let epoch = Instant::now();
        #[cfg(target_arch = "x86_64")]
        let tsc_epoch = tscclock::read();
        let epoch_unix_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Self {
            flags: AtomicU8::new(flags),
            epoch,
            #[cfg(target_arch = "x86_64")]
            tsc_epoch,
            epoch_unix_ns,
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            dropped: AtomicU64::new(0),
            ranks: (0..size).map(|_| RankStats::default()).collect(),
        }
    }

    /// A fully-disabled context (standalone mailboxes, tests, benches).
    pub fn disabled(size: usize) -> Arc<Self> {
        Arc::new(Self::new(size, 0))
    }

    /// The activation bits. Under the `no-trace` feature this is a
    /// compile-time 0, so the optimizer removes every gated site — the
    /// seed-equivalent build the overhead guard compares the
    /// runtime-disabled path against.
    #[inline]
    pub(crate) fn flags(&self) -> u8 {
        if cfg!(feature = "no-trace") {
            return 0;
        }
        self.flags.load(Ordering::Relaxed)
    }

    /// Number of rank slots.
    pub(crate) fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The live block of global rank `rank`.
    #[inline]
    pub(crate) fn rank(&self, rank: usize) -> &RankStats {
        &self.ranks[rank]
    }

    /// Nanoseconds since this context's monotonic epoch. Served from the
    /// calibrated TSC when available (see [`tscclock`]), from the OS
    /// monotonic clock otherwise.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if let Some(mult) = tscclock::mult() {
            let dc = tscclock::read().wrapping_sub(self.tsc_epoch);
            return ((dc as u128 * mult as u128) >> tscclock::SHIFT) as u64;
        }
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wall-clock (unix) nanoseconds at the epoch.
    pub(crate) fn epoch_unix_ns(&self) -> u64 {
        self.epoch_unix_ns
    }

    /// Appends `kind` to the ring with an explicit timestamp.
    fn record_at(&self, ts_ns: u64, kind: EventKind) {
        let shard = &self.shards[thread_shard()];
        let mut q = shard.lock().expect("trace shard poisoned");
        if q.len() >= SHARD_CAP {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(TraceEvent { ts_ns, kind });
    }

    /// Events lost to ring overflow so far.
    pub(crate) fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains all shards and returns the events sorted by timestamp.
    pub(crate) fn take_events(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().expect("trace shard poisoned").drain(..));
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    // ----- probes: one per seam -----

    /// Seam: a substrate operation starts on `rank`. Counts the call
    /// (always) and returns the scope that, on drop, attributes the op's
    /// latency — split into blocked-wait vs local compute — to it.
    #[inline]
    pub(crate) fn op(&self, op: Op, rank: usize) -> OpScope<'_> {
        self.op_issued(op, rank);
        self.op_resumed(op, rank)
    }

    /// Seam: a nonblocking operation was issued — the call is counted now,
    /// its time is attributed by the [`TraceCtx::op_resumed`] scope around
    /// the matching wait.
    #[inline]
    pub(crate) fn op_issued(&self, op: Op, rank: usize) {
        self.ranks[rank].block.op_calls[op as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Seam: `rank` resumes (waits on) an already-counted operation.
    #[inline]
    pub(crate) fn op_resumed(&self, op: Op, rank: usize) -> OpScope<'_> {
        let flags = self.flags();
        if flags & (MEASURE | METRICS) == 0 {
            return OpScope(None);
        }
        OpScope(Some(self.open_scope(op, rank, flags)))
    }

    /// The armed half of [`TraceCtx::op_resumed`], out of line so the
    /// disabled path stays a load and a branch at every call site.
    ///
    /// A measured scope reads the clock exactly once on entry and once on
    /// drop (the one reading serves the op cells, the trace span and the
    /// latency histogram). A metrics-only scope pays the counter bump and
    /// the breadcrumb: op latency is sampled 1-in-64, so the clock reads
    /// amortize to a fraction of a nanosecond per op.
    fn open_scope(&self, op: Op, rank: usize, flags: u8) -> OpScopeInner<'_> {
        let stats = &self.ranks[rank];
        let mut timed = flags & MEASURE != 0;
        if flags & METRICS != 0 {
            let started = stats.counter(Counter::OpsStarted);
            timed |= started.fetch_add(1, Ordering::Relaxed) & 63 == 0;
        }
        let start_ns = if timed { self.now_ns() } else { 0 };
        let mut outer = 0;
        if flags & METRICS != 0 {
            // Scopes nest (`split` runs an `allgather`), so the breadcrumb
            // of the enclosing op is saved here and restored on drop.
            outer = stats.in_flight.load(Ordering::Relaxed);
            let crumb = start_ns << 8 | (op as u64 + 1);
            stats.in_flight.store(crumb, Ordering::Relaxed);
        }
        OpScopeInner {
            ctx: self,
            stats,
            op,
            rank: rank as u32,
            start_ns,
            wait_at_start: if flags & MEASURE != 0 {
                thread_wait_ns()
            } else {
                0
            },
            outer,
            flags,
            timed,
        }
    }

    /// Seam: `msg.src` handed a `bytes`-byte message for `dst` to the
    /// transport. The LogGP message/byte counters are always on.
    #[inline]
    pub(crate) fn posted(&self, dst: usize, msg: MatchKey, bytes: usize) {
        let stats = &self.ranks[msg.src];
        (stats.counter(Counter::MsgsSent)).fetch_add(1, Ordering::Relaxed);
        (stats.counter(Counter::BytesSent)).fetch_add(bytes as u64, Ordering::Relaxed);
        self.event(|| envelope_event!(Post, dst, msg, bytes));
    }

    /// Seam: a message landed in `dst`'s mailbox, or in the destination a
    /// receive of `dst` had posted for it.
    #[inline]
    pub(crate) fn delivered(&self, dst: usize, msg: MatchKey, bytes: usize) {
        self.count(dst, Counter::MsgsDelivered, 1);
        self.count(dst, Counter::BytesDelivered, bytes as u64);
        self.event(|| envelope_event!(Deliver, dst, msg, bytes));
    }

    /// Seam: a receive/probe on `dst` matched and consumed a message.
    #[inline]
    pub(crate) fn taken(&self, dst: usize, msg: MatchKey, bytes: usize) {
        self.event(|| envelope_event!(Take, dst, msg, bytes));
    }

    /// Seam: the calling thread leaves the fast path of a blocking wait on
    /// behalf of `rank` (`u32::MAX` if unknown); everything until the
    /// returned guard drops — re-attempts, yields and sleep alike — is time
    /// the rank is blocked. While measuring, the guard adds it to the
    /// thread's wait accumulator, which open op scopes read back as
    /// `wait_ns`. While [`METRICS`] is set it is charged to the rank's
    /// `BlockedNs` counter, if this thread hosts the rank (a helper thread
    /// waiting on a mailbox is not that rank being blocked).
    ///
    /// Only 1 wait in [`PARK_SAMPLE`] pays `BlockedNs`' two clock reads; the
    /// measured duration is scaled back up on drop. `BlockedNs` feeds an
    /// interval *ratio* — with thousands of waits per interval the sampling
    /// error vanishes, while the common wait costs one thread-local
    /// increment — a few nanoseconds of a ping-pong round on a machine where
    /// every blocking receive waits (`observability_bench`).
    #[inline]
    pub(crate) fn blocked(&self, rank: u32) -> Blocked<'_> {
        let flags = self.flags();
        let sampled = flags & METRICS != 0
            && THREAD_PARKS
                .with(|p| p.replace(p.get() + 1))
                .is_multiple_of(PARK_SAMPLE)
            && thread_rank() == rank
            && (rank as usize) < self.ranks.len();
        Blocked {
            ctx: self,
            rank,
            flags,
            wait_start: (flags & MEASURE != 0).then(|| self.now_ns()),
            sampled_start: sampled.then(|| self.now_ns()),
        }
    }

    /// Seam: a bounded wait on `rank`'s mailbox gave up. Counted only when
    /// the calling thread hosts `rank` — helper threads (snapshot
    /// responders, progress engines) polling a mailbox with a deadline are
    /// not that rank timing out.
    pub(crate) fn timed_out(&self, rank: usize) {
        if thread_rank() == rank as u32 {
            self.count(rank, Counter::Timeouts, 1);
        }
    }

    /// Seam: on `rank`'s behalf a `len`-byte point-to-point payload was
    /// copied `copies` times in user space and `allocs` payload-sized
    /// buffers were allocated for it. Inline payloads are not counted.
    #[inline]
    pub(crate) fn payload_moved(&self, rank: usize, len: usize, copies: u64, allocs: u64) {
        if self.flags() & METRICS != 0 && len > crate::transport::INLINE_CAP {
            let stats = &self.ranks[rank];
            let copied = copies * len as u64;
            (stats.counter(Counter::PayloadBytesCopied)).fetch_add(copied, Ordering::Relaxed);
            (stats.counter(Counter::PayloadAllocs)).fetch_add(allocs, Ordering::Relaxed);
        }
    }

    /// Adds `v` to one of `rank`'s counters (while [`METRICS`] is set). A
    /// rank this context has no slot for — the [`thread_rank`] of a helper
    /// thread — counts nothing.
    #[inline]
    pub(crate) fn count(&self, rank: usize, c: Counter, v: u64) {
        if self.flags() & METRICS != 0 {
            if let Some(stats) = self.ranks.get(rank) {
                stats.counter(c).fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Raises a high-water gauge to at least `v`.
    #[inline]
    pub(crate) fn gauge_max(&self, rank: usize, g: Gauge, v: u64) {
        if self.flags() & METRICS != 0 {
            self.ranks[rank].block.gauges[g as usize].fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Moves a level gauge by `delta` (every decrement follows a matching
    /// increment, so the wrapping add never underflows).
    #[inline]
    pub(crate) fn gauge_add(&self, rank: usize, g: Gauge, delta: i64) {
        if self.flags() & METRICS != 0 {
            self.ranks[rank].block.gauges[g as usize].fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// Records one latency observation (nanoseconds).
    #[inline]
    pub(crate) fn observe(&self, rank: usize, h: Hist, ns: u64) {
        if self.flags() & METRICS != 0 {
            self.ranks[rank].block.hists[h as usize][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The clock, if metrics are on — for sites that time a region only to
    /// [`TraceCtx::observe`] it afterwards.
    #[inline]
    pub(crate) fn metrics_clock(&self) -> Option<u64> {
        (self.flags() & METRICS != 0).then(|| self.now_ns())
    }

    /// Records the event `make` builds (while [`EVENTS`] is set; `make`
    /// does not run otherwise).
    #[inline]
    pub(crate) fn event(&self, make: impl FnOnce() -> EventKind) {
        if self.flags() & EVENTS != 0 {
            self.record_at(self.now_ns(), make());
        }
    }
}

struct OpScopeInner<'a> {
    ctx: &'a TraceCtx,
    stats: &'a RankStats,
    op: Op,
    rank: u32,
    start_ns: u64,
    wait_at_start: u64,
    /// The enclosing scope's breadcrumb.
    outer: u64,
    /// The gate as read on entry; the drop acts on the same bits.
    flags: u8,
    /// Clock was read at start; read it again at drop.
    timed: bool,
}

/// RAII guard around one substrate operation (see [`TraceCtx::op`]); `None`
/// when neither [`MEASURE`] nor [`METRICS`] was set on entry.
pub(crate) struct OpScope<'a>(Option<OpScopeInner<'a>>);

impl Drop for OpScope<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(scope) = self.0.take() {
            scope.close();
        }
    }
}

impl OpScopeInner<'_> {
    fn close(self) {
        let (block, op) = (&self.stats.block, self.op as usize);
        let dur_ns = if self.timed {
            self.ctx.now_ns().saturating_sub(self.start_ns)
        } else {
            0
        };
        if self.flags & METRICS != 0 {
            self.stats.in_flight.store(self.outer, Ordering::Relaxed);
            if self.timed {
                block.hists[Hist::OpLatency as usize][bucket_of(dur_ns)]
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if self.flags & MEASURE != 0 {
            let waited = thread_wait_ns().saturating_sub(self.wait_at_start);
            let wait_ns = waited.min(dur_ns);
            block.op_total_ns[op].fetch_add(dur_ns, Ordering::Relaxed);
            block.op_wait_ns[op].fetch_add(wait_ns, Ordering::Relaxed);
            if self.flags & EVENTS != 0 {
                let (rank, op) = (self.rank, self.op);
                self.ctx.record_at(
                    self.start_ns,
                    EventKind::OpSpan {
                        rank,
                        op,
                        dur_ns,
                        wait_ns,
                    },
                );
            }
        }
    }
}

/// 1-in-N sampling rate for blocked-wait timing (power of two).
const PARK_SAMPLE: u64 = 8;

/// RAII guard around the slow path of a blocking wait (see
/// [`TraceCtx::blocked`]). One clock read per side and per armed part.
pub(crate) struct Blocked<'a> {
    ctx: &'a TraceCtx,
    rank: u32,
    flags: u8,
    wait_start: Option<u64>,
    sampled_start: Option<u64>,
}

impl Drop for Blocked<'_> {
    fn drop(&mut self) {
        if self.wait_start.is_none() && self.sampled_start.is_none() {
            return;
        }
        let now = self.ctx.now_ns();
        if let Some(start_ns) = self.sampled_start {
            // Scale the sampled wait back to an estimate of the total.
            self.ctx.ranks[self.rank as usize]
                .counter(Counter::BlockedNs)
                .fetch_add(
                    now.saturating_sub(start_ns).saturating_mul(PARK_SAMPLE),
                    Ordering::Relaxed,
                );
        }
        if let Some(start_ns) = self.wait_start {
            let dur_ns = now.saturating_sub(start_ns);
            THREAD_WAIT_NS.with(|w| w.set(w.get().saturating_add(dur_ns)));
            if self.flags & EVENTS != 0 {
                let rank = self.rank;
                self.ctx
                    .record_at(start_ns, EventKind::Wait { rank, dur_ns });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Microseconds with nanosecond resolution, as Chrome's `ts` field wants.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// One event as a Chrome trace-event JSON object. `base_unix_ns` shifts
/// timestamps to absolute wall-clock µs (for cross-process merging); pass
/// 0 for run-relative timestamps.
fn chrome_event(ev: &TraceEvent, base_unix_ns: u64) -> String {
    let ts = us(base_unix_ns.saturating_add(ev.ts_ns));
    match &ev.kind {
        EventKind::Post {
            src,
            dst,
            tag,
            ctx,
            bytes,
        }
        | EventKind::Deliver {
            src,
            dst,
            tag,
            ctx,
            bytes,
        }
        | EventKind::Take {
            src,
            dst,
            tag,
            ctx,
            bytes,
        } => {
            // The three envelope stages differ only in name and in whose
            // track (`pid`) they sit on.
            let (kind, pid, tid) = match &ev.kind {
                EventKind::Post { .. } => ("post", src, dst),
                EventKind::Deliver { .. } => ("deliver", dst, src),
                _ => ("take", dst, src),
            };
            format!(
                r#"{{"name":"{kind} {src}->{dst}","cat":"envelope","ph":"i","s":"t","ts":{ts},"pid":{pid},"tid":{tid},"args":{{"kind":"{kind}","src":{src},"dst":{dst},"tag":{tag},"ctx":{ctx},"bytes":{bytes}}}}}"#
            )
        }
        EventKind::Wait { rank, dur_ns } => format!(
            r#"{{"name":"blocked","cat":"wait","ph":"X","ts":{ts},"dur":{},"pid":{rank},"tid":{rank},"args":{{"kind":"wait"}}}}"#,
            us(*dur_ns)
        ),
        EventKind::OpSpan {
            rank,
            op,
            dur_ns,
            wait_ns,
        } => format!(
            r#"{{"name":"{}","cat":"op","ph":"X","ts":{ts},"dur":{},"pid":{rank},"tid":{rank},"args":{{"kind":"op","wait_ns":{wait_ns},"compute_ns":{}}}}}"#,
            op.name(),
            us(*dur_ns),
            dur_ns.saturating_sub(*wait_ns)
        ),
        EventKind::Chaos { src, dst, fault } => format!(
            r#"{{"name":"chaos {fault}","cat":"chaos","ph":"i","s":"g","ts":{ts},"pid":{src},"tid":{dst},"args":{{"kind":"chaos","fault":"{fault}","src":{src},"dst":{dst}}}}}"#
        ),
        EventKind::Control { rank, peer, frame } => format!(
            r#"{{"name":"ctl {frame}","cat":"control","ph":"i","s":"t","ts":{ts},"pid":{rank},"tid":{peer},"args":{{"kind":"control","frame":"{frame}"}}}}"#
        ),
        EventKind::Progress {
            rank,
            events,
            frames,
            dur_ns,
        } => format!(
            r#"{{"name":"progress","cat":"progress","ph":"X","ts":{ts},"dur":{},"pid":{rank},"tid":{rank},"args":{{"kind":"progress","events":{events},"frames":{frames}}}}}"#,
            us(*dur_ns)
        ),
        EventKind::RingWait {
            rank,
            peer,
            role,
            dur_ns,
        } => format!(
            r#"{{"name":"ring {role}","cat":"wait","ph":"X","ts":{ts},"dur":{},"pid":{rank},"tid":{rank},"args":{{"kind":"ring_wait","role":"{role}","peer":{peer}}}}}"#,
            us(*dur_ns)
        ),
    }
}

/// Renders `events` as individual Chrome JSON object strings — the unit of
/// every export and of the crash reports' event list.
pub(crate) fn render_events(events: &[TraceEvent], base_unix_ns: u64) -> Vec<String> {
    (events.iter())
        .map(|ev| chrome_event(ev, base_unix_ns))
        .collect()
}

/// Wraps serialized event objects into one Chrome trace JSON document.
fn trace_document<'a>(objects: impl Iterator<Item = &'a String>) -> String {
    let objects: Vec<&str> = objects.map(String::as_str).collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        objects.join(",\n")
    )
}

/// Renders `events` as one Chrome trace JSON document (run-relative
/// timestamps — the single-process export).
pub(crate) fn chrome_trace_json(events: &[TraceEvent]) -> String {
    trace_document(render_events(events, 0).iter())
}

/// Per-rank bookkeeping carried in the trace metadata line (a Chrome
/// `"ph":"M"` event, so Perfetto tolerates it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RankTraceMeta {
    /// Global rank the file belongs to.
    pub(crate) rank: usize,
    /// Events lost to ring overflow in that process.
    pub(crate) dropped_events: u64,
}

/// Writes `events` as JSONL (one Chrome event object per line, timestamps
/// shifted to absolute wall-clock µs) — the per-rank format merged by
/// [`merge_trace_dir`]. `meta` (when present) becomes the file's first
/// line, carrying the rank's dropped-event count into the merge.
pub(crate) fn write_trace_jsonl(
    path: &Path,
    events: &[TraceEvent],
    epoch_unix_ns: u64,
    meta: Option<RankTraceMeta>,
) -> io::Result<()> {
    let meta = meta.map(|m| {
        format!(
            r#"{{"ph":"M","name":"kamping_rank_meta","ts":0,"pid":{0},"args":{{"rank":{0},"dropped_events":{1}}}}}"#,
            m.rank, m.dropped_events
        )
    });
    let lines = render_events(events, epoch_unix_ns);
    let lines: Vec<&str> = meta.iter().chain(&lines).map(String::as_str).collect();
    std::fs::write(path, lines.join("\n") + "\n")
}

/// What [`merge_trace_dir`] produced: the merged event count plus the
/// per-rank dropped-event counts scraped from the rank metadata lines —
/// previously those counts were silently discarded, so a clipped trace
/// looked complete.
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Events written to the merged document.
    pub events: usize,
    /// `(rank, dropped_events)` rows, sorted by rank, for every rank file
    /// that carried a metadata line.
    pub dropped: Vec<(usize, u64)>,
}

impl MergeReport {
    /// Total events lost across all ranks.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().map(|(_, d)| d).sum()
    }
}

/// Merges every `*.jsonl` per-rank trace in `dir` into one Chrome trace
/// JSON file at `out`, sorted by timestamp. Rank metadata lines are
/// folded into one leading merged-metadata event (and the returned
/// [`MergeReport`]) instead of being interleaved with the sort. Used by
/// `kampirun --trace` and the multi-process tests.
pub fn merge_trace_dir(dir: &Path, out: &Path) -> io::Result<MergeReport> {
    let mut lines: Vec<(f64, String)> = Vec::new();
    let mut dropped: Vec<(usize, u64)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "jsonl") {
            continue;
        }
        for line in std::fs::read_to_string(&path)?.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if line.contains("\"kamping_rank_meta\"") {
                if let (Some(rank), Some(d)) = (
                    crate::metrics::scrape_u64(line, "rank"),
                    crate::metrics::scrape_u64(line, "dropped_events"),
                ) {
                    dropped.push((rank as usize, d));
                }
                continue;
            }
            let ts = crate::metrics::scrape_f64(line, "ts").ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace line without ts in {}", path.display()),
                )
            })?;
            lines.push((ts, line.to_string()));
        }
    }
    lines.sort_by(|a, b| a.0.total_cmp(&b.0));
    dropped.sort_unstable();
    let meta = (!dropped.is_empty()).then(|| {
        let per_rank: Vec<String> = dropped.iter().map(|(r, d)| format!("[{r},{d}]")).collect();
        let total: u64 = dropped.iter().map(|(_, d)| d).sum();
        format!(
            r#"{{"ph":"M","name":"kamping_dropped_events","ts":0,"args":{{"total":{total},"per_rank":[{}]}}}}"#,
            per_rank.join(",")
        )
    });
    let doc = trace_document(meta.iter().chain(lines.iter().map(|(_, line)| line)));
    std::fs::write(out, doc)?;
    Ok(MergeReport {
        events: lines.len(),
        dropped,
    })
}

/// Writes this process's trace to the `KAMPING_TRACE` destination:
/// a directory gets `trace-rank<R>.jsonl` (absolute timestamps, merge
/// input), any other path gets a self-contained Chrome JSON file (with
/// `-rank<R>` inserted before the extension on multi-process backends so
/// ranks don't clobber each other).
/// The caller drains the ring with `take_events` first — the flight
/// recorder and this export share one drain.
pub(crate) fn write_process_trace_events(
    ctx: &TraceCtx,
    events: &[TraceEvent],
    out: &Path,
    rank: Option<usize>,
) -> io::Result<()> {
    if out.is_dir() {
        let name = match rank {
            Some(r) => format!("trace-rank{r}.jsonl"),
            None => "trace.jsonl".to_string(),
        };
        let meta = RankTraceMeta {
            rank: rank.unwrap_or(0),
            dropped_events: ctx.dropped_events(),
        };
        return write_trace_jsonl(&out.join(name), events, ctx.epoch_unix_ns(), Some(meta));
    }
    let path = match rank {
        Some(r) => {
            let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
            let ext = out.extension().and_then(|s| s.to_str()).unwrap_or("json");
            out.with_file_name(format!("{stem}-rank{r}.{ext}"))
        }
        None => out.to_path_buf(),
    };
    std::fs::write(path, chrome_trace_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            kind: EventKind::Post {
                src: 0,
                dst: 1,
                tag: 7,
                ctx: 0,
                bytes: 8,
            },
        }
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = TraceCtx::disabled(2);
        assert_eq!(ctx.flags(), 0);
        // Guards are inert: no wait accumulates, no event appears.
        let before = thread_wait_ns();
        drop(ctx.blocked(0));
        drop(ctx.op(Op::Send, 0));
        ctx.event(|| unreachable!("events are off"));
        assert_eq!(thread_wait_ns(), before);
        assert!(ctx.take_events().is_empty());
        // ... but the exact counts are always on.
        assert_eq!(ctx.rank(0).profile().calls(Op::Send), 1);
    }

    #[test]
    fn enabled_ctx_round_trips_events() {
        let ctx = TraceCtx::new(2, MEASURE | EVENTS);
        ctx.event(|| ev(0).kind);
        drop(ctx.op(Op::Recv, 1));
        let events = ctx.take_events();
        assert_eq!(events.len(), 2);
        // Timestamps come back sorted.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert!(ctx.take_events().is_empty(), "take drains");
    }

    #[test]
    fn parked_guard_accumulates_thread_wait() {
        let ctx = TraceCtx::new(1, MEASURE);
        let before = thread_wait_ns();
        drop(ctx.blocked(0));
        assert!(thread_wait_ns() >= before);
    }

    #[test]
    fn op_cells_record_calls_and_split() {
        let ctx = TraceCtx::new(1, MEASURE);
        for _ in 0..2 {
            let _op = ctx.op(Op::Bcast, 0);
            let _parked = ctx.blocked(0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = ctx.rank(0).snapshot();
        let i = Op::Bcast as usize;
        assert_eq!(snap.op_calls[i], 2);
        assert!(snap.op_wait_ns[i] >= 4_000_000, "both sleeps are wait");
        assert!(snap.op_wait_ns[i] <= snap.op_total_ns[i]);
    }

    #[test]
    fn nested_scope_restores_the_outer_breadcrumb() {
        let ctx = TraceCtx::new(1, METRICS);
        let in_flight = || ctx.rank(0).in_flight().map(|(op, _)| op);
        let split = ctx.op(Op::CommSplit, 0);
        assert_eq!(in_flight(), Some(Op::CommSplit));
        drop(ctx.op(Op::Allgather, 0));
        assert_eq!(
            in_flight(),
            Some(Op::CommSplit),
            "a rank dying in the rest of split must not dump 'no op in flight'"
        );
        drop(split);
        assert_eq!(in_flight(), None);
    }

    #[test]
    fn ring_drops_oldest_beyond_cap() {
        let ctx = TraceCtx::new(1, MEASURE | EVENTS);
        // All from one thread = one shard; overflow it.
        for i in 0..(SHARD_CAP + 10) as u64 {
            ctx.record_at(i, ev(i).kind);
        }
        assert_eq!(ctx.dropped_events(), 10);
        let events = ctx.take_events();
        assert_eq!(events.len(), SHARD_CAP);
        assert_eq!(events.first().unwrap().ts_ns, 10, "oldest were dropped");
    }

    #[test]
    fn chrome_json_shape_and_ts() {
        let events = vec![ev(1500), ev(2500)];
        let doc = chrome_trace_json(&events);
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("\"ts\":2.500"));
        assert!(doc.trim_end().ends_with("]}"));
        assert_eq!(
            crate::metrics::scrape_f64("{\"ts\":12.034,\"x\":1}", "ts"),
            Some(12.034)
        );
    }

    #[test]
    fn merge_sorts_across_rank_files() {
        let dir = std::env::temp_dir().join(format!("kamping-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_trace_jsonl(
            &dir.join("trace-rank0.jsonl"),
            &[ev(3000), ev(5000)],
            0,
            Some(RankTraceMeta {
                rank: 0,
                dropped_events: 0,
            }),
        )
        .unwrap();
        write_trace_jsonl(
            &dir.join("trace-rank1.jsonl"),
            &[ev(4000)],
            0,
            Some(RankTraceMeta {
                rank: 1,
                dropped_events: 7,
            }),
        )
        .unwrap();
        let out = dir.join("merged.json");
        let report = merge_trace_dir(&dir, &out).unwrap();
        assert_eq!(report.events, 3, "meta lines are not events");
        assert_eq!(report.dropped, vec![(0, 0), (1, 7)]);
        assert_eq!(report.total_dropped(), 7);
        let doc = std::fs::read_to_string(&out).unwrap();
        let pos3 = doc.find("\"ts\":3.000").unwrap();
        let pos4 = doc.find("\"ts\":4.000").unwrap();
        let pos5 = doc.find("\"ts\":5.000").unwrap();
        assert!(pos3 < pos4 && pos4 < pos5, "merged events sorted by ts");
        let meta = doc.find("kamping_dropped_events").unwrap();
        assert!(meta < pos3, "merged metadata leads the document");
        assert!(doc.contains("\"total\":7"), "{doc}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_only_scope_counts_without_measuring() {
        let ctx = TraceCtx::new(2, METRICS);
        for _ in 0..65 {
            drop(ctx.op(Op::Send, 1));
        }
        let snap = ctx.rank(1).snapshot();
        assert_eq!(snap.counter(Counter::OpsStarted), 65);
        // 1-in-64 sampling: ops 0 and 64 were timed.
        let hist_total: u64 = snap.hists[Hist::OpLatency as usize].iter().sum();
        assert_eq!(hist_total, 2);
        // The timing cells stay untouched (measuring off).
        assert_eq!(snap.op_calls[Op::Send as usize], 65);
        assert_eq!(snap.op_total_ns[Op::Send as usize], 0);
    }
}
