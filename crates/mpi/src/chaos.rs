//! Deterministic fault injection at the transport seam.
//!
//! `ChaosTransport` wraps any [`Transport`] backend (shared-memory or
//! socket) and applies a *seeded, reproducible* schedule of injected
//! faults to the envelopes flowing through [`Transport::post`]. Only the
//! failures MPI's (ULFM's) model admits — channels stay reliable and
//! non-overtaking, so a receiver always gets a FIFO prefix of a channel:
//!
//! * **delay** — delivery is deferred by a fixed latency on a background
//!   delivery thread. Delay preserves per-(source → dest) FIFO order — a
//!   delayed message holds every later message on its channel behind it —
//!   so it models a slow link, not a reordering one;
//! * **sever** — a directional link `src → dest` is cut after its first
//!   `n` messages: later traffic vanishes without any failure mark, so the
//!   only way a peer can notice is a *deadline* (`recv_timeout`,
//!   [`crate::RawRequest::wait_timeout`]) — the hung-peer scenario;
//! * **kill** — a rank dies after the first `n` messages that touch it:
//!   all its traffic is cut *and* a [`ControlMsg::Failed`] mark is applied
//!   locally and broadcast, so peers observe
//!   [`crate::MpiError::ProcFailed`] — the crashed-peer scenario.
//!
//! Every per-message decision is a pure function of
//! `(seed, source, dest, per-channel sequence number, fault kind)` — no
//! wall clock, no thread scheduling — so the same seed produces the same
//! schedule on every run and on every backend. Injected faults are counted
//! in the stats block (`faults_severed` counts every envelope a cut link or
//! a dead rank discards, `faults_killed` each death) and traced as
//! [`EventKind::Chaos`] events.
//!
//! Activation: `KAMPING_CHAOS=<seed>:<spec>` in the environment (parsed
//! into `Config::chaos`, applied by [`crate::Universe::run`]), or
//! programmatically via [`crate::Universe::run_with_chaos`]. The spec is a
//! comma-separated directive list, e.g.
//! `KAMPING_CHAOS=7:delay=30@2,kill=2@40`. See [`ChaosSpec::parse`] for
//! the grammar.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::{MpiError, MpiResult};
use crate::metrics::Counter;
use crate::trace::{EventKind, TraceCtx};
use crate::transport::{ControlMsg, ControlSink, Envelope, Mailbox, Transport};

/// Directional link cut: the first `after` messages from `src` to `dest`
/// pass, everything later is silently discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sever {
    /// Global source rank of the severed link.
    pub src: usize,
    /// Global destination rank of the severed link.
    pub dest: usize,
    /// Number of messages that pass before the cut.
    pub after: u64,
}

/// Injected rank death: the first `after` messages touching `rank` (as
/// source or destination) pass; the next one triggers the death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// Global rank of the victim.
    pub rank: usize,
    /// Number of messages touching the victim before it dies.
    pub after: u64,
}

/// A seeded fault schedule. `delay_pct` is a per-message probability in
/// `0..=100`, resolved deterministically from the seed (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Percent of messages delayed by [`ChaosSpec::delay`].
    pub delay_pct: u8,
    /// Latency added to delayed messages (FIFO-preserving per channel).
    pub delay: Duration,
    /// Directional link cut, if any.
    pub sever: Option<Sever>,
    /// Injected rank deaths — the `kill=` directive repeats, so one
    /// schedule can take several ranks down at distinct budget points
    /// (elastic soaks kill → rebalance → re-admit → kill again).
    pub kills: Vec<Kill>,
}

impl ChaosSpec {
    /// A schedule that injects nothing — the identity wrapper and the
    /// parse base.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed,
            delay_pct: 0,
            delay: Duration::from_millis(1),
            sever: None,
            kills: Vec::new(),
        }
    }

    /// Parses the `<seed>:<spec>` form of `KAMPING_CHAOS`. The spec is a
    /// comma-separated list of directives:
    ///
    /// * `delay=<pct>@<ms>` — delay `<pct>` of messages by `<ms>` ms
    /// * `sever=<src>-><dest>@<n>` — cut the link after `n` messages
    /// * `kill=<rank>@<n>` — kill the rank after `n` touching messages
    ///   (repeatable: each occurrence adds an independent victim)
    ///
    /// An empty spec (`"7:"`) is the identity schedule. Errors are typed
    /// ([`MpiError::Config`]), never panics.
    pub fn parse(s: &str) -> MpiResult<Self> {
        let bad = |what: String| MpiError::Config(format!("KAMPING_CHAOS: {what}"));
        let (seed, rest) = s
            .split_once(':')
            .ok_or_else(|| bad(format!("expected <seed>:<spec>, got {s:?}")))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| bad(format!("seed must be an integer, got {seed:?}")))?;
        let mut spec = ChaosSpec::new(seed);
        let pct = |v: &str| -> MpiResult<u8> {
            match v.parse::<u8>() {
                Ok(p) if p <= 100 => Ok(p),
                _ => Err(bad(format!("percentage must be 0..=100, got {v:?}"))),
            }
        };
        let count = |v: &str| -> MpiResult<u64> {
            v.parse()
                .map_err(|_| bad(format!("count must be an integer, got {v:?}")))
        };
        let rank = |v: &str| -> MpiResult<usize> {
            v.parse()
                .map_err(|_| bad(format!("rank must be an integer, got {v:?}")))
        };
        for directive in rest.split(',').filter(|d| !d.is_empty()) {
            let (key, value) = directive
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key=value, got {directive:?}")))?;
            match key {
                "delay" => {
                    let (p, ms) = value
                        .split_once('@')
                        .ok_or_else(|| bad(format!("delay wants <pct>@<ms>, got {value:?}")))?;
                    spec.delay_pct = pct(p)?;
                    spec.delay = Duration::from_millis(count(ms)?);
                }
                "sever" => {
                    let (link, n) = value.split_once('@').ok_or_else(|| {
                        bad(format!("sever wants <src>-><dest>@<n>, got {value:?}"))
                    })?;
                    let (src, dest) = link.split_once("->").ok_or_else(|| {
                        bad(format!("sever wants <src>-><dest>@<n>, got {value:?}"))
                    })?;
                    spec.sever = Some(Sever {
                        src: rank(src)?,
                        dest: rank(dest)?,
                        after: count(n)?,
                    });
                }
                "kill" => {
                    let (r, n) = value
                        .split_once('@')
                        .ok_or_else(|| bad(format!("kill wants <rank>@<n>, got {value:?}")))?;
                    spec.kills.push(Kill {
                        rank: rank(r)?,
                        after: count(n)?,
                    });
                }
                other => return Err(bad(format!("unknown directive {other:?}"))),
            }
        }
        Ok(spec)
    }
}

/// SplitMix64 finalizer: the deterministic per-message decision hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The delay fault's hash stream: changing it changes every delay schedule.
const FAULT_DELAY: u64 = 3;

/// One entry of the delay queue, ordered by (release time, push order).
struct Delayed {
    at: Instant,
    seq: u64,
    chan: usize,
    dest: usize,
    env: Envelope,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse to pop the earliest release
        // first, breaking ties by push order (FIFO).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Shared state of the background delivery thread.
struct DelayQueue {
    heap: BinaryHeap<Delayed>,
    /// Monotonic release stamp per channel: a later message on a channel
    /// with queued predecessors is released no earlier than they are.
    release: HashMap<usize, Instant>,
    /// Queued (not yet delivered) envelopes per channel.
    pending: HashMap<usize, usize>,
    seq: u64,
    /// Set at shutdown: flush everything immediately, then exit.
    closing: bool,
}

struct Delayer {
    queue: Mutex<DelayQueue>,
    cond: Condvar,
}

impl Delayer {
    fn new() -> Self {
        Self {
            queue: Mutex::new(DelayQueue {
                heap: BinaryHeap::new(),
                release: HashMap::new(),
                pending: HashMap::new(),
                seq: 0,
                closing: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Drains the queue in release order, posting into `inner`. Runs on a
    /// dedicated thread until [`ChaosTransport::shutdown`] closes it.
    fn run(&self, inner: &Arc<dyn Transport>) {
        loop {
            let item = {
                let mut q = self.queue.lock().expect("delay queue poisoned");
                loop {
                    let now = Instant::now();
                    match q.heap.peek() {
                        None if q.closing => return,
                        None => {
                            q = self.cond.wait(q).expect("delay queue poisoned");
                        }
                        // On close, remaining traffic is flushed immediately:
                        // shutdown must not lose in-flight messages.
                        Some(d) if q.closing || d.at <= now => {
                            break q.heap.pop().expect("peeked entry present");
                        }
                        Some(d) => {
                            let wait = d.at - now;
                            q = self
                                .cond
                                .wait_timeout(q, wait)
                                .expect("delay queue poisoned")
                                .0;
                        }
                    }
                }
            };
            inner.post(item.dest, item.env);
            // Decrement *after* the post: senders seeing pending > 0 keep
            // routing through the queue, so a direct post can never
            // overtake an envelope that is mid-delivery here.
            let mut q = self.queue.lock().expect("delay queue poisoned");
            if let Some(n) = q.pending.get_mut(&item.chan) {
                *n -= 1;
                if *n == 0 {
                    q.pending.remove(&item.chan);
                    q.release.remove(&item.chan);
                }
            }
            // Wake quiesce() waiters watching for the queue to run dry.
            self.cond.notify_all();
        }
    }

    /// Blocks until every queued envelope has been handed to the inner
    /// transport (used by [`ChaosTransport::quiesce`]).
    fn drain(&self) {
        let mut q = self.queue.lock().expect("delay queue poisoned");
        while !(q.heap.is_empty() && q.pending.is_empty()) {
            q = self.cond.wait(q).expect("delay queue poisoned");
        }
    }
}

/// The fault-injecting [`Transport`] wrapper. See the module docs for the
/// fault taxonomy and the determinism contract.
pub(crate) struct ChaosTransport {
    inner: Arc<dyn Transport>,
    spec: ChaosSpec,
    size: usize,
    /// Per-(src → dest) message counters; the determinism anchor.
    chan_seq: Vec<AtomicU64>,
    /// Messages seen touching each kill victim (parallel to `spec.kills`).
    touches: Vec<AtomicU64>,
    /// Whether each kill has fired (the victim's traffic is cut).
    killed: Vec<AtomicBool>,
    /// Where an injected `Failed` mark is applied locally.
    sink: Mutex<Option<Weak<dyn ControlSink>>>,
    delayer: Option<Arc<Delayer>>,
    delivery: Mutex<Option<JoinHandle<()>>>,
    /// Trace context for fault-injection events, bound post-construction
    /// (the wrapper is built before the universe that owns the context).
    trace: OnceLock<Arc<TraceCtx>>,
}

impl ChaosTransport {
    /// Wraps `inner`, injecting faults per `spec`. `size` is the number of
    /// global ranks (bounds the per-channel counter table).
    pub(crate) fn new(inner: Arc<dyn Transport>, size: usize, spec: ChaosSpec) -> Self {
        let delayer = (spec.delay_pct > 0).then(|| Arc::new(Delayer::new()));
        let delivery = delayer.as_ref().map(|d| {
            let d = Arc::clone(d);
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("kamping-chaos-delay".into())
                .spawn(move || d.run(&inner))
                .expect("spawning chaos delivery thread")
        });
        let touches = spec.kills.iter().map(|_| AtomicU64::new(0)).collect();
        let killed = spec.kills.iter().map(|_| AtomicBool::new(false)).collect();
        Self {
            inner,
            spec,
            size,
            chan_seq: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            touches,
            killed,
            sink: Mutex::new(None),
            delayer,
            delivery: Mutex::new(delivery),
            trace: OnceLock::new(),
        }
    }

    /// Binds the universe's trace context so injected faults appear in the
    /// event stream. Idempotent; the first binding wins.
    pub(crate) fn bind_trace(&self, trace: Arc<TraceCtx>) {
        let _ = self.trace.set(trace);
    }

    /// Records one injected fault on the envelope `src → dst` as a trace
    /// event and as a count on `rank`'s block (no-op when both are off or
    /// no context is bound): a mangled envelope counts at its destination,
    /// whose traffic a dashboard reader is watching; a death at its victim.
    fn trace_fault(&self, rank: usize, src: usize, dst: usize, fault: &'static str) {
        let Some(t) = self.trace.get() else { return };
        let c = match fault {
            "delay" => Counter::FaultsDelayed,
            "sever" => Counter::FaultsSevered,
            _ => Counter::FaultsKilled,
        };
        t.count(rank, c, 1);
        t.event(|| EventKind::Chaos {
            src: src as u32,
            dst: dst as u32,
            fault,
        });
    }

    /// Binds where an injected rank death is applied locally (the universe
    /// state). Idempotent; without a sink the kill still cuts traffic and
    /// broadcasts `Failed` to remote ranks.
    pub(crate) fn bind_sink(&self, sink: Weak<dyn ControlSink>) {
        *self.sink.lock().expect("chaos sink poisoned") = Some(sink);
    }

    /// Whether the seeded roll in `0..100` for message `seq` of `chan`
    /// falls below `delay_pct`.
    fn delays(&self, chan: usize, seq: u64) -> bool {
        let stream = splitmix64(self.spec.seed ^ FAULT_DELAY);
        let h = splitmix64(splitmix64(stream ^ chan as u64) ^ seq);
        h % 100 < u64::from(self.spec.delay_pct)
    }

    /// True once any kill victim on this message's channel has its traffic
    /// cut. Counts the message against every matching victim's budget and
    /// fires each death when its budget is exhausted.
    fn kill_cuts(&self, src: usize, dest: usize) -> bool {
        let mut cut = false;
        for (i, kill) in self.spec.kills.iter().enumerate() {
            if src != kill.rank && dest != kill.rank {
                continue;
            }
            if self.killed[i].load(Ordering::Acquire) {
                cut = true;
                continue;
            }
            let n = self.touches[i].fetch_add(1, Ordering::AcqRel);
            if n < kill.after {
                continue;
            }
            if !self.killed[i].swap(true, Ordering::AcqRel) {
                self.trace_fault(kill.rank, src, dest, "kill");
                // Mirror UniverseState::mark_failed: apply locally through
                // the sink (which kicks mailboxes and the hub), broadcast
                // to remote ranks over the real backend.
                let sink = self
                    .sink
                    .lock()
                    .expect("chaos sink poisoned")
                    .as_ref()
                    .and_then(Weak::upgrade);
                if let Some(sink) = sink {
                    sink.apply(ControlMsg::Failed { rank: kill.rank });
                }
                self.inner.control(ControlMsg::Failed { rank: kill.rank });
                self.inner.kick_local();
            }
            cut = true;
        }
        cut
    }

    /// Delivers one envelope, routing through the delay queue when the
    /// delay fault hit — or when the channel already has queued traffic,
    /// which is what keeps delay FIFO-preserving per channel.
    fn route(&self, chan: usize, dest: usize, env: Envelope, delayed: bool) {
        if let Some(delayer) = &self.delayer {
            let mut q = delayer.queue.lock().expect("delay queue poisoned");
            let queued = q.pending.get(&chan).copied().unwrap_or(0) > 0;
            if delayed || queued {
                let floor = q.release.get(&chan).copied();
                let at = if delayed {
                    let target = Instant::now() + self.spec.delay;
                    floor.map_or(target, |f| f.max(target))
                } else {
                    floor.unwrap_or_else(Instant::now)
                };
                q.release.insert(chan, at);
                *q.pending.entry(chan).or_insert(0) += 1;
                let seq = q.seq;
                q.seq += 1;
                q.heap.push(Delayed {
                    at,
                    seq,
                    chan,
                    dest,
                    env,
                });
                delayer.cond.notify_all();
                return;
            }
        }
        self.inner.post(dest, env);
    }

    /// Closes the delay queue — the delivery thread flushes what it still
    /// holds, then exits — and joins that thread. Idempotent: a second call
    /// finds no handle left to join.
    fn stop_delivery(&self) {
        let Some(delayer) = &self.delayer else { return };
        delayer.queue.lock().expect("delay queue poisoned").closing = true;
        delayer.cond.notify_all();
        let handle = self
            .delivery
            .lock()
            .expect("delivery handle poisoned")
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Transport for ChaosTransport {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn post(&self, dest: usize, envelope: Envelope) {
        let src = envelope.src;
        if self.kill_cuts(src, dest) {
            self.trace_fault(dest, src, dest, "sever");
            return;
        }
        let chan = src * self.size + dest;
        let seq = self.chan_seq[chan].fetch_add(1, Ordering::Relaxed);
        if let Some(sv) = self.spec.sever {
            if sv.src == src && sv.dest == dest && seq >= sv.after {
                self.trace_fault(dest, src, dest, "sever");
                return;
            }
        }
        let delayed = self.delays(chan, seq);
        if delayed {
            self.trace_fault(dest, src, dest, "delay");
        }
        self.route(chan, dest, envelope, delayed);
    }

    fn mailbox(&self, rank: usize) -> &Mailbox {
        self.inner.mailbox(rank)
    }

    fn is_local(&self, rank: usize) -> bool {
        self.inner.is_local(rank)
    }

    fn locality(&self, rank: usize) -> crate::transport::Locality {
        self.inner.locality(rank)
    }

    fn max_payload(&self) -> usize {
        self.inner.max_payload()
    }

    fn control(&self, msg: ControlMsg) {
        // Control events (failure marks, barrier arrivals) pass through
        // unharmed: chaos injects faults into *data*, the failure-detection
        // plane itself must stay truthful for errors to be typed.
        self.inner.control(msg);
    }

    fn kick_local(&self) {
        self.inner.kick_local();
    }

    fn quiesce(&self) {
        // Without this, a rank's Finished announcement (control plane,
        // never delayed) could overtake its own data still sitting in the
        // delay queue — peers would see the rank as gone while messages it
        // owes them are milliseconds away, turning an injected *delay*
        // into a spurious ProcFailed.
        if let Some(delayer) = &self.delayer {
            delayer.drain();
        }
        self.inner.quiesce();
    }

    fn shutdown(&self) {
        self.stop_delivery();
        self.inner.shutdown();
    }
}

impl Drop for ChaosTransport {
    fn drop(&mut self) {
        // A universe torn down without an explicit shutdown (the shm happy
        // path) must still stop the delivery thread.
        self.stop_delivery();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::METRICS;
    use crate::transport::{Hub, MatchKey, Payload, ShmTransport};

    fn spec(directives: &str) -> ChaosSpec {
        ChaosSpec::parse(&format!("7:{directives}")).unwrap()
    }

    #[test]
    fn parse_full_grammar() {
        let s = ChaosSpec::parse("42:delay=20@3,sever=0->1@2,kill=3@9").unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.delay_pct, 20);
        assert_eq!(s.delay, Duration::from_millis(3));
        assert_eq!(
            s.sever,
            Some(Sever {
                src: 0,
                dest: 1,
                after: 2
            })
        );
        assert_eq!(s.kills, vec![Kill { rank: 3, after: 9 }]);
        assert_eq!(ChaosSpec::parse("9:").unwrap(), ChaosSpec::new(9));
        // The kill directive repeats: each occurrence is its own victim.
        let multi = ChaosSpec::parse("7:kill=1@4,kill=2@9").unwrap();
        assert_eq!(
            multi.kills,
            vec![Kill { rank: 1, after: 4 }, Kill { rank: 2, after: 9 }]
        );
    }

    #[test]
    fn parse_rejections_are_typed() {
        for bad in [
            "no-colon",
            "x:delay=10@1",
            "1:delay=101@1",
            "1:delay",
            "1:delay=10",
            "1:sever=0@3",
            "1:sever=a->b@3",
            "1:kill=1",
            "1:warp=9",
            // No conforming transport loses, duplicates or reorders.
            "1:drop=10",
            "1:dup=5",
            "1:reorder=3",
        ] {
            let err = ChaosSpec::parse(bad).unwrap_err();
            assert!(
                matches!(err, MpiError::Config(_)),
                "{bad:?} must yield a Config error, got {err:?}"
            );
        }
    }

    /// A chaos layer over a fresh shm backend with a metrics-enabled trace
    /// context bound, so the injected faults land in the stats block.
    fn metered(size: usize, spec: ChaosSpec) -> (ChaosTransport, Arc<TraceCtx>) {
        let inner = Arc::new(ShmTransport::new(
            size,
            &Arc::new(Hub::new()),
            &TraceCtx::disabled(size),
        ));
        let chaos = ChaosTransport::new(inner, size, spec);
        let trace = Arc::new(TraceCtx::new(size, METRICS));
        chaos.bind_trace(Arc::clone(&trace));
        (chaos, trace)
    }

    /// `c` summed over every rank's block.
    fn faults(trace: &TraceCtx, c: Counter) -> u64 {
        (0..trace.size())
            .map(|r| trace.rank(r).snapshot().counter(c))
            .sum()
    }

    fn env(src: usize, tag: crate::Tag, body: u8) -> Envelope {
        Envelope {
            src,
            tag,
            ctx: 0,
            payload: Payload::from_slice(&[body]),
            ack: None,
        }
    }

    fn drain(mb: &Mailbox, src: usize) -> Vec<u8> {
        let key = MatchKey {
            src,
            tag: crate::ANY_TAG,
            ctx: 0,
        };
        let mut out = Vec::new();
        while let Some(d) = mb.try_take(key) {
            out.push(d.payload.as_slice()[0]);
        }
        out
    }

    #[test]
    fn identity_spec_is_transparent() {
        let (chaos, trace) = metered(2, ChaosSpec::new(1));
        for i in 0..20 {
            chaos.post(1, env(0, 0, i));
        }
        chaos.shutdown();
        assert_eq!(drain(chaos.mailbox(1), 0), (0..20).collect::<Vec<_>>());
        for c in [
            Counter::FaultsDelayed,
            Counter::FaultsSevered,
            Counter::FaultsKilled,
        ] {
            assert_eq!(faults(&trace, c), 0, "{c:?}");
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let delayed = |seed: u64| {
            let (chaos, trace) =
                metered(2, ChaosSpec::parse(&format!("{seed}:delay=40@1")).unwrap());
            for i in 0..64 {
                chaos.post(1, env(0, 0, i));
            }
            chaos.shutdown();
            assert_eq!(drain(chaos.mailbox(1), 0), (0..64).collect::<Vec<_>>());
            faults(&trace, Counter::FaultsDelayed)
        };
        let a = delayed(12345);
        assert_eq!(a, delayed(12345), "same seed must delay the same count");
        assert!(a > 0 && a < 64, "delay=40 must hit some messages, got {a}");
        let schedule = |seed: u64| {
            let (chaos, _) = metered(2, ChaosSpec::parse(&format!("{seed}:delay=40@1")).unwrap());
            (0..64).map(|seq| chaos.delays(1, seq)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(12345), schedule(12345));
        assert_ne!(
            schedule(12345),
            schedule(54321),
            "distinct seeds must produce distinct schedules"
        );
    }

    #[test]
    fn delay_preserves_channel_fifo() {
        let (chaos, trace) = metered(2, spec("delay=50@5"));
        for i in 0..32 {
            chaos.post(1, env(0, 0, i));
        }
        chaos.shutdown();
        assert_eq!(
            drain(chaos.mailbox(1), 0),
            (0..32).collect::<Vec<_>>(),
            "delay models a slow link, not a reordering one"
        );
        assert!(faults(&trace, Counter::FaultsDelayed) > 0);
    }

    #[test]
    fn sever_is_directional_and_counted() {
        let (chaos, trace) = metered(2, spec("sever=0->1@2"));
        for i in 0..6 {
            chaos.post(1, env(0, 0, i));
            chaos.post(0, env(1, 0, i));
        }
        chaos.shutdown();
        assert_eq!(drain(chaos.mailbox(1), 0), vec![0, 1], "cut after 2");
        assert_eq!(
            drain(chaos.mailbox(0), 1),
            (0..6).collect::<Vec<_>>(),
            "reverse direction unaffected"
        );
        assert_eq!(faults(&trace, Counter::FaultsSevered), 4);
        assert_eq!(faults(&trace, Counter::FaultsKilled), 0);
    }

    #[test]
    fn kill_cuts_both_directions_and_broadcasts_once() {
        let (chaos, trace) = metered(3, spec("kill=1@2"));
        for i in 0..4 {
            chaos.post(1, env(0, 0, i)); // touches rank 1
            chaos.post(2, env(0, 0, i)); // does not
        }
        for i in 0..4 {
            chaos.post(2, env(1, 0, i)); // victim sending: cut after death
        }
        chaos.shutdown();
        assert_eq!(drain(chaos.mailbox(1), 0), vec![0, 1]);
        assert_eq!(drain(chaos.mailbox(2), 0), (0..4).collect::<Vec<_>>());
        assert_eq!(drain(chaos.mailbox(2), 1), Vec::<u8>::new());
        // One death, counted once on the victim; the six envelopes its cut
        // discarded count as severed.
        let killed = |r: usize| trace.rank(r).snapshot().counter(Counter::FaultsKilled);
        assert_eq!((killed(0), killed(1), killed(2)), (0, 1, 0));
        assert_eq!(faults(&trace, Counter::FaultsSevered), 6);
    }

    /// Every channel of a 4-rank universe under delay + sever + kill: each
    /// receiver gets a FIFO prefix of every channel, what arrives is what
    /// was posted minus what the stats block counts as severed, and the
    /// outcome repeats exactly under the same seed.
    #[test]
    fn every_channel_delivers_a_prefix_and_conserves_messages() {
        const RANKS: usize = 4;
        const PER_CHANNEL: u8 = 60;
        let run = |seed: u64| {
            let spec = ChaosSpec::parse(&format!("{seed}:delay=25@1,sever=0->1@20,kill=3@100"));
            let (chaos, trace) = metered(RANKS, spec.unwrap());
            let mut posted = 0;
            for i in 0..PER_CHANNEL {
                for src in 0..RANKS {
                    for dest in (0..RANKS).filter(|&d| d != src) {
                        chaos.post(dest, env(src, 0, i));
                        posted += 1;
                    }
                }
            }
            // Joins the delay thread: nothing is left in flight.
            chaos.shutdown();
            let got: Vec<Vec<u8>> = (0..RANKS * RANKS)
                .map(|chan| drain(chaos.mailbox(chan % RANKS), chan / RANKS))
                .collect();
            for (chan, msgs) in got.iter().enumerate() {
                let prefix: Vec<u8> = (0..msgs.len() as u8).collect();
                assert_eq!(msgs, &prefix, "seed {seed}: channel {chan} is not a prefix");
            }
            assert_eq!(got[1].len(), 20, "seed {seed}: 0 -> 1 is cut after 20");
            let delivered: u64 = got.iter().map(|m| m.len() as u64).sum();
            let severed = faults(&trace, Counter::FaultsSevered);
            assert_eq!(delivered, posted - severed, "seed {seed}: conservation");
            assert_eq!(faults(&trace, Counter::FaultsKilled), 1, "seed {seed}");
            (got, severed, faults(&trace, Counter::FaultsDelayed))
        };
        for seed in [7, 42, 2024] {
            assert_eq!(run(seed), run(seed), "seed {seed}: schedule must repeat");
        }
    }
}
