//! The transport seam and the shared-memory backend.
//!
//! The substrate talks to the outside world through the [`Transport`]
//! trait: depositing envelopes at a destination rank, propagating control
//! events (failure, finish, revocation) to every peer,
//! and flushing traffic at teardown. Two backends implement it:
//!
//! * `ShmTransport` (this module) — all ranks are threads of one process
//!   and every mailbox is directly reachable; control propagation is a
//!   no-op because the fault/barrier state is genuinely shared.
//! * `crate::net::SocketTransport` — each rank is its own OS process;
//!   envelopes travel as length-prefixed frames over per-peer sockets and
//!   control events are broadcast as control frames (see `crate::net`).
//!
//! Either way the *receive side* is identical: envelopes land in the
//! destination rank's [`Mailbox`], so matching semantics (FIFO per source,
//! `ANY_SOURCE` arrival stamps, ack flipping) are defined once, here.
//!
//! A backend that reads messages off a wire delivers in two steps instead
//! of one `post`: with a message's header in hand it asks the mailbox
//! where the payload goes (`Mailbox::dest_for`), reads the payload
//! straight into that, and hands it back (`Mailbox::land`). The answer is
//! the buffer a blocked receive *posted* for exactly this message
//! ([`Sink`], `Mailbox::take_into`) or one exact-size allocation that
//! becomes the envelope's payload — so a large message is copied once on
//! its way in, and into the very buffer its receiver gets back.
//!
//! # The shared-memory mailbox
//!
//! Each rank owns a [`Mailbox`] holding one FIFO *lane per sender*, so
//! concurrent senders never contend on a shared queue lock. Sends are
//! *eager*: the sender wraps its bytes in a [`Payload`] and deposits an
//! [`Envelope`] in the receiver's lane, so a standard-mode send always
//! completes locally (as buffered sends do in practice for small messages in
//! real MPI). Synchronous-mode sends (`issend`) additionally carry an
//! acknowledgement cell that the receiver flips when the message is
//! *matched* — the completion semantics the NBX sparse all-to-all algorithm
//! (Hoefler et al., reproduced in `kamping-plugins`) relies on.
//!
//! Payloads are zero-copy on the fan-out path: a broadcast posts one shared
//! allocation (`Arc<Vec<u8>>`) to every child instead of copying per
//! receiver, and messages of at most [`INLINE_CAP`] bytes ride inline in the
//! envelope without touching the heap at all.
//!
//! A receiver that finds nothing stays runnable for one `PATIENCE` (about
//! what a sleep and its wake cost), re-attempting and yielding the core in
//! between, and then sleeps on the mailbox's *gate*, an event count. A
//! sleeping receiver never polls: a deposit bumps the gate's epoch and wakes
//! it, failure/revocation events `Mailbox::kick` every mailbox, so sleeps
//! carry no timeout — and a deposit that finds nobody asleep pays one
//! atomic add, no lock and no system call. The gate is the only thing a
//! rank ever sleeps on: the acknowledgement of its own synchronous-mode
//! send bumps it too, so a wait for "a message, my ack or a fault" is one
//! wait.
//!
//! Matching is FIFO per (source, tag, context): the receiver scans the
//! sender's lane front-to-back and takes the first envelope that matches,
//! which preserves MPI's non-overtaking guarantee. `ANY_SOURCE` receives
//! pick the matching envelope with the lowest arrival stamp across lanes,
//! so cross-sender matching follows arrival order deterministically.

use std::any::Any;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{MpiError, MpiResult};
use crate::metrics::Counter;
use crate::tag::{source_matches, tag_matches, Tag, ANY_SOURCE, ANY_TAG, COLL_TAG_BASE};
use crate::trace::TraceCtx;

/// Largest payload (bytes) carried inline in the envelope instead of on the
/// heap. Sub-cacheline messages — barrier tokens, counts exchanges, single
/// elements — never allocate.
pub const INLINE_CAP: usize = 32;

/// Message bytes in flight: inline for small messages, shared (refcounted)
/// otherwise so fan-out posts alias one allocation.
#[derive(Debug, Clone)]
pub enum Payload {
    /// At most [`INLINE_CAP`] bytes stored in the envelope itself.
    Inline {
        /// Number of valid bytes in `data`.
        len: u8,
        /// Inline storage; only `data[..len]` is meaningful.
        data: [u8; INLINE_CAP],
    },
    /// Heap bytes, shared across any number of envelopes.
    Shared(Arc<Vec<u8>>),
}

impl Payload {
    /// Packs `bytes`: inline if they fit, one shared allocation otherwise.
    pub fn from_slice(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_CAP {
            let mut data = [0u8; INLINE_CAP];
            data[..bytes.len()].copy_from_slice(bytes);
            Payload::Inline {
                len: bytes.len() as u8,
                data,
            }
        } else {
            Payload::Shared(Arc::new(bytes.to_vec()))
        }
    }

    /// Packs an owned buffer without copying (unless it fits inline, in
    /// which case the allocation is dropped).
    pub(crate) fn from_vec(v: Vec<u8>) -> Self {
        if v.len() <= INLINE_CAP {
            Payload::from_slice(&v)
        } else {
            Payload::Shared(Arc::new(v))
        }
    }

    /// The payload bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Inline { len, data } => &data[..*len as usize],
            Payload::Shared(v) => v,
        }
    }

    /// Payload length in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            Payload::Inline { len, .. } => *len as usize,
            Payload::Shared(v) => v.len(),
        }
    }

    /// True when the bytes ride inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self, Payload::Inline { .. })
    }

    /// Extracts owned bytes. A uniquely-held shared payload (the common
    /// point-to-point case, and the *last* receiver of a fan-out) is
    /// unwrapped without copying.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Inline { len, data } => data[..len as usize].to_vec(),
            Payload::Shared(arc) => Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

/// Acknowledgement cell for synchronous-mode sends.
///
/// In-process the sender holds the same cell the receiver flips. For
/// remote senders the receiving transport attaches a *hook* that runs on
/// the first `AckCell::set` — the socket backend uses it to send the
/// acknowledgement frame back to the origin rank.
#[derive(Default)]
pub struct AckCell {
    matched: AtomicBool,
    on_set: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl std::fmt::Debug for AckCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AckCell")
            .field("matched", &self.is_set())
            .finish_non_exhaustive()
    }
}

impl AckCell {
    /// Creates an unmatched cell whose first [`AckCell::set`] additionally
    /// runs `hook` (used by transports to propagate the ack to a remote
    /// sender).
    pub(crate) fn with_hook(hook: impl FnOnce() + Send + 'static) -> Self {
        Self {
            matched: AtomicBool::new(false),
            on_set: Mutex::new(Some(Box::new(hook))),
        }
    }

    /// Marks the message as matched by a receiver.
    pub(crate) fn set(&self) {
        self.matched.store(true, Ordering::Release);
        let hook = self.on_set.lock().expect("ack hook poisoned").take();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// True once a receiver has matched the message.
    pub(crate) fn is_set(&self) -> bool {
        self.matched.load(Ordering::Acquire)
    }
}

/// A message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Global rank of the sender.
    pub src: usize,
    /// Message tag (user or internal collective space).
    pub tag: Tag,
    /// Context id of the communicator the message travels on.
    pub ctx: u64,
    /// Packed message bytes.
    pub payload: Payload,
    /// Present for synchronous-mode sends; flipped on match.
    pub ack: Option<Arc<AckCell>>,
}

impl Envelope {
    /// The message's (source, tag, context).
    pub(crate) fn key(&self) -> MatchKey {
        MatchKey {
            src: self.src,
            tag: self.tag,
            ctx: self.ctx,
        }
    }
}

/// Matching key for receives and probes. Sources are *global* ranks; the
/// communicator layer translates before calling into the transport. With
/// nothing wild it is also what identifies a message apart from its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchKey {
    /// Wanted global source rank, or [`crate::ANY_SOURCE`].
    pub src: usize,
    /// Wanted tag, or [`crate::ANY_TAG`] (user space only).
    pub tag: Tag,
    /// Context id of the communicator.
    pub ctx: u64,
}

impl MatchKey {
    fn matches(&self, e: &Envelope) -> bool {
        e.ctx == self.ctx && source_matches(self.src, e.src) && tag_matches(self.tag, e.tag)
    }
}

/// Outcome of a successful match.
#[derive(Debug)]
pub struct Delivered {
    /// Actual global source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: Tag,
    /// The message bytes.
    pub payload: Payload,
}

/// An owned destination for one message's payload, chosen by the receiver
/// before the bytes exist: the typed layer's `Vec<T>`, a reused buffer, a
/// plain `Vec<u8>`. A blocking receive *posts* it with the mailbox; the
/// transport thread that reads the matching message off the wire then
/// writes the payload straight into it. `len` is always the payload length
/// of the message at hand, as given to the `reserve` that accepted it.
pub trait Sink: Any + Send {
    /// Makes room for a payload of exactly `len` bytes; `false` refuses it
    /// (too large for this destination, not a whole number of elements).
    /// A refused message is consumed all the same, as in MPI.
    fn reserve(&mut self, len: usize) -> bool;
    /// The room made: `len` bytes, possibly uninitialised.
    fn spare(&mut self, len: usize) -> &mut [MaybeUninit<u8>];
    /// Declares the payload complete.
    ///
    /// # Safety
    /// All `len` bytes of `spare(len)` must have been written.
    unsafe fn commit(&mut self, len: usize);
    /// The committed payload.
    fn filled(&self, len: usize) -> &[u8];

    /// Receives `bytes` as the whole payload: `reserve`, copy, `commit`.
    /// `false` if the sink refused them.
    fn put(&mut self, bytes: &[u8]) -> bool {
        if !self.reserve(bytes.len()) {
            return false;
        }
        let room = self.spare(bytes.len());
        assert_eq!(room.len(), bytes.len(), "sink made the wrong room");
        // SAFETY: `room` is exactly `bytes.len()` long and, being `&mut`,
        // cannot overlap `bytes`; after the copy all of it is written.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), room.as_mut_ptr().cast(), room.len());
            self.commit(bytes.len());
        }
        true
    }
}

impl Sink for Vec<u8> {
    fn reserve(&mut self, len: usize) -> bool {
        self.clear();
        Vec::reserve(self, len);
        true
    }
    fn spare(&mut self, len: usize) -> &mut [MaybeUninit<u8>] {
        &mut self.spare_capacity_mut()[..len]
    }
    unsafe fn commit(&mut self, len: usize) {
        self.set_len(len);
    }
    fn filled(&self, len: usize) -> &[u8] {
        &self[..len]
    }
}

/// Where a transport's reader puts the payload of an arriving message:
/// handed out by [`Mailbox::dest_for`], filled front to back, handed back
/// whole to [`Mailbox::land`].
pub(crate) struct Dest {
    room: Room,
    /// Payload length, and how much of it has been written.
    len: usize,
    filled: usize,
}

enum Room {
    /// Nobody waits for it: one exact-size buffer, the envelope's payload.
    Bytes(Vec<u8>),
    /// The destination the matching receive posted.
    Posted(Box<dyn Sink>),
}

impl Dest {
    /// The part of the payload's room that is still to be written.
    pub(crate) fn rest(&mut self) -> &mut [MaybeUninit<u8>] {
        let room = match &mut self.room {
            Room::Bytes(v) => v.spare(self.len),
            Room::Posted(sink) => sink.spare(self.len),
        };
        &mut room[self.filled..]
    }

    /// Moves the write position on.
    ///
    /// # Safety
    /// The first `n` bytes of [`Dest::rest`] must have been written.
    pub(crate) unsafe fn advance(&mut self, n: usize) {
        self.filled += n;
    }
}

/// The receive posted on one lane, if any (see [`Mailbox::take_into`]).
#[derive(Default)]
enum Posted {
    #[default]
    Idle,
    /// The receiver waits for exactly `key`; its destination lies here.
    Waiting { key: MatchKey, sink: Box<dyn Sink> },
    /// The transport took the destination and is filling it. A receiver
    /// that gives up meanwhile leaves it to become a queued envelope.
    Filling { abandoned: bool },
    /// Filled; the receiver picks it up (and then acknowledges a
    /// synchronous-mode sender).
    Done {
        sink: Box<dyn Sink>,
        len: usize,
        ack: Option<Arc<AckCell>>,
    },
}

impl std::fmt::Debug for Posted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Posted::Idle => "Idle",
            Posted::Waiting { .. } => "Waiting",
            Posted::Filling { .. } => "Filling",
            Posted::Done { .. } => "Done",
        })
    }
}

/// How long a waiter keeps re-attempting before it sleeps: what the sleep
/// and the wake it would otherwise pay cost together on this class of
/// machine, taken at the slow end (a cross-core futex wake reads 30–85 µs
/// from one minute to the next). Waiting that long and then sleeping is
/// never worse than twice the better of the two choices (Karlin et al.,
/// *Empirical Studies of Competitive Spinning*, SOSP '91). The slow end and
/// not the middle, because a sleep is contagious below it: a rank woken
/// late answers late, and a peer whose patience is shorter than that wake
/// falls asleep waiting for the answer — whether a hand-off costs 2 µs or
/// 100 then depends on how fast the box happens to wake threads that
/// minute. It is wall time, not a count of passes: with more runnable
/// threads than cores one `yield_now` outlasts it, and the waiter sleeps
/// after a pass or two instead of spinning through somebody else's time
/// slice.
const PATIENCE: Duration = Duration::from_micros(100);

/// An event count, one per rank under its [`Mailbox`]: what every blocking
/// wait of the rank sleeps on. A poster changes the state the waiter looks
/// at and *then* calls [`Gate::bump`]; a waiter reads the epoch, looks at
/// the state with no lock held, and sleeps only while the epoch is the one
/// it read.
///
/// What bumps a rank's gate: a deposit in its mailbox (or a posted receive
/// filled), a [`Mailbox::kick`] for every failure, finish, revocation and
/// membership mark and for the end of an elastic job, and the
/// acknowledgement of the rank's own synchronous-mode send (the sender's
/// [`AckCell`] hook, whichever thread sets it).
#[derive(Debug, Default)]
struct Gate {
    epoch: AtomicU64,
    /// Waiters between registering for a sleep and having woken from it.
    sleepers: AtomicU32,
    lock: Mutex<()>,
    cond: Condvar,
}

impl Gate {
    /// Moves the epoch on; wakes the sleepers if there are any (`true`).
    ///
    /// With nobody registered this is one atomic add and one load. The
    /// `SeqCst` pair here and in [`Gate::sleep_while`] is Dekker's: either
    /// this load sees the sleeper's registration, or the sleeper's epoch
    /// check sees this add. A bump that sees a sleeper takes the lock before
    /// it notifies, and the sleeper holds that lock from its check until the
    /// condvar has it, so the notification cannot fall in between.
    fn bump(&self) -> bool {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let _lock = self.lock.lock().expect("gate poisoned");
        self.cond.notify_all();
        true
    }

    /// Sleeps until the epoch is no longer `seen` or `deadline` has passed.
    fn sleep_while(&self, seen: u64, deadline: Option<Instant>) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut lock = self.lock.lock().expect("gate poisoned");
        while self.epoch.load(Ordering::SeqCst) == seen {
            lock = match deadline {
                None => self.cond.wait(lock).expect("gate poisoned"),
                Some(d) => {
                    let Some(left) = d.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    self.cond.wait_timeout(lock, left).expect("gate poisoned").0
                }
            };
        }
        drop(lock);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The wait loop of [`Mailbox`], entered after a first
    /// `check` came up empty: re-checks until `check` yields a value, or
    /// gives up with the time waited once `deadline` has passed (after one
    /// last check, so a value racing the deadline is still returned).
    ///
    /// For the first [`PATIENCE`] the waiter stays runnable between checks:
    /// it runs `poll` (the transport's progress hook) and, when that moved
    /// nothing, hands the core to whoever else wants it — two ranks sharing
    /// a core pass it back and forth this way. After that it sleeps, and
    /// every further check follows a bump. `check` runs with no lock held;
    /// whatever it looks at must be changed *before* the bump that
    /// announces the change, which is all that keeps the wait lossless.
    ///
    /// `probe` names the trace context and the rank the wait is attributed
    /// to (blocked time, one `GateSleeps` per sleep).
    fn wait<T>(
        &self,
        probe: Option<(&TraceCtx, u32)>,
        deadline: Option<Instant>,
        poll: impl Fn() -> bool,
        mut check: impl FnMut() -> Option<T>,
    ) -> Result<T, Duration> {
        let start = Instant::now();
        let _blocked = probe.map(|(trace, rank)| trace.blocked(rank));
        loop {
            let seen = self.epoch.load(Ordering::SeqCst);
            if let Some(v) = check() {
                return Ok(v);
            }
            let waited = start.elapsed();
            if deadline.is_some_and(|d| start + waited >= d) {
                return Err(waited);
            }
            if waited < PATIENCE {
                if !poll() {
                    std::thread::yield_now();
                }
            } else {
                if let Some((trace, rank)) = probe {
                    trace.count(rank as usize, Counter::GateSleeps, 1);
                }
                self.sleep_while(seen, deadline);
            }
        }
    }
}

/// Retired: a rank's waits all sleep on its own mailbox's gate. The type
/// stays only as the ignored argument of [`Mailbox::new`], which
/// kbench's layer probes still pass; ROADMAP item 6 (a) deletes both
/// together.
#[derive(Debug, Default)]
pub struct Hub;

impl Hub {
    /// The unit value.
    pub fn new() -> Self {
        Self
    }
}

/// One sender's FIFO of envelopes, stamped with mailbox arrival order.
#[derive(Debug, Default)]
struct Lane {
    queue: Mutex<VecDeque<(u64, Envelope)>>,
    /// Taken before `queue` by whoever needs both; plain deposits and
    /// takes never touch it.
    posted: Mutex<Posted>,
    /// The last large user-tagged message of this lane went into a posted
    /// receive: its rank is receiving this source in a loop and is worth
    /// waiting for (see [`Mailbox::dest_for`]).
    leased: AtomicBool,
}

/// A transport-registered opportunistic progress poll (boxed closure with
/// an inert `Debug`, so the mailbox stays derivable).
struct ProgressPoll(Box<dyn Fn() -> bool + Send + Sync>);

impl std::fmt::Debug for ProgressPoll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressPoll")
    }
}

/// Hook invoked after a collective-tagged envelope lands (and on kicks), so
/// the nonblocking-collective engine can advance this rank's outstanding
/// schedules from whichever thread performed the delivery — shm sender
/// threads, the socket epoll engine's routing, the shm-xproc ring consumer,
/// or a waiting receiver's own progress-poll drain.
struct CollNotify(Box<dyn Fn() + Send + Sync>);

impl std::fmt::Debug for CollNotify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CollNotify")
    }
}

/// Per-rank incoming message store: one lane per (source → this rank) pair.
#[derive(Debug)]
pub struct Mailbox {
    /// Global rank owning this mailbox (labels its trace events).
    owner: usize,
    lanes: Box<[Lane]>,
    /// Arrival stamps; orders `ANY_SOURCE` matching across lanes.
    next_stamp: AtomicU64,
    /// What every wait of the owner sleeps on (see [`Gate`] for what
    /// bumps it).
    gate: Gate,
    /// Lifecycle-event recorder (one relaxed load when disabled).
    trace: Arc<TraceCtx>,
    /// Optional transport progress poll, driven by *waiting* receivers so
    /// a message's delivery need not ride through a helper thread (the
    /// shm-xproc backend drains its inbound rings here). Returns whether
    /// it moved any bytes.
    progress: OnceLock<ProgressPoll>,
    /// Optional nonblocking-collective progress hook; see [`CollNotify`].
    coll_notifier: OnceLock<CollNotify>,
    /// Set by a transport that reads messages off a wire and asks
    /// [`Mailbox::dest_for`] where each payload goes; receives then post
    /// their destinations. In-process deposits are whole envelopes, so the
    /// shared-memory backend leaves it clear.
    wired: AtomicBool,
}

impl Mailbox {
    /// Creates the mailbox of global rank `owner` accepting envelopes from
    /// `n_sources` global ranks and recording lifecycle events into
    /// `trace`. The [`Hub`] argument is unused (see there).
    pub fn new(owner: usize, n_sources: usize, _hub: Arc<Hub>, trace: Arc<TraceCtx>) -> Self {
        Self {
            owner,
            lanes: (0..n_sources).map(|_| Lane::default()).collect(),
            next_stamp: AtomicU64::new(0),
            gate: Gate::default(),
            trace,
            progress: OnceLock::new(),
            coll_notifier: OnceLock::new(),
            wired: AtomicBool::new(false),
        }
    }

    /// Declares that the owning transport delivers through
    /// [`Mailbox::dest_for`] / [`Mailbox::land`].
    pub(crate) fn set_wired(&self) {
        self.wired.store(true, Ordering::Relaxed);
    }

    /// Registers the transport's progress poll (at most once; later calls
    /// are ignored). `poll` must be cheap when there is nothing to do, may
    /// be invoked from any thread that blocks on this mailbox, and may
    /// re-enter [`Mailbox::post`].
    pub(crate) fn set_progress_poll(&self, poll: impl Fn() -> bool + Send + Sync + 'static) {
        let _ = self.progress.set(ProgressPoll(Box::new(poll)));
    }

    /// Registers the nonblocking-collective progress hook (at most once;
    /// later calls are ignored). `notify` is invoked *after* the gate bump
    /// of every collective-tagged deposit and after every [`Mailbox::kick`],
    /// from the delivering thread, with no mailbox lock held. It may take
    /// envelopes from this mailbox and re-enter [`Mailbox::post`] on peers.
    pub(crate) fn set_coll_notifier(&self, notify: impl Fn() + Send + Sync + 'static) {
        let _ = self.coll_notifier.set(CollNotify(Box::new(notify)));
    }

    /// Deposits an envelope and wakes any waiting receiver.
    ///
    /// # Panics
    /// Panics if `envelope.src` is not a valid source for this mailbox.
    pub fn post(&self, envelope: Envelope) {
        self.trace
            .delivered(self.owner, envelope.key(), envelope.payload.len());
        let stamp = self.next_stamp.fetch_add(1, Ordering::Relaxed);
        let tag = envelope.tag;
        {
            let mut q = self.lanes[envelope.src]
                .queue
                .lock()
                .expect("lane poisoned");
            q.push_back((stamp, envelope));
        }
        // The lane is filled (and its lock released) before the epoch moves:
        // a waiter whose scan missed this envelope still has its bump coming.
        self.bump();
        // Collective-tagged traffic additionally drives the i-collective
        // engine from the delivering thread (no lock is held here: the hook
        // may re-enter this mailbox or post to peers).
        if tag >= COLL_TAG_BASE {
            if let Some(n) = self.coll_notifier.get() {
                (n.0)();
            }
        }
    }

    /// Moves the gate epoch on and wakes whoever sleeps on it — the wake
    /// of an acknowledgement, which (unlike [`Mailbox::kick`]) has nothing
    /// for the collective engine. A wake is charged to the owner.
    pub(crate) fn bump(&self) {
        if self.gate.bump() {
            self.trace.count(self.owner, Counter::GateWakes, 1);
        }
    }

    /// Wakes all waiters so they can re-check failure/revocation state.
    pub(crate) fn kick(&self) {
        self.bump();
        // Failure/revocation marks must also reach schedules nobody is
        // waiting on (dropped requests adopted by the engine).
        if let Some(n) = self.coll_notifier.get() {
            (n.0)();
        }
    }

    /// Removes the first matching envelope from one specific lane.
    fn remove_match(&self, lane: usize, key: MatchKey) -> Option<Envelope> {
        let mut q = self.lanes[lane].queue.lock().expect("lane poisoned");
        let idx = q.iter().position(|(_, e)| key.matches(e))?;
        q.remove(idx).map(|(_, e)| e)
    }

    /// A receive consumed the message `msg`: acknowledges a synchronous-mode
    /// sender and records the take. Runs with no mailbox lock held — the
    /// acknowledgement of a remote sender is a frame on the wire.
    fn matched(&self, msg: MatchKey, bytes: usize, ack: Option<&Arc<AckCell>>) {
        if let Some(ack) = ack {
            ack.set();
        }
        self.trace.taken(self.owner, msg, bytes);
    }

    /// [`Mailbox::matched`] for an envelope removed from its lane.
    fn consume(&self, e: Envelope) -> Delivered {
        self.matched(e.key(), e.payload.len(), e.ack.as_ref());
        Delivered {
            src: e.src,
            tag: e.tag,
            payload: e.payload,
        }
    }

    /// Takes the first matching envelope from one specific lane.
    fn try_take_lane(&self, lane: usize, key: MatchKey) -> Option<Delivered> {
        self.remove_match(lane, key).map(|e| self.consume(e))
    }

    /// Lane holding the oldest matching envelope, by arrival stamp.
    ///
    /// Only the owning rank removes envelopes, so the chosen lane's first
    /// match cannot be stolen between the scan and the take.
    fn best_lane(&self, key: MatchKey) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (lane, l) in self.lanes.iter().enumerate() {
            let q = l.queue.lock().expect("lane poisoned");
            if let Some((stamp, _)) = q.iter().find(|(_, e)| key.matches(e)) {
                if best.is_none_or(|(s, _)| *stamp < s) {
                    best = Some((*stamp, lane));
                }
            }
        }
        best.map(|(_, lane)| lane)
    }

    /// Removes and returns the first matching envelope, if any.
    ///
    /// Flips the `ack` cell of synchronous-mode messages.
    pub fn try_take(&self, key: MatchKey) -> Option<Delivered> {
        if key.src != ANY_SOURCE {
            return self.try_take_lane(key.src, key);
        }
        let lane = self.best_lane(key)?;
        self.try_take_lane(lane, key)
    }

    /// Returns (source, tag, byte length) of the first matching envelope
    /// without removing it (`MPI_Iprobe`).
    pub(crate) fn try_peek(&self, key: MatchKey) -> Option<(usize, Tag, usize)> {
        let peek_lane = |lane: &Lane| {
            let q = lane.queue.lock().expect("lane poisoned");
            q.iter()
                .find(|(_, e)| key.matches(e))
                .map(|(_, e)| (e.src, e.tag, e.payload.len()))
        };
        if key.src != ANY_SOURCE {
            return peek_lane(&self.lanes[key.src]);
        }
        let lane = self.best_lane(key)?;
        peek_lane(&self.lanes[lane])
    }

    /// Blocks until a matching envelope arrives, re-invoking `interrupt` on
    /// every wakeup to learn about failures or revocation.
    ///
    /// `interrupt` returns `Some(err)` when the wait must be abandoned (the
    /// awaited peer died, or the communicator was revoked). Once the wait
    /// sleeps, deposits and `Mailbox::kick` are its only wake sources.
    pub fn take_blocking(
        &self,
        key: MatchKey,
        interrupt: &dyn Fn() -> Option<MpiError>,
    ) -> MpiResult<Delivered> {
        self.wait_until(interrupt, None, |mb| mb.try_take(key))
    }

    /// Like [`Mailbox::take_blocking`], but gives up at `deadline` with
    /// [`MpiError::Timeout`] — the bounded receive that chaos testing and
    /// hung-peer detection rely on. `deadline: None` waits forever.
    pub(crate) fn take_blocking_deadline(
        &self,
        key: MatchKey,
        interrupt: &dyn Fn() -> Option<MpiError>,
        deadline: Option<Instant>,
    ) -> MpiResult<Delivered> {
        self.wait_until(interrupt, deadline, |mb| mb.try_take(key))
    }

    /// Blocks until a matching envelope is available and returns its
    /// (source, tag, length) without consuming it (`MPI_Probe`); gives up
    /// at `deadline` with [`MpiError::Timeout`].
    pub(crate) fn peek_blocking(
        &self,
        key: MatchKey,
        interrupt: &dyn Fn() -> Option<MpiError>,
        deadline: Option<Instant>,
    ) -> MpiResult<(usize, Tag, usize)> {
        self.wait_until(interrupt, deadline, |mb| mb.try_peek(key))
    }

    /// Copies a taken message into `sink` (unless the sink refuses it) and
    /// returns its (source, tag, byte length).
    fn pour<S: Sink>(&self, d: Delivered, sink: &mut S) -> (usize, Tag, usize) {
        let bytes = d.payload.as_slice();
        if sink.put(bytes) {
            self.trace.payload_moved(self.owner, bytes.len(), 1, 0);
        }
        (d.src, d.tag, bytes.len())
    }

    /// Blocks until a message matching `key` has been received *into*
    /// `sink`; returns its (source, tag, byte length). `interrupt` and
    /// `deadline` are those of [`Mailbox::take_blocking_deadline`].
    ///
    /// A message that is already queued is copied out of its envelope — all
    /// the in-process backend ever does, with nothing registered and nothing
    /// boxed. Otherwise, on a wired mailbox and with nothing wild in `key`,
    /// the sink is *posted* on the source's lane and the transport thread
    /// reading that source writes the payload into it straight off the wire
    /// ([`Mailbox::dest_for`]), unless an earlier match is queued: the lane
    /// is FIFO and has one reader, so that check is all MPI's order needs.
    ///
    /// The sink comes back filled or untouched, with one exception: a
    /// receive given up (interrupt, deadline) while the transport is in the
    /// middle of its payload leaves `S::default()`; the payload, once whole,
    /// is queued as an ordinary envelope.
    pub(crate) fn take_into<S: Sink + Default>(
        &self,
        key: MatchKey,
        sink: &mut S,
        interrupt: &dyn Fn() -> Option<MpiError>,
        deadline: Option<Instant>,
    ) -> MpiResult<(usize, Tag, usize)> {
        if let Some(d) = self.try_take(key) {
            return Ok(self.pour(d, sink));
        }
        let postable =
            self.wired.load(Ordering::Relaxed) && key.src != ANY_SOURCE && key.tag != ANY_TAG;
        if postable {
            let mut slot = self.lanes[key.src].posted.lock().expect("lane poisoned");
            // One posted receive per lane; a second thread of this rank
            // receiving from the same source waits the ordinary way.
            if matches!(*slot, Posted::Idle) {
                let boxed = Box::new(std::mem::take(sink));
                *slot = Posted::Waiting { key, sink: boxed };
                drop(slot);
                return self.await_posted(key, sink, interrupt, deadline);
            }
        }
        let d = self.wait_slow(interrupt, deadline, |mb| mb.try_take(key))?;
        Ok(self.pour(d, sink))
    }

    /// The wait of [`Mailbox::take_into`] once `key`'s lane holds its sink.
    fn await_posted<S: Sink + Default>(
        &self,
        key: MatchKey,
        sink: &mut S,
        interrupt: &dyn Fn() -> Option<MpiError>,
        deadline: Option<Instant>,
    ) -> MpiResult<(usize, Tag, usize)> {
        /// How the posted receive was served.
        enum Got {
            Filled(Box<dyn Sink>, usize, Option<Arc<AckCell>>),
            Queued(Envelope, Box<dyn Sink>),
        }
        let lane = &self.lanes[key.src];
        let back = |boxed: Box<dyn Sink>| -> S {
            let any: Box<dyn Any> = boxed;
            *any.downcast().expect("the sink this receive posted")
        };
        let waited = self.wait_slow(interrupt, deadline, |mb| {
            let mut slot = lane.posted.lock().expect("lane poisoned");
            match std::mem::take(&mut *slot) {
                Posted::Done { sink, len, ack } => Some(Got::Filled(sink, len, ack)),
                // The transport declined the sink (small message, earlier
                // match, refused size): the message is in the queue.
                Posted::Waiting { key, sink } => match mb.remove_match(key.src, key) {
                    Some(e) => Some(Got::Queued(e, sink)),
                    None => {
                        *slot = Posted::Waiting { key, sink };
                        None
                    }
                },
                // The message this receive is matched with is on its way
                // in: nothing that is queued meanwhile may overtake it.
                filling => {
                    *slot = filling;
                    None
                }
            }
        });
        let got = waited.or_else(|err| {
            let mut slot = lane.posted.lock().expect("lane poisoned");
            match std::mem::take(&mut *slot) {
                Posted::Waiting { sink: boxed, .. } => *sink = back(boxed),
                Posted::Filling { .. } => *slot = Posted::Filling { abandoned: true },
                // Completed while this receive was giving up: delivered.
                Posted::Done { sink, len, ack } => return Ok(Got::Filled(sink, len, ack)),
                Posted::Idle => unreachable!("only its receiver clears a posted lane"),
            }
            Err(err)
        })?;
        match got {
            Got::Filled(boxed, len, ack) => {
                *sink = back(boxed);
                self.matched(key, len, ack.as_ref());
                Ok((key.src, key.tag, len))
            }
            Got::Queued(e, boxed) => {
                *sink = back(boxed);
                Ok(self.pour(self.consume(e), sink))
            }
        }
    }

    /// True while a receive from `src` has its destination posted
    /// (diagnostics / tests only).
    pub fn posted_from(&self, src: usize) -> bool {
        !matches!(
            *self.lanes[src].posted.lock().expect("lane poisoned"),
            Posted::Idle
        )
    }

    /// Where the `len` payload bytes of the arriving message `msg` go —
    /// asked by the transport as soon as it has read the message's header.
    /// The destination a receive posted, iff that receive waits for exactly
    /// `msg`, no earlier match is queued, the payload is not inline-sized
    /// and the sink accepts it; one exact-size buffer otherwise.
    ///
    /// A `patient` caller (a helper thread that can leave the payload on
    /// the wire for now) is told `None`, "ask again", where a buffer would
    /// pre-empt a receive that is about to be posted: the previous large
    /// user message of this lane was received posted, this one is not yet.
    ///
    /// # Panics
    /// Panics if `msg.src` is no source of this mailbox.
    pub(crate) fn dest_for(&self, msg: MatchKey, len: usize, patient: bool) -> Option<Dest> {
        let lane = &self.lanes[msg.src];
        let filled = 0;
        if len > INLINE_CAP && msg.tag < COLL_TAG_BASE {
            let mut slot = lane.posted.lock().expect("lane poisoned");
            if let Posted::Waiting { key, sink } = &mut *slot {
                let earlier = || {
                    let q = lane.queue.lock().expect("lane poisoned");
                    q.iter().any(|(_, e)| msg.matches(e))
                };
                if *key == msg && !earlier() && sink.reserve(len) {
                    let filling = Posted::Filling { abandoned: false };
                    if let Posted::Waiting { sink, .. } = std::mem::replace(&mut *slot, filling) {
                        lane.leased.store(true, Ordering::Relaxed);
                        let room = Room::Posted(sink);
                        return Some(Dest { room, len, filled });
                    }
                }
            }
            if patient && lane.leased.load(Ordering::Relaxed) {
                return None;
            }
            lane.leased.store(false, Ordering::Relaxed);
        }
        self.trace.payload_moved(self.owner, len, 0, 1);
        let room = Room::Bytes(Vec::with_capacity(len));
        Some(Dest { room, len, filled })
    }

    /// The message `msg` has arrived whole in `dest`, which
    /// [`Mailbox::dest_for`] handed out for it: wakes the receiver whose
    /// sink it is (`true`), or deposits the envelope.
    pub(crate) fn land(&self, msg: MatchKey, dest: Dest, ack: Option<Arc<AckCell>>) -> bool {
        let len = dest.len;
        assert_eq!(dest.filled, len, "payload landed incomplete");
        self.trace.payload_moved(self.owner, len, 1, 0);
        let payload = match dest.room {
            Room::Bytes(mut bytes) => {
                // SAFETY: all `len` bytes are written (`Dest::advance`).
                unsafe { bytes.commit(len) };
                Payload::from_vec(bytes)
            }
            Room::Posted(mut sink) => {
                // SAFETY: as above.
                unsafe { sink.commit(len) };
                let mut slot = self.lanes[msg.src].posted.lock().expect("lane poisoned");
                if matches!(*slot, Posted::Filling { abandoned: false }) {
                    *slot = Posted::Done { sink, len, ack };
                    drop(slot);
                    self.trace.delivered(self.owner, msg, len);
                    self.bump();
                    return true;
                }
                *slot = Posted::Idle;
                Payload::from_slice(sink.filled(len))
            }
        };
        let (src, tag, ctx) = (msg.src, msg.tag, msg.ctx);
        self.post(Envelope {
            src,
            tag,
            ctx,
            payload,
            ack,
        });
        false
    }

    /// Waits on this mailbox until `attempt` yields a value, `interrupt`
    /// reports an error, or `deadline` passes — the one wait of a rank:
    /// the take/peek entry points, request, collective, synchronous-send,
    /// ULFM and membership waits and NBX all come here (`attempt` steps
    /// whatever they wait for; every event they wait for bumps this
    /// mailbox's gate, so no wake-up is lost even when a delivering thread
    /// consumed the envelope itself). `attempt` always runs with no mailbox
    /// lock held: schedule steps post to peers, and on the shm backend the
    /// resulting notifier chain can re-enter [`Mailbox::post`] on this very
    /// mailbox from this very thread.
    pub(crate) fn wait_until<T>(
        &self,
        interrupt: &dyn Fn() -> Option<MpiError>,
        deadline: Option<Instant>,
        mut attempt: impl FnMut(&Self) -> Option<T>,
    ) -> MpiResult<T> {
        if let Some(hit) = attempt(self) {
            return Ok(hit);
        }
        self.wait_slow(interrupt, deadline, attempt)
    }

    /// [`Mailbox::wait_until`] after its first attempt missed: the
    /// [`Gate::wait`] of this mailbox, polling the transport's progress hook
    /// while patient (a receiver on shm-xproc drains its own rings instead
    /// of paying a helper-thread hand-off).
    ///
    /// `attempt` runs with *no* mailbox lock held. The i-collective attempt
    /// steps schedules that post to peers, and on the shm backend a peer's
    /// coll notifier runs inline in this very thread and can post straight
    /// back to this mailbox. No wake-up is lost: a deposit fills its lane
    /// *before* it bumps the epoch, so if `attempt` missed an envelope its
    /// bump is still to come. The same ordering covers `interrupt`: fault
    /// marks are applied before the kick that bumps the epoch.
    fn wait_slow<T>(
        &self,
        interrupt: &dyn Fn() -> Option<MpiError>,
        deadline: Option<Instant>,
        mut attempt: impl FnMut(&Self) -> Option<T>,
    ) -> MpiResult<T> {
        let poll = || self.progress.get().is_some_and(|poll| (poll.0)());
        let probe = Some((&*self.trace, self.owner as u32));
        // A wait whose deadline had passed before it began is a poll, and
        // a poll that misses is not a timeout.
        let polled = deadline.is_some_and(|d| d <= Instant::now());
        let verdict = self.gate.wait(probe, deadline, poll, || loop {
            if let Some(hit) = attempt(self) {
                return Some(Ok(hit));
            }
            let err = interrupt()?;
            // A peer that deposits its last envelope and then finishes (or
            // dies) between the attempt above and this check is reported
            // gone although its message is in the lane. Marks are applied
            // after the deposits they follow, so one more attempt tells the
            // two cases apart. That attempt may also move a multi-receive
            // wait (a collective machine) on to another peer without
            // completing it; the fault is final only if it is still the
            // verdict afterwards, and a new verdict is judged the same way.
            if let Some(hit) = attempt(self) {
                return Some(Ok(hit));
            }
            if interrupt().as_ref() == Some(&err) {
                return Some(Err(err));
            }
        });
        verdict.unwrap_or_else(|waited| {
            if !polled {
                self.trace.timed_out(self.owner);
            }
            Err(MpiError::Timeout { waited })
        })
    }

    /// Number of queued envelopes (diagnostics / tests only).
    pub(crate) fn len(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.queue.lock().expect("lane poisoned").len())
            .sum()
    }

    /// True when no envelope is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A control event that every rank of the job must learn about. These are
/// exactly the events the shared-memory backend communicates through
/// genuinely shared state (the failure/finish/revocation sets) and that a
/// cross-process backend must therefore put on the wire. Non-blocking
/// barriers need no control event: they ride the data plane as
/// collective-tagged envelopes like every other i-collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// `rank` has failed (crashed, panicked, or injected via ULFM).
    Failed {
        /// Global rank of the failed process.
        rank: usize,
    },
    /// `rank`'s SPMD closure returned; it will never communicate again.
    Finished {
        /// Global rank of the finished process.
        rank: usize,
    },
    /// The communicator context `ctx` has been revoked (ULFM).
    Revoked {
        /// Context id of the revoked communicator.
        ctx: u64,
    },
    /// A late joiner was admitted: membership epoch `epoch` now holds the
    /// ranks in the `members` bitmask (bit `r` set ⇔ global rank `r` is a
    /// member), with `joiner` the freshly assigned rank. The bitmask keeps
    /// this enum `Copy`; it caps elastic universes at 64 global ranks,
    /// which the config layer enforces.
    Grow {
        /// The membership epoch this admission creates (monotonic, from 1).
        epoch: u64,
        /// The admitted rank (fresh — never a reused slot).
        joiner: usize,
        /// Member bitmask at this epoch, joiner's bit included.
        members: u64,
    },
}

/// Expands a member bitmask (bit `r` ⇔ global rank `r`) into the sorted
/// rank list communicators are derived from.
pub(crate) fn members_from_mask(mask: u64) -> Vec<usize> {
    (0..64).filter(|r| mask & (1 << r) != 0).collect()
}

/// Packs a member list into the bitmask [`ControlMsg::Grow`] carries.
///
/// # Panics
/// Panics if any rank is ≥ 64 (the config layer rejects such universes).
pub(crate) fn members_to_mask(members: &[usize]) -> u64 {
    members.iter().fold(0u64, |m, &r| {
        assert!(r < 64, "elastic universes are capped at 64 global ranks");
        m | (1 << r)
    })
}

/// Where incoming *remote* control events are applied. Implemented by the
/// universe state: transports deliver control frames here without ever
/// re-broadcasting them (only the originating rank broadcasts).
pub(crate) trait ControlSink: Send + Sync {
    /// Applies one control event to the local fault/barrier view.
    fn apply(&self, msg: ControlMsg);
}

/// How close another rank is, as a hint for algorithm selection (the
/// alltoall `Auto` rule asks whether a communicator spans hosts).
/// Ordered: `Process < Host < Remote` in increasing distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Locality {
    /// Same address space (a thread of this process, or this rank itself).
    Process,
    /// Same host, different process — reachable through shared memory.
    Host,
    /// Different host (or no cheaper path than the network plane).
    Remote,
}

impl Locality {
    /// True if the rank shares this host (in-process or shared memory) —
    /// the predicate of `RawComm::single_host_view`.
    pub(crate) fn same_host(self) -> bool {
        self <= Locality::Host
    }
}

/// A message-passing backend: the seam between the rank-facing substrate
/// (communicators, p2p, collectives, requests) and the machinery that
/// moves bytes between ranks.
///
/// The receive path is shared by all backends — incoming envelopes land in
/// a per-rank [`Mailbox`] — so the trait only abstracts the *send* path,
/// control-event propagation, and teardown.
pub trait Transport: Send + Sync {
    /// Human-readable backend name (`"shm"`, `"socket"`), as selected by
    /// `KAMPING_TRANSPORT`.
    fn name(&self) -> &'static str;

    /// Deposits `envelope` in global rank `dest`'s mailbox, wherever that
    /// rank lives. Must preserve per-(source → dest) FIFO order.
    fn post(&self, dest: usize, envelope: Envelope);

    /// Sends the message `msg` with payload `bytes` to `dest` straight from
    /// the caller's slice, if this backend has a wire to copy it onto;
    /// `false` (the default) leaves it to the caller to pack a [`Payload`]
    /// and [`Transport::post`] it. Same ordering duty as `post`.
    fn send_borrowed(&self, dest: usize, msg: MatchKey, bytes: &[u8]) -> bool {
        let _ = (dest, msg, bytes);
        false
    }

    /// Largest payload (bytes) one message may carry; the send calls reject
    /// anything above it.
    fn max_payload(&self) -> usize {
        usize::MAX
    }

    /// The mailbox of a rank hosted by *this* process.
    ///
    /// # Panics
    /// May panic if `rank` is not local (see [`Transport::is_local`]).
    fn mailbox(&self, rank: usize) -> &Mailbox;

    /// True if `rank` runs inside this process (always, for shm; only for
    /// the one own rank, for socket).
    fn is_local(&self, rank: usize) -> bool;

    /// Distance class of `rank` from the calling process. The default
    /// derives it from [`Transport::is_local`]: in-process or remote, with
    /// no host tier — backends with a same-host fast path (shm-xproc
    /// rings) override this.
    fn locality(&self, rank: usize) -> Locality {
        if self.is_local(rank) {
            Locality::Process
        } else {
            Locality::Remote
        }
    }

    /// Propagates a locally-originated control event to every *remote*
    /// rank. The caller has already applied it to the local state, so the
    /// shared-memory backend does nothing here.
    fn control(&self, msg: ControlMsg);

    /// Wakes every blocked receiver of every local mailbox so it can
    /// re-check failure/revocation state.
    fn kick_local(&self);

    /// Blocks until any envelope this transport is still *holding* (rather
    /// than having handed to the delivery substrate) is on its way. Called
    /// before a rank announces `Finished`, so that the announcement cannot
    /// overtake data the rank still owes its peers. A no-op for backends
    /// that never hold traffic back; the fault-injecting chaos wrapper
    /// drains its delay queue here.
    fn quiesce(&self) {}

    /// Flushes all outgoing traffic and tears the backend down. Called
    /// once per local rank after its SPMD closure returned and its
    /// `Finished` mark has been issued.
    fn shutdown(&self);
}

/// The shared-memory backend: every rank is a thread of this process and
/// every mailbox is directly addressable. This is the transport the seed
/// system hard-wired; it remains the default (`KAMPING_TRANSPORT=shm`).
#[derive(Debug)]
pub(crate) struct ShmTransport {
    mailboxes: Vec<Mailbox>,
}

impl ShmTransport {
    /// Creates mailboxes for `size` in-process ranks, recording lifecycle
    /// events into `trace`.
    pub(crate) fn new(size: usize, trace: &Arc<TraceCtx>) -> Self {
        Self {
            mailboxes: (0..size)
                .map(|owner| Mailbox::new(owner, size, Arc::new(Hub), Arc::clone(trace)))
                .collect(),
        }
    }
}

impl Transport for ShmTransport {
    fn name(&self) -> &'static str {
        "shm"
    }

    fn post(&self, dest: usize, envelope: Envelope) {
        self.mailboxes[dest].post(envelope);
    }

    fn mailbox(&self, rank: usize) -> &Mailbox {
        &self.mailboxes[rank]
    }

    fn is_local(&self, _rank: usize) -> bool {
        true
    }

    fn control(&self, _msg: ControlMsg) {
        // All ranks share one UniverseState: the caller's local application
        // of the event *is* the global application.
    }

    fn kick_local(&self) {
        for mb in &self.mailboxes {
            mb.kick();
        }
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{ANY_SOURCE, ANY_TAG};

    fn mailbox(n: usize) -> Mailbox {
        Mailbox::new(0, n, Arc::new(Hub::new()), TraceCtx::disabled(n))
    }

    fn env(src: usize, tag: Tag, ctx: u64, payload: &[u8]) -> Envelope {
        Envelope {
            src,
            tag,
            ctx,
            payload: Payload::from_slice(payload),
            ack: None,
        }
    }

    #[test]
    fn locality_orders_by_distance_and_defaults_from_is_local() {
        assert!(Locality::Process < Locality::Host);
        assert!(Locality::Host < Locality::Remote);
        let trace = TraceCtx::disabled(2);
        let shm = ShmTransport::new(2, &trace);
        // Every shm rank is a thread of this process.
        assert_eq!(shm.locality(0), Locality::Process);
        assert_eq!(shm.locality(1), Locality::Process);
    }

    #[test]
    fn fifo_per_channel() {
        let mb = mailbox(1);
        mb.post(env(0, 1, 0, b"first"));
        mb.post(env(0, 1, 0, b"second"));
        let key = MatchKey {
            src: 0,
            tag: 1,
            ctx: 0,
        };
        assert_eq!(mb.try_take(key).unwrap().payload.as_slice(), b"first");
        assert_eq!(mb.try_take(key).unwrap().payload.as_slice(), b"second");
        assert!(mb.try_take(key).is_none());
    }

    #[test]
    fn matching_respects_ctx_tag_src() {
        let mb = mailbox(2);
        mb.post(env(0, 1, 7, b"a"));
        assert!(mb
            .try_take(MatchKey {
                src: 0,
                tag: 1,
                ctx: 8
            })
            .is_none());
        assert!(mb
            .try_take(MatchKey {
                src: 1,
                tag: 1,
                ctx: 7
            })
            .is_none());
        assert!(mb
            .try_take(MatchKey {
                src: 0,
                tag: 2,
                ctx: 7
            })
            .is_none());
        assert!(mb
            .try_take(MatchKey {
                src: 0,
                tag: 1,
                ctx: 7
            })
            .is_some());
    }

    #[test]
    fn wildcards_match_and_report_actual_origin() {
        let mb = mailbox(4);
        mb.post(env(3, 9, 0, b"x"));
        let d = mb
            .try_take(MatchKey {
                src: ANY_SOURCE,
                tag: ANY_TAG,
                ctx: 0,
            })
            .unwrap();
        assert_eq!((d.src, d.tag), (3, 9));
    }

    #[test]
    fn any_source_takes_in_arrival_order_across_lanes() {
        let mb = mailbox(3);
        mb.post(env(2, 5, 0, b"second"));
        mb.post(env(1, 5, 0, b"third"));
        // Lane order (0, 1, 2) must not override arrival order (2 first).
        let key = MatchKey {
            src: ANY_SOURCE,
            tag: 5,
            ctx: 0,
        };
        assert_eq!(mb.try_take(key).unwrap().src, 2);
        assert_eq!(mb.try_take(key).unwrap().src, 1);
    }

    #[test]
    fn peek_does_not_consume_or_ack() {
        let mb = mailbox(1);
        let ack = Arc::new(AckCell::default());
        mb.post(Envelope {
            src: 0,
            tag: 5,
            ctx: 0,
            payload: Payload::from_slice(&[1, 2, 3]),
            ack: Some(ack.clone()),
        });
        let key = MatchKey {
            src: 0,
            tag: 5,
            ctx: 0,
        };
        assert_eq!(mb.try_peek(key), Some((0, 5, 3)));
        assert!(!ack.is_set());
        assert_eq!(mb.len(), 1);
        mb.try_take(key).unwrap();
        assert!(ack.is_set());
    }

    #[test]
    fn blocking_take_interrupts() {
        let mb = mailbox(4);
        let key = MatchKey {
            src: 2,
            tag: 0,
            ctx: 0,
        };
        let err = mb
            .take_blocking(key, &|| Some(MpiError::ProcFailed { rank: 2 }))
            .unwrap_err();
        assert_eq!(err, MpiError::ProcFailed { rank: 2 });
    }

    #[test]
    fn envelope_deposited_before_the_interrupt_fires_is_delivered() {
        // The finish-vs-interrupt race, forced: the envelope lands after
        // the parked loop's attempt and before its interrupt check, and
        // the interrupt then reports the sender gone — exactly what a peer
        // that posts its last message and returns looks like.
        let mb = mailbox(2);
        let key = MatchKey {
            src: 1,
            tag: 4,
            ctx: 0,
        };
        let interrupt = || {
            mb.post(env(1, 4, 0, b"last words"));
            Some(MpiError::ProcFailed { rank: 1 })
        };
        let d = mb.take_blocking(key, &interrupt).unwrap();
        assert_eq!(d.payload.as_slice(), b"last words");
    }

    #[test]
    fn fault_verdict_must_survive_the_reattempt() {
        // A two-receive wait (what a collective machine is): the re-attempt
        // after source 1's fault takes source 1's envelope and moves on to
        // source 2 without completing. The stale verdict about source 1
        // must not end the wait.
        let mb = mailbox(3);
        let key = |src| MatchKey {
            src,
            tag: 4,
            ctx: 0,
        };
        let next = std::cell::Cell::new(1);
        let attempt = |mb: &Mailbox| {
            while next.get() < 3 {
                mb.try_take(key(next.get()))?;
                next.set(next.get() + 1);
            }
            Some(())
        };
        let asked = std::cell::Cell::new(0);
        let interrupt = || {
            asked.set(asked.get() + 1);
            mb.post(env(asked.get(), 4, 0, b""));
            (asked.get() == 1).then_some(MpiError::ProcFailed { rank: 1 })
        };
        mb.wait_until(&interrupt, None, attempt).unwrap();
        assert_eq!(asked.get(), 2);
    }

    #[test]
    fn wait_attempt_may_post_back_into_the_mailbox() {
        // Regression: the wait loop used to run `attempt` while holding
        // the gate mutex. The i-collective attempt steps schedules whose
        // posts can circle back into the waiter's own mailbox on the shm
        // backend (p = 6 dissemination: the waiter's relay reaches rank
        // +2, whose inline notifier relays to +6 ≡ the waiter) — and
        // `Mailbox::post` takes the gate, so the thread deadlocked on
        // itself. `attempt` must run with no mailbox lock held; the epoch
        // snapshot keeps the wait lossless regardless.
        let mb = mailbox(1);
        let calls = std::cell::Cell::new(0u32);
        let deadline = Instant::now() + std::time::Duration::from_millis(50);
        let out: MpiResult<()> = mb.wait_until(&|| None, Some(deadline), |mb| {
            // More posts than the fast-path + burst attempts, so at least
            // one runs where the old loop held the gate.
            if calls.get() < 64 {
                calls.set(calls.get() + 1);
                mb.post(env(0, 9, 0, b"relay"));
            }
            None
        });
        assert!(matches!(out, Err(MpiError::Timeout { .. })));
        assert!(calls.get() >= 6, "attempt ran past the unlocked burst");
    }

    /// Deterministic rendezvous used instead of `thread::sleep`: the
    /// blocked side raises `flag` from inside its interrupt/predicate
    /// closure (which the wait loop runs before every condvar sleep) and
    /// bumps `gate`, a second gate that carries only this handshake; the
    /// driving side blocks on `gate` until then. Either the waiter then
    /// sleeps and is woken, or the wake event was already applied and the
    /// waiter's next re-check sees it — both orders pass without any timing
    /// assumption.
    fn await_flag(gate: &Gate, flag: &AtomicBool) {
        let raised = || flag.load(Ordering::Acquire).then_some(());
        gate.wait(None, None, || false, raised).unwrap();
    }

    #[test]
    fn blocking_take_wakes_on_post() {
        let mb = Arc::new(mailbox(1));
        let gate = Arc::new(Gate::default());
        let entered = Arc::new(AtomicBool::new(false));
        let (mb2, gate2, entered2) = (mb.clone(), gate.clone(), entered.clone());
        let handle = std::thread::spawn(move || {
            let key = MatchKey {
                src: 0,
                tag: 0,
                ctx: 0,
            };
            mb2.take_blocking(key, &|| {
                entered2.store(true, Ordering::Release);
                gate2.bump();
                None
            })
            .unwrap()
        });
        // Nothing is posted yet, so the take cannot have matched: it is
        // inside the wait loop once the interrupt closure has run.
        await_flag(&gate, &entered);
        mb.post(env(0, 0, 0, b"wake"));
        assert_eq!(handle.join().unwrap().payload.as_slice(), b"wake");
    }

    #[test]
    fn blocking_peek_wakes_on_post_and_preserves() {
        let mb = Arc::new(mailbox(1));
        let gate = Arc::new(Gate::default());
        let entered = Arc::new(AtomicBool::new(false));
        let (mb2, gate2, entered2) = (mb.clone(), gate.clone(), entered.clone());
        let handle = std::thread::spawn(move || {
            let key = MatchKey {
                src: 0,
                tag: 3,
                ctx: 0,
            };
            let interrupt = || {
                entered2.store(true, Ordering::Release);
                gate2.bump();
                None
            };
            mb2.peek_blocking(key, &interrupt, None).unwrap()
        });
        await_flag(&gate, &entered);
        mb.post(env(0, 3, 0, b"stay"));
        assert_eq!(handle.join().unwrap(), (0, 3, 4));
        assert_eq!(mb.len(), 1, "probe must not consume");
    }

    #[test]
    fn kick_wakes_blocked_receiver_for_interrupt() {
        let mb = Arc::new(mailbox(1));
        let gate = Arc::new(Gate::default());
        let entered = Arc::new(AtomicBool::new(false));
        let interrupted = Arc::new(AtomicBool::new(false));
        let (mb2, gate2, entered2, flag) = (
            mb.clone(),
            gate.clone(),
            entered.clone(),
            interrupted.clone(),
        );
        let handle = std::thread::spawn(move || {
            let key = MatchKey {
                src: 0,
                tag: 0,
                ctx: 0,
            };
            mb2.take_blocking(key, &|| {
                entered2.store(true, Ordering::Release);
                gate2.bump();
                flag.load(Ordering::Acquire).then_some(MpiError::Revoked)
            })
        });
        await_flag(&gate, &entered);
        interrupted.store(true, Ordering::Release);
        // The kick's epoch bump is ordered with the receiver's gate lock,
        // so the receiver either re-runs the interrupt or wakes to run it.
        mb.kick();
        assert_eq!(handle.join().unwrap().unwrap_err(), MpiError::Revoked);
    }

    // --- gate wakes and sleeps ------------------------------------------

    /// A mailbox that counts (metrics on), and the context it counts into.
    fn counted_mailbox() -> (Arc<Mailbox>, Arc<TraceCtx>) {
        let trace = Arc::new(TraceCtx::new(1, crate::trace::METRICS));
        let mb = Mailbox::new(0, 1, Arc::new(Hub::new()), Arc::clone(&trace));
        (Arc::new(mb), trace)
    }

    fn gate_counts(trace: &TraceCtx) -> (u64, u64) {
        let snap = trace.rank(0).snapshot();
        (
            snap.counter(Counter::GateWakes),
            snap.counter(Counter::GateSleeps),
        )
    }

    #[test]
    fn a_post_nobody_sleeps_on_wakes_nobody() {
        let (mb, trace) = counted_mailbox();
        for i in 0..1000u32 {
            mb.post(env(0, 1, 0, &i.to_le_bytes()));
            assert!(mb.try_take(key(0, 1)).is_some());
        }
        // Nobody waits, so no bump may take the lock or notify.
        assert_eq!(gate_counts(&trace), (0, 0));
    }

    /// Spins (yielding) until somebody has registered to sleep on `gate`.
    fn await_sleeper(gate: &Gate) {
        while gate.sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_post_to_a_sleeper_is_one_wake_for_one_sleep() {
        let (mb, trace) = counted_mailbox();
        std::thread::scope(|s| {
            let receiver = s.spawn(|| mb.take_blocking(key(0, 1), &never).unwrap());
            // Registered, the receiver is either on the condvar or about to
            // check the epoch under the lock: one bump ends its only sleep.
            await_sleeper(&mb.gate);
            mb.post(env(0, 1, 0, b"wake"));
            assert_eq!(receiver.join().unwrap().payload.as_slice(), b"wake");
        });
        assert_eq!(gate_counts(&trace), (1, 1));
        assert_eq!(mb.gate.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn gate_does_not_sleep_through_a_bump_it_has_not_seen() {
        let gate = Gate::default();
        let seen = gate.epoch.load(Ordering::SeqCst);
        assert!(!gate.bump(), "nobody to wake");
        // No deadline: returns only because the epoch has moved on.
        gate.sleep_while(seen, None);
        assert_eq!(gate.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn gate_bump_wakes_a_registered_sleeper() {
        let gate = Gate::default();
        let seen = gate.epoch.load(Ordering::SeqCst);
        std::thread::scope(|s| {
            let sleeper = s.spawn(|| gate.sleep_while(seen, None));
            await_sleeper(&gate);
            assert!(gate.bump(), "the bump saw the sleeper");
            sleeper.join().unwrap();
        });
        assert_eq!(gate.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn gate_deadline_ends_the_sleep_and_deregisters() {
        let gate = Gate::default();
        let seen = gate.epoch.load(Ordering::SeqCst);
        let t = Instant::now();
        gate.sleep_while(seen, Some(t + Duration::from_millis(10)));
        assert!(t.elapsed() >= Duration::from_millis(10));
        assert_eq!(gate.epoch.load(Ordering::SeqCst), seen, "nothing bumped");
        assert_eq!(gate.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn no_exit_of_a_wait_leaves_a_sleeper_behind() {
        let mb = mailbox(1);
        let asleep = |mb: &Mailbox| mb.gate.sleepers.load(Ordering::SeqCst);
        // Timeout, well past the patience.
        let soon = Some(Instant::now() + 4 * PATIENCE);
        let err = mb.take_blocking_deadline(key(0, 1), &never, soon);
        assert!(err.unwrap_err().is_timeout());
        assert_eq!(asleep(&mb), 0);
        // Interrupt: raised while the receiver sleeps, announced by a kick.
        let revoked = AtomicBool::new(false);
        let interrupt = || revoked.load(Ordering::Acquire).then_some(MpiError::Revoked);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| mb.take_blocking(key(0, 1), &interrupt));
            await_sleeper(&mb.gate);
            revoked.store(true, Ordering::Release);
            mb.kick();
            assert_eq!(receiver.join().unwrap().unwrap_err(), MpiError::Revoked);
            assert_eq!(asleep(&mb), 0);
            // Match.
            let receiver = s.spawn(|| mb.take_blocking(key(0, 1), &never));
            await_sleeper(&mb.gate);
            mb.post(env(0, 1, 0, b"x"));
            receiver.join().unwrap().unwrap();
            assert_eq!(asleep(&mb), 0);
        });
        // A generic wait: an attempt that never holds, a deadline.
        let soon = Some(Instant::now() + 4 * PATIENCE);
        let err = mb.wait_until(&never, soon, |_| None::<()>);
        assert!(err.unwrap_err().is_timeout());
        assert_eq!(asleep(&mb), 0);
    }

    // --- posted receives -------------------------------------------------

    const BIG: usize = INLINE_CAP + 1;

    fn key(src: usize, tag: Tag) -> MatchKey {
        MatchKey { src, tag, ctx: 0 }
    }

    /// A mailbox whose transport reads messages off a wire.
    fn wired(n: usize) -> Mailbox {
        let mb = mailbox(n);
        mb.set_wired();
        mb
    }

    /// What the transport does with a message once its header is in: asks
    /// for the destination, writes the payload there, lands it. Returns
    /// whether it completed a posted receive.
    fn arrive(mb: &Mailbox, msg: MatchKey, payload: &[u8]) -> bool {
        let mut dest = mb.dest_for(msg, payload.len(), false).unwrap();
        fill(&mut dest, payload);
        mb.land(msg, dest, None)
    }

    fn fill(dest: &mut Dest, payload: &[u8]) {
        for (slot, byte) in dest.rest().iter_mut().zip(payload) {
            slot.write(*byte);
        }
        // SAFETY: every byte of the rest was just written.
        unsafe { dest.advance(payload.len()) };
    }

    /// Spins (yielding) until a receive from `src` is posted.
    fn await_posted(mb: &Mailbox, src: usize) {
        while !mb.posted_from(src) {
            std::thread::yield_now();
        }
    }

    fn never() -> Option<MpiError> {
        None
    }

    #[test]
    fn posted_receive_is_filled_in_place_and_nothing_is_queued() {
        let mb = wired(2);
        let payload = vec![7u8; 4096];
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut sink = Vec::with_capacity(8192);
                let room = sink.as_ptr() as usize;
                let got = mb.take_into(key(1, 5), &mut sink, &never, None).unwrap();
                (got, sink, room)
            });
            await_posted(&mb, 1);
            assert!(
                arrive(&mb, key(1, 5), &payload),
                "the posted sink was the destination"
            );
            let (got, sink, room) = receiver.join().unwrap();
            assert_eq!(got, (1, 5, 4096));
            assert_eq!(sink, payload);
            assert_eq!(
                sink.as_ptr() as usize,
                room,
                "the caller's own allocation was filled"
            );
        });
        assert!(mb.is_empty() && !mb.posted_from(1));
    }

    #[test]
    fn posted_sink_is_passed_over_for_other_keys_small_messages_and_earlier_matches() {
        let mb = wired(2);
        let slot = |state| *mb.lanes[1].posted.lock().unwrap() = state;
        let waiting = || Posted::Waiting {
            key: key(1, 5),
            sink: Box::new(Vec::<u8>::new()),
        };
        slot(waiting());
        // Another tag, an inline-sized payload, a collective tag: queued.
        assert!(!arrive(&mb, key(1, 6), &[1; BIG]));
        assert!(!arrive(&mb, key(1, 5), &[2; INLINE_CAP]));
        assert!(!arrive(&mb, key(1, COLL_TAG_BASE), &[3; BIG]));
        // The inline message matches and came first: a later large match
        // must not overtake it through the sink.
        assert!(!arrive(&mb, key(1, 5), &[4; BIG]));
        assert_eq!(mb.len(), 4);
        let first = mb.try_take(key(1, 5)).unwrap();
        assert_eq!(first.payload.as_slice(), &[2; INLINE_CAP]);
        // With the earlier match gone the next large one is claimed.
        mb.try_take(key(1, 5)).unwrap();
        assert!(matches!(
            mb.dest_for(key(1, 5), BIG, false).unwrap().room,
            Room::Posted(_)
        ));
        slot(Posted::Idle);
    }

    #[test]
    fn receiver_waits_for_the_payload_in_flight_not_for_later_arrivals() {
        let mb = wired(2);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut sink = Vec::new();
                mb.take_into(key(1, 5), &mut sink, &never, None).unwrap();
                sink
            });
            await_posted(&mb, 1);
            let mut dest = mb.dest_for(key(1, 5), BIG, false).unwrap();
            // Mid-payload a later match is deposited (a single reader could
            // not do that; the mailbox must not care): the receiver has to
            // stay on the message it was matched with.
            mb.post(env(1, 5, 0, b"later"));
            fill(&mut dest, &[9; BIG]);
            assert!(mb.land(key(1, 5), dest, None));
            assert_eq!(receiver.join().unwrap(), vec![9; BIG]);
        });
        assert_eq!(mb.try_take(key(1, 5)).unwrap().payload.as_slice(), b"later");
    }

    #[test]
    fn receive_abandoned_mid_payload_leaves_an_ordinary_envelope() {
        let mb = wired(2);
        let ack = Arc::new(AckCell::default());
        let gate = Gate::default();
        let (claimed, gave_up) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut sink = vec![1u8, 2, 3];
                // Interrupted only once the transport holds the sink.
                let interrupt = || claimed.load(Ordering::Acquire).then_some(MpiError::Revoked);
                let err = mb.take_into(key(1, 5), &mut sink, &interrupt, None);
                gave_up.store(true, Ordering::Release);
                gate.bump();
                (err, sink)
            });
            await_posted(&mb, 1);
            let mut dest = mb.dest_for(key(1, 5), BIG, false).unwrap();
            claimed.store(true, Ordering::Release);
            mb.kick();
            await_flag(&gate, &gave_up);
            let (err, sink) = receiver.join().unwrap();
            assert_eq!(err.unwrap_err(), MpiError::Revoked);
            assert!(sink.is_empty(), "the sink stayed with the transport");
            // The payload completes all the same, as a queued envelope
            // whose synchronous-mode ack is still to come.
            fill(&mut dest, &[6; BIG]);
            assert!(!mb.land(key(1, 5), dest, Some(ack.clone())));
        });
        assert!(!mb.posted_from(1) && !ack.is_set());
        // A plain take gets it whole; the lane takes a new posted receive.
        assert_eq!(
            mb.try_take(key(1, 5)).unwrap().payload.as_slice(),
            &[6; BIG]
        );
        assert!(ack.is_set());
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut sink = Vec::new();
                mb.take_into(key(1, 5), &mut sink, &never, None).unwrap();
                sink
            });
            await_posted(&mb, 1);
            assert!(arrive(&mb, key(1, 5), &[8; BIG]));
            assert_eq!(receiver.join().unwrap(), vec![8; BIG]);
        });
    }

    #[test]
    fn timed_out_posted_receive_takes_its_sink_back() {
        let mb = wired(2);
        let mut sink = vec![1u8, 2, 3];
        let soon = Some(Instant::now() + std::time::Duration::from_millis(20));
        let err = mb
            .take_into(key(1, 5), &mut sink, &never, soon)
            .unwrap_err();
        assert!(err.is_timeout());
        assert_eq!(sink, [1, 2, 3]);
        assert!(!mb.posted_from(1));
    }

    /// A sink that holds at most `0` bytes and counts what it was offered.
    #[derive(Default)]
    struct Tiny(usize, Vec<u8>);

    impl Sink for Tiny {
        fn reserve(&mut self, len: usize) -> bool {
            self.0 += 1;
            len == 0
        }
        fn spare(&mut self, len: usize) -> &mut [MaybeUninit<u8>] {
            self.1.spare(len)
        }
        unsafe fn commit(&mut self, _len: usize) {}
        fn filled(&self, _len: usize) -> &[u8] {
            &[]
        }
    }

    #[test]
    fn refused_message_is_consumed_and_reported() {
        let mb = wired(2);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut sink = Tiny::default();
                let got = mb.take_into(key(1, 5), &mut sink, &never, None).unwrap();
                (got, sink.0)
            });
            await_posted(&mb, 1);
            assert!(
                !arrive(&mb, key(1, 5), &[5; BIG]),
                "refused: queued instead"
            );
            // Offered once off the wire, once out of the envelope.
            assert_eq!(receiver.join().unwrap(), ((1, 5, BIG), 2));
        });
        assert!(mb.is_empty());
    }

    #[test]
    fn wildcards_and_unwired_mailboxes_never_post() {
        for (mb, k) in [
            (wired(2), key(1, ANY_TAG)),
            (wired(2), key(ANY_SOURCE, 5)),
            (mailbox(2), key(1, 5)),
        ] {
            let polled = AtomicBool::new(false);
            let interrupt = || {
                // Runs once the wait is past its fast path: nothing may be
                // posted, and the message arrives as an envelope.
                if !polled.swap(true, Ordering::AcqRel) {
                    assert!(!mb.posted_from(1));
                    mb.post(env(1, 5, 0, &[3; BIG]));
                }
                None
            };
            let mut sink = Vec::new();
            let got = mb.take_into(k, &mut sink, &interrupt, None).unwrap();
            assert_eq!((got, sink), ((1, 5, BIG), vec![3; BIG]));
        }
    }

    #[test]
    fn patient_helper_waits_only_on_a_lane_that_receives_posted() {
        let mb = wired(2);
        // No posted receive has ever been served here: a buffer at once.
        assert!(mb.dest_for(key(1, 5), BIG, true).is_some());
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut sink = Vec::new();
                mb.take_into(key(1, 5), &mut sink, &never, None).unwrap();
            });
            await_posted(&mb, 1);
            assert!(arrive(&mb, key(1, 5), &[1; BIG]));
            receiver.join().unwrap();
        });
        // Now the rank receives this source posted: the next large user
        // message is left for it — by a patient helper only, and only until
        // somebody buffers one.
        assert!(mb.dest_for(key(1, 5), BIG, true).is_none());
        assert!(mb.dest_for(key(1, 5), INLINE_CAP, true).is_some());
        assert!(mb.dest_for(key(1, COLL_TAG_BASE), BIG, true).is_some());
        assert!(mb.dest_for(key(1, 5), BIG, false).is_some());
        assert!(mb.dest_for(key(1, 5), BIG, true).is_some());
    }

    #[test]
    fn inline_payloads_stay_off_the_heap() {
        let small = Payload::from_slice(&[7u8; INLINE_CAP]);
        assert!(small.is_inline());
        assert_eq!(small.len(), INLINE_CAP);
        let big = Payload::from_slice(&[7u8; INLINE_CAP + 1]);
        assert!(!big.is_inline());
        assert_eq!(big.as_slice(), &[7u8; INLINE_CAP + 1]);
    }

    #[test]
    fn from_vec_inlines_small_buffers() {
        let p = Payload::from_vec(vec![1, 2, 3]);
        assert!(p.is_inline());
        assert_eq!(p.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_payload_aliases_one_allocation() {
        let a = Payload::from_vec(vec![9u8; 100]);
        let b = a.clone();
        let at = a.as_slice().as_ptr();
        assert_eq!(at, b.as_slice().as_ptr());
        drop(a);
        // Unique holder unwraps without copying.
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), at);
    }

    /// The sender's side of a synchronous-mode send: a wait on its own
    /// mailbox for its ack, which the ack cell's hook announces with a
    /// bump. The ack is set while the waiter runs its attempt (the
    /// handshake rides a second gate, so the hook's bump is the only one
    /// the mailbox ever sees): whichever order the two land in, the waiter
    /// returns.
    #[test]
    fn mailbox_wait_sees_an_ack_raced_with_its_attempt() {
        let mb = Arc::new(mailbox(1));
        let gate = Arc::new(Gate::default());
        let entered = Arc::new(AtomicBool::new(false));
        let ack = {
            let mb = Arc::clone(&mb);
            Arc::new(AckCell::with_hook(move || mb.bump()))
        };
        let (mb2, gate2, entered2, ack2) = (mb.clone(), gate.clone(), entered.clone(), ack.clone());
        let waiter = std::thread::spawn(move || {
            mb2.wait_until(&never, None, |_| {
                entered2.store(true, Ordering::Release);
                gate2.bump();
                ack2.is_set().then_some(42)
            })
        });
        await_flag(&gate, &entered);
        ack.set();
        assert_eq!(waiter.join().unwrap().unwrap(), 42);
        assert_eq!(mb.gate.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn ack_hook_runs_once_on_set() {
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let ack = AckCell::with_hook(move || f.store(true, Ordering::Release));
        assert!(!ack.is_set());
        ack.set();
        assert!(ack.is_set());
        assert!(fired.load(Ordering::Acquire));
        // A second set keeps the cell matched and must not re-run the hook.
        ack.set();
        assert!(ack.is_set());
    }

    #[test]
    fn shm_transport_posts_and_kicks() {
        let t = ShmTransport::new(2, &TraceCtx::disabled(2));
        t.post(1, env(0, 4, 0, b"via-trait"));
        assert!(t.is_local(1));
        assert_eq!(t.name(), "shm");
        let got = t
            .mailbox(1)
            .try_take(MatchKey {
                src: 0,
                tag: 4,
                ctx: 0,
            })
            .unwrap();
        assert_eq!(got.payload.as_slice(), b"via-trait");
        t.control(ControlMsg::Failed { rank: 0 });
        t.kick_local();
        t.shutdown();
    }
}
