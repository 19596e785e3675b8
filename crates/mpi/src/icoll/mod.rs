//! The collective engine: one interpreter, two drivers.
//!
//! Every collective algorithm is a `sm::Schedule` — the tags it draws
//! plus a list of sends and receives over one byte buffer — built by a
//! pure function of `p`, the rank and the sizes, and run by the one
//! interpreter `sm::Sched`, whose `step` never blocks. The size rules
//! (Rabenseifner, Bruck) and the starting buffer live in one builder per
//! collective here, shared by the blocking and the nonblocking name, so
//! `ix` runs the same schedule as `x`. Two drivers run a schedule to
//! completion:
//!
//! * **Inline** (`RawComm::run_inline`) — the blocking collectives. The
//!   schedule lives on the caller's stack and is stepped by the caller
//!   alone, parked on its mailbox gate between steps like any blocking
//!   receive. No `Arc`, no `Mutex`, no registry entry, and the reduce
//!   operator stays a borrowed [`crate::ByteOp`]. An `issue().wait()` pair
//!   costs 2.74× a blocking 8-byte allreduce on the reference box
//!   (kbench `mpi.icoll.issue_wait_over_blocking_ratio`), which is why
//!   blocking calls do not take the registered path.
//! * **Registered** (`RawComm::issue`) — the `i*` collectives. The
//!   schedule moves into a `CollCell` listed in the universe's `Registry`
//!   and is advanced by whichever thread delivers a collective-tagged
//!   envelope to the owner's mailbox: the peer rank-thread that performed
//!   the [`Mailbox::post`] on shm, the epoll engine's routing on sockets,
//!   the ring consumer (or a waiting receiver draining its own rings) on
//!   shm-xproc. All three funnel through one hook:
//!   `Mailbox::set_coll_notifier` fires after the gate bump of every
//!   collective-tagged deposit, so compute proceeds while peers'
//!   deliveries push the schedule forward, and `wait` parks on the owner's
//!   mailbox gate, stepping the schedules on each wakeup.
//!
//! # Ownership
//!
//! Buffers *move into* a nonblocking operation (paper §III-E) and come back
//! out of [`RawCollRequest::wait`]/[`RawCollRequest::test`]. A dropped
//! incomplete request is adopted by the registry so the schedule still
//! completes — peers depend on this rank's relay sends — and is pruned
//! once settled.
//!
//! # Tags and multiple outstanding collectives
//!
//! Each schedule draws consecutive per-communicator collective sequence
//! numbers when it is loaded. Because MPI requires every rank to issue
//! collectives in the same order, the derived `coll_tag`s are
//! rank-synchronized, and any number of collectives can be outstanding at
//! once: their envelopes cannot be confused. Collective tags are invisible
//! to `ANY_TAG` receives, so user-tag traffic (e.g. the NBX sparse alltoall
//! polling an `ibarrier`) cannot interfere.

pub(crate) mod sm;

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, TryLockError, Weak};
use std::time::{Duration, Instant};

use crate::coll::{excl_prefix_sum, BRUCK_THRESHOLD_BYTES, RABENSEIFNER_MIN_BYTES};
use crate::error::{MpiError, MpiResult};
use crate::metrics::{Counter, Gauge, Hist};
use crate::profile::Op;
use crate::tag::{Tag, ANY_SOURCE};
use crate::transport::{Envelope, Mailbox, MatchKey, Payload};
use crate::universe::{wait_interrupt, UniverseState};
use crate::{ByteOp, RawComm};

use sm::{Sched, Schedule};

/// Owned element-combine closure for nonblocking reductions. The blocking
/// calls borrow their operator ([`crate::ByteOp`]); an i-reduction outlives
/// its call site, so the registry needs ownership — and any thread that
/// delivers an envelope may run the combine, hence `Send + Sync`.
pub type OwnedByteOp = Arc<dyn Fn(&mut [u8], &[u8]) + Send + Sync>;

/// Everything a schedule step may touch, borrowed for the duration of one
/// [`Sched::step`] call. Lives on the stack of whichever thread advances
/// the schedule (the owner, or a delivering peer thread).
pub(crate) struct StepCx<'a> {
    state: &'a UniverseState,
    group: &'a [usize],
    ctx: u64,
    /// Communicator-local rank owning the schedule.
    rank: usize,
    /// The reduction operator and its element size, for fold steps.
    fold: Option<(ByteOp<'a>, usize)>,
}

impl StepCx<'_> {
    fn me_global(&self) -> usize {
        self.group[self.rank]
    }

    fn mailbox(&self) -> &Mailbox {
        self.state.mailbox(self.me_global())
    }

    /// Eager send to communicator-local rank `dest` — the schedule-step
    /// mirror of `RawComm::post_to`.
    fn post(&self, dest: usize, tag: Tag, payload: Payload) {
        let envelope = Envelope {
            src: self.me_global(),
            tag,
            ctx: self.ctx,
            payload,
            ack: None,
        };
        self.state.post(self.group[dest], envelope);
    }

    /// Nonblocking take of the schedule's next expected envelope.
    fn try_take(&self, src: usize, tag: Tag) -> Option<Payload> {
        let key = MatchKey {
            src: self.group[src],
            tag,
            ctx: self.ctx,
        };
        self.mailbox().try_take(key).map(|d| d.payload)
    }
}

/// Lifecycle of one issued collective.
enum CollCore {
    /// Schedule still has pending receives.
    Running(Sched<'static>),
    /// Completed; result bytes awaiting pickup by the owner.
    Done(Vec<u8>),
    /// Result already handed to the owner.
    Taken,
    /// Failed; the error is sticky (every later `wait`/`test` re-reports).
    Failed(MpiError),
}

/// Shared cell holding one in-flight collective: the request owns one
/// `Arc`, the registry holds a `Weak` (upgraded on every delivery).
pub(crate) struct CollCell {
    /// Weak: the registry lives inside `UniverseState`, and the universe's
    /// transport threads reach cells through it — a strong reference here
    /// would cycle `state → transport → notifier → registry → cell → state`.
    state: Weak<UniverseState>,
    group: Arc<Vec<usize>>,
    ctx: u64,
    rank: usize,
    op: Op,
    /// The owned reduction operator and its element size.
    fold: Option<(OwnedByteOp, usize)>,
    core: Mutex<CollCore>,
    /// Set by a delivery thread that lost the `try_lock` race in
    /// [`CollCell::advance`] after depositing an envelope: the lock holder
    /// may already have stepped past the matching `try_take`, so it must
    /// re-step before returning. Without this an *orphaned* schedule (owner
    /// computing, or gone) strands the envelope — no later event would
    /// re-step the cell, and peers waiting on its relay sends hang.
    rerun: AtomicBool,
}

impl CollCell {
    /// Steps the machine; returns `true` once the cell is settled (done or
    /// failed). `blocking` is only ever passed by the *owner* on its own
    /// cell — delivery threads use `try_lock` so two of them (or a nested
    /// notifier re-entered through a relay send) skip instead of deadlock.
    ///
    /// A skipping thread cannot assume the lock holder will observe its
    /// just-deposited envelope (the holder may be past the `try_take`
    /// already), so skip-and-rerun guarantees a step *begins* after every
    /// deposit: the skipper sets [`CollCell::rerun`] and retries the lock
    /// once; the holder, after releasing, clears the flag and re-steps if
    /// it was set. Either the skipper's retry wins the lock (it steps
    /// itself), or the lock is held by a thread whose release — and
    /// therefore whose post-release flag check — comes after the flag was
    /// set. A step that begins after a deposit completes always sees the
    /// envelope: `try_take` and the deposit serialize on the lane mutex.
    pub(crate) fn advance(&self, blocking: bool) -> bool {
        let Some(state) = self.state.upgrade() else {
            return true;
        };
        let mut core = if blocking {
            self.core.lock().expect("coll cell poisoned")
        } else {
            match self.core.try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => {
                    self.rerun.store(true, Ordering::Release);
                    match self.core.try_lock() {
                        Ok(g) => g,
                        // Still held: that holder's release is after our
                        // store, so its exit check will see the flag.
                        Err(TryLockError::WouldBlock) => return false,
                        Err(TryLockError::Poisoned(e)) => panic!("coll cell poisoned: {e}"),
                    }
                }
                Err(TryLockError::Poisoned(e)) => panic!("coll cell poisoned: {e}"),
            }
        };
        loop {
            if self.step_locked(&state, &mut core) {
                return true;
            }
            drop(core);
            if !self.rerun.swap(false, Ordering::AcqRel) {
                return false;
            }
            // The flag was set while we held the lock: an envelope may have
            // landed after our step passed its `try_take`. Re-step — unless
            // another thread holds the lock now; it acquired after the
            // deposit, so its step observes the envelope.
            core = match self.core.try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => return false,
                Err(TryLockError::Poisoned(e)) => panic!("coll cell poisoned: {e}"),
            };
        }
    }

    /// One non-blocking run of the schedule plus the fault scan, under the
    /// core lock. Returns `true` when the cell settled (done or failed).
    fn step_locked(&self, state: &UniverseState, core: &mut CollCore) -> bool {
        let start_ns = state.trace.metrics_clock();
        let settled = self.step_locked_inner(state, core);
        if let Some(start_ns) = start_ns {
            let (trace, me) = (&state.trace, self.group[self.rank]);
            trace.count(me, Counter::CollSteps, 1);
            trace.observe(me, Hist::CollStep, trace.now_ns().saturating_sub(start_ns));
        }
        settled
    }

    fn step_locked_inner(&self, state: &UniverseState, core: &mut CollCore) -> bool {
        let CollCore::Running(sm) = core else {
            return true;
        };
        let fold = (self.fold.as_ref()).map(|(op, elem)| (&**op as ByteOp<'_>, *elem));
        let cx = StepCx {
            state,
            group: &self.group,
            ctx: self.ctx,
            rank: self.rank,
            fold,
        };
        let verdict = match sm.step(&cx).transpose() {
            Some(settled) => settled,
            None if state.is_revoked(self.ctx) => Err(MpiError::Revoked),
            None => {
                // Two ways a fault dooms an incomplete schedule: the rank we
                // directly await is gone (failed *or* finished — it will
                // never post), or any group member has *failed*. The latter
                // catches transitive stalls: the schedule may be waiting on
                // a live rank whose own step awaits the dead one, so the
                // dead rank never shows up as our `awaited`. A member that
                // finished cleanly is exempt unless directly awaited — its
                // `Bye` proves it posted everything first. No verdict is
                // cached: the member scan is one load until a rank fails.
                let gone =
                    |l: Option<usize>| l.map(|l| self.group[l]).filter(|&g| state.is_gone(g));
                let failed = || {
                    (state.any_failed())
                        .then(|| self.group.iter().copied().find(|&g| state.is_failed(g)))
                        .flatten()
                };
                if gone(sm.awaited()).or_else(failed).is_none() {
                    return false;
                }
                // A waited-on rank is gone — but envelopes it posted before
                // dying may have landed between the dry step above and the
                // fate read (the Acquire load of its fate bit makes them
                // visible now), so re-step before giving up: a rank that
                // *entered* the schedule and then finished is not a fault.
                match sm.step(&cx).transpose() {
                    Some(settled) => settled,
                    // Attribute the failure to an actually *failed* member
                    // first: a directly awaited rank that merely finished
                    // may only be collateral (it left after the real fault
                    // wedged the schedule).
                    None => match failed().or_else(|| gone(sm.awaited())) {
                        Some(rank) => Err(MpiError::ProcFailed { rank }),
                        None => return false,
                    },
                }
            }
        };
        *core = match verdict {
            Ok(out) => CollCore::Done(out),
            Err(e) => CollCore::Failed(e),
        };
        true
    }

    /// Owner-side completion check: takes the result if done, clones the
    /// sticky error if failed, `None` while running.
    fn try_finish(&self) -> Option<MpiResult<Vec<u8>>> {
        let mut core = self.core.lock().expect("coll cell poisoned");
        match &*core {
            CollCore::Running(_) => None,
            CollCore::Failed(e) => Some(Err(e.clone())),
            CollCore::Taken => Some(Ok(Vec::new())),
            CollCore::Done(_) => {
                let CollCore::Done(out) = std::mem::replace(&mut *core, CollCore::Taken) else {
                    unreachable!("matched Done above");
                };
                Some(Ok(out))
            }
        }
    }

    fn is_settled(&self) -> bool {
        !matches!(
            &*self.core.lock().expect("coll cell poisoned"),
            CollCore::Running(_)
        )
    }
}

impl Drop for CollCell {
    fn drop(&mut self) {
        // The registry's fast-path gate counts live cells (incremented in
        // `Registry::attach`). Closing it here — the moment the last `Arc`
        // dies, i.e. when the request is consumed or dropped and any orphan
        // entry pruned — re-opens the delivery fast path immediately;
        // waiting for a sweep to notice the dead weak would keep delivery
        // threads taking both registry locks for every collective-tagged
        // envelope (including blocking collectives') indefinitely.
        if let Some(state) = self.state.upgrade() {
            let me = self.group[self.rank];
            state.trace.count(me, Counter::CollsCompleted, 1);
            state.trace.gauge_add(me, Gauge::CollsOutstanding, -1);
            state.icoll.active.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Universe-wide table of in-flight collective schedules, advanced by
/// delivery threads through the mailbox notifier hook.
pub(crate) struct Registry {
    /// `(owner global rank, cell)` — weak so a completed-and-dropped
    /// request vanishes; pruned on every sweep.
    cells: Mutex<Vec<(usize, Weak<CollCell>)>>,
    /// Strong references to schedules whose request was dropped before
    /// completion: peers rely on this rank's relay sends, so the registry
    /// keeps the machine alive until it settles.
    orphans: Mutex<Vec<(usize, Arc<CollCell>)>>,
    /// Fast-path gate: delivery threads skip the locks entirely while no
    /// collective is outstanding anywhere in this process. Counts live
    /// cells — incremented by [`Registry::attach`], decremented by
    /// `CollCell::drop` (not by sweeps, which may lag arbitrarily).
    active: AtomicUsize,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            cells: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
        }
    }

    /// Registers a freshly-issued cell and (once per mailbox) installs the
    /// notifier that routes this rank's collective-tagged deliveries back
    /// into [`Registry::advance_rank`].
    fn attach(state: &Arc<UniverseState>, owner_global: usize, cell: &Arc<CollCell>) {
        let weak_state = Arc::downgrade(state);
        state.mailbox(owner_global).set_coll_notifier(move || {
            if let Some(s) = weak_state.upgrade() {
                s.icoll.advance_rank(owner_global);
            }
        });
        let reg = &state.icoll;
        reg.cells
            .lock()
            .expect("icoll registry poisoned")
            .push((owner_global, Arc::downgrade(cell)));
        reg.active.fetch_add(1, Ordering::Release);
    }

    /// Adopts a dropped-but-incomplete schedule so delivery threads finish
    /// it on the owner's behalf.
    fn adopt(&self, owner_global: usize, cell: Arc<CollCell>) {
        self.orphans
            .lock()
            .expect("icoll orphans poisoned")
            .push((owner_global, cell));
    }

    /// Steps every outstanding schedule of `owner` (a global rank hosted by
    /// this process). Called from delivery threads via the mailbox notifier
    /// and from the owner's own wait loop. Never holds a registry lock
    /// while stepping — steps may post to peers and re-enter the notifier.
    pub(crate) fn advance_rank(&self, owner: usize) {
        if self.active.load(Ordering::Acquire) == 0 {
            return;
        }
        let todo: Vec<Arc<CollCell>> = {
            let mut cells = self.cells.lock().expect("icoll registry poisoned");
            let mut todo = Vec::new();
            // Dead weaks are only *pruned* here; the fast-path counter was
            // already decremented by the cell's own Drop.
            cells.retain(|(r, w)| match w.upgrade() {
                None => false,
                Some(c) => {
                    if *r == owner {
                        todo.push(c);
                    }
                    true
                }
            });
            todo
        };
        for cell in todo {
            cell.advance(false);
        }
        // Orphans: step this owner's, drop the ones that settled (their
        // weak registry entry then dies and is pruned by the next sweep).
        let mine: Vec<Arc<CollCell>> = {
            let orphans = self.orphans.lock().expect("icoll orphans poisoned");
            orphans
                .iter()
                .filter(|(r, _)| *r == owner)
                .map(|(_, c)| Arc::clone(c))
                .collect()
        };
        if mine.is_empty() {
            return;
        }
        for cell in &mine {
            cell.advance(false);
        }
        self.orphans
            .lock()
            .expect("icoll orphans poisoned")
            .retain(|(_, c)| !c.is_settled());
    }
}

/// Handle to one in-flight nonblocking collective at the byte level. The
/// result buffer moves in at issue time and back out of
/// [`RawCollRequest::wait`] / [`RawCollRequest::test`] — the ownership
/// model the paper credits Rust for (§III-E).
///
/// Dropping an incomplete request *abandons the result* but not the
/// schedule: the registry adopts it, so peers that depend on this rank's
/// relay sends still complete (completing every request before a rank
/// returns remains necessary for fault-free teardown, as in MPI).
pub struct RawCollRequest {
    state: Arc<UniverseState>,
    cell: Option<Arc<CollCell>>,
    owner_global: usize,
    /// Accumulated blocked time across *all* wait attempts, so a
    /// timed-out-then-retried wait reports the total in
    /// [`MpiError::Timeout`].
    waited: Duration,
}

impl RawCollRequest {
    /// Nonblocking completion check. Steps every outstanding schedule of
    /// this rank first, so `test` doubles as a progress call (`MPI_Test`'s
    /// role in progress-starved MPI programs). Returns the result buffer
    /// once, then empty buffers on further calls.
    pub fn test(&mut self) -> MpiResult<Option<Vec<u8>>> {
        let Some(cell) = &self.cell else {
            return Ok(Some(Vec::new()));
        };
        self.state.icoll.advance_rank(self.owner_global);
        cell.advance(true);
        match cell.try_finish() {
            None => Ok(None),
            Some(Ok(out)) => {
                self.cell = None;
                Ok(Some(out))
            }
            Some(Err(e)) => Err(e),
        }
    }

    /// Blocks until the schedule completes and returns the result buffer.
    pub fn wait(&mut self) -> MpiResult<Vec<u8>> {
        self.wait_deadline(None)
    }

    /// Like [`RawCollRequest::wait`] with a bounded budget: gives up with
    /// [`MpiError::Timeout`] after `timeout`, leaving the request retryable
    /// (`waited` totals the blocked time across all attempts).
    pub fn wait_timeout(&mut self, timeout: Duration) -> MpiResult<Vec<u8>> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    /// [`RawCollRequest::wait`] with an optional absolute deadline — the
    /// form used when one time budget spans several requests.
    pub(crate) fn wait_deadline(&mut self, deadline: Option<Instant>) -> MpiResult<Vec<u8>> {
        let Some(cell) = self.cell.clone() else {
            return Ok(Vec::new());
        };
        // Attribute the blocked portion of this wait to the op itself, so
        // compute/comm overlap is visible per-op in Perfetto and the
        // aggregated op tree (issue time recorded only the call counter).
        let _scope = self.state.trace.op_resumed(cell.op, self.owner_global);
        let start = Instant::now();
        let no_interrupt = || None;
        let outcome =
            self.state
                .mailbox(self.owner_global)
                .wait_until(&no_interrupt, deadline, |_| {
                    // One pass drives *all* of this rank's outstanding
                    // schedules — progress for collectives issued earlier or
                    // later than this one, exactly like a blocking MPI call
                    // progressing the whole engine.
                    self.state.icoll.advance_rank(self.owner_global);
                    cell.advance(true);
                    cell.try_finish()
                });
        match outcome {
            Ok(Ok(out)) => {
                self.cell = None;
                Ok(out)
            }
            Ok(Err(e)) => {
                self.cell = None;
                Err(e)
            }
            Err(MpiError::Timeout { .. }) => {
                self.waited += start.elapsed();
                Err(MpiError::Timeout {
                    waited: self.waited,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// True once the schedule has settled (completed or failed) — like
    /// `test`, but without consuming the result.
    pub fn is_complete(&self) -> bool {
        match &self.cell {
            None => true,
            Some(cell) => {
                self.state.icoll.advance_rank(self.owner_global);
                cell.advance(true);
                cell.is_settled()
            }
        }
    }
}

impl Drop for RawCollRequest {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            cell.advance(true);
            if !cell.is_settled() {
                self.state.icoll.adopt(self.owner_global, cell);
            }
        }
    }
}

impl std::fmt::Debug for RawCollRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawCollRequest")
            .field("owner", &self.owner_global)
            .field("pending", &self.cell.is_some())
            .finish()
    }
}

impl RawComm {
    /// This rank's step context on this communicator. Refused once the
    /// communicator is revoked, so nothing is posted on a dead context.
    fn cx<'a>(&'a self, fold: Option<(ByteOp<'a>, usize)>) -> MpiResult<StepCx<'a>> {
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        Ok(StepCx {
            state: &self.state,
            group: &self.group,
            ctx: self.ctx,
            rank: self.rank,
            fold,
        })
    }

    /// Draws the schedule's tags (consecutive collective sequence numbers)
    /// and loads it with its starting buffer and the input its sends may
    /// copy from.
    pub(crate) fn sched<'a>(
        &self,
        schedule: Schedule,
        buf: Vec<u8>,
        input: impl Into<Cow<'a, [u8]>>,
    ) -> Sched<'a> {
        let first = self.coll_seq.get();
        self.coll_seq.set(first.wrapping_add(schedule.tags));
        Sched::new(first, schedule, buf, input.into())
    }

    /// The inline driver: steps a schedule on the caller's stack until it
    /// completes, parking on this rank's mailbox between steps — the same
    /// wait loop as a blocking receive, with `step` as the match attempt
    /// and the awaited peer as the fault source: the wait fails with
    /// `ProcFailed` if that peer is gone (failed, or returned without
    /// posting) and with `Revoked` if the communicator was revoked
    /// ([`wait_interrupt`]: two loads while nothing is revoked).
    pub(crate) fn run_inline(
        &self,
        fold: Option<(ByteOp<'_>, usize)>,
        sched: Sched<'_>,
    ) -> MpiResult<Vec<u8>> {
        let cx = self.cx(fold)?;
        let sm = RefCell::new(sched);
        let interrupt = || {
            let awaited = sm.borrow().awaited().map_or(ANY_SOURCE, |l| self.group[l]);
            wait_interrupt(&self.state, awaited, self.ctx)()
        };
        self.state
            .mailbox(self.my_global_rank())
            .wait_until(&interrupt, None, |_| sm.borrow_mut().step(&cx).transpose())?
    }

    /// The registered driver: builds a schedule, moves it into a
    /// [`CollCell`] listed in the registry and steps it once (messages may
    /// already be queued from faster peers); delivering threads and the
    /// request's `wait`/`test` advance it from there.
    fn issue(
        &self,
        op: Op,
        fold: Option<(OwnedByteOp, usize)>,
        build: impl FnOnce() -> MpiResult<Sched<'static>>,
    ) -> MpiResult<RawCollRequest> {
        self.cx(None)?;
        self.state.trace.op_issued(op, self.my_global_rank());
        let sm = build()?;
        let cell = Arc::new(CollCell {
            state: Arc::downgrade(&self.state),
            group: Arc::clone(&self.group),
            ctx: self.ctx,
            rank: self.rank,
            op,
            fold,
            core: Mutex::new(CollCore::Running(sm)),
            rerun: AtomicBool::new(false),
        });
        let me = self.my_global_rank();
        self.state.trace.count(me, Counter::CollsIssued, 1);
        self.state.trace.gauge_add(me, Gauge::CollsOutstanding, 1);
        Registry::attach(&self.state, self.my_global_rank(), &cell);
        cell.advance(true);
        Ok(RawCollRequest {
            state: Arc::clone(&self.state),
            cell: Some(cell),
            owner_global: self.my_global_rank(),
            waited: Duration::ZERO,
        })
    }

    // ----- schedules shared by `x` and `ix` -----

    /// Broadcast of the root's `buf` (taken once the root is checked; other
    /// ranks' is dropped) down the binomial tree rooted at `root`.
    pub(crate) fn bcast_sched(&self, buf: &mut Vec<u8>, root: usize) -> MpiResult<Sched<'static>> {
        self.check_root(root)?;
        let schedule = sm::bcast(self.size(), self.rank(), root);
        Ok(self.sched(schedule, std::mem::take(buf), Vec::new()))
    }

    /// Reduce of `buf` (taken once the arguments are checked) up the
    /// binomial tree rooted at `root`.
    pub(crate) fn reduce_sched(
        &self,
        buf: &mut Vec<u8>,
        elem_size: usize,
        root: usize,
    ) -> MpiResult<Sched<'static>> {
        self.check_root(root)?;
        check_elems(buf, elem_size)?;
        let schedule = sm::reduce(self.size(), self.rank(), root);
        Ok(self.sched(schedule, std::mem::take(buf), Vec::new()))
    }

    /// Allreduce of `buf` (taken once checked), for the blocking and the
    /// nonblocking name alike: Rabenseifner's schedule from
    /// [`RABENSEIFNER_MIN_BYTES`] at p ≥ 4 (or `forced`), else up and down
    /// the tree rooted at 0. The length is rank-uniform by the
    /// collective's own contract, so every rank picks the same.
    pub(crate) fn allreduce_sched(
        &self,
        buf: &mut Vec<u8>,
        elem_size: usize,
        forced: bool,
    ) -> MpiResult<Sched<'static>> {
        check_elems(buf, elem_size)?;
        let (p, me, len) = (self.size(), self.rank(), buf.len());
        let schedule = if forced || (len >= RABENSEIFNER_MIN_BYTES && p >= 4) {
            let me_global = self.my_global_rank();
            self.state
                .trace
                .count(me_global, Counter::StrategyRabenseifner, 1);
            sm::rabenseifner(p, me, len / elem_size, elem_size)
        } else {
            sm::tree_allreduce(p, me)
        };
        Ok(self.sched(schedule, std::mem::take(buf), Vec::new()))
    }

    /// Bruck allgatherv of `send` by `recv_counts`.
    pub(crate) fn allgatherv_sched(
        &self,
        send: &[u8],
        recv_counts: &[usize],
    ) -> MpiResult<Sched<'static>> {
        self.check_len(recv_counts, "allgatherv recv_counts length != comm size")?;
        if recv_counts[self.rank()] != send.len() {
            return Err(MpiError::InvalidCounts {
                what: "allgatherv: own recv_count != send length",
            });
        }
        let at = excl_prefix_sum(recv_counts)[self.rank()];
        let out = sm::placed(recv_counts.iter().sum(), at, send);
        let schedule = sm::allgatherv(self.size(), self.rank(), recv_counts);
        Ok(self.sched(schedule, out, Vec::new()))
    }

    /// Fixed-size all-to-all of `send`: like real MPI implementations,
    /// small blocks go in Bruck's ⌈log₂ p⌉ rounds of combined messages
    /// (`bruck` forces them), large ones in the direct linear exchange.
    /// Note that *`alltoallv` never gets this optimization* — mirroring
    /// practice, and the reason the paper's sparse/grid plugins exist
    /// (§V-A).
    pub(crate) fn alltoall_sched<'a>(
        &self,
        send: impl Into<Cow<'a, [u8]>>,
        bruck: bool,
    ) -> MpiResult<Sched<'a>> {
        let (send, p, me) = (send.into(), self.size(), self.rank());
        if !send.len().is_multiple_of(p) {
            return Err(MpiError::InvalidCounts {
                what: "alltoall send length not divisible by comm size",
            });
        }
        let block = send.len() / p;
        if bruck || (p > 4 && block <= BRUCK_THRESHOLD_BYTES) {
            let slots = sm::permuted(&send, p, block, |j| (me + j) % p);
            return Ok(self.sched(sm::alltoall_bruck(p, me, block), slots, Vec::new()));
        }
        let layout = (&vec![block; p][..], &excl_prefix_sum(&vec![block; p])[..]);
        self.alltoallv_sched(send, layout, layout)
    }

    /// Linear alltoallv of `send` by byte counts and displacements.
    pub(crate) fn alltoallv_sched<'a>(
        &self,
        send: impl Into<Cow<'a, [u8]>>,
        send_layout: sm::Layout<'_>,
        recv_layout: sm::Layout<'_>,
    ) -> MpiResult<Sched<'a>> {
        let (send, p, me) = (send.into(), self.size(), self.rank());
        let ((send_counts, send_displs), (recv_counts, recv_displs)) = (send_layout, recv_layout);
        self.check_len(send_counts, "alltoallv send_counts length != comm size")?;
        self.check_len(send_displs, "alltoallv send_displs length != comm size")?;
        self.check_len(recv_counts, "alltoallv recv_counts length != comm size")?;
        self.check_len(recv_displs, "alltoallv recv_displs length != comm size")?;
        if (0..p).any(|dest| send_displs[dest] + send_counts[dest] > send.len()) {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv send block out of bounds",
            });
        }
        if send_counts[me] != recv_counts[me] {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv self send/recv count mismatch",
            });
        }
        let total = (0..p).map(|s| recv_displs[s] + recv_counts[s]).max();
        let mine = &send[send_displs[me]..send_displs[me] + send_counts[me]];
        let out = sm::placed(total.unwrap_or(0), recv_displs[me], mine);
        let schedule = sm::alltoallv(p, me, send_layout, recv_layout);
        Ok(self.sched(schedule, out, send))
    }

    // ----- nonblocking entry points -----

    /// Nonblocking broadcast: the root moves `buf` in; every rank's `wait`
    /// returns the broadcast bytes (the non-root input buffer is dropped,
    /// mirroring `bcast` overwriting it). Same algorithm as
    /// [`RawComm::bcast`].
    pub fn ibcast(&self, mut buf: Vec<u8>, root: usize) -> MpiResult<RawCollRequest> {
        self.issue(Op::Ibcast, None, || self.bcast_sched(&mut buf, root))
    }

    /// Nonblocking reduce to `root`: `wait` returns the reduced buffer at
    /// the root and an empty buffer elsewhere. Same algorithm as
    /// [`RawComm::reduce`].
    pub fn ireduce(
        &self,
        mut buf: Vec<u8>,
        op: OwnedByteOp,
        elem_size: usize,
        root: usize,
    ) -> MpiResult<RawCollRequest> {
        self.issue(Op::Ireduce, Some((op, elem_size)), || {
            self.reduce_sched(&mut buf, elem_size, root)
        })
    }

    /// Nonblocking reduce-to-all: `wait` returns the reduced buffer on
    /// every rank. Same algorithm as [`RawComm::allreduce`].
    pub fn iallreduce(
        &self,
        mut buf: Vec<u8>,
        op: OwnedByteOp,
        elem_size: usize,
    ) -> MpiResult<RawCollRequest> {
        self.issue(Op::Iallreduce, Some((op, elem_size)), || {
            self.allreduce_sched(&mut buf, elem_size, false)
        })
    }

    /// Nonblocking allgather of equal-size blocks: `wait` returns the
    /// rank-ordered concatenation.
    pub fn iallgather(&self, send: Vec<u8>) -> MpiResult<RawCollRequest> {
        let counts = vec![send.len(); self.size()];
        self.issue(Op::Iallgather, None, || {
            self.allgatherv_sched(&send, &counts)
        })
    }

    /// Variable-size counterpart of [`RawComm::iallgather`].
    pub fn iallgatherv(&self, send: Vec<u8>, recv_counts: &[usize]) -> MpiResult<RawCollRequest> {
        self.issue(Op::Iallgatherv, None, || {
            self.allgatherv_sched(&send, recv_counts)
        })
    }

    /// Nonblocking fixed-size all-to-all: `send` is `p` equal byte blocks,
    /// block `i` goes to rank `i`; `wait` returns the received blocks in
    /// rank order. Same algorithm as [`RawComm::alltoall`].
    pub fn ialltoall(&self, send: Vec<u8>) -> MpiResult<RawCollRequest> {
        self.issue(Op::Ialltoall, None, || self.alltoall_sched(send, false))
    }

    /// Nonblocking variable all-to-all with explicit byte counts and
    /// displacements; `wait` returns the assembled receive buffer. Linear
    /// (one envelope per peer), like the blocking `alltoallv`.
    pub fn ialltoallv(
        &self,
        send: Vec<u8>,
        send_counts: &[usize],
        send_displs: &[usize],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> MpiResult<RawCollRequest> {
        self.issue(Op::Ialltoallv, None, || {
            let layouts = ((send_counts, send_displs), (recv_counts, recv_displs));
            self.alltoallv_sched(send, layouts.0, layouts.1)
        })
    }

    /// Nonblocking barrier. Crate-internal — the public face is
    /// [`RawComm::ibarrier`], which wraps this in a
    /// [`crate::request::RawRequest`] for drop-in `MPI_Request` semantics.
    pub(crate) fn ibarrier_req(&self) -> MpiResult<RawCollRequest> {
        self.issue(Op::Ibarrier, None, || {
            let schedule = sm::barrier(self.size(), self.rank());
            Ok(self.sched(schedule, Vec::new(), Vec::new()))
        })
    }
}

/// A reduction buffer must hold whole elements.
pub(crate) fn check_elems(buf: &[u8], elem_size: usize) -> MpiResult<()> {
    if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
        return Err(MpiError::InvalidCounts {
            what: "reduce buffer not a multiple of elem_size",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn fast_path_gate_closes_when_last_request_drops() {
        // Regression: `active` was only decremented when a sweep noticed a
        // dead weak, so after the last request completed and dropped, the
        // delivery fast path stayed closed until some *later* coll-tagged
        // delivery or kick happened to sweep — indefinitely, if none came.
        // Now the cell's Drop closes the gate, so after both ranks have
        // completed and dropped their requests (ordered by a p2p handshake,
        // which never enters the collective engine) the counter must read
        // zero with no further collective traffic.
        Universe::run(2, |comm| {
            let mut req = comm.iallgather(vec![comm.rank() as u8]).unwrap();
            assert_eq!(req.wait().unwrap(), vec![0, 1]);
            let peer = 1 - comm.rank();
            comm.send(peer, 9, b"done").unwrap();
            comm.recv(peer, 9).unwrap();
            assert_eq!(comm.state.icoll.active.load(Ordering::Acquire), 0);
        });
    }
}
