//! The universe: process-global state and the SPMD entry point.
//!
//! [`Universe::run`] plays the role of `mpirun -n p`. On the default
//! shared-memory backend it spawns `p` rank threads, hands each a world
//! communicator, joins them, and returns their results ordered by rank.
//! Under a [`kampirun`](crate::net) launch (`KAMPING_TRANSPORT=socket`
//! plus the rendezvous environment), the same call instead *joins* a
//! multi-process job as one rank: the closure runs once for the rank this
//! process hosts and the returned vector holds that single result.
//!
//! A rank that panics is treated like a crashed process: it is marked
//! failed so that peers blocked on it observe [`MpiError::ProcFailed`]
//! instead of deadlocking, and (on the thread backend) the panic is
//! re-raised on the spawning thread after all ranks have finished.
//!
//! All fault and barrier bookkeeping lives here as a *per-process view*:
//! on the shm backend the view is genuinely shared by all ranks, on the
//! socket backend each process keeps its own copy synchronized through
//! [`ControlMsg`] frames applied via the `ControlSink` impl below.

use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::chaos::{ChaosSpec, ChaosTransport};
use crate::comm::RawComm;
use crate::config::Config;
use crate::error::{MpiError, MpiResult};
use crate::icoll::Registry;
use crate::measurements::TreeAggregate;
use crate::metrics::{Counter, MetricsPlane, MetricsSnapshot};
use crate::profile::ProfileSnapshot;
use crate::trace::{TraceCtx, TraceEvent};
use crate::transport::{
    members_from_mask, ControlMsg, ControlSink, Envelope, Mailbox, MatchKey, Payload, ShmTransport,
    Transport, INLINE_CAP,
};

/// One membership-growth admission: at `epoch`, `joiners` were added and
/// the full membership became `members` (global ranks, ascending — local
/// ranks of the grown communicator renumber densely by position).
#[derive(Debug, Clone)]
pub(crate) struct GrowEvent {
    /// Membership epoch this event established (strictly increasing).
    pub(crate) epoch: u64,
    /// Global ranks admitted by this event.
    pub(crate) joiners: Vec<usize>,
    /// Complete membership after the event.
    pub(crate) members: Vec<usize>,
}

/// Fate bit of a rank that has failed (ULFM).
const FAILED: u8 = 1;
/// Fate bit of a rank whose SPMD closure has returned. A finished rank will
/// never communicate again, so peers blocked on it must be interrupted (in
/// real MPI, completing `MPI_Finalize` with matching operations still
/// pending is erroneous; we surface it as a process failure).
const FINISHED: u8 = 2;

/// Shared state of one MPI job, as seen by one process.
pub(crate) struct UniverseState {
    /// Number of rank slots in the universe. On a fixed-size job this is
    /// the world size; on an elastic job it is the *capacity* — mailboxes,
    /// counters and transport lanes are sized for it up front, and ranks
    /// beyond the launch membership stay dormant until admitted.
    pub(crate) size: usize,
    /// Global ranks alive at launch, ascending — the group of the world
    /// communicator this process hands to its SPMD closure(s). Normally
    /// `0..size`; smaller on elastic jobs; the admission-time membership
    /// on a late-joining socket process.
    pub(crate) launch_members: Vec<usize>,
    /// Current membership (latest epoch's view).
    pub(crate) members: RwLock<Vec<usize>>,
    /// Latest membership epoch (0 = launch; each admission bumps it).
    pub(crate) membership_epoch: AtomicU64,
    /// Every grow event seen, ascending by epoch — kept whole so that a
    /// survivor lagging several admissions behind can replay them one
    /// typed epoch transition at a time.
    pub(crate) grow_log: RwLock<Vec<GrowEvent>>,
    /// Ranks parked awaiting admission ([`Universe::run_elastic`], shm).
    pub(crate) parked: Mutex<Vec<usize>>,
    /// Admitted-but-unfinished rank count (shm elastic termination): when
    /// it reaches zero, `closing` is raised and parked ranks give up.
    pub(crate) active_unfinished: AtomicUsize,
    /// Raised when the job is over (then every local mailbox is kicked);
    /// never-admitted parked ranks exit.
    pub(crate) closing: AtomicBool,
    /// The backend moving envelopes and control events between ranks.
    pub(crate) transport: Arc<dyn Transport>,
    /// Fate bits ([`FAILED`], [`FINISHED`]) of each of the `size` rank
    /// slots, indexed by global rank. A mark sets its bit with `Release`
    /// before it wakes anyone; the checks load it with `Acquire`, so a
    /// reader that sees a rank gone also sees what the rank did first.
    fates: Box<[AtomicU8]>,
    /// The first failure this process observed — what the flight recorder
    /// names in its crash report (local observation order; the post-mortem
    /// collector takes the consensus across processes). Set after the fate
    /// bit, it is also the one-load "has any rank failed" gate.
    pub(crate) first_failed: OnceLock<usize>,
    /// Context ids of revoked communicators (ULFM). Contexts are hashes, so
    /// this stays a set; it is read only once `any_revoked` is up.
    revoked: RwLock<HashSet<u64>>,
    /// Raised by the first revocation: until then a revocation check is one
    /// load and takes no lock.
    any_revoked: AtomicBool,
    /// Outstanding nonblocking-collective schedules of locally-hosted
    /// ranks, advanced by whichever thread delivers a collective-tagged
    /// envelope (see [`crate::icoll`]).
    pub(crate) icoll: Registry,
    /// The instrumentation core: one stats block per global rank (remote
    /// ranks' blocks stay zero on multi-process backends; each process
    /// reports its own), the gate word and the event ring.
    pub(crate) trace: Arc<TraceCtx>,
    /// The environment as parsed at universe start.
    pub(crate) config: Config,
}

impl UniverseState {
    /// In-process universe over the shared-memory backend, wrapped in the
    /// chaos layer if `config` carries a schedule. The chaos layer's
    /// control sink (where an injected rank death is applied) is bound to
    /// the returned state. `initial` of the `size` rank slots are live at
    /// launch (they differ only on elastic universes; fixed jobs pass
    /// `initial == size`).
    fn new_shm(size: usize, initial: usize, config: Config) -> Arc<Self> {
        let trace = Arc::new(TraceCtx::new(size, config.trace_flags()));
        let shm: Arc<dyn Transport> = Arc::new(ShmTransport::new(size, &trace));
        let (transport, chaos_layer) = match config.chaos.clone() {
            None => (shm, None),
            Some(spec) => {
                let layer = Arc::new(ChaosTransport::new(shm, size, spec, Arc::clone(&trace)));
                (Arc::clone(&layer) as Arc<dyn Transport>, Some(layer))
            }
        };
        let state = Arc::new(Self::with_transport(
            size,
            (0..initial).collect(),
            transport,
            trace,
            config,
        ));
        if let Some(layer) = chaos_layer {
            let sink: Arc<dyn ControlSink> = Arc::clone(&state) as Arc<dyn ControlSink>;
            layer.bind_sink(Arc::downgrade(&sink));
        }
        state
    }

    /// Universe over an externally-constructed backend (the socket path).
    /// `size` is the slot capacity; `launch_members` the globals alive from
    /// this process's point of view at construction.
    pub(crate) fn with_transport(
        size: usize,
        launch_members: Vec<usize>,
        transport: Arc<dyn Transport>,
        trace: Arc<TraceCtx>,
        config: Config,
    ) -> Self {
        Self {
            size,
            members: RwLock::new(launch_members.clone()),
            launch_members,
            membership_epoch: AtomicU64::new(0),
            grow_log: RwLock::new(Vec::new()),
            parked: Mutex::new(Vec::new()),
            active_unfinished: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            transport,
            fates: (0..size).map(|_| AtomicU8::new(0)).collect(),
            first_failed: OnceLock::new(),
            revoked: RwLock::new(HashSet::new()),
            any_revoked: AtomicBool::new(false),
            icoll: Registry::new(),
            trace,
            config,
        }
    }

    /// Hands `envelope` to the transport for `dest` — the one post seam of
    /// point-to-point sends and collective schedule steps. Messages to
    /// failed ranks are silently dropped (a send to a dead process may
    /// complete in MPI; the failure surfaces at receives).
    #[inline]
    pub(crate) fn post(&self, dest: usize, envelope: Envelope) {
        self.trace
            .posted(dest, envelope.key(), envelope.payload.len());
        if self.is_failed(dest) {
            if let Some(ack) = envelope.ack {
                // Never going to be matched; complete it so senders don't hang.
                ack.set();
            }
            return;
        }
        self.transport.post(dest, envelope);
    }

    /// [`UniverseState::post`] for a payload the caller only lends: a
    /// backend with a wire copies it there directly, any other gets it
    /// packed (one copy, into the envelope itself when it fits inline).
    #[inline]
    pub(crate) fn send(&self, dest: usize, msg: MatchKey, bytes: &[u8]) {
        if bytes.len() > INLINE_CAP {
            if self.transport.send_borrowed(dest, msg, bytes) {
                self.trace.posted(dest, msg, bytes.len());
                return;
            }
            self.trace.payload_moved(msg.src, bytes.len(), 1, 1);
        }
        let (src, tag, ctx) = (msg.src, msg.tag, msg.ctx);
        self.post(
            dest,
            Envelope {
                src,
                tag,
                ctx,
                payload: Payload::from_slice(bytes),
                ack: None,
            },
        );
    }

    /// The mailbox of a locally-hosted rank.
    #[inline]
    pub(crate) fn mailbox(&self, rank: usize) -> &Mailbox {
        self.transport.mailbox(rank)
    }

    /// Wakes everything that might be waiting on a mark: every wait of a
    /// local rank sleeps on its own mailbox's gate, so kicking every local
    /// mailbox reaches receives, collective waits, synchronous sends,
    /// membership waits and parked ranks alike.
    fn broadcast_fault(&self) {
        self.transport.kick_local();
    }

    /// Sets fate `bit` of `rank` (a slot outside the universe has none).
    fn set_fate(&self, rank: usize, bit: u8) {
        if let Some(fate) = self.fates.get(rank) {
            fate.fetch_or(bit, Ordering::Release);
        }
    }

    /// The fate bits of `rank`; 0 for a live rank or a slot outside the
    /// universe (`ANY_SOURCE` included).
    #[inline]
    fn fate(&self, rank: usize) -> u8 {
        self.fates
            .get(rank)
            .map_or(0, |f| f.load(Ordering::Acquire))
    }

    /// Applies a failure mark to the local view (no re-broadcast).
    fn apply_failed(&self, rank: usize) {
        self.set_fate(rank, FAILED);
        let _ = self.first_failed.set(rank);
        self.broadcast_fault();
    }

    /// Applies a finish mark to the local view (no re-broadcast).
    fn apply_finished(&self, rank: usize) {
        self.set_fate(rank, FINISHED);
        self.broadcast_fault();
    }

    /// Applies a revocation mark to the local view (no re-broadcast).
    fn apply_revoked(&self, ctx: u64) {
        self.revoked
            .write()
            .expect("revoked set poisoned")
            .insert(ctx);
        self.any_revoked.store(true, Ordering::Release);
        self.broadcast_fault();
    }

    /// Marks `rank` failed, wakes every blocked local receiver, and tells
    /// all remote ranks.
    pub(crate) fn mark_failed(&self, rank: usize) {
        self.apply_failed(rank);
        self.transport.control(ControlMsg::Failed { rank });
    }

    /// True if `rank` is marked failed.
    #[inline]
    pub(crate) fn is_failed(&self, rank: usize) -> bool {
        self.fate(rank) & FAILED != 0
    }

    /// True if some rank of this universe is marked failed.
    #[inline]
    pub(crate) fn any_failed(&self) -> bool {
        self.first_failed.get().is_some()
    }

    /// Every rank marked failed, ascending.
    pub(crate) fn failed_ranks(&self) -> Vec<usize> {
        (0..self.size).filter(|&r| self.is_failed(r)).collect()
    }

    /// Marks `rank` as finished (its SPMD closure returned), wakes every
    /// blocked local receiver, and tells all remote ranks.
    pub(crate) fn mark_finished(&self, rank: usize) {
        self.apply_finished(rank);
        self.transport.control(ControlMsg::Finished { rank });
    }

    /// True if `rank`'s closure has returned.
    pub(crate) fn is_finished(&self, rank: usize) -> bool {
        self.fate(rank) & FINISHED != 0
    }

    /// True if `rank` will never communicate again (failed or finished).
    #[inline]
    pub(crate) fn is_gone(&self, rank: usize) -> bool {
        self.fate(rank) != 0
    }

    /// Applies a grow event to the local view (no re-broadcast).
    /// Idempotent by epoch: the same admission may reach a process both
    /// through the rendezvous monitor and a control frame.
    pub(crate) fn apply_grow(&self, epoch: u64, joiners: Vec<usize>, members: Vec<usize>) {
        {
            let mut log = self.grow_log.write().expect("grow log poisoned");
            if log.iter().any(|e| e.epoch == epoch) {
                return;
            }
            log.push(GrowEvent {
                epoch,
                joiners,
                members: members.clone(),
            });
            log.sort_by_key(|e| e.epoch);
            // Only the newest epoch defines the current membership; a
            // stale event replayed late must not roll it back.
            if epoch >= self.membership_epoch.load(Ordering::Acquire) {
                *self.members.write().expect("members poisoned") = members;
            }
            self.membership_epoch.fetch_max(epoch, Ordering::AcqRel);
        }
        self.broadcast_fault();
    }

    /// Applies a grow event locally and tells all remote ranks. (On the
    /// socket backend the rendezvous monitor broadcasts a richer frame
    /// carrying the joiner's address instead; this path serves the shm
    /// backend, where `control` is a local no-op beyond chaos bookkeeping.)
    pub(crate) fn mark_grow(&self, epoch: u64, joiners: Vec<usize>, members: Vec<usize>) {
        let mask = crate::transport::members_to_mask(&members);
        let joiner = joiners.first().copied().unwrap_or(0);
        self.apply_grow(epoch, joiners, members);
        self.transport.control(ControlMsg::Grow {
            epoch,
            joiner,
            members: mask,
        });
    }

    /// The membership of the latest epoch this process has observed.
    pub(crate) fn current_members(&self) -> Vec<usize> {
        self.members.read().expect("members poisoned").clone()
    }

    /// The grow event of the lowest epoch strictly above `epoch`, if any.
    pub(crate) fn next_grow_after(&self, epoch: u64) -> Option<GrowEvent> {
        self.grow_log
            .read()
            .expect("grow log poisoned")
            .iter()
            .find(|e| e.epoch > epoch)
            .cloned()
    }

    /// Marks the communicator context revoked on all ranks.
    pub(crate) fn mark_revoked(&self, ctx: u64) {
        self.apply_revoked(ctx);
        self.transport.control(ControlMsg::Revoked { ctx });
    }

    /// True if the context has been revoked. One load while no
    /// communicator of this process has been; the set lookup after that.
    #[inline]
    pub(crate) fn is_revoked(&self, ctx: u64) -> bool {
        self.any_revoked.load(Ordering::Acquire)
            && (self.revoked.read())
                .expect("revoked set poisoned")
                .contains(&ctx)
    }

    /// Writes this process's teardown artefacts: the crash reports (when
    /// `KAMPING_CRASH_DIR` is set and a rank panicked, failed or timed
    /// out) and the `KAMPING_TRACE` export, sharing one drain of the event
    /// ring. `hosted` are the ranks living in this process; `proc_rank` is
    /// the one rank of a multi-process backend — it names the per-rank
    /// trace file, and reports even when it is itself the failed rank,
    /// whereas a shared process reports for its survivors only.
    pub(crate) fn write_artifacts(
        &self,
        panicked: &[usize],
        hosted: &[usize],
        proc_rank: Option<usize>,
    ) {
        let failed = self.failed_ranks();
        let timeouts = |r: usize| self.trace.rank(r).snapshot().counter(Counter::Timeouts);
        let crash_dir = self.config.crash_dir.as_deref().filter(|_| {
            !panicked.is_empty() || !failed.is_empty() || hosted.iter().any(|&r| timeouts(r) > 0)
        });
        if crash_dir.is_none() && self.config.trace_out.is_none() {
            return;
        }
        let events = self.trace.take_events();
        if let Some(dir) = crash_dir {
            let reporting: Vec<usize> = (hosted.iter().copied())
                .filter(|r| proc_rank.is_some() || !failed.contains(r))
                .collect();
            crate::metrics::dump_crash_reports(self, dir, panicked, &failed, &events, &reporting);
        }
        if let Some(out) = &self.config.trace_out {
            if let Err(e) =
                crate::trace::write_process_trace_events(&self.trace, &events, out, proc_rank)
            {
                eprintln!("kamping: failed to write trace to {}: {e}", out.display());
            }
        }
    }

    /// Freezes the profiling counters.
    pub(crate) fn profile(&self) -> ProfileSnapshot {
        ProfileSnapshot::capture(&self.trace)
    }
}

impl ControlSink for UniverseState {
    fn apply(&self, msg: ControlMsg) {
        match msg {
            ControlMsg::Failed { rank } => self.apply_failed(rank),
            ControlMsg::Finished { rank } => self.apply_finished(rank),
            ControlMsg::Revoked { ctx } => self.apply_revoked(ctx),
            ControlMsg::Grow {
                epoch,
                joiner,
                members,
            } => self.apply_grow(epoch, vec![joiner], members_from_mask(members)),
        }
    }
}

/// Handle to an MPI job.
///
/// The common entry point is [`Universe::run`]; [`Universe::run_profiled`]
/// additionally returns the profiling counters accumulated during the run.
pub struct Universe;

impl Universe {
    /// Runs `f` as an SPMD job and returns the per-rank results.
    ///
    /// Backend selection: when the `KAMPING_TRANSPORT=socket` environment
    /// (as set up by the [`kampirun`](crate::net) launcher) is present,
    /// this process joins a multi-process job as the rank named by
    /// `KAMPING_RANK` — `size` is ignored in favour of the launcher's
    /// `--ranks`, the closure runs once, and the returned vector holds
    /// this rank's single result. Otherwise `f` runs on `size` rank
    /// threads over shared memory and the results come back ordered by
    /// rank.
    ///
    /// `f` receives the world communicator of its rank. Panics of rank
    /// threads are re-raised here after all ranks have terminated (the
    /// first panicking rank wins); surviving ranks observe the panicking
    /// rank as *failed* rather than hanging.
    ///
    /// # Panics
    /// Panics if the configuration is unusable (`size == 0`, malformed
    /// `KAMPING_TRANSPORT`/`KAMPING_CHAOS`, broken rendezvous environment)
    /// or if any rank panics. Use [`Universe::try_run`] to receive
    /// configuration problems as [`MpiError::Config`] instead.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        Self::try_run(size, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Universe::run`], but configuration problems come back as
    /// [`MpiError::Config`] instead of panicking — the entry point for
    /// launchers and tests that must observe bad environments as values.
    pub fn try_run<R, F>(size: usize, f: F) -> MpiResult<Vec<R>>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        Self::try_run_profiled(size, f).map(|(values, _)| values)
    }

    /// Like [`Universe::run`], also returning the final profile snapshot.
    /// On a multi-process backend the snapshot covers this rank only.
    ///
    /// # Panics
    /// As [`Universe::run`].
    pub fn run_profiled<R, F>(size: usize, f: F) -> (Vec<R>, ProfileSnapshot)
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        Self::try_run_profiled(size, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The non-panicking entry point behind every `run_*` wrapper: parses
    /// the environment (once), selects the backend, applies any
    /// `KAMPING_CHAOS` schedule, and surfaces configuration problems as
    /// [`MpiError::Config`].
    pub(crate) fn try_run_profiled<R, F>(size: usize, f: F) -> MpiResult<(Vec<R>, ProfileSnapshot)>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        let job = Self::run_dispatch(size, Config::from_env()?, f)?;
        let ranks = job.stats.iter().map(MetricsSnapshot::profile).collect();
        Ok((job.values, ProfileSnapshot { ranks }))
    }

    /// Backend dispatch shared by every entry point: a `kampirun` launch
    /// environment in `config` joins that job as one rank, anything else
    /// runs `size` rank threads over shared memory.
    fn run_dispatch<R, F>(size: usize, config: Config, f: F) -> MpiResult<Job<R>>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        if config.socket.is_some() {
            return crate::net::run_socket(config, f);
        }
        Self::run_threads(size, size, config, f)
    }

    /// Runs `f` with tracing and measuring force-enabled (on top of any
    /// `KAMPING_TRACE` settings) and returns a `TraceReport`: the raw
    /// lifecycle events, a Perfetto-loadable Chrome trace document, and an
    /// aggregated per-op timer tree where every rank contributes its
    /// call counts and wait/compute latency split.
    ///
    /// Works on both backends: the op tree is a view of every rank's stats
    /// block, which a multi-process job gathers at teardown (on a reserved
    /// tag range), so on the socket backend each process reports the
    /// cross-rank aggregate of its own universe.
    pub fn run_traced<R, F>(size: usize, f: F) -> MpiResult<(Vec<R>, TraceReport)>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        let mut config = Config::from_env()?;
        config.tracing = true;
        config.measuring = true;
        let job = Self::run_dispatch(size, config, f)?;
        let events = job.trace.take_events();
        let chrome_json = crate::trace::chrome_trace_json(&events);
        Ok((
            job.values,
            TraceReport {
                op_tree: (job.complete).then(|| crate::measurements::op_tree(&job.stats)),
                dropped_events: job.trace.dropped_events(),
                events,
                chrome_json,
            },
        ))
    }

    /// Runs `f` on `size` shared-memory ranks under the given fault
    /// schedule — the programmatic form of `KAMPING_CHAOS`. Deterministic:
    /// the same `spec` (seed included) injects the same faults on every
    /// run, so a test can assert the exact failure its ranks observe.
    pub fn run_with_chaos<R, F>(size: usize, spec: ChaosSpec, f: F) -> MpiResult<Vec<R>>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        let mut config = Config::from_env()?;
        config.chaos = Some(spec);
        Self::run_threads(size, size, config, f).map(|job| job.values)
    }

    /// Runs `f` as an *elastic* SPMD job: `initial` ranks start immediately
    /// and up to `capacity - initial` more can be admitted mid-run. On the
    /// shm backend the extra ranks are parked threads that a member admits
    /// with [`RawComm::spawn_merge`]; under a `kampirun --elastic` launch
    /// the extra ranks are late-started processes admitted by the
    /// rendezvous monitor, and each admitted process runs `f` once on an
    /// already-grown communicator. Existing members observe an admission
    /// as a typed epoch transition through [`RawComm::grow`].
    ///
    /// Returns `(global_rank, result)` pairs in rank order for every rank
    /// whose closure ran — parked ranks that were never admitted return
    /// nothing. Membership is capped at 64 global ranks (the control-plane
    /// frames carry membership as a bitmask).
    pub fn run_elastic<R, F>(initial: usize, capacity: usize, f: F) -> MpiResult<Vec<(usize, R)>>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        let config = Config::from_env()?;
        let wrapped = |comm: RawComm| (comm.my_global_rank(), f(comm));
        if config.socket.is_some() {
            // One rank per process under kampirun; joiners are separate
            // processes, so the initial/capacity split is the launcher's
            // business (`--ranks` / `--elastic`), not ours.
            return crate::net::run_socket(config, wrapped).map(|job| job.values);
        }
        if capacity < initial {
            return Err(MpiError::Config(
                "elastic capacity must be at least the initial rank count".into(),
            ));
        }
        if capacity > 64 {
            return Err(MpiError::Config(
                "elastic universes are capped at 64 global ranks".into(),
            ));
        }
        Self::run_threads(initial, capacity, config, wrapped).map(|job| job.values)
    }

    /// The shared-memory path: spawn `capacity` rank threads, of which the
    /// last `capacity - initial` park until admitted or until the job
    /// closes, and join them. A fixed-size job is `initial == capacity`:
    /// nobody parks, so nobody draws from the parked pool or waits for
    /// `closing`. Hands back, in rank order, the result of every rank
    /// whose closure ran.
    pub(crate) fn run_threads<R, F>(
        initial: usize,
        capacity: usize,
        config: Config,
        f: F,
    ) -> MpiResult<Job<R>>
    where
        R: Send,
        F: Fn(RawComm) -> R + Sync,
    {
        if initial == 0 {
            return Err(MpiError::Config(
                "a universe needs at least one rank".into(),
            ));
        }
        let state = UniverseState::new_shm(capacity, initial, config);
        *state.parked.lock().expect("parked pool poisoned") = (initial..capacity).collect();
        state.active_unfinished.store(initial, Ordering::Release);
        let plane = MetricsPlane::start(&state, None);
        let f = &f;

        let results: Vec<(usize, std::thread::Result<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..capacity)
                .map(|rank| {
                    let state = Arc::clone(&state);
                    scope.spawn(move || {
                        crate::trace::set_thread_rank(rank);
                        let comm = if rank < initial {
                            RawComm::world(state.clone(), rank)
                        } else {
                            // Park until a member admits this rank via
                            // spawn_merge, or until the job closes with
                            // this rank never admitted.
                            let admitted = state.mailbox(rank).wait_until(&|| None, None, |_| {
                                let hit = state
                                    .grow_log
                                    .read()
                                    .expect("grow log poisoned")
                                    .iter()
                                    .find(|e| e.joiners.contains(&rank))
                                    .map(|e| (e.epoch, e.members.clone()));
                                match hit {
                                    Some(ev) => Some(Some(ev)),
                                    None if state.closing.load(Ordering::Acquire) => Some(None),
                                    None => None,
                                }
                            });
                            let (epoch, members) =
                                admitted.expect("a wait without a deadline cannot time out")?;
                            let comm = RawComm::from_grow(state.clone(), epoch, members, rank);
                            // Admission barrier: rendezvous with the
                            // survivors' grow() on the new context. A
                            // failure racing the admission surfaces again
                            // on the closure's own first operation.
                            let _ = comm.barrier();
                            comm
                        };
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(comm)));
                        if outcome.is_err() {
                            // Treat a panicking rank as a crashed process so
                            // that peers error out instead of deadlocking.
                            state.mark_failed(rank);
                        }
                        // Drain any fault-injection queues first: Finished
                        // must not overtake data this rank still owes.
                        state.transport.quiesce();
                        state.mark_finished(rank);
                        if state.active_unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                            state.closing.store(true, Ordering::Release);
                            state.transport.kick_local();
                        }
                        Some(outcome)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .filter_map(|(rank, h)| {
                    h.join()
                        .expect("rank thread itself never panics")
                        .map(|r| (rank, r))
                })
                .collect()
        });

        // Emit the final (possibly partial) metrics interval while the
        // transport is still up, then join the snapshot thread.
        if let Some(plane) = plane {
            plane.stop();
        }

        // All ranks have finished: flush and tear down the transport. For
        // plain shm this is a no-op; a chaos wrapper joins its delivery
        // thread and releases any held-back envelopes here.
        state.transport.shutdown();

        // All ranks share this process, so one self-contained trace (and
        // one set of survivor crash reports) covers the whole job.
        let ran: Vec<usize> = results.iter().map(|(rank, _)| *rank).collect();
        let panicked: Vec<usize> = (results.iter())
            .filter(|(_, r)| r.is_err())
            .map(|(rank, _)| *rank)
            .collect();
        state.write_artifacts(&panicked, &ran, None);

        let mut values = Vec::with_capacity(results.len());
        let mut first_panic = None;
        for (_, r) in results {
            match r {
                Ok(v) => values.push(v),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
        Ok(Job {
            values,
            stats: (0..capacity)
                .map(|r| state.trace.rank(r).snapshot())
                .collect(),
            complete: true,
            trace: Arc::clone(&state.trace),
        })
    }
}

/// What a finished job hands back to the `run_*` wrappers.
pub(crate) struct Job<R> {
    /// The closure results of the ranks this process hosted.
    pub(crate) values: Vec<R>,
    /// Every rank's frozen stats block, by global rank.
    pub(crate) stats: Vec<MetricsSnapshot>,
    /// False when a multi-process teardown gather did not happen (chaos, a
    /// local panic, a failed peer) and `stats` covers this process only.
    pub(crate) complete: bool,
    /// The universe's instrumentation core (the event ring outlives it).
    pub(crate) trace: Arc<TraceCtx>,
}

/// Everything [`Universe::run_traced`] captured about a job.
#[derive(Debug)]
pub struct TraceReport {
    /// All recorded lifecycle events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Aggregated per-op timer tree (calls / wait / compute per rank), or
    /// `None` if aggregation failed (e.g. a rank died mid-job).
    pub op_tree: Option<TreeAggregate>,
    /// The events as a Perfetto-loadable Chrome trace JSON document.
    pub chrome_json: String,
    /// Events lost to ring-buffer overflow (0 unless the job was huge).
    pub dropped_events: u64,
}

/// Interrupt predicate builder shared by blocking operations: returns an
/// error when `src` is gone or `ctx` has been revoked. Two loads while
/// nothing is revoked.
#[inline]
pub(crate) fn wait_interrupt(
    state: &UniverseState,
    src: usize,
    ctx: u64,
) -> impl Fn() -> Option<MpiError> + '_ {
    move || {
        if state.is_revoked(ctx) {
            return Some(MpiError::Revoked);
        }
        // `ANY_SOURCE` is no slot: its fate reads 0.
        state
            .is_gone(src)
            .then_some(MpiError::ProcFailed { rank: src })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Op;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = Universe::run(5, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn world_has_expected_shape() {
        Universe::run(3, |comm| {
            assert_eq!(comm.size(), 3);
            assert!(comm.rank() < 3);
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Universe::run(0, |_| ());
    }

    #[test]
    fn panicking_rank_propagates_and_unblocks_peers() {
        let caught = std::panic::catch_unwind(|| {
            Universe::run(2, |comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                // Rank 0 waits for a message that will never come; it must
                // observe the failure instead of hanging.
                let err = comm.recv(1, 0).unwrap_err();
                assert!(err.is_failure());
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn profiled_run_reports_counters() {
        let (_, profile) = Universe::run_profiled(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, b"hello").unwrap();
            } else {
                comm.recv(0, 0).unwrap();
            }
        });
        assert_eq!(profile.total_calls(crate::Op::Send), 1);
        assert_eq!(profile.total_calls(crate::Op::Recv), 1);
        assert_eq!(profile.total_messages(), 1);
        assert_eq!(profile.total_bytes(), 5);
    }

    /// Failed and finished are independent bits of one word: either order
    /// of the two marks leaves the rank failed *and* gone, and one mark
    /// touches no other rank.
    #[test]
    fn fate_bits_compose_in_either_order() {
        let state = UniverseState::new_shm(4, 4, Config::default());
        let fates = |r: usize| (state.is_failed(r), state.is_finished(r), state.is_gone(r));
        assert!(!state.any_failed());
        state.mark_finished(1);
        assert_eq!(fates(1), (false, true, true));
        assert!(!state.any_failed(), "a finish is no failure");
        state.mark_failed(1);
        assert_eq!(fates(1), (true, true, true));
        state.mark_failed(2);
        assert_eq!(fates(2), (true, false, true));
        state.mark_finished(2);
        assert_eq!(fates(2), (true, true, true));
        assert!(state.any_failed());
        assert_eq!(
            (fates(0), fates(3)),
            ((false, false, false), (false, false, false))
        );
        // Out-of-range slots (ANY_SOURCE among them) have no fate.
        assert!(!state.is_gone(crate::tag::ANY_SOURCE) && !state.is_gone(4));
    }

    /// The flight recorder's inputs read the bits: the first failure
    /// observed wins, and the failed list is ascending whatever the mark
    /// order.
    #[test]
    fn first_failed_and_failed_list_read_the_bits() {
        let state = UniverseState::new_shm(6, 6, Config::default());
        for r in [4, 1, 3] {
            state.mark_failed(r);
        }
        state.mark_finished(2);
        state.mark_failed(4);
        assert_eq!(state.first_failed.get(), Some(&4));
        assert_eq!(state.failed_ranks(), vec![1, 3, 4]);
    }

    /// The first revoke opens the gate; behind it, exactly the revoked
    /// context reads revoked.
    #[test]
    fn revocation_gate_opens_on_the_first_revoke() {
        let state = UniverseState::new_shm(2, 2, Config::default());
        assert!(!state.any_revoked.load(Ordering::Acquire) && !state.is_revoked(42));
        state.mark_revoked(42);
        assert!(state.any_revoked.load(Ordering::Acquire));
        assert!(state.is_revoked(42) && !state.is_revoked(43));
    }

    #[test]
    fn wait_interrupt_sees_a_mark_after_a_clean_check() {
        let state = UniverseState::new_shm(2, 2, Config::default());
        let check = wait_interrupt(&state, 1, 0);
        assert!(check().is_none());
        assert!(check().is_none());
        state.mark_failed(1);
        assert_eq!(check(), Some(MpiError::ProcFailed { rank: 1 }));
        let any = wait_interrupt(&state, crate::tag::ANY_SOURCE, 7);
        assert!(any().is_none());
        state.mark_revoked(7);
        assert_eq!(any(), Some(MpiError::Revoked));
    }

    #[test]
    fn control_sink_applies_remote_events() {
        let state = UniverseState::new_shm(3, 3, Config::default());
        state.apply(ControlMsg::Failed { rank: 2 });
        assert!(state.is_failed(2));
        state.apply(ControlMsg::Finished { rank: 1 });
        assert!(state.is_gone(1));
        state.apply(ControlMsg::Revoked { ctx: 9 });
        assert!(state.is_revoked(9));
    }

    /// The fixed script of the views test: p2p ring, bcast, allreduce and a
    /// waited nonblocking alltoallv.
    fn views_script(comm: RawComm) {
        let (me, p) = (comm.rank(), comm.size());
        comm.send((me + 1) % p, 3, &[me as u8; 40]).unwrap();
        comm.recv((me + p - 1) % p, 3).unwrap();
        let mut buf = vec![7u8; 100];
        comm.bcast(&mut buf, 1).unwrap();
        let mut sum = (me as u64).to_le_bytes().to_vec();
        let add = |acc: &mut [u8], x: &[u8]| {
            let s = u64::from_le_bytes(acc.try_into().unwrap())
                + u64::from_le_bytes(x.try_into().unwrap());
            acc.copy_from_slice(&s.to_le_bytes());
        };
        comm.allreduce(&mut sum, &add, 8).unwrap();
        let (counts, displs) = (vec![2; p], (0..p).map(|r| 2 * r).collect::<Vec<_>>());
        let req = comm.ialltoallv(vec![me as u8; 2 * p], &counts, &displs, &counts, &displs);
        req.unwrap().wait().unwrap();
    }

    /// Profile, op tree, counters and the event ring are views of one
    /// block: with every bit on they report the same numbers per rank, and
    /// with every bit off the profile (the always-on part) is unchanged.
    #[test]
    fn every_view_reads_the_same_numbers() {
        use crate::metrics::Counter;
        use crate::trace::EventKind;
        let all_on = Config {
            tracing: true,
            measuring: true,
            metrics: true,
            ..Config::default()
        };
        let on = Universe::run_threads(4, 4, all_on, views_script).unwrap();
        let off = Universe::run_threads(4, 4, Config::default(), views_script).unwrap();
        let events = on.trace.take_events();
        let tree = crate::measurements::op_tree(&on.stats);
        let of_rank = |r: usize, pick: &dyn Fn(&EventKind) -> Option<(u32, u64)>| -> (u64, u64) {
            (events.iter().filter_map(|e| pick(&e.kind)))
                .filter(|&(rank, _)| rank == r as u32)
                .fold((0, 0), |(n, bytes), (_, b)| (n + 1, bytes + b))
        };
        for r in 0..4 {
            let (stats, profile) = (&on.stats[r], on.stats[r].profile());
            assert_eq!(profile, off.stats[r].profile(), "rank {r}: always-on part");
            for op in crate::profile::ALL_OPS {
                let spans = of_rank(r, &|k| match *k {
                    EventKind::OpSpan { rank, op: o, .. } if o == op => Some((rank, 0)),
                    _ => None,
                });
                let in_tree = (tree.root.children.iter().find(|n| n.name == op.name()))
                    .map_or(0.0, |n| n.children[0].measurements[0].per_rank[r]);
                assert_eq!(profile.calls(op), spans.0, "rank {r}: {op:?} spans");
                assert_eq!(profile.calls(op) as f64, in_tree, "rank {r}: {op:?} tree");
            }
            assert!(profile.calls(Op::Ialltoallv) == 1 && profile.calls(Op::Send) == 1);
            let posts = of_rank(r, &|k| match *k {
                EventKind::Post { src, bytes, .. } => Some((src, bytes)),
                _ => None,
            });
            assert_eq!((profile.messages_sent, profile.bytes_sent), posts);
            let sent = (
                stats.counter(Counter::MsgsSent),
                stats.counter(Counter::BytesSent),
            );
            assert_eq!(sent, posts);
            let delivers = of_rank(r, &|k| match *k {
                EventKind::Deliver { dst, bytes, .. } => Some((dst, bytes)),
                _ => None,
            });
            assert_eq!(stats.counter(Counter::MsgsDelivered), delivers.0);
            assert_eq!(stats.counter(Counter::BytesDelivered), delivers.1);
            assert!(
                off.stats[r].counter(Counter::MsgsDelivered) == 0,
                "gated part is off"
            );
        }
    }

    /// An ack wakes its sender and nobody else, and the wake is charged to
    /// the rank it woke. Rank 0 waits on an issend to rank 1 while ranks 2
    /// and 3 sleep in `await_revoked`; rank 1 receives once all three have
    /// gone to sleep, and revokes once rank 0 has read its own wakes. The
    /// two hand-offs around that read go through flags, not messages, so
    /// they wake nobody; ranks 0 and 1 await the revoke too, so no finish
    /// mark lands in between.
    #[test]
    fn an_ack_wakes_its_sender_and_nobody_else() {
        use crate::metrics::Counter;
        use std::time::Duration;
        let metrics_on = Config {
            metrics: true,
            ..Config::default()
        };
        let spin_until = |flag: &AtomicBool| {
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Rank 1's receive has returned, so its ack's wake is counted; rank
        // 0 has read its count.
        let (received, read) = (AtomicBool::new(false), AtomicBool::new(false));
        let job = Universe::run_threads(4, 4, metrics_on, |comm| {
            let count = |r: usize, c| comm.state.trace.rank(r).snapshot().counter(c);
            let mut wakes = None;
            match comm.rank() {
                0 => {
                    comm.issend(1, 5, b"x".to_vec()).unwrap().wait().unwrap();
                    spin_until(&received);
                    wakes = Some(count(0, Counter::GateWakes));
                    read.store(true, Ordering::Release);
                }
                1 => {
                    while [0, 2, 3]
                        .iter()
                        .any(|&r| count(r, Counter::GateSleeps) == 0)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // A sleep is counted just before the sleeper registers:
                    // give the three that long to reach their condvars.
                    std::thread::sleep(Duration::from_millis(20));
                    comm.recv(0, 5).unwrap();
                    received.store(true, Ordering::Release);
                    spin_until(&read);
                    comm.revoke();
                }
                _ => {}
            }
            comm.await_revoked();
            wakes
        })
        .unwrap();
        assert_eq!(
            job.values[0],
            Some(1),
            "the ack's one wake, charged to rank 0"
        );
        for r in [2, 3] {
            let sleeps = job.stats[r].counter(Counter::GateSleeps);
            assert_eq!(sleeps, 1, "rank {r} slept once, until the revoke");
        }
    }

    /// A rank whose waits all end inside the mailbox's patience never
    /// sleeps, and is blocked all the same: `blocked_ns` covers the wait
    /// from where it left the fast path, not from the condvar.
    #[test]
    fn a_rank_that_waits_without_sleeping_is_reported_blocked() {
        use crate::metrics::Counter;
        use std::time::{Duration, Instant};
        const WAITS: u32 = 200;
        let metrics_on = Config {
            metrics: true,
            ..Config::default()
        };
        // Rank 0 announces each receive; rank 1 then spins ~30 us before it
        // sends, so rank 0 waits about that long every time.
        let script = |comm: RawComm| {
            let mut waited = Duration::ZERO;
            for _ in 0..WAITS {
                if comm.rank() == 0 {
                    comm.send(1, 1, b"").unwrap();
                    let t = Instant::now();
                    comm.recv(1, 2).unwrap();
                    waited += t.elapsed();
                } else {
                    comm.recv(0, 1).unwrap();
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_micros(30) {
                        std::hint::spin_loop();
                    }
                    comm.send(0, 2, b"").unwrap();
                }
            }
            waited.as_nanos() as u64
        };
        // The claim is about a run the scheduler left alone (one rank per
        // core, nobody descheduled mid-wait: one such wait, sampled or not,
        // outweighs the other 199). Other tests share the cores, so a
        // disturbed run is repeated; the bug this pins reads ~0 every time.
        let mut seen = Vec::new();
        for _ in 0..20 {
            let job = Universe::run_threads(2, 2, metrics_on.clone(), script).unwrap();
            let (waited, stats) = (job.values[0], &job.stats[0]);
            let blocked = stats.counter(Counter::BlockedNs);
            let sleeps = stats.counter(Counter::GateSleeps);
            if (waited / 2..=waited * 2).contains(&blocked) && sleeps <= u64::from(WAITS) / 10 {
                return;
            }
            seen.push((waited, blocked, sleeps));
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("(waited ns, blocked_ns, sleeps) per run: {seen:?}");
    }
}
