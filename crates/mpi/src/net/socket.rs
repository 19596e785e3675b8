//! The cross-process transport: event-driven sockets, plus optional
//! shared-memory rings (`shm-xproc`) for co-located peers.
//!
//! Each OS process hosts exactly one rank. All socket I/O — every inbound
//! and outbound connection, the data listener, connect retries, the idle
//! heartbeat — is owned by a single [`super::progress::Engine`] thread, so
//! the per-rank thread count is *flat in job size* (the seed design spent
//! a reader + writer thread pair per peer). [`SocketTransport::post`]
//! never touches the wire: it appends the frame's header and the
//! envelope's payload, as they are, to the peer's outbound queue and rings
//! the engine's eventfd doorbell.
//!
//! Connections are *unidirectional*: to send to rank `d`, the engine
//! lazily connects to `d`'s data listener (address from the rendezvous
//! table) and announces itself with a `Hello` frame; per-(source → dest)
//! FIFO order is queue order, which is `post` call order. Incoming
//! envelopes land in the local rank's [`Mailbox`], so matching semantics
//! (FIFO per source lane, `ANY_SOURCE` arrival stamps) are *identical* to
//! the shared-memory backend by construction.
//!
//! # shm-xproc
//!
//! Under `KAMPING_TRANSPORT=shm-xproc`, rank pairs that are both in the
//! co-located set exchange frames over mmap'd SPSC byte rings
//! ([`super::ring`]) instead of sockets: a send writes the frame straight
//! into the destination's inbox ring (same wire format, two memcpy parts:
//! header + payload — the *caller's slice* for a borrowed send, see
//! [`Transport::send_borrowed`]) and a single ring-consumer thread per
//! rank drains all inbound rings. Control frames travel the ring too, so
//! `Finished` can never overtake data on the same channel. Pairs that are
//! *not* both local fall back to the socket path per peer — mixed
//! topologies share one transport.
//!
//! # Receiving
//!
//! Both wires are read by the same two-state reader
//! ([`super::wire::FrameReader`], one per inbound ring or connection): once
//! a data frame's fixed header is in, the local [`Mailbox`] names the
//! payload's destination — the buffer a blocked receive posted for exactly
//! this message, or one exact-size allocation — and the remaining bytes
//! move from the ring (the socket) directly into it.
//!
//! Synchronous-mode sends travel with a registry key (`ack_id`): the
//! receiving side rebuilds the envelope with an [`AckCell`] whose hook
//! sends an `Ack` frame back when the message is matched, and the origin
//! flips the registered cell when that frame arrives (the cell's own hook
//! wakes the sender). Frames dropped because a peer became unreachable settle their
//! acks locally, so no sender waits on a frame that will never arrive.
//!
//! Failure detection is two-plane: a connect/write/read error on a data
//! connection marks the peer failed *locally*, and the rendezvous monitor
//! on rank 0 (see [`super::launch`]) catches crashed processes globally
//! and broadcasts `Failed` to everyone. A peer whose `Finished` control
//! frame was seen closes its connections *cleanly*; EOFs from it are not
//! failures. Ring producers poll the same verdicts while blocked on a
//! full ring, so a crashed consumer cannot wedge a sender.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Gauge, Hist};
use crate::trace::{EventKind, TraceCtx};
use crate::transport::{
    members_to_mask, AckCell, ControlMsg, ControlSink, Dest, Envelope, Hub, Locality, Mailbox,
    MatchKey, Transport,
};

use super::addr::{Addr, Listener};
use super::progress::{Engine, EngineHooks, OutFrame};
use super::ring::{inbox_path, Inbox, RingTx};
use super::wire::{
    corrupt, data_frame_header, encode_prefixed, Arrival, ByteSource, Frame, FrameReader,
    MAX_PAYLOAD,
};

/// How often a parked ring consumer re-checks the shutdown flag.
const CONSUMER_PARK_SLICE: Duration = Duration::from_millis(100);

/// Empty-drain passes the ring consumer makes (yielding, so a co-scheduled
/// producer can run) before parking on the doorbell futex. Deliberately
/// generous: while the consumer spins, `CONSUMER_SLEEP` stays clear and
/// producers skip the doorbell `futex_wake` syscall entirely — on the
/// latency path a *waiting receiver* drains the rings itself (the mailbox
/// progress poll), so the consumer's job is to yield cheaply, not to wake
/// fast.
const CONSUMER_IDLE_PASSES: u32 = 256;

/// How long the ring consumer leaves a payload in its ring for a receive
/// the rank thread is about to post ([`Mailbox::dest_for`]'s "ask again")
/// before it buffers the payload after all. A time rather than a number of
/// passes: a pass is as long as the core's other tenants make it, so a
/// count runs out soonest on a busy host — while the rank thread is still
/// looking at the previous message — and turns the one-copy receive into
/// the two-copy, two-buffer one on exactly the runs that are slow already.
/// It bounds what the sender of a large message can lose to a rank that
/// has stopped receiving: once per such rank, not per message.
const CONSUMER_PATIENCE: Duration = Duration::from_millis(1);

/// Where control frames go before/after the universe binds itself.
enum SinkState {
    /// No sink yet: queue events, replayed on bind.
    Pending(Vec<ControlMsg>),
    /// Bound to the universe (weakly — the universe owns the transport).
    Bound(Weak<dyn ControlSink>),
}

/// Everything the ring consumer thread needs about the shm-xproc side.
pub(crate) struct XprocSetup {
    /// This rank's own inbox (created before the rendezvous join, so every
    /// peer that holds the address table can already map it).
    pub(crate) inbox: Inbox,
    /// Directory holding all inbox files.
    pub(crate) dir: std::path::PathBuf,
    /// The co-located rank set (includes this rank). A pair uses rings iff
    /// *both* ends are in the set.
    pub(crate) local: Vec<usize>,
    /// Per-channel ring capacity (bytes, power of two).
    pub(crate) ring_bytes: usize,
}

/// Inbound-ring drain state: the per-source frame readers plus the inbox
/// they read from. Behind a mutex in [`Shared`] because *two* kinds of
/// thread drain: the dedicated ring consumer (always, so a computing rank
/// cannot wedge its producers) and any receiver blocked in
/// [`Mailbox::wait`]-style calls, which pulls its own frames via the
/// mailbox progress poll to skip the consumer-thread handoff.
struct RingRx {
    inbox: Arc<Inbox>,
    chans: Vec<Chan>,
}

/// One inbound ring: its source rank and the reader of its byte stream
/// (`None` once the stream turned out corrupt and the source was given up).
struct Chan {
    src: usize,
    reader: Option<FrameReader>,
    /// Since when the consumer has been leaving a payload in the ring for
    /// the rank thread to receive ([`Mailbox::dest_for`]'s "ask again").
    waiting_since: Option<Instant>,
}

impl Chan {
    fn new(src: usize) -> Self {
        Self {
            src,
            reader: Some(FrameReader::default()),
            waiting_since: None,
        }
    }
}

/// `src`'s ring in `inbox` as the byte source of a [`FrameReader`].
struct RingSource<'a> {
    inbox: &'a Inbox,
    src: usize,
    /// Bytes moved so far.
    moved: usize,
}

// SAFETY: `Inbox::read` returns how many leading bytes of `dst` it wrote.
unsafe impl ByteSource for RingSource<'_> {
    fn read(&mut self, dst: &mut [std::mem::MaybeUninit<u8>]) -> io::Result<usize> {
        let n = self.inbox.read(self.src, dst);
        self.moved += n;
        Ok(n)
    }
}

/// State shared between the transport handle, the progress engine, the
/// ring consumer and ack hooks.
struct Shared {
    /// Back-reference to the owning `Arc` (set by `Arc::new_cyclic`), so
    /// ack hooks — which must own the state they fire into — can be built
    /// from `&self` contexts like the engine callbacks.
    me: Weak<Shared>,
    my_rank: usize,
    size: usize,
    /// The one local rank's mailbox: loopback envelopes are posted, what
    /// comes off a wire lands ([`Mailbox::dest_for`], [`Mailbox::land`]).
    mailbox: Mailbox,
    /// Outbound ring per destination, for peers co-located with this rank
    /// (unset = socket path). The mutex serializes producers: the main
    /// thread and the chaos delivery thread can both post. Slots are
    /// `OnceLock` because elastic joiners are installed after construction.
    rings: Vec<OnceLock<Mutex<RingTx>>>,
    /// Inbound-ring drain state (`None` on the pure-socket path).
    rx: Option<Mutex<RingRx>>,
    /// Sources whose inbound-ring channel must be added on the next drain.
    /// Written by `install_peer` (which may run *inside* a drain, via
    /// `route_frame`) — a separate lock avoids re-entering the `rx` mutex.
    pending_chans: Mutex<Vec<usize>>,
    /// Ranks this process knows to exist: the launch membership plus every
    /// admitted joiner. `size` is the *capacity* of the universe; slots
    /// outside this set were never occupied and must not be contacted.
    active: Mutex<HashSet<usize>>,
    /// shm-xproc ring directory (`None` on the pure-socket path); used to
    /// open rings to late joiners and to unlink departed ranks' inboxes.
    xproc_dir: Option<std::path::PathBuf>,
    /// Per-channel ring capacity for lazily opened joiner rings.
    ring_bytes: usize,
    sink: Mutex<SinkState>,
    /// Ranks whose `Finished` control frame has been applied: EOF from
    /// them is a clean close, not a failure.
    finished_seen: Mutex<HashSet<usize>>,
    /// Ranks seen as failed — ring producers blocked on their inbox abort.
    failed_seen: Mutex<HashSet<usize>>,
    /// In-flight synchronous-mode sends awaiting a wire ack, by ack id.
    acks: Mutex<HashMap<u64, Arc<AckCell>>>,
    next_ack_id: AtomicU64,
    /// Set at shutdown: suppresses failure marks from teardown-induced
    /// connection errors and unblocks ring producers/consumer.
    down: AtomicBool,
    /// Event ring of this universe; control-plane frames are recorded here
    /// (and *only* here — they never touch the profiling counters).
    trace: Arc<TraceCtx>,
    /// `TraceCtx::now_ns` of the last heartbeat ping sent to each peer;
    /// 0 = none outstanding. A `Pong` arrival closes the loop into the
    /// heartbeat-RTT histogram. Overlapping pings overwrite (the engine
    /// pings far slower than any RTT, so the skew is negligible).
    last_ping_ns: Vec<AtomicU64>,
    /// The socket progress engine (set once, right after construction —
    /// the engine's hooks point back at this struct).
    engine: OnceLock<Engine>,
}

impl Shared {
    fn engine(&self) -> &Engine {
        self.engine.get().expect("engine wired at construction")
    }

    /// Routes a control event into the universe state (or the pending
    /// queue before the sink is bound). Never re-broadcasts.
    fn deliver_control(&self, msg: ControlMsg) {
        match msg {
            ControlMsg::Finished { rank } => {
                self.finished_seen
                    .lock()
                    .expect("finished set poisoned")
                    .insert(rank);
                self.unlink_ring_file(rank);
            }
            ControlMsg::Failed { rank } => {
                self.failed_seen
                    .lock()
                    .expect("failed set poisoned")
                    .insert(rank);
                self.unlink_ring_file(rank);
            }
            _ => {}
        }
        let sink = {
            let mut st = self.sink.lock().expect("sink poisoned");
            match &mut *st {
                SinkState::Pending(q) => {
                    q.push(msg);
                    return;
                }
                SinkState::Bound(w) => w.clone(),
            }
        };
        if let Some(sink) = sink.upgrade() {
            sink.apply(msg);
        }
    }

    /// A departed rank's inbox ring file serves nobody: ranks are never
    /// reused, so unlink it the moment `Failed`/`Finished` is applied
    /// (mapped ring memory stays valid for any producer mid-write; the
    /// unlink only drops the directory entry). Keeps `KAMPING_SHM_DIR`
    /// from accumulating dead ring files across kill → shrink → grow
    /// cycles in long-running elastic jobs.
    fn unlink_ring_file(&self, rank: usize) {
        if rank == self.my_rank {
            return;
        }
        if let Some(dir) = &self.xproc_dir {
            let _ = std::fs::remove_file(inbox_path(dir, rank));
        }
    }

    /// Makes a late-admitted joiner reachable: records its data address
    /// with the engine, adds it to the active set and — when this process
    /// is on the xproc path and the joiner's inbox ring exists here (i.e.
    /// it is co-located) — opens the outbound ring and schedules its
    /// inbound channel for the next drain. Idempotent; ranks are never
    /// reused so a second install for the same rank is a no-op.
    fn install_peer(&self, rank: usize, addr: &Addr) {
        if rank >= self.size || rank == self.my_rank {
            return;
        }
        self.engine().set_addr(rank, addr.clone());
        if !self
            .active
            .lock()
            .expect("active set poisoned")
            .insert(rank)
        {
            return;
        }
        if let Some(dir) = &self.xproc_dir {
            let path = inbox_path(dir, rank);
            if path.exists() {
                if let Ok(tx) = RingTx::open(dir, rank, self.my_rank, self.size, self.ring_bytes) {
                    let _ = self.rings[rank].set(Mutex::new(tx));
                }
                self.pending_chans
                    .lock()
                    .expect("pending chans poisoned")
                    .push(rank);
            }
        }
    }

    /// A data channel to/from `rank` broke. Outside of shutdown, and
    /// unless the rank already announced a clean finish, that is evidence
    /// of its death.
    fn peer_lost(&self, rank: usize) {
        if self.down.load(Ordering::Acquire) {
            return;
        }
        // Capacity slots that never joined cannot die.
        if !self
            .active
            .lock()
            .expect("active set poisoned")
            .contains(&rank)
        {
            return;
        }
        if self
            .finished_seen
            .lock()
            .expect("finished set poisoned")
            .contains(&rank)
        {
            return;
        }
        self.deliver_control(ControlMsg::Failed { rank });
    }

    /// Records a non-data frame sent to `peer` in the event ring.
    fn trace_control(&self, peer: usize, frame: &'static str) {
        self.trace.event(|| EventKind::Control {
            rank: self.my_rank as u32,
            peer: peer as u32,
            frame,
        });
    }

    /// Records one futex sleep of `parked` on a ring (`peer` is `u32::MAX`
    /// for the consumer, which parks on the whole inbox).
    fn ring_waited(&self, peer: u32, role: &'static str, parked: Duration) {
        let dur_ns = parked.as_nanos() as u64;
        self.trace.count(self.my_rank, Counter::RingFutexSleeps, 1);
        self.trace
            .count(self.my_rank, Counter::RingFutexSleepNs, dur_ns);
        self.trace.event(|| EventKind::RingWait {
            rank: self.my_rank as u32,
            peer,
            role,
            dur_ns,
        });
    }

    /// Sends the non-data `frame` to `dest` over its ring (co-located
    /// peer) or the socket engine. Returns false if the peer is
    /// unreachable — already or about to be marked failed.
    fn send_frame(&self, dest: usize, frame: Frame) -> bool {
        self.trace_control(
            dest,
            match &frame {
                Frame::Ack { .. } => "ack",
                Frame::Control(_) => "control",
                Frame::Ping => "ping",
                Frame::Pong => "pong",
                Frame::Grow { .. } => "grow",
                _ => "rendezvous",
            },
        );
        match self.rings[dest].get() {
            Some(ring) => self.ring_send(dest, ring, &[&encode_prefixed(&frame)]),
            None => self.engine().enqueue(dest, OutFrame::control(&frame)),
        }
    }

    /// Writes message `msg` into `dest`'s inbox ring as header + `payload`,
    /// the only user-space copy the sending side makes.
    fn ring_send_data(
        &self,
        dest: usize,
        ring: &Mutex<RingTx>,
        msg: MatchKey,
        ack_id: u64,
        payload: &[u8],
    ) -> bool {
        self.trace.payload_moved(self.my_rank, payload.len(), 1, 0);
        let head = data_frame_header(msg.src, msg.tag, msg.ctx, ack_id, payload.len());
        self.ring_send(dest, ring, &[&head, payload])
    }

    /// Writes one frame, given as `parts`, into `dest`'s inbox ring,
    /// blocking (abortably) on space.
    fn ring_send(&self, dest: usize, ring: &Mutex<RingTx>, parts: &[&[u8]]) -> bool {
        let abort = || {
            self.down.load(Ordering::Acquire)
                || self
                    .failed_seen
                    .lock()
                    .expect("failed set poisoned")
                    .contains(&dest)
                || self
                    .finished_seen
                    .lock()
                    .expect("finished set poisoned")
                    .contains(&dest)
        };
        let wait_hint = |parked: Duration| self.ring_waited(dest as u32, "send", parked);
        let tx = ring.lock().expect("ring producer poisoned");
        self.trace
            .gauge_max(self.my_rank, Gauge::RingOccupancyMax, tx.occupancy() as u64);
        tx.write(parts, abort, wait_hint)
    }

    /// Ack hook target: tells `origin` that its synchronous-mode send
    /// `ack_id` has been matched.
    fn send_ack(&self, origin: usize, ack_id: u64) {
        self.send_frame(origin, Frame::Ack { ack_id });
    }

    /// Completes a registered ack locally (destination unreachable: the
    /// send is dropped, but the sender must not wait forever — same
    /// semantics as posting to a failed rank on the shm backend).
    fn complete_ack_locally(&self, ack_id: u64) {
        let cell = self
            .acks
            .lock()
            .expect("ack registry poisoned")
            .remove(&ack_id);
        if let Some(cell) = cell {
            cell.set();
        }
    }

    /// The message `msg` arrived whole in `dest` — shared by the socket
    /// engine and the ring consumer. A synchronous-mode send gets the cell
    /// whose first `set` sends the `Ack` frame back. True if the message
    /// completed a posted receive.
    fn land(&self, msg: MatchKey, ack_id: u64, dest: Dest) -> bool {
        let ack = (ack_id != 0).then(|| {
            let (origin, me) = (msg.src, self.me.clone());
            Arc::new(AckCell::with_hook(move || {
                if let Some(sh) = me.upgrade() {
                    sh.send_ack(origin, ack_id);
                }
            }))
        });
        self.mailbox.land(msg, dest, ack)
    }

    /// Routes one arrived non-data frame — shared by the socket engine and
    /// the ring consumer.
    fn route_frame(&self, src: usize, frame: Frame) {
        match frame {
            Frame::Ack { ack_id } => self.complete_ack_locally(ack_id),
            Frame::Control(msg) => self.deliver_control(msg),
            Frame::Ping => {
                // Echo so the pinger can close its RTT loop. Enqueue-only
                // on the socket path (never blocks the progress thread).
                if src < self.size {
                    self.send_frame(src, Frame::Pong);
                }
            }
            Frame::Grow {
                epoch,
                joiner,
                addr,
                members,
            } => {
                // A joiner was admitted: make it reachable *before* the
                // epoch event is visible, so the first operation on the
                // grown communicator can already route to it.
                if joiner < self.size && members.iter().all(|&m| m < 64) {
                    if let Ok(a) = Addr::parse(&addr) {
                        self.install_peer(joiner, &a);
                    }
                    self.deliver_control(ControlMsg::Grow {
                        epoch,
                        joiner,
                        members: members_to_mask(&members),
                    });
                }
            }
            Frame::Pong if src < self.size => {
                // Nonzero only if metrics were on when the ping left.
                let sent = self.last_ping_ns[src].swap(0, Ordering::Relaxed);
                if sent != 0 {
                    let rtt = self.trace.now_ns().saturating_sub(sent);
                    self.trace.observe(self.my_rank, Hist::HeartbeatRtt, rtt);
                }
            }
            _ => {
                // Rendezvous-plane frame on the data plane: tolerated as a
                // no-op (the engine already dropped truly unidentifiable
                // connections).
                let _ = src;
            }
        }
    }

    /// Drains every inbound ring once, routing what completes exactly like
    /// socket arrivals (a frame larger than the ring streams through it and
    /// may take many drains). Returns whether anything moved, and whether
    /// a payload was left waiting.
    ///
    /// The `consumer` thread leaves a payload that a receive of the rank
    /// thread is about to claim ([`Mailbox::dest_for`]) in its ring for
    /// [`CONSUMER_PATIENCE`] — it yields between idle passes — before it
    /// takes it after all: a rank that is off computing must not
    /// wedge its producer. A receiver draining for itself never waits: it
    /// cannot get past a message by leaving it on the wire.
    fn drain_rx(&self, rx: &mut RingRx, consumer: bool) -> (bool, bool) {
        {
            let mut pend = self.pending_chans.lock().expect("pending chans poisoned");
            for src in pend.drain(..) {
                if !rx.chans.iter().any(|c| c.src == src) {
                    rx.chans.push(Chan::new(src));
                }
            }
        }
        let RingRx { inbox, chans } = rx;
        let (mut moved, mut left_waiting) = (false, false);
        for chan in chans.iter_mut() {
            let Some(reader) = &mut chan.reader else {
                continue;
            };
            let patient = consumer
                && chan
                    .waiting_since
                    .is_none_or(|since| since.elapsed() < CONSUMER_PATIENCE);
            let waiting = std::cell::Cell::new(false);
            let dest_for = |msg, len| {
                let dest = self.dest_for(msg, len, patient)?;
                waiting.set(dest.is_none());
                Ok(dest)
            };
            let mut io = RingSource {
                inbox,
                src: chan.src,
                moved: 0,
            };
            loop {
                match reader.next(&mut io, dest_for) {
                    Ok(None) => break,
                    Ok(Some(Arrival::Control(frame))) => self.route_frame(chan.src, frame),
                    // A receive of the rank thread is served: the next
                    // header is for the receive it posts next.
                    Ok(Some(Arrival::Data { msg, ack_id, dest })) => {
                        if self.land(msg, ack_id, dest) {
                            break;
                        }
                    }
                    // A frame that makes no sense leaves no way to find the
                    // next one: the source is as good as dead.
                    Err(_) => {
                        chan.reader = None;
                        self.peer_lost(chan.src);
                        break;
                    }
                }
            }
            if waiting.get() {
                chan.waiting_since.get_or_insert_with(Instant::now);
            } else {
                chan.waiting_since = None;
            }
            moved |= io.moved > 0;
            left_waiting |= waiting.get();
        }
        (moved, left_waiting)
    }

    /// Opportunistic drain from a *waiting receiver* (the mailbox progress
    /// poll): skips the consumer-thread handoff entirely when the lock is
    /// free, backs off (`false`) when the consumer is mid-drain.
    fn try_drain_rx(&self) -> bool {
        let Some(rx) = &self.rx else { return false };
        let Ok(mut rx) = rx.try_lock() else {
            return false;
        };
        self.drain_rx(&mut rx, false).0
    }

    /// [`Mailbox::dest_for`] for a message off the wire, whose source rank
    /// is whatever the frame says.
    fn dest_for(&self, msg: MatchKey, len: usize, patient: bool) -> io::Result<Option<Dest>> {
        if msg.src >= self.size {
            return Err(corrupt("data frame from an unknown rank"));
        }
        Ok(self.mailbox.dest_for(msg, len, patient))
    }
}

impl EngineHooks for Shared {
    fn on_frame(&self, src: usize, frame: Frame) {
        self.route_frame(src, frame);
    }

    fn dest_for(&self, msg: MatchKey, len: usize) -> io::Result<Dest> {
        let dest = Shared::dest_for(self, msg, len, false)?;
        Ok(dest.expect("only a patient caller is told to wait"))
    }

    fn on_data(&self, msg: MatchKey, ack_id: u64, dest: Dest) {
        let _posted = self.land(msg, ack_id, dest);
    }

    fn on_peer_gone(&self, rank: usize, dropped_acks: Vec<u64>) {
        for ack in dropped_acks {
            self.complete_ack_locally(ack);
        }
        self.peer_lost(rank);
    }

    fn on_control_sent(&self, peer: usize, kind: &'static str) {
        if kind == "ping" && peer < self.size {
            if let Some(now_ns) = self.trace.metrics_clock() {
                self.last_ping_ns[peer].store(now_ns, Ordering::Relaxed);
                self.trace.count(self.my_rank, Counter::PingsSent, 1);
            }
        }
        self.trace_control(peer, kind);
    }

    fn on_wakeup(&self, events: usize, frames: usize, busy: Duration) {
        let (trace, me) = (&self.trace, self.my_rank);
        trace.count(me, Counter::EpollWakeups, 1);
        trace.count(me, Counter::EpollEvents, events as u64);
        trace.count(me, Counter::EpollFrames, frames as u64);
        trace.event(|| EventKind::Progress {
            rank: me as u32,
            events: events as u32,
            frames: frames as u32,
            dur_ns: busy.as_nanos() as u64,
        });
    }

    fn on_writev(&self, calls: usize, frames: usize) {
        self.trace
            .count(self.my_rank, Counter::WritevCalls, calls as u64);
        self.trace
            .count(self.my_rank, Counter::WritevFrames, frames as u64);
    }

    fn on_queue_depth(&self, depth: usize) {
        self.trace
            .gauge_max(self.my_rank, Gauge::OutboundQueueMax, depth as u64);
    }
}

/// The [`Transport`] implementation over the progress engine and optional
/// shm-xproc rings. One per process; hosts exactly one rank.
pub(crate) struct SocketTransport {
    shared: Arc<Shared>,
    /// Whether any ring channels are configured (backend name).
    xproc: bool,
    /// Own inbox, shared with the consumer thread (for the shutdown wake).
    inbox: Option<Arc<Inbox>>,
    consumer: Mutex<Option<JoinHandle<()>>>,
}

impl SocketTransport {
    /// Builds the transport for `my_rank` of `size`: starts the progress
    /// engine on `listener` (already bound; its address is
    /// `addrs[my_rank]`) and, given an [`XprocSetup`], opens ring channels
    /// to every co-located peer and starts the ring consumer.
    ///
    /// `size` is the universe *capacity*: `addrs` holds one slot per
    /// capacity rank, `Some` for ranks present at launch (or listed in the
    /// admission table a joiner received) and `None` for slots that may be
    /// filled later by [`SocketTransport::install_peer`]. The active set
    /// starts as exactly the `Some` slots.
    pub(crate) fn new(
        my_rank: usize,
        size: usize,
        addrs: Vec<Option<Addr>>,
        listener: Listener,
        trace: Arc<TraceCtx>,
        xproc: Option<XprocSetup>,
    ) -> io::Result<Self> {
        let active: HashSet<usize> = (0..size).filter(|&r| addrs[r].is_some()).collect();
        let rings: Vec<OnceLock<Mutex<RingTx>>> = (0..size).map(|_| OnceLock::new()).collect();
        let mut xproc_dir = None;
        let mut ring_bytes = 0;
        if let Some(setup) = &xproc {
            debug_assert!(setup.local.contains(&my_rank));
            for &peer in &setup.local {
                if peer == my_rank {
                    continue;
                }
                match RingTx::open(&setup.dir, peer, my_rank, size, setup.ring_bytes) {
                    Ok(tx) => {
                        let _ = rings[peer].set(Mutex::new(tx));
                    }
                    // The peer's inbox existed when the co-location
                    // snapshot was taken but has been unlinked since:
                    // the peer died or departed (rings are only removed
                    // on Failed/Bye, and ranks are never reused), so
                    // skip the channel — its death arrives over the
                    // control plane like any other failure.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
            xproc_dir = Some(setup.dir.clone());
            ring_bytes = setup.ring_bytes;
        }
        let (inbox, rx) = match xproc {
            None => (None, None),
            Some(setup) => {
                let chans = setup
                    .local
                    .iter()
                    .copied()
                    .filter(|&r| r != my_rank)
                    .map(Chan::new)
                    .collect();
                let inbox = Arc::new(setup.inbox);
                let rx = RingRx {
                    inbox: Arc::clone(&inbox),
                    chans,
                };
                (Some(inbox), Some(Mutex::new(rx)))
            }
        };
        let mailbox = Mailbox::new(my_rank, size, Arc::new(Hub), Arc::clone(&trace));
        mailbox.set_wired();
        let shared = Arc::new_cyclic(|me| Shared {
            me: me.clone(),
            my_rank,
            size,
            mailbox,
            trace,
            rings,
            rx,
            pending_chans: Mutex::new(Vec::new()),
            active: Mutex::new(active),
            xproc_dir,
            ring_bytes,
            sink: Mutex::new(SinkState::Pending(Vec::new())),
            finished_seen: Mutex::new(HashSet::new()),
            failed_seen: Mutex::new(HashSet::new()),
            acks: Mutex::new(HashMap::new()),
            next_ack_id: AtomicU64::new(1),
            down: AtomicBool::new(false),
            last_ping_ns: (0..size).map(|_| AtomicU64::new(0)).collect(),
            engine: OnceLock::new(),
        });
        let engine = Engine::start(
            my_rank,
            addrs,
            listener,
            Arc::clone(&shared) as Arc<dyn EngineHooks>,
        )?;
        shared
            .engine
            .set(engine)
            .unwrap_or_else(|_| unreachable!("engine set exactly once"));

        let consumer = match &inbox {
            None => None,
            Some(ib) => {
                // Waiting receivers drain their own rings (weak ref: the
                // mailbox lives inside `shared`, a strong ref would leak
                // the cycle).
                let me = shared.me.clone();
                shared
                    .mailbox
                    .set_progress_poll(move || me.upgrade().is_some_and(|sh| sh.try_drain_rx()));
                let sh = Arc::clone(&shared);
                let ib = Arc::clone(ib);
                Some(
                    std::thread::Builder::new()
                        .name(format!("kamping-ring-{my_rank}"))
                        .spawn(move || ring_consumer(sh, ib))?,
                )
            }
        };
        Ok(Self {
            shared,
            xproc: inbox.is_some(),
            inbox,
            consumer: Mutex::new(consumer),
        })
    }

    /// Binds the universe state as the destination for incoming control
    /// frames and replays any events that arrived before the bind.
    /// Idempotent: binding again (e.g. both a chaos wrapper and the
    /// universe pointing at the same state) replaces the sink — while
    /// bound nothing queues, so there is never anything to replay twice.
    pub(crate) fn bind_sink(&self, sink: Weak<dyn ControlSink>) {
        let pending = {
            let mut st = self.shared.sink.lock().expect("sink poisoned");
            match std::mem::replace(&mut *st, SinkState::Bound(sink.clone())) {
                SinkState::Pending(q) => q,
                SinkState::Bound(_) => Vec::new(),
            }
        };
        if let Some(s) = sink.upgrade() {
            for msg in pending {
                s.apply(msg);
            }
        }
    }

    /// Rank 0's half of an admission: installs the joiner locally, then
    /// broadcasts `Grow` over the data plane to every *other* active rank.
    /// The caller applies the grow event to its own universe state (the
    /// broadcast deliberately skips self — `deliver_control` would race
    /// the monitor's own bookkeeping otherwise).
    pub(crate) fn announce_join(&self, epoch: u64, joiner: usize, addr: &Addr, members: &[usize]) {
        self.shared.install_peer(joiner, addr);
        let finished = self
            .shared
            .finished_seen
            .lock()
            .expect("finished set poisoned")
            .clone();
        let mut targets: Vec<usize> = self
            .shared
            .active
            .lock()
            .expect("active set poisoned")
            .iter()
            .copied()
            .filter(|&d| d != self.shared.my_rank && d != joiner && !finished.contains(&d))
            .collect();
        targets.sort_unstable();
        for dest in targets {
            self.shared.send_frame(
                dest,
                Frame::Grow {
                    epoch,
                    joiner,
                    addr: addr.to_string(),
                    members: members.to_vec(),
                },
            );
        }
    }
}

/// The per-rank ring consumer: the *guaranteed* drain of the inbound
/// rings. A receiver blocked in the mailbox usually beats it to the frames
/// through the progress poll; this thread's job is the case where the rank
/// is off computing — producers must never wedge on a full ring because
/// nobody is listening. Parks on the inbox doorbell futex when idle.
fn ring_consumer(shared: Arc<Shared>, inbox: Arc<Inbox>) {
    crate::trace::set_thread_rank(shared.my_rank);
    let mut idle_passes = 0u32;
    loop {
        let snapshot = inbox.doorbell_value();
        let (progressed, left_waiting) = {
            let mut rx = shared
                .rx
                .as_ref()
                .expect("consumer spawned only with rings")
                .lock()
                .expect("ring rx poisoned");
            shared.drain_rx(&mut rx, true)
        };
        if shared.down.load(Ordering::Acquire) {
            return;
        }
        if progressed {
            idle_passes = 0;
            continue;
        }
        // A payload left for the rank thread keeps the consumer up: it is
        // taken `CONSUMER_PATIENCE` from when it was first seen, not one
        // park later.
        if left_waiting || idle_passes < CONSUMER_IDLE_PASSES {
            idle_passes += 1;
            // Yield rather than spin: on a busy (or single-core) host the
            // producer needs the CPU to make the doorbell move at all.
            std::thread::yield_now();
            continue;
        }
        idle_passes = 0;
        let start = Instant::now();
        inbox.park(snapshot, CONSUMER_PARK_SLICE);
        shared.ring_waited(u32::MAX, "recv", start.elapsed());
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        if self.xproc {
            "shm-xproc"
        } else {
            "socket"
        }
    }

    fn post(&self, dest: usize, envelope: Envelope) {
        let sh = &self.shared;
        if dest == sh.my_rank {
            sh.mailbox.post(envelope);
            return;
        }
        let ack_id = match &envelope.ack {
            Some(ack) => {
                let id = sh.next_ack_id.fetch_add(1, Ordering::Relaxed);
                sh.acks
                    .lock()
                    .expect("ack registry poisoned")
                    .insert(id, Arc::clone(ack));
                id
            }
            None => 0,
        };
        let (msg, payload) = (envelope.key(), envelope.payload);
        let sent = match sh.rings[dest].get() {
            Some(ring) => sh.ring_send_data(dest, ring, msg, ack_id, payload.as_slice()),
            None => sh
                .engine()
                .enqueue(dest, OutFrame::data(msg, ack_id, payload)),
        };
        if !sent && ack_id != 0 {
            sh.complete_ack_locally(ack_id);
        }
    }

    fn send_borrowed(&self, dest: usize, msg: MatchKey, bytes: &[u8]) -> bool {
        // A ring takes the caller's slice as it is; the socket engine
        // queues, so it needs a payload of its own (the caller packs one).
        match self.shared.rings[dest].get() {
            Some(ring) => {
                self.shared.ring_send_data(dest, ring, msg, 0, bytes);
                true
            }
            None => false,
        }
    }

    fn max_payload(&self) -> usize {
        MAX_PAYLOAD
    }

    fn mailbox(&self, rank: usize) -> &Mailbox {
        assert_eq!(
            rank, self.shared.my_rank,
            "socket backend hosts exactly one rank per process"
        );
        &self.shared.mailbox
    }

    fn is_local(&self, rank: usize) -> bool {
        rank == self.shared.my_rank
    }

    fn locality(&self, rank: usize) -> Locality {
        if rank == self.shared.my_rank {
            Locality::Process
        } else if self.shared.rings[rank].get().is_some() {
            Locality::Host
        } else {
            Locality::Remote
        }
    }

    fn control(&self, msg: ControlMsg) {
        let finished = self
            .shared
            .finished_seen
            .lock()
            .expect("finished set poisoned")
            .clone();
        // Only ranks that actually joined: contacting an empty capacity
        // slot would wait out the connect retry and then mark a process
        // that never existed as failed.
        let mut targets: Vec<usize> = self
            .shared
            .active
            .lock()
            .expect("active set poisoned")
            .iter()
            .copied()
            .filter(|&d| d != self.shared.my_rank && !finished.contains(&d))
            .collect();
        targets.sort_unstable();
        for dest in targets {
            self.shared.send_frame(dest, Frame::Control(msg));
        }
    }

    fn kick_local(&self) {
        self.shared.mailbox.kick();
    }

    fn shutdown(&self) {
        self.shared.down.store(true, Ordering::Release);
        // Flush and join the progress engine: guarantees all outgoing
        // socket frames (including the Finished broadcast) are on the wire
        // before the process may exit. Ring frames were durable in shared
        // memory the moment `post` returned — nothing to flush there.
        self.shared.engine().shutdown();
        if let Some(inbox) = &self.inbox {
            inbox.wake_self();
        }
        if let Some(h) = self.consumer.lock().expect("consumer poisoned").take() {
            let _ = h.join();
        }
        // Drop our own inbox's directory entry: peers that saw `Finished`
        // already unlinked it (ranks are never reused), this covers runs
        // where nobody else was co-located. Mapped producers are unharmed.
        if let Some(dir) = &self.shared.xproc_dir {
            let _ = std::fs::remove_file(inbox_path(dir, self.shared.my_rank));
        }
        // Peers that still send to this finished rank get their frames
        // dropped (socket) or their ring writes aborted, mirroring shm
        // semantics for finished ranks.
    }
}
