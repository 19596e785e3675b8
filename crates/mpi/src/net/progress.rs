//! The event-driven progress engine of the socket data plane.
//!
//! One thread per rank owns *all* socket I/O: the data listener, every
//! inbound connection, every outbound connection, connect retries and the
//! idle heartbeat — replacing the seed design's two-threads-per-peer
//! (reader + writer) mesh, which scaled thread count linearly in job size.
//!
//! The loop is a single epoll instance:
//!
//! * **kick** — an eventfd rung by [`Engine::enqueue`] (any thread). A
//!   sender never touches the wire: it appends the frame — its encoded
//!   head plus, for a data frame, the payload it already owns — to the
//!   peer's outbound queue, marks the peer dirty, rings the doorbell and
//!   returns. The progress thread moves dirty queues into per-connection
//!   staging and writes.
//! * **writes** — staged frames are drained with `writev`
//!   ([`std::io::Write::write_vectored`]), head and payload as two slices:
//!   a burst of small frames coalesces into one syscall and no payload is
//!   copied into an encode buffer. `EPOLLOUT` interest exists only while a
//!   write actually returned `WouldBlock`, so the fast path never sees
//!   spurious writable events.
//! * **reads** — every inbound connection has a
//!   [`super::wire::FrameReader`]: a `Hello` pins the peer's identity,
//!   control frames go to [`EngineHooks::on_frame`], and a data frame's
//!   payload is `read` straight into the destination
//!   [`EngineHooks::dest_for`] names once its header is in.
//! * **timers** — the epoll timeout is the min of the next connect-retry
//!   and the next idle-heartbeat deadline. Connect failures retry with
//!   exponential backoff *inside the loop* (no sleeping thread); peers
//!   idle for [`HEARTBEAT`] get a `Ping` staged, so a dead peer fails the
//!   write within one interval — same contract as the old writer threads,
//!   now driven off the poller clock.
//!
//! Teardown: [`Engine::shutdown`] sets the down flag and joins the thread;
//! the loop switches to flush mode — drain every queue, connect-once for
//! never-contacted peers with pending frames, write until empty (bounded
//! by [`FLUSH_DEADLINE`]) — which preserves the old guarantee that the
//! `Finished` broadcast is on the wire before the process may exit.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::transport::{Dest, MatchKey, Payload};

use super::addr::{Addr, Listener, Stream};
use super::sys::{read_fd, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use super::wire::{
    corrupt, data_frame_header, encode_prefixed, Arrival, ByteSource, Frame, FrameReader,
};

/// An idle connection gets a `Ping` staged this often, so a dead peer's
/// socket fails the write (and the failure is marked) within roughly one
/// interval even when the application has nothing to send.
pub(crate) const HEARTBEAT: Duration = Duration::from_millis(500);

/// How long a lazy data-plane connect keeps retrying (with exponential
/// backoff on the poller clock) before the peer is declared unreachable.
/// Short on purpose: post-rendezvous, every listener is already bound, so
/// persistent refusal means the peer is gone.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Backoff bounds for in-loop connect retries.
const RETRY_FLOOR: Duration = Duration::from_millis(1);
const RETRY_CAP: Duration = Duration::from_millis(100);

/// Upper bound on shutdown flushing: a peer that stopped reading must not
/// wedge process exit forever.
const FLUSH_DEADLINE: Duration = Duration::from_secs(10);

/// Cap on slices per `writev` (Linux caps at `IOV_MAX` = 1024; 64 keeps
/// the array small while still coalescing a healthy burst). A frame is up
/// to two slices.
const MAX_IOVS: usize = 64;

const TOKEN_KICK: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// One length-prefixed frame awaiting the wire, with enough metadata to
/// settle its synchronous-send ack if it is dropped instead.
pub(crate) struct OutFrame {
    /// Length prefix + encoded frame; of a data frame, its fixed part.
    head: Vec<u8>,
    /// A data frame's payload (empty otherwise), as the envelope held it.
    payload: Payload,
    /// Ack-registry key when the frame carries a synchronous-mode send;
    /// 0 otherwise.
    ack_id: u64,
}

impl OutFrame {
    /// A non-data frame.
    pub(crate) fn control(frame: &Frame) -> Self {
        Self {
            head: encode_prefixed(frame),
            payload: Payload::from_slice(&[]),
            ack_id: 0,
        }
    }

    /// The data frame of message `msg`.
    pub(crate) fn data(msg: MatchKey, ack_id: u64, payload: Payload) -> Self {
        let head = data_frame_header(msg.src, msg.tag, msg.ctx, ack_id, payload.len());
        Self {
            head: head.to_vec(),
            payload,
            ack_id,
        }
    }

    fn len(&self) -> usize {
        self.head.len() + self.payload.len()
    }

    /// The frame's two slices past its first `off` bytes.
    fn parts(&self, off: usize) -> [&[u8]; 2] {
        let h = off.min(self.head.len());
        [&self.head[h..], &self.payload.as_slice()[off - h..]]
    }
}

/// A non-blocking socket as the byte source of a [`FrameReader`].
struct FdSource(std::os::fd::RawFd);

// SAFETY: `read_fd` returns how many leading bytes of `dst` the kernel wrote.
unsafe impl ByteSource for FdSource {
    fn read(&mut self, dst: &mut [std::mem::MaybeUninit<u8>]) -> io::Result<usize> {
        loop {
            match read_fd(self.0, dst) {
                Ok(0) if !dst.is_empty() => return Err(io::ErrorKind::UnexpectedEof.into()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

/// What the engine reports back into the transport. All calls come from
/// the progress thread.
pub(crate) trait EngineHooks: Send + Sync {
    /// A complete non-data frame arrived from identified peer `src`.
    fn on_frame(&self, src: usize, frame: Frame);
    /// The header of message `msg` is in: where do its `len` payload bytes
    /// go? An error if `msg` cannot be for this rank (the link is dropped).
    fn dest_for(&self, msg: MatchKey, len: usize) -> io::Result<Dest>;
    /// The message `msg` has arrived whole in the `dest` named for it.
    fn on_data(&self, msg: MatchKey, ack_id: u64, dest: Dest);
    /// The link to `rank` is gone (connect gave up, write failed, EOF).
    /// `dropped_acks` are the ack ids of synchronous sends that were still
    /// queued or staged — the transport settles them locally so no sender
    /// waits on a frame that will never be delivered.
    fn on_peer_gone(&self, rank: usize, dropped_acks: Vec<u64>);
    /// The engine emitted a control-plane frame (`"hello"`, `"ping"`) to
    /// `peer` on its own initiative — for trace attribution.
    fn on_control_sent(&self, peer: usize, kind: &'static str);
    /// One progress-loop wakeup finished: `events` ready fds, `frames`
    /// fully read or written, `busy` time spent handling (not sleeping).
    fn on_wakeup(&self, events: usize, frames: usize, busy: Duration);
    /// One `write_out` pass finished: `calls` successful `writev`
    /// syscalls flushed `frames` complete frames (batch-size telemetry).
    fn on_writev(&self, calls: usize, frames: usize) {
        let _ = (calls, frames);
    }
    /// An `enqueue` left `depth` frames queued for a peer (high-water
    /// telemetry; called outside the queue lock).
    fn on_queue_depth(&self, depth: usize) {
        let _ = depth;
    }
}

/// Sender-visible state of one outbound peer link.
enum OutState {
    /// Never contacted.
    Idle,
    /// The progress thread is connecting (possibly across retries);
    /// frames accumulate in the queue meanwhile.
    Connecting,
    /// Connection up; queued frames migrate to connection staging.
    Up,
    /// Unreachable or torn down; frames to it are refused.
    Gone,
}

struct Outbound {
    state: OutState,
    queue: VecDeque<OutFrame>,
    /// Already on the dirty list (dedups doorbell rings).
    dirty: bool,
}

/// State shared between senders and the progress thread.
struct EngineShared {
    kick: EventFd,
    peers: Vec<Mutex<Outbound>>,
    dirty: Mutex<Vec<usize>>,
    down: AtomicBool,
    /// Data-plane address per rank slot. `None` for elastic slots whose
    /// joiner has not been admitted yet; [`Engine::set_addr`] fills the
    /// slot when the admission broadcast arrives.
    addrs: Mutex<Vec<Option<Addr>>>,
}

impl EngineShared {
    fn addr_of(&self, rank: usize) -> Option<Addr> {
        self.addrs.lock().expect("addr table poisoned")[rank].clone()
    }
}

/// Handle owned by the transport; the loop itself runs on its own thread.
pub(crate) struct Engine {
    sh: Arc<EngineShared>,
    hooks: Arc<dyn EngineHooks>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Spawns the progress thread for `my_rank`, owning `listener` (whose
    /// address is `addrs[my_rank]`). `None` address slots belong to
    /// not-yet-admitted elastic ranks; they are filled later through
    /// [`Engine::set_addr`].
    pub(crate) fn start(
        my_rank: usize,
        addrs: Vec<Option<Addr>>,
        listener: Listener,
        hooks: Arc<dyn EngineHooks>,
    ) -> io::Result<Self> {
        let size = addrs.len();
        let sh = Arc::new(EngineShared {
            kick: EventFd::new()?,
            peers: (0..size)
                .map(|_| {
                    Mutex::new(Outbound {
                        state: OutState::Idle,
                        queue: VecDeque::new(),
                        dirty: false,
                    })
                })
                .collect(),
            dirty: Mutex::new(Vec::new()),
            down: AtomicBool::new(false),
            addrs: Mutex::new(addrs),
        });
        let epoll = Epoll::new()?;
        listener.set_nonblocking(true)?;
        epoll.add(sh.kick.raw(), TOKEN_KICK, true, false)?;
        epoll.add(listener.raw_fd(), TOKEN_LISTENER, true, false)?;
        let state = LoopState {
            sh: Arc::clone(&sh),
            hooks: Arc::clone(&hooks),
            my_rank,
            size,
            epoll,
            listener,
            conns: HashMap::new(),
            next_token: TOKEN_CONN_BASE,
            out_token: vec![None; size],
            retries: (0..size).map(|_| None).collect(),
            frames_this_iter: 0,
            down_since: None,
        };
        let thread = std::thread::Builder::new()
            .name(format!("kamping-progress-{my_rank}"))
            .spawn(move || state.run())?;
        Ok(Self {
            sh,
            hooks,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Installs the data-plane address of a freshly-admitted rank. A slot
    /// is written at most once (ranks are never reused); installing over
    /// an existing address is ignored, so replayed admission broadcasts
    /// are harmless.
    pub(crate) fn set_addr(&self, rank: usize, addr: Addr) {
        let mut addrs = self.sh.addrs.lock().expect("addr table poisoned");
        if rank < addrs.len() && addrs[rank].is_none() {
            addrs[rank] = Some(addr);
        }
    }

    /// Queues one frame for `dest` and rings the progress thread. Never
    /// blocks on the wire. Returns false if the peer is already gone.
    pub(crate) fn enqueue(&self, dest: usize, frame: OutFrame) -> bool {
        let depth;
        {
            let mut o = self.sh.peers[dest].lock().expect("outbound poisoned");
            if matches!(o.state, OutState::Gone) {
                return false;
            }
            o.queue.push_back(frame);
            depth = o.queue.len();
            if !o.dirty {
                o.dirty = true;
                self.sh
                    .dirty
                    .lock()
                    .expect("dirty list poisoned")
                    .push(dest);
            }
        }
        self.hooks.on_queue_depth(depth);
        self.sh.kick.ring();
        true
    }

    /// Flushes all outbound traffic (bounded) and stops the thread.
    pub(crate) fn shutdown(&self) {
        self.sh.down.store(true, Ordering::Release);
        self.sh.kick.ring();
        let handle = self.thread.lock().expect("thread slot poisoned").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct OutConn {
    rank: usize,
    staging: VecDeque<OutFrame>,
    /// Bytes of the front staged frame already written.
    front_off: usize,
    last_write: Instant,
    /// `EPOLLOUT` interest currently registered.
    want_write: bool,
}

#[derive(Default)]
struct InConn {
    /// Identified by its `Hello`; frames before identification are a
    /// protocol violation.
    src: Option<usize>,
    reader: FrameReader,
}

enum ConnKind {
    Out(OutConn),
    In(InConn),
}

struct Conn {
    stream: Stream,
    kind: ConnKind,
}

struct Retry {
    next: Instant,
    backoff: Duration,
    deadline: Instant,
}

struct LoopState {
    sh: Arc<EngineShared>,
    hooks: Arc<dyn EngineHooks>,
    my_rank: usize,
    size: usize,
    epoll: Epoll,
    listener: Listener,
    /// Token → connection. Tokens are never reused, so a stale readiness
    /// record for a closed fd can never hit a newer connection.
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Rank → token of its outbound connection (if up).
    out_token: Vec<Option<u64>>,
    retries: Vec<Option<Retry>>,
    frames_this_iter: usize,
    down_since: Option<Instant>,
}

impl LoopState {
    fn run(mut self) {
        let mut events = [EpollEvent::zeroed(); 64];
        loop {
            let down = self.sh.down.load(Ordering::Acquire);
            let timeout = if down {
                // Flush mode: stay responsive to EPOLLOUT, bail out on the
                // flush deadline even if a peer stopped reading.
                Some(Duration::from_millis(50))
            } else {
                self.next_timeout()
            };
            let n = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            let busy_start = Instant::now();
            self.frames_this_iter = 0;
            for ev in &events[..n] {
                match ev.token() {
                    TOKEN_KICK => self.sh.kick.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev.events()),
                }
            }
            self.service_dirty();
            self.service_timers();
            if n > 0 || self.frames_this_iter > 0 {
                self.hooks
                    .on_wakeup(n, self.frames_this_iter, busy_start.elapsed());
            }
            // Re-read: the shutdown kick may have landed during this
            // iteration's wait.
            if self.sh.down.load(Ordering::Acquire) {
                let since = *self.down_since.get_or_insert_with(Instant::now);
                if self.flush_done() || since.elapsed() > FLUSH_DEADLINE {
                    return;
                }
            }
        }
    }

    /// Min over retry timers and idle-heartbeat deadlines; `None` (sleep
    /// until kicked) when neither is pending.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut fold = |t: Instant| match next {
            Some(cur) if cur <= t => {}
            _ => next = Some(t),
        };
        for r in self.retries.iter().flatten() {
            fold(r.next);
        }
        for conn in self.conns.values() {
            if let ConnKind::Out(o) = &conn.kind {
                if o.staging.is_empty() {
                    fold(o.last_write + HEARTBEAT);
                }
            }
        }
        next.map(|t| t.saturating_duration_since(now))
    }

    fn alloc_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.alloc_token();
                    if self.epoll.add(stream.raw_fd(), token, true, false).is_ok() {
                        self.conns.insert(
                            token,
                            Conn {
                                stream,
                                kind: ConnKind::In(InConn::default()),
                            },
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Listener broken: data-plane accepts are over; the
                // rendezvous monitor still covers failure detection.
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ready: u32) {
        let inbound = match self.conns.get(&token) {
            Some(conn) => matches!(conn.kind, ConnKind::In(_)),
            None => return, // already closed this iteration
        };
        if inbound {
            self.read_in(token);
            return;
        }
        if ready & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0 {
            // Connections are unidirectional: the peer never sends on our
            // outbound link, so readability means EOF/reset.
            let dead = match self.conns.get_mut(&token) {
                Some(conn) => {
                    let mut probe = [0u8; 16];
                    !matches!(
                        conn.stream.read(&mut probe),
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
                    )
                }
                None => return,
            };
            if dead {
                self.kill_out(token);
                return;
            }
        }
        if ready & EPOLLOUT != 0 {
            self.write_out(token);
        }
    }

    /// Drains the shared dirty list: migrates fresh frames to connection
    /// staging (connecting first if needed) and writes what fits.
    fn service_dirty(&mut self) {
        let ranks = std::mem::take(&mut *self.sh.dirty.lock().expect("dirty list poisoned"));
        for rank in ranks {
            enum Action {
                Connect,
                Write(Vec<OutFrame>),
                Nothing,
            }
            let action = {
                let mut o = self.sh.peers[rank].lock().expect("outbound poisoned");
                o.dirty = false;
                match o.state {
                    OutState::Idle => {
                        o.state = OutState::Connecting;
                        Action::Connect
                    }
                    // Frames keep queueing; the retry timer (or the connect
                    // completing) migrates them.
                    OutState::Connecting => Action::Nothing,
                    OutState::Up => Action::Write(o.queue.drain(..).collect()),
                    OutState::Gone => Action::Nothing,
                }
            };
            match action {
                Action::Connect => {
                    self.begin_connect(rank, RETRY_FLOOR, Instant::now() + CONNECT_TIMEOUT)
                }
                Action::Write(frames) => self.push_frames(rank, frames),
                Action::Nothing => {}
            }
        }
    }

    fn service_timers(&mut self) {
        let now = Instant::now();
        for rank in 0..self.size {
            if self.retries[rank].as_ref().is_some_and(|r| now >= r.next) {
                let r = self.retries[rank].take().expect("checked above");
                self.begin_connect(rank, r.backoff, r.deadline);
            }
        }
        if self.sh.down.load(Ordering::Acquire) {
            return; // no heartbeats while flushing for exit
        }
        let due: Vec<(u64, usize)> = self
            .conns
            .iter()
            .filter_map(|(token, conn)| match &conn.kind {
                ConnKind::Out(o) if o.staging.is_empty() && now - o.last_write >= HEARTBEAT => {
                    Some((*token, o.rank))
                }
                _ => None,
            })
            .collect();
        for (token, rank) in due {
            self.hooks.on_control_sent(rank, "ping");
            if let Some(Conn {
                kind: ConnKind::Out(o),
                ..
            }) = self.conns.get_mut(&token)
            {
                o.staging.push_back(OutFrame::control(&Frame::Ping));
            }
            self.write_out(token);
        }
    }

    /// One blocking-but-instant connect attempt; failure schedules a retry
    /// on the poller clock until `deadline`, then gives the peer up. An
    /// elastic slot whose address is not installed yet counts as a
    /// connect failure — the admission broadcast may still be in flight,
    /// so the retry window covers the race.
    fn begin_connect(&mut self, rank: usize, backoff: Duration, deadline: Instant) {
        let attempt = match self.sh.addr_of(rank) {
            Some(addr) => Stream::connect(&addr),
            None => Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "peer address not yet admitted",
            )),
        };
        match attempt {
            Ok(stream) => self.finish_connect(rank, stream),
            Err(_) if Instant::now() < deadline => {
                self.retries[rank] = Some(Retry {
                    next: Instant::now() + backoff,
                    backoff: (backoff * 2).min(RETRY_CAP),
                    deadline,
                });
            }
            Err(_) => self.give_up(rank),
        }
    }

    fn finish_connect(&mut self, rank: usize, stream: Stream) {
        if stream.set_nonblocking(true).is_err() {
            self.give_up(rank);
            return;
        }
        let token = self.alloc_token();
        if self.epoll.add(stream.raw_fd(), token, true, false).is_err() {
            self.give_up(rank);
            return;
        }
        self.hooks.on_control_sent(rank, "hello");
        let mut staging = VecDeque::new();
        staging.push_back(OutFrame::control(&Frame::Hello { rank: self.my_rank }));
        {
            let mut o = self.sh.peers[rank].lock().expect("outbound poisoned");
            staging.extend(o.queue.drain(..));
            o.state = OutState::Up;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                kind: ConnKind::Out(OutConn {
                    rank,
                    staging,
                    front_off: 0,
                    last_write: Instant::now(),
                    want_write: false,
                }),
            },
        );
        self.out_token[rank] = Some(token);
        self.retries[rank] = None;
        self.write_out(token);
    }

    /// Declares `rank` unreachable: refuse future frames, settle the acks
    /// of everything still queued, tell the transport.
    fn give_up(&mut self, rank: usize) {
        let mut acks = {
            let mut o = self.sh.peers[rank].lock().expect("outbound poisoned");
            o.state = OutState::Gone;
            o.queue
                .drain(..)
                .filter(|f| f.ack_id != 0)
                .map(|f| f.ack_id)
                .collect::<Vec<_>>()
        };
        self.retries[rank] = None;
        if let Some(token) = self.out_token[rank].take() {
            if let Some(conn) = self.conns.remove(&token) {
                if let ConnKind::Out(o) = conn.kind {
                    acks.extend(o.staging.iter().filter(|f| f.ack_id != 0).map(|f| f.ack_id));
                }
                // Dropping the stream closes the fd, which also removes
                // the (unique) epoll registration.
            }
        }
        self.hooks.on_peer_gone(rank, acks);
    }

    fn kill_out(&mut self, token: u64) {
        let rank = match self.conns.get(&token) {
            Some(Conn {
                kind: ConnKind::Out(o),
                ..
            }) => o.rank,
            _ => return,
        };
        self.give_up(rank);
    }

    fn push_frames(&mut self, rank: usize, frames: Vec<OutFrame>) {
        let Some(token) = self.out_token[rank] else {
            return; // connection died since the dirty mark; frames settled by give_up
        };
        if let Some(Conn {
            kind: ConnKind::Out(o),
            ..
        }) = self.conns.get_mut(&token)
        {
            o.staging.extend(frames);
        }
        self.write_out(token);
    }

    /// Writes staged frames with `writev` until dry or `WouldBlock`,
    /// keeping `EPOLLOUT` interest only while blocked.
    fn write_out(&mut self, token: u64) {
        let mut wrote = 0usize;
        let mut calls = 0usize;
        let mut dead = false;
        {
            let epoll = &self.epoll;
            let Some(Conn { stream, kind }) = self.conns.get_mut(&token) else {
                return;
            };
            let ConnKind::Out(o) = kind else { return };
            let mut blocked = false;
            'drain: while !o.staging.is_empty() {
                let mut iovs: Vec<IoSlice<'_>> =
                    Vec::with_capacity((2 * o.staging.len()).min(MAX_IOVS));
                for (i, f) in o.staging.iter().take(MAX_IOVS / 2).enumerate() {
                    let parts = f.parts(if i == 0 { o.front_off } else { 0 });
                    iovs.extend(
                        parts
                            .into_iter()
                            .filter(|p| !p.is_empty())
                            .map(IoSlice::new),
                    );
                }
                match stream.write_vectored(&iovs) {
                    Ok(0) => {
                        dead = true;
                        break 'drain;
                    }
                    Ok(mut n) => {
                        calls += 1;
                        o.last_write = Instant::now();
                        while n > 0 {
                            let front_remaining =
                                o.staging.front().expect("bytes imply frames").len() - o.front_off;
                            if n >= front_remaining {
                                o.staging.pop_front();
                                n -= front_remaining;
                                o.front_off = 0;
                                wrote += 1;
                            } else {
                                o.front_off += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        blocked = true;
                        break 'drain;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break 'drain;
                    }
                }
            }
            if !dead && blocked != o.want_write {
                let _ = epoll.modify(stream.raw_fd(), token, true, blocked);
                o.want_write = blocked;
            }
        }
        self.frames_this_iter += wrote;
        if calls > 0 {
            self.hooks.on_writev(calls, wrote);
        }
        if dead {
            self.kill_out(token);
        }
    }

    /// Reads an inbound connection until it runs dry, handing on every
    /// frame that completes. A stream that ends, breaks or stops following
    /// the protocol closes the connection.
    fn read_in(&mut self, token: u64) {
        let Some(Conn {
            stream,
            kind: ConnKind::In(i),
        }) = self.conns.get_mut(&token)
        else {
            return;
        };
        let (hooks, size) = (&self.hooks, self.size);
        let mut io = FdSource(stream.raw_fd());
        let mut frames = 0;
        let end = loop {
            let src = i.src;
            // Only an identified peer's payloads are given a destination.
            let dest_for = |msg, len| match src {
                Some(_) => hooks.dest_for(msg, len).map(Some),
                None => Err(corrupt("data frame before hello")),
            };
            match (i.reader.next(&mut io, dest_for), src) {
                (Ok(None), _) => break Ok(()),
                (Ok(Some(Arrival::Control(Frame::Hello { rank }))), None) if rank < size => {
                    i.src = Some(rank);
                }
                (Ok(Some(arrival)), Some(src)) => {
                    frames += 1;
                    match arrival {
                        Arrival::Control(frame) => hooks.on_frame(src, frame),
                        Arrival::Data { msg, ack_id, dest } => hooks.on_data(msg, ack_id, dest),
                    }
                }
                // Bad hello or frame before hello: a connection that never
                // identified itself is not attributed to any rank — the
                // rendezvous monitor covers real crashes.
                (Ok(Some(_)), None) => break Err(io::ErrorKind::InvalidData.into()),
                (Err(e), _) => break Err(e),
            }
        };
        self.frames_this_iter += frames;
        if end.is_err() {
            self.close_in(token);
        }
    }

    fn close_in(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if let ConnKind::In(InConn { src: Some(src), .. }) = conn.kind {
                // EOF or garbage from an identified peer: clean if it
                // finished (the transport checks), a failure otherwise.
                self.hooks.on_peer_gone(src, Vec::new());
            }
        }
    }

    /// Flush-mode step: true once every queue and staging buffer is empty.
    fn flush_done(&mut self) -> bool {
        // Peers still mid-retry get exactly one last attempt, then drop.
        for rank in 0..self.size {
            if self.retries[rank].take().is_some() {
                match self.sh.addr_of(rank).map(|a| Stream::connect(&a)) {
                    Some(Ok(stream)) => self.finish_connect(rank, stream),
                    _ => self.give_up(rank),
                }
            }
        }
        let tokens: Vec<u64> = self.out_token.iter().flatten().copied().collect();
        for token in tokens {
            self.write_out(token);
        }
        let queues_empty = self
            .sh
            .peers
            .iter()
            .all(|p| p.lock().expect("outbound poisoned").queue.is_empty());
        let staging_empty = self.conns.values().all(|c| match &c.kind {
            ConnKind::Out(o) => o.staging.is_empty(),
            ConnKind::In(_) => true,
        });
        queues_empty && staging_empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCtx;
    use crate::transport::{Hub, Mailbox};
    use std::sync::mpsc::{channel, Receiver, Sender};

    struct Recorder {
        mailbox: Mailbox,
        frames: Sender<(usize, Frame)>,
        gone: Sender<(usize, Vec<u64>)>,
        control: Sender<(usize, &'static str)>,
    }

    impl EngineHooks for Recorder {
        fn on_frame(&self, src: usize, frame: Frame) {
            let _ = self.frames.send((src, frame));
        }
        fn dest_for(&self, msg: MatchKey, len: usize) -> io::Result<Dest> {
            Ok(self.mailbox.dest_for(msg, len, false).expect("not patient"))
        }
        fn on_data(&self, msg: MatchKey, ack_id: u64, dest: Dest) {
            // Through a mailbox and out again: what arrived, as the frame
            // the sender encoded.
            self.mailbox.land(msg, dest, None);
            let got = self.mailbox.try_take(msg).expect("landed just now");
            let frame = Frame::Data {
                src: msg.src,
                tag: msg.tag,
                ctx: msg.ctx,
                ack_id,
                payload: got.payload.into_vec(),
            };
            let _ = self.frames.send((msg.src, frame));
        }
        fn on_peer_gone(&self, rank: usize, dropped_acks: Vec<u64>) {
            let _ = self.gone.send((rank, dropped_acks));
        }
        fn on_control_sent(&self, peer: usize, kind: &'static str) {
            let _ = self.control.send((peer, kind));
        }
        fn on_wakeup(&self, _events: usize, _frames: usize, _busy: Duration) {}
    }

    #[allow(clippy::type_complexity)]
    fn recorder() -> (
        Arc<Recorder>,
        Receiver<(usize, Frame)>,
        Receiver<(usize, Vec<u64>)>,
        Receiver<(usize, &'static str)>,
    ) {
        let (ftx, frx) = channel();
        let (gtx, grx) = channel();
        let (ctx, crx) = channel();
        (
            Arc::new(Recorder {
                mailbox: Mailbox::new(0, 2, Arc::new(Hub::new()), TraceCtx::disabled(2)),
                frames: ftx,
                gone: gtx,
                control: ctx,
            }),
            frx,
            grx,
            crx,
        )
    }

    fn pair() -> (Vec<Option<Addr>>, Listener, Listener) {
        let l0 = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let l1 = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addrs = vec![
            Some(l0.local_addr().unwrap()),
            Some(l1.local_addr().unwrap()),
        ];
        (addrs, l0, l1)
    }

    fn data(src: usize, tag: u32, payload: &[u8]) -> Frame {
        Frame::Data {
            src,
            tag,
            ctx: 0,
            ack_id: 0,
            payload: payload.to_vec(),
        }
    }

    /// What `SocketTransport::post` queues for the envelope `data(..)`
    /// describes.
    fn data_out(src: usize, tag: u32, payload: &[u8], ack_id: u64) -> OutFrame {
        let msg = MatchKey { src, tag, ctx: 0 };
        OutFrame::data(msg, ack_id, Payload::from_slice(payload))
    }

    #[test]
    fn frames_flow_between_two_engines_in_order() {
        let (addrs, l0, l1) = pair();
        let (hooks0, _f0, _g0, _c0) = recorder();
        let (hooks1, f1, _g1, _c1) = recorder();
        let e0 = Engine::start(0, addrs.clone(), l0, hooks0).unwrap();
        let _e1 = Engine::start(1, addrs, l1, hooks1).unwrap();
        for i in 0..100u32 {
            assert!(e0.enqueue(1, data_out(0, i, b"payload", 0),));
        }
        for i in 0..100u32 {
            let (src, frame) = f1.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(src, 0);
            assert_eq!(frame, data(0, i, b"payload"));
        }
        e0.shutdown();
    }

    #[test]
    fn unreachable_peer_reports_gone_with_dropped_acks() {
        let l0 = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        // Peer 1's address refuses connections (bound, never accepted,
        // tiny backlog is still accepted by the kernel — so use a plainly
        // dead port: bind a probe listener and drop it).
        let dead = {
            let probe = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
            probe.local_addr().unwrap()
        };
        let addrs = vec![Some(l0.local_addr().unwrap()), Some(dead)];
        let (hooks, _f, gone, _c) = recorder();
        let e = Engine::start(0, addrs, l0, hooks).unwrap();
        assert!(e.enqueue(1, data_out(0, 1, b"x", 77),));
        let (rank, acks) = gone.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(rank, 1);
        assert_eq!(acks, vec![77]);
        // Once gone, enqueue refuses immediately.
        assert!(!e.enqueue(1, OutFrame::control(&Frame::Ping),));
        e.shutdown();
    }

    #[test]
    fn idle_link_heartbeats_off_the_poller_timer() {
        let (addrs, l0, l1) = pair();
        let (hooks0, _f0, _g0, c0) = recorder();
        let (hooks1, f1, _g1, _c1) = recorder();
        let e0 = Engine::start(0, addrs.clone(), l0, hooks0).unwrap();
        let _e1 = Engine::start(1, addrs, l1, hooks1).unwrap();
        e0.enqueue(1, data_out(0, 1, b"warm", 0));
        let _ = f1.recv_timeout(Duration::from_secs(10)).unwrap();
        // No further sends: the engine must ping on its own within ~one
        // heartbeat interval (generous bound for a loaded single-core box).
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut pinged_trace = false;
        let mut pinged_wire = false;
        while Instant::now() < deadline && !(pinged_trace && pinged_wire) {
            if let Ok((peer, kind)) = c0.try_recv() {
                if peer == 1 && kind == "ping" {
                    pinged_trace = true;
                }
            }
            if let Ok((_, Frame::Ping)) = f1.recv_timeout(Duration::from_millis(50)) {
                pinged_wire = true;
            }
        }
        assert!(pinged_trace, "engine never recorded a heartbeat ping");
        assert!(pinged_wire, "peer never received the heartbeat ping");
        e0.shutdown();
    }

    #[test]
    fn shutdown_flushes_queued_frames_first() {
        let (addrs, l0, l1) = pair();
        let (hooks0, _f0, _g0, _c0) = recorder();
        let (hooks1, f1, _g1, _c1) = recorder();
        let e0 = Engine::start(0, addrs.clone(), l0, hooks0).unwrap();
        let _e1 = Engine::start(1, addrs, l1, hooks1).unwrap();
        for i in 0..50u32 {
            e0.enqueue(1, data_out(0, i, &vec![7u8; 4096], 0));
        }
        // Immediate shutdown: every queued frame must still arrive.
        e0.shutdown();
        for i in 0..50u32 {
            let (_, frame) = f1.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(frame, data(0, i, &vec![7u8; 4096]));
        }
    }
}
