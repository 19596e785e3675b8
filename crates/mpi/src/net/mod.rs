//! Cross-process socket backend and the `kampirun` launcher.
//!
//! Where the shared-memory backend runs ranks as threads of one process,
//! this module runs each rank as its *own OS process*, connected by
//! Unix-domain (default) or TCP loopback sockets. It is selected by the
//! environment the `kampirun` binary sets up:
//!
//! ```text
//! kampirun --ranks 4 -- ./target/release/examples/sort_smoke
//! ```
//!
//! which amounts to `KAMPING_TRANSPORT=socket` plus `KAMPING_RANK`,
//! `KAMPING_RANKS`, and `KAMPING_RENDEZVOUS` for each spawned process.
//! [`crate::Universe::run`] detects that environment (`Config::socket`)
//! and joins the job as one rank instead of spawning threads.
//!
//! # Rendezvous
//!
//! Rank 0 binds a listener at the rendezvous address. Every other rank
//! binds its own *data* listener, connects to the rendezvous (with retry —
//! rank 0 may still be starting), and sends `Join { rank, data_addr }`.
//! Once all ranks have joined, rank 0 answers each with
//! `Table { addrs }`, the full data-plane address table. The mesh itself
//! is established *lazily*: a connection from rank `s` to rank `d` is
//! opened by `s`'s first send to `d`.
//!
//! The rendezvous connections then stay open as the *failure-detection
//! plane*: each rank writes `Bye` there right before a clean exit, and a
//! monitor thread on rank 0 treats EOF-without-`Bye` as a crash, marks the
//! rank failed, and broadcasts `Failed` to all surviving ranks — which is
//! how a `kill -9` surfaces as [`crate::MpiError::ProcFailed`] for the
//! ULFM recovery path. (Crashes are *also* detected directly by any peer
//! whose data connection to the victim breaks.)
//!
//! # Limitations (by design, documented here rather than hidden)
//!
//! * One socket-backend universe per process, ever: the world is the
//!   process, so a second `Universe::run` cannot mean anything.
//! * `Universe::run(size, f)` under `kampirun` ignores `size` — the
//!   launcher's `--ranks` is authoritative, exactly like `mpirun -n`.
//!   The returned vector holds only this rank's result.
//! * If rank 0 exits before other ranks crash, launcher-plane failure
//!   detection is gone; direct-connection detection still works.

mod addr;
pub mod launch;
mod progress;
pub mod ring;
mod socket;
mod sys;
pub mod wire;

pub(crate) use addr::{Addr, Listener, Stream};
pub use launch::{launch, Backend, LaunchSpec, RankExit};
pub(crate) use socket::SocketTransport;

use std::io;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::chaos::ChaosTransport;
use crate::comm::RawComm;
use crate::config::Config;
use crate::error::{MpiError, MpiResult};
use crate::metrics::{MetricsSnapshot, METRICS_WIRE_BYTES};
use crate::trace::TraceCtx;
use crate::transport::{ControlSink, Transport};
use crate::universe::{Job, UniverseState};

use wire::{read_frame, write_frame, Frame};

/// How long a rank keeps retrying the rendezvous endpoint before giving
/// up on the job.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(20);

/// The socket-backend environment of one rank, as set up by `kampirun`.
#[derive(Debug, Clone)]
pub(crate) struct SocketConfig {
    /// This process's global rank.
    pub(crate) rank: usize,
    /// Total number of ranks in the job.
    pub(crate) ranks: usize,
    /// Rendezvous endpoint (rank 0 binds it, everyone else connects).
    pub(crate) rendezvous: Addr,
    /// Wire selection: sockets everywhere, or shared-memory rings between
    /// co-located ranks with sockets only for remote pairs.
    pub(crate) backend: Backend,
    /// Directory holding the per-rank inbox ring files
    /// (`KAMPING_SHM_DIR`; required for `shm-xproc`).
    pub(crate) shm_dir: Option<PathBuf>,
    /// The co-located rank set (`KAMPING_LOCAL_RANKS`). `None` means every
    /// rank shares this host. A pair talks over rings iff *both* ends are
    /// in the set; all other pairs use sockets.
    ///
    /// Syntax: comma-separated ranks and/or `a-b` ranges, with `;`
    /// separating host groups (`"0-3;4-7"` emulates two 4-rank hosts on
    /// one machine). Each process keeps only the group containing its own
    /// rank, so both ends of an intra-group pair agree on ring wiring.
    pub(crate) local_ranks: Option<Vec<usize>>,
    /// Per-channel ring capacity in bytes (`KAMPING_RING_KB`).
    pub(crate) ring_bytes: usize,
    /// Universe capacity (`KAMPING_MAX_RANKS`, default `ranks`): the
    /// number of global-rank slots, of which `ranks` are filled at launch
    /// and the rest by late joiners. Elastic capacity is capped at 64.
    pub(crate) max_ranks: usize,
    /// This process is a late joiner (`KAMPING_JOIN=1`): it carries no
    /// `KAMPING_RANK` — rank 0's rendezvous monitor assigns one.
    pub(crate) join: bool,
    /// Joiner-only: sleep this long before the join handshake
    /// (`KAMPING_JOIN_DELAY_MS`), so a launcher can stagger admissions.
    pub(crate) join_delay: Duration,
}

impl SocketConfig {
    /// Parses the launch environment out of a variable lookup (the
    /// process environment, via [`Config::from_lookup`]). `Ok(None)` unless
    /// `KAMPING_TRANSPORT` names a multi-process backend; a typed
    /// [`MpiError::Config`] (naming the offending variable) if one is
    /// requested but its environment is malformed or incomplete, because
    /// silently falling back to threads would mask launcher bugs.
    pub(crate) fn from_lookup(get: impl Fn(&str) -> Option<String>) -> MpiResult<Option<Self>> {
        let backend = match get("KAMPING_TRANSPORT") {
            Some(v) if v == "socket" => Backend::Socket,
            Some(v) if v == "shm-xproc" => Backend::ShmXproc,
            Some(v) if v == "shm" || v.is_empty() => return Ok(None),
            Some(v) => {
                return Err(MpiError::Config(format!(
                    "KAMPING_TRANSPORT must be shm, socket or shm-xproc, got {v:?}"
                )))
            }
            None => return Ok(None),
        };
        let transport = backend.transport_name();
        let require = |key: &str| {
            get(key).ok_or_else(|| {
                MpiError::Config(format!(
                    "KAMPING_TRANSPORT={transport} requires {key} (set by kampirun)"
                ))
            })
        };
        let join = matches!(get("KAMPING_JOIN").as_deref(), Some("1") | Some("true"));
        // A joiner has no rank yet — rank 0 assigns one at admission. The
        // placeholder is deliberately out of range so accidental use as a
        // real rank fails loudly.
        let rank: usize = if join {
            usize::MAX
        } else {
            require("KAMPING_RANK")?
                .parse()
                .map_err(|_| MpiError::Config("KAMPING_RANK must be an integer".into()))?
        };
        let ranks: usize = require("KAMPING_RANKS")?
            .parse()
            .map_err(|_| MpiError::Config("KAMPING_RANKS must be an integer".into()))?;
        let rendezvous = Addr::parse(&require("KAMPING_RENDEZVOUS")?).map_err(|e| {
            MpiError::Config(format!(
                "KAMPING_RENDEZVOUS must be unix:<path> or tcp:<host:port>: {e}"
            ))
        })?;
        if !join && rank >= ranks {
            return Err(MpiError::Config(format!(
                "KAMPING_RANK={rank} out of range for KAMPING_RANKS={ranks}"
            )));
        }
        let max_ranks: usize = match get("KAMPING_MAX_RANKS") {
            None => ranks,
            Some(v) => v
                .parse()
                .map_err(|_| MpiError::Config("KAMPING_MAX_RANKS must be an integer".into()))?,
        };
        if max_ranks < ranks {
            return Err(MpiError::Config(format!(
                "KAMPING_MAX_RANKS={max_ranks} is below KAMPING_RANKS={ranks}"
            )));
        }
        if max_ranks > ranks && max_ranks > 64 {
            return Err(MpiError::Config(format!(
                "KAMPING_MAX_RANKS={max_ranks}: elastic universes are capped at 64 global ranks"
            )));
        }
        let join_delay = match get("KAMPING_JOIN_DELAY_MS") {
            None => Duration::ZERO,
            Some(v) => Duration::from_millis(v.parse().map_err(|_| {
                MpiError::Config("KAMPING_JOIN_DELAY_MS must be an integer".into())
            })?),
        };
        let shm_dir = match backend {
            Backend::ShmXproc => Some(PathBuf::from(require("KAMPING_SHM_DIR")?)),
            Backend::Socket => None,
        };
        let local_ranks = match get("KAMPING_LOCAL_RANKS") {
            None => None,
            Some(list) => {
                let groups = parse_local_groups(&list).map_err(MpiError::Config)?;
                if let Some(&bad) = groups.iter().flatten().find(|&&r| r >= ranks) {
                    return Err(MpiError::Config(format!(
                        "KAMPING_LOCAL_RANKS names rank {bad}, but KAMPING_RANKS={ranks}"
                    )));
                }
                // Keep the group containing this rank: a pair is ring-wired
                // iff both ends kept each other, which holds exactly for
                // intra-group pairs because groups are disjoint.
                let mut seen = std::collections::HashSet::new();
                for g in &groups {
                    for &r in g {
                        if !seen.insert(r) {
                            return Err(MpiError::Config(format!(
                                "KAMPING_LOCAL_RANKS lists rank {r} in two host groups"
                            )));
                        }
                    }
                }
                Some(
                    groups
                        .into_iter()
                        .find(|g| g.contains(&rank))
                        .unwrap_or_default(),
                )
            }
        };
        let ring_bytes = match get("KAMPING_RING_KB") {
            None => ring::DEFAULT_RING_BYTES,
            Some(kb) => {
                let kb: usize = kb
                    .parse()
                    .map_err(|_| MpiError::Config("KAMPING_RING_KB must be an integer".into()))?;
                let bytes = kb.saturating_mul(1024);
                if !bytes.is_power_of_two() || !(4096..=(1 << 30)).contains(&bytes) {
                    return Err(MpiError::Config(format!(
                        "KAMPING_RING_KB must give a power-of-two ring in [4 KiB, 1 GiB], \
                         got {kb} KiB"
                    )));
                }
                bytes
            }
        };
        Ok(Some(Self {
            rank,
            ranks,
            rendezvous,
            backend,
            shm_dir,
            local_ranks,
            ring_bytes,
            max_ranks,
            join,
            join_delay,
        }))
    }
}

/// Parses the `KAMPING_LOCAL_RANKS` grammar: `;`-separated host groups,
/// each a comma-separated mix of ranks and `a-b` ranges.
fn parse_local_groups(list: &str) -> Result<Vec<Vec<usize>>, String> {
    let bad = |what: &str| {
        format!("KAMPING_LOCAL_RANKS must be ranks/ranges like 0,1 or 0-3;4-7: {what}")
    };
    let mut groups = Vec::new();
    for group in list.split(';') {
        let mut ranks = Vec::new();
        for item in group.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match item.split_once('-') {
                None => ranks.push(item.parse().map_err(|_| bad(item))?),
                Some((lo, hi)) => {
                    let lo: usize = lo.trim().parse().map_err(|_| bad(item))?;
                    let hi: usize = hi.trim().parse().map_err(|_| bad(item))?;
                    if lo > hi {
                        return Err(bad(item));
                    }
                    ranks.extend(lo..=hi);
                }
            }
        }
        if !ranks.is_empty() {
            groups.push(ranks);
        }
    }
    if groups.is_empty() {
        return Err(bad("empty list"));
    }
    Ok(groups)
}

/// What the rendezvous leaves behind on each side.
enum RendezvousHandle {
    /// Rank 0: one open connection per other rank, to be monitored, plus
    /// the still-bound rendezvous listener — on an elastic universe the
    /// monitor keeps accepting late `JoinElastic` handshakes from it.
    Server(Vec<(usize, Stream)>, Listener),
    /// Other ranks: the open connection to rank 0, for the `Bye` notice.
    Client(Stream),
}

/// Runs the rendezvous protocol. Returns the full data-plane address
/// table and the persistent rendezvous connection(s).
fn rendezvous(cfg: &SocketConfig, data_addr: &Addr) -> io::Result<(Vec<Addr>, RendezvousHandle)> {
    if cfg.rank == 0 {
        let listener = Listener::bind(&cfg.rendezvous)?;
        let mut addrs: Vec<Option<Addr>> = vec![None; cfg.ranks];
        addrs[0] = Some(data_addr.clone());
        let mut conns: Vec<(usize, Stream)> = Vec::with_capacity(cfg.ranks.saturating_sub(1));
        while conns.len() + 1 < cfg.ranks {
            let mut s = listener.accept()?;
            match read_frame(&mut s)? {
                Frame::Join { rank, data_addr } if rank < cfg.ranks => {
                    addrs[rank] = Some(Addr::parse(&data_addr)?);
                    conns.push((rank, s));
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected Join at rendezvous, got {other:?}"),
                    ))
                }
            }
        }
        let table: Vec<Addr> = addrs
            .into_iter()
            .map(|a| a.expect("every rank joined exactly once"))
            .collect();
        let strings: Vec<String> = table.iter().map(Addr::to_string).collect();
        for (_, s) in &mut conns {
            write_frame(
                s,
                &Frame::Table {
                    addrs: strings.clone(),
                },
            )?;
        }
        Ok((table, RendezvousHandle::Server(conns, listener)))
    } else {
        let mut s = Stream::connect_retry(&cfg.rendezvous, RENDEZVOUS_TIMEOUT)?;
        write_frame(
            &mut s,
            &Frame::Join {
                rank: cfg.rank,
                data_addr: data_addr.to_string(),
            },
        )?;
        match read_frame(&mut s)? {
            Frame::Table { addrs } => {
                let table = addrs
                    .iter()
                    .map(|a| Addr::parse(a))
                    .collect::<io::Result<Vec<_>>>()?;
                if table.len() != cfg.ranks {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "rank table size mismatch",
                    ));
                }
                Ok((table, RendezvousHandle::Client(s)))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Table from rendezvous, got {other:?}"),
            )),
        }
    }
}

/// Rank 0's failure monitor: ONE thread polling every rendezvous
/// connection (the per-connection-thread design would make rank 0's
/// thread count linear in job size). A `Bye` means a clean exit; EOF
/// without one means the process died, so the rank is marked failed
/// (which also broadcasts `Failed` to every surviving rank over the data
/// plane). The 500 ms poll timeout doubles as a liveness check on the
/// universe.
///
/// On an elastic universe (`listener` is `Some`) the same thread is also
/// the admission authority: it keeps accepting rendezvous connections,
/// answers `JoinElastic` handshakes with freshly assigned ranks
/// ([`admit_joiner`]) and keeps running as long as the universe lives.
/// Otherwise it retires once every rank has checked out, exactly as
/// before elastic universes existed.
fn spawn_monitor(
    conns: Vec<(usize, Stream)>,
    listener: Option<Listener>,
    table: Vec<Option<Addr>>,
    state: &Arc<UniverseState>,
    socket: Weak<SocketTransport>,
) {
    if conns.is_empty() && listener.is_none() {
        return;
    }
    let weak: Weak<UniverseState> = Arc::downgrade(state);
    std::thread::Builder::new()
        .name("kamping-monitor".into())
        .spawn(move || {
            let mut conns = conns;
            let mut table = table;
            // Fresh ranks are monotonic and never reused: the next one is
            // just past the highest slot ever occupied.
            let mut next_rank = table.iter().rposition(Option::is_some).map_or(0, |i| i + 1);
            loop {
                if conns.is_empty() && listener.is_none() {
                    return;
                }
                let mut fds: Vec<sys::PollFd> = conns
                    .iter()
                    .map(|(_, s)| sys::PollFd {
                        fd: s.raw_fd(),
                        events: sys::POLLIN,
                        revents: 0,
                    })
                    .collect();
                if let Some(l) = &listener {
                    fds.push(sys::PollFd {
                        fd: l.raw_fd(),
                        events: sys::POLLIN,
                        revents: 0,
                    });
                }
                let ready =
                    sys::poll_fds(&mut fds, Some(Duration::from_millis(500))).unwrap_or_default();
                let Some(state) = weak.upgrade() else {
                    return; // universe torn down; nobody left to notify
                };
                if ready == 0 {
                    continue;
                }
                // The fds built this round cover exactly these conns; a
                // joiner admitted below is appended past `n` and polled
                // from the next round on.
                let n = conns.len();
                if let Some(l) = &listener {
                    if fds[n].revents != 0 {
                        if let Ok(s) = l.accept() {
                            admit_joiner(
                                s,
                                &state,
                                &socket,
                                &mut table,
                                &mut next_rank,
                                &mut conns,
                            );
                        }
                    }
                }
                // Reverse order so swap_remove never disturbs an
                // unvisited index.
                for i in (0..n).rev() {
                    if fds[i].revents == 0 {
                        continue;
                    }
                    let (rank, stream) = &mut conns[i];
                    let rank = *rank;
                    match read_frame(stream) {
                        Ok(Frame::Bye { .. }) => {
                            conns.swap_remove(i);
                        }
                        Ok(_) => {}
                        Err(_) => {
                            // A rank this process already holds for failed
                            // is announced all the same: a broken data link
                            // tells only its own end, the monitor everyone.
                            if !state.is_finished(rank) {
                                state.mark_failed(rank);
                            }
                            conns.swap_remove(i);
                        }
                    }
                }
            }
        })
        .expect("spawning monitor thread");
}

/// One elastic admission, run on the monitor thread. Assigns the next
/// fresh global rank, answers with `Admit` (epoch + membership + address
/// table), waits — bounded — for the joiner's ready `Join` (sent only
/// once its transport and, under shm-xproc, its inbox ring are up), then
/// makes the admission visible: `Grow` broadcast to every active rank,
/// local grow application, and the joiner's rendezvous connection joins
/// the failure plane.
///
/// Every early return leaves the universe exactly as it was — a handshake
/// that dies mid-way burns the assigned rank number (ranks are never
/// reused) but is never announced, so no survivor ever learns of it.
fn admit_joiner(
    mut s: Stream,
    state: &Arc<UniverseState>,
    socket: &Weak<SocketTransport>,
    table: &mut [Option<Addr>],
    next_rank: &mut usize,
    conns: &mut Vec<(usize, Stream)>,
) {
    // Bound every read: a connection severed mid-handshake (chaos does
    // this on purpose) must not wedge the failure monitor.
    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(Frame::JoinElastic { data_addr }) = read_frame(&mut s) else {
        return;
    };
    let Ok(addr) = Addr::parse(&data_addr) else {
        return;
    };
    if *next_rank >= table.len() {
        return; // capacity full: drop — the joiner gets a typed timeout
    }
    let rank = *next_rank;
    *next_rank += 1;
    let epoch = state.membership_epoch.load(Ordering::Acquire) + 1;
    let mut members: Vec<usize> = state
        .current_members()
        .into_iter()
        .filter(|&m| !state.is_gone(m))
        .collect();
    members.push(rank);
    members.sort_unstable();
    table[rank] = Some(addr.clone());
    let addrs: Vec<String> = members
        .iter()
        .map(|&m| {
            table[m]
                .as_ref()
                .expect("member has an address")
                .to_string()
        })
        .collect();
    if write_frame(
        &mut s,
        &Frame::Admit {
            rank,
            epoch,
            members: members.clone(),
            addrs,
        },
    )
    .is_err()
    {
        return;
    }
    let _ = s.set_read_timeout(Some(RENDEZVOUS_TIMEOUT));
    match read_frame(&mut s) {
        Ok(Frame::Join { rank: r, .. }) if r == rank => {}
        _ => return,
    }
    let _ = s.set_read_timeout(None);
    // Reachability before visibility: every survivor installs the
    // joiner's address with the `Grow` frame that tells it the epoch
    // moved, and rank 0 installs it first of all.
    if let Some(sock) = socket.upgrade() {
        sock.announce_join(epoch, rank, &addr, &members);
    }
    state.apply_grow(epoch, vec![rank], members);
    conns.push((rank, s));
}

/// Guards against a second socket universe in the same process.
static SOCKET_UNIVERSE_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Joins a `kampirun` job as the rank named by `cfg` and runs `f` once
/// (optionally under a chaos schedule). This is the socket-backend body of
/// [`crate::Universe::run`].
///
/// Setup failures — an unbindable data listener, a broken rendezvous —
/// come back as [`MpiError::Config`] with the single-universe guard
/// released, so a launcher can correct the environment and retry.
pub(crate) fn run_socket<R, F>(config: Config, f: F) -> MpiResult<Job<R>>
where
    R: Send,
    F: Fn(RawComm) -> R + Sync,
{
    let Some(cfg) = config.socket.clone() else {
        return Err(MpiError::Config(
            "the socket backend needs the kampirun launch environment".into(),
        ));
    };
    let cfg = &cfg;
    if SOCKET_UNIVERSE_ACTIVE.swap(true, Ordering::AcqRel) {
        return Err(MpiError::Config(
            "the socket backend supports one Universe::run per process: \
             the process *is* the rank, so a second universe cannot exist"
                .into(),
        ));
    }
    // Until the transport is up, errors release the guard so a corrected
    // environment can retry in the same process.
    let fail = |what: String| {
        SOCKET_UNIVERSE_ACTIVE.store(false, Ordering::Release);
        Err(MpiError::Config(what))
    };
    let fail_err = |e: MpiError| {
        SOCKET_UNIVERSE_ACTIVE.store(false, Ordering::Release);
        Err(e)
    };

    // `size` everywhere below is the universe *capacity*: equal to the
    // launch rank count unless `KAMPING_MAX_RANKS` reserves slots for
    // late joiners.
    let capacity = cfg.max_ranks.max(cfg.ranks);
    let elastic = capacity > cfg.ranks;
    let who = if cfg.join {
        "joiner".to_string()
    } else {
        format!("rank {}", cfg.rank)
    };

    // A launcher staggers admissions by telling each joiner how long to
    // hold back before knocking.
    if cfg.join && !cfg.join_delay.is_zero() {
        std::thread::sleep(cfg.join_delay);
    }

    // Bind the data listener before joining the rendezvous, so the
    // address we publish is already accepting (the OS queues connections
    // until the accept loop starts). Joiners have no rank yet; their
    // listener is named by pid instead.
    let preferred = match &cfg.rendezvous {
        Addr::Unix(p) => {
            let name = if cfg.join {
                format!("data-j{}.sock", std::process::id())
            } else {
                format!("data-{}.sock", cfg.rank)
            };
            Addr::Unix(p.with_file_name(name))
        }
        Addr::Tcp(_) => Addr::Tcp("127.0.0.1:0".into()),
    };
    let listener = match Listener::bind(&preferred) {
        Ok(l) => l,
        Err(e) => return fail(format!("{who}: binding data listener at {preferred}: {e}")),
    };
    let data_addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => return fail(format!("{who}: data listener has no address: {e}")),
    };

    // shm-xproc, launch ranks only: create our own inbox ring file
    // *before* joining the rendezvous. The rendezvous is a barrier —
    // rank 0 answers `Table` only after every rank joined — so once any
    // rank holds the table, every co-located inbox is guaranteed to exist
    // and peers can map it without polling the filesystem. (A joiner
    // creates its inbox mid-handshake, once it learns its rank; see
    // below.) Inboxes carry one lane per *capacity* slot so future
    // joiners can produce into them.
    let mut xproc = match cfg.backend {
        Backend::Socket => None,
        Backend::ShmXproc if cfg.join => None, // created after `Admit`
        Backend::ShmXproc => {
            let Some(dir) = cfg.shm_dir.clone() else {
                return fail(format!(
                    "{who}: shm-xproc backend needs shm_dir (KAMPING_SHM_DIR)"
                ));
            };
            let local: Vec<usize> = match &cfg.local_ranks {
                None => (0..cfg.ranks).collect(),
                Some(set) => set.clone(),
            };
            if local.contains(&cfg.rank) && local.len() >= 2 {
                match ring::Inbox::create(&dir, cfg.rank, capacity, cfg.ring_bytes) {
                    Ok(inbox) => Some(socket::XprocSetup {
                        inbox,
                        dir,
                        local,
                        ring_bytes: cfg.ring_bytes,
                    }),
                    Err(e) => return fail(format!("{who}: creating shm inbox: {e}")),
                }
            } else {
                None // this rank is alone on its "host": plain sockets
            }
        }
    };

    // Rendezvous (launch ranks) or the elastic join handshake (joiners).
    // Both end with: my rank, my membership epoch with its member list,
    // a capacity-slot address table, and the persistent rendezvous
    // connection(s).
    let my_rank: usize;
    let my_epoch: u64;
    let my_members: Vec<usize>;
    let table: Vec<Option<Addr>>;
    let rdv: RendezvousHandle;
    if cfg.join {
        // connect_retry only gives up when its deadline is spent, so any
        // error here — including a rendezvous endpoint a chaos schedule
        // severed — is a bounded, typed timeout rather than a hang.
        let mut s = match Stream::connect_retry(&cfg.rendezvous, RENDEZVOUS_TIMEOUT) {
            Ok(s) => s,
            Err(_) => {
                return fail_err(MpiError::Timeout {
                    waited: RENDEZVOUS_TIMEOUT,
                })
            }
        };
        let _ = s.set_read_timeout(Some(RENDEZVOUS_TIMEOUT));
        if let Err(e) = write_frame(
            &mut s,
            &Frame::JoinElastic {
                data_addr: data_addr.to_string(),
            },
        ) {
            return fail(format!("{who}: join handshake: {e}"));
        }
        let admit = match read_frame(&mut s) {
            Ok(f) => f,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // The monitor never answered within the deadline: severed
                // rendezvous, capacity full, or a dead rank 0. All are
                // "the job did not admit us in time".
                return fail_err(MpiError::Timeout {
                    waited: RENDEZVOUS_TIMEOUT,
                });
            }
            Err(e) => return fail(format!("{who}: join handshake: {e}")),
        };
        let Frame::Admit {
            rank,
            epoch,
            members,
            addrs,
        } = admit
        else {
            return fail(format!("{who}: expected Admit, got {admit:?}"));
        };
        if rank >= capacity
            || members.len() != addrs.len()
            || !members.contains(&rank)
            || members.iter().any(|&m| m >= capacity)
        {
            return fail(format!("{who}: malformed admission (rank {rank})"));
        }
        let _ = s.set_read_timeout(None);
        let mut t: Vec<Option<Addr>> = vec![None; capacity];
        for (&m, a) in members.iter().zip(&addrs) {
            match Addr::parse(a) {
                Ok(a) => t[m] = Some(a),
                Err(e) => return fail(format!("{who}: bad address in admission table: {e}")),
            }
        }
        // The inbox must exist before the ready `Join` below: survivors
        // decide "is this joiner co-located?" by the presence of its ring
        // file at announcement time.
        if cfg.backend == Backend::ShmXproc {
            let Some(dir) = cfg.shm_dir.clone() else {
                return fail(format!(
                    "{who}: shm-xproc backend needs shm_dir (KAMPING_SHM_DIR)"
                ));
            };
            let local: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&m| m == rank || ring::inbox_path(&dir, m).exists())
                .collect();
            if local.len() >= 2 {
                match ring::Inbox::create(&dir, rank, capacity, cfg.ring_bytes) {
                    Ok(inbox) => {
                        xproc = Some(socket::XprocSetup {
                            inbox,
                            dir,
                            local,
                            ring_bytes: cfg.ring_bytes,
                        })
                    }
                    Err(e) => return fail(format!("{who}: creating shm inbox: {e}")),
                }
            }
        }
        my_rank = rank;
        my_epoch = epoch;
        my_members = members;
        table = t;
        rdv = RendezvousHandle::Client(s);
    } else {
        let (addrs, handle) = match rendezvous(cfg, &data_addr) {
            Ok(r) => r,
            Err(e) => return fail(format!("{who}: rendezvous failed: {e}")),
        };
        let mut t: Vec<Option<Addr>> = addrs.into_iter().map(Some).collect();
        t.resize(capacity, None);
        my_rank = cfg.rank;
        my_epoch = 0;
        my_members = (0..cfg.ranks).collect();
        table = t;
        rdv = handle;
    }

    let trace = Arc::new(TraceCtx::new(capacity, config.trace_flags()));
    crate::trace::set_thread_rank(my_rank);
    let monitor_table = table.clone();
    let socket = match SocketTransport::new(
        my_rank,
        capacity,
        table,
        listener,
        Arc::clone(&trace),
        xproc,
    ) {
        Ok(t) => Arc::new(t),
        Err(e) => return fail(format!("{who}: starting transport: {e}")),
    };
    let chaos_active = config.chaos.is_some();
    let (transport, chaos_layer) = match config.chaos.clone() {
        None => (Arc::clone(&socket) as Arc<dyn Transport>, None),
        Some(spec) => {
            let layer = Arc::new(ChaosTransport::new(
                Arc::clone(&socket) as Arc<dyn Transport>,
                capacity,
                spec,
                Arc::clone(&trace),
            ));
            (Arc::clone(&layer) as Arc<dyn Transport>, Some(layer))
        }
    };
    let state = Arc::new(UniverseState::with_transport(
        capacity,
        my_members.clone(),
        transport,
        Arc::clone(&trace),
        config,
    ));
    {
        let weak: Weak<UniverseState> = Arc::downgrade(&state);
        socket.bind_sink(weak.clone() as Weak<dyn ControlSink>);
        if let Some(layer) = chaos_layer {
            layer.bind_sink(weak as Weak<dyn ControlSink>);
        }
    }

    let mut client_conn = None;
    match rdv {
        RendezvousHandle::Server(conns, rdv_listener) => spawn_monitor(
            conns,
            elastic.then_some(rdv_listener),
            monitor_table,
            &state,
            Arc::downgrade(&socket),
        ),
        RendezvousHandle::Client(s) => client_conn = Some(s),
    }

    // Joiner ready notice: the transport (and inbox ring) is up, so the
    // monitor may now announce the admission. Sent on the rendezvous
    // connection, which then becomes the regular failure plane / `Bye`
    // channel.
    if cfg.join {
        let ready = Frame::Join {
            rank: my_rank,
            data_addr: data_addr.to_string(),
        };
        match &mut client_conn {
            Some(s) => {
                if let Err(e) = write_frame(s, &ready) {
                    return fail(format!("{who}: sending ready notice: {e}"));
                }
            }
            None => unreachable!("a joiner always holds the rendezvous connection"),
        }
    }

    // Live metrics plane: rank 0 polls, everyone else answers. Runs over
    // the data plane on a reserved tag pair, so it needs nothing beyond
    // the transport that is already up.
    let plane = crate::metrics::MetricsPlane::start(&state, Some(my_rank));

    let comm = if cfg.join {
        // The admission epoch and everything it implies (member list,
        // grown context id) came from rank 0; recording it locally lets
        // this process's own `grow`/`await_membership_change` start from
        // the right epoch. The admission barrier synchronizes with every
        // survivor's `grow()` call; a failure racing the admission is
        // tolerated here and resurfaces on the closure's first operation.
        state.apply_grow(my_epoch, vec![my_rank], my_members.clone());
        let grown = RawComm::from_grow(Arc::clone(&state), my_epoch, my_members.clone(), my_rank);
        let _ = grown.barrier();
        grown
    } else {
        RawComm::world(Arc::clone(&state), my_rank)
    };
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(comm.clone())));
    if outcome.is_err() {
        state.mark_failed(my_rank);
    }
    // Exchange frozen stats blocks while the mesh is still up, so the
    // views this process returns (profile, op tree) cover *every* rank,
    // not just its own. Skipped under chaos — a lossy transport could
    // stall the collective — and after a local panic.
    let gathered = (outcome.is_ok() && !chaos_active)
        .then(|| gather_stats(&comm))
        .flatten();
    let complete = gathered.is_some();
    let stats =
        gathered.unwrap_or_else(|| (0..capacity).map(|r| trace.rank(r).snapshot()).collect());
    // Join the metrics threads while the mesh is still up: the poller
    // emits its final (partial) interval here, and the responder must not
    // outlive the transport it posts replies on.
    if let Some(plane) = plane {
        plane.stop();
    }
    // Broadcast Finished on the data plane: it travels FIFO *behind* any
    // still-buffered envelopes, so peers never see the finish overtake
    // data they are owed. Chaos delay queues sit *above* that FIFO, so
    // they must drain first.
    state.transport.quiesce();
    state.mark_finished(my_rank);
    // Flush and join the progress engine (and ring consumer) before
    // announcing the clean exit, so `Finished` is on the wire first.
    state.transport.shutdown();
    if let Some(mut s) = client_conn {
        let _ = write_frame(&mut s, &Frame::Bye { rank: my_rank });
    }

    // A panicking rank still writes its own report (the process survives
    // long enough to tell the story); a SIGKILLed one cannot, which is
    // exactly what the survivors' reports are for.
    let panicked: Vec<usize> = outcome.is_err().then_some(my_rank).into_iter().collect();
    state.write_artifacts(&panicked, &[my_rank], Some(my_rank));

    match outcome {
        Ok(v) => Ok(Job {
            values: vec![v],
            stats,
            complete,
            trace,
        }),
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// All-gathers every member's frozen stats block over `comm` on the
/// reserved teardown tag range, so the views a multi-process rank returns
/// (profile, op tree) cover the whole job. The result is indexed by
/// *global* rank (never-admitted slots stay zero); `None` if any peer
/// cannot participate (e.g. it already failed).
fn gather_stats(comm: &RawComm) -> Option<Vec<MetricsSnapshot>> {
    // Freeze *before* the exchange so the gather's own allgather traffic
    // does not inflate the counters being reported.
    let mine = comm.state.trace.rank(comm.my_global_rank()).snapshot();
    comm.coll_seq.set(crate::tag::TEARDOWN_SEQ_BASE);
    let all = comm.allgather(&mine.to_bytes()).ok()?;
    let mut ranks = vec![MetricsSnapshot::default(); comm.state.size];
    for (local, blob) in all.chunks(METRICS_WIRE_BYTES).enumerate() {
        ranks[comm.global_rank(local).ok()?] = MetricsSnapshot::from_bytes(blob)?;
    }
    Some(ranks)
}
