//! Process launching for the socket backend (the `kampirun` library).
//!
//! [`launch`] plays the role of `mpirun`: it picks a rendezvous address,
//! spawns `ranks` copies of the target program with the
//! `KAMPING_TRANSPORT=socket` environment, waits for all of them, and
//! reports per-rank exit statuses. The rendezvous *service* is not hosted
//! here — rank 0 of the job runs it (see [`super`]) — so the launcher
//! itself is nothing but `fork`/`exec`/`waitpid` plus environment plumbing,
//! and a job can equally be assembled by hand with four shells and the
//! right environment variables.

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use super::addr::Addr;

/// Distinguishes concurrent launches from one parent process (tests fire
/// several jobs in parallel).
static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Which wire co-located ranks use. The launcher only ever starts
/// same-host jobs, so `ShmXproc` puts *every* pair on shared-memory rings
/// unless a `KAMPING_LOCAL_RANKS` override (see `super::SocketConfig`)
/// splits the set for testing mixed topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Sockets between all pairs (Unix-domain or TCP loopback).
    #[default]
    Socket,
    /// Shared-memory SPSC rings between co-located pairs, sockets for the
    /// rest.
    ShmXproc,
}

impl Backend {
    /// The `KAMPING_TRANSPORT` value selecting this backend.
    pub fn transport_name(self) -> &'static str {
        match self {
            Backend::Socket => "socket",
            Backend::ShmXproc => "shm-xproc",
        }
    }
}

/// One job to launch: the socket-backend analog of an `mpirun` invocation.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// Number of ranks (= OS processes) to start.
    pub ranks: usize,
    /// Rendezvous over TCP loopback instead of Unix-domain sockets.
    pub tcp: bool,
    /// Wire between co-located ranks.
    pub backend: Backend,
    /// Program to run as every rank.
    pub program: PathBuf,
    /// Arguments passed to every rank.
    pub args: Vec<String>,
    /// Extra environment variables set for every rank.
    pub env: Vec<(String, String)>,
    /// Number of *late joiner* processes on top of `ranks`
    /// (`kampirun --elastic N`): the universe capacity becomes
    /// `ranks + elastic`, the extra processes start with `KAMPING_JOIN=1`
    /// and no rank — rank 0's monitor assigns fresh ranks at admission.
    pub elastic: usize,
    /// Stagger between joiner admissions: joiner `i` sleeps
    /// `(i + 1) * join_delay_ms` before its handshake.
    pub join_delay_ms: u64,
}

impl LaunchSpec {
    /// A spec with no extra arguments or environment.
    pub fn new(ranks: usize, program: impl Into<PathBuf>) -> Self {
        Self {
            ranks,
            tcp: false,
            backend: Backend::default(),
            program: program.into(),
            args: Vec::new(),
            env: Vec::new(),
            elastic: 0,
            join_delay_ms: 0,
        }
    }
}

/// Picks the directory for shm-xproc ring files: `/dev/shm` (a real tmpfs,
/// so ring traffic never touches a disk) when present, the system temp dir
/// otherwise.
fn shm_base() -> PathBuf {
    let dev_shm = PathBuf::from("/dev/shm");
    if dev_shm.is_dir() {
        dev_shm
    } else {
        std::env::temp_dir()
    }
}

/// How one rank's process ended.
#[derive(Debug)]
pub struct RankExit {
    /// The global rank.
    pub rank: usize,
    /// Its process exit status.
    pub status: ExitStatus,
}

/// Runs `spec` as a multi-process job and waits for every rank.
///
/// The spawned processes receive `KAMPING_TRANSPORT=socket`,
/// `KAMPING_RANK`, `KAMPING_RANKS` and `KAMPING_RENDEZVOUS`; their
/// [`crate::Universe::run`] call joins the job instead of spawning
/// threads. Statuses come back in rank order; a crashed rank shows up as
/// a non-success status here *and* as a ULFM failure inside the job.
pub fn launch(spec: &LaunchSpec) -> io::Result<Vec<RankExit>> {
    if spec.ranks == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a job needs at least one rank",
        ));
    }
    let capacity = spec.ranks + spec.elastic;
    if spec.elastic > 0 && capacity > 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("elastic universes are capped at 64 global ranks, got {capacity}"),
        ));
    }
    let dir = std::env::temp_dir().join(format!(
        "kampirun-{}-{}",
        std::process::id(),
        LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    let rendezvous = if spec.tcp {
        // Reserve an ephemeral port, then hand it to rank 0. The port is
        // released before rank 0 rebinds it — a small race, which is why
        // Unix-domain sockets (collision-free paths) are the default.
        let probe = std::net::TcpListener::bind("127.0.0.1:0")?;
        Addr::Tcp(format!("127.0.0.1:{}", probe.local_addr()?.port()))
    } else {
        Addr::Unix(dir.join("rendezvous.sock"))
    };

    // Ring files live on a tmpfs, not in the (possibly disk-backed) job
    // dir. Each job gets its own subdirectory so concurrent launches
    // cannot collide, removed with the job.
    let shm_dir = match spec.backend {
        Backend::Socket => None,
        Backend::ShmXproc => {
            let d = shm_base().join(dir.file_name().expect("launch dir has a name"));
            std::fs::create_dir_all(&d)?;
            Some(d)
        }
    };

    let mut children: Vec<Child> = Vec::with_capacity(capacity);
    // Launch ranks first, then the joiners: slot `ranks + i` is where
    // joiner `i` will land *if* admissions happen in spawn order, which
    // the staggered join delay makes overwhelmingly likely — but the
    // monitor's arrival order is authoritative, so the `RankExit` labels
    // for joiners are best-effort.
    for slot in 0..capacity {
        let joiner = slot >= spec.ranks;
        let mut cmd = Command::new(&spec.program);
        cmd.args(&spec.args)
            .env("KAMPING_TRANSPORT", spec.backend.transport_name())
            .env("KAMPING_RANKS", spec.ranks.to_string())
            .env("KAMPING_RENDEZVOUS", rendezvous.to_string())
            .stdin(Stdio::null());
        if joiner {
            let delay = spec.join_delay_ms * ((slot - spec.ranks) as u64 + 1);
            cmd.env("KAMPING_JOIN", "1")
                .env("KAMPING_JOIN_DELAY_MS", delay.to_string());
        } else {
            cmd.env("KAMPING_RANK", slot.to_string());
        }
        if spec.elastic > 0 {
            cmd.env("KAMPING_MAX_RANKS", capacity.to_string());
        }
        if let Some(d) = &shm_dir {
            cmd.env("KAMPING_SHM_DIR", d);
        }
        for (k, v) in &spec.env {
            cmd.env(k, v);
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                let _ = std::fs::remove_dir_all(&dir);
                if let Some(d) = &shm_dir {
                    let _ = std::fs::remove_dir_all(d);
                }
                return Err(io::Error::new(
                    e.kind(),
                    format!("spawning rank {slot} ({}): {e}", spec.program.display()),
                ));
            }
        }
    }

    let mut exits = Vec::with_capacity(capacity);
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait()?;
        exits.push(RankExit { rank, status });
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(d) = &shm_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(exits)
}
