//! Socket addresses, listeners and streams for the socket backend.
//!
//! Both Unix-domain sockets (the default under `kampirun`: no port
//! allocation, automatic cleanup with the rendezvous directory) and TCP
//! loopback sockets (`kampirun --tcp`, and the only option on platforms
//! without Unix sockets) are supported behind one [`Addr`]/[`Listener`]/
//! [`Stream`] facade. Addresses serialize as `unix:<path>` or
//! `tcp:<host>:<port>` strings — the form they take in the
//! `KAMPING_RENDEZVOUS` environment variable and in rendezvous `Table`
//! frames.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A transport endpoint address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Addr {
    /// Unix-domain socket at this filesystem path.
    Unix(PathBuf),
    /// TCP socket at this `host:port`.
    Tcp(String),
}

impl Addr {
    /// Parses the `unix:<path>` / `tcp:<host>:<port>` string form.
    pub(crate) fn parse(s: &str) -> io::Result<Self> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Addr::Unix(PathBuf::from(path)))
        } else if let Some(hostport) = s.strip_prefix("tcp:") {
            Ok(Addr::Tcp(hostport.to_string()))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address must start with unix: or tcp: (got {s:?})"),
            ))
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
        }
    }
}

/// A bound, listening endpoint.
#[derive(Debug)]
pub(crate) enum Listener {
    /// Unix-domain listener and the path it is bound to.
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a listener at `addr`. A TCP port of 0 binds an ephemeral
    /// port; read the actual address back with [`Listener::local_addr`].
    pub(crate) fn bind(addr: &Addr) -> io::Result<Self> {
        match addr {
            Addr::Unix(path) => Ok(Listener::Unix(UnixListener::bind(path)?, path.clone())),
            Addr::Tcp(hostport) => Ok(Listener::Tcp(TcpListener::bind(hostport.as_str())?)),
        }
    }

    /// The address peers should connect to (ephemeral TCP ports resolved).
    pub(crate) fn local_addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Unix(_, path) => Ok(Addr::Unix(path.clone())),
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
        }
    }

    /// Blocks until a peer connects (or returns `WouldBlock` when the
    /// listener is nonblocking and no connection is queued).
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }

    /// Switches the listener between blocking and nonblocking accepts
    /// (the progress engine polls it through epoll).
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// The raw fd, for registration with a poller.
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l, _) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// A connected byte stream.
#[derive(Debug)]
pub(crate) enum Stream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream (Nagle disabled — frames are latency-sensitive).
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `addr`.
    pub(crate) fn connect(addr: &Addr) -> io::Result<Self> {
        match addr {
            Addr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            Addr::Tcp(hostport) => {
                let s = TcpStream::connect(hostport.as_str())?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }

    /// Connects to `addr`, retrying with exponential backoff (plus jitter)
    /// until `timeout` elapses. Used against endpoints that may not be up
    /// yet — the rendezvous of a freshly-spawned rank 0, a peer's data
    /// listener. The error returned at the deadline wraps the *last*
    /// connect failure, so "connection refused" vs "no such file" is not
    /// lost.
    ///
    /// Deadline handling is exact: every sleep is clamped to the budget
    /// still remaining (never past the deadline), a clamped final sleep
    /// buys one last attempt *at* the deadline, and a zero `timeout`
    /// degrades to exactly one attempt with no sleep at all.
    pub(crate) fn connect_retry(addr: &Addr, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(1);
        const BACKOFF_CAP: Duration = Duration::from_millis(100);
        let mut attempt: u64 = 0;
        loop {
            match Self::connect(addr) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    // `checked_duration_since` instead of `deadline - now`:
                    // the subtraction saturates to "budget exhausted"
                    // rather than going negative once the deadline passed
                    // mid-attempt.
                    let remaining = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|r| !r.is_zero());
                    let Some(remaining) = remaining else {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("{addr} unreachable after {timeout:?}, last error: {e}"),
                        ));
                    };
                    // Up to +50% jitter, derived from pid and attempt count
                    // so concurrently-spawned ranks don't reconnect in
                    // lockstep (no RNG dependency).
                    let salt = (u64::from(std::process::id()) ^ attempt)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        >> 33;
                    let step = backoff.as_micros() as u64;
                    let sleep = Duration::from_micros(step + salt % (step / 2 + 1));
                    std::thread::sleep(sleep.min(remaining));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                    attempt += 1;
                }
            }
        }
    }

    /// Bounds blocking reads: `Some(d)` makes a blocked `read` fail with
    /// `WouldBlock`/`TimedOut` after `d`, `None` restores indefinite
    /// blocking. A joiner's rendezvous handshake uses this so a severed
    /// monitor connection surfaces as a typed timeout, not a silent hang.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Switches the stream between blocking and nonblocking I/O.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// The raw fd, for registration with a poller.
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    /// Forwarded to the socket's real `writev` (the trait default would
    /// degrade to a single-slice write, defeating frame coalescing).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_string_roundtrip() {
        for s in ["unix:/tmp/x.sock", "tcp:127.0.0.1:8080"] {
            assert_eq!(Addr::parse(s).unwrap().to_string(), s);
        }
        assert!(Addr::parse("pigeon:coop").is_err());
    }

    #[test]
    fn connect_retry_never_sleeps_past_the_deadline() {
        let addr = Addr::Unix(
            std::env::temp_dir().join(format!("kamping-no-such-{}.sock", std::process::id())),
        );
        let timeout = Duration::from_millis(80);
        let start = Instant::now();
        let err = Stream::connect_retry(&addr, timeout).unwrap_err();
        let elapsed = start.elapsed();
        // The loop only gives up once the budget is spent...
        assert!(elapsed >= timeout, "gave up early after {elapsed:?}");
        // ...and the last sleep is clamped to the remaining budget, so the
        // overshoot is one connect attempt plus scheduler noise — far less
        // than the 1.5 ms minimum un-clamped backoff step would add on top
        // of an unluckily-timed wakeup. Generous bound for loaded CI.
        assert!(
            elapsed < timeout + Duration::from_millis(60),
            "overshot the deadline: {elapsed:?}"
        );
        assert!(err.to_string().contains("unreachable after"));
    }

    #[test]
    fn connect_retry_zero_timeout_still_attempts_once() {
        // Boundary case: a zero budget means "try once, never sleep".
        let sock =
            std::env::temp_dir().join(format!("kamping-zero-to-{}.sock", std::process::id()));
        let addr = Addr::Unix(sock.clone());
        let start = Instant::now();
        assert!(Stream::connect_retry(&addr, Duration::ZERO).is_err());
        assert!(start.elapsed() < Duration::from_millis(50));

        // And the one attempt is real: a live listener succeeds even with
        // a zero budget.
        let _l = Listener::bind(&addr).unwrap();
        assert!(Stream::connect_retry(&addr, Duration::ZERO).is_ok());
        let _ = std::fs::remove_file(&sock);
    }

    #[test]
    fn connect_retry_succeeds_when_listener_appears_mid_retry() {
        let sock = std::env::temp_dir().join(format!("kamping-late-{}.sock", std::process::id()));
        let addr = Addr::Unix(sock.clone());
        let addr2 = addr.clone();
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            Listener::bind(&addr2).unwrap()
        });
        let start = Instant::now();
        assert!(Stream::connect_retry(&addr, Duration::from_secs(10)).is_ok());
        assert!(start.elapsed() < Duration::from_secs(5), "retried too long");
        drop(binder.join().unwrap());
        let _ = std::fs::remove_file(&sock);
    }

    #[test]
    fn stream_exposes_pollable_fd_and_nonblocking_mode() {
        let l = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        assert!(l.raw_fd() >= 0);
        let c = Stream::connect(&l.local_addr().unwrap()).unwrap();
        let mut s = l.accept().unwrap();
        assert!(c.raw_fd() >= 0 && s.raw_fd() >= 0);
        s.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            s.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        drop(c);
    }

    #[test]
    fn tcp_listener_resolves_ephemeral_port() {
        let l = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = l.local_addr().unwrap();
        let Addr::Tcp(hp) = &addr else {
            panic!("tcp listener must report a tcp addr")
        };
        assert!(!hp.ends_with(":0"), "port must be resolved, got {hp}");
        // And the resolved address is connectable.
        let mut c = Stream::connect(&addr).unwrap();
        let mut s = l.accept().unwrap();
        c.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
    }
}
