//! Minimal Linux syscall surface for the event-driven net layer.
//!
//! The workspace vendors no external crates, so the handful of primitives
//! std does not expose — epoll, eventfd, `poll`, `mmap` and futexes — are
//! declared here as direct `extern "C"` bindings against the libc that the
//! Rust standard library already links. Every raw call is wrapped in a
//! small RAII type or free function with an `io::Result` interface;
//! nothing in this module knows about frames, rings or ranks.
//!
//! Scope is deliberately tiny: exactly what [`super::progress`] (epoll +
//! eventfd), [`super::ring`] (mmap + futex) and the rendezvous monitor
//! (`poll`) need, and nothing else.

use std::ffi::{c_int, c_long, c_uint, c_void};
use std::fs::File;
use std::io;
use std::mem::MaybeUninit;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::AtomicU32;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Raw bindings
// ---------------------------------------------------------------------------

/// One epoll readiness record. x86-64 packs this struct (kernel ABI quirk);
/// other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    token: u64,
}

impl EpollEvent {
    /// An empty record for `epoll_wait` output buffers.
    pub(crate) fn zeroed() -> Self {
        Self {
            events: 0,
            token: 0,
        }
    }

    /// Ready-event mask ([`EPOLLIN`] / [`EPOLLOUT`] / [`EPOLLERR`] / [`EPOLLHUP`]).
    pub(crate) fn events(&self) -> u32 {
        // By-value copy: fields of a packed struct must not be referenced.

        self.events
    }

    /// The token the fd was registered with.
    pub(crate) fn token(&self) -> u64 {
        self.token
    }
}

/// `struct pollfd` for the rendezvous monitor's `poll` loop.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    pub(crate) fd: c_int,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;

/// Readable (also: peer hung up a readable stream).
pub(crate) const EPOLLIN: u32 = 0x1;
/// Writable without blocking.
pub(crate) const EPOLLOUT: u32 = 0x4;
/// Error condition on the fd.
pub(crate) const EPOLLERR: u32 = 0x8;
/// Peer hang-up.
pub(crate) const EPOLLHUP: u32 = 0x10;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_SHARED: c_int = 1;

#[cfg(target_arch = "x86_64")]
const SYS_FUTEX: c_long = 202;
#[cfg(not(target_arch = "x86_64"))]
const SYS_FUTEX: c_long = 98;

// The *shared* (non-PRIVATE) futex ops: waiters and wakers may live in
// different processes mapping the same file.
const FUTEX_WAIT: c_int = 0;
const FUTEX_WAKE: c_int = 1;

/// `POLLIN` for [`PollFd::events`].
pub(crate) const POLLIN: i16 = 0x1;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------------
// Epoll
// ---------------------------------------------------------------------------

/// An epoll instance. `epoll_ctl` is kernel-thread-safe, so registration
/// may happen from any thread while another is parked in [`Epoll::wait`].
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Starts watching `fd` under `token` for the given interests.
    pub(crate) fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest(read, write), token)
    }

    /// Replaces `fd`'s interest set.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest(read, write), token)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// expires (`None` waits forever). A signal interruption reports as
    /// zero ready events rather than an error.
    pub(crate) fn wait(
        &self,
        events: &mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let ms: c_int = match timeout {
            None => -1,
            // Round up so the caller's deadline has truly passed when a
            // timeout-wakeup fires.
            Some(d) => (d.as_millis() as i64 + i64::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as i64) as c_int,
        };
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

fn interest(read: bool, write: bool) -> u32 {
    let mut ev = 0;
    if read {
        ev |= EPOLLIN;
    }
    if write {
        ev |= EPOLLOUT;
    }
    ev
}

// ---------------------------------------------------------------------------
// EventFd
// ---------------------------------------------------------------------------

/// A nonblocking eventfd used as a cross-thread wakeup doorbell for an
/// epoll loop.
pub(crate) struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub(crate) fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The fd to register with an [`Epoll`].
    pub(crate) fn raw(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Makes the fd readable (wakes the poller). Saturation of the
    /// counter (`EAGAIN`) already implies a pending wakeup, so it is not
    /// an error.
    pub(crate) fn ring(&self) {
        let one: u64 = 1;
        unsafe {
            write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast::<c_void>(),
                8,
            )
        };
    }

    /// Clears the counter so the fd stops reading as ready.
    pub(crate) fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            read(
                self.fd.as_raw_fd(),
                (&mut buf as *mut u64).cast::<c_void>(),
                8,
            )
        };
    }
}

/// `read(2)` into possibly uninitialised memory: `Ok(n)` wrote the first
/// `n` bytes of `dst` (0 at end of stream).
pub(crate) fn read_fd(fd: RawFd, dst: &mut [MaybeUninit<u8>]) -> io::Result<usize> {
    // SAFETY: the kernel writes at most `dst.len()` bytes into `dst`.
    let n = unsafe { read(fd, dst.as_mut_ptr().cast::<c_void>(), dst.len()) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

// ---------------------------------------------------------------------------
// Shared mappings + futexes
// ---------------------------------------------------------------------------

/// A `MAP_SHARED` read-write mapping of a file, unmapped on drop. The
/// backing file may be closed once mapped; the mapping (and the pages any
/// other process sees through its own mapping) stays alive.
pub(crate) struct SharedMap {
    ptr: *mut u8,
    len: usize,
}

// The mapping is plain memory; all concurrent access goes through the
// atomics the callers place in it.
unsafe impl Send for SharedMap {}
unsafe impl Sync for SharedMap {}

impl SharedMap {
    /// Maps `len` bytes of `file` shared read-write.
    pub(crate) fn map(file: &File, len: usize) -> io::Result<Self> {
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr.cast(),
            len,
        })
    }

    /// A shared atomic word at byte offset `off` (must be 4-aligned and in
    /// bounds — both are layout invariants of the callers, asserted here).
    pub(crate) fn atomic_u32(&self, off: usize) -> &AtomicU32 {
        assert!(
            off.is_multiple_of(4) && off + 4 <= self.len,
            "misplaced ring word"
        );
        unsafe { &*self.ptr.add(off).cast::<AtomicU32>() }
    }

    /// Copies `src` into the mapping at `off`.
    ///
    /// # Safety
    /// The caller must guarantee exclusive write ownership of
    /// `[off, off + src.len())` under the ring protocol.
    pub(crate) unsafe fn write_bytes_at(&self, off: usize, src: &[u8]) {
        debug_assert!(off + src.len() <= self.len);
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(off), src.len());
    }

    /// Copies `dst.len()` bytes at `off` from the mapping into `dst`, all
    /// of which are written.
    ///
    /// # Safety
    /// The caller must guarantee the range is owned (published by the
    /// producer, not yet released by the consumer).
    pub(crate) unsafe fn read_bytes_at(&self, off: usize, dst: &mut [MaybeUninit<u8>]) {
        debug_assert!(off + dst.len() <= self.len);
        std::ptr::copy_nonoverlapping(self.ptr.add(off), dst.as_mut_ptr().cast(), dst.len());
    }
}

impl Drop for SharedMap {
    fn drop(&mut self) {
        unsafe { munmap(self.ptr.cast(), self.len) };
    }
}

/// Blocks until `word` is woken or no longer holds `expected` (the kernel
/// re-checks under its internal lock, which is what makes sleep/wake-free
/// handoffs race-free). Spurious returns are fine — all callers loop.
pub(crate) fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) {
    let ts;
    let ts_ptr: *const Timespec = match timeout {
        None => std::ptr::null(),
        Some(d) => {
            ts = Timespec {
                tv_sec: d.as_secs() as i64,
                tv_nsec: i64::from(d.subsec_nanos()),
            };
            &ts
        }
    };
    unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            FUTEX_WAIT,
            expected as c_uint,
            ts_ptr,
            std::ptr::null::<c_void>(),
            0 as c_uint,
        );
    }
    // EAGAIN (value changed), EINTR and ETIMEDOUT are all just "go
    // re-check" to our callers.
}

/// Wakes up to `n` waiters parked on `word`.
pub(crate) fn futex_wake(word: &AtomicU32, n: u32) {
    unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            FUTEX_WAKE,
            n as c_uint,
            std::ptr::null::<c_void>(),
            std::ptr::null::<c_void>(),
            0 as c_uint,
        );
    }
}

/// `poll(2)` over `fds`; signal interruptions report as zero ready fds.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms: c_int = match timeout {
        None => -1,
        Some(d) => (d.as_millis() as i64).min(i32::MAX as i64) as c_int,
    };
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), 42, true, false).unwrap();
        let mut out = [EpollEvent::zeroed(); 4];

        // Nothing rung: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut out, Some(Duration::ZERO)).unwrap(), 0);

        ev.ring();
        let n = ep.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(out[0].token(), 42);
        assert!(out[0].events() & EPOLLIN != 0);

        // Drained, the fd stops reading as ready.
        ev.drain();
        assert_eq!(ep.wait(&mut out, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn epoll_interest_can_be_modified() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ev.ring();
        ep.add(ev.raw(), 7, false, false).unwrap();
        let mut out = [EpollEvent::zeroed(); 4];
        // No read interest: the pending counter is invisible.
        assert_eq!(ep.wait(&mut out, Some(Duration::ZERO)).unwrap(), 0);
        ep.modify(ev.raw(), 7, true, false).unwrap();
        assert_eq!(ep.wait(&mut out, Some(Duration::ZERO)).unwrap(), 1);
        // Withdrawing read interest hides the pending counter again.
        ep.modify(ev.raw(), 7, false, false).unwrap();
        assert_eq!(ep.wait(&mut out, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn futex_wake_releases_waiter() {
        let word = Arc::new(AtomicU32::new(0));
        let w = Arc::clone(&word);
        let t = std::thread::spawn(move || {
            while w.load(Ordering::Acquire) == 0 {
                futex_wait(&w, 0, Some(Duration::from_millis(100)));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        word.store(1, Ordering::Release);
        futex_wake(&word, u32::MAX);
        t.join().unwrap();
    }

    #[test]
    fn futex_wait_returns_when_value_already_changed() {
        // The kernel's compare makes a stale-expected wait return
        // immediately — the property the ring doorbell relies on.
        let word = AtomicU32::new(5);
        let start = std::time::Instant::now();
        futex_wait(&word, 4, Some(Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn shared_map_is_coherent_across_two_mappings() {
        let path = std::env::temp_dir().join(format!("kamping-sysmap-{}", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        file.set_len(4096).unwrap();
        let a = SharedMap::map(&file, 4096).unwrap();
        let b = SharedMap::map(&file, 4096).unwrap();
        a.atomic_u32(64).store(0xfeed, Ordering::Release);
        assert_eq!(b.atomic_u32(64).load(Ordering::Acquire), 0xfeed);
        unsafe {
            a.write_bytes_at(128, b"ring bytes");
            let mut out: Vec<u8> = Vec::with_capacity(10);
            b.read_bytes_at(128, &mut out.spare_capacity_mut()[..10]);
            out.set_len(10);
            assert_eq!(out, b"ring bytes");
        }
        drop(a);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }
}
