//! mmap'd lock-free SPSC byte rings for the `shm-xproc` backend.
//!
//! Every rank in the co-located set owns one *inbox file* in
//! `KAMPING_SHM_DIR`, `inbox-<rank>.ring`, mapped `MAP_SHARED` by itself
//! (consumer side) and by every local peer (producer side). The file holds
//! one SPSC byte ring *per source rank*, so each (source → dest) channel
//! has exactly one producer (the source process, serialized by a mutex in
//! the transport since the chaos delivery thread can also post) and one
//! consumer (the dest's ring-consumer thread) — no cross-process locks,
//! ever.
//!
//! # Layout
//!
//! ```text
//! inbox-<d>.ring:
//!   [0..128)   inbox header: doorbell u32, consumer-sleep u32
//!   for each source s in 0..ranks:
//!     at 128 + s * (192 + cap):
//!       [0..64)     head u32    (consumer cursor; consumer writes)
//!       [64..128)   tail u32    (producer cursor; producer writes)
//!       [128..192)  prod-sleep u32 (producer parked waiting for space)
//!       [192..192+cap) data    (cap is a power of two)
//! ```
//!
//! `head`/`tail` are free-running `u32` counters (wrapping arithmetic;
//! `used = tail - head`, offsets are `counter & (cap - 1)`), each on its
//! own cache line so the two sides never false-share. The payload is a raw
//! byte stream of length-prefixed [`super::wire::Frame`]s — the *same*
//! frame format as the socket wire, so a frame larger than the ring simply
//! streams through it in chunks, which the consumer moves straight to the
//! payload's destination (`super::wire::FrameReader`).
//!
//! # Futex protocol
//!
//! The hot path is syscall-free in both directions. Wakeups are classic
//! sleep/wake with a Dekker-style flag, all `SeqCst`:
//!
//! * **doorbell** (producer wakes consumer): after publishing bytes
//!   (`tail` store, `Release`) the producer bumps the inbox doorbell and
//!   issues `futex_wake` only if the consumer-sleep flag is set. The
//!   consumer snapshots the doorbell *before* draining, sets the sleep
//!   flag, re-checks the doorbell, and only then `futex_wait`s on it —
//!   the total order makes a lost wakeup impossible, and the kernel's
//!   compare catches the remaining window.
//! * **space** (consumer wakes producer): a producer facing a full ring
//!   sets the per-ring prod-sleep flag, re-reads `head`, and `futex_wait`s
//!   on the head word; the consumer wakes it after advancing `head` if the
//!   flag was set. Producer waits are sliced (`SPACE_WAIT_SLICE`) so an
//!   abort predicate (peer failed, shutdown) is re-checked even if the
//!   consumer is gone for good.
//!
//! All futex ops are the *shared* (non-`PRIVATE`) variants: waiter and
//! waker live in different processes mapping the same inode.

use std::fs::{File, OpenOptions};
use std::io;
use std::mem::MaybeUninit;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use super::sys::{futex_wait, futex_wake, SharedMap};

/// Inbox header size (doorbell + consumer-sleep word, padded out).
const INBOX_HDR: usize = 128;
/// Per-ring header size (head / tail / prod-sleep, one cache line each).
const RING_HDR: usize = 192;

const DOORBELL: usize = 0;
const CONSUMER_SLEEP: usize = 4;
const HEAD: usize = 0;
const TAIL: usize = 64;
const PROD_SLEEP: usize = 128;

/// Default per-channel ring capacity (bytes); `KAMPING_RING_KB` overrides.
pub const DEFAULT_RING_BYTES: usize = 256 * 1024;

/// How long a producer sleeps per slice while the ring is full, so the
/// abort predicate (dest failed / shutdown) is polled even if the consumer
/// never frees space again.
const SPACE_WAIT_SLICE: Duration = Duration::from_millis(50);

/// Path of rank `rank`'s inbox file under `dir`.
pub(crate) fn inbox_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("inbox-{rank}.ring"))
}

/// Total inbox file size for `ranks` sources at `cap` bytes per ring.
pub(crate) fn file_len(ranks: usize, cap: usize) -> usize {
    INBOX_HDR + ranks * (RING_HDR + cap)
}

fn ring_base(src: usize, cap: usize) -> usize {
    INBOX_HDR + src * (RING_HDR + cap)
}

fn check_cap(cap: usize) -> io::Result<usize> {
    if !cap.is_power_of_two() || !(4096..=(1 << 30)).contains(&cap) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("ring capacity must be a power of two in [4 KiB, 1 GiB], got {cap}"),
        ));
    }
    Ok(cap)
}

fn map_inbox(file: &File, ranks: usize, cap: usize) -> io::Result<SharedMap> {
    let want = file_len(ranks, cap) as u64;
    let have = file.metadata()?.len();
    if have != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("inbox file is {have} bytes, expected {want}: ranks/ring-size mismatch"),
        ));
    }
    SharedMap::map(file, want as usize)
}

/// The consumer side of one rank's inbox: all rings destined *to* this
/// rank. Created (file + mapping) by the owning rank before it joins the
/// rendezvous, so by the time any peer holds the address table the inbox
/// is guaranteed to exist.
pub struct Inbox {
    map: SharedMap,
    cap: usize,
}

impl Inbox {
    /// Creates (truncating any stale leftover) and maps rank `rank`'s
    /// inbox under `dir`.
    pub fn create(dir: &Path, rank: usize, ranks: usize, cap: usize) -> io::Result<Self> {
        let cap = check_cap(cap)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(inbox_path(dir, rank))?;
        file.set_len(file_len(ranks, cap) as u64)?;
        let map = map_inbox(&file, ranks, cap)?;
        Ok(Self { map, cap })
    }

    fn doorbell(&self) -> &AtomicU32 {
        self.map.atomic_u32(DOORBELL)
    }

    /// Current doorbell value; snapshot *before* draining, pass to
    /// [`Inbox::park`] after an empty drain.
    pub fn doorbell_value(&self) -> u32 {
        self.doorbell().load(Ordering::SeqCst)
    }

    /// Parks the consumer until the doorbell moves past `snapshot`, a
    /// producer wakes it, or `timeout` elapses. Spurious returns are fine;
    /// the caller loops around a drain anyway.
    pub fn park(&self, snapshot: u32, timeout: Duration) {
        let sleep = self.map.atomic_u32(CONSUMER_SLEEP);
        sleep.store(1, Ordering::SeqCst);
        if self.doorbell().load(Ordering::SeqCst) == snapshot {
            futex_wait(self.doorbell(), snapshot, Some(timeout));
        }
        sleep.store(0, Ordering::SeqCst);
    }

    /// Rings our own doorbell (shutdown path: unblocks a parked consumer
    /// thread of this same process).
    pub(crate) fn wake_self(&self) {
        self.doorbell().fetch_add(1, Ordering::SeqCst);
        futex_wake(self.doorbell(), u32::MAX);
    }

    /// Bytes currently readable in the ring from `src`.
    pub(crate) fn readable(&self, src: usize) -> usize {
        let base = ring_base(src, self.cap);
        let head = self.map.atomic_u32(base + HEAD).load(Ordering::Relaxed);
        let tail = self.map.atomic_u32(base + TAIL).load(Ordering::Acquire);
        tail.wrapping_sub(head) as usize
    }

    /// Drains up to `max` readable bytes from `src`'s ring into `out`;
    /// returns the number of bytes appended.
    pub fn recv_into(&self, src: usize, out: &mut Vec<u8>, max: usize) -> usize {
        let want = self.readable(src).min(max);
        out.reserve(want);
        let n = self.read(src, &mut out.spare_capacity_mut()[..want]);
        // SAFETY: `read` wrote the first `n` spare bytes.
        unsafe { out.set_len(out.len() + n) };
        n
    }

    /// Moves up to `dst.len()` readable bytes from `src`'s ring to the
    /// front of `dst`, releases the space, and wakes the producer if it is
    /// parked on it. Returns the number of bytes moved, all of them written.
    pub(crate) fn read(&self, src: usize, dst: &mut [MaybeUninit<u8>]) -> usize {
        let base = ring_base(src, self.cap);
        let head_word = self.map.atomic_u32(base + HEAD);
        let head = head_word.load(Ordering::Relaxed);
        let tail = self.map.atomic_u32(base + TAIL).load(Ordering::Acquire);
        let avail = (tail.wrapping_sub(head) as usize).min(dst.len());
        if avail == 0 {
            return 0;
        }
        let off = head as usize & (self.cap - 1);
        let first = avail.min(self.cap - off);
        let data = base + RING_HDR;
        // SAFETY: `[head, head + avail)` was published by the producer (the
        // `Acquire` load of `tail`) and is released only below.
        unsafe {
            self.map.read_bytes_at(data + off, &mut dst[..first]);
            self.map.read_bytes_at(data, &mut dst[first..avail]);
        }
        head_word.store(head.wrapping_add(avail as u32), Ordering::SeqCst);
        if self
            .map
            .atomic_u32(base + PROD_SLEEP)
            .load(Ordering::SeqCst)
            == 1
        {
            futex_wake(head_word, 1);
        }
        avail
    }
}

/// The producer side of one (source → dest) channel: source's ring inside
/// dest's inbox. `!Sync` on purpose is *not* asserted — the transport
/// serializes producers with a mutex (the main thread and the chaos
/// delivery thread can both post).
pub struct RingTx {
    map: SharedMap,
    base: usize,
    cap: usize,
}

impl RingTx {
    /// Opens rank `dest`'s existing inbox under `dir` and positions on the
    /// ring for source `src`.
    pub fn open(dir: &Path, dest: usize, src: usize, ranks: usize, cap: usize) -> io::Result<Self> {
        let cap = check_cap(cap)?;
        assert!(src < ranks && dest < ranks, "ring ranks out of range");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(inbox_path(dir, dest))?;
        let map = map_inbox(&file, ranks, cap)?;
        Ok(Self {
            map,
            base: ring_base(src, cap),
            cap,
        })
    }

    fn head(&self) -> &AtomicU32 {
        self.map.atomic_u32(self.base + HEAD)
    }

    fn tail(&self) -> &AtomicU32 {
        self.map.atomic_u32(self.base + TAIL)
    }

    fn ring_doorbell(&self) {
        self.map.atomic_u32(DOORBELL).fetch_add(1, Ordering::SeqCst);
        if self.map.atomic_u32(CONSUMER_SLEEP).load(Ordering::SeqCst) == 1 {
            futex_wake(self.map.atomic_u32(DOORBELL), 1);
        }
    }

    /// Writes `parts` (one logical frame, split to avoid intermediate
    /// copies: length prefix + header + payload) into the ring as a single
    /// FIFO unit, blocking — in abortable slices — while the ring is full.
    /// Chunks are published (and the doorbell rung) as space allows, so a
    /// frame larger than the ring streams through it.
    ///
    /// Returns `false` if `abort` fired before all bytes were accepted
    /// (the consumer may then observe a torn frame tail, but abort means
    /// the channel is dead: shutdown or a failed peer).
    ///
    /// Bytes currently in the ring (unconsumed). A producer-side sample;
    /// the consumer may drain concurrently, so this is a lower bound on
    /// the space the next write will find.
    pub(crate) fn occupancy(&self) -> usize {
        let head = self.head().load(Ordering::Acquire);
        let tail = self.tail().load(Ordering::Relaxed);
        tail.wrapping_sub(head) as usize
    }

    /// `wait_hint` is invoked around each futex sleep with the slice spent
    /// parked, for trace attribution.
    pub fn write(
        &self,
        parts: &[&[u8]],
        mut abort: impl FnMut() -> bool,
        mut wait_hint: impl FnMut(Duration),
    ) -> bool {
        let mut tail = self.tail().load(Ordering::Relaxed);
        for part in parts {
            let mut src = *part;
            while !src.is_empty() {
                let head = self.head().load(Ordering::Acquire);
                let space = self.cap - tail.wrapping_sub(head) as usize;
                if space == 0 {
                    if abort() {
                        return false;
                    }
                    let sleep = self.map.atomic_u32(self.base + PROD_SLEEP);
                    sleep.store(1, Ordering::SeqCst);
                    let seen = self.head().load(Ordering::SeqCst);
                    if tail.wrapping_sub(seen) as usize == self.cap {
                        let start = std::time::Instant::now();
                        futex_wait(self.head(), seen, Some(SPACE_WAIT_SLICE));
                        wait_hint(start.elapsed());
                    }
                    sleep.store(0, Ordering::SeqCst);
                    continue;
                }
                let n = space.min(src.len());
                let off = tail as usize & (self.cap - 1);
                let first = n.min(self.cap - off);
                let data = self.base + RING_HDR;
                unsafe {
                    self.map.write_bytes_at(data + off, &src[..first]);
                    if first < n {
                        self.map.write_bytes_at(data, &src[first..n]);
                    }
                }
                tail = tail.wrapping_add(n as u32);
                self.tail().store(tail, Ordering::Release);
                self.ring_doorbell();
                src = &src[n..];
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kamping-ring-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_abort() -> impl FnMut() -> bool {
        || false
    }

    #[test]
    fn bytes_roundtrip_through_two_mappings() {
        let dir = scratch_dir("rt");
        let inbox = Inbox::create(&dir, 1, 2, 4096).unwrap();
        let tx = RingTx::open(&dir, 1, 0, 2, 4096).unwrap();
        assert!(tx.write(&[b"hello ", b"ring"], no_abort(), |_| ()));
        assert_eq!(inbox.readable(0), 10);
        let mut out = Vec::new();
        assert_eq!(inbox.recv_into(0, &mut out, usize::MAX), 10);
        assert_eq!(out, b"hello ring");
        assert_eq!(inbox.readable(0), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_survives_many_wraps_and_oversized_frames() {
        let dir = scratch_dir("wrap");
        let cap = 4096;
        let inbox = Arc::new(Inbox::create(&dir, 0, 1, cap).unwrap());
        let tx = RingTx::open(&dir, 0, 0, 1, cap).unwrap();

        // 1 MiB of a position-dependent pattern, written in chunks both
        // smaller and larger than the ring.
        let total: usize = 1 << 20;
        let pattern = |i: usize| (i as u8) ^ ((i >> 8) as u8).wrapping_mul(31);
        let consumer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(total);
                while got.len() < total {
                    if inbox.recv_into(0, &mut got, usize::MAX) == 0 {
                        let snap = inbox.doorbell_value();
                        if inbox.readable(0) == 0 {
                            inbox.park(snap, Duration::from_millis(50));
                        }
                    }
                }
                got
            })
        };
        let mut sent = 0;
        let mut chunk = 7;
        while sent < total {
            let n = chunk.min(total - sent);
            let bytes: Vec<u8> = (sent..sent + n).map(pattern).collect();
            assert!(tx.write(&[&bytes], no_abort(), |_| ()));
            sent += n;
            // 7 B … 48 KiB: exercises sub-ring chunks, exact fits and
            // frames 12x the capacity.
            chunk = (chunk * 3 + 1).min(48 * 1024);
        }
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), total);
        for (i, b) in got.iter().enumerate() {
            assert_eq!(*b, pattern(i), "corruption at byte {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_ring_write_aborts_without_a_consumer() {
        let dir = scratch_dir("abort");
        let _inbox = Inbox::create(&dir, 0, 1, 4096).unwrap();
        let tx = RingTx::open(&dir, 0, 0, 1, 4096).unwrap();
        let big = vec![0u8; 10 * 4096];
        let mut polls = 0;
        let ok = tx.write(
            &[&big],
            move || {
                polls += 1;
                polls > 2
            },
            |_| (),
        );
        assert!(!ok, "write into a dead ring must abort");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parked_consumer_is_woken_by_a_write() {
        let dir = scratch_dir("wake");
        let inbox = Arc::new(Inbox::create(&dir, 0, 1, 4096).unwrap());
        let consumer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    let snap = inbox.doorbell_value();
                    if inbox.recv_into(0, &mut out, usize::MAX) > 0 {
                        return out;
                    }
                    // Long slice: the test passing fast proves the wakeup,
                    // not the timeout.
                    inbox.park(snap, Duration::from_secs(5));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        let tx = RingTx::open(&dir, 0, 0, 1, 4096).unwrap();
        let start = std::time::Instant::now();
        assert!(tx.write(&[b"wake"], no_abort(), |_| ()));
        assert_eq!(consumer.join().unwrap(), b"wake");
        assert!(start.elapsed() < Duration::from_secs(2), "futex wake lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parked_producer_is_woken_by_consumption() {
        let dir = scratch_dir("space");
        let cap = 4096;
        let inbox = Arc::new(Inbox::create(&dir, 0, 1, cap).unwrap());
        let tx = RingTx::open(&dir, 0, 0, 1, cap).unwrap();
        // Fill the ring exactly.
        assert!(tx.write(&[&vec![1u8; cap]], no_abort(), |_| ()));
        let producer = std::thread::spawn(move || {
            // Blocks until the consumer frees space.
            assert!(tx.write(&[b"tail"], no_abort(), |_| ()));
        });
        std::thread::sleep(Duration::from_millis(30));
        let mut out = Vec::new();
        assert_eq!(inbox.recv_into(0, &mut out, usize::MAX), cap);
        producer.join().unwrap();
        out.clear();
        while out.len() < 4 {
            inbox.recv_into(0, &mut out, usize::MAX);
        }
        assert_eq!(out, b"tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let dir = scratch_dir("geom");
        let _inbox = Inbox::create(&dir, 0, 2, 4096).unwrap();
        // Wrong rank count and wrong capacity both change the file length.
        assert!(RingTx::open(&dir, 0, 1, 3, 4096).is_err());
        assert!(RingTx::open(&dir, 0, 1, 2, 8192).is_err());
        assert!(RingTx::open(&dir, 0, 1, 2, 4096).is_ok());
        // Non-power-of-two capacity is refused outright.
        assert!(Inbox::create(&dir, 1, 2, 5000).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
