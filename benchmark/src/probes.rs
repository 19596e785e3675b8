//! Layer probes: each module of the library driven on its own, through
//! its public functions, for the per-layer metrics.
//!
//! A traced run reports every layer metric, so every traced run ends with
//! this suite. Each probe is a short closed loop over one public call (or
//! one exact count), sized by the run's `--seconds`. Timings are medians
//! over rounds; counts come from `ProfileSnapshot` and repeat exactly.
//! None of this runs during a timed pass.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kamping::prelude::*;
use kamping::types::{bytes_to_pods, pod_as_bytes};
use kamping_mpi::net::ring::{Inbox, RingTx, DEFAULT_RING_BYTES};
use kamping_mpi::net::wire::Frame;
use kamping_mpi::net::{launch, Backend, LaunchSpec};
use kamping_mpi::trace::TraceCtx;
use kamping_mpi::transport::{Envelope, Hub, Mailbox, MatchKey, Payload};
use kamping_mpi::{OwnedByteOp, RawComm, Universe, ANY_SOURCE, ANY_TAG};

use crate::err;
use crate::passes::extras_probe;
use crate::procfs;
use crate::stats::median;
use crate::workloads::bfs::BfsFig10;
use crate::workloads::sort::SortFig8;

type Found = Vec<(String, f64)>;

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;
/// Timed loops in the suite; a traced run's probe budget is split evenly.
const SLOTS: f64 = 40.0;

/// Median ns per call of `f`, over batches of `batch` calls repeated for
/// `budget` (at least 5 batches).
fn time_ns(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Repeats `round` on every rank of `raw`'s communicator until rank 0 has
/// spent `budget` (at least 5 rounds); returns this rank's samples.
fn rounds(
    raw: &RawComm,
    budget: Duration,
    mut round: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        samples.push(round()?);
        let mut stop = vec![(samples.len() >= 5 && start.elapsed() >= budget) as u8];
        raw.bcast(&mut stop, 0).map_err(err("bcast"))?;
        if stop[0] == 1 {
            return Ok(samples);
        }
    }
}

fn sum_op() -> impl Fn(&mut [u8], &[u8]) + Send + Sync + Copy {
    |acc: &mut [u8], x: &[u8]| {
        for (a, b) in acc.chunks_exact_mut(8).zip(x.chunks_exact(8)) {
            let s = u64::from_le_bytes(a.try_into().expect("8 bytes"))
                .wrapping_add(u64::from_le_bytes(b.try_into().expect("8 bytes")));
            a.copy_from_slice(&s.to_le_bytes());
        }
    }
}

/// Runs `body` on `p` in-process ranks and returns rank 0's findings.
fn on_ranks(
    p: usize,
    body: impl Fn(&Communicator) -> Result<Found, String> + Sync,
) -> Result<Found, String> {
    kamping::run(p, |comm| {
        // One rank per core, as in the passes (ranks beyond the core count
        // share, which the p = 4 probes say in their notes).
        procfs::pin_to_cpu(comm.rank());
        body(&comm)
    })
    .swap_remove(0)
}

// ---------------------------------------------------------------- core

/// `core.typed_call_self_ns`: a rank sends itself 8 bytes and receives
/// them, so nothing waits and the typed-minus-plain difference is the
/// binding layer's own code.
fn core_p2p(unit: Duration) -> Result<Found, String> {
    on_ranks(1, |comm| {
        let raw = comm.raw();
        let word = [7u64];
        let mut typed = Vec::new();
        let mut plain = Vec::new();
        let start = Instant::now();
        while typed.len() < 5 || start.elapsed() < unit {
            let t = Instant::now();
            for _ in 0..64 {
                comm.send(send_buf(&word), destination(0))
                    .tag(1)
                    .call()
                    .map_err(err("typed send"))?;
                let (got, _) = comm
                    .recv::<u64>(source(0))
                    .tag(1)
                    .recv_count(1)
                    .call()
                    .map_err(err("typed recv"))?;
                std::hint::black_box(got);
            }
            typed.push(t.elapsed().as_nanos() as f64 / 64.0);
            let t = Instant::now();
            for _ in 0..64 {
                raw.send(0, 1, pod_as_bytes(&word)).map_err(err("send"))?;
                let (bytes, _) = raw.recv(0, 1).map_err(err("recv"))?;
                let got: Vec<u64> = bytes_to_pods(&bytes).map_err(err("decode"))?;
                std::hint::black_box(got);
            }
            plain.push(t.elapsed().as_nanos() as f64 / 64.0);
        }
        Ok(vec![(
            "core.typed_call_self_ns".into(),
            median(&typed) - median(&plain),
        )])
    })
}

/// `core.alltoallv_self_us`: typed alltoallv with every count named
/// against the plain call plus decode.
fn core_alltoallv(unit: Duration) -> Result<Found, String> {
    on_ranks(2, |comm| {
        let raw = comm.raw();
        let p = comm.size();
        let data = vec![comm.rank() as u64; 4 * p];
        let counts = vec![4usize; p];
        let byte_counts = vec![32usize; p];
        let byte_displs: Vec<usize> = (0..p).map(|i| 32 * i).collect();
        const CALLS: usize = 100;
        let diffs = rounds(raw, unit, || {
            let t = Instant::now();
            for _ in 0..CALLS {
                let out = comm
                    .alltoallv(send_buf(&data), send_counts(&counts))
                    .recv_counts(&counts)
                    .call()
                    .map_err(err("typed alltoallv"))?
                    .into_recv_buf();
                std::hint::black_box(out);
            }
            let typed = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..CALLS {
                let bytes = raw
                    .alltoallv(
                        pod_as_bytes(&data),
                        &byte_counts,
                        &byte_displs,
                        &byte_counts,
                        &byte_displs,
                    )
                    .map_err(err("plain alltoallv"))?;
                let out: Vec<u64> = bytes_to_pods(&bytes).map_err(err("decode"))?;
                std::hint::black_box(out);
            }
            let plain = t.elapsed().as_secs_f64();
            Ok((typed - plain) * 1e6 / CALLS as f64)
        })?;
        Ok(vec![("core.alltoallv_self_us".into(), median(&diffs))])
    })
}

fn core_and_serial_copies(unit: Duration) -> Found {
    let bytes = vec![0x5au8; MIB];
    let decode = time_ns(unit, 4, || {
        let v: Vec<u64> = bytes_to_pods(&bytes).expect("aligned length");
        std::hint::black_box(v);
    });
    let words = vec![0x1234_5678_9abc_def0u64; 128 * KIB / 8];
    let archived = kamping_serial::to_bytes(&words);
    let enc = time_ns(unit, 16, || {
        std::hint::black_box(kamping_serial::to_bytes(&words));
    });
    let dec = time_ns(unit, 16, || {
        let v: Vec<u64> = kamping_serial::from_bytes(&archived).expect("own archive");
        std::hint::black_box(v);
    });
    vec![
        ("core.bytes_to_vec_ns_per_kib".into(), decode / 1024.0),
        ("serial.encode_ns_per_kib".into(), enc / 128.0),
        ("serial.decode_ns_per_kib".into(), dec / 128.0),
    ]
}

// ------------------------------------------------------------- mpi.p2p

fn mpi_p2p(unit: Duration) -> Result<Found, String> {
    on_ranks(2, |comm| {
        let raw = comm.raw();
        let me = raw.rank();
        const BURST: usize = 64;
        let send_call = rounds(raw, unit, || {
            let mut ns = 0.0;
            if me == 0 {
                let t = Instant::now();
                for _ in 0..BURST {
                    raw.send(1, 5, &[1u8; 8]).map_err(err("send"))?;
                }
                ns = t.elapsed().as_nanos() as f64 / BURST as f64;
                raw.recv(1, 6).map_err(err("recv"))?;
            } else {
                for _ in 0..BURST {
                    raw.recv(0, 5).map_err(err("recv"))?;
                }
                raw.send(0, 6, &[]).map_err(err("send"))?;
            }
            Ok(ns)
        })?;
        const PINGS: usize = 200;
        let recv_wait = rounds(raw, unit, || {
            let mut inside = Duration::ZERO;
            for _ in 0..PINGS {
                if me == 0 {
                    raw.send(1, 7, &[1u8; 8]).map_err(err("send"))?;
                    let t = Instant::now();
                    raw.recv(1, 8).map_err(err("recv"))?;
                    inside += t.elapsed();
                } else {
                    raw.recv(0, 7).map_err(err("recv"))?;
                    raw.send(0, 8, &[1u8; 8]).map_err(err("send"))?;
                }
            }
            Ok(inside.as_nanos() as f64 / PINGS as f64)
        })?;
        const PROBES: usize = 200;
        let probe = rounds(raw, unit, || {
            let mut ns = 0.0;
            if me == 0 {
                // One queued message for the peer to probe, then its ack.
                raw.send(1, 9, &[1u8; 64]).map_err(err("send"))?;
                raw.recv(1, 10).map_err(err("recv"))?;
                // Rank 0's sample is rank 1's; fetch it below.
                let (b, _) = raw.recv(1, 11).map_err(err("recv"))?;
                ns = f64::from_le_bytes(b.as_slice().try_into().map_err(|_| "bad sample")?);
            } else {
                raw.probe(ANY_SOURCE, ANY_TAG).map_err(err("probe"))?;
                let t = Instant::now();
                for _ in 0..PROBES {
                    std::hint::black_box(raw.probe(ANY_SOURCE, ANY_TAG).map_err(err("probe"))?);
                }
                let per = t.elapsed().as_nanos() as f64 / PROBES as f64;
                raw.recv(0, 9).map_err(err("recv"))?;
                raw.send(0, 10, &[]).map_err(err("send"))?;
                raw.send(0, 11, &per.to_le_bytes()).map_err(err("send"))?;
            }
            Ok(ns)
        })?;
        Ok(vec![
            ("mpi.p2p.send_call_ns".into(), median(&send_call)),
            ("mpi.p2p.recv_wait_ns".into(), median(&recv_wait)),
            ("mpi.p2p.probe_ns".into(), median(&probe)),
        ])
    })
}

// ------------------------------------------------------- mpi.transport

fn envelope(tag: u32, payload: &[u8]) -> Envelope {
    Envelope {
        src: 1,
        tag,
        ctx: 0,
        payload: Payload::from_slice(payload),
        ack: None,
    }
}

fn mpi_transport(unit: Duration) -> Found {
    let mailbox = || Mailbox::new(0, 2, Arc::new(Hub::new()), TraceCtx::disabled(2));
    let exact = |tag| MatchKey {
        src: 1,
        tag,
        ctx: 0,
    };
    let wild = MatchKey {
        src: ANY_SOURCE,
        tag: ANY_TAG,
        ctx: 0,
    };

    let mb = mailbox();
    let depth1 = time_ns(unit, 256, || {
        mb.post(envelope(3, &[0; 8]));
        std::hint::black_box(mb.try_take(exact(3)));
    });
    const DEPTH: u32 = 256;
    let deep_exact = time_ns(unit, 1, || {
        for tag in 0..DEPTH {
            mb.post(envelope(tag, &[0; 64]));
        }
        for tag in (0..DEPTH).rev() {
            std::hint::black_box(mb.try_take(exact(tag)));
        }
    }) / DEPTH as f64;
    let deep_wild = time_ns(unit, 1, || {
        for tag in 0..DEPTH {
            mb.post(envelope(tag, &[0; 64]));
        }
        for _ in 0..DEPTH {
            std::hint::black_box(mb.try_take(wild));
        }
    }) / DEPTH as f64;

    // Park / wake across cores: consumer and producer each bind to a
    // core of their own, and the consumer is parked in take_blocking by
    // the time the producer posts (it waited far longer than the
    // mailbox's yield burst).
    let mb = mailbox();
    let epoch = Instant::now();
    let posted_ns = AtomicU64::new(0);
    const WAKES: usize = 40;
    let wakes = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            procfs::pin_to_cpu(1);
            let mut wakes = Vec::with_capacity(WAKES);
            for _ in 0..WAKES {
                let taken = mb.take_blocking(exact(4), &|| None);
                let now = epoch.elapsed().as_nanos() as u64;
                if taken.is_ok() {
                    wakes.push((now - posted_ns.load(Ordering::SeqCst)) as f64 / 1e3);
                }
            }
            wakes
        });
        s.spawn(|| {
            procfs::pin_to_cpu(0);
            for _ in 0..WAKES {
                std::thread::sleep(Duration::from_micros(400));
                posted_ns.store(epoch.elapsed().as_nanos() as u64, Ordering::SeqCst);
                mb.post(envelope(4, &[0; 8]));
                // The next timestamp must not overwrite this one before
                // the consumer has read it.
                while !mb.is_empty() {
                    std::thread::yield_now();
                }
            }
        });
        consumer.join().unwrap_or_default()
    });

    let buf = vec![0xa5u8; 64 * KIB];
    let copy = time_ns(unit, 16, || {
        std::hint::black_box(Payload::from_slice(&buf).into_vec());
    });
    let inline = (1..=64usize)
        .filter(|&n| Payload::from_slice(&buf[..n]).is_inline())
        .count();
    vec![
        ("mpi.transport.post_take_ns_depth1".into(), depth1),
        ("mpi.transport.park_wake_us".into(), median(&wakes)),
        ("mpi.transport.post_take_ns_depth256".into(), deep_exact),
        ("mpi.transport.wild_take_ns_depth256".into(), deep_wild),
        ("mpi.transport.payload_copy_ns_per_kib".into(), copy / 64.0),
        (
            "mpi.transport.payload_inline_share".into(),
            inline as f64 / 64.0,
        ),
    ]
}

// ------------------------------------------------- mpi.coll / icoll / hier

fn mpi_coll_timed(unit: Duration) -> Result<Found, String> {
    on_ranks(2, |comm| {
        let raw = comm.raw();
        let p = raw.size();
        let op = sum_op();
        const CALLS: usize = 200;
        let allreduce = rounds(raw, unit, || {
            let t = Instant::now();
            for _ in 0..CALLS {
                let mut buf = 1u64.to_le_bytes().to_vec();
                raw.allreduce(&mut buf, &op, 8).map_err(err("allreduce"))?;
                std::hint::black_box(buf);
            }
            Ok(t.elapsed().as_secs_f64() * 1e6 / CALLS as f64)
        })?;
        let small = vec![3u8; 32 * p];
        let small_counts = vec![32usize; p];
        let small_displs: Vec<usize> = (0..p).map(|i| 32 * i).collect();
        let alltoallv = rounds(raw, unit, || {
            let t = Instant::now();
            for _ in 0..CALLS {
                let out = raw
                    .alltoallv(
                        &small,
                        &small_counts,
                        &small_displs,
                        &small_counts,
                        &small_displs,
                    )
                    .map_err(err("alltoallv"))?;
                std::hint::black_box(out);
            }
            Ok(t.elapsed().as_secs_f64() * 1e6 / CALLS as f64)
        })?;
        let barrier = rounds(raw, unit, || {
            let t = Instant::now();
            for _ in 0..CALLS {
                raw.barrier().map_err(err("barrier"))?;
            }
            Ok(t.elapsed().as_secs_f64() * 1e6 / CALLS as f64)
        })?;
        let big = vec![9u8; MIB * p];
        let big_counts = vec![MIB; p];
        let big_displs: Vec<usize> = (0..p).map(|i| MIB * i).collect();
        let bandwidth = rounds(raw, unit, || {
            let t = Instant::now();
            for _ in 0..4 {
                let out = raw
                    .alltoallv(&big, &big_counts, &big_displs, &big_counts, &big_displs)
                    .map_err(err("alltoallv"))?;
                std::hint::black_box(out);
            }
            Ok((4 * p * p) as f64 / t.elapsed().as_secs_f64())
        })?;

        // Nonblocking twins, interleaved with the blocking call.
        let owned: OwnedByteOp = Arc::new(sum_op());
        let issue = rounds(raw, unit, || {
            let mut inside = Duration::ZERO;
            for _ in 0..CALLS {
                let t = Instant::now();
                let mut req = raw
                    .iallreduce(1u64.to_le_bytes().to_vec(), Arc::clone(&owned), 8)
                    .map_err(err("iallreduce"))?;
                inside += t.elapsed();
                std::hint::black_box(req.wait().map_err(err("wait"))?);
            }
            Ok(inside.as_nanos() as f64 / CALLS as f64)
        })?;
        let ratio = rounds(raw, unit, || {
            let t = Instant::now();
            for _ in 0..CALLS {
                let mut req = raw
                    .iallreduce(1u64.to_le_bytes().to_vec(), Arc::clone(&owned), 8)
                    .map_err(err("iallreduce"))?;
                std::hint::black_box(req.wait().map_err(err("wait"))?);
            }
            let nonblocking = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..CALLS {
                let mut buf = 1u64.to_le_bytes().to_vec();
                raw.allreduce(&mut buf, &op, 8).map_err(err("allreduce"))?;
                std::hint::black_box(buf);
            }
            Ok(nonblocking / t.elapsed().as_secs_f64())
        })?;
        Ok(vec![
            ("mpi.coll.allreduce_8B_us".into(), median(&allreduce)),
            ("mpi.coll.alltoallv_small_us".into(), median(&alltoallv)),
            ("mpi.coll.barrier_us".into(), median(&barrier)),
            (
                "mpi.coll.alltoallv_1MiB_mib_per_s".into(),
                median(&bandwidth),
            ),
            ("mpi.icoll.issue_ns".into(), median(&issue)),
            (
                "mpi.icoll.issue_wait_over_blocking_ratio".into(),
                median(&ratio),
            ),
        ])
    })
}

fn spin_for(d: Duration) {
    let t = Instant::now();
    let mut x = 0u64;
    while t.elapsed() < d {
        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
    }
}

/// `mpi.icoll.overlap_ratio_p4`: how much of a 64 KiB iallreduce hides
/// behind compute of the same length. Four ranks on two cores: read it as
/// a trend, not a number.
fn icoll_overlap(unit: Duration) -> Result<Found, String> {
    on_ranks(4, |comm| {
        let raw = comm.raw();
        let op = sum_op();
        let owned: OwnedByteOp = Arc::new(sum_op());
        let payload = vec![1u8; 64 * KIB];
        let hidden = rounds(raw, unit, || {
            raw.barrier().map_err(err("barrier"))?;
            let t = Instant::now();
            let mut buf = payload.clone();
            raw.allreduce(&mut buf, &op, 8).map_err(err("allreduce"))?;
            let comm_time = t.elapsed();
            raw.barrier().map_err(err("barrier"))?;
            let t = Instant::now();
            let mut buf = payload.clone();
            raw.allreduce(&mut buf, &op, 8).map_err(err("allreduce"))?;
            spin_for(comm_time);
            let sequential = t.elapsed().as_secs_f64();
            raw.barrier().map_err(err("barrier"))?;
            let t = Instant::now();
            let mut req = raw
                .iallreduce(payload.clone(), Arc::clone(&owned), 8)
                .map_err(err("iallreduce"))?;
            spin_for(comm_time);
            std::hint::black_box(req.wait().map_err(err("wait"))?);
            let overlapped = t.elapsed().as_secs_f64();
            Ok((sequential - overlapped) / comm_time.as_secs_f64().max(1e-9))
        })?;
        Ok(vec![("mpi.icoll.overlap_ratio_p4".into(), median(&hidden))])
    })
}

/// Exact envelopes and bytes of one allreduce at p = 4: the totals of a
/// universe that ran the collective twice minus one that ran it once, so
/// start-up traffic (topology discovery included) cancels.
fn coll_counts() -> Result<Found, String> {
    let totals = |bytes: usize, calls: usize, fake_hosts: Option<usize>| {
        let (_, profile) = Universe::run_profiled(4, |raw| {
            if let Some(k) = fake_hosts {
                raw.set_fake_hosts(k);
            }
            let op = sum_op();
            for _ in 0..calls {
                let mut buf = vec![1u8; bytes];
                raw.allreduce(&mut buf, &op, 8).expect("allreduce");
            }
        });
        (profile.total_messages(), profile.total_bytes())
    };
    let one = |bytes, hosts| {
        let (m2, b2) = totals(bytes, 2, hosts);
        let (m1, b1) = totals(bytes, 1, hosts);
        ((m2 - m1) as f64, (b2 - b1) as f64)
    };
    Ok(vec![
        ("mpi.coll.msgs_per_allreduce_p4".into(), one(8, None).0),
        (
            "mpi.coll.bytes_per_allreduce_64KiB_p4".into(),
            one(64 * KIB, None).1,
        ),
        (
            "mpi.hier.msgs_per_allreduce_p4_2hosts".into(),
            one(8, Some(2)).0,
        ),
    ])
}

// -------------------------------------------------------- mpi.net.wire

fn net_wire(unit: Duration) -> Result<Found, String> {
    let frame = |n: usize| Frame::Data {
        src: 0,
        tag: 1,
        ctx: 0,
        ack_id: 0,
        payload: vec![0x3c; n],
    };
    let small = frame(8);
    let big = frame(MIB);
    let body = big.encode();
    if Frame::decode(&body).map_err(err("frame decode"))? != big {
        return Err("Frame::decode(Frame::encode(x)) != x".into());
    }
    let enc_small = time_ns(unit, 256, || {
        std::hint::black_box(small.encode());
    });
    let enc_big = time_ns(unit, 4, || {
        std::hint::black_box(big.encode());
    });
    let dec_big = time_ns(unit, 4, || {
        std::hint::black_box(Frame::decode(&body).expect("checked above"));
    });
    Ok(vec![
        ("mpi.net.wire.encode_ns_per_frame_8B".into(), enc_small),
        ("mpi.net.wire.encode_mib_per_s_1MiB".into(), 1e9 / enc_big),
        ("mpi.net.wire.decode_mib_per_s_1MiB".into(), 1e9 / dec_big),
    ])
}

// -------------------------------------------------------- mpi.net.ring

fn net_ring(unit: Duration, scratch: &Path) -> Result<Found, String> {
    let dir = scratch.join("ring-probe");
    std::fs::create_dir_all(&dir).map_err(err("ring dir"))?;
    let inbox = Inbox::create(&dir, 0, 2, DEFAULT_RING_BYTES).map_err(err("Inbox::create"))?;
    let tx = RingTx::open(&dir, 0, 1, 2, DEFAULT_RING_BYTES).map_err(err("RingTx::open"))?;
    let body = vec![0x77u8; MIB];
    let prefix = (body.len() as u32).to_le_bytes();
    let frame_len = prefix.len() + body.len();

    // Exact ring fills of one frame: a single thread writes, and drains
    // the ring itself each time `write` finds it full.
    let mut sink = Vec::with_capacity(frame_len);
    let mut fills = 0u64;
    let complete = tx.write(
        &[&prefix, &body],
        || {
            fills += (inbox.recv_into(1, &mut sink, usize::MAX) > 0) as u64;
            false
        },
        |_| {},
    );
    fills += (inbox.recv_into(1, &mut sink, usize::MAX) > 0) as u64;
    if !complete || sink.len() != frame_len {
        return Err(format!(
            "ring probe: wrote a {frame_len}-byte frame, drained {}",
            sink.len()
        ));
    }

    // Throughput: producer thread against this thread as the consumer.
    const FRAMES: usize = 24;
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed() < unit {
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..FRAMES {
                    tx.write(&[&prefix, &body], || false, |_| {});
                }
            });
            let mut got = 0usize;
            while got < FRAMES * frame_len {
                sink.clear();
                let bell = inbox.doorbell_value();
                let n = inbox.recv_into(1, &mut sink, usize::MAX);
                if n == 0 {
                    inbox.park(bell, Duration::from_millis(1));
                }
                got += n;
            }
        });
        rates.push(FRAMES as f64 / t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(vec![
        (
            "mpi.net.ring.write_read_mib_per_s_1MiB".into(),
            median(&rates),
        ),
        ("mpi.net.ring.chunks_per_msg_1MiB".into(), fills as f64),
    ])
}

// ------------------------------------------------ launched-pair probes

/// Body of `kbench probe-rank <mode> <unit_ms> <out>`: one rank of a pair
/// launched by [`launched_pair`]. Mode `meet` only meets at a barrier;
/// `ring` and `socket` measure through `RawComm` on that backend.
pub fn probe_rank_main(args: &[String]) -> Result<ExitCode, String> {
    let [mode, unit_ms, out] = args else {
        return Err("probe-rank takes <mode> <unit_ms> <out>".into());
    };
    let unit = Duration::from_millis(unit_ms.parse().map_err(err("unit_ms"))?);
    let found = Universe::run(2, |raw| -> Result<Found, String> {
        procfs::pin_to_cpu(raw.rank());
        raw.barrier().map_err(err("barrier"))?;
        if mode == "meet" {
            return Ok(Vec::new());
        }
        let me = raw.rank();
        // `bytes` out, 8 bytes back; returns µs per exchange.
        let exchange = |bytes: usize, reps: usize| -> Result<f64, String> {
            let payload = vec![0x42u8; bytes];
            let samples = rounds(&raw, unit, || {
                let t = Instant::now();
                for _ in 0..reps {
                    if me == 0 {
                        raw.send(1, 1, &payload).map_err(err("send"))?;
                        raw.recv(1, 2).map_err(err("recv"))?;
                    } else {
                        raw.recv(0, 1).map_err(err("recv"))?;
                        raw.send(0, 2, &[0u8; 8]).map_err(err("send"))?;
                    }
                }
                Ok(t.elapsed().as_secs_f64() * 1e6 / reps as f64)
            })?;
            Ok(median(&samples))
        };
        let mut found = vec![(format!("mpi.net.{mode}.small_rtt_us"), exchange(8, 200)?)];
        if mode == "socket" {
            found.push((
                "mpi.net.socket.deliver_us_16KiB".into(),
                exchange(16 * KIB, 50)?,
            ));
            found.push((
                "mpi.net.socket.deliver_us_256KiB".into(),
                exchange(256 * KIB, 10)?,
            ));
            let payload = vec![0x42u8; MIB];
            let calls = rounds(&raw, unit, || {
                let mut inside = Duration::ZERO;
                for _ in 0..4 {
                    if me == 0 {
                        let t = Instant::now();
                        raw.send(1, 3, &payload).map_err(err("send"))?;
                        inside += t.elapsed();
                        raw.recv(1, 4).map_err(err("recv"))?;
                    } else {
                        raw.recv(0, 3).map_err(err("recv"))?;
                        raw.send(0, 4, &[]).map_err(err("send"))?;
                    }
                }
                Ok(inside.as_secs_f64() * 1e6 / 4.0)
            })?;
            found.push(("mpi.net.socket.send_call_us_1MiB".into(), median(&calls)));
        }
        // Linger so the peer's last receive completes before this rank is
        // marked finished (ROADMAP item 1's finish-vs-interrupt race).
        raw.barrier().map_err(err("barrier"))?;
        std::thread::sleep(Duration::from_millis(5));
        Ok(if me == 0 { found } else { Vec::new() })
    });
    match found.into_iter().next() {
        Some(Ok(found)) => {
            if !found.is_empty() {
                let text: String = found
                    .iter()
                    .map(|(name, value)| format!("{name} {value}\n"))
                    .collect();
                std::fs::write(out, text).map_err(err("probe report"))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(Err(e)) => Err(e),
        None => Err("probe-rank: no rank ran".into()),
    }
}

/// Launches a `probe-rank` pair on `backend`; returns rank 0's findings
/// and how long `net::launch` took end to end.
fn launched_pair(
    mode: &str,
    backend: Backend,
    unit: Duration,
    scratch: &Path,
) -> Result<(Found, f64), String> {
    let out = scratch.join(format!("probe-{mode}.txt"));
    let shm = scratch.join(format!("probe-shm-{mode}"));
    std::fs::create_dir_all(&shm).map_err(err("probe shm dir"))?;
    let mut spec = LaunchSpec::new(2, std::env::current_exe().map_err(err("own executable"))?);
    spec.backend = backend;
    spec.args = vec![
        "probe-rank".into(),
        mode.into(),
        unit.as_millis().to_string(),
        out.display().to_string(),
    ];
    spec.env = vec![("KAMPING_SHM_DIR".into(), shm.display().to_string())];
    let t = Instant::now();
    let exits = launch(&spec).map_err(err("net::launch"))?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&shm);
    if let Some(bad) = exits.iter().find(|e| !e.status.success()) {
        return Err(format!(
            "probe rank {} exited with {}",
            bad.rank, bad.status
        ));
    }
    let text = std::fs::read_to_string(&out).unwrap_or_default();
    let _ = std::fs::remove_file(&out);
    let found = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, v)| Some((name.to_string(), v.parse().ok()?)))
        .collect();
    Ok((found, wall_ms))
}

fn net_launched(unit: Duration, scratch: &Path) -> Result<Found, String> {
    let mut found = Vec::new();
    for (mode, backend) in [("ring", Backend::ShmXproc), ("socket", Backend::Socket)] {
        let mut walls = Vec::new();
        for _ in 0..3 {
            walls.push(launched_pair("meet", backend, unit, scratch)?.1);
        }
        found.push((
            format!("mpi.net.launch.rendezvous_ms_{mode}"),
            median(&walls),
        ));
        found.extend(launched_pair(mode, backend, unit, scratch)?.0);
    }
    let spawn = time_ns(unit, 1, || {
        std::hint::black_box(kamping::run(2, |comm| comm.rank()));
    });
    found.push(("mpi.universe.spawn_ms_p2".into(), spawn / 1e6));
    Ok(found)
}

/// Every layer probe. `workload` is the traced run's own workload: its
/// `sort.*` / `graphs.*` metrics come from its traced pass, the other
/// workloads get them from a short traced run here.
pub fn run_all(workload: &str, seed: u64, budget_s: f64, scratch: &Path) -> Result<Found, String> {
    let unit = Duration::from_secs_f64(budget_s / SLOTS);
    let mut found = Vec::new();
    found.extend(core_p2p(unit)?);
    found.extend(core_alltoallv(unit)?);
    found.extend(core_and_serial_copies(unit));
    found.extend(mpi_p2p(unit)?);
    found.extend(mpi_transport(unit));
    found.extend(mpi_coll_timed(unit)?);
    found.extend(icoll_overlap(unit)?);
    found.extend(coll_counts()?);
    found.extend(net_wire(unit)?);
    found.extend(net_ring(unit, scratch)?);
    found.extend(net_launched(unit, scratch)?);
    if workload != "sort-fig8" {
        found.extend(
            extras_probe::<SortFig8>(seed, 6)?
                .into_iter()
                .map(|(n, v)| (n.to_string(), v)),
        );
    }
    if workload != "bfs-fig10" {
        found.extend(
            extras_probe::<BfsFig10>(seed, 3)?
                .into_iter()
                .map(|(n, v)| (n.to_string(), v)),
        );
    }
    Ok(found)
}
