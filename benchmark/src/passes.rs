//! What one rank of a pair does with a workload: set-up and warm-up,
//! then either the timed pass (end-to-end metrics) or the traced pass
//! (spans, exact counts, tracing overhead).
//!
//! Everything here runs *inside* one persistent universe: the pair is
//! started once per pass and all blocks loop in it. Typed and plain
//! blocks alternate in ABBA order — typed, plain, plain, typed — so a
//! drift that is linear over a quad cancels out of the typed/plain ratio.

use std::time::Instant;

use kamping::Communicator;
use kamping_mpi::profile::ALL_OPS;
use kamping_mpi::RawComm;

use crate::catalog;
use crate::err;
use crate::json::Json;
use crate::procfs;
use crate::span::{self, NoTrace, SpanBuf};
use crate::stats;
use crate::workloads::bfs::BfsFig10;
use crate::workloads::p2p_small::P2pSmall;
use crate::workloads::p2p_wild::P2pWild;
use crate::workloads::sort::SortFig8;
use crate::workloads::stream::Stream;
use crate::workloads::{self, Outcome, Placement, Variant, Workload};

/// ABBA quads per timed pair: 6 typed and 6 plain blocks. A timed run
/// starts [`crate::worker::TIMED_PAIRS`] pairs.
const QUADS: usize = 3;
/// Spans kept per rank (the buffer is allocated before the first op).
const SPAN_CAPACITY: usize = 60_000;
/// Share of the traced run's seconds spent on the traced pass; the layer
/// probes take the rest.
pub const TRACED_PASS_SHARE: f64 = 0.35;

/// What a rank was started to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up and warm-up only (a `setup_s` sample).
    Setup,
    Timed,
    Traced,
}

#[derive(Debug, Clone)]
pub struct RankCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub phase: Phase,
    /// True when the ranks are threads of one process (process-wide
    /// `/proc` readings must then be counted once, not per rank).
    pub shared_process: bool,
}

/// Sum of a per-rank count over the pair.
fn sum_u64(comm: &Communicator, v: u64) -> Result<u64, String> {
    comm.allreduce_single(v, |a, b| a + b)
        .map_err(err("allreduce"))
}

/// Rank 0's value on every rank.
fn from_rank0(raw: &RawComm, v: u64) -> Result<u64, String> {
    let mut buf = v.to_le_bytes().to_vec();
    raw.bcast(&mut buf, 0).map_err(err("bcast"))?;
    buf.as_slice()
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| "bcast: malformed count".to_string())
}

/// Entry point of a rank: dispatches on the workload name. Rank 0
/// returns the pass's report, every other rank (and a set-up-only pass)
/// `None`.
pub fn rank_main(comm: Communicator, cfg: &RankCfg) -> Result<Option<Json>, String> {
    let comm = &comm;
    if comm.size() != 2 {
        return Err(format!("kbench pairs have 2 ranks, got {}", comm.size()));
    }
    match cfg.workload.as_str() {
        "p2p-small-shm" => run::<P2pSmall>(comm, cfg),
        "p2p-wild-shm" => run::<P2pWild>(comm, cfg),
        "stream-large-ring" | "stream-large-socket" => run::<Stream>(comm, cfg),
        "sort-fig8" => run::<SortFig8>(comm, cfg),
        "bfs-fig10" => run::<BfsFig10>(comm, cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run<W: Workload>(comm: &Communicator, cfg: &RankCfg) -> Result<Option<Json>, String> {
    let placement = workloads::info(&cfg.workload).map_or(Placement::Unbound, |i| i.placement);
    match placement {
        Placement::OnePerCore => procfs::pin_to_cpu(comm.rank()),
        // The last allowed core: the first one takes most interrupts.
        Placement::SameCore => procfs::pin_to_cpu(usize::MAX),
        Placement::Unbound => false,
    };
    let mut w = W::setup(comm, cfg.seed)?;
    // Fixed-count warm-up, both variants; its duration also sizes the
    // blocks (rank 0's estimate, shared with the peer).
    let mut lat = Vec::with_capacity(2 * W::WARMUP_SAMPLES);
    let warm_start = Instant::now();
    let mut warm = w.run(
        comm,
        Variant::Typed,
        W::WARMUP_SAMPLES,
        &mut lat,
        &mut NoTrace,
    )?;
    warm.add(w.run(
        comm,
        Variant::Plain,
        W::WARMUP_SAMPLES,
        &mut lat,
        &mut NoTrace,
    )?);
    let sample_s = warm_start.elapsed().as_secs_f64() / (2 * W::WARMUP_SAMPLES) as f64;
    let report = match cfg.phase {
        Phase::Setup => None,
        Phase::Timed => timed_pass(comm, &mut w, cfg, sample_s)?,
        Phase::Traced => traced_pass(comm, &mut w, cfg, sample_s)?,
    };
    let warm_failed = sum_u64(comm, warm.failed)?;
    let ops_per_sample = w.ops_per_sample();
    // Linger: a rank that returns right after posting its last message
    // can be seen as *failed* by a peer still inside the matching receive
    // (ROADMAP item 1, the finish-vs-interrupt race in
    // `Mailbox::wait_matching`). Meeting once more and then waiting far
    // longer than a receive takes keeps that library bug out of the
    // benchmark's failure count; the cost is constant and part of
    // `setup_s`.
    comm.barrier().map_err(err("barrier"))?;
    std::thread::sleep(std::time::Duration::from_millis(5));
    Ok(report.map(|mut r| {
        let attempted = r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let warm_ops = (2 * W::WARMUP_SAMPLES) as f64 * ops_per_sample as f64;
        r.set("attempted", Json::Num(attempted + warm_ops));
        r.set("failed", Json::Num(failed + warm_failed as f64));
        r
    }))
}

struct Block {
    variant: Variant,
    secs: f64,
    samples: usize,
    lat_us: Vec<f64>,
    outcome: Outcome,
}

fn timed_pass<W: Workload>(
    comm: &Communicator,
    w: &mut W,
    cfg: &RankCfg,
    mut sample_s: f64,
) -> Result<Option<Json>, String> {
    let block_s = cfg.seconds / (4 * QUADS) as f64;
    let mut blocks: Vec<Block> = Vec::with_capacity(4 * QUADS);
    comm.barrier().map_err(err("barrier"))?;
    let cpu_before = procfs::cpu_seconds();
    let window_start = Instant::now();
    for quad in 0..QUADS {
        // The four blocks of a quad run the same number of samples, sized
        // by rank 0 from what a sample took in the quad before.
        let samples =
            from_rank0(comm.raw(), (block_s / sample_s).round().max(1.0) as u64)? as usize;
        let quad_start = Instant::now();
        for variant in [
            Variant::Typed,
            Variant::Plain,
            Variant::Plain,
            Variant::Typed,
        ] {
            let mut lat_us = Vec::with_capacity(samples);
            w.begin_block(quad);
            comm.barrier().map_err(err("barrier"))?;
            let start = Instant::now();
            let outcome = w.run(comm, variant, samples, &mut lat_us, &mut NoTrace)?;
            blocks.push(Block {
                variant,
                secs: start.elapsed().as_secs_f64(),
                samples,
                lat_us,
                outcome,
            });
        }
        sample_s = quad_start.elapsed().as_secs_f64() / (4 * samples) as f64;
    }
    let window_s = window_start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;

    // Pair-wide sums. CPU and memory are per process: threads of one
    // process all read the same counters, so only rank 0 contributes.
    let own_process = !cfg.shared_process || comm.rank() == 0;
    let cpu_us = sum_u64(comm, if own_process { (cpu_s * 1e6) as u64 } else { 0 })?;
    let rss_kib = comm
        .allreduce_single((procfs::peak_rss_mib() * 1024.0) as u64, u64::max)
        .map_err(err("allreduce"))?;
    let failed = sum_u64(comm, blocks.iter().map(|b| b.outcome.failed).sum())?;
    let mut payload = Vec::with_capacity(blocks.len());
    for b in &blocks {
        payload.push(sum_u64(comm, b.outcome.payload_bytes)?);
    }
    if comm.rank() != 0 {
        return Ok(None);
    }

    let ops_per_sample = w.ops_per_sample() as f64;
    let ops = |b: &Block| b.samples as f64 * ops_per_sample;
    let all_ops: f64 = blocks.iter().map(ops).sum();
    let typed: Vec<(&Block, u64)> = blocks
        .iter()
        .zip(payload)
        .filter(|(b, _)| b.variant == Variant::Typed)
        .collect();

    // Every rate and latency is a median over the typed blocks, so a
    // block that caught a scheduler hiccup moves nothing.
    let rates: Vec<f64> = typed.iter().map(|(b, _)| ops(b) / b.secs).collect();
    let payload_rates: Vec<f64> = typed
        .iter()
        .map(|(b, bytes)| *bytes as f64 / (1024.0 * 1024.0) / b.secs)
        .collect();
    let p50s: Vec<f64> = typed
        .iter()
        .map(|(b, _)| stats::median(&b.lat_us))
        .collect();
    let ratios: Vec<f64> = blocks
        .chunks_exact(4)
        .map(|q| (q[0].secs + q[3].secs) / (q[1].secs + q[2].secs))
        .collect();

    let metrics = Json::obj()
        .with("ops_per_s", Json::Num(stats::median(&rates)))
        .with("op_latency_us_p50", Json::Num(stats::median(&p50s)))
        .with(
            "payload_mib_per_s",
            Json::Num(stats::median(&payload_rates)),
        )
        .with("binding_overhead_ratio", Json::Num(stats::median(&ratios)))
        .with("cpu_us_per_op", Json::Num(cpu_us as f64 / all_ops))
        .with("peak_rss_mib", Json::Num(rss_kib as f64 / 1024.0));
    Ok(Some(
        Json::obj()
            .with("attempted", Json::Num(all_ops))
            .with("failed", Json::Num(failed as f64))
            .with("metrics", metrics)
            .with(
                "detail",
                Json::obj()
                    .with("window_s", Json::Num(window_s))
                    .with("blocks", Json::Num(blocks.len() as f64))
                    .with(
                        "samples_per_block_by_quad",
                        Json::Arr(
                            blocks
                                .iter()
                                .step_by(4)
                                .map(|b| Json::Num(b.samples as f64))
                                .collect(),
                        ),
                    )
                    .with("ops_per_sample", Json::Num(ops_per_sample))
                    .with(
                        "typed_block_ops_per_s",
                        Json::Arr(rates.iter().map(|&r| Json::Num(r.round())).collect()),
                    ),
            ),
    ))
}

/// This rank's (messages, bytes, calls) so far.
fn my_counts(comm: &Communicator) -> [u64; 3] {
    let me = comm.raw().my_global_rank();
    let p = &comm.profile().ranks[me];
    [
        p.messages_sent,
        p.bytes_sent,
        ALL_OPS.iter().map(|&op| p.calls(op)).sum(),
    ]
}

fn traced_pass<W: Workload>(
    comm: &Communicator,
    w: &mut W,
    cfg: &RankCfg,
    sample_s: f64,
) -> Result<Option<Json>, String> {
    let raw = comm.raw();
    let mut failed = 0u64;
    let mut attempted_samples = 0u64;

    // Exact counts per op, typed and plain, from the library's own
    // profile counters. A fixed number of samples, so the counts repeat.
    let count_samples = W::WARMUP_SAMPLES.max(1);
    let mut lat = Vec::with_capacity(2 * count_samples);
    comm.barrier().map_err(err("barrier"))?;
    let c0 = my_counts(comm);
    failed += w
        .run(comm, Variant::Typed, count_samples, &mut lat, &mut NoTrace)?
        .failed;
    let c1 = my_counts(comm);
    failed += w
        .run(comm, Variant::Plain, count_samples, &mut lat, &mut NoTrace)?
        .failed;
    let c2 = my_counts(comm);
    attempted_samples += 2 * count_samples as u64;
    let mut typed_counts = [0u64; 3];
    let mut plain_calls = 0u64;
    for i in 0..3 {
        typed_counts[i] = sum_u64(comm, c1[i] - c0[i])?;
    }
    plain_calls += sum_u64(comm, c2[2] - c1[2])?;
    let count_ops = (count_samples as u64 * w.ops_per_sample()) as f64;

    // Untraced / traced blocks of the typed op, UTTU like the timed
    // pass's ABBA, for the tracing overhead.
    let quads = 4;
    let block_s = cfg.seconds * TRACED_PASS_SHARE / (4 * quads) as f64;
    let samples = from_rank0(raw, (block_s / sample_s).round().max(1.0) as u64)? as usize;
    let epoch = Instant::now();
    let mut spans = SpanBuf::new(SPAN_CAPACITY, epoch);
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut traced_lat: Vec<f64> = Vec::with_capacity(2 * quads * samples);
    let mut untraced_lat: Vec<f64> = Vec::with_capacity(2 * quads * samples);
    let (run0, wait0) = procfs::sched_run_wait_ns();
    for quad in 0..quads {
        for traced in [false, true, true, false] {
            w.begin_block(quad);
            comm.barrier().map_err(err("barrier"))?;
            let start = Instant::now();
            if traced {
                failed += w
                    .run_traced(comm, samples, &mut traced_lat, &mut spans)?
                    .failed;
                traced_s += start.elapsed().as_secs_f64();
            } else {
                failed += w
                    .run(
                        comm,
                        Variant::Typed,
                        samples,
                        &mut untraced_lat,
                        &mut NoTrace,
                    )?
                    .failed;
                untraced_s += start.elapsed().as_secs_f64();
            }
            attempted_samples += samples as u64;
        }
    }
    let (run1, wait1) = procfs::sched_run_wait_ns();
    let own_process = !cfg.shared_process || comm.rank() == 0;
    let run_ns = sum_u64(comm, if own_process { (run1 - run0) as u64 } else { 0 })?;
    let wait_ns = sum_u64(
        comm,
        if own_process {
            (wait1 - wait0) as u64
        } else {
            0
        },
    )?;
    let failed = sum_u64(comm, failed)?;

    // Rank 1 ships its spans to rank 0 as JSON text over the pair's own
    // transport; the pass is over, so this traffic is not measured.
    const SPAN_TAG: u32 = 99;
    let mine = span::rank_json(comm.rank(), &spans);
    if comm.rank() != 0 {
        raw.send_owned(0, SPAN_TAG, mine.compact().into_bytes())
            .map_err(err("span send"))?;
        return Ok(None);
    }
    let (theirs, _) = raw.recv(1, SPAN_TAG).map_err(err("span recv"))?;
    let theirs = String::from_utf8(theirs)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
        .map_err(err("peer spans"))?;

    let totals = span::totals_by_name(spans.spans());
    let mut layer = Json::obj()
        .with(
            "mpi.profile.msgs_per_op",
            Json::Num(typed_counts[0] as f64 / count_ops),
        )
        .with(
            "mpi.profile.bytes_per_op",
            Json::Num(typed_counts[1] as f64 / count_ops),
        )
        .with(
            "mpi.profile.calls_per_op",
            Json::Num(typed_counts[2] as f64 / count_ops),
        )
        .with(
            "core.extra_calls_per_op",
            Json::Num((typed_counts[2] as f64 - plain_calls as f64) / count_ops),
        )
        .with("trace.overhead_ratio", Json::Num(traced_s / untraced_s))
        .with(
            "tail.op_latency_us_p99",
            Json::Num(stats::percentile(&untraced_lat, 99.0)),
        )
        .with(
            "env.runq_wait_share",
            Json::Num(wait_ns as f64 / (run_ns + wait_ns).max(1) as f64),
        );
    for (name, value) in w.traced_extras(&totals) {
        layer.set(name, Json::Num(value));
    }
    // Self time per span name, per op, over the ops rank 0 recorded.
    let recorded_ops = (totals.get("op").map_or(0, |t| t.count) * w.ops_per_root_span()).max(1);
    for m in &catalog::PER_LAYER {
        if let Some(span_name) = m.name.strip_prefix("trace.self_us.") {
            let self_ns = totals.get(span_name).map_or(0, |t| t.self_ns);
            layer.set(
                m.name,
                Json::Num(self_ns as f64 / recorded_ops as f64 / 1e3),
            );
        }
    }
    layer.set(
        "trace.self_time_cover",
        Json::Num(span::self_time_cover(spans.spans())),
    );
    layer.set("trace.spans_dropped", Json::Num(spans.dropped as f64));
    let trace_file = Json::obj()
        .with("workload", Json::Str(cfg.workload.clone()))
        .with("seed", Json::Num(cfg.seed as f64))
        .with(
            "traced_op_latency_us_p50",
            Json::Num(stats::median(&traced_lat)),
        )
        .with("ranks", Json::Arr(vec![mine, theirs]));
    Ok(Some(
        Json::obj()
            .with(
                "attempted",
                Json::Num((attempted_samples * w.ops_per_sample()) as f64),
            )
            .with("failed", Json::Num(failed as f64))
            .with("layer", layer)
            .with("trace_file", trace_file),
    ))
}

/// A short traced run of `W` in a pair of its own, for the layer metrics
/// only `W`'s spans can give (`sort.*`, `graphs.*`). Used by the traced
/// runs of the *other* workloads, which must report every layer metric.
pub fn extras_probe<W: Workload>(
    seed: u64,
    samples: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut per_rank = kamping::run(2, |comm| -> Result<Vec<(&'static str, f64)>, String> {
        // Both workloads probed this way run one rank per core.
        procfs::pin_to_cpu(comm.rank());
        let mut w = W::setup(&comm, seed)?;
        let mut lat = Vec::with_capacity(samples);
        let mut spans = SpanBuf::new(SPAN_CAPACITY, Instant::now());
        w.run_traced(&comm, samples, &mut lat, &mut spans)?;
        Ok(w.traced_extras(&span::totals_by_name(spans.spans())))
    });
    per_rank.swap_remove(0)
}
