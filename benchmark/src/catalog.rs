//! Every metric the benchmark reports, by name: unit, direction, and for
//! layer metrics which end-to-end metric they should move and where.
//! `BENCHMARK.json`, the printed tables and `agree` all read this list,
//! so a metric cannot be reported under a name or unit it is not
//! declared with.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: what a user sees. Layer: what it predicts.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics; every workload reports each of them. A timed
/// run starts five pairs; the value reported is the trimmed mean of the
/// pairs' values (the maximum for `peak_rss_mib`).
///
/// Two metrics of the issue's list are not here. `failed_ratio`: the run
/// contract carries it as the `failed` / `attempted` pair, and a metric
/// whose healthy value is 0 has no relative bound. `op_latency_us_p99`:
/// its seed-to-seed spread reaches 18 % on `stream-large-ring` (9–11 %
/// elsewhere), which no bound within the contract's 25 % cap clears with
/// room to spare; by the issue's own rule it is demoted to the layer
/// metric `tail.op_latency_us_p99`.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s", Lower, "pair wall time minus its timed window: spawn / launch rendezvous, seeded inputs, first touch of rings and connections, fixed-count warm-up, teardown"),
    m("ops_per_s", "1/s", Higher, "typed-path ops per second: per pair the median over its typed blocks"),
    m("op_latency_us_p50", "us", Lower, "median typed op time: per pair the median over its typed blocks of the block median"),
    m("payload_mib_per_s", "MiB/s", Higher, "useful payload bytes received per second of typed block (headers, acks, counts excluded)"),
    m("binding_overhead_ratio", "ratio", Lower, "typed / plain block time: per pair the median over its ABBA quads; 1.00 = zero overhead"),
    m("cpu_us_per_op", "us", Lower, "user+sys CPU of all rank processes over a pair's window / its ops (typed and plain)"),
    m("peak_rss_mib", "MiB", Lower, "largest VmHWM over the rank processes of all pairs"),
];

/// Layer metrics whose value is an exact count: two runs of one commit
/// must report them identically.
pub fn is_exact_count(metric: &Metric) -> bool {
    metric.unit == "count"
        && (metric.name == "core.extra_calls_per_op"
            || ["msgs_", "bytes_", "calls_", "chunks_"]
                .iter()
                .any(|part| metric.name.contains(part)))
}

/// The layer metrics, in the order they are printed. Every traced run
/// reports all of them: the first group from its own traced pass, the
/// rest from the layer probes.
pub const PER_LAYER: [Metric; 68] = [
    // --- from the traced pass of the workload itself ---
    m("mpi.profile.msgs_per_op", "count", Lower, "exact envelopes posted per typed op (ProfileSnapshot)"),
    m("mpi.profile.bytes_per_op", "count", Lower, "exact payload bytes posted per typed op"),
    m("mpi.profile.calls_per_op", "count", Lower, "exact substrate calls per typed op"),
    m("core.extra_calls_per_op", "count", Lower, "typed minus plain substrate calls per op; 0 when every count is given -> binding_overhead_ratio"),
    m("trace.overhead_ratio", "ratio", Lower, "untraced / traced typed ops per second in the traced pass"),
    m("tail.op_latency_us_p99", "us", Lower, "p99 of the typed op time over the untraced blocks of the traced pass, pooled (demoted from end to end: too noisy for a bound)"),
    m("env.runq_wait_share", "ratio", Lower, "runnable-but-not-running share of the rank threads (schedstat); above 0.05 the set is noisy"),
    // --- core (crate kamping) ---
    m("core.typed_call_self_ns", "ns", Lower, "typed send+recv minus plain send+recv on a self-addressed 8 B message -> binding_overhead_ratio, op_latency_us_p50 on p2p-small-shm; nothing on stream-*"),
    m("core.alltoallv_self_us", "us", Lower, "typed alltoallv (all counts given) minus plain alltoallv, 32 B per peer -> binding_overhead_ratio on sort-fig8, bfs-fig10"),
    m("core.bytes_to_vec_ns_per_kib", "ns/KiB", Lower, "bytes_to_pods::<u64> on 1 MiB -> payload_mib_per_s on stream-*, sort-fig8"),
    // --- serial (crate kamping_serial) ---
    m("serial.encode_ns_per_kib", "ns/KiB", Lower, "to_bytes of a 128 KiB Vec<u64> -> payload_mib_per_s on stream-* (frame headers); nothing in-process"),
    m("serial.decode_ns_per_kib", "ns/KiB", Lower, "from_bytes of the same -> payload_mib_per_s on stream-*"),
    // --- mpi.p2p ---
    m("mpi.p2p.send_call_ns", "ns", Lower, "RawComm::send of 8 B, call to return -> op_latency_us_p50 on p2p-small-shm"),
    m("mpi.p2p.recv_wait_ns", "ns", Lower, "time inside RawComm::recv during an 8 B ping-pong -> op_latency_us_p50 on p2p-small-shm"),
    m("mpi.p2p.probe_ns", "ns", Lower, "RawComm::probe(ANY_SOURCE, ANY_TAG) with a message queued -> ops_per_s on p2p-wild-shm"),
    // --- mpi.transport (Mailbox and Payload driven directly) ---
    m("mpi.transport.post_take_ns_depth1", "ns", Lower, "Mailbox::post + try_take on an empty lane -> latency p50/p99 on p2p-small-shm"),
    m("mpi.transport.park_wake_us", "us", Lower, "post to a parked take_blocking until it returns -> latency p99 on p2p-small-shm"),
    m("mpi.transport.post_take_ns_depth256", "ns", Lower, "per message: 256 posts, exact takes last-first -> ops_per_s on p2p-wild-shm"),
    m("mpi.transport.wild_take_ns_depth256", "ns", Lower, "per message: 256 posts, ANY_SOURCE/ANY_TAG takes -> ops_per_s on p2p-wild-shm"),
    m("mpi.transport.payload_copy_ns_per_kib", "ns/KiB", Lower, "Payload::from_slice + into_vec of 64 KiB -> payload_mib_per_s on sort-fig8"),
    m("mpi.transport.payload_inline_share", "ratio", Higher, "share of sizes 1..=64 B that Payload keeps inline -> cpu_us_per_op on p2p-small-shm"),
    // --- mpi.coll ---
    m("mpi.coll.allreduce_8B_us", "us", Lower, "blocking allreduce of 8 B at p=2 -> ops_per_s on bfs-fig10"),
    m("mpi.coll.alltoallv_small_us", "us", Lower, "blocking alltoallv of 32 B per peer at p=2 -> ops_per_s on bfs-fig10"),
    m("mpi.coll.barrier_us", "us", Lower, "barrier at p=2 -> ops_per_s on bfs-fig10"),
    m("mpi.coll.alltoallv_1MiB_mib_per_s", "MiB/s", Higher, "alltoallv of 1 MiB per peer at p=2 -> payload_mib_per_s on sort-fig8"),
    m("mpi.coll.msgs_per_allreduce_p4", "count", Lower, "exact envelopes of one 8 B allreduce at p=4"),
    m("mpi.coll.bytes_per_allreduce_64KiB_p4", "count", Lower, "exact bytes posted by one 64 KiB allreduce at p=4"),
    // --- mpi.icoll ---
    m("mpi.icoll.issue_ns", "ns", Lower, "iallreduce of 8 B, call to return"),
    m("mpi.icoll.issue_wait_over_blocking_ratio", "ratio", Lower, "8 B iallreduce().wait() / blocking allreduce -> ops_per_s on bfs-fig10 if blocking becomes issue + wait"),
    m("mpi.icoll.overlap_ratio_p4", "ratio", Higher, "share of a 64 KiB iallreduce hidden behind equal compute at p=4 (informational: 4 ranks on 2 cores)"),
    // --- mpi.hier ---
    m("mpi.hier.msgs_per_allreduce_p4_2hosts", "count", Lower, "exact envelopes of one 8 B allreduce at p=4 under set_fake_hosts(2); no end-to-end workload reaches it at p=2"),
    // --- mpi.net.wire ---
    m("mpi.net.wire.encode_ns_per_frame_8B", "ns", Lower, "Frame::Data with 8 B payload, encode -> mpi.net.ring.small_rtt_us"),
    m("mpi.net.wire.encode_mib_per_s_1MiB", "MiB/s", Higher, "Frame::Data with 1 MiB payload, encode -> payload_mib_per_s on stream-*"),
    m("mpi.net.wire.decode_mib_per_s_1MiB", "MiB/s", Higher, "the same frame, decode -> payload_mib_per_s on stream-*"),
    // --- mpi.net.ring ---
    m("mpi.net.ring.write_read_mib_per_s_1MiB", "MiB/s", Higher, "1 MiB frames RingTx::write -> Inbox::recv_into, two threads -> payload_mib_per_s on stream-large-ring"),
    m("mpi.net.ring.chunks_per_msg_1MiB", "count", Lower, "exact ring fills one 1 MiB frame needs -> payload_mib_per_s on stream-large-ring"),
    m("mpi.net.ring.small_rtt_us", "us", Lower, "8 B ping-pong of a launched shm-xproc pair: the small-on-ring guard an eager/rendezvous threshold must not move"),
    // --- mpi.net.socket ---
    m("mpi.net.socket.small_rtt_us", "us", Lower, "8 B ping-pong of a launched socket pair -> latency on stream-large-socket"),
    m("mpi.net.socket.deliver_us_16KiB", "us", Lower, "16 KiB message answered by an 8 B ack -> stream-large-socket"),
    m("mpi.net.socket.deliver_us_256KiB", "us", Lower, "256 KiB message answered by an 8 B ack -> stream-large-socket (the 40x jump)"),
    m("mpi.net.socket.send_call_us_1MiB", "us", Lower, "RawComm::send of 1 MiB over the socket, call to return -> payload_mib_per_s on stream-large-socket"),
    // --- mpi.universe / mpi.net.launch ---
    m("mpi.universe.spawn_ms_p2", "ms", Lower, "kamping::run(2) of an empty closure -> setup_s"),
    m("mpi.net.launch.rendezvous_ms_ring", "ms", Lower, "net::launch of a pair that only meets at a barrier, shm-xproc -> setup_s on stream-large-ring"),
    m("mpi.net.launch.rendezvous_ms_socket", "ms", Lower, "the same over sockets -> setup_s on stream-large-socket"),
    // --- sort (bench-side mirror of sample_sort_kamping) ---
    m("sort.local_sort_ms", "ms", Lower, "both local sorts of one mirrored op -> ops_per_s on sort-fig8 and nothing else"),
    m("sort.exchange_share", "ratio", Lower, "alltoallv_vec share of one mirrored op"),
    m("sort.alltoallv_bytes_per_op", "count", Lower, "exact bytes all ranks post in the exchange of equal parts"),
    m("sort.mirror_agrees", "count", Higher, "1 while the mirror's output equals sample_sort_kamping's"),
    // --- graphs (bench-side loop of bfs_kamping) ---
    m("graphs.expand_us_per_level", "us", Lower, "expand_frontier per level"),
    m("graphs.exchange_us_per_level", "us", Lower, "Exchanger::exchange per level"),
    m("graphs.absorb_us_per_level", "us", Lower, "absorb_candidates per level"),
    m("graphs.levels_per_bfs", "count", Lower, "mean levels per BFS over the RGG and GNM graphs"),
    m("graphs.msgs_per_level", "count", Lower, "exact envelopes per level of one mirrored sweep"),
    // --- per-span self time of the traced op, rank 0 (us per op) ---
    m("trace.self_us.op", "us", Lower, "driver loop outside any layer call"),
    m("trace.self_us.core.send", "us", Lower, "typed send calls"),
    m("trace.self_us.core.recv", "us", Lower, "typed recv calls (waiting for the peer included)"),
    m("trace.self_us.core.allgatherv", "us", Lower, "typed allgatherv_vec"),
    m("trace.self_us.core.alltoallv", "us", Lower, "typed alltoallv_vec"),
    m("trace.self_us.core.allreduce", "us", Lower, "typed allreduce_single"),
    m("trace.self_us.mpi.p2p.recv", "us", Lower, "plain recv calls (acks)"),
    m("trace.self_us.mpi.p2p.probe", "us", Lower, "plain probe calls"),
    m("trace.self_us.sort.local_sort", "us", Lower, "local sorts of the mirrored sample sort"),
    m("trace.self_us.sort.sample", "us", Lower, "sample drawing + splitter choice"),
    m("trace.self_us.graphs.expand", "us", Lower, "expand_frontier"),
    m("trace.self_us.graphs.exchange", "us", Lower, "Exchanger::exchange"),
    m("trace.self_us.graphs.absorb", "us", Lower, "absorb_candidates"),
    m("trace.self_time_cover", "ratio", Higher, "sum of span self times / traced op time on rank 0; 1.0 = every traced nanosecond is attributed"),
    m("trace.spans_dropped", "count", Lower, "spans refused because the pre-allocated buffer was full"),
];

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_run_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(metric.name), "{}", metric.name);
            assert!(ok_unit(metric.unit), "{} unit {}", metric.name, metric.unit);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let exact = |name| is_exact_count(per_layer(name).expect("declared"));
        assert!(exact("mpi.coll.msgs_per_allreduce_p4"));
        assert!(exact("mpi.net.ring.chunks_per_msg_1MiB"));
        assert!(exact("sort.alltoallv_bytes_per_op"));
        assert!(!exact("mpi.coll.barrier_us"));
        // A timing whose name happens to contain ".bytes_".
        assert!(!exact("core.bytes_to_vec_ns_per_kib"));
    }
}
