//! Chaos-hardened sharded serving soak over an elastic universe.
//!
//! Every rank is both a client and a shard server of a keyed counter
//! store. Keys are placed by a consistent-hash [`ShardMap`]; clients
//! route each request to the owner of its key and account for it in a
//! [`Ledger`]. A seeded chaos schedule kills ranks mid-run; survivors
//! observe the failure, shrink, rebalance (streaming owned entries along
//! the [`ShardMove`] plan), and the leader re-admits a parked rank so the
//! membership recovers — a full shrink → rebalance → grow cycle per kill.
//!
//! The invariant under all of that churn: **every accepted request
//! reaches exactly one terminal outcome** — answered once, or failed with
//! a typed error. Never lost, never duplicated. Requests are delivered
//! at-least-once (clients retry toward the current owner after a short
//! timeout) and deduplicated client-side: only the first response for an
//! id feeds the ledger, so transport-level redelivery does not violate
//! conservation.
//!
//! Run the soak and write the benchmark file consumed by CI's
//! `soak-guard` job:
//!
//! ```text
//! cargo run --release -p kamping-mpi --example elastic_service -- \
//!     --seeds 11,23,58 --duration-ms 4000 --min-cycles 3
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kamping_mpi::elastic::{ConservationReport, Ledger, ShardMap};
use kamping_mpi::{MembershipChange, MpiError, RawComm, Universe, ANY_SOURCE, ANY_TAG};

/// Request: `[id, key, requester_global]`, each a little-endian u64.
const TAG_REQ: u32 = 7001;
/// Response: `[id, hit_count]`.
const TAG_RESP: u32 = 7002;
/// Shard handoff along a `ShardMove`: `[key, hits]` pairs.
const TAG_HANDOFF: u32 = 7003;
/// Quiesce token: `[sender_global]`.
const TAG_DONE: u32 = 7004;

/// Client retry timeout: after this long without a response the request
/// is re-sent to the key's *current* owner.
const RETRY_AFTER: Duration = Duration::from_millis(25);
/// Per-rank cap on requests awaiting a response.
const WINDOW: usize = 16;
/// Drain-phase grace before pending requests are declared failed.
const FAILSAFE_GRACE: Duration = Duration::from_secs(10);

fn words(buf: &[u8]) -> Vec<u64> {
    buf.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn bytes(ws: &[u64]) -> Vec<u8> {
    ws.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// What one rank saw over the soak; aggregated by `main` after the run.
#[derive(Debug, Default, Clone)]
struct RankOutcome {
    global: usize,
    /// True when the chaos schedule killed this rank — its ledger is a
    /// crashed client's and is excluded from the conservation check.
    died: bool,
    report: ConservationReport,
    served: u64,
    shrinks: u64,
    grows: u64,
    handoff_keys: u64,
    retries: u64,
    stale_responses: u64,
}

struct PendingReq {
    key: u64,
    sent: Instant,
}

struct Service {
    /// Communicator of the current grow epoch — every shrink is derived
    /// from it, so concurrently-failing ranks converge on the same
    /// survivor context no matter how they batched the failures.
    base: RawComm,
    /// Latest shrink of `base`, when members have died since the epoch
    /// opened. All traffic runs on `active.unwrap_or(base)`.
    active: Option<RawComm>,
    map: ShardMap,
    store: HashMap<u64, u64>,
    ledger: Ledger,
    outstanding: HashMap<u64, PendingReq>,
    seq: u64,
    out: RankOutcome,
    /// Globals whose quiesce token arrived (tokens survive epoch
    /// transitions: a done rank stays done).
    done_from: HashSet<usize>,
    sent_done: bool,
}

impl Service {
    fn cur(&self) -> &RawComm {
        self.active.as_ref().unwrap_or(&self.base)
    }

    fn my_global(&self) -> usize {
        self.base.my_global_rank()
    }

    /// Globals of the live members of the current communicator.
    fn live_globals(&self) -> Vec<usize> {
        let cur = self.cur();
        cur.survivors()
            .iter()
            .map(|&l| cur.global_rank(l).expect("survivor local rank"))
            .collect()
    }

    /// Re-shards onto the current live membership and streams entries
    /// this rank no longer owns to their new owners.
    fn rebalance(&mut self) {
        let live = self.live_globals();
        let (next, moves) = self.map.rebalance(&live, self.map.epoch() + 1);
        let me = self.my_global();
        for mv in moves.iter().filter(|m| m.from == me && m.to != me) {
            let moving: Vec<u64> = self
                .store
                .keys()
                .copied()
                .filter(|&k| mv.covers(k))
                .collect();
            if moving.is_empty() {
                continue;
            }
            let mut payload = Vec::with_capacity(moving.len() * 2);
            for k in &moving {
                let hits = self.store.remove(k).unwrap_or(0);
                payload.push(*k);
                payload.push(hits);
            }
            self.out.handoff_keys += moving.len() as u64;
            if let Some(dest) = self.cur().local_rank_of(mv.to) {
                // A destination dying this instant just drops the hit
                // counters — conservation is about request outcomes, not
                // store contents.
                let _ = self.cur().send(dest, TAG_HANDOFF, &bytes(&payload));
            }
        }
        self.map = next;
    }

    /// Serves one request locally and reports the updated hit count.
    fn serve(&mut self, key: u64) -> u64 {
        let hits = self.store.entry(key).or_insert(0);
        *hits += 1;
        self.out.served += 1;
        *hits
    }

    /// Sends `payload` to global rank `to` on the current communicator,
    /// dropping it silently when `to` is not addressable (died or not a
    /// member of this epoch) — retries and the failsafe cover the loss.
    fn post(&self, to: usize, tag: u32, payload: &[u64]) {
        if let Some(dest) = self.cur().local_rank_of(to) {
            let _ = self.cur().send(dest, tag, &bytes(payload));
        }
    }

    /// Issues one fresh request toward the owner of a deterministic key.
    fn issue(&mut self, seed: u64) {
        let me = self.my_global();
        let key = kamping_mpi::elastic::key_hash(
            seed.wrapping_add((me as u64) << 32).wrapping_add(self.seq),
        ) % 4096;
        let id = ((me as u64) << 48) | self.seq;
        self.seq += 1;
        self.ledger.accept(id);
        let owner = self.map.owner(key);
        if owner == me {
            self.serve(key);
            self.ledger.answer(id);
        } else {
            self.outstanding.insert(
                id,
                PendingReq {
                    key,
                    sent: Instant::now(),
                },
            );
            self.post(owner, TAG_REQ, &[id, key, me as u64]);
        }
    }

    /// Re-sends aged requests to their key's *current* owner — the owner
    /// may have changed if the original died. Serves locally when the
    /// reshuffled map now points at us.
    fn retry_sweep(&mut self) {
        let me = self.my_global();
        let aged: Vec<(u64, u64)> = self
            .outstanding
            .iter()
            .filter(|(_, p)| p.sent.elapsed() >= RETRY_AFTER)
            .map(|(&id, p)| (id, p.key))
            .collect();
        for (id, key) in aged {
            let owner = self.map.owner(key);
            if owner == me {
                self.outstanding.remove(&id);
                self.serve(key);
                self.ledger.answer(id);
            } else {
                self.out.retries += 1;
                if let Some(p) = self.outstanding.get_mut(&id) {
                    p.sent = Instant::now();
                }
                self.post(owner, TAG_REQ, &[id, key, me as u64]);
            }
        }
    }

    /// Drains every queued message of one tag, handling each. Returns how
    /// many messages were handled.
    fn drain(&mut self, tag: u32) -> usize {
        let mut handled = 0;
        loop {
            let got = self.cur().recv_timeout(ANY_SOURCE, tag, Duration::ZERO);
            let Ok((buf, _status)) = got else { break };
            handled += 1;
            let w = words(&buf);
            match tag {
                TAG_REQ => {
                    let (id, key, requester) = (w[0], w[1], w[2] as usize);
                    let hits = self.serve(key);
                    if requester == self.my_global() {
                        if self.outstanding.remove(&id).is_some() {
                            self.ledger.answer(id);
                        }
                    } else {
                        self.post(requester, TAG_RESP, &[id, hits]);
                    }
                }
                TAG_RESP => {
                    let id = w[0];
                    if self.outstanding.remove(&id).is_some() {
                        self.ledger.answer(id);
                    } else {
                        // A retry raced the original answer; only the
                        // first response fed the ledger.
                        self.out.stale_responses += 1;
                    }
                }
                TAG_HANDOFF => {
                    for pair in w.chunks_exact(2) {
                        *self.store.entry(pair[0]).or_insert(0) += pair[1];
                    }
                }
                TAG_DONE => {
                    self.done_from.insert(w[0] as usize);
                }
                _ => unreachable!("unknown service tag {tag}"),
            }
        }
        handled
    }

    fn drain_all(&mut self) -> usize {
        self.drain(TAG_REQ) + self.drain(TAG_RESP) + self.drain(TAG_HANDOFF) + self.drain(TAG_DONE)
    }

    /// Broadcasts this rank's quiesce token on the current epoch.
    fn broadcast_done(&mut self) {
        let me = self.my_global();
        self.done_from.insert(me);
        for g in self.live_globals() {
            if g != me {
                self.post(g, TAG_DONE, &[me as u64]);
            }
        }
        self.sent_done = true;
    }
}

/// One rank's life in the soak. `deadline` is shared by every rank
/// (joiners included) so the quiesce protocol starts in lockstep.
fn run_rank(
    comm: RawComm,
    seed: u64,
    deadline: Instant,
    can_admit: bool,
    min_issue: u64,
) -> RankOutcome {
    let failsafe = deadline + FAILSAFE_GRACE;
    let global = comm.my_global_rank();
    let initial_members: Vec<usize> = (0..comm.size())
        .map(|l| comm.global_rank(l).expect("member local rank"))
        .collect();
    let mut svc = Service {
        map: ShardMap::new(&initial_members, 0),
        base: comm,
        active: None,
        store: HashMap::new(),
        ledger: Ledger::new(),
        outstanding: HashMap::new(),
        seq: 0,
        out: RankOutcome {
            global,
            ..Default::default()
        },
        done_from: HashSet::new(),
        sent_done: false,
    };
    let mut admit_allowed = can_admit;

    loop {
        let now = Instant::now();
        let draining = now >= deadline;

        // --- Membership churn -----------------------------------------
        let change = svc
            .cur()
            .await_membership_change_timeout(Duration::ZERO)
            .ok();
        match change {
            Some(MembershipChange::Failure(_)) => {
                if !svc.cur().survivors().contains(&svc.cur().rank()) {
                    // The chaos schedule killed *us*: this client
                    // crashed, its ledger dies with it.
                    svc.out.died = true;
                    svc.out.report = svc.ledger.report();
                    return svc.out;
                }
                if draining {
                    // Ranks may already have finished cleanly; a shrink
                    // would wait on them forever. The quiesce set below
                    // recomputes against the survivors instead.
                } else {
                    // All ranks shrink from the same per-epoch base, so
                    // everyone converges on the same survivor context
                    // even when failures are observed in different
                    // batches (a failure mid-shrink surfaces as a typed
                    // error here; the retry re-reads the survivor set).
                    let shrunk = loop {
                        match svc.base.shrink() {
                            Ok(c) => break Some(c),
                            Err(e) if e.is_failure() => continue,
                            Err(_) => break None,
                        }
                    };
                    let Some(shrunk) = shrunk else {
                        // `Internal`: we were marked failed mid-shrink.
                        svc.out.died = true;
                        svc.out.report = svc.ledger.report();
                        return svc.out;
                    };
                    svc.active = Some(shrunk);
                    svc.out.shrinks += 1;
                    svc.sent_done = false;
                    svc.rebalance();
                    // Leader (lowest live global) restores capacity by
                    // admitting one parked rank — the grow half of the
                    // cycle. `Config` means no parked ranks remain (or a
                    // socket launch, where the rendezvous monitor admits
                    // joiners instead).
                    if admit_allowed
                        && svc.cur().rank() == 0
                        && now + Duration::from_millis(500) < deadline
                    {
                        match svc.cur().spawn_merge(1) {
                            Ok(grown) => {
                                svc.base = grown;
                                svc.active = None;
                                svc.out.grows += 1;
                                svc.sent_done = false;
                                svc.rebalance();
                            }
                            Err(MpiError::Config(_)) => admit_allowed = false,
                            Err(_) => {}
                        }
                    }
                }
            }
            Some(MembershipChange::Grow(_)) => match svc.base.grow() {
                Ok(grown) => {
                    svc.base = grown;
                    svc.active = None;
                    svc.out.grows += 1;
                    svc.sent_done = false;
                    svc.rebalance();
                }
                Err(e) if e.is_failure() => {}
                Err(_) => {}
            },
            None => {}
        }

        // --- Serve, collect, issue ------------------------------------
        let handled = svc.drain_all();

        if !draining {
            while svc.outstanding.len() < WINDOW {
                svc.issue(seed);
            }
        }
        svc.retry_sweep();

        // --- Quiesce --------------------------------------------------
        if draining {
            // Issue a floor of requests even if admitted late, so every
            // rank exercises the ledger at least once. Never after the
            // quiesce token went out — done means done.
            if svc.seq < min_issue && !svc.sent_done {
                svc.issue(seed);
            }
            if svc.outstanding.is_empty() && !svc.sent_done && svc.seq >= min_issue {
                svc.broadcast_done();
            }
            if svc.sent_done && svc.outstanding.is_empty() {
                let live = svc.live_globals();
                if live.iter().all(|g| svc.done_from.contains(g)) {
                    break;
                }
            }
            if now >= failsafe {
                let ids: Vec<u64> = svc.outstanding.keys().copied().collect();
                for id in ids {
                    svc.ledger.fail(id);
                }
                svc.outstanding.clear();
                break;
            }
        }

        if handled == 0 {
            // Idle: wait for the next message (or 200 us), not a blind
            // sleep through it. Timing out is the common idle outcome.
            let _ = svc
                .cur()
                .probe_timeout(ANY_SOURCE, ANY_TAG, Duration::from_micros(200));
        }
    }

    svc.out.report = svc.ledger.report();
    svc.out
}

struct SeedRun {
    outcomes: Vec<RankOutcome>,
    wall: Duration,
    msgs_per_s_peak: u64,
}

fn run_seed(
    seed: u64,
    initial: usize,
    capacity: usize,
    duration: Duration,
    min_issue: u64,
) -> SeedRun {
    // Kill as many ranks as can be re-admitted (never the leader, global
    // 0): ranks 1.. at staggered message budgets, so each kill lands in
    // an already-recovered membership and forces a fresh cycle.
    let kills = (capacity - initial).min(3).min(initial.saturating_sub(1));
    let budgets = [1500u64, 5000, 9000];
    let directives: Vec<String> = budgets
        .iter()
        .take(kills)
        .enumerate()
        .map(|(i, b)| format!("kill={}@{b}", i + 1))
        .collect();
    let spec = format!("{seed}:{}", directives.join(","));
    let metrics_path = std::env::temp_dir().join(format!("elastic_service_{seed}.jsonl"));
    let _ = std::fs::remove_file(&metrics_path);
    std::env::set_var("KAMPING_CHAOS", &spec);
    std::env::set_var("KAMPING_METRICS", &metrics_path);
    std::env::set_var("KAMPING_METRICS_INTERVAL_MS", "200");

    let started = Instant::now();
    let deadline = started + duration;
    let outcomes = Mutex::new(Vec::new());
    Universe::run_elastic(initial, capacity, |comm| {
        let out = run_rank(comm, seed, deadline, true, min_issue);
        outcomes.lock().unwrap().push(out);
    })
    .expect("elastic soak run failed");
    let wall = started.elapsed();

    std::env::remove_var("KAMPING_CHAOS");
    std::env::remove_var("KAMPING_METRICS");
    std::env::remove_var("KAMPING_METRICS_INTERVAL_MS");

    let mut msgs_per_s_peak = 0u64;
    if let Ok(text) = std::fs::read_to_string(&metrics_path) {
        for line in text.lines() {
            if let Some(v) = kamping_mpi::metrics::scrape_u64(line, "msgs_per_s") {
                msgs_per_s_peak = msgs_per_s_peak.max(v);
            }
        }
    }
    let _ = std::fs::remove_file(&metrics_path);

    let mut outcomes = outcomes.into_inner().unwrap();
    outcomes.sort_by_key(|o| o.global);
    SeedRun {
        outcomes,
        wall,
        msgs_per_s_peak,
    }
}

fn main() {
    let mut seeds: Vec<u64> = vec![11, 23, 58];
    let mut duration_ms: u64 = 4000;
    let mut initial: usize = 4;
    let mut capacity: usize = 7;
    let mut min_cycles: u64 = 3;
    let mut out_path: Option<String> = None;
    let mut guard = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value"))
                .clone()
        };
        match args[i].as_str() {
            "--seeds" => {
                seeds = val(&mut i)
                    .split(',')
                    .map(|s| s.parse().expect("bad seed"))
                    .collect()
            }
            "--duration-ms" => duration_ms = val(&mut i).parse().expect("bad duration"),
            "--initial" => initial = val(&mut i).parse().expect("bad initial"),
            "--capacity" => capacity = val(&mut i).parse().expect("bad capacity"),
            "--min-cycles" => min_cycles = val(&mut i).parse().expect("bad min-cycles"),
            "--out" => out_path = Some(val(&mut i)),
            "--guard" => guard = true,
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let mut rows = Vec::new();
    let mut min_rps = f64::INFINITY;
    for &seed in &seeds {
        let run = run_seed(
            seed,
            initial,
            capacity,
            Duration::from_millis(duration_ms),
            8,
        );

        // Aggregate conservation over the ranks that survived; a killed
        // rank is a crashed client whose ledger died with it.
        let mut acc = ConservationReport::default();
        let mut served = 0u64;
        let mut handoff = 0u64;
        let mut retries = 0u64;
        let mut deaths = 0u64;
        for o in &run.outcomes {
            if o.died {
                deaths += 1;
                continue;
            }
            acc.accepted += o.report.accepted;
            acc.answered += o.report.answered;
            acc.failed += o.report.failed;
            acc.lost += o.report.lost;
            acc.duplicated += o.report.duplicated;
            served += o.served;
            handoff += o.handoff_keys;
            retries += o.retries;
        }
        assert!(
            acc.holds(),
            "seed {seed}: conservation violated — {acc:?} (outcomes: {:?})",
            run.outcomes
        );
        assert!(acc.lost == 0 && acc.duplicated == 0);

        let leader = run
            .outcomes
            .iter()
            .find(|o| o.global == 0)
            .expect("rank 0 outcome");
        assert!(
            !leader.died,
            "seed {seed}: the chaos schedule must not kill the leader"
        );
        assert!(
            leader.shrinks >= min_cycles && leader.grows >= min_cycles,
            "seed {seed}: only {} shrink(s) / {} grow(s) on the leader — \
             need {min_cycles} full cycles",
            leader.shrinks,
            leader.grows,
        );

        let rps = acc.answered as f64 / run.wall.as_secs_f64();
        min_rps = min_rps.min(rps);
        println!(
            "seed {seed}: {} accepted, {} answered, {} failed, 0 lost, 0 dup | \
             {} kills, {} shrinks, {} grows (leader), {} handoff keys, {} retries | \
             {:.0} req/s over {:?}, peak {} msgs/s",
            acc.accepted,
            acc.answered,
            acc.failed,
            deaths,
            leader.shrinks,
            leader.grows,
            handoff,
            retries,
            rps,
            run.wall,
            run.msgs_per_s_peak,
        );
        rows.push(format!(
            "    {{\"seed\": {seed}, \"accepted\": {}, \"answered\": {}, \"failed\": {}, \
             \"lost\": {}, \"duplicated\": {}, \"kills\": {deaths}, \"shrinks\": {}, \
             \"grows\": {}, \"handoff_keys\": {handoff}, \"retries\": {retries}, \
             \"served\": {served}, \"throughput_rps\": {rps:.1}, \
             \"msgs_per_s_peak\": {}, \"wall_ms\": {}}}",
            acc.accepted,
            acc.answered,
            acc.failed,
            acc.lost,
            acc.duplicated,
            leader.shrinks,
            leader.grows,
            run.msgs_per_s_peak,
            run.wall.as_millis(),
        ));
    }

    let seeds_json = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"elastic_service\",\n  \"initial\": {initial},\n  \
         \"capacity\": {capacity},\n  \"duration_ms\": {duration_ms},\n  \
         \"seeds\": [{seeds_json}],\n  \"min_throughput_rps\": {min_rps:.1},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let committed =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_elastic.json");
    let out = out_path.unwrap_or_else(|| {
        // Guard mode compares against the committed baseline, so it must
        // not overwrite it.
        let name = if guard {
            "../../BENCH_elastic_ci.json"
        } else {
            "../../BENCH_elastic.json"
        };
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(name)
            .to_string_lossy()
            .into_owned()
    });
    std::fs::write(&out, json).expect("write benchmark file");
    println!("wrote {out}");

    if guard {
        // Throughput floor against the committed baseline. CI machines
        // are slower and more contended than the machine that produced
        // the baseline, so the gate is a generous 16x allowance — it
        // catches collapse (a livelocked retry loop, a wedged epoch),
        // not ordinary machine-to-machine variance.
        let text = std::fs::read_to_string(&committed).expect("committed BENCH_elastic.json");
        let baseline: f64 = text
            .lines()
            .find_map(|l| {
                let rest = l.split("\"min_throughput_rps\":").nth(1)?;
                rest.trim_start().trim_end_matches(',').trim().parse().ok()
            })
            .expect("committed baseline has min_throughput_rps");
        let floor = baseline / 16.0;
        assert!(
            min_rps >= floor,
            "throughput floor violated: {min_rps:.0} req/s < {floor:.0} \
             (committed baseline {baseline:.0} / 16)"
        );
        println!("guard: {min_rps:.0} req/s >= floor {floor:.0} (baseline {baseline:.0})");
    }
}
