//! Behaviour matrix of the named-parameter layer (paper §III-A/B/C/H).
//!
//! Every subset of optional parameters of the four v-collectives and every
//! receive-buffer form of every collective that takes one is run at
//! p ∈ {1, 3, 4} with ragged block sizes (including empty blocks) against an
//! oracle that talks to `comm.raw()` only, and each cell's substrate call
//! counts are checked through `run_profiled`: a provided count costs no
//! extra exchange, an omitted one exactly one per rank (§III-H). The
//! blocking `recv` runs its eight receive-buffer forms at p = 2 for inline,
//! just-past-inline and 1 MiB messages, entered before and after the
//! message arrives.

use kamping::prelude::*;
use kamping::result::CallResult;
use kamping::run_profiled;
use kamping_mpi::{Op, RawComm};

const PS: [usize; 3] = [1, 3, 4];
const W: usize = std::mem::size_of::<u64>();

/// Ragged per-rank block length (rank 1 contributes nothing).
fn ragged(rank: usize) -> usize {
    [2, 0, 3, 1][rank % 4]
}

/// Elements rank `src` addresses to rank `dest` in the all-to-all cells.
fn pair_count(src: usize, dest: usize) -> usize {
    (src + 2 * dest) % 3
}

/// `n` distinct non-zero elements (zero is what an untouched gap reads as).
fn block(tag: usize, n: usize) -> Vec<u64> {
    (1..=n).map(|i| (tag * 100 + i) as u64).collect()
}

fn bytes(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn words(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(W)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn scaled(counts: &[usize]) -> Vec<usize> {
    counts.iter().map(|c| c * W).collect()
}

fn prefix(counts: &[usize]) -> Vec<usize> {
    counts
        .iter()
        .scan(0, |acc, &c| Some(std::mem::replace(acc, *acc + c)))
        .collect()
}

/// Displacements that reverse the rank order and leave a one-element gap
/// after every block.
fn gapped(counts: &[usize]) -> Vec<usize> {
    (0..counts.len())
        .map(|r| counts[r + 1..].iter().map(|c| c + 1).sum())
        .collect()
}

/// Elements a buffer laid out by `counts`/`displs` spans.
fn extent(counts: &[usize], displs: &[usize]) -> usize {
    let ends = counts.iter().zip(displs).map(|(c, d)| c + d);
    ends.max().unwrap_or(0)
}

/// Copies the blocks of rank-ordered `concat` to their `displs` in `out`.
fn place_into(out: &mut [u64], concat: &[u64], counts: &[usize], displs: &[usize]) {
    let mut src = 0;
    for (&c, &d) in counts.iter().zip(displs) {
        out[d..d + c].copy_from_slice(&concat[src..src + c]);
        src += c;
    }
}

/// Lays rank-ordered `concat` out by `displs` into a zeroed buffer.
fn placed(concat: &[u64], counts: &[usize], displs: &[usize]) -> Vec<u64> {
    let mut out = vec![0; extent(counts, displs)];
    place_into(&mut out, concat, counts, displs);
    out
}

/// What a call handed back, with unrequested out-values as `None`.
#[derive(Debug, PartialEq)]
struct Outcome {
    buf: Vec<u64>,
    counts: Option<Vec<usize>>,
    displs: Option<Vec<usize>>,
}

trait OutSlot {
    fn opt(self) -> Option<Vec<usize>>;
}
impl OutSlot for Absent {
    fn opt(self) -> Option<Vec<usize>> {
        None
    }
}
impl OutSlot for Vec<usize> {
    fn opt(self) -> Option<Vec<usize>> {
        Some(self)
    }
}

fn outcome<C: OutSlot, D: OutSlot>(r: KResult<CallResult<Vec<u64>, C, D>>) -> Outcome {
    let mut r = r.unwrap();
    Outcome {
        buf: r.extract_recv_buf(),
        counts: r.extract_recv_counts().opt(),
        displs: r.extract_recv_displs().opt(),
    }
}

/// How a cell treats one count-like parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum P {
    Unset,
    Given,
    Out,
}

/// Runs `cell` on `p` profiled ranks, compares every rank's outcome with
/// the raw oracle's and returns the profile for the call-count assertions.
fn check<I: Sync>(
    what: &str,
    p: usize,
    input: impl Fn(&RawComm) -> I + Sync,
    oracle: impl Fn(&RawComm, &I) -> Outcome + Sync,
    cell: impl Fn(&Communicator, &I) -> Outcome + Sync,
) -> kamping_mpi::ProfileSnapshot {
    let want = kamping::run(p, |comm| oracle(comm.raw(), &input(comm.raw())));
    let (got, profile) = run_profiled(p, |comm| cell(&comm, &input(comm.raw())));
    assert_eq!(got, want, "{what} at p={p}");
    profile
}

fn assert_calls(profile: &kamping_mpi::ProfileSnapshot, op: Op, want: usize, what: &str) {
    assert_eq!(profile.total_calls(op), want as u64, "{what}: {op:?} calls");
}

// --- allgatherv ---------------------------------------------------------------

struct AgIn {
    mine: Vec<u64>,
    counts: Vec<usize>,
    displs: Vec<usize>,
}

fn ag_input(raw: &RawComm) -> AgIn {
    let counts: Vec<usize> = (0..raw.size()).map(ragged).collect();
    AgIn {
        mine: block(raw.rank(), ragged(raw.rank())),
        displs: gapped(&counts),
        counts,
    }
}

fn ag_oracle(raw: &RawComm, i: &AgIn, c: P, d: P) -> Outcome {
    let lens = words(&raw.allgather(&bytes(&[i.mine.len() as u64])).unwrap());
    let counts: Vec<usize> = lens.iter().map(|&n| n as usize).collect();
    let concat = words(&raw.allgatherv(&bytes(&i.mine), &scaled(&counts)).unwrap());
    let canonical = prefix(&counts);
    let displs = if d == P::Given { &i.displs } else { &canonical };
    Outcome {
        buf: placed(&concat, &counts, displs),
        counts: (c == P::Out).then(|| counts.clone()),
        displs: (d == P::Out).then_some(canonical.clone()),
    }
}

type AgCell = fn(&Communicator, &AgIn) -> Outcome;

#[rustfmt::skip]
const ALLGATHERV: [(P, P, AgCell); 9] = [
    (P::Unset, P::Unset, |c, i| outcome(c.allgatherv(send_buf(&i.mine)).call())),
    (P::Unset, P::Given, |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_displs(&i.displs).call())),
    (P::Unset, P::Out,   |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_displs_out().call())),
    (P::Given, P::Unset, |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_counts(&i.counts).call())),
    (P::Given, P::Given, |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_displs(&i.displs).recv_counts(&i.counts).call())),
    (P::Given, P::Out,   |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_counts(&i.counts).recv_displs_out().call())),
    (P::Out,   P::Unset, |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_counts_out().call())),
    (P::Out,   P::Given, |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_counts_out().recv_displs(&i.displs).call())),
    (P::Out,   P::Out,   |c, i| outcome(c.allgatherv(send_buf(&i.mine)).recv_displs_out().recv_counts_out().call())),
];

#[test]
fn allgatherv_every_parameter_subset() {
    for p in PS {
        for (c, d, cell) in ALLGATHERV {
            let what = format!("allgatherv counts={c:?} displs={d:?}");
            let profile = check(&what, p, ag_input, |raw, i| ag_oracle(raw, i, c, d), cell);
            assert_calls(&profile, Op::Allgatherv, p, &what);
            let extra = if c == P::Given { 0 } else { p };
            assert_calls(&profile, Op::Allgather, extra, &what);
        }
    }
}

// --- alltoallv ----------------------------------------------------------------

struct AaIn {
    /// Blocks back to back.
    packed: Vec<u64>,
    /// The same blocks at `send_displs`, junk in the gaps.
    spread: Vec<u64>,
    send_counts: Vec<usize>,
    send_displs: Vec<usize>,
    recv_counts: Vec<usize>,
    recv_displs: Vec<usize>,
}

fn aa_input(raw: &RawComm) -> AaIn {
    let (p, me) = (raw.size(), raw.rank());
    let send_counts: Vec<usize> = (0..p).map(|d| pair_count(me, d)).collect();
    let recv_counts: Vec<usize> = (0..p).map(|s| pair_count(s, me)).collect();
    let packed: Vec<u64> = (0..p)
        .flat_map(|d| block(me * 10 + d, send_counts[d]))
        .collect();
    let send_displs = gapped(&send_counts);
    let mut spread: Vec<u64> = (0..=extent(&send_counts, &send_displs))
        .map(|i| 999_000 + i as u64)
        .collect();
    place_into(&mut spread, &packed, &send_counts, &send_displs);
    AaIn {
        packed,
        spread,
        send_counts,
        send_displs,
        recv_displs: gapped(&recv_counts),
        recv_counts,
    }
}

fn aa_oracle(raw: &RawComm, i: &AaIn, c: P, d: P) -> Outcome {
    let wire: Vec<u64> = i.send_counts.iter().map(|&n| n as u64).collect();
    let lens = words(&raw.alltoall(&bytes(&wire)).unwrap());
    let counts: Vec<usize> = lens.iter().map(|&n| n as usize).collect();
    let (sc, rc) = (scaled(&i.send_counts), scaled(&counts));
    let concat = raw
        .alltoallv(&bytes(&i.packed), &sc, &prefix(&sc), &rc, &prefix(&rc))
        .unwrap();
    let canonical = prefix(&counts);
    let displs = if d == P::Given {
        &i.recv_displs
    } else {
        &canonical
    };
    Outcome {
        buf: placed(&words(&concat), &counts, displs),
        counts: (c == P::Out).then(|| counts.clone()),
        displs: (d == P::Out).then_some(canonical.clone()),
    }
}

type AaCell = fn(&Communicator, &AaIn) -> Outcome;

/// One alltoallv cell per {send_displs} × {recv_counts} × {recv_displs}.
macro_rules! aa_cells {
    ($( ($sd:ident, $c:ident, $d:ident) => $($m:ident $(($a:ident))?),* ;)*) => {
        [$((
            stringify!($sd), P::$c, P::$d,
            (|c, i| outcome(
                c.alltoallv(send_buf(&i.$sd), send_counts(&i.send_counts))
                    $(.$m($(&i.$a)?))*
                    .call(),
            )) as AaCell,
        ),)*]
    };
}

#[rustfmt::skip]
const ALLTOALLV: [(&str, P, P, AaCell); 18] = aa_cells![
    (packed, Unset, Unset) => ;
    (packed, Unset, Given) => recv_displs(recv_displs);
    (packed, Unset, Out)   => recv_displs_out;
    (packed, Given, Unset) => recv_counts(recv_counts);
    (packed, Given, Given) => recv_displs(recv_displs), recv_counts(recv_counts);
    (packed, Given, Out)   => recv_counts(recv_counts), recv_displs_out;
    (packed, Out,   Unset) => recv_counts_out;
    (packed, Out,   Given) => recv_counts_out, recv_displs(recv_displs);
    (packed, Out,   Out)   => recv_displs_out, recv_counts_out;
    (spread, Unset, Unset) => send_displs(send_displs);
    (spread, Unset, Given) => recv_displs(recv_displs), send_displs(send_displs);
    (spread, Unset, Out)   => send_displs(send_displs), recv_displs_out;
    (spread, Given, Unset) => recv_counts(recv_counts), send_displs(send_displs);
    (spread, Given, Given) => send_displs(send_displs), recv_displs(recv_displs), recv_counts(recv_counts);
    (spread, Given, Out)   => recv_counts(recv_counts), recv_displs_out, send_displs(send_displs);
    (spread, Out,   Unset) => send_displs(send_displs), recv_counts_out;
    (spread, Out,   Given) => recv_counts_out, send_displs(send_displs), recv_displs(recv_displs);
    (spread, Out,   Out)   => recv_displs_out, recv_counts_out, send_displs(send_displs);
];

#[test]
fn alltoallv_every_parameter_subset() {
    for p in PS {
        for (sd, c, d, cell) in ALLTOALLV {
            let what = format!("alltoallv send_buf={sd} counts={c:?} displs={d:?}");
            let profile = check(&what, p, aa_input, |raw, i| aa_oracle(raw, i, c, d), cell);
            assert_calls(&profile, Op::Alltoallv, p, &what);
            let extra = if c == P::Given { 0 } else { p };
            assert_calls(&profile, Op::Alltoall, extra, &what);
        }
    }
}

// --- gatherv / scatterv -------------------------------------------------------

struct RootedIn {
    root: usize,
    mine: Vec<u64>,
    counts: Vec<usize>,
}

fn rooted_input(root: usize) -> impl Fn(&RawComm) -> RootedIn + Sync {
    move |raw| RootedIn {
        root,
        mine: block(raw.rank(), ragged(raw.rank())),
        counts: (0..raw.size()).map(ragged).collect(),
    }
}

fn gv_oracle(raw: &RawComm, i: &RootedIn, c: P) -> Outcome {
    let lens = raw.gather(&bytes(&[i.mine.len() as u64]), i.root).unwrap();
    let counts: Option<Vec<usize>> = lens.map(|l| words(&l).iter().map(|&n| n as usize).collect());
    let byte_counts = counts.as_deref().map(scaled);
    let buf = raw
        .gatherv(&bytes(&i.mine), byte_counts.as_deref(), i.root)
        .unwrap();
    Outcome {
        buf: words(&buf.unwrap_or_default()),
        counts: (c == P::Out).then(|| counts.unwrap_or_default()),
        displs: None,
    }
}

type RootedCell = fn(&Communicator, &RootedIn) -> Outcome;

#[rustfmt::skip]
const GATHERV: [(P, RootedCell); 3] = [
    (P::Unset, |c, i| outcome(c.gatherv(send_buf(&i.mine)).root(i.root).call())),
    (P::Given, |c, i| outcome(c.gatherv(send_buf(&i.mine)).recv_counts(&i.counts).root(i.root).call())),
    (P::Out,   |c, i| outcome(c.gatherv(send_buf(&i.mine)).root(i.root).recv_counts_out().call())),
];

#[test]
fn gatherv_every_parameter_subset() {
    for p in PS {
        for root in [0, p - 1] {
            for (c, cell) in GATHERV {
                let what = format!("gatherv counts={c:?} root={root}");
                let oracle = |raw: &RawComm, i: &RootedIn| gv_oracle(raw, i, c);
                let profile = check(&what, p, rooted_input(root), oracle, cell);
                assert_calls(&profile, Op::Gatherv, p, &what);
                let extra = if c == P::Given { 0 } else { p };
                assert_calls(&profile, Op::Gather, extra, &what);
            }
        }
    }
}

/// The root's scatterv input: every rank's ragged block, back to back.
fn scatterv_source(i: &RootedIn, me: usize) -> (Vec<u64>, Vec<usize>) {
    if me != i.root {
        return (Vec::new(), Vec::new());
    }
    let data = (0..i.counts.len()).flat_map(|r| block(r, i.counts[r]));
    (data.collect(), i.counts.clone())
}

fn sv_oracle(raw: &RawComm, i: &RootedIn) -> Outcome {
    let parts: Vec<Vec<u8>> = (0..raw.size())
        .map(|r| bytes(&block(r, i.counts[r])))
        .collect();
    let (flat, counts) = (
        parts.concat(),
        parts.iter().map(Vec::len).collect::<Vec<_>>(),
    );
    let send = (raw.rank() == i.root).then_some((&flat[..], &counts[..]));
    Outcome {
        buf: words(&raw.scatterv(send, i.root).unwrap()),
        counts: None,
        displs: None,
    }
}

#[test]
fn scatterv_every_parameter_subset() {
    for p in PS {
        // Root 0 is also reachable as the default: both spellings are cells.
        let cells: [(usize, RootedCell); 3] = [
            (0, |c, i| {
                let (data, counts) = scatterv_source(i, c.rank());
                outcome(c.scatterv(send_buf(&data)).send_counts(&counts).call())
            }),
            (0, |c, i| {
                let (data, counts) = scatterv_source(i, c.rank());
                let call = c.scatterv(send_buf(&data)).root(i.root);
                outcome(call.send_counts(&counts).call())
            }),
            (p - 1, |c, i| {
                let (data, counts) = scatterv_source(i, c.rank());
                let call = c.scatterv(send_buf(&data)).send_counts(&counts);
                outcome(call.root(i.root).call())
            }),
        ];
        for (root, cell) in cells {
            let what = format!("scatterv root={root}");
            let profile = check(&what, p, rooted_input(root), sv_oracle, cell);
            assert_calls(&profile, Op::Scatterv, p, &what);
            for op in [Op::Scatter, Op::Gather, Op::Allgather, Op::Alltoall] {
                assert_calls(&profile, op, 0, &what);
            }
        }
    }
}

// --- receive-buffer forms -----------------------------------------------------

/// Runs `$start` (an expression building a call up to, not including, its
/// receive buffer) once per receive-buffer form and checks each against
/// `$want`, this rank's expected receive buffer.
macro_rules! recv_buf_forms {
    ($what:expr, $want:expr, $start:expr) => {{
        let what: &str = $what;
        let want: &[u64] = $want;
        let n = want.len();

        let by_value = $start.call().unwrap().into_recv_buf();
        assert_eq!(by_value, want, "{what}: by value");

        let mut exact = vec![7u64; n];
        $start.recv_buf(&mut exact).call().unwrap();
        assert_eq!(exact, want, "{what}: NoResize exact");

        let mut roomy = vec![7u64; n + 2];
        $start.recv_buf(&mut roomy).call().unwrap();
        assert_eq!(roomy[..n], *want, "{what}: NoResize roomy");
        assert_eq!(roomy[n..], [7, 7], "{what}: NoResize leaves the tail");

        let mut short = vec![7u64; n.saturating_sub(1)];
        match $start.recv_buf(&mut short).call() {
            Ok(_) => assert_eq!(n, 0, "{what}: NoResize too short must fail"),
            Err(KampingError::BufferTooSmall { needed, available }) => {
                assert_eq!(
                    (needed, available),
                    (n, n - 1),
                    "{what}: NoResize too short"
                )
            }
            Err(e) => panic!("{what}: NoResize too short: {e}"),
        }

        let mut fit = vec![7u64; n + 5];
        $start
            .recv_buf_resize::<ResizeToFit, u64>(&mut fit)
            .call()
            .unwrap();
        assert_eq!(fit, want, "{what}: ResizeToFit shrinks");

        let mut grow = Vec::new();
        $start
            .recv_buf_resize::<GrowOnly, u64>(&mut grow)
            .call()
            .unwrap();
        assert_eq!(grow, want, "{what}: GrowOnly grows");
        let mut grown = vec![7u64; n + 2];
        $start
            .recv_buf_resize::<GrowOnly, u64>(&mut grown)
            .call()
            .unwrap();
        assert_eq!(grown[..n], *want, "{what}: GrowOnly roomy");
        assert_eq!(grown.len(), n + 2, "{what}: GrowOnly never shrinks");

        let spare: Vec<u64> = Vec::with_capacity(n + 64);
        let (ptr, cap) = (spare.as_ptr(), spare.capacity());
        let reused = $start.recv_buf_owned(spare).call().unwrap().into_recv_buf();
        assert_eq!(reused, want, "{what}: owned");
        assert_eq!(
            (reused.as_ptr(), reused.capacity()),
            (ptr, cap),
            "{what}: owned buffer's allocation is reused"
        );
    }};
}

#[test]
fn every_receive_buffer_form_on_every_collective() {
    for p in PS {
        kamping::run(p, |comm| {
            let (raw, me) = (comm.raw(), comm.rank());
            let root = p - 1;

            let fixed = block(me, 2);
            let want = words(&raw.allgather(&bytes(&fixed)).unwrap());
            recv_buf_forms!("allgather", &want, comm.allgather(send_buf(&fixed)));

            let i = ag_input(raw);
            let want = ag_oracle(raw, &i, P::Unset, P::Unset).buf;
            recv_buf_forms!("allgatherv", &want, comm.allgatherv(send_buf(&i.mine)));
            let want = ag_oracle(raw, &i, P::Given, P::Given).buf;
            recv_buf_forms!(
                "allgatherv+displs",
                &want,
                comm.allgatherv(send_buf(&i.mine))
                    .recv_counts(&i.counts)
                    .recv_displs(&i.displs)
            );

            let square: Vec<u64> = (0..p).flat_map(|d| block(me * 10 + d, 2)).collect();
            let want = words(&raw.alltoall(&bytes(&square)).unwrap());
            recv_buf_forms!("alltoall", &want, comm.alltoall(send_buf(&square)));

            let i = aa_input(raw);
            let want = aa_oracle(raw, &i, P::Unset, P::Unset).buf;
            recv_buf_forms!(
                "alltoallv",
                &want,
                comm.alltoallv(send_buf(&i.packed), send_counts(&i.send_counts))
            );
            let want = aa_oracle(raw, &i, P::Unset, P::Given).buf;
            recv_buf_forms!(
                "alltoallv+displs",
                &want,
                comm.alltoallv(send_buf(&i.spread), send_counts(&i.send_counts))
                    .send_displs(&i.send_displs)
                    .recv_displs(&i.recv_displs)
            );

            let gathered = raw.gather(&bytes(&fixed), root).unwrap();
            let want = words(&gathered.unwrap_or_default());
            recv_buf_forms!("gather", &want, comm.gather(send_buf(&fixed)).root(root));

            let i = rooted_input(root)(raw);
            let want = gv_oracle(raw, &i, P::Unset).buf;
            recv_buf_forms!("gatherv", &want, comm.gatherv(send_buf(&i.mine)).root(root));

            let parts: Option<Vec<Vec<u8>>> =
                (me == root).then(|| (0..p).map(|r| bytes(&block(r, 2))).collect());
            let flat = parts.as_ref().map(|parts| parts.concat());
            let want = words(&raw.scatter(flat.as_deref(), root).unwrap());
            let source: Vec<u64> = parts.iter().flatten().flat_map(|b| words(b)).collect();
            recv_buf_forms!("scatter", &want, comm.scatter(send_buf(&source)).root(root));

            let want = sv_oracle(raw, &i).buf;
            let (data, counts) = scatterv_source(&i, me);
            recv_buf_forms!(
                "scatterv",
                &want,
                comm.scatterv(send_buf(&data))
                    .send_counts(&counts)
                    .root(root)
            );
        });
    }
}

// --- receive-buffer forms of the blocking receive -------------------------------

const GO: kamping_mpi::Tag = 1;
const DATA: kamping_mpi::Tag = 2;
const SENT: kamping_mpi::Tag = 3;
const RECV_FORMS: usize = 8;

/// Receives `want` from rank 0 once per receive-buffer form. `early`: the
/// receive is entered before the message is sent (it waits — on a
/// cross-process backend it would post its buffer); otherwise only once the
/// message is known to be in the mailbox.
fn recv_buf_forms_on_recv<T>(comm: &Communicator, want: &[T], junk: T, early: bool)
where
    T: PodType + PartialEq + std::fmt::Debug,
{
    let raw = comm.raw();
    let n = want.len();
    let what = format!("recv of {n} x {} B, early: {early}", T::SIZE);
    // Asks rank 0 for the next message; it follows every message with a
    // `SENT` marker, behind which the message is certain to have arrived.
    let start = || {
        raw.send(0, GO, &[]).unwrap();
        if !early {
            raw.recv(0, SENT).unwrap();
        }
        comm.recv::<T>(source(0)).tag(DATA)
    };
    let finish = |status: kamping_mpi::Status| {
        assert_eq!(
            (status.source, status.tag, status.bytes),
            (0, DATA, n * T::SIZE)
        );
        if early {
            raw.recv(0, SENT).unwrap();
        }
    };

    let (by_value, status) = start().call().unwrap();
    assert_eq!(by_value, want, "{what}: by value");
    finish(status);

    let mut exact = vec![junk; n];
    finish(start().recv_buf(&mut exact).call().unwrap().1);
    assert_eq!(exact, want, "{what}: NoResize exact");

    let mut roomy = vec![junk; n + 2];
    finish(start().recv_buf(&mut roomy).call().unwrap().1);
    assert_eq!(roomy[..n], *want, "{what}: NoResize roomy");
    assert_eq!(roomy[n..], [junk, junk], "{what}: NoResize leaves the tail");

    // Too short: the message is consumed, the buffer comes back as it was.
    let mut short = vec![junk; n - 1];
    match start().recv_buf(&mut short).call() {
        Err(KampingError::BufferTooSmall { needed, available }) => {
            assert_eq!(
                (needed, available),
                (n, n - 1),
                "{what}: NoResize too short"
            )
        }
        other => panic!("{what}: NoResize too short: {other:?}"),
    }
    assert_eq!(
        short,
        vec![junk; n - 1],
        "{what}: NoResize too short keeps the buffer"
    );
    if early {
        raw.recv(0, SENT).unwrap();
    }

    let mut fit = vec![junk; n + 5];
    finish(
        start()
            .recv_buf_resize::<ResizeToFit, _>(&mut fit)
            .call()
            .unwrap()
            .1,
    );
    assert_eq!(fit, want, "{what}: ResizeToFit shrinks");

    let mut grow = Vec::new();
    finish(
        start()
            .recv_buf_resize::<GrowOnly, _>(&mut grow)
            .call()
            .unwrap()
            .1,
    );
    assert_eq!(grow, want, "{what}: GrowOnly grows");
    let mut grown = vec![junk; n + 2];
    finish(
        start()
            .recv_buf_resize::<GrowOnly, _>(&mut grown)
            .call()
            .unwrap()
            .1,
    );
    assert_eq!(grown[..n], *want, "{what}: GrowOnly roomy");
    assert_eq!(grown.len(), n + 2, "{what}: GrowOnly never shrinks");

    let spare: Vec<T> = Vec::with_capacity(n + 64);
    let (ptr, cap) = (spare.as_ptr(), spare.capacity());
    let (reused, status) = start().recv_buf_owned(spare).call().unwrap();
    finish(status);
    assert_eq!(reused, want, "{what}: owned");
    assert_eq!(
        (reused.as_ptr(), reused.capacity()),
        (ptr, cap),
        "{what}: owned buffer's allocation is reused"
    );
}

/// Rank 0's side of [`recv_buf_forms_on_recv`].
fn serve_recv_forms<T: PodType>(comm: &Communicator, msg: &[T]) {
    for _ in 0..RECV_FORMS {
        comm.raw().recv(1, GO).unwrap();
        comm.send(send_buf(msg), destination(1))
            .tag(DATA)
            .call()
            .unwrap();
        comm.raw().send(1, SENT, &[]).unwrap();
    }
}

#[test]
fn every_receive_buffer_form_on_recv() {
    // Inline in the envelope, one byte past it, and 1 MiB; bytes and words.
    let bytes = |n: usize| -> Vec<u8> { (0..n).map(|i| (i * 7 + 1) as u8).collect() };
    let words = |n: usize| -> Vec<u64> { (1..=n as u64).map(|i| i * 0x0101_0101).collect() };
    kamping::run(2, |comm| {
        for early in [true, false] {
            for n in [8, 33, 1 << 20] {
                let msg = bytes(n);
                match comm.rank() {
                    0 => serve_recv_forms(&comm, &msg),
                    _ => recv_buf_forms_on_recv(&comm, &msg, 0xee, early),
                }
            }
            for n in [4, 5, 1 << 17] {
                let msg = words(n);
                match comm.rank() {
                    0 => serve_recv_forms(&comm, &msg),
                    _ => recv_buf_forms_on_recv(&comm, &msg, u64::MAX, early),
                }
            }
        }
    });
}
