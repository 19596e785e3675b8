//! Every collective algorithm as a schedule, and the one interpreter that
//! runs them. A [`Schedule`] is a pure function of the rank count, the
//! rank and the sizes: the number of tags it draws and a list of sends and
//! receives over one byte buffer per rank. [`Sched`] walks it with a
//! program counter. Sends are eager on every backend, so the only blocking
//! points of a collective are its receives: `step` runs every step up to
//! the first receive whose envelope has not arrived, and
//! [`Sched::awaited`] is that receive's peer.
//!
//! Schedules work on bytes and communicator-local ranks; the `RawComm`
//! entry points validate the arguments and build the starting buffer.

use std::borrow::Cow;
use std::sync::Arc;

use crate::coll::{combine, excl_prefix_sum};
use crate::error::{MpiError, MpiResult};
use crate::tag::coll_tag;
use crate::transport::Payload;

use super::StepCx;

/// One rank's place in a rooted tree: its parent (`None` at the root) and
/// its children, as communicator-local ranks. Generated only by
/// [`binomial_over`].
pub(crate) type Tree = (Option<usize>, Vec<usize>);

/// Binomial parent/children of rank `me` among `n` ranks, rooted at
/// `root`. Children are listed farthest subtree first. The only code
/// computing a tree shape: bcast, reduce and the tree allreduce all run
/// over its output.
pub(crate) fn binomial_over(n: usize, me: usize, root: usize) -> Tree {
    debug_assert!(me < n && root < n);
    let rel = (me + n - root) % n;
    let actual = |r: usize| (r + root) % n;
    let mut mask = 1usize;
    let parent = if rel == 0 {
        while mask < n {
            mask <<= 1;
        }
        None
    } else {
        while rel & mask == 0 {
            mask <<= 1;
        }
        Some(actual(rel - mask))
    };
    let mut children = Vec::new();
    mask >>= 1;
    while mask > 0 {
        if rel + mask < n {
            children.push(actual(rel + mask));
        }
        mask >>= 1;
    }
    (parent, children)
}

/// A `[from, to)` byte range.
pub(crate) type Run = (usize, usize);

/// The bytes a step names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Span {
    /// The whole buffer, whose length a tree schedule need not know. A
    /// send shares it (an owned buffer moves into the payload, which every
    /// later envelope aliases); a placing receive takes the peer's buffer.
    All,
    /// One byte range of the buffer: a send copies it out, a receive
    /// writes it.
    Range(Run),
    /// Byte ranges in order — Bruck's wrapped and strided block runs: a
    /// send concatenates them, a receive splits the message over them.
    Runs(Vec<Run>),
    /// A byte range of the caller's input, copied (sends only).
    Input(Run),
    /// A copy of the buffer with the input folded in on its right,
    /// `buf ∘ input` (sends only): exscan's running prefix.
    Folded,
}

/// What a receive does with the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Land {
    /// Replace the span's bytes with the message.
    Place,
    /// `span ∘= message`, elementwise.
    Fold,
    /// `buf = message ∘ buf`: the message is the lower ranks' prefix
    /// (scan; whole-buffer spans only).
    Prefix,
}

/// One step of a [`Schedule`]: a send of `span` to `peer`, or (with a
/// `land`) a receive from it. `tag` indexes the schedule's tags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) peer: usize,
    pub(crate) tag: u32,
    pub(crate) span: Span,
    pub(crate) land: Option<Land>,
}

fn send(peer: usize, tag: u32, span: Span) -> Step {
    Step {
        peer,
        tag,
        span,
        land: None,
    }
}

fn recv(peer: usize, tag: u32, span: Span, land: Land) -> Step {
    Step {
        peer,
        tag,
        span,
        land: Some(land),
    }
}

/// What a completed schedule returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Out {
    Buf,
    /// Nothing: the buffer went to a peer (a reduce below the root), or
    /// the caller holds the result already (the root of `bcast_from`).
    Nothing,
    /// The buffer holds Bruck's `p` slots of this many bytes, slot `j`
    /// from rank `me − j`: undo that rotation.
    Unrotate(usize),
}

/// One rank's part of a collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Schedule {
    /// How many collective tags the schedule draws.
    pub(crate) tags: u32,
    pub(crate) steps: Vec<Step>,
    pub(crate) out: Out,
}

impl Schedule {
    fn new(tags: u32, steps: Vec<Step>, out: Out) -> Self {
        Self { tags, steps, out }
    }
}

/// Dissemination barrier (⌈log₂ p⌉ zero-byte rounds). Round `i` signals
/// rank `me + 2^i` and waits for `me − 2^i`; after the last round every
/// rank transitively depends on every other. All step sizes are distinct
/// modulo `p`, so one tag serves every round.
pub(crate) fn barrier(p: usize, me: usize) -> Schedule {
    let rounds = (0..p.next_power_of_two().trailing_zeros()).map(|bit| 1usize << bit);
    let empty = || Span::Range((0, 0));
    let steps = rounds.flat_map(|s| {
        let from = (me + p - s) % p;
        [
            send((me + s) % p, 0, empty()),
            recv(from, 0, empty(), Land::Place),
        ]
    });
    Schedule::new(1, steps.collect(), Out::Nothing)
}

/// Up a tree on `tag`: fold the children in reverse list order — nearest
/// subtree first, so the combine order is a deterministic function of the
/// tree — then give the partial to the parent.
fn up((parent, children): &Tree, tag: u32) -> impl Iterator<Item = Step> + '_ {
    let folds = (children.iter().rev()).map(move |&c| recv(c, tag, Span::All, Land::Fold));
    folds.chain(parent.map(|q| send(q, tag, Span::All)))
}

/// Down a tree on `tag`: take the parent's buffer, then relay it to the
/// children, farthest subtree first so the longest relay chain starts
/// earliest. Every envelope of the fan-out aliases one shared payload.
fn down((parent, children): &Tree, tag: u32) -> impl Iterator<Item = Step> + '_ {
    let adopt = parent.map(|q| recv(q, tag, Span::All, Land::Place));
    let relay = children.iter().map(move |&c| send(c, tag, Span::All));
    adopt.into_iter().chain(relay)
}

/// Broadcast down the binomial tree rooted at `root`.
pub(crate) fn bcast(p: usize, me: usize, root: usize) -> Schedule {
    let steps = down(&binomial_over(p, me, root), 0).collect();
    Schedule::new(1, steps, Out::Buf)
}

/// Reduce up the binomial tree rooted at `root`: the root completes with
/// the reduction, every other rank empty.
pub(crate) fn reduce(p: usize, me: usize, root: usize) -> Schedule {
    let steps = up(&binomial_over(p, me, root), 0).collect();
    let out = if me == root { Out::Buf } else { Out::Nothing };
    Schedule::new(1, steps, out)
}

/// Reduce-to-all over the tree rooted at 0, on two tags: up, then the
/// result back down. A non-root gives its partial away before it waits
/// for the result, so it never blocks between the stages.
pub(crate) fn tree_allreduce(p: usize, me: usize) -> Schedule {
    let tree = binomial_over(p, me, 0);
    let steps = up(&tree, 0).chain(down(&tree, 1)).collect();
    Schedule::new(2, steps, Out::Buf)
}

/// Rabenseifner's allreduce for rank `me` of `p` over `count` elements of
/// `elem` bytes: a recursive-halving reduce-scatter, then a
/// recursive-doubling allgather — each rank moves ~2·(k−1)/k of the buffer
/// instead of log₂ k whole copies, with `k` the largest power of two ≤ `p`.
/// For any `p`, the first `2r = 2(p − k)` ranks pair up first: odd ranks
/// park their buffer with the even partner and get the result back at the
/// end.
///
/// The buffer is cut into `k` chunks at element granularity (a count
/// below `k` just leaves chunks empty). In the halving round at distance
/// `span` a rank owns the aligned window of `2·span` chunks around its
/// index: it ships the half the partner sits in and folds the partner's
/// contribution into its own half, ending with the reduction of one chunk.
/// The doubling rounds retrace the distances upwards: share the owned
/// window, place the partner's next to it. A pair meets in both phases on
/// the one tag; its two messages stay ordered because a channel never
/// overtakes.
pub(crate) fn rabenseifner(p: usize, me: usize, count: usize, elem: usize) -> Schedule {
    let k = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let r = p - k;
    let paired = me < 2 * r;
    if paired && me % 2 == 1 {
        let steps = vec![
            send(me - 1, 0, Span::All),
            recv(me - 1, 0, Span::All, Land::Place),
        ];
        return Schedule::new(1, steps, Out::Buf);
    }
    let idx = if paired { me / 2 } else { me - r };
    let partner = |j: usize| if j < r { 2 * j } else { j + r };
    // Bytes of the aligned window of `span` chunks holding chunk `i`.
    let window = |i: usize, span: usize| {
        let first = i & !(span - 1);
        let bound = |chunk: usize| chunk * count / k * elem;
        Span::Range((bound(first), bound(first + span)))
    };
    let distances = || (0..k.trailing_zeros()).map(|bit| 1usize << bit);
    let halving = distances().rev().flat_map(|span| {
        let (peer, theirs) = (partner(idx ^ span), window(idx ^ span, span));
        [
            send(peer, 0, theirs),
            recv(peer, 0, window(idx, span), Land::Fold),
        ]
    });
    let doubling = distances().flat_map(|span| {
        let (peer, theirs) = (partner(idx ^ span), window(idx ^ span, span));
        [
            send(peer, 0, window(idx, span)),
            recv(peer, 0, theirs, Land::Place),
        ]
    });
    let parked = paired.then_some(me + 1);
    let park = parked.map(|odd| recv(odd, 0, Span::All, Land::Fold));
    let unpark = parked.map(|odd| send(odd, 0, Span::Range((0, count * elem))));
    let steps = park
        .into_iter()
        .chain(halving)
        .chain(doubling)
        .chain(unpark);
    Schedule::new(1, steps.collect(), Out::Buf)
}

/// Byte runs as a span, merged where they touch.
fn runs(runs: impl IntoIterator<Item = Run>) -> Span {
    let mut merged: Vec<Run> = Vec::new();
    for (a, b) in runs {
        match merged.last_mut() {
            Some(last) if last.1 == a => last.1 = b,
            _ => merged.push((a, b)),
        }
    }
    match merged[..] {
        [one] => Span::Range(one),
        _ => Span::Runs(merged),
    }
}

/// Bruck's allgatherv (any `p`, ⌈log₂ p⌉ messages per rank) over the
/// rank-ordered output, descending orientation, one tag for all rounds:
/// rank `me` accumulates the cyclic block run `me, me−1, …` — in each
/// round it sends its newest `m = min(cur, p − cur)` blocks to `me + cur`
/// and places the `m` blocks arriving from `me − cur` straight into the
/// output; `cur += m` until all `p` blocks are present.
///
/// Receiving from *lower* ranks matters when rank-threads share cores: a
/// round-robin scheduler tends to run low ranks first, so the data a rank
/// waits for has usually arrived. Blocks are cyclically contiguous in rank
/// order, so a round moves one or two runs — no final rotation.
pub(crate) fn allgatherv(p: usize, me: usize, counts: &[usize]) -> Schedule {
    let displs = excl_prefix_sum(counts);
    let end = |rank: usize| displs[rank] + counts[rank];
    // The cyclic ascending run of `m` blocks starting at rank `a`.
    let blocks = |a: usize, m: usize| match a + m <= p {
        true => runs([(displs[a], end(a + m - 1))]),
        false => runs([(displs[a], end(p - 1)), (0, end(a + m - p - 1))]),
    };
    let (mut steps, mut cur) = (Vec::new(), 1);
    while cur < p {
        let (m, src) = (cur.min(p - cur), (me + p - cur) % p);
        steps.push(send((me + cur) % p, 0, blocks((me + p - m + 1) % p, m)));
        steps.push(recv(src, 0, blocks((src + p - m + 1) % p, m), Land::Place));
        cur += m;
    }
    Schedule::new(1, steps, Out::Buf)
}

/// Bruck's all-to-all (1997) for small blocks of `block` bytes: ⌈log₂ p⌉
/// combined messages per rank instead of p − 1 direct ones, over the
/// [`permuted`] slots where slot `j` holds the block for rank `me + j`.
/// Invariant: the block that starts in slot `j` of rank `s` is forwarded
/// exactly on the rounds matching the set bits of `j`, always staying in
/// slot `j`; the bit values sum to `j`, so it lands at rank `s + j` —
/// which therefore finds the block *from* rank `me − j` in slot `j`
/// ([`Out::Unrotate`]). The slot set exchanged in round `k` (ascending `j`
/// with bit `k` set) is identical on every rank, so the wire is the bare
/// block concatenation. One tag per round keeps concurrent schedules
/// collision-free.
pub(crate) fn alltoall_bruck(p: usize, me: usize, block: usize) -> Schedule {
    let rounds = p.next_power_of_two().trailing_zeros();
    let steps = (0..rounds).flat_map(|k| {
        let dist = 1usize << k;
        let slots = (0..p).filter(|j| j & dist != 0);
        let moving = runs(slots.map(|j| (j * block, (j + 1) * block)));
        let from = (me + p - dist) % p;
        [
            send((me + dist) % p, k, moving.clone()),
            recv(from, k, moving, Land::Place),
        ]
    });
    Schedule::new(rounds, steps.collect(), Out::Unrotate(block))
}

/// `p` blocks of `block` bytes, block `i` taken from block `from(i)` of
/// `bytes`: Bruck's local rotations.
pub(crate) fn permuted(
    bytes: &[u8],
    p: usize,
    block: usize,
    from: impl Fn(usize) -> usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(p * block);
    for j in (0..p).map(from) {
        out.extend_from_slice(&bytes[j * block..(j + 1) * block]);
    }
    out
}

/// Linear variable all-to-all, the full `MPI_Alltoallv` surface: *every*
/// block but this rank's own goes out at once, straight from the input
/// (empty ones too — the linear startup cost the sparse/grid exchanges
/// exist to avoid), then the peers' blocks are placed in rank order into
/// the output, which starts with this rank's own block in place.
pub(crate) fn alltoallv(p: usize, me: usize, send_layout: Layout, recv_layout: Layout) -> Schedule {
    let block = |(counts, displs): Layout, r: usize| (displs[r], displs[r] + counts[r]);
    let peers = || (0..p).filter(move |&r| r != me);
    let sends = peers().map(|d| send(d, 0, Span::Input(block(send_layout, d))));
    let recvs = peers().map(|s| recv(s, 0, Span::Range(block(recv_layout, s)), Land::Place));
    Schedule::new(1, sends.chain(recvs).collect(), Out::Buf)
}

/// Byte counts and displacements per rank.
pub(crate) type Layout<'a> = (&'a [usize], &'a [usize]);

/// Linear gather to `root`: every other rank sends its `len` input bytes;
/// the root places them by `counts` in rank order into the output, which
/// starts with its own block in place (`counts` is read at the root only).
pub(crate) fn gatherv(p: usize, me: usize, root: usize, len: usize, counts: &[usize]) -> Schedule {
    if me != root {
        let steps = vec![send(root, 0, Span::Input((0, len)))];
        return Schedule::new(1, steps, Out::Nothing);
    }
    let displs = excl_prefix_sum(counts);
    let recvs = (0..p).filter(|&s| s != root).map(|s| {
        let span = Span::Range((displs[s], displs[s] + counts[s]));
        recv(s, 0, span, Land::Place)
    });
    Schedule::new(1, recvs.collect(), Out::Buf)
}

/// Linear scatter from `root`: the root sends every other rank its block
/// of the packed input (`counts` per rank, read at the root only) and
/// starts from a copy of its own; every other rank takes the root's
/// message.
pub(crate) fn scatterv(p: usize, me: usize, root: usize, counts: &[usize]) -> Schedule {
    if me != root {
        let steps = vec![recv(root, 0, Span::All, Land::Place)];
        return Schedule::new(1, steps, Out::Buf);
    }
    let displs = excl_prefix_sum(counts);
    let sends = (0..p).filter(|&d| d != root).map(|d| {
        let span = Span::Input((displs[d], displs[d] + counts[d]));
        send(d, 0, span)
    });
    Schedule::new(1, sends.collect(), Out::Buf)
}

/// Inclusive prefix reduction over `len` bytes, a chain: fold the lower
/// ranks' prefix in, pass a copy of the result on.
pub(crate) fn scan(p: usize, me: usize, len: usize) -> Schedule {
    let take = (me > 0).then(|| recv(me - 1, 0, Span::All, Land::Prefix));
    let pass = (me + 1 < p).then(|| send(me + 1, 0, Span::Range((0, len))));
    let steps = take.into_iter().chain(pass).collect();
    Schedule::new(1, steps, Out::Buf)
}

/// Exclusive prefix reduction over `len` input bytes, a chain: the lower
/// ranks' prefix is the result, and it goes on with this rank's input
/// folded in. Rank 0 has no result and passes its input on.
pub(crate) fn exscan(p: usize, me: usize, len: usize) -> Schedule {
    let take = (me > 0).then(|| recv(me - 1, 0, Span::All, Land::Place));
    let span = if me == 0 {
        Span::Input((0, len))
    } else {
        Span::Folded
    };
    let pass = (me + 1 < p).then(|| send(me + 1, 0, span));
    let out = if me == 0 { Out::Nothing } else { Out::Buf };
    Schedule::new(1, take.into_iter().chain(pass).collect(), out)
}

/// `MPI_Reduce_scatter_block` on two tags: reduce `p` blocks of `block`
/// bytes up the tree rooted at 0, then rank 0 sends every other rank its
/// block. Rank 0 completes with the whole reduction, its own block first.
pub(crate) fn reduce_scatter_block(p: usize, me: usize, block: usize) -> Schedule {
    let mut steps: Vec<Step> = up(&binomial_over(p, me, 0), 0).collect();
    if me == 0 {
        steps.extend((1..p).map(|d| send(d, 1, Span::Range((d * block, (d + 1) * block)))));
    } else {
        steps.push(recv(0, 1, Span::All, Land::Place));
    }
    Schedule::new(2, steps, Out::Buf)
}

/// A buffer of `total` zero bytes with `mine` at `at`: the output a
/// gathering schedule starts from.
pub(crate) fn placed(total: usize, at: usize, mine: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; total];
    out[at..at + mine.len()].copy_from_slice(mine);
    out
}

/// The collective interpreter: runs one rank's [`Schedule`] over its
/// buffer. `step` runs every step whose input is available and **never
/// blocks**; `Ok(Some(out))` means the schedule completed with result
/// bytes `out`, after which it is not stepped again. The inline driver
/// steps it from the owning thread only; a registered one is stepped under
/// its cell's lock, so `&mut self` is exclusive even though any thread may
/// drive it.
pub(crate) struct Sched<'a> {
    /// Sequence number of the first of the schedule's consecutive tags.
    first_seq: u32,
    schedule: Schedule,
    /// Index of the first step not yet run.
    pc: usize,
    /// Held as a payload so whole-buffer sends alias it; written through
    /// [`bytes_mut`].
    buf: Payload,
    /// The caller's bytes that [`Span::Input`] and [`Span::Folded`] read.
    input: Cow<'a, [u8]>,
}

impl<'a> Sched<'a> {
    pub(crate) fn new(
        first_seq: u32,
        schedule: Schedule,
        buf: Vec<u8>,
        input: Cow<'a, [u8]>,
    ) -> Self {
        let buf = Payload::from_vec(buf);
        Self {
            first_seq,
            schedule,
            pc: 0,
            buf,
            input,
        }
    }

    /// Advances as far as currently possible.
    pub(crate) fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while let Some(step) = self.schedule.steps.get(self.pc) {
            let tag = coll_tag(self.first_seq.wrapping_add(step.tag));
            if let Some(land) = step.land {
                let Some(theirs) = cx.try_take(step.peer, tag) else {
                    return Ok(None);
                };
                land_in(cx, &mut self.buf, theirs, &step.span, land)?;
            } else {
                let (buf, input) = (&self.buf, &self.input[..]);
                let payload = match &step.span {
                    Span::All => buf.clone(),
                    Span::Range((a, b)) => Payload::from_slice(&buf.as_slice()[*a..*b]),
                    Span::Runs(runs) => {
                        let parts: Vec<&[u8]> =
                            runs.iter().map(|&(a, b)| &buf.as_slice()[a..b]).collect();
                        Payload::from_vec(parts.concat())
                    }
                    Span::Input((a, b)) => Payload::from_slice(&input[*a..*b]),
                    Span::Folded => {
                        let mut acc = buf.as_slice().to_vec();
                        fold(cx, &mut acc, input)?;
                        Payload::from_vec(acc)
                    }
                };
                cx.post(step.peer, tag, payload);
            }
            self.pc += 1;
        }
        let buf = std::mem::replace(&mut self.buf, Payload::from_slice(&[]));
        Ok(Some(match self.schedule.out {
            Out::Buf => buf.into_vec(),
            Out::Nothing => Vec::new(),
            Out::Unrotate(block) => {
                let (p, me) = (cx.group.len(), cx.rank);
                permuted(buf.as_slice(), p, block, |i| (me + p - i) % p)
            }
        }))
    }

    /// Communicator-local rank whose message this schedule is blocked on
    /// (for fault attribution: if it is gone, the schedule can never
    /// complete). A schedule receives from one peer at a time.
    pub(crate) fn awaited(&self) -> Option<usize> {
        let step = self.schedule.steps.get(self.pc)?;
        step.land.map(|_| step.peer)
    }
}

/// The buffer's bytes, writable: a buffer an envelope still aliases is
/// copied first.
fn bytes_mut(buf: &mut Payload) -> &mut [u8] {
    match buf {
        Payload::Inline { len, data } => &mut data[..*len as usize],
        Payload::Shared(bytes) => Arc::make_mut(bytes).as_mut_slice(),
    }
}

/// `mine ∘= theirs` with the driver's operator.
fn fold(cx: &StepCx<'_>, mine: &mut [u8], theirs: &[u8]) -> MpiResult<()> {
    let Some((op, elem)) = cx.fold else {
        return Err(MpiError::Internal("fold step without an operator"));
    };
    if mine.len() != theirs.len() {
        return Err(length_mismatch());
    }
    combine(mine, theirs, op, elem);
    Ok(())
}

fn length_mismatch() -> MpiError {
    MpiError::InvalidCounts {
        what: "collective message length differs from its receive span",
    }
}

/// Lands a received message in the buffer as the step says.
fn land_in(
    cx: &StepCx<'_>,
    buf: &mut Payload,
    theirs: Payload,
    span: &Span,
    land: Land,
) -> MpiResult<()> {
    let whole = [(0, buf.len())];
    let runs = match (span, land) {
        (Span::All, Land::Place) => {
            *buf = theirs;
            return Ok(());
        }
        (Span::All, Land::Prefix) => {
            let mut acc = theirs.into_vec();
            fold(cx, &mut acc, buf.as_slice())?;
            *buf = Payload::from_vec(acc);
            return Ok(());
        }
        (Span::Input(_) | Span::Folded, _) | (_, Land::Prefix) => {
            return Err(MpiError::Internal("receive span is not the buffer"));
        }
        (Span::All, _) => &whole[..],
        (Span::Range(run), _) => std::slice::from_ref(run),
        (Span::Runs(runs), _) => &runs[..],
    };
    let theirs = theirs.as_slice();
    if runs.iter().map(|r| r.1 - r.0).sum::<usize>() != theirs.len() {
        return Err(length_mismatch());
    }
    let (mine, mut at) = (bytes_mut(buf), 0);
    for &(a, b) in runs {
        let part = &theirs[at..at + b - a];
        at += b - a;
        match land {
            Land::Place => mine[a..b].copy_from_slice(part),
            _ => fold(cx, &mut mine[a..b], part)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RawComm, Universe};

    #[test]
    fn binomial_over_covers_every_member_once() {
        for n in 1..=17 {
            for root in 0..n {
                let mut seen_parent = vec![0usize; n];
                for i in 0..n {
                    let (parent, children) = binomial_over(n, i, root);
                    assert_eq!(parent.is_none(), i == root, "n={n} root={root}");
                    for c in children {
                        seen_parent[c] += 1;
                        // Child's computed parent must point back at me.
                        let (cp, _) = binomial_over(n, c, root);
                        assert_eq!(cp, Some(i), "n={n} root={root}");
                    }
                }
                seen_parent[root] = 1;
                assert!(seen_parent.iter().all(|&c| c == 1), "n={n} root={root}");
            }
        }
    }

    /// Messages and bytes of a schedule's sends; a whole-buffer send
    /// carries `whole` bytes.
    fn traffic(schedule: &Schedule, whole: usize) -> (u64, u64) {
        let bytes = |span: &Span| match span {
            Span::All | Span::Folded => whole,
            Span::Range((a, b)) | Span::Input((a, b)) => b - a,
            Span::Runs(runs) => runs.iter().map(|(a, b)| b - a).sum(),
        };
        let sends = schedule.steps.iter().filter(|step| step.land.is_none());
        sends.fold((0, 0), |(m, b), step| (m + 1, b + bytes(&step.span) as u64))
    }

    /// Runs `run` on `p` ranks and checks every rank's posted messages and
    /// bytes against its schedule from `plan(me)` = (schedule, whole).
    fn check(
        what: &str,
        p: usize,
        run: impl Fn(&RawComm) + Sync,
        plan: impl Fn(usize) -> (Schedule, usize),
    ) {
        let (_, profile) = Universe::run_profiled(p, |comm| run(&comm));
        for (me, rank) in profile.ranks.iter().enumerate() {
            let (schedule, whole) = plan(me);
            let ran = (rank.messages_sent, rank.bytes_sent);
            assert_eq!(traffic(&schedule, whole), ran, "{what} p={p} rank {me}");
        }
    }

    fn layout((counts, displs): &(Vec<usize>, Vec<usize>)) -> Layout<'_> {
        (counts, displs)
    }

    fn sum(acc: &mut [u8], rhs: &[u8]) {
        let a = u64::from_le_bytes(acc.try_into().unwrap());
        let b = u64::from_le_bytes(rhs.try_into().unwrap());
        acc.copy_from_slice(&a.wrapping_add(b).to_le_bytes());
    }

    /// The success test of collectives as schedules: for every collective,
    /// both drivers, p = 1..=9 and every root, each rank posts exactly the
    /// messages and bytes its schedule's sends name.
    #[test]
    fn a_schedules_traffic_is_what_the_run_sends() {
        let op: crate::ByteOp<'_> = &sum;
        let owned = || -> crate::OwnedByteOp { std::sync::Arc::new(sum) };
        for p in 1..=9usize {
            let packed = |c: &[usize]| (c.to_vec(), excl_prefix_sum(c));
            for root in 0..p {
                let rooted = |name: &str| format!("{name} root={root}");
                check(
                    &rooted("bcast"),
                    p,
                    |c| {
                        let mut buf = if c.rank() == root {
                            vec![7; 40]
                        } else {
                            Vec::new()
                        };
                        c.bcast(&mut buf, root).unwrap();
                    },
                    |me| (bcast(p, me, root), 40),
                );
                check(
                    &rooted("bcast_from"),
                    p,
                    |c| {
                        c.bcast_from(&[7; 40], root).unwrap();
                    },
                    |me| (bcast(p, me, root), 40),
                );
                check(
                    &rooted("ibcast"),
                    p,
                    |c| {
                        let buf = if c.rank() == root {
                            vec![7; 40]
                        } else {
                            Vec::new()
                        };
                        c.ibcast(buf, root).unwrap().wait().unwrap();
                    },
                    |me| (bcast(p, me, root), 40),
                );
                check(
                    &rooted("reduce"),
                    p,
                    |c| {
                        c.reduce(&mut vec![1; 24], op, 8, root).unwrap();
                    },
                    |me| (reduce(p, me, root), 24),
                );
                check(
                    &rooted("ireduce"),
                    p,
                    |c| {
                        c.ireduce(vec![1; 24], owned(), 8, root)
                            .unwrap()
                            .wait()
                            .unwrap();
                    },
                    |me| (reduce(p, me, root), 24),
                );
                let counts: Vec<usize> = (0..p).map(|r| r + 1).collect();
                check(
                    &rooted("gatherv"),
                    p,
                    |c| {
                        c.gatherv(&vec![3; c.rank() + 1], Some(&counts), root)
                            .unwrap();
                    },
                    |me| (gatherv(p, me, root, me + 1, &counts), 0),
                );
                check(
                    &rooted("gather"),
                    p,
                    |c| {
                        c.gather(&[3; 4], root).unwrap();
                    },
                    |me| (gatherv(p, me, root, 4, &vec![4; p]), 0),
                );
                let bytes = vec![5u8; counts.iter().sum()];
                check(
                    &rooted("scatterv"),
                    p,
                    |c| {
                        let send = (c.rank() == root).then_some((&bytes[..], &counts[..]));
                        c.scatterv(send, root).unwrap();
                    },
                    |me| (scatterv(p, me, root, &counts), 0),
                );
                check(
                    &rooted("scatter"),
                    p,
                    |c| {
                        c.scatter((c.rank() == root).then_some(&vec![5; 3 * p][..]), root)
                            .unwrap();
                    },
                    |me| (scatterv(p, me, root, &vec![3; p]), 0),
                );
            }
            check(
                "barrier",
                p,
                |c| c.barrier().unwrap(),
                |me| (barrier(p, me), 0),
            );
            check(
                "ibarrier",
                p,
                |c| {
                    c.ibarrier().unwrap().wait().unwrap();
                },
                |me| (barrier(p, me), 0),
            );
            check(
                "allreduce",
                p,
                |c| {
                    c.allreduce(&mut vec![1; 16], op, 8).unwrap();
                },
                |me| (tree_allreduce(p, me), 16),
            );
            check(
                "iallreduce",
                p,
                |c| {
                    c.iallreduce(vec![1; 16], owned(), 8)
                        .unwrap()
                        .wait()
                        .unwrap();
                },
                |me| (tree_allreduce(p, me), 16),
            );
            check(
                "allreduce_rabenseifner",
                p,
                |c| {
                    c.allreduce_rabenseifner(&mut vec![1; 40], op, 8).unwrap();
                },
                |me| (rabenseifner(p, me, 5, 8), 40),
            );
            let counts: Vec<usize> = (0..p).map(|r| (r * 7) % 5 + 1).collect();
            check(
                "allgatherv",
                p,
                |c| {
                    c.allgatherv(&vec![2; counts[c.rank()]], &counts).unwrap();
                },
                |me| (allgatherv(p, me, &counts), 0),
            );
            check(
                "iallgather",
                p,
                |c| {
                    c.iallgather(vec![2; 3]).unwrap().wait().unwrap();
                },
                |me| (allgatherv(p, me, &vec![3; p]), 0),
            );
            let (small, large) = (packed(&vec![2; p]), packed(&vec![300; p]));
            check(
                "alltoall",
                p,
                |c| {
                    c.alltoall(&vec![1; 2 * p]).unwrap();
                },
                |me| match p > 4 {
                    true => (alltoall_bruck(p, me, 2), 0),
                    false => (alltoallv(p, me, layout(&small), layout(&small)), 0),
                },
            );
            check(
                "ialltoall",
                p,
                |c| {
                    c.ialltoall(vec![1; 300 * p]).unwrap().wait().unwrap();
                },
                |me| (alltoallv(p, me, layout(&large), layout(&large)), 0),
            );
            check(
                "alltoall_bruck",
                p,
                |c| {
                    c.alltoall_bruck(&vec![1; 300 * p]).unwrap();
                },
                |me| (alltoall_bruck(p, me, 300), 0),
            );
            let sends = |me: usize| packed(&(0..p).map(|d| me + d + 1).collect::<Vec<_>>());
            let recvs = |me: usize| packed(&(0..p).map(|s| s + me + 1).collect::<Vec<_>>());
            check(
                "alltoallv",
                p,
                |c| {
                    let (s, r) = (sends(c.rank()), recvs(c.rank()));
                    let send = vec![1; s.0.iter().sum()];
                    c.alltoallv(&send, &s.0, &s.1, &r.0, &r.1).unwrap();
                },
                |me| (alltoallv(p, me, layout(&sends(me)), layout(&recvs(me))), 0),
            );
            check(
                "scan",
                p,
                |c| c.scan(&mut vec![1; 16], op, 8).unwrap(),
                |me| (scan(p, me, 16), 16),
            );
            check(
                "exscan",
                p,
                |c| {
                    c.exscan(&[1; 16], op, 8).unwrap();
                },
                |me| (exscan(p, me, 16), 16),
            );
            check(
                "reduce_scatter_block",
                p,
                |c| {
                    c.reduce_scatter_block(&vec![1; 16 * p], op, 8).unwrap();
                },
                |me| (reduce_scatter_block(p, me, 16), 16 * p),
            );
        }
    }
}
