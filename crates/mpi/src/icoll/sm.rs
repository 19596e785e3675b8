//! The collective algorithms, each written exactly once as a resumable
//! state machine. Sends are eager on every backend, so the only blocking
//! points of a collective are its receives: a machine posts whatever it can
//! send up to its first receive at creation, and `step` consumes arrived
//! envelopes and posts the follow-up sends until the next receive is dry.
//! Blocking collectives step these machines inline on the caller's stack,
//! nonblocking ones through the registry — see the module docs of
//! [`crate::icoll`] for the two drivers.
//!
//! All machines work on bytes and communicator-local ranks; argument
//! validation that needs no algorithm knowledge happens before
//! construction (in the `RawComm` entry points).

use std::borrow::Cow;

use crate::coll::{combine, excl_prefix_sum};
use crate::error::{MpiError, MpiResult};
use crate::tag::Tag;
use crate::transport::Payload;

use super::{CollSm, StepCx};

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

/// Largest power of two ≤ `n` (n ≥ 1).
pub(crate) fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

/// Dissemination barrier (⌈log₂ p⌉ zero-byte rounds). Round `i` signals
/// rank `r + 2^i` and waits for `r − 2^i`; after the last round every rank
/// transitively depends on every other. All step sizes are distinct modulo
/// `p`, so one tag serves every round.
pub(crate) struct BarrierSm {
    p: usize,
    r: usize,
    tag: Tag,
    /// Current round's step size; `>= p` once complete.
    step: usize,
}

impl BarrierSm {
    pub(crate) fn start(cx: &StepCx<'_>, tag: Tag) -> Self {
        let (p, r) = (cx.group.len(), cx.rank);
        if p > 1 {
            cx.post((r + 1) % p, tag, Payload::from_slice(&[]));
        }
        Self { p, r, tag, step: 1 }
    }
}

impl CollSm for BarrierSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while let Some(src) = self.awaited() {
            if cx.try_take(src, self.tag).is_none() {
                return Ok(None);
            }
            self.step <<= 1;
            if self.step < self.p {
                cx.post(
                    (self.r + self.step) % self.p,
                    self.tag,
                    Payload::from_slice(&[]),
                );
            }
        }
        Ok(Some(Vec::new()))
    }

    fn awaited(&self) -> Option<usize> {
        (self.step < self.p).then(|| (self.r + self.p - self.step) % self.p)
    }
}

/// Broadcast down a [`Tree`]. The payload travels whole and zero-copy:
/// every envelope of the fan-out aliases one shared allocation and the
/// last holder unwraps it for free. The root fans out at creation and is
/// complete immediately; every other rank relays the one envelope from its
/// parent as it arrives.
pub(crate) struct BcastSm {
    tag: Tag,
    /// The parent stays set until its envelope has arrived.
    tree: Tree,
    payload: Option<Payload>,
}

impl BcastSm {
    /// `seed` is the root's payload; other ranks' is ignored.
    pub(crate) fn start(cx: &StepCx<'_>, tag: Tag, tree: Tree, seed: Payload) -> Self {
        let mut sm = Self {
            tag,
            tree,
            payload: None,
        };
        if sm.tree.0.is_none() {
            sm.relay(cx, &seed);
            sm.payload = Some(seed);
        }
        sm
    }

    /// Children are listed farthest subtree first, so the longest relay
    /// chain starts earliest.
    fn relay(&self, cx: &StepCx<'_>, payload: &Payload) {
        for &c in &self.tree.1 {
            cx.post(c, self.tag, payload.clone());
        }
    }
}

impl CollSm for BcastSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        if let Some(parent) = self.tree.0 {
            let Some(payload) = cx.try_take(parent, self.tag) else {
                return Ok(None);
            };
            self.relay(cx, &payload);
            (self.tree.0, self.payload) = (None, Some(payload));
        }
        Ok(Some(
            self.payload
                .take()
                .map(Payload::into_vec)
                .unwrap_or_default(),
        ))
    }

    fn awaited(&self) -> Option<usize> {
        self.tree.0
    }
}

/// The bytes of the buffer a [`FoldStep`] names: a `(from, to)` range, or
/// `None` for the whole buffer — whose length a tree schedule need not
/// know.
pub(crate) type Part = Option<(usize, usize)>;

/// One step of a [`FoldSm`] schedule.
#[derive(Clone, Copy)]
pub(crate) enum FoldStep {
    /// Receive the peer's bytes and fold them into this part of my buffer
    /// (`mine ∘= theirs`).
    Fold(usize, Part),
    /// Receive the peer's bytes in place of this part of my buffer.
    Adopt(usize, Part),
    /// Send the peer a copy of this part of my buffer.
    Share(usize, Part),
    /// Send the peer my buffer itself; mine is empty afterwards.
    Give(usize),
}
use FoldStep::{Adopt, Fold, Give, Share};

/// The reducing machine: runs a schedule of [`FoldStep`]s over one
/// equal-length buffer per rank and completes with whatever the schedule
/// leaves in this rank's buffer. Tree reduce and Rabenseifner's
/// halving/doubling are schedules ([`reduce_steps`],
/// [`rabenseifner_steps`]), not machines of their own. Generic over the
/// operator so the inline driver can run it over a borrowed
/// [`crate::ByteOp`] and the registry over an owned one.
pub(crate) struct FoldSm<F> {
    tag: Tag,
    steps: Vec<FoldStep>,
    /// Index of the first step not yet run.
    pc: usize,
    buf: Vec<u8>,
    op: F,
    elem: usize,
}

impl<F: Fn(&mut [u8], &[u8])> FoldSm<F> {
    pub(crate) fn new(tag: Tag, steps: Vec<FoldStep>, buf: Vec<u8>, op: F, elem: usize) -> Self {
        Self {
            tag,
            steps,
            pc: 0,
            buf,
            op,
            elem,
        }
    }

    fn part(&self, part: Part) -> std::ops::Range<usize> {
        let (from, to) = part.unwrap_or((0, self.buf.len()));
        from..to
    }
}

impl<F: Fn(&mut [u8], &[u8])> CollSm for FoldSm<F> {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while let Some(&step) = self.steps.get(self.pc) {
            match step {
                Fold(peer, part) | Adopt(peer, part) => {
                    let Some(theirs) = cx.try_take(peer, self.tag) else {
                        return Ok(None);
                    };
                    if matches!(step, Adopt(_, None)) {
                        self.buf = theirs.into_vec();
                    } else {
                        let range = self.part(part);
                        let (mine, theirs) = (&mut self.buf[range], theirs.as_slice());
                        if theirs.len() != mine.len() {
                            return Err(MpiError::InvalidCounts {
                                what: "reduce buffers differ in length",
                            });
                        }
                        match step {
                            Adopt(..) => mine.copy_from_slice(theirs),
                            _ => combine(mine, theirs, &self.op, self.elem),
                        }
                    }
                }
                Share(peer, part) => {
                    let mine = &self.buf[self.part(part)];
                    cx.post(peer, self.tag, Payload::from_slice(mine));
                }
                Give(peer) => {
                    let buf = std::mem::take(&mut self.buf);
                    cx.post(peer, self.tag, Payload::from_vec(buf));
                }
            }
            self.pc += 1;
        }
        Ok(Some(std::mem::take(&mut self.buf)))
    }

    fn awaited(&self) -> Option<usize> {
        match self.steps.get(self.pc) {
            Some(&(Fold(peer, _) | Adopt(peer, _))) => Some(peer),
            _ => None,
        }
    }
}

/// Tree reduce as a fold schedule: fold the children in reverse list order
/// — nearest subtree first — then give the partial to the parent. The
/// combine order is therefore a deterministic function of the tree; the
/// root completes with the reduction, every other rank empty.
pub(crate) fn reduce_steps((parent, children): &Tree) -> Vec<FoldStep> {
    let folds = children.iter().rev().map(|&c| Fold(c, None));
    folds.chain(parent.map(Give)).collect()
}

/// Wraps the rounds of a power-of-two exchange in the standard fold for
/// any rank count `p`: with `k` the largest power of two ≤ `p` and
/// `r = p − k`, the first `2r` ranks pair up, odd ranks park their data
/// with the even partner and get the result back at the end.
/// `rounds(k, idx, partner)` lists the steps of position `idx` among the
/// `k` that remain; `partner` maps such a position to its rank.
fn pair_folded(
    p: usize,
    me: usize,
    rounds: impl FnOnce(usize, usize, &dyn Fn(usize) -> usize) -> Vec<FoldStep>,
) -> Vec<FoldStep> {
    let k = prev_power_of_two(p);
    let r = p - k;
    let paired = me < 2 * r;
    if paired && me % 2 == 1 {
        return vec![Give(me - 1), Adopt(me - 1, None)];
    }
    let idx = if paired { me / 2 } else { me - r };
    let parked = paired.then_some(me + 1);
    let mut steps: Vec<FoldStep> = parked.map(|odd| Fold(odd, None)).into_iter().collect();
    steps.extend(rounds(k, idx, &|j| if j < r { 2 * j } else { j + r }));
    steps.extend(parked.map(|odd| Share(odd, None)));
    steps
}

/// The exchange distances of a power-of-two group of `k`: 1, 2, … k/2.
fn spans(k: usize) -> impl DoubleEndedIterator<Item = usize> {
    (0..k.trailing_zeros()).map(|bit| 1usize << bit)
}

/// Rabenseifner's allreduce as a fold schedule for rank `me` of `p` over
/// `count` elements of `elem` bytes: a recursive-halving reduce-scatter,
/// then a recursive-doubling allgather, inside [`pair_folded`] — each rank
/// moves ~2·(k−1)/k of the buffer instead of log₂ k whole copies. The
/// buffer is cut into `k` chunks at element granularity (a count below `k`
/// just leaves chunks empty). In the halving round at distance `span` a
/// rank owns the aligned window of `2·span` chunks around its index: it
/// ships the half the partner sits in and folds the partner's
/// contribution into its own half, ending with the reduction of one chunk.
/// The doubling rounds retrace the distances upwards: share the owned
/// window, place the partner's next to it. A pair meets in both phases on
/// the one tag; its two messages stay ordered because a channel never
/// overtakes.
pub(crate) fn rabenseifner_steps(p: usize, me: usize, count: usize, elem: usize) -> Vec<FoldStep> {
    pair_folded(p, me, |k, idx, partner| {
        // Bytes of the aligned window of `span` chunks holding chunk `i`.
        let window = |i: usize, span: usize| {
            let first = i & !(span - 1);
            let bound = |chunk: usize| chunk * count / k * elem;
            Some((bound(first), bound(first + span)))
        };
        let halving = spans(k).rev().flat_map(|span| {
            let peer = partner(idx ^ span);
            [
                Share(peer, window(idx ^ span, span)),
                Fold(peer, window(idx, span)),
            ]
        });
        let doubling = spans(k).flat_map(|span| {
            let peer = partner(idx ^ span);
            [
                Share(peer, window(idx, span)),
                Adopt(peer, window(idx ^ span, span)),
            ]
        });
        halving.chain(doubling).collect()
    })
}

/// Reduce-to-all as a composite of up to two stages, each on its own
/// issue-time tag. Over a tree: a [`reduce_steps`] stage up `tree` and a
/// [`BcastSm`] back down the same tree. A non-root's reduce stage ends as
/// soon as its partial is given away, so it moves on to the (still
/// pending) broadcast receive without blocking. A [`rabenseifner_steps`]
/// schedule leaves the result on every rank and is the only stage.
pub(crate) struct AllreduceSm<F> {
    fold: FoldSm<F>,
    /// The broadcast still to start once the fold is done: its tag and
    /// the tree.
    down: Option<(Tag, Tree)>,
    bcast: Option<BcastSm>,
}

impl<F: Fn(&mut [u8], &[u8])> AllreduceSm<F> {
    /// `fold` is the first stage, already loaded with this rank's buffer.
    pub(crate) fn new(fold: FoldSm<F>, down: Option<(Tag, Tree)>) -> Self {
        Self {
            fold,
            down,
            bcast: None,
        }
    }
}

impl<F: Fn(&mut [u8], &[u8])> CollSm for AllreduceSm<F> {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        if let Some(bcast) = &mut self.bcast {
            return bcast.step(cx);
        }
        let Some(buf) = self.fold.step(cx)? else {
            return Ok(None);
        };
        // The tree's root seeds the broadcast with the result; everyone
        // else enters it as a plain receiver.
        let Some((tag, tree)) = self.down.take() else {
            return Ok(Some(buf));
        };
        let bcast = self
            .bcast
            .insert(BcastSm::start(cx, tag, tree, Payload::from_vec(buf)));
        bcast.step(cx)
    }

    fn awaited(&self) -> Option<usize> {
        match &self.bcast {
            Some(bcast) => bcast.awaited(),
            None => self.fold.awaited(),
        }
    }
}

/// Bruck's allgatherv (any `p`, ⌈log₂ p⌉ messages per rank), descending
/// orientation, one tag for all rounds: rank `r` accumulates the cyclic
/// block run `r, r−1, …` — in each round it sends its newest
/// `m = min(cur, p − cur)` blocks to `r + cur` and places the `m` blocks
/// arriving from `r − cur` straight into the output; `cur += m` until all
/// `p` blocks are present.
///
/// Receiving from *lower* ranks matters when rank-threads share cores: a
/// round-robin scheduler tends to run low ranks first, so the data a rank
/// waits for has usually arrived. Blocks are cyclically contiguous in rank
/// order, so they move with at most two `memcpy`s per round — no final
/// rotation.
pub(crate) struct AllgathervSm<'a> {
    p: usize,
    r: usize,
    tag: Tag,
    counts: Cow<'a, [usize]>,
    displs: Vec<usize>,
    out: Vec<u8>,
    cur: usize,
}

impl<'a> AllgathervSm<'a> {
    /// `recv_counts` has one entry per rank and `send` this rank's length
    /// (checked by the callers).
    pub(crate) fn start(
        cx: &StepCx<'_>,
        tag: Tag,
        send: &[u8],
        recv_counts: impl Into<Cow<'a, [usize]>>,
    ) -> Self {
        let counts = recv_counts.into();
        let displs = excl_prefix_sum(&counts);
        let r = cx.rank;
        let mut out = vec![0u8; counts.iter().sum()];
        out[displs[r]..displs[r] + send.len()].copy_from_slice(send);
        let sm = Self {
            p: cx.group.len(),
            r,
            tag,
            counts,
            displs,
            out,
            cur: 1,
        };
        if sm.p > 1 {
            sm.post_round(cx);
        }
        sm
    }

    /// Byte range of the cyclic ascending run of `m` blocks starting at
    /// rank `a`: one contiguous range, or two if it wraps past rank p−1.
    fn ranges(&self, a: usize, m: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let end = |rank: usize| self.displs[rank] + self.counts[rank];
        if a + m <= self.p {
            (self.displs[a]..end(a + m - 1), 0..0)
        } else {
            (self.displs[a]..self.out.len(), 0..end(a + m - self.p - 1))
        }
    }

    fn post_round(&self, cx: &StepCx<'_>) {
        let m = self.cur.min(self.p - self.cur);
        let dest = (self.r + self.cur) % self.p;
        // My newest m blocks are ranks r−m+1 ..= r (already in `out`).
        let (s1, s2) = self.ranges((self.r + self.p - m + 1) % self.p, m);
        let mut wire = Vec::with_capacity(s1.len() + s2.len());
        wire.extend_from_slice(&self.out[s1]);
        wire.extend_from_slice(&self.out[s2]);
        cx.post(dest, self.tag, Payload::from_vec(wire));
    }
}

impl CollSm for AllgathervSm<'_> {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while let Some(src) = self.awaited() {
            let Some(incoming) = cx.try_take(src, self.tag) else {
                return Ok(None);
            };
            let incoming = incoming.as_slice();
            // Incoming: ranks src−m+1 ..= src, placed straight into `out`.
            let m = self.cur.min(self.p - self.cur);
            let (r1, r2) = self.ranges((src + self.p - m + 1) % self.p, m);
            if incoming.len() != r1.len() + r2.len() {
                return Err(MpiError::InvalidCounts {
                    what: "allgather: peer block length mismatch",
                });
            }
            let split = r1.len();
            self.out[r1].copy_from_slice(&incoming[..split]);
            self.out[r2].copy_from_slice(&incoming[split..]);
            self.cur += m;
            if self.cur < self.p {
                self.post_round(cx);
            }
        }
        Ok(Some(std::mem::take(&mut self.out)))
    }

    fn awaited(&self) -> Option<usize> {
        (self.cur < self.p).then(|| (self.r + self.p - self.cur) % self.p)
    }
}

/// Bruck's all-to-all (1997) for small fixed-size blocks: ⌈log₂ p⌉
/// combined messages per rank instead of p − 1 direct ones. Invariant: the
/// block that starts in slot `j` of rank `s` (destined to rank `s + j`) is
/// forwarded exactly on the rounds matching the set bits of `j`, always
/// staying in slot `j`; the bit values sum to `j`, so it lands at its
/// destination — which therefore finds the block *from* rank `me − j` in
/// slot `j`.
///
/// The slot set exchanged in round `k` (ascending `j` with bit `k` set) is
/// identical on every rank, so the wire is the bare block concatenation —
/// no per-block headers — and the slots live in one flat buffer. One
/// issue-time tag per round keeps concurrent schedules collision-free.
pub(crate) struct AlltoallBruckSm {
    p: usize,
    me: usize,
    block: usize,
    tags: Vec<Tag>,
    round: usize,
    slots: Vec<u8>,
}

impl AlltoallBruckSm {
    /// `tags` holds one tag per round (⌈log₂ p⌉ of them).
    pub(crate) fn start(cx: &StepCx<'_>, tags: Vec<Tag>, send: &[u8], block: usize) -> Self {
        let p = cx.group.len();
        let me = cx.rank;
        // Local rotation: slot j holds the block for (me + j) % p.
        let mut slots = vec![0u8; p * block];
        for j in 0..p {
            let dest = (me + j) % p;
            slots[j * block..(j + 1) * block]
                .copy_from_slice(&send[dest * block..(dest + 1) * block]);
        }
        let sm = Self {
            p,
            me,
            block,
            tags,
            round: 0,
            slots,
        };
        if p > 1 {
            sm.post_round(cx);
        }
        sm
    }

    /// Slots travelling in the current round, ascending.
    fn moving(&self) -> impl Iterator<Item = usize> {
        let k = 1usize << self.round;
        (0..self.p).filter(move |j| j & k != 0)
    }

    fn post_round(&self, cx: &StepCx<'_>) {
        let dest = (self.me + (1 << self.round)) % self.p;
        let mut wire = Vec::with_capacity(self.moving().count() * self.block);
        for j in self.moving() {
            wire.extend_from_slice(&self.slots[j * self.block..(j + 1) * self.block]);
        }
        cx.post(dest, self.tags[self.round], Payload::from_vec(wire));
    }
}

impl CollSm for AlltoallBruckSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        let (p, block) = (self.p, self.block);
        while let Some(src) = self.awaited() {
            let Some(incoming) = cx.try_take(src, self.tags[self.round]) else {
                return Ok(None);
            };
            let incoming = incoming.as_slice();
            if incoming.len() != self.moving().count() * block {
                return Err(MpiError::Internal("bruck: malformed round payload"));
            }
            // Received blocks replace the same slots, in the same order.
            for (i, j) in self.moving().enumerate() {
                self.slots[j * block..(j + 1) * block]
                    .copy_from_slice(&incoming[i * block..(i + 1) * block]);
            }
            self.round += 1;
            if 1 << self.round < p {
                self.post_round(cx);
            }
        }
        // Inverse rotation: slot j holds the block from (me − j) % p.
        let mut out = vec![0u8; p * block];
        for j in 0..p {
            let src = (self.me + p - j) % p;
            out[src * block..(src + 1) * block]
                .copy_from_slice(&self.slots[j * block..(j + 1) * block]);
        }
        Ok(Some(out))
    }

    fn awaited(&self) -> Option<usize> {
        let k = 1usize << self.round;
        (k < self.p).then(|| (self.me + self.p - k) % self.p)
    }
}

/// Linear variable all-to-all, the full `MPI_Alltoallv` surface: *all*
/// outgoing blocks (including empty ones — the linear startup cost the
/// sparse/grid exchanges exist to avoid) are posted at creation, then the
/// peers' blocks are collected in rank order.
pub(crate) struct AlltoallvSm<'a> {
    me: usize,
    tag: Tag,
    recv_counts: Cow<'a, [usize]>,
    recv_displs: Cow<'a, [usize]>,
    out: Vec<u8>,
    /// Lowest source rank whose block has not been placed yet.
    next: usize,
}

impl<'a> AlltoallvSm<'a> {
    pub(crate) fn start(
        cx: &StepCx<'_>,
        tag: Tag,
        send: &[u8],
        (send_counts, send_displs): (&[usize], &[usize]),
        recv_counts: impl Into<Cow<'a, [usize]>>,
        recv_displs: impl Into<Cow<'a, [usize]>>,
    ) -> MpiResult<Self> {
        let (recv_counts, recv_displs) = (recv_counts.into(), recv_displs.into());
        let p = cx.group.len();
        let me = cx.rank;
        let check_len = |v: &[usize], what: &'static str| {
            if v.len() != p {
                return Err(MpiError::InvalidCounts { what });
            }
            Ok(())
        };
        check_len(send_counts, "alltoallv send_counts length != comm size")?;
        check_len(send_displs, "alltoallv send_displs length != comm size")?;
        check_len(&recv_counts, "alltoallv recv_counts length != comm size")?;
        check_len(&recv_displs, "alltoallv recv_displs length != comm size")?;
        if (0..p).any(|dest| send_displs[dest] + send_counts[dest] > send.len()) {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv send block out of bounds",
            });
        }
        if send_counts[me] != recv_counts[me] {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv self send/recv count mismatch",
            });
        }
        let total = (0..p).map(|s| recv_displs[s] + recv_counts[s]).max();
        let mut out = vec![0u8; total.unwrap_or(0)];
        for dest in 0..p {
            let block = &send[send_displs[dest]..send_displs[dest] + send_counts[dest]];
            if dest == me {
                out[recv_displs[me]..recv_displs[me] + block.len()].copy_from_slice(block);
            } else {
                cx.post(dest, tag, Payload::from_slice(block));
            }
        }
        Ok(Self {
            me,
            tag,
            recv_counts,
            recv_displs,
            out,
            next: if me == 0 { 1 } else { 0 },
        })
    }
}

impl CollSm for AlltoallvSm<'_> {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while let Some(src) = self.awaited() {
            let Some(part) = cx.try_take(src, self.tag) else {
                return Ok(None);
            };
            let (c, d) = (self.recv_counts[src], self.recv_displs[src]);
            if part.len() != c {
                return Err(MpiError::InvalidCounts {
                    what: "alltoallv: message length != recv_count",
                });
            }
            self.out[d..d + c].copy_from_slice(part.as_slice());
            self.next += 1 + usize::from(src + 1 == self.me);
        }
        Ok(Some(std::mem::take(&mut self.out)))
    }

    fn awaited(&self) -> Option<usize> {
        (self.next < self.recv_counts.len()).then_some(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
