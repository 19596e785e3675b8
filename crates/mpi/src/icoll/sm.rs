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
use crate::hier::prev_power_of_two;
use crate::tag::Tag;
use crate::transport::Payload;

use super::{CollSm, StepCx};

/// One rank's place in a rooted tree: its parent (`None` at the root) and
/// its children, as communicator-local ranks. Generated only by
/// [`crate::hier::binomial_over`] and its two-level composition.
pub(crate) type Tree = (Option<usize>, Vec<usize>);

/// Byte length of the self-describing header on a segmented broadcast's
/// first envelope: total length and segment length, both u64 LE.
const SEG_HDR: usize = 16;

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

/// Broadcast down a [`Tree`]. With `segment: None` the payload travels
/// whole and zero-copy: every envelope of the fan-out aliases one shared
/// allocation and the last holder unwraps it for free. With a segment size
/// the root cuts it into envelopes of that many bytes (the first prefixed
/// with a (total, segment) header, so receivers are independent of the
/// root's setting) and every inner node relays each envelope as it
/// arrives — tree depth adds latency once, not once per byte. The root
/// fans out at creation and is complete immediately.
pub(crate) struct BcastSm {
    tag: Tag,
    tree: Tree,
    segmented: bool,
    /// Envelopes still to come from the parent; `None` until the first one
    /// tells (segmented: through its header; whole: it is the only one).
    left: Option<usize>,
    /// Segmented receivers: announced total and the bytes assembled so far.
    total: usize,
    out: Vec<u8>,
    /// The payload where it exists in one piece (root, whole receivers).
    whole: Option<Payload>,
}

impl BcastSm {
    /// `seed` is the root's payload; other ranks' is ignored.
    pub(crate) fn start(
        cx: &StepCx<'_>,
        tag: Tag,
        tree: Tree,
        segment: Option<usize>,
        seed: Payload,
    ) -> Self {
        let mut sm = Self {
            tag,
            tree,
            segmented: segment.is_some(),
            left: None,
            total: 0,
            out: Vec::new(),
            whole: None,
        };
        if sm.tree.0.is_some() {
            return sm;
        }
        match segment {
            None => sm.relay(cx, &seed),
            Some(seg) => {
                let (data, seg) = (seed.as_slice(), seg.max(1));
                // At least one envelope, so an empty payload still travels.
                for i in 0..data.len().div_ceil(seg).max(1) {
                    let part = &data[i * seg..data.len().min((i + 1) * seg)];
                    let mut wire = Vec::with_capacity(SEG_HDR + part.len());
                    if i == 0 {
                        wire.extend_from_slice(&(data.len() as u64).to_le_bytes());
                        wire.extend_from_slice(&(seg as u64).to_le_bytes());
                    }
                    wire.extend_from_slice(part);
                    sm.relay(cx, &Payload::from_vec(wire));
                }
            }
        }
        sm.whole = Some(seed);
        sm.left = Some(0);
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
        while let Some(parent) = self.awaited() {
            let Some(part) = cx.try_take(parent, self.tag) else {
                return Ok(None);
            };
            self.relay(cx, &part);
            match self.left {
                None if !self.segmented => {
                    self.whole = Some(part);
                    self.left = Some(0);
                }
                None => {
                    let bytes = part.as_slice();
                    if bytes.len() < SEG_HDR {
                        return Err(MpiError::Internal("segmented bcast: truncated header"));
                    }
                    let word = |at: usize| {
                        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
                    };
                    self.total = word(0) as usize;
                    let seg = (word(8) as usize).max(1);
                    self.out = Vec::with_capacity(self.total);
                    self.out.extend_from_slice(&bytes[SEG_HDR..]);
                    self.left = Some(self.total.div_ceil(seg).max(1) - 1);
                }
                Some(n) => {
                    self.out.extend_from_slice(part.as_slice());
                    self.left = Some(n - 1);
                }
            }
        }
        match self.whole.take() {
            Some(p) => Ok(Some(p.into_vec())),
            None if self.out.len() == self.total => Ok(Some(std::mem::take(&mut self.out))),
            None => Err(MpiError::Internal(
                "segmented bcast: reassembled length mismatch",
            )),
        }
    }

    fn awaited(&self) -> Option<usize> {
        self.tree.0.filter(|_| self.left != Some(0))
    }
}

/// The bytes of the buffer a [`FoldStep`] names: a `(from, to)` range, or
/// `None` for the whole buffer — whose length a tree or recursive-doubling
/// schedule need not know.
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
/// leaves in this rank's buffer. Tree reduce, recursive doubling and
/// Rabenseifner's halving/doubling are schedules ([`reduce_steps`],
/// [`recursive_doubling_steps`], [`rabenseifner_steps`]), not machines of
/// their own. Generic over the operator so the inline driver can run it
/// over a borrowed [`crate::ByteOp`] and the registry over an owned one.
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

    /// Loads the next stage of a composite: another schedule, run over the
    /// buffer the previous one completed with.
    fn restart(&mut self, tag: Tag, steps: Vec<FoldStep>, buf: Vec<u8>) {
        (self.tag, self.steps, self.pc, self.buf) = (tag, steps, 0, buf);
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
/// — nearest subtree first; under a two-level tree the intra-host subtrees,
/// listed last, before the inter-host ones — then give the partial to the
/// parent. The combine order is therefore a deterministic function of the
/// tree; the root completes with the reduction, every other rank empty.
pub(crate) fn reduce_steps((parent, children): &Tree) -> Vec<FoldStep> {
    let folds = children.iter().rev().map(|&c| Fold(c, None));
    folds.chain(parent.map(Give)).collect()
}

/// Wraps the rounds of a power-of-two exchange in the standard fold for
/// any member count `n`: with `k` the largest power of two ≤ `n` and
/// `r = n − k`, the first `2r` members pair up, odd members park their
/// data with the even partner and get the result back at the end.
/// `rounds(k, idx, partner)` lists the steps of position `idx` among the
/// `k` that remain; `partner` maps such a position to a rank through
/// `member`.
fn pair_folded(
    n: usize,
    my_idx: usize,
    member: impl Fn(usize) -> usize,
    rounds: impl FnOnce(usize, usize, &dyn Fn(usize) -> usize) -> Vec<FoldStep>,
) -> Vec<FoldStep> {
    let k = prev_power_of_two(n);
    let r = n - k;
    let paired = my_idx < 2 * r;
    if paired && my_idx % 2 == 1 {
        let even = member(my_idx - 1);
        return vec![Give(even), Adopt(even, None)];
    }
    let idx = if paired { my_idx / 2 } else { my_idx - r };
    let parked = paired.then(|| member(my_idx + 1));
    let mut steps: Vec<FoldStep> = parked.map(|odd| Fold(odd, None)).into_iter().collect();
    steps.extend(rounds(k, idx, &|j| {
        member(if j < r { 2 * j } else { j + r })
    }));
    steps.extend(parked.map(|odd| Share(odd, None)));
    steps
}

/// The exchange distances of a power-of-two group of `k`: 1, 2, … k/2.
fn spans(k: usize) -> impl DoubleEndedIterator<Item = usize> {
    (0..k.trailing_zeros()).map(|bit| 1usize << bit)
}

/// Recursive-doubling allreduce over an explicit member list as a fold
/// schedule for member `my_idx`: one full-buffer exchange per ⌈log₂ n⌉
/// round, inside [`pair_folded`].
pub(crate) fn recursive_doubling_steps(members: &[usize], my_idx: usize) -> Vec<FoldStep> {
    pair_folded(
        members.len(),
        my_idx,
        |i| members[i],
        |k, idx, partner| {
            let round = |span| {
                let peer = partner(idx ^ span);
                [Share(peer, None), Fold(peer, None)]
            };
            spans(k).flat_map(round).collect()
        },
    )
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
/// the one tag; its two messages stay ordered per channel, like a
/// segmented broadcast's.
pub(crate) fn rabenseifner_steps(p: usize, me: usize, count: usize, elem: usize) -> Vec<FoldStep> {
    pair_folded(
        p,
        me,
        |i| i,
        |k, idx, partner| {
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
        },
    )
}

/// Reduce-to-all as a composite of up to three stages, each on its own
/// issue-time tag. Over a tree: a [`reduce_steps`] stage up `tree`, on
/// hierarchical topologies a [`recursive_doubling_steps`] stage among the
/// group leaders (`tree` is then the rank's host-group tree), and a
/// [`BcastSm`] back down the same tree. A non-root's reduce stage ends as
/// soon as its partial is given away, so it moves on to the (still
/// pending) broadcast receive without blocking. A [`rabenseifner_steps`]
/// schedule leaves the result on every rank and is the only stage.
pub(crate) struct AllreduceSm<F> {
    fold: FoldSm<F>,
    /// Group leaders only: the exchange still to run after the reduce.
    leader: Option<(Tag, Vec<FoldStep>)>,
    /// The broadcast still to start once the folds are done: its tag, the
    /// tree and the segment size.
    down: Option<(Tag, Tree, Option<usize>)>,
    bcast: Option<BcastSm>,
}

impl<F: Fn(&mut [u8], &[u8])> AllreduceSm<F> {
    /// `fold` is the first stage, already loaded with this rank's buffer.
    pub(crate) fn new(
        fold: FoldSm<F>,
        leader: Option<(Tag, Vec<FoldStep>)>,
        down: Option<(Tag, Tree, Option<usize>)>,
    ) -> Self {
        Self {
            fold,
            leader,
            down,
            bcast: None,
        }
    }
}

impl<F: Fn(&mut [u8], &[u8])> CollSm for AllreduceSm<F> {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        loop {
            if let Some(bcast) = &mut self.bcast {
                return bcast.step(cx);
            }
            let Some(buf) = self.fold.step(cx)? else {
                return Ok(None);
            };
            if let Some((tag, steps)) = self.leader.take() {
                self.fold.restart(tag, steps, buf);
                continue;
            }
            // The tree's root seeds the broadcast with the result;
            // everyone else enters it as a plain receiver.
            let Some((tag, tree, segment)) = self.down.take() else {
                return Ok(Some(buf));
            };
            let seed = Payload::from_vec(buf);
            self.bcast = Some(BcastSm::start(cx, tag, tree, segment, seed));
        }
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
