//! Blocking collectives.
//!
//! The log-round and all-peers algorithms (dissemination barrier, tree
//! bcast/reduce/allreduce, Rabenseifner's allreduce, Bruck allgatherv and
//! small-block alltoall, linear alltoallv — see DESIGN.md for the full
//! table) are the state machines of [`crate::icoll`]; the entry points
//! here validate, pick the machine and step it inline on the caller's
//! stack (`RawComm::run_inline`).
//!
//! `gatherv`/`scatterv`, `scan`/`exscan`, `neighbor_alltoallv` and the
//! `alltoallw`-style exchange stay straight-line code over the internal
//! send/receive helpers, on purpose: each is a linear exchange with no
//! nonblocking name, so it exists once already, and a loop is its shortest
//! form. A machine buys a second driver; one of these becomes a machine
//! when it gets an `i*` name, not before.
//!
//! Broadcast fan-out is zero-copy: every envelope of one bcast aliases a
//! single shared allocation. The dense all-to-alls post one envelope per
//! peer — including empty ones — which reproduces the linear-in-`p`
//! startup cost of `MPI_Alltoallv` that §V-A of the paper contrasts with
//! sparse and grid exchanges.
//!
//! Byte-level API: counts and displacements are in bytes; the typed layer
//! (`kamping`) converts element counts. Variable-size collectives take
//! explicit receive counts, exactly like their C counterparts — computing
//! those counts when the user doesn't know them is the *binding layer's*
//! job (paper §III-A), not the substrate's.

use crate::error::{MpiError, MpiResult};
use crate::icoll::check_elems;
use crate::icoll::sm::{AllgathervSm, AlltoallvSm, BarrierSm};
use crate::metrics::Counter;
use crate::profile::Op;
use crate::tag::{coll_tag, Tag, ANY_SOURCE, MAX_USER_TAG};
use crate::transport::{MatchKey, Payload};
use crate::universe::wait_interrupt;
use crate::{ByteOp, RawComm, RawRequest};

/// Per-peer block size (bytes) below which [`RawComm::alltoall`] switches
/// to Bruck's log-round algorithm, mirroring real MPI implementations'
/// small-message strategy.
pub(crate) const BRUCK_THRESHOLD_BYTES: usize = 256;

/// Payload size (bytes) from which [`RawComm::allreduce`] takes
/// Rabenseifner's schedule instead of reduce + broadcast (at p ≥ 4).
pub(crate) const RABENSEIFNER_MIN_BYTES: usize = 32 * 1024;

/// What [`RawComm::allreduce_algo`] selected.
pub(crate) enum AllreduceAlgo {
    /// Reduce + broadcast over the binomial tree rooted at 0.
    Tree,
    /// Halving reduce-scatter + doubling allgather
    /// ([`crate::icoll::sm::rabenseifner_steps`]).
    Rabenseifner,
}

/// Number of tags in the NBX rotation band of
/// [`RawComm::sparse_alltoallv`]. Rotating the tag between rounds keeps a
/// fast rank's next-round message from being matched by a peer still
/// draining the previous round.
pub(crate) const SPARSE_TAG_ROTATION: Tag = 4096;

/// First tag of the band reserved for NBX sparse exchanges (the top 4096
/// user tags; applications should stay below this).
pub const SPARSE_TAG_BASE: Tag = MAX_USER_TAG - (SPARSE_TAG_ROTATION - 1);

/// A message received by [`RawComm::sparse_alltoallv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMsg {
    /// Sender's rank.
    pub source: usize,
    /// The payload bytes.
    pub data: Vec<u8>,
}

/// All-to-all backend selected by [`RawComm::alltoallv_strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlltoallAlgo {
    /// Decide from `p` and locality: grid for large or multi-host
    /// communicators, dense otherwise. Sparse is never auto-selected —
    /// its O(degree) win needs a pattern the dense API can't see.
    #[default]
    Auto,
    /// One envelope per peer ([`RawComm::alltoallv`]).
    Dense,
    /// NBX dynamic sparse exchange ([`RawComm::sparse_alltoallv`]).
    Sparse,
    /// Two-hop ⌈√p⌉-grid routing ([`RawComm::grid_alltoallv`]).
    Grid,
}

impl AlltoallAlgo {
    /// Parses the `KAMPING_ALLTOALL` values.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "auto" | "" => Some(Self::Auto),
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            "grid" => Some(Self::Grid),
            _ => None,
        }
    }
}

/// Cached ⌈√p⌉-grid decomposition of a communicator: this rank's row and
/// column sub-communicators plus its grid coordinates. Built (two splits)
/// on first use by [`RawComm::grid_alltoallv`] and cached on the
/// communicator; cloning shares the underlying sub-communicator state.
#[derive(Clone)]
pub struct GridCache {
    pub(crate) size: usize,
    pub(crate) width: usize,
    pub(crate) my_col: usize,
    pub(crate) row: RawComm,
    pub(crate) col: RawComm,
}

impl GridCache {
    /// Grid width (⌈√p⌉).
    pub fn width(&self) -> usize {
        self.width
    }

    fn row_of(&self, rank: usize) -> usize {
        rank / self.width
    }

    fn col_of(&self, rank: usize) -> usize {
        rank % self.width
    }

    /// Number of ranks in column `col` (the last grid row may be partial).
    fn col_len(&self, col: usize) -> usize {
        if col >= self.size {
            0
        } else {
            (self.size - col).div_ceil(self.width)
        }
    }
}

/// One routed grid message block on the wire: header (final destination,
/// original source, payload byte length; u64 LE each) then the payload.
fn push_block(wire: &mut Vec<u8>, dest: usize, src: usize, payload: &[u8]) {
    wire.extend_from_slice(&(dest as u64).to_le_bytes());
    wire.extend_from_slice(&(src as u64).to_le_bytes());
    wire.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    wire.extend_from_slice(payload);
}

/// Iterates the blocks of a routed grid wire buffer.
fn for_each_block(wire: &[u8], mut f: impl FnMut(usize, usize, &[u8])) -> MpiResult<()> {
    let mut off = 0;
    while off < wire.len() {
        if off + 24 > wire.len() {
            return Err(MpiError::Internal("grid: truncated block header"));
        }
        let dest = u64::from_le_bytes(wire[off..off + 8].try_into().expect("8 bytes")) as usize;
        let src = u64::from_le_bytes(wire[off + 8..off + 16].try_into().expect("8 bytes")) as usize;
        let len =
            u64::from_le_bytes(wire[off + 16..off + 24].try_into().expect("8 bytes")) as usize;
        off += 24;
        if off + len > wire.len() {
            return Err(MpiError::Internal("grid: truncated block payload"));
        }
        f(dest, src, &wire[off..off + len]);
        off += len;
    }
    Ok(())
}

/// Applies `op` elementwise: both buffers are sequences of `elem_size`-byte
/// elements of equal length.
pub(crate) fn combine(acc: &mut [u8], rhs: &[u8], op: impl Fn(&mut [u8], &[u8]), elem_size: usize) {
    debug_assert_eq!(acc.len(), rhs.len());
    debug_assert!(elem_size > 0 && acc.len().is_multiple_of(elem_size));
    for (a, r) in acc.chunks_mut(elem_size).zip(rhs.chunks(elem_size)) {
        op(a, r);
    }
}

/// Exclusive prefix sum of `counts`, i.e. canonical displacements.
pub fn excl_prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut displs = Vec::with_capacity(counts.len());
    let mut acc = 0usize;
    for &c in counts {
        displs.push(acc);
        acc += c;
    }
    displs
}

impl RawComm {
    /// Internal receive on a collective tag (no op-counter recording;
    /// zero-copy when the payload is uniquely held).
    pub(crate) fn recv_internal(&self, src: usize, tag: Tag) -> MpiResult<Vec<u8>> {
        let src_global = self.global_rank(src)?;
        let key = MatchKey {
            src: src_global,
            tag,
            ctx: self.ctx,
        };
        let interrupt = wait_interrupt(&self.state, src_global, self.ctx);
        let d = self
            .state
            .mailbox(self.my_global_rank())
            .take_blocking(key, &interrupt)?;
        Ok(d.payload.into_vec())
    }

    /// Internal send on a collective tag (no op-counter recording).
    pub(crate) fn send_internal(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> MpiResult<()> {
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        let dest_global = self.global_rank(dest)?;
        self.post_to(dest_global, tag, Payload::from_vec(payload), None);
        Ok(())
    }

    fn check_len(&self, v: &[usize], what: &'static str) -> MpiResult<()> {
        if v.len() != self.size() {
            return Err(MpiError::InvalidCounts { what });
        }
        Ok(())
    }

    pub(crate) fn check_root(&self, root: usize) -> MpiResult<()> {
        if root >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: self.size(),
            });
        }
        Ok(())
    }

    /// Barrier: dissemination algorithm, ⌈log₂ p⌉ rounds.
    pub fn barrier(&self) -> MpiResult<()> {
        let _op = self.record(Op::Barrier);
        self.run_inline(|cx| Ok(BarrierSm::start(cx, coll_tag(self.next_coll_seq()))))?;
        Ok(())
    }

    /// Broadcast: `buf` at `root` is distributed to all ranks, replacing
    /// their `buf` contents. Zero-copy down the binomial tree rooted at
    /// `root` (DESIGN.md §11).
    pub fn bcast(&self, buf: &mut Vec<u8>, root: usize) -> MpiResult<()> {
        let _op = self.record(Op::Bcast);
        *buf = self
            .run_inline(|cx| self.bcast_sm(cx, root, || Payload::from_vec(std::mem::take(buf))))?;
        Ok(())
    }

    /// Broadcast variant whose root sends from a *borrowed* slice: the
    /// root's data is packed into one shared payload (a single allocation
    /// for the entire fan-out), never copied per child. Returns the
    /// received bytes on non-root ranks and `None` at the root.
    pub fn bcast_from(&self, data_at_root: &[u8], root: usize) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Bcast);
        let seed = || Payload::from_slice(data_at_root);
        if self.rank() == root {
            // A root's machine is complete once built — it only fans out —
            // so dropping it unstepped skips materializing a result the
            // caller already holds.
            self.bcast_sm(&self.cx()?, root, seed)?;
            return Ok(None);
        }
        self.run_inline(|cx| self.bcast_sm(cx, root, seed))
            .map(Some)
    }

    /// Variable-size gather: every rank contributes `send`; `root` receives
    /// the rank-ordered concatenation. `recv_counts` (byte counts per rank)
    /// is required at the root and ignored elsewhere. Returns the
    /// concatenation at the root, `None` elsewhere.
    pub fn gatherv(
        &self,
        send: &[u8],
        recv_counts: Option<&[usize]>,
        root: usize,
    ) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Gatherv);
        let tag = coll_tag(self.next_coll_seq());
        self.gatherv_inner(send, recv_counts, root, tag)
    }

    fn gatherv_inner(
        &self,
        send: &[u8],
        recv_counts: Option<&[usize]>,
        root: usize,
        tag: Tag,
    ) -> MpiResult<Option<Vec<u8>>> {
        let p = self.size();
        self.check_root(root)?;
        if self.rank() != root {
            self.send_internal(root, tag, send.to_vec())?;
            return Ok(None);
        }
        let counts = recv_counts.ok_or(MpiError::InvalidCounts {
            what: "root gatherv needs recv_counts",
        })?;
        self.check_len(counts, "gatherv recv_counts length != comm size")?;
        if counts[root] != send.len() {
            return Err(MpiError::InvalidCounts {
                what: "gatherv: own recv_count != send length",
            });
        }
        let displs = excl_prefix_sum(counts);
        let total: usize = counts.iter().sum();
        let mut out = vec![0u8; total];
        out[displs[root]..displs[root] + send.len()].copy_from_slice(send);
        for src in 0..p {
            if src == root {
                continue;
            }
            let part = self.recv_internal(src, tag)?;
            if part.len() != counts[src] {
                return Err(MpiError::InvalidCounts {
                    what: "gatherv: message length != recv_count",
                });
            }
            out[displs[src]..displs[src] + part.len()].copy_from_slice(&part);
        }
        Ok(Some(out))
    }

    /// Fixed-size gather: like [`gatherv`](Self::gatherv) with all counts
    /// equal to `send.len()`.
    pub fn gather(&self, send: &[u8], root: usize) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Gather);
        let tag = coll_tag(self.next_coll_seq());
        let counts = vec![send.len(); self.size()];
        self.gatherv_inner(send, Some(&counts), root, tag)
    }

    /// Variable-size scatter: `root` provides one byte block per rank;
    /// every rank receives its block.
    pub fn scatterv(&self, parts: Option<&[Vec<u8>]>, root: usize) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Scatterv);
        let tag = coll_tag(self.next_coll_seq());
        self.scatterv_inner(parts, root, tag)
    }

    fn scatterv_inner(
        &self,
        parts: Option<&[Vec<u8>]>,
        root: usize,
        tag: Tag,
    ) -> MpiResult<Vec<u8>> {
        let p = self.size();
        self.check_root(root)?;
        if self.rank() == root {
            let parts = parts.ok_or(MpiError::InvalidCounts {
                what: "root scatterv needs parts",
            })?;
            if parts.len() != p {
                return Err(MpiError::InvalidCounts {
                    what: "scatterv parts length != comm size",
                });
            }
            for (dest, part) in parts.iter().enumerate() {
                if dest != root {
                    self.send_internal(dest, tag, part.clone())?;
                }
            }
            Ok(parts[root].clone())
        } else {
            self.recv_internal(root, tag)
        }
    }

    /// Fixed-size scatter (equal block sizes enforced).
    pub fn scatter(&self, parts: Option<&[Vec<u8>]>, root: usize) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Scatter);
        if let Some(parts) = parts {
            if parts.windows(2).any(|w| w[0].len() != w[1].len()) {
                return Err(MpiError::InvalidCounts {
                    what: "scatter requires equal block sizes",
                });
            }
        }
        let tag = coll_tag(self.next_coll_seq());
        self.scatterv_inner(parts, root, tag)
    }

    /// Fixed-size allgather: every rank contributes `send` (same length on
    /// every rank); returns the rank-ordered concatenation on every rank.
    /// Bruck's allgather: ⌈log₂ p⌉ rounds for any `p`.
    pub fn allgather(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgather);
        let counts = vec![send.len(); self.size()];
        self.run_inline(|cx| {
            let tag = coll_tag(self.next_coll_seq());
            Ok(AllgathervSm::start(cx, tag, send, counts))
        })
    }

    /// Variable-size allgather. `recv_counts[r]` is the byte count rank `r`
    /// contributes — required on every rank, exactly like `MPI_Allgatherv`.
    /// Same algorithm as [`RawComm::allgather`].
    pub fn allgatherv(&self, send: &[u8], recv_counts: &[usize]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgatherv);
        self.run_inline(|cx| {
            self.check_allgatherv_args(send, recv_counts)?;
            let tag = coll_tag(self.next_coll_seq());
            Ok(AllgathervSm::start(cx, tag, send, recv_counts))
        })
    }

    pub(crate) fn check_allgatherv_args(
        &self,
        send: &[u8],
        recv_counts: &[usize],
    ) -> MpiResult<()> {
        self.check_len(recv_counts, "allgatherv recv_counts length != comm size")?;
        if recv_counts[self.rank()] != send.len() {
            return Err(MpiError::InvalidCounts {
                what: "allgatherv: own recv_count != send length",
            });
        }
        Ok(())
    }

    /// Fixed-size all-to-all: `send` is `p` equal byte blocks; block `i`
    /// goes to rank `i`. Returns the `p` received blocks concatenated in
    /// rank order. Bruck's algorithm for small blocks, the direct linear
    /// exchange otherwise (`RawComm::alltoall_plan`).
    pub fn alltoall(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Alltoall);
        let (block, bruck) = self.alltoall_plan(send)?;
        if bruck {
            return self.run_inline(|cx| Ok(self.alltoall_bruck_sm(cx, send, block)));
        }
        let counts = vec![block; self.size()];
        let displs = excl_prefix_sum(&counts);
        self.alltoallv_inline(send, &counts, &displs, &counts, &displs)
    }

    /// Fixed-size all-to-all with Bruck's algorithm, regardless of size
    /// (exposed for tests and benchmarks; `alltoall` dispatches to it
    /// automatically for small blocks).
    pub fn alltoall_bruck(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Alltoall);
        let (block, _) = self.alltoall_plan(send)?;
        self.run_inline(|cx| Ok(self.alltoall_bruck_sm(cx, send, block)))
    }

    /// Variable all-to-all with explicit byte counts and displacements, the
    /// full `MPI_Alltoallv` surface. Every peer gets an envelope, including
    /// zero-byte ones — the linear startup cost the sparse/grid plugins
    /// exist to avoid.
    pub fn alltoallv(
        &self,
        send: &[u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Alltoallv);
        self.alltoallv_inline(send, send_counts, send_displs, recv_counts, recv_displs)
    }

    fn alltoallv_inline(
        &self,
        send: &[u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> MpiResult<Vec<u8>> {
        self.run_inline(|cx| {
            let tag = coll_tag(self.next_coll_seq());
            let send_layout = (send_counts, send_displs);
            AlltoallvSm::start(cx, tag, send, send_layout, recv_counts, recv_displs)
        })
    }

    /// Tree reduce of equal-length buffers into `root`'s `buf`; non-root
    /// buffers are consumed. Runs up the tree [`RawComm::bcast`] runs down.
    /// `op` combines `elem_size`-byte elements; the combine order is a
    /// deterministic function of the tree (associative ops reduce exactly;
    /// floating-point results depend on `p` — see the reproducible-reduce
    /// plugin).
    pub fn reduce(
        &self,
        buf: &mut Vec<u8>,
        op: ByteOp<'_>,
        elem_size: usize,
        root: usize,
    ) -> MpiResult<()> {
        let _op = self.record(Op::Reduce);
        *buf = self.run_inline(|_| self.reduce_sm(buf, op, elem_size, root))?;
        Ok(())
    }

    /// Reduce-to-all (DESIGN.md §11): tree reduce + broadcast,
    /// Rabenseifner's halving/doubling from 32 KiB at p ≥ 4.
    pub fn allreduce(&self, buf: &mut Vec<u8>, op: ByteOp<'_>, elem_size: usize) -> MpiResult<()> {
        let _op = self.record(Op::Allreduce);
        check_elems(buf, elem_size)?;
        let algo = self.allreduce_algo(buf.len());
        let mine = std::mem::take(buf);
        *buf = self.run_inline(|_| Ok(self.allreduce_sm(algo, mine, op, elem_size)))?;
        Ok(())
    }

    /// The algorithm an allreduce of `len` bytes takes, for the blocking
    /// and the nonblocking name alike: Rabenseifner from
    /// [`RABENSEIFNER_MIN_BYTES`] at p ≥ 4, else reduce + broadcast over
    /// the tree. `len` is rank-uniform by the collective's own contract
    /// (all buffers equal length), so every rank picks the same.
    pub(crate) fn allreduce_algo(&self, len: usize) -> AllreduceAlgo {
        if len >= RABENSEIFNER_MIN_BYTES && self.size() >= 4 {
            self.note_rabenseifner();
            AllreduceAlgo::Rabenseifner
        } else {
            AllreduceAlgo::Tree
        }
    }

    /// Counts one Rabenseifner dispatch in this rank's stats block.
    fn note_rabenseifner(&self) {
        let me = self.my_global_rank();
        self.state.trace.count(me, Counter::StrategyRabenseifner, 1);
    }

    /// Rabenseifner allreduce regardless of size (the A/B point against
    /// the tree; [`RawComm::allreduce`] selects it for large payloads):
    /// recursive-halving reduce-scatter followed by a recursive-doubling
    /// allgather (`crate::icoll::sm::rabenseifner_steps`). Bandwidth-optimal
    /// for large payloads — each rank moves ~2·(p−1)/p·n bytes instead of
    /// the 2·n·log p of tree reduce+bcast. Works for any `p` and any
    /// element count. Requires an associative *and commutative* operator,
    /// like every reduction here.
    pub fn allreduce_rabenseifner(
        &self,
        buf: &mut Vec<u8>,
        op: ByteOp<'_>,
        elem_size: usize,
    ) -> MpiResult<()> {
        let _op = self.record(Op::Allreduce);
        check_elems(buf, elem_size)?;
        self.note_rabenseifner();
        let mine = std::mem::take(buf);
        let algo = AllreduceAlgo::Rabenseifner;
        *buf = self.run_inline(|_| Ok(self.allreduce_sm(algo, mine, op, elem_size)))?;
        Ok(())
    }

    /// Reduce-scatter with equal blocks (`MPI_Reduce_scatter_block`): the
    /// elementwise reduction of everyone's buffer is computed and rank `r`
    /// receives its `r`-th block. Buffer length must be `size * block`
    /// bytes; returns this rank's reduced block.
    pub fn reduce_scatter_block(
        &self,
        buf: &[u8],
        op: ByteOp<'_>,
        elem_size: usize,
    ) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Reduce);
        let _op = self.record(Op::Scatterv);
        let p = self.size();
        if elem_size == 0 {
            return Err(MpiError::InvalidCounts {
                what: "reduce_scatter_block: elem_size must be nonzero",
            });
        }
        if !buf.len().is_multiple_of(p) || !(buf.len() / p).is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "reduce_scatter_block: buffer not divisible into p element blocks",
            });
        }
        let acc = self.run_inline(|_| {
            Ok(self.reduce_over(&self.rooted_tree(0), buf.to_vec(), op, elem_size))
        })?;
        let scatter_tag = coll_tag(self.next_coll_seq());
        let parts: Option<Vec<Vec<u8>>> = (self.rank() == 0).then(|| {
            let block = acc.len() / p;
            (0..p)
                .map(|r| acc[r * block..(r + 1) * block].to_vec())
                .collect()
        });
        self.scatterv_inner(parts.as_deref(), 0, scatter_tag)
    }

    /// Combined send + receive that reuses one buffer
    /// (`MPI_Sendrecv_replace`): sends the current contents to `dest`,
    /// replaces them with the message received from `source`.
    pub fn sendrecv_replace(
        &self,
        buf: &mut Vec<u8>,
        dest: usize,
        send_tag: Tag,
        source: usize,
        recv_tag: Tag,
    ) -> MpiResult<crate::Status> {
        let outgoing = std::mem::take(buf);
        let _op = self.record(Op::Send);
        let dest_global = self.global_rank(dest)?;
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        self.post_to(dest_global, send_tag, Payload::from_vec(outgoing), None);
        let (incoming, status) = self.recv(source, recv_tag)?;
        *buf = incoming;
        Ok(status)
    }

    /// Inclusive prefix reduction (`MPI_Scan`): rank `r`'s buffer becomes
    /// the elementwise fold of ranks `0..=r`. Chain algorithm.
    pub fn scan(&self, buf: &mut Vec<u8>, op: ByteOp<'_>, elem_size: usize) -> MpiResult<()> {
        let _op = self.record(Op::Scan);
        let tag = coll_tag(self.next_coll_seq());
        if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "scan buffer not a multiple of elem_size",
            });
        }
        let r = self.rank();
        if r > 0 {
            let mut prefix = self.recv_internal(r - 1, tag)?;
            if prefix.len() != buf.len() {
                return Err(MpiError::InvalidCounts {
                    what: "scan buffers differ in length",
                });
            }
            combine(&mut prefix, buf, op, elem_size);
            *buf = prefix;
        }
        if r + 1 < self.size() {
            self.send_internal(r + 1, tag, buf.clone())?;
        }
        Ok(())
    }

    /// Exclusive prefix reduction (`MPI_Exscan`): rank `r` receives the fold
    /// of ranks `0..r`; rank 0 receives `None` (its value is undefined in
    /// MPI).
    pub fn exscan(
        &self,
        buf: &[u8],
        op: ByteOp<'_>,
        elem_size: usize,
    ) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Exscan);
        let tag = coll_tag(self.next_coll_seq());
        if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "exscan buffer not a multiple of elem_size",
            });
        }
        let r = self.rank();
        let prefix = if r > 0 {
            let p = self.recv_internal(r - 1, tag)?;
            if p.len() != buf.len() {
                return Err(MpiError::InvalidCounts {
                    what: "exscan buffers differ in length",
                });
            }
            Some(p)
        } else {
            None
        };
        if r + 1 < self.size() {
            let mut inclusive = match &prefix {
                Some(p) => {
                    let mut acc = p.clone();
                    combine(&mut acc, buf, op, elem_size);
                    acc
                }
                None => buf.to_vec(),
            };
            self.send_internal(r + 1, tag, std::mem::take(&mut inclusive))?;
        }
        Ok(prefix)
    }

    // ----- strategy-selectable all-to-all backends (DESIGN.md §11) -----

    /// Dense `alltoallv` over per-destination byte vectors: `parts[d]`
    /// goes to rank `d`; returns one vector per source rank. Exchanges
    /// counts first (one small `alltoall`), so callers don't need to know
    /// receive sizes — the convenience surface the strategy layer and the
    /// grid phases build on.
    pub(crate) fn alltoallv_parts(&self, parts: &[Vec<u8>]) -> MpiResult<Vec<Vec<u8>>> {
        let p = self.size();
        if parts.len() != p {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv_parts length != comm size",
            });
        }
        let send_counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let count_wire: Vec<u8> = send_counts
            .iter()
            .flat_map(|&c| (c as u64).to_le_bytes())
            .collect();
        let recv_counts: Vec<usize> = self
            .alltoall(&count_wire)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
            .collect();
        let send: Vec<u8> = parts.concat();
        let send_displs = excl_prefix_sum(&send_counts);
        let recv_displs = excl_prefix_sum(&recv_counts);
        let flat = self.alltoallv(
            &send,
            &send_counts,
            &send_displs,
            &recv_counts,
            &recv_displs,
        )?;
        Ok(recv_counts
            .iter()
            .zip(&recv_displs)
            .map(|(&c, &d)| flat[d..d + c].to_vec())
            .collect())
    }

    /// Personalized all-to-all routed per [`AlltoallAlgo`]: explicit
    /// algorithm, or `KAMPING_ALLTOALL`, or the auto rule (grid for large
    /// or multi-host communicators, dense otherwise). Input/output shape
    /// matches `RawComm::alltoallv_parts`. All ranks must resolve the
    /// same algorithm, which holds because every selection input is
    /// rank-uniform.
    pub fn alltoallv_strategy(
        &self,
        parts: &[Vec<u8>],
        algo: AlltoallAlgo,
    ) -> MpiResult<Vec<Vec<u8>>> {
        let algo = match algo {
            AlltoallAlgo::Auto => self.auto_alltoall_algo(),
            explicit => explicit,
        };
        match algo {
            AlltoallAlgo::Dense => self.alltoallv_parts(parts),
            AlltoallAlgo::Grid => self.grid_alltoallv(parts),
            AlltoallAlgo::Sparse => {
                let p = self.size();
                if parts.len() != p {
                    return Err(MpiError::InvalidCounts {
                        what: "alltoallv_parts length != comm size",
                    });
                }
                let messages: Vec<(usize, Vec<u8>)> = parts
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| !m.is_empty())
                    .map(|(d, m)| (d, m.clone()))
                    .collect();
                let mut out = vec![Vec::new(); p];
                for msg in self.sparse_alltoallv(&messages)? {
                    out[msg.source].extend_from_slice(&msg.data);
                }
                Ok(out)
            }
            AlltoallAlgo::Auto => unreachable!("auto resolved above"),
        }
    }

    /// The `Auto` rule for [`RawComm::alltoallv_strategy`]: honour
    /// `KAMPING_ALLTOALL` if set to a concrete algorithm, else route over
    /// the grid once per-peer startups dominate — large `p`, or moderate
    /// `p` spread across hosts (socket startups cost ~µs, not ~ns).
    fn auto_alltoall_algo(&self) -> AlltoallAlgo {
        if self.state.config.alltoall != AlltoallAlgo::Auto {
            return self.state.config.alltoall;
        }
        let p = self.size();
        if p >= 48 || (p >= 16 && !self.single_host_view()) {
            AlltoallAlgo::Grid
        } else {
            AlltoallAlgo::Dense
        }
    }

    /// True if every rank of this communicator shares the calling
    /// process's host, the input of the alltoall `Auto` rule. Computed
    /// from the local locality view only — the same-host relation
    /// partitions the job, so the predicate is identical on every rank —
    /// and cached.
    pub(crate) fn single_host_view(&self) -> bool {
        if let Some(v) = self.single_host.get() {
            return v;
        }
        let v = if self.fake_hosts.get().is_some_and(|k| k >= 2) && self.size() > 1 {
            false
        } else {
            let transport = &self.state.transport;
            (0..self.size()).all(|l| transport.locality(self.group[l]).same_host())
        };
        self.single_host.set(Some(v));
        v
    }

    /// Pretends this communicator spans `k` hosts: with `k ≥ 2`, the
    /// alltoall `Auto` rule ([`AlltoallAlgo::Auto`]) sees several hosts
    /// whatever the transport's locality says — the test seam of its
    /// "p ≥ 16 across hosts" branch. Nothing else reads it: every rooted
    /// collective runs over the one binomial tree. Must be applied
    /// identically on every rank before first use.
    pub fn set_fake_hosts(&self, k: usize) {
        self.fake_hosts.set(Some(k));
        self.single_host.set(None);
    }

    /// NBX dynamic sparse data exchange (Hoefler, Siebert and Lumsdaine,
    /// PPoPP'10): issend every message, probe-receive until own sends
    /// completed, then a non-blocking barrier certifies global quiescence.
    /// O(degree) messages per rank — no term linear in `p`. Collective:
    /// every rank must call it (possibly with no messages).
    ///
    /// Results are sorted by source for determinism; several messages from
    /// one source keep their send order, because a channel never overtakes
    /// (the sort is stable).
    pub fn sparse_alltoallv(&self, messages: &[(usize, Vec<u8>)]) -> MpiResult<Vec<SparseMsg>> {
        // Per-round tag: rank-synchronized because the exchange is
        // collective (every rank calls it in the same order).
        let tag = SPARSE_TAG_BASE + (self.next_operation_seq() % SPARSE_TAG_ROTATION);

        // 1. Post all sends in synchronous mode.
        let mut send_reqs: Vec<RawRequest> = Vec::with_capacity(messages.len());
        for (dest, data) in messages {
            send_reqs.push(self.issend(*dest, tag, data.clone())?);
        }

        let mut received: Vec<SparseMsg> = Vec::new();
        let mut barrier: Option<RawRequest> = None;

        // 2. Probe/receive until the barrier certifies quiescence. One step
        // drains the probes, then tests the sends or the barrier; between
        // steps the rank sleeps on its gate, which everything a step waits
        // for bumps: a deposit (a message of this round, a barrier token),
        // the ack of its own issend and a fault mark. A barrier that a
        // delivering thread completed after its deposit's bump is stepped
        // by `test` itself.
        let mut step = || -> MpiResult<Option<()>> {
            while let Some(status) = self.iprobe(ANY_SOURCE, tag)? {
                let (data, st) = self.recv(status.source, tag)?;
                received.push(SparseMsg {
                    source: st.source,
                    data,
                });
            }
            if barrier.is_none() {
                for r in &mut send_reqs {
                    if !r.is_complete() && r.test()?.is_none() {
                        return Ok(None);
                    }
                }
                barrier = Some(self.ibarrier()?);
            }
            let req = barrier.as_mut().expect("issued once every send completed");
            Ok(req.test()?.map(drop))
        };
        self.mailbox()
            .wait_until(&|| None, None, |_| step().transpose())??;
        // No draining after barrier completion: synchronous-mode semantics
        // guarantee every message of this round was matched before any
        // rank entered the barrier, and a drain here could steal messages
        // of a *subsequent* round from a fast peer.

        received.sort_by_key(|m| m.source);
        Ok(received)
    }

    /// This communicator's grid decomposition, built (two splits — a
    /// collective) on first use and cached. Cloned out so no `RefCell`
    /// borrow is held across the collective calls made through it.
    /// Public so binding layers can pre-build the grid at a predictable
    /// point instead of inside the first exchange.
    pub fn grid_cache(&self) -> MpiResult<std::rc::Rc<GridCache>> {
        if let Some(g) = self.grid.borrow().as_ref() {
            return Ok(std::rc::Rc::clone(g));
        }
        let p = self.size();
        let width = (p as f64).sqrt().ceil() as usize;
        let my_row = self.rank() / width;
        let my_col = self.rank() % width;
        let row = self.split(my_row as u64, my_col as u64)?;
        let col = self.split(width as u64 + my_col as u64, my_row as u64)?;
        let g = std::rc::Rc::new(GridCache {
            size: p,
            width,
            my_col,
            row,
            col,
        });
        *self.grid.borrow_mut() = Some(std::rc::Rc::clone(&g));
        Ok(g)
    }

    /// Grid (two-dimensional) all-to-all, after Kalé, Kumar and
    /// Varadarajan: ranks form a virtual ⌈√p⌉-wide grid and every message
    /// travels within the sender's *column* to the destination's row, then
    /// within that *row* to the destination — O(√p) peers per phase
    /// instead of p − 1, trading volume (payloads travel twice, plus
    /// routing headers) for startups. For non-square `p` the last grid row
    /// is partial; messages whose sender column does not reach the
    /// destination's row take a third, within-column cleanup hop.
    ///
    /// `parts[d]` goes to rank `d`; returns one vector per source rank.
    pub fn grid_alltoallv(&self, parts: &[Vec<u8>]) -> MpiResult<Vec<Vec<u8>>> {
        let p = self.size();
        if parts.len() != p {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv_parts length != comm size",
            });
        }
        let g = self.grid_cache()?;
        let me = self.rank();
        let exchange = |comm: &RawComm, outgoing: Vec<Vec<u8>>| -> MpiResult<Vec<u8>> {
            Ok(comm.alltoallv_parts(&outgoing)?.concat())
        };

        // Phase A: within my column, towards the destination's row (or the
        // deepest row my column reaches — phase C finishes the job).
        let mut phase_a: Vec<Vec<u8>> = vec![Vec::new(); g.col.size()];
        for (dest, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue; // nothing to route; receivers infer zero counts
            }
            let target_row = g.row_of(dest).min(g.col_len(g.my_col) - 1);
            push_block(&mut phase_a[target_row], dest, me, part);
        }
        let after_a = exchange(&g.col, phase_a)?;

        // Phase B: within my row, towards the destination's column.
        let mut phase_b: Vec<Vec<u8>> = vec![Vec::new(); g.row.size()];
        for_each_block(&after_a, |dest, src, payload| {
            push_block(&mut phase_b[g.col_of(dest)], dest, src, payload);
        })?;
        let after_b = exchange(&g.row, phase_b)?;

        // Phase C: within my column, cleanup hop for messages whose sender
        // column was shorter than the destination's row.
        let mut phase_c: Vec<Vec<u8>> = vec![Vec::new(); g.col.size()];
        for_each_block(&after_b, |dest, src, payload| {
            push_block(&mut phase_c[g.row_of(dest)], dest, src, payload);
        })?;
        let after_c = exchange(&g.col, phase_c)?;

        // Collect, grouped by original source.
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
        let mut misrouted = false;
        for_each_block(&after_c, |dest, src, payload| {
            misrouted |= dest != me || src >= p;
            if src < p {
                out[src].extend_from_slice(payload);
            }
        })?;
        if misrouted {
            return Err(MpiError::Internal("grid: block routed to wrong rank"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;
    use crate::Universe;
    use std::time::Duration;

    fn u64_op() -> impl Fn(&mut [u8], &[u8]) + Sync {
        |acc: &mut [u8], rhs: &[u8]| {
            let a = u64::from_le_bytes(acc.try_into().unwrap());
            let b = u64::from_le_bytes(rhs.try_into().unwrap());
            acc.copy_from_slice(&(a + b).to_le_bytes());
        }
    }

    fn encode(vals: &[u64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn decode(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn forced_rabenseifner_matches_flat_allreduce() {
        for p in [1, 2, 3, 4, 5, 6, 7, 8, 11, 16] {
            Universe::run(p, |comm| {
                let op = u64_op();
                // Deliberately includes counts smaller than p (empty
                // chunks) and counts not divisible by p.
                for count in [1usize, 3, p, 4 * p + 1, 257] {
                    let vals: Vec<u64> = (0..count as u64)
                        .map(|i| i * 31 + comm.rank() as u64)
                        .collect();
                    let mut rab = encode(&vals);
                    let mut flat = rab.clone();
                    comm.allreduce_rabenseifner(&mut rab, &op, 8).unwrap();
                    comm.allreduce(&mut flat, &op, 8).unwrap();
                    assert_eq!(rab, flat, "p={p} count={count}");
                }
            });
        }
    }

    #[test]
    fn barrier_many_rounds() {
        Universe::run(7, |comm| {
            for _ in 0..10 {
                comm.barrier().unwrap();
            }
        });
    }

    #[test]
    fn bcast_all_roots_all_sizes() {
        for p in [1, 2, 3, 4, 5, 8] {
            Universe::run(p, |comm| {
                for root in 0..comm.size() {
                    let mut buf = if comm.rank() == root {
                        format!("payload-from-{root}").into_bytes()
                    } else {
                        Vec::new()
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    assert_eq!(buf, format!("payload-from-{root}").into_bytes());
                }
            });
        }
    }

    #[test]
    fn gatherv_concatenates_in_rank_order() {
        Universe::run(4, |comm| {
            let send = vec![comm.rank() as u8; comm.rank() + 1];
            let counts: Vec<usize> = (1..=comm.size()).collect();
            let got = comm.gatherv(&send, Some(&counts), 2).unwrap();
            if comm.rank() == 2 {
                assert_eq!(got.unwrap(), vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
            } else {
                assert!(got.is_none());
            }
        });
    }

    #[test]
    fn scatterv_roundtrips_gatherv() {
        Universe::run(3, |comm| {
            let parts: Option<Vec<Vec<u8>>> =
                (comm.rank() == 1).then(|| (0..3).map(|i| vec![i as u8; i + 2]).collect());
            let mine = comm.scatterv(parts.as_deref(), 1).unwrap();
            assert_eq!(mine, vec![comm.rank() as u8; comm.rank() + 2]);
        });
    }

    #[test]
    fn scatter_rejects_ragged_blocks() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let parts = vec![vec![1u8], vec![2u8, 3u8]];
                assert!(matches!(
                    comm.scatter(Some(&parts), 0),
                    Err(MpiError::InvalidCounts { .. })
                ));
            }
            // note: collective aborted on root only; other rank skips too
        });
    }

    #[test]
    fn allgather_equal_blocks() {
        Universe::run(5, |comm| {
            let mine = [comm.rank() as u8, 0xAB];
            let all = comm.allgather(&mine).unwrap();
            let want: Vec<u8> = (0..5).flat_map(|r| [r as u8, 0xAB]).collect();
            assert_eq!(all, want);
        });
    }

    #[test]
    fn allgatherv_variable_blocks() {
        Universe::run(4, |comm| {
            let send = vec![comm.rank() as u8; 2 * comm.rank()];
            let counts: Vec<usize> = (0..4).map(|r| 2 * r).collect();
            let all = comm.allgatherv(&send, &counts).unwrap();
            let want: Vec<u8> = (0..4).flat_map(|r| vec![r as u8; 2 * r]).collect();
            assert_eq!(all, want);
        });
    }

    #[test]
    fn allgatherv_validates_own_count() {
        Universe::run(1, |comm| {
            let err = comm.allgatherv(&[1, 2, 3], &[2]).unwrap_err();
            assert!(matches!(err, MpiError::InvalidCounts { .. }));
        });
    }

    #[test]
    fn alltoall_transpose() {
        Universe::run(4, |comm| {
            let me = comm.rank() as u8;
            // block sent to rank d is [me, d]
            let send: Vec<u8> = (0..4).flat_map(|d| [me, d as u8]).collect();
            let recv = comm.alltoall(&send).unwrap();
            let want: Vec<u8> = (0..4).flat_map(|s| [s as u8, me]).collect();
            assert_eq!(recv, want);
        });
    }

    #[test]
    fn alltoallv_irregular() {
        Universe::run(3, |comm| {
            let me = comm.rank();
            // rank r sends (r + d + 1) bytes of value r to rank d
            let send_counts: Vec<usize> = (0..3).map(|d| me + d + 1).collect();
            let send_displs = excl_prefix_sum(&send_counts);
            let send: Vec<u8> = (0..3).flat_map(|d| vec![me as u8; me + d + 1]).collect();
            let recv_counts: Vec<usize> = (0..3).map(|s| s + me + 1).collect();
            let recv_displs = excl_prefix_sum(&recv_counts);
            let out = comm
                .alltoallv(
                    &send,
                    &send_counts,
                    &send_displs,
                    &recv_counts,
                    &recv_displs,
                )
                .unwrap();
            let want: Vec<u8> = (0..3).flat_map(|s| vec![s as u8; s + me + 1]).collect();
            assert_eq!(out, want);
        });
    }

    #[test]
    fn reduce_sums_to_root() {
        Universe::run(6, |comm| {
            let op = u64_op();
            let mut buf = encode(&[comm.rank() as u64, 100]);
            comm.reduce(&mut buf, &op, 8, 3).unwrap();
            if comm.rank() == 3 {
                assert_eq!(decode(&buf), vec![15, 600]);
            }
        });
    }

    #[test]
    fn allreduce_everywhere() {
        for p in [1, 2, 3, 4, 7] {
            Universe::run(p, |comm| {
                let op = u64_op();
                let mut buf = encode(&[1, comm.rank() as u64]);
                comm.allreduce(&mut buf, &op, 8).unwrap();
                let n = comm.size() as u64;
                assert_eq!(decode(&buf), vec![n, n * (n - 1) / 2]);
            });
        }
    }

    #[test]
    fn scan_inclusive_prefix() {
        Universe::run(5, |comm| {
            let op = u64_op();
            let mut buf = encode(&[comm.rank() as u64 + 1]);
            comm.scan(&mut buf, &op, 8).unwrap();
            let r = comm.rank() as u64 + 1;
            assert_eq!(decode(&buf), vec![r * (r + 1) / 2]);
        });
    }

    #[test]
    fn exscan_exclusive_prefix() {
        Universe::run(5, |comm| {
            let op = u64_op();
            let buf = encode(&[comm.rank() as u64 + 1]);
            let got = comm.exscan(&buf, &op, 8).unwrap();
            if comm.rank() == 0 {
                assert!(got.is_none());
            } else {
                let r = comm.rank() as u64;
                assert_eq!(decode(&got.unwrap()), vec![r * (r + 1) / 2]);
            }
        });
    }

    #[test]
    fn bruck_matches_linear_alltoall() {
        for p in [2, 3, 5, 8, 13] {
            Universe::run(p, |comm| {
                let me = comm.rank() as u8;
                let send: Vec<u8> = (0..comm.size()).flat_map(|d| [me, d as u8, 0xEE]).collect();
                let linear = {
                    let counts = vec![3usize; comm.size()];
                    let displs = excl_prefix_sum(&counts);
                    comm.alltoallv(&send, &counts, &displs, &counts, &displs)
                        .unwrap()
                };
                let bruck = comm.alltoall_bruck(&send).unwrap();
                assert_eq!(bruck, linear, "p={p}");
            });
        }
    }

    #[test]
    fn small_alltoall_uses_log_messages() {
        let p = 16;
        let (_, profile) = Universe::run_profiled(p, |comm| {
            let send = vec![1u8; p]; // 1 byte per peer: Bruck path
            comm.alltoall(&send).unwrap();
        });
        // Bruck: log2(16) = 4 envelopes per rank, vs 15 for linear.
        assert_eq!(profile.max_messages_per_rank(), 4);
    }

    #[test]
    fn large_alltoall_stays_linear() {
        let p = 8;
        let (_, profile) = Universe::run_profiled(p, |comm| {
            let send = vec![1u8; p * 1024]; // 1 KiB per peer: direct path
            comm.alltoall(&send).unwrap();
        });
        assert_eq!(profile.max_messages_per_rank(), (p - 1) as u64);
    }

    #[test]
    fn reduce_scatter_block_distributes_reduction() {
        Universe::run(4, |comm| {
            let op = u64_op();
            // Everyone contributes [r, r, r, r] per-block values 1..: block b
            // value = rank + b.
            let vals: Vec<u64> = (0..4).map(|b| comm.rank() as u64 + b).collect();
            let buf = encode(&vals);
            let got = comm.reduce_scatter_block(&buf, &op, 8).unwrap();
            // Sum over ranks of (r + b) = 6 + 4b; rank r receives block r.
            assert_eq!(decode(&got), vec![6 + 4 * comm.rank() as u64]);
        });
    }

    #[test]
    fn reduce_scatter_block_zero_length_contributions() {
        // Empty buffers are a well-formed degenerate case (zero elements
        // per rank), never a panic: every rank gets an empty block back.
        for p in [1, 8] {
            Universe::run(p, |comm| {
                let op = u64_op();
                let got = comm.reduce_scatter_block(&[], &op, 8).unwrap();
                assert!(got.is_empty(), "p={p}");
            });
        }
    }

    #[test]
    fn reduce_scatter_block_indivisible_counts_are_typed_errors() {
        for p in [1, 8] {
            Universe::run(p, |comm| {
                let op = u64_op();
                // 12 bytes: not p u64-blocks at p=8 (12 % 8 != 0), and at
                // p=1 a 12-byte block is not a whole number of u64s.
                let buf = vec![0u8; 12];
                let err = comm.reduce_scatter_block(&buf, &op, 8).unwrap_err();
                assert!(matches!(err, MpiError::InvalidCounts { .. }), "p={p}");
                // elem_size = 0 must be rejected up front, not divide by it.
                let err = comm.reduce_scatter_block(&[], &op, 0).unwrap_err();
                assert!(matches!(err, MpiError::InvalidCounts { .. }), "p={p}");
            });
        }
    }

    #[test]
    fn allgatherv_all_empty_contributions() {
        // Bruck's rounds must tolerate all-zero counts (wire buffers are
        // empty but the round structure is unchanged).
        for p in [1, 8] {
            Universe::run(p, |comm| {
                let counts = vec![0usize; comm.size()];
                let all = comm.allgatherv(&[], &counts).unwrap();
                assert!(all.is_empty(), "p={p}");
            });
        }
    }

    #[test]
    fn allgatherv_sparse_single_contributor() {
        // Only one rank contributes bytes; every cyclic run Bruck builds
        // is empty on one side of the wrap at some round.
        Universe::run(8, |comm| {
            let mine = if comm.rank() == 5 {
                vec![9u8; 3]
            } else {
                vec![]
            };
            let mut counts = vec![0usize; 8];
            counts[5] = 3;
            let all = comm.allgatherv(&mine, &counts).unwrap();
            assert_eq!(all, vec![9u8; 3]);
        });
    }

    #[test]
    fn sendrecv_replace_rotates_ring() {
        Universe::run(3, |comm| {
            let p = comm.size();
            let mut buf = vec![comm.rank() as u8; 4];
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let st = comm.sendrecv_replace(&mut buf, right, 5, left, 5).unwrap();
            assert_eq!(buf, vec![left as u8; 4]);
            assert_eq!(st.source, left);
        });
    }

    #[test]
    fn excl_prefix_sum_basic() {
        assert_eq!(excl_prefix_sum(&[3, 1, 4]), vec![0, 3, 4]);
        assert!(excl_prefix_sum(&[]).is_empty());
    }

    #[test]
    fn allgather_matches_rank_order_concatenation() {
        for p in [2, 3, 4, 5, 6, 7, 8, 12, 16] {
            Universe::run(p, |comm| {
                let send = vec![comm.rank() as u8; 3];
                let all = comm.allgather(&send).unwrap();
                let want: Vec<u8> = (0..p).flat_map(|r| vec![r as u8; 3]).collect();
                assert_eq!(all, want, "p={p}");
            });
        }
    }

    #[test]
    fn allgatherv_matches_rank_order_concatenation_variable_counts() {
        for p in [2, 3, 5, 8, 11, 16] {
            Universe::run(p, |comm| {
                let counts: Vec<usize> = (0..comm.size()).map(|r| (r * 7) % 5 + 1).collect();
                let send = vec![comm.rank() as u8; counts[comm.rank()]];
                let all = comm.allgatherv(&send, &counts).unwrap();
                let want: Vec<u8> = (0..p).flat_map(|r| vec![r as u8; counts[r]]).collect();
                assert_eq!(all, want, "p={p}");
            });
        }
    }

    #[test]
    fn allgather_uses_log_messages() {
        for (p, rounds) in [(16usize, 4u64), (13, 4), (8, 3), (5, 3)] {
            let (_, profile) = Universe::run_profiled(p, |comm| {
                let send = vec![comm.rank() as u8; 4];
                comm.allgather(&send).unwrap();
            });
            assert_eq!(profile.max_messages_per_rank(), rounds, "p={p}");
        }
    }

    #[test]
    fn bcast_all_roots_ragged_trees() {
        for p in [2, 5, 9] {
            Universe::run(p, |comm| {
                for root in 0..comm.size() {
                    let seed = |r: usize| vec![r as u8; 40];
                    let mut buf = if comm.rank() == root {
                        seed(root)
                    } else {
                        Vec::new()
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    assert_eq!(buf, seed(root));
                }
            });
        }
    }

    #[test]
    fn reduce_to_inner_root() {
        Universe::run(7, |comm| {
            let op = u64_op();
            let mut buf = encode(&[comm.rank() as u64, 5]);
            comm.reduce(&mut buf, &op, 8, 2).unwrap();
            if comm.rank() == 2 {
                assert_eq!(decode(&buf), vec![21, 35]);
            }
        });
    }

    #[test]
    fn collectives_count_messages_per_rank() {
        let (_, profile) = Universe::run_profiled(4, |comm| {
            let mut counts = vec![0usize; 4];
            counts.iter_mut().for_each(|c| *c = 8);
            let send = vec![0u8; 8 * 4];
            let displs = excl_prefix_sum(&counts);
            comm.alltoallv(&send, &counts, &displs, &counts, &displs)
                .unwrap();
        });
        // Dense alltoallv: every rank posts p-1 envelopes.
        assert_eq!(profile.max_messages_per_rank(), 3);
        assert_eq!(profile.total_calls(Op::Alltoallv), 4);
    }

    /// Runs `f` on `p` ranks with metrics on, under a watchdog: a hang
    /// fails the test instead of wedging the suite.
    fn run_watched<R: Send + 'static>(
        p: usize,
        f: impl Fn(RawComm) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let (done, watch) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let metrics_on = crate::config::Config {
                metrics: true,
                ..Default::default()
            };
            let job = Universe::run_threads(p, p, metrics_on, f).unwrap();
            let _ = done.send(());
            job.values
        });
        let verdict = watch.recv_timeout(Duration::from_secs(30));
        assert!(
            !matches!(verdict, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "the exchange hung"
        );
        runner
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// NBX sleeps on its gate while it waits: rank 2 enters 30 ms late, far
    /// past the patience of rank 0, which waits for rank 2's message and
    /// for the barrier. The exchange is a ring.
    #[test]
    fn sparse_exchange_sleeps_while_a_peer_is_late() {
        let slept = run_watched(3, |comm| {
            let (me, p) = (comm.rank(), comm.size());
            if me == 2 {
                std::thread::sleep(Duration::from_millis(30));
            }
            let sleeps = || comm.metrics().counter(Counter::GateSleeps);
            let before = sleeps();
            let msgs = vec![((me + 1) % p, vec![me as u8; 3])];
            let got = comm.sparse_alltoallv(&msgs).unwrap();
            let left = (me + p - 1) % p;
            let got: Vec<(usize, Vec<u8>)> = got.into_iter().map(|m| (m.source, m.data)).collect();
            assert_eq!(got, vec![(left, vec![left as u8; 3])], "rank {me}");
            sleeps() - before
        });
        assert!(slept[0] >= 1, "rank 0 never slept: {slept:?}");
    }

    /// A rank dies mid-exchange, after posting its issends: every survivor
    /// returns a failure-class error, and none hangs.
    #[test]
    fn sparse_exchange_fails_typed_when_a_rank_dies_mid_exchange() {
        let out = run_watched(4, |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let msgs: Vec<(usize, Vec<u8>)> = (0..p)
                .filter(|&d| d != me)
                .map(|d| (d, vec![me as u8]))
                .collect();
            if me == 3 {
                // The exchange's first step, and then death.
                let tag = SPARSE_TAG_BASE + (comm.next_operation_seq() % SPARSE_TAG_ROTATION);
                for (dest, data) in msgs {
                    comm.issend(dest, tag, data).unwrap();
                }
                comm.simulate_failure();
                return None;
            }
            Some(comm.sparse_alltoallv(&msgs).map(|_| ()))
        });
        for (rank, outcome) in out.into_iter().enumerate().take(3) {
            let err = outcome.unwrap().unwrap_err();
            assert!(err.is_failure(), "rank {rank}: {err:?}");
        }
    }
}
