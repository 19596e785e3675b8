//! Communicators.
//!
//! A [`RawComm`] is a per-rank handle onto a communication context: an
//! ordered group of global ranks plus a *context id* that isolates its
//! traffic from every other communicator (the role MPI's hidden contexts
//! play). Context ids for derived communicators (`dup`, `split`, graph
//! topologies, `shrink`) are computed *deterministically* from the parent
//! context, a per-communicator collective sequence number and the split
//! color — because every rank calls collectives in the same order (an MPI
//! requirement we inherit), all members derive the same id without any
//! central registry.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::coll::GridCache;
use crate::error::{MpiError, MpiResult};
use crate::profile::Op;
use crate::topo::GraphTopo;
use crate::universe::UniverseState;

/// FNV-1a over a list of words; used to derive child context ids.
pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Never collide with the world context.
    h | 1
}

/// [`RawComm::inverse`] of a non-member: the source a status reports for it.
pub(crate) const NOT_MEMBER: usize = usize::MAX;

/// The global → local table of `group`: indexed by global rank, with
/// [`NOT_MEMBER`] where a global rank is not in the group.
pub(crate) fn rank_index(group: &[usize]) -> Arc<Vec<usize>> {
    let mut inverse = vec![NOT_MEMBER; group.iter().max().map_or(0, |&g| g + 1)];
    for (local, &global) in group.iter().enumerate() {
        inverse[global] = local;
    }
    Arc::new(inverse)
}

/// Per-rank communicator handle.
pub struct RawComm {
    pub(crate) state: Arc<UniverseState>,
    /// Context id; 0 is the world communicator.
    pub(crate) ctx: u64,
    /// Local rank -> global rank.
    pub(crate) group: Arc<Vec<usize>>,
    /// Global rank -> local rank ([`rank_index`]).
    pub(crate) inverse: Arc<Vec<usize>>,
    /// This handle's local rank.
    pub(crate) rank: usize,
    /// Membership epoch this communicator was derived under (0 = launch
    /// membership; bumped by every [`RawComm::grow`] admission). Derived
    /// communicators (`dup`, `split`, `shrink`, …) inherit their parent's
    /// epoch: they are views onto the same membership generation.
    pub(crate) epoch: u64,
    /// Collective sequence number (tags internal collective traffic).
    pub(crate) coll_seq: Cell<u32>,
    /// Graph topology, if attached.
    pub(crate) topo: Option<Arc<GraphTopo>>,
    /// Lazily-built ⌈√p⌉ grid sub-communicators (grid all-to-all backend).
    /// `Rc` both shares the splits between clones and breaks the layout
    /// cycle (`GridCache` holds two `RawComm`s); a communicator never
    /// leaves its rank-thread, so no atomics are needed.
    pub(crate) grid: RefCell<Option<std::rc::Rc<GridCache>>>,
    /// Synthetic host count ([`RawComm::set_fake_hosts`]).
    pub(crate) fake_hosts: Cell<Option<usize>>,
    /// Cached "every rank shares this host" predicate.
    pub(crate) single_host: Cell<Option<bool>>,
}

impl Clone for RawComm {
    fn clone(&self) -> Self {
        Self {
            state: Arc::clone(&self.state),
            ctx: self.ctx,
            group: Arc::clone(&self.group),
            inverse: Arc::clone(&self.inverse),
            rank: self.rank,
            epoch: self.epoch,
            coll_seq: self.coll_seq.clone(),
            topo: self.topo.clone(),
            grid: RefCell::new(self.grid.borrow().clone()),
            fake_hosts: self.fake_hosts.clone(),
            single_host: self.single_host.clone(),
        }
    }
}

impl std::fmt::Debug for RawComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawComm")
            .field("ctx", &self.ctx)
            .field("rank", &self.rank)
            .field("size", &self.group.len())
            .finish()
    }
}

impl RawComm {
    /// Builds the world communicator handle of `rank`. The world group is
    /// the *launch membership* — on an elastic universe this is the initial
    /// ranks only, not the full capacity; ranks admitted later enter via
    /// [`RawComm::from_grow`] instead.
    pub(crate) fn world(state: Arc<UniverseState>, rank: usize) -> Self {
        let group: Arc<Vec<usize>> = Arc::new(state.launch_members.clone());
        Self {
            state,
            ctx: 0,
            inverse: rank_index(&group),
            group,
            rank,
            epoch: 0,
            coll_seq: Cell::new(0),
            topo: None,
            grid: RefCell::new(None),
            fake_hosts: Cell::new(None),
            single_host: Cell::new(None),
        }
    }

    /// Builds the communicator of membership epoch `epoch` directly from a
    /// grow event, without a parent handle — how a freshly-admitted rank
    /// obtains its first communicator. Survivors arrive at the *same*
    /// context via [`RawComm::grow`], which derives it from
    /// [`grow_ctx`]: the id depends only on the epoch, so both sides agree
    /// without sharing any communicator history.
    pub(crate) fn from_grow(
        state: Arc<UniverseState>,
        epoch: u64,
        members: Vec<usize>,
        my_global: usize,
    ) -> Self {
        let rank = members
            .iter()
            .position(|&g| g == my_global)
            .expect("a grown communicator must contain the building rank");
        Self {
            state,
            ctx: grow_ctx(epoch),
            inverse: rank_index(&members),
            group: Arc::new(members),
            rank,
            epoch,
            coll_seq: Cell::new(0),
            topo: None,
            grid: RefCell::new(None),
            fake_hosts: Cell::new(None),
            single_host: Cell::new(None),
        }
    }

    pub(crate) fn derive(
        &self,
        ctx: u64,
        members: Vec<usize>,
        my_global: usize,
        topo: Option<Arc<GraphTopo>>,
    ) -> Self {
        let rank = members
            .iter()
            .position(|&g| g == my_global)
            .expect("deriving rank must be a member of the new group");
        Self {
            state: Arc::clone(&self.state),
            ctx,
            inverse: rank_index(&members),
            group: Arc::new(members),
            rank,
            epoch: self.epoch,
            coll_seq: Cell::new(0),
            topo,
            grid: RefCell::new(None),
            fake_hosts: Cell::new(None),
            single_host: Cell::new(None),
        }
    }

    /// This handle's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Translates a communicator-local rank to a global (world) rank.
    #[inline]
    pub fn global_rank(&self, local: usize) -> MpiResult<usize> {
        self.group.get(local).copied().ok_or(MpiError::InvalidRank {
            rank: local,
            size: self.size(),
        })
    }

    /// Translates a global rank back to this communicator's local rank.
    #[inline]
    pub fn local_rank_of(&self, global: usize) -> Option<usize> {
        self.inverse
            .get(global)
            .copied()
            .filter(|&l| l != NOT_MEMBER)
    }

    /// This rank's global (world) rank.
    #[inline]
    pub fn my_global_rank(&self) -> usize {
        self.group[self.rank]
    }

    /// Advances and returns the per-communicator operation sequence number.
    ///
    /// Public for *plugin* use (paper §III-F): a plugin that runs its own
    /// multi-round protocols (e.g. the NBX sparse all-to-all) can draw a
    /// rank-synchronized sequence number here to rotate tags between
    /// rounds, provided every rank calls it in the same order — the same
    /// contract MPI imposes on collectives.
    pub(crate) fn next_operation_seq(&self) -> u32 {
        self.next_coll_seq()
    }

    /// Advances and returns the collective sequence number.
    pub(crate) fn next_coll_seq(&self) -> u32 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s.wrapping_add(1));
        s
    }

    /// The op-start probe ([`crate::trace::TraceCtx::op`]) for this rank.
    /// Call sites bind the scope (`let _op = self.record(..)`) so it spans
    /// the whole operation.
    #[inline]
    pub(crate) fn record(&self, op: Op) -> crate::trace::OpScope<'_> {
        self.state.trace.op(op, self.my_global_rank())
    }

    /// Derives the deterministic child context id for the current collective
    /// sequence number and `color`.
    pub(crate) fn child_ctx(&self, seq: u32, color: u64, kind: u64) -> u64 {
        fnv1a(&[self.ctx, seq as u64, color, kind])
    }

    /// Duplicates the communicator: same group, fresh context (collective).
    pub fn dup(&self) -> MpiResult<Self> {
        let _op = self.record(Op::CommDup);
        let seq = self.next_coll_seq();
        let ctx = self.child_ctx(seq, 0, ContextKind::Dup as u64);
        Ok(self.derive(
            ctx,
            self.group.as_ref().clone(),
            self.my_global_rank(),
            None,
        ))
    }

    /// Splits the communicator by `color`, ordering members by
    /// (`key`, parent rank). Collective. Returns the sub-communicator this
    /// rank belongs to.
    ///
    /// Unlike MPI there is no `MPI_UNDEFINED` color — every rank lands in
    /// exactly one child. (The binding layer never needs the undefined case.)
    pub fn split(&self, color: u64, key: u64) -> MpiResult<Self> {
        let _op = self.record(Op::CommSplit);
        // Reserve this split's sequence number before the internal allgather
        // consumes further ones, so all ranks derive the same child context.
        let seq = self.next_coll_seq();
        // Learn everyone's (color, key) with an allgather over the parent.
        let mut mine = Vec::with_capacity(16);
        mine.extend_from_slice(&color.to_le_bytes());
        mine.extend_from_slice(&key.to_le_bytes());
        let all = self.allgather(&mine)?;
        let mut members: Vec<(u64, usize)> = Vec::new(); // (key, parent local rank)
        for r in 0..self.size() {
            let base = r * 16;
            let c = u64::from_le_bytes(all[base..base + 8].try_into().expect("8 bytes"));
            let k = u64::from_le_bytes(all[base + 8..base + 16].try_into().expect("8 bytes"));
            if c == color {
                members.push((k, r));
            }
        }
        members.sort_unstable();
        let globals: Vec<usize> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let ctx = self.child_ctx(seq, color, ContextKind::Split as u64);
        Ok(self.derive(ctx, globals, self.my_global_rank(), None))
    }

    /// Freezes the universe-wide profiling counters (see [`crate::profile`]).
    pub fn profile(&self) -> crate::profile::ProfileSnapshot {
        self.state.profile()
    }

    /// Freezes this rank's whole stats block (counters beyond the always-on
    /// profile move only while `KAMPING_METRICS` is on).
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.state.trace.rank(self.my_global_rank()).snapshot()
    }

    /// Reports to this rank's `payload_bytes_copied` / `payload_allocs`
    /// that a binding layer copied a `len`-byte payload `copies` times and
    /// allocated `allocs` payload-sized buffers between the substrate and
    /// the caller (inline-sized payloads are not counted).
    pub fn count_payload(&self, len: usize, copies: u64, allocs: u64) {
        let me = self.my_global_rank();
        self.state.trace.payload_moved(me, len, copies, allocs);
    }
}

/// Discriminates the derivation paths so e.g. a `dup` and a `split` at the
/// same sequence number cannot collide.
#[repr(u64)]
pub(crate) enum ContextKind {
    Dup = 1,
    Split = 2,
    Graph = 3,
    Shrink = 4,
    Grow = 5,
}

/// Salt distinguishing grow contexts from every child-context family.
const GROW_CTX_SALT: u64 = 0x656c_6173_7469_6321; // "elastic!"

/// Context id of the epoch-`epoch` grown communicator. Unlike
/// [`RawComm::child_ctx`] this is *history-free*: it hashes only the epoch,
/// so a joining process (which has no parent communicator) and the
/// survivors (which grow from arbitrary ancestors) derive the same id.
pub(crate) fn grow_ctx(epoch: u64) -> u64 {
    fnv1a(&[GROW_CTX_SALT, epoch, ContextKind::Grow as u64])
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn world_rank_translation_roundtrips() {
        Universe::run(4, |comm| {
            for l in 0..comm.size() {
                let g = comm.global_rank(l).unwrap();
                assert_eq!(comm.local_rank_of(g), Some(l));
            }
            assert!(comm.global_rank(99).is_err());
        });
    }

    /// The table is indexed by global rank up to the largest member, with
    /// the sentinel in every gap.
    #[test]
    fn rank_index_maps_members_and_marks_gaps() {
        use super::{rank_index, NOT_MEMBER};
        assert_eq!(*rank_index(&[4, 0, 2]), [1, NOT_MEMBER, 2, NOT_MEMBER, 0]);
        assert!(rank_index(&[]).is_empty());
    }

    #[test]
    fn dup_isolates_traffic() {
        Universe::run(2, |comm| {
            let dup = comm.dup().unwrap();
            assert_ne!(dup_ctx(&dup), dup_ctx(&comm));
            if comm.rank() == 0 {
                comm.send(1, 5, b"on-world").unwrap();
                dup.send(1, 5, b"on-dup").unwrap();
            } else {
                // Receive in the opposite order: contexts must keep the two
                // messages apart even though (src, tag) are identical.
                let (d, _) = dup.recv(0, 5).unwrap();
                assert_eq!(d, b"on-dup");
                let (w, _) = comm.recv(0, 5).unwrap();
                assert_eq!(w, b"on-world");
            }
        });

        fn dup_ctx(c: &crate::RawComm) -> u64 {
            c.ctx
        }
    }

    #[test]
    fn split_into_even_odd() {
        Universe::run(6, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, comm.rank() as u64).unwrap();
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), comm.rank() / 2);
            // Group members keep their relative order under equal-key sort.
            let mine = comm.rank() as u64;
            let gathered = sub.allgather(&mine.to_le_bytes()).unwrap();
            let got: Vec<u64> = gathered
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let want: Vec<u64> = (0..6).filter(|r| r % 2 == comm.rank() as u64 % 2).collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn split_by_key_reverses_order() {
        Universe::run(4, |comm| {
            // One color, keys descending: rank order inverts.
            let key = (comm.size() - comm.rank()) as u64;
            let sub = comm.split(0, key).unwrap();
            assert_eq!(sub.size(), 4);
            assert_eq!(sub.rank(), comm.size() - 1 - comm.rank());
        });
    }

    #[test]
    fn sibling_splits_get_distinct_contexts() {
        Universe::run(2, |comm| {
            let a = comm.split(0, 0).unwrap();
            let b = comm.split(0, 0).unwrap();
            assert_ne!(
                a.ctx, b.ctx,
                "distinct collective calls must derive distinct contexts"
            );
        });
    }
}
