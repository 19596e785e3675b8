//! Strategy selection and tree shapes for the rooted collectives
//! (DESIGN.md §11).
//!
//! Flat binomial trees treat every link as equal; on a mixed
//! intra/inter-host topology that serializes slow inter-host hops along
//! the critical path. The shapes here consult the communicator's
//! host-group view ([`crate::topo::HierTopo`], derived from
//! [`crate::transport::Transport::locality`]) and build **two-level**
//! trees: one binomial tree over the group leaders (inter-host), one
//! binomial tree inside each group (intra-host), merged into a single
//! parent/children relation so a payload streams through both levels
//! without a store-and-forward barrier between them. `binomial_over` is
//! the only tree-shape generator; the machines in [`crate::icoll`] that
//! run over its output do not know which level a link belongs to.
//!
//! Hierarchical broadcasts are additionally **segmented**: the payload is
//! cut into segments (`KAMPING_BCAST_SEGMENT` bytes, default 64 KiB)
//! relayed segment-by-segment, so tree depth adds latency once, not once
//! per byte.
//!
//! Large allreduces take the classic reduce-scatter + allgather
//! composition (Rabenseifner), whose bandwidth term is 2·(p−1)/p·n instead
//! of the 2·n·log p of reduce+bcast trees — a fold schedule like the
//! others (`crate::icoll::sm::rabenseifner_steps`).
//!
//! Selection is governed by [`CollStrategy`] (`KAMPING_COLL_STRATEGY`,
//! or [`RawComm::set_coll_strategy`]): `flat` always takes the binomial
//! tree over all ranks, `hier` always takes the two-level shapes, and
//! `auto` (the default) decides per call from locality and payload size.
//! It is consulted in exactly one function per collective —
//! `RawComm::rooted_tree` for bcast and reduce,
//! `RawComm::allreduce_algo` for allreduce — shared by the blocking and
//! the nonblocking name. Every input to the decision — environment,
//! communicator topology, the (rank-uniform) buffer length of allreduce —
//! is identical on all ranks, so ranks never diverge in algorithm choice.

use crate::error::MpiResult;
use crate::icoll::check_elems;
use crate::icoll::sm::{recursive_doubling_steps, BcastSm, FoldStep, Tree};
use crate::metrics::Counter;
use crate::tag::coll_tag;
use crate::topo::HierTopo;
use crate::transport::Payload;
use crate::{ByteOp, RawComm};
use std::sync::Arc;

/// Default broadcast segment size (bytes) for the pipelined tree.
pub(crate) const DEFAULT_BCAST_SEGMENT: usize = 64 * 1024;

/// Payload size (bytes) from which `auto` prefers the Rabenseifner
/// allreduce over reduce+bcast.
pub(crate) const RABENSEIFNER_MIN_BYTES: usize = 32 * 1024;

/// How the rooted collectives (bcast/reduce/allreduce) pick their
/// algorithm. Must be uniform across the ranks of a communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollStrategy {
    /// Decide per call: flat trees on a single host, two-level trees on
    /// mixed topologies, Rabenseifner for large allreduces.
    #[default]
    Auto,
    /// Always the flat binomial paths (the pre-hierarchy behaviour).
    Flat,
    /// Always the two-level paths, even on one host (degenerates to a
    /// flat — but pipelined — tree; useful for tests and benches).
    Hier,
}

impl CollStrategy {
    /// Parses the `KAMPING_COLL_STRATEGY` values.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "auto" | "" => Some(Self::Auto),
            "flat" => Some(Self::Flat),
            "hier" => Some(Self::Hier),
            _ => None,
        }
    }
}

/// What [`RawComm::allreduce_algo`] selected.
pub(crate) enum AllreduceAlgo {
    /// Reduce + broadcast trees: flat (`None`), or two-level over the
    /// given host groups with a recursive-doubling exchange among leaders.
    Tree(Option<Arc<HierTopo>>),
    /// Halving reduce-scatter + doubling allgather
    /// ([`crate::icoll::sm::rabenseifner_steps`]).
    Rabenseifner,
}

/// Binomial parent/children of position `my_idx` among `n` positions,
/// rooted at position `root_idx`; `member` maps positions to
/// communicator-local ranks (the identity for the flat tree, a host
/// group's or the leaders' member list for the two levels). Children are
/// listed farthest subtree first. The only code computing binomial shapes.
pub(crate) fn binomial_over(
    n: usize,
    my_idx: usize,
    root_idx: usize,
    member: impl Fn(usize) -> usize,
) -> Tree {
    debug_assert!(my_idx < n && root_idx < n);
    let rel = (my_idx + n - root_idx) % n;
    let actual = |r: usize| member((r + root_idx) % n);
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

impl RawComm {
    /// The rooted-collective strategy in effect for this communicator:
    /// an explicit [`RawComm::set_coll_strategy`] override, else the
    /// universe's configuration (`KAMPING_COLL_STRATEGY`, default `Auto`).
    pub(crate) fn coll_strategy(&self) -> CollStrategy {
        (self.strategy.get()).unwrap_or(self.state.config.coll_strategy)
    }

    /// Counts one strategy dispatch in this rank's stats block — the
    /// dashboard's answer to "which tree did my collectives actually take".
    fn note_strategy(&self, c: Counter) {
        self.state.trace.count(self.my_global_rank(), c, 1);
    }

    /// The host-group view, if the strategy resolves to hierarchy for this
    /// communicator: always under `Hier`, on multi-host communicators under
    /// `Auto`, never under `Flat`. The one place [`CollStrategy`] is
    /// consulted. Uses only environment and topology, so every rank
    /// resolves the same answer.
    ///
    /// Building a missing view is a blocking collective (unless the hosts
    /// are synthetic), which a nonblocking issue must never run — it could
    /// not be bounded by `wait_timeout`. Issues pass `build: false` and keep
    /// the flat shapes until a blocking collective (or an explicit
    /// [`RawComm::hier_topo`]) has built the view; that state is
    /// rank-uniform because collectives are called in the same order
    /// everywhere.
    fn hier_view(&self, build: bool) -> MpiResult<Option<Arc<HierTopo>>> {
        let wanted = match self.coll_strategy() {
            CollStrategy::Flat => false,
            CollStrategy::Hier => true,
            CollStrategy::Auto => !self.single_host_view(),
        };
        let available =
            || build || self.hier.borrow().is_some() || self.fake_hosts_setting().is_some();
        if wanted && available() {
            self.hier_topo().map(Some)
        } else {
            Ok(None)
        }
    }

    /// This rank's place in the tree a bcast or reduce rooted at `root`
    /// runs over, and whether it is the two-level one (a broadcast down it
    /// is then segmented): flat binomial on a single host, two-level when
    /// [`RawComm::hier_view`] has one. Never looks at the buffer, which
    /// non-root ranks of a broadcast legitimately leave empty.
    pub(crate) fn rooted_tree(&self, root: usize, build: bool) -> MpiResult<(Tree, bool)> {
        match self.hier_view(build)? {
            Some(h) => {
                self.note_strategy(Counter::StrategyHier);
                Ok((self.hier_tree(&h, root), true))
            }
            None => {
                self.note_strategy(Counter::StrategyFlat);
                Ok((self.flat_tree(root), false))
            }
        }
    }

    /// The flat binomial tree over all ranks, rooted at `root`.
    pub(crate) fn flat_tree(&self, root: usize) -> Tree {
        binomial_over(self.size(), self.rank(), root, |i| i)
    }

    /// The algorithm an allreduce of `len` bytes takes: reduce + broadcast
    /// over the flat tree by default; the two-level composition (intra-host
    /// reduce, leader recursive doubling, intra-host segmented broadcast)
    /// when [`RawComm::hier_view`] has host groups with fan-out;
    /// Rabenseifner for large payloads under `Auto`. `len` is rank-uniform
    /// by the collective's own contract (all buffers equal length).
    pub(crate) fn allreduce_algo(&self, len: usize, build: bool) -> MpiResult<AllreduceAlgo> {
        let auto = self.coll_strategy() == CollStrategy::Auto;
        let hier = self.hier_view(build)?.filter(|h| !auto || h.has_fanout());
        if hier.is_none() && auto && len >= RABENSEIFNER_MIN_BYTES && self.size() >= 4 {
            self.note_strategy(Counter::StrategyRabenseifner);
            return Ok(AllreduceAlgo::Rabenseifner);
        }
        self.note_strategy(match hier {
            Some(_) => Counter::StrategyHier,
            None => Counter::StrategyFlat,
        });
        Ok(AllreduceAlgo::Tree(hier))
    }

    /// The pieces of a tree allreduce for this rank: the tree its reduce
    /// and broadcast stages run over, the leader-exchange schedule if it
    /// has one to run in between, and the broadcast's segment size. Flat:
    /// the binomial tree over all ranks. Two-level: the binomial tree over
    /// the rank's host group, rooted at the group's leader, and for leaders
    /// a recursive-doubling allreduce among themselves (one full-payload
    /// exchange per ⌈log₂ #groups⌉ round — the inter-host critical path).
    pub(crate) fn allreduce_shape(
        &self,
        hier: Option<&HierTopo>,
    ) -> (Tree, Option<Vec<FoldStep>>, Option<usize>) {
        let Some(h) = hier else {
            return (self.flat_tree(0), None, None);
        };
        let members = &h.groups[h.my_group];
        let my_idx = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("rank is in its own group");
        let tree = binomial_over(members.len(), my_idx, 0, |i| members[i]);
        let leaders = (my_idx == 0).then(|| recursive_doubling_steps(&h.leaders(), h.my_group));
        (tree, leaders, Some(self.bcast_segment()))
    }

    /// Overrides the strategy for this communicator (API counterpart of
    /// `KAMPING_COLL_STRATEGY`). Must be applied identically on every
    /// rank *before* the collectives it should govern.
    pub fn set_coll_strategy(&self, s: CollStrategy) {
        self.strategy.set(Some(s));
    }

    /// Forces a synthetic host grouping of `k` contiguous rank blocks,
    /// ignoring transport locality — lets tests and in-process benches
    /// exercise the two-level trees without a multi-process launch.
    /// Must be applied identically on every rank before first use.
    pub fn set_fake_hosts(&self, k: usize) {
        self.fake_hosts.set(Some(k));
        *self.hier.borrow_mut() = None;
        self.single_host.set(None);
    }

    pub(crate) fn fake_hosts_setting(&self) -> Option<usize> {
        self.fake_hosts.get().or(self.state.config.fake_hosts)
    }

    /// True if every rank of this communicator shares the calling
    /// process's host. Computed from the local locality view only — the
    /// same-host relation partitions the job, so the predicate is
    /// identical on every rank — and cached.
    pub(crate) fn single_host_view(&self) -> bool {
        if let Some(v) = self.single_host.get() {
            return v;
        }
        let v = if self.fake_hosts_setting().is_some_and(|k| k >= 2) && self.size() > 1 {
            false
        } else {
            let transport = &self.state.transport;
            (0..self.size()).all(|l| transport.locality(self.group[l]).same_host())
        };
        self.single_host.set(Some(v));
        v
    }

    /// Broadcast segment size: `KAMPING_BCAST_SEGMENT` (bytes) or the
    /// default. Only the root's value shapes the wire; receivers follow
    /// the self-describing header.
    pub(crate) fn bcast_segment(&self) -> usize {
        self.state.config.bcast_segment
    }

    /// The merged two-level tree rooted at `root`: group representatives
    /// (the root for its own group, the leader elsewhere) form a binomial
    /// tree over groups; every other rank hangs off its representative's
    /// intra-group binomial tree. A representative's children list puts
    /// the inter-host children first so remote forwarding starts before
    /// local fan-out.
    fn hier_tree(&self, h: &HierTopo, root: usize) -> Tree {
        let me = self.rank();
        let root_g = h.group_of[root];
        let rep = |g: usize| if g == root_g { root } else { h.leader(g) };
        let g = h.my_group;
        let my_rep = rep(g);
        let members = &h.groups[g];
        let my_idx = members
            .iter()
            .position(|&r| r == me)
            .expect("rank is in its own group");
        let rep_idx = members
            .iter()
            .position(|&r| r == my_rep)
            .expect("representative is in the group");
        let (intra_parent, intra_children) =
            binomial_over(members.len(), my_idx, rep_idx, |i| members[i]);
        if me != my_rep {
            return (intra_parent, intra_children);
        }
        let (lead_parent, mut children) = binomial_over(h.groups.len(), g, root_g, rep);
        children.extend(intra_children);
        (lead_parent, children)
    }

    /// Segmented broadcast over the *flat* binomial tree with an explicit
    /// segment size — the A/B point between the whole-payload flat
    /// broadcast and the hierarchy-aware one.
    pub fn bcast_segmented(&self, buf: &mut Vec<u8>, root: usize, segment: usize) -> MpiResult<()> {
        let _op = self.record(crate::profile::Op::Bcast);
        self.check_root(root)?;
        *buf = self.run_inline(|cx| {
            let tag = coll_tag(self.next_coll_seq());
            let seed = Payload::from_vec(std::mem::take(buf));
            let tree = self.flat_tree(root);
            Ok(BcastSm::start(cx, tag, tree, Some(segment), seed))
        })?;
        Ok(())
    }

    /// Rabenseifner allreduce regardless of strategy and size (the A/B
    /// point against the trees; [`RawComm::allreduce`] selects it for
    /// large payloads under `Auto`): recursive-halving reduce-scatter
    /// followed by a recursive-doubling allgather
    /// (`crate::icoll::sm::rabenseifner_steps`). Bandwidth-optimal for
    /// large payloads — each rank moves ~2·(p−1)/p·n bytes instead of the
    /// 2·n·log p of tree reduce+bcast. Works for any `p` and any element
    /// count. Requires an associative *and commutative* operator, like
    /// every reduction here.
    pub fn allreduce_rabenseifner(
        &self,
        buf: &mut Vec<u8>,
        op: ByteOp<'_>,
        elem_size: usize,
    ) -> MpiResult<()> {
        let _op = self.record(crate::profile::Op::Allreduce);
        check_elems(buf, elem_size)?;
        self.note_strategy(Counter::StrategyRabenseifner);
        let mine = std::mem::take(buf);
        let algo = AllreduceAlgo::Rabenseifner;
        *buf = self.run_inline(|_| Ok(self.allreduce_sm(algo, mine, op, elem_size)))?;
        Ok(())
    }
}

/// Largest power of two ≤ `n` (n ≥ 1).
pub(crate) fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    fn u64_op() -> impl Fn(&mut [u8], &[u8]) + Sync {
        |acc: &mut [u8], rhs: &[u8]| {
            let a = u64::from_le_bytes(acc.try_into().unwrap());
            let b = u64::from_le_bytes(rhs.try_into().unwrap());
            acc.copy_from_slice(&(a.wrapping_add(b)).to_le_bytes());
        }
    }

    fn encode(vals: &[u64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn binomial_over_covers_every_member_once() {
        for n in 1..=17 {
            for root in 0..n {
                let members: Vec<usize> = (100..100 + n).collect();
                let mut seen_parent = vec![0usize; n];
                for i in 0..n {
                    let (parent, children) = binomial_over(n, i, root, |j| members[j]);
                    if i == root {
                        assert!(parent.is_none());
                    } else {
                        assert!(parent.is_some());
                    }
                    for c in children {
                        let ci = members.iter().position(|&m| m == c).unwrap();
                        seen_parent[ci] += 1;
                        // Child's computed parent must point back at me.
                        let (cp, _) = binomial_over(n, ci, root, |j| members[j]);
                        assert_eq!(cp, Some(members[i]), "n={n} root={root}");
                    }
                }
                seen_parent[root] = 1;
                assert!(seen_parent.iter().all(|&c| c == 1), "n={n} root={root}");
            }
        }
    }

    #[test]
    fn segmented_bcast_matches_tree_bcast() {
        for p in [1, 2, 3, 5, 8, 13] {
            Universe::run(p, |comm| {
                for (root, seg) in [(0usize, 1usize), (p - 1, 7), (p / 2, 64), (0, 1 << 20)] {
                    let want: Vec<u8> = (0..777u32).flat_map(|i| i.to_le_bytes()).collect();
                    let mut buf = if comm.rank() == root {
                        want.clone()
                    } else {
                        Vec::new()
                    };
                    comm.bcast_segmented(&mut buf, root, seg).unwrap();
                    assert_eq!(buf, want, "p={p} root={root} seg={seg}");
                }
            });
        }
    }

    #[test]
    fn segmented_bcast_empty_payload() {
        Universe::run(4, |comm| {
            let mut buf = Vec::new();
            comm.bcast_segmented(&mut buf, 2, 4096).unwrap();
            assert!(buf.is_empty());
        });
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
    fn hier_allreduce_matches_flat_with_fake_hosts() {
        for (p, hosts) in [(8, 2), (13, 3), (16, 4), (9, 9), (6, 1)] {
            Universe::run(p, |comm| {
                let op = u64_op();
                comm.set_fake_hosts(hosts);
                comm.set_coll_strategy(CollStrategy::Hier);
                let mut buf = encode(&[comm.rank() as u64, 7, 1 << 40]);
                comm.allreduce(&mut buf, &op, 8).unwrap();
                let n = p as u64;
                assert_eq!(
                    buf,
                    encode(&[n * (n - 1) / 2, 7 * n, n << 40]),
                    "p={p} hosts={hosts}"
                );
            });
        }
    }

    #[test]
    fn hier_bcast_and_reduce_match_flat_with_fake_hosts() {
        for (p, hosts) in [(8, 2), (13, 4), (5, 5)] {
            Universe::run(p, |comm| {
                let op = u64_op();
                comm.set_fake_hosts(hosts);
                comm.set_coll_strategy(CollStrategy::Hier);
                for root in 0..p {
                    let want: Vec<u8> = (0..257u16).flat_map(|i| i.to_le_bytes()).collect();
                    let mut buf = if comm.rank() == root {
                        want.clone()
                    } else {
                        Vec::new()
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    assert_eq!(buf, want, "p={p} hosts={hosts} root={root}");

                    let mut acc = encode(&[comm.rank() as u64 + 1]);
                    comm.reduce(&mut acc, &op, 8, root).unwrap();
                    if comm.rank() == root {
                        let n = p as u64;
                        assert_eq!(acc, encode(&[n * (n + 1) / 2]), "root={root}");
                    }
                }
            });
        }
    }

    #[test]
    fn hier_topo_groups_fake_hosts_contiguously() {
        Universe::run(10, |comm| {
            comm.set_fake_hosts(3);
            let h = comm.hier_topo().unwrap();
            assert_eq!(h.groups.len(), 3);
            assert_eq!(h.groups[0], vec![0, 1, 2, 3]);
            assert_eq!(h.groups[1], vec![4, 5, 6, 7]);
            assert_eq!(h.groups[2], vec![8, 9]);
            assert_eq!(h.leaders(), vec![0, 4, 8]);
            assert!(h.has_fanout());
            assert_eq!(h.my_group, h.group_of[comm.rank()]);
        });
    }

    #[test]
    fn shm_backend_is_one_group() {
        Universe::run(5, |comm| {
            let h = comm.hier_topo().unwrap();
            assert_eq!(h.groups.len(), 1);
            assert_eq!(h.groups[0], vec![0, 1, 2, 3, 4]);
            assert!(!h.has_fanout());
            assert!(comm.single_host_view());
        });
    }

    #[test]
    fn strategy_parse_and_default() {
        assert_eq!(CollStrategy::parse("auto"), Some(CollStrategy::Auto));
        assert_eq!(CollStrategy::parse("flat"), Some(CollStrategy::Flat));
        assert_eq!(CollStrategy::parse("hier"), Some(CollStrategy::Hier));
        assert_eq!(CollStrategy::parse("bogus"), None);
    }
}
