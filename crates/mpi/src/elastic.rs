//! Elastic sharding: consistent-hash key placement that survives
//! membership churn.
//!
//! A long-running keyed service spreads its keyspace over the current
//! membership with a [`ShardMap`]. When the universe shrinks (a member
//! fails) or grows (a rank is admitted — [`crate::RawComm::grow`]), the
//! service builds the next epoch's map with [`ShardMap::rebalance`] and
//! receives a *handoff plan*: the exact hash ranges whose owner changed,
//! as [`ShardMove`]s. Consistent hashing keeps that plan proportional to
//! the membership delta — keys not in a moved range stay put, so a
//! one-rank change relocates roughly `1/p` of the keyspace instead of
//! reshuffling everything.
//!
//! The module also provides the bookkeeping half of the soak scenario's
//! *conservation invariant* ([`Ledger`]): every accepted request must be
//! answered exactly once or reported failed with a typed error — never
//! lost, never duplicated — across arbitrarily many
//! shrink→rebalance→grow cycles.

use std::collections::HashMap;

/// Virtual nodes per member on the hash ring. More replicas smooth the
/// per-member load at the cost of a larger ring; 64 keeps the imbalance
/// under a few percent for the rank counts this substrate targets.
const DEFAULT_REPLICAS: usize = 64;

/// Mixes a key onto the hash ring (splitmix64 finalizer — cheap, and
/// avalanches every input bit so sequential keys spread uniformly).
pub fn key_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of one virtual node: member identity mixed with the replica index.
fn node_hash(member: usize, replica: usize) -> u64 {
    key_hash((member as u64) << 32 | replica as u64 | 1 << 63)
}

/// One hash range whose owner changed between two shard-map epochs.
///
/// The range is half-open *backwards*: a key `k` belongs to the move when
/// `key_hash(k)` lies in `(range.0, range.1]`, with the interval wrapping
/// past `u64::MAX` when `range.0 > range.1`. The owning service streams
/// the in-flight keys of every move from `from` to `to` before answering
/// requests in the new epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Global rank that owned the range in the old epoch.
    pub from: usize,
    /// Global rank that owns the range in the new epoch.
    pub to: usize,
    /// Hash interval `(lo, hi]` (wrapping) that changes hands.
    pub range: (u64, u64),
}

impl ShardMove {
    /// True when `hash` falls inside this move's (wrapping) range.
    pub(crate) fn covers_hash(&self, hash: u64) -> bool {
        let (lo, hi) = self.range;
        if lo < hi {
            hash > lo && hash <= hi
        } else {
            // Wrapping interval: (lo, MAX] ∪ [0, hi].
            hash > lo || hash <= hi
        }
    }

    /// True when `key` falls inside this move's range.
    pub fn covers(&self, key: u64) -> bool {
        self.covers_hash(key_hash(key))
    }
}

/// Consistent-hash placement of a `u64` keyspace over the membership of
/// one epoch.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `(virtual node hash, owning global rank)`, ascending by hash.
    ring: Vec<(u64, usize)>,
    /// The membership this map was built from, ascending.
    members: Vec<usize>,
    /// The membership epoch this map belongs to.
    epoch: u64,
}

impl ShardMap {
    /// Builds the map of `members` (global ranks) at membership `epoch`
    /// with the default virtual-node count.
    ///
    /// # Panics
    /// Panics when `members` is empty — a service with no members has no
    /// owners to place keys on.
    pub fn new(members: &[usize], epoch: u64) -> Self {
        Self::with_replicas(members, epoch, DEFAULT_REPLICAS)
    }

    /// As [`ShardMap::new`] with an explicit virtual-node count.
    pub(crate) fn with_replicas(members: &[usize], epoch: u64, replicas: usize) -> Self {
        assert!(!members.is_empty(), "a shard map needs at least one member");
        assert!(replicas > 0, "a shard map needs at least one replica");
        let mut ring: Vec<(u64, usize)> = members
            .iter()
            .flat_map(|&m| (0..replicas).map(move |r| (node_hash(m, r), m)))
            .collect();
        ring.sort_unstable();
        let mut members = members.to_vec();
        members.sort_unstable();
        Self {
            ring,
            members,
            epoch,
        }
    }

    /// The membership epoch this map was built for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Owner of `hash`: the virtual node at or clockwise-after it.
    fn owner_of_hash(&self, hash: u64) -> usize {
        match self.ring.binary_search_by(|&(h, _)| h.cmp(&hash)) {
            Ok(i) => self.ring[i].1,
            Err(i) if i == self.ring.len() => self.ring[0].1,
            Err(i) => self.ring[i].1,
        }
    }

    /// Global rank owning `key` in this epoch.
    pub fn owner(&self, key: u64) -> usize {
        self.owner_of_hash(key_hash(key))
    }

    /// Builds the map of the next epoch and the handoff plan between the
    /// two: every maximal hash range whose owner differs, as
    /// [`ShardMove`]s. Ranges owned identically in both epochs never
    /// appear, which is the consistent-hashing payoff — the plan scales
    /// with the membership delta, not the membership.
    pub fn rebalance(&self, new_members: &[usize], new_epoch: u64) -> (ShardMap, Vec<ShardMove>) {
        let next = ShardMap::with_replicas(
            new_members,
            new_epoch,
            self.ring.len() / self.members.len().max(1),
        );
        // Between two adjacent boundaries (drawn from both rings) the
        // owner is constant in each ring, so sampling each segment's
        // upper end classifies the whole segment.
        let mut bounds: Vec<u64> = self
            .ring
            .iter()
            .chain(next.ring.iter())
            .map(|&(h, _)| h)
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut moves: Vec<ShardMove> = Vec::new();
        for i in 0..bounds.len() {
            let hi = bounds[i];
            let lo = if i == 0 {
                // The wrapping segment (last boundary, first boundary].
                bounds[bounds.len() - 1]
            } else {
                bounds[i - 1]
            };
            let from = self.owner_of_hash(hi);
            let to = next.owner_of_hash(hi);
            if from == to {
                continue;
            }
            // Merge with the previous move when the segments are adjacent
            // and agree on endpoints, to keep the plan short.
            if let Some(last) = moves.last_mut() {
                if last.range.1 == lo && last.from == from && last.to == to {
                    last.range.1 = hi;
                    continue;
                }
            }
            moves.push(ShardMove {
                from,
                to,
                range: (lo, hi),
            });
        }
        (next, moves)
    }
}

/// Terminal state of one request in the [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Accepted, no answer yet.
    Pending,
    /// Answered successfully, exactly once so far.
    Answered,
    /// Reported failed with a typed error.
    Failed,
}

/// Aggregate view of a [`Ledger`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConservationReport {
    /// Requests accepted into the system.
    pub accepted: u64,
    /// Requests answered successfully.
    pub answered: u64,
    /// Requests that surfaced a typed error to the client.
    pub failed: u64,
    /// Accepted requests with no terminal outcome (must be 0 at the end).
    pub lost: u64,
    /// Requests observed with more than one answer (must always be 0).
    pub duplicated: u64,
}

impl ConservationReport {
    /// The invariant: every accepted request reached exactly one terminal
    /// outcome.
    pub fn holds(&self) -> bool {
        self.lost == 0 && self.duplicated == 0 && self.accepted == self.answered + self.failed
    }
}

/// Client-side conservation bookkeeping for the elastic soak: tracks
/// every accepted request id through to exactly one terminal outcome.
#[derive(Debug, Default)]
pub struct Ledger {
    states: HashMap<u64, Outcome>,
    duplicated: u64,
}

impl Ledger {
    /// Fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that request `id` was accepted.
    ///
    /// # Panics
    /// Panics when `id` was already accepted — ids must be unique.
    pub fn accept(&mut self, id: u64) {
        let prev = self.states.insert(id, Outcome::Pending);
        assert!(prev.is_none(), "request id {id} accepted twice");
    }

    /// Records a successful answer for `id`. A second answer (or an
    /// answer for an id never accepted) counts as a duplication.
    pub fn answer(&mut self, id: u64) {
        match self.states.get(&id) {
            Some(Outcome::Pending) => {
                self.states.insert(id, Outcome::Answered);
            }
            _ => self.duplicated += 1,
        }
    }

    /// Records a typed failure report for `id`. Failing an
    /// already-answered (or unknown) id also counts as a duplication —
    /// the client heard two verdicts.
    pub fn fail(&mut self, id: u64) {
        match self.states.get(&id) {
            Some(Outcome::Pending) => {
                self.states.insert(id, Outcome::Failed);
            }
            _ => self.duplicated += 1,
        }
    }

    /// Snapshot of the conservation accounting. `lost` counts requests
    /// still pending, so take the final report only after the service
    /// has drained.
    pub fn report(&self) -> ConservationReport {
        let mut r = ConservationReport {
            duplicated: self.duplicated,
            ..Default::default()
        };
        for s in self.states.values() {
            r.accepted += 1;
            match s {
                Outcome::Pending => r.lost += 1,
                Outcome::Answered => r.answered += 1,
                Outcome::Failed => r.failed += 1,
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_deterministic_and_member() {
        let map = ShardMap::new(&[0, 1, 2, 3], 0);
        for key in 0..10_000u64 {
            let o = map.owner(key);
            assert!((0..4).contains(&o));
            assert_eq!(o, map.owner(key), "same key, same owner");
        }
    }

    #[test]
    fn load_spreads_over_members() {
        let map = ShardMap::new(&[0, 1, 2, 3], 0);
        let mut counts = HashMap::new();
        for key in 0..40_000u64 {
            *counts.entry(map.owner(key)).or_insert(0u64) += 1;
        }
        for (&m, &c) in &counts {
            assert!(
                c > 4_000,
                "member {m} owns only {c}/40000 keys — ring badly imbalanced"
            );
        }
    }

    #[test]
    fn rebalance_moves_only_changed_ranges() {
        let old = ShardMap::new(&[0, 1, 2, 3], 0);
        let (new, moves) = old.rebalance(&[0, 1, 3], 1);
        assert!(!moves.is_empty(), "removing a member must move its keys");
        let mut moved = 0u64;
        for key in 0..20_000u64 {
            let (a, b) = (old.owner(key), new.owner(key));
            let in_move = moves.iter().any(|m| m.covers(key));
            if a != b {
                moved += 1;
                // Every relocated key is covered by exactly the move that
                // names its old and new owner.
                let m = moves
                    .iter()
                    .find(|m| m.covers(key))
                    .expect("relocated key must be covered by a move");
                assert_eq!((m.from, m.to), (a, b));
            } else {
                assert!(!in_move, "stable key {key} must not be in the handoff plan");
            }
        }
        // Consistent hashing: ~1/4 of keys move when 1 of 4 members leaves.
        assert!(
            moved < 10_000,
            "{moved}/20000 keys moved — rebalancing is not consistent"
        );
    }

    #[test]
    fn grow_then_shrink_roundtrips_ownership() {
        let e0 = ShardMap::new(&[0, 1, 2], 0);
        let (e1, _) = e0.rebalance(&[0, 1, 2, 5], 1);
        let (e2, _) = e1.rebalance(&[0, 1, 2], 2);
        for key in 0..5_000u64 {
            assert_eq!(e0.owner(key), e2.owner(key));
        }
    }

    #[test]
    fn ledger_holds_on_clean_run() {
        let mut l = Ledger::new();
        for id in 0..100 {
            l.accept(id);
        }
        for id in 0..90 {
            l.answer(id);
        }
        for id in 90..100 {
            l.fail(id);
        }
        let r = l.report();
        assert!(r.holds(), "{r:?}");
        assert_eq!((r.accepted, r.answered, r.failed), (100, 90, 10));
    }

    #[test]
    fn ledger_catches_loss_and_duplication() {
        let mut l = Ledger::new();
        l.accept(1);
        l.accept(2);
        l.answer(1);
        l.answer(1); // duplicate
        let r = l.report();
        assert!(!r.holds());
        assert_eq!(r.duplicated, 1);
        assert_eq!(r.lost, 1); // id 2 never resolved
    }
}
