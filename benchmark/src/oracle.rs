//! Correctness oracles. Every op's output passes through one of these;
//! a rejection is counted in `failed` and the run exits non-zero.
//!
//! Each oracle is a pure function of the data it checks (the collective
//! parts — combining per-rank checksums, comparing boundaries — are done
//! by the workload with the library's own collectives), so the unit tests
//! below can corrupt one output of each kind and watch the oracle trip.

use std::collections::VecDeque;

use kamping_graphs::UNREACHED;

/// Order-independent fingerprint of a multiset of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checksum {
    pub sum: u64,
    pub xor: u64,
    pub count: u64,
}

impl Checksum {
    pub fn of(data: &[u64]) -> Checksum {
        let mut c = Checksum::default();
        for &w in data {
            c.sum = c.sum.wrapping_add(w);
            c.xor ^= w;
        }
        c.count = data.len() as u64;
        c
    }

    /// The fingerprint of the union of two multisets.
    pub fn combine(self, other: Checksum) -> Checksum {
        Checksum {
            sum: self.sum.wrapping_add(other.sum),
            xor: self.xor ^ other.xor,
            count: self.count + other.count,
        }
    }
}

/// Sort, local part: this rank's output is ascending.
pub fn locally_sorted(data: &[u64]) -> bool {
    data.windows(2).all(|w| w[0] <= w[1])
}

/// Sort, global part: ranks' (first, last) pairs in rank order never step
/// down, and the outputs together are the inputs' multiset.
pub fn sort_globally_ok(
    borders_in_rank_order: &[u64],
    all_locally_sorted: bool,
    output: Checksum,
    input: Checksum,
) -> bool {
    all_locally_sorted && locally_sorted(borders_in_rank_order) && output == input
}

/// Sequential reference BFS over a directed edge list of `n` vertices.
pub fn reference_bfs(n: u64, edges: &[(u64, u64)], source: u64) -> Vec<u64> {
    let mut offsets = vec![0usize; n as usize + 1];
    for &(u, _) in edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n as usize {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets.clone();
    let mut adj = vec![0u64; edges.len()];
    for &(u, v) in edges {
        adj[fill[u as usize]] = v;
        fill[u as usize] += 1;
    }
    let mut dist = vec![UNREACHED; n as usize];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[offsets[v as usize]..offsets[v as usize + 1]] {
            if dist[w as usize] == UNREACHED {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// BFS: this rank's distances equal the reference's slice for its range.
pub fn bfs_ok(local_dist: &[u64], reference_slice: &[u64]) -> bool {
    local_dist == reference_slice
}

/// Stream: writes the sequence number into a message about to be sent.
pub fn stamp_message(msg: &mut [u64], seq: u64) {
    msg[0] = seq;
}

/// Stream: a received message carries the expected sequence number and,
/// from word 1 on, exactly the seeded pattern of its size class.
pub fn message_ok(received: &[u64], pattern: &[u64], expected_seq: u64) -> bool {
    received.len() == pattern.len()
        && received.first() == Some(&expected_seq)
        && received[1..] == pattern[1..]
}

/// `p2p-wild-shm`: every tag of a window is seen exactly once.
pub struct TagLedger {
    seen: Vec<bool>,
    distinct: usize,
    duplicates: u64,
    strays: u64,
}

impl TagLedger {
    pub fn new(window: usize) -> TagLedger {
        TagLedger {
            seen: vec![false; window],
            distinct: 0,
            duplicates: 0,
            strays: 0,
        }
    }

    pub fn record(&mut self, tag: u32) {
        match self.seen.get_mut(tag as usize) {
            None => self.strays += 1,
            Some(slot) if *slot => self.duplicates += 1,
            Some(slot) => {
                *slot = true;
                self.distinct += 1;
            }
        }
    }

    /// Number of messages of the window that were not matched correctly
    /// (missing, duplicated or foreign tags); resets for the next window.
    pub fn close_window(&mut self) -> u64 {
        let missing = (self.seen.len() - self.distinct) as u64;
        let bad = missing.max(self.duplicates + self.strays);
        self.seen.fill(false);
        self.distinct = 0;
        self.duplicates = 0;
        self.strays = 0;
        bad
    }
}

/// `p2p-small-shm`: the echo is the ping plus one.
pub fn echo_ok(sent: u64, reply: u64) -> bool {
    reply == sent.wrapping_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_oracle_trips_on_a_swapped_pair_and_on_a_changed_value() {
        let input = vec![9u64, 3, 7, 1, 8, 2];
        let want = Checksum::of(&input);
        let mut out = input.clone();
        out.sort_unstable();
        let borders = [out[0], out[2], out[3], out[5]];
        assert!(sort_globally_ok(
            &borders,
            locally_sorted(&out),
            Checksum::of(&out),
            want
        ));

        // Two neighbours swapped: same multiset, no longer sorted.
        let mut swapped = out.clone();
        swapped.swap(1, 2);
        assert!(!sort_globally_ok(
            &borders,
            locally_sorted(&swapped),
            Checksum::of(&swapped),
            want
        ));

        // One value replaced by another that keeps the order: sorted, but
        // not the input's multiset.
        let mut changed = out.clone();
        changed[2] = changed[1];
        assert!(locally_sorted(&changed));
        assert!(!sort_globally_ok(
            &borders,
            true,
            Checksum::of(&changed),
            want
        ));

        // Ranks sorted locally but overlapping each other.
        assert!(!sort_globally_ok(&[1, 7, 3, 9], true, want, want));
    }

    #[test]
    fn checksums_combine_like_the_union() {
        let a = [5u64, 11, u64::MAX];
        let b = [2u64, 5];
        let mut all = a.to_vec();
        all.extend_from_slice(&b);
        assert_eq!(
            Checksum::of(&a).combine(Checksum::of(&b)),
            Checksum::of(&all)
        );
    }

    #[test]
    fn bfs_oracle_trips_on_one_wrong_distance() {
        // Path 0-1-2-3 plus isolated vertex 4.
        let edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)];
        let want = reference_bfs(5, &edges, 0);
        assert_eq!(want, vec![0, 1, 2, 3, UNREACHED]);
        assert!(bfs_ok(&want[2..5], &want[2..5]));
        let mut got = want.clone();
        got[3] = 2;
        assert!(!bfs_ok(&got[2..5], &want[2..5]));
    }

    #[test]
    fn stream_oracle_trips_on_one_flipped_word_a_wrong_seq_and_a_short_message() {
        let pattern: Vec<u64> = (0..64).map(|i| i * 0x9e37).collect();
        let mut msg = pattern.clone();
        stamp_message(&mut msg, 41);
        assert!(message_ok(&msg, &pattern, 41));
        assert!(!message_ok(&msg, &pattern, 42));
        let mut flipped = msg.clone();
        flipped[63] ^= 1;
        assert!(!message_ok(&flipped, &pattern, 41));
        assert!(!message_ok(&msg[..63], &pattern, 41));
    }

    #[test]
    fn tag_ledger_trips_on_duplicate_missing_and_stray_tags() {
        let mut ledger = TagLedger::new(4);
        for t in [2, 0, 3, 1] {
            ledger.record(t);
        }
        assert_eq!(ledger.close_window(), 0);

        // Tag 1 delivered twice, tag 3 never.
        for t in [2, 0, 1, 1] {
            ledger.record(t);
        }
        assert_eq!(ledger.close_window(), 1);

        // A tag from outside the window.
        for t in [0, 1, 2, 9] {
            ledger.record(t);
        }
        assert_eq!(ledger.close_window(), 1);

        // The ledger is clean again after closing.
        for t in [0, 1, 2, 3] {
            ledger.record(t);
        }
        assert_eq!(ledger.close_window(), 0);
    }

    #[test]
    fn echo_oracle_trips_on_a_stale_reply() {
        assert!(echo_ok(7, 8));
        assert!(echo_ok(u64::MAX, 0));
        assert!(!echo_ok(7, 7));
    }
}
