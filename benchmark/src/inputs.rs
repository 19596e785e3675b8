//! Every generated input, from `--seed`.
//!
//! The harness owns the seed; the library under test only ever sees the
//! generated data (or, for the graph generators that are themselves part
//! of the library, a per-graph seed derived here). Both ranks of a pair
//! derive identical schedules because they call the same function with
//! the same seed — nothing about the inputs travels over the transport
//! being measured.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// FNV-1a over the workload name, so each workload draws from its own
/// stream of the one seed.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The generator for (`seed`, workload, `stream`). `stream` separates
/// independent inputs of one workload (rank data, schedules, graphs).
pub fn rng(seed: u64, workload: &str, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ name_hash(workload)
            ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03),
    )
}

/// A derived 64-bit seed (for the library's own seeded generators).
pub fn derived_seed(seed: u64, workload: &str, stream: u64) -> u64 {
    rng(seed, workload, stream).next_u64()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` uniformly random words: one rank's sort input.
pub fn random_words(seed: u64, workload: &str, rank: usize, n: usize) -> Vec<u64> {
    let mut r = rng(seed, workload, 0x100 + rank as u64);
    (0..n).map(|_| r.next_u64()).collect()
}

/// Messages per `p2p-wild-shm` window.
pub const WILD_WINDOW: usize = 256;
/// Distinct tag shuffles cycled through by `p2p-wild-shm`.
pub const WILD_SCHEDULES: usize = 32;

/// Tag of the message at each send position, one shuffle of
/// `0..WILD_WINDOW` per schedule slot.
pub fn wild_tag_schedules(seed: u64) -> Vec<Vec<u32>> {
    let mut r = rng(seed, "p2p-wild-shm", 1);
    (0..WILD_SCHEDULES)
        .map(|_| {
            let mut tags: Vec<u32> = (0..WILD_WINDOW as u32).collect();
            shuffle(&mut tags, &mut r);
            tags
        })
        .collect()
}

/// Message sizes of the stream workloads, in `u64` words.
pub const STREAM_CLASS_WORDS: [usize; 3] = [64 * 1024 / 8, 256 * 1024 / 8, 1024 * 1024 / 8];
/// Size classes of one window: 4 × 64 KiB, 2 × 256 KiB, 2 × 1 MiB. Every
/// window carries the same bytes (2.75 MiB); the seed only orders them,
/// so windows — and seeds — are comparable.
const STREAM_WINDOW_CLASSES: [u8; 8] = [0, 0, 0, 0, 1, 1, 2, 2];
/// Messages per acknowledged window.
pub const STREAM_WINDOW: usize = STREAM_WINDOW_CLASSES.len();
/// Distinct window orders cycled through by the stream workloads.
pub const STREAM_SCHEDULES: usize = 64;

/// Size class of each message of each scheduled window.
pub fn stream_schedules(seed: u64) -> Vec<[u8; STREAM_WINDOW]> {
    let mut r = rng(seed, "stream-large", 1);
    (0..STREAM_SCHEDULES)
        .map(|_| {
            let mut w = STREAM_WINDOW_CLASSES;
            shuffle(&mut w, &mut r);
            w
        })
        .collect()
}

/// Payload bytes of one stream window.
pub fn stream_window_bytes() -> u64 {
    STREAM_WINDOW_CLASSES
        .iter()
        .map(|&c| STREAM_CLASS_WORDS[c as usize] as u64 * 8)
        .sum()
}

/// The reference content of a message of size class `class`: word 0 is
/// reserved for the sequence number, the rest is seeded noise.
pub fn stream_pattern(seed: u64, class: usize) -> Vec<u64> {
    let mut r = rng(seed, "stream-large", 0x200 + class as u64);
    (0..STREAM_CLASS_WORDS[class])
        .map(|_| r.next_u64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            random_words(7, "sort-fig8", 1, 64),
            random_words(7, "sort-fig8", 1, 64)
        );
        assert_ne!(
            random_words(7, "sort-fig8", 1, 64),
            random_words(8, "sort-fig8", 1, 64)
        );
        assert_ne!(
            random_words(7, "sort-fig8", 0, 64),
            random_words(7, "sort-fig8", 1, 64)
        );
        assert_eq!(wild_tag_schedules(3), wild_tag_schedules(3));
        assert_ne!(wild_tag_schedules(3), wild_tag_schedules(4));
        assert_eq!(stream_schedules(3), stream_schedules(3));
    }

    #[test]
    fn schedules_are_permutations_of_a_fixed_multiset() {
        for tags in wild_tag_schedules(11) {
            let mut sorted = tags.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..WILD_WINDOW as u32).collect::<Vec<_>>());
        }
        for w in stream_schedules(11) {
            let mut sorted = w;
            sorted.sort_unstable();
            assert_eq!(sorted, STREAM_WINDOW_CLASSES);
        }
        assert_eq!(stream_window_bytes(), 2816 * 1024);
    }
}
