//! Message tags and matching wildcards.
//!
//! User code may use tags `0 ..= MAX_USER_TAG`. The substrate reserves the
//! upper tag space for internal collective traffic so that user
//! point-to-point messages can never be confused with, say, the tree
//! messages of a broadcast that is in flight on the same communicator.

/// A message tag.
pub type Tag = u32;

/// Largest tag available to user code.
pub(crate) const MAX_USER_TAG: Tag = (1 << 24) - 1;

/// Wildcard: match a message from any source (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: usize = usize::MAX;

/// Wildcard: match a message with any *user* tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Tag = u32::MAX;

/// Base of the internal tag space used by collectives.
pub(crate) const COLL_TAG_BASE: Tag = 1 << 24;

/// Builds the internal tag for the `seq`-th collective on a communicator.
///
/// Collectives must be called in the same order on every rank of a
/// communicator (an MPI requirement we inherit), so a per-communicator
/// sequence number disambiguates successive collectives even when a fast
/// rank races ahead into the next one.
pub(crate) const fn coll_tag(seq: u32) -> Tag {
    COLL_TAG_BASE + (seq & 0x00ff_ffff)
}

/// Reserved collective sequence base of the teardown gather (every rank's
/// stats block, `crate::net::gather_stats`), far above any realistic user
/// sequence. Must stay below 2^24: [`coll_tag`] masks the sequence to 24
/// bits, so a larger base would alias user collective tags.
pub(crate) const TEARDOWN_SEQ_BASE: u32 = 0x00F0_0000;

/// Reserved sequence base of the live metrics plane (rank 0 pulls
/// snapshots over `coll_tag(METRICS_SEQ_BASE)`, peers answer on
/// `coll_tag(METRICS_SEQ_BASE + 1)`, see `crate::metrics`). Same 24-bit
/// constraint.
pub(crate) const METRICS_SEQ_BASE: u32 = 0x00D0_0000;

/// Returns true if `msg_tag` (a concrete tag on a queued message) matches
/// the receiver's requested `want` tag, honouring [`ANY_TAG`].
///
/// `ANY_TAG` only matches user-space tags: internal collective messages are
/// never surfaced to wildcard receives, mirroring how MPI keeps collective
/// traffic on a separate communicator "context".
pub(crate) fn tag_matches(want: Tag, msg_tag: Tag) -> bool {
    if want == ANY_TAG {
        msg_tag <= MAX_USER_TAG
    } else {
        want == msg_tag
    }
}

/// Returns true if `msg_src` matches the requested `want` source.
pub(crate) fn source_matches(want: usize, msg_src: usize) -> bool {
    want == ANY_SOURCE || want == msg_src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_tag_matches_only_user_space() {
        assert!(tag_matches(ANY_TAG, 0));
        assert!(tag_matches(ANY_TAG, MAX_USER_TAG));
        assert!(!tag_matches(ANY_TAG, coll_tag(0)));
        assert!(!tag_matches(ANY_TAG, coll_tag(123)));
    }

    #[test]
    fn exact_tag_matching() {
        assert!(tag_matches(7, 7));
        assert!(!tag_matches(7, 8));
        // Internal tags can still be matched exactly (by the collectives).
        assert!(tag_matches(coll_tag(3), coll_tag(3)));
    }

    #[test]
    fn source_wildcard() {
        assert!(source_matches(ANY_SOURCE, 0));
        assert!(source_matches(ANY_SOURCE, 12345));
        assert!(source_matches(3, 3));
        assert!(!source_matches(3, 4));
    }

    #[test]
    fn coll_tags_distinct_for_distinct_seq() {
        assert_ne!(coll_tag(0), coll_tag(1));
        assert!(coll_tag(0) > MAX_USER_TAG);
    }
}
