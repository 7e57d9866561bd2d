//! The view digest: 128 bits that name a consumer view.
//!
//! Every entry `(subscriber, attach broker, pattern)` of a view hashes to
//! 128 bits and the digest of the view is the wrapping sum of its entries'
//! hashes — independent of the order the entries arrived in, updated by one
//! addition on `subscribe` and one subtraction on `unsubscribe`, and 0 for the
//! empty view. Two brokers compare views by comparing digests.
//!
//! The hash is fixed (it crosses the wire, so it can never depend on
//! `DefaultHasher` or on a process seed) and built from
//! [`tps_synopsis::hash`]'s SplitMix64 finaliser `mix` and FNV-1a label hash:
//!
//! * a pattern node hashes to `mix(mix(label ^ lane) + Σ children)`, where
//!   `label` is a per-kind constant for `/.`, `*` and `//` and
//!   `hash_label(tag) ^ TAG` for a tag. The children enter as a sum, so the
//!   hash is — like pattern equality — blind to sibling order;
//! * an entry hashes, per lane, to `mix(mix(mix(lane ^ subscriber) ^ broker)
//!   ^ pattern)`;
//! * the two lanes (seeds [`LANES`]) are the high and low halves of the
//!   128-bit value.
//!
//! One pass over the pattern, no allocation.

use tps_pattern::{PatternLabel, PatternNodeId, TreePattern};
use tps_synopsis::hash::{hash_label, splitmix64 as mix};

/// Seeds of the two independent 64-bit lanes.
const LANES: [u64; 2] = [0x7470_732d_6e65_7431, 0x7669_6577_2d64_6967];

const ROOT: u64 = 1;
const WILDCARD: u64 = 2;
const DESCENDANT: u64 = 3;
const TAG: u64 = 4;

/// The 128-bit hash of one view entry.
pub(crate) fn entry_digest(subscriber: u64, broker: u32, pattern: &TreePattern) -> u128 {
    let structure = node_hash(pattern, pattern.root());
    let lane = |k: usize| mix(mix(mix(LANES[k] ^ subscriber) ^ u64::from(broker)) ^ structure[k]);
    u128::from(lane(0)) << 64 | u128::from(lane(1))
}

fn node_hash(pattern: &TreePattern, node: PatternNodeId) -> [u64; 2] {
    let label = match pattern.label(node) {
        PatternLabel::Root => ROOT,
        PatternLabel::Wildcard => WILDCARD,
        PatternLabel::Descendant => DESCENDANT,
        PatternLabel::Tag(tag) => hash_label(tag) ^ TAG,
    };
    let mut children = [0u64; 2];
    for &child in pattern.children(node) {
        let hash = node_hash(pattern, child);
        children[0] = children[0].wrapping_add(hash[0]);
        children[1] = children[1].wrapping_add(hash[1]);
    }
    [0, 1].map(|k| mix(mix(label ^ LANES[k]).wrapping_add(children[k])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(subscriber: u64, broker: u32, pattern: &str) -> u128 {
        entry_digest(subscriber, broker, &TreePattern::parse(pattern).unwrap())
    }

    #[test]
    fn every_component_of_an_entry_moves_the_digest() {
        let base = digest(7, 1, "/a[b][c//d]");
        assert_eq!(base, digest(7, 1, "/a[b][c//d]"));
        assert_ne!(base, digest(8, 1, "/a[b][c//d]"));
        assert_ne!(base, digest(7, 2, "/a[b][c//d]"));
        assert_ne!(base, digest(7, 1, "/a[b][c/d]"));
        assert_ne!(base, digest(7, 1, "/a[b][c//e]"));
        assert_ne!(base, digest(7, 1, "/a[b][b][c//d]"));
        assert_ne!(digest(7, 1, "/a/*"), digest(7, 1, "/a//b"));
        // Both lanes carry information.
        assert_ne!(base >> 64, base & u128::from(u64::MAX));
    }

    #[test]
    fn sibling_order_does_not_move_it_but_nesting_does() {
        assert_eq!(digest(0, 0, "/a[b][c//d]"), digest(0, 0, "/a[c//d][b]"));
        assert_ne!(digest(0, 0, "/a[b][c]"), digest(0, 0, "/a/b/c"));
        assert_ne!(digest(0, 0, "/a[b/c][d]"), digest(0, 0, "/a[b][c/d]"));
    }

    #[test]
    fn the_hash_is_pinned() {
        // The digest crosses the wire between brokers that may run different
        // builds: changing the function is a protocol change.
        assert_eq!(
            digest(1, 2, "//CD/title"),
            0xcfdf_f41c_7034_b8b3_097a_dc84_9fcb_aa34
        );
    }
}
