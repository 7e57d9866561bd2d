//! Matching-set representations and the algebra used by selectivity
//! estimation.
//!
//! Section 3.2 of the paper proposes three ways to compress the matching set
//! `S(t)` stored at each synopsis node:
//!
//! * **Counters** — a single frequency counter; conjunctions are handled with
//!   an independence assumption (union → max, intersection → product of the
//!   corresponding probabilities).
//! * **Sets** — exact matching sets, but only over a fixed-size uniform
//!   sample of the document stream (keyed bottom-k reservoir sampling,
//!   order-independent and therefore shard-mergeable).
//! * **Hashes** — per-node bounded-size distinct samples (Gibbons), combined
//!   with level-aware union/intersection.
//!
//! [`NodeSummary`] is the per-node storage; [`SummaryValue`] is the value the
//! recursive selectivity function manipulates (the paper's Algorithm 1 works
//! on sets and notes the counter-mode substitution of max/product/value).
//!
//! A Sets value is a [`DocSet`], an ascending id list, combined by merges.
//! A merge yields exactly the ids a set operation yields, so every count is
//! bit-identical to a set-based value's.

use crate::distinct::DistinctSample;
use crate::docid::{DocId, DocSet};

/// Which matching-set representation a synopsis uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchingSetKind {
    /// Simple per-node frequency counters.
    Counters,
    /// Exact matching sets over a document-level reservoir sample of the
    /// given capacity.
    Sets {
        /// Maximum number of documents in the reservoir (the paper's `k`).
        capacity: usize,
    },
    /// Per-node distinct-sampling hash samples of the given capacity
    /// (the paper's `h`).
    Hashes {
        /// Maximum number of entries per node sample.
        capacity: usize,
    },
}

impl MatchingSetKind {
    /// Counter-based matching sets (no size knob).
    pub fn counters() -> Self {
        MatchingSetKind::Counters
    }

    /// Exact matching sets over a document reservoir of `capacity` documents.
    pub fn sets(capacity: usize) -> Self {
        MatchingSetKind::Sets { capacity }
    }

    /// Per-node distinct hash samples of `capacity` entries each.
    pub fn hashes(capacity: usize) -> Self {
        MatchingSetKind::Hashes { capacity }
    }

    /// Short human-readable name, matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            MatchingSetKind::Counters => "Counters",
            MatchingSetKind::Sets { .. } => "Sets",
            MatchingSetKind::Hashes { .. } => "Hashes",
        }
    }
}

/// Per-node matching-set storage.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSummary {
    /// Number of documents whose matching set contains this node.
    Counter(u64),
    /// Sampled document identifiers containing this node (Sets mode).
    Set(DocSet),
    /// Distinct sample of the documents whose skeleton path *ends* at this
    /// node (Hashes mode); the full matching set is the union over the
    /// node's descendants.
    Hash(DistinctSample),
}

impl NodeSummary {
    /// An empty summary of the given kind. `seed` parameterises the hash
    /// sample's level function and must be shared across the synopsis.
    pub fn empty(kind: MatchingSetKind, seed: u64) -> Self {
        match kind {
            MatchingSetKind::Counters => NodeSummary::Counter(0),
            MatchingSetKind::Sets { .. } => NodeSummary::Set(DocSet::default()),
            MatchingSetKind::Hashes { capacity } => {
                NodeSummary::Hash(DistinctSample::with_seed(capacity, seed))
            }
        }
    }

    /// Record that `doc` belongs to this node's matching set.
    pub fn insert(&mut self, doc: DocId) {
        match self {
            NodeSummary::Counter(c) => *c += 1,
            NodeSummary::Set(s) => s.insert(doc),
            NodeSummary::Hash(h) => h.insert(doc),
        }
    }

    /// Remove a document (used when the reservoir evicts it). A no-op for
    /// counters, which cannot forget.
    pub fn remove(&mut self, doc: DocId) {
        match self {
            NodeSummary::Counter(_) => {}
            NodeSummary::Set(s) => s.remove(doc),
            NodeSummary::Hash(h) => h.remove(doc),
        }
    }

    /// Number of stored entries, for size accounting (`|HS|` counts every
    /// hash/set entry; a counter is a single word).
    pub fn entries(&self) -> usize {
        match self {
            NodeSummary::Counter(_) => 1,
            NodeSummary::Set(s) => s.len(),
            NodeSummary::Hash(h) => h.len(),
        }
    }

    /// Estimated number of documents in the (full) matching set represented
    /// by this summary alone.
    pub fn count_estimate(&self) -> f64 {
        match self {
            NodeSummary::Counter(c) => *c as f64,
            NodeSummary::Set(s) => s.len() as f64,
            NodeSummary::Hash(h) => h.cardinality_estimate(),
        }
    }

    /// Whether the summary holds no documents at all.
    pub fn is_empty(&self) -> bool {
        match self {
            NodeSummary::Counter(c) => *c == 0,
            NodeSummary::Set(s) => s.is_empty(),
            NodeSummary::Hash(h) => h.is_empty(),
        }
    }

    /// Union of two summaries (used when *folding* a leaf into its parent:
    /// the folded node's matching set is the union of both).
    pub fn union(&self, other: &NodeSummary) -> NodeSummary {
        match (self, other) {
            (NodeSummary::Counter(a), NodeSummary::Counter(b)) => NodeSummary::Counter(*a.max(b)),
            (NodeSummary::Set(a), NodeSummary::Set(b)) => {
                NodeSummary::Set(a.union(b, |_| true, |_| true))
            }
            (NodeSummary::Hash(a), NodeSummary::Hash(b)) => NodeSummary::Hash(a.union(b)),
            _ => panic!("cannot combine summaries of different kinds"),
        }
    }

    /// Intersection of two summaries (used when *merging* same-label nodes:
    /// the merged node keeps `S(t) ∩ S(t')`, preserving the parent-child
    /// inclusion property).
    pub fn intersection(&self, other: &NodeSummary) -> NodeSummary {
        match (self, other) {
            (NodeSummary::Counter(a), NodeSummary::Counter(b)) => NodeSummary::Counter(*a.min(b)),
            (NodeSummary::Set(a), NodeSummary::Set(b)) => NodeSummary::Set(a.intersection(b)),
            (NodeSummary::Hash(a), NodeSummary::Hash(b)) => NodeSummary::Hash(a.intersect(b)),
            _ => panic!("cannot combine summaries of different kinds"),
        }
    }
}

/// A value manipulated by the recursive selectivity function `SEL`.
///
/// * In Counters mode the value is a *probability* (fraction of documents);
///   union is `max`, intersection is the product (independence assumption) —
///   exactly the substitution described at the end of Section 4.
/// * In Sets mode the value is an explicit set of sampled document ids.
/// * In Hashes mode the value is a distinct sample; union/intersection are
///   the level-aware sample operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryValue {
    /// Counters mode: a fraction of the document stream in `[0, 1]`.
    Fraction(f64),
    /// Sets mode: explicit sampled document identifiers.
    Set(DocSet),
    /// Hashes mode: a distinct sample.
    Hash(DistinctSample),
}

impl SummaryValue {
    /// The empty (zero-selectivity) value of the given kind.
    pub fn empty(kind: MatchingSetKind, seed: u64) -> Self {
        match kind {
            MatchingSetKind::Counters => SummaryValue::Fraction(0.0),
            MatchingSetKind::Sets { .. } => SummaryValue::Set(DocSet::default()),
            MatchingSetKind::Hashes { capacity } => {
                SummaryValue::Hash(DistinctSample::with_seed(capacity, seed))
            }
        }
    }

    /// Union (`∪` of Algorithm 1; `max` in counters mode).
    pub fn union(&self, other: &SummaryValue) -> SummaryValue {
        match (self, other) {
            (SummaryValue::Fraction(a), SummaryValue::Fraction(b)) => {
                SummaryValue::Fraction(a.max(*b))
            }
            (SummaryValue::Set(a), SummaryValue::Set(b)) => {
                SummaryValue::Set(a.union(b, |_| true, |_| true))
            }
            (SummaryValue::Hash(a), SummaryValue::Hash(b)) => SummaryValue::Hash(a.union(b)),
            _ => panic!("cannot combine selectivity values of different kinds"),
        }
    }

    /// Intersection (`∩` of Algorithm 1; product in counters mode).
    pub fn intersect(&self, other: &SummaryValue) -> SummaryValue {
        match (self, other) {
            (SummaryValue::Fraction(a), SummaryValue::Fraction(b)) => SummaryValue::Fraction(a * b),
            (SummaryValue::Set(a), SummaryValue::Set(b)) => SummaryValue::Set(a.intersection(b)),
            (SummaryValue::Hash(a), SummaryValue::Hash(b)) => SummaryValue::Hash(a.intersect(b)),
            _ => panic!("cannot combine selectivity values of different kinds"),
        }
    }

    /// `self ∪ other` by value: an operand that is the level-0 empty value
    /// (the identity of `∪` among values of one synopsis) returns the other
    /// unbuilt. An empty sample above level 0 is no identity: the union
    /// sub-samples the other operand to its level.
    pub fn unite(self, other: SummaryValue) -> SummaryValue {
        if other.is_union_identity() {
            self
        } else if self.is_union_identity() {
            other
        } else {
            self.union(&other)
        }
    }

    fn is_union_identity(&self) -> bool {
        match self {
            SummaryValue::Hash(h) => h.is_empty() && h.level() == 0,
            _ => self.is_empty(),
        }
    }

    /// `self.intersect(other).count_units()`, counted by a merge without
    /// building the intersection.
    pub fn intersect_units(&self, other: &SummaryValue) -> f64 {
        match (self, other) {
            (SummaryValue::Fraction(a), SummaryValue::Fraction(b)) => a * b,
            (SummaryValue::Set(a), SummaryValue::Set(b)) => a.common(b).count() as f64,
            (SummaryValue::Hash(a), SummaryValue::Hash(b)) => a.intersection_estimate(b),
            _ => panic!("cannot combine selectivity values of different kinds"),
        }
    }

    /// Estimated Jaccard similarity `|S ∩ S'| / |S ∪ S'|` of two values, used
    /// to rank candidate pairs for folding and merging. Counters cannot
    /// express overlap and give the inclusion bound `min / max`.
    pub fn jaccard(&self, other: &SummaryValue) -> f64 {
        let (inter, union) = match (self, other) {
            (SummaryValue::Fraction(a), SummaryValue::Fraction(b)) => (a.min(*b), a.max(*b)),
            _ => (self.intersect_units(other), self.union(other).count_units()),
        };
        if union == 0.0 {
            1.0
        } else {
            (inter / union).min(1.0)
        }
    }

    /// Cardinality in representation-specific units: the fraction itself for
    /// counters, the number of sampled documents for sets, the estimated
    /// number of documents for hashes. Selectivities are always computed as a
    /// ratio of two values of the same representation, so the units cancel.
    pub fn count_units(&self) -> f64 {
        match self {
            SummaryValue::Fraction(f) => *f,
            SummaryValue::Set(s) => s.len() as f64,
            SummaryValue::Hash(h) => h.cardinality_estimate(),
        }
    }

    /// Whether the value denotes the empty document set.
    pub fn is_empty(&self) -> bool {
        self.count_units() == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u64]) -> DocSet {
        ids.iter().copied().map(DocId).collect()
    }

    #[test]
    fn kind_names_match_paper_legends() {
        assert_eq!(MatchingSetKind::Counters.name(), "Counters");
        assert_eq!(MatchingSetKind::Sets { capacity: 5 }.name(), "Sets");
        assert_eq!(MatchingSetKind::Hashes { capacity: 5 }.name(), "Hashes");
    }

    #[test]
    fn counter_summary_counts_insertions() {
        let mut s = NodeSummary::empty(MatchingSetKind::Counters, 0);
        for i in 0..5 {
            s.insert(DocId(i));
        }
        assert_eq!(s.count_estimate(), 5.0);
        assert_eq!(s.entries(), 1);
        s.remove(DocId(0));
        assert_eq!(s.count_estimate(), 5.0, "counters cannot forget");
    }

    #[test]
    fn set_summary_tracks_members_exactly() {
        let mut s = NodeSummary::empty(MatchingSetKind::Sets { capacity: 100 }, 0);
        s.insert(DocId(1));
        s.insert(DocId(2));
        s.insert(DocId(1));
        assert_eq!(s.count_estimate(), 2.0);
        assert_eq!(s.entries(), 2);
        s.remove(DocId(1));
        assert_eq!(s.count_estimate(), 1.0);
    }

    #[test]
    fn hash_summary_respects_capacity() {
        let mut s = NodeSummary::empty(MatchingSetKind::Hashes { capacity: 32 }, 1);
        for i in 0..10_000 {
            s.insert(DocId(i));
        }
        assert!(s.entries() <= 32);
        let est = s.count_estimate();
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.5);
    }

    #[test]
    fn union_and_intersection_of_sets() {
        let a = NodeSummary::Set(set(&[1, 2, 3]));
        let b = NodeSummary::Set(set(&[2, 3, 4]));
        assert_eq!(a.union(&b).count_estimate(), 4.0);
        assert_eq!(a.intersection(&b).count_estimate(), 2.0);
        let (a, b) = (
            SummaryValue::Set(set(&[1, 2, 3])),
            SummaryValue::Set(set(&[2, 3, 4])),
        );
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn union_and_intersection_of_counters() {
        let a = NodeSummary::Counter(10);
        let b = NodeSummary::Counter(4);
        assert_eq!(a.union(&b).count_estimate(), 10.0);
        assert_eq!(a.intersection(&b).count_estimate(), 4.0);
        let (a, b) = (SummaryValue::Fraction(1.0), SummaryValue::Fraction(0.4));
        assert!((a.jaccard(&b) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn jaccard_of_identical_sets_is_one() {
        let a = SummaryValue::Set(set(&[5, 6]));
        assert_eq!(a.jaccard(&a), 1.0);
        let empty = SummaryValue::Set(set(&[]));
        assert_eq!(empty.jaccard(&empty), 1.0);
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn mixing_summary_kinds_panics() {
        let a = NodeSummary::Counter(1);
        let b = NodeSummary::Set(set(&[1]));
        let _ = a.union(&b);
    }

    #[test]
    fn fraction_value_algebra_matches_paper_example() {
        // Section 3.2: p = a[b][d] with P(a/b) = P(a/d) = 1/2 estimated as
        // 1/2 * 1/2 = 1/4 under the counter independence assumption.
        let b = SummaryValue::Fraction(0.5);
        let d = SummaryValue::Fraction(0.5);
        assert_eq!(b.intersect(&d).count_units(), 0.25);
        assert_eq!(b.union(&d).count_units(), 0.5);
    }

    #[test]
    fn set_value_algebra_is_exact() {
        let a = SummaryValue::Set(set(&[1, 2, 3]));
        let b = SummaryValue::Set(set(&[3, 4]));
        assert_eq!(a.union(&b).count_units(), 4.0);
        assert_eq!(a.intersect(&b).count_units(), 1.0);
        assert!(!a.is_empty());
        assert!(SummaryValue::Set(set(&[])).is_empty());
    }

    #[test]
    fn hash_value_algebra_estimates_overlap() {
        let mut a = DistinctSample::new(256);
        let mut b = DistinctSample::new(256);
        for i in 0..4_000 {
            a.insert(DocId(i));
        }
        for i in 2_000..6_000 {
            b.insert(DocId(i));
        }
        let va = SummaryValue::Hash(a);
        let vb = SummaryValue::Hash(b);
        let union = va.union(&vb).count_units();
        let inter = va.intersect(&vb).count_units();
        assert!((union - 6_000.0).abs() / 6_000.0 < 0.35, "union {union}");
        assert!(
            (inter - 2_000.0).abs() / 2_000.0 < 0.5,
            "intersection {inter}"
        );
    }

    #[test]
    fn empty_values_behave_as_zero() {
        for kind in [
            MatchingSetKind::Counters,
            MatchingSetKind::Sets { capacity: 8 },
            MatchingSetKind::Hashes { capacity: 8 },
        ] {
            let v = SummaryValue::empty(kind, 0);
            assert!(v.is_empty());
            assert_eq!(v.count_units(), 0.0);
        }
    }
}
