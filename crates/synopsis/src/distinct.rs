//! Gibbons' distinct sampling (per-node hash samples).
//!
//! A [`DistinctSample`] maintains a bounded-size random sample of a set of
//! document identifiers. Every identifier is assigned a *level* by a shared
//! hash function (`Prob[level(x) ≥ l] = 2^{-l}`, see [`crate::hash`]); the
//! sample keeps exactly the identifiers whose level is at least the sample's
//! current level. When an insertion would exceed the capacity, the level is
//! incremented and the sample is sub-sampled, halving it in expectation.
//!
//! Because levels are deterministic, two samples built independently can be
//! combined: union and intersection first bring both sides to the same
//! (higher) level and then operate on the surviving identifiers. The true
//! cardinality of the underlying set is estimated as `|sample| · 2^level`.
//! These operations are exactly what the paper's selectivity algorithm needs
//! (Sections 3.2 and 4, following Gibbons VLDB'01 and Ganguly et al.
//! SIGMOD'03).
//!
//! The identifiers are a [`DocSet`], an ascending list, and union and
//! intersection are single merges. A union hashes an id's level only when
//! the id's operand is below the result level and the other operand lacks
//! it: any other id is at the result level already. An intersection hashes
//! none, as each of its ids is in the higher operand. So ids, level and
//! capacity are those of a set-based sample, and estimates bit-identical.

use crate::docid::{DocId, DocSet};
use crate::hash::sample_level;

/// Default hash seed used when none is specified.
pub const DEFAULT_SEED: u64 = 0x0005_EED0_FD15_71C7;

/// A bounded-size distinct sample of document identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSample {
    /// Identifiers currently in the sample (all have `level(x) >= level`).
    items: DocSet,
    /// Current sampling level (sampling probability `2^-level`).
    level: u32,
    /// Maximum number of identifiers retained.
    capacity: usize,
    /// Seed of the shared level hash function.
    seed: u64,
}

impl DistinctSample {
    /// Create an empty sample with the given capacity and the default seed.
    pub fn new(capacity: usize) -> Self {
        Self::with_seed(capacity, DEFAULT_SEED)
    }

    /// Create an empty sample with the given capacity and hash seed.
    ///
    /// All samples that are ever combined (union / intersection) must use the
    /// same seed; the synopsis guarantees this by construction.
    pub fn with_seed(capacity: usize, seed: u64) -> Self {
        Self {
            items: DocSet::default(),
            level: 0,
            capacity: capacity.max(1),
            seed,
        }
    }

    /// Number of identifiers currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the sample currently stores no identifiers.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The sample's current level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The sample's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The hash seed used for level computation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterate over the identifiers currently in the sample.
    pub fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        self.items.iter()
    }

    /// Insert a document identifier.
    ///
    /// The identifier is retained only if its level is at least the sample's
    /// current level; if the sample overflows, the level is incremented and
    /// the sample sub-sampled.
    pub fn insert(&mut self, doc: DocId) {
        if sample_level(doc.as_u64(), self.seed) >= self.level {
            self.items.insert(doc);
            self.shrink_to_capacity();
        }
    }

    /// Remove an identifier if present (used when a document is retired).
    pub fn remove(&mut self, doc: DocId) {
        self.items.remove(doc);
    }

    fn shrink_to_capacity(&mut self) {
        while self.items.len() > self.capacity {
            self.subsample_to_level(self.level + 1);
        }
    }

    /// Whether an id of this sample stays in a sample at `level`.
    fn keeps(&self, level: u32) -> impl Fn(DocId) -> bool {
        let (own, seed) = (self.level, self.seed);
        move |d| own >= level || sample_level(d.as_u64(), seed) >= level
    }

    /// `items` at `level`, sub-sampled to the larger capacity.
    fn combined(&self, other: &DistinctSample, items: DocSet, level: u32) -> DistinctSample {
        let mut result = DistinctSample {
            items,
            level,
            capacity: self.capacity.max(other.capacity),
            seed: self.seed,
        };
        result.shrink_to_capacity();
        result
    }

    /// Estimate of the cardinality of the underlying (unsampled) set.
    pub fn cardinality_estimate(&self) -> f64 {
        self.items.len() as f64 * 2f64.powi(self.level as i32)
    }

    /// Bring the sample down to `level` (dropping identifiers whose level is
    /// smaller). No-op if the sample is already at or above `level`.
    pub fn subsample_to_level(&mut self, level: u32) {
        if level <= self.level {
            return;
        }
        self.level = level;
        let seed = self.seed;
        self.items
            .retain(|d| sample_level(d.as_u64(), seed) >= level);
    }

    /// Union of two samples: a sample (of the union set) at level
    /// `max(l1, l2)`, further sub-sampled if it exceeds the capacity.
    pub fn union(&self, other: &DistinctSample) -> DistinctSample {
        debug_assert_eq!(self.seed, other.seed, "samples must share a hash seed");
        let level = self.level.max(other.level);
        let (keep_self, keep_other) = (self.keeps(level), other.keeps(level));
        let items = self.items.union(&other.items, keep_self, keep_other);
        self.combined(other, items, level)
    }

    /// Intersection of two samples: identifiers present in both sides once
    /// both are brought to the common level `max(l1, l2)`.
    pub fn intersect(&self, other: &DistinctSample) -> DistinctSample {
        debug_assert_eq!(self.seed, other.seed, "samples must share a hash seed");
        let items = self.items.intersection(&other.items);
        self.combined(other, items, self.level.max(other.level))
    }

    /// `self.intersect(other).cardinality_estimate()`, counted without
    /// building the intersection (which never exceeds either side's size,
    /// so it is never sub-sampled).
    pub fn intersection_estimate(&self, other: &DistinctSample) -> f64 {
        let len = self.items.common(&other.items).count();
        len as f64 * 2f64.powi(self.level.max(other.level) as i32)
    }

    /// An empty sample compatible with `self` (same capacity and seed, level
    /// 0).
    pub fn empty_like(&self) -> DistinctSample {
        DistinctSample::with_seed(self.capacity, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<DocId> {
        range.map(DocId).collect()
    }

    #[test]
    fn small_sets_are_stored_exactly() {
        let mut s = DistinctSample::new(100);
        for d in ids(0..50) {
            s.insert(d);
        }
        assert_eq!(s.len(), 50);
        assert_eq!(s.level(), 0);
        assert_eq!(s.cardinality_estimate(), 50.0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut s = DistinctSample::new(64);
        for d in ids(0..10_000) {
            s.insert(d);
        }
        assert!(s.len() <= 64);
        assert!(s.level() > 0);
    }

    #[test]
    fn cardinality_estimate_is_reasonable() {
        let n = 20_000u64;
        let mut s = DistinctSample::new(256);
        for d in ids(0..n) {
            s.insert(d);
        }
        let est = s.cardinality_estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.25, "estimate {est} too far from {n}");
    }

    #[test]
    fn duplicate_insertions_do_not_inflate_the_estimate() {
        let mut s = DistinctSample::new(128);
        for _ in 0..10 {
            for d in ids(0..1000) {
                s.insert(d);
            }
        }
        let est = s.cardinality_estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.3, "estimate {est}");
    }

    #[test]
    fn union_estimates_union_cardinality() {
        let mut a = DistinctSample::new(256);
        let mut b = DistinctSample::new(256);
        for d in ids(0..8_000) {
            a.insert(d);
        }
        for d in ids(4_000..12_000) {
            b.insert(d);
        }
        let u = a.union(&b);
        let est = u.cardinality_estimate();
        let rel = (est - 12_000.0).abs() / 12_000.0;
        assert!(rel < 0.3, "union estimate {est}");
        assert!(u.len() <= u.capacity());
    }

    #[test]
    fn intersect_estimates_overlap_cardinality() {
        let mut a = DistinctSample::new(512);
        let mut b = DistinctSample::new(512);
        for d in ids(0..8_000) {
            a.insert(d);
        }
        for d in ids(4_000..12_000) {
            b.insert(d);
        }
        let i = a.intersect(&b);
        let est = i.cardinality_estimate();
        let rel = (est - 4_000.0).abs() / 4_000.0;
        assert!(rel < 0.4, "intersection estimate {est}");
    }

    #[test]
    fn intersect_of_disjoint_sets_is_empty() {
        let mut a = DistinctSample::new(128);
        let mut b = DistinctSample::new(128);
        for d in ids(0..2_000) {
            a.insert(d);
        }
        for d in ids(5_000..7_000) {
            b.insert(d);
        }
        let i = a.intersect(&b);
        assert_eq!(i.cardinality_estimate(), 0.0);
        assert!(i.is_empty());
    }

    #[test]
    fn union_with_empty_is_identity_estimate() {
        let mut a = DistinctSample::new(128);
        for d in ids(0..3_000) {
            a.insert(d);
        }
        let empty = a.empty_like();
        let u = a.union(&empty);
        assert_eq!(u.cardinality_estimate(), a.cardinality_estimate());
        let i = a.intersect(&empty);
        assert!(i.is_empty());
    }

    #[test]
    fn subsample_to_level_reduces_size() {
        let mut a = DistinctSample::new(4096);
        for d in ids(0..4_000) {
            a.insert(d);
        }
        let before = a.len();
        a.subsample_to_level(2);
        assert!(a.len() < before);
        assert_eq!(a.level(), 2);
        // Still estimates ~4000.
        let rel = (a.cardinality_estimate() - 4_000.0).abs() / 4_000.0;
        assert!(rel < 0.3);
    }

    #[test]
    fn remove_drops_the_identifier() {
        let mut a = DistinctSample::new(16);
        a.insert(DocId(1));
        a.insert(DocId(2));
        a.remove(DocId(1));
        let remaining: Vec<DocId> = a.iter().collect();
        assert_eq!(remaining, vec![DocId(2)]);
    }

    #[test]
    fn inclusion_property_of_unions() {
        // The union of children samples has a cardinality estimate at least
        // as large as each child's (up to sub-sampling noise at equal level).
        let mut a = DistinctSample::new(256);
        let mut b = DistinctSample::new(256);
        for d in ids(0..5_000) {
            a.insert(d);
        }
        for d in ids(2_000..6_000) {
            b.insert(d);
        }
        let u = a.union(&b);
        assert!(u.cardinality_estimate() >= a.cardinality_estimate() * 0.7);
        assert!(u.cardinality_estimate() >= b.cardinality_estimate() * 0.7);
    }
}
