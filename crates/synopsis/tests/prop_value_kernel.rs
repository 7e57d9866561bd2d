//! Model test of the sorted-vector value kernel.
//!
//! `DistinctSample` and the Sets values keep their ids in ascending
//! vectors and combine them by merges. This test runs random operation
//! sequences on them and on [`model::Sample`], a `BTreeSet` distinct sample
//! written the direct way (clone, sub-sample, insert one id at a time),
//! and requires the same ids, level and capacity after every step.
//!
//! It is the independent oracle for the kernel: `SelectivityEstimator` and
//! `SimilarityEngine` share the value algebra, so a test that compares
//! them cannot see a bug in it.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tps_synopsis::hash::sample_level;
use tps_synopsis::{DistinctSample, DocId, DocSet, MatchingSetKind, NodeSummary, SummaryValue};

mod model {
    use std::collections::BTreeSet;

    use tps_synopsis::hash::sample_level;

    /// A distinct sample on a `BTreeSet`: the reference semantics.
    #[derive(Debug, Clone)]
    pub struct Sample {
        pub items: BTreeSet<u64>,
        pub level: u32,
        pub capacity: usize,
        pub seed: u64,
    }

    impl Sample {
        pub fn new(capacity: usize, seed: u64) -> Self {
            Self {
                items: BTreeSet::new(),
                level: 0,
                capacity: capacity.max(1),
                seed,
            }
        }

        pub fn insert(&mut self, doc: u64) {
            if sample_level(doc, self.seed) >= self.level {
                self.items.insert(doc);
                self.shrink_to_capacity();
            }
        }

        pub fn remove(&mut self, doc: u64) {
            self.items.remove(&doc);
        }

        fn shrink_to_capacity(&mut self) {
            while self.items.len() > self.capacity {
                self.level += 1;
                let (level, seed) = (self.level, self.seed);
                self.items.retain(|&d| sample_level(d, seed) >= level);
            }
        }

        pub fn subsample_to_level(&mut self, level: u32) {
            if level <= self.level {
                return;
            }
            self.level = level;
            let seed = self.seed;
            self.items.retain(|&d| sample_level(d, seed) >= level);
        }

        pub fn union(&self, other: &Sample) -> Sample {
            let mut result = self.clone();
            result.capacity = self.capacity.max(other.capacity);
            result.subsample_to_level(other.level);
            for &doc in &other.items {
                if sample_level(doc, result.seed) >= result.level {
                    result.items.insert(doc);
                }
            }
            result.shrink_to_capacity();
            result
        }

        pub fn intersect(&self, other: &Sample) -> Sample {
            let level = self.level.max(other.level);
            let items = self
                .items
                .intersection(&other.items)
                .copied()
                .filter(|&d| sample_level(d, self.seed) >= level)
                .collect();
            let mut result = Sample {
                items,
                level,
                capacity: self.capacity.max(other.capacity),
                seed: self.seed,
            };
            result.shrink_to_capacity();
            result
        }

        pub fn estimate(&self) -> f64 {
            self.items.len() as f64 * 2f64.powi(self.level as i32)
        }
    }
}

const SEED: u64 = 0x5EED;

fn ids_of(sample: &DistinctSample) -> Vec<u64> {
    sample.iter().map(DocId::as_u64).collect()
}

/// The ids, level and capacity of `real` are exactly those of `model`.
fn agree(real: &DistinctSample, model: &model::Sample) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        ids_of(real),
        model.items.iter().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(real.level(), model.level);
    prop_assert_eq!(real.capacity(), model.capacity);
    prop_assert_eq!(
        real.cardinality_estimate().to_bits(),
        model.estimate().to_bits()
    );
    Ok(())
}

fn hash_of(value: &SummaryValue) -> &DistinctSample {
    match value {
        SummaryValue::Hash(h) => h,
        other => panic!("expected a hash value, got {other:?}"),
    }
}

fn sorted(set: &BTreeSet<u64>) -> DocSet {
    set.iter().copied().map(DocId).collect()
}

/// One operation: `(kind, target, left, right, id)`.
fn gen_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, usize, u64)>> {
    prop::collection::vec((0u8..6, 0usize..3, 0usize..3, 0usize..3, 0u64..40), 1..60)
}

/// Check `SummaryValue`'s by-value union and merge-counted intersection
/// of `a` and `b` against the model's.
fn check_value_ops(
    a: &DistinctSample,
    b: &DistinctSample,
    ma: &model::Sample,
    mb: &model::Sample,
) -> Result<(), TestCaseError> {
    let union = ma.union(mb);
    let united = SummaryValue::Hash(a.clone()).unite(SummaryValue::Hash(b.clone()));
    let united = hash_of(&united);
    prop_assert_eq!(
        ids_of(united),
        union.items.iter().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(united.level(), union.level);
    if a.capacity() == b.capacity() {
        prop_assert_eq!(united.capacity(), union.capacity);
    }
    let units = SummaryValue::Hash(a.clone()).intersect_units(&SummaryValue::Hash(b.clone()));
    prop_assert_eq!(units.to_bits(), ma.intersect(mb).estimate().to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random insert / remove / sub-sample / union / intersect sequences on
    /// three samples of small (overflowing) capacities agree with the
    /// `BTreeSet` model after every step.
    #[test]
    fn distinct_sample_matches_the_btree_model(
        capacities in (1usize..6, 1usize..6, 1usize..6),
        ops in gen_ops(),
    ) {
        let caps = [capacities.0, capacities.1, capacities.2];
        let mut real: Vec<DistinctSample> =
            caps.iter().map(|&c| DistinctSample::with_seed(c, SEED)).collect();
        let mut model: Vec<model::Sample> =
            caps.iter().map(|&c| model::Sample::new(c, SEED)).collect();
        for (kind, t, l, r, id) in ops {
            match kind {
                0 | 1 => {
                    real[t].insert(DocId(id));
                    model[t].insert(id);
                }
                2 => {
                    real[t].remove(DocId(id));
                    model[t].remove(id);
                }
                3 => {
                    let level = (id % 5) as u32;
                    real[t].subsample_to_level(level);
                    model[t].subsample_to_level(level);
                }
                4 => {
                    check_value_ops(&real[l], &real[r], &model[l], &model[r])?;
                    real[t] = real[l].union(&real[r]);
                    model[t] = model[l].union(&model[r]);
                }
                _ => {
                    check_value_ops(&real[l], &real[r], &model[l], &model[r])?;
                    let estimate = real[l].intersection_estimate(&real[r]);
                    real[t] = real[l].intersect(&real[r]);
                    model[t] = model[l].intersect(&model[r]);
                    prop_assert_eq!(estimate.to_bits(), model[t].estimate().to_bits());
                }
            }
            agree(&real[t], &model[t])?;
        }
    }

    /// Sets values and summaries (ascending vectors) agree with `BTreeSet`
    /// union, intersection, insertion and removal, duplicates included.
    #[test]
    fn set_values_match_btree_sets(
        a in prop::collection::vec(0u64..64, 0..40),
        b in prop::collection::vec(0u64..64, 0..40),
    ) {
        let (sa, sb): (BTreeSet<u64>, BTreeSet<u64>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let kind = MatchingSetKind::sets(64);
        let (mut na, mut nb) = (NodeSummary::empty(kind, SEED), NodeSummary::empty(kind, SEED));
        for &id in &a {
            na.insert(DocId(id));
        }
        for &id in &b {
            nb.insert(DocId(id));
        }
        prop_assert_eq!(&na, &NodeSummary::Set(sorted(&sa)));
        let union: BTreeSet<u64> = sa.union(&sb).copied().collect();
        let inter: BTreeSet<u64> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(na.union(&nb), NodeSummary::Set(sorted(&union)));
        prop_assert_eq!(na.intersection(&nb), NodeSummary::Set(sorted(&inter)));

        let (va, vb) = (SummaryValue::Set(sorted(&sa)), SummaryValue::Set(sorted(&sb)));
        prop_assert_eq!(va.union(&vb), SummaryValue::Set(sorted(&union)));
        prop_assert_eq!(va.clone().unite(vb.clone()), SummaryValue::Set(sorted(&union)));
        prop_assert_eq!(va.intersect(&vb), SummaryValue::Set(sorted(&inter)));
        prop_assert_eq!(va.intersect_units(&vb).to_bits(), (inter.len() as f64).to_bits());

        for &id in &b {
            na.remove(DocId(id));
        }
        let rest: BTreeSet<u64> = sa.difference(&sb).copied().collect();
        prop_assert_eq!(na, NodeSummary::Set(sorted(&rest)));
    }
}

/// An empty sample above level 0 sub-samples the other side of a union; the
/// level-0 empty sample leaves it as it is.
#[test]
fn only_the_level_zero_empty_sample_is_a_union_identity() {
    let mut full = DistinctSample::with_seed(64, SEED);
    for id in 0..40 {
        full.insert(DocId(id));
    }
    let mut raised = DistinctSample::with_seed(64, SEED);
    raised.subsample_to_level(2);
    let expect: Vec<u64> = (0..40).filter(|&d| sample_level(d, SEED) >= 2).collect();
    assert!(expect.len() < 40);
    for (left, right) in [
        (raised.clone(), full.clone()),
        (full.clone(), raised.clone()),
    ] {
        let united = SummaryValue::Hash(left).unite(SummaryValue::Hash(right));
        assert_eq!(ids_of(hash_of(&united)), expect);
        assert_eq!(hash_of(&united).level(), 2);
    }
    let empty = SummaryValue::Hash(DistinctSample::with_seed(64, SEED));
    let united = empty.unite(SummaryValue::Hash(full.clone()));
    assert_eq!(hash_of(&united), &full);
}
