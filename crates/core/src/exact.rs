//! Exact (ground-truth) selectivity and similarity over a stored document
//! collection.
//!
//! The evaluation section of the paper compares estimated selectivities and
//! similarities against exact values computed by matching every pattern
//! against every document of the data set `D` (`P(p) = |Dp| / |D|`,
//! `P(p ∧ q) = |Dp ∩ Dq| / |D|`). This module provides that reference
//! implementation; it is also what a broker without space constraints would
//! run.

use std::collections::BTreeSet;

use tps_pattern::TreePattern;
use tps_xml::XmlTree;

use crate::matrix::SimMatrix;
use crate::metrics::ProximityMetric;

/// Exact selectivity evaluation over an in-memory document collection.
#[derive(Debug, Clone, Default)]
pub struct ExactEvaluator {
    documents: Vec<XmlTree>,
}

impl ExactEvaluator {
    /// Create an evaluator over the given documents.
    pub fn new(documents: Vec<XmlTree>) -> Self {
        Self { documents }
    }

    /// Create an empty evaluator.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Add one document.
    pub fn add_document(&mut self, document: XmlTree) {
        self.documents.push(document);
    }

    /// Number of stored documents.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// The stored documents.
    pub fn documents(&self) -> &[XmlTree] {
        &self.documents
    }

    /// Indices of the documents that match `pattern` (the paper's `Dp`).
    pub fn matching_documents(&self, pattern: &TreePattern) -> BTreeSet<usize> {
        self.documents
            .iter()
            .enumerate()
            .filter(|(_, d)| pattern.matches(d))
            .map(|(i, _)| i)
            .collect()
    }

    /// Exact selectivity `P(p) = |Dp| / |D|`.
    pub fn selectivity(&self, pattern: &TreePattern) -> f64 {
        if self.documents.is_empty() {
            return 0.0;
        }
        self.matching_documents(pattern).len() as f64 / self.documents.len() as f64
    }

    /// Exact joint selectivity `P(p ∧ q) = |Dp ∩ Dq| / |D|`.
    pub fn joint_selectivity(&self, p: &TreePattern, q: &TreePattern) -> f64 {
        if self.documents.is_empty() {
            return 0.0;
        }
        let dp = self.matching_documents(p);
        let dq = self.matching_documents(q);
        dp.intersection(&dq).count() as f64 / self.documents.len() as f64
    }

    /// Exact similarity of `p` and `q` under `metric`.
    pub fn similarity(&self, p: &TreePattern, q: &TreePattern, metric: ProximityMetric) -> f64 {
        metric.compute(
            self.selectivity(p),
            self.selectivity(q),
            self.joint_selectivity(p, q),
        )
    }

    /// All-pairs exact similarity matrix of `patterns` under `metric` — the
    /// ground truth beside [`SimilarityEngine::similarity_matrix`].
    ///
    /// Each pattern is matched against the collection once; entry `(i, j)`
    /// equals [`ExactEvaluator::similarity`] of `patterns[i]` and
    /// `patterns[j]` bit for bit. Asymmetric metrics compute both
    /// directions.
    ///
    /// [`SimilarityEngine::similarity_matrix`]: crate::SimilarityEngine::similarity_matrix
    pub fn similarity_matrix(
        &self,
        patterns: &[TreePattern],
        metric: ProximityMetric,
    ) -> SimMatrix {
        let matched: Vec<BTreeSet<usize>> = patterns
            .iter()
            .map(|p| self.matching_documents(p))
            .collect();
        let share = |count: usize| {
            if self.documents.is_empty() {
                0.0
            } else {
                count as f64 / self.documents.len() as f64
            }
        };
        SimMatrix::from_selectivities(patterns.len(), metric, |i, j| {
            let joint = matched[i].intersection(&matched[j]).count();
            Some([
                share(matched[i].len()),
                share(matched[j].len()),
                share(joint),
            ])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<XmlTree> {
        [
            "<a><b/><c/></a>",
            "<a><b/></a>",
            "<a><c/></a>",
            "<x><b/></x>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect()
    }

    fn pat(s: &str) -> TreePattern {
        TreePattern::parse(s).unwrap()
    }

    #[test]
    fn selectivity_counts_matching_documents() {
        let ev = ExactEvaluator::new(docs());
        assert_eq!(ev.document_count(), 4);
        assert!((ev.selectivity(&pat("/a")) - 0.75).abs() < 1e-12);
        assert!((ev.selectivity(&pat("//b")) - 0.75).abs() < 1e-12);
        assert_eq!(ev.selectivity(&pat("/zzz")), 0.0);
    }

    #[test]
    fn joint_selectivity_is_intersection() {
        let ev = ExactEvaluator::new(docs());
        let joint = ev.joint_selectivity(&pat("/a/b"), &pat("/a/c"));
        assert!((joint - 0.25).abs() < 1e-12);
    }

    #[test]
    fn matching_documents_returns_indices() {
        let ev = ExactEvaluator::new(docs());
        let m = ev.matching_documents(&pat("/a/b"));
        assert_eq!(m.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn similarity_uses_the_selected_metric() {
        let ev = ExactEvaluator::new(docs());
        let p = pat("/a/b");
        let q = pat("/a/c");
        // P(p)=0.5, P(q)=0.5, P(p∧q)=0.25.
        assert!((ev.similarity(&p, &q, ProximityMetric::M1) - 0.5).abs() < 1e-12);
        assert!((ev.similarity(&p, &q, ProximityMetric::M2) - 0.5).abs() < 1e-12);
        assert!((ev.similarity(&p, &q, ProximityMetric::M3) - 0.25 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluator_returns_zero() {
        let ev = ExactEvaluator::empty();
        assert_eq!(ev.selectivity(&pat("/a")), 0.0);
        assert_eq!(ev.joint_selectivity(&pat("/a"), &pat("/b")), 0.0);
    }

    #[test]
    fn add_document_extends_the_collection() {
        let mut ev = ExactEvaluator::empty();
        ev.add_document(XmlTree::parse("<a><b/></a>").unwrap());
        assert_eq!(ev.document_count(), 1);
        assert_eq!(ev.selectivity(&pat("/a/b")), 1.0);
        assert_eq!(ev.documents().len(), 1);
    }

    #[test]
    fn identical_patterns_have_exact_similarity_one() {
        let ev = ExactEvaluator::new(docs());
        let p = pat("//b");
        for m in ProximityMetric::all() {
            assert!((ev.similarity(&p, &p, m) - 1.0).abs() < 1e-12);
        }
    }
}
