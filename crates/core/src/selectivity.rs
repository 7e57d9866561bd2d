//! The recursive selectivity algorithm (Algorithms 1 and 2 of the paper).
//!
//! `SEL(v, u)` parses pattern nodes `u` against synopsis nodes `v` and
//! returns (an approximation of) the set of documents whose subtree at `v`
//! satisfies the sub-pattern rooted at `u`:
//!
//! ```text
//! 1: if label(v) not compatible with label(u):  SEL(v,u) = ∅
//! 2: else if u is a leaf:                        SEL(v,u) = S(v)
//! 3: else if label(u) ≠ //:
//! 4:     SEL(v,u) = ⋂_{u'∈Children(u)} ⋃_{v'∈Children(v)} SEL(v',u')
//! 5: else (label(u) = //):
//! 6:     S0  = ⋂_{u'∈Children(u)} SEL(v,u')        (path of length 0)
//! 7:     S≥1 = ⋃_{v'∈Children(v)} SEL(v',u)        (descend one level)
//! 8:     SEL(v,u) = S0 ∪ S≥1
//! ```
//!
//! The values are [`SummaryValue`]s, so the same code covers the three
//! matching-set representations: sets/hash-samples use genuine set algebra;
//! counters use the max/product substitution described at the end of
//! Section 4.
//!
//! Two extensions beyond the paper's pseudo-code are needed for a complete
//! system:
//!
//! * **memoisation** of `(v, u)` pairs, which the paper mentions in prose to
//!   obtain the `O(|HS|·|p|)` bound, and
//! * support for **folded nested labels** produced by the pruning operations
//!   of Section 3.3: a pattern child that cannot be matched by a real
//!   synopsis child may still be satisfied by a label folded into `v`, in
//!   which case its document set is (approximated by) `S(v)`.
//!
//! [`SelectivityEstimator`] runs this recursion as written: no step skips a
//! subtree and nothing is cached between calls. It is the reference the
//! engine's shortcuts (cached root-branch values, skipped synopsis
//! subtrees) are held against bit for bit.

use tps_pattern::{CompiledPattern, SubtreeInterner, TreePattern};
use tps_synopsis::{SummaryValue, Synopsis};

use crate::eval::{self, SelEvaluator, SelMemo, ValueSource};

/// Selectivity estimation over a [`Synopsis`].
///
/// Borrows the synopsis immutably; build one estimator and evaluate as many
/// patterns as needed. For the Hashes representation, calling
/// [`Synopsis::prepare`] beforehand caches the per-node full matching sets
/// and makes repeated evaluations much faster.
///
/// Every call compiles the pattern and evaluates it from scratch, unpruned;
/// nothing is shared between calls. For workloads that evaluate many
/// patterns against the same synopsis, prefer [`crate::SimilarityEngine`],
/// which registers patterns once and caches root-branch values and
/// selectivities across the whole batch.
#[derive(Debug, Clone, Copy)]
pub struct SelectivityEstimator<'a> {
    synopsis: &'a Synopsis,
}

impl<'a> SelectivityEstimator<'a> {
    /// Create an estimator over `synopsis`.
    pub fn new(synopsis: &'a Synopsis) -> Self {
        Self { synopsis }
    }

    /// The underlying synopsis.
    pub fn synopsis(&self) -> &'a Synopsis {
        self.synopsis
    }

    /// Estimate `P(p)`: the fraction of observed documents that match `p`
    /// (Algorithm 2). The result is clamped to `[0, 1]`.
    pub fn selectivity(&self, pattern: &TreePattern) -> f64 {
        let universe = self.synopsis.universe_value().count_units();
        eval::selectivity(self.evaluate(pattern).count_units(), universe)
    }

    /// Estimate the joint selectivity `P(p ∧ q)` by evaluating the root-merge
    /// of the two patterns (Section 4).
    pub fn joint_selectivity(&self, p: &TreePattern, q: &TreePattern) -> f64 {
        let conjunction = tps_pattern::ops::conjunction(p, q);
        self.selectivity(&conjunction)
    }

    /// Run `SEL` on the root nodes and return the raw document-set value.
    ///
    /// The pattern is normalised first (duplicate sibling subtrees collapse
    /// to one), so requiring the same branch twice does not double-count it.
    pub fn evaluate(&self, pattern: &TreePattern) -> SummaryValue {
        let mut interner = SubtreeInterner::new();
        let compiled = CompiledPattern::compile(pattern, &mut interner);
        let mut memo = SelMemo::default();
        SelEvaluator::new(self.synopsis, ValueSource::Direct, &mut memo).evaluate(&compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_synopsis::SynopsisConfig;
    use tps_xml::XmlTree;

    /// The six documents of Figure 2.
    fn figure2_documents() -> Vec<XmlTree> {
        [
            "<a><b><e><k/></e><e><m/></e><g><m/></g></b></a>",
            "<a><b><e><k/></e><g><k/><n/></g><f><n/></f></b></a>",
            "<a><b><e><k/></e><g><n/></g></b><c><f><n/></f><o><n/></o><f><h/></f></c></a>",
            "<a><c><f><k/></f><o><n/></o><e><m/></e><h/></c><d><e><k/></e><q><m/></q></d></a>",
            "<a><d><e><k/></e><e><m/></e><p/></d></a>",
            "<a><d><e><m/></e></d></a>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect()
    }

    fn pat(s: &str) -> TreePattern {
        TreePattern::parse(s).unwrap()
    }

    fn exact_fraction(docs: &[XmlTree], p: &TreePattern) -> f64 {
        docs.iter().filter(|d| p.matches(d)).count() as f64 / docs.len() as f64
    }

    #[test]
    fn exact_representations_reproduce_true_selectivity() {
        // With a lossless synopsis (Sets with a huge reservoir, or Hashes with
        // huge capacity), the estimate must equal the exact fraction for
        // branching and descendant patterns alike.
        let docs = figure2_documents();
        let patterns = [
            "/a",
            "/a/b",
            "/a/b/e/k",
            "/a[b][d]",
            "/a[c/f][c/o]",
            "//n",
            "//e/m",
            "/a//k",
            "/a/*/e",
            "/a[d/e/m]",
            "//g[m]",
            "/x",
            "/a/z",
            ".[//k][//m]",
        ];
        for config in [SynopsisConfig::sets(1000), SynopsisConfig::hashes(1000)] {
            let mut synopsis = Synopsis::from_documents(config, &docs);
            synopsis.prepare();
            let est = SelectivityEstimator::new(&synopsis);
            for p_text in patterns {
                let p = pat(p_text);
                let expected = exact_fraction(&docs, &p);
                let got = est.selectivity(&p);
                assert!(
                    (got - expected).abs() < 1e-9,
                    "{p_text}: expected {expected}, got {got} ({:?})",
                    config.kind
                );
            }
        }
    }

    #[test]
    fn counter_mode_matches_paper_example_for_mutually_exclusive_branches() {
        // Section 3.2: counters estimate P(a[b][d]) as 1/2 * 1/2 = 1/4 even
        // though the true value is 0.
        let docs = figure2_documents();
        let synopsis = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let est = SelectivityEstimator::new(&synopsis);
        let p = pat("/a[b][d]");
        assert!((est.selectivity(&p) - 0.25).abs() < 1e-9);
        assert_eq!(exact_fraction(&docs, &p), 0.0);
    }

    #[test]
    fn counter_mode_underestimates_correlated_branches() {
        // Section 3.2: P(a[c/f][c/o]) is under-estimated by counters (the
        // true value is 1/3 because f and o co-occur under c).
        let docs = figure2_documents();
        let synopsis = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let est = SelectivityEstimator::new(&synopsis);
        let p = pat("/a[c/f][c/o]");
        let counters_estimate = est.selectivity(&p);
        let truth = exact_fraction(&docs, &p);
        assert!((truth - 1.0 / 3.0).abs() < 1e-9);
        assert!(
            counters_estimate < truth,
            "counters ({counters_estimate}) should under-estimate {truth}"
        );
    }

    #[test]
    fn hash_mode_captures_cross_pattern_correlations() {
        // The same two queries evaluated with hash samples should be exact
        // here (small stream, large capacity).
        let docs = figure2_documents();
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::hashes(100), &docs);
        synopsis.prepare();
        let est = SelectivityEstimator::new(&synopsis);
        assert!((est.selectivity(&pat("/a[b][d]")) - 0.0).abs() < 1e-9);
        assert!((est.selectivity(&pat("/a[c/f][c/o]")) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn negative_queries_evaluate_to_zero() {
        let docs = figure2_documents();
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(100),
            SynopsisConfig::hashes(100),
        ] {
            let synopsis = Synopsis::from_documents(config, &docs);
            let est = SelectivityEstimator::new(&synopsis);
            for p_text in ["/zzz", "/a/zzz", "//zzz", "/a[b][zzz]", "/b/a"] {
                assert_eq!(
                    est.selectivity(&pat(p_text)),
                    0.0,
                    "{p_text} should be a negative query"
                );
            }
        }
    }

    #[test]
    fn bare_root_has_selectivity_one() {
        let docs = figure2_documents();
        let synopsis = Synopsis::from_documents(SynopsisConfig::hashes(100), &docs);
        let est = SelectivityEstimator::new(&synopsis);
        assert_eq!(est.selectivity(&pat("/.")), 1.0);
    }

    #[test]
    fn empty_synopsis_gives_zero_selectivity() {
        let synopsis = Synopsis::new(SynopsisConfig::hashes(16));
        let est = SelectivityEstimator::new(&synopsis);
        assert_eq!(est.selectivity(&pat("/a")), 0.0);
    }

    #[test]
    fn joint_selectivity_equals_selectivity_of_conjunction() {
        let docs = figure2_documents();
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::hashes(100), &docs);
        synopsis.prepare();
        let est = SelectivityEstimator::new(&synopsis);
        let p = pat("/a/b");
        let q = pat("//n");
        let joint = est.joint_selectivity(&p, &q);
        let exact =
            docs.iter().filter(|d| p.matches(d) && q.matches(d)).count() as f64 / docs.len() as f64;
        assert!((joint - exact).abs() < 1e-9);
    }

    #[test]
    fn descendant_matches_empty_path() {
        // /a//e : e directly below a's children... and /a//a should match
        // documents whose root is a (empty descendant path).
        let docs = figure2_documents();
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::sets(100), &docs);
        synopsis.prepare();
        let est = SelectivityEstimator::new(&synopsis);
        assert_eq!(est.selectivity(&pat("//a")), 1.0);
        let expected = exact_fraction(&docs, &pat("/a//e"));
        assert!((est.selectivity(&pat("/a//e")) - expected).abs() < 1e-9);
    }

    #[test]
    fn folded_labels_still_satisfy_patterns() {
        // Fold the mandatory child "b" into "a"; /a/b must still evaluate to
        // (approximately) the documents of S(a).
        let docs: Vec<XmlTree> = ["<a><b/><c/></a>", "<a><b/></a>", "<a><b/><d/></a>"]
            .iter()
            .map(|s| XmlTree::parse(s).unwrap())
            .collect();
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::sets(100), &docs);
        let folds = synopsis.fold_identical_leaves(0.999);
        assert!(folds >= 1);
        synopsis.prepare();
        let est = SelectivityEstimator::new(&synopsis);
        assert!((est.selectivity(&pat("/a/b")) - 1.0).abs() < 1e-9);
        assert!((est.selectivity(&pat("//b")) - 1.0).abs() < 1e-9);
        assert!((est.selectivity(&pat("/a[b][c]")) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn estimates_survive_heavy_pruning() {
        let docs = figure2_documents();
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::hashes(100), &docs);
        synopsis.prune_to_ratio(0.5, tps_synopsis::PruneConfig::default());
        synopsis.prepare();
        let est = SelectivityEstimator::new(&synopsis);
        for p_text in ["/a", "/a/b", "//n", "/a[b][d]"] {
            let sel = est.selectivity(&pat(p_text));
            assert!((0.0..=1.0).contains(&sel), "{p_text} out of range: {sel}");
        }
        // The root path is always preserved.
        assert_eq!(est.selectivity(&pat("/a")), 1.0);
    }

    #[test]
    fn wildcard_branches_combine_correctly() {
        let docs = figure2_documents();
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::sets(100), &docs);
        synopsis.prepare();
        let est = SelectivityEstimator::new(&synopsis);
        for p_text in ["/a/*[e][g]", "/*/b", "/*[d]"] {
            let p = pat(p_text);
            let expected = exact_fraction(&docs, &p);
            assert!(
                (est.selectivity(&p) - expected).abs() < 1e-9,
                "{p_text}: expected {expected}, got {}",
                est.selectivity(&p)
            );
        }
    }
}
