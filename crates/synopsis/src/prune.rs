//! Synopsis pruning (Section 3.3 of the paper).
//!
//! Three operations keep the synopsis within a space budget:
//!
//! 1. **Folding leaf nodes** into their parents when their matching sets are
//!    similar. The folded child becomes part of the parent's *nested label*
//!    (`c[f][o[n]]` in Figure 3) and the parent's summary becomes the union
//!    of both. Folding identical-set leaves is lossless.
//! 2. **Deleting low-cardinality leaves**, the simplest operation and the
//!    main one available to the Counters representation.
//! 3. **Merging same-label nodes** with similar matching sets. Only leaf
//!    pairs, or non-leaf pairs that already share the same children, are
//!    merged (bottom-up, so no false label paths are introduced). The merged
//!    node keeps the *intersection* of the two summaries, preserving the
//!    parent-child inclusion property, and the synopsis becomes a DAG.
//!
//! [`Synopsis::prune_to_ratio`] applies them in the order the paper reports works best
//! (Section 5.2, "Compressed synopsis"): lossless folds first, then folds and
//! deletions of low-cardinality leaves, and finally same-label merges.

use std::collections::BTreeMap;

use crate::synopsis::{FoldedSubtree, Synopsis, SynopsisNodeId};

/// Tuning knobs for the pruning driver.
#[derive(Debug, Clone, Copy)]
pub struct PruneConfig {
    /// Similarity at or above which a parent-leaf pair is considered
    /// "identical" and folded losslessly in the first phase.
    pub identical_threshold: f64,
    /// Minimum similarity for a lossy fold in the second phase; below this
    /// the driver prefers deleting the lowest-cardinality leaf instead.
    pub fold_threshold: f64,
    /// Maximum number of candidate pairs evaluated per same-label group when
    /// searching for the best merge (keeps merge selection near-linear).
    pub merge_candidates_per_label: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self {
            identical_threshold: 0.999,
            fold_threshold: 0.5,
            merge_candidates_per_label: 64,
        }
    }
}

/// What a pruning run did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruneReport {
    /// `|HS|` before pruning.
    pub original_size: usize,
    /// `|HcS|` after pruning.
    pub final_size: usize,
    /// Number of leaves folded into parents.
    pub folds: usize,
    /// Number of leaves deleted.
    pub deletions: usize,
    /// Number of same-label merges performed.
    pub merges: usize,
}

impl PruneReport {
    /// The achieved compression ratio `α = |HcS| / |HS|`.
    pub fn ratio(&self) -> f64 {
        if self.original_size == 0 {
            1.0
        } else {
            self.final_size as f64 / self.original_size as f64
        }
    }
}

impl Synopsis {
    /// Fold every leaf whose matching set is (estimated to be) identical to
    /// its parent's. This is the lossless first phase of pruning. Returns the
    /// number of folds performed.
    pub fn fold_identical_leaves(&mut self, threshold: f64) -> usize {
        let mut folds = 0;
        loop {
            self.prepare();
            let victims: Vec<SynopsisNodeId> = self
                .live_nodes()
                .into_iter()
                .filter(|&id| {
                    id != self.root()
                        && self.is_leaf(id)
                        && self.average_parent_similarity(id) >= threshold
                })
                .collect();
            if victims.is_empty() {
                return folds;
            }
            for leaf in victims {
                if self.is_alive(leaf) && self.is_leaf(leaf) {
                    self.fold_leaf(leaf);
                    folds += 1;
                }
            }
        }
    }

    /// Fold the leaf with the highest parent similarity, provided it is at
    /// least `min_similarity`. Returns the folded leaf's similarity, or
    /// `None` when no eligible leaf exists.
    pub fn fold_best_leaf(&mut self, min_similarity: f64) -> Option<f64> {
        self.prepare();
        let mut best: Option<(SynopsisNodeId, f64)> = None;
        for id in self.live_nodes() {
            if id == self.root() || !self.is_leaf(id) {
                continue;
            }
            let sim = self.average_parent_similarity(id);
            if sim >= min_similarity && best.map(|(_, s)| sim > s).unwrap_or(true) {
                best = Some((id, sim));
            }
        }
        let (leaf, sim) = best?;
        self.fold_leaf(leaf);
        Some(sim)
    }

    /// Average similarity of a leaf's matching set to its parents' (the
    /// paper averages over all parents when merges have produced several).
    fn average_parent_similarity(&self, leaf: SynopsisNodeId) -> f64 {
        let parents = self.parents(leaf);
        if parents.is_empty() {
            return 0.0;
        }
        let leaf_value = self.matching_value(leaf);
        let total: f64 = parents
            .iter()
            .map(|&p| leaf_value.jaccard(&self.matching_value(p)))
            .sum();
        total / parents.len() as f64
    }

    /// Fold a leaf into all of its parents: the parent's nested label gains
    /// the leaf's label (and previously folded labels), the parent summary
    /// becomes the union of both, and the leaf is removed.
    pub fn fold_leaf(&mut self, leaf: SynopsisNodeId) {
        debug_assert!(self.is_leaf(leaf) && leaf != self.root());
        let folded = FoldedSubtree {
            label: self.nodes[leaf.index()].label.clone(),
            children: self.nodes[leaf.index()].folded.clone(),
        };
        let leaf_summary = self.nodes[leaf.index()].summary.clone();
        let parents = self.nodes[leaf.index()].parents.clone();
        for p in parents {
            let parent = &mut self.nodes[p.index()];
            if !parent.folded.contains(&folded) {
                parent.folded.push(folded.clone());
            }
            parent.summary = parent.summary.union(&leaf_summary);
        }
        self.delete_node(leaf);
        self.invalidate_cache();
    }

    /// Delete the live leaf with the smallest (estimated) matching-set
    /// cardinality. Returns the deleted node's estimated cardinality.
    pub fn delete_lowest_cardinality_leaf(&mut self) -> Option<f64> {
        self.prepare();
        let mut best: Option<(SynopsisNodeId, f64)> = None;
        for id in self.live_nodes() {
            if id == self.root() || !self.is_leaf(id) {
                continue;
            }
            let count = self.matching_value(id).count_units();
            if best.map(|(_, c)| count < c).unwrap_or(true) {
                best = Some((id, count));
            }
        }
        let (leaf, count) = best?;
        self.delete_node(leaf);
        Some(count)
    }

    /// Merge the best same-label candidate pair (highest estimated matching
    /// set similarity; of equally similar pairs, the one with the lowest node
    /// ids). Only leaf/leaf pairs or pairs sharing identical child sets are
    /// eligible. Returns the similarity of the merged pair.
    pub fn merge_best_same_label_pair(&mut self, candidates_per_label: usize) -> Option<f64> {
        self.prepare();
        let mut candidates = self.same_label_candidates(candidates_per_label);
        candidates.truncate(1);
        let (a, b, sim) = candidates.pop()?;
        self.merge_nodes(a, b);
        Some(sim)
    }

    /// The same-label merge candidates, most similar first and ties in node
    /// id order: per label, in label order, the nodes sorted by matching-set
    /// size (ties by id) so that the adjacent-pair heuristic compares nodes
    /// of similar cardinality, and at most `candidates_per_label` mergeable
    /// adjacent pairs. Both the grouping and the ordering are independent of
    /// hashing, so a prune is a function of the synopsis.
    fn same_label_candidates(
        &self,
        candidates_per_label: usize,
    ) -> Vec<(SynopsisNodeId, SynopsisNodeId, f64)> {
        let mut groups: BTreeMap<&str, Vec<SynopsisNodeId>> = BTreeMap::new();
        for id in self.live_nodes() {
            if id != self.root() {
                groups.entry(self.label(id)).or_default().push(id);
            }
        }
        let mut candidates = Vec::new();
        for group in groups.values().filter(|group| group.len() >= 2) {
            let mut with_counts: Vec<(SynopsisNodeId, f64)> = group
                .iter()
                .map(|&id| (id, self.matching_value(id).count_units()))
                .collect();
            with_counts.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let pairs = with_counts
                .windows(2)
                .map(|window| (window[0].0, window[1].0))
                .filter(|&(a, b)| self.mergeable(a, b))
                .take(candidates_per_label);
            for (a, b) in pairs {
                let sim = self.matching_value(a).jaccard(&self.matching_value(b));
                candidates.push((a, b, sim));
            }
        }
        candidates.sort_by(|x, y| y.2.total_cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
        candidates
    }

    /// Whether two same-label nodes can be merged without introducing false
    /// label paths: both are leaves, or they share exactly the same children.
    fn mergeable(&self, a: SynopsisNodeId, b: SynopsisNodeId) -> bool {
        if a == b || self.label(a) != self.label(b) {
            return false;
        }
        if self.is_leaf(a) && self.is_leaf(b) {
            return true;
        }
        let mut ca: Vec<SynopsisNodeId> = self.children(a).to_vec();
        let mut cb: Vec<SynopsisNodeId> = self.children(b).to_vec();
        if ca.is_empty() || cb.is_empty() {
            return false;
        }
        ca.sort();
        ca.dedup();
        cb.sort();
        cb.dedup();
        ca == cb
    }

    /// Merge node `b` into node `a` (same label, eligible per the private `mergeable` test).
    /// `a` keeps the intersection of the summaries and inherits `b`'s parents
    /// and folded labels; `b` is removed. The synopsis may become a DAG.
    pub fn merge_nodes(&mut self, a: SynopsisNodeId, b: SynopsisNodeId) {
        debug_assert!(self.mergeable(a, b), "nodes are not mergeable");
        // Summaries: intersection preserves the parent-child inclusion
        // property for every parent of the merged node.
        let merged_summary = self.nodes[a.index()]
            .summary
            .intersection(&self.nodes[b.index()].summary);
        self.nodes[a.index()].summary = merged_summary;
        // Folded labels: keep the union of both nested label sets.
        let b_folded = self.nodes[b.index()].folded.clone();
        for f in b_folded {
            if !self.nodes[a.index()].folded.contains(&f) {
                self.nodes[a.index()].folded.push(f);
            }
        }
        // Rewire b's parents to point at a.
        let b_parents = self.nodes[b.index()].parents.clone();
        for p in b_parents {
            let children = &mut self.nodes[p.index()].children;
            children.retain(|&c| c != b);
            if !children.contains(&a) {
                children.push(a);
            }
            if !self.nodes[a.index()].parents.contains(&p) {
                self.nodes[a.index()].parents.push(p);
            }
        }
        // Children already coincide (or both are leaves); drop b from their
        // parent lists.
        let b_children = self.nodes[b.index()].children.clone();
        for c in b_children {
            self.nodes[c.index()].parents.retain(|&p| p != b);
            if !self.nodes[c.index()].parents.contains(&a) {
                self.nodes[c.index()].parents.push(a);
            }
        }
        let node = &mut self.nodes[b.index()];
        node.alive = false;
        node.children.clear();
        node.parents.clear();
        node.folded.clear();
        self.invalidate_cache();
    }

    /// Batched variant of the fold phase: one scan per round, folding every
    /// leaf whose average parent similarity is at least `threshold`, until
    /// the size target is reached or no eligible leaf remains. Returns the
    /// number of folds performed.
    pub fn fold_leaves_above_until(&mut self, threshold: f64, target_size: usize) -> usize {
        let mut folds = 0;
        loop {
            if self.size().total() <= target_size {
                return folds;
            }
            self.prepare();
            let mut candidates: Vec<(SynopsisNodeId, f64)> = self
                .live_nodes()
                .into_iter()
                .filter(|&id| id != self.root() && self.is_leaf(id))
                .map(|id| (id, self.average_parent_similarity(id)))
                .filter(|&(_, sim)| sim >= threshold)
                .collect();
            if candidates.is_empty() {
                return folds;
            }
            // Most similar first, as the paper prescribes.
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (leaf, _) in candidates {
                if self.size().total() <= target_size {
                    return folds;
                }
                // A previous fold in this batch may have removed the node.
                if self.is_alive(leaf) && self.is_leaf(leaf) {
                    self.fold_leaf(leaf);
                    folds += 1;
                }
            }
        }
    }

    /// Batched deletion of low-cardinality leaves: one scan per round,
    /// deleting leaves in increasing cardinality order until the size target
    /// is reached or no leaf remains. Returns the number of deletions.
    pub fn delete_smallest_leaves_until(&mut self, target_size: usize) -> usize {
        let mut deletions = 0;
        loop {
            if self.size().total() <= target_size {
                return deletions;
            }
            self.prepare();
            let mut candidates: Vec<(SynopsisNodeId, f64)> = self
                .live_nodes()
                .into_iter()
                .filter(|&id| id != self.root() && self.is_leaf(id))
                .map(|id| (id, self.matching_value(id).count_units()))
                .collect();
            if candidates.is_empty() {
                return deletions;
            }
            candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut progressed = false;
            for (leaf, _) in candidates {
                if self.size().total() <= target_size {
                    return deletions;
                }
                if self.is_alive(leaf) && self.is_leaf(leaf) {
                    self.delete_node(leaf);
                    deletions += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return deletions;
            }
        }
    }

    /// Batched same-label merging: each round performs one scan that ranks
    /// candidate pairs across all labels (most similar first) and applies as
    /// many disjoint merges as possible, until the size target is reached or
    /// no pair remains. Returns the number of merges.
    pub fn merge_same_label_until(
        &mut self,
        candidates_per_label: usize,
        target_size: usize,
    ) -> usize {
        let mut merges = 0;
        loop {
            if self.size().total() <= target_size {
                return merges;
            }
            self.prepare();
            let candidates = self.same_label_candidates(candidates_per_label);
            if candidates.is_empty() {
                return merges;
            }
            let mut progressed = false;
            for (a, b, _) in candidates {
                if self.size().total() <= target_size {
                    return merges;
                }
                // Skip pairs invalidated by earlier merges in this round.
                if !self.is_alive(a) || !self.is_alive(b) || !self.mergeable(a, b) {
                    continue;
                }
                self.merge_nodes(a, b);
                merges += 1;
                progressed = true;
            }
            if !progressed {
                return merges;
            }
        }
    }

    /// Prune the synopsis until its size is at most `alpha` times its current
    /// size (`0 < alpha <= 1`), applying the operations in the order the
    /// paper found effective: lossless folds, then lossy folds and deletions
    /// of low-cardinality leaves, and finally same-label merges.
    pub fn prune_to_ratio(&mut self, alpha: f64, config: PruneConfig) -> PruneReport {
        let original_size = self.size().total();
        let target = (alpha.clamp(0.0, 1.0) * original_size as f64).ceil() as usize;
        let mut report = PruneReport {
            original_size,
            final_size: original_size,
            ..PruneReport::default()
        };

        // Phase 1: lossless folds (bounded by the target so that a ratio of
        // 1.0 leaves the synopsis untouched).
        report.folds += self.fold_leaves_above_until(config.identical_threshold, target);
        report.final_size = self.size().total();
        if report.final_size <= target {
            return report;
        }

        // Phase 2: lossy folds of highly similar leaves, then deletions of
        // the lowest-cardinality leaves.
        loop {
            let before = self.size().total();
            if before <= target {
                break;
            }
            let folds = self.fold_leaves_above_until(config.fold_threshold, target);
            report.folds += folds;
            if self.size().total() <= target {
                break;
            }
            let deletions = self.delete_smallest_leaves_until(target);
            report.deletions += deletions;
            if folds == 0 && deletions == 0 {
                break;
            }
        }
        report.final_size = self.size().total();
        if report.final_size <= target {
            return report;
        }

        // Phase 3: same-label merges.
        report.merges += self.merge_same_label_until(config.merge_candidates_per_label, target);
        report.final_size = self.size().total();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::MatchingSetKind;
    use crate::synopsis::SynopsisConfig;
    use tps_xml::XmlTree;

    fn docs(texts: &[&str]) -> Vec<XmlTree> {
        texts.iter().map(|s| XmlTree::parse(s).unwrap()).collect()
    }

    fn child_by_label(s: &Synopsis, parent: SynopsisNodeId, label: &str) -> SynopsisNodeId {
        *s.children(parent)
            .iter()
            .find(|&&c| s.label(c) == label)
            .unwrap_or_else(|| panic!("no child {label}"))
    }

    #[test]
    fn fold_identical_leaves_is_applied_to_mandatory_children() {
        // Every document with "a" also has "a/b": folding b into a is
        // lossless.
        let d = docs(&["<a><b/><c/></a>", "<a><b/></a>", "<a><b/><d/></a>"]);
        let mut s = Synopsis::from_documents(SynopsisConfig::sets(100), &d);
        let before_nodes = s.node_count();
        let folds = s.fold_identical_leaves(0.999);
        assert!(folds >= 1);
        assert!(s.node_count() < before_nodes);
        let a = child_by_label(&s, s.root(), "a");
        assert!(
            s.folded(a).iter().any(|f| f.label.as_ref() == "b"),
            "b should be folded into a's nested label"
        );
    }

    #[test]
    fn fold_leaf_unions_summaries() {
        let d = docs(&["<a><b/></a>", "<a><c/></a>"]);
        let mut s = Synopsis::from_documents(SynopsisConfig::sets(100), &d);
        let a = child_by_label(&s, s.root(), "a");
        let b = child_by_label(&s, a, "b");
        s.fold_leaf(b);
        // a's summary still covers both documents.
        assert_eq!(s.matching_value(a).count_units(), 2.0);
        assert!(!s.is_alive(b));
    }

    #[test]
    fn delete_lowest_cardinality_leaf_picks_the_rarest_path() {
        let d = docs(&[
            "<a><common/></a>",
            "<a><common/></a>",
            "<a><common/></a>",
            "<a><rare/></a>",
        ]);
        let mut s = Synopsis::from_documents(SynopsisConfig::counters(), &d);
        let deleted = s.delete_lowest_cardinality_leaf().unwrap();
        assert!(deleted <= 0.25 + 1e-9);
        let a = child_by_label(&s, s.root(), "a");
        assert!(s.children(a).iter().all(|&c| s.label(c) != "rare"));
    }

    #[test]
    fn merge_same_label_leaves_creates_a_dag() {
        // Two "name" leaves under different parents with identical matching
        // sets.
        let d = docs(&["<r><x><name/></x><y><name/></y></r>"; 3]);
        let mut s = Synopsis::from_documents(SynopsisConfig::sets(100), &d);
        let before = s.node_count();
        let sim = s.merge_best_same_label_pair(16).expect("a merge happens");
        assert!(sim > 0.99);
        assert_eq!(s.node_count(), before - 1);
        // The surviving "name" node has two parents.
        let name_nodes: Vec<_> = s
            .live_nodes()
            .into_iter()
            .filter(|&id| s.label(id) == "name")
            .collect();
        assert_eq!(name_nodes.len(), 1);
        assert_eq!(s.parents(name_nodes[0]).len(), 2);
    }

    #[test]
    fn merge_keeps_intersection_of_summaries() {
        let d = docs(&[
            "<r><x><name/></x></r>",
            "<r><y><name/></y></r>",
            "<r><x><name/></x><y><name/></y></r>",
        ]);
        let mut s = Synopsis::from_documents(SynopsisConfig::sets(100), &d);
        s.merge_best_same_label_pair(16).unwrap();
        let name = s
            .live_nodes()
            .into_iter()
            .find(|&id| s.label(id) == "name")
            .unwrap();
        // Only document 2 contains both name paths.
        assert_eq!(s.matching_value(name).count_units(), 1.0);
    }

    #[test]
    fn tied_merges_do_not_depend_on_the_process() {
        // Twelve labels, each on two leaves with equal matching sets: every
        // candidate pair ties at similarity 1. Each prune below groups its
        // candidates afresh, so an order taken from a hash map's seed would
        // pick different pairs on two clones of the same synopsis.
        let body: String = (0..12)
            .map(|i| format!("<x{i}><l{i}/></x{i}><y{i}><l{i}/></y{i}>"))
            .collect();
        let text = format!("<r>{body}</r>");
        let s = Synopsis::from_documents(SynopsisConfig::sets(100), &docs(&[text.as_str(); 3]));
        let pruned = |prune: &dyn Fn(&mut Synopsis)| {
            let mut copy = s.clone();
            prune(&mut copy);
            copy.live_nodes()
        };
        let best = |s: &mut Synopsis| {
            for _ in 0..4 {
                assert_eq!(s.merge_best_same_label_pair(16), Some(1.0));
            }
        };
        let batch = |s: &mut Synopsis| {
            let target = s.size().total() - 6;
            assert!(s.merge_same_label_until(16, target) >= 1);
        };
        for prune in [&best as &dyn Fn(&mut Synopsis), &batch] {
            let first = pruned(prune);
            assert!(first.len() < s.node_count());
            for _ in 0..4 {
                assert_eq!(pruned(prune), first);
            }
        }
    }

    #[test]
    fn mergeable_rejects_nodes_with_different_children() {
        let d = docs(&["<r><x><a/></x><y><b/></y></r>"]);
        let s = Synopsis::from_documents(SynopsisConfig::counters(), &d);
        // x and y have different labels anyway; check same-label non-leaves:
        // construct a case where two "x" nodes have different children.
        let d2 = docs(&["<r><g><x><a/></x></g><h><x><b/></x></h></r>"]);
        let mut s2 = Synopsis::from_documents(SynopsisConfig::counters(), &d2);
        // The only same-label candidates are the two x nodes, which are not
        // mergeable because their children differ (and are not leaves).
        assert!(s2.merge_best_same_label_pair(16).is_none());
        drop(s);
    }

    #[test]
    fn prune_to_ratio_reaches_the_target() {
        // A moderately rich synopsis.
        let mut texts = Vec::new();
        for i in 0..40 {
            texts.push(format!(
                "<a><b><e>k{}</e></b><c><f>n{}</f></c><d><g>m{}</g></d></a>",
                i % 7,
                i % 5,
                i % 3
            ));
        }
        let parsed: Vec<XmlTree> = texts.iter().map(|t| XmlTree::parse(t).unwrap()).collect();
        let mut s = Synopsis::from_documents(SynopsisConfig::hashes(32), &parsed);
        let original = s.size().total();
        let report = s.prune_to_ratio(0.4, PruneConfig::default());
        assert_eq!(report.original_size, original);
        assert!(
            report.final_size as f64 <= 0.45 * original as f64,
            "final {} vs original {}",
            report.final_size,
            original
        );
        assert!(report.folds + report.deletions + report.merges > 0);
        assert!(report.ratio() <= 0.45);
        // The synopsis is still usable: the root is alive and has children.
        assert!(s.is_alive(s.root()));
        assert!(s.document_count() > 0);
    }

    #[test]
    fn prune_to_ratio_one_only_does_lossless_folds() {
        let d = docs(&["<a><b/></a>", "<a><b/><c/></a>"]);
        let mut s = Synopsis::from_documents(SynopsisConfig::sets(10), &d);
        let report = s.prune_to_ratio(1.0, PruneConfig::default());
        assert_eq!(report.deletions, 0);
        assert_eq!(report.merges, 0);
    }

    #[test]
    fn counters_pruning_relies_on_deletions() {
        let d = docs(&[
            "<a><b/><x/></a>",
            "<a><b/><y/></a>",
            "<a><b/><z/></a>",
            "<a><b/></a>",
        ]);
        let mut s = Synopsis::from_documents(SynopsisConfig::counters(), &d);
        assert_eq!(s.kind(), MatchingSetKind::Counters);
        let report = s.prune_to_ratio(
            0.5,
            PruneConfig {
                // Disable lossy folds so the driver must delete.
                fold_threshold: 1.1,
                identical_threshold: 1.1,
                ..PruneConfig::default()
            },
        );
        assert!(report.deletions > 0);
    }

    #[test]
    fn prune_report_ratio_of_empty_synopsis_is_one() {
        let mut s = Synopsis::new(SynopsisConfig::counters());
        let report = s.prune_to_ratio(0.5, PruneConfig::default());
        assert!(report.ratio() >= 0.9);
    }
}
