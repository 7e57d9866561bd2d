//! Structural operations on tree patterns.
//!
//! The proximity metrics of Section 4 need the joint probability `P(p ∧ q)`,
//! which the paper computes "by simply merging the root nodes of p and q":
//! the conjunction pattern has a single `/.` root whose children are the
//! union of the root children of `p` and `q`. [`conjunction`] implements this
//! merge, and [`normalize`] removes duplicate sibling subtrees so repeated
//! conjunctions do not grow without bound.

use crate::pattern::{PatternLabel, PatternNodeId, TreePattern};

/// Build the conjunction `p ∧ q`: a pattern matched exactly by the documents
/// that match both `p` and `q` (root-merge of Section 4).
pub fn conjunction(p: &TreePattern, q: &TreePattern) -> TreePattern {
    let mut merged = TreePattern::new();
    let root = merged.root();
    for &child in p.children(p.root()) {
        merged.graft(root, p, child);
    }
    for &child in q.children(q.root()) {
        merged.graft(root, q, child);
    }
    normalize(&merged)
}

/// Build the conjunction of an arbitrary number of patterns.
pub fn conjunction_all<'a, I>(patterns: I) -> TreePattern
where
    I: IntoIterator<Item = &'a TreePattern>,
{
    let mut merged = TreePattern::new();
    let root = merged.root();
    for p in patterns {
        for &child in p.children(p.root()) {
            merged.graft(root, p, child);
        }
    }
    normalize(&merged)
}

/// Return a copy of `pattern` in which, at every node, duplicate child
/// subtrees (structurally identical modulo sibling order) are collapsed to a
/// single copy, and children are emitted in a canonical (sorted) order.
///
/// Normalisation preserves the matching semantics: requiring the same
/// sub-pattern twice at the same branching point is equivalent to requiring
/// it once. It is idempotent: duplicates are recognised bottom-up, by the
/// key of each child's *normal form*, so `b[c][c]` next to `b/c` is one
/// sibling after the first pass, not after the second.
pub fn normalize(pattern: &TreePattern) -> TreePattern {
    let keys = normal_keys(pattern);
    let mut steps = Vec::new();
    push_normalized(pattern, &keys, pattern.root(), pattern.root(), &mut steps);
    let mut out = TreePattern::new();
    out.append(&steps);
    out
}

/// Push the normalised children of `src_node` under `dst_node` onto
/// `steps`, in pre-order: step `k` becomes node `k + 1` of the output.
fn push_normalized<'p>(
    src: &'p TreePattern,
    keys: &[String],
    src_node: PatternNodeId,
    dst_node: PatternNodeId,
    steps: &mut Vec<(PatternNodeId, PatternLabel<'p>)>,
) {
    // Deduplicate children by canonical key and order them deterministically.
    let mut unique = src.children(src_node).to_vec();
    unique.sort_by(|a, b| keys[a.index()].cmp(&keys[b.index()]));
    unique.dedup_by(|a, b| keys[a.index()] == keys[b.index()]);
    for child in unique {
        steps.push((dst_node, src.label(child)));
        let copy = PatternNodeId(steps.len() as u32);
        push_normalized(src, keys, child, copy, steps);
    }
}

/// The canonical key of the normal form of every node's subtree, by node
/// index: the node's label and the keys of its children as a set (sorted,
/// duplicates dropped). Each key is built once.
fn normal_keys(pattern: &TreePattern) -> Vec<String> {
    let mut keys = vec![String::new(); pattern.node_count()];
    // A child is added after its parent and has the larger index: walking
    // the indices downwards meets every child before its parent.
    for index in (0..keys.len()).rev() {
        let node = PatternNodeId(index as u32);
        let mut child_keys: Vec<&str> = pattern
            .children(node)
            .iter()
            .map(|c| keys[c.index()].as_str())
            .collect();
        child_keys.sort_unstable();
        child_keys.dedup();
        keys[index] = format!("{}({})", pattern.label(node), child_keys.join(","));
    }
    keys
}

/// Canonical key of the normal form of the subtree rooted at `node`: equal
/// for subtrees that are equal modulo sibling order and duplicate branches.
pub fn subtree_key(pattern: &TreePattern, node: PatternNodeId) -> String {
    normal_keys(pattern).swap_remove(node.index())
}

/// Summary statistics of a pattern, used by the workload generator and the
/// experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternStats {
    /// Total number of nodes including the root.
    pub node_count: usize,
    /// Height (longest root-to-leaf path, excluding the root).
    pub height: usize,
    /// Number of `*` nodes.
    pub wildcards: usize,
    /// Number of `//` nodes.
    pub descendants: usize,
    /// Number of nodes with two or more children.
    pub branches: usize,
}

/// Compute [`PatternStats`] for a pattern.
pub fn stats(pattern: &TreePattern) -> PatternStats {
    PatternStats {
        node_count: pattern.node_count(),
        height: pattern.height(),
        wildcards: pattern.wildcard_count(),
        descendants: pattern.descendant_count(),
        branches: pattern.branching_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreePattern;
    use tps_xml::XmlTree;

    fn pat(s: &str) -> TreePattern {
        TreePattern::parse(s).unwrap()
    }

    #[test]
    fn conjunction_has_all_root_branches() {
        let p = pat("/a/b");
        let q = pat("//c");
        let both = conjunction(&p, &q);
        assert_eq!(both.children(both.root()).len(), 2);
    }

    #[test]
    fn conjunction_matches_iff_both_match() {
        let docs = [
            "<a><b/><c/></a>",
            "<a><b/></a>",
            "<a><c/></a>",
            "<x><c/></x>",
        ];
        let p = pat("/a/b");
        let q = pat("//c");
        let both = conjunction(&p, &q);
        for text in docs {
            let doc = XmlTree::parse(text).unwrap();
            assert_eq!(
                both.matches(&doc),
                p.matches(&doc) && q.matches(&doc),
                "conjunction semantics violated on {text}"
            );
        }
    }

    #[test]
    fn conjunction_with_bare_root_is_identity_up_to_normalisation() {
        let p = pat("/a[b][c]");
        let top = pat("/.");
        let both = conjunction(&p, &top);
        assert_eq!(both, normalize(&p));
    }

    #[test]
    fn conjunction_with_itself_normalises_to_itself() {
        let p = pat("/a[b][c//d]");
        let both = conjunction(&p, &p);
        assert_eq!(both, normalize(&p));
    }

    #[test]
    fn conjunction_all_over_three_patterns() {
        let p = pat("/a/b");
        let q = pat("//c");
        let r = pat("/a/d");
        let all = conjunction_all([&p, &q, &r]);
        let doc = XmlTree::parse("<a><b/><d/><e><c/></e></a>").unwrap();
        assert!(all.matches(&doc));
        let doc2 = XmlTree::parse("<a><b/><d/></a>").unwrap();
        assert!(!all.matches(&doc2));
    }

    #[test]
    fn normalize_removes_duplicate_branches() {
        let p = pat("/a[b][b][c]");
        let n = normalize(&p);
        let a = n.children(n.root())[0];
        assert_eq!(n.children(a).len(), 2);
    }

    #[test]
    fn normalize_is_idempotent() {
        let p = pat("/a[c][b][b//x]");
        let n1 = normalize(&p);
        let n2 = normalize(&n1);
        assert_eq!(n1, n2);
    }

    #[test]
    fn normalize_collapses_siblings_that_are_equal_only_once_normalised() {
        // Regression: siblings used to be compared by the key of their
        // un-normalised subtrees, so the first pass kept `b[c][c]` next to
        // `b/c` and only a second pass merged them. The engine registers
        // `normalize(p)` and later compiles `normalize(conjunction(p, q))`,
        // which then asked its interner for a subtree it had never seen.
        let p = pat("/a[b[c][c]][b/c]");
        let once = normalize(&p);
        assert_eq!(once, pat("/a/b/c"));
        assert_eq!(normalize(&once), once);
        assert_eq!(conjunction(&p, &p), once);
    }

    #[test]
    fn normalize_preserves_matching_on_examples() {
        let p = pat("/a[b][b][c/d]");
        let n = normalize(&p);
        for text in [
            "<a><b/><c><d/></c></a>",
            "<a><b/></a>",
            "<a><c><d/></c></a>",
        ] {
            let doc = XmlTree::parse(text).unwrap();
            assert_eq!(p.matches(&doc), n.matches(&doc));
        }
    }

    #[test]
    fn stats_reports_counts() {
        let p = pat("/a[b//c][*]/d");
        let s = stats(&p);
        assert_eq!(s.wildcards, 1);
        assert_eq!(s.descendants, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.node_count, p.node_count());
        assert_eq!(s.height, p.height());
    }

    #[test]
    fn subtree_key_is_order_insensitive() {
        let p = pat("/a[b][c]");
        let q = pat("/a[c][b]");
        assert_eq!(subtree_key(&p, p.root()), subtree_key(&q, q.root()));
    }
}
