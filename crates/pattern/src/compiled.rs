//! Evaluation-friendly compiled form of a tree pattern.
//!
//! Selectivity engines evaluate the recursive `SEL` function over *subtrees*
//! of a pattern: `SEL(v, u)` depends only on the synopsis node `v` and the
//! structure of the pattern subtree rooted at `u`. Two pattern nodes with the
//! same canonical subtree therefore always produce the same value — even
//! across *different* patterns. [`CompiledPattern`] makes that sharing cheap:
//! it normalises the pattern once and tags every node with an interned
//! [`SubtreeKeyId`] for its canonical subtree, so an engine can key its
//! memoisation table by `(synopsis node, subtree key)`, and cache the value
//! of a root branch by its key, across an entire registered workload.

use std::collections::HashMap;

use crate::ops;
use crate::pattern::{PatternNodeId, TreePattern};

/// Identifier of an interned canonical pattern subtree.
///
/// Equal ids (from the same [`SubtreeInterner`]) mean structurally identical
/// subtrees, hence identical `SEL` values against any synopsis node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubtreeKeyId(u32);

impl SubtreeKeyId {
    /// Reserved id carried by pattern *root* nodes, which are never interned:
    /// `SEL` is only ever evaluated at root *children* and below.
    pub const UNKEYED: SubtreeKeyId = SubtreeKeyId(u32::MAX);

    /// The dense interner index of this key.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interner mapping canonical subtree keys to dense [`SubtreeKeyId`]s.
///
/// One interner is shared by every pattern compiled for the same engine, so
/// that common subscription fragments (shared prefixes, shared branches)
/// collapse to the same id.
#[derive(Debug, Clone, Default)]
pub struct SubtreeInterner {
    ids: HashMap<Box<str>, u32>,
}

impl SubtreeInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `key`, returning its stable dense id.
    pub fn intern(&mut self, key: &str) -> SubtreeKeyId {
        if let Some(&id) = self.ids.get(key) {
            return SubtreeKeyId(id);
        }
        let id = self.ids.len() as u32;
        debug_assert!(id != u32::MAX, "subtree interner exhausted");
        self.ids.insert(key.into(), id);
        SubtreeKeyId(id)
    }

    /// Number of distinct subtrees interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A [`TreePattern`] pre-compiled for repeated evaluation.
///
/// Compilation [`normalize`](ops::normalize)s the pattern (duplicate sibling
/// subtrees collapsed, children in canonical order) and computes one
/// [`SubtreeKeyId`] per node via the shared [`SubtreeInterner`].
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    pattern: TreePattern,
    node_keys: Vec<SubtreeKeyId>,
    canonical: Box<str>,
}

impl CompiledPattern {
    /// Compile `source`, interning its subtree keys through `interner`.
    ///
    /// The root node is left [`SubtreeKeyId::UNKEYED`]: its canonical key is
    /// still computed (for [`CompiledPattern::canonical_key`]) but not
    /// interned.
    pub fn compile(source: &TreePattern, interner: &mut SubtreeInterner) -> Self {
        let pattern = ops::normalize(source);
        let mut node_keys = vec![SubtreeKeyId::UNKEYED; pattern.node_count()];
        let root = pattern.root();
        let child_keys = pattern
            .children(root)
            .iter()
            .map(|&c| intern_nodes(&pattern, c, interner, &mut node_keys))
            .collect();
        let canonical = subtree_key(pattern.label(root), child_keys);
        Self {
            pattern,
            node_keys,
            canonical: canonical.into(),
        }
    }

    /// The normalised pattern this compiled form evaluates.
    pub fn pattern(&self) -> &TreePattern {
        &self.pattern
    }

    /// The canonical key of the whole pattern (equal for patterns that are
    /// equal modulo sibling order and duplicate branches).
    pub fn canonical_key(&self) -> &str {
        &self.canonical
    }

    /// The interned key of the subtree rooted at `id`
    /// ([`SubtreeKeyId::UNKEYED`] for the root, which is never evaluated).
    pub fn node_key(&self, id: PatternNodeId) -> SubtreeKeyId {
        self.node_keys[id.index()]
    }

    /// Number of nodes in the (normalised) pattern.
    pub fn node_count(&self) -> usize {
        self.pattern.node_count()
    }
}

/// The canonical textual key of a subtree: its label followed by the
/// sorted, comma-joined keys of its children (the same notation as
/// [`TreePattern::canonical_key`]).
fn subtree_key(label: impl std::fmt::Display, mut child_keys: Vec<String>) -> String {
    child_keys.sort();
    format!("{}({})", label, child_keys.join(","))
}

/// Recursively compute the canonical key of every node and intern it.
/// Returns the textual key of `id`.
fn intern_nodes(
    pattern: &TreePattern,
    id: PatternNodeId,
    interner: &mut SubtreeInterner,
    node_keys: &mut [SubtreeKeyId],
) -> String {
    let child_keys = pattern
        .children(id)
        .iter()
        .map(|&c| intern_nodes(pattern, c, interner, node_keys))
        .collect();
    let key = subtree_key(pattern.label(id), child_keys);
    node_keys[id.index()] = interner.intern(&key);
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(s: &str) -> TreePattern {
        TreePattern::parse(s).unwrap()
    }

    #[test]
    fn compilation_normalises_and_keeps_the_canonical_key() {
        let mut interner = SubtreeInterner::new();
        let compiled = CompiledPattern::compile(&pat("/a[b][b][c]"), &mut interner);
        assert_eq!(compiled.pattern(), &pat("/a[c][b]"));
        assert_eq!(compiled.canonical_key(), pat("/a[b][c]").canonical_key());
    }

    #[test]
    fn identical_subtrees_share_key_ids_across_patterns() {
        let mut interner = SubtreeInterner::new();
        let p = CompiledPattern::compile(&pat("/a/b/c"), &mut interner);
        let q = CompiledPattern::compile(&pat("/x/b/c"), &mut interner);
        // The b/c tails are identical subtrees.
        let p_a = p.pattern().children(p.pattern().root())[0];
        let q_x = q.pattern().children(q.pattern().root())[0];
        let p_b = p.pattern().children(p_a)[0];
        let q_b = q.pattern().children(q_x)[0];
        assert_eq!(p.node_key(p_b), q.node_key(q_b));
        // But the top branches (a vs x) differ.
        assert_ne!(p.node_key(p_a), q.node_key(q_x));
        // Roots are never interned.
        assert_eq!(p.node_key(p.pattern().root()), SubtreeKeyId::UNKEYED);
    }

    #[test]
    fn sibling_order_does_not_change_key_ids() {
        let mut interner = SubtreeInterner::new();
        let p = CompiledPattern::compile(&pat("/a[b][c//d]"), &mut interner);
        let q = CompiledPattern::compile(&pat("/a[c//d][b]"), &mut interner);
        let p_a = p.pattern().children(p.pattern().root())[0];
        let q_a = q.pattern().children(q.pattern().root())[0];
        assert_eq!(p.node_key(p_a), q.node_key(q_a));
        assert_eq!(p.canonical_key(), q.canonical_key());
    }

    #[test]
    fn conjunctions_of_compiled_operands_add_no_interner_entries() {
        let mut interner = SubtreeInterner::new();
        let p = pat("/a[b][c//d]");
        let q = pat("//e/f");
        CompiledPattern::compile(&p, &mut interner);
        CompiledPattern::compile(&q, &mut interner);
        let before = interner.len();
        let both = crate::ops::conjunction(&p, &q);
        CompiledPattern::compile(&both, &mut interner);
        assert_eq!(
            interner.len(),
            before,
            "a conjunction's non-root subtrees are copies of its operands'"
        );
    }

    #[test]
    fn interner_deduplicates() {
        let mut interner = SubtreeInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern("a()");
        let b = interner.intern("b()");
        assert_ne!(a, b);
        assert_eq!(interner.intern("a()"), a);
        assert_eq!(interner.len(), 2);
    }
}
