//! The tree-pattern data structure.
//!
//! # Representation
//!
//! A [`TreePattern`] is one shared, immutable allocation holding three
//! buffers:
//!
//! * a node array: per node, its label kind, its parent, the range of its
//!   tag in the text buffer and the range of its children in the edge
//!   array;
//! * an edge array: the children of every node, grouped by parent in node
//!   order, each group in insertion order;
//! * a text buffer: every tag, concatenated in node order.
//!
//! So a pattern takes at most four heap allocations, and `clone` only bumps
//! a reference count: every copy of a subscription held by a broker, a view
//! or a routing table shares one set of buffers. Adding nodes copies on
//! write: a pattern whose buffers are shared gets its own copy first, so
//! patterns keep value semantics. The parser, [`TreePattern::graft`] and
//! normalisation add all their nodes in one pass that sizes every buffer
//! exactly; [`TreePattern::add_child`] grows the buffers in place, like a
//! `Vec`, and shifts the edges after its parent's children.

use std::fmt;
use std::sync::Arc;

use crate::error::PatternParseError;
use crate::matching;
use crate::parser;

/// Identifier of a node within one [`TreePattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternNodeId(pub(crate) u32);

impl PatternNodeId {
    /// The arena index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The label of a pattern node, borrowed from the pattern that carries it.
///
/// The paper defines a partial order on labels: `tag ≺ * ≺ //`, and
/// `tag ≺ tag'` iff the tags are equal. [`PatternLabel::subsumes`] implements
/// the reflexive version used by Algorithm 1's `⪯` test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternLabel<'a> {
    /// The special root label `/.` — only ever carried by the pattern root.
    Root,
    /// A concrete element tag (or leaf text value).
    Tag(&'a str),
    /// The wildcard `*`, matching any single tag.
    Wildcard,
    /// The descendant operator `//`, matching a possibly empty downward path.
    Descendant,
}

impl<'a> PatternLabel<'a> {
    /// Create a tag label.
    pub fn tag(name: &'a str) -> Self {
        PatternLabel::Tag(name)
    }

    /// Whether this pattern label is satisfied by (subsumes) a concrete
    /// document/synopsis label `concrete`.
    ///
    /// This is the `label(v) ⪯ label(u)` test of Algorithm 1 viewed from the
    /// pattern side: a tag only accepts the identical tag, `*` accepts any
    /// tag, and `//` also accepts any tag (its path semantics are handled by
    /// the algorithms, not by this predicate).
    pub fn subsumes(self, concrete: &str) -> bool {
        match self {
            PatternLabel::Tag(t) => t == concrete,
            PatternLabel::Wildcard | PatternLabel::Descendant => true,
            PatternLabel::Root => false,
        }
    }

    /// Whether the label is the descendant operator.
    pub fn is_descendant(self) -> bool {
        matches!(self, PatternLabel::Descendant)
    }

    /// Whether the label is the wildcard.
    pub fn is_wildcard(self) -> bool {
        matches!(self, PatternLabel::Wildcard)
    }

    /// Whether the label is a concrete tag.
    pub fn is_tag(self) -> bool {
        matches!(self, PatternLabel::Tag(_))
    }
}

impl fmt::Display for PatternLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PatternLabel::Root => write!(f, "/."),
            PatternLabel::Tag(t) if bare_name(t) => write!(f, "{t}"),
            // Labels that are not bare names (spaces, dots, leading digits)
            // use the quoted spelling so the output re-parses to the same
            // pattern. Found by fuzzing: printing them bare produced
            // unparseable expressions.
            PatternLabel::Tag(t) => write!(f, "\"{t}\""),
            PatternLabel::Wildcard => write!(f, "*"),
            PatternLabel::Descendant => write!(f, "//"),
        }
    }
}

/// Whether a tag can be printed without quotes — the same lexical class the
/// parser accepts for unquoted names.
fn bare_name(tag: &str) -> bool {
    let bytes = tag.as_bytes();
    let Some((&first, rest)) = bytes.split_first() else {
        return false;
    };
    let start = first.is_ascii_alphabetic() || first == b'_' || !first.is_ascii();
    start
        && rest
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || !b.is_ascii())
}

/// A node's label without its tag, which lives in the text buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Root,
    Tag,
    Wildcard,
    Descendant,
}

/// One entry of the node array (24 bytes).
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    /// The parent's index; the root's is its own.
    parent: u32,
    /// This node's tag in the text buffer (empty unless a tag).
    tag_start: u32,
    tag_end: u32,
    /// This node's children in the edge array.
    child_start: u32,
    child_end: u32,
}

impl Node {
    /// A childless node labelled `label`, whose tag is appended to `text`
    /// and whose (empty) children start at `child_start`.
    fn new(parent: u32, label: PatternLabel<'_>, text: &mut String, child_start: u32) -> Node {
        let tag_start = text.len() as u32;
        let kind = match label {
            PatternLabel::Root => Kind::Root,
            PatternLabel::Tag(tag) => {
                text.push_str(tag);
                Kind::Tag
            }
            PatternLabel::Wildcard => Kind::Wildcard,
            PatternLabel::Descendant => Kind::Descendant,
        };
        Node {
            kind,
            parent,
            tag_start,
            tag_end: text.len() as u32,
            child_start,
            child_end: child_start,
        }
    }
}

/// The shared buffers of one pattern (see the module documentation).
#[derive(Debug, Clone)]
struct Inner {
    nodes: Vec<Node>,
    edges: Vec<PatternNodeId>,
    text: String,
}

impl Inner {
    /// The buffers of `self` with `steps` appended: step `k` becomes node
    /// `len + k`, the last child of its parent (an existing node or an
    /// earlier step). Each buffer is allocated once, at its exact size.
    fn grown(&self, steps: &[(PatternNodeId, PatternLabel<'_>)]) -> Inner {
        let old = self.nodes.len();
        let total = old + steps.len();
        let mut added = vec![0u32; total];
        let mut text_len = self.text.len();
        for &(parent, label) in steps {
            added[parent.index()] += 1;
            if let PatternLabel::Tag(tag) = label {
                text_len += tag.len();
            }
        }
        // Every node but the root is the child of exactly one node.
        let mut edges = vec![PatternNodeId(0); total - 1];
        let mut nodes = Vec::with_capacity(total);
        let mut end = 0;
        for (node, &added) in self.nodes.iter().zip(&added) {
            let children = &self.edges[node.child_start as usize..node.child_end as usize];
            let start = end;
            end += children.len() as u32;
            edges[start as usize..end as usize].copy_from_slice(children);
            nodes.push(Node {
                child_start: start,
                child_end: end,
                ..*node
            });
            end += added;
        }
        let mut text = String::with_capacity(text_len);
        text.push_str(&self.text);
        for (k, &(parent, label)) in steps.iter().enumerate() {
            debug_assert!(
                label != PatternLabel::Root,
                "the root label may only appear at the root"
            );
            let id = old + k;
            // `nodes` holds the nodes before this one: a parent that is not
            // an earlier node is out of bounds here.
            let slot = &mut nodes[parent.index()].child_end;
            edges[*slot as usize] = PatternNodeId(id as u32);
            *slot += 1;
            nodes.push(Node::new(parent.0, label, &mut text, end));
            end += added[id];
        }
        Inner { nodes, edges, text }
    }

    /// Add one node with `label` as the last child of `parent`, in place.
    fn push(&mut self, parent: PatternNodeId, label: PatternLabel<'_>) -> PatternNodeId {
        debug_assert!(
            label != PatternLabel::Root,
            "the root label may only appear at the root"
        );
        let id = PatternNodeId(self.nodes.len() as u32);
        let at = self.nodes[parent.index()].child_end;
        self.edges.insert(at as usize, id);
        self.nodes[parent.index()].child_end += 1;
        for node in &mut self.nodes[parent.index() + 1..] {
            node.child_start += 1;
            node.child_end += 1;
        }
        let node = Node::new(parent.0, label, &mut self.text, self.edges.len() as u32);
        self.nodes.push(node);
        id
    }
}

/// A tree-pattern subscription: an unordered node-labelled tree over
/// [`PatternLabel`]s, rooted at a `/.` node.
///
/// A pattern is immutable shared data with value semantics: `clone` copies
/// nothing, and adding a node to a clone leaves the original unchanged (see
/// the module documentation).
///
/// # Example
///
/// ```
/// use tps_pattern::{PatternLabel, TreePattern};
///
/// // Build /media/CD programmatically.
/// let mut p = TreePattern::new();
/// let media = p.add_child(p.root(), PatternLabel::tag("media"));
/// let shared = p.clone();
/// p.add_child(media, PatternLabel::tag("CD"));
/// assert_eq!(p.to_string(), "/media/CD");
/// assert_eq!(p, TreePattern::parse("/media/CD").unwrap());
/// assert_eq!(shared.to_string(), "/media");
/// ```
#[derive(Clone)]
pub struct TreePattern(Arc<Inner>);

impl TreePattern {
    /// Create a pattern consisting only of the `/.` root (which matches every
    /// document).
    pub fn new() -> Self {
        let mut text = String::new();
        let root = Node::new(0, PatternLabel::Root, &mut text, 0);
        Self(Arc::new(Inner {
            nodes: vec![root],
            edges: Vec::new(),
            text,
        }))
    }

    /// Parse a pattern from the XPath-like concrete syntax.
    ///
    /// See [`crate::parser`] for the grammar.
    pub fn parse(input: &str) -> Result<Self, PatternParseError> {
        parser::parse_pattern(input)
    }

    /// The root node id (label `/.`).
    pub fn root(&self) -> PatternNodeId {
        PatternNodeId(0)
    }

    /// Append a child with the given label under `parent`, returning its id.
    /// The tag, if any, is copied into the pattern.
    pub fn add_child(&mut self, parent: PatternNodeId, label: PatternLabel<'_>) -> PatternNodeId {
        Arc::make_mut(&mut self.0).push(parent, label)
    }

    /// Append `steps` in one copy of the buffers (see [`Inner::grown`]),
    /// returning the id of the first.
    pub(crate) fn append(&mut self, steps: &[(PatternNodeId, PatternLabel<'_>)]) -> PatternNodeId {
        let first = PatternNodeId(self.0.nodes.len() as u32);
        let grown = self.0.grown(steps);
        // Copy on write: a shared pattern gets its own allocation.
        match Arc::get_mut(&mut self.0) {
            Some(inner) => *inner = grown,
            None => self.0 = Arc::new(grown),
        }
        first
    }

    /// The label of a node.
    #[inline]
    pub fn label(&self, id: PatternNodeId) -> PatternLabel<'_> {
        let node = &self.0.nodes[id.index()];
        // Every node has a tag range (empty unless a tag), so the slice is
        // taken without branching on the kind.
        let tag = &self.0.text[node.tag_start as usize..node.tag_end as usize];
        match node.kind {
            Kind::Root => PatternLabel::Root,
            Kind::Tag => PatternLabel::Tag(tag),
            Kind::Wildcard => PatternLabel::Wildcard,
            Kind::Descendant => PatternLabel::Descendant,
        }
    }

    /// The children of a node, in insertion order.
    #[inline]
    pub fn children(&self, id: PatternNodeId) -> &[PatternNodeId] {
        let node = &self.0.nodes[id.index()];
        &self.0.edges[node.child_start as usize..node.child_end as usize]
    }

    /// The parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: PatternNodeId) -> Option<PatternNodeId> {
        (id.0 != 0).then(|| PatternNodeId(self.0.nodes[id.index()].parent))
    }

    /// Whether `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: PatternNodeId) -> bool {
        let node = &self.0.nodes[id.index()];
        node.child_start == node.child_end
    }

    /// Total number of nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.0.nodes.len()
    }

    /// Maximum number of nodes on a root-to-leaf path, excluding the root.
    /// (A pattern `/a/b` has height 2.)
    pub fn height(&self) -> usize {
        self.height_of(self.root()) - 1
    }

    fn height_of(&self, id: PatternNodeId) -> usize {
        1 + self
            .children(id)
            .iter()
            .map(|&c| self.height_of(c))
            .max()
            .unwrap_or(0)
    }

    /// Iterate over all node ids in pre-order (root first).
    pub fn preorder(&self) -> Vec<PatternNodeId> {
        let mut order = Vec::with_capacity(self.node_count());
        let mut stack = vec![self.root()];
        while let Some(next) = stack.pop() {
            order.push(next);
            for &c in self.children(next).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    fn count_kind(&self, kind: Kind) -> usize {
        self.0.nodes.iter().filter(|n| n.kind == kind).count()
    }

    /// Number of `*` nodes in the pattern.
    pub fn wildcard_count(&self) -> usize {
        self.count_kind(Kind::Wildcard)
    }

    /// Number of `//` nodes in the pattern.
    pub fn descendant_count(&self) -> usize {
        self.count_kind(Kind::Descendant)
    }

    /// Number of branching nodes (nodes with two or more children).
    pub fn branching_count(&self) -> usize {
        self.0
            .nodes
            .iter()
            .filter(|n| n.child_end - n.child_start > 1)
            .count()
    }

    /// Exact matching: does `document` satisfy this pattern (Section 2)?
    pub fn matches(&self, document: &tps_xml::XmlTree) -> bool {
        matching::matches(document, self)
    }

    /// Validate the structural constraints of Section 2:
    ///
    /// * only the root carries the `/.` label,
    /// * the root has at least one child (a bare `/.` is allowed and matches
    ///   everything, so this is not enforced),
    /// * every `//` node has exactly one child, which is a tag or `*`.
    ///
    /// Returns a description of the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        for (i, node) in self.0.nodes.iter().enumerate() {
            let id = PatternNodeId(i as u32);
            if i != 0 && node.kind == Kind::Root {
                return Err(format!("non-root node {id:?} carries the root label"));
            }
            if i == 0 && node.kind != Kind::Root {
                return Err("root node does not carry the root label".to_string());
            }
            if node.kind == Kind::Descendant {
                let children = self.children(id);
                if children.len() != 1 {
                    return Err(format!(
                        "descendant node {id:?} must have exactly one child, has {}",
                        children.len()
                    ));
                }
                if self.label(children[0]).is_descendant() {
                    return Err(format!(
                        "descendant node {id:?} has a descendant child; its child must be a tag or *"
                    ));
                }
            }
        }
        Ok(())
    }

    /// A canonical structural key: children are sorted recursively, so two
    /// patterns that differ only in sibling order produce the same key.
    /// Used for equality, hashing and deduplication of generated workloads.
    pub fn canonical_key(&self) -> String {
        self.key_of(self.root())
    }

    fn key_of(&self, id: PatternNodeId) -> String {
        let mut child_keys: Vec<String> =
            self.children(id).iter().map(|&c| self.key_of(c)).collect();
        child_keys.sort();
        format!("{}({})", self.label(id), child_keys.join(","))
    }

    /// Deep-copy the subtree rooted at `source_node` of `source` as a child
    /// of `target_parent` in `self`. Returns the id of the copied root.
    pub fn graft(
        &mut self,
        target_parent: PatternNodeId,
        source: &TreePattern,
        source_node: PatternNodeId,
    ) -> PatternNodeId {
        let first = self.node_count() as u32;
        let mut steps = Vec::new();
        // Pre-order, each source node paired with its copy's parent.
        let mut stack = vec![(source_node, target_parent)];
        while let Some((node, parent)) = stack.pop() {
            let copy = PatternNodeId(first + steps.len() as u32);
            steps.push((parent, source.label(node)));
            for &child in source.children(node).iter().rev() {
                stack.push((child, copy));
            }
        }
        self.append(&steps)
    }
}

impl Default for TreePattern {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TreePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TreePattern")
            .field(&self.to_string())
            .finish()
    }
}

/// Structural equality modulo sibling order (tree patterns are unordered).
impl PartialEq for TreePattern {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_key() == other.canonical_key()
    }
}

impl Eq for TreePattern {}

impl std::hash::Hash for TreePattern {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canonical_key().hash(state);
    }
}

impl fmt::Display for TreePattern {
    /// Render the pattern in the concrete syntax accepted by
    /// [`TreePattern::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let root = self.root();
        let children = self.children(root);
        match children.len() {
            0 => write!(f, "/."),
            1 => self.fmt_step(f, children[0], true),
            _ => {
                write!(f, "/.")?;
                for &c in children {
                    write!(f, "[")?;
                    self.fmt_step(f, c, false)?;
                    write!(f, "]")?;
                }
                Ok(())
            }
        }
    }
}

impl TreePattern {
    /// Format the step for node `id`. `absolute` is true when the step hangs
    /// directly off the pattern root in single-child position (rendered with
    /// a leading `/` or `//`).
    fn fmt_step(
        &self,
        f: &mut fmt::Formatter<'_>,
        id: PatternNodeId,
        absolute: bool,
    ) -> fmt::Result {
        match self.label(id) {
            PatternLabel::Descendant => {
                write!(f, "//")?;
                // A valid descendant node has exactly one child; render it as
                // the continuation of the step.
                match self.children(id).len() {
                    0 => write!(f, "*"), // degenerate; keep output parseable
                    _ => self.fmt_after_descendant(f, self.children(id)[0]),
                }
            }
            label => {
                if absolute {
                    write!(f, "/")?;
                }
                write!(f, "{label}")?;
                self.fmt_children(f, id)
            }
        }
    }

    fn fmt_after_descendant(&self, f: &mut fmt::Formatter<'_>, id: PatternNodeId) -> fmt::Result {
        write!(f, "{}", self.label(id))?;
        self.fmt_children(f, id)
    }

    fn fmt_children(&self, f: &mut fmt::Formatter<'_>, id: PatternNodeId) -> fmt::Result {
        let children = self.children(id);
        match children.len() {
            0 => Ok(()),
            1 => {
                let child = children[0];
                if self.label(child).is_descendant() {
                    self.fmt_step(f, child, false)
                } else {
                    write!(f, "/")?;
                    write!(f, "{}", self.label(child))?;
                    self.fmt_children(f, child)
                }
            }
            _ => {
                for &c in children {
                    write!(f, "[")?;
                    self.fmt_step(f, c, false)?;
                    write!(f, "]")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_pattern_is_bare_root() {
        let p = TreePattern::new();
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.label(p.root()), PatternLabel::Root);
        assert_eq!(p.height(), 0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builder_creates_linked_nodes() {
        let mut p = TreePattern::new();
        let a = p.add_child(p.root(), PatternLabel::tag("a"));
        let b = p.add_child(a, PatternLabel::Wildcard);
        assert_eq!(p.parent(b), Some(a));
        assert_eq!(p.children(a), &[b]);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.height(), 2);
    }

    #[test]
    fn label_subsumption_follows_the_partial_order() {
        assert!(PatternLabel::tag("a").subsumes("a"));
        assert!(!PatternLabel::tag("a").subsumes("b"));
        assert!(PatternLabel::Wildcard.subsumes("anything"));
        assert!(PatternLabel::Descendant.subsumes("anything"));
        assert!(!PatternLabel::Root.subsumes("a"));
    }

    #[test]
    fn counts_wildcards_descendants_branches() {
        let mut p = TreePattern::new();
        let a = p.add_child(p.root(), PatternLabel::tag("a"));
        let d = p.add_child(a, PatternLabel::Descendant);
        p.add_child(d, PatternLabel::tag("b"));
        p.add_child(a, PatternLabel::Wildcard);
        assert_eq!(p.wildcard_count(), 1);
        assert_eq!(p.descendant_count(), 1);
        assert_eq!(p.branching_count(), 1);
    }

    #[test]
    fn validate_rejects_descendant_with_many_children() {
        let mut p = TreePattern::new();
        let d = p.add_child(p.root(), PatternLabel::Descendant);
        p.add_child(d, PatternLabel::tag("a"));
        p.add_child(d, PatternLabel::tag("b"));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_descendant_chains() {
        let mut p = TreePattern::new();
        let d = p.add_child(p.root(), PatternLabel::Descendant);
        let d2 = p.add_child(d, PatternLabel::Descendant);
        p.add_child(d2, PatternLabel::tag("a"));
        assert!(p.validate().is_err());
    }

    #[test]
    fn display_linear_pattern() {
        let mut p = TreePattern::new();
        let a = p.add_child(p.root(), PatternLabel::tag("media"));
        let b = p.add_child(a, PatternLabel::tag("CD"));
        let w = p.add_child(b, PatternLabel::Wildcard);
        let l = p.add_child(w, PatternLabel::tag("last"));
        p.add_child(l, PatternLabel::tag("Mozart"));
        assert_eq!(p.to_string(), "/media/CD/*/last/Mozart");
    }

    #[test]
    fn display_descendant_and_branches() {
        let mut p = TreePattern::new();
        let d = p.add_child(p.root(), PatternLabel::Descendant);
        let c = p.add_child(d, PatternLabel::tag("composer"));
        p.add_child(c, PatternLabel::tag("last"));
        p.add_child(c, PatternLabel::tag("first"));
        assert_eq!(p.to_string(), "//composer[last][first]");
    }

    #[test]
    fn display_multi_rooted_pattern() {
        let mut p = TreePattern::new();
        let d1 = p.add_child(p.root(), PatternLabel::Descendant);
        p.add_child(d1, PatternLabel::tag("CD"));
        let d2 = p.add_child(p.root(), PatternLabel::Descendant);
        p.add_child(d2, PatternLabel::tag("Mozart"));
        assert_eq!(p.to_string(), "/.[//CD][//Mozart]");
    }

    #[test]
    fn equality_ignores_sibling_order() {
        let mut p = TreePattern::new();
        let a = p.add_child(p.root(), PatternLabel::tag("a"));
        p.add_child(a, PatternLabel::tag("b"));
        p.add_child(a, PatternLabel::tag("c"));

        let mut q = TreePattern::new();
        let a2 = q.add_child(q.root(), PatternLabel::tag("a"));
        q.add_child(a2, PatternLabel::tag("c"));
        q.add_child(a2, PatternLabel::tag("b"));

        assert_eq!(p, q);
        assert_eq!(p.canonical_key(), q.canonical_key());
    }

    #[test]
    fn graft_copies_subtrees() {
        let src = TreePattern::parse("/a/b[c][d]").unwrap();
        let mut dst = TreePattern::new();
        let root = dst.root();
        dst.graft(root, &src, src.children(src.root())[0]);
        assert_eq!(dst, src);
    }

    #[test]
    fn preorder_visits_all_nodes() {
        let p = TreePattern::parse("/a[b//c][d]/e").unwrap();
        assert_eq!(p.preorder().len(), p.node_count());
    }

    #[test]
    fn patterns_are_shared_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<TreePattern>();
    }
}
