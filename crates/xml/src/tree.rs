//! Arena-based XML tree representation.
//!
//! Documents are node-labelled trees, as in Section 2 of the paper. Element
//! tags and leaf text values are both represented as labelled nodes: the text
//! content `Mozart` of `<last>Mozart</last>` becomes a child node whose label
//! is `"Mozart"` and whose [`XmlNode::is_text`] flag is set. This mirrors the
//! document trees in Figure 1 of the paper, where values appear as leaves.

use std::borrow::Cow;

use crate::error::XmlError;
use crate::paths::RootToLeafPaths;
use crate::scan::{scan_str, ScanLimits, SkeletonSink};
use crate::skeleton;
use crate::writer;

/// Identifier of a node within one [`XmlTree`].
///
/// Node ids are indices into the tree's internal arena; they are only
/// meaningful for the tree that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single node of an [`XmlTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    label: Box<str>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    is_text: bool,
}

impl XmlNode {
    /// The node's label: an element tag, or the text value for text nodes.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Parent node, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Child node ids in document order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Whether this node represents text content rather than an element.
    pub fn is_text(&self) -> bool {
        self.is_text
    }

    /// Whether this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An XML document as an unordered node-labelled tree.
///
/// The tree is stored in an arena (`Vec<XmlNode>`); the root always exists
/// and is created by [`XmlTree::new`].
///
/// # Example
///
/// ```
/// use tps_xml::XmlTree;
///
/// let mut tree = XmlTree::new("media");
/// let cd = tree.add_child(tree.root(), "CD");
/// let composer = tree.add_child(cd, "composer");
/// let last = tree.add_child(composer, "last");
/// tree.add_text_child(last, "Mozart");
/// assert_eq!(tree.node_count(), 5);
/// assert_eq!(tree.depth(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlTree {
    nodes: Vec<XmlNode>,
}

impl XmlTree {
    /// Create a tree consisting of a single root element labelled
    /// `root_label`.
    pub fn new(root_label: &str) -> Self {
        Self {
            nodes: vec![XmlNode {
                label: root_label.into(),
                parent: None,
                children: Vec::new(),
                is_text: false,
            }],
        }
    }

    /// Parse an XML document from text: one [`scan_str`] under the default
    /// [`ScanLimits`] into a tree-building sink.
    ///
    /// See [`crate::scan`] for the supported subset.
    pub fn parse(input: &str) -> Result<Self, XmlError> {
        let mut builder = TreeBuilder::new();
        scan_str(input, &ScanLimits::default(), &mut builder)?;
        Ok(builder.tree)
    }

    /// The root node id (always valid).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Append a new element child labelled `label` under `parent` and return
    /// its id.
    pub fn add_child(&mut self, parent: NodeId, label: &str) -> NodeId {
        self.push_node(parent, label, false)
    }

    /// Append a new text child (a leaf whose label is the text value).
    pub fn add_text_child(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.push_node(parent, text, true)
    }

    fn push_node(&mut self, parent: NodeId, label: &str, is_text: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(XmlNode {
            label: label.into(),
            parent: Some(parent),
            children: Vec::new(),
            is_text,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &XmlNode {
        &self.nodes[id.index()]
    }

    /// The label of a node.
    pub fn label(&self, id: NodeId) -> &str {
        self.node(id).label()
    }

    /// The children of a node, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.node(id).children()
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent()
    }

    /// Total number of nodes in the tree (elements plus text leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes that represent element tags (excludes text leaves).
    pub fn element_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_text).count()
    }

    /// Maximum number of nodes on any root-to-leaf path.
    pub fn depth(&self) -> usize {
        self.depth_of(self.root())
    }

    fn depth_of(&self, id: NodeId) -> usize {
        1 + self
            .children(id)
            .iter()
            .map(|&c| self.depth_of(c))
            .max()
            .unwrap_or(0)
    }

    /// Iterate over all node ids in pre-order (root first).
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder {
            tree: self,
            stack: vec![self.root()],
        }
    }

    /// Iterate over all node ids of the subtree rooted at `start`, pre-order.
    pub fn preorder_from(&self, start: NodeId) -> Preorder<'_> {
        Preorder {
            tree: self,
            stack: vec![start],
        }
    }

    /// Iterate over the descendants of `id` including `id` itself.
    pub fn descendants_or_self(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.preorder_from(id)
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.preorder_from(id).count()
    }

    /// The sequence of labels from the root down to `id` (inclusive).
    pub fn path_labels(&self, id: NodeId) -> Vec<&str> {
        let mut labels = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            labels.push(self.label(n));
            cur = self.parent(n);
        }
        labels.reverse();
        labels
    }

    /// Enumerate all root-to-leaf label paths of the document.
    pub fn root_to_leaf_paths(&self) -> RootToLeafPaths<'_> {
        RootToLeafPaths::new(self)
    }

    /// Build the *skeleton tree* of this document: children of every node
    /// that share a label are coalesced so that each node has at most one
    /// child per label (Section 3.1 of the paper).
    pub fn skeleton(&self) -> XmlTree {
        skeleton::skeleton_of(self)
    }

    /// Serialise the tree back to XML text.
    pub fn to_xml(&self) -> String {
        writer::write_document(self)
    }

    /// Count nodes with a given label.
    pub fn count_label(&self, label: &str) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.label.as_ref() == label)
            .count()
    }

    /// Iterate over the distinct labels used in the tree (arbitrary order,
    /// no duplicates).
    pub fn distinct_labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = self.nodes.iter().map(|n| n.label.as_ref()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Number of parent-child tag pairs (edges) in the document; the paper's
    /// generator targets roughly 100 *tag pairs* per document.
    pub fn edge_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }
}

/// Builds an [`XmlTree`] from scanner events: the first `open` makes the
/// root, later ones add an element under the innermost open one, `text`
/// adds a text leaf there and `close` pops.
pub(crate) struct TreeBuilder {
    /// Empty until the root opens; complete once the scan returns `Ok`.
    pub(crate) tree: XmlTree,
    stack: Vec<NodeId>,
}

impl TreeBuilder {
    pub(crate) fn new() -> Self {
        Self {
            tree: XmlTree { nodes: Vec::new() },
            stack: Vec::new(),
        }
    }
}

impl SkeletonSink for TreeBuilder {
    fn open(&mut self, label: Cow<'_, str>) {
        let id = match self.stack.last() {
            Some(&parent) => self.tree.add_child(parent, &label),
            None => {
                self.tree = XmlTree::new(&label);
                self.tree.root()
            }
        };
        self.stack.push(id);
    }

    fn text(&mut self, text: Cow<'_, str>) {
        if let Some(&parent) = self.stack.last() {
            self.tree.add_text_child(parent, &text);
        }
    }

    fn close(&mut self) {
        self.stack.pop();
    }
}

/// Pre-order iterator over node ids, returned by [`XmlTree::preorder`].
#[derive(Debug)]
pub struct Preorder<'a> {
    tree: &'a XmlTree,
    stack: Vec<NodeId>,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let next = self.stack.pop()?;
        // Push children in reverse so the leftmost child is visited first.
        for &child in self.tree.children(next).iter().rev() {
            self.stack.push(child);
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> XmlTree {
        // media
        //   CD
        //     composer
        //       last -> "Mozart"
        //     title -> "Requiem"
        //   book
        //     author
        let mut t = XmlTree::new("media");
        let cd = t.add_child(t.root(), "CD");
        let composer = t.add_child(cd, "composer");
        let last = t.add_child(composer, "last");
        t.add_text_child(last, "Mozart");
        let title = t.add_child(cd, "title");
        t.add_text_child(title, "Requiem");
        let book = t.add_child(t.root(), "book");
        t.add_child(book, "author");
        t
    }

    #[test]
    fn new_tree_has_single_root() {
        let t = XmlTree::new("root");
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.label(t.root()), "root");
        assert!(t.parent(t.root()).is_none());
        assert!(t.node(t.root()).is_leaf());
    }

    #[test]
    fn add_child_links_parent_and_children() {
        let mut t = XmlTree::new("a");
        let b = t.add_child(t.root(), "b");
        let c = t.add_child(b, "c");
        assert_eq!(t.parent(b), Some(t.root()));
        assert_eq!(t.parent(c), Some(b));
        assert_eq!(t.children(t.root()), &[b]);
        assert_eq!(t.children(b), &[c]);
    }

    #[test]
    fn text_children_are_flagged() {
        let mut t = XmlTree::new("last");
        let txt = t.add_text_child(t.root(), "Mozart");
        assert!(t.node(txt).is_text());
        assert!(!t.node(t.root()).is_text());
        assert_eq!(t.label(txt), "Mozart");
    }

    #[test]
    fn counts_and_depth() {
        let t = sample_tree();
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.element_count(), 7);
        assert_eq!(t.depth(), 5);
        assert_eq!(t.edge_count(), 8);
    }

    #[test]
    fn preorder_visits_every_node_once_root_first() {
        let t = sample_tree();
        let order: Vec<NodeId> = t.preorder().collect();
        assert_eq!(order.len(), t.node_count());
        assert_eq!(order[0], t.root());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), t.node_count());
    }

    #[test]
    fn preorder_is_leftmost_first() {
        let t = sample_tree();
        let labels: Vec<&str> = t.preorder().map(|id| t.label(id)).collect();
        assert_eq!(
            labels,
            vec!["media", "CD", "composer", "last", "Mozart", "title", "Requiem", "book", "author"]
        );
    }

    #[test]
    fn path_labels_walks_from_root() {
        let t = sample_tree();
        let mozart = t
            .preorder()
            .find(|&id| t.label(id) == "Mozart")
            .expect("Mozart node");
        assert_eq!(
            t.path_labels(mozart),
            vec!["media", "CD", "composer", "last", "Mozart"]
        );
    }

    #[test]
    fn subtree_size_counts_descendants() {
        let t = sample_tree();
        let cd = t
            .preorder()
            .find(|&id| t.label(id) == "CD")
            .expect("CD node");
        assert_eq!(t.subtree_size(cd), 6);
        assert_eq!(t.subtree_size(t.root()), t.node_count());
    }

    #[test]
    fn count_label_and_distinct_labels() {
        let t = sample_tree();
        assert_eq!(t.count_label("CD"), 1);
        assert_eq!(t.count_label("missing"), 0);
        let distinct = t.distinct_labels();
        assert!(distinct.contains(&"Mozart"));
        assert!(distinct.contains(&"media"));
        assert_eq!(distinct.len(), 9);
    }

    #[test]
    fn descendants_or_self_includes_self() {
        let t = sample_tree();
        let book = t.preorder().find(|&id| t.label(id) == "book").unwrap();
        let descendants: Vec<&str> = t.descendants_or_self(book).map(|id| t.label(id)).collect();
        assert_eq!(descendants, vec!["book", "author"]);
    }
}
