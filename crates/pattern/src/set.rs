//! Matching one document against many patterns in a single walk.
//!
//! A broker holding `n` subscriptions does not have to call
//! [`TreePattern::matches`] `n` times per document. [`PatternSet`] merges the
//! root-to-leaf step paths of all its patterns into one forest that shares
//! every common prefix — the XFilter / YFilter idea the paper's brokers sit on
//! — and walks the document once, carrying the set of forest nodes reached so
//! far down each document path.
//!
//! The walk hangs a *virtual node* above the document root. With it the two
//! contexts of [`crate::matching`] collapse into one rule: a step constrains
//! a **child** of the current document node, and the children of the pattern
//! root are simply steps taken from the virtual node, whose only child is the
//! document root. A `//` step is an ε-move into a forest node that then stays
//! active for the whole document subtree below; `*` is an edge any label
//! follows.
//!
//! * A pattern **without branches** matches iff the forest node of its leaf
//!   is reached.
//! * A **branching** pattern can only match if *all* of its leaf paths are
//!   reached (each branch is existential on its own, so this is necessary but
//!   not sufficient: `/a[b/c][b/d]` needs one `a`, not two). Such candidates
//!   are confirmed with [`TreePattern::matches`], which stays the reference
//!   implementation.

use tps_xml::{NodeId, XmlTree};

use crate::pattern::{PatternLabel, PatternNodeId, TreePattern};

/// "No such forest node."
const NONE: u32 = u32::MAX;

/// FNV-1a over the label bytes. Tag edges are ordered by `(hash, label)`, so
/// a lookup compares integers and touches the string only to confirm; a
/// collision costs one more comparison, never a wrong edge.
fn label_hash(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Debug, Clone)]
struct TagEdge {
    hash: u64,
    label: Box<str>,
    to: u32,
}

/// One forest node: the state "this step path has been matched down to here".
#[derive(Debug, Clone)]
struct Node {
    /// Tag edges, sorted by `(hash, label)`.
    tags: Vec<TagEdge>,
    wildcard: u32,
    descendant: u32,
    /// Edge of a non-root `/.` step. [`crate::matching`] lets such a step
    /// match nothing, so no document node ever follows it.
    unmatchable: u32,
    /// Whether the step *into* this node is `//`: the node then stays active
    /// below the document node it was reached at.
    is_descendant: bool,
    /// Keys of the branch-free patterns whose leaf is this node.
    linear: Vec<u64>,
    /// Slots of the branching patterns with a leaf path ending here.
    branching: Vec<u32>,
    /// Visit number at which the node last entered an active set.
    mark: u64,
}

impl Node {
    fn new(is_descendant: bool) -> Self {
        Self {
            tags: Vec::new(),
            wildcard: NONE,
            descendant: NONE,
            unmatchable: NONE,
            is_descendant,
            linear: Vec::new(),
            branching: Vec::new(),
            mark: 0,
        }
    }

    fn tag_position(&self, hash: u64, label: &str) -> Result<usize, usize> {
        self.tags
            .binary_search_by(|edge| edge.hash.cmp(&hash).then_with(|| (*edge.label).cmp(label)))
    }

    fn is_unused(&self) -> bool {
        self.tags.is_empty()
            && self.wildcard == NONE
            && self.descendant == NONE
            && self.unmatchable == NONE
            && self.linear.is_empty()
            && self.branching.is_empty()
    }
}

/// A branching pattern: a candidate once all its leaf paths are reached.
#[derive(Debug, Clone)]
struct Branching {
    key: u64,
    pattern: TreePattern,
    /// Number of its leaf paths. Two of them may end at one forest node
    /// (`/a[b][b]`), which then holds the pattern's slot twice.
    leaves: u32,
    /// How many of them the document numbered `document` has reached.
    reached: u32,
    document: u64,
}

/// The active forest nodes of one document node on the walk's stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: NodeId,
    next_child: usize,
    /// `active[begin..end]` are the forest nodes reached at `node`.
    begin: usize,
    end: usize,
}

/// A set of tree patterns under caller-chosen keys, matched against a
/// document in one walk.
///
/// Keys are the caller's (subscriber ids, consumer indices) and must be
/// unique among the patterns currently in the set.
///
/// # Example
///
/// ```
/// use tps_pattern::{PatternSet, TreePattern};
/// use tps_xml::XmlTree;
///
/// let mut set = PatternSet::new();
/// let patterns = ["//CD", "/media/book", "/media/CD[title][composer//last]"];
/// for (key, text) in patterns.iter().enumerate() {
///     set.insert(key as u64, &TreePattern::parse(text).unwrap());
/// }
/// let doc = XmlTree::parse(
///     "<media><CD><title>Requiem</title><composer><last>Mozart</last></composer></CD></media>",
/// )
/// .unwrap();
/// assert_eq!(set.matches(&doc), &[0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct PatternSet {
    /// The forest arena; node 0 is the root (the virtual node's context).
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    branching: Vec<Branching>,
    free_branching: Vec<u32>,
    len: usize,
    /// Visits made so far: one per document node walked, plus one per
    /// document for the virtual node. `Node::mark` compares against it.
    visits: u64,
    // Scratch of `matches`, kept so a steady stream allocates nothing.
    active: Vec<u32>,
    stack: Vec<Frame>,
    candidates: Vec<u32>,
    hits: Vec<u64>,
}

impl Default for PatternSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::new(false)],
            free_nodes: Vec::new(),
            branching: Vec::new(),
            free_branching: Vec::new(),
            len: 0,
            visits: 0,
            active: Vec::new(),
            stack: Vec::new(),
            candidates: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no pattern.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of forest nodes, the root included. It depends only on the
    /// patterns currently in the set, not on the order they came and went in.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Add `pattern` under `key`, in time linear in the pattern's size.
    pub fn insert(&mut self, key: u64, pattern: &TreePattern) {
        let mut leaves = Vec::new();
        self.insert_paths(0, pattern, pattern.root(), &mut leaves);
        if pattern.branching_count() == 0 {
            self.nodes[leaves[0] as usize].linear.push(key);
        } else {
            let entry = Branching {
                key,
                pattern: pattern.clone(),
                leaves: leaves.len() as u32,
                reached: 0,
                document: 0,
            };
            let slot = match self.free_branching.pop() {
                Some(slot) => {
                    self.branching[slot as usize] = entry;
                    slot
                }
                None => {
                    self.branching.push(entry);
                    (self.branching.len() - 1) as u32
                }
            };
            for leaf in leaves {
                self.nodes[leaf as usize].branching.push(slot);
            }
        }
        self.len += 1;
    }

    /// Remove the pattern inserted under `key`; `pattern` must be that
    /// pattern. Forest nodes no remaining pattern uses are freed. Returns
    /// whether the key was in the set.
    pub fn remove(&mut self, key: u64, pattern: &TreePattern) -> bool {
        let mut slot = None;
        let linear = pattern.branching_count() == 0;
        let removed = self.remove_paths(0, pattern, pattern.root(), key, linear, &mut slot);
        if let Some(slot) = slot {
            debug_assert!(
                self.branching[slot as usize].pattern == *pattern,
                "remove() was given a different pattern than insert()"
            );
            self.free_branching.push(slot);
        }
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// The child slot of `at` for a step labelled `label`.
    fn edge(&self, at: u32, label: &PatternLabel) -> u32 {
        let node = &self.nodes[at as usize];
        match label {
            PatternLabel::Tag(tag) => match node.tag_position(label_hash(tag), tag) {
                Ok(position) => node.tags[position].to,
                Err(_) => NONE,
            },
            PatternLabel::Wildcard => node.wildcard,
            PatternLabel::Descendant => node.descendant,
            PatternLabel::Root => node.unmatchable,
        }
    }

    /// Add the edge `at --label--> to`; there is none for `label` yet.
    fn link(&mut self, at: u32, label: &PatternLabel, to: u32) {
        let node = &mut self.nodes[at as usize];
        match label {
            PatternLabel::Tag(tag) => {
                let hash = label_hash(tag);
                let position = node.tag_position(hash, tag).unwrap_or_else(|free| free);
                let label = tag.clone();
                node.tags.insert(position, TagEdge { hash, label, to });
            }
            PatternLabel::Wildcard => node.wildcard = to,
            PatternLabel::Descendant => node.descendant = to,
            PatternLabel::Root => node.unmatchable = to,
        }
    }

    /// Drop the edge `at --label-->`.
    fn unlink(&mut self, at: u32, label: &PatternLabel) {
        let node = &mut self.nodes[at as usize];
        match label {
            PatternLabel::Tag(tag) => {
                if let Ok(position) = node.tag_position(label_hash(tag), tag) {
                    node.tags.remove(position);
                }
            }
            PatternLabel::Wildcard => node.wildcard = NONE,
            PatternLabel::Descendant => node.descendant = NONE,
            PatternLabel::Root => node.unmatchable = NONE,
        }
    }

    /// Walk (creating as needed) the forest paths of the pattern subtree at
    /// `v`, starting from forest node `at`; collect the nodes its leaves end
    /// at.
    fn insert_paths(
        &mut self,
        at: u32,
        pattern: &TreePattern,
        v: PatternNodeId,
        leaves: &mut Vec<u32>,
    ) {
        if pattern.is_leaf(v) {
            leaves.push(at);
            return;
        }
        for &child in pattern.children(v) {
            let label = pattern.label(child);
            let mut next = self.edge(at, label);
            if next == NONE {
                let node = Node::new(label.is_descendant());
                next = match self.free_nodes.pop() {
                    Some(slot) => {
                        self.nodes[slot as usize] = node;
                        slot
                    }
                    None => {
                        self.nodes.push(node);
                        (self.nodes.len() - 1) as u32
                    }
                };
                self.link(at, label, next);
            }
            self.insert_paths(next, pattern, child, leaves);
        }
    }

    /// Undo [`PatternSet::insert_paths`] for `key`: drop its entry at every
    /// leaf, then free the forest nodes left without any use on the way back
    /// up. Returns whether an entry was found.
    fn remove_paths(
        &mut self,
        at: u32,
        pattern: &TreePattern,
        v: PatternNodeId,
        key: u64,
        linear: bool,
        slot: &mut Option<u32>,
    ) -> bool {
        if pattern.is_leaf(v) {
            let Self {
                nodes, branching, ..
            } = self;
            let node = &mut nodes[at as usize];
            let position = if linear {
                node.linear.iter().position(|&k| k == key)
            } else {
                node.branching
                    .iter()
                    .position(|&s| branching[s as usize].key == key)
            };
            let Some(position) = position else {
                return false;
            };
            if linear {
                node.linear.swap_remove(position);
            } else {
                *slot = Some(node.branching.swap_remove(position));
            }
            return true;
        }
        let mut removed = false;
        for &child in pattern.children(v) {
            let label = pattern.label(child);
            let next = self.edge(at, label);
            // No such path: the pattern is not in the set.
            if next == NONE {
                continue;
            }
            removed |= self.remove_paths(next, pattern, child, key, linear, slot);
            if self.nodes[next as usize].is_unused() {
                self.unlink(at, label);
                self.free_nodes.push(next);
            }
        }
        removed
    }

    /// The keys of the patterns `document` satisfies, ascending: exactly
    /// those for which [`TreePattern::matches`] is true.
    pub fn matches(&mut self, document: &XmlTree) -> &[u64] {
        let mut walk = Walk {
            nodes: &mut self.nodes,
            branching: &mut self.branching,
            active: &mut self.active,
            candidates: &mut self.candidates,
            hits: &mut self.hits,
            document: self.visits,
            visit: self.visits,
        };
        walk.active.clear();
        walk.candidates.clear();
        walk.hits.clear();

        // The virtual node reaches the forest root (and what `//` hangs off
        // it); the document root is its only child.
        walk.visit += 1;
        walk.enter(0);
        let end = walk.active.len();
        self.stack.clear();
        self.stack
            .push(walk.descend(document, document.root(), 0, end));
        while let Some(frame) = self.stack.last_mut() {
            let children = document.children(frame.node);
            // Nothing reached here means nothing can be reached below.
            if frame.begin < frame.end && frame.next_child < children.len() {
                let child = children[frame.next_child];
                frame.next_child += 1;
                let (begin, end) = (frame.begin, frame.end);
                self.stack.push(walk.descend(document, child, begin, end));
            } else {
                walk.active.truncate(frame.begin);
                self.stack.pop();
            }
        }
        self.visits = walk.visit;

        for &slot in self.candidates.iter() {
            let entry = &self.branching[slot as usize];
            if entry.pattern.matches(document) {
                self.hits.push(entry.key);
            }
        }
        self.hits.sort_unstable();
        &self.hits
    }
}

/// The borrowed pieces of a [`PatternSet`] one document walk works on.
struct Walk<'a> {
    nodes: &'a mut [Node],
    branching: &'a mut [Branching],
    active: &'a mut Vec<u32>,
    candidates: &'a mut Vec<u32>,
    hits: &'a mut Vec<u64>,
    /// The visit count when the walk began: a mark at or below it is from an
    /// earlier document.
    document: u64,
    /// The number of the document node being visited.
    visit: u64,
}

impl Walk<'_> {
    /// Put forest node `at` into the active set of the current visit, and
    /// with it whatever hangs off it by `//` (which may match the empty
    /// path). The first time a node is reached in a document its patterns
    /// are credited.
    fn enter(&mut self, mut at: u32) {
        while at != NONE {
            let node = &mut self.nodes[at as usize];
            // A `//` node can arrive twice at one visit: carried down from
            // above, and re-reached through its parent. Once is enough, and
            // without this the active set grows combinatorially on
            // `//a//a//a` against `<a><a><a>…`.
            if node.mark == self.visit {
                return;
            }
            let first = node.mark <= self.document;
            node.mark = self.visit;
            // Only a node with steps to take is of use to the children.
            if !node.tags.is_empty() || node.wildcard != NONE {
                self.active.push(at);
            }
            if first {
                self.hits.extend_from_slice(&node.linear);
                for &slot in &node.branching {
                    let entry = &mut self.branching[slot as usize];
                    if entry.document != self.document {
                        entry.document = self.document;
                        entry.reached = 0;
                    }
                    entry.reached += 1;
                    if entry.reached == entry.leaves {
                        self.candidates.push(slot);
                    }
                }
            }
            at = node.descendant;
        }
    }

    /// Visit document node `node`, whose parent reached
    /// `active[begin..end]`; returns the frame of what `node` reaches.
    fn descend(&mut self, document: &XmlTree, node: NodeId, begin: usize, end: usize) -> Frame {
        self.visit += 1;
        let label = document.label(node);
        let hash = label_hash(label);
        let frame_begin = self.active.len();
        for index in begin..end {
            let at = self.active[index];
            let from = &self.nodes[at as usize];
            let wildcard = from.wildcard;
            let tagged = match from.tag_position(hash, label) {
                Ok(position) => from.tags[position].to,
                Err(_) => NONE,
            };
            if from.is_descendant {
                self.enter(at);
            }
            self.enter(wildcard);
            self.enter(tagged);
        }
        Frame {
            node,
            next_child: 0,
            begin: frame_begin,
            end: self.active.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(patterns: &[&str]) -> PatternSet {
        let mut set = PatternSet::new();
        for (key, text) in patterns.iter().enumerate() {
            set.insert(key as u64, &TreePattern::parse(text).unwrap());
        }
        set
    }

    fn brute_force(patterns: &[&str], document: &XmlTree) -> Vec<u64> {
        patterns
            .iter()
            .enumerate()
            .filter(|(_, text)| TreePattern::parse(text).unwrap().matches(document))
            .map(|(key, _)| key as u64)
            .collect()
    }

    /// The document of Figure 1.
    fn figure1() -> XmlTree {
        XmlTree::parse(
            "<media>\
               <book>\
                 <author><first>William</first><last>Shakespeare</last></author>\
                 <title>Hamlet</title>\
               </book>\
               <CD>\
                 <composer><first>Wolfgang</first><last>Mozart</last></composer>\
                 <title>Requiem</title>\
                 <interpreter><ensemble>Berliner Phil.</ensemble></interpreter>\
               </CD>\
             </media>",
        )
        .unwrap()
    }

    #[test]
    fn agrees_with_the_reference_on_the_matching_suite() {
        let patterns = [
            "/media/CD/*/last/Mozart",
            "//CD/Mozart",
            ".[//CD][//Mozart]",
            "//composer[last/Mozart]",
            "/.",
            "/media",
            "/CD",
            "/*/CD",
            "/*/DVD",
            "//media",
            "//ensemble/\"Berliner Phil.\"",
            "/media//last",
            "/media[book/title][CD/title]",
            "/media[book/composer][CD/title]",
            "/media/book[author/last/Mozart]",
            "//*/*/*/*/Mozart",
            "/media//*",
            "//Hamlet",
        ];
        let mut set = set_of(&patterns);
        let document = figure1();
        assert_eq!(set.matches(&document), brute_force(&patterns, &document));
        let other = XmlTree::parse("<a><b><c/></b><b><d/></b></a>").unwrap();
        assert_eq!(set.matches(&other), brute_force(&patterns, &other));
        assert_eq!(set.len(), patterns.len());
    }

    #[test]
    fn branches_reached_in_different_places_are_verified_not_assumed() {
        // Both leaf paths /a/b/c and /a/b/d exist, but under different `b`s.
        let patterns = ["/a/b[c][d]", "/a[b/c][b/d]", "/a/b/c"];
        let mut set = set_of(&patterns);
        let apart = XmlTree::parse("<a><b><c/></b><b><d/></b></a>").unwrap();
        assert_eq!(set.matches(&apart), &[1, 2]);
        let together = XmlTree::parse("<a><b><c/><d/></b></a>").unwrap();
        assert_eq!(set.matches(&together), &[0, 1, 2]);
    }

    #[test]
    fn duplicate_patterns_report_every_key() {
        let mut set = PatternSet::new();
        let pattern = TreePattern::parse("//b").unwrap();
        let branching = TreePattern::parse("/a[b][b]").unwrap();
        set.insert(7, &pattern);
        set.insert(3, &pattern);
        set.insert(5, &branching);
        set.insert(4, &branching);
        let document = XmlTree::parse("<a><b/></a>").unwrap();
        assert_eq!(set.matches(&document), &[3, 4, 5, 7]);
        assert!(set.remove(3, &pattern));
        assert!(set.remove(5, &branching));
        assert_eq!(set.matches(&document), &[4, 7]);
    }

    #[test]
    fn remove_frees_the_nodes_only_that_pattern_used() {
        let mut set = set_of(&["/a/b/c", "/a/b"]);
        let with_two = set.node_count();
        let extra = TreePattern::parse("/a/b[c//x][*/y]").unwrap();
        set.insert(9, &extra);
        assert!(set.node_count() > with_two);
        assert!(set.remove(9, &extra));
        assert_eq!(set.node_count(), with_two);
        assert!(!set.remove(9, &extra), "already gone");
        assert!(set.remove(0, &TreePattern::parse("/a/b/c").unwrap()));
        assert!(set.remove(1, &TreePattern::parse("/a/b").unwrap()));
        assert_eq!(set.node_count(), 1, "only the root is left");
        assert!(set.is_empty());
        let document = XmlTree::parse("<a><b><c/></b></a>").unwrap();
        assert!(set.matches(&document).is_empty());
    }

    #[test]
    fn removing_an_unknown_key_changes_nothing() {
        let mut set = set_of(&["/a/b", "/a[b][c]"]);
        let nodes = set.node_count();
        assert!(!set.remove(5, &TreePattern::parse("/a/b").unwrap()));
        assert!(!set.remove(5, &TreePattern::parse("/a[b][c]").unwrap()));
        assert!(!set.remove(0, &TreePattern::parse("/x/y").unwrap()));
        assert_eq!((set.len(), set.node_count()), (2, nodes));
    }

    #[test]
    fn nested_descendants_do_not_multiply_the_active_set() {
        // Without per-visit deduplication the `//` states double at every
        // level of this document and the walk never finishes.
        let steps = 40;
        let depth = 200;
        let mut set = PatternSet::new();
        let text = "//a".repeat(steps);
        set.insert(0, &TreePattern::parse(&text).unwrap());
        set.insert(1, &TreePattern::parse(&format!("{text}//b")).unwrap());
        let mut document = XmlTree::new("a");
        let mut at = document.root();
        for _ in 1..depth {
            at = document.add_child(at, "a");
        }
        assert_eq!(set.matches(&document), &[0]);
    }

    #[test]
    fn a_stream_of_documents_reuses_the_set() {
        let patterns = ["//b", "/a[b][c]", "/a/c"];
        let mut set = set_of(&patterns);
        for text in ["<a><b/></a>", "<a><c/></a>", "<a><b/><c/></a>", "<x/>"] {
            let document = XmlTree::parse(text).unwrap();
            assert_eq!(
                set.matches(&document),
                brute_force(&patterns, &document),
                "{text}"
            );
        }
    }

    #[test]
    fn a_misplaced_root_label_matches_nothing_like_the_reference() {
        if cfg!(debug_assertions) {
            // add_child refuses to build such a pattern in debug builds.
            return;
        }
        let mut pattern = TreePattern::new();
        let a = pattern.add_child(pattern.root(), PatternLabel::tag("a"));
        pattern.add_child(a, PatternLabel::Root);
        let mut set = PatternSet::new();
        set.insert(0, &pattern);
        let document = XmlTree::parse("<a><b/></a>").unwrap();
        assert!(!pattern.matches(&document));
        assert!(set.matches(&document).is_empty());
        assert!(set.remove(0, &pattern));
        assert_eq!(set.node_count(), 1);
    }
}
