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
//!
//! # The path cache
//!
//! Which forest nodes are reached at a document node depends only on the
//! node's root-to-node label path and on the forest, and a stream of
//! documents of one kind has few distinct label paths. The set therefore
//! remembers the paths it has walked in a trie (the lazily built DFA of the
//! filtering engines, one state per path): a trie node holds the forest nodes
//! that still have steps to take below that path and the forest nodes that
//! credit patterns there. A path seen before costs one child lookup; a new
//! path takes one step from its parent's forest nodes and is stored.
//!
//! * Tag labels on forest edges are interned as symbols. A document label is
//!   resolved once per node, and every label no pattern mentions resolves to
//!   one shared symbol that follows only `*` edges — so text content, which
//!   rarely repeats, does not fan the trie out.
//! * The trie stays valid while the forest keeps its shape and no forest
//!   node gets its first pattern to credit: keys are read from the forest at
//!   crediting time, so a duplicate subscription, or a departure that frees
//!   no forest node, keeps it. Any other change forgets the whole trie; its
//!   arenas are cleared, not freed, and refilled.
//! * The trie is bounded by a fixed multiple of the forest's size. Paths
//!   beyond the bound are computed, used and dropped again, and the next
//!   document starts from an empty trie.

use std::collections::HashMap;

use tps_xml::{NodeId, XmlTree};

use crate::pattern::{PatternLabel, PatternNodeId, TreePattern};

/// "No such forest node."
const NONE: u32 = u32::MAX;

/// The symbol of every label that is on no forest edge.
const OTHER: u32 = 0;

/// What the path cache may hold — trie nodes plus the forest-node references
/// stored in them — per forest node of the set.
///
/// Sized from the `match_set/*` benches (`crates/bench/benches/matching.rs`,
/// generated nitf subscriptions and documents). Once every document of the
/// pool has been walked the cache holds, per forest node,
///
/// | subscriptions (forest nodes) | 64-document pool | 512-document pool |
/// |---|---:|---:|
/// | 1 000 (2 568) | 30 | 131 |
/// | 10 000 (18 394) | 12 | 51 |
/// | 100 000 (109 119) | 6 | 26 |
///
/// entries: the label paths of a stream saturate (3 358 and 14 986 trie nodes
/// here) and the forest nodes reached per path grow more slowly than the
/// forest. Nearly twice the largest figure keeps streams of that kind
/// resident, and caps what a stream of never-repeating paths can make the
/// set hold at 1 KiB per forest node — at 10 000 subscriptions 18 MiB, about
/// three times what the forest and its patterns take themselves.
const CACHE_ENTRIES_PER_FOREST_NODE: usize = 256;

/// The tag labels on forest edges, interned as symbols and counted by the
/// edges that carry them.
#[derive(Debug, Clone)]
struct Alphabet {
    symbols: HashMap<Box<str>, u32>,
    /// Forest edges per symbol; slot [`OTHER`] stays 0.
    edges: Vec<u32>,
    free: Vec<u32>,
}

impl Alphabet {
    fn new() -> Self {
        Self {
            symbols: HashMap::new(),
            edges: vec![0],
            free: Vec::new(),
        }
    }

    /// The symbol of `label`, [`OTHER`] if no forest edge carries it.
    fn symbol(&self, label: &str) -> u32 {
        self.symbols.get(label).copied().unwrap_or(OTHER)
    }

    /// The symbol of `label` for one more forest edge.
    fn acquire(&mut self, label: &str) -> u32 {
        let symbol = match self.symbols.get(label) {
            Some(&symbol) => symbol,
            None => {
                let symbol = self.free.pop().unwrap_or_else(|| {
                    self.edges.push(0);
                    (self.edges.len() - 1) as u32
                });
                self.symbols.insert(label.into(), symbol);
                symbol
            }
        };
        self.edges[symbol as usize] += 1;
        symbol
    }

    /// One of the forest edges labelled `label` is gone.
    fn release(&mut self, label: &str) {
        let symbol = self.symbol(label);
        self.edges[symbol as usize] -= 1;
        if self.edges[symbol as usize] == 0 {
            self.symbols.remove(label);
            self.free.push(symbol);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TagEdge {
    symbol: u32,
    to: u32,
}

/// One forest node: the state "this step path has been matched down to here".
#[derive(Debug, Clone)]
struct Node {
    /// Tag edges, sorted by symbol.
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
    /// Clock reading of the step computation that last reached the node.
    mark: u64,
    /// Clock reading of the document that last credited the node's patterns.
    credited: u64,
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
            credited: 0,
        }
    }

    fn tag_position(&self, symbol: u32) -> Result<usize, usize> {
        self.tags.binary_search_by_key(&symbol, |edge| edge.symbol)
    }

    /// Whether a child of a document node that reached this node can follow
    /// an edge out of it.
    fn has_steps(&self) -> bool {
        !self.tags.is_empty() || self.wildcard != NONE
    }

    /// Whether reaching this node credits a pattern.
    fn accepts(&self) -> bool {
        !self.linear.is_empty() || !self.branching.is_empty()
    }

    fn is_unused(&self) -> bool {
        !self.has_steps() && self.descendant == NONE && self.unmatchable == NONE && !self.accepts()
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
    /// How many of them the document stamped `document` has reached.
    reached: u32,
    document: u64,
}

/// One trie node of the path cache: what a document node with this
/// root-to-node label path reaches.
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// `refs[begin..][..steps]` are the forest nodes with steps to take,
    /// the next `credits` entries the forest nodes that credit patterns.
    begin: usize,
    steps: u32,
    credits: u32,
    /// Clock reading of the document that last credited from this path.
    seen: u64,
}

/// Health of the path cache of a [`PatternSet`], from
/// [`PatternSet::cache_stats`]. Counters run over the set's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCacheStats {
    /// Document nodes whose path was in the cache: one lookup each.
    pub hits: u64,
    /// Document nodes whose path was new: one forest step each.
    pub misses: u64,
    /// Trie nodes (distinct label paths) held now.
    pub nodes: usize,
    /// Forest-node references held by those trie nodes.
    pub references: usize,
    /// The most `nodes + references` may reach for the present forest.
    pub bound: usize,
    /// Times a change of the pattern set emptied a non-empty cache.
    pub view_resets: u64,
    /// Times the cache was emptied because it had reached its bound.
    pub full_resets: u64,
}

/// The trie over the label paths matched so far, in flat arenas: forgetting
/// it clears two vectors and a map, all of which keep their allocations.
#[derive(Debug, Clone)]
struct PathCache {
    /// Trie nodes; 0 is the virtual node above the document root. Those from
    /// `kept` on were computed past the bound and belong to the document
    /// nodes on the walk's stack only.
    paths: Vec<PathNode>,
    refs: Vec<u32>,
    kept: usize,
    /// `(parent, symbol) → child`, for the kept trie nodes.
    children: HashMap<(u32, u32), u32>,
    /// A path did not fit: start over at the next document.
    full: bool,
    hits: u64,
    misses: u64,
    view_resets: u64,
    full_resets: u64,
}

impl PathCache {
    fn new() -> Self {
        Self {
            paths: Vec::new(),
            refs: Vec::new(),
            kept: 0,
            children: HashMap::new(),
            full: false,
            hits: 0,
            misses: 0,
            view_resets: 0,
            full_resets: 0,
        }
    }

    /// Forget every path.
    fn reset(&mut self) {
        self.paths.clear();
        self.refs.clear();
        self.kept = 0;
        self.full = false;
        self.children.clear();
    }

    /// The pattern set changed in a way the stored paths do not survive.
    fn invalidate(&mut self) {
        if !self.paths.is_empty() {
            self.reset();
            self.view_resets += 1;
        }
    }

    /// The walk leaves the document node that reached `path`: a path computed
    /// past the bound goes with it.
    fn leave(&mut self, path: u32) {
        if path as usize >= self.kept {
            self.refs.truncate(self.paths[path as usize].begin);
            self.paths.truncate(path as usize);
        }
    }
}

/// A document node on the walk's stack and the trie node of its path.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: NodeId,
    next_child: usize,
    path: u32,
}

/// A set of tree patterns under caller-chosen keys, matched against a
/// document in one walk.
///
/// Keys are the caller's (subscriber ids, consumer indices) and must be
/// unique among the patterns currently in the set.
///
/// The set learns the label paths of the documents it matches (see the
/// [module documentation](self)): on a stream of similar documents most
/// document nodes cost one lookup. `insert` and `remove` stay linear in the
/// pattern; one that adds or frees a forest node, or gives a forest node its
/// first key, makes the set forget the paths, and the next documents teach
/// them again. [`PatternSet::cache_stats`] reports how that is going.
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
    alphabet: Alphabet,
    branching: Vec<Branching>,
    free_branching: Vec<u32>,
    len: usize,
    /// Ticks once per document and once per step computed; `Node::mark`,
    /// `Node::credited`, `PathNode::seen` and `Branching::document` hold
    /// readings of it.
    clock: u64,
    cache: PathCache,
    // Scratch of `matches`, kept so a steady stream allocates nothing.
    crediting: Vec<u32>,
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
            alphabet: Alphabet::new(),
            branching: Vec::new(),
            free_branching: Vec::new(),
            len: 0,
            clock: 0,
            cache: PathCache::new(),
            crediting: Vec::new(),
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

    /// How the path cache is doing.
    pub fn cache_stats(&self) -> PathCacheStats {
        PathCacheStats {
            hits: self.cache.hits,
            misses: self.cache.misses,
            nodes: self.cache.paths.len(),
            references: self.cache.refs.len(),
            bound: self.cache_bound(),
            view_resets: self.cache.view_resets,
            full_resets: self.cache.full_resets,
        }
    }

    /// The most trie nodes plus forest-node references the cache keeps.
    fn cache_bound(&self) -> usize {
        self.node_count()
            .saturating_mul(CACHE_ENTRIES_PER_FOREST_NODE)
            .min(u32::MAX as usize / 2)
    }

    /// Add `pattern` under `key`, in time linear in the pattern's size.
    pub fn insert(&mut self, key: u64, pattern: &TreePattern) {
        let mut leaves = Vec::new();
        self.insert_paths(0, pattern, pattern.root(), &mut leaves);
        // The cached paths list the forest nodes that credit; one more such
        // node is not in them. This covers every new forest node too: a new
        // step path ends in a new leaf, which credited nothing so far.
        if leaves
            .iter()
            .any(|&leaf| !self.nodes[leaf as usize].accepts())
        {
            self.cache.invalidate();
        }
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
            PatternLabel::Tag(tag) => match node.tag_position(self.alphabet.symbol(tag)) {
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
                let symbol = self.alphabet.acquire(tag);
                let position = node.tag_position(symbol).unwrap_or_else(|free| free);
                node.tags.insert(position, TagEdge { symbol, to });
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
                if let Ok(position) = node.tag_position(self.alphabet.symbol(tag)) {
                    node.tags.remove(position);
                    self.alphabet.release(tag);
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
                self.cache.invalidate();
            }
        }
        removed
    }

    /// The keys of the patterns `document` satisfies, ascending: exactly
    /// those for which [`TreePattern::matches`] is true.
    ///
    /// The document and the trie of known label paths are walked together:
    /// a document node whose path is known is one lookup, a new path is
    /// computed from its parent's forest nodes and remembered. Patterns are
    /// credited once per document, the first time a path that reaches them
    /// occurs in it; a subtree under a path that reaches nothing with steps
    /// left is skipped.
    pub fn matches(&mut self, document: &XmlTree) -> &[u64] {
        self.clock += 1;
        self.candidates.clear();
        self.hits.clear();
        if self.cache.full {
            self.cache.reset();
            self.cache.full_resets += 1;
        }
        let bound = self.cache_bound();
        let mut walk = Walk {
            nodes: &mut self.nodes,
            branching: &mut self.branching,
            alphabet: &self.alphabet,
            cache: &mut self.cache,
            crediting: &mut self.crediting,
            candidates: &mut self.candidates,
            hits: &mut self.hits,
            document: self.clock,
            clock: self.clock,
            bound,
        };

        // The virtual node reaches the forest root (and what `//` hangs off
        // it); the document root is its only child.
        if walk.cache.paths.is_empty() {
            walk.compute(None, OTHER);
        }
        walk.credit(0);
        self.stack.clear();
        self.stack.push(Frame {
            node: document.root(),
            next_child: 0,
            path: walk.step(0, document.label(document.root())),
        });
        while let Some(frame) = self.stack.last_mut() {
            let children = document.children(frame.node);
            // Nothing with steps to take here means nothing is reached below.
            if walk.cache.paths[frame.path as usize].steps > 0 && frame.next_child < children.len()
            {
                let child = children[frame.next_child];
                frame.next_child += 1;
                let path = walk.step(frame.path, document.label(child));
                self.stack.push(Frame {
                    node: child,
                    next_child: 0,
                    path,
                });
            } else {
                walk.cache.leave(frame.path);
                self.stack.pop();
            }
        }
        self.clock = walk.clock;

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
    alphabet: &'a Alphabet,
    cache: &'a mut PathCache,
    crediting: &'a mut Vec<u32>,
    candidates: &'a mut Vec<u32>,
    hits: &'a mut Vec<u64>,
    /// The clock reading that stamps this document.
    document: u64,
    clock: u64,
    bound: usize,
}

impl Walk<'_> {
    /// The trie node of a child labelled `label` of a document node at trie
    /// node `parent`, its patterns credited.
    fn step(&mut self, parent: u32, label: &str) -> u32 {
        let symbol = self.alphabet.symbol(label);
        let path = match self.cache.children.get(&(parent, symbol)) {
            Some(&path) => {
                self.cache.hits += 1;
                path
            }
            None => {
                self.cache.misses += 1;
                self.compute(Some(parent), symbol)
            }
        };
        self.credit(path);
        path
    }

    /// Credit the patterns reached at trie node `path`, unless this document
    /// has been there before.
    fn credit(&mut self, path: u32) {
        let path = &mut self.cache.paths[path as usize];
        if path.seen == self.document {
            return;
        }
        path.seen = self.document;
        let begin = path.begin + path.steps as usize;
        for &at in &self.cache.refs[begin..begin + path.credits as usize] {
            let node = &mut self.nodes[at as usize];
            // Another path of this document may have reached the node.
            if node.credited == self.document {
                continue;
            }
            node.credited = self.document;
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
    }

    /// Compute the trie node below `parent` for `symbol` (`None`: the
    /// virtual node) by taking one step from each of the parent's forest
    /// nodes, and keep it if the bound allows.
    fn compute(&mut self, parent: Option<u32>, symbol: u32) -> u32 {
        self.clock += 1;
        self.crediting.clear();
        let begin = self.cache.refs.len();
        match parent {
            None => self.enter(0),
            Some(parent) => {
                let from = self.cache.paths[parent as usize];
                for index in from.begin..from.begin + from.steps as usize {
                    let at = self.cache.refs[index];
                    let node = &self.nodes[at as usize];
                    let wildcard = node.wildcard;
                    let tagged = match node.tag_position(symbol) {
                        Ok(position) => node.tags[position].to,
                        Err(_) => NONE,
                    };
                    // A `//` node stays reached below where it was entered.
                    // What hangs off it by `//` was entered with it, so it
                    // is among the parent's nodes itself, and both were
                    // credited up there.
                    if node.is_descendant && node.mark != self.clock {
                        self.nodes[at as usize].mark = self.clock;
                        self.cache.refs.push(at);
                    }
                    self.enter(wildcard);
                    self.enter(tagged);
                }
            }
        }
        let steps = self.cache.refs.len() - begin;
        self.cache.refs.extend_from_slice(self.crediting);
        let path = self.cache.paths.len() as u32;
        self.cache.paths.push(PathNode {
            begin,
            steps: steps as u32,
            credits: self.crediting.len() as u32,
            seen: 0,
        });
        match parent {
            None => self.cache.kept = 1,
            // A path below one that is not kept is not kept either: its
            // parent's number will be used again.
            Some(parent)
                if (parent as usize) < self.cache.kept
                    && self.cache.paths.len() + self.cache.refs.len() <= self.bound =>
            {
                self.cache.kept += 1;
                self.cache.children.insert((parent, symbol), path);
            }
            Some(_) => self.cache.full = true,
        }
        path
    }

    /// Put forest node `at` among those reached by the step being computed,
    /// and with it whatever hangs off it by `//` (which may match the empty
    /// path).
    fn enter(&mut self, mut at: u32) {
        while at != NONE {
            let node = &mut self.nodes[at as usize];
            // A `//` node can arrive twice in one step: carried down from
            // above, and re-reached through its parent. Once is enough, and
            // without this the reached set grows combinatorially on
            // `//a//a//a` against `<a><a><a>…`.
            if node.mark == self.clock {
                return;
            }
            node.mark = self.clock;
            // Only a node with steps to take is of use to the children.
            if node.has_steps() {
                self.cache.refs.push(at);
            }
            if node.accepts() {
                self.crediting.push(at);
            }
            at = node.descendant;
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

    /// A chain document: one node per label, each the child of the last.
    fn chain(labels: &[&str]) -> XmlTree {
        let mut document = XmlTree::new(labels[0]);
        let mut at = document.root();
        for label in &labels[1..] {
            at = document.add_child(at, label);
        }
        document
    }

    #[test]
    fn labels_no_pattern_mentions_share_one_path() {
        let patterns = ["/feed/item/*", "//item/title", "/feed[item/title][item/*]"];
        let mut set = set_of(&patterns);
        let mut document = XmlTree::new("feed");
        let item = document.add_child(document.root(), "item");
        let title = document.add_child(item, "title");
        document.add_text_child(title, "a title");
        assert_eq!(set.matches(&document), brute_force(&patterns, &document));
        let learnt = set.cache_stats().nodes;

        for text in 0..1_000 {
            document.add_text_child(item, &format!("text {text}"));
        }
        assert_eq!(set.matches(&document), brute_force(&patterns, &document));
        let stats = set.cache_stats();
        assert_eq!(stats.nodes, learnt + 1, "1 000 unknown labels, one path");
        assert_eq!(stats.misses as usize, stats.nodes - 1);
        assert_eq!((stats.view_resets, stats.full_resets), (0, 0));

        // The same document with every text changed is all hits.
        let mut changed = XmlTree::new("feed");
        let item = changed.add_child(changed.root(), "item");
        let title = changed.add_child(item, "title");
        changed.add_text_child(title, "another title");
        for text in 0..1_000 {
            changed.add_text_child(item, &format!("other {text}"));
        }
        assert_eq!(set.matches(&changed), brute_force(&patterns, &changed));
        let after = set.cache_stats();
        assert_eq!((after.misses, after.nodes), (stats.misses, stats.nodes));
        assert_eq!(after.hits, stats.hits + changed.node_count() as u64);
    }

    #[test]
    fn never_repeating_paths_stay_under_the_bound() {
        let patterns = ["//a//b", "//c/a", "/a//c[a][b]", "//b/*/c", "/*/*/b"];
        let mut set = set_of(&patterns);
        let bound = set.cache_stats().bound;
        let labels = ["a", "b", "c"];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200 {
            // 3^40 possible chains: no path below the first levels repeats.
            let picks: Vec<&str> = (0..40)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    labels[(state >> 33) as usize % labels.len()]
                })
                .collect();
            let document = chain(&picks);
            assert_eq!(set.matches(&document), brute_force(&patterns, &document));
            let stats = set.cache_stats();
            assert!(
                stats.nodes + stats.references <= bound,
                "{stats:?} exceeds its bound"
            );
        }
        let stats = set.cache_stats();
        assert!(stats.full_resets > 0, "{stats:?}");
        assert_eq!(stats.view_resets, 0);
        assert_eq!(stats.bound, bound, "the forest did not change");
    }

    #[test]
    fn a_single_chain_longer_than_the_bound_is_matched_without_keeping_it() {
        let patterns = ["//a//a//b", "//a/a/a"];
        let mut set = set_of(&patterns);
        let bound = set.cache_stats().bound;
        let mut labels = vec!["a"; bound];
        labels.push("b");
        let document = chain(&labels);
        assert_eq!(set.matches(&document), &[0, 1]);
        let stats = set.cache_stats();
        assert!(stats.nodes + stats.references <= bound, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, document.node_count() as u64);
        // The next document starts over and is still right.
        assert_eq!(set.matches(&chain(&["a", "a", "b"])), &[0]);
        assert_eq!(set.cache_stats().full_resets, 1);
    }

    #[test]
    fn only_a_change_the_paths_do_not_survive_resets_the_cache() {
        let patterns = ["//b", "/a[b][c]", "/a/c"];
        let mut set = set_of(&patterns);
        let document = XmlTree::parse("<a><b/><c/></a>").unwrap();
        assert_eq!(set.matches(&document), &[0, 1, 2]);
        let learnt = set.cache_stats();
        assert!(learnt.nodes > 1);

        // A second key at each leaf, linear and branching, and its departure.
        let linear = TreePattern::parse("//b").unwrap();
        let branching = TreePattern::parse("/a[b][c]").unwrap();
        set.insert(10, &linear);
        set.insert(11, &branching);
        assert_eq!(set.matches(&document), &[0, 1, 2, 10, 11]);
        assert!(set.remove(0, &linear));
        assert!(set.remove(1, &branching));
        assert_eq!(set.matches(&document), &[2, 10, 11]);
        let kept = set.cache_stats();
        assert_eq!((kept.view_resets, kept.nodes), (0, learnt.nodes));
        assert_eq!(kept.misses, learnt.misses, "both documents were all hits");

        // A new step is a new forest node.
        let deeper = TreePattern::parse("/a/c/d").unwrap();
        set.insert(12, &deeper);
        assert_eq!(set.cache_stats().view_resets, 1);
        assert_eq!(set.cache_stats().nodes, 0);
        assert_eq!(set.matches(&document), &[2, 10, 11]);
        // Taking it away frees that node again.
        assert!(set.remove(12, &deeper));
        assert_eq!(set.cache_stats().view_resets, 2);
        assert_eq!(set.matches(&document), &[2, 10, 11]);
        // The first key at an inner node: one more node that credits.
        let inner = TreePattern::parse("/a").unwrap();
        set.insert(13, &inner);
        assert_eq!(set.cache_stats().view_resets, 3);
        assert_eq!(set.matches(&document), &[2, 10, 11, 13]);
        // Its last key leaves and the node stays, with nothing to credit.
        assert!(set.remove(13, &inner));
        assert_eq!(set.cache_stats().view_resets, 3);
        assert_eq!(set.matches(&document), &[2, 10, 11]);
        assert_eq!(set.cache_stats().full_resets, 0);
    }

    #[test]
    fn a_label_leaving_and_rejoining_the_alphabet_keeps_matching() {
        let mut set = set_of(&["/a/b", "/a/c"]);
        let document = XmlTree::parse("<a><b/><c/><d/></a>").unwrap();
        assert_eq!(set.matches(&document), &[0, 1]);
        assert!(set.remove(0, &TreePattern::parse("/a/b").unwrap()));
        assert_eq!(set.matches(&document), &[1]);
        // `d` takes the symbol `b` gave back.
        set.insert(2, &TreePattern::parse("/a/d").unwrap());
        set.insert(3, &TreePattern::parse("//b").unwrap());
        assert_eq!(set.matches(&document), &[1, 2, 3]);
    }
}
