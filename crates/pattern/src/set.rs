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
//! The walk is a [`SkeletonSink`]: it takes the `open` / `text` / `close`
//! events of the byte scanner ([`PatternSet::matches_bytes`]), and
//! [`PatternSet::matches`] replays a parsed tree as the same events. A
//! subtree under a path that reaches nothing with steps left is skipped with
//! a depth counter.
//!
//! * A pattern **without branches** matches iff the forest node of its leaf
//!   is reached.
//! * A **branching** pattern is decided exactly from the walk's record. Each
//!   one is compiled at `insert` to its pattern nodes — forest node, parent,
//!   how many conditions each needs — from its topmost branch node down (the
//!   single path above it is the branch node's own forest node). A tag or `*`
//!   node that has no tag or `*` child carries an *anchor* at its forest
//!   node: "this node is reached here". The pattern is a candidate once
//!   every anchor was reached somewhere in the document (each branch is
//!   existential on its own, so that is necessary, not sufficient:
//!   `/a[b/c][b/d]` needs one `a`, not two).
//! * The walk records every document node it visits, in document order, as
//!   its parent and the anchors its path reaches; skipped subtrees hold no
//!   pattern node. After the walk, one reverse (post-order) pass over that
//!   record decides the candidates bottom-up, reading only their anchors. A
//!   tag or `*` node holds at document node `z` iff its anchor was reached
//!   at `z` (when it has one) and each child holds: a tag or `*` child at
//!   some child of `z`, a `//` child at `z` itself. A `//` node holds at `y`
//!   iff all its children hold at `y`, or it holds at some child of `y`.
//!   The pattern matches iff its topmost branch node (or, for a `//` one,
//!   that node's parent) holds anywhere. Reaching a forest node means the
//!   label matched *and* the parent image is this instance, so no label is
//!   compared: `//a[b][c]` does not match `<a><a><b/></a><c/></a>`, whose
//!   `b` hangs off the other `a`.
//! * A tag or `*` node that holds tells its parent node at the parent
//!   document node. A `//` node only remembers the first document node it
//!   holds at: a subtree is a run of the record, so "holds at some
//!   descendant of `x`" is one comparison with the end of `x`'s run. A node
//!   with `//` children is settled after everything else at its document
//!   node, deepest node first.
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
//! * A trie node's run depends on a forest node only through its *status*:
//!   whether it has steps to take, whether it credits, whether it holds an
//!   anchor. Keys are read from the forest at crediting time, so a duplicate
//!   subscription, or a departure that leaves every status as it was,
//!   touches no run.
//! * Any other `insert` or `remove` repairs the trie instead of forgetting
//!   it, as YFilter keeps its shared automaton across query changes. Only
//!   the pattern's own forest nodes can change status (new, freed, first or
//!   last steps, key or anchor), and a run can only change where one of
//!   those is reached. Those trie nodes are found by following the
//!   pattern's steps down the trie (a tag is a child lookup; after `*` and
//!   `//` the tag's trie nodes are found either below the frontier or among
//!   all trie nodes with its label, whichever is fewer), and their runs are
//!   edited in place, parents first. Every trie node records its parent,
//!   label, children and subtree size for this, and the trie nodes of each
//!   label are listed. Labels are resolved to symbols before a removal
//!   unlinks them: a label that leaves the alphabet resolves to the shared
//!   symbol afterwards, and the trie nodes filed under its own symbol must
//!   still be found. Those trie nodes stay, kept exact, for the label that
//!   takes the symbol next.
//! * A run that outgrows its room moves to the end of the arena with an
//!   eighth more room. What it leaves is garbage, counted against the bound
//!   like the rest and reclaimed by compacting the arena in place.
//! * The trie is bounded by a fixed multiple of the forest's size. Paths
//!   beyond the bound are computed, used and dropped again when the walk
//!   leaves them (the record keeps a copy of their anchors), and the next
//!   document starts from an empty trie; so does the next view change if
//!   its repair leaves the trie over the bound.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

use tps_xml::{scan_document, ScanLimits, SkeletonSink, XmlError, XmlTree};

use crate::pattern::{PatternLabel, PatternNodeId, TreePattern};

/// "No such forest node", and "no parent" in the walk's record and a
/// compiled pattern.
const NONE: u32 = u32::MAX;

/// The symbol of every label that is on no forest edge.
const OTHER: u32 = 0;

/// The bits of [`Node::status`] that decide which runs of the path cache a
/// forest node is in.
const IN_RUNS: u8 = 0b0111;

/// The bit of [`Node::status`] of a `//` node that credits or has a `//`
/// below it: a document step stops where it reaches a carried `//` node,
/// so such a node decides whether the nodes below it are entered, and
/// credited, where it is reached.
const REFILL: u8 = 0b1000;

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
    /// Slots of the branching patterns with an anchor at this node, once
    /// per anchor.
    anchors: Vec<u32>,
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
            anchors: Vec::new(),
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
        !self.linear.is_empty() || !self.anchors.is_empty()
    }

    fn is_unused(&self) -> bool {
        !self.has_steps() && self.descendant == NONE && self.unmatchable == NONE && !self.accepts()
    }

    /// What decides the runs of the path cache the node is in ([`IN_RUNS`]:
    /// whether it is among the nodes with steps, among those that credit,
    /// and in the anchored section; a node in none of them is in no run),
    /// and whether a repair recomputes those runs ([`REFILL`]).
    fn status(&self) -> u8 {
        let refill = self.is_descendant && (self.accepts() || self.descendant != NONE);
        u8::from(self.has_steps())
            | u8::from(self.accepts()) << 1
            | u8::from(!self.anchors.is_empty()) << 2
            | u8::from(refill) << 3
    }
}

/// One pattern node of a compiled branching pattern.
#[derive(Debug, Clone, Copy)]
struct Twig {
    forest: u32,
    /// Index of the parent twig; [`NONE`] for the one that decides.
    parent: u32,
    descendant: bool,
    /// Whether the node holds an anchor at its forest node.
    anchored: bool,
    /// Conditions to meet at one document node: one per tag or `*` child,
    /// one for the anchor.
    needs: u32,
    /// The first of its `//` children, which are threaded through
    /// `across`; [`NONE`] if it has none.
    down: u32,
    across: u32,
}

/// A branching pattern: a candidate once all its anchors are reached, then
/// decided by the record pass.
#[derive(Debug, Clone)]
struct Branching {
    key: u64,
    /// Its pattern nodes from the one that decides down, parents first.
    twigs: Box<[Twig]>,
    /// Number of anchored twigs. Two of them may sit at one forest node
    /// (`/a[b][b]`), which then holds the pattern's slot twice.
    anchors: u32,
    /// How many of them the document stamped `document` has reached.
    reached: u32,
    document: u64,
}

/// The lengths of one trie node's run in `PathCache::refs`.
#[derive(Debug, Clone, Copy)]
struct Run {
    steps: u32,
    anchored: u32,
    credits: u32,
}

/// One trie node of the path cache: what a document node with this
/// root-to-node label path reaches.
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// `refs[begin..][..steps]` are the forest nodes with steps to take,
    /// the next `credits` entries the forest nodes that credit patterns,
    /// those holding anchors first (`anchored` of them). The run may grow
    /// in place up to `room` entries.
    begin: usize,
    steps: u32,
    credits: u32,
    anchored: u32,
    room: u32,
    /// Clock reading of the document that last credited from this path.
    seen: u64,
    /// The trie node one label up ([`NONE`] for the virtual node), and the
    /// symbol of the label.
    parent: u32,
    symbol: u32,
    /// Kept trie nodes in its subtree, itself included.
    size: u32,
    /// Lists threaded through the kept trie nodes: the first child, the
    /// next child of the same parent, and the next trie node whose label
    /// has the same symbol.
    child: u32,
    sibling: u32,
    alike: u32,
}

impl PathNode {
    fn new(begin: usize, run: Run, parent: u32, symbol: u32) -> Self {
        Self {
            begin,
            steps: run.steps,
            credits: run.credits,
            anchored: run.anchored,
            room: run.steps + run.credits,
            seen: 0,
            parent,
            symbol,
            size: 1,
            child: NONE,
            sibling: NONE,
            alike: NONE,
        }
    }

    /// Where in `refs` the forest nodes with steps to take are.
    fn steps(&self) -> Range<usize> {
        self.begin..self.begin + self.steps as usize
    }

    /// Where in `refs` the forest nodes holding anchors are.
    fn anchored(&self) -> Range<usize> {
        let begin = self.begin + self.steps as usize;
        begin..begin + self.anchored as usize
    }

    /// Length of the run in `refs`.
    fn len(&self) -> usize {
        (self.steps + self.credits) as usize
    }
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
    /// Forest-node references held by those trie nodes, and the space runs
    /// that a view change moved left behind until it is compacted.
    pub references: usize,
    /// The most `nodes + references` may reach for the present forest.
    pub bound: usize,
    /// Trie nodes rewritten because a change of the pattern set reached them.
    pub repairs: u64,
    /// Times the cache was emptied because it had reached its bound.
    pub full_resets: u64,
}

/// One step of the path from a pattern's root to one of its nodes, with
/// which [`PathCache::reach`] finds the trie nodes that node's forest node
/// is reached at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Tag(u32),
    Any,
    Descendant,
    /// A non-root `/.`, which matches nothing.
    Never,
}

/// What a repair works in, kept between view changes.
#[derive(Debug, Clone, Default)]
struct Repair {
    /// The forest nodes whose status changed, once each, with their status
    /// from before.
    changed: Vec<(u32, u8)>,
    /// Those of them whose runs are recomputed rather than edited (see
    /// [`PatternSet::repair`]).
    refill: Vec<u32>,
    /// `(trie node, forest node)`: where a changed forest node is reached.
    touched: Vec<(u32, u32)>,
    /// The steps from the pattern root to the node being reached.
    path: Vec<Step>,
    /// The trie nodes the steps so far reach, and those the next step does.
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Trie nodes whose children are still to visit, and how far below
    /// the frontier they are.
    stack: Vec<(u32, usize)>,
    /// Per trie node, the last `stamp` that visited it.
    stamps: Vec<u32>,
    stamp: u32,
}

impl Repair {
    /// A stamp no trie node holds yet.
    fn restamp(stamp: &mut u32, stamps: &mut [u32]) -> u32 {
        *stamp = stamp.wrapping_add(1);
        if *stamp == 0 {
            stamps.fill(0);
            *stamp = 1;
        }
        *stamp
    }
}

/// The trie over the label paths matched so far, in flat arenas: forgetting
/// it clears the vectors and the map, all of which keep their allocations.
#[derive(Debug, Clone)]
struct PathCache {
    /// Trie nodes; 0 is the virtual node above the document root. Those from
    /// `kept` on were computed past the bound and belong to the document
    /// nodes the walk is inside of only.
    paths: Vec<PathNode>,
    refs: Vec<u32>,
    kept: usize,
    /// `(parent, symbol) → child`, for the kept trie nodes.
    children: HashMap<(u32, u32), u32>,
    /// Per symbol, the first kept trie node of its `alike` list, and how
    /// many there are.
    by_symbol: Vec<(u32, u32)>,
    /// Entries of `refs` that belong to no run's room: left behind by runs
    /// a repair moved.
    garbage: usize,
    /// A path did not fit: start over at the next document.
    full: bool,
    hits: u64,
    misses: u64,
    repairs: u64,
    full_resets: u64,
    repair: Repair,
    /// `(begin, trie node)` for each kept trie node's room, in the order
    /// they begin in `refs`: a room is always placed after all others, so
    /// appending keeps the order. An entry whose trie node has moved on
    /// since is dropped at the next compaction.
    order: Vec<(usize, u32)>,
}

impl PathCache {
    fn new() -> Self {
        Self {
            paths: Vec::new(),
            refs: Vec::new(),
            kept: 0,
            children: HashMap::new(),
            by_symbol: Vec::new(),
            garbage: 0,
            full: false,
            hits: 0,
            misses: 0,
            repairs: 0,
            full_resets: 0,
            repair: Repair::default(),
            order: Vec::new(),
        }
    }

    /// Forget every path.
    fn reset(&mut self) {
        self.paths.clear();
        self.refs.clear();
        self.kept = 0;
        self.full = false;
        self.garbage = 0;
        self.children.clear();
        self.by_symbol.clear();
        self.order.clear();
    }

    /// Keep trie node `path`, the last one computed: file it under its
    /// parent and its symbol.
    fn keep(&mut self, path: u32) {
        let PathNode {
            parent,
            symbol,
            begin,
            ..
        } = self.paths[path as usize];
        self.kept += 1;
        self.order.push((begin, path));
        self.children.insert((parent, symbol), path);
        let sibling = std::mem::replace(&mut self.paths[parent as usize].child, path);
        if self.by_symbol.len() <= symbol as usize {
            self.by_symbol.resize(symbol as usize + 1, (NONE, 0));
        }
        let (first, count) = &mut self.by_symbol[symbol as usize];
        let alike = std::mem::replace(first, path);
        *count += 1;
        let mut up = parent;
        while up != NONE {
            let node = &mut self.paths[up as usize];
            node.size += 1;
            up = node.parent;
        }
        let node = &mut self.paths[path as usize];
        node.sibling = sibling;
        node.alike = alike;
    }

    /// The walk leaves the document node that reached `path`: a path computed
    /// past the bound goes with it, and so does everything after it.
    fn leave(&mut self, path: u32) {
        if path as usize >= self.kept {
            self.refs.truncate(self.paths[path as usize].begin);
            self.paths.truncate(path as usize);
        }
    }

    /// Add to `repair.touched` a `(trie node, node)` pair for every kept
    /// trie node at which forest node `node`, whose step path from the
    /// forest root is `steps`, may be reached: whose label path matches
    /// `steps`, a `//` step standing for any number of labels, so that a
    /// `//` node counts wherever it is carried.
    ///
    /// The steps are followed down from the virtual node, one frontier of
    /// trie nodes at a time, a tag and the `*` and `//` steps before it at
    /// once. A tag right after the frontier is a child lookup. After `*`s
    /// and `//`s, the tag's trie nodes are found either below the frontier
    /// or among all trie nodes with its label, climbing to the frontier,
    /// whichever visits fewer nodes. `*`s and `//`s after the last tag take
    /// the trie nodes below the frontier.
    fn reach(&self, steps: &[Step], node: u32, repair: &mut Repair) {
        if steps.contains(&Step::Never) {
            return;
        }
        if repair.stamps.len() < self.paths.len() {
            repair.stamps.resize(self.paths.len(), 0);
        }
        repair.frontier.clear();
        repair.frontier.push(0);
        let mut rest = steps;
        loop {
            let skips = rest
                .iter()
                .take_while(|step| !matches!(step, Step::Tag(_)))
                .count();
            let levels = rest[..skips]
                .iter()
                .filter(|&&step| step == Step::Any)
                .count();
            let open = rest[..skips].contains(&Step::Descendant);
            repair.next.clear();
            let Some(&Step::Tag(symbol)) = rest.get(skips) else {
                self.expand(repair, levels, open);
                std::mem::swap(&mut repair.frontier, &mut repair.next);
                break;
            };
            rest = &rest[skips + 1..];
            if skips > 0 {
                let (first, count) = self
                    .by_symbol
                    .get(symbol as usize)
                    .copied()
                    .unwrap_or((NONE, 0));
                let below: usize = repair
                    .frontier
                    .iter()
                    .map(|&at| self.paths[at as usize].size as usize)
                    .sum();
                // Climbing from a labelled node costs a few levels; a
                // subtree costs a visit per node.
                if (count as usize) * 4 < below {
                    self.climb(repair, first, levels, open);
                    std::mem::swap(&mut repair.frontier, &mut repair.next);
                    if repair.frontier.is_empty() {
                        return;
                    }
                    continue;
                }
                self.expand(repair, levels, open);
                std::mem::swap(&mut repair.frontier, &mut repair.next);
                repair.next.clear();
            }
            for &at in &repair.frontier {
                if let Some(&child) = self.children.get(&(at, symbol)) {
                    repair.next.push(child);
                }
            }
            std::mem::swap(&mut repair.frontier, &mut repair.next);
            if repair.frontier.is_empty() {
                return;
            }
        }
        repair
            .touched
            .extend(repair.frontier.iter().map(|&at| (at, node)));
    }

    /// Put in `repair.next`, once each, the trie nodes `levels` below a
    /// node of `repair.frontier`, or at least that many if `open`.
    fn expand(&self, repair: &mut Repair, levels: usize, open: bool) {
        let Repair {
            frontier,
            next,
            stack,
            stamps,
            ..
        } = repair;
        let stamp = Repair::restamp(&mut repair.stamp, stamps);
        // Ancestors first: a node is then first visited from the farthest
        // frontier node above it, and a later visit from a nearer one adds
        // nothing.
        if open {
            frontier.sort_unstable();
        }
        for &top in frontier.iter() {
            if open && stamps[top as usize] == stamp {
                continue;
            }
            stack.push((top, 0));
            while let Some((at, depth)) = stack.pop() {
                if depth == levels || (open && depth > levels) {
                    next.push(at);
                }
                if depth < levels || open {
                    let mut child = self.paths[at as usize].child;
                    while child != NONE {
                        if !open || stamps[child as usize] != stamp {
                            stamps[child as usize] = stamp;
                            stack.push((child, depth + 1));
                        }
                        child = self.paths[child as usize].sibling;
                    }
                }
            }
        }
    }

    /// Put in `repair.next` the trie nodes of the `alike` list from `first`
    /// whose parent is `levels` below a node of `repair.frontier`, or at
    /// least that many if `open`.
    fn climb(&self, repair: &mut Repair, first: u32, levels: usize, open: bool) {
        let stamp = Repair::restamp(&mut repair.stamp, &mut repair.stamps);
        for &at in &repair.frontier {
            repair.stamps[at as usize] = stamp;
        }
        let mut at = first;
        while at != NONE {
            let mut up = at;
            for _ in 0..=levels {
                if up != NONE {
                    up = self.paths[up as usize].parent;
                }
            }
            while open && up != NONE && repair.stamps[up as usize] != stamp {
                up = self.paths[up as usize].parent;
            }
            if up != NONE && repair.stamps[up as usize] == stamp {
                repair.next.push(at);
            }
            at = self.paths[at as usize].alike;
        }
    }

    /// Before a run of up to `len` entries is built for a repair: compact
    /// rather than let `refs` outgrow its allocation, if that wins a good
    /// share of it back — taking the runs' spare room too if the garbage
    /// alone does not.
    fn make_room(&mut self, len: usize) {
        if self.refs.capacity() - self.refs.len() >= roomy(len) {
            return;
        }
        let spare: usize = self
            .paths
            .iter()
            .map(|node| node.room as usize - node.len())
            .sum();
        if (self.garbage + spare) * 16 >= self.refs.len() {
            self.compact(self.garbage * 16 < self.refs.len());
        }
    }

    /// Give trie node `path` the run just built at `refs[end..]`: in place
    /// when it fits in the node's room, else where it is, with an eighth
    /// more room, so that the next few forest nodes a view change adds do
    /// not move it again.
    fn place(&mut self, path: u32, end: usize, run: Run) {
        let node = &mut self.paths[path as usize];
        let len = (run.steps + run.credits) as usize;
        if len <= node.room as usize {
            self.refs.copy_within(end..end + len, node.begin);
            self.refs.truncate(end);
        } else {
            self.refs.resize(end + roomy(len), 0);
            self.moved(path, end);
        }
        let node = &mut self.paths[path as usize];
        node.steps = run.steps;
        node.credits = run.credits;
        node.anchored = run.anchored;
    }

    /// Trie node `path`'s room is now `refs[end..]`: the old one is garbage.
    fn moved(&mut self, path: u32, end: usize) {
        let node = &mut self.paths[path as usize];
        self.garbage += node.room as usize;
        // An empty room at the end grows where it is, and keeps its entry.
        if node.begin != end {
            self.order.push((end, path));
        }
        node.begin = end;
        node.room = (self.refs.len() - end) as u32;
    }

    /// Move every run down over the space no run's room covers, in place,
    /// leaving each run at most an eighth more room than its length, or
    /// none if `tight`.
    fn compact(&mut self, tight: bool) {
        let (paths, refs) = (&mut self.paths, &mut self.refs);
        let mut write = 0;
        self.order.retain_mut(|(begin, path)| {
            let node = &mut paths[*path as usize];
            // The trie node has moved on since.
            if node.begin != *begin {
                return false;
            }
            let len = node.len();
            refs.copy_within(node.begin..node.begin + len, write);
            node.begin = write;
            *begin = write;
            node.room = if tight {
                len as u32
            } else {
                node.room.min(roomy(len) as u32)
            };
            write += node.room as usize;
            true
        });
        refs.truncate(write);
        self.garbage = 0;
    }
}

/// The room a repair gives a run of `len` entries it moves.
fn roomy(len: usize) -> usize {
    len + len / 8 + 1
}

/// A document node the walk visited.
#[derive(Debug, Clone, Copy)]
struct Visit {
    /// The visit of its parent; [`NONE`] for the virtual node (visit 0).
    parent: u32,
    /// Its trie node, valid while the walk is inside it.
    path: u32,
    /// Where its copy of the path's forest nodes holding anchors begins in
    /// `Scratch::seeds`; the next visit's copy ends it.
    seeds: u32,
    /// Head of its list in `Scratch::facts`.
    facts: u32,
    /// One past its last descendant's visit: the visits of its subtree are
    /// `self..end`.
    end: u32,
}

/// An entry of a list threaded through a vector: the [`Pending`] twig at
/// `twig` in `Scratch::pending`, and the index of the list's next entry.
#[derive(Debug, Clone, Copy)]
struct Fact {
    twig: u32,
    next: u32,
}

/// A candidate's twig while the record pass decides it; `parent`, `down`
/// and `across` index the candidate's entries. Its stamps are visit
/// indices: the entries are made afresh for every document.
#[derive(Debug, Clone, Copy)]
struct Pending {
    parent: u32,
    /// The pattern's slot.
    slot: u32,
    descendant: bool,
    /// [`Twig::needs`]; [`NONE`] once the pattern is reported.
    needs: u32,
    down: u32,
    across: u32,
    /// Conditions met at visit `counted`.
    count: u32,
    counted: u32,
    /// The visit the twig was last known to hold below.
    seen: u32,
    /// The visit it last told so: most repeats are of one visit in a row.
    told: u32,
    /// For a `//`: the least visit decided so far where it holds. The pass
    /// runs backwards, so it holds in the subtree of visit `x` iff this is
    /// below that subtree's `end`.
    below: u32,
}

/// What one document's match works in, kept so a steady stream allocates
/// nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Ticks once per document and once per step computed; `Node::mark`,
    /// `Node::credited`, `PathNode::seen` and `Branching::document` hold
    /// readings of it.
    clock: u64,
    /// The clock reading that stamps the current document.
    document: u64,
    crediting: Vec<u32>,
    /// Slots of the branching patterns whose anchors have all been reached.
    candidates: Vec<u32>,
    /// The candidates' twigs, each candidate's from the one that decides on.
    pending: Vec<Pending>,
    /// Per forest node: the head of its list of the candidates' anchors in
    /// `anchored`, [`NONE`] outside the record pass, so the pass reads no
    /// other pattern's anchor.
    live: Vec<u32>,
    anchored: Vec<Fact>,
    /// Twigs with `//` children whose other conditions are met at the visit
    /// being settled.
    ready: Vec<u32>,
    visits: Vec<Visit>,
    seeds: Vec<u32>,
    /// "Twig holds below the visit whose list this is in", one list per
    /// visit.
    facts: Vec<Fact>,
    /// The innermost visit the walk is inside of.
    current: u32,
    /// Elements open below `current` in a subtree the walk skips.
    skipped: usize,
    hits: Vec<u64>,
    /// The open nodes of a tree [`PatternSet::matches`] replays.
    replay: Vec<(tps_xml::NodeId, usize)>,
}

/// A set of tree patterns under caller-chosen keys, matched against a
/// document in one walk.
///
/// Keys are the caller's (subscriber ids, consumer indices) and must be
/// unique among the patterns currently in the set.
///
/// The set learns the label paths of the documents it matches (see the
/// [module documentation](self)): on a stream of similar documents most
/// document nodes cost one lookup. `insert` and `remove` keep what the set
/// has learnt: they rewrite the learnt paths where one of the pattern's
/// forest nodes is reached and changed status, and leave the rest as it
/// is. [`PatternSet::cache_stats`] reports how that is going.
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
/// let text = "<media><CD><title>Requiem</title><composer><last>Mozart</last></composer></CD></media>";
/// assert_eq!(set.matches_bytes(text.as_bytes()).unwrap(), &[0, 2]);
/// assert_eq!(set.matches(&XmlTree::parse(text).unwrap()), &[0, 2]);
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
    cache: PathCache,
    scratch: Scratch,
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
            cache: PathCache::new(),
            scratch: Scratch::default(),
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
            repairs: self.cache.repairs,
            full_resets: self.cache.full_resets,
        }
    }

    /// Check the path cache against the forest, for tests and the fuzzer.
    ///
    /// Every kept trie node's run must hold what one step from its parent's
    /// run reaches, as sets with the anchored section apart, recomputed here
    /// by the rule the walk follows but without its stamps. The runs' rooms
    /// must cover `refs` without overlapping, but for the space counted as
    /// garbage, and be listed in the order they begin in; the child map,
    /// the child lists and the symbol lists must name each kept trie node
    /// once, and the subtree sizes add up; and the cache must be within its
    /// bound.
    #[doc(hidden)]
    pub fn check_path_cache(&self) -> Result<(), String> {
        let cache = &self.cache;
        let paths = &cache.paths;
        if paths.len() != cache.kept {
            return Err(format!(
                "{} trie nodes but {} kept: a walk left paths behind",
                paths.len(),
                cache.kept
            ));
        }
        if paths.is_empty() {
            if !cache.refs.is_empty() || !cache.children.is_empty() || cache.garbage != 0 {
                return Err("an empty trie holds references or children".into());
            }
            return Ok(());
        }
        if paths.len() + cache.refs.len() > self.cache_bound() {
            return Err(format!(
                "{} trie nodes and {} references exceed the bound {}",
                paths.len(),
                cache.refs.len(),
                self.cache_bound()
            ));
        }
        let mut covered = vec![false; cache.refs.len()];
        let mut listed = 0;
        for (index, path) in paths.iter().enumerate() {
            let room = path.begin..path.begin + path.room as usize;
            if room.end > cache.refs.len()
                || path.len() > path.room as usize
                || path.anchored > path.credits
            {
                return Err(format!("trie node {index} has a malformed run {path:?}"));
            }
            for slot in room {
                if std::mem::replace(&mut covered[slot], true) {
                    return Err(format!(
                        "trie node {index}'s room overlaps another at {slot}"
                    ));
                }
            }
            listed += path.room as usize;
            let from = if index == 0 {
                if path.parent != NONE {
                    return Err("the virtual node has a parent".into());
                }
                None
            } else {
                if path.parent as usize >= index {
                    return Err(format!("trie node {index} comes before its parent"));
                }
                if cache.children.get(&(path.parent, path.symbol)) != Some(&(index as u32)) {
                    return Err(format!("trie node {index} is not its parent's child"));
                }
                Some(&cache.refs[paths[path.parent as usize].steps()])
            };
            let anchored = path.anchored();
            let held = [
                &cache.refs[path.steps()],
                &cache.refs[anchored.clone()],
                &cache.refs[anchored.end..path.begin + path.len()],
            ];
            for (section, (held, expected)) in ["steps", "anchored", "other credits"]
                .iter()
                .zip(held.iter().zip(self.expected_run(from, path.symbol)))
            {
                let mut held = held.to_vec();
                held.sort_unstable();
                if held != expected {
                    return Err(format!(
                        "trie node {index} (symbol {}, parent {}) holds {held:?} as its \
                         {section}, one step from its parent reaches {expected:?}",
                        path.symbol, path.parent
                    ));
                }
            }
        }
        let mut ordered = vec![false; paths.len()];
        let mut last = 0;
        for &(begin, path) in &cache.order {
            match paths.get(path as usize) {
                Some(node) if node.begin == begin => {}
                Some(_) => continue,
                None => return Err(format!("trie node {path} is in the order, not the trie")),
            }
            if begin < last || std::mem::replace(&mut ordered[path as usize], true) {
                return Err(format!(
                    "trie node {path}'s room at {begin} is out of order"
                ));
            }
            last = begin;
        }
        if let Some(path) = ordered.iter().position(|&ordered| !ordered) {
            return Err(format!("trie node {path}'s room is missing from the order"));
        }
        if listed + cache.garbage != cache.refs.len() {
            return Err(format!(
                "runs have room for {listed} references and {} are counted as garbage, of {}",
                cache.garbage,
                cache.refs.len()
            ));
        }
        if cache.children.len() != paths.len() - 1 {
            return Err(format!(
                "{} children filed for {} trie nodes",
                cache.children.len(),
                paths.len()
            ));
        }
        let mut children = 0;
        for (index, path) in paths.iter().enumerate() {
            let mut child = path.child;
            let mut size = 1;
            while child != NONE {
                if paths[child as usize].parent != index as u32 {
                    return Err(format!("trie node {child} is listed under {index}"));
                }
                children += 1;
                size += paths[child as usize].size;
                child = paths[child as usize].sibling;
            }
            if size != path.size {
                return Err(format!(
                    "trie node {index} counts {} in its subtree, not {size}",
                    path.size
                ));
            }
        }
        let mut alike = 0;
        for (symbol, &(first, count)) in cache.by_symbol.iter().enumerate() {
            let mut at = first;
            let mut listed = 0usize;
            while at != NONE {
                if paths[at as usize].symbol != symbol as u32 {
                    return Err(format!("trie node {at} is listed under symbol {symbol}"));
                }
                listed += 1;
                at = paths[at as usize].alike;
            }
            if listed != count as usize {
                return Err(format!(
                    "{listed} trie nodes listed under symbol {symbol}, {count} counted"
                ));
            }
            alike += listed;
        }
        if children != paths.len() - 1 || alike != paths.len() - 1 {
            return Err(format!(
                "{children} trie nodes in child lists and {alike} in symbol lists, of {}",
                paths.len() - 1
            ));
        }
        Ok(())
    }

    /// What a trie node for a label with `symbol` below a parent whose
    /// forest nodes with steps are `parent` (`None`: the virtual node)
    /// holds, each section sorted: the nodes with steps, the crediting nodes
    /// holding anchors, and the other crediting nodes.
    fn expected_run(&self, parent: Option<&[u32]>, symbol: u32) -> [Vec<u32>; 3] {
        let nodes = &self.nodes;
        let node = |at: u32| &nodes[at as usize];
        // Carried `//` nodes stay; a step stops where it reaches one.
        let carried: Vec<u32> = parent
            .unwrap_or_default()
            .iter()
            .copied()
            .filter(|&at| node(at).is_descendant)
            .collect();
        let targets: Vec<u32> = match parent {
            None => vec![0],
            Some(parent) => parent
                .iter()
                .flat_map(|&at| {
                    let tagged = node(at).tags.iter().find(|edge| edge.symbol == symbol);
                    [node(at).wildcard, tagged.map_or(NONE, |edge| edge.to)]
                })
                .collect(),
        };
        let mut entered = Vec::new();
        let mut seen = HashSet::new();
        for mut at in targets {
            while at != NONE && !carried.contains(&at) && seen.insert(at) {
                entered.push(at);
                at = node(at).descendant;
            }
        }
        let mut steps = carried;
        steps.extend(entered.iter().filter(|&&at| node(at).has_steps()));
        let (mut anchored, mut other): (Vec<u32>, Vec<u32>) = entered
            .iter()
            .filter(|&&at| node(at).accepts())
            .partition(|&&at| !node(at).anchors.is_empty());
        for section in [&mut steps, &mut anchored, &mut other] {
            section.sort_unstable();
        }
        [steps, anchored, other]
    }

    /// The most trie nodes plus forest-node references the cache keeps.
    fn cache_bound(&self) -> usize {
        self.node_count()
            .saturating_mul(CACHE_ENTRIES_PER_FOREST_NODE)
            .min(u32::MAX as usize / 2)
    }

    /// Add `pattern` under `key`, in time linear in the pattern's size, and
    /// repair the path cache where the pattern changed the forest.
    pub fn insert(&mut self, key: u64, pattern: &TreePattern) {
        // With no path learnt there is nothing to repair.
        let learnt = !self.cache.paths.is_empty();
        let before = if learnt {
            self.statuses(pattern)
        } else {
            Vec::new()
        };
        let mut forest = vec![0; pattern.node_count()];
        self.insert_paths(0, pattern, pattern.root(), &mut forest);
        let end = forest[chain_end(pattern).index()];
        if pattern.branching_count() == 0 {
            self.nodes[end as usize].linear.push(key);
        } else {
            let twigs = compile(pattern, &forest);
            let slot = self.free_branching.pop().unwrap_or_else(|| {
                self.branching.push(Branching {
                    key,
                    twigs: Box::default(),
                    anchors: 0,
                    reached: 0,
                    document: 0,
                });
                (self.branching.len() - 1) as u32
            });
            let mut anchors = 0;
            for twig in twigs.iter().filter(|twig| twig.anchored) {
                self.nodes[twig.forest as usize].anchors.push(slot);
                anchors += 1;
            }
            self.branching[slot as usize] = Branching {
                key,
                twigs,
                anchors,
                reached: 0,
                document: 0,
            };
        }
        self.len += 1;
        if learnt {
            let steps = self.steps_of(pattern);
            self.repair(pattern, &steps, &before, &forest);
        }
    }

    /// Remove the pattern inserted under `key`; `pattern` must be that
    /// pattern. Forest nodes no remaining pattern uses are freed, and the
    /// path cache is repaired where the forest changed. Returns whether the
    /// key was in the set.
    pub fn remove(&mut self, key: u64, pattern: &TreePattern) -> bool {
        let mut forest = vec![0; pattern.node_count()];
        // No such path: the pattern is not in the set.
        if !self.find_paths(0, pattern, pattern.root(), &mut forest) {
            return false;
        }
        // Both are read before anything changes: once its last edge is
        // unlinked, a label resolves to the shared symbol of labels no
        // pattern mentions, and the trie nodes filed under its own symbol
        // would not be found.
        let learnt = !self.cache.paths.is_empty();
        let (before, steps): (Vec<u8>, Vec<Step>) = if learnt {
            let before = forest.iter().map(|&at| self.nodes[at as usize].status());
            (before.collect(), self.steps_of(pattern))
        } else {
            Default::default()
        };
        if pattern.branching_count() == 0 {
            let linear = &mut self.nodes[forest[chain_end(pattern).index()] as usize].linear;
            let Some(position) = linear.iter().position(|&k| k == key) else {
                return false;
            };
            linear.swap_remove(position);
        } else {
            let twigs = compile(pattern, &forest);
            let Some(first) = twigs.iter().find(|twig| twig.anchored) else {
                return false;
            };
            let branching = &self.branching;
            let Some(&slot) = self.nodes[first.forest as usize]
                .anchors
                .iter()
                .find(|&&slot| branching[slot as usize].key == key)
            else {
                return false;
            };
            let entry = std::mem::take(&mut self.branching[slot as usize].twigs);
            debug_assert!(
                entry
                    .iter()
                    .map(|twig| twig.forest)
                    .eq(twigs.iter().map(|twig| twig.forest)),
                "remove() was given a different pattern than insert()"
            );
            for twig in entry.iter().filter(|twig| twig.anchored) {
                self.nodes[twig.forest as usize]
                    .anchors
                    .retain(|&anchor| anchor != slot);
            }
            self.free_branching.push(slot);
        }
        // Children before parents: a node freed here may leave its parent
        // unused in turn.
        for v in pattern.preorder().into_iter().rev() {
            let Some(parent) = pattern.parent(v) else {
                continue;
            };
            let (at, label, node) = (forest[parent.index()], pattern.label(v), forest[v.index()]);
            // `/a[b][b]` reaches one forest node twice; it is freed once.
            if self.edge(at, label) == node && self.nodes[node as usize].is_unused() {
                self.unlink(at, label);
                self.free_nodes.push(node);
            }
        }
        self.len -= 1;
        // A freed node is unused, so its status reads as none at all.
        if learnt {
            self.repair(pattern, &steps, &before, &forest);
        }
        true
    }

    /// The status of the forest node of each pattern node, 0 where the
    /// forest has none yet.
    fn statuses(&self, pattern: &TreePattern) -> Vec<u8> {
        let mut forest = vec![NONE; pattern.node_count()];
        let mut statuses = vec![0; pattern.node_count()];
        for v in pattern.preorder() {
            let at = match pattern.parent(v) {
                None => 0,
                Some(parent) => match forest[parent.index()] {
                    NONE => NONE,
                    from => self.edge(from, pattern.label(v)),
                },
            };
            forest[v.index()] = at;
            if at != NONE {
                statuses[v.index()] = self.nodes[at as usize].status();
            }
        }
        statuses
    }

    /// The step each pattern node takes from its parent, a tag by the symbol
    /// its label has now.
    fn steps_of(&self, pattern: &TreePattern) -> Vec<Step> {
        (0..pattern.node_count() as u32)
            .map(|v| match pattern.label(PatternNodeId(v)) {
                PatternLabel::Tag(tag) => Step::Tag(self.alphabet.symbol(tag)),
                PatternLabel::Wildcard => Step::Any,
                PatternLabel::Descendant => Step::Descendant,
                PatternLabel::Root => Step::Never,
            })
            .collect()
    }

    /// Bring the path cache, which holds learnt paths, up to date after
    /// `pattern`, whose nodes take `steps` and sit at the forest nodes
    /// `forest`, was inserted or removed; `before` holds those forest
    /// nodes' statuses from before.
    ///
    /// A trie node's run is its parent's run stepped by one label, so it can
    /// only change where a forest node is reached whose status changed: the
    /// forest nodes that became reachable or unreachable are new or freed,
    /// and the other forest nodes whose edges changed are the pattern's own
    /// too. Only the runs of the trie nodes where one of those is reached
    /// are rewritten, parents first, and only those nodes change in them.
    /// A changed tag or `*` node is reached at exactly the trie nodes whose
    /// label path matches its step path, and a changed `//` node is
    /// carried wherever it has steps; so each leaves the run and comes back
    /// in the sections its status now puts it in. The runs a `//` node that
    /// credits, or that has a `//` below it, is reached in are recomputed
    /// from the parent's run instead: whether a step stops at such a node
    /// decides what is credited there.
    fn repair(&mut self, pattern: &TreePattern, steps: &[Step], before: &[u8], forest: &[u32]) {
        debug_assert_eq!(
            self.cache.paths.len(),
            self.cache.kept,
            "no walk is under way"
        );
        if self.cache.full {
            // The next document would start over anyway.
            self.cache.reset();
            self.cache.full_resets += 1;
            return;
        }
        let mut repair = std::mem::take(&mut self.cache.repair);
        let mut path = std::mem::take(&mut repair.path);
        repair.changed.clear();
        repair.refill.clear();
        repair.touched.clear();
        for (v, &at) in forest.iter().enumerate() {
            let after = self.nodes[at as usize].status();
            if (before[v] ^ after) & IN_RUNS == 0
                || repair.changed.iter().any(|&(node, _)| node == at)
            {
                continue;
            }
            repair.changed.push((at, before[v]));
            if (before[v] | after) & REFILL != 0 {
                repair.refill.push(at);
            }
            path.clear();
            let mut node = PatternNodeId(v as u32);
            while let Some(parent) = pattern.parent(node) {
                path.push(steps[node.index()]);
                node = parent;
            }
            path.reverse();
            self.cache.reach(&path, at, &mut repair);
        }
        repair.path = path;
        repair.touched.sort_unstable();
        let mut rest = &repair.touched[..];
        while let Some(&(trie, _)) = rest.first() {
            let (group, after) = rest.split_at(rest.partition_point(|&(at, _)| at == trie));
            rest = after;
            let len = self.cache.paths[trie as usize].len();
            self.cache.make_room(len + 2 * group.len());
            if group.iter().any(|(_, at)| repair.refill.contains(at)) {
                self.refill(trie);
            } else {
                self.patch(trie, group, &repair.changed);
            }
            self.cache.repairs += 1;
        }
        self.cache.repair = repair;

        let bound = self.cache_bound();
        let cache = &mut self.cache;
        if cache.garbage * 4 > cache.refs.len() || cache.paths.len() + cache.refs.len() > bound {
            cache.compact(false);
        }
        if cache.paths.len() + cache.refs.len() > bound {
            cache.reset();
            cache.full_resets += 1;
        }
    }

    /// Edit the run of trie node `path` in place for the changed forest
    /// nodes reached there (`touched`, all at `path`): each leaves the
    /// run, and comes back in the sections its status now puts it in.
    ///
    /// The order within a section does not matter. So an entry leaves by
    /// taking the section's last one in its place, and each later section
    /// then gives its last entry to close the gap; an entry comes in the
    /// same way backwards, each later section giving its first entry to the
    /// gap after it.
    fn patch(&mut self, path: u32, touched: &[(u32, u32)], changed: &[(u32, u8)]) {
        let cache = &mut self.cache;
        let node = cache.paths[path as usize];
        let mut begin = node.begin;
        // Where the sections end: nodes with steps, anchored, other credits.
        let mut ends = [
            node.steps as usize,
            (node.steps + node.anchored) as usize,
            node.len(),
        ];
        for &(_, at) in touched {
            let refs = &mut cache.refs;
            // A node is only in the sections its status from before put it in.
            let before = changed
                .iter()
                .find(|&&(node, _)| node == at)
                .map_or(0, |&(_, status)| status);
            let held = [before & 1 != 0, before & 4 != 0, before & 6 == 2];
            for section in (0..3).filter(|&section| held[section]) {
                let start = if section == 0 { 0 } else { ends[section - 1] };
                let held = &refs[begin + start..begin + ends[section]];
                let Some(index) = held.iter().position(|&held| held == at) else {
                    continue;
                };
                let mut hole = begin + start + index;
                for end in &mut ends[section..] {
                    *end -= 1;
                    refs[hole] = refs[begin + *end];
                    hole = begin + *end;
                }
            }
        }
        let sections = |at: u32| {
            let node = &self.nodes[at as usize];
            [
                node.has_steps(),
                !node.anchors.is_empty(),
                !node.linear.is_empty() && node.anchors.is_empty(),
            ]
        };
        let added: usize = touched
            .iter()
            .map(|&(_, at)| sections(at).iter().filter(|&&is| is).count())
            .sum();
        let len = ends[2] + added;
        if len > node.room as usize {
            let end = cache.refs.len();
            cache.refs.extend_from_within(begin..begin + ends[2]);
            cache.refs.resize(end + roomy(len), 0);
            cache.moved(path, end);
            begin = end;
        }
        let refs = &mut cache.refs;
        for &(_, at) in touched {
            for (section, _) in sections(at).iter().enumerate().filter(|(_, &is)| is) {
                let mut hole = begin + ends[2];
                for next in (section + 1..3).rev() {
                    let first = begin + ends[next - 1];
                    refs[hole] = refs[first];
                    hole = first;
                }
                refs[hole] = at;
                for end in &mut ends[section..] {
                    *end += 1;
                }
            }
        }
        let node = &mut cache.paths[path as usize];
        node.begin = begin;
        node.steps = ends[0] as u32;
        node.anchored = (ends[1] - ends[0]) as u32;
        node.credits = (ends[2] - ends[0]) as u32;
    }

    /// Recompute the run of trie node `path` from its parent's, which is up
    /// to date.
    fn refill(&mut self, path: u32) {
        let cache = &mut self.cache;
        let node = cache.paths[path as usize];
        let from = (node.parent != NONE).then(|| cache.paths[node.parent as usize].steps());
        let end = cache.refs.len();
        let run = fill(
            &mut self.nodes,
            &mut cache.refs,
            &mut self.scratch,
            from,
            node.symbol,
        );
        cache.place(path, end, run);
    }

    /// The child slot of `at` for a step labelled `label`.
    fn edge(&self, at: u32, label: PatternLabel<'_>) -> u32 {
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
    fn link(&mut self, at: u32, label: PatternLabel<'_>, to: u32) {
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
    fn unlink(&mut self, at: u32, label: PatternLabel<'_>) {
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
    /// `v`, starting from forest node `at`, and note the forest node of
    /// every pattern node in `forest`.
    fn insert_paths(
        &mut self,
        at: u32,
        pattern: &TreePattern,
        v: PatternNodeId,
        forest: &mut [u32],
    ) {
        forest[v.index()] = at;
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
            self.insert_paths(next, pattern, child, forest);
        }
    }

    /// [`PatternSet::insert_paths`] without creating anything: false if a
    /// step of the pattern subtree at `v` has no forest edge.
    fn find_paths(
        &self,
        at: u32,
        pattern: &TreePattern,
        v: PatternNodeId,
        forest: &mut [u32],
    ) -> bool {
        forest[v.index()] = at;
        pattern.children(v).iter().all(|&child| {
            let next = self.edge(at, pattern.label(child));
            next != NONE && self.find_paths(next, pattern, child, forest)
        })
    }

    /// The keys of the patterns `document` satisfies, ascending: exactly
    /// those for which [`TreePattern::matches`] is true.
    ///
    /// This replays the tree as the scanner's events into the one walk
    /// [`PatternSet::matches_bytes`] runs, so the two agree on every
    /// document: `XmlTree::parse` is that same scan into a tree-building
    /// sink.
    pub fn matches(&mut self, document: &XmlTree) -> &[u64] {
        let mut replay = std::mem::take(&mut self.scratch.replay);
        let mut walk = self.walk();
        let root = document.root();
        walk.open(Cow::Borrowed(document.label(root)));
        replay.push((root, 0));
        while let Some((node, next)) = replay.last_mut() {
            match document.children(*node).get(*next) {
                Some(&child) => {
                    *next += 1;
                    walk.open(Cow::Borrowed(document.label(child)));
                    replay.push((child, 0));
                }
                None => {
                    walk.close();
                    replay.pop();
                }
            }
        }
        self.scratch.replay = replay;
        self.decide()
    }

    /// The keys of the patterns the document in `bytes` satisfies,
    /// ascending, or why the bytes are not a well-formed UTF-8 document.
    ///
    /// One scan ([`tps_xml::scan_document`] with the default limits, the
    /// lexer and limits `XmlTree::parse` runs) both validates the
    /// document and drives the walk; no tree is built. The document and the
    /// trie of known label paths are walked together: a document node whose
    /// path is known is one lookup, a new path is computed from its parent's
    /// forest nodes and remembered. Patterns are credited once per document,
    /// the first time a path that reaches them occurs in it; a subtree under
    /// a path that reaches nothing with steps left is skipped. Branching
    /// candidates are then decided on the walk's record.
    ///
    /// A scan that fails part-way leaves the set as it was before the
    /// document, but for what its cache learnt.
    pub fn matches_bytes(&mut self, bytes: &[u8]) -> Result<&[u64], XmlError> {
        let mut walk = self.walk();
        if let Err(error) = scan_document(bytes, &ScanLimits::default(), &mut walk) {
            // Paths computed past the bound belong to the elements the scan
            // was inside of; they were never left.
            let kept = self.cache.kept;
            if self.cache.paths.len() > kept {
                self.cache.leave(kept as u32);
            }
            return Err(error);
        }
        Ok(self.decide())
    }

    /// Start the walk of one document at its virtual node.
    fn walk(&mut self) -> Walk<'_> {
        let scratch = &mut self.scratch;
        scratch.clock += 1;
        scratch.document = scratch.clock;
        scratch.candidates.clear();
        scratch.visits.clear();
        scratch.seeds.clear();
        scratch.facts.clear();
        scratch.hits.clear();
        scratch.replay.clear();
        scratch.current = 0;
        scratch.skipped = 0;
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
            scratch: &mut self.scratch,
            bound,
        };
        // The virtual node reaches the forest root (and what `//` hangs off
        // it); the document root is its only child.
        if walk.cache.paths.is_empty() {
            walk.compute(None, OTHER);
        }
        walk.credit(0);
        walk.visit(0);
        walk
    }

    /// Decide the branching candidates on the walk's record, then report
    /// every key.
    fn decide(&mut self) -> &[u64] {
        let scratch = &mut self.scratch;
        if !scratch.candidates.is_empty() {
            scratch.live.resize(self.nodes.len(), NONE);
            scratch.pending.clear();
            scratch.anchored.clear();
            for &slot in &scratch.candidates {
                let base = scratch.pending.len() as u32;
                for twig in self.branching[slot as usize].twigs.iter() {
                    if twig.anchored {
                        let head = &mut scratch.live[twig.forest as usize];
                        scratch.anchored.push(Fact {
                            twig: scratch.pending.len() as u32,
                            next: *head,
                        });
                        *head = (scratch.anchored.len() - 1) as u32;
                    }
                    let rebase = |twig: u32| if twig == NONE { NONE } else { base + twig };
                    scratch.pending.push(Pending {
                        parent: rebase(twig.parent),
                        slot,
                        descendant: twig.descendant,
                        needs: twig.needs,
                        down: rebase(twig.down),
                        across: rebase(twig.across),
                        count: 0,
                        counted: NONE,
                        seen: NONE,
                        told: NONE,
                        below: NONE,
                    });
                }
            }
            scratch.visits[0].end = scratch.visits.len() as u32;
            let mut pass = Pass {
                branching: &self.branching,
                scratch,
            };
            for z in (0..pass.scratch.visits.len()).rev() {
                pass.visit(z as u32);
            }
            for &slot in &scratch.candidates {
                for twig in self.branching[slot as usize].twigs.iter() {
                    scratch.live[twig.forest as usize] = NONE;
                }
            }
        }
        let hits = &mut self.scratch.hits;
        hits.sort_unstable();
        hits
    }
}

/// Where the walk of a branching pattern starts: the end of the single path
/// down from the root, which is a branch node (a leaf for a pattern without
/// branches).
fn chain_end(pattern: &TreePattern) -> PatternNodeId {
    let mut v = pattern.root();
    while let [only] = pattern.children(v) {
        v = *only;
    }
    v
}

/// Compile a branching pattern whose pattern nodes sit at the forest nodes
/// `forest`, from its topmost branch node down — or from that node's parent
/// when it is a `//`, which can hold below where its parent is reached.
fn compile(pattern: &TreePattern, forest: &[u32]) -> Box<[Twig]> {
    let mut top = chain_end(pattern);
    if pattern.label(top).is_descendant() {
        // invariant: a `//` node is never the root.
        top = pattern.parent(top).expect("a `//` node has a parent");
    }
    let mut twigs = Vec::new();
    compile_node(pattern, forest, top, NONE, &mut twigs);
    twigs.into()
}

/// Append the pattern subtree at `v` to `twigs` below twig `parent`.
fn compile_node(
    pattern: &TreePattern,
    forest: &[u32],
    v: PatternNodeId,
    parent: u32,
    twigs: &mut Vec<Twig>,
) {
    let children = pattern.children(v);
    // A tag or `*` child reached at a child of the document node reached
    // this node there; a `//` child says nothing about where this node is.
    let untagged = children.iter().all(|&c| pattern.label(c).is_descendant());
    let descendant = pattern.label(v).is_descendant();
    if descendant && untagged {
        // A `//` holding below `x` holds at `x`, so one over `//`s only holds
        // where they all do: they are its parent's conditions. Over nothing
        // it holds everywhere, and is no condition at all.
        for &child in children {
            compile_node(pattern, forest, child, parent, twigs);
        }
        return;
    }
    let at = twigs.len() as u32;
    let anchored = !descendant && untagged;
    twigs.push(Twig {
        forest: forest[v.index()],
        parent,
        descendant,
        anchored,
        needs: u32::from(anchored),
        down: NONE,
        across: NONE,
    });
    if let Some(up) = twigs.get_mut(parent as usize) {
        if descendant {
            let next = std::mem::replace(&mut up.down, at);
            twigs[at as usize].across = next;
        } else {
            up.needs += 1;
        }
    }
    for &child in children {
        compile_node(pattern, forest, child, at, twigs);
    }
}

/// The borrowed pieces of a [`PatternSet`] one document walk works on: a
/// [`SkeletonSink`] for the document's events.
struct Walk<'a> {
    nodes: &'a mut [Node],
    branching: &'a mut [Branching],
    alphabet: &'a Alphabet,
    cache: &'a mut PathCache,
    scratch: &'a mut Scratch,
    bound: usize,
}

impl SkeletonSink for Walk<'_> {
    fn open(&mut self, label: Cow<'_, str>) {
        let scratch = &mut *self.scratch;
        let current = scratch.visits[scratch.current as usize].path;
        // Nothing with steps to take here means nothing is reached below.
        if scratch.skipped > 0 || self.cache.paths[current as usize].steps == 0 {
            scratch.skipped += 1;
            return;
        }
        let path = self.step(current, &label);
        self.scratch.current = self.visit(path);
    }

    fn text(&mut self, label: Cow<'_, str>) {
        self.open(label);
        self.close();
    }

    fn close(&mut self) {
        let scratch = &mut *self.scratch;
        if scratch.skipped > 0 {
            scratch.skipped -= 1;
            return;
        }
        let end = scratch.visits.len() as u32;
        let visit = &mut scratch.visits[scratch.current as usize];
        visit.end = end;
        self.cache.leave(visit.path);
        scratch.current = visit.parent;
    }
}

impl Walk<'_> {
    /// Record a visit of a document node at trie node `path`, a child of the
    /// current one, and return its index.
    fn visit(&mut self, path: u32) -> u32 {
        let scratch = &mut *self.scratch;
        let index = scratch.visits.len() as u32;
        scratch.visits.push(Visit {
            parent: if index == 0 { NONE } else { scratch.current },
            path,
            seeds: scratch.seeds.len() as u32,
            facts: NONE,
            end: NONE,
        });
        let anchored = self.cache.paths[path as usize].anchored();
        scratch.seeds.extend_from_slice(&self.cache.refs[anchored]);
        index
    }

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
        let document = self.scratch.document;
        let path = &mut self.cache.paths[path as usize];
        if path.seen == document {
            return;
        }
        path.seen = document;
        let begin = path.begin + path.steps as usize;
        for &at in &self.cache.refs[begin..begin + path.credits as usize] {
            let node = &mut self.nodes[at as usize];
            // Another path of this document may have reached the node.
            if node.credited == document {
                continue;
            }
            node.credited = document;
            self.scratch.hits.extend_from_slice(&node.linear);
            for &slot in &node.anchors {
                let entry = &mut self.branching[slot as usize];
                if entry.document != document {
                    entry.document = document;
                    entry.reached = 0;
                }
                entry.reached += 1;
                if entry.reached == entry.anchors {
                    self.scratch.candidates.push(slot);
                }
            }
        }
    }

    /// Compute the trie node below `parent` for `symbol` (`None`: the
    /// virtual node) by taking one step from each of the parent's forest
    /// nodes, and keep it if the bound allows.
    fn compute(&mut self, parent: Option<u32>, symbol: u32) -> u32 {
        let begin = self.cache.refs.len();
        let from = parent.map(|parent| self.cache.paths[parent as usize].steps());
        let run = fill(self.nodes, &mut self.cache.refs, self.scratch, from, symbol);
        let path = self.cache.paths.len() as u32;
        self.cache
            .paths
            .push(PathNode::new(begin, run, parent.unwrap_or(NONE), symbol));
        match parent {
            None => {
                self.cache.kept = 1;
                self.cache.order.push((begin, path));
            }
            // A path below one that is not kept is not kept either: its
            // parent's number will be used again.
            Some(parent)
                if (parent as usize) < self.cache.kept
                    && self.cache.paths.len() + self.cache.refs.len() <= self.bound =>
            {
                self.cache.keep(path);
            }
            Some(_) => self.cache.full = true,
        }
        path
    }
}

/// Append to `refs` the run of a trie node for a label with `symbol` whose
/// parent's forest nodes with steps are `refs[from]` (`None`: the virtual
/// node), and return its lengths. The run is a function of the forest and
/// of the parent's nodes as a set, whatever their order.
fn fill(
    nodes: &mut [Node],
    refs: &mut Vec<u32>,
    scratch: &mut Scratch,
    from: Option<Range<usize>>,
    symbol: u32,
) -> Run {
    scratch.clock += 1;
    let clock = scratch.clock;
    let crediting = &mut scratch.crediting;
    crediting.clear();
    let begin = refs.len();
    match from {
        None => enter(nodes, refs, crediting, clock, 0),
        Some(from) => {
            // A `//` node stays reached below where it was entered. What
            // hangs off it by `//` was entered with it, so it is among the
            // parent's nodes itself, and both were credited up there. They
            // are carried first: a step that reaches one again then stops
            // there and credits nothing twice.
            for index in from.clone() {
                let at = refs[index];
                let node = &mut nodes[at as usize];
                if node.is_descendant {
                    node.mark = clock;
                    refs.push(at);
                }
            }
            for index in from {
                let node = &nodes[refs[index] as usize];
                let wildcard = node.wildcard;
                let tagged = match node.tag_position(symbol) {
                    Ok(position) => node.tags[position].to,
                    Err(_) => NONE,
                };
                enter(nodes, refs, crediting, clock, wildcard);
                enter(nodes, refs, crediting, clock, tagged);
            }
        }
    }
    let steps = refs.len() - begin;
    let anchored = |at: &&u32| !nodes[**at as usize].anchors.is_empty();
    refs.extend(crediting.iter().filter(anchored));
    let anchored_count = refs.len() - begin - steps;
    refs.extend(crediting.iter().filter(|at| !anchored(at)));
    Run {
        steps: steps as u32,
        anchored: anchored_count as u32,
        credits: crediting.len() as u32,
    }
}

/// Put forest node `at` among those reached by the step being computed
/// (stamped `clock`), and with it whatever hangs off it by `//` (which may
/// match the empty path): in `refs` if it has steps to take, in `crediting`
/// if it credits patterns.
fn enter(
    nodes: &mut [Node],
    refs: &mut Vec<u32>,
    crediting: &mut Vec<u32>,
    clock: u64,
    mut at: u32,
) {
    while at != NONE {
        let node = &mut nodes[at as usize];
        // A `//` node can arrive twice in one step: carried down from
        // above, and re-reached through its parent. Once is enough, and
        // without this the reached set grows combinatorially on
        // `//a//a//a` against `<a><a><a>…`.
        if node.mark == clock {
            return;
        }
        node.mark = clock;
        // Only a node with steps to take is of use to the children.
        if node.has_steps() {
            refs.push(at);
        }
        if node.accepts() {
            crediting.push(at);
        }
        at = node.descendant;
    }
}

/// The record pass: the walk's visits in reverse, each after all of its
/// descendants, deciding the branching candidates bottom-up.
struct Pass<'a> {
    branching: &'a [Branching],
    scratch: &'a mut Scratch,
}

impl Pass<'_> {
    /// Settle visit `z`: what holds below it and the anchors its path
    /// reaches, then the twigs that also need `//` children, deepest first
    /// (a `//` child is deeper than its parent).
    fn visit(&mut self, z: u32) {
        let mut fact = self.scratch.visits[z as usize].facts;
        while fact != NONE {
            let Fact { twig, next } = self.scratch.facts[fact as usize];
            let node = &mut self.scratch.pending[twig as usize];
            // Several children of `z` may hold it.
            if node.seen != z {
                node.seen = z;
                let parent = node.parent;
                self.bump(parent, z);
            }
            fact = next;
        }
        let begin = self.scratch.visits[z as usize].seeds as usize;
        let end = self
            .scratch
            .visits
            .get(z as usize + 1)
            .map_or(self.scratch.seeds.len(), |next| next.seeds as usize);
        for index in begin..end {
            let mut anchor = self.scratch.live[self.scratch.seeds[index] as usize];
            while anchor != NONE {
                let Fact { twig, next } = self.scratch.anchored[anchor as usize];
                self.bump(twig, z);
                anchor = next;
            }
        }
        if self.scratch.ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.scratch.ready);
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let end = self.scratch.visits[z as usize].end;
        for &twig in &ready {
            let pending = &self.scratch.pending;
            let mut child = pending[twig as usize].down;
            while child != NONE && pending[child as usize].below < end {
                child = pending[child as usize].across;
            }
            if child == NONE {
                self.holds(twig, z);
            }
        }
        ready.clear();
        self.scratch.ready = ready;
    }

    /// One more condition of twig `twig` is met at visit `z`.
    fn bump(&mut self, twig: u32, z: u32) {
        let node = &mut self.scratch.pending[twig as usize];
        if node.counted != z {
            node.counted = z;
            node.count = 0;
        }
        node.count += 1;
        if node.count != node.needs {
            return;
        }
        if node.down == NONE {
            self.holds(twig, z);
        } else {
            self.scratch.ready.push(twig);
        }
    }

    /// Twig `twig` holds at visit `z`.
    fn holds(&mut self, twig: u32, z: u32) {
        let scratch = &mut *self.scratch;
        let node = &mut scratch.pending[twig as usize];
        if node.parent == NONE {
            node.needs = NONE;
            scratch.hits.push(self.branching[node.slot as usize].key);
        } else if node.descendant {
            node.below = z;
        } else {
            // A condition of its parent at the parent of `z`.
            let visit = scratch.visits[z as usize].parent;
            if node.told == visit {
                return;
            }
            node.told = visit;
            let visit = &mut scratch.visits[visit as usize];
            scratch.facts.push(Fact {
                twig,
                next: visit.facts,
            });
            visit.facts = (scratch.facts.len() - 1) as u32;
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

    /// `expected[i]` is what `patterns` match on `texts[i]`: from the bytes,
    /// from the tree, and pattern by pattern.
    fn assert_decides(patterns: &[&str], texts: &[&str], expected: &[&[u64]]) {
        let mut set = set_of(patterns);
        for (text, &keys) in texts.iter().zip(expected) {
            let document = XmlTree::parse(text).unwrap();
            assert_eq!(
                brute_force(patterns, &document),
                keys,
                "reference on {text}"
            );
            assert_eq!(set.matches_bytes(text.as_bytes()).unwrap(), keys, "{text}");
            assert_eq!(set.matches(&document), keys, "tree of {text}");
        }
    }

    #[test]
    fn branches_reached_in_different_places_are_verified_not_assumed() {
        // Both leaf paths /a/b/c and /a/b/d exist, but under different `b`s.
        assert_decides(
            &["/a/b[c][d]", "/a[b/c][b/d]", "/a/b/c"],
            &["<a><b><c/></b><b><d/></b></a>", "<a><b><c/><d/></b></a>"],
            &[&[1, 2], &[0, 1, 2]],
        );
    }

    #[test]
    fn a_descendant_branch_node_is_one_instance() {
        // Every leaf path of `//a[b][c]` is reached, and an `a` has a `b`
        // and an `a` has a `c` — but not the same one.
        assert_decides(
            &["//a[b][c]", "//a/b", "//a/c"],
            &[
                "<a><a><b/></a><c/></a>",
                "<a><a><b/><c/></a></a>",
                "<a><b/><a><c/></a></a>",
            ],
            &[&[1, 2], &[0, 1, 2], &[1, 2]],
        );
    }

    #[test]
    fn descendant_branches_of_the_document_root() {
        let patterns = [".[//CD][//Mozart]", ".[//CD/Mozart]"];
        assert_decides(
            &patterns,
            &[
                "<media><CD/><last>Mozart</last></media>",
                "<media><CD>Mozart</CD></media>",
                "<media><CD/></media>",
            ],
            &[&[0], &[0, 1], &[]],
        );
    }

    #[test]
    fn a_descendant_step_between_two_branch_nodes() {
        // The `b` with both children must be below the `a` that has an `x`.
        assert_decides(
            &["/r/a[x]//b[c][d]", "//a[x][.//b[c][d]]"],
            &[
                "<r><a><x/><y><b><c/><d/></b></y></a></r>",
                "<r><a><x/><b><c/></b><b><d/></b></a></r>",
                "<r><a><x/></a><a><b><c/><d/></b></a></r>",
                "<r><a><b><c/><d/></b><x/></a></r>",
            ],
            &[&[0, 1], &[], &[], &[0, 1]],
        );
    }

    #[test]
    fn text_leaves_are_branches_too() {
        assert_decides(
            &[
                "/last[Mozart][first]",
                "//composer[last/Mozart][first/Wolfgang]",
            ],
            &[
                "<last>Mozart<first/></last>",
                "<last><first>Mozart</first></last>",
                "<c><composer><first>Wolfgang</first><last>Mozart</last></composer></c>",
                "<c><composer><first>Wolfgang</first></composer>\
                 <composer><last>Mozart</last></composer></c>",
            ],
            &[&[0], &[], &[1], &[]],
        );
    }

    #[test]
    fn descendant_nodes_with_several_children() {
        // The parser gives a `//` one child; a hand-built pattern may give
        // it more. `/a[D]` with `D = //[b][//c]`: a `b` child and a `c`
        // below one node under `a`. With `E = //[//b][//c]` only the `//`s
        // are left, and `/a[E]` asks for a `b` and a `c` anywhere below.
        let mut d = TreePattern::new();
        let a = d.add_child(d.root(), PatternLabel::tag("a"));
        let descendant = d.add_child(a, PatternLabel::Descendant);
        d.add_child(descendant, PatternLabel::tag("b"));
        let below = d.add_child(descendant, PatternLabel::Descendant);
        d.add_child(below, PatternLabel::tag("c"));
        let mut e = TreePattern::new();
        let a = e.add_child(e.root(), PatternLabel::tag("a"));
        let descendant = e.add_child(a, PatternLabel::Descendant);
        for label in ["b", "c"] {
            let below = e.add_child(descendant, PatternLabel::Descendant);
            e.add_child(below, PatternLabel::tag(label));
        }
        let mut set = PatternSet::new();
        set.insert(0, &d);
        set.insert(1, &e);
        // In the first, `D` holds at `a` itself and nowhere below: it is
        // settled at `a` before `a` is.
        for text in [
            "<a><b/><c/></a>",
            "<a><x><b/></x><c/></a>",
            "<a><x><b/><y><c/></y></x></a>",
            "<a><b/><x><c/></x></a>",
        ] {
            let document = XmlTree::parse(text).unwrap();
            let expected: Vec<u64> = [&d, &e]
                .iter()
                .zip(0..)
                .filter(|(pattern, _)| pattern.matches(&document))
                .map(|(_, key)| key)
                .collect();
            assert!(expected.contains(&1), "{text}");
            assert_eq!(
                set.matches_bytes(text.as_bytes()).unwrap(),
                expected,
                "{text}"
            );
        }
    }

    #[test]
    fn a_refused_document_leaves_the_next_one_to_match_as_in_a_fresh_set() {
        let patterns = ["//a", "/a[a][b]", "//a/b"];
        let mut set = set_of(&patterns);
        let good = "<a><a/><b/></a>";
        let expected = [0, 1, 2];
        // Broken off inside an element, at an unknown entity, at a
        // mismatched end tag, and as bad UTF-8.
        for bad in [
            "<a><a><b>",
            "<a><b>x &bogus; y</b></a>",
            "<a><a><b></a></a>",
        ] {
            assert!(set.matches_bytes(bad.as_bytes()).is_err(), "{bad}");
            assert_eq!(set.matches_bytes(good.as_bytes()).unwrap(), &expected);
        }
        assert!(set.matches_bytes(&[b'<', b'a', b'>', 0xff]).is_err());
        assert_eq!(set.matches_bytes(good.as_bytes()).unwrap(), &expected);

        // Deeper than the whole cache bound: a chain of `a`s costs five
        // entries per level here (a trie node, `//` and `a` with steps, two
        // crediting nodes), so the bound is used up at level 256 and the
        // paths below are not kept; the scan fails inside them.
        let patterns = ["//a", "//a[a][b]"];
        let mut set = set_of(&patterns);
        let bound = set.cache_stats().bound;
        let depth = 400;
        let deep = "<a>".repeat(depth);
        assert!(set.matches_bytes(deep.as_bytes()).is_err());
        let stats = set.cache_stats();
        assert!(stats.nodes + stats.references <= bound, "{stats:?}");
        assert_eq!(set.matches_bytes(good.as_bytes()).unwrap(), &[0, 1]);
        assert_eq!(
            set.cache_stats().full_resets,
            1,
            "the chain filled the cache"
        );
        let closed = format!("{deep}<b/>{}", "</a>".repeat(depth));
        let document = XmlTree::parse(&closed).unwrap();
        let keys = brute_force(&patterns, &document);
        assert_eq!(set.matches_bytes(closed.as_bytes()).unwrap(), keys);
        assert_eq!(set_of(&patterns).matches(&document), keys);
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
        assert_eq!((stats.repairs, stats.full_resets), (0, 0));

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
        assert_eq!(stats.repairs, 0);
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

    /// Match `document` with `set`, check the cache against the forest, and
    /// compare with per-pattern matching over `live`.
    fn assert_live(set: &mut PatternSet, live: &[(u64, &str)], text: &str) {
        let document = XmlTree::parse(text).unwrap();
        let expected: Vec<u64> = live
            .iter()
            .filter(|(_, pattern)| TreePattern::parse(pattern).unwrap().matches(&document))
            .map(|&(key, _)| key)
            .collect();
        assert_eq!(
            set.matches_bytes(text.as_bytes()).unwrap(),
            expected,
            "{text}"
        );
        assert_eq!(set.check_path_cache(), Ok(()), "after matching {text}");
    }

    fn insert(set: &mut PatternSet, key: u64, text: &str) {
        set.insert(key, &TreePattern::parse(text).unwrap());
        assert_eq!(set.check_path_cache(), Ok(()), "after inserting {text}");
    }

    fn remove(set: &mut PatternSet, key: u64, text: &str) {
        assert!(
            set.remove(key, &TreePattern::parse(text).unwrap()),
            "{text}"
        );
        assert_eq!(set.check_path_cache(), Ok(()), "after removing {text}");
    }

    #[test]
    fn a_view_change_repairs_the_paths_it_reaches_and_keeps_the_rest() {
        let patterns = ["//b", "/a[b][c]", "/a/c"];
        let mut set = set_of(&patterns);
        let document = XmlTree::parse("<a><b/><c/></a>").unwrap();
        assert_eq!(set.matches(&document), &[0, 1, 2]);
        let learnt = set.cache_stats();
        assert!(learnt.nodes > 1);

        // A second key at each leaf, linear and branching, and its departure
        // change no forest node's status: nothing is rewritten.
        let linear = TreePattern::parse("//b").unwrap();
        let branching = TreePattern::parse("/a[b][c]").unwrap();
        set.insert(10, &linear);
        set.insert(11, &branching);
        assert_eq!(set.matches(&document), &[0, 1, 2, 10, 11]);
        assert!(set.remove(0, &linear));
        assert!(set.remove(1, &branching));
        assert_eq!(set.matches(&document), &[2, 10, 11]);
        let kept = set.cache_stats();
        assert_eq!((kept.repairs, kept.nodes), (0, learnt.nodes));
        assert_eq!(kept.misses, learnt.misses, "both documents were all hits");

        // A new step is a new forest node: the one path it is reached on,
        // and the one its parent gains steps on, are rewritten.
        let live = [(2, "/a/c"), (10, "//b"), (11, "/a[b][c]"), (12, "/a/c/d")];
        insert(&mut set, 12, "/a/c/d");
        let stats = set.cache_stats();
        assert_eq!((stats.repairs, stats.nodes), (1, learnt.nodes));
        assert_live(&mut set, &live, "<a><b/><c><d/></c></a>");
        // Taking it away frees that node again; the path below `c` that the
        // last document taught stays, with nothing reached on it.
        remove(&mut set, 12, "/a/c/d");
        assert_eq!(set.cache_stats().repairs, 3);
        assert_live(&mut set, &live[..3], "<a><b/><c><d/></c></a>");
        // The first key at an inner node: one more node that credits.
        insert(&mut set, 13, "/a");
        assert_eq!(set.cache_stats().repairs, 4);
        let live = [(2, "/a/c"), (10, "//b"), (11, "/a[b][c]"), (13, "/a")];
        assert_live(&mut set, &live, "<a><b/><c/></a>");
        // Its last key leaves, and the node credits nothing any more.
        remove(&mut set, 13, "/a");
        assert_eq!(set.cache_stats().repairs, 5);
        assert_live(&mut set, &live[..3], "<a><b/><c/></a>");
        let stats = set.cache_stats();
        assert_eq!(stats.full_resets, 0);
        // New were `/a/c/d` and, once `d` had left the alphabet, `/a/c/`
        // followed by a label no pattern mentions.
        assert_eq!(stats.misses, learnt.misses + 2);
    }

    #[test]
    fn a_removal_finds_the_paths_of_a_label_it_takes_out_of_the_alphabet() {
        // `b` leaves the alphabet with `/a/b`; the trie node of `/a/b` is
        // filed under `b`'s symbol, which is looked up before the edge goes.
        let mut set = set_of(&["/a/b", "/a/c"]);
        let live = [(0, "/a/b"), (1, "/a/c")];
        assert_live(&mut set, &live, "<a><b/><c/></a>");
        remove(&mut set, 0, "/a/b");
        assert_live(&mut set, &live[1..], "<a><b/><c/></a>");
    }

    #[test]
    fn a_new_descendant_step_is_carried_into_paths_no_pattern_names() {
        // `/a/b` is no step of any pattern, yet the new `//` is reached there.
        let mut set = set_of(&["/a/x"]);
        assert_live(&mut set, &[(0, "/a/x")], "<a><b><c/></b><x/></a>");
        insert(&mut set, 1, "/a//c");
        let live = [(0, "/a/x"), (1, "/a//c")];
        assert_live(&mut set, &live, "<a><b><c/></b><x/></a>");
        assert_live(&mut set, &live, "<a><b><d><c/></d></b></a>");
        remove(&mut set, 1, "/a//c");
        assert_live(&mut set, &live[..1], "<a><b><c/></b><x/></a>");
    }

    #[test]
    fn a_symbol_given_back_and_taken_again_finds_exact_paths() {
        // `b`'s symbol goes to `d`, and the trie node of `/a/b` with it:
        // `/a/d` reaches that node, which a fresh symbol would not have.
        let mut set = set_of(&["/a/b", "/a/c"]);
        let text = "<a><b/><c/><d/></a>";
        assert_live(&mut set, &[(0, "/a/b"), (1, "/a/c")], text);
        remove(&mut set, 0, "/a/b");
        insert(&mut set, 2, "/a/d");
        assert_live(&mut set, &[(1, "/a/c"), (2, "/a/d")], text);
        // Given back and taken again by `/x/d`, which does not reach it:
        // the node must already be exact.
        remove(&mut set, 2, "/a/d");
        insert(&mut set, 3, "/x/d");
        let live = [(1, "/a/c"), (3, "/x/d")];
        assert_live(&mut set, &live, text);
        assert_live(&mut set, &live, "<x><d/></x>");
    }

    #[test]
    fn a_freed_forest_slot_taken_by_a_new_node_is_named_by_no_old_path() {
        // `//b` frees its two forest nodes; `/q` and `/r` take their slots.
        // A path that listed them must not credit the newcomers.
        let mut set = set_of(&["//b", "/a/c"]);
        let text = "<a><b/><c/></a>";
        assert_live(&mut set, &[(0, "//b"), (1, "/a/c")], text);
        remove(&mut set, 0, "//b");
        insert(&mut set, 2, "/q");
        insert(&mut set, 3, "/r/b");
        let live = [(1, "/a/c"), (2, "/q"), (3, "/r/b")];
        assert_live(&mut set, &live, text);
        assert_live(&mut set, &live, "<r><b/></r>");
    }

    #[test]
    fn a_node_with_keys_that_gains_its_first_anchor_moves_section() {
        // `b` credits `/a/b` already; `/a[b][c]` gives it an anchor, which
        // moves it into the anchored section of `/a/b`'s run.
        let mut set = set_of(&["/a/b"]);
        let text = "<a><b/><c/></a>";
        assert_live(&mut set, &[(0, "/a/b")], text);
        insert(&mut set, 1, "/a[b][c]");
        let live = [(0, "/a/b"), (1, "/a[b][c]")];
        assert_live(&mut set, &live, text);
        remove(&mut set, 1, "/a[b][c]");
        assert_live(&mut set, &live[..1], text);
    }

    #[test]
    fn a_descendant_node_that_credits_is_credited_only_where_it_is_entered() {
        // `/a//` (hand-built: the parser gives a `//` a step) ends in the
        // `//` node of `/a//b`, which is carried below `a` but entered at
        // `a` only: its first key belongs in the run of `/a` and not in the
        // runs of the paths below, which a step reaches by carrying it.
        let mut open = TreePattern::new();
        let a = open.add_child(open.root(), PatternLabel::tag("a"));
        open.add_child(a, PatternLabel::Descendant);
        let mut set = set_of(&["/a//b"]);
        let text = "<a><x><b/></x></a>";
        assert_live(&mut set, &[(0, "/a//b")], text);
        set.insert(1, &open);
        assert_eq!(set.check_path_cache(), Ok(()));
        let document = XmlTree::parse(text).unwrap();
        assert!(open.matches(&document));
        assert_eq!(set.matches_bytes(text.as_bytes()).unwrap(), &[0, 1]);
        assert!(set.remove(1, &open));
        assert_eq!(set.check_path_cache(), Ok(()));
        assert_live(&mut set, &[(0, "/a//b")], text);
    }

    #[test]
    fn repairs_compact_what_they_leave_behind() {
        // Every arrival of `//x<i>` grows the run of each `x<i>` path below
        // `a`; the old runs are garbage until a compaction.
        let mut set = set_of(&["/a/*"]);
        let text: String = std::iter::once("<a>".to_string())
            .chain((0..40).map(|i| format!("<x{i}><y/></x{i}>")))
            .chain(std::iter::once("</a>".to_string()))
            .collect();
        let mut live = vec![(0, "/a/*".to_string())];
        fn borrowed(live: &[(u64, String)]) -> Vec<(u64, &str)> {
            live.iter()
                .map(|(key, text)| (*key, text.as_str()))
                .collect()
        }
        assert_live(&mut set, &borrowed(&live), &text);
        for i in 0..40 {
            let pattern = format!("//x{i}/y");
            insert(&mut set, i + 1, &pattern);
            live.push((i + 1, pattern));
            let stats = set.cache_stats();
            assert!(stats.references <= 2 * stats.nodes * 4, "{stats:?}");
        }
        assert_live(&mut set, &borrowed(&live), &text);
        for (key, pattern) in live.drain(1..) {
            remove(&mut set, key, &pattern);
        }
        assert_live(&mut set, &borrowed(&live), &text);
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
