//! The streaming document synopsis `HS` (Section 3 of the paper).
//!
//! The synopsis approximates the full document history: it has the shape of
//! an XML tree (a DAG after same-label merges) whose root carries the special
//! label `/.`, and every other node carries an element label plus a
//! *matching-set summary* describing which documents contain the root path
//! leading to that node.
//!
//! It is maintained incrementally: each arriving document is reduced to its
//! skeleton tree and its root-to-leaf paths are folded into the synopsis,
//! updating the per-node summaries according to the configured
//! [`MatchingSetKind`].

use std::sync::atomic::{AtomicU64, Ordering};

use tps_xml::XmlTree;

use crate::distinct::DEFAULT_SEED;
use crate::docid::DocId;
use crate::reservoir::{ReservoirDecision, ReservoirSampler};
use crate::summary::{MatchingSetKind, NodeSummary, SummaryValue};

/// Configuration of a [`Synopsis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynopsisConfig {
    /// Matching-set representation.
    pub kind: MatchingSetKind,
    /// Seed for the distinct-sampling hash function and the reservoir RNG.
    pub seed: u64,
}

impl SynopsisConfig {
    /// Counter-based matching sets.
    pub fn counters() -> Self {
        Self {
            kind: MatchingSetKind::Counters,
            seed: DEFAULT_SEED,
        }
    }

    /// Reservoir-sampled exact sets with the given document capacity.
    pub fn sets(capacity: usize) -> Self {
        Self {
            kind: MatchingSetKind::Sets { capacity },
            seed: DEFAULT_SEED,
        }
    }

    /// Per-node distinct hash samples with the given per-node capacity.
    pub fn hashes(capacity: usize) -> Self {
        Self {
            kind: MatchingSetKind::Hashes { capacity },
            seed: DEFAULT_SEED,
        }
    }

    /// Override the sampling seed (useful for variance experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl From<MatchingSetKind> for SynopsisConfig {
    fn from(kind: MatchingSetKind) -> Self {
        Self {
            kind,
            seed: DEFAULT_SEED,
        }
    }
}

/// Identifier of a synopsis node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SynopsisNodeId(pub(crate) u32);

impl SynopsisNodeId {
    /// Arena index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A subtree of labels that was folded into a node by the folding pruning
/// operation (Section 3.3). A folded node `c[f][o[n]]` keeps base label `c`
/// and folded subtrees `f` and `o(n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedSubtree {
    /// Label of the folded child.
    pub label: Box<str>,
    /// Labels folded below it (recursively).
    pub children: Vec<FoldedSubtree>,
}

impl FoldedSubtree {
    /// Number of labels in this folded subtree (for size accounting).
    pub fn label_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(FoldedSubtree::label_count)
            .sum::<usize>()
    }

    /// Render as the nested-label notation used in the paper
    /// (e.g. `c[f][o[n]]`).
    pub fn to_notation(&self) -> String {
        let mut out = self.label.to_string();
        for child in &self.children {
            out.push('[');
            out.push_str(&child.to_notation());
            out.push(']');
        }
        out
    }
}

#[derive(Debug, Clone)]
pub(crate) struct SynopsisNode {
    pub(crate) label: Box<str>,
    pub(crate) folded: Vec<FoldedSubtree>,
    pub(crate) parents: Vec<SynopsisNodeId>,
    pub(crate) children: Vec<SynopsisNodeId>,
    pub(crate) summary: NodeSummary,
    pub(crate) alive: bool,
    /// Transient streaming-ingest bookkeeping: the [`ingest_epoch`] of the
    /// document currently visiting this node. A stamp from an older epoch
    /// means "not visited by the in-flight document" — no per-document
    /// hash map needed.
    ///
    /// [`ingest_epoch`]: Synopsis::ingest_epoch
    pub(crate) visit: u64,
    /// Valid only while `visit` equals the in-flight epoch: `true` once the
    /// document entered a child below this node (the node is *internal* in
    /// the document's skeleton, i.e. not a path end).
    pub(crate) visit_internal: bool,
}

/// Size decomposition of a synopsis, following the paper's accounting for
/// `|HS|`: number of nodes, edges, labels (including folded labels) and total
/// matching-set entries; each fits a 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynopsisSize {
    /// Live nodes.
    pub nodes: usize,
    /// Parent→child edges between live nodes.
    pub edges: usize,
    /// Labels, counting every label of folded subtrees.
    pub labels: usize,
    /// Total entries across all matching-set summaries.
    pub entries: usize,
}

impl SynopsisSize {
    /// Total size `|HS| = nodes + edges + labels + entries` (in 32-bit words).
    pub fn total(&self) -> usize {
        self.nodes + self.edges + self.labels + self.entries
    }
}

/// The streaming document synopsis.
///
/// # Example
///
/// ```
/// use tps_synopsis::{ingest, Ingest, Synopsis, SynopsisConfig};
///
/// let mut synopsis = Synopsis::new(SynopsisConfig::counters());
/// for text in ["<a><b/></a>", "<a><c/></a>", "<a><b/><c/></a>"] {
///     // Raw bytes fold straight into the synopsis — no tree is built.
///     synopsis.ingest(ingest::text(text)).unwrap();
/// }
/// assert_eq!(synopsis.document_count(), 3);
/// // Root has a single child labelled "a" with two children "b" and "c".
/// let a = synopsis.children(synopsis.root())[0];
/// assert_eq!(synopsis.label(a), "a");
/// assert_eq!(synopsis.children(a).len(), 2);
/// ```
#[derive(Debug)]
pub struct Synopsis {
    config: SynopsisConfig,
    pub(crate) nodes: Vec<SynopsisNode>,
    pub(crate) doc_count: u64,
    pub(crate) reservoir: Option<ReservoirSampler>,
    /// Cached full matching-set values (only consulted while valid).
    full_cache: Vec<Option<SummaryValue>>,
    cache_valid: bool,
    /// Monotonic change counter: bumped on every mutation that can alter a
    /// matching set (document arrival, reservoir eviction, pruning). External
    /// caches tag their entries with the epoch they were computed at and
    /// invalidate exactly when it moves. Atomic so that concurrent readers
    /// (e.g. a `Sync` evaluation engine checking cache freshness from many
    /// threads) observe epoch advances race-free without locking the
    /// synopsis.
    epoch: AtomicU64,
    /// Streaming-ingest generation counter: bumped once per document scanned
    /// through the [`crate::ingest`] sink, so node visit stamps from earlier
    /// documents never read as current (see [`SynopsisNode::visit`]).
    pub(crate) ingest_epoch: u64,
    /// Reusable per-document scratch buffers for the streaming-ingest sink,
    /// kept here so repeated byte ingestion allocates nothing per document.
    pub(crate) ingest_scratch: crate::ingest::IngestScratch,
}

impl Clone for Synopsis {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            nodes: self.nodes.clone(),
            doc_count: self.doc_count,
            reservoir: self.reservoir.clone(),
            full_cache: self.full_cache.clone(),
            cache_valid: self.cache_valid,
            epoch: AtomicU64::new(self.epoch.load(Ordering::Acquire)),
            ingest_epoch: self.ingest_epoch,
            ingest_scratch: crate::ingest::IngestScratch::default(),
        }
    }
}

impl Synopsis {
    /// Create an empty synopsis.
    pub fn new(config: SynopsisConfig) -> Self {
        let reservoir = match config.kind {
            MatchingSetKind::Sets { capacity } => {
                Some(ReservoirSampler::with_seed(capacity, config.seed))
            }
            _ => None,
        };
        Self {
            config,
            nodes: vec![SynopsisNode {
                label: "/.".into(),
                folded: Vec::new(),
                parents: Vec::new(),
                children: Vec::new(),
                summary: NodeSummary::empty(config.kind, config.seed),
                alive: true,
                visit: 0,
                visit_internal: false,
            }],
            doc_count: 0,
            reservoir,
            full_cache: Vec::new(),
            cache_valid: false,
            epoch: AtomicU64::new(0),
            ingest_epoch: 0,
            ingest_scratch: crate::ingest::IngestScratch::default(),
        }
    }

    /// Build a synopsis from a batch of documents.
    pub fn from_documents<'a, I>(config: SynopsisConfig, documents: I) -> Self
    where
        I: IntoIterator<Item = &'a XmlTree>,
    {
        let mut synopsis = Self::new(config);
        for doc in documents {
            let id = DocId(synopsis.doc_count);
            synopsis.fold_tree_as(doc, id);
        }
        synopsis
    }

    /// The configuration this synopsis was built with.
    pub fn config(&self) -> SynopsisConfig {
        self.config
    }

    /// The matching-set representation in use.
    pub fn kind(&self) -> MatchingSetKind {
        self.config.kind
    }

    /// The sampling seed in use.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The root node (label `/.`).
    pub fn root(&self) -> SynopsisNodeId {
        SynopsisNodeId(0)
    }

    /// Number of documents observed so far (`|H|`).
    pub fn document_count(&self) -> u64 {
        self.doc_count
    }

    /// The current synopsis epoch.
    ///
    /// The epoch is bumped by every mutation that can change a matching set:
    /// every [`crate::Ingest::ingest`] / [`crate::IngestTarget`] observation, node
    /// deletion, and every pruning operation (folds, deletions, merges).
    /// Read-only queries never move it, so a cache keyed by the epoch is
    /// invalidated exactly when the synopsis changes.
    ///
    /// The counter is an [`AtomicU64`] read with `Acquire` ordering:
    /// mutations happen through `&mut self` (publishing their writes when
    /// the exclusive borrow ends), so any thread that observes the bumped
    /// epoch also observes the structural change that caused it.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Force-advance the epoch without a structural mutation.
    ///
    /// Epoch-tagged caches (e.g. a `SimilarityEngine`'s) compare the counter,
    /// not the synopsis identity; call this after replacing a synopsis
    /// wholesale (`std::mem::replace` through a mutable reference) or after
    /// any external mutation the synopsis cannot see, so those caches
    /// rebuild on the next query.
    pub fn mark_dirty(&mut self) {
        self.touch();
    }

    /// The label of a node.
    pub fn label(&self, id: SynopsisNodeId) -> &str {
        &self.nodes[id.index()].label
    }

    /// The folded subtrees attached to a node by the folding operation.
    pub fn folded(&self, id: SynopsisNodeId) -> &[FoldedSubtree] {
        &self.nodes[id.index()].folded
    }

    /// The children of a node.
    pub fn children(&self, id: SynopsisNodeId) -> &[SynopsisNodeId] {
        &self.nodes[id.index()].children
    }

    /// The parents of a node (more than one after same-label merges).
    pub fn parents(&self, id: SynopsisNodeId) -> &[SynopsisNodeId] {
        &self.nodes[id.index()].parents
    }

    /// Whether the node is still part of the synopsis (pruned nodes are
    /// tomb-stoned).
    pub fn is_alive(&self, id: SynopsisNodeId) -> bool {
        self.nodes[id.index()].alive
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(&self, id: SynopsisNodeId) -> bool {
        self.children(id).is_empty()
    }

    /// Iterate over the ids of all live nodes (root included).
    pub fn live_nodes(&self) -> Vec<SynopsisNodeId> {
        (0..self.nodes.len())
            .map(|i| SynopsisNodeId(i as u32))
            .filter(|id| self.nodes[id.index()].alive)
            .collect()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.children.len())
            .sum()
    }

    /// Skeletonise a document tree and fold it in under an explicit stream
    /// identifier (its 0-based global stream position).
    ///
    /// This is the shard-building entry point: a sharded build assigns
    /// identifiers by global stream position, observes each contiguous chunk
    /// into its own partial synopsis, and [`Synopsis::merge`]s the partials.
    /// Because every sampling decision (reservoir membership, distinct-sample
    /// levels) is a deterministic function of `(seed, id)`, the merged result
    /// is identical to a sequential build.
    pub(crate) fn fold_tree_as(&mut self, document: &XmlTree, doc: DocId) {
        let skeleton = document.skeleton();
        self.fold_skeleton_as(&skeleton, doc);
    }

    /// Fold an already-coalesced skeleton tree in under an explicit stream
    /// identifier. The tree-based ingest backbone; the byte-level scanner
    /// path (`crate::ingest`) reproduces exactly this via a streaming sink.
    pub(crate) fn fold_skeleton_as(&mut self, skeleton: &XmlTree, doc: DocId) {
        self.doc_count += 1;
        match self.config.kind {
            MatchingSetKind::Counters | MatchingSetKind::Hashes { .. } => {
                self.record_document(skeleton, doc);
            }
            MatchingSetKind::Sets { .. } => {
                let decision = self
                    .reservoir
                    .as_mut()
                    // invariant: the constructor allocates a reservoir for Sets mode
                    .expect("Sets mode always has a reservoir")
                    .offer(doc);
                match decision {
                    ReservoirDecision::Skip => {}
                    ReservoirDecision::Insert => self.record_document(skeleton, doc),
                    ReservoirDecision::Replace { evicted } => {
                        self.forget_document(evicted);
                        self.record_document(skeleton, doc);
                    }
                }
            }
        }
        self.touch();
    }

    /// Merge another synopsis, built over a *disjoint* shard of the same
    /// document stream with the same configuration, into this one.
    ///
    /// Matching-set summaries combine per representation:
    ///
    /// * **Counters** add (disjoint shards count disjoint documents),
    /// * **Sets** union their sampled sets, then the merged reservoir is
    ///   re-pruned to its capacity (global bottom-k of the shard samples)
    ///   and evicted documents are removed from every node,
    /// * **Hashes** union their distinct samples level-aware.
    ///
    /// Provided the shards observed disjoint document-identifier ranges of
    /// one stream (see [`crate::IngestTarget::ingest_tree_as`]), merging is
    /// associative and commutative and the result is *estimate-identical*
    /// to a sequential build over the whole stream: every node carries the
    /// same matching-set value. Merging synopses that were pruned
    /// beforehand is supported (folded subtrees are combined, summaries
    /// merge as above) but is no longer guaranteed to match a sequential
    /// build, since pruning decisions depend on what each shard saw.
    ///
    /// # Panics
    ///
    /// Panics if the two synopses disagree on configuration (kind or seed).
    pub fn merge(&mut self, other: &Synopsis) {
        assert_eq!(
            self.config, other.config,
            "cannot merge synopses with different configurations"
        );
        self.doc_count += other.document_count();
        // Walk both structures in lock-step from the roots, creating missing
        // nodes and merging summaries and folded subtrees. `mapped` records
        // where each of `other`'s nodes landed in `self`: pruning's
        // same-label merges can turn a shard into a DAG (nodes with several
        // parents), and the map ensures such a node is merged exactly once
        // — further parent paths just mirror the extra edge — instead of
        // being re-expanded into one copy per path.
        let mut mapped: Vec<Option<SynopsisNodeId>> = vec![None; other.nodes.len()];
        mapped[other.root().index()] = Some(self.root());
        self.merge_node_payload(self.root(), other, other.root());
        let mut stack: Vec<(SynopsisNodeId, SynopsisNodeId)> = vec![(self.root(), other.root())];
        while let Some((self_id, other_id)) = stack.pop() {
            for &other_child in &other.nodes[other_id.index()].children {
                if !other.nodes[other_child.index()].alive {
                    continue;
                }
                match mapped[other_child.index()] {
                    Some(self_child) => self.link(self_id, self_child),
                    None => {
                        let label = other.nodes[other_child.index()].label.clone();
                        let self_child = self.find_or_create_child(self_id, &label);
                        mapped[other_child.index()] = Some(self_child);
                        self.merge_node_payload(self_child, other, other_child);
                        stack.push((self_child, other_child));
                    }
                }
            }
        }
        // Sets mode: the union of shard reservoirs may exceed the capacity;
        // keep the global bottom-k and forget everything else.
        if let (Some(reservoir), Some(other_reservoir)) =
            (self.reservoir.as_mut(), other.reservoir.as_ref())
        {
            let evicted = reservoir.merge(other_reservoir);
            for doc in evicted {
                for node in &mut self.nodes {
                    if node.alive {
                        node.summary.remove(doc);
                    }
                }
            }
            self.remove_empty_leaves();
        }
        self.touch();
    }

    /// Merge one shard node's summary and folded subtrees into the node of
    /// this synopsis it mapped to.
    fn merge_node_payload(
        &mut self,
        id: SynopsisNodeId,
        other: &Synopsis,
        other_id: SynopsisNodeId,
    ) {
        // `self` (&mut) and `other` (&) cannot alias, so the shard's node
        // is read in place — no per-node summary clone on the merge path.
        let other_node = &other.nodes[other_id.index()];
        self.merge_summary_into(id, &other_node.summary);
        self.merge_folded_into(id, &other_node.folded);
    }

    /// Mirror a shard's extra parent edge (DAG sharing) onto this synopsis,
    /// if not already present.
    fn link(&mut self, parent: SynopsisNodeId, child: SynopsisNodeId) {
        if !self.nodes[parent.index()].children.contains(&child) {
            self.nodes[parent.index()].children.push(child);
            self.nodes[child.index()].parents.push(parent);
        }
    }

    /// Merge a shard node's summary into a node of this synopsis: counters
    /// add, sets and hash samples union.
    fn merge_summary_into(&mut self, id: SynopsisNodeId, other: &NodeSummary) {
        let summary = &mut self.nodes[id.index()].summary;
        match (summary, other) {
            (NodeSummary::Counter(a), NodeSummary::Counter(b)) => *a += *b,
            (NodeSummary::Set(a), NodeSummary::Set(b)) => *a = a.union(b, |_| true, |_| true),
            (a @ NodeSummary::Hash(_), b @ NodeSummary::Hash(_)) => *a = a.union(b),
            _ => unreachable!("merge() checks that the configurations agree"),
        }
    }

    /// Append the folded subtrees a shard accumulated that this synopsis
    /// does not already carry on the node (compared by notation).
    fn merge_folded_into(&mut self, id: SynopsisNodeId, folded: &[FoldedSubtree]) {
        for subtree in folded {
            let exists = self.nodes[id.index()]
                .folded
                .iter()
                .any(|f| f.to_notation() == subtree.to_notation());
            if !exists {
                self.nodes[id.index()].folded.push(subtree.clone());
            }
        }
    }

    fn record_document(&mut self, skeleton: &XmlTree, doc: DocId) {
        // Resolve with the same visit-stamp bookkeeping the byte-level
        // ingest sink uses, so a document reaching one synopsis node over
        // several skeleton paths (possible once `merge_nodes` has built a
        // DAG) is recorded exactly once per node — not once per path — and
        // the two ingest paths stay estimate-identical on DAGs.
        self.ingest_epoch += 1;
        let epoch = self.ingest_epoch;
        let mut order: Vec<SynopsisNodeId> = Vec::new();
        self.resolve_subtree(skeleton, skeleton.root(), self.root(), epoch, &mut order);
        let hashes_mode = matches!(self.config.kind, MatchingSetKind::Hashes { .. });
        if hashes_mode {
            // Hashes mode stores the document only at the end of each path
            // — visited nodes nothing was entered below; parents recover
            // the full matching set by unioning descendants.
            for &node in &order {
                if !self.nodes[node.index()].visit_internal {
                    self.nodes[node.index()].summary.insert(doc);
                }
            }
        } else {
            // The root's matching set is the set of all (sampled) documents.
            self.nodes[0].summary.insert(doc);
            for &node in &order {
                self.nodes[node.index()].summary.insert(doc);
            }
        }
    }

    /// Walk the skeleton, resolving each skeleton node to a synopsis node
    /// and stamping first visits into `order` (the byte sink's `enter`,
    /// expressed over a materialised tree).
    fn resolve_subtree(
        &mut self,
        skeleton: &XmlTree,
        skeleton_node: tps_xml::NodeId,
        synopsis_parent: SynopsisNodeId,
        epoch: u64,
        order: &mut Vec<SynopsisNodeId>,
    ) {
        let label = skeleton.label(skeleton_node);
        let node = self.find_or_create_child(synopsis_parent, label);
        if synopsis_parent != self.root() {
            self.nodes[synopsis_parent.index()].visit_internal = true;
        }
        let entry = &mut self.nodes[node.index()];
        if entry.visit != epoch {
            entry.visit = epoch;
            entry.visit_internal = false;
            order.push(node);
        }
        for &child in skeleton.children(skeleton_node) {
            self.resolve_subtree(skeleton, child, node, epoch, order);
        }
    }

    pub(crate) fn find_or_create_child(
        &mut self,
        parent: SynopsisNodeId,
        label: &str,
    ) -> SynopsisNodeId {
        if let Some(&existing) = self.nodes[parent.index()].children.iter().find(|&&c| {
            self.nodes[c.index()].alive && self.nodes[c.index()].label.as_ref() == label
        }) {
            return existing;
        }
        let id = SynopsisNodeId(self.nodes.len() as u32);
        self.nodes.push(SynopsisNode {
            label: label.into(),
            folded: Vec::new(),
            parents: vec![parent],
            children: Vec::new(),
            summary: NodeSummary::empty(self.config.kind, self.config.seed),
            alive: true,
            visit: 0,
            visit_internal: false,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Remove a document identifier from every node summary (reservoir
    /// eviction), deleting nodes whose matching set becomes empty.
    pub(crate) fn forget_document(&mut self, doc: DocId) {
        for node in &mut self.nodes {
            if node.alive {
                node.summary.remove(doc);
            }
        }
        self.remove_empty_leaves();
    }

    /// Repeatedly delete live non-root leaves whose summary is empty.
    pub(crate) fn remove_empty_leaves(&mut self) {
        loop {
            let victims: Vec<SynopsisNodeId> = self
                .live_nodes()
                .into_iter()
                .filter(|&id| {
                    id != self.root()
                        && self.is_leaf(id)
                        && self.nodes[id.index()].summary.is_empty()
                        && self.nodes[id.index()].folded.is_empty()
                })
                .collect();
            if victims.is_empty() {
                return;
            }
            for v in victims {
                self.delete_node(v);
            }
        }
    }

    /// Detach and tombstone a node (must not be the root).
    pub(crate) fn delete_node(&mut self, id: SynopsisNodeId) {
        debug_assert_ne!(id, self.root());
        let parents = self.nodes[id.index()].parents.clone();
        for p in parents {
            self.nodes[p.index()].children.retain(|&c| c != id);
        }
        let children = self.nodes[id.index()].children.clone();
        for c in children {
            self.nodes[c.index()].parents.retain(|&p| p != id);
        }
        let node = &mut self.nodes[id.index()];
        node.alive = false;
        node.children.clear();
        node.parents.clear();
        node.folded.clear();
        self.touch();
    }

    /// Mark cached full matching sets as stale and advance the epoch (called
    /// by every mutation).
    pub(crate) fn touch(&mut self) {
        self.cache_valid = false;
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Mark cached full matching sets as stale (called by pruning).
    pub(crate) fn invalidate_cache(&mut self) {
        self.touch();
    }

    /// Summary stored directly at the node (not the recursive full set).
    pub(crate) fn stored_summary(&self, id: SynopsisNodeId) -> &NodeSummary {
        &self.nodes[id.index()].summary
    }

    /// Materialise the full matching-set values of every node.
    ///
    /// Only the Hashes representation needs this (its per-node samples only
    /// record the documents whose paths end at the node); calling it for the
    /// other representations is a cheap no-op. Selectivity estimation works
    /// without calling `prepare`, but repeated queries are faster with the
    /// cache in place.
    pub fn prepare(&mut self) {
        if self.cache_valid {
            return;
        }
        let mut cache: Vec<Option<SummaryValue>> = vec![None; self.nodes.len()];
        let root = self.root();
        self.compute_full_value(root, &mut cache);
        // Ensure every live node is materialised (DAG nodes unreachable from
        // the root cannot exist, but be defensive).
        for id in self.live_nodes() {
            if cache[id.index()].is_none() {
                self.compute_full_value(id, &mut cache);
            }
        }
        self.full_cache = cache;
        self.cache_valid = true;
    }

    /// Materialise the full matching-set value of every node into a
    /// caller-owned vector indexed by [`SynopsisNodeId::index`].
    ///
    /// This is the `&self` counterpart of [`Synopsis::prepare`], intended for
    /// evaluation engines that keep their own epoch-tagged caches instead of
    /// mutating the synopsis. Entries for dead (tomb-stoned) nodes are the
    /// empty value.
    pub fn full_values(&self) -> Vec<SummaryValue> {
        let mut cache: Vec<Option<SummaryValue>> = vec![None; self.nodes.len()];
        self.compute_full_value(self.root(), &mut cache);
        for id in self.live_nodes() {
            if cache[id.index()].is_none() {
                self.compute_full_value(id, &mut cache);
            }
        }
        cache
            .into_iter()
            .map(|value| value.unwrap_or_else(|| self.empty_value()))
            .collect()
    }

    /// The full matching-set value `S(t)` of a node, in the representation's
    /// selectivity algebra.
    ///
    /// * Counters: the fraction `count / |H|`.
    /// * Sets: the sampled document identifiers containing the node's path.
    /// * Hashes: the union of the hash samples stored in the node's subtree.
    pub fn matching_value(&self, id: SynopsisNodeId) -> SummaryValue {
        if self.cache_valid {
            if let Some(Some(v)) = self.full_cache.get(id.index()) {
                return v.clone();
            }
        }
        let mut scratch: Vec<Option<SummaryValue>> = vec![None; self.nodes.len()];
        self.compute_full_value(id, &mut scratch)
    }

    fn compute_full_value(
        &self,
        id: SynopsisNodeId,
        cache: &mut Vec<Option<SummaryValue>>,
    ) -> SummaryValue {
        if let Some(v) = &cache[id.index()] {
            return v.clone();
        }
        let value = match self.config.kind {
            MatchingSetKind::Counters => {
                let count = self.nodes[id.index()].summary.count_estimate();
                let total = self.doc_count as f64;
                if total == 0.0 {
                    SummaryValue::Fraction(0.0)
                } else if id == self.root() {
                    SummaryValue::Fraction(1.0)
                } else {
                    SummaryValue::Fraction((count / total).min(1.0))
                }
            }
            MatchingSetKind::Sets { .. } => match self.stored_summary(id) {
                NodeSummary::Set(s) => SummaryValue::Set(s.clone()),
                _ => unreachable!("Sets synopsis stores Set summaries"),
            },
            MatchingSetKind::Hashes { .. } => {
                let own = match self.stored_summary(id) {
                    NodeSummary::Hash(h) => SummaryValue::Hash(h.clone()),
                    _ => unreachable!("Hashes synopsis stores Hash summaries"),
                };
                // Mark before recursing to guard against (impossible) cycles.
                cache[id.index()] = Some(own.clone());
                let mut value = own;
                for &child in &self.nodes[id.index()].children {
                    let child_value = self.compute_full_value(child, cache);
                    value = value.unite(child_value);
                }
                value
            }
        };
        cache[id.index()] = Some(value.clone());
        value
    }

    /// The value representing the whole observed document set `S(rs)` — the
    /// denominator of Algorithm 2.
    pub fn universe_value(&self) -> SummaryValue {
        match self.config.kind {
            MatchingSetKind::Counters => SummaryValue::Fraction(1.0),
            MatchingSetKind::Sets { .. } => self.matching_value(self.root()),
            MatchingSetKind::Hashes { .. } => self.matching_value(self.root()),
        }
    }

    /// An empty selectivity value of this synopsis' representation.
    pub fn empty_value(&self) -> SummaryValue {
        SummaryValue::empty(self.config.kind, self.config.seed)
    }

    /// Size decomposition `|HS|` following the paper's accounting.
    pub fn size(&self) -> SynopsisSize {
        let mut size = SynopsisSize::default();
        for node in &self.nodes {
            if !node.alive {
                continue;
            }
            size.nodes += 1;
            size.edges += node.children.len();
            size.labels += 1 + node
                .folded
                .iter()
                .map(FoldedSubtree::label_count)
                .sum::<usize>();
            size.entries += node.summary.entries();
        }
        size
    }

    /// Number of documents represented by the root matching set (the
    /// denominator used when converting counts to probabilities): the
    /// reservoir size in Sets mode, `|H|` otherwise.
    pub fn effective_universe(&self) -> f64 {
        match self.config.kind {
            MatchingSetKind::Sets { .. } => self
                .reservoir
                .as_ref()
                .map(|r| r.len() as f64)
                .unwrap_or(0.0),
            _ => self.doc_count as f64,
        }
    }

    /// A textual dump of the synopsis structure (labels, folded labels and
    /// estimated matching-set sizes), useful for debugging and examples.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_node(self.root(), 0, &mut out);
        out
    }

    fn dump_node(&self, id: SynopsisNodeId, depth: usize, out: &mut String) {
        let node = &self.nodes[id.index()];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&node.label);
        for folded in &node.folded {
            out.push('[');
            out.push_str(&folded.to_notation());
            out.push(']');
        }
        out.push_str(&format!(
            " (|S|≈{:.0})\n",
            self.matching_value(id).count_units()
        ));
        for &child in &node.children {
            self.dump_node(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{self, Ingest, IngestTarget};

    /// The six documents of Figure 2 (as close as the printed figure allows;
    /// what matters for the tests is the co-occurrence structure discussed in
    /// the text: `b` and `d` are mutually exclusive, `f` and `o` co-occur
    /// under `c`).
    pub(crate) fn figure2_documents() -> Vec<XmlTree> {
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

    fn child_by_label(s: &Synopsis, parent: SynopsisNodeId, label: &str) -> SynopsisNodeId {
        *s.children(parent)
            .iter()
            .find(|&&c| s.label(c) == label)
            .unwrap_or_else(|| panic!("no child {label}"))
    }

    #[test]
    fn empty_synopsis_has_only_the_root() {
        let s = Synopsis::new(SynopsisConfig::counters());
        assert_eq!(s.node_count(), 1);
        assert_eq!(s.document_count(), 0);
        assert_eq!(s.label(s.root()), "/.");
        assert!(s.is_leaf(s.root()));
    }

    #[test]
    fn counters_synopsis_counts_path_frequencies() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        assert_eq!(s.document_count(), 6);
        let a = child_by_label(&s, s.root(), "a");
        // Every document has root a.
        assert_eq!(s.stored_summary(a).count_estimate(), 6.0);
        let b = child_by_label(&s, a, "b");
        let d = child_by_label(&s, a, "d");
        let c = child_by_label(&s, a, "c");
        assert_eq!(s.stored_summary(b).count_estimate(), 3.0);
        assert_eq!(s.stored_summary(d).count_estimate(), 3.0);
        assert_eq!(s.stored_summary(c).count_estimate(), 2.0);
    }

    #[test]
    fn counters_matching_value_is_a_fraction() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let a = child_by_label(&s, s.root(), "a");
        let b = child_by_label(&s, a, "b");
        assert!((s.matching_value(b).count_units() - 0.5).abs() < 1e-9);
        assert_eq!(s.universe_value().count_units(), 1.0);
    }

    #[test]
    fn sets_synopsis_with_large_reservoir_is_exact() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::sets(100), &docs);
        let a = child_by_label(&s, s.root(), "a");
        let b = child_by_label(&s, a, "b");
        match s.stored_summary(b) {
            NodeSummary::Set(set) => {
                let ids: Vec<u64> = set.iter().map(|d| d.as_u64()).collect();
                assert_eq!(ids, vec![0, 1, 2]);
            }
            _ => panic!("expected a set summary"),
        }
        assert_eq!(s.universe_value().count_units(), 6.0);
        assert_eq!(s.effective_universe(), 6.0);
    }

    #[test]
    fn sets_synopsis_respects_reservoir_capacity() {
        let mut s = Synopsis::new(SynopsisConfig::sets(8));
        for i in 0..200 {
            let doc = XmlTree::parse(&format!("<a><b{}/></a>", i % 10)).unwrap();
            s.ingest(ingest::tree(&doc)).unwrap();
        }
        assert_eq!(s.document_count(), 200);
        assert!(s.universe_value().count_units() <= 8.0);
        // No node may reference more documents than the reservoir holds.
        for id in s.live_nodes() {
            assert!(s.stored_summary(id).count_estimate() <= 8.0);
        }
    }

    #[test]
    fn hashes_synopsis_stores_at_path_ends_and_unions_up() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::hashes(64), &docs);
        let a = child_by_label(&s, s.root(), "a");
        let b = child_by_label(&s, a, "b");
        // The stored sample at b only has documents whose skeleton path ends
        // at b — none do (b always has children) — but the full matching set
        // is recovered by unioning the subtree.
        assert_eq!(s.stored_summary(b).count_estimate(), 0.0);
        assert_eq!(s.matching_value(b).count_units(), 3.0);
        assert_eq!(s.matching_value(a).count_units(), 6.0);
        assert_eq!(s.universe_value().count_units(), 6.0);
    }

    #[test]
    fn prepare_caches_full_values() {
        let docs = figure2_documents();
        let mut s = Synopsis::from_documents(SynopsisConfig::hashes(64), &docs);
        let a = child_by_label(&s, s.root(), "a");
        let before = s.matching_value(a).count_units();
        s.prepare();
        let after = s.matching_value(a).count_units();
        assert_eq!(before, after);
    }

    #[test]
    fn structure_is_shared_across_documents() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        // Only one node labelled "a" and one labelled "b" directly below it.
        let a_nodes: Vec<_> = s
            .live_nodes()
            .into_iter()
            .filter(|&id| s.label(id) == "a")
            .collect();
        assert_eq!(a_nodes.len(), 1);
        let a = a_nodes[0];
        assert_eq!(
            s.children(a).iter().filter(|&&c| s.label(c) == "b").count(),
            1
        );
    }

    #[test]
    fn size_accounting_counts_all_components() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::hashes(64), &docs);
        let size = s.size();
        assert_eq!(size.nodes, s.node_count());
        assert_eq!(size.edges, s.edge_count());
        assert!(size.labels >= size.nodes);
        assert!(size.entries > 0);
        assert_eq!(
            size.total(),
            size.nodes + size.edges + size.labels + size.entries
        );
    }

    #[test]
    fn delete_node_detaches_it() {
        let docs = figure2_documents();
        let mut s = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let a = child_by_label(&s, s.root(), "a");
        let b = child_by_label(&s, a, "b");
        let before = s.node_count();
        s.delete_node(b);
        assert!(!s.is_alive(b));
        assert_eq!(s.node_count(), before - 1);
        assert!(!s.children(a).contains(&b));
    }

    #[test]
    fn dump_mentions_labels() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let dump = s.dump();
        assert!(dump.contains("/."));
        assert!(dump.contains('a'));
    }

    #[test]
    fn insert_skeleton_accepts_pre_built_skeletons() {
        let doc = XmlTree::parse("<a><b/><b/></a>").unwrap();
        let mut s1 = Synopsis::new(SynopsisConfig::counters());
        s1.ingest(ingest::tree(&doc)).unwrap();
        let mut s2 = Synopsis::new(SynopsisConfig::counters());
        s2.ingest(ingest::skeleton(&doc.skeleton())).unwrap();
        assert_eq!(s1.node_count(), s2.node_count());
    }

    /// Explicit-identifier ingest (the shard-building entry point) matches
    /// the sequential ingest path value for value.
    #[test]
    fn explicit_identifier_ingest_matches_the_sequential_path() {
        let docs = figure2_documents();
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(4),
            SynopsisConfig::hashes(8),
        ] {
            let via_ingest = Synopsis::from_documents(config, &docs);
            let mut via_as = Synopsis::new(config);
            for (i, doc) in docs.iter().enumerate() {
                via_as.ingest_tree_as(doc, DocId(i as u64));
            }
            assert_eq!(via_as.document_count(), via_ingest.document_count());
            assert_eq!(canonical_values(&via_as), canonical_values(&via_ingest));
        }
    }

    #[test]
    fn epoch_advances_on_every_mutation_but_not_on_queries() {
        let mut s = Synopsis::new(SynopsisConfig::hashes(64));
        let e0 = s.epoch();
        s.ingest(ingest::text("<a><b/></a>")).unwrap();
        let e1 = s.epoch();
        assert!(e1 > e0, "insert must advance the epoch");
        // Queries leave the epoch alone.
        let _ = s.matching_value(s.root());
        let _ = s.full_values();
        let _ = s.size();
        assert_eq!(s.epoch(), e1);
        // prepare() only caches; it is not a logical mutation.
        s.prepare();
        assert_eq!(s.epoch(), e1);
        let a = s.children(s.root())[0];
        let b = s.children(a)[0];
        s.delete_node(b);
        assert!(s.epoch() > e1, "deletion must advance the epoch");
    }

    #[test]
    fn full_values_agree_with_matching_value() {
        let docs = figure2_documents();
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(100),
            SynopsisConfig::hashes(64),
        ] {
            let s = Synopsis::from_documents(config, &docs);
            let full = s.full_values();
            for id in s.live_nodes() {
                assert_eq!(
                    full[id.index()],
                    s.matching_value(id),
                    "node {id:?} ({:?})",
                    config.kind
                );
            }
        }
    }

    #[test]
    fn counters_root_fraction_is_one() {
        let docs = figure2_documents();
        let s = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        assert_eq!(s.matching_value(s.root()).count_units(), 1.0);
    }

    /// Canonical view of a synopsis for equivalence checks: every live
    /// root-to-node label path with its full matching-set value, sorted.
    pub(crate) fn canonical_values(s: &Synopsis) -> Vec<(Vec<String>, SummaryValue)> {
        fn walk(
            s: &Synopsis,
            id: SynopsisNodeId,
            path: &mut Vec<String>,
            out: &mut Vec<(Vec<String>, SummaryValue)>,
        ) {
            path.push(s.label(id).to_string());
            out.push((path.clone(), s.matching_value(id)));
            for &child in s.children(id) {
                walk(s, child, path, out);
            }
            path.pop();
        }
        let mut out = Vec::new();
        walk(s, s.root(), &mut Vec::new(), &mut out);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn sharded_build(config: SynopsisConfig, docs: &[XmlTree], shards: usize) -> Synopsis {
        let mut merged = Synopsis::new(config);
        let chunk = docs.len().div_ceil(shards.max(1)).max(1);
        for (index, chunk_docs) in docs.chunks(chunk).enumerate() {
            let mut shard = Synopsis::new(config);
            for (offset, doc) in chunk_docs.iter().enumerate() {
                shard.ingest_tree_as(doc, DocId((index * chunk + offset) as u64));
            }
            merged.merge(&shard);
        }
        merged
    }

    #[test]
    fn merged_shards_match_the_sequential_build_for_all_representations() {
        let docs = figure2_documents();
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(4),
            SynopsisConfig::sets(100),
            SynopsisConfig::hashes(4),
            SynopsisConfig::hashes(64),
        ] {
            let sequential = Synopsis::from_documents(config, &docs);
            for shards in [1usize, 2, 3, 6] {
                let merged = sharded_build(config, &docs, shards);
                assert_eq!(merged.document_count(), sequential.document_count());
                assert_eq!(
                    canonical_values(&merged),
                    canonical_values(&sequential),
                    "{:?} with {shards} shards",
                    config.kind
                );
                assert_eq!(
                    merged.universe_value(),
                    sequential.universe_value(),
                    "{:?} with {shards} shards",
                    config.kind
                );
                assert_eq!(merged.effective_universe(), sequential.effective_universe());
            }
        }
    }

    #[test]
    fn merging_an_empty_shard_is_the_identity() {
        let docs = figure2_documents();
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(4),
            SynopsisConfig::hashes(8),
        ] {
            let mut s = Synopsis::from_documents(config, &docs);
            let before = canonical_values(&s);
            let before_docs = s.document_count();
            s.merge(&Synopsis::new(config));
            assert_eq!(s.document_count(), before_docs);
            assert_eq!(canonical_values(&s), before);
            // Empty += populated works too.
            let mut empty = Synopsis::new(config);
            empty.merge(&s);
            assert_eq!(canonical_values(&empty), before);
        }
    }

    #[test]
    fn merge_advances_the_epoch() {
        let docs = figure2_documents();
        let mut s = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let epoch = s.epoch();
        s.merge(&Synopsis::new(SynopsisConfig::counters()));
        assert!(s.epoch() > epoch);
    }

    #[test]
    fn merge_after_prune_combines_folded_subtrees_and_summaries() {
        let docs = figure2_documents();
        let mut pruned = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        // Prune aggressively so folds actually happen.
        pruned.prune_to_ratio(0.4, crate::PruneConfig::default());
        let folded_total: usize = pruned
            .live_nodes()
            .iter()
            .map(|&id| pruned.folded(id).len())
            .sum();
        let mut fresh = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        fresh.merge(&pruned);
        assert_eq!(fresh.document_count(), 2 * docs.len() as u64);
        // Every folded subtree of the pruned shard survives on the merged
        // synopsis.
        let merged_folded: usize = fresh
            .live_nodes()
            .iter()
            .map(|&id| fresh.folded(id).len())
            .sum();
        assert!(merged_folded >= folded_total);
        // Merging a pruned shard into itself does not duplicate folds.
        let mut doubled = pruned.clone();
        doubled.merge(&pruned);
        let doubled_folded: usize = doubled
            .live_nodes()
            .iter()
            .map(|&id| doubled.folded(id).len())
            .sum();
        assert_eq!(doubled_folded, folded_total);
    }

    #[test]
    fn merging_a_dag_shaped_shard_preserves_sharing() {
        // Same-label merges during pruning give nodes multiple parents; a
        // merge must fold each such node in exactly once (mirroring the
        // extra edges) rather than re-expanding one copy per parent path.
        let docs: Vec<XmlTree> = ["<a><x><k/></x></a>", "<a><y><k/></y></a>"]
            .iter()
            .map(|s| XmlTree::parse(s).unwrap())
            .collect();
        let mut dag = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let a = child_by_label(&dag, dag.root(), "a");
        let x = child_by_label(&dag, a, "x");
        let y = child_by_label(&dag, a, "y");
        let kx = child_by_label(&dag, x, "k");
        let ky = child_by_label(&dag, y, "k");
        dag.merge_nodes(kx, ky);
        let shared = child_by_label(&dag, x, "k");
        assert_eq!(dag.parents(shared).len(), 2, "the shard really is a DAG");
        let dag_nodes = dag.node_count();
        let dag_edges = dag.edge_count();

        let mut merged = Synopsis::new(SynopsisConfig::counters());
        merged.merge(&dag);
        assert_eq!(merged.node_count(), dag_nodes, "no node is duplicated");
        assert_eq!(merged.edge_count(), dag_edges, "sharing edges survive");
        let a = child_by_label(&merged, merged.root(), "a");
        let x = child_by_label(&merged, a, "x");
        let k = child_by_label(&merged, x, "k");
        assert_eq!(merged.parents(k).len(), 2);
        assert_eq!(canonical_values(&merged), canonical_values(&dag));

        // Self-merge doubles counters but still does not re-expand the DAG.
        let mut doubled = dag.clone();
        doubled.merge(&dag);
        assert_eq!(doubled.node_count(), dag_nodes);
        assert_eq!(doubled.edge_count(), dag_edges);
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn merging_mismatched_configurations_panics() {
        let mut a = Synopsis::new(SynopsisConfig::counters());
        let b = Synopsis::new(SynopsisConfig::hashes(8));
        a.merge(&b);
    }

    #[test]
    fn observe_stream_matches_from_documents() {
        use tps_xml::stream::{cloned_trees, LineStream};
        let docs = figure2_documents();
        let sequential = Synopsis::from_documents(SynopsisConfig::hashes(8), &docs);
        let mut streamed = Synopsis::new(SynopsisConfig::hashes(8));
        let observed = streamed
            .ingest(ingest::stream(cloned_trees(&docs)))
            .unwrap();
        assert_eq!(observed, docs.len() as u64);
        assert_eq!(canonical_values(&streamed), canonical_values(&sequential));
        // Line-delimited raw text round-trips through the same build.
        let text: String = docs.iter().map(|d| d.to_xml() + "\n").collect();
        let mut from_lines = Synopsis::new(SynopsisConfig::hashes(8));
        from_lines
            .ingest(ingest::stream(LineStream::new(text.as_bytes())))
            .unwrap();
        assert_eq!(
            canonical_values(&from_lines),
            canonical_values(&sequential),
            "skeletons from re-parsed text match"
        );
    }

    #[test]
    fn observe_stream_reports_parse_errors_with_their_position() {
        use tps_xml::stream::LineStream;
        let mut s = Synopsis::new(SynopsisConfig::counters());
        let err = s
            .ingest(ingest::stream(LineStream::new(
                "<a/>\n<broken\n".as_bytes(),
            )))
            .unwrap_err();
        assert!(err.to_string().contains("document 1"), "{err}");
        // The valid document before the error was observed.
        assert_eq!(s.document_count(), 1);
    }
}
