//! The batch-first similarity engine.
//!
//! The paper's whole point is *amortisation*: one compact synopsis answers
//! selectivity and similarity queries for thousands of subscriptions.
//! [`SimilarityEngine`] is the API shape that exploits it. Patterns are
//! registered once ([`SimilarityEngine::register`]) and handed back as cheap
//! [`PatternId`] handles — interned (structurally equal patterns share one
//! handle), deduplicated and pre-compiled ([`tps_pattern::CompiledPattern`])
//! into an evaluation-friendly form. All queries go through handles, and the
//! engine keeps three layers of caching behind the synopsis *epoch counter*
//! (bumped by [`Synopsis`] on every `observe`/prune mutation, so cached
//! results are invalidated exactly when the synopsis changes):
//!
//! 1. an engine-side materialisation of the per-node full matching sets
//!    (subsuming the old `SynopsisConfig`-then-`prepare()` two-step), with a
//!    label signature per node that lets a `SEL` step skip the synopsis
//!    subtrees lacking one of its prefix tags;
//! 2. the value `sat(u)` of every root branch `u` evaluated so far, keyed by
//!    the branch's canonical subtree: a pattern's value is the intersection
//!    of its root branches' values, so patterns sharing a branch share its
//!    evaluation;
//! 3. per-pattern selectivities and per-pair joint selectivities.
//!
//! The joint `P(p ∧ q)` is the value of the root-merge of `p` and `q`
//! (Section 4), whose root branches are those of `p` and `q`. It is folded
//! from the cached branch values in the order of the normalised
//! conjunction, with no conjunction pattern built and no `SEL` run. The
//! batched entry points [`SimilarityEngine::selectivities`] and
//! [`SimilarityEngine::similarity_matrix`] therefore evaluate each distinct
//! root branch of a workload once; an `n × n` similarity matrix then costs
//! `n` marginal folds plus one fold of a few cached values per unordered
//! pair, instead of the `2·n²` marginal and `n²` joint evaluations of
//! per-call estimation.
//!
//! The engine is `Send + Sync` — the immutable core (synopsis, compiled
//! patterns) sits behind an [`Arc`], the caches behind a [`Mutex`] — and
//! [`SimilarityEngine::similarity_matrix_par`] evaluates the missing branch
//! values on scoped worker threads, bit-identical to the sequential result.
//!
//! # Example
//!
//! ```
//! use tps_core::{ProximityMetric, SimilarityEngine};
//! use tps_pattern::TreePattern;
//! use tps_synopsis::{ingest, Ingest, MatchingSetKind};
//!
//! let mut engine = SimilarityEngine::builder()
//!     .matching_sets(MatchingSetKind::hashes(64))
//!     .metric(ProximityMetric::M3)
//!     .build();
//! for text in [
//!     "<media><CD><composer><last>Mozart</last></composer></CD></media>",
//!     "<media><book><author><last>Austen</last></author></book></media>",
//! ] {
//!     // Raw text folds in through the zero-copy scanner — no tree built.
//!     engine.ingest(ingest::text(text)).unwrap();
//! }
//! let p = engine.register(&TreePattern::parse("//CD").unwrap());
//! let q = engine.register(&TreePattern::parse("//composer/last").unwrap());
//! let sim = engine.similarity(p, q, ProximityMetric::M3);
//! assert!(sim > 0.99, "both patterns match exactly the first document");
//!
//! // Batched: one matrix call shares every marginal and joint evaluation.
//! let matrix = engine.similarity_matrix(&[p, q], ProximityMetric::M3);
//! assert_eq!(matrix.get(0, 1), sim);
//! ```

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tps_pattern::{
    containment, ops, CompiledPattern, PatternNodeId, SubtreeInterner, SubtreeKeyId, TreePattern,
};
use tps_synopsis::{
    DocId, IngestTarget, PruneConfig, PruneReport, SummaryValue, Synopsis, SynopsisConfig,
    SynopsisSize,
};
use tps_xml::XmlTree;

use crate::eval::{self, IdMap, Materialised, SelEvaluator, SelMemo, ValueSource};
use crate::index::{CandidateIndex, LshConfig};
use crate::matrix::SimMatrix;
use crate::metrics::ProximityMetric;
use crate::par;

/// Handle of a pattern registered with a [`SimilarityEngine`].
///
/// Handles are engine-specific: using a handle obtained from one engine on
/// another is a logic error (and panics if the index is out of range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(u32);

impl PatternId {
    /// Dense registration index of the pattern.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A shareable containment decision procedure consulted during
/// analyze-on-register, in addition to the syntactic homomorphism test.
/// Same contract as [`tps_pattern::containment::ContainmentOracle`], with
/// the `Send + Sync` bounds the engine needs.
pub type SharedContainmentOracle =
    Arc<dyn Fn(&TreePattern, &TreePattern) -> Option<bool> + Send + Sync>;

/// How (and whether) registration statically analyses each new pattern for
/// redundancy against the already-registered workload.
#[derive(Clone, Default)]
enum RegisterAnalysis {
    /// No analysis: every registered pattern is active (the default).
    #[default]
    Off,
    /// Homomorphism-based containment only — sound on *every* document.
    Syntactic,
    /// Syntactic containment extended by an external oracle (typically a
    /// DTD-aware refinement check) — sound on documents of the oracle's
    /// document type.
    Oracle(SharedContainmentOracle),
}

impl std::fmt::Debug for RegisterAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterAnalysis::Off => f.write_str("Off"),
            RegisterAnalysis::Syntactic => f.write_str("Syntactic"),
            RegisterAnalysis::Oracle(_) => f.write_str("Oracle(..)"),
        }
    }
}

impl RegisterAnalysis {
    fn enabled(&self) -> bool {
        !matches!(self, RegisterAnalysis::Off)
    }

    /// Oracle-extended containment: is `q`'s match set included in `p`'s?
    fn covers(&self, p: &TreePattern, q: &TreePattern) -> bool {
        match self {
            RegisterAnalysis::Off => false,
            RegisterAnalysis::Syntactic => containment::contains(p, q),
            RegisterAnalysis::Oracle(oracle) => {
                containment::contains_with(p, q, &|a, b| oracle(a, b))
            }
        }
    }
}

/// Builder for [`SimilarityEngine`] — subsumes the old
/// `SynopsisConfig`-then-`prepare()` two-step.
///
/// Defaults: per-node hash samples of capacity 256 (the paper's
/// best-performing representation), the default sampling seed, the `M3`
/// proximity metric, and no analyze-on-register.
#[derive(Debug, Clone)]
pub struct SimilarityEngineBuilder {
    config: SynopsisConfig,
    seed_override: Option<u64>,
    metric: ProximityMetric,
    analysis: RegisterAnalysis,
}

impl SimilarityEngineBuilder {
    /// Choose the matching-set representation (accepts a
    /// [`tps_synopsis::MatchingSetKind`] or a full [`SynopsisConfig`],
    /// whose seed — the default one for a bare kind — is honoured unless
    /// [`Self::seed`] is also called).
    pub fn matching_sets(mut self, config: impl Into<SynopsisConfig>) -> Self {
        self.config = config.into();
        self
    }

    /// Override the sampling seed. Takes precedence over the seed carried by
    /// a [`SynopsisConfig`] passed to [`Self::matching_sets`], regardless of
    /// call order.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed_override = Some(seed);
        self
    }

    /// Choose the default proximity metric used by the `_default` query
    /// variants.
    pub fn metric(mut self, metric: ProximityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Statically analyse each newly registered pattern against the existing
    /// workload using the syntactic containment test, mapping redundant
    /// patterns to a covering [`PatternId`]
    /// (see [`SimilarityEngine::covering`]).
    pub fn analyze_on_register(mut self, enabled: bool) -> Self {
        self.analysis = if enabled {
            RegisterAnalysis::Syntactic
        } else {
            RegisterAnalysis::Off
        };
        self
    }

    /// Like [`Self::analyze_on_register`], with containment extended by an
    /// external oracle (typically a DTD-aware refinement check built from
    /// `tps_dtd::PatternAnalyzer`). Implies analyze-on-register. The
    /// coverage map is then sound only for documents conforming to whatever
    /// document type the oracle reasons about.
    pub fn redundancy_oracle(mut self, oracle: SharedContainmentOracle) -> Self {
        self.analysis = RegisterAnalysis::Oracle(oracle);
        self
    }

    /// Build the engine with an empty synopsis.
    pub fn build(self) -> SimilarityEngine {
        let mut config = self.config;
        if let Some(seed) = self.seed_override {
            config.seed = seed;
        }
        SimilarityEngine {
            core: Arc::new(EngineCore {
                synopsis: Synopsis::new(config),
                patterns: Vec::new(),
                branches: Vec::new(),
                by_key: HashMap::new(),
                covered_by: Vec::new(),
            }),
            default_metric: self.metric,
            analysis: self.analysis,
            state: Mutex::new(EngineState::new()),
        }
    }
}

/// Counters describing how well the engine's caches are doing; useful for
/// tests and performance reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Synopsis epoch the current caches were built at.
    pub epoch: u64,
    /// Marginal selectivity queries answered from the cache.
    pub marginal_hits: u64,
    /// Marginal selectivity queries that ran `SEL`.
    pub marginal_misses: u64,
    /// Joint selectivity queries answered from the pair cache.
    pub joint_hits: u64,
    /// Joint selectivity queries folded from branch values.
    pub joint_misses: u64,
    /// Root-branch values currently cached: one per distinct canonical
    /// branch the queries of this epoch have needed. (The name predates
    /// this cache, which replaced a shared `SEL` memo.)
    pub memo_entries: usize,
    /// Distinct canonical pattern subtrees interned so far.
    pub interned_subtrees: usize,
}

/// The immutable heart of an engine: the synopsis plus the registered,
/// compiled workload.
///
/// Shared behind an [`Arc`]: queries (including the scoped workers of
/// [`SimilarityEngine::similarity_matrix_par`]) only ever read it, while
/// maintenance methods take `&mut SimilarityEngine` and mutate it through
/// [`Arc::make_mut`] — so cloning an engine shares the core
/// copy-on-write.
#[derive(Debug, Clone)]
struct EngineCore {
    synopsis: Synopsis,
    patterns: Vec<CompiledPattern>,
    /// Per pattern: its root branches (parallel to `patterns`).
    branches: Vec<Box<[Branch]>>,
    by_key: HashMap<Box<str>, PatternId>,
    /// Per pattern: the handle of another registered pattern whose match set
    /// provably includes this one's (`None` for active patterns). Only
    /// populated when analyze-on-register is enabled; parallel to
    /// `patterns`.
    covered_by: Vec<Option<PatternId>>,
}

/// A root branch of a compiled pattern: the node that roots it, the
/// interned key its value is cached under, and its canonical key text,
/// which orders it among the root branches of a conjunction.
#[derive(Debug, Clone)]
struct Branch {
    text: Box<str>,
    key: SubtreeKeyId,
    node: PatternNodeId,
}

/// The root branches of a compiled pattern, in its normalised order.
fn branches_of(compiled: &CompiledPattern) -> Box<[Branch]> {
    let pattern = compiled.pattern();
    pattern
        .children(pattern.root())
        .iter()
        .map(|&node| Branch {
            text: ops::subtree_key(pattern, node).into(),
            key: compiled.node_key(node),
            node,
        })
        .collect()
}

/// The keys of the root branches of `p ∧ q` after normalisation: both lists
/// are in canonical text order, so this is their merge, a shared branch
/// once.
fn merged<'a>(p: &'a [Branch], q: &'a [Branch]) -> impl Iterator<Item = SubtreeKeyId> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let order = match (p.get(i), q.get(j)) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(a), Some(b)) if a.key == b.key => Ordering::Equal,
            (Some(a), Some(b)) => a.text.cmp(&b.text),
        };
        let key = if order == Ordering::Greater {
            q[j].key
        } else {
            p[i].key
        };
        i += usize::from(order != Ordering::Greater);
        j += usize::from(order != Ordering::Less);
        Some(key)
    })
}

/// The one matrix-assembly pass behind both
/// [`SimilarityEngine::similarity_matrix`] and
/// [`SimilarityEngine::similarity_matrix_par`]: marginals and joints
/// through the cache state, `1.0` for duplicate handles, and the metric
/// applied by [`SimMatrix`]'s own assembly from selectivities. A single
/// implementation is what keeps the two entry points bit-identical by
/// construction.
fn assemble_matrix(
    st: &mut EngineState,
    core: &EngineCore,
    ids: &[PatternId],
    metric: ProximityMetric,
) -> SimMatrix {
    SimMatrix::from_selectivities(ids.len(), metric, |i, j| {
        let (p, q) = (ids[i], ids[j]);
        (p != q).then(|| {
            [
                st.marginal(core, p),
                st.marginal(core, q),
                st.joint(core, p, q),
            ]
        })
    })
}

#[derive(Debug, Clone)]
struct EngineState {
    /// Synopsis epoch the value caches below were computed at.
    epoch: u64,
    /// Subtree-key interner (survives epoch bumps: keys are pattern-side).
    interner: SubtreeInterner,
    /// Engine-side materialisation of the synopsis, built lazily.
    materialised: Option<Materialised>,
    /// `sat(u)` of every root branch evaluated so far, by its key.
    branch_values: IdMap<SubtreeKeyId, SummaryValue>,
    /// Reusable per-branch `SEL` memo (cleared between branches).
    scratch: SelMemo,
    /// Cached marginal selectivity per registered pattern.
    marginals: Vec<Option<f64>>,
    /// Cached joint selectivity per unordered pattern pair.
    joints: IdMap<(u32, u32), f64>,
    marginal_hits: u64,
    marginal_misses: u64,
    joint_hits: u64,
    joint_misses: u64,
}

impl EngineState {
    fn new() -> Self {
        Self {
            epoch: 0,
            interner: SubtreeInterner::new(),
            materialised: None,
            branch_values: IdMap::default(),
            scratch: SelMemo::default(),
            marginals: Vec::new(),
            joints: IdMap::default(),
            marginal_hits: 0,
            marginal_misses: 0,
            joint_hits: 0,
            joint_misses: 0,
        }
    }

    /// Drop every synopsis-dependent cache (the interner survives — subtree
    /// keys do not depend on the synopsis). Hit/miss counters restart, so
    /// [`EngineCacheStats`] always describes the current epoch's caches.
    fn invalidate(&mut self, epoch: u64, pattern_count: usize) {
        self.epoch = epoch;
        self.materialised = None;
        self.branch_values.clear();
        self.scratch.clear();
        self.marginals = vec![None; pattern_count];
        self.joints.clear();
        self.marginal_hits = 0;
        self.marginal_misses = 0;
        self.joint_hits = 0;
        self.joint_misses = 0;
    }

    /// Compile a pattern through the engine's interner.
    fn compile(&mut self, pattern: &TreePattern) -> (CompiledPattern, Box<[Branch]>) {
        let compiled = CompiledPattern::compile(pattern, &mut self.interner);
        let branches = branches_of(&compiled);
        (compiled, branches)
    }

    /// Evaluate the root branches of `compiled` that have no cached value.
    fn evaluate_branches(
        &mut self,
        synopsis: &Synopsis,
        compiled: &CompiledPattern,
        branches: &[Branch],
    ) {
        let materialised = self
            .materialised
            .get_or_insert_with(|| Materialised::of(synopsis));
        for branch in branches {
            if let Entry::Vacant(slot) = self.branch_values.entry(branch.key) {
                self.scratch.clear();
                let source = ValueSource::Cached(materialised);
                slot.insert(
                    SelEvaluator::new(synopsis, source, &mut self.scratch)
                        .branch(compiled, branch.node),
                );
            }
        }
    }

    /// The selectivity of `p ∧ q` (of `p` alone when `q` is empty), folded
    /// from cached branch values.
    fn fold(&self, p: &[Branch], q: &[Branch]) -> f64 {
        // invariant: `evaluate_branches` ran for both lists this epoch
        let universe = self
            .materialised
            .as_ref()
            .expect("materialised with the branches")
            .universe;
        let values = merged(p, q).map(|key| &self.branch_values[&key]);
        eval::selectivity(eval::conjunction_units(universe, values), universe)
    }

    /// Cached marginal selectivity of a registered pattern.
    fn marginal(&mut self, core: &EngineCore, id: PatternId) -> f64 {
        if let Some(cached) = self.marginals[id.index()] {
            self.marginal_hits += 1;
            return cached;
        }
        self.marginal_misses += 1;
        let branches = &core.branches[id.index()];
        self.evaluate_branches(&core.synopsis, &core.patterns[id.index()], branches);
        let value = self.fold(branches, &[]);
        self.marginals[id.index()] = Some(value);
        value
    }

    /// Cached joint selectivity of an unordered pair of registered patterns.
    fn joint(&mut self, core: &EngineCore, p: PatternId, q: PatternId) -> f64 {
        if p == q {
            return self.marginal(core, p);
        }
        let key = (p.0.min(q.0), p.0.max(q.0));
        if let Some(&cached) = self.joints.get(&key) {
            self.joint_hits += 1;
            return cached;
        }
        self.joint_misses += 1;
        for id in [p, q] {
            let i = id.index();
            self.evaluate_branches(&core.synopsis, &core.patterns[i], &core.branches[i]);
        }
        let value = self.fold(&core.branches[p.index()], &core.branches[q.index()]);
        self.joints.insert(key, value);
        value
    }

    /// Similarity of a registered pair under `metric`.
    fn similarity(
        &mut self,
        core: &EngineCore,
        p: PatternId,
        q: PatternId,
        metric: ProximityMetric,
    ) -> f64 {
        if p == q {
            return 1.0;
        }
        let p_p = self.marginal(core, p);
        let p_q = self.marginal(core, q);
        let p_and = self.joint(core, p, q);
        metric.compute(p_p, p_q, p_and)
    }
}

/// Batch-first streaming similarity engine — see the [module docs](self).
///
/// Maintenance (observing documents, pruning, registering patterns) takes
/// `&mut self`; queries take `&self` and share interior caches, so an engine
/// can be handed to read-only consumers (clustering, routing, experiment
/// harnesses) after its workload is registered.
///
/// The engine is `Send + Sync`: the immutable core (synopsis, compiled
/// patterns) lives behind an [`Arc`] and the cache state behind a
/// [`Mutex`], so `&SimilarityEngine` can be shared across threads directly.
/// Concurrent queries serialise on the cache lock;
/// [`SimilarityEngine::similarity_matrix_par`] is the entry point that
/// genuinely fans evaluation work out over multiple cores. Cloning shares
/// the core copy-on-write and snapshots the caches.
#[derive(Debug)]
pub struct SimilarityEngine {
    core: Arc<EngineCore>,
    default_metric: ProximityMetric,
    analysis: RegisterAnalysis,
    state: Mutex<EngineState>,
}

/// The engine ingests documents exactly like its synopsis: every source
/// accepted by [`Ingest`](tps_synopsis::Ingest) — trees, skeletons, raw bytes (the zero-copy
/// scanner path), pull-based streams — folds into the engine's synopsis,
/// bumping its epoch so query caches invalidate as usual. Copy-on-write
/// applies: ingesting into a cloned engine first unshares the core.
impl IngestTarget for SimilarityEngine {
    fn next_doc_id(&self) -> DocId {
        self.core.synopsis.next_doc_id()
    }

    fn ingest_tree_as(&mut self, document: &XmlTree, doc: DocId) {
        self.core_mut().synopsis.ingest_tree_as(document, doc);
    }

    fn ingest_skeleton_as(&mut self, skeleton: &XmlTree, doc: DocId) {
        self.core_mut().synopsis.ingest_skeleton_as(skeleton, doc);
    }

    fn ingest_bytes_as(&mut self, bytes: &[u8], doc: DocId) -> Result<(), tps_xml::XmlError> {
        self.core_mut().synopsis.ingest_bytes_as(bytes, doc)
    }
}

impl Clone for SimilarityEngine {
    fn clone(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
            default_metric: self.default_metric,
            analysis: self.analysis.clone(),
            state: Mutex::new(
                self.state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl SimilarityEngine {
    /// Start building an engine.
    pub fn builder() -> SimilarityEngineBuilder {
        SimilarityEngineBuilder {
            config: SynopsisConfig::hashes(256),
            seed_override: None,
            metric: ProximityMetric::M3,
            analysis: RegisterAnalysis::Off,
        }
    }

    /// An engine with an empty synopsis of the given configuration and the
    /// default `M3` metric.
    pub fn new(config: SynopsisConfig) -> Self {
        Self::builder().matching_sets(config).build()
    }

    /// Wrap an existing synopsis (keeps its observed stream).
    pub fn from_synopsis(synopsis: Synopsis) -> Self {
        Self {
            core: Arc::new(EngineCore {
                synopsis,
                patterns: Vec::new(),
                branches: Vec::new(),
                by_key: HashMap::new(),
                covered_by: Vec::new(),
            }),
            default_metric: ProximityMetric::M3,
            analysis: RegisterAnalysis::Off,
            state: Mutex::new(EngineState::new()),
        }
    }

    /// Exclusive access to the shared core, cloning it first if another
    /// engine clone still holds a reference (copy-on-write).
    fn core_mut(&mut self) -> &mut EngineCore {
        Arc::make_mut(&mut self.core)
    }

    /// Exclusive access to the cache state through `&mut self` — no lock
    /// traffic, and a poisoned mutex (a panicking query thread) is recovered
    /// because the state is only ever transitioned between consistent
    /// snapshots.
    fn state_exclusive(&mut self) -> &mut EngineState {
        self.state.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Stream maintenance
    // ------------------------------------------------------------------

    /// Build an engine by fanning a document stream's parsing and
    /// observation over up to `shards` worker threads
    /// ([`crate::build_par`]); estimate-identical to observing the stream
    /// sequentially, for any shard count.
    pub fn from_stream_par<S: tps_xml::stream::DocumentStream>(
        config: SynopsisConfig,
        stream: S,
        shards: usize,
    ) -> Result<Self, tps_xml::stream::StreamError> {
        Ok(Self::from_synopsis(crate::build_par(
            config, stream, shards,
        )?))
    }

    /// Number of documents observed so far.
    pub fn document_count(&self) -> u64 {
        self.core.synopsis.document_count()
    }

    /// Read access to the synopsis.
    pub fn synopsis(&self) -> &Synopsis {
        &self.core.synopsis
    }

    /// Mutable access to the synopsis (e.g. for custom pruning schedules).
    ///
    /// Every synopsis mutation bumps its epoch, which invalidates the
    /// engine's caches on the next query; handing out the reference also
    /// advances the epoch defensively, so even a mutation the synopsis
    /// cannot observe invalidates them. One caveat: if you *replace* the
    /// synopsis wholesale (`std::mem::replace`/`swap` through this
    /// reference), the incoming synopsis carries its own counter — call
    /// [`Synopsis::mark_dirty`] on it afterwards to rule out an accidental
    /// epoch collision with the cached tag.
    pub fn synopsis_mut(&mut self) -> &mut Synopsis {
        let core = self.core_mut();
        core.synopsis.mark_dirty();
        &mut core.synopsis
    }

    /// Current synopsis size decomposition.
    pub fn size(&self) -> SynopsisSize {
        self.core.synopsis.size()
    }

    /// Prune the synopsis to `alpha` times its current size.
    pub fn prune_to_ratio(&mut self, alpha: f64, config: PruneConfig) -> PruneReport {
        self.core_mut().synopsis.prune_to_ratio(alpha, config)
    }

    /// Eagerly materialise the per-node matching sets and label signatures
    /// for the current epoch. Optional — queries materialise them lazily —
    /// but useful to move the one-off cost out of a measured section. No
    /// branch value is evaluated.
    pub fn prepare(&self) {
        let mut st = self.state_mut();
        st.materialised
            .get_or_insert_with(|| Materialised::of(&self.core.synopsis));
    }

    /// The default proximity metric used by the `_default` query variants.
    pub fn default_metric(&self) -> ProximityMetric {
        self.default_metric
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Register a pattern, returning its handle.
    ///
    /// Patterns are interned by canonical structure: registering a pattern
    /// that is equal (modulo sibling order and duplicate branches) to an
    /// already-registered one returns the existing handle.
    pub fn register(&mut self, pattern: &TreePattern) -> PatternId {
        let (compiled, branches) = self.state_exclusive().compile(pattern);
        if let Some(&existing) = self.core.by_key.get(compiled.canonical_key()) {
            return existing;
        }
        let covered = self.analyze_new_pattern(compiled.pattern());
        let core = self.core_mut();
        let id = PatternId(core.patterns.len() as u32);
        core.by_key.insert(compiled.canonical_key().into(), id);
        core.patterns.push(compiled);
        core.branches.push(branches);
        core.covered_by.push(covered);
        if covered.is_none() && self.analysis.enabled() {
            // The new pattern became the workload's newest active member;
            // earlier active patterns it covers are now redundant.
            self.demote_covered_by(id);
        }
        self.state_exclusive().marginals.push(None);
        id
    }

    /// Analyze-on-register, forward direction: find an earlier *active*
    /// pattern whose match set includes the new pattern's. Earliest
    /// registration wins, mirroring the first-occurrence rule of the routing
    /// crate's containment pruning.
    fn analyze_new_pattern(&self, pattern: &TreePattern) -> Option<PatternId> {
        if !self.analysis.enabled() {
            return None;
        }
        self.core
            .patterns
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.core.covered_by[i].is_none())
            .find(|(_, registered)| self.analysis.covers(registered.pattern(), pattern))
            .map(|(i, _)| PatternId(i as u32))
    }

    /// Analyze-on-register, reverse direction: the freshly registered active
    /// pattern `id` may cover earlier active patterns; demote every one it
    /// does. Coverage links always point at a pattern that was active when
    /// the link was created, so chains stay acyclic.
    fn demote_covered_by(&mut self, id: PatternId) {
        let demoted: Vec<usize> = self
            .core
            .patterns
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != id.index() && self.core.covered_by[i].is_none())
            .filter(|(_, registered)| {
                self.analysis.covers(
                    self.core.patterns[id.index()].pattern(),
                    registered.pattern(),
                )
            })
            .map(|(i, _)| i)
            .collect();
        if !demoted.is_empty() {
            let core = self.core_mut();
            for i in demoted {
                core.covered_by[i] = Some(id);
            }
        }
    }

    /// Register a whole workload, returning one handle per input pattern
    /// (duplicates map to the same handle).
    pub fn register_all<'a, I>(&mut self, patterns: I) -> Vec<PatternId>
    where
        I: IntoIterator<Item = &'a TreePattern>,
    {
        patterns.into_iter().map(|p| self.register(p)).collect()
    }

    /// The (normalised) pattern behind a handle.
    pub fn pattern(&self, id: PatternId) -> &TreePattern {
        self.core.patterns[id.index()].pattern()
    }

    /// Number of registered (distinct) patterns.
    pub fn pattern_count(&self) -> usize {
        self.core.patterns.len()
    }

    // ------------------------------------------------------------------
    // Analyze-on-register: redundancy map
    // ------------------------------------------------------------------

    /// Whether analyze-on-register is enabled on this engine.
    pub fn analyzes_on_register(&self) -> bool {
        self.analysis.enabled()
    }

    /// The pattern directly covering `id`, if registration analysis proved
    /// `id` redundant (its match set is included in the coverer's). `None`
    /// for active patterns and whenever analyze-on-register is off.
    pub fn covering(&self, id: PatternId) -> Option<PatternId> {
        self.core.covered_by[id.index()]
    }

    /// Follow the coverage chain from `id` to its active representative —
    /// `id` itself when it is active. Delivery semantics are preserved by
    /// construction: every document matching `id`'s pattern also matches the
    /// representative's, so a subscriber registered under `id` receives via
    /// the representative's matches.
    pub fn covering_root(&self, id: PatternId) -> PatternId {
        let mut current = id;
        while let Some(next) = self.core.covered_by[current.index()] {
            current = next;
        }
        current
    }

    /// Handles of the active (non-redundant) patterns, in registration
    /// order. This is the compacted workload: similarity matrices, clusters
    /// and routing tables built over it see a smaller `n` with unchanged
    /// match semantics on the analysed document type.
    pub fn active_ids(&self) -> Vec<PatternId> {
        self.core
            .covered_by
            .iter()
            .enumerate()
            .filter(|(_, covered)| covered.is_none())
            .map(|(i, _)| PatternId(i as u32))
            .collect()
    }

    /// Number of registered patterns proven redundant by registration
    /// analysis.
    pub fn redundant_count(&self) -> usize {
        self.core
            .covered_by
            .iter()
            .filter(|covered| covered.is_some())
            .count()
    }

    // ------------------------------------------------------------------
    // Handle-based queries
    // ------------------------------------------------------------------

    /// Estimated selectivity `P(p)` of a registered pattern (cached until
    /// the synopsis changes).
    pub fn selectivity(&self, id: PatternId) -> f64 {
        self.state_mut().marginal(&self.core, id)
    }

    /// Batched selectivities of a slice of handles; a root branch shared by
    /// several patterns is evaluated once.
    pub fn selectivities(&self, ids: &[PatternId]) -> Vec<f64> {
        let mut st = self.state_mut();
        ids.iter().map(|&id| st.marginal(&self.core, id)).collect()
    }

    /// Estimated joint selectivity `P(p ∧ q)` (cached per unordered pair).
    pub fn joint_selectivity(&self, p: PatternId, q: PatternId) -> f64 {
        self.state_mut().joint(&self.core, p, q)
    }

    /// Estimated similarity of two registered patterns under `metric`.
    pub fn similarity(&self, p: PatternId, q: PatternId, metric: ProximityMetric) -> f64 {
        self.state_mut().similarity(&self.core, p, q, metric)
    }

    /// Estimated similarity under the engine's default metric.
    pub fn similarity_default(&self, p: PatternId, q: PatternId) -> f64 {
        self.similarity(p, q, self.default_metric)
    }

    /// Estimated similarities of a registered pair under all three metrics,
    /// in the order `[M1, M2, M3]`; the three selectivities are evaluated
    /// (at most) once.
    pub fn similarities(&self, p: PatternId, q: PatternId) -> [f64; 3] {
        if p == q {
            return [1.0; 3];
        }
        let mut st = self.state_mut();
        let p_p = st.marginal(&self.core, p);
        let p_q = st.marginal(&self.core, q);
        let p_and = st.joint(&self.core, p, q);
        [
            ProximityMetric::M1.compute(p_p, p_q, p_and),
            ProximityMetric::M2.compute(p_p, p_q, p_and),
            ProximityMetric::M3.compute(p_p, p_q, p_and),
        ]
    }

    /// All-pairs similarity matrix of a workload under `metric`.
    ///
    /// Entry `(i, j)` is bit-identical to `self.similarity(ids[i], ids[j],
    /// metric)`; the batched form simply shares every marginal evaluation
    /// (`n` instead of `2·n²`) and folds each unordered joint once.
    pub fn similarity_matrix(&self, ids: &[PatternId], metric: ProximityMetric) -> SimMatrix {
        assemble_matrix(&mut self.state_mut(), &self.core, ids, metric)
    }

    /// All-pairs similarity matrix under the engine's default metric.
    pub fn similarity_matrix_default(&self, ids: &[PatternId]) -> SimMatrix {
        self.similarity_matrix(ids, self.default_metric)
    }

    /// All-pairs similarity matrix computed on up to `threads` scoped worker
    /// threads — bit-identical to [`SimilarityEngine::similarity_matrix`].
    ///
    /// The root branches of `ids` that have no cached value are evaluated
    /// on [`std::thread::scope`] workers (see [`crate::par`]), each distinct
    /// branch once, every worker with its own `SEL` memo against the
    /// read-only synopsis materialisation. The values are merged into the
    /// engine's epoch-tagged cache, so later sequential queries stay warm.
    /// The marginals and joints are then folds of cached values, assembled
    /// sequentially by the same pass as the sequential matrix.
    ///
    /// A branch's value is a pure function of the synopsis and the branch,
    /// so the partitioning (and `threads` itself) cannot change any result:
    /// every entry is bit-identical to the sequential matrix and to the
    /// corresponding pairwise [`SimilarityEngine::similarity`] call.
    ///
    /// `threads <= 1` falls back to the sequential path. The engine's cache
    /// lock is held for the whole call; concurrent queries on other threads
    /// wait, exactly as they would behind a long sequential matrix call.
    pub fn similarity_matrix_par(
        &self,
        ids: &[PatternId],
        metric: ProximityMetric,
        threads: usize,
    ) -> SimMatrix {
        if threads <= 1 || ids.len() < 2 {
            return self.similarity_matrix(ids, metric);
        }
        let mut guard = self.state_mut();
        let st = &mut *guard;
        let core = &*self.core;
        let materialised = st
            .materialised
            .get_or_insert_with(|| Materialised::of(&core.synopsis));
        let mut seen = HashSet::new();
        let todo: Vec<(&CompiledPattern, &Branch)> = ids
            .iter()
            .flat_map(|id| {
                let compiled = &core.patterns[id.index()];
                core.branches[id.index()].iter().map(move |b| (compiled, b))
            })
            .filter(|(_, b)| !st.branch_values.contains_key(&b.key) && seen.insert(b.key))
            .collect();
        let shards = par::map_chunks(&todo, threads, |_, chunk| {
            let mut memo = SelMemo::default();
            chunk
                .iter()
                .map(|&(compiled, branch)| {
                    memo.clear();
                    let source = ValueSource::Cached(materialised);
                    SelEvaluator::new(&core.synopsis, source, &mut memo)
                        .branch(compiled, branch.node)
                })
                .collect::<Vec<_>>()
        });
        for ((_, branch), value) in todo.iter().zip(shards.into_iter().flatten()) {
            st.branch_values.insert(branch.key, value);
        }
        assemble_matrix(st, core, ids, metric)
    }

    /// Sub-quadratic similarity search: the pairs of `ids` whose similarity
    /// under the engine's default metric is at least `threshold`, found via
    /// the LSH candidate-pair index with the default [`LshConfig`].
    ///
    /// See [`SimilarityEngine::similarity_candidates_with`] for the
    /// mechanics and the recall caveat.
    pub fn similarity_candidates(
        &self,
        ids: &[PatternId],
        threshold: f64,
    ) -> Vec<(usize, usize, f64)> {
        self.similarity_candidates_with(ids, self.default_metric, LshConfig::default(), threshold)
    }

    /// Sub-quadratic similarity search under an explicit metric and banding
    /// configuration.
    ///
    /// A [`CandidateIndex`] is built over the structural signatures of the
    /// registered patterns (`O(n)` — signatures derive from the patterns
    /// alone, no corpus or synopsis scan), candidate pairs are enumerated
    /// from its band buckets, and only those pairs are evaluated with the
    /// real selectivity-based `similarity`. Returned triples `(i, j, s)`
    /// index into `ids` with `i < j` and carry the symmetrised similarity
    /// `s ≥ threshold`, in lexicographic pair order — each surviving pair's
    /// value is bit-identical to the corresponding full-matrix entry.
    ///
    /// The candidate filter is probabilistic: a pair whose *structural*
    /// feature overlap is low becomes a candidate only with probability
    /// [`LshConfig::recall`], so pairs that are behaviourally similar under
    /// the observed traffic while structurally disjoint can be missed. That
    /// trade-off (and how to tune `bands`/`rows`) is quantified in
    /// `docs/SCALING.md`.
    pub fn similarity_candidates_with(
        &self,
        ids: &[PatternId],
        metric: ProximityMetric,
        lsh: LshConfig,
        threshold: f64,
    ) -> Vec<(usize, usize, f64)> {
        let mut index = CandidateIndex::new(lsh);
        for &id in ids {
            index.insert(self.pattern(id));
        }
        index
            .candidate_pairs()
            .into_iter()
            .filter_map(|(a, b)| {
                let (i, j) = (a as usize, b as usize);
                let symmetrised = if metric.is_symmetric() {
                    self.similarity(ids[i], ids[j], metric)
                } else {
                    (self.similarity(ids[i], ids[j], metric)
                        + self.similarity(ids[j], ids[i], metric))
                        / 2.0
                };
                (symmetrised >= threshold).then_some((i, j, symmetrised))
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Transient queries (unregistered patterns)
    // ------------------------------------------------------------------

    /// Selectivity of an ad-hoc pattern without registering it. Its root
    /// branches' values are cached like a registered pattern's, but its
    /// selectivity is not.
    pub fn selectivity_of(&self, pattern: &TreePattern) -> f64 {
        let mut st = self.state_mut();
        let (compiled, branches) = st.compile(pattern);
        st.evaluate_branches(&self.core.synopsis, &compiled, &branches);
        st.fold(&branches, &[])
    }

    /// Joint selectivity of two ad-hoc patterns.
    pub fn joint_selectivity_of(&self, p: &TreePattern, q: &TreePattern) -> f64 {
        self.triple_of(p, q)[2]
    }

    /// Similarity of two ad-hoc patterns under `metric`.
    pub fn similarity_of(&self, p: &TreePattern, q: &TreePattern, metric: ProximityMetric) -> f64 {
        let [p_p, p_q, p_and] = self.triple_of(p, q);
        metric.compute(p_p, p_q, p_and)
    }

    /// Similarities of two ad-hoc patterns under all three metrics, in the
    /// order `[M1, M2, M3]`.
    pub fn similarities_of(&self, p: &TreePattern, q: &TreePattern) -> [f64; 3] {
        let [p_p, p_q, p_and] = self.triple_of(p, q);
        [
            ProximityMetric::M1.compute(p_p, p_q, p_and),
            ProximityMetric::M2.compute(p_p, p_q, p_and),
            ProximityMetric::M3.compute(p_p, p_q, p_and),
        ]
    }

    /// `[P(p), P(q), P(p ∧ q)]` of two ad-hoc patterns, all three folded
    /// from their root branches' values.
    fn triple_of(&self, p: &TreePattern, q: &TreePattern) -> [f64; 3] {
        let mut st = self.state_mut();
        let (compiled_p, p) = st.compile(p);
        let (compiled_q, q) = st.compile(q);
        st.evaluate_branches(&self.core.synopsis, &compiled_p, &p);
        st.evaluate_branches(&self.core.synopsis, &compiled_q, &q);
        [st.fold(&p, &[]), st.fold(&q, &[]), st.fold(&p, &q)]
    }

    /// Cache behaviour counters (epoch, hit/miss counts, memo sizes).
    pub fn cache_stats(&self) -> EngineCacheStats {
        let st = self.state_mut();
        EngineCacheStats {
            epoch: st.epoch,
            marginal_hits: st.marginal_hits,
            marginal_misses: st.marginal_misses,
            joint_hits: st.joint_hits,
            joint_misses: st.joint_misses,
            memo_entries: st.branch_values.len(),
            interned_subtrees: st.interner.len(),
        }
    }

    /// Lock the cache state, invalidating it first if the synopsis epoch
    /// has moved since it was built. A poisoned lock (a panicking query on
    /// another thread) is recovered rather than propagated: the state only
    /// ever transitions between consistent snapshots, and a stale epoch tag
    /// is re-checked here anyway.
    fn state_mut(&self) -> MutexGuard<'_, EngineState> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = self.core.synopsis.epoch();
        if st.epoch != epoch {
            st.invalidate(epoch, self.core.patterns.len());
        } else if st.marginals.len() != self.core.patterns.len() {
            st.marginals.resize(self.core.patterns.len(), None);
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_pattern::TreePattern;
    use tps_synopsis::{ingest, Ingest, MatchingSetKind};

    fn docs() -> Vec<XmlTree> {
        [
            "<media><CD><composer><last>Mozart</last></composer><title>Requiem</title></CD></media>",
            "<media><CD><composer><last>Bach</last></composer></CD></media>",
            "<media><book><author><last>Austen</last></author></book></media>",
            "<media><book><author><last>Mozart</last></author></book></media>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect()
    }

    fn pat(s: &str) -> TreePattern {
        TreePattern::parse(s).unwrap()
    }

    fn engine_with(kind: MatchingSetKind) -> SimilarityEngine {
        let mut engine = SimilarityEngine::builder().matching_sets(kind).build();
        engine.ingest(ingest::trees(&docs())).unwrap();
        engine
    }

    #[test]
    fn builder_subsumes_config_and_prepare() {
        let mut engine = SimilarityEngine::builder()
            .matching_sets(MatchingSetKind::hashes(64))
            .metric(ProximityMetric::M2)
            .seed(7)
            .build();
        assert_eq!(engine.default_metric(), ProximityMetric::M2);
        assert_eq!(engine.synopsis().seed(), 7);
        engine.ingest(ingest::trees(&docs())).unwrap();
        let id = engine.register(&pat("//CD"));
        // No prepare() needed before querying.
        assert!((engine.selectivity(id) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn builder_seed_wins_regardless_of_call_order() {
        let a = SimilarityEngine::builder()
            .seed(7)
            .matching_sets(MatchingSetKind::hashes(64))
            .build();
        let b = SimilarityEngine::builder()
            .matching_sets(MatchingSetKind::hashes(64))
            .seed(7)
            .build();
        assert_eq!(a.synopsis().seed(), 7);
        assert_eq!(b.synopsis().seed(), 7);
        // A full config's seed is honoured when no explicit .seed() is set...
        let c = SimilarityEngine::builder()
            .matching_sets(SynopsisConfig::hashes(64).with_seed(9))
            .build();
        assert_eq!(c.synopsis().seed(), 9);
        // ...and overridden when one is.
        let d = SimilarityEngine::builder()
            .seed(7)
            .matching_sets(SynopsisConfig::hashes(64).with_seed(9))
            .build();
        assert_eq!(d.synopsis().seed(), 7);
    }

    #[test]
    fn synopsis_mut_access_invalidates_caches_defensively() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let id = engine.register(&pat("//CD"));
        let before = engine.selectivity(id);
        let epoch_before = engine.synopsis().epoch();
        // Merely taking the mutable reference (even without a structural
        // change the synopsis can observe) must advance the epoch.
        let _ = engine.synopsis_mut();
        assert!(engine.synopsis().epoch() > epoch_before);
        assert_eq!(engine.selectivity(id), before, "value unchanged, rebuilt");
    }

    #[test]
    fn joint_queries_do_not_grow_the_interner() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let ids = engine.register_all(&[pat("//CD"), pat("//composer"), pat("//book")]);
        engine.selectivities(&ids);
        let before = engine.cache_stats().interned_subtrees;
        engine.similarity_matrix(&ids, ProximityMetric::M3);
        assert_eq!(
            engine.cache_stats().interned_subtrees,
            before,
            "joints fold cached branch values and compile nothing"
        );
    }

    #[test]
    fn register_interns_structurally_equal_patterns() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let a = engine.register(&pat("/media[CD][book]"));
        let b = engine.register(&pat("/media[book][CD]"));
        let c = engine.register(&pat("/media[CD][CD][book]"));
        let d = engine.register(&pat("//CD"));
        assert_eq!(a, b, "sibling order must not create a new handle");
        assert_eq!(a, c, "duplicate branches must not create a new handle");
        assert_ne!(a, d);
        assert_eq!(engine.pattern_count(), 2);
    }

    #[test]
    fn analyze_on_register_maps_redundant_patterns_to_their_coverer() {
        let mut engine = SimilarityEngine::builder()
            .matching_sets(MatchingSetKind::hashes(64))
            .analyze_on_register(true)
            .build();
        let general = engine.register(&pat("/a//b"));
        let specific = engine.register(&pat("/a/x/b"));
        let unrelated = engine.register(&pat("/a/c"));
        assert!(engine.analyzes_on_register());
        assert_eq!(engine.covering(general), None);
        assert_eq!(engine.covering(specific), Some(general));
        assert_eq!(engine.covering(unrelated), None);
        assert_eq!(engine.covering_root(specific), general);
        assert_eq!(engine.active_ids(), vec![general, unrelated]);
        assert_eq!(engine.redundant_count(), 1);
        // All three handles stay queryable — redundancy is metadata, not
        // deletion.
        assert_eq!(engine.pattern_count(), 3);
    }

    #[test]
    fn analyze_on_register_demotes_earlier_patterns_covered_by_a_newcomer() {
        let mut engine = SimilarityEngine::builder()
            .matching_sets(MatchingSetKind::hashes(64))
            .analyze_on_register(true)
            .build();
        let narrow_one = engine.register(&pat("/a/x/b"));
        let narrow_two = engine.register(&pat("/a/y/b"));
        let general = engine.register(&pat("/a//b"));
        assert_eq!(engine.covering(narrow_one), Some(general));
        assert_eq!(engine.covering(narrow_two), Some(general));
        assert_eq!(engine.covering(general), None);
        assert_eq!(engine.active_ids(), vec![general]);
        assert_eq!(engine.redundant_count(), 2);
        // Chains resolve transitively even after multiple demotions.
        let root = engine.register(&pat("//b"));
        assert_eq!(engine.covering(general), Some(root));
        assert_eq!(engine.covering_root(narrow_one), root);
        assert_eq!(engine.active_ids(), vec![root]);
    }

    #[test]
    fn redundancy_oracle_extends_the_syntactic_test() {
        use std::sync::Arc;
        // A toy "DTD" oracle that knows /media/CD/x and //x are equivalent.
        let oracle: crate::SharedContainmentOracle = Arc::new(|p, q| {
            let (p, q) = (p.to_string(), q.to_string());
            let pair = |a: &str, b: &str| (p == a && q == b) || (p == b && q == a);
            pair("/media/CD/x", "//x").then_some(true)
        });
        let mut engine = SimilarityEngine::builder()
            .matching_sets(MatchingSetKind::hashes(64))
            .redundancy_oracle(oracle)
            .build();
        let first = engine.register(&pat("/media/CD/x"));
        let second = engine.register(&pat("//x"));
        assert_eq!(engine.covering(second), Some(first));
        assert_eq!(engine.active_ids(), vec![first]);
    }

    #[test]
    fn registration_without_analysis_never_marks_redundancy() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let general = engine.register(&pat("/a//b"));
        let specific = engine.register(&pat("/a/x/b"));
        assert!(!engine.analyzes_on_register());
        assert_eq!(engine.covering(general), None);
        assert_eq!(engine.covering(specific), None);
        assert_eq!(engine.active_ids(), vec![general, specific]);
        assert_eq!(engine.redundant_count(), 0);
    }

    #[test]
    fn selectivities_match_single_calls() {
        let mut engine = engine_with(MatchingSetKind::sets(100));
        let ids = engine.register_all(&[pat("//CD"), pat("//Mozart"), pat("//book/author")]);
        let batch = engine.selectivities(&ids);
        for (&id, &value) in ids.iter().zip(&batch) {
            assert_eq!(engine.selectivity(id), value);
        }
        assert!((batch[0] - 0.5).abs() < 1e-9);
        assert!((batch[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn similarity_matrix_is_bit_identical_to_pairwise_calls() {
        for kind in [
            MatchingSetKind::counters(),
            MatchingSetKind::sets(100),
            MatchingSetKind::hashes(64),
        ] {
            let mut engine = engine_with(kind);
            let ids = engine.register_all(&[
                pat("//CD"),
                pat("//composer"),
                pat("//book"),
                pat("//Mozart"),
                pat("/media/*/title"),
            ]);
            for metric in ProximityMetric::all() {
                let matrix = engine.similarity_matrix(&ids, metric);
                for i in 0..ids.len() {
                    for j in 0..ids.len() {
                        let pairwise = engine.similarity(ids[i], ids[j], metric);
                        assert!(
                            matrix.get(i, j) == pairwise,
                            "({i},{j}) {metric} {kind:?}: {} != {}",
                            matrix.get(i, j),
                            pairwise
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_agrees_with_the_per_call_estimator_path() {
        // The engine's cached evaluation must produce the same numbers as the
        // stand-alone per-call SelectivityEstimator pipeline.
        let mut engine = engine_with(MatchingSetKind::hashes(100));
        let patterns = [pat("//CD"), pat("//composer/last"), pat("//book")];
        let ids = engine.register_all(&patterns);
        let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::hashes(100), &docs());
        synopsis.prepare();
        let est = crate::SelectivityEstimator::new(&synopsis);
        for i in 0..patterns.len() {
            for j in 0..patterns.len() {
                if i == j {
                    continue;
                }
                let p_p = est.selectivity(&patterns[i]);
                let p_q = est.selectivity(&patterns[j]);
                let p_and = est.joint_selectivity(&patterns[i], &patterns[j]);
                let expected = ProximityMetric::M3.compute(p_p, p_q, p_and);
                assert_eq!(matrix.get(i, j), expected, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn epoch_bump_invalidates_cached_selectivities() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let id = engine.register(&pat("//CD"));
        assert!((engine.selectivity(id) - 0.5).abs() < 1e-9);
        let stats = engine.cache_stats();
        assert_eq!(stats.marginal_misses, 1);
        // A second query is a pure cache hit.
        engine.selectivity(id);
        let stats = engine.cache_stats();
        assert_eq!(stats.marginal_hits, 1);
        assert_eq!(stats.marginal_misses, 1);
        // Observing a document bumps the epoch and drops the caches: the
        // value changes and the query is a miss again.
        engine.ingest(ingest::text("<media><CD/></media>")).unwrap();
        assert!((engine.selectivity(id) - 3.0 / 5.0).abs() < 1e-9);
        let stats = engine.cache_stats();
        assert_eq!(stats.marginal_hits, 0, "caches were rebuilt");
        assert_eq!(stats.marginal_misses, 1);
    }

    #[test]
    fn epoch_bump_on_pruning_invalidates_caches() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let id = engine.register(&pat("//composer/last"));
        let before = engine.selectivity(id);
        assert!(before > 0.0);
        let report = engine.prune_to_ratio(0.4, PruneConfig::default());
        assert!(report.final_size <= report.original_size);
        let after = engine.selectivity(id);
        assert!((0.0..=1.0).contains(&after));
        let stats = engine.cache_stats();
        assert_eq!(
            stats.epoch,
            engine.synopsis().epoch(),
            "caches must be tagged with the post-prune epoch"
        );
    }

    #[test]
    fn transient_queries_agree_with_registered_ones() {
        let mut engine = engine_with(MatchingSetKind::sets(100));
        let p = pat("//CD");
        let q = pat("//Mozart");
        let (hp, hq) = (engine.register(&p), engine.register(&q));
        assert_eq!(engine.selectivity_of(&p), engine.selectivity(hp));
        assert_eq!(
            engine.joint_selectivity_of(&p, &q),
            engine.joint_selectivity(hp, hq)
        );
        for metric in ProximityMetric::all() {
            assert_eq!(
                engine.similarity_of(&p, &q, metric),
                engine.similarity(hp, hq, metric)
            );
        }
        let all = engine.similarities_of(&p, &q);
        assert_eq!(all, engine.similarities(hp, hq));
    }

    #[test]
    fn branch_values_are_shared_across_patterns() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let ids = engine.register_all(&[
            pat("//CD/composer/last"),
            pat("//book/author/last"),
            pat(".[//CD/composer/last][//book]"),
        ]);
        engine.selectivities(&ids[..2]);
        let stats = engine.cache_stats();
        assert_eq!(stats.memo_entries, 2, "one value per root branch");
        assert!(stats.interned_subtrees >= 6, "subtrees of both patterns");
        // The third pattern shares its `//CD/composer/last` branch with the
        // first: only `//book` is evaluated.
        engine.selectivity(ids[2]);
        assert_eq!(engine.cache_stats().memo_entries, 3);
        // Joints evaluate nothing: they fold the cached values. The first
        // pattern's branches are a subset of the third's, so their joint is
        // the third's marginal.
        engine.similarity_matrix(&ids, ProximityMetric::M3);
        assert_eq!(engine.cache_stats().memo_entries, 3);
        assert_eq!(
            engine.joint_selectivity(ids[0], ids[2]),
            engine.selectivity(ids[2])
        );
        // The shared //last fragments intern to the same subtree key.
        let before = engine.cache_stats().interned_subtrees;
        let mut engine2 = engine.clone();
        engine2.register(&pat("//last"));
        assert!(engine2.cache_stats().interned_subtrees <= before + 2);
    }

    #[test]
    fn joints_fold_branches_in_the_normalised_conjunctions_order() {
        // Counters' ∩ is an f64 product, which is not associative: with these
        // fractions, (1/5 · 1/5) · 3/5 and (1/5 · 3/5) · 1/5 differ in the
        // last bit. The conjunction's branches are `r(a())`, `r(b())`,
        // `r(c())` in that order; `p`-then-`q` would be a, c, b.
        let docs: Vec<XmlTree> = [
            "<r><a/><b/><c/></r>",
            "<r><c/></r>",
            "<r><c/></r>",
            "<r/>",
            "<r/>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect();
        let synopsis = Synopsis::from_documents(SynopsisConfig::counters(), &docs);
        let reference = crate::SelectivityEstimator::new(&synopsis);
        let (p, q) = (pat(".[r/a][r/c]"), pat("/r/b"));
        let expected = reference.joint_selectivity(&p, &q);
        assert_ne!(expected.to_bits(), (0.2f64 * 0.6 * 0.2).to_bits());
        let mut engine = SimilarityEngine::from_synopsis(synopsis);
        let ids = engine.register_all(&[p.clone(), q.clone()]);
        assert_eq!(engine.joint_selectivity(ids[0], ids[1]), expected);
        assert_eq!(engine.joint_selectivity_of(&q, &p), expected);
    }

    #[test]
    fn branching_descendant_steps_are_never_skipped() {
        // Below `p` no `x` has a `c`, so `x[b][c]` is empty there — but at
        // the level of `b`'s sample, which overflows a capacity of 4. United
        // with the sample of the two `q` documents, that level subsamples
        // the result: skipping the `//` below `p` (the empty value at level
        // 0) would change the estimate.
        for crowd in 5..12 {
            let mut texts = vec!["<r><p><x><b/></x></p></r>"; crowd];
            texts.extend(["<r><q><x><b/><c/></x></q></r>"; 2]);
            let docs: Vec<XmlTree> = texts.iter().map(|s| XmlTree::parse(s).unwrap()).collect();
            let mut synopsis = Synopsis::from_documents(SynopsisConfig::hashes(4), &docs);
            let mut engine = SimilarityEngine::from_synopsis(synopsis.clone());
            synopsis.prepare();
            let p = pat("//x[b][c]");
            let expected = crate::SelectivityEstimator::new(&synopsis).selectivity(&p);
            let id = engine.register(&p);
            assert_eq!(
                engine.selectivity(id),
                expected,
                "{crowd} documents under p"
            );
        }
    }

    #[test]
    fn sim_matrix_accessors() {
        let mut engine = engine_with(MatchingSetKind::sets(100));
        let ids = engine.register_all(&[pat("//CD"), pat("//book")]);
        let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
        assert_eq!(matrix.len(), 2);
        assert!(!matrix.is_empty());
        assert_eq!(matrix.metric(), ProximityMetric::M3);
        assert_eq!(matrix.get(0, 0), 1.0);
        assert_eq!(matrix.row(0).len(), 2);
        assert_eq!(matrix.values().len(), 4);
        let empty = engine.similarity_matrix(&[], ProximityMetric::M1);
        assert!(empty.is_empty());
    }

    #[test]
    fn duplicate_handles_in_a_matrix_slice_are_unit_similar() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let id = engine.register(&pat("//CD"));
        let matrix = engine.similarity_matrix(&[id, id], ProximityMetric::M1);
        assert_eq!(matrix.get(0, 1), 1.0);
        assert_eq!(matrix.get(1, 0), 1.0);
    }

    #[test]
    fn from_synopsis_wraps_an_existing_stream() {
        let synopsis = Synopsis::from_documents(SynopsisConfig::counters(), &docs());
        let mut engine = SimilarityEngine::from_synopsis(synopsis);
        assert_eq!(engine.document_count(), 4);
        let id = engine.register(&pat("/media/CD"));
        assert!((engine.selectivity(id) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn engine_is_send_and_sync() {
        // Static assertion: the whole point of the sharded design. A
        // compile failure here means a non-`Sync` cache leaked back in.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimilarityEngine>();
        assert_send_sync::<SimMatrix>();
        assert_send_sync::<SimilarityEngineBuilder>();
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_sequential() {
        for kind in [
            MatchingSetKind::counters(),
            MatchingSetKind::sets(100),
            MatchingSetKind::hashes(64),
        ] {
            let mut engine = engine_with(kind);
            let ids = engine.register_all(&[
                pat("//CD"),
                pat("//composer"),
                pat("//book"),
                pat("//Mozart"),
                pat("/media/*/title"),
            ]);
            for metric in ProximityMetric::all() {
                let sequential = engine.similarity_matrix(&ids, metric);
                for threads in [1usize, 2, 3, 8] {
                    // A cold clone proves thread-count independence from
                    // scratch; the warm original proves cache reuse agrees.
                    let cold = engine.clone();
                    let par = cold.similarity_matrix_par(&ids, metric, threads);
                    assert_eq!(par, sequential, "{threads} threads, {metric} {kind:?}");
                    let warm = engine.similarity_matrix_par(&ids, metric, threads);
                    assert_eq!(warm, sequential);
                }
            }
        }
    }

    #[test]
    fn parallel_matrix_resolves_conjunctions_of_patterns_with_nested_duplicates() {
        // Regression (benchmark seeds 8211 and 8216): `ops::normalize` was
        // not idempotent, so the branch `e57[e98[e111][e111]][e98/e111]`
        // was registered with two `e98` subtrees while every conjunction
        // involving it normalised down to one — a subtree the parallel
        // matrix had never interned, and a panic. Joints are folds of the
        // registered branches now; such patterns stay covered.
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let ids = engine.register_all(&[
            pat("//e4/e40/e57[e98[e111][e111]][e98/e111]"),
            pat("//CD[title[Requiem][Requiem]][title/Requiem]"),
            pat("//CD"),
            pat("//composer"),
        ]);
        for metric in ProximityMetric::all() {
            // Cloned before anything is cached: every branch value is
            // evaluated by a worker.
            let cold = engine.clone();
            let par = cold.similarity_matrix_par(&ids, metric, 2);
            assert_eq!(par, engine.similarity_matrix(&ids, metric), "{metric}");
        }
    }

    #[test]
    fn parallel_matrix_handles_degenerate_inputs() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let id = engine.register(&pat("//CD"));
        let empty = engine.similarity_matrix_par(&[], ProximityMetric::M3, 4);
        assert!(empty.is_empty());
        let single = engine.similarity_matrix_par(&[id], ProximityMetric::M3, 4);
        assert_eq!(single.len(), 1);
        assert_eq!(single.get(0, 0), 1.0);
        let dup = engine.similarity_matrix_par(&[id, id], ProximityMetric::M1, 4);
        assert_eq!(dup.get(0, 1), 1.0);
        assert_eq!(dup.get(1, 0), 1.0);
    }

    #[test]
    fn parallel_matrix_merges_worker_memos_back() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let ids = engine.register_all(&[pat("//CD"), pat("//composer"), pat("//book")]);
        engine.similarity_matrix_par(&ids, ProximityMetric::M3, 4);
        let after_par = engine.cache_stats();
        assert_eq!(after_par.marginal_misses, 3, "one evaluation per pattern");
        assert_eq!(after_par.joint_misses, 3, "one evaluation per pair");
        assert!(after_par.memo_entries > 0, "worker branch values merged");
        // The sequential matrix over the same handles is now all hits.
        engine.similarity_matrix(&ids, ProximityMetric::M3);
        let after_seq = engine.cache_stats();
        assert_eq!(after_seq.marginal_misses, 3);
        assert_eq!(after_seq.joint_misses, 3);
        assert!(after_seq.marginal_hits >= 6, "marginals served warm");
        assert!(after_seq.joint_hits >= 3, "joints served warm");
    }

    #[test]
    fn parallel_queries_from_many_threads_agree() {
        let mut engine = engine_with(MatchingSetKind::sets(100));
        let ids = engine.register_all(&[pat("//CD"), pat("//composer"), pat("//book")]);
        let expected = engine.similarity_matrix(&ids, ProximityMetric::M3);
        // &engine is shared directly across scoped threads: each thread runs
        // its own batched query against the same caches.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
                    assert_eq!(matrix, expected);
                    let par = engine.similarity_matrix_par(&ids, ProximityMetric::M3, 2);
                    assert_eq!(par, expected);
                });
            }
        });
    }

    #[test]
    fn prepare_is_optional_and_idempotent() {
        let mut engine = engine_with(MatchingSetKind::hashes(64));
        let id = engine.register(&pat("//CD"));
        engine.prepare();
        engine.prepare();
        assert!((engine.selectivity(id) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn similarity_candidates_values_match_the_full_matrix() {
        let mut engine = engine_with(MatchingSetKind::sets(100));
        let ids = engine.register_all(&[
            pat("//CD"),
            pat("//CD/composer"),
            pat("//CD/composer/last"),
            pat("//book"),
            pat("//book/author"),
        ]);
        let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
        let found = engine.similarity_candidates(&ids, 0.0);
        for &(i, j, value) in &found {
            assert!(i < j, "pairs are upper-triangle");
            assert_eq!(value, matrix.get(i, j), "pair ({i},{j})");
        }
        // The ordered output has no duplicate pairs.
        let mut pairs: Vec<(usize, usize)> = found.iter().map(|&(i, j, _)| (i, j)).collect();
        let sorted = pairs.clone();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn similarity_candidates_respect_the_threshold() {
        let mut engine = engine_with(MatchingSetKind::sets(100));
        let ids = engine.register_all(&[pat("//CD"), pat("//CD"), pat("//book")]);
        let found = engine.similarity_candidates(&ids, 0.9);
        // The duplicate //CD handles are structurally identical, hence
        // always candidates, and their similarity is 1.
        assert!(found.iter().any(|&(i, j, s)| (i, j) == (0, 1) && s == 1.0));
        assert!(found.iter().all(|&(_, _, s)| s >= 0.9));
    }

    #[test]
    fn similarity_candidates_symmetrise_asymmetric_metrics() {
        let mut engine = engine_with(MatchingSetKind::sets(100));
        let ids = engine.register_all(&[pat("//CD"), pat("//CD/composer")]);
        // A one-row, many-band configuration makes any shared feature an
        // all-but-certain candidate, so the test is not at the mercy of the
        // default banding's recall on this structurally close pair.
        let lsh = LshConfig {
            bands: 64,
            rows: 1,
            seed: 1,
        };
        let found = engine.similarity_candidates_with(&ids, ProximityMetric::M1, lsh, 0.0);
        let expected = (engine.similarity(ids[0], ids[1], ProximityMetric::M1)
            + engine.similarity(ids[1], ids[0], ProximityMetric::M1))
            / 2.0;
        assert_eq!(found, vec![(0, 1, expected)]);
    }
}
