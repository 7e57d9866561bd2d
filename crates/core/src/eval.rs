//! The shared `SEL` recursion used by both [`crate::SelectivityEstimator`]
//! and [`crate::SimilarityEngine`].
//!
//! The recursion follows Algorithms 1 and 2 of the paper (see
//! [`crate::selectivity`] for the pseudo-code and the folded-label
//! extension). A pattern's value is the intersection, over its root
//! branches `u`, of `sat(u) = ⋃_{v ∈ children(root)} SEL(v, u)` (plus the
//! folded labels below the synopsis root). [`SelEvaluator::branch`]
//! computes one `sat(u)`; it depends only on the canonical subtree below
//! `u`, which is what lets the engine cache it per [`SubtreeKeyId`] and
//! fold marginals and joints alike from those cached values
//! ([`conjunction_units`]).
//!
//! Within one branch evaluation, `SEL(v, u)` is memoised by `(synopsis
//! node, canonical pattern subtree)`, two dense ids ([`IdHasher`]); a step
//! whose label `v` does not satisfy is empty before the memo is probed.
//! Full matching-set values come from a [`ValueSource`]: recomputed from
//! the synopsis (the estimator), or the engine's [`Materialised`] values,
//! which also carry per-node label signatures that let a step skip a
//! synopsis subtree its label chain cannot match. Unions go through
//! [`SummaryValue::unite`], so uniting with the level-0 empty value, the
//! one neutral empty value, builds nothing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tps_pattern::{CompiledPattern, PatternLabel, PatternNodeId, SubtreeKeyId, TreePattern};
use tps_synopsis::{FoldedSubtree, MatchingSetKind, SummaryValue, Synopsis, SynopsisNodeId};

/// A map keyed by program-assigned dense ids, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Memoisation table for `SEL(v, u)` values.
pub(crate) type SelMemo = IdMap<(SynopsisNodeId, SubtreeKeyId), SummaryValue>;

/// A multiply-rotate fold of the `u32` ids a key is made of.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(u32::from(b)));
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = self.0.rotate_left(29);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The engine's materialisation of a synopsis for one epoch: the full
/// matching-set value of every node ([`Synopsis::full_values`]) and a
/// 128-bit Bloom signature of every label at or below it (its own, its
/// folded labels', its descendants'), both indexed by
/// [`SynopsisNodeId::index`].
#[derive(Debug, Clone)]
pub(crate) struct Materialised {
    full: Vec<SummaryValue>,
    below: Vec<u128>,
    /// `count_units` of the whole observed document set `S(rs)`.
    pub(crate) universe: f64,
}

impl Materialised {
    pub(crate) fn of(synopsis: &Synopsis) -> Self {
        let full = synopsis.full_values();
        let mut below = vec![None; full.len()];
        signature(synopsis, synopsis.root(), &mut below);
        let universe = match synopsis.kind() {
            MatchingSetKind::Counters => 1.0,
            _ => full[synopsis.root().index()].count_units(),
        };
        Self {
            full,
            // A node the root does not reach is never visited; all ones
            // would never skip it anyway.
            below: below.into_iter().map(|b| b.unwrap_or(u128::MAX)).collect(),
            universe,
        }
    }
}

/// The Bloom bit of a label (FNV-1a of its bytes, modulo 128).
fn label_bit(label: &str) -> u128 {
    let hash = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    1 << (hash % 128)
}

fn folded_bits(folded: &[FoldedSubtree]) -> u128 {
    folded.iter().fold(0, |bits, f| {
        bits | label_bit(&f.label) | folded_bits(&f.children)
    })
}

/// The signature of `v`, memoised: the synopsis is a DAG after merges.
fn signature(synopsis: &Synopsis, v: SynopsisNodeId, below: &mut [Option<u128>]) -> u128 {
    if let Some(bits) = below[v.index()] {
        return bits;
    }
    let mut bits = label_bit(synopsis.label(v)) | folded_bits(synopsis.folded(v));
    for &child in synopsis.children(v) {
        bits |= signature(synopsis, child, below);
    }
    below[v.index()] = Some(bits);
    bits
}

/// Where the evaluator reads full matching-set values from.
pub(crate) enum ValueSource<'a> {
    /// Ask the synopsis each time ([`Synopsis::matching_value`]); fast when
    /// the synopsis is [`Synopsis::prepare`]d, correct (but slow for the
    /// Hashes representation) otherwise. No step skips a subtree.
    Direct,
    /// The engine's materialisation of the current epoch.
    Cached(&'a Materialised),
}

impl ValueSource<'_> {
    fn value(&self, synopsis: &Synopsis, v: SynopsisNodeId) -> SummaryValue {
        match self {
            ValueSource::Direct => synopsis.matching_value(v),
            ValueSource::Cached(m) => m.full[v.index()].clone(),
        }
    }
}

/// `count_units` of the conjunction of root branches with values
/// `branches`, intersected in the order given (the order of the normalised
/// conjunction's root children: Counters' `∩` is an `f64` product, which is
/// not associative). Two branches are counted by a merge, without building
/// their intersection. No branch at all is the bare `/.` pattern, which
/// matches every document: `universe`.
pub(crate) fn conjunction_units<'v>(
    universe: f64,
    mut branches: impl Iterator<Item = &'v SummaryValue>,
) -> f64 {
    let Some(first) = branches.next() else {
        return universe;
    };
    let Some(second) = branches.next() else {
        return first.count_units();
    };
    match branches.next() {
        None => first.intersect_units(second),
        Some(third) => branches
            .fold(first.intersect(second).intersect(third), |acc, value| {
                acc.intersect(value)
            })
            .count_units(),
    }
}

/// Algorithm 2: a value's share of the universe, clamped to `[0, 1]`.
pub(crate) fn selectivity(units: f64, universe: f64) -> f64 {
    if universe <= 0.0 {
        return 0.0;
    }
    (units / universe).clamp(0.0, 1.0)
}

/// One `SEL` evaluation over a compiled pattern, memoised in `memo`.
pub(crate) struct SelEvaluator<'a> {
    synopsis: &'a Synopsis,
    source: ValueSource<'a>,
    memo: &'a mut SelMemo,
    /// Per pattern node: the Bloom bits of the tags on its prefix
    /// ([`prefix_tags`]). Filled for [`ValueSource::Cached`] only.
    prefixes: Vec<u128>,
}

impl<'a> SelEvaluator<'a> {
    pub(crate) fn new(
        synopsis: &'a Synopsis,
        source: ValueSource<'a>,
        memo: &'a mut SelMemo,
    ) -> Self {
        Self {
            synopsis,
            source,
            memo,
            prefixes: Vec::new(),
        }
    }

    /// Run `SEL` on the root nodes and return the raw document-set value:
    /// the root branches' values intersected in the normalised pattern's
    /// order, or the universe for the bare `/.` pattern.
    pub(crate) fn evaluate(&mut self, compiled: &CompiledPattern) -> SummaryValue {
        let pattern = compiled.pattern();
        let branches = pattern.children(pattern.root()).iter();
        let values = branches.map(|&u| self.branch(compiled, u));
        values
            .reduce(|acc, sat| acc.intersect(&sat))
            .unwrap_or_else(|| self.synopsis.universe_value())
    }

    /// `sat(u)` of a root branch `u`: the union of `SEL(v, u)` over the
    /// synopsis root's children, plus `S(root)` when folded labels directly
    /// below the root (possible after aggressive pruning) satisfy `u`.
    pub(crate) fn branch(&mut self, compiled: &CompiledPattern, u: PatternNodeId) -> SummaryValue {
        let synopsis = self.synopsis;
        let pattern = compiled.pattern();
        if let ValueSource::Cached(_) = self.source {
            self.prefixes = prefix_tags(pattern);
        }
        let syn_root = synopsis.root();
        let mut sat = synopsis.empty_value();
        for &v in synopsis.children(syn_root) {
            sat = sat.unite(self.sel(v, u, compiled));
        }
        if folded_satisfies(synopsis.folded(syn_root), pattern, u) {
            sat = sat.unite(self.source.value(synopsis, syn_root));
        }
        sat
    }

    /// `SEL(v, u)` with memoisation keyed by `(v, canonical subtree of u)`.
    ///
    /// A label `v` does not satisfy (Line 1) is the empty value before the
    /// memo is probed. So is a sub-pattern with a prefix tag that occurs
    /// nowhere at or below `v`, without recursing. That is exact, not an
    /// estimate: a prefix holds no `∩` with two operands, so the skipped
    /// recursion could only have united level-0 empty values. (Tags below
    /// the first branching node could not be used: intersecting an empty
    /// value with a sample keeps the sample's level, and a later union
    /// subsamples to it.)
    fn sel(
        &mut self,
        v: SynopsisNodeId,
        u: PatternNodeId,
        compiled: &CompiledPattern,
    ) -> SummaryValue {
        if let ValueSource::Cached(m) = self.source {
            if self.prefixes[u.index()] & !m.below[v.index()] != 0 {
                return self.synopsis.empty_value();
            }
        }
        let pattern = compiled.pattern();
        // Line 1: label compatibility (the partial order `a ⪯ * ⪯ //`).
        if !pattern.label(u).subsumes(self.synopsis.label(v)) {
            return self.synopsis.empty_value();
        }
        // Line 3-4: u is a leaf → S(v), a copy no memo entry would save.
        if pattern.is_leaf(u) {
            return self.source.value(self.synopsis, v);
        }
        let key = (v, compiled.node_key(u));
        if let Some(cached) = self.memo.get(&key) {
            return cached.clone();
        }
        let value = self.sel_uncached(v, u, compiled);
        self.memo.insert(key, value.clone());
        value
    }

    fn sel_uncached(
        &mut self,
        v: SynopsisNodeId,
        u: PatternNodeId,
        compiled: &CompiledPattern,
    ) -> SummaryValue {
        let synopsis = self.synopsis;
        let pattern = compiled.pattern();
        match pattern.label(u) {
            PatternLabel::Descendant => {
                // Lines 11-14: the descendant maps to a path of length 0 or
                // recurses into the children of v.
                let mut s0: Option<SummaryValue> = None;
                for &u_child in pattern.children(u) {
                    let val = self.sel(v, u_child, compiled);
                    s0 = Some(match s0 {
                        None => val,
                        Some(acc) => acc.intersect(&val),
                    });
                }
                let mut result = s0.unwrap_or_else(|| synopsis.empty_value());
                for &v_child in synopsis.children(v) {
                    result = result.unite(self.sel(v_child, u, compiled));
                }
                // Folded labels: the descendant's target may have been folded
                // into v (or deeper); all of S(v) is then assumed to satisfy
                // it.
                if pattern.children(u).iter().all(|&u_child| {
                    folded_satisfies_descendant(synopsis.folded(v), pattern, u_child)
                }) && !pattern.children(u).is_empty()
                {
                    result = result.unite(self.source.value(synopsis, v));
                }
                result
            }
            _ => {
                // Lines 5-10: tag or wildcard with children — branch on the
                // pattern children, union over the synopsis children.
                let mut result: Option<SummaryValue> = None;
                for &u_child in pattern.children(u) {
                    let mut sat = synopsis.empty_value();
                    for &v_child in synopsis.children(v) {
                        sat = sat.unite(self.sel(v_child, u_child, compiled));
                    }
                    if folded_satisfies(synopsis.folded(v), pattern, u_child) {
                        sat = sat.unite(self.source.value(synopsis, v));
                    }
                    result = Some(match result {
                        None => sat,
                        Some(acc) => acc.intersect(&sat),
                    });
                }
                result.unwrap_or_else(|| synopsis.empty_value())
            }
        }
    }
}

/// The Bloom bits of every node's prefix: its tag and, while a node has one
/// child, its child's, down to the first node with two or more children
/// (whose own tag is included) or a leaf. A child follows its parent in
/// preorder, so the reversed preorder meets every child first.
fn prefix_tags(pattern: &TreePattern) -> Vec<u128> {
    let mut prefixes = vec![0; pattern.node_count()];
    for u in pattern.preorder().into_iter().rev() {
        let own = match pattern.label(u) {
            PatternLabel::Tag(tag) => label_bit(tag),
            _ => 0,
        };
        prefixes[u.index()] = match pattern.children(u) {
            [child] => own | prefixes[child.index()],
            _ => own,
        };
    }
    prefixes
}

/// Can the pattern subtree rooted at `u` be satisfied purely within the
/// folded (nested) labels `folded` of a synopsis node?
pub(crate) fn folded_satisfies(
    folded: &[FoldedSubtree],
    pattern: &TreePattern,
    u: PatternNodeId,
) -> bool {
    match pattern.label(u) {
        PatternLabel::Tag(tag) => folded.iter().any(|f| {
            &*f.label == tag
                && pattern
                    .children(u)
                    .iter()
                    .all(|&uc| folded_satisfies(&f.children, pattern, uc))
        }),
        PatternLabel::Wildcard => folded.iter().any(|f| {
            pattern
                .children(u)
                .iter()
                .all(|&uc| folded_satisfies(&f.children, pattern, uc))
        }),
        PatternLabel::Descendant => pattern
            .children(u)
            .iter()
            .all(|&uc| folded_satisfies_descendant(folded, pattern, uc)),
        PatternLabel::Root => false,
    }
}

/// Can `u` be satisfied at any depth within the folded label forest?
pub(crate) fn folded_satisfies_descendant(
    folded: &[FoldedSubtree],
    pattern: &TreePattern,
    u: PatternNodeId,
) -> bool {
    if folded_satisfies(folded, pattern, u) {
        return true;
    }
    folded
        .iter()
        .any(|f| folded_satisfies_descendant(&f.children, pattern, u))
}
