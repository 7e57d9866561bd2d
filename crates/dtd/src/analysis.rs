//! DTD-aware tree-pattern analysis.
//!
//! The paper's Example 1.1 observes that two patterns with no containment
//! relationship — `pa = /media/CD/*/last/Mozart` and
//! `pd = //composer/last/Mozart` — are nonetheless *equivalent with respect
//! to the document type*: under the media DTD, the `*` in `pa` can only
//! stand for `composer`, and the `//` in `pd` can only stand for the path
//! `media/CD`. Footnote 2 likewise notes that DTD information could be used
//! to enhance the synopsis. This module makes that reasoning executable:
//!
//! * [`PatternAnalyzer::satisfiable`] — can the pattern match *any* document
//!   conforming to the DTD?
//! * [`PatternAnalyzer::expansions`] — the concrete (wildcard- and
//!   descendant-free) patterns a pattern can stand for under the DTD,
//! * [`PatternAnalyzer::dtd_equivalent`] / [`PatternAnalyzer::dtd_refines`] —
//!   equality / inclusion of those expansion sets, the Example 1.1 notion of
//!   equivalence for documents "showing all valid elements",
//! * [`PatternAnalyzer::allowed_paths`] — the label paths a conforming
//!   document can contain (the structural skeleton a DTD-primed synopsis
//!   would start from).
//!
//! Because DTDs can be recursive, descendant expansion is bounded by a
//! configurable depth and the number of produced expansions is capped; the
//! result records whether it was truncated.

use std::collections::BTreeSet;

use tps_pattern::{PatternLabel, PatternNodeId, TreePattern};

use crate::schema::DtdSchema;

/// Configuration for [`PatternAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Maximum number of DTD edges a single `//` node may be expanded into.
    pub max_descendant_depth: usize,
    /// Maximum number of concrete expansions produced for one pattern.
    pub max_expansions: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            max_descendant_depth: 8,
            max_expansions: 4_096,
        }
    }
}

/// Placeholder label used in expansions for a leaf wildcard standing for an
/// arbitrary text value (`*` under a `#PCDATA`-carrying element).
pub const TEXT_PLACEHOLDER: &str = "#PCDATA";

/// A three-valued analysis verdict.
///
/// DTD-aware analysis is bounded: descendant expansion is cut at
/// [`AnalysisConfig::max_descendant_depth`] and the number of expansions at
/// [`AnalysisConfig::max_expansions`]. When a bound fires, the analyzer has
/// seen only a subset of the true expansion set and *negative* conclusions
/// ("unsatisfiable", "not equivalent") would be unsound. The checked entry
/// points ([`PatternAnalyzer::satisfiability`],
/// [`PatternAnalyzer::dtd_equivalence`], [`PatternAnalyzer::dtd_refinement`])
/// therefore degrade to [`Trivalent::Unknown`] instead of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trivalent {
    /// The property definitely holds.
    Yes,
    /// The property definitely does not hold (no bound was hit).
    No,
    /// A configured bound truncated the analysis; no sound answer exists at
    /// this budget.
    Unknown,
}

impl Trivalent {
    /// True only for [`Trivalent::Yes`].
    pub fn is_yes(self) -> bool {
        self == Trivalent::Yes
    }

    /// True only for [`Trivalent::No`].
    pub fn is_no(self) -> bool {
        self == Trivalent::No
    }

    /// Collapse to a bool, treating `Unknown` conservatively as `false`.
    pub fn definitely(self) -> bool {
        self.is_yes()
    }
}

/// The concrete expansions of a pattern under a DTD.
#[derive(Debug, Clone)]
pub struct ExpansionSet {
    /// Concrete patterns (no `*`, no `//`), deduplicated.
    pub patterns: Vec<TreePattern>,
    /// Whether the expansion was cut short by the configured limits; if so,
    /// `patterns` is a subset of the true expansion set.
    pub truncated: bool,
}

impl ExpansionSet {
    /// Whether the pattern has no conforming expansion at all.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Number of expansions found.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// The canonical keys of the expansions, sorted — the comparison basis
    /// for [`PatternAnalyzer::dtd_equivalent`].
    pub fn canonical_keys(&self) -> BTreeSet<String> {
        self.patterns
            .iter()
            .map(TreePattern::canonical_key)
            .collect()
    }
}

/// A local, throw-away tree of concrete labels used while expanding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ConcreteNode {
    label: String,
    children: Vec<ConcreteNode>,
}

impl ConcreteNode {
    fn leaf(label: &str) -> Self {
        Self {
            label: label.to_string(),
            children: Vec::new(),
        }
    }
}

/// DTD-aware analysis of tree patterns against one schema.
#[derive(Debug, Clone)]
pub struct PatternAnalyzer<'a> {
    schema: &'a DtdSchema,
    config: AnalysisConfig,
}

impl<'a> PatternAnalyzer<'a> {
    /// Create an analyzer with the default limits.
    pub fn new(schema: &'a DtdSchema) -> Self {
        Self::with_config(schema, AnalysisConfig::default())
    }

    /// Create an analyzer with explicit limits.
    pub fn with_config(schema: &'a DtdSchema, config: AnalysisConfig) -> Self {
        Self { schema, config }
    }

    /// The schema being analysed against.
    pub fn schema(&self) -> &DtdSchema {
        self.schema
    }

    /// Whether the pattern can match at least one document conforming to the
    /// DTD (within the configured descendant-depth bound).
    ///
    /// This is the sound-for-"yes" boolean view: `true` is always backed by
    /// a concrete expansion, but `false` may be a truncation artefact. Use
    /// [`satisfiability`](Self::satisfiability) when an unsatisfiability
    /// verdict must be trustworthy (lint `E001`).
    pub fn satisfiable(&self, pattern: &TreePattern) -> bool {
        self.satisfiability(pattern).is_yes()
    }

    /// Three-valued satisfiability: [`Trivalent::No`] is only returned when
    /// no expansion bound fired, so it is a proof that the pattern matches
    /// no conforming document (within the analyzer's dialect).
    pub fn satisfiability(&self, pattern: &TreePattern) -> Trivalent {
        let probe = self.expand_bounded(pattern, 1);
        if !probe.patterns.is_empty() {
            Trivalent::Yes
        } else if probe.truncated {
            Trivalent::Unknown
        } else {
            Trivalent::No
        }
    }

    /// All concrete expansions of the pattern under the DTD, up to the
    /// configured limits.
    pub fn expansions(&self, pattern: &TreePattern) -> ExpansionSet {
        self.expand_bounded(pattern, self.config.max_expansions)
    }

    /// Whether `p` and `q` are equivalent with respect to the DTD: they
    /// admit exactly the same concrete expansions (Example 1.1's notion of
    /// equivalence for documents of the given type). Returns `false` when
    /// either expansion set had to be truncated; use
    /// [`dtd_equivalence`](Self::dtd_equivalence) to distinguish a proven
    /// "no" from a truncated analysis.
    pub fn dtd_equivalent(&self, p: &TreePattern, q: &TreePattern) -> bool {
        self.dtd_equivalence(p, q).is_yes()
    }

    /// Three-valued DTD-equivalence. [`Trivalent::Yes`] and
    /// [`Trivalent::No`] are only returned when neither expansion set was
    /// truncated, so both are sound; two unsatisfiable patterns are *not*
    /// reported equivalent (unsatisfiability is its own diagnostic).
    pub fn dtd_equivalence(&self, p: &TreePattern, q: &TreePattern) -> Trivalent {
        let ep = self.expansions(p);
        let eq = self.expansions(q);
        if ep.truncated || eq.truncated {
            return Trivalent::Unknown;
        }
        if !ep.is_empty() && ep.canonical_keys() == eq.canonical_keys() {
            Trivalent::Yes
        } else {
            Trivalent::No
        }
    }

    /// Whether every concrete expansion of `p` is also an expansion of `q`
    /// (so, for documents of this type, matching `p` structurally refines
    /// matching `q`). Returns `false` when either expansion set had to be
    /// truncated; use [`dtd_refinement`](Self::dtd_refinement) to
    /// distinguish a proven "no" from a truncated analysis.
    pub fn dtd_refines(&self, p: &TreePattern, q: &TreePattern) -> bool {
        self.dtd_refinement(p, q).is_yes()
    }

    /// Three-valued DTD-refinement (expansion-set inclusion `p ⊆ q`), with
    /// the same truncation contract as [`dtd_equivalence`](Self::dtd_equivalence).
    pub fn dtd_refinement(&self, p: &TreePattern, q: &TreePattern) -> Trivalent {
        let ep = self.expansions(p);
        let eq = self.expansions(q);
        if ep.truncated || eq.truncated {
            return Trivalent::Unknown;
        }
        if !ep.is_empty() && ep.canonical_keys().is_subset(&eq.canonical_keys()) {
            Trivalent::Yes
        } else {
            Trivalent::No
        }
    }

    /// Label paths (root element first) of length at most `max_depth` that a
    /// conforming document can contain. Recursive DTDs are handled by the
    /// depth bound; the result is sorted and deduplicated.
    pub fn allowed_paths(&self, max_depth: usize) -> Vec<Vec<String>> {
        let mut out = BTreeSet::new();
        let Some(root) = self.schema.root() else {
            return Vec::new();
        };
        let mut stack = vec![root.to_string()];
        self.collect_paths(root, max_depth, &mut stack, &mut out);
        out.into_iter().collect()
    }

    fn collect_paths(
        &self,
        element: &str,
        remaining: usize,
        stack: &mut Vec<String>,
        out: &mut BTreeSet<Vec<String>>,
    ) {
        out.insert(stack.clone());
        if remaining <= 1 {
            return;
        }
        for child in self.schema.allowed_children(element) {
            if !self.schema.has_element(child) {
                continue;
            }
            stack.push(child.to_string());
            self.collect_paths(child, remaining - 1, stack, out);
            stack.pop();
        }
    }

    fn expand_bounded(&self, pattern: &TreePattern, limit: usize) -> ExpansionSet {
        let mut truncated = false;
        let root_children = pattern.children(pattern.root());
        // Each child of the pattern root constrains the same document root;
        // expand each independently and merge the resulting root subtrees.
        let mut per_child: Vec<Vec<ConcreteNode>> = Vec::with_capacity(root_children.len());
        for &child in root_children {
            let options = self.expand_root_child(pattern, child, limit, &mut truncated);
            if options.is_empty() {
                return ExpansionSet {
                    patterns: Vec::new(),
                    truncated,
                };
            }
            per_child.push(options);
        }
        if per_child.is_empty() {
            // The trivial pattern `/.` matches every document; its only
            // expansion is the bare schema root.
            let patterns = match self.schema.root() {
                Some(root) => vec![concrete_to_pattern(&ConcreteNode::leaf(root))],
                None => Vec::new(),
            };
            return ExpansionSet {
                patterns,
                truncated,
            };
        }
        // Cartesian product over the root children, merging same-root trees.
        let mut combos: Vec<ConcreteNode> = per_child[0].clone();
        for options in &per_child[1..] {
            let mut next = Vec::new();
            'outer: for existing in &combos {
                for option in options {
                    if existing.label != option.label {
                        continue;
                    }
                    let mut merged = existing.clone();
                    merged.children.extend(option.children.iter().cloned());
                    next.push(merged);
                    if next.len() >= limit {
                        truncated = true;
                        break 'outer;
                    }
                }
            }
            combos = next;
            if combos.is_empty() {
                return ExpansionSet {
                    patterns: Vec::new(),
                    truncated,
                };
            }
        }
        let mut keys = BTreeSet::new();
        let mut patterns = Vec::new();
        for combo in &combos {
            let concrete = concrete_to_pattern(combo);
            if keys.insert(concrete.canonical_key()) {
                patterns.push(concrete);
            }
            if patterns.len() >= limit {
                truncated = truncated || combos.len() > patterns.len();
                break;
            }
        }
        ExpansionSet {
            patterns,
            truncated,
        }
    }

    /// Expand a child of the pattern root into concrete trees rooted at the
    /// schema root element.
    fn expand_root_child(
        &self,
        pattern: &TreePattern,
        node: PatternNodeId,
        limit: usize,
        truncated: &mut bool,
    ) -> Vec<ConcreteNode> {
        let Some(root) = self.schema.root() else {
            return Vec::new();
        };
        match pattern.label(node) {
            PatternLabel::Root => Vec::new(),
            PatternLabel::Tag(tag) => {
                if tag != root {
                    return Vec::new();
                }
                self.expand_children_under(pattern, node, root, limit, truncated)
                    .into_iter()
                    .map(|children| ConcreteNode {
                        label: root.to_string(),
                        children,
                    })
                    .collect()
            }
            PatternLabel::Wildcard => self
                .expand_children_under(pattern, node, root, limit, truncated)
                .into_iter()
                .map(|children| ConcreteNode {
                    label: root.to_string(),
                    children,
                })
                .collect(),
            PatternLabel::Descendant => {
                // Section 2, root condition (3): the document root has a
                // descendant t' (possibly the root itself) such that the
                // re-rooted sub-pattern matches the subtree at t'. The
                // descendant's single child must therefore label t' itself.
                let children = pattern.children(node);
                if children.len() != 1 {
                    // The pattern grammar guarantees exactly one child under
                    // a descendant node; anything else has no expansion.
                    return Vec::new();
                }
                let step = children[0];
                let mut out = Vec::new();
                for path in self.descendant_paths(root, true, truncated) {
                    let Some(target) = path.last().cloned() else {
                        continue;
                    };
                    for expansion in
                        self.expand_at_target(pattern, step, &path, &target, limit, truncated)
                    {
                        out.push(expansion);
                        if out.len() >= limit {
                            *truncated = true;
                            return out;
                        }
                    }
                }
                out
            }
        }
    }

    /// Expand a pattern node that must match *at* the element reached by
    /// `path` (rather than below it) — the re-rooted case produced by a
    /// descendant node attached to the pattern root.
    fn expand_at_target(
        &self,
        pattern: &TreePattern,
        node: PatternNodeId,
        path: &[String],
        target: &str,
        limit: usize,
        truncated: &mut bool,
    ) -> Vec<ConcreteNode> {
        match pattern.label(node) {
            PatternLabel::Tag(tag) if tag == target => self
                .expand_children_under(pattern, node, target, limit, truncated)
                .into_iter()
                .filter_map(|children| wrap_in_path(path, children))
                .collect(),
            PatternLabel::Tag(tag) => {
                // A tag that is not a declared element can still stand for a
                // text value: the descendant node t' is then a text node
                // under the element at the end of the path.
                if pattern.is_leaf(node)
                    && !self.schema.has_element(tag)
                    && self.element_allows_text(target)
                {
                    wrap_in_path(path, vec![ConcreteNode::leaf(tag)])
                        .into_iter()
                        .collect()
                } else {
                    Vec::new()
                }
            }
            PatternLabel::Wildcard => self
                .expand_children_under(pattern, node, target, limit, truncated)
                .into_iter()
                .filter_map(|children| wrap_in_path(path, children))
                .collect(),
            PatternLabel::Root | PatternLabel::Descendant => Vec::new(),
        }
    }

    /// Expand the children of pattern node `node`, given that `node` has been
    /// mapped to DTD element `element`. Returns the possible concrete child
    /// lists.
    fn expand_children_under(
        &self,
        pattern: &TreePattern,
        node: PatternNodeId,
        element: &str,
        limit: usize,
        truncated: &mut bool,
    ) -> Vec<Vec<ConcreteNode>> {
        let mut lists: Vec<Vec<ConcreteNode>> = vec![Vec::new()];
        for &child in pattern.children(node) {
            let options = self.expand_step(pattern, child, element, limit, truncated);
            if options.is_empty() {
                return Vec::new();
            }
            let mut next = Vec::new();
            for list in &lists {
                for option in &options {
                    let mut extended = list.clone();
                    extended.push(option.clone());
                    next.push(extended);
                    if next.len() >= limit {
                        *truncated = true;
                        break;
                    }
                }
            }
            lists = next;
        }
        lists
    }

    /// Expand one pattern node (`node`, a child of a node mapped to
    /// `element`) into the concrete subtrees it can stand for.
    fn expand_step(
        &self,
        pattern: &TreePattern,
        node: PatternNodeId,
        element: &str,
        limit: usize,
        truncated: &mut bool,
    ) -> Vec<ConcreteNode> {
        match pattern.label(node) {
            PatternLabel::Root => Vec::new(),
            PatternLabel::Tag(tag) => {
                let allowed = self.schema.allowed_children(element);
                if allowed.contains(&tag) && self.schema.has_element(tag) {
                    self.expand_children_under(pattern, node, tag, limit, truncated)
                        .into_iter()
                        .map(|children| ConcreteNode {
                            label: tag.to_string(),
                            children,
                        })
                        .collect()
                } else if pattern.is_leaf(node) && self.element_allows_text(element) {
                    // A leaf tag that is not a declared child can still stand
                    // for a text value under a text-carrying element.
                    vec![ConcreteNode::leaf(tag)]
                } else {
                    Vec::new()
                }
            }
            PatternLabel::Wildcard => {
                let mut out = Vec::new();
                for child in self.schema.allowed_children(element) {
                    if !self.schema.has_element(child) {
                        continue;
                    }
                    for children in
                        self.expand_children_under(pattern, node, child, limit, truncated)
                    {
                        out.push(ConcreteNode {
                            label: child.to_string(),
                            children,
                        });
                        if out.len() >= limit {
                            *truncated = true;
                            return out;
                        }
                    }
                }
                // A leaf wildcard can also stand for a text value under a
                // text-carrying element; `#PCDATA` is the placeholder label
                // for "some text" in expansions.
                if pattern.is_leaf(node) && self.element_allows_text(element) {
                    out.push(ConcreteNode::leaf(TEXT_PLACEHOLDER));
                }
                out
            }
            PatternLabel::Descendant => {
                let mut out = Vec::new();
                for path in self.descendant_paths(element, false, truncated) {
                    let target = match path.last() {
                        Some(last) => last.clone(),
                        None => element.to_string(),
                    };
                    for children in
                        self.expand_children_under(pattern, node, &target, limit, truncated)
                    {
                        if path.is_empty() {
                            // Zero-length descendant: the children attach
                            // directly under `element`, which the caller
                            // represents by splicing them in place of this
                            // node. A concrete pattern cannot express "no
                            // node here", so the expanded children become
                            // siblings under their actual labels.
                            out.extend(children);
                        } else if let Some(wrapped) = wrap_in_path(&path, children) {
                            out.push(wrapped);
                        }
                        if out.len() >= limit {
                            *truncated = true;
                            return out;
                        }
                    }
                }
                out
            }
        }
    }

    fn element_allows_text(&self, element: &str) -> bool {
        self.schema
            .element(element)
            .map(|decl| decl.allows_text())
            .unwrap_or(false)
    }

    /// Downward label paths from `from`.
    ///
    /// For `include_start = true` the paths start *at* `from` (used for the
    /// root `//`, whose target may be the document root itself) and are
    /// returned root-first. Otherwise the paths describe the elements
    /// strictly below `from` (the empty path meaning "match at `from`
    /// itself").
    ///
    /// At most [`AnalysisConfig::max_expansions`] paths are produced: on a
    /// large DTD the paths to the depth bound are far too many to hold, so
    /// the enumeration stops there. When the depth bound prunes a subtree
    /// that still had element children to descend into, or the enumeration
    /// stops, `truncated` is set: paths beyond the bound exist but were not
    /// enumerated, so callers must not treat the result as the complete set.
    fn descendant_paths(
        &self,
        from: &str,
        include_start: bool,
        truncated: &mut bool,
    ) -> Vec<Vec<String>> {
        let limit = self.config.max_expansions;
        let mut out = Vec::new();
        if include_start {
            let mut stack = vec![from.to_string()];
            self.collect_descendant_paths(
                from,
                self.config.max_descendant_depth,
                &mut stack,
                &mut out,
                limit,
                truncated,
            );
        } else {
            out.push(Vec::new());
            let mut stack = Vec::new();
            for child in self.schema.allowed_children(from) {
                if !self.schema.has_element(child) {
                    continue;
                }
                stack.push(child.to_string());
                self.collect_descendant_paths(
                    child,
                    self.config.max_descendant_depth.saturating_sub(1),
                    &mut stack,
                    &mut out,
                    limit,
                    truncated,
                );
                stack.pop();
            }
        }
        out
    }

    fn collect_descendant_paths(
        &self,
        element: &str,
        remaining: usize,
        stack: &mut Vec<String>,
        out: &mut Vec<Vec<String>>,
        limit: usize,
        truncated: &mut bool,
    ) {
        if out.len() >= limit {
            *truncated = true;
            return;
        }
        out.push(stack.clone());
        let children: Vec<&str> = self
            .schema
            .allowed_children(element)
            .into_iter()
            .filter(|child| self.schema.has_element(child))
            .collect();
        if remaining == 0 {
            // The depth bound pruned a live branch: deeper paths exist but
            // were not enumerated. Without this flag a pattern whose only
            // expansions lie beyond the bound would silently read as
            // unsatisfiable.
            if !children.is_empty() {
                *truncated = true;
            }
            return;
        }
        for child in children {
            stack.push(child.to_string());
            self.collect_descendant_paths(child, remaining - 1, stack, out, limit, truncated);
            stack.pop();
        }
    }
}

/// Wrap concrete children under a chain of labels (`path[0]/path[1]/...`),
/// attaching the children below the last label. Returns `None` for an empty
/// path (nothing to wrap under).
fn wrap_in_path(path: &[String], children: Vec<ConcreteNode>) -> Option<ConcreteNode> {
    let (last, prefix) = path.split_last()?;
    let mut node = ConcreteNode {
        label: last.clone(),
        children,
    };
    for label in prefix.iter().rev() {
        node = ConcreteNode {
            label: label.clone(),
            children: vec![node],
        };
    }
    Some(node)
}

/// Convert a concrete tree (rooted at the document root element) into a
/// [`TreePattern`].
fn concrete_to_pattern(root: &ConcreteNode) -> TreePattern {
    fn add(pattern: &mut TreePattern, parent: PatternNodeId, node: &ConcreteNode) {
        let id = pattern.add_child(parent, PatternLabel::tag(&node.label));
        for child in &node.children {
            add(pattern, id, child);
        }
    }
    let mut pattern = TreePattern::new();
    let root_id = pattern.root();
    add(&mut pattern, root_id, root);
    pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    fn analyzer_schema() -> DtdSchema {
        samples::media_schema()
    }

    fn pattern(text: &str) -> TreePattern {
        TreePattern::parse(text).unwrap()
    }

    #[test]
    fn example_1_1_pa_and_pd_are_dtd_equivalent() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        let pa = pattern("/media/CD/*/last/Mozart");
        let pd = pattern("//composer/last/Mozart");
        assert!(analyzer.satisfiable(&pa));
        assert!(analyzer.satisfiable(&pd));
        assert!(analyzer.dtd_equivalent(&pa, &pd));
        let expansions = analyzer.expansions(&pa);
        assert_eq!(expansions.len(), 1);
        assert_eq!(
            expansions.patterns[0],
            pattern("/media/CD/composer/last/Mozart")
        );
    }

    #[test]
    fn example_1_1_pb_is_unsatisfiable_under_the_dtd() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        // `//CD/Mozart` requires a text value (or element) "Mozart" directly
        // under CD, which the media DTD does not allow.
        let pb = pattern("//CD/Mozart");
        assert!(!analyzer.satisfiable(&pb));
        assert!(analyzer.expansions(&pb).is_empty());
    }

    #[test]
    fn example_1_1_pa_refines_pc_but_not_conversely() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        let pa = pattern("/media/CD/*/last/Mozart");
        let pc = pattern(".[//CD][//Mozart]");
        assert!(analyzer.satisfiable(&pc));
        assert!(!analyzer.dtd_equivalent(&pa, &pc));
        // pc admits strictly more expansions (e.g. Mozart as a book author),
        // so pa does not cover it.
        assert!(!analyzer.dtd_refines(&pc, &pa));
    }

    #[test]
    fn wildcards_expand_to_all_allowed_children() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        let expansions = analyzer.expansions(&pattern("/media/*"));
        // media allows book and CD.
        assert_eq!(expansions.len(), 2);
        assert!(!expansions.truncated);
    }

    #[test]
    fn descendant_expansion_materialises_paths() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        let expansions = analyzer.expansions(&pattern("//last"));
        // `last` is reachable under author and composer (Figure 1's
        // interpreter carries only an ensemble).
        assert_eq!(expansions.len(), 2);
        for concrete in &expansions.patterns {
            assert!(concrete.to_string().ends_with("/last"));
            assert_eq!(concrete.descendant_count(), 0);
            assert_eq!(concrete.wildcard_count(), 0);
        }
    }

    #[test]
    fn unsatisfiable_branch_kills_the_whole_pattern() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        let p = pattern("/media[CD][magazine]");
        assert!(!analyzer.satisfiable(&p));
    }

    #[test]
    fn root_tag_must_match_the_schema_root() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        assert!(analyzer.satisfiable(&pattern("/media/CD")));
        assert!(!analyzer.satisfiable(&pattern("/CD")));
        assert!(analyzer.satisfiable(&pattern("//CD")));
    }

    #[test]
    fn trivial_root_pattern_expands_to_the_schema_root() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        let expansions = analyzer.expansions(&TreePattern::new());
        assert_eq!(expansions.len(), 1);
        assert_eq!(expansions.patterns[0], pattern("/media"));
    }

    #[test]
    fn allowed_paths_are_bounded_and_rooted() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::new(&schema);
        let paths = analyzer.allowed_paths(3);
        assert!(paths.contains(&vec!["media".to_string()]));
        assert!(paths.contains(&vec![
            "media".to_string(),
            "CD".to_string(),
            "composer".to_string()
        ]));
        assert!(paths.iter().all(|p| p.len() <= 3));
        assert!(paths.iter().all(|p| p[0] == "media"));
    }

    /// The 569-element xCBL-like DTD has ~44 million label paths to depth 8.
    /// A root `//` holds at most `max_expansions` of them (it once held
    /// them all: 16 GB), reports the cut, and so answers `Unknown`.
    #[test]
    fn root_descendant_on_the_xcbl_dtd_stops_at_the_expansion_cap() {
        let schema = crate::writer::schema_from_workload(&tps_workload::Dtd::xcbl_like());
        let analyzer = PatternAnalyzer::new(&schema);
        let mut truncated = false;
        let paths = analyzer.descendant_paths(schema.root().unwrap(), true, &mut truncated);
        assert_eq!(paths.len(), AnalysisConfig::default().max_expansions);
        assert!(truncated);
        let e188 = pattern("//e188");
        let started = std::time::Instant::now();
        let expansions = analyzer.expansions(&e188);
        assert!(expansions.truncated);
        assert!(expansions.len() <= AnalysisConfig::default().max_expansions);
        assert_eq!(analyzer.satisfiability(&e188), Trivalent::Unknown);
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn expansion_limit_reports_truncation() {
        let schema = analyzer_schema();
        let analyzer = PatternAnalyzer::with_config(
            &schema,
            AnalysisConfig {
                max_descendant_depth: 8,
                max_expansions: 2,
            },
        );
        let expansions = analyzer.expansions(&pattern("//last"));
        assert!(expansions.truncated);
        assert!(expansions.len() <= 2);
    }

    #[test]
    fn depth_bounded_satisfiability_degrades_to_unknown_not_no() {
        // A chain DTD deeper than the descendant bound: `//leaf` is
        // satisfiable, but every expansion lies beyond the bound. The
        // analyzer must answer Unknown — a false `No` here would surface as
        // a bogus E001 "unsatisfiable" lint.
        let schema = crate::parser::parse_named(
            "chain",
            "<!ELEMENT a (b)><!ELEMENT b (c)><!ELEMENT c (d)><!ELEMENT d (e)>\
             <!ELEMENT e (f)><!ELEMENT f (leaf)><!ELEMENT leaf EMPTY>",
        )
        .unwrap();
        let analyzer = PatternAnalyzer::with_config(
            &schema,
            AnalysisConfig {
                max_descendant_depth: 3,
                max_expansions: 1_000,
            },
        );
        let deep = pattern("//leaf");
        assert_eq!(analyzer.satisfiability(&deep), Trivalent::Unknown);
        assert!(!analyzer.satisfiable(&deep));
        let expansions = analyzer.expansions(&deep);
        assert!(expansions.is_empty());
        assert!(expansions.truncated, "depth pruning must not be silent");
        // A target within the bound still gets a definite answer.
        assert_eq!(analyzer.satisfiability(&pattern("//c")), Trivalent::Yes);
        // Even a tag that exists nowhere in the DTD stays Unknown under a
        // pruned walk: the unexplored region could have allowed it.
        assert_eq!(
            analyzer.satisfiability(&pattern("//ghost")),
            Trivalent::Unknown
        );
        // With the bound lifted the same pattern is a definite No.
        let full = PatternAnalyzer::new(&schema);
        assert_eq!(full.satisfiability(&pattern("//ghost")), Trivalent::No);
        assert_eq!(full.satisfiability(&deep), Trivalent::Yes);
    }

    #[test]
    fn recursive_dtd_equivalence_degrades_to_unknown() {
        let schema = crate::parser::parse_named(
            "recursive",
            "<!ELEMENT part (part*, name?)><!ELEMENT name (#PCDATA)>",
        )
        .unwrap();
        let analyzer = PatternAnalyzer::with_config(
            &schema,
            AnalysisConfig {
                max_descendant_depth: 3,
                max_expansions: 4,
            },
        );
        let p = pattern("//name");
        let q = pattern("/part/name");
        // `//name` truncates under the recursive DTD, so neither
        // equivalence nor refinement may claim a definite answer.
        assert!(analyzer.expansions(&p).truncated);
        assert_eq!(analyzer.dtd_equivalence(&p, &q), Trivalent::Unknown);
        assert_eq!(analyzer.dtd_refinement(&q, &p), Trivalent::Unknown);
        // The boolean views stay conservative (never a false "yes").
        assert!(!analyzer.dtd_equivalent(&p, &q));
        assert!(!analyzer.dtd_refines(&q, &p));
        // Two untruncated patterns keep their definite verdicts.
        assert_eq!(
            analyzer.dtd_equivalence(&q, &pattern("/part/name")),
            Trivalent::Yes
        );
    }

    #[test]
    fn recursive_dtds_are_bounded_by_depth() {
        let schema = crate::parser::parse_named(
            "recursive",
            "<!ELEMENT part (part*, name?)><!ELEMENT name (#PCDATA)>",
        )
        .unwrap();
        let analyzer = PatternAnalyzer::with_config(
            &schema,
            AnalysisConfig {
                max_descendant_depth: 3,
                max_expansions: 1_000,
            },
        );
        let expansions = analyzer.expansions(&pattern("//name"));
        assert!(!expansions.is_empty());
        assert!(expansions.len() <= 4);
        let paths = analyzer.allowed_paths(4);
        assert!(paths.iter().all(|p| p.len() <= 4));
    }
}
