//! Property-based tests for tree patterns.

use proptest::prelude::*;
use tps_pattern::ops::{conjunction, normalize};
use tps_pattern::{PatternLabel, PatternNodeId, PatternSet, TreePattern};
use tps_xml::XmlTree;

const TAGS: &[&str] = &["a", "b", "c", "d", "e", "f", "g"];

/// A small recursive description of a pattern node used for generation.
#[derive(Debug, Clone)]
enum GenPat {
    Tag(usize, Vec<GenPat>),
    Wildcard(Vec<GenPat>),
    Descendant(Box<GenPat>),
}

fn gen_pat() -> impl Strategy<Value = GenPat> {
    let leaf = prop_oneof![
        (0..TAGS.len()).prop_map(|i| GenPat::Tag(i, vec![])),
        Just(GenPat::Wildcard(vec![])),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            ((0..TAGS.len()), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(i, c)| GenPat::Tag(i, c)),
            prop::collection::vec(inner.clone(), 0..3).prop_map(GenPat::Wildcard),
            inner
                .prop_filter("descendant child must not be descendant", |g| {
                    !matches!(g, GenPat::Descendant(_))
                })
                .prop_map(|g| GenPat::Descendant(Box::new(g))),
        ]
    })
}

fn gen_pattern() -> impl Strategy<Value = TreePattern> {
    prop::collection::vec(gen_pat(), 1..3).prop_map(|children| {
        let mut p = TreePattern::new();
        let root = p.root();
        for c in &children {
            build(&mut p, root, c);
        }
        p
    })
}

fn build(p: &mut TreePattern, parent: tps_pattern::PatternNodeId, node: &GenPat) {
    match node {
        GenPat::Tag(i, children) => {
            let id = p.add_child(parent, PatternLabel::tag(TAGS[*i]));
            for c in children {
                build(p, id, c);
            }
        }
        GenPat::Wildcard(children) => {
            let id = p.add_child(parent, PatternLabel::Wildcard);
            for c in children {
                build(p, id, c);
            }
        }
        GenPat::Descendant(child) => {
            let id = p.add_child(parent, PatternLabel::Descendant);
            build(p, id, child);
        }
    }
}

/// A small random document over the same tag alphabet.
fn gen_doc() -> impl Strategy<Value = XmlTree> {
    #[derive(Debug, Clone)]
    struct GenDoc(usize, Vec<GenDoc>);
    fn gen() -> impl Strategy<Value = GenDoc> {
        let leaf = (0..TAGS.len()).prop_map(|i| GenDoc(i, vec![]));
        leaf.prop_recursive(4, 24, 3, |inner| {
            ((0..TAGS.len()), prop::collection::vec(inner, 0..3)).prop_map(|(i, c)| GenDoc(i, c))
        })
    }
    fn build_doc(t: &mut XmlTree, parent: tps_xml::NodeId, d: &GenDoc) {
        let id = t.add_child(parent, TAGS[d.0]);
        for c in &d.1 {
            build_doc(t, id, c);
        }
    }
    gen().prop_map(|d| {
        let mut t = XmlTree::new(TAGS[d.0]);
        let root = t.root();
        for c in &d.1 {
            build_doc(&mut t, root, c);
        }
        t
    })
}

/// One step of a branch-free pattern: a tag, `*`, or `//` before either.
#[derive(Debug, Clone)]
struct GenStep {
    descendant: bool,
    tag: Option<usize>,
}

/// A branch-free pattern. With `plain`, only tag steps (the fragment a
/// trie alone decides); otherwise `*` and `//` steps too (the fragment
/// that needs the any-label edge and the ε-move with its self-loop).
fn gen_linear(plain: bool) -> impl Strategy<Value = TreePattern> {
    let step = (any::<bool>(), any::<bool>(), 0..TAGS.len()).prop_map(move |(d, w, i)| GenStep {
        descendant: d && !plain,
        tag: (!w || plain).then_some(i),
    });
    prop::collection::vec(step, 1..6).prop_map(|steps| {
        let mut p = TreePattern::new();
        let mut at = p.root();
        for step in steps {
            if step.descendant {
                at = p.add_child(at, PatternLabel::Descendant);
            }
            at = p.add_child(
                at,
                step.tag
                    .map_or(PatternLabel::Wildcard, |i| PatternLabel::tag(TAGS[i])),
            );
        }
        p
    })
}

/// The keys `PatternSet` reports for `patterns` (keyed by position) on `d`,
/// and the keys per-pattern matching selects.
fn set_and_reference(patterns: &[TreePattern], d: &XmlTree) -> (Vec<u64>, Vec<u64>) {
    let mut set = PatternSet::new();
    for (key, p) in patterns.iter().enumerate() {
        set.insert(key as u64, p);
    }
    let reference = (0..patterns.len() as u64)
        .filter(|&key| patterns[key as usize].matches(d))
        .collect();
    let from_tree = set.matches(d).to_vec();
    let from_bytes = set
        .matches_bytes(d.to_xml().as_bytes())
        .map(<[u64]>::to_vec);
    assert_eq!(from_bytes.as_ref(), Ok(&from_tree), "doc={}", d.to_xml());
    (from_tree, reference)
}

/// A set that learnt the paths of `docs` under `before`, then lost the keys
/// of `before` whose `leaving` flag is set and took `arriving` in, reports
/// on every document — from its tree and from its bytes — what a set that
/// only ever held the remaining patterns reports, and what per-pattern
/// matching selects.
fn warm_set_survives_churn(
    before: &[(TreePattern, bool)],
    arriving: &[TreePattern],
    docs: &[XmlTree],
) -> Result<(), TestCaseError> {
    let mut warm = PatternSet::new();
    for (key, (p, _)) in before.iter().enumerate() {
        warm.insert(key as u64, p);
    }
    for (i, d) in docs.iter().enumerate() {
        // Half the documents are learnt from their bytes.
        if i % 2 == 0 {
            warm.matches(d);
        } else {
            prop_assert!(warm.matches_bytes(d.to_xml().as_bytes()).is_ok());
        }
    }
    prop_assert_eq!(warm.check_path_cache(), Ok(()));
    let mut fresh = PatternSet::new();
    let mut live: Vec<(u64, &TreePattern)> = Vec::new();
    for (key, (p, leaving)) in before.iter().enumerate() {
        if *leaving {
            prop_assert!(warm.remove(key as u64, p));
            prop_assert_eq!(warm.check_path_cache(), Ok(()), "removing {}", p);
        } else {
            live.push((key as u64, p));
        }
    }
    for (offset, p) in arriving.iter().enumerate() {
        let key = (before.len() + offset) as u64;
        warm.insert(key, p);
        prop_assert_eq!(warm.check_path_cache(), Ok(()), "inserting {}", p);
        live.push((key, p));
    }
    for &(key, p) in &live {
        fresh.insert(key, p);
    }
    for d in docs {
        let reference: Vec<u64> = live
            .iter()
            .filter(|(_, p)| p.matches(d))
            .map(|&(key, _)| key)
            .collect();
        let text = d.to_xml();
        prop_assert_eq!(warm.matches(d), &reference[..], "doc={}", text);
        prop_assert_eq!(warm.matches_bytes(text.as_bytes()), Ok(&reference[..]));
        prop_assert_eq!(fresh.matches_bytes(text.as_bytes()), Ok(&reference[..]));
        prop_assert_eq!(fresh.matches(d), &reference[..]);
        prop_assert_eq!(warm.check_path_cache(), Ok(()));
    }
    prop_assert_eq!(warm.node_count(), fresh.node_count());
    Ok(())
}

/// One change of the set in a stream of documents.
#[derive(Debug, Clone)]
enum Event {
    /// Match this document from its bytes.
    Match(usize),
    /// Insert this pattern of the pool under a new key.
    Insert(usize),
    /// Remove the live key at this position, modulo their number.
    Remove(usize),
}

/// A set matching a stream of documents while single patterns arrive and
/// leave between them keeps an exact path cache after every event, and
/// reports on every document what per-pattern matching over the live
/// patterns selects.
fn set_matches_through_single_changes(
    pool: &[TreePattern],
    docs: &[XmlTree],
    events: &[Event],
) -> Result<(), TestCaseError> {
    let texts: Vec<String> = docs.iter().map(XmlTree::to_xml).collect();
    let mut set = PatternSet::new();
    let mut live: Vec<(u64, usize)> = Vec::new();
    for (key, event) in events.iter().enumerate() {
        match *event {
            Event::Match(doc) => {
                let doc = doc % docs.len();
                let reference: Vec<u64> = live
                    .iter()
                    .filter(|&&(_, p)| pool[p].matches(&docs[doc]))
                    .map(|&(key, _)| key)
                    .collect();
                let got = set.matches_bytes(texts[doc].as_bytes());
                prop_assert_eq!(got, Ok(&reference[..]), "doc={}", texts[doc]);
            }
            Event::Insert(p) => {
                let p = p % pool.len();
                set.insert(key as u64, &pool[p]);
                live.push((key as u64, p));
            }
            Event::Remove(at) if !live.is_empty() => {
                let (key, p) = live.remove(at % live.len());
                prop_assert!(set.remove(key, &pool[p]));
            }
            Event::Remove(_) => {}
        }
        prop_assert_eq!(set.check_path_cache(), Ok(()), "after {:?}", event);
    }
    Ok(())
}

fn gen_event() -> impl Strategy<Value = Event> {
    // Three matches to two arrivals to one departure.
    (0..6u32, any::<usize>()).prop_map(|(kind, n)| match kind {
        0..=2 => Event::Match(n),
        3 | 4 => Event::Insert(n),
        _ => Event::Remove(n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated patterns satisfy the structural constraints of Section 2.
    #[test]
    fn generated_patterns_validate(p in gen_pattern()) {
        prop_assert!(p.validate().is_ok());
    }

    /// Display followed by parse yields an equivalent pattern.
    #[test]
    fn display_parse_round_trip(p in gen_pattern()) {
        let text = p.to_string();
        let reparsed = TreePattern::parse(&text)
            .unwrap_or_else(|e| panic!("failed to reparse {text:?}: {e}"));
        prop_assert_eq!(p, reparsed);
    }

    /// Normalisation preserves matching semantics.
    #[test]
    fn normalize_preserves_matching(p in gen_pattern(), d in gen_doc()) {
        let n = normalize(&p);
        prop_assert_eq!(p.matches(&d), n.matches(&d));
    }

    /// Normalisation is idempotent — one pass reaches the normal form, also
    /// when a subtree sits next to its own normalised copy — and the normal
    /// form matches what the pattern matches.
    #[test]
    fn normalize_is_idempotent(p in gen_pattern(), d in gen_doc()) {
        let once = normalize(&p);
        prop_assert_eq!(&normalize(&once), &once);
        prop_assert_eq!(&conjunction(&p, &once), &once);
        // `/x[y[B][B]][y[B]]` for the branches `B` of `p`: two siblings that
        // are equal only once the first is normalised.
        let mut q = TreePattern::new();
        let x = q.add_child(q.root(), PatternLabel::tag("x"));
        let twice = q.add_child(x, PatternLabel::tag("y"));
        let single = q.add_child(x, PatternLabel::tag("y"));
        for &branch in p.children(p.root()) {
            q.graft(twice, &p, branch);
            q.graft(twice, &p, branch);
            q.graft(single, &p, branch);
        }
        let n = normalize(&q);
        let x = n.children(n.root())[0];
        prop_assert_eq!(n.children(x).len(), 1, "{} -> {}", q, n);
        prop_assert_eq!(&normalize(&n), &n);
        prop_assert_eq!(n.matches(&d), q.matches(&d));
    }

    /// The conjunction matches a document iff both operands match it.
    #[test]
    fn conjunction_is_logical_and(p in gen_pattern(), q in gen_pattern(), d in gen_doc()) {
        let both = conjunction(&p, &q);
        prop_assert_eq!(both.matches(&d), p.matches(&d) && q.matches(&d));
    }

    /// Homomorphism containment is sound: if `contains(p, q)` then every
    /// document matching `q` matches `p`.
    #[test]
    fn containment_is_sound(p in gen_pattern(), q in gen_pattern(), d in gen_doc()) {
        if tps_pattern::containment::contains(&p, &q) && q.matches(&d) {
            prop_assert!(p.matches(&d), "q={} p={} doc={}", q, p, d.to_xml());
        }
    }

    /// The bare root pattern matches every document.
    #[test]
    fn bare_root_matches_everything(d in gen_doc()) {
        prop_assert!(TreePattern::new().matches(&d));
    }

    /// A pattern derived from a root-to-leaf path of the document always
    /// matches that document.
    #[test]
    fn path_pattern_from_document_matches(d in gen_doc()) {
        let path = d.root_to_leaf_paths().next().expect("at least one path");
        let mut p = TreePattern::new();
        let mut cur = p.root();
        for label in path {
            cur = p.add_child(cur, PatternLabel::tag(label));
        }
        prop_assert!(p.matches(&d));
    }

    /// One walk of the shared step forest, from the tree or from the
    /// bytes, selects exactly the patterns that match on their own —
    /// tag-only paths.
    #[test]
    fn pattern_set_is_exact_on_tag_paths(
        ps in prop::collection::vec(gen_linear(true), 1..10),
        d in gen_doc(),
    ) {
        let (set, reference) = set_and_reference(&ps, &d);
        prop_assert_eq!(set, reference);
    }

    /// … paths with `*` and `//` steps …
    #[test]
    fn pattern_set_is_exact_on_wildcard_and_descendant_paths(
        ps in prop::collection::vec(gen_linear(false), 1..10),
        d in gen_doc(),
    ) {
        let (set, reference) = set_and_reference(&ps, &d);
        prop_assert_eq!(set, reference);
    }

    /// … and branching patterns, whose leaf paths being reached is only a
    /// necessary condition.
    #[test]
    fn pattern_set_is_exact_on_branching_patterns(
        ps in prop::collection::vec(gen_pattern(), 1..10),
        d in gen_doc(),
    ) {
        let (set, reference) = set_and_reference(&ps, &d);
        prop_assert_eq!(set, reference);
    }

    /// Inserting a pattern and removing it again leaves the set as it was:
    /// same size, same forest, same answers.
    #[test]
    fn pattern_set_insert_then_remove_is_identity(
        ps in prop::collection::vec(gen_pattern(), 0..6),
        extra in gen_pattern(),
        d in gen_doc(),
    ) {
        let mut set = PatternSet::new();
        for (key, p) in ps.iter().enumerate() {
            set.insert(key as u64, p);
        }
        let before = (set.len(), set.node_count(), set.matches(&d).to_vec());
        set.insert(u64::MAX, &extra);
        prop_assert_eq!(set.matches(&d).contains(&u64::MAX), extra.matches(&d));
        prop_assert!(set.remove(u64::MAX, &extra));
        let after = (set.len(), set.node_count(), set.matches(&d).to_vec());
        prop_assert_eq!(before, after);
    }

    /// The paths a set has learnt do not outlive the patterns they were
    /// learnt for — tag-only paths …
    #[test]
    fn pattern_set_relearns_after_churn_on_tag_paths(
        before in prop::collection::vec((gen_linear(true), any::<bool>()), 1..8),
        arriving in prop::collection::vec(gen_linear(true), 0..5),
        docs in prop::collection::vec(gen_doc(), 1..5),
    ) {
        warm_set_survives_churn(&before, &arriving, &docs)?;
    }

    /// … paths with `*` and `//` steps …
    #[test]
    fn pattern_set_relearns_after_churn_on_wildcard_and_descendant_paths(
        before in prop::collection::vec((gen_linear(false), any::<bool>()), 1..8),
        arriving in prop::collection::vec(gen_linear(false), 0..5),
        docs in prop::collection::vec(gen_doc(), 1..5),
    ) {
        warm_set_survives_churn(&before, &arriving, &docs)?;
    }

    /// … and branching patterns.
    #[test]
    fn pattern_set_relearns_after_churn_on_branching_patterns(
        before in prop::collection::vec((gen_pattern(), any::<bool>()), 1..8),
        arriving in prop::collection::vec(gen_pattern(), 0..5),
        docs in prop::collection::vec(gen_doc(), 1..5),
    ) {
        warm_set_survives_churn(&before, &arriving, &docs)?;
    }

    /// Single arrivals and departures between documents, over linear paths
    /// with `*` and `//` steps …
    #[test]
    fn pattern_set_repairs_its_cache_between_documents_on_linear_paths(
        pool in prop::collection::vec(gen_linear(false), 1..8),
        docs in prop::collection::vec(gen_doc(), 1..5),
        events in prop::collection::vec(gen_event(), 1..40),
    ) {
        set_matches_through_single_changes(&pool, &docs, &events)?;
    }

    /// … and over branching patterns.
    #[test]
    fn pattern_set_repairs_its_cache_between_documents_on_branching_patterns(
        pool in prop::collection::vec(gen_pattern(), 1..8),
        docs in prop::collection::vec(gen_doc(), 1..5),
        events in prop::collection::vec(gen_event(), 1..40),
    ) {
        set_matches_through_single_changes(&pool, &docs, &events)?;
    }

    /// Canonical keys are stable under re-parsing the display form.
    #[test]
    fn canonical_key_stable_under_round_trip(p in gen_pattern()) {
        let reparsed = TreePattern::parse(&p.to_string()).unwrap();
        prop_assert_eq!(p.canonical_key(), reparsed.canonical_key());
    }
}

/// Tags of the representation model: bare names of one and several bytes,
/// a non-ASCII name, and one that prints quoted.
const MODEL_TAGS: &[&str] = &["a", "bb", "ccc", "é", "x y"];

/// One insertion of the model test: a tag or `*` step under the
/// `parent`-th node that may take children (mod their count), reached
/// through a `//` node when `descendant` is set.
#[derive(Debug, Clone)]
struct Insertion {
    parent: usize,
    descendant: bool,
    tag: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelLabel {
    Root,
    Tag(usize),
    Wildcard,
    Descendant,
}

impl ModelLabel {
    fn text(self) -> String {
        match self {
            ModelLabel::Root => "/.".to_string(),
            ModelLabel::Tag(i) if MODEL_TAGS[i].contains(' ') => format!("\"{}\"", MODEL_TAGS[i]),
            ModelLabel::Tag(i) => MODEL_TAGS[i].to_string(),
            ModelLabel::Wildcard => "*".to_string(),
            ModelLabel::Descendant => "//".to_string(),
        }
    }

    fn of(label: PatternLabel<'_>) -> Self {
        match label {
            PatternLabel::Root => ModelLabel::Root,
            PatternLabel::Tag(t) => {
                ModelLabel::Tag(MODEL_TAGS.iter().position(|&m| m == t).unwrap())
            }
            PatternLabel::Wildcard => ModelLabel::Wildcard,
            PatternLabel::Descendant => ModelLabel::Descendant,
        }
    }
}

/// The plain representation the compact one replaced: a `Vec` of nodes,
/// each with its own `Vec` of children.
#[derive(Debug, Clone, Default)]
struct Model {
    labels: Vec<ModelLabel>,
    parents: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl Model {
    fn add(&mut self, parent: Option<usize>, label: ModelLabel) -> usize {
        let id = self.labels.len();
        self.labels.push(label);
        self.parents.push(parent);
        self.children.push(Vec::new());
        if let Some(parent) = parent {
            self.children[parent].push(id);
        }
        id
    }

    /// Copy the subtree at `node` of `source` under `parent`, in pre-order.
    fn graft(&mut self, parent: usize, source: &Model, node: usize) {
        let copy = self.add(Some(parent), source.labels[node]);
        for &c in &source.children[node] {
            self.graft(copy, source, c);
        }
    }

    fn display(&self) -> String {
        match self.children[0].as_slice() {
            [] => "/.".to_string(),
            [only] => self.step(*only, true),
            many => {
                let steps: String = many
                    .iter()
                    .map(|&c| format!("[{}]", self.step(c, false)))
                    .collect();
                format!("/.{steps}")
            }
        }
    }

    fn step(&self, id: usize, absolute: bool) -> String {
        if self.labels[id] == ModelLabel::Descendant {
            let below = self.children[id][0];
            return format!("//{}{}", self.labels[below].text(), self.below(below));
        }
        let slash = if absolute { "/" } else { "" };
        format!("{slash}{}{}", self.labels[id].text(), self.below(id))
    }

    fn below(&self, id: usize) -> String {
        match self.children[id].as_slice() {
            [] => String::new(),
            [only] if self.labels[*only] == ModelLabel::Descendant => self.step(*only, false),
            [only] => format!("/{}{}", self.labels[*only].text(), self.below(*only)),
            many => many
                .iter()
                .map(|&c| format!("[{}]", self.step(c, false)))
                .collect(),
        }
    }

    fn key(&self, id: usize) -> String {
        let mut keys: Vec<String> = self.children[id].iter().map(|&c| self.key(c)).collect();
        keys.sort();
        format!("{}({})", self.labels[id].text(), keys.join(","))
    }

    fn preorder(&self, id: usize, out: &mut Vec<usize>) {
        out.push(id);
        for &c in &self.children[id] {
            self.preorder(c, out);
        }
    }

    fn height(&self, id: usize) -> usize {
        self.children[id]
            .iter()
            .map(|&c| 1 + self.height(c))
            .max()
            .unwrap_or(0)
    }

    fn count(&self, label: ModelLabel) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }
}

fn gen_insertions() -> impl Strategy<Value = Vec<Insertion>> {
    let insertion =
        (any::<usize>(), 0..4u32, 0..MODEL_TAGS.len() + 1).prop_map(|(parent, d, t)| Insertion {
            parent,
            descendant: d == 0,
            tag: (t < MODEL_TAGS.len()).then_some(t),
        });
    prop::collection::vec(insertion, 0..24)
}

/// Build the pattern and its model by the same insertions. Returns the
/// model indexes of the nodes that may take children too. A `//` node takes
/// its one child at once and no other, so the pattern stays valid; every
/// other node may gain children at any later time.
fn build_with_model(insertions: &[Insertion]) -> (TreePattern, Model, Vec<usize>) {
    let mut pattern = TreePattern::new();
    let mut model = Model::default();
    let mut ids = vec![pattern.root()];
    model.add(None, ModelLabel::Root);
    let mut open = vec![0];
    let mut add = |pattern: &mut TreePattern, parent: usize, label, model_label| {
        let id = pattern.add_child(ids[parent], label);
        let index = model.add(Some(parent), model_label);
        assert_eq!(id.index(), index, "add_child returns the next index");
        ids.push(id);
        index
    };
    for insertion in insertions {
        let mut parent = open[insertion.parent % open.len()];
        if insertion.descendant {
            parent = add(
                &mut pattern,
                parent,
                PatternLabel::Descendant,
                ModelLabel::Descendant,
            );
        }
        let (label, model_label) = match insertion.tag {
            Some(t) => (PatternLabel::tag(MODEL_TAGS[t]), ModelLabel::Tag(t)),
            None => (PatternLabel::Wildcard, ModelLabel::Wildcard),
        };
        open.push(add(&mut pattern, parent, label, model_label));
    }
    (pattern, model, open)
}

/// The node of `pattern` with model index `index`.
fn node_at(pattern: &TreePattern, index: usize) -> PatternNodeId {
    pattern
        .preorder()
        .into_iter()
        .find(|id| id.index() == index)
        .unwrap()
}

/// Every query of `pattern` against `model`, and the `Display` round trip.
fn agrees_with_model(pattern: &TreePattern, model: &Model) -> Result<(), TestCaseError> {
    let mut preorder = Vec::new();
    model.preorder(0, &mut preorder);
    let ids = pattern.preorder();
    let got: Vec<usize> = ids.iter().map(|c| c.index()).collect();
    prop_assert_eq!(got, preorder);
    prop_assert_eq!(pattern.node_count(), model.labels.len());
    for &id in &ids {
        let i = id.index();
        prop_assert_eq!(ModelLabel::of(pattern.label(id)), model.labels[i]);
        prop_assert_eq!(
            pattern.parent(id).map(PatternNodeId::index),
            model.parents[i]
        );
        let children: Vec<usize> = pattern.children(id).iter().map(|c| c.index()).collect();
        prop_assert_eq!(&children, &model.children[i]);
    }
    let text = pattern.to_string();
    prop_assert_eq!(&text, &model.display());
    prop_assert_eq!(pattern.canonical_key(), model.key(0));
    prop_assert_eq!(pattern.height(), model.height(0));
    prop_assert_eq!(pattern.wildcard_count(), model.count(ModelLabel::Wildcard));
    prop_assert_eq!(
        pattern.descendant_count(),
        model.count(ModelLabel::Descendant)
    );
    let branching = model.children.iter().filter(|c| c.len() > 1).count();
    prop_assert_eq!(pattern.branching_count(), branching);
    prop_assert!(pattern.validate().is_ok());

    let reparsed = TreePattern::parse(&text).unwrap();
    prop_assert_eq!(&reparsed, pattern);
    prop_assert_eq!(reparsed.to_string(), text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compact representation answers every query as the plain
    /// `Vec`-of-nodes model does, for children added in any parent order
    /// and for subtrees grafted under nodes that already have children,
    /// and a clone is a value: growing it leaves the original as it was.
    #[test]
    fn representation_agrees_with_the_vec_of_nodes_model(
        insertions in gen_insertions(),
        target in any::<usize>(),
        source in any::<usize>(),
    ) {
        let (pattern, model, open) = build_with_model(&insertions);
        agrees_with_model(&pattern, &model)?;

        let text = pattern.to_string();
        let n = pattern.node_count();
        let mut grown = pattern.clone();
        let at = open[target % open.len()];
        grown.add_child(node_at(&grown, at), PatternLabel::tag("grown"));
        prop_assert_eq!(pattern.to_string(), text.clone());
        prop_assert_eq!(pattern.node_count(), n);
        prop_assert_eq!(grown.node_count(), n + 1);

        if n > 1 {
            // Any subtree but the whole pattern, under any node that may
            // take children: possibly inside the subtree itself.
            let from = 1 + source % (n - 1);
            let mut grafted = pattern.clone();
            let copy = grafted.graft(node_at(&pattern, at), &pattern, node_at(&pattern, from));
            prop_assert_eq!(copy.index(), n);
            let mut grafted_model = model.clone();
            grafted_model.graft(at, &model, from);
            agrees_with_model(&grafted, &grafted_model)?;
            prop_assert_eq!(pattern.to_string(), text);
        }
    }
}
