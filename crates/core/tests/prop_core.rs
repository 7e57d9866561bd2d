//! Property-based tests for selectivity and similarity estimation.

use proptest::prelude::*;
use tps_core::{ExactEvaluator, ProximityMetric, SelectivityEstimator, SimilarityEngine};
use tps_pattern::{PatternLabel, TreePattern};
use tps_synopsis::{ingest, Ingest, PruneConfig, Synopsis, SynopsisConfig};
use tps_xml::XmlTree;

const TAGS: &[&str] = &["a", "b", "c", "d"];

fn gen_doc() -> impl Strategy<Value = XmlTree> {
    #[derive(Debug, Clone)]
    struct Node(usize, Vec<Node>);
    fn node() -> impl Strategy<Value = Node> {
        let leaf = (0..TAGS.len()).prop_map(|i| Node(i, vec![]));
        leaf.prop_recursive(3, 12, 3, |inner| {
            ((0..TAGS.len()), prop::collection::vec(inner, 0..3)).prop_map(|(i, c)| Node(i, c))
        })
    }
    fn build(tree: &mut XmlTree, parent: tps_xml::NodeId, n: &Node) {
        let id = tree.add_child(parent, TAGS[n.0]);
        for c in &n.1 {
            build(tree, id, c);
        }
    }
    node().prop_map(|n| {
        let mut tree = XmlTree::new(TAGS[n.0]);
        let root = tree.root();
        for c in &n.1 {
            build(&mut tree, root, c);
        }
        tree
    })
}

fn gen_docs() -> impl Strategy<Value = Vec<XmlTree>> {
    prop::collection::vec(gen_doc(), 2..10)
}

#[derive(Debug, Clone)]
enum GenPat {
    Tag(usize, Vec<GenPat>),
    Wildcard(Vec<GenPat>),
    Descendant(Box<GenPat>),
}

/// A pattern node with at most `width - 1` children below the root.
fn gen_pat_node(width: usize) -> impl Strategy<Value = GenPat> {
    let leaf = prop_oneof![
        (0..TAGS.len()).prop_map(|i| GenPat::Tag(i, vec![])),
        Just(GenPat::Wildcard(vec![])),
    ];
    leaf.prop_recursive(3, 12, 2, move |inner| {
        prop_oneof![
            (
                (0..TAGS.len()),
                prop::collection::vec(inner.clone(), 0..width)
            )
                .prop_map(|(i, c)| GenPat::Tag(i, c)),
            prop::collection::vec(inner.clone(), 0..width).prop_map(GenPat::Wildcard),
            inner
                .prop_filter("no nested descendants", |g| !matches!(
                    g,
                    GenPat::Descendant(_)
                ))
                .prop_map(|g| GenPat::Descendant(Box::new(g))),
        ]
    })
}

fn gen_pattern() -> impl Strategy<Value = TreePattern> {
    gen_pattern_of(2)
}

fn gen_pattern_of(width: usize) -> impl Strategy<Value = TreePattern> {
    prop::collection::vec(gen_pat_node(width), 1..3).prop_map(|children| {
        let mut p = TreePattern::new();
        let root = p.root();
        fn build(p: &mut TreePattern, parent: tps_pattern::PatternNodeId, g: &GenPat) {
            match g {
                GenPat::Tag(i, c) => {
                    let id = p.add_child(parent, PatternLabel::tag(TAGS[*i]));
                    c.iter().for_each(|g| build(p, id, g));
                }
                GenPat::Wildcard(c) => {
                    let id = p.add_child(parent, PatternLabel::Wildcard);
                    c.iter().for_each(|g| build(p, id, g));
                }
                GenPat::Descendant(c) => {
                    let id = p.add_child(parent, PatternLabel::Descendant);
                    build(p, id, c);
                }
            }
        }
        for g in &children {
            build(&mut p, root, g);
        }
        p
    })
}

/// Workloads for the bit-identity check: generated patterns whose `//`
/// steps may branch, plus the shapes the engine treats specially — the bare
/// `/.`, patterns sharing root branches, and `//` chains over `z`, a tag no
/// document has.
fn gen_workload() -> impl Strategy<Value = Vec<TreePattern>> {
    (
        prop::collection::vec(gen_pattern_of(3), 2..5),
        gen_pattern_of(3),
    )
        .prop_map(|(mut patterns, extra)| {
            let shared = [
                tps_pattern::ops::conjunction(&patterns[0], &extra),
                tps_pattern::ops::conjunction(&patterns[1], &extra),
            ];
            patterns.extend(shared);
            for text in [
                "/.",
                "//z",
                "/a//b/z",
                ".[//z/a][//a]",
                "//a[b][z]",
                "//a[b][c]",
                "//*[b][d]",
            ] {
                patterns.push(TreePattern::parse(text).unwrap());
            }
            patterns
        })
}

/// A synopsis of `docs` as built, after folding identical leaves, or
/// pruned to half its size (folded labels and merged nodes).
fn shaped_synopsis(config: SynopsisConfig, docs: &[XmlTree], shape: usize) -> Synopsis {
    let mut synopsis = Synopsis::from_documents(config, docs);
    match shape {
        0 => {}
        1 => {
            synopsis.fold_identical_leaves(0.999);
        }
        _ => {
            synopsis.prune_to_ratio(0.5, PruneConfig::default());
        }
    }
    synopsis
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's shortcuts — joints folded from cached root-branch
    /// values, steps that skip synopsis subtrees lacking a prefix tag —
    /// change no bit:
    /// its selectivities, joints and matrix entries equal the unpruned
    /// reference estimator's (and `metric.compute` over them), compared by
    /// `to_bits`, for every representation and synopsis shape. Hash samples
    /// of capacity 2 reach levels above 0, where an empty value's level
    /// matters.
    #[test]
    fn engine_is_bit_identical_to_the_reference_estimator(
        docs in prop::collection::vec(gen_doc(), 2..14),
        patterns in gen_workload(),
    ) {
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(4),
            SynopsisConfig::hashes(2),
        ] {
            for shape in 0..3 {
                let mut synopsis = shaped_synopsis(config, &docs, shape);
                let mut engine = SimilarityEngine::from_synopsis(synopsis.clone());
                // A second engine folds each joint first with the operands
                // the other way round, and with no marginal cached.
                let mut pairwise = SimilarityEngine::from_synopsis(synopsis.clone());
                pairwise.register_all(&patterns);
                synopsis.prepare();
                let reference = SelectivityEstimator::new(&synopsis);
                let ids = engine.register_all(&patterns);
                let marginals: Vec<f64> =
                    patterns.iter().map(|p| reference.selectivity(p)).collect();
                let engine_marginals = engine.selectivities(&ids);
                for (i, (got, want)) in engine_marginals.iter().zip(&marginals).enumerate() {
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "{:?} shape {}: P({}) = {} != {}", config.kind, shape, patterns[i], got, want
                    );
                }
                let metric = ProximityMetric::all()[shape];
                let matrix = engine.similarity_matrix(&ids, metric);
                for i in (0..ids.len()).rev() {
                    for j in (0..ids.len()).rev() {
                        if ids[i] == ids[j] {
                            continue;
                        }
                        let joint = reference.joint_selectivity(&patterns[i], &patterns[j]);
                        let got = pairwise.joint_selectivity(ids[i], ids[j]);
                        prop_assert!(
                            got.to_bits() == joint.to_bits(),
                            "{:?} shape {}: P({} ∧ {}) = {} != {}",
                            config.kind, shape, patterns[i], patterns[j], got, joint
                        );
                        let want = metric.compute(marginals[i], marginals[j], joint);
                        prop_assert!(
                            matrix.get(i, j).to_bits() == want.to_bits(),
                            "{:?} shape {}: {} ({}, {}) = {} != {}",
                            config.kind, shape, metric, i, j, matrix.get(i, j), want
                        );
                    }
                }
            }
        }
    }

    /// Estimates are always valid probabilities, for every representation.
    #[test]
    fn selectivity_is_a_probability(docs in gen_docs(), p in gen_pattern()) {
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(8),
            SynopsisConfig::hashes(8),
        ] {
            let synopsis = Synopsis::from_documents(config, &docs);
            let estimator = SelectivityEstimator::new(&synopsis);
            let s = estimator.selectivity(&p);
            prop_assert!((0.0..=1.0).contains(&s), "{:?} -> {s}", config.kind);
        }
    }

    /// With lossless summaries (capacity larger than the stream), linear
    /// patterns — and any pattern whose branches only occur at the document
    /// root — are estimated exactly; in general the estimate never
    /// *underestimates* the exact selectivity on exact set summaries
    /// (skeleton coalescing can only merge sibling contexts, which adds
    /// documents to path intersections).
    #[test]
    fn exact_sets_never_underestimate(docs in gen_docs(), p in gen_pattern()) {
        let exact = ExactEvaluator::new(docs.clone());
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::sets(100_000), &docs);
        synopsis.prepare();
        let estimator = SelectivityEstimator::new(&synopsis);
        let estimated = estimator.selectivity(&p);
        let truth = exact.selectivity(&p);
        prop_assert!(
            estimated >= truth - 1e-9,
            "estimate {estimated} under-estimates exact {truth} for {p}"
        );
    }

    /// The estimated selectivity of the conjunction never exceeds either
    /// marginal (on exact set summaries).
    #[test]
    fn joint_selectivity_is_bounded_by_marginals(docs in gen_docs(), p in gen_pattern(), q in gen_pattern()) {
        let mut synopsis = Synopsis::from_documents(SynopsisConfig::sets(100_000), &docs);
        synopsis.prepare();
        let estimator = SelectivityEstimator::new(&synopsis);
        let joint = estimator.joint_selectivity(&p, &q);
        let sp = estimator.selectivity(&p);
        let sq = estimator.selectivity(&q);
        prop_assert!(joint <= sp + 1e-9);
        prop_assert!(joint <= sq + 1e-9);
    }

    /// Similarity scores are within [0, 1]; symmetric metrics are symmetric;
    /// self-similarity is 1 for patterns that match at least one document.
    #[test]
    fn similarity_properties(docs in gen_docs(), p in gen_pattern(), q in gen_pattern()) {
        let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100_000));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let (hp, hq) = (engine.register(&p), engine.register(&q));
        for metric in ProximityMetric::all() {
            let spq = engine.similarity(hp, hq, metric);
            prop_assert!((0.0..=1.0).contains(&spq), "{metric} -> {spq}");
            if metric.is_symmetric() {
                let sqp = engine.similarity(hq, hp, metric);
                prop_assert!((spq - sqp).abs() < 1e-9, "{metric} not symmetric");
            }
        }
        let self_sim = engine.similarity(hp, hp, ProximityMetric::M3);
        prop_assert!((self_sim - 1.0).abs() < 1e-9 || engine.selectivity(hp) == 0.0);
    }

    /// The batched `similarity_matrix` is bit-identical to pairwise
    /// `similarity` calls, for every metric and all three matching-set
    /// representations — the engine's caches must never change a result.
    #[test]
    fn similarity_matrix_is_bit_identical_to_pairwise(
        docs in gen_docs(),
        patterns in prop::collection::vec(gen_pattern(), 2..6),
    ) {
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(100_000),
            SynopsisConfig::hashes(64),
        ] {
            let mut engine = SimilarityEngine::new(config);
            engine.ingest(ingest::trees(&docs)).unwrap();
            let ids = engine.register_all(&patterns);
            for metric in ProximityMetric::all() {
                let matrix = engine.similarity_matrix(&ids, metric);
                prop_assert_eq!(matrix.len(), ids.len());
                prop_assert_eq!(matrix.metric(), metric);
                for i in 0..ids.len() {
                    prop_assert_eq!(matrix.get(i, i), 1.0);
                    for j in 0..ids.len() {
                        let pairwise = engine.similarity(ids[i], ids[j], metric);
                        prop_assert!(
                            matrix.get(i, j) == pairwise,
                            "({},{}) {} {:?}: matrix {} != pairwise {}",
                            i, j, metric, config.kind, matrix.get(i, j), pairwise
                        );
                    }
                }
            }
        }
    }

    /// `similarity_matrix_par(t)` is bit-identical to `similarity_matrix()`
    /// for t ∈ {1, 2, 8}, for every metric and all three matching-set
    /// representations — the thread count must never change a value. The
    /// matrix also has a unit diagonal, and is symmetric under the
    /// symmetric metrics.
    #[test]
    fn parallel_matrix_is_bit_identical_and_symmetric(
        docs in gen_docs(),
        patterns in prop::collection::vec(gen_pattern(), 2..6),
    ) {
        for config in [
            SynopsisConfig::counters(),
            SynopsisConfig::sets(100_000),
            SynopsisConfig::hashes(64),
        ] {
            let mut engine = SimilarityEngine::new(config);
            engine.ingest(ingest::trees(&docs)).unwrap();
            let ids = engine.register_all(&patterns);
            for metric in ProximityMetric::all() {
                let sequential = engine.similarity_matrix(&ids, metric);
                for threads in [1usize, 2, 8] {
                    // A cold clone (shared core, snapshotted caches — but
                    // the sequential call above already warmed them, so
                    // also test from a genuinely fresh engine).
                    let warm = engine.similarity_matrix_par(&ids, metric, threads);
                    prop_assert!(
                        warm == sequential,
                        "warm par({}) diverged for {} {:?}", threads, metric, config.kind
                    );
                    let mut fresh = SimilarityEngine::new(config);
                    fresh.ingest(ingest::trees(&docs)).unwrap();
                    let fresh_ids = fresh.register_all(&patterns);
                    let cold = fresh.similarity_matrix_par(&fresh_ids, metric, threads);
                    prop_assert!(
                        cold == sequential,
                        "cold par({}) diverged for {} {:?}", threads, metric, config.kind
                    );
                }
                for i in 0..ids.len() {
                    prop_assert_eq!(sequential.get(i, i), 1.0);
                    if metric.is_symmetric() {
                        for j in 0..ids.len() {
                            prop_assert!(
                                sequential.get(i, j) == sequential.get(j, i),
                                "{} not symmetric at ({}, {})", metric, i, j
                            );
                        }
                    }
                }
            }
        }
    }

    /// Batched selectivities equal single-handle queries bit for bit, and a
    /// fresh engine (no warm caches) reproduces them.
    #[test]
    fn batched_selectivities_are_stable(
        docs in gen_docs(),
        patterns in prop::collection::vec(gen_pattern(), 1..5),
    ) {
        let mut engine = SimilarityEngine::new(SynopsisConfig::hashes(32));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let ids = engine.register_all(&patterns);
        let batch = engine.selectivities(&ids);
        for (&id, &value) in ids.iter().zip(&batch) {
            prop_assert!(engine.selectivity(id) == value);
        }
        let mut fresh = SimilarityEngine::new(SynopsisConfig::hashes(32));
        fresh.ingest(ingest::trees(&docs)).unwrap();
        let fresh_ids = fresh.register_all(&patterns);
        prop_assert_eq!(fresh.selectivities(&fresh_ids), batch);
    }

    /// Containment is sound for matching and selectivity respects it: if
    /// `contains(p, q)` then `q`'s match set is a subset of `p`'s, so the
    /// exact selectivity is monotone — and so is the estimate, on the
    /// fragment where the representation intersects faithfully. Set
    /// summaries are monotone for arbitrary patterns at *any* capacity
    /// (coalescing merges whole contexts, preserving subset order).
    /// Counters multiply per-branch marginals as if independent, which can
    /// invert branching pairs, and undersized hash tables alias distinct
    /// documents, so those two are asserted on branch-free patterns with
    /// collision-free capacity — exactly the fragment the routing
    /// compaction relies on.
    #[test]
    fn containment_implies_selectivity_monotonicity(
        docs in gen_docs(),
        patterns in prop::collection::vec(gen_pattern(), 2..6),
    ) {
        use tps_pattern::containment::contains;
        let exact = ExactEvaluator::new(docs.clone());
        // (config, whether monotonicity is unconditional for it)
        let configs = [
            (SynopsisConfig::counters(), false),
            (SynopsisConfig::sets(8), true),
            (SynopsisConfig::sets(100_000), true),
            (SynopsisConfig::hashes(64), false),
            (SynopsisConfig::hashes(100_000), false),
        ];
        let estimates: Vec<Vec<f64>> = configs
            .iter()
            .map(|(config, _)| {
                let mut engine = SimilarityEngine::new(*config);
                engine.ingest(ingest::trees(&docs)).unwrap();
                let ids = engine.register_all(&patterns);
                engine.selectivities(&ids)
            })
            .collect();
        for i in 0..patterns.len() {
            for j in 0..patterns.len() {
                if i == j || !contains(&patterns[i], &patterns[j]) {
                    continue;
                }
                let (p, q) = (&patterns[i], &patterns[j]);
                for doc in &docs {
                    prop_assert!(
                        p.matches(doc) || !q.matches(doc),
                        "contains({p}, {q}) but a document matches only {q}"
                    );
                }
                prop_assert!(
                    exact.selectivity(q) <= exact.selectivity(p) + 1e-9,
                    "exact selectivity not monotone for {q} ⊑ {p}"
                );
                let branch_free = p.branching_count() == 0 && q.branching_count() == 0;
                for ((config, unconditional), sels) in configs.iter().zip(&estimates) {
                    if *unconditional || branch_free {
                        prop_assert!(
                            sels[j] <= sels[i] + 1e-9,
                            "{:?}: sel({q}) = {} > sel({p}) = {} despite {q} ⊑ {p}",
                            config.kind, sels[j], sels[i]
                        );
                    }
                }
            }
        }
    }

    /// The exact evaluator agrees with direct matching.
    #[test]
    fn exact_evaluator_matches_direct_counting(docs in gen_docs(), p in gen_pattern()) {
        let exact = ExactEvaluator::new(docs.clone());
        let direct = docs.iter().filter(|d| p.matches(d)).count() as f64 / docs.len() as f64;
        prop_assert!((exact.selectivity(&p) - direct).abs() < 1e-12);
    }
}
