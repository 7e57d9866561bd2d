//! Approximate XML query answering with the synopsis: selectivity-guided
//! query relaxation and nearest-subscription search.
//!
//! Beyond routing, the paper notes the synopsis is useful for "approximate
//! XML queries involving tree patterns". This example shows two such uses:
//!
//! 1. estimating the selectivity of a query and of progressively relaxed
//!    variants (replacing tags with `*`, child steps with `//`) to suggest a
//!    relaxation when the original query is too selective, and
//! 2. finding, for a new subscription, the most similar already-registered
//!    subscription (the community it should join).
//!
//! ```text
//! cargo run --release --example approximate_queries
//! ```

use tree_pattern_similarity::pattern::PatternLabel;
use tree_pattern_similarity::prelude::*;

/// Relax a pattern: every tag node is replaced by `*` one at a time,
/// producing one candidate per node.
fn wildcard_relaxations(pattern: &TreePattern) -> Vec<TreePattern> {
    let mut relaxations = Vec::new();
    for target in pattern.preorder() {
        if !matches!(pattern.label(target), PatternLabel::Tag(_)) {
            continue;
        }
        let mut relaxed = TreePattern::new();
        let root = relaxed.root();
        copy_with_substitution(pattern, pattern.root(), &mut relaxed, root, target);
        relaxations.push(relaxed);
    }
    relaxations
}

fn copy_with_substitution(
    src: &TreePattern,
    src_node: tree_pattern_similarity::pattern::PatternNodeId,
    dst: &mut TreePattern,
    dst_parent: tree_pattern_similarity::pattern::PatternNodeId,
    substitute: tree_pattern_similarity::pattern::PatternNodeId,
) {
    for &child in src.children(src_node) {
        let label = if child == substitute {
            PatternLabel::Wildcard
        } else {
            src.label(child)
        };
        let new_node = dst.add_child(dst_parent, label);
        copy_with_substitution(src, child, dst, new_node, substitute);
    }
}

fn main() {
    // Learn the document distribution of a media-like collection.
    let dtd = Dtd::media();
    let dataset = Dataset::generate(dtd, &DatasetConfig::small().with_scale(500, 40, 0));
    let mut engine = SimilarityEngine::builder()
        .matching_sets(MatchingSetKind::hashes(512))
        .build();
    engine.ingest(ingest::trees(&dataset.documents)).unwrap();
    let workload_ids = engine.register_all(&dataset.positive);

    // 1. Query relaxation guided by estimated selectivity. Candidate
    //    relaxations are ad-hoc, short-lived patterns, so the transient
    //    `selectivity_of` entry point fits better than registration.
    let query = TreePattern::parse("/media/CD/composer/first/v7").unwrap();
    let original = engine.selectivity_of(&query);
    println!("query {query}");
    println!("  estimated selectivity: {original:.4}");
    if original < 0.05 {
        println!("  query is highly selective; wildcard relaxations:");
        let mut best: Option<(TreePattern, f64)> = None;
        for relaxed in wildcard_relaxations(&query) {
            let s = engine.selectivity_of(&relaxed);
            println!("    {relaxed}  ->  {s:.4}");
            if best.as_ref().map(|(_, b)| s > *b).unwrap_or(true) {
                best = Some((relaxed, s));
            }
        }
        if let Some((pattern, s)) = best {
            println!("  suggested relaxation: {pattern} (selectivity {s:.4})");
        }
    }

    // 2. Nearest-subscription search for a new consumer: the newcomer is
    //    registered once, then compared against the registered workload.
    let newcomer_id = {
        let newcomer = TreePattern::parse("//CD/composer/last").unwrap();
        engine.register(&newcomer)
    };
    let newcomer = engine.pattern(newcomer_id).clone();
    println!("\nnew subscription {newcomer}: most similar registered subscriptions (M2):");
    let mut scored: Vec<(f64, &TreePattern)> = workload_ids
        .iter()
        .zip(&dataset.positive)
        .map(|(&id, p)| (engine.similarity(newcomer_id, id, ProximityMetric::M2), p))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    for (score, pattern) in scored.iter().take(5) {
        println!("  {score:.3}  {pattern}");
    }
    let exact_best = scored.first().expect("non-empty workload");
    assert!(
        exact_best.0 > 0.0,
        "at least one related subscription exists"
    );
}
