//! Cross-crate integration tests for the community-discovery and DTD
//! substrates: workload generation → similarity estimation → clustering →
//! routing, and DTD round trips against the same workload.

use tree_pattern_similarity::dtd::{samples, writer};
use tree_pattern_similarity::prelude::*;
use tree_pattern_similarity::routing::{Broker, Consumer, RoutingStrategy};

fn dataset() -> Dataset {
    Dataset::generate(
        Dtd::media(),
        &DatasetConfig::small()
            .with_scale(200, 24, 0)
            .with_seed(2026),
    )
}

#[test]
fn estimated_communities_agree_with_exact_communities() {
    let dataset = dataset();
    let subscriptions = dataset.positive.clone();
    let exact = ExactEvaluator::new(dataset.documents.clone());
    let mut engine = SimilarityEngine::new(SynopsisConfig::hashes(512));
    engine.ingest(ingest::trees(&dataset.documents)).unwrap();
    let subscription_ids = engine.register_all(&subscriptions);

    let exact_matrix = exact.similarity_matrix(&subscriptions, ProximityMetric::M3);
    let estimated_matrix = engine.similarity_matrix(&subscription_ids, ProximityMetric::M3);

    let config = AgglomerativeConfig {
        similarity_threshold: 0.55,
        ..AgglomerativeConfig::default()
    };
    let exact_clusters = agglomerative(&exact_matrix, config).clustering;
    let estimated_clusters = agglomerative(&estimated_matrix, config).clustering;

    // The two clusterings should agree on most pairs (Rand-index style
    // agreement): the synopsis is accurate enough to recover communities.
    let n = subscriptions.len();
    let mut agreeing = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += 1;
            if exact_clusters.same_cluster(i, j) == estimated_clusters.same_cluster(i, j) {
                agreeing += 1;
            }
        }
    }
    let agreement = agreeing as f64 / total as f64;
    assert!(
        agreement > 0.8,
        "clusterings from estimated vs exact similarities agree on only {agreement:.2} of pairs"
    );
}

#[test]
fn clustering_quality_beats_random_assignment() {
    let dataset = dataset();
    let subscriptions = dataset.positive.clone();
    let exact = ExactEvaluator::new(dataset.documents.clone());
    let matrix = exact.similarity_matrix(&subscriptions, ProximityMetric::M3);
    let clustered = agglomerative(
        &matrix,
        AgglomerativeConfig {
            similarity_threshold: 0.5,
            ..AgglomerativeConfig::default()
        },
    )
    .clustering;
    // A deliberately shuffled clustering with the same sizes.
    let mut shuffled_assignment = clustered.assignment().to_vec();
    shuffled_assignment.rotate_left(subscriptions.len() / 3);
    let shuffled = Clustering::from_assignment(shuffled_assignment);

    let good = tree_pattern_similarity::cluster::quality::evaluate(&matrix, &clustered);
    let bad = tree_pattern_similarity::cluster::quality::evaluate(&matrix, &shuffled);
    assert!(
        good.intra_similarity >= bad.intra_similarity,
        "clustered intra-similarity {} should beat shuffled {}",
        good.intra_similarity,
        bad.intra_similarity
    );
    assert!(good.silhouette >= bad.silhouette);
}

#[test]
fn semantic_overlay_reduces_filtering_cost_on_a_generated_workload() {
    let dataset = dataset();
    let subscriptions = dataset.positive.clone();
    let exact = ExactEvaluator::new(dataset.documents.clone());
    let matrix = exact.similarity_matrix(&subscriptions, ProximityMetric::M3);
    let clustering = leader(
        &matrix,
        LeaderConfig {
            similarity_threshold: 0.5,
            ..LeaderConfig::default()
        },
    )
    .clustering;
    let communities =
        CommunityClustering::from_clustering(&clustering, |a, b| matrix.symmetric(a, b));
    assert!(communities.len() <= subscriptions.len());
    let mut broker = Broker::new();
    for (index, subscription) in subscriptions.iter().enumerate() {
        broker.subscribe(Consumer::new(format!("c{index}"), subscription.clone()));
    }
    let stats = broker.route_stream(&dataset.documents, &RoutingStrategy::Community(communities));
    assert!(stats.matches_per_document() <= subscriptions.len() as f64);
    assert!(stats.recall() > 0.5, "recall {}", stats.recall());
    assert!(stats.precision() > 0.5, "precision {}", stats.precision());
}

#[test]
fn broker_network_routing_is_exact_for_every_table_mode() {
    let dataset = dataset();
    let subscriptions = &dataset.positive;
    let mut network = BrokerNetwork::new(BrokerTopology::balanced_tree(9, 2));
    for (index, subscription) in subscriptions.iter().enumerate() {
        network.attach(index % 9, format!("c{index}"), subscription.clone());
    }
    let exact = network.route_stream(
        0,
        &dataset.documents,
        ForwardingMode::Table(TableMode::Exact),
    );
    for mode in ForwardingMode::all() {
        let stats = network.route_stream(0, &dataset.documents, mode);
        assert_eq!(
            stats.missed_deliveries,
            0,
            "{} missed deliveries",
            mode.name()
        );
        assert_eq!(stats.deliveries, exact.deliveries, "{}", mode.name());
    }
    let flooding = network.route_stream(0, &dataset.documents, ForwardingMode::Flooding);
    assert!(exact.link_messages <= flooding.link_messages);
}

#[test]
fn workload_dtds_round_trip_and_validate_their_own_documents() {
    for dtd in [Dtd::media(), Dtd::nitf_like()] {
        let schema = writer::schema_from_workload(&dtd);
        let text = writer::write_dtd(&schema);
        let reparsed = tree_pattern_similarity::dtd::parser::parse_named(dtd.name(), &text)
            .expect("exported DTD parses");
        assert_eq!(reparsed.element_count(), dtd.element_count());

        let dataset = Dataset::generate(
            dtd,
            &DatasetConfig::small().with_scale(30, 5, 0).with_seed(11),
        );
        let validator = Validator::new(&schema, ValidationMode::Lenient);
        for document in &dataset.documents {
            assert!(
                validator.is_valid(document),
                "generated document failed lenient validation"
            );
        }
    }
}

#[test]
fn dtd_equivalent_patterns_have_high_estimated_similarity() {
    let schema = samples::media_schema();
    let analyzer = PatternAnalyzer::new(&schema);
    let pa = TreePattern::parse("/media/CD/*/last/Mozart").unwrap();
    let pd = TreePattern::parse("//composer/last/Mozart").unwrap();
    assert!(analyzer.dtd_equivalent(&pa, &pd));

    // Over documents generated from that DTD, the estimator agrees: the two
    // patterns match exactly the same documents, so M3 is high whenever
    // either matches anything at all.
    let dataset = Dataset::generate(
        Dtd::media(),
        &DatasetConfig::small().with_scale(500, 5, 0).with_seed(3),
    );
    let exact = ExactEvaluator::new(dataset.documents.clone());
    let exact_m3 = exact.similarity(&pa, &pd, ProximityMetric::M3);
    // pa/pd constrain a leaf text value ("Mozart") that the generator rarely
    // produces; equivalence shows up as identical match sets.
    let sel_pa = exact.selectivity(&pa);
    let sel_pd = exact.selectivity(&pd);
    assert!(
        (sel_pa - sel_pd).abs() < 1e-9,
        "DTD-equivalent patterns must have equal exact selectivity"
    );
    if sel_pa > 0.0 {
        assert!(exact_m3 > 0.99);
    }
}
