//! Multi-broker routing simulation: compare flooding, routing tables
//! (exact / containment-pruned / aggregated) and similarity-driven
//! community routing on the same generated workload.
//!
//! ```text
//! cargo run --example routing_network
//! ```

use tree_pattern_similarity::prelude::*;
use tree_pattern_similarity::routing::{Broker, Consumer, RoutingStrategy};

fn main() {
    // A NITF-scale workload: documents and a positive subscription set.
    let dataset = Dataset::generate(
        Dtd::nitf_like(),
        &DatasetConfig::small().with_scale(300, 30, 0).with_seed(42),
    );
    let subscriptions = dataset.positive.clone();
    println!(
        "workload: {} documents, {} subscriptions (nitf-like DTD)\n",
        dataset.documents.len(),
        subscriptions.len(),
    );

    // ---- Broker tree with per-link routing tables -----------------------
    let brokers = 7;
    let mut network = BrokerNetwork::new(BrokerTopology::balanced_tree(brokers, 2));
    for (index, subscription) in subscriptions.iter().enumerate() {
        // Consumers are spread round-robin over the non-root brokers.
        let broker = 1 + index % (brokers - 1);
        network.attach(broker, format!("consumer-{index}"), subscription.clone());
    }
    println!("broker tree ({brokers} brokers), documents published at the root:");
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>8}",
        "forwarding", "messages", "matches/doc", "table nodes", "recall"
    );
    for mode in ForwardingMode::all() {
        let stats = network.route_stream(0, &dataset.documents, mode);
        println!(
            "{:<22} {:>10} {:>14.1} {:>12} {:>8.3}",
            mode.name(),
            stats.link_messages,
            stats.matches_per_document(),
            stats.table_nodes,
            stats.recall()
        );
    }

    // ---- Semantic overlay built from estimated similarities -------------
    let mut engine = SimilarityEngine::builder()
        .matching_sets(MatchingSetKind::hashes(512))
        .build();
    engine.ingest(ingest::trees(&dataset.documents)).unwrap();
    let subscription_ids = engine.register_all(&subscriptions);
    let matrix = engine.similarity_matrix(&subscription_ids, ProximityMetric::M3);
    let mut broker = Broker::new();
    for (index, subscription) in subscriptions.iter().enumerate() {
        broker.subscribe(Consumer::new(
            format!("consumer-{index}"),
            subscription.clone(),
        ));
    }

    println!("\nsemantic overlay (agglomerative clustering on estimated M3):");
    println!(
        "{:<12} {:>12} {:>14} {:>10} {:>8}",
        "threshold", "communities", "matches/doc", "precision", "recall"
    );
    for threshold in [0.3, 0.5, 0.7, 0.9] {
        let clustering = agglomerative(
            &matrix,
            AgglomerativeConfig {
                similarity_threshold: threshold,
                ..AgglomerativeConfig::default()
            },
        )
        .clustering;
        let communities =
            CommunityClustering::from_clustering(&clustering, |a, b| matrix.symmetric(a, b));
        let count = communities.len();
        let stats =
            broker.route_stream(&dataset.documents, &RoutingStrategy::Community(communities));
        println!(
            "{:<12.1} {:>12} {:>14.1} {:>10.3} {:>8.3}",
            threshold,
            count,
            stats.matches_per_document(),
            stats.precision(),
            stats.recall()
        );
    }
    println!(
        "\nLower thresholds mean fewer communities and less filtering work per \
         document, at the price of delivery accuracy — the trade-off the paper's \
         semantic communities are designed to navigate."
    );
}
