//! Unit tests of community dissemination over a `tps-cluster` partition:
//! [`CommunityClustering::from_clustering`](crate::CommunityClustering::from_clustering)
//! routed by [`Broker`](crate::Broker)'s community strategy. `lib.rs`
//! mounts this file as the test-only module `overlay`, the module path of
//! the semantic overlay these tests were written against; the inner
//! `#[cfg(test)]` marks it as test code for line-based source checks that
//! read the file on its own.

#[cfg(test)]
mod tests {
    use tps_cluster::{agglomerative, AgglomerativeConfig, Clustering};
    use tps_core::{ExactEvaluator, ProximityMetric, SimMatrix};
    use tps_pattern::TreePattern;
    use tps_xml::XmlTree;

    use crate::{Broker, CommunityClustering, Consumer, DeliveryMetrics, RoutingStrategy};

    fn documents() -> Vec<XmlTree> {
        [
            "<media><CD><composer><last>Mozart</last></composer></CD></media>",
            "<media><CD><composer><last>Bach</last></composer></CD></media>",
            "<media><book><author><last>Austen</last></author></book></media>",
            "<media><book><author><last>Orwell</last></author></book></media>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect()
    }

    fn subscriptions() -> Vec<TreePattern> {
        [
            "//CD",
            "//composer",
            "//CD/composer",
            "//book",
            "//author",
            "//book/author",
        ]
        .iter()
        .map(|s| TreePattern::parse(s).unwrap())
        .collect()
    }

    /// One consumer ("peer") per subscription.
    fn broker() -> Broker {
        let mut broker = Broker::new();
        for (peer, subscription) in subscriptions().into_iter().enumerate() {
            broker.subscribe(Consumer::new(format!("peer-{peer}"), subscription));
        }
        broker
    }

    fn matrix() -> SimMatrix {
        ExactEvaluator::new(documents()).similarity_matrix(&subscriptions(), ProximityMetric::M3)
    }

    /// Communities of the agglomerative clustering of the exact matrix.
    fn communities() -> CommunityClustering {
        let matrix = matrix();
        let clustering = agglomerative(&matrix, AgglomerativeConfig::default()).clustering;
        CommunityClustering::from_clustering(&clustering, |a, b| matrix.symmetric(a, b))
    }

    fn route(broker: &Broker, communities: CommunityClustering) -> crate::RoutingStats {
        broker.route_stream(&documents(), &RoutingStrategy::Community(communities))
    }

    #[test]
    fn communities_partition_the_peers() {
        let communities = communities();
        let mut seen = vec![false; subscriptions().len()];
        for community in &communities.communities {
            assert!(community.members.contains(&community.representative));
            for &member in &community.members {
                assert!(!seen[member], "peer {member} appears twice");
                seen[member] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn semantic_overlay_cuts_filtering_cost_with_high_accuracy() {
        let communities = communities();
        let peers = subscriptions().len();
        let count = communities.len();
        assert!(count < peers);
        let stats = route(&broker(), communities);
        // Filtering cost: one match per community instead of one per peer.
        assert_eq!(stats.match_operations, documents().len() * count);
        assert!(stats.matches_per_document() < peers as f64);
        // Well-separated CD / book communities keep accuracy high.
        assert!(stats.recall() >= 0.7, "recall {}", stats.recall());
        assert!(stats.precision() >= 0.5, "precision {}", stats.precision());
    }

    #[test]
    fn singleton_communities_reproduce_exact_filtering() {
        let broker = broker();
        let peers = subscriptions().len();
        let singletons =
            CommunityClustering::from_clustering(&Clustering::singletons(peers), |_, _| 0.0);
        let stats = route(&broker, singletons);
        assert_eq!(stats.precision(), 1.0);
        assert_eq!(stats.recall(), 1.0);
        assert_eq!(stats.matches_per_document(), peers as f64);
        assert_eq!(
            stats,
            broker.route_stream(&documents(), &RoutingStrategy::PerSubscription)
        );
    }

    #[test]
    fn one_big_community_floods_its_members() {
        let peers = subscriptions().len();
        let one =
            CommunityClustering::from_clustering(&Clustering::single_community(peers), |_, _| 0.0);
        assert_eq!(one.len(), 1);
        // Equal scores: the representative is the smallest index, //CD.
        assert_eq!(one.communities[0].representative, 0);
        let stats = route(&broker(), one);
        // The representative misses book documents entirely.
        assert!(stats.recall() < 1.0 || stats.precision() < 1.0);
        assert_eq!(stats.matches_per_document(), 1.0);
        // Both CD documents reach every peer.
        assert_eq!(stats.deliveries, 2 * peers);
    }

    #[test]
    fn representative_is_the_medoid_when_a_matrix_is_given() {
        let matrix = matrix();
        let peers = subscriptions().len();
        let one =
            CommunityClustering::from_clustering(&Clustering::single_community(peers), |a, b| {
                matrix.symmetric(a, b)
            });
        let representative = one.communities[0].representative;
        // The medoid maximises total similarity to the other members.
        let score = |candidate: usize| -> f64 {
            (0..peers)
                .filter(|&other| other != candidate)
                .map(|other| matrix.symmetric(candidate, other))
                .sum()
        };
        for peer in 0..peers {
            assert!(score(representative) >= score(peer) - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "one consumer per clustered subscription")]
    fn mismatched_clustering_size_panics() {
        let two = CommunityClustering::from_clustering(&Clustering::singletons(2), |_, _| 0.0);
        let _ = route(&broker(), two);
    }

    #[test]
    fn empty_overlay_routes_nothing() {
        let none = CommunityClustering::from_clustering(&Clustering::singletons(0), |_, _| 0.0);
        assert!(none.is_empty());
        let stats = route(&Broker::new(), none);
        assert_eq!(stats.deliveries, 0);
        assert_eq!(stats.precision(), 1.0);
        assert_eq!(stats.recall(), 1.0);
    }
}
