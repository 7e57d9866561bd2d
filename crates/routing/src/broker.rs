//! Content-based routing simulation.
//!
//! A single broker serves a set of consumers, each holding one tree-pattern
//! subscription. The simulation compares three dissemination strategies on a
//! document stream:
//!
//! * **Flooding** — every document is delivered to every consumer (no
//!   filtering cost at the broker, maximal network cost, consumers filter
//!   locally).
//! * **Per-subscription filtering** — the broker matches every document
//!   against every subscription (exact delivery, maximal filtering cost);
//!   this is the classic content-based routing baseline.
//! * **Community routing** — subscriptions are grouped into semantic
//!   communities; the broker matches each document only against one
//!   representative per community and, on a hit, delivers it to the whole
//!   community (the paper's motivation: cheap dissemination inside semantic
//!   communities at the cost of some delivery inaccuracy).
//!
//! The simulation reports filtering cost (pattern-match operations),
//! delivered messages, and delivery accuracy (false positives / negatives
//! against the exact per-subscription semantics).

use tps_pattern::TreePattern;
use tps_xml::XmlTree;

use crate::community::CommunityClustering;
use crate::impl_variant_name;
use crate::stats::DeliveryMetrics;

/// A consumer and its subscription.
#[derive(Debug, Clone)]
pub struct Consumer {
    /// Consumer name (for reports).
    pub name: String,
    /// The consumer's subscription.
    pub subscription: TreePattern,
}

impl Consumer {
    /// Create a consumer.
    pub fn new(name: impl Into<String>, subscription: TreePattern) -> Self {
        Self {
            name: name.into(),
            subscription,
        }
    }
}

/// The dissemination strategy simulated by [`Broker::route_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingStrategy {
    /// Deliver every document to every consumer.
    Flooding,
    /// Match every document against every subscription.
    PerSubscription,
    /// Match one representative member per community; deliver to whole
    /// communities (cheap, but the representative may miss documents other
    /// members want — bounded false negatives).
    Community(CommunityClustering),
    /// Match one *aggregated* pattern per community (the tree-pattern
    /// aggregation baseline of Chan et al., VLDB'02): the aggregate contains
    /// every member, so recall is perfect, at the cost of false positives.
    CommunityAggregated(CommunityClustering),
}

impl_variant_name!(RoutingStrategy {
    RoutingStrategy::Flooding => "flooding",
    RoutingStrategy::PerSubscription => "per-subscription",
    RoutingStrategy::Community(_) => "community",
    RoutingStrategy::CommunityAggregated(_) => "community-aggregated",
});

/// Aggregate statistics of one routing run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutingStats {
    /// Number of routed documents.
    pub documents: usize,
    /// Number of consumers.
    pub consumers: usize,
    /// Pattern-match operations performed by the broker.
    pub match_operations: usize,
    /// Messages delivered (document × consumer pairs).
    pub deliveries: usize,
    /// Deliveries to consumers whose subscription actually matches.
    pub correct_deliveries: usize,
    /// Deliveries to consumers whose subscription does not match.
    pub false_positives: usize,
    /// Missed deliveries (subscription matches but nothing was delivered).
    pub false_negatives: usize,
}

impl DeliveryMetrics for RoutingStats {
    fn documents(&self) -> usize {
        self.documents
    }
    fn match_operations(&self) -> usize {
        self.match_operations
    }
    fn deliveries(&self) -> usize {
        self.deliveries
    }
    fn useful_deliveries(&self) -> usize {
        self.correct_deliveries
    }
    fn missed_deliveries(&self) -> usize {
        self.false_negatives
    }
}

/// A single content-based broker.
#[derive(Debug, Clone, Default)]
pub struct Broker {
    consumers: Vec<Consumer>,
}

impl Broker {
    /// Create a broker with no consumers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a consumer; returns its index.
    pub fn subscribe(&mut self, consumer: Consumer) -> usize {
        self.consumers.push(consumer);
        self.consumers.len() - 1
    }

    /// The registered consumers.
    pub fn consumers(&self) -> &[Consumer] {
        &self.consumers
    }

    /// The subscriptions of all consumers, in registration order.
    pub fn subscriptions(&self) -> Vec<TreePattern> {
        self.consumers
            .iter()
            .map(|c| c.subscription.clone())
            .collect()
    }

    /// Route a document stream with the given strategy and return aggregate
    /// statistics.
    ///
    /// # Panics
    ///
    /// With a community strategy, when the communities do not hold exactly
    /// as many members as the broker has consumers.
    pub fn route_stream(&self, documents: &[XmlTree], strategy: &RoutingStrategy) -> RoutingStats {
        if let RoutingStrategy::Community(clustering)
        | RoutingStrategy::CommunityAggregated(clustering) = strategy
        {
            let members: usize = clustering.communities.iter().map(|c| c.len()).sum();
            assert_eq!(
                members,
                self.consumers.len(),
                "one consumer per clustered subscription is required"
            );
        }
        let mut stats = RoutingStats {
            documents: documents.len(),
            consumers: self.consumers.len(),
            ..RoutingStats::default()
        };
        // Precompute per-community aggregated patterns when needed.
        let aggregates: Vec<TreePattern> = match strategy {
            RoutingStrategy::CommunityAggregated(clustering) => clustering
                .communities
                .iter()
                .map(|community| {
                    tps_pattern::aggregate::aggregate_all(
                        community
                            .members
                            .iter()
                            .map(|&m| &self.consumers[m].subscription),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        for doc in documents {
            // Ground truth for accuracy accounting.
            let interested: Vec<bool> = self
                .consumers
                .iter()
                .map(|c| c.subscription.matches(doc))
                .collect();
            let mut delivered = vec![false; self.consumers.len()];
            match strategy {
                RoutingStrategy::Flooding => {
                    delivered.iter_mut().for_each(|d| *d = true);
                }
                RoutingStrategy::PerSubscription => {
                    stats.match_operations += self.consumers.len();
                    for (i, is_interested) in interested.iter().enumerate() {
                        delivered[i] = *is_interested;
                    }
                }
                RoutingStrategy::Community(clustering) => {
                    for community in &clustering.communities {
                        stats.match_operations += 1;
                        let representative = &self.consumers[community.representative].subscription;
                        if representative.matches(doc) {
                            for &member in &community.members {
                                delivered[member] = true;
                            }
                        }
                    }
                }
                RoutingStrategy::CommunityAggregated(clustering) => {
                    for (community, aggregate) in clustering.communities.iter().zip(&aggregates) {
                        stats.match_operations += 1;
                        if aggregate.matches(doc) {
                            for &member in &community.members {
                                delivered[member] = true;
                            }
                        }
                    }
                }
            }
            for i in 0..self.consumers.len() {
                if delivered[i] {
                    stats.deliveries += 1;
                    if interested[i] {
                        stats.correct_deliveries += 1;
                    } else {
                        stats.false_positives += 1;
                    }
                } else if interested[i] {
                    stats.false_negatives += 1;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::{CommunityClustering, CommunityConfig};
    use tps_core::SimilarityEngine;
    use tps_synopsis::{ingest, Ingest, SynopsisConfig};

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

    fn broker() -> Broker {
        let mut broker = Broker::new();
        for (name, pattern) in [
            ("cd-fan", "//CD"),
            ("classical", "//composer"),
            ("mozart", "//Mozart"),
            ("reader", "//book"),
            ("novels", "//author"),
        ] {
            broker.subscribe(Consumer::new(name, TreePattern::parse(pattern).unwrap()));
        }
        broker
    }

    #[test]
    fn flooding_delivers_everything_with_no_filtering() {
        let broker = broker();
        let docs = documents();
        let stats = broker.route_stream(&docs, &RoutingStrategy::Flooding);
        assert_eq!(stats.match_operations, 0);
        assert_eq!(stats.deliveries, docs.len() * broker.consumers().len());
        assert_eq!(stats.recall(), 1.0);
        assert!(stats.precision() < 1.0);
    }

    #[test]
    fn per_subscription_filtering_is_exact_but_expensive() {
        let broker = broker();
        let docs = documents();
        let stats = broker.route_stream(&docs, &RoutingStrategy::PerSubscription);
        assert_eq!(
            stats.match_operations,
            docs.len() * broker.consumers().len()
        );
        assert_eq!(stats.precision(), 1.0);
        assert_eq!(stats.recall(), 1.0);
        assert_eq!(stats.false_positives, 0);
        assert_eq!(stats.false_negatives, 0);
        assert_eq!(
            stats.matches_per_document(),
            broker.consumers().len() as f64
        );
    }

    #[test]
    fn community_routing_reduces_filtering_cost() {
        let broker = broker();
        let docs = documents();
        let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let subscriptions = engine.register_all(&broker.subscriptions());
        let clustering = CommunityClustering::cluster(
            &engine,
            &subscriptions,
            CommunityConfig {
                threshold: 0.4,
                ..CommunityConfig::default()
            },
        );
        assert!(clustering.len() < broker.consumers().len());
        let stats = broker.route_stream(&docs, &RoutingStrategy::Community(clustering));
        let exact = broker.route_stream(&docs, &RoutingStrategy::PerSubscription);
        assert!(
            stats.match_operations < exact.match_operations,
            "community routing should filter less: {} vs {}",
            stats.match_operations,
            exact.match_operations
        );
        // Good communities keep the delivery quality high.
        assert!(stats.recall() >= 0.7, "recall {}", stats.recall());
        assert!(stats.precision() >= 0.5, "precision {}", stats.precision());
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(RoutingStrategy::Flooding.name(), "flooding");
        assert_eq!(RoutingStrategy::PerSubscription.name(), "per-subscription");
    }

    #[test]
    fn aggregated_community_routing_has_perfect_recall() {
        let broker = broker();
        let docs = documents();
        let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let subscriptions = engine.register_all(&broker.subscriptions());
        let clustering = CommunityClustering::cluster(
            &engine,
            &subscriptions,
            CommunityConfig {
                threshold: 0.4,
                ..CommunityConfig::default()
            },
        );
        let communities = clustering.len();
        let stats = broker.route_stream(&docs, &RoutingStrategy::CommunityAggregated(clustering));
        // The aggregate contains every member, so no interested consumer is
        // ever missed.
        assert_eq!(stats.false_negatives, 0);
        assert_eq!(stats.recall(), 1.0);
        // Filtering cost is one match per community per document.
        assert_eq!(stats.match_operations, docs.len() * communities);
        // Precision can drop (the aggregate over-approximates), but flooding
        // is never better.
        let flooding = broker.route_stream(&docs, &RoutingStrategy::Flooding);
        assert!(stats.precision() >= flooding.precision());
    }

    #[test]
    fn empty_broker_routes_without_deliveries() {
        let broker = Broker::new();
        let stats = broker.route_stream(&documents(), &RoutingStrategy::PerSubscription);
        assert_eq!(stats.deliveries, 0);
        assert_eq!(stats.precision(), 1.0);
        assert_eq!(stats.recall(), 1.0);
        assert_eq!(stats.consumers, 0);
    }

    #[test]
    fn stats_counts_are_consistent() {
        let broker = broker();
        let docs = documents();
        let stats = broker.route_stream(&docs, &RoutingStrategy::Flooding);
        assert_eq!(
            stats.deliveries,
            stats.correct_deliveries + stats.false_positives
        );
    }
}
