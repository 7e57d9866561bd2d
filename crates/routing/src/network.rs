//! Multi-broker content-based routing over a tree overlay.
//!
//! Documents are published at a producer broker and forwarded over the
//! overlay using per-link routing tables ([`crate::table`]); every broker
//! delivers to its local consumers after exact local filtering. The
//! simulation accounts for the two costs the paper's introduction discusses —
//! network messages on overlay links and pattern-match operations at brokers
//! — under four forwarding disciplines: flooding and the three table
//! summarisation modes.

use tps_pattern::containment::ContainmentOracle;
use tps_pattern::{PatternSet, TreePattern};
use tps_xml::XmlTree;

use crate::impl_variant_name;
use crate::stats::{DeliveryMetrics, LinkMetrics, TableCompaction};
use crate::table::{RoutingTable, TableMode};
use crate::topology::{BrokerId, BrokerTopology};

/// A consumer attached to a broker of the network.
#[derive(Debug, Clone)]
pub struct NetworkConsumer {
    /// Consumer name (for reports).
    pub name: String,
    /// The broker the consumer is attached to.
    pub broker: BrokerId,
    /// The consumer's subscription.
    pub subscription: TreePattern,
}

/// How documents are forwarded between brokers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingMode {
    /// Forward every document over every link (no routing tables).
    Flooding,
    /// Forward according to per-link routing tables summarised with the
    /// given mode.
    Table(TableMode),
}

impl_variant_name!(ForwardingMode {
    ForwardingMode::Flooding => "flooding",
    ForwardingMode::Table(mode) => mode.name(),
});

impl ForwardingMode {
    /// All forwarding modes, cheapest-table first.
    pub fn all() -> [ForwardingMode; 4] {
        [
            ForwardingMode::Flooding,
            ForwardingMode::Table(TableMode::Exact),
            ForwardingMode::Table(TableMode::ContainmentPruned),
            ForwardingMode::Table(TableMode::Aggregated),
        ]
    }
}

/// Aggregate statistics of routing a document stream through the network.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkStats {
    /// Number of published documents.
    pub documents: usize,
    /// Number of brokers in the overlay.
    pub brokers: usize,
    /// Number of consumers.
    pub consumers: usize,
    /// Messages sent over overlay links.
    pub link_messages: usize,
    /// Link messages that reached a subtree with no interested consumer.
    pub spurious_link_messages: usize,
    /// Pattern-match operations performed by brokers (table lookups plus
    /// local consumer filtering).
    pub match_operations: usize,
    /// Deliveries to consumers (always exact: local filtering is
    /// per-subscription).
    pub deliveries: usize,
    /// Matching (consumer, document) pairs that were *not* delivered.
    pub missed_deliveries: usize,
    /// Total size of all routing tables, in pattern nodes (0 for flooding).
    pub table_nodes: usize,
    /// Entries offered to versus kept by table construction (empty for
    /// flooding). Exact tables keep everything; pruning and the
    /// analysis-driven compaction pre-pass drop covered entries.
    pub compaction: TableCompaction,
}

impl LinkMetrics for NetworkStats {
    fn link_messages(&self) -> usize {
        self.link_messages
    }
    fn spurious_link_messages(&self) -> usize {
        self.spurious_link_messages
    }
}

impl DeliveryMetrics for NetworkStats {
    fn documents(&self) -> usize {
        self.documents
    }
    fn match_operations(&self) -> usize {
        self.match_operations
    }
    fn deliveries(&self) -> usize {
        self.deliveries
    }
    // Local delivery filters per consumer, so every delivery is useful:
    // `precision()` is identically 1.0 and `recall()` reduces to
    // `deliveries / (deliveries + missed)`.
    fn useful_deliveries(&self) -> usize {
        self.deliveries
    }
    fn missed_deliveries(&self) -> usize {
        self.missed_deliveries
    }
}

/// What every document of one `route_stream` call is routed with.
struct StreamPlan {
    mode: ForwardingMode,
    /// One table per broker (none for flooding).
    tables: Vec<RoutingTable>,
    /// `local[b]`: the consumers attached to broker `b`.
    local: Vec<Vec<usize>>,
}

/// A tree of brokers with consumers attached to them.
#[derive(Debug, Clone)]
pub struct BrokerNetwork {
    topology: BrokerTopology,
    consumers: Vec<NetworkConsumer>,
}

impl BrokerNetwork {
    /// Create a network over the given overlay topology, with no consumers.
    pub fn new(topology: BrokerTopology) -> Self {
        Self {
            topology,
            consumers: Vec::new(),
        }
    }

    /// The overlay topology.
    pub fn topology(&self) -> &BrokerTopology {
        &self.topology
    }

    /// The attached consumers.
    pub fn consumers(&self) -> &[NetworkConsumer] {
        &self.consumers
    }

    /// Attach a consumer to a broker; returns the consumer index.
    ///
    /// # Panics
    ///
    /// Panics if `broker` does not exist in the topology.
    pub fn attach(
        &mut self,
        broker: BrokerId,
        name: impl Into<String>,
        subscription: TreePattern,
    ) -> usize {
        assert!(
            broker < self.topology.broker_count(),
            "broker {broker} does not exist"
        );
        self.consumers.push(NetworkConsumer {
            name: name.into(),
            broker,
            subscription,
        });
        self.consumers.len() - 1
    }

    /// Indices of the consumers attached to `broker`.
    pub fn consumers_at(&self, broker: BrokerId) -> Vec<usize> {
        self.consumers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.broker == broker)
            .map(|(i, _)| i)
            .collect()
    }

    /// Build the per-broker routing tables for the given summarisation mode.
    ///
    /// The table of broker `b` has one entry per link of `b`, summarising the
    /// subscriptions of every consumer attached to a broker behind that link.
    pub fn build_tables(&self, mode: TableMode) -> Vec<RoutingTable> {
        self.tables_from_partitions(mode, None)
    }

    /// [`BrokerNetwork::build_tables`] with a compaction pre-pass: each
    /// link's subscription set is containment-pruned — the oracle extending
    /// the syntactic test — before the mode summarisation
    /// ([`RoutingTable::build_compacted`]). With the silent oracle this is
    /// delivery-identical to the uncompacted tables for every document
    /// stream; a DTD oracle preserves delivery on conforming streams.
    pub fn build_tables_compacted(
        &self,
        mode: TableMode,
        oracle: &ContainmentOracle<'_>,
    ) -> Vec<RoutingTable> {
        self.tables_from_partitions(mode, Some(oracle))
    }

    fn tables_from_partitions(
        &self,
        mode: TableMode,
        oracle: Option<&ContainmentOracle<'_>>,
    ) -> Vec<RoutingTable> {
        self.topology
            .brokers()
            .map(|broker| {
                let per_link: Vec<Vec<TreePattern>> = self
                    .topology
                    .link_partitions(broker)
                    .into_iter()
                    .map(|behind| {
                        self.consumers
                            .iter()
                            .filter(|c| behind.contains(&c.broker))
                            .map(|c| c.subscription.clone())
                            .collect()
                    })
                    .collect();
                match oracle {
                    None => RoutingTable::build(&per_link, mode),
                    Some(oracle) => RoutingTable::build_compacted(&per_link, mode, oracle),
                }
            })
            .collect()
    }

    /// Route a document stream published at `producer` and return aggregate
    /// statistics.
    pub fn route_stream(
        &self,
        producer: BrokerId,
        documents: &[XmlTree],
        mode: ForwardingMode,
    ) -> NetworkStats {
        self.route_stream_inner(producer, documents, mode, None)
    }

    /// [`BrokerNetwork::route_stream`] over tables built with the
    /// compaction pre-pass ([`BrokerNetwork::build_tables_compacted`]);
    /// [`NetworkStats::compaction`] reports how many entries it dropped.
    pub fn route_stream_compacted(
        &self,
        producer: BrokerId,
        documents: &[XmlTree],
        mode: ForwardingMode,
        oracle: &ContainmentOracle<'_>,
    ) -> NetworkStats {
        self.route_stream_inner(producer, documents, mode, Some(oracle))
    }

    fn route_stream_inner(
        &self,
        producer: BrokerId,
        documents: &[XmlTree],
        mode: ForwardingMode,
        oracle: Option<&ContainmentOracle<'_>>,
    ) -> NetworkStats {
        assert!(
            producer < self.topology.broker_count(),
            "producer broker {producer} does not exist"
        );
        let tables = match mode {
            ForwardingMode::Flooding => Vec::new(),
            ForwardingMode::Table(table_mode) => self.tables_from_partitions(table_mode, oracle),
        };
        let mut stats = NetworkStats {
            documents: documents.len(),
            brokers: self.topology.broker_count(),
            consumers: self.consumers.len(),
            table_nodes: tables.iter().map(RoutingTable::node_count).sum(),
            compaction: TableCompaction {
                input_entries: tables.iter().map(RoutingTable::input_count).sum(),
                kept_entries: tables.iter().map(RoutingTable::entry_count).sum(),
            },
            ..NetworkStats::default()
        };
        // The ground-truth interest of each document comes from one walk of
        // the shared step forest over all subscriptions; the link decisions
        // below still go through the tables, entry by entry.
        let mut matcher = PatternSet::new();
        for (consumer, attached) in self.consumers.iter().enumerate() {
            matcher.insert(consumer as u64, &attached.subscription);
        }
        let plan = StreamPlan {
            mode,
            tables,
            local: self
                .topology
                .brokers()
                .map(|broker| self.consumers_at(broker))
                .collect(),
        };
        let mut interested = vec![false; self.consumers.len()];
        for document in documents {
            interested.fill(false);
            for &consumer in matcher.matches(document) {
                interested[consumer as usize] = true;
            }
            self.route_one(producer, document, &plan, &interested, &mut stats);
        }
        stats
    }

    /// Route one document; `interested[c]` is whether consumer `c`'s
    /// subscription matches it.
    fn route_one(
        &self,
        producer: BrokerId,
        document: &XmlTree,
        plan: &StreamPlan,
        interested: &[bool],
        stats: &mut NetworkStats,
    ) {
        let mut delivered = vec![false; self.consumers.len()];
        // Depth-first propagation over the tree, remembering the link we
        // arrived on so we never send a document back where it came from.
        let mut stack: Vec<(BrokerId, Option<BrokerId>)> = vec![(producer, None)];
        while let Some((broker, from)) = stack.pop() {
            // Local delivery: exact per-consumer filtering.
            for &consumer in &plan.local[broker] {
                stats.match_operations += 1;
                if interested[consumer] {
                    delivered[consumer] = true;
                    stats.deliveries += 1;
                }
            }
            // Forwarding decision per outgoing link.
            let neighbours = self.topology.neighbours(broker);
            let forward_to: Vec<BrokerId> = match plan.mode {
                ForwardingMode::Flooding => neighbours
                    .iter()
                    .copied()
                    .filter(|&n| Some(n) != from)
                    .collect(),
                ForwardingMode::Table(_) => {
                    let table = &plan.tables[broker];
                    let mut chosen = Vec::new();
                    for (link_index, &neighbour) in neighbours.iter().enumerate() {
                        if Some(neighbour) == from {
                            continue;
                        }
                        let (hit, cost) = table.link(link_index).matches(document);
                        stats.match_operations += cost;
                        if hit {
                            chosen.push(neighbour);
                        }
                    }
                    chosen
                }
            };
            for neighbour in forward_to {
                stats.link_messages += 1;
                // A forward is spurious if nothing behind the link matches.
                let behind = self.subtree_consumers(neighbour, broker);
                if !behind.iter().any(|&c| interested[c]) {
                    stats.spurious_link_messages += 1;
                }
                stack.push((neighbour, Some(broker)));
            }
        }
        stats.missed_deliveries += interested
            .iter()
            .zip(&delivered)
            .filter(|(&i, &d)| i && !d)
            .count();
    }

    /// Consumers attached to brokers in the subtree rooted at `root` when the
    /// link towards `parent` is removed.
    fn subtree_consumers(&self, root: BrokerId, parent: BrokerId) -> Vec<usize> {
        let brokers = self.topology.subtree_brokers(root, parent);
        self.consumers
            .iter()
            .enumerate()
            .filter(|(_, c)| brokers.contains(&c.broker))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn documents() -> Vec<XmlTree> {
        [
            "<media><CD><composer><last>Mozart</last></composer></CD></media>",
            "<media><CD><composer><last>Bach</last></composer></CD></media>",
            "<media><book><author><last>Austen</last></author></book></media>",
            "<media><book><author><last>Orwell</last></author></book></media>",
            "<media><magazine><title>Time</title></magazine></media>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect()
    }

    /// Producer at broker 0; CD fans on broker 1's side, book readers on
    /// broker 3's side, one broker (4) with nobody attached.
    fn network() -> BrokerNetwork {
        let mut network = BrokerNetwork::new(BrokerTopology::balanced_tree(5, 2));
        for (broker, name, pattern) in [
            (1, "cd-fan", "//CD"),
            (1, "classical", "//composer"),
            (3, "reader", "//book"),
            (3, "novels", "//author"),
            (2, "mozart", "//Mozart"),
        ] {
            network.attach(broker, name, TreePattern::parse(pattern).unwrap());
        }
        network
    }

    #[test]
    fn flooding_visits_every_link_for_every_document() {
        let network = network();
        let docs = documents();
        let stats = network.route_stream(0, &docs, ForwardingMode::Flooding);
        assert_eq!(
            stats.link_messages,
            docs.len() * network.topology().link_count()
        );
        assert_eq!(stats.recall(), 1.0);
        assert_eq!(stats.table_nodes, 0);
        assert!(stats.spurious_link_messages > 0);
    }

    #[test]
    fn exact_tables_only_forward_towards_interested_consumers() {
        let network = network();
        let docs = documents();
        let stats = network.route_stream(0, &docs, ForwardingMode::Table(TableMode::Exact));
        let flooding = network.route_stream(0, &docs, ForwardingMode::Flooding);
        assert!(stats.link_messages < flooding.link_messages);
        assert_eq!(stats.spurious_link_messages, 0);
        assert_eq!(stats.link_precision(), 1.0);
        assert_eq!(stats.recall(), 1.0);
        assert_eq!(stats.deliveries, flooding.deliveries);
    }

    #[test]
    fn all_table_modes_deliver_everything() {
        let network = network();
        let docs = documents();
        let exact = network.route_stream(0, &docs, ForwardingMode::Table(TableMode::Exact));
        for mode in ForwardingMode::all() {
            let stats = network.route_stream(0, &docs, mode);
            assert_eq!(stats.recall(), 1.0, "{} lost deliveries", mode.name());
            assert_eq!(stats.missed_deliveries, 0);
            assert_eq!(stats.deliveries, exact.deliveries, "{}", mode.name());
        }
    }

    #[test]
    fn pruned_and_aggregated_tables_are_smaller_than_exact() {
        let network = network();
        let exact = network.route_stream(0, &documents(), ForwardingMode::Table(TableMode::Exact));
        let pruned = network.route_stream(
            0,
            &documents(),
            ForwardingMode::Table(TableMode::ContainmentPruned),
        );
        let aggregated = network.route_stream(
            0,
            &documents(),
            ForwardingMode::Table(TableMode::Aggregated),
        );
        assert!(pruned.table_nodes <= exact.table_nodes);
        assert!(aggregated.table_nodes <= exact.table_nodes);
        // The aggregated table may forward spuriously but never less than
        // the exact table.
        assert!(aggregated.link_messages >= exact.link_messages);
    }

    #[test]
    fn compacted_tables_are_delivery_identical_and_report_compaction() {
        // `//composer` is contained in nothing here, but attach a redundant
        // subscription behind the same broker as its coverer.
        let mut network = network();
        network.attach(1, "cd-dup", TreePattern::parse("/media/CD").unwrap());
        let docs = documents();
        let exact = network.route_stream(0, &docs, ForwardingMode::Table(TableMode::Exact));
        let compacted = network.route_stream_compacted(
            0,
            &docs,
            ForwardingMode::Table(TableMode::Exact),
            &|_, _| None,
        );
        assert_eq!(compacted.deliveries, exact.deliveries);
        assert_eq!(compacted.missed_deliveries, 0);
        assert!(compacted.table_nodes < exact.table_nodes);
        assert!(compacted.compaction.pruned_entries() > 0);
        assert_eq!(
            exact.compaction.pruned_entries(),
            0,
            "exact tables keep everything: {:?}",
            exact.compaction
        );
        assert!(compacted.compaction.keep_ratio() < 1.0);
    }

    #[test]
    fn tables_cover_every_link_of_every_broker() {
        let network = network();
        let tables = network.build_tables(TableMode::Exact);
        assert_eq!(tables.len(), network.topology().broker_count());
        for (broker, table) in tables.iter().enumerate() {
            assert_eq!(
                table.link_count(),
                network.topology().neighbours(broker).len()
            );
        }
        // Broker 0's links lead to the CD side and the book side; each link
        // summary holds the subscriptions living behind it.
        let total_entries: usize = tables[0].entry_count();
        assert_eq!(total_entries, network.consumers().len());
    }

    #[test]
    fn producer_placement_changes_message_cost_but_not_deliveries() {
        let network = network();
        let docs = documents();
        let from_root = network.route_stream(0, &docs, ForwardingMode::Table(TableMode::Exact));
        let from_leaf = network.route_stream(4, &docs, ForwardingMode::Table(TableMode::Exact));
        assert_eq!(from_root.deliveries, from_leaf.deliveries);
        assert_ne!(from_root.link_messages, from_leaf.link_messages);
    }

    #[test]
    fn consumers_at_and_attach_validate_brokers() {
        let network = network();
        assert_eq!(network.consumers_at(1).len(), 2);
        assert_eq!(network.consumers_at(4).len(), 0);
        let result = std::panic::catch_unwind(|| {
            let mut n = BrokerNetwork::new(BrokerTopology::single());
            n.attach(3, "x", TreePattern::parse("//a").unwrap());
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_network_routes_with_no_deliveries() {
        let network = BrokerNetwork::new(BrokerTopology::chain(3));
        let stats = network.route_stream(1, &documents(), ForwardingMode::Table(TableMode::Exact));
        assert_eq!(stats.deliveries, 0);
        assert_eq!(stats.link_messages, 0);
        assert_eq!(stats.recall(), 1.0);
    }

    #[test]
    fn stats_rates_are_well_defined_for_empty_streams() {
        let network = network();
        let stats = network.route_stream(0, &[], ForwardingMode::Flooding);
        assert_eq!(stats.messages_per_document(), 0.0);
        assert_eq!(stats.matches_per_document(), 0.0);
        assert_eq!(stats.link_precision(), 1.0);
    }
}
