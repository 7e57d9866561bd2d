//! Multi-broker content-based routing over a tree overlay.
//!
//! Documents are published at a producer broker and forwarded over the
//! overlay using per-link routing tables ([`crate::table`]); every broker
//! delivers to its local consumers after exact local filtering. The
//! evaluation accounts for the two costs the paper's introduction discusses —
//! network messages on overlay links and pattern-match operations at brokers
//! — under four forwarding disciplines: flooding and the three table
//! summarisation modes.
//!
//! [`BrokerNetwork::route_stream`] is the plain-walk clock of the one
//! overlay view ([`crate::view`]): it builds an [`OverlayView`] of the
//! attached consumers, matches the whole subscription set once per
//! document, then walks the tree calling [`OverlayView::hop`] at every
//! broker the document reaches.

use tps_pattern::containment::ContainmentOracle;
use tps_pattern::TreePattern;
use tps_xml::XmlTree;

use crate::hop::{HopCounts, LinkRule};
use crate::impl_variant_name;
use crate::stats::{DeliveryMetrics, LinkMetrics, TableCompaction};
use crate::table::{RoutingTable, TableMode};
use crate::topology::{BrokerId, BrokerTopology};
use crate::view::OverlayView;

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

    /// Build the per-broker routing tables for the given summarisation mode.
    ///
    /// The table of broker `b` has one entry per link of `b`, summarising the
    /// subscriptions of every consumer attached to a broker behind that link.
    pub fn build_tables(&self, mode: TableMode) -> Vec<RoutingTable> {
        let view = self.view();
        let table = |broker| view.table(broker, mode, None);
        self.topology.brokers().map(table).collect()
    }

    /// The view of the attached consumers at every broker, each filed under
    /// its index.
    fn view(&self) -> OverlayView {
        let mut view = OverlayView::new(&self.topology, self.topology.brokers());
        for (consumer, attached) in self.consumers.iter().enumerate() {
            view.subscribe(
                consumer as u64,
                attached.broker,
                attached.subscription.clone(),
            );
        }
        view
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

    /// [`BrokerNetwork::route_stream`] over tables built with a compaction
    /// pre-pass: each link's subscription set is containment-pruned — the
    /// oracle extending the syntactic test — before the mode summarisation
    /// ([`RoutingTable::build_compacted`]). With the silent oracle this is
    /// delivery-identical to the uncompacted tables for every document
    /// stream; a DTD oracle preserves delivery on conforming streams.
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
        let mut view = self.view();
        // An uncompacted exact table is the place lists themselves, so none
        // is built. Every consumer lives behind one link of every other
        // broker: that is its size, summed over the place lists.
        let exact = mode == ForwardingMode::Table(TableMode::Exact) && oracle.is_none();
        let tables = match mode {
            ForwardingMode::Table(table_mode) if !exact => {
                let table = |broker| view.table(broker, table_mode, oracle);
                self.topology.brokers().map(table).collect()
            }
            _ => Vec::new(),
        };
        let (table_nodes, input_entries, kept_entries) = if exact {
            let others = self.topology.broker_count() - 1;
            let nodes = self.consumers.iter().map(|c| c.subscription.node_count());
            let entries = others * self.consumers.len();
            (others * nodes.sum::<usize>(), entries, entries)
        } else {
            let sum = |count: fn(&RoutingTable) -> usize| tables.iter().map(count).sum();
            let nodes = sum(RoutingTable::node_count);
            (
                nodes,
                sum(RoutingTable::input_count),
                sum(RoutingTable::entry_count),
            )
        };

        // One walk of the shared step forest per document gives its
        // interest set; the hop at each broker it reaches reads the rest off
        // that set and the broker's place lists. The overlay is a tree and
        // no hop sends a document back, so no broker sees it twice.
        let mut counts = HopCounts::default();
        let mut missed_deliveries = 0;
        let mut pending: Vec<(BrokerId, Option<BrokerId>)> = Vec::new();
        let mut interest: Vec<u64> = Vec::new();
        for document in documents {
            interest.clear();
            interest.extend_from_slice(view.interest_tree(document));
            let delivered = counts.deliveries;
            pending.push((producer, None));
            while let Some((broker, from)) = pending.pop() {
                let rule = match mode {
                    ForwardingMode::Flooding => LinkRule::Flooding,
                    _ if exact => LinkRule::Exact,
                    ForwardingMode::Table(_) => LinkRule::Table(&tables[broker], document),
                };
                let outcome = view.hop(broker, &interest, from, rule, &mut counts);
                pending.extend(outcome.forwards.iter().map(|&next| (next, Some(broker))));
            }
            missed_deliveries += interest.len() - (counts.deliveries - delivered);
        }
        NetworkStats {
            documents: documents.len(),
            brokers: self.topology.broker_count(),
            consumers: self.consumers.len(),
            link_messages: counts.link_messages,
            spurious_link_messages: counts.spurious_link_messages,
            match_operations: counts.match_operations,
            deliveries: counts.deliveries,
            missed_deliveries,
            table_nodes,
            compaction: TableCompaction {
                input_entries,
                kept_entries,
            },
        }
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
    fn attach_validates_brokers() {
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
