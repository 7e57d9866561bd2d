//! `BrokerNetwork::route_stream` — one match per document and the shared
//! routing hop at every broker — counts exactly what a brute-force
//! reference counts: per-consumer `TreePattern::matches`, a breadth-first
//! walk of the topology, and first-hit costs from scanning the consumers
//! behind each link in id order.

use proptest::prelude::*;
use tps_pattern::containment::ContainmentOracle;
use tps_pattern::TreePattern;
use tps_routing::{BrokerNetwork, BrokerTopology, ForwardingMode, NetworkStats};
use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};
use tps_xml::XmlTree;

#[path = "common/reference.rs"]
mod reference;

use reference::Counted;

fn counted(stats: &NetworkStats) -> Counted {
    Counted {
        deliveries: stats.deliveries,
        missed_deliveries: stats.missed_deliveries,
        link_messages: stats.link_messages,
        spurious_link_messages: stats.spurious_link_messages,
        match_operations: stats.match_operations,
    }
}

/// `subscriptions` generated media patterns, the i-th attached at
/// `attach[i]` (modulo the broker count), and six generated documents.
fn workload(
    topology: BrokerTopology,
    seed: u64,
    subscriptions: usize,
    attach: &[usize],
) -> (BrokerNetwork, Vec<XmlTree>) {
    let dtd = Dtd::media();
    let patterns = XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(seed))
        .generate_many(subscriptions);
    let brokers = topology.broker_count();
    let mut network = BrokerNetwork::new(topology);
    for (i, pattern) in patterns.into_iter().enumerate() {
        network.attach(attach[i] % brokers, format!("c{i}"), pattern);
    }
    let config = DocGenConfig::default()
        .with_seed(seed ^ 0xd0c5)
        .with_target_tag_pairs(30);
    let documents = DocumentGenerator::new(&dtd, config).generate_many(6);
    (network, documents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn route_stream_counts_what_the_reference_counts(
        seed in any::<u64>(),
        subscriptions in 0usize..=40,
        attach in proptest::collection::vec(0usize..7, 40),
        producer in 0usize..7,
    ) {
        for topology in [BrokerTopology::balanced_tree(7, 2), BrokerTopology::chain(5)] {
            let producer = producer % topology.broker_count();
            let (network, documents) = workload(topology, seed, subscriptions, &attach);
            for mode in ForwardingMode::all() {
                let tables = reference::tables(&network, mode, None);
                let expected =
                    reference::route(&network, producer, &documents, mode, tables.as_deref());
                let routed = network.route_stream(producer, &documents, mode);
                prop_assert_eq!(counted(&routed), expected, "{}", mode.name());
                prop_assert_eq!(expected.missed_deliveries, 0);

                if let ForwardingMode::Table(_) = mode {
                    let silent: &ContainmentOracle =
                        &|_: &TreePattern, _: &TreePattern| -> Option<bool> { None };
                    let compacted = reference::tables(&network, mode, Some(silent));
                    let expected =
                        reference::route(&network, producer, &documents, mode, compacted.as_deref());
                    let routed = network.route_stream_compacted(producer, &documents, mode, silent);
                    prop_assert_eq!(counted(&routed), expected, "compacted {}", mode.name());
                }
            }
        }
    }
}
