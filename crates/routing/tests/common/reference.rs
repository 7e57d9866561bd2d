// A brute-force router over a `BrokerNetwork`, kept as the independent
// reference the routing hop is tested against. It shares none of the hop's
// code: every consumer is matched with `TreePattern::matches`, the document
// walks the topology breadth-first and never goes back over the link it
// arrived on, and the subscribers behind a link are found by walking the
// subtree behind it. Its tables file those subscribers itself; only the
// summariser (`RoutingTable::build`, `RoutingTable::build_compacted`) is
// shared with the code under test.
//
// This file holds no inner attributes or inner doc comments, so a test of
// another crate can `include!` it.

use std::collections::VecDeque;

use tps_pattern::containment::ContainmentOracle;
use tps_pattern::TreePattern;
use tps_routing::{BrokerId, BrokerNetwork, ForwardingMode, RoutingTable, TableMode};
use tps_xml::XmlTree;

/// What the reference counts over a document stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    /// Local deliveries.
    pub deliveries: usize,
    /// Interested consumers the document never reached.
    pub missed_deliveries: usize,
    /// Messages over links.
    pub link_messages: usize,
    /// Link messages towards a subtree where no consumer is interested.
    pub spurious_link_messages: usize,
    /// One per local consumer at every broker reached, plus every pattern a
    /// link decision evaluated.
    pub match_operations: usize,
}

/// The consumers behind the link from `broker` to `next`, in id order: those
/// attached to a broker of the subtree that `next` roots away from `broker`.
fn behind(network: &BrokerNetwork, broker: BrokerId, next: BrokerId) -> Vec<usize> {
    let subtree = network.topology().subtree_brokers(next, broker);
    let consumers = network.consumers();
    (0..consumers.len())
        .filter(|&id| subtree.contains(&consumers[id].broker))
        .collect()
}

/// The tables a link decision of `mode` asks: none for flooding and for
/// uncompacted exact forwarding, which the reference decides itself. Else
/// broker `b`'s table holds, per link of `b`, the subscriptions behind the
/// link in id order, summarised with the mode — after the compaction
/// pre-pass when there is an `oracle`.
pub fn tables(
    network: &BrokerNetwork,
    mode: ForwardingMode,
    oracle: Option<&ContainmentOracle<'_>>,
) -> Option<Vec<RoutingTable>> {
    let mode = match mode {
        ForwardingMode::Flooding => return None,
        ForwardingMode::Table(TableMode::Exact) if oracle.is_none() => return None,
        ForwardingMode::Table(mode) => mode,
    };
    let topology = network.topology();
    let tables = topology
        .brokers()
        .map(|broker| {
            let per_link: Vec<Vec<TreePattern>> = topology
                .neighbours(broker)
                .iter()
                .map(|&next| {
                    behind(network, broker, next)
                        .into_iter()
                        .map(|id| network.consumers()[id].subscription.clone())
                        .collect()
                })
                .collect();
            match oracle {
                None => RoutingTable::build(&per_link, mode),
                Some(oracle) => RoutingTable::build_compacted(&per_link, mode, oracle),
            }
        })
        .collect();
    Some(tables)
}

/// Route `documents`, published at `producer`, through `network`. A link is
/// decided by broker `b`'s entry of `tables` when there are tables; else
/// flooding forwards over it, and exact forwarding scans the consumers
/// behind it in id order, evaluating each until the first that matches.
pub fn route(
    network: &BrokerNetwork,
    producer: BrokerId,
    documents: &[XmlTree],
    mode: ForwardingMode,
    tables: Option<&[RoutingTable]>,
) -> Counted {
    let topology = network.topology();
    let consumers = network.consumers();
    let mut counted = Counted::default();
    for document in documents {
        let interested: Vec<bool> = consumers
            .iter()
            .map(|consumer| consumer.subscription.matches(document))
            .collect();
        let mut delivered = 0;
        let mut queue: VecDeque<(BrokerId, Option<BrokerId>)> = VecDeque::from([(producer, None)]);
        while let Some((broker, from)) = queue.pop_front() {
            for (id, consumer) in consumers.iter().enumerate() {
                if consumer.broker == broker {
                    counted.match_operations += 1;
                    if interested[id] {
                        delivered += 1;
                    }
                }
            }
            for (link, &next) in topology.neighbours(broker).iter().enumerate() {
                if Some(next) == from {
                    continue;
                }
                let behind = behind(network, broker, next);
                let (forward, cost) = match (mode, tables) {
                    (ForwardingMode::Flooding, _) => (true, 0),
                    (_, Some(tables)) => tables[broker].link(link).matches(document),
                    (_, None) => {
                        let mut evaluated = 0;
                        let mut hit = false;
                        for &id in &behind {
                            evaluated += 1;
                            if consumers[id].subscription.matches(document) {
                                hit = true;
                                break;
                            }
                        }
                        (hit, evaluated)
                    }
                };
                counted.match_operations += cost;
                if forward {
                    counted.link_messages += 1;
                    if !behind.iter().any(|&id| interested[id]) {
                        counted.spurious_link_messages += 1;
                    }
                    queue.push_back((next, Some(broker)));
                }
            }
        }
        counted.deliveries += delivered;
        counted.missed_deliveries += interested.iter().filter(|&&i| i).count() - delivered;
    }
    counted
}
