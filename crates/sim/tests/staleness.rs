//! What a document in flight owes to consumers that come and go before it
//! arrives. Interest is frozen at publication, while each broker's local
//! consumers and the consumers behind its links are the current ones:
//!
//! * a consumer that departs after publication but before the document
//!   reaches it is a missed delivery, and a forward towards it made after
//!   it left is spurious;
//! * a consumer that arrives after publication is not owed the document,
//!   and a forward towards it is not useful.

use tps_pattern::TreePattern;
use tps_routing::{BrokerTopology, DeliveryMetrics};
use tps_sim::{ReclusterPolicy, SimConfig, SimStats, Simulation};
use tps_workload::{ChurnScenario, ScenarioAction, ScenarioEvent};
use tps_xml::XmlTree;

/// Broker 0 publishes at time 1 on the chain 0 - 1 - 2; a link takes 10
/// ticks, so the document is at broker 1 at time 11 and at broker 2 at
/// time 21. `churn` happens at time 5, while the document is on its first
/// link.
fn run(initial: &[(usize, &str)], churn: ScenarioAction, recluster: ReclusterPolicy) -> SimStats {
    let scenario = ChurnScenario {
        initial: initial
            .iter()
            .map(|&(broker, pattern)| (broker, TreePattern::parse(pattern).unwrap()))
            .collect(),
        events: vec![
            ScenarioEvent {
                time: 1,
                action: ScenarioAction::Publish {
                    document: XmlTree::parse("<media><CD/></media>").unwrap(),
                },
            },
            ScenarioEvent {
                time: 5,
                action: churn,
            },
        ],
    };
    let config = SimConfig {
        recluster,
        link_latency: 10,
        ..SimConfig::default()
    };
    Simulation::new(BrokerTopology::chain(3), config)
        .run(&scenario)
        .aggregate
}

#[test]
fn a_departure_in_flight_is_missed_and_its_forward_spurious() {
    let departs = || ScenarioAction::Unsubscribe { subscriber: 0 };
    // Broker 1's stale table still forwards towards the departed consumer.
    let never = run(&[(2, "//CD")], departs(), ReclusterPolicy::Never);
    assert_eq!(never.deliveries, 0);
    assert_eq!(never.missed_deliveries, 1, "owed at publication");
    assert_eq!(never.link_messages, 2);
    assert_eq!(
        never.spurious_link_messages, 1,
        "0 → 1 was decided before the departure, 1 → 2 after it"
    );
    // One entry looked up at brokers 0 and 1; broker 2 has no consumer left.
    assert_eq!(never.match_operations, 2);
    // A rebuilt table stops at broker 1, and the delivery is missed all
    // the same.
    let eager = run(&[(2, "//CD")], departs(), ReclusterPolicy::Eager);
    assert_eq!(eager.missed_deliveries, 1);
    assert_eq!(eager.link_messages, 1);
    assert_eq!(eager.spurious_link_messages, 0);
}

#[test]
fn an_arrival_in_flight_is_not_owed_the_document_nor_a_useful_forward() {
    let arrives = ScenarioAction::Subscribe {
        subscriber: 1,
        broker: 2,
        pattern: TreePattern::parse("//CD").unwrap(),
    };
    // The eager rebuild at the arrival routes 1 → 2 towards the newcomer.
    let stats = run(&[(1, "//CD")], arrives, ReclusterPolicy::Eager);
    assert_eq!(stats.deliveries, 1, "the consumer at broker 1 only");
    assert_eq!(stats.missed_deliveries, 0, "the newcomer is not owed it");
    assert_eq!(stats.recall(), 1.0);
    assert_eq!(stats.link_messages, 2);
    assert_eq!(stats.spurious_link_messages, 1, "1 → 2 is spurious");
    // Broker 0's lookup, broker 1's consumer and lookup, and the newcomer
    // filtered at broker 2.
    assert_eq!(stats.match_operations, 4);
}
