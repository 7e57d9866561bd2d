//! Reference results the program's outputs are held against. Every miss is
//! a failed operation.

use tps_net::BrokerStats;
use tps_pattern::TreePattern;
use tps_routing::{BrokerNetwork, BrokerTopology, ForwardingMode, NetworkStats, TableMode};

use crate::inputs::Inputs;
use crate::live::{BROKERS, PROBE_BROKER, PRODUCER_BROKER};

/// Checks made and checks missed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted or facts checked.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
}

impl Tally {
    /// Count one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("oracle: FAILED {what}");
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("oracle: FAILED {failed} of {attempted} {what}");
        }
    }
}

/// The static network holding the view a zero-churn rig was set up with,
/// attached in the brokers' own order (subscriber id): the probe first.
pub fn static_network(inputs: &Inputs) -> BrokerNetwork {
    let mut network = BrokerNetwork::new(BrokerTopology::balanced_tree(BROKERS, 2));
    // invariant: the probe text is "/<root element>", generated here.
    let probe = TreePattern::parse(&inputs.probe).expect("probe pattern parses");
    network.attach(PROBE_BROKER, "probe", probe);
    for (i, pattern) in inputs.subscriptions.iter().enumerate() {
        network.attach(i % BROKERS, "standing", pattern.clone());
    }
    network
}

/// What `BrokerNetwork::route_stream` counts for the first `published`
/// documents of the round-robin over the pool: whole rounds are evaluated
/// once and multiplied.
pub fn expected_counters(inputs: &Inputs, published: usize) -> [u64; 4] {
    let network = static_network(inputs);
    let mode = ForwardingMode::Table(TableMode::Exact);
    let pool = inputs.trees.len();
    let counters = |stats: NetworkStats| {
        [
            stats.deliveries as u64,
            stats.link_messages as u64,
            stats.spurious_link_messages as u64,
            stats.match_operations as u64,
        ]
    };
    let rounds = (published / pool) as u64;
    let rest = published % pool;
    let mut total = [0; 4];
    if rounds > 0 {
        let round = counters(network.route_stream(PRODUCER_BROKER, &inputs.trees, mode));
        for (t, r) in total.iter_mut().zip(round) {
            *t += rounds * r;
        }
    }
    if rest > 0 {
        let tail = counters(network.route_stream(PRODUCER_BROKER, &inputs.trees[..rest], mode));
        for (t, r) in total.iter_mut().zip(tail) {
            *t += r;
        }
    }
    total
}

/// The same four counters, summed over the settled brokers.
pub fn summed_counters(stats: &[BrokerStats]) -> [u64; 4] {
    let sum = |f: fn(&BrokerStats) -> u64| stats.iter().map(f).sum::<u64>();
    [
        sum(|s| s.deliveries),
        sum(|s| s.link_messages),
        sum(|s| s.spurious_link_messages),
        sum(|s| s.match_operations),
    ]
}

/// Zero-churn check: the live overlay counted exactly what the static
/// evaluation counts, dropped nothing and refused nothing.
pub fn check_counters(tally: &mut Tally, inputs: &Inputs, published: usize, stats: &[BrokerStats]) {
    let expected = expected_counters(inputs, published);
    let counted = summed_counters(stats);
    let names = [
        "deliveries",
        "link_messages",
        "spurious_link_messages",
        "match_operations",
    ];
    for ((name, expected), counted) in names.iter().zip(expected).zip(counted) {
        tally.check(
            expected == counted,
            &format!("{name}: route_stream counts {expected}, the brokers counted {counted}"),
        );
    }
    check_links(tally, stats);
}

/// Link accounting that holds with or without churn: every document sent
/// over a link arrived or was counted as dropped, none was dropped, no
/// request was refused, and every broker holds the same number of consumers.
pub fn check_links(tally: &mut Tally, stats: &[BrokerStats]) {
    let sum = |f: fn(&BrokerStats) -> u64| stats.iter().map(f).sum::<u64>();
    let sent = sum(|s| s.link_messages);
    let arrived = sum(|s| s.forwards_received);
    let dropped = sum(|s| s.forwards_dropped);
    tally.check(
        sent == arrived + dropped,
        &format!("sent {sent} = received {arrived} + dropped {dropped}"),
    );
    tally.check(dropped == 0, &format!("forwards_dropped = {dropped}"));
    let errors = sum(|s| s.errors);
    tally.check(errors == 0, &format!("broker error replies = {errors}"));
    let consumers: Vec<u64> = stats.iter().map(|s| s.consumers).collect();
    tally.check(
        stats.len() == BROKERS && consumers.windows(2).all(|w| w[0] == w[1]),
        &format!("consumer views agree: {consumers:?}"),
    );
}
