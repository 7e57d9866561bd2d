//! The broker state machine, free of any I/O.
//!
//! [`BrokerCore`] holds everything one broker knows — the overlay-wide
//! subscription view (subscriptions are flooded over the tree overlay, so
//! every broker converges on the same view), its own routing table built
//! by the static `tps-routing` constructor over that view, the traffic
//! synopsis fed through the zero-copy `tps_xml::scan` ingest path, and the
//! index-backed online community clustering. The server layer
//! ([`crate::server`]) feeds it decoded messages and ships out whatever it
//! returns; keeping the core pure makes the conformance argument local:
//! `BrokerCore::route` mirrors `BrokerNetwork::route_one` /
//! `tps_sim::Simulation::process_hop` decision for decision and counter
//! for counter, so summing [`BrokerStats`] across a churn-free overlay
//! reproduces the simulator's and the static evaluation's numbers exactly.
//!
//! A document is matched against the whole view **once** per broker, by the
//! shared step forest [`PatternSet`]; local delivery, exact-table link
//! decisions, first-hit cost and spurious accounting are all read off that
//! one interest set (docs/NET.md, "One pass per document").

use std::collections::BTreeMap;

use tps_analyze::{Severity, WorkloadAnalyzer, WorkloadEntry};
use tps_cluster::{LeaderConfig, OnlineLeader};
use tps_pattern::{PatternSet, TreePattern};
use tps_routing::{
    BrokerId, BrokerNetwork, BrokerTopology, ForwardingMode, RoutingTable, TableMode,
};
use tps_synopsis::{IngestTarget, Synopsis};
use tps_xml::XmlTree;

use crate::codec::{BrokerStats, ErrorCode, FrameLimits, SyncConsumer};
use crate::overlay::OverlayConfig;

/// One consumer of the overlay-wide subscription view.
#[derive(Debug, Clone)]
pub struct NetConsumer {
    /// The broker the consumer is attached to.
    pub broker: BrokerId,
    /// The subscription.
    pub pattern: TreePattern,
    /// Slot in the online community clustering (dense per broker, in
    /// insertion order — a per-broker detail, never on the wire).
    slot: u32,
}

/// What a broker decided to do with one document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Local subscribers the document matched (deliver to their
    /// connections, if any are attached here).
    pub deliveries: Vec<u64>,
    /// Neighbour brokers the document must be forwarded to.
    pub forwards: Vec<BrokerId>,
}

/// The pure per-broker state machine.
#[derive(Debug)]
pub struct BrokerCore {
    id: BrokerId,
    topology: BrokerTopology,
    forwarding: ForwardingMode,
    lint: bool,
    consumers: BTreeMap<u64, NetConsumer>,
    /// The patterns of `consumers` under their subscriber ids, kept current
    /// by `install` and `unsubscribe`: one walk of a document yields the
    /// subscribers it interests.
    matcher: PatternSet,
    synopsis: Synopsis,
    leader: Option<OnlineLeader>,
    next_slot: u32,
    /// The summarised table of the compressed table modes. `Table(Exact)`
    /// keeps none: its per-link entries are the consumers behind the link,
    /// so its decisions are read off the interest set.
    table: Option<RoutingTable>,
    tables_stale: bool,
    /// `place_of[b]`: where a consumer attached to broker `b` is filed in
    /// `places` — the link of this broker that `b` lives behind, or one
    /// past the last link for this broker itself. Precomputed once.
    place_of: Vec<usize>,
    /// The subscriber ids of the view by place, each list ascending: one
    /// per link (who is behind it), then the local consumers. A link's list
    /// is its exact table in entry order, so a subscriber's position in it
    /// is what a first-hit scan evaluates before reaching it.
    places: Vec<Vec<u64>>,
    // Scratch of `route`, one slot per place and per link, kept so that
    // routing a document allocates nothing here.
    cursors: Vec<usize>,
    first_hits: Vec<Option<usize>>,
    stats: BrokerStats,
}

impl BrokerCore {
    /// A broker with an empty subscription view.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a broker of the overlay topology.
    pub fn new(id: BrokerId, config: &OverlayConfig) -> Self {
        assert!(
            id < config.topology.broker_count(),
            "broker {id} does not exist in the overlay"
        );
        let partitions = config.topology.link_partitions(id);
        let mut place_of = vec![partitions.len(); config.topology.broker_count()];
        for (link, subtree) in partitions.iter().enumerate() {
            for &broker in subtree {
                place_of[broker] = link;
            }
        }
        Self {
            id,
            topology: config.topology.clone(),
            forwarding: config.forwarding,
            lint: config.lint,
            consumers: BTreeMap::new(),
            matcher: PatternSet::new(),
            synopsis: Synopsis::new(config.synopsis),
            leader: config
                .index
                .map(|lsh| OnlineLeader::new(lsh, LeaderConfig::default())),
            next_slot: 0,
            table: None,
            tables_stale: false,
            place_of,
            places: vec![Vec::new(); partitions.len() + 1],
            cursors: vec![0; partitions.len() + 1],
            first_hits: vec![None; partitions.len()],
            stats: BrokerStats {
                broker: id as u32,
                ..BrokerStats::default()
            },
        }
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// The overlay topology.
    pub fn topology(&self) -> &BrokerTopology {
        &self.topology
    }

    /// The overlay-wide consumer view, keyed by subscriber id.
    pub fn consumers(&self) -> &BTreeMap<u64, NetConsumer> {
        &self.consumers
    }

    /// Attach a subscriber. Returns `Ok(true)` when the view changed (the
    /// control message must be flooded on), `Ok(false)` for an exact
    /// duplicate (flooding stops — this is what terminates the control
    /// broadcast on the tree overlay).
    pub fn subscribe(
        &mut self,
        subscriber: u64,
        broker: u32,
        pattern_text: &str,
    ) -> Result<bool, (ErrorCode, String)> {
        self.install(subscriber, broker, pattern_text, self.lint)
    }

    /// Install a subscription that was *already accepted* elsewhere — a
    /// flood-received control frame or a rejoin resync replay. Identical
    /// to [`BrokerCore::subscribe`] except the lint pre-pass never runs:
    /// lint is a client-facing admission check at the home broker; once a
    /// subscription is in the overlay, every broker must converge on it or
    /// views would diverge.
    pub fn restore(
        &mut self,
        subscriber: u64,
        broker: u32,
        pattern_text: &str,
    ) -> Result<bool, (ErrorCode, String)> {
        self.install(subscriber, broker, pattern_text, false)
    }

    fn install(
        &mut self,
        subscriber: u64,
        broker: u32,
        pattern_text: &str,
        lint: bool,
    ) -> Result<bool, (ErrorCode, String)> {
        let broker = broker as BrokerId;
        if broker >= self.topology.broker_count() {
            self.stats.errors += 1;
            return Err((
                ErrorCode::UnknownBroker,
                format!(
                    "broker {broker} does not exist ({} brokers)",
                    self.topology.broker_count()
                ),
            ));
        }
        let pattern = TreePattern::parse(pattern_text).map_err(|e| {
            self.stats.errors += 1;
            (ErrorCode::BadPattern, e.to_string())
        })?;
        if let Some(existing) = self.consumers.get(&subscriber) {
            if existing.broker == broker && existing.pattern == pattern {
                return Ok(false);
            }
            self.stats.errors += 1;
            return Err((
                ErrorCode::DuplicateSubscriber,
                format!(
                    "subscriber {subscriber} is already attached at broker {}",
                    existing.broker
                ),
            ));
        }
        if lint {
            self.lint_check(subscriber, &pattern)?;
        }
        let slot = match self.leader.as_mut() {
            Some(leader) => leader.insert_estimated(&pattern),
            None => {
                let slot = self.next_slot;
                self.next_slot += 1;
                slot
            }
        };
        self.matcher.insert(subscriber, &pattern);
        let place = &mut self.places[self.place_of[broker]];
        // invariant: `consumers` does not hold the subscriber (checked
        // above), so neither does its place.
        let position = place.binary_search(&subscriber).unwrap_or_else(|free| free);
        place.insert(position, subscriber);
        if self.exact_table() && broker != self.id {
            self.stats.table_nodes += pattern.node_count() as u64;
        }
        self.consumers.insert(
            subscriber,
            NetConsumer {
                broker,
                pattern,
                slot,
            },
        );
        self.tables_stale = true;
        Ok(true)
    }

    /// Reject subscriptions the static analyzer proves redundant against
    /// the current view (`W002` containment / `W003` duplicate pointing at
    /// the new pattern) or outright erroneous. The analysis is purely
    /// syntactic (no DTD on the broker), so every rejection is sound for
    /// arbitrary documents.
    fn lint_check(
        &mut self,
        subscriber: u64,
        pattern: &TreePattern,
    ) -> Result<(), (ErrorCode, String)> {
        let mut entries: Vec<WorkloadEntry> = self
            .consumers
            .values()
            .map(|c| WorkloadEntry::from_pattern(&c.pattern))
            .collect();
        let new_index = entries.len();
        entries.push(WorkloadEntry::from_pattern(pattern));
        let report = WorkloadAnalyzer::new(None).analyze(&entries);
        for diagnostic in &report.diagnostics {
            if diagnostic.pattern_index != new_index {
                continue;
            }
            let redundant = !diagnostic.related.is_empty();
            if diagnostic.severity() == Severity::Error || redundant {
                self.stats.errors += 1;
                return Err((
                    ErrorCode::LintRejected,
                    format!(
                        "lint pre-pass rejected subscriber {subscriber}: {} {}",
                        diagnostic.code, diagnostic.message
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Detach a subscriber. Returns whether the view changed (double
    /// departures stop the control flood, like duplicate subscribes).
    pub fn unsubscribe(&mut self, subscriber: u64) -> bool {
        match self.consumers.remove(&subscriber) {
            Some(consumer) => {
                if let Some(leader) = self.leader.as_mut() {
                    leader.remove_estimated(consumer.slot);
                }
                self.matcher.remove(subscriber, &consumer.pattern);
                let place = &mut self.places[self.place_of[consumer.broker]];
                if let Ok(position) = place.binary_search(&subscriber) {
                    place.remove(position);
                }
                if self.exact_table() && consumer.broker != self.id {
                    self.stats.table_nodes -= consumer.pattern.node_count() as u64;
                }
                self.tables_stale = true;
                true
            }
            None => false,
        }
    }

    /// Publish raw document bytes at this broker: the bytes are folded
    /// into the traffic synopsis through the zero-copy scanner path
    /// (`Synopsis::ingest_bytes_as` — no tree is materialised on that
    /// path), then parsed once for routing.
    pub fn publish(&mut self, bytes: &[u8]) -> Result<RouteOutcome, (ErrorCode, String)> {
        let doc = self.synopsis.next_doc_id();
        if let Err(error) = self.synopsis.ingest_bytes_as(bytes, doc) {
            self.stats.errors += 1;
            return Err((ErrorCode::BadDocument, error.to_string()));
        }
        // invariant: the scanner accepted the bytes, so they are UTF-8 and
        // the tree parser (error-for-error equal to the scanner) accepts
        // them too.
        let text = std::str::from_utf8(bytes).expect("scanner enforces UTF-8");
        let document = XmlTree::parse(text).expect("scanner/parser parity");
        self.stats.documents += 1;
        Ok(self.route(&document, None))
    }

    /// A document arrived in a forward batch from neighbour `from`. The
    /// publishing broker already validated and observed it, so it is only
    /// parsed for routing here; bytes that fail anyway (a byzantine peer)
    /// are dropped with an error count rather than poisoning the broker.
    pub fn forward_in(&mut self, from: BrokerId, bytes: &[u8]) -> Option<RouteOutcome> {
        self.stats.forwards_received += 1;
        let text = match std::str::from_utf8(bytes) {
            Ok(text) => text,
            Err(_) => {
                self.stats.errors += 1;
                return None;
            }
        };
        match XmlTree::parse(text) {
            Ok(document) => Some(self.route(&document, Some(from))),
            Err(_) => {
                self.stats.errors += 1;
                None
            }
        }
    }

    /// Whether forwarding runs on an exact table: every consumer behind a
    /// link is an entry of it, in subscriber order.
    fn exact_table(&self) -> bool {
        self.forwarding == ForwardingMode::Table(TableMode::Exact)
    }

    /// Route one document at this broker, mirroring
    /// `BrokerNetwork::route_one` exactly: exact local filtering (one match
    /// operation per local consumer), a table lookup per outgoing link with
    /// first-hit cost accounting, and never sending a document back over
    /// the link it arrived on.
    ///
    /// The document is matched once. Local delivery and every link's
    /// interest are then lookups of the interested subscribers in `places`.
    fn route(&mut self, document: &XmlTree, from: Option<BrokerId>) -> RouteOutcome {
        let summarised = matches!(self.forwarding, ForwardingMode::Table(_)) && !self.exact_table();
        // A summarised table must exist before the per-link loop below —
        // even for an empty view, which builds a valid match-nothing table.
        if summarised && (self.tables_stale || self.table.is_none()) {
            self.rebuild_table();
        }
        let mut outcome = RouteOutcome::default();
        let interested = self.matcher.matches(document);
        let neighbours = self.topology.neighbours(self.id);

        // Every interested subscriber is filed in exactly one place, and the
        // interest set and the place lists are all ascending: one merging
        // pass with a cursor per place finds the local deliveries and, for
        // each outgoing link, its first interested consumer as a position
        // among the link's entries. A link is ranked once; later subscribers
        // behind it are only told apart from the local ones.
        let links = neighbours.len();
        let Self {
            places,
            cursors,
            first_hits,
            ..
        } = self;
        cursors.fill(0);
        first_hits.fill(None);
        'interested: for &subscriber in interested {
            let local = &places[links];
            cursors[links] = seek(local, cursors[links], subscriber);
            if local.get(cursors[links]) == Some(&subscriber) {
                outcome.deliveries.push(subscriber);
                continue;
            }
            for (link, &neighbour) in neighbours.iter().enumerate() {
                if first_hits[link].is_some() || Some(neighbour) == from {
                    continue;
                }
                let behind = &places[link];
                cursors[link] = seek(behind, cursors[link], subscriber);
                if behind.get(cursors[link]) == Some(&subscriber) {
                    first_hits[link] = Some(cursors[link]);
                    continue 'interested;
                }
            }
        }

        // Local delivery: every local consumer is decided, in subscriber
        // order (the view is independent of the control flood's arrival
        // order).
        self.stats.match_operations += self.places[links].len() as u64;
        self.stats.deliveries += outcome.deliveries.len() as u64;

        // Forwarding decision per outgoing link.
        for (link, &neighbour) in neighbours.iter().enumerate() {
            if Some(neighbour) == from {
                continue;
            }
            let behind = &self.places[link];
            let first_hit = self.first_hits[link];
            let (chosen, cost) = match self.forwarding {
                ForwardingMode::Flooding => (true, 0),
                // A first-hit scan of the exact table stops at that entry,
                // or runs through all of them.
                ForwardingMode::Table(TableMode::Exact) => (
                    first_hit.is_some(),
                    first_hit.map_or(behind.len(), |p| p + 1),
                ),
                ForwardingMode::Table(_) => {
                    // invariant: rebuild_table ran above whenever the
                    // summarised table was missing or stale.
                    let table = self
                        .table
                        .as_ref()
                        .expect("summarised forwarding has a table");
                    table.link(link).matches(document)
                }
            };
            self.stats.match_operations += cost as u64;
            if chosen {
                self.stats.link_messages += 1;
                // A forward is spurious when no consumer behind the link
                // is interested — pure observability, never a match
                // operation, same as the frozen ground-truth interest of
                // the simulator and the static evaluation.
                if first_hit.is_none() {
                    self.stats.spurious_link_messages += 1;
                }
                outcome.forwards.push(neighbour);
            }
        }
        outcome
    }

    /// Rebuild the summarised table of a compressed table mode from the
    /// current view, through the static `BrokerNetwork` constructor — so a
    /// churn-free overlay is table-identical to a batch evaluation by
    /// construction. `Table(Exact)` never comes here: its `table_nodes` is a
    /// running sum and its decisions come from the interest set.
    fn rebuild_table(&mut self) {
        if let ForwardingMode::Table(mode) = self.forwarding {
            let mut network = BrokerNetwork::new(self.topology.clone());
            for consumer in self.consumers.values() {
                network.attach(consumer.broker, "net", consumer.pattern.clone());
            }
            let mut tables = network.build_tables(mode);
            // invariant: build_tables returns one table per broker of the
            // topology, and `id` was validated by the constructor.
            let table = tables.swap_remove(self.id);
            self.stats.table_nodes = table.node_count() as u64;
            self.table = Some(table);
            self.stats.table_rebuilds += 1;
        }
        self.tables_stale = false;
    }

    /// Current counters (consumer and community gauges refreshed).
    pub fn stats(&mut self) -> BrokerStats {
        self.stats.consumers = self.consumers.len() as u64;
        self.stats.communities = match &self.leader {
            Some(leader) => leader.cluster_count() as u64,
            None => 0,
        };
        self.stats
    }

    /// Dump the consumer view for a rejoining peer, in subscriber order.
    pub fn sync_state(&self) -> Vec<SyncConsumer> {
        self.consumers
            .iter()
            .map(|(&subscriber, consumer)| SyncConsumer {
                subscriber,
                broker: consumer.broker as u32,
                pattern: consumer.pattern.to_string(),
            })
            .collect()
    }

    /// The frame limits subscriptions and documents are checked against
    /// when they come off the wire (the core itself is size-agnostic).
    pub fn limits(&self) -> FrameLimits {
        FrameLimits::default()
    }
}

/// The first position at or after `from` of ascending `list` whose value is
/// at least `target`, found by galloping: a merge that costs the logarithm of
/// each gap it skips rather than its length.
fn seek(list: &[u64], from: usize, target: u64) -> usize {
    let mut low = from;
    let mut step = 1;
    while low + step < list.len() && list[low + step] < target {
        low += step;
        step *= 2;
    }
    let high = (low + step + 1).min(list.len());
    low + list[low..high].partition_point(|&value| value < target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_routing::{NetworkStats, TableMode};

    fn config(brokers: usize) -> OverlayConfig {
        OverlayConfig {
            topology: BrokerTopology::balanced_tree(brokers, 2),
            ..OverlayConfig::default()
        }
    }

    fn doc(text: &str) -> Vec<u8> {
        text.as_bytes().to_vec()
    }

    #[test]
    fn seek_finds_what_a_binary_search_of_the_rest_finds() {
        let list: Vec<u64> = (0..200).map(|i| i * i / 7 + i).collect();
        for from in [0, 1, 17, 199, 200] {
            for target in 0..list[199] + 3 {
                let expected = from + list[from..].partition_point(|&value| value < target);
                assert_eq!(seek(&list, from, target), expected, "{from} {target}");
            }
        }
        assert_eq!(seek(&[], 0, 5), 0);
    }

    #[test]
    fn subscribe_validates_broker_and_pattern() {
        let mut core = BrokerCore::new(0, &config(3));
        assert_eq!(core.subscribe(0, 1, "//CD"), Ok(true));
        assert_eq!(
            core.subscribe(0, 1, "//CD"),
            Ok(false),
            "duplicate is idempotent"
        );
        let err = core.subscribe(0, 2, "//book").unwrap_err();
        assert_eq!(err.0, ErrorCode::DuplicateSubscriber);
        let err = core.subscribe(1, 9, "//book").unwrap_err();
        assert_eq!(err.0, ErrorCode::UnknownBroker);
        let err = core.subscribe(1, 1, "///").unwrap_err();
        assert_eq!(err.0, ErrorCode::BadPattern);
    }

    #[test]
    fn publish_with_an_empty_view_forwards_nowhere() {
        // Regression: publishing before the first subscription used to
        // panic in table mode (no table had ever been built).
        let mut core = BrokerCore::new(0, &OverlayConfig::default());
        let outcome = core.publish(&doc("<media><CD/></media>")).unwrap();
        assert_eq!(outcome, RouteOutcome::default());
        let outcome = core.forward_in(1, &doc("<media><CD/></media>")).unwrap();
        assert_eq!(outcome, RouteOutcome::default());
        let stats = core.stats();
        assert_eq!(stats.documents, 1);
        assert_eq!(stats.link_messages, 0);
    }

    #[test]
    fn publish_delivers_locally_and_decides_forwards_by_table() {
        let mut core = BrokerCore::new(0, &config(3));
        core.subscribe(0, 0, "//CD").unwrap();
        core.subscribe(1, 1, "//book").unwrap();
        let outcome = core.publish(&doc("<media><CD/></media>")).unwrap();
        assert_eq!(outcome.deliveries, vec![0]);
        assert_eq!(outcome.forwards, Vec::<BrokerId>::new());
        let outcome = core.publish(&doc("<media><book/></media>")).unwrap();
        assert_eq!(outcome.deliveries, Vec::<u64>::new());
        assert_eq!(outcome.forwards, vec![1]);
        let stats = core.stats();
        assert_eq!(stats.documents, 2);
        assert_eq!(stats.deliveries, 1);
        assert_eq!(stats.link_messages, 1);
        assert_eq!(stats.spurious_link_messages, 0);
    }

    #[test]
    fn forward_in_never_returns_over_the_arrival_link() {
        let mut core = BrokerCore::new(1, &config(3));
        // Broker 1's only neighbour in a 3-broker balanced tree is 0.
        core.subscribe(0, 1, "//CD").unwrap();
        let outcome = core.forward_in(0, &doc("<media><CD/></media>")).unwrap();
        assert_eq!(outcome.deliveries, vec![0]);
        assert_eq!(outcome.forwards, Vec::<BrokerId>::new());
        assert_eq!(core.stats().forwards_received, 1);
        assert_eq!(core.stats().documents, 0, "forwards are not publications");
    }

    #[test]
    fn bad_documents_are_typed_errors_and_roll_back() {
        let mut core = BrokerCore::new(0, &config(3));
        let err = core.publish(b"<open>").unwrap_err();
        assert_eq!(err.0, ErrorCode::BadDocument);
        let err = core.publish(&[0xff, 0xfe]).unwrap_err();
        assert_eq!(err.0, ErrorCode::BadDocument);
        let stats = core.stats();
        assert_eq!(stats.documents, 0);
        assert_eq!(stats.errors, 2);
    }

    #[test]
    fn flooding_forwards_everywhere_except_back() {
        let mut core = BrokerCore::new(
            0,
            &OverlayConfig {
                topology: BrokerTopology::balanced_tree(3, 2),
                forwarding: ForwardingMode::Flooding,
                ..OverlayConfig::default()
            },
        );
        let outcome = core.forward_in(1, &doc("<a/>")).unwrap();
        assert_eq!(outcome.forwards, vec![2]);
    }

    #[test]
    fn lint_pre_pass_rejects_redundant_subscriptions() {
        let mut core = BrokerCore::new(
            0,
            &OverlayConfig {
                topology: BrokerTopology::balanced_tree(3, 2),
                lint: true,
                ..OverlayConfig::default()
            },
        );
        core.subscribe(0, 1, "//CD").unwrap();
        let err = core.subscribe(1, 2, "/media/CD").unwrap_err();
        assert_eq!(err.0, ErrorCode::LintRejected);
        // A non-redundant subscription still goes through.
        assert_eq!(core.subscribe(2, 2, "//book"), Ok(true));
    }

    #[test]
    fn sync_state_round_trips_the_view() {
        let mut core = BrokerCore::new(0, &config(3));
        core.subscribe(3, 1, "//CD").unwrap();
        core.subscribe(1, 2, "//book").unwrap();
        let dump = core.sync_state();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].subscriber, 1, "dump is in subscriber order");
        let mut rejoined = BrokerCore::new(1, &config(3));
        for entry in &dump {
            rejoined
                .subscribe(entry.subscriber, entry.broker, &entry.pattern)
                .unwrap();
        }
        assert_eq!(rejoined.consumers().len(), 2);
    }

    #[test]
    fn aggregated_over_forwarding_is_counted_spurious_from_the_interest_set() {
        // The aggregate of broker 1's two subscriptions admits far more
        // than either: documents are forwarded towards consumers none of
        // which wants them.
        let forwarding = ForwardingMode::Table(TableMode::Aggregated);
        let mut core = BrokerCore::new(
            0,
            &OverlayConfig {
                topology: BrokerTopology::balanced_tree(3, 2),
                forwarding,
                ..OverlayConfig::default()
            },
        );
        let mut network = BrokerNetwork::new(BrokerTopology::balanced_tree(3, 2));
        for (subscriber, pattern) in ["//CD/title", "//CD/composer"].iter().enumerate() {
            core.subscribe(subscriber as u64, 1, pattern).unwrap();
            network.attach(1, "static", TreePattern::parse(pattern).unwrap());
        }
        let docs = [
            "<media><CD><year>1781</year></CD></media>",
            "<media><CD><title>Requiem</title></CD></media>",
            "<media><book/></media>",
        ];
        let mut forwards = Vec::new();
        for text in docs {
            forwards.push(core.publish(text.as_bytes()).unwrap().forwards);
        }
        assert_eq!(forwards, [vec![1], vec![1], vec![1]]);
        let stats = core.stats();
        assert_eq!(stats.link_messages, 3);
        assert_eq!(stats.spurious_link_messages, 2);
        assert_eq!(stats.table_rebuilds, 1, "one summarised table, built once");
        // Broker 1 is a leaf: the static evaluation's link counters are all
        // broker 0's.
        let parsed: Vec<XmlTree> = docs.iter().map(|d| XmlTree::parse(d).unwrap()).collect();
        let expected = network.route_stream(0, &parsed, forwarding);
        assert_eq!(stats.link_messages, expected.link_messages as u64);
        assert_eq!(
            stats.spurious_link_messages,
            expected.spurious_link_messages as u64
        );
    }

    #[test]
    fn exact_tables_are_never_built_and_their_size_is_a_running_sum() {
        let mut core = BrokerCore::new(0, &config(3));
        core.subscribe(0, 0, "//CD").unwrap();
        core.subscribe(1, 1, "//book/title").unwrap();
        core.subscribe(2, 2, "/media[CD][book]").unwrap();
        let behind_links = ["//book/title", "/media[CD][book]"]
            .iter()
            .map(|p| TreePattern::parse(p).unwrap().node_count() as u64)
            .sum::<u64>();
        assert_eq!(core.stats().table_nodes, behind_links);
        core.publish(&doc("<media><CD/><book/></media>")).unwrap();
        assert!(core.unsubscribe(1));
        core.publish(&doc("<media><CD/><book/></media>")).unwrap();
        let stats = core.stats();
        assert_eq!(stats.table_rebuilds, 0);
        assert_eq!(
            stats.table_nodes,
            TreePattern::parse("/media[CD][book]").unwrap().node_count() as u64
        );
        // First-hit cost: one local consumer per document, then one entry
        // behind link 0 (a miss) and one behind link 1 (a hit) for the
        // first document, and only link 1's for the second.
        assert_eq!(stats.match_operations, (1 + 1 + 1) + (1 + 1));
        assert_eq!(stats.link_messages, 2);
        assert_eq!(stats.spurious_link_messages, 0);
    }

    /// The heart of the conformance argument, in miniature: a set of cores
    /// (one per broker) with the same flooded view routes a corpus with
    /// counters identical to the static network, for every forwarding mode.
    #[test]
    fn core_mesh_matches_the_static_network_counter_for_counter() {
        let topology = BrokerTopology::balanced_tree(5, 2);
        let subs: [(u64, u32, &str); 4] = [
            (0, 1, "//CD"),
            (1, 3, "//book"),
            (2, 3, "//author"),
            (3, 2, "//Mozart"),
        ];
        let docs = [
            "<media><CD><composer><last>Mozart</last></composer></CD></media>",
            "<media><book><author><last>Austen</last></author></book></media>",
            "<media><magazine><title>Time</title></magazine></media>",
        ];
        for forwarding in ForwardingMode::all() {
            let overlay = OverlayConfig {
                topology: topology.clone(),
                forwarding,
                ..OverlayConfig::default()
            };
            let mut cores: Vec<BrokerCore> =
                (0..5).map(|id| BrokerCore::new(id, &overlay)).collect();
            for core in &mut cores {
                for &(subscriber, broker, pattern) in &subs {
                    core.subscribe(subscriber, broker, pattern).unwrap();
                }
            }
            // Publish at broker 0 and hand-crank the forwards to quiescence.
            for text in docs {
                let outcome = cores[0].publish(text.as_bytes()).unwrap();
                let mut pending: Vec<(BrokerId, BrokerId)> =
                    outcome.forwards.iter().map(|&to| (0, to)).collect();
                while let Some((from, at)) = pending.pop() {
                    if let Some(outcome) = cores[at].forward_in(from, text.as_bytes()) {
                        pending.extend(outcome.forwards.iter().map(|&to| (at, to)));
                    }
                }
            }
            let mut network = BrokerNetwork::new(topology.clone());
            for &(_, broker, pattern) in &subs {
                network.attach(
                    broker as BrokerId,
                    "static",
                    TreePattern::parse(pattern).unwrap(),
                );
            }
            let parsed: Vec<XmlTree> = docs.iter().map(|d| XmlTree::parse(d).unwrap()).collect();
            let expected: NetworkStats = network.route_stream(0, &parsed, forwarding);
            let mut total = |f: &dyn Fn(&BrokerStats) -> u64| -> u64 {
                cores.iter_mut().map(|c| f(&c.stats())).sum()
            };
            assert_eq!(
                total(&|s| s.deliveries),
                expected.deliveries as u64,
                "{}",
                forwarding.name()
            );
            assert_eq!(
                total(&|s| s.link_messages),
                expected.link_messages as u64,
                "{}",
                forwarding.name()
            );
            assert_eq!(
                total(&|s| s.spurious_link_messages),
                expected.spurious_link_messages as u64,
                "{}",
                forwarding.name()
            );
            assert_eq!(
                total(&|s| s.match_operations),
                expected.match_operations as u64,
                "{}",
                forwarding.name()
            );
        }
        let _ = TableMode::Exact;
    }
}
