//! The broker state machine, free of any I/O.
//!
//! [`BrokerCore`] is the live clock of the one overlay view: an
//! [`OverlayView`] serving this broker (subscriptions are flooded over the
//! tree overlay, so every broker converges on the same view), plus what
//! only a live broker owns — the checks that answer a client with a wire
//! error, the lint pre-pass, the interest set of the last document, the
//! summarised table of the compressed table modes (rebuilt lazily after a
//! view change) and the counters. The paper's synopsis and community
//! layers live where they have readers (`tps-core`, `tps-cluster`,
//! `tps-sim`). The server layer ([`crate::server`]) feeds it decoded
//! messages and ships out whatever it returns.
//!
//! The routing decision is [`OverlayView::hop`], the hop the static
//! evaluation and `tps_sim::Simulation` drive too, so summing
//! [`BrokerStats`] across a churn-free overlay reproduces their numbers by
//! construction. What the core adds is where the interest set comes from
//! and which [`LinkRule`] decides a link.
//!
//! A document is matched against the whole view **once** per broker,
//! straight from its bytes in the one scan that also validates it (no tree
//! is built unless a summarised table reads one); local delivery,
//! exact-table link decisions, first-hit cost and spurious accounting are
//! all read off that one interest set (docs/NET.md, "One pass per
//! document"). And, while views agree, once per *overlay*: a forward
//! carries the view digest ([`BrokerCore::view_digest`]) and the interest
//! set ([`BrokerCore::interest`]), and [`BrokerCore::forward_matched`]
//! routes on a carried set whose digest equals its own without parsing or
//! matching. Any other forward is matched here (docs/NET.md, "Match once
//! per overlay").

use tps_analyze::{Severity, WorkloadAnalyzer, WorkloadEntry};
use tps_pattern::TreePattern;
use tps_routing::{
    BrokerId, BrokerTopology, ForwardingMode, HopCounts, LinkRule, OverlayView, RoutingTable,
    TableMode,
};
use tps_xml::{scan_document, NullSink, ScanLimits, XmlTree};

use crate::codec::{BrokerStats, ErrorCode, SyncConsumer};
use crate::overlay::OverlayConfig;

pub use tps_routing::RouteOutcome;

/// The pure per-broker state machine.
#[derive(Debug)]
pub struct BrokerCore {
    id: BrokerId,
    topology: BrokerTopology,
    forwarding: ForwardingMode,
    lint: bool,
    /// The overlay-wide view, filed at this broker only.
    view: OverlayView,
    /// The interest set of the document routed last, ascending: what the
    /// matcher reported, or what a trusted forward carried.
    interest: Vec<u64>,
    /// The summarised table of the compressed table modes, dropped by every
    /// view change and rebuilt by the next hop. `Table(Exact)` keeps none:
    /// its per-link entries are the consumers behind the link, so its
    /// decisions are read off the interest set.
    table: Option<RoutingTable>,
    /// What the hops counted; [`BrokerCore::stats`] reports them.
    counts: HopCounts,
    /// Every other counter.
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
        Self {
            id,
            topology: config.topology.clone(),
            forwarding: config.forwarding,
            lint: config.lint,
            view: OverlayView::new(&config.topology, [id]),
            interest: Vec::new(),
            table: None,
            counts: HopCounts::default(),
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

    /// The overlay-wide consumer view.
    pub fn view(&self) -> &OverlayView {
        &self.view
    }

    /// The digest of the consumer view ([`OverlayView::digest`]): two
    /// brokers hold the same view exactly when their digests are equal.
    pub fn view_digest(&self) -> u128 {
        self.view.digest()
    }

    /// The interest set of the document [`BrokerCore::publish`],
    /// [`BrokerCore::forward_in`] or [`BrokerCore::forward_matched`] routed
    /// last: the subscribers of the whole view it matches, ascending. What a
    /// forward of that document carries, next to [`BrokerCore::view_digest`].
    pub fn interest(&self) -> &[u64] {
        &self.interest
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
        if let Some(existing) = self.view.get(subscriber) {
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
        if self.exact_table() && broker != self.id {
            self.stats.table_nodes += pattern.node_count() as u64;
        }
        self.view.subscribe(subscriber, broker, pattern);
        self.table = None;
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
            .view
            .consumers()
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
        let Some(consumer) = self.view.unsubscribe(subscriber) else {
            return false;
        };
        if self.exact_table() && consumer.broker != self.id {
            self.stats.table_nodes -= consumer.pattern.node_count() as u64;
        }
        self.table = None;
        true
    }

    /// Publish raw document bytes at this broker: one scan validates them
    /// and drives the matcher's walk ([`OverlayView::interest_bytes`]), then
    /// the document is routed on the interest set; no tree is built unless
    /// a summarised table needs one for its link lookups. Bytes that are
    /// not a well-formed UTF-8 document are a [`ErrorCode::BadDocument`]
    /// and leave the broker unchanged but for its `errors` count.
    pub fn publish(&mut self, bytes: &[u8]) -> Result<RouteOutcome, (ErrorCode, String)> {
        let outcome = self.route(bytes, None).map_err(|detail| {
            self.stats.errors += 1;
            (ErrorCode::BadDocument, detail)
        })?;
        self.stats.documents += 1;
        Ok(outcome)
    }

    /// A document arrived in a forward batch from neighbour `from`, without
    /// an interest set. The publishing broker already validated it, so it
    /// is matched from the bytes like a publication; bytes that fail anyway
    /// (a byzantine peer) are dropped with an error count rather than
    /// poisoning the broker.
    pub fn forward_in(&mut self, from: BrokerId, bytes: &[u8]) -> Option<RouteOutcome> {
        self.forward_matched(from, 0, bytes, None)
    }

    /// A document arrived from neighbour `from` with the interest set
    /// `interested` the sender computed for it under the view `view`.
    ///
    /// When `view` is this broker's own digest the two views are the same,
    /// so the carried set is what the matcher here would report: the
    /// document is checked for well-formedness (scanned, no tree is built)
    /// and routed on the carried set — same deliveries, same forwards, same
    /// counters as [`BrokerCore::forward_in`], without the parse and the
    /// match. A summarised table still needs the tree for its link lookups
    /// and builds it, but skips the match all the same. With any other
    /// digest (counted in `forwards_rematched`), or without a set, this *is*
    /// `forward_in`: the document is matched from the bytes, in the one scan
    /// that also checks it, and delivered by this broker's own view.
    pub fn forward_matched(
        &mut self,
        from: BrokerId,
        view: u128,
        bytes: &[u8],
        interested: Option<&[u64]>,
    ) -> Option<RouteOutcome> {
        self.stats.forwards_received += 1;
        let carried = interested.filter(|_| view == self.view.digest());
        if interested.is_some() && carried.is_none() {
            self.stats.forwards_rematched += 1;
        }
        let Some(carried) = carried else {
            return match self.route(bytes, Some(from)) {
                Ok(outcome) => Some(outcome),
                Err(_) => self.malformed(),
            };
        };
        let document = if self.summarised() {
            let Ok(document) = summary_tree(bytes) else {
                return self.malformed();
            };
            Some(document)
        } else {
            if scan_document(bytes, &ScanLimits::default(), &mut NullSink).is_err() {
                return self.malformed();
            }
            None
        };
        self.interest.clear();
        self.interest.extend_from_slice(carried);
        Some(self.hop(document.as_ref(), Some(from)))
    }

    /// Drop a forwarded document that is not well-formed, counting it.
    fn malformed(&mut self) -> Option<RouteOutcome> {
        self.stats.errors += 1;
        None
    }

    /// Whether forwarding runs on an exact table: every consumer behind a
    /// link is an entry of it, in subscriber order.
    fn exact_table(&self) -> bool {
        self.forwarding == ForwardingMode::Table(TableMode::Exact)
    }

    /// Whether forwarding runs on a summarised table, whose link lookups
    /// read the document itself rather than the interest set.
    fn summarised(&self) -> bool {
        matches!(self.forwarding, ForwardingMode::Table(_)) && !self.exact_table()
    }

    /// Route one document at this broker: match it once, then hop on the
    /// interest set. One scan of the bytes validates and matches them; only
    /// a summarised table, whose link lookups read the tree, parses them
    /// instead and matches the tree. `Err` says why the bytes are not a
    /// well-formed UTF-8 document, and nothing was counted.
    fn route(&mut self, bytes: &[u8], from: Option<BrokerId>) -> Result<RouteOutcome, String> {
        let document = if self.summarised() {
            Some(summary_tree(bytes)?)
        } else {
            None
        };
        let interested = match &document {
            Some(document) => self.view.interest_tree(document),
            None => self.view.interest_bytes(bytes).map_err(|e| e.to_string())?,
        };
        self.interest.clear();
        self.interest.extend_from_slice(interested);
        Ok(self.hop(document.as_ref(), from))
    }

    /// [`OverlayView::hop`] on `self.interest`, with the link rule of this
    /// broker's forwarding mode. Only a summarised table reads `document`,
    /// which must then be present.
    fn hop(&mut self, document: Option<&XmlTree>, from: Option<BrokerId>) -> RouteOutcome {
        let rule = match self.forwarding {
            ForwardingMode::Flooding => LinkRule::Flooding,
            ForwardingMode::Table(TableMode::Exact) => LinkRule::Exact,
            ForwardingMode::Table(mode) => {
                // Even an empty view builds a valid match-nothing table.
                if self.table.is_none() {
                    self.rebuild_table(mode);
                }
                LinkRule::Table(
                    // invariant: rebuilt just above when missing.
                    self.table
                        .as_ref()
                        .expect("summarised forwarding has a table"),
                    // invariant: every caller builds the tree when the
                    // table is summarised.
                    document.expect("summarised forwarding has the tree"),
                )
            }
        };
        self.view
            .hop(self.id, &self.interest, from, rule, &mut self.counts)
    }

    /// Rebuild the summarised table of a compressed table mode from the
    /// current view ([`OverlayView::table`]) — the table
    /// `BrokerNetwork::build_tables` gives this broker, so a churn-free
    /// overlay is table-identical to a batch evaluation by construction.
    /// `Table(Exact)` never comes here: its `table_nodes` is a running sum
    /// and its decisions come from the interest set.
    fn rebuild_table(&mut self, mode: TableMode) {
        let table = self.view.table(self.id, mode, None);
        self.stats.table_nodes = table.node_count() as u64;
        self.stats.table_rebuilds += 1;
        self.table = Some(table);
    }

    /// Current counters (hop counters, consumer gauge and view digest
    /// refreshed).
    pub fn stats(&mut self) -> BrokerStats {
        self.stats.deliveries = self.counts.deliveries as u64;
        self.stats.link_messages = self.counts.link_messages as u64;
        self.stats.spurious_link_messages = self.counts.spurious_link_messages as u64;
        self.stats.match_operations = self.counts.match_operations as u64;
        self.stats.consumers = self.view.consumers().len() as u64;
        self.stats.view_digest = self.view.digest();
        self.stats
    }

    /// Dump the consumer view for a rejoining peer, in subscriber order.
    pub fn sync_state(&self) -> Vec<SyncConsumer> {
        self.view
            .consumers()
            .iter()
            .map(|(&subscriber, consumer)| SyncConsumer {
                subscriber,
                broker: consumer.broker as u32,
                pattern: consumer.pattern.to_string(),
            })
            .collect()
    }
}

/// The tree of document bytes for a summarised table's link lookups, or
/// why they are not a well-formed UTF-8 document. Nothing else in this
/// crate builds a tree: `src_lint` fails the build on an `XmlTree::parse`
/// outside this function, or a call of it outside a `summarised()` branch.
fn summary_tree(bytes: &[u8]) -> Result<XmlTree, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    XmlTree::parse(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tps_routing::BrokerNetwork;
    use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};
    use tps_xml::ScanLimits;

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

    /// `depth` nested `<a>` elements, the innermost self-closing.
    fn nested(depth: usize) -> Vec<u8> {
        let open = "<a>".repeat(depth - 1);
        let close = "</a>".repeat(depth - 1);
        doc(&format!("{open}<a/>{close}"))
    }

    /// An `<a/>` with `count` attributes.
    fn attributed(count: usize) -> Vec<u8> {
        let attributes: String = (0..count).map(|i| format!(" x{i}=\"v\"")).collect();
        doc(&format!("<a{attributes}/>"))
    }

    #[test]
    fn bad_documents_are_typed_errors_and_roll_back() {
        let mut core = BrokerCore::new(0, &config(3));
        core.subscribe(0, 0, "/a").unwrap();
        // What the scanner refuses, its resource limits included: the
        // innermost element one level past `max_depth` is not self-closing.
        let ScanLimits {
            max_depth,
            max_attributes,
        } = ScanLimits::default();
        let past_depth = doc(&format!(
            "{}{}",
            "<a>".repeat(max_depth),
            "</a>".repeat(max_depth)
        ));
        let bad: [&[u8]; 7] = [
            b"<open>",
            &past_depth,
            &attributed(max_attributes + 1),
            b"<a/><a/>",
            b"<a/>trailing",
            &[0xff, 0xfe],
            &[b'<', b'a', b'>', 0xc3, b'<', b'/', b'a', b'>'],
        ];
        for (errors, bytes) in (1..).zip(bad) {
            let err = core.publish(bytes).unwrap_err();
            assert_eq!(err.0, ErrorCode::BadDocument, "{}", err.1);
            let stats = core.stats();
            assert_eq!(stats.errors, errors);
            assert_eq!(stats.documents, 0);
            assert_eq!(stats.deliveries, 0);
        }
        // Exactly at each limit, a document still routes.
        for bytes in [nested(max_depth), attributed(max_attributes)] {
            assert_eq!(core.publish(&bytes).unwrap().deliveries, vec![0]);
        }
        let stats = core.stats();
        assert_eq!(stats.documents, 2);
        assert_eq!(stats.errors, 7);
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
        assert_eq!(rejoined.view().consumers().len(), 2);
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

    /// The brute-force router the routing hop is tested against in
    /// `tps-routing`: no code in common with the hop the cores call.
    mod reference {
        include!("../../routing/tests/common/reference.rs");
    }

    /// The heart of the conformance argument, in miniature: a set of cores
    /// (one per broker) with the same flooded view routes a corpus with
    /// counters identical to the brute-force reference router, for every
    /// forwarding mode.
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
        let mut network = BrokerNetwork::new(topology.clone());
        for &(_, broker, pattern) in &subs {
            let pattern = TreePattern::parse(pattern).unwrap();
            network.attach(broker as BrokerId, "static", pattern);
        }
        let parsed: Vec<XmlTree> = docs.iter().map(|d| XmlTree::parse(d).unwrap()).collect();
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
            let tables = reference::tables(&network, forwarding, None);
            let expected = reference::route(&network, 0, &parsed, forwarding, tables.as_deref());
            let stats: Vec<BrokerStats> = cores.iter_mut().map(BrokerCore::stats).collect();
            let total = |f: fn(&BrokerStats) -> u64| stats.iter().map(f).sum::<u64>() as usize;
            let counted = reference::Counted {
                deliveries: total(|s| s.deliveries),
                missed_deliveries: 0,
                link_messages: total(|s| s.link_messages),
                spurious_link_messages: total(|s| s.spurious_link_messages),
                match_operations: total(|s| s.match_operations),
            };
            assert_eq!(counted, expected, "{}", forwarding.name());
        }
    }

    #[test]
    fn the_digest_names_the_view_not_its_history() {
        let mut core = BrokerCore::new(0, &config(3));
        assert_eq!(core.view_digest(), 0, "the empty view");
        core.subscribe(3, 1, "//CD[title]/composer").unwrap();
        let one = core.view_digest();
        assert_ne!(one, 0);
        core.subscribe(1, 2, "//book").unwrap();
        let two = core.view_digest();
        assert_ne!(two, one);
        assert_eq!(core.stats().view_digest, two, "stats carry it");
        // A refused or duplicate subscribe is no view change.
        assert_eq!(core.subscribe(1, 2, "//book"), Ok(false));
        assert!(core.subscribe(1, 1, "//book").is_err());
        assert_eq!(core.view_digest(), two);
        // Subscribe + unsubscribe is the identity, in any order of leaving.
        assert!(core.unsubscribe(3));
        assert!(core.unsubscribe(1));
        assert!(!core.unsubscribe(1));
        assert_eq!(core.view_digest(), 0);
        core.subscribe(1, 2, "//book").unwrap();
        core.subscribe(3, 1, "//CD[title]/composer").unwrap();
        assert_eq!(core.view_digest(), two, "flood order");
        // A resync replays the dump in subscriber order, at another broker,
        // and sibling order is not part of a pattern's identity.
        let mut rejoined = BrokerCore::new(2, &config(3));
        for entry in core.sync_state() {
            rejoined
                .restore(entry.subscriber, entry.broker, &entry.pattern)
                .unwrap();
        }
        assert_eq!(rejoined.view_digest(), two);
        let mut reordered = BrokerCore::new(1, &config(3));
        reordered.subscribe(1, 2, "//book").unwrap();
        reordered.subscribe(3, 1, "//CD[composer][title]").unwrap();
        assert_eq!(reordered.view_digest(), two);
        reordered.unsubscribe(3);
        reordered.subscribe(3, 1, "//CD[title]//composer").unwrap();
        assert_ne!(reordered.view_digest(), two, "another pattern");
        reordered.unsubscribe(3);
        reordered.subscribe(3, 2, "//CD[title]/composer").unwrap();
        assert_ne!(reordered.view_digest(), two, "another attach broker");
        reordered.unsubscribe(3);
        reordered.subscribe(4, 1, "//CD[title]/composer").unwrap();
        assert_ne!(reordered.view_digest(), two, "another subscriber");
    }

    /// A sender (broker 0) and a receiver (broker 1) of a 3-broker tree.
    fn pair(forwarding: ForwardingMode) -> (BrokerCore, BrokerCore) {
        let overlay = OverlayConfig {
            topology: BrokerTopology::balanced_tree(3, 2),
            forwarding,
            ..OverlayConfig::default()
        };
        (BrokerCore::new(0, &overlay), BrokerCore::new(1, &overlay))
    }

    const CD_WITH_TITLE: &str = "<media><CD><title>Requiem</title></CD></media>";

    #[test]
    fn an_equal_digest_routes_on_the_carried_set_without_matching() {
        for forwarding in ForwardingMode::all() {
            let (mut sender, mut receiver) = pair(forwarding);
            for core in [&mut sender, &mut receiver] {
                core.subscribe(0, 1, "//CD").unwrap();
                core.subscribe(1, 1, "//title").unwrap();
            }
            assert_eq!(sender.view_digest(), receiver.view_digest());
            let outcome = sender.publish(CD_WITH_TITLE.as_bytes()).unwrap();
            assert!(outcome.forwards.contains(&1));
            assert_eq!(sender.interest(), [0, 1]);
            let view = sender.view_digest();
            let routed = receiver
                .forward_matched(0, view, CD_WITH_TITLE.as_bytes(), Some(sender.interest()))
                .unwrap();
            assert_eq!(routed.deliveries, vec![0, 1]);
            assert_eq!(receiver.interest(), [0, 1], "and is carried onwards");
            // The set is trusted, not checked: what it leaves out is not
            // delivered. (Only a sender with another view can leave it out,
            // and then its digest differs.)
            let routed = receiver
                .forward_matched(0, view, CD_WITH_TITLE.as_bytes(), Some(&[1]))
                .unwrap();
            assert_eq!(routed.deliveries, vec![1], "{}", forwarding.name());
            let stats = receiver.stats();
            assert_eq!(stats.forwards_received, 2);
            assert_eq!(stats.forwards_rematched, 0);
        }
    }

    #[test]
    fn a_diverged_receiver_delivers_by_its_own_view() {
        // (what the receiver holds, what it must deliver of it) — the
        // sender's set is [0, 1] every time, and says 1 is not local.
        type View = [(u64, u32, &'static str)];
        let receivers: [(&View, &[u64]); 3] = [
            // One subscription short.
            (&[(0, 1, "//CD")], &[0]),
            // One extra.
            (
                &[(0, 1, "//CD"), (1, 2, "//title"), (2, 1, "//Requiem")],
                &[0, 2],
            ),
            // The same subscriber, attached somewhere else.
            (&[(0, 1, "//CD"), (1, 1, "//title")], &[0, 1]),
        ];
        for forwarding in ForwardingMode::all() {
            for (held, delivered) in receivers {
                let (mut sender, mut receiver) = pair(forwarding);
                sender.subscribe(0, 1, "//CD").unwrap();
                sender.subscribe(1, 2, "//title").unwrap();
                for &(subscriber, broker, pattern) in held {
                    receiver.subscribe(subscriber, broker, pattern).unwrap();
                }
                assert_ne!(sender.view_digest(), receiver.view_digest());
                sender.publish(CD_WITH_TITLE.as_bytes()).unwrap();
                let routed = receiver
                    .forward_matched(
                        0,
                        sender.view_digest(),
                        CD_WITH_TITLE.as_bytes(),
                        Some(sender.interest()),
                    )
                    .unwrap();
                assert_eq!(routed.deliveries, delivered, "{}", forwarding.name());
                assert_eq!(
                    receiver.interest().len(),
                    held.len(),
                    "its own interest set goes onwards"
                );
                let stats = receiver.stats();
                assert_eq!(stats.forwards_received, 1);
                assert_eq!(stats.forwards_rematched, 1);
            }
        }
    }

    #[test]
    fn malformed_bytes_on_the_routed_path_are_dropped_and_counted() {
        for forwarding in ForwardingMode::all() {
            let (_, mut receiver) = pair(forwarding);
            receiver.subscribe(0, 1, "//CD").unwrap();
            let view = receiver.view_digest();
            let bad: [&[u8]; 4] = [
                b"<media><CD></media>",
                b"<media><CD/></media><media/>",
                b"",
                &[b'<', b'a', 0xff, b'/', b'>'],
            ];
            for bytes in bad {
                assert_eq!(
                    receiver.forward_matched(0, view, bytes, Some(&[0])),
                    None,
                    "{}",
                    forwarding.name()
                );
                assert_eq!(
                    receiver.forward_matched(0, view ^ 1, bytes, Some(&[0])),
                    None
                );
                assert_eq!(receiver.forward_in(0, bytes), None);
            }
            let stats = receiver.stats();
            assert_eq!(stats.errors, 12);
            assert_eq!(stats.forwards_received, 12);
            assert_eq!(stats.forwards_rematched, 4);
            assert_eq!(stats.deliveries, 0);
            assert_eq!(stats.match_operations, 0);
        }
    }

    /// Route `documents`, published at broker 0, through a mesh of cores
    /// holding `view`; forwards carry the sender's digest and interest set
    /// if `matched`. Returns every hop's outcome and the settled counters.
    fn crank(
        forwarding: ForwardingMode,
        view: &[(u64, u32, String)],
        documents: &[Vec<u8>],
        matched: bool,
    ) -> (Vec<(BrokerId, Option<RouteOutcome>)>, Vec<BrokerStats>) {
        let overlay = OverlayConfig {
            topology: BrokerTopology::balanced_tree(5, 2),
            forwarding,
            ..OverlayConfig::default()
        };
        let mut cores: Vec<BrokerCore> = (0..5).map(|id| BrokerCore::new(id, &overlay)).collect();
        for core in &mut cores {
            for (subscriber, broker, pattern) in view {
                core.subscribe(*subscriber, *broker, pattern).unwrap();
            }
        }
        let mut hops = Vec::new();
        for bytes in documents {
            let outcome = cores[0].publish(bytes).ok();
            let mut pending: Vec<(BrokerId, BrokerId)> = Vec::new();
            let mut sent = |at: BrokerId, outcome: &Option<RouteOutcome>| {
                let forwards = outcome.iter().flat_map(|o| &o.forwards);
                pending.extend(forwards.map(|&to| (at, to)));
                pending.pop()
            };
            let mut next = sent(0, &outcome);
            hops.push((0, outcome));
            while let Some((from, at)) = next {
                let outcome = if matched {
                    let (view, interest) = (cores[from].view_digest(), cores[from].interest());
                    let interest = interest.to_vec();
                    cores[at].forward_matched(from, view, bytes, Some(&interest))
                } else {
                    cores[at].forward_in(from, bytes)
                };
                next = sent(at, &outcome);
                hops.push((at, outcome));
            }
        }
        (hops, cores.iter_mut().map(BrokerCore::stats).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With equal digests the routed entry point is `forward_in` minus
        /// the work: the same outcome at every hop and the same counters at
        /// every broker, in every forwarding mode — on generated views and
        /// documents, one of them malformed.
        #[test]
        fn forward_matched_with_an_equal_digest_is_forward_in(
            seed in any::<u64>(),
            subscriptions in 0usize..40,
            attach in proptest::collection::vec(0u32..5, 40),
        ) {
            let dtd = Dtd::media();
            let patterns = XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(seed))
                .generate_many(subscriptions);
            let view: Vec<(u64, u32, String)> = patterns
                .iter()
                .enumerate()
                .map(|(i, p)| (3 * i as u64 + 1, attach[i], p.to_string()))
                .collect();
            let config = DocGenConfig::default().with_seed(seed ^ 0xd0c5).with_target_tag_pairs(30);
            let mut documents: Vec<Vec<u8>> = DocumentGenerator::new(&dtd, config)
                .generate_many(6)
                .iter()
                .map(|d| d.to_xml().into_bytes())
                .collect();
            documents.insert(3, b"<media><CD></media>".to_vec());
            for forwarding in ForwardingMode::all() {
                let (plain_hops, plain) = crank(forwarding, &view, &documents, false);
                let (matched_hops, matched) = crank(forwarding, &view, &documents, true);
                prop_assert_eq!(&matched_hops, &plain_hops, "{}", forwarding.name());
                prop_assert_eq!(&matched, &plain, "{}", forwarding.name());
                prop_assert!(matched.iter().all(|s| s.forwards_rematched == 0));
            }
        }
    }
}
