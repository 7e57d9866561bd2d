//! The mutable network state a simulation run evolves: the overlay view
//! under churn, routing tables with a staleness epoch, the similarity engine
//! observing the published traffic, and the semantic communities rebuilt by
//! the recluster policy.

use tps_core::{PatternId, SimilarityEngine};
use tps_pattern::containment::ContainmentOracle;
use tps_pattern::TreePattern;
use tps_routing::{
    BrokerId, BrokerTopology, CommunityClustering, CommunityConfig, ForwardingMode, HopCounts,
    IncrementalCommunities, LinkRule, OverlayView, RouteOutcome, RoutingTable, TableCompaction,
};
use tps_synopsis::IngestTarget;
use tps_workload::SubscriberId;
use tps_xml::XmlTree;

use crate::sim::SimConfig;

/// Result of one routing-table / community rebuild.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RebuildOutcome {
    /// Total size of the rebuilt tables, in pattern nodes (0 for flooding).
    pub(crate) table_nodes: usize,
    /// Entries offered to versus kept by table construction for this
    /// rebuild (empty for flooding; input equals kept unless the analyze
    /// knob or a pruning table mode dropped covered entries).
    pub(crate) compaction: TableCompaction,
    /// Number of semantic communities after re-clustering.
    pub(crate) communities: usize,
    /// Mean engine-estimated selectivity of the active subscriptions,
    /// evaluated with one batched
    /// [`SimilarityEngine::selectivities`] call over the traffic observed so
    /// far.
    pub(crate) mean_selectivity: f64,
}

/// The broker network as the simulator sees it: the overlay view over
/// every broker plus everything else that changes over virtual time.
///
/// Staleness is tracked with two counters: the engine synopsis epoch
/// ([`tps_synopsis::Synopsis::epoch`], bumped by every observed
/// publication) and a churn sequence number bumped by every subscribe /
/// unsubscribe. Routing tables depend only on the subscription set, so
/// [`SimNetwork::tables_stale`] consults the churn counter; the semantic
/// communities depend on both (similarities drift as traffic accumulates),
/// so [`SimNetwork::communities_stale`] consults both. The view, by
/// contrast, follows every subscribe and unsubscribe: a consumer receives
/// documents, and attracts useful forwards, exactly while it is subscribed.
#[derive(Debug)]
pub(crate) struct SimNetwork {
    topology: BrokerTopology,
    forwarding: ForwardingMode,
    /// Whether table rebuilds run the compaction pre-pass.
    analyze: bool,
    community: CommunityConfig,
    /// The active consumers under their slots, filed at every broker: the
    /// publish-time ground truth is one walk of its matcher per document.
    view: OverlayView,
    /// The engine handle of every slot's subscription. Slots are never
    /// reused, so a [`SubscriberId`] stays a stable index for the whole run.
    ids: Vec<PatternId>,
    engine: SimilarityEngine,
    tables: Vec<RoutingTable>,
    /// When set, communities are maintained incrementally through the LSH
    /// candidate index at every subscribe/unsubscribe, and rebuilds merely
    /// snapshot them instead of re-clustering from scratch.
    incremental: Option<IncrementalCommunities>,
    communities: CommunityClustering,
    churn_seq: u64,
    tables_built_at_churn: u64,
    communities_built_at: (u64, u64),
}

impl SimNetwork {
    /// A network with no consumers and no tables yet — call
    /// [`SimNetwork::rebuild`] after installing the initial subscriptions.
    /// `config` sets the forwarding mode, the community parameters and
    /// their optional candidate index, the synopsis and the compaction
    /// pre-pass.
    pub(crate) fn new(topology: BrokerTopology, config: &SimConfig) -> Self {
        // Tables and communities start empty: the driver installs the
        // initial consumers and then performs the first (counted) rebuild,
        // so building anything here would be dead work.
        Self {
            view: OverlayView::new(&topology, topology.brokers()),
            topology,
            forwarding: config.forwarding,
            analyze: config.analyze,
            community: config.community,
            ids: Vec::new(),
            engine: SimilarityEngine::new(config.synopsis),
            tables: Vec::new(),
            incremental: config
                .index
                .map(|lsh| IncrementalCommunities::new(config.community, lsh)),
            communities: CommunityClustering::default(),
            churn_seq: 0,
            tables_built_at_churn: 0,
            communities_built_at: (0, 0),
        }
    }

    /// Number of currently active consumers.
    pub(crate) fn active_count(&self) -> usize {
        self.view.consumers().len()
    }

    /// Attach a subscriber. Slots must arrive in [`SubscriberId`] order —
    /// the scenario generator guarantees it, and the assertion catches
    /// hand-built scenarios that do not.
    pub(crate) fn subscribe(
        &mut self,
        subscriber: SubscriberId,
        broker: BrokerId,
        pattern: TreePattern,
    ) {
        assert_eq!(
            subscriber,
            self.ids.len(),
            "subscribers must arrive in id order"
        );
        assert!(
            broker < self.topology.broker_count(),
            "broker {broker} does not exist"
        );
        self.ids.push(self.engine.register(&pattern));
        if let Some(incremental) = self.incremental.as_mut() {
            let (engine, ids, metric) = (&self.engine, &self.ids, self.community.metric);
            // Incremental slots and consumer slots are both dense, never
            // reused and advance together.
            incremental.insert_with(&pattern, |a, b| {
                engine.similarity(ids[a as usize], ids[b as usize], metric)
            });
        }
        self.view.subscribe(subscriber as u64, broker, pattern);
        self.churn_seq += 1;
    }

    /// Detach a subscriber; returns false when it was not subscribed
    /// (scenario generators never produce double departures, but the
    /// simulator tolerates them).
    pub(crate) fn unsubscribe(&mut self, subscriber: SubscriberId) -> bool {
        if self.view.unsubscribe(subscriber as u64).is_none() {
            return false;
        }
        if let Some(incremental) = self.incremental.as_mut() {
            let (engine, ids, metric) = (&self.engine, &self.ids, self.community.metric);
            incremental.remove_with(subscriber as u32, |a, b| {
                engine.similarity(ids[a as usize], ids[b as usize], metric)
            });
        }
        self.churn_seq += 1;
        true
    }

    /// Ground-truth interest in `document`: the slots of the active
    /// consumers whose subscription matches, ascending.
    pub(crate) fn interest(&mut self, document: &XmlTree) -> Vec<u64> {
        self.view.interest_tree(document).to_vec()
    }

    /// Fold a published document into the engine's synopsis (bumps the
    /// synopsis epoch, so community staleness is visible).
    pub(crate) fn observe(&mut self, document: &XmlTree) {
        let doc = self.engine.next_doc_id();
        self.engine.ingest_tree_as(document, doc);
    }

    /// Whether the routing tables no longer reflect the subscription set.
    pub(crate) fn tables_stale(&self) -> bool {
        self.tables_built_at_churn != self.churn_seq
    }

    /// Whether the communities no longer reflect the subscription set *or*
    /// the observed traffic (synopsis epoch).
    pub(crate) fn communities_stale(&self) -> bool {
        self.communities_built_at != (self.churn_seq, self.engine.synopsis().epoch())
    }

    /// Rebuild the routing tables and re-cluster the active subscriptions,
    /// fanning the similarity matrix over up to `threads` workers. Returns
    /// the cost/outcome counters for the report.
    pub(crate) fn rebuild(&mut self, threads: usize) -> RebuildOutcome {
        // Tables: the view's, as the static network builds them, so a
        // churn-free simulation is table-identical to a static
        // `BrokerNetwork` evaluation by construction.
        self.tables = match self.forwarding {
            ForwardingMode::Flooding => Vec::new(),
            ForwardingMode::Table(mode) => {
                let silent: &ContainmentOracle<'_> = &|_, _| None;
                let oracle = self.analyze.then_some(silent);
                let view = &self.view;
                let table = |broker| view.table(broker, mode, oracle);
                self.topology.brokers().map(table).collect()
            }
        };
        self.tables_built_at_churn = self.churn_seq;

        // Communities + batched selectivities of the active workload, in
        // ascending slot order.
        let active_ids: Vec<PatternId> = self
            .view
            .consumers()
            .keys()
            .map(|&slot| self.ids[slot as usize])
            .collect();
        self.communities = match &self.incremental {
            // Index-backed maintenance: churn already kept the communities
            // current, so the rebuild just snapshots them (member indices
            // renumbered to positions in `active_ids`).
            Some(incremental) => incremental.snapshot(),
            None => CommunityClustering::cluster_par(
                &self.engine,
                &active_ids,
                self.community,
                threads.max(1),
            ),
        };
        let selectivities = self.engine.selectivities(&active_ids);
        let mean_selectivity = if selectivities.is_empty() {
            0.0
        } else {
            selectivities.iter().sum::<f64>() / selectivities.len() as f64
        };
        self.communities_built_at = (self.churn_seq, self.engine.synopsis().epoch());

        RebuildOutcome {
            table_nodes: self.tables.iter().map(RoutingTable::node_count).sum(),
            compaction: TableCompaction {
                input_entries: self.tables.iter().map(RoutingTable::input_count).sum(),
                kept_entries: self.tables.iter().map(RoutingTable::entry_count).sum(),
            },
            communities: self.communities.len(),
            mean_selectivity,
        }
    }

    /// Route `document` at `broker` with the view's hop
    /// ([`OverlayView::hop`]): local consumers and spurious accounting come
    /// from the *current* view, `interest` is the set frozen at publication
    /// (an arrival since is not owed the document, a departure since is
    /// missed), and links are decided by the tables as of the last rebuild.
    ///
    /// # Panics
    ///
    /// Panics in a table mode before the first [`SimNetwork::rebuild`].
    pub(crate) fn hop(
        &mut self,
        broker: BrokerId,
        interest: &[u64],
        document: &XmlTree,
        from: Option<BrokerId>,
        counts: &mut HopCounts,
    ) -> RouteOutcome {
        let rule = match self.forwarding {
            ForwardingMode::Flooding => LinkRule::Flooding,
            ForwardingMode::Table(_) => LinkRule::Table(&self.tables[broker], document),
        };
        self.view.hop(broker, interest, from, rule, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::LshConfig;
    use tps_routing::{BrokerNetwork, TableMode};
    use tps_synopsis::SynopsisConfig;

    /// A network under `config` with exact tables and a small synopsis.
    fn network_with(config: SimConfig) -> SimNetwork {
        let config = SimConfig {
            forwarding: ForwardingMode::Table(TableMode::Exact),
            synopsis: SynopsisConfig::sets(100),
            ..config
        };
        SimNetwork::new(BrokerTopology::balanced_tree(5, 2), &config)
    }

    fn network() -> SimNetwork {
        network_with(SimConfig::default())
    }

    fn indexed() -> SimNetwork {
        network_with(SimConfig {
            index: Some(LshConfig::default()),
            ..SimConfig::default()
        })
    }

    fn pattern(text: &str) -> TreePattern {
        TreePattern::parse(text).unwrap()
    }

    #[test]
    fn churn_marks_tables_stale_and_rebuild_clears_it() {
        let mut network = network();
        assert!(!network.tables_stale());
        network.subscribe(0, 1, pattern("//CD"));
        assert!(network.tables_stale());
        let outcome = network.rebuild(1);
        assert!(!network.tables_stale());
        assert!(outcome.table_nodes > 0);
        assert_eq!(outcome.communities, 1);
    }

    #[test]
    fn publications_mark_communities_stale_but_not_tables() {
        let mut network = network();
        network.subscribe(0, 1, pattern("//CD"));
        network.rebuild(1);
        network.observe(&XmlTree::parse("<media><CD/></media>").unwrap());
        assert!(!network.tables_stale());
        assert!(network.communities_stale());
    }

    #[test]
    fn unsubscribe_deactivates_without_reusing_slots() {
        let mut network = network();
        network.subscribe(0, 1, pattern("//CD"));
        network.subscribe(1, 3, pattern("//book"));
        let document = XmlTree::parse("<media><CD/><book/></media>").unwrap();
        assert_eq!(network.interest(&document), vec![0, 1]);
        assert!(network.unsubscribe(0));
        assert!(!network.unsubscribe(0), "double departure is a no-op");
        assert_eq!(network.interest(&document), vec![1]);
        assert_eq!(network.active_count(), 1);
        assert_eq!(network.ids.len(), 2);
        network.subscribe(2, 1, pattern("//CD"));
        assert_eq!(network.interest(&document), vec![1, 2]);
    }

    #[test]
    fn rebuilt_tables_match_a_static_network_over_the_active_set() {
        let mut network = network();
        network.subscribe(0, 1, pattern("//CD"));
        network.subscribe(1, 3, pattern("//book"));
        network.unsubscribe(0);
        let outcome = network.rebuild(1);
        let mut reference = BrokerNetwork::new(BrokerTopology::balanced_tree(5, 2));
        reference.attach(3, "b", pattern("//book"));
        let tables = reference.build_tables(TableMode::Exact);
        assert_eq!(
            outcome.table_nodes,
            tables.iter().map(RoutingTable::node_count).sum::<usize>()
        );
    }

    #[test]
    fn analyze_knob_compacts_tables_and_reports_it() {
        let mut plain = network();
        let mut analyzed = network_with(SimConfig {
            analyze: true,
            ..SimConfig::default()
        });
        // `/media/CD` is covered by `//CD` at the same broker.
        for net in [&mut plain, &mut analyzed] {
            net.subscribe(0, 1, pattern("//CD"));
            net.subscribe(1, 1, pattern("/media/CD"));
            net.subscribe(2, 3, pattern("//book"));
        }
        let base = plain.rebuild(1);
        let compacted = analyzed.rebuild(1);
        assert_eq!(base.compaction.pruned_entries(), 0);
        assert!(compacted.compaction.pruned_entries() > 0);
        assert!(compacted.table_nodes < base.table_nodes);
        // Communities are untouched by table compaction.
        assert_eq!(compacted.communities, base.communities);
    }

    #[test]
    #[should_panic(expected = "id order")]
    fn out_of_order_subscribers_are_rejected() {
        let mut network = network();
        network.subscribe(3, 1, pattern("//CD"));
    }

    #[test]
    fn index_backed_rebuild_snapshots_the_incremental_communities() {
        let mut network = indexed();
        network.subscribe(0, 1, pattern("//CD"));
        network.subscribe(1, 2, pattern("//CD"));
        network.subscribe(2, 3, pattern("//book"));
        let outcome = network.rebuild(1);
        // Identical patterns share every signature band, so the two //CD
        // subscriptions always land in one community.
        assert_eq!(outcome.communities, 2);
        assert_eq!(network.communities.len(), 2);
        // Departures are folded in incrementally; the next rebuild reflects
        // them without re-clustering.
        network.unsubscribe(0);
        let outcome = network.rebuild(1);
        assert_eq!(outcome.communities, 2);
        let assignment = network.communities.assignment(2);
        assert!(assignment.iter().all(|&a| a != usize::MAX));
    }

    #[test]
    fn index_does_not_change_the_routing_tables() {
        let mut plain = network();
        let mut indexed = indexed();
        let [plain, indexed] = [&mut plain, &mut indexed].map(|net| {
            net.subscribe(0, 1, pattern("//CD"));
            net.subscribe(1, 3, pattern("//book"));
            net.unsubscribe(0);
            net.rebuild(1)
        });
        assert_eq!(plain.table_nodes, indexed.table_nodes);
        assert_eq!(plain.compaction, indexed.compaction);
    }
}
