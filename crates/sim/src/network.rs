//! The mutable network state a simulation run evolves: consumers with
//! churn, each broker's place lists, routing tables with a staleness epoch,
//! the similarity engine observing the published traffic, and the semantic
//! communities rebuilt by the recluster policy.

use tps_core::{LshConfig, PatternId, SimilarityEngine};
use tps_pattern::containment::ContainmentOracle;
use tps_pattern::{PatternSet, TreePattern};
use tps_routing::{
    BrokerId, BrokerTopology, CommunityClustering, CommunityConfig, ForwardingMode, HopCounts,
    IncrementalCommunities, LinkRule, Places, RouteOutcome, RoutingTable, TableCompaction,
};
use tps_synopsis::{IngestTarget, SynopsisConfig};
use tps_workload::SubscriberId;
use tps_xml::XmlTree;

/// One consumer slot of the simulated network. Slots are never reused:
/// departures deactivate the slot, so a [`SubscriberId`] stays a stable
/// index for the whole run.
#[derive(Debug, Clone)]
pub struct SimConsumer {
    /// The broker the consumer is attached to.
    pub broker: BrokerId,
    /// The subscription.
    pub pattern: TreePattern,
    /// Engine handle of the subscription.
    pub id: PatternId,
    /// Whether the consumer is currently subscribed.
    pub active: bool,
}

/// Result of one routing-table / community rebuild.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildOutcome {
    /// Total size of the rebuilt tables, in pattern nodes (0 for flooding).
    pub table_nodes: usize,
    /// Entries offered to versus kept by table construction for this
    /// rebuild (empty for flooding; input equals kept unless the analyze
    /// knob or a pruning table mode dropped covered entries).
    pub compaction: TableCompaction,
    /// Number of semantic communities after re-clustering.
    pub communities: usize,
    /// Mean engine-estimated selectivity of the active subscriptions,
    /// evaluated with one batched
    /// [`SimilarityEngine::selectivities`] call over the traffic observed so
    /// far.
    pub mean_selectivity: f64,
}

/// The broker network as the simulator sees it: a static tree topology plus
/// everything that changes over virtual time.
///
/// Staleness is tracked with two counters: the engine synopsis epoch
/// ([`tps_synopsis::Synopsis::epoch`], bumped by every observed
/// publication) and a churn sequence number bumped by every subscribe /
/// unsubscribe. Routing tables depend only on the subscription set, so
/// [`SimNetwork::tables_stale`] consults the churn counter; the semantic
/// communities depend on both (similarities drift as traffic accumulates),
/// so [`SimNetwork::communities_stale`] consults both. Each broker's
/// [`Places`], by contrast, follow every subscribe and unsubscribe: a
/// consumer receives documents, and attracts useful forwards, exactly
/// while it is subscribed.
#[derive(Debug)]
pub struct SimNetwork {
    topology: BrokerTopology,
    forwarding: ForwardingMode,
    analyze: bool,
    community: CommunityConfig,
    consumers: Vec<SimConsumer>,
    /// The active consumers' patterns under their slots: the publish-time
    /// ground truth is one walk of it per document.
    matcher: PatternSet,
    /// The active consumers' slots filed at each broker, current.
    places: Vec<Places>,
    engine: SimilarityEngine,
    tables: Vec<RoutingTable>,
    /// When set, communities are maintained incrementally through the LSH
    /// candidate index at every subscribe/unsubscribe, and rebuilds merely
    /// snapshot them instead of re-clustering from scratch.
    incremental: Option<IncrementalCommunities>,
    communities: CommunityClustering,
    mean_selectivity: f64,
    churn_seq: u64,
    tables_built_at_churn: u64,
    communities_built_at: (u64, u64),
}

impl SimNetwork {
    /// Create a network with no consumers and no tables yet — call
    /// [`SimNetwork::rebuild`] after installing the initial subscriptions.
    pub fn new(
        topology: BrokerTopology,
        forwarding: ForwardingMode,
        community: CommunityConfig,
        synopsis: SynopsisConfig,
    ) -> Self {
        let places = topology
            .brokers()
            .map(|broker| Places::new(&topology, broker))
            .collect();
        // Tables and communities start empty: the driver installs the
        // initial consumers and then performs the first (counted) rebuild,
        // so building anything here would be dead work.
        Self {
            topology,
            forwarding,
            analyze: false,
            community,
            consumers: Vec::new(),
            matcher: PatternSet::new(),
            places,
            engine: SimilarityEngine::new(synopsis),
            tables: Vec::new(),
            incremental: None,
            communities: CommunityClustering::default(),
            mean_selectivity: 0.0,
            churn_seq: 0,
            tables_built_at_churn: 0,
            communities_built_at: (0, 0),
        }
    }

    /// The overlay topology.
    pub fn topology(&self) -> &BrokerTopology {
        &self.topology
    }

    /// Enable or disable the static-analysis compaction pre-pass applied
    /// at every table rebuild (syntactic containment pruning of each
    /// link's subscription set before mode summarisation —
    /// delivery-identical for any document stream).
    pub fn set_analyze(&mut self, analyze: bool) {
        self.analyze = analyze;
    }

    /// Whether table rebuilds run the compaction pre-pass.
    pub fn analyze(&self) -> bool {
        self.analyze
    }

    /// Enable (or disable, with `None`) index-backed community maintenance:
    /// subscribe/unsubscribe events update an [`IncrementalCommunities`]
    /// through the banded MinHash candidate index, and
    /// [`SimNetwork::rebuild`] snapshots it instead of re-clustering from
    /// scratch — the change that makes the `eager` policy affordable.
    /// Routing tables are built identically either way, so delivery and
    /// link counters are unaffected; only the community statistics may
    /// differ (by the banding's recall) from the exhaustive pass.
    ///
    /// Enabling with consumers already attached replays them into the
    /// incremental clustering so its slots stay aligned with consumer
    /// slots.
    pub fn set_index(&mut self, lsh: Option<LshConfig>) {
        self.incremental = lsh.map(|lsh| {
            let mut incremental = IncrementalCommunities::new(self.community, lsh);
            let engine = &self.engine;
            let consumers = &self.consumers;
            let metric = self.community.metric;
            for consumer in consumers {
                incremental.insert_with(&consumer.pattern, |a, b| {
                    engine.similarity(consumers[a as usize].id, consumers[b as usize].id, metric)
                });
            }
            for (slot, consumer) in consumers.iter().enumerate() {
                if !consumer.active {
                    incremental.remove_with(slot as u32, |a, b| {
                        engine.similarity(
                            consumers[a as usize].id,
                            consumers[b as usize].id,
                            metric,
                        )
                    });
                }
            }
            incremental
        });
    }

    /// The LSH configuration of the incremental community maintenance, if
    /// enabled.
    pub fn index(&self) -> Option<LshConfig> {
        self.incremental
            .as_ref()
            .map(|incremental| *incremental.index().config())
    }

    /// All consumer slots (active and departed).
    pub fn consumers(&self) -> &[SimConsumer] {
        &self.consumers
    }

    /// Number of currently active consumers.
    pub fn active_count(&self) -> usize {
        self.consumers.iter().filter(|c| c.active).count()
    }

    /// The similarity engine observing the published traffic.
    pub fn engine(&self) -> &SimilarityEngine {
        &self.engine
    }

    /// The semantic communities of the active subscriptions, as of the last
    /// rebuild.
    pub fn communities(&self) -> &CommunityClustering {
        &self.communities
    }

    /// Mean estimated selectivity of the active subscriptions as of the
    /// last rebuild.
    pub fn mean_selectivity(&self) -> f64 {
        self.mean_selectivity
    }

    /// Attach a subscriber. Slots must arrive in [`SubscriberId`] order —
    /// the scenario generator guarantees it, and the assertion catches
    /// hand-built scenarios that do not.
    pub fn subscribe(&mut self, subscriber: SubscriberId, broker: BrokerId, pattern: TreePattern) {
        assert_eq!(
            subscriber,
            self.consumers.len(),
            "subscribers must arrive in id order"
        );
        assert!(
            broker < self.topology.broker_count(),
            "broker {broker} does not exist"
        );
        let id = self.engine.register(&pattern);
        self.matcher.insert(subscriber as u64, &pattern);
        for places in &mut self.places {
            places.insert(subscriber as u64, broker);
        }
        self.consumers.push(SimConsumer {
            broker,
            pattern,
            id,
            active: true,
        });
        if let Some(incremental) = self.incremental.as_mut() {
            let engine = &self.engine;
            let consumers = &self.consumers;
            let metric = self.community.metric;
            // invariant: incremental slots and consumer slots are both
            // dense, never reused and advance together.
            incremental.insert_with(&consumers[subscriber].pattern, |a, b| {
                engine.similarity(consumers[a as usize].id, consumers[b as usize].id, metric)
            });
        }
        self.churn_seq += 1;
    }

    /// Detach a subscriber; returns false when the slot was already
    /// inactive (scenario generators never produce double departures, but
    /// the simulator tolerates them).
    pub fn unsubscribe(&mut self, subscriber: SubscriberId) -> bool {
        match self.consumers.get_mut(subscriber) {
            Some(consumer) if consumer.active => {
                consumer.active = false;
                self.matcher.remove(subscriber as u64, &consumer.pattern);
                for places in &mut self.places {
                    places.remove(subscriber as u64, consumer.broker);
                }
                if let Some(incremental) = self.incremental.as_mut() {
                    let engine = &self.engine;
                    let consumers = &self.consumers;
                    let metric = self.community.metric;
                    incremental.remove_with(subscriber as u32, |a, b| {
                        engine.similarity(
                            consumers[a as usize].id,
                            consumers[b as usize].id,
                            metric,
                        )
                    });
                }
                self.churn_seq += 1;
                true
            }
            _ => false,
        }
    }

    /// Ground-truth interest in `document`: the slots of the active
    /// consumers whose subscription matches, ascending.
    pub fn interest(&mut self, document: &XmlTree) -> Vec<u64> {
        self.matcher.matches(document).to_vec()
    }

    /// Fold a published document into the engine's synopsis (bumps the
    /// synopsis epoch, so community staleness is visible).
    pub fn observe(&mut self, document: &XmlTree) {
        let doc = self.engine.next_doc_id();
        self.engine.ingest_tree_as(document, doc);
    }

    /// Whether the routing tables no longer reflect the subscription set.
    pub fn tables_stale(&self) -> bool {
        self.tables_built_at_churn != self.churn_seq
    }

    /// Whether the communities no longer reflect the subscription set *or*
    /// the observed traffic (synopsis epoch).
    pub fn communities_stale(&self) -> bool {
        self.communities_built_at != (self.churn_seq, self.engine.synopsis().epoch())
    }

    /// Rebuild the routing tables and re-cluster the active subscriptions,
    /// fanning the similarity matrix over up to `threads` workers. Returns
    /// the cost/outcome counters for the report.
    pub fn rebuild(&mut self, threads: usize) -> RebuildOutcome {
        // Tables: the static network's construction over the place lists of
        // the active consumers, so a churn-free simulation is table-identical
        // to a static `BrokerNetwork` evaluation by construction.
        self.tables = match self.forwarding {
            ForwardingMode::Flooding => Vec::new(),
            ForwardingMode::Table(mode) => {
                let silent: &ContainmentOracle<'_> = &|_, _| None;
                let oracle = self.analyze.then_some(silent);
                let pattern = |slot: u64| &self.consumers[slot as usize].pattern;
                let table = |places: &Places| places.table(pattern, mode, oracle);
                self.places.iter().map(table).collect()
            }
        };
        self.tables_built_at_churn = self.churn_seq;

        // Communities + batched selectivities of the active workload.
        let active_ids: Vec<PatternId> = self
            .consumers
            .iter()
            .filter(|c| c.active)
            .map(|c| c.id)
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
        self.mean_selectivity = if selectivities.is_empty() {
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
            mean_selectivity: self.mean_selectivity,
        }
    }

    /// Route `document` at `broker` with the routing hop of `tps-routing`
    /// ([`Places::hop`]): local consumers and spurious accounting come from
    /// the *current* place lists, `interest` is the set frozen at
    /// publication (an arrival since is not owed the document, a departure
    /// since is missed), and links are decided by the tables as of the last
    /// rebuild.
    ///
    /// # Panics
    ///
    /// Panics in a table mode before the first [`SimNetwork::rebuild`].
    pub fn hop(
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
        self.places[broker].hop(interest, from, rule, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_routing::{BrokerNetwork, TableMode};

    fn network() -> SimNetwork {
        SimNetwork::new(
            BrokerTopology::balanced_tree(5, 2),
            ForwardingMode::Table(TableMode::Exact),
            CommunityConfig::default(),
            SynopsisConfig::sets(100),
        )
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
        assert_eq!(network.consumers().len(), 2);
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
        let mut analyzed = network();
        analyzed.set_analyze(true);
        assert!(analyzed.analyze());
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
        let mut network = network();
        network.set_index(Some(LshConfig::default()));
        assert_eq!(network.index(), Some(LshConfig::default()));
        network.subscribe(0, 1, pattern("//CD"));
        network.subscribe(1, 2, pattern("//CD"));
        network.subscribe(2, 3, pattern("//book"));
        let outcome = network.rebuild(1);
        // Identical patterns share every signature band, so the two //CD
        // subscriptions always land in one community.
        assert_eq!(outcome.communities, 2);
        assert_eq!(network.communities().len(), 2);
        // Departures are folded in incrementally; the next rebuild reflects
        // them without re-clustering.
        network.unsubscribe(0);
        let outcome = network.rebuild(1);
        assert_eq!(outcome.communities, 2);
        let assignment = network.communities().assignment(2);
        assert!(assignment.iter().all(|&a| a != usize::MAX));
    }

    #[test]
    fn enabling_the_index_late_replays_the_existing_consumers() {
        let mut with_index = network();
        with_index.set_index(Some(LshConfig::default()));
        let mut late = network();
        for net in [&mut with_index, &mut late] {
            net.subscribe(0, 1, pattern("//CD"));
            net.subscribe(1, 2, pattern("//CD"));
            net.subscribe(2, 3, pattern("//book"));
            net.unsubscribe(1);
        }
        late.set_index(Some(LshConfig::default()));
        let a = with_index.rebuild(1);
        let b = late.rebuild(1);
        assert_eq!(a.communities, b.communities);
        assert_eq!(with_index.communities(), late.communities());
    }

    #[test]
    fn index_does_not_change_the_routing_tables() {
        let mut plain = network();
        let mut indexed = network();
        indexed.set_index(Some(LshConfig::default()));
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
