//! The discrete-event simulation driver.
//!
//! [`Simulation`] owns time: the event queue, per-link latency, per-broker
//! FIFO service, broker failures and the recluster policy that decides how
//! stale the routing tables get. What a broker does with a document when
//! it arrives is not decided here but by the routing hop of the one
//! overlay view ([`tps_routing::OverlayView::hop`]) — the same view and hop
//! the static evaluation walks and the live brokers drive over sockets.

use tps_core::LshConfig;
use tps_routing::{
    BrokerId, BrokerTopology, CommunityConfig, ForwardingMode, HopCounts, TableMode,
};
use tps_synopsis::SynopsisConfig;
use tps_workload::{ChurnScenario, ScenarioAction};
use tps_xml::XmlTree;

use crate::event::{DocHandle, EventKind, EventQueue};
use crate::network::SimNetwork;
use crate::report::{SimReport, WindowStats};

/// When the simulator refreshes routing tables and semantic communities in
/// response to churn and traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclusterPolicy {
    /// Rebuild immediately after every subscribe / unsubscribe (maximal
    /// maintenance cost, zero staleness).
    Eager,
    /// Rebuild on a fixed virtual-time period, if anything went stale since
    /// the last rebuild.
    Periodic(u64),
    /// Rebuild once the given number of churn events accumulated since the
    /// last rebuild.
    OnChurn(usize),
    /// Never rebuild after the initial construction (maximal staleness,
    /// zero maintenance cost — the baseline that quantifies what staleness
    /// costs).
    Never,
}

tps_routing::impl_variant_name!(ReclusterPolicy {
    ReclusterPolicy::Eager => "eager",
    ReclusterPolicy::Periodic(_) => "periodic",
    ReclusterPolicy::OnChurn(_) => "on-churn",
    ReclusterPolicy::Never => "never",
});

impl ReclusterPolicy {
    /// `name()` plus the policy parameter (`periodic:100`, `churn:5`) —
    /// the form [`ReclusterPolicy::parse`] accepts back.
    pub fn label(&self) -> String {
        match self {
            ReclusterPolicy::Periodic(interval) => format!("periodic:{interval}"),
            ReclusterPolicy::OnChurn(count) => format!("churn:{count}"),
            _ => self.name().to_string(),
        }
    }

    /// Parse a policy label: `eager`, `never`, `periodic:N` or `churn:N`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.split_once(':') {
            None => match text {
                "eager" => Ok(ReclusterPolicy::Eager),
                "never" => Ok(ReclusterPolicy::Never),
                other => Err(format!(
                    "unknown recluster policy {other:?} (expected eager, never, periodic:N or churn:N)"
                )),
            },
            Some((kind, value)) => {
                let number: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid {kind} parameter {value:?}"))?;
                match kind {
                    "periodic" => Ok(ReclusterPolicy::Periodic(number.max(1))),
                    "churn" => Ok(ReclusterPolicy::OnChurn(number.max(1) as usize)),
                    other => Err(format!(
                        "unknown recluster policy {other:?} (expected eager, never, periodic:N or churn:N)"
                    )),
                }
            }
        }
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How brokers forward documents between themselves.
    pub forwarding: ForwardingMode,
    /// When tables / communities are refreshed.
    pub recluster: ReclusterPolicy,
    /// Community-clustering parameters used at every rebuild.
    pub community: CommunityConfig,
    /// Matching-set representation of the traffic synopsis.
    pub synopsis: SynopsisConfig,
    /// The broker all documents are published at.
    pub producer: BrokerId,
    /// Virtual-time cost of one link traversal.
    pub link_latency: u64,
    /// Virtual-time a broker needs per document (hops queue while the
    /// broker is busy).
    pub service_time: u64,
    /// Report window length in virtual time.
    pub window: u64,
    /// Worker threads for the similarity matrix at rebuilds (1 =
    /// sequential; results are identical either way).
    pub threads: usize,
    /// Record a human-readable event trace in the report (used by the
    /// determinism tests; off by default — traces are large).
    pub record_trace: bool,
    /// Run the static-analysis compaction pre-pass at every table rebuild:
    /// each link's subscription set is containment-pruned before mode
    /// summarisation, so tables shrink while staying delivery-identical
    /// (syntactic proofs only — sound for any document stream).
    pub analyze: bool,
    /// Maintain semantic communities incrementally through the banded
    /// MinHash candidate index with this banding (None = re-cluster from
    /// scratch at every rebuild). Tables, deliveries and link counters are
    /// identical either way; community statistics may differ by the
    /// banding's recall. This is what makes the `eager` policy affordable
    /// under heavy churn.
    pub index: Option<LshConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            forwarding: ForwardingMode::Table(TableMode::Exact),
            recluster: ReclusterPolicy::Eager,
            community: CommunityConfig::default(),
            synopsis: SynopsisConfig::hashes(256),
            producer: 0,
            link_latency: 1,
            service_time: 1,
            window: 100,
            threads: 1,
            record_trace: false,
            analyze: false,
            index: None,
        }
    }
}

/// One in-flight document: its ground-truth interest is frozen at
/// publication time (consumers arriving later are not owed the document;
/// consumers departing before it reaches them count as missed — exactly the
/// staleness cost a recluster policy trades against).
#[derive(Debug)]
struct DocState {
    document: XmlTree,
    /// The slots interested at publication, ascending.
    interest: Vec<u64>,
    /// How many of them the document has not reached yet.
    owed: usize,
    /// Hops scheduled and not yet processed.
    outstanding: usize,
}

/// A deterministic discrete-event simulation of a broker network under
/// subscription churn.
///
/// # Example
///
/// ```
/// use tps_routing::{BrokerTopology, LinkMetrics};
/// use tps_sim::{SimConfig, Simulation};
/// use tps_workload::{ChurnConfig, ChurnScenario, Dtd};
///
/// let dtd = Dtd::media();
/// let scenario = ChurnScenario::generate(
///     &dtd,
///     &ChurnConfig {
///         brokers: 5,
///         initial_subscribers: 4,
///         arrivals: 2,
///         departures: 2,
///         publications: 20,
///         ..ChurnConfig::default()
///     },
/// );
/// let sim = Simulation::new(BrokerTopology::balanced_tree(5, 2), SimConfig::default());
/// let report = sim.run(&scenario);
/// assert_eq!(report.aggregate.documents, 20);
/// assert!(report.aggregate.link_precision() <= 1.0);
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    network: SimNetwork,
    queue: EventQueue,
    clock: u64,
    busy_until: Vec<u64>,
    /// Brokers currently failed: hops arriving at them are dropped (the
    /// frozen interest behind them turns into missed deliveries).
    down: Vec<bool>,
    docs: Vec<Option<DocState>>,
    churn_since_rebuild: usize,
    window: WindowStats,
    report: SimReport,
}

impl Simulation {
    /// Create a simulation over `topology`.
    ///
    /// # Panics
    ///
    /// Panics if `config.producer` is not a broker of the topology.
    pub fn new(topology: BrokerTopology, config: SimConfig) -> Self {
        assert!(
            config.producer < topology.broker_count(),
            "producer broker {} does not exist",
            config.producer
        );
        let brokers = topology.broker_count();
        let network = SimNetwork::new(topology, &config);
        let window_length = config.window.max(1);
        Self {
            config,
            network,
            queue: EventQueue::new(),
            clock: 0,
            busy_until: vec![0; brokers],
            down: vec![false; brokers],
            docs: Vec::new(),
            churn_since_rebuild: 0,
            window: WindowStats::default(),
            report: SimReport {
                window_length,
                ..SimReport::default()
            },
        }
    }

    /// Run the scenario to completion and return the report.
    pub fn run(mut self, scenario: &ChurnScenario) -> SimReport {
        // Install the initial subscriptions and build the initial tables /
        // communities before the clock starts.
        for (subscriber, (broker, pattern)) in scenario.initial.iter().enumerate() {
            self.network.subscribe(subscriber, *broker, pattern.clone());
        }
        self.rebuild("initial");
        self.report.aggregate.peak_consumers = self.network.active_count();

        // Schedule the scenario and (for the periodic policy) the recluster
        // ticks up to the scenario horizon.
        let horizon = scenario.events.last().map(|e| e.time).unwrap_or(0);
        for (index, event) in scenario.events.iter().enumerate() {
            self.queue.push(event.time, EventKind::Scenario(index));
        }
        if let ReclusterPolicy::Periodic(interval) = self.config.recluster {
            let mut tick = interval.max(1);
            while tick <= horizon {
                self.queue.push(tick, EventKind::ReclusterTick);
                tick += interval.max(1);
            }
        }

        while let Some(event) = self.queue.pop() {
            debug_assert!(event.at >= self.clock, "virtual time must not go backwards");
            self.clock = event.at;
            self.flush_windows();
            let depth = self.queue.pending_hops();
            self.window.max_queue_depth = self.window.max_queue_depth.max(depth);
            match event.kind {
                EventKind::Scenario(index) => self.process_scenario(&scenario.events[index].action),
                EventKind::Hop { doc, broker, from } => self.process_hop(doc, broker, from),
                EventKind::ReclusterTick => self.process_tick(),
            }
        }

        // Close the last window and fill the aggregates.
        self.window.active_consumers = self.network.active_count();
        self.report.windows.push(self.window);
        self.report.aggregate.horizon = self.clock;
        self.report.aggregate.brokers = self.busy_until.len();
        self.report.aggregate.final_consumers = self.network.active_count();
        self.report
    }

    /// Close every window that ends at or before the current clock.
    fn flush_windows(&mut self) {
        let length = self.report.window_length;
        while self.clock >= self.window.start + length {
            self.window.active_consumers = self.network.active_count();
            let start = self.window.start;
            self.report.windows.push(self.window);
            self.window = WindowStats {
                start: start + length,
                ..WindowStats::default()
            };
        }
    }

    fn trace(&mut self, line: String) {
        if self.config.record_trace {
            self.report.trace.push(format!("t={} {line}", self.clock));
        }
    }

    fn process_scenario(&mut self, action: &ScenarioAction) {
        match action {
            ScenarioAction::Subscribe {
                subscriber,
                broker,
                pattern,
            } => {
                self.network
                    .subscribe(*subscriber, *broker, pattern.clone());
                self.report.aggregate.subscribes += 1;
                self.window.subscribes += 1;
                self.report.aggregate.peak_consumers = self
                    .report
                    .aggregate
                    .peak_consumers
                    .max(self.network.active_count());
                self.trace(format!("subscribe {subscriber}@{broker}"));
                self.after_churn();
            }
            ScenarioAction::Unsubscribe { subscriber } => {
                if self.network.unsubscribe(*subscriber) {
                    self.report.aggregate.unsubscribes += 1;
                    self.window.unsubscribes += 1;
                    self.trace(format!("unsubscribe {subscriber}"));
                    self.after_churn();
                }
            }
            ScenarioAction::Publish { document } => self.publish(document),
            // Failure and rejoin change where documents can *go*, never
            // the subscription view: a failed broker keeps its consumers
            // (they are owed documents and will be charged as missed), and
            // routing tables are left untouched — exactly the live
            // runtime's behaviour, where peers keep forwarding into the
            // void until the broker rejoins.
            ScenarioAction::Fail { broker } => {
                if !self.down[*broker] {
                    self.down[*broker] = true;
                    self.report.aggregate.failures += 1;
                    self.trace(format!("fail {broker}"));
                }
            }
            ScenarioAction::Recover { broker } => {
                if self.down[*broker] {
                    self.down[*broker] = false;
                    self.report.aggregate.recoveries += 1;
                    self.trace(format!("recover {broker}"));
                }
            }
        }
    }

    /// Apply the recluster policy after one churn event.
    fn after_churn(&mut self) {
        self.churn_since_rebuild += 1;
        match self.config.recluster {
            ReclusterPolicy::Eager => self.rebuild("eager"),
            ReclusterPolicy::OnChurn(limit) if self.churn_since_rebuild >= limit => {
                self.rebuild("on-churn")
            }
            _ => {}
        }
    }

    /// A periodic tick: rebuild only if something actually went stale.
    fn process_tick(&mut self) {
        let stale = self.network.tables_stale() || self.network.communities_stale();
        self.trace(format!("tick stale={stale}"));
        if stale {
            self.rebuild("periodic");
        }
    }

    fn rebuild(&mut self, reason: &str) {
        let outcome = self.network.rebuild(self.config.threads);
        self.churn_since_rebuild = 0;
        self.report.aggregate.table_rebuilds += 1;
        self.report.aggregate.rebuild_table_nodes += outcome.table_nodes;
        self.report.aggregate.rebuild_entries_pruned += outcome.compaction.pruned_entries();
        self.report.aggregate.communities = outcome.communities;
        self.report.aggregate.mean_subscription_selectivity = outcome.mean_selectivity;
        self.window.rebuilds += 1;
        self.trace(format!(
            "rebuild[{reason}] tables={} pruned={} communities={} selectivity={:.4}",
            outcome.table_nodes,
            outcome.compaction.pruned_entries(),
            outcome.communities,
            outcome.mean_selectivity
        ));
    }

    /// Publish a document: freeze the ground truth, feed the synopsis, and
    /// inject the first hop at the producer.
    fn publish(&mut self, document: &XmlTree) {
        let interest = self.network.interest(document);
        self.network.observe(document);
        let handle: DocHandle = self.docs.len();
        self.docs.push(Some(DocState {
            document: document.clone(),
            owed: interest.len(),
            interest,
            outstanding: 1,
        }));
        self.report.aggregate.documents += 1;
        self.window.publishes += 1;
        self.trace(format!("publish doc{handle}"));
        self.queue.push(
            self.clock,
            EventKind::Hop {
                doc: handle,
                broker: self.config.producer,
                from: None,
            },
        );
    }

    /// A document arrives at a broker: queue behind the broker's service
    /// time, then hop — deliver locally and forward per the (possibly
    /// stale) tables.
    fn process_hop(&mut self, doc: DocHandle, broker: BrokerId, from: Option<BrokerId>) {
        // A failed broker drops the document on the floor: the hop ends
        // here, and whatever interest lives behind this broker becomes
        // missed deliveries when the document finalises.
        if self.down[broker] {
            // invariant: hops are only scheduled for in-flight documents
            let state = self.docs[doc].as_mut().expect("hop for finalised document");
            state.outstanding -= 1;
            let outstanding = state.outstanding;
            self.report.aggregate.dropped_hops += 1;
            self.window.dropped_hops += 1;
            self.trace(format!("drop doc{doc} at {broker} (down)"));
            if outstanding == 0 {
                self.finalise(doc);
            }
            return;
        }
        // Broker-side queueing: if the broker is still serving an earlier
        // document, defer this hop to when it frees up (FIFO per broker —
        // the requeue keeps scheduling order).
        if self.clock < self.busy_until[broker] {
            let until = self.busy_until[broker];
            self.trace(format!("requeue doc{doc} at {broker} until {until}"));
            self.queue.push(until, EventKind::Hop { doc, broker, from });
            return;
        }
        self.busy_until[broker] = self.clock + self.config.service_time;

        // invariant: hops are only scheduled for in-flight documents
        let state = self.docs[doc].as_mut().expect("hop for finalised document");
        let mut counts = HopCounts::default();
        let outcome = self
            .network
            .hop(broker, &state.interest, &state.document, from, &mut counts);
        state.owed -= outcome.deliveries.len();
        state.outstanding = state.outstanding - 1 + outcome.forwards.len();
        let outstanding = state.outstanding;
        let a = &mut self.report.aggregate;
        a.deliveries += counts.deliveries;
        a.link_messages += counts.link_messages;
        a.spurious_link_messages += counts.spurious_link_messages;
        a.match_operations += counts.match_operations;
        let w = &mut self.window;
        w.deliveries += counts.deliveries;
        w.link_messages += counts.link_messages;
        w.spurious_link_messages += counts.spurious_link_messages;
        w.match_operations += counts.match_operations;
        for &neighbour in &outcome.forwards {
            self.queue.push(
                self.clock + self.config.link_latency,
                EventKind::Hop {
                    doc,
                    broker: neighbour,
                    from: Some(broker),
                },
            );
        }
        self.trace(format!(
            "hop doc{doc} at {broker} from {from:?} delivered={} forwards={:?}",
            outcome.deliveries.len(),
            outcome.forwards
        ));
        if outstanding == 0 {
            self.finalise(doc);
        }
    }

    /// A document finished propagating: charge the misses and free it.
    fn finalise(&mut self, doc: DocHandle) {
        // invariant: finalise is scheduled exactly once per in-flight document
        let state = self.docs[doc].take().expect("document is in flight");
        let missed = state.owed;
        self.report.aggregate.missed_deliveries += missed;
        self.window.missed_deliveries += missed;
        self.trace(format!("done doc{doc} missed={missed}"));
    }
}
