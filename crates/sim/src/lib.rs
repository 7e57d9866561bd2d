//! Deterministic discrete-event simulation of a content-based broker
//! network under subscription churn.
//!
//! The static evaluations in `tps-routing` freeze a subscription set and a
//! corpus, then route the corpus in one batch. This crate answers the
//! paper's *operational* question instead: how does a similarity-driven
//! overlay behave while subscribers arrive and leave and publications
//! interleave over time — and how much does it cost to keep routing tables
//! and semantic communities fresh?
//!
//! * [`Simulation`] — a seeded event queue with virtual-clock semantics,
//!   per-link latency and per-broker service queueing over a
//!   [`tps_routing::BrokerTopology`]; ties are sequence-numbered, so runs
//!   are bit-identical per seed.
//! * The evolving state: one [`tps_routing::OverlayView`] over every
//!   broker under consumer churn — the view the static evaluation walks
//!   and the live brokers keep, driven here by the virtual clock — plus
//!   routing tables rebuilt from it on the recluster policy (stale in
//!   between by design; built by the static `tps-routing` code, so a
//!   churn-free run is table-identical to a batch evaluation), a
//!   [`tps_core::SimilarityEngine`] folding every published document into
//!   its synopsis, and the semantic communities re-clustered from it.
//! * [`ReclusterPolicy`] — *when* to pay the rebuild cost: `eager`,
//!   `periodic:N`, `churn:N`, or `never`. Staleness is detected via the
//!   synopsis epoch and a churn counter; the `never` baseline quantifies
//!   what staleness costs in link precision and recall.
//! * [`SimReport`] — per-window time series (messages, deliveries, queue
//!   depths, rebuilds) plus end-of-run aggregates sharing the
//!   [`tps_routing::DeliveryMetrics`] derivations with the static stats.
//!
//! Scenarios come from [`tps_workload::ChurnScenario`] — seeded arrival /
//! departure processes with publications pulled through a document stream —
//! so a whole churn sweep is reproducible from a handful of integers.
//!
//! # Example
//!
//! ```
//! use tps_routing::BrokerTopology;
//! use tps_sim::{ReclusterPolicy, SimConfig, Simulation};
//! use tps_workload::{ChurnConfig, ChurnScenario, Dtd};
//!
//! let scenario = ChurnScenario::generate(
//!     &Dtd::media(),
//!     &ChurnConfig {
//!         brokers: 7,
//!         initial_subscribers: 6,
//!         arrivals: 3,
//!         departures: 3,
//!         publications: 30,
//!         ..ChurnConfig::default()
//!     },
//! );
//! let config = SimConfig {
//!     recluster: ReclusterPolicy::parse("periodic:200").unwrap(),
//!     ..SimConfig::default()
//! };
//! let report = Simulation::new(BrokerTopology::balanced_tree(7, 2), config).run(&scenario);
//! assert_eq!(report.aggregate.documents, 30);
//! assert!(report.aggregate.table_rebuilds >= 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
mod network;
pub mod report;
pub mod sim;

pub use event::{EventKind, EventQueue, QueuedEvent};
pub use report::{SimReport, SimStats, WindowStats};
pub use sim::{ReclusterPolicy, SimConfig, Simulation};
