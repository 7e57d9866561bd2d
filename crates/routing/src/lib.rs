//! Semantic communities and content-based routing — the application that
//! motivates tree-pattern similarity estimation.
//!
//! * [`CommunityClustering`] — greedy similarity-threshold clustering of
//!   subscriptions into semantic communities, driven by a
//!   [`tps_core::SimilarityEngine`] over a registered subscription workload;
//!   [`CommunityClustering::cluster_indexed`] and [`IncrementalCommunities`]
//!   run the same discipline through the banded MinHash candidate index for
//!   sub-quadratic batch builds and cheap subscribe/unsubscribe maintenance.
//!   [`CommunityClustering::from_clustering`] takes the partition of any
//!   `tps-cluster` algorithm instead, represented by each cluster's medoid.
//! * [`Broker`] — a single-broker routing simulation comparing flooding,
//!   exact per-subscription filtering, and community-based dissemination on
//!   a document stream, reporting filtering cost and delivery accuracy. Its
//!   community strategy is the one evaluator of the paper's motivating
//!   scheme: match one representative per community, deliver to every
//!   member.
//! * [`BrokerNetwork`] / [`BrokerTopology`] / [`RoutingTable`] — a
//!   multi-broker tree overlay with per-link routing tables (exact,
//!   containment-pruned or aggregated), accounting for link messages and
//!   broker-side filtering cost.
//! * [`OverlayView`] — one view, three clocks: the subscription set with
//!   its matcher, place lists and digest, and [`OverlayView::hop`], the one
//!   per-broker routing step ("interest set → local deliveries, forwarded
//!   links, [`HopCounts`]") the static evaluation, `tps-sim` and `tps-net`
//!   all drive.
//!
//! # Example
//!
//! ```
//! use tps_core::SimilarityEngine;
//! use tps_pattern::TreePattern;
//! use tps_routing::{
//!     Broker, CommunityClustering, CommunityConfig, Consumer, DeliveryMetrics, RoutingStrategy,
//! };
//! use tps_synopsis::{ingest, Ingest, SynopsisConfig};
//! use tps_xml::XmlTree;
//!
//! let docs: Vec<XmlTree> = [
//!     "<media><CD><composer/></CD></media>",
//!     "<media><book><author/></book></media>",
//! ]
//! .iter()
//! .map(|s| XmlTree::parse(s).unwrap())
//! .collect();
//!
//! let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100));
//! engine.ingest(ingest::trees(&docs)).unwrap();
//!
//! let mut broker = Broker::new();
//! broker.subscribe(Consumer::new("cd", TreePattern::parse("//CD").unwrap()));
//! broker.subscribe(Consumer::new("classical", TreePattern::parse("//composer").unwrap()));
//! broker.subscribe(Consumer::new("books", TreePattern::parse("//book").unwrap()));
//!
//! // Register the subscription workload once; cluster over the handles.
//! let subscriptions = engine.register_all(&broker.subscriptions());
//! let clustering = CommunityClustering::cluster(
//!     &engine,
//!     &subscriptions,
//!     CommunityConfig::default(),
//! );
//! let stats = broker.route_stream(&docs, &RoutingStrategy::Community(clustering));
//! assert!(stats.recall() > 0.9);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod community;
mod digest;
pub mod hop;
pub mod naming;
pub mod network;
pub mod stats;
pub mod table;
pub mod topology;
pub mod view;

pub use broker::{Broker, Consumer, RoutingStats, RoutingStrategy};
pub use community::{Community, CommunityClustering, CommunityConfig, IncrementalCommunities};
pub use hop::{HopCounts, LinkRule, RouteOutcome};
pub use network::{BrokerNetwork, ForwardingMode, NetworkConsumer, NetworkStats};
pub use stats::{DeliveryMetrics, LinkMetrics, TableCompaction};
pub use table::{LinkSummary, RoutingTable, TableMode};
pub use topology::{BrokerId, BrokerTopology};
pub use view::{OverlayView, ViewEntry};

// Unit tests of `CommunityClustering::from_clustering` routed by `Broker`,
// under the module path of the semantic overlay they were written against.
#[cfg(test)]
#[path = "overlay_tests.rs"]
mod overlay;
