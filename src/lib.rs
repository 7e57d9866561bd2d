//! # Tree-Pattern Similarity Estimation for Scalable Content-based Routing
//!
//! This crate is the top-level facade of a full reproduction of the ICDE 2007
//! paper *"Tree-Pattern Similarity Estimation for Scalable Content-based
//! Routing"* by Chand, Felber and Garofalakis.
//!
//! The workspace implements, from scratch:
//!
//! * an XML tree model with a minimal parser and *skeleton tree*
//!   construction ([`xml`]),
//! * the tree-pattern subscription language (an XPath subset with `*` and
//!   `//`), its matching semantics and containment ([`pattern`]),
//! * the streaming *document synopsis* with three matching-set
//!   representations (counters, reservoir sample sets, Gibbons distinct-hash
//!   samples), the three pruning operations of the paper, and a mergeable
//!   shard-then-merge build over pull-based document streams ([`synopsis`]),
//! * the recursive selectivity algorithm `SEL`, the proximity metrics
//!   `M1`, `M2`, `M3`, and the batch-first `SimilarityEngine` (compiled
//!   pattern handles, epoch-tagged caches, similarity matrices) ([`core`]),
//! * the evaluation workload substrate (synthetic DTDs, an IBM XML
//!   Generator-like document generator, and an XPath workload generator)
//!   ([`workload`]),
//! * the motivating application: clustering subscriptions into semantic
//!   communities for content-based routing ([`routing`]), with a
//!   multi-broker overlay simulation and a semantic peer-to-peer overlay,
//! * a deterministic discrete-event simulator of the broker network under
//!   subscription churn and broker failure/rejoin, with online
//!   re-clustering policies ([`sim`]) over seeded churn scenarios
//!   ([`workload::churn`]),
//! * a live multi-broker runtime serving the same semantics over real
//!   TCP/Unix sockets — hand-rolled length-prefixed binary codec with
//!   typed decode errors and hard frame limits, thread-per-connection
//!   brokers with bounded peer queues, kill/rejoin with wire resync —
//!   conformance-checked counter-exact against the simulator ([`net`]),
//! * community-discovery algorithms over similarity matrices
//!   (agglomerative, k-medoids, leader clustering, MinHash signatures and
//!   quality metrics) ([`cluster`]),
//! * a DTD substrate — parser, validator, writer and DTD-aware pattern
//!   analysis (the paper's Example 1.1 reasoning) ([`dtd`]),
//! * and a static subscription-analysis pass over whole workloads: lint
//!   diagnostics with stable codes (`E001` unsatisfiable, `W002`
//!   contained, `W003` DTD-equivalent duplicates, `W004` cost hazards,
//!   `W005` corpus documents over scanner ingest limits)
//!   and containment-driven routing-table compaction ([`analyze`]).
//!
//! A command-line toolkit (`tps`, in the `tps-cli` crate) exposes the same
//! functionality as subcommands.
//!
//! ## Quick start
//!
//! ```
//! use tree_pattern_similarity::prelude::*;
//!
//! // Parse a few documents and subscriptions.
//! let docs = [
//!     "<media><CD><composer><last>Mozart</last></composer></CD></media>",
//!     "<media><book><author><last>Shakespeare</last></author></book></media>",
//! ];
//!
//! // Build a streaming engine over the document stream, register the
//! // subscriptions once, and query through the returned handles.
//! let mut engine = SimilarityEngine::builder()
//!     .matching_sets(MatchingSetKind::hashes(64))
//!     .metric(ProximityMetric::M3)
//!     .build();
//! for d in docs {
//!     engine.ingest(ingest::text(d)).unwrap();
//! }
//! let p = engine.register(&TreePattern::parse("/media/CD/*/last").unwrap());
//! let q = engine.register(&TreePattern::parse("//composer/last").unwrap());
//! let sim = engine.similarity(p, q, ProximityMetric::M3);
//! assert!((0.0..=1.0).contains(&sim));
//!
//! // Whole workloads evaluate in one batched call; the `_par` variant
//! // fans the same evaluation out over worker threads (the engine is
//! // `Send + Sync`), bit-identical to the sequential matrix.
//! let matrix = engine.similarity_matrix(&[p, q], ProximityMetric::M3);
//! assert_eq!(matrix.get(0, 1), sim);
//! let parallel = engine.similarity_matrix_par(&[p, q], ProximityMetric::M3, 2);
//! assert_eq!(parallel, matrix);
//! ```
//!
//! ## Streaming & sharded synopsis builds
//!
//! The synopsis never needs the corpus in memory: any pull-based
//! [`DocumentStream`](xml::stream::DocumentStream) (line-delimited XML
//! files, stdin, a workload generator) can be folded in incrementally with
//! the sink-based [`Ingest`](synopsis::Ingest) API
//! (`synopsis.ingest(ingest::stream(...))`), or
//! sharded over worker threads with [`core::build_par`], which parses and
//! observes contiguous chunks on scoped workers and
//! [`Synopsis::merge`](synopsis::Synopsis::merge)s the partials —
//! estimate-identical to the sequential build for any shard count:
//!
//! ```
//! use tree_pattern_similarity::prelude::*;
//! use tree_pattern_similarity::xml::stream::LineStream;
//!
//! let corpus = "<a><b/></a>\n<a><c/></a>\n<a><b/><c/></a>\n";
//! let synopsis = build_par(
//!     SynopsisConfig::hashes(64),
//!     LineStream::new(corpus.as_bytes()),
//!     4, // build shards; the estimates are identical for any count
//! )
//! .unwrap();
//! assert_eq!(synopsis.document_count(), 3);
//! let engine = SimilarityEngine::from_synopsis(synopsis);
//! assert_eq!(engine.document_count(), 3);
//! ```
//!
//! ## Simulating subscription churn
//!
//! The [`sim`] crate turns the batch estimator into a live system model: a
//! deterministic discrete-event simulation of the broker network in which
//! subscribers arrive and leave while publications flow, and routing tables
//! / semantic communities are refreshed by a configurable
//! [`ReclusterPolicy`](sim::ReclusterPolicy) (`eager`, `periodic:N`,
//! `churn:N`, `never` — the last quantifies what staleness costs):
//!
//! ```
//! use tree_pattern_similarity::prelude::*;
//!
//! let scenario = ChurnScenario::generate(
//!     &Dtd::media(),
//!     &ChurnConfig {
//!         brokers: 7,
//!         initial_subscribers: 6,
//!         arrivals: 3,
//!         departures: 3,
//!         publications: 25,
//!         ..ChurnConfig::default()
//!     },
//! );
//! let report = Simulation::new(
//!     BrokerTopology::balanced_tree(7, 2),
//!     SimConfig {
//!         recluster: ReclusterPolicy::OnChurn(2),
//!         ..SimConfig::default()
//!     },
//! )
//! .run(&scenario);
//! assert_eq!(report.aggregate.documents, 25);
//! // The aggregates share the DeliveryMetrics derivations with the static
//! // routing stats, so dynamic and batch runs are directly comparable.
//! assert!(report.aggregate.recall() <= 1.0);
//! ```
//!
//! The deprecated `SimilarityEstimator` per-call facade has been removed:
//! replace `SimilarityEstimator::new(config)` + `prepare()` with the engine
//! builder, register each pattern once, and swap hand-rolled pairwise loops
//! for [`core::SimilarityEngine::selectivities`] /
//! [`core::SimilarityEngine::similarity_matrix`] (or its parallel sibling
//! [`core::SimilarityEngine::similarity_matrix_par`]).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tps_analyze as analyze;
pub use tps_cluster as cluster;
pub use tps_core as core;
pub use tps_dtd as dtd;
pub use tps_net as net;
pub use tps_pattern as pattern;
pub use tps_routing as routing;
pub use tps_sim as sim;
pub use tps_synopsis as synopsis;
pub use tps_workload as workload;
pub use tps_xml as xml;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use tps_analyze::{
        CompactionMode, CompactionPlan, LintCode, WorkloadAnalyzer, WorkloadEntry,
    };
    pub use tps_cluster::{
        agglomerative, kmedoids, leader, AgglomerativeConfig, Clustering, KMedoidsConfig,
        LeaderConfig,
    };
    pub use tps_core::{
        build_par, ExactEvaluator, PatternId, ProximityMetric, SelectivityEstimator, SimMatrix,
        SimilarityEngine, SimilarityEngineBuilder,
    };
    pub use tps_dtd::{DtdSchema, PatternAnalyzer, ValidationMode, Validator};
    pub use tps_net::{BrokerClient, FrameLimits, LocalOverlay, Message, OverlayConfig, Transport};
    pub use tps_pattern::TreePattern;
    pub use tps_routing::{
        BrokerNetwork, BrokerTopology, CommunityClustering, CommunityConfig, DeliveryMetrics,
        ForwardingMode, LinkMetrics, TableMode,
    };
    pub use tps_sim::{ReclusterPolicy, SimConfig, SimReport, Simulation};
    pub use tps_synopsis::{
        ingest, Ingest, IngestSource, IngestTarget, MatchingSetKind, Synopsis, SynopsisConfig,
    };
    pub use tps_workload::{
        ChurnConfig, ChurnScenario, Dataset, DatasetConfig, DocGenConfig, Dtd, XPathGenConfig,
    };
    pub use tps_xml::stream::{DocumentStream, LineStream, StreamError, StreamItem, TreeStream};
    pub use tps_xml::XmlTree;
}
