//! Tree-pattern selectivity and similarity estimation — the paper's primary
//! contribution (Sections 4 and 2).
//!
//! * [`SimilarityEngine`] — the batch-first evaluation engine: register a
//!   subscription workload once (interned, pre-compiled [`PatternId`]
//!   handles), then query selectivities, similarities and whole
//!   [`SimMatrix`] similarity matrices through epoch-tagged caches that are
//!   invalidated exactly when the synopsis changes. The engine is
//!   `Send + Sync`; [`SimilarityEngine::similarity_matrix_par`] fans the
//!   matrix evaluation out over scoped worker threads (see [`par`]).
//! * [`SelectivityEstimator`] — the recursive `SEL` algorithm (Algorithm 1/2)
//!   evaluated per call over a [`tps_synopsis::Synopsis`], supporting all
//!   three matching-set representations.
//! * [`ProximityMetric`] — the `M1`, `M2`, `M3` proximity metrics of
//!   Section 4.
//! * [`ExactEvaluator`] — ground-truth selectivities/similarities over a
//!   stored document collection (used by the evaluation harness and by tests).
//! * [`build_par`] — sharded, streaming synopsis construction: chunks of a
//!   pull-based [`DocumentStream`](tps_xml::stream::DocumentStream) are
//!   parsed and observed on scoped workers and the per-shard partial
//!   synopses [`merge`](tps_synopsis::Synopsis::merge)d, estimate-identical
//!   to the sequential build (see [`build`]).
//! * [`CandidateIndex`] / [`LshConfig`] — the sub-quadratic first pass: a
//!   banded MinHash index over structural pattern signatures that narrows
//!   all-pairs similarity work to candidate pairs
//!   ([`SimilarityEngine::similarity_candidates`]).
//!
//! The deprecated `SimilarityEstimator` shim has been removed; the engine is
//! the only evaluation surface. See the `README` migration note — in short,
//! `register` patterns once and query through handles.
//!
//! # Example
//!
//! ```
//! use tps_core::{ExactEvaluator, ProximityMetric, SimilarityEngine};
//! use tps_pattern::TreePattern;
//! use tps_synopsis::{ingest, Ingest, MatchingSetKind};
//! use tps_xml::XmlTree;
//!
//! let docs: Vec<XmlTree> = ["<a><b/><c/></a>", "<a><b/></a>", "<a><c/></a>"]
//!     .iter()
//!     .map(|s| XmlTree::parse(s).unwrap())
//!     .collect();
//!
//! let mut engine = SimilarityEngine::builder()
//!     .matching_sets(MatchingSetKind::hashes(64))
//!     .metric(ProximityMetric::M3)
//!     .build();
//! engine.ingest(ingest::trees(&docs)).unwrap();
//! let p = engine.register(&TreePattern::parse("/a/b").unwrap());
//!
//! // The estimate agrees with the exact evaluator on this tiny stream.
//! let exact = ExactEvaluator::new(docs.clone());
//! let q = TreePattern::parse("/a/b").unwrap();
//! assert!((engine.selectivity(p) - exact.selectivity(&q)).abs() < 1e-9);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod engine;
mod eval;
pub mod exact;
pub mod index;
mod matrix;
pub mod metrics;
pub mod par;
pub mod selectivity;

pub use build::build_par;
pub use engine::{
    EngineCacheStats, PatternId, SharedContainmentOracle, SimilarityEngine, SimilarityEngineBuilder,
};
pub use exact::ExactEvaluator;
pub use index::{pattern_features, CandidateIndex, LshConfig};
pub use matrix::SimMatrix;
pub use metrics::ProximityMetric;
pub use selectivity::SelectivityEstimator;
