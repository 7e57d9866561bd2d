//! Semantic-community discovery over tree-pattern similarities.
//!
//! The paper's motivation is to gather consumers with similar subscriptions
//! into *semantic communities* so that documents can be disseminated within a
//! community without per-consumer filtering. The core contribution — the
//! similarity estimator — provides the pairwise proximity values; this crate
//! supplies everything needed to turn them into communities:
//!
//! * [`SimMatrix`](tps_core::SimMatrix) — dense pairwise similarities (estimated by
//!   [`SimilarityEngine::similarity_matrix`], exact by
//!   [`ExactEvaluator::similarity_matrix`]), from `tps-core`,
//! * [`agglomerative()`] / [`kmedoids()`] / [`leader()`] — three clustering
//!   algorithms with different cost/quality/online trade-offs,
//! * [`Clustering`] — the shared partition representation,
//! * [`index`] — the sub-quadratic path: the banded MinHash
//!   [`CandidateIndex`] re-exported from `tps-core` plus [`OnlineLeader`],
//!   incremental candidate-filtered leader clustering that absorbs
//!   subscribe/unsubscribe churn without full re-clustering,
//! * [`minhash`] — MinHash signatures over structural pattern features, the
//!   cheap first pass when the subscription population is large,
//! * [`quality`] — geometric quality (intra/inter similarity, silhouette).
//!
//! [`SimilarityEngine::similarity_matrix`]: tps_core::SimilarityEngine::similarity_matrix
//! [`ExactEvaluator::similarity_matrix`]: tps_core::ExactEvaluator::similarity_matrix
//!
//! # Example
//!
//! ```
//! use tps_cluster::{agglomerative, AgglomerativeConfig};
//! use tps_core::{ProximityMetric, SimilarityEngine};
//! use tps_pattern::TreePattern;
//! use tps_synopsis::{ingest, Ingest, SynopsisConfig};
//! use tps_xml::XmlTree;
//!
//! let docs: Vec<XmlTree> = [
//!     "<media><CD><title>A</title></CD></media>",
//!     "<media><book><author>B</author></book></media>",
//! ]
//! .iter()
//! .map(|s| XmlTree::parse(s).unwrap())
//! .collect();
//! let mut engine = SimilarityEngine::new(SynopsisConfig::sets(64));
//! engine.ingest(ingest::trees(&docs)).unwrap();
//!
//! let subscriptions: Vec<TreePattern> = ["//CD", "//CD/title", "//book"]
//!     .iter()
//!     .map(|s| TreePattern::parse(s).unwrap())
//!     .collect();
//! let ids = engine.register_all(&subscriptions);
//! // `similarity_matrix_par(.., threads)` computes the same matrix on
//! // worker threads, bit-identical to the sequential path.
//! let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
//! let communities = agglomerative(&matrix, AgglomerativeConfig::default()).clustering;
//! assert!(communities.same_cluster(0, 1));
//! assert!(!communities.same_cluster(0, 2));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod assignment;
pub mod index;
pub mod kmedoids;
pub mod leader;
pub mod minhash;
pub mod quality;

pub use agglomerative::{agglomerative, AgglomerativeConfig, Dendrogram, Linkage, Merge};
pub use assignment::Clustering;
pub use index::{pattern_features, CandidateIndex, LshConfig, OnlineLeader};
pub use kmedoids::{kmedoids, KMedoidsConfig, KMedoidsResult};
pub use leader::{leader, LeaderConfig, LeaderResult};
pub use minhash::{MinHashSignature, SignatureWidthMismatch};
pub use quality::{evaluate, silhouette, ClusterQuality};

/// The former name of the dense similarity matrix, now
/// [`tps_core::SimMatrix`]. Nothing in the workspace uses it: the
/// repository benchmark (`benchmark/src/layers.rs`) imports it and writes
/// `let matrix: SimilarityMatrix = matrix.into();`, which is the identity
/// `From`.
pub use tps_core::SimMatrix as SimilarityMatrix;
