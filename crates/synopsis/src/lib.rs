//! Streaming document synopsis for tree-pattern selectivity estimation.
//!
//! This crate implements Section 3 of the paper: a concise synopsis `HS` of
//! an XML document stream that supports estimating the fraction of documents
//! satisfying boolean combinations of tree patterns.
//!
//! * [`Synopsis`] — the synopsis structure itself, maintained incrementally
//!   from document skeleton trees.
//! * [`MatchingSetKind`] / [`NodeSummary`] / [`SummaryValue`] — the three
//!   matching-set representations (Counters, reservoir Sets, distinct-hash
//!   samples) and the union/intersection/cardinality algebra the selectivity
//!   algorithm needs.
//! * [`DistinctSample`] — Gibbons' distinct sampling.
//! * [`ReservoirSampler`] — keyed (bottom-k) reservoir sampling, the
//!   order-independent equivalent of Vitter's scheme that makes the Sets
//!   representation mergeable.
//! * Ingest — the sink-based [`Ingest`] API folds documents in from any
//!   source: parsed trees, skeletons, pull-based
//!   [`DocumentStream`](tps_xml::stream::DocumentStream)s, or **raw bytes**
//!   driven through the zero-copy streaming scanner (`tps_xml::scan`)
//!   without ever materialising a tree. [`Synopsis::merge`] combines
//!   per-shard partial synopses (counters add, sets re-prune, hash sketches
//!   union) estimate-identically to a sequential build.
//! * Pruning — [`Synopsis::prune_to_ratio`] and the individual fold / delete /
//!   merge operations of Section 3.3.
//!
//! # Example
//!
//! ```
//! use tps_synopsis::{Synopsis, SynopsisConfig};
//! use tps_xml::XmlTree;
//!
//! let docs: Vec<XmlTree> = ["<a><b/></a>", "<a><b/><c/></a>", "<a><c/></a>"]
//!     .iter()
//!     .map(|s| XmlTree::parse(s).unwrap())
//!     .collect();
//! let mut synopsis = Synopsis::from_documents(SynopsisConfig::hashes(128), &docs);
//! synopsis.prepare();
//! assert_eq!(synopsis.document_count(), 3);
//! assert_eq!(synopsis.universe_value().count_units(), 3.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distinct;
pub mod docid;
pub mod hash;
pub mod ingest;
pub mod prune;
pub mod reservoir;
pub mod summary;
// invariant: the crate-eponymous module holds the eponymous type
#[allow(clippy::module_inception)]
pub mod synopsis;

pub use distinct::DistinctSample;
pub use docid::{DocId, DocSet};
pub use ingest::{Ingest, IngestSource, IngestTarget};
pub use prune::{PruneConfig, PruneReport};
pub use reservoir::{ReservoirDecision, ReservoirSampler};
pub use summary::{MatchingSetKind, NodeSummary, SummaryValue};
pub use synopsis::{FoldedSubtree, Synopsis, SynopsisConfig, SynopsisNodeId, SynopsisSize};
