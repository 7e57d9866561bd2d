//! XML substrate for tree-pattern similarity estimation.
//!
//! This crate provides the document-side data model used throughout the
//! workspace:
//!
//! * [`XmlTree`] — an arena-based, node-labelled tree representation of an
//!   XML document (Section 2 of the paper represents documents as
//!   node-labelled trees; leaf text values such as `"Mozart"` become leaf
//!   nodes whose label is the text itself).
//! * [`scan`] — the XML lexer: a dependency-free, zero-copy streaming
//!   scanner over raw bytes for the element/text subset needed by the
//!   evaluation (attributes, comments, processing instructions and CDATA
//!   sections are accepted and skipped or inlined), emitting skeleton events
//!   into a [`SkeletonSink`]. [`XmlTree::parse`] is one scan into a
//!   tree-building sink.
//! * [`skeleton`] — *skeleton tree* construction: children of a node that
//!   share a tag are coalesced so that every node has at most one child per
//!   tag (Section 3.1).
//! * [`paths`] — enumeration of root-to-leaf label paths, the unit of
//!   insertion into the document synopsis.
//! * [`LabelTable`] — a string interner used by downstream crates to avoid
//!   repeated string hashing when labels are compared frequently.
//!
//! # Example
//!
//! ```
//! use tps_xml::XmlTree;
//!
//! let doc = XmlTree::parse(
//!     "<media><CD><composer><last>Mozart</last></composer></CD></media>",
//! )
//! .unwrap();
//! assert_eq!(doc.label(doc.root()), "media");
//! // Text content becomes a leaf node labelled with the text value.
//! let paths: Vec<String> = doc.root_to_leaf_paths().map(|p| p.join("/")).collect();
//! assert_eq!(paths, vec!["media/CD/composer/last/Mozart".to_string()]);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod label;
pub mod paths;
pub mod scan;
pub mod skeleton;
pub mod stream;
pub mod tree;
pub mod writer;

// `XmlTree::parse`'s unit tests, under the module path of the tree parser
// they were written against.
#[cfg(test)]
#[path = "parse_tests.rs"]
mod parser;

pub use error::XmlError;
pub use label::{LabelId, LabelTable};
pub use scan::{scan_document, scan_str, NullSink, ScanLimits, SkeletonSink};
pub use stream::{BorrowedTrees, DocumentStream, LineStream, StreamError, StreamItem, TreeStream};
pub use tree::{NodeId, XmlNode, XmlTree};
