//! Tree-pattern subscriptions: the XPath subset of the paper.
//!
//! A *tree pattern* (Section 2 of the paper) is an unordered node-labelled
//! tree whose nodes carry one of four labels:
//!
//! * the special root label `/.` ([`PatternLabel::Root`]), only at the root,
//! * a tag name ([`PatternLabel::Tag`]),
//! * the wildcard `*` ([`PatternLabel::Wildcard`]) matching any single tag,
//! * the descendant operator `//` ([`PatternLabel::Descendant`]) matching a
//!   (possibly empty) downward path.
//!
//! The crate provides:
//!
//! * [`TreePattern`] — the pattern representation with a programmatic
//!   builder API: one shared, immutable allocation holding a node array, an
//!   edge array and one text buffer of every tag, so a pattern is at most
//!   four heap allocations, `clone` copies nothing, and adding a node to a
//!   clone copies on write (see [`pattern`]),
//! * [`parser`] — a parser for the XPath-like concrete syntax
//!   (`/media/CD/*/last/Mozart`, `//CD/Mozart`, `/a[b][c//d]`,
//!   `.[//CD][//Mozart]`),
//! * [`matching`] — the exact matching semantics `T |= p` used for ground
//!   truth in the evaluation,
//! * [`PatternSet`] — a shared-prefix step forest that matches one document
//!   against a whole subscription set in a single walk, exactly,
//! * [`containment`] — a sound homomorphism-based containment test
//!   (`p ⊑ q`), the classic alternative proximity notion that the paper
//!   argues is *not* sufficient for semantic communities,
//! * [`ops`] — structural operations: root-merge (the conjunction `p ∧ q`
//!   used by the proximity metrics), normalisation and statistics.
//!
//! # Example
//!
//! ```
//! use tps_pattern::TreePattern;
//! use tps_xml::XmlTree;
//!
//! let doc = XmlTree::parse(
//!     "<media><CD><composer><last>Mozart</last></composer></CD></media>",
//! )
//! .unwrap();
//! let pa = TreePattern::parse("/media/CD/*/last/Mozart").unwrap();
//! let pb = TreePattern::parse("//CD/Mozart").unwrap();
//! assert!(pa.matches(&doc));
//! assert!(!pb.matches(&doc));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod compiled;
pub mod containment;
pub mod error;
pub mod matching;
pub mod ops;
pub mod parser;
pub mod pattern;
pub mod set;

pub use compiled::{CompiledPattern, SubtreeInterner, SubtreeKeyId};
pub use error::PatternParseError;
pub use pattern::{PatternLabel, PatternNodeId, TreePattern};
pub use set::{PathCacheStats, PatternSet};
