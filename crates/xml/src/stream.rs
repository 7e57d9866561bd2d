//! Pull-based document streams.
//!
//! The synopsis of the paper is explicitly a *streaming* summary: documents
//! arrive one at a time and are folded into the synopsis without the corpus
//! ever being materialised. [`DocumentStream`] is the pull-based source
//! abstraction that build paths consume: a stream yields [`StreamItem`]s,
//! each either an already-parsed [`XmlTree`] or the raw text of one document
//! still to be parsed. Keeping the *raw* form in the item type is what lets
//! a sharded builder (`tps_core::build_par`) move parsing itself onto worker
//! threads instead of serialising it on the reader.
//!
//! Sources provided here:
//!
//! * [`TreeStream`] — an owned batch of parsed trees (tests, migrations of
//!   existing `Vec<XmlTree>` call sites),
//! * [`cloned_trees`] — the borrowed-slice variant,
//! * [`LineStream`] — line-delimited XML documents from any [`BufRead`]
//!   (files, stdin, in-memory buffers); one non-empty line is one document,
//!   exactly the format `tps generate` emits.
//!
//! Generator-backed streams (documents produced on the fly from a DTD) live
//! in `tps-workload`, which implements [`DocumentStream`] for its
//! [`DocumentGenerator`](https://docs.rs/tps-workload)-driven stream.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use crate::error::XmlError;
use crate::scan::{scan_document, ScanLimits};
use crate::tree::{TreeBuilder, XmlTree};

/// One document pulled from a stream: either parsed already, or the raw
/// text of a single document for the consumer to parse (possibly on a
/// worker thread).
#[derive(Debug, Clone)]
pub enum StreamItem {
    /// An already-parsed document tree.
    Tree(XmlTree),
    /// The raw XML text of one document.
    Raw(String),
    /// The raw bytes of one document, not yet validated as UTF-8. This is
    /// what byte-oriented readers ([`LineStream`]) yield: no per-document
    /// `String` is ever allocated on the reader, and byte-level consumers
    /// ([`crate::scan`], `Synopsis::ingest`) fold the buffer without any
    /// UTF-8 re-copy. Validation happens wherever the bytes are consumed.
    RawBytes(Vec<u8>),
}

impl StreamItem {
    /// Parse the item into a tree (a no-op for [`StreamItem::Tree`]).
    ///
    /// Lossless for every variant: [`StreamItem::RawBytes`] is scanned
    /// straight into the tree, like [`XmlTree::parse`] but UTF-8 validated
    /// first ([`crate::error::XmlErrorKind::InvalidUtf8`] with the offset of
    /// the longest valid prefix on failure).
    pub fn into_tree(self) -> Result<XmlTree, XmlError> {
        match self {
            StreamItem::Tree(tree) => Ok(tree),
            StreamItem::Raw(text) => XmlTree::parse(&text),
            StreamItem::RawBytes(bytes) => {
                let mut builder = TreeBuilder::new();
                scan_document(&bytes, &ScanLimits::default(), &mut builder)?;
                Ok(builder.tree)
            }
        }
    }
}

/// An error produced while pulling from a document stream.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A document failed to parse.
    Parse {
        /// 0-based index of the offending document in the stream.
        document: u64,
        /// The parse failure.
        error: XmlError,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(err) => write!(f, "stream read error: {err}"),
            StreamError::Parse { document, error } => {
                write!(f, "document {document} failed to parse: {error}")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(err) => Some(err),
            StreamError::Parse { error, .. } => Some(error),
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(err: io::Error) -> Self {
        StreamError::Io(err)
    }
}

/// A pull-based stream of XML documents.
///
/// Implementations yield one [`StreamItem`] per document and `None` at end
/// of stream; after an error or `None` the stream should keep returning
/// `None`. The items carry either parsed trees or raw text — callers that
/// need trees use [`DocumentStream::next_document`], callers that want to
/// parallelise parsing pull items and parse them on workers.
pub trait DocumentStream {
    /// Pull the next document item, `None` at end of stream.
    fn next_item(&mut self) -> Option<Result<StreamItem, StreamError>>;

    /// Pull and parse the next document.
    ///
    /// `index` is the 0-based stream position used to report parse errors;
    /// sequential consumers pass their running document count.
    fn next_document(&mut self, index: u64) -> Option<Result<XmlTree, StreamError>> {
        match self.next_item()? {
            Ok(item) => Some(item.into_tree().map_err(|error| StreamError::Parse {
                document: index,
                error,
            })),
            Err(err) => Some(Err(err)),
        }
    }

    /// Pull up to `max` items into `out` (clearing it first). Returns the
    /// number of items pulled; fewer than `max` means end of stream. Used by
    /// chunked builders to fill one batch.
    fn next_batch(&mut self, max: usize, out: &mut Vec<StreamItem>) -> Result<usize, StreamError> {
        out.clear();
        while out.len() < max {
            match self.next_item() {
                None => break,
                Some(Ok(item)) => out.push(item),
                Some(Err(err)) => return Err(err),
            }
        }
        Ok(out.len())
    }
}

impl<S: DocumentStream + ?Sized> DocumentStream for &mut S {
    fn next_item(&mut self) -> Option<Result<StreamItem, StreamError>> {
        (**self).next_item()
    }
}

/// A stream over an owned batch of parsed trees.
#[derive(Debug)]
pub struct TreeStream {
    trees: std::vec::IntoIter<XmlTree>,
}

impl TreeStream {
    /// Stream the given trees in order.
    pub fn new(trees: Vec<XmlTree>) -> Self {
        Self {
            trees: trees.into_iter(),
        }
    }
}

impl DocumentStream for TreeStream {
    fn next_item(&mut self) -> Option<Result<StreamItem, StreamError>> {
        self.trees.next().map(|t| Ok(StreamItem::Tree(t)))
    }
}

/// A stream over a borrowed slice of trees; each document is cloned only
/// as it is pulled, so no second copy of the corpus ever exists at once.
#[derive(Debug)]
pub struct BorrowedTrees<'a> {
    trees: std::slice::Iter<'a, XmlTree>,
}

impl DocumentStream for BorrowedTrees<'_> {
    fn next_item(&mut self) -> Option<Result<StreamItem, StreamError>> {
        self.trees.next().map(|t| Ok(StreamItem::Tree(t.clone())))
    }
}

/// Stream a borrowed slice of trees (cloning each document lazily as it is
/// pulled). Useful for feeding an existing in-memory corpus through the
/// streaming build path.
pub fn cloned_trees(trees: &[XmlTree]) -> BorrowedTrees<'_> {
    BorrowedTrees {
        trees: trees.iter(),
    }
}

/// Line-delimited XML documents from a [`BufRead`] source: every non-empty
/// line is the raw text of one document (the format `tps generate` writes).
///
/// Lines are yielded as [`StreamItem::RawBytes`] — the reader never
/// allocates a `String` or validates UTF-8 per document — so parsing (or
/// byte-level synopsis ingest) happens wherever the consumer chooses:
/// inline for [`DocumentStream::next_document`], on worker threads for
/// sharded builds.
#[derive(Debug)]
pub struct LineStream<R: BufRead> {
    reader: R,
    done: bool,
}

impl<R: BufRead> LineStream<R> {
    /// Stream documents from `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            done: false,
        }
    }
}

impl LineStream<BufReader<File>> {
    /// Stream documents from a file of line-delimited XML.
    pub fn from_path(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufReader::new(File::open(path)?)))
    }
}

impl LineStream<BufReader<io::Stdin>> {
    /// Stream documents from standard input.
    pub fn from_stdin() -> Self {
        Self::new(BufReader::new(io::stdin()))
    }
}

impl<R: BufRead> DocumentStream for LineStream<R> {
    fn next_item(&mut self) -> Option<Result<StreamItem, StreamError>> {
        if self.done {
            return None;
        }
        loop {
            let mut line = Vec::new();
            match self.reader.read_until(b'\n', &mut line) {
                Err(err) => {
                    self.done = true;
                    return Some(Err(StreamError::Io(err)));
                }
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {
                    // Trim ASCII whitespace in place (multi-byte characters
                    // never match, so this cannot split a UTF-8 sequence).
                    while line.last().is_some_and(|b| b.is_ascii_whitespace()) {
                        line.pop();
                    }
                    let lead = line.iter().take_while(|b| b.is_ascii_whitespace()).count();
                    if lead > 0 {
                        line.drain(..lead);
                    }
                    if line.is_empty() {
                        continue;
                    }
                    return Some(Ok(StreamItem::RawBytes(line)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> XmlTree {
        XmlTree::parse(text).unwrap()
    }

    #[test]
    fn tree_stream_yields_every_tree_in_order() {
        let trees = vec![parse("<a/>"), parse("<b><c/></b>")];
        let mut stream = TreeStream::new(trees.clone());
        for (i, expected) in trees.iter().enumerate() {
            let doc = stream.next_document(i as u64).unwrap().unwrap();
            assert_eq!(&doc, expected);
        }
        assert!(stream.next_item().is_none());
    }

    #[test]
    fn cloned_trees_leaves_the_source_untouched() {
        let trees = vec![parse("<a/>")];
        let mut stream = cloned_trees(&trees);
        assert!(stream.next_item().is_some());
        assert_eq!(trees.len(), 1);
    }

    #[test]
    fn line_stream_skips_blank_lines_and_parses_lazily() {
        let text = "<a><b/></a>\n\n  \n<c/>\n";
        let mut stream = LineStream::new(text.as_bytes());
        let first = stream.next_item().unwrap().unwrap();
        assert!(matches!(first, StreamItem::RawBytes(ref b) if b == b"<a><b/></a>"));
        let second = stream.next_document(1).unwrap().unwrap();
        assert_eq!(second.label(second.root()), "c");
        assert!(stream.next_item().is_none());
        assert!(stream.next_item().is_none(), "stays exhausted");
    }

    #[test]
    fn raw_bytes_items_parse_losslessly() {
        let item = StreamItem::RawBytes(b"<a><b/></a>".to_vec());
        let tree = item.into_tree().unwrap();
        assert_eq!(tree, parse("<a><b/></a>"));
        let bad = StreamItem::RawBytes(vec![b'<', 0xFF]);
        let err = bad.into_tree().unwrap_err();
        assert_eq!(*err.kind(), crate::error::XmlErrorKind::InvalidUtf8);
        assert_eq!(err.offset(), 1);
    }

    #[test]
    fn parse_errors_carry_the_document_index() {
        let mut stream = LineStream::new("<a/>\n<not xml\n".as_bytes());
        assert!(stream.next_document(0).unwrap().is_ok());
        let err = stream.next_document(1).unwrap().unwrap_err();
        match err {
            StreamError::Parse { document, .. } => assert_eq!(document, 1),
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn next_batch_fills_up_to_max_and_reports_the_end() {
        let docs: Vec<XmlTree> = (0..5).map(|i| parse(&format!("<d{i}/>"))).collect();
        let mut stream = TreeStream::new(docs);
        let mut batch = Vec::new();
        assert_eq!(stream.next_batch(2, &mut batch).unwrap(), 2);
        assert_eq!(stream.next_batch(2, &mut batch).unwrap(), 2);
        assert_eq!(stream.next_batch(2, &mut batch).unwrap(), 1);
        assert_eq!(stream.next_batch(2, &mut batch).unwrap(), 0);
    }

    #[test]
    fn stream_error_display_mentions_the_cause() {
        let err = StreamError::Parse {
            document: 7,
            error: XmlTree::parse("<a").unwrap_err(),
        };
        let text = err.to_string();
        assert!(text.contains("document 7"), "{text}");
        let io_err = StreamError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
    }

    #[test]
    fn mut_reference_is_a_stream_too() {
        let mut inner = TreeStream::new(vec![parse("<a/>")]);
        let stream: &mut dyn DocumentStream = &mut inner;
        assert!(stream.next_item().is_some());
        assert!(stream.next_item().is_none());
    }
}
