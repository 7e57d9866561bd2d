//! The XML lexer: a byte-level streaming skeleton scanner (zero-copy
//! ingest).
//!
//! The synopsis of the paper is maintained from *skeleton events* — which
//! element labels open, close and carry text along each root-to-node path —
//! not from document trees. [`scan_document`] walks raw document bytes with
//! a hand-rolled byte classification table and a cursor,
//! emitting exactly those events into a [`SkeletonSink`]:
//!
//! * [`SkeletonSink::open`]`(label)` — a start tag was consumed,
//! * [`SkeletonSink::text`]`(label)` — a non-empty trimmed character-data
//!   run became a text leaf (entities decoded, CDATA inlined),
//! * [`SkeletonSink::close`] — the matching end tag (or the `/>` of a
//!   self-closing tag) was consumed.
//!
//! Labels are handed over as [`Cow`]: element names and entity-free text
//! runs borrow straight from the input, only entity decoding or
//! CDATA-spliced runs allocate. A sink can fold a document into a synopsis
//! in one pass over the bytes without materialising a tree.
//!
//! This is the only XML lexer of the workspace: [`XmlTree::parse`] is one
//! scan into a tree-building sink, so trees, synopses and matchers accept
//! and reject the same documents, with the same [`XmlError`] kinds and byte
//! offsets. The accepted subset is what the evaluation needs:
//!
//! * elements with arbitrary nesting and self-closing tags,
//! * attributes (checked for well-formedness, then ignored — the paper's
//!   tree patterns do not address attributes),
//! * character data, trimmed; a non-empty run becomes a text leaf,
//! * XML declarations, processing instructions, comments and `DOCTYPE`
//!   declarations (skipped) and CDATA sections (inlined into the text),
//! * the five predefined entity references plus decimal/hex character
//!   references.
//!
//! Anything else is an [`XmlError`]. Resource limits (nesting depth,
//! attribute count) are explicit via [`ScanLimits`].
//!
//! [`XmlTree::parse`]: crate::XmlTree::parse

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind};

/// Default maximum element nesting depth (root = depth 1). Tree walks
/// downstream recurse over element nesting, so the bound keeps arbitrary
/// input from exhausting the stack; real documents stay far below it.
pub(crate) const MAX_DEPTH: usize = 512;

/// Default maximum number of attributes on a single start tag.
pub(crate) const MAX_ATTRIBUTES: usize = 1024;

/// Explicit resource limits for one scan.
///
/// The defaults are the limits [`XmlTree::parse`](crate::XmlTree::parse)
/// and byte-level ingest run under. Tightened limits are useful for corpus
/// linting (`tps lint --corpus`) and for bounding adversarial input in
/// fuzzing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanLimits {
    /// Maximum element nesting depth (root = depth 1). A non-self-closing
    /// element *at* this depth is rejected.
    pub max_depth: usize,
    /// Maximum number of attributes on a single start tag.
    pub max_attributes: usize,
}

impl Default for ScanLimits {
    fn default() -> Self {
        Self {
            max_depth: MAX_DEPTH,
            max_attributes: MAX_ATTRIBUTES,
        }
    }
}

/// Receiver of skeleton events from [`scan_document`].
///
/// Events arrive in document order and are properly nested: every `open` is
/// eventually matched by a `close` (self-closing tags emit the pair
/// back-to-back), `text` only fires between the events of its parent
/// element, and the label borrows from the scanned input whenever the bytes
/// allow it.
pub trait SkeletonSink {
    /// A start tag `<label ...>` (or `<label ... />`) was consumed.
    fn open(&mut self, label: Cow<'_, str>);
    /// A non-empty, trimmed character-data run under the current element.
    fn text(&mut self, label: Cow<'_, str>);
    /// The current element closed.
    fn close(&mut self);
}

/// A sink that discards every event — useful for validating documents
/// against [`ScanLimits`] (e.g. corpus linting) without building anything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl SkeletonSink for NullSink {
    fn open(&mut self, _label: Cow<'_, str>) {}
    fn text(&mut self, _label: Cow<'_, str>) {}
    fn close(&mut self) {}
}

// Byte classification table: one lookup replaces the chains of range and
// equality tests in the hot loops (name runs, character-data runs,
// whitespace). Non-ASCII bytes classify as name bytes (UTF-8 continuation
// bytes are all >= 0x80, so multi-byte names stay intact).
const CLASS_WS: u8 = 1 << 0;
const CLASS_NAME_START: u8 = 1 << 1;
const CLASS_NAME: u8 = 1 << 2;
const CLASS_LT: u8 = 1 << 3;
const CLASS_AMP: u8 = 1 << 4;

const fn build_class_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        let mut class = 0u8;
        if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
            class |= CLASS_WS;
        }
        if b.is_ascii_alphabetic() || b == b'_' || b == b':' || !b.is_ascii() {
            class |= CLASS_NAME_START | CLASS_NAME;
        }
        if b.is_ascii_digit() || b == b'-' || b == b'.' {
            class |= CLASS_NAME;
        }
        if b == b'<' {
            class |= CLASS_LT;
        }
        if b == b'&' {
            class |= CLASS_AMP;
        }
        table[i] = class;
        i += 1;
    }
    table
}

static CLASS: [u8; 256] = build_class_table();

/// Scan one document given as raw bytes, emitting skeleton events into
/// `sink`.
///
/// The bytes are validated as UTF-8 up front (zero-copy —
/// [`XmlErrorKind::InvalidUtf8`] on failure, with the offset at the end of
/// the longest valid prefix); everything after that borrows from the input.
pub fn scan_document<S: SkeletonSink>(
    bytes: &[u8],
    limits: &ScanLimits,
    sink: &mut S,
) -> Result<(), XmlError> {
    let input = std::str::from_utf8(bytes)
        .map_err(|e| XmlError::new(XmlErrorKind::InvalidUtf8, e.valid_up_to()))?;
    scan_str(input, limits, sink)
}

/// [`scan_document`] for input that is already known to be valid UTF-8.
pub fn scan_str<S: SkeletonSink>(
    input: &str,
    limits: &ScanLimits,
    sink: &mut S,
) -> Result<(), XmlError> {
    let mut cursor = Cursor::new(input);
    cursor.skip_prolog()?;
    cursor.skip_whitespace();
    if cursor.peek() != Some(b'<') || cursor.starts_with("</") {
        return Err(cursor.err(XmlErrorKind::NoRootElement));
    }
    let (root, self_closing) = cursor.parse_start_tag(limits.max_attributes)?;
    sink.open(Cow::Borrowed(root));
    if self_closing {
        sink.close();
    } else {
        scan_content(&mut cursor, limits, sink, root)?;
    }
    // After the root element, only misc (whitespace, comments, PIs) remains.
    loop {
        cursor.skip_whitespace();
        if cursor.at_end() {
            return Ok(());
        }
        if cursor.starts_with("<!--") {
            cursor.skip_comment()?;
        } else if cursor.starts_with("<?") {
            cursor.skip_pi()?;
        } else {
            return Err(cursor.err(XmlErrorKind::TrailingContent));
        }
    }
}

/// Scan the content of the (non-self-closing) root element to its end tag.
///
/// Iterative: the open-element stack is an explicit `Vec` of borrowed
/// names, with one pending text buffer per open element (text is flushed to
/// the sink when markup other than CDATA interrupts it).
fn scan_content<'a, S: SkeletonSink>(
    cursor: &mut Cursor<'a>,
    limits: &ScanLimits,
    sink: &mut S,
    root: &'a str,
) -> Result<(), XmlError> {
    let mut stack: Vec<&'a str> = vec![root];
    let mut texts: Vec<TextBuf<'a>> = vec![TextBuf::Empty];
    let depth_error = |cursor: &Cursor<'a>| {
        cursor.err(XmlErrorKind::LimitExceeded {
            what: "element nesting depth",
            limit: limits.max_depth,
        })
    };
    if stack.len() >= limits.max_depth {
        return Err(depth_error(cursor));
    }
    loop {
        if cursor.at_end() {
            return Err(cursor.err(XmlErrorKind::UnexpectedEof));
        }
        if cursor.starts_with("<!--") {
            flush_text(&mut texts, sink);
            cursor.skip_comment()?;
        } else if cursor.starts_with("<![CDATA[") {
            // CDATA splices into the running text buffer without a flush
            // (`<a>x<![CDATA[y]]>z</a>` is one leaf).
            let start = cursor.pos + 9;
            match cursor.input[start..].find("]]>") {
                Some(rel) => {
                    push_borrowed(&mut texts, &cursor.input[start..start + rel]);
                    cursor.pos = start + rel + 3;
                }
                None => {
                    cursor.pos = cursor.bytes.len();
                    return Err(cursor.err(XmlErrorKind::UnexpectedEof));
                }
            }
        } else if cursor.starts_with("<?") {
            flush_text(&mut texts, sink);
            cursor.skip_pi()?;
        } else if cursor.starts_with("</") {
            flush_text(&mut texts, sink);
            let close = cursor.parse_end_tag()?;
            // invariant: the loop returns when the stack empties, so it is
            // non-empty on every iteration
            let expected = stack.pop().expect("open-element stack is non-empty");
            texts.pop();
            if close != expected {
                return Err(cursor.err(XmlErrorKind::MismatchedClosingTag {
                    expected: expected.to_string(),
                    found: close.to_string(),
                }));
            }
            sink.close();
            if stack.is_empty() {
                return Ok(());
            }
        } else if cursor.peek() == Some(b'<') {
            flush_text(&mut texts, sink);
            let (name, self_closing) = cursor.parse_start_tag(limits.max_attributes)?;
            sink.open(Cow::Borrowed(name));
            if self_closing {
                sink.close();
            } else {
                stack.push(name);
                texts.push(TextBuf::Empty);
                if stack.len() >= limits.max_depth {
                    return Err(depth_error(cursor));
                }
            }
        } else {
            // Character data: run to the next '<' with the classification
            // table, decoding entities only when the run contains '&'.
            let start = cursor.pos;
            let mut saw_amp = false;
            while let Some(&b) = cursor.bytes.get(cursor.pos) {
                let class = CLASS[b as usize];
                if class & CLASS_LT != 0 {
                    break;
                }
                saw_amp |= class & CLASS_AMP != 0;
                cursor.pos += 1;
            }
            let raw = &cursor.input[start..cursor.pos];
            if saw_amp {
                push_owned(&mut texts, decode_entities(raw, start)?);
            } else {
                push_borrowed(&mut texts, raw);
            }
        }
    }
}

/// Pending character data of one open element: borrowed from the input for
/// a single entity-free run, owned only once decoding or splicing forces a
/// copy.
enum TextBuf<'a> {
    Empty,
    Borrowed(&'a str),
    Owned(String),
}

fn push_borrowed<'a>(texts: &mut [TextBuf<'a>], run: &'a str) {
    if run.is_empty() {
        return;
    }
    // invariant: `texts` parallels the open-element stack, non-empty in content
    let buf = texts.last_mut().expect("one text buffer per open element");
    match buf {
        TextBuf::Empty => *buf = TextBuf::Borrowed(run),
        TextBuf::Borrowed(prev) => {
            let mut owned = String::with_capacity(prev.len() + run.len());
            owned.push_str(prev);
            owned.push_str(run);
            *buf = TextBuf::Owned(owned);
        }
        TextBuf::Owned(owned) => owned.push_str(run),
    }
}

fn push_owned(texts: &mut [TextBuf<'_>], run: String) {
    if run.is_empty() {
        return;
    }
    // invariant: `texts` parallels the open-element stack, non-empty in content
    let buf = texts.last_mut().expect("one text buffer per open element");
    match buf {
        TextBuf::Empty => *buf = TextBuf::Owned(run),
        TextBuf::Borrowed(prev) => {
            let mut owned = String::with_capacity(prev.len() + run.len());
            owned.push_str(prev);
            owned.push_str(&run);
            *buf = TextBuf::Owned(owned);
        }
        TextBuf::Owned(owned) => owned.push_str(&run),
    }
}

/// Flush the innermost pending text buffer: trim it and, when non-empty,
/// emit it as a text event.
fn flush_text<S: SkeletonSink>(texts: &mut [TextBuf<'_>], sink: &mut S) {
    // invariant: `texts` parallels the open-element stack, non-empty in content
    let buf = texts.last_mut().expect("one text buffer per open element");
    match std::mem::replace(buf, TextBuf::Empty) {
        TextBuf::Empty => {}
        TextBuf::Borrowed(s) => {
            let trimmed = s.trim();
            if !trimmed.is_empty() {
                sink.text(Cow::Borrowed(trimmed));
            }
        }
        TextBuf::Owned(s) => {
            let trimmed = s.trim();
            if trimmed.is_empty() {
                return;
            }
            if trimmed.len() == s.len() {
                sink.text(Cow::Owned(s));
            } else {
                sink.text(Cow::Owned(trimmed.to_string()));
            }
        }
    }
}

/// Byte cursor over the (UTF-8 validated) input; every error carries the
/// cursor's byte offset.
struct Cursor<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Whether the input continues with `prefix` at the cursor. The
    /// prefixes are short ASCII literals: comparing bytes needs no char
    /// boundary check, and the loop fails on the first differing byte.
    #[inline]
    fn starts_with(&self, prefix: &str) -> bool {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        rest.len() >= prefix.len() && prefix.bytes().zip(rest).all(|(p, &b)| p == b)
    }

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if CLASS[b as usize] & CLASS_WS == 0 {
                break;
            }
            self.pos += 1;
        }
    }

    /// Skip the XML declaration, comments, PIs and DOCTYPE before the root.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), XmlError> {
        debug_assert!(self.starts_with("<?"));
        match self.input[self.pos..].find("?>") {
            Some(rel) => {
                self.pos += rel + 2;
                Ok(())
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(XmlErrorKind::UnexpectedEof))
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), XmlError> {
        debug_assert!(self.starts_with("<!--"));
        match self.input[self.pos + 4..].find("-->") {
            Some(rel) => {
                self.pos += 4 + rel + 3;
                Ok(())
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(XmlErrorKind::UnexpectedEof))
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err(XmlErrorKind::UnexpectedEof))
    }

    /// Parse `<name attr="v" ...>` or `<name ... />`. Returns the borrowed
    /// element name and whether the tag was self-closing.
    fn parse_start_tag(&mut self, max_attributes: usize) -> Result<(&'a str, bool), XmlError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let name = self.parse_name()?;
        let mut attributes = 0usize;
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((name, false));
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok((name, true));
                    }
                    return Err(self.err(XmlErrorKind::Malformed(
                        "expected '>' after '/' in tag".to_string(),
                    )));
                }
                Some(_) => {
                    attributes += 1;
                    if attributes > max_attributes {
                        return Err(self.err(XmlErrorKind::LimitExceeded {
                            what: "attribute count",
                            limit: max_attributes,
                        }));
                    }
                    self.parse_attribute()?;
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_end_tag(&mut self) -> Result<&'a str, XmlError> {
        debug_assert!(self.starts_with("</"));
        self.pos += 2;
        let name = self.parse_name()?;
        self.skip_whitespace();
        match self.peek() {
            Some(b'>') => {
                self.pos += 1;
                Ok(name)
            }
            Some(_) => Err(self.err(XmlErrorKind::Malformed(
                "expected '>' in closing tag".to_string(),
            ))),
            None => Err(self.err(XmlErrorKind::UnexpectedEof)),
        }
    }

    fn parse_attribute(&mut self) -> Result<(), XmlError> {
        let _name = self.parse_name()?;
        self.skip_whitespace();
        if self.peek() != Some(b'=') {
            return Err(self.err(XmlErrorKind::Malformed(
                "attribute without '=' value".to_string(),
            )));
        }
        self.pos += 1;
        self.skip_whitespace();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(_) => {
                return Err(self.err(XmlErrorKind::Malformed(
                    "attribute value must be quoted".to_string(),
                )))
            }
            None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
        };
        self.pos += 1;
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == quote {
                return Ok(());
            }
        }
        Err(self.err(XmlErrorKind::UnexpectedEof))
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            let class = CLASS[b as usize];
            let wanted = if self.pos == start {
                CLASS_NAME_START
            } else {
                CLASS_NAME
            };
            if class & wanted == 0 {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            let ctx: String = self.input[self.pos..].chars().take(8).collect();
            return Err(self.err(XmlErrorKind::InvalidName(ctx)));
        }
        Ok(&self.input[start..self.pos])
    }
}

/// Decode the predefined entities and numeric character references of `raw`,
/// a character-data run starting at byte `offset` of the input.
fn decode_entities(raw: &str, offset: usize) -> Result<String, XmlError> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        // Collect up to ';', giving up past ten characters.
        let mut entity = String::new();
        let mut closed = false;
        for (_, e) in chars.by_ref() {
            if e == ';' {
                closed = true;
                break;
            }
            entity.push(e);
            if entity.len() > 10 {
                break;
            }
        }
        let decoded = match entity.as_str() {
            _ if !closed => None,
            "lt" => Some('<'),
            "gt" => Some('>'),
            "amp" => Some('&'),
            "apos" => Some('\''),
            "quot" => Some('"'),
            _ => match entity
                .strip_prefix("#x")
                .or_else(|| entity.strip_prefix("#X"))
            {
                Some(hex) => u32::from_str_radix(hex, 16).ok(),
                None => entity.strip_prefix('#').and_then(|dec| dec.parse().ok()),
            }
            .and_then(char::from_u32),
        };
        match decoded {
            Some(ch) => out.push(ch),
            None => {
                let kind = XmlErrorKind::InvalidEntity(entity);
                return Err(XmlError::new(kind, offset + i));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every event, tagging whether its label was borrowed.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
        owned_labels: usize,
    }

    impl SkeletonSink for Recorder {
        fn open(&mut self, label: Cow<'_, str>) {
            if matches!(label, Cow::Owned(_)) {
                self.owned_labels += 1;
            }
            self.events.push(format!("open {label}"));
        }
        fn text(&mut self, label: Cow<'_, str>) {
            if matches!(label, Cow::Owned(_)) {
                self.owned_labels += 1;
            }
            self.events.push(format!("text {label}"));
        }
        fn close(&mut self) {
            self.events.push("close".to_string());
        }
    }

    fn events(input: &str) -> Vec<String> {
        let mut sink = Recorder::default();
        scan_document(input.as_bytes(), &ScanLimits::default(), &mut sink).unwrap();
        sink.events
    }

    #[test]
    fn emits_open_text_close_in_document_order() {
        assert_eq!(
            events("<p>hello <b>world</b> bye</p>"),
            vec![
                "open p",
                "text hello",
                "open b",
                "text world",
                "close",
                "text bye",
                "close",
            ]
        );
    }

    #[test]
    fn self_closing_tags_emit_an_open_close_pair() {
        assert_eq!(
            events("<a><b/></a>"),
            vec!["open a", "open b", "close", "close"]
        );
    }

    #[test]
    fn names_and_plain_text_borrow_from_the_input() {
        let mut sink = Recorder::default();
        scan_document(
            "<a attr='v'>plain <b/> runs</a>".as_bytes(),
            &ScanLimits::default(),
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.owned_labels, 0, "no allocation for entity-free input");
    }

    #[test]
    fn entity_decoding_and_cdata_splicing_allocate() {
        assert_eq!(
            events("<a>x&amp;y</a>"),
            vec!["open a", "text x&y", "close"]
        );
        assert_eq!(
            events("<a>x<![CDATA[<raw>]]>y</a>"),
            vec!["open a", "text x<raw>y", "close"]
        );
        let mut sink = Recorder::default();
        scan_document(
            "<a>x&amp;y</a>".as_bytes(),
            &ScanLimits::default(),
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.owned_labels, 1);
    }

    #[test]
    fn comments_and_pis_flush_text_like_the_parser() {
        assert_eq!(
            events("<a>x<!-- c -->y<?pi?>z</a>"),
            vec!["open a", "text x", "text y", "text z", "close"]
        );
    }

    #[test]
    fn invalid_utf8_is_reported_with_the_valid_prefix_length() {
        let mut bytes = b"<a>ok".to_vec();
        bytes.push(0xFF);
        let err = scan_document(&bytes, &ScanLimits::default(), &mut NullSink).unwrap_err();
        assert_eq!(*err.kind(), XmlErrorKind::InvalidUtf8);
        assert_eq!(err.offset(), 5);
    }

    #[test]
    fn depth_limit_matches_the_tree_parser() {
        let limits = ScanLimits::default();
        let input = "<a>".repeat(MAX_DEPTH * 2);
        let scan_err = scan_document(input.as_bytes(), &limits, &mut NullSink).unwrap_err();
        // The tree parser's error: right after the 512th start tag.
        let depth = XmlErrorKind::LimitExceeded {
            what: "element nesting depth",
            limit: 512,
        };
        assert_eq!(scan_err, XmlError::new(depth, 1536));
        // Custom limits bite earlier.
        let tight = ScanLimits {
            max_depth: 4,
            ..ScanLimits::default()
        };
        let err = scan_document(
            "<a><b><c><d/></c></b></a>".as_bytes(),
            &tight,
            &mut NullSink,
        );
        assert!(err.is_ok(), "self-closing at the limit is fine");
        let err = scan_document(
            "<a><b><c><d></d></c></b></a>".as_bytes(),
            &tight,
            &mut NullSink,
        )
        .unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::LimitExceeded { what, limit }
                if *what == "element nesting depth" && *limit == 4
        ));
    }

    #[test]
    fn attribute_limit_is_configurable() {
        let tight = ScanLimits {
            max_attributes: 2,
            ..ScanLimits::default()
        };
        assert!(scan_document(r#"<a x="1" y="2"/>"#.as_bytes(), &tight, &mut NullSink).is_ok());
        let err = scan_document(
            r#"<a x="1" y="2" z="3"/>"#.as_bytes(),
            &tight,
            &mut NullSink,
        )
        .unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::LimitExceeded { what, limit }
                if *what == "attribute count" && *limit == 2
        ));
    }

    #[test]
    fn prolog_epilog_and_errors_mirror_the_parser() {
        // Each expectation is the outcome the tree parser gave the input.
        use XmlErrorKind::*;
        let malformed = |what: &str| Malformed(what.to_string());
        let mismatched = MismatchedClosingTag {
            expected: "b".to_string(),
            found: "c".to_string(),
        };
        for (input, expected) in [
            (
                r#"<?xml version="1.0"?><!DOCTYPE a []><a><!-- c --><b/></a><!-- t -->"#,
                None,
            ),
            ("<a>&lt;x&gt;</a>", None),
            ("<données><été>chaud</été></données>", None),
            ("<a/><b/>", Some((TrailingContent, 4))),
            ("</a>", Some((NoRootElement, 0))),
            ("<a><b></c></a>", Some((mismatched, 10))),
            (
                "<a attr></a>",
                Some((malformed("attribute without '=' value"), 7)),
            ),
            (
                "<a attr=1></a>",
                Some((malformed("attribute value must be quoted"), 8)),
            ),
            (
                "<a>&nope;</a>",
                Some((InvalidEntity("nope".to_string()), 3)),
            ),
            ("<a><b>", Some((UnexpectedEof, 6))),
            ("   ", Some((NoRootElement, 3))),
            ("<a><![CDATA[never closed", Some((UnexpectedEof, 24))),
        ] {
            let scanned = scan_document(input.as_bytes(), &ScanLimits::default(), &mut NullSink);
            let expected = match expected {
                None => Ok(()),
                Some((kind, offset)) => Err(XmlError::new(kind, offset)),
            };
            assert_eq!(scanned, expected, "input: {input:?}");
        }
    }
}
