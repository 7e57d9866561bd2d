//! A minimal, dependency-free XML parser.
//!
//! The evaluation of the paper only needs element structure and leaf text
//! values, so this parser supports:
//!
//! * elements with arbitrary nesting and self-closing tags,
//! * attributes (parsed for well-formedness and then ignored — the paper's
//!   tree patterns do not address attributes),
//! * text content, which is attached as a *text leaf node* labelled with the
//!   trimmed text,
//! * XML declarations (`<?xml ...?>`), processing instructions, comments,
//!   `DOCTYPE` declarations and CDATA sections (CDATA text is inlined),
//! * the five predefined entity references plus decimal/hex character
//!   references.
//!
//! Anything outside this subset is reported as an [`XmlError`].

use crate::error::{XmlError, XmlErrorKind};
use crate::tree::{NodeId, XmlTree};

/// Maximum element nesting depth (root = depth 1). Recursion over element
/// content is proportional to this, so the bound keeps arbitrary input from
/// exhausting the stack; real documents stay far below it.
pub const MAX_DEPTH: usize = 512;

/// Maximum number of attributes on a single start tag.
pub const MAX_ATTRIBUTES: usize = 1024;

/// Parse a complete XML document into an [`XmlTree`].
pub fn parse_document(input: &str) -> Result<XmlTree, XmlError> {
    Parser::new(input).parse()
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse(mut self) -> Result<XmlTree, XmlError> {
        self.skip_prolog()?;
        self.skip_whitespace();
        if self.peek() != Some(b'<') || self.starts_with("</") {
            return Err(self.err(XmlErrorKind::NoRootElement));
        }
        let tree = self.parse_root_element()?;
        // After the root element, only misc (whitespace, comments, PIs) is allowed.
        loop {
            self.skip_whitespace();
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else {
                return Err(self.err(XmlErrorKind::TrailingContent));
            }
        }
        Ok(tree)
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
        // Skip until the matching '>', accounting for an optional internal
        // subset delimited by brackets.
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

    fn parse_root_element(&mut self) -> Result<XmlTree, XmlError> {
        // We are positioned at '<' of the root start tag.
        let (name, self_closing) = self.parse_start_tag()?;
        let mut tree = XmlTree::new(&name);
        let root = tree.root();
        if !self_closing {
            self.parse_content(&mut tree, root, &name, 1)?;
        }
        Ok(tree)
    }

    /// Parse the content of an open element until its end tag is consumed.
    /// `depth` is the nesting depth of the open element (root = 1); it bounds
    /// the recursion so adversarial nesting cannot overflow the stack.
    fn parse_content(
        &mut self,
        tree: &mut XmlTree,
        parent: NodeId,
        parent_name: &str,
        depth: usize,
    ) -> Result<(), XmlError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(XmlErrorKind::LimitExceeded {
                what: "element nesting depth",
                limit: MAX_DEPTH,
            }));
        }
        let mut text = String::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
            if self.starts_with("<!--") {
                self.flush_text(tree, parent, &mut text);
                self.skip_comment()?;
            } else if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                match self.input[start..].find("]]>") {
                    Some(rel) => {
                        text.push_str(&self.input[start..start + rel]);
                        self.pos = start + rel + 3;
                    }
                    None => {
                        self.pos = self.bytes.len();
                        return Err(self.err(XmlErrorKind::UnexpectedEof));
                    }
                }
            } else if self.starts_with("<?") {
                self.flush_text(tree, parent, &mut text);
                self.skip_pi()?;
            } else if self.starts_with("</") {
                self.flush_text(tree, parent, &mut text);
                let close = self.parse_end_tag()?;
                if close != parent_name {
                    return Err(self.err(XmlErrorKind::MismatchedClosingTag {
                        expected: parent_name.to_string(),
                        found: close,
                    }));
                }
                return Ok(());
            } else if self.peek() == Some(b'<') {
                self.flush_text(tree, parent, &mut text);
                let (name, self_closing) = self.parse_start_tag()?;
                let child = tree.add_child(parent, &name);
                if !self_closing {
                    self.parse_content(tree, child, &name, depth + 1)?;
                }
            } else {
                // Character data.
                let start = self.pos;
                while self.pos < self.bytes.len() && self.peek() != Some(b'<') {
                    self.pos += 1;
                }
                let raw = &self.input[start..self.pos];
                text.push_str(&decode_entities(raw, start)?);
            }
        }
    }

    fn flush_text(&mut self, tree: &mut XmlTree, parent: NodeId, text: &mut String) {
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            tree.add_text_child(parent, trimmed);
        }
        text.clear();
    }

    /// Parse `<name attr="v" ...>` or `<name ... />`. Returns the element
    /// name and whether the tag was self-closing.
    fn parse_start_tag(&mut self) -> Result<(String, bool), XmlError> {
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
                    if attributes > MAX_ATTRIBUTES {
                        return Err(self.err(XmlErrorKind::LimitExceeded {
                            what: "attribute count",
                            limit: MAX_ATTRIBUTES,
                        }));
                    }
                    self.parse_attribute()?;
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_end_tag(&mut self) -> Result<String, XmlError> {
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
            // Attribute without a value is not well-formed XML.
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

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_name_byte(c, self.pos == start) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            let ctx: String = self.input[self.pos..].chars().take(8).collect();
            return Err(self.err(XmlErrorKind::InvalidName(ctx)));
        }
        Ok(self.input[start..self.pos].to_string())
    }
}

fn is_name_byte(c: u8, first: bool) -> bool {
    let alpha = c.is_ascii_alphabetic() || c == b'_' || c == b':' || !c.is_ascii();
    if first {
        alpha
    } else {
        alpha || c.is_ascii_digit() || c == b'-' || c == b'.'
    }
}

/// Decode the predefined entities and numeric character references of `raw`.
/// Shared with the streaming scanner (`crate::scan`) so both ingest paths
/// agree byte-for-byte on entity handling.
pub(crate) fn decode_entities(raw: &str, offset: usize) -> Result<String, XmlError> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        // Collect up to ';'
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
        if !closed {
            return Err(XmlError::new(
                XmlErrorKind::InvalidEntity(entity),
                offset + i,
            ));
        }
        match entity.as_str() {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ => {
                if let Some(num) = entity
                    .strip_prefix("#x")
                    .or_else(|| entity.strip_prefix("#X"))
                {
                    let code = u32::from_str_radix(num, 16).ok();
                    match code.and_then(char::from_u32) {
                        Some(ch) => out.push(ch),
                        None => {
                            return Err(XmlError::new(
                                XmlErrorKind::InvalidEntity(entity),
                                offset + i,
                            ))
                        }
                    }
                } else if let Some(num) = entity.strip_prefix('#') {
                    let code = num.parse::<u32>().ok();
                    match code.and_then(char::from_u32) {
                        Some(ch) => out.push(ch),
                        None => {
                            return Err(XmlError::new(
                                XmlErrorKind::InvalidEntity(entity),
                                offset + i,
                            ))
                        }
                    }
                } else {
                    return Err(XmlError::new(
                        XmlErrorKind::InvalidEntity(entity),
                        offset + i,
                    ));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements() {
        let t = parse_document("<a><b><c/></b><d></d></a>").unwrap();
        assert_eq!(t.label(t.root()), "a");
        let labels: Vec<&str> = t.preorder().map(|id| t.label(id)).collect();
        assert_eq!(labels, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn text_becomes_leaf_node() {
        let t = parse_document("<last>Mozart</last>").unwrap();
        assert_eq!(t.node_count(), 2);
        let leaf = t.children(t.root())[0];
        assert_eq!(t.label(leaf), "Mozart");
        assert!(t.node(leaf).is_text());
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let t = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn attributes_are_accepted_and_ignored() {
        let t = parse_document(r#"<a id="1" name='x'><b class="y"/></a>"#).unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.label(t.children(t.root())[0]), "b");
    }

    #[test]
    fn xml_declaration_comments_and_doctype_are_skipped() {
        let input = r#"<?xml version="1.0"?>
            <!DOCTYPE media [ <!ELEMENT media (CD)> ]>
            <!-- a comment -->
            <media><!-- inner --><CD/></media>
            <!-- trailing -->"#;
        let t = parse_document(input).unwrap();
        assert_eq!(t.label(t.root()), "media");
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn cdata_is_inlined_as_text() {
        let t = parse_document("<a><![CDATA[raw <text> & stuff]]></a>").unwrap();
        let leaf = t.children(t.root())[0];
        assert_eq!(t.label(leaf), "raw <text> & stuff");
    }

    #[test]
    fn entities_are_decoded() {
        let t = parse_document("<a>&lt;x&gt; &amp; &#65;&#x42;</a>").unwrap();
        let leaf = t.children(t.root())[0];
        assert_eq!(t.label(leaf), "<x> & AB");
    }

    #[test]
    fn invalid_entity_is_an_error() {
        let err = parse_document("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::InvalidEntity(_)));
    }

    #[test]
    fn mismatched_closing_tag_is_an_error() {
        let err = parse_document("<a><b></c></a>").unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::MismatchedClosingTag { .. }
        ));
    }

    #[test]
    fn unexpected_eof_is_an_error() {
        let err = parse_document("<a><b>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnexpectedEof));
    }

    #[test]
    fn trailing_content_is_an_error() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::TrailingContent));
    }

    #[test]
    fn empty_input_has_no_root() {
        let err = parse_document("   ").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::NoRootElement));
    }

    #[test]
    fn missing_attribute_value_is_malformed() {
        let err = parse_document("<a attr></a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn unquoted_attribute_value_is_malformed() {
        let err = parse_document("<a attr=1></a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn mixed_content_keeps_text_and_elements() {
        let t = parse_document("<p>hello <b>world</b> bye</p>").unwrap();
        let labels: Vec<&str> = t.children(t.root()).iter().map(|&c| t.label(c)).collect();
        assert_eq!(labels, vec!["hello", "b", "bye"]);
    }

    #[test]
    fn paper_figure1_document_parses() {
        let doc = "<media>\
            <book><author><first>William</first><last>Shakespeare</last></author>\
            <title>Hamlet</title></book>\
            <CD><composer><first>Wolfgang</first><last>Mozart</last></composer>\
            <title>Requiem</title>\
            <interpreter><ensemble>Berliner Phil.</ensemble></interpreter></CD>\
            </media>";
        let t = parse_document(doc).unwrap();
        assert_eq!(t.label(t.root()), "media");
        assert_eq!(t.count_label("title"), 2);
        assert_eq!(t.count_label("Mozart"), 1);
        assert_eq!(t.depth(), 5);
    }

    #[test]
    fn unicode_tag_names_are_accepted() {
        let t = parse_document("<données><été>chaud</été></données>").unwrap();
        assert_eq!(t.label(t.root()), "données");
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // Twice the limit in open tags: must come back as a typed error
        // (recursion is bounded by MAX_DEPTH, so no stack overflow).
        let input = "<a>".repeat(MAX_DEPTH * 2);
        let err = parse_document(&input).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                XmlErrorKind::LimitExceeded { what, limit }
                    if *what == "element nesting depth" && *limit == MAX_DEPTH
            ),
            "{err}"
        );
        // A document just under the limit still parses.
        let n = MAX_DEPTH - 1;
        let ok = format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse_document(&ok).is_ok());
    }

    #[test]
    fn huge_attribute_lists_are_rejected() {
        let mut input = String::from("<a");
        for i in 0..(MAX_ATTRIBUTES + 1) {
            input.push_str(&format!(" x{i}=\"v\""));
        }
        input.push_str("/>");
        let err = parse_document(&input).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                XmlErrorKind::LimitExceeded { what, .. } if *what == "attribute count"
            ),
            "{err}"
        );
    }

    #[test]
    fn unexpected_closing_tag_variant_exists() {
        // A document that starts with a closing tag has no root element.
        let err = parse_document("</a>").unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::NoRootElement | XmlErrorKind::UnexpectedClosingTag(_)
        ));
    }
}
