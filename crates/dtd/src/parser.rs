//! A parser for the DTD subset needed by the evaluation workloads.
//!
//! The paper's experimental setup feeds real DTD files (NITF and xCBL Order)
//! to its document and subscription generators. This module parses standalone
//! DTD files (and internal subsets wrapped in `<!DOCTYPE ... [ ... ]>`) into a
//! [`DtdSchema`], covering the constructs those DTDs use:
//!
//! * `<!ELEMENT name content-model>` with `EMPTY`, `ANY`, `(#PCDATA ...)`,
//!   sequences, choices and the `?`/`*`/`+` occurrence indicators,
//! * `<!ATTLIST name (attribute type default)*>`,
//! * parameter entities (`<!ENTITY % name "...">` and `%name;` references),
//! * general entities, comments, processing instructions, and
//!   `INCLUDE`/`IGNORE` conditional sections.

use std::collections::BTreeMap;

use crate::content::{ContentModel, ContentParticle, Occurrence, ParticleKind};
use crate::error::{DtdError, DtdErrorKind};
use crate::schema::{AttributeDecl, DtdSchema, ElementDecl};

/// Maximum number of parameter-entity / conditional-section rewrite passes
/// before the parser declares an expansion loop.
const MAX_EXPANSION_PASSES: usize = 64;

/// Maximum size the entity-expanded text may reach, in bytes. Without this
/// cap a handful of nested parameter entities can blow the input up
/// exponentially ("billion laughs") before the pass limit is ever reached.
pub const MAX_EXPANSION_SIZE: usize = 1 << 20;

/// Maximum nesting depth of content-model groups (`((((a))))`). Bounds the
/// recursion in [`parse_content_model`]'s particle parser.
pub const MAX_MODEL_DEPTH: usize = 128;

/// Parse DTD text into a schema named `"dtd"`.
pub fn parse(input: &str) -> Result<DtdSchema, DtdError> {
    parse_named("dtd", input)
}

/// Parse DTD text into a schema with the given name.
pub fn parse_named(name: &str, input: &str) -> Result<DtdSchema, DtdError> {
    let expanded = expand_input(input)?;
    let mut parser = Parser {
        input: expanded.as_bytes(),
        offset: 0,
        schema: DtdSchema::new(name),
    };
    parser.run()?;
    if parser.schema.is_empty() {
        return Err(DtdError::new(DtdErrorKind::NoElements, 0));
    }
    Ok(parser.schema)
}

/// Expand parameter entities and conditional sections until a fixpoint.
fn expand_input(input: &str) -> Result<String, DtdError> {
    let mut text = input.to_string();
    for _ in 0..MAX_EXPANSION_PASSES {
        let entities = collect_parameter_entities(&text)?;
        let next = rewrite_once(&text, &entities)?;
        if next == text {
            return Ok(text);
        }
        text = next;
    }
    Err(DtdError::new(DtdErrorKind::EntityExpansionLoop, 0))
}

/// Collect `<!ENTITY % name "value">` declarations.
fn collect_parameter_entities(text: &str) -> Result<BTreeMap<String, String>, DtdError> {
    let mut entities = BTreeMap::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while let Some(start) = find_from(text, "<!ENTITY", i) {
        let mut pos = start + "<!ENTITY".len();
        skip_ws(bytes, &mut pos);
        if pos >= bytes.len() || bytes[pos] != b'%' {
            // General entity; handled by the main parser.
            i = start + 1;
            continue;
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        let name = read_name(bytes, &mut pos).ok_or_else(|| {
            DtdError::new(DtdErrorKind::InvalidEntity("missing name".into()), pos)
        })?;
        skip_ws(bytes, &mut pos);
        // External parameter entities (SYSTEM/PUBLIC) cannot be fetched in a
        // self-contained parser; treat them as empty replacement text.
        let value = if text[pos..].starts_with("SYSTEM") || text[pos..].starts_with("PUBLIC") {
            String::new()
        } else {
            read_quoted(bytes, &mut pos).ok_or_else(|| {
                DtdError::new(
                    DtdErrorKind::InvalidEntity(format!("missing replacement text for %{name};")),
                    pos,
                )
            })?
        };
        entities.entry(name).or_insert(value);
        let end = find_from(text, ">", pos).unwrap_or(text.len());
        i = end;
    }
    Ok(entities)
}

/// Perform one rewrite pass: substitute `%name;` references (outside of
/// parameter-entity declarations) and unwrap conditional sections.
///
/// The output is held to [`MAX_EXPANSION_SIZE`] as it grows: one pass over
/// a text under the cap can multiply it by its number of references, so a
/// check after the pass would come after the allocation. Each step appends
/// at most the text's length (an entity's value is a slice of the text), so
/// the pass never holds more than the cap plus that.
fn rewrite_once(text: &str, entities: &BTreeMap<String, String>) -> Result<String, DtdError> {
    let too_large = |size| {
        DtdError::new(
            DtdErrorKind::EntityExpansionTooLarge {
                size,
                limit: MAX_EXPANSION_SIZE,
            },
            0,
        )
    };
    let mut out = String::with_capacity(text.len().min(MAX_EXPANSION_SIZE));
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if out.len() > MAX_EXPANSION_SIZE {
            return Err(too_large(out.len()));
        }
        if text[i..].starts_with("<!--") {
            let end = find_from(text, "-->", i + 4)
                .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, i))?;
            out.push_str(&text[i..end + 3]);
            i = end + 3;
        } else if text[i..].starts_with("<![") {
            // Conditional section: <![INCLUDE[ ... ]]> or <![IGNORE[ ... ]]>.
            let open = find_from(text, "[", i + 3)
                .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, i))?;
            let keyword = text[i + 3..open].trim();
            let close = find_from(text, "]]>", open + 1)
                .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, i))?;
            if keyword.eq_ignore_ascii_case("INCLUDE") || keyword == "%include;" {
                out.push_str(&text[open + 1..close]);
            }
            i = close + 3;
        } else if bytes[i] == b'%' {
            let mut pos = i + 1;
            if let Some(name) = read_name(bytes, &mut pos) {
                if pos < bytes.len() && bytes[pos] == b';' {
                    let value = entities.get(&name).ok_or_else(|| {
                        DtdError::new(DtdErrorKind::UnknownParameterEntity(name.clone()), i)
                    })?;
                    out.push(' ');
                    out.push_str(value);
                    out.push(' ');
                    i = pos + 1;
                    continue;
                }
            }
            out.push('%');
            i += 1;
        } else if text[i..].starts_with("<!ENTITY") {
            // Copy entity declarations verbatim so their replacement text is
            // not re-expanded in place.
            let end = find_from(text, ">", i)
                .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, i))?;
            out.push_str(&text[i..=end]);
            i = end + 1;
        } else if let Some(ch) = text[i..].chars().next() {
            out.push(ch);
            i += ch.len_utf8();
        } else {
            break;
        }
    }
    if out.len() > MAX_EXPANSION_SIZE {
        return Err(too_large(out.len()));
    }
    Ok(out)
}

fn find_from(text: &str, needle: &str, from: usize) -> Option<usize> {
    text.get(from..)
        .and_then(|rest| rest.find(needle))
        .map(|pos| from + pos)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b':' || b == b'-' || b == b'.'
}

fn read_name(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if *pos >= bytes.len() || !is_name_start(bytes[*pos]) {
        return None;
    }
    let start = *pos;
    while *pos < bytes.len() && is_name_char(bytes[*pos]) {
        *pos += 1;
    }
    Some(String::from_utf8_lossy(&bytes[start..*pos]).into_owned())
}

fn read_quoted(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if *pos >= bytes.len() || (bytes[*pos] != b'"' && bytes[*pos] != b'\'') {
        return None;
    }
    let quote = bytes[*pos];
    *pos += 1;
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos] != quote {
        *pos += 1;
    }
    if *pos >= bytes.len() {
        return None;
    }
    let value = String::from_utf8_lossy(&bytes[start..*pos]).into_owned();
    *pos += 1;
    Some(value)
}

struct Parser<'a> {
    input: &'a [u8],
    offset: usize,
    schema: DtdSchema,
}

impl<'a> Parser<'a> {
    fn text(&self) -> &'a str {
        // invariant: `input` is the byte view of a `&str`
        std::str::from_utf8(self.input).expect("input was built from a &str")
    }

    fn run(&mut self) -> Result<(), DtdError> {
        while self.offset < self.input.len() {
            self.skip_ws();
            if self.offset >= self.input.len() {
                break;
            }
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!ELEMENT") {
                self.parse_element()?;
            } else if self.starts_with("<!ATTLIST") {
                self.parse_attlist()?;
            } else if self.starts_with("<!ENTITY") {
                self.parse_entity()?;
            } else if self.starts_with("<!NOTATION") {
                self.skip_until(">")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.parse_doctype_open()?;
            } else if self.input[self.offset] == b']' {
                // End of a DOCTYPE internal subset.
                self.offset += 1;
                self.skip_ws();
                if self.offset < self.input.len() && self.input[self.offset] == b'>' {
                    self.offset += 1;
                }
            } else if self.starts_with("<!") {
                let keyword = self.peek_word(2);
                return Err(DtdError::new(
                    DtdErrorKind::UnknownDeclaration(keyword),
                    self.offset,
                ));
            } else {
                return Err(DtdError::new(
                    DtdErrorKind::Malformed(format!(
                        "unexpected character {:?}",
                        self.input[self.offset] as char
                    )),
                    self.offset,
                ));
            }
        }
        Ok(())
    }

    fn starts_with(&self, needle: &str) -> bool {
        self.text()[self.offset..].starts_with(needle)
    }

    fn peek_word(&self, skip: usize) -> String {
        let mut pos = self.offset + skip;
        read_name(self.input, &mut pos).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        skip_ws(self.input, &mut self.offset);
    }

    fn skip_comment(&mut self) -> Result<(), DtdError> {
        let end = find_from(self.text(), "-->", self.offset + 4)
            .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, self.offset))?;
        self.offset = end + 3;
        Ok(())
    }

    fn skip_until(&mut self, needle: &str) -> Result<(), DtdError> {
        let end = find_from(self.text(), needle, self.offset)
            .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, self.offset))?;
        self.offset = end + needle.len();
        Ok(())
    }

    fn expect_name(&mut self, context: &str) -> Result<String, DtdError> {
        self.skip_ws();
        read_name(self.input, &mut self.offset).ok_or_else(|| {
            DtdError::new(
                DtdErrorKind::InvalidName(format!("expected a name in {context}")),
                self.offset,
            )
        })
    }

    fn parse_doctype_open(&mut self) -> Result<(), DtdError> {
        self.offset += "<!DOCTYPE".len();
        let name = self.expect_name("DOCTYPE")?;
        self.schema.set_root(&name);
        // Skip any external identifier, then either enter the internal
        // subset (past `[`) or consume the closing `>`.
        while self.offset < self.input.len() {
            let b = self.input[self.offset];
            if b == b'[' {
                self.offset += 1;
                return Ok(());
            }
            if b == b'>' {
                self.offset += 1;
                return Ok(());
            }
            if b == b'"' || b == b'\'' {
                read_quoted(self.input, &mut self.offset)
                    .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, self.offset))?;
            } else {
                self.offset += 1;
            }
        }
        Err(DtdError::new(DtdErrorKind::UnexpectedEof, self.offset))
    }

    fn parse_element(&mut self) -> Result<(), DtdError> {
        let decl_offset = self.offset;
        self.offset += "<!ELEMENT".len();
        let name = self.expect_name("ELEMENT")?;
        self.skip_ws();
        let end = find_from(self.text(), ">", self.offset)
            .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, self.offset))?;
        let body = self.text()[self.offset..end].trim().to_string();
        self.offset = end + 1;
        let content = parse_content_model(&body, decl_offset)?;
        if self
            .schema
            .add_element(ElementDecl::new(&name, content))
            .is_none()
        {
            return Err(DtdError::new(
                DtdErrorKind::DuplicateElement(name),
                decl_offset,
            ));
        }
        Ok(())
    }

    fn parse_attlist(&mut self) -> Result<(), DtdError> {
        let decl_offset = self.offset;
        self.offset += "<!ATTLIST".len();
        let element = self.expect_name("ATTLIST")?;
        let end = find_from(self.text(), ">", self.offset)
            .ok_or_else(|| DtdError::new(DtdErrorKind::UnexpectedEof, self.offset))?;
        let body = self.text()[self.offset..end].to_string();
        self.offset = end + 1;
        let attributes = parse_attribute_definitions(&body, decl_offset)?;
        self.schema.add_attributes(&element, attributes);
        Ok(())
    }

    fn parse_entity(&mut self) -> Result<(), DtdError> {
        self.offset += "<!ENTITY".len();
        self.skip_ws();
        if self.offset < self.input.len() && self.input[self.offset] == b'%' {
            // Parameter entity: already handled by the expansion pre-pass.
            return self.skip_until(">");
        }
        let name = self.expect_name("ENTITY")?;
        self.skip_ws();
        if self.starts_with("SYSTEM") || self.starts_with("PUBLIC") {
            return self.skip_until(">");
        }
        let value = read_quoted(self.input, &mut self.offset).ok_or_else(|| {
            DtdError::new(
                DtdErrorKind::InvalidEntity(format!("missing replacement text for &{name};")),
                self.offset,
            )
        })?;
        self.schema.add_general_entity(&name, &value);
        self.skip_until(">")
    }
}

/// Parse the body of an `<!ELEMENT>` declaration (everything between the
/// element name and the closing `>`).
pub fn parse_content_model(body: &str, offset: usize) -> Result<ContentModel, DtdError> {
    let trimmed = body.trim();
    if trimmed.eq_ignore_ascii_case("EMPTY") {
        return Ok(ContentModel::Empty);
    }
    if trimmed.eq_ignore_ascii_case("ANY") {
        return Ok(ContentModel::Any);
    }
    if !trimmed.starts_with('(') {
        return Err(DtdError::new(
            DtdErrorKind::InvalidContentModel(format!("expected '(' in {trimmed:?}")),
            offset,
        ));
    }
    if trimmed.contains("#PCDATA") {
        return parse_mixed_model(trimmed, offset);
    }
    let mut lexer = ModelLexer::new(trimmed, offset);
    let particle = parse_particle(&mut lexer, 0)?;
    lexer.skip_ws();
    if !lexer.at_end() {
        return Err(DtdError::new(
            DtdErrorKind::InvalidContentModel(format!(
                "unexpected trailing input {:?}",
                lexer.rest()
            )),
            lexer.error_offset(),
        ));
    }
    Ok(ContentModel::Children(particle))
}

fn parse_mixed_model(body: &str, offset: usize) -> Result<ContentModel, DtdError> {
    // (#PCDATA) or (#PCDATA | a | b)* — optionally with whitespace anywhere.
    let inner = body
        .trim()
        .trim_end_matches('*')
        .trim()
        .strip_prefix('(')
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| {
            DtdError::new(
                DtdErrorKind::InvalidContentModel(format!("malformed mixed content {body:?}")),
                offset,
            )
        })?;
    let mut names = Vec::new();
    for (i, part) in inner.split('|').enumerate() {
        let token = part.trim();
        if i == 0 {
            if token != "#PCDATA" {
                return Err(DtdError::new(
                    DtdErrorKind::InvalidContentModel(
                        "mixed content must start with #PCDATA".to_string(),
                    ),
                    offset,
                ));
            }
            continue;
        }
        if token.is_empty() {
            return Err(DtdError::new(
                DtdErrorKind::InvalidContentModel("empty name in mixed content".to_string()),
                offset,
            ));
        }
        names.push(token.to_string());
    }
    if names.is_empty() {
        Ok(ContentModel::Pcdata)
    } else {
        Ok(ContentModel::Mixed(names))
    }
}

struct ModelLexer<'a> {
    text: &'a str,
    pos: usize,
    base_offset: usize,
}

impl<'a> ModelLexer<'a> {
    fn new(text: &'a str, base_offset: usize) -> Self {
        Self {
            text,
            pos: 0,
            base_offset,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.text.len() && self.text.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.text.len()
    }

    fn rest(&self) -> &str {
        &self.text[self.pos..]
    }

    fn error_offset(&self) -> usize {
        self.base_offset + self.pos
    }

    fn read_name(&mut self) -> Option<String> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        let name = read_name(bytes, &mut pos)?;
        self.pos = pos;
        Some(name)
    }

    fn read_occurrence(&mut self) -> Occurrence {
        match self.text.as_bytes().get(self.pos) {
            Some(b'?') => {
                self.pos += 1;
                Occurrence::Optional
            }
            Some(b'*') => {
                self.pos += 1;
                Occurrence::ZeroOrMore
            }
            Some(b'+') => {
                self.pos += 1;
                Occurrence::OneOrMore
            }
            _ => Occurrence::One,
        }
    }
}

fn parse_particle(lexer: &mut ModelLexer<'_>, depth: usize) -> Result<ContentParticle, DtdError> {
    if depth >= MAX_MODEL_DEPTH {
        return Err(DtdError::new(
            DtdErrorKind::LimitExceeded {
                what: "content-model nesting depth",
                limit: MAX_MODEL_DEPTH,
            },
            lexer.error_offset(),
        ));
    }
    match lexer.peek() {
        Some(b'(') => {
            lexer.bump();
            parse_group(lexer, depth + 1)
        }
        Some(_) => {
            let name = lexer.read_name().ok_or_else(|| {
                DtdError::new(
                    DtdErrorKind::InvalidContentModel(format!(
                        "expected a name at {:?}",
                        lexer.rest()
                    )),
                    lexer.error_offset(),
                )
            })?;
            let occurrence = lexer.read_occurrence();
            Ok(ContentParticle::element(&name).with_occurrence(occurrence))
        }
        None => Err(DtdError::new(
            DtdErrorKind::InvalidContentModel("unexpected end of content model".to_string()),
            lexer.error_offset(),
        )),
    }
}

fn parse_group(lexer: &mut ModelLexer<'_>, depth: usize) -> Result<ContentParticle, DtdError> {
    let mut parts = vec![parse_particle(lexer, depth)?];
    let mut separator: Option<u8> = None;
    loop {
        match lexer.peek() {
            Some(b')') => {
                lexer.bump();
                break;
            }
            Some(sep @ (b',' | b'|')) => {
                if let Some(expected) = separator {
                    if expected != sep {
                        return Err(DtdError::new(
                            DtdErrorKind::InvalidContentModel(
                                "mixed ',' and '|' separators at the same level".to_string(),
                            ),
                            lexer.error_offset(),
                        ));
                    }
                } else {
                    separator = Some(sep);
                }
                lexer.bump();
                parts.push(parse_particle(lexer, depth)?);
            }
            Some(other) => {
                return Err(DtdError::new(
                    DtdErrorKind::InvalidContentModel(format!(
                        "unexpected character {:?} in content model",
                        other as char
                    )),
                    lexer.error_offset(),
                ));
            }
            None => {
                return Err(DtdError::new(
                    DtdErrorKind::InvalidContentModel("unclosed group".to_string()),
                    lexer.error_offset(),
                ));
            }
        }
    }
    let occurrence = lexer.read_occurrence();
    let group = if parts.len() == 1 && separator.is_none() {
        // A single-child group like `(title)` keeps the inner particle but
        // still honours the group's occurrence indicator.
        let inner = parts.remove(0);
        if occurrence == Occurrence::One {
            return Ok(inner);
        }
        ContentParticle {
            kind: ParticleKind::Sequence(vec![inner]),
            occurrence,
        }
    } else if separator == Some(b'|') {
        ContentParticle {
            kind: ParticleKind::Choice(parts),
            occurrence,
        }
    } else {
        ContentParticle {
            kind: ParticleKind::Sequence(parts),
            occurrence,
        }
    };
    Ok(group)
}

/// Parse the attribute definitions of an `<!ATTLIST>` declaration body
/// (everything after the element name).
pub fn parse_attribute_definitions(
    body: &str,
    offset: usize,
) -> Result<Vec<AttributeDecl>, DtdError> {
    let bytes = body.as_bytes();
    let mut pos = 0usize;
    let mut attributes = Vec::new();
    loop {
        skip_ws(bytes, &mut pos);
        if pos >= bytes.len() {
            break;
        }
        let name = read_name(bytes, &mut pos).ok_or_else(|| {
            DtdError::new(
                DtdErrorKind::InvalidAttlist(format!(
                    "expected an attribute name at {:?}",
                    &body[pos.min(body.len())..]
                )),
                offset + pos,
            )
        })?;
        skip_ws(bytes, &mut pos);
        let attribute_type = read_attribute_type(body, bytes, &mut pos).ok_or_else(|| {
            DtdError::new(
                DtdErrorKind::InvalidAttlist(format!("missing type for attribute {name}")),
                offset + pos,
            )
        })?;
        skip_ws(bytes, &mut pos);
        let default = read_attribute_default(body, bytes, &mut pos).ok_or_else(|| {
            DtdError::new(
                DtdErrorKind::InvalidAttlist(format!("missing default for attribute {name}")),
                offset + pos,
            )
        })?;
        attributes.push(AttributeDecl {
            name,
            attribute_type,
            default,
        });
    }
    Ok(attributes)
}

fn read_attribute_type(body: &str, bytes: &[u8], pos: &mut usize) -> Option<String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == b'(' {
        let end = find_from(body, ")", *pos)?;
        let value = body[*pos..=end].split_whitespace().collect::<String>();
        *pos = end + 1;
        return Some(value);
    }
    let word = read_name(bytes, pos)?;
    if word == "NOTATION" {
        skip_ws(bytes, pos);
        if *pos < bytes.len() && bytes[*pos] == b'(' {
            let end = find_from(body, ")", *pos)?;
            let group = body[*pos..=end].split_whitespace().collect::<String>();
            *pos = end + 1;
            return Some(format!("NOTATION {group}"));
        }
    }
    Some(word)
}

fn read_attribute_default(body: &str, bytes: &[u8], pos: &mut usize) -> Option<String> {
    skip_ws(bytes, pos);
    if *pos >= bytes.len() {
        return None;
    }
    if bytes[*pos] == b'#' {
        *pos += 1;
        let word = read_name(bytes, pos)?;
        if word == "FIXED" {
            skip_ws(bytes, pos);
            let value = read_quoted(bytes, pos)?;
            return Some(format!("#FIXED \"{value}\""));
        }
        return Some(format!("#{word}"));
    }
    if bytes[*pos] == b'"' || bytes[*pos] == b'\'' {
        let value = read_quoted(bytes, pos)?;
        return Some(format!("\"{value}\""));
    }
    // Tolerate unquoted defaults emitted by sloppy tools.
    let _ = body;
    read_name(bytes, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI_NEWS_DTD: &str = r#"
        <!-- A miniature news DTD in the spirit of NITF. -->
        <!ENTITY % text "(#PCDATA)">
        <!ENTITY % blocks "headline, byline?, (paragraph | media)+">
        <!ELEMENT nitf (head, body)>
        <!ELEMENT head (title, meta*)>
        <!ELEMENT title %text;>
        <!ELEMENT meta EMPTY>
        <!ATTLIST meta
            name  CDATA #REQUIRED
            value CDATA #IMPLIED>
        <!ELEMENT body (%blocks;)>
        <!ELEMENT headline %text;>
        <!ELEMENT byline (#PCDATA | person)*>
        <!ELEMENT person %text;>
        <!ELEMENT paragraph %text;>
        <!ELEMENT media (caption?, credit?)>
        <!ELEMENT caption %text;>
        <!ELEMENT credit %text;>
        <!ENTITY copyright "(c) example press">
    "#;

    #[test]
    fn parses_the_mini_news_dtd() {
        let schema = parse_named("mini-news", MINI_NEWS_DTD).unwrap();
        assert_eq!(schema.name(), "mini-news");
        assert_eq!(schema.element_count(), 12);
        assert_eq!(schema.root(), Some("nitf"));
        assert_eq!(schema.allowed_children("nitf"), vec!["head", "body"]);
        assert_eq!(
            schema.allowed_children("body"),
            vec!["headline", "byline", "paragraph", "media"]
        );
        assert!(schema.element("title").unwrap().allows_text());
        assert_eq!(schema.element("meta").unwrap().attributes().len(), 2);
        let entities: Vec<(&str, &str)> = schema.general_entities().collect();
        assert_eq!(entities, vec![("copyright", "(c) example press")]);
    }

    #[test]
    fn parameter_entities_expand_inside_content_models() {
        let schema = parse(MINI_NEWS_DTD).unwrap();
        let body = schema.element("body").unwrap();
        let mandatory = body.content().mandatory_children();
        assert!(mandatory.contains(&"headline"));
        assert!(!mandatory.contains(&"byline"));
    }

    #[test]
    fn parses_empty_any_and_pcdata_models() {
        let schema = parse(
            "<!ELEMENT a EMPTY><!ELEMENT b ANY><!ELEMENT c (#PCDATA)><!ELEMENT root (a,b,c)>",
        )
        .unwrap();
        assert_eq!(*schema.element("a").unwrap().content(), ContentModel::Empty);
        assert_eq!(*schema.element("b").unwrap().content(), ContentModel::Any);
        assert_eq!(
            *schema.element("c").unwrap().content(),
            ContentModel::Pcdata
        );
        assert_eq!(schema.root(), Some("root"));
    }

    #[test]
    fn occurrence_indicators_are_parsed() {
        let schema =
            parse("<!ELEMENT r (a?, b*, c+, (d | e))> <!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY><!ELEMENT e EMPTY>")
                .unwrap();
        let model = schema.element("r").unwrap().content().clone();
        let ContentModel::Children(particle) = model else {
            panic!("expected children content");
        };
        assert_eq!(particle.to_string(), "(a?, b*, c+, (d | e))");
    }

    #[test]
    fn doctype_wrapper_sets_the_root_and_parses_the_internal_subset() {
        let input = r#"<!DOCTYPE media [
            <!ELEMENT media (CD | book)*>
            <!ELEMENT CD (title)>
            <!ELEMENT book (title)>
            <!ELEMENT title (#PCDATA)>
        ]>"#;
        let schema = parse(input).unwrap();
        assert_eq!(schema.root(), Some("media"));
        assert_eq!(schema.element_count(), 4);
    }

    #[test]
    fn conditional_sections_are_included_or_ignored() {
        let input = r#"
            <![INCLUDE[ <!ELEMENT a (b?)> ]]>
            <![IGNORE[ <!ELEMENT zzz (b)> ]]>
            <!ELEMENT b (#PCDATA)>
        "#;
        let schema = parse(input).unwrap();
        assert!(schema.has_element("a"));
        assert!(schema.has_element("b"));
        assert!(!schema.has_element("zzz"));
    }

    #[test]
    fn duplicate_elements_are_rejected() {
        let err = parse("<!ELEMENT a EMPTY><!ELEMENT a ANY>").unwrap_err();
        assert!(matches!(err.kind(), DtdErrorKind::DuplicateElement(name) if name == "a"));
    }

    #[test]
    fn unknown_parameter_entities_are_rejected() {
        let err = parse("<!ELEMENT a (%missing;)>").unwrap_err();
        assert!(matches!(
            err.kind(),
            DtdErrorKind::UnknownParameterEntity(name) if name == "missing"
        ));
    }

    #[test]
    fn mixed_separators_are_rejected() {
        let err = parse("<!ELEMENT a (b, c | d)><!ELEMENT b EMPTY>").unwrap_err();
        assert!(matches!(err.kind(), DtdErrorKind::InvalidContentModel(_)));
    }

    #[test]
    fn empty_input_reports_no_elements() {
        let err = parse("  <!-- nothing here -->  ").unwrap_err();
        assert_eq!(*err.kind(), DtdErrorKind::NoElements);
    }

    #[test]
    fn external_parameter_entities_expand_to_nothing() {
        let input = r#"
            <!ENTITY % ext SYSTEM "http://example.org/missing.mod">
            %ext;
            <!ELEMENT a EMPTY>
        "#;
        let schema = parse(input).unwrap();
        assert!(schema.has_element("a"));
    }

    #[test]
    fn recursive_parameter_entities_are_detected() {
        let input = r#"
            <!ENTITY % a "%b;">
            <!ENTITY % b "%a;">
            <!ELEMENT r (%a;)>
        "#;
        let err = parse(input).unwrap_err();
        assert_eq!(*err.kind(), DtdErrorKind::EntityExpansionLoop);
    }

    #[test]
    fn single_child_group_keeps_group_occurrence() {
        let schema = parse("<!ELEMENT r ((a)*)><!ELEMENT a EMPTY>").unwrap();
        let ContentModel::Children(particle) = schema.element("r").unwrap().content().clone()
        else {
            panic!("expected children content");
        };
        assert!(particle.is_nullable());
    }

    #[test]
    fn attlist_enumerated_types_and_fixed_defaults() {
        let schema = parse(
            r#"<!ELEMENT a EMPTY>
               <!ATTLIST a kind (small|large) "small"
                           version CDATA #FIXED "1.0"
                           ref IDREF #IMPLIED>"#,
        )
        .unwrap();
        let attrs = schema.element("a").unwrap().attributes();
        assert_eq!(attrs.len(), 3);
        assert_eq!(attrs[0].attribute_type, "(small|large)");
        assert_eq!(attrs[0].default, "\"small\"");
        assert_eq!(attrs[1].default, "#FIXED \"1.0\"");
        assert_eq!(attrs[2].attribute_type, "IDREF");
    }

    #[test]
    fn unknown_declarations_are_reported() {
        let err = parse("<!WIDGET a>").unwrap_err();
        assert!(matches!(err.kind(), DtdErrorKind::UnknownDeclaration(k) if k == "WIDGET"));
    }

    #[test]
    fn exponential_entity_expansion_is_capped() {
        // A "billion laughs" chain: each entity references the previous one
        // sixteen times, so full expansion would be 16^8 * 32 bytes. The
        // size cap must stop the blow-up long before memory does.
        let mut dtd = String::from("<!ENTITY % e0 \"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\">\n");
        for i in 1..=8 {
            let body = format!("%e{};", i - 1).repeat(16);
            dtd.push_str(&format!("<!ENTITY % e{i} \"{body}\">\n"));
        }
        dtd.push_str("<!ELEMENT r (%e8;)>");
        let err = parse(&dtd).unwrap_err();
        assert!(matches!(
            err.kind(),
            DtdErrorKind::EntityExpansionTooLarge { size, limit }
                if *size > *limit && *limit == MAX_EXPANSION_SIZE
        ));
    }

    #[test]
    fn one_pass_is_capped_while_it_grows() {
        // One entity of just under 1 MiB referenced 4 096 times: the first
        // pass alone would write 4 GiB. It must stop one entity past the
        // cap, without ever holding the whole pass.
        let value = "a".repeat(MAX_EXPANSION_SIZE - 64);
        let dtd = format!(
            "<!ENTITY % big \"{value}\">\n<!ELEMENT r ({})>",
            "%big;".repeat(4096)
        );
        let err = parse(&dtd).unwrap_err();
        assert!(matches!(
            err.kind(),
            DtdErrorKind::EntityExpansionTooLarge { size, limit }
                if *size > *limit && *size < 3 * MAX_EXPANSION_SIZE
        ));
    }

    #[test]
    fn deep_content_model_groups_are_rejected_not_overflowed() {
        let deep = format!(
            "<!ELEMENT r {}a{}>",
            "(".repeat(MAX_MODEL_DEPTH * 4),
            ")".repeat(MAX_MODEL_DEPTH * 4)
        );
        let err = parse(&deep).unwrap_err();
        assert!(matches!(
            err.kind(),
            DtdErrorKind::LimitExceeded { what, .. } if what.contains("nesting")
        ));

        // Just under the limit still parses; single-child groups collapse.
        let ok = format!(
            "<!ELEMENT r {}a{}>",
            "(".repeat(MAX_MODEL_DEPTH - 1),
            ")".repeat(MAX_MODEL_DEPTH - 1)
        );
        let schema = parse(&ok).unwrap();
        assert!(schema.has_element("r"));
    }
}
