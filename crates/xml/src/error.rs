//! Error types for XML parsing.

use std::fmt;

/// An error produced while parsing an XML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    kind: XmlErrorKind,
    /// Byte offset in the input at which the error was detected.
    offset: usize,
}

/// The different classes of parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// The input ended while an element or construct was still open.
    UnexpectedEof,
    /// A closing tag did not match the innermost open element.
    MismatchedClosingTag {
        /// Tag that was open.
        expected: String,
        /// Tag that was found.
        found: String,
    },
    /// An element or attribute name was empty or contained invalid characters.
    InvalidName(String),
    /// Malformed markup (e.g. `<` followed by an unexpected character).
    Malformed(String),
    /// The document contained no root element.
    NoRootElement,
    /// Content was found after the root element closed.
    TrailingContent,
    /// An unknown or malformed entity reference such as `&foo`.
    InvalidEntity(String),
    /// The raw document bytes are not valid UTF-8 (byte-level ingest only;
    /// the offset is the end of the longest valid prefix).
    InvalidUtf8,
    /// A parser limit was exceeded (defence against pathological inputs
    /// such as pathologically deep nesting or enormous attribute lists).
    LimitExceeded {
        /// Which limit was hit (e.g. `"element nesting depth"`).
        what: &'static str,
        /// The configured limit value.
        limit: usize,
    },
}

impl XmlError {
    pub(crate) fn new(kind: XmlErrorKind, offset: usize) -> Self {
        Self { kind, offset }
    }

    /// The byte offset in the input at which the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The kind of failure.
    pub fn kind(&self) -> &XmlErrorKind {
        &self.kind
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            XmlErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            XmlErrorKind::MismatchedClosingTag { expected, found } => write!(
                f,
                "mismatched closing tag: expected </{expected}>, found </{found}>"
            ),
            XmlErrorKind::InvalidName(name) => write!(f, "invalid name {name:?}"),
            XmlErrorKind::Malformed(msg) => write!(f, "malformed XML: {msg}"),
            XmlErrorKind::NoRootElement => write!(f, "document has no root element"),
            XmlErrorKind::TrailingContent => write!(f, "content after the root element"),
            XmlErrorKind::InvalidEntity(e) => write!(f, "invalid entity reference &{e};"),
            XmlErrorKind::InvalidUtf8 => write!(f, "input is not valid UTF-8"),
            XmlErrorKind::LimitExceeded { what, limit } => {
                write!(f, "{what} limit ({limit}) exceeded")
            }
        }?;
        write!(f, " at byte offset {}", self.offset)
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset() {
        let err = XmlError::new(XmlErrorKind::UnexpectedEof, 42);
        let msg = err.to_string();
        assert!(msg.contains("42"));
        assert!(msg.contains("unexpected end of input"));
    }

    #[test]
    fn accessors_return_fields() {
        let err = XmlError::new(XmlErrorKind::TrailingContent, 7);
        assert_eq!(err.offset(), 7);
        assert_eq!(*err.kind(), XmlErrorKind::TrailingContent);
    }

    #[test]
    fn mismatched_tag_message_mentions_both_tags() {
        let err = XmlError::new(
            XmlErrorKind::MismatchedClosingTag {
                expected: "a".into(),
                found: "b".into(),
            },
            0,
        );
        let msg = err.to_string();
        assert!(msg.contains("</a>"));
        assert!(msg.contains("</b>"));
    }
}
