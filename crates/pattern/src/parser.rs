//! Parser for the XPath-like concrete syntax of tree patterns.
//!
//! The grammar (whitespace between tokens is ignored):
//!
//! ```text
//! pattern    := root-step | path
//! root-step  := ("/." | ".") predicate* ( ("/" | "//") path )?
//! path       := first-step ( ("/" | "//") step )*
//! first-step := ("/" | "//")? step
//! step       := node-test predicate*
//! node-test  := NAME | QUOTED | "*"
//! predicate  := "[" ("."? ("/" | "//"))? path "]"
//! NAME       := [A-Za-z_][A-Za-z0-9_-]*          (plus non-ASCII letters)
//! QUOTED     := '"' [^"]* '"'
//! ```
//!
//! * `/a/b` — the document root is `a` and has a child `b`.
//! * `//a` — some element (possibly the root) is labelled `a`.
//! * `a//b` — `a` has a descendant `b` (the `//` becomes a descendant *node*
//!   whose single child is `b`, as in the paper's graph representation).
//! * `/a[b][c//d]/e` — branches: `b`, `c//d` and `e` all hang off `a`.
//! * `.[//CD][//Mozart]` — branching at the root (pattern `pc` of Figure 1).
//! * Quoted steps allow labels with spaces or punctuation:
//!   `//interpreter/ensemble/"Berliner Phil."`.

use crate::error::PatternParseError;
use crate::pattern::{PatternLabel, PatternNodeId, TreePattern};

/// Maximum node depth of a parsed pattern (the root is depth 0).
///
/// This bounds two recursions at once: the parser's own predicate nesting
/// (`a[a[a[…`) and the depth of the resulting [`TreePattern`], whose
/// display/equality walks recurse along root-to-leaf paths. Real
/// subscriptions are a handful of levels deep; anything past this limit is
/// adversarial input and is rejected with a positioned error instead of
/// exhausting the stack.
pub const MAX_DEPTH: usize = 256;

/// Parse a tree pattern from its concrete syntax.
pub fn parse_pattern(input: &str) -> Result<TreePattern, PatternParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        steps: Vec::new(),
        input_len: input.len(),
    };
    parser.parse()?;
    let mut pattern = TreePattern::new();
    pattern.append(&parser.steps);
    pattern
        .validate()
        .map_err(|msg| PatternParseError::new(msg, input.len()))?;
    Ok(pattern)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token<'a> {
    Slash,
    DoubleSlash,
    LBracket,
    RBracket,
    Star,
    Dot,
    Name(&'a str),
}

#[derive(Debug, Clone)]
struct Spanned<'a> {
    token: Token<'a>,
    offset: usize,
}

fn tokenize(input: &str) -> Result<Vec<Spanned<'_>>, PatternParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    tokens.push(Spanned {
                        token: Token::DoubleSlash,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Spanned {
                        token: Token::Slash,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'[' => {
                tokens.push(Spanned {
                    token: Token::LBracket,
                    offset: i,
                });
                i += 1;
            }
            b']' => {
                tokens.push(Spanned {
                    token: Token::RBracket,
                    offset: i,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Spanned {
                    token: Token::Star,
                    offset: i,
                });
                i += 1;
            }
            b'.' => {
                tokens.push(Spanned {
                    token: Token::Dot,
                    offset: i,
                });
                i += 1;
            }
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(PatternParseError::new("unterminated quoted label", i));
                }
                // Quoted labels may carry spaces and punctuation ("Berliner
                // Phil."), but an empty label can never match anything and
                // broke the Display round trip — reject it. Found by fuzzing.
                if j == start {
                    return Err(PatternParseError::new("empty quoted label", i));
                }
                tokens.push(Spanned {
                    token: Token::Name(&input[start..j]),
                    offset: i,
                });
                i = j + 1;
            }
            _ if is_name_start(c) => {
                let start = i;
                while i < bytes.len() && is_name_continue(bytes[i]) {
                    i += 1;
                }
                tokens.push(Spanned {
                    token: Token::Name(&input[start..i]),
                    offset: start,
                });
            }
            _ => {
                let message = match input[i..].chars().next() {
                    Some(ch) => format!("unexpected character {ch:?}"),
                    None => "unexpected end of input".to_string(),
                };
                return Err(PatternParseError::new(message, i));
            }
        }
    }
    Ok(tokens)
}

fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || !c.is_ascii()
}

fn is_name_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || !c.is_ascii()
}

/// Parses into a list of steps, each a node's parent and label, that
/// becomes the pattern in one [`TreePattern::append`]: node `k + 1` is
/// step `k`, under the root `0`.
struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
    steps: Vec<(PatternNodeId, PatternLabel<'a>)>,
    input_len: usize,
}

/// Axis separating two steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    Child,
    Descendant,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).map(|s| s.token);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, token: Token<'a>) -> Result<(), PatternParseError> {
        if self.peek() == Some(&token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(PatternParseError::new(
                format!("expected {token:?}, found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, PatternParseError> {
        Err(PatternParseError::new(msg, self.offset()))
    }

    /// Add a node with `label` under `parent`, returning its id.
    fn add(&mut self, parent: PatternNodeId, label: PatternLabel<'a>) -> PatternNodeId {
        self.steps.push((parent, label));
        PatternNodeId(self.steps.len() as u32)
    }

    fn parse(&mut self) -> Result<(), PatternParseError> {
        let root = PatternNodeId(0);
        if self.tokens.is_empty() {
            return self.err("empty pattern");
        }
        // Root-step form: "/." or "." optionally followed by predicates and a
        // continuation path.
        let starts_with_root = matches!(
            (self.peek(), self.tokens.get(self.pos + 1).map(|s| &s.token)),
            (Some(Token::Dot), _) | (Some(Token::Slash), Some(Token::Dot))
        );
        if starts_with_root {
            if self.peek() == Some(&Token::Slash) {
                self.pos += 1;
            }
            self.expect(Token::Dot)?;
            self.parse_predicates(root, 0)?;
            if self.peek().is_some() {
                self.parse_path(root, None, 0)?;
            }
        } else {
            self.parse_path(root, None, 0)?;
        }
        if self.pos != self.tokens.len() {
            return self.err("unexpected trailing input");
        }
        Ok(())
    }

    /// Parse a path of one or more steps and attach it under `parent`.
    ///
    /// `leading` forces the axis of the first step; when `None`, an explicit
    /// leading `/` or `//` is consumed if present, otherwise the child axis
    /// is assumed (relative path).
    fn parse_path(
        &mut self,
        parent: PatternNodeId,
        leading: Option<Axis>,
        depth: usize,
    ) -> Result<(), PatternParseError> {
        let mut current = parent;
        let mut depth = depth;
        let mut axis = match leading {
            Some(axis) => axis,
            None => match self.peek() {
                Some(Token::Slash) => {
                    self.pos += 1;
                    Axis::Child
                }
                Some(Token::DoubleSlash) => {
                    self.pos += 1;
                    Axis::Descendant
                }
                _ => Axis::Child,
            },
        };
        loop {
            (current, depth) = self.parse_step(current, axis, depth)?;
            match self.peek() {
                Some(Token::Slash) => {
                    self.pos += 1;
                    axis = Axis::Child;
                }
                Some(Token::DoubleSlash) => {
                    self.pos += 1;
                    axis = Axis::Descendant;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Parse one step (node test plus predicates) and attach it under
    /// `parent` using `axis`. `depth` is the node depth of `parent`; returns
    /// the id of the step's node (predicates and continuations attach to it)
    /// together with its depth.
    fn parse_step(
        &mut self,
        parent: PatternNodeId,
        axis: Axis,
        depth: usize,
    ) -> Result<(PatternNodeId, usize), PatternParseError> {
        let step_depth = depth + if axis == Axis::Descendant { 2 } else { 1 };
        if step_depth > MAX_DEPTH {
            return self.err(format!("pattern depth limit ({MAX_DEPTH}) exceeded"));
        }
        let attach = match axis {
            Axis::Child => parent,
            Axis::Descendant => self.add(parent, PatternLabel::Descendant),
        };
        let label = match self.bump() {
            Some(Token::Name(name)) => PatternLabel::Tag(name),
            Some(Token::Star) => PatternLabel::Wildcard,
            other => return self.err(format!("expected an element name or '*', found {other:?}")),
        };
        let node = self.add(attach, label);
        self.parse_predicates(node, step_depth)?;
        Ok((node, step_depth))
    }

    fn parse_predicates(
        &mut self,
        node: PatternNodeId,
        depth: usize,
    ) -> Result<(), PatternParseError> {
        while self.peek() == Some(&Token::LBracket) {
            self.pos += 1;
            // Allow an optional leading "." (self) inside predicates, as in
            // the common XPath spelling `[.//a]`.
            if self.peek() == Some(&Token::Dot) {
                self.pos += 1;
            }
            self.parse_path(node, None, depth)?;
            self.expect(Token::RBracket)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternLabel as L;

    fn labels_preorder(p: &TreePattern) -> Vec<String> {
        p.preorder()
            .iter()
            .map(|&id| p.label(id).to_string())
            .collect()
    }

    #[test]
    fn parses_simple_linear_path() {
        let p = parse_pattern("/media/CD/last").unwrap();
        assert_eq!(labels_preorder(&p), vec!["/.", "media", "CD", "last"]);
        assert_eq!(p.height(), 3);
    }

    #[test]
    fn relative_path_is_equivalent_to_absolute() {
        let abs = parse_pattern("/a/b").unwrap();
        let rel = parse_pattern("a/b").unwrap();
        assert_eq!(abs, rel);
    }

    #[test]
    fn parses_wildcard_steps() {
        let p = parse_pattern("/media/*/last").unwrap();
        assert_eq!(p.wildcard_count(), 1);
        assert_eq!(labels_preorder(&p), vec!["/.", "media", "*", "last"]);
    }

    #[test]
    fn parses_leading_descendant() {
        let p = parse_pattern("//CD/Mozart").unwrap();
        assert_eq!(labels_preorder(&p), vec!["/.", "//", "CD", "Mozart"]);
        assert_eq!(p.descendant_count(), 1);
    }

    #[test]
    fn parses_inner_descendant() {
        let p = parse_pattern("/a//b/c").unwrap();
        assert_eq!(labels_preorder(&p), vec!["/.", "a", "//", "b", "c"]);
    }

    #[test]
    fn parses_predicates_as_branches() {
        let p = parse_pattern("/a[b][d]").unwrap();
        let root_child = p.children(p.root())[0];
        assert_eq!(p.label(root_child), L::tag("a"));
        assert_eq!(p.children(root_child).len(), 2);
    }

    #[test]
    fn parses_predicate_with_descendant() {
        let p = parse_pattern("/a[c//o]/b").unwrap();
        // a has children: c (predicate) and b (continuation)
        let a = p.children(p.root())[0];
        assert_eq!(p.children(a).len(), 2);
        let c = p.children(a)[0];
        assert_eq!(p.label(c), L::tag("c"));
        let desc = p.children(c)[0];
        assert!(p.label(desc).is_descendant());
        assert_eq!(p.label(p.children(desc)[0]), L::tag("o"));
    }

    #[test]
    fn parses_predicate_with_leading_self_descendant() {
        let a = parse_pattern("/x[.//y]").unwrap();
        let b = parse_pattern("/x[//y]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parses_root_branching_form() {
        let p = parse_pattern(".[//CD][//Mozart]").unwrap();
        assert_eq!(p.children(p.root()).len(), 2);
        let q = parse_pattern("/.[//CD][//Mozart]").unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn parses_bare_root() {
        let p = parse_pattern("/.").unwrap();
        assert_eq!(p.node_count(), 1);
        let q = parse_pattern(".").unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn parses_root_with_continuation_path() {
        let p = parse_pattern("./a/b").unwrap();
        let q = parse_pattern("/a/b").unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn parses_quoted_labels() {
        let p = parse_pattern("//interpreter/ensemble/\"Berliner Phil.\"").unwrap();
        // The label value is unquoted; its Display form keeps the quotes so
        // the pattern's own Display output re-parses.
        assert!(p
            .preorder()
            .iter()
            .any(|&id| p.label(id) == L::Tag("Berliner Phil.")));
        let labels = labels_preorder(&p);
        assert!(labels.contains(&"\"Berliner Phil.\"".to_string()));
    }

    #[test]
    fn parses_nested_predicates() {
        let p = parse_pattern("/a[b[c][d]]/e").unwrap();
        let a = p.children(p.root())[0];
        assert_eq!(p.children(a).len(), 2); // b and e
        let b = p.children(a)[0];
        assert_eq!(p.children(b).len(), 2); // c and d
    }

    #[test]
    fn figure1_patterns_parse() {
        for expr in [
            "/media/CD/*/last/Mozart",
            "//CD/Mozart",
            ".[//CD][//Mozart]",
            "//composer[last/Mozart]",
        ] {
            let p = parse_pattern(expr).unwrap();
            assert!(p.validate().is_ok(), "{expr} should validate");
        }
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_pattern("").is_err());
        assert!(parse_pattern("   ").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_pattern("/a]").is_err());
        assert!(parse_pattern("/a[b]]").is_err());
    }

    #[test]
    fn rejects_missing_step() {
        assert!(parse_pattern("/a/").is_err());
        assert!(parse_pattern("//").is_err());
        assert!(parse_pattern("/a[]").is_err());
    }

    #[test]
    fn rejects_unterminated_predicate_or_quote() {
        assert!(parse_pattern("/a[b").is_err());
        assert!(parse_pattern("/\"abc").is_err());
    }

    #[test]
    fn rejects_double_descendant_step() {
        // `a////b` tokenises as a, //, //, b: the inner descendant would get a
        // descendant child, which validation rejects.
        assert!(parse_pattern("a////b").is_err());
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_pattern("/a[@x]").unwrap_err();
        assert!(err.offset() >= 3);
    }

    #[test]
    fn empty_quoted_labels_are_rejected() {
        // Found by fuzzing: `""` parsed to an empty tag whose bare Display
        // form no longer parsed.
        assert!(parse_pattern("/\"\"").is_err());
        assert!(parse_pattern("\"\"[o]/b").is_err());
        // Ordinary names still work quoted.
        let quoted = parse_pattern("/\"CD\"").unwrap();
        assert_eq!(quoted, parse_pattern("/CD").unwrap());
    }

    #[test]
    fn non_name_labels_round_trip_through_quoting() {
        // Found by fuzzing: labels with punctuation printed bare and the
        // Display output failed to re-parse.
        for expr in ["/\"a>b\"/c", "//ensemble/\"Berliner Phil.\"", "/\"9a\""] {
            let p = parse_pattern(expr).unwrap();
            let display = p.to_string();
            let reparsed = parse_pattern(&display).unwrap();
            assert_eq!(p, reparsed, "round trip failed for {expr} ({display})");
        }
    }

    #[test]
    fn deep_linear_path_is_rejected_not_overflowed() {
        // A long linear path parses without parser recursion, but the
        // resulting pattern's Display/equality walks recurse over its depth,
        // so the parser must bound total depth.
        let deep = "/a".repeat(MAX_DEPTH * 4);
        let err = parse_pattern(&deep).unwrap_err();
        assert!(err.message().contains("depth limit"));

        // Deep predicate nesting hits the same limit.
        let nested = format!(
            "{}{}",
            "a[".repeat(MAX_DEPTH * 4),
            "]".repeat(MAX_DEPTH * 4)
        );
        assert!(parse_pattern(&nested).is_err());

        // Just under the limit still parses (and its recursive walks are
        // safe to run).
        let ok = "/a".repeat(MAX_DEPTH - 1);
        let p = parse_pattern(&ok).unwrap();
        assert_eq!(p.height(), MAX_DEPTH - 1);
        let _ = p.to_string();
        assert_eq!(p, p.clone());
    }

    #[test]
    fn display_parse_round_trip_examples() {
        for expr in [
            "/media/CD/*/last/Mozart",
            "//CD/Mozart",
            "/.[//CD][//Mozart]",
            "//composer[last/Mozart]",
            "/a[b//c][d]",
            "/a/*[b][c]",
        ] {
            let p = parse_pattern(expr).unwrap();
            let reparsed = parse_pattern(&p.to_string()).unwrap();
            assert_eq!(p, reparsed, "round trip failed for {expr}");
        }
    }
}
