//! Unit tests of [`XmlTree::parse`](crate::XmlTree::parse): the scanner
//! driving the crate's tree-building sink. `lib.rs` mounts this file as the
//! test-only module `parser`; the inner `#[cfg(test)]` marks it as test code
//! for line-based source checks that read the file on its own.

#[cfg(test)]
mod tests {
    use crate::error::XmlErrorKind;
    use crate::scan::{MAX_ATTRIBUTES, MAX_DEPTH};
    use crate::XmlTree;

    #[test]
    fn parses_nested_elements() {
        let t = XmlTree::parse("<a><b><c/></b><d></d></a>").unwrap();
        assert_eq!(t.label(t.root()), "a");
        let labels: Vec<&str> = t.preorder().map(|id| t.label(id)).collect();
        assert_eq!(labels, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn text_becomes_leaf_node() {
        let t = XmlTree::parse("<last>Mozart</last>").unwrap();
        assert_eq!(t.node_count(), 2);
        let leaf = t.children(t.root())[0];
        assert_eq!(t.label(leaf), "Mozart");
        assert!(t.node(leaf).is_text());
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let t = XmlTree::parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn attributes_are_accepted_and_ignored() {
        let t = XmlTree::parse(r#"<a id="1" name='x'><b class="y"/></a>"#).unwrap();
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
        let t = XmlTree::parse(input).unwrap();
        assert_eq!(t.label(t.root()), "media");
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn cdata_is_inlined_as_text() {
        let t = XmlTree::parse("<a><![CDATA[raw <text> & stuff]]></a>").unwrap();
        let leaf = t.children(t.root())[0];
        assert_eq!(t.label(leaf), "raw <text> & stuff");
    }

    #[test]
    fn entities_are_decoded() {
        let t = XmlTree::parse("<a>&lt;x&gt; &amp; &#65;&#x42;</a>").unwrap();
        let leaf = t.children(t.root())[0];
        assert_eq!(t.label(leaf), "<x> & AB");
    }

    #[test]
    fn invalid_entity_is_an_error() {
        let err = XmlTree::parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::InvalidEntity(_)));
    }

    #[test]
    fn mismatched_closing_tag_is_an_error() {
        let err = XmlTree::parse("<a><b></c></a>").unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::MismatchedClosingTag { .. }
        ));
    }

    #[test]
    fn unexpected_eof_is_an_error() {
        let err = XmlTree::parse("<a><b>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnexpectedEof));
    }

    #[test]
    fn trailing_content_is_an_error() {
        let err = XmlTree::parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::TrailingContent));
    }

    #[test]
    fn empty_input_has_no_root() {
        let err = XmlTree::parse("   ").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::NoRootElement));
    }

    #[test]
    fn missing_attribute_value_is_malformed() {
        let err = XmlTree::parse("<a attr></a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn unquoted_attribute_value_is_malformed() {
        let err = XmlTree::parse("<a attr=1></a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn mixed_content_keeps_text_and_elements() {
        let t = XmlTree::parse("<p>hello <b>world</b> bye</p>").unwrap();
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
        let t = XmlTree::parse(doc).unwrap();
        assert_eq!(t.label(t.root()), "media");
        assert_eq!(t.count_label("title"), 2);
        assert_eq!(t.count_label("Mozart"), 1);
        assert_eq!(t.depth(), 5);
    }

    #[test]
    fn unicode_tag_names_are_accepted() {
        let t = XmlTree::parse("<données><été>chaud</été></données>").unwrap();
        assert_eq!(t.label(t.root()), "données");
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // Twice the limit in open tags: must come back as a typed error
        // (recursion is bounded by MAX_DEPTH, so no stack overflow).
        let input = "<a>".repeat(MAX_DEPTH * 2);
        let err = XmlTree::parse(&input).unwrap_err();
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
        assert!(XmlTree::parse(&ok).is_ok());
    }

    #[test]
    fn huge_attribute_lists_are_rejected() {
        let mut input = String::from("<a");
        for i in 0..(MAX_ATTRIBUTES + 1) {
            input.push_str(&format!(" x{i}=\"v\""));
        }
        input.push_str("/>");
        let err = XmlTree::parse(&input).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                XmlErrorKind::LimitExceeded { what, .. } if *what == "attribute count"
            ),
            "{err}"
        );
    }

    #[test]
    fn leading_closing_tag_has_no_root() {
        let err = XmlTree::parse("</a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::NoRootElement));
    }
}
