//! Exact tree-pattern matching semantics (`T |= p`, Section 2 of the paper).
//!
//! The semantics distinguish the children of the pattern root from all other
//! pattern nodes:
//!
//! * a *non-root* pattern node `v` evaluated at a document node `t`
//!   constrains a **child** of `t` (or a descendant-or-self of `t` when
//!   `label(v) = //`),
//! * a **child of the pattern root** constrains the document **root itself**
//!   (a tag must equal the root's label; `//` may re-root the evaluation at
//!   any descendant-or-self of the document root).
//!
//! This mirrors the special treatment of the `/.` root label: it is what lets
//! the pattern `.[//CD][//Mozart]` (pattern `pc` in Figure 1) require the
//! presence of two elements anywhere in the document without implying an
//! ancestor relationship between them.

use tps_xml::{NodeId, XmlTree};

use crate::pattern::{PatternLabel, PatternNodeId, TreePattern};

/// Does `document` satisfy `pattern`?
pub fn matches(document: &XmlTree, pattern: &TreePattern) -> bool {
    let doc_root = document.root();
    pattern
        .children(pattern.root())
        .iter()
        .all(|&v| match_at_root(document, doc_root, pattern, v))
}

/// Evaluate a child `v` of the pattern root against the document subtree
/// rooted at `t` (rules (1)–(3) of the top-level definition).
fn match_at_root(document: &XmlTree, t: NodeId, pattern: &TreePattern, v: PatternNodeId) -> bool {
    match pattern.label(v) {
        PatternLabel::Tag(tag) => {
            document.label(t) == tag
                && pattern
                    .children(v)
                    .iter()
                    .all(|&v2| match_subtree(document, t, pattern, v2))
        }
        PatternLabel::Wildcard => pattern
            .children(v)
            .iter()
            .all(|&v2| match_subtree(document, t, pattern, v2)),
        PatternLabel::Descendant => {
            // T' |= p' where p' re-roots the children of v at some
            // descendant-or-self t' of t.
            document.descendants_or_self(t).any(|t2| {
                pattern
                    .children(v)
                    .iter()
                    .all(|&v2| match_at_root(document, t2, pattern, v2))
            })
        }
        PatternLabel::Root => false,
    }
}

/// Evaluate a non-root pattern node `v` at document node `t`
/// (`(T, t) |= Subtree(v, p)`, rules (1)–(3) of the subtree definition).
fn match_subtree(document: &XmlTree, t: NodeId, pattern: &TreePattern, v: PatternNodeId) -> bool {
    match pattern.label(v) {
        PatternLabel::Tag(tag) => document.children(t).iter().any(|&t2| {
            document.label(t2) == tag
                && pattern
                    .children(v)
                    .iter()
                    .all(|&v2| match_subtree(document, t2, pattern, v2))
        }),
        PatternLabel::Wildcard => document.children(t).iter().any(|&t2| {
            pattern
                .children(v)
                .iter()
                .all(|&v2| match_subtree(document, t2, pattern, v2))
        }),
        PatternLabel::Descendant => document.descendants_or_self(t).any(|t2| {
            pattern
                .children(v)
                .iter()
                .all(|&v2| match_subtree(document, t2, pattern, v2))
        }),
        PatternLabel::Root => false,
    }
}

/// Count the documents in `documents` that match `pattern`.
pub fn count_matches<'a, I>(documents: I, pattern: &TreePattern) -> usize
where
    I: IntoIterator<Item = &'a XmlTree>,
{
    documents
        .into_iter()
        .filter(|doc| matches(doc, pattern))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreePattern;

    /// The XML document `T` of Figure 1.
    fn figure1_document() -> XmlTree {
        XmlTree::parse(
            "<media>\
               <book>\
                 <author><first>William</first><last>Shakespeare</last></author>\
                 <title>Hamlet</title>\
               </book>\
               <CD>\
                 <composer><first>Wolfgang</first><last>Mozart</last></composer>\
                 <title>Requiem</title>\
                 <interpreter><ensemble>Berliner Phil.</ensemble></interpreter>\
               </CD>\
             </media>",
        )
        .unwrap()
    }

    #[test]
    fn figure1_pa_matches() {
        let t = figure1_document();
        let pa = TreePattern::parse("/media/CD/*/last/Mozart").unwrap();
        assert!(matches(&t, &pa));
    }

    #[test]
    fn figure1_pb_does_not_match() {
        // pb requires a CD element with a *direct* Mozart sub-element.
        let t = figure1_document();
        let pb = TreePattern::parse("//CD/Mozart").unwrap();
        assert!(!matches(&t, &pb));
    }

    #[test]
    fn figure1_pc_matches() {
        // pc requires a CD element and a Mozart element anywhere.
        let t = figure1_document();
        let pc = TreePattern::parse(".[//CD][//Mozart]").unwrap();
        assert!(matches(&t, &pc));
    }

    #[test]
    fn figure1_pd_matches() {
        let t = figure1_document();
        let pd = TreePattern::parse("//composer[last/Mozart]").unwrap();
        assert!(matches(&t, &pd));
    }

    #[test]
    fn bare_root_matches_everything() {
        let t = figure1_document();
        let p = TreePattern::parse("/.").unwrap();
        assert!(matches(&t, &p));
    }

    #[test]
    fn root_tag_must_equal_document_root() {
        let t = figure1_document();
        assert!(matches(&t, &TreePattern::parse("/media").unwrap()));
        assert!(!matches(&t, &TreePattern::parse("/CD").unwrap()));
    }

    #[test]
    fn leading_wildcard_matches_any_root() {
        let t = figure1_document();
        assert!(matches(&t, &TreePattern::parse("/*/CD").unwrap()));
        assert!(!matches(&t, &TreePattern::parse("/*/DVD").unwrap()));
    }

    #[test]
    fn leading_descendant_can_match_the_root_itself() {
        let t = XmlTree::parse("<a><b/></a>").unwrap();
        assert!(matches(&t, &TreePattern::parse("//a").unwrap()));
        assert!(matches(&t, &TreePattern::parse("//b").unwrap()));
        assert!(!matches(&t, &TreePattern::parse("//c").unwrap()));
    }

    #[test]
    fn inner_descendant_can_map_to_the_empty_path() {
        // a//b means a has a descendant-or-self node with a *child* b, so a/b
        // itself qualifies.
        let t = XmlTree::parse("<a><b/></a>").unwrap();
        assert!(matches(&t, &TreePattern::parse("/a//b").unwrap()));
        let deep = XmlTree::parse("<a><x><y><b/></y></x></a>").unwrap();
        assert!(matches(&deep, &TreePattern::parse("/a//b").unwrap()));
    }

    #[test]
    fn branching_requires_all_branches() {
        let t = XmlTree::parse("<a><b/><d/></a>").unwrap();
        assert!(matches(&t, &TreePattern::parse("/a[b][d]").unwrap()));
        assert!(!matches(&t, &TreePattern::parse("/a[b][e]").unwrap()));
    }

    #[test]
    fn branches_may_match_the_same_document_node() {
        // Both branches b and b/c are satisfied by the same child.
        let t = XmlTree::parse("<a><b><c/></b></a>").unwrap();
        assert!(matches(&t, &TreePattern::parse("/a[b][b/c]").unwrap()));
    }

    #[test]
    fn wildcard_in_the_middle_of_a_path() {
        let t = XmlTree::parse("<a><x><c/></x></a>").unwrap();
        assert!(matches(&t, &TreePattern::parse("/a/*/c").unwrap()));
        assert!(!matches(&t, &TreePattern::parse("/a/*/d").unwrap()));
    }

    #[test]
    fn text_leaves_are_matchable_labels() {
        let t = XmlTree::parse("<last>Mozart</last>").unwrap();
        assert!(matches(&t, &TreePattern::parse("/last/Mozart").unwrap()));
        assert!(matches(&t, &TreePattern::parse("//Mozart").unwrap()));
    }

    #[test]
    fn quoted_label_with_space_matches() {
        let t = figure1_document();
        let p = TreePattern::parse("//ensemble/\"Berliner Phil.\"").unwrap();
        assert!(matches(&t, &p));
    }

    #[test]
    fn count_matches_counts_only_matching_documents() {
        let docs = vec![
            XmlTree::parse("<a><b/></a>").unwrap(),
            XmlTree::parse("<a><c/></a>").unwrap(),
            XmlTree::parse("<x><b/></x>").unwrap(),
        ];
        let p = TreePattern::parse("/a/b").unwrap();
        assert_eq!(count_matches(&docs, &p), 1);
        let q = TreePattern::parse("//b").unwrap();
        assert_eq!(count_matches(&docs, &q), 2);
    }

    #[test]
    fn mutually_exclusive_branches_do_not_match() {
        // The counter-representation motivating example of Section 3.2:
        // a[b][d] where b and d never co-occur.
        let t1 = XmlTree::parse("<a><b/></a>").unwrap();
        let t2 = XmlTree::parse("<a><d/></a>").unwrap();
        let p = TreePattern::parse("/a[b][d]").unwrap();
        assert!(!matches(&t1, &p));
        assert!(!matches(&t2, &p));
    }

    #[test]
    fn descendant_under_branching_node() {
        let t = XmlTree::parse("<a><c><f/><o><n/></o></c></a>").unwrap();
        let p = TreePattern::parse("/a[c/f][c/o/n]").unwrap();
        assert!(matches(&t, &p));
        let q = TreePattern::parse("/a[c//n][c/f]").unwrap();
        assert!(matches(&t, &q));
    }
}
