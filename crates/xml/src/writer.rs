//! Serialisation of [`XmlTree`] back to XML text.
//!
//! The writer produces a canonical, attribute-free form: element nodes become
//! tags and text leaves become escaped character data. Round-tripping a tree
//! through [`write_document`] and [`XmlTree::parse`] yields an equal tree
//! (this is covered by property tests).

use crate::tree::{NodeId, XmlTree};

/// Serialise a tree to XML text.
pub fn write_document(tree: &XmlTree) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), &mut out);
    out
}

fn write_node(tree: &XmlTree, id: NodeId, out: &mut String) {
    let node = tree.node(id);
    if node.is_text() {
        out.push_str(&escape_text(node.label()));
        return;
    }
    out.push('<');
    out.push_str(node.label());
    if node.is_leaf() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for &child in node.children() {
        write_node(tree, child, out);
    }
    out.push_str("</");
    out.push_str(node.label());
    out.push('>');
}

/// Escape the characters that are significant in XML character data.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XmlTree;

    #[test]
    fn writes_empty_element_self_closed() {
        let t = XmlTree::new("a");
        assert_eq!(write_document(&t), "<a/>");
    }

    #[test]
    fn writes_nested_elements() {
        let mut t = XmlTree::new("a");
        let b = t.add_child(t.root(), "b");
        t.add_child(b, "c");
        t.add_child(t.root(), "d");
        assert_eq!(write_document(&t), "<a><b><c/></b><d/></a>");
    }

    #[test]
    fn writes_text_leaves_escaped() {
        let mut t = XmlTree::new("x");
        t.add_text_child(t.root(), "a < b & c");
        assert_eq!(write_document(&t), "<x>a &lt; b &amp; c</x>");
    }

    #[test]
    fn round_trip_simple_document() {
        let original = "<media><CD><last>Mozart</last></CD></media>";
        let t = XmlTree::parse(original).unwrap();
        let written = t.to_xml();
        let reparsed = XmlTree::parse(&written).unwrap();
        assert_eq!(t, reparsed);
    }

    #[test]
    fn escape_text_handles_all_special_characters() {
        assert_eq!(escape_text("<>&\"'"), "&lt;&gt;&amp;&quot;&apos;");
        assert_eq!(escape_text("plain"), "plain");
    }
}
