//! Structure-aware input generators.
//!
//! Pure byte mutation wastes most iterations on inputs the tokenizer rejects
//! immediately. These generators emit *mostly valid* XML documents, pattern
//! expressions and DTDs — with occasional deliberate defects — so the fuzz
//! drivers spend their budget in the interesting middle of each parser. All
//! generators are pure functions of the RNG state, so generated cases replay
//! deterministically from `(seed, iteration)`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

const TAGS: &[&str] = &[
    "media", "CD", "book", "title", "composer", "Mozart", "last", "a", "b", "c", "nitf", "body",
    "p",
];

const ENTITIES: &[&str] = &[
    "&amp;", "&lt;", "&gt;", "&apos;", "&quot;", "&#65;", "&#x41;",
];

fn tag(rng: &mut StdRng) -> &'static str {
    // invariant: the table is a non-empty const
    TAGS.choose(rng).expect("non-empty table")
}

/// Generate a mostly-valid XML document.
pub fn xml_document(rng: &mut StdRng) -> Vec<u8> {
    let mut out = String::new();
    if rng.gen_bool(0.2) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    if rng.gen_bool(0.15) {
        out.push_str("<!DOCTYPE media [ <!ELEMENT media ANY> ]>");
    }
    let root = tag(rng);
    xml_element(rng, &mut out, root, 0);
    if rng.gen_bool(0.05) {
        // Deliberate defect: trailing garbage after the root.
        out.push_str("<trailing>");
    }
    out.into_bytes()
}

fn xml_element(rng: &mut StdRng, out: &mut String, name: &str, depth: usize) {
    out.push('<');
    out.push_str(name);
    for _ in 0..rng.gen_range(0usize..3) {
        let attr = tag(rng);
        out.push_str(&format!(" {attr}=\"v{}\"", rng.gen_range(0u32..100)));
    }
    if rng.gen_bool(0.2) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    let children = if depth >= 5 {
        0
    } else {
        rng.gen_range(0usize..4)
    };
    for _ in 0..children {
        match rng.gen_range(0u32..6) {
            0 => out.push_str("text "),
            // invariant: the table is a non-empty const
            1 => out.push_str(ENTITIES.choose(rng).expect("non-empty table")),
            2 => out.push_str("<!-- comment -->"),
            3 => out.push_str("<?pi data?>"),
            _ => {
                let child = tag(rng);
                xml_element(rng, out, child, depth + 1);
            }
        }
    }
    if rng.gen_bool(0.03) {
        // Deliberate defect: wrong closing tag.
        out.push_str(&format!("</{}>", tag(rng)));
    } else {
        out.push_str(&format!("</{name}>"));
    }
}

/// Generate a mostly-valid XPath-like pattern expression.
pub fn pattern_expr(rng: &mut StdRng) -> Vec<u8> {
    let mut out = String::new();
    if rng.gen_bool(0.1) {
        out.push_str("/.");
        for _ in 0..rng.gen_range(1usize..3) {
            out.push('[');
            pattern_path(rng, &mut out, 0);
            out.push(']');
        }
        return out.into_bytes();
    }
    if rng.gen_bool(0.5) {
        out.push('/');
    }
    pattern_path(rng, &mut out, 0);
    out.into_bytes()
}

fn pattern_path(rng: &mut StdRng, out: &mut String, depth: usize) {
    let steps = rng.gen_range(1usize..4);
    for i in 0..steps {
        if i > 0 {
            out.push_str(if rng.gen_bool(0.3) { "//" } else { "/" });
        }
        match rng.gen_range(0u32..8) {
            0 => out.push('*'),
            1 => out.push_str(&format!("\"{}\"", tag(rng))),
            _ => out.push_str(tag(rng)),
        }
        if depth < 3 && rng.gen_bool(0.25) {
            out.push('[');
            if rng.gen_bool(0.2) {
                out.push('.');
                out.push_str("//");
            }
            pattern_path(rng, out, depth + 1);
            out.push(']');
        }
    }
}

/// The three-letter alphabet of [`dense_document`] and [`dense_pattern`]:
/// small enough that a random pattern's steps are present in a random
/// document most of the time, which is where matchers disagree — steps
/// found, but under the wrong parent or in different subtrees.
const DENSE_TAGS: &[&str] = &["a", "b", "c"];

fn dense_tag(rng: &mut StdRng) -> &'static str {
    // invariant: the table is a non-empty const
    DENSE_TAGS.choose(rng).expect("non-empty table")
}

/// Generate a valid document over `a`, `b`, `c` with repeated sibling
/// labels, up to five levels deep.
pub fn dense_document(rng: &mut StdRng) -> Vec<u8> {
    fn element(rng: &mut StdRng, out: &mut String, depth: usize) {
        let name = dense_tag(rng);
        out.push_str(&format!("<{name}>"));
        if depth < 4 {
            for _ in 0..rng.gen_range(0usize..4) {
                element(rng, out, depth + 1);
            }
        }
        out.push_str(&format!("</{name}>"));
    }
    let mut out = String::new();
    element(rng, &mut out, 0);
    out.into_bytes()
}

/// Generate a valid pattern over `a`, `b`, `c`, `*` and `//`, branching
/// freely (sibling branches often share their first step).
pub fn dense_pattern(rng: &mut StdRng) -> Vec<u8> {
    fn step(rng: &mut StdRng, out: &mut String, depth: usize) {
        if rng.gen_bool(0.15) {
            out.push('*');
        } else {
            out.push_str(dense_tag(rng));
        }
        if depth >= 3 {
            return;
        }
        match rng.gen_range(0u32..10) {
            0..=2 => {}
            3..=6 => {
                out.push_str(if rng.gen_bool(0.3) { "//" } else { "/" });
                step(rng, out, depth + 1);
            }
            _ => {
                for _ in 0..rng.gen_range(2usize..4) {
                    out.push('[');
                    if rng.gen_bool(0.2) {
                        out.push_str(".//");
                    }
                    step(rng, out, depth + 1);
                    out.push(']');
                }
            }
        }
    }
    let mut out = String::from(if rng.gen_bool(0.3) { "//" } else { "/" });
    step(rng, &mut out, 0);
    out.into_bytes()
}

/// Generate a mostly-valid DTD.
pub fn dtd_document(rng: &mut StdRng) -> Vec<u8> {
    let mut out = String::new();
    let wrapped = rng.gen_bool(0.3);
    if wrapped {
        out.push_str(&format!("<!DOCTYPE {} [\n", tag(rng)));
    }
    if rng.gen_bool(0.4) {
        out.push_str("<!ENTITY % text \"(#PCDATA)\">\n");
    }
    if rng.gen_bool(0.2) {
        out.push_str("<![INCLUDE[ <!ELEMENT inc EMPTY> ]]>\n");
    }
    let elements = rng.gen_range(1usize..5);
    for i in 0..elements {
        let name = format!("e{i}");
        out.push_str(&format!("<!ELEMENT {name} "));
        dtd_content_model(rng, &mut out, 0);
        out.push_str(">\n");
        if rng.gen_bool(0.3) {
            out.push_str(&format!(
                "<!ATTLIST {name} id ID #REQUIRED kind (x|y) \"x\">\n"
            ));
        }
    }
    if rng.gen_bool(0.2) {
        out.push_str("<!ENTITY copyright \"(c) example\">\n");
    }
    if wrapped {
        out.push_str("]>");
    }
    out.into_bytes()
}

fn dtd_content_model(rng: &mut StdRng, out: &mut String, depth: usize) {
    match rng.gen_range(0u32..6) {
        0 => out.push_str("EMPTY"),
        1 => out.push_str("ANY"),
        2 => out.push_str("%text;"),
        3 => out.push_str("(#PCDATA | a | b)*"),
        _ => {
            out.push('(');
            let parts = rng.gen_range(1usize..4);
            let sep = if rng.gen_bool(0.5) { ", " } else { " | " };
            for i in 0..parts {
                if i > 0 {
                    out.push_str(sep);
                }
                if depth < 3 && rng.gen_bool(0.3) {
                    dtd_group(rng, out, depth + 1);
                } else {
                    out.push_str(tag(rng));
                    out.push_str(occurrence(rng));
                }
            }
            out.push(')');
            out.push_str(occurrence(rng));
        }
    }
}

fn dtd_group(rng: &mut StdRng, out: &mut String, depth: usize) {
    out.push('(');
    let parts = rng.gen_range(1usize..3);
    for i in 0..parts {
        if i > 0 {
            out.push_str(" | ");
        }
        if depth < 3 && rng.gen_bool(0.3) {
            dtd_group(rng, out, depth + 1);
        } else {
            out.push_str(tag(rng));
        }
    }
    out.push(')');
    out.push_str(occurrence(rng));
}

fn occurrence(rng: &mut StdRng) -> &'static str {
    ["", "?", "*", "+"]
        .choose(rng)
        .copied()
        // invariant: the table is a non-empty literal
        .expect("non-empty table")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generators_are_deterministic() {
        for seed in 0..20u64 {
            let a = xml_document(&mut StdRng::seed_from_u64(seed));
            let b = xml_document(&mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b);
            let a = pattern_expr(&mut StdRng::seed_from_u64(seed));
            let b = pattern_expr(&mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b);
            let a = dtd_document(&mut StdRng::seed_from_u64(seed));
            let b = dtd_document(&mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b);
            let a = dense_document(&mut StdRng::seed_from_u64(seed));
            let b = dense_document(&mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b);
            let a = dense_pattern(&mut StdRng::seed_from_u64(seed));
            let b = dense_pattern(&mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn most_generated_xml_parses() {
        let mut ok = 0;
        for seed in 0..100u64 {
            let doc = xml_document(&mut StdRng::seed_from_u64(seed));
            if tps_xml::XmlTree::parse(&String::from_utf8(doc).unwrap()).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 50, "only {ok}/100 generated documents parsed");
    }

    #[test]
    fn most_generated_patterns_parse() {
        let mut ok = 0;
        for seed in 0..100u64 {
            let expr = pattern_expr(&mut StdRng::seed_from_u64(seed));
            if tps_pattern::parser::parse_pattern(&String::from_utf8(expr).unwrap()).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 50, "only {ok}/100 generated patterns parsed");
    }

    #[test]
    fn dense_documents_and_patterns_always_parse() {
        for seed in 0..100u64 {
            let doc = dense_document(&mut StdRng::seed_from_u64(seed));
            tps_xml::XmlTree::parse(&String::from_utf8(doc).unwrap()).unwrap();
            let expr = dense_pattern(&mut StdRng::seed_from_u64(seed));
            tps_pattern::parser::parse_pattern(&String::from_utf8(expr).unwrap()).unwrap();
        }
    }

    #[test]
    fn most_generated_dtds_parse() {
        let mut ok = 0;
        for seed in 0..100u64 {
            let dtd = dtd_document(&mut StdRng::seed_from_u64(seed));
            if tps_dtd::parser::parse(&String::from_utf8(dtd).unwrap()).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 50, "only {ok}/100 generated DTDs parsed");
    }
}
