//! Parse-outcome conformance: the one XML lexer (`tps_xml::scan`, which
//! `XmlTree::parse` drives into a tree-building sink) must reproduce, byte
//! for byte, the outcome the workspace's former recursive-descent tree
//! parser recorded for every input in `fixtures/parse_outcomes.txt`:
//! `ok <to_xml>` for an accepted document, `err <Display>` (error text and
//! byte offset) for a rejected one.
//!
//! The inputs are a committed conformance corpus, three nesting depths
//! around the default limit and every case in the repository's fuzz corpora
//! (`fuzz/corpus/xml`, `fuzz/corpus/ingest`), so each crash the fuzzers
//! ever minimized doubles as a fixture. A case added to those corpora needs
//! its line in the fixture; the failure message prints it.
//!
//! Fixture format: one `<key>\t<outcome>` line per input, with `\`, line
//! breaks and tabs escaped in both halves. Invalid UTF-8 has no text to
//! parse; its outcome is `scan_document`'s `InvalidUtf8` error.

use std::collections::HashMap;

use tps_xml::error::XmlErrorKind;
use tps_xml::{scan_document, NullSink, ScanLimits, XmlTree};

/// The outcomes the tree parser gave every input below.
const RECORDED: &str = include_str!("fixtures/parse_outcomes.txt");

/// The committed conformance corpus: every construct the lexer handles,
/// valid and invalid, including the error taxonomy.
const CONFORMANCE_CORPUS: &[&str] = &[
    // Plain structure.
    "<a/>",
    "<a></a>",
    "<media><CD><title>Requiem</title></CD></media>",
    "<a><b/><b><c/></b><b/></a>",
    // Prolog, DOCTYPE, comments, processing instructions, epilog.
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a><b/></a>",
    "<!DOCTYPE a [<!ELEMENT a ANY>]><a>x</a>",
    "<a><!-- comment --><b/><!-- another --></a>",
    "<a><?pi data?><b/></a>",
    "<a/><!-- trailing comment --> ",
    // Text handling: trimming, whitespace-only runs, mixed content.
    "<a>  padded  </a>",
    "<a>\n\t \r</a>",
    "<a>one<b/>two<b/>three</a>",
    "<a>before<!-- split -->after</a>",
    // CDATA splices into the surrounding run; entities decode.
    "<a><![CDATA[ <raw> & ]]></a>",
    "<a>x<![CDATA[y]]>z</a>",
    "<a>&lt;&gt;&amp;&apos;&quot;</a>",
    "<a>&#65;&#x42;</a>",
    "<a k=\"&lt;v&gt;\">t</a>",
    // Attributes, including single quotes and many of them.
    "<a k='single' l=\"double\"/>",
    "<a one=\"1\" two=\"2\" three=\"3\" four=\"4\"/>",
    // Non-ASCII names and text.
    "<h\u{e9}llo>caf\u{e9}</h\u{e9}llo>",
    // Errors: each kind of rejection, with its byte offset.
    "",
    "   ",
    "<a>",
    "<a><b></a>",
    "</a>",
    "<a></a><b/>",
    "<a></a>tail",
    "<1a/>",
    "<a b=1/>",
    "<a>&unknown;</a>",
    "<a>&#xZZ;</a>",
    "<a",
    "<a /",
    "<!-- unterminated",
    "<a><![CDATA[never closed</a>",
    "<?pi never closed",
];

/// Escape `\`, line breaks and tabs so a key or outcome fits on one line.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// The fixture line of one input: its key and what parsing it gives.
fn outcome_line(key: &str, bytes: &[u8]) -> String {
    let outcome = match std::str::from_utf8(bytes) {
        Ok(text) => XmlTree::parse(text).map(|tree| tree.to_xml()),
        Err(_) => {
            let err = scan_document(bytes, &ScanLimits::default(), &mut NullSink)
                .expect_err("invalid UTF-8 is rejected");
            assert_eq!(*err.kind(), XmlErrorKind::InvalidUtf8, "{key}");
            Err(err)
        }
    };
    match outcome {
        Ok(xml) => format!("{key}\tok {}", escape(&xml)),
        Err(err) => format!("{key}\terr {}", escape(&err.to_string())),
    }
}

/// Assert that `fresh` reproduces, line for line, every recorded line whose
/// key starts with one of `groups` — no more, no fewer.
fn assert_recorded(groups: &[&str], fresh: &[String]) {
    let recorded: HashMap<&str, &str> = RECORDED
        .lines()
        .filter(|line| groups.iter().any(|group| line.starts_with(group)))
        .map(|line| (line.split('\t').next().expect("split yields a key"), line))
        .collect();
    for line in fresh {
        let key = line.split('\t').next().expect("split yields a key");
        let Some(&expected) = recorded.get(key) else {
            panic!("no recorded outcome for {key:?}; its line would be:\n{line}");
        };
        assert_eq!(line, expected, "outcome of {key:?} changed");
    }
    assert_eq!(
        fresh.len(),
        recorded.len(),
        "the fixture records {} {groups:?} inputs, {} were replayed",
        recorded.len(),
        fresh.len()
    );
}

#[test]
fn committed_corpus_scans_identically_to_the_parser() {
    let fresh: Vec<String> = CONFORMANCE_CORPUS
        .iter()
        .map(|doc| outcome_line(&format!("corpus {}", escape(doc)), doc.as_bytes()))
        .collect();
    assert_recorded(&["corpus "], &fresh);
    // Every fixture line belongs to a group some test replays.
    for line in RECORDED.lines() {
        assert!(
            ["corpus ", "depth ", "xml/", "ingest/"]
                .iter()
                .any(|group| line.starts_with(group)),
            "unreplayed fixture line {line:?}"
        );
    }
}

#[test]
fn deeply_nested_documents_hit_the_same_depth_limit() {
    // One level under, at, and over the default limit.
    let limit = ScanLimits::default().max_depth;
    let fresh: Vec<String> = [limit - 1, limit, limit + 1]
        .into_iter()
        .map(|depth| {
            let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
            outcome_line(&format!("depth {depth}"), doc.as_bytes())
        })
        .collect();
    assert_recorded(&["depth "], &fresh);
}

#[test]
fn fuzz_corpora_replay_through_the_differential() {
    // Every minimized fuzz case doubles as a conformance fixture. The
    // corpus lives at the repository root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let mut fresh = Vec::new();
    for target in ["xml", "ingest"] {
        let entries = std::fs::read_dir(root.join(target)).expect("fuzz corpus directory");
        for entry in entries {
            let path = entry.expect("corpus directory entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("case") {
                continue;
            }
            let name = path.file_name().expect("case file name").to_string_lossy();
            let bytes = std::fs::read(&path).expect("corpus case is readable");
            fresh.push(outcome_line(&format!("{target}/{name}"), &bytes));
        }
    }
    assert!(
        fresh.len() >= 5,
        "expected the committed fuzz corpora to replay"
    );
    assert_recorded(&["xml/", "ingest/"], &fresh);
}

#[test]
fn custom_limits_reject_exactly_at_the_boundary() {
    let limits = ScanLimits {
        max_depth: 3,
        max_attributes: 2,
    };
    assert!(scan_document(b"<a><b><c/></b></a>", &limits, &mut NullSink).is_ok());
    let too_deep = scan_document(b"<a><b><c><d/></c></b></a>", &limits, &mut NullSink);
    assert!(
        matches!(
            too_deep.unwrap_err().kind(),
            XmlErrorKind::LimitExceeded { limit: 3, .. }
        ),
        "depth 4 under a limit of 3 must be rejected"
    );
    assert!(scan_document(b"<a p=\"1\" q=\"2\"/>", &limits, &mut NullSink).is_ok());
    let too_wide = scan_document(b"<a p=\"1\" q=\"2\" r=\"3\"/>", &limits, &mut NullSink);
    assert!(
        matches!(
            too_wide.unwrap_err().kind(),
            XmlErrorKind::LimitExceeded { limit: 2, .. }
        ),
        "3 attributes under a limit of 2 must be rejected"
    );
}
