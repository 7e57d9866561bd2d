//! The fuzz targets and their invariants.
//!
//! Each target consumes arbitrary bytes and must uphold two guarantees:
//!
//! 1. **Never panic.** Parsers return typed `Err` values on malformed input;
//!    a panic (or an abort from unbounded recursion) is a bug.
//! 2. **Round-trips hold on accepted inputs.** A parsed XML document
//!    re-parses from its `to_xml` form; a parsed pattern re-parses from its
//!    `Display` form to an equal pattern; synopsis merge is commutative and
//!    survives pruning.
//!
//! [`run_case`] wraps execution in `catch_unwind` so the drivers and the
//! corpus replay tests observe crashes as data instead of dying.

use std::panic::{self, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tps_synopsis::{
    DocId, IngestTarget, PruneConfig, SummaryValue, Synopsis, SynopsisConfig, SynopsisNodeId,
};
use tps_xml::XmlTree;

use crate::corpus::digest;
use crate::gen;

/// The fuzzable surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `tps-xml`: `XmlTree::parse` plus the skeleton/serialise round-trip.
    Xml,
    /// `tps-pattern`: `parse_pattern` plus the `Display` round-trip.
    Pattern,
    /// `tps-dtd`: `parser::parse` plus schema introspection and `write_dtd`.
    Dtd,
    /// `tps-synopsis`: `Synopsis::merge` commutativity and merge-after-prune.
    Merge,
    /// `tps-analyze`: differential soundness of the workload analyzer —
    /// `E001` patterns match zero DTD-conforming documents, `W002`/`W003`
    /// links imply match-set inclusion, and compaction-plan routing never
    /// loses a delivery.
    Analyze,
    /// `tps-core`/`tps-cluster`: the banded-MinHash candidate index —
    /// candidate pairs match a brute-force band scan, estimates are
    /// symmetric and bounded, single-row banding surfaces every pair with a
    /// nonzero estimate, and removal keeps the online leader partition
    /// consistent.
    Index,
    /// `tps-xml`/`tps-synopsis`: the one XML lexer through two sinks —
    /// accept/reject parity of a bare scan and `XmlTree::parse` (identical
    /// typed errors on UTF-8 input), estimate-identical byte vs tree
    /// synopsis ingest for every matching-set representation, rollback on
    /// rejected documents, and panic-freedom under tiny scan limits.
    Ingest,
    /// `tps-net`: the wire codec — decoding arbitrary bytes never panics,
    /// accepted frames re-encode byte-identically (the encoding is
    /// canonical), oversized fields fail with the right typed limit error,
    /// and the framed stream reader survives arbitrary prefixes.
    Net,
    /// `tps-pattern`: the shared step forest `PatternSet` against
    /// per-pattern `TreePattern::matches` — under random insert/remove
    /// churn the set reports exactly the brute-force keys, ascending, and
    /// its forest is the one a set that never held the removed patterns
    /// would have.
    Matchset,
}

impl Target {
    /// All targets, in the order the smoke job runs them.
    pub fn all() -> [Target; 9] {
        [
            Target::Xml,
            Target::Pattern,
            Target::Dtd,
            Target::Merge,
            Target::Analyze,
            Target::Index,
            Target::Ingest,
            Target::Net,
            Target::Matchset,
        ]
    }

    /// Stable name used for corpus directories and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Target::Xml => "xml",
            Target::Pattern => "pattern",
            Target::Dtd => "dtd",
            Target::Merge => "merge",
            Target::Analyze => "analyze",
            Target::Index => "index",
            Target::Ingest => "ingest",
            Target::Net => "net",
            Target::Matchset => "matchset",
        }
    }

    /// Look a target up by its [`name`](Target::name).
    pub fn from_name(name: &str) -> Option<Target> {
        Target::all().into_iter().find(|t| t.name() == name)
    }

    /// Seed inputs mutation starts from: small valid inputs per target.
    pub fn seeds(self) -> Vec<Vec<u8>> {
        // Net seeds are binary frames, not text.
        if self == Target::Net {
            use tps_net::codec::SyncConsumer;
            use tps_net::{BrokerStats, ErrorCode, MatchedDocument, Message};
            return [
                Message::Subscribe {
                    subscriber: 1,
                    broker: 0,
                    pattern: "//CD/composer".to_string(),
                },
                Message::Unsubscribe { subscriber: 1 },
                Message::Publish {
                    document: b"<media><CD><title>x</title></CD></media>".to_vec(),
                },
                Message::Forward {
                    from: 2,
                    documents: vec![b"<a/>".to_vec(), b"<a><b/></a>".to_vec()],
                },
                Message::ForwardMatched {
                    from: 2,
                    view: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
                    documents: vec![
                        MatchedDocument {
                            bytes: b"<a><b/></a>"[..].into(),
                            interested: Some(vec![0, 1, 127, 128, 1 << 21, u64::MAX].into()),
                        },
                        MatchedDocument {
                            bytes: b"<a/>"[..].into(),
                            interested: None,
                        },
                    ],
                },
                Message::Hello { broker: 3 },
                Message::Error {
                    code: ErrorCode::BadPattern,
                    message: "no".to_string(),
                },
                Message::StatsReply {
                    stats: BrokerStats {
                        broker: 1,
                        deliveries: 7,
                        link_messages: 3,
                        forwards_rematched: 2,
                        view_digest: 1 << 100,
                        ..BrokerStats::default()
                    },
                },
                Message::Deliver {
                    subscriber: 9,
                    document: b"<a/>".to_vec(),
                },
                Message::DeliverMatched {
                    subscribers: vec![3, 9, 200, u64::MAX].into(),
                    document: b"<a/>"[..].into(),
                },
                Message::SyncState {
                    consumers: vec![SyncConsumer {
                        subscriber: 9,
                        broker: 1,
                        pattern: "/a//b".to_string(),
                    }],
                },
            ]
            .iter()
            .map(Message::encode)
            .collect();
        }
        let texts: &[&str] = match self {
            Target::Xml => &[
                "<media><CD><title>x</title></CD></media>",
                "<?xml version=\"1.0\"?><a b=\"1\">t &amp; u</a>",
                "<!DOCTYPE a [<!ELEMENT a ANY>]><a><!-- c --><b/></a>",
            ],
            Target::Pattern => &[
                "/media/CD/*/last/Mozart",
                "//composer[last/Mozart]",
                "/.[//CD][//Mozart]",
                "/a[b//c][d]",
            ],
            Target::Dtd => &[
                "<!ELEMENT a (b?, (c | d)*)><!ELEMENT b (#PCDATA)>",
                "<!ENTITY % t \"(#PCDATA)\"><!ELEMENT x %t;><!ATTLIST x k CDATA #IMPLIED>",
                "<!DOCTYPE r [<!ELEMENT r (a+)><!ELEMENT a EMPTY>]>",
            ],
            // Merge, Analyze, Index and Matchset interpret bytes as a
            // scenario seed, so any bytes do.
            Target::Ingest => &[
                "<media><CD><title>x</title></CD></media>",
                "<a k=\"v\">one &amp; two<![CDATA[ <raw> ]]></a>",
                "<a><b/><b><c/></b>text</a>",
            ],
            Target::Merge => &["0", "12345678", "merge-scenario"],
            Target::Analyze => &["0", "424242", "analyze-scenario"],
            Target::Index => &["0", "31337", "index-scenario"],
            Target::Matchset => &["0", "2007", "matchset-scenario"],
            // Handled above (binary seeds).
            Target::Net => &[],
        };
        texts.iter().map(|t| t.as_bytes().to_vec()).collect()
    }

    /// Mutation dictionary: tokens that matter to this target's grammar.
    pub fn dictionary(self) -> &'static [&'static [u8]] {
        match self {
            Target::Xml => &[
                b"<a>",
                b"</a>",
                b"<![CDATA[",
                b"]]>",
                b"<!DOCTYPE",
                b"<!--",
                b"-->",
                b"<?",
                b"?>",
                b"&amp;",
                b"&#x41;",
                b"&#",
                b"=\"",
                b"/>",
                b"\xc3\xa9",
            ],
            Target::Ingest => &[
                b"<a>",
                b"</a>",
                b"<![CDATA[",
                b"]]>",
                b"&amp;",
                b"&#x41;",
                b"=\"",
                b"/>",
                b"<?",
                b"?>",
                b"\xff",
            ],
            Target::Pattern => &[b"//", b"/", b"[", b"]", b"*", b".", b"\"", b"[.//", b"]["],
            Target::Dtd => &[
                b"<!ELEMENT",
                b"<!ATTLIST",
                b"<!ENTITY",
                b"<!ENTITY %",
                b"%e;",
                b"(#PCDATA",
                b"<![INCLUDE[",
                b"<![IGNORE[",
                b"]]>",
                b"EMPTY",
                b"ANY",
                b"#REQUIRED",
                b"(",
                b")",
                b"|",
                b",",
                b"*",
                b"SYSTEM",
            ],
            Target::Merge => &[b"0", b"9", b"merge"],
            Target::Analyze => &[b"0", b"9", b"analyze"],
            Target::Index => &[b"0", b"9", b"index"],
            Target::Matchset => &[b"0", b"9", b"matchset"],
            Target::Net => &[
                // version + each verb byte, field length prefixes, and the
                // text fields limits guard.
                b"\x03\x01",
                b"\x03\x03",
                b"\x03\x05",
                b"\x03\x81",
                b"\x03\x82",
                b"\x03\x84",
                b"\x00\x00\x00\x00",
                b"\x00\x00\x00\x04",
                b"\xff\xff\xff\xff",
                b"//CD",
                b"<a/>",
            ],
        }
    }

    /// Generate a fresh structure-aware input for this target.
    pub fn generate(self, rng: &mut StdRng) -> Vec<u8> {
        match self {
            Target::Xml | Target::Ingest => gen::xml_document(rng),
            Target::Pattern => gen::pattern_expr(rng),
            Target::Dtd => gen::dtd_document(rng),
            // The merge, analyze, index and matchset scenarios are derived
            // from the bytes, so the "fresh input" is just a random seed
            // rendered as digits.
            Target::Merge | Target::Analyze | Target::Index | Target::Matchset => {
                rng.gen::<u64>().to_string().into_bytes()
            }
            Target::Net => net_frame(rng),
        }
    }

    /// Run the target's invariant checks on raw bytes.
    ///
    /// `Ok(())` means the input was handled correctly (parse errors
    /// included); `Err` describes an invariant violation. Panics are *not*
    /// caught here — use [`run_case`] for that.
    pub fn execute(self, bytes: &[u8]) -> Result<(), String> {
        match self {
            Target::Xml => execute_xml(bytes),
            Target::Pattern => execute_pattern(bytes),
            Target::Dtd => execute_dtd(bytes),
            Target::Merge => execute_merge(bytes),
            Target::Analyze => execute_analyze(bytes),
            Target::Index => execute_index(bytes),
            Target::Ingest => execute_ingest(bytes),
            Target::Net => execute_net(bytes),
            Target::Matchset => execute_matchset(bytes),
        }
    }
}

/// The observable result of one fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Input handled correctly (accepted or rejected with a typed error).
    Ok,
    /// The target panicked or violated one of its invariants.
    Crash {
        /// Panic payload or invariant-violation description.
        message: String,
    },
}

impl CaseOutcome {
    /// True for [`CaseOutcome::Crash`].
    pub fn is_crash(&self) -> bool {
        matches!(self, CaseOutcome::Crash { .. })
    }
}

/// Run one case with panics converted into [`CaseOutcome::Crash`].
pub fn run_case(target: Target, bytes: &[u8]) -> CaseOutcome {
    match panic::catch_unwind(AssertUnwindSafe(|| target.execute(bytes))) {
        Ok(Ok(())) => CaseOutcome::Ok,
        Ok(Err(message)) => CaseOutcome::Crash { message },
        Err(payload) => CaseOutcome::Crash {
            message: panic_message(payload),
        },
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn execute_xml(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    match XmlTree::parse(&text) {
        Err(error) => {
            // Formatting the error must not panic either.
            let _ = error.to_string();
            Ok(())
        }
        Ok(tree) => {
            let _ = tree.skeleton();
            let emitted = tree.to_xml();
            XmlTree::parse(&emitted)
                .map(|_| ())
                .map_err(|e| format!("to_xml output failed to re-parse: {e} (from {emitted:?})"))
        }
    }
}

fn execute_pattern(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    match tps_pattern::parser::parse_pattern(&text) {
        Err(error) => {
            let _ = error.to_string();
            Ok(())
        }
        Ok(pattern) => {
            let display = pattern.to_string();
            let reparsed = tps_pattern::parser::parse_pattern(&display)
                .map_err(|e| format!("Display output failed to re-parse: {e} ({display:?})"))?;
            if reparsed != pattern {
                return Err(format!(
                    "Display round-trip changed the pattern: {display:?}"
                ));
            }
            let _ = pattern.height();
            Ok(())
        }
    }
}

fn execute_dtd(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    match tps_dtd::parser::parse(&text) {
        Err(error) => {
            let _ = error.to_string();
            Ok(())
        }
        Ok(schema) => {
            // Introspection and serialisation must be panic-free; the
            // re-parse may reject (writer escaping is lossier than the
            // parser) but must not blow up.
            let _ = schema.stats();
            let written = tps_dtd::writer::write_dtd(&schema);
            if let Err(error) = tps_dtd::parser::parse(&written) {
                let _ = error.to_string();
            }
            Ok(())
        }
    }
}

/// Canonical view of a synopsis: every live root-to-node label path with its
/// matching-set value, sorted. Mirrors the equivalence check used by the
/// synopsis crate's own merge tests.
fn canonical_values(s: &Synopsis) -> Vec<(Vec<String>, SummaryValue)> {
    fn walk(
        s: &Synopsis,
        id: SynopsisNodeId,
        path: &mut Vec<String>,
        out: &mut Vec<(Vec<String>, SummaryValue)>,
    ) {
        path.push(s.label(id).to_string());
        out.push((path.clone(), s.matching_value(id)));
        for &child in s.children(id) {
            walk(s, child, path, out);
        }
        path.pop();
    }
    let mut out = Vec::new();
    walk(s, s.root(), &mut Vec::new(), &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Derive a merge scenario from the case bytes: a config, two disjoint
/// document batches, and the checks that merging them is order-insensitive
/// and survives pruning.
fn execute_merge(bytes: &[u8]) -> Result<(), String> {
    let scenario = digest(bytes);
    let mut rng = StdRng::seed_from_u64(scenario);
    let config = match rng.gen_range(0u32..3) {
        0 => SynopsisConfig::counters(),
        1 => SynopsisConfig::sets(rng.gen_range(2usize..32)),
        _ => SynopsisConfig::hashes(rng.gen_range(2usize..32)),
    }
    .with_seed(rng.gen::<u64>());

    let total = rng.gen_range(2usize..10);
    let split = rng.gen_range(1..total);
    let mut documents = Vec::with_capacity(total);
    while documents.len() < total {
        let doc = gen::xml_document(&mut rng);
        if let Ok(tree) = XmlTree::parse(&String::from_utf8_lossy(&doc)) {
            documents.push(tree);
        }
    }

    let mut first = Synopsis::new(config);
    for (i, doc) in documents[..split].iter().enumerate() {
        first.ingest_tree_as(doc, DocId(i as u64));
    }
    let mut second = Synopsis::new(config);
    for (i, doc) in documents[split..].iter().enumerate() {
        second.ingest_tree_as(doc, DocId((split + i) as u64));
    }

    let mut ab = first.clone();
    ab.merge(&second);
    let mut ba = second.clone();
    ba.merge(&first);
    if ab.document_count() != ba.document_count() {
        return Err(format!(
            "merge changed document_count by order: {} vs {}",
            ab.document_count(),
            ba.document_count()
        ));
    }
    if canonical_values(&ab) != canonical_values(&ba) {
        return Err(format!(
            "merge(a,b) != merge(b,a) for scenario {scenario:#x} ({:?})",
            config.kind
        ));
    }

    // A sequential build over the same ids must agree with the merged view.
    let mut sequential = Synopsis::new(config);
    for (i, doc) in documents.iter().enumerate() {
        sequential.ingest_tree_as(doc, DocId(i as u64));
    }
    if canonical_values(&sequential) != canonical_values(&ab) {
        return Err(format!(
            "merged shards diverge from the sequential build for scenario {scenario:#x}"
        ));
    }

    // Merge-after-prune must never panic (values may legitimately change).
    let mut pruned = first.clone();
    pruned.prune_to_ratio(0.5, PruneConfig::default());
    pruned.merge(&second);
    let _ = canonical_values(&pruned);
    Ok(())
}

/// Derive an analyzer scenario from the case bytes: a DTD-conforming
/// document corpus, a pattern workload mixing DTD-derived and free-form
/// patterns, and differential checks of every diagnostic the analyzer
/// emits against the exact matcher:
///
/// * `E001` (unsatisfiable) patterns must match **zero** conforming
///   documents;
/// * a `W002` coverage link `i → j` means every conforming document
///   matching `i` also matches `j`; syntactic-proof links must hold on
///   arbitrary (non-conforming) documents too;
/// * `W003` duplicates must have identical match sets over conforming
///   documents;
/// * compaction-plan routing never loses a delivery: every conforming
///   document matching a dropped pattern matches its surviving coverer,
///   in both modes.
fn execute_analyze(bytes: &[u8]) -> Result<(), String> {
    use tps_analyze::{CompactionMode, LintCode, WorkloadAnalyzer, WorkloadEntry};
    use tps_dtd::writer::schema_from_workload;
    use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};

    let scenario = digest(bytes);
    let mut rng = StdRng::seed_from_u64(scenario);
    let dtd = Dtd::media();
    let schema = schema_from_workload(&dtd);

    // A small conforming corpus plus a couple of arbitrary documents (for
    // the universal-soundness checks).
    let document_count = rng.gen_range(3usize..8);
    let mut docgen = DocumentGenerator::new(&dtd, DocGenConfig::default().with_seed(rng.gen()));
    let conforming = docgen.generate_many(document_count);
    let mut arbitrary = Vec::new();
    while arbitrary.len() < 3 {
        let doc = gen::xml_document(&mut rng);
        if let Ok(tree) = XmlTree::parse(&String::from_utf8_lossy(&doc)) {
            arbitrary.push(tree);
        }
    }

    // The workload: DTD-derived patterns (usually satisfiable) mixed with
    // free-form generated ones (often unsatisfiable under the DTD).
    let mut xpathgen = XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(rng.gen()));
    let pattern_count = rng.gen_range(3usize..9);
    let mut workload = Vec::new();
    while workload.len() < pattern_count {
        if rng.gen_bool(0.6) {
            workload.push(WorkloadEntry::from_pattern(&xpathgen.generate()));
        } else {
            let raw = gen::pattern_expr(&mut rng);
            if let Ok(entry) = WorkloadEntry::parse(&String::from_utf8_lossy(&raw)) {
                workload.push(entry);
            }
        }
    }

    let report = WorkloadAnalyzer::new(Some(&schema)).analyze(&workload);
    let matches_doc = |i: usize, doc: &XmlTree| -> bool { workload[i].pattern().matches(doc) };

    for diag in &report.diagnostics {
        let i = diag.pattern_index;
        match diag.code {
            LintCode::Unsatisfiable => {
                if let Some(doc) = conforming.iter().find(|d| matches_doc(i, d)) {
                    return Err(format!(
                        "E001 pattern {:?} matches a conforming document: {}",
                        workload[i].source(),
                        doc.to_xml()
                    ));
                }
            }
            LintCode::ContainedRedundant | LintCode::DtdEquivalentDuplicate => {
                for &j in &diag.related {
                    for doc in &conforming {
                        if matches_doc(i, doc) && !matches_doc(j, doc) {
                            return Err(format!(
                                "{} claims {:?} ⊑ {:?} but a conforming document separates them",
                                diag.code,
                                workload[i].source(),
                                workload[j].source()
                            ));
                        }
                        if diag.code == LintCode::DtdEquivalentDuplicate
                            && matches_doc(j, doc)
                            && !matches_doc(i, doc)
                        {
                            return Err(format!(
                                "W003 claims {:?} ≡ {:?} but a conforming document separates them",
                                workload[i].source(),
                                workload[j].source()
                            ));
                        }
                    }
                }
            }
            LintCode::CostHazard => {}
            // `W005` comes from corpus replay, never from workload analysis.
            LintCode::ScannerLimit => {
                return Err(format!(
                    "workload analysis emitted the corpus-replay code W005 for {:?}",
                    workload[i].source()
                ));
            }
        }
    }

    // Syntactic coverage proofs must hold for arbitrary documents too.
    for (i, _) in workload.iter().enumerate() {
        if let Some(link) = report.plan.coverage(i) {
            if link.proof == tps_analyze::Proof::Syntactic {
                for doc in &arbitrary {
                    if matches_doc(i, doc) && !matches_doc(link.coverer, doc) {
                        return Err(format!(
                            "syntactic coverage {:?} ⊑ {:?} fails on an arbitrary document",
                            workload[i].source(),
                            workload[link.coverer].source()
                        ));
                    }
                }
            }
        }
    }

    // Compaction-plan routing is delivery-preserving on conforming streams
    // in both modes: a document matching any pattern must match the kept
    // pattern the plan routes it to.
    for mode in [CompactionMode::Universal, CompactionMode::DtdAware] {
        for i in 0..workload.len() {
            let Some(kept) = report.plan.route_to(i, mode) else {
                // Dropped as unsatisfiable: E001 already checked above.
                continue;
            };
            if !report.plan.keeps(kept, mode) {
                return Err(format!(
                    "route_to({i}, {}) = {kept}, which the plan drops",
                    mode.as_str()
                ));
            }
            for doc in &conforming {
                if matches_doc(i, doc) && !matches_doc(kept, doc) {
                    return Err(format!(
                        "{} compaction loses a delivery: {:?} routed to {:?}",
                        mode.as_str(),
                        workload[i].source(),
                        workload[kept].source()
                    ));
                }
            }
        }
    }

    // The analyzer must also behave without a schema (purely syntactic).
    let syntactic = WorkloadAnalyzer::new(None).analyze(&workload);
    for (i, _) in workload.iter().enumerate() {
        if let Some(link) = syntactic.plan.coverage(i) {
            for doc in conforming.iter().chain(&arbitrary) {
                if matches_doc(i, doc) && !matches_doc(link.coverer, doc) {
                    return Err(format!(
                        "schema-less coverage {:?} ⊑ {:?} fails on a document",
                        workload[i].source(),
                        workload[link.coverer].source()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Derive a candidate-index scenario from the case bytes: a random banding
/// configuration, a mixed subscription workload (grammar-derived patterns,
/// free-form patterns, deliberate duplicates), a random removal churn, and
/// differential checks of the index against brute force:
///
/// * [`CandidateIndex::candidate_pairs`] equals the brute-force band-key
///   scan over the live slots (and agrees with per-slot `candidates`);
/// * estimates are symmetric, inside `[0, 1]`, and exactly 1 for identical
///   patterns — which must also always be candidates;
/// * with one row per band, every pair with a nonzero estimate is a
///   candidate (the sub-quadratic path can only miss zero-estimate pairs);
/// * after arbitrary insert/remove churn the [`OnlineLeader`] partition
///   still covers every live slot exactly once.
///
/// [`CandidateIndex::candidate_pairs`]: tps_core::CandidateIndex::candidate_pairs
/// [`OnlineLeader`]: tps_cluster::OnlineLeader
fn execute_index(bytes: &[u8]) -> Result<(), String> {
    use tps_cluster::{LeaderConfig, OnlineLeader};
    use tps_core::{CandidateIndex, LshConfig};
    use tps_workload::{Dtd, XPathGenConfig, XPathGenerator};

    let scenario = digest(bytes);
    let mut rng = StdRng::seed_from_u64(scenario);
    let lsh = LshConfig {
        bands: rng.gen_range(1usize..6),
        rows: rng.gen_range(1usize..5),
        seed: rng.gen(),
    };

    // A mixed workload: mostly grammar-derived patterns, some free-form
    // ones, and deliberate duplicates (which must always be candidates).
    let dtd = Dtd::media();
    let mut xpathgen = XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(rng.gen()));
    let count = rng.gen_range(3usize..12);
    let mut patterns: Vec<tps_pattern::TreePattern> = Vec::with_capacity(count);
    while patterns.len() < count {
        if !patterns.is_empty() && rng.gen_bool(0.25) {
            let dup = rng.gen_range(0..patterns.len());
            patterns.push(patterns[dup].clone());
        } else if rng.gen_bool(0.7) {
            patterns.push(xpathgen.generate());
        } else {
            let raw = gen::pattern_expr(&mut rng);
            if let Ok(pattern) = tps_pattern::parser::parse_pattern(&String::from_utf8_lossy(&raw))
            {
                patterns.push(pattern);
            }
        }
    }

    let mut index = CandidateIndex::new(lsh);
    for pattern in &patterns {
        index.insert(pattern);
    }

    // Random removal churn; removals must be acknowledged exactly once.
    let mut live: Vec<u32> = (0..patterns.len() as u32).collect();
    for _ in 0..rng.gen_range(0..=patterns.len() / 3) {
        let slot = live.swap_remove(rng.gen_range(0..live.len()));
        if !index.remove(slot) {
            return Err(format!("removal of live slot {slot} was rejected"));
        }
        if index.contains(slot) || index.remove(slot) {
            return Err(format!("slot {slot} survived its removal"));
        }
    }
    live.sort_unstable();
    if index.live_count() != live.len() || index.len() != patterns.len() {
        return Err(format!(
            "slot accounting drifted: {} live of {} vs expected {} of {}",
            index.live_count(),
            index.len(),
            live.len(),
            patterns.len()
        ));
    }

    // Differential: the bucket-driven pair enumeration equals a brute-force
    // band-key scan, and agrees with the per-slot candidate lists.
    let mut expected: Vec<(u32, u32)> = Vec::new();
    for (i, &a) in live.iter().enumerate() {
        for &b in &live[i + 1..] {
            if (0..lsh.bands()).any(|band| index.band_key(a, band) == index.band_key(b, band)) {
                expected.push((a, b));
            }
        }
    }
    let pairs = index.candidate_pairs();
    if pairs != expected {
        return Err(format!(
            "candidate_pairs {pairs:?} != brute-force band scan {expected:?} \
             for scenario {scenario:#x}"
        ));
    }
    for &a in &live {
        let candidates = index.candidates(a);
        for &b in &live {
            let paired = pairs.contains(&(a.min(b), a.max(b)));
            if a != b && candidates.contains(&b) != paired {
                return Err(format!(
                    "candidates({a}) disagrees with candidate_pairs about {b}"
                ));
            }
        }
    }

    // Estimates: symmetric, bounded, exact for identical patterns — and
    // identical patterns must be candidates under any banding.
    for (i, &a) in live.iter().enumerate() {
        if index.estimate(a, a) != 1.0 {
            return Err(format!("self-estimate of slot {a} is not 1"));
        }
        for &b in &live[i + 1..] {
            let forward = index.estimate(a, b);
            if index.estimate(b, a) != forward || !(0.0..=1.0).contains(&forward) {
                return Err(format!("estimate({a},{b}) = {forward} is malformed"));
            }
            let paired = pairs.contains(&(a, b));
            if patterns[a as usize] == patterns[b as usize] && (forward != 1.0 || !paired) {
                return Err(format!(
                    "identical patterns in slots {a},{b}: estimate {forward}, candidate {paired}"
                ));
            }
            // With one row per band a single agreeing signature position
            // already makes the pair bucket-mates in that band.
            if lsh.rows() == 1 && forward > 0.0 && !paired {
                return Err(format!(
                    "single-row banding missed pair ({a},{b}) with estimate {forward}"
                ));
            }
        }
    }

    // The online leader clustering over the same churn must keep a clean
    // partition: every live slot in exactly one cluster.
    let mut online = OnlineLeader::new(lsh, LeaderConfig::default());
    for pattern in &patterns {
        online.insert_estimated(pattern);
    }
    let mut alive = patterns.len();
    for slot in 0..patterns.len() as u32 {
        if !live.contains(&slot) {
            if !online.remove_estimated(slot) {
                return Err(format!("online removal of slot {slot} was rejected"));
            }
            alive -= 1;
        }
    }
    let clustering = online.clustering();
    let assigned: usize = clustering.clusters().iter().map(Vec::len).sum();
    if assigned != alive || online.live_count() != alive {
        return Err(format!(
            "online leader partition covers {assigned} of {alive} live slots \
             in scenario {scenario:#x}"
        ));
    }
    Ok(())
}

/// Differentially test the two consumers of the one XML lexer
/// (`tps_xml::scan`) on arbitrary bytes:
///
/// * on valid UTF-8, a scan into the discarding [`NullSink`] and
///   [`XmlTree::parse`] (the same scan into a tree-building sink) agree
///   error-for-error (same [`XmlErrorKind`](tps_xml::error::XmlErrorKind),
///   same byte offset) and accept the same documents: the sink never
///   changes the outcome;
/// * on accepted documents, byte-level synopsis ingest is
///   estimate-identical to tree ingest for every matching-set
///   representation;
/// * invalid UTF-8 is rejected as `InvalidUtf8` and rolls the synopsis
///   back without residue;
/// * tiny scan limits produce typed errors, never panics.
fn execute_ingest(bytes: &[u8]) -> Result<(), String> {
    use tps_xml::error::XmlErrorKind;
    use tps_xml::{scan_document, NullSink, ScanLimits};

    let limits = ScanLimits::default();
    let scan_outcome = scan_document(bytes, &limits, &mut NullSink);
    match std::str::from_utf8(bytes) {
        Ok(text) => {
            let parse_outcome = XmlTree::parse(text);
            match (&scan_outcome, &parse_outcome) {
                (Ok(()), Ok(_)) => {}
                (Err(scan_err), Err(parse_err)) if scan_err == parse_err => {}
                (scan, parse) => {
                    return Err(format!(
                        "sink-dependent outcome on {text:?}: scan {:?} vs parse {:?}",
                        scan.as_ref().err().map(|e| e.to_string()),
                        parse.as_ref().err().map(|e| e.to_string()),
                    ));
                }
            }
            if let Ok(tree) = &parse_outcome {
                let scenario = digest(bytes);
                for config in [
                    SynopsisConfig::counters(),
                    SynopsisConfig::sets(2 + (scenario % 7) as usize),
                    SynopsisConfig::hashes(2 + (scenario % 13) as usize),
                ] {
                    let config = config.with_seed(scenario);
                    let mut via_tree = Synopsis::new(config);
                    via_tree.ingest_tree_as(tree, DocId(0));
                    let mut via_bytes = Synopsis::new(config);
                    via_bytes
                        .ingest_bytes_as(bytes, DocId(0))
                        .map_err(|e| format!("byte ingest rejected a parsed document: {e}"))?;
                    if canonical_values(&via_tree) != canonical_values(&via_bytes) {
                        return Err(format!(
                            "byte ingest diverges from tree ingest for {:?}",
                            config.kind
                        ));
                    }
                }
            }
        }
        Err(_) => {
            match &scan_outcome {
                Err(e) if matches!(e.kind(), XmlErrorKind::InvalidUtf8) => {}
                other => {
                    return Err(format!("invalid UTF-8 was not rejected as such: {other:?}"));
                }
            }
            let mut synopsis = Synopsis::new(SynopsisConfig::counters());
            if synopsis.ingest_bytes_as(bytes, DocId(0)).is_ok() {
                return Err("byte ingest accepted invalid UTF-8".to_string());
            }
            if synopsis.document_count() != 0 || synopsis.node_count() != 1 {
                return Err("rejected bytes left residue in the synopsis".to_string());
            }
        }
    }

    // Tiny limits: typed errors only, never a panic or stack overflow.
    let tiny = ScanLimits {
        max_depth: 4,
        max_attributes: 2,
    };
    if let Err(error) = scan_document(bytes, &tiny, &mut NullSink) {
        let _ = error.to_string();
    }
    Ok(())
}

/// Generate a structure-aware wire frame: a random valid message, encoded.
/// The driver's byte mutator takes it from there (bit flips, truncation,
/// dictionary splices), so most descendants are near-valid frames that
/// exercise the deep decode paths instead of dying on the version byte.
fn net_frame(rng: &mut StdRng) -> Vec<u8> {
    use tps_net::codec::SyncConsumer;
    use tps_net::{BrokerStats, ErrorCode, MatchedDocument, Message};

    fn text(rng: &mut StdRng, max: usize) -> String {
        let alphabet = b"/[]*abCD<>=\"";
        (0..rng.gen_range(0..max))
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
            .collect()
    }
    /// Ascending ids with gaps of every varint width, at most `max - 1`.
    fn ids(rng: &mut StdRng, max: usize) -> Vec<u64> {
        let mut id = 0u64;
        (0..rng.gen_range(0..max))
            .map_while(|_| {
                let gap = (rng.gen::<u64>() >> rng.gen_range(0u32..64)).max(1);
                id = id.checked_add(gap)?;
                Some(id)
            })
            .collect()
    }
    let message = match rng.gen_range(0u32..15) {
        0 => Message::Subscribe {
            subscriber: rng.gen(),
            broker: rng.gen_range(0..8),
            pattern: text(rng, 24),
        },
        1 => Message::Unsubscribe {
            subscriber: rng.gen(),
        },
        2 => Message::Publish {
            document: gen::xml_document(rng),
        },
        3 => Message::Stats,
        4 => Message::Forward {
            from: rng.gen_range(0..8),
            documents: (0..rng.gen_range(0usize..4))
                .map(|_| gen::xml_document(rng))
                .collect(),
        },
        5 => Message::Shutdown,
        6 => Message::SyncRequest,
        7 => Message::Hello {
            broker: rng.gen_range(0..8),
        },
        8 => Message::Ack,
        9 => Message::Error {
            code: match rng.gen_range(0u32..5) {
                0 => ErrorCode::BadPattern,
                1 => ErrorCode::LintRejected,
                2 => ErrorCode::BadDocument,
                3 => ErrorCode::UnknownBroker,
                _ => ErrorCode::DuplicateSubscriber,
            },
            message: text(rng, 16),
        },
        10 => Message::StatsReply {
            stats: BrokerStats {
                broker: rng.gen_range(0..8),
                consumers: rng.gen(),
                deliveries: rng.gen(),
                link_messages: rng.gen(),
                forwards_rematched: rng.gen(),
                view_digest: u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>()),
                ..BrokerStats::default()
            },
        },
        11 => Message::Deliver {
            subscriber: rng.gen(),
            document: gen::xml_document(rng),
        },
        12 => Message::ForwardMatched {
            from: rng.gen_range(0..8),
            view: u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>()),
            documents: (0..rng.gen_range(0usize..4))
                .map(|_| MatchedDocument {
                    bytes: gen::xml_document(rng).into(),
                    interested: rng.gen_bool(0.8).then(|| ids(rng, 12).into()),
                })
                .collect(),
        },
        13 => Message::DeliverMatched {
            // Mostly one or more subscribers; an empty list now and then,
            // which the decoder refuses.
            subscribers: ids(rng, 12).into(),
            document: gen::xml_document(rng).into(),
        },
        _ => Message::SyncState {
            consumers: (0..rng.gen_range(0usize..4))
                .map(|_| SyncConsumer {
                    subscriber: rng.gen(),
                    broker: rng.gen_range(0..8),
                    pattern: text(rng, 24),
                })
                .collect(),
        },
    };
    message.encode()
}

/// Fuzz the `tps-net` wire codec on arbitrary bytes:
///
/// * decoding never panics; rejections carry a typed [`DecodeError`]
///   whose `Display` is panic-free;
/// * the encoding is canonical: an accepted frame re-encodes to exactly
///   the input bytes (and decodes back to an equal message);
/// * tightening the limits can only introduce *limit* errors — a frame
///   accepted under the default limits either decodes identically under
///   tiny limits or fails with the matching `…TooLarge`/`…TooLong` error;
/// * the framed stream reader consumes arbitrary byte prefixes without
///   panicking and round-trips every accepted message.
fn execute_net(bytes: &[u8]) -> Result<(), String> {
    use tps_net::codec::{read_frame, write_frame, FrameError};
    use tps_net::{DecodeError, FrameLimits, Message};

    let limits = FrameLimits::default();
    let decoded = match Message::decode(bytes, &limits) {
        Ok(message) => {
            let encoded = message.encode();
            if encoded != bytes {
                return Err(format!(
                    "encoding is not canonical: {bytes:?} decoded but re-encodes to {encoded:?}"
                ));
            }
            let again = Message::decode(&encoded, &limits)
                .map_err(|e| format!("re-encoded frame failed to decode: {e}"))?;
            if again != message {
                return Err("decode∘encode changed the message".to_string());
            }
            Some(message)
        }
        Err(error) => {
            let _ = error.to_string();
            None
        }
    };

    // Tightening the limits must only ever introduce typed limit errors.
    let tiny = FrameLimits {
        max_frame: 64,
        max_pattern: 8,
        max_document: 8,
        max_batch: 2,
        max_subscriptions: 2,
    };
    match (decoded.as_ref(), Message::decode(bytes, &tiny)) {
        (Some(message), Ok(tiny_message)) => {
            if &tiny_message != message {
                return Err("limits changed the decoded message".to_string());
            }
        }
        (Some(_), Err(error)) => {
            if !matches!(
                error,
                DecodeError::FrameTooLarge { .. }
                    | DecodeError::PatternTooLong { .. }
                    | DecodeError::DocumentTooLarge { .. }
                    | DecodeError::BatchTooLarge { .. }
                    | DecodeError::SyncTooLarge { .. }
                    | DecodeError::InterestTooLarge { .. }
            ) {
                return Err(format!(
                    "tiny limits rejected an accepted frame with a non-limit error: {error}"
                ));
            }
        }
        (None, Ok(_)) => {
            return Err("tiny limits accepted a frame the default limits reject".to_string());
        }
        (None, Err(error)) => {
            let _ = error.to_string();
        }
    }

    // The framed stream layer: writing an accepted message and reading it
    // back is the identity, and reading the raw bytes as a frame stream
    // (arbitrary length prefixes included) is panic-free and terminates.
    if let Some(message) = &decoded {
        let mut framed = Vec::new();
        write_frame(&mut framed, message).map_err(|e| format!("write_frame failed: {e}"))?;
        match read_frame(&mut framed.as_slice(), &limits) {
            Ok(Some(echo)) if &echo == message => {}
            other => return Err(format!("frame round-trip diverged: {other:?}")),
        }
    }
    let stream_limits = FrameLimits {
        max_frame: 1 << 16,
        ..limits
    };
    let mut cursor = bytes;
    loop {
        match read_frame(&mut cursor, &stream_limits) {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(FrameError::Io(_) | FrameError::Decode(_)) => break,
        }
    }
    Ok(())
}

/// Pattern shapes the generators reach rarely or never, each of which the
/// forest treats on a path of its own: the bare root, leading `//`, `*` in
/// every position, quoted labels, text leaves (the XML generator emits
/// `text` nodes), same-label sibling branches and `//` under a branch.
const MATCHSET_SHAPES: &[&str] = &[
    "/.",
    "//a",
    "//*",
    "/*",
    "/*/*",
    "//*/text",
    "//text",
    "//\"text\"",
    "/media/\"CD\"//title",
    "//a//a//a",
    "/a[b][b]",
    "/a[b/c][b/a]",
    "/.[//a][//b]",
    "/.[*/a][//b/c]",
    "//a[b[c][a]][.//c]",
    "/*[*][*/*]",
];

/// Differential fuzzing of `PatternSet` against the reference matcher.
///
/// The case bytes seed a scenario: a pool of patterns (generated
/// expressions over the parser alphabet and over a three-letter one,
/// byte-mutated ones that still parse, the fixed shapes above, and
/// duplicates under distinct keys), a handful of generated and mutated
/// documents over the same two alphabets, and a random sequence of inserts
/// and removes. For the path cache the documents also include one whose
/// element labels are partly outside every pattern's alphabet, and one
/// document twice with only its text changed. The documents are re-matched
/// after the steps of churn, so the cache is hit, missed and repaired as
/// the set changes under it. After every step of churn:
///
/// * the path cache passes `PatternSet::check_path_cache`: every learnt
///   path holds exactly what one step from its parent reaches in the
///   changed forest, and it still holds every path it held before, unless
///   it was over its bound and a full reset is counted;
/// * `matches` returns exactly the keys of the live patterns for which
///   `TreePattern::matches` holds, strictly ascending;
/// * `matches_bytes` on the document's serialized bytes returns the keys
///   `matches` and per-pattern matching give for the tree those bytes hold,
///   and a prefix of them that ends before the last `>` is refused first,
///   without disturbing that match or the cache bound;
/// * the path cache holds no more than its bound;
/// * `len` counts the live patterns, and removing a key that is not live is
///   refused and changes nothing;
/// * `node_count` equals that of a fresh set holding only the live
///   patterns — removal leaves no forest node behind and takes none that
///   another pattern still uses.
fn execute_matchset(bytes: &[u8]) -> Result<(), String> {
    use crate::driver::mutate;
    use tps_pattern::{PatternSet, TreePattern};

    let scenario = digest(bytes);
    let mut rng = StdRng::seed_from_u64(scenario);

    let mut pool: Vec<TreePattern> = Vec::new();
    let pool_size = rng.gen_range(4usize..24);
    while pool.len() < pool_size {
        let text = match rng.gen_range(0u32..12) {
            0..=1 => gen::pattern_expr(&mut rng),
            2..=5 => gen::dense_pattern(&mut rng),
            6..=7 => {
                let base = gen::pattern_expr(&mut rng);
                mutate(&mut rng, &base, Target::Pattern.dictionary())
            }
            8..=10 => MATCHSET_SHAPES[rng.gen_range(0..MATCHSET_SHAPES.len())]
                .as_bytes()
                .to_vec(),
            _ if !pool.is_empty() => {
                let duplicate = pool[rng.gen_range(0..pool.len())].clone();
                pool.push(duplicate);
                continue;
            }
            _ => continue,
        };
        if let Ok(pattern) = TreePattern::parse(&String::from_utf8_lossy(&text)) {
            pool.push(pattern);
        }
    }

    let mut documents: Vec<XmlTree> = Vec::new();
    for _ in 0..rng.gen_range(2usize..6) {
        let mut text = if rng.gen_bool(0.5) {
            gen::dense_document(&mut rng)
        } else {
            gen::xml_document(&mut rng)
        };
        if rng.gen_bool(0.3) {
            text = mutate(&mut rng, &text, Target::Xml.dictionary());
        }
        if let Ok(document) = XmlTree::parse(&String::from_utf8_lossy(&text)) {
            documents.push(document);
        }
    }

    // Drawn from a generator of their own, so the scenarios above are the
    // ones the older corpus cases were saved for.
    let mut extra = StdRng::seed_from_u64(scenario ^ 0x7061_7468_6361_6368);
    if let Some(base) = documents.first().cloned() {
        let mut strange = 0;
        documents.push(relabelled(&base, &mut |label, is_text| {
            if !is_text && extra.gen_bool(0.4) {
                strange += 1;
                format!("outside-{strange}")
            } else {
                label.to_string()
            }
        }));
        for round in 0..2 {
            let mut texts = 0;
            documents.push(relabelled(&base, &mut |label, is_text| {
                if is_text {
                    texts += 1;
                    format!("text {round}.{texts}")
                } else {
                    label.to_string()
                }
            }));
        }
    }

    let mut set = PatternSet::new();
    // Live (key, pool index) pairs; keys are handed out in a scrambled
    // order so that ascending output is the set's doing.
    let mut live: Vec<(u64, usize)> = Vec::new();
    let mut next_key = 0u64;
    let check = |set: &mut PatternSet, live: &[(u64, usize)], step: usize| -> Result<(), String> {
        if set.len() != live.len() {
            return Err(format!(
                "step {step}: len {} but {} patterns are live (scenario {scenario:#x})",
                set.len(),
                live.len()
            ));
        }
        let mut fresh = PatternSet::new();
        for &(key, index) in live {
            fresh.insert(key, &pool[index]);
        }
        if set.node_count() != fresh.node_count() {
            return Err(format!(
                "step {step}: {} forest nodes after churn, {} in a set that only ever held \
                 the live patterns (scenario {scenario:#x})",
                set.node_count(),
                fresh.node_count()
            ));
        }
        let describe = |live: &[(u64, usize)]| -> Vec<String> {
            live.iter()
                .map(|&(key, index)| format!("{key}={}", pool[index]))
                .collect()
        };
        let reference = |document: &XmlTree| -> Vec<u64> {
            let mut keys: Vec<u64> = live
                .iter()
                .filter(|&&(_, index)| pool[index].matches(document))
                .map(|&(key, _)| key)
                .collect();
            keys.sort_unstable();
            keys
        };
        for (index, document) in documents.iter().enumerate() {
            let expected = reference(document);
            let got = set.matches(document);
            if got != expected {
                return Err(format!(
                    "step {step}: set says {got:?}, per-pattern matching says {expected:?} on \
                     {} with {:?} (scenario {scenario:#x})",
                    document.to_xml(),
                    describe(live)
                ));
            }
            let cache = set.cache_stats();
            if cache.nodes + cache.references > cache.bound {
                return Err(format!(
                    "step {step}: the path cache holds {} nodes and {} references, over its \
                     bound of {} (scenario {scenario:#x})",
                    cache.nodes, cache.references, cache.bound
                ));
            }
            if fresh.matches(document) != expected {
                return Err(format!(
                    "step {step}: a freshly built set disagrees with per-pattern matching \
                     (scenario {scenario:#x})"
                ));
            }

            // The bytes leg. Written out, adjacent text leaves run together
            // into one, so the reference is the document the bytes hold.
            let text = document.to_xml();
            let Ok(reread) = XmlTree::parse(&text) else {
                return Err(format!("step {step}: {text} does not read back"));
            };
            let expected = reference(&reread);
            let from_tree = set.matches(&reread).to_vec();
            // A prefix that stops before the root's last `>` is refused, and
            // the walk it broke off leaves nothing behind.
            let end = text.rfind('>').unwrap_or(0);
            let cut = (scenario ^ (step * documents.len() + index) as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15) as usize
                % (end + 1);
            if set.matches_bytes(&text.as_bytes()[..cut]).is_ok() {
                return Err(format!(
                    "step {step}: the first {cut} bytes of {text} were accepted \
                     (scenario {scenario:#x})"
                ));
            }
            let cache = set.cache_stats();
            if cache.nodes + cache.references > cache.bound {
                return Err(format!(
                    "step {step}: a refused prefix left the path cache over its bound \
                     (scenario {scenario:#x})"
                ));
            }
            let from_bytes = set.matches_bytes(text.as_bytes()).map(<[u64]>::to_vec);
            if from_bytes.as_ref() != Ok(&expected) || from_tree != expected {
                return Err(format!(
                    "step {step}: after a refused prefix of {cut} bytes the set says \
                     {from_bytes:?} from the bytes of {text} and {from_tree:?} from its tree, \
                     per-pattern matching says {expected:?} with {:?} (scenario {scenario:#x})",
                    describe(live)
                ));
            }
        }
        Ok(())
    };

    let steps = rng.gen_range(4usize..40);
    for step in 0..steps {
        let before = set.cache_stats();
        if live.is_empty() || rng.gen_bool(0.6) {
            let index = rng.gen_range(0..pool.len());
            // An odd multiplier permutes the key space: unique, not sorted.
            let key = next_key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            next_key += 1;
            set.insert(key, &pool[index]);
            live.push((key, index));
        } else {
            let (key, index) = live.swap_remove(rng.gen_range(0..live.len()));
            if !set.remove(key, &pool[index]) {
                return Err(format!(
                    "step {step}: removing live key {key} ({}) was refused",
                    pool[index]
                ));
            }
            if set.remove(key, &pool[index]) {
                return Err(format!("step {step}: key {key} was removed twice"));
            }
        }
        // The view change repaired the learnt paths instead of forgetting
        // them; only a cache over its bound starts over, and says so.
        set.check_path_cache()
            .map_err(|error| format!("step {step}: {error} (scenario {scenario:#x})"))?;
        let after = set.cache_stats();
        if after.nodes != before.nodes && after.full_resets == before.full_resets {
            return Err(format!(
                "step {step}: a view change took the path cache from {} to {} trie nodes \
                 without a counted reset (scenario {scenario:#x})",
                before.nodes, after.nodes
            ));
        }
        if rng.gen_bool(0.3) || step + 1 == steps {
            check(&mut set, &live, step)?;
        }
    }

    for (key, index) in live.drain(..) {
        if !set.remove(key, &pool[index]) {
            return Err(format!("final removal of key {key} was refused"));
        }
    }
    if !set.is_empty() || set.node_count() != 1 {
        return Err(format!(
            "an emptied set keeps {} patterns and {} forest nodes (scenario {scenario:#x})",
            set.len(),
            set.node_count()
        ));
    }
    Ok(())
}

/// A copy of `document` with every label passed through `relabel` (label,
/// whether it is text). Every element without children is given a text
/// child first, so there is always text to change.
fn relabelled(document: &XmlTree, relabel: &mut impl FnMut(&str, bool) -> String) -> XmlTree {
    fn copy(
        from: &XmlTree,
        node: tps_xml::NodeId,
        to: &mut XmlTree,
        parent: tps_xml::NodeId,
        relabel: &mut impl FnMut(&str, bool) -> String,
    ) {
        if from.children(node).is_empty() && !from.node(node).is_text() {
            to.add_text_child(parent, &relabel("text", true));
        }
        for &child in from.children(node) {
            let is_text = from.node(child).is_text();
            let label = relabel(from.label(child), is_text);
            let copied = if is_text {
                to.add_text_child(parent, &label)
            } else {
                to.add_child(parent, &label)
            };
            copy(from, child, to, copied, relabel);
        }
    }
    let root = document.root();
    let mut out = XmlTree::new(&relabel(document.label(root), false));
    let out_root = out.root();
    copy(document, root, &mut out, out_root, relabel);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_round_trip() {
        for target in Target::all() {
            assert_eq!(Target::from_name(target.name()), Some(target));
        }
        assert_eq!(Target::from_name("nope"), None);
    }

    #[test]
    fn seeds_are_clean_for_every_target() {
        for target in Target::all() {
            for seed in target.seeds() {
                assert_eq!(
                    run_case(target, &seed),
                    CaseOutcome::Ok,
                    "seed input crashed {}: {:?}",
                    target.name(),
                    String::from_utf8_lossy(&seed)
                );
            }
        }
    }

    #[test]
    fn crash_outcome_carries_the_panic_message() {
        let outcome = match panic::catch_unwind(|| panic!("boom {}", 1)) {
            Err(payload) => CaseOutcome::Crash {
                message: panic_message(payload),
            },
            Ok(()) => unreachable!(),
        };
        assert_eq!(
            outcome,
            CaseOutcome::Crash {
                message: "panic: boom 1".to_string()
            }
        );
    }
}
