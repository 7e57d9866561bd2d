//! A golden of the engine's estimates: the bit patterns of the marginal
//! selectivities of the 60-pattern nitf fixture (the workload of the
//! `engine` bench) and of its M3 similarity matrix over a 200-document
//! synopsis, for each matching-set representation.
//!
//! The fixture was recorded before joints were folded from cached
//! root-branch values and before `SEL` steps skipped synopsis subtrees, so
//! it pins that neither optimisation moved a single bit.

use tps_core::{ProximityMetric, SimilarityEngine};
use tps_synopsis::{MatchingSetKind, Synopsis, SynopsisConfig};
use tps_workload::{Dataset, DatasetConfig, DocGenConfig, Dtd, XPathGenConfig};

const FIXTURE: &str = include_str!("fixtures/engine_golden.txt");

/// The golden's text: per representation, one line of marginal bits and
/// one line per matrix row holding the entries right of the diagonal.
fn render() -> String {
    let config = DatasetConfig {
        document_count: 200,
        positive_count: 60,
        negative_count: 60,
        docgen: DocGenConfig::default().with_seed(1_000_001),
        xpathgen: XPathGenConfig::default().with_seed(2_000_003),
        max_candidates: 100_000,
    };
    let dataset = Dataset::generate(Dtd::nitf_like(), &config);
    let mut out = String::new();
    for kind in [
        MatchingSetKind::counters(),
        MatchingSetKind::sets(64),
        MatchingSetKind::hashes(64),
    ] {
        let synopsis = Synopsis::from_documents(
            SynopsisConfig {
                kind,
                ..SynopsisConfig::counters()
            },
            &dataset.documents,
        );
        let mut engine = SimilarityEngine::from_synopsis(synopsis);
        let ids = engine.register_all(&dataset.positive);
        let bits = |values: &mut dyn Iterator<Item = f64>| {
            values
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out += &format!("{kind:?} selectivities\n");
        out += &bits(&mut engine.selectivities(&ids).into_iter());
        out.push('\n');
        let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
        for i in 0..ids.len() {
            out += &format!("{kind:?} M3 row {i}\n");
            out += &bits(&mut matrix.row(i)[i + 1..].iter().copied());
            out.push('\n');
        }
    }
    out
}

#[test]
fn engine_estimates_equal_the_recorded_golden() {
    let rendered = render();
    for (line, (got, want)) in rendered.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", line + 1);
    }
    assert_eq!(rendered, FIXTURE, "golden length differs");
}
