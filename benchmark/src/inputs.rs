//! The four workloads and the inputs each generates from the seed.
//!
//! The program under test never sees the seed: it receives the pattern
//! texts and document bytes made here.

use tps_pattern::TreePattern;
use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};
use tps_xml::XmlTree;

/// Which DTD a workload draws patterns and documents from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    /// `Dtd::nitf_like()`: 123 elements, ~750 B documents.
    Nitf,
    /// `Dtd::media()`: the paper's 12-element running example.
    Media,
}

impl Schema {
    /// The DTD itself.
    pub fn dtd(self) -> Dtd {
        match self {
            Schema::Nitf => Dtd::nitf_like(),
            Schema::Media => Dtd::media(),
        }
    }
}

/// Where a workload's documents and subscriptions go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// A 3-broker overlay on TCP loopback, documents published at broker 1
    /// and delivered to a probe at broker 2.
    Live,
    /// Library calls only: no sockets, no threads.
    InProcess,
}

/// One workload. The subscription count defines the regime and is never
/// scaled; pool sizes only bound set-up time.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// The DTD of patterns and documents.
    pub schema: Schema,
    /// Sockets or library calls.
    pub substrate: Substrate,
    /// Standing subscriptions.
    pub subscriptions: usize,
    /// `DocGenConfig::target_tag_pairs` of the documents.
    pub tag_pairs: usize,
    /// Distinct documents, published round-robin.
    pub documents: usize,
    /// Publications between two view changes of the data pass (0: the view
    /// stands still while documents flow).
    pub publications_per_change: usize,
    /// What `doc_tail_us` reports.
    pub tail: Tail,
}

/// The slow end of a workload's document latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// This percentile of all documents: the highest that a full-length
    /// data pass leaves at least ten samples beyond.
    Percentile(f64),
    /// The median over the first publication after each view change: the
    /// slow mode of a churning overlay (one publication in
    /// `publications_per_change`).
    FirstAfterChange,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "match_10k",
        why: "10 000 nitf subscriptions, ~750 B documents: ~10 000 pattern matches per document, so matching is most of the CPU and the socket path under 5 %.",
        schema: Schema::Nitf,
        substrate: Substrate::Live,
        subscriptions: 10_000,
        tag_pairs: 100,
        documents: 512,
        publications_per_change: 0,
        tail: Tail::Percentile(90.0),
    },
    Workload {
        name: "relay_small",
        why: "12 media subscriptions, ~120 B documents: matching is ~0, so codec, syscalls, queue hops and thread hand-offs are everything; a matcher change must not show here.",
        schema: Schema::Media,
        substrate: Substrate::Live,
        subscriptions: 12,
        tag_pairs: 10,
        documents: 2_048,
        publications_per_change: 0,
        tail: Tail::Percentile(99.0),
    },
    Workload {
        name: "churn_2k",
        why: "2 000 standing nitf subscriptions with one arrival and one departure per 8 publications: every view change makes the next publication rebuild the routing table at each broker on the path.",
        schema: Schema::Nitf,
        substrate: Substrate::Live,
        subscriptions: 2_000,
        tag_pairs: 100,
        documents: 512,
        publications_per_change: 8,
        tail: Tail::FirstAfterChange,
    },
    Workload {
        name: "analytic_batch",
        why: "The paper's own path with no sockets and no threads: scan-ingest nitf documents into a hashes(256) synopsis, then sets of 300 patterns through register, selectivity and the M3 similarity matrix.",
        schema: Schema::Nitf,
        substrate: Substrate::InProcess,
        subscriptions: 300,
        tag_pairs: 100,
        documents: 4_096,
        publications_per_change: 0,
        tail: Tail::Percentile(99.0),
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Subscriptions generated beyond the standing set.
const ARRIVAL_POOL: usize = 2_048;

/// Everything one run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// A pattern every document matches: the probe's subscription.
    pub probe: String,
    /// The standing subscriptions.
    pub subscriptions: Vec<TreePattern>,
    /// Further distinct subscriptions: arrivals, and further pattern sets
    /// for the analysis pass.
    pub arrivals: Vec<TreePattern>,
    /// Serialized documents.
    pub documents: Vec<Vec<u8>>,
    /// The same documents, parsed (reference evaluation and layer replay).
    pub trees: Vec<XmlTree>,
}

/// SplitMix64: one independent stream seed per (run seed, purpose).
fn derive(seed: u64, stream: u64) -> u64 {
    let mut x = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`.
    pub fn generate(workload: &Workload, seed: u64) -> Self {
        let dtd = workload.schema.dtd();
        let mut patterns =
            XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(derive(seed, 1)))
                .generate_many(workload.subscriptions + ARRIVAL_POOL);
        // A tiny DTD may run out of distinct patterns; arrivals then repeat.
        let standing = workload.subscriptions.min(patterns.len());
        let mut arrivals = patterns.split_off(standing);
        if arrivals.is_empty() {
            arrivals = patterns.clone();
        }
        let trees = DocumentGenerator::new(
            &dtd,
            DocGenConfig::default()
                .with_seed(derive(seed, 2))
                .with_target_tag_pairs(workload.tag_pairs),
        )
        .generate_many(workload.documents);
        let documents = trees.iter().map(|t| t.to_xml().into_bytes()).collect();
        Self {
            probe: format!("/{}", dtd.element_name(dtd.root())),
            subscriptions: patterns,
            arrivals,
            documents,
            trees,
        }
    }

    /// Mean serialized document size, in bytes.
    pub fn mean_document_bytes(&self) -> f64 {
        let total: usize = self.documents.iter().map(Vec::len).sum();
        total as f64 / self.documents.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_the_probe_matches_everything() {
        let relay = workload("relay_small").unwrap();
        let a = Inputs::generate(relay, 7);
        let b = Inputs::generate(relay, 7);
        let c = Inputs::generate(relay, 8);
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.subscriptions, b.subscriptions);
        assert_ne!(a.documents, c.documents);
        assert_eq!(a.subscriptions.len(), relay.subscriptions);
        let probe = TreePattern::parse(&a.probe).unwrap();
        assert!(a.trees.iter().all(|t| probe.matches(t)));
        for (tree, bytes) in a.trees.iter().zip(&a.documents) {
            let text = std::str::from_utf8(bytes).unwrap();
            // Node ids differ (generation order against document order);
            // the documents are the same.
            assert_eq!(XmlTree::parse(text).unwrap().to_xml(), tree.to_xml());
        }
    }
}
