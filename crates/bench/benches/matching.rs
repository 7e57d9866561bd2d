//! Benchmarks for exact tree-pattern matching and containment — the ground
//! truth machinery every experiment's error computation relies on (and the
//! cost a broker pays when it filters without a synopsis).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tps_bench::BenchFixture;
use tps_pattern::containment::contains;
use tps_pattern::{PatternSet, TreePattern};
use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};
use tps_xml::XmlTree;

fn bench_exact_matching(c: &mut Criterion) {
    let fixture = BenchFixture::nitf();
    let docs = fixture.documents();
    let patterns = fixture.positives();
    c.bench_function("exact_match_workload_vs_one_document", |b| {
        let doc = &docs[0];
        b.iter(|| {
            let hits = patterns
                .iter()
                .filter(|p| p.matches(black_box(doc)))
                .count();
            black_box(hits)
        })
    });
    c.bench_function("exact_match_one_pattern_vs_100_documents", |b| {
        let pattern = &patterns[0];
        b.iter(|| {
            let hits = docs
                .iter()
                .take(100)
                .filter(|d| black_box(pattern).matches(d))
                .count();
            black_box(hits)
        })
    });
}

/// One document against a whole subscription set: the shared step forest
/// against the per-subscription loop it replaced on the publish path, over
/// one pool of nitf documents. `bench_thresholds.txt` holds the forest to a
/// quarter of the scan at 10k and to sub-linear growth from 1k to 100k
/// (ROADMAP item 3's gate); each iteration is one pass over the pool.
fn bench_match_set(c: &mut Criterion) {
    let dtd = Dtd::nitf_like();
    let documents = DocumentGenerator::new(&dtd, DocGenConfig::default().with_seed(1_000_001))
        .generate_many(64);
    let patterns = XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(2_000_003))
        .generate_many(100_000);
    let sizes = [("1k", 1_000), ("10k", 10_000), ("100k", 100_000)];

    let mut group = c.benchmark_group("match_set");
    for (label, size) in sizes {
        let mut set = PatternSet::new();
        for (key, pattern) in patterns.iter().take(size).enumerate() {
            set.insert(key as u64, pattern);
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let hits: usize = documents.iter().map(|d| set.matches(d).len()).sum();
                black_box(hits)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("linear_scan");
    for (label, size) in &sizes[..2] {
        let patterns = &patterns[..(*size).min(patterns.len())];
        group.bench_function(*label, |b| {
            b.iter(|| {
                let hits: usize = documents
                    .iter()
                    .map(|d| patterns.iter().filter(|p| p.matches(d)).count())
                    .sum();
                black_box(hits)
            })
        });
    }
    group.finish();
}

fn bench_parsing(c: &mut Criterion) {
    let fixture = BenchFixture::nitf();
    let xml_text = fixture.documents()[0].to_xml();
    c.bench_function("xml_parse_document", |b| {
        b.iter(|| black_box(XmlTree::parse(&xml_text).unwrap().node_count()))
    });
    let pattern_text = fixture.positives()[0].to_string();
    c.bench_function("xpath_parse_pattern", |b| {
        b.iter(|| black_box(TreePattern::parse(&pattern_text).unwrap().node_count()))
    });
}

fn bench_containment(c: &mut Criterion) {
    let fixture = BenchFixture::nitf();
    let patterns = fixture.positives();
    c.bench_function("containment_all_pairs", |b| {
        b.iter(|| {
            let mut related = 0usize;
            for p in patterns.iter().take(20) {
                for q in patterns.iter().take(20) {
                    if contains(p, q) {
                        related += 1;
                    }
                }
            }
            black_box(related)
        })
    });
}

criterion_group!(
    benches,
    bench_exact_matching,
    bench_match_set,
    bench_parsing,
    bench_containment
);
criterion_main!(benches);
