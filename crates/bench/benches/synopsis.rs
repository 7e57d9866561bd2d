//! Benchmarks for the streaming, sharded synopsis build (`build_par`)
//! against the sequential in-memory build — the build-side counterpart of
//! `benches/parallel.rs`.
//!
//! NOTE: shard counts above the host's core count only measure scheduling
//! overhead; run on a multi-core host to see the build-side speedup. The
//! estimates are identical for every shard count, so the comparison is pure
//! wall-clock.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use tps_bench::BenchFixture;
use tps_core::build_par;
use tps_synopsis::{
    DistinctSample, DocId, IngestTarget, MatchingSetKind, SummaryValue, Synopsis, SynopsisConfig,
};
use tps_xml::stream::TreeStream;

fn config(kind: MatchingSetKind) -> SynopsisConfig {
    SynopsisConfig {
        kind,
        ..SynopsisConfig::counters()
    }
}

fn bench_sequential_vs_sharded(c: &mut Criterion) {
    let fixture = BenchFixture::nitf();
    println!(
        "host parallelism: {} (shard counts above it only add scheduling overhead)",
        tps_core::par::available_workers()
    );
    for (name, kind) in [
        ("counters", MatchingSetKind::Counters),
        ("sets_256", MatchingSetKind::Sets { capacity: 256 }),
        ("hashes_256", MatchingSetKind::Hashes { capacity: 256 }),
    ] {
        let mut group = c.benchmark_group(format!("synopsis_build_{name}"));
        // Both arms get a fresh owned corpus from the (untimed) setup and
        // release it inside the timed region, so the `build_par/1` vs
        // `from_documents` ratio compares the builds themselves rather than
        // who pays for cloning or dropping 300 trees.
        group.bench_function(BenchmarkId::from_parameter("from_documents"), |b| {
            b.iter_batched(
                || fixture.documents().to_vec(),
                |docs| {
                    let synopsis = Synopsis::from_documents(config(kind), &docs);
                    black_box(synopsis.node_count())
                },
                BatchSize::LargeInput,
            )
        });
        for shards in [1usize, 2, 4, 8] {
            group.bench_function(BenchmarkId::new("build_par", shards), |b| {
                // The tree clones happen in the (untimed) setup so the timed
                // region measures the build, not corpus duplication — the
                // sequential baseline above iterates borrowed trees without
                // cloning either.
                b.iter_batched(
                    || TreeStream::new(fixture.documents().to_vec()),
                    |stream| {
                        let synopsis = build_par(config(kind), stream, shards)
                            .expect("in-memory trees never fail");
                        black_box(synopsis.node_count())
                    },
                    BatchSize::LargeInput,
                )
            });
        }
        group.finish();
    }
}

fn bench_streamed_parse_and_build(c: &mut Criterion) {
    // Raw-text streaming: parsing dominates, so sharding pays off even for
    // the cheap counters representation.
    let fixture = BenchFixture::nitf();
    let corpus: String = fixture
        .documents()
        .iter()
        .map(|d| d.to_xml() + "\n")
        .collect();
    let mut group = c.benchmark_group("synopsis_build_from_text");
    for shards in [1usize, 4] {
        group.bench_function(BenchmarkId::new("hashes_256", shards), |b| {
            b.iter(|| {
                let stream = tps_xml::stream::LineStream::new(corpus.as_bytes());
                let synopsis = build_par(
                    config(MatchingSetKind::Hashes { capacity: 256 }),
                    stream,
                    shards,
                )
                .expect("benchmark corpus parses");
                black_box(synopsis.document_count())
            })
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    // The cost of the merge step itself: combine two half-corpus partials.
    let fixture = BenchFixture::nitf();
    let docs = fixture.documents();
    let mid = docs.len() / 2;
    let mut group = c.benchmark_group("synopsis_merge_two_halves");
    for (name, kind) in [
        ("counters", MatchingSetKind::Counters),
        ("sets_256", MatchingSetKind::Sets { capacity: 256 }),
        ("hashes_256", MatchingSetKind::Hashes { capacity: 256 }),
    ] {
        let mut left = Synopsis::new(config(kind));
        for (i, doc) in docs[..mid].iter().enumerate() {
            left.ingest_tree_as(doc, tps_synopsis::DocId(i as u64));
        }
        let mut right = Synopsis::new(config(kind));
        for (i, doc) in docs[mid..].iter().enumerate() {
            right.ingest_tree_as(doc, tps_synopsis::DocId((mid + i) as u64));
        }
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut merged = left.clone();
                merged.merge(&right);
                black_box(merged.document_count())
            })
        });
    }
    group.finish();
}

/// The `SEL` algebra's two operations on full 256-entry values: two Sets
/// lists sharing a third of their ids, and two distinct samples of
/// overlapping streams at different levels (the union re-hashes the lower
/// side's ids; the intersection hashes none). A row times 1 000 operations:
/// one takes about a microsecond, too short for a single timer read.
fn bench_value_ops(c: &mut Criterion) {
    let set = |step: u64| SummaryValue::Set((0..256).map(|i| DocId(i * step)).collect());
    let sample = |ids: std::ops::Range<u64>| {
        let mut sample = DistinctSample::new(256);
        ids.for_each(|id| sample.insert(DocId(id)));
        SummaryValue::Hash(sample)
    };
    let pairs = [
        ("sets_256", set(2), set(3)),
        ("hashes_256", sample(0..2_000), sample(1_000..40_000)),
    ];
    let mut group = c.benchmark_group("synopsis_value_ops");
    for (name, a, b) in &pairs {
        group.bench_function(BenchmarkId::new("union", name), |bench| {
            bench.iter(|| (0..1_000).for_each(|_| drop(black_box(a.union(b)))))
        });
        group.bench_function(BenchmarkId::new("intersect", name), |bench| {
            bench.iter(|| (0..1_000).for_each(|_| drop(black_box(a.intersect(b)))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_vs_sharded,
    bench_streamed_parse_and_build,
    bench_merge,
    bench_value_ops
);
criterion_main!(benches);
