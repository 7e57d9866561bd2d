//! Benchmarks for semantic-community discovery: similarity-matrix
//! construction and the three clustering algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tps_bench::BenchFixture;
use tps_cluster::{
    agglomerative, kmedoids, leader, AgglomerativeConfig, KMedoidsConfig, LeaderConfig,
};
use tps_core::{ProximityMetric, SimMatrix, SimilarityEngine};
use tps_synopsis::MatchingSetKind;

fn fixture_matrix() -> (BenchFixture, SimMatrix) {
    let fixture = BenchFixture::nitf();
    let synopsis = fixture.synopsis(MatchingSetKind::Hashes { capacity: 256 });
    let mut engine = SimilarityEngine::from_synopsis(synopsis);
    let ids = engine.register_all(fixture.positives());
    let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
    (fixture, matrix)
}

fn bench_matrix_construction(c: &mut Criterion) {
    let fixture = BenchFixture::nitf();
    let synopsis = fixture.synopsis(MatchingSetKind::Hashes { capacity: 256 });
    let mut group = c.benchmark_group("similarity_matrix");
    group.sample_size(10);
    group.bench_function("estimated_hashes", |b| {
        // A cold engine per iteration: the benchmark measures matrix
        // construction, not cache reads.
        b.iter(|| {
            let mut engine = SimilarityEngine::from_synopsis(synopsis.clone());
            let ids = engine.register_all(fixture.positives());
            black_box(engine.similarity_matrix(&ids, ProximityMetric::M3))
        })
    });
    group.finish();
}

fn bench_clustering_algorithms(c: &mut Criterion) {
    let (_fixture, matrix) = fixture_matrix();
    let mut group = c.benchmark_group("clustering_algorithms");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("agglomerative"), |b| {
        b.iter(|| {
            black_box(
                agglomerative(&matrix, AgglomerativeConfig::default())
                    .clustering
                    .cluster_count(),
            )
        })
    });
    group.bench_function(BenchmarkId::from_parameter("leader"), |b| {
        b.iter(|| {
            black_box(
                leader(&matrix, LeaderConfig::default())
                    .clustering
                    .cluster_count(),
            )
        })
    });
    group.bench_function(BenchmarkId::from_parameter("kmedoids"), |b| {
        b.iter(|| {
            black_box(
                kmedoids(
                    &matrix,
                    KMedoidsConfig {
                        k: 6,
                        ..KMedoidsConfig::default()
                    },
                )
                .clustering
                .cluster_count(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matrix_construction,
    bench_clustering_algorithms
);
criterion_main!(benches);
