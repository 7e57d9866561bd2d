//! Benchmarks for the batch-first `SimilarityEngine`: the batched
//! `similarity_matrix` entry point against N² individual calls on a
//! ≥50-pattern subscription workload.
//!
//! Two variants over the same workload and synopsis:
//!
//! * `handles_n2` — n² individual [`SimilarityEngine::similarity`] calls on
//!   registered handles; marginals and unordered joints come from the
//!   engine's epoch-tagged caches.
//! * `similarity_matrix` — one batched [`SimilarityEngine::similarity_matrix`]
//!   call (one `SEL` evaluation per distinct root branch, then n marginal
//!   and n·(n−1)/2 joint folds of the cached branch values).
//!
//! Engines are rebuilt in the (untimed) setup of every iteration so each
//! sample starts with cold marginal/joint/`SEL` caches — the numbers compare
//! algorithmic shape, not residual warm state. The per-node matching-set
//! materialisation is pre-warmed in setup, so the one-off epoch cost does
//! not skew either variant.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use tps_bench::BenchFixture;
use tps_core::{PatternId, ProximityMetric, SelectivityEstimator, SimilarityEngine};
use tps_synopsis::{MatchingSetKind, Synopsis};

const ENGINE_BENCH_DOCUMENTS: usize = 200;
const ENGINE_BENCH_PATTERNS: usize = 60;

fn fixture() -> BenchFixture {
    BenchFixture::sized(
        tps_workload::Dtd::nitf_like(),
        ENGINE_BENCH_DOCUMENTS,
        ENGINE_BENCH_PATTERNS,
    )
}

fn cold_engine(synopsis: &Synopsis, fixture: &BenchFixture) -> (SimilarityEngine, Vec<PatternId>) {
    let mut engine = SimilarityEngine::from_synopsis(synopsis.clone());
    let ids = engine.register_all(fixture.positives());
    // Materialise the per-node matching sets outside the timed section;
    // the marginal, joint and branch-value caches stay cold.
    engine.prepare();
    (engine, ids)
}

fn bench_matrix_vs_individual_calls(c: &mut Criterion) {
    let fixture = fixture();
    let synopsis = fixture.synopsis(MatchingSetKind::Hashes { capacity: 256 });
    let n = fixture.positives().len();
    assert!(n >= 50, "the engine bench needs a ≥50-pattern workload");
    let metric = ProximityMetric::M3;

    let mut group = c.benchmark_group("engine");

    // N² individual calls through registered handles: the engine's caches
    // collapse the repeated marginals and mirror-pair joints.
    group.bench_function(BenchmarkId::new("handles_n2", metric.to_string()), |b| {
        b.iter_batched(
            || cold_engine(&synopsis, &fixture),
            |(engine, ids)| {
                let mut total = 0.0;
                for &p in &ids {
                    for &q in &ids {
                        if p != q {
                            total += engine.similarity(p, q, metric);
                        }
                    }
                }
                black_box(total)
            },
            BatchSize::LargeInput,
        )
    });

    // One batched call for the whole workload.
    group.bench_function(
        BenchmarkId::new("similarity_matrix", metric.to_string()),
        |b| {
            b.iter_batched(
                || cold_engine(&synopsis, &fixture),
                |(engine, ids)| black_box(engine.similarity_matrix(&ids, metric).len()),
                BatchSize::LargeInput,
            )
        },
    );

    group.finish();
}

fn bench_batched_selectivities(c: &mut Criterion) {
    let fixture = fixture();
    let synopsis = fixture.synopsis(MatchingSetKind::Hashes { capacity: 256 });

    let mut group = c.benchmark_group("engine_selectivities");
    group.bench_function("per_call", |b| {
        b.iter(|| {
            let estimator = SelectivityEstimator::new(&synopsis);
            let total: f64 = fixture
                .positives()
                .iter()
                .map(|p| estimator.selectivity(p))
                .sum();
            black_box(total)
        })
    });
    group.bench_function("batched", |b| {
        b.iter_batched(
            || cold_engine(&synopsis, &fixture),
            |(engine, ids)| black_box(engine.selectivities(&ids).iter().sum::<f64>()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_registration(c: &mut Criterion) {
    let fixture = fixture();
    let synopsis = fixture.synopsis(MatchingSetKind::Hashes { capacity: 256 });
    c.bench_function("engine_register_60_patterns", |b| {
        b.iter_batched(
            || SimilarityEngine::from_synopsis(synopsis.clone()),
            |mut engine| black_box(engine.register_all(fixture.positives()).len()),
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_matrix_vs_individual_calls,
    bench_batched_selectivities,
    bench_registration
);
criterion_main!(benches);
