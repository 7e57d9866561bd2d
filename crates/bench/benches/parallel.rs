//! Scaling of the parallel similarity matrix
//! ([`SimilarityEngine::similarity_matrix_par`]) against the sequential
//! batched matrix on a 60-subscription workload.
//!
//! Every sample starts from a cold engine (rebuilt in the untimed setup of
//! each iteration, matching `benches/engine.rs`), so the numbers compare
//! how fast the *same* evaluation work — `n` marginal `SEL` evaluations
//! plus `n·(n−1)/2` joint conjunction evaluations — completes when fanned
//! out over 1, 2, 4 or 8 scoped worker threads. Results are bit-identical
//! across thread counts (asserted once up front), so this measures pure
//! wall-clock scaling. A `warm` variant shows the merged-back caches: after
//! one parallel matrix, the sequential matrix over the same handles is all
//! cache hits.
//!
//! The scaling headroom is bounded by the host:
//! `std::thread::available_parallelism()` is printed first, and on a
//! single-core container the `par_*` variants degenerate to the sequential
//! work plus scheduling overhead — the >1.5× speedup at 4 threads shows up
//! on hosts with ≥4 cores.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use tps_bench::BenchFixture;
use tps_core::{PatternId, ProximityMetric, SimilarityEngine};
use tps_synopsis::{MatchingSetKind, Synopsis};

const PARALLEL_BENCH_DOCUMENTS: usize = 200;
const PARALLEL_BENCH_PATTERNS: usize = 60;

fn fixture() -> BenchFixture {
    BenchFixture::sized(
        tps_workload::Dtd::nitf_like(),
        PARALLEL_BENCH_DOCUMENTS,
        PARALLEL_BENCH_PATTERNS,
    )
}

fn cold_engine(synopsis: &Synopsis, fixture: &BenchFixture) -> (SimilarityEngine, Vec<PatternId>) {
    let mut engine = SimilarityEngine::from_synopsis(synopsis.clone());
    let ids = engine.register_all(fixture.positives());
    // Materialise the per-node matching sets outside the timed section; the
    // marginal, joint and branch-value caches stay cold.
    engine.prepare();
    (engine, ids)
}

fn bench_matrix_scaling(c: &mut Criterion) {
    println!(
        "host parallelism: {} core(s) available",
        tps_core::par::available_workers()
    );
    let fixture = fixture();
    let synopsis = fixture.synopsis(MatchingSetKind::Hashes { capacity: 256 });
    let n = fixture.positives().len();
    assert!(n >= 60, "the parallel bench needs a 60+-pattern workload");
    let metric = ProximityMetric::M3;

    // Thread count must never change a value: assert bit-identity up front
    // so a scaling regression cannot silently trade speed for correctness.
    {
        let (engine, ids) = cold_engine(&synopsis, &fixture);
        let sequential = engine.similarity_matrix(&ids, metric);
        for threads in [2usize, 4, 8] {
            let (cold, cold_ids) = cold_engine(&synopsis, &fixture);
            assert_eq!(
                cold.similarity_matrix_par(&cold_ids, metric, threads),
                sequential,
                "parallel matrix diverged at {threads} threads"
            );
        }
    }

    let mut group = c.benchmark_group("parallel_matrix");

    group.bench_function(BenchmarkId::new("sequential", n), |b| {
        b.iter_batched(
            || cold_engine(&synopsis, &fixture),
            |(engine, ids)| black_box(engine.similarity_matrix(&ids, metric).len()),
            BatchSize::LargeInput,
        )
    });

    for threads in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new(format!("par_{threads}"), n), |b| {
            b.iter_batched(
                || cold_engine(&synopsis, &fixture),
                |(engine, ids)| {
                    black_box(engine.similarity_matrix_par(&ids, metric, threads).len())
                },
                BatchSize::LargeInput,
            )
        });
    }

    // One parallel matrix, then a sequential one over the same handles: the
    // second call must be served entirely from the merged-back caches.
    group.bench_function(BenchmarkId::new("par_4_then_warm_seq", n), |b| {
        b.iter_batched(
            || {
                let (engine, ids) = cold_engine(&synopsis, &fixture);
                engine.similarity_matrix_par(&ids, metric, 4);
                (engine, ids)
            },
            |(engine, ids)| black_box(engine.similarity_matrix(&ids, metric).len()),
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_matrix_scaling);
criterion_main!(benches);
