//! The benchmark tested against its own contract: all four workloads at
//! 1/100 length, both tables, and a wrong output that must fail the run.

use std::path::Path;

use tps_benchmark::inputs::WORKLOADS;
use tps_benchmark::metrics::{self, Reading, END_TO_END, PER_LAYER, RUN_SECONDS};
use tps_benchmark::{host, layers, live, run};

const SEED: u64 = 2007;
const SECONDS: f64 = RUN_SECONDS as f64 / 100.0;

fn assert_exactly(table: &[metrics::MetricDef], readings: &[Reading], workload: &str) {
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    let emitted: Vec<&str> = readings.iter().map(|r| r.name).collect();
    assert_eq!(
        emitted, expected,
        "{workload}: names drifted from the catalog"
    );
    for reading in readings {
        assert!(
            reading.value.is_finite(),
            "{workload}: {} = {}",
            reading.name,
            reading.value
        );
    }
}

#[test]
fn benchmark_json_is_generated_from_the_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        metrics::benchmark_json(),
        "regenerate with `tps-benchmark --print-benchmark-json > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_fails_nothing() {
    for workload in &WORKLOADS {
        let outcome = run::run(workload, SEED, SECONDS).expect(workload.name);
        assert_exactly(&END_TO_END, &outcome.readings, workload.name);
        for reading in &outcome.readings {
            assert!(
                reading.value > 0.0,
                "{}: {} must never be 0",
                workload.name,
                reading.name
            );
        }
        assert_eq!(outcome.tally.failed, 0, "{}", workload.name);
        assert!(outcome.tally.attempted > 0);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let cpus = host::allowed_cpus();
    for workload in &WORKLOADS {
        let outcome = layers::run(workload, SEED, SECONDS, &cpus, None, out).expect(workload.name);
        assert_exactly(&PER_LAYER, &outcome.readings, workload.name);
        assert_eq!(outcome.tally.failed, 0, "{}", workload.name);
        let trace = out.join(format!("trace-{}.jsonl", workload.name));
        let spans = std::fs::read_to_string(trace).expect("the trace file was written");
        let first = spans.lines().next().expect("at least one span");
        for key in [
            "\"name\"",
            "\"start_ns\"",
            "\"end_ns\"",
            "\"parent\"",
            "\"doc\"",
        ] {
            assert!(first.contains(key), "{first}");
        }
    }
}

#[test]
fn a_corrupted_delivery_is_a_failed_operation() {
    let relay = &WORKLOADS[1];
    assert_eq!(relay.name, "relay_small");
    // The first publication after the warm-up documents.
    let corrupt = Some(live::WARMUP_DOCUMENTS);
    let outcome = run::run_corrupting(relay, SEED, SECONDS, corrupt).expect("the run completes");
    assert_eq!(outcome.tally.failed, 1);
    let failed_share = outcome.tally.failed as f64 / outcome.tally.attempted as f64;
    assert!(failed_share > 0.0);
}
