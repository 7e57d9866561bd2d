//! End-to-end tests for the enforced bench gate: the committed
//! `bench_thresholds.txt` policy against the committed snapshots, and the
//! `bench_diff` binary's exit codes.
//!
//! The pre-fix synopsis snapshot (recorded before `build_par` grew its
//! single-shard fast path, when `build_par/1` ran ~1.76x the sequential
//! build) lives in `tests/fixtures/` as a regression fixture: the gate must
//! reject it and accept the refreshed committed snapshot.

use std::path::{Path, PathBuf};
use std::process::Command;

use tps_bench::snapshot::{
    enforce_ratios, enforce_snapshots, parse_snapshot, parse_thresholds, Thresholds,
};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|err| panic!("{}: {err}", path.display()))
}

fn repo_thresholds() -> Thresholds {
    parse_thresholds(&read(&repo_root().join("bench_thresholds.txt"))).expect("policy parses")
}

#[test]
fn committed_thresholds_file_parses_and_carries_the_build_par_rules() {
    let thresholds = repo_thresholds();
    let build_par: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.ends_with("build_par/1"))
        .collect();
    assert_eq!(
        build_par.len(),
        3,
        "one build_par/1 rule per synopsis config"
    );
    for rule in &build_par {
        assert!(rule.denominator.ends_with("from_documents"), "{rule:?}");
        assert!((rule.max - 1.10).abs() < 1e-9, "{rule:?}");
    }
    let analyze: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.starts_with("analyze_workload/"))
        .collect();
    assert_eq!(analyze.len(), 1, "the syntactic-vs-dtd analysis rule");
    assert!(analyze[0].denominator.ends_with("dtd_128"), "{analyze:?}");
    let index: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.starts_with("index_"))
        .collect();
    assert_eq!(index.len(), 2, "near-linear scaling + hoisted signatures");
    let scaling = index
        .iter()
        .find(|rule| rule.numerator.ends_with("cluster_1M"))
        .expect("the near-linear scaling rule");
    assert!(scaling.denominator.ends_with("cluster_100k"), "{scaling:?}");
    assert!(
        scaling.max < 20.0,
        "10x the subscriptions must stay near-linear: {scaling:?}"
    );
    let hoisted = index
        .iter()
        .find(|rule| rule.numerator.ends_with("hoisted"))
        .expect("the hoisted-signatures rule");
    assert!(
        hoisted.max < 1.0,
        "the hoisted form must beat the re-hashing baseline: {hoisted:?}"
    );
    let ingest: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.starts_with("ingest/"))
        .collect();
    assert_eq!(
        ingest.len(),
        3,
        "one scan-vs-tree rule per matching-set representation"
    );
    for rule in &ingest {
        assert!(rule.numerator.contains("/scan_observe/"), "{rule:?}");
        assert!(rule.denominator.contains("/tree_observe/"), "{rule:?}");
        assert!(
            (rule.max - 0.5).abs() < 1e-9,
            "the scanner path must stay at least twice as fast: {rule:?}"
        );
    }
    let match_set: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.starts_with("match_set"))
        .collect();
    assert_eq!(
        match_set.len(),
        4,
        "forest-vs-scan with a warm and with an empty path cache + the 100k pass \
         + the pass under churn"
    );
    // The 100k pass is held against the 10k scan too: the 1k pass it was
    // first held against is a millisecond now, and the noisiest term of a run.
    for (numerator, max) in [
        ("match_set/10k", 0.05),
        ("match_set_cold/10k", 0.10),
        ("match_set/100k", 0.30),
    ] {
        let vs_scan = match_set
            .iter()
            .find(|rule| rule.numerator == numerator && rule.denominator == "linear_scan/10k")
            .unwrap_or_else(|| panic!("the {numerator}-vs-scan rule"));
        assert!(
            vs_scan.max <= max,
            "the forest must stay well under the per-subscription scan: {vs_scan:?}"
        );
    }
    let churn = match_set
        .iter()
        .find(|rule| rule.numerator == "match_set_churn/10k")
        .expect("the churning-pass rule");
    assert_eq!(churn.denominator, "match_bytes/10k");
    assert!(
        churn.max <= 2.06,
        "a view change must repair the path cache, not forget it: {churn:?}"
    );
    let match_bytes: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.starts_with("match_bytes"))
        .collect();
    assert_eq!(match_bytes.len(), 1, "bytes-vs-tree at 10k");
    assert_eq!(match_bytes[0].numerator, "match_bytes/10k");
    assert_eq!(match_bytes[0].denominator, "match_set/10k");
    assert!(
        match_bytes[0].max <= 1.4,
        "matching from the bytes must cost about what the tree replay does: {match_bytes:?}"
    );
    let net_core: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.starts_with("net_core/"))
        .collect();
    assert_eq!(net_core.len(), 1, "the carried-interest-vs-scan rule");
    assert_eq!(net_core[0].numerator, "net_core/forward_matched/10k");
    assert_eq!(net_core[0].denominator, "net_core/scan");
    assert!(
        net_core[0].max <= 4.5,
        "a trusted forward must skip the match: {net_core:?}"
    );
    let engine: Vec<_> = thresholds
        .ratios
        .iter()
        .filter(|rule| rule.numerator.starts_with("engine"))
        .collect();
    assert_eq!(engine.len(), 2, "batched-vs-per-call + matrix-vs-marginals");
    for (numerator, denominator, max) in [
        (
            "engine_selectivities/batched",
            "engine_selectivities/per_call",
            0.12,
        ),
        (
            "engine/similarity_matrix/M3",
            "engine_selectivities/batched",
            3.0,
        ),
    ] {
        let rule = engine
            .iter()
            .find(|rule| rule.numerator == numerator && rule.denominator == denominator)
            .unwrap_or_else(|| panic!("the {numerator}-vs-{denominator} rule"));
        assert!(
            rule.max <= max,
            "cached branch values must keep their lead: {rule:?}"
        );
    }
    assert_eq!(
        thresholds.ratios.len(),
        build_par.len()
            + engine.len()
            + analyze.len()
            + index.len()
            + ingest.len()
            + match_set.len()
            + match_bytes.len()
            + net_core.len(),
        "no unaccounted-for ratio rules"
    );
}

#[test]
fn gate_rejects_the_prefix_build_par_snapshot() {
    let thresholds = repo_thresholds();
    let mut prefix = parse_snapshot(&read(
        &repo_root().join("crates/bench/tests/fixtures/BENCH_synopsis_prefix.json"),
    ))
    .expect("fixture parses");
    // The fixture plays the "fresh run" role; the committed analyze
    // snapshot joins the union so its ratio rule resolves (CI evaluates
    // ratios over every fresh snapshot of the run at once).
    prefix.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_analyze.json")))
            .expect("analyze snapshot parses"),
    );
    prefix.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_engine.json")))
            .expect("engine snapshot parses"),
    );
    prefix.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_index.json")))
            .expect("index snapshot parses"),
    );
    prefix.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_ingest.json")))
            .expect("ingest snapshot parses"),
    );
    prefix.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_match.json")))
            .expect("match snapshot parses"),
    );
    prefix.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_net.json"))).expect("net snapshot parses"),
    );
    let gate = enforce_ratios(&prefix, &thresholds, &[]);
    assert_eq!(
        gate.failures.len(),
        3,
        "every config's build_par/1 must trip the 1.10 rule: {gate:?}"
    );
    for failure in &gate.failures {
        assert!(failure.contains("build_par/1"), "{failure}");
    }
}

#[test]
fn gate_accepts_the_committed_snapshots() {
    let thresholds = repo_thresholds();
    let synopsis = parse_snapshot(&read(&repo_root().join("BENCH_synopsis.json")))
        .expect("committed snapshot parses");
    let gate = enforce_snapshots(&synopsis, &synopsis, &thresholds, &[]);
    assert!(
        gate.failures.is_empty(),
        "the committed snapshot must pass its own gate: {gate:?}"
    );
    // Ratio rules span snapshot files, so they are checked over the union —
    // the same shape as CI's single multi-pair invocation.
    let mut union = synopsis;
    union.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_analyze.json")))
            .expect("analyze snapshot parses"),
    );
    union.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_engine.json")))
            .expect("engine snapshot parses"),
    );
    union.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_index.json")))
            .expect("index snapshot parses"),
    );
    union.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_ingest.json")))
            .expect("ingest snapshot parses"),
    );
    union.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_match.json")))
            .expect("match snapshot parses"),
    );
    union.extend(
        parse_snapshot(&read(&repo_root().join("BENCH_net.json"))).expect("net snapshot parses"),
    );
    let ratios = enforce_ratios(&union, &thresholds, &[]);
    assert!(
        ratios.failures.is_empty(),
        "the committed snapshots must satisfy the ratio rules: {ratios:?}"
    );
}

#[test]
fn binary_passes_the_ci_invocation_over_all_committed_snapshots() {
    // Exactly what CI runs (with fresh == committed): every pair in one
    // invocation. The ratio rules must be satisfied by the union of the
    // fresh snapshots, not demanded of the engine/sim pairs where those
    // ids do not exist.
    let root = repo_root();
    let t = root.join("bench_thresholds.txt");
    let engine = root.join("BENCH_engine.json");
    let synopsis = root.join("BENCH_synopsis.json");
    let sim = root.join("BENCH_sim.json");
    let analyze = root.join("BENCH_analyze.json");
    let index = root.join("BENCH_index.json");
    let ingest = root.join("BENCH_ingest.json");
    let net = root.join("BENCH_net.json");
    let matching = root.join("BENCH_match.json");
    let (e, s, m, a, i, g, n, x) = (
        engine.to_str().unwrap(),
        synopsis.to_str().unwrap(),
        sim.to_str().unwrap(),
        analyze.to_str().unwrap(),
        index.to_str().unwrap(),
        ingest.to_str().unwrap(),
        net.to_str().unwrap(),
        matching.to_str().unwrap(),
    );
    let out = bench_diff(&[
        "--enforce",
        "--thresholds",
        t.to_str().unwrap(),
        e,
        e,
        s,
        s,
        m,
        m,
        a,
        a,
        i,
        i,
        g,
        g,
        n,
        n,
        x,
        x,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("gate passed"), "{stdout}");
}

fn bench_diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .expect("bench_diff runs")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tps_gate_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp snapshot writes");
    path
}

const BASE: &str = r#"{"benchmarks": [
  {"id": "g/a", "mean_ns": 1000, "min_ns": 900, "max_ns": 1100, "iters": 3, "warmup": 1},
  {"id": "g/b", "mean_ns": 2000, "min_ns": 1900, "max_ns": 2100, "iters": 3, "warmup": 1}
]}"#;

#[test]
fn binary_fails_on_an_injected_regression_and_allows_it_by_id() {
    let committed = write_temp("committed.json", BASE);
    let regressed = write_temp(
        "regressed.json",
        &BASE.replace("\"mean_ns\": 1000", "\"mean_ns\": 9000"),
    );
    let c = committed.to_str().unwrap();
    let f = regressed.to_str().unwrap();

    // Warn-only mode records the movement but exits 0.
    let advisory = bench_diff(&[c, f]);
    assert!(advisory.status.success(), "{advisory:?}");

    // The same pair fails under --enforce (9x >> the 50% default budget)...
    let enforced = bench_diff(&["--enforce", c, f]);
    assert!(!enforced.status.success());
    let stdout = String::from_utf8_lossy(&enforced.stdout);
    assert!(stdout.contains("gate FAILED"), "{stdout}");
    assert!(stdout.contains("g/a"), "{stdout}");

    // ...and passes again once the regression is explicitly waived.
    let waived = bench_diff(&["--enforce", "--allow", "g/a", c, f]);
    assert!(waived.status.success(), "{waived:?}");

    // Identical snapshots pass outright.
    let clean = bench_diff(&["--enforce", c, c]);
    assert!(clean.status.success(), "{clean:?}");

    std::fs::remove_file(&committed).ok();
    std::fs::remove_file(&regressed).ok();
}

#[test]
fn binary_fails_when_a_committed_benchmark_goes_missing() {
    let committed = write_temp("full.json", BASE);
    let partial = write_temp(
        "partial.json",
        r#"{"benchmarks": [
  {"id": "g/a", "mean_ns": 1000, "min_ns": 900, "max_ns": 1100, "iters": 3, "warmup": 1}
]}"#,
    );
    let c = committed.to_str().unwrap();
    let f = partial.to_str().unwrap();

    let enforced = bench_diff(&["--enforce", c, f]);
    assert!(!enforced.status.success());
    let stdout = String::from_utf8_lossy(&enforced.stdout);
    assert!(stdout.contains("missing from the fresh run"), "{stdout}");

    // Warn-only mode still tolerates it (REMOVED line, exit 0).
    let advisory = bench_diff(&[c, f]);
    assert!(advisory.status.success(), "{advisory:?}");

    std::fs::remove_file(&committed).ok();
    std::fs::remove_file(&partial).ok();
}

#[test]
fn binary_fails_in_enforce_mode_without_a_baseline() {
    let fresh = write_temp("fresh_only.json", BASE);
    let f = fresh.to_str().unwrap();
    let missing = "/nonexistent/BENCH_missing.json";

    let enforced = bench_diff(&["--enforce", missing, f]);
    assert!(!enforced.status.success());

    // Warn-only mode downgrades a missing baseline to "everything is new".
    let advisory = bench_diff(&[missing, f]);
    assert!(advisory.status.success(), "{advisory:?}");

    std::fs::remove_file(&fresh).ok();
}

#[test]
fn binary_applies_the_repo_thresholds_file() {
    let root = repo_root();
    let thresholds = root.join("bench_thresholds.txt");
    let prefix = root.join("crates/bench/tests/fixtures/BENCH_synopsis_prefix.json");
    let out = bench_diff(&[
        "--enforce",
        "--thresholds",
        thresholds.to_str().unwrap(),
        prefix.to_str().unwrap(),
        prefix.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "the pre-fix snapshot must fail the committed policy"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ratio"), "{stdout}");
}
