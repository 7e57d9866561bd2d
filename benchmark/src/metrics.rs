//! The metric catalog: every name the benchmark may print, with its unit,
//! direction and regression bound. `BENCHMARK.json` is generated from this
//! table (`--print-benchmark-json`) and the self-test holds the committed
//! file equal to it, so the two cannot drift.

use crate::inputs::WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique over both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one; the
/// README says what each means on each workload. All durations are
/// reference time (see [`crate::speed`]).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("docs_per_s", "1/s", Higher, 0.25),
    e2e("doc_p50_us", "us", Lower, 0.25),
    e2e("doc_tail_us", "us", Lower, 0.25),
    e2e("pairs_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Timings and counts of calls into single crates, made by the traced run
/// on the workload's own inputs. Layers are crate names; every duration is
/// reference time. The README says which end-to-end metric each should
/// move, on which workload.
pub const PER_LAYER: [MetricDef; 70] = [
    layer("host.nproc", "count", Higher),
    layer("host.pinned", "count", Higher),
    layer("host.pinned_cpu", "count", Higher),
    layer("host.speed", "ratio", Higher),
    layer("xml.scan_ns_per_byte", "ns/B", Lower),
    layer("xml.parse_us_per_doc", "us", Lower),
    layer("xml.doc_bytes", "B", Lower),
    layer("pattern.parse_us", "us", Lower),
    layer("pattern.match_ns", "ns", Lower),
    layer("pattern.match_ops_per_doc", "count", Lower),
    layer("pattern.match_hit_share", "ratio", Higher),
    layer("synopsis.ingest_us_per_doc", "us", Lower),
    layer("synopsis.ingest_mib_per_s", "MiB/s", Higher),
    layer("synopsis.nodes", "count", Lower),
    layer("synopsis.prune_ms", "ms", Lower),
    layer("synopsis.prune_size_ratio", "ratio", Lower),
    layer("core.register_us", "us", Lower),
    layer("core.warm_ms", "ms", Lower),
    layer("core.selectivity_ms_per_pattern", "ms", Lower),
    layer("core.joint_us_per_pair", "us", Lower),
    layer("core.cache_hit_share", "ratio", Higher),
    layer("core.sel_erel", "ratio", Lower),
    layer("core.matrix_par_speedup", "ratio", Higher),
    layer("core.build_par_speedup", "ratio", Higher),
    layer("core.index_insert_us", "us", Lower),
    layer("core.index_candidate_share", "ratio", Lower),
    layer("core.index_recall", "ratio", Higher),
    layer("cluster.leader_insert_us", "us", Lower),
    layer("cluster.leader_remove_us", "us", Lower),
    layer("cluster.clusters", "count", Lower),
    layer("cluster.agglomerative_ms", "ms", Lower),
    layer("routing.table_build_ms", "ms", Lower),
    layer("routing.table_nodes", "count", Lower),
    layer("routing.forward_links_us_per_doc", "us", Lower),
    layer("routing.lookup_cost_per_doc", "count", Lower),
    layer("routing.link_messages_per_doc", "count", Lower),
    layer("routing.spurious_share", "ratio", Lower),
    layer("routing.route_stream_us_per_doc", "us", Lower),
    layer("analyze.workload_ms", "ms", Lower),
    layer("sim.us_per_event", "us", Lower),
    layer("net.codec.encode_ns_per_byte", "ns/B", Lower),
    layer("net.codec.decode_ns_per_byte", "ns/B", Lower),
    layer("net.broker.publish_us", "us", Lower),
    layer("net.broker.forward_in_us", "us", Lower),
    layer("net.broker.route_self_us", "us", Lower),
    layer("net.broker.subscribe_us", "us", Lower),
    layer("net.broker.unsubscribe_us", "us", Lower),
    layer("net.broker.rebuild_ms", "ms", Lower),
    layer("net.client.ack_p50_us", "us", Lower),
    layer("net.client.deliver_p50_us", "us", Lower),
    layer("net.client.deliver_p99_us", "us", Lower),
    layer("net.client.subscribe_p50_us", "us", Lower),
    layer("net.server.ack_overhead_us", "us", Lower),
    layer("net.server.transit_us_per_hop", "us", Lower),
    layer("net.server.ctx_switches_per_doc", "count", Lower),
    layer("net.server.cpu_us_per_doc", "us", Lower),
    layer("net.server.forwards_dropped", "count", Lower),
    layer("net.server.table_rebuilds", "count", Lower),
    layer("net.overlay.spawn_ms", "ms", Lower),
    layer("net.overlay.install_subs_per_s", "1/s", Higher),
    layer("net.overlay.converge_ms", "ms", Lower),
    layer("net.overlay.view_changes_per_s", "1/s", Higher),
    layer("net.overlay.shutdown_ms", "ms", Lower),
    layer("net.overlay.resync_ms", "ms", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("ledger.predicted_us", "us", Lower),
    layer("ledger.residual_share", "ratio", Lower),
    layer("oracle.attempted", "count", Higher),
    layer("oracle.failed_share", "ratio", Lower),
];

/// Look a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// One measured value.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Catalog name.
    pub name: &'static str,
    /// The value, in the catalog's unit.
    pub value: f64,
    /// Samples behind the value (1 for a single timed pass or a count).
    pub samples: usize,
}

/// Seconds one run measures for, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 20;

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            json_string(w.name),
            json_string(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str()),
            // invariant: every end-to-end entry is built by `e2e`.
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The contract's result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` per reading.
pub fn result_line(correct: bool, attempted: u64, failed: u64, readings: &[Reading]) -> String {
    let metrics: Vec<String> = readings
        .iter()
        .map(|r| {
            let unit = find(r.name).map_or("", |m| m.unit);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(r.name),
                r.value,
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(ok(m.name, "_.-", 64), "bad name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(m.unit, "_/%.-", 16), "bad unit {}", m.unit);
        }
        for m in &END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for w in &WORKLOADS {
            assert!(seen.insert(w.name), "workload name clashes: {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
