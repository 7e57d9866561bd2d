//! Printing: the per-run table, the host fingerprint, and the modes that
//! run every workload in child processes (`all`, `--repeat N`).

use std::io;
use std::process::{Command, Stdio};

use crate::inputs::WORKLOADS;
use crate::metrics::{self, Reading, END_TO_END, PER_LAYER};
use crate::stats::{percentile, sort};

/// One line per reading on stderr: name, value, unit, direction, bound and
/// the samples behind the value.
pub fn print_table(workload: &str, readings: &[Reading]) {
    eprintln!(
        "{:<36} {:>16} {:<6} {:<6} {:>5} {:>8}",
        workload, "value", "unit", "better", "bound", "samples"
    );
    for r in readings {
        let Some(def) = metrics::find(r.name) else {
            continue;
        };
        let bound = def
            .bound
            .map_or_else(|| "-".to_string(), |b| format!("{b:.2}"));
        eprintln!(
            "  {:<34} {:>16.4} {:<6} {:<6} {:>5} {:>8}",
            r.name,
            r.value,
            def.unit,
            def.better.as_str(),
            bound,
            r.samples
        );
    }
}

fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and on what the numbers were taken: nobody should compare across
/// a different line. `nproc` counts the CPUs the process could use before
/// pinning, `pinned` is the CPU it is pinned to, if any.
pub fn fingerprint(seed: u64, nproc: usize, pinned: Option<usize>) -> String {
    format!(
        "host: nproc {nproc}, pinned {}, commit {}, {}, seed {seed}",
        pinned.map_or_else(
            || "no (host.pinned = 0)".to_string(),
            |cpu| format!("to cpu {cpu}")
        ),
        output_of("git", &["rev-parse", "--short", "HEAD"]),
        output_of("rustc", &["-V"]),
    )
}

/// What a result line written by [`metrics::result_line`] says.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    /// Whether every output was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// name → value, in the line's order.
    pub values: Vec<(String, f64)>,
}

/// Parse a result line back.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let field = |key: &str| {
        let rest = &line[line.find(key)? + key.len()..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = field("\"correct\":")? == "true";
    let attempted = field("\"attempted\":")?.parse().ok()?;
    let failed = field("\"failed\":")?.parse().ok()?;
    let mut values = Vec::new();
    let mut rest = &line[line.find("\"metrics\":")?..];
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name = &rest[rest[..at].rfind('"')? + 1..at];
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let value = tail[..tail.find(',')?].trim().parse().ok()?;
        values.push((name.to_string(), value));
        rest = tail;
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        values,
    })
}

/// What one child run of one workload reported.
#[derive(Debug)]
pub struct ChildRun {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the run traced.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// name → value.
    pub values: Vec<(String, f64)>,
}

fn child(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> io::Result<ChildRun> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(parse_result_line);
    match parsed {
        Some(line) if output.status.success() => Ok(ChildRun {
            workload,
            trace,
            attempted: line.attempted,
            failed: line.failed,
            values: line.values,
        }),
        _ => Err(io::Error::other(format!(
            "workload {workload} (trace {}) ended with {} and no result",
            u8::from(trace),
            output.status
        ))),
    }
}

/// Every workload in a fresh child process of this binary: tracing off at
/// full length, then tracing on at a quarter of it.
pub fn run_all(seed: u64, seconds: f64) -> io::Result<Vec<ChildRun>> {
    let mut runs = Vec::new();
    for workload in &WORKLOADS {
        runs.push(child(workload.name, seed, seconds, false)?);
        runs.push(child(workload.name, seed, seconds / 4.0, true)?);
    }
    Ok(runs)
}

/// The whole set as one JSON object on stdout.
pub fn print_all_json(seed: u64, runs: &[ChildRun]) {
    let mut out = format!("{{\"seed\": {seed}, \"runs\": [");
    for (i, run) in runs.iter().enumerate() {
        let metrics: Vec<String> = run
            .values
            .iter()
            .map(|(name, value)| {
                let def = metrics::find(name);
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    def.map_or("", |d| d.unit),
                    def.map_or("", |d| d.better.as_str()),
                    def.and_then(|d| d.bound)
                        .map_or_else(|| "null".to_string(), |b| b.to_string()),
                )
            })
            .collect();
        out.push_str(&format!(
            "{}{{\"workload\": \"{}\", \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            if i > 0 { ", " } else { "" },
            run.workload,
            u8::from(run.trace),
            run.attempted,
            run.failed,
            metrics.join(", ")
        ));
    }
    out.push_str("]}");
    println!("{out}");
}

/// `--repeat N`: per (metric, workload) the minimum, median and maximum over
/// the repetitions and (max − min) / median beside the metric's bound.
/// Returns how many end-to-end pairs spread wider than their bound.
pub fn print_repeatability(repetitions: &[Vec<ChildRun>]) -> usize {
    let mut exceeded = 0;
    eprintln!(
        "{:<16} {:<34} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "range", "bound"
    );
    for workload in &WORKLOADS {
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let mut values: Vec<f64> = repetitions
                .iter()
                .flatten()
                .filter(|run| run.workload == workload.name)
                .flat_map(|run| &run.values)
                .filter(|(name, _)| name == def.name)
                .map(|&(_, value)| value)
                .collect();
            if values.is_empty() {
                continue;
            }
            sort(&mut values);
            let median = percentile(&values, 50.0);
            let range =
                (values[values.len() - 1] - values[0]) / median.abs().max(f64::MIN_POSITIVE);
            let over = def.bound.is_some_and(|bound| range > bound);
            exceeded += usize::from(over);
            eprintln!(
                "{:<16} {:<34} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6}{}",
                workload.name,
                def.name,
                values[0],
                median,
                values[values.len() - 1],
                range,
                def.bound
                    .map_or_else(|| "-".to_string(), |b| format!("{b:.2}")),
                if over { "  EXCEEDS" } else { "" }
            );
        }
    }
    exceeded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_parses_back() {
        let readings = [
            Reading {
                name: "setup_s",
                value: 0.25,
                samples: 3,
            },
            Reading {
                name: "docs_per_s",
                value: 18250.5,
                samples: 9,
            },
        ];
        let line = metrics::result_line(false, 12, 1, &readings);
        assert_eq!(
            parse_result_line(&line),
            Some(ResultLine {
                correct: false,
                attempted: 12,
                failed: 1,
                values: vec![
                    ("setup_s".to_string(), 0.25),
                    ("docs_per_s".to_string(), 18250.5)
                ],
            })
        );
        assert!(parse_result_line("cargo: error").is_none());
    }
}
