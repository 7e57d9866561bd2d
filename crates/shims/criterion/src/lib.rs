//! Vendored stand-in for the `criterion` benchmark harness (API subset).
//!
//! The build environment of this workspace has no access to crates.io, so
//! this package supplies — under the same crate name, macros and call
//! syntax — the slice of the Criterion 0.5 API used by the `tps-bench`
//! benches: [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`BatchSize`], [`black_box`]
//! and the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Instead of Criterion's statistical sampling it runs every benchmark for a
//! fixed, small number of *warm-up* iterations (untimed, to populate caches
//! and branch predictors; override with `TPS_BENCH_WARMUP`) followed by a
//! fixed number of individually-timed iterations (override with
//! `TPS_BENCH_ITERS`), and prints one line per benchmark with the mean,
//! minimum and maximum nanoseconds per iteration — enough to compare hot
//! paths (and their variance) between commits while keeping `cargo bench`
//! runs fast.
//!
//! When `TPS_BENCH_JSON` names a file, every completed benchmark also
//! records its result in that file as a JSON document of the shape
//! `{"benchmarks": [{"id", "mean_ns", "min_ns", "max_ns", "iters",
//! "warmup"}, …]}`. The file is rewritten after each benchmark (so it is
//! valid JSON at all times), and records already present from *other*
//! bench targets — each target is its own process — are preserved unless
//! re-measured, so a multi-target `cargo bench` accumulates one combined
//! snapshot. CI's bench-snapshot step uses this to diff the perf
//! trajectory against a committed snapshot.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

fn env_count(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn iterations() -> u64 {
    env_count("TPS_BENCH_ITERS", 5).max(1)
}

fn warmup_iterations() -> u64 {
    env_count("TPS_BENCH_WARMUP", 2)
}

/// How batched inputs are grouped (accepted for API compatibility; every
/// batch holds exactly one input here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Throughput annotation (accepted and ignored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of a parameter value only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Values accepted where Criterion takes either a string or a [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// Convert into a concrete [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId::from_parameter(self)
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId::from_parameter(self)
    }
}

/// Timing state handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    warmup: u64,
    /// One entry per timed iteration.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `routine`: `warmup` untimed iterations, then one timing sample
    /// per configured iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..self.warmup {
            black_box(routine());
        }
        self.samples.clear();
        for _ in 0..self.iters {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Time `routine` over fresh inputs produced by `setup`; only the
    /// routine is timed (warm-up inputs included). Its output is dropped
    /// after the clock is read, so neither making the input nor dropping
    /// the output is timed.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..self.warmup {
            let input = setup();
            black_box(routine(input));
        }
        self.samples.clear();
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            self.samples.push(start.elapsed());
            drop(output);
        }
    }
}

/// One completed benchmark, as recorded in the `TPS_BENCH_JSON` file.
struct JsonRecord {
    id: String,
    mean_ns: u128,
    min_ns: u128,
    max_ns: u128,
    iters: usize,
    warmup: u64,
}

/// Sink state for the `TPS_BENCH_JSON` file.
///
/// `cargo bench` runs each bench target as its own process, all pointed at
/// the same file; on its first write a process therefore loads the file's
/// existing record lines and *preserves* every benchmark it does not itself
/// re-measure, so consecutive targets accumulate into one snapshot instead
/// of clobbering each other. The file is rewritten in full after every
/// benchmark, so it is valid JSON at all times.
#[derive(Default)]
struct JsonSink {
    /// `(escaped id, rendered record line)` pairs carried over from the
    /// pre-existing file.
    preserved: Vec<(String, String)>,
    /// Benchmarks completed by this process.
    records: Vec<JsonRecord>,
    loaded: bool,
}

fn json_sink() -> &'static Mutex<JsonSink> {
    static SINK: OnceLock<Mutex<JsonSink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(JsonSink::default()))
}

/// Extract the escaped `id` value from one rendered record line.
fn line_id(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("{\"id\": \"")?;
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'"' => return Some(&rest[..end]),
            b'\\' => end += 2,
            _ => end += 1,
        }
    }
    None
}

/// Load the record lines of a previously written snapshot file.
fn load_existing_records(path: &str) -> Vec<(String, String)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let record = line.trim().trim_end_matches(',');
            let id = line_id(record)?;
            Some((id.to_string(), record.to_string()))
        })
        .collect()
}

fn render_record(r: &JsonRecord) -> String {
    format!(
        "{{\"id\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"iters\": {}, \"warmup\": {}}}",
        json_escape(&r.id),
        r.mean_ns,
        r.min_ns,
        r.max_ns,
        r.iters,
        r.warmup,
    )
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => r#"\""#.chars().collect::<Vec<_>>(),
            '\\' => r"\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn record_json(record: JsonRecord) {
    let Ok(path) = std::env::var("TPS_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    record_json_to(&path, record);
}

fn record_json_to(path: &str, record: JsonRecord) {
    let mut sink = json_sink().lock().unwrap_or_else(|e| e.into_inner());
    if !sink.loaded {
        sink.preserved = load_existing_records(path);
        sink.loaded = true;
    }
    sink.records.push(record);
    // Foreign records (other bench targets) first, unless this process has
    // re-measured the same id; then everything measured here.
    let fresh_ids: Vec<String> = sink.records.iter().map(|r| json_escape(&r.id)).collect();
    let lines: Vec<String> = sink
        .preserved
        .iter()
        .filter(|(id, _)| !fresh_ids.contains(id))
        .map(|(_, line)| line.clone())
        .chain(sink.records.iter().map(render_record))
        .collect();
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str("    ");
        out.push_str(line);
        out.push_str(if i + 1 < lines.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    if let Err(err) = std::fs::write(path, out) {
        eprintln!("bench: could not write TPS_BENCH_JSON file {path}: {err}");
    }
}

fn run_benchmark(full_id: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        iters: iterations(),
        warmup: warmup_iterations(),
        samples: Vec::new(),
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("bench: {full_id:<60} (no samples)");
        return;
    }
    let nanos: Vec<u128> = bencher.samples.iter().map(Duration::as_nanos).collect();
    let mean = nanos.iter().sum::<u128>() / nanos.len() as u128;
    let min = *nanos.iter().min().expect("non-empty samples");
    let max = *nanos.iter().max().expect("non-empty samples");
    println!(
        "bench: {full_id:<60} {mean:>14} ns/iter  (min {min}, max {max}, {} iters + {} warmup)",
        nanos.len(),
        bencher.warmup
    );
    record_json(JsonRecord {
        id: full_id.to_string(),
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
        iters: nanos.len(),
        warmup: bencher.warmup,
    });
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Run a single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        run_benchmark(&id.into_benchmark_id().id, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, group_name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: group_name.into(),
        }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; sampling is fixed in this shim.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Accepted for compatibility; measurement time is fixed in this shim.
    pub fn measurement_time(&mut self, _duration: Duration) -> &mut Self {
        self
    }

    /// Accepted and ignored.
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().id);
        run_benchmark(&full, &mut f);
        self
    }

    /// Run one benchmark that borrows a prepared input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().id);
        run_benchmark(&full, &mut |b| f(b, input));
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Bundle benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate the `main` function running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_collects_one_sample_per_iteration_after_warmup() {
        let mut calls = 0u64;
        let mut bencher = Bencher {
            iters: 4,
            warmup: 3,
            samples: Vec::new(),
        };
        bencher.iter(|| calls += 1);
        assert_eq!(calls, 7, "3 warm-up + 4 timed iterations");
        assert_eq!(bencher.samples.len(), 4);
    }

    #[test]
    fn iter_batched_sets_up_fresh_inputs_for_warmup_and_samples() {
        let mut setups = 0u64;
        let mut bencher = Bencher {
            iters: 2,
            warmup: 1,
            samples: Vec::new(),
        };
        bencher.iter_batched(
            || {
                setups += 1;
                setups
            },
            |input| input * 2,
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 3, "1 warm-up + 2 timed setups");
        assert_eq!(bencher.samples.len(), 2);
    }

    #[test]
    fn iter_batched_does_not_time_the_drop_of_the_output() {
        const DROP: Duration = Duration::from_millis(40);
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(DROP);
            }
        }
        let mut bencher = Bencher {
            iters: 3,
            warmup: 0,
            samples: Vec::new(),
        };
        bencher.iter_batched(|| (), |()| SlowDrop, BatchSize::SmallInput);
        assert_eq!(bencher.samples.len(), 3);
        assert!(
            bencher.samples.iter().all(|&sample| sample < DROP),
            "{:?}",
            bencher.samples
        );
    }

    #[test]
    fn env_count_falls_back_to_default() {
        assert_eq!(env_count("TPS_BENCH_NO_SUCH_VAR", 7), 7);
    }

    #[test]
    fn json_escape_handles_quotes_and_control_characters() {
        assert_eq!(json_escape("plain/id_42"), "plain/id_42");
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape("a\\b"), r"a\\b");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn json_records_merge_with_existing_files_and_render_valid_shape() {
        // Exercise the record path end to end through a scratch file that
        // already carries another bench target's records plus a stale
        // measurement of the id re-measured here. (Single test for the
        // stateful sink: the process-global `loaded` flag only reads the
        // pre-existing file once.)
        let path =
            std::env::temp_dir().join(format!("tps-bench-json-test-{}.json", std::process::id()));
        std::fs::write(
            &path,
            concat!(
                "{\n  \"benchmarks\": [\n",
                "    {\"id\": \"other_target/kept\", \"mean_ns\": 7, \"min_ns\": 7, \"max_ns\": 7, \"iters\": 1, \"warmup\": 0},\n",
                "    {\"id\": \"group/case\", \"mean_ns\": 999999, \"min_ns\": 9, \"max_ns\": 9, \"iters\": 1, \"warmup\": 0}\n",
                "  ]\n}\n"
            ),
        )
        .unwrap();
        // Call the path-taking layer directly: mutating TPS_BENCH_JSON via
        // set_var would race with sibling tests reading the environment on
        // other threads.
        record_json_to(
            path.to_str().unwrap(),
            JsonRecord {
                id: "group/case".to_string(),
                mean_ns: 100,
                min_ns: 90,
                max_ns: 120,
                iters: 5,
                warmup: 2,
            },
        );
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"benchmarks\""), "{text}");
        // The foreign target's record survives; the stale measurement of
        // the re-measured id is replaced by the fresh one.
        assert!(text.contains("\"id\": \"other_target/kept\""), "{text}");
        assert!(text.contains("\"id\": \"group/case\""));
        assert!(text.contains("\"mean_ns\": 100"));
        assert!(!text.contains("999999"), "{text}");
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn line_id_handles_escapes_and_rejects_non_records() {
        assert_eq!(
            line_id(r#"{"id": "group/case", "mean_ns": 1}"#),
            Some("group/case")
        );
        assert_eq!(
            line_id(r#"  {"id": "we\"ird", "mean_ns": 1}"#),
            Some(r#"we\"ird"#)
        );
        assert_eq!(line_id("\"benchmarks\": ["), None);
        assert_eq!(line_id("{"), None);
    }

    #[test]
    fn load_existing_records_reads_record_lines_only() {
        let path = std::env::temp_dir().join(format!(
            "tps-bench-json-load-test-{}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "{\n  \"benchmarks\": [\n    {\"id\": \"a/b\", \"mean_ns\": 1, \"min_ns\": 1, \"max_ns\": 1, \"iters\": 1, \"warmup\": 0}\n  ]\n}\n",
        )
        .unwrap();
        let records = load_existing_records(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, "a/b");
        assert!(records[0].1.starts_with("{\"id\": \"a/b\""));
        assert!(load_existing_records("/nonexistent/snapshot.json").is_empty());
    }
}
