//! Command line of the benchmark.
//!
//! ```text
//! tps-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload, in this process; the last line of stdout is
//!     the result object `BENCHMARK.json`'s contract asks for
//! tps-benchmark [--seed N] [--seconds S] [--repeat R]
//!     every workload in a child process each, tracing off and then on at
//!     quarter length: JSON on stdout, tables on stderr; with --repeat the
//!     set is run R times and the spread of every metric is printed
//! tps-benchmark --print-benchmark-json
//!     the text `BENCHMARK.json` must hold
//! ```

use std::path::Path;
use std::process::ExitCode;

use tps_benchmark::inputs::{self, WORKLOADS};
use tps_benchmark::metrics::{self, RUN_SECONDS};
use tps_benchmark::{host, layers, report, run};

/// Where traced runs write their spans, from the root of the checkout.
const TRACE_DIRECTORY: &str = "benchmark/out";
/// The paper's year; the seed of the committed baseline.
const DEFAULT_SEED: u64 = 2007;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        print_benchmark_json: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        if flag == "--print-benchmark-json" {
            args.print_benchmark_json = true;
            continue;
        }
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad("a count"))?;
                if args.repeat == 0 {
                    return Err(bad("at least 1"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    let workload = inputs::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let cpus = host::allowed_cpus();
    let pinned = host::pin_to_last_cpu();
    eprintln!("{}", report::fingerprint(args.seed, cpus.len(), pinned));
    let outcome = if args.trace {
        layers::run(
            workload,
            args.seed,
            args.seconds,
            &cpus,
            pinned,
            Path::new(TRACE_DIRECTORY),
        )
    } else {
        run::run(workload, args.seed, args.seconds)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    report::print_table(name, &outcome.readings);
    let correct = outcome.tally.failed == 0 && outcome.readings.iter().all(|r| r.value.is_finite());
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.tally.attempted,
            outcome.tally.failed,
            &outcome.readings
        )
    );
    Ok(correct)
}

fn every_workload(args: &Args) -> Result<bool, String> {
    let mut repetitions = Vec::new();
    for _ in 0..args.repeat {
        repetitions.push(report::run_all(args.seed, args.seconds).map_err(|e| e.to_string())?);
    }
    let failed: u64 = repetitions.iter().flatten().map(|run| run.failed).sum();
    let mut steady = true;
    if args.repeat > 1 {
        let exceeded = report::print_repeatability(&repetitions);
        eprintln!("{exceeded} end-to-end (metric, workload) pairs range wider than their bound");
        steady = exceeded == 0;
    }
    // invariant: repeat ≥ 1, so there is a last repetition.
    report::print_all_json(
        args.seed,
        repetitions.last().expect("at least one repetition"),
    );
    Ok(failed == 0 && steady)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.print_benchmark_json {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        } else if let Some(name) = &args.workload {
            one_workload(name, &args)
        } else {
            every_workload(&args)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tps-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
