//! One run of one workload with tracing off: set-up, the timed passes, the
//! reference checks, and the end-to-end readings.

use std::io;
use std::time::{Duration, Instant};

use crate::analysis::{Analysis, Unit};
use crate::analytic::ingest_pass;
use crate::host;
use crate::inputs::{Inputs, Substrate, Tail, Workload};
use crate::live::{Delivery, Rig, Timed, TIMEOUT};
use crate::metrics::Reading;
use crate::oracle::{self, Tally};
use crate::speed::{HostClock, Speedometer};
use crate::stats::{median, micros, percentile, sort, supported_percentile};

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, reference checks included.
    pub tally: Tally,
    /// One reading per metric of the table the run was asked for.
    pub readings: Vec<Reading>,
}

/// Set-ups a run times at least (the median is reported).
const SETUPS: usize = 3;
/// Fast set-ups are repeated until this much time went into them …
const SETUP_FLOOR: Duration = Duration::from_millis(500);
/// … or this many were made.
const SETUPS_MOST: usize = 21;

/// Rounds the passes are cut into and interleaved in (data, analysis, data,
/// …): the host's speed shifts for seconds at a time, and a pass run in one
/// piece would see one such stretch and nothing else.
const ROUNDS: u32 = 4;
/// Slices a metric's samples are cut into over the whole run; the metric
/// is the median over its slices, so that a burst of interference spoils a
/// slice, not the run.
const SLICES: usize = 8;
/// Samples a slice holds at least (fewer slices are cut from a short pass).
const SLICE_FLOOR: usize = 16;

/// Shares of `--seconds` per pass. A live workload whose view stands still
/// splits its data pass in a latency and a throughput pass; a churning one
/// spends both shares in one mixed loop; in process they go to the ingest.
const LATENCY_SHARE: f64 = 0.35;
const THROUGHPUT_SHARE: f64 = 0.40;
const ANALYSIS_SHARE: f64 = 0.25;

/// One round's part of a pass.
fn share(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share / f64::from(ROUNDS))
}

/// Repeat `setup` as [`SETUPS`] and [`SETUP_FLOOR`] ask; `discard` disposes
/// of every product but the last, outside the timed span.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> io::Result<T>,
    mut discard: impl FnMut(T) -> io::Result<()>,
) -> io::Result<(T, Vec<(Instant, Instant)>)> {
    let started = Instant::now();
    let mut spans = Vec::new();
    let mut kept: Option<T> = None;
    while spans.len() < SETUPS || (started.elapsed() < SETUP_FLOOR && spans.len() < SETUPS_MOST) {
        if let Some(previous) = kept.take() {
            discard(previous)?;
        }
        let from = Instant::now();
        kept = Some(setup()?);
        spans.push((from, Instant::now()));
    }
    // invariant: the loop body ran at least SETUPS ≥ 1 times.
    Ok((kept.expect("at least one set-up ran"), spans))
}

/// Documents completed back to back, in order, with the instant the first
/// one was started.
struct Flow {
    from: Instant,
    completed: Vec<Instant>,
}

impl Flow {
    /// The flow cut into at most `most` runs of consecutive completions:
    /// (start, end, documents) of each.
    fn slices(&self, most: usize) -> Vec<(Instant, Instant, usize)> {
        let mut out = Vec::new();
        let mut from = self.from;
        for (a, b) in slices(self.completed.len(), most) {
            let to = self.completed[b - 1];
            out.push((from, to, b - a));
            from = to;
        }
        out
    }
}

/// Index ranges of at most `most` near-equal consecutive slices of `count`
/// samples.
fn slices(count: usize, most: usize) -> Vec<(usize, usize)> {
    let k = (count / SLICE_FLOOR).clamp(1, most.max(1));
    (0..k)
        .map(|i| (i * count / k, (i + 1) * count / k))
        .filter(|(a, b)| a < b)
        .collect()
}

/// The median over consecutive slices of `samples` of the `p`-th
/// percentile within the slice — or of the highest percentile a slice
/// leaves ten samples beyond, when a short run does not support `p`.
fn sliced_percentile(samples: &[f64], p: f64) -> f64 {
    let slices = slices(samples.len(), SLICES);
    let p = p.min(supported_percentile(samples.len() / slices.len().max(1)));
    median(
        slices
            .into_iter()
            .map(|(a, b)| {
                let mut slice = samples[a..b].to_vec();
                sort(&mut slice);
                percentile(&slice, p)
            })
            .collect(),
    )
}

/// Everything the readings are computed from, still in wall time.
#[derive(Default)]
struct Raw {
    setups: Vec<(Instant, Instant)>,
    /// Per-document latencies of the data pass, in order: all documents
    /// but the first after each view change, and those.
    steady: Vec<Timed>,
    after_change: Vec<Timed>,
    /// The documents `docs_per_s` covers, one flow per round.
    flows: Vec<Flow>,
    units: Vec<Unit>,
}

impl Raw {
    fn record(&mut self, deliveries: &[Delivery]) {
        for d in deliveries {
            let latency = Timed {
                at: d.sent,
                took: d.delivered,
            };
            if d.stale {
                self.after_change.push(latency);
            } else {
                self.steady.push(latency);
            }
        }
    }

    fn readings(&self, workload: &Workload, clock: &HostClock) -> Vec<Reading> {
        let seconds = |from, to| clock.between(from, to).as_secs_f64();
        let scaled = |samples: &[Timed]| -> Vec<f64> {
            samples
                .iter()
                .map(|s| micros(clock.scale(s.at, s.took)))
                .collect()
        };

        let setups: Vec<f64> = self.setups.iter().map(|&(f, t)| seconds(f, t)).collect();

        let steady = scaled(&self.steady);
        let (tail, tail_samples) = match workload.tail {
            Tail::Percentile(p) => (sliced_percentile(&steady, p), steady.len()),
            Tail::FirstAfterChange => (
                sliced_percentile(&scaled(&self.after_change), 50.0),
                self.after_change.len(),
            ),
        };

        let per_round = SLICES / self.flows.len().max(1);
        let docs_per_s = median(
            self.flows
                .iter()
                .flat_map(|flow| flow.slices(per_round))
                .map(|(from, to, n)| n as f64 / seconds(from, to))
                .collect(),
        );
        let documents: usize = self.flows.iter().map(|f| f.completed.len()).sum();

        let pairs: usize = self.units.iter().map(|u| u.pairs).sum();
        let analysing: f64 = self.units.iter().map(|u| seconds(u.from, u.to)).sum();

        let reading = |name, value, samples| Reading {
            name,
            value,
            samples,
        };
        vec![
            reading("setup_s", median(setups), self.setups.len()),
            reading("docs_per_s", docs_per_s, documents),
            reading("doc_p50_us", sliced_percentile(&steady, 50.0), steady.len()),
            reading("doc_tail_us", tail, tail_samples),
            reading("pairs_per_s", pairs as f64 / analysing, self.units.len()),
            reading("peak_rss_mib", host::peak_rss_mib(), 1),
        ]
    }
}

fn run_live(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    corrupt_delivery_at: Option<usize>,
    raw: &mut Raw,
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let ((inputs, mut rig), setups) = repeated_setup(
        || {
            let inputs = Inputs::generate(workload, seed);
            let rig = Rig::setup(&inputs)?;
            Ok((inputs, rig))
        },
        |(_, rig)| rig.shutdown().map(drop),
    )?;
    raw.setups = setups;
    rig.corrupt_delivery_at = corrupt_delivery_at;
    let mut analysis = Analysis::new(&inputs.subscriptions, &inputs.arrivals, &inputs.documents);

    for _ in 0..ROUNDS {
        if workload.publications_per_change > 0 {
            let churn = rig.mixed_loop(
                &inputs,
                workload.publications_per_change,
                share(seconds, LATENCY_SHARE + THROUGHPUT_SHARE),
            )?;
            tally.add(
                (churn.subscribes.len() + churn.unsubscribes.len()) as u64,
                0,
                "view changes acknowledged",
            );
            raw.flows.push(Flow {
                from: churn.from,
                completed: churn
                    .deliveries
                    .iter()
                    .map(|d| d.sent + d.delivered)
                    .collect(),
            });
            raw.record(&churn.deliveries);
        } else {
            raw.record(&rig.latency_pass(&inputs, share(seconds, LATENCY_SHARE))?);
            let burst = rig.throughput_pass(&inputs, share(seconds, THROUGHPUT_SHARE), None)?;
            raw.flows.push(Flow {
                from: burst.from,
                completed: burst.delivered,
            });
        }
        analysis.run(share(seconds, ANALYSIS_SHARE));
    }

    rig.overlay
        .await_consumers(rig.expected_consumers(&inputs), TIMEOUT)?;
    let stats = rig.settle()?;
    if workload.publications_per_change == 0 {
        oracle::check_counters(&mut tally, &inputs, rig.published, &stats);
    } else {
        oracle::check_links(&mut tally, &stats);
    }
    tally.add(
        rig.published as u64,
        rig.bad_deliveries,
        "publications delivered once, in order, byte-identical",
    );
    rig.shutdown()?;
    raw.units = analysis.finish(&mut tally);
    Ok(tally)
}

fn run_in_process(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    raw: &mut Raw,
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let (inputs, setups) = repeated_setup(|| Ok(Inputs::generate(workload, seed)), |_| Ok(()))?;
    raw.setups = setups;
    let mut analysis = Analysis::new(&inputs.subscriptions, &inputs.arrivals, &inputs.documents);

    for _ in 0..ROUNDS {
        let ingested = ingest_pass(&inputs, share(seconds, LATENCY_SHARE + THROUGHPUT_SHARE));
        tally.add(
            ingested.documents.len() as u64,
            ingested.rejected,
            "documents ingested",
        );
        raw.flows.push(Flow {
            from: ingested.span.0,
            completed: ingested.documents.iter().map(|d| d.at + d.took).collect(),
        });
        raw.steady.extend(ingested.documents);
        analysis.run(share(seconds, ANALYSIS_SHARE));
    }
    raw.units = analysis.finish(&mut tally);
    Ok(tally)
}

/// Run `workload` once with tracing off and report every end-to-end metric.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    run_corrupting(workload, seed, seconds, None)
}

/// [`run`], flipping a byte of the given publication's delivery on its way
/// to the check (live substrate only): the self-test's proof that a wrong
/// output fails the run.
pub fn run_corrupting(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    corrupt_delivery_at: Option<usize>,
) -> io::Result<Outcome> {
    let speedometer = Speedometer::start();
    let mut raw = Raw::default();
    let result = match workload.substrate {
        Substrate::Live => run_live(workload, seed, seconds, corrupt_delivery_at, &mut raw),
        Substrate::InProcess => run_in_process(workload, seed, seconds, &mut raw),
    };
    let clock = speedometer.finish();
    let tally = result?;
    eprintln!("host: speed {:.3} of reference", clock.speed());
    Ok(Outcome {
        tally,
        readings: raw.readings(workload, &clock),
    })
}
