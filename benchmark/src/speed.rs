//! A clock that runs at the speed of the core, not of the wall.
//!
//! The hosts this benchmark runs on are virtual machines whose core clock
//! moves with their neighbours' load: on the host the first baseline was
//! taken on, the same pinned, single-threaded loop took 38.8 ms or 51 ms
//! for stretches of two to forty seconds, and every CPU-bound timing moved
//! with it (a dependent multiply-add chain by 1.33, pattern matching by
//! 1.26). Wall-clock medians of identical runs were 25 % apart.
//!
//! A [`Speedometer`] thread therefore times a fixed multiply-add chain
//! every 20 ms with its own thread's CPU clock (which does not run while
//! the thread is preempted). A [`HostClock`] turns those readings into a
//! slowdown factor per tick, relative to [`REFERENCE_PROBE`], and converts
//! any wall interval or process-CPU interval into *reference time*: the
//! time it would have taken had the probe read the reference all along.
//! Every duration the benchmark reports is reference time. `host.speed`
//! says how far that was from the wall.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::host;

/// Iterations of the probe's dependent multiply-add chain.
const PROBE_ITERATIONS: u64 = 50_000;
/// What the probe reads on the baseline host at full clock. A constant,
/// not the run's own fastest reading: a run can sit in a slow stretch from
/// start to end.
pub const REFERENCE_PROBE: Duration = Duration::from_nanos(47_800);
/// Pause between probes: 0.25 % of one core.
const TICK: Duration = Duration::from_millis(20);
/// Ticks on either side of a tick whose median smooths its reading.
const SMOOTHING: usize = 3;

fn probe() -> Duration {
    let started = host::thread_cpu_time();
    let mut x = 1u64;
    for i in 0..PROBE_ITERATIONS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(x);
    host::thread_cpu_time().saturating_sub(started)
}

struct Tick {
    at: Instant,
    probe: Duration,
    process_cpu: Duration,
}

fn tick() -> Tick {
    let probe = probe();
    Tick {
        at: Instant::now(),
        probe,
        process_cpu: host::process_cpu_time(),
    }
}

/// The sampling thread. Start it before the first timed instant and
/// [`Speedometer::finish`] it after the last.
pub struct Speedometer {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Tick>>,
}

impl Speedometer {
    /// Start sampling on a thread that inherits the caller's CPU affinity.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ticks = vec![tick()];
                // Relaxed: the flag publishes no other data.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(TICK);
                    ticks.push(tick());
                }
                ticks
            })
        };
        Self { stop, thread }
    }

    /// Stop sampling and build the clock over everything sampled.
    pub fn finish(self) -> HostClock {
        self.stop.store(true, Ordering::Relaxed);
        // invariant: the sampling loop cannot panic (arithmetic on
        // saturating durations and a sleep).
        let ticks = self.thread.join().expect("speedometer thread panicked");
        HostClock::new(&ticks)
    }
}

/// Wall and process-CPU time converted to reference time.
pub struct HostClock {
    /// Tick instants, ascending; interval `i` runs from `at[i]` to
    /// `at[i + 1]` (the first and last extend to infinity).
    at: Vec<Instant>,
    /// Slowdown of interval `i` against the reference (≥ 1 when slower).
    slowdown: Vec<f64>,
    /// Process CPU time at each tick.
    process_cpu: Vec<Duration>,
}

impl HostClock {
    fn new(ticks: &[Tick]) -> Self {
        let readings: Vec<f64> = ticks.iter().map(|t| t.probe.as_secs_f64()).collect();
        let slowdown = (0..ticks.len())
            .map(|i| {
                let lo = i.saturating_sub(SMOOTHING);
                let hi = (i + SMOOTHING + 1).min(ticks.len());
                let mut window = readings[lo..hi].to_vec();
                window.sort_unstable_by(f64::total_cmp);
                window[window.len() / 2] / REFERENCE_PROBE.as_secs_f64()
            })
            .collect();
        Self {
            at: ticks.iter().map(|t| t.at).collect(),
            slowdown,
            process_cpu: ticks.iter().map(|t| t.process_cpu).collect(),
        }
    }

    /// Index of the interval containing `instant`.
    fn interval(&self, instant: Instant) -> usize {
        self.at
            .partition_point(|&at| at <= instant)
            .saturating_sub(1)
    }

    /// Reference time between two wall instants.
    pub fn between(&self, from: Instant, to: Instant) -> Duration {
        let (first, last) = (self.interval(from), self.interval(to));
        let mut seconds = 0.0;
        for i in first..=last {
            let start = if i == first { from } else { self.at[i] };
            let end = if i == last { to } else { self.at[i + 1] };
            seconds += end.saturating_duration_since(start).as_secs_f64() / self.slowdown[i];
        }
        Duration::from_secs_f64(seconds)
    }

    /// Reference time of a short wall duration that started at `from`
    /// (one interval's factor applied; cheaper than [`HostClock::between`]
    /// for per-sample latencies).
    pub fn scale(&self, from: Instant, duration: Duration) -> Duration {
        duration.div_f64(self.slowdown[self.interval(from)])
    }

    /// Process CPU time spent between two wall instants, as reference
    /// time. CPU time is read at ticks only, so the ends are interpolated:
    /// use it over spans of many ticks.
    pub fn cpu_between(&self, from: Instant, to: Instant) -> Duration {
        let (first, last) = (self.interval(from), self.interval(to));
        let mut seconds = 0.0;
        for i in first..=last.min(self.at.len().saturating_sub(2)) {
            let width = (self.at[i + 1] - self.at[i]).as_secs_f64();
            if width <= 0.0 {
                continue;
            }
            let start = from.max(self.at[i]);
            let end = to.min(self.at[i + 1]);
            let share = end.saturating_duration_since(start).as_secs_f64() / width;
            let cpu = self.process_cpu[i + 1].saturating_sub(self.process_cpu[i]);
            seconds += cpu.as_secs_f64() * share / self.slowdown[i];
        }
        Duration::from_secs_f64(seconds)
    }

    /// Median speed of the run against the reference (1 at reference
    /// speed, below 1 when the host was slower).
    pub fn speed(&self) -> f64 {
        let mut slowdown = self.slowdown.clone();
        slowdown.sort_unstable_by(f64::total_cmp);
        1.0 / slowdown[slowdown.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(slowdown: &[f64], epoch: Instant) -> HostClock {
        HostClock {
            at: (0..slowdown.len())
                .map(|i| epoch + Duration::from_millis(10 * i as u64))
                .collect(),
            slowdown: slowdown.to_vec(),
            process_cpu: (0..slowdown.len())
                .map(|i| Duration::from_millis(8 * i as u64))
                .collect(),
        }
    }

    #[test]
    fn slow_intervals_shrink_to_reference_time() {
        let epoch = Instant::now();
        let clock = clock(&[1.0, 2.0, 1.0], epoch);
        let ms = |n| epoch + Duration::from_millis(n);
        // 5 ms at full speed, 10 ms at half speed, 5 ms at full speed.
        assert_eq!(clock.between(ms(5), ms(25)), Duration::from_millis(15));
        assert_eq!(clock.between(ms(12), ms(14)), Duration::from_millis(1));
        assert_eq!(
            clock.scale(ms(12), Duration::from_millis(2)),
            Duration::from_millis(1)
        );
        // Before the first and after the last tick the end factors apply.
        assert_eq!(clock.between(ms(20), ms(40)), Duration::from_millis(20));
        // 8 ms of CPU per 10 ms tick; the middle tick counts half.
        assert_eq!(clock.cpu_between(ms(0), ms(20)), Duration::from_millis(12));
        assert_eq!(clock.speed(), 1.0);
    }

    #[test]
    fn a_running_speedometer_yields_a_usable_clock() {
        let speedometer = Speedometer::start();
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(70));
        let to = Instant::now();
        let clock = speedometer.finish();
        assert!(clock.at.len() >= 3);
        assert!(clock.speed() > 0.05 && clock.speed() < 20.0);
        assert!(clock.between(from, to) > Duration::ZERO);
    }
}
