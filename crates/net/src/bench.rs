//! Overlay benchmark: drive a [`ChurnScenario`] through a live
//! [`LocalOverlay`] and measure closed-loop publish latency.
//!
//! The bench spawns a real N-broker overlay, installs the scenario's
//! initial subscriptions through per-broker clients, waits for the
//! subscription flood to converge, then replays the scenario's timed
//! events in order: publications become closed-loop `publish` round-trips
//! at the producer broker (each ack latency is recorded), arrivals and
//! departures become live client operations, and — in failover mode —
//! `Fail`/`Recover` events kill and restart broker processes mid-stream.
//! After the event list drains the overlay is quiesced and shut down, and
//! the report aggregates throughput, latency percentiles and the settled
//! per-broker counters.

use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use tps_routing::{BrokerTopology, ForwardingMode, TableMode};
use tps_workload::{ChurnConfig, ChurnScenario, Dtd, ScenarioAction};

use crate::client::BrokerClient;
use crate::codec::BrokerStats;
use crate::overlay::{LocalOverlay, OverlayConfig};
use crate::transport::Transport;

/// Knobs of one `tps broker bench` run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Brokers in the overlay.
    pub brokers: usize,
    /// Fanout of the balanced-tree topology.
    pub fanout: usize,
    /// Socket family the overlay serves on.
    pub transport: Transport,
    /// Forwarding mode of every broker.
    pub forwarding: ForwardingMode,
    /// Subscriptions installed before the clock starts.
    pub subscribers: usize,
    /// Documents published (closed-loop, one at a time).
    pub publications: usize,
    /// Mid-run subscriber arrivals.
    pub arrivals: usize,
    /// Mid-run subscriber departures.
    pub departures: usize,
    /// Inject broker failures and rejoins mid-stream.
    pub failover: bool,
    /// Scenario seed.
    pub seed: u64,
    /// How long convergence barriers (consumer flood, quiescence) may
    /// take before the bench gives up.
    pub timeout: Duration,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            brokers: 3,
            fanout: 2,
            transport: Transport::Tcp,
            forwarding: ForwardingMode::Table(TableMode::Exact),
            subscribers: 12,
            publications: 100,
            arrivals: 4,
            departures: 4,
            failover: false,
            seed: 42,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Publish-latency percentiles over one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median round-trip time.
    pub p50: Duration,
    /// 95th-percentile round-trip time.
    pub p95: Duration,
    /// 99th-percentile round-trip time.
    pub p99: Duration,
    /// Slowest round trip.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarise a latency sample (empty samples summarise to zeros).
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let at = |q: f64| {
            // invariant: samples is non-empty, so the clamped index exists
            let index = ((samples.len() as f64 * q).ceil() as usize)
                .saturating_sub(1)
                .min(samples.len() - 1);
            samples[index]
        };
        Self {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: samples[samples.len() - 1],
        }
    }
}

/// The outcome of one overlay bench run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Documents published (acknowledged round trips).
    pub documents: usize,
    /// Publish round trips that failed (e.g. the producer link died).
    pub publish_errors: usize,
    /// Wall-clock time spent driving the scenario.
    pub elapsed: Duration,
    /// Acknowledged publications per second.
    pub throughput: f64,
    /// Publish-latency percentiles.
    pub latency: LatencySummary,
    /// Broker failures injected.
    pub failures: usize,
    /// Broker recoveries performed.
    pub recoveries: usize,
    /// Settled per-broker counters after quiescence.
    pub broker_stats: Vec<BrokerStats>,
    /// Whether every broker shut down cleanly at the end.
    pub clean_shutdown: bool,
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "published {} documents in {:.2?} ({:.0} docs/s, {} errors)",
            self.documents, self.elapsed, self.throughput, self.publish_errors
        )?;
        writeln!(
            f,
            "publish latency: p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?}",
            self.latency.p50, self.latency.p95, self.latency.p99, self.latency.max
        )?;
        if self.failures > 0 {
            writeln!(
                f,
                "failover: {} failures, {} recoveries",
                self.failures, self.recoveries
            )?;
        }
        let deliveries: u64 = self.broker_stats.iter().map(|s| s.deliveries).sum();
        let link_messages: u64 = self.broker_stats.iter().map(|s| s.link_messages).sum();
        let spurious: u64 = self
            .broker_stats
            .iter()
            .map(|s| s.spurious_link_messages)
            .sum();
        let dropped: u64 = self.broker_stats.iter().map(|s| s.forwards_dropped).sum();
        let rematched: u64 = self.broker_stats.iter().map(|s| s.forwards_rematched).sum();
        writeln!(
            f,
            "overlay: {} deliveries, {} link messages ({} spurious, {} dropped, {} rematched)",
            deliveries, link_messages, spurious, dropped, rematched
        )?;
        for stats in &self.broker_stats {
            writeln!(
                f,
                "  broker {}: {} consumers (view {:032x}), {} docs, {} deliveries, {} matches, \
                 {} table nodes, {} of {} forwards rematched",
                stats.broker,
                stats.consumers,
                stats.view_digest,
                stats.documents,
                stats.deliveries,
                stats.match_operations,
                stats.table_nodes,
                stats.forwards_rematched,
                stats.forwards_received
            )?;
        }
        write!(
            f,
            "shutdown: {}",
            if self.clean_shutdown {
                "clean"
            } else {
                "DIRTY"
            }
        )
    }
}

/// Generate the scenario a bench run replays (public so the CLI can print
/// its shape and tests can pin it).
pub fn bench_scenario(options: &BenchOptions) -> ChurnScenario {
    let failures = if options.failover {
        options.brokers.saturating_sub(1).min(2)
    } else {
        0
    };
    ChurnScenario::generate(
        &Dtd::media(),
        &ChurnConfig {
            brokers: options.brokers,
            initial_subscribers: options.subscribers,
            arrivals: options.arrivals,
            departures: options.departures,
            publications: options.publications,
            failures,
            seed: options.seed,
            ..ChurnConfig::default()
        },
    )
}

/// The broker churn traffic for `preferred` should enter through: the
/// broker itself while it is up, otherwise any live broker. The scenario
/// draws churn targets independently of failure windows (mirroring the
/// simulator, where subscription state is view-only), so an arrival at a
/// dead broker still has to reach the overlay's global consumer view —
/// the subscription flood carries it everywhere live, and the dead
/// broker picks it up from a donor's `SyncState` on rejoin.
fn live_entry(overlay: &LocalOverlay, preferred: usize) -> io::Result<usize> {
    if overlay.addr(preferred).is_some() {
        return Ok(preferred);
    }
    (0..overlay.broker_count())
        .find(|&b| overlay.addr(b).is_some())
        .ok_or_else(|| io::Error::other("no live broker to route churn through"))
}

/// Run the overlay bench: spawn, subscribe, replay, quiesce, shut down.
pub fn run_bench(options: &BenchOptions) -> io::Result<BenchReport> {
    let scenario = bench_scenario(options);
    let config = OverlayConfig {
        topology: BrokerTopology::balanced_tree(options.brokers, options.fanout.max(2)),
        forwarding: options.forwarding,
        ..OverlayConfig::default()
    };
    let mut overlay = LocalOverlay::spawn(config, options.transport)?;
    let remote = |e: crate::client::ClientError| io::Error::other(e.to_string());

    // Cache one client per home broker for subscription traffic; the
    // producer gets a dedicated connection at broker 0.
    let mut clients: Vec<Option<BrokerClient>> = Vec::new();
    clients.resize_with(overlay.broker_count(), || None);
    // Home broker per subscriber id, so departures go to the right broker.
    let mut home = vec![0usize; scenario.subscriber_count()];

    for (subscriber, (broker, pattern)) in scenario.initial.iter().enumerate() {
        home[subscriber] = *broker;
        if clients[*broker].is_none() {
            clients[*broker] = Some(overlay.client(*broker)?);
        }
        // invariant: the slot was just filled above
        let client = clients[*broker].as_mut().expect("client cached above");
        client
            .subscribe(subscriber as u64, *broker as u32, &pattern.to_string())
            .map_err(remote)?;
    }
    overlay.await_consumers(scenario.initial.len() as u64, options.timeout)?;

    let mut producer = overlay.client(0)?;
    let mut latencies: Vec<Duration> = Vec::with_capacity(options.publications);
    let mut publish_errors = 0usize;
    let mut failures = 0usize;
    let mut recoveries = 0usize;
    let started = Instant::now();

    for event in &scenario.events {
        match &event.action {
            ScenarioAction::Publish { document } => {
                let bytes = document.to_xml().into_bytes();
                let sent = Instant::now();
                match producer.publish(&bytes) {
                    Ok(()) => latencies.push(sent.elapsed()),
                    Err(_) => {
                        publish_errors += 1;
                        // The producer link may have died with a failed
                        // broker's connection churn; reconnect once.
                        producer = overlay.client(0)?;
                    }
                }
            }
            ScenarioAction::Subscribe {
                subscriber,
                broker,
                pattern,
            } => {
                home[*subscriber] = *broker;
                let entry = live_entry(&overlay, *broker)?;
                if clients[entry].is_none() {
                    clients[entry] = Some(overlay.client(entry)?);
                }
                // invariant: the slot was just filled above
                let client = clients[entry].as_mut().expect("client cached above");
                if client
                    .subscribe(*subscriber as u64, *broker as u32, &pattern.to_string())
                    .is_err()
                {
                    // The cached connection went down with a broker kill;
                    // retry once on a fresh one.
                    let mut fresh = overlay.client(entry)?;
                    fresh
                        .subscribe(*subscriber as u64, *broker as u32, &pattern.to_string())
                        .map_err(remote)?;
                    clients[entry] = Some(fresh);
                }
            }
            ScenarioAction::Unsubscribe { subscriber } => {
                let entry = live_entry(&overlay, home[*subscriber])?;
                if clients[entry].is_none() {
                    clients[entry] = Some(overlay.client(entry)?);
                }
                // invariant: the slot was just filled above
                let client = clients[entry].as_mut().expect("client cached above");
                if client.unsubscribe(*subscriber as u64).is_err() {
                    let mut fresh = overlay.client(entry)?;
                    fresh.unsubscribe(*subscriber as u64).map_err(remote)?;
                    clients[entry] = Some(fresh);
                }
            }
            ScenarioAction::Fail { broker } => {
                clients[*broker] = None;
                if overlay.kill(*broker) {
                    failures += 1;
                }
            }
            ScenarioAction::Recover { broker } => {
                overlay.restart(*broker)?;
                recoveries += 1;
            }
        }
    }

    let elapsed = started.elapsed();
    let broker_stats = overlay.quiesce(options.timeout)?;
    overlay.shutdown()?;

    let documents = latencies.len();
    let throughput = if elapsed.as_secs_f64() > 0.0 {
        documents as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    Ok(BenchReport {
        documents,
        publish_errors,
        elapsed,
        throughput,
        latency: LatencySummary::from_samples(latencies),
        failures,
        recoveries,
        broker_stats,
        clean_shutdown: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_orders_its_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let summary = LatencySummary::from_samples(samples);
        assert_eq!(summary.p50, Duration::from_millis(50));
        assert_eq!(summary.p95, Duration::from_millis(95));
        assert_eq!(summary.p99, Duration::from_millis(99));
        assert_eq!(summary.max, Duration::from_millis(100));
    }

    #[test]
    fn empty_samples_summarise_to_zero() {
        let summary = LatencySummary::from_samples(Vec::new());
        assert_eq!(summary.p50, Duration::ZERO);
        assert_eq!(summary.max, Duration::ZERO);
    }

    #[test]
    fn failover_scenarios_carry_failures() {
        let options = BenchOptions {
            failover: true,
            ..BenchOptions::default()
        };
        let scenario = bench_scenario(&options);
        assert!(scenario.failure_count() > 0);
        let calm = bench_scenario(&BenchOptions::default());
        assert_eq!(calm.failure_count(), 0);
    }

    #[test]
    fn a_failover_bench_run_completes_cleanly() {
        let options = BenchOptions {
            brokers: 3,
            subscribers: 6,
            publications: 20,
            arrivals: 2,
            departures: 2,
            failover: true,
            transport: Transport::Unix,
            ..BenchOptions::default()
        };
        let report = run_bench(&options).expect("failover bench run");
        assert!(report.failures >= 1, "first kill always lands");
        // Overlapping same-broker failure windows can make a restart a
        // no-op recovery, so recoveries may exceed counted failures.
        assert!(report.recoveries >= report.failures);
        assert!(report.clean_shutdown);
        assert!(report.to_string().contains("failover: "), "{report}");
    }

    #[test]
    fn a_small_bench_run_completes_cleanly() {
        let options = BenchOptions {
            brokers: 3,
            subscribers: 4,
            publications: 6,
            arrivals: 1,
            departures: 1,
            ..BenchOptions::default()
        };
        let report = run_bench(&options).expect("bench run");
        assert_eq!(report.documents, 6);
        assert_eq!(report.publish_errors, 0);
        assert!(report.clean_shutdown);
        let text = report.to_string();
        assert!(text.contains("publish latency"), "{text}");
    }
}
