//! One run of one workload with tracing on: every per-layer metric, each
//! the timing or count of calls into one crate's public functions, made
//! from here on the workload's own inputs.
//!
//! The run has a live section (the workload's subscriptions and documents
//! through a real overlay, whatever substrate the end-to-end run uses) and
//! an in-process replay of the same inputs, one span per layer call. Spans
//! go to `benchmark/out/trace-<workload>.jsonl` (relative to the directory
//! the benchmark is started from: the root of the checkout).

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use tps_analyze::{WorkloadAnalyzer, WorkloadEntry};
use tps_cluster::{
    agglomerative, AgglomerativeConfig, CandidateIndex, LeaderConfig, LshConfig, OnlineLeader,
    SimilarityMatrix,
};
use tps_core::{build_par, ExactEvaluator, ProximityMetric, SimilarityEngine};
use tps_net::{BrokerCore, FrameLimits, Message, OverlayConfig};
use tps_pattern::TreePattern;
use tps_routing::{BrokerTopology, ForwardingMode, TableMode};
use tps_sim::{ReclusterPolicy, SimConfig, Simulation};
use tps_synopsis::{PruneConfig, Synopsis, SynopsisConfig};
use tps_workload::{ChurnConfig, ChurnScenario};
use tps_xml::stream::cloned_trees;
use tps_xml::{scan_document, NullSink, ScanLimits, XmlTree};

use crate::analysis::{synopsis_of, MAX_PATTERNS, SYNOPSIS_DOCUMENTS};
use crate::host;
use crate::inputs::{Inputs, Workload};
use crate::live::{
    Burst, Churn, Delivery, Rig, BROKERS, PROBE_BROKER, PROBE_ID, PRODUCER_BROKER, TIMEOUT,
};
use crate::metrics::{self, Reading, PER_LAYER};
use crate::oracle::{self, Tally};
use crate::run::Outcome;
use crate::speed::{HostClock, Speedometer};
use crate::stats::{median, micros, percentile, sort};
use crate::trace::Tracer;

/// Documents the in-process replay pushes through each per-document call.
const REPLAY_DOCUMENTS: usize = 32;
/// Subscriptions the replay adds and removes to time a view change.
const REPLAY_CHANGES: usize = 64;
/// Thread hand-offs between a publish and its `Ack`.
const ACK_HANDOFFS: f64 = 4.0;
/// Thread hand-offs between a publish and its delivery two links away.
const DELIVERY_HANDOFFS: f64 = 10.0;

/// How a timed span becomes a metric value.
#[derive(Clone, Copy)]
enum Kind {
    /// Reference time of the span, in the metric's unit, per unit of work.
    Time,
    /// Units of work per reference second.
    Rate,
}

struct Entry {
    name: &'static str,
    span: usize,
    units: f64,
    kind: Kind,
}

/// Spans and counts gathered during the run; turned into readings once
/// the host clock is known.
struct Collector {
    tracer: Tracer,
    timed: Vec<Entry>,
    counted: Vec<(&'static str, f64)>,
}

impl Collector {
    /// Time `call` as one span standing for `units` units of work.
    fn time<T>(&mut self, name: &'static str, units: usize, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = call();
        self.timed(name, started, started.elapsed(), units);
        value
    }

    /// A span timed elsewhere, standing for `units` units of work.
    fn timed(&mut self, name: &'static str, from: Instant, took: Duration, units: usize) {
        self.entry(name, from, took, units as f64, Kind::Time, None, 0);
    }

    /// A span timed elsewhere, reported as `units` per second.
    fn rate(&mut self, name: &'static str, from: Instant, took: Duration, units: f64) {
        self.entry(name, from, took, units, Kind::Rate, None, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn entry(
        &mut self,
        name: &'static str,
        from: Instant,
        took: Duration,
        units: f64,
        kind: Kind,
        parent: Option<usize>,
        doc: u64,
    ) {
        let span = self.tracer.record(name, from, from + took, parent, doc);
        self.timed.push(Entry {
            name,
            span,
            units: if units > 0.0 { units } else { 1.0 },
            kind,
        });
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counted.push((name, value));
    }

    /// The median over a name's spans (several when a call was repeated),
    /// in the catalog unit of the name.
    fn value(&self, name: &str, clock: &HostClock) -> Option<(f64, usize)> {
        if let Some(&(_, value)) = self.counted.iter().find(|(n, _)| *n == name) {
            return Some((value, 1));
        }
        let unit = metrics::find(name)?.unit;
        let per_second = match unit.split('/').next()? {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            _ => 1.0,
        };
        let values: Vec<f64> = self
            .timed
            .iter()
            .filter(|e| e.name == name)
            .map(|e| {
                let span = &self.tracer.spans()[e.span];
                let seconds = clock.between(span.start, span.end).as_secs_f64();
                match e.kind {
                    Kind::Time => seconds * per_second / e.units,
                    Kind::Rate => e.units / seconds,
                }
            })
            .collect();
        let samples = values.len();
        (samples > 0).then(|| (median(values), samples))
    }
}

fn share(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// Median publish → deliver and publish → ack of a latency pass, in
/// reference microseconds, ascending deliver latencies included.
fn latencies(deliveries: &[Delivery], clock: &HostClock) -> (Vec<f64>, f64) {
    let mut delivered: Vec<f64> = deliveries
        .iter()
        .map(|d| micros(clock.scale(d.sent, d.delivered)))
        .collect();
    sort(&mut delivered);
    let acked = median(
        deliveries
            .iter()
            .map(|d| micros(clock.scale(d.sent, d.acked)))
            .collect(),
    );
    (delivered, acked)
}

/// What the live section keeps for after the clock is known.
struct Live {
    untraced: Burst,
    traced: Burst,
    latency: Vec<Delivery>,
    control: Churn,
}

fn live_section(
    inputs: &Inputs,
    seconds: f64,
    c: &mut Collector,
    tally: &mut Tally,
) -> io::Result<Live> {
    let installed = Instant::now();
    let mut rig = Rig::setup(inputs)?;
    // The three phases of set-up follow each other.
    c.timed("net.overlay.spawn_ms", installed, rig.spawn, 1);
    c.rate(
        "net.overlay.install_subs_per_s",
        installed + rig.spawn,
        rig.install,
        inputs.subscriptions.len() as f64,
    );
    c.timed(
        "net.overlay.converge_ms",
        installed + rig.spawn + rig.install,
        rig.converge,
        1,
    );

    let untraced = rig.throughput_pass(inputs, share(seconds, 0.10), None)?;
    let traced = rig.throughput_pass(inputs, share(seconds, 0.10), Some(&mut c.tracer))?;

    let switches = host::context_switches();
    let latency = rig.latency_pass(inputs, share(seconds, 0.20))?;
    let switched = host::context_switches().saturating_sub(switches);
    c.count(
        "net.server.ctx_switches_per_doc",
        switched as f64 / latency.len() as f64,
    );
    for d in &latency {
        let root = c
            .tracer
            .record("doc", d.sent, d.sent + d.delivered, None, d.doc);
        c.tracer.record(
            "client.publish",
            d.sent,
            d.sent + d.acked,
            Some(root),
            d.doc,
        );
        c.tracer.record(
            "client.deliver_wait",
            d.sent + d.acked,
            d.sent + d.delivered,
            Some(root),
            d.doc,
        );
    }

    let stats = rig.settle()?;
    let documents = rig.published as f64;
    let [deliveries, link_messages, spurious, match_operations] = oracle::summed_counters(&stats);
    c.count(
        "pattern.match_ops_per_doc",
        match_operations as f64 / documents,
    );
    c.count(
        "pattern.match_hit_share",
        deliveries as f64 / (match_operations as f64).max(1.0),
    );
    c.count(
        "routing.link_messages_per_doc",
        link_messages as f64 / documents,
    );
    c.count(
        "routing.spurious_share",
        spurious as f64 / (link_messages as f64).max(1.0),
    );
    c.count(
        "net.server.forwards_dropped",
        stats.iter().map(|s| s.forwards_dropped).sum::<u64>() as f64,
    );
    c.count(
        "net.server.table_rebuilds",
        stats.iter().map(|s| s.table_rebuilds).sum::<u64>() as f64,
    );
    oracle::check_links(tally, &stats);

    // The control path: one arrival and one departure per cycle, nothing
    // published.
    let control = rig.mixed_loop(inputs, 0, share(seconds, 0.10))?;
    rig.overlay
        .await_consumers(rig.expected_consumers(inputs), TIMEOUT)?;

    // Kill the root of the tree and let it pull the view back from a
    // neighbour; a publication afterwards proves the overlay recovered.
    c.time("net.overlay.resync_ms", 1, || {
        rig.overlay.kill(0);
        rig.overlay.restart(0)
    })?;
    rig.publish_and_await(inputs, false)?;

    tally.add(
        rig.published as u64,
        rig.bad_deliveries,
        "publications delivered once, in order, byte-identical",
    );
    c.time("net.overlay.shutdown_ms", 1, || rig.shutdown())?;
    Ok(Live {
        untraced,
        traced,
        latency,
        control,
    })
}

fn xml_layer(inputs: &Inputs, c: &mut Collector) {
    let bytes: usize = inputs.documents.iter().map(Vec::len).sum();
    c.count("xml.doc_bytes", inputs.mean_document_bytes());
    c.time("xml.scan_ns_per_byte", bytes, || {
        for document in &inputs.documents {
            // invariant: generated documents are well-formed.
            scan_document(document, &ScanLimits::default(), &mut NullSink)
                .expect("generated documents scan");
        }
    });
    c.time("xml.parse_us_per_doc", inputs.documents.len(), || {
        for document in &inputs.documents {
            let text = std::str::from_utf8(document).expect("generated documents are UTF-8");
            std::hint::black_box(XmlTree::parse(text).expect("generated documents parse"));
        }
    });
}

fn pattern_layer(inputs: &Inputs, c: &mut Collector) {
    let texts: Vec<String> = inputs.subscriptions.iter().map(|p| p.to_string()).collect();
    c.time("pattern.parse_us", texts.len(), || {
        for text in &texts {
            std::hint::black_box(TreePattern::parse(text).expect("generated patterns parse"));
        }
    });
    let documents = &inputs.trees[..inputs.trees.len().min(REPLAY_DOCUMENTS)];
    c.time(
        "pattern.match_ns",
        documents.len() * inputs.subscriptions.len(),
        || {
            let mut hits = 0usize;
            for document in documents {
                for pattern in &inputs.subscriptions {
                    hits += usize::from(pattern.matches(document));
                }
            }
            std::hint::black_box(hits);
        },
    );
}

fn synopsis_layer(inputs: &Inputs, c: &mut Collector) -> Synopsis {
    let ingested = &inputs.documents[..inputs.documents.len().min(SYNOPSIS_DOCUMENTS)];
    let bytes: usize = ingested.iter().map(Vec::len).sum();
    let started = Instant::now();
    let synopsis = synopsis_of(ingested);
    let took = started.elapsed();
    c.timed("synopsis.ingest_us_per_doc", started, took, ingested.len());
    c.rate(
        "synopsis.ingest_mib_per_s",
        started,
        took,
        bytes as f64 / (1024.0 * 1024.0),
    );
    c.count("synopsis.nodes", synopsis.node_count() as f64);
    let mut pruned = synopsis.clone();
    let report = c.time("synopsis.prune_ms", 1, || {
        pruned.prune_to_ratio(0.5, PruneConfig::default())
    });
    c.count("synopsis.prune_size_ratio", report.ratio());
    synopsis
}

/// `core`, `cluster` and `analyze` on the first [`MAX_PATTERNS`] subscriptions; the
/// parallel entry points run with the affinity widened to `cpus`.
fn analysis_layers(
    inputs: &Inputs,
    synopsis: &Synopsis,
    cpus: &[usize],
    pinned: Option<usize>,
    c: &mut Collector,
) {
    let patterns = &inputs.subscriptions[..inputs.subscriptions.len().min(MAX_PATTERNS)];
    let n = patterns.len();
    let pairs = (n * n.saturating_sub(1) / 2).max(1);

    let mut engine = SimilarityEngine::from_synopsis(synopsis.clone());
    let ids = c.time("core.register_us", n, || engine.register_all(patterns));
    c.time("core.warm_ms", 1, || engine.prepare());
    let estimated = c.time("core.selectivity_ms_per_pattern", n, || {
        engine.selectivities(&ids)
    });
    let sequential = Instant::now();
    let matrix = c.time("core.joint_us_per_pair", pairs, || {
        engine.similarity_matrix(&ids, ProximityMetric::M3)
    });
    let sequential = sequential.elapsed();
    let cache = engine.cache_stats();
    let lookups =
        cache.marginal_hits + cache.marginal_misses + cache.joint_hits + cache.joint_misses;
    c.count(
        "core.cache_hit_share",
        (cache.marginal_hits + cache.joint_hits) as f64 / (lookups as f64).max(1.0),
    );

    // The paper's Erel on this workload: mean relative selectivity error
    // against exact evaluation, over patterns some document matches.
    let seen = inputs.trees.len().min(SYNOPSIS_DOCUMENTS);
    let exact = ExactEvaluator::new(inputs.trees[..seen].to_vec());
    let errors: Vec<f64> = patterns
        .iter()
        .zip(&estimated)
        .filter_map(|(pattern, estimate)| {
            let truth = exact.selectivity(pattern);
            (truth > 0.0).then(|| (estimate - truth).abs() / truth)
        })
        .collect();
    c.count(
        "core.sel_erel",
        errors.iter().sum::<f64>() / (errors.len() as f64).max(1.0),
    );

    // Parallel paths against their sequential twins, on every CPU the
    // process may use: with one CPU the ratio says what the fan-out costs.
    let workers = cpus.len().max(1);
    host::set_affinity(cpus);
    let mut cold = SimilarityEngine::from_synopsis(synopsis.clone());
    let cold_ids = cold.register_all(patterns);
    cold.prepare();
    cold.selectivities(&cold_ids);
    let started = Instant::now();
    std::hint::black_box(cold.similarity_matrix_par(&cold_ids, ProximityMetric::M3, workers));
    let parallel = started.elapsed();
    let config = SynopsisConfig::hashes(256);
    let started = Instant::now();
    let one = build_par(config, cloned_trees(&inputs.trees), 1);
    let built_one = started.elapsed();
    let started = Instant::now();
    let many = build_par(config, cloned_trees(&inputs.trees), workers);
    let built_many = started.elapsed();
    if let Some(cpu) = pinned {
        host::set_affinity(&[cpu]);
    }
    std::hint::black_box((one.is_ok(), many.is_ok()));
    c.count(
        "core.matrix_par_speedup",
        sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9),
    );
    c.count(
        "core.build_par_speedup",
        built_one.as_secs_f64() / built_many.as_secs_f64().max(1e-9),
    );

    let mut index = CandidateIndex::new(LshConfig::default());
    c.time("core.index_insert_us", n, || {
        for pattern in patterns {
            index.insert(pattern);
        }
    });
    let candidates = index.candidate_pairs();
    c.count(
        "core.index_candidate_share",
        candidates.len() as f64 / pairs as f64,
    );
    let mut similar = 0usize;
    let mut surfaced = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            // Two patterns nothing matches are trivially "similar".
            if estimated[i] > 0.0 && estimated[j] > 0.0 && matrix.get(i, j) >= 0.5 {
                similar += 1;
                surfaced += usize::from(candidates.binary_search(&(i as u32, j as u32)).is_ok());
            }
        }
    }
    c.count(
        "core.index_recall",
        if similar == 0 {
            1.0
        } else {
            surfaced as f64 / similar as f64
        },
    );

    let matrix: SimilarityMatrix = matrix.into();
    c.time("cluster.agglomerative_ms", 1, || {
        std::hint::black_box(agglomerative(&matrix, AgglomerativeConfig::default()))
    });
    let mut leader = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
    let standing = &inputs.subscriptions;
    let slots = c.time("cluster.leader_insert_us", standing.len(), || {
        standing
            .iter()
            .map(|pattern| leader.insert_estimated(pattern))
            .collect::<Vec<u32>>()
    });
    c.count("cluster.clusters", leader.cluster_count() as f64);
    let removed = &slots[..slots.len().min(MAX_PATTERNS)];
    c.time("cluster.leader_remove_us", removed.len(), || {
        for &slot in removed {
            leader.remove_estimated(slot);
        }
    });

    let entries: Vec<WorkloadEntry> = patterns.iter().map(WorkloadEntry::from_pattern).collect();
    c.time("analyze.workload_ms", 1, || {
        std::hint::black_box(WorkloadAnalyzer::new(None).analyze(&entries))
    });
}

fn routing_layer(inputs: &Inputs, c: &mut Collector) {
    let network = oracle::static_network(inputs);
    let tables = c.time("routing.table_build_ms", 1, || {
        network.build_tables(TableMode::Exact)
    });
    let table = &tables[PRODUCER_BROKER];
    c.count("routing.table_nodes", table.node_count() as f64);
    let documents = &inputs.trees[..inputs.trees.len().min(REPLAY_DOCUMENTS)];
    let cost = c.time("routing.forward_links_us_per_doc", documents.len(), || {
        documents
            .iter()
            .map(|document| table.forward_links(document).1)
            .sum::<usize>()
    });
    c.count(
        "routing.lookup_cost_per_doc",
        cost as f64 / documents.len() as f64,
    );
    // route_stream builds its tables on every call: time two stream
    // lengths and keep what the extra documents cost.
    let mode = ForwardingMode::Table(TableMode::Exact);
    let half = &documents[..documents.len() / 2];
    let started = Instant::now();
    std::hint::black_box(network.route_stream(PRODUCER_BROKER, half, mode));
    let short = started.elapsed();
    let started = Instant::now();
    std::hint::black_box(network.route_stream(PRODUCER_BROKER, documents, mode));
    let long = started.elapsed();
    c.timed(
        "routing.route_stream_us_per_doc",
        started,
        long.saturating_sub(short),
        documents.len() - half.len(),
    );
}

fn sim_layer(workload: &Workload, seed: u64, c: &mut Collector) {
    let dtd = workload.schema.dtd();
    // The shape of churn_2k, at a tenth: one arrival and one departure per
    // 8 publications over a standing view.
    let scenario = ChurnScenario::generate(
        &dtd,
        &ChurnConfig {
            brokers: BROKERS,
            initial_subscribers: workload.subscriptions.min(200),
            arrivals: 20,
            departures: 20,
            publications: 160,
            seed,
            ..ChurnConfig::default()
        },
    );
    let events = scenario.events.len();
    let simulation = Simulation::new(
        BrokerTopology::balanced_tree(BROKERS, 2),
        SimConfig {
            producer: PRODUCER_BROKER,
            recluster: ReclusterPolicy::Never,
            ..SimConfig::default()
        },
    );
    c.time("sim.us_per_event", events, || {
        std::hint::black_box(simulation.run(&scenario))
    });
}

fn codec_layer(inputs: &Inputs, c: &mut Collector) {
    // The frames one document travels in on the path 1 → 0 → 2.
    let messages: Vec<Message> = inputs
        .documents
        .iter()
        .flat_map(|document| {
            [
                Message::Publish {
                    document: document.clone(),
                },
                Message::Forward {
                    from: PRODUCER_BROKER as u32,
                    documents: vec![document.clone()],
                },
                Message::Deliver {
                    subscriber: PROBE_ID,
                    document: document.clone(),
                },
            ]
        })
        .collect();
    let frames: Vec<Vec<u8>> = c.time(
        "net.codec.encode_ns_per_byte",
        messages.iter().map(|m| m.encode().len()).sum(),
        || messages.iter().map(Message::encode).collect(),
    );
    let limits = FrameLimits::default();
    c.time(
        "net.codec.decode_ns_per_byte",
        frames.iter().map(Vec::len).sum(),
        || {
            for frame in &frames {
                std::hint::black_box(Message::decode(frame, &limits).expect("own frames decode"));
            }
        },
    );
}

/// A hand-cranked mesh of three `BrokerCore`s holding the workload's view:
/// the brokers' work on the path 1 → 0 → 2 with no thread and no socket.
fn broker_layer(inputs: &Inputs, c: &mut Collector) {
    let config = OverlayConfig::default();
    let mut cores: Vec<BrokerCore> = (0..BROKERS)
        .map(|id| BrokerCore::new(id, &config))
        .collect();
    for core in &mut cores {
        core.subscribe(PROBE_ID, PROBE_BROKER as u32, &inputs.probe)
            .expect("the probe installs");
        for (i, pattern) in inputs.subscriptions.iter().enumerate() {
            core.subscribe(i as u64 + 1, (i % BROKERS) as u32, &pattern.to_string())
                .expect("generated subscriptions install");
        }
    }
    let documents = &inputs.documents[..inputs.documents.len().min(REPLAY_DOCUMENTS)];
    // One document through the mesh: a root span with one child per broker
    // call. `publish` and `forward_in` name the children (and the metrics
    // they feed), or leave a warm-up document unnamed.
    let crank = |c: &mut Collector,
                 cores: &mut [BrokerCore],
                 document: &[u8],
                 doc: u64,
                 publish: &'static str,
                 forward_in: &'static str| {
        let started = Instant::now();
        let root = c.tracer.record("replay.doc", started, started, None, doc);
        let published = cores[PRODUCER_BROKER]
            .publish(document)
            .expect("generated documents route");
        let took = started.elapsed();
        c.entry(publish, started, took, 1.0, Kind::Time, Some(root), doc);
        let mut pending: Vec<(usize, usize)> = published
            .forwards
            .iter()
            .map(|&to| (PRODUCER_BROKER, to))
            .collect();
        while let Some((from, at)) = pending.pop() {
            let started = Instant::now();
            let outcome = cores[at].forward_in(from, document);
            let took = started.elapsed();
            c.entry(forward_in, started, took, 1.0, Kind::Time, Some(root), doc);
            if let Some(outcome) = outcome {
                pending.extend(outcome.forwards.iter().map(|&to| (at, to)));
            }
        }
        c.tracer.close(root, Instant::now());
    };
    // The first document builds every table; it is not a steady sample.
    crank(
        c,
        &mut cores,
        &documents[0],
        0,
        "replay.warmup",
        "replay.warmup",
    );
    for (i, document) in documents.iter().enumerate() {
        crank(
            c,
            &mut cores,
            document,
            i as u64 + 1,
            "net.broker.publish_us",
            "net.broker.forward_in_us",
        );
    }

    // View changes at the standing view, and what the first publication
    // after one pays on top of a steady one.
    let changes = inputs.arrivals.len().min(REPLAY_CHANGES);
    for (i, pattern) in inputs.arrivals[..changes].iter().enumerate() {
        let id = (1u64 << 40) + i as u64;
        let text = pattern.to_string();
        c.time("net.broker.subscribe_us", 1, || {
            cores[PRODUCER_BROKER]
                .subscribe(id, PRODUCER_BROKER as u32, &text)
                .expect("generated subscriptions install")
        });
        if i < 4 {
            let document = &documents[i % documents.len()];
            let stale = Instant::now();
            cores[PRODUCER_BROKER]
                .publish(document)
                .expect("generated documents route");
            let stale = stale.elapsed();
            let steady = Instant::now();
            cores[PRODUCER_BROKER]
                .publish(document)
                .expect("generated documents route");
            let steady_took = steady.elapsed();
            c.timed(
                "net.broker.rebuild_ms",
                steady,
                stale.saturating_sub(steady_took),
                1,
            );
        }
        c.time("net.broker.unsubscribe_us", 1, || {
            cores[PRODUCER_BROKER].unsubscribe(id)
        });
    }
}

/// Readings that combine several measurements, once each is known.
fn derived(inputs: &Inputs, live: &Live, c: &mut Collector, clock: &HostClock) {
    let get = |c: &Collector, name: &str| c.value(name, clock).map_or(f64::NAN, |(v, _)| v);

    let end = |burst: &Burst| burst.delivered.last().copied().unwrap_or(burst.from);
    let rate = |burst: &Burst| {
        burst.delivered.len() as f64 / clock.between(burst.from, end(burst)).as_secs_f64()
    };
    c.count(
        "net.server.cpu_us_per_doc",
        micros(clock.cpu_between(live.untraced.from, end(&live.untraced)))
            / live.untraced.delivered.len() as f64,
    );
    c.count(
        "trace.overhead_share",
        1.0 - rate(&live.traced) / rate(&live.untraced),
    );
    c.count("trace.spans", c.tracer.spans().len() as f64);

    let (delivered, ack) = latencies(&live.latency, clock);
    let deliver = percentile(&delivered, 50.0);
    c.count("net.client.deliver_p50_us", deliver);
    c.count("net.client.deliver_p99_us", percentile(&delivered, 99.0));
    c.count("net.client.ack_p50_us", ack);
    c.count(
        "net.client.subscribe_p50_us",
        median(
            live.control
                .subscribes
                .iter()
                .map(|s| micros(clock.scale(s.at, s.took)))
                .collect(),
        ),
    );
    let changes = live.control.subscribes.len() + live.control.unsubscribes.len();
    c.count(
        "net.overlay.view_changes_per_s",
        changes as f64
            / clock
                .between(live.control.from, live.control.to)
                .as_secs_f64(),
    );

    // The brokers' own work on the path 1 → 0 → 2, and what is left of the
    // delivery once it is taken out: two links' worth of threads and sockets.
    let publish = get(c, "net.broker.publish_us");
    let on_path = publish + (BROKERS - 1) as f64 * get(c, "net.broker.forward_in_us");
    c.count(
        "net.server.transit_us_per_hop",
        (deliver - on_path) / (BROKERS - 1) as f64,
    );
    let codec = inputs.mean_document_bytes()
        * (get(c, "net.codec.encode_ns_per_byte") + get(c, "net.codec.decode_ns_per_byte"))
        / 1e3;
    let ack_overhead = ack - publish - codec;
    c.count("net.server.ack_overhead_us", ack_overhead);

    // The ledger. An acknowledgement crosses four thread hand-offs (client
    // → reader → service → writer → client), a two-link delivery ten. If a
    // hand-off costs the same everywhere and the brokers work as they do in
    // process, the delivery is predicted from the other rows; the residual
    // is printed, not hidden.
    let predicted = on_path + ack_overhead * DELIVERY_HANDOFFS / ACK_HANDOFFS;
    c.count("ledger.predicted_us", predicted);
    c.count("ledger.residual_share", (deliver - predicted) / deliver);

    // What `publish` does besides the calls timed on their own: ingest,
    // parse, the local consumers' matches and the link lookup.
    let local = inputs.subscriptions.len().div_ceil(BROKERS) as f64;
    let named = get(c, "synopsis.ingest_us_per_doc")
        + get(c, "xml.parse_us_per_doc")
        + local * get(c, "pattern.match_ns") / 1e3
        + get(c, "routing.forward_links_us_per_doc");
    c.count("net.broker.route_self_us", publish - named);
}

/// Run `workload` once with tracing on and report every per-layer metric.
/// `cpus` are the CPUs the process could use before it was pinned to
/// `pinned`; the parallel entry points are measured on all of them. The
/// spans go to `trace-<workload>.jsonl` in `out`.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    cpus: &[usize],
    pinned: Option<usize>,
    out: &Path,
) -> io::Result<Outcome> {
    let speedometer = Speedometer::start();
    let mut c = Collector {
        tracer: Tracer::new(),
        timed: Vec::new(),
        counted: Vec::new(),
    };
    let mut tally = Tally::default();
    c.count("host.nproc", cpus.len() as f64);
    c.count("host.pinned", f64::from(u8::from(pinned.is_some())));
    c.count("host.pinned_cpu", pinned.map_or(-1.0, |cpu| cpu as f64));

    let inputs = Inputs::generate(workload, seed);
    let live = live_section(&inputs, seconds, &mut c, &mut tally);
    let live = match live {
        Ok(live) => live,
        Err(e) => {
            speedometer.finish();
            return Err(e);
        }
    };
    xml_layer(&inputs, &mut c);
    pattern_layer(&inputs, &mut c);
    let synopsis = synopsis_layer(&inputs, &mut c);
    analysis_layers(&inputs, &synopsis, cpus, pinned, &mut c);
    routing_layer(&inputs, &mut c);
    sim_layer(workload, seed, &mut c);
    codec_layer(&inputs, &mut c);
    broker_layer(&inputs, &mut c);

    let clock = speedometer.finish();
    c.count("host.speed", clock.speed());
    derived(&inputs, &live, &mut c, &clock);

    let mut readings = Vec::with_capacity(PER_LAYER.len());
    for metric in PER_LAYER.iter().filter(|m| !m.name.starts_with("oracle.")) {
        let (value, samples) = c.value(metric.name, &clock).unwrap_or((f64::NAN, 0));
        tally.check(
            value.is_finite(),
            &format!("per-layer metric {} was measured", metric.name),
        );
        readings.push(Reading {
            name: metric.name,
            value,
            samples,
        });
    }
    readings.push(Reading {
        name: "oracle.attempted",
        value: tally.attempted as f64,
        samples: 1,
    });
    readings.push(Reading {
        name: "oracle.failed_share",
        value: tally.failed as f64 / tally.attempted as f64,
        samples: 1,
    });
    let path = out.join(format!("trace-{}.jsonl", workload.name));
    c.tracer.write_jsonl(&path)?;
    eprintln!(
        "trace: {} spans in {}",
        c.tracer.spans().len(),
        path.display()
    );
    Ok(Outcome { tally, readings })
}
