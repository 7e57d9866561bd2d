//! Broker-runtime benchmarks: wire-codec throughput, what a broker pays per
//! forwarded document with and without a carried interest set, and the live
//! loopback publish→deliver round trip.
//!
//! `net_codec` times `Message::encode` / `Message::decode` over a fixture
//! mix of control and data frames (the decode path is what every broker
//! connection pays per frame). `net_core` holds a warm [`BrokerCore`] over
//! 10 000 nitf subscriptions and routes one pool of forwarded documents
//! through `forward_in` (one scan driving the match, then the hop) and
//! through `forward_matched` with the sender's digest and interest sets
//! (scan + hop); `net_core/parse` builds the tree of every document of the
//! pool, which neither path does, and `net_core/scan` runs the bare
//! `NullSink` scan the trusted path validates each document with.
//! `bench_thresholds.txt` keeps the trusted path under 4.5 times that scan.
//! `net_loopback` spawns a real two-broker TCP
//! overlay and measures the full closed loop: a producer publishes at
//! broker 0, the document crosses one overlay link, matches at broker 1
//! and is pushed back to a subscriber — one `iter` is one acknowledged
//! publish plus one received delivery, so the loop can never outrun the
//! consumer and the measurement stays backpressure-free.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tps_net::codec::SyncConsumer;
use tps_net::{
    BrokerCore, BrokerStats, FrameLimits, LocalOverlay, MatchedDocument, Message, OverlayConfig,
    Transport,
};
use tps_routing::BrokerTopology;
use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};
use tps_xml::{scan_document, NullSink, ScanLimits, XmlTree};

/// A representative frame mix: mostly data (publish / forward / deliver),
/// some control, one stats reply, and one matched forward whose documents
/// each carry ~300 interested ids (what `match_10k` puts on the wire).
fn fixture_messages() -> Vec<Message> {
    let dtd = Dtd::media();
    let mut docgen = DocumentGenerator::new(&dtd, DocGenConfig::default().with_seed(77));
    let documents: Vec<Vec<u8>> = docgen
        .generate_many(24)
        .iter()
        .map(|doc| doc.to_xml().into_bytes())
        .collect();

    let mut messages = vec![
        Message::Subscribe {
            subscriber: 1,
            broker: 0,
            pattern: "//CD/composer/last".to_string(),
        },
        Message::Unsubscribe { subscriber: 1 },
        Message::Hello { broker: 3 },
        Message::StatsReply {
            stats: BrokerStats {
                broker: 1,
                consumers: 12,
                documents: 1_000,
                deliveries: 400,
                link_messages: 900,
                ..BrokerStats::default()
            },
        },
        Message::SyncState {
            consumers: (0..16)
                .map(|i| SyncConsumer {
                    subscriber: i,
                    broker: (i % 4) as u32,
                    pattern: "//media/CD".to_string(),
                })
                .collect(),
        },
        Message::Forward {
            from: 2,
            documents: documents[..8].to_vec(),
        },
        Message::ForwardMatched {
            from: 2,
            view: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            documents: documents[8..12]
                .iter()
                .enumerate()
                .map(|(d, bytes)| MatchedDocument {
                    bytes: bytes.as_slice().into(),
                    // 300 of 10 000 ids, unevenly spaced.
                    interested: Some(
                        (0..300u64)
                            .map(|i| i * 33 + (i * i + d as u64) % 31)
                            .collect(),
                    ),
                })
                .collect(),
        },
    ];
    for (i, document) in documents.iter().enumerate() {
        messages.push(Message::Publish {
            document: document.clone(),
        });
        messages.push(Message::DeliverMatched {
            subscribers: vec![i as u64].into(),
            document: document.as_slice().into(),
        });
    }
    messages
}

fn bench_codec(c: &mut Criterion) {
    let messages = fixture_messages();
    let frames: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
    let total_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
    let limits = FrameLimits::default();

    let mut group = c.benchmark_group("net_codec");
    group.throughput(Throughput::Bytes(total_bytes));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for message in &messages {
                bytes += black_box(message.encode()).len();
            }
            bytes
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut decoded = 0usize;
            for frame in &frames {
                let message = Message::decode(frame, &limits).expect("fixture frames decode");
                decoded += usize::from(!matches!(black_box(message), Message::Ack));
            }
            decoded
        })
    });
    group.finish();
}

fn bench_core(c: &mut Criterion) {
    let dtd = Dtd::nitf_like();
    let documents: Vec<Vec<u8>> =
        DocumentGenerator::new(&dtd, DocGenConfig::default().with_seed(1_000_001))
            .generate_many(64)
            .iter()
            .map(|doc| doc.to_xml().into_bytes())
            .collect();
    let patterns = XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(2_000_003))
        .generate_many(10_000);
    // Broker 1 publishes, broker 0 relays towards broker 2: both hold the
    // same view, spread round-robin over the three brokers.
    let config = OverlayConfig::default();
    let core = |id| {
        let mut core = BrokerCore::new(id, &config);
        for (subscriber, pattern) in patterns.iter().enumerate() {
            core.restore(
                subscriber as u64,
                subscriber as u32 % 3,
                &pattern.to_string(),
            )
            .expect("generated subscriptions install");
        }
        core
    };
    let mut sender = core(1);
    let view = sender.view_digest();
    let interest: Vec<Vec<u64>> = documents
        .iter()
        .map(|bytes| {
            sender.publish(bytes).expect("generated documents route");
            sender.interest().to_vec()
        })
        .collect();
    // What the interest sets add to a frame, next to the documents.
    let on_the_wire = |carried: bool| -> usize {
        let matched = documents
            .iter()
            .zip(&interest)
            .map(|(bytes, ids)| MatchedDocument {
                bytes: bytes.as_slice().into(),
                interested: carried.then(|| ids.as_slice().into()),
            });
        matched.map(|m| m.encoded_len()).sum::<usize>() / documents.len()
    };
    println!(
        "net_core: {} ids per document, {} B per document on the wire, {} B without them",
        interest.iter().map(Vec::len).sum::<usize>() / documents.len(),
        on_the_wire(true),
        on_the_wire(false)
    );

    let mut group = c.benchmark_group("net_core");
    let texts: Vec<&str> = documents
        .iter()
        .map(|bytes| std::str::from_utf8(bytes).expect("generated documents are UTF-8"))
        .collect();
    group.bench_function("parse", |b| {
        b.iter(|| {
            for text in &texts {
                black_box(XmlTree::parse(text).expect("generated documents parse"));
            }
        })
    });
    let limits = ScanLimits::default();
    group.bench_function("scan", |b| {
        b.iter(|| {
            for bytes in &documents {
                black_box(scan_document(bytes, &limits, &mut NullSink))
                    .expect("generated documents scan");
            }
        })
    });
    let mut receiver = core(0);
    group.bench_function("forward_in/10k", |b| {
        b.iter(|| {
            for bytes in &documents {
                black_box(receiver.forward_in(1, bytes));
            }
        })
    });
    let mut receiver = core(0);
    assert_eq!(receiver.view_digest(), view);
    group.bench_function("forward_matched/10k", |b| {
        b.iter(|| {
            for (bytes, ids) in documents.iter().zip(&interest) {
                black_box(receiver.forward_matched(1, view, bytes, Some(ids)));
            }
        })
    });
    assert_eq!(receiver.stats().forwards_rematched, 0);
    group.finish();
}

fn bench_loopback(c: &mut Criterion) {
    let overlay = LocalOverlay::spawn(
        OverlayConfig {
            topology: BrokerTopology::balanced_tree(2, 2),
            ..OverlayConfig::default()
        },
        Transport::Tcp,
    )
    .expect("spawn overlay");
    let mut subscriber = overlay.client(1).expect("subscriber client");
    subscriber
        .subscribe(0, 1, "//CD")
        .expect("install subscription");
    overlay
        .await_consumers(1, Duration::from_secs(10))
        .expect("subscription flood converges");
    let mut producer = overlay.client(0).expect("producer client");
    let document =
        b"<media><CD><title>Requiem</title><composer><last>Mozart</last></composer></CD></media>";

    let mut group = c.benchmark_group("net_loopback");
    group.throughput(Throughput::Bytes(document.len() as u64));
    group.bench_function("publish_deliver", |b| {
        b.iter(|| {
            producer.publish(document).expect("publish");
            let delivery = subscriber
                .recv_delivery(Duration::from_secs(10))
                .expect("receive delivery");
            assert!(delivery.is_some(), "the document must match //CD");
        })
    });
    group.finish();

    overlay
        .quiesce(Duration::from_secs(10))
        .expect("overlay quiesces");
    overlay.shutdown().expect("clean shutdown");
}

criterion_group!(benches, bench_codec, bench_core, bench_loopback);
criterion_main!(benches);
