//! Loopback integration tests: real sockets, real threads, both
//! transports.
//!
//! Every scenario runs twice — once over TCP on `127.0.0.1`, once over a
//! Unix domain socket — through the same helper, so the two transports
//! are held to identical behaviour.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use tps_net::client::DELIVERY_BACKLOG;
use tps_net::codec::{read_frame, write_frame};
use tps_net::transport::Stream;
use tps_net::{
    BrokerStats, ErrorCode, FrameLimits, LocalOverlay, Message, OverlayConfig, Transport,
};
use tps_routing::BrokerTopology;

const TIMEOUT: Duration = Duration::from_secs(20);

fn spawn(transport: Transport) -> LocalOverlay {
    LocalOverlay::spawn(OverlayConfig::default(), transport).expect("spawn overlay")
}

fn total(stats: &[BrokerStats], f: impl Fn(&BrokerStats) -> u64) -> u64 {
    stats.iter().map(f).sum()
}

/// Subscribe at two leaf brokers, publish at the root, and watch the
/// document forward across real links and come back as a delivery push.
fn subscribe_publish_forward_deliver(transport: Transport) {
    let overlay = spawn(transport);
    let mut cd_fan = overlay.client(1).expect("client 1");
    cd_fan.subscribe(0, 1, "//CD").expect("subscribe //CD");
    let mut book_fan = overlay.client(2).expect("client 2");
    book_fan
        .subscribe(1, 2, "//book")
        .expect("subscribe //book");
    overlay
        .await_consumers(2, TIMEOUT)
        .expect("flood converges");

    let mut producer = overlay.client(0).expect("client 0");
    producer
        .publish(b"<media><CD><title>Requiem</title></CD></media>")
        .expect("publish");

    let delivery = cd_fan
        .recv_delivery(TIMEOUT)
        .expect("recv")
        .expect("a delivery push arrives");
    assert_eq!(delivery.0, 0, "pushed to the CD subscriber");
    let text = String::from_utf8(delivery.1).expect("utf-8 document");
    assert!(text.contains("Requiem"), "{text}");
    assert_eq!(
        book_fan
            .recv_delivery(Duration::from_millis(200))
            .expect("recv"),
        None,
        "the book subscriber is not interested"
    );

    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(total(&stats, |s| s.documents), 1);
    assert_eq!(total(&stats, |s| s.deliveries), 1);
    assert_eq!(
        total(&stats, |s| s.link_messages),
        1,
        "the exact table forwards only towards broker 1"
    );
    assert_eq!(total(&stats, |s| s.forwards_dropped), 0);
    // At zero churn on a converged overlay every forward is routed on the
    // interest set it carries.
    assert_eq!(total(&stats, |s| s.forwards_received), 1);
    assert_eq!(total(&stats, |s| s.forwards_rematched), 0);
    assert_ne!(stats[0].view_digest, 0);
    assert!(stats.iter().all(|s| s.view_digest == stats[0].view_digest));
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_subscribe_publish_forward_deliver() {
    subscribe_publish_forward_deliver(Transport::Tcp);
}

#[test]
fn unix_subscribe_publish_forward_deliver() {
    subscribe_publish_forward_deliver(Transport::Unix);
}

/// Unsubscribe stops both delivery pushes and (after the table rebuild)
/// inter-broker forwards.
fn unsubscribe_stops_traffic(transport: Transport) {
    let overlay = spawn(transport);
    let mut fan = overlay.client(1).expect("client 1");
    fan.subscribe(0, 1, "//CD").expect("subscribe");
    overlay
        .await_consumers(1, TIMEOUT)
        .expect("flood converges");
    fan.unsubscribe(0).expect("unsubscribe");
    fan.unsubscribe(0).expect("unsubscribe is idempotent");
    overlay
        .await_consumers(0, TIMEOUT)
        .expect("flood converges");

    let mut producer = overlay.client(0).expect("client 0");
    producer.publish(b"<media><CD/></media>").expect("publish");
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(total(&stats, |s| s.deliveries), 0);
    assert_eq!(total(&stats, |s| s.link_messages), 0);
    assert_eq!(
        fan.recv_delivery(Duration::from_millis(200)).expect("recv"),
        None
    );
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_unsubscribe_stops_traffic() {
    unsubscribe_stops_traffic(Transport::Tcp);
}

#[test]
fn unix_unsubscribe_stops_traffic() {
    unsubscribe_stops_traffic(Transport::Unix);
}

/// Regression: control frames used to be flooded back over the link they
/// arrived on. A `Subscribe` echo landing at the home broker after the
/// matching `Unsubscribe` re-installed the departed subscriber there, and
/// the views diverged for good.
fn immediate_unsubscribe_leaves_no_ghost_subscriber(transport: Transport) {
    let overlay = spawn(transport);
    let mut standing = overlay.client(1).expect("client 1");
    standing.subscribe(0, 1, "//CD").expect("subscribe //CD");
    let mut leaf = overlay.client(2).expect("client 2");
    for round in 0..200u64 {
        leaf.subscribe(1 + round, 2, "//book").expect("subscribe");
        leaf.unsubscribe(1 + round).expect("unsubscribe");
    }
    overlay
        .await_consumers(1, TIMEOUT)
        .expect("only the standing subscriber is left, on every broker");
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_immediate_unsubscribe_leaves_no_ghost_subscriber() {
    immediate_unsubscribe_leaves_no_ghost_subscriber(Transport::Tcp);
}

#[test]
fn unix_immediate_unsubscribe_leaves_no_ghost_subscriber() {
    immediate_unsubscribe_leaves_no_ghost_subscriber(Transport::Unix);
}

/// A subscriber that sends requests but never takes its deliveries keeps
/// the newest [`DELIVERY_BACKLOG`] of them and counts the rest, instead of
/// buffering every document ever pushed at it.
fn an_undrained_subscriber_keeps_a_bounded_backlog(transport: Transport) {
    let overlay = spawn(transport);
    let mut idle = overlay.client(0).expect("client 0");
    idle.subscribe(0, 0, "//a").expect("subscribe");
    let mut producer = overlay.client(0).expect("producer");
    let rounds = 3;
    let per_round = DELIVERY_BACKLOG / 2;
    for round in 0..rounds {
        for i in 0..per_round {
            let document = format!("<a>{}</a>", round * per_round + i);
            producer.publish(document.as_bytes()).expect("publish");
        }
        // The reply queues behind this round's pushes, so the client reads
        // (and buffers) all of them on the way to it.
        assert_eq!(
            idle.stats().expect("stats").deliveries as usize,
            (round + 1) * per_round
        );
    }
    let sent = rounds * per_round;
    assert_eq!(idle.deliveries_dropped() as usize, sent - DELIVERY_BACKLOG);
    let kept = idle.take_deliveries();
    assert_eq!(kept.len(), DELIVERY_BACKLOG);
    let newest = format!("<a>{}</a>", sent - 1);
    assert_eq!(kept.last().expect("non-empty").1, newest.as_bytes());
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_an_undrained_subscriber_keeps_a_bounded_backlog() {
    an_undrained_subscriber_keeps_a_bounded_backlog(Transport::Tcp);
}

#[test]
fn unix_an_undrained_subscriber_keeps_a_bounded_backlog() {
    an_undrained_subscriber_keeps_a_bounded_backlog(Transport::Unix);
}

/// The same with several subscribers on the connection: a push of k
/// subscribers is k deliveries, and past the backlog the oldest deliveries
/// go one by one, not a push at a time.
fn an_undrained_connection_of_many_subscribers_keeps_a_bounded_backlog(transport: Transport) {
    const SUBSCRIBERS: u64 = 3;
    let overlay = spawn(transport);
    let mut idle = overlay.client(0).expect("client 0");
    for subscriber in 0..SUBSCRIBERS {
        idle.subscribe(subscriber, 0, "//a").expect("subscribe");
    }
    let mut producer = overlay.client(0).expect("producer");
    let documents = DELIVERY_BACKLOG / 2;
    for i in 0..documents {
        producer
            .publish(format!("<a>{i}</a>").as_bytes())
            .expect("publish");
    }
    let sent = documents * SUBSCRIBERS as usize;
    assert_eq!(idle.stats().expect("stats").deliveries as usize, sent);
    assert_eq!(idle.deliveries_dropped() as usize, sent - DELIVERY_BACKLOG);
    // Every document to every subscriber in id order, newest last.
    let expected: Vec<(u64, Vec<u8>)> = (0..documents)
        .flat_map(|i| (0..SUBSCRIBERS).map(move |s| (s, format!("<a>{i}</a>").into_bytes())))
        .collect();
    assert_ne!(
        (sent - DELIVERY_BACKLOG) % SUBSCRIBERS as usize,
        0,
        "the oldest kept delivery is not the first of its push"
    );
    assert_eq!(idle.take_deliveries(), expected[sent - DELIVERY_BACKLOG..]);
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_an_undrained_connection_of_many_subscribers_keeps_a_bounded_backlog() {
    an_undrained_connection_of_many_subscribers_keeps_a_bounded_backlog(Transport::Tcp);
}

#[test]
fn unix_an_undrained_connection_of_many_subscribers_keeps_a_bounded_backlog() {
    an_undrained_connection_of_many_subscribers_keeps_a_bounded_backlog(Transport::Unix);
}

/// Send `request` on a raw connection and read the next frame.
fn raw_roundtrip(stream: &mut Stream, request: &Message) -> Option<Message> {
    write_frame(stream, request).expect("write");
    read_frame(stream, &FrameLimits::default()).expect("read")
}

/// A document goes to a connection once, however many of its subscribers
/// it matches: one `DeliverMatched` frame naming them in ascending order,
/// whether the document was published at the connection's broker or
/// forwarded to it.
fn one_push_per_connection_and_document(transport: Transport) {
    let overlay = spawn(transport);
    // (broker, subscribers); `3` on the first connection matches nothing.
    let connections = [
        (
            0,
            vec![(7, "//CD"), (3, "//book"), (2, "//title"), (5, "/media/CD")],
        ),
        (1, vec![(9, "//CD/title"), (4, "//media")]),
    ];
    let mut raw = Vec::new();
    for (broker, subscribers) in &connections {
        let mut stream = Stream::connect(&overlay.addr(*broker).expect("up")).expect("connect");
        for &(subscriber, pattern) in subscribers {
            let subscribe = Message::Subscribe {
                subscriber,
                broker: *broker as u32,
                pattern: pattern.to_string(),
            };
            assert_eq!(raw_roundtrip(&mut stream, &subscribe), Some(Message::Ack));
        }
        raw.push(stream);
    }
    overlay
        .await_consumers(6, TIMEOUT)
        .expect("flood converges");

    let mut producer = overlay.client(0).expect("producer");
    let documents: Vec<String> = (0..5)
        .map(|i| format!("<media><CD><title>{i}</title></CD></media>"))
        .collect();
    for document in &documents {
        producer.publish(document.as_bytes()).expect("publish");
    }
    let expected: [&[u64]; 2] = [&[2, 5, 7], &[4, 9]];
    for (stream, ids) in raw.iter_mut().zip(expected) {
        for document in &documents {
            match read_frame(stream, &FrameLimits::default()).expect("read") {
                Some(Message::DeliverMatched {
                    subscribers,
                    document: bytes,
                }) => {
                    assert_eq!(&subscribers[..], ids);
                    assert_eq!(&bytes[..], document.as_bytes());
                }
                other => panic!("expected one DeliverMatched per document, got {other:?}"),
            }
        }
        // Every push was queued before the publisher's last Ack, and a
        // reply never overtakes a push: the next frame is the reply.
        let reply = raw_roundtrip(stream, &Message::Stats);
        assert!(
            matches!(reply, Some(Message::StatsReply { .. })),
            "{reply:?}"
        );
    }
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(stats[0].deliveries, 15);
    assert_eq!(stats[1].deliveries, 10);
    assert_eq!(total(&stats, |s| s.pushes_dropped), 0);
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_one_push_per_connection_and_document() {
    one_push_per_connection_and_document(Transport::Tcp);
}

#[test]
fn unix_one_push_per_connection_and_document() {
    one_push_per_connection_and_document(Transport::Unix);
}

/// `recv_delivery` hands a connection's pushes out one subscriber at a
/// time: each subscriber gets each of its documents once, in publication
/// order, and a push's subscribers come in id order.
fn recv_delivery_yields_each_subscribers_documents_in_order(transport: Transport) {
    let overlay = spawn(transport);
    let mut fan = overlay.client(1).expect("client 1");
    let subscribers = [(12, "//media"), (10, "//CD"), (11, "//book")];
    for (subscriber, pattern) in subscribers {
        fan.subscribe(subscriber, 1, pattern).expect("subscribe");
    }
    overlay
        .await_consumers(3, TIMEOUT)
        .expect("flood converges");
    let mut producer = overlay.client(0).expect("producer");
    let mut expected = Vec::new();
    for i in 0..20 {
        let (kind, ids) = if i % 3 == 0 {
            ("book", [11, 12])
        } else {
            ("CD", [10, 12])
        };
        let document = format!("<media><{kind}><title>{i}</title></{kind}></media>");
        producer.publish(document.as_bytes()).expect("publish");
        expected.extend(ids.map(|id| (id, document.clone().into_bytes())));
    }
    let mut received = Vec::new();
    while received.len() < expected.len() {
        let delivery = fan.recv_delivery(TIMEOUT).expect("recv");
        received.push(delivery.expect("a delivery arrives"));
    }
    assert_eq!(received, expected);
    assert_eq!(
        fan.recv_delivery(Duration::from_millis(200)).expect("recv"),
        None,
        "exactly once"
    );
    assert_eq!(fan.deliveries_dropped(), 0);
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_recv_delivery_yields_each_subscribers_documents_in_order() {
    recv_delivery_yields_each_subscribers_documents_in_order(Transport::Tcp);
}

#[test]
fn unix_recv_delivery_yields_each_subscribers_documents_in_order() {
    recv_delivery_yields_each_subscribers_documents_in_order(Transport::Unix);
}

/// A push is never larger than a client's backlog: with more matching
/// subscribers on one connection than `DELIVERY_BACKLOG`, the broker splits
/// the push, and a caller draining with `recv_delivery` loses nothing.
fn a_push_never_outgrows_the_client_backlog(transport: Transport) {
    const SUBSCRIBERS: u64 = DELIVERY_BACKLOG as u64 + 1;
    let overlay = spawn(transport);
    let mut fan = overlay.client(0).expect("client 0");
    for subscriber in 0..SUBSCRIBERS {
        fan.subscribe(subscriber, 0, "//a").expect("subscribe");
    }
    let mut producer = overlay.client(0).expect("producer");
    let documents: Vec<Vec<u8>> = (0..3).map(|i| format!("<a>{i}</a>").into_bytes()).collect();
    for document in &documents {
        producer.publish(document).expect("publish");
    }
    let expected: Vec<(u64, Vec<u8>)> = documents
        .iter()
        .flat_map(|document| (0..SUBSCRIBERS).map(move |s| (s, document.clone())))
        .collect();
    let mut received = Vec::new();
    while received.len() < expected.len() {
        let delivery = fan.recv_delivery(TIMEOUT).expect("recv");
        received.push(delivery.expect("a delivery arrives"));
    }
    assert_eq!(received, expected);
    assert_eq!(fan.deliveries_dropped(), 0);
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_a_push_never_outgrows_the_client_backlog() {
    a_push_never_outgrows_the_client_backlog(Transport::Tcp);
}

#[test]
fn unix_a_push_never_outgrows_the_client_backlog() {
    a_push_never_outgrows_the_client_backlog(Transport::Unix);
}

/// A push stays within the receiver's frame limit: a document near the
/// limit, matched by more subscribers than one frame can name beside it,
/// goes out as several pushes, and the client decodes every one.
fn a_push_stays_within_the_frame_limit(transport: Transport) {
    const SUBSCRIBERS: u64 = 400;
    let limits = FrameLimits {
        max_frame: 1024,
        ..FrameLimits::default()
    };
    let config = OverlayConfig {
        topology: BrokerTopology::single(),
        limits,
        ..OverlayConfig::default()
    };
    let overlay = LocalOverlay::spawn(config, transport).expect("spawn overlay");
    let mut fan = overlay.client(0).expect("client 0");
    for subscriber in 0..SUBSCRIBERS {
        fan.subscribe(subscriber, 0, "//a").expect("subscribe");
    }
    // One id per subscriber would take the frame past its limit.
    let document = format!("<a>{}</a>", "x".repeat(700)).into_bytes();
    overlay
        .client(0)
        .expect("producer")
        .publish(&document)
        .expect("publish");
    for subscriber in 0..SUBSCRIBERS {
        let delivery = fan.recv_delivery(TIMEOUT).expect("recv");
        assert_eq!(delivery, Some((subscriber, document.clone())));
    }
    assert_eq!(fan.deliveries_dropped(), 0);
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_a_push_stays_within_the_frame_limit() {
    a_push_stays_within_the_frame_limit(Transport::Tcp);
}

#[test]
fn unix_a_push_stays_within_the_frame_limit() {
    a_push_stays_within_the_frame_limit(Transport::Unix);
}

/// A connection that stops reading fills its writer queue, and the pushes
/// that find it full are lost (a slow consumer never blocks a broker). None
/// goes unaccounted: every delivery the broker counted was received, let go
/// by the client's backlog, or counted in `pushes_dropped`.
fn pushes_a_full_writer_queue_drops_are_counted(transport: Transport) {
    const SUBSCRIBERS: u64 = 2;
    const DOCUMENTS: usize = 800;
    let config = OverlayConfig {
        queue_depth: 4,
        ..OverlayConfig::default()
    };
    let overlay = LocalOverlay::spawn(config, transport).expect("spawn overlay");
    let mut stalled = overlay.client(0).expect("client 0");
    for subscriber in 0..SUBSCRIBERS {
        stalled.subscribe(subscriber, 0, "//a").expect("subscribe");
    }
    // ~26 MB of pushes: more than the socket buffers between the two hold.
    let pad = "x".repeat(32 << 10);
    let mut producer = overlay.client(0).expect("producer");
    for i in 0..DOCUMENTS {
        producer
            .publish(format!("<a><i>{i}</i>{pad}</a>").as_bytes())
            .expect("publish");
    }
    // The reply queues behind every push that was not dropped.
    let stats = stalled.stats().expect("stats");
    let received = stalled.take_deliveries().len() as u64;
    assert_eq!(stats.deliveries, SUBSCRIBERS * DOCUMENTS as u64);
    assert!(stats.pushes_dropped > 0, "the writer queue never filled");
    assert_eq!(
        stats.pushes_dropped % SUBSCRIBERS,
        0,
        "a dropped push counts the subscribers it named"
    );
    assert_eq!(
        stats.deliveries,
        received + stalled.deliveries_dropped() + stats.pushes_dropped
    );
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_pushes_a_full_writer_queue_drops_are_counted() {
    pushes_a_full_writer_queue_drops_are_counted(Transport::Tcp);
}

#[test]
fn unix_pushes_a_full_writer_queue_drops_are_counted() {
    pushes_a_full_writer_queue_drops_are_counted(Transport::Unix);
}

/// A client that sends requests and never reads its replies blocks only
/// its own connection. Regression: the broker's one service thread used to
/// block on that connection's full reply queue, and no other client of the
/// broker was served again.
fn a_client_that_never_reads_wedges_only_itself(transport: Transport) {
    let overlay = spawn(transport);
    let flooder = Stream::connect(&overlay.addr(0).expect("broker 0 is up")).expect("connect");
    let written = Arc::new(AtomicUsize::new(0));
    let flood = {
        let mut stream = flooder.try_clone().expect("clone");
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            for _ in 0..200_000 {
                if write_frame(&mut stream, &Message::Stats).is_err() {
                    break;
                }
                written.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    // Until every buffer between the two is full and the flood stalls, or
    // the broker has taken all of it.
    let mut seen = 0;
    while !flood.is_finished() {
        std::thread::sleep(Duration::from_millis(100));
        let now = written.load(Ordering::Relaxed);
        if now == seen {
            break;
        }
        seen = now;
    }

    let mut producer = overlay.client(0).expect("client 0");
    let (acked, ack) = mpsc::channel();
    let publisher = std::thread::spawn(move || {
        let published = producer.publish(b"<media><CD/></media>");
        let _ = acked.send(published.is_ok());
    });
    // A wedged broker never answers: the publisher stays blocked, detached.
    let published = ack
        .recv_timeout(Duration::from_secs(5))
        .expect("another client got no Ack within 5 s");
    assert!(published, "the publish failed");
    publisher.join().expect("publisher");
    flooder.shutdown().expect("shut the flooder down");
    flood.join().expect("flood thread");
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_a_client_that_never_reads_wedges_only_itself() {
    a_client_that_never_reads_wedges_only_itself(Transport::Tcp);
}

#[test]
fn unix_a_client_that_never_reads_wedges_only_itself() {
    a_client_that_never_reads_wedges_only_itself(Transport::Unix);
}

/// On a chain of four the two interior brokers are adjacent, so forwards
/// cross between them both ways at once while documents of a few hundred
/// KiB fill the sockets. The run ends, and every document reaches the
/// subscriber at the far end exactly once or is counted as dropped.
fn a_chain_carries_large_documents_both_ways_at_once(transport: Transport) {
    const PRODUCERS: usize = 3;
    const DOCUMENTS: usize = 12;
    let config = OverlayConfig {
        topology: BrokerTopology::chain(4),
        ..OverlayConfig::default()
    };
    let overlay = LocalOverlay::spawn(config, transport).expect("spawn overlay");
    let ends = [(0, "west", "east"), (3, "east", "west")];
    let mut subscribers = Vec::new();
    for (subscriber, &(broker, _, wants)) in ends.iter().enumerate() {
        let mut client = overlay.client(broker).expect("subscriber");
        client
            .subscribe(subscriber as u64, broker as u32, &format!("//{wants}"))
            .expect("subscribe");
        subscribers.push(client);
    }
    overlay
        .await_consumers(2, TIMEOUT)
        .expect("flood converges");
    let pad = "x".repeat(300 << 10);

    let (finished, done) = mpsc::channel();
    let overlay = Arc::new(overlay);
    let run = {
        let overlay = Arc::clone(&overlay);
        std::thread::spawn(move || {
            let received = std::thread::scope(|scope| {
                for &(broker, kind, _) in &ends {
                    for producer in 0..PRODUCERS {
                        let (overlay, pad) = (&overlay, &pad);
                        scope.spawn(move || {
                            let mut client = overlay.client(broker).expect("producer");
                            for i in 0..DOCUMENTS {
                                let document = format!(
                                    "<media><{kind}><id>{producer}-{i}</id><pad>{pad}</pad></{kind}></media>"
                                );
                                client.publish(document.as_bytes()).expect("publish");
                            }
                        });
                    }
                }
                let receivers: Vec<_> = subscribers
                    .into_iter()
                    .map(|mut client| {
                        scope.spawn(move || {
                            let mut ids = HashSet::new();
                            while ids.len() < PRODUCERS * DOCUMENTS {
                                let Some((_, document)) =
                                    client.recv_delivery(TIMEOUT).expect("recv")
                                else {
                                    break;
                                };
                                let text = String::from_utf8(document).expect("utf-8");
                                let id = text.split("<id>").nth(1).expect("an id");
                                let id = id.split("</id>").next().expect("an id").to_string();
                                assert!(ids.insert(id), "delivered twice");
                            }
                            ids.len()
                        })
                    })
                    .collect();
                receivers
                    .into_iter()
                    .map(|r| r.join().expect("receiver"))
                    .sum::<usize>()
            });
            let _ = finished.send(received);
        })
    };
    let received = done
        .recv_timeout(Duration::from_secs(60))
        .expect("the overlay wedged");
    run.join().expect("run");
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    let dropped = total(&stats, |s| s.forwards_dropped) as usize;
    assert_eq!(received + dropped, 2 * PRODUCERS * DOCUMENTS);
    assert_eq!(total(&stats, |s| s.deliveries) as usize, received);
    Arc::into_inner(overlay)
        .expect("the run is over")
        .shutdown()
        .expect("shutdown");
}

#[test]
fn tcp_a_chain_carries_large_documents_both_ways_at_once() {
    a_chain_carries_large_documents_both_ways_at_once(Transport::Tcp);
}

#[test]
fn unix_a_chain_carries_large_documents_both_ways_at_once() {
    a_chain_carries_large_documents_both_ways_at_once(Transport::Unix);
}

/// Broker-side validation surfaces as typed remote errors, and the
/// connection survives them.
fn errors_are_typed_and_survivable(transport: Transport) {
    let overlay = spawn(transport);
    let mut client = overlay.client(0).expect("client 0");

    let err = client.subscribe(0, 0, "///").expect_err("bad pattern");
    match err {
        tps_net::ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadPattern),
        other => panic!("expected a remote error, got {other}"),
    }
    let err = client.subscribe(0, 99, "//CD").expect_err("bad broker");
    match err {
        tps_net::ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownBroker),
        other => panic!("expected a remote error, got {other}"),
    }
    let err = client.publish(b"<open>").expect_err("bad document");
    match err {
        tps_net::ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadDocument),
        other => panic!("expected a remote error, got {other}"),
    }

    // The same connection still works after three rejected requests.
    client.subscribe(0, 0, "//CD").expect("subscribe");
    client.publish(b"<media><CD/></media>").expect("publish");
    let delivery = client.recv_delivery(TIMEOUT).expect("recv");
    assert!(delivery.is_some(), "local delivery still flows");
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_errors_are_typed_and_survivable() {
    errors_are_typed_and_survivable(Transport::Tcp);
}

#[test]
fn unix_errors_are_typed_and_survivable() {
    errors_are_typed_and_survivable(Transport::Unix);
}

/// A publication arriving before any subscription exists must not kill
/// the broker (regression: the table-mode core used to panic with no
/// table built yet), and a subscriber that reconnects and re-subscribes
/// gets its delivery pushes re-attached to the new connection
/// (regression: the idempotent re-subscribe used to leave the push
/// channel on the dead connection).
fn early_publish_and_resubscribe_after_reconnect(transport: Transport) {
    let overlay = spawn(transport);
    let mut producer = overlay.client(0).expect("client 0");
    producer
        .publish(b"<media><CD/></media>")
        .expect("publishing into an empty view succeeds");

    let mut fan = overlay.client(1).expect("client 1");
    fan.subscribe(0, 1, "//CD").expect("subscribe");
    overlay
        .await_consumers(1, TIMEOUT)
        .expect("flood converges");
    // The connection closes; the subscription intentionally stays.
    drop(fan);

    let mut fan = overlay.client(1).expect("client 1 reconnects");
    fan.subscribe(0, 1, "//CD")
        .expect("re-subscribe is idempotent");
    producer.publish(b"<media><CD/></media>").expect("publish");
    let delivery = fan
        .recv_delivery(TIMEOUT)
        .expect("recv")
        .expect("the reconnected subscriber receives pushes again");
    assert_eq!(delivery.0, 0);
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_early_publish_and_resubscribe_after_reconnect() {
    early_publish_and_resubscribe_after_reconnect(Transport::Tcp);
}

#[test]
fn unix_early_publish_and_resubscribe_after_reconnect() {
    early_publish_and_resubscribe_after_reconnect(Transport::Unix);
}

/// Kill a broker mid-run, watch drops get counted, then restart it and
/// watch the resynced view route documents again.
fn failover_drops_then_recovers(transport: Transport) {
    let mut overlay = spawn(transport);
    let mut fan = overlay.client(1).expect("client 1");
    fan.subscribe(0, 1, "//CD").expect("subscribe");
    overlay
        .await_consumers(1, TIMEOUT)
        .expect("flood converges");

    assert!(overlay.kill(1), "broker 1 was live");
    assert!(!overlay.kill(1), "kill is idempotent");
    assert!(overlay.addr(1).is_none(), "a dead broker has no address");

    let mut producer = overlay.client(0).expect("client 0");
    producer
        .publish(b"<media><CD/></media>")
        .expect("publishing while a peer is down still succeeds");
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(
        total(&stats, |s| s.forwards_dropped),
        1,
        "the forward towards the dead broker is a counted drop"
    );
    assert_eq!(total(&stats, |s| s.deliveries), 0);

    overlay.restart(1).expect("restart");
    let mut rejoined = overlay.client(1).expect("client 1 after rejoin");
    let view = rejoined.sync_state().expect("sync state");
    assert_eq!(view.len(), 1, "the view was resynced from a live neighbour");
    assert_eq!(view[0].subscriber, 0);

    producer.publish(b"<media><CD/></media>").expect("publish");
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(
        total(&stats, |s| s.deliveries),
        1,
        "the rejoined broker routes again"
    );
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_failover_drops_then_recovers() {
    failover_drops_then_recovers(Transport::Tcp);
}

#[test]
fn unix_failover_drops_then_recovers() {
    failover_drops_then_recovers(Transport::Unix);
}

/// A broker that rejoins with a partial view (its donor never heard of a
/// subscription made while it was down) does not trust the interest sets of
/// a neighbour that knows more: it matches for itself, every delivery still
/// happens exactly once, and the rematching stops the moment the views —
/// the digests — agree again.
fn a_partial_view_rematches_until_the_digests_agree(transport: Transport) {
    const DOCUMENT: &[u8] = b"<media><CD><title>Requiem</title></CD></media>";
    let mut overlay = spawn(transport);
    let mut far = overlay.client(1).expect("client 1");
    far.subscribe(0, 1, "//CD").expect("subscribe //CD");
    overlay
        .await_consumers(1, TIMEOUT)
        .expect("flood converges");

    assert!(overlay.kill(0), "the root was live");
    let mut near = overlay.client(2).expect("client 2");
    near.subscribe(1, 2, "//title").expect("subscribe //title");
    // The flood of that subscription and this document share broker 2's
    // queue towards the dead root, in this order: once the document is a
    // counted drop, the control frame before it is gone too.
    near.publish(DOCUMENT).expect("publish towards a dead root");
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(total(&stats, |s| s.forwards_dropped), 1);
    assert_eq!(
        near.recv_delivery(TIMEOUT).expect("recv").map(|d| d.0),
        Some(1)
    );

    // The root resyncs from broker 1, which holds one subscription of two.
    overlay.restart(0).expect("restart");
    let stats = overlay.stats().expect("stats");
    assert_eq!(
        stats.iter().map(|s| s.consumers).collect::<Vec<_>>(),
        [1, 1, 2]
    );
    assert_eq!(stats[0].view_digest, stats[1].view_digest);
    assert_ne!(stats[1].view_digest, stats[2].view_digest);

    let publish =
        |near: &mut tps_net::BrokerClient, far: &mut tps_net::BrokerClient, both: bool| {
            for _ in 0..4 {
                near.publish(DOCUMENT).expect("publish");
                let delivery = far.recv_delivery(TIMEOUT).expect("recv");
                assert_eq!(delivery.map(|d| d.0), Some(0), "across two links");
                if both {
                    let delivery = near.recv_delivery(TIMEOUT).expect("recv");
                    assert_eq!(delivery.map(|d| d.0), Some(1), "and at home");
                }
            }
            for client in [near, far] {
                let extra = client.recv_delivery(Duration::from_millis(100));
                assert_eq!(extra.expect("recv"), None, "exactly once");
            }
        };
    publish(&mut near, &mut far, true);
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(
        stats.iter().map(|s| s.deliveries).collect::<Vec<_>>(),
        [0, 4, 5]
    );
    // The root matched what broker 2 sent it; broker 1 holds the root's
    // view and took the root's word.
    let rematched = |stats: &[BrokerStats]| -> Vec<u64> {
        stats.iter().map(|s| s.forwards_rematched).collect()
    };
    assert_eq!(rematched(&stats), [4, 0, 0]);
    assert_eq!(stats[1].forwards_received, 4);

    // The views agree again: no forward is matched twice from here on.
    near.unsubscribe(1).expect("unsubscribe");
    overlay
        .await_consumers(1, TIMEOUT)
        .expect("one view, one digest");
    publish(&mut near, &mut far, false);
    let stats = overlay.quiesce(TIMEOUT).expect("quiesce");
    assert_eq!(rematched(&stats), [4, 0, 0]);
    assert_eq!(stats[0].forwards_received, 8);
    assert_eq!(stats[1].deliveries, 8);
    overlay.shutdown().expect("shutdown");
}

#[test]
fn tcp_a_partial_view_rematches_until_the_digests_agree() {
    a_partial_view_rematches_until_the_digests_agree(Transport::Tcp);
}

#[test]
fn unix_a_partial_view_rematches_until_the_digests_agree() {
    a_partial_view_rematches_until_the_digests_agree(Transport::Unix);
}

/// A client asking the broker to shut down gets an ack first, and the
/// handle notices.
#[test]
fn shutdown_verb_stops_the_broker() {
    let overlay = spawn(Transport::Tcp);
    let mut client = overlay.client(2).expect("client 2");
    client.shutdown_broker().expect("shutdown acked");
    let deadline = std::time::Instant::now() + TIMEOUT;
    while overlay.addr(2).is_some() && overlay.client(2).is_ok() {
        if std::time::Instant::now() > deadline {
            panic!("broker 2 kept serving after a shutdown request");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    overlay.shutdown().expect("shutdown");
}
