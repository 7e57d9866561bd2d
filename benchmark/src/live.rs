//! The live substrate: a 3-broker overlay on TCP loopback, driven through
//! client connections only.
//!
//! Standing subscriptions are installed round-robin over the brokers
//! through control connections that are then closed (the subscriptions
//! stay, their push channel goes: matching load without delivery-socket
//! load). One probe subscriber that matches every document stays attached
//! at broker 2 and documents are published at broker 1, so every document
//! crosses two links (1 → 0 → 2) and yields exactly one timed delivery.
//! Load is closed-loop: publishers in this protocol wait for an `Ack`.

use std::io;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use tps_net::{BrokerClient, BrokerStats, ClientError, LocalOverlay, OverlayConfig, Transport};

use crate::inputs::Inputs;
use crate::trace::Tracer;

/// Brokers in the overlay (`OverlayConfig::default()`'s balanced tree).
pub const BROKERS: usize = 3;
/// Where documents are published.
pub const PRODUCER_BROKER: usize = 1;
/// Where the probe is attached.
pub const PROBE_BROKER: usize = 2;
/// The probe's subscriber id: the lowest, so it is the first entry of
/// every link table and first-hit lookups stay cheap.
pub const PROBE_ID: u64 = 0;
/// Subscriber ids of arrivals start here, clear of the standing ids.
const ARRIVAL_BASE: u64 = 1 << 32;
/// View changes the mixed loop keeps between a subscription's arrival and
/// its departure, at least. A broker echoes a flooded `Subscribe` back over
/// the link it came from; if the subscriber has departed before the echo
/// lands, the echo re-installs it and the views diverge for good. At
/// ~100 µs per view change this keeps ~50 ms between the two.
pub const DEPARTURE_GAP: usize = 512;
/// Undelivered documents the throughput pass keeps in flight at most.
pub const WINDOW: usize = 64;
/// Documents published before the first timed pass.
pub const WARMUP_DOCUMENTS: usize = 20;
/// How long any single reply or delivery may take before the run fails.
pub const TIMEOUT: Duration = Duration::from_secs(60);

fn remote(e: ClientError) -> io::Error {
    io::Error::other(e.to_string())
}

/// One timed request-reply operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When the request was sent.
    pub at: Instant,
    /// Request sent → reply received.
    pub took: Duration,
}

/// One window-1 publication.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Publication index (position in the round-robin over the pool).
    pub doc: u64,
    /// When the publish was sent.
    pub sent: Instant,
    /// Publish sent → `Ack` received.
    pub acked: Duration,
    /// Publish sent → the probe's `Deliver` received.
    pub delivered: Duration,
    /// Whether this was the first publication after a view change.
    pub stale: bool,
}

/// What a throughput pass delivered.
#[derive(Debug, Clone)]
pub struct Burst {
    /// First publish sent.
    pub from: Instant,
    /// When each document was delivered to the probe, in order.
    pub delivered: Vec<Instant>,
}

/// What a mixed loop of view changes and publications did.
#[derive(Debug)]
pub struct Churn {
    /// Loop start.
    pub from: Instant,
    /// Loop end.
    pub to: Instant,
    /// Every `subscribe` → `Ack`.
    pub subscribes: Vec<Timed>,
    /// Every `unsubscribe` → `Ack`.
    pub unsubscribes: Vec<Timed>,
    /// Every publication, in order.
    pub deliveries: Vec<Delivery>,
}

/// A converged, warmed-up overlay with its producer and probe attached.
pub struct Rig {
    /// The running overlay.
    pub overlay: LocalOverlay,
    producer: BrokerClient,
    probe: BrokerClient,
    /// Documents published so far (indexes the round-robin pool).
    pub published: usize,
    /// Deliveries that were missing, out of order or not byte-identical
    /// to what was published.
    pub bad_deliveries: u64,
    /// View changes made by [`Rig::mixed_loop`] so far.
    pub view_changes: usize,
    /// Flip a byte of the delivery of this publication before checking it:
    /// the self-test's proof that the check can fail.
    pub corrupt_delivery_at: Option<usize>,
    /// Time spent in `LocalOverlay::spawn`.
    pub spawn: Duration,
    /// Time spent installing the standing subscriptions.
    pub install: Duration,
    /// Time spent waiting for the subscription flood to converge.
    pub converge: Duration,
}

impl Rig {
    /// Spawn the overlay, install `inputs.subscriptions` and the probe,
    /// wait for convergence and publish the warm-up documents.
    pub fn setup(inputs: &Inputs) -> io::Result<Self> {
        let started = Instant::now();
        let overlay = LocalOverlay::spawn(OverlayConfig::default(), Transport::Tcp)?;
        let spawn = started.elapsed();

        let started = Instant::now();
        {
            let mut control = control_connections(&overlay)?;
            for (i, pattern) in inputs.subscriptions.iter().enumerate() {
                let broker = i % BROKERS;
                control[broker]
                    .subscribe(i as u64 + 1, broker as u32, &pattern.to_string())
                    .map_err(remote)?;
            }
        }
        let install = started.elapsed();

        let started = Instant::now();
        let mut probe = overlay.client(PROBE_BROKER)?;
        probe
            .subscribe(PROBE_ID, PROBE_BROKER as u32, &inputs.probe)
            .map_err(remote)?;
        overlay.await_consumers(inputs.subscriptions.len() as u64 + 1, TIMEOUT)?;
        let converge = started.elapsed();

        let producer = overlay.client(PRODUCER_BROKER)?;
        let mut rig = Self {
            overlay,
            producer,
            probe,
            published: 0,
            bad_deliveries: 0,
            view_changes: 0,
            corrupt_delivery_at: None,
            spawn,
            install,
            converge,
        };
        for _ in 0..WARMUP_DOCUMENTS {
            rig.publish_and_await(inputs, false)?;
        }
        Ok(rig)
    }

    /// Publish the next document of the pool and wait for the probe's
    /// delivery: one window-1 round trip.
    pub fn publish_and_await(&mut self, inputs: &Inputs, stale: bool) -> io::Result<Delivery> {
        let doc = self.published;
        let document = &inputs.documents[doc % inputs.documents.len()];
        self.published += 1;
        let sent = Instant::now();
        self.producer.publish(document).map_err(remote)?;
        let acked = sent.elapsed();
        let mut delivery = self.probe.recv_delivery(TIMEOUT).map_err(remote)?;
        let delivered = sent.elapsed();
        if self.corrupt_delivery_at == Some(doc) {
            if let Some((_, bytes)) = delivery.as_mut() {
                bytes[0] ^= 0x20;
            }
        }
        if !matches!(&delivery, Some((PROBE_ID, bytes)) if bytes == document) {
            self.bad_deliveries += 1;
        }
        Ok(Delivery {
            doc: doc as u64,
            sent,
            acked,
            delivered,
            stale,
        })
    }

    /// Latency pass: window-1 round trips until `budget` is spent.
    pub fn latency_pass(&mut self, inputs: &Inputs, budget: Duration) -> io::Result<Vec<Delivery>> {
        let deadline = Instant::now() + budget;
        let mut samples = Vec::new();
        loop {
            samples.push(self.publish_and_await(inputs, false)?);
            if Instant::now() >= deadline {
                return Ok(samples);
            }
        }
    }

    /// Throughput pass: a producer thread publishes ack-paced while at
    /// most [`WINDOW`] documents are undelivered; the calling thread
    /// receives and checks the deliveries. With a tracer, both threads
    /// record one span per client call.
    pub fn throughput_pass(
        &mut self,
        inputs: &Inputs,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<Burst> {
        let pool = &inputs.documents;
        let first = self.published;
        let producer = &mut self.producer;
        let probe = &mut self.probe;
        let tracing = tracer.is_some();
        let mut bad = 0;
        // The channel is the window: a slot is taken before each publish
        // and freed by the delivery it announces.
        let (slots, announced) = sync_channel::<usize>(WINDOW);
        let from = Instant::now();
        let deadline = from + budget;
        let (sent, received, publisher_trace) = std::thread::scope(|scope| {
            let publisher = scope.spawn(move || -> io::Result<(usize, Tracer)> {
                let mut trace = Tracer::new();
                let mut index = first;
                loop {
                    if slots.send(index).is_err() {
                        break;
                    }
                    let started = Instant::now();
                    producer
                        .publish(&pool[index % pool.len()])
                        .map_err(remote)?;
                    if tracing {
                        trace.record(
                            "client.publish",
                            started,
                            Instant::now(),
                            None,
                            index as u64,
                        );
                    }
                    index += 1;
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                Ok((index - first, trace))
            });
            let mut received = Vec::new();
            let mut failure = None;
            for index in announced.iter() {
                let started = Instant::now();
                match probe.recv_delivery(TIMEOUT) {
                    Ok(delivery) => {
                        let expected = &pool[index % pool.len()];
                        if !matches!(&delivery, Some((PROBE_ID, d)) if d == expected) {
                            bad += 1;
                        }
                        received.push(Instant::now());
                    }
                    Err(e) => {
                        failure = Some(remote(e));
                        break;
                    }
                }
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.record(
                        "client.deliver_wait",
                        started,
                        Instant::now(),
                        None,
                        index as u64,
                    );
                }
            }
            // Dropping the receiver unblocks a publisher waiting for a slot.
            drop(announced);
            // invariant: the publisher returns its errors, it never panics.
            let published = publisher.join().expect("publisher thread panicked");
            match failure {
                Some(e) => Err(e),
                None => published.map(|(sent, trace)| (sent, received, trace)),
            }
        })?;
        if let Some(tracer) = tracer {
            tracer.absorb(publisher_trace);
        }
        self.published += sent;
        self.bad_deliveries += bad + sent.abs_diff(received.len()) as u64;
        Ok(Burst {
            from,
            delivered: received,
        })
    }

    /// Mixed loop: cycles of one arrival, one departure (the oldest
    /// subscription) and `publications` window-1 publications, until
    /// `budget` is spent. With `publications = 0` this is a pure control
    /// pass. A view smaller than [`DEPARTURE_GAP`] first grows to that size
    /// (arrivals only); from then on the view keeps its size.
    pub fn mixed_loop(
        &mut self,
        inputs: &Inputs,
        publications: usize,
        budget: Duration,
    ) -> io::Result<Churn> {
        let mut control = control_connections(&self.overlay)?;
        let standing = inputs.subscriptions.len();
        let from = Instant::now();
        let mut churn = Churn {
            from,
            to: from,
            subscribes: Vec::new(),
            unsubscribes: Vec::new(),
            deliveries: Vec::new(),
        };
        let deadline = from + budget;
        loop {
            let change = self.view_changes;
            self.view_changes += 1;

            let broker = change % BROKERS;
            let pattern = inputs.arrivals[change % inputs.arrivals.len()].to_string();
            let at = Instant::now();
            control[broker]
                .subscribe(ARRIVAL_BASE + change as u64, broker as u32, &pattern)
                .map_err(remote)?;
            churn.subscribes.push(Timed {
                at,
                took: at.elapsed(),
            });

            // The oldest: standing ids in order, then arrivals in order.
            if let Some(departure) = change.checked_sub(DEPARTURE_GAP.saturating_sub(standing)) {
                let (oldest, home) = if departure < standing {
                    (departure as u64 + 1, departure % BROKERS)
                } else {
                    let arrival = departure - standing;
                    (ARRIVAL_BASE + arrival as u64, arrival % BROKERS)
                };
                let at = Instant::now();
                control[home].unsubscribe(oldest).map_err(remote)?;
                churn.unsubscribes.push(Timed {
                    at,
                    took: at.elapsed(),
                });
            }

            for i in 0..publications {
                churn
                    .deliveries
                    .push(self.publish_and_await(inputs, i == 0)?);
            }
            churn.to = Instant::now();
            if churn.to >= deadline {
                return Ok(churn);
            }
        }
    }

    /// Subscriptions every broker's view holds once the floods of all view
    /// changes so far have landed, the probe included.
    pub fn expected_consumers(&self, inputs: &Inputs) -> u64 {
        let standing = inputs.subscriptions.len();
        let grown = self
            .view_changes
            .min(DEPARTURE_GAP.saturating_sub(standing));
        (standing + 1 + grown) as u64
    }

    /// Wait until no document is in flight; returns per-broker counters.
    pub fn settle(&self) -> io::Result<Vec<BrokerStats>> {
        self.overlay.quiesce(TIMEOUT)
    }

    /// Stop every broker; returns how long that took.
    pub fn shutdown(self) -> io::Result<Duration> {
        let started = Instant::now();
        drop(self.producer);
        drop(self.probe);
        self.overlay.shutdown()?;
        Ok(started.elapsed())
    }
}

fn control_connections(overlay: &LocalOverlay) -> io::Result<Vec<BrokerClient>> {
    (0..BROKERS).map(|b| overlay.client(b)).collect()
}
