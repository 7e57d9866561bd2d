//! The broker server: a thread-per-connection frame loop with bounded
//! queues around one [`BrokerCore`].
//!
//! Thread layout per broker:
//!
//! * one **accept** thread turning connections into a reader + writer pair,
//! * per connection a **reader** (frames → the bounded service queue; a
//!   full queue blocks the reader, which is the inbound backpressure) and a
//!   **writer** (bounded outbound queue → socket),
//! * one **service** thread owning the [`BrokerCore`] — all state lives on
//!   this thread, so the core needs no locks — draining the inbound queue
//!   in batches and flushing at most one [`Message::ForwardMatched`] frame
//!   per peer link, batch and view digest (genuine batching under load),
//! * one lazy **peer writer** per overlay link, reconnecting through the
//!   shared [`AddrMap`] so a restarted neighbour is found at its new
//!   address.
//!
//! The service thread never blocks on a peer: peer-bound frames go through
//! bounded queues with `try_send`, dropped documents are counted in
//! [`BrokerStats::forwards_dropped`](crate::codec::BrokerStats::forwards_dropped), and control frames (subscription
//! floods) are parked in an unbounded pending list retried every batch —
//! droppable data, undroppable control. This is what makes the overlay
//! deadlock-free by construction: the only cycles in the blocking graph
//! would have to pass through a peer queue, and nothing blocks on those.
//!
//! Every forward leaves as [`Message::ForwardMatched`]: next to its bytes a
//! document carries the interest set the core computed for it and the frame
//! the view digest it was computed under, so a neighbour holding the same
//! view routes it without parsing or matching
//! ([`BrokerCore::forward_matched`]). A plain [`Message::Forward`] is still
//! accepted and matched locally; brokers no longer send it.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;

use tps_routing::BrokerId;

use crate::broker::{BrokerCore, RouteOutcome};
use crate::codec::{read_frame, write_frame, FrameLimits, MatchedDocument, Message};
use crate::transport::{Addr, Listener, Stream};

/// Shared, mutable address map of the overlay: `addrs[b]` is where broker
/// `b` currently listens, `None` while it is down. Restarted brokers bind
/// fresh addresses; peer writers look the current address up on every
/// (re)connect, so rejoin needs no coordination beyond this map.
pub type AddrMap = Arc<RwLock<Vec<Option<Addr>>>>;

/// An all-down address map for `brokers` brokers.
pub fn addr_map(brokers: usize) -> AddrMap {
    Arc::new(RwLock::new(vec![None; brokers]))
}

/// Events feeding the service thread.
enum Event {
    /// A connection was accepted; `tx` is its bounded outbound queue.
    Opened { conn: u64, tx: SyncSender<Message> },
    /// A decoded frame arrived on connection `conn`.
    Frame { conn: u64, message: Message },
    /// The connection closed (EOF, I/O error, or malformed frame).
    Closed { conn: u64 },
    /// Local shutdown request from [`BrokerHandle::shutdown`].
    Stop,
}

/// Number of events the service thread drains per batch; also the bound on
/// how many documents can share one forward frame (before size chunking).
const SERVICE_BATCH: usize = 64;

/// A routed document waiting for the end-of-batch flush towards one link.
struct Outbound {
    /// The view digest its interest set was computed under: only documents
    /// of one view share a frame.
    view: u128,
    document: MatchedDocument,
}

struct ConnState {
    tx: SyncSender<Message>,
    /// The neighbour a [`Message::Hello`] identified: peer links are
    /// fire-and-forget (no replies), client connections get one reply per
    /// request.
    peer: Option<BrokerId>,
}

struct PeerLink {
    tx: Option<SyncSender<Message>>,
    writer: Option<JoinHandle<()>>,
    /// Control frames (subscription floods) that did not fit the queue;
    /// retried every batch — control is never dropped while the link lives.
    pending: VecDeque<Message>,
}

/// A running broker: join handles plus the shutdown signal.
#[derive(Debug)]
pub struct BrokerHandle {
    id: BrokerId,
    addr: Addr,
    stop: Arc<AtomicBool>,
    service_tx: SyncSender<Event>,
    accept: Option<JoinHandle<()>>,
    service: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    registry: Arc<Mutex<HashMap<u64, Stream>>>,
}

impl BrokerHandle {
    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// The address the broker listens on.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Whether the broker has stopped serving (a wire [`Message::Shutdown`]
    /// sets this; [`BrokerHandle::shutdown`] must still be called to join
    /// the threads).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Gracefully stop the broker and join every thread it spawned.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock parked readers and conn writers first: a reader is
        // blocked in read_frame, a writer may be blocked on a gone client,
        // and the service may be blocked replying into a full writer queue
        // — shutting the sockets errors all of them out.
        for (_, stream) in self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
        {
            let _ = stream.shutdown();
        }
        // Wake the service (it may be parked on an empty queue) …
        let _ = self.service_tx.send(Event::Stop);
        // … and the accept loop (parked in accept()).
        let _ = Stream::connect(&self.addr);
        if let Some(thread) = self.accept.take() {
            let _ = thread.join();
        }
        if let Some(thread) = self.service.take() {
            let _ = thread.join();
        }
        let threads: Vec<JoinHandle<()>> = self
            .conn_threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for thread in threads {
            let _ = thread.join();
        }
        Ok(())
    }
}

/// Serve `core` on `listener`. `addrs` must already carry this broker's
/// address (the caller binds before spawning, so peers can connect the
/// moment this returns).
pub fn spawn_broker(
    core: BrokerCore,
    listener: Listener,
    addrs: AddrMap,
    limits: FrameLimits,
    queue_depth: usize,
) -> io::Result<BrokerHandle> {
    let id = core.id();
    let addr = listener.addr()?;
    let depth = queue_depth.max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let registry: Arc<Mutex<HashMap<u64, Stream>>> = Arc::new(Mutex::new(HashMap::new()));
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let (service_tx, service_rx) = sync_channel::<Event>(depth);

    let accept = {
        let acceptor = Acceptor {
            stop: Arc::clone(&stop),
            registry: Arc::clone(&registry),
            conn_threads: Arc::clone(&conn_threads),
            service_tx: service_tx.clone(),
            limits,
            depth,
        };
        std::thread::Builder::new()
            .name(format!("tps-net-accept-{id}"))
            .spawn(move || acceptor.run(listener))?
    };

    let service = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("tps-net-service-{id}"))
            .spawn(move || {
                Service::new(core, addrs, limits, depth, stop).run(service_rx);
            })?
    };

    Ok(BrokerHandle {
        id,
        addr,
        stop,
        service_tx,
        accept: Some(accept),
        service: Some(service),
        conn_threads,
        registry,
    })
}

/// The state the accept thread carries: everything a fresh connection's
/// reader/writer pair needs to be wired into the broker.
struct Acceptor {
    stop: Arc<AtomicBool>,
    registry: Arc<Mutex<HashMap<u64, Stream>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    service_tx: SyncSender<Event>,
    limits: FrameLimits,
    depth: usize,
}

impl Acceptor {
    fn run(self, listener: Listener) {
        let mut next_conn = 0u64;
        loop {
            let stream = match listener.accept() {
                Ok(stream) => stream,
                Err(_) if self.stop.load(Ordering::SeqCst) => break,
                Err(_) => {
                    // A persistent accept failure (e.g. fd exhaustion)
                    // must not turn into a hot spin pinning a core; back
                    // off briefly before retrying.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let conn = next_conn;
            next_conn += 1;
            let (Ok(read_half), Ok(registry_half)) = (stream.try_clone(), stream.try_clone())
            else {
                continue;
            };
            self.registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(conn, registry_half);
            let (out_tx, out_rx) = sync_channel::<Message>(self.depth);
            // Opened is sent before the reader exists, so the service learns
            // of the connection before its first frame can arrive.
            if self
                .service_tx
                .send(Event::Opened { conn, tx: out_tx })
                .is_err()
            {
                break;
            }
            let writer = std::thread::spawn(move || writer_loop(stream, out_rx));
            let reader = {
                let service_tx = self.service_tx.clone();
                let registry = Arc::clone(&self.registry);
                let limits = self.limits;
                std::thread::spawn(move || {
                    reader_loop(read_half, conn, service_tx, registry, limits)
                })
            };
            let mut threads = self
                .conn_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            threads.push(writer);
            threads.push(reader);
            // Reap threads of connections that already closed: an exited
            // but unjoined thread keeps its stack allocated, and a stats
            // poller opening thousands of short-lived connections (e.g. an
            // overlay quiescing) would otherwise exhaust thread stacks.
            let mut live = Vec::with_capacity(threads.len());
            for thread in threads.drain(..) {
                if thread.is_finished() {
                    let _ = thread.join();
                } else {
                    live.push(thread);
                }
            }
            *threads = live;
        }
    }
}

fn writer_loop(mut stream: Stream, rx: Receiver<Message>) {
    while let Ok(message) = rx.recv() {
        if write_frame(&mut stream, &message).is_err() {
            // Exiting drops `rx`; a service blocked sending a reply into
            // this queue unblocks with an error instead of wedging.
            break;
        }
    }
}

fn reader_loop(
    stream: Stream,
    conn: u64,
    service_tx: SyncSender<Event>,
    registry: Arc<Mutex<HashMap<u64, Stream>>>,
    limits: FrameLimits,
) {
    // Buffered: a frame's prefix and payload, and every further frame that
    // already arrived, come out of one `read`.
    let mut stream = BufReader::new(stream);
    // Clean EOF, I/O failure, or a malformed frame (after which the stream
    // cannot be resynchronised): close the connection.
    while let Ok(Some(message)) = read_frame(&mut stream, &limits) {
        if service_tx.send(Event::Frame { conn, message }).is_err() {
            break;
        }
    }
    if let Some(stream) = registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&conn)
    {
        let _ = stream.shutdown();
    }
    let _ = service_tx.send(Event::Closed { conn });
}

struct Service {
    core: BrokerCore,
    limits: FrameLimits,
    conns: HashMap<u64, ConnState>,
    /// Which connection a locally attached subscriber receives
    /// [`Message::Deliver`] pushes on (the one its subscribe arrived on).
    deliver_conns: HashMap<u64, u64>,
    neighbours: Vec<BrokerId>,
    peers: Vec<PeerLink>,
    dropped: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl Service {
    fn new(
        core: BrokerCore,
        addrs: AddrMap,
        limits: FrameLimits,
        depth: usize,
        stop: Arc<AtomicBool>,
    ) -> Self {
        let id = core.id();
        let neighbours = core.topology().neighbours(id).to_vec();
        let dropped = Arc::new(AtomicU64::new(0));
        let peers = neighbours
            .iter()
            .map(|&neighbour| {
                let (tx, rx) = sync_channel::<Message>(depth);
                let addrs = Arc::clone(&addrs);
                let dropped = Arc::clone(&dropped);
                let writer = std::thread::Builder::new()
                    .name(format!("tps-net-peer-{id}-{neighbour}"))
                    .spawn(move || peer_writer(id, neighbour, addrs, rx, dropped))
                    .ok();
                PeerLink {
                    tx: Some(tx),
                    writer,
                    pending: VecDeque::new(),
                }
            })
            .collect();
        Self {
            core,
            limits,
            conns: HashMap::new(),
            deliver_conns: HashMap::new(),
            neighbours,
            peers,
            dropped,
            stop,
        }
    }

    fn run(mut self, rx: Receiver<Event>) {
        'serve: loop {
            let first = match rx.recv() {
                Ok(event) => event,
                Err(_) => break,
            };
            let mut events = vec![first];
            while events.len() < SERVICE_BATCH {
                match rx.try_recv() {
                    Ok(event) => events.push(event),
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            }
            let mut out: Vec<Vec<Outbound>> = self.neighbours.iter().map(|_| Vec::new()).collect();
            let mut stopping = false;
            for event in events {
                stopping |= self.handle(event, &mut out);
            }
            self.flush(out);
            if stopping {
                break 'serve;
            }
        }
        self.stop.store(true, Ordering::SeqCst);
        // Close the peer queues and join the writers; conn writer queues
        // close when `conns` drops with us.
        for peer in &mut self.peers {
            peer.tx = None;
            if let Some(writer) = peer.writer.take() {
                let _ = writer.join();
            }
        }
    }

    /// Process one event; returns whether the broker should stop.
    fn handle(&mut self, event: Event, out: &mut [Vec<Outbound>]) -> bool {
        match event {
            Event::Opened { conn, tx } => {
                self.conns.insert(conn, ConnState { tx, peer: None });
            }
            Event::Closed { conn } => {
                self.conns.remove(&conn);
                // The subscriptions stay (disconnecting is not
                // unsubscribing); only the push channel is gone.
                self.deliver_conns.retain(|_, c| *c != conn);
            }
            Event::Stop => return true,
            Event::Frame { conn, message } => return self.handle_frame(conn, message, out),
        }
        false
    }

    fn handle_frame(&mut self, conn: u64, message: Message, out: &mut [Vec<Outbound>]) -> bool {
        match message {
            Message::Hello { broker } => {
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.peer = Some(broker as BrokerId);
                }
            }
            Message::Subscribe {
                subscriber,
                broker,
                pattern,
            } => {
                let arrival = self.arrival_link(conn);
                let from_peer = arrival.is_some() || !self.conns.contains_key(&conn);
                // Flood-received subscriptions were already admitted at
                // their home broker; only client subscriptions face lint.
                let result = if from_peer {
                    self.core.restore(subscriber, broker, &pattern)
                } else {
                    self.core.subscribe(subscriber, broker, &pattern)
                };
                match result {
                    Ok(true) => {
                        if broker as BrokerId == self.core.id() && !from_peer {
                            self.deliver_conns.insert(subscriber, conn);
                        }
                        self.reply(conn, Message::Ack);
                        // Flood on: duplicates terminate the broadcast at
                        // the first broker that already has the entry.
                        self.flood(
                            Message::Subscribe {
                                subscriber,
                                broker,
                                pattern,
                            },
                            arrival,
                        );
                    }
                    Ok(false) => {
                        // Idempotent re-subscribe: the view is unchanged
                        // (no flood), but a subscriber reconnecting after a
                        // drop needs its Deliver push channel re-attached
                        // to the new connection.
                        if broker as BrokerId == self.core.id() && !from_peer {
                            self.deliver_conns.insert(subscriber, conn);
                        }
                        self.reply(conn, Message::Ack);
                    }
                    Err((code, message)) => self.reply(conn, Message::Error { code, message }),
                }
            }
            Message::Unsubscribe { subscriber } => {
                if self.core.unsubscribe(subscriber) {
                    self.deliver_conns.remove(&subscriber);
                    self.flood(Message::Unsubscribe { subscriber }, self.arrival_link(conn));
                }
                // Idempotent: acknowledged whether or not the view changed.
                self.reply(conn, Message::Ack);
            }
            Message::Publish { document } => match self.core.publish(&document) {
                Ok(outcome) => {
                    self.dispatch(&outcome, &document, out);
                    self.reply(conn, Message::Ack);
                }
                Err((code, message)) => self.reply(conn, Message::Error { code, message }),
            },
            Message::Forward { from, documents } => {
                for document in documents {
                    if let Some(outcome) = self.core.forward_in(from as BrokerId, &document) {
                        self.dispatch(&outcome, &document, out);
                    }
                }
            }
            Message::ForwardMatched {
                from,
                view,
                documents,
            } => {
                for MatchedDocument { bytes, interested } in documents {
                    let routed = self.core.forward_matched(
                        from as BrokerId,
                        view,
                        &bytes,
                        interested.as_deref(),
                    );
                    if let Some(outcome) = routed {
                        self.dispatch(&outcome, &bytes, out);
                    }
                }
            }
            Message::Stats => {
                let mut stats = self.core.stats();
                stats.forwards_dropped += self.dropped.load(Ordering::Relaxed);
                self.reply(conn, Message::StatsReply { stats });
            }
            Message::SyncRequest => {
                let consumers = self.core.sync_state();
                self.reply(conn, Message::SyncState { consumers });
            }
            Message::Shutdown => {
                self.reply(conn, Message::Ack);
                self.stop.store(true, Ordering::SeqCst);
                return true;
            }
            // Reply verbs arriving as requests are ignored (a confused or
            // hostile client cannot corrupt broker state with them).
            Message::Ack
            | Message::Error { .. }
            | Message::StatsReply { .. }
            | Message::Deliver { .. }
            | Message::SyncState { .. } => {}
        }
        false
    }

    /// Push local deliveries to attached subscriber connections and queue
    /// the forward decisions of the document the core routed last, with the
    /// interest set and the view digest the core holds for it.
    fn dispatch(&mut self, outcome: &RouteOutcome, document: &[u8], out: &mut [Vec<Outbound>]) {
        for subscriber in &outcome.deliveries {
            let Some(&conn) = self.deliver_conns.get(subscriber) else {
                continue;
            };
            if let Some(state) = self.conns.get(&conn) {
                // A slow consumer loses pushes rather than wedging the
                // broker; the delivery counter tracks matching, not push
                // success (same as the simulator's counters).
                let _ = state.tx.try_send(Message::Deliver {
                    subscriber: *subscriber,
                    document: document.to_vec(),
                });
            }
        }
        if outcome.forwards.is_empty() {
            return;
        }
        // One buffer per document, shared by every link it leaves on. A set
        // the receiver's decoder would refuse is not sent: it matches then.
        let interest = self.core.interest();
        let interested: Option<Arc<[u64]>> =
            (interest.len() <= self.limits.max_subscriptions).then(|| interest.into());
        let view = self.core.view_digest();
        for &neighbour in &outcome.forwards {
            if let Some(link) = self.neighbours.iter().position(|&n| n == neighbour) {
                out[link].push(Outbound {
                    view,
                    document: MatchedDocument {
                        bytes: document.to_vec(),
                        interested: interested.clone(),
                    },
                });
            }
        }
    }

    /// Reply on a client connection. Peer links never get replies (they
    /// identified with [`Message::Hello`]), which keeps broker-to-broker
    /// links strictly one-directional and the overlay free of reply cycles.
    fn reply(&self, conn: u64, message: Message) {
        let Some(state) = self.conns.get(&conn) else {
            return;
        };
        if state.peer.is_some() {
            return;
        }
        // Blocking send: a request-reply client is by contract reading its
        // replies, and the writer queue absorbs bursts. If the client dies
        // instead, its writer exits and this send errors out harmlessly.
        let _ = state.tx.send(message);
    }

    /// The neighbour whose peer link `conn` is, if it is one.
    fn arrival_link(&self, conn: u64) -> Option<BrokerId> {
        self.conns.get(&conn).and_then(|state| state.peer)
    }

    /// Queue a control frame for every peer link but the one it arrived
    /// on: the overlay is a tree, so the sender's side already has it, and
    /// an echoed `Subscribe` overtaken by the matching `Unsubscribe` would
    /// re-install the departed subscriber there for good. Control is never
    /// dropped: frames that do not fit the queue park in the pending list,
    /// retried at every flush while the link lives.
    fn flood(&mut self, message: Message, arrival: Option<BrokerId>) {
        for (peer, &neighbour) in self.peers.iter_mut().zip(&self.neighbours) {
            if Some(neighbour) != arrival {
                peer.pending.push_back(message.clone());
            }
        }
    }

    /// End-of-batch: drain pending control, then ship at most a few
    /// [`Message::ForwardMatched`] frames per link, chunked under the frame
    /// limits. Documents that do not fit a saturated queue are dropped and
    /// counted — data is droppable, control is not.
    fn flush(&mut self, out: Vec<Vec<Outbound>>) {
        let from = self.core.id() as u32;
        for (link, documents) in out.into_iter().enumerate() {
            let peer = &mut self.peers[link];
            let Some(tx) = peer.tx.as_ref() else {
                self.dropped
                    .fetch_add(documents.len() as u64, Ordering::Relaxed);
                continue;
            };
            while let Some(message) = peer.pending.pop_front() {
                match tx.try_send(message) {
                    Ok(()) => {}
                    Err(TrySendError::Full(message)) => {
                        peer.pending.push_front(message);
                        break;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        peer.pending.clear();
                        break;
                    }
                }
            }
            for (view, batch) in chunk_documents(documents, &self.limits) {
                let count = batch.len() as u64;
                match tx.try_send(Message::ForwardMatched {
                    from,
                    view,
                    documents: batch,
                }) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                        self.dropped.fetch_add(count, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Split a link's documents into [`Message::ForwardMatched`]-sized chunks:
/// each holds documents of one view digest and stays under both the
/// batch-count and the frame-size limit of the receiver, interest sets
/// included. A document that would not fit a frame with its interest set
/// travels without it.
fn chunk_documents(
    documents: Vec<Outbound>,
    limits: &FrameLimits,
) -> Vec<(u128, Vec<MatchedDocument>)> {
    let mut chunks: Vec<(u128, Vec<MatchedDocument>)> = Vec::new();
    let mut bytes = 0usize;
    // Conservative per-frame budget: headers and length prefixes eat a few
    // dozen bytes, never more than this slack.
    let budget = limits.max_frame.saturating_sub(256);
    for Outbound { view, mut document } in documents {
        let mut cost = document.encoded_len();
        if cost > budget && document.interested.take().is_some() {
            cost = document.encoded_len();
        }
        match chunks.last_mut() {
            Some((current, chunk))
                if *current == view && chunk.len() < limits.max_batch && bytes + cost <= budget =>
            {
                chunk.push(document);
                bytes += cost;
            }
            _ => {
                chunks.push((view, vec![document]));
                bytes = cost;
            }
        }
    }
    chunks
}

/// One peer link's writer: lazily connects through the address map (so a
/// restarted neighbour is found at its new address), identifies itself
/// with [`Message::Hello`], retries a failed write once over a fresh
/// connection, and counts what it had to drop.
///
/// The current address is re-read from the map before *every* write and
/// compared to the address the cached connection was made to. This is what
/// makes failure counting deterministic: [`crate::overlay::LocalOverlay`]
/// clears a broker's map entry before stopping it, so the first forward
/// after a kill sees `None` and is counted as dropped instead of being
/// buffered into a dying socket that has not erred out yet.
fn peer_writer(
    me: BrokerId,
    neighbour: BrokerId,
    addrs: AddrMap,
    rx: Receiver<Message>,
    dropped: Arc<AtomicU64>,
) {
    let mut stream: Option<(Addr, Stream)> = None;
    while let Ok(message) = rx.recv() {
        let mut delivered = false;
        for _attempt in 0..2 {
            let target = addrs
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(neighbour)
                .cloned()
                .flatten();
            let Some(target) = target else {
                // The neighbour is down (or gone from the map): drop the
                // cached connection so a rejoin reconnects fresh.
                stream = None;
                break;
            };
            let stale = match &stream {
                Some((addr, _)) => addr != &target,
                None => true,
            };
            if stale {
                stream = open_peer_link(me, &target).map(|s| (target.clone(), s));
            }
            let Some((_, link)) = stream.as_mut() else {
                break;
            };
            if write_frame(link, &message).is_ok() {
                delivered = true;
                break;
            }
            stream = None;
        }
        if !delivered {
            if let Message::ForwardMatched { documents, .. } = &message {
                dropped.fetch_add(documents.len() as u64, Ordering::Relaxed);
            }
            // Dropped control resynchronises when the neighbour rejoins
            // (restart pulls a SyncState dump from a live broker).
        }
    }
}

fn open_peer_link(me: BrokerId, addr: &Addr) -> Option<Stream> {
    let mut stream = Stream::connect(addr).ok()?;
    // The receiving broker never writes on a peer link after Hello; a
    // sink thread is still needed to notice the close and free the socket.
    write_frame(&mut stream, &Message::Hello { broker: me as u32 }).ok()?;
    if let Ok(mut read_half) = stream.try_clone() {
        std::thread::spawn(move || {
            let mut sink = [0u8; 1024];
            while matches!(read_half.read(&mut sink), Ok(n) if n > 0) {}
        });
    }
    Some(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outbound(view: u128, bytes: usize, ids: Option<usize>) -> Outbound {
        Outbound {
            view,
            document: MatchedDocument {
                bytes: vec![b'x'; bytes],
                // Gaps of 200: two bytes per id.
                interested: ids.map(|n| (1..=n as u64).map(|i| i * 200).collect()),
            },
        }
    }

    fn shape(chunks: &[(u128, Vec<MatchedDocument>)]) -> Vec<(u128, usize)> {
        chunks.iter().map(|(view, c)| (*view, c.len())).collect()
    }

    #[test]
    fn chunks_hold_one_view_and_respect_the_batch_limit() {
        let limits = FrameLimits {
            max_batch: 3,
            ..FrameLimits::default()
        };
        let views = [7, 7, 7, 7, 9, 7];
        let documents = views.map(|view| outbound(view, 10, Some(2))).into();
        let chunks = chunk_documents(documents, &limits);
        assert_eq!(shape(&chunks), [(7, 3), (7, 1), (9, 1), (7, 1)]);
        assert!(chunk_documents(Vec::new(), &limits).is_empty());
    }

    #[test]
    fn the_frame_budget_counts_the_interest_sets() {
        // Room for 744 bytes of documents per frame. A document is 100
        // bytes + 4 + 1 bare, and 4 + 2 × 100 more with its 100 ids.
        let limits = FrameLimits {
            max_frame: 1000,
            ..FrameLimits::default()
        };
        let bare = (0..7).map(|_| outbound(1, 100, None)).collect();
        assert_eq!(shape(&chunk_documents(bare, &limits)), [(1, 7)]);
        let carrying = (0..7).map(|_| outbound(1, 100, Some(100))).collect();
        let chunks = chunk_documents(carrying, &limits);
        assert_eq!(shape(&chunks), [(1, 2), (1, 2), (1, 2), (1, 1)]);
        for (view, documents) in chunks {
            let frame = Message::ForwardMatched {
                from: 0,
                view,
                documents,
            };
            assert!(frame.encode().len() <= limits.max_frame);
        }
    }

    #[test]
    fn a_document_that_only_fits_without_its_interest_set_sheds_it() {
        let limits = FrameLimits {
            max_frame: 1000,
            ..FrameLimits::default()
        };
        let documents = vec![outbound(1, 600, Some(100)), outbound(1, 100, Some(10))];
        let chunks = chunk_documents(documents, &limits);
        assert_eq!(shape(&chunks), [(1, 2)]);
        assert_eq!(chunks[0].1[0].interested, None, "605 + 204 is over 744");
        assert!(chunks[0].1[1].interested.is_some());
        let frame = Message::ForwardMatched {
            from: 0,
            view: 1,
            documents: chunks.into_iter().next().unwrap().1,
        };
        assert!(frame.encode().len() <= limits.max_frame);
    }
}
