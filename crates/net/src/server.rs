//! The broker server: a thread per connection that reads a frame and
//! serves it, around one [`BrokerCore`] behind one lock.
//!
//! Thread layout per broker:
//!
//! * one **accept** thread turning connections into a reader + writer pair;
//! * per connection a **reader**. It blocks in a read holding no lock, then
//!   takes the core lock and serves that frame and every further frame
//!   already whole in its buffer, at most 64 of them. Under the lock it
//!   appends the batch's frames for each overlay link to that link's queue
//!   (at most one [`Message::ForwardMatched`] frame per link, batch and
//!   view digest) and queues pushes for *other* connections. After
//!   releasing the lock it drains the link queues it appended to, then
//!   writes its own connection's replies and pushes;
//! * per connection a **writer**, draining the bounded queue of pushes that
//!   other readers left for the connection. A reply queues behind those
//!   pushes while any is unwritten, so it never overtakes one.
//!
//! No thread exists per overlay link. A link's queue is drained by a thread
//! that appended to it and won the link's connection lock (`try_lock`): it
//! writes until the queue is empty and re-checks after unlocking, so a
//! frame appended by a thread that lost the race is never stranded. Links
//! reconnect through the shared [`AddrMap`], so a restarted neighbour is
//! found at its new address. Documents beyond the queue depth, or towards
//! a dead neighbour, are dropped and counted in
//! [`BrokerStats::forwards_dropped`](crate::codec::BrokerStats::forwards_dropped);
//! control frames (subscription floods) are never dropped by the queue.
//!
//! Deadlock freedom rests on three rules:
//!
//! 1. No socket write happens while the core lock is held.
//! 2. A reader never writes to the peer link it reads from: forwards and
//!    floods never go back over their arrival link.
//! 3. Pushes to *other* connections use that connection's bounded writer
//!    queue with `try_send`: a slow consumer loses pushes, counted in
//!    [`BrokerStats::pushes_dropped`](crate::codec::BrokerStats::pushes_dropped);
//!    it never blocks a reader.
//!
//! A blocked link write waits for the reader at the far end. By 1 that
//! reader never waits long for the lock, and by 3 it never waits for a
//! client (a peer link gets no replies), so it waits only for a link write
//! of its own — by 2 one further from where the chain began. The overlay is a tree, so every chain of blocked writes
//! moves away from its origin and ends at a leaf, whose link readers write
//! no link at all.
//!
//! Every forward leaves as [`Message::ForwardMatched`]: next to its bytes a
//! document carries the interest set the core computed for it and the frame
//! the view digest it was computed under, so a neighbour holding the same
//! view routes it without parsing or matching
//! ([`BrokerCore::forward_matched`]). A plain [`Message::Forward`] is still
//! accepted and matched locally; brokers no longer send it.
//!
//! Every local delivery leaves as [`Message::DeliverMatched`]: one push per
//! connection and document, naming every subscriber on the connection the
//! document matches. The document's bytes are one shared buffer, held by
//! each of its pushes and forwards.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, TryLockError};
use std::thread::JoinHandle;

use tps_routing::BrokerId;

use crate::broker::{BrokerCore, RouteOutcome};
use crate::client::DELIVERY_BACKLOG;
use crate::codec::{
    read_frame, take_buffered_frame, write_frame, FrameLimits, MatchedDocument, Message,
};
use crate::transport::{Addr, Listener, Stream};

/// Shared, mutable address map of the overlay: `addrs[b]` is where broker
/// `b` currently listens, `None` while it is down. Restarted brokers bind
/// fresh addresses; links look the current address up on every
/// (re)connect, so rejoin needs no coordination beyond this map.
pub type AddrMap = Arc<RwLock<Vec<Option<Addr>>>>;

/// An all-down address map for `brokers` brokers.
pub fn addr_map(brokers: usize) -> AddrMap {
    Arc::new(RwLock::new(vec![None; brokers]))
}

/// Number of frames a reader serves per hold of the core lock; also the
/// bound on how many documents can share one forward frame (before size
/// chunking).
const SERVICE_BATCH: usize = 64;

/// Lock `mutex`, recovering it from a panicked holder: no critical section
/// of this module leaves its data half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A routed document waiting for the end-of-batch flush towards one link.
struct Outbound {
    /// The view digest its interest set was computed under: only documents
    /// of one view share a frame.
    view: u128,
    document: MatchedDocument,
}

/// The write side of one accepted connection, shared by its reader and its
/// writer thread.
#[derive(Debug)]
struct WriteHalf {
    stream: Mutex<Stream>,
    /// Frames in the writer queue not yet written.
    queued: AtomicUsize,
}

/// One connection's bounded writer queue and its write side.
#[derive(Debug, Clone)]
struct Outbox {
    tx: SyncSender<Message>,
    half: Arc<WriteHalf>,
}

impl Outbox {
    fn new(stream: Stream, depth: usize) -> (Self, Receiver<Message>) {
        let (tx, rx) = sync_channel(depth);
        let half = Arc::new(WriteHalf {
            stream: Mutex::new(stream),
            queued: AtomicUsize::new(0),
        });
        (Self { tx, half }, rx)
    }

    /// Queue a push from another connection's reader; a full queue loses
    /// it (rule 3), and the caller learns so. Called under the core lock,
    /// so the queue holds pushes in core order.
    fn push(&self, message: Message) -> bool {
        self.half.queued.fetch_add(1, Ordering::SeqCst);
        let queued = self.tx.try_send(message).is_ok();
        if !queued {
            self.half.queued.fetch_sub(1, Ordering::SeqCst);
        }
        queued
    }

    /// Write the owning reader's frames after it released the core lock:
    /// in one write when no push is pending, else behind the pushes.
    fn answer(&self, frames: Vec<Message>) -> io::Result<()> {
        if self.half.queued.load(Ordering::SeqCst) == 0 {
            let mut bytes = Vec::new();
            for frame in &frames {
                write_frame(&mut bytes, frame)?;
            }
            return lock(&self.half.stream).write_all(&bytes);
        }
        for frame in frames {
            self.half.queued.fetch_add(1, Ordering::SeqCst);
            if self.tx.send(frame).is_err() {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
        }
        Ok(())
    }
}

/// One overlay link's outbound side.
#[derive(Debug)]
struct Link {
    neighbour: BrokerId,
    /// Frames waiting to leave, appended under the core lock, so they leave
    /// in core order: a flood is never overtaken by a forward computed
    /// under the view it created.
    queue: Mutex<VecDeque<Message>>,
    /// The connection and the address it was made to. Whoever holds this
    /// lock drains `queue`.
    conn: Mutex<Option<(Addr, Stream)>>,
}

/// Everything a broker's threads share.
#[derive(Debug)]
struct Shared {
    id: BrokerId,
    limits: FrameLimits,
    depth: usize,
    service: Mutex<Service>,
    links: Vec<Link>,
    addrs: AddrMap,
    /// Documents dropped on the way to a link.
    dropped: AtomicU64,
    stop: AtomicBool,
    /// A handle on every open accepted connection, for shutdown to unblock
    /// the threads parked on it.
    registry: Mutex<HashMap<u64, Stream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running broker: join handles plus the shutdown signal.
#[derive(Debug)]
pub struct BrokerHandle {
    addr: Addr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl BrokerHandle {
    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.shared.id
    }

    /// The address the broker listens on.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Whether the broker has stopped serving (a wire [`Message::Shutdown`]
    /// sets this; [`BrokerHandle::shutdown`] must still be called to join
    /// the threads).
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Gracefully stop the broker and join every thread it spawned.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop (parked in accept()) and let it finish
        // first, so no connection registers after the sweep below.
        let _ = Stream::connect(&self.addr);
        if let Some(thread) = self.accept.take() {
            let _ = thread.join();
        }
        // A reader is parked in a read, or writing to a gone client, and
        // a writer may be blocked on a gone client: shutting the sockets
        // errors all of them out.
        for (_, stream) in lock(&self.shared.registry).drain() {
            let _ = stream.shutdown();
        }
        let threads: Vec<JoinHandle<()>> = lock(&self.shared.conn_threads).drain(..).collect();
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
    let links = core
        .topology()
        .neighbours(id)
        .iter()
        .map(|&neighbour| Link {
            neighbour,
            queue: Mutex::default(),
            conn: Mutex::new(None),
        })
        .collect();
    let shared = Arc::new(Shared {
        id,
        limits,
        depth: queue_depth.max(1),
        service: Mutex::new(Service {
            core,
            conns: HashMap::new(),
            deliver_conns: HashMap::new(),
            pushes: Vec::new(),
            pushes_dropped: 0,
        }),
        links,
        addrs,
        dropped: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        registry: Mutex::default(),
        conn_threads: Mutex::default(),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("tps-net-accept-{id}"))
            .spawn(move || accept_loop(&shared, &listener))?
    };
    Ok(BrokerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    let mut next_conn = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => {
                // A persistent accept failure (e.g. fd exhaustion) must not
                // turn into a hot spin pinning a core; back off briefly
                // before retrying.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let conn = next_conn;
        next_conn += 1;
        let (Ok(read_half), Ok(registry_half)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        lock(&shared.registry).insert(conn, registry_half);
        let (outbox, rx) = Outbox::new(stream, shared.depth);
        // Known to the service before its reader exists, so pushes find
        // the connection from its first frame on.
        lock(&shared.service).conns.insert(conn, outbox.clone());
        let writer = {
            let half = Arc::clone(&outbox.half);
            std::thread::spawn(move || writer_loop(&half, &rx))
        };
        let reader = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || reader_loop(&shared, conn, read_half, &outbox))
        };
        let mut threads = lock(&shared.conn_threads);
        threads.push(writer);
        threads.push(reader);
        // Reap threads of connections that already closed: an exited but
        // unjoined thread keeps its stack allocated, and a stats poller
        // opening thousands of short-lived connections (e.g. an overlay
        // quiescing) would otherwise exhaust thread stacks.
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

fn writer_loop(half: &WriteHalf, rx: &Receiver<Message>) {
    while let Ok(message) = rx.recv() {
        let written = write_frame(&mut *lock(&half.stream), &message);
        half.queued.fetch_sub(1, Ordering::SeqCst);
        if written.is_err() {
            // Exiting drops `rx`; the reader's replies waiting behind the
            // pushes error out instead of wedging.
            break;
        }
    }
}

/// What a reader's frames produced during one hold of the core lock, plus
/// what it remembers about its connection between holds.
struct Batch<'a> {
    shared: &'a Shared,
    conn: u64,
    /// The neighbour a [`Message::Hello`] identified: peer links are
    /// fire-and-forget (no replies) and never carry a frame back.
    peer: Option<BrokerId>,
    /// Per link, the control frames to flood, in order.
    floods: Vec<Vec<Message>>,
    /// Per link, the routed documents, flushed after the floods.
    forwards: Vec<Vec<Outbound>>,
    /// Replies and pushes for this connection, in order.
    replies: Vec<Message>,
    stop: bool,
}

impl Batch<'_> {
    /// Reply on a client connection. Peer links never get replies, which
    /// keeps broker-to-broker links strictly one-directional.
    fn reply(&mut self, message: Message) {
        if self.peer.is_none() {
            self.replies.push(message);
        }
    }

    /// The link a forward from `from` arrived on: on a peer link the
    /// neighbour its [`Message::Hello`] named, whatever the frame claims,
    /// so no forward goes back over its arrival link (rule 2).
    fn arrival(&self, from: u32) -> BrokerId {
        self.peer.unwrap_or(from as BrokerId)
    }

    /// Queue a control frame for every peer link but the one it arrived
    /// on: the overlay is a tree, so the sender's side already has it, and
    /// an echoed `Subscribe` overtaken by the matching `Unsubscribe` would
    /// re-install the departed subscriber there for good.
    fn flood(&mut self, message: &Message) {
        for (link, floods) in self.shared.links.iter().zip(&mut self.floods) {
            if Some(link.neighbour) != self.peer {
                floods.push(message.clone());
            }
        }
    }
}

fn reader_loop(shared: &Shared, conn: u64, stream: Stream, outbox: &Outbox) {
    // Buffered: a frame's prefix and payload, and every further frame that
    // already arrived, come out of one `read`.
    let mut stream = BufReader::new(stream);
    let links = shared.links.len();
    let mut batch = Batch {
        shared,
        conn,
        peer: None,
        floods: (0..links).map(|_| Vec::new()).collect(),
        forwards: (0..links).map(|_| Vec::new()).collect(),
        replies: Vec::new(),
        stop: false,
    };
    // Clean EOF, I/O failure, or a malformed frame (after which the stream
    // cannot be resynchronised): close the connection.
    while let Ok(Some(first)) = read_frame(&mut stream, &shared.limits) {
        let mut malformed = false;
        let touched = {
            let mut service = lock(&shared.service);
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            service.handle_frame(first, &mut batch);
            // Only frames already whole in the buffer: a read here could
            // block with the lock held.
            for _ in 1..SERVICE_BATCH {
                if batch.stop {
                    break;
                }
                match take_buffered_frame(&mut stream, &shared.limits) {
                    Some(Ok(message)) => service.handle_frame(message, &mut batch),
                    Some(Err(_)) => {
                        malformed = true;
                        break;
                    }
                    None => break,
                }
            }
            if batch.stop {
                shared.stop.store(true, Ordering::SeqCst);
            }
            shared.enqueue(&mut batch)
        };
        for link in touched {
            shared.pump(&shared.links[link]);
        }
        let replies = std::mem::take(&mut batch.replies);
        if outbox.answer(replies).is_err() || malformed || batch.stop {
            break;
        }
    }
    if let Some(stream) = lock(&shared.registry).remove(&conn) {
        let _ = stream.shutdown();
    }
    let mut service = lock(&shared.service);
    service.conns.remove(&conn);
    // The subscriptions stay (disconnecting is not unsubscribing); only
    // the push channel is gone.
    service.deliver_conns.retain(|_, c| *c != conn);
}

impl Shared {
    /// Under the core lock: append the batch's floods, then its documents
    /// in [`Message::ForwardMatched`] frames chunked under the frame
    /// limits, to each link's queue. Documents that do not fit a full queue
    /// are dropped and counted — data is droppable, control is not.
    /// Returns the links appended to.
    fn enqueue(&self, batch: &mut Batch) -> Vec<usize> {
        let mut touched = Vec::new();
        for (index, link) in self.links.iter().enumerate() {
            let floods = std::mem::take(&mut batch.floods[index]);
            let documents = std::mem::take(&mut batch.forwards[index]);
            if floods.is_empty() && documents.is_empty() {
                continue;
            }
            let mut queue = lock(&link.queue);
            queue.extend(floods);
            for (view, documents) in chunk_documents(documents, &self.limits) {
                if queue.len() < self.depth {
                    queue.push_back(Message::ForwardMatched {
                        from: self.id as u32,
                        view,
                        documents,
                    });
                } else {
                    self.dropped
                        .fetch_add(documents.len() as u64, Ordering::Relaxed);
                }
            }
            touched.push(index);
        }
        touched
    }

    /// Drain `link`'s queue unless another thread is draining it. The
    /// holder of the link's connection writes until the queue is empty and
    /// re-checks after unlocking, so a frame appended by a thread whose
    /// `try_lock` failed is never stranded.
    fn pump(&self, link: &Link) {
        loop {
            let mut conn = match link.conn.try_lock() {
                Ok(conn) => conn,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            loop {
                // A statement of its own: the queue is never locked across
                // a write.
                let next = lock(&link.queue).pop_front();
                let Some(message) = next else { break };
                self.send(link.neighbour, &mut conn, &message);
            }
            drop(conn);
            if lock(&link.queue).is_empty() {
                return;
            }
        }
    }

    /// Write one frame towards `neighbour`: lazily connect through the
    /// address map (so a restarted neighbour is found at its new address),
    /// identify with [`Message::Hello`], retry a failed write once over a
    /// fresh connection, and count the documents of a frame that could not
    /// be written.
    ///
    /// The current address is re-read from the map before *every* write and
    /// compared to the address the cached connection was made to. This is
    /// what makes failure counting deterministic:
    /// [`crate::overlay::LocalOverlay`] clears a broker's map entry before
    /// stopping it, so the first forward after a kill sees `None` and is
    /// counted as dropped instead of being buffered into a dying socket
    /// that has not erred out yet.
    fn send(&self, neighbour: BrokerId, conn: &mut Option<(Addr, Stream)>, message: &Message) {
        for _attempt in 0..2 {
            let target = self
                .addrs
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(neighbour)
                .cloned()
                .flatten();
            let Some(target) = target else {
                // The neighbour is down (or gone from the map): drop the
                // cached connection so a rejoin reconnects fresh.
                *conn = None;
                break;
            };
            if !matches!(conn, Some((addr, _)) if *addr == target) {
                *conn = open_peer_link(self.id, &target).map(|stream| (target, stream));
            }
            let Some((_, stream)) = conn.as_mut() else {
                break;
            };
            if write_frame(stream, message).is_ok() {
                return;
            }
            *conn = None;
        }
        if let Message::ForwardMatched { documents, .. } = message {
            self.dropped
                .fetch_add(documents.len() as u64, Ordering::Relaxed);
        }
        // Dropped control resynchronises when the neighbour rejoins
        // (restart pulls a SyncState dump from a live broker).
    }
}

/// The receiving broker never writes on a peer link, so nothing reads
/// this side of it.
fn open_peer_link(me: BrokerId, addr: &Addr) -> Option<Stream> {
    let mut stream = Stream::connect(addr).ok()?;
    write_frame(&mut stream, &Message::Hello { broker: me as u32 }).ok()?;
    Some(stream)
}

/// The state behind the core lock.
#[derive(Debug)]
struct Service {
    core: BrokerCore,
    /// The writer queue of every open connection, for pushes.
    conns: HashMap<u64, Outbox>,
    /// Which connection a locally attached subscriber receives
    /// [`Message::DeliverMatched`] pushes on (the one its subscribe arrived
    /// on).
    deliver_conns: HashMap<u64, u64>,
    /// Scratch of [`Service::dispatch`]: one document's local deliveries as
    /// (connection, subscriber) pairs.
    pushes: Vec<(u64, u64)>,
    /// Deliveries lost to full writer queues.
    pushes_dropped: u64,
}

impl Service {
    fn handle_frame(&mut self, message: Message, batch: &mut Batch) {
        match message {
            Message::Hello { broker } => batch.peer = Some(broker as BrokerId),
            Message::Subscribe {
                subscriber,
                broker,
                pattern,
            } => {
                let from_peer = batch.peer.is_some();
                // Flood-received subscriptions were already admitted at
                // their home broker; only client subscriptions face lint.
                let result = if from_peer {
                    self.core.restore(subscriber, broker, &pattern)
                } else {
                    self.core.subscribe(subscriber, broker, &pattern)
                };
                match result {
                    Ok(changed) => {
                        // An idempotent re-subscribe leaves the view as it
                        // is (no flood), but a subscriber reconnecting after
                        // a drop needs its push channel re-attached.
                        if broker as BrokerId == self.core.id() && !from_peer {
                            self.deliver_conns.insert(subscriber, batch.conn);
                        }
                        batch.reply(Message::Ack);
                        // Flood on: duplicates terminate the broadcast at
                        // the first broker that already has the entry.
                        if changed {
                            let flood = Message::Subscribe {
                                subscriber,
                                broker,
                                pattern,
                            };
                            batch.flood(&flood);
                        }
                    }
                    Err((code, message)) => batch.reply(Message::Error { code, message }),
                }
            }
            Message::Unsubscribe { subscriber } => {
                if self.core.unsubscribe(subscriber) {
                    self.deliver_conns.remove(&subscriber);
                    batch.flood(&Message::Unsubscribe { subscriber });
                }
                // Idempotent: acknowledged whether or not the view changed.
                batch.reply(Message::Ack);
            }
            Message::Publish { document } => match self.core.publish(&document) {
                Ok(outcome) => {
                    self.dispatch(&outcome, &document.into(), batch);
                    batch.reply(Message::Ack);
                }
                Err((code, message)) => batch.reply(Message::Error { code, message }),
            },
            Message::Forward { from, documents } => {
                for document in documents {
                    if let Some(outcome) = self.core.forward_in(batch.arrival(from), &document) {
                        self.dispatch(&outcome, &document.into(), batch);
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
                        batch.arrival(from),
                        view,
                        &bytes,
                        interested.as_deref(),
                    );
                    if let Some(outcome) = routed {
                        self.dispatch(&outcome, &bytes, batch);
                    }
                }
            }
            Message::Stats => {
                let mut stats = self.core.stats();
                stats.forwards_dropped += batch.shared.dropped.load(Ordering::Relaxed);
                stats.pushes_dropped = self.pushes_dropped;
                batch.reply(Message::StatsReply { stats });
            }
            Message::SyncRequest => {
                let consumers = self.core.sync_state();
                batch.reply(Message::SyncState { consumers });
            }
            Message::Shutdown => {
                batch.reply(Message::Ack);
                batch.stop = true;
            }
            // Reply verbs arriving as requests are ignored (a confused or
            // hostile client cannot corrupt broker state with them).
            Message::Ack
            | Message::Error { .. }
            | Message::StatsReply { .. }
            | Message::Deliver { .. }
            | Message::DeliverMatched { .. }
            | Message::SyncState { .. } => {}
        }
    }

    /// Push local deliveries to attached subscriber connections, one push
    /// per connection, and queue the forward decisions of the document the
    /// core routed last, with the interest set and the view digest the core
    /// holds for it. Every push and forward shares `document`.
    fn dispatch(&mut self, outcome: &RouteOutcome, document: &Arc<[u8]>, batch: &mut Batch) {
        // Sorted by connection, then subscriber: each connection's
        // subscribers are one ascending run.
        self.pushes.clear();
        self.pushes.extend(
            outcome
                .deliveries
                .iter()
                .filter_map(|subscriber| Some((*self.deliver_conns.get(subscriber)?, *subscriber))),
        );
        self.pushes.sort_unstable();
        // Split so the receiver takes every push whole: within its
        // decoder's id limit and frame budget (an id costs at most a
        // 10-byte varint), and no larger than a client's delivery backlog,
        // which a push is expanded into.
        let limits = &batch.shared.limits;
        let fit = limits.max_frame.saturating_sub(256 + document.len()) / 10;
        let most = limits
            .max_subscriptions
            .min(DELIVERY_BACKLOG)
            .min(fit)
            .max(1);
        let mut rest = &self.pushes[..];
        while let Some(&(conn, _)) = rest.first() {
            let run = rest
                .iter()
                .take(most)
                .take_while(|(c, _)| *c == conn)
                .count();
            let push = Message::DeliverMatched {
                subscribers: rest[..run].iter().map(|&(_, s)| s).collect(),
                document: Arc::clone(document),
            };
            rest = &rest[run..];
            // The delivery counter tracks matching, not push success (same
            // as the simulator's counters).
            if conn == batch.conn {
                batch.replies.push(push);
            } else if let Some(outbox) = self.conns.get(&conn) {
                if !outbox.push(push) {
                    self.pushes_dropped += run as u64;
                }
            }
        }
        if outcome.forwards.is_empty() {
            return;
        }
        // A set the receiver's decoder would refuse is not sent: it matches
        // then.
        let interest = self.core.interest();
        let interested: Option<Arc<[u64]>> =
            (interest.len() <= batch.shared.limits.max_subscriptions).then(|| interest.into());
        let view = self.core.view_digest();
        for &neighbour in &outcome.forwards {
            if let Some(link) = batch
                .shared
                .links
                .iter()
                .position(|l| l.neighbour == neighbour)
            {
                batch.forwards[link].push(Outbound {
                    view,
                    document: MatchedDocument {
                        bytes: Arc::clone(document),
                        interested: interested.clone(),
                    },
                });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    #[test]
    fn a_reply_never_overtakes_a_push_queued_before_it() {
        let limits = FrameLimits::default();
        let listener = Listener::bind(Transport::Unix).unwrap();
        let mut client = Stream::connect(&listener.addr().unwrap()).unwrap();
        let (outbox, rx) = Outbox::new(listener.accept().unwrap(), 4);
        // Nothing queued: the reader writes its reply itself (no writer
        // thread runs yet).
        outbox.answer(vec![Message::Ack]).unwrap();
        assert_eq!(
            read_frame(&mut client, &limits).unwrap(),
            Some(Message::Ack)
        );
        // Another reader's push waits for the writer thread; the reply
        // queues behind it instead of reaching the socket first.
        let push = Message::DeliverMatched {
            subscribers: vec![1, 2].into(),
            document: b"<a/>"[..].into(),
        };
        outbox.push(push.clone());
        outbox.answer(vec![Message::Stats]).unwrap();
        let writer = {
            let half = Arc::clone(&outbox.half);
            std::thread::spawn(move || writer_loop(&half, &rx))
        };
        assert_eq!(read_frame(&mut client, &limits).unwrap(), Some(push));
        assert_eq!(
            read_frame(&mut client, &limits).unwrap(),
            Some(Message::Stats)
        );
        drop(outbox);
        writer.join().unwrap();
    }

    fn outbound(view: u128, bytes: usize, ids: Option<usize>) -> Outbound {
        Outbound {
            view,
            document: MatchedDocument {
                bytes: vec![b'x'; bytes].into(),
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
