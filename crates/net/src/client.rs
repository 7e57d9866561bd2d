//! A synchronous request-reply client for one broker connection.
//!
//! The protocol interleaves asynchronous [`Message::DeliverMatched`] pushes
//! with request replies on the same connection; the client buffers pushes
//! that arrive while it is waiting for a reply, so `subscribe → publish →
//! read deliveries` works on a single connection without extra threads.
//!
//! A push names every subscriber on the connection its document matches;
//! the client hands it out as one delivery per subscriber, in id order,
//! and copies the document only when it hands a delivery out.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::sync::Arc;
use std::time::Duration;

use crate::codec::{
    read_frame, take_buffered_frame, write_frame, BrokerStats, DecodeError, ErrorCode, FrameError,
    FrameLimits, Message, SyncConsumer,
};
use crate::transport::{Addr, Stream};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed at the socket layer.
    Io(io::Error),
    /// The broker sent a frame this client could not decode.
    Frame(DecodeError),
    /// The broker answered with an error reply.
    Remote {
        /// The broker's error code.
        code: ErrorCode,
        /// The broker's detail message.
        message: String,
    },
    /// The broker answered with an unexpected verb.
    Protocol(String),
    /// The broker closed the connection.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Frame(e) => write!(f, "malformed reply: {e}"),
            ClientError::Remote { code, message } => write!(f, "broker error [{code}]: {message}"),
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ClientError::Disconnected => write!(f, "broker closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Decode(e) => ClientError::Frame(e),
        }
    }
}

/// Deliveries a client keeps for a caller that is not taking them — one per
/// subscriber a push names. A subscriber that only ever sends requests
/// would otherwise buffer every document pushed at it, without bound; like
/// the broker's own queues, the client keeps the newest and counts what it
/// let go.
pub const DELIVERY_BACKLOG: usize = 1024;

/// A connected broker client.
#[derive(Debug)]
pub struct BrokerClient {
    /// Buffered: a push that arrives with or behind another frame is
    /// decoded without a syscall.
    stream: BufReader<Stream>,
    limits: FrameLimits,
    /// The read timeout the socket holds; set only when it changes.
    timeout: Option<Duration>,
    /// At most [`DELIVERY_BACKLOG`] deliveries, oldest first; the
    /// deliveries of one push share its document.
    pending: VecDeque<(u64, Arc<[u8]>)>,
    dropped: u64,
}

impl BrokerClient {
    /// Connect to a broker.
    pub fn connect(addr: &Addr, limits: FrameLimits) -> io::Result<Self> {
        Ok(Self {
            stream: BufReader::new(Stream::connect(addr)?),
            limits,
            timeout: None,
            pending: VecDeque::new(),
            dropped: 0,
        })
    }

    /// Send one request and read frames until its reply arrives, buffering
    /// the deliveries of the pushes that come first (the newest
    /// [`DELIVERY_BACKLOG`] of them).
    fn roundtrip(&mut self, request: &Message) -> Result<Message, ClientError> {
        self.arm(None)?;
        write_frame(self.stream.get_mut(), request)?;
        loop {
            let frame = read_frame(&mut self.stream, &self.limits)?;
            if let Some(reply) = self.buffer_push(frame.ok_or(ClientError::Disconnected)?) {
                return Ok(reply);
            }
        }
    }

    /// Buffer a push as one delivery per subscriber it names, in id order,
    /// dropping the oldest deliveries past [`DELIVERY_BACKLOG`]; any other
    /// frame is handed back.
    fn buffer_push(&mut self, frame: Message) -> Option<Message> {
        let Message::DeliverMatched {
            subscribers,
            document,
        } = frame
        else {
            return Some(frame);
        };
        for &subscriber in subscribers.iter() {
            if self.pending.len() == DELIVERY_BACKLOG {
                self.pending.pop_front();
                self.dropped += 1;
            }
            self.pending.push_back((subscriber, Arc::clone(&document)));
        }
        None
    }

    fn expect_ack(reply: Message) -> Result<(), ClientError> {
        match reply {
            Message::Ack => Ok(()),
            Message::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Ack, got {other:?}"
            ))),
        }
    }

    /// Attach `subscriber` at `broker` with the given pattern text.
    pub fn subscribe(
        &mut self,
        subscriber: u64,
        broker: u32,
        pattern: &str,
    ) -> Result<(), ClientError> {
        let reply = self.roundtrip(&Message::Subscribe {
            subscriber,
            broker,
            pattern: pattern.to_string(),
        })?;
        Self::expect_ack(reply)
    }

    /// Detach a subscriber (idempotent).
    pub fn unsubscribe(&mut self, subscriber: u64) -> Result<(), ClientError> {
        let reply = self.roundtrip(&Message::Unsubscribe { subscriber })?;
        Self::expect_ack(reply)
    }

    /// Publish one raw XML document at the connected broker, waiting for
    /// its acknowledgement (the closed-loop latency the bench measures).
    pub fn publish(&mut self, document: &[u8]) -> Result<(), ClientError> {
        let reply = self.roundtrip(&Message::Publish {
            document: document.to_vec(),
        })?;
        Self::expect_ack(reply)
    }

    /// Fetch the broker's counters.
    pub fn stats(&mut self) -> Result<BrokerStats, ClientError> {
        match self.roundtrip(&Message::Stats)? {
            Message::StatsReply { stats } => Ok(stats),
            Message::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected StatsReply, got {other:?}"
            ))),
        }
    }

    /// Fetch the broker's consumer view (used by rejoin resync).
    pub fn sync_state(&mut self) -> Result<Vec<SyncConsumer>, ClientError> {
        match self.roundtrip(&Message::SyncRequest)? {
            Message::SyncState { consumers } => Ok(consumers),
            Message::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected SyncState, got {other:?}"
            ))),
        }
    }

    /// Ask the broker to stop serving (acknowledged before it stops).
    pub fn shutdown_broker(&mut self) -> Result<(), ClientError> {
        let reply = self.roundtrip(&Message::Shutdown)?;
        Self::expect_ack(reply)
    }

    /// Deliveries buffered so far, without touching the socket.
    pub fn take_deliveries(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.pending
            .drain(..)
            .map(|(subscriber, document)| (subscriber, document.to_vec()))
            .collect()
    }

    /// Deliveries dropped because more than [`DELIVERY_BACKLOG`] arrived
    /// between two calls that take them.
    pub fn deliveries_dropped(&self) -> u64 {
        self.dropped
    }

    /// Wait up to `timeout` for the next delivery: the oldest one buffered,
    /// else the first of the next push. Returns `Ok(None)` on timeout.
    ///
    /// The timeout is armed only while nothing of a frame is buffered, so a
    /// timed-out read consumes nothing and the stream stays frame-aligned.
    /// Once a frame has started, the rest is read without a timeout —
    /// timing out mid-frame would discard the bytes already consumed and
    /// desynchronise the connection for good. A frame already whole in the
    /// buffer costs no syscall.
    pub fn recv_delivery(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(u64, Vec<u8>)>, ClientError> {
        if self.pending.is_empty() {
            let message = loop {
                if let Some(frame) = take_buffered_frame(&mut self.stream, &self.limits) {
                    break frame.map_err(ClientError::Frame)?;
                }
                if !self.stream.buffer().is_empty() {
                    self.arm(None)?;
                    break read_frame(&mut self.stream, &self.limits)?
                        .ok_or(ClientError::Disconnected)?;
                }
                self.arm(Some(timeout))?;
                match self.stream.fill_buf() {
                    Ok([]) => return Err(ClientError::Disconnected),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        return Ok(None);
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            if let Some(other) = self.buffer_push(message) {
                return Err(ClientError::Protocol(format!(
                    "expected a delivery push, got {other:?}"
                )));
            }
        }
        Ok(self
            .pending
            .pop_front()
            .map(|(subscriber, document)| (subscriber, document.to_vec())))
    }

    /// Set the socket's read timeout, unless it already holds `timeout`.
    fn arm(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.timeout != timeout {
            self.stream.get_ref().set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }
}
