//! The wire protocol: hand-rolled, length-prefixed binary frames.
//!
//! Every frame is a big-endian `u32` payload length followed by the
//! payload; the payload starts with a protocol version byte and a verb
//! byte, then verb-specific fields built from four primitives — `u32`,
//! `u64`, length-prefixed byte strings and length-prefixed UTF-8 strings —
//! all big-endian, no serde anywhere. Two verbs add a fifth: the interest
//! set of a [`MatchedDocument`] and the subscribers a
//! [`Message::DeliverMatched`] push names are lists of ascending subscriber
//! ids, sent as canonical LEB128 varints of their gaps (docs/NET.md,
//! "Canonical encodings"). Decoding never panics and never
//! trusts a length field: every count is checked against the bytes that
//! are actually present *and* against the hard [`FrameLimits`] (modelled
//! on `tps_xml::ScanLimits`) before anything is allocated, so a hostile
//! peer can neither crash a broker nor balloon its memory.
//!
//! [`Message::decode`] ∘ [`Message::encode`] is the identity for every
//! in-limit message, and every encoding is canonical: a payload that
//! decodes re-encodes to the same bytes — property-tested in this crate and
//! fuzzed by the `net` target of `tps-fuzz`.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// Protocol version carried by every frame. Version 2 added
/// [`Message::ForwardMatched`] and the view digest and
/// `forwards_rematched` counter of [`BrokerStats`]; version 3 dropped its
/// `communities` counter; version 4 added [`Message::DeliverMatched`], one
/// push per connection and document, and the `pushes_dropped` counter.
pub const PROTOCOL_VERSION: u8 = 4;

/// Hard limits a decoder enforces on incoming frames, in the mould of
/// `tps_xml::ScanLimits`: exceeding any of them is a typed
/// [`DecodeError`], never a panic or an unbounded allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimits {
    /// Maximum payload size of one frame, in bytes.
    pub max_frame: usize,
    /// Maximum length of a subscription pattern, in bytes.
    pub max_pattern: usize,
    /// Maximum size of one published document, in bytes.
    pub max_document: usize,
    /// Maximum number of documents in one forward batch.
    pub max_batch: usize,
    /// Maximum number of consumers in one state-sync reply, of subscriber
    /// ids in the interest set of one forwarded document, and of
    /// subscribers named by one delivery push.
    pub max_subscriptions: usize,
}

impl Default for FrameLimits {
    fn default() -> Self {
        Self {
            max_frame: 4 << 20,
            max_pattern: 4 << 10,
            max_document: 1 << 20,
            max_batch: 256,
            max_subscriptions: 1 << 16,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// The verb byte is not a known message kind.
    UnknownVerb(u8),
    /// The payload ended before a field was complete.
    Truncated,
    /// The payload continued past the last field of its verb.
    TrailingBytes(usize),
    /// A frame announced a payload larger than [`FrameLimits::max_frame`].
    FrameTooLarge {
        /// Announced payload size.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A pattern field exceeded [`FrameLimits::max_pattern`].
    PatternTooLong {
        /// Announced field size.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A document field exceeded [`FrameLimits::max_document`].
    DocumentTooLarge {
        /// Announced field size.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A forward batch exceeded [`FrameLimits::max_batch`] documents.
    BatchTooLarge {
        /// Announced batch size.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A state-sync reply exceeded [`FrameLimits::max_subscriptions`].
    SyncTooLarge {
        /// Announced consumer count.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// An interest set exceeded [`FrameLimits::max_subscriptions`] ids.
    InterestTooLarge {
        /// Announced id count.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A string field is not valid UTF-8.
    InvalidUtf8,
    /// An error reply carried an unknown error code.
    UnknownErrorCode(u16),
    /// A varint is not the shortest encoding of its value, or does not fit
    /// 64 bits.
    NonCanonicalVarint,
    /// The ids of an interest set do not ascend strictly (a zero gap), or
    /// run past `u64::MAX`.
    IdsNotAscending,
    /// The presence byte of an interest set is neither 0 nor 1.
    BadPresenceFlag(u8),
    /// A delivery push names no subscriber.
    NoSubscribers,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            DecodeError::UnknownVerb(v) => write!(f, "unknown verb byte {v:#04x}"),
            DecodeError::Truncated => write!(f, "payload truncated mid-field"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the last field"),
            DecodeError::FrameTooLarge { size, limit } => {
                write!(f, "frame of {size} bytes exceeds the {limit}-byte limit")
            }
            DecodeError::PatternTooLong { size, limit } => {
                write!(f, "pattern of {size} bytes exceeds the {limit}-byte limit")
            }
            DecodeError::DocumentTooLarge { size, limit } => {
                write!(f, "document of {size} bytes exceeds the {limit}-byte limit")
            }
            DecodeError::BatchTooLarge { size, limit } => {
                write!(
                    f,
                    "batch of {size} documents exceeds the {limit}-document limit"
                )
            }
            DecodeError::SyncTooLarge { size, limit } => {
                write!(
                    f,
                    "sync of {size} consumers exceeds the {limit}-consumer limit"
                )
            }
            DecodeError::InterestTooLarge { size, limit } => {
                write!(f, "interest set of {size} ids exceeds the {limit}-id limit")
            }
            DecodeError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            DecodeError::NonCanonicalVarint => {
                write!(f, "varint is overlong or does not fit 64 bits")
            }
            DecodeError::IdsNotAscending => {
                write!(f, "subscriber ids do not ascend strictly within 64 bits")
            }
            DecodeError::BadPresenceFlag(b) => write!(f, "presence byte {b:#04x} is not 0 or 1"),
            DecodeError::NoSubscribers => write!(f, "delivery push names no subscriber"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Application-level error codes carried by [`Message::Error`] replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The subscription pattern failed to parse.
    BadPattern,
    /// The lint pre-pass rejected the subscription.
    LintRejected,
    /// The published document was rejected by the scanner.
    BadDocument,
    /// The request referenced a broker outside the overlay topology.
    UnknownBroker,
    /// The subscriber id is already taken with a different subscription.
    DuplicateSubscriber,
}

impl ErrorCode {
    /// The stable wire value of this code.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::BadPattern => 1,
            ErrorCode::LintRejected => 2,
            ErrorCode::BadDocument => 3,
            ErrorCode::UnknownBroker => 4,
            ErrorCode::DuplicateSubscriber => 5,
        }
    }

    /// Decode a wire value back (`None` for unassigned codes).
    pub fn from_u16(code: u16) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::BadPattern),
            2 => Some(ErrorCode::LintRejected),
            3 => Some(ErrorCode::BadDocument),
            4 => Some(ErrorCode::UnknownBroker),
            5 => Some(ErrorCode::DuplicateSubscriber),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadPattern => "bad-pattern",
            ErrorCode::LintRejected => "lint-rejected",
            ErrorCode::BadDocument => "bad-document",
            ErrorCode::UnknownBroker => "unknown-broker",
            ErrorCode::DuplicateSubscriber => "duplicate-subscriber",
        };
        f.write_str(name)
    }
}

/// One consumer entry of a state-sync reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncConsumer {
    /// Overlay-wide subscriber id.
    pub subscriber: u64,
    /// The broker the consumer is attached to.
    pub broker: u32,
    /// The subscription pattern, as text.
    pub pattern: String,
}

/// End-of-run counters of one broker, as carried by a stats reply.
///
/// The routing counters (`deliveries`, `link_messages`,
/// `spurious_link_messages`, `match_operations`) mirror the definitions of
/// `tps_routing::NetworkStats` / `tps_sim::SimStats` field for field — the
/// conformance tests sum them across brokers and compare them against a
/// simulator run and a static `route_stream` evaluation of the same
/// scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Broker id within the overlay.
    pub broker: u32,
    /// Active consumers in this broker's (overlay-wide) subscription view.
    pub consumers: u64,
    /// Documents accepted from publishing clients at this broker.
    pub documents: u64,
    /// Local deliveries after exact per-consumer filtering.
    pub deliveries: u64,
    /// Documents this broker sent over overlay links (one per document per
    /// link).
    pub link_messages: u64,
    /// Link messages towards a subtree with no interested consumer.
    pub spurious_link_messages: u64,
    /// Pattern-match operations: subscriptions decided, not matcher calls.
    /// One per local consumer per document, plus per outgoing link the
    /// entries a first-hit scan of its table evaluates — for an exact table
    /// the consumers behind the link, in subscriber order, up to and
    /// including the first interested one (all of them when none is). The
    /// broker reads these off one walk of its `PatternSet`; the count is
    /// what the per-subscription loops of `BrokerNetwork::route_stream`
    /// and the simulator perform, so the three stay equal.
    pub match_operations: u64,
    /// Documents that arrived from peer brokers in forward batches.
    pub forwards_received: u64,
    /// Forwards that carried an interest set computed under a view digest
    /// other than this broker's, and were matched again here. At zero
    /// churn on a converged overlay it stays 0; `1 − forwards_rematched /
    /// forwards_received` is the share of forwards that skipped the match.
    pub forwards_rematched: u64,
    /// Documents dropped because a peer link was down or saturated.
    pub forwards_dropped: u64,
    /// Deliveries lost because a subscriber connection's writer queue was
    /// full or its writer gone: the subscribers a dropped push named, not
    /// the pushes. `deliveries` counts them all the same, as it counts
    /// matching, not push success.
    pub pushes_dropped: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// Routing-table rebuilds performed. An exact table is never built
    /// (its decisions come from the interest set), so this only counts
    /// the summarised tables of the compressed modes.
    pub table_rebuilds: u64,
    /// Size of the current routing table, in pattern nodes. For an exact
    /// table, the nodes of every subscription behind a link, kept as a
    /// running sum.
    pub table_nodes: u64,
    /// Digest of this broker's consumer view
    /// ([`BrokerCore::view_digest`](crate::broker::BrokerCore::view_digest)):
    /// two brokers hold the same view exactly when they report the same
    /// value.
    pub view_digest: u128,
}

/// One document of a [`Message::ForwardMatched`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedDocument {
    /// Raw document bytes, shared with the document's other forwards and
    /// its delivery pushes.
    pub bytes: Arc<[u8]>,
    /// The subscribers of the sender's view the document interests,
    /// strictly ascending — or `None` when the set was too large to send
    /// (over [`FrameLimits::max_subscriptions`] ids or over the frame
    /// budget) and the receiver has to match for itself. Shared, not
    /// copied, between the links one document leaves on.
    pub interested: Option<Arc<[u64]>>,
}

impl MatchedDocument {
    /// The bytes this document takes inside a frame.
    pub fn encoded_len(&self) -> usize {
        let ids = self
            .interested
            .as_deref()
            .map_or(0, |ids| 4 + gaps(ids).map(varint_len).sum::<usize>());
        4 + self.bytes.len() + 1 + ids
    }
}

/// One protocol message — requests and replies share the verb space
/// (replies have the high bit set), so a single decoder serves both
/// directions of a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Attach `subscriber` at `broker` with the given pattern text.
    Subscribe {
        /// Overlay-wide subscriber id.
        subscriber: u64,
        /// The broker the subscriber attaches to.
        broker: u32,
        /// Subscription pattern text (validated by the receiving broker).
        pattern: String,
    },
    /// Detach a subscriber.
    Unsubscribe {
        /// Overlay-wide subscriber id.
        subscriber: u64,
    },
    /// Publish one raw XML document at the receiving broker.
    Publish {
        /// Raw document bytes.
        document: Vec<u8>,
    },
    /// Request the broker's counters.
    Stats,
    /// A batch of documents forwarded from peer broker `from`.
    Forward {
        /// Sending broker id.
        from: u32,
        /// The forwarded documents, in publication order.
        documents: Vec<Vec<u8>>,
    },
    /// A batch of documents forwarded from peer broker `from`, each with
    /// the interest set `from` computed for it under the view `view`. A
    /// receiver holding the same view routes on the carried set and skips
    /// its own match (docs/NET.md, "Match once per overlay").
    ForwardMatched {
        /// Sending broker id.
        from: u32,
        /// The sender's view digest when it matched the documents.
        view: u128,
        /// The forwarded documents, in publication order.
        documents: Vec<MatchedDocument>,
    },
    /// Ask the broker to shut down gracefully.
    Shutdown,
    /// Ask the broker for a dump of its consumer view (rejoin resync).
    SyncRequest,
    /// First frame on a broker-to-broker link: the sender identifies
    /// itself as peer `broker`. Connections that never send it are client
    /// connections (and get replies); peer links are fire-and-forget.
    Hello {
        /// The connecting broker's id.
        broker: u32,
    },
    /// Positive acknowledgement of the previous request.
    Ack,
    /// Negative acknowledgement of the previous request.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to [`Message::Stats`].
    StatsReply {
        /// The broker's counters.
        stats: BrokerStats,
    },
    /// A matched document pushed to one subscriber's connection. Decoded,
    /// no longer sent: brokers push [`Message::DeliverMatched`], and a
    /// client does not take this as a push.
    Deliver {
        /// The matching subscriber.
        subscriber: u64,
        /// Raw document bytes.
        document: Vec<u8>,
    },
    /// Reply to [`Message::SyncRequest`].
    SyncState {
        /// The broker's consumer view, in subscriber-id order.
        consumers: Vec<SyncConsumer>,
    },
    /// A matched document pushed once to a connection, naming every
    /// subscriber on it that the document matches (docs/NET.md, "One push
    /// per connection and document").
    DeliverMatched {
        /// The matching subscribers, strictly ascending and never empty.
        subscribers: Arc<[u64]>,
        /// Raw document bytes, shared with the document's other pushes
        /// and forwards.
        document: Arc<[u8]>,
    },
}

const VERB_SUBSCRIBE: u8 = 0x01;
const VERB_UNSUBSCRIBE: u8 = 0x02;
const VERB_PUBLISH: u8 = 0x03;
const VERB_STATS: u8 = 0x04;
const VERB_FORWARD: u8 = 0x05;
const VERB_SHUTDOWN: u8 = 0x06;
const VERB_SYNC_REQUEST: u8 = 0x07;
const VERB_HELLO: u8 = 0x08;
const VERB_FORWARD_MATCHED: u8 = 0x09;
const VERB_ACK: u8 = 0x80;
const VERB_ERROR: u8 = 0x81;
const VERB_STATS_REPLY: u8 = 0x82;
const VERB_DELIVER: u8 = 0x83;
const VERB_SYNC_STATE: u8 = 0x84;
const VERB_DELIVER_MATCHED: u8 = 0x85;

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_be_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// The gaps an ascending id list is sent as: the first id, then each id
/// minus its predecessor.
fn gaps(ids: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let mut previous = 0;
    ids.iter().map(move |&id| {
        let gap = id.wrapping_sub(previous);
        previous = id;
        gap
    })
}

/// Bytes of the LEB128 encoding of `value`: one per started group of 7 bits.
fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// LEB128: 7 bits per byte, least significant group first, high bit set on
/// every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// An ascending id list: its count, then its gaps as varints.
fn put_ids(out: &mut Vec<u8>, ids: &[u64]) {
    put_u32(out, ids.len() as u32);
    for gap in gaps(ids) {
        put_varint(out, gap);
    }
}

/// A bounds-checked cursor over one frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        let mut b = [0u8; 16];
        b.copy_from_slice(self.take(16)?);
        Ok(u128::from_be_bytes(b))
    }

    /// A length-prefixed byte string; the announced length is checked
    /// against the bytes actually present before anything is copied.
    fn bytes_field(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A LEB128 varint in its one canonical form: at most ten bytes, no
    /// bits beyond the 64th, and no zero byte at the top (the shortest
    /// encoding of the value).
    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                return Err(DecodeError::NonCanonicalVarint);
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(DecodeError::NonCanonicalVarint);
                }
                return Ok(value);
            }
        }
        Err(DecodeError::NonCanonicalVarint)
    }

    fn string_field(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes_field()?).map_err(|_| DecodeError::InvalidUtf8)
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

impl Message {
    fn verb(&self) -> u8 {
        match self {
            Message::Subscribe { .. } => VERB_SUBSCRIBE,
            Message::Unsubscribe { .. } => VERB_UNSUBSCRIBE,
            Message::Publish { .. } => VERB_PUBLISH,
            Message::Stats => VERB_STATS,
            Message::Forward { .. } => VERB_FORWARD,
            Message::ForwardMatched { .. } => VERB_FORWARD_MATCHED,
            Message::Shutdown => VERB_SHUTDOWN,
            Message::SyncRequest => VERB_SYNC_REQUEST,
            Message::Hello { .. } => VERB_HELLO,
            Message::Ack => VERB_ACK,
            Message::Error { .. } => VERB_ERROR,
            Message::StatsReply { .. } => VERB_STATS_REPLY,
            Message::Deliver { .. } => VERB_DELIVER,
            Message::SyncState { .. } => VERB_SYNC_STATE,
            Message::DeliverMatched { .. } => VERB_DELIVER_MATCHED,
        }
    }

    /// Serialise the message payload (version byte, verb byte, fields) —
    /// without the outer length prefix, which [`write_frame`] adds.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Append the message payload to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        out.push(self.verb());
        match self {
            Message::Subscribe {
                subscriber,
                broker,
                pattern,
            } => {
                put_u64(out, *subscriber);
                put_u32(out, *broker);
                put_bytes(out, pattern.as_bytes());
            }
            Message::Unsubscribe { subscriber } => put_u64(out, *subscriber),
            Message::Publish { document } => put_bytes(out, document),
            Message::Stats | Message::Shutdown | Message::SyncRequest | Message::Ack => {}
            Message::Hello { broker } => put_u32(out, *broker),
            Message::Forward { from, documents } => {
                put_u32(out, *from);
                put_u32(out, documents.len() as u32);
                for document in documents {
                    put_bytes(out, document);
                }
            }
            Message::ForwardMatched {
                from,
                view,
                documents,
            } => {
                put_u32(out, *from);
                out.extend_from_slice(&view.to_be_bytes());
                put_u32(out, documents.len() as u32);
                for document in documents {
                    put_bytes(out, &document.bytes);
                    match document.interested.as_deref() {
                        None => out.push(0),
                        Some(ids) => {
                            out.push(1);
                            put_ids(out, ids);
                        }
                    }
                }
            }
            Message::Error { code, message } => {
                out.extend_from_slice(&code.to_u16().to_be_bytes());
                put_bytes(out, message.as_bytes());
            }
            Message::StatsReply { stats } => {
                put_u32(out, stats.broker);
                for value in [
                    stats.consumers,
                    stats.documents,
                    stats.deliveries,
                    stats.link_messages,
                    stats.spurious_link_messages,
                    stats.match_operations,
                    stats.forwards_received,
                    stats.forwards_rematched,
                    stats.forwards_dropped,
                    stats.pushes_dropped,
                    stats.errors,
                    stats.table_rebuilds,
                    stats.table_nodes,
                ] {
                    put_u64(out, value);
                }
                out.extend_from_slice(&stats.view_digest.to_be_bytes());
            }
            Message::Deliver {
                subscriber,
                document,
            } => {
                put_u64(out, *subscriber);
                put_bytes(out, document);
            }
            Message::SyncState { consumers } => {
                put_u32(out, consumers.len() as u32);
                for consumer in consumers {
                    put_u64(out, consumer.subscriber);
                    put_u32(out, consumer.broker);
                    put_bytes(out, consumer.pattern.as_bytes());
                }
            }
            Message::DeliverMatched {
                subscribers,
                document,
            } => {
                put_ids(out, subscribers);
                put_bytes(out, document);
            }
        }
    }

    /// Decode one frame payload under the given limits. Total work and
    /// allocation are bounded by `bytes.len()` and the limits; malformed
    /// input yields a typed [`DecodeError`], never a panic.
    pub fn decode(bytes: &[u8], limits: &FrameLimits) -> Result<Message, DecodeError> {
        if bytes.len() > limits.max_frame {
            return Err(DecodeError::FrameTooLarge {
                size: bytes.len(),
                limit: limits.max_frame,
            });
        }
        let mut reader = Reader::new(bytes);
        let version = reader.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let verb = reader.u8()?;
        let message = match verb {
            VERB_SUBSCRIBE => {
                let subscriber = reader.u64()?;
                let broker = reader.u32()?;
                let pattern = decode_pattern(&mut reader, limits)?;
                Message::Subscribe {
                    subscriber,
                    broker,
                    pattern,
                }
            }
            VERB_UNSUBSCRIBE => Message::Unsubscribe {
                subscriber: reader.u64()?,
            },
            VERB_PUBLISH => Message::Publish {
                document: decode_document(&mut reader, limits)?.to_vec(),
            },
            VERB_STATS => Message::Stats,
            VERB_FORWARD => {
                let from = reader.u32()?;
                let count = decode_batch_count(&mut reader, limits)?;
                let mut documents = Vec::with_capacity(count.min(reader.remaining()));
                for _ in 0..count {
                    documents.push(decode_document(&mut reader, limits)?.to_vec());
                }
                Message::Forward { from, documents }
            }
            VERB_FORWARD_MATCHED => {
                let from = reader.u32()?;
                let view = reader.u128()?;
                let count = decode_batch_count(&mut reader, limits)?;
                let mut documents = Vec::with_capacity(count.min(reader.remaining()));
                for _ in 0..count {
                    let bytes = decode_document(&mut reader, limits)?.into();
                    let interested = match reader.u8()? {
                        0 => None,
                        1 => Some(decode_interest(&mut reader, limits)?),
                        other => return Err(DecodeError::BadPresenceFlag(other)),
                    };
                    documents.push(MatchedDocument { bytes, interested });
                }
                Message::ForwardMatched {
                    from,
                    view,
                    documents,
                }
            }
            VERB_SHUTDOWN => Message::Shutdown,
            VERB_SYNC_REQUEST => Message::SyncRequest,
            VERB_HELLO => Message::Hello {
                broker: reader.u32()?,
            },
            VERB_ACK => Message::Ack,
            VERB_ERROR => {
                let raw = reader.u16()?;
                let code = ErrorCode::from_u16(raw).ok_or(DecodeError::UnknownErrorCode(raw))?;
                let message = reader.string_field()?;
                Message::Error { code, message }
            }
            VERB_STATS_REPLY => {
                let broker = reader.u32()?;
                let mut values = [0u64; 13];
                for value in &mut values {
                    *value = reader.u64()?;
                }
                Message::StatsReply {
                    stats: BrokerStats {
                        broker,
                        consumers: values[0],
                        documents: values[1],
                        deliveries: values[2],
                        link_messages: values[3],
                        spurious_link_messages: values[4],
                        match_operations: values[5],
                        forwards_received: values[6],
                        forwards_rematched: values[7],
                        forwards_dropped: values[8],
                        pushes_dropped: values[9],
                        errors: values[10],
                        table_rebuilds: values[11],
                        table_nodes: values[12],
                        view_digest: reader.u128()?,
                    },
                }
            }
            VERB_DELIVER => {
                let subscriber = reader.u64()?;
                let document = decode_document(&mut reader, limits)?.to_vec();
                Message::Deliver {
                    subscriber,
                    document,
                }
            }
            VERB_SYNC_STATE => {
                let count = reader.u32()? as usize;
                if count > limits.max_subscriptions {
                    return Err(DecodeError::SyncTooLarge {
                        size: count,
                        limit: limits.max_subscriptions,
                    });
                }
                let mut consumers = Vec::with_capacity(count.min(reader.remaining()));
                for _ in 0..count {
                    let subscriber = reader.u64()?;
                    let broker = reader.u32()?;
                    let pattern = decode_pattern(&mut reader, limits)?;
                    consumers.push(SyncConsumer {
                        subscriber,
                        broker,
                        pattern,
                    });
                }
                Message::SyncState { consumers }
            }
            VERB_DELIVER_MATCHED => {
                let subscribers = decode_interest(&mut reader, limits)?;
                if subscribers.is_empty() {
                    return Err(DecodeError::NoSubscribers);
                }
                Message::DeliverMatched {
                    subscribers,
                    document: decode_document(&mut reader, limits)?.into(),
                }
            }
            other => return Err(DecodeError::UnknownVerb(other)),
        };
        reader.finish()?;
        Ok(message)
    }
}

/// The document count of a forward batch, checked against the limit.
fn decode_batch_count(reader: &mut Reader<'_>, limits: &FrameLimits) -> Result<usize, DecodeError> {
    let count = reader.u32()? as usize;
    if count > limits.max_batch {
        return Err(DecodeError::BatchTooLarge {
            size: count,
            limit: limits.max_batch,
        });
    }
    Ok(count)
}

fn decode_pattern(reader: &mut Reader<'_>, limits: &FrameLimits) -> Result<String, DecodeError> {
    let len = reader.u32()? as usize;
    if len > limits.max_pattern {
        return Err(DecodeError::PatternTooLong {
            size: len,
            limit: limits.max_pattern,
        });
    }
    String::from_utf8(reader.take(len)?.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
}

/// A document field, borrowed from the payload: the caller copies it into
/// whichever buffer the message holds.
fn decode_document<'a>(
    reader: &mut Reader<'a>,
    limits: &FrameLimits,
) -> Result<&'a [u8], DecodeError> {
    let len = reader.u32()? as usize;
    if len > limits.max_document {
        return Err(DecodeError::DocumentTooLarge {
            size: len,
            limit: limits.max_document,
        });
    }
    reader.take(len)
}

/// An id list — the interest set of a forwarded document, or the
/// subscribers of a delivery push: an id count, then the ids as varints of
/// their gaps. The count is checked against the limit and every id takes
/// at least a byte, so the allocation is bounded by both before it is
/// made.
fn decode_interest(
    reader: &mut Reader<'_>,
    limits: &FrameLimits,
) -> Result<Arc<[u64]>, DecodeError> {
    let count = reader.u32()? as usize;
    if count > limits.max_subscriptions {
        return Err(DecodeError::InterestTooLarge {
            size: count,
            limit: limits.max_subscriptions,
        });
    }
    if count > reader.remaining() {
        return Err(DecodeError::Truncated);
    }
    let mut ids = Vec::with_capacity(count);
    let mut previous = 0u64;
    for index in 0..count {
        let gap = reader.varint()?;
        if gap == 0 && index > 0 {
            return Err(DecodeError::IdsNotAscending);
        }
        previous = previous
            .checked_add(gap)
            .ok_or(DecodeError::IdsNotAscending)?;
        ids.push(previous);
    }
    Ok(ids.into())
}

/// Errors of the framed stream I/O layer.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer sent a malformed frame.
    Decode(DecodeError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream i/o failed: {e}"),
            FrameError::Decode(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Write one message as a length-prefixed frame: prefix and payload are
/// assembled in one buffer and handed to the writer in one `write_all`, so
/// a frame on a `TCP_NODELAY` socket is one syscall and one segment.
pub fn write_frame(writer: &mut impl Write, message: &Message) -> io::Result<()> {
    let mut frame = vec![0u8; 4];
    message.encode_into(&mut frame);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    writer.write_all(&frame)?;
    writer.flush()
}

/// Read one length-prefixed frame and decode it. Returns `Ok(None)` when
/// the peer closed the stream cleanly at a frame boundary; an oversized
/// announced length is rejected *before* any buffer is allocated.
pub fn read_frame(
    reader: &mut impl Read,
    limits: &FrameLimits,
) -> Result<Option<Message>, FrameError> {
    let mut prefix = [0u8; 4];
    if !read_exact_or_eof(reader, &mut prefix)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > limits.max_frame {
        return Err(FrameError::Decode(DecodeError::FrameTooLarge {
            size: len,
            limit: limits.max_frame,
        }));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(Some(Message::decode(&payload, limits)?))
}

/// Decode the next frame if it is already whole in `reader`'s buffer,
/// without touching the stream beneath; `None` while the buffer holds less
/// than one frame. An oversized announced length is an error at once.
pub fn take_buffered_frame<R: Read>(
    reader: &mut BufReader<R>,
    limits: &FrameLimits,
) -> Option<Result<Message, DecodeError>> {
    let buffered = reader.buffer();
    let len = u32::from_be_bytes(buffered.get(..4)?.try_into().ok()?) as usize;
    if len > limits.max_frame {
        return Some(Err(DecodeError::FrameTooLarge {
            size: len,
            limit: limits.max_frame,
        }));
    }
    let message = Message::decode(buffered.get(4..4 + len)?, limits);
    reader.consume(4 + len);
    Some(message)
}

/// `read_exact` that reports a clean EOF *before the first byte* as
/// `Ok(false)` instead of an error.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::Subscribe {
                subscriber: 7,
                broker: 2,
                pattern: "//CD/composer".to_string(),
            },
            Message::Unsubscribe { subscriber: 7 },
            Message::Publish {
                document: b"<media><CD/></media>".to_vec(),
            },
            Message::Stats,
            Message::Forward {
                from: 1,
                documents: vec![b"<a/>".to_vec(), b"<b><c/></b>".to_vec()],
            },
            Message::ForwardMatched {
                from: 1,
                view: u128::MAX - 5,
                documents: vec![
                    MatchedDocument {
                        bytes: b"<a/>"[..].into(),
                        interested: Some(vec![0, 1, 127, 128, 1 << 40, u64::MAX].into()),
                    },
                    MatchedDocument {
                        bytes: b"<b><c/></b>"[..].into(),
                        interested: None,
                    },
                    MatchedDocument {
                        bytes: b""[..].into(),
                        interested: Some(Vec::new().into()),
                    },
                ],
            },
            Message::Shutdown,
            Message::SyncRequest,
            Message::Hello { broker: 2 },
            Message::Ack,
            Message::Error {
                code: ErrorCode::BadPattern,
                message: "expected a step".to_string(),
            },
            Message::StatsReply {
                stats: BrokerStats {
                    broker: 3,
                    consumers: 4,
                    documents: 5,
                    deliveries: 6,
                    link_messages: 7,
                    spurious_link_messages: 1,
                    match_operations: 99,
                    forwards_received: 2,
                    forwards_rematched: 1,
                    forwards_dropped: 0,
                    pushes_dropped: 11,
                    errors: 1,
                    table_rebuilds: 8,
                    table_nodes: 120,
                    view_digest: 0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978,
                },
            },
            Message::Deliver {
                subscriber: 9,
                document: b"<media/>".to_vec(),
            },
            Message::SyncState {
                consumers: vec![SyncConsumer {
                    subscriber: 0,
                    broker: 1,
                    pattern: "//book".to_string(),
                }],
            },
            Message::DeliverMatched {
                subscribers: vec![0, 3, 200, u64::MAX].into(),
                document: b"<media/>"[..].into(),
            },
        ]
    }

    #[test]
    fn encode_decode_is_identity_for_every_verb() {
        let limits = FrameLimits::default();
        for message in samples() {
            let encoded = message.encode();
            assert_eq!(Message::decode(&encoded, &limits), Ok(message));
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let limits = FrameLimits::default();
        let mut stream = Vec::new();
        for message in samples() {
            write_frame(&mut stream, &message).unwrap();
        }
        let mut cursor = io::Cursor::new(stream);
        for expected in samples() {
            let got = read_frame(&mut cursor, &limits).unwrap();
            assert_eq!(got, Some(expected));
        }
        assert_eq!(read_frame(&mut cursor, &limits).unwrap(), None);
    }

    #[test]
    fn take_buffered_frame_decodes_only_whole_buffered_frames() {
        let limits = FrameLimits::default();
        let mut stream = Vec::new();
        for message in samples() {
            write_frame(&mut stream, &message).unwrap();
        }
        // The first read buffers every frame but the last byte of the last.
        let (head, tail) = stream.split_at(stream.len() - 1);
        let mut reader = BufReader::new(head.chain(tail));
        assert_eq!(take_buffered_frame(&mut reader, &limits), None, "empty");
        reader.fill_buf().unwrap();
        let samples = samples();
        let (last, whole) = samples.split_last().unwrap();
        for expected in whole {
            let got = take_buffered_frame(&mut reader, &limits);
            assert_eq!(got, Some(Ok(expected.clone())));
        }
        let partial = reader.buffer().len();
        assert_eq!(take_buffered_frame(&mut reader, &limits), None);
        assert_eq!(reader.buffer().len(), partial, "a partial frame stays");
        // A read of the stream beneath completes it.
        assert_eq!(
            read_frame(&mut reader, &limits).unwrap(),
            Some(last.clone())
        );
        // A stream that ends inside a frame is an I/O error, never a clean
        // close.
        let mut reader = BufReader::new(head);
        reader.fill_buf().unwrap();
        while let Some(frame) = take_buffered_frame(&mut reader, &limits) {
            frame.unwrap();
        }
        assert!(matches!(
            read_frame(&mut reader, &limits),
            Err(FrameError::Io(_))
        ));

        let oversized = ((limits.max_frame + 1) as u32).to_be_bytes();
        let mut reader = BufReader::new(&oversized[..]);
        reader.fill_buf().unwrap();
        assert!(matches!(
            take_buffered_frame(&mut reader, &limits),
            Some(Err(DecodeError::FrameTooLarge { .. }))
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_prefix() {
        let limits = FrameLimits::default();
        for message in samples() {
            let encoded = message.encode();
            for cut in 0..encoded.len() {
                let result = Message::decode(&encoded[..cut], &limits);
                assert!(result.is_err(), "decode accepted a truncated {message:?}");
            }
        }
    }

    #[test]
    fn version_and_verb_are_checked() {
        let limits = FrameLimits::default();
        assert_eq!(
            Message::decode(&[9, VERB_ACK], &limits),
            Err(DecodeError::UnsupportedVersion(9))
        );
        assert_eq!(
            Message::decode(&[PROTOCOL_VERSION, 0x7f], &limits),
            Err(DecodeError::UnknownVerb(0x7f))
        );
        assert_eq!(Message::decode(&[], &limits), Err(DecodeError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let limits = FrameLimits::default();
        let mut encoded = Message::Ack.encode();
        encoded.push(0);
        assert_eq!(
            Message::decode(&encoded, &limits),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn field_limits_yield_typed_errors_without_allocation() {
        let limits = FrameLimits {
            max_pattern: 4,
            max_document: 4,
            max_batch: 1,
            ..FrameLimits::default()
        };
        let long_pattern = Message::Subscribe {
            subscriber: 0,
            broker: 0,
            pattern: "/a/b/c/d/e".to_string(),
        };
        assert_eq!(
            Message::decode(&long_pattern.encode(), &limits),
            Err(DecodeError::PatternTooLong { size: 10, limit: 4 })
        );
        let big_document = Message::Publish {
            document: b"<aaaaaa/>".to_vec(),
        };
        assert_eq!(
            Message::decode(&big_document.encode(), &limits),
            Err(DecodeError::DocumentTooLarge { size: 9, limit: 4 })
        );
        let batch = Message::Forward {
            from: 0,
            documents: vec![b"<a/>".to_vec(), b"<b/>".to_vec()],
        };
        assert_eq!(
            Message::decode(&batch.encode(), &limits),
            Err(DecodeError::BatchTooLarge { size: 2, limit: 1 })
        );
    }

    /// A `ForwardMatched` payload holding one empty document whose interest
    /// set is `count` ids followed by the raw `ids` bytes.
    fn matched_payload(count: u32, ids: &[u8]) -> Vec<u8> {
        let mut payload = vec![PROTOCOL_VERSION, VERB_FORWARD_MATCHED];
        payload.extend_from_slice(&3u32.to_be_bytes());
        payload.extend_from_slice(&7u128.to_be_bytes());
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&0u32.to_be_bytes());
        payload.push(1);
        payload.extend_from_slice(&count.to_be_bytes());
        payload.extend_from_slice(ids);
        payload
    }

    fn decoded_interest(count: u32, ids: &[u8]) -> Result<Vec<u64>, DecodeError> {
        match Message::decode(&matched_payload(count, ids), &FrameLimits::default())? {
            Message::ForwardMatched { documents, .. } => Ok(documents[0]
                .interested
                .as_deref()
                .expect("the payload carries a set")
                .to_vec()),
            other => panic!("expected ForwardMatched, got {other:?}"),
        }
    }

    #[test]
    fn varints_have_one_encoding() {
        for value in [0, 1, 127, 128, 300, (1 << 56) - 1, 1 << 63, u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, value);
            assert_eq!(bytes.len(), varint_len(value), "{value}");
            assert_eq!(decoded_interest(1, &bytes), Ok(vec![value]));
            // The same value with a zero group on top is refused.
            if bytes.len() < 10 {
                let last = bytes.len() - 1;
                bytes[last] |= 0x80;
                bytes.push(0);
                assert_eq!(
                    decoded_interest(1, &bytes),
                    Err(DecodeError::NonCanonicalVarint),
                    "{value}"
                );
            }
        }
        // Ten bytes may only carry one bit in the last; eleven are too many.
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert_eq!(
            decoded_interest(1, &wide),
            Err(DecodeError::NonCanonicalVarint)
        );
        let mut long = vec![0x80; 10];
        long.push(0x01);
        assert_eq!(
            decoded_interest(1, &long),
            Err(DecodeError::NonCanonicalVarint)
        );
        assert_eq!(decoded_interest(1, &[0x80]), Err(DecodeError::Truncated));
    }

    #[test]
    fn interest_sets_are_gaps_behind_a_presence_byte() {
        assert_eq!(decoded_interest(3, &[5, 1, 2]), Ok(vec![5, 6, 8]));
        assert_eq!(decoded_interest(2, &[0, 1]), Ok(vec![0, 1]));
        let mut payload = matched_payload(0, &[]);
        let flag = payload.len() - 5;
        payload[flag] = 2;
        assert_eq!(
            Message::decode(&payload, &FrameLimits::default()),
            Err(DecodeError::BadPresenceFlag(2))
        );
    }

    /// A `DeliverMatched` payload whose subscriber list is `count` ids
    /// followed by the raw `ids` bytes, then the document `<a/>`.
    fn delivery_payload(count: u32, ids: &[u8]) -> Vec<u8> {
        let mut payload = vec![PROTOCOL_VERSION, VERB_DELIVER_MATCHED];
        payload.extend_from_slice(&count.to_be_bytes());
        payload.extend_from_slice(ids);
        put_bytes(&mut payload, b"<a/>");
        payload
    }

    fn decoded_subscribers(count: u32, ids: &[u8]) -> Result<Vec<u64>, DecodeError> {
        match Message::decode(&delivery_payload(count, ids), &FrameLimits::default())? {
            Message::DeliverMatched {
                subscribers,
                document,
            } => {
                assert_eq!(&document[..], b"<a/>");
                Ok(subscribers.to_vec())
            }
            other => panic!("expected DeliverMatched, got {other:?}"),
        }
    }

    #[test]
    fn delivery_pushes_name_ascending_subscribers_as_gaps() {
        assert_eq!(decoded_subscribers(3, &[5, 1, 2]), Ok(vec![5, 6, 8]));
        assert_eq!(decoded_subscribers(1, &[0]), Ok(vec![0]));
    }

    #[test]
    fn a_delivery_push_naming_no_subscriber_is_refused() {
        assert_eq!(decoded_subscribers(0, &[]), Err(DecodeError::NoSubscribers));
    }

    #[test]
    fn a_delivery_push_whose_ids_do_not_ascend_is_refused() {
        // A repeated id: a zero gap after the first.
        assert_eq!(
            decoded_subscribers(2, &[5, 0]),
            Err(DecodeError::IdsNotAscending)
        );
        // A gap that carries the id past `u64::MAX`.
        let mut ids = vec![0xff; 9];
        ids.push(0x01);
        ids.push(1);
        assert_eq!(
            decoded_subscribers(2, &ids),
            Err(DecodeError::IdsNotAscending)
        );
    }

    #[test]
    fn a_delivery_push_over_the_subscriber_limit_is_refused() {
        let limits = FrameLimits {
            max_subscriptions: 2,
            ..FrameLimits::default()
        };
        assert_eq!(
            Message::decode(&delivery_payload(3, &[1, 1, 1]), &limits),
            Err(DecodeError::InterestTooLarge { size: 3, limit: 2 })
        );
        let count = FrameLimits::default().max_subscriptions as u32 + 1;
        assert_eq!(
            decoded_subscribers(count, &[]),
            Err(DecodeError::InterestTooLarge {
                size: count as usize,
                limit: count as usize - 1
            })
        );
    }

    #[test]
    fn a_truncated_delivery_push_is_refused() {
        // More ids announced than bytes left, the document included.
        assert_eq!(
            decoded_subscribers(100, &[1, 1]),
            Err(DecodeError::Truncated)
        );
        // The list ends inside a varint.
        let mut payload = vec![PROTOCOL_VERSION, VERB_DELIVER_MATCHED];
        payload.extend_from_slice(&2u32.to_be_bytes());
        payload.extend_from_slice(&[1, 0x80]);
        assert_eq!(
            Message::decode(&payload, &FrameLimits::default()),
            Err(DecodeError::Truncated)
        );
        // The list is whole and the document is missing.
        let mut payload = delivery_payload(1, &[7]);
        payload.truncate(payload.len() - 8);
        assert_eq!(
            Message::decode(&payload, &FrameLimits::default()),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn encoded_len_is_what_a_matched_document_adds_to_a_frame() {
        let empty = Message::ForwardMatched {
            from: 0,
            view: 0,
            documents: Vec::new(),
        }
        .encode()
        .len();
        for message in samples() {
            if let Message::ForwardMatched {
                from,
                view,
                documents,
            } = message
            {
                for document in documents {
                    let alone = Message::ForwardMatched {
                        from,
                        view,
                        documents: vec![document.clone()],
                    };
                    assert_eq!(alone.encode().len() - empty, document.encoded_len());
                }
            }
        }
    }

    #[test]
    fn a_frame_is_written_with_one_write() {
        struct CountingWriter(Vec<Vec<u8>>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for message in samples() {
            let mut writer = CountingWriter(Vec::new());
            write_frame(&mut writer, &message).unwrap();
            assert_eq!(writer.0.len(), 1, "{message:?}");
            let payload = message.encode();
            assert_eq!(writer.0[0][..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(writer.0[0][4..], payload[..]);
        }
    }

    #[test]
    fn announced_lengths_never_outrun_the_payload() {
        // A document field claiming 1 GiB with 4 bytes present must fail
        // with Truncated (after the limit check) without allocating.
        let limits = FrameLimits::default();
        let mut payload = vec![PROTOCOL_VERSION, VERB_PUBLISH];
        payload.extend_from_slice(&(1u32 << 19).to_be_bytes());
        payload.extend_from_slice(b"tiny");
        assert_eq!(
            Message::decode(&payload, &limits),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn oversized_frames_are_rejected_before_reading_the_payload() {
        let limits = FrameLimits {
            max_frame: 8,
            ..FrameLimits::default()
        };
        let mut stream = Vec::new();
        stream.extend_from_slice(&(1u32 << 30).to_be_bytes());
        let mut cursor = io::Cursor::new(stream);
        match read_frame(&mut cursor, &limits) {
            Err(FrameError::Decode(DecodeError::FrameTooLarge { size, limit })) => {
                assert_eq!(size, 1 << 30);
                assert_eq!(limit, 8);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn error_codes_round_trip_and_unknown_codes_are_typed() {
        for code in [
            ErrorCode::BadPattern,
            ErrorCode::LintRejected,
            ErrorCode::BadDocument,
            ErrorCode::UnknownBroker,
            ErrorCode::DuplicateSubscriber,
        ] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()), Some(code));
        }
        let limits = FrameLimits::default();
        let mut payload = vec![PROTOCOL_VERSION, VERB_ERROR];
        payload.extend_from_slice(&999u16.to_be_bytes());
        payload.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(
            Message::decode(&payload, &limits),
            Err(DecodeError::UnknownErrorCode(999))
        );
    }
}
