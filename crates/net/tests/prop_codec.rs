//! Property tests of the wire codec: `decode ∘ encode` is the identity
//! over randomly generated messages, every accepted payload re-encodes to
//! itself (encodings are canonical), and `decode` over arbitrary bytes is
//! total (an `Ok` or a typed error, never a panic).

use proptest::collection::{btree_set, vec};
use proptest::prelude::*;

use tps_net::codec::{BrokerStats, SyncConsumer};
use tps_net::{DecodeError, FrameLimits, MatchedDocument, Message, PROTOCOL_VERSION};

fn text() -> impl Strategy<Value = String> {
    vec(
        prop::sample::select("abcdepst/[]*=\"'".chars().collect::<Vec<char>>()),
        0..40,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn document() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..200)
}

fn stats() -> impl Strategy<Value = BrokerStats> {
    (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(broker, a, b, c)| {
        BrokerStats {
            broker,
            consumers: a,
            documents: b,
            deliveries: c,
            link_messages: a ^ b,
            spurious_link_messages: b ^ c,
            match_operations: a.wrapping_add(b),
            forwards_received: b.wrapping_add(c),
            forwards_rematched: b.wrapping_mul(7),
            forwards_dropped: a.wrapping_mul(3),
            pushes_dropped: c.rotate_left(3),
            errors: c.wrapping_mul(5),
            table_rebuilds: a.rotate_left(7),
            table_nodes: b.rotate_left(13),
            view_digest: u128::from(a) << 64 | u128::from(b ^ c),
        }
    })
}

/// Subscriber ids at every varint width: small ones, one per power of two
/// up to `u64::MAX`, and anything in between.
fn id() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..300,
        (0u32..64, any::<u64>()).prop_map(|(shift, bits)| bits >> shift),
        Just(u64::MAX),
    ]
}

fn matched_document() -> impl Strategy<Value = MatchedDocument> {
    (document(), any::<bool>(), btree_set(id(), 0..40)).prop_map(|(bytes, carried, ids)| {
        MatchedDocument {
            bytes: bytes.into(),
            interested: carried.then(|| ids.into_iter().collect()),
        }
    })
}

fn deliver_matched() -> impl Strategy<Value = Message> {
    (btree_set(id(), 1..40), document()).prop_map(|(subscribers, document)| {
        Message::DeliverMatched {
            subscribers: subscribers.into_iter().collect(),
            document: document.into(),
        }
    })
}

fn forward_matched() -> impl Strategy<Value = Message> {
    (
        0u32..64,
        any::<u64>(),
        any::<u64>(),
        vec(matched_document(), 0..6),
    )
        .prop_map(|(from, high, low, documents)| Message::ForwardMatched {
            from,
            view: u128::from(high) << 64 | u128::from(low),
            documents,
        })
}

/// The payload of a `ForwardMatched` frame holding one empty document whose
/// interest set announces `count` ids and continues with `tail`.
fn matched_payload(count: u32, tail: &[u8]) -> Vec<u8> {
    let mut payload = Message::ForwardMatched {
        from: 1,
        view: 9,
        documents: vec![MatchedDocument {
            bytes: b""[..].into(),
            interested: Some(Vec::new().into()),
        }],
    }
    .encode();
    payload.truncate(payload.len() - 4);
    payload.extend_from_slice(&count.to_be_bytes());
    payload.extend_from_slice(tail);
    payload
}

/// The shortest LEB128 encoding of `value`.
fn leb128(mut value: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    while value >= 0x80 {
        bytes.push(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push(value as u8);
    bytes
}

fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), 0u32..64, text()).prop_map(|(subscriber, broker, pattern)| {
            Message::Subscribe {
                subscriber,
                broker,
                pattern,
            }
        }),
        any::<u64>().prop_map(|subscriber| Message::Unsubscribe { subscriber }),
        document().prop_map(|document| Message::Publish { document }),
        Just(Message::Stats),
        (0u32..64, vec(document(), 0..8))
            .prop_map(|(from, documents)| Message::Forward { from, documents }),
        forward_matched(),
        Just(Message::Shutdown),
        Just(Message::SyncRequest),
        (0u32..64).prop_map(|broker| Message::Hello { broker }),
        Just(Message::Ack),
        (1u16..6, text()).prop_map(|(code, message)| Message::Error {
            code: tps_net::ErrorCode::from_u16(code).expect("codes 1..=5 are defined"),
            message,
        }),
        stats().prop_map(|stats| Message::StatsReply { stats }),
        (any::<u64>(), document()).prop_map(|(subscriber, document)| Message::Deliver {
            subscriber,
            document
        }),
        vec(
            (any::<u64>(), 0u32..64, text()).prop_map(|(subscriber, broker, pattern)| {
                SyncConsumer {
                    subscriber,
                    broker,
                    pattern,
                }
            }),
            0..12
        )
        .prop_map(|consumers| Message::SyncState { consumers }),
        deliver_matched(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every encodable message decodes back to itself under the default
    /// limits (generated values stay inside them by construction).
    #[test]
    fn decode_encode_is_the_identity(message in message()) {
        let bytes = message.encode();
        let back = Message::decode(&bytes, &FrameLimits::default());
        prop_assert_eq!(back.as_ref(), Ok(&message), "bytes: {:?}", bytes);
    }

    /// Arbitrary bytes never panic the decoder: they either decode or they
    /// produce a typed error — and what decodes has exactly one encoding.
    #[test]
    fn decode_is_total_over_arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        if let Ok(decoded) = Message::decode(&bytes, &FrameLimits::default()) {
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    /// A verb with gap-varint ids on its own (the mixed strategy reaches
    /// it one time in fifteen): it round-trips, and its encoding is the
    /// only payload that decodes to it.
    #[test]
    fn forward_matched_round_trips_byte_identically(message in forward_matched()) {
        let bytes = message.encode();
        let back = Message::decode(&bytes, &FrameLimits::default());
        prop_assert_eq!(back.as_ref(), Ok(&message));
        prop_assert_eq!(back.map(|m| m.encode()), Ok(bytes));
    }

    /// The same for the other one: a delivery push naming one subscriber
    /// or many.
    #[test]
    fn deliver_matched_round_trips_byte_identically(message in deliver_matched()) {
        let bytes = message.encode();
        let back = Message::decode(&bytes, &FrameLimits::default());
        prop_assert_eq!(back.as_ref(), Ok(&message));
        prop_assert_eq!(back.map(|m| m.encode()), Ok(bytes));
    }

    /// A varint with a zero group on top decodes to the same number in a
    /// lenient LEB128 reader. Here it is refused, wherever in the set it
    /// stands.
    #[test]
    fn padded_varints_are_refused(ids in btree_set(id(), 1..12), index in any::<u16>(), padding in 1usize..4) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let padded = index as usize % ids.len();
        let mut tail = Vec::new();
        let mut previous = 0;
        for (position, &id) in ids.iter().enumerate() {
            let mut varint = leb128(id - previous);
            if position == padded {
                let last = varint.len() - 1;
                varint[last] |= 0x80;
                varint.extend(std::iter::repeat(0x80).take(padding - 1));
                varint.push(0);
            }
            tail.extend(varint);
            previous = id;
        }
        prop_assert_eq!(
            Message::decode(&matched_payload(ids.len() as u32, &tail), &FrameLimits::default()),
            Err(DecodeError::NonCanonicalVarint)
        );
    }

    /// Ids that repeat, descend or run past 64 bits are refused: a gap of
    /// zero after the first id, or a gap that overflows.
    #[test]
    fn ids_that_do_not_ascend_are_refused(first in id(), gap in 1u64..1000, repeat in any::<bool>()) {
        let mut tail = leb128(first);
        if repeat {
            tail.extend(leb128(0));
        } else {
            // `first + gap` is fine; a further `u64::MAX - first` is not.
            prop_assume!(first.checked_add(gap).is_some());
            tail.extend(leb128(gap));
            tail.extend(leb128(u64::MAX - first));
        }
        let count = if repeat { 2 } else { 3 };
        prop_assert_eq!(
            Message::decode(&matched_payload(count, &tail), &FrameLimits::default()),
            Err(DecodeError::IdsNotAscending)
        );
    }

    /// An interest set announcing more ids than the limit, or than there
    /// are bytes left, is refused on the count alone: the same typed error
    /// whatever follows, so nothing was reserved or read for it.
    #[test]
    fn oversized_interest_counts_are_refused_up_front(over in 1u32..1_000_000, tail in vec(any::<u8>(), 0..64)) {
        let limits = FrameLimits::default();
        let count = limits.max_subscriptions as u32 + over;
        prop_assert_eq!(
            Message::decode(&matched_payload(count, &tail), &limits),
            Err(DecodeError::InterestTooLarge { size: count as usize, limit: limits.max_subscriptions })
        );
        let announced = tail.len() as u32 + over.min(1000);
        prop_assert_eq!(
            Message::decode(&matched_payload(announced, &tail), &limits),
            Err(DecodeError::Truncated)
        );
        let batch = limits.max_batch as u32 + over;
        let mut payload = vec![PROTOCOL_VERSION, 0x09];
        payload.extend_from_slice(&[0; 20]);
        payload.extend_from_slice(&batch.to_be_bytes());
        payload.extend_from_slice(&tail);
        prop_assert_eq!(
            Message::decode(&payload, &limits),
            Err(DecodeError::BatchTooLarge { size: batch as usize, limit: limits.max_batch })
        );
    }

    /// Flipping any single byte of a valid encoding never panics, and a
    /// re-decoded success is still internally consistent (it re-encodes).
    #[test]
    fn single_byte_corruption_is_survivable(message in message(), index in any::<u16>(), flip in 1u8..=255) {
        let mut bytes = message.encode();
        let index = (index as usize) % bytes.len().max(1);
        if let Some(byte) = bytes.get_mut(index) {
            *byte ^= flip;
        }
        if let Ok(decoded) = Message::decode(&bytes, &FrameLimits::default()) {
            let _ = decoded.encode();
        }
    }
}
