//! Protocol messages and their byte encoding.
//!
//! Group elements go on the wire as fixed-width big-endian codewords of
//! exactly `⌈k/8⌉` bytes (the paper counts communication in `k`-bit
//! codewords, §6.1), so "lexicographic order" of codewords coincides with
//! numeric order of elements. Counts are 32-bit big-endian; payload blobs
//! are length-prefixed.

use bytes::{Buf, BufMut};
use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_net::Transport;

use crate::error::ProtocolError;

/// A message exchanged by the protocol engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A list of encrypted codewords. Used for `Y_R`, `Y_S`,
    /// `f_{e_S}(Y_R)` (order-significant) and `Z_R` (sorted).
    Codewords(Vec<UBig>),
    /// Pairs `(f_{e_S}(y), f_{e'_S}(y))` answering `Y_R` in order
    /// (equijoin step 4, with the paper's §6.1 optimization of not
    /// retransmitting `y`).
    CodewordPairs(Vec<(UBig, UBig)>),
    /// Pairs `(f_{e_S}(h(v)), K(κ(v), ext(v)))`, sorted by the first
    /// component (equijoin step 5).
    PayloadPairs(Vec<(UBig, Vec<u8>)>),
}

pub(crate) const TAG_CODEWORDS: u8 = 1;
pub(crate) const TAG_CODEWORD_PAIRS: u8 = 2;
pub(crate) const TAG_PAYLOAD_PAIRS: u8 = 3;
/// Envelope tag announcing that one logical message follows split across
/// several frames (see [`ChunkedWriter`]).
pub(crate) const TAG_CHUNKED: u8 = 4;
/// Hello frame opening a *sharded* run (see [`crate::shard`]): the
/// receiver announces the bucket count before any codeword flows. Never
/// sent for single-shard runs, which therefore stay byte-identical to
/// the serial protocols.
pub(crate) const TAG_SHARDED: u8 = 5;

/// Bytes of the shard hello frame:
/// `[TAG_SHARDED, version, shard_count: u32be]`.
pub(crate) const SHARD_HELLO_LEN: usize = 6;

/// Shard-hello codec version.
pub(crate) const SHARD_WIRE_VERSION: u8 = 1;

/// Upper bound on the bucket count a peer may announce: each bucket
/// costs per-bucket frames and merge state, so an absurd count is
/// rejected as malformed rather than honored.
pub(crate) const MAX_SHARDS: u32 = 1 << 16;

/// Encodes the shard hello frame for `shards` buckets.
pub(crate) fn encode_shard_hello(shards: u32) -> [u8; SHARD_HELLO_LEN] {
    let [b0, b1, b2, b3] = shards.to_be_bytes();
    [TAG_SHARDED, SHARD_WIRE_VERSION, b0, b1, b2, b3]
}

/// Inspects a received frame: `Ok(Some(shards))` when it is a valid
/// shard hello, `Ok(None)` when it is some other (non-hello) frame the
/// caller should process normally, and an error for a hello that is
/// malformed or announces an unsupported version or bucket count.
pub(crate) fn decode_shard_hello(frame: &[u8]) -> Result<Option<u32>, ProtocolError> {
    if frame.first() != Some(&TAG_SHARDED) {
        return Ok(None);
    }
    if frame.len() != SHARD_HELLO_LEN {
        return Err(chunk_malformed("bad shard hello length"));
    }
    if frame.get(1) != Some(&SHARD_WIRE_VERSION) {
        return Err(chunk_malformed("unsupported shard hello version"));
    }
    let bytes = frame
        .get(2..6)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or_else(|| chunk_malformed("bad shard hello length"))?;
    let shards = u32::from_be_bytes(bytes);
    if shards == 0 || shards > MAX_SHARDS {
        return Err(chunk_malformed("implausible shard count"));
    }
    Ok(Some(shards))
}

/// Bytes of a chunked-envelope header frame:
/// `[TAG_CHUNKED, inner_tag, total_items: u32, chunk_count: u32]`.
pub(crate) const CHUNK_HEADER_LEN: usize = 10;

impl Message {
    /// Short name for error reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Codewords(_) => "codewords",
            Message::CodewordPairs(_) => "codeword-pairs",
            Message::PayloadPairs(_) => "payload-pairs",
        }
    }

    /// Wire tag of this message variant.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Message::Codewords(_) => TAG_CODEWORDS,
            Message::CodewordPairs(_) => TAG_CODEWORD_PAIRS,
            Message::PayloadPairs(_) => TAG_PAYLOAD_PAIRS,
        }
    }

    /// Number of logical items (codewords or pairs) the message carries.
    pub(crate) fn item_count(&self) -> usize {
        match self {
            Message::Codewords(list) => list.len(),
            Message::CodewordPairs(list) => list.len(),
            Message::PayloadPairs(list) => list.len(),
        }
    }

    /// Serializes for the wire. Elements are encoded at the group's
    /// fixed codeword width.
    pub fn encode(&self, group: &QrGroup) -> Result<Vec<u8>, ProtocolError> {
        let mut buf = Vec::new();
        match self {
            Message::Codewords(list) => {
                buf.put_u8(TAG_CODEWORDS);
                buf.put_u32(list.len() as u32);
                for x in list {
                    buf.put_slice(&group.encode_element(x)?);
                }
            }
            Message::CodewordPairs(list) => {
                buf.put_u8(TAG_CODEWORD_PAIRS);
                buf.put_u32(list.len() as u32);
                for (a, b) in list {
                    buf.put_slice(&group.encode_element(a)?);
                    buf.put_slice(&group.encode_element(b)?);
                }
            }
            Message::PayloadPairs(list) => {
                buf.put_u8(TAG_PAYLOAD_PAIRS);
                buf.put_u32(list.len() as u32);
                for (a, payload) in list {
                    buf.put_slice(&group.encode_element(a)?);
                    buf.put_u32(payload.len() as u32);
                    buf.put_slice(payload);
                }
            }
        }
        Ok(buf)
    }

    /// Parses a frame, validating every codeword is a domain element.
    pub fn decode(frame: &[u8], group: &QrGroup) -> Result<Message, ProtocolError> {
        let malformed = |detail: &str| ProtocolError::MalformedMessage {
            detail: detail.to_string(),
        };
        let mut buf = frame;
        if buf.remaining() < 5 {
            return Err(malformed("frame shorter than header"));
        }
        let tag = buf.get_u8();
        let count = buf.get_u32() as usize;
        let width = group.codeword_bytes();

        let take_element = |buf: &mut &[u8]| -> Result<UBig, ProtocolError> {
            let bytes = buf
                .get(..width)
                .ok_or_else(|| malformed("truncated codeword"))?;
            let x = group.decode_element(bytes)?;
            buf.advance(width);
            Ok(x)
        };

        // `count` is the peer's claim: reserve no more items than the
        // frame's remaining bytes can hold.
        let msg = match tag {
            TAG_CODEWORDS => {
                let mut list = Vec::with_capacity(count.min(buf.remaining() / width));
                for _ in 0..count {
                    list.push(take_element(&mut buf)?);
                }
                Message::Codewords(list)
            }
            TAG_CODEWORD_PAIRS => {
                let mut list = Vec::with_capacity(count.min(buf.remaining() / (2 * width)));
                for _ in 0..count {
                    let a = take_element(&mut buf)?;
                    let b = take_element(&mut buf)?;
                    list.push((a, b));
                }
                Message::CodewordPairs(list)
            }
            TAG_PAYLOAD_PAIRS => {
                let mut list = Vec::with_capacity(count.min(buf.remaining() / (width + 4)));
                for _ in 0..count {
                    let a = take_element(&mut buf)?;
                    if buf.remaining() < 4 {
                        return Err(malformed("truncated payload length"));
                    }
                    let len = buf.get_u32() as usize;
                    let payload = buf
                        .get(..len)
                        .ok_or_else(|| malformed("truncated payload"))?
                        .to_vec();
                    buf.advance(len);
                    list.push((a, payload));
                }
                Message::PayloadPairs(list)
            }
            TAG_CHUNKED => {
                return Err(malformed(
                    "chunked envelope where a single message was expected",
                ))
            }
            TAG_SHARDED => {
                return Err(malformed(
                    "shard hello where a single message was expected",
                ))
            }
            _ => return Err(malformed("unknown message tag")),
        };
        if buf.has_remaining() {
            return Err(malformed("trailing bytes"));
        }
        Ok(msg)
    }
}

/// Checks that a codeword list is strictly increasing (lexicographic order
/// of fixed-width codewords = numeric order; strictness also catches
/// duplicate hashes, the paper's collision check).
pub fn require_strictly_sorted(list: &[UBig], what: &'static str) -> Result<(), ProtocolError> {
    for w in list.windows(2) {
        if let [a, b] = w {
            if a >= b {
                return Err(ProtocolError::NotSorted { what });
            }
        }
    }
    Ok(())
}

/// Checks that a codeword list is non-decreasing (multiset variant, used
/// by the equijoin-size protocol where duplicates are legitimate).
pub fn require_sorted(list: &[UBig], what: &'static str) -> Result<(), ProtocolError> {
    for w in list.windows(2) {
        if let [a, b] = w {
            if a > b {
                return Err(ProtocolError::NotSorted { what });
            }
        }
    }
    Ok(())
}

/// Default number of codewords per chunk for [`crate::engine`]: small
/// enough that encryption of one chunk overlaps the wire time of another,
/// large enough that the 5-byte frame header is noise.
pub const DEFAULT_CHUNK_SIZE: usize = 32;

fn chunk_malformed(detail: &str) -> ProtocolError {
    ProtocolError::MalformedMessage {
        detail: detail.to_string(),
    }
}

/// Streams one logical message as several frames under a chunked envelope.
///
/// Wire layout: a 10-byte header frame
/// `[TAG_CHUNKED, inner_tag, total_items: u32be, chunk_count: u32be]`
/// followed by `chunk_count` ordinary [`Message`] frames of `inner_tag`
/// whose item counts sum to `total_items`. When everything fits in one
/// chunk the header is skipped and a single plain frame goes out, so a
/// single-chunk stream is byte-identical to the serial protocol and
/// readable by a serial peer.
pub(crate) struct ChunkedWriter {
    inner_tag: u8,
    items_left: usize,
    chunks_left: u32,
}

impl ChunkedWriter {
    /// Starts a stream that will carry `total` items split every
    /// `chunk_size` items (the last chunk may be short).
    pub(crate) fn begin<T: Transport + ?Sized>(
        transport: &mut T,
        inner_tag: u8,
        total: usize,
        chunk_size: usize,
    ) -> Result<Self, ProtocolError> {
        let chunk_size = chunk_size.max(1);
        Self::begin_with_chunks(transport, inner_tag, total, total.div_ceil(chunk_size).max(1))
    }

    /// Starts a stream with an explicit chunk count — used when answering
    /// a peer's list chunk-for-chunk, whatever sizes the peer chose.
    pub(crate) fn begin_with_chunks<T: Transport + ?Sized>(
        transport: &mut T,
        inner_tag: u8,
        total: usize,
        chunk_count: usize,
    ) -> Result<Self, ProtocolError> {
        let chunk_count = chunk_count.max(1);
        if chunk_count > 1 {
            if total > u32::MAX as usize || chunk_count > u32::MAX as usize {
                return Err(chunk_malformed("chunked stream exceeds u32 bounds"));
            }
            let mut frame = Vec::with_capacity(CHUNK_HEADER_LEN);
            frame.push(TAG_CHUNKED);
            frame.push(inner_tag);
            frame.extend_from_slice(&(total as u32).to_be_bytes());
            frame.extend_from_slice(&(chunk_count as u32).to_be_bytes());
            transport.send(&frame)?;
        }
        Ok(ChunkedWriter {
            inner_tag,
            items_left: total,
            chunks_left: chunk_count as u32,
        })
    }

    /// Sends the next chunk. The message kind and cumulative item count
    /// must agree with what `begin` announced.
    pub(crate) fn send<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        group: &QrGroup,
        msg: &Message,
    ) -> Result<(), ProtocolError> {
        if msg.tag() != self.inner_tag {
            return Err(chunk_malformed("chunk kind differs from envelope"));
        }
        if self.chunks_left == 0 || msg.item_count() > self.items_left {
            return Err(chunk_malformed("chunk stream overflow"));
        }
        self.items_left -= msg.item_count();
        self.chunks_left -= 1;
        transport.send(&msg.encode(group)?)?;
        emit_chunk_sent(msg.item_count() as u64);
        Ok(())
    }

    /// Verifies the stream was fully sent.
    pub(crate) fn finish(self) -> Result<(), ProtocolError> {
        if self.items_left != 0 || self.chunks_left != 0 {
            return Err(chunk_malformed("chunk stream ended early"));
        }
        Ok(())
    }
}

/// Sends an already-materialized list through the chunked envelope, one
/// [`ChunkedWriter`] frame per `chunk_size` items (a plain single frame
/// when it fits in one chunk). `wrap` is the [`Message`] variant that
/// carries the items; they move into the chunks without copies.
fn send_list_chunked<T: Transport + ?Sized, I>(
    transport: &mut T,
    group: &QrGroup,
    wrap: fn(Vec<I>) -> Message,
    items: Vec<I>,
    chunk_size: usize,
) -> Result<(), ProtocolError> {
    let chunk_size = chunk_size.max(1);
    let inner_tag = wrap(Vec::new()).tag();
    let mut writer = ChunkedWriter::begin(transport, inner_tag, items.len(), chunk_size)?;
    let mut rest = items.into_iter();
    while writer.chunks_left > 0 {
        let chunk = wrap(rest.by_ref().take(chunk_size).collect());
        writer.send(transport, group, &chunk)?;
    }
    writer.finish()
}

/// Sends a materialized codeword list (`Y_S`, `Z_R`, `Y_R`) through the
/// chunked envelope.
pub(crate) fn send_codewords_chunked<T: Transport + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    items: Vec<UBig>,
    chunk_size: usize,
) -> Result<(), ProtocolError> {
    send_list_chunked(transport, group, Message::Codewords, items, chunk_size)
}

/// One `pipeline/chunk_sent` trace event. Chunk boundaries are a pure
/// function of item count and chunk size, so the event is deterministic.
fn emit_chunk_sent(items: u64) {
    minshare_trace::emit("pipeline", "chunk_sent", true, move || {
        vec![minshare_trace::count("items", items)]
    });
}

/// One `pipeline/chunk_recv` trace event, mirroring [`emit_chunk_sent`]
/// on the reading side.
fn emit_chunk_recv(items: u64) {
    minshare_trace::emit("pipeline", "chunk_recv", true, move || {
        vec![minshare_trace::count("items", items)]
    });
}

/// Sends a materialized payload-pair table through the chunked envelope
/// (equijoin step 5).
pub(crate) fn send_payload_pairs_chunked<T: Transport + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    items: Vec<(UBig, Vec<u8>)>,
    chunk_size: usize,
) -> Result<(), ProtocolError> {
    send_list_chunked(transport, group, Message::PayloadPairs, items, chunk_size)
}

/// Reads one logical message that may arrive either as a single plain
/// frame (serial peer, or a stream that fit in one chunk) or as a chunked
/// envelope. Yields each chunk as it lands so callers overlap computation
/// with the remaining receives.
pub(crate) struct ChunkedReader {
    inner_tag: u8,
    expected_kind: &'static str,
    total: usize,
    chunks_left: u32,
    items_seen: usize,
    first: Option<Message>,
}

impl ChunkedReader {
    /// Receives the first frame and dispatches on plain vs. chunked.
    pub(crate) fn begin<T: Transport + ?Sized>(
        transport: &mut T,
        group: &QrGroup,
        inner_tag: u8,
        expected_kind: &'static str,
    ) -> Result<Self, ProtocolError> {
        let frame = transport.recv()?;
        if frame.first() == Some(&TAG_CHUNKED) {
            if frame.len() != CHUNK_HEADER_LEN {
                return Err(chunk_malformed("bad chunked header length"));
            }
            if frame.get(1) != Some(&inner_tag) {
                return Err(chunk_malformed("chunked envelope of unexpected kind"));
            }
            let word = |at: usize| -> Result<usize, ProtocolError> {
                let bytes = frame
                    .get(at..at + 4)
                    .and_then(|s| <[u8; 4]>::try_from(s).ok())
                    .ok_or_else(|| chunk_malformed("bad chunked header length"))?;
                Ok(u32::from_be_bytes(bytes) as usize)
            };
            let total = word(2)?;
            let chunk_count = word(6)?;
            if chunk_count == 0 || chunk_count > total.max(1) {
                return Err(chunk_malformed("implausible chunk count"));
            }
            Ok(ChunkedReader {
                inner_tag,
                expected_kind,
                total,
                chunks_left: chunk_count as u32,
                items_seen: 0,
                first: None,
            })
        } else {
            let msg = Message::decode(&frame, group)?;
            if msg.tag() != inner_tag {
                return Err(ProtocolError::UnexpectedMessage {
                    expected: expected_kind,
                    got: msg.kind(),
                });
            }
            Ok(ChunkedReader {
                inner_tag,
                expected_kind,
                total: msg.item_count(),
                chunks_left: 1,
                items_seen: 0,
                first: Some(msg),
            })
        }
    }

    /// Total item count across the whole stream (trusted only after the
    /// stream finishes: `next` verifies the chunks actually add up).
    pub(crate) fn total_items(&self) -> usize {
        self.total
    }

    /// Returns the next chunk, or `None` once the stream is complete.
    pub(crate) fn next<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        group: &QrGroup,
    ) -> Result<Option<Message>, ProtocolError> {
        if let Some(msg) = self.first.take() {
            self.items_seen = msg.item_count();
            self.chunks_left = 0;
            emit_chunk_recv(msg.item_count() as u64);
            return Ok(Some(msg));
        }
        if self.chunks_left == 0 {
            return Ok(None);
        }
        let msg = Message::decode(&transport.recv()?, group)?;
        if msg.tag() != self.inner_tag {
            return Err(ProtocolError::UnexpectedMessage {
                expected: self.expected_kind,
                got: msg.kind(),
            });
        }
        self.items_seen = self.items_seen.saturating_add(msg.item_count());
        self.chunks_left -= 1;
        if self.items_seen > self.total || (self.chunks_left == 0 && self.items_seen != self.total)
        {
            return Err(chunk_malformed("chunk item counts disagree with header"));
        }
        emit_chunk_recv(msg.item_count() as u64);
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minshare_crypto::QrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(5);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    fn elements(g: &QrGroup, n: usize) -> Vec<UBig> {
        let mut rng = StdRng::seed_from_u64(17);
        (0..n).map(|_| g.sample_element(&mut rng)).collect()
    }

    #[test]
    fn codewords_round_trip() {
        let g = group();
        let msg = Message::Codewords(elements(&g, 5));
        let frame = msg.encode(&g).unwrap();
        assert_eq!(Message::decode(&frame, &g).unwrap(), msg);
    }

    #[test]
    fn pairs_round_trip() {
        let g = group();
        let els = elements(&g, 6);
        let msg = Message::CodewordPairs(vec![
            (els[0].clone(), els[1].clone()),
            (els[2].clone(), els[3].clone()),
            (els[4].clone(), els[5].clone()),
        ]);
        let frame = msg.encode(&g).unwrap();
        assert_eq!(Message::decode(&frame, &g).unwrap(), msg);
    }

    #[test]
    fn payload_pairs_round_trip() {
        let g = group();
        let els = elements(&g, 2);
        let msg = Message::PayloadPairs(vec![
            (els[0].clone(), b"payload-a".to_vec()),
            (els[1].clone(), vec![]),
        ]);
        let frame = msg.encode(&g).unwrap();
        assert_eq!(Message::decode(&frame, &g).unwrap(), msg);
    }

    #[test]
    fn empty_lists_round_trip() {
        let g = group();
        for msg in [
            Message::Codewords(vec![]),
            Message::CodewordPairs(vec![]),
            Message::PayloadPairs(vec![]),
        ] {
            let frame = msg.encode(&g).unwrap();
            assert_eq!(Message::decode(&frame, &g).unwrap(), msg);
        }
    }

    #[test]
    fn frame_size_matches_paper_accounting() {
        // A Codewords frame of n elements costs n·⌈k/8⌉ bytes + 5 header.
        let g = group();
        let n = 7;
        let frame = Message::Codewords(elements(&g, n)).encode(&g).unwrap();
        assert_eq!(frame.len(), 5 + n * g.codeword_bytes());
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let g = group();
        let frame = Message::Codewords(elements(&g, 3)).encode(&g).unwrap();
        assert!(Message::decode(&frame[..frame.len() - 1], &g).is_err());
        assert!(Message::decode(&[], &g).is_err());
        assert!(Message::decode(&[9, 0, 0, 0, 0], &g).is_err());
        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(Message::decode(&trailing, &g).is_err());
    }

    #[test]
    fn decode_rejects_non_group_elements() {
        let g = group();
        let mut frame = vec![TAG_CODEWORDS, 0, 0, 0, 1];
        frame.extend(vec![0u8; g.codeword_bytes()]); // zero is not a member
        assert!(matches!(
            Message::decode(&frame, &g),
            Err(ProtocolError::Crypto(_))
        ));
    }

    #[test]
    fn chunked_round_trip_over_duplex() {
        let g = group();
        let items = {
            let mut v = elements(&g, 11);
            v.sort();
            v
        };
        for chunk_size in [1usize, 3, 4, 11, 64] {
            let (mut a, mut b) = minshare_net::duplex_pair();
            send_codewords_chunked(&mut a, &g, items.clone(), chunk_size).unwrap();
            let mut reader = ChunkedReader::begin(&mut b, &g, TAG_CODEWORDS, "codewords").unwrap();
            assert_eq!(reader.total_items(), items.len());
            let mut got = Vec::new();
            while let Some(Message::Codewords(chunk)) = reader.next(&mut b, &g).unwrap() {
                assert!(chunk.len() <= chunk_size);
                got.extend(chunk);
            }
            assert_eq!(got, items, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn single_chunk_stream_is_byte_identical_to_plain() {
        // A stream that fits in one chunk must put exactly the serial
        // protocol's bytes on the wire (no envelope header).
        let g = group();
        let items = elements(&g, 4);
        let (mut a, mut b) = minshare_net::duplex_pair();
        send_codewords_chunked(&mut a, &g, items.clone(), 16).unwrap();
        let frame = b.recv().unwrap();
        assert_eq!(frame, Message::Codewords(items).encode(&g).unwrap());
    }

    #[test]
    fn chunked_reader_accepts_plain_message() {
        let g = group();
        let items = elements(&g, 3);
        let (mut a, mut b) = minshare_net::duplex_pair();
        a.send(&Message::Codewords(items.clone()).encode(&g).unwrap())
            .unwrap();
        let mut reader = ChunkedReader::begin(&mut b, &g, TAG_CODEWORDS, "codewords").unwrap();
        assert_eq!(reader.total_items(), 3);
        assert_eq!(
            reader.next(&mut b, &g).unwrap(),
            Some(Message::Codewords(items))
        );
        assert_eq!(reader.next(&mut b, &g).unwrap(), None);
    }

    #[test]
    fn chunked_reader_rejects_lying_header() {
        let g = group();
        let items = elements(&g, 2);
        // Header promises 5 items over 2 chunks; only 4 arrive.
        let (mut a, mut b) = minshare_net::duplex_pair();
        let mut header = vec![TAG_CHUNKED, TAG_CODEWORDS];
        header.extend_from_slice(&5u32.to_be_bytes());
        header.extend_from_slice(&2u32.to_be_bytes());
        a.send(&header).unwrap();
        for _ in 0..2 {
            a.send(&Message::Codewords(items.clone()).encode(&g).unwrap())
                .unwrap();
        }
        let mut reader = ChunkedReader::begin(&mut b, &g, TAG_CODEWORDS, "codewords").unwrap();
        assert!(reader.next(&mut b, &g).unwrap().is_some());
        assert!(reader.next(&mut b, &g).is_err());
    }

    #[test]
    fn chunked_reader_rejects_kind_mismatch() {
        let g = group();
        let (mut a, mut b) = minshare_net::duplex_pair();
        a.send(
            &Message::CodewordPairs(vec![])
                .encode(&g)
                .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            ChunkedReader::begin(&mut b, &g, TAG_CODEWORDS, "codewords"),
            Err(ProtocolError::UnexpectedMessage { .. })
        ));
    }

    #[test]
    fn writer_enforces_announced_counts() {
        let g = group();
        let items = elements(&g, 4);
        let (mut a, _b) = minshare_net::duplex_pair();
        let mut w = ChunkedWriter::begin(&mut a, TAG_CODEWORDS, 4, 2).unwrap();
        w.send(&mut a, &g, &Message::Codewords(items[..2].to_vec()))
            .unwrap();
        // Wrong kind is rejected.
        assert!(w.send(&mut a, &g, &Message::CodewordPairs(vec![])).is_err());
        // Finishing with items outstanding is rejected.
        let w2 = ChunkedWriter::begin(&mut a, TAG_CODEWORDS, 4, 2).unwrap();
        assert!(w2.finish().is_err());
    }

    #[test]
    fn serial_decode_rejects_envelope_header() {
        let g = group();
        let mut header = vec![TAG_CHUNKED, TAG_CODEWORDS];
        header.extend_from_slice(&1u32.to_be_bytes());
        header.extend_from_slice(&1u32.to_be_bytes());
        assert!(Message::decode(&header, &g).is_err());
    }

    #[test]
    fn shard_hello_round_trips_and_rejects_junk() {
        for shards in [1u32, 2, 7, MAX_SHARDS] {
            let frame = encode_shard_hello(shards);
            assert_eq!(decode_shard_hello(&frame).unwrap(), Some(shards));
        }
        // Non-hello frames pass through untouched.
        let g = group();
        let plain = Message::Codewords(elements(&g, 2)).encode(&g).unwrap();
        assert_eq!(decode_shard_hello(&plain).unwrap(), None);
        assert_eq!(decode_shard_hello(&[]).unwrap(), None);
        // Malformed hellos are typed errors, not pass-throughs.
        assert!(decode_shard_hello(&[TAG_SHARDED]).is_err());
        assert!(decode_shard_hello(&[TAG_SHARDED, 9, 0, 0, 0, 1]).is_err());
        assert!(decode_shard_hello(&[TAG_SHARDED, SHARD_WIRE_VERSION, 0, 0, 0, 0]).is_err());
        let mut too_many = encode_shard_hello(MAX_SHARDS + 1);
        too_many[2..6].copy_from_slice(&(MAX_SHARDS + 1).to_be_bytes());
        assert!(decode_shard_hello(&too_many).is_err());
        // A hello is never a valid stand-alone protocol message.
        assert!(Message::decode(&encode_shard_hello(4), &g).is_err());
    }

    #[test]
    fn sortedness_checks() {
        let one = UBig::from(1u64);
        let two = UBig::from(2u64);
        assert!(require_strictly_sorted(&[one.clone(), two.clone()], "t").is_ok());
        assert!(require_strictly_sorted(&[one.clone(), one.clone()], "t").is_err());
        assert!(require_strictly_sorted(&[two.clone(), one.clone()], "t").is_err());
        assert!(require_sorted(&[one.clone(), one.clone(), two.clone()], "t").is_ok());
        assert!(require_sorted(&[two, one], "t").is_err());
        assert!(require_strictly_sorted(&[], "t").is_ok());
    }
}
