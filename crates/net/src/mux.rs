//! Session-multiplexing envelope.
//!
//! One framed connection carries many independent protocol sessions: each
//! underlying frame is a mux frame — a 13-byte header (kind, session id,
//! per-session sequence, CRC-32) followed by an opaque payload. The
//! envelope rides *inside* whatever frame discipline the connection
//! already has (TCP length-prefix, [`crate::secure::SecureChannel`]
//! records, simnet frames), so it composes under encryption unchanged: a
//! secured connection seals whole mux frames.
//!
//! # Frame layout
//!
//! ```text
//! kind (1) ‖ session id (4 BE) ‖ seq (4 BE) ‖ crc32 (4 BE) ‖ payload
//! ```
//!
//! The CRC covers `kind ‖ session ‖ seq ‖ payload`. The connection below
//! is reliable and ordered, so the CRC is not there to survive a lossy
//! link: it rejects a corrupt or hostile frame as a typed
//! [`NetError::MalformedFrame`] instead of letting a bad session id route
//! it into a different session — exactly the cross-session interference
//! the multisession harness forbids. Connection loops count such frames
//! and drop them; nothing retransmits them.
//!
//! The per-session `seq` counts DATA frames on each direction of each
//! session. The connection already delivers in order, exactly once; the
//! sequence field exists so wire captures and per-session metrics can
//! attribute and order frames without parsing payloads.
//!
//! For a single session the envelope is a pure wrapper: the payload
//! stream delivered to the session is byte-identical to what the bare
//! connection would have delivered (property-tested in
//! `tests/mux_props.rs`).

use crate::error::NetError;

/// Byte length of the mux frame header.
pub const MUX_HEADER_LEN: usize = 13;

const KIND_OPEN: u8 = 1;
const KIND_ACCEPT: u8 = 2;
const KIND_BUSY: u8 = 3;
const KIND_DATA: u8 = 4;
const KIND_CLOSE: u8 = 5;
const KIND_GOAWAY: u8 = 6;
const KIND_STATS: u8 = 7;

/// What a mux frame means to the session layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxKind {
    /// Client asks the server to admit a new session; the payload is an
    /// application-level request (e.g. which protocol to run).
    Open,
    /// Server admitted the session named in the header. Each session id
    /// is admitted at most once per connection: a repeated OPEN is
    /// counted as malformed and ignored.
    Accept,
    /// Server refused the session — admission control is at capacity.
    /// The payload carries the limit in force (4-byte BE), surfaced to
    /// the client as [`NetError::Busy`].
    Busy,
    /// One application frame belonging to the session in the header.
    Data,
    /// The named session is finished (either side may say so).
    Close,
    /// The whole connection is shutting down: no new sessions will be
    /// admitted, existing sessions drain.
    Goaway,
    /// Read-only telemetry exchange on the reserved session 0. A client
    /// STATS frame has an empty payload; the server answers with another
    /// STATS frame whose payload is one versioned JSON snapshot of the
    /// daemon's metrics registry (see `minshare-trace::metrics`,
    /// `stats_version` field). Never carries protocol data.
    Stats,
}

impl MuxKind {
    fn tag(self) -> u8 {
        match self {
            MuxKind::Open => KIND_OPEN,
            MuxKind::Accept => KIND_ACCEPT,
            MuxKind::Busy => KIND_BUSY,
            MuxKind::Data => KIND_DATA,
            MuxKind::Close => KIND_CLOSE,
            MuxKind::Goaway => KIND_GOAWAY,
            MuxKind::Stats => KIND_STATS,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            KIND_OPEN => Some(MuxKind::Open),
            KIND_ACCEPT => Some(MuxKind::Accept),
            KIND_BUSY => Some(MuxKind::Busy),
            KIND_DATA => Some(MuxKind::Data),
            KIND_CLOSE => Some(MuxKind::Close),
            KIND_GOAWAY => Some(MuxKind::Goaway),
            KIND_STATS => Some(MuxKind::Stats),
            _ => None,
        }
    }
}

/// One decoded frame of the session-mux envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxFrame {
    /// What the frame means (see [`MuxKind`]).
    pub kind: MuxKind,
    /// Which session it belongs to. Session 0 is reserved for
    /// connection-scoped frames (GOAWAY).
    pub session: u32,
    /// Per-session, per-direction DATA counter; 0 for control frames.
    pub seq: u32,
    /// Opaque payload (application frame for DATA, request for OPEN,
    /// limit for BUSY, empty otherwise).
    pub payload: Vec<u8>,
}

impl MuxFrame {
    /// A DATA frame carrying one application frame of `session`.
    pub fn data(session: u32, seq: u32, payload: Vec<u8>) -> Self {
        MuxFrame {
            kind: MuxKind::Data,
            session,
            seq,
            payload,
        }
    }

    /// A control frame with an empty payload.
    pub fn control(kind: MuxKind, session: u32) -> Self {
        MuxFrame {
            kind,
            session,
            seq: 0,
            payload: Vec::new(),
        }
    }

    /// An OPEN frame carrying the application-level session request.
    pub fn open(session: u32, request: Vec<u8>) -> Self {
        MuxFrame {
            kind: MuxKind::Open,
            session,
            seq: 0,
            payload: request,
        }
    }

    /// A BUSY rejection advertising the session `limit` in force.
    pub fn busy(session: u32, limit: usize) -> Self {
        MuxFrame {
            kind: MuxKind::Busy,
            session,
            seq: 0,
            payload: (limit.min(u32::MAX as usize) as u32).to_be_bytes().to_vec(),
        }
    }

    /// The limit a BUSY frame advertises (0 if the payload is malformed —
    /// the rejection itself is already typed).
    pub fn busy_limit(&self) -> usize {
        let arr: Option<[u8; 4]> = self.payload.get(0..4).and_then(|b| b.try_into().ok());
        arr.map_or(0, |a| u32::from_be_bytes(a) as usize)
    }

    /// Serializes the frame: header (kind, session, seq, CRC) + payload.
    ///
    /// Registered as a wire sink with the analyzer (WIRE01): everything
    /// that enters a mux payload is on its way to a transport.
    pub fn encode(&self) -> Vec<u8> {
        let tag = self.kind.tag();
        let session = self.session.to_be_bytes();
        let seq = self.seq.to_be_bytes();
        let crc = crc32(&[&[tag], &session, &seq, &self.payload]);
        let mut out = Vec::with_capacity(MUX_HEADER_LEN + self.payload.len());
        out.push(tag);
        out.extend_from_slice(&session);
        out.extend_from_slice(&seq);
        out.extend_from_slice(&crc.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and integrity-checks one raw frame. Truncated headers,
    /// unknown kinds, and checksum failures are typed
    /// [`NetError::MalformedFrame`]s; connection loops count and drop
    /// them, never route them as a frame for some other session.
    pub fn decode(raw: &[u8]) -> Result<MuxFrame, NetError> {
        if raw.len() < MUX_HEADER_LEN {
            return Err(NetError::MalformedFrame {
                detail: format!(
                    "mux frame of {} bytes shorter than the {MUX_HEADER_LEN}-byte header",
                    raw.len()
                ),
            });
        }
        let tag = *raw.first().ok_or_else(short_header)?;
        let kind = MuxKind::from_tag(tag).ok_or_else(|| NetError::MalformedFrame {
            detail: format!("unknown mux frame kind {tag}"),
        })?;
        let session_bytes: [u8; 4] = raw
            .get(1..5)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(short_header)?;
        let seq_bytes: [u8; 4] = raw
            .get(5..9)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(short_header)?;
        let crc_bytes: [u8; 4] = raw
            .get(9..13)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(short_header)?;
        let payload = raw.get(13..).unwrap_or(&[]);
        let expected = crc32(&[&[tag], &session_bytes, &seq_bytes, payload]);
        if u32::from_be_bytes(crc_bytes) != expected {
            return Err(NetError::MalformedFrame {
                detail: "mux frame checksum mismatch".to_string(),
            });
        }
        Ok(MuxFrame {
            kind,
            session: u32::from_be_bytes(session_bytes),
            seq: u32::from_be_bytes(seq_bytes),
            payload: payload.to_vec(),
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected) over the concatenation of `parts`.
fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for part in parts {
        for &byte in *part {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
    }
    !crc
}

fn short_header() -> NetError {
    NetError::MalformedFrame {
        detail: "mux frame header truncated".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_kind() {
        for kind in [
            MuxKind::Open,
            MuxKind::Accept,
            MuxKind::Busy,
            MuxKind::Data,
            MuxKind::Close,
            MuxKind::Goaway,
            MuxKind::Stats,
        ] {
            let frame = MuxFrame {
                kind,
                session: 0xdead_beef,
                seq: 42,
                payload: b"payload bytes".to_vec(),
            };
            assert_eq!(MuxFrame::decode(&frame.encode()).unwrap(), frame);
        }
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = MuxFrame::control(MuxKind::Close, 7);
        let wire = frame.encode();
        assert_eq!(wire.len(), MUX_HEADER_LEN);
        assert_eq!(MuxFrame::decode(&wire).unwrap(), frame);
    }

    #[test]
    fn truncation_is_typed() {
        let wire = MuxFrame::data(3, 1, b"hello".to_vec()).encode();
        for len in 0..wire.len() {
            assert!(
                matches!(
                    MuxFrame::decode(&wire[..len]),
                    Err(NetError::MalformedFrame { .. })
                ),
                "truncation to {len} bytes not rejected"
            );
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xcbf4_3926);
    }

    #[test]
    fn any_single_bitflip_is_typed() {
        // The property that guarantees session isolation against a
        // corrupt or hostile peer: no flipped bit can silently reroute a
        // frame.
        let wire = MuxFrame::data(0x0102_0304, 9, b"isolated".to_vec()).encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(MuxFrame::decode(&bad), Err(NetError::MalformedFrame { .. })),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn unknown_kind_is_typed() {
        let mut wire = MuxFrame::control(MuxKind::Accept, 1).encode();
        wire[0] = 0xEE;
        assert!(matches!(
            MuxFrame::decode(&wire),
            Err(NetError::MalformedFrame { .. })
        ));
    }

    #[test]
    fn stats_frame_round_trips_snapshot_payload() {
        // STATS rides session 0 and carries an opaque JSON snapshot.
        let frame = MuxFrame {
            kind: MuxKind::Stats,
            session: 0,
            seq: 0,
            payload: b"{\"stats_version\":1}".to_vec(),
        };
        assert_eq!(MuxFrame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn busy_limit_round_trips() {
        let frame = MuxFrame::busy(5, 64);
        let decoded = MuxFrame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded.busy_limit(), 64);
        // Malformed payload degrades to 0, not a panic.
        assert_eq!(MuxFrame::control(MuxKind::Busy, 5).busy_limit(), 0);
    }
}
