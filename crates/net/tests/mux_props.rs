//! Property tests for the session-mux envelope.
//!
//! Three contracts, each load-bearing for the multi-session daemon:
//!
//! 1. **Round-trip** — every well-formed frame survives encode → decode
//!    bit-exactly, for arbitrary kinds, session ids, sequences, and
//!    payloads.
//! 2. **Corruption is typed loss, never misrouting** — any truncation or
//!    byte-level corruption of the wire image either decodes back to the
//!    *identical* frame (multiple flips cancelling out is theoretically
//!    possible, a single flip never goes undetected) or fails with a
//!    typed `NetError::MalformedFrame`. No corrupt frame ever decodes to
//!    a *different* session.
//! 3. **Transparency** — for a single session, the payload stream
//!    delivered through the envelope over a real transport is
//!    byte-identical to what the bare transport delivers, for arbitrary
//!    interleavings of other sessions on the wire around it.

use minshare_net::duplex::duplex_pair;
use minshare_net::{MuxFrame, MuxKind, NetError, Transport, MUX_HEADER_LEN};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = MuxKind> {
    prop_oneof![
        Just(MuxKind::Open),
        Just(MuxKind::Accept),
        Just(MuxKind::Busy),
        Just(MuxKind::Data),
        Just(MuxKind::Close),
        Just(MuxKind::Goaway),
    ]
}

fn arb_frame() -> impl Strategy<Value = MuxFrame> {
    (
        arb_kind(),
        any::<u32>(),
        any::<u32>(),
        vec(any::<u8>(), 0..512),
    )
        .prop_map(|(kind, session, seq, payload)| MuxFrame {
            kind,
            session,
            seq,
            payload,
        })
}

proptest! {
    // Contract 1: encode → decode is the identity on well-formed frames.
    #[test]
    fn round_trip_is_identity(frame in arb_frame()) {
        let decoded = MuxFrame::decode(&frame.encode()).expect("well-formed frame must decode");
        prop_assert_eq!(decoded, frame);
    }

    // Contract 1 corollary: the wire image is exactly header + payload.
    #[test]
    fn wire_length_is_header_plus_payload(frame in arb_frame()) {
        prop_assert_eq!(frame.encode().len(), MUX_HEADER_LEN + frame.payload.len());
    }

    // Contract 2: every truncation of a valid wire image is a typed
    // malformed-frame error.
    #[test]
    fn truncation_is_typed(frame in arb_frame(), cut in any::<usize>()) {
        let wire = frame.encode();
        let keep = cut % wire.len().max(1);
        let result = MuxFrame::decode(wire.get(..keep).unwrap_or(&[]));
        prop_assert!(matches!(result, Err(NetError::MalformedFrame { .. })));
    }

    // Contract 2: arbitrary byte corruption either cancels out (decodes
    // to the identical frame) or is a typed error. It never decodes to a
    // frame with different routing (session/kind/seq) or payload.
    #[test]
    fn corruption_never_misroutes(
        frame in arb_frame(),
        tweaks in vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        let wire = frame.encode();
        let mut bad = wire.clone();
        for (pos, xor) in &tweaks {
            let i = pos % bad.len();
            if let Some(byte) = bad.get_mut(i) {
                *byte ^= xor;
            }
        }
        match MuxFrame::decode(&bad) {
            // The tweaks cancelled each other out: must be the very
            // same frame, not a lookalike.
            Ok(decoded) => prop_assert_eq!(decoded, frame),
            Err(NetError::MalformedFrame { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    // Contract 2 at the bit level: a single bit flip is always detected
    // (CRC-32 has Hamming distance > 1 at these frame lengths).
    #[test]
    fn single_bitflip_always_detected(
        frame in arb_frame(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bad = frame.encode();
        let i = pos % bad.len();
        if let Some(byte) = bad.get_mut(i) {
            *byte ^= 1 << bit;
        }
        prop_assert!(matches!(
            MuxFrame::decode(&bad),
            Err(NetError::MalformedFrame { .. })
        ));
    }

    // Contract 3: sessions interleaved arbitrarily on one connection each
    // see exactly their own payload stream, in order — and that stream is
    // byte-identical to the same payloads sent over the bare transport
    // with no envelope at all.
    #[test]
    fn interleaved_sessions_demux_to_independent_streams(
        traffic in vec((0u32..5, vec(any::<u8>(), 0..64)), 1..60),
    ) {
        // Envelope path: all sessions share one connection.
        let (mut tx, mut rx) = duplex_pair();
        let mut seqs = std::collections::HashMap::new();
        for (session, payload) in &traffic {
            let seq = seqs.entry(*session).or_insert(0u32);
            tx.send(&MuxFrame::data(*session, *seq, payload.clone()).encode()).unwrap();
            *seq += 1;
        }
        drop(tx);
        let mut demuxed: std::collections::HashMap<u32, Vec<Vec<u8>>> = Default::default();
        while let Ok(raw) = rx.recv() {
            let frame = MuxFrame::decode(&raw).expect("uncorrupted frame must decode");
            prop_assert_eq!(frame.kind, MuxKind::Data);
            // Per-session sequence numbers count that session's frames only.
            let stream = demuxed.entry(frame.session).or_default();
            prop_assert_eq!(frame.seq as usize, stream.len());
            stream.push(frame.payload);
        }

        // Bare path: each session alone on its own connection.
        for wanted in 0u32..5 {
            let (mut btx, mut brx) = duplex_pair();
            for (session, payload) in &traffic {
                if *session == wanted {
                    btx.send(payload).unwrap();
                }
            }
            drop(btx);
            let mut bare = Vec::new();
            while let Ok(frame) = brx.recv() {
                bare.push(frame);
            }
            prop_assert_eq!(
                demuxed.remove(&wanted).unwrap_or_default(),
                bare,
                "session {} stream diverged from its solo run",
                wanted
            );
        }
        // Nothing demuxed to a session nobody sent to.
        prop_assert!(demuxed.is_empty());
    }
}
