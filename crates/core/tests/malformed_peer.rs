//! Regression tests for peer-supplied garbage: a protocol engine facing a
//! misbehaving peer must come back with a typed [`ProtocolError`], never a
//! panic. Each test plays one honest engine against a scripted "peer"
//! that injects truncated, corrupted, mistyped or unsorted frames
//! directly on the raw transport.

use minshare::prelude::*;
use minshare::wire::Message;
use minshare_bignum::UBig;
use minshare_net::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> QrGroup {
    let mut rng = StdRng::seed_from_u64(0xbadf);
    QrGroup::generate(&mut rng, 64).unwrap()
}

fn values(strs: &[&str]) -> Vec<Vec<u8>> {
    strs.iter().map(|s| s.as_bytes().to_vec()).collect()
}

/// Runs `intersection::run_receiver` against a scripted sender and
/// returns the receiver-side error.
fn receiver_vs_scripted_sender(
    g: &QrGroup,
    script: impl FnOnce(&mut dyn Transport, &QrGroup) -> Result<(), ProtocolError> + Send,
) -> ProtocolError {
    run_two_party(
        |t| {
            script(t, g)?;
            // Stay connected (draining frames) until the receiver exits,
            // so its own sends don't fail with Closed before it gets to
            // read the injected frame.
            while t.recv().is_ok() {}
            Ok(())
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(2);
            intersection::run_receiver(t, g, &values(&["a", "b"]), &mut rng)
        },
    )
    .unwrap_err()
}

#[test]
fn receiver_rejects_truncated_frame() {
    let g = group();
    let err = receiver_vs_scripted_sender(&g, |t, g| {
        // A legitimate first message, cut short mid-codeword.
        let mut rng = StdRng::seed_from_u64(1);
        let x = g.sample_element(&mut rng);
        let frame = Message::Codewords(vec![x]).encode(g)?;
        t.send(&frame[..frame.len() - 1])?;
        Ok(())
    });
    assert!(
        matches!(err, ProtocolError::MalformedMessage { .. }),
        "got {err:?}"
    );
}

#[test]
fn receiver_rejects_pure_garbage() {
    let g = group();
    let err = receiver_vs_scripted_sender(&g, |t, _| {
        t.send(&[0xff, 0x13, 0x37, 0x00, 0x01, 0x02, 0x03])?;
        Ok(())
    });
    assert!(
        matches!(err, ProtocolError::MalformedMessage { .. }),
        "got {err:?}"
    );
}

#[test]
fn receiver_rejects_empty_frame() {
    let g = group();
    let err = receiver_vs_scripted_sender(&g, |t, _| {
        t.send(&[])?;
        Ok(())
    });
    assert!(
        matches!(err, ProtocolError::MalformedMessage { .. }),
        "got {err:?}"
    );
}

#[test]
fn receiver_rejects_non_group_codewords() {
    let g = group();
    let err = receiver_vs_scripted_sender(&g, |t, g| {
        // Well-formed framing carrying a zero codeword (not a residue).
        let mut frame = vec![1u8, 0, 0, 0, 1];
        frame.extend(vec![0u8; g.codeword_bytes()]);
        t.send(&frame)?;
        Ok(())
    });
    assert!(matches!(err, ProtocolError::Crypto(_)), "got {err:?}");
}

#[test]
fn receiver_rejects_unsorted_z_s() {
    // The receiver checks Z_S arrives sorted (§3.2.2); an unsorted list
    // must surface as NotSorted, not be silently accepted.
    let g = group();
    let err = receiver_vs_scripted_sender(&g, |t, g| {
        let mut rng = StdRng::seed_from_u64(3);
        let mut els: Vec<UBig> = (0..4).map(|_| g.sample_element(&mut rng)).collect();
        els.sort();
        els.reverse(); // strictly decreasing = definitely not sorted
        t.send(&Message::Codewords(els).encode(g)?)?;
        Ok(())
    });
    assert!(
        matches!(
            err,
            ProtocolError::NotSorted { .. } | ProtocolError::MalformedMessage { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn receiver_rejects_wrong_message_kind() {
    // First flight of §3.2.2 is a Codewords list; a PayloadPairs message
    // in its place is a protocol violation.
    let g = group();
    let err = receiver_vs_scripted_sender(&g, |t, g| {
        let mut rng = StdRng::seed_from_u64(4);
        let x = g.sample_element(&mut rng);
        t.send(&Message::PayloadPairs(vec![(x, b"p".to_vec())]).encode(g)?)?;
        Ok(())
    });
    assert!(
        matches!(err, ProtocolError::UnexpectedMessage { .. }),
        "got {err:?}"
    );
}

#[test]
fn sender_survives_peer_hangup() {
    // The peer disappearing mid-protocol is a NetError, not a panic.
    let g = group();
    let err = run_two_party(
        |t| {
            let mut rng = StdRng::seed_from_u64(5);
            intersection::run_sender(t, &g, &values(&["a", "b", "c"]), &mut rng)
        },
        |_t| -> Result<(), ProtocolError> { Ok(()) }, // hangs up immediately
    )
    .unwrap_err();
    assert!(matches!(err, ProtocolError::Net(_)), "got {err:?}");
}

#[test]
fn intersection_size_receiver_rejects_garbage_response() {
    let g = group();
    let err = run_two_party(
        |t| {
            // Read the receiver's first flight, reply with noise.
            let _ = t.recv()?;
            t.send(b"complete nonsense")?;
            Ok(())
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(6);
            intersection_size::run_receiver(t, &g, &values(&["a", "b"]), &mut rng)
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ProtocolError::MalformedMessage { .. }),
        "got {err:?}"
    );
}

#[test]
fn receiver_refuses_an_inflated_reply_header() {
    // Every peer-chosen size is bounded before allocation: `S`'s answer
    // to `Y_R` is exactly as long as `Y_R`, so a 10-byte chunked header
    // claiming 2^32 - 1 codewords is refused on the header alone. The
    // scripted peer hangs up right after it — any other error means the
    // receiver had sized a buffer from the claim and gone on to wait for
    // the elements.
    let g = group();
    let err = run_two_party(
        |t| {
            let _yr = t.recv()?;
            t.send(&Message::Codewords(vec![]).encode(&g)?)?; // Y_S = ∅
                                                              // [TAG_CHUNKED, TAG_CODEWORDS, total_items, chunk_count]
            let mut header = vec![4u8, 1];
            header.extend_from_slice(&u32::MAX.to_be_bytes());
            header.extend_from_slice(&1u32.to_be_bytes());
            t.send(&header)?;
            Ok(())
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(7);
            engine::run_receiver(
                t,
                &g,
                ProtocolShape::INTERSECTION,
                &values(&["a", "b"]),
                &mut rng,
                &EncryptPool::new(0),
                PipelineConfig::default(),
                &ShardConfig::default(),
            )
        },
    )
    .unwrap_err();
    assert_eq!(
        err,
        ProtocolError::LengthMismatch {
            expected: 2,
            got: u32::MAX as usize
        }
    );
}
