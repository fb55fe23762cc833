//! Failure injection: malformed frames, out-of-phase messages, unsorted
//! lists, non-group elements, truncation — every corruption must surface
//! as a typed [`minshare::ProtocolError`], never a panic or a wrong
//! answer.

use minshare::prelude::*;
use minshare::wire::Message;
use minshare::ProtocolError;
use minshare_bignum::UBig;
use minshare_net::{duplex_pair, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> QrGroup {
    let mut rng = StdRng::seed_from_u64(13);
    QrGroup::generate(&mut rng, 64).expect("group")
}

/// Runs the receiver against a scripted fake sender that plays the given
/// frames in order.
fn receiver_against_script(
    g: &QrGroup,
    vr: &[Vec<u8>],
    frames: Vec<Vec<u8>>,
) -> Result<minshare::intersection::IntersectionReceiverOutput, ProtocolError> {
    let (mut fake_sender, mut r_end) = duplex_pair();
    let handle = std::thread::spawn(move || {
        // Consume Y_R, then play the script.
        let _ = fake_sender.recv();
        for f in frames {
            if fake_sender.send(&f).is_err() {
                break;
            }
        }
    });
    let mut rng = StdRng::seed_from_u64(999);
    let out = intersection::run_receiver(&mut r_end, g, vr, &mut rng);
    drop(r_end);
    handle.join().expect("script thread");
    out
}

fn some_codewords(g: &QrGroup, n: usize) -> Vec<UBig> {
    let mut rng = StdRng::seed_from_u64(5);
    let mut v: Vec<UBig> = (0..n).map(|_| g.sample_element(&mut rng)).collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn garbage_frame_is_malformed_error() {
    let g = group();
    let err = receiver_against_script(&g, &[b"x".to_vec()], vec![vec![0xff, 0, 1, 2]])
        .expect_err("must fail");
    assert!(
        matches!(err, ProtocolError::MalformedMessage { .. }),
        "{err}"
    );
}

#[test]
fn truncated_frame_is_malformed_error() {
    let g = group();
    let frame = Message::Codewords(some_codewords(&g, 3))
        .encode(&g)
        .expect("encode");
    let err = receiver_against_script(
        &g,
        &[b"x".to_vec()],
        vec![frame[..frame.len() - 2].to_vec()],
    )
    .expect_err("must fail");
    assert!(
        matches!(err, ProtocolError::MalformedMessage { .. }),
        "{err}"
    );
}

#[test]
fn non_group_element_rejected() {
    let g = group();
    // Hand-craft a Codewords frame holding one out-of-range codeword:
    // 0, q + 1 and p − 1 fit the width but are no signed residues.
    let p_minus_1 = g.modulus().sub_small(1).unwrap();
    for non_member in [UBig::zero(), g.order().add_small(1), p_minus_1] {
        let mut frame = vec![1u8, 0, 0, 0, 1];
        frame.extend(non_member.to_be_bytes_padded(g.codeword_bytes()).unwrap());
        let err =
            receiver_against_script(&g, &[b"x".to_vec()], vec![frame]).expect_err("must fail");
        assert!(matches!(err, ProtocolError::Crypto(_)), "{err}");
    }
}

#[test]
fn unsorted_ys_rejected() {
    let g = group();
    let mut cw = some_codewords(&g, 3);
    cw.reverse(); // now descending
    let frame = Message::Codewords(cw).encode(&g).expect("encode");
    let err = receiver_against_script(&g, &[b"x".to_vec()], vec![frame]).expect_err("must fail");
    assert!(matches!(err, ProtocolError::NotSorted { .. }), "{err}");
}

#[test]
fn duplicate_codewords_in_set_rejected() {
    let g = group();
    let cw = some_codewords(&g, 1);
    let dup = vec![cw[0].clone(), cw[0].clone()];
    let frame = Message::Codewords(dup).encode(&g).expect("encode");
    let err = receiver_against_script(&g, &[b"x".to_vec()], vec![frame]).expect_err("must fail");
    assert!(matches!(err, ProtocolError::NotSorted { .. }), "{err}");
}

#[test]
fn wrong_message_kind_rejected() {
    let g = group();
    let cw = some_codewords(&g, 2);
    let frame = Message::CodewordPairs(vec![(cw[0].clone(), cw[1].clone())])
        .encode(&g)
        .expect("encode");
    let err = receiver_against_script(&g, &[b"x".to_vec()], vec![frame]).expect_err("must fail");
    assert!(
        matches!(err, ProtocolError::UnexpectedMessage { .. }),
        "{err}"
    );
}

#[test]
fn reencryption_length_mismatch_rejected() {
    let g = group();
    // Valid Y_S, then a re-encryption list with the wrong length.
    let ys = Message::Codewords(some_codewords(&g, 2))
        .encode(&g)
        .expect("encode");
    let wrong = Message::Codewords(some_codewords(&g, 3))
        .encode(&g)
        .expect("encode");
    let err = receiver_against_script(&g, &[b"only-one-value".to_vec()], vec![ys, wrong])
        .expect_err("must fail");
    assert!(matches!(err, ProtocolError::LengthMismatch { .. }), "{err}");
}

#[test]
fn peer_disconnect_is_net_error() {
    let g = group();
    // Script with no frames: the fake sender hangs up after Y_R.
    let err = receiver_against_script(&g, &[b"x".to_vec()], vec![]).expect_err("must fail");
    assert!(matches!(err, ProtocolError::Net(_)), "{err}");
}

#[test]
fn sender_validates_too() {
    // Drive the *sender* with an unsorted Y_R.
    let g = group();
    let (mut fake_receiver, mut s_end) = duplex_pair();
    let g2 = g.clone();
    let handle = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(1);
        intersection::run_sender(&mut s_end, &g2, &[b"v".to_vec()], &mut rng)
    });
    let mut cw = some_codewords(&g, 3);
    cw.reverse();
    let frame = Message::Codewords(cw).encode(&g).expect("encode");
    fake_receiver.send(&frame).expect("send");
    let err = handle.join().expect("thread").expect_err("must fail");
    assert!(matches!(err, ProtocolError::NotSorted { .. }), "{err}");
}

#[test]
fn equijoin_rejects_unsorted_payload_table() {
    let g = group();
    let cipher = HybridCipher::new(g.clone(), 16);
    let (mut fake_sender, mut r_end) = duplex_pair();
    let g2 = g.clone();
    let handle = std::thread::spawn(move || {
        let cipher = HybridCipher::new(g2.clone(), 16);
        let mut rng = StdRng::seed_from_u64(2);
        equijoin::run_receiver(&mut r_end, &g2, &cipher, &[b"v".to_vec()], &mut rng)
    });
    // Consume Y_R; reply with a valid pair list, then an unsorted payload
    // table.
    let yr_frame = fake_sender.recv().expect("yr");
    let yr = match Message::decode(&yr_frame, &g).expect("decode") {
        Message::Codewords(l) => l,
        _ => panic!("expected codewords"),
    };
    let mut rng = StdRng::seed_from_u64(3);
    let pairs: Vec<(UBig, UBig)> = yr
        .iter()
        .map(|_| (g.sample_element(&mut rng), g.sample_element(&mut rng)))
        .collect();
    fake_sender
        .send(&Message::CodewordPairs(pairs).encode(&g).expect("enc"))
        .expect("send");
    let mut tags = some_codewords(&g, 2);
    tags.reverse();
    let kappa = g.sample_element(&mut rng);
    let payload: Vec<(UBig, Vec<u8>)> = tags
        .into_iter()
        .map(|t| (t, cipher.encrypt(&kappa, b"x").expect("enc")))
        .collect();
    fake_sender
        .send(&Message::PayloadPairs(payload).encode(&g).expect("enc"))
        .expect("send");
    let err = handle.join().expect("thread").expect_err("must fail");
    assert!(matches!(err, ProtocolError::NotSorted { .. }), "{err}");
}

#[test]
fn hash_collision_detection_hook_works() {
    // Cannot make SHA-256 collide, but the engine also reports
    // HashCollision when two receiver values map to the same sender tag.
    // Simulate by answering Y_R (two values) with identical pair entries.
    let g = group();
    let cipher = HybridCipher::new(g.clone(), 16);
    let (mut fake_sender, mut r_end) = duplex_pair();
    let g2 = g.clone();
    let handle = std::thread::spawn(move || {
        let cipher = HybridCipher::new(g2.clone(), 16);
        let mut rng = StdRng::seed_from_u64(4);
        equijoin::run_receiver(
            &mut r_end,
            &g2,
            &cipher,
            &[b"v1".to_vec(), b"v2".to_vec()],
            &mut rng,
        )
    });
    let _ = fake_sender.recv().expect("yr");
    let mut rng = StdRng::seed_from_u64(5);
    let same = g.sample_element(&mut rng);
    // Same (f_eS(y), f_e'S(y)) for both y's → R sees colliding tags.
    // (Decryption by e_R differs per y... use the *identity* structure:
    // actually colliding tags require equal f_eR^-1 images; send pairs
    // that decrypt to equal values by exploiting that R's decryption is a
    // bijection — impossible to force without e_R. Instead both entries
    // equal means tags differ post-decryption; so this path exercises the
    // PayloadPairs duplicate check instead.)
    let pairs = vec![(same.clone(), same.clone()), (same.clone(), same.clone())];
    fake_sender
        .send(&Message::CodewordPairs(pairs).encode(&g).expect("enc"))
        .expect("send");
    let kappa = g.sample_element(&mut rng);
    let ct = cipher.encrypt(&kappa, b"x").expect("enc");
    let payload = vec![(same.clone(), ct.clone()), (same, ct)];
    fake_sender
        .send(&Message::PayloadPairs(payload).encode(&g).expect("enc"))
        .expect("send");
    let err = handle.join().expect("thread").expect_err("must fail");
    // Duplicate first components in the payload table violate strict
    // sortedness (the paper's collision detection by sorting).
    assert!(
        matches!(
            err,
            ProtocolError::NotSorted { .. } | ProtocolError::HashCollision
        ),
        "{err}"
    );
}
