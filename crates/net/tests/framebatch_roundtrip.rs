//! Round-trip equality tests for the zero-copy frame batching path.
//!
//! The contract under test: for every transport in the stack,
//! `send_batch(batch)` is indistinguishable on the receive side (and on
//! the raw wire) from calling `send` once per frame.

use minshare_net::duplex::duplex_pair;
use minshare_net::framebatch::FrameBatch;
use minshare_net::secure::{Role, SecureChannel};
use minshare_net::simnet::{sim_pair, FaultPlan, SimConfig, StallWindow};
use minshare_net::{CountingTransport, NetError, Transport};

use minshare_crypto::QrGroup;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A varied set of payloads: empty, tiny, and multi-KiB frames.
fn payloads() -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(), b"x".to_vec(), b"two parts".to_vec()];
    for i in 0..8u32 {
        let len = 17 * (i as usize + 1) * (i as usize + 1);
        out.push((0..len).map(|j| (j as u8).wrapping_mul(31).wrapping_add(i as u8)).collect());
    }
    out
}

fn batch_of(frames: &[Vec<u8>]) -> FrameBatch {
    let mut batch = FrameBatch::new();
    for frame in frames {
        // Exercise the scatter/gather path: split each payload in two.
        let mid = frame.len() / 2;
        batch.push(&[&frame[..mid], &frame[mid..]]).unwrap();
    }
    batch
}

#[test]
fn duplex_batch_equals_per_frame() {
    let frames = payloads();

    let (mut a1, mut b1) = duplex_pair();
    for frame in &frames {
        a1.send(frame).unwrap();
    }
    let (mut a2, mut b2) = duplex_pair();
    a2.send_batch(batch_of(&frames)).unwrap();

    for frame in &frames {
        assert_eq!(&b1.recv().unwrap(), frame);
        assert_eq!(&b2.recv().unwrap(), frame);
    }
    drop((a1, a2));
    assert_eq!(b1.recv().unwrap_err(), NetError::Closed);
    assert_eq!(b2.recv().unwrap_err(), NetError::Closed);
}

#[test]
fn duplex_batch_respects_frame_limit() {
    let (a, _b) = duplex_pair();
    let mut a = a.with_frame_limit(8);
    let mut batch = FrameBatch::new();
    batch.push(&[&[0u8; 4]]).unwrap();
    batch.push(&[&[0u8; 9]]).unwrap();
    assert!(matches!(
        a.send_batch(batch).unwrap_err(),
        NetError::FrameTooLarge { size: 9, limit: 8 }
    ));
}

#[test]
fn counting_transport_accounts_batches_like_singles() {
    let frames = payloads();

    let (a1, mut b1) = duplex_pair();
    let (mut a1, single_stats) = CountingTransport::new(a1);
    for frame in &frames {
        a1.send(frame).unwrap();
    }
    let (a2, mut b2) = duplex_pair();
    let (mut a2, batch_stats) = CountingTransport::new(a2);
    a2.send_batch(batch_of(&frames)).unwrap();

    assert_eq!(batch_stats.bytes_sent(), single_stats.bytes_sent());
    assert_eq!(batch_stats.frames_sent(), single_stats.frames_sent());
    assert_eq!(batch_stats.frames_sent(), frames.len() as u64);
    for frame in &frames {
        assert_eq!(&b1.recv().unwrap(), frame);
        assert_eq!(&b2.recv().unwrap(), frame);
    }
}

fn secure_pair(
    group: &QrGroup,
) -> (
    SecureChannel<minshare_net::duplex::DuplexEndpoint>,
    SecureChannel<minshare_net::duplex::DuplexEndpoint>,
) {
    let (a, b) = duplex_pair();
    let g2 = group.clone();
    let responder = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(2);
        SecureChannel::establish(b, &g2, Role::Responder, &mut rng).unwrap()
    });
    let mut rng = StdRng::seed_from_u64(1);
    let chan_a = SecureChannel::establish(a, group, Role::Initiator, &mut rng).unwrap();
    (chan_a, responder.join().unwrap())
}

/// The secure channel's batch path must produce byte-identical records:
/// two channels with identical (seeded) keys, one sending per-frame and
/// one batching, must be interchangeable from the receiver's view.
#[test]
fn secure_channel_batch_equals_per_frame() {
    let mut rng = StdRng::seed_from_u64(0x5ec);
    let group = QrGroup::generate(&mut rng, 64).unwrap();
    let frames = payloads();

    let (mut single_tx, mut single_rx) = secure_pair(&group);
    let (mut batch_tx, mut batch_rx) = secure_pair(&group);

    for frame in &frames {
        single_tx.send(frame).unwrap();
    }
    batch_tx.send_batch(batch_of(&frames)).unwrap();

    for frame in &frames {
        assert_eq!(&single_rx.recv().unwrap(), frame);
        assert_eq!(&batch_rx.recv().unwrap(), frame);
    }
    // Counters advanced identically: the next frame from either sender
    // decrypts on the other pair's receiver-state clone of itself.
    single_tx.send(b"tail").unwrap();
    batch_tx.send(b"tail").unwrap();
    assert_eq!(single_rx.recv().unwrap(), b"tail");
    assert_eq!(batch_rx.recv().unwrap(), b"tail");
}

/// The simnet endpoint itself (default per-frame batch path) delivers a
/// batch in order: over a perfect link, and over one whose jitter and
/// stall hold frames back unevenly without ever letting one overtake
/// another.
#[test]
fn simnet_default_batch_path_round_trips() {
    let frames = payloads();
    let jittered = FaultPlan {
        seed: 3,
        delay: 0.5,
        max_delay_ms: 15,
        stalls: vec![StallWindow {
            from_ms: 0,
            until_ms: 10,
        }],
        ..FaultPlan::perfect()
    };
    for plan in [FaultPlan::perfect(), jittered] {
        let (mut a, mut b, trace) = sim_pair(SimConfig::default(), &plan);
        a.send_batch(batch_of(&frames)).unwrap();
        drop(a);
        for frame in &frames {
            assert_eq!(&b.recv().unwrap(), frame);
        }
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
        let times: Vec<Option<u64>> = trace
            .snapshot()
            .a_to_b
            .iter()
            .map(|e| e.delivery_vtime)
            .collect();
        assert_eq!(times.len(), frames.len());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
