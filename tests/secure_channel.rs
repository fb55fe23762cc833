//! The full Figure-1 stack: protocol engines over the authenticated-
//! encryption session layer over the in-memory transport — and a check
//! that the secured wire carries no recognizable protocol bytes.

use minshare::prelude::*;
use minshare_net::secure::{Role, SecureChannel};
use minshare_net::{duplex_pair, NetError, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> QrGroup {
    let mut rng = StdRng::seed_from_u64(3);
    QrGroup::generate(&mut rng, 64).expect("group")
}

/// A transport wrapper that records every raw frame it carries.
struct Tap<T: Transport> {
    inner: T,
    frames: std::sync::Arc<parking_lot::Mutex<Vec<Vec<u8>>>>,
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.frames.lock().push(frame.to_vec());
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }
}

#[test]
fn intersection_over_encrypted_channel() {
    let g = group();
    let vs: Vec<Vec<u8>> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    let vr: Vec<Vec<u8>> = ["beta", "gamma", "delta"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();

    let (s_end, r_end) = duplex_pair();
    let g_s = g.clone();
    let vs_c = vs.clone();
    let sender = std::thread::spawn(move || {
        let mut hs_rng = StdRng::seed_from_u64(11);
        let mut chan =
            SecureChannel::establish(s_end, &g_s, Role::Initiator, &mut hs_rng).expect("hs");
        let mut rng = StdRng::seed_from_u64(21);
        intersection::run_sender(&mut chan, &g_s, &vs_c, &mut rng).expect("sender")
    });
    let mut hs_rng = StdRng::seed_from_u64(12);
    let mut chan = SecureChannel::establish(r_end, &g, Role::Responder, &mut hs_rng).expect("hs");
    let mut rng = StdRng::seed_from_u64(22);
    let receiver = intersection::run_receiver(&mut chan, &g, &vr, &mut rng).expect("receiver");
    let sender = sender.join().expect("thread");

    assert_eq!(
        receiver.intersection,
        vec![b"beta".to_vec(), b"gamma".to_vec()]
    );
    assert_eq!(sender.peer_set_size, 3);
}

#[test]
fn secured_wire_hides_protocol_frames() {
    // Run the same protocol, tapping the *underlying* transport. The
    // encrypted frames must not contain the plaintext protocol frames.
    let g = group();
    let vs: Vec<Vec<u8>> = vec![b"needle-value".to_vec()];
    let vr: Vec<Vec<u8>> = vec![b"needle-value".to_vec()];

    let frames = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (s_end, r_end) = duplex_pair();
    let tapped = Tap {
        inner: s_end,
        frames: frames.clone(),
    };

    let g_s = g.clone();
    let vs_c = vs.clone();
    let sender = std::thread::spawn(move || {
        let mut hs_rng = StdRng::seed_from_u64(31);
        let mut chan =
            SecureChannel::establish(tapped, &g_s, Role::Initiator, &mut hs_rng).expect("hs");
        let mut rng = StdRng::seed_from_u64(41);
        intersection::run_sender(&mut chan, &g_s, &vs_c, &mut rng).expect("sender")
    });
    let mut hs_rng = StdRng::seed_from_u64(32);
    let mut chan = SecureChannel::establish(r_end, &g, Role::Responder, &mut hs_rng).expect("hs");
    let mut rng = StdRng::seed_from_u64(42);
    let receiver = intersection::run_receiver(&mut chan, &g, &vr, &mut rng).expect("receiver");
    sender.join().expect("thread");
    assert_eq!(receiver.intersection.len(), 1);

    // Recompute what the plaintext frames would look like and ensure no
    // tapped frame contains any of them (headers and codewords are all
    // inside the stream cipher).
    let tapped_frames = frames.lock();
    assert!(!tapped_frames.is_empty());
    let plain_tag = [1u8]; // Codewords message tag
    for frame in tapped_frames.iter().skip(1) {
        // Skip the handshake frame; secured frames start with an 8-byte
        // counter, not a protocol tag.
        assert_ne!(frame.first(), Some(&plain_tag[0]));
    }
}

#[test]
fn equijoin_over_encrypted_channel() {
    let g = group();
    let cipher = HybridCipher::new(g.clone(), 64);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (b"k1".to_vec(), b"payload-one".to_vec()),
        (b"k2".to_vec(), b"payload-two".to_vec()),
    ];
    let vr: Vec<Vec<u8>> = vec![b"k2".to_vec(), b"k3".to_vec()];

    let (s_end, r_end) = duplex_pair();
    let g_s = g.clone();
    let sender = std::thread::spawn(move || {
        let cipher = HybridCipher::new(g_s.clone(), 64);
        let mut hs_rng = StdRng::seed_from_u64(51);
        let mut chan =
            SecureChannel::establish(s_end, &g_s, Role::Initiator, &mut hs_rng).expect("hs");
        let mut rng = StdRng::seed_from_u64(61);
        equijoin::run_sender(&mut chan, &g_s, &cipher, &entries, &mut rng).expect("sender")
    });
    let mut hs_rng = StdRng::seed_from_u64(52);
    let mut chan = SecureChannel::establish(r_end, &g, Role::Responder, &mut hs_rng).expect("hs");
    let mut rng = StdRng::seed_from_u64(62);
    let receiver = equijoin::run_receiver(&mut chan, &g, &cipher, &vr, &mut rng).expect("recv");
    sender.join().expect("thread");

    assert_eq!(
        receiver.matches,
        vec![(b"k2".to_vec(), b"payload-two".to_vec())]
    );
}

/// A transport wrapper that can replay or swap incoming raw frames once
/// a shared switch is flipped (pass-through until then, so the handshake
/// goes through untouched).
#[derive(Clone, Copy, PartialEq)]
enum Meddle {
    Pass,
    Replay,
    Swap,
}

struct Meddler<T: Transport> {
    inner: T,
    mode: std::sync::Arc<parking_lot::Mutex<Meddle>>,
    stash: Option<Vec<u8>>,
}

impl<T: Transport> Transport for Meddler<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let mode = *self.mode.lock();
        match mode {
            Meddle::Pass => self.inner.recv(),
            Meddle::Replay => {
                // Deliver each frame, then deliver it again.
                if let Some(copy) = self.stash.take() {
                    return Ok(copy);
                }
                let frame = self.inner.recv()?;
                self.stash = Some(frame.clone());
                Ok(frame)
            }
            Meddle::Swap => {
                // Deliver frames pairwise in reversed order.
                if let Some(first) = self.stash.take() {
                    return Ok(first);
                }
                let first = self.inner.recv()?;
                let second = self.inner.recv()?;
                self.stash = Some(first);
                Ok(second)
            }
        }
    }
}

fn meddled_pair() -> (
    std::thread::JoinHandle<()>,
    SecureChannel<Meddler<impl Transport>>,
    std::sync::Arc<parking_lot::Mutex<Meddle>>,
) {
    let g = group();
    let (s_end, r_end) = duplex_pair();
    let g_s = g.clone();
    let sender = std::thread::spawn(move || {
        let mut hs_rng = StdRng::seed_from_u64(71);
        let mut chan =
            SecureChannel::establish(s_end, &g_s, Role::Initiator, &mut hs_rng).expect("hs");
        chan.send(b"frame-one").expect("send one");
        chan.send(b"frame-two").expect("send two");
    });
    let switch = std::sync::Arc::new(parking_lot::Mutex::new(Meddle::Pass));
    let meddler = Meddler {
        inner: r_end,
        mode: switch.clone(),
        stash: None,
    };
    let mut hs_rng = StdRng::seed_from_u64(72);
    let chan = SecureChannel::establish(meddler, &g, Role::Responder, &mut hs_rng).expect("hs");
    (sender, chan, switch)
}

#[test]
fn replayed_ciphertext_frame_is_rejected() {
    let (sender, mut chan, switch) = meddled_pair();
    *switch.lock() = Meddle::Replay;
    // The first delivery decrypts fine; the byte-identical replay must
    // fail the sequence check before any plaintext is produced.
    assert_eq!(chan.recv().expect("first"), b"frame-one");
    assert!(matches!(
        chan.recv().expect_err("replay must be rejected"),
        NetError::MalformedFrame { .. } | NetError::AuthenticationFailed
    ));
    sender.join().expect("sender");
}

#[test]
fn reordered_ciphertext_frames_are_rejected() {
    let (sender, mut chan, switch) = meddled_pair();
    *switch.lock() = Meddle::Swap;
    // Frame two arrives first: its sequence number (1) does not match
    // the expected counter (0), so the channel refuses it — a swapped
    // pair can never silently reorder the plaintext stream.
    assert!(matches!(
        chan.recv().expect_err("reordered frame must be rejected"),
        NetError::MalformedFrame { .. } | NetError::AuthenticationFailed
    ));
    sender.join().expect("sender");
}

#[test]
fn secure_channel_completes_on_seeded_schedules() {
    // SecureChannel directly on the simulated link, under seeded jitter,
    // stall and bandwidth schedules: the link delays frames but never
    // drops, repeats or reorders them, so every schedule completes on
    // both sides, each frame decrypting as the next expected one.
    use minshare_net::{sim_pair, FaultPlan, SimConfig};

    let g = group();
    for seed in 0..6u64 {
        let plan = FaultPlan::from_seed(0xbeef_0000 + seed);
        let (a_end, b_end, _trace) = sim_pair(SimConfig::default(), &plan);
        let g_a = g.clone();
        let side_a = std::thread::spawn(move || -> Result<(), NetError> {
            let mut hs_rng = StdRng::seed_from_u64(81);
            let mut chan = SecureChannel::establish(a_end, &g_a, Role::Initiator, &mut hs_rng)?;
            for i in 0..6u8 {
                chan.send(&[i; 24])?;
            }
            assert_eq!(chan.recv()?, b"all six arrived in order");
            Ok(())
        });
        let g_b = g.clone();
        let side_b = std::thread::spawn(move || -> Result<(), NetError> {
            let mut hs_rng = StdRng::seed_from_u64(82);
            let mut chan = SecureChannel::establish(b_end, &g_b, Role::Responder, &mut hs_rng)?;
            for i in 0..6u8 {
                assert_eq!(chan.recv()?, [i; 24]);
            }
            chan.send(b"all six arrived in order")?;
            Ok(())
        });
        let ra = side_a.join().expect("side a");
        let rb = side_b.join().expect("side b");
        assert_eq!(ra, Ok(()), "seed {seed}: side a");
        assert_eq!(rb, Ok(()), "seed {seed}: side b");
    }
}
