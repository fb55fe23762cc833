//! An authenticated-encryption session layer.
//!
//! The paper assumes "the use of standard libraries or packages for secure
//! communication" (§2.1). This module builds that box from the substrates
//! in this workspace: an unauthenticated Diffie–Hellman key exchange over
//! the safe-prime group (adequate for the semi-honest model, where parties
//! follow the protocol), HKDF key separation per direction, ChaCha20
//! encryption with counter nonces, and HMAC-SHA-256 frame authentication.
//!
//! Wire format of a secured frame: `8-byte BE sequence ‖ ciphertext ‖
//! 32-byte tag`, MACed over the sequence and ciphertext so frames cannot
//! be reordered, replayed or truncated undetected.
//!
//! The channel sits directly on the connection, below the session mux
//! ([`crate::server`]): it seals whole mux frames, headers included. As a
//! [`DeadlineTransport`] it hands its receive side to the mux's reader
//! thread by moving the receive-direction keys into the reader, while
//! the sending half stays with the connection loop.

use minshare_bignum::random::random_range;
use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_hash::{chacha20, hkdf, hmac::HmacSha256};
use rand::Rng;

use crate::error::NetError;
use crate::transport::{DeadlineTransport, SplitReader, Transport};

/// Which side of the handshake this endpoint plays (determines key
/// directionality; both sides otherwise run identical code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The party that speaks first.
    Initiator,
    /// The party that responds.
    Responder,
}

/// Keys for one direction of the channel.
///
/// Deliberately does not derive `Debug` — the cipher and MAC keys are
/// session secrets. Dropping the keys scrubs them best-effort.
#[derive(Clone)]
struct DirectionKeys {
    cipher_key: [u8; 32],
    mac_key: [u8; 32],
    /// Per-direction frame counter (nonce + replay protection).
    seq: u64,
}

impl std::fmt::Debug for DirectionKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectionKeys")
            .field("cipher_key", &"<redacted>")
            .field("mac_key", &"<redacted>")
            .field("seq", &self.seq)
            .finish()
    }
}

impl Drop for DirectionKeys {
    fn drop(&mut self) {
        scrub(&mut self.cipher_key);
        scrub(&mut self.mac_key);
    }
}

/// Zeroes secret bytes before they are freed.
fn scrub(secret: &mut [u8]) {
    secret.fill(0);
    // Keep the zeroing stores from being elided as dead writes.
    std::hint::black_box(secret);
}

const TAG_LEN: usize = 32;
const SEQ_LEN: usize = 8;

/// An encrypted, authenticated channel over any [`Transport`].
pub struct SecureChannel<T: Transport> {
    inner: T,
    send_keys: DirectionKeys,
    /// `None` once [`DeadlineTransport::split_reader`] has moved the keys
    /// into the reader.
    recv_keys: Option<DirectionKeys>,
}

impl<T: DeadlineTransport> SecureChannel<T> {
    /// Runs the handshake over `transport` and returns the secured channel.
    ///
    /// Both parties must pass the same `group`; the roles must differ. A
    /// peer whose public value has not arrived within `timeout_ms` fails
    /// the handshake, so a silent peer — or one that does not speak the
    /// channel at all — cannot hold the caller forever.
    pub fn establish<R: Rng + ?Sized>(
        mut transport: T,
        group: &QrGroup,
        role: Role,
        rng: &mut R,
        timeout_ms: u64,
    ) -> Result<Self, NetError> {
        // Ephemeral DH over QR_p: the same exponent draw as a group's
        // commutative keys, without the inverse such a key carries, and
        // scrubbed on every path out of the handshake.
        let mut x = random_range(rng, &UBig::one(), group.order());
        let keys = exchange_keys(&mut transport, group, role, &x, timeout_ms);
        x.zeroize();
        let (send_keys, recv_keys) = keys?;
        Ok(SecureChannel {
            inner: transport,
            send_keys,
            recv_keys: Some(recv_keys),
        })
    }
}

/// The handshake under the ephemeral exponent `x`: exchanges public
/// values over `transport` and derives this side's `(send, receive)`
/// keys.
fn exchange_keys<T: DeadlineTransport>(
    transport: &mut T,
    group: &QrGroup,
    role: Role,
    x: &UBig,
    timeout_ms: u64,
) -> Result<(DirectionKeys, DirectionKeys), NetError> {
    let my_public = group.pow(&group.generator(), x);
    let my_bytes = group
        .encode_element(&my_public)
        .map_err(|e| NetError::HandshakeFailed {
            detail: e.to_string(),
        })?;

    // Exchange publics; initiator sends first to fix the ordering.
    let recv_public = |t: &mut T| {
        t.recv_deadline(timeout_ms)?
            .ok_or_else(|| NetError::HandshakeFailed {
                detail: format!("no public value from the peer within {timeout_ms} ms"),
            })
    };
    let peer_bytes = match role {
        Role::Initiator => {
            transport.send(&my_bytes)?;
            recv_public(transport)?
        }
        Role::Responder => {
            let peer = recv_public(transport)?;
            transport.send(&my_bytes)?;
            peer
        }
    };
    let peer_public = group
        .decode_element(&peer_bytes)
        .map_err(|e| NetError::HandshakeFailed {
            detail: format!("peer public key invalid: {e}"),
        })?;
    // The shared secret and everything derived from it is scrubbed as
    // soon as its successor exists, on the error path too.
    let mut shared = group.pow(&peer_public, x);
    let shared_bytes = group.encode_element(&shared);
    shared.zeroize();
    let mut shared_bytes = shared_bytes.map_err(|e| NetError::HandshakeFailed {
        detail: e.to_string(),
    })?;

    // Directional keys: the transcript binds both publics in
    // initiator-first order so the two sides derive identical material.
    let mut transcript = Vec::new();
    match role {
        Role::Initiator => {
            transcript.extend_from_slice(&my_bytes);
            transcript.extend_from_slice(&peer_bytes);
        }
        Role::Responder => {
            transcript.extend_from_slice(&peer_bytes);
            transcript.extend_from_slice(&my_bytes);
        }
    }
    let mut okm = hkdf::derive(
        b"minshare/secure-channel/v1",
        &shared_bytes,
        &transcript,
        (32 + 32) * 2,
    );
    scrub(&mut shared_bytes);
    let key = |range: std::ops::Range<usize>| {
        let mut k = [0u8; 32];
        k.copy_from_slice(&okm[range]);
        k
    };
    let i2r = DirectionKeys {
        cipher_key: key(0..32),
        mac_key: key(32..64),
        seq: 0,
    };
    let r2i = DirectionKeys {
        cipher_key: key(64..96),
        mac_key: key(96..128),
        seq: 0,
    };
    scrub(&mut okm);
    Ok(match role {
        Role::Initiator => (i2r, r2i),
        Role::Responder => (r2i, i2r),
    })
}

/// Nonce for sequence number `seq`: 4 zero bytes + BE counter.
fn nonce(seq: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[4..].copy_from_slice(&seq.to_be_bytes());
    n
}

impl DirectionKeys {
    /// Encrypts and authenticates one frame into its wire record
    /// `seq ‖ ciphertext ‖ tag`, advancing the send counter.
    fn seal(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let seq = self.seq;
        // A wrapped counter would reuse a ChaCha20 nonce; refuse instead
        // of panicking so callers can re-key and continue.
        self.seq = seq.checked_add(1).ok_or(NetError::SequenceExhausted)?;
        let mut body = frame.to_vec();
        chacha20::apply_keystream(&self.cipher_key, &nonce(seq), 1, &mut body);
        let mut wire = Vec::with_capacity(SEQ_LEN + body.len() + TAG_LEN);
        wire.extend_from_slice(&seq.to_be_bytes());
        wire.extend_from_slice(&body);
        let tag = HmacSha256::mac(&self.mac_key, &wire);
        wire.extend_from_slice(&tag);
        Ok(wire)
    }

    /// Verifies, sequence-checks, and decrypts one wire record, advancing
    /// the receive counter.
    fn open(&mut self, wire: Vec<u8>) -> Result<Vec<u8>, NetError> {
        if wire.len() < SEQ_LEN + TAG_LEN {
            return Err(NetError::MalformedFrame {
                detail: "secured frame too short".to_string(),
            });
        }
        let (signed, tag) = wire.split_at(wire.len() - TAG_LEN);
        if !HmacSha256::verify(&self.mac_key, signed, tag) {
            return Err(NetError::AuthenticationFailed);
        }
        let mut seq_bytes = [0u8; SEQ_LEN];
        seq_bytes.copy_from_slice(&signed[..SEQ_LEN]);
        let seq = u64::from_be_bytes(seq_bytes);
        if seq != self.seq {
            // Replay or reorder.
            return Err(NetError::MalformedFrame {
                detail: format!("expected seq {}, got {seq}", self.seq),
            });
        }
        self.seq += 1;
        let mut body = signed[SEQ_LEN..].to_vec();
        chacha20::apply_keystream(&self.cipher_key, &nonce(seq), 1, &mut body);
        minshare_trace::emit("net", "opened", true, || {
            vec![
                minshare_trace::size("plain_bytes", body.len() as u64),
                minshare_trace::size("wire_bytes", wire.len() as u64),
            ]
        });
        Ok(body)
    }
}

impl<T: Transport> Transport for SecureChannel<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let wire = self.send_keys.seal(frame)?;
        minshare_trace::emit("net", "sealed", true, || {
            vec![
                minshare_trace::size("plain_bytes", frame.len() as u64),
                minshare_trace::size("wire_bytes", wire.len() as u64),
            ]
        });
        self.inner.send(&wire)
    }

    /// After a split the reader holds the keys, and this fails `Closed`
    /// without touching the link.
    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let keys = self.recv_keys.as_mut().ok_or(NetError::Closed)?;
        keys.open(self.inner.recv()?)
    }
}

impl<T: DeadlineTransport> DeadlineTransport for SecureChannel<T> {
    /// Deadline semantics are the inner transport's; a record that does
    /// arrive is verified and decrypted exactly as in [`Transport::recv`].
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        let keys = self.recv_keys.as_mut().ok_or(NetError::Closed)?;
        match self.inner.recv_deadline(timeout_ms)? {
            Some(wire) => keys.open(wire).map(Some),
            None => Ok(None),
        }
    }

    /// The reader opens each record with the receive-direction keys,
    /// which move into it; sealing stays here. A second split finds no
    /// keys, and its reader fails `Closed` without touching the link.
    fn split_reader(&mut self) -> SplitReader {
        let mut keys = self.recv_keys.take();
        let SplitReader { mut recv, unblock } = self.inner.split_reader();
        SplitReader {
            recv: Box::new(move || keys.as_mut().ok_or(NetError::Closed)?.open(recv()?)),
            unblock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::duplex_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(11);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    fn establish_pair() -> (
        SecureChannel<crate::duplex::DuplexEndpoint>,
        SecureChannel<crate::duplex::DuplexEndpoint>,
    ) {
        let g = group();
        let (a, b) = duplex_pair();
        let g2 = g.clone();
        let handle = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(2);
            SecureChannel::establish(b, &g2, Role::Responder, &mut rng, 10_000).unwrap()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let chan_a = SecureChannel::establish(a, &g, Role::Initiator, &mut rng, 10_000).unwrap();
        let chan_b = handle.join().unwrap();
        (chan_a, chan_b)
    }

    #[test]
    fn round_trip_both_directions() {
        let (mut a, mut b) = establish_pair();
        a.send(b"over the river").unwrap();
        assert_eq!(b.recv().unwrap(), b"over the river");
        b.send(b"and through the woods").unwrap();
        assert_eq!(a.recv().unwrap(), b"and through the woods");
    }

    #[test]
    fn many_frames_sequence() {
        let (mut a, mut b) = establish_pair();
        for i in 0..50u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(b.recv().unwrap(), i.to_be_bytes());
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let g = group();
        let (a, b) = duplex_pair();
        let g2 = g.clone();
        let handle = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(2);
            SecureChannel::establish(b, &g2, Role::Responder, &mut rng, 10_000).unwrap()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let mut chan_a =
            SecureChannel::establish(a, &g, Role::Initiator, &mut rng, 10_000).unwrap();
        let chan_b = handle.join().unwrap();
        // Peek at the raw wire by receiving on the *inner* transport.
        chan_a.send(b"secret-payload").unwrap();
        let mut raw = chan_b.inner;
        let wire = raw.recv().unwrap();
        assert!(!wire
            .windows(b"secret-payload".len())
            .any(|w| w == b"secret-payload"));
    }

    #[test]
    fn tampering_detected() {
        let (mut a, b) = establish_pair();
        a.send(b"payload").unwrap();
        // Intercept and flip a bit.
        let mut inner = b.inner;
        let mut wire = inner.recv().unwrap();
        wire[SEQ_LEN] ^= 0x01;
        // Re-inject through a fresh pair glued to b's keys.
        let (mut tx, rx) = duplex_pair();
        tx.send(&wire).unwrap();
        let mut b2 = SecureChannel {
            inner: rx,
            send_keys: b.send_keys.clone(),
            recv_keys: b.recv_keys.clone(),
        };
        assert_eq!(b2.recv().unwrap_err(), NetError::AuthenticationFailed);
    }

    #[test]
    fn replay_detected() {
        let (mut a, b) = establish_pair();
        a.send(b"frame-0").unwrap();
        let mut inner = b.inner;
        let wire = inner.recv().unwrap();
        // Deliver the same wire frame twice.
        let (mut tx, rx) = duplex_pair();
        tx.send(&wire).unwrap();
        tx.send(&wire).unwrap();
        let mut b2 = SecureChannel {
            inner: rx,
            send_keys: b.send_keys.clone(),
            recv_keys: b.recv_keys.clone(),
        };
        assert_eq!(b2.recv().unwrap(), b"frame-0");
        assert!(matches!(
            b2.recv().unwrap_err(),
            NetError::MalformedFrame { .. }
        ));
    }

    #[test]
    fn short_frame_rejected() {
        let (_a, b) = establish_pair();
        let (mut tx, rx) = duplex_pair();
        tx.send(&[0u8; 10]).unwrap();
        let mut b2 = SecureChannel {
            inner: rx,
            send_keys: b.send_keys.clone(),
            recv_keys: b.recv_keys.clone(),
        };
        assert!(matches!(
            b2.recv().unwrap_err(),
            NetError::MalformedFrame { .. }
        ));
    }

    #[test]
    fn exhausted_counter_is_an_error_not_a_panic() {
        let (mut a, _b) = establish_pair();
        a.send_keys.seq = u64::MAX;
        assert_eq!(a.send(b"x").unwrap_err(), NetError::SequenceExhausted);
    }

    #[test]
    fn direction_keys_debug_redacted() {
        let (a, _b) = establish_pair();
        let rendered = format!("{:?}", a.send_keys);
        assert!(rendered.contains("<redacted>"), "keys leaked: {rendered}");
        assert!(rendered.contains("seq"));
    }

    #[test]
    fn empty_frames_allowed() {
        let (mut a, mut b) = establish_pair();
        a.send(b"").unwrap();
        assert_eq!(b.recv().unwrap(), b"");
    }

    #[test]
    fn a_silent_peer_fails_the_handshake_at_the_deadline() {
        let (a, _silent) = duplex_pair();
        let mut rng = StdRng::seed_from_u64(1);
        let err = SecureChannel::establish(a, &group(), Role::Responder, &mut rng, 20)
            .err()
            .expect("no handshake without a peer");
        assert!(matches!(err, NetError::HandshakeFailed { .. }), "{err:?}");
    }

    #[test]
    fn deadline_receive_opens_records() {
        let (mut a, mut b) = establish_pair();
        assert_eq!(b.recv_deadline(1).unwrap(), None);
        a.send(b"late").unwrap();
        assert_eq!(b.recv_deadline(10_000).unwrap(), Some(b"late".to_vec()));
    }

    #[test]
    fn split_reader_takes_the_receive_keys_and_sealing_stays() {
        use crate::tcp::{TcpAcceptor, TcpTransport};

        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let g = group();
        let g2 = g.clone();
        let handle = std::thread::spawn(move || {
            let (t, _) = acceptor.accept().unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            SecureChannel::establish(t, &g2, Role::Responder, &mut rng, 10_000).unwrap()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let t = TcpTransport::connect(addr).unwrap();
        let mut a = SecureChannel::establish(t, &g, Role::Initiator, &mut rng, 10_000).unwrap();
        let mut b = handle.join().unwrap();

        let SplitReader { mut recv, unblock } = b.split_reader();
        // The keys went with the reader: the channel itself cannot open,
        // and neither can a second reader.
        assert_eq!(b.recv_deadline(1).unwrap_err(), NetError::Closed);
        assert_eq!((b.split_reader().recv)().unwrap_err(), NetError::Closed);
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        assert_eq!(recv().unwrap(), b"one");
        assert_eq!(recv().unwrap(), b"two");
        b.send(b"back").unwrap();
        assert_eq!(a.recv().unwrap(), b"back");
        unblock();
        assert!(recv().is_err());
    }
}
