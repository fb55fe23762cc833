//! Bounded-retry reliability layer.
//!
//! [`RobustTransport`] restores reliable, ordered, exactly-once frame
//! semantics on top of a lossy [`DeadlineTransport`] (in practice the
//! fault-injecting [`crate::simnet`]): a stop-and-wait ARQ with
//!
//! * a CRC-32 integrity check on every frame — truncated or bit-flipped
//!   frames are silently discarded, turning corruption into loss;
//! * per-message retransmission on a timeout that backs off
//!   exponentially, up to a bounded attempt budget
//!   ([`NetError::RetriesExhausted`] when it runs out);
//! * sequence numbers that de-duplicate retransmitted or duplicated
//!   frames, so the layer above sees each message exactly once;
//! * a resumable `SYNC`/`SYNC-REPLY` handshake ([`RobustTransport::establish`],
//!   [`RobustTransport::resync`]) that aligns both sides' counters.
//!
//! Exactly-once delivery is what keeps a [`crate::secure::SecureChannel`]
//! layered *above* this transport consistent across retransmits: the
//! secure layer's strict per-direction sequence counters advance once per
//! message, and a retransmitted frame is the byte-identical ciphertext —
//! never a re-encryption under a reused counter (see SECURITY.md).
//!
//! Both parties may be in `send` simultaneously (the chunked engine
//! does this): a sender waiting for its ACK accepts, acknowledges, and
//! buffers incoming DATA frames, so full-duplex phases cannot deadlock.

use std::collections::VecDeque;

use crate::error::NetError;
use crate::transport::{DeadlineTransport, Transport};

const TAG_DATA: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_SYNC: u8 = 3;
const TAG_SYNC_REPLY: u8 = 4;

/// CRC-32 (IEEE 802.3, reflected) over the concatenation of `parts`.
/// Shared with the session-mux envelope, whose header carries the same
/// checksum so corruption becomes loss rather than misrouting.
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for part in parts {
        for &byte in *part {
            crc ^= u32::from(byte);
            let mut k = 0;
            while k < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
                k += 1;
            }
        }
    }
    !crc
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let arr: [u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_be_bytes(arr))
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_be_bytes(arr))
}

#[derive(Debug)]
enum Frame {
    Data { seq: u64, payload: Vec<u8> },
    Ack { seq: u64 },
    Sync { send_seq: u64, recv_seq: u64, reply: bool },
}

/// Encodes a DATA frame into `out` (cleared first), so a caller sending
/// many messages can reuse one scratch buffer instead of allocating per
/// frame.
fn encode_data_into(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    let seq_bytes = seq.to_be_bytes();
    let crc = crc32(&[&[TAG_DATA], &seq_bytes, payload]);
    out.clear();
    out.reserve(13 + payload.len());
    out.push(TAG_DATA);
    out.extend_from_slice(&seq_bytes);
    out.extend_from_slice(&crc.to_be_bytes());
    out.extend_from_slice(payload);
}

fn encode_data(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_data_into(seq, payload, &mut out);
    out
}

fn encode_ack(seq: u64) -> Vec<u8> {
    let seq_bytes = seq.to_be_bytes();
    let crc = crc32(&[&[TAG_ACK], &seq_bytes]);
    let mut out = Vec::with_capacity(13);
    out.push(TAG_ACK);
    out.extend_from_slice(&seq_bytes);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

fn encode_sync(reply: bool, send_seq: u64, recv_seq: u64) -> Vec<u8> {
    let tag = if reply { TAG_SYNC_REPLY } else { TAG_SYNC };
    let s = send_seq.to_be_bytes();
    let r = recv_seq.to_be_bytes();
    let crc = crc32(&[&[tag], &s, &r]);
    let mut out = Vec::with_capacity(21);
    out.push(tag);
    out.extend_from_slice(&s);
    out.extend_from_slice(&r);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Parses and integrity-checks one raw frame. `None` means the frame is
/// malformed or failed its checksum — the caller treats it as lost.
fn decode(raw: &[u8]) -> Option<Frame> {
    let (&tag, rest) = raw.split_first()?;
    match tag {
        TAG_DATA => {
            let seq = read_u64(rest, 0)?;
            let crc = read_u32(rest, 8)?;
            let payload = rest.get(12..)?;
            if crc32(&[&[TAG_DATA], &seq.to_be_bytes(), payload]) != crc {
                return None;
            }
            Some(Frame::Data {
                seq,
                payload: payload.to_vec(),
            })
        }
        TAG_ACK => {
            let seq = read_u64(rest, 0)?;
            let crc = read_u32(rest, 8)?;
            if rest.len() != 12 || crc32(&[&[TAG_ACK], &seq.to_be_bytes()]) != crc {
                return None;
            }
            Some(Frame::Ack { seq })
        }
        TAG_SYNC | TAG_SYNC_REPLY => {
            let send_seq = read_u64(rest, 0)?;
            let recv_seq = read_u64(rest, 8)?;
            let crc = read_u32(rest, 16)?;
            if rest.len() != 20
                || crc32(&[&[tag], &send_seq.to_be_bytes(), &recv_seq.to_be_bytes()]) != crc
            {
                return None;
            }
            Some(Frame::Sync {
                send_seq,
                recv_seq,
                reply: tag == TAG_SYNC_REPLY,
            })
        }
        _ => None,
    }
}

/// Absorbs `Closed` from a best-effort inner operation into the
/// `peer_gone` flag. A peer's departure mid-operation must surface as the
/// operation's own deterministic outcome, never as a `Closed` whose
/// timing depends on which side's timeout fired first: the receiver
/// legitimately drops its endpoint the moment its own deadline budget
/// runs out, and that drop can race any of the sender's inner calls.
fn absorb_closed(result: Result<(), NetError>, peer_gone: &mut bool) -> Result<(), NetError> {
    match result {
        Err(NetError::Closed) => {
            *peer_gone = true;
            Ok(())
        }
        other => other,
    }
}

/// Retry policy for [`RobustTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustConfig {
    /// Transmission attempts per message (1 + retries) before giving up
    /// with [`NetError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Wait for an ACK after the first transmission, in (virtual or
    /// wall-clock) milliseconds.
    pub base_timeout_ms: u64,
    /// Ceiling for the exponentially backed-off wait.
    pub max_timeout_ms: u64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            max_attempts: 12,
            base_timeout_ms: 30,
            max_timeout_ms: 2_000,
        }
    }
}

/// How many decodable-but-unhelpful frames (stale ACKs, duplicate DATA,
/// junk) one wait will process before counting the wait as a timeout.
/// Bounds the work a misbehaving peer can force per attempt.
const FRAMES_PER_WAIT: u32 = 64;

/// A reliable transport over a lossy one. See the module docs.
pub struct RobustTransport<T: DeadlineTransport> {
    inner: T,
    config: RobustConfig,
    /// Sequence number of the next DATA frame this side will send.
    send_seq: u64,
    /// Sequence number of the next DATA frame expected from the peer.
    recv_seq: u64,
    /// Payloads accepted (and ACKed) while waiting for our own ACK,
    /// delivered in order by subsequent `recv` calls.
    buffered: VecDeque<Vec<u8>>,
}

impl<T: DeadlineTransport> RobustTransport<T> {
    /// Wraps `inner` with the default retry policy.
    pub fn new(inner: T) -> Self {
        Self::with_config(inner, RobustConfig::default())
    }

    /// Wraps `inner` with an explicit retry policy.
    pub fn with_config(inner: T, config: RobustConfig) -> Self {
        RobustTransport {
            inner,
            config,
            send_seq: 0,
            recv_seq: 0,
            buffered: VecDeque::new(),
        }
    }

    /// Consumes the wrapper, returning the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// `(next send seq, next expected recv seq)` — mainly for tests and
    /// diagnostics.
    pub fn counters(&self) -> (u64, u64) {
        (self.send_seq, self.recv_seq)
    }

    fn next_timeout(&self, current: u64) -> u64 {
        current.saturating_mul(2).min(self.config.max_timeout_ms)
    }

    /// Handles one incoming DATA frame: acknowledge it and, if it is the
    /// next expected message, buffer it. Retransmitted or duplicated
    /// frames are re-ACKed but not buffered twice; future frames (ahead
    /// of the expected sequence, possible only after a counter
    /// desynchronization) are ignored so the peer keeps retransmitting.
    fn accept_data(&mut self, seq: u64, payload: Vec<u8>) -> Result<(), NetError> {
        if seq == self.recv_seq {
            self.recv_seq += 1;
            self.buffered.push_back(payload);
            self.inner.send(&encode_ack(seq))?;
        } else if seq < self.recv_seq {
            self.inner.send(&encode_ack(seq))?;
        }
        Ok(())
    }

    /// Answers a handshake probe mid-stream. A `SYNC` is always
    /// answered with a `SYNC-REPLY`; a `SYNC-REPLY` is never answered,
    /// which keeps a duplicated probe from echoing forever.
    fn answer_sync(&mut self, reply: bool) -> Result<(), NetError> {
        if !reply {
            self.inner
                .send(&encode_sync(true, self.send_seq, self.recv_seq))?;
        }
        Ok(())
    }

    /// Runs the counter-alignment handshake until both sides have seen
    /// each other. Safe to call at session start and again mid-stream
    /// ([`Self::resync`]): each side adopts the further-along counter,
    /// so a message delivered-but-unacknowledged before an interruption
    /// is skipped rather than replayed out of sequence.
    pub fn establish(&mut self) -> Result<(), NetError> {
        let mut got_reply = false;
        let mut timeout = self.config.base_timeout_ms;
        let mut peer_gone = false;
        for _ in 0..self.config.max_attempts {
            if !peer_gone {
                let sync = encode_sync(false, self.send_seq, self.recv_seq);
                absorb_closed(self.inner.send(&sync), &mut peer_gone)?;
            }
            let mut frames = 0u32;
            while frames < FRAMES_PER_WAIT {
                frames += 1;
                // Once the peer is gone, only frames already in flight
                // can still help; poll them out without waiting.
                let wait = if peer_gone { 0 } else { timeout };
                let raw = match self.inner.recv_deadline(wait) {
                    Ok(Some(raw)) => raw,
                    Ok(None) => break,
                    // Nothing buffered and the peer is closed: no reply
                    // can ever arrive, so the attempt budget is moot.
                    Err(NetError::Closed) => return Err(self.exhausted()),
                    Err(e) => return Err(e),
                };
                match decode(&raw) {
                    Some(Frame::Sync {
                        send_seq,
                        recv_seq,
                        reply,
                    }) => {
                        // Adopt the peer's view where it is ahead.
                        self.recv_seq = self.recv_seq.max(send_seq);
                        self.send_seq = self.send_seq.max(recv_seq);
                        absorb_closed(self.answer_sync(reply), &mut peer_gone)?;
                        if reply {
                            got_reply = true;
                        }
                        if got_reply {
                            return Ok(());
                        }
                    }
                    // The peer already left the handshake and is sending
                    // data: the channel is established.
                    Some(Frame::Data { seq, payload }) => {
                        absorb_closed(self.accept_data(seq, payload), &mut peer_gone)?;
                        return Ok(());
                    }
                    Some(Frame::Ack { .. }) | None => {}
                }
            }
            if peer_gone {
                return Err(self.exhausted());
            }
            timeout = self.next_timeout(timeout);
        }
        Err(self.exhausted())
    }

    /// Re-runs the handshake mid-stream to realign both sides' counters
    /// (e.g. after an application-level recovery from
    /// [`NetError::RetriesExhausted`]).
    pub fn resync(&mut self) -> Result<(), NetError> {
        minshare_trace::emit("net", "resync", false, Vec::new);
        self.establish()
    }

    /// The single typed outcome of an operation whose attempt budget can
    /// no longer be satisfied — whether the budget genuinely ran out or
    /// the peer departed mid-retransmit. Reporting the full configured
    /// budget in both cases keeps the error value independent of *when*
    /// the departure was observed.
    fn exhausted(&self) -> NetError {
        NetError::RetriesExhausted {
            attempts: self.config.max_attempts,
        }
    }

    /// The stop-and-wait core: transmits `encoded` (a DATA frame
    /// carrying the current `send_seq`) until its ACK arrives, servicing
    /// crossing traffic meanwhile.
    fn send_encoded(&mut self, encoded: &[u8]) -> Result<(), NetError> {
        let seq = self.send_seq;
        let mut timeout = self.config.base_timeout_ms;
        let mut peer_gone = false;
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                // Retransmissions depend on real-clock timeout expiry, so
                // the event is timing-dependent, not seed-deterministic.
                let timeout_ms = timeout;
                minshare_trace::emit("net", "retransmit", false, || {
                    vec![
                        minshare_trace::count("attempt", u64::from(attempt)),
                        minshare_trace::count("timeout_ms", timeout_ms),
                    ]
                });
            }
            if !peer_gone {
                absorb_closed(self.inner.send(encoded), &mut peer_gone)?;
            }
            let mut frames = 0u32;
            while frames < FRAMES_PER_WAIT {
                frames += 1;
                // A departed peer may still have frames in flight (its
                // final ACK can already be queued); drain them without
                // waiting before giving up.
                let wait = if peer_gone { 0 } else { timeout };
                let raw = match self.inner.recv_deadline(wait) {
                    Ok(Some(raw)) => raw,
                    Ok(None) => break,
                    // Nothing buffered and the peer is closed: the ACK
                    // can never arrive. Same typed outcome as a genuine
                    // exhaustion, so the result does not depend on the
                    // timing of the peer's departure.
                    Err(NetError::Closed) => return Err(self.exhausted()),
                    Err(e) => return Err(e),
                };
                match decode(&raw) {
                    Some(Frame::Ack { seq: acked }) if acked == seq => {
                        self.send_seq += 1;
                        return Ok(());
                    }
                    Some(Frame::Data { seq, payload }) => {
                        absorb_closed(self.accept_data(seq, payload), &mut peer_gone)?;
                    }
                    Some(Frame::Sync { reply, .. }) => {
                        absorb_closed(self.answer_sync(reply), &mut peer_gone)?;
                    }
                    Some(Frame::Ack { .. }) | None => {}
                }
            }
            if peer_gone {
                return Err(self.exhausted());
            }
            timeout = self.next_timeout(timeout);
        }
        Err(self.exhausted())
    }
}

impl<T: DeadlineTransport> Transport for RobustTransport<T> {
    /// Sends one message, retransmitting until acknowledged. Incoming
    /// DATA frames that arrive while waiting are acknowledged and
    /// buffered for [`Self::recv`].
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let encoded = encode_data(self.send_seq, frame);
        self.send_encoded(&encoded)
    }

    /// Sends every frame of the batch through the stop-and-wait ARQ,
    /// reusing one encode buffer across the run (the per-message wait
    /// for an ACK is inherent to the protocol, so there is no bulk wire
    /// path to exploit — only the allocation churn to avoid).
    fn send_batch(&mut self, batch: crate::framebatch::FrameBatch) -> Result<(), NetError> {
        let mut encoded = Vec::new();
        for frame in batch.frames() {
            encode_data_into(self.send_seq, frame, &mut encoded);
            self.send_encoded(&encoded)?;
        }
        Ok(())
    }

    /// Receives the next message, waiting through a bounded number of
    /// retry windows. On a quiet window the last delivered message is
    /// re-ACKed, in case the peer is retransmitting into a lost-ACK
    /// hole.
    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        if let Some(payload) = self.buffered.pop_front() {
            return Ok(payload);
        }
        let mut timeout = self.config.base_timeout_ms;
        let mut peer_gone = false;
        for _ in 0..self.config.max_attempts {
            let mut frames = 0u32;
            while frames < FRAMES_PER_WAIT {
                frames += 1;
                // After the peer departs, drain whatever it left in
                // flight — a parting message must still be delivered.
                let wait = if peer_gone { 0 } else { timeout };
                let Some(raw) = self.inner.recv_deadline(wait)? else {
                    break;
                };
                match decode(&raw) {
                    Some(Frame::Data { seq, payload }) => {
                        absorb_closed(self.accept_data(seq, payload), &mut peer_gone)?;
                        if let Some(payload) = self.buffered.pop_front() {
                            return Ok(payload);
                        }
                    }
                    Some(Frame::Sync { reply, .. }) => {
                        absorb_closed(self.answer_sync(reply), &mut peer_gone)?;
                    }
                    Some(Frame::Ack { .. }) | None => {}
                }
            }
            if peer_gone {
                // Every in-flight frame has been drained; the receive
                // contract reports departure as `Closed`.
                return Err(NetError::Closed);
            }
            if self.recv_seq > 0 {
                minshare_trace::emit("net", "reack", false, Vec::new);
                absorb_closed(self.inner.send(&encode_ack(self.recv_seq - 1)), &mut peer_gone)?;
            }
            timeout = self.next_timeout(timeout);
        }
        Err(NetError::TimedOut {
            waited_ms: self.config.max_timeout_ms,
        })
    }
}

impl<T: DeadlineTransport> DeadlineTransport for RobustTransport<T> {
    /// One bounded poll of the reliability layer: services whatever the
    /// link delivers within roughly `timeout_ms` (ACKing and buffering
    /// DATA, answering SYNC probes) and returns the next in-order
    /// message if one became available. `Ok(None)` is a quiet window —
    /// unlike [`Transport::recv`] this never retries across multiple
    /// backoff windows, so an event loop multiplexing many sessions can
    /// interleave sends between polls. The poll itself keeps the ARQ
    /// live: a peer blocked in its own `send` is serviced by the ACKs
    /// this side emits while polling.
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        if let Some(payload) = self.buffered.pop_front() {
            return Ok(Some(payload));
        }
        let mut peer_gone = false;
        let mut frames = 0u32;
        while frames < FRAMES_PER_WAIT {
            frames += 1;
            let wait = if peer_gone { 0 } else { timeout_ms };
            let Some(raw) = self.inner.recv_deadline(wait)? else {
                break;
            };
            match decode(&raw) {
                Some(Frame::Data { seq, payload }) => {
                    absorb_closed(self.accept_data(seq, payload), &mut peer_gone)?;
                    if let Some(payload) = self.buffered.pop_front() {
                        return Ok(Some(payload));
                    }
                }
                Some(Frame::Sync { reply, .. }) => {
                    absorb_closed(self.answer_sync(reply), &mut peer_gone)?;
                }
                Some(Frame::Ack { .. }) | None => {}
            }
        }
        if peer_gone {
            return Err(NetError::Closed);
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnet::{sim_pair, FaultPlan, SimConfig};

    fn sim_cfg() -> SimConfig {
        SimConfig {
            real_backstop_ms: 5_000,
            ..SimConfig::default()
        }
    }

    fn harsh_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.3,
            duplicate: 0.3,
            delay: 0.3,
            reorder: 0.3,
            truncate: 0.2,
            bitflip: 0.2,
            max_delay_ms: 20,
            partitions: Vec::new(),
            bytes_per_ms: 0,
        }
    }

    #[test]
    fn crc_detects_any_single_bitflip() {
        let frame = encode_data(7, b"payload under test");
        assert!(decode(&frame).is_some());
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let still_ok = matches!(
                    decode(&bad),
                    Some(Frame::Data { seq: 7, ref payload }) if payload == b"payload under test"
                );
                assert!(!still_ok, "flip at byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let frame = encode_data(3, b"hello");
        for len in 0..frame.len() {
            assert!(
                decode(&frame[..len]).is_none(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn round_trip_over_perfect_link() {
        let (a, b, _trace) = sim_pair(sim_cfg(), &FaultPlan::perfect());
        let (mut a, mut b) = (RobustTransport::new(a), RobustTransport::new(b));
        let echo = std::thread::spawn(move || {
            for _ in 0..10 {
                let frame = b.recv().unwrap();
                b.send(&frame).unwrap();
            }
        });
        for i in 0..10u32 {
            let msg = i.to_be_bytes();
            a.send(&msg).unwrap();
            assert_eq!(a.recv().unwrap(), msg);
        }
        echo.join().unwrap();
        assert_eq!(a.counters(), (10, 10));
    }

    #[test]
    fn survives_harsh_faults() {
        for seed in 0..10u64 {
            let (a, b, _trace) = sim_pair(sim_cfg(), &harsh_plan(seed));
            let (mut a, mut b) = (RobustTransport::new(a), RobustTransport::new(b));
            let echo = std::thread::spawn(move || {
                for _ in 0..20 {
                    let frame = b.recv()?;
                    b.send(&frame)?;
                }
                Ok::<_, NetError>(())
            });
            let mut failed = false;
            for i in 0..20u32 {
                let msg = [i as u8; 32];
                if a.send(&msg).is_err() {
                    failed = true;
                    break;
                }
                match a.recv() {
                    Ok(got) => assert_eq!(got, msg, "seed {seed} corrupted message {i}"),
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            drop(a);
            // The echo side may legitimately end with a typed error
            // (e.g. `Closed` after this side gave up); what must never
            // happen is a wrong payload, asserted above, or a panic.
            let _ = echo.join().unwrap();
            let _ = failed;
        }
    }

    #[test]
    fn total_loss_exhausts_retries() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::perfect()
        };
        let (a, mut b, _trace) = sim_pair(sim_cfg(), &plan);
        // Keep the peer blocked on long virtual deadlines so the retry
        // layer's (shorter) waits resolve virtually; it exits on close.
        let peer = std::thread::spawn(move || loop {
            match b.recv_deadline(10_000) {
                Ok(_) => {}
                Err(_) => break,
            }
        });
        let mut a = RobustTransport::with_config(
            a,
            RobustConfig {
                max_attempts: 4,
                base_timeout_ms: 10,
                max_timeout_ms: 40,
            },
        );
        assert_eq!(
            a.send(b"doomed").unwrap_err(),
            NetError::RetriesExhausted { attempts: 4 }
        );
        drop(a);
        peer.join().unwrap();
    }

    #[test]
    fn receiver_departure_mid_retransmit_is_retries_exhausted() {
        // Pins the pre-PR-8 `Closed` race: under total loss the receiver's
        // own deadline budget runs out first, it drops its endpoint, and
        // the sender — still mid-retransmit — used to surface whichever
        // error its next inner call happened to hit (`Closed` from the
        // wait, `Closed` from the send, or `RetriesExhausted` if the
        // budget ran out before the drop was observed). The simnet's
        // virtual-time rules make this schedule exact: the receiver
        // provably departs at virtual time 15 while the sender has four
        // attempts left, and the sender must still report the single
        // deterministic retry-exhaustion outcome.
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::perfect()
        };
        let (a, mut b, _trace) = sim_pair(sim_cfg(), &plan);
        let receiver = std::thread::spawn(move || {
            let _ = b.recv_deadline(15);
            drop(b);
        });
        let mut a = RobustTransport::with_config(
            a,
            RobustConfig {
                max_attempts: 6,
                base_timeout_ms: 10,
                max_timeout_ms: 40,
            },
        );
        assert_eq!(
            a.send(b"doomed").unwrap_err(),
            NetError::RetriesExhausted { attempts: 6 }
        );
        receiver.join().unwrap();
    }

    #[test]
    fn departed_peer_turns_send_into_retries_exhausted_on_duplex() {
        // The in-memory duplex surfaces departure on the *send* side
        // (unlike the simnet, where sends to a dead peer succeed); the
        // outcome must be the same typed exhaustion either way.
        let (a, b) = crate::duplex::duplex_pair();
        drop(b);
        let mut a = RobustTransport::with_config(
            a,
            RobustConfig {
                max_attempts: 3,
                base_timeout_ms: 1,
                max_timeout_ms: 2,
            },
        );
        assert_eq!(
            a.send(b"x").unwrap_err(),
            NetError::RetriesExhausted { attempts: 3 }
        );
    }

    #[test]
    fn parting_message_still_delivered_after_departure() {
        // A peer that sends and immediately leaves: the DATA frame is in
        // flight when the endpoint closes. recv must deliver it (the ACK
        // goes nowhere, harmlessly) and only then report `Closed`.
        let (mut a, b) = crate::duplex::duplex_pair();
        let mut b = RobustTransport::new(b);
        a.send(&encode_data(0, b"parting gift")).unwrap();
        drop(a);
        assert_eq!(b.recv().unwrap(), b"parting gift");
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn deadline_poll_is_a_single_quiet_window() {
        // The DeadlineTransport impl polls one bounded window: quiet
        // links yield Ok(None) (never a retry loop), delivered frames
        // come back in order, and departure after the drain is Closed.
        let (mut a, b) = crate::duplex::duplex_pair();
        let mut b = RobustTransport::new(b);
        assert_eq!(b.recv_deadline(1).unwrap(), None);
        a.send(&encode_data(0, b"first")).unwrap();
        a.send(&encode_data(1, b"second")).unwrap();
        assert_eq!(b.recv_deadline(50).unwrap(), Some(b"first".to_vec()));
        assert_eq!(b.recv_deadline(50).unwrap(), Some(b"second".to_vec()));
        // Both frames were ACKed back to the raw endpoint.
        assert!(matches!(
            decode(&a.recv().unwrap()),
            Some(Frame::Ack { seq: 0 })
        ));
        assert!(matches!(
            decode(&a.recv().unwrap()),
            Some(Frame::Ack { seq: 1 })
        ));
        drop(a);
        assert_eq!(b.recv_deadline(1).unwrap_err(), NetError::Closed);
    }

    #[test]
    fn duplicates_are_delivered_once() {
        let plan = FaultPlan {
            duplicate: 1.0,
            max_delay_ms: 5,
            ..FaultPlan::perfect()
        };
        let (a, b, _trace) = sim_pair(sim_cfg(), &plan);
        let (mut a, mut b) = (RobustTransport::new(a), RobustTransport::new(b));
        let sender = std::thread::spawn(move || {
            for i in 0..10u8 {
                a.send(&[i; 4]).unwrap();
            }
            a
        });
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), vec![i; 4]);
        }
        let a = sender.join().unwrap();
        drop(a);
        // No eleventh message exists: the duplicates were deduplicated.
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
    }

    /// A party whose very last acknowledgement was lost can end with a
    /// typed error even though the peer completed — the two-generals
    /// tail. Tests (like the conformance harness) accept it.
    fn tail_tolerant(result: Result<(), NetError>) {
        match result {
            Ok(())
            | Err(NetError::Closed)
            | Err(NetError::RetriesExhausted { .. })
            | Err(NetError::TimedOut { .. }) => {}
            Err(other) => panic!("unexpected terminal error: {other}"),
        }
    }

    #[test]
    fn handshake_establishes_and_resyncs() {
        // Each closure consumes its transport, so a finished party's
        // endpoint closes immediately — the invariant that lets the
        // peer's virtual timeouts resolve. Under harsh faults the party
        // finishing last can lose its final SYNC_REPLY (two-generals
        // tail), so scan seeds: every run must end tail-clean, and at
        // least one must complete on both sides so the counter
        // agreement actually gets exercised.
        let mut verified = 0u32;
        for seed in 0..16u64 {
            let (a, b, _trace) = sim_pair(sim_cfg(), &harsh_plan(seed));
            let (a, b) = (RobustTransport::new(a), RobustTransport::new(b));
            let side_b = std::thread::spawn(move || {
                let mut b = b;
                b.establish()?;
                let got = b.recv()?;
                b.send(&got)?;
                b.resync()?;
                Ok::<_, NetError>(b.counters())
            });
            let side_a = std::thread::spawn(move || {
                let mut a = a;
                a.establish()?;
                a.send(b"across the handshake")?;
                let got = a.recv()?;
                assert_eq!(got, b"across the handshake");
                a.resync()?;
                Ok::<_, NetError>(a.counters())
            });
            let ra = side_a.join().unwrap();
            let rb = side_b.join().unwrap();
            match (ra, rb) {
                (Ok(a_counters), Ok(b_counters)) => {
                    // After resync both sides agree on both counters.
                    assert_eq!(a_counters.0, b_counters.1);
                    assert_eq!(a_counters.1, b_counters.0);
                    verified += 1;
                }
                (ra, rb) => {
                    tail_tolerant(ra.map(|_| ()));
                    tail_tolerant(rb.map(|_| ()));
                }
            }
        }
        assert!(verified > 0, "no seed completed cleanly on both sides");
    }

    #[test]
    fn full_duplex_simultaneous_sends() {
        // Both sides send before either receives: the ACK-wait loops
        // must buffer the crossing DATA frames instead of deadlocking.
        let (a, b, _trace) = sim_pair(sim_cfg(), &harsh_plan(5));
        let (a, mut b) = (RobustTransport::new(a), RobustTransport::new(b));
        let side_b = std::thread::spawn(move || {
            for i in 0..10u8 {
                b.send(&[0xB0 | (i % 2); 8])?;
                let got = b.recv()?;
                assert_eq!(got, [0xA0u8; 8]);
            }
            Ok::<_, NetError>(())
        });
        let side_a = std::thread::spawn(move || {
            let mut a = a;
            for _ in 0..10 {
                a.send(&[0xA0; 8])?;
                let got = a.recv()?;
                assert!(got == [0xB0; 8] || got == [0xB1; 8]);
            }
            Ok::<_, NetError>(())
        });
        tail_tolerant(side_a.join().unwrap());
        tail_tolerant(side_b.join().unwrap());
    }
}
