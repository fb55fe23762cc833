//! Byte-exact traffic accounting.
//!
//! The paper's §6.1 counts communication in `k`-bit codewords (e.g.
//! intersection: `(|V_S| + 2|V_R|)·k` bits). Wrapping a transport in
//! [`CountingTransport`] records exactly what crosses the wire so the
//! bench harness can put the formula and the measurement side by side
//! (experiment E5 in DESIGN.md).
//!
//! When a tracer is installed on the calling thread, every successful
//! send/receive also emits a `net` trace event carrying the same frame
//! and byte counts, so a metrics sink reproduces these counters without
//! holding the stats handle. Frame sequences and sizes are pure
//! functions of the protocol inputs, so the events are deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::NetError;
use crate::transport::Transport;

/// Shared counters readable while the transport is owned by a protocol
/// engine (possibly on another thread).
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    bytes_sent: Arc<AtomicU64>,
    bytes_received: Arc<AtomicU64>,
    frames_sent: Arc<AtomicU64>,
    frames_received: Arc<AtomicU64>,
}

impl TrafficStats {
    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Frames sent.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames received.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }

    /// Total traffic in both directions, in bits (the paper's unit).
    pub fn total_bits(&self) -> u64 {
        (self.bytes_sent() + self.bytes_received()) * 8
    }
}

/// A transport wrapper that counts every frame and byte.
pub struct CountingTransport<T: Transport> {
    inner: T,
    stats: TrafficStats,
}

impl<T: Transport> CountingTransport<T> {
    /// Wraps `inner`, returning the wrapper and a handle to its counters.
    pub fn new(inner: T) -> (Self, TrafficStats) {
        let stats = TrafficStats::default();
        (
            CountingTransport {
                inner,
                stats: stats.clone(),
            },
            stats,
        )
    }

    /// Consumes the wrapper, returning the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)?;
        self.stats
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        minshare_trace::emit("net", "frame_sent", true, || {
            vec![
                minshare_trace::count("frames", 1),
                minshare_trace::size("bytes", frame.len() as u64),
            ]
        });
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let frame = self.inner.recv()?;
        self.stats
            .bytes_received
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.stats.frames_received.fetch_add(1, Ordering::Relaxed);
        minshare_trace::emit("net", "frame_recv", true, || {
            vec![
                minshare_trace::count("frames", 1),
                minshare_trace::size("bytes", frame.len() as u64),
            ]
        });
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::duplex_pair;

    #[test]
    fn counts_both_directions() {
        let (a, b) = duplex_pair();
        let (mut a, a_stats) = CountingTransport::new(a);
        let (mut b, b_stats) = CountingTransport::new(b);
        a.send(&[0u8; 100]).unwrap();
        a.send(&[0u8; 28]).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        b.send(&[0u8; 7]).unwrap();
        a.recv().unwrap();

        assert_eq!(a_stats.bytes_sent(), 128);
        assert_eq!(a_stats.frames_sent(), 2);
        assert_eq!(a_stats.bytes_received(), 7);
        assert_eq!(b_stats.bytes_received(), 128);
        assert_eq!(b_stats.frames_received(), 2);
        assert_eq!(b_stats.bytes_sent(), 7);
        assert_eq!(a_stats.total_bits(), (128 + 7) * 8);
    }

    #[test]
    fn stats_handle_survives_move() {
        let (a, mut b) = duplex_pair();
        let (a, stats) = CountingTransport::new(a);
        let handle = std::thread::spawn(move || {
            let mut a = a;
            a.send(&[1u8; 10]).unwrap();
        });
        let frame = b.recv().unwrap();
        handle.join().unwrap();
        assert_eq!(frame.len(), 10);
        assert_eq!(stats.bytes_sent(), 10);
    }

    #[test]
    fn failed_send_not_counted() {
        let (a, b) = duplex_pair();
        drop(b);
        let (mut a, stats) = CountingTransport::new(a);
        assert!(a.send(b"x").is_err());
        assert_eq!(stats.bytes_sent(), 0);
        assert_eq!(stats.frames_sent(), 0);
    }
}
