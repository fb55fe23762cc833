//! In-memory duplex transport built on crossbeam channels.
//!
//! Each `send` copies the borrowed frame once into a [`Bytes`] buffer
//! that crosses the channel as is.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::NetError;
use crate::transport::{DeadlineTransport, Transport};

/// One endpoint of an in-memory duplex link.
pub struct DuplexEndpoint {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    /// Reject frames larger than this (bug guard; default 256 MiB).
    frame_limit: usize,
}

const DEFAULT_FRAME_LIMIT: usize = 256 * 1024 * 1024;

/// Creates a connected pair of endpoints. Frames sent on one side arrive
/// on the other, in order.
pub fn duplex_pair() -> (DuplexEndpoint, DuplexEndpoint) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    (
        DuplexEndpoint {
            tx: a_tx,
            rx: a_rx,
            frame_limit: DEFAULT_FRAME_LIMIT,
        },
        DuplexEndpoint {
            tx: b_tx,
            rx: b_rx,
            frame_limit: DEFAULT_FRAME_LIMIT,
        },
    )
}

impl DuplexEndpoint {
    /// Overrides the frame-size guard (mainly for tests).
    pub fn with_frame_limit(mut self, limit: usize) -> Self {
        self.frame_limit = limit;
        self
    }
}

impl Transport for DuplexEndpoint {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.frame_limit {
            return Err(NetError::FrameTooLarge {
                size: frame.len(),
                limit: self.frame_limit,
            });
        }
        self.tx
            .send(Bytes::copy_from_slice(frame))
            .map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.rx
            .recv()
            .map(Bytes::into_vec)
            .map_err(|_| NetError::Closed)
    }
}

impl DeadlineTransport for DuplexEndpoint {
    /// Wall-clock deadline. A peer that hangs up mid-wait wakes the
    /// blocked reader with [`NetError::Closed`] rather than letting it
    /// sit out the timeout.
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        match self
            .rx
            .recv_timeout(std::time::Duration::from_millis(timeout_ms))
        {
            Ok(frame) => Ok(Some(frame.into_vec())),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_cross_in_both_directions() {
        let (mut a, mut b) = duplex_pair();
        a.send(b"hello").unwrap();
        b.send(b"world").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert_eq!(a.recv().unwrap(), b"world");
    }

    #[test]
    fn ordering_preserved() {
        let (mut a, mut b) = duplex_pair();
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn closed_peer_detected() {
        let (mut a, b) = duplex_pair();
        drop(b);
        assert_eq!(a.send(b"x").unwrap_err(), NetError::Closed);
        assert_eq!(a.recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn frame_limit_enforced() {
        let (a, _b) = duplex_pair();
        let mut a = a.with_frame_limit(4);
        assert!(a.send(b"1234").is_ok());
        assert!(matches!(
            a.send(b"12345").unwrap_err(),
            NetError::FrameTooLarge { size: 5, limit: 4 }
        ));
    }

    /// Regression: a reader blocked inside `recv` (mid-frame, from its
    /// point of view) must be woken with `Closed` the moment the peer
    /// endpoint is dropped — never left hanging.
    #[test]
    fn drop_while_peer_blocked_returns_closed() {
        let (mut a, b) = duplex_pair();
        let (started_tx, started_rx) = unbounded();
        let reader = std::thread::spawn(move || {
            started_tx.send(()).unwrap();
            a.recv()
        });
        // Wait until the reader thread is up and (almost certainly)
        // parked inside recv, then hang up without sending anything.
        started_rx.recv().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(b);
        let result = reader.join().unwrap();
        assert_eq!(result.unwrap_err(), NetError::Closed);
    }

    /// Same scenario through the deadline path: the disconnect must win
    /// over the timeout.
    #[test]
    fn drop_while_peer_blocked_with_deadline_returns_closed() {
        let (mut a, b) = duplex_pair();
        let reader = std::thread::spawn(move || a.recv_deadline(60_000));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(b);
        let result = reader.join().unwrap();
        assert_eq!(result.unwrap_err(), NetError::Closed);
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let (mut a, mut b) = duplex_pair();
        assert_eq!(b.recv_deadline(1).unwrap(), None);
        a.send(b"late").unwrap();
        assert_eq!(b.recv_deadline(1_000).unwrap(), Some(b"late".to_vec()));
    }

    #[test]
    fn works_across_threads() {
        let (mut a, mut b) = duplex_pair();
        let handle = std::thread::spawn(move || {
            let got = b.recv().unwrap();
            b.send(&got).unwrap();
        });
        a.send(b"ping").unwrap();
        assert_eq!(a.recv().unwrap(), b"ping");
        handle.join().unwrap();
    }
}
