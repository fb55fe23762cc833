//! In-memory duplex transport built on crossbeam channels.
//!
//! Each `send` copies the borrowed frame once into a [`Bytes`] buffer
//! that crosses the channel as is. A channel also carries the end of its
//! stream: an endpoint sends one as it drops, and a split reader's
//! `unblock` sends one to its own reader.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::NetError;
use crate::transport::{DeadlineTransport, SplitReader, Transport};

/// A frame, or `None` for the end of the stream.
type Item = Option<Bytes>;

/// One endpoint of an in-memory duplex link.
pub struct DuplexEndpoint {
    tx: Sender<Item>,
    rx: Receiver<Item>,
    /// A sender on `rx`'s own channel, for `unblock`. It keeps that
    /// channel connected, so the end of the stream is an item, and once
    /// seen it is remembered in `ended`.
    own_tx: Sender<Item>,
    ended: bool,
    /// Reject frames larger than this (bug guard; default 256 MiB).
    frame_limit: usize,
}

const DEFAULT_FRAME_LIMIT: usize = 256 * 1024 * 1024;

/// Creates a connected pair of endpoints. Frames sent on one side arrive
/// on the other, in order.
pub fn duplex_pair() -> (DuplexEndpoint, DuplexEndpoint) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    let endpoint = |tx: &Sender<Item>, rx, own_tx: &Sender<Item>| DuplexEndpoint {
        tx: tx.clone(),
        rx,
        own_tx: own_tx.clone(),
        ended: false,
        frame_limit: DEFAULT_FRAME_LIMIT,
    };
    (endpoint(&a_tx, a_rx, &b_tx), endpoint(&b_tx, b_rx, &a_tx))
}

impl DuplexEndpoint {
    /// Overrides the frame-size guard (mainly for tests).
    pub fn with_frame_limit(mut self, limit: usize) -> Self {
        self.frame_limit = limit;
        self
    }
}

/// The next frame on `rx`, or `Closed` from the end of the stream on.
fn next_frame(rx: &Receiver<Item>, ended: &mut bool) -> Result<Vec<u8>, NetError> {
    if !*ended {
        if let Ok(Some(frame)) = rx.recv() {
            return Ok(frame.into_vec());
        }
        *ended = true;
    }
    Err(NetError::Closed)
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
            .send(Some(Bytes::copy_from_slice(frame)))
            .map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        next_frame(&self.rx, &mut self.ended)
    }
}

impl DeadlineTransport for DuplexEndpoint {
    /// Wall-clock deadline. A peer that hangs up mid-wait wakes the
    /// blocked reader with [`NetError::Closed`] rather than letting it
    /// sit out the timeout.
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        if self.ended {
            return Err(NetError::Closed);
        }
        let timeout = std::time::Duration::from_millis(timeout_ms);
        match self.rx.recv_timeout(timeout) {
            Ok(Some(frame)) => Ok(Some(frame.into_vec())),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            _ => {
                self.ended = true;
                Err(NetError::Closed)
            }
        }
    }

    /// The reader takes the inbound channel, and the endpoint keeps one
    /// whose senders are gone.
    fn split_reader(&mut self) -> SplitReader {
        let rx = std::mem::replace(&mut self.rx, unbounded().1);
        let mut ended = self.ended;
        let wake = self.own_tx.clone();
        SplitReader {
            recv: Box::new(move || next_frame(&rx, &mut ended)),
            unblock: Box::new(move || {
                let _ = wake.send(None);
            }),
        }
    }
}

impl Drop for DuplexEndpoint {
    fn drop(&mut self) {
        let _ = self.tx.send(None);
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

    /// A split reader blocks like `recv` while the endpoint keeps
    /// sending; `unblock` wakes it, and every later receive, with
    /// `Closed`; a peer's drop reaches a parked split reader as `Closed`.
    #[test]
    fn split_reader_wakes_for_unblock_and_for_the_peers_drop() {
        let (mut a, mut b) = duplex_pair();
        let SplitReader { mut recv, unblock } = b.split_reader();
        a.send(b"one").unwrap();
        assert_eq!(recv().unwrap(), b"one");
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
        b.send(b"back").unwrap();
        assert_eq!(a.recv().unwrap(), b"back");
        let reader = std::thread::spawn(move || (recv(), recv()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        unblock();
        let (first, later) = reader.join().unwrap();
        assert_eq!(first.unwrap_err(), NetError::Closed);
        assert_eq!(later.unwrap_err(), NetError::Closed);

        let SplitReader { mut recv, .. } = a.split_reader();
        let reader = std::thread::spawn(move || recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(b);
        assert_eq!(reader.join().unwrap().unwrap_err(), NetError::Closed);
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
