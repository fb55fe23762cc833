//! TCP transport: length-prefixed frames over a socket, so the two
//! parties can run in separate processes (or separate machines).
//!
//! Wire format: 4-byte big-endian frame length, then the frame bytes.
//! The [`crate::secure::SecureChannel`] layer composes on top for
//! confidentiality and integrity.

use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::transport::{DeadlineTransport, SplitReader, Transport};

/// Default maximum accepted frame size (a corruption/abuse guard).
const DEFAULT_FRAME_LIMIT: usize = 256 * 1024 * 1024;

/// Length of the big-endian frame-length prefix.
const PREFIX_LEN: usize = 4;

/// Free tail the receive buffer offers every `read`.
const READ_SPARE: usize = 64 * 1024;

/// A framed transport over a TCP stream.
pub struct TcpTransport {
    /// Shared with the reader and the unblock handle of
    /// [`DeadlineTransport::split_reader`]; `&TcpStream` reads and
    /// writes, so nobody needs a second descriptor.
    stream: Arc<TcpStream>,
    frame_limit: usize,
    /// Bytes of the frames currently being assembled. Lets the deadline
    /// receive path give up mid-frame and resume on the next call
    /// without losing stream position.
    rdbuf: FrameBuf,
}

/// Receive-side reassembly. `buf[start..end]` has arrived and not been
/// handed out yet; `buf[end..]` is initialised scratch the next `read`
/// fills. Frames are popped by advancing `start`: nothing is shifted per
/// frame and nothing is zero-filled per read.
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// Pops one complete frame if its header and body have fully
    /// arrived.
    fn take_frame(&mut self, frame_limit: usize) -> Result<Option<Vec<u8>>, NetError> {
        let arrived = self.buf.get(self.start..self.end).unwrap_or(&[]);
        let Some(header) = arrived.get(..PREFIX_LEN) else {
            return Ok(None);
        };
        let header: [u8; PREFIX_LEN] = header.try_into().unwrap_or_default();
        let len = u32::from_be_bytes(header) as usize;
        if len > frame_limit {
            return Err(NetError::FrameTooLarge {
                size: len,
                limit: frame_limit,
            });
        }
        let Some(body) = arrived.get(PREFIX_LEN..PREFIX_LEN + len) else {
            return Ok(None);
        };
        let frame = body.to_vec();
        self.start += PREFIX_LEN + len;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(frame))
    }

    /// One `read` into the tail. `Ok(true)` when bytes arrived,
    /// `Ok(false)` when the read timed out (non-blocking window
    /// elapsed), `Closed` on end-of-stream.
    fn fill(&mut self, mut stream: &TcpStream) -> Result<bool, NetError> {
        if self.buf.len().saturating_sub(self.end) < READ_SPARE {
            if self.start > 0 {
                // Every complete frame was popped before this read, so
                // the shift moves less than one frame.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.buf.len() < self.end + READ_SPARE {
                self.buf.resize(self.end + READ_SPARE, 0);
            }
        }
        let tail = self.buf.get_mut(self.end..).unwrap_or_default();
        match stream.read(tail) {
            Ok(0) => Err(NetError::Closed),
            Ok(n) => {
                self.end += n;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(NetError::from(e)),
        }
    }

    /// Blocks until one whole frame is in; the stream must have no read
    /// timeout set.
    fn recv(&mut self, stream: &TcpStream, frame_limit: usize) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(frame) = self.take_frame(frame_limit)? {
                return Ok(frame);
            }
            // A blocking read cannot time out; `Ok(false)` is a spurious
            // wakeup and the loop retries.
            self.fill(stream)?;
        }
    }
}

/// Writes `u32 BE length ‖ body` with one vectored write — one segment
/// under `TCP_NODELAY`, not a 4-byte one and then the body — finishing a
/// short write where it stopped.
fn write_frame(mut stream: &TcpStream, body: &[u8]) -> std::io::Result<()> {
    let header = (body.len() as u32).to_be_bytes();
    let mut sent = 0usize;
    while sent < PREFIX_LEN + body.len() {
        let header_rest = header.get(sent.min(PREFIX_LEN)..).unwrap_or(&[]);
        let body_rest = body.get(sent.saturating_sub(PREFIX_LEN)..).unwrap_or(&[]);
        match stream.write_vectored(&[IoSlice::new(header_rest), IoSlice::new(body_rest)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl TcpTransport {
    /// Connects to a listening peer.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an already-established stream.
    pub fn from_stream(stream: TcpStream) -> Result<Self, NetError> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream: Arc::new(stream),
            frame_limit: DEFAULT_FRAME_LIMIT,
            rdbuf: FrameBuf::default(),
        })
    }

    /// Overrides the frame-size guard.
    pub fn with_frame_limit(mut self, limit: usize) -> Self {
        self.frame_limit = limit;
        self
    }
}

/// A bound listener whose local address is known before accepting —
/// needed by tests (port 0) and by callers that print "listening on …".
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds the address (may be port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        Ok(TcpAcceptor {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The locally bound address.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts one connection.
    pub fn accept(&self) -> Result<(TcpTransport, SocketAddr), NetError> {
        let (stream, peer) = self.listener.accept()?;
        Ok((TcpTransport::from_stream(stream)?, peer))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if frame.len() > self.frame_limit {
            return Err(NetError::FrameTooLarge {
                size: frame.len(),
                limit: self.frame_limit,
            });
        }
        write_frame(&self.stream, frame)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        // Resume any frame a deadline poll left half-assembled.
        self.stream.set_read_timeout(None)?;
        self.rdbuf.recv(&self.stream, self.frame_limit)
    }
}

impl DeadlineTransport for TcpTransport {
    /// Wall-clock deadline via the socket's read timeout. A frame split
    /// across polls is assembled incrementally in `rdbuf`; giving up
    /// mid-frame never loses stream position.
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        if let Some(frame) = self.rdbuf.take_frame(self.frame_limit)? {
            return Ok(Some(frame));
        }
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            // `set_read_timeout` rejects zero; a 1 ms floor turns
            // `recv_deadline(0)` into a short poll.
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            if self.rdbuf.fill(&self.stream)? {
                if let Some(frame) = self.rdbuf.take_frame(self.frame_limit)? {
                    return Ok(Some(frame));
                }
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// The reader blocks in `read` on the same socket (a half-assembled
    /// frame goes with it); `unblock` shuts the socket down, which ends
    /// that `read` with end-of-stream. A read timeout that cannot be
    /// cleared only makes the reader's `read` wake up and retry.
    fn split_reader(&mut self) -> SplitReader {
        let _ = self.stream.set_read_timeout(None);
        let stream = Arc::clone(&self.stream);
        let mut rdbuf = std::mem::take(&mut self.rdbuf);
        let frame_limit = self.frame_limit;
        let closer = Arc::clone(&self.stream);
        SplitReader {
            recv: Box::new(move || rdbuf.recv(&stream, frame_limit)),
            unblock: Box::new(move || {
                let _ = closer.shutdown(Shutdown::Both);
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn localhost_pair() -> (TcpTransport, TcpTransport) {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpTransport::connect(addr).unwrap());
        let (server, _) = acceptor.accept().unwrap();
        (server, client.join().unwrap())
    }

    #[test]
    fn frames_cross_both_directions() {
        let (mut a, mut b) = localhost_pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong-with-more-bytes").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong-with-more-bytes");
    }

    #[test]
    fn empty_and_large_frames() {
        let (mut a, mut b) = localhost_pair();
        a.send(b"").unwrap();
        assert_eq!(b.recv().unwrap(), b"");
        let big = vec![0x5au8; 1 << 20];
        a.send(&big).unwrap();
        assert_eq!(b.recv().unwrap(), big);
    }

    #[test]
    fn ordering_preserved() {
        let (mut a, mut b) = localhost_pair();
        for i in 0..20u8 {
            a.send(&[i; 3]).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(b.recv().unwrap(), vec![i; 3]);
        }
    }

    #[test]
    fn peer_close_is_detected() {
        let (a, mut b) = localhost_pair();
        drop(a);
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn frame_limit_rejects_oversize_send() {
        let (a, _b) = localhost_pair();
        let mut a = a.with_frame_limit(8);
        assert!(matches!(
            a.send(&[0u8; 9]).unwrap_err(),
            NetError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let (mut a, mut b) = localhost_pair();
        assert_eq!(b.recv_deadline(10).unwrap(), None);
        a.send(b"late frame").unwrap();
        assert_eq!(
            b.recv_deadline(5_000).unwrap(),
            Some(b"late frame".to_vec())
        );
    }

    /// A frame split across the wire must survive a deadline poll giving
    /// up mid-frame: the next receive resumes from buffered bytes.
    #[test]
    fn recv_deadline_resumes_partial_frames() {
        use std::io::Write;
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.set_nodelay(true).unwrap();
            // Header promises 8 bytes; send half, stall, send the rest.
            raw.write_all(&8u32.to_be_bytes()).unwrap();
            raw.write_all(b"firs").unwrap();
            raw.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(150));
            raw.write_all(b"tsec").unwrap();
            raw.flush().unwrap();
            // Hold the socket open until the reader is done.
            std::thread::sleep(std::time::Duration::from_millis(300));
        });
        let (mut server, _) = acceptor.accept().unwrap();
        // First poll expires mid-frame...
        assert_eq!(server.recv_deadline(20).unwrap(), None);
        // ...the blocking path then completes the same frame.
        assert_eq!(server.recv().unwrap(), b"firstsec");
        client.join().unwrap();
    }

    #[test]
    fn deadline_then_burst_preserves_framing() {
        let (mut a, mut b) = localhost_pair();
        assert_eq!(b.recv_deadline(5).unwrap(), None);
        for i in 0..10u8 {
            a.send(&[i; 5]).unwrap();
        }
        for i in 0..10u8 {
            let got = b
                .recv_deadline(5_000)
                .unwrap()
                .expect("frame should arrive within deadline");
            assert_eq!(got, vec![i; 5]);
        }
    }

    /// `send` puts each frame on the wire as one `u32 BE length ‖
    /// payload`, nothing between them.
    #[test]
    fn send_writes_length_prefixed_frames_back_to_back() {
        use std::io::Read;
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let raw = std::thread::spawn(move || {
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            let mut bytes = Vec::new();
            raw.read_to_end(&mut bytes).unwrap();
            bytes
        });
        let (mut server, _) = acceptor.accept().unwrap();
        let frames: [&[u8]; 4] = [b"", b"a", &[7u8; 300], b"tail"];
        let mut expected = Vec::new();
        for frame in frames {
            server.send(frame).unwrap();
            expected.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            expected.extend_from_slice(frame);
        }
        drop(server);
        assert_eq!(raw.join().unwrap(), expected);
    }

    /// Frames larger than one read, smaller than one read, and many per
    /// read, back to back: the cursor-and-compact buffer hands each out
    /// whole and in order.
    #[test]
    fn mixed_frame_sizes_reassemble_across_reads() {
        let (mut a, mut b) = localhost_pair();
        let sizes = [3usize, 200_000, 0, 70_000, 17, 65_532, 65_536, 1];
        let writer = std::thread::spawn(move || {
            for round in 0..4u8 {
                for (i, len) in sizes.iter().enumerate() {
                    a.send(&vec![round ^ i as u8; *len]).unwrap();
                }
            }
        });
        for round in 0..4u8 {
            for (i, len) in sizes.iter().enumerate() {
                assert_eq!(b.recv().unwrap(), vec![round ^ i as u8; *len]);
            }
        }
        writer.join().unwrap();
    }

    /// The split reader takes the half-assembled frame with it, blocks
    /// like `recv`, and `unblock` ends a blocked receive from another
    /// thread.
    #[test]
    fn split_reader_resumes_partial_frames_and_unblocks() {
        use std::io::Write;
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_nodelay(true).unwrap();
        let (mut server, _) = acceptor.accept().unwrap();
        raw.write_all(&8u32.to_be_bytes()).unwrap();
        raw.write_all(b"firs").unwrap();
        // The poll gives up mid-frame, with the first half buffered.
        assert_eq!(server.recv_deadline(20).unwrap(), None);
        let SplitReader { mut recv, unblock } = server.split_reader();
        raw.write_all(b"tsec").unwrap();
        assert_eq!(recv().unwrap(), b"firstsec");
        // The send side stays with the transport.
        server.send(b"still mine").unwrap();
        let reader = std::thread::spawn(recv);
        unblock();
        assert_eq!(reader.join().unwrap().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn frame_limit_rejects_oversize_recv() {
        let (mut a, b) = localhost_pair();
        let mut b = b.with_frame_limit(4);
        a.send(&[0u8; 100]).unwrap();
        assert!(matches!(
            b.recv().unwrap_err(),
            NetError::FrameTooLarge { .. }
        ));
    }
}
