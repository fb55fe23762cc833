//! Zero-copy frame batching.
//!
//! The chunked engine in `minshare-core` emits long runs of
//! small frames (one codeword chunk per frame). Sending them one at a
//! time costs a `Vec` allocation and a channel hand-off per frame.
//! [`FrameBatch`] assembles a run of frames into **one** contiguous
//! buffer in a single length-prefix pass — each frame is laid out as
//! `u32 BE length ‖ payload` — and [`crate::transport::Transport::send_batch`]
//! hands the whole batch to the transport at once. Transports that can
//! exploit the layout (the in-memory [`crate::duplex`] link) freeze the
//! buffer into a shared [`Bytes`] and deliver per-frame *views* of it,
//! so the batch crosses the channel without any per-frame copy; other
//! transports fall back to the per-frame loop with identical wire
//! semantics.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::NetError;

/// Frames larger than this cannot be length-prefixed with a `u32`.
const MAX_FRAME: usize = u32::MAX as usize;
/// Length of the big-endian length prefix — the batch layout and the TCP
/// wire format are the same thing ([`crate::tcp`] writes a batch as is).
pub(crate) const PREFIX_LEN: usize = 4;

/// A run of frames packed into one contiguous buffer.
///
/// Build with [`FrameBatch::push`] (scatter/gather over borrowed parts)
/// or [`FrameBatch::frame_writer`] (streaming), then hand to
/// [`crate::transport::Transport::send_batch`].
#[derive(Debug, Default)]
pub struct FrameBatch {
    buf: Vec<u8>,
    frames: usize,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// An empty batch with `bytes` of reserved payload+header capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        FrameBatch {
            buf: Vec::with_capacity(bytes),
            frames: 0,
        }
    }

    /// Appends one frame whose payload is the concatenation of `parts`,
    /// writing the length prefix once and each part directly into the
    /// shared buffer (no intermediate per-frame `Vec`).
    pub fn push(&mut self, parts: &[&[u8]]) -> Result<(), NetError> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > MAX_FRAME {
            return Err(NetError::FrameTooLarge {
                size: len,
                limit: MAX_FRAME,
            });
        }
        self.buf.reserve(PREFIX_LEN + len);
        self.buf.extend_from_slice(&(len as u32).to_be_bytes());
        for part in parts {
            self.buf.extend_from_slice(part);
        }
        self.frames += 1;
        Ok(())
    }

    /// Starts a streaming frame: the returned writer implements
    /// [`BufMut`], appends straight into the batch buffer, and patches
    /// the frame's length prefix when dropped.
    pub fn frame_writer(&mut self) -> FrameWriter<'_> {
        let prefix_at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; PREFIX_LEN]);
        self.frames += 1;
        FrameWriter { batch: self, prefix_at }
    }

    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Total buffer size: payload plus the per-frame length prefixes.
    pub fn total_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The batch exactly as it is laid out: every frame as
    /// `u32 BE length ‖ payload`, in order — already the byte stream a
    /// length-prefixed transport puts on the wire.
    pub(crate) fn wire_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Iterates the frame payloads in insertion order.
    pub fn frames(&self) -> FrameIter<'_> {
        FrameIter { rest: &self.buf }
    }

    /// Freezes the batch and returns one shared [`Bytes`] view per
    /// frame — all views alias the same allocation, so this is O(frames)
    /// with zero payload copies.
    pub fn into_shared_frames(self) -> Vec<Bytes> {
        let frames = self.frames;
        let shared = Bytes::from_vec(self.buf);
        let mut out = Vec::with_capacity(frames);
        let mut at = 0usize;
        while let Some((start, end)) = frame_bounds(&shared, at) {
            out.push(shared.slice(start..end));
            at = end;
        }
        out
    }
}

/// `(payload_start, payload_end)` of the frame whose prefix begins at
/// `at`, or `None` at (or past) the end of a well-formed buffer.
fn frame_bounds(buf: &[u8], at: usize) -> Option<(usize, usize)> {
    let prefix: [u8; PREFIX_LEN] = buf.get(at..at + PREFIX_LEN)?.try_into().ok()?;
    let len = u32::from_be_bytes(prefix) as usize;
    let start = at + PREFIX_LEN;
    let end = start.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    Some((start, end))
}

/// Iterator over the frame payloads of a [`FrameBatch`].
pub struct FrameIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (start, end) = frame_bounds(self.rest, 0)?;
        let frame = self.rest.get(start..end)?;
        self.rest = self.rest.get(end..).unwrap_or(&[]);
        Some(frame)
    }
}

/// Streaming writer for one frame of a [`FrameBatch`]; see
/// [`FrameBatch::frame_writer`].
pub struct FrameWriter<'a> {
    batch: &'a mut FrameBatch,
    prefix_at: usize,
}

impl FrameWriter<'_> {
    /// Payload bytes written so far.
    pub fn written(&self) -> usize {
        self.batch.buf.len() - self.prefix_at - PREFIX_LEN
    }
}

impl BufMut for FrameWriter<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        self.batch.buf.extend_from_slice(src);
    }
}

impl Drop for FrameWriter<'_> {
    fn drop(&mut self) {
        // Oversized frames are truncated at the u32 prefix ceiling; the
        // receiver's framing stays consistent and the mismatch surfaces
        // as a payload-length error one layer up. In practice frames are
        // bounded far below 4 GiB by the transports' frame limits.
        let len = self.written().min(MAX_FRAME) as u32;
        let prefix = len.to_be_bytes();
        if let Some(slot) = self
            .batch
            .buf
            .get_mut(self.prefix_at..self.prefix_at + PREFIX_LEN)
        {
            slot.copy_from_slice(&prefix);
        }
    }
}

// `BytesMut` is the upstream builder type; keep a conversion so callers
// holding one can batch it as a single frame without copying twice.
impl From<BytesMut> for FrameBatch {
    fn from(buf: BytesMut) -> FrameBatch {
        let mut batch = FrameBatch::with_capacity(buf.len() + PREFIX_LEN);
        // A single frame can exceed u32::MAX only via a >4 GiB message;
        // the push error is unreachable for realistic inputs, and an
        // empty batch is the safe degenerate result.
        let _ = batch.push(&[&buf]);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate_round_trip() {
        let mut batch = FrameBatch::new();
        batch.push(&[b"hello"]).unwrap();
        batch.push(&[b"wo", b"rld"]).unwrap();
        batch.push(&[]).unwrap();
        assert_eq!(batch.len(), 3);
        let frames: Vec<&[u8]> = batch.frames().collect();
        assert_eq!(frames, vec![b"hello".as_slice(), b"world", b""]);
        assert_eq!(batch.total_bytes(), 3 * 4 + 5 + 5);
    }

    #[test]
    fn shared_frames_match_iteration() {
        let mut batch = FrameBatch::new();
        for i in 0..10u32 {
            batch.push(&[&i.to_be_bytes(), &[0xAA; 3]]).unwrap();
        }
        let expected: Vec<Vec<u8>> = batch.frames().map(|f| f.to_vec()).collect();
        let shared = batch.into_shared_frames();
        assert_eq!(shared.len(), 10);
        for (s, e) in shared.iter().zip(&expected) {
            assert_eq!(&s[..], &e[..]);
        }
    }

    #[test]
    fn streaming_writer_patches_prefix() {
        let mut batch = FrameBatch::new();
        {
            let mut w = batch.frame_writer();
            w.put_u8(7);
            w.put_u32(0xdead_beef);
            w.put_slice(b"tail");
            assert_eq!(w.written(), 9);
        }
        batch.push(&[b"after"]).unwrap();
        let frames: Vec<&[u8]> = batch.frames().collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], [7, 0xde, 0xad, 0xbe, 0xef, b't', b'a', b'i', b'l']);
        assert_eq!(frames[1], b"after");
    }

    #[test]
    fn empty_batch_is_empty() {
        let batch = FrameBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.frames().count(), 0);
        assert!(batch.into_shared_frames().is_empty());
    }

    #[test]
    fn bytesmut_converts_to_single_frame() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"payload");
        let batch = FrameBatch::from(buf);
        let frames: Vec<&[u8]> = batch.frames().collect();
        assert_eq!(frames, vec![b"payload".as_slice()]);
    }
}
