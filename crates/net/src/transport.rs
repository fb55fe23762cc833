//! The byte-frame transport interface.

use crate::error::NetError;
use crate::framebatch::FrameBatch;

/// A reliable, ordered, message-oriented duplex link between the two
/// parties. Frames are opaque byte strings; serialization of protocol
//  messages happens one layer up (in the `minshare` protocol crate).
///
/// `send`/`send_batch` are registered as wire sinks in the analyzer's
/// taint registry (`WIRE_SINK_FNS`): WIRE01 statically proves that no
/// raw set value, hash-only value, or key material flows into them —
/// nothing but hash-then-encrypt output reaches the wire. New
/// transmitting methods on this trait must be added to that registry.
pub trait Transport {
    /// Sends one frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Sends every frame of `batch`, in order. Wire-equivalent to
    /// calling [`Transport::send`] once per frame (the default does
    /// exactly that); transports with a cheaper bulk path — shared-buffer
    /// hand-off, reused encode scratch — override it.
    fn send_batch(&mut self, batch: FrameBatch) -> Result<(), NetError> {
        for frame in batch.frames() {
            self.send(frame)?;
        }
        Ok(())
    }

    /// Receives the next frame, blocking until one arrives.
    fn recv(&mut self) -> Result<Vec<u8>, NetError>;
}

/// Blanket impl so `&mut T` works where `T: Transport` is expected.
impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        (**self).send(frame)
    }

    fn send_batch(&mut self, batch: FrameBatch) -> Result<(), NetError> {
        (**self).send_batch(batch)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        (**self).recv()
    }
}

/// A transport whose receive side can give up after a deadline.
///
/// The mux connection loops ([`crate::server`]) poll with bounded waits
/// when they cannot hand the receive side to a reader thread. Over the
/// simulated network the deadline is measured on the *virtual* clock (so
/// runs are deterministic and instant); over real transports it is
/// wall-clock time.
pub trait DeadlineTransport: Transport {
    /// Waits up to `timeout_ms` for the next frame. Returns `Ok(None)` if
    /// the deadline elapsed with no frame; transport failures (peer gone,
    /// link closed) are errors as in [`Transport::recv`].
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError>;

    /// Hands the receive side to a dedicated reader, for callers (the
    /// mux connection loops in [`crate::server`]) that want to block on
    /// their own event queue instead of polling `recv_deadline`.
    ///
    /// `None` (the default) declines: the transport's receive path
    /// cannot run apart from its send path — a link on a virtual clock,
    /// which only a receive advances — and the caller keeps polling. After `Some`, bytes already buffered travel with the
    /// reader and the caller must not receive on the transport itself.
    fn split_reader(&mut self) -> Option<SplitReader> {
        None
    }
}

/// The receive side of a transport, detached by
/// [`DeadlineTransport::split_reader`] so one thread can block in it
/// while another keeps sending.
pub struct SplitReader {
    /// Blocks until the next frame arrives; same contract as
    /// [`Transport::recv`].
    pub recv: Box<dyn FnMut() -> Result<Vec<u8>, NetError> + Send>,
    /// Makes a blocked `recv`, and every later one, return an error
    /// promptly. Callable from any thread; the connection is unusable
    /// afterwards.
    pub unblock: Box<dyn Fn() + Send>,
}

impl<T: DeadlineTransport + ?Sized> DeadlineTransport for &mut T {
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        (**self).recv_deadline(timeout_ms)
    }

    fn split_reader(&mut self) -> Option<SplitReader> {
        (**self).split_reader()
    }
}
