//! The byte-frame transport interface.

use crate::error::NetError;

/// A reliable, ordered, message-oriented duplex link between the two
/// parties. Frames are opaque byte strings; serialization of protocol
//  messages happens one layer up (in the `minshare` protocol crate).
///
/// Every frame goes out through `send`, one call per frame; how a list
/// is split into frames is decided one layer up (the chunked envelope in
/// `minshare`'s `wire` module), never by the transport.
///
/// `send` is registered as a wire sink in the analyzer's taint registry
/// (`WIRE_SINK_FNS`): WIRE01 statically proves that no raw set value,
/// hash-only value, or key material flows into it — nothing but
/// hash-then-encrypt output reaches the wire. New transmitting methods
/// on this trait must be added to that registry.
pub trait Transport {
    /// Sends one frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Receives the next frame, blocking until one arrives.
    fn recv(&mut self) -> Result<Vec<u8>, NetError>;
}

/// Blanket impl so `&mut T` works where `T: Transport` is expected.
impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        (**self).recv()
    }
}

/// A transport whose receive side can give up after a deadline, and be
/// handed to a thread of its own.
///
/// Over the simulated network the deadline is measured on the *virtual*
/// clock (so runs are deterministic and instant); over real transports
/// it is wall-clock time.
pub trait DeadlineTransport: Transport {
    /// Waits up to `timeout_ms` for the next frame. Returns `Ok(None)` if
    /// the deadline elapsed with no frame; transport failures (peer gone,
    /// link closed) are errors as in [`Transport::recv`].
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError>;

    /// Hands the receive side to a dedicated reader. The mux connection
    /// loops in [`crate::server`] run it on a reader thread and block on
    /// their own event queue; the transport keeps sending. Bytes already
    /// buffered travel with the reader, and the caller must not receive
    /// on the transport itself afterwards.
    fn split_reader(&mut self) -> SplitReader;
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
