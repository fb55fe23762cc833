//! Error type for the transport layer.

use std::fmt;

/// Errors produced by transports and the secure session layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer hung up (channel disconnected).
    Closed,
    /// A frame exceeded the configured size limit.
    FrameTooLarge {
        /// Size of the offending frame.
        size: usize,
        /// The limit in force.
        limit: usize,
    },
    /// A received frame failed structural validation.
    MalformedFrame {
        /// What went wrong.
        detail: String,
    },
    /// The secure-channel handshake failed.
    HandshakeFailed {
        /// What went wrong.
        detail: String,
    },
    /// Message authentication failed on a secured frame.
    AuthenticationFailed,
    /// The per-direction frame counter would wrap, which would reuse a
    /// nonce; the channel must be re-keyed instead.
    SequenceExhausted,
    /// An operating-system I/O failure (TCP transport).
    Io {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A receive deadline elapsed (virtual or wall-clock, depending on
    /// the transport) before a frame arrived.
    TimedOut {
        /// How long the caller was willing to wait, in milliseconds.
        waited_ms: u64,
    },
    /// Both parties were blocked waiting on an empty link with no
    /// deadline in force — nothing could ever arrive (simnet only; a
    /// real network cannot prove this).
    Deadlock,
    /// The server declined a new session: admission control is at its
    /// in-flight capacity. A typed load-shedding outcome — clients see
    /// this instead of a hang and may retry later.
    Busy {
        /// The session capacity that was in force.
        limit: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "peer closed the connection"),
            NetError::FrameTooLarge { size, limit } => {
                write!(f, "frame of {size} bytes exceeds limit {limit}")
            }
            NetError::MalformedFrame { detail } => write!(f, "malformed frame: {detail}"),
            NetError::HandshakeFailed { detail } => write!(f, "handshake failed: {detail}"),
            NetError::AuthenticationFailed => write!(f, "frame authentication failed"),
            NetError::SequenceExhausted => {
                write!(f, "frame counter exhausted; channel must be re-keyed")
            }
            NetError::Io { detail } => write!(f, "io error: {detail}"),
            NetError::TimedOut { waited_ms } => {
                write!(f, "no frame arrived within {waited_ms} ms")
            }
            NetError::Deadlock => {
                write!(f, "both parties blocked on an empty link with no deadline")
            }
            NetError::Busy { limit } => {
                write!(f, "server at session capacity ({limit}); try again later")
            }
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => NetError::Closed,
            _ => NetError::Io {
                detail: e.to_string(),
            },
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(NetError::Closed.to_string().contains("closed"));
        assert!(NetError::FrameTooLarge { size: 10, limit: 5 }
            .to_string()
            .contains("10"));
        assert!(NetError::Busy { limit: 8 }.to_string().contains("8"));
    }
}
