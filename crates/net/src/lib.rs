//! # minshare-net
//!
//! The **secure communication** box of the paper's Figure 1: transports
//! carrying length-framed messages between the two parties, with
//!
//! * [`transport::Transport`] — the byte-frame interface the protocol
//!   engines speak,
//! * [`duplex`] — an in-memory duplex pair (crossbeam channels) for running
//!   both parties in one process, carrying frames as shared buffers,
//! * [`framebatch::FrameBatch`] — scatter/gather frame batching: many
//!   frames packed into one buffer in a single length-prefix pass, sent
//!   zero-copy where the transport supports it,
//! * [`counting::CountingTransport`] — exact wire accounting, used to
//!   verify the paper's §6.1 communication-cost formulas against actual
//!   bytes on the wire,
//! * [`secure::SecureChannel`] — an authenticated-encryption session
//!   (Diffie–Hellman over the safe-prime group → HKDF → ChaCha20 + HMAC),
//!   standing in for the "standard libraries or packages for secure
//!   communication" the paper assumes (§2.1),
//! * [`simnet`] — a deterministic fault-injecting simulated network
//!   (seeded drop/delay/duplicate/reorder/corrupt schedules on a virtual
//!   clock) for conformance testing the protocols under adversity,
//! * [`robust::RobustTransport`] — bounded-retry ARQ with checksummed
//!   frames and a resumable handshake, restoring reliable-channel
//!   semantics on top of a faulty link,
//! * [`mux`] — the session-multiplexing envelope: many independent
//!   protocol sessions interleaved over one framed connection, each
//!   frame tagged with a checksummed session id + sequence header,
//! * [`server`] — the long-running protocol daemon built on the mux: a
//!   session registry with admission control, bounded per-session
//!   queues with typed `Busy` load-shedding, and graceful shutdown that
//!   drains active sessions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting;
pub mod duplex;
pub mod error;
pub mod framebatch;
pub mod mux;
pub mod robust;
pub mod secure;
pub mod server;
pub mod simnet;
pub mod tcp;
pub mod transport;

pub use counting::{CountingTransport, TrafficStats};
pub use duplex::duplex_pair;
pub use error::NetError;
pub use framebatch::FrameBatch;
pub use mux::{MuxFrame, MuxKind, MUX_HEADER_LEN};
pub use robust::{RobustConfig, RobustTransport};
pub use server::{
    serve_mux_connection, MuxClient, MuxConfig, ServerStats, SessionRegistry, SessionTransport,
    ShutdownHandle, StatsProvider,
};
pub use simnet::{sim_pair, FaultPlan, SimConfig, SimEndpoint, SimTrace, TraceHandle};
pub use transport::{DeadlineTransport, SplitReader, Transport};
