//! Event traces for simulated-network runs.
//!
//! Every send through a [`crate::simnet::SimEndpoint`] appends one
//! [`TraceEvent`]. Because jitter is drawn from a per-direction RNG
//! stream in per-direction send order,
//! and all timestamps are virtual, re-running the same seed produces a
//! byte-identical trace regardless of OS thread scheduling — which is
//! exactly what the conformance harness asserts.

use std::sync::Arc;

use crate::simnet::fault::Faults;
use crate::simnet::link::LinkShared;

/// One frame, as observed by the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-direction message index (0-based, in send order).
    pub index: u64,
    /// Payload length as handed to `send`.
    pub sent_len: u32,
    /// Virtual time at which the frame entered the link.
    pub send_vtime: u64,
    /// Virtual time at which the frame reaches the receiver, or `None`
    /// if it was sent at or past the direction's cut.
    pub delivery_vtime: Option<u64>,
    /// Which faults the injector applied to this frame.
    pub faults: Faults,
}

/// A full per-direction trace of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimTrace {
    /// Events for frames sent by side A (delivered toward B).
    pub a_to_b: Vec<TraceEvent>,
    /// Events for frames sent by side B (delivered toward A).
    pub b_to_a: Vec<TraceEvent>,
}

impl SimTrace {
    /// True when no sends were observed.
    pub fn is_empty(&self) -> bool {
        self.a_to_b.is_empty() && self.b_to_a.is_empty()
    }

    /// An order-sensitive FNV-1a digest of the whole trace, for cheap
    /// "same seed → same run" comparisons in the sweep harness.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_be_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (dir, events) in [(0u64, &self.a_to_b), (1u64, &self.b_to_a)] {
            mix(dir);
            mix(events.len() as u64);
            for e in events {
                mix(e.index);
                mix(u64::from(e.sent_len));
                mix(e.send_vtime);
                mix(e.delivery_vtime.map_or(u64::MAX, |t| t));
                mix(u64::from(e.faults.as_bits()));
                mix(e.faults.extra_delay_ms);
            }
        }
        h
    }
}

/// A handle onto the link's trace, alive even while both endpoints are
/// owned by protocol threads.
#[derive(Clone)]
pub struct TraceHandle {
    pub(crate) shared: Arc<LinkShared>,
}

impl TraceHandle {
    /// Copies the trace accumulated so far. Call after the run finishes
    /// for the complete picture.
    pub fn snapshot(&self) -> SimTrace {
        let st = self.shared.lock();
        SimTrace {
            a_to_b: st.trace.a.clone(),
            b_to_a: st.trace.b.clone(),
        }
    }
}
