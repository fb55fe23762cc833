//! Shared state of one simulated link.
//!
//! Both endpoints and the trace handle hold an `Arc<LinkShared>`: a
//! mutex over [`LinkState`] plus one condvar. All ordering decisions —
//! delivery order, which blocked party's timeout fires first, deadlock
//! declaration — are made on *virtual* quantities under the lock, so the
//! observable behaviour of a run is a pure function of the seed even
//! though the two parties run on real OS threads.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::simnet::trace::TraceEvent;

/// One of the two endpoints of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The endpoint returned first by `sim_pair`.
    A,
    /// The endpoint returned second by `sim_pair`.
    B,
}

impl Side {
    /// The other endpoint.
    pub fn peer(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }

    /// Direction tag for seeding the per-direction jitter stream.
    pub(crate) fn direction(self) -> u64 {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// A `{A, B}`-indexed pair. Used instead of `[T; 2]` so lookups are
/// `match`es rather than slice indexing (which the workspace bans in
/// non-test library code — an out-of-range index would be a panic path).
#[derive(Debug, Default)]
pub(crate) struct PerSide<T> {
    pub a: T,
    pub b: T,
}

impl<T> PerSide<T> {
    pub fn get(&self, side: Side) -> &T {
        match side {
            Side::A => &self.a,
            Side::B => &self.b,
        }
    }

    pub fn get_mut(&mut self, side: Side) -> &mut T {
        match side {
            Side::A => &mut self.a,
            Side::B => &mut self.b,
        }
    }
}

/// A frame sitting in the link, due at `vtime`.
#[derive(Debug)]
pub(crate) struct Scheduled {
    pub vtime: u64,
    /// The frame, or `None` for the reset a cut leaves behind: the
    /// reader sees `Closed` from then on.
    pub bytes: Option<Vec<u8>>,
}

/// Registration of a receiver blocked on its queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitState {
    /// Absolute virtual deadline, `None` for an unbounded `recv`.
    pub deadline: Option<u64>,
    /// Set by the peer when it proves mutual starvation (both sides
    /// blocked forever with nothing in flight).
    pub deadlocked: bool,
}

/// Everything behind the link's mutex.
#[derive(Debug, Default)]
pub(crate) struct LinkState {
    /// In-flight frames, keyed by *receiving* side. A direction delivers
    /// in send order at non-decreasing virtual times, so each queue is
    /// FIFO.
    pub queues: PerSide<VecDeque<Scheduled>>,
    /// Virtual time at which each direction's pipe frees up, keyed by
    /// *sending* side. Models the bandwidth cap.
    pub link_free_at: PerSide<u64>,
    /// Whether each endpoint has been dropped.
    pub closed: PerSide<bool>,
    /// Each endpoint's virtual clock, published on every clock change
    /// made under the lock. Clocks only move forward, so
    /// `clocks[peer] + latency` is a sound lower bound on the delivery
    /// time of anything the peer has not sent yet — the conservative
    /// lookahead that makes delivery order independent of OS scheduling.
    pub clocks: PerSide<u64>,
    /// Blocked-receiver registrations, keyed by the blocked side.
    pub waiting: PerSide<Option<WaitState>>,
    /// Trace events, keyed by *sending* side.
    pub trace: PerSide<Vec<TraceEvent>>,
}

/// The mutex + condvar pair both endpoints share.
#[derive(Debug, Default)]
pub(crate) struct LinkShared {
    state: Mutex<LinkState>,
    pub wakeup: Condvar,
}

impl LinkShared {
    /// Locks the state, recovering from poison: a party thread that
    /// panicked while holding the lock must not take the simulation down
    /// with a second panic — the harness converts the first one into
    /// `ProtocolError::PartyPanicked` and the state is still coherent
    /// enough to let the surviving side observe `closed`.
    pub fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_side_round_trips() {
        let mut p = PerSide { a: 1, b: 2 };
        assert_eq!(*p.get(Side::A), 1);
        assert_eq!(*p.get(Side::B), 2);
        *p.get_mut(Side::A.peer()) = 9;
        assert_eq!(p.b, 9);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let shared = std::sync::Arc::new(LinkShared::default());
        let s2 = shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.lock();
            panic!("poison it");
        })
        .join();
        let mut st = shared.lock();
        *st.closed.get_mut(Side::A) = true;
        assert!(*st.closed.get(Side::A));
    }
}
