//! Deterministic in-process simulated network.
//!
//! [`sim_pair`] returns two [`SimEndpoint`]s joined by a link that is
//! reliable and ordered, like a TCP stream: every frame arrives once,
//! intact, in send order. Its faults are the ones TCP presents — timing
//! (in-order jitter, stall windows, a bandwidth cap) from a [`FaultPlan`]
//! fully determined by one `u64` seed, plus a [`Cut`] that a test sets
//! on purpose: a reset of one direction, which the reader sees as
//! `Closed` once the frames sent before it have drained. Time is
//! *virtual*: each endpoint carries a clock in virtual milliseconds that
//! advances on sends (transmission time under a bandwidth cap) and on
//! receives (to the frame's delivery time), so a "500 ms stall" costs
//! microseconds of wall time and replays identically.
//!
//! # Determinism
//!
//! Two sources of nondeterminism exist in a two-thread simulation: the
//! fault schedule and timeout ordering. Both are pinned:
//!
//! * Jitter draws come from **per-direction** RNG streams seeded from
//!   `(plan.seed, direction)` and consumed in per-direction send order.
//!   Thread interleaving cannot reorder draws within a direction, and
//!   directions do not share a stream, so the delivery time of message
//!   `i` on a direction is a pure function of the seed.
//! * A receiver delivers its queue head as soon as the head is due by
//!   its deadline: a direction delivers in send order at non-decreasing
//!   virtual times, so nothing sent later can precede it. A blocked
//!   receiver's timeout is declared only on virtual evidence: either a
//!   queued frame is due *after* the deadline, or **both** parties are
//!   provably blocked on empty queues — then the earliest virtual
//!   deadline fires (ties break toward side A). Wall-clock never
//!   decides; a configurable real-time backstop exists only to surface
//!   harness bugs as errors instead of hung test runs.
//!
//! An endpoint can hand its receive side to a thread of its own, as the
//! mux loops do; see [`SimEndpoint::split_reader`] for how the bound
//! above stays true.

pub mod fault;
pub(crate) mod link;
pub mod trace;

pub use fault::{Cut, FaultPlan, Faults, StallWindow};
pub use link::Side;
pub use trace::{SimTrace, TraceEvent, TraceHandle};

use std::sync::Arc;

use crate::error::NetError;
use crate::simnet::fault::FaultInjector;
use crate::simnet::link::{LinkShared, Scheduled, WaitState};
use crate::simnet::trace::TraceEvent as Event;
use crate::transport::{DeadlineTransport, SplitReader, Transport};

/// Fixed (non-seeded) parameters of a simulated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Base one-way latency in virtual milliseconds.
    pub latency_ms: u64,
    /// Virtual deadline for a whole run; once an endpoint's clock passes
    /// it, sends and deliveries fail with [`NetError::TimedOut`]. This is
    /// the harness's hang detector: any schedule that cannot finish
    /// within the budget terminates with a typed error.
    pub run_deadline_ms: u64,
    /// Wall-clock backstop for condvar waits. Virtual logic never
    /// depends on it; it only turns a harness bug (a wait nothing will
    /// ever signal) into an error instead of a hung test.
    pub real_backstop_ms: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency_ms: 5,
            run_deadline_ms: 600_000,
            real_backstop_ms: 30_000,
        }
    }
}

/// One endpoint of a simulated link. Implements [`Transport`] and
/// [`DeadlineTransport`]; deadlines are measured on the virtual clock.
pub struct SimEndpoint {
    shared: Arc<LinkShared>,
    side: Side,
    config: SimConfig,
    injector: FaultInjector,
    bytes_per_ms: u64,
}

/// Creates a connected pair of simulated endpoints plus a handle to the
/// link's event trace.
pub fn sim_pair(config: SimConfig, plan: &FaultPlan) -> (SimEndpoint, SimEndpoint, TraceHandle) {
    // The conservative delivery rule needs a strictly positive lookahead
    // (a send can never arrive at the sender's own instant), so a zero
    // latency is bumped to one virtual millisecond.
    let config = SimConfig {
        latency_ms: config.latency_ms.max(1),
        ..config
    };
    let shared = Arc::new(LinkShared::default());
    let endpoint = |side: Side| SimEndpoint {
        shared: shared.clone(),
        side,
        config,
        injector: FaultInjector::new(plan, side),
        bytes_per_ms: plan.bytes_per_ms,
    };
    let (a, b) = (endpoint(Side::A), endpoint(Side::B));
    (a, b, TraceHandle { shared })
}

impl SimEndpoint {
    /// This endpoint's current virtual time, in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        *self.shared.lock().clocks.get(self.side)
    }
}

fn over_deadline(config: &SimConfig, clock: u64) -> Result<(), NetError> {
    if clock > config.run_deadline_ms {
        Err(NetError::TimedOut {
            waited_ms: config.run_deadline_ms,
        })
    } else {
        Ok(())
    }
}

/// `side`'s blocking receive with an optional virtual deadline.
/// `Ok(None)` only when a deadline was given and elapsed.
///
/// The queue head is delivered as soon as it is due by the deadline:
/// a direction delivers in send order at non-decreasing virtual
/// times, so nothing the peer sends later can precede it. A timeout
/// follows the conservative rule: it commits only once the deadline
/// is provably earlier than anything the peer could still send. The
/// proof is a lower bound on the peer's next delivery — its
/// published clock plus link latency while it runs; `min(its queue
/// head, its deadline) + latency` while it is blocked; `∞` once it
/// is closed. Everything else waits on the condvar for the peer to
/// advance the shared virtual state.
fn receive(
    shared: &LinkShared,
    side: Side,
    config: &SimConfig,
    timeout_ms: Option<u64>,
) -> Result<Option<Vec<u8>>, NetError> {
    let latency = config.latency_ms.max(1);
    let peer = side.peer();
    let mut st = shared.lock();
    over_deadline(config, *st.clocks.get(side))?;
    let deadline = timeout_ms.map(|t| st.clocks.get(side).saturating_add(t));
    let mut backstopped = false;
    let mut registered = false;
    loop {
        // A deadlock verdict proven by the peer, or this side closed
        // under its split reader.
        let deadlocked = st.waiting.get(side).is_some_and(|w| w.deadlocked);
        if deadlocked || *st.closed.get(side) {
            *st.waiting.get_mut(side) = None;
            shared.wakeup.notify_all();
            return Err(if deadlocked {
                NetError::Deadlock
            } else {
                NetError::Closed
            });
        }
        let top = st.queues.get(side).front().map(|f| f.vtime);
        // Lower bound on the delivery time of any frame the peer has
        // not sent yet.
        let lb = if *st.closed.get(peer) {
            u64::MAX
        } else if let Some(pw) = st.waiting.get(peer) {
            let head = st.queues.get(peer).front().map_or(u64::MAX, |f| f.vtime);
            head.min(pw.deadline.unwrap_or(u64::MAX))
                .saturating_add(latency)
        } else {
            st.clocks.get(peer).saturating_add(latency)
        };
        // Deliver the queue head: nothing the peer sends later can
        // precede it.
        if let Some(t) = top {
            if deadline.is_none_or(|d| t <= d) {
                *st.waiting.get_mut(side) = None;
                let clock = st.clocks.get_mut(side);
                *clock = (*clock).max(t);
                let clock = *clock;
                shared.wakeup.notify_all();
                over_deadline(config, clock)?;
                let queue = st.queues.get_mut(side);
                match queue.pop_front() {
                    Some(Scheduled {
                        bytes: Some(frame), ..
                    }) => return Ok(Some(frame)),
                    // A reset stays at the head: every later receive
                    // sees it too.
                    Some(reset) => {
                        queue.push_front(reset);
                        return Err(NetError::Closed);
                    }
                    None => {}
                }
            }
        }
        // Empty queue + peer gone: nothing can ever arrive.
        if top.is_none() && *st.closed.get(peer) {
            *st.waiting.get_mut(side) = None;
            return Err(NetError::Closed);
        }
        // Time out once nothing can arrive by the deadline.
        if let Some(d) = deadline {
            if top.is_none_or(|t| t > d) && d < lb {
                *st.waiting.get_mut(side) = None;
                let clock = st.clocks.get_mut(side);
                *clock = (*clock).max(d);
                shared.wakeup.notify_all();
                return Ok(None);
            }
        }
        // Undecidable for now: register as blocked (the registration
        // itself is virtual state — it sharpens the peer's bound, so
        // announce it).
        if !registered {
            *st.waiting.get_mut(side) = Some(WaitState {
                deadline,
                deadlocked: false,
            });
            registered = true;
            shared.wakeup.notify_all();
        }
        // Provable mutual starvation: both sides blocked with no
        // deadline and nothing in flight either way.
        let peer_stuck = st
            .waiting
            .get(peer)
            .as_ref()
            .is_some_and(|w| w.deadline.is_none() && !w.deadlocked)
            && st.queues.get(peer).is_empty();
        if deadline.is_none() && top.is_none() && peer_stuck {
            if let Some(w) = st.waiting.get_mut(peer).as_mut() {
                w.deadlocked = true;
            }
            *st.waiting.get_mut(side) = None;
            shared.wakeup.notify_all();
            return Err(NetError::Deadlock);
        }
        // Wait for the peer to advance the virtual state. The
        // wall-clock backstop converts a harness bug into an error;
        // one full re-check runs before giving up, in case the
        // wake-up raced the timeout.
        if backstopped {
            *st.waiting.get_mut(side) = None;
            return Err(NetError::TimedOut {
                waited_ms: config.real_backstop_ms,
            });
        }
        let wait = std::time::Duration::from_millis(config.real_backstop_ms);
        let (guard, result) = shared
            .wakeup
            .wait_timeout(st, wait)
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
        backstopped = result.timed_out();
    }
}

impl Transport for SimEndpoint {
    /// Sends one frame. Unlike the in-memory duplex pair, sending to a
    /// closed peer (or past a cut) is *not* an error: the frame, its
    /// jitter draw and its trace event happen exactly as if the peer were
    /// listening, so a run's trace cannot depend on the wall-clock race
    /// between one party's exit and the other's last sends. Peer
    /// departure surfaces on the receive side, after the in-flight queue
    /// drains.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let (shared, side) = (Arc::clone(&self.shared), self.side);
        let mut st = shared.lock();
        over_deadline(&self.config, *st.clocks.get(side))?;
        let transmission = if self.bytes_per_ms == 0 {
            0
        } else {
            (frame.len() as u64).div_ceil(self.bytes_per_ms)
        };
        // Never before the deadline of a wait this side's split reader
        // has registered (see `split_reader`).
        let waiting_until = st.waiting.get(side).and_then(|w| w.deadline).unwrap_or(0);
        let start = (*st.clocks.get(side))
            .max(waiting_until)
            .max(*st.link_free_at.get(side));
        *st.link_free_at.get_mut(side) = start + transmission;
        let clock = start + transmission;
        *st.clocks.get_mut(side) = clock;
        // Jitter draws come from a per-direction seeded RNG in
        // per-direction send order, on the sending party's own thread:
        // deterministic under a fixed FaultPlan seed.
        let fate = self.injector.on_send(start, clock + self.config.latency_ms);
        let faults = fate.faults;
        if !faults.is_clean() {
            minshare_trace::emit("simnet", "fault", true, || {
                vec![
                    minshare_trace::count("index", fate.index),
                    minshare_trace::count("faults_bits", u64::from(faults.as_bits())),
                    minshare_trace::count("extra_delay_ms", faults.extra_delay_ms),
                ]
            });
        }
        st.trace.get_mut(side).push(Event {
            index: fate.index,
            sent_len: frame.len() as u32,
            send_vtime: start,
            delivery_vtime: (!faults.cut).then_some(fate.vtime),
            faults,
        });
        // The first frame past a cut leaves the reset in its place.
        let bytes = (!faults.cut).then(|| frame.to_vec());
        if bytes.is_some() || fate.reset {
            st.queues.get_mut(side.peer()).push_back(Scheduled {
                vtime: fate.vtime,
                bytes,
            });
        }
        shared.wakeup.notify_all();
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        match receive(&self.shared, self.side, &self.config, None)? {
            Some(frame) => Ok(frame),
            // Unreachable: without a deadline, `receive` never returns
            // a timeout. Mapped defensively rather than unwrapped.
            None => Err(NetError::Deadlock),
        }
    }
}

impl DeadlineTransport for SimEndpoint {
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        receive(&self.shared, self.side, &self.config, Some(timeout_ms))
    }

    /// Both halves share the side's clock in the link state. The reader
    /// waits in one-virtual-millisecond steps, so the side is always
    /// inside a receive and the peer's clock keeps moving. While it is
    /// registered as waiting, the peer bounds this side's next delivery
    /// by `min(head, deadline) + latency`, so `send` stamps no earlier
    /// than the deadline; an unsplit endpoint never sends while waiting.
    /// `unblock` closes the side, as a drop does.
    fn split_reader(&mut self) -> SplitReader {
        let (shared, side, config) = (Arc::clone(&self.shared), self.side, self.config);
        let stopper = Arc::clone(&self.shared);
        SplitReader {
            recv: Box::new(move || loop {
                if let Some(frame) = receive(&shared, side, &config, Some(1))? {
                    return Ok(frame);
                }
            }),
            unblock: Box::new(move || {
                *stopper.lock().closed.get_mut(side) = true;
                stopper.wakeup.notify_all();
            }),
        }
    }
}

impl Drop for SimEndpoint {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        *st.closed.get_mut(self.side) = true;
        self.shared.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            real_backstop_ms: 2_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn perfect_link_delivers_in_order() {
        let (mut a, mut b, _trace) = sim_pair(cfg(), &FaultPlan::perfect());
        for i in 0..20u8 {
            a.send(&[i]).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
        assert_eq!(b.clock_ms(), cfg().latency_ms);
    }

    #[test]
    fn both_directions_work() {
        let (mut a, mut b, _trace) = sim_pair(cfg(), &FaultPlan::perfect());
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn closed_peer_detected_on_recv() {
        let (mut a, b, _trace) = sim_pair(cfg(), &FaultPlan::perfect());
        drop(b);
        // Sends to a dead peer vanish into the link (deterministically —
        // see `send`); the receive side reports the closure.
        assert!(a.send(b"x").is_ok());
        assert_eq!(a.recv().unwrap_err(), NetError::Closed);
        assert_eq!(a.recv_deadline(10).unwrap_err(), NetError::Closed);
    }

    #[test]
    fn queued_frames_drain_before_closed() {
        let (mut a, mut b, _trace) = sim_pair(cfg(), &FaultPlan::perfect());
        a.send(b"parting gift").unwrap();
        drop(a);
        assert_eq!(b.recv().unwrap(), b"parting gift");
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn virtual_deadline_fires_against_future_frame() {
        let plan = FaultPlan {
            delay: 1.0,
            max_delay_ms: 100,
            ..FaultPlan::perfect()
        };
        let (mut a, mut b, _trace) = sim_pair(cfg(), &plan);
        a.send(b"late").unwrap();
        // The frame is due at latency + delay > 1 virtual ms: a 1 ms
        // deadline must time out without wall-clock sleeping (sound even
        // with `a` alive: its published clock bounds any further send).
        assert_eq!(b.recv_deadline(1).unwrap(), None);
        assert_eq!(b.clock_ms(), 1);
        // A deadline that reaches the frame delivers it, `a` still alive
        // and idle: nothing it sends later can precede the queue head.
        assert_eq!(b.recv_deadline(100_000).unwrap(), Some(b"late".to_vec()));
        drop(a);
    }

    #[test]
    fn both_blocked_earliest_deadline_fires() {
        let (mut a, mut b, _trace) = sim_pair(cfg(), &FaultPlan::perfect());
        let handle = std::thread::spawn(move || {
            // B blocks with the later deadline; A must fire first, send,
            // and this side then receives the frame.
            let first = b.recv_deadline(50).unwrap();
            (first, b)
        });
        // A blocks with the earlier deadline: times out, then sends.
        assert_eq!(a.recv_deadline(10).unwrap(), None);
        assert_eq!(a.clock_ms(), 10);
        a.send(b"after-timeout").unwrap();
        let (first, _b) = handle.join().unwrap();
        assert_eq!(first, Some(b"after-timeout".to_vec()));
    }

    #[test]
    fn both_blocked_without_deadlines_is_deadlock() {
        let (mut a, mut b, _trace) = sim_pair(cfg(), &FaultPlan::perfect());
        let handle = std::thread::spawn(move || b.recv());
        let got_a = a.recv();
        let got_b = handle.join().unwrap();
        assert_eq!(got_a.unwrap_err(), NetError::Deadlock);
        assert_eq!(got_b.unwrap_err(), NetError::Deadlock);
    }

    /// A split end whose sending half sits idle still moves its clock,
    /// so the peer's deadline is proven on virtual time; a send made
    /// afterwards arrives after the peer's committed timeout; `unblock`
    /// ends the reader with `Closed`.
    #[test]
    fn split_reader_keeps_the_peers_clock_moving() {
        let (mut a, mut b, trace) = sim_pair(cfg(), &FaultPlan::perfect());
        let SplitReader { mut recv, unblock } = a.split_reader();
        let reader = std::thread::spawn(move || (recv(), recv));
        assert_eq!(b.recv_deadline(500).unwrap(), None);
        assert_eq!(b.clock_ms(), 500);
        a.send(b"late").unwrap();
        assert_eq!(b.recv().unwrap(), b"late");
        let snap = trace.snapshot();
        let sent = &snap.a_to_b[0];
        assert!(sent.delivery_vtime.is_some_and(|t| t > 500), "{sent:?}");
        b.send(b"to the reader").unwrap();
        let (first, mut recv) = reader.join().unwrap();
        assert_eq!(first.unwrap(), b"to the reader");
        unblock();
        assert_eq!(recv().unwrap_err(), NetError::Closed);
    }

    #[test]
    fn jitter_never_reorders_frames() {
        let plan = FaultPlan {
            seed: 11,
            delay: 0.5,
            max_delay_ms: 40,
            ..FaultPlan::perfect()
        };
        let (mut a, mut b, trace) = sim_pair(cfg(), &plan);
        for i in 0..64u8 {
            a.send(&[i]).unwrap();
        }
        drop(a);
        for i in 0..64u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
        // Jitter fired unevenly, yet delivery times never go backwards.
        let events = trace.snapshot().a_to_b;
        assert!(events.iter().any(|e| e.faults.extra_delay_ms > 0));
        assert!(events.iter().any(|e| e.faults.extra_delay_ms == 0));
        assert!(events
            .windows(2)
            .all(|w| w[0].delivery_vtime <= w[1].delivery_vtime));
    }

    #[test]
    fn stall_window_holds_a_frame_until_it_ends() {
        let plan = FaultPlan {
            stalls: vec![StallWindow {
                from_ms: 0,
                until_ms: 40,
            }],
            ..FaultPlan::perfect()
        };
        let (mut a, mut b, trace) = sim_pair(cfg(), &plan);
        // Sent at clock 0, inside the window.
        a.send(b"held").unwrap();
        drop(a);
        // Nothing is due before the window ends: a deadline short of it
        // times out on the virtual clock, without sleeping.
        assert_eq!(b.recv_deadline(39).unwrap(), None);
        assert_eq!(b.clock_ms(), 39);
        assert_eq!(b.recv().unwrap(), b"held");
        assert_eq!(b.clock_ms(), 40);
        let event = &trace.snapshot().a_to_b[0];
        assert!(event.faults.stalled);
        assert_eq!(event.delivery_vtime, Some(40));
    }

    #[test]
    fn cut_drains_earlier_frames_then_closes() {
        let plan = FaultPlan {
            cut: Some(Cut {
                from: Side::A,
                at_frame: 2,
            }),
            ..FaultPlan::perfect()
        };
        let (mut a, mut b, trace) = sim_pair(cfg(), &plan);
        for i in 0..5u8 {
            a.send(&[i]).unwrap();
        }
        // `a` is still alive: the reset alone ends the stream, after the
        // frames sent before it.
        assert_eq!(b.recv().unwrap(), vec![0]);
        assert_eq!(b.recv().unwrap(), vec![1]);
        assert_eq!(b.recv().unwrap_err(), NetError::Closed);
        assert_eq!(b.recv_deadline(10).unwrap_err(), NetError::Closed);
        // The other direction is untouched.
        b.send(b"still open").unwrap();
        assert_eq!(a.recv().unwrap(), b"still open");
        let snap = trace.snapshot();
        assert_eq!(snap.a_to_b.len(), 5);
        assert!(snap.a_to_b[..2].iter().all(|e| e.faults.is_clean()));
        assert!(snap.a_to_b[2..]
            .iter()
            .all(|e| e.faults.cut && e.delivery_vtime.is_none()));
    }

    #[test]
    fn stall_window_delays_by_virtual_time() {
        let plan = FaultPlan {
            stalls: vec![StallWindow {
                from_ms: 0,
                until_ms: 50,
            }],
            ..FaultPlan::perfect()
        };
        let (mut a, mut b, trace) = sim_pair(cfg(), &plan);
        // Sent at clock 0, inside the window. A then blocks without a
        // deadline, so the held frame is provably next, and B replies
        // from outside the window.
        a.send(b"held").unwrap();
        let handle = std::thread::spawn(move || a.recv());
        assert_eq!(b.recv_deadline(60).unwrap(), Some(b"held".to_vec()));
        assert_eq!(b.clock_ms(), 50);
        b.send(b"reply-after-window").unwrap(); // clock 50: outside
        assert_eq!(handle.join().unwrap().unwrap(), b"reply-after-window");
        let snap = trace.snapshot();
        assert!(snap.a_to_b[0].faults.stalled);
        assert_eq!(snap.b_to_a[0].faults.as_bits(), 0);
        assert_eq!(snap.b_to_a[0].delivery_vtime, Some(50 + cfg().latency_ms));
    }

    #[test]
    fn bandwidth_cap_advances_clock() {
        let plan = FaultPlan {
            bytes_per_ms: 10,
            ..FaultPlan::perfect()
        };
        let (mut a, mut b, _trace) = sim_pair(cfg(), &plan);
        a.send(&[0u8; 100]).unwrap(); // 10 ms of transmission
        assert_eq!(a.clock_ms(), 10);
        b.recv().unwrap();
        assert_eq!(b.clock_ms(), 10 + cfg().latency_ms);
    }

    #[test]
    fn run_deadline_turns_starvation_into_typed_error() {
        let plan = FaultPlan {
            cut: Some(Cut {
                from: Side::A,
                at_frame: 0,
            }),
            ..FaultPlan::perfect()
        };
        let config = SimConfig {
            run_deadline_ms: 100,
            ..cfg()
        };
        let (mut a, _b, _trace) = sim_pair(config, &plan);
        // A sender that keeps writing into a cut link, waiting between
        // writes: the run deadline must stop it with a typed error, never
        // a hang. The wait is the clock bump a timed-out receive makes
        // (a single thread cannot block against a live peer).
        let mut outcome = None;
        for _ in 0..1_000 {
            if let Err(e) = a.send(b"into the cut") {
                outcome = Some(e);
                break;
            }
            *a.shared.lock().clocks.get_mut(Side::A) += 50;
        }
        assert!(matches!(outcome, Some(NetError::TimedOut { .. })));
    }

    #[test]
    fn identical_seeds_produce_identical_traces_across_threads() {
        let run = |seed: u64| {
            let plan = FaultPlan::from_seed(seed);
            let (mut a, mut b, trace) = sim_pair(cfg(), &plan);
            let handle = std::thread::spawn(move || {
                // Party B: echo whatever arrives until the link closes.
                // Never exits early, so A's waits always resolve on
                // virtual evidence (both-blocked), never the backstop.
                loop {
                    match b.recv_deadline(200) {
                        Ok(Some(frame)) => {
                            let _ = b.send(&frame);
                        }
                        Ok(None) => {}
                        Err(_) => break,
                    }
                }
                b
            });
            let mut received = 0u32;
            let mut sent = 0u32;
            while received < 30 && sent < 400 {
                if a.send(&[sent as u8; 16]).is_err() {
                    break;
                }
                sent += 1;
                match a.recv_deadline(40) {
                    Ok(Some(_)) => received += 1,
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            // Close A first so B's loop terminates on `Closed`, never on
            // the wall-clock backstop (which would be nondeterministic).
            drop(a);
            let b_end = handle.join().unwrap();
            drop(b_end);
            trace.snapshot()
        };
        for seed in [1u64, 9, 23] {
            let t1 = run(seed);
            let t2 = run(seed);
            assert_eq!(t1, t2, "trace diverged for seed {seed}");
            assert_eq!(t1.digest(), t2.digest());
        }
    }
}
