//! Seeded fault schedules.
//!
//! The link is reliable and ordered, like a TCP stream: every frame sent
//! before a cut arrives once, intact, and in send order. A [`FaultPlan`]
//! only decides *when*: random in-order jitter, stall windows and a
//! bandwidth cap, plus one terminal fault a test sets on purpose — a
//! [`Cut`] of one direction. The per-direction `FaultInjector` turns
//! the plan into a concrete schedule by drawing from a `StdRng` seeded
//! with `plan.seed ^ direction`. Each direction consumes its stream
//! strictly in send order, so the schedule a message sees depends only
//! on `(seed, direction, message index)` — never on how the OS
//! interleaved the two party threads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::simnet::link::Side;

/// A virtual-time window during which the link holds every frame sent:
/// such a frame is delivered no earlier than the window's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// First virtual millisecond of the stall (inclusive).
    pub from_ms: u64,
    /// End of the stall (exclusive).
    pub until_ms: u64,
}

impl StallWindow {
    fn covers(&self, vtime: u64) -> bool {
        self.from_ms <= vtime && vtime < self.until_ms
    }
}

/// A reset of one direction: frames `0..at_frame` sent by `from` are
/// delivered, nothing after them is, and the receiving side's `recv`
/// returns `Closed` once the earlier frames have drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// The sending side of the cut direction.
    pub from: Side,
    /// Per-direction index of the first frame that is not delivered.
    pub at_frame: u64,
}

/// A reproducible schedule of network timing, fully determined by `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-direction jitter streams.
    pub seed: u64,
    /// Probability a frame is held back by an extra random delay. Frames
    /// never overtake each other: a delayed frame holds back its
    /// successors too.
    pub delay: f64,
    /// Upper bound on injected extra delay, in virtual milliseconds.
    pub max_delay_ms: u64,
    /// Scheduled stalls of the link (both directions).
    pub stalls: Vec<StallWindow>,
    /// Virtual bandwidth cap in bytes per virtual millisecond per
    /// direction; `0` means unlimited.
    pub bytes_per_ms: u64,
    /// A reset of one direction. [`FaultPlan::from_seed`] never draws
    /// one, so every seeded plan is one a correct stack must complete.
    pub cut: Option<Cut>,
}

impl FaultPlan {
    /// A fault-free plan: every frame delivered after the base latency.
    pub fn perfect() -> Self {
        FaultPlan {
            seed: 0,
            delay: 0.0,
            max_delay_ms: 0,
            stalls: Vec::new(),
            bytes_per_ms: 0,
            cut: None,
        }
    }

    /// Derives a randomized-but-reproducible plan from a single seed: the
    /// sweep harness walks seeds `0..N` to cover a spectrum from an
    /// unhurried link to a jittery, stalling, narrow one.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let delay = f64::from(rng.random_range(0u32..=1000)) / 1000.0 * 0.5;
        let max_delay_ms = rng.random_range(1u64..=40);
        // Roughly a third of plans include one stall window.
        let stalls = if rng.random_bool(0.35) {
            let from_ms = rng.random_range(5u64..=400);
            let width = rng.random_range(5u64..=120);
            vec![StallWindow {
                from_ms,
                until_ms: from_ms + width,
            }]
        } else {
            Vec::new()
        };
        // Occasionally cap bandwidth so transmission time matters.
        let bytes_per_ms = if rng.random_bool(0.25) {
            rng.random_range(64u64..=4096)
        } else {
            0
        };
        FaultPlan {
            seed,
            delay,
            max_delay_ms,
            stalls,
            bytes_per_ms,
            cut: None,
        }
    }

    /// The end of the latest stall window covering `vtime`, if any.
    fn stalled_until(&self, vtime: u64) -> Option<u64> {
        self.stalls
            .iter()
            .filter(|w| w.covers(vtime))
            .map(|w| w.until_ms)
            .max()
    }
}

/// Which faults touched one frame (recorded in the trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Faults {
    /// Sent inside a stall window and held until its end.
    pub stalled: bool,
    /// At or past the direction's cut: never delivered.
    pub cut: bool,
    /// Random jitter drawn for this frame, in virtual milliseconds; `0`
    /// when none fired.
    pub extra_delay_ms: u64,
}

impl Faults {
    /// Compact bitmask for digests and summaries.
    pub fn as_bits(&self) -> u8 {
        u8::from(self.stalled) | u8::from(self.cut) << 1
    }

    /// True when no fault touched the frame.
    pub fn is_clean(&self) -> bool {
        self.as_bits() == 0 && self.extra_delay_ms == 0
    }
}

/// What the injector decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fate {
    /// Per-direction message index.
    pub index: u64,
    /// When the frame reaches the receiver. For a frame past the cut
    /// nothing arrives; the first such frame's time is when the reset
    /// does.
    pub vtime: u64,
    /// This frame is the first past the cut: the reset takes its place.
    pub reset: bool,
    /// What happened, for the trace.
    pub faults: Faults,
}

/// Per-direction deterministic fault source. Owned by the *sending*
/// endpoint of its direction, so draws happen in send order.
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// First undelivered index of this direction, if it is cut.
    cut_at: Option<u64>,
    next_index: u64,
    /// Delivery time of the previous frame; nothing may arrive before it.
    last_delivery: u64,
}

impl FaultInjector {
    pub fn new(plan: &FaultPlan, from: Side) -> Self {
        FaultInjector {
            plan: plan.clone(),
            // Distinct stream per direction; the offset keeps direction
            // 0's stream different from the plan-derivation stream too.
            rng: StdRng::seed_from_u64(
                plan.seed
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
                    .wrapping_add(from.direction() + 1),
            ),
            cut_at: plan.cut.filter(|c| c.from == from).map(|c| c.at_frame),
            next_index: 0,
            last_delivery: 0,
        }
    }

    /// Decides the fate of one frame that entered the link at
    /// `send_vtime` and, unhindered, would arrive at `arrival_vtime`.
    pub fn on_send(&mut self, send_vtime: u64, arrival_vtime: u64) -> Fate {
        let index = self.next_index;
        self.next_index += 1;
        // The jitter draw happens for every frame, even a cut one, so the
        // stream position after message k never depends on the plan's
        // other faults.
        let extra_delay_ms = if self.rng.random_bool(self.plan.delay) {
            self.rng.random_range(1..=self.plan.max_delay_ms.max(1))
        } else {
            0
        };
        let stalled_until = self.plan.stalled_until(send_vtime);
        let vtime = (arrival_vtime + extra_delay_ms)
            .max(stalled_until.unwrap_or(0))
            .max(self.last_delivery);
        self.last_delivery = vtime;
        Fate {
            index,
            vtime,
            reset: self.cut_at == Some(index),
            faults: Faults {
                stalled: stalled_until.is_some(),
                cut: self.cut_at.is_some_and(|at| index >= at),
                extra_delay_ms,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_plan_never_mutates() {
        let plan = FaultPlan::perfect();
        let mut inj = FaultInjector::new(&plan, Side::A);
        for i in 0..100u64 {
            let fate = inj.on_send(i, i + 5);
            assert_eq!(fate.index, i);
            assert_eq!(fate.vtime, i + 5);
            assert!(!fate.reset);
            assert!(fate.faults.is_clean());
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::from_seed(42);
        let run = |mut inj: FaultInjector| {
            (0..200u64)
                .map(|i| inj.on_send(i * 3, i * 3 + 5))
                .collect::<Vec<_>>()
        };
        let a = run(FaultInjector::new(&plan, Side::A));
        let b = run(FaultInjector::new(&plan, Side::A));
        assert_eq!(a, b);
    }

    #[test]
    fn directions_get_distinct_streams() {
        let plan = FaultPlan {
            delay: 0.5,
            max_delay_ms: 40,
            ..FaultPlan::from_seed(7)
        };
        let mut d0 = FaultInjector::new(&plan, Side::A);
        let mut d1 = FaultInjector::new(&plan, Side::B);
        let outcomes: (Vec<_>, Vec<_>) = (0..64u64)
            .map(|i| (d0.on_send(i, i).faults, d1.on_send(i, i).faults))
            .unzip();
        assert_ne!(outcomes.0, outcomes.1);
    }

    #[test]
    fn from_seed_is_deterministic_and_varied() {
        assert_eq!(FaultPlan::from_seed(5), FaultPlan::from_seed(5));
        let plans: Vec<FaultPlan> = (0..32).map(FaultPlan::from_seed).collect();
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
        assert!(plans.iter().any(|p| !p.stalls.is_empty()));
        assert!(plans.iter().any(|p| p.bytes_per_ms != 0));
        assert!(plans.iter().all(|p| p.cut.is_none()));
    }

    #[test]
    fn stall_window_covers_half_open() {
        let w = StallWindow {
            from_ms: 10,
            until_ms: 20,
        };
        assert!(!w.covers(9));
        assert!(w.covers(10));
        assert!(w.covers(19));
        assert!(!w.covers(20));
    }
}
