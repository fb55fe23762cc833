//! Two-party orchestration over the deterministic simulated network.
//!
//! This is the virtual-clock sibling of [`crate::runner::run_two_party`]:
//! both parties run on real threads, but every frame travels through
//! `minshare_net::simnet` — a reliable, ordered link like a TCP stream,
//! with seeded jitter, stall windows and bandwidth caps on a virtual
//! clock. Byte accounting wraps each endpoint, so [`TrafficStats`]
//! measures protocol-layer bytes — directly comparable with a
//! perfect-link run, which is how the conformance harness checks that
//! timing never changes what the protocols reveal.
//!
//! Unlike the perfect-link runner, results are reported **per party**: a
//! plan that cuts one direction (a reset) can let one side finish while
//! the other fails with a typed error. The harness exposes both results
//! plus the full link trace, and [`SimTwoPartyRun::outcome`] classifies
//! the run.
//!
//! Each party closure's transport is dropped the moment the closure
//! returns, so a peer still waiting on a finished party observes
//! `NetError::Closed` instead of a deadlock.

use minshare_net::{
    sim_pair, CountingTransport, FaultPlan, SimConfig, SimTrace, TrafficStats, Transport,
};

use crate::error::ProtocolError;

/// Classification of a completed simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOutcome {
    /// Both parties produced their output.
    Complete,
    /// At least one party failed with a typed [`ProtocolError`] — the
    /// acceptable way to lose against a cut link.
    TypedFailure,
    /// At least one party thread panicked. Never acceptable.
    Panicked,
}

/// Results of one simulated two-party run.
#[derive(Debug)]
pub struct SimTwoPartyRun<SO, RO> {
    /// Sender party's result.
    pub sender: Result<SO, ProtocolError>,
    /// Receiver party's result.
    pub receiver: Result<RO, ProtocolError>,
    /// Protocol-layer traffic as seen from the sender's endpoint.
    pub sender_traffic: TrafficStats,
    /// Protocol-layer traffic as seen from the receiver's endpoint.
    pub receiver_traffic: TrafficStats,
    /// When the link delivered every frame, in virtual time.
    pub trace: SimTrace,
}

impl<SO, RO> SimTwoPartyRun<SO, RO> {
    /// Classifies the run (see [`SimOutcome`]).
    pub fn outcome(&self) -> SimOutcome {
        let panicked = |e: &ProtocolError| matches!(e, ProtocolError::PartyPanicked { .. });
        match (&self.sender, &self.receiver) {
            (Ok(_), Ok(_)) => SimOutcome::Complete,
            (Err(e), _) if panicked(e) => SimOutcome::Panicked,
            (_, Err(e)) if panicked(e) => SimOutcome::Panicked,
            _ => SimOutcome::TypedFailure,
        }
    }

    /// Total protocol-layer traffic in bits (the paper's §6.1 unit).
    pub fn total_bits(&self) -> u64 {
        (self.sender_traffic.bytes_sent() + self.receiver_traffic.bytes_sent()) * 8
    }
}

/// Runs `sender` and `receiver` concurrently over a freshly seeded
/// simulated link.
///
/// Each closure receives its endpoint wrapped as
/// `CountingTransport<SimEndpoint>`, with protocol-layer byte accounting
/// on top. A panic in either party becomes
/// [`ProtocolError::PartyPanicked`] for that party; nothing is propagated
/// as a harness-level error, so the caller always gets traffic and trace
/// back even from a failed run.
pub fn run_two_party_sim<SO, RO>(
    config: SimConfig,
    plan: &FaultPlan,
    sender: impl FnOnce(&mut dyn Transport) -> Result<SO, ProtocolError> + Send,
    receiver: impl FnOnce(&mut dyn Transport) -> Result<RO, ProtocolError> + Send,
) -> SimTwoPartyRun<SO, RO>
where
    SO: Send,
    RO: Send,
{
    let (s_end, r_end, trace_handle) = sim_pair(config, plan);
    let (mut s_transport, sender_traffic) = CountingTransport::new(s_end);
    let (mut r_transport, receiver_traffic) = CountingTransport::new(r_end);

    let (sender_result, receiver_result) = std::thread::scope(|scope| {
        let s_handle = scope.spawn(move || {
            let result = sender(&mut s_transport);
            // Close the endpoint the instant the party is done (whether
            // it succeeded or not): a peer still waiting then sees
            // `Closed` instead of a deadlock.
            drop(s_transport);
            result
        });
        let r_handle = scope.spawn(move || {
            let result = receiver(&mut r_transport);
            drop(r_transport);
            result
        });
        (
            s_handle
                .join()
                .unwrap_or_else(|_| Err(ProtocolError::PartyPanicked { party: "sender" })),
            r_handle
                .join()
                .unwrap_or_else(|_| Err(ProtocolError::PartyPanicked { party: "receiver" })),
        )
    });

    SimTwoPartyRun {
        sender: sender_result,
        receiver: receiver_result,
        sender_traffic,
        receiver_traffic,
        trace: trace_handle.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minshare_net::simnet::{Cut, Side};
    use minshare_net::NetError;

    #[test]
    fn perfect_link_run_collects_everything() {
        let run = run_two_party_sim(
            SimConfig::default(),
            &FaultPlan::perfect(),
            |t| {
                t.send(b"hello")?;
                Ok(t.recv()?.len())
            },
            |t| {
                let got = t.recv()?;
                t.send(&[0u8; 3])?;
                Ok(got)
            },
        );
        assert_eq!(run.outcome(), SimOutcome::Complete);
        assert_eq!(run.sender.unwrap(), 3);
        assert_eq!(run.receiver.unwrap(), b"hello");
        // Payload bytes only: the link adds no framing of its own.
        assert_eq!(run.sender_traffic.bytes_sent(), 5);
        assert_eq!(run.receiver_traffic.bytes_sent(), 3);
        assert!(!run.trace.is_empty());
    }

    #[test]
    fn panic_is_confined_to_the_panicking_party() {
        let run = run_two_party_sim(
            SimConfig::default(),
            &FaultPlan::perfect(),
            |_t| -> Result<(), ProtocolError> { panic!("boom") },
            |t| -> Result<Vec<u8>, ProtocolError> { Ok(t.recv()?) },
        );
        assert_eq!(run.outcome(), SimOutcome::Panicked);
        assert_eq!(
            run.sender.unwrap_err(),
            ProtocolError::PartyPanicked { party: "sender" }
        );
        // The receiver observes the closed link as a typed error.
        assert!(matches!(run.receiver, Err(ProtocolError::Net(_))));
    }

    #[test]
    fn total_loss_is_a_typed_failure() {
        // The sender's direction is cut at its first frame: nothing it
        // sends arrives, and the receiver sees the reset.
        let plan = FaultPlan {
            cut: Some(Cut {
                from: Side::A,
                at_frame: 0,
            }),
            ..FaultPlan::perfect()
        };
        let run = run_two_party_sim(
            SimConfig::default(),
            &plan,
            |t| {
                t.send(b"into the void")?;
                Ok(())
            },
            |t| -> Result<Vec<u8>, ProtocolError> { Ok(t.recv()?) },
        );
        assert_eq!(run.outcome(), SimOutcome::TypedFailure);
        assert!(run.sender.is_ok());
        assert!(matches!(
            run.receiver,
            Err(ProtocolError::Net(NetError::Closed))
        ));
    }

    #[test]
    fn same_seed_reproduces_the_trace() {
        let plan = FaultPlan::from_seed(7);
        let go = || {
            run_two_party_sim(
                SimConfig::default(),
                &plan,
                |t| {
                    for i in 0..8u8 {
                        t.send(&[i; 32])?;
                    }
                    Ok(())
                },
                |t| {
                    let mut total = 0usize;
                    for _ in 0..8 {
                        total += t.recv()?.len();
                    }
                    Ok(total)
                },
            )
        };
        let (r1, r2) = (go(), go());
        assert_eq!(r1.trace.digest(), r2.trace.digest());
        assert_eq!(format!("{:?}", r1.sender), format!("{:?}", r2.sender));
        assert_eq!(format!("{:?}", r1.receiver), format!("{:?}", r2.receiver));
    }
}
