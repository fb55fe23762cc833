//! Reconciling *measured* protocol runs against the §6.1 predictions.
//!
//! The trace layer (`minshare-trace`) counts what a run actually did —
//! `Ce` operations from the engines' op counters, wire bytes and frames
//! from the counting transport. This module holds those measurements up
//! against the paper's formulas:
//!
//! * **Computation is exact.** The engines charge §6.1 units directly,
//!   so total measured `Ce` must equal [`Protocol::ce_ops`] to the
//!   operation — any drift is a bug, not noise.
//! * **Communication has a documented envelope.** The formulas count
//!   payload bits only (`(|V_S|+2|V_R|)·k` etc.); the wire adds a 5-byte
//!   header per frame and, for pipelined streams, a 10-byte chunked
//!   envelope header. Measured bytes must therefore lie in
//!   `[predicted, predicted + ENVELOPE_BYTES_PER_FRAME · frames]`.
//!
//! The report serializes to JSON for the profiler (`bench_protocols
//! --profile`) and the CLI's `--trace` summary line.

use serde::{Deserialize, Serialize};

use crate::constants::CostConstants;
use crate::section6::Protocol;

/// Upper bound on framing overhead per wire frame: a plain frame costs a
/// 5-byte `[tag, count: u32]` header, a chunked stream additionally one
/// 10-byte envelope header — so 10 bytes per observed frame bounds both.
pub const ENVELOPE_BYTES_PER_FRAME: u64 = 10;

/// Which side of the protocol a measurement was taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Party {
    /// `S` — contributes `V_S`, learns only `|V_R|`.
    Sender,
    /// `R` — contributes `V_R`, learns the result.
    Receiver,
}

impl Party {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Party::Sender => "sender",
            Party::Receiver => "receiver",
        }
    }
}

/// The §6.1 `Ce` total split to one party.
///
/// Intersection and both size protocols: each party encrypts its own set
/// and re-encrypts (or double-encrypts) the peer's, so each side spends
/// `|V_S| + |V_R|` of the `2(|V_S| + |V_R|)` total. The equijoin is
/// asymmetric: `S` answers `Y_R` under two keys and builds the payload
/// table (`2|V_S| + 2|V_R|`), while `R` encrypts `V_R` once and strips
/// its layer from both halves of each answer (`3|V_R|`).
pub fn party_ce_ops(protocol: Protocol, party: Party, vs: u64, vr: u64) -> u64 {
    match (protocol, party) {
        (Protocol::Equijoin, Party::Sender) => 2 * vs + 2 * vr,
        (Protocol::Equijoin, Party::Receiver) => 3 * vr,
        (_, _) => vs + vr,
    }
}

/// What the trace layer measured for one full protocol run (both
/// directions of traffic, both parties' operation counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasuredRun {
    /// Which protocol ran.
    pub protocol: Protocol,
    /// `|V_S|` (sender set size after dedup).
    pub vs: u64,
    /// `|V_R|`.
    pub vr: u64,
    /// Actual codeword width in bits (`8·⌈k/8⌉` for the group in use).
    pub k_bits: u64,
    /// Actual encrypted-payload width in bits (equijoin only; the wire
    /// cost of one `K(κ(v), ext(v))` entry including its length prefix).
    pub k_prime_bits: u64,
    /// Total `Ce` operations both parties charged (§6.1 units).
    pub measured_ce: u64,
    /// Total wire bytes, both directions.
    pub measured_bytes: u64,
    /// Total frames that produced those bytes.
    pub frames: u64,
}

/// A measured run held against the §6.1 predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reconciliation {
    /// The measurements being judged.
    pub run: MeasuredRun,
    /// [`Protocol::ce_ops`] at the run's sizes.
    pub predicted_ce: u64,
    /// §6.1 communication bits / 8, evaluated at the run's actual
    /// codeword and payload widths.
    pub predicted_bytes: u64,
    /// Measured minus predicted bytes (framing overhead).
    pub overhead_bytes: u64,
    /// Exponentiation count matches the formula exactly.
    pub ce_exact: bool,
    /// Byte count lies within the documented framing envelope.
    pub bytes_within_envelope: bool,
}

/// Judges one measured run against the model.
pub fn reconcile(run: MeasuredRun) -> Reconciliation {
    let consts = CostConstants {
        k_bits: run.k_bits,
        k_prime_bits: run.k_prime_bits,
        ..CostConstants::paper()
    };
    let predicted_ce = run.protocol.ce_ops(run.vs, run.vr);
    let predicted_bits = run.protocol.communication_bits(run.vs, run.vr, &consts);
    let predicted_bytes = predicted_bits.div_ceil(8);
    let ce_exact = run.measured_ce == predicted_ce;
    let bytes_within_envelope = run.measured_bytes >= predicted_bytes
        && run.measured_bytes - predicted_bytes <= ENVELOPE_BYTES_PER_FRAME * run.frames;
    Reconciliation {
        run,
        predicted_ce,
        predicted_bytes,
        overhead_bytes: run.measured_bytes.saturating_sub(predicted_bytes),
        ce_exact,
        bytes_within_envelope,
    }
}

impl Reconciliation {
    /// Both checks pass.
    pub fn ok(&self) -> bool {
        self.ce_exact && self.bytes_within_envelope
    }

    /// One-line JSON object (no external JSON dependency in this
    /// workspace; every field is a number, bool, or fixed identifier, so
    /// no escaping is needed).
    pub fn to_json(&self) -> String {
        let r = &self.run;
        format!(
            concat!(
                "{{\"protocol\":\"{}\",\"vs\":{},\"vr\":{},",
                "\"k_bits\":{},\"k_prime_bits\":{},",
                "\"measured_ce\":{},\"predicted_ce\":{},\"ce_exact\":{},",
                "\"measured_bytes\":{},\"predicted_bytes\":{},",
                "\"overhead_bytes\":{},\"frames\":{},",
                "\"bytes_within_envelope\":{},\"ok\":{}}}"
            ),
            protocol_slug(r.protocol),
            r.vs,
            r.vr,
            r.k_bits,
            r.k_prime_bits,
            r.measured_ce,
            self.predicted_ce,
            self.ce_exact,
            r.measured_bytes,
            self.predicted_bytes,
            self.overhead_bytes,
            r.frames,
            self.bytes_within_envelope,
            self.ok(),
        )
    }
}

/// One bucket of a sharded run, as reported by the per-bucket trace
/// events (`shard` scope): the bucket's set sizes and the `Ce` total
/// both parties charged while processing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketTrace {
    /// `|V_S ∩ bucket|`.
    pub vs: u64,
    /// `|V_R ∩ bucket|`.
    pub vr: u64,
    /// Total `Ce` operations both parties charged for this bucket.
    pub ce: u64,
}

/// A sharded run held against the model: the per-bucket linearity check
/// plus the aggregate [`Reconciliation`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedReconciliation {
    /// The aggregate judgment at the summed sizes.
    pub total: Reconciliation,
    /// `protocol.ce_ops(vs_b, vr_b)` per bucket.
    pub predicted_bucket_ce: Vec<u64>,
    /// Every bucket's measured `Ce` equals its own §6.1 formula — the
    /// linearity that makes per-bucket traces sum to the paper's totals.
    pub buckets_exact: bool,
}

/// Judges a sharded run: every §6.1 `Ce` formula is linear in
/// `(|V_S|, |V_R|)`, so each bucket must satisfy the formula *at its own
/// sizes* and the bucket sums must reconcile exactly like an unsharded
/// run of the total sizes. The byte envelope is unchanged — the 6-byte
/// shard hello and any empty-bucket frames both fit under the same
/// [`ENVELOPE_BYTES_PER_FRAME`] bound per observed frame.
pub fn reconcile_sharded(
    protocol: Protocol,
    k_bits: u64,
    k_prime_bits: u64,
    buckets: &[BucketTrace],
    measured_bytes: u64,
    frames: u64,
) -> ShardedReconciliation {
    let mut predicted_bucket_ce = Vec::with_capacity(buckets.len());
    let mut buckets_exact = true;
    let (mut vs, mut vr, mut ce) = (0u64, 0u64, 0u64);
    for b in buckets {
        let predicted = protocol.ce_ops(b.vs, b.vr);
        buckets_exact &= b.ce == predicted;
        predicted_bucket_ce.push(predicted);
        vs += b.vs;
        vr += b.vr;
        ce += b.ce;
    }
    let total = reconcile(MeasuredRun {
        protocol,
        vs,
        vr,
        k_bits,
        k_prime_bits,
        measured_ce: ce,
        measured_bytes,
        frames,
    });
    ShardedReconciliation {
        total,
        predicted_bucket_ce,
        buckets_exact,
    }
}

impl ShardedReconciliation {
    /// Aggregate and per-bucket checks all pass.
    pub fn ok(&self) -> bool {
        self.buckets_exact && self.total.ok()
    }

    /// One-line JSON object extending [`Reconciliation::to_json`] with
    /// the bucket verdict.
    pub fn to_json(&self) -> String {
        let inner = self.total.to_json();
        let body = inner.strip_suffix('}').unwrap_or(&inner);
        format!(
            "{},\"buckets\":{},\"buckets_exact\":{},\"sharded_ok\":{}}}",
            body,
            self.predicted_bucket_ce.len(),
            self.buckets_exact,
            self.ok(),
        )
    }
}

/// Machine-friendly protocol name (no spaces, unlike
/// [`Protocol::name`]).
pub fn protocol_slug(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Intersection => "intersection",
        Protocol::Equijoin => "equijoin",
        Protocol::IntersectionSize => "intersection_size",
        Protocol::EquijoinSize => "equijoin_size",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_splits_sum_to_totals() {
        for protocol in Protocol::all() {
            for (vs, vr) in [(0u64, 0u64), (1, 1), (7, 3), (100, 250)] {
                let split = party_ce_ops(protocol, Party::Sender, vs, vr)
                    + party_ce_ops(protocol, Party::Receiver, vs, vr);
                assert_eq!(split, protocol.ce_ops(vs, vr), "{protocol:?} {vs},{vr}");
            }
        }
    }

    #[test]
    fn exact_run_reconciles() {
        // Intersection of 7 vs 3 at 64-bit codewords: predicted
        // (7 + 2·3)·64 bits = 104 bytes over 3 frames.
        let run = MeasuredRun {
            protocol: Protocol::Intersection,
            vs: 7,
            vr: 3,
            k_bits: 64,
            k_prime_bits: 0,
            measured_ce: 20,
            measured_bytes: 104 + 3 * 5,
            frames: 3,
        };
        let r = reconcile(run);
        assert!(r.ce_exact);
        assert!(r.bytes_within_envelope);
        assert!(r.ok());
        assert_eq!(r.predicted_ce, 20);
        assert_eq!(r.predicted_bytes, 104);
        assert_eq!(r.overhead_bytes, 15);
    }

    #[test]
    fn wrong_ce_fails() {
        let run = MeasuredRun {
            protocol: Protocol::IntersectionSize,
            vs: 4,
            vr: 4,
            k_bits: 64,
            k_prime_bits: 0,
            measured_ce: 15, // should be 16
            measured_bytes: (4 + 8) * 8 + 15,
            frames: 3,
        };
        let r = reconcile(run);
        assert!(!r.ce_exact);
        assert!(!r.ok());
    }

    #[test]
    fn bytes_outside_envelope_fail_both_ways() {
        let base = MeasuredRun {
            protocol: Protocol::Intersection,
            vs: 2,
            vr: 2,
            k_bits: 64,
            k_prime_bits: 0,
            measured_ce: 8,
            measured_bytes: 0,
            frames: 3,
        };
        let predicted = (2 + 4) * 8u64; // 48 bytes
                                        // Under the prediction: a frame went missing.
        let r = reconcile(MeasuredRun {
            measured_bytes: predicted - 1,
            ..base
        });
        assert!(!r.bytes_within_envelope);
        // Over the envelope: unaccounted traffic.
        let r = reconcile(MeasuredRun {
            measured_bytes: predicted + ENVELOPE_BYTES_PER_FRAME * 3 + 1,
            ..base
        });
        assert!(!r.bytes_within_envelope);
        // At the exact envelope edge: fine.
        let r = reconcile(MeasuredRun {
            measured_bytes: predicted + ENVELOPE_BYTES_PER_FRAME * 3,
            ..base
        });
        assert!(r.bytes_within_envelope);
    }

    #[test]
    fn equijoin_uses_k_prime() {
        let run = MeasuredRun {
            protocol: Protocol::Equijoin,
            vs: 3,
            vr: 2,
            k_bits: 64,
            k_prime_bits: 80,
            measured_ce: 2 * 3 + 5 * 2,
            measured_bytes: ((3 + 6) * 64 + 3 * 80) / 8 + 3 * 5,
            frames: 3,
        };
        let r = reconcile(run);
        assert!(r.ok(), "{r:?}");
    }

    #[test]
    fn sharded_buckets_sum_to_the_global_reconciliation() {
        // Intersection over 3 buckets: (vs, vr) = (3,1), (2,4), (2,1);
        // per-bucket ce = vs_b + vr_b doubled across both parties.
        let buckets = [
            BucketTrace {
                vs: 3,
                vr: 1,
                ce: 8,
            },
            BucketTrace {
                vs: 2,
                vr: 4,
                ce: 12,
            },
            BucketTrace {
                vs: 2,
                vr: 1,
                ce: 6,
            },
        ];
        // Totals: vs=7, vr=6 → predicted (7 + 12)·64 bits = 152 bytes.
        let r = reconcile_sharded(Protocol::Intersection, 64, 0, &buckets, 152 + 20, 4);
        assert!(r.buckets_exact);
        assert!(r.total.ce_exact);
        assert!(r.ok(), "{r:?}");
        assert_eq!(r.predicted_bucket_ce, vec![8, 12, 6]);
        let json = r.to_json();
        assert!(json.contains("\"buckets\":3"));
        assert!(json.contains("\"sharded_ok\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn one_bad_bucket_fails_even_when_totals_balance() {
        // Ce shifted between buckets: totals still sum to the formula,
        // but bucket-level linearity is violated.
        let buckets = [
            BucketTrace {
                vs: 2,
                vr: 2,
                ce: 10,
            },
            BucketTrace {
                vs: 2,
                vr: 2,
                ce: 6,
            },
        ];
        let r = reconcile_sharded(Protocol::Intersection, 64, 0, &buckets, 8 * 12, 4);
        assert!(r.total.ce_exact, "totals were constructed to balance");
        assert!(!r.buckets_exact);
        assert!(!r.ok());
        assert!(r.to_json().contains("\"buckets_exact\":false"));
    }

    #[test]
    fn json_shape_is_stable() {
        let run = MeasuredRun {
            protocol: Protocol::Equijoin,
            vs: 1,
            vr: 1,
            k_bits: 64,
            k_prime_bits: 80,
            measured_ce: 7,
            measured_bytes: 47,
            frames: 3,
        };
        let json = reconcile(run).to_json();
        assert!(json.starts_with("{\"protocol\":\"equijoin\","));
        assert!(json.contains("\"ce_exact\":true"));
        assert!(json.ends_with('}'));
        // Balanced braces and quotes (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }
}
