//! The intersection protocol of §3.3.
//!
//! Outcome (Statements 1–2): the receiver `R` learns `V_S ∩ V_R` and
//! `|V_S|`; the sender `S` learns `|V_R|`; neither learns anything else
//! (semi-honest model, random-oracle hash, DDH).
//!
//! Message flow (with the §6.1 wire optimization — `S` answers `Y_R` in
//! the received order instead of retransmitting each `y`):
//!
//! ```text
//!   R                                    S
//!   Y_R = sort(f_eR(h(V_R)))  ────────▶
//!                             ◀──────── Y_S = sort(f_eS(h(V_S)))
//!                             ◀──────── f_eS(Y_R)   (in Y_R order)
//!   Z_S = f_eR(Y_S);
//!   v ∈ answer ⟺ f_eS(f_eR(h(v))) ∈ Z_S
//! ```

use std::collections::BTreeSet;

use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_net::Transport;
use rand::Rng;

use crate::error::ProtocolError;
use crate::prepare::prepare_set;
use crate::stats::OpCounters;
use crate::wire::{require_strictly_sorted, Message};

/// What the sender learns: `|V_R|` (plus its own operation counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionSenderOutput {
    /// The receiver's (deduplicated) set size.
    pub peer_set_size: usize,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// What the receiver learns: the intersection and `|V_S|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionReceiverOutput {
    /// `V_S ∩ V_R`, in ascending value order.
    pub intersection: Vec<Vec<u8>>,
    /// The sender's (deduplicated) set size.
    pub peer_set_size: usize,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// Receives one message and expects it to be `Codewords`.
pub(crate) fn expect_codewords<T: Transport + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
) -> Result<Vec<UBig>, ProtocolError> {
    match Message::decode(&transport.recv()?, group)? {
        Message::Codewords(list) => Ok(list),
        other => Err(ProtocolError::UnexpectedMessage {
            expected: "codewords",
            got: other.kind(),
        }),
    }
}

/// Runs the sender (`S`) side over `transport`.
///
/// `values` is `V_S` (duplicates are removed, matching the paper's
/// definition of `V_S` as a set).
pub fn run_sender<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<IntersectionSenderOutput, ProtocolError> {
    let mut ops = OpCounters::default();

    // Step 1-2: hash and encrypt V_S under a fresh key e_S.
    let prepared = prepare_set(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let mut ys: Vec<UBig> = prepared
        .entries
        .iter()
        .map(|(_, h)| {
            ops.encryptions += 1;
            group.encrypt(&key, h)
        })
        .collect();
    ys.sort();

    // Step 3: receive Y_R (sorted, duplicate-free).
    let yr = expect_codewords(transport, group)?;
    require_strictly_sorted(&yr, "Y_R")?;
    let peer_set_size = yr.len();

    // Step 4(a): ship Y_S.
    transport.send(&Message::Codewords(ys).encode(group)?)?;

    // Step 4(b): encrypt each y ∈ Y_R with e_S, preserving order.
    let reencrypted: Vec<UBig> = yr
        .iter()
        .map(|y| {
            ops.encryptions += 1;
            group.encrypt(&key, y)
        })
        .collect();
    transport.send(&Message::Codewords(reencrypted).encode(group)?)?;

    crate::stats::emit_ops(
        "intersection",
        "sender_done",
        &ops,
        prepared.entries.len(),
        peer_set_size,
    );
    Ok(IntersectionSenderOutput { peer_set_size, ops })
}

/// Runs the receiver (`R`) side over `transport`.
pub fn run_receiver<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<IntersectionReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();

    // Step 1-2: hash and encrypt V_R under a fresh key e_R.
    let prepared = prepare_set(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let mut encrypted: Vec<(UBig, Vec<u8>)> = prepared
        .entries
        .into_iter()
        .map(|(v, h)| {
            ops.encryptions += 1;
            (group.encrypt(&key, &h), v)
        })
        .collect();
    // Step 3: sort lexicographically (footnote 3: never send in V_R order)
    // and remember which value sits where.
    encrypted.sort_by(|a, b| a.0.cmp(&b.0));
    let yr: Vec<UBig> = encrypted.iter().map(|(y, _)| y.clone()).collect();
    transport.send(&Message::Codewords(yr).encode(group)?)?;

    // Step 4(a): receive Y_S.
    let ys = expect_codewords(transport, group)?;
    require_strictly_sorted(&ys, "Y_S")?;
    let peer_set_size = ys.len();

    // Step 4(b): receive f_eS(Y_R), aligned with our sorted Y_R.
    let reencrypted = expect_codewords(transport, group)?;
    if reencrypted.len() != encrypted.len() {
        return Err(ProtocolError::LengthMismatch {
            expected: encrypted.len(),
            got: reencrypted.len(),
        });
    }

    // Step 5: Z_S = f_eR(Y_S).
    let zs: BTreeSet<UBig> = ys
        .iter()
        .map(|y| {
            ops.encryptions += 1;
            group.encrypt(&key, y)
        })
        .collect();

    // Step 6: v is in the intersection iff f_eS(f_eR(h(v))) ∈ Z_S.
    let own_set_size = encrypted.len();
    let mut intersection: Vec<Vec<u8>> = encrypted
        .into_iter()
        .zip(reencrypted)
        .filter(|(_, fes_y)| zs.contains(fes_y))
        .map(|((_, v), _)| v)
        .collect();
    intersection.sort();

    crate::stats::emit_ops(
        "intersection",
        "receiver_done",
        &ops,
        own_set_size,
        peer_set_size,
    );
    Ok(IntersectionReceiverOutput {
        intersection,
        peer_set_size,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_two_party;
    use minshare_crypto::QrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(21);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    fn to_values(strs: &[&str]) -> Vec<Vec<u8>> {
        strs.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn run(vs: &[&str], vr: &[&str]) -> (IntersectionSenderOutput, IntersectionReceiverOutput) {
        let g = group();
        let vs = to_values(vs);
        let vr = to_values(vr);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(100);
                run_sender(t, &group(), &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(200);
                run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        (run.sender, run.receiver)
    }

    #[test]
    fn basic_intersection() {
        let (s, r) = run(&["a", "b", "c"], &["b", "c", "d"]);
        assert_eq!(r.intersection, to_values(&["b", "c"]));
        assert_eq!(r.peer_set_size, 3);
        assert_eq!(s.peer_set_size, 3);
    }

    #[test]
    fn disjoint_sets() {
        let (_, r) = run(&["a", "b"], &["c", "d"]);
        assert!(r.intersection.is_empty());
    }

    #[test]
    fn identical_sets() {
        let (_, r) = run(&["x", "y", "z"], &["x", "y", "z"]);
        assert_eq!(r.intersection, to_values(&["x", "y", "z"]));
    }

    #[test]
    fn empty_sides() {
        let (s, r) = run(&[], &["a"]);
        assert!(r.intersection.is_empty());
        assert_eq!(r.peer_set_size, 0);
        assert_eq!(s.peer_set_size, 1);
        let (s, r) = run(&["a"], &[]);
        assert!(r.intersection.is_empty());
        assert_eq!(s.peer_set_size, 0);
        assert_eq!(r.peer_set_size, 1);
    }

    #[test]
    fn duplicates_in_input_are_deduplicated() {
        let (s, r) = run(&["a", "a", "b"], &["a", "b", "b"]);
        assert_eq!(r.intersection, to_values(&["a", "b"]));
        assert_eq!(s.peer_set_size, 2);
        assert_eq!(r.peer_set_size, 2);
    }

    #[test]
    fn op_counts_match_section_6_1() {
        // Computation: (Ch + 2Ce)(|V_S| + |V_R|) — i.e. one hash per value
        // and a combined 2(|V_S|+|V_R|) exponentiations.
        let (s, r) = run(&["a", "b", "c", "d"], &["c", "d", "e"]);
        let vs = 4u64;
        let vr = 3u64;
        assert_eq!(s.ops.hashes + r.ops.hashes, vs + vr);
        assert_eq!(
            s.ops.total_ce() + r.ops.total_ce(),
            2 * (vs + vr),
            "2Ce(|VS|+|VR|)"
        );
        // Breakdown: S encrypts V_S and Y_R; R encrypts V_R and Y_S.
        assert_eq!(s.ops.encryptions, vs + vr);
        assert_eq!(r.ops.encryptions, vr + vs);
        assert_eq!(s.ops.decryptions + r.ops.decryptions, 0);
    }
}
