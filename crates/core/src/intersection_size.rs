//! The intersection-size protocol of §5.1.
//!
//! Identical to the intersection protocol except step 4(b): `S` returns
//! the re-encryptions `Z_R = f_eS(Y_R)` **lexicographically reordered**,
//! destroying the pairing between elements of `Y_R` and their
//! re-encryptions. `R` can then count `|Z_S ∩ Z_R| = |V_S ∩ V_R|` but
//! cannot tell *which* of its values matched (Statements 5–6).

use std::collections::BTreeSet;

use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_net::Transport;
use rand::Rng;

use crate::error::ProtocolError;
use crate::intersection::expect_codewords;
use crate::prepare::prepare_set;
use crate::stats::OpCounters;
use crate::wire::{require_strictly_sorted, Message};

/// What the sender learns: `|V_R|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionSizeSenderOutput {
    /// The receiver's set size.
    pub peer_set_size: usize,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// What the receiver learns: `|V_S ∩ V_R|` and `|V_S|` — but not which
/// values matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionSizeReceiverOutput {
    /// `|V_S ∩ V_R|`.
    pub intersection_size: usize,
    /// `|V_S|`.
    pub peer_set_size: usize,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// Runs the sender (`S`) side.
pub fn run_sender<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<IntersectionSizeSenderOutput, ProtocolError> {
    let mut ops = OpCounters::default();

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

    // Step 3: receive Y_R.
    let yr = expect_codewords(transport, group)?;
    require_strictly_sorted(&yr, "Y_R")?;
    let peer_set_size = yr.len();

    // Step 4(a): ship Y_S.
    transport.send(&Message::Codewords(ys).encode(group)?)?;

    // Step 4(b): re-encrypt Y_R and *reorder lexicographically* — this is
    // the one deliberate difference from the intersection protocol.
    let mut zr: Vec<UBig> = yr
        .iter()
        .map(|y| {
            ops.encryptions += 1;
            group.encrypt(&key, y)
        })
        .collect();
    zr.sort();
    transport.send(&Message::Codewords(zr).encode(group)?)?;

    crate::stats::emit_ops(
        "intersection_size",
        "sender_done",
        &ops,
        prepared.entries.len(),
        peer_set_size,
    );
    Ok(IntersectionSizeSenderOutput { peer_set_size, ops })
}

/// Runs the receiver (`R`) side.
pub fn run_receiver<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<IntersectionSizeReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();

    let prepared = prepare_set(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let mut yr: Vec<UBig> = prepared
        .entries
        .iter()
        .map(|(_, h)| {
            ops.encryptions += 1;
            group.encrypt(&key, h)
        })
        .collect();
    yr.sort();
    let yr_len = yr.len();
    transport.send(&Message::Codewords(yr).encode(group)?)?;

    // Step 4(a): Y_S.
    let ys = expect_codewords(transport, group)?;
    require_strictly_sorted(&ys, "Y_S")?;
    let peer_set_size = ys.len();

    // Step 4(b): Z_R, sorted.
    let zr = expect_codewords(transport, group)?;
    require_strictly_sorted(&zr, "Z_R")?;
    if zr.len() != yr_len {
        return Err(ProtocolError::LengthMismatch {
            expected: yr_len,
            got: zr.len(),
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

    // Step 6: |Z_S ∩ Z_R|.
    let intersection_size = zr.iter().filter(|z| zs.contains(z)).count();

    crate::stats::emit_ops(
        "intersection_size",
        "receiver_done",
        &ops,
        yr_len,
        peer_set_size,
    );
    Ok(IntersectionSizeReceiverOutput {
        intersection_size,
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

    fn run(
        vs: &[&str],
        vr: &[&str],
    ) -> (IntersectionSizeSenderOutput, IntersectionSizeReceiverOutput) {
        let g = group();
        let vs = to_values(vs);
        let vr = to_values(vr);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(300);
                run_sender(t, &group(), &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(400);
                run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        (run.sender, run.receiver)
    }

    #[test]
    fn counts_without_revealing_members() {
        let (s, r) = run(&["a", "b", "c"], &["b", "c", "d", "e"]);
        assert_eq!(r.intersection_size, 2);
        assert_eq!(r.peer_set_size, 3);
        assert_eq!(s.peer_set_size, 4);
    }

    #[test]
    fn extremes() {
        let (_, r) = run(&["a", "b"], &["c"]);
        assert_eq!(r.intersection_size, 0);
        let (_, r) = run(&["a", "b"], &["a", "b"]);
        assert_eq!(r.intersection_size, 2);
        let (_, r) = run(&[], &["a"]);
        assert_eq!(r.intersection_size, 0);
    }

    #[test]
    fn cost_matches_intersection_protocol() {
        // §6.1: the size protocol has the same computation cost as the
        // intersection protocol.
        let (s, r) = run(&["a", "b", "c"], &["b", "c"]);
        let (vs, vr) = (3u64, 2u64);
        assert_eq!(s.ops.total_ce() + r.ops.total_ce(), 2 * (vs + vr));
        assert_eq!(s.ops.hashes + r.ops.hashes, vs + vr);
    }
}
