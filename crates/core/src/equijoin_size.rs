//! The equijoin-size protocol of §5.2.
//!
//! The intersection-size protocol run on **multisets**: `V_R` and `V_S`
//! keep their duplicates, and in the final step `R` computes
//! `|T_S ⋈ T_R| = Σ_v dup_R(v) · dup_S(v)` by multiplying the duplicate
//! counts of matching double-encrypted codewords.
//!
//! The paper is explicit that this protocol leaks more than the join size:
//! each side learns the other's duplicate distribution, and `R` learns
//! `|V_R(d) ∩ V_S(d')|` for every pair of duplicate classes — computed
//! here and returned as [`EquijoinSizeReceiverOutput::class_intersections`]
//! so callers (and the E13 experiment) can audit the leak precisely.

use std::collections::BTreeMap;

use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_net::Transport;
use rand::Rng;

use crate::error::ProtocolError;
use crate::intersection::expect_codewords;
use crate::prepare::prepare_multiset;
use crate::stats::OpCounters;
use crate::wire::{require_sorted, Message};

/// Multiset duplicate distribution: duplicate count `d` → number of
/// distinct values occurring exactly `d` times.
pub type DuplicateDistribution = BTreeMap<u64, u64>;

/// Computes the duplicate distribution of a list of codewords (or any
/// ordered values).
fn distribution_of<T: Ord>(items: &[T]) -> DuplicateDistribution {
    let mut per_value: BTreeMap<&T, u64> = BTreeMap::new();
    for item in items {
        *per_value.entry(item).or_insert(0) += 1;
    }
    let mut dist = DuplicateDistribution::new();
    for (_, d) in per_value {
        *dist.entry(d).or_insert(0) += 1;
    }
    dist
}

/// What the sender learns: `|V_R|` (with duplicates) and the duplicate
/// distribution of `T_R.A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquijoinSizeSenderOutput {
    /// Total occurrences in the receiver's multiset.
    pub peer_multiset_size: usize,
    /// The receiver's duplicate distribution (leaked by the multiset
    /// `Y_R`).
    pub peer_duplicate_distribution: DuplicateDistribution,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// What the receiver learns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquijoinSizeReceiverOutput {
    /// `|T_S ⋈ T_R|` on the join attribute.
    pub join_size: u64,
    /// Total occurrences in the sender's multiset.
    pub peer_multiset_size: usize,
    /// The sender's duplicate distribution (leaked by `Y_S`).
    pub peer_duplicate_distribution: DuplicateDistribution,
    /// The §5.2 leak: `(d, d') → |V_R(d) ∩ V_S(d')|` — how many values
    /// with `d` duplicates on `R`'s side matched values with `d'`
    /// duplicates on `S`'s side.
    pub class_intersections: BTreeMap<(u64, u64), u64>,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// Runs the sender (`S`) side on the multiset `values` (duplicates kept).
pub fn run_sender<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<EquijoinSizeSenderOutput, ProtocolError> {
    let mut ops = OpCounters::default();

    let prepared = prepare_multiset(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    // Encrypt each occurrence. Distinct values get distinct ciphertexts;
    // duplicates stay duplicates (f is deterministic).
    let mut ys: Vec<UBig> = prepared
        .iter()
        .map(|(_, h)| {
            ops.encryptions += 1;
            group.encrypt(&key, h)
        })
        .collect();
    ys.sort();

    // Receive the multiset Y_R.
    let yr = expect_codewords(transport, group)?;
    require_sorted(&yr, "Y_R")?;
    let peer_multiset_size = yr.len();
    let peer_duplicate_distribution = distribution_of(&yr);

    // Ship Y_S.
    transport.send(&Message::Codewords(ys).encode(group)?)?;

    // Re-encrypt Y_R, reorder, ship Z_R.
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
        "equijoin_size",
        "sender_done",
        &ops,
        prepared.len(),
        peer_multiset_size,
    );
    Ok(EquijoinSizeSenderOutput {
        peer_multiset_size,
        peer_duplicate_distribution,
        ops,
    })
}

/// Runs the receiver (`R`) side on the multiset `values`.
pub fn run_receiver<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<EquijoinSizeReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();

    let prepared = prepare_multiset(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let mut yr: Vec<UBig> = prepared
        .iter()
        .map(|(_, h)| {
            ops.encryptions += 1;
            group.encrypt(&key, h)
        })
        .collect();
    yr.sort();
    let yr_len = yr.len();
    transport.send(&Message::Codewords(yr).encode(group)?)?;

    // Y_S (multiset).
    let ys = expect_codewords(transport, group)?;
    require_sorted(&ys, "Y_S")?;
    let peer_multiset_size = ys.len();
    let peer_duplicate_distribution = distribution_of(&ys);

    // Z_R (multiset, sorted).
    let zr = expect_codewords(transport, group)?;
    require_sorted(&zr, "Z_R")?;
    if zr.len() != yr_len {
        return Err(ProtocolError::LengthMismatch {
            expected: yr_len,
            got: zr.len(),
        });
    }

    // Z_S = f_eR(Y_S), as a count map.
    let mut zs_counts: BTreeMap<UBig, u64> = BTreeMap::new();
    for y in &ys {
        ops.encryptions += 1;
        *zs_counts.entry(group.encrypt(&key, y)).or_insert(0) += 1;
    }
    let mut zr_counts: BTreeMap<UBig, u64> = BTreeMap::new();
    for z in &zr {
        *zr_counts.entry(z.clone()).or_insert(0) += 1;
    }

    // Join size = Σ over common codewords of dup_R · dup_S, and the
    // per-class leak matrix.
    let mut join_size = 0u64;
    let mut class_intersections: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (z, d_r) in &zr_counts {
        if let Some(d_s) = zs_counts.get(z) {
            join_size += d_r * d_s;
            *class_intersections.entry((*d_r, *d_s)).or_insert(0) += 1;
        }
    }

    crate::stats::emit_ops(
        "equijoin_size",
        "receiver_done",
        &ops,
        yr_len,
        peer_multiset_size,
    );
    Ok(EquijoinSizeReceiverOutput {
        join_size,
        peer_multiset_size,
        peer_duplicate_distribution,
        class_intersections,
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

    fn run(vs: &[&str], vr: &[&str]) -> (EquijoinSizeSenderOutput, EquijoinSizeReceiverOutput) {
        let g = group();
        let vs = to_values(vs);
        let vr = to_values(vr);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(700);
                run_sender(t, &group(), &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(800);
                run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        (run.sender, run.receiver)
    }

    /// Clear-text oracle: Σ_v dup_S(v) · dup_R(v).
    fn oracle(vs: &[&str], vr: &[&str]) -> u64 {
        let mut s_counts: BTreeMap<&str, u64> = BTreeMap::new();
        for v in vs {
            *s_counts.entry(v).or_insert(0) += 1;
        }
        let mut total = 0;
        let mut r_counts: BTreeMap<&str, u64> = BTreeMap::new();
        for v in vr {
            *r_counts.entry(v).or_insert(0) += 1;
        }
        for (v, d_r) in r_counts {
            total += d_r * s_counts.get(v).copied().unwrap_or(0);
        }
        total
    }

    #[test]
    fn join_size_with_duplicates() {
        let vs = ["a", "a", "b", "c", "c", "c"];
        let vr = ["a", "b", "b", "c"];
        let (_, r) = run(&vs, &vr);
        // a: 2·1, b: 1·2, c: 3·1 → 2 + 2 + 3 = 7.
        assert_eq!(r.join_size, 7);
        assert_eq!(r.join_size, oracle(&vs, &vr));
        assert_eq!(r.peer_multiset_size, 6);
    }

    #[test]
    fn no_duplicates_degenerates_to_intersection_size() {
        let (_, r) = run(&["a", "b", "c"], &["b", "c", "d"]);
        assert_eq!(r.join_size, 2);
        // With all duplicate counts equal to 1, the class matrix has a
        // single cell (1,1) — the protocol leaks only the intersection
        // size, exactly as §5.2 observes.
        assert_eq!(r.class_intersections.len(), 1);
        assert_eq!(r.class_intersections[&(1, 1)], 2);
    }

    #[test]
    fn duplicate_distributions_are_learned() {
        let (s, r) = run(&["x", "x", "x", "y"], &["p", "p", "q"]);
        // S sees R's distribution: one value ×2, one value ×1.
        assert_eq!(s.peer_duplicate_distribution[&2], 1);
        assert_eq!(s.peer_duplicate_distribution[&1], 1);
        // R sees S's distribution: one value ×3, one value ×1.
        assert_eq!(r.peer_duplicate_distribution[&3], 1);
        assert_eq!(r.peer_duplicate_distribution[&1], 1);
        assert_eq!(r.join_size, 0);
    }

    #[test]
    fn class_matrix_identifies_unique_duplicate_counts() {
        // §5.2's warning case: distinct duplicate counts per value let R
        // pinpoint which values matched.
        let vs = ["a", "a", "b", "b", "b"]; // a×2, b×3
        let vr = ["a", "b", "b"]; // a×1, b×2
        let (_, r) = run(&vs, &vr);
        assert_eq!(r.join_size, 2 + 3 * 2);
        assert_eq!(r.class_intersections[&(1, 2)], 1); // a
        assert_eq!(r.class_intersections[&(2, 3)], 1); // b
    }

    #[test]
    fn randomized_against_oracle() {
        let vocab = ["u", "v", "w", "x", "y", "z"];
        let mut rng = StdRng::seed_from_u64(9);
        use rand::RngExt as _;
        for _ in 0..5 {
            let vs: Vec<&str> = (0..rng.random_range(0..10usize))
                .map(|_| vocab[rng.random_range(0..vocab.len())])
                .collect();
            let vr: Vec<&str> = (0..rng.random_range(0..10usize))
                .map(|_| vocab[rng.random_range(0..vocab.len())])
                .collect();
            let (_, r) = run(&vs, &vr);
            assert_eq!(r.join_size, oracle(&vs, &vr), "vs={vs:?} vr={vr:?}");
        }
    }
}
