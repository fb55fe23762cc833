//! Input preparation shared by all four protocols: deduplication, hashing
//! into the group, and the collision check of §3.2.2.

use std::collections::BTreeSet;

use minshare_bignum::UBig;
use minshare_crypto::QrGroup;

use crate::error::ProtocolError;
use crate::stats::OpCounters;

/// A party's prepared input: each **distinct** value paired with its hash
/// `h(v) ∈ QR_p`.
#[derive(Debug, Clone)]
pub struct PreparedSet {
    /// `(value, h(value))`, one entry per distinct value, in value order.
    pub entries: Vec<(Vec<u8>, UBig)>,
}

impl PreparedSet {
    /// Number of distinct values — the paper's `|V|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the input was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Deduplicates `values` (the paper's `V_S`/`V_R` are sets, §2.2.1),
/// hashes each into the group, and performs the paper's collision check:
/// sort the hashes and look for duplicates. Counts one `Ch` per distinct
/// value in `ops`.
///
/// Registered as a hash-class sanitizer in the analyzer's taint
/// registry (`HASH_SANITIZER_FNS`): its output is `HASHED`, which is
/// still wire-forbidden — WIRE01 requires a subsequent encrypt-class
/// call before a send. Rename it and the registry entry must move too.
pub fn prepare_set(
    group: &QrGroup,
    values: &[Vec<u8>],
    ops: &mut OpCounters,
) -> Result<PreparedSet, ProtocolError> {
    let distinct: BTreeSet<&Vec<u8>> = values.iter().collect();
    let mut entries = Vec::with_capacity(distinct.len());
    for v in distinct {
        let h = group.hash_to_group(v);
        ops.hashes += 1;
        entries.push((v.clone(), h));
    }
    // Collision check (paper §3.2.2): sort hashes, adjacent equal = crash.
    let mut hashes: Vec<&UBig> = entries.iter().map(|(_, h)| h).collect();
    hashes.sort();
    if hashes.windows(2).any(|w| w[0] == w[1]) {
        return Err(ProtocolError::HashCollision);
    }
    Ok(PreparedSet { entries })
}

/// Hashes a **multiset** (duplicates preserved) for the equijoin-size
/// protocol of §5.2. The collision check still applies to *distinct*
/// values only.
pub fn prepare_multiset(
    group: &QrGroup,
    values: &[Vec<u8>],
    ops: &mut OpCounters,
) -> Result<Vec<(Vec<u8>, UBig)>, ProtocolError> {
    // Hash distinct values once (both for cost parity with the paper —
    // hashing is per value — and to detect collisions), then fan out.
    let prepared = prepare_set(group, values, ops)?;
    let lookup: std::collections::BTreeMap<&Vec<u8>, &UBig> =
        prepared.entries.iter().map(|(v, h)| (v, h)).collect();
    Ok(values
        .iter()
        .map(|v| {
            let h = match lookup.get(v) {
                Some(h) => (*h).clone(),
                // Unreachable: prepare_set hashed every distinct value of
                // `values`. Recompute defensively rather than panic.
                None => group.hash_to_group(v),
            };
            (v.clone(), h)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minshare_crypto::QrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(3);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    #[test]
    fn dedupes_and_counts_hashes() {
        let g = group();
        let mut ops = OpCounters::default();
        let values = vec![b"a".to_vec(), b"b".to_vec(), b"a".to_vec()];
        let prepared = prepare_set(&g, &values, &mut ops).unwrap();
        assert_eq!(prepared.len(), 2);
        assert_eq!(ops.hashes, 2);
    }

    #[test]
    fn entries_are_value_sorted_and_hashed() {
        let g = group();
        let mut ops = OpCounters::default();
        let values = vec![b"z".to_vec(), b"a".to_vec()];
        let prepared = prepare_set(&g, &values, &mut ops).unwrap();
        assert_eq!(prepared.entries[0].0, b"a");
        assert_eq!(prepared.entries[1].0, b"z");
        assert_eq!(prepared.entries[0].1, g.hash_to_group(b"a"));
    }

    #[test]
    fn multiset_preserves_duplicates() {
        let g = group();
        let mut ops = OpCounters::default();
        let values = vec![b"a".to_vec(), b"b".to_vec(), b"a".to_vec()];
        let prepared = prepare_multiset(&g, &values, &mut ops).unwrap();
        assert_eq!(prepared.len(), 3);
        // Hash computed once per distinct value.
        assert_eq!(ops.hashes, 2);
        assert_eq!(prepared[0].1, prepared[2].1);
    }

    #[test]
    fn empty_input() {
        let g = group();
        let mut ops = OpCounters::default();
        assert!(prepare_set(&g, &[], &mut ops).unwrap().is_empty());
        assert!(prepare_multiset(&g, &[], &mut ops).unwrap().is_empty());
    }
}
