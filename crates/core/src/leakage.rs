//! Clear-text characterization of the §5.2 equijoin-size leak.
//!
//! §5.2 states exactly what the equijoin-size protocol reveals beyond the
//! join size: partition each side's multiset by duplicate count
//! (`V(d)` = values occurring `d` times); then `R` learns
//! `|V_R(d) ∩ V_S(d')|` for every `(d, d')`. This module computes that
//! quantity directly from the inputs, so tests and the E13 experiment can
//! verify the protocol leaks **exactly** this much — no more, no less.
//!
//! Sharding ([`crate::shard`], `B > 1`) adds one further disclosure,
//! characterized here the same way: each party learns the *per-bucket*
//! sizes of the other's set (`B` numbers summing to the total the
//! unsharded protocol already reveals), and for the -size variants each
//! counted match is additionally localized to its bucket — the global
//! leak matrix splits into `B` per-bucket matrices that sum back to the
//! §5.2 matrix cell for cell ([`bucketed_class_intersections`]). Both
//! functions take the bucket assignment as a closure (in practice
//! [`crate::shard::value_bucket`] under the session's scheme) so they
//! stay crypto-free and exact.

use std::collections::BTreeMap;

/// Partition of a multiset by duplicate count: `d → set of values with
/// exactly d occurrences`.
pub fn duplicate_partition(values: &[Vec<u8>]) -> BTreeMap<u64, Vec<Vec<u8>>> {
    let mut counts: BTreeMap<&Vec<u8>, u64> = BTreeMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut partition: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
    for (v, d) in counts {
        partition.entry(d).or_default().push(v.clone());
    }
    partition
}

/// The §5.2 leak matrix computed in the clear:
/// `(d, d') → |V_R(d) ∩ V_S(d')|`. Cells with value 0 are omitted.
pub fn expected_class_intersections(
    receiver_values: &[Vec<u8>],
    sender_values: &[Vec<u8>],
) -> BTreeMap<(u64, u64), u64> {
    let r_part = duplicate_partition(receiver_values);
    let s_part = duplicate_partition(sender_values);
    let mut matrix = BTreeMap::new();
    for (d_r, r_vals) in &r_part {
        let r_set: std::collections::BTreeSet<&Vec<u8>> = r_vals.iter().collect();
        for (d_s, s_vals) in &s_part {
            let common = s_vals.iter().filter(|v| r_set.contains(v)).count() as u64;
            if common > 0 {
                matrix.insert((*d_r, *d_s), common);
            }
        }
    }
    matrix
}

/// How identifying the leak is: the fraction of matched values `R` can
/// *uniquely* identify from the class matrix. A value is pinned down when
/// its receiver-side class `V_R(d)` contains exactly one value that
/// matched (i.e. the matrix row sums for `d` equal 1 and `|V_R(d)| = 1`,
/// or every member of the class matched).
///
/// Two boundary cases from the paper: all duplicate counts equal — `R`
/// learns only the intersection size (identifiability only when *all or
/// none* of a class matched); all counts distinct — `R` learns the exact
/// intersection.
pub fn identifiable_match_fraction(receiver_values: &[Vec<u8>], sender_values: &[Vec<u8>]) -> f64 {
    let r_part = duplicate_partition(receiver_values);
    let s_counts = duplicate_partition(sender_values);
    // Flatten sender counts: value → duplicate count.
    let mut s_dup: BTreeMap<&Vec<u8>, u64> = BTreeMap::new();
    for (d, vals) in &s_counts {
        for v in vals {
            s_dup.insert(v, *d);
        }
    }
    let mut matched_total = 0u64;
    let mut identifiable = 0u64;
    for r_vals in r_part.values() {
        // Within one receiver class, group matches by sender class.
        let mut per_sender_class: BTreeMap<u64, u64> = BTreeMap::new();
        for v in r_vals {
            if let Some(d_s) = s_dup.get(v) {
                *per_sender_class.entry(*d_s).or_insert(0) += 1;
            }
        }
        let class_size = r_vals.len() as u64;
        for m in per_sender_class.into_values() {
            matched_total += m;
            // R knows m of the class_size values in this receiver class
            // matched this sender class; each is identified iff the
            // candidate pool has exactly m members (all matched) — then
            // there is no ambiguity.
            if m == class_size {
                identifiable += m;
            }
        }
    }
    if matched_total == 0 {
        0.0
    } else {
        identifiable as f64 / matched_total as f64
    }
}

/// What a sharded run discloses about one party's *set*: the number of
/// distinct values per bucket. `out[b]` is `|{v : assign(v) = b}|` after
/// deduplication; the entries sum to the distinct-set size the unsharded
/// protocols already reveal, so the sharding delta is exactly this
/// partition of a known total into `B` parts.
pub fn bucket_size_disclosure(
    values: &[Vec<u8>],
    shards: u32,
    assign: &dyn Fn(&[u8]) -> u32,
) -> Vec<u64> {
    let shards = shards.max(1) as usize;
    let mut sizes = vec![0u64; shards];
    let distinct: std::collections::BTreeSet<&Vec<u8>> = values.iter().collect();
    for v in distinct {
        let b = (assign(v) as usize).min(shards - 1);
        if let Some(slot) = sizes.get_mut(b) {
            *slot += 1;
        }
    }
    sizes
}

/// The multiset analogue of [`bucket_size_disclosure`]: per-bucket
/// occurrence counts, summing to `|values|`. This is what each party of
/// a sharded equijoin-size run learns about the other's multiset shape.
pub fn bucket_multiset_disclosure(
    values: &[Vec<u8>],
    shards: u32,
    assign: &dyn Fn(&[u8]) -> u32,
) -> Vec<u64> {
    let shards = shards.max(1) as usize;
    let mut sizes = vec![0u64; shards];
    for v in values {
        let b = (assign(v) as usize).min(shards - 1);
        if let Some(slot) = sizes.get_mut(b) {
            *slot += 1;
        }
    }
    sizes
}

/// The §5.2 leak matrix of a *sharded* equijoin-size run: one matrix per
/// bucket, restricted to values assigned there. Duplicate counts stay
/// global (all occurrences of a value share its bucket), so summing the
/// per-bucket matrices cell for cell reproduces
/// [`expected_class_intersections`] exactly — sharding refines the §5.2
/// leak by bucket without inventing new classes.
pub fn bucketed_class_intersections(
    receiver_values: &[Vec<u8>],
    sender_values: &[Vec<u8>],
    shards: u32,
    assign: &dyn Fn(&[u8]) -> u32,
) -> Vec<BTreeMap<(u64, u64), u64>> {
    let shards = shards.max(1);
    let split = |values: &[Vec<u8>]| -> Vec<Vec<Vec<u8>>> {
        let mut per: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards as usize];
        for v in values {
            let b = (assign(v) as usize).min(shards as usize - 1);
            if let Some(bucket) = per.get_mut(b) {
                bucket.push(v.clone());
            }
        }
        per
    };
    split(receiver_values)
        .into_iter()
        .zip(split(sender_values))
        .map(|(vr_b, vs_b)| expected_class_intersections(&vr_b, &vs_b))
        .collect()
}

/// Sums per-bucket leak matrices cell for cell — the inverse direction
/// of [`bucketed_class_intersections`]'s refinement.
pub fn merge_class_intersections(
    buckets: &[BTreeMap<(u64, u64), u64>],
) -> BTreeMap<(u64, u64), u64> {
    let mut total: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for m in buckets {
        for (cell, n) in m {
            *total.entry(*cell).or_insert(0) += n;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_values(strs: &[&str]) -> Vec<Vec<u8>> {
        strs.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    #[test]
    fn partition_by_duplicates() {
        let p = duplicate_partition(&to_values(&["a", "a", "b", "c", "c", "c"]));
        assert_eq!(p[&1], to_values(&["b"]));
        assert_eq!(p[&2], to_values(&["a"]));
        assert_eq!(p[&3], to_values(&["c"]));
    }

    #[test]
    fn matrix_counts_cross_class_matches() {
        let vr = to_values(&["a", "b", "b"]); // a×1, b×2
        let vs = to_values(&["a", "a", "b", "b", "b"]); // a×2, b×3
        let m = expected_class_intersections(&vr, &vs);
        assert_eq!(m[&(1, 2)], 1);
        assert_eq!(m[&(2, 3)], 1);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn uniform_duplicates_leak_only_size() {
        // All counts 1 → single cell (1,1) with the intersection size.
        let vr = to_values(&["a", "b", "c"]);
        let vs = to_values(&["b", "c", "d"]);
        let m = expected_class_intersections(&vr, &vs);
        assert_eq!(m.len(), 1);
        assert_eq!(m[&(1, 1)], 2);
        // Identifiability: 2 of 3 receiver values matched — ambiguous.
        assert!(identifiable_match_fraction(&vr, &vs) < 1.0);
    }

    #[test]
    fn distinct_duplicate_counts_fully_identify() {
        // Every value has a unique duplicate count → R pinpoints matches.
        let vr = to_values(&["a", "b", "b", "c", "c", "c"]);
        let vs = to_values(&["a", "b", "b", "x"]);
        assert_eq!(identifiable_match_fraction(&vr, &vs), 1.0);
    }

    #[test]
    fn empty_inputs() {
        assert!(expected_class_intersections(&[], &[]).is_empty());
        assert_eq!(identifiable_match_fraction(&[], &[]), 0.0);
    }

    /// A deterministic stand-in for `shard::value_bucket`: any pure
    /// function of the value works identically for the composition laws.
    fn assign(v: &[u8]) -> u32 {
        v.iter().map(|&b| u32::from(b)).sum::<u32>() % 3
    }

    #[test]
    fn bucket_sizes_partition_the_known_totals() {
        let vals = to_values(&["a", "a", "b", "c", "d", "e", "e", "e"]);
        let set_sizes = bucket_size_disclosure(&vals, 3, &assign);
        assert_eq!(set_sizes.len(), 3);
        assert_eq!(set_sizes.iter().sum::<u64>(), 5); // distinct values
        let multi_sizes = bucket_multiset_disclosure(&vals, 3, &assign);
        assert_eq!(multi_sizes.iter().sum::<u64>(), vals.len() as u64);
    }

    #[test]
    fn bucketed_matrices_sum_to_the_global_matrix() {
        let vr = to_values(&["a", "b", "b", "c", "d", "d", "d", "e"]);
        let vs = to_values(&["a", "a", "b", "c", "c", "e", "x", "x"]);
        let per_bucket = bucketed_class_intersections(&vr, &vs, 3, &assign);
        assert_eq!(per_bucket.len(), 3);
        assert_eq!(
            merge_class_intersections(&per_bucket),
            expected_class_intersections(&vr, &vs)
        );
    }

    #[test]
    fn single_bucket_matches_unsharded_leak() {
        let vr = to_values(&["a", "b", "b"]);
        let vs = to_values(&["a", "b", "b", "c"]);
        let per_bucket = bucketed_class_intersections(&vr, &vs, 1, &|_| 0);
        assert_eq!(per_bucket.len(), 1);
        assert_eq!(per_bucket[0], expected_class_intersections(&vr, &vs));
        assert_eq!(
            bucket_size_disclosure(&vr, 1, &|_| 0),
            vec![2] // distinct values
        );
    }
}
