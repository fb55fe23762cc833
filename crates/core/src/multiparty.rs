//! N-party intersection size — the natural generalization of §5.1 that
//! the paper's two-party machinery makes possible.
//!
//! Commutative encryption composes: a value encrypted by *every* party's
//! key is the same element no matter the order the layers were applied.
//! So `N` parties arranged in a ring can compute `|V_0 ∩ … ∩ V_{N-1}|`:
//!
//! 1. Each party `P_i` hashes and encrypts its own set once and sends the
//!    sorted list to its right neighbor.
//! 2. For `N−1` hops, each party adds its own encryption layer to every
//!    list passing through, re-sorts (unlinking positions, exactly like
//!    the §5.1 reorder), and forwards.
//! 3. After `N−1` hops every list carries all `N` layers; the lists are
//!    forwarded to the designated *collector*, who counts the elements
//!    common to all `N` fully-encrypted lists.
//!
//! Disclosure (semi-honest, non-colluding): the collector learns the
//! intersection size and every `|V_i|`; each party learns the sizes of
//! the lists that transit through it. Collusion between parties adjacent
//! in the ring reveals more — the standard caveat for ring protocols,
//! inherited from the two-party multi-query caveat of §2.3.

use std::collections::BTreeMap;

use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_net::{duplex_pair, CountingTransport, TrafficStats, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::ProtocolError;
use crate::intersection::expect_codewords;
use crate::prepare::prepare_set;
use crate::stats::OpCounters;
use crate::wire::{require_strictly_sorted, Message};

/// A byte-counted in-memory link endpoint (orchestrator wiring).
type CountedLink = CountingTransport<minshare_net::duplex::DuplexEndpoint>;

/// Result of an N-party run, as seen by the collector (party 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipartyRun {
    /// `|V_0 ∩ V_1 ∩ … ∩ V_{N-1}|`.
    pub intersection_size: usize,
    /// Every party's (deduplicated) set size, in party order.
    pub set_sizes: Vec<usize>,
    /// Combined op counts across all parties.
    pub ops: OpCounters,
    /// Total bits moved across all ring links.
    pub total_bits: u64,
}

/// One party's worker: encrypt own set, then add a layer to each list
/// passing through for `hops` rounds, then forward the last list to the
/// collector (unless this party *is* the collector).
#[allow(clippy::too_many_arguments)]
fn party_worker(
    group: &QrGroup,
    index: usize,
    n_parties: usize,
    values: &[Vec<u8>],
    mut left: impl Transport,  // receive from left neighbor
    mut right: impl Transport, // send to right neighbor
    mut to_collector: impl Transport,
    seed: u64,
) -> Result<OpCounters, ProtocolError> {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9e37));
    let mut ops = OpCounters::default();
    let key = group.gen_key(&mut rng);

    // Round 0: own set, one layer, sorted, to the right.
    let prepared = prepare_set(group, values, &mut ops)?;
    let mut own: Vec<UBig> = prepared
        .entries
        .iter()
        .map(|(_, h)| {
            ops.encryptions += 1;
            group.encrypt(&key, h)
        })
        .collect();
    own.sort();
    right.send(&Message::Codewords(own).encode(group)?)?;

    // Rounds 1..N-1: add a layer to each transiting list and forward.
    // The list arriving at round N-1 is complete; it goes to the
    // collector instead of around the ring again.
    for hop in 1..n_parties {
        let incoming = expect_codewords(&mut left, group)?;
        require_strictly_sorted(&incoming, "transit list")?;
        let mut layered: Vec<UBig> = incoming
            .iter()
            .map(|y| {
                ops.encryptions += 1;
                group.encrypt(&key, y)
            })
            .collect();
        layered.sort();
        let frame = Message::Codewords(layered).encode(group)?;
        if hop == n_parties - 1 {
            // Fully encrypted: deliver to the collector. Every party
            // (including the collector itself) holds a collector link.
            to_collector.send(&frame)?;
        } else {
            right.send(&frame)?;
        }
    }
    Ok(ops)
}

/// Orchestrates an `N`-party intersection-size computation over in-memory
/// links, with party 0 as the collector. `sets[i]` is party `i`'s input.
///
/// Requires `N ≥ 2`.
pub fn multiparty_intersection_size(
    group: &QrGroup,
    sets: &[Vec<Vec<u8>>],
    seed: u64,
) -> Result<MultipartyRun, ProtocolError> {
    let n = sets.len();
    assert!(n >= 2, "need at least two parties");

    // Ring links i → i+1, plus a collector link for every party. Links
    // are handed to the workers by value (zip + rotate), so no slot can
    // be "unwired" — the invariant is structural, not asserted.
    let mut ring_tx: Vec<CountedLink> = Vec::new();
    let mut ring_rx: Vec<minshare_net::duplex::DuplexEndpoint> = Vec::new();
    let mut ring_stats: Vec<TrafficStats> = Vec::new();
    for _ in 0..n {
        let (tx, rx) = duplex_pair();
        let (tx, stats) = CountingTransport::new(tx);
        ring_tx.push(tx);
        ring_rx.push(rx);
        ring_stats.push(stats);
    }
    // The rx end of link i belongs to party i+1.
    ring_rx.rotate_right(1);
    let mut collector_tx: Vec<CountedLink> = Vec::new();
    let mut collector_rx = Vec::new();
    let mut collector_stats: Vec<TrafficStats> = Vec::new();
    for _ in 0..n {
        let (tx, rx) = duplex_pair();
        let (tx, stats) = CountingTransport::new(tx);
        collector_tx.push(tx);
        collector_rx.push(rx);
        collector_stats.push(stats);
    }

    let results =
        std::thread::scope(|scope| -> Result<Vec<OpCounters>, ProtocolError> {
            let mut handles = Vec::new();
            let links = ring_rx
                .into_iter()
                .zip(ring_tx)
                .zip(collector_tx)
                .enumerate();
            for ((i, ((left, right), to_collector)), values) in links.zip(sets.iter()) {
                handles.push(scope.spawn(move || {
                    party_worker(group, i, n, values, left, right, to_collector, seed)
                }));
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    h.join().map_err(|_| ProtocolError::PartyPanicked {
                        party: if i == 0 { "collector" } else { "party" },
                    })?
                })
                .collect()
        })?;

    // Gather the N fully-encrypted lists: one per collector link (the
    // list that started at party i+1 completes at party i and arrives on
    // party i's collector link — N lists in total).
    let mut final_lists: Vec<Vec<UBig>> = Vec::new();
    for mut rx in collector_rx {
        final_lists.push(expect_codewords(&mut rx, group)?);
    }
    debug_assert_eq!(final_lists.len(), n);
    // All lists share the same composite key, so equal values collide.
    let mut counts: BTreeMap<UBig, usize> = BTreeMap::new();
    for list in &final_lists {
        for x in list {
            *counts.entry(x.clone()).or_insert(0) += 1;
        }
    }
    let intersection_size = counts.values().filter(|&&c| c == n).count();

    let total_bits = ring_stats
        .iter()
        .chain(collector_stats.iter())
        .map(|s| s.bytes_sent() * 8)
        .sum();

    let mut ops = OpCounters::default();
    let mut set_sizes = Vec::with_capacity(n);
    for (i, partial) in results.into_iter().enumerate() {
        ops += partial;
        let distinct: std::collections::BTreeSet<&Vec<u8>> = sets[i].iter().collect();
        set_sizes.push(distinct.len());
    }

    Ok(MultipartyRun {
        intersection_size,
        set_sizes,
        ops,
        total_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minshare_crypto::QrGroup;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(0x3417);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    fn to_values(strs: &[&str]) -> Vec<Vec<u8>> {
        strs.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    #[test]
    fn two_parties_match_pairwise_protocol_semantics() {
        let g = group();
        let sets = vec![to_values(&["a", "b", "c"]), to_values(&["b", "c", "d"])];
        let run = multiparty_intersection_size(&g, &sets, 1).unwrap();
        assert_eq!(run.intersection_size, 2);
        assert_eq!(run.set_sizes, vec![3, 3]);
    }

    #[test]
    fn three_parties() {
        let g = group();
        let sets = vec![
            to_values(&["a", "b", "c", "d"]),
            to_values(&["b", "c", "d", "e"]),
            to_values(&["c", "d", "e", "f"]),
        ];
        let run = multiparty_intersection_size(&g, &sets, 2).unwrap();
        assert_eq!(run.intersection_size, 2); // c, d
                                              // Each of the 3 lists gets 3 layers: own (1) + 2 transits per
                                              // party → per party: |own| + |transit lists| encryptions. Total
                                              // Ce = Σ_i |V_i| · N = 12 · ... each list of 4 encrypted 3 times
                                              // → 36 encryptions.
        assert_eq!(run.ops.encryptions, 36);
        assert!(run.total_bits > 0);
    }

    #[test]
    fn five_parties_sparse_intersection() {
        let g = group();
        let mut sets = Vec::new();
        for i in 0..5u32 {
            // All parties share "common-0" and "common-1"; each has two
            // private values.
            sets.push(to_values(&[
                "common-0",
                "common-1",
                &format!("private-{i}-a"),
                &format!("private-{i}-b"),
            ]));
        }
        let run = multiparty_intersection_size(&g, &sets, 3).unwrap();
        assert_eq!(run.intersection_size, 2);
        assert_eq!(run.set_sizes, vec![4; 5]);
    }

    #[test]
    fn empty_party_empties_intersection() {
        let g = group();
        let sets = vec![
            to_values(&["a", "b"]),
            to_values(&[]),
            to_values(&["a", "b"]),
        ];
        let run = multiparty_intersection_size(&g, &sets, 4).unwrap();
        assert_eq!(run.intersection_size, 0);
        assert_eq!(run.set_sizes, vec![2, 0, 2]);
    }

    #[test]
    fn duplicates_deduplicated_per_party() {
        let g = group();
        let sets = vec![to_values(&["x", "x", "y"]), to_values(&["x", "y", "y"])];
        let run = multiparty_intersection_size(&g, &sets, 5).unwrap();
        assert_eq!(run.intersection_size, 2);
        assert_eq!(run.set_sizes, vec![2, 2]);
    }
}
