//! Statistical checks on what actually crosses the wire.
//!
//! The security proofs (Statements 2, 4, 6) say each party's view is a
//! list of group elements indistinguishable from uniform. That is a
//! computational statement we cannot test directly — but its *statistical
//! shadow* is testable on a small group: over many protocol runs with
//! fresh keys, the codewords `S` receives in `Y_R` must be spread over
//! `QR_p` like uniform draws, with no bias toward the hash values of the
//! receiver's actual inputs.

use std::collections::BTreeMap;

use minshare::intersection;
use minshare::wire::Message;
use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_net::{duplex_pair, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// p = 2879 (q = 1439): small enough to enumerate the whole group.
fn tiny_group() -> QrGroup {
    QrGroup::new_unchecked(UBig::from(2879u64)).expect("safe prime")
}

/// Collects the raw `Y_R` frame a sender would see, across `runs`
/// protocol executions with fresh receiver keys.
fn collect_yr_codewords(runs: usize) -> Vec<u64> {
    let g = tiny_group();
    let vr: Vec<Vec<u8>> = (0..8u32).map(|i| format!("v{i}").into_bytes()).collect();
    let mut seen = Vec::new();
    for run_idx in 0..runs {
        let (mut fake_sender, mut r_end) = duplex_pair();
        let g2 = g.clone();
        let vr2 = vr.clone();
        let handle = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(run_idx as u64);
            // The receiver will fail when we hang up; that is fine — we
            // only need its first message.
            let _ = intersection::run_receiver(&mut r_end, &g2, &vr2, &mut rng);
        });
        let frame = fake_sender.recv().expect("Y_R frame");
        drop(fake_sender);
        handle.join().expect("receiver thread");
        match Message::decode(&frame, &g).expect("decode") {
            Message::Codewords(list) => {
                seen.extend(list.into_iter().map(|x| x.to_u64().expect("small group")))
            }
            other => panic!("unexpected message {other:?}"),
        }
    }
    seen
}

#[test]
fn yr_view_is_spread_over_the_whole_group() {
    // 300 runs × 8 values = 2400 draws over 1439 residues. Uniform draws
    // would hit ≈ 1160 distinct residues (coupon collector); a leaky
    // encoding that pinned each value to few codewords would hit ≤ ~8·300
    // duplicates concentrated on ≤ a few dozen residues.
    let draws = collect_yr_codewords(300);
    assert_eq!(draws.len(), 2400);
    let distinct: std::collections::BTreeSet<&u64> = draws.iter().collect();
    assert!(
        distinct.len() > 900,
        "only {} distinct codewords across 2400 draws — view looks non-uniform",
        distinct.len()
    );
}

#[test]
fn yr_view_chi_square_against_uniform() {
    // Bin the 2400 draws into 16 equal-probability buckets of QR_p and
    // chi-square against uniform. With 15 degrees of freedom the 99.9th
    // percentile is ≈ 37.7; allow generous slack (runs are seeded, so
    // this is deterministic — no flake risk).
    let g = tiny_group();
    // Enumerate the residues in order to build equal-size buckets.
    let mut residues: Vec<u64> = (1u64..2879)
        .filter(|&x| g.is_member(&UBig::from(x)))
        .collect();
    residues.sort();
    let bucket_of: BTreeMap<u64, usize> = residues
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, i * 16 / residues.len()))
        .collect();

    let draws = collect_yr_codewords(300);
    let mut counts = [0f64; 16];
    for d in &draws {
        counts[bucket_of[d]] += 1.0;
    }
    let expected = draws.len() as f64 / 16.0;
    let chi2: f64 = counts
        .iter()
        .map(|c| (c - expected) * (c - expected) / expected)
        .sum();
    assert!(chi2 < 45.0, "chi-square {chi2:.1} too high — view biased");
}

#[test]
fn yr_never_contains_raw_hashes() {
    // The broken §3.1 protocol ships h(v) directly; the fixed protocol
    // must never ship a bare hash (that would let S dictionary-attack).
    let g = tiny_group();
    let vr: Vec<Vec<u8>> = (0..8u32).map(|i| format!("v{i}").into_bytes()).collect();
    let hashes: std::collections::BTreeSet<u64> = vr
        .iter()
        .map(|v| g.hash_to_group(v).to_u64().unwrap())
        .collect();
    let draws = collect_yr_codewords(200);
    let collisions = draws.iter().filter(|d| hashes.contains(d)).count();
    // A uniform draw hits the 8 hash values with probability 8/1439 per
    // draw → expect ≈ 8.9 of 1600; systematic leakage would give ≫ that.
    assert!(
        collisions < 40,
        "{collisions} of {} codewords equal raw hashes — encryption layer missing?",
        draws.len()
    );
}

#[test]
fn fresh_keys_give_fresh_views() {
    // Two runs over identical inputs must produce disjoint-looking views
    // (same Y_R twice would mean key reuse).
    let a = collect_yr_codewords(1);
    let b = collect_yr_codewords(2)[8..].to_vec(); // second run's batch
    assert_ne!(a, b, "two runs produced identical encrypted views");
}

#[test]
fn view_size_leaks_exactly_the_cardinality() {
    // |Y_R| must equal |V_R| — no padding, no truncation (the paper
    // declares the size disclosure; we verify it is exactly that).
    let draws = collect_yr_codewords(5);
    assert_eq!(draws.len(), 5 * 8);
}

/// Statement 2's simulator for `R`'s view, implemented literally: the
/// simulated `Y_S` contains `f_ẽS(h(v))` for `v` in the intersection plus
/// `|V_S − V_R|` random group elements, and the simulated step-4(b) reply
/// re-encrypts `Y_R` with the same simulated key `ẽS`.
mod simulator {
    use super::*;
    use minshare_bignum::random::random_range;

    pub struct SimulatedView {
        pub ys: Vec<UBig>,
        pub reencrypted_yr: Vec<UBig>,
    }

    /// Builds the simulation from exactly the inputs Statement 2 allows:
    /// `V_R`, `V_S ∩ V_R`, `|V_S|`, the hash, and `R`'s own key.
    pub fn simulate_r_view(
        g: &QrGroup,
        vr_sorted_yr: &[UBig], // R's own Y_R (R knows it)
        intersection_hashes: &[UBig],
        vs_size: usize,
        seed: u64,
    ) -> SimulatedView {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim_key = g.gen_key(&mut rng);
        let mut ys: Vec<UBig> = intersection_hashes
            .iter()
            .map(|h| g.encrypt(&sim_key, h))
            .collect();
        while ys.len() < vs_size {
            // A fresh random group element for each v ∈ V_S − V_R.
            let t = random_range(&mut rng, &UBig::one(), g.modulus());
            ys.push(g.mul(&t, &t));
        }
        ys.sort();
        ys.dedup();
        let reencrypted_yr = vr_sorted_yr
            .iter()
            .map(|y| g.encrypt(&sim_key, y))
            .collect();
        SimulatedView { ys, reencrypted_yr }
    }
}

#[test]
fn statement2_simulator_is_output_consistent() {
    // Running R's final protocol steps on the SIMULATED view must produce
    // exactly the right intersection — the functional half of the
    // indistinguishability argument.
    let g = tiny_group();
    let mut rng = StdRng::seed_from_u64(0x51f);
    let vr: Vec<Vec<u8>> = (0..10u32).map(|i| format!("v{i}").into_bytes()).collect();
    let intersection: Vec<&Vec<u8>> = vr.iter().take(4).collect(); // v0..v3 match

    // R's own side: key, Y_R sorted with value tracking.
    let e_r = g.gen_key(&mut rng);
    let mut encrypted: Vec<(UBig, Vec<u8>)> = vr
        .iter()
        .map(|v| (g.encrypt(&e_r, &g.hash_to_group(v)), v.clone()))
        .collect();
    encrypted.sort_by(|a, b| a.0.cmp(&b.0));
    let yr: Vec<UBig> = encrypted.iter().map(|(y, _)| y.clone()).collect();

    let intersection_hashes: Vec<UBig> = intersection.iter().map(|v| g.hash_to_group(v)).collect();
    let sim = simulator::simulate_r_view(&g, &yr, &intersection_hashes, 7, 0xabc);

    // R's steps 5-6 on the simulated view.
    let zs: std::collections::BTreeSet<UBig> = sim.ys.iter().map(|y| g.encrypt(&e_r, y)).collect();
    let mut recovered: Vec<Vec<u8>> = encrypted
        .iter()
        .zip(&sim.reencrypted_yr)
        .filter(|(_, fes_y)| zs.contains(*fes_y))
        .map(|((_, v), _)| v.clone())
        .collect();
    recovered.sort();
    let mut expect: Vec<Vec<u8>> = intersection.iter().map(|v| (*v).clone()).collect();
    expect.sort();
    assert_eq!(
        recovered, expect,
        "simulated view must decode to the true answer"
    );
    assert_eq!(sim.ys.len(), 7, "simulated |Y_S| = |V_S|");
}

#[test]
fn statement2_simulator_marginals_look_like_real_views() {
    // The statistical half: the simulated Y_S codewords are spread over
    // QR_p like real ones (both ≈ uniform on the 1439 residues).
    let g = tiny_group();
    let mut draws_real = Vec::new();
    let mut draws_sim = Vec::new();
    for run in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(run);
        // Real Y_S: 8 hashed+encrypted values under a fresh key.
        let key = g.gen_key(&mut rng);
        for i in 0..8u32 {
            let h = g.hash_to_group(format!("r{run}-{i}").as_bytes());
            draws_real.push(g.encrypt(&key, &h).to_u64().unwrap());
        }
        // Simulated Y_S with a half-and-half intersection split.
        let hashes: Vec<UBig> = (0..4u32)
            .map(|i| g.hash_to_group(format!("s{run}-{i}").as_bytes()))
            .collect();
        let sim = simulator::simulate_r_view(&g, &[], &hashes, 8, run ^ 0xdead);
        draws_sim.extend(sim.ys.iter().map(|x| x.to_u64().unwrap()));
    }
    for (label, draws) in [("real", &draws_real), ("simulated", &draws_sim)] {
        let distinct: std::collections::BTreeSet<&u64> = draws.iter().collect();
        assert!(
            distinct.len() as f64 > draws.len() as f64 * 0.4,
            "{label}: only {} distinct of {}",
            distinct.len(),
            draws.len()
        );
    }
}
