//! # minshare-bench
//!
//! Benchmark support: host calibration of the paper's cost units and
//! shared workload generators for the binaries in `src/bin`
//! (`paper_tables` regenerates every table and figure of the paper — see
//! DESIGN.md's experiment index E1–E17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use minshare_bignum::random::random_below;
use minshare_crypto::QrGroup;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measures `Ce` on this machine: seconds per full-width modular
/// exponentiation in the well-known safe-prime group of `bits` bits
/// (experiment E11; the paper's reference is 0.02 s at 1024 bits on a
/// 2001 Pentium III).
pub fn measure_ce(bits: u64, iterations: u32) -> f64 {
    let group = QrGroup::well_known(bits).expect("well-known group size");
    let mut rng = StdRng::seed_from_u64(0xce);
    let base = group.sample_element(&mut rng);
    let exp = random_below(&mut rng, group.order());
    // Warm-up.
    let mut sink = group.pow(&base, &exp);
    let start = Instant::now();
    for _ in 0..iterations {
        sink = group.pow(&sink, &exp);
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Keep the result alive so the loop cannot be optimized out.
    assert!(!sink.is_zero());
    elapsed / iterations as f64
}

/// Measures the per-gate garbled-evaluation cost `Cr` (seconds):
/// garbles and evaluates an equality circuit and divides by gate count.
pub fn measure_cr(iterations: u32) -> f64 {
    use minshare_circuits::comparator::{equality_circuit, to_bits};
    use minshare_circuits::garble::{evaluate, garble, Label};
    let w = 32;
    let circuit = equality_circuit(w);
    let mut rng = StdRng::seed_from_u64(0xc4);
    let garbling = garble(&circuit, &mut rng);
    let mut input = to_bits(0xdead_beef, w);
    input.extend(to_bits(0xdead_beef, w));
    let labels: Vec<Label> = input
        .iter()
        .enumerate()
        .map(|(i, &v)| garbling.input_label(i, v))
        .collect();
    let start = Instant::now();
    let mut acc = false;
    for _ in 0..iterations {
        let out = evaluate(&circuit, &garbling.tables, &labels).expect("valid garbling");
        acc ^= out[0];
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    // The paper charges 2 PRF calls per gate; we report per-gate seconds.
    elapsed / iterations as f64 / circuit.gate_count() as f64
}

/// Generates `n` distinct byte values, `overlap` of which are shared with
/// the returned second set of `m` values (workload generator for the
/// protocol benches).
pub fn overlapping_sets(n: usize, m: usize, overlap: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    assert!(overlap <= n.min(m));
    let value = |tag: &str, i: usize| format!("{tag}-{i}").into_bytes();
    let mut vs: Vec<Vec<u8>> = (0..overlap).map(|i| value("shared", i)).collect();
    vs.extend((0..n - overlap).map(|i| value("s-only", i)));
    let mut vr: Vec<Vec<u8>> = (0..overlap).map(|i| value("shared", i)).collect();
    vr.extend((0..m - overlap).map(|i| value("r-only", i)));
    (vs, vr)
}

/// A deterministic small group for protocol benchmarks where the group
/// size is not the variable under test.
pub fn bench_group(bits: u64) -> QrGroup {
    match bits {
        768 | 1024 | 1536 | 2048 => QrGroup::well_known(bits).expect("well-known"),
        _ => {
            let mut rng = StdRng::seed_from_u64(0xbe4c);
            QrGroup::generate(&mut rng, bits).expect("generated group")
        }
    }
}

/// Pretty-prints seconds-per-op with its ops-per-hour equivalent.
pub fn describe_rate(seconds_per_op: f64) -> String {
    format!(
        "{:.3} ms/op ({:.2e} ops/hour)",
        seconds_per_op * 1e3,
        3600.0 / seconds_per_op
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_sets_shapes() {
        let (vs, vr) = overlapping_sets(10, 7, 3);
        assert_eq!(vs.len(), 10);
        assert_eq!(vr.len(), 7);
        let vs_set: std::collections::HashSet<_> = vs.iter().collect();
        let shared = vr.iter().filter(|v| vs_set.contains(v)).count();
        assert_eq!(shared, 3);
        // All distinct within each set.
        assert_eq!(vs_set.len(), 10);
    }

    #[test]
    fn measure_ce_returns_positive() {
        let ce = measure_ce(768, 2);
        assert!(ce > 0.0 && ce < 10.0, "ce={ce}");
    }

    #[test]
    fn measure_cr_returns_positive() {
        let cr = measure_cr(3);
        assert!(cr > 0.0 && cr < 1.0, "cr={cr}");
    }

    #[test]
    fn bench_group_sizes() {
        assert_eq!(bench_group(768).codeword_bits(), 768);
        assert_eq!(bench_group(64).codeword_bits(), 64);
    }
}
