//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * Montgomery sliding-window exponentiation vs. naive binary
//!   square-and-multiply (why the `Ce` engine is built the way it is),
//! * the paper-exact multiplicative payload cipher vs. the hybrid
//!   (what the substitution costs),
//! * exact intersection vs. the §7 Bloom-prefiltered hybrid (the
//!   efficiency/disclosure tradeoff, measured).
//!
//! The paper's `P`-processor parallel encryption assumption is timed
//! through `EncryptPool` by the repo benchmark (`benchmark/`), as
//! `crypto.pool_inline_us_per_item`, `crypto.pool_2w_us_per_item` and
//! `crypto.pool_speedup` at the 1024-bit group.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use minshare::prelude::*;
use minshare::tradeoff;
use minshare_bench::{bench_group, overlapping_sets, random_exponent};
use minshare_crypto::kcipher::{ExtCipher, HybridCipher, MulBlockCipher};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn montgomery_vs_binary(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/modexp_strategy");
    group.sample_size(10);
    let g = bench_group(1024);
    let mut rng = StdRng::seed_from_u64(1);
    let base = g.sample_element(&mut rng);
    let exp = random_exponent(&g, 2);
    group.bench_function("montgomery_window", |b| {
        b.iter(|| black_box(g.pow(black_box(&base), black_box(&exp))))
    });
    group.bench_function("binary_division_reduce", |b| {
        b.iter(|| black_box(base.modpow_binary(black_box(&exp), g.modulus())))
    });
    group.finish();
}

fn payload_cipher_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/payload_cipher");
    let g = bench_group(1024);
    let mut rng = StdRng::seed_from_u64(4);
    let kappa = g.sample_element(&mut rng);
    let mul = MulBlockCipher::new(g.clone()).expect("group");
    let hybrid = HybridCipher::new(g.clone(), mul.max_plaintext_len());
    let payload = vec![0x42u8; mul.max_plaintext_len()];
    group.bench_function("mulblock_paper_exact", |b| {
        b.iter(|| black_box(mul.encrypt(&kappa, black_box(&payload)).unwrap()))
    });
    group.bench_function("hybrid_chacha_hmac", |b| {
        b.iter(|| black_box(hybrid.encrypt(&kappa, black_box(&payload)).unwrap()))
    });
    group.finish();
}

fn exact_vs_bloom_hybrid(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/bloom_tradeoff");
    group.sample_size(10);
    let g = bench_group(128);
    // Big sender set, small intersection: the hybrid's favorable regime.
    let (vs, vr) = overlapping_sets(200, 10, 5);

    group.bench_function("exact_intersection", |b| {
        b.iter(|| {
            run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(1);
                    intersection::run_sender(t, &g, &vs, &mut rng)
                },
                |t| {
                    let mut rng = StdRng::seed_from_u64(2);
                    intersection::run_receiver(t, &g, &vr, &mut rng)
                },
            )
            .expect("run")
        })
    });

    group.bench_function("bloom_hybrid_exact", |b| {
        b.iter(|| {
            run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(1);
                    tradeoff::hybrid_intersection::run_sender(t, &g, &vs, &mut rng)
                },
                |t| {
                    let mut rng = StdRng::seed_from_u64(2);
                    tradeoff::hybrid_intersection::run_receiver(t, &g, &vr, 0.01, &mut rng)
                },
            )
            .expect("run")
        })
    });

    group.bench_function("bloom_approximate_size", |b| {
        b.iter(|| {
            run_two_party(
                |t| tradeoff::approximate_size::run_sender(t, &vs),
                |t| tradeoff::approximate_size::run_receiver(t, &vr, 0.01),
            )
            .expect("run")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    montgomery_vs_binary,
    payload_cipher_choice,
    exact_vs_bloom_hybrid
);
criterion_main!(benches);
