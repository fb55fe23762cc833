//! Throughput-overhaul benches: the Montgomery squaring kernel, sliding
//! vs. fixed-window exponentiation, `EncryptPool` scaling (§6.2's `P`
//! processors), and the chunk-pipelined protocol engines end to end.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minshare::prelude::*;
use minshare_bench::{bench_group, overlapping_sets};
use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::UBig;
use minshare_crypto::pool::EncryptPool;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic odd full-width modulus of `bits` bits (no primality
/// needed: the kernels only require oddness).
fn odd_modulus(bits: usize, seed: u64) -> UBig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = vec![0u8; bits / 8];
    rng.fill_bytes(&mut bytes);
    bytes[0] |= 0x80; // full width
    let last = bytes.len() - 1;
    bytes[last] |= 1; // odd
    UBig::from_be_bytes(&bytes)
}

fn random_below_modulus(n: &UBig, seed: u64) -> UBig {
    let mut rng = StdRng::seed_from_u64(seed);
    minshare_bignum::random::random_below(&mut rng, n)
}

/// Dedicated squaring kernel vs. the general multiply, in the hot
/// in-representation loop shape (`MontElem` ops, no conversions).
fn square_vs_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("mont_kernel");
    group.sample_size(20);
    for bits in [512usize, 1024] {
        let n = odd_modulus(bits, 0x5d);
        let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
        let a = ctx.lift(&random_below_modulus(&n, 1));
        group.bench_with_input(BenchmarkId::new("mul_elem", bits), &bits, |b, _| {
            b.iter(|| black_box(ctx.mul_elem(&a, &a)))
        });
        group.bench_with_input(BenchmarkId::new("sqr_elem", bits), &bits, |b, _| {
            b.iter(|| black_box(ctx.sqr_elem(&a)))
        });
    }
    group.finish();
}

/// Window-width sweep at a fixed 512-bit exponent: the crossover the
/// `window_for_bits` table encodes.
fn window_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("pow_window_512");
    group.sample_size(10);
    let n = odd_modulus(512, 0x5d);
    let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
    let base = random_below_modulus(&n, 2);
    let exp = random_below_modulus(&n, 3);
    for w in 1u32..=6 {
        group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| black_box(ctx.pow_with_window(&base, &exp, w)))
        });
    }
    group.finish();
}

/// The headline number: fixed-exponent batch exponentiation at 512 bits,
/// old fixed-4-bit algorithm vs. the sliding-window + squaring-kernel
/// path (acceptance floor: ≥ 1.3× single-thread).
fn fixed4_vs_sliding(c: &mut Criterion) {
    let mut group = c.benchmark_group("pow_batch_512");
    group.sample_size(10);
    let n = odd_modulus(512, 0x5d);
    let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
    let exp = random_below_modulus(&n, 3);
    let bases: Vec<UBig> = (0..16).map(|i| random_below_modulus(&n, 100 + i)).collect();
    group.bench_function("fixed4_reference", |b| {
        b.iter(|| {
            for base in &bases {
                black_box(ctx.pow_fixed4_reference(base, &exp));
            }
        })
    });
    group.bench_function("sliding", |b| {
        b.iter(|| {
            for base in &bases {
                black_box(ctx.pow(base, &exp));
            }
        })
    });
    group.bench_function("pow_batch", |b| {
        b.iter(|| black_box(ctx.pow_batch(&bases, &exp)))
    });
    group.finish();
}

/// The multi-lane interleaved kernel against the scalar sliding-window
/// batch at the protocol's hot shape (512-bit modulus, 32-element batch),
/// plus the cached-plan front end the keys actually use.
fn pow_multi_lanes(c: &mut Criterion) {
    use std::sync::Arc;

    let mut group = c.benchmark_group("pow_multi_512");
    group.sample_size(10);
    let n = odd_modulus(512, 0x5d);
    let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
    let exp = random_below_modulus(&n, 3);
    let bases: Vec<UBig> = (0..32).map(|i| random_below_modulus(&n, 200 + i)).collect();
    group.bench_function("scalar_sliding_batch32", |b| {
        b.iter(|| black_box(ctx.pow_batch(&bases, &exp)))
    });
    group.bench_function("multi_lane_batch32", |b| {
        b.iter(|| black_box(ctx.pow_multi_ctx(&bases, &exp)))
    });
    let plan =
        minshare_bignum::FixedExponentPlan::new(Arc::new(MontgomeryCtx::new(&n).unwrap()), &exp);
    group.bench_function("cached_plan_batch32", |b| {
        b.iter(|| black_box(plan.pow_batch(&bases)))
    });
    group.finish();
}

/// §6.2 P-processor scaling: one batch of commutative encryptions pushed
/// through the persistent pool at increasing worker counts. (On a
/// single-core host the curve flattens at 1; BENCH_protocols.json records
/// the host core count next to these numbers.)
fn pool_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_scaling");
    group.sample_size(10);
    let g = bench_group(256);
    let mut rng = StdRng::seed_from_u64(7);
    let key = g.gen_key(&mut rng);
    let items: Vec<UBig> = (0..64).map(|_| g.sample_element(&mut rng)).collect();
    for threads in [1usize, 2, 4] {
        let pool = EncryptPool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| black_box(pool.encrypt_batch(&g, &key, &items)))
        });
    }
    group.finish();
}

/// End-to-end wall time: the serial reference vs. the chunked engine (one
/// bucket) over the in-memory duplex link.
fn e2e_serial_vs_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e");
    group.sample_size(10);
    let g = bench_group(256);
    let n = 48usize;
    let (vs, vr) = overlapping_sets(n, n, n / 2);
    let pool = EncryptPool::new(4);
    let cfg = PipelineConfig::chunked(8);
    let one_bucket = ShardConfig::default();

    group.bench_function("intersection_serial", |b| {
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
    group.bench_function("intersection_pipelined", |b| {
        b.iter(|| {
            run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let shape = ProtocolShape::INTERSECTION;
                    engine::run_sender(t, &g, shape, &vs, &[], &mut rng, &pool, cfg, &one_bucket)
                },
                |t| {
                    let mut rng = StdRng::seed_from_u64(2);
                    let shape = ProtocolShape::INTERSECTION;
                    engine::run_receiver(t, &g, shape, &vr, &mut rng, &pool, cfg, &one_bucket)
                },
            )
            .expect("run")
        })
    });

    let ext = vec![b"record-payload".to_vec(); vs.len()];
    let entries: Vec<(Vec<u8>, Vec<u8>)> = vs.iter().cloned().zip(ext.iter().cloned()).collect();
    let cipher = HybridCipher::new(g.clone(), 32);
    group.bench_function("equijoin_serial", |b| {
        b.iter(|| {
            run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(1);
                    equijoin::run_sender(t, &g, &cipher, &entries, &mut rng)
                },
                |t| {
                    let cipher = HybridCipher::new(g.clone(), 32);
                    let mut rng = StdRng::seed_from_u64(2);
                    equijoin::run_receiver(t, &g, &cipher, &vr, &mut rng)
                },
            )
            .expect("run")
        })
    });
    group.bench_function("equijoin_pipelined", |b| {
        b.iter(|| {
            run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let shape = ProtocolShape::equijoin(&cipher);
                    engine::run_sender(t, &g, shape, &vs, &ext, &mut rng, &pool, cfg, &one_bucket)
                },
                |t| {
                    let mut rng = StdRng::seed_from_u64(2);
                    let shape = ProtocolShape::equijoin(&cipher);
                    engine::run_receiver(t, &g, shape, &vr, &mut rng, &pool, cfg, &one_bucket)
                },
            )
            .expect("run")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    square_vs_mul,
    window_widths,
    fixed4_vs_sliding,
    pow_multi_lanes,
    pool_scaling,
    e2e_serial_vs_pipelined
);
criterion_main!(benches);
