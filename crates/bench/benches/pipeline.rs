//! Throughput-overhaul benches: the `Ce` kernel tiers under one fixed
//! exponent, `EncryptPool` scaling (§6.2's `P` processors), and the
//! chunk-pipelined protocol engines end to end.

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

/// The three `Ce` tiers at the protocol's hot shape (512-bit modulus,
/// 32-element batch, one fixed exponent): the scalar sliding-window
/// ladder per base, the portable interleaved lanes, and the cached-plan
/// dispatch the keys actually use (IFMA lanes where compiled in and
/// detected).
fn pow_multi_lanes(c: &mut Criterion) {
    use std::sync::Arc;

    let mut group = c.benchmark_group("pow_multi_512");
    group.sample_size(10);
    let n = odd_modulus(512, 0x5d);
    let ctx = Arc::new(MontgomeryCtx::new(&n).expect("odd modulus"));
    let exp = random_below_modulus(&n, 3);
    let bases: Vec<UBig> = (0..32).map(|i| random_below_modulus(&n, 200 + i)).collect();
    let plan = minshare_bignum::FixedExponentPlan::new(Arc::clone(&ctx), &exp);
    group.bench_function("scalar_sliding_batch32", |b| {
        b.iter(|| {
            for base in &bases {
                black_box(plan.pow(base));
            }
        })
    });
    group.bench_function("portable_lanes_batch32", |b| {
        b.iter(|| black_box(ctx.pow_batch_scalar(&bases, &exp)))
    });
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
    pow_multi_lanes,
    pool_scaling,
    e2e_serial_vs_pipelined
);
criterion_main!(benches);
