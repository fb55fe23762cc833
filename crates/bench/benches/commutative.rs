//! The commutative cipher `f_e` and the payload cipher `K`:
//! encrypt/decrypt round trips at the paper's parameter sizes.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minshare_bench::bench_group;
use minshare_crypto::kcipher::{ExtCipher, HybridCipher, MulBlockCipher};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn commutative_encrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("commutative_encrypt");
    group.sample_size(20);
    for bits in [768u64, 1024] {
        let g = bench_group(bits);
        let mut rng = StdRng::seed_from_u64(1);
        let key = g.gen_key(&mut rng);
        let x = g.sample_element(&mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter(|| black_box(g.encrypt(&key, black_box(&x))))
        });
    }
    group.finish();
}

fn commutative_decrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("commutative_decrypt");
    group.sample_size(20);
    let g = bench_group(1024);
    let mut rng = StdRng::seed_from_u64(2);
    let key = g.gen_key(&mut rng);
    let x = g.sample_element(&mut rng);
    let y = g.encrypt(&key, &x);
    group.bench_function("1024", |b| {
        b.iter(|| black_box(g.decrypt(&key, black_box(&y))))
    });
    group.finish();
}

fn payload_ciphers(c: &mut Criterion) {
    let mut group = c.benchmark_group("payload_cipher");
    let g = bench_group(1024);
    let mut rng = StdRng::seed_from_u64(3);
    let kappa = g.sample_element(&mut rng);

    let mul = MulBlockCipher::new(g.clone());
    let payload = vec![0x42u8; 64];
    group.bench_function("mulblock_encrypt_64B", |b| {
        b.iter(|| black_box(mul.encrypt(&kappa, black_box(&payload)).unwrap()))
    });

    let hybrid = HybridCipher::new(g.clone(), 256);
    let payload = vec![0x42u8; 256];
    group.bench_function("hybrid_encrypt_256B", |b| {
        b.iter(|| black_box(hybrid.encrypt(&kappa, black_box(&payload)).unwrap()))
    });
    let ct = hybrid.encrypt(&kappa, &payload).unwrap();
    group.bench_function("hybrid_decrypt_256B", |b| {
        b.iter(|| black_box(hybrid.decrypt(&kappa, black_box(&ct)).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    commutative_encrypt,
    commutative_decrypt,
    payload_ciphers
);
criterion_main!(benches);
