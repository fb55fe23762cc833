//! Property-based tests for the cryptographic layer: the Definition-2
//! contract of the commutative encryption, payload-cipher round trips,
//! hash-to-group well-definedness, and the signed-residue encoding against
//! textbook `QR_p` arithmetic — over randomly generated inputs, a
//! deterministic test group and the bundled groups.

use minshare_bignum::modular::Jacobi;
use minshare_bignum::random::random_range;
use minshare_bignum::UBig;
use minshare_crypto::group::QrGroup;
use minshare_crypto::kcipher::{ExtCipher, HybridCipher, MulBlockCipher};
use minshare_crypto::CryptoError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One shared 64-bit test group (generation is the slow part).
fn group() -> &'static QrGroup {
    static GROUP: OnceLock<QrGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xfeed);
        QrGroup::generate(&mut rng, 64).unwrap()
    })
}

proptest! {
    #[test]
    fn hash_to_group_always_member(value in proptest::collection::vec(any::<u8>(), 0..64)) {
        let g = group();
        let h = g.hash_to_group(&value);
        prop_assert!(g.is_member(&h));
    }

    #[test]
    fn commutativity(seed in any::<u64>(), value in proptest::collection::vec(any::<u8>(), 0..32)) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let e1 = g.gen_key(&mut rng);
        let e2 = g.gen_key(&mut rng);
        let x = g.hash_to_group(&value);
        prop_assert_eq!(
            g.encrypt(&e1, &g.encrypt(&e2, &x)),
            g.encrypt(&e2, &g.encrypt(&e1, &x))
        );
    }

    #[test]
    fn decrypt_inverts(seed in any::<u64>(), value in proptest::collection::vec(any::<u8>(), 0..32)) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let k = g.gen_key(&mut rng);
        let x = g.hash_to_group(&value);
        prop_assert_eq!(g.decrypt(&k, &g.encrypt(&k, &x)), x);
    }

    #[test]
    fn double_encryption_equals_product_key(seed in any::<u64>()) {
        // f_e1(f_e2(x)) = x^(e1·e2 mod q): composing keys multiplies
        // exponents — the algebra the security reductions lean on.
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let e1 = g.gen_key(&mut rng);
        let e2 = g.gen_key(&mut rng);
        let x = g.sample_element(&mut rng);
        let prod = e1
            .exponent()
            .mod_mul(e2.exponent(), g.order())
            .unwrap();
        let composed = g.encrypt(&e1, &g.encrypt(&e2, &x));
        // prod may be 0 only if e1·e2 ≡ 0 (impossible: q prime, both < q).
        let k_prod = g.key_from_exponent(prod).unwrap();
        prop_assert_eq!(composed, g.encrypt(&k_prod, &x));
    }

    #[test]
    fn encryption_stays_in_group(seed in any::<u64>()) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let k = g.gen_key(&mut rng);
        let x = g.sample_element(&mut rng);
        prop_assert!(g.is_member(&g.encrypt(&k, &x)));
    }

    #[test]
    fn mulblock_round_trip(seed in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..5)) {
        let g = group();
        let cipher = MulBlockCipher::new(g.clone());
        prop_assume!(payload.len() <= cipher.max_plaintext_len());
        let mut rng = StdRng::seed_from_u64(seed);
        let kappa = g.sample_element(&mut rng);
        let ct = cipher.encrypt(&kappa, &payload).unwrap();
        prop_assert_eq!(cipher.decrypt(&kappa, &ct).unwrap(), payload);
    }

    #[test]
    fn hybrid_round_trip(seed in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..48)) {
        let g = group();
        let cipher = HybridCipher::new(g.clone(), 48);
        let mut rng = StdRng::seed_from_u64(seed);
        let kappa = g.sample_element(&mut rng);
        let ct = cipher.encrypt(&kappa, &payload).unwrap();
        prop_assert_eq!(ct.len(), cipher.ciphertext_len());
        prop_assert_eq!(cipher.decrypt(&kappa, &ct).unwrap(), payload);
    }

    #[test]
    fn element_codec_round_trip(seed in any::<u64>()) {
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = g.sample_element(&mut rng);
        let bytes = g.encode_element(&x).unwrap();
        prop_assert_eq!(g.decode_element(&bytes).unwrap(), x);
    }

    #[test]
    fn distinct_values_distinct_hashes(a in proptest::collection::vec(any::<u8>(), 0..16),
                                       b in proptest::collection::vec(any::<u8>(), 0..16)) {
        prop_assume!(a != b);
        let g = group();
        // With a 64-bit group collisions are conceivable but vanishingly
        // rare across a proptest run; treat equality as failure.
        prop_assert_ne!(g.hash_to_group(&a), g.hash_to_group(&b));
    }
}

#[test]
fn ot_round_trip_both_choices() {
    use minshare_crypto::ot::ObliviousTransfer;
    let g = group().clone();
    let ot = ObliviousTransfer::new(g, b"prop-session");
    let mut rng = StdRng::seed_from_u64(123);
    for choice in [false, true] {
        let (state, query) = ot.receiver_query(choice, &mut rng).unwrap();
        let resp = ot
            .sender_respond(&query, b"left-msg", b"rightmsg", &mut rng)
            .unwrap();
        let got = ot.receiver_recover(&state, &resp).unwrap();
        assert_eq!(
            got,
            if choice {
                b"rightmsg".to_vec()
            } else {
                b"left-msg".to_vec()
            }
        );
    }
}

proptest! {
    // The persistent `EncryptPool` must agree with the serial
    // `QrGroup::encrypt_many` path element-for-element, at every worker count
    // (including 0, where the submitting thread does all the work) and
    // across batch sizes that straddle the sub-chunk claim size.
    #[test]
    fn pool_matches_serial_encrypt_batch(
        seed in any::<u64>(),
        n in 0usize..70,
        threads in 0usize..5,
    ) {
        use minshare_crypto::pool::EncryptPool;

        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let key = g.gen_key(&mut rng);
        let items: Vec<UBig> = (0..n).map(|_| g.sample_element(&mut rng)).collect();
        let serial = g.encrypt_many(&key, &items);
        let pool = EncryptPool::new(threads);
        prop_assert_eq!(pool.encrypt_batch(g, &key, &items), serial);
    }
}

/// The four bundled groups (768, 1024, 1536 and 2048 bits).
fn well_known_groups() -> &'static [QrGroup] {
    static GROUPS: OnceLock<Vec<QrGroup>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        [768u64, 1024, 1536, 2048]
            .map(|bits| QrGroup::well_known(bits).unwrap())
            .to_vec()
    })
}

/// The `QR_p` element a signed residue stands for: whichever of `±x` has
/// Jacobi symbol 1.
fn qr_representative(g: &QrGroup, x: &UBig) -> UBig {
    match x.jacobi(g.modulus()) {
        Ok(Jacobi::One) => x.clone(),
        _ => g.modulus() - x,
    }
}

/// The map `QR_p → [1, q]`, `y ↦ min(y, p − y)`, after checking that the
/// textbook result really is a quadratic residue.
fn signed(g: &QrGroup, y: UBig) -> UBig {
    assert_eq!(y.jacobi(g.modulus()), Ok(Jacobi::One), "oracle left QR_p");
    let neg = g.modulus() - &y;
    y.min(neg)
}

/// Checks `pow`, `mul` and `inv` on `x` and `y` against `QR_p` arithmetic
/// through `UBig::modpow_binary` and plain modular operations.
fn agrees_with_qr_p(g: &QrGroup, x: &UBig, y: &UBig, e: &UBig) {
    let p = g.modulus();
    let (qx, qy) = (qr_representative(g, x), qr_representative(g, y));
    assert_eq!(g.pow(x, e), signed(g, qx.modpow_binary(e, p)));
    assert_eq!(g.mul(x, y), signed(g, qx.mod_mul(&qy, p).unwrap()));
    assert_eq!(g.inv(x).unwrap(), signed(g, qx.mod_inv(p).unwrap()));
}

#[test]
fn signed_residues_agree_with_qr_p_on_boundary_inputs() {
    for g in well_known_groups() {
        let q = g.order();
        let q_minus_1 = q.sub_small(1).unwrap();
        for x in [UBig::one(), q.clone()] {
            for e in [UBig::one(), UBig::two(), q_minus_1.clone()] {
                agrees_with_qr_p(g, &x, q, &e);
            }
        }
    }
}

#[test]
fn decode_refuses_values_outside_the_signed_residues() {
    for g in well_known_groups() {
        let q = g.order();
        let p_minus_1 = g.modulus().sub_small(1).unwrap();
        for bad in [UBig::zero(), q.add_small(1), p_minus_1] {
            let bytes = g.encode_element(&bad).unwrap();
            assert_eq!(
                g.decode_element(&bytes).unwrap_err(),
                CryptoError::NotGroupElement,
                "{} bits",
                g.codeword_bits()
            );
        }
        let bytes = g.encode_element(q).unwrap();
        assert_eq!(&g.decode_element(&bytes).unwrap(), q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // pow, mul and inv on the signed encoding equal the QR_p computation
    // mapped through x ↦ min(x, p − x), on random elements and keys at
    // every bundled size, with 1 and q mixed in as adversarial operands.
    #[test]
    fn signed_residues_agree_with_qr_p(
        seed in any::<u64>(),
        size in 0usize..4,
        boundary in 0usize..3,
    ) {
        let g = &well_known_groups()[size];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = match boundary {
            0 => UBig::one(),
            1 => g.order().clone(),
            _ => g.sample_element(&mut rng),
        };
        let y = g.sample_element(&mut rng);
        let e = random_range(&mut rng, &UBig::one(), g.order());
        agrees_with_qr_p(g, &x, &y, &e);
        agrees_with_qr_p(g, &y, &x, &e);
    }
}
