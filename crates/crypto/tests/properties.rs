//! Property-based tests for the cryptographic layer: the Definition-2
//! contract of the commutative encryption, payload-cipher round trips, and
//! hash-to-group well-definedness — over randomly generated inputs and a
//! deterministic test group.

use minshare_crypto::group::QrGroup;
use minshare_crypto::kcipher::{ExtCipher, HybridCipher, MulBlockCipher};
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
        let cipher = MulBlockCipher::new(g.clone()).unwrap();
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
        use minshare_bignum::UBig;
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
