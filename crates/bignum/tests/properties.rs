//! Property-based tests for the big-integer substrate: ring axioms, the
//! division identity, Montgomery-vs-naive agreement, and number-theoretic
//! laws. These are the invariants everything above (commutative
//! encryption, the protocols) silently relies on.

use std::sync::Arc;

use minshare_bignum::modular::Jacobi;
use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::safe_prime::well_known_safe_prime;
use minshare_bignum::{FixedExponentPlan, KernelTier, UBig};
use proptest::prelude::*;

/// Strategy: arbitrary-width UBig from raw bytes (0 to ~96 bytes ≈ 768 bits).
fn ubig() -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..96).prop_map(|b| UBig::from_be_bytes(&b))
}

/// Strategy: nonzero UBig.
fn ubig_nonzero() -> impl Strategy<Value = UBig> {
    ubig().prop_map(|x| x.add_small(1))
}

/// Strategy: odd UBig ≥ 3 (valid Montgomery modulus).
fn odd_modulus() -> impl Strategy<Value = UBig> {
    ubig().prop_map(|x| {
        let x = if x.is_even() { x.add_small(1) } else { x };
        if x.is_one() || x.is_zero() {
            UBig::from(3u64)
        } else {
            x
        }
    })
}

/// The batch dispatch for `exp` under a fresh context for `m`.
fn plan(m: &UBig, exp: &UBig) -> FixedExponentPlan {
    FixedExponentPlan::new(Arc::new(MontgomeryCtx::new(m).unwrap()), exp)
}

/// Strategy: exponents that stress the sliding-window ladder — the edge
/// cases (0, 1, powers of two with their long zero runs, all-ones values
/// where every window is the maximal odd table entry, full 512-bit) mixed
/// with random multi-limb values.
fn adversarial_exponent() -> impl Strategy<Value = UBig> {
    prop_oneof![
        Just(UBig::from(0u64)),
        Just(UBig::from(1u64)),
        Just(UBig::from(2u64)),
        // Single set bit: maximal leading/interior zero runs.
        (0u64..=512).prop_map(|b| UBig::one().shl_bits(b)),
        // All ones: back-to-back maximal odd windows.
        (1u64..=512).prop_map(|bits| {
            UBig::one()
                .shl_bits(bits)
                .sub_small(1)
                .expect("2^bits >= 1")
        }),
        // Random multi-limb exponents up to 512 bits.
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|b| UBig::from_be_bytes(&b)),
    ]
}

/// Strategy: a full-width odd modulus of exactly 4 or 8 limbs (256 or
/// 512 bits) — the demo widths the ladder's fixed-width squaring
/// dispatches on (the served 12/16/24/32-limb widths have their own suite
/// below). Other widths take the generic squaring, covered separately.
fn kernel_modulus() -> impl Strategy<Value = UBig> {
    (
        prop_oneof![Just(32usize), Just(64)],
        proptest::collection::vec(any::<u8>(), 64..65),
    )
        .prop_map(|(len, mut b)| {
            b.truncate(len);
            b[0] |= 0x80; // full width: exactly len/8 limbs
            let last = b.len() - 1;
            b[last] |= 1; // odd
            UBig::from_be_bytes(&b)
        })
}

/// Strategy: batches sized to sweep every lane-occupancy shape of the
/// 8-lane IFMA block — empty, partial first block (1..8), one full
/// block, and a full block plus a ragged tail.
fn ragged_bases() -> impl Strategy<Value = Vec<UBig>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 0..11)
        .prop_map(|raw| raw.iter().map(|b| UBig::from_be_bytes(b)).collect())
}

/// Strategy: full-width odd moduli of 1..=14 limbs. The AVX-512 IFMA
/// backend accepts every width up to 2048 bits, so the differential
/// sweeps widths with and without a fixed-width squaring — including the
/// full 13-limb modulus (832 = 52·16 bits) whose digit count must come
/// from the bit length, not the limb count. The served widths (12/16/24/32
/// limbs) have their own suite below.
fn simd_modulus() -> impl Strategy<Value = UBig> {
    (
        1usize..=14,
        proptest::collection::vec(any::<u8>(), 112..113),
    )
        .prop_map(|(limbs, mut b)| {
            b.truncate(limbs * 8);
            b[0] |= 0x80; // full width: exactly `limbs` limbs
            let last = b.len() - 1;
            b[last] |= 1; // odd
            UBig::from_be_bytes(&b)
        })
}

/// Strategy: the wide moduli the daemon's sessions actually use — 12, 16,
/// 24 or 32 limbs (768/1024/1536/2048 bits) — either the well-known
/// safe prime of that size or a random full-width odd number.
fn wide_modulus() -> impl Strategy<Value = UBig> {
    (
        prop_oneof![Just(12usize), Just(16), Just(24), Just(32)],
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 256..257),
    )
        .prop_map(|(limbs, well_known, mut b)| {
            if well_known {
                return well_known_safe_prime(limbs as u64 * 64).expect("bundled group");
            }
            b.truncate(limbs * 8);
            b[0] |= 0x80; // full width: exactly `limbs` limbs
            let last = b.len() - 1;
            b[last] |= 1; // odd
            UBig::from_be_bytes(&b)
        })
}

/// Which adversarial exponent to derive from the modulus `p` (written for
/// safe primes `p = 2q + 1`, but every shape is valid for any odd `p`).
#[derive(Clone, Copy, Debug)]
enum WideExponent {
    Zero,
    One,
    SingleBit(u64),
    AllOnes(u64),
    /// `q - 1`, the largest key of `KeyF = {1, …, q-1}`.
    QMinusOne,
    /// `p - 2`, the Fermat-inversion shape.
    PMinusTwo,
    Random(u64),
}

fn wide_exponent() -> impl Strategy<Value = WideExponent> {
    prop_oneof![
        Just(WideExponent::Zero),
        Just(WideExponent::One),
        (0u64..2048).prop_map(WideExponent::SingleBit),
        (1u64..=2048).prop_map(WideExponent::AllOnes),
        Just(WideExponent::QMinusOne),
        Just(WideExponent::PMinusTwo),
        any::<u64>().prop_map(WideExponent::Random),
    ]
}

impl WideExponent {
    fn for_modulus(self, p: &UBig) -> UBig {
        let bits = p.bit_len();
        match self {
            WideExponent::Zero => UBig::zero(),
            WideExponent::One => UBig::one(),
            WideExponent::SingleBit(b) => UBig::one().shl_bits(b % bits),
            WideExponent::AllOnes(b) => UBig::one()
                .shl_bits(b % bits + 1)
                .sub_small(1)
                .expect("2^b >= 1"),
            WideExponent::QMinusOne => p.shr_bits(1).sub_small(1).expect("p >= 3"),
            WideExponent::PMinusTwo => p.sub_small(2).expect("p >= 3"),
            WideExponent::Random(seed) => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                minshare_bignum::random::random_below(&mut rng, p)
            }
        }
    }
}

/// Strategy: 1..=17 bases — every ragged tail of the 8-lane IFMA block
/// (batch 1..=2·8+1), one-base batches included.
fn wide_bases() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 1..18)
}

proptest! {
    #[test]
    fn add_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
    }

    #[test]
    fn add_associates(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(a.add_ref(&b).add_ref(&c), a.add_ref(&b.add_ref(&c)));
    }

    #[test]
    fn add_sub_round_trip(a in ubig(), b in ubig()) {
        let sum = a.add_ref(&b);
        prop_assert_eq!(sum.checked_sub(&b).unwrap(), a);
    }

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = UBig::from(a).add_ref(&UBig::from(b));
        prop_assert_eq!(sum.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn mul_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
    }

    #[test]
    fn mul_associates(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(a.mul_ref(&b).mul_ref(&c), a.mul_ref(&b.mul_ref(&c)));
    }

    #[test]
    fn mul_distributes_over_add(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(
            a.mul_ref(&b.add_ref(&c)),
            a.mul_ref(&b).add_ref(&a.mul_ref(&c))
        );
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = UBig::from(a).mul_ref(&UBig::from(b));
        prop_assert_eq!(prod.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn division_identity(a in ubig(), b in ubig_nonzero()) {
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(q.mul_ref(&b).add_ref(&r), a);
    }

    #[test]
    fn shifts_round_trip(a in ubig(), bits in 0u64..300) {
        prop_assert_eq!(a.shl_bits(bits).shr_bits(bits), a);
    }

    #[test]
    fn shl_is_doubling(a in ubig(), bits in 0u64..100) {
        // a << bits == a * 2^bits
        let pow2 = UBig::one().shl_bits(bits);
        prop_assert_eq!(a.shl_bits(bits), a.mul_ref(&pow2));
    }

    #[test]
    fn decimal_round_trip(a in ubig()) {
        prop_assert_eq!(UBig::from_decimal_str(&a.to_decimal_str()).unwrap(), a);
    }

    #[test]
    fn hex_round_trip(a in ubig()) {
        prop_assert_eq!(UBig::from_hex_str(&a.to_hex_str()).unwrap(), a);
    }

    #[test]
    fn bytes_round_trip(a in ubig()) {
        prop_assert_eq!(UBig::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn bit_len_brackets_value(a in ubig_nonzero()) {
        let n = a.bit_len();
        // 2^(n-1) <= a < 2^n
        prop_assert!(a >= UBig::one().shl_bits(n - 1));
        prop_assert!(a < UBig::one().shl_bits(n));
    }

    #[test]
    fn montgomery_pow_matches_binary(
        base in ubig(),
        exp in proptest::collection::vec(any::<u8>(), 0..8).prop_map(|b| UBig::from_be_bytes(&b)),
        m in odd_modulus(),
    ) {
        prop_assert_eq!(base.modpow(&exp, &m), base.modpow_binary(&exp, &m));
    }

    #[test]
    fn modpow_exponent_addition_law(
        base in ubig(),
        e1 in any::<u32>(),
        e2 in any::<u32>(),
        m in odd_modulus(),
    ) {
        // base^(e1+e2) == base^e1 * base^e2 (mod m)
        let lhs = base.modpow(&UBig::from(e1 as u64 + e2 as u64), &m);
        let p1 = base.modpow(&UBig::from(e1), &m);
        let p2 = base.modpow(&UBig::from(e2), &m);
        prop_assert_eq!(lhs, p1.mod_mul(&p2, &m).unwrap());
    }

    #[test]
    fn mod_inv_is_inverse(a in ubig_nonzero(), m in odd_modulus()) {
        match a.mod_inv(&m) {
            Ok(inv) => {
                prop_assert!(inv < m);
                prop_assert_eq!(a.mod_mul(&inv, &m).unwrap(), UBig::one().rem_ref(&m).unwrap());
            }
            Err(_) => {
                // Must genuinely share a factor with m.
                prop_assert!(!a.gcd(&m).is_one());
            }
        }
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(), b in ubig_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem_ref(&g).unwrap().is_zero());
        prop_assert!(b.rem_ref(&g).unwrap().is_zero());
    }

    #[test]
    fn jacobi_is_multiplicative(a in ubig(), b in ubig(), m in odd_modulus()) {
        let ja = a.jacobi(&m).unwrap().as_i32();
        let jb = b.jacobi(&m).unwrap().as_i32();
        let jab = a.mul_ref(&b).jacobi(&m).unwrap().as_i32();
        prop_assert_eq!(jab, ja * jb);
    }

    #[test]
    fn jacobi_of_square_is_one_or_zero(a in ubig(), m in odd_modulus()) {
        let j = a.square().jacobi(&m).unwrap();
        prop_assert!(j == Jacobi::One || j == Jacobi::Zero);
    }

    #[test]
    fn mod_add_sub_inverse(a in ubig(), b in ubig(), m in odd_modulus()) {
        let ar = a.rem_ref(&m).unwrap();
        let br = b.rem_ref(&m).unwrap();
        prop_assert_eq!(ar.mod_add(&br, &m).mod_sub(&br, &m), ar);
    }

    #[test]
    fn low_bits_is_mod_pow2(a in ubig(), bits in 0u64..200) {
        let m = UBig::one().shl_bits(bits);
        if !m.is_zero() {
            prop_assert_eq!(a.low_bits(bits), a.rem_ref(&m).unwrap());
        }
    }

    #[test]
    fn sliding_window_pow_matches_oracle(
        base in ubig(),
        exp in adversarial_exponent(),
        m in odd_modulus(),
    ) {
        // The default path (sliding windows + squaring kernel) against the
        // plain square-and-multiply oracle, over multi-limb bases and the
        // ladder's adversarial exponent shapes.
        let ctx = MontgomeryCtx::new(&m).unwrap();
        prop_assert_eq!(ctx.pow(&base, &exp), base.modpow_binary(&exp, &m));
    }

    #[test]
    fn every_window_width_matches_oracle(
        base in ubig(),
        bits in (0usize..10).prop_map(|i| [7u64, 8, 23, 24, 79, 80, 239, 240, 767, 768][i]),
        low in proptest::collection::vec(any::<u8>(), 96..97),
        m in odd_modulus(),
    ) {
        // Random exponents on both sides of every sliding-window width
        // boundary (`pow` picks widths 1..=6 from the bit length).
        let top = UBig::one().shl_bits(bits - 1);
        let exp = UBig::from_be_bytes(&low).low_bits(bits - 1).add_ref(&top);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        prop_assert_eq!(ctx.pow(&base, &exp), base.modpow_binary(&exp, &m));
    }

    #[test]
    fn exponent_m_minus_2_matches_oracle(base in ubig(), m in odd_modulus()) {
        // The modular-inversion exponent (Fermat shape): long odd tail.
        if let Ok(e) = m.sub_small(2) {
            let ctx = MontgomeryCtx::new(&m).unwrap();
            prop_assert_eq!(ctx.pow(&base, &e), base.modpow_binary(&e, &m));
        }
    }

    #[test]
    fn pow_batch_matches_pointwise(
        bases in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 0..5
        ),
        exp in adversarial_exponent(),
        m in odd_modulus(),
    ) {
        let bases: Vec<UBig> = bases.iter().map(|b| UBig::from_be_bytes(b)).collect();
        let batch = plan(&m, &exp).pow_batch(&bases);
        prop_assert_eq!(batch.len(), bases.len());
        for (b, got) in bases.iter().zip(&batch) {
            prop_assert_eq!(got, &b.modpow_binary(&exp, &m));
        }
    }

    #[test]
    fn squaring_kernel_matches_general_multiply(a in ubig(), m in odd_modulus()) {
        // `a^2` is one squaring in the ladder: the squaring kernel against
        // the general CIOS multiply.
        let ctx = MontgomeryCtx::new(&m).unwrap();
        prop_assert_eq!(ctx.pow(&a, &UBig::from(2u64)), ctx.mul(&a, &a));
    }

    // -----------------------------------------------------------------
    // Multi-lane fixed-exponent kernel differentials: the
    // `FixedExponentPlan` dispatch against the plain square-and-multiply
    // oracle, across every lane-occupancy shape and the adversarial
    // exponents (0, 1, single-bit, all-ones, full random).
    // -----------------------------------------------------------------

    #[test]
    fn plan_batch_matches_scalar_oracle(
        bases in ragged_bases(),
        exp in adversarial_exponent(),
        m in kernel_modulus(),
    ) {
        // One plan, recoded once, serves every batch: a second call on
        // the reversed bases must see the same cached schedule.
        let plan = plan(&m, &exp);
        let multi = plan.pow_batch(&bases);
        prop_assert_eq!(multi.len(), bases.len());
        for (b, got) in bases.iter().zip(&multi) {
            prop_assert_eq!(got, &b.modpow_binary(&exp, &m));
        }
        let reversed: Vec<UBig> = bases.iter().rev().cloned().collect();
        let again = plan.pow_batch(&reversed);
        prop_assert_eq!(again.iter().rev().collect::<Vec<_>>(), multi.iter().collect::<Vec<_>>());
    }

    #[test]
    fn plan_fallback_width_matches_oracle(
        bases in ragged_bases(),
        exp in adversarial_exponent(),
        m in odd_modulus(),
    ) {
        // Arbitrary-width moduli (usually not a fixed-width squaring
        // width) take the generic squaring wherever the ladder runs; the
        // contract is the same either way.
        let multi = plan(&m, &exp).pow_batch(&bases);
        for (b, got) in bases.iter().zip(&multi) {
            prop_assert_eq!(got, &b.modpow_binary(&exp, &m));
        }
    }

    #[test]
    fn plan_fermat_exponent_matches_oracle(
        bases in ragged_bases(),
        m in kernel_modulus(),
    ) {
        // e = m - 2: the modular-inversion shape — near-full bit length
        // with high Hamming weight, the worst case for window recoding.
        let e = m.sub_small(2).unwrap();
        let multi = plan(&m, &e).pow_batch(&bases);
        for (b, got) in bases.iter().zip(&multi) {
            prop_assert_eq!(got, &b.modpow_binary(&e, &m));
        }
    }

    // -----------------------------------------------------------------
    // SIMD differentials: the auto-dispatching batch front end against
    // the ladder (`plan.pow` per base, what a host without AVX-512 IFMA
    // runs), bitwise. On an AVX-512 IFMA host this is the real
    // vector-vs-scalar differential; on any other host both sides run
    // the ladder and the test degenerates to a determinism check. Moduli
    // sweep 1..=14 limbs, batches sweep every lane-occupancy shape
    // (0..=10 over 8 lanes), and exponents take the adversarial shapes
    // (0, 1, single-bit, all-ones, random).
    // -----------------------------------------------------------------

    #[test]
    fn simd_batch_matches_forced_scalar(
        bases in ragged_bases(),
        exp in adversarial_exponent(),
        m in simd_modulus(),
    ) {
        let plan = plan(&m, &exp);
        let auto = plan.pow_batch(&bases);
        let scalar: Vec<UBig> = bases.iter().map(|b| plan.pow(b)).collect();
        prop_assert_eq!(&auto, &scalar);
        for (b, got) in bases.iter().zip(&auto) {
            prop_assert_eq!(got, &b.modpow_binary(&exp, &m));
        }
    }

    #[test]
    fn simd_batch_fermat_exponent_matches_forced_scalar(
        bases in ragged_bases(),
        m in simd_modulus(),
    ) {
        // e = m - 2: near-full bit length, high Hamming weight — the
        // densest multiply schedule the ladder produces.
        let plan = plan(&m, &m.sub_small(2).unwrap());
        let scalar: Vec<UBig> = bases.iter().map(|b| plan.pow(b)).collect();
        prop_assert_eq!(plan.pow_batch(&bases), scalar);
    }

    #[test]
    fn fixed_exponent_plan_matches_scalar_oracle(
        bases in ragged_bases(),
        exp in adversarial_exponent(),
        m in kernel_modulus(),
    ) {
        // The cached-plan front end: scalar `pow` and the batch
        // dispatch must agree with each other and with the oracle.
        let plan = plan(&m, &exp);
        let batch = plan.pow_batch(&bases);
        prop_assert_eq!(batch.len(), bases.len());
        for (b, got) in bases.iter().zip(&batch) {
            prop_assert_eq!(got, &b.modpow_binary(&exp, &m));
            prop_assert_eq!(&plan.pow(b), got);
        }
    }
}

proptest! {
    // Wide moduli make the bit-at-a-time oracle expensive; the strategies
    // are small enumerations, so a few cases per width class cover them.
    #![proptest_config(ProptestConfig::with_cases(16))]

    // -----------------------------------------------------------------
    // The two `Ce` tiers at the widths real sessions use (12/16/24/32
    // limbs): the ladder (`pow` per base, what a host without AVX-512
    // IFMA runs) and the default dispatch (`FixedExponentPlan::pow_batch`:
    // IFMA lanes where the CPU has them, otherwise the ladder again),
    // each against the square-and-multiply oracle, bit for bit.
    // -----------------------------------------------------------------

    #[test]
    fn all_tiers_match_oracle_at_served_widths(
        m in wide_modulus(),
        exp in wide_exponent(),
        seeds in wide_bases(),
    ) {
        let exp = exp.for_modulus(&m);
        // Bases spread over the whole residue range (and one above it).
        let bases: Vec<UBig> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let x = UBig::from(s | 1).modpow(&UBig::from(65537u64), &m);
                if i == 0 { x.add_ref(&m) } else { x }
            })
            .collect();
        let ctx = Arc::new(MontgomeryCtx::new(&m).unwrap());
        let want: Vec<UBig> = bases.iter().map(|b| b.modpow_binary(&exp, &m)).collect();
        let ladder: Vec<UBig> = bases.iter().map(|b| ctx.pow(b, &exp)).collect();
        prop_assert_eq!(&ladder, &want, "ladder");
        let plan = FixedExponentPlan::new(Arc::clone(&ctx), &exp);
        prop_assert_eq!(&plan.pow_batch(&bases), &want, "default dispatch");
        prop_assert_eq!(&plan.pow(&bases[0]), &want[0], "single pow");
    }
}

/// Both tiers against the oracle for one modulus, exponent and batch.
fn assert_all_tiers_match_oracle(ctx: &Arc<MontgomeryCtx>, exp: &UBig, bases: &[UBig]) {
    let m = ctx.modulus();
    let want: Vec<UBig> = bases.iter().map(|b| b.modpow_binary(exp, m)).collect();
    let what = format!(
        "{} bits, exponent bits {}, batch {}",
        m.bit_len(),
        exp.bit_len(),
        bases.len()
    );
    let ladder: Vec<UBig> = bases.iter().map(|b| ctx.pow(b, exp)).collect();
    assert_eq!(ladder, want, "ladder: {what}");
    let plan = FixedExponentPlan::new(Arc::clone(ctx), exp);
    assert_eq!(plan.pow_batch(bases), want, "default dispatch: {what}");
}

#[test]
fn well_known_groups_adversarial_exponents_and_every_ragged_tail() {
    for bits in [768u64, 1024, 1536, 2048] {
        let p = well_known_safe_prime(bits).unwrap();
        let ctx = Arc::new(MontgomeryCtx::new(&p).unwrap());
        // Group elements (squares) spread over the residue range.
        let bases: Vec<UBig> = (0..17u64)
            .map(|i| {
                let t = p
                    .shr_bits(7)
                    .mul_ref(&UBig::from(2 * i + 3))
                    .rem_ref(&p)
                    .unwrap();
                t.mod_mul(&t, &p).unwrap()
            })
            .collect();
        // Full-size shapes: the largest key q-1, the inversion exponent
        // p-2, all ones, a single top bit — on a ragged IFMA block (one
        // lane block plus one). The oracle is slow here, hence five bases.
        let q = p.shr_bits(1);
        for exp in [
            q.sub_small(1).unwrap(),
            p.sub_small(2).unwrap(),
            UBig::one().shl_bits(bits - 1).sub_small(1).unwrap(),
            UBig::one().shl_bits(bits - 2),
        ] {
            assert_all_tiers_match_oracle(&ctx, &exp, &bases[..5]);
        }
        // Every batch shape 1..=2·8+1 (every tail of the 8-lane IFMA
        // block, one-base batches included) on short exponents: 0, 1, one
        // bit, all ones.
        for exp in [
            UBig::zero(),
            UBig::one(),
            UBig::from(1u64 << 9),
            UBig::from(0x3ffu64),
        ] {
            for batch in 1..=bases.len() {
                assert_all_tiers_match_oracle(&ctx, &exp, &bases[..batch]);
            }
        }
    }
}

#[test]
fn served_widths_run_on_a_lane_tier() {
    // Two tiers: IFMA lanes exactly when `simd_active()`, the ladder
    // otherwise. Every group `minshare serve` accepts fits the IFMA
    // kernel's digit budget, so all of them share one tier: IFMA where
    // the CPU has it, the ladder where it does not.
    let tiers: Vec<KernelTier> = [768u64, 1024, 1536, 2048]
        .iter()
        .map(|&bits| {
            let ctx = MontgomeryCtx::new(&well_known_safe_prime(bits).unwrap()).unwrap();
            let want = if ctx.simd_active() {
                KernelTier::Ifma52x8
            } else {
                KernelTier::Ladder
            };
            assert_eq!(ctx.kernel_tier(), want, "{bits}-bit group");
            want
        })
        .collect();
    assert!(tiers.iter().all(|&t| t == tiers[0]), "{tiers:?}");
    assert_eq!(KernelTier::Ifma52x8.to_string(), "ifma52x8");
    assert_eq!(KernelTier::Ladder.as_str(), "ladder");
}

#[test]
fn thirteen_limb_full_width_modulus_matches_oracle() {
    // 832 = 52·16 bits: `ceil(64·13/52)` digits would leave the IFMA
    // kernel no headroom, so its context must take a 17th digit (or
    // decline). Either way the answers are the oracle's.
    let m = UBig::one().shl_bits(832).sub_small(0x1235).unwrap();
    assert_eq!((m.limb_len(), m.bit_len()), (13, 832));
    let bases: Vec<UBig> = (1..=9u64)
        .map(|i| m.sub_small(i * 0x9e37_79b9).unwrap())
        .collect();
    for exp in [
        m.sub_small(2).unwrap(),
        UBig::one().shl_bits(831),
        UBig::from(3u64),
    ] {
        let want: Vec<UBig> = bases.iter().map(|b| b.modpow_binary(&exp, &m)).collect();
        let plan = plan(&m, &exp);
        assert_eq!(plan.pow_batch(&bases), want);
        let ladder: Vec<UBig> = bases.iter().map(|b| plan.pow(b)).collect();
        assert_eq!(ladder, want);
    }
}

#[test]
fn fermat_on_generated_safe_prime() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(7);
    let p = minshare_bignum::safe_prime::generate_safe_prime(&mut rng, 40, 100_000).unwrap();
    let pm1 = p.sub_small(1).unwrap();
    for a in [2u64, 3, 5, 7] {
        assert_eq!(UBig::from(a).modpow(&pm1, &p), UBig::one());
    }
}
