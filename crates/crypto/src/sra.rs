//! SRA commutative encryption — the *other* classical instantiation of
//! the paper's Definition 2.
//!
//! The paper's commutative-encryption definition cites Shamir, Rivest &
//! Adleman's "Mental Poker" (\[42\]) alongside Diffie–Hellman and Pohlig–
//! Hellman constructions. SRA works over an RSA modulus `n = p·q` whose
//! factorization is **shared by the two parties** (but hidden from
//! outsiders): each party picks `e` with `gcd(e, φ(n)) = 1` and encrypts
//! by `f_e(x) = x^e mod n`, decrypting with `d = e⁻¹ mod φ(n)`.
//!
//! Properties vs. Definition 2:
//!
//! 1. **Commutativity** — powers commute, as in Example 1. ✔
//! 2. **Bijectivity** on `Z_n^*` — `gcd(e, φ(n)) = 1`. ✔
//! 3. **Efficient inversion** given the key (both parties know `φ(n)`). ✔
//! 4. **Indistinguishability** — rests on RSA-style assumptions rather
//!    than DDH, and (crucially) the proof of the paper's Lemma 1 does not
//!    carry over verbatim: with `φ(n)` shared, each *party* can always
//!    decrypt its own layer. SRA is secure against *outsiders* and is the
//!    historical construction; the QR/DDH group of Example 1
//!    ([`crate::group::QrGroup`]) is what the paper's security statements
//!    are proved for, and is what the `minshare` protocol engines use.
//!
//! This module exists to make the reproduction's cipher layer complete
//! (both classical instantiations implemented and property-tested) and to
//! power the `ablation/commutative_scheme` comparison.

use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::prime::generate_prime;
use minshare_bignum::random::random_range;
use minshare_bignum::UBig;
use minshare_hash::RandomOracle;
use rand::Rng;

use crate::error::CryptoError;
use crate::plan::PlanCachePair;

/// Shared SRA parameters: the modulus and (privately, between the two
/// parties) its Euler totient.
///
/// `φ(n)` is equivalent to the factorization of `n`, so `Debug` prints
/// only the public modulus and dropping the context scrubs the totient.
#[derive(Clone)]
pub struct SraContext {
    n: UBig,
    phi: UBig,
    /// Cached Montgomery state for `mod n`; behind an `Arc` so cloning a
    /// context (one per party in the ablation benches) shares the
    /// precomputed `R mod n` / `R² mod n` instead of recomputing or
    /// copying them.
    ctx: std::sync::Arc<MontgomeryCtx>,
    oracle: RandomOracle,
}

impl std::fmt::Debug for SraContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SraContext")
            .field("n", &self.n)
            .field("phi", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl Drop for SraContext {
    fn drop(&mut self) {
        self.phi.zeroize();
    }
}

/// An SRA key: exponent and its inverse mod `φ(n)`.
///
/// Secret hygiene mirrors [`crate::commutative::CommutativeKey`]:
/// redacted `Debug`, constant-time equality, zeroize-on-drop.
#[derive(Clone)]
pub struct SraKey {
    e: UBig,
    d: UBig,
    /// Lazily-built fixed-exponent plans (encrypt/decrypt); the recoded
    /// schedule is as secret as the exponent and zeroizes on drop.
    plans: PlanCachePair,
}

impl std::fmt::Debug for SraKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SraKey")
            .field("e", &"<redacted>")
            .field("d", &"<redacted>")
            .finish()
    }
}

impl PartialEq for SraKey {
    fn eq(&self, other: &Self) -> bool {
        // Non-short-circuiting `&` so both fields are always compared.
        minshare_hash::ct::ct_eq_u64(self.e.limbs(), other.e.limbs())
            & minshare_hash::ct::ct_eq_u64(self.d.limbs(), other.d.limbs())
    }
}

impl Eq for SraKey {}

impl Drop for SraKey {
    fn drop(&mut self) {
        self.e.zeroize();
        self.d.zeroize();
    }
}

impl SraKey {
    /// The encryption exponent.
    pub fn exponent(&self) -> &UBig {
        &self.e
    }
}

impl SraContext {
    /// Generates shared parameters with an approximately `bits`-bit
    /// modulus (two `bits/2`-bit primes).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> Result<Self, CryptoError> {
        if bits < 16 {
            return Err(CryptoError::UnsupportedSize { bits });
        }
        let half = bits / 2;
        loop {
            let p = generate_prime(rng, half, 1_000_000)?;
            let q = generate_prime(rng, bits - half, 1_000_000)?;
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            let phi = p.sub_small(1)?.mul_ref(&q.sub_small(1)?);
            let ctx = std::sync::Arc::new(MontgomeryCtx::new(&n)?);
            return Ok(SraContext {
                n,
                phi,
                ctx,
                oracle: RandomOracle::new(b"minshare/sra/hash-to-domain/v1"),
            });
        }
    }

    /// The public modulus.
    pub fn modulus(&self) -> &UBig {
        &self.n
    }

    /// Samples a key with `gcd(e, φ(n)) = 1` and precomputes its inverse.
    pub fn gen_key<R: Rng + ?Sized>(&self, rng: &mut R) -> SraKey {
        loop {
            let e = random_range(rng, &UBig::from(3u64), &self.phi);
            if let Ok(d) = e.mod_inv(&self.phi) {
                return SraKey {
                    e,
                    d,
                    plans: PlanCachePair::new(),
                };
            }
        }
    }

    /// Hashes an arbitrary value into `Z_n^*` (random-oracle expansion,
    /// reduction with 128 bits of slack, gcd check with retry-by-counter).
    pub fn hash_to_domain(&self, value: &[u8]) -> UBig {
        let out_bytes = ((self.n.bit_len() + 128) as usize).div_ceil(8);
        // Invariant expects: `generate` only builds contexts with n = p·q
        // for distinct primes ≥ 2^7, so n-1 exists and is nonzero.
        let n_minus_1 = self.n.sub_small(1).expect("n > 1");
        let mut suffix = 0u32;
        loop {
            let mut input = value.to_vec();
            input.extend_from_slice(&suffix.to_be_bytes());
            let wide = UBig::from_be_bytes(&self.oracle.expand(&input, out_bytes));
            let x = wide.rem_ref(&n_minus_1).expect("n-1 nonzero").add_small(1);
            if x.gcd(&self.n).is_one() {
                return x;
            }
            // Probability ≈ 1/p + 1/q — astronomically rare for real
            // parameters, but handled for tiny test moduli.
            suffix += 1;
        }
    }

    /// `f_e(x) = x^e mod n`, through the key's cached fixed-exponent plan.
    pub fn encrypt(&self, key: &SraKey, x: &UBig) -> UBig {
        key.plans.enc_plan(&self.ctx, &key.e).pow(x)
    }

    /// `f_e⁻¹(y) = y^d mod n`.
    pub fn decrypt(&self, key: &SraKey, y: &UBig) -> UBig {
        key.plans.dec_plan(&self.ctx, &key.d).pow(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> SraContext {
        let mut rng = StdRng::seed_from_u64(0x54a);
        SraContext::generate(&mut rng, 64).unwrap()
    }

    #[test]
    fn commutativity_holds() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20u32 {
            let k1 = c.gen_key(&mut rng);
            let k2 = c.gen_key(&mut rng);
            let x = c.hash_to_domain(&i.to_be_bytes());
            assert_eq!(
                c.encrypt(&k1, &c.encrypt(&k2, &x)),
                c.encrypt(&k2, &c.encrypt(&k1, &x)),
                "i={i}"
            );
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..20u32 {
            let k = c.gen_key(&mut rng);
            let x = c.hash_to_domain(&i.to_be_bytes());
            assert_eq!(c.decrypt(&k, &c.encrypt(&k, &x)), x, "i={i}");
        }
    }

    #[test]
    fn cross_layer_stripping_works() {
        // The §4.1 trick under SRA: f_e1⁻¹(f_e2(f_e1(x))) = f_e2(x).
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let k1 = c.gen_key(&mut rng);
        let k2 = c.gen_key(&mut rng);
        let x = c.hash_to_domain(b"value");
        let double = c.encrypt(&k2, &c.encrypt(&k1, &x));
        assert_eq!(c.decrypt(&k1, &double), c.encrypt(&k2, &x));
    }

    #[test]
    fn intersection_math_under_sra() {
        // The §3.3 membership equation with SRA keys: v ∈ V_S ∩ V_R iff
        // f_eS(f_eR(h(v))) ∈ f_eR(f_eS(h(V_S))).
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let e_s = c.gen_key(&mut rng);
        let e_r = c.gen_key(&mut rng);
        let vs = [b"a".as_slice(), b"b", b"c"];
        let vr = [b"b".as_slice(), b"c", b"d"];
        let zs: std::collections::BTreeSet<UBig> = vs
            .iter()
            .map(|v| c.encrypt(&e_r, &c.encrypt(&e_s, &c.hash_to_domain(v))))
            .collect();
        let matched: Vec<&[u8]> = vr
            .iter()
            .filter(|v| {
                let t = c.encrypt(&e_s, &c.encrypt(&e_r, &c.hash_to_domain(v)));
                zs.contains(&t)
            })
            .copied()
            .collect();
        assert_eq!(matched, vec![b"b".as_slice(), b"c"]);
    }

    #[test]
    fn hash_lands_in_units() {
        let c = ctx();
        for i in 0..50u32 {
            let x = c.hash_to_domain(&i.to_be_bytes());
            assert!(x.gcd(c.modulus()).is_one());
            assert!(&x < c.modulus() && !x.is_zero());
        }
    }

    #[test]
    fn keys_are_invertible_by_construction() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let k = c.gen_key(&mut rng);
            let prod = k.e.mod_mul(&k.d, &c.phi).unwrap();
            assert!(prod.is_one());
        }
    }

    #[test]
    fn secrets_redacted_in_debug() {
        let c = ctx();
        let rendered = format!("{c:?}");
        assert!(rendered.contains("<redacted>"), "phi leaked: {rendered}");
        let mut rng = StdRng::seed_from_u64(7);
        let k = c.gen_key(&mut rng);
        let kd = format!("{k:?}");
        assert!(kd.contains("<redacted>"), "exponent leaked: {kd}");
        assert_eq!(k, k.clone());
        assert_ne!(k, c.gen_key(&mut rng));
    }

    #[test]
    fn tiny_modulus_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            SraContext::generate(&mut rng, 8),
            Err(CryptoError::UnsupportedSize { .. })
        ));
    }
}
