//! The quadratic-residue group `QR_p` modulo a safe prime — the paper's
//! `DomF` (Example 1) — together with key sampling, element sampling, and
//! the random-oracle hash into the group.
//!
//! Elements are carried as *signed residues*: `p ≡ 3 (mod 4)` makes −1 a
//! non-residue, so exactly one of `±x` lies in `QR_p`, and
//! `x ↦ min(x, p − x)` maps `QR_p` isomorphically onto `[1, q]`, with
//! "multiply mod `p`, then fold" as the group law (Hofheinz–Kiltz,
//! CRYPTO 2009). Membership is then a range check, not a Jacobi symbol.

use std::sync::Arc;

use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::random::{random_below, random_range};
use minshare_bignum::safe_prime::{generate_safe_prime, is_safe_prime, well_known_safe_prime};
use minshare_bignum::{KernelTier, UBig};
use minshare_hash::RandomOracle;
use rand::Rng;

use crate::commutative::CommutativeKey;
use crate::error::CryptoError;

/// Extra uniformly random bits drawn before reduction when hashing into the
/// group, making the mod-bias `2^-128`-negligible.
const HASH_SLACK_BITS: u64 = 128;

/// The group of quadratic residues modulo a safe prime `p = 2q + 1`,
/// each element carried as its signed residue in `[1, q]`.
///
/// * `DomF = QR_p` has prime order `q`, so DDH is plausible and every
///   non-identity element generates the group.
/// * `KeyF = {1, …, q-1}` (Example 1 of the paper).
///
/// Cloning is cheap: the Montgomery context is shared behind an [`Arc`].
#[derive(Clone, Debug)]
pub struct QrGroup {
    p: UBig,
    q: UBig,
    ctx: Arc<MontgomeryCtx>,
    oracle: RandomOracle,
}

impl QrGroup {
    /// Builds a group from a known safe prime, verifying safety
    /// probabilistically with `rng`.
    pub fn new<R: Rng + ?Sized>(p: UBig, rng: &mut R) -> Result<Self, CryptoError> {
        if !is_safe_prime(&p, rng) {
            return Err(CryptoError::NotSafePrime);
        }
        Self::new_unchecked(p)
    }

    /// Builds a group from a safe prime **without** re-verifying primality.
    /// Use only for vetted constants (e.g. the RFC groups) or freshly
    /// generated primes. Refuses `p < 7` and `p ≢ 3 (mod 4)`: there −1 is
    /// a residue and the signed-residue encoding is not a group.
    pub fn new_unchecked(p: UBig) -> Result<Self, CryptoError> {
        if p < UBig::from(7u64) || !(p.bit(0) && p.bit(1)) {
            return Err(CryptoError::NotSafePrime);
        }
        let q = p.shr_bits(1);
        let ctx = MontgomeryCtx::new(&p)?;
        let oracle = RandomOracle::new(b"minshare/qr-group/hash-to-group/v1");
        Ok(QrGroup {
            p,
            q,
            ctx: Arc::new(ctx),
            oracle,
        })
    }

    /// Generates a fresh random safe-prime group with `bits`-bit modulus.
    /// Suitable for tests and small parameters; large sizes take minutes.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> Result<Self, CryptoError> {
        let p = generate_safe_prime(rng, bits, 10_000_000)?;
        Self::new_unchecked(p)
    }

    /// Loads one of the bundled RFC 2409 / RFC 3526 safe-prime groups
    /// (768, 1024, 1536 or 2048 bits). The paper's cost analysis assumes
    /// the 1024-bit size.
    pub fn well_known(bits: u64) -> Result<Self, CryptoError> {
        let p = well_known_safe_prime(bits).ok_or(CryptoError::UnsupportedSize { bits })?;
        Self::new_unchecked(p)
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> &UBig {
        &self.p
    }

    /// The group order `q = (p-1)/2`.
    pub fn order(&self) -> &UBig {
        &self.q
    }

    /// Bit length `k` of the modulus — the paper's codeword size (§6.1
    /// counts communication in `k`-bit encrypted codewords).
    pub fn codeword_bits(&self) -> u64 {
        self.p.bit_len()
    }

    /// Bytes needed to serialize one group element (fixed width).
    pub fn codeword_bytes(&self) -> usize {
        self.codeword_bits().div_ceil(8) as usize
    }

    /// A fixed generator of `QR_p`: the signed residue of `4 = 2²`, which is
    /// always a quadratic residue; in a prime-order group every
    /// non-identity element generates.
    pub fn generator(&self) -> UBig {
        fold(&self.p, UBig::from(4u64))
    }

    /// Membership test: a signed residue is exactly an integer in `[1, q]`.
    pub fn is_member(&self, x: &UBig) -> bool {
        !x.is_zero() && x <= &self.q
    }

    /// Uniformly samples a group element from `[1, q]`.
    pub fn sample_element<R: Rng + ?Sized>(&self, rng: &mut R) -> UBig {
        random_below(rng, &self.q).add_small(1)
    }

    /// Uniformly samples a commutative-encryption key from
    /// `KeyF = {1, …, q-1}` and precomputes its inverse.
    pub fn gen_key<R: Rng + ?Sized>(&self, rng: &mut R) -> CommutativeKey {
        loop {
            let e = random_range(rng, &UBig::one(), &self.q);
            // With prime q every e ∈ {1..q-1} is invertible, so this
            // accepts on the first draw; the loop (rather than an
            // `expect`) covers callers who built a group on a composite
            // "safe prime" via `new_unchecked`.
            if let Ok(key) = CommutativeKey::from_exponent(e, &self.q) {
                return key;
            }
        }
    }

    /// Reconstructs a key from a raw exponent (validating it lies in
    /// `KeyF`).
    pub fn key_from_exponent(&self, e: UBig) -> Result<CommutativeKey, CryptoError> {
        CommutativeKey::from_exponent(e, &self.q)
    }

    /// The ideal hash `h : V → DomF` of §3.2.2, instantiated as
    /// random-oracle expansion reduced straight into the signed residues:
    /// `h(v) = RO(v) mod q + 1 ∈ [1, q]`.
    ///
    /// The 128 extra bits of expansion make the reduction bias negligible.
    pub fn hash_to_group(&self, value: &[u8]) -> UBig {
        let out_bytes = ((self.p.bit_len() + HASH_SLACK_BITS) as usize).div_ceil(8);
        let wide = UBig::from_be_bytes(&self.oracle.expand(value, out_bytes));
        // Construction validates p ≥ 7, so q is nonzero and the reduction
        // cannot fail; the identity fallback is dead code kept only to
        // avoid a panic path in library code.
        match wide.rem_ref(&self.q) {
            Ok(r) => r.add_small(1),
            Err(_) => UBig::one(),
        }
    }

    /// Group multiplication: `a · b mod p`, folded.
    pub fn mul(&self, a: &UBig, b: &UBig) -> UBig {
        fold(&self.p, self.ctx.mul(a, b))
    }

    /// Group inverse: `a⁻¹ mod p`, folded.
    pub fn inv(&self, a: &UBig) -> Result<UBig, CryptoError> {
        Ok(fold(&self.p, a.mod_inv(&self.p)?))
    }

    /// Exponentiation `base^exp mod p`, folded, through the shared
    /// Montgomery context. One call with a full-size exponent is the
    /// paper's `Ce` cost unit.
    pub fn pow(&self, base: &UBig, exp: &UBig) -> UBig {
        fold(&self.p, self.ctx.pow(base, exp))
    }

    /// The kernel tier batch encryptions under this group run on — a
    /// function of the CPU and the modulus width, so public.
    pub fn kernel_tier(&self) -> KernelTier {
        self.ctx.kernel_tier()
    }

    /// The shared Montgomery context for `mod p`, for building
    /// fixed-exponent plans against this group.
    pub(crate) fn mont_ctx(&self) -> &Arc<MontgomeryCtx> {
        &self.ctx
    }

    /// Serializes a group element to the fixed codeword width.
    pub fn encode_element(&self, x: &UBig) -> Result<Vec<u8>, CryptoError> {
        Ok(x.to_be_bytes_padded(self.codeword_bytes())?)
    }

    /// Parses and validates a group element from codeword bytes.
    pub fn decode_element(&self, bytes: &[u8]) -> Result<UBig, CryptoError> {
        if bytes.len() != self.codeword_bytes() {
            return Err(CryptoError::MalformedCiphertext);
        }
        let x = UBig::from_be_bytes(bytes);
        if !self.is_member(&x) {
            return Err(CryptoError::NotGroupElement);
        }
        Ok(x)
    }
}

/// The signed residue `min(x, p − x)` of a Montgomery result `x ∈ [0, p)`.
/// Every result that leaves the crate passes through here; since
/// `(−x)^e = ±x^e`, either representative of an input folds to the same
/// output.
pub(crate) fn fold(p: &UBig, x: UBig) -> UBig {
    match p.checked_sub(&x) {
        Ok(neg) if neg < x => neg,
        _ => x,
    }
}

impl PartialEq for QrGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p
    }
}

impl Eq for QrGroup {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x6702)
    }

    fn small_group() -> QrGroup {
        // p = 2879 is a safe prime (q = 1439 prime).
        QrGroup::new_unchecked(UBig::from(2879u64)).unwrap()
    }

    #[test]
    fn new_validates_safety() {
        let mut r = rng();
        assert!(QrGroup::new(UBig::from(23u64), &mut r).is_ok());
        // 13 is prime but not safe; 15 is composite.
        assert_eq!(
            QrGroup::new(UBig::from(13u64), &mut r).unwrap_err(),
            CryptoError::NotSafePrime
        );
        assert_eq!(
            QrGroup::new(UBig::from(15u64), &mut r).unwrap_err(),
            CryptoError::NotSafePrime
        );
    }

    #[test]
    fn new_unchecked_refuses_moduli_where_folding_is_not_a_group() {
        // 5 ≡ 1 (mod 4): −1 is a residue there.
        for p in [0u64, 3, 5, 9, 13] {
            assert_eq!(
                QrGroup::new_unchecked(UBig::from(p)).unwrap_err(),
                CryptoError::NotSafePrime,
                "p = {p}"
            );
        }
        for p in [7u64, 23, 2879] {
            assert!(QrGroup::new_unchecked(UBig::from(p)).is_ok(), "p = {p}");
        }
    }

    #[test]
    fn order_is_half() {
        let g = small_group();
        assert_eq!(g.order(), &UBig::from(1439u64));
        assert_eq!(g.codeword_bits(), 12);
        assert_eq!(g.codeword_bytes(), 2);
    }

    #[test]
    fn generator_is_member_with_full_order() {
        let g = small_group();
        let gen = g.generator();
        assert!(g.is_member(&gen));
        // gen^q == 1 and gen^1 != 1.
        assert_eq!(g.pow(&gen, g.order()), UBig::one());
        assert!(!g.pow(&gen, &UBig::one()).is_one());
    }

    #[test]
    fn membership_counts_are_exact() {
        // Exactly the q = 1439 signed residues [1, q], identity included.
        let g = small_group();
        let accepted: Vec<u64> = (0u64..2879)
            .filter(|&x| g.is_member(&UBig::from(x)))
            .collect();
        assert_eq!(accepted, (1u64..=1439).collect::<Vec<_>>());
        assert!(g.is_member(&UBig::one()));
        assert!(!g.is_member(&UBig::zero()));
        assert!(!g.is_member(&UBig::from(2879u64)));
    }

    #[test]
    fn sampled_elements_are_members() {
        let g = small_group();
        let mut r = rng();
        for _ in 0..200 {
            let x = g.sample_element(&mut r);
            assert!(g.is_member(&x), "x={x}");
        }
    }

    #[test]
    fn hash_lands_in_group_and_is_deterministic() {
        let g = small_group();
        for v in [&b"alice"[..], b"bob", b"", b"\x00\x01\x02"] {
            let h = g.hash_to_group(v);
            assert!(g.is_member(&h), "v={v:?}");
            assert_eq!(h, g.hash_to_group(v));
        }
        assert_ne!(g.hash_to_group(b"alice"), g.hash_to_group(b"bob"));
    }

    #[test]
    fn hash_distribution_covers_group() {
        // Hashing many values should hit a decent fraction of the 1439
        // residues, and only residues.
        let g = small_group();
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u32 {
            let h = g.hash_to_group(&i.to_be_bytes());
            assert!(g.is_member(&h));
            seen.insert(h.to_u64().unwrap());
        }
        // Coupon-collector-ish: expect > 1000 distinct of 1439.
        assert!(seen.len() > 1000, "only {} distinct", seen.len());
    }

    #[test]
    fn keys_land_in_keyf() {
        let g = small_group();
        let mut r = rng();
        for _ in 0..100 {
            let k = g.gen_key(&mut r);
            assert!(!k.exponent().is_zero());
            assert!(k.exponent() < g.order());
        }
    }

    #[test]
    fn key_from_exponent_validates() {
        let g = small_group();
        assert!(g.key_from_exponent(UBig::from(7u64)).is_ok());
        assert!(g.key_from_exponent(UBig::zero()).is_err());
        assert!(g.key_from_exponent(UBig::from(1439u64)).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let g = small_group();
        let mut r = rng();
        let x = g.sample_element(&mut r);
        let bytes = g.encode_element(&x).unwrap();
        assert_eq!(bytes.len(), g.codeword_bytes());
        assert_eq!(g.decode_element(&bytes).unwrap(), x);
    }

    #[test]
    fn decode_rejects_nonmembers_and_bad_lengths() {
        let g = small_group();
        // 0, q + 1 and p − 1 fit the codeword width but are no signed
        // residues.
        for bad in [0u64, 1440, 2878] {
            let bytes = g.encode_element(&UBig::from(bad)).unwrap();
            assert_eq!(
                g.decode_element(&bytes).unwrap_err(),
                CryptoError::NotGroupElement,
                "x = {bad}"
            );
        }
        assert_eq!(
            g.decode_element(&[0u8; 5]).unwrap_err(),
            CryptoError::MalformedCiphertext
        );
    }

    #[test]
    fn well_known_groups_load() {
        for bits in [768u64, 1024] {
            let g = QrGroup::well_known(bits).unwrap();
            assert_eq!(g.codeword_bits(), bits);
        }
        assert!(matches!(
            QrGroup::well_known(512),
            Err(CryptoError::UnsupportedSize { bits: 512 })
        ));
    }

    #[test]
    fn default_build_runs_the_served_group_on_the_detected_tier() {
        // What the benchmark's client and any library user build: the
        // IFMA tier the daemon runs, whenever this CPU has it.
        #[cfg(target_arch = "x86_64")]
        let ifma = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma");
        #[cfg(not(target_arch = "x86_64"))]
        let ifma = false;
        let g = QrGroup::well_known(1024).unwrap();
        assert_eq!(g.kernel_tier() == KernelTier::Ifma52x8, ifma);
        assert_eq!(g.mont_ctx().simd_active(), ifma);
    }

    #[test]
    fn generated_group_works_end_to_end() {
        let mut r = rng();
        let g = QrGroup::generate(&mut r, 48).unwrap();
        let x = g.hash_to_group(b"v");
        let k = g.gen_key(&mut r);
        let y = g.pow(&x, k.exponent());
        assert!(g.is_member(&y));
    }
}
