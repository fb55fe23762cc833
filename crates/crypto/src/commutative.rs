//! The commutative encryption `F` of the paper (Definition 2), instantiated
//! as the power function `f_e(x) = x^e mod p` over `QR_p` (Example 1).
//!
//! Properties delivered (and tested here):
//!
//! 1. **Commutativity** — `f_{e}(f_{e'}(x)) = f_{e'}(f_{e}(x))`, because
//!    `(x^{e'})^e = x^{e·e'} = (x^e)^{e'}`.
//! 2. **Bijectivity** — each `f_e` permutes `QR_p`, since
//!    `gcd(e, q) = 1` for `e ∈ {1..q-1}` with `q` prime.
//! 3. **Efficient inversion** — `f_e⁻¹ = f_{e⁻¹ mod q}` (precomputed at
//!    key generation).
//! 4. **Indistinguishability** (Property 4) — under DDH in `QR_p`; not a
//!    testable property, but the sampling obeys the construction the DDH
//!    reduction in the paper's Example 1 requires.

use std::sync::Arc;

use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::{FixedExponentPlan, UBig};
use rand::Rng;

use crate::error::CryptoError;
use crate::group::{fold, QrGroup};
use crate::plan::PlanCachePair;

/// A commutative-encryption key: the exponent `e ∈ KeyF = {1..q-1}` and
/// its precomputed inverse `e⁻¹ mod q`.
///
/// Secret hygiene: `Debug` is redacted (the exponent is the whole
/// secret), equality is constant-time over the limb words, and dropping
/// the key best-effort-zeroizes both exponents.
///
/// This type is registered in the analyzer's taint registry
/// (`SECRET_TYPES` in `crates/analyzer/src/registry.rs`): every binding
/// annotated with it seeds `KEY` taint, and WIRE01 fails the build if
/// any dataflow from it reaches a wire sink. Rename it and the registry
/// entry must move with it.
#[derive(Clone)]
pub struct CommutativeKey {
    e: UBig,
    e_inv: UBig,
    /// Lazily-built fixed-exponent plans for each direction; the recoded
    /// schedule is as secret as the exponent and zeroizes on drop.
    plans: PlanCachePair,
}

impl std::fmt::Debug for CommutativeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommutativeKey")
            .field("e", &"<redacted>")
            .field("e_inv", &"<redacted>")
            .finish()
    }
}

impl PartialEq for CommutativeKey {
    fn eq(&self, other: &Self) -> bool {
        // Non-short-circuiting `&` so both fields are always compared.
        minshare_hash::ct::ct_eq_u64(self.e.limbs(), other.e.limbs())
            & minshare_hash::ct::ct_eq_u64(self.e_inv.limbs(), other.e_inv.limbs())
    }
}

impl Eq for CommutativeKey {}

impl Drop for CommutativeKey {
    fn drop(&mut self) {
        self.e.zeroize();
        self.e_inv.zeroize();
    }
}

impl CommutativeKey {
    /// Validates `e ∈ {1..q-1}` and precomputes the decryption exponent.
    pub fn from_exponent(e: UBig, q: &UBig) -> Result<Self, CryptoError> {
        if e.is_zero() || &e >= q {
            return Err(CryptoError::InvalidKey);
        }
        let e_inv = e.mod_inv(q).map_err(|_| CryptoError::InvalidKey)?;
        Ok(CommutativeKey {
            e,
            e_inv,
            plans: PlanCachePair::new(),
        })
    }

    /// The encryption exponent.
    pub fn exponent(&self) -> &UBig {
        &self.e
    }

    /// The decryption exponent `e⁻¹ mod q`.
    pub fn inverse_exponent(&self) -> &UBig {
        &self.e_inv
    }

    /// The cached encryption plan for this key under `ctx` (built on
    /// first use, shared by clones of the key).
    pub(crate) fn enc_plan(&self, ctx: &Arc<MontgomeryCtx>) -> Arc<FixedExponentPlan> {
        self.plans.enc_plan(ctx, &self.e)
    }

    /// The cached decryption plan for this key under `ctx`.
    pub(crate) fn dec_plan(&self, ctx: &Arc<MontgomeryCtx>) -> Arc<FixedExponentPlan> {
        self.plans.dec_plan(ctx, &self.e_inv)
    }
}

impl QrGroup {
    /// `f_e(x) = x^e mod p`. The input must be a group element — in the
    /// protocols it always is, because values enter the group through
    /// [`QrGroup::hash_to_group`]. Goes through the key's cached
    /// fixed-exponent plan, so repeated calls skip the exponent recoding.
    pub fn encrypt(&self, key: &CommutativeKey, x: &UBig) -> UBig {
        fold(self.modulus(), key.enc_plan(self.mont_ctx()).pow(x))
    }

    /// `f_e⁻¹(y) = y^(e⁻¹ mod q) mod p`.
    pub fn decrypt(&self, key: &CommutativeKey, y: &UBig) -> UBig {
        fold(self.modulus(), key.dec_plan(self.mont_ctx()).pow(y))
    }

    /// `f_e` over a whole batch on the calling thread, through the key's
    /// cached plan and the multi-lane batch dispatch
    /// ([`minshare_bignum::FixedExponentPlan::pow_batch`]). Same results
    /// as mapping [`QrGroup::encrypt`], faster per item. For parallel
    /// batches use [`crate::EncryptPool`].
    pub fn encrypt_many(&self, key: &CommutativeKey, items: &[UBig]) -> Vec<UBig> {
        let out = key.enc_plan(self.mont_ctx()).pow_batch(items);
        out.into_iter().map(|y| fold(self.modulus(), y)).collect()
    }

    /// Checked variant of [`QrGroup::encrypt`] for untrusted inputs.
    pub fn encrypt_checked(&self, key: &CommutativeKey, x: &UBig) -> Result<UBig, CryptoError> {
        if !self.is_member(x) {
            return Err(CryptoError::NotGroupElement);
        }
        Ok(self.encrypt(key, x))
    }

    /// Checked variant of [`QrGroup::decrypt`] for untrusted inputs.
    pub fn decrypt_checked(&self, key: &CommutativeKey, y: &UBig) -> Result<UBig, CryptoError> {
        if !self.is_member(y) {
            return Err(CryptoError::NotGroupElement);
        }
        Ok(self.decrypt(key, y))
    }

    /// Hashes a value and encrypts it: `f_e(h(v))` — the composition every
    /// protocol step uses.
    pub fn hash_encrypt(&self, key: &CommutativeKey, value: &[u8]) -> UBig {
        self.encrypt(key, &self.hash_to_group(value))
    }
}

/// Samples a key pair `(e_S, e'_S)` — the sender in the equijoin protocol
/// holds two independent keys (§4.3 step 1).
pub fn gen_key_pair<R: Rng + ?Sized>(
    group: &QrGroup,
    rng: &mut R,
) -> (CommutativeKey, CommutativeKey) {
    (group.gen_key(rng), group.gen_key(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xc0117)
    }

    fn group() -> QrGroup {
        QrGroup::new_unchecked(UBig::from(2879u64)).unwrap()
    }

    #[test]
    fn key_validation() {
        let q = UBig::from(1439u64);
        assert!(CommutativeKey::from_exponent(UBig::from(1u64), &q).is_ok());
        assert!(CommutativeKey::from_exponent(UBig::from(1438u64), &q).is_ok());
        assert_eq!(
            CommutativeKey::from_exponent(UBig::zero(), &q).unwrap_err(),
            CryptoError::InvalidKey
        );
        assert_eq!(
            CommutativeKey::from_exponent(UBig::from(1439u64), &q).unwrap_err(),
            CryptoError::InvalidKey
        );
    }

    #[test]
    fn key_debug_redacted_and_equality_semantic() {
        let g = group();
        let k = g.key_from_exponent(UBig::from(7u64)).unwrap();
        let rendered = format!("{k:?}");
        assert!(rendered.contains("<redacted>"));
        assert!(!rendered.contains('7'), "exponent leaked: {rendered}");
        assert_eq!(k, g.key_from_exponent(UBig::from(7u64)).unwrap());
        assert_ne!(k, g.key_from_exponent(UBig::from(11u64)).unwrap());
    }

    #[test]
    fn encryption_commutes() {
        let g = group();
        let mut r = rng();
        for _ in 0..50 {
            let e1 = g.gen_key(&mut r);
            let e2 = g.gen_key(&mut r);
            let x = g.sample_element(&mut r);
            assert_eq!(
                g.encrypt(&e1, &g.encrypt(&e2, &x)),
                g.encrypt(&e2, &g.encrypt(&e1, &x))
            );
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let g = group();
        let mut r = rng();
        for _ in 0..50 {
            let k = g.gen_key(&mut r);
            let x = g.sample_element(&mut r);
            assert_eq!(g.decrypt(&k, &g.encrypt(&k, &x)), x);
            assert_eq!(g.encrypt(&k, &g.decrypt(&k, &x)), x);
        }
    }

    #[test]
    fn encryption_is_bijective_on_small_group() {
        // Exhaustively: f_e permutes the 1439 residues.
        let g = group();
        let k = g.key_from_exponent(UBig::from(7u64)).unwrap();
        let mut images = std::collections::HashSet::new();
        for x in 1u64..2879 {
            let xb = UBig::from(x);
            if !g.is_member(&xb) {
                continue;
            }
            let y = g.encrypt(&k, &xb);
            assert!(g.is_member(&y), "image must stay in group");
            assert!(images.insert(y.to_u64().unwrap()), "collision at x={x}");
        }
        assert_eq!(images.len(), 1439);
    }

    #[test]
    fn cross_decryption_recovers_single_layer() {
        // R applies f_eR^-1 to f_e'S(f_eR(h(v))) and gets f_e'S(h(v)) —
        // the key step of the equijoin protocol (§4.1).
        let g = group();
        let mut r = rng();
        let e_r = g.gen_key(&mut r);
        let e_s = g.gen_key(&mut r);
        let x = g.hash_to_group(b"join-value");
        let both = g.encrypt(&e_s, &g.encrypt(&e_r, &x));
        assert_eq!(g.decrypt(&e_r, &both), g.encrypt(&e_s, &x));
    }

    #[test]
    fn checked_variants_reject_nonmembers() {
        let g = group();
        let mut r = rng();
        let k = g.gen_key(&mut r);
        // 0, q + 1 and p − 1: in the codeword width, outside [1, q].
        for bad in [0u64, 1440, 2878].map(UBig::from) {
            assert_eq!(
                g.encrypt_checked(&k, &bad).unwrap_err(),
                CryptoError::NotGroupElement
            );
            assert_eq!(
                g.decrypt_checked(&k, &bad).unwrap_err(),
                CryptoError::NotGroupElement
            );
        }
        let good = g.sample_element(&mut r);
        assert!(g.encrypt_checked(&k, &good).is_ok());
    }

    #[test]
    fn hash_encrypt_composes() {
        let g = group();
        let mut r = rng();
        let k = g.gen_key(&mut r);
        assert_eq!(
            g.hash_encrypt(&k, b"v"),
            g.encrypt(&k, &g.hash_to_group(b"v"))
        );
    }

    #[test]
    fn key_pair_is_independent() {
        let g = group();
        let mut r = rng();
        let (a, b) = gen_key_pair(&g, &mut r);
        assert_ne!(a.exponent(), b.exponent());
    }

    #[test]
    fn identity_key_is_legal_but_weak() {
        // e = 1 is in KeyF per the paper's definition; it must round-trip
        // (the protocols never sample it with more than 1/q probability).
        let g = group();
        let k = g.key_from_exponent(UBig::one()).unwrap();
        let x = g.hash_to_group(b"x");
        assert_eq!(g.encrypt(&k, &x), x);
        assert_eq!(g.decrypt(&k, &x), x);
    }
}
