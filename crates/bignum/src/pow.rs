//! Modular exponentiation.
//!
//! [`UBig::modpow`] is the crate's general entry point: it uses Montgomery
//! arithmetic for odd moduli (the only case the protocols need — safe
//! primes are odd) and falls back to binary square-and-multiply with
//! division-based reduction otherwise. The fallback doubles as an
//! independent oracle for testing the Montgomery path.

use crate::montgomery::MontgomeryCtx;
use crate::UBig;

impl UBig {
    /// `self^exponent mod modulus`.
    ///
    /// # Panics
    /// Panics if `modulus` is zero (a programming error in this crate's
    /// callers: protocol code always works modulo a fixed public prime).
    pub fn modpow(&self, exponent: &UBig, modulus: &UBig) -> UBig {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return UBig::zero();
        }
        if modulus.is_odd() {
            // Same-modulus loops should build the context once and call
            // `MontgomeryCtx::pow`: this pays the `R mod n` / `R² mod n`
            // precompute divisions on every call.
            let ctx = MontgomeryCtx::new(modulus).expect("odd modulus > 1");
            return ctx.pow(self, exponent);
        }
        self.modpow_binary(exponent, modulus)
    }

    /// Schoolbook square-and-multiply with division-based reduction.
    /// Correct for any modulus ≥ 2; used as the testing oracle.
    pub fn modpow_binary(&self, exponent: &UBig, modulus: &UBig) -> UBig {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return UBig::zero();
        }
        let mut base = self.rem_ref(modulus).expect("modulus nonzero");
        let mut result = UBig::one();
        let bits = exponent.bit_len();
        for i in 0..bits {
            if exponent.bit(i) {
                result = result.mod_mul(&base, modulus).expect("modulus nonzero");
            }
            if i + 1 < bits {
                base = base.mod_mul(&base, modulus).expect("modulus nonzero");
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cases() {
        let m = UBig::from(1000u64);
        assert_eq!(
            UBig::from(2u64).modpow(&UBig::from(10u64), &m),
            UBig::from(24u64)
        );
        assert_eq!(UBig::from(5u64).modpow(&UBig::zero(), &m), UBig::one());
        assert_eq!(UBig::from(5u64).modpow(&UBig::one(), &m), UBig::from(5u64));
        assert_eq!(UBig::zero().modpow(&UBig::from(5u64), &m), UBig::zero());
    }

    #[test]
    fn modulus_one_gives_zero() {
        assert_eq!(
            UBig::from(5u64).modpow(&UBig::from(3u64), &UBig::one()),
            UBig::zero()
        );
    }

    #[test]
    fn fermat_little_theorem() {
        let p = UBig::from(1_000_000_007u64);
        let pm1 = p.sub_small(1).unwrap();
        for a in [2u64, 3, 65537, 999_999_999] {
            assert_eq!(UBig::from(a).modpow(&pm1, &p), UBig::one(), "a={a}");
        }
    }

    #[test]
    fn even_modulus_fallback() {
        // 3^5 mod 16 = 243 mod 16 = 3.
        assert_eq!(
            UBig::from(3u64).modpow(&UBig::from(5u64), &UBig::from(16u64)),
            UBig::from(3u64)
        );
    }

    #[test]
    fn binary_matches_u128_oracle() {
        let m = 0xffff_fffb_u64; // prime
        let mut acc: u128 = 1;
        let base = 0x1234_5678u64;
        for e in 0..50u64 {
            let fast = UBig::from(base).modpow_binary(&UBig::from(e), &UBig::from(m));
            assert_eq!(fast.to_u64(), Some(acc as u64), "e={e}");
            acc = acc * base as u128 % m as u128;
        }
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn zero_modulus_panics() {
        let _ = UBig::one().modpow(&UBig::one(), &UBig::zero());
    }
}
