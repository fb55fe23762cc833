//! Modular arithmetic: residue normalization, addition, subtraction,
//! multiplication, extended-Euclid inversion, and the Jacobi symbol.
//!
//! The commutative cipher needs inversion to decrypt (`f_e⁻¹ = f_{e⁻¹ mod q}`,
//! Example 1 of the paper) and the Jacobi symbol to recognize quadratic
//! residues, i.e. membership in `DomF`.

use crate::error::BigNumError;
use crate::limb::{sbb, Limb, LIMB_BITS};
use crate::montgomery::geq;
use crate::UBig;

/// Sign-magnitude helper used by the extended Euclidean algorithm.
#[derive(Clone, Debug)]
struct Signed {
    mag: UBig,
    neg: bool,
}

impl Signed {
    fn from_ubig(mag: UBig) -> Self {
        Signed { mag, neg: false }
    }

    /// `self - q * other`.
    fn sub_mul(&self, q: &UBig, other: &Signed) -> Signed {
        let prod = q.mul_ref(&other.mag);
        if self.neg == other.neg {
            // Same sign: magnitudes subtract.
            if self.mag >= prod {
                Signed {
                    mag: self.mag.checked_sub(&prod).expect("ordered"),
                    neg: self.neg,
                }
            } else {
                Signed {
                    mag: prod.checked_sub(&self.mag).expect("ordered"),
                    neg: !self.neg,
                }
            }
        } else {
            // Opposite signs: magnitudes add, sign of self wins.
            Signed {
                mag: self.mag.add_ref(&prod),
                neg: self.neg,
            }
        }
    }

    /// Reduces into `[0, m)`.
    fn to_residue(&self, m: &UBig) -> Result<UBig, BigNumError> {
        let r = self.mag.rem_ref(m)?;
        if self.neg && !r.is_zero() {
            Ok(m.checked_sub(&r).expect("r < m"))
        } else {
            Ok(r)
        }
    }
}

/// Result of the Jacobi symbol `(a/n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jacobi {
    /// `(a/n) = 1`.
    One,
    /// `(a/n) = -1`.
    MinusOne,
    /// `(a/n) = 0`, i.e. `gcd(a, n) > 1`.
    Zero,
}

impl Jacobi {
    /// The symbol as `+1`, `-1` or `0`.
    pub fn as_i32(self) -> i32 {
        match self {
            Jacobi::One => 1,
            Jacobi::MinusOne => -1,
            Jacobi::Zero => 0,
        }
    }
}

impl UBig {
    /// `(self + other) mod m`, for operands already reduced mod `m`.
    pub fn mod_add(&self, other: &UBig, m: &UBig) -> UBig {
        debug_assert!(self < m && other < m);
        let s = self.add_ref(other);
        if &s >= m {
            s.checked_sub(m).expect("s < 2m")
        } else {
            s
        }
    }

    /// `(self - other) mod m`, for operands already reduced mod `m`.
    pub fn mod_sub(&self, other: &UBig, m: &UBig) -> UBig {
        debug_assert!(self < m && other < m);
        if self >= other {
            self.checked_sub(other).expect("ordered")
        } else {
            m.checked_sub(other).expect("other < m").add_ref(self)
        }
    }

    /// `(self * other) mod m` via full product + reduction. For repeated
    /// multiplication under one modulus prefer
    /// [`crate::montgomery::MontgomeryCtx`].
    pub fn mod_mul(&self, other: &UBig, m: &UBig) -> Result<UBig, BigNumError> {
        self.mul_ref(other).rem_ref(m)
    }

    /// Greatest common divisor (Euclid; operands may be in any order).
    pub fn gcd(&self, other: &UBig) -> UBig {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem_ref(&b).expect("b nonzero");
            a = b;
            b = r;
        }
        a
    }

    /// Multiplicative inverse of `self` modulo `m`
    /// (errors if `gcd(self, m) != 1` or `m < 2`).
    pub fn mod_inv(&self, m: &UBig) -> Result<UBig, BigNumError> {
        if m < &UBig::two() {
            return Err(BigNumError::NonInvertible);
        }
        let a = self.rem_ref(m)?;
        if a.is_zero() {
            return Err(BigNumError::NonInvertible);
        }
        // Extended Euclid on (r0, r1) = (m, a), tracking only the `a`
        // coefficient t.
        let mut r0 = m.clone();
        let mut r1 = a;
        let mut t0 = Signed::from_ubig(UBig::zero());
        let mut t1 = Signed::from_ubig(UBig::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1)?;
            let t2 = t0.sub_mul(&q, &t1);
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return Err(BigNumError::NonInvertible);
        }
        t0.to_residue(m)
    }

    /// Jacobi symbol `(self / n)` for odd `n > 0`. For prime `n` this is
    /// the Legendre symbol, so `Jacobi::One` identifies quadratic residues.
    ///
    /// Binary algorithm over two fixed-width limb buffers: no division and
    /// no allocation inside the loop. This is the per-codeword membership
    /// test of the decode layer (`QrGroup::is_member`), so it runs once for
    /// every group element a peer sends.
    pub fn jacobi(&self, n: &UBig) -> Result<Jacobi, BigNumError> {
        if n.is_zero() || n.is_even() {
            return Err(BigNumError::EvenModulus);
        }
        let mut b = n.limbs().to_vec();
        let mut a = if self < n {
            self.limbs().to_vec()
        } else {
            self.rem_ref(n)?.limbs().to_vec()
        };
        a.resize(b.len(), 0);
        Ok(jacobi_binary(&mut a, &mut b))
    }
}

/// `(a / b)` for `a < b`, `b` odd, as equal-length little-endian limb
/// buffers (both are consumed as scratch). Each round strips the factors of
/// two from `a` (a sign flip per odd power when `b ≡ 3, 5 mod 8`), swaps so
/// that `a ≥ b` (quadratic reciprocity: a flip when both are `≡ 3 mod 4`)
/// and subtracts, which leaves `a` even again; `b` ends as `gcd(a, b)`.
fn jacobi_binary<'a>(mut a: &'a mut [Limb], mut b: &'a mut [Limb]) -> Jacobi {
    debug_assert!(a.len() == b.len() && b[0] & 1 == 1);
    // Limbs at `len..` are zero in both buffers.
    let mut len = a.len();
    let mut negative = false;
    loop {
        while len > 1 && a[len - 1] == 0 && b[len - 1] == 0 {
            len -= 1;
        }
        let Some(low) = a[..len].iter().position(|&limb| limb != 0) else {
            break; // a = 0: b is the gcd
        };
        let shift = low as u64 * LIMB_BITS as u64 + a[low].trailing_zeros() as u64;
        shr_in_place(&mut a[..len], shift);
        if shift & 1 == 1 && matches!(b[0] & 7, 3 | 5) {
            negative = !negative;
        }
        if !geq(&a[..len], &b[..len]) {
            std::mem::swap(&mut a, &mut b);
            if a[0] & b[0] & 3 == 3 {
                negative = !negative;
            }
        }
        let mut borrow: Limb = 0;
        for (x, &y) in a[..len].iter_mut().zip(&b[..len]) {
            *x = sbb(*x, y, &mut borrow);
        }
        debug_assert_eq!(borrow, 0);
    }
    if b[0] != 1 || b[1..len].iter().any(|&limb| limb != 0) {
        Jacobi::Zero
    } else if negative {
        Jacobi::MinusOne
    } else {
        Jacobi::One
    }
}

/// `x >>= bits` in place (`bits` below the buffer's width).
fn shr_in_place(x: &mut [Limb], bits: u64) {
    let limbs = (bits / LIMB_BITS as u64) as usize;
    let sh = (bits % LIMB_BITS as u64) as u32;
    let len = x.len();
    for i in 0..len - limbs {
        let lo = x[i + limbs] >> sh;
        let hi = match x.get(i + limbs + 1) {
            Some(&next) if sh != 0 => next << (LIMB_BITS - sh),
            _ => 0,
        };
        x[i] = lo | hi;
    }
    x[len - limbs..].fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_add_wraps() {
        let m = UBig::from(10u64);
        assert_eq!(
            UBig::from(7u64).mod_add(&UBig::from(8u64), &m),
            UBig::from(5u64)
        );
        assert_eq!(
            UBig::from(2u64).mod_add(&UBig::from(3u64), &m),
            UBig::from(5u64)
        );
    }

    #[test]
    fn mod_sub_wraps() {
        let m = UBig::from(10u64);
        assert_eq!(
            UBig::from(3u64).mod_sub(&UBig::from(8u64), &m),
            UBig::from(5u64)
        );
        assert_eq!(
            UBig::from(8u64).mod_sub(&UBig::from(3u64), &m),
            UBig::from(5u64)
        );
        assert_eq!(
            UBig::from(4u64).mod_sub(&UBig::from(4u64), &m),
            UBig::zero()
        );
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(UBig::from(12u64).gcd(&UBig::from(18u64)), UBig::from(6u64));
        assert_eq!(UBig::from(17u64).gcd(&UBig::from(31u64)), UBig::one());
        assert_eq!(UBig::zero().gcd(&UBig::from(5u64)), UBig::from(5u64));
        assert_eq!(UBig::from(5u64).gcd(&UBig::zero()), UBig::from(5u64));
    }

    #[test]
    fn mod_inv_small_prime() {
        let p = UBig::from(97u64);
        for a in 1..97u64 {
            let inv = UBig::from(a).mod_inv(&p).unwrap();
            let prod = UBig::from(a).mod_mul(&inv, &p).unwrap();
            assert_eq!(prod, UBig::one(), "a={a}");
        }
    }

    #[test]
    fn mod_inv_large() {
        let p = UBig::from_decimal_str("170141183460469231731687303715884105727").unwrap(); // 2^127-1
        let a = UBig::from_decimal_str("123456789012345678901234567890").unwrap();
        let inv = a.mod_inv(&p).unwrap();
        assert_eq!(a.mod_mul(&inv, &p).unwrap(), UBig::one());
    }

    #[test]
    fn mod_inv_failures() {
        assert_eq!(
            UBig::from(6u64).mod_inv(&UBig::from(9u64)),
            Err(BigNumError::NonInvertible)
        );
        assert_eq!(
            UBig::zero().mod_inv(&UBig::from(7u64)),
            Err(BigNumError::NonInvertible)
        );
        assert_eq!(
            UBig::from(3u64).mod_inv(&UBig::one()),
            Err(BigNumError::NonInvertible)
        );
    }

    #[test]
    fn jacobi_against_legendre_small_prime() {
        // Against direct Euler criterion over p = 23.
        let p = UBig::from(23u64);
        for a in 0..23u64 {
            let expect = if a == 0 {
                Jacobi::Zero
            } else {
                // Euler: a^((p-1)/2) mod p.
                let e = UBig::from(a).modpow(&UBig::from(11u64), &p);
                if e.is_one() {
                    Jacobi::One
                } else {
                    Jacobi::MinusOne
                }
            };
            assert_eq!(UBig::from(a).jacobi(&p).unwrap(), expect, "a={a}");
        }
    }

    #[test]
    fn jacobi_composite_modulus() {
        // (2/15) = (2/3)(2/5) = (-1)(-1) = 1; (3/15) = 0.
        let n = UBig::from(15u64);
        assert_eq!(UBig::from(2u64).jacobi(&n).unwrap(), Jacobi::One);
        assert_eq!(UBig::from(3u64).jacobi(&n).unwrap(), Jacobi::Zero);
    }

    #[test]
    fn jacobi_rejects_even_modulus() {
        assert!(UBig::from(3u64).jacobi(&UBig::from(8u64)).is_err());
        assert!(UBig::from(3u64).jacobi(&UBig::zero()).is_err());
    }

    /// The retired implementation — Euclid by `rem_ref`, a quotient
    /// allocated per step — kept as the oracle for the binary algorithm.
    fn jacobi_euclid_oracle(a: &UBig, n: &UBig) -> Jacobi {
        let mut a = a.rem_ref(n).unwrap();
        let mut n = n.clone();
        let mut result = 1i32;
        while !a.is_zero() {
            while a.is_even() {
                a = a.shr_bits(1);
                let n_mod_8 = n.limbs()[0] & 7;
                if n_mod_8 == 3 || n_mod_8 == 5 {
                    result = -result;
                }
            }
            std::mem::swap(&mut a, &mut n);
            if a.limbs()[0] & 3 == 3 && n.limbs()[0] & 3 == 3 {
                result = -result;
            }
            a = a.rem_ref(&n).unwrap();
        }
        match (n.is_one(), result) {
            (false, _) => Jacobi::Zero,
            (true, 1) => Jacobi::One,
            (true, _) => Jacobi::MinusOne,
        }
    }

    #[test]
    fn jacobi_matches_retired_euclid_implementation() {
        use crate::random::random_below;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4a43);
        for round in 0..2000u32 {
            // Odd moduli of 1..=1100 bits, prime or composite; arguments
            // below, equal to, above and sharing factors with them.
            let bits = rng.random_range(1u64..=1100);
            let mut n = random_below(&mut rng, &UBig::one().shl_bits(bits));
            if n.is_even() {
                n = n.add_small(1);
            }
            let a = match round % 5 {
                0 => random_below(&mut rng, &n),
                1 => random_below(&mut rng, &UBig::one().shl_bits(bits + 70)),
                2 => n.mul_ref(&UBig::from(round as u64)),
                3 => UBig::from(rng.random_range(0u64..64)).shl_bits(rng.random_range(0u64..200)),
                _ => {
                    // A multiple of a small odd factor of a composite n.
                    n = n.mul_ref(&UBig::from(15u64));
                    random_below(&mut rng, &n).mul_ref(&UBig::from(3u64))
                }
            };
            assert_eq!(
                a.jacobi(&n).unwrap(),
                jacobi_euclid_oracle(&a, &n),
                "round {round}: a={a:?} n={n:?}"
            );
        }
    }

    #[test]
    fn jacobi_matches_euler_criterion_on_the_well_known_groups() {
        use crate::random::random_below;
        use crate::safe_prime::well_known_safe_prime;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x6575);
        for bits in [768u64, 1024, 1536, 2048] {
            let p = well_known_safe_prime(bits).unwrap();
            let q = p.sub_small(1).unwrap().shr_bits(1);
            assert_eq!(UBig::zero().jacobi(&p).unwrap(), Jacobi::Zero);
            assert_eq!(p.jacobi(&p).unwrap(), Jacobi::Zero);
            assert_eq!(UBig::one().jacobi(&p).unwrap(), Jacobi::One);
            // p ≡ 7 mod 8 for these groups, so -1 is a non-residue.
            assert_eq!(
                p.sub_small(1).unwrap().jacobi(&p).unwrap(),
                Jacobi::MinusOne
            );
            for _ in 0..6 {
                let x = random_below(&mut rng, &p);
                // Euler: x^q mod p is 1 for members of QR_p, p - 1 otherwise.
                let euler = x.modpow(&q, &p);
                let want = if x.is_zero() {
                    Jacobi::Zero
                } else if euler.is_one() {
                    Jacobi::One
                } else {
                    assert_eq!(euler, p.sub_small(1).unwrap());
                    Jacobi::MinusOne
                };
                assert_eq!(x.jacobi(&p).unwrap(), want, "{bits}-bit group");
                // A square is always a member; its negation never is.
                let sq = x.mod_mul(&x, &p).unwrap();
                if !sq.is_zero() {
                    assert_eq!(sq.jacobi(&p).unwrap(), Jacobi::One);
                    assert_eq!(
                        p.checked_sub(&sq).unwrap().jacobi(&p).unwrap(),
                        Jacobi::MinusOne
                    );
                }
            }
        }
    }
}
