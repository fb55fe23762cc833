//! The [`UBig`] arbitrary-precision unsigned integer.
//!
//! Representation: a little-endian vector of 64-bit limbs with no trailing
//! zero limb (*normalized*). Zero is the empty vector. All public
//! constructors normalize, and every algorithm in the crate preserves the
//! invariant.

use std::cmp::Ordering;
use std::fmt;

use crate::error::BigNumError;
use crate::limb::{Limb, LIMB_BITS};

/// An arbitrary-precision unsigned integer.
///
/// `UBig` supports the usual arithmetic operators (by value and by
/// reference), comparison, hashing, and conversions to and from bytes,
/// hexadecimal and decimal strings. The modular and number-theoretic
/// operations live in the [`crate::modular`], [`crate::montgomery`],
/// [`crate::pow`] and [`crate::prime`] modules.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct UBig {
    /// Little-endian limbs, normalized (no trailing zeros).
    pub(crate) limbs: Vec<Limb>,
}

impl UBig {
    /// The value `0`.
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// The value `2`.
    pub fn two() -> Self {
        UBig { limbs: vec![2] }
    }

    /// Returns `true` iff `self == 0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff `self == 1`.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` iff the least-significant bit is clear (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` iff the least-significant bit is set.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Builds a `UBig` from little-endian limbs, dropping trailing zeros.
    pub fn from_limbs(mut limbs: Vec<Limb>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        UBig { limbs }
    }

    /// Borrows the normalized little-endian limbs.
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// Best-effort secure erasure: overwrites every allocated limb with
    /// zero and leaves `self == 0`. The crate denies `unsafe` outside its
    /// IFMA kernel, so instead of volatile stores the zeroed buffer is passed through
    /// [`std::hint::black_box`], which keeps the compiler from eliding the
    /// writes as dead. Used by key types that hold secret exponents to
    /// scrub them on drop. Copies made by earlier arithmetic (temporaries,
    /// reallocations) are beyond its reach — hence *best-effort*.
    pub fn zeroize(&mut self) {
        for limb in self.limbs.iter_mut() {
            *limb = 0;
        }
        std::hint::black_box(&mut self.limbs);
        self.limbs.clear();
    }

    /// Number of significant limbs (zero has none).
    pub fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    /// Number of significant bits; zero has bit length 0.
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * LIMB_BITS as u64
                    + (LIMB_BITS - top.leading_zeros()) as u64
            }
        }
    }

    /// Value of bit `i` (false beyond the bit length).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / LIMB_BITS as u64) as usize;
        let off = (i % LIMB_BITS as u64) as u32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Converts to `u64`, if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128`, if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Parses a big-endian byte string (leading zero bytes allowed).
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb: Limb = 0;
            for &b in chunk {
                limb = (limb << 8) | b as Limb;
            }
            limbs.push(limb);
        }
        UBig::from_limbs(limbs)
    }

    /// Serializes to a minimal big-endian byte string (zero → empty).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the top limb only.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to a fixed-width big-endian byte string, left-padded with
    /// zeros. Returns an error if the value needs more than `width` bytes.
    pub fn to_be_bytes_padded(&self, width: usize) -> Result<Vec<u8>, BigNumError> {
        let raw = self.to_be_bytes();
        if raw.len() > width {
            return Err(BigNumError::ValueTooLarge {
                bits: self.bit_len(),
                capacity_bits: width as u64 * 8,
            });
        }
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses a hexadecimal string. Whitespace and underscores are ignored
    /// (so the RFC group constants can be pasted verbatim); an optional
    /// `0x` prefix is allowed.
    pub fn from_hex_str(s: &str) -> Result<Self, BigNumError> {
        let s = s.trim();
        let s = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        let mut nibbles = Vec::with_capacity(s.len());
        for ch in s.chars() {
            if ch.is_whitespace() || ch == '_' {
                continue;
            }
            let v = ch
                .to_digit(16)
                .ok_or(BigNumError::ParseError { bad_char: ch })?;
            nibbles.push(v as u8);
        }
        if nibbles.is_empty() {
            return Err(BigNumError::EmptyInput);
        }
        let mut limbs = Vec::with_capacity(nibbles.len() / 16 + 1);
        for chunk in nibbles.rchunks(16) {
            let mut limb: Limb = 0;
            for &n in chunk {
                limb = (limb << 4) | n as Limb;
            }
            limbs.push(limb);
        }
        Ok(UBig::from_limbs(limbs))
    }

    /// Formats as lowercase hexadecimal without a prefix (zero → `"0"`).
    pub fn to_hex_str(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Parses a decimal string (underscores permitted as separators).
    pub fn from_decimal_str(s: &str) -> Result<Self, BigNumError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(BigNumError::EmptyInput);
        }
        let mut acc = UBig::zero();
        let mut saw_digit = false;
        // Consume 19 digits at a time (19 decimal digits fit in a u64).
        let mut chunk: u64 = 0;
        let mut chunk_len: u32 = 0;
        for ch in s.chars() {
            if ch == '_' {
                continue;
            }
            let d = ch
                .to_digit(10)
                .ok_or(BigNumError::ParseError { bad_char: ch })?;
            saw_digit = true;
            chunk = chunk * 10 + d as u64;
            chunk_len += 1;
            if chunk_len == 19 {
                acc = acc.mul_small(10u64.pow(19 - 1) * 10) + UBig::from(chunk);
                chunk = 0;
                chunk_len = 0;
            }
        }
        if !saw_digit {
            return Err(BigNumError::EmptyInput);
        }
        if chunk_len > 0 {
            acc = acc.mul_small(10u64.pow(chunk_len)) + UBig::from(chunk);
        }
        Ok(acc)
    }

    /// Formats as a decimal string.
    pub fn to_decimal_str(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits: Vec<String> = Vec::new();
        let mut cur = self.clone();
        // Peel off 19 decimal digits at a time.
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_small(CHUNK).expect("CHUNK is nonzero");
            digits.push(r.to_string());
            cur = q;
        }
        let mut s = String::new();
        for (i, d) in digits.iter().enumerate().rev() {
            if i == digits.len() - 1 {
                s.push_str(d);
            } else {
                s.push_str(&format!("{:019}", d.parse::<u64>().unwrap()));
            }
        }
        s
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        if v == 0 {
            UBig::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }
}

impl From<u32> for UBig {
    fn from(v: u32) -> Self {
        UBig::from(v as u64)
    }
}

impl From<u128> for UBig {
    fn from(v: u128) -> Self {
        UBig::from_limbs(vec![v as Limb, (v >> 64) as Limb])
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal_str())
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hex is more useful when debugging limb-level algorithms.
        write!(f, "UBig(0x{})", self.to_hex_str())
    }
}

impl fmt::LowerHex for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_normalized_empty() {
        assert!(UBig::zero().is_zero());
        assert_eq!(UBig::from(0u64), UBig::zero());
        assert_eq!(UBig::from_limbs(vec![0, 0, 0]), UBig::zero());
        assert_eq!(UBig::zero().bit_len(), 0);
    }

    #[test]
    fn bit_len_and_bit() {
        let x = UBig::from(0b1011u64);
        assert_eq!(x.bit_len(), 4);
        assert!(x.bit(0) && x.bit(1) && !x.bit(2) && x.bit(3));
        assert!(!x.bit(64));
        let y = UBig::from_limbs(vec![0, 1]);
        assert_eq!(y.bit_len(), 65);
        assert!(y.bit(64));
    }

    #[test]
    fn zeroize_clears_to_zero() {
        let mut x = UBig::from_limbs(vec![u64::MAX, 0xdead_beef, 7]);
        x.zeroize();
        assert!(x.is_zero());
        assert!(x.limbs().is_empty());
        // Idempotent, including on zero.
        x.zeroize();
        assert!(x.is_zero());
    }

    #[test]
    fn parity() {
        assert!(UBig::zero().is_even());
        assert!(UBig::one().is_odd());
        assert!(UBig::from(u64::MAX).is_odd());
        assert!(UBig::from_limbs(vec![0, 1]).is_even());
    }

    #[test]
    fn ordering_across_lengths() {
        let small = UBig::from(u64::MAX);
        let big = UBig::from_limbs(vec![0, 1]);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big.clone()), Ordering::Equal);
    }

    #[test]
    fn be_bytes_round_trip() {
        let cases = [
            UBig::zero(),
            UBig::one(),
            UBig::from(u64::MAX),
            UBig::from(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128),
        ];
        for x in cases {
            assert_eq!(UBig::from_be_bytes(&x.to_be_bytes()), x);
        }
    }

    #[test]
    fn be_bytes_leading_zeros_ignored() {
        assert_eq!(UBig::from_be_bytes(&[0, 0, 1, 2]), UBig::from(0x0102u64));
        assert_eq!(UBig::from_be_bytes(&[]), UBig::zero());
    }

    #[test]
    fn be_bytes_minimal_length() {
        assert_eq!(UBig::from(0x01_00u64).to_be_bytes(), vec![1, 0]);
        assert_eq!(UBig::from(0xffu64).to_be_bytes(), vec![0xff]);
    }

    #[test]
    fn padded_bytes() {
        let x = UBig::from(0x0102u64);
        assert_eq!(x.to_be_bytes_padded(4).unwrap(), vec![0, 0, 1, 2]);
        assert!(x.to_be_bytes_padded(1).is_err());
        assert_eq!(UBig::zero().to_be_bytes_padded(3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn hex_round_trip() {
        let x = UBig::from_hex_str("0xDEADBEEF_00000000_12345678").unwrap();
        assert_eq!(UBig::from_hex_str(&x.to_hex_str()).unwrap(), x);
        assert_eq!(x.to_hex_str(), "deadbeef0000000012345678");
    }

    #[test]
    fn hex_rejects_garbage() {
        assert!(UBig::from_hex_str("12g4").is_err());
        assert!(UBig::from_hex_str("").is_err());
        assert!(UBig::from_hex_str("  _ ").is_err());
    }

    #[test]
    fn hex_allows_rfc_formatting() {
        let spaced = UBig::from_hex_str("FFFFFFFF FFFFFFFF C90FDAA2").unwrap();
        let joined = UBig::from_hex_str("FFFFFFFFFFFFFFFFC90FDAA2").unwrap();
        assert_eq!(spaced, joined);
    }

    #[test]
    fn decimal_round_trip() {
        for s in [
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211455",
            "99999999999999999999999999999999999999999999999",
        ] {
            let x = UBig::from_decimal_str(s).unwrap();
            assert_eq!(x.to_decimal_str(), s);
        }
    }

    #[test]
    fn decimal_rejects_garbage() {
        assert!(UBig::from_decimal_str("12a").is_err());
        assert!(UBig::from_decimal_str("").is_err());
        assert!(UBig::from_decimal_str("_").is_err());
    }

    #[test]
    fn u128_round_trip() {
        let v = 0xdead_beef_dead_beef_dead_beef_dead_beefu128;
        assert_eq!(UBig::from(v).to_u128(), Some(v));
        assert_eq!(UBig::from(7u64).to_u64(), Some(7));
        assert_eq!(UBig::from_limbs(vec![1, 2, 3]).to_u128(), None);
    }

    #[test]
    fn display_and_debug() {
        let x = UBig::from(255u64);
        assert_eq!(format!("{x}"), "255");
        assert_eq!(format!("{x:?}"), "UBig(0xff)");
        assert_eq!(format!("{x:x}"), "ff");
    }
}
