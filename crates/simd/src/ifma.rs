//! AVX-512 IFMA lane kernel — the only `unsafe` module in the workspace.
//!
//! Eight Montgomery multiplications run in parallel, one per 64-bit slot of
//! a zmm register, using the 52x52->104-bit fused multiply-adds
//! (`vpmadd52luq` / `vpmadd52huq`). Both instructions read only the low 52
//! bits of their multiplicands and add into a full 64-bit accumulator, so
//! the accumulators are kept redundant (non-canonical) and carries are
//! propagated once at the end.
//!
//! The multiply is word-by-word CIOS in radix-2^52 with the one-digit shift
//! folded into the column update, so the accumulator is `k` slots and each
//! slot is loaded and stored once per round (four multiply-adds per memory
//! round trip). Round `i` of `k`:
//!
//! ```text
//! t0     = t[0] + lo52(a_i * b_0)
//! m      = lo52(t0 * n0_inv)
//! carry  = (t0 + lo52(m * n_0)) >> 52      (the sum is 0 mod 2^52)
//! t[j-1] = t[j] + lo52(a_i*b_j) + hi52(a_i*b_{j-1})
//!               + lo52(m*n_j)   + hi52(m*n_{j-1})      for j in 1..k
//!          (+ carry into column 1)
//! t[k-1] = hi52(a_i*b_{k-1}) + hi52(m*n_{k-1})
//! ```
//!
//! Squarings run through the same kernel (`a*a`). A triangle-and-double
//! squaring does 3k² multiply-adds instead of 4k², but row by row it gets
//! only two of them per accumulator load/store and measured no faster than
//! this multiply on the reference host (604 against 593 ns at k = 20), so
//! it is not here; blocking two rows per pass is the version that would pay.
//!
//! Accumulator bound (a): every `vpmadd52` adds a value < 2^52. A slot
//! absorbs 4 such adds per round for at most k rounds, plus (column 1 only)
//! one carry per round, itself the top 12 bits of a slot:
//! < 4·40·2^52 + 40·2^12 < 2^60 at the cap k = 40. So a slot stays inside
//! u64 with no lane crosstalk, and the final normalization propagates
//! carries once and masks every digit back to canonical form.
//!
//! Headroom bound (b) (almost-Montgomery): for inputs < 2n the output value
//! is (a*b + m*n)/R' < 4n^2/R' + n <= 2n whenever 4n <= R' = 2^(52k), i.e.
//! `bit_len(n) + 2 <= 52k`. That is a property of the modulus *bit length*:
//! `ceil(64*S/52)` digits give it for most limb counts S but not all (S = 13
//! full-width: 832 = 52*16 bits, zero headroom), so the digit count comes
//! from [`crate::digits_for_bits`] and [`crate::IfmaCtx::new`] refuses a
//! modulus whose top digit reaches 2^50. `from_mont` (multiply by 1)
//! tightens the bound to <= n; the caller does the last conditional
//! subtract.

#![allow(unsafe_code)]

use crate::{DigitRow, DIGIT_BITS, DIGIT_MASK, MAX_DIGITS};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Loads one digit row (eight lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load(row: &DigitRow) -> __m512i {
    // SAFETY: `row` is a valid reference to 64 readable bytes; the
    // unaligned load form has no alignment requirement.
    unsafe { _mm512_loadu_si512(row.as_ptr().cast()) }
}

/// Lane-parallel almost-Montgomery multiply, writing canonical radix-2^52
/// digits into `out`. The digit count is `n.len()`; panics unless it is in
/// `1..=MAX_DIGITS` and `a`, `b`, `out` have exactly that many rows.
///
/// # Safety
/// The caller must have verified at runtime that the CPU supports
/// `avx512f` and `avx512ifma` (see [`crate::available`]); `IfmaCtx`
/// enforces this at construction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
pub unsafe fn mont_mul(
    n: &[u64],
    n0_inv: u64,
    a: &[DigitRow],
    b: &[DigitRow],
    out: &mut [DigitRow],
) {
    let k = n.len();
    assert!((1..=MAX_DIGITS).contains(&k));
    assert!(a.len() == k && b.len() == k && out.len() == k);
    let zero = _mm512_setzero_si512();
    let k0 = _mm512_set1_epi64(n0_inv as i64);

    // Redundant accumulator; slots stay < 2^60 (module docs, bound (a)).
    let mut t = [zero; MAX_DIGITS];
    let t = &mut t[..k];

    for ai in a {
        let ai = load(ai);
        let mut b_prev = load(&b[0]);
        let mut n_prev = _mm512_set1_epi64(n[0] as i64);
        let t0 = _mm512_madd52lo_epu64(t[0], ai, b_prev);
        let m = _mm512_madd52lo_epu64(zero, t0, k0);
        // t0 + lo52(m*n_0) is 0 mod 2^52; only its carry survives.
        let carry = _mm512_srli_epi64::<DIGIT_BITS>(_mm512_madd52lo_epu64(t0, m, n_prev));
        let mut top = carry;
        if k > 1 {
            t[1] = _mm512_add_epi64(t[1], carry);
            top = zero;
        }
        for j in 1..k {
            let bj = load(&b[j]);
            let nj = _mm512_set1_epi64(n[j] as i64);
            // The two m-independent terms first, so they can issue while
            // `m` is still in flight.
            let mut acc = _mm512_madd52lo_epu64(t[j], ai, bj);
            acc = _mm512_madd52hi_epu64(acc, ai, b_prev);
            acc = _mm512_madd52lo_epu64(acc, m, nj);
            acc = _mm512_madd52hi_epu64(acc, m, n_prev);
            t[j - 1] = acc;
            b_prev = bj;
            n_prev = nj;
        }
        top = _mm512_madd52hi_epu64(top, ai, b_prev);
        t[k - 1] = _mm512_madd52hi_epu64(top, m, n_prev);
    }

    // Normalize the redundant digits to canonical radix-2^52. The value is
    // < 2n < 2^(52k) (bound (b)), so the carry out of digit k-1 is zero.
    let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
    let mut carry = zero;
    for (tj, row) in t.iter().zip(out.iter_mut()) {
        let v = _mm512_add_epi64(*tj, carry);
        carry = _mm512_srli_epi64::<DIGIT_BITS>(v);
        // SAFETY: `row` is a valid reference to 64 writable bytes; the
        // unaligned store form has no alignment requirement.
        unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), _mm512_and_si512(v, mask)) };
    }
}
