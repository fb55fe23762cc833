//! Montgomery-form modular arithmetic (CIOS multiplication, dedicated
//! squaring kernel, sliding-window exponentiation).
//!
//! This module is the engine room of the reproduction: the paper's cost
//! unit `Ce` — "the cost of encryption/decryption by F, e.g. exponentiation
//! `x^y mod p` over k-bit integers" (§6.1) — is exactly one call to
//! [`MontgomeryCtx::pow`] with a `k`-bit modulus. The `ce_modexp`
//! benchmark calibrates `Ce` on the host machine through this code.
//!
//! Exponentiation squares far more often than it multiplies (~80% of the
//! window-method work), so squarings go through a dedicated kernel: the
//! symmetric half of the partial products is computed once and doubled,
//! cutting the multiply count from `2s²` to `~1.5s²` per squaring. On top
//! of that, [`MontgomeryCtx::pow`] uses sliding windows with an
//! odd-powers-only table, trimming both the precompute (half the entries
//! of a fixed-window table) and the number of window multiplies. Batches
//! under one exponent go through [`crate::FixedExponentPlan`], which
//! replays the same recoding on the IFMA lanes of [`crate::fixpow`] where
//! the CPU has them, and on this ladder otherwise.

use crate::error::BigNumError;
use crate::limb::{adc, mac, mul_wide, sbb, Limb, LIMB_BITS};
use crate::UBig;

/// Largest sliding-window width [`window_for_bits`] will pick.
const MAX_WINDOW: u32 = 6;

/// Sliding-window width minimizing `table + bits/(w+1)` work for an
/// exponent of the given bit length.
pub(crate) fn window_for_bits(bits: u64) -> u32 {
    match bits {
        0..=7 => 1,
        8..=23 => 2,
        24..=79 => 3,
        80..=239 => 4,
        240..=767 => 5,
        _ => MAX_WINDOW,
    }
}

/// One ladder step of a recoded exponent: `squarings` squarings followed
/// by one multiply with the odd power `base^(2·table_idx + 1)`.
pub(crate) struct WindowStep {
    pub(crate) squarings: u64,
    pub(crate) table_idx: usize,
}

/// A sliding-window recoding of one exponent, independent of the base —
/// computed once per exponent and replayed for every base in a batch.
pub(crate) struct PowPlan {
    /// Table index whose entry initializes the accumulator (the leading
    /// window); `None` for a zero exponent.
    pub(crate) init_idx: Option<usize>,
    /// Largest table index referenced — bounds the per-base precompute.
    pub(crate) max_idx: usize,
    pub(crate) steps: Vec<WindowStep>,
    /// Squarings after the final window (trailing zero bits).
    pub(crate) tail_squarings: u64,
}

impl PowPlan {
    /// Overwrites the recoded schedule in place. The step sequence is a
    /// deterministic function of the exponent, so a plan derived from a
    /// secret exponent is itself secret material; callers that cache
    /// plans must scrub them before the allocation is returned.
    pub(crate) fn zeroize(&mut self) {
        for step in self.steps.iter_mut() {
            step.squarings = 0;
            step.table_idx = 0;
        }
        self.steps.clear();
        self.init_idx = None;
        self.max_idx = 0;
        self.tail_squarings = 0;
        // Keep the writes above from being optimized out as dead stores.
        std::hint::black_box(&self.steps);
    }
}

/// Recodes `exponent` for sliding-window exponentiation with the given
/// window width: leading zeros are skipped, runs of zero bits between
/// windows fold into the next step's squaring count, and windows slide
/// down to their lowest set bit so only odd powers are referenced.
pub(crate) fn recode_exponent(exponent: &UBig, window: u32) -> PowPlan {
    let mut plan = PowPlan {
        init_idx: None,
        max_idx: 0,
        steps: Vec::new(),
        tail_squarings: 0,
    };
    let mut pending: u64 = 0;
    let mut i = exponent.bit_len();
    while i > 0 {
        let top = i - 1;
        if !exponent.bit(top) {
            if plan.init_idx.is_some() {
                pending += 1;
            }
            i -= 1;
            continue;
        }
        // Slide the window down from `top` until its low bit is set, so
        // only odd table entries are ever needed.
        let floor = (top + 1).saturating_sub(window as u64);
        let mut lo = floor;
        while !exponent.bit(lo) {
            lo += 1;
        }
        let width = top - lo + 1;
        let mut val: usize = 0;
        let mut b = top + 1;
        while b > lo {
            b -= 1;
            val = (val << 1) | exponent.bit(b) as usize;
        }
        let idx = val >> 1;
        plan.max_idx = plan.max_idx.max(idx);
        match plan.init_idx {
            None => plan.init_idx = Some(idx),
            Some(_) => {
                plan.steps.push(WindowStep {
                    squarings: pending + width,
                    table_idx: idx,
                });
                pending = 0;
            }
        }
        i = lo;
    }
    plan.tail_squarings = pending;
    plan
}

/// Precomputed context for repeated arithmetic modulo a fixed odd modulus.
///
/// Construction costs two divisions (for `R mod n` and `R² mod n`); each
/// multiplication afterwards is a single CIOS pass with no division.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus `n` (odd, > 1), padded to `limbs` little-endian limbs.
    pub(crate) n: Vec<Limb>,
    /// `-n⁻¹ mod 2^64`.
    pub(crate) n0_inv: Limb,
    /// `R mod n` where `R = 2^(64·limbs)` — the Montgomery form of 1.
    pub(crate) one_mont: Vec<Limb>,
    /// `R² mod n` — used to convert into Montgomery form.
    pub(crate) r2: Vec<Limb>,
    /// The modulus as a `UBig` (for comparisons and callers).
    modulus: UBig,
    /// Lazily-probed AVX-512 IFMA lane context (`None` once probed when
    /// the host CPU lacks IFMA or the modulus is too wide). Holds only
    /// public modulus constants in radix-2^52; the secret exponent
    /// schedule never crosses into `ifma`.
    pub(crate) ifma: std::sync::OnceLock<Option<std::sync::Arc<crate::ifma::IfmaCtx>>>,
}

/// `-n0⁻¹ mod 2^64` for odd `n0`, by Newton iteration.
fn neg_inv_limb(n0: Limb) -> Limb {
    debug_assert!(n0 & 1 == 1);
    let mut x: Limb = 1;
    // Each step doubles the number of correct low bits: 6 steps ≥ 64 bits.
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
    }
    x.wrapping_neg()
}

/// Pads the limbs of `x` to exactly `len` limbs (x must fit).
fn padded(x: &UBig, len: usize) -> Vec<Limb> {
    let mut v = x.limbs().to_vec();
    debug_assert!(v.len() <= len);
    v.resize(len, 0);
    v
}

/// `a >= b` over equal-length little-endian limb slices.
pub(crate) fn geq(a: &[Limb], b: &[Limb]) -> bool {
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

impl MontgomeryCtx {
    /// Creates a context for an odd modulus greater than one.
    pub fn new(modulus: &UBig) -> Result<Self, BigNumError> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return Err(BigNumError::EvenModulus);
        }
        let limbs = modulus.limb_len();
        let n = padded(modulus, limbs);
        let n0_inv = neg_inv_limb(n[0]);
        let r_bits = limbs as u64 * LIMB_BITS as u64;
        let one_mont = padded(&UBig::one().shl_bits(r_bits).rem_ref(modulus)?, limbs);
        let r2 = padded(&UBig::one().shl_bits(2 * r_bits).rem_ref(modulus)?, limbs);
        Ok(MontgomeryCtx {
            n,
            n0_inv,
            one_mont,
            r2,
            modulus: modulus.clone(),
            ifma: std::sync::OnceLock::new(),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &UBig {
        &self.modulus
    }

    /// Number of limbs in the Montgomery representation.
    pub(crate) fn limbs(&self) -> usize {
        self.n.len()
    }

    /// CIOS Montgomery multiplication: returns `a · b · R⁻¹ mod n` over
    /// fixed-width limb vectors, in a single allocation.
    fn mont_mul(&self, a: &[Limb], b: &[Limb]) -> Vec<Limb> {
        let mut out = Vec::with_capacity(self.limbs() + 2);
        self.mont_mul_to(a, b, &mut out);
        out
    }

    /// Converts `x` (any size) into Montgomery form.
    pub(crate) fn to_mont(&self, x: &UBig) -> Vec<Limb> {
        let reduced = x.rem_ref(&self.modulus).expect("modulus nonzero");
        self.mont_mul(&padded(&reduced, self.limbs()), &self.r2)
    }

    /// Converts out of Montgomery form.
    #[allow(clippy::wrong_self_convention)] // standard Montgomery naming
    pub(crate) fn from_mont(&self, x: &[Limb]) -> UBig {
        let mut one = vec![0 as Limb; self.limbs()];
        one[0] = 1;
        UBig::from_limbs(self.mont_mul(x, &one))
    }

    /// Montgomery squaring: writes `a² · R⁻¹ mod n` into `out`.
    ///
    /// Computes the strict upper triangle of the partial-product matrix
    /// once, doubles it with a single shift pass, adds the diagonal
    /// `aᵢ²` terms, then runs a separate Montgomery reduction over the
    /// double-width result — `s(s-1)/2 + s` limb multiplies for the
    /// square plus `s²` for the reduction, versus `2s²` for
    /// [`Self::mont_mul_to`]. `t` is the double-width scratch; the
    /// exponentiation ladder reuses both buffers across hundreds of
    /// squarings so the hot loop never touches the allocator.
    fn mont_sqr_to(&self, a: &[Limb], t: &mut Vec<Limb>, out: &mut Vec<Limb>) {
        let s = self.limbs();
        debug_assert_eq!(a.len(), s);
        // The 4/8-limb demo groups and every well-known group the daemon
        // serves (12/16/24/32 limbs) go through the const-generic kernel;
        // any other width (Paillier `n²`, test moduli) takes the loop
        // below. `W` is the kernel's scratch width, `2·S + 1`.
        match s {
            4 => return self.sqr_fixed::<4, 9>(a, out),
            8 => return self.sqr_fixed::<8, 17>(a, out),
            12 => return self.sqr_fixed::<12, 25>(a, out),
            16 => return self.sqr_fixed::<16, 33>(a, out),
            24 => return self.sqr_fixed::<24, 49>(a, out),
            32 => return self.sqr_fixed::<32, 65>(a, out),
            _ => {}
        }
        // Wide square into 2s+1 limbs (the extra limb is headroom for the
        // reduction's carries).
        t.clear();
        t.resize(2 * s + 1, 0);
        // Single pass: strict upper triangle t += Σ_{i<j} a_i·a_j·2^{64(i+j)}
        // with doubling and the diagonal fused in. Row `i` macs into
        // t[2i+1 .. i+s] (sliced to equal lengths so the inner loop
        // compiles without bounds checks); once its macs finish, positions
        // 2i and 2i+1 hold their final off-diagonal sums (no later row
        // reaches below 2i+3), so they are doubled (1-bit shift) and the
        // diagonal a_i² added immediately, while still cache- and
        // register-hot. The total is a² < 2^(128s), so nothing spills
        // past limb 2s-1.
        let mut shift_in: Limb = 0;
        let mut dcarry: Limb = 0;
        for i in 0..s {
            let ai = a[i];
            let mut carry: Limb = 0;
            let row = &mut t[2 * i + 1..i + s];
            for (tj, &aj) in row.iter_mut().zip(&a[i + 1..]) {
                *tj = mac(*tj, ai, aj, &mut carry);
            }
            // t[i+s] was never written by an earlier row (rows only reach
            // index i+s-1), so the carry lands in a fresh limb.
            t[i + s] = carry;
            let (lo, hi) = mul_wide(ai, ai);
            let even = t[2 * i];
            let odd = t[2 * i + 1];
            let d0 = (even << 1) | shift_in;
            let d1 = (odd << 1) | (even >> (LIMB_BITS - 1));
            shift_in = odd >> (LIMB_BITS - 1);
            t[2 * i] = adc(d0, lo, &mut dcarry);
            t[2 * i + 1] = adc(d1, hi, &mut dcarry);
        }
        debug_assert_eq!(shift_in, 0);
        debug_assert_eq!(dcarry, 0);
        self.redc_to(t, out);
    }

    /// [`Self::mont_sqr_to`] at a fixed width of `S` limbs (`W` must be
    /// `2·S + 1`): the same fused triangle + double + diagonal pass and
    /// deferred-carry REDC over stack arrays. The constant trip counts let
    /// the compiler unroll the short triangle rows, which is where the
    /// squaring's multiply advantage materializes on real hardware.
    fn sqr_fixed<const S: usize, const W: usize>(&self, a: &[Limb], out: &mut Vec<Limb>) {
        const { assert!(W == 2 * S + 1) };
        let a: &[Limb; S] = a.try_into().expect("dispatched on the width");
        let n: &[Limb; S] = self.n.as_slice().try_into().expect("ctx width");
        let mut t = [0 as Limb; W];
        // Strict upper triangle with doubling and the diagonal fused per
        // row, as in `mont_sqr_to`.
        let mut shift_in: Limb = 0;
        let mut dcarry: Limb = 0;
        for i in 0..S {
            let mut carry: Limb = 0;
            for j in i + 1..S {
                t[i + j] = mac(t[i + j], a[i], a[j], &mut carry);
            }
            // Never written by an earlier row (rows reach index i+S-1).
            t[i + S] = carry;
            let (lo, hi) = mul_wide(a[i], a[i]);
            let even = t[2 * i];
            let odd = t[2 * i + 1];
            let d0 = (even << 1) | shift_in;
            let d1 = (odd << 1) | (even >> (LIMB_BITS - 1));
            shift_in = odd >> (LIMB_BITS - 1);
            t[2 * i] = adc(d0, lo, &mut dcarry);
            t[2 * i + 1] = adc(d1, hi, &mut dcarry);
        }
        debug_assert_eq!(shift_in | dcarry, 0);
        // REDC with branchless deferred row carries, as in `redc_to`.
        let mut deferred: Limb = 0;
        for i in 0..S {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut carry: Limb = 0;
            for j in 0..S {
                t[i + j] = mac(t[i + j], m, n[j], &mut carry);
            }
            let mut c1: Limb = 0;
            let top = adc(t[i + S], carry, &mut c1);
            let mut c2: Limb = 0;
            t[i + S] = adc(top, deferred, &mut c2);
            deferred = c1 + c2;
        }
        let mut c: Limb = 0;
        let top = adc(t[2 * S], deferred, &mut c);
        debug_assert_eq!(c, 0);
        let mut r = [0 as Limb; S];
        r.copy_from_slice(&t[S..2 * S]);
        if top != 0 || geq(&r, n) {
            let mut borrow: Limb = 0;
            for i in 0..S {
                r[i] = sbb(r[i], n[i], &mut borrow);
            }
            debug_assert_eq!(top.wrapping_sub(borrow), 0);
        }
        out.clear();
        out.extend_from_slice(&r);
    }

    /// Montgomery reduction of a double-width value `t < n·R` (plus one
    /// headroom limb): writes `t · R⁻¹ mod n` into `out` as `s` limbs.
    fn redc_to(&self, t: &mut [Limb], out: &mut Vec<Limb>) {
        let s = self.limbs();
        debug_assert_eq!(t.len(), 2 * s + 1);
        // Row carries are deferred branchlessly: row i's carry out of
        // position i+s lands at i+s+1, which is exactly where row i+1
        // finishes — so a single `deferred` limb replaces a cascading
        // (branch-mispredicting) carry walk.
        let mut deferred: Limb = 0;
        for i in 0..s {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut carry: Limb = 0;
            let row = &mut t[i..i + s];
            for (tj, &nj) in row.iter_mut().zip(&self.n) {
                *tj = mac(*tj, m, nj, &mut carry);
            }
            let mut c1: Limb = 0;
            let top = adc(t[i + s], carry, &mut c1);
            let mut c2: Limb = 0;
            t[i + s] = adc(top, deferred, &mut c2);
            // Both carries are 0/1 and cannot both fire past 2^64 - 1.
            deferred = c1 + c2;
        }
        {
            let mut c: Limb = 0;
            t[2 * s] = adc(t[2 * s], deferred, &mut c);
            debug_assert_eq!(c, 0);
        }
        // The upper half (plus carry limb t[2s]) is the reduced value,
        // < 2n: one conditional subtract, written straight into `out`.
        out.clear();
        out.extend_from_slice(&t[s..2 * s]);
        let top = t[2 * s];
        if top != 0 || geq(out, &self.n) {
            let mut borrow: Limb = 0;
            #[allow(clippy::needless_range_loop)] // lockstep limb walk
            for i in 0..s {
                out[i] = sbb(out[i], self.n[i], &mut borrow);
            }
            // When the carry limb was set, subtracting n must clear it.
            debug_assert_eq!(top.wrapping_sub(borrow), 0);
        }
    }

    /// The crate's one CIOS Montgomery multiplication: writes
    /// `a · b · R⁻¹ mod n` into `out`, which doubles as the `s + 2`-limb
    /// row buffer and ends holding the `s`-limb product. The
    /// exponentiation ladder passes the same buffers to every call, so
    /// its hot loop never touches the allocator.
    fn mont_mul_to(&self, a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
        let s = self.limbs();
        debug_assert_eq!(a.len(), s);
        debug_assert_eq!(b.len(), s);
        let t = out;
        t.clear();
        t.resize(s + 2, 0);
        for &ai in a {
            // t += ai * b
            let mut carry: Limb = 0;
            for j in 0..s {
                t[j] = mac(t[j], ai, b[j], &mut carry);
            }
            let mut c2: Limb = 0;
            t[s] = adc(t[s], carry, &mut c2);
            t[s + 1] = c2;

            // m = t[0] * n0_inv mod 2^64; t = (t + m*n) / 2^64
            let m = t[0].wrapping_mul(self.n0_inv);
            let mut carry: Limb = 0;
            // First step: low limb becomes zero by construction.
            let _ = mac(t[0], m, self.n[0], &mut carry);
            for j in 1..s {
                t[j - 1] = mac(t[j], m, self.n[j], &mut carry);
            }
            let mut c2: Limb = 0;
            t[s - 1] = adc(t[s], carry, &mut c2);
            t[s] = t[s + 1] + c2; // cannot overflow: t < 2n·R
            t[s + 1] = 0;
        }
        let top = t[s];
        t.truncate(s);
        // Conditional subtraction: result < 2n, so one pass suffices.
        if top != 0 || geq(t, &self.n) {
            let mut borrow: Limb = 0;
            #[allow(clippy::needless_range_loop)] // lockstep limb walk
            for i in 0..s {
                t[i] = sbb(t[i], self.n[i], &mut borrow);
            }
            // When the carry limb was set, subtracting n must clear it.
            debug_assert_eq!(top.wrapping_sub(borrow), 0);
        }
    }

    /// `(a * b) mod n` for ordinary (non-Montgomery) operands.
    pub fn mul(&self, a: &UBig, b: &UBig) -> UBig {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// `base^exponent mod n` by sliding-window exponentiation with an
    /// odd-powers-only table and the dedicated squaring kernel. Window
    /// width is chosen from the exponent's bit length. For many bases
    /// under one exponent, build a [`crate::FixedExponentPlan`] instead.
    pub fn pow(&self, base: &UBig, exponent: &UBig) -> UBig {
        let plan = recode_exponent(exponent, window_for_bits(exponent.bit_len()));
        self.from_mont(&self.pow_planned(&self.to_mont(base), &plan))
    }

    /// Executes a recoded exponent against one Montgomery-form base.
    ///
    /// Two result buffers ping-pong through the ladder and the wide
    /// scratch is reused by every kernel call, so the hot loop performs
    /// no allocation after the odd-powers table is built.
    pub(crate) fn pow_planned(&self, base_m: &[Limb], plan: &PowPlan) -> Vec<Limb> {
        let init_idx = match plan.init_idx {
            // Zero exponent: empty ladder, result is 1 in Montgomery form.
            None => return self.one_mont.clone(),
            Some(idx) => idx,
        };
        let s = self.limbs();
        let mut wide: Vec<Limb> = Vec::with_capacity(2 * s + 1);
        // Sized for the multiply's row buffer, so both ping-pong buffers
        // serve either kernel without regrowing.
        let mut tmp: Vec<Limb> = Vec::with_capacity(s + 2);

        // Odd powers only: table[i] = base^(2i+1) in Montgomery form,
        // built just far enough to cover the plan's largest index.
        let table_len = plan.max_idx + 1;
        let mut table: Vec<Vec<Limb>> = Vec::with_capacity(table_len);
        table.push(base_m.to_vec());
        if table_len > 1 {
            let mut base_sq = Vec::new();
            self.mont_sqr_to(base_m, &mut wide, &mut base_sq);
            for i in 1..table_len {
                let next = self.mont_mul(&table[i - 1], &base_sq);
                table.push(next);
            }
        }

        let mut acc: Vec<Limb> = Vec::with_capacity(s + 2);
        acc.extend_from_slice(&table[init_idx]);
        for step in &plan.steps {
            for _ in 0..step.squarings {
                self.mont_sqr_to(&acc, &mut wide, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            self.mont_mul_to(&acc, &table[step.table_idx], &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        for _ in 0..plan.tail_squarings {
            self.mont_sqr_to(&acc, &mut wide, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontgomeryCtx::new(&UBig::zero()).is_err());
        assert!(MontgomeryCtx::new(&UBig::one()).is_err());
        assert!(MontgomeryCtx::new(&UBig::from(10u64)).is_err());
    }

    #[test]
    fn neg_inv_limb_property() {
        for n0 in [1u64, 3, 5, 0xffff_ffff_ffff_fff1, 0x1234_5678_9abc_def1] {
            let m = neg_inv_limb(n0);
            assert_eq!(n0.wrapping_mul(m), 1u64.wrapping_neg(), "n0={n0:#x}");
        }
    }

    #[test]
    fn mul_matches_naive() {
        let m = UBig::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let a = UBig::from(999_999_999u64);
        let b = UBig::from(123_456_789u64);
        assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m).unwrap());
    }

    #[test]
    fn pow_matches_binary_oracle_small() {
        let m = UBig::from(0xffff_fffb_u64);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for base in [0u64, 1, 2, 3, 0x1234_5678, 0xffff_fffa] {
            for exp in [0u64, 1, 2, 3, 16, 17, 255, 256, 65537] {
                let fast = ctx.pow(&UBig::from(base), &UBig::from(exp));
                let slow = UBig::from(base).modpow_binary(&UBig::from(exp), &m);
                assert_eq!(fast, slow, "base={base} exp={exp}");
            }
        }
    }

    #[test]
    fn pow_matches_binary_oracle_multilimb() {
        let m =
            UBig::from_hex_str("f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5e4f3a2b1c0d9e8f71")
                .unwrap(); // odd 256-bit number (compositeness is fine here)
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = UBig::from_hex_str("123456789abcdef0fedcba9876543210").unwrap();
        let exp = UBig::from_hex_str("deadbeefcafebabe").unwrap();
        assert_eq!(ctx.pow(&base, &exp), base.modpow_binary(&exp, &m));
    }

    #[test]
    fn pow_base_larger_than_modulus() {
        let m = UBig::from(97u64);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = UBig::from(97 * 5 + 3u64);
        assert_eq!(
            ctx.pow(&base, &UBig::from(10u64)),
            UBig::from(3u64).modpow_binary(&UBig::from(10u64), &m)
        );
    }

    #[test]
    fn pow_exponent_zero_and_one() {
        let m = UBig::from(101u64);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.pow(&UBig::from(7u64), &UBig::zero()), UBig::one());
        assert_eq!(ctx.pow(&UBig::from(7u64), &UBig::one()), UBig::from(7u64));
    }

    #[test]
    fn sqr_matches_mul() {
        // The squaring kernel against the CIOS multiply, chained in
        // Montgomery form the way the ladder runs them: at a dispatched
        // width (4 limbs: the lane kernel at one lane) and at an
        // undispatched one (3 limbs: the generic triangle + REDC).
        for modulus in [
            "f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5e4f3a2b1c0d9e8f71",
            "f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5f",
        ] {
            let ctx = MontgomeryCtx::new(&UBig::from_hex_str(modulus).unwrap()).unwrap();
            let mut x =
                ctx.to_mont(&UBig::from_hex_str("123456789abcdef0fedcba9876543210").unwrap());
            let (mut wide, mut sq) = (Vec::new(), Vec::new());
            for _ in 0..50 {
                ctx.mont_sqr_to(&x, &mut wide, &mut sq);
                assert_eq!(sq, ctx.mont_mul(&x, &x), "{} limbs", ctx.limbs());
                x.clone_from(&sq);
            }
        }
    }

    #[test]
    fn mont_elem_kernel_roundtrip() {
        // Into Montgomery form and back, the multiply staying in form, and
        // the multiply overwriting whatever its reused buffer held.
        let m = UBig::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let a = UBig::from(999_999_999u64);
        let b = UBig::from(123_456_789u64);
        let (am, bm) = (ctx.to_mont(&a), ctx.to_mont(&b));
        assert_eq!(ctx.from_mont(&am), a);
        let ab = ctx.mont_mul(&am, &bm);
        assert_eq!(ctx.from_mont(&ab), a.mod_mul(&b, &m).unwrap());
        let mut dirty = vec![Limb::MAX; 5];
        ctx.mont_mul_to(&am, &bm, &mut dirty);
        assert_eq!(dirty, ab);
    }

    #[test]
    fn all_window_widths_agree_with_oracle() {
        // Exponents on both sides of every `window_for_bits` boundary, so
        // each sliding-window width 1..=6 runs against the oracle.
        let m =
            UBig::from_hex_str("f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5e4f3a2b1c0d9e8f71")
                .unwrap();
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = UBig::from_hex_str("123456789abcdef0fedcba9876543210").unwrap();
        // A dense 768-bit pattern to cut mixed exponents from.
        let pattern = UBig::from_hex_str(&"deadbeefcafebabe0123456789abcdef".repeat(6)).unwrap();
        let mut widths = Vec::new();
        for bits in [7u64, 8, 23, 24, 79, 80, 239, 240, 767, 768] {
            let top = UBig::one().shl_bits(bits - 1);
            let all_ones = UBig::one().shl_bits(bits).sub_small(1).unwrap();
            let mixed = pattern.low_bits(bits - 1).add_ref(&top);
            for exp in [top, all_ones, mixed] {
                assert_eq!(exp.bit_len(), bits);
                assert_eq!(
                    ctx.pow(&base, &exp),
                    base.modpow_binary(&exp, &m),
                    "exponent bits={bits}"
                );
            }
            widths.push(window_for_bits(bits));
        }
        assert_eq!(widths, [1, 2, 2, 3, 3, 4, 4, 5, 5, MAX_WINDOW]);
    }

    #[test]
    fn adversarial_exponents_match_oracle() {
        let m =
            UBig::from_hex_str("f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5e4f3a2b1c0d9e8f71")
                .unwrap();
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = UBig::from_hex_str("0fedcba987654321ffffffffffffffff").unwrap();
        // All-ones exponents stress maximal windows; 2^k stresses all-zero
        // tails; m-2 is the Fermat-inversion shape used by key setup.
        let exps = [
            UBig::zero(),
            UBig::one(),
            UBig::from(2u64),
            UBig::from(0xffff_ffff_ffff_ffffu64),
            UBig::one().shl_bits(255),
            UBig::one().shl_bits(256).sub_small(1).unwrap(),
            m.sub_small(2).unwrap(),
        ];
        for exp in &exps {
            assert_eq!(
                ctx.pow(&base, exp),
                base.modpow_binary(exp, &m),
                "exp bits={}",
                exp.bit_len()
            );
        }
    }

    #[test]
    fn pow_batch_matches_pointwise_pow() {
        let m = UBig::from(1_000_000_007u64);
        let ctx = std::sync::Arc::new(MontgomeryCtx::new(&m).unwrap());
        let exp = UBig::from(65537u64);
        let plan = crate::FixedExponentPlan::new(std::sync::Arc::clone(&ctx), &exp);
        let bases: Vec<UBig> = (0u64..20).map(|i| UBig::from(i * 37 + 5)).collect();
        let batch = plan.pow_batch(&bases);
        assert_eq!(batch.len(), bases.len());
        for (b, got) in bases.iter().zip(&batch) {
            assert_eq!(got, &ctx.pow(b, &exp));
        }
        assert!(plan.pow_batch(&[]).is_empty());
    }

    #[test]
    fn one_mont_is_r_mod_n() {
        let m = UBig::from(1_000_003u64);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let r = UBig::one().shl_bits(64).rem_ref(&m).unwrap();
        assert_eq!(UBig::from_limbs(ctx.one_mont.clone()), r);
    }
}
