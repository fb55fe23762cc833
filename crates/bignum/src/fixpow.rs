//! Fixed-exponent exponentiation: one plan per key, one batch dispatch.
//!
//! Every protocol round in the paper raises a whole codeword set to the
//! *same* secret exponent — §6.1 charges `Ce·(|VS| + 2|VR|)`
//! exponentiations for intersection, all sharing one `e` per key. Two
//! amortizations fall out of that shape:
//!
//! 1. **Plan reuse** ([`FixedExponentPlan`]): the sliding-window recoding
//!    of the exponent (window schedule, odd-powers table layout) is
//!    computed once per key and replayed for every base, across calls.
//! 2. **Lane interleaving** ([`FixedExponentPlan::pow_batch`]): on a CPU
//!    with AVX-512 IFMA, blocks of eight bases walk the shared window
//!    schedule together, one radix-2^52 Montgomery lane per base in the
//!    crate-private `ifma` kernel. This is a single-core win: it needs no
//!    threads, so it holds on a 1-core host where thread pools lose.
//!
//! Two tiers, see [`KernelTier`]: a context whose modulus fits the IFMA
//! kernel's digit budget, on a CPU that has it, runs every batch on
//! padded 8-lane IFMA blocks; every other context runs the sliding-window
//! ladder of [`MontgomeryCtx::pow`] once per base. Results are identical
//! for every modulus.

use std::fmt;
use std::sync::Arc;

use crate::limb::{Limb, LIMB_BITS};
use crate::montgomery::{recode_exponent, window_for_bits, MontgomeryCtx, PowPlan};
use crate::UBig;

/// Which kernel [`FixedExponentPlan::pow_batch`] runs batches on.
/// A function of the CPU and the modulus width only — public
/// information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelTier {
    /// Eight radix-2^52 lanes on AVX-512 IFMA (the `ifma` module).
    Ifma52x8,
    /// The single-lane sliding-window ladder, once per base.
    Ladder,
}

impl KernelTier {
    /// Stable name for logs: `ifma52x8` or `ladder`.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelTier::Ifma52x8 => "ifma52x8",
            KernelTier::Ladder => "ladder",
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl MontgomeryCtx {
    /// True when batches under this context run on the IFMA lanes: the
    /// CPU passes runtime detection and the modulus fits the lane
    /// kernel's digit budget.
    pub fn simd_active(&self) -> bool {
        self.kernel_tier() == KernelTier::Ifma52x8
    }

    /// The tier batches under this context run on.
    pub fn kernel_tier(&self) -> KernelTier {
        match self.ifma_ctx() {
            Some(_) => KernelTier::Ifma52x8,
            None => KernelTier::Ladder,
        }
    }
}

/// AVX-512 IFMA lane path: digit conversions between 64-bit limbs and the
/// radix-2^52 layout `ifma` computes in, plus the batch driver.
/// The exponent's recoded schedule stays in this module — `ifma` only
/// ever sees individual multiply operands and public modulus constants.
mod simd_path {
    use super::*;
    use crate::ifma::{self, IfmaCtx, DIGIT_BITS, DIGIT_MASK, LANES};

    /// Canonical radix-2^52 digits of a little-endian limb slice (which
    /// may be shorter than the digits cover — high digits read as zero).
    fn limbs_to_digits(limbs: &[Limb], out: &mut [u64]) {
        for (d, slot) in out.iter_mut().enumerate() {
            let off = d * DIGIT_BITS as usize;
            let i = off / LIMB_BITS as usize;
            let sh = off % LIMB_BITS as usize;
            let mut v = limbs.get(i).copied().unwrap_or(0) >> sh;
            if sh > (LIMB_BITS - DIGIT_BITS) as usize {
                v |= limbs.get(i + 1).copied().unwrap_or(0) << (LIMB_BITS as usize - sh);
            }
            *slot = v & DIGIT_MASK;
        }
    }

    /// Reassembles canonical radix-2^52 digits into a `UBig`.
    fn digits_to_ubig(digits: &[u64]) -> UBig {
        let bits = digits.len() * DIGIT_BITS as usize;
        let nlimbs = bits.div_ceil(LIMB_BITS as usize);
        let mut limbs = vec![0 as Limb; nlimbs];
        for (d, &dig) in digits.iter().enumerate() {
            let off = d * DIGIT_BITS as usize;
            let i = off / LIMB_BITS as usize;
            let sh = off % LIMB_BITS as usize;
            limbs[i] |= dig << sh;
            if sh > (LIMB_BITS - DIGIT_BITS) as usize && i + 1 < nlimbs {
                limbs[i + 1] |= dig >> (LIMB_BITS as usize - sh);
            }
        }
        UBig::from_limbs(limbs)
    }

    impl MontgomeryCtx {
        /// The cached IFMA lane context for this modulus, built on first
        /// use: `None` (once probed) when the CPU lacks AVX-512 IFMA or
        /// the modulus exceeds the lane kernel's digit budget. The digit
        /// count comes from the modulus *bit length*
        /// (`ifma::digits_for_bits`: `bit_len + 2 <= 52k`), which
        /// is what gives the almost-Montgomery kernel its headroom —
        /// `ceil(64·limbs/52)` would leave a full 13-limb modulus none.
        /// Only public constants (n, R'² mod n, -n⁻¹ mod 2^52) cross into
        /// `ifma`.
        pub(crate) fn ifma_ctx(&self) -> Option<&Arc<IfmaCtx>> {
            self.ifma
                .get_or_init(|| {
                    if !ifma::available() {
                        return None;
                    }
                    let k = ifma::digits_for_bits(self.modulus().bit_len())?;
                    let r_bits = (k as u64) * DIGIT_BITS as u64;
                    let rr = UBig::one()
                        .shl_bits(2 * r_bits)
                        .rem_ref(self.modulus())
                        .ok()?;
                    let mut n52 = vec![0u64; k];
                    let mut rr52 = vec![0u64; k];
                    limbs_to_digits(&self.n, &mut n52);
                    limbs_to_digits(rr.limbs(), &mut rr52);
                    let n0_inv52 = self.n0_inv & DIGIT_MASK;
                    IfmaCtx::new(&n52, n0_inv52, &rr52).map(Arc::new)
                })
                .as_ref()
        }

        /// Batch driver for the IFMA path: blocks of 8 bases walk the
        /// shared window schedule together — the same ladder shape as
        /// the single-base `pow_planned`, one base per lane. Every lane
        /// buffer (odd-powers table, accumulator pair) is allocated once
        /// per batch and reused by every block. A ragged tail, down to a
        /// one-base batch, replays lane 0 in the unused lanes (uniform
        /// kernel math, discarded results): a block costs about one
        /// ladder `pow` however few of its lanes are used.
        pub(super) fn pow_batch_ifma(
            &self,
            ictx: &IfmaCtx,
            bases: &[UBig],
            plan: &PowPlan,
        ) -> Vec<UBig> {
            let Some(init_idx) = plan.init_idx else {
                // Zero exponent: empty ladder, every result is 1 (n > 1).
                return vec![UBig::one(); bases.len()];
            };
            let k = ictx.k();
            let mut out = Vec::with_capacity(bases.len());
            let mut digits = vec![0u64; k];
            let mut lanes = ictx.zero_block();
            // Odd powers only: table[i] = base^(2i+1) in Montgomery form.
            let mut table = vec![ictx.zero_block(); plan.max_idx + 1];
            let mut base_sq = ictx.zero_block();
            let mut acc = ictx.zero_block();
            let mut tmp = ictx.zero_block();
            for block in bases.chunks(LANES) {
                for (lane, base) in block.iter().enumerate() {
                    let reduced = base.rem_ref(self.modulus()).expect("modulus nonzero");
                    limbs_to_digits(reduced.limbs(), &mut digits);
                    lanes.set_lane(lane, &digits);
                }
                for lane in block.len()..LANES {
                    lanes.copy_lane(0, lane);
                }
                ictx.to_mont(&lanes, &mut table[0]);
                if table.len() > 1 {
                    ictx.mont_sqr(&table[0], &mut base_sq);
                    for i in 1..table.len() {
                        let (built, rest) = table.split_at_mut(i);
                        ictx.mont_mul(&built[i - 1], &base_sq, &mut rest[0]);
                    }
                }
                acc.clone_from(&table[init_idx]);
                for step in &plan.steps {
                    for _ in 0..step.squarings {
                        ictx.mont_sqr(&acc, &mut tmp);
                        std::mem::swap(&mut acc, &mut tmp);
                    }
                    ictx.mont_mul(&acc, &table[step.table_idx], &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                }
                for _ in 0..plan.tail_squarings {
                    ictx.mont_sqr(&acc, &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                }
                ictx.from_mont(&acc, &mut tmp);
                for lane in 0..block.len() {
                    tmp.lane(lane, &mut digits);
                    // from_mont leaves values <= n; one rem finishes the
                    // conditional subtract in the integer domain.
                    out.push(
                        digits_to_ubig(&digits)
                            .rem_ref(self.modulus())
                            .expect("modulus nonzero"),
                    );
                }
            }
            out
        }
    }
}

/// A reusable fixed-exponent exponentiation plan: the sliding-window
/// recoding of one exponent plus (a handle to) the Montgomery constants
/// of one modulus, built once per key and replayed for every value.
///
/// The recoded schedule is a deterministic encoding of the exponent, so
/// the plan is secret material wherever the exponent is: it has no
/// `Debug`/`PartialEq` derives, and the schedule is zeroized on drop.
pub struct FixedExponentPlan {
    ctx: Arc<MontgomeryCtx>,
    plan: PowPlan,
}

impl FixedExponentPlan {
    /// Recodes `exponent` for the modulus behind `ctx`. Cost is one bit
    /// scan of the exponent; no per-base state is built until use.
    pub fn new(ctx: Arc<MontgomeryCtx>, exponent: &UBig) -> Self {
        let plan = recode_exponent(exponent, window_for_bits(exponent.bit_len()));
        FixedExponentPlan { ctx, plan }
    }

    /// The modulus this plan exponentiates under.
    pub fn modulus(&self) -> &UBig {
        self.ctx.modulus()
    }

    /// `base^e mod n` for this plan's fixed `e`, via the scalar ladder.
    pub fn pow(&self, base: &UBig) -> UBig {
        self.ctx
            .from_mont(&self.ctx.pow_planned(&self.ctx.to_mont(base), &self.plan))
    }

    /// `base^e mod n` for every base, on the context's [`KernelTier`]:
    /// padded IFMA blocks of eight bases walking the cached window
    /// schedule together where the context has an IFMA kernel, otherwise
    /// [`Self::pow`] per base. The one batch dispatch every protocol and
    /// the daemon run.
    pub fn pow_batch(&self, bases: &[UBig]) -> Vec<UBig> {
        match self.ctx.ifma_ctx() {
            Some(ictx) => self.ctx.pow_batch_ifma(ictx, bases, &self.plan),
            None => bases.iter().map(|b| self.pow(b)).collect(),
        }
    }
}

impl fmt::Debug for FixedExponentPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The schedule encodes the exponent: expose only public shape.
        f.debug_struct("FixedExponentPlan")
            .field("modulus_bits", &self.ctx.modulus().bit_len())
            .finish_non_exhaustive()
    }
}

impl Drop for FixedExponentPlan {
    fn drop(&mut self) {
        self.plan.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifma::LANES;

    fn ctx_512() -> MontgomeryCtx {
        // Odd 512-bit modulus (8 limbs): a fixed-width squaring width.
        let m = UBig::from_hex_str(
            "f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5e4f3a2b1c0d9e8f71\
             23456789abcdef0fedcba987654321ffffffffffffffff0123456789abcdef03",
        )
        .unwrap();
        MontgomeryCtx::new(&m).unwrap()
    }

    fn ctx_3_limbs() -> MontgomeryCtx {
        // 192-bit modulus (3 limbs): the ladder's generic squaring.
        let m = UBig::from_hex_str("f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5f").unwrap();
        MontgomeryCtx::new(&m).unwrap()
    }

    fn bases(ctx: &MontgomeryCtx, count: usize) -> Vec<UBig> {
        (0..count as u64)
            .map(|i| {
                UBig::from(i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3))
                    .modpow_binary(&UBig::from(3u64), ctx.modulus())
            })
            .collect()
    }

    fn plan(ctx: &Arc<MontgomeryCtx>, exp: &UBig) -> FixedExponentPlan {
        FixedExponentPlan::new(Arc::clone(ctx), exp)
    }

    #[test]
    fn multi_matches_scalar_batch_all_ragged_tails() {
        let ctx = Arc::new(ctx_512());
        let plan = plan(
            &ctx,
            &UBig::from_hex_str("deadbeefcafebabe0123456789abcdef").unwrap(),
        );
        // 1..=2·LANES+1 = 1..=17 covers every tail of the 8-lane IFMA
        // block (batch % LANES in 0..LANES), one-base batches included.
        for count in 1..=(2 * LANES + 1) {
            let bases = bases(&ctx, count);
            let ladder: Vec<UBig> = bases.iter().map(|b| plan.pow(b)).collect();
            assert_eq!(plan.pow_batch(&bases), ladder, "count={count}");
        }
        assert!(plan.pow_batch(&[]).is_empty());
    }

    #[test]
    fn multi_adversarial_exponents() {
        let ctx = Arc::new(ctx_512());
        let bases = bases(&ctx, LANES + 1);
        let exps = [
            UBig::zero(),
            UBig::one(),
            UBig::from(2u64),
            ctx.modulus().sub_small(2).unwrap(),
            UBig::one().shl_bits(511),
            UBig::one().shl_bits(512).sub_small(1).unwrap(),
        ];
        for exp in &exps {
            let want: Vec<UBig> = bases
                .iter()
                .map(|b| b.modpow_binary(exp, ctx.modulus()))
                .collect();
            assert_eq!(
                plan(&ctx, exp).pow_batch(&bases),
                want,
                "exp bits={}",
                exp.bit_len()
            );
        }
    }

    #[test]
    fn generic_width_falls_back_to_scalar() {
        let ctx = Arc::new(ctx_3_limbs());
        let exp = UBig::from(65537u64);
        let bases = bases(&ctx, LANES + 2);
        let want: Vec<UBig> = bases
            .iter()
            .map(|b| b.modpow_binary(&exp, ctx.modulus()))
            .collect();
        assert_eq!(plan(&ctx, &exp).pow_batch(&bases), want);
    }

    #[test]
    fn ifma_digit_count_follows_the_modulus_bit_length() {
        let full_width = |limbs: u64| {
            let m = UBig::one().shl_bits(64 * limbs).sub_small(0x1235).unwrap();
            MontgomeryCtx::new(&m).unwrap()
        };
        // On a host without IFMA every context is declined.
        let digits = |ctx: &MontgomeryCtx| ctx.ifma_ctx().map(|ictx| ictx.k());
        let on_ifma = |k: usize| crate::ifma::available().then_some(k);
        // A full 13-limb modulus has 832 = 52·16 bits: sixteen digits would
        // leave the almost-Montgomery kernel zero headroom, so it must get
        // a seventeenth — never run as ceil(64·13/52) = 16.
        assert_eq!(digits(&full_width(13)), on_ifma(17));
        for (limbs, k) in [(8, 10), (12, 15), (16, 20), (24, 30), (32, 40)] {
            assert_eq!(digits(&full_width(limbs)), on_ifma(k), "{limbs} limbs");
        }
        // Past the 40-digit cap the IFMA tier declines and the ladder
        // serves the modulus.
        let wide = full_width(33);
        assert_eq!(digits(&wide), None);
        assert_eq!(wide.kernel_tier(), KernelTier::Ladder);
    }

    #[test]
    fn plan_reuse_matches_fresh_recode() {
        let ctx = Arc::new(ctx_512());
        let exp = UBig::from_hex_str("0123456789abcdef00ff00ff00ff00ff").unwrap();
        let plan = plan(&ctx, &exp);
        assert_eq!(plan.modulus(), ctx.modulus());
        let bases = bases(&ctx, 2 * LANES + 3);
        // `MontgomeryCtx::pow` recodes the exponent afresh on every call.
        let fresh: Vec<UBig> = bases.iter().map(|b| ctx.pow(b, &exp)).collect();
        for _ in 0..2 {
            assert_eq!(plan.pow_batch(&bases), fresh);
        }
        assert_eq!(plan.pow(&bases[0]), fresh[0]);
    }
}
