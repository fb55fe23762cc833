//! Multi-lane fixed-exponent exponentiation.
//!
//! Every protocol round in the paper raises a whole codeword set to the
//! *same* secret exponent — §6.1 charges `Ce·(|VS| + 2|VR|)`
//! exponentiations for intersection, all sharing one `e` per key. Two
//! amortizations fall out of that shape:
//!
//! 1. **Plan reuse** ([`FixedExponentPlan`]): the sliding-window recoding
//!    of the exponent (window schedule, odd-powers table layout) is
//!    computed once per key and replayed for every base, across calls.
//! 2. **Lane interleaving** ([`FixedExponentPlan::pow_batch`]): the
//!    ladder advances [`LANES`] independent Montgomery lanes per window
//!    step. A single CIOS carry chain is serial — each `mac` waits on the
//!    previous carry — so a scalar kernel leaves most of the multiplier's
//!    pipeline idle. Interleaving K independent lanes at the *limb* level
//!    (inner loop over lanes for each limb position) puts K disjoint
//!    carry chains in flight, letting the out-of-order core overlap them.
//!    This is a single-core ILP win: it needs no threads, so it holds on
//!    the 1-core bench host where thread pools lose.
//!
//! Three tiers, one dispatch ([`MontgomeryCtx::pow_batch_planned`]), see
//! [`KernelTier`]: the AVX-512 IFMA lanes of `minshare-simd` (`simd`
//! feature, runtime-detected), the portable interleaved lanes of this
//! module, and the generic `Vec`-based sliding-window ladder. The lane
//! kernels are const-generic over the limb count and monomorphized for the
//! widths in `with_lane_width!` — the 4/8-limb demo groups and every
//! well-known group the daemon serves (12/16/24/32 limbs) — with all
//! scratch on the stack; any other width (Paillier `n²`, test moduli)
//! takes the ladder, so results are identical for every modulus.

use std::fmt;
use std::sync::Arc;

use crate::limb::{adc, mac, mul_wide, sbb, Limb, LIMB_BITS};
use crate::montgomery::{geq, recode_exponent, window_for_bits, MontgomeryCtx, PowPlan};
use crate::UBig;

/// Number of independent Montgomery lanes the interleaved kernels
/// advance per window step. Four 64-bit carry chains are enough to cover
/// the multiply latency on current cores.
pub const LANES: usize = 4;

/// Runs `$body` with `$S` bound to the limb count `$limbs` and `$W` to the
/// matching squaring-scratch width `2·S + 1` as constants, for the widths
/// that have monomorphized lane kernels; any other width evaluates
/// `$fallback`. The one list of dispatched widths: the portable lane tier,
/// the single-lane squaring of the ladder and [`KernelTier`] all go
/// through it.
macro_rules! with_lane_width {
    ($limbs:expr, |$S:ident, $W:ident| $body:expr, _ => $fallback:expr) => {
        with_lane_width!(@arms $limbs, $S, $W, $body, $fallback,
            4 9, 8 17, 12 25, 16 33, 24 49, 32 65)
    };
    (@arms $limbs:expr, $S:ident, $W:ident, $body:expr, $fallback:expr,
     $($s:literal $w:literal),*) => {
        match $limbs {
            $($s => {
                const $S: usize = $s;
                const $W: usize = $w;
                $body
            })*
            _ => $fallback,
        }
    };
}
pub(crate) use with_lane_width;

/// Which kernel [`MontgomeryCtx::pow_batch_planned`] runs batches on.
/// A function of the build (`simd` feature), the CPU and the modulus
/// width only — public information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelTier {
    /// Eight radix-2^52 lanes on AVX-512 IFMA (`minshare-simd`).
    Ifma52x8,
    /// [`LANES`] interleaved 64-bit lanes, portable.
    Lanes4,
    /// The generic single-lane sliding-window ladder.
    Ladder,
}

impl KernelTier {
    /// Stable name for logs: `ifma52x8`, `lanes4` or `ladder`.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelTier::Ifma52x8 => "ifma52x8",
            KernelTier::Lanes4 => "lanes4",
            KernelTier::Ladder => "ladder",
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Final CIOS cleanup for one lane: copy the low `S` limbs out of the
/// row buffer and apply the single conditional subtract (`t < 2n`).
fn finish_lane<const S: usize>(t: &[Limb], top: Limb, n: &[Limb; S], out: &mut [Limb; S]) {
    out.copy_from_slice(&t[..S]);
    if top != 0 || geq(out, n) {
        let mut borrow: Limb = 0;
        for i in 0..S {
            out[i] = sbb(out[i], n[i], &mut borrow);
        }
        debug_assert_eq!(top.wrapping_sub(borrow), 0);
    }
}

/// `L`-lane CIOS Montgomery multiplication: `out[l] = a[l]·b[l]·R⁻¹
/// mod n` for all lanes. The inner loops run lane-innermost so the
/// independent carry chains interleave in the instruction stream; all
/// scratch lives on the stack and the loop bodies are allocation-free.
fn mul_lanes<const S: usize, const L: usize>(
    n: &[Limb; S],
    n0_inv: Limb,
    a: &[[Limb; S]; L],
    b: &[[Limb; S]; L],
    out: &mut [[Limb; S]; L],
) {
    // Row buffer t[l][0..S] plus the two limbs above it.
    let mut t = [[0 as Limb; S]; L];
    let mut hi = [0 as Limb; L];
    let mut hi2 = [0 as Limb; L];
    #[allow(clippy::needless_range_loop)] // lockstep limb walk across lanes
    for i in 0..S {
        // t[l] += a[l][i] * b[l]
        let mut carry = [0 as Limb; L];
        for j in 0..S {
            for l in 0..L {
                t[l][j] = mac(t[l][j], a[l][i], b[l][j], &mut carry[l]);
            }
        }
        for l in 0..L {
            let mut c2: Limb = 0;
            hi[l] = adc(hi[l], carry[l], &mut c2);
            hi2[l] = c2;
        }
        // m[l] = t[l][0] * n0_inv; t[l] = (t[l] + m[l]*n) / 2^64
        let mut m = [0 as Limb; L];
        let mut carry = [0 as Limb; L];
        for l in 0..L {
            m[l] = t[l][0].wrapping_mul(n0_inv);
            // First step: low limb becomes zero by construction.
            let _ = mac(t[l][0], m[l], n[0], &mut carry[l]);
        }
        for j in 1..S {
            for l in 0..L {
                t[l][j - 1] = mac(t[l][j], m[l], n[j], &mut carry[l]);
            }
        }
        for l in 0..L {
            let mut c2: Limb = 0;
            t[l][S - 1] = adc(hi[l], carry[l], &mut c2);
            hi[l] = hi2[l] + c2; // cannot overflow: t < 2n·R
        }
    }
    for l in 0..L {
        finish_lane(&t[l], hi[l], n, &mut out[l]);
    }
}

/// `L`-lane Montgomery squaring (`W` must be `2·S + 1`): the fused
/// triangle + double + diagonal pass, with the rows of all lanes
/// interleaved limb-by-limb, followed by a lane-interleaved deferred-carry
/// REDC. The strict upper triangle of the partial products is computed
/// once and doubled — `~1.5·S² + S` limb multiplies against the
/// multiplier's `2·S²`. With `L = 1` this is the ladder's squaring kernel
/// for the dispatched widths (`MontgomeryCtx::mont_sqr_to`): the constant
/// trip counts let the compiler unroll the short triangle rows, which is
/// where the multiply advantage materializes on real hardware.
pub(crate) fn sqr_lanes<const S: usize, const W: usize, const L: usize>(
    n: &[Limb; S],
    n0_inv: Limb,
    a: &[[Limb; S]; L],
    out: &mut [[Limb; S]; L],
) {
    const { assert!(W == 2 * S + 1) };
    let mut t = [[0 as Limb; W]; L];
    // Strict upper triangle t += Σ_{i<j} a_i·a_j·2^{64(i+j)} with doubling
    // and the diagonal fused per row. Once row i's macs finish, positions
    // 2i and 2i+1 hold their final off-diagonal sums (no later row reaches
    // below 2i+3), so they are doubled (1-bit shift) and the diagonal a_i²
    // added immediately, while still register-hot. The total is a² <
    // 2^(128·S), so nothing spills past limb 2S-1.
    let mut shift_in = [0 as Limb; L];
    let mut dcarry = [0 as Limb; L];
    for i in 0..S {
        let mut carry = [0 as Limb; L];
        for j in i + 1..S {
            for l in 0..L {
                t[l][i + j] = mac(t[l][i + j], a[l][i], a[l][j], &mut carry[l]);
            }
        }
        for l in 0..L {
            // Never written by an earlier row (rows reach index i+S-1).
            t[l][i + S] = carry[l];
            let (lo, hi) = mul_wide(a[l][i], a[l][i]);
            let even = t[l][2 * i];
            let odd = t[l][2 * i + 1];
            let d0 = (even << 1) | shift_in[l];
            let d1 = (odd << 1) | (even >> (LIMB_BITS - 1));
            shift_in[l] = odd >> (LIMB_BITS - 1);
            t[l][2 * i] = adc(d0, lo, &mut dcarry[l]);
            t[l][2 * i + 1] = adc(d1, hi, &mut dcarry[l]);
        }
    }
    debug_assert!(shift_in.iter().chain(&dcarry).all(|&c| c == 0));
    // REDC with branchless deferred row carries (see `redc_to`).
    let mut deferred = [0 as Limb; L];
    for i in 0..S {
        let mut m = [0 as Limb; L];
        for l in 0..L {
            m[l] = t[l][i].wrapping_mul(n0_inv);
        }
        let mut carry = [0 as Limb; L];
        for j in 0..S {
            for l in 0..L {
                t[l][i + j] = mac(t[l][i + j], m[l], n[j], &mut carry[l]);
            }
        }
        for l in 0..L {
            let mut c1: Limb = 0;
            let top = adc(t[l][i + S], carry[l], &mut c1);
            let mut c2: Limb = 0;
            t[l][i + S] = adc(top, deferred[l], &mut c2);
            deferred[l] = c1 + c2;
        }
    }
    for l in 0..L {
        let mut c: Limb = 0;
        t[l][2 * S] = adc(t[l][2 * S], deferred[l], &mut c);
        debug_assert_eq!(c, 0);
        finish_lane(&t[l][S..2 * S], t[l][2 * S], n, &mut out[l]);
    }
}

impl MontgomeryCtx {
    /// The modulus limbs as a fixed-width array (`S` is the dispatched
    /// limb count, so the conversion cannot fail).
    pub(crate) fn modulus_limbs<const S: usize>(&self) -> &[Limb; S] {
        self.n
            .as_slice()
            .try_into()
            .expect("dispatch checked width")
    }

    /// Executes a recoded exponent against one block of [`LANES`]
    /// Montgomery-form bases, advancing all lanes through the shared
    /// window schedule. Identical ladder shape to the scalar
    /// `pow_planned`; only the kernels are lane-blocked.
    fn pow_block<const S: usize, const W: usize>(
        &self,
        bases: &[[Limb; S]; LANES],
        plan: &PowPlan,
    ) -> [[Limb; S]; LANES] {
        let n = self.modulus_limbs::<S>();
        let n0_inv = self.n0_inv;
        let init_idx = match plan.init_idx {
            // Zero exponent: empty ladder, every lane is 1 in Montgomery form.
            None => {
                let one: [Limb; S] = self.one_mont.as_slice().try_into().expect("ctx width");
                return [one; LANES];
            }
            Some(idx) => idx,
        };
        // Odd powers only: table[i][l] = base_l^(2i+1) in Montgomery form.
        let table_len = plan.max_idx + 1;
        let mut table: Vec<[[Limb; S]; LANES]> = Vec::with_capacity(table_len);
        table.push(*bases);
        let mut tmp = [[0 as Limb; S]; LANES];
        if table_len > 1 {
            let mut base_sq = tmp;
            sqr_lanes::<S, W, LANES>(n, n0_inv, bases, &mut base_sq);
            for i in 1..table_len {
                mul_lanes(n, n0_inv, &table[i - 1], &base_sq, &mut tmp);
                table.push(tmp);
            }
        }
        let mut acc = table[init_idx];
        for step in &plan.steps {
            for _ in 0..step.squarings {
                sqr_lanes::<S, W, LANES>(n, n0_inv, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            mul_lanes(n, n0_inv, &acc, &table[step.table_idx], &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        for _ in 0..plan.tail_squarings {
            sqr_lanes::<S, W, LANES>(n, n0_inv, &acc, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        acc
    }

    /// Raises a batch of bases through the fixed-width interleaved
    /// kernels, [`LANES`] at a time. A ragged tail replays lane 0 in the
    /// unused lanes and discards their results — same wall time as a
    /// full block, but correctness never depends on the batch shape.
    fn pow_batch_fixed<const S: usize, const W: usize>(
        &self,
        bases: &[UBig],
        plan: &PowPlan,
    ) -> Vec<UBig> {
        let mut out = Vec::with_capacity(bases.len());
        for block in bases.chunks(LANES) {
            let mut lanes = [[0 as Limb; S]; LANES];
            for (lane, base) in lanes.iter_mut().zip(block) {
                lane.copy_from_slice(&self.to_mont(base));
            }
            for l in block.len()..LANES {
                lanes[l] = lanes[0];
            }
            let res = self.pow_block::<S, W>(&lanes, plan);
            for lane in res.iter().take(block.len()) {
                out.push(self.from_mont(lane));
            }
        }
        out
    }

    /// Replays one recoded plan over a batch of bases on the best
    /// [`KernelTier`] available: the AVX-512 IFMA lane backend when the
    /// `simd` feature is on, the CPU supports it, the modulus fits its
    /// digit budget and the batch is large enough to fill its wider lanes;
    /// otherwise the portable tiers. All paths are proptest-differentialed
    /// to identical results.
    pub(crate) fn pow_batch_planned(&self, bases: &[UBig], plan: &PowPlan) -> Vec<UBig> {
        #[cfg(feature = "simd")]
        if bases.len() >= simd_path::MIN_SIMD_BATCH {
            if let Some(ictx) = self.ifma_ctx() {
                return self.pow_batch_ifma(ictx, bases, plan);
            }
        }
        self.pow_batch_scalar_planned(bases, plan)
    }

    /// The portable dispatch: interleaved fixed-width lanes for the
    /// protocol-standard moduli, sliding-window ladder otherwise.
    fn pow_batch_scalar_planned(&self, bases: &[UBig], plan: &PowPlan) -> Vec<UBig> {
        with_lane_width!(
            self.limbs(),
            |S, W| self.pow_batch_fixed::<S, W>(bases, plan),
            _ => bases
                .iter()
                .map(|b| self.from_mont(&self.pow_planned(&self.to_mont(b), plan)))
                .collect()
        )
    }

    /// [`FixedExponentPlan::pow_batch`] pinned to the portable kernels,
    /// bypassing any SIMD backend: what a host without AVX-512 IFMA (or a
    /// build without the `simd` feature) runs. This is the differential
    /// oracle for the `simd` feature's proptests and the honest "scalar
    /// lanes" side of the kernel benchmarks; in a default build it returns
    /// exactly what the plan's dispatch returns.
    pub fn pow_batch_scalar(&self, bases: &[UBig], exponent: &UBig) -> Vec<UBig> {
        let plan = recode_exponent(exponent, window_for_bits(exponent.bit_len()));
        self.pow_batch_scalar_planned(bases, &plan)
    }

    /// True when batches under this context actually run on the SIMD
    /// backend: the `simd` feature is compiled in, the CPU passes runtime
    /// detection, and the modulus fits the lane kernel's digit budget.
    pub fn simd_active(&self) -> bool {
        self.kernel_tier() == KernelTier::Ifma52x8
    }

    /// The tier full batches under this context run on.
    pub fn kernel_tier(&self) -> KernelTier {
        #[cfg(feature = "simd")]
        if self.ifma_ctx().is_some() {
            return KernelTier::Ifma52x8;
        }
        with_lane_width!(self.limbs(), |_S, _W| KernelTier::Lanes4, _ => KernelTier::Ladder)
    }
}

/// AVX-512 IFMA lane path: digit conversions between 64-bit limbs and the
/// radix-2^52 layout the SIMD crate computes in, plus the batch driver.
/// The exponent's recoded schedule stays on this side of the crate
/// boundary — `minshare-simd` only ever sees individual multiply operands
/// and public modulus constants.
#[cfg(feature = "simd")]
mod simd_path {
    use super::*;
    use minshare_simd::{IfmaCtx, DIGIT_BITS, DIGIT_MASK, LANES as SIMD_LANES};

    /// Below this batch size the 8-wide lane kernel runs mostly empty, so
    /// the batch stays on the portable tiers; the protocol hot path (whole
    /// codeword sets per round) is always far above it.
    pub(super) const MIN_SIMD_BATCH: usize = 4;

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
        /// (`minshare_simd::digits_for_bits`: `bit_len + 2 <= 52k`), which
        /// is what gives the almost-Montgomery kernel its headroom —
        /// `ceil(64·limbs/52)` would leave a full 13-limb modulus none.
        /// Only public constants (n, R'² mod n, -n⁻¹ mod 2^52) cross into
        /// the SIMD crate.
        pub(crate) fn ifma_ctx(&self) -> Option<&Arc<IfmaCtx>> {
            self.ifma
                .get_or_init(|| {
                    if !minshare_simd::available() {
                        return None;
                    }
                    let k = minshare_simd::digits_for_bits(self.modulus().bit_len())?;
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
        /// [`MontgomeryCtx::pow_block`] with the lane kernels swapped for
        /// the IFMA backend. Every lane buffer (odd-powers table,
        /// accumulator pair) is allocated once per batch and reused by
        /// every block. Ragged tails replay lane 0 in the unused lanes
        /// (uniform kernel math, discarded results), mirroring the scalar
        /// kernel's tail policy.
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
            for block in bases.chunks(SIMD_LANES) {
                for (lane, base) in block.iter().enumerate() {
                    let reduced = base.rem_ref(self.modulus()).expect("modulus nonzero");
                    limbs_to_digits(reduced.limbs(), &mut digits);
                    lanes.set_lane(lane, &digits);
                }
                for lane in block.len()..SIMD_LANES {
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

    /// `base^e mod n` for every base, on the best [`KernelTier`]: each
    /// block of bases walks the cached window schedule together so their
    /// Montgomery carry chains overlap on a single core. The one batch
    /// dispatch every protocol and the daemon run.
    pub fn pow_batch(&self, bases: &[UBig]) -> Vec<UBig> {
        self.ctx.pow_batch_planned(bases, &self.plan)
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

    fn ctx_512() -> MontgomeryCtx {
        // Odd 512-bit modulus (8 limbs): exercises the interleaved kernel.
        let m = UBig::from_hex_str(
            "f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5e4f3a2b1c0d9e8f71\
             23456789abcdef0fedcba987654321ffffffffffffffff0123456789abcdef03",
        )
        .unwrap();
        MontgomeryCtx::new(&m).unwrap()
    }

    fn ctx_3_limbs() -> MontgomeryCtx {
        // 192-bit modulus: no lane kernel, exercises the ladder fallback.
        let m = UBig::from_hex_str(
            "f37fa8e5afa15b9d4b2f7c8d6e5a4b3c2d1e0f9a8b7c6d5f",
        )
        .unwrap();
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
        // 1..=2·LANES+1 covers every tail shape (batch % LANES in 0..LANES).
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

    #[cfg(feature = "simd")]
    #[test]
    fn ifma_digit_count_follows_the_modulus_bit_length() {
        let full_width = |limbs: u64| {
            let m = UBig::one().shl_bits(64 * limbs).sub_small(0x1235).unwrap();
            MontgomeryCtx::new(&m).unwrap()
        };
        // On a host without IFMA every context is declined.
        let digits = |ctx: &MontgomeryCtx| ctx.ifma_ctx().map(|ictx| ictx.k());
        let on_ifma = |k: usize| minshare_simd::available().then_some(k);
        // A full 13-limb modulus has 832 = 52·16 bits: sixteen digits would
        // leave the almost-Montgomery kernel zero headroom, so it must get
        // a seventeenth — never run as ceil(64·13/52) = 16.
        assert_eq!(digits(&full_width(13)), on_ifma(17));
        for (limbs, k) in [(8, 10), (12, 15), (16, 20), (24, 30), (32, 40)] {
            assert_eq!(digits(&full_width(limbs)), on_ifma(k), "{limbs} limbs");
        }
        // Past the 40-digit cap the IFMA tier declines and the portable
        // tiers serve the modulus.
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
