//! AVX-512 IFMA lane kernel: the `Ifma52x8` tier, and the only module in
//! the workspace where `unsafe` is allowed.
//!
//! The crate carries `#![deny(unsafe_code)]` and this module alone is
//! `#[allow(unsafe_code)]`, so the arch intrinsics live here behind a
//! small, safe, data-only API ([`IfmaCtx`], [`LaneBlock`]). Eight
//! Montgomery multiplications run in parallel, one per 64-bit slot of a
//! zmm register, in radix-2^52 with the 52x52->104-bit fused multiply-adds
//! (`vpmadd52luq` / `vpmadd52huq`) — the same digit layout production RSA
//! stacks use for batched modexp. Runtime CPU detection gates
//! construction: on hosts (or architectures) without AVX-512 IFMA,
//! [`IfmaCtx::new`] returns `None` and [`crate::fixpow`] runs the ladder,
//! so every build is safe to ship anywhere.
//!
//! Width: a context works in `k` digits, `1 <= k <= MAX_DIGITS = 40`, which
//! covers every well-known group the daemon serves — k = 15 / 20 / 30 / 40
//! for 768 / 1024 / 1536 / 2048 bits — as well as the 256/512-bit demo
//! groups. Lane blocks are sized by the context's `k` (a `k`-row digit-major
//! buffer), so a narrow modulus never pays for the widest one. `k` comes
//! from the modulus **bit length** ([`digits_for_bits`]), not its limb
//! count; [`IfmaCtx::new`] re-checks the headroom bound on the digits it is
//! handed (bound (b) below).
//!
//! Security posture: this module never sees key material. It operates on
//! public modulus constants (n, R'^2 mod n, -n^-1 mod 2^52) and on group
//! elements that are already hashed values or ciphertexts. Exponents — the
//! secret half of a commutative key — stay in [`crate::fixpow`], which
//! drives the square/multiply schedule and only hands this module
//! individual multiply operands. There is therefore nothing here to
//! zeroize, and no Debug impl exposes anything a wire observer could not
//! already see.
//!
//! # The kernel
//!
//! Both IFMA instructions read only the low 52 bits of their multiplicands
//! and add into a full 64-bit accumulator, so the accumulators are kept
//! redundant (non-canonical) and carries are propagated once at the end.
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
//! from [`digits_for_bits`] and [`IfmaCtx::new`] refuses a modulus whose
//! top digit reaches 2^50. `from_mont` (multiply by 1) tightens the bound
//! to <= n; the caller does the last conditional subtract.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Number of parallel Montgomery lanes in one block (one zmm register
/// holds eight 64-bit digit slots).
pub(crate) const LANES: usize = 8;

/// Digits are radix-2^52 so the 52x52->104 bit IFMA multiplier applies.
pub(crate) const DIGIT_BITS: u32 = 52;

/// Low-52-bit mask for canonical digits.
pub(crate) const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Largest supported digit count: a 2048-bit modulus needs
/// ceil((2048 + 2)/52) = 40 radix-2^52 digits. The kernel's accumulator
/// bound (a) is proven for every `k` up to this cap.
const MAX_DIGITS: usize = 40;

/// Digit count `k` giving a `bits`-bit modulus the two bits of headroom the
/// almost-Montgomery kernel needs (`4n <= 2^(52k)`); `None` when that
/// exceeds [`MAX_DIGITS`] or `bits` is zero.
pub(crate) fn digits_for_bits(bits: u64) -> Option<usize> {
    let k = usize::try_from(bits.checked_add(2)?.div_ceil(u64::from(DIGIT_BITS))).ok()?;
    (bits > 0 && k <= MAX_DIGITS).then_some(k)
}

/// Returns true when the running CPU supports the AVX-512 IFMA path
/// (detected once and cached). Always false off x86_64.
pub(crate) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512ifma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Digit `j` of all eight lanes: one unaligned 512-bit load.
type DigitRow = [u64; LANES];

/// Eight residues in digit-major ("lanes of limbs") layout: row `j` holds
/// digit `j` of every lane. A block has exactly as many rows as the context
/// it is used with has digits. Digits are canonical radix-2^52 (< 2^52).
pub(crate) struct LaneBlock {
    d: Vec<DigitRow>,
}

impl Clone for LaneBlock {
    fn clone(&self) -> Self {
        LaneBlock { d: self.d.clone() }
    }

    /// Reuses the destination's buffer: the exponentiation ladder reloads
    /// its accumulator once per block without touching the allocator.
    fn clone_from(&mut self, source: &Self) {
        self.d.clone_from(&source.d);
    }
}

impl LaneBlock {
    /// All-zero block of `k` digits (the additive identity in every lane).
    fn zero(k: usize) -> Self {
        LaneBlock {
            d: vec![[0u64; LANES]; k],
        }
    }

    /// Block with the same `digits` value in every lane.
    fn broadcast(digits: &[u64]) -> Self {
        LaneBlock {
            d: digits.iter().map(|&x| [x; LANES]).collect(),
        }
    }

    /// Writes `digits` (canonical radix-2^52, no longer than the block)
    /// into one lane, zero-padding the high digits.
    pub(crate) fn set_lane(&mut self, lane: usize, digits: &[u64]) {
        assert!(lane < LANES && digits.len() <= self.d.len());
        for (j, row) in self.d.iter_mut().enumerate() {
            row[lane] = digits.get(j).copied().unwrap_or(0);
        }
    }

    /// Copies lane `from` over lane `to`.
    pub(crate) fn copy_lane(&mut self, from: usize, to: usize) {
        for row in self.d.iter_mut() {
            row[to] = row[from];
        }
    }

    /// Reads the first `out.len()` digits of one lane.
    pub(crate) fn lane(&self, lane: usize, out: &mut [u64]) {
        assert!(lane < LANES && out.len() <= self.d.len());
        for (slot, row) in out.iter_mut().zip(&self.d) {
            *slot = row[lane];
        }
    }
}

/// Per-modulus constants for the radix-2^52 Montgomery domain, R' = 2^(52k).
/// All fields are public parameters of the group; construction fails (returns
/// `None`) unless the CPU supports the IFMA path, so every method can assume
/// the intrinsics are safe to execute.
pub(crate) struct IfmaCtx {
    n: Vec<u64>,
    n0_inv: u64,
    /// R'^2 mod n and the integer 1, broadcast to every lane once.
    rr: LaneBlock,
    unit: LaneBlock,
}

impl std::fmt::Debug for IfmaCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The modulus is public, but a one-line summary keeps logs readable.
        f.debug_struct("IfmaCtx")
            .field("digits", &self.n.len())
            .field("backend", &"avx512-ifma")
            .finish()
    }
}

impl IfmaCtx {
    /// Builds the lane context from caller-computed public constants:
    /// `n` = modulus digits (their count is `k`), `n0_inv` = -n^-1 mod 2^52,
    /// `rr` = R'^2 mod n, all canonical radix-2^52 of length `k`. Returns
    /// `None` when the CPU lacks AVX-512 IFMA, `k` is out of range, any
    /// input is non-canonical, or the modulus leaves no headroom
    /// (`4n > 2^(52k)`, i.e. top digit >= 2^50) — the kernel is never run
    /// on a modulus its output bound does not cover.
    pub(crate) fn new(n: &[u64], n0_inv: u64, rr: &[u64]) -> Option<Self> {
        let k = n.len();
        if !available() || k == 0 || k > MAX_DIGITS || rr.len() != k {
            return None;
        }
        let canonical = |d: &[u64]| d.iter().all(|&x| x <= DIGIT_MASK);
        if !canonical(n) || !canonical(rr) || n0_inv > DIGIT_MASK {
            return None;
        }
        if n[0] & 1 == 0 {
            return None; // Montgomery needs an odd modulus
        }
        if n[k - 1] >> (DIGIT_BITS - 2) != 0 {
            return None; // 4n > R': the caller must take one more digit
        }
        let mut unit = vec![0u64; k];
        unit[0] = 1;
        Some(IfmaCtx {
            n: n.to_vec(),
            n0_inv,
            rr: LaneBlock::broadcast(rr),
            unit: LaneBlock::broadcast(&unit),
        })
    }

    /// Digit count k (R' = 2^(52k)).
    pub(crate) fn k(&self) -> usize {
        self.n.len()
    }

    /// A zeroed block of this context's width, for use as an output.
    pub(crate) fn zero_block(&self) -> LaneBlock {
        LaneBlock::zero(self.k())
    }

    /// Lane-parallel almost-Montgomery multiplication: each lane of `out`
    /// becomes a*b*R'^-1 with the relaxed bound `< 2n`. Inputs must be
    /// canonical digits representing values `< 2n`; the output satisfies the
    /// same invariant, so products chain without intermediate reductions.
    /// Panics unless all three blocks have this context's width.
    pub(crate) fn mont_mul(&self, a: &LaneBlock, b: &LaneBlock, out: &mut LaneBlock) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `IfmaCtx::new` returns `Some` only after runtime detection
        // of avx512f + avx512ifma on this CPU, so the target-feature gated
        // kernel is safe to call here.
        unsafe {
            mont_mul_x8(&self.n, self.n0_inv, &a.d, &b.d, &mut out.d);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (a, b, out);
            unreachable!("IfmaCtx cannot be constructed off x86_64");
        }
    }

    /// Lane-parallel almost-Montgomery squaring, `out = a*a*R'^-1 < 2n`
    /// (`mont_mul(a, a)`: see the module docs for why there is no
    /// dedicated squaring kernel).
    pub(crate) fn mont_sqr(&self, a: &LaneBlock, out: &mut LaneBlock) {
        self.mont_mul(a, a, out);
    }

    /// Converts residues (< n) into the Montgomery domain by multiplying
    /// with R'^2 mod n.
    pub(crate) fn to_mont(&self, x: &LaneBlock, out: &mut LaneBlock) {
        self.mont_mul(x, &self.rr, out);
    }

    /// Leaves the Montgomery domain (multiply by 1). The result is `<= n`;
    /// callers perform the final conditional subtract in their own integer
    /// domain.
    pub(crate) fn from_mont(&self, x: &LaneBlock, out: &mut LaneBlock) {
        self.mont_mul(x, &self.unit, out);
    }
}

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
/// `avx512f` and `avx512ifma` (see [`available`]); `IfmaCtx` enforces this
/// at construction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn mont_mul_x8(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_roundtrip() {
        let mut b = LaneBlock::zero(5);
        let digits = [1u64, 2, 3, 4, 5];
        b.set_lane(3, &digits);
        let mut out = [0u64; 5];
        b.lane(3, &mut out);
        assert_eq!(out, digits);
        let mut other = [0u64; 5];
        b.lane(0, &mut other);
        assert_eq!(other, [0u64; 5]);
        b.copy_lane(3, 0);
        b.lane(0, &mut other);
        assert_eq!(other, digits);
        // A short write zero-pads the high digits.
        b.set_lane(3, &[9]);
        b.lane(3, &mut out);
        assert_eq!(out, [9, 0, 0, 0, 0]);
    }

    #[test]
    fn digit_rule_leaves_two_bits_of_headroom() {
        // The four well-known groups and the 512-bit demo width.
        for (bits, k) in [(512, 10), (768, 15), (1024, 20), (1536, 30), (2048, 40)] {
            assert_eq!(digits_for_bits(bits), Some(k), "{bits} bits");
        }
        // A full 13-limb modulus fills ceil(832/52) = 16 digits exactly:
        // the rule must take the 17th.
        assert_eq!(digits_for_bits(832), Some(17));
        assert_eq!(digits_for_bits(830), Some(16));
        assert_eq!(digits_for_bits(0), None);
        assert_eq!(digits_for_bits(2079), None);
        assert_eq!(digits_for_bits(u64::MAX), None);
        for bits in 1..=2078u64 {
            let k = digits_for_bits(bits).expect("within the cap") as u64;
            assert!(bits + 2 <= 52 * k && 52 * (k - 1) < bits + 2, "{bits} bits");
        }
    }

    #[test]
    fn ctx_rejects_bad_inputs() {
        // Whatever the host supports, these must all be rejected.
        let n = [3u64, 1];
        assert!(IfmaCtx::new(&[], 0, &[]).is_none());
        assert!(IfmaCtx::new(&n, 1 << 52, &n).is_none()); // n0_inv too wide
        assert!(IfmaCtx::new(&[4, 1], 1, &n).is_none()); // even modulus
        assert!(IfmaCtx::new(&n, 1, &n[..1]).is_none()); // length mismatch
        assert!(IfmaCtx::new(&n, 1, &[1 << 52, 0]).is_none()); // non-canonical
        let wide = [1u64; MAX_DIGITS + 1];
        assert!(IfmaCtx::new(&wide, 1, &wide).is_none()); // past the digit cap
                                                          // No headroom: top digit uses bit 50 (4n > 2^(52k)). Declined on
                                                          // every host, so the kernel never runs outside its output bound.
        let tight = [3u64, 1 << 50];
        assert!(IfmaCtx::new(&tight, 1, &n).is_none());
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(available(), available());
    }

    /// `(x + y) mod n` for `x, y < n` on little-endian radix-2^52 digits.
    fn add_mod(x: &[u64], y: &[u64], n: &[u64]) -> Vec<u64> {
        let k = n.len();
        let mut sum = vec![0u64; k + 1];
        let mut carry = 0u64;
        for i in 0..k {
            let s = x[i] + y[i] + carry;
            sum[i] = s & DIGIT_MASK;
            carry = s >> 52;
        }
        sum[k] = carry;
        let geq = (0..k)
            .rev()
            .find(|&i| sum[i] != n[i])
            .is_none_or(|i| sum[i] > n[i]);
        if sum[k] != 0 || geq {
            let mut borrow = 0u64;
            for i in 0..k {
                let s = sum[i].wrapping_sub(n[i]).wrapping_sub(borrow);
                borrow = s >> 63;
                sum[i] = s & DIGIT_MASK;
            }
        }
        sum.truncate(k);
        sum
    }

    /// Schoolbook `a*b mod n` (shift-and-add over the bits of `b`): a
    /// digit-level oracle for the kernel alone; the full differentials
    /// against `modpow_binary` live in the crate's proptest suite.
    fn mulmod_ref(a: &[u64], b: &[u64], n: &[u64]) -> Vec<u64> {
        let mut acc = vec![0u64; n.len()];
        let mut addend = a.to_vec();
        for bit in 0..52 * n.len() {
            if (b[bit / 52] >> (bit % 52)) & 1 == 1 {
                acc = add_mod(&acc, &addend, n);
            }
            addend = add_mod(&addend, &addend, n);
        }
        acc
    }

    /// Deterministic pseudo-random canonical digits.
    fn digits(seed: u64, k: usize) -> Vec<u64> {
        let mut s = seed;
        (0..k)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 11) & DIGIT_MASK
            })
            .collect()
    }

    /// Full-headroom-boundary modulus of `k` digits: odd, top digit just
    /// below 2^50, so `4n` is as close to `R'` as the contract allows.
    fn tight_modulus(seed: u64, k: usize) -> Vec<u64> {
        let mut n = digits(seed, k);
        n[k - 1] = (1 << 50) - 1 - (seed & 0xff);
        n[0] |= 1;
        n
    }

    #[test]
    fn mont_mul_and_sqr_match_reference_at_every_width_class() {
        if !available() {
            eprintln!("skipping: AVX-512 IFMA not available on this host");
            return;
        }
        // k = 1 and 2 (degenerate loops), the old cap, and the four
        // well-known group widths up to the new cap.
        for &k in &[1usize, 2, 3, 10, 15, 17, 20, 30, 40] {
            let n = tight_modulus(k as u64, k);
            // R' mod n = 2^(52k) mod n by doubling 1, then R'^2 mod n.
            let mut r_mod = vec![0u64; k];
            r_mod[0] = 1;
            for _ in 0..52 * k {
                r_mod = add_mod(&r_mod, &r_mod, &n);
            }
            let rr = mulmod_ref(&r_mod, &r_mod, &n);
            let mut inv: u64 = 1;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
            }
            let n0_inv = inv.wrapping_neg() & DIGIT_MASK;
            let ctx = IfmaCtx::new(&n, n0_inv, &rr).expect("host supports IFMA");
            assert_eq!(ctx.k(), k);

            let mut a = ctx.zero_block();
            let mut b = ctx.zero_block();
            let mut want_mul = Vec::new();
            let mut want_sqr = Vec::new();
            for lane in 0..LANES {
                // Reduce the random digits below n by clearing the top bits.
                let mut av = digits(100 + lane as u64 + k as u64, k);
                let mut bv = digits(200 + lane as u64 + k as u64, k);
                av[k - 1] &= (1 << 49) - 1;
                bv[k - 1] &= (1 << 49) - 1;
                if lane == 0 {
                    // n - 1 in lane 0: the largest canonical residue.
                    av = n.clone();
                    av[0] -= 1;
                }
                a.set_lane(lane, &av);
                b.set_lane(lane, &bv);
                want_mul.push(mulmod_ref(&av, &bv, &n));
                want_sqr.push(mulmod_ref(&av, &av, &n));
            }
            let (mut am, mut bm) = (ctx.zero_block(), ctx.zero_block());
            ctx.to_mont(&a, &mut am);
            ctx.to_mont(&b, &mut bm);
            let (mut prod, mut sq, mut norm) =
                (ctx.zero_block(), ctx.zero_block(), ctx.zero_block());
            ctx.mont_mul(&am, &bm, &mut prod);
            ctx.mont_sqr(&am, &mut sq);
            let check = |got: &LaneBlock, want: &[Vec<u64>], what: &str| {
                for (lane, want) in want.iter().enumerate() {
                    let mut out = vec![0u64; k];
                    got.lane(lane, &mut out);
                    if out == n {
                        out = vec![0u64; k]; // from_mont may return exactly n
                    }
                    assert_eq!(&out, want, "{what} k={k} lane {lane}");
                }
            };
            ctx.from_mont(&prod, &mut norm);
            check(&norm, &want_mul, "mul");
            ctx.from_mont(&sq, &mut norm);
            check(&norm, &want_sqr, "sqr");
            // Squaring chains stay inside the almost-Montgomery bound:
            // 12 squarings of a value that starts at n - 1 in lane 0.
            let mut x = am.clone();
            let mut y = ctx.zero_block();
            let mut want: Vec<Vec<u64>> = (0..LANES)
                .map(|lane| {
                    let mut v = vec![0u64; k];
                    a.lane(lane, &mut v);
                    v
                })
                .collect();
            for _ in 0..12 {
                ctx.mont_sqr(&x, &mut y);
                std::mem::swap(&mut x, &mut y);
                for w in want.iter_mut() {
                    *w = mulmod_ref(w, w, &n);
                }
            }
            ctx.from_mont(&x, &mut norm);
            check(&norm, &want, "sqr chain");
        }
    }

    #[test]
    fn mismatched_block_width_panics() {
        // A block of another context's width is a caller bug: the kernel
        // refuses it instead of computing on a prefix.
        let n = [3u64, 1];
        let Some(ctx) = IfmaCtx::new(&n, 1, &n) else {
            eprintln!("skipping: AVX-512 IFMA not available on this host");
            return;
        };
        let wrong = LaneBlock::zero(3);
        let mut out = ctx.zero_block();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.mont_mul(&wrong, &wrong, &mut out)
        }));
        assert!(result.is_err());
    }
}
