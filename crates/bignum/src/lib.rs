//! # minshare-bignum
//!
//! Arbitrary-precision unsigned integer and modular arithmetic, built from
//! scratch for the `minshare` reproduction of *"Information Sharing Across
//! Private Databases"* (Agrawal, Evfimievski, Srikant — SIGMOD 2003).
//!
//! The paper's commutative encryption is the power function
//! `f_e(x) = x^e mod p` over the quadratic residues modulo a *safe prime*
//! `p = 2q + 1`. Everything that construction needs lives here:
//!
//! * [`UBig`] — little-endian limb vector with schoolbook + Karatsuba
//!   multiplication and Knuth Algorithm D division,
//! * modular arithmetic ([`modular`]) — addition, subtraction,
//!   multiplication, extended-Euclid inversion and the Jacobi symbol,
//! * [`montgomery::MontgomeryCtx`] — CIOS Montgomery multiplication and
//!   sliding-window modular exponentiation (the paper's `Ce` cost unit),
//!   with [`FixedExponentPlan`] as the one batch dispatch over two tiers:
//!   the AVX-512 IFMA lanes of [`fixpow`] (picked by runtime CPU
//!   detection; the crate's only `unsafe` module) and the ladder,
//! * [`prime`] — deterministic trial division plus Miller–Rabin,
//! * [`safe_prime`] — safe-prime generation and the standard RFC 2409 /
//!   RFC 3526 safe primes (768–2048 bits) used by the benchmarks,
//! * [`random`] — uniform sampling below a bound from any [`rand`] RNG.
//!
//! The crate deliberately has no arithmetic dependencies: the big-integer
//! layer is one of the substrates the reproduction builds rather than
//! imports.
//!
//! ## Example
//!
//! ```
//! use minshare_bignum::{UBig, montgomery::MontgomeryCtx};
//!
//! let p = UBig::from_decimal_str("1000000007").unwrap();
//! let ctx = MontgomeryCtx::new(&p).unwrap();
//! let x = UBig::from(123_456_789u64);
//! let e = UBig::from(65_537u64);
//! let y = ctx.pow(&x, &e);
//! assert_eq!(y, x.modpow(&e, &p));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod add;
mod bits;
mod div;
mod mul;
mod shift;
mod ubig;

pub mod error;
pub mod fixpow;
#[allow(unsafe_code)]
mod ifma;
pub mod limb;
pub mod modular;
pub mod montgomery;
pub mod pow;
pub mod prime;
pub mod random;
pub mod safe_prime;

pub use error::BigNumError;
pub use fixpow::{FixedExponentPlan, KernelTier};
pub use ubig::UBig;
