//! # minshare-crypto
//!
//! The cryptographic layer of the `minshare` reproduction of *"Information
//! Sharing Across Private Databases"* (Agrawal, Evfimievski, Srikant —
//! SIGMOD 2003):
//!
//! * [`group::QrGroup`] — the group of quadratic residues modulo a safe
//!   prime, the paper's `DomF` (Example 1), with hash-into-group
//!   implementing the ideal hash `h : V → DomF` of §3.2.2;
//! * [`commutative`] — the commutative encryption `f_e(x) = x^e mod p`
//!   satisfying Definition 2 (commutativity, bijectivity, efficient
//!   inversion, DDH-based indistinguishability);
//! * [`kcipher`] — the payload cipher `K(κ, ext(v))` of §4.2, in both the
//!   paper-exact multiplicative form (Example 2) and a hybrid
//!   length-extension form for realistic records;
//! * [`ot`] — 1-out-of-2 oblivious transfer over the same group, required
//!   by the Appendix-A garbled-circuit baseline;
//! * [`drbg`] — the ChaCha20 generator every secret key is drawn from.
//!
//! ## Quick example
//!
//! ```
//! use minshare_crypto::group::QrGroup;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let group = QrGroup::generate(&mut rng, 64).unwrap();
//! let (e1, e2) = (group.gen_key(&mut rng), group.gen_key(&mut rng));
//! let x = group.hash_to_group(b"some join value");
//! // Commutativity: f_e1(f_e2(x)) == f_e2(f_e1(x)).
//! assert_eq!(
//!     group.encrypt(&e1, &group.encrypt(&e2, &x)),
//!     group.encrypt(&e2, &group.encrypt(&e1, &x)),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commutative;
pub mod drbg;
pub mod error;
pub mod group;
pub mod kcipher;
pub mod ot;
mod plan;
pub mod pool;

pub use commutative::CommutativeKey;
pub use drbg::ChaChaRng;
pub use error::CryptoError;
pub use group::QrGroup;
pub use pool::{EncryptPool, PendingBatch};
