//! The Paillier cryptosystem (additively homomorphic public-key
//! encryption), implemented from scratch on `minshare-bignum`.
//!
//! Standard simplified instantiation with `g = n + 1`:
//!
//! * keygen: `n = p·q` for equal-size primes, `λ = lcm(p−1, q−1)`,
//!   `μ = λ⁻¹ mod n`;
//! * `Enc(m; r) = (1 + m·n) · rⁿ mod n²` for `r ∈r Z_n^*`
//!   (using `(1+n)^m ≡ 1 + m·n (mod n²)`);
//! * `Dec(c) = L(c^λ mod n²) · μ mod n` with `L(x) = (x − 1)/n`;
//! * homomorphism: `Enc(a)·Enc(b) = Enc(a+b)`, `Enc(a)^k = Enc(a·k)`.

use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::prime::generate_prime;
use minshare_bignum::random::random_range;
use minshare_bignum::UBig;
use rand::Rng;

use crate::error::AggregateError;

/// Minimum supported modulus width. Far below cryptographic strength —
/// the floor only guards against degenerate arithmetic in tests.
const MIN_MODULUS_BITS: u64 = 16;

/// The public (encryption) key: the modulus `n` plus cached contexts.
#[derive(Clone, Debug)]
pub struct PublicKey {
    n: UBig,
    n_squared: UBig,
    /// Montgomery context modulo n² for fast `rⁿ` and ciphertext ops;
    /// `Arc`-shared so cloning a key (every homomorphic op holds one)
    /// never recomputes or copies the precomputed `R mod n²` state.
    ctx: std::sync::Arc<MontgomeryCtx>,
}

/// The private (decryption) key.
#[derive(Clone, Debug)]
pub struct PrivateKey {
    /// The public half.
    pub public: PublicKey,
    lambda: UBig,
    mu: UBig,
}

/// A Paillier ciphertext (an element of `Z_{n²}^*`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ciphertext(UBig);

impl PublicKey {
    /// Reconstructs a public key from a received modulus. The modulus is
    /// taken on faith structurally (odd, > 1) — appropriate in the
    /// semi-honest model where the peer generated it correctly; a
    /// malformed modulus only breaks correctness, not the receiver's
    /// privacy (the receiver sends nothing secret under this key).
    pub fn from_modulus_unchecked(n: UBig) -> Result<Self, AggregateError> {
        Self::from_modulus(n)
    }

    fn from_modulus(n: UBig) -> Result<Self, AggregateError> {
        let n_squared = n.square();
        let ctx = std::sync::Arc::new(
            MontgomeryCtx::new(&n_squared).map_err(AggregateError::Arithmetic)?,
        );
        Ok(PublicKey { n, n_squared, ctx })
    }

    /// The modulus `n` (the plaintext space is `[0, n)`).
    pub fn modulus(&self) -> &UBig {
        &self.n
    }

    /// Bit width of the modulus.
    pub fn modulus_bits(&self) -> u64 {
        self.n.bit_len()
    }

    /// Bytes needed to serialize one ciphertext (fixed width `⌈2k/8⌉`).
    pub fn ciphertext_bytes(&self) -> usize {
        (self.n_squared.bit_len() as usize).div_ceil(8)
    }

    /// Encrypts `m ∈ [0, n)` with fresh randomness.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &UBig,
        rng: &mut R,
    ) -> Result<Ciphertext, AggregateError> {
        if m >= &self.n {
            return Err(AggregateError::PlaintextTooLarge);
        }
        // (1 + m·n) mod n²
        let gm = UBig::one()
            .add_ref(&m.mul_ref(&self.n))
            .rem_ref(&self.n_squared)?;
        let rn = self.random_mask(rng)?;
        Ok(Ciphertext(self.ctx.mul(&gm, &rn)))
    }

    /// Encrypts a `u64` convenience value.
    pub fn encrypt_u64<R: Rng + ?Sized>(
        &self,
        m: u64,
        rng: &mut R,
    ) -> Result<Ciphertext, AggregateError> {
        self.encrypt(&UBig::from(m), rng)
    }

    /// A fresh masking factor `rⁿ mod n²`.
    fn random_mask<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<UBig, AggregateError> {
        // r ∈ [1, n); gcd(r, n) = 1 with overwhelming probability for
        // honest parameters — retry on the pathological case.
        loop {
            let r = random_range(rng, &UBig::one(), &self.n);
            if r.gcd(&self.n).is_one() {
                return Ok(self.ctx.pow(&r, &self.n));
            }
        }
    }

    /// Homomorphic addition: `Enc(a) ⊞ Enc(b) = Enc(a + b mod n)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(self.ctx.mul(&a.0, &b.0))
    }

    /// Homomorphic plaintext addition: `Enc(a) ⊞ m = Enc(a + m mod n)`.
    pub fn add_plain(&self, a: &Ciphertext, m: &UBig) -> Result<Ciphertext, AggregateError> {
        if m >= &self.n {
            return Err(AggregateError::PlaintextTooLarge);
        }
        let gm = UBig::one()
            .add_ref(&m.mul_ref(&self.n))
            .rem_ref(&self.n_squared)?;
        Ok(Ciphertext(self.ctx.mul(&a.0, &gm)))
    }

    /// Homomorphic scalar multiplication: `Enc(a)^k = Enc(a·k mod n)`.
    pub fn mul_plain(&self, a: &Ciphertext, k: &UBig) -> Ciphertext {
        Ciphertext(self.ctx.pow(&a.0, k))
    }

    /// Re-randomizes a ciphertext (multiplies by a fresh `Enc(0)`), so
    /// the result is unlinkable to its inputs — required before handing
    /// an aggregate back to the key holder.
    pub fn rerandomize<R: Rng + ?Sized>(
        &self,
        a: &Ciphertext,
        rng: &mut R,
    ) -> Result<Ciphertext, AggregateError> {
        let mask = self.random_mask(rng)?;
        Ok(Ciphertext(self.ctx.mul(&a.0, &mask)))
    }

    /// The additive identity `Enc(0)` with fresh randomness.
    pub fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Ciphertext, AggregateError> {
        self.encrypt(&UBig::zero(), rng)
    }

    /// Serializes a ciphertext at fixed width.
    pub fn encode_ciphertext(&self, c: &Ciphertext) -> Result<Vec<u8>, AggregateError> {
        Ok(c.0.to_be_bytes_padded(self.ciphertext_bytes())?)
    }

    /// Parses and structurally validates a ciphertext.
    pub fn decode_ciphertext(&self, bytes: &[u8]) -> Result<Ciphertext, AggregateError> {
        if bytes.len() != self.ciphertext_bytes() {
            return Err(AggregateError::InvalidCiphertext);
        }
        let x = UBig::from_be_bytes(bytes);
        if x.is_zero() || x >= self.n_squared {
            return Err(AggregateError::InvalidCiphertext);
        }
        Ok(Ciphertext(x))
    }
}

impl PrivateKey {
    /// Generates a keypair with an (approximately) `bits`-bit modulus.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> Result<Self, AggregateError> {
        if bits < MIN_MODULUS_BITS {
            return Err(AggregateError::KeyTooSmall {
                bits,
                minimum: MIN_MODULUS_BITS,
            });
        }
        let half = bits / 2;
        let attempts = 1_000_000;
        loop {
            let p =
                generate_prime(rng, half, attempts).map_err(|e| AggregateError::KeyGeneration {
                    detail: e.to_string(),
                })?;
            let q = generate_prime(rng, bits - half, attempts).map_err(|e| {
                AggregateError::KeyGeneration {
                    detail: e.to_string(),
                }
            })?;
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            let p1 = p.sub_small(1).map_err(AggregateError::Arithmetic)?;
            let q1 = q.sub_small(1).map_err(AggregateError::Arithmetic)?;
            let gcd = p1.gcd(&q1);
            let lambda = p1
                .mul_ref(&q1)
                .div_rem(&gcd)
                .map_err(AggregateError::Arithmetic)?
                .0;
            // μ = λ⁻¹ mod n; exists iff gcd(λ, n) = 1, guaranteed for
            // distinct primes (λ divides (p-1)(q-1), coprime to pq).
            let mu = match lambda.mod_inv(&n) {
                Ok(mu) => mu,
                Err(_) => continue,
            };
            let public = PublicKey::from_modulus(n)?;
            return Ok(PrivateKey { public, lambda, mu });
        }
    }

    /// Decrypts a ciphertext: `L(c^λ mod n²) · μ mod n`.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<UBig, AggregateError> {
        let pk = &self.public;
        if c.0.is_zero() || c.0 >= pk.n_squared {
            return Err(AggregateError::InvalidCiphertext);
        }
        let x = pk.ctx.pow(&c.0, &self.lambda);
        // L(x) = (x - 1) / n — exact by construction.
        let l = x
            .sub_small(1)
            .map_err(AggregateError::Arithmetic)?
            .div_rem(&pk.n)
            .map_err(AggregateError::Arithmetic)?
            .0;
        l.mod_mul(&self.mu, &pk.n)
            .map_err(AggregateError::Arithmetic)
    }

    /// Decrypts to `u64` if the plaintext fits.
    pub fn decrypt_u64(&self, c: &Ciphertext) -> Result<Option<u64>, AggregateError> {
        Ok(self.decrypt(c)?.to_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: u64) -> PrivateKey {
        let mut rng = StdRng::seed_from_u64(0x9a111e4);
        PrivateKey::generate(&mut rng, bits).unwrap()
    }

    #[test]
    fn round_trip_small_values() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(1);
        for m in [0u64, 1, 2, 42, 1_000_000] {
            let c = sk.public.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(sk.decrypt_u64(&c).unwrap(), Some(m), "m={m}");
        }
    }

    #[test]
    fn round_trip_near_modulus() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(2);
        let m = sk.public.modulus().sub_small(1).unwrap();
        let c = sk.public.encrypt(&m, &mut rng).unwrap();
        assert_eq!(sk.decrypt(&c).unwrap(), m);
    }

    #[test]
    fn rejects_oversized_plaintext() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(3);
        let m = sk.public.modulus().clone();
        assert_eq!(
            sk.public.encrypt(&m, &mut rng).unwrap_err(),
            AggregateError::PlaintextTooLarge
        );
    }

    #[test]
    fn encryption_is_randomized() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(4);
        let a = sk.public.encrypt_u64(7, &mut rng).unwrap();
        let b = sk.public.encrypt_u64(7, &mut rng).unwrap();
        assert_ne!(a, b, "same plaintext must encrypt differently");
        assert_eq!(sk.decrypt_u64(&a).unwrap(), sk.decrypt_u64(&b).unwrap());
    }

    #[test]
    fn additive_homomorphism() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(5);
        let a = sk.public.encrypt_u64(1234, &mut rng).unwrap();
        let b = sk.public.encrypt_u64(8766, &mut rng).unwrap();
        let sum = sk.public.add(&a, &b);
        assert_eq!(sk.decrypt_u64(&sum).unwrap(), Some(10_000));
    }

    #[test]
    fn plaintext_addition_and_scalar_multiplication() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(6);
        let a = sk.public.encrypt_u64(100, &mut rng).unwrap();
        let plus = sk.public.add_plain(&a, &UBig::from(23u64)).unwrap();
        assert_eq!(sk.decrypt_u64(&plus).unwrap(), Some(123));
        let times = sk.public.mul_plain(&a, &UBig::from(7u64));
        assert_eq!(sk.decrypt_u64(&times).unwrap(), Some(700));
    }

    #[test]
    fn sums_wrap_modulo_n() {
        let sk = keypair(32);
        let mut rng = StdRng::seed_from_u64(7);
        let near = sk.public.modulus().sub_small(1).unwrap();
        let a = sk.public.encrypt(&near, &mut rng).unwrap();
        let b = sk.public.encrypt_u64(2, &mut rng).unwrap();
        let sum = sk.public.add(&a, &b);
        // (n-1) + 2 ≡ 1 (mod n)
        assert_eq!(sk.decrypt(&sum).unwrap(), UBig::one());
    }

    #[test]
    fn rerandomization_preserves_plaintext_changes_ciphertext() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(8);
        let a = sk.public.encrypt_u64(55, &mut rng).unwrap();
        let b = sk.public.rerandomize(&a, &mut rng).unwrap();
        assert_ne!(a, b);
        assert_eq!(sk.decrypt_u64(&b).unwrap(), Some(55));
    }

    #[test]
    fn ciphertext_codec() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(9);
        let c = sk.public.encrypt_u64(9001, &mut rng).unwrap();
        let bytes = sk.public.encode_ciphertext(&c).unwrap();
        assert_eq!(bytes.len(), sk.public.ciphertext_bytes());
        let back = sk.public.decode_ciphertext(&bytes).unwrap();
        assert_eq!(back, c);
        assert!(sk.public.decode_ciphertext(&bytes[1..]).is_err());
        let zeros = vec![0u8; sk.public.ciphertext_bytes()];
        assert!(sk.public.decode_ciphertext(&zeros).is_err());
    }

    #[test]
    fn key_floor_enforced() {
        let mut rng = StdRng::seed_from_u64(10);
        assert!(matches!(
            PrivateKey::generate(&mut rng, 8),
            Err(AggregateError::KeyTooSmall { .. })
        ));
    }

    #[test]
    fn many_term_summation() {
        let sk = keypair(64);
        let mut rng = StdRng::seed_from_u64(11);
        let mut acc = sk.public.encrypt_zero(&mut rng).unwrap();
        let mut expect = 0u64;
        for i in 1..=50u64 {
            let c = sk.public.encrypt_u64(i, &mut rng).unwrap();
            acc = sk.public.add(&acc, &c);
            expect += i;
        }
        assert_eq!(sk.decrypt_u64(&acc).unwrap(), Some(expect));
    }
}
