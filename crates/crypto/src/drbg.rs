//! The key generator: ChaCha20 run as a deterministic random bit
//! generator.
//!
//! In the paper, each party picks a fresh random secret key for every
//! protocol run (§3.2, §4.2, §5). Every secret exponent a daemon session
//! or a CLI run uses is drawn from a [`ChaChaRng`]: the ChaCha20 block
//! function (RFC 8439) keyed by 32 bytes, with *fast key erasure*: each
//! block's first half becomes the next key and only its second half is
//! output, so the generator's state never reveals what it already
//! produced. `rand::rngs::StdRng` (xoshiro) is not cryptographically
//! secure and stays in tests and benches.

use std::io::Read;

use minshare_hash::chacha20::{self, KEY_LEN, NONCE_LEN};
use rand::Rng;

/// A ChaCha20 DRBG with fast key erasure. Generators under one key with
/// distinct nonces are independent streams.
pub struct ChaChaRng {
    key: [u8; KEY_LEN],
    nonce: [u8; NONCE_LEN],
    /// The output half of the last block, as little-endian words.
    out: [u64; 4],
    used: usize,
}

impl ChaChaRng {
    /// The stream `nonce` under `key`.
    pub fn new(key: [u8; KEY_LEN], nonce: [u8; NONCE_LEN]) -> Self {
        ChaChaRng {
            key,
            nonce,
            out: [0; 4],
            used: 4,
        }
    }

    fn refill(&mut self) {
        let block = chacha20::block(&self.key, &self.nonce, 0);
        let (next_key, out) = block.split_at(KEY_LEN);
        self.key.copy_from_slice(next_key);
        for (word, bytes) in self.out.iter_mut().zip(out.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().unwrap_or_default());
        }
        self.used = 0;
    }
}

impl Rng for ChaChaRng {
    fn next_u64(&mut self) -> u64 {
        if self.used == self.out.len() {
            self.refill();
        }
        let word = self.out.get(self.used).copied().unwrap_or_default();
        self.used += 1;
        word
    }
}

/// 32 bytes of `/dev/urandom`: a key nobody can replay.
pub fn os_key() -> std::io::Result<[u8; KEY_LEN]> {
    let mut key = [0u8; KEY_LEN];
    std::fs::File::open("/dev/urandom")?.read_exact(&mut key)?;
    Ok(key)
}

/// A key that is a public function of `seed`, for tests and harnesses
/// that must replay a run. Anyone who knows `seed` knows every key drawn
/// under it.
pub fn seed_key(seed: u64) -> [u8; KEY_LEN] {
    let mut key = [0u8; KEY_LEN];
    for (k, s) in key.iter_mut().zip(seed.to_le_bytes()) {
        *k = s;
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(rng: &mut ChaChaRng, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        rng.fill_bytes(&mut out);
        out
    }

    #[test]
    fn output_is_the_second_half_of_each_rekeyed_block() {
        let key = seed_key(7);
        let nonce = [3u8; NONCE_LEN];
        let first = chacha20::block(&key, &nonce, 0);
        let mut next_key = [0u8; KEY_LEN];
        next_key.copy_from_slice(&first[..KEY_LEN]);
        let second = chacha20::block(&next_key, &nonce, 0);
        let expected = [&first[KEY_LEN..], &second[KEY_LEN..]].concat();
        assert_eq!(draw(&mut ChaChaRng::new(key, nonce), 64), expected);
    }

    #[test]
    fn keys_and_nonces_select_distinct_streams() {
        let a = draw(&mut ChaChaRng::new(seed_key(1), [0; NONCE_LEN]), 32);
        let b = draw(&mut ChaChaRng::new(seed_key(2), [0; NONCE_LEN]), 32);
        let c = draw(&mut ChaChaRng::new(seed_key(1), [1; NONCE_LEN]), 32);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_ne!(os_key().unwrap(), os_key().unwrap());
    }
}
