//! Random-oracle expansion: SHA-256 in counter mode, producing
//! arbitrary-length pseudorandom output bound to a domain-separation tag.
//!
//! The paper (§3.2.2) analyzes its protocols in the random oracle model,
//! assuming an ideal hash `h : V → DomF` whose outputs are independent and
//! uniform. [`RandomOracle`] is the standard concrete instantiation:
//! `H(sep ‖ len ‖ ctr ‖ input)` blocks concatenated and truncated. The
//! group-specific mapping *into* `DomF` (reduced mod `q` onto the signed
//! quadratic residues `[1, q]`) lives in `minshare-crypto`, built on
//! [`RandomOracle::expand`].

use crate::sha256::{Sha256, DIGEST_LEN};

/// A domain-separated random oracle `{0,1}* → {0,1}^(8·len)`.
///
/// Two oracles with different tags are independent functions; this is how
/// the protocol layer keeps `h(v)`, payload-key derivation and transcript
/// hashing from interfering.
#[derive(Clone, Debug)]
pub struct RandomOracle {
    tag: Vec<u8>,
}

impl RandomOracle {
    /// Creates an oracle under the given domain-separation tag.
    pub fn new(tag: &[u8]) -> Self {
        RandomOracle { tag: tag.to_vec() }
    }

    /// Expands `input` to `len` pseudorandom bytes.
    pub fn expand(&self, input: &[u8], len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut counter: u64 = 0;
        while out.len() < len {
            let mut h = Sha256::new();
            // Unambiguous framing: tag length, tag, output length, counter,
            // then the input.
            h.update(&(self.tag.len() as u64).to_be_bytes());
            h.update(&self.tag);
            h.update(&(len as u64).to_be_bytes());
            h.update(&counter.to_be_bytes());
            h.update(input);
            let block = h.finalize();
            let take = (len - out.len()).min(DIGEST_LEN);
            out.extend_from_slice(&block[..take]);
            counter += 1;
        }
        out
    }

    /// Convenience: a single 32-byte digest of `input` under this tag.
    pub fn digest(&self, input: &[u8]) -> [u8; DIGEST_LEN] {
        let v = self.expand(input, DIGEST_LEN);
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&v);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let o = RandomOracle::new(b"test");
        assert_eq!(o.expand(b"x", 100), o.expand(b"x", 100));
    }

    #[test]
    fn tags_separate_domains() {
        let a = RandomOracle::new(b"a");
        let b = RandomOracle::new(b"b");
        assert_ne!(a.expand(b"x", 32), b.expand(b"x", 32));
    }

    #[test]
    fn inputs_separate() {
        let o = RandomOracle::new(b"t");
        assert_ne!(o.expand(b"x", 32), o.expand(b"y", 32));
    }

    #[test]
    fn output_length_exact() {
        let o = RandomOracle::new(b"t");
        for len in [0usize, 1, 31, 32, 33, 64, 65, 1000] {
            assert_eq!(o.expand(b"x", len).len(), len, "len={len}");
        }
    }

    #[test]
    fn not_prefix_consistent_across_lengths() {
        // The requested length is part of the framing, so asking for
        // different lengths yields unrelated streams — this prevents
        // cross-protocol truncation games.
        let o = RandomOracle::new(b"t");
        let long = o.expand(b"x", 64);
        let short = o.expand(b"x", 32);
        assert_ne!(&long[..32], &short[..]);
    }

    #[test]
    fn tag_length_framing_unambiguous() {
        // ("ab", "c") and ("a", "bc") as (tag, input) must differ.
        let o1 = RandomOracle::new(b"ab");
        let o2 = RandomOracle::new(b"a");
        assert_ne!(o1.expand(b"c", 32), o2.expand(b"bc", 32));
    }

    #[test]
    fn digest_matches_expand() {
        let o = RandomOracle::new(b"t");
        assert_eq!(o.digest(b"x").to_vec(), o.expand(b"x", 32));
    }

    #[test]
    fn rough_uniformity() {
        // Bit-balance sanity check over 8 KiB of expansion.
        let o = RandomOracle::new(b"balance");
        let bytes = o.expand(b"seed", 8192);
        let ones: u64 = bytes.iter().map(|b| b.count_ones() as u64).sum();
        let total = 8192 * 8;
        // Expect ~50% ± 2%.
        assert!(
            (ones as f64 / total as f64 - 0.5).abs() < 0.02,
            "ones={ones}"
        );
    }
}
