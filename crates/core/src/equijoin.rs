//! The equijoin protocol of §4.3.
//!
//! On top of the intersection, the receiver obtains the sender's payload
//! `ext(v)` for every matching value: `S` encrypts `ext(v)` under the key
//! `κ(v) = f_{e'S}(h(v))`, and `R` learns `κ(v)` only for `v ∈ V_R` by
//! the blind-exponentiation exchange (§4.1): `R` sends `f_eR(h(v))`, `S`
//! raises it to `e'_S`, and `R` strips its own layer:
//! `f_eR⁻¹(f_{e'S}(f_eR(h(v)))) = f_{e'S}(h(v))`.
//!
//! Message flow (with the §6.1 wire optimization — `S` answers `Y_R` in
//! order instead of echoing each `y`, so the traffic is
//! `(|V_S| + 3|V_R|)·k + |V_S|·k'` bits):
//!
//! ```text
//!   R                                    S  (keys e_S, e'_S)
//!   Y_R = sort(f_eR(h(V_R)))  ────────▶
//!            ◀──── (f_eS(y), f_e'S(y)) per y ∈ Y_R, in order
//!            ◀──── sort[(f_eS(h(v)), K(f_e'S(h(v)), ext(v))) : v ∈ V_S]
//!   match on f_eS(h(v)), decrypt with κ(v)
//! ```

use std::collections::{BTreeMap, BTreeSet};

use minshare_bignum::UBig;
use minshare_crypto::kcipher::ExtCipher;
use minshare_crypto::QrGroup;
use minshare_net::Transport;
use rand::Rng;

use crate::error::ProtocolError;
use crate::prepare::prepare_set;
use crate::stats::OpCounters;
use crate::wire::{require_strictly_sorted, Message};

/// What the sender learns: `|V_R|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquijoinSenderOutput {
    /// The receiver's set size.
    pub peer_set_size: usize,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// What the receiver learns: the matching values **with** `ext(v)`, plus
/// `|V_S|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquijoinReceiverOutput {
    /// `(v, ext(v))` for every `v ∈ V_S ∩ V_R`, in ascending value order.
    pub matches: Vec<(Vec<u8>, Vec<u8>)>,
    /// `|V_S|`.
    pub peer_set_size: usize,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// Runs the sender (`S`) side. `entries` maps each value of `V_S` to its
/// payload `ext(v)` (already serialized — e.g. by
/// `minshare_privdb::rowcodec::encode_rows`). Duplicate values are
/// rejected implicitly by set preparation keeping the first payload.
pub fn run_sender<T: Transport + ?Sized, C: ExtCipher + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    cipher: &C,
    entries: &[(Vec<u8>, Vec<u8>)],
    rng: &mut R,
) -> Result<EquijoinSenderOutput, ProtocolError> {
    let mut ops = OpCounters::default();

    // Step 1: hash V_S; pick both keys.
    let values: Vec<Vec<u8>> = entries.iter().map(|(v, _)| v.clone()).collect();
    let payloads: BTreeMap<&Vec<u8>, &Vec<u8>> = entries.iter().map(|(v, p)| (v, p)).collect();
    let prepared = prepare_set(group, &values, &mut ops)?;
    let e_s = group.gen_key(rng);
    let e_s_prime = group.gen_key(rng);

    // Step 3: receive Y_R.
    let yr = super::intersection::expect_codewords(transport, group)?;
    require_strictly_sorted(&yr, "Y_R")?;
    let peer_set_size = yr.len();

    // Step 4: answer each y with (f_eS(y), f_e'S(y)), preserving order.
    let pairs: Vec<(UBig, UBig)> = yr
        .iter()
        .map(|y| {
            ops.encryptions += 2;
            (group.encrypt(&e_s, y), group.encrypt(&e_s_prime, y))
        })
        .collect();
    transport.send(&Message::CodewordPairs(pairs).encode(group)?)?;

    // Step 5: for each v ∈ V_S, pair f_eS(h(v)) with K(κ(v), ext(v)).
    let mut payload_pairs: Vec<(UBig, Vec<u8>)> = prepared
        .entries
        .iter()
        .map(|(v, h)| {
            ops.encryptions += 2;
            let tag = group.encrypt(&e_s, h);
            let kappa = group.encrypt(&e_s_prime, h);
            ops.payload_encryptions += 1;
            let ext = payloads.get(v).copied().cloned().unwrap_or_default();
            let ct = cipher.encrypt(&kappa, &ext)?;
            Ok((tag, ct))
        })
        .collect::<Result<_, ProtocolError>>()?;
    payload_pairs.sort_by(|a, b| a.0.cmp(&b.0));
    transport.send(&Message::PayloadPairs(payload_pairs).encode(group)?)?;

    crate::stats::emit_ops(
        "equijoin",
        "sender_done",
        &ops,
        prepared.entries.len(),
        peer_set_size,
    );
    Ok(EquijoinSenderOutput { peer_set_size, ops })
}

/// Runs the receiver (`R`) side.
pub fn run_receiver<T: Transport + ?Sized, C: ExtCipher + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    cipher: &C,
    values: &[Vec<u8>],
    rng: &mut R,
) -> Result<EquijoinReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();

    // Steps 1-3: hash, encrypt, sort, send Y_R.
    let prepared = prepare_set(group, values, &mut ops)?;
    let e_r = group.gen_key(rng);
    let mut encrypted: Vec<(UBig, Vec<u8>)> = prepared
        .entries
        .into_iter()
        .map(|(v, h)| {
            ops.encryptions += 1;
            (group.encrypt(&e_r, &h), v)
        })
        .collect();
    encrypted.sort_by(|a, b| a.0.cmp(&b.0));
    let yr: Vec<UBig> = encrypted.iter().map(|(y, _)| y.clone()).collect();
    transport.send(&Message::Codewords(yr).encode(group)?)?;

    // Step 4 response: (f_eS(y), f_e'S(y)) aligned with Y_R.
    let pairs = match Message::decode(&transport.recv()?, group)? {
        Message::CodewordPairs(p) => p,
        other => {
            return Err(ProtocolError::UnexpectedMessage {
                expected: "codeword-pairs",
                got: other.kind(),
            })
        }
    };
    if pairs.len() != encrypted.len() {
        return Err(ProtocolError::LengthMismatch {
            expected: encrypted.len(),
            got: pairs.len(),
        });
    }

    // Step 5 response: the payload table, sorted by its first component.
    let payload_pairs = match Message::decode(&transport.recv()?, group)? {
        Message::PayloadPairs(p) => p,
        other => {
            return Err(ProtocolError::UnexpectedMessage {
                expected: "payload-pairs",
                got: other.kind(),
            })
        }
    };
    let tags: Vec<UBig> = payload_pairs.iter().map(|(t, _)| t.clone()).collect();
    require_strictly_sorted(&tags, "payload table")?;
    let peer_set_size = payload_pairs.len();
    let table: BTreeMap<UBig, Vec<u8>> = payload_pairs.into_iter().collect();

    // Steps 6-7: strip our layer from both entries; match; decrypt.
    let own_set_size = encrypted.len();
    let mut matches = Vec::new();
    let mut seen_tags = BTreeSet::new();
    for ((_, v), (fes_y, fesp_y)) in encrypted.into_iter().zip(pairs) {
        ops.decryptions += 2;
        let tag = group.decrypt(&e_r, &fes_y); //   f_eS(h(v))
        let kappa = group.decrypt(&e_r, &fesp_y); // f_e'S(h(v)) = κ(v)
        if !seen_tags.insert(tag.clone()) {
            // Two of our values mapping to one sender tag would mean a
            // hash collision across the sets.
            return Err(ProtocolError::HashCollision);
        }
        if let Some(ct) = table.get(&tag) {
            ops.payload_decryptions += 1;
            let ext = cipher.decrypt(&kappa, ct)?;
            matches.push((v, ext));
        }
    }
    matches.sort();

    crate::stats::emit_ops(
        "equijoin",
        "receiver_done",
        &ops,
        own_set_size,
        peer_set_size,
    );
    Ok(EquijoinReceiverOutput {
        matches,
        peer_set_size,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_two_party;
    use minshare_crypto::kcipher::{HybridCipher, MulBlockCipher};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(21);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    fn entries(pairs: &[(&str, &str)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        pairs
            .iter()
            .map(|(v, p)| (v.as_bytes().to_vec(), p.as_bytes().to_vec()))
            .collect()
    }

    fn to_values(strs: &[&str]) -> Vec<Vec<u8>> {
        strs.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn run_hybrid(
        vs: &[(&str, &str)],
        vr: &[&str],
    ) -> (EquijoinSenderOutput, EquijoinReceiverOutput) {
        let g = group();
        let cipher = HybridCipher::new(g.clone(), 64);
        let vs = entries(vs);
        let vr = to_values(vr);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                run_sender(t, &g, &cipher, &vs, &mut rng)
            },
            |t| {
                let g = group();
                let cipher = HybridCipher::new(g.clone(), 64);
                let mut rng = StdRng::seed_from_u64(600);
                run_receiver(t, &g, &cipher, &vr, &mut rng)
            },
        )
        .unwrap();
        (run.sender, run.receiver)
    }

    #[test]
    fn join_returns_matching_payloads() {
        let (s, r) = run_hybrid(
            &[("a", "ext-a"), ("b", "ext-b"), ("c", "ext-c")],
            &["b", "c", "d"],
        );
        assert_eq!(
            r.matches,
            vec![
                (b"b".to_vec(), b"ext-b".to_vec()),
                (b"c".to_vec(), b"ext-c".to_vec())
            ]
        );
        assert_eq!(r.peer_set_size, 3);
        assert_eq!(s.peer_set_size, 3);
    }

    #[test]
    fn disjoint_join_is_empty() {
        let (_, r) = run_hybrid(&[("a", "x")], &["b"]);
        assert!(r.matches.is_empty());
        assert_eq!(r.peer_set_size, 1);
    }

    #[test]
    fn empty_payloads_survive() {
        let (_, r) = run_hybrid(&[("a", "")], &["a"]);
        assert_eq!(r.matches, vec![(b"a".to_vec(), vec![])]);
    }

    #[test]
    fn mulblock_cipher_works_too() {
        let g = group();
        let cipher = MulBlockCipher::new(g.clone());
        let vs = entries(&[("k1", "pay"), ("k2", "off")]);
        let vr = to_values(&["k2"]);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(1);
                run_sender(t, &g, &cipher, &vs, &mut rng)
            },
            |t| {
                let g = group();
                let cipher = MulBlockCipher::new(g.clone());
                let mut rng = StdRng::seed_from_u64(2);
                run_receiver(t, &g, &cipher, &vr, &mut rng)
            },
        )
        .unwrap();
        assert_eq!(
            run.receiver.matches,
            vec![(b"k2".to_vec(), b"off".to_vec())]
        );
    }

    #[test]
    fn op_counts_match_section_6_1() {
        // Join: Ch(|VS|+|VR|) + 2Ce|VS| + 5Ce|VR| + CK(|VS|+|VS∩VR|).
        let (s, r) = run_hybrid(
            &[("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")],
            &["b", "d", "e"],
        );
        let (vs, vr, both) = (4u64, 3u64, 2u64);
        assert_eq!(s.ops.hashes + r.ops.hashes, vs + vr);
        assert_eq!(
            s.ops.total_ce() + r.ops.total_ce(),
            2 * vs + 5 * vr,
            "2Ce|VS| + 5Ce|VR|"
        );
        assert_eq!(s.ops.payload_encryptions, vs);
        assert_eq!(r.ops.payload_decryptions, both);
        assert_eq!(s.ops.total_ck() + r.ops.total_ck(), vs + both);
    }
}
