//! Selective document sharing (§1.1 Application 1, costed in §6.2.1).
//!
//! Two enterprises hold document sets `D_R`, `D_S`. Documents are
//! preprocessed to their most significant words by TF-IDF (the paper cites
//! Salton & McGill \[41\]); the parties then find all pairs with
//! `f(|d_R ∩ d_S|, |d_R|, |d_S|) > τ` — here the paper's example
//! similarity `f = |d_R ∩ d_S| / (|d_R| + |d_S|)` — by running one
//! **intersection-size** protocol per document pair. Per §6.2.1, beyond
//! the sizes this reveals to `R` which documents matched and each
//! pairwise overlap; nothing about non-matching words crosses the wire.

use std::collections::{BTreeMap, BTreeSet};

use minshare_crypto::QrGroup;
use rand::Rng;

use crate::error::ProtocolError;
use crate::intersection_size;
use crate::runner::run_two_party;
use crate::stats::OpCounters;

/// A raw document: an id and its word sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Stable identifier.
    pub id: String,
    /// Words in document order (repetitions allowed).
    pub words: Vec<String>,
}

/// A preprocessed document: the significant-word *set* the protocol runs
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignificantDoc {
    /// Stable identifier.
    pub id: String,
    /// The selected significant words.
    pub words: BTreeSet<String>,
}

impl SignificantDoc {
    /// The word set as protocol input values.
    pub fn values(&self) -> Vec<Vec<u8>> {
        self.words.iter().map(|w| w.as_bytes().to_vec()).collect()
    }
}

/// TF-IDF preprocessing: keeps each document's `top_n` highest-scoring
/// words, `score(w, d) = tf(w, d) · ln(N / df(w))`.
pub fn significant_words(corpus: &[Document], top_n: usize) -> Vec<SignificantDoc> {
    let n_docs = corpus.len() as f64;
    // Document frequency per word.
    let mut df: BTreeMap<&String, f64> = BTreeMap::new();
    for doc in corpus {
        let distinct: BTreeSet<&String> = doc.words.iter().collect();
        for w in distinct {
            *df.entry(w).or_insert(0.0) += 1.0;
        }
    }
    corpus
        .iter()
        .map(|doc| {
            let mut tf: BTreeMap<&String, f64> = BTreeMap::new();
            for w in &doc.words {
                *tf.entry(w).or_insert(0.0) += 1.0;
            }
            let len = doc.words.len().max(1) as f64;
            let mut scored: Vec<(&String, f64)> = tf
                .into_iter()
                .map(|(w, count)| {
                    let idf = (n_docs / df[w]).ln().max(0.0);
                    (w, (count / len) * idf)
                })
                .collect();
            // Highest score first; ties broken lexicographically for
            // determinism.
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(b.0))
            });
            SignificantDoc {
                id: doc.id.clone(),
                words: scored
                    .into_iter()
                    .take(top_n)
                    .map(|(w, _)| w.clone())
                    .collect(),
            }
        })
        .collect()
}

/// One matched document pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedPair {
    /// Receiver-side document id.
    pub r_id: String,
    /// Sender-side document id.
    pub s_id: String,
    /// `|d_R ∩ d_S|` as learned by the protocol.
    pub overlap: usize,
    /// `f = overlap / (|d_R| + |d_S|)`.
    pub score: f64,
}

/// Result of a full similarity join, with aggregate cost accounting.
#[derive(Debug, Clone)]
pub struct SimilarityJoinReport {
    /// Pairs whose similarity exceeded the threshold.
    pub matches: Vec<MatchedPair>,
    /// Number of protocol instances executed (`|D_R| · |D_S|`).
    pub protocol_runs: usize,
    /// Combined operation counts across all runs and both parties.
    pub total_ops: OpCounters,
    /// Total wire traffic across all runs, in bits.
    pub total_bits: u64,
}

/// Runs the §6.2.1 similarity join: one intersection-size protocol per
/// document pair, then the similarity filter.
pub fn similarity_join<R: Rng>(
    group: &QrGroup,
    receiver_docs: &[SignificantDoc],
    sender_docs: &[SignificantDoc],
    threshold: f64,
    rng: &mut R,
) -> Result<SimilarityJoinReport, ProtocolError> {
    let mut matches = Vec::new();
    let mut total_ops = OpCounters::default();
    let mut total_bits = 0u64;
    let mut protocol_runs = 0usize;

    for d_r in receiver_docs {
        for d_s in sender_docs {
            let s_seed: u64 = rng.random();
            let r_seed: u64 = rng.random();
            let s_values = d_s.values();
            let r_values = d_r.values();
            let run = run_two_party(
                |t| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(s_seed);
                    intersection_size::run_sender(t, group, &s_values, &mut rng)
                },
                |t| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(r_seed);
                    intersection_size::run_receiver(t, group, &r_values, &mut rng)
                },
            )?;
            protocol_runs += 1;
            total_ops += run.sender.ops + run.receiver.ops;
            total_bits += run.total_bits();

            let overlap = run.receiver.intersection_size;
            let denom = (d_r.words.len() + d_s.words.len()) as f64;
            let score = if denom == 0.0 {
                0.0
            } else {
                overlap as f64 / denom
            };
            if score > threshold {
                matches.push(MatchedPair {
                    r_id: d_r.id.clone(),
                    s_id: d_s.id.clone(),
                    overlap,
                    score,
                });
            }
        }
    }
    Ok(SimilarityJoinReport {
        matches,
        protocol_runs,
        total_ops,
        total_bits,
    })
}

/// Clear-text oracle for tests: the same join computed locally.
pub fn similarity_join_in_clear(
    receiver_docs: &[SignificantDoc],
    sender_docs: &[SignificantDoc],
    threshold: f64,
) -> Vec<MatchedPair> {
    let mut matches = Vec::new();
    for d_r in receiver_docs {
        for d_s in sender_docs {
            let overlap = d_r.words.intersection(&d_s.words).count();
            let denom = (d_r.words.len() + d_s.words.len()) as f64;
            let score = if denom == 0.0 {
                0.0
            } else {
                overlap as f64 / denom
            };
            if score > threshold {
                matches.push(MatchedPair {
                    r_id: d_r.id.clone(),
                    s_id: d_s.id.clone(),
                    overlap,
                    score,
                });
            }
        }
    }
    matches
}

/// Phase two of Application 1: *"they would like to first find the
/// specific technologies for which there is a match, **and then reveal
/// information only about those technologies**"*.
///
/// After the similarity join, `R` fetches the full text of exactly the
/// matched documents with one §4 equijoin keyed by document id: `S`
/// offers `(doc id, contents)` for its whole corpus, `R` queries with
/// only the matched ids — so `S` learns just how many documents were
/// requested, and `R` receives contents for matched documents only.
pub fn exchange_matched_documents<R: Rng>(
    group: &QrGroup,
    matches: &[MatchedPair],
    sender_contents: &[(String, Vec<u8>)],
    rng: &mut R,
) -> Result<Vec<(String, Vec<u8>)>, ProtocolError> {
    use minshare_crypto::kcipher::HybridCipher;

    let max_len = sender_contents
        .iter()
        .map(|(_, c)| c.len())
        .max()
        .unwrap_or(0)
        .max(1);
    let cipher = HybridCipher::new(group.clone(), max_len);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = sender_contents
        .iter()
        .map(|(id, contents)| (id.as_bytes().to_vec(), contents.clone()))
        .collect();
    let wanted: Vec<Vec<u8>> = matches.iter().map(|m| m.s_id.as_bytes().to_vec()).collect();

    let s_seed: u64 = rng.random();
    let r_seed: u64 = rng.random();
    let run = run_two_party(
        |t| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(s_seed);
            crate::equijoin::run_sender(t, group, &cipher, &entries, &mut rng)
        },
        |t| {
            let cipher = HybridCipher::new(group.clone(), max_len);
            let mut rng = rand::rngs::StdRng::seed_from_u64(r_seed);
            crate::equijoin::run_receiver(t, group, &cipher, &wanted, &mut rng)
        },
    )?;
    Ok(run
        .receiver
        .matches
        .into_iter()
        .map(|(id, contents)| (String::from_utf8_lossy(&id).into_owned(), contents))
        .collect())
}

/// Generates a synthetic corpus: `n_docs` documents of `words_per_doc`
/// words drawn from a vocabulary of `vocab_size` words, with a fraction
/// of "topic" words shared between consecutive documents so that some
/// pairs genuinely match.
pub fn synthetic_corpus<R: Rng>(
    rng: &mut R,
    prefix: &str,
    n_docs: usize,
    vocab_size: usize,
    words_per_doc: usize,
) -> Vec<Document> {
    (0..n_docs)
        .map(|i| {
            let words = (0..words_per_doc)
                .map(|_| format!("w{}", rng.random_range(0..vocab_size)))
                .collect();
            Document {
                id: format!("{prefix}{i}"),
                words,
            }
        })
        .collect()
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn doc(id: &str, words: &[&str]) -> Document {
        Document {
            id: id.to_string(),
            words: words.iter().map(|w| w.to_string()).collect(),
        }
    }

    fn sig(id: &str, words: &[&str]) -> SignificantDoc {
        SignificantDoc {
            id: id.to_string(),
            words: words.iter().map(|w| w.to_string()).collect(),
        }
    }

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(21);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    #[test]
    fn tfidf_drops_ubiquitous_words() {
        // "the" appears in every document → idf = 0 → never significant.
        let corpus = vec![
            doc("a", &["the", "cat", "sat"]),
            doc("b", &["the", "dog", "ran"]),
            doc("c", &["the", "fox", "hid"]),
        ];
        let sigs = significant_words(&corpus, 2);
        for s in &sigs {
            assert!(!s.words.contains("the"), "doc {}", s.id);
            assert_eq!(s.words.len(), 2);
        }
    }

    #[test]
    fn tfidf_keeps_top_n() {
        let corpus = vec![doc("a", &["x", "x", "x", "y", "z"]), doc("b", &["p", "q"])];
        let sigs = significant_words(&corpus, 1);
        // In doc a, "x" has the highest tf → kept.
        assert!(sigs[0].words.contains("x"));
        assert_eq!(sigs[0].words.len(), 1);
    }

    #[test]
    fn private_join_matches_clear_join() {
        let g = group();
        let r_docs = vec![
            sig("r0", &["alpha", "beta", "gamma", "delta"]),
            sig("r1", &["epsilon", "zeta"]),
        ];
        let s_docs = vec![
            sig("s0", &["alpha", "beta", "gamma", "eta"]),
            sig("s1", &["theta", "iota"]),
        ];
        let mut rng = StdRng::seed_from_u64(77);
        let report = similarity_join(&g, &r_docs, &s_docs, 0.2, &mut rng).unwrap();
        let clear = similarity_join_in_clear(&r_docs, &s_docs, 0.2);
        assert_eq!(report.matches, clear);
        assert_eq!(report.protocol_runs, 4);
        // (r0, s0): overlap 3 of 4+4 → 0.375 > 0.2 — the only match.
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.matches[0].overlap, 3);
    }

    #[test]
    fn cost_accounting_matches_formula() {
        // §6.2.1: computation per pair is (|d_R| + |d_S|)·2Ce.
        let g = group();
        let r_docs = vec![sig("r0", &["a", "b", "c"])];
        let s_docs = vec![sig("s0", &["b", "c", "d", "e"])];
        let mut rng = StdRng::seed_from_u64(7);
        let report = similarity_join(&g, &r_docs, &s_docs, 0.9, &mut rng).unwrap();
        assert_eq!(report.total_ops.total_ce(), 2 * (3 + 4));
        assert!(report.total_bits > 0);
    }

    #[test]
    fn matched_documents_exchange_reveals_only_matches() {
        let g = group();
        let matches = vec![MatchedPair {
            r_id: "r0".into(),
            s_id: "s1".into(),
            overlap: 3,
            score: 0.4,
        }];
        let contents = vec![
            ("s0".to_string(), b"secret unpublished patent 0".to_vec()),
            ("s1".to_string(), b"matched technology brief".to_vec()),
            ("s2".to_string(), b"secret unpublished patent 2".to_vec()),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let got = exchange_matched_documents(&g, &matches, &contents, &mut rng).unwrap();
        assert_eq!(
            got,
            vec![("s1".to_string(), b"matched technology brief".to_vec())]
        );
    }

    #[test]
    fn exchange_with_no_matches_is_empty() {
        let g = group();
        let contents = vec![("s0".to_string(), b"private".to_vec())];
        let mut rng = StdRng::seed_from_u64(5);
        let got = exchange_matched_documents(&g, &[], &contents, &mut rng).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn synthetic_corpus_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let corpus = synthetic_corpus(&mut rng, "d", 4, 100, 20);
        assert_eq!(corpus.len(), 4);
        assert!(corpus.iter().all(|d| d.words.len() == 20));
        assert_eq!(corpus[2].id, "d2");
    }
}
