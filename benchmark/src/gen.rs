//! Workload inputs and their ground truth, both pure functions of the
//! seed. The daemon and the clients only ever see the generated value
//! files; the expected answers are computed here, independently of any
//! protocol code.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::Workload;

/// Share of each receiver set that also occurs in the sender's set.
const OVERLAP_NUM: usize = 1;
const OVERLAP_DEN: usize = 2;

/// The generated private inputs of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// The daemon's `(v, ext(v))` entries, in value-file order.
    pub sender: Vec<(Vec<u8>, Vec<u8>)>,
    /// One value list per client, in value-file order.
    pub receivers: Vec<Vec<Vec<u8>>>,
}

/// What a correct session must return for one receiver set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Truth {
    /// `(v, ext(v))` for every `v ∈ V_S ∩ V_R`, ascending by value.
    pub matches: Vec<(Vec<u8>, Vec<u8>)>,
    /// `|V_S|` as the receiver must learn it.
    pub sender_set_size: usize,
}

impl Truth {
    /// `V_S ∩ V_R`, ascending.
    pub fn intersection(&self) -> Vec<Vec<u8>> {
        self.matches.iter().map(|(v, _)| v.clone()).collect()
    }
}

/// FNV-1a, so each workload draws from its own stream of one seed.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(rng: &mut StdRng, chars: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(chars);
    while out.len() < chars {
        out.extend_from_slice(format!("{:016x}", rng.next_u64()).as_bytes());
    }
    out.truncate(chars);
    out
}

/// Draws ids until `pool` holds `n` more distinct ones; returns the new ones.
fn fresh_ids(rng: &mut StdRng, seen: &mut BTreeSet<Vec<u8>>, n: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = hex(rng, 16);
        if seen.insert(id.clone()) {
            out.push(id);
        }
    }
    out
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Generates the sender's entries and `clients` receiver sets: random
/// 16-hex-digit ids (no `shared-i` patterns), `record_len`-byte hex
/// payloads, each receiver sharing half of its values with the sender.
pub fn generate(w: &Workload, clients: usize, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ name_hash(w.name));
    let mut seen = BTreeSet::new();
    let mut sender: Vec<(Vec<u8>, Vec<u8>)> = fresh_ids(&mut rng, &mut seen, w.set_size)
        .into_iter()
        .map(|v| {
            let payload = hex(&mut rng, w.record_len);
            (v, payload)
        })
        .collect();
    let shared = w.set_size * OVERLAP_NUM / OVERLAP_DEN;
    let receivers = (0..clients)
        .map(|_| {
            // A different half of V_S for every client.
            shuffle(&mut rng, &mut sender);
            let mut values: Vec<Vec<u8>> =
                sender.iter().take(shared).map(|(v, _)| v.clone()).collect();
            values.extend(fresh_ids(&mut rng, &mut seen, w.set_size - shared));
            shuffle(&mut rng, &mut values);
            values
        })
        .collect();
    shuffle(&mut rng, &mut sender);
    Inputs { sender, receivers }
}

/// The answer every protocol is checked against, by plain lookup.
pub fn ground_truth(sender: &[(Vec<u8>, Vec<u8>)], receiver: &[Vec<u8>]) -> Truth {
    let by_value: BTreeMap<&Vec<u8>, &Vec<u8>> = sender.iter().map(|(v, p)| (v, p)).collect();
    let wanted: BTreeSet<&Vec<u8>> = receiver.iter().collect();
    let matches = wanted
        .into_iter()
        .filter_map(|v| by_value.get(v).map(|p| (v.clone(), (*p).clone())))
        .collect();
    Truth {
        matches,
        sender_set_size: by_value.len(),
    }
}

/// Writes the sender file (`value<TAB>payload` lines) the daemon serves.
pub fn write_sender_file(path: &Path, entries: &[(Vec<u8>, Vec<u8>)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (v, p) in entries {
        out.write_all(v)?;
        out.write_all(b"\t")?;
        out.write_all(p)?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Writes a receiver file (one value per line) for `minshare client`.
pub fn write_receiver_file(path: &Path, values: &[Vec<u8>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for v in values {
        out.write_all(v)?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let w = w.smoke();
            let a = generate(&w, 2, 7);
            assert_eq!(a, generate(&w, 2, 7), "{}", w.name);
            assert_ne!(a, generate(&w, 2, 8), "{}", w.name);
        }
        // Workloads draw from distinct streams of the same seed.
        let a = generate(&workload("bulk_intersection").unwrap().smoke(), 1, 7);
        let b = generate(&workload("bulk_sharded_spill").unwrap().smoke(), 1, 7);
        assert_ne!(a.sender, b.sender);
    }

    #[test]
    fn sets_have_the_stated_shape() {
        let w = workload("equijoin_payload").unwrap();
        let inputs = generate(&w, 2, 42);
        assert_eq!(inputs.sender.len(), 1000);
        let distinct: BTreeSet<_> = inputs.sender.iter().map(|(v, _)| v).collect();
        assert_eq!(distinct.len(), 1000);
        for (v, p) in &inputs.sender {
            assert_eq!(v.len(), 16);
            assert_eq!(p.len(), 256);
            assert!(v.iter().chain(p).all(u8::is_ascii_hexdigit));
        }
        assert_eq!(inputs.receivers.len(), 2);
        for r in &inputs.receivers {
            assert_eq!(r.len(), 1000);
            assert_eq!(r.iter().collect::<BTreeSet<_>>().len(), 1000);
            // Exactly half overlaps, and the clients overlap differently.
            assert_eq!(ground_truth(&inputs.sender, r).matches.len(), 500);
        }
        assert_ne!(inputs.receivers[0], inputs.receivers[1]);
    }

    #[test]
    fn ground_truth_is_the_sorted_lookup() {
        let b = |s: &str| s.as_bytes().to_vec();
        let sender = vec![(b("m"), b("pm")), (b("a"), b("pa")), (b("z"), b("pz"))];
        let receiver = vec![b("z"), b("q"), b("a"), b("a")];
        let truth = ground_truth(&sender, &receiver);
        assert_eq!(truth.matches, vec![(b("a"), b("pa")), (b("z"), b("pz"))]);
        assert_eq!(truth.intersection(), vec![b("a"), b("z")]);
        assert_eq!(truth.sender_set_size, 3);
        assert!(ground_truth(&sender, &[]).matches.is_empty());
    }

    #[test]
    fn value_files_round_trip_through_the_cli_line_format() {
        let w = workload("small_mixed").unwrap();
        let inputs = generate(&w, 1, 3);
        let dir =
            std::env::temp_dir().join(format!("minshare-benchmark-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = dir.join("s.txt");
        let r = dir.join("r.txt");
        write_sender_file(&s, &inputs.sender).unwrap();
        write_receiver_file(&r, &inputs.receivers[0]).unwrap();
        let text = std::fs::read_to_string(&s).unwrap();
        let parsed: Vec<(Vec<u8>, Vec<u8>)> = text
            .lines()
            .map(|l| l.split_once('\t').unwrap())
            .map(|(v, p)| (v.as_bytes().to_vec(), p.as_bytes().to_vec()))
            .collect();
        assert_eq!(parsed, inputs.sender);
        let values: Vec<Vec<u8>> = std::fs::read_to_string(&r)
            .unwrap()
            .lines()
            .map(|l| l.as_bytes().to_vec())
            .collect();
        assert_eq!(values, inputs.receivers[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
