//! Integration tests for the two §1.1 applications, run end to end on
//! synthetic workloads and validated against clear-text oracles.

use minshare::apps::{docshare, medical};
use minshare_crypto::QrGroup;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> QrGroup {
    let mut rng = StdRng::seed_from_u64(7);
    QrGroup::generate(&mut rng, 64).expect("group")
}

#[test]
fn document_sharing_full_pipeline() {
    let mut rng = StdRng::seed_from_u64(0xdead);
    let g = group();

    // Synthetic corpora with a planted shared topic.
    let mut r_corpus = docshare::synthetic_corpus(&mut rng, "r", 3, 200, 40);
    let mut s_corpus = docshare::synthetic_corpus(&mut rng, "s", 3, 200, 40);
    let topic: Vec<String> = (0..25).map(|i| format!("topic{i}")).collect();
    r_corpus[1].words.extend(topic.iter().cloned());
    s_corpus[0].words.extend(topic.iter().cloned());

    let r_docs = docshare::significant_words(&r_corpus, 30);
    let s_docs = docshare::significant_words(&s_corpus, 30);

    let threshold = 0.1;
    let report =
        docshare::similarity_join(&g, &r_docs, &s_docs, threshold, &mut rng).expect("join");
    let clear = docshare::similarity_join_in_clear(&r_docs, &s_docs, threshold);
    assert_eq!(report.matches, clear);
    // The planted pair must be found.
    assert!(
        report
            .matches
            .iter()
            .any(|m| m.r_id == "r1" && m.s_id == "s0"),
        "planted topic pair not found: {:?}",
        report.matches
    );
    assert_eq!(report.protocol_runs, 9);
    // §6.2.1 cost formula: Σ pairs (|dR|+|dS|)·2 Ce.
    let expect_ce: u64 = r_docs
        .iter()
        .flat_map(|dr| s_docs.iter().map(move |ds| (dr, ds)))
        .map(|(dr, ds)| 2 * (dr.words.len() + ds.words.len()) as u64)
        .sum();
    assert_eq!(report.total_ops.total_ce(), expect_ce);
}

#[test]
fn document_sharing_handles_no_matches() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = group();
    let r_docs = vec![docshare::SignificantDoc {
        id: "r0".into(),
        words: ["alpha", "beta"].iter().map(|s| s.to_string()).collect(),
    }];
    let s_docs = vec![docshare::SignificantDoc {
        id: "s0".into(),
        words: ["gamma", "delta"].iter().map(|s| s.to_string()).collect(),
    }];
    let report = docshare::similarity_join(&g, &r_docs, &s_docs, 0.01, &mut rng).expect("join");
    assert!(report.matches.is_empty());
}

#[test]
fn medical_study_matches_sql_oracle_at_scale() {
    let g = group();
    let mut rng = StdRng::seed_from_u64(0xabc);
    let (tr, ts) =
        medical::synthetic_study(&mut rng, 300, 0.25, 0.5, 0.9, 0.05).expect("synthetic study");
    let (private, cost) = medical::run_medical_study(&g, &tr, &ts, 99).expect("study");
    let clear = medical::medical_counts_in_clear(&tr, &ts).expect("oracle");
    assert_eq!(private, clear);

    // Total counted must equal the number of drug takers.
    let drug_idx = ts.schema().index_of("drug").expect("col");
    let takers = ts
        .rows()
        .iter()
        .filter(|r| r[drug_idx] == minshare_privdb::Value::Bool(true))
        .count() as u64;
    let total: u64 = private.counts.iter().flatten().sum();
    assert_eq!(total, takers);

    // §6.2.2 cost formula: four runs, combined 2(|VR|+|VS|)·2 Ce where
    // the partitions sum to |VR| and |VS| respectively.
    assert_eq!(cost.ops.total_ce(), 2 * 2 * (tr.len() as u64 + takers));
}

#[test]
fn medical_study_with_skewed_population() {
    // Nobody has the pattern; every cell with pattern=true must be 0.
    let g = group();
    let mut rng = StdRng::seed_from_u64(0x111);
    let (tr, ts) =
        medical::synthetic_study(&mut rng, 60, 0.0, 0.7, 0.9, 0.2).expect("synthetic study");
    let (counts, _) = medical::run_medical_study(&g, &tr, &ts, 1).expect("study");
    assert_eq!(counts.counts[1][0] + counts.counts[1][1], 0);
    let clear = medical::medical_counts_in_clear(&tr, &ts).expect("oracle");
    assert_eq!(counts, clear);
}

#[test]
fn three_party_researcher_sees_sizes_only() {
    // The researcher's output is sizes; check they equal the true input
    // sizes (that is the paper's declared disclosure I).
    let g = group();
    let vs: Vec<Vec<u8>> = (0..9u8).map(|b| vec![b]).collect();
    let vr: Vec<Vec<u8>> = (5..12u8).map(|b| vec![b]).collect();
    let run = medical::three_party_intersection_size(&g, &vs, &vr, 3).expect("run");
    assert_eq!(run.intersection_size, 4); // values 5..9
    assert_eq!(run.vs_size, 9);
    assert_eq!(run.vr_size, 7);
}
