//! Medical research (§1.1 Application 2, Figure 2, §6.2.2).
//!
//! ```text
//! cargo run --example medical_research
//! ```
//!
//! A researcher tests whether DNA pattern `D` correlates with adverse
//! reactions to drug `G`. Enterprise `R` knows who carries the pattern;
//! enterprise `S` knows who took the drug and who reacted. The
//! researcher gets the 2×2 contingency table — the enterprises learn
//! nothing about individuals, and the researcher sees only four counts.

use minshare::apps::medical;
use minshare_crypto::QrGroup;
use minshare_privdb::query;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(0x3d1c);
    let group = QrGroup::generate(&mut rng, 96).expect("group generation");

    // Synthetic population: 200 people, pattern prevalence 30%, drug
    // uptake 55%, and a planted correlation — carriers react with
    // probability 0.8, others with 0.1.
    let (tr, ts) =
        medical::synthetic_study(&mut rng, 200, 0.30, 0.55, 0.80, 0.10).expect("synthetic study");
    println!(
        "TR holds {} DNA records; TS holds {} prescription records",
        tr.len(),
        ts.len()
    );

    // The private computation: Figure 2's four three-party
    // intersection-size runs.
    let (counts, cost) = medical::run_medical_study(&group, &tr, &ts, 42).expect("study");

    println!("\nresearcher's contingency table (drug takers only):");
    println!("                 reaction   no-reaction");
    println!(
        "  pattern      {:>8}   {:>11}",
        counts.counts[1][1], counts.counts[1][0]
    );
    println!(
        "  no pattern   {:>8}   {:>11}",
        counts.counts[0][1], counts.counts[0][0]
    );

    // Ground truth — what a trusted third party would have computed with
    // the SQL query of §1.1.
    let clear = medical::medical_counts_in_clear(&tr, &ts).expect("oracle");
    assert_eq!(counts, clear);
    println!("\nOK — private counts equal the clear-text SQL result:");
    println!("  select pattern, reaction, count(*)");
    println!("  from TR, TS");
    println!("  where TR.personid = TS.personid and TS.drug = true");
    println!("  group by TR.pattern, TS.reaction");

    // Show the relational substrate run of the same query.
    let joined = query::equijoin(&tr, "personid", &ts, "personid").expect("join");
    let drug_idx = joined.schema().index_of("drug").expect("column");
    let took = joined.filter("took", |row| {
        row[drug_idx] == minshare_privdb::Value::Bool(true)
    });
    let table = query::group_by_count(&took, &["pattern", "reaction"]).expect("group");
    println!("\nclear-text result set ({} groups):", table.len());
    for row in table.rows() {
        println!("  pattern={} reaction={} count={}", row[0], row[1], row[2]);
    }

    println!(
        "\ncosts: {} exponentiations, {} bits across all three links",
        cost.ops.total_ce(),
        cost.total_bits
    );
    let odds_ratio = (counts.counts[1][1] as f64 * counts.counts[0][0] as f64)
        / (counts.counts[1][0] as f64 * counts.counts[0][1] as f64).max(1.0);
    println!("odds ratio ≈ {odds_ratio:.1} — the planted correlation is visible in counts alone");
}
