//! Regenerates every table and figure of *"Information Sharing Across
//! Private Databases"* (SIGMOD 2003) — experiments E2–E17 of DESIGN.md.
//!
//! Usage:
//!
//! ```text
//! paper_tables            # run everything
//! paper_tables e4 e8 e11  # run selected experiments
//! ```
//!
//! Analytic experiments print the paper's reported value next to the
//! model's output; live experiments run the actual protocols (at
//! laptop-feasible sizes) and compare against formulas and clear-text
//! oracles.

use minshare::apps::medical;
use minshare::prelude::*;
use minshare::{leakage, naive};
use minshare_bench::{bench_group, describe_rate, measure_ce, measure_cr, overlapping_sets};
use minshare_circuits::garble;
use minshare_circuits::intersection_circuit;
use minshare_circuits::partition;
use minshare_costmodel::report::{duration, sci, TextTable};
use minshare_costmodel::{appendix_a, apps as costapps, section6, CostConstants};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
        "e16", "e17",
    ];
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in &selected {
        match *id {
            "e2" => e2_medical(),
            "e3" => e3_naive_attack(),
            "e4" => e4_computation_formulas(),
            "e5" => e5_communication_formulas(),
            "e6" => e6_document_sharing(),
            "e7" => e7_medical_estimate(),
            "e8" => e8_partition_table(),
            "e9" => e9_computation_comparison(),
            "e10" => e10_communication_comparison(),
            "e11" => e11_ce_calibration(),
            "e12" => e12_protocol_scaling(),
            "e13" => e13_join_size_leakage(),
            "e14" => e14_garbled_baseline(),
            "e15" => e15_tradeoff(),
            "e16" => e16_intersection_sum(),
            "e17" => e17_multiparty(),
            other => eprintln!("unknown experiment id: {other}"),
        }
    }
}

fn banner(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
}

/// E2 — Figure 2: the medical-research algorithm, run end to end on
/// synthetic data and checked against the clear-text SQL oracle.
fn e2_medical() {
    banner(
        "E2",
        "Figure 2 — medical research via four intersection sizes",
    );
    let mut rng = StdRng::seed_from_u64(0xe2);
    let group = bench_group(64);
    let (tr, ts) =
        medical::synthetic_study(&mut rng, 120, 0.35, 0.6, 0.75, 0.15).expect("synthetic study");
    let (private, cost) = medical::run_medical_study(&group, &tr, &ts, 7).expect("study");
    let clear = medical::medical_counts_in_clear(&tr, &ts).expect("oracle");

    let mut t = TextTable::new(&["pattern", "reaction", "private count", "clear count"]);
    for p in [true, false] {
        for r in [true, false] {
            t.row(&[
                p.to_string(),
                r.to_string(),
                private.counts[p as usize][r as usize].to_string(),
                clear.counts[p as usize][r as usize].to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "agreement: {}; total Ce ops: {}; wire: {} bits",
        if private == clear {
            "EXACT"
        } else {
            "MISMATCH"
        },
        cost.ops.total_ce(),
        cost.total_bits
    );
}

/// E3 — §3.1: the broken hash protocol and the dictionary attack.
fn e3_naive_attack() {
    banner(
        "E3",
        "§3.1 — naive hash protocol broken by dictionary attack",
    );
    // V_S drawn from a small domain (two-digit codes).
    let vs: Vec<Vec<u8>> = [13u8, 42, 77, 91].iter().map(|b| vec![*b]).collect();
    let vr: Vec<Vec<u8>> = vec![vec![42u8]];
    let (intersection, transcript) = naive::naive_intersection(&vs, &vr);
    let domain: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
    let recovered = naive::dictionary_attack(&transcript, domain.iter().map(|d| d.as_slice()));
    println!(
        "intersection computed by protocol : {} values",
        intersection.len()
    );
    println!("sender set size                   : {} values", vs.len());
    println!(
        "values recovered by curious R     : {} values ({}% of V_S)",
        recovered.len(),
        100 * recovered.len() / vs.len()
    );
    println!("→ the naive protocol leaks the entire sender set over a small domain;");
    println!("  the fixed protocol of §3.3 provably reveals only the intersection.");
}

/// E4 — §6.1 computation formulas vs. operations counted in real runs.
fn e4_computation_formulas() {
    banner(
        "E4",
        "§6.1 computation formulas vs counted operations (live runs)",
    );
    let group = bench_group(64);
    let mut t = TextTable::new(&[
        "protocol",
        "|VS|",
        "|VR|",
        "formula Ce",
        "counted Ce",
        "formula Ch",
        "counted Ch",
    ]);
    for (vs_n, vr_n) in [(40usize, 25usize), (10, 60)] {
        let (vs, vr) = overlapping_sets(vs_n, vr_n, vs_n.min(vr_n) / 2);

        let run = run_two_party(
            |tr| {
                let mut rng = StdRng::seed_from_u64(1);
                intersection::run_sender(tr, &group, &vs, &mut rng)
            },
            |tr| {
                let mut rng = StdRng::seed_from_u64(2);
                intersection::run_receiver(tr, &group, &vr, &mut rng)
            },
        )
        .expect("intersection");
        let counted = run.sender.ops + run.receiver.ops;
        let proto = section6::Protocol::Intersection;
        t.row(&[
            proto.name().to_string(),
            vs_n.to_string(),
            vr_n.to_string(),
            proto.ce_ops(vs_n as u64, vr_n as u64).to_string(),
            counted.total_ce().to_string(),
            proto.hash_ops(vs_n as u64, vr_n as u64).to_string(),
            counted.hashes.to_string(),
        ]);

        let cipher = HybridCipher::new(group.clone(), 32);
        let entries: Vec<(Vec<u8>, Vec<u8>)> = vs
            .iter()
            .map(|v| (v.clone(), b"payload".to_vec()))
            .collect();
        let run = run_two_party(
            |tr| {
                let mut rng = StdRng::seed_from_u64(3);
                equijoin::run_sender(tr, &group, &cipher, &entries, &mut rng)
            },
            |tr| {
                let cipher = HybridCipher::new(group.clone(), 32);
                let mut rng = StdRng::seed_from_u64(4);
                equijoin::run_receiver(tr, &group, &cipher, &vr, &mut rng)
            },
        )
        .expect("equijoin");
        let counted = run.sender.ops + run.receiver.ops;
        let proto = section6::Protocol::Equijoin;
        t.row(&[
            proto.name().to_string(),
            vs_n.to_string(),
            vr_n.to_string(),
            proto.ce_ops(vs_n as u64, vr_n as u64).to_string(),
            counted.total_ce().to_string(),
            proto.hash_ops(vs_n as u64, vr_n as u64).to_string(),
            counted.hashes.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(formula: intersection 2Ce(|VS|+|VR|); join 2Ce|VS|+5Ce|VR|)");
}

/// E5 — §6.1 communication formulas vs bytes counted on the wire.
fn e5_communication_formulas() {
    banner(
        "E5",
        "§6.1 communication formulas vs bytes on the wire (live runs)",
    );
    let group = bench_group(64);
    let consts = CostConstants {
        k_bits: group.codeword_bits(),
        ..CostConstants::paper()
    };
    let mut t = TextTable::new(&[
        "protocol",
        "|VS|",
        "|VR|",
        "formula bits",
        "measured bits",
        "overhead",
    ]);
    let (vs_n, vr_n) = (50usize, 30usize);
    let (vs, vr) = overlapping_sets(vs_n, vr_n, 10);

    let run = run_two_party(
        |tr| {
            let mut rng = StdRng::seed_from_u64(1);
            intersection::run_sender(tr, &group, &vs, &mut rng)
        },
        |tr| {
            let mut rng = StdRng::seed_from_u64(2);
            intersection::run_receiver(tr, &group, &vr, &mut rng)
        },
    )
    .expect("intersection");
    let formula =
        section6::Protocol::Intersection.communication_bits(vs_n as u64, vr_n as u64, &consts);
    let measured = run.total_bits();
    t.row(&[
        "intersection".to_string(),
        vs_n.to_string(),
        vr_n.to_string(),
        formula.to_string(),
        measured.to_string(),
        format!("{:+.2}%", (measured as f64 / formula as f64 - 1.0) * 100.0),
    ]);

    // Join with k' = hybrid ciphertext bits.
    let cipher = HybridCipher::new(group.clone(), 32);
    let k_prime = (cipher.ciphertext_len() * 8) as u64;
    let entries: Vec<(Vec<u8>, Vec<u8>)> =
        vs.iter().map(|v| (v.clone(), b"pay".to_vec())).collect();
    let run = run_two_party(
        |tr| {
            let mut rng = StdRng::seed_from_u64(3);
            equijoin::run_sender(tr, &group, &cipher, &entries, &mut rng)
        },
        |tr| {
            let cipher = HybridCipher::new(group.clone(), 32);
            let mut rng = StdRng::seed_from_u64(4);
            equijoin::run_receiver(tr, &group, &cipher, &vr, &mut rng)
        },
    )
    .expect("equijoin");
    let join_consts = CostConstants {
        k_prime_bits: k_prime,
        ..consts
    };
    let formula =
        section6::Protocol::Equijoin.communication_bits(vs_n as u64, vr_n as u64, &join_consts);
    let measured = run.total_bits();
    t.row(&[
        "equijoin".to_string(),
        vs_n.to_string(),
        vr_n.to_string(),
        formula.to_string(),
        measured.to_string(),
        format!("{:+.2}%", (measured as f64 / formula as f64 - 1.0) * 100.0),
    ]);
    print!("{}", t.render());
    println!("(overhead = framing headers: 5 bytes per message, 4 per payload)");
}

/// E6 — §6.2.1 document-sharing estimate with the paper's parameters.
fn e6_document_sharing() {
    banner("E6", "§6.2.1 selective document sharing — cost estimate");
    let paper = CostConstants::paper();
    let e = costapps::document_sharing(10, 100, 1000, 1000, &paper);
    println!("paper parameters: |DR|=10, |DS|=100, 1000 words/doc, k=1024, P=10, T1");
    let mut t = TextTable::new(&["quantity", "paper", "model"]);
    t.row(&[
        "computation".into(),
        "4e6 Ce ≈ 2 hours".into(),
        format!("{} Ce ≈ {}", sci(e.ce_ops), duration(e.compute_seconds)),
    ]);
    t.row(&[
        "communication".into(),
        "3 Gbits ≈ 35 minutes".into(),
        format!("{} bits ≈ {}", sci(e.bits), duration(e.transfer_seconds)),
    ]);
    print!("{}", t.render());

    // The same model with Ce measured on this machine.
    let ce = measure_ce(1024, 10);
    let modern = CostConstants::with_measured_ce(ce);
    let m = costapps::document_sharing(10, 100, 1000, 1000, &modern);
    println!(
        "re-based on this machine (Ce = {:.3} ms): computation ≈ {}",
        ce * 1e3,
        duration(m.compute_seconds)
    );
}

/// E7 — §6.2.2 medical-research estimate with the paper's parameters.
fn e7_medical_estimate() {
    banner("E7", "§6.2.2 medical research — cost estimate");
    let paper = CostConstants::paper();
    let e = costapps::medical_research(1_000_000, 1_000_000, &paper);
    println!("paper parameters: |VR| = |VS| = 1e6, k=1024, P=10, T1");
    let mut t = TextTable::new(&["quantity", "paper", "model"]);
    t.row(&[
        "computation".into(),
        "8e6 Ce ≈ 4 hours".into(),
        format!("{} Ce ≈ {}", sci(e.ce_ops), duration(e.compute_seconds)),
    ]);
    t.row(&[
        "communication".into(),
        "8 Gbits ≈ 1.5 hours".into(),
        format!("{} bits ≈ {}", sci(e.bits), duration(e.transfer_seconds)),
    ]);
    print!("{}", t.render());

    let ce = measure_ce(1024, 10);
    let modern = CostConstants::with_measured_ce(ce);
    let m = costapps::medical_research(1_000_000, 1_000_000, &modern);
    println!(
        "re-based on this machine (Ce = {:.3} ms): computation ≈ {}",
        ce * 1e3,
        duration(m.compute_seconds)
    );
}

/// E8 — Appendix A.1.2: partitioning-circuit gate counts.
fn e8_partition_table() {
    banner("E8", "A.1.2 — partitioning-circuit gate counts (w = 32)");
    let paper_rows = [
        (1e4, 11u32, 2.3e8, 6.3e9),
        (1e6, 19, 7.3e10, 6.3e13),
        (1e8, 32, 1.9e13, 6.3e17),
    ];
    let rows = partition::appendix_table(&[1e4, 1e6, 1e8]);
    let mut t = TextTable::new(&[
        "n",
        "paper m",
        "model m",
        "paper f(n)",
        "model f(n)",
        "paper brute",
        "model brute",
    ]);
    for (row, (n, pm, pf, pb)) in rows.iter().zip(paper_rows) {
        t.row(&[
            sci(n),
            pm.to_string(),
            row.m.to_string(),
            sci(pf),
            sci(row.gates),
            sci(pb),
            sci(row.brute_force_gates),
        ]);
    }
    print!("{}", t.render());
}

/// E9 — Appendix A.2: computation comparison.
fn e9_computation_comparison() {
    banner(
        "E9",
        "A.2 — computation comparison (circuit vs our protocol)",
    );
    let consts = CostConstants::paper();
    let ot = appendix_a::optimal_ot(&consts);
    println!(
        "OT constants: optimal l = {} → Cot = {:.3} Ce (paper: l = 8, 0.157 Ce)",
        ot.l, ot.compute_ce_units
    );
    let paper_rows = [
        (1e4, 5e4, 4.7e8, 4e4),
        (1e6, 5e6, 1.5e11, 4e6),
        (1e8, 5e8, 3.8e13, 4e8),
    ];
    let rows = appendix_a::comparison_table(&[1e4, 1e6, 1e8], &consts);
    let mut t = TextTable::new(&[
        "n",
        "paper input(Ce)",
        "model input(Ce)",
        "paper eval(Cr)",
        "model eval(Cr)",
        "paper ours(Ce)",
        "model ours(Ce)",
    ]);
    for (row, (n, p_in, p_ev, p_ours)) in rows.iter().zip(paper_rows) {
        t.row(&[
            sci(n),
            sci(p_in),
            sci(row.circuit_input_ce),
            sci(p_ev),
            sci(row.circuit_eval_cr),
            sci(p_ours),
            sci(row.ours_ce),
        ]);
    }
    print!("{}", t.render());
}

/// E10 — Appendix A.2: communication comparison.
fn e10_communication_comparison() {
    banner("E10", "A.2 — communication comparison (bits)");
    let consts = CostConstants::paper();
    let paper_rows = [
        (1e4, 1e9, 6.0e10, 3e7),
        (1e6, 1e11, 1.8e13, 3e9),
        (1e8, 1e13, 4.9e15, 3e11),
    ];
    let rows = appendix_a::comparison_table(&[1e4, 1e6, 1e8], &consts);
    let mut t = TextTable::new(&[
        "n",
        "paper OT bits",
        "model OT bits",
        "paper tables",
        "model tables",
        "paper ours",
        "model ours",
    ]);
    for (row, (n, p_ot, p_tab, p_ours)) in rows.iter().zip(paper_rows) {
        t.row(&[
            sci(n),
            sci(p_ot),
            sci(row.circuit_input_bits),
            sci(p_tab),
            sci(row.circuit_table_bits),
            sci(p_ours),
            sci(row.ours_bits),
        ]);
    }
    print!("{}", t.render());
    let h = appendix_a::headline(1e6, &consts);
    println!(
        "headline at n = 1e6 (paper: 144 days vs 0.5 hours on T1): model {:.0} days vs {:.2} hours",
        h.circuit_days, h.ours_hours
    );
}

/// E11 — `Ce` calibration: measured modexp cost across group sizes.
fn e11_ce_calibration() {
    banner(
        "E11",
        "Ce calibration — k-bit modular exponentiation on this machine",
    );
    println!("paper reference: 0.02 s at 1024 bits on a 2001 Pentium III (2e5/hour)");
    let mut t = TextTable::new(&["k (bits)", "measured Ce", "rate"]);
    for bits in [768u64, 1024, 1536, 2048] {
        let iters = if bits <= 1024 { 20 } else { 8 };
        let ce = measure_ce(bits, iters);
        t.row(&[
            bits.to_string(),
            format!("{:.3} ms", ce * 1e3),
            describe_rate(ce),
        ]);
    }
    print!("{}", t.render());
}

/// E12 — live protocol scaling: measured time & bytes vs model.
fn e12_protocol_scaling() {
    banner(
        "E12",
        "protocol scaling — measured vs model (1024-bit group)",
    );
    let group = bench_group(1024);
    let ce = measure_ce(1024, 10);
    let consts = CostConstants {
        parallelism: 1.0,
        ..CostConstants::with_measured_ce(ce)
    };
    let mut t = TextTable::new(&[
        "n per side",
        "protocol",
        "measured time",
        "model time",
        "measured bits",
        "model bits",
    ]);
    for n in [25usize, 50, 100] {
        let (vs, vr) = overlapping_sets(n, n, n / 2);
        let start = std::time::Instant::now();
        let run = run_two_party(
            |tr| {
                let mut rng = StdRng::seed_from_u64(1);
                intersection::run_sender(tr, &group, &vs, &mut rng)
            },
            |tr| {
                let mut rng = StdRng::seed_from_u64(2);
                intersection::run_receiver(tr, &group, &vr, &mut rng)
            },
        )
        .expect("run");
        let elapsed = start.elapsed().as_secs_f64();
        let est = section6::estimate(
            section6::Protocol::Intersection,
            n as u64,
            n as u64,
            &consts,
        );
        // Both parties run concurrently; the model's serialized op count
        // halves in wall-clock with two threads.
        t.row(&[
            n.to_string(),
            "intersection".to_string(),
            duration(elapsed),
            duration(est.compute_seconds / 2.0),
            run.total_bits().to_string(),
            est.bits.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(model time = formula Ce ops × measured Ce / 2 threads; excludes hashing/sorting)");
}

/// E13 — §5.2: the equijoin-size duplicate-class leak, protocol vs
/// clear-text characterization.
fn e13_join_size_leakage() {
    banner("E13", "§5.2 — equijoin-size leakage characterization");
    let group = bench_group(64);
    let vs: Vec<Vec<u8>> = ["a", "a", "b", "c", "c", "c", "d"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    let vr: Vec<Vec<u8>> = ["a", "b", "b", "c", "e", "e"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    let run = run_two_party(
        |t| {
            let mut rng = StdRng::seed_from_u64(1);
            equijoin_size::run_sender(t, &group, &vs, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(2);
            equijoin_size::run_receiver(t, &group, &vr, &mut rng)
        },
    )
    .expect("join size");
    let expected = leakage::expected_class_intersections(&vr, &vs);
    println!("join size: {}", run.receiver.join_size);
    let mut t = TextTable::new(&[
        "(dup_R, dup_S)",
        "protocol-observed",
        "clear-text predicted",
    ]);
    for (key, predicted) in &expected {
        let observed = run
            .receiver
            .class_intersections
            .get(key)
            .copied()
            .unwrap_or(0);
        t.row(&[
            format!("({}, {})", key.0, key.1),
            observed.to_string(),
            predicted.to_string(),
        ]);
    }
    print!("{}", t.render());
    let exact = run.receiver.class_intersections == expected;
    println!(
        "leak matches §5.2 characterization exactly: {}",
        if exact { "YES" } else { "NO" }
    );
    println!(
        "identifiable fraction of matches: {:.2}",
        leakage::identifiable_match_fraction(&vr, &vs)
    );
}

/// E14 — Appendix A executable baseline: garbled brute-force
/// intersection at small n, with measured `Cr`.
fn e14_garbled_baseline() {
    banner(
        "E14",
        "Appendix A — executable garbled-circuit baseline (small n)",
    );
    let group = bench_group(64);
    let w = 16usize;
    let vs = [3u64, 77, 200, 1999];
    let vr = [77u64, 5, 1999];
    let circuit = intersection_circuit::brute_force_intersection_circuit(w, vs.len(), vr.len());
    println!(
        "circuit: w={w}, |VS|={}, |VR|={} → {} gates",
        vs.len(),
        vr.len(),
        circuit.gate_count()
    );
    let garbler_bits: Vec<bool> = vs
        .iter()
        .flat_map(|&x| (0..w).map(move |i| (x >> i) & 1 == 1))
        .collect();
    let eval_bits: Vec<bool> = vr
        .iter()
        .flat_map(|&x| (0..w).map(move |i| (x >> i) & 1 == 1))
        .collect();
    let mut rng = StdRng::seed_from_u64(14);
    let start = std::time::Instant::now();
    let (outputs, ots) =
        garble::two_party_evaluate(&group, &circuit, &garbler_bits, &eval_bits, &mut rng)
            .expect("garbled evaluation");
    let elapsed = start.elapsed().as_secs_f64();
    println!("membership vector: {outputs:?} (expected [true, false, true])");
    println!("oblivious transfers: {} (= w·|VR| = {})", ots, w * vr.len());
    println!("total time: {}", duration(elapsed));
    let cr = measure_cr(20);
    println!(
        "measured Cr (per-gate garbled evaluation): {:.2} µs",
        cr * 1e6
    );
    let specialized_ce = 2 * (vs.len() + vr.len());
    println!(
        "specialized protocol would need just {specialized_ce} Ce for the same sets — \
         the gap the paper's Appendix A quantifies"
    );
}

/// E15 — the §7 efficiency/disclosure tradeoff, measured: exact
/// intersection vs. Bloom-prefiltered variants.
fn e15_tradeoff() {
    use minshare::tradeoff;
    banner("E15", "§7 tradeoff — disclosure vs efficiency (live runs)");
    let group = bench_group(64);
    let (vs, vr) = overlapping_sets(200, 20, 10);

    // Exact protocol baseline.
    let exact = run_two_party(
        |t| {
            let mut rng = StdRng::seed_from_u64(1);
            intersection::run_sender(t, &group, &vs, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(2);
            intersection::run_receiver(t, &group, &vr, &mut rng)
        },
    )
    .expect("exact run");
    let exact_ce = exact.sender.ops.total_ce() + exact.receiver.ops.total_ce();

    let mut t = TextTable::new(&[
        "variant",
        "answer",
        "Ce ops",
        "wire bits",
        "extra disclosure",
    ]);
    t.row(&[
        "exact §3.3".into(),
        format!("{} values", exact.receiver.intersection.len()),
        exact_ce.to_string(),
        exact.total_bits().to_string(),
        "none".into(),
    ]);

    for fp in [0.1f64, 0.01, 0.001] {
        let hybrid = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(1);
                tradeoff::hybrid_intersection::run_sender(t, &group, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(2);
                tradeoff::hybrid_intersection::run_receiver(t, &group, &vr, fp, &mut rng)
            },
        )
        .expect("hybrid run");
        let ce = hybrid.sender.inner.ops.total_ce() + hybrid.receiver.ops.total_ce();
        t.row(&[
            format!("bloom hybrid fp={fp}"),
            format!("{} values (exact)", hybrid.receiver.intersection.len()),
            ce.to_string(),
            hybrid.total_bits().to_string(),
            format!("BF(V_R) probes; |C|={}", hybrid.sender.candidate_size),
        ]);
    }

    let approx = run_two_party(
        |t| tradeoff::approximate_size::run_sender(t, &vs),
        |t| tradeoff::approximate_size::run_receiver(t, &vr, 0.01),
    )
    .expect("approx run");
    t.row(&[
        "bloom approx size".into(),
        format!("≈{} (true 10)", approx.receiver.approximate_size),
        "0".into(),
        approx.total_bits().to_string(),
        format!(
            "BF(V_R), probe confidence {:.3}",
            approx.sender.disclosure.probe_confidence
        ),
    ]);
    print!("{}", t.render());
    println!("(answers the paper's §7 question: yes — the hybrid keeps the exact answer");
    println!(" at a fraction of the Ce cost, priced in a bounded, quantified leak)");
}

/// E16 — the §7 aggregation extension: private intersection-sum.
fn e16_intersection_sum() {
    use minshare_aggregate::intersection_sum;
    use minshare_aggregate::paillier::PrivateKey;
    banner(
        "E16",
        "§7 aggregation — private intersection-sum (live run)",
    );
    let group = bench_group(64);
    let mut keyrng = StdRng::seed_from_u64(0xe16);
    let key = PrivateKey::generate(&mut keyrng, 128).expect("paillier keygen");
    let entries: Vec<(Vec<u8>, u64)> = (0..50u32)
        .map(|i| (format!("user{i}").into_bytes(), (i as u64) * 10))
        .collect();
    let vr: Vec<Vec<u8>> = (25..60u32)
        .map(|i| format!("user{i}").into_bytes())
        .collect();
    let expect_count = 25u64; // users 25..50
    let expect_sum: u64 = (25..50u64).map(|i| i * 10).sum();

    let run = run_two_party(
        |t| {
            let mut rng = StdRng::seed_from_u64(1);
            intersection_sum::run_sender(t, &group, &key, &entries, &mut rng).map_err(|e| {
                minshare::ProtocolError::MalformedMessage {
                    detail: e.to_string(),
                }
            })
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(2);
            intersection_sum::run_receiver(t, &group, &vr, &mut rng).map_err(|e| {
                minshare::ProtocolError::MalformedMessage {
                    detail: e.to_string(),
                }
            })
        },
    )
    .expect("intersection-sum run");

    let mut t = TextTable::new(&["quantity", "expected", "protocol"]);
    t.row(&[
        "count".into(),
        expect_count.to_string(),
        run.receiver.intersection_count.to_string(),
    ]);
    t.row(&[
        "sum".into(),
        expect_sum.to_string(),
        run.receiver.sum.to_string(),
    ]);
    print!("{}", t.render());
    println!(
        "Ce ops: {} (same 2(|VS|+|VR|) shape as §5.1); Paillier ops: sender {}, receiver {}",
        run.sender.ops.total_ce() + run.receiver.ops.total_ce(),
        run.sender.paillier_ops,
        run.receiver.paillier_ops
    );
    println!("neither party learned which users matched or any individual weight");
}

/// E17 — N-party intersection size (extension): the two-party machinery
/// generalized to a ring of N parties.
fn e17_multiparty() {
    use minshare::multiparty::multiparty_intersection_size;
    banner(
        "E17",
        "N-party intersection size — ring generalization (live runs)",
    );
    let group = bench_group(64);
    let mut t = TextTable::new(&["parties", "|V| each", "intersection", "Ce ops", "wire bits"]);
    for n in [2usize, 3, 5, 8] {
        let mut sets = Vec::new();
        for i in 0..n {
            let mut values: Vec<Vec<u8>> = (0..10u32)
                .map(|j| format!("common-{j}").into_bytes())
                .collect();
            values.extend((0..5u32).map(|j| format!("own-{i}-{j}").into_bytes()));
            sets.push(values);
        }
        let run = multiparty_intersection_size(&group, &sets, n as u64).expect("multiparty run");
        t.row(&[
            n.to_string(),
            "15".to_string(),
            run.intersection_size.to_string(),
            run.ops.total_ce().to_string(),
            run.total_bits.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(cost grows as N·Σ|V_i| encryptions — each list takes one layer per party;");
    println!(" the common 10 values survive every ring, private values never match)");
}
