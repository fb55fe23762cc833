//! Emits `BENCH_protocols.json`: the committed `Ce` kernel-tier table —
//! the two `Ce` tiers at a 512-bit modulus, at the 1024-bit group the
//! daemon serves and at its other well-known groups, under the same keys
//! at every width: `ladder_us` (`plan.pow` per base, what a host without
//! AVX-512 IFMA runs), `dispatch_us` (`plan.pow_batch`, the IFMA lanes
//! wherever `simd_active`) and `dispatch_1_us` (`plan.pow_batch` on one
//! base: the smallest padded IFMA block). End-to-end numbers live in the
//! repo benchmark (`benchmark/`), which drives the real daemon at 1024
//! bits.
//!
//! All numbers are wall-clock medians on the current host; the host's
//! logical core count is recorded alongside.
//!
//! Usage (three modes):
//!   bench_protocols            # print a fresh JSON snapshot to stdout
//!   bench_protocols --check    # re-measure the kernels and fail (exit 1)
//!                              # below either IFMA floor on
//!                              # dispatch_speedup_vs_ladder: >= 1.315x at
//!                              # 512 bits, >= 2.112x at 1024 bits (where
//!                              # the committed BENCH_protocols.json and
//!                              # this host both run IFMA)
//!   bench_protocols --profile  # run every protocol under the trace
//!                              # metrics sink and reconcile the measured
//!                              # Ce ops and wire bytes against §6.1;
//!                              # exit 1 unless all four reconcile.
//!                              # `--profile smoke` shrinks the group and
//!                              # set sizes for CI.

use std::sync::Arc;
use std::time::Instant;

use minshare::prelude::*;
use minshare_bench::{bench_group, overlapping_sets};
use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::random::random_below;
use minshare_bignum::safe_prime::well_known_safe_prime;
use minshare_bignum::{FixedExponentPlan, UBig};
use minshare_costmodel::reconcile::{self, MeasuredRun, Reconciliation};
use minshare_costmodel::section6::Protocol;
use minshare_trace::metrics::{MetricsRegistry, RegistrySink};
use minshare_trace::{TraceSink, Tracer};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Minimum `dispatch_speedup_vs_ladder` at 512 bits when the IFMA backend
/// is active on both the committed snapshot and the current host: the
/// former 1.2× floor over the portable lanes, times the 1.096× those lanes
/// measured over the ladder at this width, so the gate is no weaker.
const SIMD_SPEEDUP_FLOOR: f64 = 1.315;

/// Minimum `dispatch_speedup_vs_ladder` at the 1024-bit well-known group
/// (the width real sessions run at) when the IFMA backend is active on both
/// the committed snapshot and the current host: the former 2× floor over
/// the portable lanes, times their measured 1.056× over the ladder.
const SIMD_1024_SPEEDUP_FLOOR: f64 = 2.112;

/// Per-batch wall time of each `Ce` tier under one modulus, 32 bases
/// under one fixed exponent: the ladder (`FixedExponentPlan::pow` per
/// base) and the default dispatch (`FixedExponentPlan::pow_batch`: IFMA
/// lanes when `simd_active`), plus the dispatch on the first base alone.
struct Tiers {
    bits: u64,
    batch: usize,
    ladder_s: f64,
    dispatch_s: f64,
    dispatch_1_s: f64,
    simd_active: bool,
}

impl Tiers {
    fn dispatch_vs_ladder(&self) -> f64 {
        self.ladder_s / self.dispatch_s
    }

    /// One JSON object with the keys every width writes.
    fn json(&self) -> String {
        let us = |s: f64| s * 1e6;
        format!(
            "{{ \"group_bits\": {}, \"batch_size\": {}, \"simd_active\": {}, \"ladder_us\": {:.1}, \
             \"dispatch_us\": {:.1}, \"dispatch_1_us\": {:.1}, \"dispatch_speedup_vs_ladder\": {:.3} }}",
            self.bits,
            self.batch,
            self.simd_active,
            us(self.ladder_s),
            us(self.dispatch_s),
            us(self.dispatch_1_s),
            self.dispatch_vs_ladder()
        )
    }
}

/// The tiers are timed round-robin and reduced to medians, so a slow
/// stretch of a shared host lands on all of them alike and the ratios
/// survive it.
fn measure_tiers(modulus: &UBig, samples: usize) -> Tiers {
    let ctx = Arc::new(MontgomeryCtx::new(modulus).expect("odd modulus"));
    let mut rng = StdRng::seed_from_u64(5);
    let exp = random_below(&mut rng, modulus);
    let bases: Vec<UBig> = (0..32).map(|_| random_below(&mut rng, modulus)).collect();
    let plan = FixedExponentPlan::new(Arc::clone(&ctx), &exp);
    let secs = |f: &dyn Fn() -> Vec<UBig>| {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    };
    let median = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let (mut ladder, mut dispatch, mut dispatch_1) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples.max(1) {
        ladder.push(secs(&|| bases.iter().map(|b| plan.pow(b)).collect()));
        dispatch.push(secs(&|| plan.pow_batch(&bases)));
        dispatch_1.push(secs(&|| plan.pow_batch(&bases[..1])));
    }
    Tiers {
        bits: modulus.bit_len(),
        batch: bases.len(),
        ladder_s: median(ladder),
        dispatch_s: median(dispatch),
        dispatch_1_s: median(dispatch_1),
        simd_active: ctx.simd_active(),
    }
}

/// The well-known safe prime of `bits` bits: the groups the daemon serves.
fn served_modulus(bits: u64) -> UBig {
    well_known_safe_prime(bits).expect("bundled group")
}

/// A deterministic odd full-width 512-bit modulus (no primality needed:
/// the kernels only require oddness).
fn odd_modulus_512() -> UBig {
    let mut rng = StdRng::seed_from_u64(0x5d);
    let mut bytes = vec![0u8; 64];
    rng.fill_bytes(&mut bytes);
    bytes[0] |= 0x80;
    bytes[63] |= 1;
    UBig::from_be_bytes(&bytes)
}

/// `--check`: re-measure the IFMA kernel at 512 and 1024 bits and hold it
/// to its floor over the ladder (`dispatch_speedup_vs_ladder`). A floor
/// applies only when the committed snapshot was produced with the IFMA
/// backend active and this host runs it too; a host without AVX-512 IFMA
/// runs the ladder and is exempt.
fn run_check(snapshot_path: &str) -> i32 {
    let committed = match std::fs::read_to_string(snapshot_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("bench --check: cannot read {snapshot_path}: {err}");
            return 1;
        }
    };
    let mut failed = false;
    for key in ["modexp_1024_fixed_exponent", "dispatch_speedup_vs_ladder"] {
        if !committed.contains(&format!("\"{key}\"")) {
            eprintln!("bench --check: {snapshot_path} lacks {key}; rerun tools/bench.sh");
            failed = true;
        }
    }
    let committed_simd = committed.contains("\"simd_active\": true");
    for (modulus, min) in [
        (odd_modulus_512(), SIMD_SPEEDUP_FLOOR),
        (served_modulus(1024), SIMD_1024_SPEEDUP_FLOOR),
    ] {
        let tiers = measure_tiers(&modulus, 9);
        let bits = tiers.bits;
        if !(committed_simd && tiers.simd_active) {
            eprintln!(
                "bench --check: {bits}-bit IFMA floor not applicable (snapshot or this \
                 host runs the ladder)"
            );
            continue;
        }
        let speedup = tiers.dispatch_vs_ladder();
        if speedup < min {
            eprintln!(
                "bench --check: {bits}-bit dispatch-vs-ladder speedup {speedup:.3} fell below the \
                 {min} floor"
            );
            failed = true;
        } else {
            eprintln!("bench --check: {bits}-bit dispatch-vs-ladder speedup {speedup:.3} >= {min}");
        }
    }
    if failed {
        1
    } else {
        eprintln!("bench --check: both kernel floors hold against {snapshot_path}");
        0
    }
}

/// One protocol run under the metrics registry: both parties feed one
/// [`MetricsRegistry`], and the reconciliation pulls everything from
/// the recorded events — `Ce` from the engines' `*_done` events, bytes
/// and frames from the counting transport's `frame_sent` events, set
/// sizes from the events' `own_values` fields.
fn profile_protocol(
    protocol: Protocol,
    sink: &MetricsRegistry,
    k_bits: u64,
    k_prime_bits: u64,
) -> Reconciliation {
    let scope = reconcile::protocol_slug(protocol);
    let ce = |name: &str| {
        sink.counter(scope, name, "encryptions") + sink.counter(scope, name, "decryptions")
    };
    let run = MeasuredRun {
        protocol,
        vs: sink.counter(scope, "sender_done", "own_values"),
        vr: sink.counter(scope, "receiver_done", "own_values"),
        k_bits,
        k_prime_bits,
        measured_ce: ce("sender_done") + ce("receiver_done"),
        measured_bytes: sink.counter("net", "frame_sent", "bytes"),
        frames: sink.counter("net", "frame_sent", "frames"),
    };
    reconcile::reconcile(run)
}

/// `--profile [smoke]`: all four protocols through the engine the daemon
/// runs (one bucket, default chunking) with tracing on, reconciled
/// against the §6.1 formulas. Prints a JSON report and exits nonzero
/// unless every protocol's measured `Ce` count matches the formula
/// exactly and its wire bytes sit within the framing envelope.
fn run_profile(smoke: bool) -> i32 {
    let (group_bits, set_n) = if smoke { (256u64, 32usize) } else { (512, 48) };
    let g = bench_group(group_bits);
    let (vs, vr) = overlapping_sets(set_n, set_n, set_n / 2);
    let k_bits = 8 * g.codeword_bytes() as u64;
    let record = b"record-payload".to_vec();
    let cipher = HybridCipher::new(g.clone(), record.len());
    // One payload-table entry costs its codeword (in the k term) plus a
    // 4-byte length prefix and the fixed-width ciphertext: that is §6.1's
    // k' as this wire format realizes it.
    let k_prime_bits = 8 * (4 + cipher.ciphertext_len()) as u64;

    // `ext(v)` for every value; only the equijoin shape reads it.
    let ext = vec![record.clone(); vs.len()];
    let pool = EncryptPool::new(0);
    let (pipe, cfg) = (PipelineConfig::default(), ShardConfig::default());

    let mut reconciliations: Vec<Reconciliation> = Vec::new();
    for protocol in Protocol::all() {
        let sink = Arc::new(MetricsRegistry::new());
        let traced = || {
            Tracer::to_sink(Arc::new(RegistrySink::new(Arc::clone(&sink))) as Arc<dyn TraceSink>)
        };
        let shape = match protocol {
            Protocol::Intersection => ProtocolShape::INTERSECTION,
            Protocol::Equijoin => ProtocolShape::equijoin(&cipher),
            Protocol::IntersectionSize => ProtocolShape::INTERSECTION_SIZE,
            Protocol::EquijoinSize => ProtocolShape::EQUIJOIN_SIZE,
        };
        let run = run_two_party(
            |t| {
                let _trace = minshare_trace::install(traced());
                let mut rng = StdRng::seed_from_u64(1);
                engine::run_sender(t, &g, shape, &vs, &ext, &mut rng, &pool, pipe, &cfg)
            },
            |t| {
                let _trace = minshare_trace::install(traced());
                let mut rng = StdRng::seed_from_u64(2);
                engine::run_receiver(t, &g, shape, &vr, &mut rng, &pool, pipe, &cfg)
            },
        );
        run.expect("profiled protocol run");
        reconciliations.push(profile_protocol(
            protocol,
            &sink,
            k_bits,
            if protocol == Protocol::Equijoin {
                k_prime_bits
            } else {
                0
            },
        ));
    }

    println!("{{");
    println!(
        "  \"profile\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    println!("  \"group_bits\": {group_bits},");
    println!("  \"set_n\": {set_n},");
    println!("  \"reconciliations\": [");
    for (i, r) in reconciliations.iter().enumerate() {
        let comma = if i + 1 == reconciliations.len() {
            ""
        } else {
            ","
        };
        println!("    {}{comma}", r.to_json());
    }
    println!("  ]");
    println!("}}");

    let failed: Vec<&Reconciliation> = reconciliations.iter().filter(|r| !r.ok()).collect();
    for r in &failed {
        eprintln!(
            "bench --profile: {} failed reconciliation: ce {}/{} bytes {}/{}+{}",
            reconcile::protocol_slug(r.run.protocol),
            r.run.measured_ce,
            r.predicted_ce,
            r.run.measured_bytes,
            r.predicted_bytes,
            reconcile::ENVELOPE_BYTES_PER_FRAME * r.run.frames,
        );
    }
    if failed.is_empty() {
        eprintln!("bench --profile: all four protocols reconcile with the section 6.1 model");
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--profile") {
        let smoke = args.get(1).map(String::as_str) == Some("smoke");
        std::process::exit(run_profile(smoke));
    }
    if args.first().map(String::as_str) == Some("--check") {
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_protocols.json");
        std::process::exit(run_check(path));
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // 512-bit fixed-exponent batch exponentiation; the two Ce tiers at
    // the served 1024-bit group, then at the other well-known groups.
    let t512 = measure_tiers(&odd_modulus_512(), 15);
    let tiers = measure_tiers(&served_modulus(1024), 15);
    let other_tiers = [768, 1536, 2048].map(|bits| measure_tiers(&served_modulus(bits), 9));

    // --- hand-rolled JSON (no serde in the workspace) ------------------
    println!("{{");
    println!("  \"host_cores\": {host_cores},");
    println!("  \"modexp_512_fixed_exponent\": {},", t512.json());
    println!("  \"modexp_1024_fixed_exponent\": {},", tiers.json());
    println!("  \"modexp_tiers_other_groups\": [");
    for (i, t) in other_tiers.iter().enumerate() {
        let comma = if i + 1 < other_tiers.len() { "," } else { "" };
        println!("    {}{comma}", t.json());
    }
    println!("  ]");
    println!("}}");
}
