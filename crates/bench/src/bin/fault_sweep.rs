//! Fault sweep: replay all four protocols over hundreds of seeded fault
//! schedules on the simulated network and prove the conformance contract
//! at scale — zero panics, zero hangs (virtual-clock deadline), zero
//! wrong answers — then re-run one schedule to demonstrate that a seed
//! reproduces its fault trace byte for byte.
//!
//! Usage: `fault_sweep [--schedules N] [--base-seed S]`
//!
//! With the default `--schedules 60`, the sweep is 60 schedules × 4
//! protocols = 240 seeded runs. The process exits non-zero on any
//! contract violation, so it can gate CI.
//!
//! Output is machine-first: stdout carries one JSON object per seeded
//! run — wall-clock time, outcome, violation latency, and the
//! trace-layer counters (`Ce` operations charged, protocol-layer frames
//! and bytes from the metrics sink) — followed by a final summary
//! object. The human-readable tallies and VIOLATION diagnostics go to
//! stderr.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minshare::naive::naive_intersection;
use minshare::prelude::*;
use minshare::simrun::{run_two_party_sim, SimOutcome, SimRunConfig, SimTwoPartyRun};
use minshare_bench::bench_group;
use minshare_net::FaultPlan;
use minshare_trace::metrics::{MetricsRegistry, RegistrySink};
use minshare_trace::{TraceSink, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn to_values(strs: &[&str]) -> Vec<Vec<u8>> {
    strs.iter().map(|s| s.as_bytes().to_vec()).collect()
}

fn vs() -> Vec<Vec<u8>> {
    to_values(&["apple", "grape", "melon", "peach", "berry", "mango", "lemon"])
}

fn vr() -> Vec<Vec<u8>> {
    to_values(&["grape", "kiwi", "apple", "plum", "melon"])
}

fn ms() -> Vec<Vec<u8>> {
    to_values(&["ash", "ash", "ash", "oak", "oak", "elm", "fir"])
}

fn mr() -> Vec<Vec<u8>> {
    to_values(&["oak", "ash", "oak", "yew", "yew", "elm"])
}

fn chunked() -> PipelineConfig {
    PipelineConfig::chunked(3)
}

/// A tracer feeding the shared per-run metrics registry; installed
/// inside each party closure so the thread-local trace context exists on
/// the party threads that `run_two_party_sim` spawns.
fn metrics_tracer(sink: &Arc<MetricsRegistry>) -> Tracer {
    Tracer::to_sink(Arc::new(RegistrySink::new(Arc::clone(sink))) as Arc<dyn TraceSink>)
}

/// Per-protocol sweep tally.
#[derive(Debug, Default)]
struct Tally {
    complete: u32,
    typed_failure: u32,
    violations: u32,
}

impl Tally {
    /// Classifies one faulty run against the perfect-link baseline and
    /// returns how many violations this seed alone contributed.
    fn record<SO, RO>(
        &mut self,
        tag: &str,
        seed: u64,
        baseline: &SimTwoPartyRun<SO, RO>,
        faulty: &SimTwoPartyRun<SO, RO>,
    ) -> u32
    where
        SO: PartialEq + std::fmt::Debug,
        RO: PartialEq + std::fmt::Debug,
    {
        let before = self.violations;
        match faulty.outcome() {
            SimOutcome::Panicked => {
                self.violations += 1;
                eprintln!(
                    "VIOLATION [{tag} seed {seed}]: party panicked: {:?} / {:?}",
                    faulty.sender, faulty.receiver
                );
                return self.violations - before;
            }
            SimOutcome::Complete => self.complete += 1,
            SimOutcome::TypedFailure => self.typed_failure += 1,
        }
        // A completing party must match the perfect-link run exactly, in
        // output and in protocol-layer bytes (retransmits excluded).
        if let (Ok(b), Ok(f)) = (&baseline.sender, &faulty.sender) {
            if b != f {
                self.violations += 1;
                eprintln!("VIOLATION [{tag} seed {seed}]: wrong sender answer");
            }
            if baseline.sender_traffic.bytes_sent() != faulty.sender_traffic.bytes_sent() {
                self.violations += 1;
                eprintln!("VIOLATION [{tag} seed {seed}]: sender leakage profile changed");
            }
        }
        if let (Ok(b), Ok(f)) = (&baseline.receiver, &faulty.receiver) {
            if b != f {
                self.violations += 1;
                eprintln!("VIOLATION [{tag} seed {seed}]: wrong receiver answer");
            }
            if baseline.receiver_traffic.bytes_sent() != faulty.receiver_traffic.bytes_sent() {
                self.violations += 1;
                eprintln!("VIOLATION [{tag} seed {seed}]: receiver leakage profile changed");
            }
        }
        self.violations - before
    }
}

fn outcome_slug(outcome: SimOutcome) -> &'static str {
    match outcome {
        SimOutcome::Complete => "complete",
        SimOutcome::TypedFailure => "typed_failure",
        SimOutcome::Panicked => "panicked",
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One JSON-lines row per seeded run. `ce_ops` counts the §6.1 units
/// charged by parties that *completed* (a failed party never reaches its
/// `*_done` event); `frames`/`bytes` count protocol-layer traffic from
/// both endpoints' counting transports, retransmits excluded.
#[allow(clippy::too_many_arguments)]
fn seed_row_json(
    tag: &str,
    scope: &str,
    seed: u64,
    outcome: SimOutcome,
    wall: Duration,
    violations: u32,
    violation_latency: Option<Duration>,
    sink: &MetricsRegistry,
) -> String {
    let ce_ops = sink.counter(scope, "sender_done", "encryptions")
        + sink.counter(scope, "sender_done", "decryptions")
        + sink.counter(scope, "receiver_done", "encryptions")
        + sink.counter(scope, "receiver_done", "decryptions");
    let frames = sink.counter("net", "frame_sent", "frames");
    let bytes = sink.counter("net", "frame_sent", "bytes");
    let latency = match violation_latency {
        Some(d) => format!("{:.3}", millis(d)),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"fault_sweep_seed\":{{\"protocol\":\"{}\",\"seed\":{},",
            "\"outcome\":\"{}\",\"wall_ms\":{:.3},\"violations\":{},",
            "\"violation_latency_ms\":{},\"ce_ops\":{},\"frames\":{},",
            "\"bytes\":{}}}}}"
        ),
        tag,
        seed,
        outcome_slug(outcome),
        millis(wall),
        violations,
        latency,
        ce_ops,
        frames,
        bytes,
    )
}

fn sweep_protocol<SO, RO>(
    tag: &str,
    scope: &str,
    schedules: u64,
    base_seed: u64,
    run: impl Fn(&FaultPlan, &Arc<MetricsRegistry>) -> SimTwoPartyRun<SO, RO>,
) -> Tally
where
    SO: PartialEq + std::fmt::Debug,
    RO: PartialEq + std::fmt::Debug,
{
    let mut tally = Tally::default();
    let baseline = run(&FaultPlan::perfect(), &Arc::new(MetricsRegistry::new()));
    if baseline.outcome() != SimOutcome::Complete {
        tally.violations += 1;
        eprintln!(
            "VIOLATION [{tag}]: perfect link did not complete: {:?} / {:?}",
            baseline.sender, baseline.receiver
        );
        return tally;
    }
    for i in 0..schedules {
        let seed = base_seed.wrapping_add(i);
        let sink = Arc::new(MetricsRegistry::new());
        let started = Instant::now();
        let faulty = run(&FaultPlan::from_seed(seed), &sink);
        let wall = started.elapsed();
        let seed_violations = tally.record(tag, seed, &baseline, &faulty);
        // Violation latency: how long after the run started the contract
        // breach was established (the run itself plus the post-hoc
        // baseline comparison — the sweep only ever detects post-hoc).
        let latency = (seed_violations > 0).then(|| started.elapsed());
        println!(
            "{}",
            seed_row_json(
                tag,
                scope,
                seed,
                faulty.outcome(),
                wall,
                seed_violations,
                latency,
                &sink
            )
        );
    }
    // Reproducibility spot check: replaying the first schedule must give
    // a byte-identical fault trace and the same outcome.
    let plan = FaultPlan::from_seed(base_seed);
    let fresh = || Arc::new(MetricsRegistry::new());
    let (r1, r2) = (run(&plan, &fresh()), run(&plan, &fresh()));
    if r1.trace.digest() != r2.trace.digest() || r1.outcome() != r2.outcome() {
        tally.violations += 1;
        eprintln!("VIOLATION [{tag}]: seed {base_seed} did not reproduce its trace");
    }
    tally
}

fn parse_args() -> Result<(u64, u64), String> {
    let mut schedules = 60u64;
    let mut base_seed = 0x5eed_0000u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut grab = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--schedules" => schedules = grab("--schedules")?,
            "--base-seed" => base_seed = grab("--base-seed")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if schedules == 0 {
        return Err("--schedules must be positive".into());
    }
    Ok((schedules, base_seed))
}

fn main() -> ExitCode {
    let (schedules, base_seed) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fault_sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let group = bench_group(64);
    let pool = EncryptPool::new(2);
    let sim = SimRunConfig::default();

    eprintln!(
        "fault_sweep: {schedules} schedules x 4 protocols = {} seeded runs (base seed {base_seed:#x})",
        schedules * 4
    );

    let g = &group;
    let p = &pool;
    let cipher = HybridCipher::new(group.clone(), 16);
    let ext: Vec<Vec<u8>> = vs().iter().map(|v| [&b"ext:"[..], v].concat()).collect();
    // tag, trace scope, shape, (V_S, ext, V_R), RNG seeds.
    let protocols = [
        (
            "intersection",
            "intersection",
            ProtocolShape::INTERSECTION,
            (vs(), vec![], vr()),
            (7, 8),
        ),
        (
            "equijoin",
            "equijoin",
            ProtocolShape::equijoin(&cipher),
            (vs(), ext, vr()),
            (9, 10),
        ),
        (
            "intersection-size",
            "intersection_size",
            ProtocolShape::INTERSECTION_SIZE,
            (vs(), vec![], vr()),
            (11, 12),
        ),
        (
            "equijoin-size",
            "equijoin_size",
            ProtocolShape::EQUIJOIN_SIZE,
            (ms(), vec![], mr()),
            (13, 14),
        ),
    ];
    let one_bucket = ShardConfig::default();
    let tallies: Vec<(&str, Tally)> = protocols
        .iter()
        .map(|(tag, scope, shape, (s_vals, ext, r_vals), seeds)| {
            let tally = sweep_protocol(tag, scope, schedules, base_seed, |plan, sink| {
                let (s_sink, r_sink, cfg) = (Arc::clone(sink), Arc::clone(sink), &one_bucket);
                run_two_party_sim(
                    sim,
                    plan,
                    move |t| {
                        let _trace = minshare_trace::install(metrics_tracer(&s_sink));
                        let mut rng = StdRng::seed_from_u64(seeds.0);
                        engine::run_sender(t, g, *shape, s_vals, ext, &mut rng, p, chunked(), cfg)
                    },
                    move |t| {
                        let _trace = minshare_trace::install(metrics_tracer(&r_sink));
                        let mut rng = StdRng::seed_from_u64(seeds.1);
                        engine::run_receiver(t, g, *shape, r_vals, &mut rng, p, chunked(), cfg)
                    },
                )
            });
            (*tag, tally)
        })
        .collect();

    // Sanity-check the baselines against the clear-text reference once,
    // so "complete" above really means "correct", not just "consistent".
    let (clear, _) = naive_intersection(&vs(), &vr());
    let clear_set: BTreeSet<Vec<u8>> = clear.into_iter().collect();
    let reference_ok = {
        let run = run_two_party_sim(
            sim,
            &FaultPlan::perfect(),
            |t| {
                let mut rng = StdRng::seed_from_u64(7);
                let shape = ProtocolShape::INTERSECTION;
                engine::run_sender(t, g, shape, &vs(), &[], &mut rng, p, chunked(), &one_bucket)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(8);
                let shape = ProtocolShape::INTERSECTION;
                engine::run_receiver(t, g, shape, &vr(), &mut rng, p, chunked(), &one_bucket)
            },
        );
        match run.receiver {
            Ok(out) => {
                out.matches
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect::<BTreeSet<_>>()
                    == clear_set
            }
            Err(_) => false,
        }
    };

    let mut violations = 0;
    for (tag, tally) in &tallies {
        eprintln!(
            "  {tag:<18} complete {:>4}  typed-failure {:>4}  violations {}",
            tally.complete, tally.typed_failure, tally.violations
        );
        violations += tally.violations;
    }
    if !reference_ok {
        violations += 1;
        eprintln!("VIOLATION: perfect-link intersection disagrees with the clear reference");
    }

    println!(
        "{{\"fault_sweep\":{{\"schedules\":{schedules},\"runs\":{},\"violations\":{violations},\"pass\":{}}}}}",
        schedules * 4,
        violations == 0
    );
    if violations == 0 {
        eprintln!(
            "fault_sweep: PASS — {} runs, zero panics, zero hangs, zero wrong answers",
            schedules * 4
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("fault_sweep: FAIL — {violations} contract violations");
        ExitCode::FAILURE
    }
}
