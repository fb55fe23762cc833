//! Bounded-memory smoke for the sharded intersection engine.
//!
//! Runs one sharded two-party intersection at a configurable scale under
//! the ring trace sink, then checks everything the sharding layer
//! promises at once:
//!
//!   * correctness — the receiver's intersection equals the clear-text
//!     answer of the generated workload;
//!   * §6.1 accounting — the per-bucket `*_bucket_done` events are
//!     assembled into `BucketTrace`s and held against
//!     `reconcile_sharded` together with the counted wire traffic;
//!   * bounded memory — with `--rss-cap-kb` the process peak RSS
//!     (`VmHWM`) must stay under the cap, and with `--require-spill` the
//!     external sorter must have genuinely hit disk (`runs_spilled > 0`
//!     in the engines' `spill_done` events), so the run priced the spill
//!     path rather than an in-memory sort.
//!
//! Prints a one-object JSON report to stdout; exits nonzero on any
//! failed check. `tools/verify.sh` runs this as its bounded-memory
//! smoke step.
//!
//! Usage:
//!   shard_smoke [--elements N] [--shards B] [--mem-budget BYTES]
//!               [--spill-dir PATH] [--group-bits BITS]
//!               [--rss-cap-kb KB] [--require-spill]

use std::sync::Arc;
use std::time::Instant;

use minshare::prelude::*;
use minshare_bench::{bench_group, overlapping_sets};
use minshare_costmodel::reconcile::{reconcile_sharded, BucketTrace};
use minshare_costmodel::section6::Protocol;
use minshare_crypto::pool::EncryptPool;
use minshare_trace::sink::RingSink;
use minshare_trace::{Event, TraceSink, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Peak resident set of this process in KiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn field(event: &Event, name: &str) -> u64 {
    event
        .fields
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_u64())
        .unwrap_or(0)
}

struct Opts {
    elements: usize,
    shards: u32,
    mem_budget: usize,
    spill_dir: Option<std::path::PathBuf>,
    group_bits: u64,
    rss_cap_kb: Option<u64>,
    require_spill: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        elements: 1_000,
        shards: 8,
        mem_budget: 1 << 16,
        spill_dir: None,
        group_bits: 256,
        rss_cap_kb: None,
        require_spill: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--elements" => {
                opts.elements = value("--elements")?
                    .parse()
                    .map_err(|_| "--elements expects a number".to_string())?
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards expects a number".to_string())?
            }
            "--mem-budget" => {
                opts.mem_budget = value("--mem-budget")?
                    .parse()
                    .map_err(|_| "--mem-budget expects bytes".to_string())?
            }
            "--spill-dir" => opts.spill_dir = Some(value("--spill-dir")?.into()),
            "--group-bits" => {
                opts.group_bits = value("--group-bits")?
                    .parse()
                    .map_err(|_| "--group-bits expects a number".to_string())?
            }
            "--rss-cap-kb" => {
                opts.rss_cap_kb = Some(
                    value("--rss-cap-kb")?
                        .parse()
                        .map_err(|_| "--rss-cap-kb expects KiB".to_string())?,
                )
            }
            "--require-spill" => opts.require_spill = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn run(opts: &Opts) -> i32 {
    let group = bench_group(opts.group_bits);
    let n = opts.elements;
    let overlap = n / 2;
    let (vs, vr) = overlapping_sets(n, n, overlap);
    let pool = EncryptPool::new(4);
    let pipe = PipelineConfig::default();
    let shard_cfg = ShardConfig {
        shards: opts.shards,
        mem_budget: opts.mem_budget,
        spill_dir: opts.spill_dir.clone(),
    };

    // One ring per party: per-thread tracer installation means streams
    // never interleave. Generously sized — the engines also emit pool,
    // net and stats events, and the one-shot `spill_done` summary lands
    // *before* the per-bucket stream, so it must survive eviction.
    let capacity = 1 << 16;
    let s_ring = Arc::new(RingSink::new(capacity));
    let r_ring = Arc::new(RingSink::new(capacity));

    let start = Instant::now();
    let result = run_two_party(
        |t| {
            let _trace =
                minshare_trace::install(Tracer::to_sink(Arc::clone(&s_ring) as Arc<dyn TraceSink>));
            let mut rng = StdRng::seed_from_u64(7);
            let shape = ProtocolShape::INTERSECTION;
            engine::run_sender(
                t,
                &group,
                shape,
                &vs,
                &[],
                &mut rng,
                &pool,
                pipe,
                &shard_cfg,
            )
        },
        |t| {
            let _trace =
                minshare_trace::install(Tracer::to_sink(Arc::clone(&r_ring) as Arc<dyn TraceSink>));
            let mut rng = StdRng::seed_from_u64(8);
            let shape = ProtocolShape::INTERSECTION;
            engine::run_receiver(t, &group, shape, &vr, &mut rng, &pool, pipe, &shard_cfg)
                .map(minshare::intersection::IntersectionReceiverOutput::from)
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let run = match result {
        Ok(run) => run,
        Err(err) => {
            eprintln!("shard_smoke: protocol run failed: {err}");
            return 1;
        }
    };

    let mut failures: Vec<String> = Vec::new();

    // Correctness against the clear-text answer of the workload.
    let vr_set: std::collections::BTreeSet<&Vec<u8>> = vr.iter().collect();
    let mut expected: Vec<Vec<u8>> = vs.iter().filter(|v| vr_set.contains(v)).cloned().collect();
    expected.sort();
    expected.dedup();
    if run.receiver.intersection != expected {
        failures.push(format!(
            "intersection mismatch: got {} values, expected {}",
            run.receiver.intersection.len(),
            expected.len()
        ));
    }

    // Assemble per-bucket traces from both parties' event streams. The
    // receiver's `own_items` is `|V_R ∩ bucket|`, the sender's is
    // `|V_S ∩ bucket|`; the bucket's total Ce is the sum of both sides.
    let buckets = shard_cfg.effective_shards() as usize;
    let mut traces = vec![
        BucketTrace {
            vs: 0,
            vr: 0,
            ce: 0
        };
        buckets
    ];
    let mut spill_runs = 0u64;
    let mut spill_bytes = 0u64;
    for event in s_ring.snapshot().iter().chain(r_ring.snapshot().iter()) {
        if event.scope != "shard" {
            continue;
        }
        match event.name {
            "sender_bucket_done" | "receiver_bucket_done" => {
                let b = field(event, "bucket") as usize;
                let Some(trace) = traces.get_mut(b) else {
                    failures.push(format!("event for out-of-range bucket {b}"));
                    continue;
                };
                if event.name == "sender_bucket_done" {
                    trace.vs += field(event, "own_items");
                } else {
                    trace.vr += field(event, "own_items");
                }
                trace.ce += field(event, "ce");
            }
            "spill_done" => {
                spill_runs += field(event, "runs_spilled");
                spill_bytes += field(event, "bytes_spilled");
            }
            _ => {}
        }
    }

    // Hold the traces and the counted traffic against §6.1. With
    // `--shards 1` the engines delegate to the unsharded path and emit
    // no bucket events; the single implicit bucket is the whole run.
    let k_bits = 8 * group.codeword_bytes() as u64;
    let measured_bytes = run.sender_traffic.bytes_sent() + run.receiver_traffic.bytes_sent();
    let frames = run.sender_traffic.frames_sent() + run.receiver_traffic.frames_sent();
    let reconciliation = if buckets > 1 {
        let r = reconcile_sharded(
            Protocol::Intersection,
            k_bits,
            0,
            &traces,
            measured_bytes,
            frames,
        );
        if !r.ok() {
            failures.push(format!(
                "sharded reconciliation failed: ce {}/{} bytes {} over {} frames",
                r.total.run.measured_ce, r.total.predicted_ce, measured_bytes, frames
            ));
        }
        Some(r)
    } else {
        None
    };

    if opts.require_spill && spill_runs == 0 {
        failures.push(format!(
            "spill never engaged (mem budget {} bytes, {} elements) — \
             the run priced an in-memory sort",
            opts.mem_budget, n
        ));
    }

    let peak_kb = vm_hwm_kb();
    if let (Some(cap), Some(peak)) = (opts.rss_cap_kb, peak_kb) {
        if peak > cap {
            failures.push(format!("peak RSS {peak} KiB exceeds cap {cap} KiB"));
        }
    }

    println!("{{");
    println!("  \"elements\": {n},");
    println!("  \"shards\": {},", shard_cfg.effective_shards());
    println!("  \"mem_budget_bytes\": {},", opts.mem_budget);
    println!("  \"group_bits\": {},", opts.group_bits);
    println!("  \"wall_s\": {wall_s:.3},");
    println!("  \"intersection\": {},", run.receiver.intersection.len());
    println!("  \"wire_bytes\": {measured_bytes},");
    println!("  \"frames\": {frames},");
    println!("  \"spill_runs\": {spill_runs},");
    println!("  \"spill_bytes\": {spill_bytes},");
    println!(
        "  \"vm_hwm_kb\": {},",
        peak_kb.map_or("null".to_string(), |kb| kb.to_string())
    );
    match &reconciliation {
        Some(r) => println!("  \"reconciliation\": {},", r.to_json()),
        None => println!("  \"reconciliation\": null,"),
    }
    println!("  \"ok\": {}", failures.is_empty());
    println!("}}");

    for f in &failures {
        eprintln!("shard_smoke: FAIL: {f}");
    }
    if failures.is_empty() {
        eprintln!(
            "shard_smoke: ok — {n} elements, {} shards, {spill_runs} spilled runs, \
             peak {} KiB",
            shard_cfg.effective_shards(),
            peak_kb.unwrap_or(0)
        );
        0
    } else {
        1
    }
}

fn main() {
    match parse_opts() {
        Ok(opts) => std::process::exit(run(&opts)),
        Err(err) => {
            eprintln!("shard_smoke: {err}");
            std::process::exit(2);
        }
    }
}
