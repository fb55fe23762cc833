//! One benchmark run: set the system up, drive it, gate every session on
//! correctness, and turn the measurements into the metric tables.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minshare::prelude::*;
use minshare_costmodel::constants::CostConstants;
use minshare_costmodel::section6::{estimate, Protocol};
use minshare_trace::metrics::MetricsRegistry;

use crate::daemon::{
    self, counter, counter_sum, histogram_totals, process_cpu_s, Daemon, DaemonExit,
};
use crate::gen::{self, Inputs, Truth};
use crate::json::Value;
use crate::layers::{replay_all, ReplayEnv};
use crate::loadgen::{run_pass, ClientEnv, ClientInput, Outcome, Pass, Tracing, SPAN_NAMES};
use crate::spec::{Workload, END_TO_END, GROUP_BITS, PER_LAYER};
use crate::stats::{mean_over_strata, median, percentile, samples_beyond, tail_or_median};
use crate::tracefile::Tracefile;

/// How many times a trace-0 run sets the system up (inputs, files,
/// daemon, first STATS answer); `setup_s` is the median.
const SETUPS: usize = 101;
const SMOKE_SETUPS: usize = 2;

/// How long a daemon may take to drain after its last session.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);

/// What to run.
pub struct RunConfig {
    /// The workload (already at smoke scale if `smoke`).
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget the timed session count derives from.
    pub seconds: u64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced run
    /// and the layer replays, per-layer metrics.
    pub trace: bool,
    /// Smoke scale: a handful of sessions, fewer replay repetitions.
    pub smoke: bool,
    /// `benchmark/out`: scratch directories, traces and result files.
    pub out_dir: PathBuf,
    /// The `minshare` binary under test.
    pub minshare: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from `spec`.
    pub name: &'static str,
    /// Unit from `spec`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of a run, before formatting.
pub struct RunReport {
    /// Every gate passed and no session failed.
    pub correct: bool,
    /// Sessions attempted (warm-up and traced passes included — every
    /// one of them is checked).
    pub attempted: u64,
    /// Sessions that failed, were refused (`Busy`) or answered wrongly.
    pub failed: u64,
    /// End-to-end metrics (trace off) or per-layer metrics (trace on).
    pub metrics: Vec<Metric>,
    /// Which gates failed, in words.
    pub problems: Vec<String>,
    /// Sample counts and other context for the result file.
    pub details: Value,
}

/// A per-run scratch directory under `out/`, holding the value files,
/// port file, daemon logs and spill dir. Knows every name the run puts
/// there, so anything else found at the end is a leftover; removed on
/// every exit path.
struct Scratch {
    dir: PathBuf,
    known: BTreeSet<String>,
}

impl Scratch {
    fn create(out_dir: &Path, w: &Workload) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("run-{}-{}", std::process::id(), w.name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(daemon::spill_dir(&dir))
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        // Absolute, so the daemon and `minshare client` resolve the same
        // files whatever their working directory.
        let dir = dir.canonicalize().map_err(|e| e.to_string())?;
        Ok(Scratch {
            dir,
            known: BTreeSet::from(["spill".to_string()]),
        })
    }

    fn path(&mut self, name: &str) -> PathBuf {
        self.known.insert(name.to_string());
        self.dir.join(name)
    }

    fn daemon_tag(&mut self, index: usize) -> String {
        let tag = format!("daemon{index}");
        for ext in ["port", "out", "err"] {
            self.known.insert(format!("{tag}.{ext}"));
        }
        tag
    }

    /// Spill runs are unlinked at creation, and the run writes nothing it
    /// did not name: report whatever else is lying around.
    fn leftovers(&self) -> Vec<String> {
        let names = |dir: &Path| -> Vec<String> {
            std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        };
        let mut found: Vec<String> = names(&daemon::spill_dir(&self.dir))
            .into_iter()
            .map(|n| format!("spill/{n}"))
            .collect();
        found.extend(
            names(&self.dir)
                .into_iter()
                .filter(|n| !self.known.contains(n)),
        );
        found
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Inputs on disk and a daemon that has answered its first STATS.
struct Rig {
    inputs: Inputs,
    receiver_files: Vec<PathBuf>,
    daemon: Daemon,
    /// Input generation + file writes + spawn + first STATS answer.
    setup_s: f64,
}

fn set_up(
    cfg: &RunConfig,
    scratch: &mut Scratch,
    index: usize,
    clients: usize,
    sessions: usize,
) -> Result<Rig, String> {
    let sender_file = scratch.path("s.txt");
    let receiver_files: Vec<PathBuf> = (0..clients)
        .map(|c| scratch.path(&format!("r{c}.txt")))
        .collect();
    let tag = scratch.daemon_tag(index);

    let started = Instant::now();
    let inputs = gen::generate(&cfg.workload, clients, cfg.seed);
    gen::write_sender_file(&sender_file, &inputs.sender)
        .map_err(|e| format!("writing {}: {e}", sender_file.display()))?;
    for (file, values) in receiver_files.iter().zip(&inputs.receivers) {
        gen::write_receiver_file(file, values)
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
    }
    let daemon = Daemon::spawn(
        &cfg.minshare,
        &scratch.dir,
        &tag,
        &cfg.workload,
        &sender_file,
        sessions,
    )?;
    // The clock stops when the first STATS reply is in; closing the probe
    // connection afterwards is not part of being ready.
    let mut setup_s = 0.0;
    daemon::fetch_stats_then(&daemon.addr, || setup_s = started.elapsed().as_secs_f64())?;
    Ok(Rig {
        inputs,
        receiver_files,
        daemon,
        setup_s,
    })
}

fn client_inputs(inputs: &Inputs) -> Vec<ClientInput> {
    inputs
        .receivers
        .iter()
        .map(|values| ClientInput {
            values: values.clone(),
            truth: gen::ground_truth(&inputs.sender, values),
        })
        .collect()
}

/// What is read from the live daemon after the last session's protocol
/// and before its connection closes (closing it trips
/// `--shutdown-after`, and the daemon is gone).
#[derive(Default)]
struct FinalReading {
    daemon_cpu_s: f64,
    self_cpu_s: f64,
    peak_rss_mib: f64,
    snapshot: Option<Result<Value, String>>,
}

/// Runs the daemon's last pass, taking the final reading in whichever
/// session finishes its protocol last (`sessions` = every session the
/// daemon will have served by then).
fn run_last_pass(
    env: &ClientEnv<'_>,
    inputs: &[ClientInput],
    cycles: usize,
    pass_id: u64,
    tracing: Option<&Tracing<'_>>,
    daemon: &Daemon,
    sessions: usize,
) -> (Pass, FinalReading) {
    let reading = Mutex::new(FinalReading::default());
    let hook = || {
        // CPU first: polling STATS below costs the generator CPU of its own.
        *reading.lock().expect("reading mutex") = FinalReading {
            daemon_cpu_s: daemon.cpu_s(),
            self_cpu_s: self_cpu_s(),
            peak_rss_mib: daemon.peak_rss_mib(),
            snapshot: Some(daemon.stats_after(sessions)),
        }
    };
    let pass = run_pass(env, inputs, cycles, pass_id, tracing, Some(&hook));
    (pass, reading.into_inner().expect("reading mutex"))
}

fn self_cpu_s() -> f64 {
    process_cpu_s("self").unwrap_or(f64::NAN)
}

/// Counts failures of `passes` into `problems` (first few in words).
fn count_failures(passes: &[&Pass], problems: &mut Vec<String>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for outcome in passes.iter().flat_map(|p| p.all()) {
        attempted += 1;
        if let Some(e) = &outcome.error {
            failed += 1;
            if failed <= 3 {
                problems.push(format!("{} session failed: {e}", outcome.protocol.name()));
            }
        }
    }
    (attempted, failed)
}

/// `(protocol, daemon bytes_sent, daemon bytes_received)` as the daemon
/// must have printed it for a successful client session.
type Mirror = (String, u64, u64);

fn mirror(outcome: &Outcome) -> Mirror {
    (
        outcome.protocol.name().to_string(),
        outcome.traffic.bytes_received,
        outcome.traffic.bytes_sent,
    )
}

/// The `key=value` words of a daemon or client reconciliation line.
fn line_fields(line: &str) -> BTreeMap<&str, &str> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .collect()
}

/// The daemon half of the correctness gate: one `status=ok` line per
/// session, each the mirror image of a client's byte counts with the
/// right `peer_set_size`; exit code 0 after "daemon drained".
fn check_daemon(
    exit: &DaemonExit,
    mut expected: Vec<Mirror>,
    set_size: usize,
    problems: &mut Vec<String>,
) {
    let mut printed: Vec<Mirror> = Vec::new();
    for line in exit.stdout.lines() {
        let fields = line_fields(line);
        if fields.get("status") != Some(&"ok") {
            problems.push(format!("daemon line without status=ok: {line}"));
            continue;
        }
        let num = |k: &str| {
            fields
                .get(k)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        };
        if num("peer_set_size") != set_size as u64 {
            problems.push(format!(
                "daemon learned peer_set_size {} (expected {set_size})",
                num("peer_set_size")
            ));
        }
        printed.push((
            fields.get("protocol").copied().unwrap_or("?").to_string(),
            num("bytes_sent"),
            num("bytes_received"),
        ));
    }
    printed.sort();
    expected.sort();
    if printed != expected {
        problems.push(format!(
            "daemon session lines do not mirror the clients' byte counts ({} lines, {} sessions)",
            printed.len(),
            expected.len()
        ));
    }
    if exit.code != Some(0) {
        problems.push(format!("daemon exit code {:?}", exit.code));
    }
    if !exit.stderr.contains("daemon drained") {
        problems.push("daemon never reported \"daemon drained\"".to_string());
    }
}

/// The spill half of the gate: a sharded-spill workload must really have
/// spilled on the daemon, an unsharded one must not have.
fn check_spill(w: &Workload, snapshot: &Value, problems: &mut Vec<String>) {
    let runs = counter(snapshot, "shard/spill_done/runs_spilled");
    let phases = counter(snapshot, "shard/spill_done/events");
    if w.mem_budget.is_some() && (phases == 0.0 || runs == 0.0) {
        problems.push(format!(
            "daemon STATS shows shard/spill_done events={phases} runs={runs}; expected disk runs"
        ));
    }
    if w.shards <= 1 && phases != 0.0 {
        problems.push("unsharded workload reported spill phases".to_string());
    }
}

/// Waits for the daemon to drain, checks what it printed, and makes sure
/// the run left nothing behind that it did not name.
fn finish_daemon(
    daemon: Daemon,
    scratch: &Scratch,
    expected: Vec<Mirror>,
    w: &Workload,
    problems: &mut Vec<String>,
) {
    match daemon.wait_exit(DRAIN_TIMEOUT) {
        Ok(exit) => check_daemon(&exit, expected, w.set_size, problems),
        Err(e) => problems.push(e),
    }
    for name in scratch.leftovers() {
        problems.push(format!("leftover file {name}"));
    }
}

/// The successful sessions' latencies, one stratum per protocol of the
/// workload's cycle (see `mean_over_strata`).
fn latencies_by_protocol(w: &Workload, pass: &Pass) -> Vec<Vec<f64>> {
    w.cycle
        .iter()
        .map(|&p| {
            pass.ok()
                .filter(|o| o.protocol == p)
                .map(Outcome::latency_s)
                .collect()
        })
        .collect()
}

/// Runs the configured workload once.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let clients = cfg.workload.clients.min(cores).max(1);
    let mut scratch = Scratch::create(&cfg.out_dir, &cfg.workload)?;
    if cfg.trace {
        run_traced(cfg, &mut scratch, clients, cores)
    } else {
        run_timed(cfg, &mut scratch, clients)
    }
}

/// Trace off: warm-up pass, timed pass, end-to-end metrics.
fn run_timed(cfg: &RunConfig, scratch: &mut Scratch, clients: usize) -> Result<RunReport, String> {
    let w = &cfg.workload;
    let cycles = if cfg.smoke {
        2
    } else {
        w.timed_cycles(cfg.seconds)
    };
    let sessions = clients * w.cycle.len() * (1 + cycles);

    // Set up several times; the last daemon is the one measured.
    let setups = if cfg.smoke { SMOKE_SETUPS } else { SETUPS };
    let mut setup_samples = Vec::with_capacity(setups);
    let mut rig = None;
    for i in 0..setups {
        drop(rig.take());
        let r = set_up(cfg, scratch, i, clients, sessions)?;
        setup_samples.push(r.setup_s);
        rig = Some(r);
    }
    let rig = rig.expect("at least one set-up");

    let group = QrGroup::well_known(GROUP_BITS).map_err(|e| e.to_string())?;
    let inputs = client_inputs(&rig.inputs);
    let env = ClientEnv {
        addr: &rig.daemon.addr,
        group: &group,
        workload: w,
        dir: &scratch.dir,
        seed: cfg.seed,
    };

    // Warm-up: one cycle per client fills the page cache, the pool's
    // cost estimates and the allocator before anything is timed.
    let warm = run_pass(&env, &inputs, 1, 0, None, None);
    // Read here, not after the last session: a fresh daemon's first cycle
    // peaks reproducibly, while back-to-back sessions overlap the old
    // connection's threads with the new one's and add a bimodal ±1.5 MiB
    // (malloc arenas, stacks) that no bound under 25 % survives.
    let peak_rss_mib = rig.daemon.peak_rss_mib();

    let (daemon_cpu0, self_cpu0) = (rig.daemon.cpu_s(), self_cpu_s());
    let steal0 = daemon::host_steal_s();
    let (timed, reading) = run_last_pass(&env, &inputs, cycles, 1, None, &rig.daemon, sessions);

    let steal_s = daemon::host_steal_s()
        .zip(steal0)
        .map(|(after, before)| after - before);

    let mut problems = Vec::new();
    let (attempted, failed) = count_failures(&[&warm, &timed], &mut problems);
    match &reading.snapshot {
        Some(Ok(snapshot)) => check_spill(w, snapshot, &mut problems),
        Some(Err(e)) => problems.push(format!("final STATS: {e}")),
        None => problems.push("the final reading never ran".to_string()),
    }
    let expected = warm.ok().chain(timed.ok()).map(mirror).collect();
    finish_daemon(rig.daemon, scratch, expected, w, &mut problems);

    // Metrics over the successful timed sessions.
    let ok: Vec<&Outcome> = timed.ok().collect();
    let latencies: Vec<f64> = ok.iter().map(|o| o.latency_s()).collect();
    let by_protocol = latencies_by_protocol(w, &timed);
    let fewest = by_protocol.iter().map(Vec::len).min().unwrap_or(0);
    let values = (ok.len() * 2 * w.set_size) as f64;
    let wire: u64 = ok
        .iter()
        .map(|o| o.traffic.bytes_sent + o.traffic.bytes_received)
        .sum();
    let cpu_s = (reading.daemon_cpu_s - daemon_cpu0) + (reading.self_cpu_s - self_cpu0);
    let value_of = |name: &str| match name {
        "values_per_s" => values / timed.wall_s,
        "session_p50_s" => mean_over_strata(&by_protocol, median),
        "session_p90_s" => mean_over_strata(&by_protocol, |s| tail_or_median(s, 90.0)),
        "cpu_s_per_kvalue" => cpu_s / (values / 1000.0),
        "daemon_peak_rss_mib" => peak_rss_mib,
        "wire_bytes_per_value" => wire as f64 / values,
        "setup_s" => median(&setup_samples),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value_of(m.name),
        })
        .collect();
    for m in &metrics {
        if !m.value.is_finite() || m.value <= 0.0 {
            problems.push(format!("{} measured as {}", m.name, m.value));
        }
    }

    let mut details = Value::object();
    details.push("clients", clients);
    details.push("timed_sessions", latencies.len());
    details.push("timed_wall_s", timed.wall_s);
    details.push("latency_samples", latencies.len());
    details.push("latency_samples_per_protocol", fewest);
    details.push("samples_beyond_p90", samples_beyond(fewest, 90.0));
    details.push("setup_samples", setup_samples.len());
    details.push("daemon_final_rss_mib", reading.peak_rss_mib);
    details.push(
        "setup_samples_s",
        setup_samples
            .iter()
            .map(|&s| Value::Num(s))
            .collect::<Vec<_>>(),
    );
    details.push("values_per_session", 2 * w.set_size);
    // What the hypervisor took from this VM during the timed pass (plus
    // the final STATS poll): tells a noisy host from a slow program.
    if let Some(steal_s) = steal_s {
        details.push("host_steal_s", steal_s);
    }
    details.push(
        "session_latencies_s",
        latencies.iter().map(|&s| Value::Num(s)).collect::<Vec<_>>(),
    );
    Ok(RunReport {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        problems,
        details,
    })
}

/// One session through the real `minshare client` binary, checked like
/// any other; returns its wall time and the daemon-side mirror tuple.
fn cli_client_session(
    cfg: &RunConfig,
    scratch: &mut Scratch,
    addr: &str,
    values: &Path,
    truth: &Truth,
) -> Result<(f64, Mirror), String> {
    let w = &cfg.workload;
    let protocol = w.cycle[0];
    let (out_path, err_path) = (scratch.path("client.out"), scratch.path("client.err"));
    let create = |p: &Path| {
        std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
    };
    let mut cmd = Command::new(&cfg.minshare);
    cmd.arg("client")
        .args(["--connect", addr])
        .args(["--protocol", protocol.name()])
        .arg("--values")
        .arg(values)
        .args(["--group-bits", &GROUP_BITS.to_string()])
        .args(["--record-len", &w.record_len.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--shards", &w.shards.to_string()])
        .arg("--spill-dir")
        .arg(daemon::spill_dir(&scratch.dir));
    if let Some(budget) = w.mem_budget {
        cmd.args(["--mem-budget", &budget.to_string()]);
    }
    cmd.stdin(Stdio::null())
        .stdout(create(&out_path)?)
        .stderr(create(&err_path)?);
    let started = Instant::now();
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run minshare client: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !status.success() {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        return Err(format!("minshare client exited {status}: {stderr}"));
    }

    let stdout = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let summary = lines.pop().unwrap_or_default();
    let fields = line_fields(summary);
    let num = |k: &str| fields.get(k).and_then(|v| v.parse::<u64>().ok());
    let (Some(sent), Some(received), Some(&"ok")) = (
        num("bytes_sent"),
        num("bytes_received"),
        fields.get("status"),
    ) else {
        return Err(format!(
            "minshare client summary line unreadable: {summary:?}"
        ));
    };
    lines.sort_unstable();
    let right = match protocol {
        ProtocolKind::Intersection => {
            lines
                == truth
                    .intersection()
                    .iter()
                    .map(|v| String::from_utf8_lossy(v).into_owned())
                    .collect::<Vec<_>>()
        }
        ProtocolKind::Equijoin => {
            let expected: Vec<String> = truth
                .matches
                .iter()
                .map(|(v, p)| {
                    format!(
                        "{}\t{}",
                        String::from_utf8_lossy(v),
                        String::from_utf8_lossy(p)
                    )
                })
                .collect();
            lines == expected
        }
        ProtocolKind::IntersectionSize | ProtocolKind::EquijoinSize => {
            lines == [truth.matches.len().to_string()]
        }
    };
    if !right {
        return Err(format!(
            "minshare client printed a wrong {} answer",
            protocol.name()
        ));
    }
    Ok((wall_s, (protocol.name().to_string(), received, sent)))
}

fn section6_protocol(kind: ProtocolKind) -> Protocol {
    match kind {
        ProtocolKind::Intersection => Protocol::Intersection,
        ProtocolKind::Equijoin => Protocol::Equijoin,
        ProtocolKind::IntersectionSize => Protocol::IntersectionSize,
        ProtocolKind::EquijoinSize => Protocol::EquijoinSize,
    }
}

/// Trace on: one session through the real client binary (which is also
/// the warm-up), an untraced and a traced pass of equal size against the
/// same daemon, then the layer replays and the CPU budget.
fn run_traced(
    cfg: &RunConfig,
    scratch: &mut Scratch,
    clients: usize,
    cores: usize,
) -> Result<RunReport, String> {
    let w = &cfg.workload;
    let cycles = w.traced_cycles;
    let per_pass = clients * w.cycle.len() * cycles;
    let sessions = 1 + 2 * per_pass;
    let Rig {
        inputs: raw_inputs,
        receiver_files,
        daemon,
        ..
    } = set_up(cfg, scratch, 0, clients, sessions)?;
    let daemon_start_s = daemon.start_s;

    let group = QrGroup::well_known(GROUP_BITS).map_err(|e| e.to_string())?;
    let inputs = client_inputs(&raw_inputs);
    let addr = daemon.addr.clone();
    let dir = scratch.dir.clone();
    let env = ClientEnv {
        addr: &addr,
        group: &group,
        workload: w,
        dir: &dir,
        seed: cfg.seed,
    };
    let log = Tracefile::new();
    let mut problems = Vec::new();

    let cli = log.time("cli.client_process_s", "cli", || {
        cli_client_session(cfg, scratch, &addr, &receiver_files[0], &inputs[0].truth)
    });
    let (client_process_s, cli_mirror) = match cli {
        Ok((wall_s, mirror)) => (wall_s, Some(mirror)),
        Err(e) => {
            problems.push(e);
            (f64::NAN, None)
        }
    };

    let first_session_rss_mib = daemon.peak_rss_mib();
    let before = daemon.stats()?;
    let (daemon_cpu0, self_cpu0) = (daemon.cpu_s(), self_cpu_s());
    let untraced = run_pass(&env, &inputs, cycles, 1, None, None);

    let tracing = Tracing {
        tracefile: &log,
        registry: Arc::new(MetricsRegistry::new()),
    };
    let (traced, reading) =
        run_last_pass(&env, &inputs, cycles, 2, Some(&tracing), &daemon, sessions);

    let (attempted, failed) = count_failures(&[&untraced, &traced], &mut problems);
    let (attempted, failed) = (attempted + 1, failed + u64::from(cli_mirror.is_none()));
    let after = match reading.snapshot {
        Some(Ok(snapshot)) => snapshot,
        Some(Err(e)) => return Err(format!("final STATS: {e}")),
        None => return Err("the final reading never ran".to_string()),
    };
    check_spill(w, &after, &mut problems);

    // The real client binary and the in-process client ran the same
    // protocol on the same set: their byte counts must agree.
    let same = untraced.ok().find(|o| o.protocol == w.cycle[0]);
    if let (Some(cli), Some(same)) = (&cli_mirror, same) {
        if *cli != mirror(same) {
            problems.push(format!(
                "minshare client moved {cli:?}, the in-process client {:?}",
                mirror(same)
            ));
        }
    }
    let expected: Vec<Mirror> = untraced
        .ok()
        .chain(traced.ok())
        .map(mirror)
        .chain(cli_mirror)
        .collect();
    finish_daemon(daemon, scratch, expected, w, &mut problems);

    // Replays run after the daemon is gone, so they measure an idle host.
    let replay = replay_all(
        &ReplayEnv {
            group: &group,
            workload: w,
            inputs: &raw_inputs,
            dir: &dir,
            seed: cfg.seed,
            smoke: cfg.smoke,
        },
        &log,
    )?;
    for name in scratch.leftovers() {
        problems.push(format!("leftover file after replays: {name}"));
    }
    let trace_path = cfg.out_dir.join(format!("trace-{}.json", w.name));
    log.write(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    // Per-session figures over both passes (2 × per_pass sessions).
    let both: Vec<&Outcome> = untraced.ok().chain(traced.ok()).collect();
    let n = both.len().max(1) as f64;
    let delta = |key: &str| counter(&after, key) - counter(&before, key);
    let delta_sum = |suffix: &str| counter_sum(&after, suffix) - counter_sum(&before, suffix);
    let client_ops = both
        .iter()
        .fold(OpCounters::default(), |acc, o| acc + o.ops);
    // The daemon's ops come from its STATS ops events between the two
    // scrapes, which bracket exactly the two passes.
    let daemon_ce = delta_sum("/sender_done/encryptions") + delta_sum("/sender_done/decryptions");
    let ce_ops = (client_ops.total_ce() as f64 + daemon_ce) / n;
    let hash_ops = (client_ops.hashes as f64 + delta_sum("/sender_done/hashes")) / n;
    let ck_ops = (client_ops.total_ck() as f64
        + delta_sum("/sender_done/payload_encryptions")
        + delta_sum("/sender_done/payload_decryptions"))
        / n;
    let registry = &tracing.registry;
    let client_spill = |field: &str| registry.counter("shard", "spill_done", field) as f64;
    // The daemon spilled in both passes, the client threads only fed the
    // registry in the traced one.
    let traced_n = traced.ok().count().max(1) as f64;
    let spill_of = |field: &str| {
        delta(&format!("shard/spill_done/{field}")) / n + client_spill(field) / traced_n
    };
    let wire_bytes: u64 = both
        .iter()
        .map(|o| o.traffic.bytes_sent + o.traffic.bytes_received)
        .sum();
    let cipher = HybridCipher::new(group.clone(), w.record_len);
    let payload_bytes =
        delta_sum("/sender_done/payload_encryptions") * (4 + cipher.ciphertext_len()) as f64;
    let decoded_codewords = (wire_bytes as f64 - payload_bytes) / group.codeword_bytes() as f64 / n;

    let cpu_s = (reading.daemon_cpu_s - daemon_cpu0) + (reading.self_cpu_s - self_cpu0);
    let cpu_per_session = cpu_s / n;
    let r = |name: &str| replay.get(name).copied().unwrap_or(f64::NAN);
    let share = |ops: f64, unit_us: f64| ops * unit_us * 1e-6 / cpu_per_session;
    let ce_share = share(ce_ops, r("bignum.modexp_us"));
    let decode_share = share(decoded_codewords, r("core.wire_decode_us_per_codeword"));
    let hash_share = share(hash_ops, r("crypto.hash_to_group_us"));
    let spill_share = share(spill_of("records"), r("core.spill_us_per_record"));
    let kcipher_share = share(ck_ops, r("crypto.kcipher_us_per_record"));

    let session_p50 = |p: &Pass| mean_over_strata(&latencies_by_protocol(w, p), median);
    let untraced_p50 = session_p50(&untraced);
    let span_p50 = |i: usize| median(&traced.ok().map(|o| o.spans_s[i]).collect::<Vec<_>>());
    let (daemon_sessions, daemon_ns) = {
        let (c1, s1) = histogram_totals(&after, "protocol/", "/duration_ns");
        let (c0, s0) = histogram_totals(&before, "protocol/", "/duration_ns");
        (c1 - c0, s1 - s0)
    };

    // §6.1 with this host's Ce, Ch and loopback bandwidth, averaged over
    // the workload's protocol cycle.
    let consts = CostConstants {
        ce_seconds: r("bignum.modexp_us") * 1e-6,
        bandwidth_bps: r("net.tcp_mib_per_s") * 8.0 * 1024.0 * 1024.0,
        parallelism: cores as f64,
        k_bits: GROUP_BITS,
        k_prime_bits: 8 * cipher.ciphertext_len() as u64,
        ..CostConstants::paper()
    };
    let size = w.set_size as u64;
    let predicted: f64 = w
        .cycle
        .iter()
        .map(|&kind| {
            let protocol = section6_protocol(kind);
            let e = estimate(protocol, size, size, &consts);
            let hashing =
                protocol.hash_ops(size, size) as f64 * r("crypto.hash_to_group_us") * 1e-6;
            e.compute_seconds + hashing / consts.parallelism + e.transfer_seconds
        })
        .sum::<f64>()
        / w.cycle.len() as f64;

    // STATS scrapes emit events of their own; they are not the sessions'.
    let events = delta_sum("/events") - delta("server/stats_served/events");
    let value_of = |name: &str| match name {
        "core.spill_runs" => spill_of("runs_spilled"),
        "core.spill_bytes" => spill_of("bytes_spilled"),
        "core.ce_ops" => ce_ops,
        "core.hash_ops" => hash_ops,
        "trace.events_per_session" => events / n,
        "cli.daemon_start_s" => daemon_start_s,
        "cli.client_process_s" => client_process_s,
        "session.connect_us" => span_p50(0) * 1e6,
        "session.open_us" => span_p50(1) * 1e6,
        "session.protocol_s" => span_p50(2),
        "session.close_us" => span_p50(3) * 1e6,
        "daemon.session_s" => daemon_ns * 1e-9 / daemon_sessions,
        "daemon.rss_growth_mib" => reading.peak_rss_mib - first_session_rss_mib,
        "costmodel.predicted_session_s" => predicted,
        "costmodel.wall_over_predicted" => untraced_p50 / predicted,
        "budget.ce_cpu_share" => ce_share,
        "budget.decode_cpu_share" => decode_share,
        "budget.hash_cpu_share" => hash_share,
        "budget.spill_cpu_share" => spill_share,
        "budget.kcipher_cpu_share" => kcipher_share,
        "budget.residual_cpu_share" => {
            1.0 - (ce_share + decode_share + hash_share + spill_share + kcipher_share)
        }
        "budget.cpu_over_wall" => cpu_s / (untraced.wall_s + traced.wall_s),
        "bench.tracing_overhead_ratio" => session_p50(&traced) / untraced_p50,
        replayed => r(replayed),
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value_of(m.name),
        })
        .collect();
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} could not be measured", m.name));
        }
    }

    let mut details = Value::object();
    details.push("clients", clients);
    details.push("sessions_per_pass", per_pass);
    details.push("span_samples", traced.all().count());
    details.push(
        "span_names",
        SPAN_NAMES
            .iter()
            .map(|&s| Value::from(s))
            .collect::<Vec<_>>(),
    );
    // What the harness itself adds to a session: the session span's self
    // time, i.e. whatever its four children do not cover.
    let harness_us: Vec<f64> = log
        .self_times_us()
        .into_iter()
        .filter(|(span, _)| span.name == "session")
        .map(|(_, self_us)| self_us)
        .collect();
    details.push(
        "session_span_self_time_us_p50",
        percentile(&harness_us, 50.0),
    );
    details.push("cpu_s_per_session", cpu_per_session);
    details.push("decoded_codewords_per_session", decoded_codewords);
    details.push("spill_records_per_session", spill_of("records"));
    details.push("ck_ops_per_session", ck_ops);
    details.push("trace_file", trace_path.to_string_lossy().into_owned());
    Ok(RunReport {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        problems,
        details,
    })
}
