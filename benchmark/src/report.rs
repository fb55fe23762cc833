//! Output: the driver's result line, the human-readable table, result
//! files with their environment block, and the `--repeat` / `--compare`
//! arithmetic over sets of runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_crypto::QrGroup;

use crate::json::{self, Value};
use crate::run::{RunConfig, RunReport};
use crate::spec::{END_TO_END, GROUP_BITS, WORKLOADS};
use crate::stats::{compare, median, min_max, spread, worsening, Verdict};

/// `{name: {"value": v, "unit": u}}`, in report order.
fn metrics_json(report: &RunReport) -> Value {
    let mut metrics = Value::object();
    for m in &report.metrics {
        let mut entry = Value::object();
        entry.push("value", m.value);
        entry.push("unit", m.unit);
        metrics.push(m.name, entry);
    }
    metrics
}

/// The last line of a run's standard output, exactly as the driver's
/// contract prescribes it.
pub fn result_line(report: &RunReport) -> String {
    let mut line = Value::object();
    line.push("correct", report.correct);
    line.push("attempted", report.attempted);
    line.push("failed", report.failed);
    line.push("metrics", metrics_json(report));
    line.to_compact()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken, so a flat pool curve reads
/// as hardware and not as a regression.
pub fn environment(seed: u64) -> Value {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cgroup = read("/sys/fs/cgroup/cpu.max")
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string());
    let simd = QrGroup::well_known(GROUP_BITS)
        .ok()
        .and_then(|g| MontgomeryCtx::new(g.modulus()).ok())
        .is_some_and(|ctx| ctx.simd_active());
    let mut env = Value::object();
    env.push(
        "nproc",
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    env.push("cpu_model", cpu_model);
    env.push("cgroup_cpu_max", cgroup);
    env.push("bignum.simd_active", simd);
    env.push(
        "rustc",
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
    );
    env.push(
        "git_commit",
        command_line("git", &["rev-parse", "--short", "HEAD"])
            .unwrap_or_else(|| "unknown".to_string()),
    );
    env.push("seed", seed);
    env.push("group_bits", GROUP_BITS);
    env.push("network", "loopback");
    env
}

/// Every metric by name with its unit, plus the gate's verdict.
pub fn print_table(cfg: &RunConfig, report: &RunReport) {
    let w = &cfg.workload;
    println!(
        "workload {} (|V_S|=|V_R|={}, {}-bit group, seed {}, {}) — traffic crosses the host loopback",
        w.name,
        w.set_size,
        GROUP_BITS,
        cfg.seed,
        if cfg.trace { "traced run + layer replays" } else { "tracing off" },
    );
    for m in &report.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (key, value) in report.details.members() {
        if let Some(n) = value.as_f64() {
            println!("  ({key} = {n})");
        }
    }
    println!(
        "  sessions: {} attempted, {} failed; correctness gate: {}",
        report.attempted,
        report.failed,
        if report.correct { "passed" } else { "FAILED" }
    );
    for p in &report.problems {
        println!("  problem: {p}");
    }
}

/// Writes `out/result-<workload>-seed<seed>-trace<0|1>[-smoke].json`.
pub fn write_result_file(cfg: &RunConfig, report: &RunReport) -> std::io::Result<PathBuf> {
    let mut doc = Value::object();
    doc.push("workload", cfg.workload.name);
    doc.push("why", cfg.workload.why);
    doc.push("trace", cfg.trace);
    doc.push("smoke", cfg.smoke);
    doc.push("seconds", cfg.seconds);
    doc.push("environment", environment(cfg.seed));
    doc.push("correct", report.correct);
    doc.push("attempted", report.attempted);
    doc.push("failed", report.failed);
    doc.push(
        "problems",
        report
            .problems
            .iter()
            .map(|p| Value::from(p.as_str()))
            .collect::<Vec<_>>(),
    );
    doc.push("details", report.details.clone());
    doc.push("metrics", metrics_json(report));
    let path = cfg.out_dir.join(format!(
        "result-{}-seed{}-trace{}{}.json",
        cfg.workload.name,
        cfg.seed,
        u8::from(cfg.trace),
        if cfg.smoke { "-smoke" } else { "" }
    ));
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

/// `workload → metric → one value per run`.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Folds one run's result line into a set.
pub fn add_run(set: &mut RunSet, workload: &str, line: &Value) {
    let metrics = line.get("metrics").map_or(&[][..], Value::members);
    for (name, entry) in metrics {
        if let Some(v) = entry.get("value").and_then(Value::as_f64) {
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
}

/// A run set as a `--repeat` file.
pub fn run_set_to_json(set: &RunSet, seed: u64, seconds: u64) -> Value {
    let mut workloads = Value::object();
    for (workload, metrics) in set {
        let mut m = Value::object();
        for (name, values) in metrics {
            m.push(
                name,
                values.iter().map(|&v| Value::Num(v)).collect::<Vec<_>>(),
            );
        }
        workloads.push(workload, m);
    }
    let mut doc = Value::object();
    doc.push("environment", environment(seed));
    doc.push("seconds", seconds);
    doc.push("workloads", workloads);
    doc
}

/// Reads either a `--repeat` file or a single result file.
pub fn load_run_set(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    if let Some(workloads) = doc.get("workloads") {
        for (workload, metrics) in workloads.members() {
            for (name, values) in metrics.members() {
                let values: Vec<f64> = values.elements().iter().filter_map(Value::as_f64).collect();
                set.entry(workload.clone())
                    .or_default()
                    .insert(name.clone(), values);
            }
        }
    } else if let Some(workload) = doc.get("workload").and_then(Value::as_str) {
        add_run(&mut set, workload, &doc);
    } else {
        return Err(format!(
            "{}: neither a --repeat file nor a result file",
            path.display()
        ));
    }
    Ok(set)
}

/// Prints per-metric min / median / max and spread against the bound for
/// a set of runs; returns how many spreads exceed their bound (`setup_s`
/// exempt, as in the driver's check).
pub fn print_run_set(set: &RunSet) -> usize {
    let mut over = 0;
    for w in WORKLOADS {
        let Some(metrics) = set.get(w.name) else {
            continue;
        };
        println!("{}", w.name);
        println!(
            "  {:<24} {:>14} {:>14} {:>14} {:>9} {:>7}",
            "metric", "min", "median", "max", "spread", "bound"
        );
        for m in END_TO_END {
            let Some(values) = metrics.get(m.name) else {
                continue;
            };
            let (lo, hi) = min_max(values);
            let s = spread(values);
            let flag = match s {
                Some(s) if s > m.bound && m.name != "setup_s" => {
                    over += 1;
                    "  spread exceeds bound"
                }
                Some(s) if s > m.bound / 3.0 && m.name != "setup_s" => "  spread above bound/3",
                _ => "",
            };
            println!(
                "  {:<24} {:>14.6} {:>14.6} {:>14.6} {:>8.2}% {:>6.2}%{}",
                m.name,
                lo,
                median(values),
                hi,
                s.unwrap_or(f64::NAN) * 100.0,
                m.bound * 100.0,
                flag
            );
        }
    }
    over
}

/// Applies every end-to-end metric's bound to `candidate` against `base`;
/// prints one row per workload × metric and returns the regressions and
/// the unresolved pairs.
pub fn print_comparison(base: &RunSet, candidate: &RunSet) -> (usize, usize) {
    let (mut regressions, mut unresolved) = (0, 0);
    for w in WORKLOADS {
        let (Some(b), Some(c)) = (base.get(w.name), candidate.get(w.name)) else {
            continue;
        };
        println!("{}", w.name);
        println!(
            "  {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "base median", "cand median", "worse by", "bound"
        );
        for m in END_TO_END {
            let (Some(bv), Some(cv)) = (b.get(m.name), c.get(m.name)) else {
                continue;
            };
            let verdict = compare(bv, cv, m.better, m.bound);
            let word = match verdict {
                Verdict::Within => "within bound",
                Verdict::Regression => {
                    regressions += 1;
                    "REGRESSION"
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    "unresolved (spread exceeds bound)"
                }
            };
            println!(
                "  {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>6.2}%  {}",
                m.name,
                median(bv),
                median(cv),
                worsening(median(bv), median(cv), m.better) * 100.0,
                m.bound * 100.0,
                word
            );
        }
    }
    (regressions, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;

    fn report() -> RunReport {
        RunReport {
            correct: true,
            attempted: 6,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "session_p50_s",
                    unit: "s",
                    value: 3.7012345678912345,
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.0421,
                },
            ],
            problems: Vec::new(),
            details: Value::object(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&report());
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(6.0));
        let p50 = doc.get("metrics").unwrap().get("session_p50_s").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(3.7012345678912345));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("s"));
        // Every digit f64 carries is on the line (shortest round-trip form).
        assert!(line.contains("3.7012345678912344"), "{line}");
    }

    #[test]
    fn run_sets_round_trip_and_single_results_load_as_one_run() {
        let mut set = RunSet::new();
        for _ in 0..3 {
            add_run(
                &mut set,
                "small_mixed",
                &json::parse(&result_line(&report())).unwrap(),
            );
        }
        assert_eq!(set["small_mixed"]["setup_s"], vec![0.0421; 3]);

        let dir =
            std::env::temp_dir().join(format!("minshare-benchmark-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let repeat = dir.join("repeat.json");
        std::fs::write(&repeat, run_set_to_json(&set, 1, 20).to_pretty()).unwrap();
        assert_eq!(load_run_set(&repeat).unwrap(), set);

        let mut single = json::parse(&result_line(&report())).unwrap();
        single.push("workload", "small_mixed");
        let result = dir.join("result.json");
        std::fs::write(&result, single.to_pretty()).unwrap();
        assert_eq!(
            load_run_set(&result).unwrap()["small_mixed"]["session_p50_s"].len(),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn comparison_counts_regressions_and_unresolved_pairs() {
        let set = |p50: &[f64]| {
            let mut s = RunSet::new();
            s.entry("bulk_intersection".to_string())
                .or_default()
                .insert("session_p50_s".to_string(), p50.to_vec());
            s
        };
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "session_p50_s")
            .unwrap()
            .bound;
        let scaled = |values: &[f64], by: f64| values.iter().map(|v| v * by).collect::<Vec<_>>();
        let steady = [3.70, 3.72, 3.69];
        let base = set(&steady);
        assert_eq!(
            print_comparison(&base, &set(&scaled(&steady, 1.0 + bound / 2.0))),
            (0, 0)
        );
        assert_eq!(
            print_comparison(&base, &set(&scaled(&steady, 1.0 + bound * 1.5))),
            (1, 0)
        );
        // A base spread of several bounds: same median, but unresolved.
        let wide = 3.0 * bound;
        let noisy = [
            1.0 - wide,
            1.0 + wide,
            1.0,
            1.0 - wide / 2.0,
            1.0 + wide / 2.0,
        ];
        assert_eq!(
            print_comparison(&set(&noisy), &set(&[1.0, 1.0, 1.0])),
            (0, 1)
        );
        assert_eq!(print_run_set(&set(&noisy)), 1);
    }
}
