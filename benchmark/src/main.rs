//! Command line of the repo benchmark; `run.sh` builds and calls it.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! run.sh --smoke                  every workload, both trace modes, |V|=16
//! run.sh --all [--seed N]         one full set: every workload, timed then traced
//! run.sh --repeat K [--workload W] [--seed N] [--vary-seed] [--label L]
//! run.sh --compare BASE.json CANDIDATE.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use minshare_benchmark::json;
use minshare_benchmark::report::{
    add_run, load_run_set, print_comparison, print_run_set, print_table, result_line,
    run_set_to_json, write_result_file, RunSet,
};
use minshare_benchmark::run::{run, RunConfig};
use minshare_benchmark::spec::{workload, Workload, DEFAULT_SECONDS, WORKLOADS};

#[derive(Default)]
struct Args {
    minshare: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    all: bool,
    repeat: Option<usize>,
    vary_seed: bool,
    label: Option<String>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--minshare" => args.minshare = Some(value("--minshare")?.into()),
            "--out" => args.out_dir = Some(value("--out")?.into()),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                args.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--repeat" => {
                args.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--vary-seed" => args.vary_seed = true,
            "--label" => args.label = Some(value("--label")?),
            "--compare" => {
                args.compare = Some((value("--compare")?.into(), value("--compare")?.into()))
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

fn named_workload(name: &str) -> Result<Workload, String> {
    workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })
}

/// Runs one configuration, prints the table and, last, the result line.
/// `Ok(correct)`.
fn run_and_print(cfg: &RunConfig) -> Result<bool, String> {
    let report = run(cfg)?;
    print_table(cfg, &report);
    let path =
        write_result_file(cfg, &report).map_err(|e| format!("writing the result file: {e}"))?;
    println!("  result file: {}", path.display());
    println!("{}", result_line(&report));
    Ok(report.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("minshare-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some((base, candidate)) = &args.compare {
        let (regressions, unresolved) =
            print_comparison(&load_run_set(base)?, &load_run_set(candidate)?);
        println!("{regressions} regression(s), {unresolved} unresolved");
        return Ok(if regressions == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let minshare = args
        .minshare
        .clone()
        .ok_or("--minshare PATH is required (run.sh passes it)")?;
    let out_dir = args
        .out_dir
        .clone()
        .ok_or("--out DIR is required (run.sh passes it)")?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let config = |w: Workload, seed: u64, trace: bool| RunConfig {
        workload: if args.smoke { w.smoke() } else { w },
        seed,
        seconds,
        trace,
        smoke: args.smoke,
        out_dir: out_dir.clone(),
        minshare: minshare.clone(),
    };

    if let Some(runs) = args.repeat {
        return repeat(&args, &minshare, &out_dir, runs, seed, seconds);
    }
    if let Some(name) = &args.workload {
        // The driver's form. A run that fails its gate still prints its
        // result line (`correct: false`) and exits 0; only a run that
        // could not be made at all exits non-zero without one.
        let trace = args
            .trace
            .ok_or("--trace 0|1 is required with --workload")?;
        run_and_print(&config(named_workload(name)?, seed, trace))?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.smoke || args.all {
        let mut all_correct = true;
        for trace in [false, true] {
            for w in WORKLOADS {
                all_correct &= run_and_print(&config(w, seed, trace))?;
            }
        }
        return Ok(if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    Err("nothing to do: give --workload, --smoke, --all, --repeat or --compare".to_string())
}

/// `--repeat K`: K fresh process launches per workload (trace off), then
/// min / median / max and spread against each metric's bound, written to
/// `out/repeat-<label>.json` for `--compare`.
fn repeat(
    args: &Args,
    minshare: &Path,
    out_dir: &Path,
    runs: usize,
    seed: u64,
    seconds: u64,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads: Vec<Workload> = match &args.workload {
        Some(name) => vec![named_workload(name)?],
        None => WORKLOADS.to_vec(),
    };
    let mut set = RunSet::new();
    let mut all_correct = true;
    for w in &workloads {
        for i in 0..runs {
            let run_seed = if args.vary_seed {
                seed + i as u64
            } else {
                seed
            };
            let mut cmd = Command::new(&exe);
            cmd.arg("--minshare")
                .arg(minshare)
                .arg("--out")
                .arg(out_dir);
            cmd.args(["--workload", w.name, "--trace", "0"]);
            cmd.args([
                "--seed",
                &run_seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot launch run {i} of {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let line = json::parse(last)
                .map_err(|e| format!("run {i} of {} printed no result line: {e}", w.name))?;
            let correct = line.get("correct").and_then(json::Value::as_bool) == Some(true);
            println!(
                "{} run {}/{} seed {run_seed}: {}",
                w.name,
                i + 1,
                runs,
                if correct { "correct" } else { "INCORRECT" }
            );
            all_correct &= correct;
            add_run(&mut set, w.name, &line);
        }
    }
    let over = print_run_set(&set);
    let label = args.label.clone().unwrap_or_else(|| "latest".to_string());
    let path = out_dir.join(format!("repeat-{label}.json"));
    std::fs::write(&path, run_set_to_json(&set, seed, seconds).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{over} spread(s) exceed their bound; run set written to {}",
        path.display()
    );
    Ok(if all_correct && over == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
