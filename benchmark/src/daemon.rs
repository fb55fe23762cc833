//! The system under test as a child process: spawning the real
//! `minshare serve`, reading its resource use from procfs, scraping its
//! STATS endpoint, and making sure it never outlives the benchmark.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use minshare_net::tcp::TcpTransport;
use minshare_net::{MuxClient, MuxConfig};

use crate::json::{self, Value};
use crate::spec::{Workload, GROUP_BITS};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`): 100
/// on every Linux ABI, and there is no libc here to ask `sysconf`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// How long the daemon may take to bind and write its port file.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `minshare serve`. Dropping it kills and reaps the child, so
/// every exit path of the benchmark — including panics and early
/// returns — leaves no daemon behind.
pub struct Daemon {
    child: Child,
    /// `127.0.0.1:<port>` as read from the port file.
    pub addr: String,
    stdout_path: PathBuf,
    stderr_path: PathBuf,
    /// Seconds from spawn until the port file held the port.
    pub start_s: f64,
}

/// What a daemon left behind once it exited by itself.
pub struct DaemonExit {
    /// Exit code (`None` if it died by signal).
    pub code: Option<i32>,
    /// Everything it printed to stdout (the per-session lines).
    pub stdout: String,
    /// Everything it printed to stderr.
    pub stderr: String,
}

impl Daemon {
    /// Spawns `minshare serve` for `w` on an ephemeral loopback port,
    /// serving `values`, shutting down after `sessions` session outcomes,
    /// with every file it touches (`tag`-prefixed logs, port file, spill
    /// runs) inside `dir`.
    pub fn spawn(
        minshare: &Path,
        dir: &Path,
        tag: &str,
        w: &Workload,
        values: &Path,
        sessions: usize,
    ) -> Result<Daemon, String> {
        let port_file = dir.join(format!("{tag}.port"));
        let stdout_path = dir.join(format!("{tag}.out"));
        let stderr_path = dir.join(format!("{tag}.err"));
        let create = |p: &Path| {
            std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
        };
        let mut cmd = Command::new(minshare);
        cmd.arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--values")
            .arg(values)
            .args(["--group-bits", &GROUP_BITS.to_string()])
            .args(["--record-len", &w.record_len.to_string()])
            .args(["--shutdown-after", &sessions.to_string()])
            .arg("--spill-dir")
            .arg(spill_dir(dir));
        if let Some(budget) = w.mem_budget {
            cmd.args(["--mem-budget", &budget.to_string()]);
        }
        cmd.stdin(Stdio::null())
            .stdout(create(&stdout_path)?)
            .stderr(create(&stderr_path)?);
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", minshare.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout_path,
            stderr_path,
            start_s: 0.0,
        };
        // The daemon writes "<port>\n" once it listens; poll for the
        // newline so a half-written file is never parsed.
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(port) = text.strip_suffix('\n') {
                    daemon.addr = format!("127.0.0.1:{port}");
                    break;
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                let stderr = std::fs::read_to_string(&daemon.stderr_path).unwrap_or_default();
                return Err(format!("daemon exited at start-up ({status}): {stderr}"));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("daemon never wrote its port file".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        daemon.start_s = started.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&port_file);
        Ok(daemon)
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system, all threads) the daemon has used.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s(&self.pid().to_string()).unwrap_or(f64::NAN)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(f64::NAN, |kib| kib / 1024.0)
    }

    /// One STATS snapshot over a fresh connection, parsed.
    pub fn stats(&self) -> Result<Value, String> {
        fetch_stats(&self.addr)
    }

    /// Polls STATS until the daemon has accounted for `sessions` finished
    /// sessions (a handler's telemetry tail lands a moment after the
    /// client sees its last frame), then returns that snapshot.
    pub fn stats_after(&self, sessions: usize) -> Result<Value, String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snapshot = self.stats()?;
            let done = counter(&snapshot, "service/session_done/events");
            if done >= sessions as f64 {
                return Ok(snapshot);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "daemon reports {done} finished sessions, expected {sessions}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Waits for the daemon to drain and exit on its own (it does once
    /// `--shutdown-after` outcomes are in) and returns what it printed.
    /// A daemon still running after `timeout` is killed and reported.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<DaemonExit, String> {
        let deadline = Instant::now() + timeout;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() > deadline => {
                    return Err(format!(
                        "daemon still running {}s after the last session; killed",
                        timeout.as_secs()
                    ));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        };
        let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
        Ok(DaemonExit {
            code: status.code(),
            stdout: read(&self.stdout_path),
            stderr: read(&self.stderr_path),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already-exited children make both calls no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The spill directory shared by the daemon and the (single) sharded
/// client of a run.
pub fn spill_dir(dir: &Path) -> PathBuf {
    dir.join("spill")
}

/// One STATS scrape: connect, fetch, close — what `minshare stats` does.
pub fn fetch_stats(addr: &str) -> Result<Value, String> {
    fetch_stats_then(addr, || ())
}

/// [`fetch_stats`], calling `answered` the moment the reply is in (before
/// the connection is closed).
pub fn fetch_stats_then(addr: &str, answered: impl FnOnce()) -> Result<Value, String> {
    let tcp = TcpTransport::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let mut client = MuxClient::new(tcp, MuxConfig::default());
    let raw = client
        .fetch_stats()
        .map_err(|e| format!("stats fetch: {e}"))?;
    answered();
    client.close().map_err(|e| format!("stats close: {e}"))?;
    json::parse(&String::from_utf8_lossy(&raw))
}

/// An unlabeled counter of a STATS snapshot (0 when absent).
pub fn counter(snapshot: &Value, key: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Sum of every unlabeled counter whose key ends in `suffix`.
pub fn counter_sum(snapshot: &Value, suffix: &str) -> f64 {
    snapshot
        .get("counters")
        .map_or(&[][..], Value::members)
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .filter_map(|(_, v)| v.as_f64())
        .sum()
}

/// `(count, sum)` over every unlabeled histogram whose key starts with
/// `prefix` and ends in `suffix`.
pub fn histogram_totals(snapshot: &Value, prefix: &str, suffix: &str) -> (f64, f64) {
    snapshot
        .get("histograms")
        .map_or(&[][..], Value::members)
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .fold((0.0, 0.0), |(count, sum), (_, h)| {
            let field = |name: &str| h.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            (count + field("count"), sum + field("sum"))
        })
}

/// CPU seconds of process `pid` (`"self"` works) from `/proc/<pid>/stat`:
/// utime + stime over all of its threads, living and exited.
pub fn process_cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu_s(&stat)
}

fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses;
    // everything after the *last* ')' is plain space-separated fields,
    // starting with field 3 (state). utime and stime are fields 14, 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// CPU seconds the hypervisor has run something else while this VM had
/// work to do (`steal`, field 8 of the `cpu` line of `/proc/stat`). Goes
/// into the result file next to the timings, so a slow run on the shared
/// host can be told from a slow program. `None` where it is not reported.
pub fn host_steal_s() -> Option<f64> {
    parse_steal_s(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / CLOCK_TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  791065 0 22530 1117510 9508 0 3920 3011 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_s(stat), Some(30.11));
        assert_eq!(parse_steal_s("cpu  1 2 3\n"), None);
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (mins) hare) x) S 1 4242 4242 0 -1 4194560 733 0 0 0 \
                    1234 66 0 0 20 0 3 0 8873 7421952 850 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn own_cpu_time_is_readable_and_monotone() {
        let before = process_cpu_s("self").unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s("self").unwrap() >= before);
    }

    #[test]
    fn snapshot_helpers_ignore_labeled_series() {
        let snapshot = json::parse(
            r#"{"counters":{"a/x/events":2,"b/y/events":3,"b/y/events{session=1}":3,"a/x/bytes":10},
                "histograms":{"protocol/equijoin/duration_ns":{"count":2,"sum":10},
                              "protocol/equijoin/duration_ns{session=1}":{"count":1,"sum":4},
                              "protocol/intersection/duration_ns":{"count":1,"sum":5},
                              "pool/wait/duration_ns":{"count":9,"sum":9}}}"#,
        )
        .unwrap();
        assert_eq!(counter(&snapshot, "a/x/bytes"), 10.0);
        assert_eq!(counter(&snapshot, "missing"), 0.0);
        assert_eq!(counter_sum(&snapshot, "/events"), 5.0);
        assert_eq!(
            histogram_totals(&snapshot, "protocol/", "/duration_ns"),
            (3.0, 15.0)
        );
    }
}
