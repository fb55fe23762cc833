//! Two-process end-to-end tests: spawn the real `minshare` binary twice
//! and let the processes talk over localhost TCP.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn binary() -> &'static str {
    env!("CARGO_BIN_EXE_minshare")
}

/// A temp directory owned by one test (tests run on parallel threads, so
/// they must not share input files), removed when the test ends.
struct TestDir(PathBuf);

impl TestDir {
    fn new(test: &str) -> TestDir {
        let dir =
            std::env::temp_dir().join(format!("minshare-cli-test-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        TestDir(dir)
    }

    fn write(&self, name: &str, content: &str) -> PathBuf {
        let path = self.0.join(name);
        let mut f = std::fs::File::create(&path).expect("temp file");
        f.write_all(content.as_bytes()).expect("write");
        path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn(args: &[&str]) -> Child {
    Command::new(binary())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn minshare")
}

/// Waits for `child`, asserts it succeeded and returns its stdout. When
/// the caller took the child's stderr to watch it, `stderr_read` is what it
/// has read so far and `stderr_rest` the reader to drain for the remainder.
fn finish(child: Child, stderr_read: String, mut stderr_rest: impl Read, who: &str) -> String {
    let out = child.wait_with_output().expect("wait");
    let mut stderr = stderr_read;
    let _ = stderr_rest.read_to_string(&mut stderr);
    stderr.push_str(&String::from_utf8_lossy(&out.stderr));
    assert!(
        out.status.success(),
        "{who} failed:\nstdout: {}\nstderr: {stderr}",
        String::from_utf8_lossy(&out.stdout),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Reads `child`'s stderr up to its `listening on ADDR` line; returns the
/// address, the log read so far and the reader for the rest.
fn wait_for_listening(child: &mut Child) -> (String, String, impl BufRead) {
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut log = String::new();
    loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("read stderr");
        log.push_str(&line);
        assert!(n > 0, "exited before listening:\n{log}");
        if let Some(addr) = line.strip_prefix("listening on ") {
            let addr = addr.trim_end().trim_end_matches('…').to_string();
            return (addr, log, stderr);
        }
    }
}

/// Runs sender+receiver as two processes and returns both stdouts. The
/// sender binds an ephemeral port (`:0`) and the receiver is started only
/// once the sender has reported the bound address on stderr — no port
/// picked in advance and given away, no sleep standing in for the bind.
fn run_pair(
    test: &str,
    command: &str,
    sender_file: &str,
    receiver_file: &str,
    extra: &[&str],
) -> (String, String) {
    run_pair_with(test, command, sender_file, receiver_file, extra, extra)
}

/// [`run_pair`] with separate extra arguments for each side.
fn run_pair_with(
    test: &str,
    command: &str,
    sender_file: &str,
    receiver_file: &str,
    s_extra: &[&str],
    r_extra: &[&str],
) -> (String, String) {
    let dir = TestDir::new(test);
    let s_path = dir.write("s.txt", sender_file);
    let r_path = dir.write("r.txt", receiver_file);

    let mut s_args = vec![
        command,
        "--listen",
        "127.0.0.1:0",
        "--values",
        s_path.to_str().unwrap(),
        "--seed",
        "1",
    ];
    s_args.extend_from_slice(s_extra);
    let mut sender = spawn(&s_args);
    let (addr, s_log, s_stderr) = wait_for_listening(&mut sender);

    let mut r_args = vec![
        command,
        "--connect",
        &addr,
        "--values",
        r_path.to_str().unwrap(),
        "--seed",
        "2",
    ];
    r_args.extend_from_slice(r_extra);
    let receiver = spawn(&r_args);

    let r_out = finish(receiver, String::new(), std::io::empty(), "receiver");
    let s_out = finish(sender, s_log, s_stderr, "sender");
    (s_out, r_out)
}

#[test]
fn intersect_between_processes() {
    let (_, r_out) = run_pair(
        "intersect",
        "intersect",
        "ana\nbob\ncarol\n",
        "bob\ncarol\ndave\n",
        &[],
    );
    let mut lines: Vec<&str> = r_out.lines().collect();
    lines.sort();
    assert_eq!(lines, vec!["bob", "carol"]);
}

#[test]
fn intersect_size_between_processes() {
    let (_, r_out) = run_pair(
        "intersect-size",
        "intersect-size",
        "a\nb\nc\nd\n",
        "c\nd\ne\n",
        &[],
    );
    assert_eq!(r_out.trim(), "2");
}

#[test]
fn join_between_processes() {
    let (_, r_out) = run_pair(
        "join",
        "join",
        "sku1\tprice=10\nsku2\tprice=20\nsku3\tprice=30\n",
        "sku2\nsku3\nsku9\n",
        &[],
    );
    let mut lines: Vec<&str> = r_out.lines().collect();
    lines.sort();
    assert_eq!(lines, vec!["sku2\tprice=20", "sku3\tprice=30"]);
}

#[test]
fn join_size_between_processes() {
    let (_, r_out) = run_pair("join-size", "join-size", "x\nx\ny\n", "x\ny\ny\n", &[]);
    // x: 2·1 + y: 1·2 = 4.
    assert_eq!(r_out.trim(), "4");
}

#[test]
fn sum_between_processes() {
    let (s_out, r_out) = run_pair(
        "sum",
        "sum",
        "a\t100\nb\t250\nc\t7\n",
        "b\nc\nz\n",
        &["--key-bits", "64"],
    );
    for out in [&s_out, &r_out] {
        assert!(out.contains("count\t2"), "{out}");
        assert!(out.contains("sum\t257"), "{out}");
    }
}

#[test]
fn intersect_over_secure_channel() {
    let (_, r_out) = run_pair(
        "intersect-secure",
        "intersect",
        "k1\nk2\n",
        "k2\nk3\n",
        &["--secure"],
    );
    assert_eq!(r_out.trim(), "k2");
}

#[test]
fn help_prints_usage() {
    let out = Command::new(binary()).arg("--help").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: minshare"));
}

#[test]
fn bad_args_exit_nonzero() {
    let out = Command::new(binary())
        .args(["frobnicate"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

/// A size with no baked-in group is refused before the sender listens:
/// two processes that each generated their own group would run the
/// protocol in different groups and could print a wrong answer.
#[test]
fn one_shot_verbs_refuse_groups_that_are_not_well_known() {
    let dir = TestDir::new("group-bits");
    let values = dir.write("s.txt", "grape\n");
    let mut sender = spawn(&[
        "intersect",
        "--listen",
        "127.0.0.1:0",
        "--values",
        values.to_str().unwrap(),
        "--group-bits",
        "128",
        "--seed",
        "1",
    ]);
    // Read stderr to its end; a sender that gets as far as listening
    // would wait for a peer forever, so it is killed there.
    let mut stderr = String::new();
    for line in BufReader::new(sender.stderr.take().expect("piped stderr")).lines() {
        let line = line.expect("read sender stderr");
        stderr.push_str(&line);
        stderr.push('\n');
        if line.starts_with("listening on") {
            let _ = sender.kill();
            let _ = sender.wait();
            panic!("sender accepted --group-bits 128:\n{stderr}");
        }
    }
    let status = sender.wait().expect("wait");
    assert!(!status.success(), "{stderr}");
    assert!(stderr.contains("768, 1024, 1536 or 2048"), "{stderr}");
}

#[test]
fn local_query_mode_runs_the_papers_sql() {
    let dir = TestDir::new("query");
    let tr = dir.write("q-tr.csv", "personid,pattern\n1,true\n2,false\n3,true\n");
    let ts = dir.write(
        "q-ts.csv",
        "personid,drug,reaction\n1,true,true\n2,true,false\n3,false,false\n",
    );
    let out = Command::new(binary())
        .args([
            "query",
            "--sql",
            "select pattern, reaction, count(*) \
             from TR join TS on TR.personid = TS.personid \
             where TS.drug = true group by pattern, reaction \
             order by pattern",
            "--table",
            &format!("TR={};personid:int,pattern:bool", tr.display()),
            "--table",
            &format!("TS={};personid:int,drug:bool,reaction:bool", ts.display()),
        ])
        .output()
        .expect("run query");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pattern,reaction,count"), "{stdout}");
    assert!(stdout.contains("false,false,1"), "{stdout}");
    assert!(stdout.contains("true,true,1"), "{stdout}");
}

#[test]
fn local_query_mode_rejects_bad_specs() {
    let out = Command::new(binary())
        .args(["query", "--sql", "select 1", "--table", "nonsense"])
        .output()
        .expect("run query");
    assert!(!out.status.success());
}

/// `--trace` ends each side's file with the §6.1 reconciliation line. Both
/// must judge the run `ok`, and since each side counts both directions of
/// the one link, S and R must report the same bytes and frames.
#[test]
fn trace_reconciliation_lines_agree_across_the_wire() {
    let dir = TestDir::new("trace");
    let last_line = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).expect("trace file");
        text.lines().last().expect("non-empty trace").to_string()
    };
    let field = |line: &str, key: &str| -> u64 {
        let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("numeric field")
    };
    for (verb, s_file, r_file) in [
        ("intersect", "a\nb\nc\n", "b\nc\nd\n"),
        ("intersect-size", "a\nb\nc\n", "b\nc\nd\n"),
        ("join", "a\tpa\nb\tpb\nc\tpc\n", "b\nc\nd\n"),
        ("join-size", "x\nx\ny\n", "x\ny\ny\n"),
    ] {
        let s_trace = dir.0.join(format!("{verb}-s.jsonl"));
        let r_trace = dir.0.join(format!("{verb}-r.jsonl"));
        run_pair_with(
            &format!("trace-{verb}"),
            verb,
            s_file,
            r_file,
            &["--trace", s_trace.to_str().unwrap()],
            &["--trace", r_trace.to_str().unwrap()],
        );
        let (s_line, r_line) = (last_line(&s_trace), last_line(&r_trace));
        for line in [&s_line, &r_line] {
            assert!(line.ends_with("\"ok\":true}}"), "{verb}: {line}");
        }
        for key in ["measured_bytes", "frames"] {
            assert_eq!(
                field(&s_line, key),
                field(&r_line, key),
                "{verb} {key}:\n{s_line}\n{r_line}"
            );
        }
    }
}

/// `serve` and `client` read their files with the same rule as the
/// one-shot verbs: the value is trimmed, so whitespace around it on one
/// side cannot turn a match into a miss.
#[test]
fn serve_and_client_trim_values_alike() {
    let dir = TestDir::new("trim");
    let s_path = dir.write("s.txt", "  apple\ngrape \nmelon\r\n");
    let r_path = dir.write("r.txt", "apple\ngrape\nmelon\n");
    let mut serve = spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--values",
        s_path.to_str().unwrap(),
        "--shutdown-after",
        "1",
    ]);
    let (addr, s_log, s_stderr) = wait_for_listening(&mut serve);
    let client = spawn(&[
        "client",
        "--connect",
        &addr,
        "--protocol",
        "intersection",
        "--values",
        r_path.to_str().unwrap(),
        "--seed",
        "2",
    ]);
    let c_out = finish(client, String::new(), std::io::empty(), "client");
    finish(serve, s_log, s_stderr, "serve");
    let mut found: Vec<&str> = c_out.lines().filter(|l| !l.contains("status=")).collect();
    found.sort();
    assert_eq!(found, vec!["apple", "grape", "melon"], "{c_out}");
}

/// A payload longer than `--record-len` could never be sent: `serve`
/// refuses it before it listens, naming both sizes, instead of failing
/// every equijoin session after the client's encryption pass.
#[test]
fn serve_refuses_a_payload_longer_than_record_len() {
    let dir = TestDir::new("record-len");
    let values = dir.write("s.txt", &format!("apple\t{}\n", "x".repeat(100)));
    let mut serve = spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--values",
        values.to_str().unwrap(),
    ]);
    let mut stderr = String::new();
    for line in BufReader::new(serve.stderr.take().expect("piped stderr")).lines() {
        let line = line.expect("read serve stderr");
        stderr.push_str(&line);
        stderr.push('\n');
        if line.starts_with("listening on") {
            let _ = serve.kill();
            let _ = serve.wait();
            panic!("serve started with a 100-byte payload at --record-len 64:\n{stderr}");
        }
    }
    let status = serve.wait().expect("wait");
    assert!(!status.success(), "{stderr}");
    assert!(stderr.contains("100-byte payload"), "{stderr}");
    assert!(stderr.contains("--record-len 64"), "{stderr}");
}
