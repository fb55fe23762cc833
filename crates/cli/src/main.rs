//! `minshare` — run the private-database protocols between two real
//! processes over TCP.
//!
//! ```text
//! # terminal 1: the sender S, serving its private list
//! minshare serve --listen 127.0.0.1:7100 --values supplier.txt
//!
//! # terminal 2: the receiver R
//! minshare client --connect 127.0.0.1:7100 --protocol intersection --values retailer.txt
//! ```
//!
//! Every networked run takes one connection stack: TCP, then with
//! `--secure` the encrypted channel of §2.1, then the session mux, then
//! one protocol session per `client` ([`daemon`]). The client prints the
//! answer and both sides print per-session byte counts; `--trace` adds
//! the §6.1 cost reconciliation. See `--help` ([`USAGE`]).

mod daemon;
mod input;

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use minshare::prelude::*;
use minshare_costmodel::reconcile::{self, Party};
use minshare_costmodel::section6::Protocol;
use minshare_costmodel::CostConstants;
use minshare_net::TrafficStats;

/// Usage text.
const USAGE: &str = "\
usage: minshare <command> [options]

commands:
  serve    the sender S: a daemon serving its private list to any number
           of concurrent protocol sessions over one port
  client   the receiver R: one protocol session against a running daemon
  stats    print a running daemon's live telemetry snapshot (JSON)
  query    run one SQL statement over local CSV tables

  minshare serve  --listen ADDR --values FILE [--max-sessions N] [--group-bits B]
                  [--record-len N] [--seed S] [--shutdown-after N] [--port-file PATH]
                  [--mem-budget BYTES] [--spill-dir DIR] [--secure] [--trace FILE]
  minshare client --connect ADDR --values FILE --protocol P [--group-bits B]
                  [--record-len N] [--seed S] [--shards B]
                  [--mem-budget BYTES] [--spill-dir DIR] [--secure] [--trace FILE]
  minshare stats  [--secure] ADDR
  minshare query  --sql 'SELECT …' --table 'NAME=file.csv;col:type,col:type' …
                  (types: int, text, bool, bytes; prints CSV)

protocols (P):
  intersection        private set intersection (paper §3)
  equijoin            equijoin with payloads (§4); serve lines: value<TAB>payload
  intersection-size   intersection cardinality only (§5.1)
  equijoin-size       equijoin cardinality on multisets (§5.2)

options:
  --group-bits N      safe-prime size: 768, 1024, 1536 or 2048 (default 768);
                      both sides must agree
  --record-len N      equijoin payload width in bytes (default 64); both
                      sides must agree
  --secure            run the connection inside the encrypted channel
                      (DH → HKDF → ChaCha20 + HMAC); both sides or neither
  --trace FILE        write a JSON-lines event trace (counts, sizes and
                      durations only — never values or keys), with one
                      measured-vs-predicted §6.1 cost line per session
  --seed N            deterministic protocol keys (default: OS entropy)
  --shards B          client: split the run into B hash buckets exchanged
                      one after another (default 1); the daemon adopts B
  --mem-budget BYTES  in-memory budget of the sort before sorted runs go
                      to disk (default 67108864)
  --spill-dir DIR     where spill runs live while in flight (default: the
                      OS temp dir; files are unlinked at creation)
  --shutdown-after N  serve: exit after N session outcomes
  --port-file PATH    serve: write the bound port here once listening

the one-shot verbs of earlier versions:
  VERB --listen ADDR …   ⇒  serve --listen ADDR --shutdown-after 1 …
  VERB --connect ADDR …  ⇒  client --connect ADDR --protocol P …
  with VERB → P: intersect → intersection, intersect-size → intersection-size,
  join → equijoin, join-size → equijoin-size
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match raw.first().map(String::as_str) {
        Some("serve") => daemon::run_serve(&raw[1..]),
        Some("client") => daemon::run_client(&raw[1..]),
        Some("stats") => daemon::run_stats(&raw[1..]),
        Some("query") => run_query(&raw[1..]),
        Some(other) => Err(format!("unknown command {other:?}; see minshare --help").into()),
        None => Err("missing command; see minshare --help".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Local (non-protocol) mode: load CSV tables into the relational
/// substrate and run one SQL statement against them.
fn run_query(raw: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use minshare_privdb::{csvio, sql, ColumnType, Schema};

    let mut sql_text = None;
    let mut specs: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sql" => sql_text = Some(it.next().ok_or("--sql requires a value")?.clone()),
            "--table" => specs.push(it.next().ok_or("--table requires a value")?.clone()),
            other => return Err(format!("unknown query option {other:?}").into()),
        }
    }
    let sql_text = sql_text.ok_or("--sql is required")?;
    if specs.is_empty() {
        return Err("at least one --table NAME=FILE;col:type,… is required".into());
    }

    let mut catalog = sql::Catalog::new();
    for spec in &specs {
        // NAME=PATH;col:type,col:type
        let (name, rest) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --table spec {spec:?}: missing '='"))?;
        let (path, schema_text) = rest
            .split_once(';')
            .ok_or_else(|| format!("bad --table spec {spec:?}: missing ';schema'"))?;
        let mut cols = Vec::new();
        for col in schema_text.split(',') {
            let (cname, ty) = col
                .split_once(':')
                .ok_or_else(|| format!("bad column spec {col:?}"))?;
            let ty = match ty.trim() {
                "int" => ColumnType::Int,
                "text" => ColumnType::Text,
                "bool" => ColumnType::Bool,
                "bytes" => ColumnType::Bytes,
                other => return Err(format!("unknown type {other:?}").into()),
            };
            cols.push((cname.trim(), ty));
        }
        let schema = Schema::new(cols)?;
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let table = csvio::read_csv(name, schema, BufReader::new(file))?;
        eprintln!("loaded {name}: {} rows", table.len());
        catalog.register(table);
    }

    let result = sql::execute(&catalog, &sql_text)?;
    let mut out = Vec::new();
    csvio::write_csv(&result, &mut out)?;
    print!("{}", String::from_utf8_lossy(&out));
    eprintln!("{} rows", result.len());
    Ok(())
}

/// What the reconciliation line needs from one finished session.
struct RunSummary {
    protocol: ProtocolKind,
    party: Party,
    own_values: u64,
    peer_values: u64,
    measured_ce: u64,
}

/// Worker threads for every encryption pool the binary builds — `serve`
/// and `client` alike: leave one core for the
/// protocol thread, cap modestly. A 0-worker pool runs jobs inline, so
/// single-core hosts behave exactly as before.
fn pool_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(0)
        .min(8)
}

/// One session's trace line: this party's measured `Ce` against its
/// §6.1 share, and the session's *total* observed traffic (one endpoint
/// sees both directions) against the communication formula plus the
/// framing envelope. `traffic` counts the session's own frames above the
/// mux, so the numbers hold with or without `--secure`.
fn reconciliation_json(
    s: &RunSummary,
    traffic: &TrafficStats,
    group: &QrGroup,
    record_len: usize,
) -> String {
    let k_bits = 8 * group.codeword_bytes() as u64;
    // One payload-table entry costs a 4-byte length prefix and the
    // fixed-width ciphertext on top of its codeword: §6.1's k'.
    let k_prime_bits = match s.protocol {
        ProtocolKind::Equijoin => {
            8 * (4 + HybridCipher::new(group.clone(), record_len).ciphertext_len()) as u64
        }
        _ => 0,
    };
    let (vs, vr) = match s.party {
        Party::Sender => (s.own_values, s.peer_values),
        Party::Receiver => (s.peer_values, s.own_values),
    };
    let protocol = match s.protocol {
        ProtocolKind::Intersection => Protocol::Intersection,
        ProtocolKind::Equijoin => Protocol::Equijoin,
        ProtocolKind::IntersectionSize => Protocol::IntersectionSize,
        ProtocolKind::EquijoinSize => Protocol::EquijoinSize,
    };
    let consts = CostConstants {
        k_bits,
        k_prime_bits,
        ..CostConstants::paper()
    };
    let predicted_ce = reconcile::party_ce_ops(protocol, s.party, vs, vr);
    let predicted_bytes = protocol.communication_bits(vs, vr, &consts).div_ceil(8);
    let measured_bytes = traffic.bytes_sent() + traffic.bytes_received();
    let frames = traffic.frames_sent() + traffic.frames_received();
    let ce_exact = s.measured_ce == predicted_ce;
    let bytes_within_envelope = measured_bytes >= predicted_bytes
        && measured_bytes - predicted_bytes <= reconcile::ENVELOPE_BYTES_PER_FRAME * frames;
    format!(
        concat!(
            "{{\"reconciliation\":{{\"protocol\":\"{}\",\"party\":\"{}\",",
            "\"vs\":{},\"vr\":{},\"k_bits\":{},\"k_prime_bits\":{},",
            "\"measured_ce\":{},\"predicted_party_ce\":{},\"ce_exact\":{},",
            "\"measured_bytes\":{},\"predicted_bytes\":{},\"frames\":{},",
            "\"bytes_within_envelope\":{},\"ok\":{}}}}}"
        ),
        reconcile::protocol_slug(protocol),
        s.party.name(),
        vs,
        vr,
        k_bits,
        k_prime_bits,
        s.measured_ce,
        predicted_ce,
        ce_exact,
        measured_bytes,
        predicted_bytes,
        frames,
        bytes_within_envelope,
        ce_exact && bytes_within_envelope,
    )
}
