//! `minshare` — run the private-database protocols between two real
//! processes over TCP.
//!
//! ```text
//! # terminal 1 (the sender S, holding its private list)
//! minshare intersect --listen 127.0.0.1:7100 --values supplier.txt
//!
//! # terminal 2 (the receiver R)
//! minshare intersect --connect 127.0.0.1:7100 --values retailer.txt
//! ```
//!
//! The receiver prints the intersection; each side prints what it learned
//! and the exact cost accounting to stderr. See `--help` / [`args::USAGE`]
//! for the other protocols.

mod args;
mod daemon;
mod input;

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;

use args::{Args, Endpoint, Side, USAGE};
use minshare::prelude::*;
use minshare_aggregate::intersection_sum;
use minshare_aggregate::paillier::PrivateKey;
use minshare_costmodel::reconcile::{self, Party};
use minshare_costmodel::section6::Protocol;
use minshare_costmodel::CostConstants;
use minshare_net::secure::{Role, SecureChannel};
use minshare_net::tcp::{TcpAcceptor, TcpTransport};
use minshare_net::{CountingTransport, TrafficStats, Transport};
use minshare_trace::sink::JsonLinesSink;
use minshare_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        println!(
            "\nlocal query mode:\n  \
             minshare query --sql 'SELECT …' --table 'NAME=file.csv;col:type,col:type' …\n  \
             types: int, text, bool, bytes — runs the SQL locally and prints CSV"
        );
        println!(
            "\ndaemon mode (many concurrent sessions over one port):\n  \
             minshare serve  --listen ADDR --values FILE [--max-sessions N] [--group-bits B]\n                  \
             [--record-len N] [--seed S] [--shutdown-after N] [--port-file PATH]\n                  \
             [--mem-budget BYTES] [--spill-dir DIR]\n  \
             minshare client --connect ADDR --values FILE\n                  \
             --protocol intersection|equijoin|intersection-size|equijoin-size\n                  \
             [--group-bits B] [--record-len N] [--seed S] [--shards B]\n                  \
             [--mem-budget BYTES] [--spill-dir DIR]\n  \
             minshare stats ADDR   — print a daemon's live telemetry snapshot (JSON)"
        );
        return ExitCode::SUCCESS;
    }
    if raw.first().map(|s| s.as_str()) == Some("serve") {
        return match daemon::run_serve(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.first().map(|s| s.as_str()) == Some("client") {
        return match daemon::run_client(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.first().map(|s| s.as_str()) == Some("stats") {
        return match daemon::run_stats(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.first().map(|s| s.as_str()) == Some("query") {
        return match run_query(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(parsed) {
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

fn run(args: Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = match args.seed {
        Some(s) => StdRng::seed_from_u64(s),
        None => StdRng::seed_from_u64(rand::rng().next_u64()),
    };

    eprintln!("loading group ({} bits)…", args.group_bits);
    let group = daemon::well_known_group(args.group_bits)?;

    // Establish the TCP link.
    let tcp = match &args.endpoint {
        Endpoint::Listen(addr) => {
            let acceptor = TcpAcceptor::bind(addr.as_str())?;
            eprintln!("listening on {}…", acceptor.local_addr()?);
            let (t, peer) = acceptor.accept()?;
            eprintln!("peer connected from {peer}");
            t
        }
        Endpoint::Connect(addr) => {
            eprintln!("connecting to {addr}…");
            TcpTransport::connect(addr.as_str())?
        }
    };

    // Optionally wrap in the encrypted session (connector initiates).
    let mut transport: Box<dyn Transport> = if args.secure {
        let role = match args.endpoint {
            Endpoint::Listen(_) => Role::Responder,
            Endpoint::Connect(_) => Role::Initiator,
        };
        eprintln!("establishing encrypted channel…");
        Box::new(SecureChannel::establish(tcp, &group, role, &mut rng)?)
    } else {
        Box::new(tcp)
    };

    // Count protocol-layer frames and bytes (outermost wrap, so with
    // --secure this still measures plaintext protocol traffic — the
    // quantity the §6.1 formulas predict).
    let (mut transport, traffic) = CountingTransport::new(&mut *transport);

    // With --trace, install a JSON-lines tracer for this thread. The
    // trace carries counts, sizes and durations only — never values,
    // hashes or key material (enforced by the field types and the
    // analyzer's OBS01 rule).
    let trace_sink = match &args.trace_path {
        Some(path) => {
            let file =
                File::create(path).map_err(|e| format!("cannot create trace file {path}: {e}"))?;
            Some(Arc::new(JsonLinesSink::new(std::io::BufWriter::new(file))))
        }
        None => None,
    };
    let trace_guard = trace_sink.as_ref().map(|sink| {
        minshare_trace::install(Tracer::to_sink(
            Arc::clone(sink) as Arc<dyn minshare_trace::TraceSink>
        ))
    });

    let file = File::open(&args.values_path)
        .map_err(|e| format!("cannot open {}: {e}", args.values_path))?;
    let reader = BufReader::new(file);

    // What the reconciliation needs from the run; `None` for `sum`
    // (the §7 extension has no §6.1 formula to check against).
    let summary = match (args.command.protocol(), args.side) {
        (Some(protocol), _) => Some(run_protocol(
            protocol,
            &args,
            &mut transport,
            &group,
            reader,
            &mut rng,
        )?),
        (None, Side::Sender) => {
            let entries = input::read_value_weights(reader)?;
            eprintln!("generating {}-bit Paillier key…", args.key_bits);
            let key = PrivateKey::generate(&mut rng, args.key_bits)?;
            eprintln!(
                "running intersection-sum as S with {} entries…",
                entries.len()
            );
            let out =
                intersection_sum::run_sender(&mut transport, &group, &key, &entries, &mut rng)?;
            println!("count\t{}", out.intersection_count);
            println!("sum\t{}", out.sum);
            eprintln!("done: |V_R| = {}", out.peer_set_size);
            None
        }
        (None, Side::Receiver) => {
            let values: Vec<Vec<u8>> = input::read_value_payloads(reader)?
                .into_iter()
                .map(|(value, _)| value)
                .collect();
            eprintln!(
                "running intersection-sum as R with {} values…",
                values.len()
            );
            let out = intersection_sum::run_receiver(&mut transport, &group, &values, &mut rng)?;
            println!("count\t{}", out.intersection_count);
            println!("sum\t{}", out.sum);
            eprintln!("done: |V_S| = {}", out.peer_set_size);
            None
        }
    };

    // Close out the trace: uninstall the tracer, flush the event stream,
    // then append the reconciliation verdict as the final line.
    drop(trace_guard);
    if let (Some(sink), Some(path)) = (trace_sink, args.trace_path.as_ref()) {
        sink.flush();
        drop(sink);
        match &summary {
            Some(s) => {
                let line = reconciliation_json(s, &traffic, 8 * group.codeword_bytes() as u64);
                let mut out = std::fs::OpenOptions::new().append(true).open(path)?;
                writeln!(out, "{line}")?;
                eprintln!("trace written to {path} (with cost reconciliation)");
            }
            None => eprintln!("trace written to {path} (no §6.1 formula for this command)"),
        }
    }
    Ok(())
}

/// One run of a §3–§5 protocol, on the code the daemon pair runs: `S` is
/// a single-session [`Service`] (what every `serve` session runs) and `R`
/// is [`daemon::run_receiver`] (what `client` runs). The receiver elects
/// sharding with `--shards B > 1`; the sender adopts the announced count.
fn run_protocol(
    protocol: ProtocolKind,
    args: &Args,
    transport: &mut impl Transport,
    group: &QrGroup,
    reader: impl BufRead,
    rng: &mut StdRng,
) -> Result<RunSummary, Box<dyn std::error::Error>> {
    let entries = input::read_value_payloads(reader)?;
    // §6.1 prices sets (the engine deduplicates), and every occurrence
    // of a multiset.
    let own_values = if protocol.discloses_multiset() {
        entries.len()
    } else {
        entries.iter().map(|(value, _)| value).collect::<BTreeSet<_>>().len()
    };
    let shard_cfg = ShardConfig {
        shards: args.shards,
        mem_budget: args.mem_budget,
        spill_dir: args.spill_dir.as_ref().map(std::path::PathBuf::from),
    };
    let (party, peer_values, measured_ce, record_len) = match args.side {
        Side::Sender => {
            let record_len = entries
                .iter()
                .map(|(_, p)| p.len())
                .max()
                .unwrap_or(0)
                .max(1);
            if protocol == ProtocolKind::Equijoin {
                // The receiver must size its cipher identically; ship the
                // record length first as a tiny header frame.
                transport.send(&(record_len as u32).to_be_bytes())?;
            }
            eprintln!(
                "running {} as S with {} entries…",
                protocol.name(),
                entries.len()
            );
            let service = Service::new(
                group.clone(),
                entries,
                EncryptPool::new(pool_workers()),
                PipelineConfig::default(),
                record_len,
                rng.next_u64(),
            )
            .with_shard_config(shard_cfg);
            let report = service.handle(0, &SessionRequest::new(protocol).encode(), transport)?;
            eprintln!("done: |V_R| = {}", report.peer_set_size);
            if protocol.discloses_multiset() {
                let learned = &report.peer_duplicate_distribution;
                eprintln!("duplicate distribution learned: {learned:?}");
            }
            let ce = report.ops.total_ce();
            eprintln!("cost: {ce} Ce, {} Ch", report.ops.hashes);
            (Party::Sender, report.peer_set_size, ce, record_len)
        }
        Side::Receiver => {
            let values: Vec<Vec<u8>> = entries.into_iter().map(|(value, _)| value).collect();
            let record_len = if protocol == ProtocolKind::Equijoin {
                let header: [u8; 4] = transport.recv()?[..]
                    .try_into()
                    .map_err(|_| "bad record-length header")?;
                u32::from_be_bytes(header) as usize
            } else {
                0
            };
            eprintln!(
                "running {} as R with {} values…",
                protocol.name(),
                values.len()
            );
            let (_, peer_size, ce) = daemon::run_receiver(
                protocol, transport, group, &values, rng, record_len, &shard_cfg,
            )?;
            (Party::Receiver, peer_size, ce, record_len)
        }
    };
    // One payload-table entry costs a 4-byte length prefix and the
    // fixed-width ciphertext on top of its codeword: §6.1's k'.
    let k_prime_bits = match protocol {
        ProtocolKind::Equijoin => {
            8 * (4 + HybridCipher::new(group.clone(), record_len).ciphertext_len()) as u64
        }
        _ => 0,
    };
    Ok(RunSummary {
        protocol,
        party,
        own_values: own_values as u64,
        peer_values: peer_values as u64,
        measured_ce,
        k_prime_bits,
    })
}

/// What the reconciliation line needs from a finished protocol run.
struct RunSummary {
    protocol: ProtocolKind,
    party: Party,
    own_values: u64,
    peer_values: u64,
    measured_ce: u64,
    k_prime_bits: u64,
}

/// Worker threads for every encryption pool the binary builds — `serve`,
/// `client` and the one-shot verbs alike: leave one core for the
/// protocol thread, cap modestly. A 0-worker pool runs jobs inline, so
/// single-core hosts behave exactly as before.
fn pool_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(0)
        .min(8)
}

/// The final trace line: this party's measured `Ce` against its §6.1
/// share, and the *total* observed traffic (one endpoint sees both
/// directions) against the communication formula plus the framing
/// envelope. Counting wraps the protocol layer, so the numbers hold with
/// or without `--secure`.
fn reconciliation_json(s: &RunSummary, traffic: &TrafficStats, k_bits: u64) -> String {
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
        k_prime_bits: s.k_prime_bits,
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
        s.k_prime_bits,
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
