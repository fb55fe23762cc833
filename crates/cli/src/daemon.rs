//! `minshare serve` / `minshare client` — the long-running protocol
//! daemon and its session client.
//!
//! ```text
//! # terminal 1: the daemon (sender S), serving its private list
//! minshare serve --listen 127.0.0.1:7200 --values supplier.txt
//!
//! # terminal 2+: any number of concurrent receiver sessions
//! minshare client --connect 127.0.0.1:7200 --protocol intersection --values retailer.txt
//! ```
//!
//! One TCP connection carries one mux envelope; each `client` invocation
//! opens one session inside it. The daemon multiplexes sessions across
//! all connections against a shared [`SessionRegistry`] (admission cap)
//! and a shared [`EncryptPool`] (per-session fair scheduling), prints a
//! per-session reconciliation line for every session it runs, and on
//! graceful shutdown drains active sessions before exiting.
//!
//! Both sides must agree on `--group-bits` (a well-known group, so no
//! parameters travel out of band) and, for equijoins, `--record-len`.

use std::fs::File;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use minshare::prelude::*;
use minshare::service::ClientTraffic;
use minshare_crypto::drbg::{self, ChaChaRng};
use minshare_net::tcp::{TcpAcceptor, TcpTransport};
use minshare_net::{
    serve_mux_connection, MuxClient, MuxConfig, NetError, SessionRegistry, ShutdownHandle,
    StatsProvider, Transport,
};
use minshare_trace::metrics::{MetricsRegistry, RegistrySink};
use minshare_trace::Tracer;
use rand::Rng;

use crate::input;

type AnyError = Box<dyn std::error::Error>;

/// Well-known group lookup shared by every networked verb: the two
/// parties must land on the *same* group without any out-of-band
/// parameter exchange, so only the baked-in moduli are allowed.
pub(crate) fn well_known_group(bits: u64) -> Result<QrGroup, AnyError> {
    match bits {
        768 | 1024 | 1536 | 2048 => Ok(QrGroup::well_known(bits)?),
        other => Err(format!(
            "--group-bits {other} is not a well-known group; use 768, 1024, 1536 or 2048"
        )
        .into()),
    }
}

/// The key every generator of this process derives from: `--seed` keys
/// it deterministically (tests and harnesses replay runs with it),
/// otherwise it is 32 bytes of `/dev/urandom`.
pub(crate) fn master_key(seed: Option<u64>) -> Result<[u8; 32], AnyError> {
    match seed {
        Some(s) => Ok(drbg::seed_key(s)),
        None => drbg::os_key().map_err(|e| format!("cannot read /dev/urandom: {e}").into()),
    }
}

/// `minshare serve`: accept connections forever (or until
/// `--shutdown-after` admission outcomes), one mux connection loop per
/// TCP peer, all sharing one session registry and one encrypt pool.
pub fn run_serve(raw: &[String]) -> Result<(), AnyError> {
    let mut listen = None;
    let mut values_path = None;
    let mut max_sessions = 8usize;
    let mut group_bits = 768u64;
    let mut record_len = 64usize;
    let mut seed: Option<u64> = None;
    let mut shutdown_after: Option<u64> = None;
    let mut port_file: Option<String> = None;
    let mut mem_budget: Option<usize> = None;
    let mut spill_dir: Option<String> = None;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, AnyError> {
            Ok(it.next().ok_or(format!("{name} requires a value"))?.clone())
        };
        match arg.as_str() {
            "--listen" => listen = Some(take("--listen")?),
            "--values" => values_path = Some(take("--values")?),
            "--max-sessions" => max_sessions = take("--max-sessions")?.parse()?,
            "--group-bits" => group_bits = take("--group-bits")?.parse()?,
            "--record-len" => record_len = take("--record-len")?.parse()?,
            "--seed" => seed = Some(take("--seed")?.parse()?),
            "--shutdown-after" => shutdown_after = Some(take("--shutdown-after")?.parse()?),
            "--port-file" => port_file = Some(take("--port-file")?),
            "--mem-budget" => mem_budget = Some(take("--mem-budget")?.parse()?),
            "--spill-dir" => spill_dir = Some(take("--spill-dir")?),
            other => return Err(format!("unknown serve option {other:?}").into()),
        }
    }
    let listen = listen.ok_or("--listen is required")?;
    let values_path = values_path.ok_or("--values is required")?;

    let group = well_known_group(group_bits)?;
    let file = File::open(&values_path).map_err(|e| format!("cannot open {values_path}: {e}"))?;
    let entries = input::read_value_payloads(BufReader::new(file))?;
    // Every equijoin session encrypts each payload under a
    // `record_len`-byte cipher: refuse a longer one here, not in every
    // session after the client has done its encryption pass.
    if let Some(longest) = entries
        .iter()
        .map(|(_, payload)| payload.len())
        .max()
        .filter(|&len| len > record_len)
    {
        return Err(format!(
            "{values_path} has a {longest}-byte payload, longer than --record-len {record_len}"
        )
        .into());
    }
    let tier = group.kernel_tier();
    eprintln!(
        "serving {} entries ({group_bits}-bit group, {max_sessions} session slots) kernel={tier}",
        entries.len()
    );

    // Sort budget and spill directory of every session; the client's
    // hello chooses the bucket count.
    let shard_cfg = ShardConfig {
        mem_budget: mem_budget.unwrap_or_else(|| ShardConfig::default().mem_budget),
        spill_dir: spill_dir.map(std::path::PathBuf::from),
        ..ShardConfig::default()
    };
    let service = Arc::new(
        Service::new(
            group,
            entries,
            EncryptPool::new(crate::pool_workers()),
            PipelineConfig::default(),
            record_len,
            0,
        )
        .with_master_key(master_key(seed)?)
        .with_shard_config(shard_cfg),
    );
    // Live-telemetry registry. Every connection thread installs a
    // RegistrySink tracer, so the lifecycle/protocol/pool/leakage events
    // emitted while it serves fold into one process-wide registry; the
    // STATS frame answers with its JSON snapshot. Gauge and throughput
    // classes are declared up front — everything else defaults to the
    // counter/histogram rules baked into the registry.
    let metrics = Arc::new(MetricsRegistry::new());
    metrics.register_gauge("pool", "queue", "depth");
    metrics.register_gauge("pool", "session_vtime", "vtime");
    for kind in [
        ProtocolKind::Intersection,
        ProtocolKind::Equijoin,
        ProtocolKind::IntersectionSize,
        ProtocolKind::EquijoinSize,
    ] {
        metrics.register_histogram("protocol", kind.name(), "ce_per_sec");
    }
    // Which `Ce` kernel this daemon's sessions run on (a property of the
    // build, the CPU and the group width), so a STATS scrape explains the
    // per-protocol `ce_per_sec` it sits beside.
    metrics.register_gauge("crypto", "kernel_tier", tier.as_str());
    {
        let _trace = minshare_trace::install(Tracer::to_sink(Arc::new(RegistrySink::new(
            Arc::clone(&metrics),
        ))));
        minshare_trace::emit("crypto", "kernel_tier", false, || {
            vec![minshare_trace::flag(tier.as_str(), true)]
        });
    }
    let stats_provider: StatsProvider = {
        let metrics = Arc::clone(&metrics);
        Arc::new(move || metrics.snapshot_json().into_bytes())
    };

    let registry = SessionRegistry::new(max_sessions);
    let shutdown = ShutdownHandle::new();
    let acceptor = TcpAcceptor::bind(listen.as_str())?;
    let local = acceptor.local_addr()?;
    eprintln!("listening on {local}");
    if let Some(path) = &port_file {
        // Written atomically-enough for scripts: port last, newline-terminated.
        let mut f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        writeln!(f, "{}", local.port())?;
    }

    // Admission outcomes across all connections: admitted sessions
    // (which by connection end have run to completion or been closed by
    // their peer) plus typed Busy rejections. `--shutdown-after N` turns
    // the daemon into a deterministic fixture: it serves exactly N
    // outcomes, drains, and exits.
    let outcomes = Arc::new(AtomicU64::new(0));
    // Peer ids for the per-peer disclosure counters: one id per accepted
    // connection, assigned in accept order.
    let peers = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| -> Result<(), AnyError> {
        loop {
            if shutdown.is_shutdown() {
                break;
            }
            let (transport, peer) = acceptor.accept()?;
            if shutdown.is_shutdown() {
                // Woken only to observe shutdown; the dial was a courtesy.
                break;
            }
            eprintln!("connection from {peer}");
            let service = Arc::clone(&service);
            let registry = Arc::clone(&registry);
            let conn_shutdown = shutdown.clone();
            let shutdown = shutdown.clone();
            let outcomes = Arc::clone(&outcomes);
            let metrics = Arc::clone(&metrics);
            let stats_provider = Arc::clone(&stats_provider);
            let peer_id = peers.fetch_add(1, Ordering::AcqRel) + 1;
            scope.spawn(move || {
                // Tracers are thread-local, and the mux loop spawns one
                // handler thread per session: the connection thread and
                // every handler each wire their own sink into the one
                // shared registry.
                let handler_metrics = Arc::clone(&metrics);
                let _trace = minshare_trace::install(Tracer::to_sink(Arc::new(
                    RegistrySink::new(metrics),
                )));
                let config = MuxConfig::default();
                let result = serve_mux_connection(
                    transport,
                    &config,
                    &registry,
                    &conn_shutdown,
                    Some(stats_provider),
                    |sid, request, session_t| {
                        let _trace = minshare_trace::install(Tracer::to_sink(Arc::new(
                            RegistrySink::new(Arc::clone(&handler_metrics)),
                        )));
                        match service.handle_for_peer(peer_id, sid, &request, session_t) {
                        Ok(report) => println!(
                            "session={} protocol={} peer_set_size={} bytes_sent={} bytes_received={} encryptions={} status=ok",
                            report.session,
                            report.protocol.name(),
                            report.peer_set_size,
                            report.bytes_sent,
                            report.bytes_received,
                            report.ops.total_ce(),
                        ),
                            Err(e) => println!("session={sid} status=error detail=\"{e}\""),
                        }
                    },
                );
                match result {
                    Ok(stats) => {
                        eprintln!(
                            "connection {peer} done: opened={} completed={} closed_by_peer={} busy={} shed={} malformed={}",
                            stats.opened,
                            stats.completed,
                            stats.closed_by_peer,
                            stats.rejected_busy,
                            stats.shed_overflow,
                            stats.malformed,
                        );
                        let served = stats.opened + stats.rejected_busy;
                        let total = outcomes.fetch_add(served, Ordering::AcqRel) + served;
                        if shutdown_after.is_some_and(|n| total >= n) && !shutdown.is_shutdown() {
                            eprintln!("served {total} session outcomes; shutting down");
                            shutdown.shutdown();
                            // The accept loop is blocked; dial it once so
                            // it wakes and observes the flag.
                            let _ = std::net::TcpStream::connect(local);
                        }
                    }
                    Err(e) => eprintln!("connection {peer} failed: {e}"),
                }
            });
        }
        Ok(())
    })?;
    eprintln!("daemon drained; exiting");
    Ok(())
}

/// `minshare client`: open one session against a running daemon, run
/// the client (receiver) side of the requested protocol, print the
/// answer to stdout and a reconciliation line mirroring the daemon's.
pub fn run_client(raw: &[String]) -> Result<(), AnyError> {
    let mut connect = None;
    let mut values_path = None;
    let mut protocol = None;
    let mut group_bits = 768u64;
    let mut record_len = 64usize;
    let mut seed: Option<u64> = None;
    let mut shards = 1u32;
    let mut mem_budget: Option<usize> = None;
    let mut spill_dir: Option<String> = None;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, AnyError> {
            Ok(it.next().ok_or(format!("{name} requires a value"))?.clone())
        };
        match arg.as_str() {
            "--connect" => connect = Some(take("--connect")?),
            "--values" => values_path = Some(take("--values")?),
            "--protocol" => protocol = Some(take("--protocol")?),
            "--group-bits" => group_bits = take("--group-bits")?.parse()?,
            "--record-len" => record_len = take("--record-len")?.parse()?,
            "--seed" => seed = Some(take("--seed")?.parse()?),
            "--shards" => shards = take("--shards")?.parse()?,
            "--mem-budget" => mem_budget = Some(take("--mem-budget")?.parse()?),
            "--spill-dir" => spill_dir = Some(take("--spill-dir")?),
            other => return Err(format!("unknown client option {other:?}").into()),
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let connect = connect.ok_or("--connect is required")?;
    let values_path = values_path.ok_or("--values is required")?;
    let protocol = protocol.ok_or(
        "--protocol is required (intersection | equijoin | intersection-size | equijoin-size)",
    )?;
    let protocol = ProtocolKind::parse(&protocol).ok_or_else(|| {
        format!(
            "unknown protocol {protocol:?} (intersection | equijoin | intersection-size | equijoin-size)"
        )
    })?;

    let group = well_known_group(group_bits)?;
    let file = File::open(&values_path).map_err(|e| format!("cannot open {values_path}: {e}"))?;
    let values: Vec<Vec<u8>> = input::read_value_payloads(BufReader::new(file))?
        .into_iter()
        .map(|(value, _)| value)
        .collect();
    let mut rng = ChaChaRng::new(master_key(seed)?, [0; 12]);

    let tcp = TcpTransport::connect(connect.as_str())?;
    let mut client = MuxClient::new(tcp, MuxConfig::default());
    let session = match client.open_session(&SessionRequest::new(protocol).encode()) {
        Ok(session) => session,
        Err(e @ NetError::Busy { .. }) => {
            // Typed load-shedding is an expected answer, not a crash;
            // scripts match on "busy".
            return Err(format!("busy: {e}").into());
        }
        Err(e) => return Err(e.into()),
    };
    let sid = session.session_id();
    eprintln!(
        "session {sid} open: {} with {} values kernel={}",
        protocol.name(),
        values.len(),
        group.kernel_tier()
    );

    let shard_cfg = ShardConfig {
        shards,
        mem_budget: mem_budget.unwrap_or_else(|| ShardConfig::default().mem_budget),
        spill_dir: spill_dir.map(std::path::PathBuf::from),
    };
    let (traffic, _, _) = run_receiver(
        protocol, session, &group, &values, &mut rng, record_len, &shard_cfg,
    )?;
    // The mirror image of the daemon's line: this side's sent must be
    // the daemon's received and vice versa.
    println!(
        "session={sid} bytes_sent={} bytes_received={} status=ok",
        traffic.bytes_sent, traffic.bytes_received
    );
    client.close()?;
    Ok(())
}

/// The receiver `R` of every protocol: `client` runs it over its mux
/// session, a one-shot verb over its TCP link. Prints the answer to
/// stdout and what `R` learned to stderr; returns the run's traffic,
/// `|V_S|` and this side's `Ce` count. `record_len` sizes the equijoin's
/// payload cipher and must match the sender's.
pub(crate) fn run_receiver<T: Transport>(
    protocol: ProtocolKind,
    transport: T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut impl Rng,
    record_len: usize,
    shard_cfg: &ShardConfig,
) -> Result<(ClientTraffic, usize, u64), AnyError> {
    let pool = EncryptPool::new(crate::pool_workers());
    let config = PipelineConfig::default();
    Ok(match protocol {
        ProtocolKind::Intersection => {
            let (out, traffic) = run_client_intersection_sharded(
                transport, group, values, rng, &pool, config, shard_cfg,
            )?;
            for v in &out.intersection {
                println!("{}", String::from_utf8_lossy(v));
            }
            eprintln!(
                "done: |V_S| = {}, intersection = {} values",
                out.peer_set_size,
                out.intersection.len()
            );
            (traffic, out.peer_set_size, out.ops.total_ce())
        }
        ProtocolKind::Equijoin => {
            let (out, traffic) = run_client_equijoin_sharded(
                transport, group, values, rng, &pool, config, record_len, shard_cfg,
            )?;
            for (v, payload) in &out.matches {
                println!(
                    "{}\t{}",
                    String::from_utf8_lossy(v),
                    String::from_utf8_lossy(payload)
                );
            }
            eprintln!(
                "done: |V_S| = {}, matches = {}",
                out.peer_set_size,
                out.matches.len()
            );
            (traffic, out.peer_set_size, out.ops.total_ce())
        }
        ProtocolKind::IntersectionSize => {
            let (out, traffic) = run_client_intersection_size_sharded(
                transport, group, values, rng, &pool, config, shard_cfg,
            )?;
            println!("{}", out.intersection_size);
            eprintln!("done: |V_S| = {}", out.peer_set_size);
            (traffic, out.peer_set_size, out.ops.total_ce())
        }
        ProtocolKind::EquijoinSize => {
            let (out, traffic) = run_client_equijoin_size_sharded(
                transport, group, values, rng, &pool, config, shard_cfg,
            )?;
            println!("{}", out.join_size);
            eprintln!(
                "done: |V_S| = {}, S's duplicate distribution: {:?}",
                out.peer_multiset_size, out.peer_duplicate_distribution
            );
            (traffic, out.peer_multiset_size, out.ops.total_ce())
        }
    })
}

/// `minshare stats`: scrape a running daemon's telemetry snapshot over
/// the mux STATS frame and print the JSON to stdout. Read-only and
/// secret-safe by construction: the snapshot is built purely from the
/// typed trace event stream (counts, sizes, durations — never values,
/// hashes or key material).
pub fn run_stats(raw: &[String]) -> Result<(), AnyError> {
    let mut connect = None;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(it.next().ok_or("--connect requires a value")?.clone()),
            other if !other.starts_with("--") && connect.is_none() => {
                // `minshare stats ADDR` positional form.
                connect = Some(other.to_string());
            }
            other => return Err(format!("unknown stats option {other:?}").into()),
        }
    }
    let connect = connect.ok_or("an address is required: minshare stats ADDR")?;
    let tcp = TcpTransport::connect(connect.as_str())?;
    let mut client = MuxClient::new(tcp, MuxConfig::default());
    let snapshot = client.fetch_stats()?;
    println!("{}", String::from_utf8_lossy(&snapshot));
    client.close()?;
    Ok(())
}
