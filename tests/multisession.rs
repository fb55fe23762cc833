//! Multi-session daemon conformance: N concurrent sessions over one mux
//! connection, under seeded fault schedules, checked for **isolation**.
//!
//! The headline property of the daemon (`minshare_net::server` +
//! `minshare::service`): a session's answer, trace digest, and byte
//! counters depend only on *that session's* inputs — never on what the
//! other sessions on the same connection are doing. The harness checks
//! this the strong way: every well-behaved session's concurrent outcome
//! must be **byte-identical** to a solo replay of the same session id
//! over a private perfect link, while
//!
//! * seven other sessions (a mix of §3 intersections, §4 equijoins and
//!   the §5 `-size` variants, including empty and empty-overlap sets,
//!   one of them a client-elected *sharded* bounded-memory session the
//!   daemon adopts mid-connection) run interleaved on the same
//!   connection,
//! * one rogue peer opens a session with a malformed request (typed
//!   per-session failure, nothing else), and
//! * one rogue peer aborts mid-protocol by dropping its session (typed
//!   per-session failure, nothing else),
//!
//! across `SCHEDULES` seeded jitter / stall / bandwidth plans on the
//! simulated link the mux runs over directly, as it runs over TCP.
//! Timing may slow a session down; it may never change any answer,
//! digest, or payload-byte count.
//!
//! Two deterministic sub-tests cover the admission-control edges:
//! typed `Busy` load-shedding at the registry cap (the surviving
//! session is unperturbed), and graceful shutdown draining an active
//! session while shedding new OPENs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use minshare::prelude::*;
use minshare::service::ClientTraffic;
use minshare_net::{
    serve_mux_connection, sim_pair, FaultPlan, MuxClient, MuxConfig, NetError, SessionRegistry,
    ShutdownHandle, SimConfig, StatsProvider,
};
use minshare_trace::metrics::{MetricsRegistry, RegistrySink};
use minshare_trace::sink::{RingSink, TeeSink};
use minshare_trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded fault schedules the concurrent matrix runs under.
const SCHEDULES: u64 = 20;
/// Well-behaved sessions per schedule (plus two rogue peers).
const WELL_BEHAVED: u32 = 8;
/// Session id of the rogue peer whose OPEN request is garbage.
const MALFORMED_SID: u32 = WELL_BEHAVED + 1;
/// Session id of the rogue peer that aborts mid-protocol.
const ABORT_SID: u32 = WELL_BEHAVED + 2;

fn group() -> QrGroup {
    let mut rng = StdRng::seed_from_u64(0x5e55);
    QrGroup::generate(&mut rng, 64).unwrap()
}

fn to_values(names: &[&str]) -> Vec<Vec<u8>> {
    names.iter().map(|n| n.as_bytes().to_vec()).collect()
}

/// The daemon's private database: values with fixed-length ext payloads
/// (the equijoin sessions decrypt these for matches).
fn server_entries() -> Vec<(Vec<u8>, Vec<u8>)> {
    [
        "apple", "grape", "melon", "peach", "mango", "lemon", "olive", "guava", "plumb", "caper",
    ]
    .iter()
    .map(|v| (v.as_bytes().to_vec(), format!("ext:{v}").into_bytes()))
    .collect()
}

fn make_service(workers: usize) -> Service {
    Service::new(
        group(),
        server_entries(),
        EncryptPool::new(workers),
        PipelineConfig::default(),
        32,
        0xDAE_0_5EED,
    )
}

/// One well-behaved client session: which protocol it runs, with which
/// value set, and over how many shard buckets (`1` = no hello). Indexed
/// by `session id - 1` — the mux client assigns ids in open order, which
/// is what lets the solo baseline use the same id (and hence the same
/// per-session server keys).
#[derive(Clone)]
struct SessionSpec {
    protocol: ProtocolKind,
    values: Vec<Vec<u8>>,
    shards: u32,
}

fn session_specs() -> Vec<SessionSpec> {
    let inter = |names: &[&str]| SessionSpec {
        protocol: ProtocolKind::Intersection,
        values: to_values(names),
        shards: 1,
    };
    let join = |names: &[&str]| SessionSpec {
        protocol: ProtocolKind::Equijoin,
        values: to_values(names),
        shards: 1,
    };
    vec![
        inter(&["grape", "melon", "pear"]),
        inter(&["apple", "caper", "quark", "zesty"]),
        // Size variant with empty overlap: the answer must still be
        // exact (zero).
        SessionSpec {
            protocol: ProtocolKind::IntersectionSize,
            values: to_values(&["durian", "lychee"]),
            shards: 1,
        },
        // Empty client set: degenerate but legal.
        inter(&[]),
        join(&["grape", "kiwi"]),
        // Multiset size variant: duplicates are kept, priced, and part
        // of the §5.2 disclosure the telemetry counters must reproduce.
        SessionSpec {
            protocol: ProtocolKind::EquijoinSize,
            values: to_values(&["olive", "guava", "olive", "apple", "wrong"]),
            shards: 1,
        },
        // Sharding is client-elected: this session announces 3 buckets
        // with a spill-forcing memory budget, and the daemon adopts
        // them mid-connection while every other session stays on the
        // unsharded path. Same isolation contract, same baseline
        // comparison — the bucketed frames and spill machinery must
        // survive the fault schedules byte-for-byte too.
        SessionSpec {
            protocol: ProtocolKind::Intersection,
            values: to_values(&["mango", "lemon", "olive", "melon", "apple", "grape"]),
            shards: 3,
        },
        join(&["durian"]),
    ]
}

/// A session's client-side config: its bucket count and a budget small
/// enough that the external sorter genuinely spills even at these set
/// sizes. Must be identical in the solo baseline and every
/// concurrent run — the deterministic `spill_done` events are part of
/// the compared trace digests.
fn shard_cfg_for(spec: &SessionSpec) -> ShardConfig {
    ShardConfig {
        shards: spec.shards,
        mem_budget: 1 << 10,
        ..ShardConfig::default()
    }
}

/// Per-session client randomness: distinct per session, identical
/// between the solo baseline and every concurrent run.
fn client_rng(session: u32) -> StdRng {
    StdRng::seed_from_u64(0xC11E_0000 ^ u64::from(session).wrapping_mul(0x9E37_79B9))
}

/// What the client side of one session produced.
#[derive(Debug, PartialEq)]
enum Answer {
    Intersection(Vec<Vec<u8>>),
    Equijoin(Vec<(Vec<u8>, Vec<u8>)>),
    /// The `-size` variants answer with a bare cardinality.
    Count(u64),
}

/// Runs one client session over `transport` and returns its answer plus
/// byte counts. Used identically for the solo baseline and the
/// concurrent runs — only the transport differs.
fn run_client<T: minshare_net::Transport>(
    spec: &SessionSpec,
    session: u32,
    transport: T,
    pool: &EncryptPool,
) -> Result<(Answer, ClientTraffic), ProtocolError> {
    let g = group();
    let mut rng = client_rng(session);
    let (pipe, cfg) = (PipelineConfig::default(), shard_cfg_for(spec));
    match spec.protocol {
        ProtocolKind::Intersection => {
            let (out, traffic) = run_client_intersection_sharded(
                transport,
                &g,
                &spec.values,
                &mut rng,
                pool,
                pipe,
                &cfg,
            )?;
            Ok((Answer::Intersection(out.intersection), traffic))
        }
        ProtocolKind::Equijoin => {
            let (out, traffic) = run_client_equijoin_sharded(
                transport,
                &g,
                &spec.values,
                &mut rng,
                pool,
                pipe,
                32,
                &cfg,
            )?;
            Ok((Answer::Equijoin(out.matches), traffic))
        }
        ProtocolKind::IntersectionSize => {
            let (out, traffic) = run_client_intersection_size_sharded(
                transport,
                &g,
                &spec.values,
                &mut rng,
                pool,
                pipe,
                &cfg,
            )?;
            Ok((Answer::Count(out.intersection_size as u64), traffic))
        }
        ProtocolKind::EquijoinSize => {
            let (out, traffic) = run_client_equijoin_size_sharded(
                transport,
                &g,
                &spec.values,
                &mut rng,
                pool,
                pipe,
                &cfg,
            )?;
            Ok((Answer::Count(out.join_size), traffic))
        }
    }
}

/// Everything one session's two halves produced, compared wholesale
/// between solo and concurrent runs.
#[derive(Debug, PartialEq)]
struct SessionOutcome {
    answer: Answer,
    traffic: ClientTraffic,
    report: SessionReport,
    /// Order-sensitive digest of the server side's deterministic trace
    /// events for this session.
    digest: u64,
}

/// What the server handler recorded for one session.
struct ServerSide {
    report: Result<SessionReport, String>,
    digest: u64,
}

/// Solo baseline: the same session id, request, and client seed as the
/// concurrent run, but over a private perfect duplex link with nothing
/// else happening. This is the ground truth every concurrent run must
/// reproduce byte-for-byte.
fn solo_baseline(service: &Arc<Service>, session: u32, spec: &SessionSpec) -> SessionOutcome {
    let (server_t, client_t) = minshare_net::duplex_pair();
    let request = SessionRequest::new(spec.protocol).encode();
    let svc = Arc::clone(service);
    let server = std::thread::spawn(move || {
        let ring = Arc::new(RingSink::new(1 << 14));
        let sink: Arc<dyn minshare_trace::TraceSink> = ring.clone();
        let _installed = minshare_trace::install(Tracer::to_sink(sink));
        let report = svc.handle(session, &request, server_t);
        (report, ring.digest())
    });
    let pool = EncryptPool::new(0);
    let (answer, traffic) = run_client(spec, session, client_t, &pool).expect("solo session");
    let (report, digest) = server.join().expect("solo server thread");
    SessionOutcome {
        answer,
        traffic,
        report: report.expect("solo report"),
        digest,
    }
}

/// Runs the whole concurrent matrix once under the fault schedule for
/// `seed`: 8 well-behaved sessions + 2 rogue peers over one mux
/// connection on a jittery, stalling simulated link. Returns per-session client
/// outcomes, per-session server records, and the connection stats.
#[allow(clippy::type_complexity)]
fn run_concurrent(
    service: &Arc<Service>,
    seed: u64,
) -> (
    HashMap<u32, (Answer, ClientTraffic)>,
    HashMap<u32, ServerSide>,
    minshare_net::ServerStats,
) {
    let specs = session_specs();
    let plan = FaultPlan::from_seed(seed);
    let sim = SimConfig {
        latency_ms: 1,
        // The mux's readers wait in virtual-millisecond steps, and every
        // quiet step advances the virtual clock; a protocol's worth of
        // steps burns virtual time far faster than wall time, so the
        // deadline is effectively "never" and the wall-clock backstop is
        // the real hang guard.
        run_deadline_ms: 1 << 40,
        real_backstop_ms: 120_000,
    };
    let (server_end, client_end, _trace) = sim_pair(sim, &plan);

    let mux = MuxConfig::default();
    let registry = SessionRegistry::new(64);
    let shutdown = ShutdownHandle::new();
    let server_sides: Arc<Mutex<HashMap<u32, ServerSide>>> = Arc::new(Mutex::new(HashMap::new()));

    let svc = Arc::clone(service);
    let sides = Arc::clone(&server_sides);
    let server_mux = mux.clone();
    let server_registry = Arc::clone(&registry);
    let server_shutdown = shutdown.clone();
    let server = std::thread::spawn(move || {
        serve_mux_connection(
            server_end,
            &server_mux,
            &server_registry,
            &server_shutdown,
            None,
            |sid, request, session_t| {
                // Per-session tracer: the handler thread is the only
                // thread emitting this session's deterministic events.
                let ring = Arc::new(RingSink::new(1 << 14));
                let sink: Arc<dyn minshare_trace::TraceSink> = ring.clone();
                let _installed = minshare_trace::install(Tracer::to_sink(sink));
                let report = svc
                    .handle(sid, &request, session_t)
                    .map_err(|e| e.to_string());
                let mut map = sides.lock().unwrap_or_else(|e| e.into_inner());
                map.insert(
                    sid,
                    ServerSide {
                        report,
                        digest: ring.digest(),
                    },
                );
            },
        )
    });

    let mut client = MuxClient::new(client_end, mux);
    // Open in spec order so ids land 1..=8, matching the baselines.
    let mut opened = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let request = SessionRequest::new(spec.protocol).encode();
        let st = client.open_session(&request).expect("open well-behaved");
        assert_eq!(st.session_id(), i as u32 + 1);
        opened.push((i as u32 + 1, spec.clone(), st));
    }
    // Rogue peer #1: the OPEN payload is not a session request at all.
    // Admission happens before the handler looks at the payload, so the
    // open itself succeeds; the handler must fail *that session only*.
    let rogue_malformed = client
        .open_session(b"not a session request")
        .expect("open malformed rogue");
    assert_eq!(rogue_malformed.session_id(), MALFORMED_SID);
    // Rogue peer #2: a legal open, then the peer vanishes mid-protocol.
    let rogue_abort = client
        .open_session(&SessionRequest::new(ProtocolKind::Intersection).encode())
        .expect("open aborting rogue");
    assert_eq!(rogue_abort.session_id(), ABORT_SID);
    drop(rogue_abort);
    drop(rogue_malformed);

    // Drive all eight well-behaved sessions concurrently.
    let client_pool = EncryptPool::new(0);
    let mut outcomes: HashMap<u32, (Answer, ClientTraffic)> = HashMap::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (sid, spec, st) in opened {
            let pool = &client_pool;
            joins.push((
                sid,
                scope.spawn(move || run_client(&spec, sid, st, pool).expect("concurrent session")),
            ));
        }
        for (sid, join) in joins {
            outcomes.insert(sid, join.join().expect("client session thread"));
        }
    });

    client.close().expect("client close");
    let stats = server.join().expect("server thread").expect("server loop");
    let sides = Arc::try_unwrap(server_sides)
        .unwrap_or_else(|_| panic!("server sides still shared after join"))
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    (outcomes, sides, stats)
}

/// The headline matrix: for every seeded fault schedule, every
/// well-behaved session's concurrent outcome — answer, payload bytes in
/// both directions, §6.1 op counts, and server trace digest — is
/// byte-identical to its solo baseline, while two rogue peers fail with
/// typed per-session errors on the same connection.
#[test]
fn concurrent_sessions_match_solo_baselines_across_fault_schedules() {
    let service = Arc::new(make_service(2));
    let specs = session_specs();
    assert_eq!(specs.len(), WELL_BEHAVED as usize);

    // Ground truth, one solo run per session id.
    let baselines: HashMap<u32, SessionOutcome> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| (i as u32 + 1, solo_baseline(&service, i as u32 + 1, spec)))
        .collect();

    for seed in 0..SCHEDULES {
        let (outcomes, sides, stats) = run_concurrent(&service, seed);

        for sid in 1..=WELL_BEHAVED {
            let base = &baselines[&sid];
            let (answer, traffic) = &outcomes[&sid];
            let side = &sides[&sid];
            let report = side
                .report
                .as_ref()
                .unwrap_or_else(|e| panic!("seed {seed} session {sid} server error: {e}"));
            // Same answer, same payload bytes, same op counts, same
            // per-session server trace — as if the session ran alone.
            assert_eq!(answer, &base.answer, "seed {seed} session {sid} answer");
            assert_eq!(traffic, &base.traffic, "seed {seed} session {sid} traffic");
            assert_eq!(report, &base.report, "seed {seed} session {sid} report");
            assert_eq!(
                side.digest, base.digest,
                "seed {seed} session {sid} server trace digest"
            );
            // Cross-reconciliation inside the concurrent run itself.
            assert_eq!(report.bytes_sent, traffic.bytes_received);
            assert_eq!(report.bytes_received, traffic.bytes_sent);
        }

        // The rogue peers failed — typed, and only for themselves.
        let malformed = &sides[&MALFORMED_SID];
        let aborted = &sides[&ABORT_SID];
        assert!(
            malformed.report.is_err(),
            "seed {seed}: malformed OPEN must fail its own session"
        );
        assert!(
            aborted.report.is_err(),
            "seed {seed}: aborted peer must fail its own session"
        );

        // Connection accounting: everything opened, nothing shed.
        assert_eq!(stats.opened, u64::from(WELL_BEHAVED) + 2, "seed {seed}");
        assert_eq!(stats.rejected_busy, 0, "seed {seed}");
        assert_eq!(stats.shed_overflow, 0, "seed {seed}");
        assert_eq!(
            stats.completed + stats.closed_by_peer,
            u64::from(WELL_BEHAVED) + 2,
            "seed {seed}: every session accounted for exactly once"
        );
    }
}

/// Admission control: with a one-slot registry, a second OPEN while the
/// first session is still running is refused with a typed `Busy`
/// carrying the limit — and the surviving session's answer is exactly
/// its solo baseline.
#[test]
fn admission_cap_rejects_with_typed_busy_and_leaves_peers_unperturbed() {
    let service = Arc::new(make_service(0));
    let spec = &session_specs()[0];
    let baseline = solo_baseline(&service, 1, spec);

    let (server_t, client_t) = minshare_net::duplex_pair();
    let mux = MuxConfig::default();
    let registry = SessionRegistry::new(1);
    let shutdown = ShutdownHandle::new();
    let sides: Arc<Mutex<HashMap<u32, ServerSide>>> = Arc::new(Mutex::new(HashMap::new()));

    let svc = Arc::clone(&service);
    let sides_in = Arc::clone(&sides);
    let server_mux = mux.clone();
    let server_registry = Arc::clone(&registry);
    let server_shutdown = shutdown.clone();
    let server = std::thread::spawn(move || {
        serve_mux_connection(
            server_t,
            &server_mux,
            &server_registry,
            &server_shutdown,
            None,
            |sid, request, session_t| {
                let ring = Arc::new(RingSink::new(1 << 14));
                let sink: Arc<dyn minshare_trace::TraceSink> = ring.clone();
                let _installed = minshare_trace::install(Tracer::to_sink(sink));
                let report = svc
                    .handle(sid, &request, session_t)
                    .map_err(|e| e.to_string());
                sides_in.lock().unwrap_or_else(|e| e.into_inner()).insert(
                    sid,
                    ServerSide {
                        report,
                        digest: ring.digest(),
                    },
                );
            },
        )
    });

    let mut client = MuxClient::new(client_t, mux);
    let request = SessionRequest::new(spec.protocol).encode();
    let held = client.open_session(&request).expect("first open");
    assert_eq!(held.session_id(), 1);
    // The slot is held until session 1's handler finishes, which cannot
    // happen before we run the client side — so this OPEN must shed.
    match client.open_session(&request) {
        Err(NetError::Busy { limit }) => assert_eq!(limit, 1),
        other => panic!("expected typed Busy, got {other:?}"),
    }

    // The shed OPEN did not perturb the admitted session.
    let pool = EncryptPool::new(0);
    let (answer, traffic) = run_client(spec, 1, held, &pool).expect("held session");
    assert_eq!(answer, baseline.answer);
    assert_eq!(traffic, baseline.traffic);

    client.close().expect("client close");
    let stats = server.join().expect("server thread").expect("server loop");
    let sides = sides.lock().unwrap_or_else(|e| e.into_inner());
    let side = &sides[&1];
    assert_eq!(
        side.report.as_ref().expect("session 1 report"),
        &baseline.report
    );
    assert_eq!(side.digest, baseline.digest);
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.rejected_busy, 1);
}

/// Graceful shutdown: a session admitted before shutdown runs to
/// completion with its exact solo answer; an OPEN arriving after
/// shutdown is shed with a typed `Busy` even though the registry has
/// free capacity; the connection loop then drains and returns.
#[test]
fn graceful_shutdown_drains_active_sessions_and_sheds_new_opens() {
    let service = Arc::new(make_service(0));
    let spec = &session_specs()[4];
    let baseline = solo_baseline(&service, 1, spec);

    let (server_t, client_t) = minshare_net::duplex_pair();
    let mux = MuxConfig::default();
    let registry = SessionRegistry::new(8);
    let shutdown = ShutdownHandle::new();

    let svc = Arc::clone(&service);
    let server_mux = mux.clone();
    let server_registry = Arc::clone(&registry);
    let server_shutdown = shutdown.clone();
    let reports: Arc<Mutex<Vec<Result<SessionReport, String>>>> = Arc::new(Mutex::new(Vec::new()));
    let reports_in = Arc::clone(&reports);
    let server = std::thread::spawn(move || {
        serve_mux_connection(
            server_t,
            &server_mux,
            &server_registry,
            &server_shutdown,
            None,
            |sid, request, session_t| {
                let report = svc
                    .handle(sid, &request, session_t)
                    .map_err(|e| e.to_string());
                reports_in
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(report);
            },
        )
    });

    let mut client = MuxClient::new(client_t, mux);
    let request = SessionRequest::new(spec.protocol).encode();
    let admitted = client.open_session(&request).expect("open before shutdown");

    // Shutdown begins while the session is mid-flight: it must drain,
    // not be cut off.
    shutdown.shutdown();

    // A new OPEN after shutdown sheds even though 7 slots are free.
    match client.open_session(&request) {
        Err(NetError::Busy { .. }) => {}
        other => panic!("expected Busy while draining, got {other:?}"),
    }

    let pool = EncryptPool::new(0);
    let (answer, traffic) = run_client(spec, 1, admitted, &pool).expect("drained session");
    assert_eq!(answer, baseline.answer);
    assert_eq!(traffic, baseline.traffic);

    // The server loop exits on its own once the session drains — no
    // client GOAWAY needed.
    let stats = server.join().expect("server thread").expect("server loop");
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.rejected_busy, 1);
    assert_eq!(stats.completed + stats.closed_by_peer, 1);
    let reports = reports.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(reports.len(), 1);
    assert_eq!(
        reports[0].as_ref().expect("drained report"),
        &baseline.report
    );
    drop(client);
}

/// Live telemetry over the STATS frame: run the full well-behaved
/// matrix with the daemon's metrics registry wired in (a `TeeSink`
/// beside each per-session ring, exactly as `minshare serve` wires it),
/// scrape the endpoint mid-connection, and check the snapshot against
/// ground truth computed by the harness itself — lifecycle counters, a
/// populated per-protocol latency histogram, and per-peer cumulative
/// size-disclosure totals exactly equal to the §5.2 leakage model.
#[test]
fn stats_endpoint_reports_lifecycle_histograms_and_leakage_ground_truth() {
    const PEER: u64 = 7;
    let service = Arc::new(make_service(2));
    let specs = session_specs();

    // The same registrations `minshare serve` performs at startup.
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
    let provider: StatsProvider = {
        let m = Arc::clone(&metrics);
        Arc::new(move || m.snapshot_json().into_bytes())
    };

    let (server_t, client_t) = minshare_net::duplex_pair();
    let mux = MuxConfig::default();
    let registry = SessionRegistry::new(64);
    let shutdown = ShutdownHandle::new();
    let done: Arc<Mutex<HashMap<u32, SessionReport>>> = Arc::new(Mutex::new(HashMap::new()));

    let svc = Arc::clone(&service);
    let done_in = Arc::clone(&done);
    let metrics_in = Arc::clone(&metrics);
    let server_mux = mux.clone();
    let server_registry = Arc::clone(&registry);
    let server_shutdown = shutdown.clone();
    let server = std::thread::spawn(move || {
        // The connection thread's lifecycle events feed the registry;
        // handler threads wire their own tee below (tracers are
        // thread-local and handler threads are spawned per session).
        let _conn_trace = minshare_trace::install(Tracer::to_sink(Arc::new(RegistrySink::new(
            Arc::clone(&metrics_in),
        ))));
        serve_mux_connection(
            server_t,
            &server_mux,
            &server_registry,
            &server_shutdown,
            Some(provider),
            |sid, request, session_t| {
                let ring = Arc::new(RingSink::new(1 << 14));
                let sink: Arc<dyn minshare_trace::TraceSink> = Arc::new(TeeSink::new(vec![
                    ring,
                    Arc::new(RegistrySink::new(Arc::clone(&metrics_in))),
                ]));
                let _installed = minshare_trace::install(Tracer::to_sink(sink));
                let report = svc
                    .handle_for_peer(PEER, sid, &request, session_t)
                    .expect("telemetry matrix session");
                done_in
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(sid, report);
            },
        )
    });

    let mut client = MuxClient::new(client_t, mux);
    let mut opened = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let st = client
            .open_session(&SessionRequest::new(spec.protocol).encode())
            .expect("open telemetry session");
        assert_eq!(st.session_id(), i as u32 + 1);
        opened.push((i as u32 + 1, spec.clone(), st));
    }
    let client_pool = EncryptPool::new(0);
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (sid, spec, st) in opened {
            let pool = &client_pool;
            joins.push(scope.spawn(move || run_client(&spec, sid, st, pool).expect("session")));
        }
        for join in joins {
            join.join().expect("client session thread");
        }
    });

    // A handler records its report only after every telemetry event for
    // its session has been emitted; wait for all of them so the scrape
    // below is deterministic, not racing the handlers' tails.
    for _ in 0..2000 {
        if done.lock().unwrap_or_else(|e| e.into_inner()).len() == specs.len() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let learned_total: u64 = {
        let g = done.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(g.len(), specs.len(), "all handlers recorded a report");
        g.values().map(|r| r.peer_set_size as u64).sum()
    };

    // Ground truth from the leakage model: each set-protocol session
    // reveals the daemon's distinct value count to its peer, and the
    // multiset variant (equijoin-size) its occurrence count.
    let server_values: Vec<Vec<u8>> = server_entries().into_iter().map(|(v, _)| v).collect();
    let distinct: u64 = minshare::leakage::bucket_size_disclosure(&server_values, 1, &|_| 0)
        .iter()
        .sum();
    let multiset: u64 = minshare::leakage::bucket_multiset_disclosure(&server_values, 1, &|_| 0)
        .iter()
        .sum();
    let revealed_total: u64 = specs
        .iter()
        .map(|s| {
            if s.protocol.discloses_multiset() {
                multiset
            } else {
                distinct
            }
        })
        .sum();
    let intersections = specs
        .iter()
        .filter(|s| s.protocol == ProtocolKind::Intersection)
        .count() as u64;

    // Scrape the live endpoint mid-connection — this is the exact
    // payload `minshare stats` prints.
    let scraped = client.fetch_stats().expect("stats scrape");
    let json = String::from_utf8(scraped).expect("snapshot is utf-8");
    assert!(json.contains("\"stats_version\":1"), "version: {json}");
    assert!(
        json.contains(&format!("\"server/session_open/events\":{},", specs.len())),
        "lifecycle counters in scrape: {json}"
    );
    assert!(
        json.contains(&format!(
            "\"leakage/size_disclosure/revealed{{peer={PEER}}}\":{revealed_total},"
        )),
        "per-peer revealed total in scrape: {json}"
    );
    assert!(
        json.contains(&format!(
            "\"leakage/size_disclosure/learned{{peer={PEER}}}\":{learned_total},"
        )),
        "per-peer learned total in scrape: {json}"
    );
    assert!(
        json.contains(&format!(
            "\"protocol/intersection/duration_ns\":{{\"count\":{intersections},"
        )),
        "populated latency histogram in scrape: {json}"
    );

    client.close().expect("client close");
    let stats = server.join().expect("server thread").expect("server loop");
    assert_eq!(stats.opened, specs.len() as u64);
    assert_eq!(stats.stats_served, 1);

    // Post-drain registry: full lifecycle accounting, both latency
    // histograms populated exactly once per session, and the cumulative
    // per-peer disclosure counters equal to the leakage-model totals.
    assert_eq!(
        metrics.counter("server", "session_open", "events"),
        specs.len() as u64
    );
    assert_eq!(
        metrics.counter("server", "session_complete", "events")
            + metrics.counter("server", "closed_by_peer", "events"),
        specs.len() as u64,
        "every session reaped exactly once"
    );
    assert_eq!(metrics.counter("server", "drained", "events"), 1);
    assert_eq!(metrics.counter("server", "stats_served", "events"), 1);
    let inter = metrics
        .histogram("protocol", "intersection", "duration_ns")
        .expect("intersection latency histogram");
    assert_eq!(inter.count(), intersections);
    assert!(inter.sum() > 0, "latency sums are nonzero");
    let equijoins = specs
        .iter()
        .filter(|s| s.protocol == ProtocolKind::Equijoin)
        .count() as u64;
    let join_h = metrics
        .histogram("protocol", "equijoin", "duration_ns")
        .expect("equijoin latency histogram");
    assert_eq!(join_h.count(), equijoins);
    // Every protocol kind that ran left a latency histogram, including
    // the size variants.
    for kind in [ProtocolKind::IntersectionSize, ProtocolKind::EquijoinSize] {
        let h = metrics
            .histogram("protocol", kind.name(), "duration_ns")
            .unwrap_or_else(|| panic!("{} latency histogram", kind.name()));
        assert_eq!(h.count(), 1);
    }
    assert_eq!(
        metrics.counter_labeled("leakage", "size_disclosure", "revealed", "peer", PEER),
        revealed_total
    );
    assert_eq!(
        metrics.counter_labeled("leakage", "size_disclosure", "learned", "peer", PEER),
        learned_total
    );
    assert!(
        metrics.counter("pool", "submit", "events") > 0,
        "pool telemetry flowed through the handler tracers"
    );
}
