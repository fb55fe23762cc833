//! The load generator: closed-loop client threads driving daemon sessions
//! through the same public calls `minshare client` makes — one TCP
//! connection per session, `TcpTransport::connect` →
//! `MuxClient::open_session` → `run_client_*_sharded` →
//! `MuxClient::close` — and checking every answer against ground truth.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use minshare::prelude::*;
use minshare::service::ClientTraffic;
use minshare_net::tcp::TcpTransport;
use minshare_net::{MuxClient, MuxConfig, Transport};
use minshare_trace::metrics::{MetricsRegistry, RegistrySink};
use minshare_trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::daemon::spill_dir;
use crate::gen::Truth;
use crate::spec::Workload;
use crate::tracefile::Tracefile;

/// The four calls a session consists of, in order. A session's latency is
/// the sum of their spans.
pub const SPAN_NAMES: [&str; 4] = ["connect", "open", "protocol", "close"];
const SPAN_LAYERS: [&str; 4] = ["net", "net", "core", "net"];

/// Everything a client thread needs that is the same for all sessions.
pub struct ClientEnv<'a> {
    /// Daemon address.
    pub addr: &'a str,
    /// The well-known group both sides use.
    pub group: &'a QrGroup,
    /// Workload shape (protocol cycle, sharding, record length).
    pub workload: &'a Workload,
    /// Per-run scratch directory (holds the spill dir).
    pub dir: &'a Path,
    /// Run seed; per-session key seeds derive from it.
    pub seed: u64,
}

/// One client's private input and the answer it must get.
pub struct ClientInput {
    /// `V_R` in value-file order.
    pub values: Vec<Vec<u8>>,
    /// Ground truth against the daemon's set.
    pub truth: Truth,
}

/// What one session did.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Protocol requested.
    pub protocol: ProtocolKind,
    /// `None` when the session completed with the right answer;
    /// otherwise what went wrong (transport failure, `Busy` refusal,
    /// protocol error, or a wrong answer).
    pub error: Option<String>,
    /// Seconds spent in connect, open, protocol, close.
    pub spans_s: [f64; 4],
    /// Payload bytes this client sent and received.
    pub traffic: ClientTraffic,
    /// §6.1 cost units this client spent.
    pub ops: OpCounters,
}

impl Outcome {
    /// Connect→close latency: the four spans are contiguous, so their sum
    /// is the session's wall time (minus harness bookkeeping between
    /// protocol and close on a pass's last session).
    pub fn latency_s(&self) -> f64 {
        self.spans_s.iter().sum()
    }
}

/// Spans and client-side counters of a traced pass.
pub struct Tracing<'a> {
    /// Where spans go.
    pub tracefile: &'a Tracefile,
    /// Registry the client threads' `RegistrySink`s feed (spill and pool
    /// counts of the receiver engines).
    pub registry: Arc<MetricsRegistry>,
}

/// The sessions of one pass, per client, plus its wall time.
pub struct Pass {
    /// `outcomes[client][i]`.
    pub outcomes: Vec<Vec<Outcome>>,
    /// Barrier release → last client done, minus the last-session hook.
    pub wall_s: f64,
}

impl Pass {
    /// All outcomes, clients concatenated.
    pub fn all(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().flatten()
    }

    /// The sessions that completed with the right answer.
    pub fn ok(&self) -> impl Iterator<Item = &Outcome> {
        self.all().filter(|o| o.error.is_none())
    }
}

/// What the receiver engines returned, reduced to what is checked.
pub(crate) enum Answer {
    Values(Vec<Vec<u8>>),
    Matches(Vec<(Vec<u8>, Vec<u8>)>),
    Size(u64),
}

fn check(
    protocol: ProtocolKind,
    answer: Answer,
    peer_set_size: usize,
    truth: &Truth,
) -> Result<(), String> {
    if peer_set_size != truth.sender_set_size {
        return Err(format!(
            "peer_set_size {peer_set_size}, expected {}",
            truth.sender_set_size
        ));
    }
    let right = match answer {
        Answer::Values(mut got) => {
            got.sort();
            got == truth.intersection()
        }
        Answer::Matches(mut got) => {
            got.sort();
            got == truth.matches
        }
        // No duplicates are generated, so both sizes equal the overlap.
        Answer::Size(got) => got == truth.matches.len() as u64,
    };
    if right {
        Ok(())
    } else {
        Err(format!("wrong {} answer", protocol.name()))
    }
}

/// Runs the receiver side of `protocol` over an open session (or, for
/// the in-process replay, over a duplex endpoint).
pub(crate) fn run_protocol<T: Transport>(
    env: &ClientEnv<'_>,
    session: T,
    protocol: ProtocolKind,
    values: &[Vec<u8>],
    rng: &mut StdRng,
) -> Result<(Answer, usize, ClientTraffic, OpCounters), ProtocolError> {
    // As in `minshare client`: a worker-less pool, default chunking, and
    // the sharding knobs from the command line.
    let pool = EncryptPool::new(0);
    let config = PipelineConfig::default();
    let w = env.workload;
    let shard_cfg = ShardConfig {
        shards: w.shards,
        mem_budget: w
            .mem_budget
            .unwrap_or_else(|| ShardConfig::default().mem_budget),
        spill_dir: Some(spill_dir(env.dir)),
        ..ShardConfig::default()
    };
    let g = env.group;
    Ok(match protocol {
        ProtocolKind::Intersection => {
            let (out, traffic) = run_client_intersection_sharded(
                session, g, values, rng, &pool, config, &shard_cfg,
            )?;
            (
                Answer::Values(out.intersection),
                out.peer_set_size,
                traffic,
                out.ops,
            )
        }
        ProtocolKind::Equijoin => {
            let (out, traffic) = run_client_equijoin_sharded(
                session,
                g,
                values,
                rng,
                &pool,
                config,
                w.record_len,
                &shard_cfg,
            )?;
            (
                Answer::Matches(out.matches),
                out.peer_set_size,
                traffic,
                out.ops,
            )
        }
        ProtocolKind::IntersectionSize => {
            let (out, traffic) = run_client_intersection_size_sharded(
                session, g, values, rng, &pool, config, &shard_cfg,
            )?;
            (
                Answer::Size(out.intersection_size as u64),
                out.peer_set_size,
                traffic,
                out.ops,
            )
        }
        ProtocolKind::EquijoinSize => {
            let (out, traffic) = run_client_equijoin_size_sharded(
                session, g, values, rng, &pool, config, &shard_cfg,
            )?;
            (
                Answer::Size(out.join_size),
                out.peer_multiset_size,
                traffic,
                out.ops,
            )
        }
    })
}

/// When each of a session's four calls ended, for the span log.
struct Marks {
    start: Instant,
    /// End of connect, open, protocol, close (`None` = never reached).
    ends: [Option<Instant>; 4],
    /// Start of the close call (the last-session hook sits before it).
    close_start: Instant,
}

/// One session, connect to close. `before_close` runs between the
/// protocol and the close (outside every span) — the pass's last session
/// uses it to read the still-running daemon.
fn run_session(
    env: &ClientEnv<'_>,
    protocol: ProtocolKind,
    input: &ClientInput,
    key_seed: u64,
    before_close: impl FnOnce(),
) -> (Outcome, Marks) {
    let mut out = Outcome {
        protocol,
        error: None,
        spans_s: [0.0; 4],
        traffic: ClientTraffic::default(),
        ops: OpCounters::default(),
    };
    let start = Instant::now();
    let mut marks = Marks {
        start,
        ends: [None; 4],
        close_start: start,
    };
    // Ends span `i`, which began at `from`.
    let mut end_span = |out: &mut Outcome, i: usize, from: Instant| {
        let now = Instant::now();
        out.spans_s[i] = now.duration_since(from).as_secs_f64();
        marks.ends[i] = Some(now);
        now
    };

    let tcp = TcpTransport::connect(env.addr);
    let connected = end_span(&mut out, 0, start);
    let opened = tcp.and_then(|tcp| {
        let mut client = MuxClient::new(tcp, MuxConfig::default());
        // A typed `Busy` refusal lands in the error arm too: refused is
        // failed.
        let session = client.open_session(&SessionRequest::new(protocol).encode())?;
        Ok((client, session))
    });
    let (client, session) = match opened {
        Ok(pair) => pair,
        Err(e) => {
            out.error = Some(format!("connect/open: {e}"));
            before_close();
            return (out, marks);
        }
    };
    let opened_at = end_span(&mut out, 1, connected);

    let mut rng = StdRng::seed_from_u64(key_seed);
    let result = run_protocol(env, session, protocol, &input.values, &mut rng);
    end_span(&mut out, 2, opened_at);
    match result {
        Ok((answer, peer_set_size, traffic, ops)) => {
            out.traffic = traffic;
            out.ops = ops;
            out.error = check(protocol, answer, peer_set_size, &input.truth).err();
        }
        Err(e) => out.error = Some(format!("protocol: {e}")),
    }

    before_close();
    let close_start = Instant::now();
    let closed = client.close();
    end_span(&mut out, 3, close_start);
    marks.close_start = close_start;
    if let (Err(e), None) = (closed, &out.error) {
        out.error = Some(format!("close: {e}"));
    }
    (out, marks)
}

/// Runs one closed-loop pass: every client runs `cycles` rounds of the
/// workload's protocol cycle, a new connection per session, the next
/// session starting only when the previous one has closed. With
/// `tracing`, each session's calls are recorded as spans and the client
/// thread feeds a `RegistrySink`. `last_hook` runs once, in whichever
/// session finishes its protocol last, before that session closes.
pub fn run_pass(
    env: &ClientEnv<'_>,
    inputs: &[ClientInput],
    cycles: usize,
    pass_id: u64,
    tracing: Option<&Tracing<'_>>,
    last_hook: Option<&(dyn Fn() + Sync)>,
) -> Pass {
    let cycle = env.workload.cycle;
    let per_client = cycles * cycle.len();
    let remaining = AtomicUsize::new(per_client * inputs.len());
    let barrier = Barrier::new(inputs.len() + 1);
    let (outcomes, walls): (Vec<Vec<Outcome>>, Vec<f64>) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(c, input)| {
                let (remaining, barrier) = (&remaining, &barrier);
                scope.spawn(move || {
                    let mut outcomes = Vec::with_capacity(per_client);
                    let mut paused_s = 0.0;
                    barrier.wait();
                    let started = Instant::now();
                    for i in 0..per_client {
                        // Client c enters the cycle at step c, so concurrent
                        // clients run sessions of different lengths and do
                        // not stay in (or out of) phase for a whole run.
                        let protocol = cycle[(i + c) % cycle.len()];
                        // Distinct keys per (pass, client, session), same
                        // for the same run seed.
                        let ordinal = (pass_id << 40) | ((c as u64) << 32) | i as u64;
                        let key_seed = env.seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let _sink = tracing.map(|t| {
                            minshare_trace::install(Tracer::to_sink(Arc::new(RegistrySink::new(
                                Arc::clone(&t.registry),
                            ))))
                        });
                        let hook = || {
                            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                if let Some(hook) = last_hook {
                                    let paused = Instant::now();
                                    hook();
                                    paused_s += paused.elapsed().as_secs_f64();
                                }
                            }
                        };
                        let (outcome, marks) = run_session(env, protocol, input, key_seed, hook);
                        if let Some(t) = tracing {
                            record_spans(t.tracefile, c + 1, ordinal, &marks);
                        }
                        outcomes.push(outcome);
                    }
                    (outcomes, started.elapsed().as_secs_f64() - paused_s)
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    Pass {
        outcomes,
        wall_s: walls.into_iter().fold(0.0, f64::max),
    }
}

fn record_spans(log: &Tracefile, thread: usize, session: u64, marks: &Marks) {
    let parent = log.reserve_id();
    let mut from = marks.start;
    let mut last = marks.start;
    for (i, end) in marks.ends.iter().enumerate() {
        // A session that failed early never reached its later calls.
        let Some(end) = *end else { break };
        if i == 3 {
            from = marks.close_start;
        }
        log.record(
            0,
            parent,
            SPAN_NAMES[i],
            SPAN_LAYERS[i],
            thread,
            session,
            from,
            end,
        );
        from = end;
        last = end;
    }
    log.record(
        parent,
        0,
        "session",
        "bench",
        thread,
        session,
        marks.start,
        last,
    );
}
