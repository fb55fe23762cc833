//! Layer replays: each layer timed from outside, through its public
//! functions, at the workload's own sizes. The unit costs measured here
//! are multiplied by the op counts of the real sessions to split a
//! session's CPU time into the per-layer budget.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use minshare::prelude::*;
use minshare::prepare::prepare_set;
use minshare::wire::{Message, DEFAULT_CHUNK_SIZE};
use minshare_bignum::montgomery::MontgomeryCtx;
use minshare_bignum::{FixedExponentPlan, UBig};
use minshare_hash::RandomOracle;
use minshare_net::tcp::{TcpAcceptor, TcpTransport};
use minshare_net::{
    serve_mux_connection, MuxClient, MuxConfig, NetError, SessionRegistry, ShutdownHandle,
    StatsProvider, Transport,
};
use minshare_trace::metrics::{MetricsRegistry, RegistrySink};
use minshare_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::daemon::spill_dir;
use crate::gen::Inputs;
use crate::loadgen::{run_protocol, ClientEnv};
use crate::spec::Workload;
use crate::stats::median;
use crate::tracefile::Tracefile;

/// Frames at or below this size are echoed by the replay servers; larger
/// ones are swallowed, so a one-way bulk stream cannot deadlock on full
/// socket buffers.
const ECHO_LIMIT: usize = 1024;
/// Ping-pong payload.
const PING_BYTES: usize = 128;
/// Bulk frame: one 32-codeword chunk at 1024 bits.
const BULK_FRAME_BYTES: usize = 4096;

/// What the replays need to know about the run.
pub struct ReplayEnv<'a> {
    /// The 1024-bit group.
    pub group: &'a QrGroup,
    /// The workload being replayed.
    pub workload: &'a Workload,
    /// The run's generated inputs.
    pub inputs: &'a Inputs,
    /// Per-run scratch directory.
    pub dir: &'a Path,
    /// Run seed.
    pub seed: u64,
    /// Divides repetition counts at smoke scale.
    pub smoke: bool,
}

/// Seconds `f` takes.
fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Median of `reps` timings of `f`, in microseconds per `items`.
fn median_us_per_item<R>(reps: usize, items: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| secs(&mut f)).collect();
    median(&samples) * 1e6 / items.max(1) as f64
}

/// Runs every replay, each under a span named after its metric, and
/// returns `metric name → value`.
pub fn replay_all(
    env: &ReplayEnv<'_>,
    log: &Tracefile,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    let shrink = |n: usize| if env.smoke { (n / 8).max(1) } else { n };
    let mut rng = StdRng::seed_from_u64(env.seed ^ 0x6c61_7965_7273);
    let g = env.group;
    let receiver = &env.inputs.receivers[0];

    // bignum: the paper's Ce, batched as the engines run it and single.
    let key = g.gen_key(&mut rng);
    let ctx = Arc::new(MontgomeryCtx::new(g.modulus()).map_err(|e| e.to_string())?);
    let plan = FixedExponentPlan::new(Arc::clone(&ctx), key.exponent());
    let bases: Vec<UBig> = (0..shrink(256))
        .map(|_| g.sample_element(&mut rng))
        .collect();
    m.insert(
        "bignum.modexp_us",
        log.time("bignum.modexp_us", "bignum", || {
            median_us_per_item(3, bases.len(), || plan.pow_batch(&bases))
        }),
    );
    let few = &bases[..bases.len().min(32)];
    m.insert(
        "bignum.modexp_single_us",
        log.time("bignum.modexp_single_us", "bignum", || {
            median_us_per_item(3, few.len(), || {
                few.iter()
                    .map(|b| g.pow(b, key.exponent()))
                    .collect::<Vec<_>>()
            })
        }),
    );
    m.insert(
        "bignum.jacobi_us",
        log.time("bignum.jacobi_us", "bignum", || {
            median_us_per_item(3, bases.len(), || {
                bases
                    .iter()
                    .filter(|b| b.jacobi(g.modulus()).is_ok())
                    .count()
            })
        }),
    );
    m.insert("bignum.simd_active", f64::from(u8::from(ctx.simd_active())));

    // hashcore / crypto: Ch and the hash into the group.
    let oracle = RandomOracle::new(b"minshare-benchmark/replay");
    let wide = (g.modulus().bit_len() as usize + 128).div_ceil(8);
    let hash_reps = shrink(2048).div_ceil(receiver.len());
    m.insert(
        "hashcore.oracle_expand_us",
        log.time("hashcore.oracle_expand_us", "hashcore", || {
            median_us_per_item(hash_reps.max(3), receiver.len(), || {
                receiver
                    .iter()
                    .map(|v| oracle.expand(v, wide).len())
                    .sum::<usize>()
            })
        }),
    );
    m.insert(
        "crypto.hash_to_group_us",
        log.time("crypto.hash_to_group_us", "crypto", || {
            median_us_per_item(hash_reps.max(3), receiver.len(), || {
                receiver
                    .iter()
                    .map(|v| g.hash_to_group(v))
                    .collect::<Vec<_>>()
            })
        }),
    );

    // crypto pool: inline (what the client builds) against two parties
    // (what the daemon builds), same batch.
    let inline_pool = EncryptPool::new(0);
    let daemon_pool = EncryptPool::new(2);
    let inline = log.time("crypto.pool_inline_us_per_item", "crypto", || {
        median_us_per_item(3, bases.len(), || {
            inline_pool.encrypt_batch(g, &key, &bases)
        })
    });
    let pooled = log.time("crypto.pool_2w_us_per_item", "crypto", || {
        median_us_per_item(3, bases.len(), || {
            daemon_pool.encrypt_batch(g, &key, &bases)
        })
    });
    m.insert("crypto.pool_inline_us_per_item", inline);
    m.insert("crypto.pool_2w_us_per_item", pooled);
    m.insert("crypto.pool_speedup", inline / pooled);
    m.insert(
        "crypto.pool_dispatch_us",
        daemon_pool.dispatch_overhead_ns() as f64 / 1e3,
    );

    // Key generation plus the first-use plan build, net of the Ce itself.
    let one = &bases[..1];
    m.insert(
        "crypto.keygen_us",
        log.time("crypto.keygen_us", "crypto", || {
            let samples: Vec<f64> = (0..shrink(16))
                .map(|_| {
                    let mut fresh = None;
                    let gen = secs(|| fresh = Some(g.gen_key(&mut rng)));
                    let fresh = fresh.expect("gen_key ran");
                    let first = secs(|| g.encrypt_many(&fresh, one));
                    let second = secs(|| g.encrypt_many(&fresh, one));
                    (gen + (first - second).max(0.0)) * 1e6
                })
                .collect();
            median(&samples)
        }),
    );

    // The payload cipher at the daemon's record length.
    let cipher = HybridCipher::new(g.clone(), env.workload.record_len);
    let record = vec![0x5au8; env.workload.record_len];
    let kappa = &bases[0];
    m.insert(
        "crypto.kcipher_us_per_record",
        log.time("crypto.kcipher_us_per_record", "crypto", || {
            let n = shrink(512);
            median_us_per_item(3, 2 * n, || {
                for _ in 0..n {
                    let sealed = cipher.encrypt(kappa, &record).expect("replay payload fits");
                    std::hint::black_box(cipher.decrypt(kappa, &sealed).expect("round trip"));
                }
            })
        }),
    );

    // core: set preparation, wire codec, external sorter.
    m.insert(
        "core.prepare_set_us_per_value",
        log.time("core.prepare_set_us_per_value", "core", || {
            median_us_per_item(3, receiver.len(), || {
                prepare_set(g, receiver, &mut OpCounters::default()).map(|p| p.len())
            })
        }),
    );
    let chunk = Message::Codewords(bases[..bases.len().min(DEFAULT_CHUNK_SIZE)].to_vec());
    let chunk_len = bases.len().min(DEFAULT_CHUNK_SIZE);
    let frame = chunk.encode(g).map_err(|e| e.to_string())?;
    let codec_reps = shrink(64);
    m.insert(
        "core.wire_encode_us_per_codeword",
        log.time("core.wire_encode_us_per_codeword", "core", || {
            median_us_per_item(codec_reps, chunk_len, || chunk.encode(g).map(|f| f.len()))
        }),
    );
    m.insert(
        "core.wire_decode_us_per_codeword",
        log.time("core.wire_decode_us_per_codeword", "core", || {
            median_us_per_item(codec_reps, chunk_len, || Message::decode(&frame, g).is_ok())
        }),
    );
    m.insert(
        "core.spill_us_per_record",
        log.time("core.spill_us_per_record", "core", || {
            spill_replay(env, &mut rng)
        })?,
    );

    // core: the whole engine without net or cli.
    m.insert(
        "core.engine_inproc_s",
        log.time("core.engine_inproc_s", "core", || engine_inproc(env))?,
    );

    // net: raw TCP, then the mux on top of it.
    m.extend(log.time("net.tcp", "net", || tcp_replay(shrink(64)))?);
    m.extend(log.time("net.mux", "net", || mux_replay(shrink(32)))?);

    // trace: what one registry-bound event costs its emitter.
    m.insert(
        "trace.registry_event_ns",
        log.time("trace.registry_event_ns", "trace", || {
            let registry = Arc::new(MetricsRegistry::new());
            let _sink = minshare_trace::install(Tracer::to_sink(Arc::new(RegistrySink::new(
                Arc::clone(&registry),
            ))));
            let events = shrink(65_536);
            secs(|| {
                for i in 0..events as u64 {
                    minshare_trace::emit("benchmark", "probe", false, || {
                        vec![
                            minshare_trace::count("items", i & 31),
                            minshare_trace::size("bytes", 4096),
                        ]
                    });
                }
            }) * 1e9
                / events as f64
        }),
    );
    Ok(m)
}

/// `ExtSorter` push / finish / drain over as many receiver-width records
/// as the workload has values, under the workload's sort budget (32 KiB
/// when it sets none).
fn spill_replay(env: &ReplayEnv<'_>, rng: &mut StdRng) -> Result<f64, String> {
    let width = 4 + env.group.codeword_bytes() + 4;
    let budget = env.workload.mem_budget.unwrap_or(32 * 1024);
    let records: Vec<Vec<u8>> = (0..env.workload.set_size)
        .map(|_| {
            let mut r = vec![0u8; width];
            rng.fill_bytes(&mut r);
            r
        })
        .collect();
    let mut drained = 0usize;
    let us = median_us_per_item(3, records.len(), || -> Result<(), ProtocolError> {
        let mut sorter = ExtSorter::new(width, budget, &spill_dir(env.dir))?;
        for r in &records {
            sorter.push_record(r)?;
        }
        let (mut stream, _) = sorter.finish()?;
        while stream.next_record()?.is_some() {
            drained += 1;
        }
        Ok(())
    });
    if drained != 3 * records.len() {
        return Err(format!(
            "spill replay drained {drained} of {} records",
            3 * records.len()
        ));
    }
    Ok(us)
}

/// The workload's protocols once each over the in-memory duplex: the
/// daemon's `Service` (two-party pool) against the client engines
/// (inline pool) — the engine without `net` and `cli`. Mean seconds per
/// session.
fn engine_inproc(env: &ReplayEnv<'_>) -> Result<f64, String> {
    let w = env.workload;
    let service = Service::new(
        env.group.clone(),
        env.inputs.sender.clone(),
        EncryptPool::new(2),
        PipelineConfig::default(),
        w.record_len,
        env.seed,
    )
    .with_shard_config(ShardConfig {
        mem_budget: w
            .mem_budget
            .unwrap_or_else(|| ShardConfig::default().mem_budget),
        spill_dir: Some(spill_dir(env.dir)),
        ..ShardConfig::default()
    });
    let client = ClientEnv {
        addr: "",
        group: env.group,
        workload: w,
        dir: env.dir,
        seed: env.seed,
    };
    let mut total = 0.0;
    for (i, &protocol) in w.cycle.iter().enumerate() {
        let request = SessionRequest::new(protocol).encode();
        let started = Instant::now();
        run_two_party(
            |t| service.handle(1, &request, t),
            |t| {
                let mut rng = StdRng::seed_from_u64(env.seed ^ i as u64);
                run_protocol(&client, t, protocol, &env.inputs.receivers[0], &mut rng)
            },
        )
        .map_err(|e| format!("in-process {}: {e}", protocol.name()))?;
        total += started.elapsed().as_secs_f64();
    }
    Ok(total / w.cycle.len() as f64)
}

/// Echo loop shared by the TCP and mux replay servers.
fn echo<T: Transport>(mut t: T) {
    while let Ok(frame) = t.recv() {
        if frame.len() <= ECHO_LIMIT && t.send(&frame).is_err() {
            break;
        }
    }
}

/// Runs `client` against an accept loop on an ephemeral loopback port
/// that hands every connection to `serve`, one at a time; the loop is
/// stopped and joined before this returns.
fn with_loopback_server<R>(
    serve: impl Fn(TcpTransport) + Send,
    client: impl FnOnce(&str) -> Result<R, NetError>,
) -> Result<R, String> {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = acceptor
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (acceptor, stop) = (&acceptor, &stop);
        scope.spawn(move || {
            while let Ok((transport, _)) = acceptor.accept() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                serve(transport);
            }
        });
        let result = client(&addr);
        stop.store(true, Ordering::Release);
        // Wake the blocked accept so the loop observes the flag.
        let _ = std::net::TcpStream::connect(&addr);
        result.map_err(|e| format!("loopback replay: {e}"))
    })
}

/// One-way MiB/s: `frames` bulk frames (swallowed by the server) closed
/// by one ping whose echo marks the last byte's arrival.
fn bulk_mib_per_s<T: Transport>(t: &mut T, frames: usize) -> Result<f64, NetError> {
    let bulk = vec![0xa5u8; BULK_FRAME_BYTES];
    let started = Instant::now();
    for _ in 0..frames {
        t.send(&bulk)?;
    }
    t.send(&[0u8; PING_BYTES])?;
    t.recv()?;
    let mib = (frames * BULK_FRAME_BYTES) as f64 / (1024.0 * 1024.0);
    Ok(mib / started.elapsed().as_secs_f64())
}

fn ping_pong_us<T: Transport>(t: &mut T, reps: usize) -> Result<f64, NetError> {
    let ping = [0u8; PING_BYTES];
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        t.send(&ping)?;
        t.recv()?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

fn tcp_replay(reps: usize) -> Result<Vec<(&'static str, f64)>, String> {
    with_loopback_server(echo, |addr| {
        let mut connects = Vec::with_capacity(reps);
        for _ in 0..reps {
            let started = Instant::now();
            let t = TcpTransport::connect(addr)?;
            connects.push(started.elapsed().as_secs_f64() * 1e6);
            drop(t);
        }
        let mut t = TcpTransport::connect(addr)?;
        let rtt = ping_pong_us(&mut t, reps * 16)?;
        let rate = bulk_mib_per_s(&mut t, reps * 64)?;
        Ok(vec![
            ("net.tcp_connect_us", median(&connects)),
            ("net.tcp_rtt_us", rtt),
            ("net.tcp_mib_per_s", rate),
        ])
    })
}

fn mux_replay(reps: usize) -> Result<Vec<(&'static str, f64)>, String> {
    let registry = SessionRegistry::new(8);
    let shutdown = ShutdownHandle::new();
    let stats: StatsProvider = {
        let metrics = MetricsRegistry::new();
        Arc::new(move || metrics.snapshot_json().into_bytes())
    };
    let serve = |transport: TcpTransport| {
        let _ = serve_mux_connection(
            transport,
            &MuxConfig::default(),
            &registry,
            &shutdown,
            Some(Arc::clone(&stats)),
            |_sid, _request, session| echo(session),
        );
    };
    with_loopback_server(serve, |addr| {
        // A new connection per session, as the CLI and the generator do.
        let mut opens = Vec::with_capacity(reps);
        for _ in 0..reps {
            let tcp = TcpTransport::connect(addr)?;
            let started = Instant::now();
            let mut client = MuxClient::new(tcp, MuxConfig::default());
            let session = client.open_session(b"echo")?;
            opens.push(started.elapsed().as_secs_f64() * 1e6);
            drop(session);
            client.close()?;
        }
        let mut client = MuxClient::new(TcpTransport::connect(addr)?, MuxConfig::default());
        let mut session = client.open_session(b"echo")?;
        let rtt = ping_pong_us(&mut session, reps * 2)?;
        let rate = bulk_mib_per_s(&mut session, reps * 32)?;
        drop(session);
        let mut fetches = Vec::with_capacity(reps);
        for _ in 0..reps {
            let started = Instant::now();
            client.fetch_stats()?;
            fetches.push(started.elapsed().as_secs_f64() * 1e6);
        }
        client.close()?;
        Ok(vec![
            ("net.mux_open_us", median(&opens)),
            ("net.mux_rtt_us", rtt),
            ("net.mux_mib_per_s", rate),
            ("net.stats_fetch_us", median(&fetches)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_replays_report_positive_numbers() {
        for (name, value) in tcp_replay(2)
            .unwrap()
            .into_iter()
            .chain(mux_replay(2).unwrap())
        {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }
}
