//! The full Figure-1 stack: protocol engines over the authenticated-
//! encryption session layer over the in-memory transport — and a check
//! that the secured wire carries no recognizable protocol bytes. Then
//! the daemon's stack, the session mux over the channel, on both of the
//! mux's inbound feeds: polled (`recv_deadline`, the simulated link) and
//! a split reader (loopback TCP).

use std::collections::HashMap;
use std::sync::Arc;

use minshare::prelude::*;
use minshare::service::ClientTraffic;
use minshare_net::secure::{Role, SecureChannel};
use minshare_net::tcp::{TcpAcceptor, TcpTransport};
use minshare_net::{
    duplex_pair, serve_mux_connection, DeadlineTransport, MuxClient, MuxConfig, MuxFrame, NetError,
    ServerStats, SessionRegistry, ShutdownHandle, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Handshake deadline of every channel in this file.
const HANDSHAKE_MS: u64 = 10_000;

fn group() -> QrGroup {
    let mut rng = StdRng::seed_from_u64(3);
    QrGroup::generate(&mut rng, 64).expect("group")
}

/// A transport wrapper that records every raw frame it carries.
struct Tap<T: Transport> {
    inner: T,
    frames: std::sync::Arc<parking_lot::Mutex<Vec<Vec<u8>>>>,
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.frames.lock().push(frame.to_vec());
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }
}

impl<T: DeadlineTransport> DeadlineTransport for Tap<T> {
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        self.inner.recv_deadline(timeout_ms)
    }
}

#[test]
fn intersection_over_encrypted_channel() {
    let g = group();
    let vs: Vec<Vec<u8>> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    let vr: Vec<Vec<u8>> = ["beta", "gamma", "delta"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();

    let (s_end, r_end) = duplex_pair();
    let g_s = g.clone();
    let vs_c = vs.clone();
    let sender = std::thread::spawn(move || {
        let mut hs_rng = StdRng::seed_from_u64(11);
        let mut chan =
            SecureChannel::establish(s_end, &g_s, Role::Initiator, &mut hs_rng, HANDSHAKE_MS)
                .expect("hs");
        let mut rng = StdRng::seed_from_u64(21);
        intersection::run_sender(&mut chan, &g_s, &vs_c, &mut rng).expect("sender")
    });
    let mut hs_rng = StdRng::seed_from_u64(12);
    let mut chan = SecureChannel::establish(r_end, &g, Role::Responder, &mut hs_rng, HANDSHAKE_MS)
        .expect("hs");
    let mut rng = StdRng::seed_from_u64(22);
    let receiver = intersection::run_receiver(&mut chan, &g, &vr, &mut rng).expect("receiver");
    let sender = sender.join().expect("thread");

    assert_eq!(
        receiver.intersection,
        vec![b"beta".to_vec(), b"gamma".to_vec()]
    );
    assert_eq!(sender.peer_set_size, 3);
}

#[test]
fn secured_wire_hides_protocol_frames() {
    // Run the same protocol, tapping the *underlying* transport. The
    // encrypted frames must not contain the plaintext protocol frames.
    let g = group();
    let vs: Vec<Vec<u8>> = vec![b"needle-value".to_vec()];
    let vr: Vec<Vec<u8>> = vec![b"needle-value".to_vec()];

    let frames = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (s_end, r_end) = duplex_pair();
    let tapped = Tap {
        inner: s_end,
        frames: frames.clone(),
    };

    let g_s = g.clone();
    let vs_c = vs.clone();
    let sender = std::thread::spawn(move || {
        let mut hs_rng = StdRng::seed_from_u64(31);
        let mut chan =
            SecureChannel::establish(tapped, &g_s, Role::Initiator, &mut hs_rng, HANDSHAKE_MS)
                .expect("hs");
        let mut rng = StdRng::seed_from_u64(41);
        intersection::run_sender(&mut chan, &g_s, &vs_c, &mut rng).expect("sender")
    });
    let mut hs_rng = StdRng::seed_from_u64(32);
    let mut chan = SecureChannel::establish(r_end, &g, Role::Responder, &mut hs_rng, HANDSHAKE_MS)
        .expect("hs");
    let mut rng = StdRng::seed_from_u64(42);
    let receiver = intersection::run_receiver(&mut chan, &g, &vr, &mut rng).expect("receiver");
    sender.join().expect("thread");
    assert_eq!(receiver.intersection.len(), 1);

    // Recompute what the plaintext frames would look like and ensure no
    // tapped frame contains any of them (headers and codewords are all
    // inside the stream cipher).
    let tapped_frames = frames.lock();
    assert!(!tapped_frames.is_empty());
    let plain_tag = [1u8]; // Codewords message tag
    for frame in tapped_frames.iter().skip(1) {
        // Skip the handshake frame; secured frames start with an 8-byte
        // counter, not a protocol tag.
        assert_ne!(frame.first(), Some(&plain_tag[0]));
    }
}

#[test]
fn equijoin_over_encrypted_channel() {
    let g = group();
    let cipher = HybridCipher::new(g.clone(), 64);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (b"k1".to_vec(), b"payload-one".to_vec()),
        (b"k2".to_vec(), b"payload-two".to_vec()),
    ];
    let vr: Vec<Vec<u8>> = vec![b"k2".to_vec(), b"k3".to_vec()];

    let (s_end, r_end) = duplex_pair();
    let g_s = g.clone();
    let sender = std::thread::spawn(move || {
        let cipher = HybridCipher::new(g_s.clone(), 64);
        let mut hs_rng = StdRng::seed_from_u64(51);
        let mut chan =
            SecureChannel::establish(s_end, &g_s, Role::Initiator, &mut hs_rng, HANDSHAKE_MS)
                .expect("hs");
        let mut rng = StdRng::seed_from_u64(61);
        equijoin::run_sender(&mut chan, &g_s, &cipher, &entries, &mut rng).expect("sender")
    });
    let mut hs_rng = StdRng::seed_from_u64(52);
    let mut chan = SecureChannel::establish(r_end, &g, Role::Responder, &mut hs_rng, HANDSHAKE_MS)
        .expect("hs");
    let mut rng = StdRng::seed_from_u64(62);
    let receiver = equijoin::run_receiver(&mut chan, &g, &cipher, &vr, &mut rng).expect("recv");
    sender.join().expect("thread");

    assert_eq!(
        receiver.matches,
        vec![(b"k2".to_vec(), b"payload-two".to_vec())]
    );
}

/// A transport wrapper that can replay or swap incoming raw frames once
/// a shared switch is flipped (pass-through until then, so the handshake
/// goes through untouched).
#[derive(Clone, Copy, PartialEq)]
enum Meddle {
    Pass,
    Replay,
    Swap,
}

struct Meddler<T: Transport> {
    inner: T,
    mode: std::sync::Arc<parking_lot::Mutex<Meddle>>,
    /// A frame to deliver before reading on: a replay's copy, or the
    /// first frame of a swapped pair.
    next: Option<Vec<u8>>,
    /// The first frame of a pair, waiting for the second (swap).
    held: Option<Vec<u8>>,
}

impl<T: Transport> Meddler<T> {
    /// What to deliver for `frame` under the current mode: `None` holds
    /// it back until its successor arrives.
    fn meddle(&mut self, frame: Vec<u8>) -> Option<Vec<u8>> {
        let mode = *self.mode.lock();
        match mode {
            Meddle::Pass => Some(frame),
            // Deliver each frame, then deliver it again.
            Meddle::Replay => {
                self.next = Some(frame.clone());
                Some(frame)
            }
            // Deliver frames pairwise in reversed order.
            Meddle::Swap => match self.held.take() {
                None => {
                    self.held = Some(frame);
                    None
                }
                Some(first) => {
                    self.next = Some(first);
                    Some(frame)
                }
            },
        }
    }
}

impl<T: Transport> Transport for Meddler<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(frame) = self.next.take() {
                return Ok(frame);
            }
            let frame = self.inner.recv()?;
            if let Some(frame) = self.meddle(frame) {
                return Ok(frame);
            }
        }
    }
}

impl<T: DeadlineTransport> DeadlineTransport for Meddler<T> {
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        if let Some(frame) = self.next.take() {
            return Ok(Some(frame));
        }
        Ok(self
            .inner
            .recv_deadline(timeout_ms)?
            .and_then(|frame| self.meddle(frame)))
    }
}

fn meddled_pair() -> (
    std::thread::JoinHandle<()>,
    SecureChannel<Meddler<impl DeadlineTransport>>,
    std::sync::Arc<parking_lot::Mutex<Meddle>>,
) {
    let g = group();
    let (s_end, r_end) = duplex_pair();
    let g_s = g.clone();
    let sender = std::thread::spawn(move || {
        let mut hs_rng = StdRng::seed_from_u64(71);
        let mut chan =
            SecureChannel::establish(s_end, &g_s, Role::Initiator, &mut hs_rng, HANDSHAKE_MS)
                .expect("hs");
        chan.send(b"frame-one").expect("send one");
        chan.send(b"frame-two").expect("send two");
    });
    let switch = std::sync::Arc::new(parking_lot::Mutex::new(Meddle::Pass));
    let meddler = Meddler {
        inner: r_end,
        mode: switch.clone(),
        next: None,
        held: None,
    };
    let mut hs_rng = StdRng::seed_from_u64(72);
    let chan = SecureChannel::establish(meddler, &g, Role::Responder, &mut hs_rng, HANDSHAKE_MS)
        .expect("hs");
    (sender, chan, switch)
}

#[test]
fn replayed_ciphertext_frame_is_rejected() {
    let (sender, mut chan, switch) = meddled_pair();
    *switch.lock() = Meddle::Replay;
    // The first delivery decrypts fine; the byte-identical replay must
    // fail the sequence check before any plaintext is produced.
    assert_eq!(chan.recv().expect("first"), b"frame-one");
    assert!(matches!(
        chan.recv().expect_err("replay must be rejected"),
        NetError::MalformedFrame { .. } | NetError::AuthenticationFailed
    ));
    sender.join().expect("sender");
}

#[test]
fn reordered_ciphertext_frames_are_rejected() {
    let (sender, mut chan, switch) = meddled_pair();
    *switch.lock() = Meddle::Swap;
    // Frame two arrives first: its sequence number (1) does not match
    // the expected counter (0), so the channel refuses it — a swapped
    // pair can never silently reorder the plaintext stream.
    assert!(matches!(
        chan.recv().expect_err("reordered frame must be rejected"),
        NetError::MalformedFrame { .. } | NetError::AuthenticationFailed
    ));
    sender.join().expect("sender");
}

#[test]
fn secure_channel_completes_on_seeded_schedules() {
    // SecureChannel directly on the simulated link, under seeded jitter,
    // stall and bandwidth schedules: the link delays frames but never
    // drops, repeats or reorders them, so every schedule completes on
    // both sides, each frame decrypting as the next expected one.
    use minshare_net::{sim_pair, FaultPlan, SimConfig};

    let g = group();
    for seed in 0..6u64 {
        let plan = FaultPlan::from_seed(0xbeef_0000 + seed);
        let (a_end, b_end, _trace) = sim_pair(SimConfig::default(), &plan);
        let g_a = g.clone();
        let side_a = std::thread::spawn(move || -> Result<(), NetError> {
            let mut hs_rng = StdRng::seed_from_u64(81);
            let mut chan =
                SecureChannel::establish(a_end, &g_a, Role::Initiator, &mut hs_rng, HANDSHAKE_MS)?;
            for i in 0..6u8 {
                chan.send(&[i; 24])?;
            }
            assert_eq!(chan.recv()?, b"all six arrived in order");
            Ok(())
        });
        let g_b = g.clone();
        let side_b = std::thread::spawn(move || -> Result<(), NetError> {
            let mut hs_rng = StdRng::seed_from_u64(82);
            let mut chan =
                SecureChannel::establish(b_end, &g_b, Role::Responder, &mut hs_rng, HANDSHAKE_MS)?;
            for i in 0..6u8 {
                assert_eq!(chan.recv()?, [i; 24]);
            }
            chan.send(b"all six arrived in order")?;
            Ok(())
        });
        let ra = side_a.join().expect("side a");
        let rb = side_b.join().expect("side b");
        assert_eq!(ra, Ok(()), "seed {seed}: side a");
        assert_eq!(rb, Ok(()), "seed {seed}: side b");
    }
}

// ---------------------------------------------------------------------
// The session mux over the channel.
// ---------------------------------------------------------------------

/// One end of the channel handshake: the server side responds, the
/// client side initiates.
fn secure<T: DeadlineTransport>(t: T, role: Role) -> SecureChannel<T> {
    let mut rng = StdRng::seed_from_u64(if role == Role::Initiator { 91 } else { 92 });
    SecureChannel::establish(t, &group(), role, &mut rng, HANDSHAKE_MS).expect("handshake")
}

const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Intersection,
    ProtocolKind::Equijoin,
    ProtocolKind::IntersectionSize,
    ProtocolKind::EquijoinSize,
];

/// One mux session's outcome on both sides: the client's answer and
/// byte counts, and the daemon's report (protocol-layer bytes and §6.1
/// op counts).
#[derive(Debug, PartialEq)]
struct SessionOutcome {
    answer: Vec<String>,
    traffic: ClientTraffic,
    report: SessionReport,
}

/// Runs the four protocols, one session after another, over one mux
/// connection between `server_t` and `client_t` — behind the channel
/// with `secure` — against a seeded service: everything but the
/// transport is the same on every call. Each side runs its handshake on
/// the thread that then runs its mux loop, as the CLI does.
fn four_sessions<S, C>(server_t: S, client_t: C, secure: bool) -> Vec<SessionOutcome>
where
    S: DeadlineTransport + Send,
    C: DeadlineTransport + Send + 'static,
{
    let g = group();
    let entries: Vec<(Vec<u8>, Vec<u8>)> = ["apple", "grape", "melon", "olive", "olive"]
        .iter()
        .map(|v| (v.as_bytes().to_vec(), format!("ext:{v}").into_bytes()))
        .collect();
    let service = Service::new(
        g.clone(),
        entries,
        EncryptPool::new(0),
        PipelineConfig::default(),
        16,
        0x5EC0_4E,
    );
    let client_values: Vec<Vec<u8>> = ["grape", "olive", "olive", "pear"]
        .iter()
        .map(|v| v.as_bytes().to_vec())
        .collect();
    let registry = SessionRegistry::new(4);
    let shutdown = ShutdownHandle::new();
    let reports = parking_lot::Mutex::new(HashMap::new());
    let (outcomes, stats) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = MuxConfig::default();
            let handler = |sid, request: Vec<u8>, session| {
                let report = service.handle(sid, &request, session).expect("report");
                reports.lock().insert(sid, report);
            };
            if secure {
                let server_t = self::secure(server_t, Role::Responder);
                serve_mux_connection(server_t, &config, &registry, &shutdown, None, handler)
            } else {
                serve_mux_connection(server_t, &config, &registry, &shutdown, None, handler)
            }
        });
        let mut client = if secure {
            MuxClient::new(
                self::secure(client_t, Role::Initiator),
                MuxConfig::default(),
            )
        } else {
            MuxClient::new(client_t, MuxConfig::default())
        };
        let pool = EncryptPool::new(0);
        let (pipe, cfg) = (PipelineConfig::default(), ShardConfig::default());
        let mut answers = Vec::new();
        for (i, protocol) in PROTOCOLS.into_iter().enumerate() {
            let session = client
                .open_session(&SessionRequest::new(protocol).encode())
                .expect("open");
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let values = &client_values;
            let (answer, traffic) = match protocol {
                ProtocolKind::Intersection => {
                    let (out, traffic) = run_client_intersection_sharded(
                        session, &g, values, &mut rng, &pool, pipe, &cfg,
                    )
                    .expect("intersection");
                    let answer = out.intersection.iter().map(|v| text(v)).collect();
                    (answer, traffic)
                }
                ProtocolKind::Equijoin => {
                    let (out, traffic) = run_client_equijoin_sharded(
                        session, &g, values, &mut rng, &pool, pipe, 16, &cfg,
                    )
                    .expect("equijoin");
                    let answer = out
                        .matches
                        .iter()
                        .map(|(v, ext)| format!("{}\t{}", text(v), text(ext)))
                        .collect();
                    (answer, traffic)
                }
                ProtocolKind::IntersectionSize => {
                    let (out, traffic) = run_client_intersection_size_sharded(
                        session, &g, values, &mut rng, &pool, pipe, &cfg,
                    )
                    .expect("intersection-size");
                    (vec![out.intersection_size.to_string()], traffic)
                }
                ProtocolKind::EquijoinSize => {
                    let (out, traffic) = run_client_equijoin_size_sharded(
                        session, &g, values, &mut rng, &pool, pipe, &cfg,
                    )
                    .expect("equijoin-size");
                    (vec![out.join_size.to_string()], traffic)
                }
            };
            answers.push((i as u32 + 1, answer, traffic));
        }
        client.close().expect("client close");
        (answers, server.join().expect("server thread"))
    });
    let stats: ServerStats = stats.expect("server loop");
    assert_eq!((stats.opened, stats.malformed), (4, 0), "{stats:?}");
    let mut reports = reports.into_inner();
    outcomes
        .into_iter()
        .map(|(sid, answer, traffic)| SessionOutcome {
            answer,
            traffic,
            report: reports.remove(&sid).expect("server report"),
        })
        .collect()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The plain mux over an in-memory link: the answers and bytes every
/// secured run must reproduce.
fn plain_outcomes() -> Vec<SessionOutcome> {
    let (server_t, client_t) = duplex_pair();
    let outcomes = four_sessions(server_t, client_t, false);
    let answers: Vec<&[String]> = outcomes.iter().map(|o| o.answer.as_slice()).collect();
    // grape, olive; grape and olive with ext; 2; olive 2·2 + grape 1·1.
    assert_eq!(
        answers,
        vec![
            &["grape".to_string(), "olive".to_string()][..],
            &[
                "grape\text:grape".to_string(),
                "olive\text:olive".to_string()
            ][..],
            &["2".to_string()][..],
            &["5".to_string()][..],
        ]
    );
    outcomes
}

#[test]
fn mux_over_secure_channel_on_seeded_schedules_matches_the_plain_mux() {
    use minshare_net::{sim_pair, FaultPlan, SimConfig};

    let plain = plain_outcomes();
    for seed in 0..4u64 {
        let plan = FaultPlan::from_seed(0x5ec_0000 + seed);
        let sim = SimConfig {
            latency_ms: 1,
            // Every quiet poll of the mux loops advances the virtual
            // clock; the wall-clock backstop is the hang guard.
            run_deadline_ms: 1 << 40,
            real_backstop_ms: 60_000,
        };
        let (server_end, client_end, _trace) = sim_pair(sim, &plan);
        assert_eq!(
            four_sessions(server_end, client_end, true),
            plain,
            "schedule {seed}: the channel changed an answer or a byte count"
        );
    }
}

#[test]
fn mux_over_secure_channel_on_loopback_tcp_matches_the_plain_mux() {
    let plain = plain_outcomes();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let accepted = std::thread::spawn(move || acceptor.accept().expect("accept").0);
    let client_tcp = TcpTransport::connect(addr).expect("connect");
    let server_tcp = accepted.join().expect("accept thread");
    assert_eq!(four_sessions(server_tcp, client_tcp, true), plain);
}

/// A daemon whose inbound link meddles once the switch flips: the
/// replayed or reordered record must end the connection with a typed
/// error — the mux loop returns, nobody hangs.
fn meddled_mux_connection(mode: Meddle) -> Result<ServerStats, NetError> {
    let (client_end, server_end) = duplex_pair();
    let switch = Arc::new(parking_lot::Mutex::new(Meddle::Pass));
    let meddler = Meddler {
        inner: server_end,
        mode: Arc::clone(&switch),
        next: None,
        held: None,
    };
    let registry = SessionRegistry::new(4);
    let shutdown = ShutdownHandle::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            serve_mux_connection(
                secure(meddler, Role::Responder),
                &MuxConfig::default(),
                &registry,
                &shutdown,
                None,
                |_, _, mut session| while session.recv().is_ok() {},
            )
        });
        let client_t = secure(client_end, Role::Initiator);
        let mut client = MuxClient::new(client_t, MuxConfig::default());
        let mut session = client.open_session(b"any request").expect("open");
        *switch.lock() = mode;
        session.send(b"frame-one").expect("send one");
        session.send(b"frame-two").expect("send two");
        // The daemon hangs up; the session sees its connection end.
        assert!(session.recv().is_err());
        let _ = client.close();
        server.join().expect("server thread")
    })
}

#[test]
fn replayed_record_under_the_mux_ends_the_connection_typed() {
    let result = meddled_mux_connection(Meddle::Replay);
    assert!(
        matches!(
            result,
            Err(NetError::MalformedFrame { .. } | NetError::AuthenticationFailed)
        ),
        "{result:?}"
    );
}

#[test]
fn reordered_records_under_the_mux_end_the_connection_typed() {
    let result = meddled_mux_connection(Meddle::Swap);
    assert!(
        matches!(
            result,
            Err(NetError::MalformedFrame { .. } | NetError::AuthenticationFailed)
        ),
        "{result:?}"
    );
}

#[test]
fn secured_mux_wire_hides_mux_headers() {
    // The same session request twice, tapping what the client puts on
    // the link: bare, every frame is a well-formed mux frame carrying the
    // request in the clear; under the channel, none is.
    let request = SessionRequest::new(ProtocolKind::Intersection).encode();
    let tapped = |secure: bool| {
        let frames = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (client_end, server_end) = duplex_pair();
        let tap = Tap {
            inner: client_end,
            frames: Arc::clone(&frames),
        };
        let registry = SessionRegistry::new(1);
        let shutdown = ShutdownHandle::new();
        let handler = |_, _, mut session: minshare_net::SessionTransport| {
            let _ = session.send(b"reply");
        };
        let config = MuxConfig::default();
        std::thread::scope(|scope| {
            let mut client = if secure {
                scope.spawn(|| {
                    let server_t = self::secure(server_end, Role::Responder);
                    serve_mux_connection(server_t, &config, &registry, &shutdown, None, handler)
                });
                MuxClient::new(self::secure(tap, Role::Initiator), config)
            } else {
                scope.spawn(|| {
                    serve_mux_connection(server_end, &config, &registry, &shutdown, None, handler)
                });
                MuxClient::new(tap, config)
            };
            let mut session = client.open_session(&request).expect("open");
            assert_eq!(session.recv().expect("reply"), b"reply");
            drop(session);
            client.close().expect("close");
        });
        let frames = frames.lock().clone();
        frames
    };
    let carries_request = |frame: &Vec<u8>| frame.windows(request.len()).any(|w| w == request);

    let plain = tapped(false);
    assert!(plain.iter().all(|f| MuxFrame::decode(f).is_ok()));
    assert!(plain.iter().any(carries_request));

    let secured = tapped(true);
    // The first frame is the handshake's public value.
    assert!(secured.len() > 1);
    for frame in &secured[1..] {
        assert!(
            MuxFrame::decode(frame).is_err(),
            "a mux header in the clear"
        );
        assert!(!carries_request(frame), "the session request in the clear");
    }
}

#[test]
fn records_sealed_by_one_side_are_traced_opened_by_the_other() {
    // A daemon on loopback TCP opens records on its connection's reader
    // thread. That thread traces into the connection's sink, so per
    // direction the `net/sealed` events of one side equal the
    // `net/opened` events of the other. The client drives the channel
    // by hand, on one thread, and reads until the daemon hangs up, so
    // every record either side seals is delivered and opened.
    use minshare_net::MuxKind;
    use minshare_trace::sink::RingSink;
    use minshare_trace::Tracer;

    let count = |sink: &RingSink, name: &str| {
        let events = sink.snapshot();
        events
            .iter()
            .filter(|e| e.scope == "net" && e.name == name)
            .count()
    };
    let server_sink = Arc::new(RingSink::new(1 << 12));
    let client_sink = Arc::new(RingSink::new(1 << 12));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let registry = SessionRegistry::new(1);
    let shutdown = ShutdownHandle::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let _trace = minshare_trace::install(Tracer::to_sink(server_sink.clone()));
            let tcp = acceptor.accept().expect("accept").0;
            serve_mux_connection(
                secure(tcp, Role::Responder),
                &MuxConfig::default(),
                &registry,
                &shutdown,
                None,
                |_, _, mut session| {
                    while let Ok(frame) = session.recv() {
                        if session.send(&frame).is_err() {
                            break;
                        }
                    }
                },
            )
        });
        let _trace = minshare_trace::install(Tracer::to_sink(client_sink.clone()));
        let mut chan = secure(
            TcpTransport::connect(addr).expect("connect"),
            Role::Initiator,
        );
        let recv_kind = |chan: &mut SecureChannel<TcpTransport>| {
            MuxFrame::decode(&chan.recv().expect("recv"))
                .expect("decode")
                .kind
        };
        chan.send(&MuxFrame::open(1, b"echo".to_vec()).encode())
            .expect("open");
        assert_eq!(recv_kind(&mut chan), MuxKind::Accept);
        for seq in 0..5u32 {
            chan.send(&MuxFrame::data(1, seq, vec![seq as u8; 32]).encode())
                .expect("data");
            assert_eq!(recv_kind(&mut chan), MuxKind::Data);
        }
        chan.send(&MuxFrame::control(MuxKind::Close, 1).encode())
            .expect("close");
        chan.send(&MuxFrame::control(MuxKind::Goaway, 0).encode())
            .expect("goaway");
        // The daemon's CLOSE and GOAWAY, then the end of the connection.
        while chan.recv().is_ok() {}
        server.join().expect("server thread").expect("server loop");
    });
    let client_sealed = count(&client_sink, "sealed");
    let server_sealed = count(&server_sink, "sealed");
    assert_eq!(client_sealed, 8, "OPEN, five DATA, CLOSE, GOAWAY");
    assert!(server_sealed >= 6, "ACCEPT and five DATA at least");
    assert_eq!(
        count(&server_sink, "opened"),
        client_sealed,
        "client to daemon"
    );
    assert_eq!(
        count(&client_sink, "opened"),
        server_sealed,
        "daemon to client"
    );
}
