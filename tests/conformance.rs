//! Protocol conformance under the network faults TCP presents.
//!
//! Every protocol (§3 intersection, §4 equijoin, §5.1 intersection-size,
//! §5.2 equijoin-size) is replayed over the deterministic simulated
//! network (`minshare_net::simnet`): a reliable, ordered link on a
//! virtual clock, across a fixed set of seeded jitter / stall /
//! bandwidth schedules. The contract, for every seeded schedule:
//!
//! 1. **Completion**: both parties finish — no panic, no hang (the
//!    virtual-clock deadline, plus a wall-clock backstop inside the
//!    simulator, bounds every run), no typed failure either.
//! 2. **Same answers**: each party's output equals the output of the
//!    same engine on a perfect link — which in turn is validated against
//!    the clear-text reference (`naive.rs` set algebra / `leakage.rs`).
//! 3. **Same bytes**: each party's protocol-layer byte count equals the
//!    perfect-link profile — timing never changes what goes on the wire.
//! 4. **Reproducibility**: re-running a schedule from its seed yields a
//!    byte-identical link trace.
//!
//! A cut (a reset of one direction, set explicitly) is the one fault a
//! run may lose to: it must end without a panic or a hang, in a typed
//! failure, and any party that completes must still be exactly right.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use minshare::naive::naive_intersection;
use minshare::prelude::*;
use minshare::simrun::{run_two_party_sim, SimOutcome, SimTwoPartyRun};
use minshare_net::simnet::{Cut, Side};
use minshare_net::{FaultPlan, SimConfig, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> &'static QrGroup {
    static GROUP: OnceLock<QrGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xc0f0);
        QrGroup::generate(&mut rng, 64).expect("group")
    })
}

fn pool() -> &'static EncryptPool {
    static POOL: OnceLock<EncryptPool> = OnceLock::new();
    POOL.get_or_init(|| EncryptPool::new(2))
}

fn to_values(strs: &[&str]) -> Vec<Vec<u8>> {
    strs.iter().map(|s| s.as_bytes().to_vec()).collect()
}

/// `V_S`: a set with a non-trivial overlap with `V_R`.
fn vs() -> Vec<Vec<u8>> {
    to_values(&[
        "apple", "grape", "melon", "peach", "berry", "mango", "lemon",
    ])
}

/// `V_R`.
fn vr() -> Vec<Vec<u8>> {
    to_values(&["grape", "kiwi", "apple", "plum", "melon"])
}

/// `ext(v)` for each of `values`.
fn ext_of(values: &[Vec<u8>]) -> Vec<Vec<u8>> {
    values.iter().map(|v| [&b"ext:"[..], v].concat()).collect()
}

/// `T_S.A` as a multiset (duplicate classes 3, 2, 1).
fn ms() -> Vec<Vec<u8>> {
    to_values(&["ash", "ash", "ash", "oak", "oak", "elm", "fir"])
}

/// `T_R.A` as a multiset.
fn mr() -> Vec<Vec<u8>> {
    to_values(&["oak", "ash", "oak", "yew", "yew", "elm"])
}

fn chunked() -> PipelineConfig {
    // Small chunks so the chunked wire format (multi-frame lists) is
    // actually exercised against jitter and stalls.
    PipelineConfig::chunked(3)
}

/// The engine's sender at one bucket, over the shared group and pool.
fn sender<T: Transport + ?Sized>(
    t: &mut T,
    shape: ProtocolShape<'_>,
    values: &[Vec<u8>],
    ext: &[Vec<u8>],
    seed: u64,
    pipe: PipelineConfig,
) -> Result<engine::SenderOutput, ProtocolError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ShardConfig::default();
    engine::run_sender(t, group(), shape, values, ext, &mut rng, pool(), pipe, &cfg)
}

/// The engine's receiver at one bucket, over the shared group and pool.
fn receiver<T: Transport + ?Sized>(
    t: &mut T,
    shape: ProtocolShape<'_>,
    values: &[Vec<u8>],
    seed: u64,
    pipe: PipelineConfig,
) -> Result<engine::ReceiverOutput, ProtocolError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ShardConfig::default();
    engine::run_receiver(t, group(), shape, values, &mut rng, pool(), pipe, &cfg)
}

/// The fixed seed set every protocol is replayed over. `tools/verify.sh`
/// runs this file, so the set is deliberately modest.
const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

/// Checks one run against the perfect-link baseline: no panic, and any
/// party that completed produced the baseline's output and bytes.
fn check_run<SO, RO>(tag: &str, baseline: &SimTwoPartyRun<SO, RO>, faulty: &SimTwoPartyRun<SO, RO>)
where
    SO: PartialEq + std::fmt::Debug,
    RO: PartialEq + std::fmt::Debug,
{
    assert_ne!(
        faulty.outcome(),
        SimOutcome::Panicked,
        "{tag}: a party panicked: {:?} / {:?}",
        faulty.sender,
        faulty.receiver,
    );
    // Any party that completed must have produced the perfect-link
    // output — never a corrupted or partial answer.
    if let (Ok(b), Ok(f)) = (&baseline.sender, &faulty.sender) {
        assert_eq!(b, f, "{tag}: sender output diverged under faults");
        assert_eq!(
            baseline.sender_traffic.bytes_sent(),
            faulty.sender_traffic.bytes_sent(),
            "{tag}: sender protocol-layer bytes changed under faults",
        );
    }
    if let (Ok(b), Ok(f)) = (&baseline.receiver, &faulty.receiver) {
        assert_eq!(b, f, "{tag}: receiver output diverged under faults");
        assert_eq!(
            baseline.receiver_traffic.bytes_sent(),
            faulty.receiver_traffic.bytes_sent(),
            "{tag}: receiver protocol-layer bytes changed under faults",
        );
    }
}

/// Both roles of `shape` through the engine (small chunks, one bucket)
/// over the simulated network, typed like the serial reference's outputs.
fn run_shape<SO, RO>(
    plan: &FaultPlan,
    shape: ProtocolShape<'_>,
    (s_vals, ext, r_vals): (&[Vec<u8>], &[Vec<u8>], &[Vec<u8>]),
    seeds: (u64, u64),
) -> SimTwoPartyRun<SO, RO>
where
    SO: From<engine::SenderOutput> + Send,
    RO: From<engine::ReceiverOutput> + Send,
{
    run_two_party_sim(
        SimConfig::default(),
        plan,
        |t| sender(t, shape, s_vals, ext, seeds.0, chunked()).map(SO::from),
        |t| receiver(t, shape, r_vals, seeds.1, chunked()).map(RO::from),
    )
}

fn run_intersection(
    plan: &FaultPlan,
) -> SimTwoPartyRun<
    minshare::intersection::IntersectionSenderOutput,
    minshare::intersection::IntersectionReceiverOutput,
> {
    run_shape(
        plan,
        ProtocolShape::INTERSECTION,
        (&vs(), &[], &vr()),
        (7, 8),
    )
}

fn run_equijoin(
    plan: &FaultPlan,
) -> SimTwoPartyRun<
    minshare::equijoin::EquijoinSenderOutput,
    minshare::equijoin::EquijoinReceiverOutput,
> {
    let cipher = HybridCipher::new(group().clone(), 16);
    let shape = ProtocolShape::equijoin(&cipher);
    run_shape(plan, shape, (&vs(), &ext_of(&vs()), &vr()), (9, 10))
}

fn run_intersection_size(
    plan: &FaultPlan,
) -> SimTwoPartyRun<
    minshare::intersection_size::IntersectionSizeSenderOutput,
    minshare::intersection_size::IntersectionSizeReceiverOutput,
> {
    let shape = ProtocolShape::INTERSECTION_SIZE;
    run_shape(plan, shape, (&vs(), &[], &vr()), (11, 12))
}

fn run_equijoin_size(
    plan: &FaultPlan,
) -> SimTwoPartyRun<
    minshare::equijoin_size::EquijoinSizeSenderOutput,
    minshare::equijoin_size::EquijoinSizeReceiverOutput,
> {
    run_shape(
        plan,
        ProtocolShape::EQUIJOIN_SIZE,
        (&ms(), &[], &mr()),
        (13, 14),
    )
}

/// Replays `run` over the fixed seed set, checking the contract and trace
/// reproducibility against the perfect-link baseline, which it returns.
fn sweep<SO, RO>(
    tag: &str,
    run: impl Fn(&FaultPlan) -> SimTwoPartyRun<SO, RO>,
    namespace: u64,
) -> SimTwoPartyRun<SO, RO>
where
    SO: PartialEq + std::fmt::Debug,
    RO: PartialEq + std::fmt::Debug,
{
    let baseline = run(&FaultPlan::perfect());
    assert_eq!(
        baseline.outcome(),
        SimOutcome::Complete,
        "{tag}: perfect link must complete: {:?} / {:?}",
        baseline.sender,
        baseline.receiver,
    );
    for seed in SEEDS {
        let plan = FaultPlan::from_seed(namespace.wrapping_mul(1 << 32) | seed);
        let faulty = run(&plan);
        assert_eq!(
            faulty.outcome(),
            SimOutcome::Complete,
            "{tag} seed {seed}: {:?} / {:?}",
            faulty.sender,
            faulty.receiver,
        );
        check_run(&format!("{tag} seed {seed}"), &baseline, &faulty);
    }
    // Reproducibility: the first seed, replayed, gives a byte-identical
    // fault trace and the same outcome.
    let plan = FaultPlan::from_seed(namespace.wrapping_mul(1 << 32) | SEEDS[0]);
    let (r1, r2) = (run(&plan), run(&plan));
    assert_eq!(
        r1.trace.digest(),
        r2.trace.digest(),
        "{tag}: trace not reproducible from its seed",
    );
    assert_eq!(
        r1.outcome(),
        r2.outcome(),
        "{tag}: outcome not reproducible"
    );
    baseline
}

#[test]
fn intersection_conforms_under_faults() {
    let baseline = sweep("intersection", run_intersection, 1);
    // The perfect-link pipelined output agrees with the clear reference.
    let out = baseline.receiver.expect("baseline receiver");
    let (reference, _) = naive_intersection(&vs(), &vr());
    assert_eq!(out.intersection, reference);
    assert_eq!(out.peer_set_size, vs().len());
}

#[test]
fn equijoin_conforms_under_faults() {
    let baseline = sweep("equijoin", run_equijoin, 2);
    let out = baseline.receiver.expect("baseline receiver");
    let r_set: BTreeSet<Vec<u8>> = vr().into_iter().collect();
    let expect: Vec<(Vec<u8>, Vec<u8>)> = vs()
        .into_iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .filter(|v| r_set.contains(v))
        .map(|v| {
            let mut ext = b"ext:".to_vec();
            ext.extend_from_slice(&v);
            (v, ext)
        })
        .collect();
    assert_eq!(out.matches, expect);
}

#[test]
fn intersection_size_conforms_under_faults() {
    let baseline = sweep("intersection-size", run_intersection_size, 3);
    let out = baseline.receiver.expect("baseline receiver");
    let (reference, _) = naive_intersection(&vs(), &vr());
    assert_eq!(out.intersection_size, reference.len());
}

#[test]
fn equijoin_size_conforms_under_faults() {
    let baseline = sweep("equijoin-size", run_equijoin_size, 4);
    let out = baseline.receiver.expect("baseline receiver");
    let expect: u64 = {
        use std::collections::BTreeMap;
        let mut s_counts: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for v in ms() {
            *s_counts.entry(v).or_insert(0) += 1;
        }
        mr().into_iter()
            .map(|v| s_counts.get(&v).copied().unwrap_or(0))
            .sum()
    };
    assert_eq!(out.join_size, expect);
    assert_eq!(
        out.class_intersections,
        minshare::leakage::expected_class_intersections(&mr(), &ms()),
    );
}

/// Cuts each direction at its first, a middle and its last frame: every
/// such run ends in a typed failure — never a panic, a hang or a wrong
/// answer from a party that completes.
fn cut_sweep<SO, RO>(tag: &str, run: impl Fn(&FaultPlan) -> SimTwoPartyRun<SO, RO>)
where
    SO: PartialEq + std::fmt::Debug,
    RO: PartialEq + std::fmt::Debug,
{
    let baseline = run(&FaultPlan::perfect());
    assert_eq!(baseline.outcome(), SimOutcome::Complete, "{tag}: baseline");
    // `run_two_party_sim` hands side A to the sender.
    for (from, frames) in [
        (Side::A, baseline.trace.a_to_b.len() as u64),
        (Side::B, baseline.trace.b_to_a.len() as u64),
    ] {
        assert!(frames > 0, "{tag}: {from:?} sends nothing");
        for at_frame in [0, frames / 2, frames - 1] {
            let plan = FaultPlan {
                cut: Some(Cut { from, at_frame }),
                ..FaultPlan::perfect()
            };
            let cut = run(&plan);
            let tag = format!("{tag} cut {from:?}@{at_frame}");
            assert_eq!(
                cut.outcome(),
                SimOutcome::TypedFailure,
                "{tag}: {:?} / {:?}",
                cut.sender,
                cut.receiver,
            );
            check_run(&tag, &baseline, &cut);
        }
    }
}

#[test]
fn cut_link_is_a_typed_failure_never_a_wrong_answer() {
    cut_sweep("intersection", run_intersection);
    cut_sweep("equijoin-size", run_equijoin_size);
}

// ---------------------------------------------------------------------
// One-chunk wire identity: the engine with a chunk size above every
// list must put *byte-identical frames* on the wire as the serial
// reference, in the same order, on both sides.
// ---------------------------------------------------------------------

/// Records every frame a party sends, in order. Every frame goes out
/// through its own `send`, the granularity the serial engine uses.
struct RecordingTransport<T: Transport> {
    inner: T,
    sent: std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
}

impl<T: Transport> RecordingTransport<T> {
    fn new(inner: T) -> (Self, std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>) {
        let sent = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        (
            RecordingTransport {
                inner,
                sent: sent.clone(),
            },
            sent,
        )
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), minshare_net::NetError> {
        self.inner.send(frame)?;
        self.sent.lock().unwrap().push(frame.to_vec());
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, minshare_net::NetError> {
        self.inner.recv()
    }
}

/// Runs a two-party exchange over duplex with frame recording on both
/// sides; returns (sender frames, receiver frames).
fn record_frames<SO: Send, RO: Send>(
    sender: impl FnOnce(&mut dyn Transport) -> Result<SO, ProtocolError> + Send,
    receiver: impl FnOnce(&mut dyn Transport) -> Result<RO, ProtocolError> + Send,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, SO, RO) {
    use minshare_net::duplex_pair;
    let (s_end, r_end) = duplex_pair();
    let (mut s_t, s_frames) = RecordingTransport::new(s_end);
    let (mut r_t, r_frames) = RecordingTransport::new(r_end);
    let (s_out, r_out) = std::thread::scope(|scope| {
        let s = scope.spawn(move || sender(&mut s_t));
        let r = scope.spawn(move || receiver(&mut r_t));
        (s.join().unwrap(), r.join().unwrap())
    });
    let s_frames = std::sync::Arc::try_unwrap(s_frames)
        .unwrap()
        .into_inner()
        .unwrap();
    let r_frames = std::sync::Arc::try_unwrap(r_frames)
        .unwrap()
        .into_inner()
        .unwrap();
    (s_frames, r_frames, s_out.unwrap(), r_out.unwrap())
}

/// Every list in one chunk: the serial wire format.
fn one_chunk() -> PipelineConfig {
    PipelineConfig::chunked(usize::MAX)
}

#[test]
fn intersection_serial_fallback_is_wire_identical_to_serial() {
    let g = group();
    let (s_vals, r_vals) = (vs(), vr());

    let (ser_s, ser_r, _, ser_out) = record_frames(
        |t| {
            let mut rng = StdRng::seed_from_u64(7);
            intersection::run_sender(t, g, &s_vals, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(8);
            intersection::run_receiver(t, g, &r_vals, &mut rng)
        },
    );
    let (pip_s, pip_r, _, pip_out) = record_frames(
        |t| sender(t, ProtocolShape::INTERSECTION, &s_vals, &[], 7, one_chunk()),
        |t| receiver(t, ProtocolShape::INTERSECTION, &r_vals, 8, one_chunk()),
    );
    assert_eq!(ser_s, pip_s, "sender frames diverge at one chunk per list");
    assert_eq!(
        ser_r, pip_r,
        "receiver frames diverge at one chunk per list"
    );
    assert_eq!(
        ser_out.intersection,
        minshare::intersection::IntersectionReceiverOutput::from(pip_out).intersection
    );
}

#[test]
fn equijoin_serial_fallback_is_wire_identical_to_serial() {
    let g = group();
    let keys = vs();
    let ext = ext_of(&keys);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = keys.iter().cloned().zip(ext.iter().cloned()).collect();
    let r_vals = vr();

    let (ser_s, ser_r, _, ser_out) = record_frames(
        |t| {
            let cipher = HybridCipher::new(g.clone(), 16);
            let mut rng = StdRng::seed_from_u64(9);
            equijoin::run_sender(t, g, &cipher, &entries, &mut rng)
        },
        |t| {
            let cipher = HybridCipher::new(g.clone(), 16);
            let mut rng = StdRng::seed_from_u64(10);
            equijoin::run_receiver(t, g, &cipher, &r_vals, &mut rng)
        },
    );
    let (pip_s, pip_r, _, pip_out) = record_frames(
        |t| {
            let cipher = HybridCipher::new(g.clone(), 16);
            sender(
                t,
                ProtocolShape::equijoin(&cipher),
                &keys,
                &ext,
                9,
                one_chunk(),
            )
        },
        |t| {
            let cipher = HybridCipher::new(g.clone(), 16);
            receiver(
                t,
                ProtocolShape::equijoin(&cipher),
                &r_vals,
                10,
                one_chunk(),
            )
        },
    );
    assert_eq!(ser_s, pip_s, "sender frames diverge at one chunk per list");
    assert_eq!(
        ser_r, pip_r,
        "receiver frames diverge at one chunk per list"
    );
    assert_eq!(ser_out.matches, pip_out.matches);
}

// ---------------------------------------------------------------------
// Trace-layer conformance: the telemetry must itself be deterministic
// (same simnet seed ⇒ same per-party event digest) and must aggregate
// identically across execution strategies (an engine run's metrics
// equal the serial run's §6.1 counters).
// ---------------------------------------------------------------------

use std::sync::Arc;

use minshare_trace::metrics::{MetricsRegistry, RegistrySink};
use minshare_trace::sink::RingSink;
use minshare_trace::TraceSink;

fn traced<S: TraceSink + 'static>(sink: &Arc<S>) -> minshare_trace::Tracer {
    minshare_trace::Tracer::to_sink(Arc::clone(sink) as Arc<dyn TraceSink>)
}

#[test]
fn trace_digest_is_reproducible_from_the_simnet_seed() {
    let plan = FaultPlan::from_seed(0x7ace_0001);
    let go = || {
        let (s_vals, r_vals) = (vs(), vr());
        let s_sink = Arc::new(RingSink::new(4096));
        let r_sink = Arc::new(RingSink::new(4096));
        let run = {
            let (ss, rs) = (Arc::clone(&s_sink), Arc::clone(&r_sink));
            run_two_party_sim(
                SimConfig::default(),
                &plan,
                move |t| {
                    let _trace = minshare_trace::install(traced(&ss));
                    sender(t, ProtocolShape::INTERSECTION, &s_vals, &[], 7, chunked())
                },
                move |t| {
                    let _trace = minshare_trace::install(traced(&rs));
                    receiver(t, ProtocolShape::INTERSECTION, &r_vals, 8, chunked())
                },
            )
        };
        assert!(s_sink.recorded() > 0, "sender emitted no events");
        assert!(r_sink.recorded() > 0, "receiver emitted no events");
        (run.outcome(), s_sink.digest(), r_sink.digest())
    };
    let (o1, s1, r1) = go();
    let (o2, s2, r2) = go();
    assert_eq!(o1, o2, "outcome not reproducible");
    assert_eq!(s1, s2, "sender event digest not reproducible from seed");
    assert_eq!(r1, r2, "receiver event digest not reproducible from seed");
}

/// Events each party records for one perfect-link engine run of `shape`
/// at |V_S| = |V_R| = `n`. Every encryption runs inline (a zero-worker
/// pool), every list is one chunk and there is one bucket, so the count
/// is deterministic.
fn events_per_party(shape: ProtocolShape<'_>, n: usize) -> (u64, u64) {
    let pool = EncryptPool::with_workers(0);
    let pipe = PipelineConfig::chunked(1 << 20);
    let cfg = ShardConfig::default();
    let value = |i: usize| format!("v{i}").into_bytes();
    let s_vals: Vec<Vec<u8>> = (0..n).map(value).collect();
    let r_vals: Vec<Vec<u8>> = (n / 2..n + n / 2).map(value).collect();
    let ext = ext_of(&s_vals);
    let s_sink = Arc::new(RingSink::new(4096));
    let r_sink = Arc::new(RingSink::new(4096));
    run_two_party(
        |t| {
            let _trace = minshare_trace::install(traced(&s_sink));
            let mut rng = StdRng::seed_from_u64(7);
            engine::run_sender(
                t,
                group(),
                shape,
                &s_vals,
                &ext,
                &mut rng,
                &pool,
                pipe,
                &cfg,
            )
        },
        |t| {
            let _trace = minshare_trace::install(traced(&r_sink));
            let mut rng = StdRng::seed_from_u64(8);
            engine::run_receiver(t, group(), shape, &r_vals, &mut rng, &pool, pipe, &cfg)
        },
    )
    .expect("perfect-link run");
    (s_sink.recorded(), r_sink.recorded())
}

/// Telemetry cost must not grow with the data: every emit site is per
/// session, bucket, chunk or frame, never per value. With one chunk per
/// list and one bucket, each party's event count is the same at 64 and at
/// 1024 values, for every protocol — a per-value emit site fails here
/// without a clock.
#[test]
fn trace_event_count_is_independent_of_set_size() {
    let cipher = HybridCipher::new(group().clone(), 16);
    for shape in [
        ProtocolShape::INTERSECTION,
        ProtocolShape::INTERSECTION_SIZE,
        ProtocolShape::equijoin(&cipher),
        ProtocolShape::EQUIJOIN_SIZE,
    ] {
        let (small_s, small_r) = events_per_party(shape, 64);
        let (large_s, large_r) = events_per_party(shape, 1024);
        assert!(small_s > 0 && small_r > 0, "a party emitted no events");
        assert_eq!(small_s, large_s, "sender events grow with |V|");
        assert_eq!(small_r, large_r, "receiver events grow with |V|");
    }
}

/// Runs a perfect-link two-party exchange with both parties feeding one
/// shared metrics registry; returns the registry.
fn metrics_of<SO: Send, RO: Send>(
    sender: impl FnOnce(&mut dyn Transport) -> Result<SO, ProtocolError> + Send,
    receiver: impl FnOnce(&mut dyn Transport) -> Result<RO, ProtocolError> + Send,
) -> Arc<MetricsRegistry> {
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(RegistrySink::new(Arc::clone(&registry)));
    let (ss, rs) = (Arc::clone(&sink), Arc::clone(&sink));
    run_two_party(
        move |t| {
            let _trace = minshare_trace::install(traced(&ss));
            sender(t)
        },
        move |t| {
            let _trace = minshare_trace::install(traced(&rs));
            receiver(t)
        },
    )
    .expect("perfect-link run");
    registry
}

/// §6.1 `Ce` units charged across both parties' `*_done` events.
fn ce_ops(metrics: &MetricsRegistry, scope: &str) -> u64 {
    metrics.counter(scope, "sender_done", "encryptions")
        + metrics.counter(scope, "sender_done", "decryptions")
        + metrics.counter(scope, "receiver_done", "encryptions")
        + metrics.counter(scope, "receiver_done", "decryptions")
}

#[test]
fn pipelined_metrics_equal_serial_metrics() {
    let g = group();
    let serial = metrics_of(
        |t| {
            let mut rng = StdRng::seed_from_u64(7);
            intersection::run_sender(t, g, &vs(), &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(8);
            intersection::run_receiver(t, g, &vr(), &mut rng)
        },
    );
    // One chunk per list is wire-identical to serial, so the aggregated
    // metrics must agree on *everything*: Ce operations, frames, bytes.
    let whole = metrics_of(
        |t| sender(t, ProtocolShape::INTERSECTION, &vs(), &[], 7, one_chunk()),
        |t| receiver(t, ProtocolShape::INTERSECTION, &vr(), 8, one_chunk()),
    );
    let serial_ce = ce_ops(&serial, "intersection");
    assert!(serial_ce > 0, "serial run charged no Ce operations");
    assert_eq!(ce_ops(&whole, "intersection"), serial_ce);
    assert_eq!(
        whole.counter("net", "frame_sent", "frames"),
        serial.counter("net", "frame_sent", "frames"),
    );
    assert_eq!(
        whole.counter("net", "frame_sent", "bytes"),
        serial.counter("net", "frame_sent", "bytes"),
    );
    // Genuinely chunked streaming re-frames the wire (envelope headers)
    // but must charge exactly the same §6.1 encryption work.
    let streamed = metrics_of(
        |t| sender(t, ProtocolShape::INTERSECTION, &vs(), &[], 7, chunked()),
        |t| receiver(t, ProtocolShape::INTERSECTION, &vr(), 8, chunked()),
    );
    assert_eq!(ce_ops(&streamed, "intersection"), serial_ce);
    assert!(
        streamed.counter("net", "frame_sent", "bytes")
            >= serial.counter("net", "frame_sent", "bytes"),
        "chunked streaming cannot shrink protocol-layer bytes",
    );
}
