//! Sharded-engine conformance: what the sharding layer promises beyond
//! "same answer".
//!
//! * **Wire identity at `--shards 1`** — the engine's one-bucket flow
//!   (no hello, the same loop as `B > 1`, nothing delegated) must put
//!   *byte-identical frames* on the wire as the serial reference modules
//!   when every list fits one chunk, frame for frame, on both sides, for
//!   all four protocols; chunking ("pipelining") a list then only splits
//!   its frame under the envelope, item for item.
//! * **Typed rejection of malformed hellos** — a sender offered a
//!   corrupt, zero-bucket, oversized or truncated shard hello fails with
//!   a [`ProtocolError`], never a panic.
//! * **Leakage model ⇔ engine agreement** — the per-bucket
//!   `*_bucket_done` trace events of a real sharded run report exactly
//!   the per-bucket set sizes [`minshare::leakage`] predicts from the
//!   inputs, and the assembled [`BucketTrace`]s reconcile with the §6.1
//!   cost formulas bucket by bucket ([`reconcile_sharded`]).
//! * **Composition laws** (proptests) — per-bucket size disclosures
//!   partition the totals the unsharded protocols already reveal, and
//!   per-bucket §5.2 leak matrices sum cell-for-cell to the global
//!   matrix, for arbitrary multisets under the engine's real bucket
//!   assignment.

use std::sync::{Arc, Mutex, OnceLock};

use minshare::leakage::{
    bucket_multiset_disclosure, bucket_size_disclosure, bucketed_class_intersections,
    expected_class_intersections, merge_class_intersections,
};
use minshare::prelude::*;
use minshare::shard::value_bucket;
use minshare_costmodel::reconcile::{reconcile_sharded, BucketTrace};
use minshare_costmodel::section6::Protocol;
use minshare_net::{duplex_pair, NetError, Transport};
use minshare_trace::sink::RingSink;
use minshare_trace::{TraceSink, Tracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> &'static QrGroup {
    static GROUP: OnceLock<QrGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5a4d);
        QrGroup::generate(&mut rng, 64).expect("group")
    })
}

fn pool() -> &'static EncryptPool {
    static POOL: OnceLock<EncryptPool> = OnceLock::new();
    POOL.get_or_init(|| EncryptPool::new(2))
}

fn values(n: usize, offset: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("value-{:04}", i + offset).into_bytes())
        .collect()
}

fn pipe() -> PipelineConfig {
    PipelineConfig::chunked(3)
}

fn single_shard() -> ShardConfig {
    ShardConfig {
        shards: 1,
        ..ShardConfig::default()
    }
}

// ---------------------------------------------------------------------
// Wire identity at --shards 1
// ---------------------------------------------------------------------

/// Records every frame a party sends, in order (the conformance suite's
/// technique, reused for the one-bucket identity claim).
struct RecordingTransport<T: Transport> {
    inner: T,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl<T: Transport> RecordingTransport<T> {
    fn new(inner: T) -> (Self, Arc<Mutex<Vec<Vec<u8>>>>) {
        let sent = Arc::new(Mutex::new(Vec::new()));
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
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)?;
        self.sent.lock().unwrap().push(frame.to_vec());
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }
}

/// Two-party run with frame recording on both sides.
fn record_frames<SO: Send, RO: Send>(
    sender: impl FnOnce(&mut dyn Transport) -> Result<SO, ProtocolError> + Send,
    receiver: impl FnOnce(&mut dyn Transport) -> Result<RO, ProtocolError> + Send,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, SO, RO) {
    let (s_end, r_end) = duplex_pair();
    let (mut s_t, s_frames) = RecordingTransport::new(s_end);
    let (mut r_t, r_frames) = RecordingTransport::new(r_end);
    let (s_out, r_out) = std::thread::scope(|scope| {
        let s = scope.spawn(move || sender(&mut s_t));
        let r = scope.spawn(move || receiver(&mut r_t));
        (s.join().unwrap(), r.join().unwrap())
    });
    let s_frames = Arc::try_unwrap(s_frames).unwrap().into_inner().unwrap();
    let r_frames = Arc::try_unwrap(r_frames).unwrap().into_inner().unwrap();
    (s_frames, r_frames, s_out.unwrap(), r_out.unwrap())
}

/// `(V_S, ext, V_R)`.
type Inputs<'a> = (&'a [Vec<u8>], &'a [Vec<u8>], &'a [Vec<u8>]);

/// Both roles of `shape` through the engine at one bucket, recorded.
fn record_engine(
    shape: ProtocolShape<'_>,
    (vs, ext, vr): Inputs<'_>,
    seeds: (u64, u64),
    pipe: PipelineConfig,
) -> (
    Vec<Vec<u8>>,
    Vec<Vec<u8>>,
    engine::SenderOutput,
    engine::ReceiverOutput,
) {
    let (g, cfg) = (group(), single_shard());
    record_frames(
        |t| {
            let mut rng = StdRng::seed_from_u64(seeds.0);
            engine::run_sender(t, g, shape, vs, ext, &mut rng, pool(), pipe, &cfg)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(seeds.1);
            engine::run_receiver(t, g, shape, vr, &mut rng, pool(), pipe, &cfg)
        },
    )
}

/// Undoes the chunked envelope: a `[TAG_CHUNKED, tag, total, count]`
/// header followed by `count` frames `[tag, n_i, items…]` becomes the one
/// plain frame `[tag, total, items…]` carrying the same items in order.
fn merge_chunks(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    const TAG_CHUNKED: u8 = 4;
    let mut out = Vec::new();
    let mut frames = frames.iter();
    while let Some(frame) = frames.next() {
        if frame.first() != Some(&TAG_CHUNKED) {
            out.push(frame.clone());
            continue;
        }
        let count = u32::from_be_bytes(frame[6..10].try_into().unwrap());
        let mut merged = frame[1..6].to_vec();
        for _ in 0..count {
            merged.extend_from_slice(&frames.next().expect("chunk frame")[5..]);
        }
        out.push(merged);
    }
    out
}

#[test]
fn single_shard_intersection_is_frame_identical_to_pipelined() {
    let g = group();
    let (vs, vr) = (values(9, 0), values(7, 5));
    let (base_s, base_r, _, base_out) = record_frames(
        |t| {
            let mut rng = StdRng::seed_from_u64(3);
            intersection::run_sender(t, g, &vs, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(4);
            intersection::run_receiver(t, g, &vr, &mut rng)
        },
    );
    let shape = ProtocolShape::INTERSECTION;
    let whole = PipelineConfig::chunked(usize::MAX);
    let (one_s, one_r, _, one_out) = record_engine(shape, (&vs, &[], &vr), (3, 4), whole);
    assert_eq!(base_s, one_s, "sender frames diverge at --shards 1");
    assert_eq!(base_r, one_r, "receiver frames diverge at --shards 1");
    assert_eq!(
        base_out.intersection,
        intersection::IntersectionReceiverOutput::from(one_out).intersection
    );
    // Pipelined (3 codewords per chunk): the same items under envelopes.
    let (piped_s, piped_r, _, _) = record_engine(shape, (&vs, &[], &vr), (3, 4), pipe());
    assert!(piped_s.len() > base_s.len() && piped_r.len() > base_r.len());
    assert_eq!(
        base_s,
        merge_chunks(&piped_s),
        "sender items diverge when chunked"
    );
    assert_eq!(
        base_r,
        merge_chunks(&piped_r),
        "receiver items diverge when chunked"
    );
}

#[test]
fn single_shard_equijoin_is_frame_identical_to_pipelined() {
    let g = group();
    let cipher = HybridCipher::new(g.clone(), 24);
    let vs = values(8, 0);
    let ext: Vec<Vec<u8>> = vs.iter().map(|v| [&b"ext:"[..], v].concat()).collect();
    let entries: Vec<(Vec<u8>, Vec<u8>)> = vs.iter().cloned().zip(ext.iter().cloned()).collect();
    let vr = values(6, 4);
    let (base_s, base_r, _, base_out) = record_frames(
        |t| {
            let mut rng = StdRng::seed_from_u64(5);
            equijoin::run_sender(t, g, &cipher, &entries, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(6);
            equijoin::run_receiver(t, g, &cipher, &vr, &mut rng)
        },
    );
    let shape = ProtocolShape::equijoin(&cipher);
    let whole = PipelineConfig::chunked(usize::MAX);
    let (one_s, one_r, _, one_out) = record_engine(shape, (&vs, &ext, &vr), (5, 6), whole);
    assert_eq!(base_s, one_s, "sender frames diverge at --shards 1");
    assert_eq!(base_r, one_r, "receiver frames diverge at --shards 1");
    assert_eq!(base_out.matches, one_out.matches);
    let (piped_s, piped_r, _, _) = record_engine(shape, (&vs, &ext, &vr), (5, 6), pipe());
    assert!(piped_s.len() > base_s.len() && piped_r.len() > base_r.len());
    assert_eq!(
        base_s,
        merge_chunks(&piped_s),
        "sender items diverge when chunked"
    );
    assert_eq!(
        base_r,
        merge_chunks(&piped_r),
        "receiver items diverge when chunked"
    );
}

#[test]
fn single_shard_size_protocols_are_frame_identical_to_serial() {
    let g = group();
    let (vs, vr) = (values(9, 0), values(7, 5));
    let whole = PipelineConfig::chunked(usize::MAX);
    let (base_s, base_r, _, base_out) = record_frames(
        |t| {
            let mut rng = StdRng::seed_from_u64(7);
            intersection_size::run_sender(t, g, &vs, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(8);
            intersection_size::run_receiver(t, g, &vr, &mut rng)
        },
    );
    let shape = ProtocolShape::INTERSECTION_SIZE;
    let (one_s, one_r, _, one_out) = record_engine(shape, (&vs, &[], &vr), (7, 8), whole);
    assert_eq!(base_s, one_s, "sender frames diverge at --shards 1");
    assert_eq!(base_r, one_r, "receiver frames diverge at --shards 1");
    assert_eq!(base_out.intersection_size as u64, one_out.match_count);
    // Chunked at one bucket — the one deliberate wire delta of the
    // single engine — the size variant still carries the same items.
    let (piped_s, piped_r, _, _) = record_engine(shape, (&vs, &[], &vr), (7, 8), pipe());
    assert_eq!(
        base_s,
        merge_chunks(&piped_s),
        "sender items diverge when chunked"
    );
    assert_eq!(
        base_r,
        merge_chunks(&piped_r),
        "receiver items diverge when chunked"
    );

    // Equijoin size: multisets with duplicate classes.
    let mut ms = values(6, 0);
    ms.extend(values(3, 0)); // duplicates
    let mr = values(5, 2);
    let (base_s, base_r, _, base_out) = record_frames(
        |t| {
            let mut rng = StdRng::seed_from_u64(9);
            equijoin_size::run_sender(t, g, &ms, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(10);
            equijoin_size::run_receiver(t, g, &mr, &mut rng)
        },
    );
    let shape = ProtocolShape::EQUIJOIN_SIZE;
    let (one_s, one_r, _, one_out) = record_engine(shape, (&ms, &[], &mr), (9, 10), whole);
    assert_eq!(base_s, one_s, "sender frames diverge at --shards 1");
    assert_eq!(base_r, one_r, "receiver frames diverge at --shards 1");
    assert_eq!(base_out.join_size, one_out.match_count);
    assert_eq!(base_out.class_intersections, one_out.class_intersections);
}

// ---------------------------------------------------------------------
// Malformed hello rejection
// ---------------------------------------------------------------------

/// Feeds a canned first frame to a sender engine; discards its sends.
struct ScriptedTransport {
    frames: Vec<Vec<u8>>,
}

impl Transport for ScriptedTransport {
    fn send(&mut self, _frame: &[u8]) -> Result<(), NetError> {
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        if self.frames.is_empty() {
            Err(NetError::Closed)
        } else {
            Ok(self.frames.remove(0))
        }
    }
}

#[test]
fn malformed_shard_hellos_are_typed_errors() {
    const TAG_SHARDED: u8 = 5;
    let g = group();
    let vs = values(4, 0);
    let cases: [&[u8]; 4] = [
        &[TAG_SHARDED, 9, 0, 0, 0, 2], // unsupported version
        &[TAG_SHARDED, 1, 0, 0, 0, 0], // zero buckets
        &[TAG_SHARDED, 1, 0, 1, 0, 1], // 65537 > MAX_SHARDS
        &[TAG_SHARDED, 1, 0],          // truncated
    ];
    for (i, hello) in cases.iter().enumerate() {
        let mut t = ScriptedTransport {
            frames: vec![hello.to_vec()],
        };
        let mut rng = StdRng::seed_from_u64(11);
        let result = engine::run_sender(
            &mut t,
            g,
            ProtocolShape::INTERSECTION,
            &vs,
            &[],
            &mut rng,
            pool(),
            pipe(),
            &single_shard(),
        );
        assert!(result.is_err(), "case {i}: malformed hello was accepted");
    }
}

// ---------------------------------------------------------------------
// Leakage model ⇔ engine agreement, and §6.1 reconciliation
// ---------------------------------------------------------------------

fn field(event: &minshare_trace::Event, name: &str) -> u64 {
    event
        .fields
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn bucket_events_match_leakage_model_and_reconcile() {
    let g = group();
    let shards = 5u32;
    let (vs, vr) = (values(21, 0), values(17, 9));
    let cfg = ShardConfig {
        shards,
        mem_budget: 1 << 12, // force some spill runs at 64-bit codewords
        ..ShardConfig::default()
    };
    let s_ring = Arc::new(RingSink::new(256));
    let r_ring = Arc::new(RingSink::new(256));
    let run = run_two_party(
        |t| {
            let _trace =
                minshare_trace::install(Tracer::to_sink(Arc::clone(&s_ring) as Arc<dyn TraceSink>));
            let mut rng = StdRng::seed_from_u64(12);
            engine::run_sender(
                t,
                g,
                ProtocolShape::INTERSECTION,
                &vs,
                &[],
                &mut rng,
                pool(),
                pipe(),
                &cfg,
            )
        },
        |t| {
            let _trace =
                minshare_trace::install(Tracer::to_sink(Arc::clone(&r_ring) as Arc<dyn TraceSink>));
            let mut rng = StdRng::seed_from_u64(13);
            engine::run_receiver(
                t,
                g,
                ProtocolShape::INTERSECTION,
                &vr,
                &mut rng,
                pool(),
                pipe(),
                &cfg,
            )
        },
    )
    .expect("sharded run");

    // Assemble per-bucket traces from both parties' event streams.
    let mut traces = vec![
        BucketTrace {
            vs: 0,
            vr: 0,
            ce: 0
        };
        shards as usize
    ];
    for event in s_ring.snapshot().iter().chain(r_ring.snapshot().iter()) {
        if event.scope != "shard" {
            continue;
        }
        let b = field(event, "bucket") as usize;
        match event.name {
            "sender_bucket_done" => {
                traces[b].vs += field(event, "own_items");
                traces[b].ce += field(event, "ce");
            }
            "receiver_bucket_done" => {
                traces[b].vr += field(event, "own_items");
                traces[b].ce += field(event, "ce");
            }
            _ => {}
        }
    }

    // The engine's per-bucket set sizes are exactly what the leakage
    // model predicts from the inputs under the real bucket assignment.
    let assign = |v: &[u8]| value_bucket(g, v, shards).expect("bucket");
    let predicted_vs = bucket_size_disclosure(&vs, shards, &assign);
    let predicted_vr = bucket_size_disclosure(&vr, shards, &assign);
    for (b, trace) in traces.iter().enumerate() {
        assert_eq!(trace.vs, predicted_vs[b], "sender bucket {b} size");
        assert_eq!(trace.vr, predicted_vr[b], "receiver bucket {b} size");
    }

    // And the assembled traces reconcile with §6.1 bucket by bucket,
    // including the counted wire traffic (hello + per-bucket frames all
    // fit in the same framing envelope).
    let k_bits = 8 * g.codeword_bytes() as u64;
    let reconciliation = reconcile_sharded(
        Protocol::Intersection,
        k_bits,
        0,
        &traces,
        run.sender_traffic.bytes_sent() + run.receiver_traffic.bytes_sent(),
        run.sender_traffic.frames_sent() + run.receiver_traffic.frames_sent(),
    );
    assert!(
        reconciliation.ok(),
        "sharded reconciliation failed: {}",
        reconciliation.to_json()
    );
}

// ---------------------------------------------------------------------
// Composition laws (proptests)
// ---------------------------------------------------------------------

/// Small multisets over a tiny alphabet, so duplicates and bucket
/// collisions actually happen.
fn multiset() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(0u8..24, 0..40).prop_map(|ids| {
        ids.into_iter()
            .map(|i| format!("v-{i}").into_bytes())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Per-bucket disclosures partition the totals the unsharded
    // protocols already reveal: set sizes sum to the distinct count,
    // multiset sizes to the occurrence count — under the engine's real
    // bucket assignment.
    #[test]
    fn bucket_disclosures_partition_known_totals(vals in multiset(), shards in 1u32..9) {
        let g = group();
        let assign = |v: &[u8]| value_bucket(g, v, shards).expect("bucket");
        let set_sizes = bucket_size_disclosure(&vals, shards, &assign);
        prop_assert_eq!(set_sizes.len(), shards as usize);
        let distinct: std::collections::BTreeSet<&Vec<u8>> = vals.iter().collect();
        prop_assert_eq!(set_sizes.iter().sum::<u64>(), distinct.len() as u64);
        let multi_sizes = bucket_multiset_disclosure(&vals, shards, &assign);
        prop_assert_eq!(multi_sizes.iter().sum::<u64>(), vals.len() as u64);
    }

    // The per-bucket §5.2 leak matrices of a sharded equijoin-size run
    // sum cell-for-cell to the global matrix: sharding refines the
    // paper's leak by bucket, it never invents or destroys cells.
    #[test]
    fn bucketed_leak_matrices_sum_to_global(
        vr in multiset(),
        vs in multiset(),
        shards in 1u32..6,
    ) {
        let g = group();
        let assign = |v: &[u8]| value_bucket(g, v, shards).expect("bucket");
        let per_bucket = bucketed_class_intersections(&vr, &vs, shards, &assign);
        prop_assert_eq!(per_bucket.len(), shards as usize);
        prop_assert_eq!(
            merge_class_intersections(&per_bucket),
            expected_class_intersections(&vr, &vs)
        );
    }
}
