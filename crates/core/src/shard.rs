//! Bucket layout and bounded-memory plumbing of [`crate::engine`].
//!
//! §6.2 of the paper observes that the `Ce` work is embarrassingly
//! parallel; this module adds the data-layout half of that observation.
//! Both parties bucket their values on a prefix of `h(v)`'s fixed-width
//! codeword into `B` shards (the assignment is a pure function of the
//! public group, so it is common knowledge), and the engine runs `B`
//! per-bucket instances of the chosen protocol back to back over one
//! transport. `B = 1` is the same flow with one bucket.
//!
//! **Memory stays O(bucket)**: every "collect all codewords, then sort"
//! step of the paper's protocols is a push into the spill-to-disk
//! [`crate::spill::ExtSorter`], keyed by `bucket_id ‖ codeword`, and the
//! wire phase walks the merged stream one bucket at a time. Spill files
//! hold only post-`h`-post-`enc` bytes — the analyzer's WIRE01 pass
//! treats `push_record` as a wire sink and proves it.
//!
//! ## Wire format
//!
//! A receiver that wants `B > 1` buckets opens with the 6-byte hello
//! `[TAG_SHARDED, 1, B:u32be]`; then for each bucket `b = 0..B` the
//! parties exchange exactly the one-bucket message sequence restricted
//! to bucket `b`. With `B = 1` no hello is sent. Senders adopt the
//! peer's choice by looking at the first frame: a hello announces `B`,
//! anything else is bucket 0's first message, replayed to the same
//! engine through [`PushbackTransport`].
//!
//! ## Leakage delta
//!
//! Sharding discloses, per party, the *per-bucket set sizes* — `B`
//! values summing to `|V|` — where the unsharded protocols disclose only
//! the total. For the -size variants it additionally localizes each
//! match to its bucket. [`crate::leakage`] quantifies both deltas
//! exactly, the same way the §5.2 duplicate-class leak is handled; §6.1
//! cost totals are unchanged because every formula is linear in
//! `|V_S|`/`|V_R|` (see `minshare-costmodel`'s `reconcile_sharded`).

use std::collections::VecDeque;
use std::path::PathBuf;

use minshare_bignum::UBig;
use minshare_crypto::{CommutativeKey, EncryptPool, PendingBatch, QrGroup};
use minshare_net::{NetError, Transport};

use crate::error::ProtocolError;
use crate::spill::{ExtSorter, SortedStream, SpillStats};
use crate::stats::OpCounters;
use crate::wire::MAX_SHARDS;

/// How many buckets' encryption jobs may be in flight at once during the
/// spill phase; bounds peak codeword memory to this many buckets.
const SPILL_WINDOW: usize = 4;

/// Bucketing and memory knobs of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Bucket count `B` chosen by the receiver (senders adopt the
    /// peer's). `1` (the default) sends no hello frame.
    pub shards: u32,
    /// In-memory byte budget of each spill sorter; codeword records
    /// beyond it go to sorted run files on disk.
    pub mem_budget: usize,
    /// Directory for spill run files (`None` = the OS temp dir). Runs
    /// are unlinked at creation, so nothing lingers after the process.
    pub spill_dir: Option<PathBuf>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            mem_budget: 64 << 20,
            spill_dir: None,
        }
    }
}

impl ShardConfig {
    /// A config for `shards` buckets with default memory knobs.
    pub fn with_shards(shards: u32) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }

    pub(crate) fn dir(&self) -> PathBuf {
        self.spill_dir.clone().unwrap_or_else(std::env::temp_dir)
    }

    /// Shard count clamped to the wire-format bounds.
    pub fn effective_shards(&self) -> u32 {
        self.shards.clamp(1, MAX_SHARDS)
    }
}

/// A transport wrapper that re-delivers one already-received frame
/// before reading from the underlying link — how a sender that looked at
/// the first frame for a hello hands a non-hello back to itself.
pub struct PushbackTransport<'a, T: Transport + ?Sized> {
    first: Option<Vec<u8>>,
    inner: &'a mut T,
}

impl<'a, T: Transport + ?Sized> PushbackTransport<'a, T> {
    /// Wraps `inner`, making `first` (if any) the next received frame.
    pub fn new(first: Option<Vec<u8>>, inner: &'a mut T) -> Self {
        PushbackTransport { first, inner }
    }
}

impl<T: Transport + ?Sized> Transport for PushbackTransport<'_, T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        match self.first.take() {
            Some(frame) => Ok(frame),
            None => self.inner.recv(),
        }
    }
}

/// The bucket a fixed-width codeword prefix maps to: the first (up to)
/// eight bytes read big-endian, mod `shards`. Applied to `h(v)`'s
/// encoding by both parties, so the assignment needs no coordination.
pub fn bucket_of(codeword: &[u8], shards: u32) -> u32 {
    let mut prefix = [0u8; 8];
    for (d, s) in prefix.iter_mut().zip(codeword.iter()) {
        *d = *s;
    }
    (u64::from_be_bytes(prefix) % u64::from(shards.max(1))) as u32
}

/// The bucket a clear value lands in under `group`: `bucket_of` applied
/// to the fixed-width encoding of `h(value)`. This is the assignment
/// function the leakage calculator and tests feed to
/// [`crate::leakage::bucket_size_disclosure`].
pub fn value_bucket(group: &QrGroup, value: &[u8], shards: u32) -> Result<u32, ProtocolError> {
    let h = group.hash_to_group(value);
    Ok(bucket_of(&group.encode_element(&h)?, shards))
}

pub(crate) fn shard_err(detail: impl std::fmt::Display) -> ProtocolError {
    ProtocolError::Spill {
        detail: detail.to_string(),
    }
}

/// Per-bucket entry indices: `plan[b]` lists the positions (in the
/// prepared entry list) whose hash falls in bucket `b`.
pub(crate) fn plan_buckets(
    group: &QrGroup,
    hashes: &[UBig],
    shards: u32,
) -> Result<Vec<Vec<u32>>, ProtocolError> {
    let shards = shards.clamp(1, MAX_SHARDS);
    let mut plan: Vec<Vec<u32>> = vec![Vec::new(); shards as usize];
    for (i, h) in hashes.iter().enumerate() {
        let b = bucket_of(&group.encode_element(h)?, shards);
        let idx = u32::try_from(i).map_err(|_| shard_err("set too large for u32 indices"))?;
        plan.get_mut(b as usize)
            .ok_or_else(|| shard_err("bucket index out of range"))?
            .push(idx);
    }
    Ok(plan)
}

/// A party's exponents: `e` alone, or `(e_S, e'_S)` for the sender of
/// the protocol whose elements are `(tag, κ)` pairs (§4.3 step 1).
pub(crate) struct Keys {
    pub(crate) e: CommutativeKey,
    pub(crate) e_prime: Option<CommutativeKey>,
}

impl Keys {
    /// `Ce` spent per element encrypted under these keys: 1 or 2.
    pub(crate) fn per_item(&self) -> u64 {
        1 + u64::from(self.e_prime.is_some())
    }

    /// Starts `f_e(items)` — and `f_e'(items)` when there is a second
    /// key — on the pool.
    pub(crate) fn submit(&self, pool: &EncryptPool, group: &QrGroup, items: &[UBig]) -> Batches {
        Batches {
            first: pool.submit_encrypt(group, &self.e, items),
            second: self
                .e_prime
                .as_ref()
                .map(|e_prime| pool.submit_encrypt(group, e_prime, items)),
        }
    }
}

/// The pool jobs of one [`Keys::submit`], in key order.
pub(crate) struct Batches {
    pub(crate) first: PendingBatch,
    pub(crate) second: Option<PendingBatch>,
}

/// The fixed-width spill record `bucket ‖ codeword [‖ idx] [‖ κ]`: `idx`
/// is the element's position in the prepared entry list (kept by a party
/// that must map a sorted codeword back to its value), `κ` the second
/// codeword of a two-key sender. Sorting by the `bucket ‖ codeword`
/// prefix is the per-bucket lexicographic order the paper asks for.
#[derive(Clone, Copy)]
pub(crate) struct RecordLayout {
    pub(crate) width: usize,
    pub(crate) with_idx: bool,
    pub(crate) with_kappa: bool,
}

impl RecordLayout {
    pub(crate) fn len(&self) -> usize {
        4 + self.width + self.idx_len() + if self.with_kappa { self.width } else { 0 }
    }

    fn idx_len(&self) -> usize {
        if self.with_idx {
            4
        } else {
            0
        }
    }

    /// The record's sort codeword (`Y`, or the tag).
    pub(crate) fn codeword(&self, rec: &[u8]) -> Result<UBig, ProtocolError> {
        rec_codeword(rec, 4, self.width)
    }

    /// The record's entry index.
    pub(crate) fn idx(&self, rec: &[u8]) -> Result<u32, ProtocolError> {
        rec_u32(rec, 4 + self.width)
    }

    /// The record's second codeword.
    pub(crate) fn kappa(&self, rec: &[u8]) -> Result<UBig, ProtocolError> {
        rec_codeword(rec, 4 + self.width + self.idx_len(), self.width)
    }
}

/// One in-flight spill-phase encryption: the bucket it belongs to, the
/// entry indices it covers, and the pool jobs.
struct SpillJob<'a> {
    bucket: u32,
    idxs: &'a [u32],
    jobs: Batches,
}

/// Waits one spill job and pushes its codewords into the sorter.
fn drain_spill_job(
    group: &QrGroup,
    sorter: &mut ExtSorter,
    layout: RecordLayout,
    job: SpillJob<'_>,
) -> Result<(), ProtocolError> {
    let codewords = job.jobs.first.wait();
    let kappas = job.jobs.second.map(PendingBatch::wait);
    for (k, y) in codewords.iter().enumerate() {
        let mut rec = Vec::with_capacity(layout.len());
        rec.extend_from_slice(&job.bucket.to_be_bytes());
        rec.extend_from_slice(&group.encode_element(y)?);
        if layout.with_idx {
            let idx = job
                .idxs
                .get(k)
                .ok_or_else(|| shard_err("spill job shorter than its index list"))?;
            rec.extend_from_slice(&idx.to_be_bytes());
        }
        if layout.with_kappa {
            let kappa = kappas
                .as_ref()
                .and_then(|list| list.get(k))
                .ok_or_else(|| shard_err("spill job without its second codeword"))?;
            rec.extend_from_slice(&group.encode_element(kappa)?);
        }
        sorter.push_record(&rec)?;
    }
    Ok(())
}

/// The spill phase of both roles: encrypt each bucket's hashes on the
/// pool (at most [`SPILL_WINDOW`] buckets in flight) and push the
/// codewords into a sorter. Counts one `Ce` per hash per key. Returns
/// the merged stream and what the sorter did.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encrypt_buckets(
    group: &QrGroup,
    pool: &EncryptPool,
    keys: &Keys,
    hashes: &[UBig],
    plan: &[Vec<u32>],
    layout: RecordLayout,
    cfg: &ShardConfig,
    ops: &mut OpCounters,
) -> Result<(BucketStream, SpillStats), ProtocolError> {
    let mut sorter = ExtSorter::new(layout.len(), cfg.mem_budget, &cfg.dir())?;
    let mut in_flight: VecDeque<SpillJob<'_>> = VecDeque::new();
    for (b, idxs) in plan.iter().enumerate() {
        let batch: Vec<UBig> = idxs
            .iter()
            .map(|&i| {
                hashes
                    .get(i as usize)
                    .cloned()
                    .ok_or_else(|| shard_err("bucket plan index out of range"))
            })
            .collect::<Result<_, _>>()?;
        ops.encryptions += keys.per_item() * batch.len() as u64;
        in_flight.push_back(SpillJob {
            bucket: b as u32,
            idxs,
            jobs: keys.submit(pool, group, &batch),
        });
        while in_flight.len() >= SPILL_WINDOW {
            if let Some(job) = in_flight.pop_front() {
                drain_spill_job(group, &mut sorter, layout, job)?;
            }
        }
    }
    while let Some(job) = in_flight.pop_front() {
        drain_spill_job(group, &mut sorter, layout, job)?;
    }
    let (stream, stats) = sorter.finish()?;
    Ok((BucketStream::new(stream), stats))
}

/// Walks a merged spill stream one bucket at a time (records are sorted
/// by their `bucket ‖ codeword` prefix, so each bucket is contiguous).
pub(crate) struct BucketStream {
    stream: SortedStream,
    lookahead: Option<Vec<u8>>,
}

impl BucketStream {
    fn new(stream: SortedStream) -> Self {
        BucketStream {
            stream,
            lookahead: None,
        }
    }

    /// Every record of bucket `b`, in codeword order. Must be called
    /// with strictly increasing `b`.
    pub(crate) fn take_bucket(&mut self, b: u32) -> Result<Vec<Vec<u8>>, ProtocolError> {
        let mut out = Vec::new();
        loop {
            let rec = match self.lookahead.take() {
                Some(rec) => rec,
                None => match self.stream.next_record()? {
                    Some(rec) => rec,
                    None => return Ok(out),
                },
            };
            let bucket = rec_u32(&rec, 0)?;
            if bucket == b {
                out.push(rec);
            } else if bucket > b {
                self.lookahead = Some(rec);
                return Ok(out);
            } else {
                return Err(shard_err("spill stream went backwards across buckets"));
            }
        }
    }
}

fn rec_u32(rec: &[u8], at: usize) -> Result<u32, ProtocolError> {
    let bytes = rec
        .get(at..at + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or_else(|| shard_err("truncated spill record"))?;
    Ok(u32::from_be_bytes(bytes))
}

/// Decodes a codeword field of a spill record. The bytes are our own
/// prior `encode_elem` output, so plain big-endian reconstruction
/// suffices (no domain re-validation).
fn rec_codeword(rec: &[u8], at: usize, width: usize) -> Result<UBig, ProtocolError> {
    let bytes = rec
        .get(at..at + width)
        .ok_or_else(|| shard_err("truncated spill record"))?;
    Ok(UBig::from_be_bytes(bytes))
}

/// One deterministic per-bucket completion event. `ce` is the bucket's
/// exact §6.1 `Ce` expenditure on this party; `minshare-costmodel`'s
/// `reconcile_sharded` checks these per-bucket figures still sum to the
/// paper's formulas.
pub(crate) fn emit_bucket_done(
    name: &'static str,
    protocol: &'static str,
    bucket: u32,
    own_items: usize,
    peer_items: usize,
    ce: u64,
) {
    minshare_trace::emit("shard", name, true, move || {
        vec![
            minshare_trace::count("bucket", u64::from(bucket)),
            minshare_trace::count("own_items", own_items as u64),
            minshare_trace::count("peer_items", peer_items as u64),
            minshare_trace::count("ce", ce),
            minshare_trace::count(protocol, 1),
        ]
    });
}

/// Deterministic spill summary for one engine's sort phase: run/byte/
/// record counters only (sizes, never content). `runs_spilled == 0`
/// means the whole set fit in the memory budget.
pub(crate) fn emit_spill_done(stats: &SpillStats) {
    let (runs, bytes, records) = (stats.runs_spilled, stats.bytes_spilled, stats.records);
    minshare_trace::emit("shard", "spill_done", true, move || {
        vec![
            minshare_trace::count("runs_spilled", runs),
            minshare_trace::count("bytes_spilled", bytes),
            minshare_trace::count("records", records),
        ]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{entries, ext_of, group, run_pair, values, Inputs};
    use crate::engine::{ProtocolShape, ReceiverOutput, SenderOutput};
    use crate::runner::{run_two_party, TwoPartyRun};
    use crate::{equijoin, equijoin_size, intersection, intersection_size};
    use minshare_crypto::kcipher::HybridCipher;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tiny budget so even small test sets exercise the spill path.
    fn tiny_cfg(shards: u32) -> ShardConfig {
        ShardConfig {
            shards,
            mem_budget: 64,
            ..ShardConfig::default()
        }
    }

    /// Both roles of `shape` at chunk size 4 under `cfg`.
    fn run<SO, RO>(
        g: &QrGroup,
        pool: &EncryptPool,
        shape: ProtocolShape<'_>,
        inputs: Inputs<'_>,
        seeds: (u64, u64),
        cfg: &ShardConfig,
    ) -> TwoPartyRun<SO, RO>
    where
        SO: From<SenderOutput> + Send,
        RO: From<ReceiverOutput> + Send,
    {
        run_pair(g, pool, shape, inputs, seeds, 4, cfg).unwrap()
    }

    #[test]
    fn sharded_intersection_matches_serial_across_shard_counts() {
        let g = group();
        let (vs, vr) = (values(23, 0), values(17, 11));
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                intersection::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                intersection::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        for shards in [1u32, 2, 3, 8] {
            let pool = EncryptPool::new(2);
            let shape = ProtocolShape::INTERSECTION;
            let cfg = tiny_cfg(shards);
            let run: TwoPartyRun<
                intersection::IntersectionSenderOutput,
                intersection::IntersectionReceiverOutput,
            > = run(&g, &pool, shape, (&vs, &[], &vr), (500, 600), &cfg);
            assert_eq!(run.receiver, serial.receiver, "B={shards}");
            assert_eq!(run.sender, serial.sender, "B={shards}");
        }
    }

    #[test]
    fn sharded_equijoin_matches_serial() {
        let g = group();
        let cipher = HybridCipher::new(g.clone(), 64);
        let (vs, vr) = (values(19, 0), values(13, 9));
        let entries = entries(&vs);
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                equijoin::run_sender(t, &g, &cipher, &entries, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                equijoin::run_receiver(t, &g, &cipher, &vr, &mut rng)
            },
        )
        .unwrap();
        for shards in [1u32, 2, 5] {
            let pool = EncryptPool::new(2);
            let shape = ProtocolShape::equijoin(&cipher);
            let cfg = tiny_cfg(shards);
            let run: TwoPartyRun<equijoin::EquijoinSenderOutput, equijoin::EquijoinReceiverOutput> =
                run(&g, &pool, shape, (&vs, &ext_of(&vs), &vr), (500, 600), &cfg);
            assert_eq!(run.receiver, serial.receiver, "B={shards}");
            assert_eq!(run.sender, serial.sender, "B={shards}");
        }
    }

    #[test]
    fn sharded_intersection_size_matches_serial() {
        let g = group();
        let (vs, vr) = (values(15, 0), values(12, 8));
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(300);
                intersection_size::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(400);
                intersection_size::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        let pool = EncryptPool::new(2);
        let shape = ProtocolShape::INTERSECTION_SIZE;
        for shards in [1u32, 4] {
            let run: TwoPartyRun<
                intersection_size::IntersectionSizeSenderOutput,
                intersection_size::IntersectionSizeReceiverOutput,
            > = run(
                &g,
                &pool,
                shape,
                (&vs, &[], &vr),
                (300, 400),
                &tiny_cfg(shards),
            );
            assert_eq!(run.receiver, serial.receiver, "B={shards}");
            assert_eq!(run.sender, serial.sender, "B={shards}");
        }
    }

    #[test]
    fn sharded_equijoin_size_matches_serial_with_duplicates() {
        let g = group();
        let mut vs = values(11, 0);
        vs.extend(values(5, 0)); // duplicates
        let mut vr = values(9, 4);
        vr.extend(values(9, 4)); // every value twice
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(700);
                equijoin_size::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(800);
                equijoin_size::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        let pool = EncryptPool::new(0);
        let shape = ProtocolShape::EQUIJOIN_SIZE;
        for shards in [1u32, 3] {
            let run: TwoPartyRun<
                equijoin_size::EquijoinSizeSenderOutput,
                equijoin_size::EquijoinSizeReceiverOutput,
            > = run(
                &g,
                &pool,
                shape,
                (&vs, &[], &vr),
                (700, 800),
                &tiny_cfg(shards),
            );
            assert_eq!(run.receiver, serial.receiver, "B={shards}");
            assert_eq!(run.sender, serial.sender, "B={shards}");
        }
    }

    #[test]
    fn empty_and_disjoint_sets_shard_cleanly() {
        let g = group();
        let pool = EncryptPool::new(1);
        let shape = ProtocolShape::INTERSECTION;
        let run: TwoPartyRun<
            intersection::IntersectionSenderOutput,
            intersection::IntersectionReceiverOutput,
        > = run(
            &g,
            &pool,
            shape,
            (&[], &[], &values(5, 0)),
            (1, 2),
            &tiny_cfg(4),
        );
        assert!(run.receiver.intersection.is_empty());
        assert_eq!(run.receiver.peer_set_size, 0);
        assert_eq!(run.sender.peer_set_size, 5);
    }

    #[test]
    fn bucket_assignment_is_stable_and_in_range() {
        let g = group();
        for (i, v) in values(50, 0).iter().enumerate() {
            let b = value_bucket(&g, v, 7).unwrap();
            assert!(b < 7, "value {i} bucket {b}");
            assert_eq!(b, value_bucket(&g, v, 7).unwrap());
        }
        assert_eq!(bucket_of(&[], 5), 0);
        assert_eq!(bucket_of(&[0, 0, 0, 0, 0, 0, 0, 9], 1), 0);
    }

    #[test]
    fn pushback_transport_replays_the_first_frame() {
        let (mut a, mut b) = minshare_net::duplex_pair();
        a.send(b"first").unwrap();
        a.send(b"second").unwrap();
        let frame = b.recv().unwrap();
        let mut pb = PushbackTransport::new(Some(frame), &mut b);
        assert_eq!(pb.recv().unwrap(), b"first");
        assert_eq!(pb.recv().unwrap(), b"second");
    }
}
