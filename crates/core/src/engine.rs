//! The protocol engine: one chunked, bucketed sender and one receiver
//! for all four protocols.
//!
//! §3.3, §4.3, §5.1 and §5.2 of the paper are one message skeleton —
//! `Y_R` out, `Y_S` back, `S`'s answer to `Y_R` — and differ in three
//! bits, which [`ProtocolShape`] spells out: whether the inputs are sets
//! or multisets, whether `S` withholds the pairing (answers sorted
//! instead of aligned with `Y_R`), and whether a second key and a payload
//! table ride along. [`run_sender`] and [`run_receiver`] run that
//! skeleton for any shape:
//!
//! 1. hello — a receiver that wants `B > 1` buckets announces `B`; the
//!    sender looks at the first frame and adopts it (no hello: `B = 1`);
//! 2. `prepare` — dedup (or not), hash, collision check;
//! 3. bucket plan on `h(v)` ([`crate::shard`]);
//! 4. pool-encrypt bucket by bucket into the spill sorter
//!    ([`crate::spill::ExtSorter`]), which hands the codewords back
//!    sorted, one bucket at a time;
//! 5. per bucket, the chunked exchange: every list crosses the wire
//!    under the chunked envelope of [`crate::wire`], re-encryption of a
//!    peer's list is submitted to the pool chunk by chunk as it lands
//!    (§6.2: *"We assume that we have P processors that we can utilize
//!    in parallel"*), and an aligned reply goes out chunk-for-chunk as
//!    those jobs drain;
//! 6. the `*_done` ops event in §6.1 units.
//!
//! `B = 1` is the same loop with one bucket, and a list that fits one
//! chunk is one plain frame — so `{shards: 1, chunk_size: MAX}` puts the
//! serial reference modules' exact bytes on the wire
//! ([`crate::intersection`], [`crate::equijoin`],
//! [`crate::intersection_size`], [`crate::equijoin_size`]; pinned frame
//! for frame in `tests/sharded.rs`). Those modules stay as the
//! paper-literal, scheme-generic reference; this engine is what the
//! daemon, the CLI and the benchmarks run.
//!
//! `shard/spill_done` and `shard/*_bucket_done` events are emitted iff a
//! hello was exchanged: an unsharded session's event stream carries no
//! `shard/*` entries even though it passes through the same sorter (a
//! real disk run is still reported by `spill/run_spilled`).

use std::collections::{BTreeMap, BTreeSet};

use minshare_bignum::UBig;
use minshare_crypto::kcipher::ExtCipher;
use minshare_crypto::{EncryptPool, PendingBatch, QrGroup};
use minshare_net::Transport;
use rand::Rng;

use crate::equijoin::{EquijoinReceiverOutput, EquijoinSenderOutput};
use crate::equijoin_size::{EquijoinSizeReceiverOutput, EquijoinSizeSenderOutput};
use crate::error::ProtocolError;
use crate::intersection::{IntersectionReceiverOutput, IntersectionSenderOutput};
use crate::intersection_size::{IntersectionSizeReceiverOutput, IntersectionSizeSenderOutput};
use crate::prepare::{prepare_multiset, prepare_set};
use crate::shard::{
    emit_bucket_done, emit_spill_done, encrypt_buckets, plan_buckets, shard_err, Keys,
    PushbackTransport, RecordLayout, ShardConfig,
};
use crate::stats::OpCounters;
use crate::wire::{
    decode_shard_hello, encode_shard_hello, send_codewords_chunked, send_payload_pairs_chunked,
    ChunkedReader, ChunkedWriter, Message, DEFAULT_CHUNK_SIZE, TAG_CODEWORDS, TAG_CODEWORD_PAIRS,
    TAG_PAYLOAD_PAIRS,
};

/// Wire chunking of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Codewords per wire chunk. A list that fits in one chunk goes out
    /// as a plain frame, byte-identical to the serial protocol;
    /// `usize::MAX` therefore never chunks.
    pub chunk_size: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::chunked(DEFAULT_CHUNK_SIZE)
    }
}

impl PipelineConfig {
    /// A config with an explicit chunk size.
    pub fn chunked(chunk_size: usize) -> Self {
        PipelineConfig { chunk_size }
    }
}

/// What distinguishes the paper's four protocols on the shared skeleton.
/// Only the four shapes the paper defines can be built.
#[derive(Clone, Copy)]
pub struct ProtocolShape<'a> {
    /// Trace scope of the `*_done` ops events.
    scope: &'static str,
    /// Multiset inputs (§5.2): duplicates are kept, sort checks are
    /// non-strict, and each side learns the other's duplicate
    /// distribution.
    multiset: bool,
    /// `S` withholds the pairing (§5.1, §5.2): its answer to `Y_R` is
    /// re-sorted, so `R` can count matches but not name them.
    sorted_reply: bool,
    /// A payload table rides along (§4.3): `S` holds a second key, every
    /// element is a `(tag, κ)` pair, and `ext(v)` travels under `K(κ)`.
    cipher: Option<&'a (dyn ExtCipher + Sync)>,
}

impl ProtocolShape<'static> {
    /// §3.3 intersection: sets, aligned reply, no payload.
    pub const INTERSECTION: Self = ProtocolShape {
        scope: "intersection",
        multiset: false,
        sorted_reply: false,
        cipher: None,
    };
    /// §5.1 intersection size: sets, sorted reply.
    pub const INTERSECTION_SIZE: Self = ProtocolShape {
        scope: "intersection_size",
        multiset: false,
        sorted_reply: true,
        cipher: None,
    };
    /// §5.2 equijoin size: multisets, sorted reply.
    pub const EQUIJOIN_SIZE: Self = ProtocolShape {
        scope: "equijoin_size",
        multiset: true,
        sorted_reply: true,
        cipher: None,
    };
}

impl<'a> ProtocolShape<'a> {
    /// §4.3 equijoin: sets, aligned reply, and a payload table encrypted
    /// with `cipher` (the paper's `K`; both parties must size it alike).
    pub fn equijoin(cipher: &'a (dyn ExtCipher + Sync)) -> Self {
        ProtocolShape {
            scope: "equijoin",
            multiset: false,
            sorted_reply: false,
            cipher: Some(cipher),
        }
    }
}

/// What `S` learned and spent, whatever the shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderOutput {
    /// `|V_R|` (occurrences, for a multiset shape).
    pub peer_size: usize,
    /// `R`'s duplicate distribution as leaked by `Y_R`: duplicates → how
    /// many distinct values have that many (all ones for a set shape).
    pub peer_duplicate_distribution: BTreeMap<u64, u64>,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// What `R` learned and spent, whatever the shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverOutput {
    /// Aligned reply: the own values found in `V_S`, each with its
    /// decrypted `ext(v)` (empty without a payload table), sorted.
    /// Empty for a sorted reply.
    pub matches: Vec<(Vec<u8>, Vec<u8>)>,
    /// `Σ dup_R · dup_S` over the common codewords: the intersection
    /// size for sets (`matches.len()` when they are named), the join
    /// size for multisets.
    pub match_count: u64,
    /// Sorted reply: the §5.2 leak, `(d, d') → |V_R(d) ∩ V_S(d')|`.
    pub class_intersections: BTreeMap<(u64, u64), u64>,
    /// `|V_S|` (occurrences, for a multiset shape).
    pub peer_size: usize,
    /// `S`'s duplicate distribution as leaked by `Y_S`.
    pub peer_duplicate_distribution: BTreeMap<u64, u64>,
    /// Cost-unit counts for this party.
    pub ops: OpCounters,
}

/// Streaming order check over a party's per-bucket codeword lists:
/// strict for sets (which also catches duplicate hashes, the paper's
/// collision check), non-strict for multisets. A sorted list keeps
/// duplicates adjacent, so the same pass yields the list lengths and the
/// duplicate distribution `duplicates → distinct codewords with that
/// many` (equal codewords share a hash, hence a bucket, so summing over
/// buckets is exact).
struct OrderCheck {
    what: &'static str,
    strict: bool,
    last: Option<UBig>,
    run: u64,
    len: usize,
    distribution: BTreeMap<u64, u64>,
}

impl OrderCheck {
    fn new(what: &'static str, strict: bool) -> Self {
        OrderCheck {
            what,
            strict,
            last: None,
            run: 0,
            len: 0,
            distribution: BTreeMap::new(),
        }
    }

    /// Admits the next element of the current list.
    fn push(&mut self, x: &UBig) -> Result<(), ProtocolError> {
        match self.last.as_ref().map(|prev| prev.cmp(x)) {
            Some(std::cmp::Ordering::Greater) => {
                return Err(ProtocolError::NotSorted { what: self.what })
            }
            Some(std::cmp::Ordering::Equal) if self.strict => {
                return Err(ProtocolError::NotSorted { what: self.what })
            }
            Some(std::cmp::Ordering::Equal) => self.run += 1,
            _ => {
                self.end_run();
                self.run = 1;
                self.last = Some(x.clone());
            }
        }
        self.len += 1;
        Ok(())
    }

    fn end_run(&mut self) {
        if self.run > 0 {
            *self.distribution.entry(self.run).or_insert(0) += 1;
        }
        self.run = 0;
    }

    /// Ends the current (bucket's) list and returns its length; the
    /// next list starts with no predecessor.
    fn end_list(&mut self) -> usize {
        self.end_run();
        self.last = None;
        std::mem::take(&mut self.len)
    }
}

fn unexpected(expected: &'static str, got: &Message) -> ProtocolError {
    ProtocolError::UnexpectedMessage {
        expected,
        got: got.kind(),
    }
}

/// Unwraps a `Codewords` chunk (the reader already validated the tag;
/// this keeps the engine panic-free all the same).
fn into_codewords(msg: Message) -> Result<Vec<UBig>, ProtocolError> {
    match msg {
        Message::Codewords(list) => Ok(list),
        other => Err(unexpected("codewords", &other)),
    }
}

/// Receives one logical list — a plain frame or a chunked envelope —
/// handing each chunk to `on_chunk` as it lands, so callers overlap
/// pool work with the remaining receives. When the list answers one of
/// our own, `expected` is that list's length: a header claiming any
/// other total is refused before a single element is buffered.
fn recv_list<T: Transport + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    tag: u8,
    expected: Option<usize>,
    mut on_chunk: impl FnMut(Message) -> Result<(), ProtocolError>,
) -> Result<(), ProtocolError> {
    let kind = match tag {
        TAG_CODEWORD_PAIRS => "codeword-pairs",
        TAG_PAYLOAD_PAIRS => "payload-pairs",
        _ => "codewords",
    };
    let mut reader = ChunkedReader::begin(transport, group, tag, kind)?;
    if let Some(expected) = expected {
        if reader.total_items() != expected {
            return Err(ProtocolError::LengthMismatch {
                expected,
                got: reader.total_items(),
            });
        }
    }
    while let Some(msg) = reader.next(transport, group)? {
        on_chunk(msg)?;
    }
    Ok(())
}

fn count_map(items: &[UBig]) -> BTreeMap<&UBig, u64> {
    let mut counts = BTreeMap::new();
    for item in items {
        *counts.entry(item).or_insert(0) += 1;
    }
    counts
}

/// Runs the sender (`S`) side of `shape` on `values`; `ext[i]` is
/// `ext(values[i])`, read only when the shape has a payload table (a
/// missing record encrypts as empty).
///
/// The bucket count is the peer's: a first frame that is a shard hello
/// announces `B`, any other first frame is bucket 0's `Y_R` and `B = 1`.
/// `cfg.shards` is therefore ignored here; `cfg` supplies the sort
/// budget and spill directory.
#[allow(clippy::too_many_arguments)]
pub fn run_sender<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    shape: ProtocolShape<'_>,
    values: &[Vec<u8>],
    ext: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<SenderOutput, ProtocolError> {
    let first = transport.recv()?;
    let (shards, first) = match decode_shard_hello(&first)? {
        Some(shards) => (shards, None),
        None => (1, Some(first)),
    };
    let sharded = first.is_none();
    let transport = &mut PushbackTransport::new(first, transport);

    // Hash V_S, pick the key(s), encrypt bucket by bucket into the
    // sorter: `Y_S`, or the `(tag, κ)` pairs of the payload table, which
    // the merge hands back in tag order.
    let mut ops = OpCounters::default();
    let prepared = if shape.multiset {
        prepare_multiset(group, values, &mut ops)?
    } else {
        prepare_set(group, values, &mut ops)?.entries
    };
    let keys = Keys {
        e: group.gen_key(rng),
        e_prime: shape.cipher.map(|_| group.gen_key(rng)),
    };
    let hashes: Vec<UBig> = prepared.iter().map(|(_, h)| h.clone()).collect();
    let plan = plan_buckets(group, &hashes, shards)?;
    let layout = RecordLayout {
        width: group.codeword_bytes(),
        with_idx: shape.cipher.is_some(),
        with_kappa: shape.cipher.is_some(),
    };
    let (mut buckets, spill_stats) =
        encrypt_buckets(group, pool, &keys, &hashes, &plan, layout, cfg, &mut ops)?;
    drop(hashes);
    if sharded {
        emit_spill_done(&spill_stats);
    }
    let payloads: BTreeMap<&Vec<u8>, &Vec<u8>> = values.iter().zip(ext).collect();

    let mut peer_size = 0usize;
    let mut yr_order = OrderCheck::new("Y_R", !shape.multiset);
    for b in 0..shards {
        // Y_R^b in, re-encryption under every key launched per chunk.
        let mut pending = Vec::new();
        recv_list(transport, group, TAG_CODEWORDS, None, |msg| {
            let chunk = into_codewords(msg)?;
            for y in &chunk {
                yr_order.push(y)?;
            }
            ops.encryptions += keys.per_item() * chunk.len() as u64;
            pending.push(keys.submit(pool, group, &chunk));
            Ok(())
        })?;
        let peer_b = yr_order.end_list();
        peer_size += peer_b;

        // Y_S^b out (already sorted by the merge) — unless the bucket's
        // own codewords are payload-table tags, which follow the reply.
        let recs = buckets.take_bucket(b)?;
        if shape.cipher.is_none() {
            let ys_b: Vec<UBig> = recs
                .iter()
                .map(|rec| layout.codeword(rec))
                .collect::<Result<_, _>>()?;
            send_codewords_chunked(transport, group, ys_b, pipe.chunk_size)?;
        }

        if shape.sorted_reply {
            // Z_R^b: reorder lexicographically within the bucket — the
            // §5.1 unlinking step.
            let mut zr_b: Vec<UBig> = Vec::with_capacity(peer_b);
            for jobs in pending {
                zr_b.extend(jobs.first.wait());
            }
            zr_b.sort();
            send_codewords_chunked(transport, group, zr_b, pipe.chunk_size)?;
        } else {
            // f_eS(Y_R^b) — or (f_eS(y), f_e'S(y)) — aligned with Y_R^b,
            // answered chunk-for-chunk as the jobs drain: chunk k is on
            // the wire while k+1.. are still encrypting.
            let tag = match shape.cipher {
                Some(_) => TAG_CODEWORD_PAIRS,
                None => TAG_CODEWORDS,
            };
            let mut writer =
                ChunkedWriter::begin_with_chunks(transport, tag, peer_b, pending.len())?;
            for jobs in pending {
                let fes = jobs.first.wait();
                let reply = match jobs.second {
                    Some(second) => {
                        Message::CodewordPairs(fes.into_iter().zip(second.wait()).collect())
                    }
                    None => Message::Codewords(fes),
                };
                writer.send(transport, group, &reply)?;
            }
            writer.finish()?;
        }

        if let Some(cipher) = shape.cipher {
            // The bucket's payload table: each member's ext record under
            // its κ, in the (sorted) spill order.
            let mut table: Vec<(UBig, Vec<u8>)> = Vec::with_capacity(recs.len());
            for rec in &recs {
                let (v, _) = prepared
                    .get(layout.idx(rec)? as usize)
                    .ok_or_else(|| shard_err("spill record index out of range"))?;
                ops.payload_encryptions += 1;
                let record: &[u8] = payloads.get(v).map_or(&[], |record| record.as_slice());
                let ct = cipher.encrypt(&layout.kappa(rec)?, record)?;
                table.push((layout.codeword(rec)?, ct));
            }
            send_payload_pairs_chunked(transport, group, table, pipe.chunk_size)?;
        }
        if sharded {
            emit_bucket_done(
                "sender_bucket_done",
                shape.scope,
                b,
                recs.len(),
                peer_b,
                keys.per_item() * (recs.len() + peer_b) as u64,
            );
        }
    }

    crate::stats::emit_ops(shape.scope, "sender_done", &ops, prepared.len(), peer_size);
    Ok(SenderOutput {
        peer_size,
        peer_duplicate_distribution: yr_order.distribution,
        ops,
    })
}

/// Runs the receiver (`R`) side of `shape` on `values`, over
/// `cfg.shards` buckets (announced with a hello when more than one).
#[allow(clippy::too_many_arguments)]
pub fn run_receiver<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    shape: ProtocolShape<'_>,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<ReceiverOutput, ProtocolError> {
    let shards = cfg.effective_shards();
    let sharded = shards > 1;
    if sharded {
        transport.send(&encode_shard_hello(shards))?;
    }

    // Hash V_R, pick e_R, encrypt bucket by bucket into the sorter. A
    // party that will be told *which* of its codewords matched keeps
    // each one's entry index beside it.
    let mut ops = OpCounters::default();
    let prepared = if shape.multiset {
        prepare_multiset(group, values, &mut ops)?
    } else {
        prepare_set(group, values, &mut ops)?.entries
    };
    let keys = Keys {
        e: group.gen_key(rng),
        e_prime: None,
    };
    let (own_values, hashes): (Vec<Vec<u8>>, Vec<UBig>) = prepared.into_iter().unzip();
    let plan = plan_buckets(group, &hashes, shards)?;
    let layout = RecordLayout {
        width: group.codeword_bytes(),
        with_idx: !shape.sorted_reply,
        with_kappa: false,
    };
    let (mut buckets, spill_stats) =
        encrypt_buckets(group, pool, &keys, &hashes, &plan, layout, cfg, &mut ops)?;
    drop(hashes);
    if sharded {
        emit_spill_done(&spill_stats);
    }
    let own_value = |rec: &[u8]| -> Result<Vec<u8>, ProtocolError> {
        own_values
            .get(layout.idx(rec)? as usize)
            .cloned()
            .ok_or_else(|| shard_err("matched index out of range"))
    };

    let mut matches: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut match_count = 0u64;
    let mut class_intersections: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut peer_size = 0usize;
    // S's own list: Y_S, or — with a payload table — the table's tags.
    let mut ys_order = match shape.cipher {
        Some(_) => OrderCheck::new("payload table", true),
        None => OrderCheck::new("Y_S", !shape.multiset),
    };
    let mut zr_order = OrderCheck::new("Z_R", !shape.multiset);
    for b in 0..shards {
        // Y_R^b out, in the merge's sorted order.
        let recs = buckets.take_bucket(b)?;
        let yr_b: Vec<UBig> = recs
            .iter()
            .map(|rec| layout.codeword(rec))
            .collect::<Result<_, _>>()?;
        send_codewords_chunked(transport, group, yr_b, pipe.chunk_size)?;

        if let Some(cipher) = shape.cipher {
            // (f_eS(y), f_e'S(y)) aligned with Y_R^b; strip our layer per
            // chunk on the pool, overlapping with receive.
            let mut strip_jobs: Vec<(PendingBatch, PendingBatch)> = Vec::new();
            recv_list(
                transport,
                group,
                TAG_CODEWORD_PAIRS,
                Some(recs.len()),
                |msg| {
                    let Message::CodewordPairs(pairs) = msg else {
                        return Err(unexpected("codeword-pairs", &msg));
                    };
                    ops.decryptions += 2 * pairs.len() as u64;
                    let (fes, fesp): (Vec<UBig>, Vec<UBig>) = pairs.into_iter().unzip();
                    strip_jobs.push((
                        pool.submit_decrypt(group, &keys.e, &fes),
                        pool.submit_decrypt(group, &keys.e, &fesp),
                    ));
                    Ok(())
                },
            )?;

            // The bucket's payload table, strictly sorted by tag.
            let mut table: BTreeMap<UBig, Vec<u8>> = BTreeMap::new();
            recv_list(transport, group, TAG_PAYLOAD_PAIRS, None, |msg| {
                let Message::PayloadPairs(pairs) = msg else {
                    return Err(unexpected("payload-pairs", &msg));
                };
                for (tag, ct) in pairs {
                    ys_order.push(&tag)?;
                    table.insert(tag, ct);
                }
                Ok(())
            })?;

            // Match tags against the table; κ opens the payload. Equal
            // tags imply equal hashes, which land in the same bucket — so
            // the per-bucket duplicate check covers the whole run.
            let stripped: Vec<(UBig, UBig)> = strip_jobs
                .into_iter()
                .flat_map(|(tags, kappas)| tags.wait().into_iter().zip(kappas.wait()))
                .collect();
            let mut seen_tags = BTreeSet::new();
            for (rec, (tag, kappa)) in recs.iter().zip(&stripped) {
                if !seen_tags.insert(tag) {
                    return Err(ProtocolError::HashCollision);
                }
                if let Some(ct) = table.get(tag) {
                    ops.payload_decryptions += 1;
                    matches.push((own_value(rec)?, cipher.decrypt(kappa, ct)?));
                }
            }
        } else {
            // Y_S^b in, overlapping Z_S^b = f_eR(Y_S^b) with the receive.
            let mut zs_jobs: Vec<PendingBatch> = Vec::new();
            recv_list(transport, group, TAG_CODEWORDS, None, |msg| {
                let chunk = into_codewords(msg)?;
                for y in &chunk {
                    ys_order.push(y)?;
                }
                ops.encryptions += chunk.len() as u64;
                zs_jobs.push(pool.submit_encrypt(group, &keys.e, &chunk));
                Ok(())
            })?;

            // S's answer to Y_R^b: exactly as long as Y_R^b; aligned with
            // it, or — pairing withheld — sorted.
            let mut reply: Vec<UBig> = Vec::with_capacity(recs.len());
            recv_list(transport, group, TAG_CODEWORDS, Some(recs.len()), |msg| {
                let chunk = into_codewords(msg)?;
                if shape.sorted_reply {
                    for z in &chunk {
                        zr_order.push(z)?;
                    }
                }
                reply.extend(chunk);
                Ok(())
            })?;
            zr_order.end_list();

            let zs: Vec<UBig> = zs_jobs.into_iter().flat_map(PendingBatch::wait).collect();
            if shape.sorted_reply {
                // Σ dup_R · dup_S over the common codewords, and the
                // per-class leak matrix; common codewords are
                // bucket-local, so the per-bucket sums are exact.
                let zs_counts = count_map(&zs);
                for (z, d_r) in count_map(&reply) {
                    if let Some(d_s) = zs_counts.get(z) {
                        match_count += d_r * d_s;
                        *class_intersections.entry((d_r, *d_s)).or_insert(0) += 1;
                    }
                }
            } else {
                // v ∈ V_S ∩ V_R iff f_eS(f_eR(h(v))) ∈ Z_S.
                let zs: BTreeSet<UBig> = zs.into_iter().collect();
                for (rec, fes_y) in recs.iter().zip(&reply) {
                    if zs.contains(fes_y) {
                        matches.push((own_value(rec)?, Vec::new()));
                    }
                }
            }
        }
        let peer_b = ys_order.end_list();
        peer_size += peer_b;
        if sharded {
            let ce = match shape.cipher {
                Some(_) => 3 * recs.len(),
                None => recs.len() + peer_b,
            };
            emit_bucket_done(
                "receiver_bucket_done",
                shape.scope,
                b,
                recs.len(),
                peer_b,
                ce as u64,
            );
        }
    }
    matches.sort();
    if !shape.sorted_reply {
        match_count = matches.len() as u64;
    }

    crate::stats::emit_ops(
        shape.scope,
        "receiver_done",
        &ops,
        own_values.len(),
        peer_size,
    );
    Ok(ReceiverOutput {
        matches,
        match_count,
        class_intersections,
        peer_size,
        peer_duplicate_distribution: ys_order.distribution,
        ops,
    })
}

impl From<SenderOutput> for IntersectionSenderOutput {
    fn from(out: SenderOutput) -> Self {
        IntersectionSenderOutput {
            peer_set_size: out.peer_size,
            ops: out.ops,
        }
    }
}

impl From<SenderOutput> for EquijoinSenderOutput {
    fn from(out: SenderOutput) -> Self {
        EquijoinSenderOutput {
            peer_set_size: out.peer_size,
            ops: out.ops,
        }
    }
}

impl From<SenderOutput> for IntersectionSizeSenderOutput {
    fn from(out: SenderOutput) -> Self {
        IntersectionSizeSenderOutput {
            peer_set_size: out.peer_size,
            ops: out.ops,
        }
    }
}

impl From<SenderOutput> for EquijoinSizeSenderOutput {
    fn from(out: SenderOutput) -> Self {
        EquijoinSizeSenderOutput {
            peer_multiset_size: out.peer_size,
            peer_duplicate_distribution: out.peer_duplicate_distribution,
            ops: out.ops,
        }
    }
}

impl From<ReceiverOutput> for IntersectionReceiverOutput {
    fn from(out: ReceiverOutput) -> Self {
        IntersectionReceiverOutput {
            intersection: out.matches.into_iter().map(|(v, _)| v).collect(),
            peer_set_size: out.peer_size,
            ops: out.ops,
        }
    }
}

impl From<ReceiverOutput> for EquijoinReceiverOutput {
    fn from(out: ReceiverOutput) -> Self {
        EquijoinReceiverOutput {
            matches: out.matches,
            peer_set_size: out.peer_size,
            ops: out.ops,
        }
    }
}

impl From<ReceiverOutput> for IntersectionSizeReceiverOutput {
    fn from(out: ReceiverOutput) -> Self {
        IntersectionSizeReceiverOutput {
            intersection_size: out.match_count as usize,
            peer_set_size: out.peer_size,
            ops: out.ops,
        }
    }
}

impl From<ReceiverOutput> for EquijoinSizeReceiverOutput {
    fn from(out: ReceiverOutput) -> Self {
        EquijoinSizeReceiverOutput {
            join_size: out.match_count,
            peer_multiset_size: out.peer_size,
            peer_duplicate_distribution: out.peer_duplicate_distribution,
            class_intersections: out.class_intersections,
            ops: out.ops,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::{run_two_party, TwoPartyRun};
    use crate::{equijoin, intersection};
    use minshare_crypto::kcipher::HybridCipher;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(21);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    pub(crate) fn values(n: usize, offset: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("value-{:04}", i + offset).into_bytes())
            .collect()
    }

    pub(crate) fn ext_of(values: &[Vec<u8>]) -> Vec<Vec<u8>> {
        values
            .iter()
            .map(|v| [&b"ext-"[..], &v[6..]].concat())
            .collect()
    }

    pub(crate) fn entries(values: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
        values.iter().cloned().zip(ext_of(values)).collect()
    }

    /// `(V_S, ext, V_R)`.
    pub(crate) type Inputs<'a> = (&'a [Vec<u8>], &'a [Vec<u8>], &'a [Vec<u8>]);

    /// Both roles of `shape`, typed like the serial reference's outputs.
    pub(crate) fn run_pair<SO, RO>(
        g: &QrGroup,
        pool: &EncryptPool,
        shape: ProtocolShape<'_>,
        (vs, ext, vr): Inputs<'_>,
        seeds: (u64, u64),
        chunk: usize,
        cfg: &ShardConfig,
    ) -> Result<TwoPartyRun<SO, RO>, ProtocolError>
    where
        SO: From<SenderOutput> + Send,
        RO: From<ReceiverOutput> + Send,
    {
        let pipe = PipelineConfig::chunked(chunk);
        run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(seeds.0);
                run_sender(t, g, shape, vs, ext, &mut rng, pool, pipe, cfg).map(SO::from)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(seeds.1);
                run_receiver(t, g, shape, vr, &mut rng, pool, pipe, cfg).map(RO::from)
            },
        )
    }

    /// [`run_pair`] at one bucket, seeds 500 / 600.
    fn run<SO, RO>(
        g: &QrGroup,
        pool: &EncryptPool,
        shape: ProtocolShape<'_>,
        inputs: Inputs<'_>,
        chunk: usize,
    ) -> Result<TwoPartyRun<SO, RO>, ProtocolError>
    where
        SO: From<SenderOutput> + Send,
        RO: From<ReceiverOutput> + Send,
    {
        let cfg = ShardConfig::default();
        run_pair(g, pool, shape, inputs, (500, 600), chunk, &cfg)
    }

    type Intersection = TwoPartyRun<IntersectionSenderOutput, IntersectionReceiverOutput>;

    fn serial_intersection(g: &QrGroup, vs: &[Vec<u8>], vr: &[Vec<u8>]) -> Intersection {
        run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                intersection::run_sender(t, g, vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                intersection::run_receiver(t, g, vr, &mut rng)
            },
        )
        .unwrap()
    }

    /// The engine must produce the exact outputs of the serial
    /// reference, across chunk-boundary shapes and pool widths.
    #[test]
    fn intersection_chunked_matches_serial() {
        let g = group();
        let (vs, vr) = (values(13, 0), values(9, 7));
        let serial = serial_intersection(&g, &vs, &vr);
        for (threads, chunk) in [(0usize, 4usize), (2, 1), (2, 4), (4, 13), (2, 64)] {
            let pool = EncryptPool::new(threads);
            let shape = ProtocolShape::INTERSECTION;
            let run: Intersection = run(&g, &pool, shape, (&vs, &[], &vr), chunk).unwrap();
            assert_eq!(run.receiver, serial.receiver, "t={threads} c={chunk}");
            assert_eq!(run.sender, serial.sender, "t={threads} c={chunk}");
        }
    }

    #[test]
    fn equijoin_chunked_matches_serial() {
        let g = group();
        let cipher = HybridCipher::new(g.clone(), 64);
        let (vs, vr) = (values(11, 0), values(8, 6));
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                equijoin::run_sender(t, &g, &cipher, &entries(&vs), &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                equijoin::run_receiver(t, &g, &cipher, &vr, &mut rng)
            },
        )
        .unwrap();
        for (threads, chunk) in [(0usize, 3usize), (2, 1), (2, 4), (4, 64)] {
            let pool = EncryptPool::new(threads);
            let shape = ProtocolShape::equijoin(&cipher);
            let run: TwoPartyRun<EquijoinSenderOutput, EquijoinReceiverOutput> =
                run(&g, &pool, shape, (&vs, &ext_of(&vs), &vr), chunk).unwrap();
            assert_eq!(run.receiver, serial.receiver, "t={threads} c={chunk}");
            assert_eq!(run.sender, serial.sender, "t={threads} c={chunk}");
        }
    }

    /// An engine party with chunks larger than every list interoperates
    /// with the *serial* reference on the other side, byte for byte.
    #[test]
    fn single_chunk_engine_interops_with_serial_peer() {
        let g = group();
        let (vs, vr) = (values(6, 0), values(5, 3));
        let pool = EncryptPool::new(2);
        let (pipe, cfg) = (PipelineConfig::chunked(1024), ShardConfig::default());
        let shape = ProtocolShape::INTERSECTION;
        let a = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                run_sender(t, &g, shape, &vs, &[], &mut rng, &pool, pipe, &cfg)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                intersection::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        let b = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                intersection::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                run_receiver(t, &g, shape, &vr, &mut rng, &pool, pipe, &cfg)
            },
        )
        .unwrap();
        let found: Vec<Vec<u8>> = b.receiver.matches.into_iter().map(|(v, _)| v).collect();
        assert_eq!(a.receiver.intersection, found);
        assert_eq!(a.sender_traffic.bytes_sent(), b.sender_traffic.bytes_sent());
        assert_eq!(
            a.receiver_traffic.bytes_sent(),
            b.receiver_traffic.bytes_sent()
        );
    }

    /// With single-chunk lists the engine costs exactly the serial §6.1
    /// wire bytes; with c chunks per list it adds only the 10-byte
    /// envelope header plus 5 bytes per extra chunk frame.
    #[test]
    fn traffic_overhead_is_exactly_enveloping() {
        let g = group();
        let (vs, vr) = (values(12, 0), values(12, 6));
        let serial = serial_intersection(&g, &vs, &vr);
        let pool = EncryptPool::new(2);
        let chunk = 5usize; // 12 items -> 3 chunks per list
        let shape = ProtocolShape::INTERSECTION;
        let run: Intersection = run(&g, &pool, shape, (&vs, &[], &vr), chunk).unwrap();
        let chunks_per_list = 12usize.div_ceil(chunk) as u64; // 3
        let envelope = 10 + (chunks_per_list - 1) * 5;
        // Sender ships two lists (Y_S and f_eS(Y_R)), receiver one (Y_R).
        assert_eq!(
            run.sender_traffic.bytes_sent(),
            serial.sender_traffic.bytes_sent() + 2 * envelope
        );
        assert_eq!(
            run.receiver_traffic.bytes_sent(),
            serial.receiver_traffic.bytes_sent() + envelope
        );
    }

    #[test]
    fn empty_sets_run_cleanly() {
        let g = group();
        let pool = EncryptPool::new(1);
        let shape = ProtocolShape::INTERSECTION;
        let run: Intersection = run(&g, &pool, shape, (&[], &[], &values(3, 0)), 4).unwrap();
        assert!(run.receiver.intersection.is_empty());
        assert_eq!(run.receiver.peer_set_size, 0);
    }

    #[test]
    fn unsorted_chunk_stream_is_rejected() {
        let g = group();
        let pool = EncryptPool::new(1);
        let (pipe, cfg) = (PipelineConfig::chunked(2), ShardConfig::default());
        // A malicious receiver sends Y_R unsorted across a chunk boundary.
        let err = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(1);
                let shape = ProtocolShape::INTERSECTION;
                run_sender(
                    t,
                    &g,
                    shape,
                    &values(2, 0),
                    &[],
                    &mut rng,
                    &pool,
                    pipe,
                    &cfg,
                )
            },
            |t| -> Result<(), ProtocolError> {
                let mut rng = StdRng::seed_from_u64(2);
                let mut els: Vec<UBig> = (0..4).map(|_| g.sample_element(&mut rng)).collect();
                els.sort();
                els.reverse(); // descending: first boundary check must trip
                send_codewords_chunked(t, &g, els, 2)?;
                // Drain whatever the sender manages to say, then stop.
                let _ = t.recv();
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, ProtocolError::NotSorted { what: "Y_R" });
    }
}
