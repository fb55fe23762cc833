//! Per-session protocol dispatch for the long-running daemon.
//!
//! The mux server in `minshare-net` turns one framed connection into many
//! concurrent sessions; this module gives those sessions protocol
//! semantics. A client opens a session whose OPEN payload is an encoded
//! [`SessionRequest`] naming the protocol it wants; the daemon-side
//! [`Service`] decodes it and runs the matching *sender* engine (the
//! daemon is `S`, the party holding the private database) over the
//! session's transport, while the client runs the *receiver* engine and
//! learns exactly what §3/§4 of the paper allow — nothing else changes
//! hands.
//!
//! Every networked run of the CLI is a daemon session: `minshare serve`
//! runs this [`Service`] behind the mux (and, with `--secure`, behind the
//! encrypted channel under it), so the sender role has a single
//! implementation and a single connection stack.
//!
//! Every session runs inside its own [`minshare_crypto::pool::PoolSession`]
//! scope, so the shared [`EncryptPool`] schedules its exponentiations
//! fairly against every other live session, and through a
//! [`CountingTransport`] so the daemon can print per-session byte
//! reconciliation against the §6.1 cost formulas.
//!
//! Every session draws its keys from its own [`ChaChaRng`] stream: the
//! service's master key with the nonce (daemon-assigned peer id, session
//! id). No client-chosen value alone selects a key, so two connections
//! that both open session 1 run under independent exponents. A service
//! keyed from a seed replays a session solo (same peer, same id) to the
//! same run — the property the multi-session conformance harness pins.

use std::collections::BTreeMap;

use minshare_crypto::drbg::{self, ChaChaRng};
use minshare_crypto::kcipher::HybridCipher;
use minshare_crypto::{EncryptPool, QrGroup};
use minshare_net::{CountingTransport, Transport};
use rand::Rng;

use crate::engine::{self, PipelineConfig, ProtocolShape};
use crate::equijoin::EquijoinReceiverOutput;
use crate::equijoin_size::EquijoinSizeReceiverOutput;
use crate::error::ProtocolError;
use crate::intersection::IntersectionReceiverOutput;
use crate::intersection_size::IntersectionSizeReceiverOutput;
use crate::shard::ShardConfig;
use crate::stats::OpCounters;

/// Leading bytes of every session request, so a daemon never mistakes a
/// stray protocol frame for a request.
const REQUEST_MAGIC: [u8; 2] = *b"MS";

/// Session-request codec version. Version 2 carries group elements as
/// signed residues in `[1, q]`, so a version-1 peer is refused up front.
const REQUEST_VERSION: u8 = 2;

/// The protocol a client asks a daemon session to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// §3.2 intersection: the client learns `V_S ∩ V_R`.
    Intersection,
    /// §4.3 equijoin: the client additionally learns `ext(v)` for
    /// matching values.
    Equijoin,
    /// §3.2 intersection-size: the client learns `|V_S ∩ V_R|` only.
    IntersectionSize,
    /// §4 equijoin-size: the client learns `|T_S ⋈ T_R|` and the §5.2
    /// duplicate-class matrix, not the matching values.
    EquijoinSize,
}

impl ProtocolKind {
    /// Stable wire code.
    fn code(self) -> u8 {
        match self {
            ProtocolKind::Intersection => 1,
            ProtocolKind::Equijoin => 2,
            ProtocolKind::IntersectionSize => 3,
            ProtocolKind::EquijoinSize => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(ProtocolKind::Intersection),
            2 => Some(ProtocolKind::Equijoin),
            3 => Some(ProtocolKind::IntersectionSize),
            4 => Some(ProtocolKind::EquijoinSize),
            _ => None,
        }
    }

    /// Human-readable name (also the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Intersection => "intersection",
            ProtocolKind::Equijoin => "equijoin",
            ProtocolKind::IntersectionSize => "intersection-size",
            ProtocolKind::EquijoinSize => "equijoin-size",
        }
    }

    /// Parses the CLI spelling produced by [`ProtocolKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "intersection" => Some(ProtocolKind::Intersection),
            "equijoin" => Some(ProtocolKind::Equijoin),
            "intersection-size" => Some(ProtocolKind::IntersectionSize),
            "equijoin-size" => Some(ProtocolKind::EquijoinSize),
            _ => None,
        }
    }

    /// True for the multiset (`-size` over multisets) variant whose
    /// disclosure is occurrence counts rather than distinct values.
    pub fn discloses_multiset(self) -> bool {
        matches!(self, ProtocolKind::EquijoinSize)
    }

    /// The engine's description of this protocol; `cipher` is the
    /// equijoin's payload cipher (unused by the other three).
    pub fn shape(self, cipher: &HybridCipher) -> ProtocolShape<'_> {
        match self {
            ProtocolKind::Intersection => ProtocolShape::INTERSECTION,
            ProtocolKind::Equijoin => ProtocolShape::equijoin(cipher),
            ProtocolKind::IntersectionSize => ProtocolShape::INTERSECTION_SIZE,
            ProtocolKind::EquijoinSize => ProtocolShape::EQUIJOIN_SIZE,
        }
    }
}

/// The OPEN payload of a daemon session: which protocol to run.
///
/// Wire format: `b"MS" ‖ version ‖ protocol-code` — four bytes, strictly
/// validated so a malformed or truncated request is a typed
/// [`ProtocolError::MalformedMessage`], never a misdispatched session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionRequest {
    /// The protocol the client wants this session to run.
    pub protocol: ProtocolKind,
}

impl SessionRequest {
    /// A request for `protocol`.
    pub fn new(protocol: ProtocolKind) -> Self {
        SessionRequest { protocol }
    }

    /// Encodes the request as an OPEN payload.
    pub fn encode(&self) -> Vec<u8> {
        let [m0, m1] = REQUEST_MAGIC;
        vec![m0, m1, REQUEST_VERSION, self.protocol.code()]
    }

    /// Decodes an OPEN payload; every malformation is typed.
    pub fn decode(raw: &[u8]) -> Result<Self, ProtocolError> {
        let [m0, m1, version, code] = raw else {
            return Err(ProtocolError::MalformedMessage {
                detail: format!("session request must be 4 bytes, got {}", raw.len()),
            });
        };
        if [*m0, *m1] != REQUEST_MAGIC {
            return Err(ProtocolError::MalformedMessage {
                detail: "session request magic mismatch".to_string(),
            });
        }
        if *version != REQUEST_VERSION {
            return Err(ProtocolError::MalformedMessage {
                detail: format!(
                    "session request version {version}, this build speaks {REQUEST_VERSION}"
                ),
            });
        }
        let Some(protocol) = ProtocolKind::from_code(*code) else {
            return Err(ProtocolError::MalformedMessage {
                detail: format!("unknown protocol code {code}"),
            });
        };
        Ok(SessionRequest { protocol })
    }
}

/// What one completed daemon session did — the per-session
/// reconciliation record the daemon prints and the harness asserts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionReport {
    /// Mux session id.
    pub session: u32,
    /// The protocol that ran.
    pub protocol: ProtocolKind,
    /// `|V_R|` as learned by the sender side.
    pub peer_set_size: usize,
    /// `R`'s duplicate distribution as the sender side learned it
    /// (duplicates → distinct values with that many; all ones for a set
    /// protocol).
    pub peer_duplicate_distribution: BTreeMap<u64, u64>,
    /// Payload bytes this session sent.
    pub bytes_sent: u64,
    /// Payload bytes this session received.
    pub bytes_received: u64,
    /// §6.1 cost-unit counts for the daemon side.
    pub ops: OpCounters,
}

/// The daemon's protocol brain: one private database (`V_S` with
/// optional `ext` payloads), one shared [`EncryptPool`], dispatched to by
/// session id. `handle` takes `&self` and is safe to call from many
/// session handler threads at once.
pub struct Service {
    group: QrGroup,
    /// `V_S`, and beside it `ext(v)` for each value (read by equijoin
    /// sessions only).
    values: Vec<Vec<u8>>,
    ext: Vec<Vec<u8>>,
    pool: EncryptPool,
    config: PipelineConfig,
    /// The equijoin's payload cipher, sized to the `ext` record length.
    cipher: HybridCipher,
    /// Every session's [`ChaChaRng`] stream is keyed by this.
    master_key: [u8; 32],
    /// Sort budget and spill directory of every session; `shards` here
    /// is ignored (the client's hello chooses `B`).
    shard_cfg: ShardConfig,
    /// `|distinct(V_S)|` — the size every non-multiset session disclosed
    /// to its peer (leakage model: `leakage::bucket_size_disclosure`
    /// sums to exactly this whatever the bucket count).
    disclosed_distinct: u64,
    /// `|V_S|` with duplicates — the multiset size an equijoin-size
    /// session disclosed (`leakage::bucket_multiset_disclosure` total).
    disclosed_multiset: u64,
}

impl Service {
    /// Builds a service over `entries` (`(value, ext-payload)` pairs; use
    /// empty payloads when only intersections will run). The pool is
    /// owned by the service and shared — fairly — by every session.
    ///
    /// `seed` keys the sessions' generators deterministically
    /// ([`drbg::seed_key`]), for tests and harnesses that replay runs; a
    /// daemon replaces it with [`Service::with_master_key`].
    pub fn new(
        group: QrGroup,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        pool: EncryptPool,
        config: PipelineConfig,
        record_len: usize,
        seed: u64,
    ) -> Self {
        let (values, ext): (Vec<Vec<u8>>, Vec<Vec<u8>>) = entries.into_iter().unzip();
        // Disclosure totals straight from the §5.2 leakage model; a
        // single bucket makes the per-bucket sums the plain totals.
        let disclosed_distinct = crate::leakage::bucket_size_disclosure(&values, 1, &|_| 0)
            .iter()
            .sum();
        let disclosed_multiset = crate::leakage::bucket_multiset_disclosure(&values, 1, &|_| 0)
            .iter()
            .sum();
        Service {
            cipher: HybridCipher::new(group.clone(), record_len),
            group,
            values,
            ext,
            pool,
            config,
            master_key: drbg::seed_key(seed),
            shard_cfg: ShardConfig::default(),
            disclosed_distinct,
            disclosed_multiset,
        }
    }

    /// What one session of `protocol` disclosed about `V_S`: the
    /// distinct-set size, or the multiset size for the multiset variant.
    /// This is the per-session increment of the daemon's cumulative
    /// per-peer disclosure counters.
    pub fn session_disclosure(&self, protocol: ProtocolKind) -> u64 {
        if protocol.discloses_multiset() {
            self.disclosed_multiset
        } else {
            self.disclosed_distinct
        }
    }

    /// Sets the sort budget and spill directory of the sessions (the
    /// client still chooses the bucket count).
    pub fn with_shard_config(mut self, cfg: ShardConfig) -> Self {
        self.shard_cfg = cfg;
        self
    }

    /// Keys every session's generator from `key` instead of the seed
    /// (in practice [`drbg::os_key`]).
    pub fn with_master_key(mut self, key: [u8; 32]) -> Self {
        self.master_key = key;
        self
    }

    /// The service's group (clients must use the same one).
    pub fn group(&self) -> &QrGroup {
        &self.group
    }

    /// The shared encryption pool (e.g. for stats).
    pub fn pool(&self) -> &EncryptPool {
        &self.pool
    }

    /// Session `session` of peer `peer`'s key stream: the master key
    /// under the nonce `(peer, session)`, unique for the daemon's
    /// lifetime because the daemon assigns peer ids and refuses a
    /// repeated OPEN.
    fn session_rng(&self, peer: u64, session: u32) -> ChaChaRng {
        let mut nonce = [0u8; 12];
        let (peer_part, session_part) = nonce.split_at_mut(8);
        peer_part.copy_from_slice(&peer.to_le_bytes());
        session_part.copy_from_slice(&session.to_le_bytes());
        ChaChaRng::new(self.master_key, nonce)
    }

    /// Runs one daemon session to completion: decode the request, then
    /// drive the engine's sender over `transport` inside this session's
    /// fair-scheduling pool scope. Errors are per-session — the caller
    /// (the mux server handler) reports them without touching any other
    /// session.
    ///
    /// Sharding is client-elected: the sender adopts the bucket count of
    /// a client that opens with a shard hello and runs one bucket
    /// otherwise — one service serves both kinds of client.
    pub fn handle<T: Transport>(
        &self,
        session: u32,
        request: &[u8],
        transport: T,
    ) -> Result<SessionReport, ProtocolError> {
        self.handle_for_peer(0, session, request, transport)
    }

    /// [`Service::handle`] for a peer: the daemon assigns one `peer` id
    /// per accepted connection. The pair `(peer, session)` selects the
    /// session's key stream, and the cumulative per-peer size-disclosure
    /// counters in the metrics registry aggregate under `peer`. Every
    /// event carrying the peer id is non-deterministic, so solo-replay
    /// digests are unaffected.
    pub fn handle_for_peer<T: Transport>(
        &self,
        peer: u64,
        session: u32,
        request: &[u8],
        transport: T,
    ) -> Result<SessionReport, ProtocolError> {
        let request = SessionRequest::decode(request)?;
        let (mut counted, traffic) = CountingTransport::new(transport);
        let mut rng = self.session_rng(peer, session);
        let pool_session = self.pool.session();
        let started = std::time::Instant::now();
        let out = pool_session.scope(|| {
            engine::run_sender(
                &mut counted,
                &self.group,
                request.protocol.shape(&self.cipher),
                &self.values,
                &self.ext,
                &mut rng,
                &self.pool,
                self.config,
                &self.shard_cfg,
            )
        })?;
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let report = SessionReport {
            session,
            protocol: request.protocol,
            peer_set_size: out.peer_size,
            peer_duplicate_distribution: out.peer_duplicate_distribution,
            bytes_sent: traffic.bytes_sent(),
            bytes_received: traffic.bytes_received(),
            ops: out.ops,
        };
        // Deterministic per-session completion event: everything in it is
        // a pure function of the protocol inputs (no session id — the
        // harness compares a session's digest against a solo replay that
        // may be numbered differently).
        minshare_trace::emit("service", "session_done", true, || {
            vec![
                minshare_trace::count("peer_set_size", report.peer_set_size as u64),
                minshare_trace::size("bytes_sent", report.bytes_sent),
                minshare_trace::size("bytes_received", report.bytes_received),
                minshare_trace::count("encryptions", report.ops.encryptions),
            ]
        });
        // Per-protocol wall-time and Ce-throughput: the event *name* is
        // the protocol, so the registry keeps one histogram per
        // protocol. Timing-dependent, hence non-deterministic.
        minshare_trace::emit("protocol", request.protocol.name(), false, || {
            let ce_per_sec = if elapsed_ns == 0 {
                0
            } else {
                report.ops.encryptions.saturating_mul(1_000_000_000) / elapsed_ns
            };
            vec![
                minshare_trace::count("session", u64::from(session)),
                minshare_trace::duration_ns("duration_ns", elapsed_ns),
                minshare_trace::count("ce_per_sec", ce_per_sec),
            ]
        });
        // Cumulative per-peer size disclosure, straight from the §5.2
        // leakage model: what this session told the peer about `V_S`
        // (distinct-set or multiset size) and what the daemon learned
        // about the peer's set in return.
        minshare_trace::emit("leakage", "size_disclosure", false, || {
            vec![
                minshare_trace::count("peer", peer),
                minshare_trace::size("revealed", self.session_disclosure(report.protocol)),
                minshare_trace::size("learned", report.peer_set_size as u64),
            ]
        });
        Ok(report)
    }
}

/// Runs the engine's receiver over a byte-counted `transport`.
#[allow(clippy::too_many_arguments)]
fn run_client<T: Transport, R: Rng + ?Sized>(
    transport: T,
    group: &QrGroup,
    shape: ProtocolShape<'_>,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    config: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<(engine::ReceiverOutput, ClientTraffic), ProtocolError> {
    let (mut counted, traffic) = CountingTransport::new(transport);
    let out = engine::run_receiver(&mut counted, group, shape, values, rng, pool, config, cfg)?;
    Ok((out, ClientTraffic::from(&traffic)))
}

/// Client side of a daemon intersection session. `transport` is the
/// already-open session (the OPEN payload must have been
/// `SessionRequest::new(ProtocolKind::Intersection).encode()`); returns
/// the receiver output plus the session's byte counts for
/// reconciliation against the daemon's [`SessionReport`]. Announces
/// `cfg.shards` buckets when more than one; the daemon adopts the count.
pub fn run_client_intersection_sharded<T: Transport, R: Rng + ?Sized>(
    transport: T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    config: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<(IntersectionReceiverOutput, ClientTraffic), ProtocolError> {
    let shape = ProtocolShape::INTERSECTION;
    let (out, traffic) = run_client(transport, group, shape, values, rng, pool, config, cfg)?;
    Ok((out.into(), traffic))
}

/// Client side of a daemon equijoin session; see
/// [`run_client_intersection_sharded`]. `record_len` must match the
/// daemon's.
#[allow(clippy::too_many_arguments)]
pub fn run_client_equijoin_sharded<T: Transport, R: Rng + ?Sized>(
    transport: T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    config: PipelineConfig,
    record_len: usize,
    cfg: &ShardConfig,
) -> Result<(EquijoinReceiverOutput, ClientTraffic), ProtocolError> {
    let cipher = HybridCipher::new(group.clone(), record_len);
    let shape = ProtocolShape::equijoin(&cipher);
    let (out, traffic) = run_client(transport, group, shape, values, rng, pool, config, cfg)?;
    Ok((out.into(), traffic))
}

/// Client side of a daemon intersection-size session: learns
/// `|V_S ∩ V_R|` and `|V_S|`, never which values matched.
pub fn run_client_intersection_size_sharded<T: Transport, R: Rng + ?Sized>(
    transport: T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    config: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<(IntersectionSizeReceiverOutput, ClientTraffic), ProtocolError> {
    let shape = ProtocolShape::INTERSECTION_SIZE;
    let (out, traffic) = run_client(transport, group, shape, values, rng, pool, config, cfg)?;
    Ok((out.into(), traffic))
}

/// Client side of a daemon equijoin-size session: learns the join size
/// and the §5.2 duplicate-class matrix.
pub fn run_client_equijoin_size_sharded<T: Transport, R: Rng + ?Sized>(
    transport: T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    config: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<(EquijoinSizeReceiverOutput, ClientTraffic), ProtocolError> {
    let shape = ProtocolShape::EQUIJOIN_SIZE;
    let (out, traffic) = run_client(transport, group, shape, values, rng, pool, config, cfg)?;
    Ok((out.into(), traffic))
}

/// A client session's byte counts, mirror image of the daemon's
/// [`SessionReport`] traffic fields: the client's `sent` must equal the
/// daemon's `received` and vice versa.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientTraffic {
    /// Payload bytes the client sent.
    pub bytes_sent: u64,
    /// Payload bytes the client received.
    pub bytes_received: u64,
}

impl From<&minshare_net::TrafficStats> for ClientTraffic {
    fn from(stats: &minshare_net::TrafficStats) -> Self {
        ClientTraffic {
            bytes_sent: stats.bytes_sent(),
            bytes_received: stats.bytes_received(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;
    use minshare_net::duplex_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(0x5e55);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    fn to_values(names: &[&str]) -> Vec<Vec<u8>> {
        names.iter().map(|n| n.as_bytes().to_vec()).collect()
    }

    #[test]
    fn request_codec_round_trips_and_rejects_junk() {
        for protocol in [
            ProtocolKind::Intersection,
            ProtocolKind::Equijoin,
            ProtocolKind::IntersectionSize,
            ProtocolKind::EquijoinSize,
        ] {
            let wire = SessionRequest::new(protocol).encode();
            assert_eq!(SessionRequest::decode(&wire).unwrap().protocol, protocol);
            assert_eq!(ProtocolKind::parse(protocol.name()), Some(protocol));
        }
        for bad in [
            &b""[..],
            &b"MS"[..],
            &b"XX\x01\x01"[..],
            &b"MS\x01\x01"[..],
            &b"MS\x03\x01"[..],
            &b"MS\x02\x09"[..],
            &b"MS\x02\x01\x00"[..],
        ] {
            assert!(matches!(
                SessionRequest::decode(bad),
                Err(ProtocolError::MalformedMessage { .. })
            ));
        }
        let Err(ProtocolError::MalformedMessage { detail }) = SessionRequest::decode(b"MS\x01\x01")
        else {
            panic!("a version-1 request must be refused");
        };
        assert_eq!(detail, "session request version 1, this build speaks 2");
    }

    #[test]
    fn service_runs_an_intersection_session() {
        let g = group();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = to_values(&["apple", "grape", "melon"])
            .into_iter()
            .map(|v| (v, Vec::new()))
            .collect();
        let service = Service::new(
            g.clone(),
            entries,
            EncryptPool::new(2),
            PipelineConfig::default(),
            16,
            7,
        );
        let (server_t, client_t) = duplex_pair();
        let request = SessionRequest::new(ProtocolKind::Intersection).encode();
        let client_pool = EncryptPool::new(2);
        let client = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(99);
            run_client_intersection_sharded(
                client_t,
                &group(),
                &to_values(&["grape", "melon", "pear"]),
                &mut rng,
                &client_pool,
                PipelineConfig::default(),
                &ShardConfig::default(),
            )
            .unwrap()
        });
        let report = service.handle(1, &request, server_t).unwrap();
        let (out, traffic) = client.join().unwrap();
        assert_eq!(out.intersection, to_values(&["grape", "melon"]));
        assert_eq!(report.protocol, ProtocolKind::Intersection);
        assert_eq!(report.peer_set_size, 3);
        // Byte reconciliation: each side's sent is the other's received.
        assert_eq!(report.bytes_sent, traffic.bytes_received);
        assert_eq!(report.bytes_received, traffic.bytes_sent);
        assert!(report.bytes_sent > 0 && report.bytes_received > 0);
    }

    #[test]
    fn service_runs_an_equijoin_session() {
        let g = group();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"apple".to_vec(), b"fruit:1".to_vec()),
            (b"grape".to_vec(), b"fruit:2".to_vec()),
        ];
        let service = Service::new(
            g.clone(),
            entries,
            EncryptPool::new(2),
            PipelineConfig::default(),
            64,
            7,
        );
        let (server_t, client_t) = duplex_pair();
        let request = SessionRequest::new(ProtocolKind::Equijoin).encode();
        let client_pool = EncryptPool::new(2);
        let client = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(3);
            run_client_equijoin_sharded(
                client_t,
                &group(),
                &to_values(&["grape", "kiwi"]),
                &mut rng,
                &client_pool,
                PipelineConfig::default(),
                64,
                &ShardConfig::default(),
            )
            .unwrap()
        });
        let report = service.handle(2, &request, server_t).unwrap();
        let (out, traffic) = client.join().unwrap();
        assert_eq!(out.matches, vec![(b"grape".to_vec(), b"fruit:2".to_vec())]);
        assert_eq!(report.protocol, ProtocolKind::Equijoin);
        assert_eq!(report.bytes_sent, traffic.bytes_received);
        assert_eq!(report.bytes_received, traffic.bytes_sent);
    }

    #[test]
    fn service_auto_adopts_a_sharded_client() {
        let g = group();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = to_values(&["apple", "grape", "melon", "pear"])
            .into_iter()
            .map(|v| (v, Vec::new()))
            .collect();
        let service = Service::new(
            g.clone(),
            entries,
            EncryptPool::new(2),
            PipelineConfig::default(),
            16,
            7,
        )
        .with_shard_config(ShardConfig {
            mem_budget: 64, // force the spill path on the daemon side too
            ..ShardConfig::default()
        });
        let (server_t, client_t) = duplex_pair();
        let request = SessionRequest::new(ProtocolKind::Intersection).encode();
        let client_pool = EncryptPool::new(2);
        let client = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(99);
            run_client_intersection_sharded(
                client_t,
                &group(),
                &to_values(&["grape", "melon", "kiwi"]),
                &mut rng,
                &client_pool,
                PipelineConfig::default(),
                &ShardConfig::with_shards(4),
            )
            .unwrap()
        });
        let report = service.handle(1, &request, server_t).unwrap();
        let (out, traffic) = client.join().unwrap();
        assert_eq!(out.intersection, to_values(&["grape", "melon"]));
        assert_eq!(report.peer_set_size, 3);
        assert_eq!(report.bytes_sent, traffic.bytes_received);
        assert_eq!(report.bytes_received, traffic.bytes_sent);
    }

    #[test]
    fn service_runs_an_intersection_size_session_sharded() {
        let g = group();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = to_values(&["apple", "grape", "melon", "pear"])
            .into_iter()
            .map(|v| (v, Vec::new()))
            .collect();
        let service = Service::new(
            g.clone(),
            entries,
            EncryptPool::new(2),
            PipelineConfig::default(),
            16,
            7,
        );
        let (server_t, client_t) = duplex_pair();
        let request = SessionRequest::new(ProtocolKind::IntersectionSize).encode();
        let client_pool = EncryptPool::new(2);
        let client = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(41);
            run_client_intersection_size_sharded(
                client_t,
                &group(),
                &to_values(&["grape", "melon", "kiwi"]),
                &mut rng,
                &client_pool,
                PipelineConfig::default(),
                &ShardConfig::with_shards(4),
            )
            .unwrap()
        });
        let report = service.handle(3, &request, server_t).unwrap();
        let (out, traffic) = client.join().unwrap();
        // The client learns only the sizes, never which values matched.
        assert_eq!(out.intersection_size, 2);
        assert_eq!(out.peer_set_size, 4);
        assert_eq!(report.protocol, ProtocolKind::IntersectionSize);
        assert_eq!(report.peer_set_size, 3);
        assert_eq!(report.bytes_sent, traffic.bytes_received);
        assert_eq!(report.bytes_received, traffic.bytes_sent);
    }

    #[test]
    fn service_runs_an_equijoin_size_session() {
        let g = group();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = to_values(&["apple", "grape", "grape"])
            .into_iter()
            .map(|v| (v, Vec::new()))
            .collect();
        let service = Service::new(
            g.clone(),
            entries,
            EncryptPool::new(2),
            PipelineConfig::default(),
            16,
            7,
        );
        assert_eq!(service.session_disclosure(ProtocolKind::Intersection), 2);
        assert_eq!(service.session_disclosure(ProtocolKind::EquijoinSize), 3);
        let (server_t, client_t) = duplex_pair();
        let request = SessionRequest::new(ProtocolKind::EquijoinSize).encode();
        let client = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(5);
            run_client_equijoin_size_sharded(
                client_t,
                &group(),
                &to_values(&["grape", "kiwi"]),
                &mut rng,
                &EncryptPool::new(0),
                PipelineConfig::default(),
                &ShardConfig::default(),
            )
            .unwrap()
        });
        let report = service.handle(4, &request, server_t).unwrap();
        let (out, traffic) = client.join().unwrap();
        assert_eq!(out.join_size, 2); // "grape" matches twice on S's side
        assert_eq!(out.peer_multiset_size, 3);
        assert_eq!(report.protocol, ProtocolKind::EquijoinSize);
        assert_eq!(report.peer_set_size, 2);
        assert_eq!(report.bytes_sent, traffic.bytes_received);
        assert_eq!(report.bytes_received, traffic.bytes_sent);
    }

    #[test]
    fn malformed_request_is_a_typed_session_error() {
        let g = group();
        let service = Service::new(
            g,
            vec![(b"x".to_vec(), Vec::new())],
            EncryptPool::new(0),
            PipelineConfig::default(),
            16,
            1,
        );
        let (server_t, _client_t) = duplex_pair();
        assert!(matches!(
            service.handle(1, b"garbage!", server_t),
            Err(ProtocolError::MalformedMessage { .. })
        ));
    }

    #[test]
    fn each_peer_session_gets_its_own_key_and_replays_stably() {
        let g = group();
        let entries = to_values(&["apple", "grape", "melon"])
            .into_iter()
            .map(|v| (v, Vec::new()))
            .collect();
        let service = Service::new(
            g.clone(),
            entries,
            EncryptPool::new(0),
            PipelineConfig::default(),
            16,
            0xfeed,
        );
        let request = SessionRequest::new(ProtocolKind::Intersection).encode();
        // The same receiver message every time; only S's key can make
        // S's `Y_S` frame differ.
        let y_r = Message::Codewords(vec![g.hash_to_group(b"grape")])
            .encode(&g)
            .unwrap();
        let y_s = |peer: u64, session: u32| {
            let (server_t, mut client_t) = duplex_pair();
            client_t.send(&y_r).unwrap();
            service
                .handle_for_peer(peer, session, &request, server_t)
                .unwrap();
            client_t.recv().unwrap()
        };
        // Two connections that both open session 1.
        assert_ne!(y_s(1, 1), y_s(2, 1));
        assert_ne!(y_s(1, 1), y_s(1, 2));
        assert_eq!(y_s(2, 7), y_s(2, 7));
    }
}
