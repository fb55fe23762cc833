//! The secret-type registry: which types and identifiers the rules treat
//! as secret material.
//!
//! Kept as a plain source-of-truth module (not a config file) so adding a
//! new key type to the workspace forces a visible diff here, reviewed
//! alongside the type itself.

/// Type names holding long-term or session secrets. SEC01 forbids
/// `derive(Debug)` / `derive(PartialEq)` on these; FMT01 forbids
/// formatting them.
pub const SECRET_TYPES: &[&str] = &[
    // crates/crypto: commutative-encryption exponents, and the DRBG
    // state every exponent is drawn from.
    "CommutativeKey",
    "ChaChaRng",
    // crates/crypto: OT receiver trapdoor + choice bit.
    "OtReceiverState",
    // crates/bignum: the recoded window schedule of a fixed exponent is
    // a deterministic encoding of the exponent; crates/crypto: the lazy
    // per-key cache cells holding such plans.
    "FixedExponentPlan",
    "PlanCachePair",
    // crates/crypto: pool work items carry the commutative key and group
    // elements between threads. The pool's scheduling cells
    // (SessionState, CachePadded) are deliberately absent: they hold only
    // virtual clocks and claim counts — public scheduling metadata, no
    // key material.
    "PoolJob",
    "PendingBatch",
    // crates/bignum/src/ifma.rs: IfmaCtx is deliberately absent — it
    // precomputes only public modulus constants (n, R'^2 mod n,
    // -n^-1 mod 2^52) and touches group elements/ciphertexts; the secret
    // window schedule (FixedExponentPlan, above) never enters bignum::ifma:
    // fixpow drives the vector ladder step by step. Revisit if the
    // kernel module ever grows exponent-dependent state.
    // crates/net: per-direction session keys.
    "DirectionKeys",
    // crates/core: the daemon's protocol brain owns the private database
    // (`V_S` with ext payloads, pre-hash plaintext) plus the master key
    // every per-session key derives from. Debug/format on it would spill
    // the very set the protocols exist to protect. The surrounding
    // session *metadata* types (SessionRequest, SessionReport,
    // ClientTraffic in core; MuxFrame, SessionRegistry, ServerStats,
    // SessionTransport in net; SessionState/PoolSession in crypto) are
    // deliberately absent: they carry protocol codes, byte/op counters
    // and fair-share scheduling state — public observables with no key
    // or value material. Revisit if any of them ever grows a payload
    // field.
    "Service",
    // crates/net simnet types (FaultPlan, SimEndpoint, SimTrace, ...)
    // are deliberately absent: they carry only opaque frame bytes,
    // timing schedules and public seeds — no key material. Revisit if
    // the simulated link ever learns about session state.
    // crates/hashcore: the keyed MAC state embeds the key schedule.
    "HmacSha256",
];

/// Identifiers that name secret byte material. SEC02 flags `==` / `!=` /
/// `assert_eq!` comparisons mentioning them; FMT01 flags formatting them.
pub const SECRET_IDENTS: &[&str] = &[
    "exponent",
    "inverse_exponent",
    "e_inv",
    "phi",
    "opad_block",
    "mac_key",
    "cipher_key",
    "shared_secret",
    "ikm",
    "okm",
];

/// Identifiers that name *raw set values* — plaintexts that have not yet
/// passed `prepare_set`'s hash step. The taint pass seeds them with
/// `Taint::RAW`; WIRE01 forbids them (and anything derived from them)
/// from reaching a wire sink un-hashed-and-encrypted. Names are chosen
/// to match the protocol engines' parameter conventions (`values` in the
/// two-party engines, `vs`/`vr` in the three-party medical runs).
pub const RAW_VALUE_IDENTS: &[&str] = &["values", "vs", "vr", "raw_values", "plaintexts"];

/// Functions whose *return value* is key material (`Taint::KEY`):
/// key generation and key derivation. `hkdf::derive` is a source, not a
/// sanitizer — its output is the session key schedule, which must never
/// travel.
pub const KEY_SOURCE_FNS: &[&str] = &["key_gen", "gen_key", "gen_key_pair", "derive"];

/// Hash-class sanitizers: one-way maps into the group/digest domain.
/// Their output is no longer the raw value, but it is **not yet safe to
/// transmit** — the paper's invariant is hash *then* encrypt, and a bare
/// `h(v)` on the wire permits offline dictionary probing. The taint pass
/// maps `RAW → HASHED` through these and absorbs their arguments.
/// A `KEY` input maps to clean: a digest/MAC tag over key material
/// (e.g. `HmacSha256::finalize`) does not reveal the key.
pub const HASH_SANITIZER_FNS: &[&str] = &[
    // crates/crypto QrGroup: the paper's h : V → QR_p.
    "hash_to_group",
    // crates/core/src/prepare.rs: dedup + hash of a whole value set.
    "prepare_set",
    "prepare_multiset",
    // crates/hashcore HMAC: tag emission over (already-clean) frames.
    "finalize",
];

/// Encrypt-class sanitizers: commutative/stream encryption and the
/// modexp paths implementing it. Anything that passed through one of
/// these is ciphertext and is safe to transmit (`→ CLEAN`). `pow` is
/// included deliberately: `g^x` with a secret exponent is a DH public
/// value whose safety is exactly the discrete-log assumption the whole
/// protocol rests on.
pub const ENC_SANITIZER_FNS: &[&str] = &[
    // crates/crypto QrGroup.
    "encrypt",
    "decrypt",
    "encrypt_many",
    "encrypt_checked",
    "decrypt_checked",
    "hash_encrypt",
    "pow",
    "pow_batch",
    // crates/bignum/src/fixpow.rs: the plan's pow_batch pinned to the
    // portable kernels — same modexp, same DH-safety argument, just no
    // SIMD dispatch. Exists as the differential oracle for bignum::ifma.
    "pow_batch_scalar",
    // crates/crypto/src/pool.rs: batch jobs — the pool applies the
    // group ops above on worker threads; the submitted items come back
    // encrypted via `PendingBatch::wait`, so `wait`'s output is
    // ciphertext too (the pool runs nothing but group ops).
    "submit_encrypt",
    "submit_decrypt",
    "encrypt_batch",
    "wait",
    // crates/crypto/src/chacha20.rs: the secure-channel stream cipher.
    "apply_keystream",
    // crates/crypto/src/kcipher.rs: K(κ, ext(v)) payload encryption.
    "seal",
    // crates/core/src/spill.rs + shard.rs: records entering the spill
    // sorter are post-h-post-enc by construction (`push_record` is a
    // registered sink enforcing it), so reloading them from the merged
    // stream yields the same ciphertext codewords back.
    "next_record",
    "take_bucket",
    "rec_codeword",
];

/// Benign projections: methods that return sizes/counters/metadata of a
/// tainted receiver, not its contents. The taint pass absorbs the
/// receiver chain of these calls (a length is not the value). Keep this
/// list to genuinely content-free accessors.
pub const PROJECTION_FNS: &[&str] = &[
    "len",
    "is_empty",
    "is_some",
    "is_none",
    "count",
    // The group modulus is a public parameter; reading it off a
    // key-holding plan/context reveals nothing secret.
    "modulus",
    "total_items",
    "codeword_len",
    "elem_len",
    "wire_bits",
    "bytes_sent",
    "bytes_received",
    "ciphertext_len",
    "max_plaintext_len",
    // crates/core/src/spill.rs: run/byte/record counters of the external
    // sorter — sizes of ciphertext runs, no content.
    "stats",
    // crates/core/src/shard.rs: bucket arithmetic. `bucket_of` reads a
    // prefix of an *encoded group element* (its callers feed it h(v)
    // codewords or spilled ciphertexts) and returns an index mod B —
    // the public, mutually computable bucket assignment, disclosed by
    // design as per-bucket set sizes (see leakage.rs). `effective_shards`
    // is config arithmetic.
    "bucket_of",
    "value_bucket",
    "effective_shards",
    // crates/crypto/src/pool.rs: live run-queue length, read for the
    // telemetry depth gauge. The queue holds key-carrying jobs; its
    // length is scheduling metadata.
    "depth",
];

/// Wire/encode sinks (WIRE01): a tainted argument (or receiver chain)
/// reaching one of these without hash-then-encrypt is excess leakage.
/// `send`/`send_batch` are the `Transport` methods; `encode*` build wire
/// frames; `put_slice` is the `FrameBatch` writer append; the two
/// `*_chunked` helpers stream codewords straight onto a transport.
pub const WIRE_SINK_FNS: &[&str] = &[
    "send",
    "send_batch",
    "encode",
    "encode_into",
    "encode_codewords_into",
    "send_codewords_chunked",
    "send_payload_pairs_chunked",
    "put_slice",
    // crates/core/src/spill.rs: spill-run files persist outside the
    // process's memory protection, so a record entering the external
    // sorter is held to the same hash-then-encrypt bar as a network
    // frame — WIRE01 proves spill files carry only ciphertext bytes.
    "push_record",
    // crates/net/src/tcp.rs: the socket framer under `TcpTransport::send`
    // — the last call before the kernel, so nothing may reach it around
    // `send` either.
    "write_frame",
];

/// Telemetry snapshot exporters: the only blessed builders of a `STATS`
/// reply payload. Their output is a JSON rendering of the metrics
/// registry, which ingests nothing but typed trace fields — counts,
/// sizes, durations and flags, enforced upstream by OBS01 at every emit
/// site — so the taint pass treats them like projections: the rendered
/// snapshot is clean metadata even when the handle reaching the
/// registry is itself taint-carrying (the daemon's stats provider lives
/// beside the private database). Keep in lockstep with
/// `minshare-trace::metrics`.
pub const STATS_EXPORTER_FNS: &[&str] = &["snapshot_json", "snapshot_and_reset"];

/// Crates WIRE01 runs over: everything that can reach a transport.
pub const WIRE01_CRATES: &[&str] = &["core", "crypto", "net"];

/// Files exempt from WIRE01, each with the reason the exemption is
/// sound. These are reviewed here, not silently baselined.
pub const WIRE01_EXEMPT_FILES: &[(&str, &str)] = &[
    (
        "crates/core/src/tradeoff.rs",
        "§7 tradeoff protocols *deliberately* disclose BF(V_R) — a Bloom \
         filter over hashed values — and a hit count in exchange for \
         zero/fewer exponentiations; the module quantifies its own \
         disclosure (see FilterDisclosure) and SECURITY.md documents it",
    ),
    (
        "crates/crypto/src/pool.rs",
        "the pool's fair-share run queue hands Arc<PoolJob> (which holds \
         the commutative key) to worker threads of the same process, and \
         crossbeam result channels carry the ciphertexts back; \
         `Sender::send` here is not a network transport. A real wire \
         sink must never be added to this file",
    ),
];

/// Crates LOCK01 runs over: the pool (ROADMAP sharding work) and the
/// transport stack, where a blocking call under a held guard can
/// deadlock a protocol party.
pub const LOCK01_CRATES: &[&str] = &["crypto", "net"];

/// Calls that produce a lock guard when they terminate a binding's
/// call chain (`let g = m.lock();`).
pub const GUARD_FNS: &[&str] = &["lock", "read", "write"];

/// Potentially unbounded blocking calls LOCK01 forbids while a guard is
/// live. `wait`/`wait_timeout` invocations that *consume the guard
/// itself* (condvar style, releasing the lock while parked) are exempt.
/// `recv_timeout` is where the mux connection loops park between events
/// (`net::server::pump`): bounded per call, unbounded in a loop.
pub const BLOCKING_FNS: &[&str] = &["recv", "recv_timeout", "join", "wait", "wait_timeout"];

/// Crates whose non-test code must be panic-free (PANIC01): these process
/// peer-supplied bytes, where a panic is a remote denial of service.
pub const PANIC_FREE_CRATES: &[&str] = &["crypto", "core", "net"];

/// The one file allowed to hold `unsafe` (UNSAFE01): the AVX-512 IFMA
/// kernel, whose safe API is checked at construction by runtime CPU
/// detection.
pub const UNSAFE_ALLOWED_FILE: &str = "crates/bignum/src/ifma.rs";

/// True iff `name` is a registered secret type.
pub fn is_secret_type(name: &str) -> bool {
    SECRET_TYPES.contains(&name)
}

/// True iff `name` is a registered secret identifier.
pub fn is_secret_ident(name: &str) -> bool {
    SECRET_IDENTS.contains(&name)
}

/// True iff `name` is a registered raw-value identifier.
pub fn is_raw_value_ident(name: &str) -> bool {
    RAW_VALUE_IDENTS.contains(&name)
}

/// True iff calling `name` yields key material.
pub fn is_key_source_fn(name: &str) -> bool {
    KEY_SOURCE_FNS.contains(&name)
}

/// True iff `name` is a hash-class sanitizer.
pub fn is_hash_sanitizer(name: &str) -> bool {
    HASH_SANITIZER_FNS.contains(&name)
}

/// True iff `name` is an encrypt-class sanitizer.
pub fn is_enc_sanitizer(name: &str) -> bool {
    ENC_SANITIZER_FNS.contains(&name)
}

/// True iff `name` is a benign size/counter projection.
pub fn is_projection_fn(name: &str) -> bool {
    PROJECTION_FNS.contains(&name)
}

/// True iff `name` is a registered telemetry snapshot exporter.
pub fn is_stats_exporter_fn(name: &str) -> bool {
    STATS_EXPORTER_FNS.contains(&name)
}

/// True iff `name` is a wire/encode sink method or function.
pub fn is_wire_sink_fn(name: &str) -> bool {
    WIRE_SINK_FNS.contains(&name)
}

/// Reason `rel_path` is exempt from WIRE01, if it is.
pub fn wire01_exemption(rel_path: &str) -> Option<&'static str> {
    let normalized = rel_path.replace('\\', "/");
    WIRE01_EXEMPT_FILES
        .iter()
        .find(|(f, _)| *f == normalized)
        .map(|(_, why)| *why)
}

/// True iff a workspace-relative path lies in a crate the given rule
/// scope covers (`crates/<name>/src/...`).
fn in_crates(rel_path: &str, crates: &[&str]) -> bool {
    let normalized = rel_path.replace('\\', "/");
    crates
        .iter()
        .any(|c| normalized.starts_with(&format!("crates/{c}/src/")))
}

/// True iff WIRE01 runs over this file.
pub fn in_wire01_scope(rel_path: &str) -> bool {
    in_crates(rel_path, WIRE01_CRATES) && wire01_exemption(rel_path).is_none()
}

/// True iff LOCK01 runs over this file.
pub fn in_lock01_scope(rel_path: &str) -> bool {
    in_crates(rel_path, LOCK01_CRATES)
}

/// True iff UNSAFE01 runs over this file: every `crates/*/src` file but
/// [`UNSAFE_ALLOWED_FILE`].
pub fn in_unsafe01_scope(rel_path: &str) -> bool {
    let normalized = rel_path.replace('\\', "/");
    let mut parts = normalized.split('/');
    let in_src = parts.next() == Some("crates") && parts.nth(1) == Some("src");
    in_src && normalized != UNSAFE_ALLOWED_FILE
}

/// True iff a workspace-relative path (e.g. `crates/crypto/src/ot.rs`)
/// lies in a panic-free crate.
pub fn in_panic_free_crate(rel_path: &str) -> bool {
    in_crates(rel_path, PANIC_FREE_CRATES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookups() {
        assert!(is_secret_type("CommutativeKey"));
        assert!(is_secret_type("FixedExponentPlan"));
        assert!(is_secret_type("Service"));
        assert!(!is_secret_type("OtQuery"));
        // Session metadata stays formattable: counters and scheduling
        // state, not secrets.
        assert!(!is_secret_type("SessionReport"));
        assert!(!is_secret_type("SessionState"));
        assert!(!is_secret_type("MuxFrame"));
        assert!(is_secret_ident("mac_key"));
        assert!(!is_secret_ident("modulus"));
        assert!(in_panic_free_crate("crates/crypto/src/ot.rs"));
        assert!(in_panic_free_crate("crates/net/src/secure.rs"));
        assert!(!in_panic_free_crate("crates/bignum/src/ubig.rs"));
        assert!(!in_panic_free_crate("crates/crypto/tests/props.rs"));
    }

    #[test]
    fn taint_registry_lookups() {
        assert!(is_raw_value_ident("values"));
        assert!(!is_raw_value_ident("vr_size"));
        assert!(is_key_source_fn("gen_key"));
        assert!(is_hash_sanitizer("prepare_set"));
        assert!(is_enc_sanitizer("pow_batch_scalar"));
        assert!(!is_enc_sanitizer("encode"));
        assert!(is_wire_sink_fn("send_batch"));
        assert!(is_wire_sink_fn("push_record"));
        assert!(is_enc_sanitizer("next_record"));
        assert!(is_enc_sanitizer("take_bucket"));
        assert!(is_projection_fn("bucket_of"));
        assert!(is_projection_fn("total_items"));
        // The stats exporters are projection-class, not enc-class: they
        // bless only their own rendered output.
        assert!(is_stats_exporter_fn("snapshot_json"));
        assert!(is_stats_exporter_fn("snapshot_and_reset"));
        assert!(!is_stats_exporter_fn("snapshot"));
        assert!(!is_enc_sanitizer("snapshot_json"));
        // Scope and exemptions.
        assert!(in_wire01_scope("crates/core/src/intersection.rs"));
        assert!(!in_wire01_scope("crates/core/src/tradeoff.rs"));
        assert!(wire01_exemption("crates/crypto/src/pool.rs").is_some());
        assert!(!in_wire01_scope("crates/bench/src/lib.rs"));
        assert!(in_lock01_scope("crates/net/src/simnet/mod.rs"));
        assert!(!in_lock01_scope("crates/core/src/wire.rs"));
        assert!(in_unsafe01_scope("crates/bignum/src/fixpow.rs"));
        assert!(in_unsafe01_scope("crates/net/src/simnet/mod.rs"));
        assert!(!in_unsafe01_scope(UNSAFE_ALLOWED_FILE));
        assert!(!in_unsafe01_scope("crates/bignum/tests/properties.rs"));
    }
}
