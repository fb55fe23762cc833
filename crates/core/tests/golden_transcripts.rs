//! Golden wire transcripts: what each party puts on the wire, pinned
//! across commits.
//!
//! The digests below were captured at the commit *before* the three
//! engine families (`pipeline.rs`, the sharded engines, the serial
//! delegations) collapsed into [`minshare::engine`], by running that
//! commit's engines on these exact inputs and seeds. They were captured
//! once more when group elements became signed residues in `[1, q]`: that
//! change rewrites every codeword (the hash no longer squares, and every
//! result folds to `min(x, p − x)`) but keeps each frame's length and
//! layout. The multisession and conformance baselines are produced by the
//! code they check, so they cannot see a drift that changes both sides
//! alike; these constants can.
//!
//! Coverage: 4 protocols × `B ∈ {1, 3}` at chunk size 3. The size
//! variants at `B = 1` run with `chunk_size ≥ n`: there the old code was
//! the serial reference (one plain frame per list), and chunking them at
//! `B = 1` is this refactor's one deliberate wire delta (DESIGN.md, "The
//! engine").

use std::sync::{Arc, Mutex};

use minshare::prelude::*;
use minshare_net::{duplex_pair, NetError, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `(protocol, B, sender digest, receiver digest)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u32, u64, u64); 8] = [
    ("intersection",      1, 0x69b0e647e8d19a29, 0x26738b893da4313e),
    ("equijoin",          1, 0x12020f9a19c2290d, 0x26738b893da4313e),
    ("intersection_size", 1, 0x032b9eb38c4e5fb5, 0x3468087bf58fbf02),
    ("equijoin_size",     1, 0x94687832a30bb5fb, 0x649a5285f4c05070),
    ("intersection",      3, 0xaee44f5ff0f67617, 0x4d3046b8848c882a),
    ("equijoin",          3, 0x62693dbc0b81aa3c, 0x4d3046b8848c882a),
    ("intersection_size", 3, 0xad188a12d205e5b1, 0x4d3046b8848c882a),
    ("equijoin_size",     3, 0x68b347547271383f, 0x977920ec3169e642),
];

fn group() -> QrGroup {
    let mut rng = StdRng::seed_from_u64(0x601d);
    QrGroup::generate(&mut rng, 64).unwrap()
}

fn values(n: usize, offset: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("value-{:04}", i + offset).into_bytes())
        .collect()
}

/// Folds every sent frame, length-prefixed, into an FNV-1a digest.
struct DigestTransport<T: Transport> {
    inner: T,
    digest: Arc<Mutex<u64>>,
}

impl<T: Transport> Transport for DigestTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)?;
        let mut d = self.digest.lock().unwrap();
        for byte in (frame.len() as u32).to_be_bytes().iter().chain(frame) {
            *d = (*d ^ u64::from(*byte)).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }
}

/// `(V_S, ext, V_R)`.
type Inputs<'a> = (&'a [Vec<u8>], &'a [Vec<u8>], &'a [Vec<u8>]);

/// Runs both roles of `shape` over a duplex link (sender seed
/// `0x5eed_0001`, receiver `0x5eed_0002`) and returns the two digests.
fn transcript(
    g: &QrGroup,
    shape: ProtocolShape<'_>,
    (vs, ext, vr): Inputs<'_>,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> (u64, u64) {
    let pool = EncryptPool::new(2);
    let (s_end, r_end) = duplex_pair();
    let s_digest = Arc::new(Mutex::new(FNV_OFFSET));
    let r_digest = Arc::new(Mutex::new(FNV_OFFSET));
    let mut s_t = DigestTransport {
        inner: s_end,
        digest: Arc::clone(&s_digest),
    };
    let mut r_t = DigestTransport {
        inner: r_end,
        digest: Arc::clone(&r_digest),
    };
    let pool = &pool;
    std::thread::scope(|scope| {
        let s = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x5eed_0001);
            engine::run_sender(&mut s_t, g, shape, vs, ext, &mut rng, pool, pipe, cfg)
        });
        let r = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x5eed_0002);
            engine::run_receiver(&mut r_t, g, shape, vr, &mut rng, pool, pipe, cfg)
        });
        s.join().unwrap().expect("sender");
        r.join().unwrap().expect("receiver");
    });
    let (sender, receiver) = (s_digest.lock().unwrap(), r_digest.lock().unwrap());
    (*sender, *receiver)
}

#[test]
fn engine_transcripts_match_the_parent_commit() {
    let g = group();
    let cipher = HybridCipher::new(g.clone(), 24);
    let (vs, vr) = (values(11, 0), values(8, 5));
    let ext: Vec<Vec<u8>> = vs.iter().map(|v| [&b"ext:"[..], v].concat()).collect();
    // Multisets with duplicate classes on both sides.
    let ms = [values(7, 0), values(4, 0)].concat();
    let mr = [values(6, 3), values(2, 4)].concat();
    for (protocol, shards, sender, receiver) in GOLDEN {
        let (shape, inputs): (ProtocolShape<'_>, Inputs<'_>) = match protocol {
            "intersection" => (ProtocolShape::INTERSECTION, (&vs, &[], &vr)),
            "equijoin" => (ProtocolShape::equijoin(&cipher), (&vs, &ext, &vr)),
            "intersection_size" => (ProtocolShape::INTERSECTION_SIZE, (&vs, &[], &vr)),
            _ => (ProtocolShape::EQUIJOIN_SIZE, (&ms, &[], &mr)),
        };
        let one_frame_per_list = shards == 1 && protocol.ends_with("_size");
        let pipe = PipelineConfig::chunked(if one_frame_per_list { usize::MAX } else { 3 });
        let cfg = ShardConfig {
            shards,
            mem_budget: 64, // spill on the way: the frames must not care
            ..ShardConfig::default()
        };
        let got = transcript(&g, shape, inputs, pipe, &cfg);
        assert_eq!(
            got,
            (sender, receiver),
            "{protocol} at B = {shards}: frames differ from the pinned digests \
             (got {:#018x} / {:#018x})",
            got.0,
            got.1
        );
    }
}
