//! Decoder robustness: arbitrary bytes fed to every protocol-facing
//! parser must produce errors, never panics or bogus successes.

use minshare::wire::Message;
use minshare::ProtocolError;
use minshare_crypto::{CryptoError, QrGroup};
use minshare_hash::bloom::BloomFilter;
use minshare_privdb::rowcodec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn group() -> &'static QrGroup {
    static GROUP: OnceLock<QrGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xf022);
        QrGroup::generate(&mut rng, 64).expect("group")
    })
}

proptest! {
    #[test]
    fn message_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Any outcome but a panic is acceptable; successes must re-encode
        // to the identical frame (canonical encoding).
        if let Ok(msg) = Message::decode(&bytes, group()) {
            let re = msg.encode(group()).expect("valid message re-encodes");
            prop_assert_eq!(re, bytes);
        }
    }

    #[test]
    fn bloom_from_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        if let Some(f) = BloomFilter::from_bytes(&bytes) {
            prop_assert_eq!(f.to_bytes(), bytes);
        }
    }

    #[test]
    fn rowcodec_value_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        if let Ok(v) = rowcodec::decode_value(&bytes) {
            prop_assert_eq!(rowcodec::encode_value(&v), bytes);
        }
    }

    #[test]
    fn rowcodec_rows_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..150)) {
        if let Ok(rows) = rowcodec::decode_rows(&bytes) {
            prop_assert_eq!(rowcodec::encode_rows(&rows), bytes);
        }
    }

    #[test]
    fn mutated_valid_frames_never_panic(
        n in 1usize..5,
        flip_at in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        // Take a valid frame and flip one bit anywhere.
        let g = group();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let elements: Vec<_> = (0..n).map(|_| g.sample_element(&mut rng)).collect();
        let mut frame = Message::Codewords(elements).encode(g).expect("encode");
        let idx = flip_at as usize % frame.len();
        frame[idx] ^= 1 << flip_bit;
        // Must not panic; may decode (e.g. count byte unchanged semantics)
        // or error — both fine.
        let _ = Message::decode(&frame, g);
    }
}

#[test]
fn a_frame_of_sampled_elements_decodes_in_full() {
    // The shape of the benchmark's `core.wire_decode_us_per_codeword`
    // replay: 32 `sample_element` codewords at 1024 bits. If such a frame
    // were refused early the replay would time a rejection, not a decode.
    let g = QrGroup::well_known(1024).expect("group");
    let mut rng = StdRng::seed_from_u64(0xdec0);
    let elements: Vec<_> = (0..32).map(|_| g.sample_element(&mut rng)).collect();
    let mut frame = Message::Codewords(elements.clone())
        .encode(&g)
        .expect("encode");
    match Message::decode(&frame, &g).expect("sampled elements decode") {
        Message::Codewords(got) => assert_eq!(got, elements),
        other => panic!("unexpected message {other:?}"),
    }
    // One codeword set to q + 1, the first value outside [1, q].
    let width = g.codeword_bytes();
    let at = 5 + 17 * width;
    let out_of_range = g
        .order()
        .add_small(1)
        .to_be_bytes_padded(width)
        .expect("fits");
    frame[at..at + width].copy_from_slice(&out_of_range);
    assert!(matches!(
        Message::decode(&frame, &g),
        Err(ProtocolError::Crypto(CryptoError::NotGroupElement))
    ));
}
