//! Property-based tests on the checksummed wire frame: for arbitrary
//! payloads — in both the classic id+value format and the memoized
//! value-only format — a faultless seal → open round-trip is
//! bit-identical to the pre-checksum payload, and *any* single-bit
//! corruption anywhere in the frame is detected.

use bytes::Bytes;
use gw2v_gluon::wire::{
    open_frame, seal_frame, RowDecoder, RowEncoder, ValueDecoder, FRAME_HEADER_BYTES,
};
use proptest::prelude::*;

/// Builds a payload from arbitrary entries, exercising denormals, NaN
/// payload bits and negative zero through the raw-bits generator.
fn encode(dim: usize, entries: &[(u32, Vec<u32>)]) -> Bytes {
    let mut enc = RowEncoder::new(dim);
    for (node, bits) in entries {
        let row: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        enc.push(*node, &row);
    }
    enc.finish()
}

fn seal(payload: &Bytes) -> Bytes {
    seal_frame(payload).expect("test payloads are far below 4 GiB")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Faultless round-trip: the opened payload is byte-identical to the
    /// sealed one, and it still decodes to bit-identical rows.
    #[test]
    fn seal_open_is_identity_on_payload(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..12),
    ) {
        let entries: Vec<(u32, Vec<u32>)> = entries
            .into_iter()
            .map(|(n, bits)| (n, bits.into_iter().take(dim).collect()))
            .collect();
        prop_assume!(entries.iter().all(|(_, bits)| bits.len() == dim));
        let payload = encode(dim, &entries);
        let opened = open_frame(&seal(&payload)).expect("faultless frame must open");
        prop_assert_eq!(opened.as_slice(), payload.as_slice());
        let mut dec = RowDecoder::new(opened, dim);
        for (node, bits) in &entries {
            let (got_node, got_row) = dec.next_entry().expect("entry present");
            prop_assert_eq!(got_node, *node);
            let got_bits: Vec<u32> = got_row.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got_bits, bits, "row bits must survive unchanged");
        }
        prop_assert!(dec.next_entry().is_none());
    }

    /// Adversarial single-bit corruption: flipping any one bit of the
    /// sealed frame — header or payload, position chosen arbitrarily —
    /// must make open_frame reject it.
    #[test]
    fn any_single_bit_flip_is_detected(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..12),
        flip_pick in any::<u64>(),
    ) {
        let entries: Vec<(u32, Vec<u32>)> = entries
            .into_iter()
            .map(|(n, bits)| (n, bits.into_iter().take(dim).collect()))
            .collect();
        prop_assume!(entries.iter().all(|(_, bits)| bits.len() == dim));
        let frame = seal(&encode(dim, &entries));
        let bit = (flip_pick % (frame.len() as u64 * 8)) as usize;
        let mut corrupted = frame.as_slice().to_vec();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            open_frame(&Bytes::from(corrupted)).is_err(),
            "flip of bit {} (frame of {} bytes, header {}) went undetected",
            bit, frame.len(), FRAME_HEADER_BYTES
        );
    }

    /// Memoized value-only round-trip: sealing and decoding against the
    /// cached id list reproduces every (node, row) pair bit-identically,
    /// and the value-only payload is exactly 4 bytes per row smaller
    /// than the id+value encoding of the same batch.
    #[test]
    fn value_only_round_trip_against_cached_ids(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..12),
    ) {
        let entries: Vec<(u32, Vec<u32>)> = entries
            .into_iter()
            .map(|(n, bits)| (n, bits.into_iter().take(dim).collect()))
            .collect();
        prop_assume!(entries.iter().all(|(_, bits)| bits.len() == dim));
        let mut enc = RowEncoder::new(dim);
        for (node, bits) in &entries {
            let row: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            enc.push(*node, &row);
        }
        let ids: Vec<u32> = enc.ids().to_vec();
        let payload = enc.finish_values();
        prop_assert_eq!(payload.len() + 4 * entries.len(), enc.byte_len());
        let opened = open_frame(&seal(&payload)).expect("faultless frame must open");
        let mut dec = ValueDecoder::new(opened, dim, &ids).expect("length matches the cache");
        for (node, bits) in &entries {
            let (got_node, got_row) = dec.next_entry().expect("entry present");
            prop_assert_eq!(got_node, *node, "ids come from the cache, in order");
            let got_bits: Vec<u32> = got_row.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got_bits, bits, "row bits must survive unchanged");
        }
        prop_assert!(dec.next_entry().is_none());
    }

    /// Single-*byte* corruption of a sealed value-only frame: either the
    /// CRC-32 rejects the frame outright, or — when the corruption is a
    /// truncation — the decoder rejects the payload/cache length
    /// mismatch. Silent acceptance is never allowed.
    #[test]
    fn value_only_corruption_is_rejected(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 1..12),
        pick in any::<u64>(),
        delta in 1u8..=255,
    ) {
        let entries: Vec<(u32, Vec<u32>)> = entries
            .into_iter()
            .map(|(n, bits)| (n, bits.into_iter().take(dim).collect()))
            .collect();
        prop_assume!(entries.iter().all(|(_, bits)| bits.len() == dim));
        let mut enc = RowEncoder::new(dim);
        for (node, bits) in &entries {
            let row: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            enc.push(*node, &row);
        }
        let ids: Vec<u32> = enc.ids().to_vec();
        let frame = seal(&enc.finish_values());
        let mut corrupted = frame.as_slice().to_vec();
        let byte = (pick % corrupted.len() as u64) as usize;
        corrupted[byte] = corrupted[byte].wrapping_add(delta);
        match open_frame(&Bytes::from(corrupted)) {
            Err(_) => {} // CRC (or header sanity) caught it.
            Ok(opened) => prop_assert!(
                ValueDecoder::new(opened, dim, &ids).is_err(),
                "byte {} corrupted by {} slipped past both the frame CRC \
                 and the cache-length check",
                byte, delta
            ),
        }
    }
}
