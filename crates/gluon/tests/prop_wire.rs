//! Property-based tests on the checksummed wire frame: for arbitrary
//! payloads — in both the classic id+value format and the delta format
//! (changed-row mask plus changed rows, expanded against the receiver's
//! shadow) — a faultless seal → open round-trip is bit-identical to the
//! pre-checksum payload, and *any* single-bit corruption anywhere in the
//! frame is detected. A well-framed delta payload of the wrong length is
//! a typed error that leaves the shadow as it was.

use bytes::Bytes;
use gw2v_gluon::wire::{
    delta_bytes, mask_bytes, open_frame, seal_frame, Channel, DeltaForm, DeltaShadow, RowDecoder,
    RowEncoder, WireError, FRAME_HEADER_BYTES,
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

/// Which rows of a batch change between two exchanges: none, all, or
/// the rows `coins` marks.
fn changed_rows(n: usize, subset: u8, coins: &[bool]) -> Vec<bool> {
    match subset {
        0 => vec![false; n],
        1 => vec![true; n],
        _ => (0..n).map(|r| coins[r % coins.len()]).collect(),
    }
}

/// Two exchanges over one id list: the first sends `entries` in full
/// (the sender's and the receiver's shadow both hold it), the second the
/// same ids with every `changed` row's first value given other bits.
/// Returns the receiver's shadow after the first exchange, the second
/// batch's encoder and the sender's decision for it.
fn second_exchange(
    dim: usize,
    entries: &[(u32, Vec<u32>)],
    changed: &[bool],
) -> (DeltaShadow, RowEncoder, DeltaForm) {
    let ids: Vec<u32> = entries.iter().map(|(n, _)| *n).collect();
    let first: Vec<f32> = entries
        .iter()
        .flat_map(|(_, bits)| bits.iter().map(|&b| f32::from_bits(b)))
        .collect();
    let mut sender = DeltaShadow::new();
    let mut receiver = DeltaShadow::new();
    let form = sender.submit(0, 1, 0, Channel::Reduce, &ids, &first, dim);
    assert_eq!(form, DeltaForm::Full, "a first exchange ships in full");
    receiver.store(0, 1, 0, Channel::Reduce, ids.clone(), first);

    let mut enc = RowEncoder::new(dim);
    for ((node, bits), &change) in entries.iter().zip(changed) {
        let mut row: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        if change {
            row[0] = f32::from_bits(bits[0] ^ 0x0040_0001);
        }
        enc.push(*node, &row);
    }
    let form = sender.submit(0, 1, 0, Channel::Reduce, &ids, enc.values(), dim);
    (receiver, enc, form)
}

/// The mask of a [`DeltaForm::Delta`], or a failed property.
fn delta_mask(form: DeltaForm) -> Result<(Vec<u8>, usize), TestCaseError> {
    match form {
        DeltaForm::Delta { mask, changed } => Ok((mask, changed)),
        DeltaForm::Full => Err(TestCaseError::Fail(
            "a repeated id list must ship a delta".into(),
        )),
    }
}

/// Arbitrary entries trimmed to `dim` values each.
fn trim(dim: usize, entries: Vec<(u32, Vec<u32>)>) -> Vec<(u32, Vec<u32>)> {
    entries
        .into_iter()
        .map(|(n, bits)| (n, bits.into_iter().take(dim).collect()))
        .collect()
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

    /// Delta round-trip: for any id list (repeats included) and any set
    /// of changed rows, none and all among them, the mask marks exactly
    /// the changed rows, the payload costs the mask plus those rows, and
    /// sealing, opening and expanding it against the receiver's shadow
    /// rebuilds the second batch bit for bit.
    #[test]
    fn delta_round_trip_rebuilds_the_batch_against_the_shadow(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..20),
        subset in 0u8..3,
        coins in proptest::collection::vec(any::<bool>(), 1..20),
    ) {
        let entries = trim(dim, entries);
        let changed = changed_rows(entries.len(), subset, &coins);
        let (mut receiver, enc, form) = second_exchange(dim, &entries, &changed);
        let (mask, count) = delta_mask(form)?;
        prop_assert_eq!(count, changed.iter().filter(|&&c| c).count());
        prop_assert_eq!(mask.len(), mask_bytes(entries.len()));
        for (r, &change) in changed.iter().enumerate() {
            prop_assert_eq!(mask[r / 8] & (1 << (r % 8)) != 0, change, "mask bit of row {}", r);
        }
        let payload = enc.finish_delta(&mask);
        prop_assert_eq!(payload.len(), delta_bytes(dim, entries.len(), count));
        let opened = open_frame(&seal(&payload)).expect("faultless frame must open");
        prop_assert_eq!(opened.as_slice(), payload.as_slice());
        let (ids, vals) = receiver
            .apply_delta(0, 1, 0, Channel::Reduce, &opened, dim)
            .expect("payload fits the shadow");
        prop_assert_eq!(ids, enc.ids());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(vals), bits(enc.values()), "rows rebuilt bit for bit");
    }

    /// Single-bit corruption of a sealed delta frame: flipping any one
    /// bit — header, mask or changed rows — must make open_frame reject
    /// it, before the shadow could expand a corrupted mask.
    #[test]
    fn delta_frame_bit_flip_is_detected(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..20),
        subset in 0u8..3,
        coins in proptest::collection::vec(any::<bool>(), 1..20),
        flip_pick in any::<u64>(),
    ) {
        let entries = trim(dim, entries);
        let changed = changed_rows(entries.len(), subset, &coins);
        let (_, enc, form) = second_exchange(dim, &entries, &changed);
        let (mask, _) = delta_mask(form)?;
        let frame = seal(&enc.finish_delta(&mask));
        let bit = (flip_pick % (frame.len() as u64 * 8)) as usize;
        let mut corrupted = frame.as_slice().to_vec();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            open_frame(&Bytes::from(corrupted)).is_err(),
            "flip of bit {} (frame of {} bytes) went undetected",
            bit, frame.len()
        );
    }

    /// A delta payload that passed its frame CRC but is cut short or
    /// carries extra bytes is `BadLength`, and the shadow stays as it
    /// was: an all-clear mask afterwards still yields the first batch.
    #[test]
    fn delta_payload_of_the_wrong_length_leaves_the_shadow_untouched(
        dim in 1usize..6,
        entries in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(any::<u32>(), 5)), 0..20),
        subset in 0u8..3,
        coins in proptest::collection::vec(any::<bool>(), 1..20),
        grow in any::<bool>(),
        by in 1usize..9,
    ) {
        let entries = trim(dim, entries);
        let changed = changed_rows(entries.len(), subset, &coins);
        let (mut receiver, enc, form) = second_exchange(dim, &entries, &changed);
        let (mask, _) = delta_mask(form)?;
        let mut wrong = enc.finish_delta(&mask).as_slice().to_vec();
        if grow || wrong.is_empty() {
            wrong.extend(std::iter::repeat_n(0xA5, by));
        } else {
            wrong.truncate(wrong.len() - by.min(wrong.len()));
        }
        let opened = open_frame(&seal(&Bytes::from(wrong))).expect("well framed");
        let err = receiver
            .apply_delta(0, 1, 0, Channel::Reduce, &opened, dim)
            .expect_err("a payload of the wrong length must not expand");
        prop_assert!(matches!(err, WireError::BadLength { .. }), "{:?}", err);
        let clear = Bytes::from(vec![0u8; mask_bytes(entries.len())]);
        let (_, vals) = receiver
            .apply_delta(0, 1, 0, Channel::Reduce, &clear, dim)
            .expect("an all-clear mask fits the shadow");
        let first: Vec<u32> = entries.iter().flat_map(|(_, bits)| bits.iter().copied()).collect();
        let got: Vec<u32> = vals.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(got, first, "the failed payload changed the shadow");
    }
}
