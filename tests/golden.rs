//! Golden byte fixtures: one sealed frame per wire payload form and one
//! GW2VCKP1 checkpoint, committed under `tests/fixtures/` as the bytes
//! the code produced when they were cut. Re-creating them must give the
//! same bytes, and the committed files must still open — so a change to
//! a payload layout, the frame layout, the checkpoint layout, the
//! fingerprint recipe or the CRC-32 behind all of them shows up as a
//! failing diff, under either SIMD backend. Only the quantized frame
//! involves `f32` arithmetic, and its kernels are bit-identical across
//! backends by contract.
//!
//! The id-value frame and the checkpoint were cut when the CRC-32 kernel
//! was replaced; the two compact frames (delta mask + changed rows,
//! quant) were cut from the low-level finishers
//! before the `WireState::encode`/`decode` seam existed, and are now
//! produced and consumed through it.
//!
//! After a *deliberate* format change, re-cut them with
//! `cargo test --test golden -- --ignored regenerate_fixtures`.

use graph_word2vec::core::checkpoint::Checkpoint;
use graph_word2vec::core::distributed::DistConfig;
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::gluon::volume::CommStats;
use graph_word2vec::gluon::wire::{
    delta_bytes, entry_bytes, open_frame, quant_entry_bytes, seal_frame, Channel, RowDecoder,
    RowEncoder, WireMode, WireState, FRAME_HEADER_BYTES,
};
use graph_word2vec::util::fvec::FlatMatrix;
use std::path::PathBuf;

const FRAME_DIM: usize = 4;
const CHECKPOINT_EPOCH: usize = 3;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Rows of the frame fixture: ordinary values plus the bit patterns a
/// codec is most likely to mangle (NaN payload, −0.0, subnormal, ±max).
/// Seven entries make a 140-byte payload, long enough for the folding
/// CRC kernel with both of its tails.
fn frame_rows() -> Vec<(u32, [f32; FRAME_DIM])> {
    vec![
        (0, [0.0, -0.0, 1.0, -1.0]),
        (7, [0.025, -2.5, 1e-30, 1e30]),
        (
            42,
            [f32::from_bits(0x7fc0_1234), f32::MIN_POSITIVE, 1e-45, 0.5],
        ),
        (4_000, [f32::MAX, f32::MIN, f32::EPSILON, -f32::EPSILON]),
        (65_536, [3.25, -7.125, 0.1, -0.3]),
        (1 << 24, [1.0 / 3.0, -2.0 / 3.0, 6.02e23, -1.6e-19]),
        (
            u32::MAX - 1,
            [f32::INFINITY, f32::NEG_INFINITY, 255.0, 256.0],
        ),
    ]
}

fn golden_frame() -> Vec<u8> {
    let mut enc = RowEncoder::new(FRAME_DIM);
    for (node, row) in frame_rows() {
        enc.push(node, &row);
    }
    seal_frame(&enc.finish())
        .expect("a 140-byte payload fits a frame")
        .as_slice()
        .to_vec()
}

/// Ids of the compact-form fixtures: nine rows, so a delta mask has a
/// partial second byte.
const COMPACT_IDS: [u32; 9] = [3, 8, 21, 34, 55, 89, 144, 233, 377];
/// Rows that differ between the two batches of the delta fixture.
const CHANGED_ROWS: [usize; 3] = [1, 4, 8];
/// Rows of the model the compact payloads are decoded against.
const COMPACT_NODES: usize = 400;

/// Rows of the compact-form fixtures: finite values (quantization is
/// defined on those), one flat row (scale 0), and with `changed` a bump
/// on [`CHANGED_ROWS`].
fn compact_rows(changed: bool) -> Vec<(u32, [f32; FRAME_DIM])> {
    COMPACT_IDS
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let mut row = [0.0f32; FRAME_DIM];
            for (j, x) in row.iter_mut().enumerate() {
                *x = if i == 6 {
                    1.5
                } else {
                    (i as f32 - 4.0) * 0.75 + j as f32 * 0.3125
                };
            }
            if changed && CHANGED_ROWS.contains(&i) {
                row[2] += 0.5;
            }
            (node, row)
        })
        .collect()
}

fn compact_encoder(changed: bool) -> RowEncoder {
    let mut enc = RowEncoder::new(FRAME_DIM);
    for (node, row) in compact_rows(changed) {
        enc.push(node, &row);
    }
    enc
}

/// What a sender in `mode` puts on the wire for the second of two
/// batches over [`COMPACT_IDS`] (the first exchange of delta is always a
/// full id-value payload), sealed; plus the receiver state that
/// saw the first batch and the second batch's `value_only` tag.
fn golden_compact_frame(mode: WireMode) -> (Vec<u8>, WireState, bool) {
    let mut sender = WireState::for_mode(mode);
    let mut receiver = WireState::for_mode(mode);
    let (first, tag) = sender.encode(0, 1, 0, Channel::Broadcast, &compact_encoder(false));
    receiver
        .decode(
            0,
            1,
            0,
            Channel::Broadcast,
            &first,
            tag,
            FRAME_DIM,
            COMPACT_NODES,
            |_, _| {},
        )
        .expect("first exchange decodes");
    let second = compact_encoder(mode == WireMode::Delta);
    let (payload, value_only) = sender.encode(0, 1, 0, Channel::Broadcast, &second);
    let frame = seal_frame(&payload).expect("a small payload fits a frame");
    (frame.as_slice().to_vec(), receiver, value_only)
}

/// Opens a committed compact frame and decodes it through the seam
/// against `receiver`.
fn decode_compact(
    committed: &[u8],
    receiver: &mut WireState,
    value_only: bool,
) -> Vec<(u32, Vec<f32>)> {
    let payload = open_frame(&committed.to_vec().into()).expect("committed frame must open");
    let mut rows = Vec::new();
    receiver
        .decode(
            0,
            1,
            0,
            Channel::Broadcast,
            &payload,
            value_only,
            FRAME_DIM,
            COMPACT_NODES,
            |node, row| rows.push((node, row.to_vec())),
        )
        .expect("committed payload must decode");
    rows
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// A two-host, two-layer checkpoint whose fingerprint comes from the
/// real recipe (CRC-32 of the `Debug` forms of a run's configuration).
fn golden_checkpoint() -> Checkpoint {
    let params = Hyperparams {
        dim: 4,
        window: 3,
        negative: 3,
        epochs: 5,
        seed: 11,
        ..Hyperparams::default()
    };
    let matrix = |salt: u32| {
        let data = (0..3 * 4u32)
            .map(|i| {
                (i.wrapping_add(salt).wrapping_mul(2_654_435_761) >> 8) as f32 / 4096.0 - 2048.0
            })
            .collect();
        FlatMatrix::from_vec(data, 3, 4)
    };
    Checkpoint {
        fingerprint: Checkpoint::fingerprint_of(&params, &DistConfig::paper_default(2)),
        epoch: CHECKPOINT_EPOCH,
        pairs_trained: 123_456,
        compute_time: 1.25,
        comm_time: 0.001953125,
        processed: vec![7_000, 6_500],
        alive: vec![true, false],
        rng_states: vec![
            [1, 2, 3, 4],
            [
                0x9E37_79B9_7F4A_7C15,
                0xBF58_476D_1CE4_E5B9,
                0x94D0_49BB_1331_11EB,
                u64::MAX,
            ],
        ],
        stats: CommStats {
            rounds: 96,
            reduce_bytes: 1_000_003,
            broadcast_bytes: 2_000_029,
            reduce_msgs: 192,
            broadcast_msgs: 193,
        },
        layers: vec![vec![matrix(1), matrix(2)], vec![matrix(3), matrix(4)]],
    }
}

fn checkpoint_fixture() -> PathBuf {
    fixture(&Checkpoint::file_name(CHECKPOINT_EPOCH))
}

#[test]
fn sealed_frame_matches_committed_bytes_and_opens() {
    let committed = std::fs::read(fixture("idvalue_frame.bin")).expect("frame fixture");
    assert_eq!(
        golden_frame(),
        committed,
        "seal_frame no longer produces the committed bytes"
    );
    assert_eq!(
        committed.len(),
        FRAME_HEADER_BYTES + frame_rows().len() * entry_bytes(FRAME_DIM)
    );

    let payload = open_frame(&committed.into()).expect("committed frame must open");
    let mut dec = RowDecoder::new(payload, FRAME_DIM);
    for (node, row) in frame_rows() {
        let (got_node, got_row) = dec.next_entry().expect("entry");
        assert_eq!(got_node, node);
        assert_eq!(bits(got_row), bits(&row), "row of node {node}");
    }
    assert!(dec.next_entry().is_none());
}

#[test]
fn delta_mask_frame_matches_committed_bytes_and_decodes() {
    let committed = std::fs::read(fixture("delta_mask_frame.bin")).expect("delta fixture");
    let (frame, mut receiver, value_only) = golden_compact_frame(WireMode::Delta);
    assert!(value_only, "a repeated id list ships mask + changed rows");
    assert_eq!(frame, committed, "delta mask + changed-rows bytes changed");
    assert_eq!(
        committed.len(),
        FRAME_HEADER_BYTES + delta_bytes(FRAME_DIM, COMPACT_IDS.len(), CHANGED_ROWS.len())
    );
    // Rows 1, 4 and 8 of nine: LSB-first, the second byte holds one bit.
    assert_eq!(
        committed[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + 2],
        [0b0001_0010, 0b0000_0001]
    );
    // Unchanged rows come back from the receiver's shadow, changed ones
    // from the payload: together, the second batch bit for bit.
    let rows = decode_compact(&committed, &mut receiver, value_only);
    assert_eq!(rows.len(), COMPACT_IDS.len());
    for ((node, row), (want_node, want_row)) in rows.iter().zip(compact_rows(true)) {
        assert_eq!(*node, want_node);
        assert_eq!(bits(row), bits(&want_row), "row of node {node}");
    }
}

#[test]
fn quant_frame_matches_committed_bytes_and_decodes_to_the_lossy_image() {
    let committed = std::fs::read(fixture("quant_frame.bin")).expect("quant fixture");
    let (frame, mut receiver, value_only) = golden_compact_frame(WireMode::Quant);
    assert!(!value_only, "quantized payloads carry their own ids");
    assert_eq!(frame, committed, "quantized bytes changed");
    let n = COMPACT_IDS.len();
    assert_eq!(
        committed.len(),
        FRAME_HEADER_BYTES + n * quant_entry_bytes(FRAME_DIM)
    );
    // The expected image, straight from the committed bytes with plain
    // arithmetic: row r, column j is `offset[r] + scale[r] · code[r][j]`,
    // one multiply and one add, never fused.
    let body = &committed[FRAME_HEADER_BYTES..];
    let f32_at = |at: usize| f32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
    let image: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            let (scale, offset) = (f32_at(n * 4 + r * 4), f32_at(n * 8 + r * 4));
            (0..FRAME_DIM)
                .map(|j| {
                    let step = scale * f32::from(body[n * 12 + r * FRAME_DIM + j]);
                    offset + step
                })
                .collect()
        })
        .collect();
    let rows = decode_compact(&committed, &mut receiver, value_only);
    assert_eq!(rows.len(), n);
    for (r, ((node, row), (want_node, exact))) in rows.iter().zip(compact_rows(false)).enumerate() {
        assert_eq!(*node, want_node);
        assert_eq!(bits(row), bits(&image[r]), "lossy image of node {node}");
        let step = f32_at(n * 4 + r * 4);
        for (got, want) in row.iter().zip(exact) {
            assert!(
                (got - want).abs() <= 0.5 * step + 1e-6,
                "within half a grid step"
            );
        }
    }
    assert_eq!(
        bits(&rows[6].1),
        bits(&[1.5; FRAME_DIM]),
        "a flat row is exact"
    );
}

#[test]
fn checkpoint_matches_committed_bytes_and_loads() {
    let want = golden_checkpoint();
    let committed = std::fs::read(checkpoint_fixture()).expect("checkpoint fixture");
    assert_eq!(
        want.to_bytes(),
        committed,
        "Checkpoint::to_bytes no longer produces the committed bytes"
    );

    let loaded = Checkpoint::load(&checkpoint_fixture()).expect("committed checkpoint must load");
    assert_eq!(loaded.fingerprint, want.fingerprint);
    assert_eq!(loaded.epoch, want.epoch);
    assert_eq!(loaded.pairs_trained, want.pairs_trained);
    assert_eq!(loaded.processed, want.processed);
    assert_eq!(loaded.alive, want.alive);
    assert_eq!(loaded.rng_states, want.rng_states);
    assert_eq!(loaded.stats, want.stats);
    for (got, want) in loaded
        .layers
        .iter()
        .flatten()
        .zip(want.layers.iter().flatten())
    {
        assert_eq!(got.as_slice(), want.as_slice());
    }
}

#[test]
#[ignore = "rewrites tests/fixtures; run only after a deliberate format change"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture("")).expect("fixture dir");
    std::fs::write(fixture("idvalue_frame.bin"), golden_frame()).expect("write frame");
    for (name, mode) in [
        ("delta_mask_frame.bin", WireMode::Delta),
        ("quant_frame.bin", WireMode::Quant),
    ] {
        std::fs::write(fixture(name), golden_compact_frame(mode).0).expect("write compact frame");
    }
    std::fs::write(checkpoint_fixture(), golden_checkpoint().to_bytes()).expect("write checkpoint");
}
