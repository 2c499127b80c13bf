//! Golden byte fixtures: one sealed id-value frame and one GW2VCKP1
//! checkpoint, committed under `tests/fixtures/` as the bytes the code
//! produced when they were cut. Re-creating them must give the same
//! bytes, and the committed files must still open — so a change to the
//! frame layout, the checkpoint layout, the fingerprint recipe or the
//! CRC-32 behind all three shows up as a failing diff, under either SIMD
//! backend. Neither fixture involves `f32` arithmetic, so both are
//! backend-invariant by construction.
//!
//! After a *deliberate* format change, re-cut them with
//! `cargo test --test golden -- --ignored regenerate_fixtures`.

use graph_word2vec::core::checkpoint::Checkpoint;
use graph_word2vec::core::distributed::DistConfig;
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::gluon::volume::CommStats;
use graph_word2vec::gluon::wire::{
    entry_bytes, open_frame, seal_frame, RowDecoder, RowEncoder, FRAME_HEADER_BYTES,
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
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got_row), bits(&row), "row of node {node}");
    }
    assert!(dec.next_entry().is_none());
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
    std::fs::write(checkpoint_fixture(), golden_checkpoint().to_bytes()).expect("write checkpoint");
}
