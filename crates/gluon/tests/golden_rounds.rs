//! Golden sync rounds: a fixed seeded 4-host / 2-layer workload run for
//! three rounds under every plan × wire mode × {all alive, host 1 dead},
//! with each round's `RoundVolume::{sent, recv}`, the cumulative
//! `CommStats`, the CRC-32 of the canonical model and the CRC-32 of every
//! replica (mirror rows included; a dead host's stays frozen) pinned to
//! `tests/fixtures/golden_rounds.txt`. The fixture was cut from the
//! analytic simulator round this repo had before both engines ran
//! `round.rs`, so it is the record of what that implementation computed:
//! a changed line means the sync protocol changed bytes or bits.
//!
//! The workload uses the `Avg` combiner — element-wise adds and one
//! scale, so every value is the same under either SIMD backend, while a
//! zero delta reaching the combiner or a fold out of host-id order still
//! changes bits.
//!
//! After a *deliberate* protocol change, re-cut with
//! `cargo test -p gw2v-gluon --test golden_rounds -- --ignored regenerate`.

use gw2v_combiner::CombinerKind;
use gw2v_faults::FaultPlan;
use gw2v_gluon::cost::CostModel;
use gw2v_gluon::sync::{assemble_canonical_live, sync_round_degraded, SyncScratch};
use gw2v_gluon::wire::{WireMode, WireState};
use gw2v_gluon::{AccessSets, CommStats, Liveness, ModelReplica, SyncConfig, SyncPlan};
use gw2v_util::crc32::Crc32;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use std::fmt::Write as _;
use std::path::PathBuf;

const HOSTS: usize = 4;
/// 61 nodes over 4 hosts: master blocks of 15, 15, 15 and 16 rows.
const NODES: usize = 61;
const DIMS: [usize; 2] = [8, 5];
const ROUNDS: usize = 3;
const DEAD_HOST: usize = 1;

const PLANS: [SyncPlan; 3] = [
    SyncPlan::RepModelNaive,
    SyncPlan::RepModelOpt,
    SyncPlan::PullModel,
];
const MODES: [WireMode; 3] = [WireMode::IdValue, WireMode::Delta, WireMode::Quant];

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_rounds.txt")
}

fn fresh_replica() -> ModelReplica {
    let mut rng = Xoshiro256::new(7);
    let layers = DIMS
        .iter()
        .map(|&dim| {
            let mut m = FlatMatrix::zeros(NODES, dim);
            for r in 0..NODES {
                for x in m.row_mut(r) {
                    *x = rng.next_f32() - 0.5;
                }
            }
            m
        })
        .collect();
    ModelReplica::new(layers)
}

/// One host's touches for one round. Rounds 1 and 2 touch the *same*
/// rows (so delta shadows hit) with different
/// bumps; every third touch bumps by exactly zero, so its delta repeats
/// bit for bit and the delta mask has clear bits. On top of the seeded
/// touches every host touches one row all hosts share, the first row of
/// its own block (master-owned) and the first row of the next host's
/// block (mirror-owned); with ~13 touches over 61 rows most rows stay
/// untouched.
fn apply_workload(replica: &mut ModelReplica, host: usize, round: usize) {
    let root = SplitMix64::new(19);
    let mut where_rng = Xoshiro256::new(root.derive((host * 10 + round.min(1)) as u64));
    let mut bump_rng = Xoshiro256::new(root.derive((1000 + host * 10 + round) as u64));
    let block = |h: usize| (h % HOSTS * NODES / HOSTS) as u32;
    let shared = (5 + 17 * round.min(1)) as u32;
    let mut touches = vec![
        (0, shared),
        (1, shared),
        (0, block(host)),
        (1, block(host + 1)),
    ];
    for _ in 0..9 {
        touches.push((where_rng.index(2), where_rng.index(NODES) as u32));
    }
    for (i, (layer, node)) in touches.into_iter().enumerate() {
        let slot = where_rng.index(DIMS[layer]);
        let bump = bump_rng.next_f32() - 0.5;
        replica.row_mut(layer, node)[slot] += if i % 3 == 2 { 0.0 } else { bump };
    }
}

/// Stand-in for the PullModel inspection: what each host reads next
/// round. Repeats from round 1 on, like the touches.
fn access_sets(round: usize) -> AccessSets {
    let mut sets = AccessSets::new(HOSTS, DIMS.len(), NODES);
    for host in 0..HOSTS {
        for layer in 0..DIMS.len() {
            for node in 0..NODES {
                if (node + host + layer + round.min(1)).is_multiple_of(3) {
                    sets.get_mut(host, layer).set(node);
                }
            }
        }
    }
    sets
}

fn crc_of<'a>(layers: impl Iterator<Item = &'a FlatMatrix>) -> u32 {
    let mut crc = Crc32::new();
    for layer in layers {
        for x in layer.as_slice() {
            crc.update(&x.to_le_bytes());
        }
    }
    crc.finish()
}

/// Runs one cell and renders one fixture line per round.
fn run_cell(plan: SyncPlan, mode: WireMode, host_dead: bool, out: &mut String) {
    let cfg = SyncConfig {
        plan,
        combiner: CombinerKind::Avg,
    };
    let mut live = Liveness::all(HOSTS);
    if host_dead {
        live.mark_dead(DEAD_HOST);
    }
    let mut replicas: Vec<ModelReplica> = (0..HOSTS).map(|_| fresh_replica()).collect();
    let mut stats = CommStats::default();
    let mut scratch: Vec<SyncScratch> = (0..HOSTS).map(|_| SyncScratch::new()).collect();
    let mut wire: Vec<WireState> = (0..HOSTS).map(|_| WireState::for_mode(mode)).collect();
    for round in 0..ROUNDS {
        for (host, replica) in replicas.iter_mut().enumerate() {
            if live.is_alive(host) {
                apply_workload(replica, host, round);
            }
        }
        let access = access_sets(round);
        let (volume, _) = sync_round_degraded(
            &mut replicas,
            &cfg,
            Some(&access),
            &mut stats,
            &mut scratch,
            &live,
            &mut wire,
            &FaultPlan::none(),
            round,
            &CostModel::infiniband_56g(),
        )
        .unwrap();
        writeln!(
            out,
            "{} {} {} round={round} sent={:?} recv={:?} reduce_bytes={} reduce_msgs={} \
             broadcast_bytes={} broadcast_msgs={} rounds={} crc={:08x} replicas={:08x}",
            plan.label(),
            mode.label(),
            if host_dead { "host1-dead" } else { "all-alive" },
            volume.sent,
            volume.recv,
            stats.reduce_bytes,
            stats.reduce_msgs,
            stats.broadcast_bytes,
            stats.broadcast_msgs,
            stats.rounds,
            crc_of(assemble_canonical_live(&replicas, &live).iter()),
            crc_of(replicas.iter().flat_map(|r| &r.layers)),
        )
        .expect("write to string");
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for plan in PLANS {
        for mode in MODES {
            for host_dead in [false, true] {
                run_cell(plan, mode, host_dead, &mut out);
            }
        }
    }
    out
}

#[test]
fn sync_rounds_match_the_committed_record() {
    let committed = std::fs::read_to_string(fixture()).expect("golden_rounds fixture");
    let got = render_all();
    assert_eq!(
        committed.lines().count(),
        PLANS.len() * MODES.len() * 2 * ROUNDS,
        "18 cells × 3 rounds"
    );
    for (want, got) in committed.lines().zip(got.lines()) {
        assert_eq!(
            got, want,
            "sync round no longer matches the committed record"
        );
    }
    assert_eq!(got.lines().count(), committed.lines().count());
}

#[test]
fn the_workload_exercises_every_compact_form() {
    // The record is only a safety net if the cells differ where the
    // protocol does: delta's masks must skip rows on every plan (its
    // lists repeat from round 1), quant must change model bits, and a
    // dead host must change routing.
    let committed = std::fs::read_to_string(fixture()).expect("golden_rounds fixture");
    let last = |plan: SyncPlan, mode: WireMode, dead: &str| -> (u64, u64, String) {
        let prefix = format!("{} {} {dead} round=2 ", plan.label(), mode.label());
        let line = committed
            .lines()
            .find(|l| l.starts_with(&prefix))
            .expect("cell in fixture");
        let field = |key: &str| {
            let at = line.find(key).expect("field") + key.len();
            line[at..].split(' ').next().expect("value").to_owned()
        };
        let bytes = |key: &str| field(key).parse::<u64>().expect("byte count");
        let at = line.find(" sent=[").expect("sent field") + " sent=[".len();
        let sent = line[at..line[at..].find(']').expect("sent list") + at]
            .split(", ")
            .map(|b| b.parse::<u64>().expect("byte count"))
            .sum();
        (
            bytes(" reduce_bytes=") + bytes(" broadcast_bytes="),
            sent,
            field(" crc="),
        )
    };
    for plan in PLANS {
        let (classic, classic_round, crc) = last(plan, WireMode::IdValue, "all-alive");
        let (_, delta_round, delta_crc) = last(plan, WireMode::Delta, "all-alive");
        let (_, _, quant_crc) = last(plan, WireMode::Quant, "all-alive");
        // A round that ships every row costs at least their values, and
        // at dims 8 and 5 the values are over 5/6 of the id-value bytes.
        assert!(
            6 * delta_round < 5 * classic_round,
            "{plan:?}: delta masks never skipped a row"
        );
        assert_eq!(delta_crc, crc, "{plan:?}: lossless");
        assert_ne!(quant_crc, crc, "{plan:?}: quant must be lossy");
        let (dead_bytes, _, _) = last(plan, WireMode::IdValue, "host1-dead");
        assert_ne!(dead_bytes, classic, "{plan:?}: a dead host changes routing");
    }
}

#[test]
#[ignore = "rewrites tests/fixtures/golden_rounds.txt; run only after a deliberate protocol change"]
fn regenerate() {
    let path = fixture();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
    std::fs::write(path, render_all()).expect("write fixture");
}
