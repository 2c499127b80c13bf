//! Golden faulted runs: both cluster engines (the `sim` simulator and the
//! `threaded` cluster) under each fault family, on 3 hosts × 2 sync
//! rounds × 3 epochs, with RepModel-Opt and PullModel, pinned to
//! `tests/fixtures/golden_faults.txt`.
//!
//! `conformance` holds the two engines equal to *each other*, so a change
//! that moves both the same way passes it. This file is the record of
//! what each engine computed under faults at the commit the fixture was
//! cut on. Every cell pins, per engine:
//!
//! * `model`: the CRC-32 of `syn0` and of `syn1neg`, and the pair count;
//! * `stats`: the whole `CommStats`;
//! * `faults`: the `faults.*` counter deltas of the run, all of them for
//!   the simulator. The threaded engine's lines leave out the six that
//!   did not repeat over 40 runs of this file (20 alone, 20 two at a
//!   time): a slow peer draws a NAK, which draws a resend on a fresh
//!   drop/flip/dup coin. They are `faults.detected.timeout`,
//!   `faults.injected.drop`, `faults.injected.dup`,
//!   `faults.injected.flip`, `faults.recovered.dedup` and
//!   `faults.recovered.resend`. Both engines' receivers count
//!   `detected.timeout` (one per slot NAKed for silence),
//!   `detected.corrupt` and `recovered.dedup` in one place,
//!   `crates/gluon/src/inbox.rs`. Every counter a threaded line keeps,
//!   except `faults.detected.crash` (counted per observing host), equals
//!   its sim line's (`engines_count_the_same_faults`): both engines draw
//!   the one injector, `FaultPlan::attempt`;
//! * `clock` (simulator only): the bits of `TrainResult::comm_time`, the
//!   virtual communication clock. It is built from each round's
//!   `RoundVolume` and the plan's coins alone, so it repeats exactly: it
//!   pins the pricing of resends and of partition stalls, PullModel's
//!   three phases included;
//! * `ckpt` (kill → resume cells only): one CRC-32 per written checkpoint
//!   over every field except `compute_time` and `comm_time`, which the
//!   simulator reads off the wall clock. One rule writes every
//!   checkpoint, so a threaded line equals its sim line
//!   (`checkpoints_do_not_depend_on_the_engine`).
//!
//! Scalar and AVX2 runs legitimately differ (FMA, lane association), so
//! each line carries one column per [`simd::backend_name`]; a run checks
//! the column of the backend it selected. Run it under
//! `GW2V_FORCE_SCALAR=0` and `=1`.
//!
//! After a *deliberate* change of what a faulted run computes, re-cut
//! both columns: `cargo test --test golden_faults -- --ignored
//! regenerate` once per backend (the other backend's column is kept).

use graph_word2vec::core::checkpoint::Checkpoint;
use graph_word2vec::core::distributed::{DistConfig, DistributedTrainer, TrainResult};
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::core::trainer_hogbatch::SgnsMode;
use graph_word2vec::core::trainer_threaded::ThreadedTrainer;
use graph_word2vec::corpus::datasets::{DatasetPreset, Scale};
use graph_word2vec::corpus::shard::Corpus;
use graph_word2vec::corpus::tokenizer::{sentences_from_text, TokenizerConfig};
use graph_word2vec::corpus::vocab::{VocabBuilder, Vocabulary};
use graph_word2vec::faults::{FaultPlan, OnPartition};
use graph_word2vec::gluon::plan::SyncPlan;
use graph_word2vec::gluon::ClusterConfig;
use graph_word2vec::obs;
use graph_word2vec::util::crc32::Crc32;
use graph_word2vec::util::fvec::FlatMatrix;
use graph_word2vec::util::simd;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Conformance's combined partition + dup + reorder + drop + crash plan.
const COMBINED_PARTITION_PLAN: &str =
    "seed=9,partition=0.1|2@2..4,dup=0.05,reorder=0.2,drop=0.01,crash=1@5";

/// `(name, fault plan, partition policy)`, each run under both sync plans.
const FAULT_CELLS: [(&str, &str, OnPartition); 7] = [
    ("crash", "seed=7,crash=1@2", OnPartition::Stall),
    ("rejoin", "seed=7,crash=1@1,rejoin=1@2", OnPartition::Stall),
    // The adopter of host 2 dies too: host 1 carries both wards.
    (
        "chained-crash",
        "seed=7,crash=2@1,crash=0@3",
        OnPartition::Stall,
    ),
    (
        "drop-flip",
        "seed=7,drop=0.03,flip=0.02",
        OnPartition::Stall,
    ),
    (
        "partition-stall",
        COMBINED_PARTITION_PLAN,
        OnPartition::Stall,
    ),
    (
        "partition-degrade",
        COMBINED_PARTITION_PLAN,
        OnPartition::Degrade,
    ),
    (
        "kill-resume",
        "seed=7,crash=1@1,rejoin=1@2,kill=1",
        OnPartition::Stall,
    ),
];
const SYNC_PLANS: [(&str, SyncPlan); 2] = [
    ("opt", SyncPlan::RepModelOpt),
    ("pull", SyncPlan::PullModel),
];
/// The HogBatch step under PullModel: training and inspection replay
/// both dispatch to the minibatch loop.
const HOGBATCH_CELLS: [(&str, &str); 2] = [("faultless", "seed=7"), ("crash", "seed=7,crash=1@2")];
const ENGINES: [&str; 2] = ["sim", "threaded"];

/// Threaded counters that drift with thread timing (see the module doc).
const THREADED_UNSTABLE: [&str; 6] = [
    "faults.detected.timeout",
    "faults.injected.drop",
    "faults.injected.dup",
    "faults.injected.flip",
    "faults.recovered.dedup",
    "faults.recovered.resend",
];

/// The counters are process-global: nothing else may train meanwhile.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_faults.txt")
}

/// `scalar` or `avx2+fma`: a forced scalar run checks the same column
/// as a host without AVX2.
fn backend() -> &'static str {
    simd::backend_name()
        .split_whitespace()
        .next()
        .expect("backend name")
}

/// Conformance's corpus and hyperparameters.
fn prepare() -> (Vocabulary, Corpus, Hyperparams) {
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    let synth = preset.generate(Scale::Tiny, 42);
    let cfg = TokenizerConfig::default();
    let mut b = VocabBuilder::new();
    for s in sentences_from_text(&synth.text, cfg.clone()) {
        b.add_sentence(&s);
    }
    let vocab = b.build(1);
    let corpus = Corpus::from_sentences(
        Corpus::from_text(&synth.text, &vocab, cfg)
            .sentences()
            .iter()
            .take(240)
            .cloned()
            .collect(),
    );
    let params = Hyperparams {
        dim: 16,
        window: 3,
        negative: 3,
        epochs: 3,
        seed: 11,
        ..Hyperparams::default()
    };
    (vocab, corpus, params)
}

fn fast_cluster() -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(1),
        nak_delay: Duration::from_millis(10),
        ..ClusterConfig::default()
    }
}

fn crc_of(layer: &FlatMatrix) -> u32 {
    let mut crc = Crc32::new();
    for x in layer.as_slice() {
        crc.update(&x.to_le_bytes());
    }
    crc.finish()
}

/// One run of `engine`, optionally checkpointing into `dir` and resuming
/// from it.
fn train(
    engine: &str,
    cfg: DistConfig,
    plan: &str,
    ckpt: Option<(&Path, bool)>,
    (vocab, corpus, params): &(Vocabulary, Corpus, Hyperparams),
) -> TrainResult {
    let plan = FaultPlan::parse(plan).expect("fault plan");
    if engine == "sim" {
        let mut t = DistributedTrainer::new(params.clone(), cfg).with_faults(plan);
        if let Some((dir, resume)) = ckpt {
            t = t.with_checkpointing(dir, 1).with_resume(resume);
        }
        t.train(corpus, vocab)
    } else {
        let mut t = ThreadedTrainer::new(params.clone(), cfg)
            .with_faults(plan)
            .with_cluster_config(fast_cluster());
        if let Some((dir, resume)) = ckpt {
            t = t.with_checkpointing(dir, 1).with_resume(resume);
        }
        t.train(corpus, vocab).expect("threaded run")
    }
}

/// CRC-32 of every field of the checkpoint except the two virtual clocks.
fn checkpoint_crc(path: &Path) -> u32 {
    let c = Checkpoint::load(path).expect("load checkpoint");
    let mut crc = Crc32::new();
    for word in [c.fingerprint, c.epoch as u64, c.pairs_trained] {
        crc.update(&word.to_le_bytes());
    }
    for &p in &c.processed {
        crc.update(&p.to_le_bytes());
    }
    for &alive in &c.alive {
        crc.update(&[alive as u8]);
    }
    for state in &c.rng_states {
        for word in state {
            crc.update(&word.to_le_bytes());
        }
    }
    let s = c.stats;
    for word in [
        s.rounds,
        s.reduce_bytes,
        s.broadcast_bytes,
        s.reduce_msgs,
        s.broadcast_msgs,
    ] {
        crc.update(&word.to_le_bytes());
    }
    for layer in c.layers.iter().flatten() {
        for x in layer.as_slice() {
            crc.update(&x.to_le_bytes());
        }
    }
    crc.finish()
}

/// Runs one cell on one engine and inserts its lines into `out`.
fn run_cell(
    out: &mut BTreeMap<String, String>,
    cell: &str,
    engine: &str,
    cfg: DistConfig,
    plan: &str,
    data: &(Vocabulary, Corpus, Hyperparams),
) {
    obs::reset();
    let (r, ckpts) = if plan.contains("kill=") {
        let dir = std::env::temp_dir().join(format!(
            "gw2v-golden-faults-{}-{}",
            cell.replace(' ', "-"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let killed = train(engine, cfg, plan, Some((&dir, false)), data);
        assert!(killed.killed, "{cell} {engine}: kill=1 stops the run");
        let resumed = train(engine, cfg, plan, Some((&dir, true)), data);
        assert_eq!(resumed.resumed_from, Some(2), "{cell} {engine}");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        let crcs: Vec<String> = files
            .iter()
            .map(|f| format!("{:08x}", checkpoint_crc(f)))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (resumed, Some(crcs.join(":")))
    } else {
        (train(engine, cfg, plan, None, data), None)
    };
    let counters: Vec<String> = obs::snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("faults."))
        .filter(|(name, _)| engine == "sim" || !THREADED_UNSTABLE.contains(&name.as_str()))
        .map(|(name, v)| format!("{}={v}", &name["faults.".len()..]))
        .collect();
    let s = r.stats;
    let key = |what: &str| format!("{cell} {engine} {what}");
    out.insert(
        key("model"),
        format!(
            "{:08x}:{:08x}:{}",
            crc_of(&r.model.syn0),
            crc_of(&r.model.syn1neg),
            r.pairs_trained
        ),
    );
    out.insert(
        key("stats"),
        format!(
            "{}:{}:{}:{}:{}",
            s.rounds, s.reduce_bytes, s.broadcast_bytes, s.reduce_msgs, s.broadcast_msgs
        ),
    );
    out.insert(key("faults"), counters.join(","));
    if engine == "sim" {
        out.insert(key("clock"), format!("{:016x}", r.comm_time.to_bits()));
    }
    if let Some(ckpts) = ckpts {
        out.insert(key("ckpt"), ckpts);
    }
}

/// `line → value` for the backend this process selected.
fn run_all() -> BTreeMap<String, String> {
    let data = prepare();
    let base = |sync: SyncPlan| DistConfig {
        n_hosts: 3,
        sync_rounds: 2,
        plan: sync,
        ..DistConfig::paper_default(3)
    };
    obs::set_enabled(true);
    let mut out = BTreeMap::new();
    for (name, plan, on_partition) in FAULT_CELLS {
        for (sync_name, sync) in SYNC_PLANS {
            let cfg = DistConfig {
                on_partition,
                ..base(sync)
            };
            for engine in ENGINES {
                let cell = format!("{name} {sync_name}");
                run_cell(&mut out, &cell, engine, cfg, plan, &data);
            }
        }
    }
    for (name, plan) in HOGBATCH_CELLS {
        let cfg = DistConfig {
            sgns: SgnsMode::HogBatch,
            ..base(SyncPlan::PullModel)
        };
        for engine in ENGINES {
            let cell = format!("hogbatch-{name} pull");
            run_cell(&mut out, &cell, engine, cfg, plan, &data);
        }
    }
    obs::set_enabled(false);
    out
}

/// Parses the fixture into `line → backend → value`; a missing file is
/// an empty record.
fn committed() -> BTreeMap<String, BTreeMap<String, String>> {
    let text = std::fs::read_to_string(fixture()).unwrap_or_default();
    let mut lines = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split(" | ");
        let key = parts.next().expect("line key").to_owned();
        let columns = parts
            .map(|col| {
                let (backend, value) = col.split_once('=').expect("backend=value");
                (backend.to_owned(), value.to_owned())
            })
            .collect();
        lines.insert(key, columns);
    }
    lines
}

#[test]
fn faulted_runs_match_the_committed_record() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let committed = committed();
    let got = run_all();
    assert_eq!(
        committed.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "the fixture's lines are the cells this file runs"
    );
    for (key, value) in &got {
        let want = committed[key]
            .get(backend())
            .unwrap_or_else(|| panic!("no `{}` column for `{key}` in the fixture", backend()));
        assert_eq!(
            value,
            want,
            "`{key}` on {} no longer matches the committed record",
            backend()
        );
    }
}

/// Both engines draw one injector's chain of attempts, so every counter a
/// `threaded` line records equals the same counter on its `sim` line —
/// except `detected.crash`, which each observing host counts on the
/// threaded engine and the simulator counts once.
#[test]
fn engines_count_the_same_faults() {
    let counters = |line: &str| -> BTreeMap<String, String> {
        line.split(',')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect()
    };
    let committed = committed();
    let mut differ = Vec::new();
    for (key, columns) in &committed {
        let Some(cell) = key.strip_suffix(" threaded faults") else {
            continue;
        };
        for (backend, threaded) in columns {
            let sim = counters(&committed[&format!("{cell} sim faults")][backend]);
            for (name, value) in counters(threaded) {
                if name != "detected.crash" && sim.get(&name) != Some(&value) {
                    differ.push(format!("{cell} {backend} {name}: threaded {value}"));
                }
            }
        }
    }
    assert!(differ.is_empty(), "{differ:#?}");
}

/// A checkpoint does not depend on the engine that wrote it: every
/// cell's `threaded ckpt` line is its `sim ckpt` line. A dead host's slot
/// holds its own last replica on both engines, and the totals follow one
/// rule.
#[test]
fn checkpoints_do_not_depend_on_the_engine() {
    let committed = committed();
    let cells: Vec<&str> = committed
        .keys()
        .filter_map(|key| key.strip_suffix(" threaded ckpt"))
        .collect();
    assert!(!cells.is_empty(), "the fixture holds checkpoint lines");
    for cell in cells {
        assert_eq!(
            committed[&format!("{cell} threaded ckpt")],
            committed[&format!("{cell} sim ckpt")],
            "{cell}: the engines wrote different checkpoints"
        );
    }
}

/// The phase counter follows the global round, also after a resume: the
/// reorder coins a killed run and its resumption draw add up to the
/// uninterrupted run's, and both engines draw the same number.
#[test]
fn a_resumed_run_draws_the_uninterrupted_coins() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = prepare();
    let cfg = DistConfig {
        n_hosts: 3,
        sync_rounds: 2,
        ..DistConfig::paper_default(3)
    };
    let plan = "seed=5,reorder=0.3";
    let killing = format!("{plan},kill=0");
    obs::set_enabled(true);
    let reorders = |run: &dyn Fn()| {
        obs::reset();
        run();
        obs::snapshot().counters["faults.injected.reorder"]
    };
    let mut whole = Vec::new();
    for engine in ENGINES {
        let dir = std::env::temp_dir().join(format!(
            "gw2v-golden-faults-coins-{engine}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let uninterrupted = reorders(&|| {
            train(engine, cfg, plan, None, &data);
        });
        let killed = reorders(&|| {
            assert!(train(engine, cfg, &killing, Some((&dir, false)), &data).killed);
        });
        let resumed = reorders(&|| {
            train(engine, cfg, &killing, Some((&dir, true)), &data);
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            killed + resumed,
            uninterrupted,
            "{engine}: killed {killed} + resumed {resumed} reorders"
        );
        whole.push(uninterrupted);
    }
    obs::set_enabled(false);
    assert_eq!(whole[0], whole[1], "sim and threaded reorders");
}

/// The inert plan injects nothing, so no engine counts a fault: no
/// duplicate, corrupt frame or silence NAK, on the threaded cluster too.
/// Its NAK window is a second wide, so only a miscount can fire it.
#[test]
fn an_inert_plan_counts_no_fault() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (vocab, corpus, params) = &prepare();
    let cfg = DistConfig {
        n_hosts: 3,
        sync_rounds: 2,
        plan: SyncPlan::PullModel,
        ..DistConfig::paper_default(3)
    };
    let patient = ClusterConfig {
        nak_delay: Duration::from_secs(1),
        ..ClusterConfig::default()
    };
    obs::set_enabled(true);
    obs::reset();
    DistributedTrainer::new(params.clone(), cfg).train(corpus, vocab);
    ThreadedTrainer::new(params.clone(), cfg)
        .with_cluster_config(patient)
        .train(corpus, vocab)
        .expect("threaded run");
    let counted: Vec<(String, u64)> = obs::snapshot()
        .counters
        .into_iter()
        .filter(|(name, v)| name.starts_with("faults.") && *v > 0)
        .collect();
    obs::set_enabled(false);
    assert!(counted.is_empty(), "{counted:?}");
}

#[test]
#[ignore = "rewrites this backend's column of tests/fixtures/golden_faults.txt; run only after a deliberate change of what a faulted run computes"]
fn regenerate() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut committed = committed();
    let mut text = String::new();
    for (key, value) in run_all() {
        let mut columns = committed.remove(&key).unwrap_or_default();
        columns.insert(backend().to_owned(), value);
        text.push_str(&key);
        for (backend, value) in &columns {
            text.push_str(&format!(" | {backend}={value}"));
        }
        text.push('\n');
    }
    std::fs::write(fixture(), text).expect("write fixture");
}
