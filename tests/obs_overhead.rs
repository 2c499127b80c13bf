//! Observability bit-identity guard: enabling the metrics/trace layer
//! must not perturb training in any way. The instrumentation only
//! *reads* model state and counts events — it must never touch an RNG
//! stream or a model value — so a deterministic run with metrics ON
//! must produce embeddings bitwise-identical to the same run with
//! metrics OFF.
//!
//! This test lives in its own integration-test binary (own process)
//! because it toggles the process-global enabled flag with
//! [`graph_word2vec::obs::set_enabled`]; sharing a process with other
//! tests that read the flag would race.

use graph_word2vec::core::distributed::{DistConfig, DistributedTrainer};
use graph_word2vec::core::params::Hyperparams;
use graph_word2vec::core::trainer_threaded::ThreadedTrainer;
use graph_word2vec::corpus::datasets::{DatasetPreset, Scale};
use graph_word2vec::corpus::shard::Corpus;
use graph_word2vec::corpus::tokenizer::{sentences_from_text, TokenizerConfig};
use graph_word2vec::corpus::vocab::{VocabBuilder, Vocabulary};
use graph_word2vec::faults::FaultPlan;
use graph_word2vec::gluon::ClusterConfig;
use graph_word2vec::obs;
use std::sync::Mutex;
use std::time::Duration;

/// Tests in this binary still share the process-global enabled flag
/// with each other — serialize them.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn prepare() -> (Vocabulary, Corpus) {
    let preset = DatasetPreset::by_name("1-billion").expect("preset");
    let synth = preset.generate(Scale::Tiny, 7);
    let cfg = TokenizerConfig::default();
    let mut b = VocabBuilder::new();
    for s in sentences_from_text(&synth.text, cfg.clone()) {
        b.add_sentence(&s);
    }
    let vocab = b.build(1);
    let corpus = Corpus::from_text(&synth.text, &vocab, cfg);
    (vocab, corpus)
}

fn params() -> Hyperparams {
    Hyperparams {
        dim: 16,
        window: 3,
        negative: 3,
        epochs: 2,
        seed: 11,
        ..Hyperparams::default()
    }
}

#[test]
fn metrics_do_not_perturb_training() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (vocab, corpus) = prepare();

    obs::set_enabled(false);
    let off =
        DistributedTrainer::new(params(), DistConfig::paper_default(2)).train(&corpus, &vocab);
    assert!(
        obs::snapshot().counters.is_empty(),
        "disabled run must record nothing"
    );

    obs::set_enabled(true);
    obs::reset();
    let on = DistributedTrainer::new(params(), DistConfig::paper_default(2)).train(&corpus, &vocab);

    // The instrumented run must actually have instrumented something.
    let snap = obs::snapshot();
    assert_eq!(
        snap.counters.get("core.pairs").copied(),
        Some(on.pairs_trained),
        "core.pairs counter must match the trainer's own pair count"
    );
    assert!(
        snap.counters.get("gluon.rounds").copied().unwrap_or(0) > 0,
        "sync rounds must be counted: {:?}",
        snap.counters.keys().collect::<Vec<_>>()
    );
    assert!(
        snap.histograms.contains_key("core.host_compute_ns"),
        "per-host compute histogram must be populated"
    );

    // ... without perturbing a single bit of the result.
    assert_eq!(off.pairs_trained, on.pairs_trained);
    assert_eq!(off.stats.total_bytes(), on.stats.total_bytes());
    assert_eq!(
        off.model.syn0.as_slice().len(),
        on.model.syn0.as_slice().len()
    );
    for (i, (a, b)) in off
        .model
        .syn0
        .as_slice()
        .iter()
        .zip(on.model.syn0.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "syn0[{i}] differs between metrics-off and metrics-on runs"
        );
    }
    for (i, (a, b)) in off
        .model
        .syn1neg
        .as_slice()
        .iter()
        .zip(on.model.syn1neg.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "syn1neg[{i}] differs between metrics-off and metrics-on runs"
        );
    }

    obs::set_enabled(false);
    obs::reset();
}

/// Re-admission instrumentation: a crash→rejoin run must surface the
/// `faults.recovered.rejoin` and `gluon.state_transfer_bytes` counters
/// in the exported snapshot — with *identical* transfer-byte values in
/// both engines (the simulator charges the state stream analytically,
/// the threaded engine measures the frames it actually sends) — and a
/// metrics-off rejoin run must stay bitwise identical to a metrics-on
/// one.
#[test]
fn rejoin_counters_are_observable_and_inert_when_off() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (vocab, corpus) = prepare();
    // Shrink the corpus so the threaded runs stay fast.
    let corpus = Corpus::from_sentences(corpus.sentences().iter().take(240).cloned().collect());
    let params = Hyperparams {
        epochs: 3,
        ..params()
    };
    let cfg = DistConfig::paper_default(3);
    let cluster = ClusterConfig {
        tick: Duration::from_millis(1),
        nak_delay: Duration::from_millis(10),
        ..ClusterConfig::default()
    };
    let plan = FaultPlan::parse("seed=7,crash=1@1,rejoin=1@2").unwrap();

    obs::set_enabled(false);
    obs::reset();
    let off = ThreadedTrainer::new(params.clone(), cfg)
        .with_faults(plan.clone())
        .with_cluster_config(cluster)
        .train(&corpus, &vocab)
        .expect("metrics-off rejoin run");
    assert!(obs::snapshot().counters.is_empty());

    obs::set_enabled(true);
    obs::reset();
    let sim = DistributedTrainer::new(params.clone(), cfg)
        .with_faults(plan.clone())
        .train(&corpus, &vocab);
    let sim_snap = obs::snapshot().counters;
    obs::reset();
    let on = ThreadedTrainer::new(params, cfg)
        .with_faults(plan)
        .with_cluster_config(cluster)
        .train(&corpus, &vocab)
        .expect("metrics-on rejoin run");
    let thr_snap = obs::snapshot().counters;

    for snap in [&sim_snap, &thr_snap] {
        assert_eq!(
            snap.get("faults.recovered.rejoin").copied(),
            Some(1),
            "one re-admission must be counted: {:?}",
            snap.keys().collect::<Vec<_>>()
        );
        assert!(
            snap.get("gluon.state_transfer_bytes").copied().unwrap_or(0) > 0,
            "the state stream must be measured"
        );
    }
    assert_eq!(
        sim_snap.get("gluon.state_transfer_bytes"),
        thr_snap.get("gluon.state_transfer_bytes"),
        "analytic and measured transfer volume must agree"
    );

    // Instrumentation reads, never writes: same bits either way.
    assert_eq!(sim.model, on.model, "engines must agree bit-for-bit");
    assert_eq!(off.pairs_trained, on.pairs_trained);
    assert_eq!(off.stats, on.stats);
    for (a, b) in off
        .model
        .syn0
        .as_slice()
        .iter()
        .chain(off.model.syn1neg.as_slice())
        .zip(
            on.model
                .syn0
                .as_slice()
                .iter()
                .chain(on.model.syn1neg.as_slice()),
        )
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "metrics toggles must not move a bit"
        );
    }

    obs::set_enabled(false);
    obs::reset();
}

/// The round counters are the run's `CommStats`, on either engine:
/// a fresh 3-host run's `gluon.{reduce,broadcast}_{bytes,msgs}` add up
/// to what its hosts sent and `gluon.rounds` to the rounds it ran, with
/// every host alive and when one crashes and rejoins.
#[test]
fn round_counters_reconcile_with_comm_stats_on_both_engines() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (vocab, corpus) = prepare();
    let corpus = Corpus::from_sentences(corpus.sentences().iter().take(240).cloned().collect());
    let params = Hyperparams {
        epochs: 3,
        ..params()
    };
    let cfg = DistConfig::paper_default(3);
    let cluster = ClusterConfig {
        tick: Duration::from_millis(1),
        nak_delay: Duration::from_millis(10),
        ..ClusterConfig::default()
    };
    obs::set_enabled(true);
    for spec in ["", "seed=7,crash=1@1,rejoin=1@2"] {
        let plan = FaultPlan::parse(spec).unwrap();
        for engine in ["sim", "threaded"] {
            obs::reset();
            let stats = if engine == "sim" {
                let trainer = DistributedTrainer::new(params.clone(), cfg);
                trainer
                    .with_faults(plan.clone())
                    .train(&corpus, &vocab)
                    .stats
            } else {
                let trainer = ThreadedTrainer::new(params.clone(), cfg);
                let trainer = trainer
                    .with_faults(plan.clone())
                    .with_cluster_config(cluster);
                trainer.train(&corpus, &vocab).expect("threaded run").stats
            };
            let counters = obs::snapshot().counters;
            assert!(
                stats.rounds > 0 && stats.reduce_bytes > 0,
                "{engine} {spec:?}"
            );
            for (name, want) in [
                ("gluon.reduce_bytes", stats.reduce_bytes),
                ("gluon.broadcast_bytes", stats.broadcast_bytes),
                ("gluon.reduce_msgs", stats.reduce_msgs),
                ("gluon.broadcast_msgs", stats.broadcast_msgs),
                ("gluon.rounds", stats.rounds),
            ] {
                let got = counters.get(name).copied().unwrap_or(0);
                assert_eq!(got, want, "{engine} under {spec:?}: {name}");
            }
        }
    }
    obs::set_enabled(false);
    obs::reset();
}

/// The serve scan's counters read, never steer: a batch and a
/// one-at-a-time stream answered with metrics on serialise to the bytes
/// of the same requests with metrics off, and the counters and spans
/// reconcile with the scans they describe: `rows_scored` = resolved
/// queries × rows, a candidate is a scored row, the pools alone need
/// `k + POOL_SLACK` of them; on the coded scan a candidate is a code
/// survivor is a coded row, and a query's seeds are at most
/// `k + POOL_SLACK + 3` and at most its survivors; a batch's pack, scan
/// and rescore spans fit inside its `serve.batch` span, and a coded
/// scan's bounds, seeds and revisit spans inside its `serve.scan` span.
#[test]
fn metrics_do_not_perturb_serving() {
    use graph_word2vec::serve::query::{CODED_MAX_QUERIES, POOL_SLACK};
    use graph_word2vec::serve::{Query, QueryEngine, ShardedStore};
    use graph_word2vec::util::fvec::FlatMatrix;

    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (rows, dim, k) = (1500usize, 16usize, 10usize);
    let mut table = FlatMatrix::zeros(rows, dim);
    let mut s = 0x243F_6A88_85A3_08D3u64;
    for v in table.as_mut_slice() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
    let n = rows as u64;
    let vocab = Vocabulary::from_counts((0..rows).map(|i| (format!("w{i}"), n - i as u64)), 1);
    let mut batch: Vec<Query> = (0..32)
        .map(|i| match i % 5 {
            4 => Query::Analogy {
                a: format!("w{i}"),
                b: format!("w{}", i * 7),
                c: format!("w{}", i * 31),
            },
            _ => Query::Similar {
                word: format!("w{}", i * 13),
            },
        })
        .collect();
    batch.push(Query::Similar {
        word: "not-a-word".into(),
    });
    let serve = || -> String {
        let store = ShardedStore::from_matrix(&table, 3);
        let engine = QueryEngine::new(&store, &vocab);
        let mut out = String::new();
        for a in engine.answer_batch(&batch, k) {
            out.push_str(&a.json_line(&vocab));
            out.push('\n');
        }
        // `gw2v serve --batch 1`: every request is its own scan.
        for q in &batch {
            out.push_str(&engine.answer(q, k).json_line(&vocab));
            out.push('\n');
        }
        out
    };

    obs::set_enabled(false);
    obs::reset();
    let off = serve();
    assert!(
        obs::snapshot().counters.is_empty(),
        "disabled run must record nothing"
    );

    obs::set_enabled(true);
    obs::reset();
    let on = serve();
    let snap = obs::snapshot();
    let mut spans = obs::obs().trace.drain();
    spans.retain(|s| s.name != "serve.load");
    // One coded scan on its own.
    obs::reset();
    let store = ShardedStore::from_matrix(&table, 3);
    QueryEngine::new(&store, &vocab).answer(&batch[0], k);
    let single = obs::snapshot().counters;
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(
        off, on,
        "served bytes differ between metrics-off and metrics-on"
    );
    let resolved = 32 + 32;
    let scored = snap.counters["serve.rows_scored"];
    let candidates = snap.counters["serve.scan_candidates"];
    assert_eq!(scored, (resolved * rows) as u64);
    assert!(
        (resolved * (k + POOL_SLACK)) as u64 <= candidates && candidates < scored / 4,
        "{candidates} candidates of {scored} scored rows"
    );
    // The 32 singles and the batch of 32 resolved queries all took the
    // coded scan.
    const { assert!(CODED_MAX_QUERIES >= 32) };
    let coded = snap.counters["serve.coded_rows"];
    let survivors = snap.counters["serve.code_survivors"];
    assert_eq!(coded, scored);
    assert!(
        (resolved * (k + POOL_SLACK)) as u64 <= survivors && survivors < coded / 4,
        "{survivors} survivors of {coded} coded rows"
    );
    assert_eq!(single["serve.coded_rows"], rows as u64);
    assert!(
        single["serve.scan_candidates"] <= single["serve.code_survivors"]
            && single["serve.code_survivors"] <= single["serve.coded_rows"],
        "{single:?}"
    );
    let seeds = snap.counters["serve.code_seeds"];
    assert!(
        single["serve.code_seeds"] <= (k + POOL_SLACK + 3) as u64
            && single["serve.code_seeds"] <= single["serve.code_survivors"]
            && seeds <= (resolved * (k + POOL_SLACK + 3)) as u64
            && seeds <= survivors,
        "{seeds} seeds of {survivors} survivors, {single:?}"
    );
    assert_eq!(snap.counters["serve.oov"], 2);
    assert_eq!(
        snap.histograms["serve.rescore_ns"].count,
        1 + 33,
        "one per batch"
    );
    assert_eq!(
        snap.histograms["serve.shard_scan_ns"].count,
        (1 + 32) * 3,
        "one per batch with a resolved query × shard"
    );
    // In order of completion: pack, scan (after its bounds, seeds and
    // revisit passes, once per chunk of eight coded queries), rescore,
    // then their batch.
    let batches: Vec<&[obs::TraceEvent]> =
        spans.split_inclusive(|s| s.name == "serve.batch").collect();
    assert_eq!(batches.len(), 1 + 33);
    let passes = [
        "serve.scan.bounds",
        "serve.scan.seeds",
        "serve.scan.revisit",
    ];
    let mut chunks = 0;
    for batch in batches {
        let names: Vec<&str> = batch.iter().map(|s| s.name.as_str()).collect();
        let n = names.len();
        assert_eq!(names[0], "serve.pack", "{names:?}");
        assert_eq!(
            names[n - 3..],
            ["serve.scan", "serve.rescore", "serve.batch"]
        );
        let inner = &names[1..n - 3];
        assert!(
            inner.len().is_multiple_of(3) && inner.chunks(3).all(|c| c == passes),
            "{names:?}"
        );
        chunks += inner.len() / 3;
        let in_scan: f64 = batch[1..n - 3].iter().map(|s| s.wall_s).sum();
        assert!(in_scan <= batch[n - 3].wall_s, "{in_scan} s of {batch:?}");
        let children = batch[0].wall_s + batch[n - 3].wall_s + batch[n - 2].wall_s;
        assert!(children <= batch[n - 1].wall_s, "{children} s of {batch:?}");
    }
    assert_eq!(
        chunks,
        32 / 8 + 32,
        "the batch's four chunks, one per single"
    );
}
