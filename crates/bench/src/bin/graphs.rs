//! Graph-workload study (beyond the paper — ROADMAP item 5): DeepWalk
//! vs node2vec walk corpora on a planted-community SBM, trained with
//! the shared-memory HogBatch trainer and the distributed simulator,
//! scored by held-out link prediction.
//!
//! The pipeline is exactly the CLI's: SBM edge list → seeded holdout
//! split → biased walks → text corpus → trainer → link-pred AUC, so
//! the numbers in `results/graphs.json` are reproducible with
//! `gw2v corpus graph / corpus walks / train / eval linkpred` and the
//! same seeds.

use gw2v_bench::{epochs_from_env, obs_init, scale_from_env, write_json_run};
use gw2v_core::distributed::{DistConfig, DistributedTrainer};
use gw2v_core::model::Word2VecModel;
use gw2v_core::params::Hyperparams;
use gw2v_core::trainer_hogbatch::HogBatchTrainer;
use gw2v_corpus::datasets::Scale;
use gw2v_corpus::file::build_vocab_streaming;
use gw2v_corpus::graphs::{even_blocks, holdout_split, sample_negative_edges, sbm};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_corpus::walks::{generate_walks, WalkParams};
use gw2v_eval::linkpred::{evaluate_link_prediction, LinkScore};
use gw2v_util::table::{Align, Table};
use serde::Serialize;

#[derive(Serialize)]
struct GraphRow {
    walk_kind: String,
    trainer: String,
    auc: f64,
    mean_pos: f64,
    mean_neg: f64,
    n_pos: usize,
    n_neg: usize,
    walk_tokens: usize,
    train_secs: f64,
}

type TrainRun<'a> = Box<dyn Fn() -> Word2VecModel + 'a>;

fn train_corpus(walk_text: &str) -> (Vocabulary, Corpus) {
    let cfg = TokenizerConfig::default();
    let vocab =
        build_vocab_streaming(walk_text.as_bytes(), cfg.clone(), 1).expect("in-memory read");
    let corpus = Corpus::from_text(walk_text, &vocab, cfg);
    (vocab, corpus)
}

fn main() {
    obs_init();
    let scale = scale_from_env(Scale::Tiny);
    let epochs = epochs_from_env(6);
    let nodes = match scale {
        Scale::Tiny => 240,
        Scale::Small => 480,
        Scale::Medium => 960,
    };
    let blocks = 8;
    println!(
        "Graph study: SBM {nodes} nodes / {blocks} blocks (p_in 0.3, p_out 0.001), \
         holdout 0.2, {epochs} epochs\n"
    );
    let (graph, _) = sbm(&even_blocks(nodes, blocks), 0.3, 0.001, 42);
    let (train_graph, positives) = holdout_split(&graph, 0.2, 7);
    let negatives = sample_negative_edges(&graph, positives.len() * 2, 13);
    // Walk-corpus hyperparameter note: node frequencies are ~1/n, far
    // above the 1e-4 subsampling threshold, so subsample must be 0.
    let params = Hyperparams {
        dim: 32,
        window: 4,
        negative: 5,
        epochs,
        subsample: 0.0,
        seed: 3,
        ..Hyperparams::default()
    };

    let walk_kinds: [(&str, f64, f64); 2] = [("deepwalk", 1.0, 1.0), ("node2vec-q2", 1.0, 2.0)];
    let mut rows: Vec<GraphRow> = Vec::new();
    for (kind, p, q) in walk_kinds {
        let walks = generate_walks(
            &train_graph,
            &WalkParams {
                walks_per_node: 10,
                walk_length: 40,
                p,
                q,
                seed: 1,
            },
        );
        let (vocab, corpus) = train_corpus(&walks.text);
        let trainers: [(&str, TrainRun); 2] = [
            (
                "hogbatch-2t",
                Box::new(|| HogBatchTrainer::new(params.clone(), 2).train(&corpus, &vocab)),
            ),
            (
                "dist-3hosts",
                Box::new(|| {
                    DistributedTrainer::new(params.clone(), DistConfig::paper_default(3))
                        .train(&corpus, &vocab)
                        .model
                }),
            ),
        ];
        for (trainer, run) in trainers {
            eprintln!("[graphs] {kind} / {trainer} ...");
            let t0 = std::time::Instant::now();
            let model = run();
            let train_secs = t0.elapsed().as_secs_f64();
            let report =
                evaluate_link_prediction(&model, &vocab, &positives, &negatives, LinkScore::Cosine);
            rows.push(GraphRow {
                walk_kind: kind.into(),
                trainer: trainer.into(),
                auc: report.auc,
                mean_pos: report.mean_pos,
                mean_neg: report.mean_neg,
                n_pos: report.n_pos,
                n_neg: report.n_neg,
                walk_tokens: walks.n_tokens,
                train_secs,
            });
        }
    }
    let mut table = Table::new(vec![
        "walks", "trainer", "AUC", "pos mean", "neg mean", "train s",
    ])
    .with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        table.add_row(vec![
            r.walk_kind.clone(),
            r.trainer.clone(),
            format!("{:.4}", r.auc),
            format!("{:.3}", r.mean_pos),
            format!("{:.3}", r.mean_neg),
            format!("{:.1}", r.train_secs),
        ]);
    }
    println!("{}", table.render());
    write_json_run("graphs", scale, 42, &rows);
}
