//! Subcommand implementations.

use crate::args::{ArgError, Args};
use gw2v_combiner::CombinerKind;
use gw2v_core::checkpoint::Checkpoint;
use gw2v_core::distributed::{DistConfig, DistributedTrainer};
use gw2v_core::model::Word2VecModel;
use gw2v_core::params::Hyperparams;
use gw2v_core::trainer_batched::BatchedTrainer;
use gw2v_core::trainer_hogbatch::{HogBatchTrainer, SgnsMode};
use gw2v_core::trainer_hogwild::HogwildTrainer;
use gw2v_core::trainer_seq::SequentialTrainer;
use gw2v_core::trainer_threaded::ThreadedTrainer;
use gw2v_corpus::datasets::{DatasetPreset, Scale};
use gw2v_corpus::file::{build_vocab_from_path, write_corpus};
use gw2v_corpus::graphs::{
    self, even_blocks, holdout_split, load_edge_list, sample_negative_edges, save_edge_list,
};
use gw2v_corpus::phrases::{detect_phrases, PhraseConfig};
use gw2v_corpus::questions::{read_questions, write_questions};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_corpus::walks::{generate_walks, WalkParams};
use gw2v_eval::analogy::{evaluate_with, AnalogyMethod};
use gw2v_eval::knn::EmbeddingIndex;
use gw2v_eval::linkpred::{evaluate_link_prediction, LinkScore};
use gw2v_faults::{FaultPlan, OnPartition};
use gw2v_gluon::plan::SyncPlan;
use gw2v_gluon::wire::WireMode;
use gw2v_gluon::ClusterConfig;
use gw2v_serve::{Query, QueryEngine, ServeError, ShardedStore};
use gw2v_util::split::str_words;
use std::error::Error;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
gw2v — GraphWord2Vec command-line tool

USAGE:
  gw2v generate  --out corpus.txt [--dataset 1-billion|news|wiki]
                 [--scale tiny|small|medium] [--seed 42]
                 [--questions questions.txt]
  gw2v phrases   --input corpus.txt --out phrased.txt
                 [--threshold 100] [--discount 5]
  gw2v train     --input corpus.txt --out model.txt
                 [--trainer seq|hogwild|hogbatch|batched|dist|threaded]
                 [--hosts 8] [--sync-rounds N] [--dim 200] [--epochs 16]
                 [--negative 15] [--window 5] [--alpha 0.025]
                 [--combiner mc|avg|sum|mc-pairwise]
                 [--plan opt|naive|pull] [--wire id-value|delta|quant]
                 [--sgns per-pair|hogbatch] [--threads 4] [--seed 1]
                 [--min-count 1] [--subsample 1e-4]
                 [--fault-plan 'seed=7,drop=0.02,crash=1@3']
                 [--on-partition stall|degrade] [--max-stale-rounds 8]
                 [--nak-delay MS] [--max-retries N] [--barrier-timeout MS]
                 [--checkpoint-dir DIR] [--checkpoint-every 1] [--resume]
                 (--threads: hogwild|hogbatch; --hosts … --resume: dist|threaded;
                 --nak-delay … --barrier-timeout: threaded; others are errors)
  gw2v corpus graph --out graph.edges [--kind sbm|scale-free]
                 [--nodes 240] [--blocks 8] [--p-in 0.2] [--p-out 0.005]
                 [--attach 3] [--seed 42]
  gw2v corpus walks --edges graph.edges --out walks.txt
                 [--walks 10] [--length 40] [--p 1.0] [--q 1.0] [--seed 1]
                 [--holdout 0.0] [--holdout-seed 7]
  gw2v eval      --model model.txt --questions questions.txt
                 [--method cosadd|cosmul]
  gw2v eval linkpred --model model.txt --edges graph.edges --holdout 0.2
                 [--holdout-seed 7] [--negatives-per-edge 1]
                 [--score dot|cosine] [--seed 13] [--out report.json]
  gw2v neighbors --model model.txt --word WORD [--k 10]
  gw2v serve     (--model model.txt | --checkpoint DIR|FILE --vocab corpus.txt)
                 [--min-count 1] [--queries FILE] [--out FILE]
                 [--k 10] [--shards 8] [--batch 32]
  gw2v help

serve reads one query per line (`sim WORD` or `analogy A B C`; blank
lines and # comments ignored) from --queries or stdin and emits one JSON
result line per query to --out or stdout.

Graph workloads: `corpus walks --holdout F --holdout-seed S` removes a
seeded edge split before walk generation, and `eval linkpred` with the
same --edges/--holdout/--holdout-seed recomputes the identical split as
its positive test set. Walk corpora have near-uniform node frequencies,
so train them with --subsample 0.
";

type CmdResult = Result<(), Box<dyn Error>>;

/// `gw2v generate` — synthesize a corpus (and optionally its analogy
/// question file) to disk.
pub fn generate(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&["out", "dataset", "scale", "seed", "questions", "tokens"])?;
    let out = args.require("out")?;
    let dataset = args.get("dataset").unwrap_or("1-billion");
    let preset = DatasetPreset::by_name(dataset)
        .ok_or_else(|| ArgError(format!("unknown dataset {dataset:?}")))?;
    let scale = match args.get("scale") {
        None => Scale::Tiny,
        Some(s) => Scale::parse(s).ok_or_else(|| ArgError(format!("bad scale {s:?}")))?,
    };
    let seed: u64 = args.get_or("seed", 42)?;
    let synth = match args.get("tokens") {
        Some(t) => {
            let tokens: usize = t
                .parse()
                .map_err(|_| ArgError(format!("--tokens: cannot parse {t:?}")))?;
            gw2v_corpus::synth::SynthCorpus::generate(
                &preset.spec(scale, seed),
                tokens,
                scale.questions_per_category(),
            )
        }
        None => preset.generate(scale, seed),
    };
    write_corpus(out, &synth.text)?;
    println!(
        "wrote {} tokens ({} bytes) to {out}",
        synth.n_tokens,
        synth.size_bytes()
    );
    if let Some(qpath) = args.get("questions") {
        let mut w = BufWriter::new(File::create(qpath)?);
        write_questions(&synth.analogies, &mut w)?;
        println!(
            "wrote {} analogy questions ({} categories) to {qpath}",
            synth.analogies.total_questions(),
            synth.analogies.categories.len()
        );
    }
    Ok(())
}

/// `gw2v phrases` — word2phrase pass over a corpus file.
pub fn phrases(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&["input", "out", "threshold", "discount"])?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let config = PhraseConfig {
        threshold: args.get_or("threshold", 100.0)?,
        discount: args.get_or("discount", 5)?,
        separator: '_',
    };
    let text = std::fs::read_to_string(input)?;
    let sentences: Vec<Vec<String>> = text
        .lines()
        .map(|l| str_words(l).map(str::to_owned).collect())
        .collect();
    let joined = detect_phrases(&sentences, &config);
    let mut out_text = String::with_capacity(text.len());
    let mut n_phrases = 0usize;
    for s in &joined {
        out_text.push_str(&s.join(" "));
        out_text.push('\n');
        n_phrases += s.iter().filter(|w| w.contains('_')).count();
    }
    write_corpus(out, &out_text)?;
    println!("wrote {out} ({n_phrases} joined phrase tokens)");
    Ok(())
}

/// `gw2v corpus` — graph and walk-corpus utilities.
pub fn corpus(raw: &[String]) -> CmdResult {
    match raw.first().map(String::as_str) {
        Some("graph") => corpus_graph(&raw[1..]),
        Some("walks") => corpus_walks(&raw[1..]),
        _ => Err(ArgError("usage: gw2v corpus graph|walks … (run `gw2v help`)".into()).into()),
    }
}

/// `gw2v corpus graph` — write a synthetic graph as an edge list.
fn corpus_graph(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&[
        "out", "kind", "nodes", "blocks", "p-in", "p-out", "attach", "seed",
    ])?;
    let out = args.require("out")?;
    let nodes: usize = args.get_or("nodes", 240)?;
    if nodes == 0 {
        return Err(ArgError("--nodes must be at least 1".into()).into());
    }
    let seed: u64 = args.get_or("seed", 42)?;
    let graph = match args.get("kind").unwrap_or("sbm") {
        "sbm" => {
            let blocks: usize = args.get_or("blocks", 8)?;
            if blocks == 0 || blocks > nodes {
                let msg = format!("--blocks must be between 1 and --nodes ({nodes}), got {blocks}");
                return Err(ArgError(msg).into());
            }
            let p_in = probability_from(&args, "p-in", 0.2)?;
            let p_out = probability_from(&args, "p-out", 0.005)?;
            let (graph, _) = graphs::sbm(&even_blocks(nodes, blocks), p_in, p_out, seed);
            println!("sbm: {nodes} nodes in {blocks} blocks, p_in {p_in}, p_out {p_out}");
            graph
        }
        "scale-free" => {
            let attach: usize = args.get_or("attach", 3)?;
            if attach == 0 || nodes <= attach {
                let msg = format!(
                    "--attach must be at least 1 and below --nodes ({nodes}), got {attach}"
                );
                return Err(ArgError(msg).into());
            }
            let graph = graphs::scale_free(nodes, attach, seed);
            println!("scale-free: {nodes} nodes, {attach} edges per arrival");
            graph
        }
        other => return Err(ArgError(format!("unknown graph kind {other:?}")).into()),
    };
    save_edge_list(&graph, out)?;
    println!("wrote {} edges to {out}", graph.n_edges());
    Ok(())
}

/// A `--name` probability, in [0, 1].
fn probability_from(args: &Args, name: &str, default: f64) -> Result<f64, ArgError> {
    let p: f64 = args.get_or(name, default)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(ArgError(format!("--{name} must be in [0, 1], got {p}")))
    }
}

/// `--holdout`: the fraction of edges held out, in [0, 1).
fn holdout_fraction(frac: f64) -> Result<f64, ArgError> {
    if (0.0..1.0).contains(&frac) {
        Ok(frac)
    } else {
        Err(ArgError(format!("--holdout must be in [0, 1), got {frac}")))
    }
}

/// `gw2v corpus walks` — generate a node2vec walk corpus from an edge
/// list, optionally holding out a seeded edge split first (the same
/// split `eval linkpred` recomputes as its positive test set).
fn corpus_walks(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&[
        "edges",
        "out",
        "walks",
        "length",
        "p",
        "q",
        "seed",
        "holdout",
        "holdout-seed",
    ])?;
    let out = args.require("out")?;
    let holdout = holdout_fraction(args.get_or("holdout", 0.0)?)?;
    let params = WalkParams {
        walks_per_node: args.get_or("walks", 10)?,
        walk_length: args.get_or("length", 40)?,
        p: args.get_or("p", 1.0)?,
        q: args.get_or("q", 1.0)?,
        seed: args.get_or("seed", 1)?,
    };
    if params.walks_per_node == 0 {
        return Err(ArgError("--walks must be at least 1".into()).into());
    }
    if params.walk_length == 0 {
        return Err(ArgError("--length must be at least 1".into()).into());
    }
    for (name, v) in [("p", params.p), ("q", params.q)] {
        if v.is_nan() || v <= 0.0 {
            return Err(ArgError(format!("--{name} must be positive, got {v}")).into());
        }
    }
    let graph = load_edge_list(args.require("edges")?)?;
    let (train_graph, held) = if holdout > 0.0 {
        let holdout_seed: u64 = args.get_or("holdout-seed", 7)?;
        holdout_split(&graph, holdout, holdout_seed)
    } else {
        (graph.clone(), Vec::new())
    };
    let walk_corpus = generate_walks(&train_graph, &params);
    write_corpus(out, &walk_corpus.text)?;
    println!(
        "wrote {} walks ({} tokens) over {} nodes / {} edges to {out}{}",
        walk_corpus.n_walks,
        walk_corpus.n_tokens,
        train_graph.n_nodes(),
        train_graph.n_edges(),
        if held.is_empty() {
            String::new()
        } else {
            format!(" ({} edges held out)", held.len())
        }
    );
    Ok(())
}

/// `gw2v eval linkpred` — link-prediction AUC of a saved model against
/// a held-out edge split of an edge-list graph.
fn eval_linkpred(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&[
        "model",
        "edges",
        "holdout",
        "holdout-seed",
        "negatives-per-edge",
        "score",
        "seed",
        "out",
    ])?;
    let holdout: f64 = args
        .require("holdout")?
        .parse()
        .map_err(|_| ArgError("--holdout: cannot parse fraction".into()))?;
    let holdout = holdout_fraction(holdout)?;
    let ratio: usize = args.get_or("negatives-per-edge", 1)?;
    if ratio == 0 {
        return Err(ArgError("--negatives-per-edge must be at least 1".into()).into());
    }
    let (vocab, model) = load_model(args.require("model")?)?;
    let graph = load_edge_list(args.require("edges")?)?;
    let holdout_seed: u64 = args.get_or("holdout-seed", 7)?;
    let (_train, positives) = holdout_split(&graph, holdout, holdout_seed);
    if positives.is_empty() {
        let msg = format!("--holdout {holdout} holds out no edge: there is no positive to score");
        return Err(ArgError(msg).into());
    }
    let neg_seed: u64 = args.get_or("seed", 13)?;
    // Negatives are non-edges of the *full* graph, so a held-out true
    // edge can never be sampled as a negative.
    let negatives = sample_negative_edges(&graph, positives.len() * ratio, neg_seed);
    let score_name = args.get("score").unwrap_or("dot");
    let score = LinkScore::parse(score_name)
        .ok_or_else(|| ArgError(format!("unknown score {score_name:?}")))?;
    let report = evaluate_link_prediction(&model, &vocab, &positives, &negatives, score);
    println!(
        "link prediction: AUC {:.4}  ({} positives, {} negatives, {} skipped)",
        report.auc, report.n_pos, report.n_neg, report.skipped
    );
    println!(
        "mean score: positives {:.4}, negatives {:.4}",
        report.mean_pos, report.mean_neg
    );
    if let Some(dest) = args.get("out") {
        std::fs::write(dest, serde_json::to_string_pretty(&report)?)?;
        println!("[report written to {dest}]");
    }
    Ok(())
}

/// The training hyperparameters; a zero `--dim` or `--window` and an
/// `--alpha` that is not a positive number would train nothing (or NaN).
fn hyperparams_from(args: &Args) -> Result<Hyperparams, ArgError> {
    let params = Hyperparams {
        dim: args.get_or("dim", 200)?,
        window: args.get_or("window", 5)?,
        negative: args.get_or("negative", 15)?,
        alpha: args.get_or("alpha", 0.025)?,
        epochs: args.get_or("epochs", 16)?,
        subsample: args.get_or("subsample", 1e-4)?,
        min_count: args.get_or("min-count", 1)?,
        seed: args.get_or("seed", 1)?,
        ..Hyperparams::default()
    };
    for (flag, n) in [("dim", params.dim), ("window", params.window)] {
        if n == 0 {
            return Err(ArgError(format!("--{flag} must be at least 1")));
        }
    }
    if !(params.alpha.is_finite() && params.alpha > 0.0) {
        let msg = format!("--alpha must be a positive number, got {}", params.alpha);
        return Err(ArgError(msg));
    }
    Ok(params)
}

/// What only the cluster trainers (`dist`, `threaded`) read.
const CLUSTER_FLAGS: [&str; 12] = [
    "hosts",
    "sync-rounds",
    "plan",
    "wire",
    "combiner",
    "sgns",
    "fault-plan",
    "on-partition",
    "max-stale-rounds",
    "checkpoint-dir",
    "checkpoint-every",
    "resume",
];

/// What only the threaded transport reads: the simulator prices NAK
/// backoff at the transport's defaults.
const TRANSPORT_FLAGS: [&str; 3] = ["nak-delay", "max-retries", "barrier-timeout"];

/// A flag `trainer` never reads would do nothing: name it instead.
/// (`GW2V_FAULT_PLAN` stays a fallback the shared-memory trainers ignore.)
fn reject_unread(args: &Args, trainer: &str) -> Result<(), ArgError> {
    let unread: &[&[&str]] = match trainer {
        "seq" | "batched" => &[&CLUSTER_FLAGS, &TRANSPORT_FLAGS, &["threads"]],
        "hogwild" | "hogbatch" => &[&CLUSTER_FLAGS, &TRANSPORT_FLAGS],
        "dist" => &[&TRANSPORT_FLAGS, &["threads"]],
        "threaded" => &[&["threads"]],
        _ => &[],
    };
    match unread
        .iter()
        .flat_map(|flags| flags.iter())
        .find(|&&flag| args.get(flag).is_some() || args.flag(flag))
    {
        Some(flag) => Err(ArgError(format!(
            "--{flag} does nothing under --trainer {trainer}"
        ))),
        None => Ok(()),
    }
}

/// `--threads` for the racing trainers; zero workers train nothing.
fn threads_from(args: &Args) -> Result<usize, ArgError> {
    match args.get_or("threads", 4)? {
        0 => Err(ArgError("--threads must be at least 1".into())),
        n => Ok(n),
    }
}

fn dist_config_from(args: &Args) -> Result<DistConfig, ArgError> {
    let hosts: usize = args.get_or("hosts", 8)?;
    if hosts == 0 {
        return Err(ArgError("--hosts must be at least 1".into()));
    }
    let mut config = DistConfig::paper_default(hosts);
    config.sync_rounds = match args.get_or("sync-rounds", config.sync_rounds)? {
        0 => return Err(ArgError("--sync-rounds must be at least 1".into())),
        n => n,
    };
    if let Some(c) = args.get("combiner") {
        config.combiner =
            CombinerKind::parse(c).ok_or_else(|| ArgError(format!("bad combiner {c:?}")))?;
    }
    if let Some(p) = args.get("plan") {
        config.plan = SyncPlan::parse(p).ok_or_else(|| ArgError(format!("bad plan {p:?}")))?;
    }
    if let Some(w) = args.get("wire") {
        config.wire = WireMode::parse(w).ok_or_else(|| {
            ArgError(format!(
                "bad wire mode {w:?}: expected id-value, delta or quant"
            ))
        })?;
    }
    if let Some(s) = args.get("sgns") {
        config.sgns = match s {
            "per-pair" => SgnsMode::PerPair,
            "hogbatch" => SgnsMode::HogBatch,
            other => return Err(ArgError(format!("bad sgns mode {other:?}"))),
        };
    }
    if let Some(p) = args.get("on-partition") {
        config.on_partition = OnPartition::parse(p)
            .ok_or_else(|| ArgError(format!("bad on-partition policy {p:?}")))?;
    }
    config.max_stale_rounds = args.get_or("max-stale-rounds", config.max_stale_rounds)?;
    Ok(config)
}

/// Threaded-transport timing: the defaults, overridden by the CLI flags.
/// Durations are milliseconds.
fn cluster_config_from(args: &Args) -> Result<ClusterConfig, ArgError> {
    fn ms_flag(args: &Args, name: &str) -> Result<Option<std::time::Duration>, ArgError> {
        match args.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .and_then(|ms| std::time::Duration::try_from_secs_f64(ms / 1e3).ok())
                .map(Some)
                .ok_or_else(|| {
                    ArgError(format!(
                        "--{name}: expected a non-negative duration in ms, got {v:?}"
                    ))
                }),
        }
    }
    let mut cfg = ClusterConfig::default();
    if let Some(d) = ms_flag(args, "nak-delay")? {
        cfg.nak_delay = d;
    }
    if let Some(d) = ms_flag(args, "barrier-timeout")? {
        cfg.barrier_timeout = d;
    }
    cfg.max_retries = args.get_or("max-retries", cfg.max_retries)?;
    Ok(cfg)
}

/// `--fault-plan` wins; otherwise `GW2V_FAULT_PLAN` from the
/// environment; otherwise the inert plan. A plan the engines cannot run
/// on `config` for `epochs` epochs is an error naming where it came from.
fn fault_plan_from(args: &Args, config: &DistConfig, epochs: usize) -> Result<FaultPlan, ArgError> {
    let (source, parsed) = match args.get("fault-plan") {
        Some(spec) => ("--fault-plan", FaultPlan::parse(spec)),
        None => ("GW2V_FAULT_PLAN", FaultPlan::from_env()),
    };
    let plan = parsed.map_err(|e| ArgError(format!("{source}: {e}")))?;
    match unrunnable(&plan, config, epochs) {
        Some(why) => Err(ArgError(format!("{source}: {why}"))),
        None => Ok(plan),
    }
}

/// Why the engines cannot run `plan`, if they cannot: a directive names a
/// host past `--hosts` (the engines would silently ignore it), every
/// frame between two hosts is dropped or corrupted (they would give up
/// on the first), or the crashes leave no host alive at some round (they
/// would abort on it).
/// The schedule is replayed as the engines replay it, after the degrade
/// rewrite under `--on-partition degrade`: an epoch's rejoins come before
/// the crashes of its first round.
fn unrunnable(plan: &FaultPlan, config: &DistConfig, epochs: usize) -> Option<String> {
    let (n, rounds) = (config.n_hosts, config.sync_rounds);
    let grouped = plan
        .partitions
        .iter()
        .flat_map(|p| p.group_a.iter().chain(&p.group_b));
    let mut named = plan
        .crashes
        .iter()
        .map(|c| ("crash", c.host))
        .chain(plan.rejoins.iter().map(|r| ("rejoin", r.host)))
        .chain(plan.stragglers.iter().map(|s| ("straggle", s.host)))
        .chain(grouped.map(|&h| ("partition", h)));
    if let Some((directive, h)) = named.find(|&(_, h)| h >= n) {
        return Some(format!("{directive} names host {h}, but --hosts is {n}"));
    }
    // A coin lies in [0, 1), so a probability of 1 hits every attempt.
    let lossy = [("drop", plan.drop_p), ("flip", plan.flip_p)];
    if let Some((family, _)) = lossy.iter().find(|&&(_, p)| p >= 1.0 && n >= 2) {
        return Some(format!(
            "{family}=1 spoils every frame between the {n} hosts, so none ever arrives"
        ));
    }
    let plan = match config.on_partition {
        OnPartition::Degrade => plan.degrade_partitions(config.max_stale_rounds, rounds).0,
        OnPartition::Stall => plan.clone(),
    };
    let mut alive = vec![true; n];
    for epoch in 0..epochs {
        (0..n)
            .filter(|&h| plan.rejoin_epoch(h) == Some(epoch))
            .for_each(|h| alive[h] = true);
        for g in epoch * rounds..(epoch + 1) * rounds {
            (0..n)
                .filter(|&h| plan.crash_round(h) == Some(g))
                .for_each(|h| alive[h] = false);
            if !alive.contains(&true) {
                return Some(format!(
                    "no host is left alive at round {g} (epoch {epoch})"
                ));
            }
        }
    }
    None
}

/// `--checkpoint-every`: an interval of zero epochs never comes round.
fn checkpoint_every_from(args: &Args) -> Result<usize, ArgError> {
    match args.get_or("checkpoint-every", 1)? {
        0 => Err(ArgError("--checkpoint-every must be at least 1".into())),
        n => Ok(n),
    }
}

fn load_corpus(path: &str, min_count: u64) -> Result<(Vocabulary, Corpus), Box<dyn Error>> {
    let cfg = TokenizerConfig::default();
    let vocab = build_vocab_from_path(path, cfg.clone(), min_count)?;
    let text = std::fs::read_to_string(path)?;
    let corpus = Corpus::from_text(&text, &vocab, cfg);
    Ok((vocab, corpus))
}

/// `gw2v train` — train a model and save word2vec-format text vectors.
pub fn train(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &["resume"])?;
    args.check_known(&[
        "input",
        "out",
        "trainer",
        "hosts",
        "sync-rounds",
        "dim",
        "epochs",
        "negative",
        "window",
        "alpha",
        "combiner",
        "plan",
        "wire",
        "sgns",
        "threads",
        "seed",
        "min-count",
        "subsample",
        "fault-plan",
        "on-partition",
        "max-stale-rounds",
        "nak-delay",
        "max-retries",
        "barrier-timeout",
        "checkpoint-dir",
        "checkpoint-every",
        "resume",
    ])?;
    let trainer = args.get("trainer").unwrap_or("seq");
    reject_unread(&args, trainer)?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let params = hyperparams_from(&args)?;
    let (vocab, corpus) = load_corpus(input, params.min_count)?;
    if vocab.is_empty() {
        let msg = format!(
            "--min-count {}: no word of {input} occurs that often",
            params.min_count
        );
        return Err(ArgError(msg).into());
    }
    println!(
        "vocabulary {} words, corpus {} tokens",
        vocab.len(),
        corpus.total_tokens()
    );
    let t0 = std::time::Instant::now();
    let model = match trainer {
        "seq" => SequentialTrainer::new(params).train(&corpus, &vocab),
        "batched" => BatchedTrainer::new(params).train(&corpus, &vocab),
        "hogwild" => HogwildTrainer::new(params, threads_from(&args)?).train(&corpus, &vocab),
        "hogbatch" => HogBatchTrainer::new(params, threads_from(&args)?).train(&corpus, &vocab),
        "dist" | "threaded" => {
            let config = dist_config_from(&args)?;
            let faults = fault_plan_from(&args, &config, params.epochs)?;
            let resume = args.flag("resume");
            let checkpointing = match args.get("checkpoint-dir") {
                Some(dir) => Some((dir, checkpoint_every_from(&args)?)),
                None if resume => {
                    return Err(ArgError("--resume requires --checkpoint-dir".into()).into())
                }
                None => None,
            };
            // The trainers panic on an unusable directory or checkpoint
            // (a write failure only after an epoch has trained): check
            // both here, before any epoch trains.
            if let Some((dir, _)) = checkpointing {
                std::fs::create_dir_all(dir)
                    .map_err(|e| ArgError(format!("--checkpoint-dir {dir}: {e}")))?;
                if resume {
                    let fingerprint = Checkpoint::fingerprint_of(&params, &config);
                    Checkpoint::resume_point(Path::new(dir), fingerprint)
                        .map_err(|e| ArgError(format!("--resume from {dir}: {e}")))?;
                }
            }
            let result = if trainer == "dist" {
                let mut t = DistributedTrainer::new(params, config).with_faults(faults);
                if let Some((dir, every)) = checkpointing {
                    t = t.with_checkpointing(dir, every).with_resume(resume);
                }
                t.train(&corpus, &vocab)
            } else {
                let mut t = ThreadedTrainer::new(params, config)
                    .with_faults(faults)
                    .with_cluster_config(cluster_config_from(&args)?);
                if let Some((dir, every)) = checkpointing {
                    t = t.with_checkpointing(dir, every).with_resume(resume);
                }
                t.train(&corpus, &vocab)?
            };
            if let Some(epoch) = result.resumed_from {
                println!("resumed after epoch {epoch} checkpoint");
            }
            let volume = gw2v_util::table::fmt_bytes(result.stats.total_bytes());
            if trainer == "dist" {
                println!(
                    "distributed: virtual {:.1}s (compute {:.1}s, comm {:.2}s), volume {volume}",
                    result.virtual_time(),
                    result.compute_time,
                    result.comm_time,
                );
            } else {
                println!(
                    "threaded cluster: {} sync rounds, volume {volume}",
                    result.stats.rounds
                );
            }
            if result.killed {
                println!(
                    "run killed by fault plan after an epoch checkpoint; use --resume to continue"
                );
            }
            result.model
        }
        other => return Err(ArgError(format!("unknown trainer {other:?}")).into()),
    };
    println!("trained in {:.1}s wall", t0.elapsed().as_secs_f64());
    // With GW2V_METRICS=1 the trainers above recorded into the global
    // registry; show the run's instruments and export the trace.
    if gw2v_obs::enabled() {
        print!("\n{}", gw2v_obs::summary());
        if let Ok(dest) = std::env::var("GW2V_METRICS_OUT") {
            std::fs::write(&dest, serde_json::to_string_pretty(&gw2v_obs::snapshot())?)?;
            println!("[metrics snapshot written to {dest}]");
        }
        match gw2v_obs::flush_trace(None) {
            Ok(n) if n > 0 => {
                if let Ok(dest) = std::env::var("GW2V_TRACE_OUT") {
                    println!("[{n} trace events appended to {dest}]");
                }
            }
            Ok(_) => {}
            Err(e) => eprintln!("warning: cannot write trace: {e}"),
        }
    }
    let mut w = BufWriter::new(File::create(out)?);
    model.save_text(&vocab, &mut w)?;
    println!(
        "saved {} x {} vectors to {out}",
        model.n_words(),
        model.dim()
    );
    Ok(())
}

fn load_model(path: &str) -> Result<(Vocabulary, Word2VecModel), Box<dyn Error>> {
    let (words, model) = Word2VecModel::load_text(BufReader::new(File::open(path)?))?;
    // Rebuild a vocabulary with descending pseudo-counts so ids keep the
    // file order.
    let n = words.len() as u64;
    let vocab = Vocabulary::from_counts(
        words
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, n - i as u64)),
        1,
    );
    Ok((vocab, model))
}

/// `gw2v eval` — analogy accuracy of a saved model, or link-prediction
/// AUC via the `linkpred` subcommand.
pub fn eval(raw: &[String]) -> CmdResult {
    if raw.first().map(String::as_str) == Some("linkpred") {
        return eval_linkpred(&raw[1..]);
    }
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&["model", "questions", "method"])?;
    let (vocab, model) = load_model(args.require("model")?)?;
    let questions = read_questions(BufReader::new(File::open(args.require("questions")?)?))?;
    let method = match args.get("method").unwrap_or("cosadd") {
        "cosadd" => AnalogyMethod::CosAdd,
        "cosmul" => AnalogyMethod::CosMul,
        other => return Err(ArgError(format!("unknown method {other:?}")).into()),
    };
    let report = evaluate_with(&model, &vocab, &questions, method);
    for cat in &report.categories {
        println!(
            "{:<32} {:>6.2}%  ({}/{}, {} skipped)",
            cat.name,
            cat.accuracy(),
            cat.correct,
            cat.attempted,
            cat.skipped
        );
    }
    println!(
        "\nsemantic {:.2}%  syntactic {:.2}%  total {:.2}%",
        report.semantic(),
        report.syntactic(),
        report.total()
    );
    Ok(())
}

/// `gw2v neighbors` — nearest neighbours of a word.
pub fn neighbors(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&["model", "word", "k"])?;
    let (vocab, model) = load_model(args.require("model")?)?;
    let word = args.require("word")?;
    let k: usize = args.get_or("k", 10)?;
    let id = vocab
        .id_of(word)
        .ok_or_else(|| ArgError(format!("{word:?} not in model")))?;
    let index = EmbeddingIndex::new(&model);
    for (w, score) in index.nearest(index.vector(id), k, &[id]) {
        println!("{:<32} {score:.4}", vocab.word_of(w));
    }
    Ok(())
}

/// `gw2v serve` — load an embedding store and answer similarity/analogy
/// queries as JSON lines.
///
/// Two load paths: `--model model.txt` (word2vec text format, carries
/// its own words) or `--checkpoint DIR|FILE --vocab corpus.txt`, which
/// rebuilds the vocabulary exactly as `train` does so word ids align
/// with the checkpoint's embedding rows.
pub fn serve(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw.iter().cloned(), &[])?;
    args.check_known(&[
        "model",
        "checkpoint",
        "vocab",
        "min-count",
        "queries",
        "out",
        "k",
        "shards",
        "batch",
    ])?;
    let k: usize = args.get_or("k", 10)?;
    let n_shards: usize = args.get_or("shards", 8)?;
    let batch: usize = std::cmp::max(1, args.get_or("batch", 32)?);
    let (vocab, store) = match (args.get("model"), args.get("checkpoint")) {
        (Some(_), Some(_)) => {
            return Err(ArgError("--model and --checkpoint are mutually exclusive".into()).into())
        }
        (Some(m), None) => {
            let (vocab, model) = load_model(m)?;
            let store = ShardedStore::from_matrix(&model.syn0, n_shards);
            eprintln!(
                "serving {} x {} vectors from model {m} ({} shards)",
                store.len(),
                store.dim(),
                store.n_shards()
            );
            (vocab, store)
        }
        (None, Some(c)) => {
            let vpath = args.get("vocab").ok_or_else(|| {
                ArgError("--checkpoint needs --vocab CORPUS to name the rows".into())
            })?;
            let min_count: u64 = args.get_or("min-count", 1)?;
            let vocab = build_vocab_from_path(vpath, TokenizerConfig::default(), min_count)?;
            let (store, summary) = ShardedStore::load(Path::new(c), n_shards)?;
            if vocab.len() != store.len() {
                return Err(ServeError::VocabMismatch {
                    words: vocab.len(),
                    rows: store.len(),
                }
                .into());
            }
            eprintln!(
                "serving {} x {} vectors from checkpoint {c} (epoch {}, {} hosts, {} shards)",
                store.len(),
                store.dim(),
                summary.epoch,
                summary.n_hosts,
                store.n_shards()
            );
            (vocab, store)
        }
        (None, None) => return Err(ArgError("serve needs --model or --checkpoint".into()).into()),
    };
    let engine = QueryEngine::new(&store, &vocab);
    let reader: Box<dyn BufRead> = match args.get("queries") {
        Some(p) => Box::new(BufReader::new(File::open(p)?)),
        None => Box::new(BufReader::new(std::io::stdin())),
    };
    let mut writer: Box<dyn Write> = match args.get("out") {
        Some(p) => Box::new(BufWriter::new(File::create(p)?)),
        None => Box::new(BufWriter::new(std::io::stdout())),
    };
    let t0 = std::time::Instant::now();
    let mut pending: Vec<Query> = Vec::new();
    let mut served = 0usize;
    let flush =
        |pending: &mut Vec<Query>, writer: &mut dyn Write| -> Result<usize, Box<dyn Error>> {
            let n = pending.len();
            for answer in engine.answer_batch(pending, k) {
                writeln!(writer, "{}", answer.json_line(&vocab))?;
            }
            pending.clear();
            Ok(n)
        };
    for line in reader.lines() {
        match Query::parse(&line?) {
            Ok(Some(q)) => {
                pending.push(q);
                if pending.len() == batch {
                    served += flush(&mut pending, writer.as_mut())?;
                }
            }
            Ok(None) => {}
            Err(e) => {
                // Keep output order aligned with input order: answer
                // everything queued before reporting the bad line.
                served += flush(&mut pending, writer.as_mut())?;
                let mut msg = String::new();
                gw2v_serve::query::json_escape_into(&e, &mut msg);
                writeln!(writer, "{{\"error\":\"{msg}\"}}")?;
            }
        }
    }
    served += flush(&mut pending, writer.as_mut())?;
    writer.flush()?;
    eprintln!(
        "served {served} queries in {:.3}s",
        t0.elapsed().as_secs_f64()
    );
    if gw2v_obs::enabled() {
        eprint!("\n{}", gw2v_obs::summary());
        if let Ok(dest) = std::env::var("GW2V_METRICS_OUT") {
            std::fs::write(&dest, serde_json::to_string_pretty(&gw2v_obs::snapshot())?)?;
            eprintln!("[metrics snapshot written to {dest}]");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gw2v_cli_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn generate_train_eval_neighbors_pipeline() {
        let corpus = tmp("corpus.txt");
        let questions = tmp("questions.txt");
        let model = tmp("model.txt");
        generate(&s(&[
            "--out",
            &corpus,
            "--scale",
            "tiny",
            "--tokens",
            "30000",
            "--questions",
            &questions,
        ]))
        .expect("generate");
        assert!(std::fs::metadata(&corpus).unwrap().len() > 10_000);
        train(&s(&[
            "--input",
            &corpus,
            "--out",
            &model,
            "--trainer",
            "dist",
            "--hosts",
            "2",
            "--dim",
            "16",
            "--epochs",
            "1",
            "--negative",
            "3",
        ]))
        .expect("train");
        eval(&s(&["--model", &model, "--questions", &questions])).expect("eval");
        neighbors(&s(&["--model", &model, "--word", "bg0", "--k", "3"])).expect("neighbors");
        for f in [&corpus, &questions, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn phrases_pipeline() {
        let input = tmp("phr_in.txt");
        let out = tmp("phr_out.txt");
        let line = "the new york times reported\n";
        std::fs::write(&input, line.repeat(100)).unwrap();
        phrases(&s(&[
            "--input",
            &input,
            "--out",
            &out,
            "--threshold",
            "0.5",
            "--discount",
            "1",
        ]))
        .expect("phrases");
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains('_'), "{text}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn hogbatch_trainer_and_sgns_mode_pipeline() {
        let corpus = tmp("hb_corpus.txt");
        let model = tmp("hb_model.txt");
        generate(&s(&[
            "--out", &corpus, "--scale", "tiny", "--tokens", "20000",
        ]))
        .expect("generate");
        // Shared-memory HogBatch trainer.
        train(&s(&[
            "--input",
            &corpus,
            "--out",
            &model,
            "--trainer",
            "hogbatch",
            "--threads",
            "2",
            "--dim",
            "16",
            "--epochs",
            "1",
            "--negative",
            "3",
        ]))
        .expect("hogbatch train");
        // Distributed engine with the minibatch inner loop.
        train(&s(&[
            "--input",
            &corpus,
            "--out",
            &model,
            "--trainer",
            "dist",
            "--hosts",
            "2",
            "--sgns",
            "hogbatch",
            "--dim",
            "16",
            "--epochs",
            "1",
            "--negative",
            "3",
        ]))
        .expect("dist --sgns hogbatch train");
        // Bad mode is rejected up front.
        assert!(train(&s(&[
            "--input",
            &corpus,
            "--out",
            &model,
            "--trainer",
            "dist",
            "--sgns",
            "bogus",
        ]))
        .is_err());
        for f in [&corpus, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn unknown_options_rejected() {
        assert!(generate(&s(&["--out", "x", "--bogus", "1"])).is_err());
        assert!(train(&s(&["--input", "x", "--out", "y", "--nope", "1"])).is_err());
        assert!(serve(&s(&["--model", "x", "--nope", "1"])).is_err());
        assert!(corpus(&s(&["graph", "--out", "x", "--nope", "1"])).is_err());
        assert!(corpus(&s(&["walks", "--edges", "x", "--out", "y", "--nope", "1"])).is_err());
        assert!(eval(&s(&["linkpred", "--model", "x", "--nope", "1"])).is_err());
    }

    #[test]
    fn graph_walks_train_linkpred_pipeline() {
        let edges = tmp("graph.edges");
        let walks = tmp("walks.txt");
        let model = tmp("graph_model.txt");
        let report = tmp("linkpred.json");
        corpus(&s(&[
            "graph", "--out", &edges, "--kind", "sbm", "--nodes", "120", "--blocks", "4", "--p-in",
            "0.25", "--p-out", "0.01", "--seed", "42",
        ]))
        .expect("corpus graph");
        corpus(&s(&[
            "walks",
            "--edges",
            &edges,
            "--out",
            &walks,
            "--walks",
            "6",
            "--length",
            "20",
            "--seed",
            "1",
            "--holdout",
            "0.2",
            "--holdout-seed",
            "7",
        ]))
        .expect("corpus walks");
        // Walk generation is a pure function of (seed, graph, params).
        let first = std::fs::read_to_string(&walks).unwrap();
        corpus(&s(&[
            "walks",
            "--edges",
            &edges,
            "--out",
            &walks,
            "--walks",
            "6",
            "--length",
            "20",
            "--seed",
            "1",
            "--holdout",
            "0.2",
            "--holdout-seed",
            "7",
        ]))
        .expect("corpus walks again");
        assert_eq!(
            first,
            std::fs::read_to_string(&walks).unwrap(),
            "walk corpus must be byte-identical across runs"
        );
        train(&s(&[
            "--input",
            &walks,
            "--out",
            &model,
            "--trainer",
            "hogbatch",
            "--threads",
            "2",
            "--dim",
            "24",
            "--epochs",
            "3",
            "--negative",
            "4",
            "--window",
            "4",
            "--subsample",
            "0",
        ]))
        .expect("train on walks");
        eval(&s(&[
            "linkpred",
            "--model",
            &model,
            "--edges",
            &edges,
            "--holdout",
            "0.2",
            "--holdout-seed",
            "7",
            "--negatives-per-edge",
            "2",
            "--out",
            &report,
        ]))
        .expect("eval linkpred");
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let auc = parsed.field("auc").unwrap().as_f64().unwrap();
        assert!(
            auc > 0.7,
            "planted communities must be recoverable even at test scale: AUC {auc}"
        );
        assert_eq!(parsed.field("skipped").unwrap().as_u64().unwrap(), 0);
        // scale-free generation also round-trips through the loader.
        corpus(&s(&[
            "graph",
            "--out",
            &edges,
            "--kind",
            "scale-free",
            "--nodes",
            "80",
            "--attach",
            "2",
        ]))
        .expect("scale-free graph");
        corpus(&s(&[
            "walks", "--edges", &edges, "--out", &walks, "--walks", "2", "--length", "10",
        ]))
        .expect("walks over scale-free");
        for f in [&edges, &walks, &model, &report] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn graph_command_misuse_rejected() {
        let edges = tmp("misuse.edges");
        // Missing/unknown subcommands.
        assert!(corpus(&s(&[])).is_err());
        assert!(corpus(&s(&["prune"])).is_err());
        // Unknown graph kind.
        assert!(corpus(&s(&["graph", "--out", &edges, "--kind", "torus"])).is_err());
        // Malformed edge list surfaces the typed loader error.
        std::fs::write(&edges, "nodes 3\n0 x\n").unwrap();
        let err = corpus(&s(&["walks", "--edges", &edges, "--out", "/dev/null"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2"), "loader error names the line: {err}");
        // linkpred requires --holdout.
        assert!(eval(&s(&["linkpred", "--model", "x", "--edges", &edges])).is_err());
        // Unknown score function.
        std::fs::remove_file(&edges).ok();
    }

    #[test]
    fn partition_and_cluster_timing_flags_pipeline() {
        let corpus = tmp("part_corpus.txt");
        let model = tmp("part_model.txt");
        generate(&s(&[
            "--out", &corpus, "--scale", "tiny", "--tokens", "20000",
        ]))
        .expect("generate");
        let base = |trainer: &str| {
            s(&[
                "--input",
                &corpus,
                "--out",
                &model,
                "--trainer",
                trainer,
                "--hosts",
                "3",
                "--sync-rounds",
                "2",
                "--dim",
                "8",
                "--epochs",
                "2",
                "--negative",
                "2",
                "--fault-plan",
                "seed=5,partition=0.1|2@1..2,dup=0.05,reorder=0.1",
            ])
        };
        // Both engines run a partition plan under both policies.
        for trainer in ["dist", "threaded"] {
            for policy in ["stall", "degrade"] {
                let mut run = base(trainer);
                run.extend(s(&["--on-partition", policy]));
                if trainer == "threaded" {
                    // Exercise the timing knobs on the same run.
                    run.extend(s(&[
                        "--nak-delay",
                        "10",
                        "--barrier-timeout",
                        "500",
                        "--max-retries",
                        "100",
                    ]));
                }
                train(&run).unwrap_or_else(|e| panic!("{trainer}/{policy}: {e}"));
            }
        }
        // Misuse is rejected up front.
        let mut bad_policy = base("dist");
        bad_policy.extend(s(&["--on-partition", "panic"]));
        assert!(train(&bad_policy).is_err(), "unknown policy");
        let mut bad_delay = base("threaded");
        bad_delay.extend(s(&["--nak-delay", "soon"]));
        assert!(train(&bad_delay).is_err(), "unparseable --nak-delay");
        let mut bad_retries = base("threaded");
        bad_retries.extend(s(&["--max-retries", "-3"]));
        assert!(train(&bad_retries).is_err(), "unparseable --max-retries");
        let mut bad_directive = base("dist");
        let n = bad_directive.len();
        bad_directive[n - 1] = "seed=5,partitoin=0|1@1..2".into();
        assert!(train(&bad_directive).is_err(), "unknown plan directive");
        for f in [&corpus, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn serve_pipeline_model_and_checkpoint() {
        let corpus = tmp("serve_corpus.txt");
        let model = tmp("serve_model.txt");
        let ckdir = tmp("serve_ck");
        let queries = tmp("serve_queries.txt");
        let out = tmp("serve_out.jsonl");
        generate(&s(&[
            "--out", &corpus, "--scale", "tiny", "--tokens", "20000",
        ]))
        .expect("generate");
        train(&s(&[
            "--input",
            &corpus,
            "--out",
            &model,
            "--trainer",
            "dist",
            "--hosts",
            "2",
            "--dim",
            "16",
            "--epochs",
            "1",
            "--negative",
            "3",
            "--checkpoint-dir",
            &ckdir,
        ]))
        .expect("train");
        std::fs::write(
            &queries,
            "# a comment\n\nsim bg0\nanalogy bg0 bg1 bg2\nsim zz_not_a_word\nbogus line\n",
        )
        .unwrap();
        // Serve straight from the checkpoint directory, rebuilding the
        // vocabulary from the training corpus.
        serve(&s(&[
            "--checkpoint",
            &ckdir,
            "--vocab",
            &corpus,
            "--queries",
            &queries,
            "--out",
            &out,
            "--k",
            "3",
            "--shards",
            "4",
        ]))
        .expect("serve from checkpoint");
        let text = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one line per query: {text}");
        assert!(lines[0].starts_with("{\"kind\":\"sim\",\"words\":[\"bg0\"],\"hits\":["));
        assert!(lines[1].starts_with("{\"kind\":\"analogy\""));
        assert!(
            lines[2].contains("\"error\":\"unknown word"),
            "{}",
            lines[2]
        );
        assert!(lines[3].starts_with("{\"error\":"), "{}", lines[3]);
        assert_eq!(lines[0].matches("\"word\":").count(), 3, "k=3 hits");
        assert!(!lines[0].contains("\"word\":\"bg0\""), "self excluded");
        // The text-model path answers the same query shape.
        let out2 = tmp("serve_out2.jsonl");
        serve(&s(&[
            "--model",
            &model,
            "--queries",
            &queries,
            "--out",
            &out2,
            "--k",
            "3",
        ]))
        .expect("serve from model");
        assert_eq!(
            std::fs::read_to_string(&out2).unwrap().lines().count(),
            4,
            "model path serves the same queries"
        );
        // Misuse is rejected up front.
        assert!(
            serve(&s(&["--queries", &queries])).is_err(),
            "needs a source"
        );
        assert!(
            serve(&s(&[
                "--model",
                &model,
                "--checkpoint",
                &ckdir,
                "--vocab",
                &corpus
            ]))
            .is_err(),
            "sources are mutually exclusive"
        );
        assert!(
            serve(&s(&["--checkpoint", &ckdir])).is_err(),
            "checkpoint path needs --vocab"
        );
        std::fs::remove_dir_all(&ckdir).ok();
        for f in [&corpus, &model, &queries, &out, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn fault_and_checkpoint_flags_pipeline() {
        let corpus = tmp("chaos_corpus.txt");
        let model = tmp("chaos_model.txt");
        let ckdir = tmp("chaos_ck");
        generate(&s(&[
            "--out", &corpus, "--scale", "tiny", "--tokens", "20000",
        ]))
        .expect("generate");
        let base = |trainer: &str| {
            s(&[
                "--input",
                &corpus,
                "--out",
                &model,
                "--trainer",
                trainer,
                "--hosts",
                "2",
                "--sync-rounds",
                "2",
                "--dim",
                "8",
                "--epochs",
                "2",
                "--negative",
                "2",
            ])
        };
        // Kill after the first epoch's checkpoint, then resume to the end.
        let mut killed = base("dist");
        killed.extend(s(&["--fault-plan", "kill=0", "--checkpoint-dir", &ckdir]));
        train(&killed).expect("killed run");
        let mut resumed = base("dist");
        resumed.extend(s(&["--checkpoint-dir", &ckdir, "--resume"]));
        train(&resumed).expect("resumed run");
        // The threaded engine accepts a fault plan too.
        let mut threaded = base("threaded");
        threaded.extend(s(&["--fault-plan", "seed=3,drop=0.01"]));
        train(&threaded).expect("threaded chaos run");
        // The threaded engine honors checkpoint/resume flags: kill after
        // the first epoch's checkpoint, then resume to the end.
        let thr_ckdir = tmp("chaos_thr_ck");
        let mut thr_killed = base("threaded");
        thr_killed.extend(s(&[
            "--fault-plan",
            "kill=0",
            "--checkpoint-dir",
            &thr_ckdir,
        ]));
        train(&thr_killed).expect("threaded killed run");
        assert!(
            std::fs::read_dir(&thr_ckdir).unwrap().next().is_some(),
            "threaded --checkpoint-dir must produce a checkpoint file"
        );
        let mut thr_resumed = base("threaded");
        thr_resumed.extend(s(&["--checkpoint-dir", &thr_ckdir, "--resume"]));
        train(&thr_resumed).expect("threaded resumed run");
        // And the threaded engine runs PullModel now.
        let mut thr_pull = base("threaded");
        thr_pull.extend(s(&["--plan", "pull"]));
        train(&thr_pull).expect("threaded pull run");
        std::fs::remove_dir_all(&thr_ckdir).ok();
        // Misuse is rejected up front.
        let mut bare_resume = base("dist");
        bare_resume.push("--resume".into());
        assert!(
            train(&bare_resume).is_err(),
            "--resume needs --checkpoint-dir"
        );
        let mut thr_bare_resume = base("threaded");
        thr_bare_resume.push("--resume".into());
        assert!(
            train(&thr_bare_resume).is_err(),
            "--resume needs --checkpoint-dir on the threaded engine too"
        );
        let mut bad_plan = base("dist");
        bad_plan.extend(s(&["--fault-plan", "drop=2.0"]));
        assert!(train(&bad_plan).is_err(), "probabilities must be in [0,1]");
        std::fs::remove_dir_all(&ckdir).ok();
        for f in [&corpus, &model] {
            std::fs::remove_file(f).ok();
        }
    }
}
