//! The four workloads: seeded input generation, the timed lap, the
//! quality evaluation and the equivalent `gw2v` command lines.
//!
//! A lap calls the crates' public functions in the order `gw2v corpus
//! walks`, `gw2v train` and `gw2v serve` call them (crates/cli/src/
//! commands.rs), on the generated files only. The harness proves that
//! claim once per run by spawning the CLI with [`Spec::cli_commands`] and
//! comparing output bytes.

use crate::measure::{nearest_rank, usage, Tracer};
use gw2v_core::distributed::{DistConfig, DistributedTrainer};
use gw2v_core::model::Word2VecModel;
use gw2v_core::params::Hyperparams;
use gw2v_core::trainer_hogbatch::{HogBatchTrainer, SgnsMode};
use gw2v_core::trainer_threaded::ThreadedTrainer;
use gw2v_corpus::datasets::{DatasetPreset, Scale};
use gw2v_corpus::file::{build_vocab_from_path, write_corpus};
use gw2v_corpus::graphs::{
    even_blocks, holdout_split, load_edge_list, sample_negative_edges, save_edge_list, sbm,
};
use gw2v_corpus::questions::{read_questions, write_questions};
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::synth::{AnalogySet, SynthCorpus};
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_corpus::vocab::Vocabulary;
use gw2v_corpus::walks::{generate_walks, WalkParams};
use gw2v_eval::analogy::{evaluate_with, AnalogyMethod};
use gw2v_eval::linkpred::{evaluate_link_prediction, LinkScore};
use gw2v_gluon::volume::CommStats;
use gw2v_serve::{Query, QueryEngine, ShardedStore};
use gw2v_util::crc32::crc32;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

type Res<T> = Result<T, Box<dyn Error>>;

const DIM: usize = 64;
const NEGATIVE: usize = 5;
/// More than any category has distinct questions; generation caps it.
const ALL_QUESTIONS: usize = 1_000;
/// Graph workload: SBM shape and walk schedule (800 k walk tokens).
const GRAPH_NODES: usize = 4_000;
const GRAPH_BLOCKS: usize = 40;
const GRAPH_P_IN: f64 = 0.2;
const GRAPH_P_OUT: f64 = 0.0005;
const HOLDOUT: f64 = 0.2;
const HOLDOUT_SEED: u64 = 7;
const WALKS: WalkParams = WalkParams {
    walks_per_node: 10,
    walk_length: 20,
    p: 1.0,
    q: 1.0,
    seed: 1,
};
/// `gw2v eval linkpred` defaults: one negative per positive, seed 13.
const LINKPRED_NEG_SEED: u64 = 13;
/// Serve workload: store shape and the closed loop of one client.
const SERVE_ROWS: usize = 50_000;
const SERVE_CLUSTERS: usize = 500;
const SERVE_SHARDS: usize = 8;
const SERVE_K: usize = 10;
const SERVE_BATCH: usize = 32;
const SERVE_SINGLES: usize = 1_000;
const SERVE_BATCHES: usize = 32;
const SERVE_SAMPLED: usize = 64;
/// An answer may differ from the exact top-k only where f32 scoring and
/// the engine's 1e-6 score grid cannot tell two rows apart.
const RECALL_TIE_TOL: f64 = 2e-6;

/// Which trainer a train workload drives.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// `--trainer hogbatch --threads N`.
    HogBatch { threads: usize },
    /// `--trainer dist`: the single-thread simulator.
    Dist(DistConfig),
    /// `--trainer threaded`: real host threads and wire frames.
    Threaded(DistConfig),
}

/// A workload's fixed configuration.
#[derive(Clone, Debug)]
pub enum Spec {
    /// Read → vocab → encode → train → save, optionally preceded by the
    /// graph steps (edge-list load → holdout → walks → corpus write).
    Train {
        /// Training hyperparameters as `gw2v train` would build them.
        params: Hyperparams,
        /// Trainer.
        engine: Engine,
        /// Whether the corpus is a walk corpus the lap generates.
        graph: bool,
    },
    /// Model load → store build → closed query loop → answers written.
    Serve,
}

/// Names of the four workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["text-shm", "text-sim8", "graph-cluster2", "serve-mixed"];

impl Spec {
    /// The spec called `name`.
    pub fn by_name(name: &str) -> Option<Spec> {
        let train = |epochs, subsample, engine, graph| Spec::Train {
            params: Hyperparams {
                dim: DIM,
                negative: NEGATIVE,
                epochs,
                subsample,
                ..Hyperparams::default()
            },
            engine,
            graph,
        };
        match name {
            "text-shm" => Some(train(1, 1e-4, Engine::HogBatch { threads: 1 }, false)),
            "text-sim8" => Some(train(
                2,
                1e-4,
                Engine::Dist(DistConfig::paper_default(8)),
                false,
            )),
            "graph-cluster2" => {
                let mut cfg = DistConfig::paper_default(2);
                cfg.sync_rounds = 12;
                cfg.sgns = SgnsMode::HogBatch;
                // Walk corpora have near-uniform node frequencies, far
                // above the subsampling threshold: train them with 0.
                Some(train(2, 0.0, Engine::Threaded(cfg), true))
            }
            "serve-mixed" => Some(Spec::Serve),
            _ => None,
        }
    }

    /// Quality floor: a run whose quality is under it has failed.
    pub fn quality_floor(&self) -> f64 {
        match self {
            Spec::Train { graph: false, .. } => 0.80,
            Spec::Train { graph: true, .. } => 0.90,
            Spec::Serve => 1.0,
        }
    }

    /// Threads the program runs on (for `barrier_wait_frac`).
    pub fn hosts(&self) -> usize {
        match self {
            Spec::Train {
                engine: Engine::Dist(c) | Engine::Threaded(c),
                ..
            } => c.n_hosts,
            _ => 1,
        }
    }

    /// The `gw2v` invocations equivalent to one lap, and the file whose
    /// bytes must equal the lap's output.
    pub fn cli_commands(&self, p: &Paths) -> (Vec<Vec<String>>, PathBuf) {
        let s = |x: &Path| x.to_string_lossy().into_owned();
        let words = |ws: &[&str]| ws.iter().map(|w| (*w).to_owned()).collect::<Vec<String>>();
        let mut cmds: Vec<Vec<String>> = Vec::new();
        let out = p.dir.join("cli_output");
        match self {
            Spec::Serve => cmds.push(words(&[
                "serve",
                "--model",
                &s(&p.input),
                "--queries",
                &s(&p.aux),
                "--out",
                &s(&out),
                "--k",
                &SERVE_K.to_string(),
                "--shards",
                &SERVE_SHARDS.to_string(),
                "--batch",
                &SERVE_BATCH.to_string(),
            ])),
            Spec::Train {
                params,
                engine,
                graph,
            } => {
                let corpus = if *graph {
                    let walks = p.dir.join("cli_walks.txt");
                    cmds.push(words(&[
                        "corpus",
                        "walks",
                        "--edges",
                        &s(&p.input),
                        "--out",
                        &s(&walks),
                        "--walks",
                        &WALKS.walks_per_node.to_string(),
                        "--length",
                        &WALKS.walk_length.to_string(),
                        "--seed",
                        &WALKS.seed.to_string(),
                        "--holdout",
                        &HOLDOUT.to_string(),
                        "--holdout-seed",
                        &HOLDOUT_SEED.to_string(),
                    ]));
                    walks
                } else {
                    p.input.clone()
                };
                let mut train = words(&[
                    "train",
                    "--input",
                    &s(&corpus),
                    "--out",
                    &s(&out),
                    "--dim",
                    &params.dim.to_string(),
                    "--negative",
                    &params.negative.to_string(),
                    "--epochs",
                    &params.epochs.to_string(),
                    "--subsample",
                    &params.subsample.to_string(),
                ]);
                let mut flag = |k: &str, v: String| train.extend([k.to_owned(), v]);
                match engine {
                    Engine::HogBatch { threads } => {
                        flag("--trainer", "hogbatch".into());
                        flag("--threads", threads.to_string());
                    }
                    Engine::Dist(c) | Engine::Threaded(c) => {
                        let name = if matches!(engine, Engine::Dist(_)) {
                            "dist"
                        } else {
                            "threaded"
                        };
                        flag("--trainer", name.into());
                        flag("--hosts", c.n_hosts.to_string());
                        flag("--sync-rounds", c.sync_rounds.to_string());
                        let sgns = match c.sgns {
                            SgnsMode::PerPair => "per-pair",
                            SgnsMode::HogBatch => "hogbatch",
                        };
                        flag("--sgns", sgns.into());
                    }
                }
                cmds.push(train);
            }
        }
        (cmds, out)
    }
}

/// Files of one run, all inside its scratch directory.
#[derive(Clone, Debug)]
pub struct Paths {
    /// The run's scratch directory.
    pub dir: PathBuf,
    /// The generated input the program starts from: corpus text, edge
    /// list, or word2vec-text model.
    pub input: PathBuf,
    /// Second generated file: the query lines (serve), or the analogy
    /// questions the harness scores with (text; the program never reads
    /// them).
    pub aux: PathBuf,
    /// Exact answers of the sampled serve queries, for the harness.
    pub truth: PathBuf,
    /// Walk corpus the graph lap writes and then trains from.
    pub walks: PathBuf,
    /// The lap's output: saved model text or serialised answers.
    pub output: PathBuf,
}

impl Paths {
    /// The file layout of a run in `dir`.
    pub fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_owned(),
            input: dir.join("input.txt"),
            aux: dir.join("aux.txt"),
            truth: dir.join("truth.txt"),
            walks: dir.join("walks.txt"),
            output: dir.join("output.txt"),
        }
    }
}

/// What the harness judges a run's quality against.
pub enum Truth {
    /// Planted analogy questions of the synthetic corpus.
    Analogies(AnalogySet),
    /// Nothing kept: the link-prediction split is recomputed from the
    /// edge list, as `gw2v eval linkpred` does.
    Graph,
    /// Per sampled query: its index and every row id an exact top-k may
    /// contain.
    Serve(Vec<(usize, Vec<u32>)>),
}

/// Writes the workload's input files, a pure function of `seed`. Runs in
/// a process of its own (`gw2v-benchmark generate`), so the benchmark
/// process's heap and peak RSS hold the program's memory only.
pub fn write_inputs(spec: &Spec, seed: u64, paths: &Paths) -> Res<()> {
    match spec {
        Spec::Train { graph: false, .. } => {
            let preset = DatasetPreset::by_name("1-billion").expect("preset exists");
            // Every distinct question of every category, not the CLI's
            // sample of 30: analogy accuracy is the noisiest number here
            // and four times the questions halve its sampling error.
            let synth = SynthCorpus::generate(
                &preset.spec(Scale::Small, seed),
                preset.target_tokens(Scale::Small),
                ALL_QUESTIONS,
            );
            write_corpus(&paths.input, &synth.text)?;
            let mut w = BufWriter::new(File::create(&paths.aux)?);
            write_questions(&synth.analogies, &mut w)?;
            w.flush()?;
        }
        Spec::Train { graph: true, .. } => {
            let blocks = even_blocks(GRAPH_NODES, GRAPH_BLOCKS);
            let (graph, _) = sbm(&blocks, GRAPH_P_IN, GRAPH_P_OUT, seed);
            save_edge_list(&graph, &paths.input)?;
        }
        Spec::Serve => write_serve_inputs(seed, paths)?,
    }
    Ok(())
}

/// Reads back what [`write_inputs`] left for the harness.
pub fn load_truth(spec: &Spec, paths: &Paths) -> Res<Truth> {
    Ok(match spec {
        Spec::Train { graph: false, .. } => {
            Truth::Analogies(read_questions(BufReader::new(File::open(&paths.aux)?))?)
        }
        Spec::Train { graph: true, .. } => Truth::Graph,
        Spec::Serve => {
            let mut sampled = Vec::with_capacity(SERVE_SAMPLED);
            for line in std::fs::read_to_string(&paths.truth)?.lines() {
                let mut nums = line.split_whitespace().map(str::parse::<u32>);
                let qi = nums.next().ok_or("empty truth line")??;
                sampled.push((qi as usize, nums.collect::<Result<Vec<u32>, _>>()?));
            }
            Truth::Serve(sampled)
        }
    })
}

fn serve_word(id: usize) -> String {
    format!("w{id:05}")
}

/// The vocabulary `gw2v serve --model` rebuilds from a model file:
/// descending pseudo-counts keep ids in file order.
fn file_order_vocab(words: Vec<String>) -> Vocabulary {
    let n = words.len() as u64;
    Vocabulary::from_counts(
        words
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, n - i as u64)),
        1,
    )
}

fn write_serve_inputs(seed: u64, paths: &Paths) -> Res<()> {
    let root = SplitMix64::new(seed);
    let mut rng = Xoshiro256::new(root.derive(1));
    // Clustered rows, so the top-k of a query is a real neighbourhood and
    // not 50 000 near-ties.
    let mut centres = FlatMatrix::zeros(SERVE_CLUSTERS, DIM);
    for v in centres.as_mut_slice() {
        *v = rng.next_f32() - 0.5;
    }
    let mut table = FlatMatrix::zeros(SERVE_ROWS, DIM);
    for r in 0..SERVE_ROWS {
        let c = (rng.next_u64() % SERVE_CLUSTERS as u64) as usize;
        for (v, centre) in table.row_mut(r).iter_mut().zip(centres.row(c)) {
            *v = centre + 0.6 * (rng.next_f32() - 0.5);
        }
    }
    let vocab = file_order_vocab((0..SERVE_ROWS).map(serve_word).collect());
    let model = Word2VecModel::from_layers(table, FlatMatrix::zeros(SERVE_ROWS, DIM));
    let mut w = BufWriter::new(File::create(&paths.input)?);
    model.save_text(&vocab, &mut w)?;
    w.flush()?;
    let table = &model.syn0;

    let mut rng = Xoshiro256::new(root.derive(2));
    let mut pick = || (rng.next_u64() % SERVE_ROWS as u64) as usize;
    let n_queries = SERVE_SINGLES + SERVE_BATCHES * SERVE_BATCH;
    let stride = n_queries / SERVE_SAMPLED;
    let (mut lines, mut truth) = (String::new(), String::new());
    for qi in 0..n_queries {
        // 80 % sim, 20 % analogy.
        let ids: Vec<usize> = if qi % 5 == 4 {
            vec![pick(), pick(), pick()]
        } else {
            vec![pick()]
        };
        let words: Vec<String> = ids.iter().map(|&id| serve_word(id)).collect();
        let verb = if ids.len() == 1 { "sim" } else { "analogy" };
        lines.push_str(&format!("{verb} {}\n", words.join(" ")));
        if qi % stride == 0 && qi / stride < SERVE_SAMPLED {
            truth.push_str(&qi.to_string());
            for id in exact_top_k(table, &ids) {
                truth.push_str(&format!(" {id}"));
            }
            truth.push('\n');
        }
    }
    std::fs::write(&paths.aux, lines)?;
    std::fs::write(&paths.truth, truth)?;
    Ok(())
}

fn unit_f64(row: &[f32]) -> Vec<f64> {
    let norm = row
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt();
    row.iter().map(|&x| f64::from(x) / norm).collect()
}

/// Brute-force f64 scan for `sim w` (one id) or `analogy a b c` (3CosAdd
/// over unit vectors): every row whose exact cosine reaches the k-th best
/// (within [`RECALL_TIE_TOL`]), the query's own words excluded.
fn exact_top_k(table: &FlatMatrix, ids: &[usize]) -> Vec<u32> {
    let q: Vec<f64> = match ids {
        [w] => unit_f64(table.row(*w)),
        [a, b, c] => {
            let (ua, ub, uc) = (
                unit_f64(table.row(*a)),
                unit_f64(table.row(*b)),
                unit_f64(table.row(*c)),
            );
            (0..table.dim()).map(|i| ub[i] - ua[i] + uc[i]).collect()
        }
        _ => unreachable!("one or three words"),
    };
    let q_norm = q.iter().map(|x| x * x).sum::<f64>().sqrt();
    let mut scored: Vec<(f64, u32)> = (0..table.rows())
        .filter(|r| !ids.contains(r))
        .map(|r| {
            let row = table.row(r);
            let (mut dot, mut nn) = (0.0f64, 0.0f64);
            for (a, &b) in q.iter().zip(row) {
                dot += a * f64::from(b);
                nn += f64::from(b) * f64::from(b);
            }
            (dot / (q_norm * nn.sqrt()), r as u32)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let kth = scored[SERVE_K - 1].0;
    scored
        .into_iter()
        .take_while(|(score, _)| *score >= kth - RECALL_TIE_TOL)
        .map(|(_, id)| id)
        .collect()
}

/// One lap's measurements.
#[derive(Clone, Debug, Default)]
pub struct Lap {
    /// Lap start until the first training step or query can run.
    pub setup_s: f64,
    /// The train call, or the query loop.
    pub work_s: f64,
    /// Whole lap, set-up through output written.
    pub run_s: f64,
    /// User + system CPU over all threads.
    pub cpu_s: f64,
    /// Corpus words × epochs, or queries answered.
    pub units: f64,
    /// CRC-32 of the output file.
    pub fingerprint: u32,
    /// Operations the lap attempted and failed (queries; 0 for train).
    pub queries: u64,
    /// Queries answered with an error or, if sampled, outside the exact top-k.
    pub failed_queries: u64,
    /// p99 of the single-query latencies in ms (serve).
    pub latency_p99_ms: f64,
    /// Wire accounting (distributed engines).
    pub stats: Option<CommStats>,
    /// Positive pairs trained (distributed engines report it).
    pub pairs: u64,
    /// Simulator's virtual compute and communication seconds.
    pub virtual_s: (f64, f64),
    /// Sentences in the encoded corpus × epochs.
    pub sentence_steps: f64,
    /// Bytes of the output file.
    pub output_bytes: u64,
    /// Bytes of the model file loaded (serve).
    pub input_bytes: u64,
}

/// What a train lap leaves behind for the quality evaluation and probes.
pub struct Trained {
    /// The trained model.
    pub model: Word2VecModel,
    /// Its vocabulary.
    pub vocab: Vocabulary,
}

/// Runs one lap. Spans are recorded when `tr` is on.
pub fn lap(spec: &Spec, p: &Paths, truth: &Truth, tr: &mut Tracer) -> Res<(Lap, Option<Trained>)> {
    let cpu0 = usage().cpu_s;
    let t0 = Instant::now();
    let (mut lap, trained) = match spec {
        Spec::Train {
            params,
            engine,
            graph,
        } => {
            let (lap, trained) = train_lap(params, engine, *graph, p, tr, t0)?;
            (lap, Some(trained))
        }
        Spec::Serve => {
            let Truth::Serve(sampled) = truth else {
                unreachable!("serve workload carries serve truth")
            };
            (serve_lap(p, sampled, tr, t0)?, None)
        }
    };
    lap.run_s = t0.elapsed().as_secs_f64();
    lap.cpu_s = usage().cpu_s - cpu0;
    let output = std::fs::read(&p.output)?;
    lap.fingerprint = crc32(&output);
    lap.output_bytes = output.len() as u64;
    Ok((lap, trained))
}

fn train_lap(
    params: &Hyperparams,
    engine: &Engine,
    graph: bool,
    p: &Paths,
    tr: &mut Tracer,
    t0: Instant,
) -> Res<(Lap, Trained)> {
    let mut lap = Lap::default();
    // `gw2v corpus walks`.
    let corpus_path = if graph {
        let s = tr.begin("corpus.edge_list_load");
        let full = load_edge_list(&p.input)?;
        tr.end(s);
        let s = tr.begin("corpus.holdout_split");
        let (train_graph, _held) = holdout_split(&full, HOLDOUT, HOLDOUT_SEED);
        tr.end(s);
        let s = tr.begin("corpus.walks");
        let walks = generate_walks(&train_graph, &WALKS);
        tr.end(s);
        let s = tr.begin("corpus.walks_write");
        write_corpus(&p.walks, &walks.text)?;
        tr.end(s);
        &p.walks
    } else {
        &p.input
    };
    // `gw2v train`: load_corpus.
    let cfg = TokenizerConfig::default();
    let s = tr.begin("corpus.vocab");
    let vocab = build_vocab_from_path(corpus_path, cfg.clone(), params.min_count)?;
    tr.end(s);
    let s = tr.begin("corpus.read");
    let text = std::fs::read_to_string(corpus_path)?;
    tr.end(s);
    let s = tr.begin("corpus.encode");
    let corpus = Corpus::from_text(&text, &vocab, cfg);
    tr.end(s);
    lap.setup_s = t0.elapsed().as_secs_f64();
    lap.units = (corpus.total_tokens() * params.epochs) as f64;
    lap.sentence_steps = (corpus.len() * params.epochs) as f64;

    let t_train = Instant::now();
    let s = tr.begin("core.train");
    let model = match engine {
        Engine::HogBatch { threads } => {
            HogBatchTrainer::new(params.clone(), *threads).train(&corpus, &vocab)
        }
        Engine::Dist(config) => {
            let r = DistributedTrainer::new(params.clone(), *config).train(&corpus, &vocab);
            lap.stats = Some(r.stats);
            lap.pairs = r.pairs_trained;
            lap.virtual_s = (r.compute_time, r.comm_time);
            r.model
        }
        Engine::Threaded(config) => {
            let r = ThreadedTrainer::new(params.clone(), *config).train(&corpus, &vocab)?;
            lap.stats = Some(r.stats);
            lap.pairs = r.pairs_trained;
            r.model
        }
    };
    tr.end(s);
    lap.work_s = t_train.elapsed().as_secs_f64();

    let s = tr.begin("core.save_text");
    let mut w = BufWriter::new(File::create(&p.output)?);
    model.save_text(&vocab, &mut w)?;
    w.flush()?;
    tr.end(s);
    Ok((lap, Trained { model, vocab }))
}

fn serve_lap(p: &Paths, sampled: &[(usize, Vec<u32>)], tr: &mut Tracer, t0: Instant) -> Res<Lap> {
    let mut lap = Lap::default();
    // `gw2v serve --model`: load_model, store, engine.
    let s = tr.begin("core.load_text");
    let (words, model) = Word2VecModel::load_text(BufReader::new(File::open(&p.input)?))?;
    let vocab = file_order_vocab(words);
    tr.end(s);
    let s = tr.begin("serve.store_build");
    let store = ShardedStore::from_matrix(&model.syn0, SERVE_SHARDS);
    let engine = QueryEngine::new(&store, &vocab);
    tr.end(s);
    let query_text = std::fs::read_to_string(&p.aux)?;
    let lines: Vec<&str> = query_text.lines().collect();
    lap.setup_s = t0.elapsed().as_secs_f64();
    lap.input_bytes = std::fs::metadata(&p.input)?.len();

    let parse =
        |line: &str| -> Res<Query> { Query::parse(line)?.ok_or_else(|| "blank query line".into()) };
    let mut out = String::with_capacity(lines.len() * 512);
    let mut answers = Vec::with_capacity(lines.len());
    let mut latencies = Vec::with_capacity(SERVE_SINGLES);
    let t_loop = Instant::now();
    // One client, closed loop: single requests, then batched ones.
    for line in &lines[..SERVE_SINGLES] {
        let t_q = Instant::now();
        let s = tr.begin("serve.parse");
        let q = parse(line)?;
        tr.end(s);
        let s = tr.begin("serve.answer_single");
        let a = engine.answer(&q, SERVE_K);
        tr.end(s);
        let s = tr.begin("serve.json");
        out.push_str(&a.json_line(&vocab));
        out.push('\n');
        tr.end(s);
        latencies.push(t_q.elapsed().as_secs_f64());
        answers.push(a);
    }
    for chunk in lines[SERVE_SINGLES..].chunks(SERVE_BATCH) {
        let s = tr.begin("serve.parse");
        let batch = chunk
            .iter()
            .map(|l| parse(l))
            .collect::<Res<Vec<Query>>>()?;
        tr.end(s);
        let s = tr.begin("serve.answer_batch");
        let batch_answers = engine.answer_batch(&batch, SERVE_K);
        tr.end(s);
        let s = tr.begin("serve.json");
        for a in &batch_answers {
            out.push_str(&a.json_line(&vocab));
            out.push('\n');
        }
        tr.end(s);
        answers.extend(batch_answers);
    }
    lap.work_s = t_loop.elapsed().as_secs_f64();
    std::fs::write(&p.output, &out)?;

    lap.units = answers.len() as f64;
    lap.queries = answers.len() as u64;
    lap.failed_queries = answers.iter().filter(|a| a.hits.is_err()).count() as u64;
    for (qi, top_k) in sampled {
        if let Ok(hits) = &answers[*qi].hits {
            if hits.len() != SERVE_K || hits.iter().any(|h| !top_k.contains(&h.id)) {
                lap.failed_queries += 1;
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    lap.latency_p99_ms = nearest_rank(&latencies, 0.99) * 1e3;
    Ok(lap)
}

/// Quality of a run, from the warm-up lap's output: analogy accuracy,
/// link-prediction AUC, or recall@k of the sampled queries. Returns the
/// score in `[0, 1]` and the seconds the evaluation took.
pub fn quality(
    spec: &Spec,
    p: &Paths,
    truth: &Truth,
    lap: &Lap,
    trained: Option<&Trained>,
) -> Res<(f64, f64)> {
    let t = Instant::now();
    let score = match (spec, truth) {
        (Spec::Serve, _) => {
            // Every sampled answer inside the exact top-k ⇔ recall 1.0;
            // each miss is a failed query.
            let missed = lap.failed_queries.min(SERVE_SAMPLED as u64);
            1.0 - missed as f64 / SERVE_SAMPLED as f64
        }
        (_, Truth::Analogies(set)) => {
            let t = trained.expect("train lap returns its model");
            evaluate_with(&t.model, &t.vocab, set, AnalogyMethod::CosAdd).total() / 100.0
        }
        (_, Truth::Graph) => {
            let t = trained.expect("train lap returns its model");
            let graph = load_edge_list(&p.input)?;
            let (_, positives) = holdout_split(&graph, HOLDOUT, HOLDOUT_SEED);
            let negatives = sample_negative_edges(&graph, positives.len(), LINKPRED_NEG_SEED);
            evaluate_link_prediction(
                &t.model,
                &t.vocab,
                &positives,
                &negatives,
                LinkScore::Cosine,
            )
            .auc
        }
        (Spec::Train { .. }, Truth::Serve(_)) => unreachable!("train workload with serve truth"),
    };
    Ok((score, t.elapsed().as_secs_f64()))
}

/// Runs the equivalent `gw2v` command lines and reports whether the
/// CLI's output file equals the lap's byte for byte.
pub fn cli_output_matches(spec: &Spec, p: &Paths, gw2v: &Path) -> Res<bool> {
    let (cmds, cli_out) = spec.cli_commands(p);
    for args in &cmds {
        let done = std::process::Command::new(gw2v)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", gw2v.display()))?;
        if !done.success() {
            return Err(format!("gw2v {} exited with {done}", args.join(" ")).into());
        }
    }
    Ok(std::fs::read(&cli_out)? == std::fs::read(&p.output)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_spec() {
        for name in NAMES {
            assert!(Spec::by_name(name).is_some(), "{name}");
        }
        assert!(Spec::by_name("nope").is_none());
    }

    #[test]
    fn exact_scan_excludes_the_query_words() {
        // Row r leans further from row 0 as r grows: no two cosines tie.
        let mut table = FlatMatrix::zeros(14, 4);
        for r in 0..14 {
            table
                .row_mut(r)
                .copy_from_slice(&[1.0, r as f32 * 0.1, 0.0, 0.0]);
        }
        let top = exact_top_k(&table, &[0]);
        assert_eq!(top, (1..=SERVE_K as u32).collect::<Vec<_>>());
        // An analogy excludes all three of its words.
        let top = exact_top_k(&table, &[1, 2, 3]);
        assert_eq!(top.len(), SERVE_K);
        assert!(top.iter().all(|id| ![1, 2, 3].contains(id)));
    }

    #[test]
    fn cli_commands_follow_the_spec() {
        let dir = PathBuf::from("/x");
        let p = Paths::new(&dir);
        let (cmds, out) = Spec::by_name("graph-cluster2").unwrap().cli_commands(&p);
        assert_eq!(out, dir.join("cli_output"));
        assert_eq!(cmds.len(), 2);
        assert_eq!(&cmds[0][..2], ["corpus", "walks"]);
        let train = cmds[1].join(" ");
        for want in [
            "--trainer threaded",
            "--hosts 2",
            "--sync-rounds 12",
            "--sgns hogbatch",
            "--subsample 0",
            "--epochs 2",
            "--input /x/cli_walks.txt",
        ] {
            assert!(train.contains(want), "{train} lacks {want}");
        }
        let (cmds, _) = Spec::by_name("text-shm").unwrap().cli_commands(&p);
        assert!(cmds[0].join(" ").contains("--trainer hogbatch --threads 1"));
    }
}
