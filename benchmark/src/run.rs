//! One benchmark run: generate inputs, warm up, check the output against
//! the `gw2v` CLI, run identical laps for the measuring window, reduce
//! every timing series to its best-quartile mean, and print the record.

use crate::measure::{
    best_quartile, box_scale, lap_spread, nearest_rank, quiet_laps, reset_peak_rss, usage,
    Reference, Tracer,
};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes;
use crate::workloads::{
    cli_output_matches, lap, load_truth, quality, Engine, Lap, Paths, Spec, Trained,
};
use gw2v_core::model::Word2VecModel;
use gw2v_core::trainer_hogbatch::{HogBatchTrainer, SgnsMode};
use gw2v_core::trainer_seq::SequentialTrainer;
use gw2v_corpus::file::build_vocab_from_path;
use gw2v_corpus::shard::Corpus;
use gw2v_corpus::tokenizer::TokenizerConfig;
use gw2v_gluon::wire::entry_bytes;
use gw2v_obs::TraceEvent;
use serde::Value;
use std::collections::BTreeMap;
use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

type Res<T> = Result<T, Box<dyn Error>>;

/// Laps a series needs before its best quartile means anything.
const MIN_LAPS: usize = 8;
/// A run stops measuring here even if it is short of laps, so a stalled
/// box cannot push it past the driver's 180 s limit.
const HARD_STOP_SECS: f64 = 100.0;
/// Repetitions of the comparison trainers of the traced run.
const COMPARISON_REPS: usize = 3;

/// Arguments of `gw2v-benchmark run`.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// File the full record is appended to (default: under the build
    /// directory).
    pub record: Option<PathBuf>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn floats(series: &[f64]) -> Value {
    Value::Seq(series.iter().map(|&x| Value::Float(x)).collect())
}

/// Runs one benchmark and prints its result; `Ok` even when the result
/// says `correct: false`.
pub fn run(args: &RunArgs) -> Res<()> {
    if gw2v_util::simd::force_scalar() {
        return Err(
            "GW2V_FORCE_SCALAR is set: the benchmark measures the dispatched kernels \
                    the shipped binary runs; unset it"
                .into(),
        );
    }
    let spec = Spec::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let exe = std::env::current_exe()?;
    let release_dir = exe.parent().ok_or("benchmark binary has no directory")?;
    let gw2v = release_dir.join("gw2v");
    if !gw2v.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p gw2v-cli` into the same \
             target directory (benchmark/run.sh does)",
            gw2v.display()
        )
        .into());
    }
    let bench_dir = release_dir
        .parent()
        .ok_or("release directory has no parent")?
        .join("gw2v-bench");
    let work = bench_dir.join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work)?;
    let outcome = run_in(args, &spec, &gw2v, &bench_dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

struct Measured {
    lap: Lap,
    traced: bool,
    /// `gw2v_obs` trace events the lap emitted (traced laps only).
    events: Vec<TraceEvent>,
}

fn run_in(args: &RunArgs, spec: &Spec, gw2v: &Path, bench_dir: &Path, work: &Path) -> Res<()> {
    // Inputs come from a process of their own, so this one's heap and
    // peak RSS hold only what the laps allocate.
    let t = Instant::now();
    let paths = Paths::new(work);
    let generated = std::process::Command::new(std::env::current_exe()?)
        .args(["generate", "--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string())
        .arg("--dir")
        .arg(work)
        .status()?;
    if !generated.success() {
        return Err(format!("input generation exited with {generated}").into());
    }
    let truth = load_truth(spec, &paths)?;
    let inputs_s = t.elapsed().as_secs_f64();

    gw2v_obs::set_enabled(false);
    gw2v_obs::reset();
    let mut tracer = Tracer::new();
    // Warm-up lap: fills the page cache and the allocator, and is the
    // reference every measured lap's output is compared against.
    let (base, trained) = lap(spec, &paths, &truth, &mut tracer)?;
    let (quality_score, eval_s) = quality(spec, &paths, &truth, &base, trained.as_ref())?;
    let cli_identical = cli_output_matches(spec, &paths, gw2v)?;
    if !cli_identical {
        eprintln!("gw2v CLI output differs from the in-process lap's");
    }

    reset_peak_rss();
    // The reference kernels run between laps, so they see the box as the
    // laps do.
    let mut reference = Reference::new();
    let mut calib: Vec<(f64, f64)> = vec![reference.time()];
    let mut laps: Vec<Measured> = Vec::new();
    let mut errored = 0u64;
    let window = Instant::now();
    loop {
        let index = laps.len() as u64 + errored + 1;
        let traced = args.trace && index.is_multiple_of(2);
        tracer.start_lap(index as u32, traced);
        gw2v_obs::set_enabled(traced);
        let result = lap(spec, &paths, &truth, &mut tracer);
        gw2v_obs::set_enabled(false);
        let events = gw2v_obs::obs().trace.drain();
        calib.push(reference.time());
        match result {
            Ok((lap, _)) => laps.push(Measured {
                lap,
                traced,
                events,
            }),
            Err(e) => {
                eprintln!("lap {index} failed: {e}");
                errored += 1;
            }
        }
        let count = |want: bool| laps.iter().filter(|m| m.traced == want).count();
        let enough = count(false) >= MIN_LAPS && (!args.trace || count(true) >= MIN_LAPS);
        let elapsed = window.elapsed().as_secs_f64();
        if (enough && elapsed >= args.seconds) || elapsed >= HARD_STOP_SECS {
            break;
        }
    }
    // The reference kernels' working sets are resident throughout; the
    // rest of the high-water mark is the program's.
    let peak_rss_mb = usage().peak_rss_mb - reference.resident_mb();

    // Operations: laps for the train workloads, queries for serve.
    let differs = |m: &Measured| {
        m.lap.fingerprint != base.fingerprint
            || m.lap.stats != base.stats
            || m.lap.pairs != base.pairs
    };
    let (attempted, mut failed) = match spec {
        Spec::Train { .. } => (
            laps.len() as u64 + errored,
            errored + laps.iter().filter(|m| differs(m)).count() as u64,
        ),
        Spec::Serve => (
            laps.iter().map(|m| m.lap.queries).sum::<u64>() + errored * base.queries,
            errored * base.queries
                + laps
                    .iter()
                    .map(|m| {
                        if differs(m) {
                            m.lap.queries
                        } else {
                            m.lap.failed_queries
                        }
                    })
                    .sum::<u64>(),
        ),
    };
    if quality_score < spec.quality_floor() {
        eprintln!(
            "quality {quality_score} is under the floor {}",
            spec.quality_floor()
        );
        failed = attempted;
    }
    let correct = failed == 0 && cli_identical;

    let untraced: Vec<&Lap> = laps.iter().filter(|m| !m.traced).map(|m| &m.lap).collect();
    if untraced.is_empty() {
        return Err("no lap completed".into());
    }
    let series = |f: fn(&Lap) -> f64| untraced.iter().map(|l| f(l)).collect::<Vec<f64>>();
    let run_series = series(|l| l.run_s);
    let (spread, quiet) = (lap_spread(&run_series), quiet_laps(&run_series));
    // Every timing is reported at the quiet box's speed.
    let scale = box_scale(&calib);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("setup_s", scale * best_quartile(&series(|l| l.setup_s)));
    values.insert("run_s", scale * best_quartile(&run_series));
    values.insert(
        "throughput_per_s",
        base.units / (scale * best_quartile(&series(|l| l.work_s))),
    );
    values.insert("cpu_s", scale * best_quartile(&series(|l| l.cpu_s)));
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("quality_score", quality_score);

    let reported: &[Metric] = if args.trace {
        for m in PER_LAYER {
            values.insert(m.name, 0.0);
        }
        let layer = LayerInputs {
            spec,
            paths: &paths,
            base: &base,
            trained: trained.as_ref(),
            tracer: &tracer,
            laps: &laps,
            scale,
        };
        for (name, v) in layer.metrics()? {
            values.insert(name, v);
        }
        values.insert("bench.box_speed", scale);
        values.insert("bench.inputs_s", inputs_s);
        values.insert("bench.lap_spread", spread);
        values.insert("bench.quiet_laps", quiet as f64);
        let eval_metric = match spec {
            Spec::Train { graph: false, .. } => Some("eval.analogy_s"),
            Spec::Train { graph: true, .. } => Some("eval.linkpred_s"),
            Spec::Serve => None,
        };
        if let Some(name) = eval_metric {
            values.insert(name, eval_s);
        }
        let traced_runs: Vec<f64> = laps
            .iter()
            .filter(|m| m.traced)
            .map(|m| m.lap.run_s)
            .collect();
        values.insert(
            "trace.overhead_frac",
            best_quartile(&traced_runs) / best_quartile(&run_series) - 1.0,
        );
        std::fs::create_dir_all(bench_dir)?;
        tracer.write_jsonl(&bench_dir.join(format!("trace-{}.jsonl", args.workload)))?;
        PER_LAYER
    } else {
        END_TO_END
    };

    // The one place every metric is printed by name with its unit.
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "workload {} seed {} trace {} laps {} (+{} traced) window {:.1}s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        untraced.len(),
        laps.len() - untraced.len(),
        window.elapsed().as_secs_f64()
    )?;
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = values.get(m.name) {
            writeln!(out, "{:<40} {:>16.6} {}", m.name, v, m.unit)?;
        }
    }
    writeln!(
        out,
        "box speed {:.4}, lap spread {:.4}, quiet laps {}/{}, output crc32 {:08x}, \
         gw2v CLI output identical: {}",
        scale,
        spread,
        quiet,
        run_series.len(),
        base.fingerprint,
        cli_identical
    )?;

    let metrics_map = |table: &mut dyn Iterator<Item = &Metric>| {
        Value::Map(
            table
                .filter_map(|m| Some((m, *values.get(m.name)?)))
                .map(|(m, v)| {
                    let entry = obj(vec![
                        ("value", Value::Float(v)),
                        ("unit", Value::Str(m.unit.to_owned())),
                    ]);
                    (m.name.to_owned(), entry)
                })
                .collect(),
        )
    };
    let record = obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Float(args.seconds)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        (
            "metrics",
            metrics_map(&mut END_TO_END.iter().chain(PER_LAYER)),
        ),
        (
            "series",
            obj(vec![
                ("run_s", floats(&run_series)),
                ("setup_s", floats(&series(|l| l.setup_s))),
                ("work_s", floats(&series(|l| l.work_s))),
                ("cpu_s", floats(&series(|l| l.cpu_s))),
                (
                    "reference_near_s",
                    floats(&calib.iter().map(|c| c.0).collect::<Vec<_>>()),
                ),
                (
                    "reference_far_s",
                    floats(&calib.iter().map(|c| c.1).collect::<Vec<_>>()),
                ),
            ]),
        ),
        (
            "checks",
            obj(vec![
                ("cli_output_identical", Value::Bool(cli_identical)),
                (
                    "output_crc32",
                    Value::Str(format!("{:08x}", base.fingerprint)),
                ),
                ("pairs", Value::UInt(base.pairs)),
                (
                    "comm_bytes",
                    Value::UInt(base.stats.map_or(0, |s| s.total_bytes())),
                ),
                ("box_scale", Value::Float(scale)),
                ("lap_spread", Value::Float(spread)),
                ("quiet_laps", Value::UInt(quiet as u64)),
            ]),
        ),
        ("provenance", provenance(args, run_series.len())),
    ]);
    let record_path = args
        .record
        .clone()
        .unwrap_or_else(|| bench_dir.join("records.jsonl"));
    if let Some(dir) = record_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&record_path)?;
    writeln!(f, "{}", serde_json::to_string(&record)?)?;

    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics_map(&mut reported.iter())),
    ]);
    writeln!(out, "{}", serde_json::to_string(&result)?)?;
    Ok(())
}

/// Git sha, backend and seed from `gw2v_obs::provenance`, plus what a
/// timing on this box depends on.
fn provenance(args: &RunArgs, lap_count: usize) -> Value {
    let p = gw2v_obs::provenance(&args.workload, args.seed);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_owned())
    };
    // The flags a kernel backend could dispatch on.
    let all_flags = field("flags");
    let flags: Vec<&str> = all_flags
        .split_whitespace()
        .filter(|f| ["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw"].contains(f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("git_sha", Value::Str(p.git_sha)),
        ("backend", Value::Str(p.backend)),
        ("scale", Value::Str(p.scale)),
        ("seed", Value::UInt(p.seed)),
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu_model", Value::Str(field("model name"))),
        ("cpu_flags", Value::Str(flags.join(" "))),
        ("lap_count", Value::UInt(lap_count as u64)),
    ])
}

/// Everything the per-layer reduction reads.
struct LayerInputs<'a> {
    spec: &'a Spec,
    paths: &'a Paths,
    base: &'a Lap,
    trained: Option<&'a Trained>,
    tracer: &'a Tracer,
    laps: &'a [Measured],
    /// [`box_scale`] of the run: applied to every duration below.
    scale: f64,
}

impl LayerInputs<'_> {
    /// Best-quartile seconds per traced lap inside spans called `name`.
    fn span_s(&self, name: &str) -> f64 {
        let per_lap = self.tracer.per_lap_total(name);
        if per_lap.is_empty() {
            0.0
        } else {
            self.scale * best_quartile(&per_lap)
        }
    }

    /// Best quartile over traced laps of the `q`-quantile of the lap's
    /// spans called `name`, in µs.
    fn span_quantile_us(&self, name: &str, q: f64) -> f64 {
        let per_lap: Vec<f64> = self
            .tracer
            .per_lap_durations(name)
            .iter()
            .map(|d| nearest_rank(d, q) * 1e6)
            .collect();
        self.scale * best_quartile(&per_lap)
    }

    /// Best quartile over traced laps of the lap's mean `wall_s` of
    /// `gw2v_obs` trace events called `name`, in ms.
    fn event_mean_ms(&self, name: &str) -> f64 {
        let per_lap: Vec<f64> = self
            .laps
            .iter()
            .filter_map(|m| {
                let walls: Vec<f64> = m
                    .events
                    .iter()
                    .filter(|e| e.name == name)
                    .map(|e| e.wall_s)
                    .collect();
                (!walls.is_empty()).then(|| walls.iter().sum::<f64>() / walls.len() as f64 * 1e3)
            })
            .collect();
        if per_lap.is_empty() {
            0.0
        } else {
            self.scale * best_quartile(&per_lap)
        }
    }

    fn metrics(&self) -> Res<Vec<(&'static str, f64)>> {
        let traced: Vec<&Lap> = self
            .laps
            .iter()
            .filter(|m| m.traced)
            .map(|m| &m.lap)
            .collect();
        let n_traced = traced.len() as f64;
        let snapshot = gw2v_obs::snapshot();
        let hist_sum_s = |name: &str| {
            snapshot
                .histograms
                .get(name)
                .map_or(0.0, |h| self.scale * h.sum as f64 * 1e-9)
        };
        let base = self.base;
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        // Probe rows: the trained model, or the served table.
        let served;
        let rows = match self.trained {
            Some(t) => &t.model.syn0,
            None => {
                let file = std::fs::File::open(&self.paths.input)?;
                served = Word2VecModel::load_text(std::io::BufReader::new(file))?.1;
                &served.syn0
            }
        };
        // Probes report rates: work over scaled time.
        out.extend(
            probes::run(rows, matches!(self.spec, Spec::Serve))
                .into_iter()
                .map(|(name, rate)| (name, rate / self.scale)),
        );

        match self.spec {
            Spec::Serve => {
                let load_s = self.span_s("core.load_text");
                out.push(("core.load_text_s", load_s));
                out.push((
                    "core.load_text_mb_per_s",
                    base.input_bytes as f64 / 1e6 / load_s,
                ));
                out.push(("serve.store_build_s", self.span_s("serve.store_build")));
                out.push(("serve.parse_s", self.span_s("serve.parse")));
                out.push(("serve.json_s", self.span_s("serve.json")));
                out.push((
                    "serve.single_p50_us",
                    self.span_quantile_us("serve.answer_single", 0.5),
                ));
                out.push((
                    "serve.single_p99_us",
                    self.span_quantile_us("serve.answer_single", 0.99),
                ));
                out.push((
                    "serve.batch32_p50_us",
                    self.span_quantile_us("serve.answer_batch", 0.5),
                ));
                // Registry histogram around each shard's GEMM scan and
                // top-k selection, over every traced lap.
                let scored = n_traced * base.units * rows.rows() as f64;
                out.push((
                    "serve.scan_mrows_per_s",
                    scored / hist_sum_s("serve.shard_scan_ns") / 1e6,
                ));
            }
            Spec::Train {
                params,
                engine,
                graph,
            } => {
                let tokens = base.units / params.epochs as f64;
                for (metric, span) in [
                    ("corpus.read_s", "corpus.read"),
                    ("corpus.vocab_s", "corpus.vocab"),
                    ("corpus.encode_s", "corpus.encode"),
                    ("core.train_s", "core.train"),
                    ("core.save_text_s", "core.save_text"),
                ] {
                    out.push((metric, self.span_s(span)));
                }
                out.push((
                    "corpus.encode_mtok_per_s",
                    tokens / self.span_s("corpus.encode") / 1e6,
                ));
                if *graph {
                    for (metric, span) in [
                        ("corpus.edge_list_load_s", "corpus.edge_list_load"),
                        ("corpus.holdout_split_s", "corpus.holdout_split"),
                        ("corpus.walks_s", "corpus.walks"),
                        ("corpus.walks_write_s", "corpus.walks_write"),
                    ] {
                        out.push((metric, self.span_s(span)));
                    }
                    out.push((
                        "corpus.walks_mtok_per_s",
                        tokens / self.span_s("corpus.walks") / 1e6,
                    ));
                }
                let train_s = self.span_s("core.train");
                out.push(("core.epoch_s", train_s / params.epochs as f64));
                out.push((
                    "core.save_text_mb_per_s",
                    base.output_bytes as f64 / 1e6 / self.span_s("core.save_text"),
                ));
                // The shared-memory trainer reports pairs only through
                // the registry; the distributed ones return them.
                let pairs = match engine {
                    Engine::HogBatch { .. } => {
                        snapshot
                            .counters
                            .get("core.hogbatch.pairs")
                            .copied()
                            .unwrap_or(0) as f64
                            / n_traced
                    }
                    _ => base.pairs as f64,
                };
                out.push(("core.pairs", pairs));
                out.push(("core.pairs_per_s", pairs / train_s));
                let sgns = match engine {
                    Engine::HogBatch { .. } => SgnsMode::HogBatch,
                    Engine::Dist(c) | Engine::Threaded(c) => c.sgns,
                };
                let sentence_metric = match sgns {
                    SgnsMode::HogBatch => "core.hogbatch.sentence_ns",
                    SgnsMode::PerPair => "core.sgns.sentence_ns",
                };
                out.push((sentence_metric, train_s * 1e9 / base.sentence_steps));

                if let Some(stats) = base.stats {
                    out.push(("gluon.comm_mb", stats.total_bytes() as f64 / 1e6));
                    out.push(("gluon.reduce_mb", stats.reduce_bytes as f64 / 1e6));
                    out.push(("gluon.broadcast_mb", stats.broadcast_bytes as f64 / 1e6));
                    match engine {
                        Engine::Dist(_) => {
                            out.push(("gluon.rounds", stats.rounds as f64));
                            out.push(("gluon.sync.round_ms", self.event_mean_ms("gluon.sync")));
                            out.push((
                                "gluon.sync.rows_per_round",
                                stats.total_bytes() as f64
                                    / entry_bytes(params.dim) as f64
                                    / stats.rounds as f64,
                            ));
                            // Virtual compute is measured per host; virtual
                            // communication comes from the cost model.
                            let compute: Vec<f64> = traced.iter().map(|l| l.virtual_s.0).collect();
                            out.push((
                                "core.dist.virtual_compute_s",
                                self.scale * best_quartile(&compute),
                            ));
                            out.push(("core.dist.virtual_comm_s", base.virtual_s.1));
                        }
                        Engine::Threaded(_) => {
                            out.push((
                                "gluon.threaded.round_ms",
                                self.event_mean_ms("gluon.threaded.sync"),
                            ));
                            out.push((
                                "gluon.threaded.msgs",
                                (stats.reduce_msgs + stats.broadcast_msgs) as f64,
                            ));
                            let host_seconds = self.spec.hosts() as f64
                                * self.scale
                                * traced.iter().map(|l| l.work_s).sum::<f64>();
                            out.push((
                                "gluon.threaded.barrier_wait_frac",
                                hist_sum_s("gluon.barrier_wait_ns") / host_seconds,
                            ));
                        }
                        Engine::HogBatch { .. } => {}
                    }
                }
                // Comparison trainers on the same corpus, outside the laps.
                if !*graph {
                    let cfg = TokenizerConfig::default();
                    let vocab =
                        build_vocab_from_path(&self.paths.input, cfg.clone(), params.min_count)?;
                    let text = std::fs::read_to_string(&self.paths.input)?;
                    let corpus = Corpus::from_text(&text, &vocab, cfg);
                    let best_of = |f: &dyn Fn()| {
                        self.scale
                            * (0..COMPARISON_REPS)
                                .map(|_| {
                                    let t = Instant::now();
                                    f();
                                    t.elapsed().as_secs_f64()
                                })
                                .fold(f64::INFINITY, f64::min)
                    };
                    match engine {
                        Engine::Dist(_) => {
                            let seq_s = best_of(&|| {
                                SequentialTrainer::new(params.clone()).train(&corpus, &vocab);
                            });
                            out.push(("core.seq.train_s", seq_s));
                            out.push(("core.dist.overhead_vs_seq", train_s / seq_s - 1.0));
                        }
                        Engine::HogBatch { .. } => {
                            let t2_s = best_of(&|| {
                                HogBatchTrainer::new(params.clone(), 2).train(&corpus, &vocab);
                            });
                            out.push(("core.hogbatch.t2_train_s", t2_s));
                            out.push(("core.hogbatch.t2_speedup", train_s / t2_s));
                        }
                        Engine::Threaded(_) => {}
                    }
                }
            }
        }
        Ok(out)
    }
}
