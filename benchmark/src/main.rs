//! ```text
//! gw2v-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
//! gw2v-benchmark compare A.jsonl B.jsonl
//! gw2v-benchmark generate --workload NAME --seed N --dir DIR   (spawned by `run`)
//! ```

use gw2v_benchmark::compare::compare;
use gw2v_benchmark::run::{run, RunArgs};
use gw2v_benchmark::workloads::{write_inputs, Paths, Spec, NAMES};
use std::error::Error;
use std::path::Path;

fn run_args(raw: &[String]) -> Result<RunArgs, Box<dyn Error>> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        record: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--record" => args.record = Some(value.into()),
            other => return Err(format!("unknown option {other}").into()),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")).into());
    }
    Ok(args)
}

/// `generate`: writes a workload's seeded input files into a directory.
fn generate(raw: &[String]) -> Result<(), Box<dyn Error>> {
    let [w_flag, workload, s_flag, seed, d_flag, dir] = raw else {
        return Err("generate takes --workload NAME --seed N --dir DIR".into());
    };
    if (w_flag.as_str(), s_flag.as_str(), d_flag.as_str()) != ("--workload", "--seed", "--dir") {
        return Err("generate takes --workload NAME --seed N --dir DIR".into());
    }
    let spec = Spec::by_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = seed
        .parse()
        .map_err(|_| format!("--seed: cannot parse {seed:?}"))?;
    write_inputs(&spec, seed, &Paths::new(Path::new(dir)))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_args(rest).and_then(|a| run(&a)),
        Some((cmd, rest)) if cmd == "generate" => generate(rest),
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare(Path::new(a), Path::new(b)).and_then(|ok| {
                if ok {
                    Ok(())
                } else {
                    Err("at least one metric is worse than its bound allows".into())
                }
            })
        }
        _ => Err(
            "usage: gw2v-benchmark run --workload NAME --seed N --seconds S --trace 0|1 \
                  [--record FILE] | compare A.jsonl B.jsonl"
                .into(),
        ),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
