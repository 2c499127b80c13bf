//! `gw2v train` turns a flag value the trainers cannot run with into a
//! typed error, and a count far beyond the corpus into a run:
//! `--threads 0` / `--hosts 0`, a `--min-count` that leaves no word and
//! a negative or non-finite `--nak-delay` / `--barrier-timeout` used to
//! die on a library `assert!` or a `Duration` conversion (exit 101 with
//! a backtrace), `--threads 100000` on a failed stack guard page (exit
//! 134). A fault plan the cluster engines cannot run is a typed error
//! too, and so is a flag the chosen trainer never reads, and a `--dim`,
//! `--window` or `--alpha` no run can train with.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SENTENCES: usize = 50;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gw2v_train_flags_{}_{name}", std::process::id()))
}

/// Fifty 6-word sentences over a 12-word vocabulary.
fn write_corpus(path: &Path) {
    let text: String = (0..SENTENCES)
        .map(|s| {
            let words: Vec<String> = (0..6).map(|i| format!("w{}", (s + i * i) % 12)).collect();
            words.join(" ") + "\n"
        })
        .collect();
    std::fs::write(path, text).unwrap();
}

fn train_command(corpus: &Path, out: &Path, flags: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gw2v"));
    cmd.args(["train", "--input", corpus.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .args(["--dim", "8", "--epochs", "1", "--min-count", "1"])
        .args(flags)
        .env_remove("GW2V_FAULT_PLAN");
    cmd
}

fn train(corpus: &Path, out: &Path, flags: &[&str]) -> Output {
    train_command(corpus, out, flags)
        .output()
        .expect("spawn gw2v")
}

#[test]
fn zero_workers_is_a_typed_error_naming_the_flag() {
    let corpus = tmp("zero_corpus.txt");
    let out = tmp("zero_model.txt");
    write_corpus(&corpus);
    for (trainer, flag) in [
        ("hogwild", "--threads"),
        ("hogbatch", "--threads"),
        ("dist", "--hosts"),
        ("threaded", "--hosts"),
    ] {
        let run = train(&corpus, &out, &["--trainer", trainer, flag, "0"]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{trainer} {flag} 0 exited 0");
        assert!(stderr.contains(flag), "{trainer}: {stderr}");
        assert!(!stderr.contains("panicked"), "{trainer}: {stderr}");
        assert!(!out.exists(), "{trainer} {flag} 0 wrote a model");
    }
    std::fs::remove_file(&corpus).ok();
}

#[test]
fn far_more_threads_than_sentences_still_trains() {
    let corpus = tmp("many_corpus.txt");
    let out = tmp("many_model.txt");
    write_corpus(&corpus);
    let run = train(
        &corpus,
        &out,
        &["--trainer", "hogbatch", "--threads", "100000"],
    );
    assert!(
        run.status.success(),
        "--threads 100000 failed ({}): {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let model = std::fs::read_to_string(&out).unwrap();
    assert_eq!(model.lines().next(), Some("12 8"), "header");
    assert_eq!(model.lines().count(), 13);
    std::fs::remove_file(&corpus).ok();
    std::fs::remove_file(&out).ok();
}

/// The run failed the way a bad flag or file should: non-zero exit,
/// `needle` named on stderr, no panic, no model file.
fn assert_typed_failure(run: &Output, out: &Path, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{what} exited 0");
    assert!(stderr.contains(needle), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(!out.exists(), "{what} wrote a model");
}

#[test]
fn cluster_flags_the_trainers_cannot_run_with_are_typed_errors() {
    let corpus = tmp("cluster_corpus.txt");
    let out = tmp("cluster_model.txt");
    let ckpt = tmp("cluster_ckpt");
    write_corpus(&corpus);
    for trainer in ["dist", "threaded"] {
        for (flag, value) in [
            ("--sync-rounds", "0"),
            ("--checkpoint-every", "0"),
            ("--checkpoint-dir", "/proc/gw2v_nope"),
        ] {
            let dir = ckpt.to_str().unwrap();
            let flags = ["--trainer", trainer, "--checkpoint-dir", dir, flag, value];
            let needle = if value == "0" { flag } else { value };
            let run = train(&corpus, &out, &flags);
            assert_typed_failure(&run, &out, needle, &format!("{trainer} {flag}"));
        }
    }
    std::fs::remove_file(&corpus).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

/// `--wire memo` and `--wire memoized` name no mode: a typed error that
/// names the modes there are, and no model is written.
#[test]
fn a_memoized_wire_mode_is_a_typed_error_naming_the_modes_there_are() {
    let corpus = tmp("wire_corpus.txt");
    let out = tmp("wire_model.txt");
    write_corpus(&corpus);
    for trainer in ["dist", "threaded"] {
        for mode in ["memo", "memoized"] {
            let run = train(&corpus, &out, &["--trainer", trainer, "--wire", mode]);
            let what = format!("{trainer} --wire {mode}");
            assert_eq!(run.status.code(), Some(1), "{what}");
            for needle in ["delta", "id-value"] {
                assert_typed_failure(&run, &out, needle, &what);
            }
        }
    }
    std::fs::remove_file(&corpus).ok();
}

#[test]
fn a_min_count_that_empties_the_vocabulary_is_a_typed_error() {
    let corpus = tmp("min_count_corpus.txt");
    let out = tmp("min_count_model.txt");
    write_corpus(&corpus);
    for trainer in ["seq", "batched", "hogwild", "hogbatch", "dist", "threaded"] {
        let run = train(
            &corpus,
            &out,
            &["--trainer", trainer, "--min-count", "100000"],
        );
        assert_typed_failure(&run, &out, "--min-count", trainer);
    }
    std::fs::remove_file(&corpus).ok();
}

#[test]
fn transport_timings_that_are_no_duration_are_typed_errors() {
    let corpus = tmp("timing_corpus.txt");
    let out = tmp("timing_model.txt");
    write_corpus(&corpus);
    for (flag, value) in [
        ("--nak-delay", "-5"),
        ("--nak-delay", "nan"),
        ("--nak-delay", "inf"),
        ("--barrier-timeout", "-1"),
    ] {
        let run = train(&corpus, &out, &["--trainer", "threaded", flag, value]);
        assert_typed_failure(&run, &out, flag, &format!("{flag} {value}"));
    }
    std::fs::remove_file(&corpus).ok();
}

/// A flag the chosen trainer never reads is a typed error naming the flag
/// and the trainer; each of these used to train and exit 0 with the flag
/// doing nothing (`--trainer seq --checkpoint-dir d --resume` trained
/// from scratch and wrote no checkpoint).
#[test]
fn a_flag_the_trainer_never_reads_is_a_typed_error() {
    let corpus = tmp("unread_corpus.txt");
    let out = tmp("unread_model.txt");
    let ckpt = tmp("unread_ckpt");
    write_corpus(&corpus);
    let dir = ckpt.to_str().unwrap();
    let cluster: [&[&str]; 13] = [
        &["--hosts", "2"],
        &["--sync-rounds", "2"],
        &["--plan", "pull"],
        &["--wire", "delta"],
        &["--combiner", "avg"],
        &["--sgns", "hogbatch"],
        &["--fault-plan", "seed=1,drop=0.1"],
        &["--on-partition", "degrade"],
        &["--max-stale-rounds", "4"],
        &["--checkpoint-dir", dir],
        &["--checkpoint-every", "2"],
        &["--checkpoint-dir", dir, "--resume"],
        &["--resume"],
    ];
    let transport: [&[&str]; 3] = [
        &["--nak-delay", "5"],
        &["--max-retries", "3"],
        &["--barrier-timeout", "100"],
    ];
    let mut cases: Vec<(&str, &[&str])> = Vec::new();
    for trainer in ["seq", "batched", "hogwild", "hogbatch"] {
        cases.extend(cluster.iter().chain(&transport).map(|&f| (trainer, f)));
    }
    cases.extend(transport.iter().map(|&f| ("dist", f)));
    for trainer in ["seq", "batched", "dist", "threaded"] {
        cases.push((trainer, &["--threads", "2"]));
    }
    for (trainer, flag) in cases {
        let what = format!("{trainer} {flag:?}");
        let run = train(&corpus, &out, &[&["--trainer", trainer], flag].concat());
        assert_eq!(run.status.code(), Some(1), "{what}");
        assert_typed_failure(&run, &out, flag[0], &what);
        assert_typed_failure(&run, &out, trainer, &what);
        std::fs::remove_dir_all(&ckpt).ok();
    }
    std::fs::remove_file(&corpus).ok();
}

/// A hyperparameter no run can use is a typed error, raised before the
/// corpus is read. Each of these used to exit 0: `--window 0` trained
/// nothing (a debug build panicked), `--dim 0` wrote a model of empty
/// vectors and `--alpha nan` one of NaNs.
#[test]
fn hyperparameters_no_run_can_use_are_typed_errors() {
    let corpus = tmp("hyper_corpus.txt");
    let out = tmp("hyper_model.txt");
    write_corpus(&corpus);
    let missing = tmp("hyper_missing_corpus.txt");
    for (flag, value) in [
        ("--window", "0"),
        ("--dim", "0"),
        ("--alpha", "nan"),
        ("--alpha", "inf"),
        ("--alpha", "0"),
        ("--alpha", "-0.5"),
    ] {
        for trainer in ["seq", "hogbatch", "dist"] {
            let what = format!("{trainer} {flag} {value}");
            let run = train(&corpus, &out, &["--trainer", trainer, flag, value]);
            assert_eq!(run.status.code(), Some(1), "{what}");
            assert_typed_failure(&run, &out, flag, &what);
        }
        let run = train(&missing, &out, &[flag, value]);
        assert_typed_failure(&run, &out, flag, &format!("{flag} {value}, no corpus"));
    }
    std::fs::remove_file(&corpus).ok();
}

#[test]
fn resume_over_a_foreign_or_truncated_checkpoint_is_a_typed_error() {
    let corpus = tmp("resume_corpus.txt");
    let out = tmp("resume_model.txt");
    write_corpus(&corpus);
    for trainer in ["dist", "threaded"] {
        let ckpt = tmp(&format!("resume_ckpt_{trainer}"));
        let dir = ckpt.to_str().unwrap();
        let run = |extra: &[&str]| {
            let flags = [&["--trainer", trainer, "--checkpoint-dir", dir], extra].concat();
            train(&corpus, &out, &flags)
        };
        assert!(run(&[]).status.success(), "{trainer}");
        std::fs::remove_file(&out).unwrap();
        // Another seed is another run: the fingerprint does not match.
        let foreign = run(&["--resume", "--seed", "2"]);
        assert_typed_failure(&foreign, &out, "--resume", &format!("{trainer} foreign"));
        let file = ckpt.join("epoch-00000.gw2vckp");
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
        let truncated = run(&["--resume"]);
        assert_typed_failure(
            &truncated,
            &out,
            "--resume",
            &format!("{trainer} truncated"),
        );
        std::fs::remove_dir_all(&ckpt).ok();
    }
    std::fs::remove_file(&corpus).ok();
}

/// Two hosts, two sync rounds per epoch, two epochs: global rounds 0–3.
const TWO_BY_TWO: [&str; 6] = ["--hosts", "2", "--sync-rounds", "2", "--epochs", "2"];

/// A fault plan the engines cannot run is a typed error before any epoch
/// trains, whether it comes from the flag or from `GW2V_FAULT_PLAN`.
/// Crashes that leave no host alive used to abort on the liveness assert
/// (exit 101); a directive naming a host past `--hosts` was ignored
/// (exit 0). Under `degrade` a partition's yielding side crashes too.
#[test]
fn a_fault_plan_the_engines_cannot_run_is_a_typed_error() {
    let corpus = tmp("plan_corpus.txt");
    let out = tmp("plan_model.txt");
    write_corpus(&corpus);
    let degrade: &[&str] = &["--on-partition", "degrade"];
    for trainer in ["dist", "threaded"] {
        for (plan, policy, names) in [
            ("crash=0@1,crash=1@1", &[][..], "round 1"),
            ("crash=0@1,partition=0|1@1..2", degrade, "round 1"),
            ("crash=5@1", &[], "host 5"),
            ("rejoin=7@1", &[], "host 7"),
            ("straggle=9@0x10ms", &[], "host 9"),
            ("partition=0|5@0..1", &[], "host 5"),
            ("seed=7,drop=1", &[], "drop=1"),
            ("seed=7,flip=1", &[], "flip=1"),
        ] {
            let what = format!("{trainer} {plan} {policy:?}");
            let flags = [&["--trainer", trainer][..], &TWO_BY_TWO, policy].concat();
            let flag = [&flags[..], &["--fault-plan", plan]].concat();
            let run = train(&corpus, &out, &flag);
            assert_typed_failure(&run, &out, "--fault-plan", &what);
            assert_typed_failure(&run, &out, names, &what);
            let env = train_command(&corpus, &out, &flags)
                .env("GW2V_FAULT_PLAN", plan)
                .output()
                .expect("spawn gw2v");
            assert_typed_failure(&env, &out, "GW2V_FAULT_PLAN", &format!("{what} (env)"));
        }
    }
    std::fs::remove_file(&corpus).ok();
}

/// A schedule that always leaves a host alive still trains: host 0 dies
/// at round 1 and is back at epoch 1's start, before host 1 dies at its
/// first round (2). A stalled partition crashes nobody.
#[test]
fn a_crash_schedule_that_keeps_a_host_alive_trains() {
    let corpus = tmp("alive_corpus.txt");
    write_corpus(&corpus);
    for trainer in ["dist", "threaded"] {
        for plan in [
            "crash=0@1,rejoin=0@1,crash=1@2",
            "crash=0@1,partition=0|1@1..2",
        ] {
            let out = tmp(&format!("alive_{trainer}.txt"));
            let plan = ["--fault-plan", plan];
            let flags = [&["--trainer", trainer][..], &TWO_BY_TWO, &plan].concat();
            let run = train(&corpus, &out, &flags);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(run.status.success(), "{trainer} {plan:?}: {stderr}");
            let model = std::fs::read_to_string(&out).unwrap();
            assert_eq!(model.lines().count(), 13, "{trainer} {plan:?}");
            std::fs::remove_file(&out).ok();
        }
    }
    std::fs::remove_file(&corpus).ok();
}

/// `kill=E` after the last epoch stops nothing: neither cluster trainer
/// reports a kill, and both write the same, fully trained model.
#[test]
fn a_kill_after_the_last_epoch_stops_nothing() {
    let corpus = tmp("last_kill_corpus.txt");
    write_corpus(&corpus);
    let mut models = Vec::new();
    for trainer in ["dist", "threaded"] {
        let out = tmp(&format!("last_kill_{trainer}.txt"));
        let ckpt = tmp(&format!("last_kill_ckpt_{trainer}"));
        let dir = ckpt.to_str().unwrap();
        let flags = ["--trainer", trainer, "--hosts", "2", "--epochs", "2"];
        let kill = ["--fault-plan", "kill=1", "--checkpoint-dir", dir];
        let run = train(&corpus, &out, &[&flags[..], &kill].concat());
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(run.status.success(), "{trainer}: {stdout}");
        assert!(!stdout.contains("killed"), "{trainer}: {stdout}");
        models.push(std::fs::read(&out).unwrap());
        std::fs::remove_file(&out).ok();
        std::fs::remove_dir_all(&ckpt).ok();
    }
    assert!(models[0] == models[1], "dist and threaded models differ");
    std::fs::remove_file(&corpus).ok();
}
