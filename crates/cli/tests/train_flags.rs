//! `gw2v train` turns a worker-count flag the trainers cannot run with
//! into a typed error, and a count far beyond the corpus into a run:
//! `--threads 0` / `--hosts 0` used to die on a library `assert!`
//! (exit 101 with a backtrace), `--threads 100000` on a failed stack
//! guard page (exit 134).

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

fn train(corpus: &Path, out: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gw2v"))
        .args(["train", "--input", corpus.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .args(["--dim", "8", "--epochs", "1", "--min-count", "1"])
        .args(flags)
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
