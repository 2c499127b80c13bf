//! `gw2v serve` sizes nothing from a flag or a header: `--k`, `--shards`
//! and `--batch` come from a command line and a model's first line from
//! a file, so a value far beyond the model must be clamped by what the
//! store holds, not reserved up front (`--k 1000000000000` used to abort
//! on a 16 TB allocation, a `99999999999999 64` header on a 2.4 PB one).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const ROWS: usize = 12;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gw2v_flags_{}_{name}", std::process::id()))
}

/// A 12 × 4 word2vec-text model with distinct row directions.
fn write_model(path: &Path) {
    let mut text = format!("{ROWS} 4\n");
    for r in 0..ROWS {
        let x = r as f32;
        text.push_str(&format!(
            "w{r} {} {} {} {}\n",
            1.0 + x,
            (x * 0.7).sin(),
            0.5 - x * 0.1,
            (x * 1.3).cos()
        ));
    }
    std::fs::write(path, text).unwrap();
}

/// Runs `gw2v serve --model MODEL <flags>` over two queries on stdin and
/// returns its stdout; the process must exit 0.
fn serve(model: &Path, flags: &[&str]) -> String {
    let out = serve_raw(model, flags, "sim w3\nanalogy w0 w1 w2\n");
    assert!(
        out.status.success(),
        "gw2v serve {flags:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Runs `gw2v serve --model MODEL <flags>` over `queries` on stdin.
fn serve_raw(model: &Path, flags: &[&str], queries: &str) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gw2v"))
        .args(["serve", "--model", model.to_str().unwrap()])
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gw2v");
    // A process that rejects its model exits without reading a query.
    let _ = child.stdin.take().unwrap().write_all(queries.as_bytes());
    child.wait_with_output().unwrap()
}

#[test]
fn a_huge_k_is_capped_by_the_store() {
    let model = tmp("k_model.txt");
    write_model(&model);
    let huge = serve(&model, &["--k", "1000000000000"]);
    assert_eq!(huge, serve(&model, &["--k", &ROWS.to_string()]));
    // Every row the query does not exclude is ranked.
    let lines: Vec<&str> = huge.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0].matches("\"id\":").count(), ROWS - 1, "sim");
    assert_eq!(lines[1].matches("\"id\":").count(), ROWS - 3, "analogy");
    std::fs::remove_file(&model).ok();
}

#[test]
fn a_huge_shard_count_or_batch_serves_the_default_bytes() {
    let model = tmp("shards_model.txt");
    write_model(&model);
    let default = serve(&model, &[]);
    assert!(default.contains("\"hits\":["), "{default}");
    assert_eq!(serve(&model, &["--shards", "1000000000000"]), default);
    assert_eq!(serve(&model, &["--batch", "1000000000000"]), default);
    std::fs::remove_file(&model).ok();
}

#[test]
fn a_header_beyond_the_file_is_an_error_not_an_allocation() {
    let model = tmp("header_model.txt");
    for (header, why) in [
        ("99999999999999 64", "row 0 short at 2"),
        ("99999999999999 2", "truncated file"),
        ("3000000000 4000000000", "header overflows"),
    ] {
        std::fs::write(&model, format!("{header}\nw 1 2\n")).unwrap();
        let out = serve_raw(&model, &[], "sim w\n");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // Exit 1 with the reason — not a signal, not an abort.
        assert_eq!(out.status.code(), Some(1), "{header}: {stderr}");
        assert!(stderr.contains(why), "{header}: {stderr}");
    }
    // No rows to back the width: nothing is sized from it either.
    std::fs::write(&model, "0 99999999999999\n").unwrap();
    let out = serve_raw(&model, &[], "sim w\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("unknown word"));
    std::fs::remove_file(&model).ok();
}

#[test]
fn a_nan_row_is_never_served_as_a_hit() {
    let model = tmp("nan_model.txt");
    std::fs::write(&model, "3 3\na 1 2 3\nb nan inf -inf\nc 3 2 1\n").unwrap();
    let queries = "sim a\nsim b\nanalogy a c a\n";
    let out = serve_raw(&model, &[], queries);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        r#"{"kind":"sim","words":["a"],"hits":[{"word":"c","id":2,"score":0.714286}]}"#
    );
    assert_eq!(lines[1], r#"{"kind":"sim","words":["b"],"hits":[]}"#);
    assert!(!text.contains("\"word\":\"b\""), "{text}");
    // One query at a time takes the coded scan; the answers are the same.
    let single = serve_raw(&model, &["--batch", "1"], queries);
    assert_eq!(String::from_utf8(single.stdout).unwrap(), text);
    std::fs::remove_file(&model).ok();
}

#[test]
fn a_word_with_unicode_whitespace_trains_saves_loads_and_is_served() {
    // The tokenizer splits on ASCII whitespace only, so U+00A0 and
    // U+3000 sit inside these words — and so must they for the model
    // reader and the query parser.
    let corpus = tmp("unicode_corpus.txt");
    let model = tmp("unicode_model.txt");
    let words = ["eps\u{3000}ilon", "no\u{a0}break", "alpha", "beta", "gamma"];
    let mut text = String::new();
    for i in 0..300 {
        text.push_str(words[i % words.len()]);
        text.push(if i % 7 == 6 { '\n' } else { ' ' });
    }
    std::fs::write(&corpus, text).unwrap();
    let train = Command::new(env!("CARGO_BIN_EXE_gw2v"))
        .args(["train", "--input", corpus.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .args(["--trainer", "seq", "--dim", "8", "--epochs", "1"])
        .args(["--negative", "2", "--subsample", "0"])
        .output()
        .expect("spawn gw2v");
    assert!(
        train.status.success(),
        "{}",
        String::from_utf8_lossy(&train.stderr)
    );
    let out = serve_raw(&model, &[], "sim eps\u{3000}ilon\nsim no\u{a0}break\n");
    assert!(
        out.status.success(),
        "gw2v serve exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let answers = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = answers.lines().collect();
    assert_eq!(lines.len(), 2, "{answers}");
    assert!(
        lines[0].starts_with("{\"kind\":\"sim\",\"words\":[\"eps\u{3000}ilon\"],\"hits\":[{"),
        "{answers}"
    );
    assert!(
        lines[1].starts_with("{\"kind\":\"sim\",\"words\":[\"no\u{a0}break\"],\"hits\":[{"),
        "{answers}"
    );
    assert_eq!(lines[0].matches("\"id\":").count(), words.len() - 1);
    std::fs::remove_file(&corpus).ok();
    std::fs::remove_file(&model).ok();
}
