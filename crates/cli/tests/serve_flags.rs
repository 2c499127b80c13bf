//! `gw2v serve` sizes nothing from a flag: `--k`, `--shards` and
//! `--batch` come from a command line, so a value far beyond the model
//! must be clamped by what the store holds, not reserved up front
//! (`--k 1000000000000` used to abort on a 16 TB allocation).

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
    let mut child = Command::new(env!("CARGO_BIN_EXE_gw2v"))
        .args(["serve", "--model", model.to_str().unwrap()])
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gw2v");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"sim w3\nanalogy w0 w1 w2\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "gw2v serve {flags:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
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
