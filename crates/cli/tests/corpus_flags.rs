//! `gw2v corpus graph|walks` and `gw2v eval linkpred` turn flag values
//! the graph library asserts against into typed errors that name the
//! flag: each case below used to die on a library `assert!` (exit 101
//! with a backtrace).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gw2v_corpus_flags_{}_{name}", std::process::id()))
}

fn gw2v(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gw2v"))
        .args(args)
        .output()
        .expect("spawn gw2v")
}

/// The run failed the way a bad flag should: exit 1, `flag` named on
/// stderr, no panic, no output file.
fn assert_typed_failure(run: &Output, out: &Path, flag: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.contains(flag), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(!out.exists(), "{what} wrote {}", out.display());
}

#[test]
fn graph_flags_the_generators_cannot_run_with_are_typed_errors() {
    let out = tmp("bad.edges");
    let edges = out.to_str().unwrap();
    for (flags, flag) in [
        (&["--nodes", "0"][..], "--nodes"),
        (&["--blocks", "0"], "--blocks"),
        (&["--nodes", "4", "--blocks", "5"], "--blocks"),
        (&["--p-in", "1.5"], "--p-in"),
        (&["--p-out", "-0.1"], "--p-out"),
        (&["--p-in", "nan"], "--p-in"),
        (&["--kind", "scale-free", "--attach", "0"], "--attach"),
        (
            &["--kind", "scale-free", "--nodes", "3", "--attach", "3"],
            "--attach",
        ),
    ] {
        let run = gw2v(&[&["corpus", "graph", "--out", edges], flags].concat());
        assert_typed_failure(&run, &out, flag, &flags.join(" "));
    }
}

#[test]
fn walk_and_holdout_flags_out_of_range_are_typed_errors() {
    let graph = tmp("graph.edges");
    let model = tmp("model.txt");
    let out = tmp("walks.txt");
    let edges = graph.to_str().unwrap();
    let walks = out.to_str().unwrap();
    let make = gw2v(&[
        "corpus", "graph", "--out", edges, "--nodes", "40", "--blocks", "2",
    ]);
    assert!(
        make.status.success(),
        "{}",
        String::from_utf8_lossy(&make.stderr)
    );
    for (flags, flag) in [
        (&["--walks", "0"][..], "--walks"),
        (&["--length", "0"], "--length"),
        (&["--p", "0"], "--p"),
        (&["--q", "-1"], "--q"),
        (&["--p", "nan"], "--p"),
        (&["--holdout", "1"], "--holdout"),
    ] {
        let run = gw2v(
            &[
                &["corpus", "walks", "--edges", edges, "--out", walks],
                flags,
            ]
            .concat(),
        );
        assert_typed_failure(&run, &out, flag, &flags.join(" "));
    }
    // A one-word model is enough: the fraction is refused before it
    // loads, and a split with no positive (`--holdout 0.0`) or no
    // negative edge is refused before anything is scored; each of the
    // last two used to print `AUC 0.5000` and exit 0.
    std::fs::write(&model, "1 2\nn0 0.5 0.5\n").unwrap();
    let report = tmp("report.json");
    for (flags, flag) in [
        (&["--holdout", "1.5"][..], "--holdout"),
        (&["--holdout", "0.0"], "--holdout"),
        (
            &["--holdout", "0.2", "--negatives-per-edge", "0"],
            "--negatives-per-edge",
        ),
    ] {
        let run = gw2v(
            &[
                &["eval", "linkpred", "--model", model.to_str().unwrap()][..],
                &["--edges", edges, "--out", report.to_str().unwrap()],
                flags,
            ]
            .concat(),
        );
        let what = format!("eval linkpred {}", flags.join(" "));
        assert_typed_failure(&run, &report, flag, &what);
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&model).ok();
}
