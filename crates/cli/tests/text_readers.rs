//! The text readers of the CLI split on ASCII whitespace, as the
//! tokenizer splits the corpus: a token with a non-ASCII space in it
//! (U+00A0, U+3000) stays one token.

use std::process::Command;

#[test]
fn phrases_keeps_a_token_with_a_non_ascii_space_whole() {
    let dir = std::env::temp_dir().join(format!("gw2v_text_readers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, out) = (dir.join("corpus.txt"), dir.join("phrased.txt"));
    std::fs::write(&input, "a\u{a0}b c\u{3000}d e\nf g\n").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_gw2v"))
        .args(["phrases", "--input", input.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("spawn gw2v");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    assert_eq!(text, "a\u{a0}b c\u{3000}d e\nf g\n");
    std::fs::remove_dir_all(&dir).ok();
}
