//! The `question-words.txt` file format.
//!
//! The original Word2Vec analogy benchmark ships as a plain-text file:
//! category headers are lines starting with `: ` (e.g. `: capital-common-
//! countries`), followed by one question per line as four whitespace-
//! separated words `a b c expected`. This module reads and writes that
//! format so the synthetic suites generated by [`crate::synth`] can be
//! saved to disk, diffed, and fed to external tooling — and so a real
//! `question-words.txt` can be evaluated against models trained here.
//!
//! Category kinds follow the original convention: categories whose name
//! starts with `gram` are syntactic, the rest semantic.

use crate::synth::{AnalogyCategory, AnalogyQuestion, AnalogySet, CategoryKind};
use gw2v_util::split::str_words;
use std::io::{BufRead, Write};

/// Writes an analogy set in `question-words.txt` format.
pub fn write_questions<W: Write>(set: &AnalogySet, out: &mut W) -> std::io::Result<()> {
    for cat in &set.categories {
        writeln!(out, ": {}", cat.name)?;
        for q in &cat.questions {
            writeln!(out, "{} {} {} {}", q.a, q.b, q.c, q.expected)?;
        }
    }
    Ok(())
}

/// Reads an analogy set from `question-words.txt` format.
///
/// Words are split on ASCII whitespace, as the tokenizer splits the
/// corpus, so a word with a non-ASCII space in it stays one word. Lines
/// with fewer or more than 4 words under a category header are
/// rejected; questions before any header are rejected.
pub fn read_questions<R: BufRead>(input: R) -> std::io::Result<AnalogySet> {
    let mut categories: Vec<AnalogyCategory> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim_ascii();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(name) = trimmed.strip_prefix(':') {
            let name = name.trim_ascii().to_owned();
            let kind = if name.starts_with("gram") {
                CategoryKind::Syntactic
            } else {
                CategoryKind::Semantic
            };
            categories.push(AnalogyCategory {
                name,
                kind,
                questions: Vec::new(),
            });
            continue;
        }
        let words: Vec<&str> = str_words(trimmed).collect();
        let err = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        if words.len() != 4 {
            return Err(err(format!(
                "line {}: expected 4 words, got {}",
                lineno + 1,
                words.len()
            )));
        }
        let cat = categories.last_mut().ok_or_else(|| {
            err(format!(
                "line {}: question before any ': category' header",
                lineno + 1
            ))
        })?;
        cat.questions.push(AnalogyQuestion {
            a: words[0].to_owned(),
            b: words[1].to_owned(),
            c: words[2].to_owned(),
            expected: words[3].to_owned(),
        });
    }
    Ok(AnalogySet { categories })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthCorpus, SynthSpec};

    #[test]
    fn roundtrip_synthetic_suite() {
        let corpus = SynthCorpus::generate(&SynthSpec::small(3), 2_000, 5);
        let mut buf = Vec::new();
        write_questions(&corpus.analogies, &mut buf).unwrap();
        let back = read_questions(buf.as_slice()).unwrap();
        assert_eq!(back.categories.len(), corpus.analogies.categories.len());
        for (a, b) in back.categories.iter().zip(&corpus.analogies.categories) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.questions, b.questions);
        }
    }

    #[test]
    fn parses_original_format() {
        let text = "\
: capital-common-countries
Athens Greece Berlin Germany
Athens Greece Bern Switzerland

: gram3-comparative
bad worse big bigger
";
        let set = read_questions(text.as_bytes()).unwrap();
        assert_eq!(set.categories.len(), 2);
        assert_eq!(set.categories[0].kind, CategoryKind::Semantic);
        assert_eq!(set.categories[0].questions.len(), 2);
        assert_eq!(set.categories[1].kind, CategoryKind::Syntactic);
        assert_eq!(set.categories[1].questions[0].expected, "bigger");
    }

    #[test]
    fn a_non_ascii_space_stays_inside_a_word() {
        // The tokenizer keeps `a\u{a0}b` as one token, so a question
        // naming it must too.
        let set = read_questions(": cat\u{a0}\na\u{a0}b c d e\u{3000}\n".as_bytes()).unwrap();
        assert_eq!(set.categories[0].name, "cat\u{a0}");
        assert_eq!(
            set.categories[0].questions,
            [AnalogyQuestion {
                a: "a\u{a0}b".into(),
                b: "c".into(),
                c: "d".into(),
                expected: "e\u{3000}".into(),
            }]
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read_questions(": cat\na b c\n".as_bytes()).is_err());
        assert!(read_questions(": cat\na b c d e\n".as_bytes()).is_err());
        assert!(read_questions("a b c d\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_set() {
        let set = read_questions("".as_bytes()).unwrap();
        assert_eq!(set.total_questions(), 0);
    }
}
