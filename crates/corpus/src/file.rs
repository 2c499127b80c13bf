//! On-disk corpus handling.
//!
//! The paper's corpora are multi-gigabyte files that never fit in
//! memory: "Because the training corpus may not fit in the memory of a
//! single host, we stream it from disk to construct the vocabulary"
//! (§4.1). This module provides that streaming path: vocabulary
//! construction over a `BufRead` without materializing sentences, plus
//! helpers to write/read corpora and to stream a specific *host
//! partition* of a file (contiguous byte range snapped to whitespace
//! boundaries, §4.2). Neither pass holds more than the reader's buffer
//! and one sentence besides its output: the vocabulary pass counts
//! tokens in place, and the encode pass turns each window straight into
//! ids (see [`tokenizer`](crate::tokenizer)).

use crate::tokenizer::{TokenizerConfig, Tokens};
use crate::vocab::{VocabBuilder, Vocabulary};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Streams a reader once and builds the vocabulary. Tokens are counted
/// in place; only a word not seen before is copied.
pub fn build_vocab_streaming<R: BufRead>(
    reader: R,
    config: TokenizerConfig,
    min_count: u64,
) -> std::io::Result<Vocabulary> {
    let mut tokens = Tokens::new(reader, &config);
    let mut builder = VocabBuilder::new();
    while tokens.window(|word| builder.add_token(word))? > 0 {}
    Ok(builder.build(min_count))
}

/// Builds a vocabulary from a file path.
pub fn build_vocab_from_path<P: AsRef<Path>>(
    path: P,
    config: TokenizerConfig,
    min_count: u64,
) -> std::io::Result<Vocabulary> {
    build_vocab_streaming(BufReader::new(File::open(path)?), config, min_count)
}

/// Writes corpus text to a file (convenience for the generator CLI).
pub fn write_corpus<P: AsRef<Path>>(path: P, text: &str) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(text.as_bytes())
}

/// Streams the `host`-th of `n_hosts` contiguous byte partitions of a
/// file as encoded sentences.
///
/// Partition boundaries are byte offsets `len·h/H`, snapped forward to
/// the next whitespace so no token is split — the "logical partitioning
/// into roughly equal contiguous chunks" of §4.2. Every byte of the file
/// belongs to exactly one partition.
pub fn read_partition<P: AsRef<Path>>(
    path: P,
    host: usize,
    n_hosts: usize,
    vocab: &Vocabulary,
    config: TokenizerConfig,
) -> std::io::Result<Vec<Vec<u32>>> {
    assert!(n_hosts > 0 && host < n_hosts);
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let start = snap_to_boundary(&mut file, len * host as u64 / n_hosts as u64, len)?;
    let end = snap_to_boundary(&mut file, len * (host as u64 + 1) / n_hosts as u64, len)?;
    if start >= end {
        return Ok(Vec::new());
    }
    file.seek(SeekFrom::Start(start))?;
    Tokens::new(BufReader::new(file.take(end - start)), &config).encode(vocab)
}

/// Returns the first byte offset at or after `pos` that begins a token
/// (i.e. is preceded by whitespace or the file start). Offsets ≥ `len`
/// return `len`.
fn snap_to_boundary(file: &mut File, pos: u64, len: u64) -> std::io::Result<u64> {
    if pos == 0 || pos >= len {
        return Ok(pos.min(len));
    }
    // Scan forward from pos-1: the partition starts after the first
    // whitespace at or beyond pos-1 (so a token straddling pos belongs
    // to the previous partition).
    file.seek(SeekFrom::Start(pos - 1))?;
    let mut buf = [0u8; 4096];
    let mut offset = pos - 1;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(len);
        }
        for (i, &b) in buf[..n].iter().enumerate() {
            if b.is_ascii_whitespace() {
                return Ok(offset + i as u64 + 1);
            }
        }
        offset += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tmpfile(content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "gw2v_corpus_test_{}_{}.txt",
            std::process::id(),
            content.len()
        ));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn streaming_vocab_matches_in_memory() {
        let text = "the quick brown fox the lazy dog the end";
        let vocab =
            build_vocab_streaming(Cursor::new(text), TokenizerConfig::default(), 1).unwrap();
        assert_eq!(vocab.word_of(0), "the");
        assert_eq!(vocab.count_of(0), 3);
        assert_eq!(vocab.len(), 7);
    }

    #[test]
    fn partitions_cover_all_tokens_exactly_once() {
        let words: Vec<String> = (0..500).map(|i| format!("tok{i:04}")).collect();
        let text = words.join(" ") + "\n";
        let path = tmpfile(&text);
        let vocab = build_vocab_from_path(&path, TokenizerConfig::default(), 1).unwrap();
        for n_hosts in [1usize, 2, 3, 7] {
            let mut seen = Vec::new();
            for h in 0..n_hosts {
                let sents =
                    read_partition(&path, h, n_hosts, &vocab, TokenizerConfig::default()).unwrap();
                for s in sents {
                    for id in s {
                        seen.push(vocab.word_of(id).to_owned());
                    }
                }
            }
            seen.sort();
            let mut want = words.clone();
            want.sort();
            assert_eq!(seen, want, "n_hosts={n_hosts}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_token_is_split_across_partitions() {
        // Long tokens make straddling likely if snapping is wrong.
        let words: Vec<String> = (0..50)
            .map(|i| format!("verylongtoken{i:03}xxxxxxxx"))
            .collect();
        let text = words.join(" ");
        let path = tmpfile(&text);
        let vocab = build_vocab_from_path(&path, TokenizerConfig::default(), 1).unwrap();
        for h in 0..5 {
            let sents = read_partition(&path, h, 5, &vocab, TokenizerConfig::default()).unwrap();
            for s in sents {
                for id in s {
                    // Every decoded token must be a whole vocabulary word.
                    assert!(vocab.word_of(id).starts_with("verylongtoken"));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn more_hosts_than_tokens() {
        let path = tmpfile("a b");
        let vocab = build_vocab_from_path(&path, TokenizerConfig::default(), 1).unwrap();
        let mut total = 0;
        for h in 0..8 {
            total += read_partition(&path, h, 8, &vocab, TokenizerConfig::default())
                .unwrap()
                .iter()
                .map(|s| s.len())
                .sum::<usize>();
        }
        assert_eq!(total, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_then_stream_roundtrip() {
        let path = tmpfile("");
        write_corpus(&path, "alpha beta gamma alpha\n").unwrap();
        let vocab = build_vocab_from_path(&path, TokenizerConfig::default(), 1).unwrap();
        assert_eq!(vocab.total_words(), 4);
        assert_eq!(vocab.count_of(vocab.id_of("alpha").unwrap()), 2);
        std::fs::remove_file(&path).ok();
    }
}
