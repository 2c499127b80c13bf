//! Tokenization and streaming sentence extraction.
//!
//! The corpus format is the same as the Word2Vec C tool's: plain text,
//! words separated by ASCII whitespace, newlines treated like any other
//! separator. "Sentences" for training are fixed-size windows of at most
//! [`TokenizerConfig::max_sentence_len`] words (the paper uses 10 000);
//! this caps the memory the per-sentence buffers need and bounds the
//! context-window wraparound.
//!
//! Every set-up pass — `SentenceStream`, the streaming vocabulary
//! builder, [`Corpus::from_text`](crate::shard::Corpus::from_text) and
//! the file partition reader — runs the one token loop of this module,
//! which hands each token to its client as a `&str` borrowed from the
//! reader's buffer: counting and encoding allocate per distinct word and
//! per sentence, never per token.

use crate::vocab::Vocabulary;
use std::io::{BufRead, ErrorKind};

/// Tokenizer configuration.
#[derive(Clone, Debug)]
pub struct TokenizerConfig {
    /// Convert tokens to ASCII lowercase.
    pub lowercase: bool,
    /// Maximum words per training sentence; longer runs are split. Must
    /// be at least 1.
    pub max_sentence_len: usize,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            lowercase: false,
            max_sentence_len: 10_000,
        }
    }
}

/// Bytes of the reader's buffer checked and split at a time. A reader
/// whose buffer is the whole text, such as a `&[u8]`, would otherwise
/// have the rest of it checked again for every window.
const CHUNK: usize = 1 << 16;

/// The one token loop. It defines, once, that
///
/// - a token is a run of non-ASCII-whitespace bytes;
/// - with `lowercase`, a token is lowercased into one reused buffer, and
///   only if it has an upper-case byte;
/// - a window closes after every `max_sentence_len` raw tokens, whether
///   or not its client keeps them — so the sentence structure of the
///   text (newlines) creates no boundary, matching the C implementation's
///   treatment of a corpus as one long word stream chopped into fixed
///   windows.
///
/// Tokens are read in place: the part of the reader's buffer up to its
/// last whitespace byte is checked as UTF-8 once and split as a `&str`.
/// Only a token cut by the end of the buffer is copied, into a reused
/// buffer, and checked on its own.
pub(crate) struct Tokens<R> {
    reader: R,
    lowercase: bool,
    max_sentence_len: usize,
    /// Raw tokens fed to the open window so far.
    in_window: usize,
    /// The start of a token the reader's buffer ended inside.
    cut: Vec<u8>,
    /// Where a token with an upper-case byte is lowercased.
    lower: String,
}

impl<R: BufRead> Tokens<R> {
    /// Tokens of `reader` under `config`.
    ///
    /// # Panics
    ///
    /// If `config.max_sentence_len` is 0: no window could close.
    pub(crate) fn new(reader: R, config: &TokenizerConfig) -> Self {
        assert!(
            config.max_sentence_len > 0,
            "TokenizerConfig::max_sentence_len must be at least 1"
        );
        Self {
            reader,
            lowercase: config.lowercase,
            max_sentence_len: config.max_sentence_len,
            in_window: 0,
            cut: Vec::new(),
            lower: String::new(),
        }
    }

    /// Feeds the tokens of the next window to `sink` and returns how many
    /// it fed: `max_sentence_len` for a full window, fewer for the last
    /// one, 0 once the input is exhausted.
    ///
    /// A read error, or a token that is not UTF-8, is returned with the
    /// window left open: the next call goes on filling it.
    pub(crate) fn window(&mut self, mut sink: impl FnMut(&str)) -> std::io::Result<usize> {
        while self.in_window < self.max_sentence_len {
            let buf = match self.reader.fill_buf() {
                Ok(buf) => &buf[..buf.len().min(CHUNK)],
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                // End of input ends a cut token.
                if !self.cut.is_empty() {
                    self.feed_cut(&mut sink)?;
                }
                break;
            }
            let first_space = buf.iter().position(u8::is_ascii_whitespace);
            if !self.cut.is_empty() || first_space.is_none() {
                // A cut token goes on up to the first whitespace; a buffer
                // with none is all one token's.
                let end = first_space.unwrap_or(buf.len());
                self.cut.extend_from_slice(&buf[..end]);
                self.reader.consume(end);
                if first_space.is_some() {
                    self.feed_cut(&mut sink)?;
                }
                continue;
            }
            // Every token up to the last whitespace is whole.
            let whole = buf
                .iter()
                .rposition(u8::is_ascii_whitespace)
                .expect("the buffer has a whitespace byte")
                + 1;
            let text = match std::str::from_utf8(&buf[..whole]) {
                Ok(text) => text,
                Err(e) => {
                    // ASCII whitespace never occurs inside a character, so
                    // the tokens before the bad one are UTF-8 on their own.
                    let valid = &buf[..e.valid_up_to()];
                    match valid.iter().rposition(u8::is_ascii_whitespace) {
                        Some(i) => std::str::from_utf8(&valid[..=i])
                            .expect("a prefix of valid UTF-8 ending in ASCII"),
                        None => {
                            let bad_end = e.valid_up_to()
                                + buf[e.valid_up_to()..]
                                    .iter()
                                    .position(u8::is_ascii_whitespace)
                                    .expect("the checked bytes end in whitespace");
                            self.reader.consume(bad_end);
                            return Err(not_utf8());
                        }
                    }
                }
            };
            let mut used = text.len();
            for word in text.split_ascii_whitespace() {
                feed(word, self.lowercase, &mut self.lower, &mut sink);
                self.in_window += 1;
                if self.in_window == self.max_sentence_len {
                    used = word.as_ptr() as usize - text.as_ptr() as usize + word.len();
                    break;
                }
            }
            self.reader.consume(used);
        }
        Ok(std::mem::take(&mut self.in_window))
    }

    /// Feeds the cut token, if it is UTF-8, and empties it.
    fn feed_cut(&mut self, sink: &mut impl FnMut(&str)) -> std::io::Result<()> {
        let fed = match std::str::from_utf8(&self.cut) {
            Ok(word) => {
                feed(word, self.lowercase, &mut self.lower, sink);
                self.in_window += 1;
                Ok(())
            }
            Err(_) => Err(not_utf8()),
        };
        self.cut.clear();
        fed
    }

    /// Encodes every window through `vocab`: out-of-vocabulary words are
    /// dropped and a window left empty is no sentence. Ids are collected
    /// in one reused buffer and each sentence is copied out at its exact
    /// length.
    pub(crate) fn encode(mut self, vocab: &Vocabulary) -> std::io::Result<Vec<Vec<u32>>> {
        let mut sentences = Vec::new();
        let mut ids = Vec::new();
        while self.window(|word| ids.extend(vocab.id_of(word)))? > 0 {
            if !ids.is_empty() {
                sentences.push(ids.clone());
                ids.clear();
            }
        }
        Ok(sentences)
    }
}

/// Hands one token to `sink`, lowercased in `lower` if asked to and if
/// it has an upper-case byte.
fn feed(word: &str, lowercase: bool, lower: &mut String, sink: &mut impl FnMut(&str)) {
    if lowercase && word.bytes().any(|b| b.is_ascii_uppercase()) {
        lower.clear();
        lower.push_str(word);
        lower.make_ascii_lowercase();
        sink(lower);
    } else {
        sink(word);
    }
}

fn not_utf8() -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
}

/// Streams sentences from a reader.
///
/// Each yielded sentence is one window of the token loop: between 1 and
/// `config.max_sentence_len` tokens, as owned strings. Input lines do not
/// end sentences.
///
/// # Panics
///
/// [`SentenceStream::new`] panics if `config.max_sentence_len` is 0.
pub(crate) struct SentenceStream<R: BufRead> {
    tokens: Tokens<R>,
    pending: Vec<String>,
}

impl<R: BufRead> SentenceStream<R> {
    /// Creates a stream over `reader` with the given config.
    pub(crate) fn new(reader: R, config: TokenizerConfig) -> Self {
        Self {
            tokens: Tokens::new(reader, &config),
            pending: Vec::new(),
        }
    }
}

impl<R: BufRead> Iterator for SentenceStream<R> {
    type Item = std::io::Result<Vec<String>>;

    fn next(&mut self) -> Option<Self::Item> {
        let pending = &mut self.pending;
        match self.tokens.window(|word| pending.push(word.to_owned())) {
            Err(e) => Some(Err(e)),
            Ok(_) if pending.is_empty() => None,
            Ok(_) => Some(Ok(std::mem::take(pending))),
        }
    }
}

/// Convenience: collect all sentences from an in-memory text.
pub fn sentences_from_text(text: &str, config: TokenizerConfig) -> Vec<Vec<String>> {
    SentenceStream::new(text.as_bytes(), config)
        .map(|s| s.expect("in-memory read cannot fail"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{build_vocab_streaming, read_partition};
    use crate::shard::Corpus;
    use crate::vocab::VocabBuilder;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn cfg(lowercase: bool, max_sentence_len: usize) -> TokenizerConfig {
        TokenizerConfig {
            lowercase,
            max_sentence_len,
        }
    }

    #[test]
    fn tokens_split_on_ascii_whitespace_only() {
        let sents = sentences_from_text(
            "  the quick\tbrown\r\n fox\x0cjumps a\u{a0}b x\u{3000}y v\x0bt ",
            TokenizerConfig::default(),
        );
        assert_eq!(
            sents,
            vec![vec![
                "the",
                "quick",
                "brown",
                "fox",
                "jumps",
                "a\u{a0}b",
                "x\u{3000}y",
                "v\x0bt"
            ]]
        );
    }

    #[test]
    fn stream_respects_max_len() {
        let sents = sentences_from_text("a b c d e f g", cfg(false, 3));
        assert_eq!(
            sents,
            vec![vec!["a", "b", "c"], vec!["d", "e", "f"], vec!["g"]]
        );
    }

    #[test]
    fn newlines_do_not_break_sentences() {
        let sents = sentences_from_text("a b\nc d\ne", cfg(false, 4));
        assert_eq!(sents, vec![vec!["a", "b", "c", "d"], vec!["e"]]);
    }

    #[test]
    fn lowercase_option() {
        let sents = sentences_from_text("The QUICK Fox Ünï", cfg(true, 10));
        assert_eq!(sents, vec![vec!["the", "quick", "fox", "Ünï"]]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(sentences_from_text("", TokenizerConfig::default()).is_empty());
        assert!(sentences_from_text(" \n\t\n", TokenizerConfig::default()).is_empty());
    }

    #[test]
    fn exact_multiple_of_max_len() {
        let sents = sentences_from_text("a b c d", cfg(false, 2));
        assert_eq!(sents, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn tokens_cut_by_a_one_byte_buffer_stay_whole() {
        let reader = BufReader::with_capacity(1, "ab  c\u{3000}d\ne".as_bytes());
        let sents: Vec<Vec<String>> = SentenceStream::new(reader, cfg(false, 2))
            .map(Result::unwrap)
            .collect();
        assert_eq!(sents, vec![vec!["ab", "c\u{3000}d"], vec!["e"]]);
    }

    #[test]
    fn a_token_that_is_not_utf8_is_an_error_and_the_stream_goes_on() {
        let want = vec![
            Err(ErrorKind::InvalidData),
            Ok(vec!["a".to_owned(), "b".to_owned()]),
            Err(ErrorKind::InvalidData),
            Ok(vec!["d".to_owned()]),
        ];
        let bytes: &[u8] = b"a \xff\xfe b  c\xe3\x80 d";
        for capacity in [1, 2, 3, 5, 64] {
            let reader = BufReader::with_capacity(capacity, bytes);
            let got: Vec<_> = SentenceStream::new(reader, cfg(false, 2))
                .map(|s| s.map_err(|e| e.kind()))
                .collect();
            assert_eq!(got, want, "buffer of {capacity}");
        }
    }

    #[test]
    #[should_panic(expected = "TokenizerConfig::max_sentence_len must be at least 1")]
    fn zero_max_sentence_len_is_refused_not_a_hang() {
        sentences_from_text("a b", cfg(false, 0));
    }

    /// The tokenizer as it was before the token loop, composed with
    /// vocabulary counting and encoding the way every set-up pass used to
    /// be: one line at a time, one owned `String` per token, windows split
    /// off the pending list, and every window held before it is encoded.
    fn oracle_sentences(text: &str, config: &TokenizerConfig) -> Vec<Vec<String>> {
        let max = config.max_sentence_len;
        let (mut out, mut pending) = (Vec::new(), Vec::<String>::new());
        for line in text.split_inclusive('\n') {
            pending.extend(line.split_ascii_whitespace().map(|tok| {
                if config.lowercase {
                    tok.to_ascii_lowercase()
                } else {
                    tok.to_owned()
                }
            }));
            while pending.len() >= max {
                let rest = pending.split_off(max);
                out.push(std::mem::replace(&mut pending, rest));
            }
        }
        if !pending.is_empty() {
            out.push(pending);
        }
        out
    }

    fn oracle_vocab(sentences: &[Vec<String>], min_count: u64) -> Vocabulary {
        let mut b = VocabBuilder::new();
        for s in sentences {
            b.add_sentence(s);
        }
        b.build(min_count)
    }

    fn oracle_encode(sentences: &[Vec<String>], vocab: &Vocabulary) -> Vec<Vec<u32>> {
        sentences
            .iter()
            .map(|s| vocab.encode_sentence(s))
            .filter(|s| !s.is_empty())
            .collect()
    }

    /// Text pieces: words in both cases, words that stay out of the
    /// vocabulary, every ASCII whitespace byte, `\x0b` (not ASCII
    /// whitespace) and U+00A0 / U+3000 inside tokens. Pieces abut, so
    /// words also run together into longer tokens.
    const PIECES: [&str; 20] = [
        "the",
        "The",
        "THE",
        "fox",
        "Fox",
        "dog",
        "ünï",
        "Ünï",
        "a\u{a0}b",
        "x\u{3000}y",
        "oovX",
        "zz",
        " ",
        "\t",
        "\n",
        "\r",
        "\x0c",
        "  ",
        "\r\n",
        "v\x0bt",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every client of the token loop equals the oracle: the
        /// sentence stream (through a reader buffer as small as one
        /// byte), the streaming vocabulary, `Corpus::from_text` and a
        /// one-host file partition.
        #[test]
        fn token_loop_clients_equal_the_collect_then_encode_oracle(
            pieces in proptest::collection::vec(0usize..PIECES.len(), 0..120),
            max_sentence_len in 1usize..12,
            lowercase in any::<bool>(),
            min_count in 1u64..4,
            capacity in 1usize..24,
        ) {
            let text: String = pieces.iter().map(|&i| PIECES[i]).collect();
            let config = cfg(lowercase, max_sentence_len);
            let want = oracle_sentences(&text, &config);

            let reader = BufReader::with_capacity(capacity, text.as_bytes());
            let got: Vec<Vec<String>> = SentenceStream::new(reader, config.clone())
                .map(Result::unwrap)
                .collect();
            prop_assert_eq!(&got, &want);

            let reader = BufReader::with_capacity(capacity, text.as_bytes());
            let vocab = build_vocab_streaming(reader, config.clone(), min_count).unwrap();
            let want_vocab = oracle_vocab(&want, min_count);
            prop_assert_eq!(vocab.entries(), want_vocab.entries());
            prop_assert_eq!(vocab.total_words(), want_vocab.total_words());

            let want_ids = oracle_encode(&want, &vocab);
            let corpus = Corpus::from_text(&text, &vocab, config.clone());
            prop_assert_eq!(corpus.sentences(), want_ids.as_slice());

            let path = std::env::temp_dir().join(format!(
                "gw2v_token_loop_{}_{:?}.txt",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::write(&path, &text).unwrap();
            let part = read_partition(&path, 0, 1, &vocab, config);
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(part.unwrap(), want_ids);
        }
    }
}
