//! Model storage and I/O.
//!
//! A Word2Vec model is "two vectors of the same size for each word: an
//! embedding vector e and a training vector t" (paper §2.1). Both layers
//! live in row-major [`FlatMatrix`]es indexed by vocabulary id.
//! Initialization matches the C implementation: `syn0` uniform in
//! `[−0.5/dim, 0.5/dim)`, `syn1neg` zero.

use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use gw2v_util::simd::kernels;
use gw2v_util::split;
use std::io::{BufRead, Write};

/// Rows [`Word2VecModel::load_text`] reserves on a header's word.
const PREALLOC_ROWS: usize = 1 << 16;
/// Floats per row it reserves for them.
const PREALLOC_DIM: usize = 256;
/// What it appends to each row's line: the bytes
/// [`Kernels::parse_f32`](gw2v_util::simd::Kernels::parse_f32) reads in
/// one load.
const FIELD_PAD: &str = "                ";

/// A trained (or in-training) Word2Vec model.
#[derive(Clone, Debug, PartialEq)]
pub struct Word2VecModel {
    /// Embedding layer (`syn0`): the vectors users consume.
    pub syn0: FlatMatrix,
    /// Training layer (`syn1neg`): the output-side vectors.
    pub syn1neg: FlatMatrix,
}

impl Word2VecModel {
    /// Seed-deterministic initialization (C-compatible scheme).
    ///
    /// All replicas of a distributed run call this with the same seed so
    /// they start identical (paper §4.2 — the model is replicated).
    pub fn init(n_words: usize, dim: usize, seed: u64) -> Self {
        let mut syn0 = FlatMatrix::zeros(n_words, dim);
        let mut rng = Xoshiro256::new(SplitMix64::new(seed).derive(0xE0));
        for r in 0..n_words {
            let row = syn0.row_mut(r);
            for v in row {
                *v = (rng.next_f32() - 0.5) / dim as f32;
            }
        }
        Self {
            syn0,
            syn1neg: FlatMatrix::zeros(n_words, dim),
        }
    }

    /// Wraps existing layers.
    pub fn from_layers(syn0: FlatMatrix, syn1neg: FlatMatrix) -> Self {
        assert_eq!(syn0.rows(), syn1neg.rows());
        assert_eq!(syn0.dim(), syn1neg.dim());
        Self { syn0, syn1neg }
    }

    /// Number of words.
    pub fn n_words(&self) -> usize {
        self.syn0.rows()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.syn0.dim()
    }

    /// The embedding vector of word `w` (what downstream tasks consume).
    pub fn embedding(&self, w: u32) -> &[f32] {
        self.syn0.row(w as usize)
    }

    /// Writes the embeddings in the word2vec *text* format: a `rows dim`
    /// header line, then one `word v1 v2 …` line per word, in id order —
    /// loadable by gensim's `KeyedVectors.load_word2vec_format`.
    pub fn save_text<W: Write>(&self, vocab: &Vocabulary, out: &mut W) -> std::io::Result<()> {
        writeln!(out, "{} {}", self.n_words(), self.dim())?;
        for id in 0..self.n_words() as u32 {
            write!(out, "{}", vocab.word_of(id))?;
            for v in self.embedding(id) {
                write!(out, " {v}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Loads embeddings from the word2vec text format, returning the
    /// words (in file order) and a model whose `syn1neg` is zero.
    ///
    /// Fields are split on ASCII whitespace by the splitter the corpus
    /// tokenizer runs ([`gw2v_util::split`]), so any word a trainer
    /// saved loads back, and each float field is read in place by
    /// [`Kernels::parse_f32`](gw2v_util::simd::Kernels::parse_f32): the
    /// bits `str::parse` reads.
    /// Rows are read through one reused line buffer; each word is the
    /// only allocation a row makes.
    pub fn load_text<R: BufRead>(mut input: R) -> std::io::Result<(Vec<String>, Word2VecModel)> {
        let mut line = String::new();
        if input.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "empty file",
            ));
        }
        let mut it = split::str_words(&line);
        let parse_err =
            |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
        let rows: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row count"))?
            .parse()
            .map_err(|_| parse_err("bad row count"))?;
        let dim: usize = it
            .next()
            .ok_or_else(|| parse_err("missing dim"))?
            .parse()
            .map_err(|_| parse_err("bad dim"))?;
        // The header is a claim, not a size: it must describe a table
        // that can exist, and it reserves at most `PREALLOC_ROWS` rows of
        // `PREALLOC_DIM` floats. Beyond that the vectors grow as rows
        // actually arrive.
        rows.checked_mul(dim)
            .and_then(|n| n.checked_mul(2 * std::mem::size_of::<f32>()))
            .filter(|&bytes| bytes <= isize::MAX as usize)
            .ok_or_else(|| parse_err("header overflows"))?;
        let mut words = Vec::with_capacity(rows.min(PREALLOC_ROWS));
        let mut data: Vec<f32> = Vec::with_capacity((rows * dim).min(PREALLOC_ROWS * PREALLOC_DIM));
        let parse = kernels().parse_f32;
        for r in 0..rows {
            line.clear();
            if input.read_line(&mut line)? == 0 {
                return Err(parse_err("truncated file"));
            }
            // Whitespace the split ignores, so the 16 bytes from any
            // field's start lie inside the line.
            line.push_str(FIELD_PAD);
            let bytes = line.as_bytes();
            let mut parts = split::str_words(&line);
            let word = parts.next().ok_or_else(|| parse_err("missing word"))?;
            words.push(word.to_owned());
            for i in 0..dim {
                let tok = parts
                    .next()
                    .ok_or_else(|| parse_err(&format!("row {r} short at {i}")))?;
                let at = tok.as_ptr() as usize - bytes.as_ptr() as usize;
                data.push(parse(&bytes[at..], tok.len()).ok_or_else(|| parse_err("bad float"))?);
            }
        }
        let syn0 = FlatMatrix::from_vec(data, rows, dim);
        let syn1neg = FlatMatrix::zeros(rows, dim);
        Ok((words, Word2VecModel { syn0, syn1neg }))
    }
}

/// The `f32` of the token of `len` bytes at the start of `tail`, bit for
/// bit as `str::parse` reads it (`None` where that fails or `len` does
/// not end on a character): the parse [`Word2VecModel::load_text`]
/// gives each float field.
pub fn parse_f32_at(tail: &str, len: usize) -> Option<f32> {
    (kernels().parse_f32)(tail.as_bytes(), len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_corpus::vocab::VocabBuilder;

    fn tiny_vocab() -> Vocabulary {
        let mut b = VocabBuilder::new();
        for t in "apple apple banana cherry".split_whitespace() {
            b.add_token(t);
        }
        b.build(1)
    }

    #[test]
    fn init_is_deterministic_and_in_range() {
        let a = Word2VecModel::init(10, 8, 42);
        let b = Word2VecModel::init(10, 8, 42);
        assert_eq!(a, b);
        let c = Word2VecModel::init(10, 8, 43);
        assert_ne!(a, c);
        let bound = 0.5 / 8.0;
        for r in 0..10 {
            for &v in a.syn0.row(r) {
                assert!(v.abs() <= bound, "{v}");
            }
            assert!(a.syn1neg.row(r).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn init_rows_differ() {
        let m = Word2VecModel::init(4, 16, 7);
        assert_ne!(m.syn0.row(0), m.syn0.row(1));
    }

    #[test]
    fn text_roundtrip() {
        let vocab = tiny_vocab();
        let model = Word2VecModel::init(vocab.len(), 4, 9);
        let mut buf = Vec::new();
        model.save_text(&vocab, &mut buf).unwrap();
        let (words, loaded) = Word2VecModel::load_text(buf.as_slice()).unwrap();
        assert_eq!(words.len(), vocab.len());
        assert_eq!(words[0], vocab.word_of(0));
        assert_eq!(loaded.dim(), 4);
        for r in 0..vocab.len() {
            for (a, b) in loaded.syn0.row(r).iter().zip(model.syn0.row(r)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn load_trusts_the_file_not_the_header() {
        let err = |text: &str| {
            let e = Word2VecModel::load_text(text.as_bytes()).unwrap_err();
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{text:?}");
            e.to_string()
        };
        // 2.4 PB and 72 GB of zeros as the headers size them.
        assert_eq!(err("99999999999999 64\nw 1 2\n"), "row 0 short at 2");
        assert_eq!(err("99999999999999 2\nw 1 2\n"), "truncated file");
        assert_eq!(err("3000000000 4000000000\nw 1 2\n"), "header overflows");
        assert_eq!(
            err(&format!("{} 2\nw 1 2\n", usize::MAX)),
            "header overflows"
        );
        assert_eq!(err("3 2\na 1 2\nb 3 4\n"), "truncated file");
        // No rows is a model, whatever dimension it claims.
        let (words, model) = Word2VecModel::load_text("0 99999999999999\n".as_bytes()).unwrap();
        assert!(words.is_empty());
        assert_eq!((model.n_words(), model.dim()), (0, 99999999999999));
    }

    #[test]
    fn words_split_on_ascii_whitespace_only() {
        let text = "2 2\neps\u{3000}ilon 0.5 -1\r\na\u{a0}b\u{85} 2 .25\n";
        let (words, model) = Word2VecModel::load_text(text.as_bytes()).unwrap();
        assert_eq!(words, ["eps\u{3000}ilon", "a\u{a0}b\u{85}"]);
        assert_eq!(model.syn0.as_slice(), [0.5, -1.0, 2.0, 0.25]);
    }

    /// Every float form a model file may hold, loaded through rows of
    /// four fields: tokens of 15–18 bytes either side of the 16 bytes a
    /// field is read in, signs, forms outside the fast path, and 22 and 23
    /// fraction digits.
    const FLOAT_FORMS: [&str; 36] = [
        "0.1234567890123",
        "-0.123456789012",
        "123456789012345",
        "-12345678901234",
        "0.12345678901234",
        "-0.1234567890123",
        "1234567890123456",
        "-123456789012345",
        "9007199254740991",
        "9007199254740992",
        "-9007199254740993",
        "0.123456789012345",
        "-0.12345678901234",
        "12345678901234567",
        "0.1234567890123456",
        "-0.123456789012345",
        "-12345678901234567",
        "-0.00000000000001",
        "-0",
        "0",
        "7",
        "+1",
        "1e-5",
        ".5",
        "5.",
        "-0.0",
        "0.0000000000000000000001",
        "0.00000000000000000000001",
        "0.001003017823677510",
        "-1.000000059604644775390625",
        "3.4028235e38",
        "1E-45",
        "inf",
        "-inf",
        "NaN",
        "12345678.1234567",
    ];

    #[test]
    fn load_text_reads_every_float_form_like_str_parse() {
        // Rows end in `\n`, `\r\n` or nothing (the last); fields are cut by
        // spaces, tabs, form feeds and runs of them; fields after the
        // fourth are ignored, whatever they hold.
        let rows: Vec<&[&str]> = FLOAT_FORMS.chunks(4).collect();
        let mut text = format!("{} 4\n", rows.len());
        for (r, fields) in rows.iter().enumerate() {
            let sep = [" ", "\t", " \t ", "\x0C"][r % 4];
            text += &format!("w{r}{sep}{}", fields.join(sep));
            if r % 3 == 1 {
                text += " 1 x \u{e9}";
            }
            if r + 1 < rows.len() {
                text += ["\n", "\r\n"][r % 2];
            }
        }
        let (words, model) = Word2VecModel::load_text(text.as_bytes()).unwrap();
        assert_eq!(words.len(), rows.len());
        assert!(words.iter().enumerate().all(|(r, w)| *w == format!("w{r}")));
        let want: Vec<u32> = FLOAT_FORMS
            .iter()
            .map(|tok| tok.parse::<f32>().unwrap().to_bits())
            .collect();
        let got: Vec<u32> = model.syn0.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // Each form alone, as the last field of a last row with no `\n`.
        for tok in FLOAT_FORMS {
            let (_, model) = Word2VecModel::load_text(format!("1 1\nw {tok}").as_bytes()).unwrap();
            let want = tok.parse::<f32>().unwrap().to_bits();
            assert_eq!(model.syn0.as_slice()[0].to_bits(), want, "{tok:?}");
        }
    }

    #[test]
    fn load_text_errors_keep_their_kinds_and_messages() {
        let err = |text: &[u8]| {
            let e = Word2VecModel::load_text(text).unwrap_err();
            (e.kind(), e.to_string())
        };
        let bad = |m: &str| (std::io::ErrorKind::InvalidData, m.to_owned());
        // `read_line` checks the whole line, so a non-UTF-8 byte fails the
        // load wherever it stands: in a word, a float, or a field past the
        // last one read.
        let utf8 = bad("stream did not contain valid UTF-8");
        assert_eq!(err(b"1 2\nw\xff 1 2\n"), utf8);
        assert_eq!(err(b"1 2\nw 1\xff 2\n"), utf8);
        assert_eq!(err(b"1 2\nw 1 2 \xff\n"), utf8);
        assert_eq!(err(b"1 2\nw 1 2 3\xff"), utf8);
        assert_eq!(err(b"2 3\na 1 2 3\nb 1 2\n"), bad("row 1 short at 2"));
        assert_eq!(err(b"1 3\na\n"), bad("row 0 short at 0"));
        for tok in [
            "x", "1..5", "1.5.", "--1", "0x1", "1,5", "\u{e9}", "1\u{e9}",
        ] {
            let text = format!("1 2\nw 1 {tok}\n");
            assert_eq!(err(text.as_bytes()), bad("bad float"), "{tok:?}");
        }
        assert_eq!(err(b"2 2\na 1 2\n"), bad("truncated file"));
        assert_eq!(err(b"2 2\na 1 2"), bad("truncated file"));
        assert_eq!(err(b"1 2\n\n"), bad("missing word"));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Word2VecModel::load_text("".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("2 3\nw 1.0 2.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw 1.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw x y".as_bytes()).is_err());
    }
}
