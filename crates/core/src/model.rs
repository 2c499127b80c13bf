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
use gw2v_util::split;
use std::io::{BufRead, Write};

/// Rows [`Word2VecModel::load_text`] reserves on a header's word.
const PREALLOC_ROWS: usize = 1 << 16;
/// Floats per row it reserves for them.
const PREALLOC_DIM: usize = 256;

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
    /// saved loads back.
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
        for r in 0..rows {
            line.clear();
            if input.read_line(&mut line)? == 0 {
                return Err(parse_err("truncated file"));
            }
            let mut parts = split::str_words(&line);
            let word = parts.next().ok_or_else(|| parse_err("missing word"))?;
            words.push(word.to_owned());
            for i in 0..dim {
                let tok = parts
                    .next()
                    .ok_or_else(|| parse_err(&format!("row {r} short at {i}")))?;
                data.push(parse_f32(tok).ok_or_else(|| parse_err("bad float"))?);
            }
        }
        let syn0 = FlatMatrix::from_vec(data, rows, dim);
        let syn1neg = FlatMatrix::zeros(rows, dim);
        Ok((words, Word2VecModel { syn0, syn1neg }))
    }
}

/// `tok.parse::<f32>()`, bit for bit, with a fast path for the forms
/// [`Word2VecModel::save_text`] writes.
fn parse_f32(tok: &str) -> Option<f32> {
    parse_f32_fast(tok.as_bytes()).or_else(|| tok.parse().ok())
}

/// Exact powers of ten in `f64`: 10²² is the last one.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The correctly rounded `f32` of `[-]digits[.digits]`, or `None` for
/// [`parse_f32`]'s slow path.
///
/// With a mantissa `m < 2^53` and `k ≤ 22` fraction digits, `m` and
/// `10^k` are exact in `f64`, so one division rounds `m / 10^k` to the
/// nearest `f64`. Rounding that to `f32` is rounding the decimal to
/// `f32` unless an `f32` midpoint lies between the decimal and the
/// `f64`; the `f64` is the nearest one to the decimal and midpoints are
/// `f64`s, so the only such case is an `f64` exactly on a midpoint, and
/// that goes to the slow path. A midpoint is an `f64` whose 29 low
/// fraction bits are `1 << 28`: every nonzero quotient lies in
/// `[10^-22, 2^53)`, inside the normal `f32` range.
fn parse_f32_fast(bytes: &[u8]) -> Option<f32> {
    let (negative, digits) = match bytes {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, bytes),
    };
    let (mut mantissa, mut int_digits, mut fraction_digits) = (0u64, 0usize, None::<usize>);
    for &b in digits {
        match b {
            b'0'..=b'9' => {
                mantissa = mantissa * 10 + u64::from(b - b'0');
                if mantissa >= 1 << 53 {
                    return None;
                }
                match &mut fraction_digits {
                    Some(k) => *k += 1,
                    None => int_digits += 1,
                }
            }
            b'.' if fraction_digits.is_none() => fraction_digits = Some(0),
            _ => return None,
        }
    }
    let k = fraction_digits.unwrap_or(0);
    if int_digits == 0 || fraction_digits == Some(0) || k >= POW10.len() {
        return None;
    }
    let quotient = mantissa as f64 / POW10[k];
    const LOW: u64 = (1 << 29) - 1;
    if quotient.to_bits() & LOW == 1 << 28 {
        return None;
    }
    let x = quotient as f32;
    Some(if negative { -x } else { x })
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

    /// `parse_f32` against `str::parse`, bit for bit (NaN payloads too).
    fn assert_parses_like_str(tok: &str) {
        let want = tok.parse::<f32>().ok().map(f32::to_bits);
        assert_eq!(parse_f32(tok).map(f32::to_bits), want, "{tok:?}");
    }

    #[test]
    fn float_fast_path_equals_str_parse_on_strided_bit_patterns() {
        // A prime stride visits every exponent and scatters mantissas;
        // each pattern in the three forms a model file may hold.
        let (mut fast, mut all) = (0, 0);
        for bits in (0..=u32::MAX).step_by(10_007) {
            let x = f32::from_bits(bits);
            for tok in [format!("{x}"), format!("{x:.6}"), format!("{x:.9}")] {
                assert_parses_like_str(&tok);
                fast += parse_f32_fast(tok.as_bytes()).is_some() as usize;
                all += 1;
            }
        }
        // Not vacuously: most of them take the fast path.
        assert!(fast > all / 3, "{fast} of {all}");
    }

    #[test]
    fn float_forms_outside_the_fast_path_parse_like_str() {
        for tok in [
            "-0", "0", "0.", ".5", "-.5", "+1", "1e5", "1E-3", "inf", "-inf", "NaN", "nan", "-",
            "", ".", "1.2.3", "0x10", "1_0", " 1", "١",
        ] {
            assert_parses_like_str(tok);
        }
        assert_eq!(parse_f32("-0").map(f32::to_bits), Some((-0.0f32).to_bits()));
        // 17- and 20-digit mantissas: below and above 2^53.
        for tok in [
            "1.2345678901234567",
            "-9007199254740991",
            "9007199254740992",
            "12345678901234567890",
            "0.12345678901234567890",
        ] {
            assert_parses_like_str(tok);
        }
        assert!(parse_f32_fast(b"-9007199254740991").is_some());
        assert!(parse_f32_fast(b"9007199254740992").is_none());
        // 22 fraction digits take the fast path, 23 do not.
        let (k22, k23) = ("0.0000000000000000000001", "0.00000000000000000000001");
        assert!(parse_f32_fast(k22.as_bytes()).is_some());
        assert!(parse_f32_fast(k23.as_bytes()).is_none());
        for tok in [k22, k23, "1.000000059604644775390625"] {
            assert_parses_like_str(tok);
        }
    }

    #[test]
    fn an_f64_on_an_f32_midpoint_takes_the_slow_path() {
        // Found by search over decimals of f32 midpoints: the quotient
        // rounds to the midpoint exactly, and rounding that again to f32
        // goes the wrong way.
        let tok = "0.001003017823677510";
        let quotient = 1_003_017_823_677_510_f64 / 1e18;
        let (lo, hi) = (0.0010030178_f32, 0.0010030178_f32.next_up());
        let midpoint = (f64::from(lo) + f64::from(hi)) / 2.0;
        assert_eq!(quotient, midpoint);
        let exact: f32 = tok.parse().unwrap();
        assert_ne!((quotient as f32).to_bits(), exact.to_bits());
        assert_eq!(parse_f32_fast(tok.as_bytes()), None);
        assert_parses_like_str(tok);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Word2VecModel::load_text("".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("2 3\nw 1.0 2.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw 1.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw x y".as_bytes()).is_err());
    }
}
