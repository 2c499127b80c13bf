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
    pub fn load_text<R: BufRead>(input: R) -> std::io::Result<(Vec<String>, Word2VecModel)> {
        let mut lines = input.lines();
        let header = lines.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "empty file")
        })??;
        let mut it = header.split_whitespace();
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
            let line = lines.next().ok_or_else(|| parse_err("truncated file"))??;
            let mut parts = line.split_whitespace();
            let word = parts.next().ok_or_else(|| parse_err("missing word"))?;
            words.push(word.to_owned());
            for i in 0..dim {
                let tok = parts
                    .next()
                    .ok_or_else(|| parse_err(&format!("row {r} short at {i}")))?;
                data.push(tok.parse().map_err(|_| parse_err("bad float"))?);
            }
        }
        let syn0 = FlatMatrix::from_vec(data, rows, dim);
        let syn1neg = FlatMatrix::zeros(rows, dim);
        Ok((words, Word2VecModel { syn0, syn1neg }))
    }
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
    fn load_rejects_garbage() {
        assert!(Word2VecModel::load_text("".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("2 3\nw 1.0 2.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw 1.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw x y".as_bytes()).is_err());
    }
}
