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
use gw2v_util::shortest::push_f32;
use gw2v_util::simd::kernels;
use std::io::{BufRead, ErrorKind, Read, Write};

/// Rows [`Word2VecModel::load_text`] reserves on a header's word.
const PREALLOC_ROWS: usize = 1 << 16;
/// Floats per row it reserves for them.
const PREALLOC_DIM: usize = 256;
/// Bytes it asks of its reader at a time: more than a `BufReader`'s
/// buffer, which hands so large a read straight to the file.
const READ_CHUNK: usize = 256 << 10;
/// Bytes it keeps readable past the last one read: what
/// [`Kernels::parse_f32`](gw2v_util::simd::Kernels::parse_f32) reads in
/// one load.
const FIELD_PAD: usize = 16;
/// Bytes [`Word2VecModel::save_text`] gathers before each write.
const WRITE_CHUNK: usize = 64 << 10;
/// Room it leaves for a space and one float's text (`{}` writes fewer
/// than 50 bytes for any `f32`), so a row that fits never grows the
/// buffer.
const FIELD_MAX: usize = 64;

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
    ///
    /// Each float is the text `{}` gives it (the shortest decimal that
    /// reads back to it), written by [`push_f32`]. Rows are formatted
    /// into one buffer of about 64 KB, written whole each time the next
    /// row might not fit.
    pub fn save_text<W: Write>(&self, vocab: &Vocabulary, out: &mut W) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(WRITE_CHUNK);
        writeln!(buf, "{} {}", self.n_words(), self.dim())?;
        let fields = self.dim() * FIELD_MAX;
        for id in 0..self.n_words() as u32 {
            let word = vocab.word_of(id);
            if buf.len() + word.len() + fields + 1 > buf.capacity() {
                out.write_all(&buf)?;
                buf.clear();
            }
            buf.extend_from_slice(word.as_bytes());
            for &v in self.embedding(id) {
                buf.push(b' ');
                push_f32(&mut buf, v);
            }
            buf.push(b'\n');
        }
        out.write_all(&buf)
    }

    /// Loads embeddings from the word2vec text format, returning the
    /// words (in file order) and a model whose `syn1neg` is zero.
    ///
    /// The file is read 256 KB at a time into one reused buffer, and
    /// every complete row is parsed where it lies; only a row the
    /// buffer's end cuts moves to its front before the next read.
    /// Fields end at ASCII whitespace, as `str::split_ascii_whitespace`
    /// ends them, so any word a trainer saved loads back. Each float
    /// field is read by
    /// [`Kernels::parse_f32`](gw2v_util::simd::Kernels::parse_f32), which
    /// finds the field's end itself: the bits `str::parse` reads. Fields
    /// past the `dim`-th are ignored, and bytes after the last counted
    /// row are never read or checked. A row holding a byte that is not
    /// UTF-8 fails as `read_line` fails it. Each word is the only
    /// allocation a row makes.
    pub fn load_text<R: BufRead>(input: R) -> std::io::Result<(Vec<String>, Word2VecModel)> {
        let mut text = Rows::new(input);
        if !text.next_row()? {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "empty file"));
        }
        let parse_err = |m: &str| std::io::Error::new(ErrorKind::InvalidData, m.to_owned());
        let header = text.take_line();
        let mut it = header.split_ascii_whitespace();
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
        // Space, `\t`, `\x0C` and `\r`: the ASCII whitespace that does
        // not end a row.
        let blank = |b: u8| b != b'\n' && b.is_ascii_whitespace();
        for r in 0..rows {
            if !text.next_row()? {
                return Err(parse_err("truncated file"));
            }
            // The row ends in a `\n` inside `buf`, and 16 bytes past any
            // of its bytes are readable.
            let buf = &text.buf[..];
            let mut at = text.pos;
            while blank(buf[at]) {
                at += 1;
            }
            let start = at;
            while !buf[at].is_ascii_whitespace() {
                at += 1;
            }
            if at == start {
                return Err(parse_err("missing word"));
            }
            // `next_row` checked the row, so this never fails.
            let word = std::str::from_utf8(&buf[start..at]).map_err(|_| invalid_utf8())?;
            words.push(word.to_owned());
            for i in 0..dim {
                while blank(buf[at]) {
                    at += 1;
                }
                if buf[at] == b'\n' {
                    return Err(parse_err(&format!("row {r} short at {i}")));
                }
                let (x, len) = parse(&buf[at..]);
                data.push(x.ok_or_else(|| parse_err("bad float"))?);
                at += len;
            }
            // Past any further fields to the row's `\n`.
            while buf[at] != b'\n' {
                at += 1;
            }
            text.pos = at + 1;
        }
        let syn0 = FlatMatrix::from_vec(data, rows, dim);
        let syn1neg = FlatMatrix::zeros(rows, dim);
        Ok((words, Word2VecModel { syn0, syn1neg }))
    }
}

/// The error `read_line` gives a line that is not UTF-8.
fn invalid_utf8() -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
}

/// The rows of a text file, read in chunks into one buffer and handed
/// out where they lie.
///
/// `buf[pos..rows_end]` holds complete rows, each ending in `\n` (the
/// last row of a file that does not end in one gets a `\n` written past
/// its end), `buf[rows_end..end]` the start of a row not yet complete,
/// and at least [`FIELD_PAD`] bytes follow `end`.
struct Rows<R> {
    input: R,
    buf: Vec<u8>,
    /// Start of the next row.
    pos: usize,
    /// End of the complete rows.
    rows_end: usize,
    /// End of the bytes read.
    end: usize,
    /// Start of the first complete row that is not UTF-8, if any.
    bad_row: Option<usize>,
    /// True once the reader has returned 0.
    eof: bool,
}

impl<R: Read> Rows<R> {
    fn new(input: R) -> Self {
        Self {
            input,
            buf: vec![0; READ_CHUNK + FIELD_PAD],
            pos: 0,
            rows_end: 0,
            end: 0,
            bad_row: None,
            eof: false,
        }
    }

    /// Makes `pos` the start of a complete row, reading on where the
    /// buffer holds none: false at the end of the input, the UTF-8 error
    /// for a row that is not UTF-8.
    fn next_row(&mut self) -> std::io::Result<bool> {
        if self.pos == self.rows_end && !self.fill()? {
            return Ok(false);
        }
        if self.bad_row == Some(self.pos) {
            return Err(invalid_utf8());
        }
        Ok(true)
    }

    /// Moves the cut row to the front and reads until a row is complete;
    /// false if the input ends first with no byte of one.
    fn fill(&mut self) -> std::io::Result<bool> {
        if self.eof {
            return Ok(false);
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        loop {
            let room = self.buf.len() - FIELD_PAD;
            if self.end == room {
                // A row longer than the buffer: double it.
                self.buf.resize(2 * room + FIELD_PAD, 0);
                continue;
            }
            let n = match self.input.read(&mut self.buf[self.end..room]) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let new = self.end..self.end + n;
            self.end += n;
            if n == 0 {
                self.eof = true;
                if self.end == 0 {
                    return Ok(false);
                }
                self.buf[self.end] = b'\n';
                self.rows_end = self.end + 1;
                break;
            }
            if let Some(i) = self.buf[new.clone()].iter().rposition(|&b| b == b'\n') {
                self.rows_end = new.start + i + 1;
                break;
            }
        }
        // One check of the new rows; a failure is reported when the row
        // that holds it is reached, so rows before it load as they would.
        let rows = &self.buf[..self.rows_end];
        self.bad_row = std::str::from_utf8(rows).err().map(|e| {
            let bad = e.valid_up_to();
            rows[..bad]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1)
        });
        Ok(true)
    }

    /// The row at `pos` without its line ending's `\n`, moving past it.
    fn take_line(&mut self) -> &str {
        let start = self.pos;
        let len = self.buf[start..self.rows_end]
            .iter()
            .position(|&b| b == b'\n')
            .expect("a complete row ends in a newline");
        self.pos = start + len + 1;
        std::str::from_utf8(&self.buf[start..start + len]).expect("next_row checked the row")
    }
}

/// The `f32` of the token at the start of `tail` (its bytes up to the
/// first ASCII whitespace), bit for bit as `str::parse` reads it (`None`
/// where that fails), and the token's length: the parse
/// [`Word2VecModel::load_text`] gives each float field.
pub fn parse_f32_at(tail: &[u8]) -> (Option<f32>, usize) {
    (kernels().parse_f32)(tail)
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
        // A counted row is checked whole, so a non-UTF-8 byte fails the
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
    fn bytes_after_the_last_counted_row_are_never_read() {
        for tail in [
            &b"x\xff\xfe 1..5\n"[..],
            b"\xff",
            b"w 1 2\n\xc3",
            b"   \n\n",
            b"\xe2\x82",
        ] {
            let mut text = b"2 2\na 1 2\r\nb 3 4\n".to_vec();
            text.extend_from_slice(tail);
            let (words, model) = Word2VecModel::load_text(text.as_slice()).unwrap();
            assert_eq!(words, ["a", "b"], "{tail:?}");
            assert_eq!(model.syn0.as_slice(), [1.0, 2.0, 3.0, 4.0], "{tail:?}");
        }
    }

    #[test]
    fn a_last_line_of_only_whitespace_is_a_missing_word() {
        for text in ["1 2\n   ", "1 2\n \t\r", "2 2\na 1 2\n \x0C "] {
            let e = Word2VecModel::load_text(text.as_bytes()).unwrap_err();
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{text:?}");
            assert_eq!(e.to_string(), "missing word", "{text:?}");
        }
    }

    #[test]
    fn a_word_and_a_row_longer_than_the_read_buffer_load() {
        // A 300 000-byte word, then a 40 000-float row of about 440 KB
        // with runs of whitespace between its fields, then a short row.
        let word = "x".repeat(300_000);
        let dim = 40_000;
        let floats: Vec<f32> = (0..dim).map(|i| (i as f32 - 20_000.5) / 7.0).collect();
        let mut text = format!("3 {dim}\n{word}");
        for v in &floats {
            text += &format!(" {v}");
        }
        text += "\nlong";
        for (i, v) in floats.iter().enumerate() {
            text += [" ", "\t", "   "][i % 3];
            text += &format!("{v}");
        }
        text += "\r\nshort";
        for i in 0..dim {
            text += &format!(" {}", i % 10);
        }
        let (words, model) = Word2VecModel::load_text(text.as_bytes()).unwrap();
        assert_eq!(words, [word.as_str(), "long", "short"]);
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(model.syn0.row(0)), bits(&floats));
        assert_eq!(bits(model.syn0.row(1)), bits(&floats));
        let digits: Vec<f32> = (0..dim).map(|i| (i % 10) as f32).collect();
        assert_eq!(model.syn0.row(2), digits.as_slice());
    }

    /// A reader that hands out 1–7 bytes a call, cycling through them.
    struct Trickle<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn trickled(text: &[u8]) -> std::io::Result<(Vec<String>, Word2VecModel)> {
        Word2VecModel::load_text(std::io::BufReader::new(Trickle {
            bytes: text,
            calls: 0,
        }))
    }

    #[test]
    fn a_reader_of_a_few_bytes_a_call_loads_the_same_model() {
        let vocab = tiny_vocab();
        let mut saved = Vec::new();
        Word2VecModel::init(vocab.len(), 37, 5)
            .save_text(&vocab, &mut saved)
            .unwrap();
        let mut forms = String::from("9 4\n");
        for (r, fields) in FLOAT_FORMS.chunks(4).enumerate() {
            forms += &format!("w{r}\u{e9} {}{}", fields.join("\t"), ["\n", "\r\n"][r % 2]);
        }
        for text in [saved, forms.into_bytes()] {
            let whole = Word2VecModel::load_text(text.as_slice()).unwrap();
            let (words, model) = trickled(&text).unwrap();
            assert_eq!(words, whole.0);
            let bits = |m: &Word2VecModel| {
                m.syn0
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&model), bits(&whole.1));
        }
        // The same errors, from the same rows.
        for text in [
            &b""[..],
            b"1 2\nw 1\xff 2\n",
            b"2 3\na 1 2 3\nb 1 2\n",
            b"2 2\na 1 2",
            b"1 2\n   ",
            b"1 2\nw 1 x\n",
        ] {
            let whole = Word2VecModel::load_text(text).unwrap_err();
            let got = trickled(text).unwrap_err();
            assert_eq!(
                (got.kind(), got.to_string()),
                (whole.kind(), whole.to_string())
            );
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Word2VecModel::load_text("".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("2 3\nw 1.0 2.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw 1.0".as_bytes()).is_err());
        assert!(Word2VecModel::load_text("1 2\nw x y".as_bytes()).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any finite float, subnormals and signed zeros included, comes
        /// back bit for bit through `save_text` → `load_text` on the
        /// backend the environment selects.
        #[test]
        fn prop_save_load_keeps_every_finite_bit_pattern(
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 3 * 16),
        ) {
            let values: Vec<f32> = bits
                .iter()
                .map(|&b| f32::from_bits(b))
                .map(|x| if x.is_finite() { x } else { -0.0 })
                .collect();
            let vocab = tiny_vocab();
            let syn0 = FlatMatrix::from_vec(values, vocab.len(), 16);
            let model = Word2VecModel::from_layers(syn0, FlatMatrix::zeros(vocab.len(), 16));
            let mut text = Vec::new();
            model.save_text(&vocab, &mut text).unwrap();
            let (_, loaded) = Word2VecModel::load_text(text.as_slice()).unwrap();
            let got: Vec<u32> = loaded.syn0.as_slice().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = model.syn0.as_slice().iter().map(|x| x.to_bits()).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
