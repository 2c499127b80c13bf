//! Splitting text into tokens on ASCII whitespace, 64 bytes at a time.
//!
//! [`Words`] yields exactly what `str::split_ascii_whitespace` yields —
//! every maximal run of bytes that are not space, `\t`, `\n`, `\x0C` or
//! `\r` — but classifies the bytes with one
//! [`Kernels::ascii_whitespace`](crate::simd::Kernels::ascii_whitespace)
//! call per 64-byte block and finds each token's ends from the block's
//! mask with `trailing_zeros`, instead of testing byte after byte.
//! Every text reader splits on these bytes. The corpus token loop (under
//! every vocabulary and encode pass), the analogy question reader
//! (`read_questions`) and the `gw2v phrases` command split through it;
//! `parse_edge_list` (`trim`, then `split_ascii_whitespace`) and
//! `Query::parse` (`split_ascii_whitespace`) split with the `str` method
//! it matches, and the word2vec text model loader
//! (`Word2VecModel::load_text`) walks its rows byte by byte between
//! fields whose ends the float parse finds. None splits a token at a
//! non-ASCII space such as U+00A0.

use crate::simd::{kernels, WhitespaceMaskFn};

/// Bytes one mask covers.
const BLOCK: usize = 64;

/// The tokens of a byte slice, as subslices of it, in order.
///
/// The last block is padded with spaces, so a token never runs past the
/// end of the slice and the walk needs no end test inside a token.
pub struct Words<'a> {
    bytes: &'a [u8],
    mask: WhitespaceMaskFn,
    /// Offset of the block `ws` describes.
    base: usize,
    /// That block's whitespace bits.
    ws: u64,
    /// Its non-whitespace bits not yet handed out in a token.
    left: u64,
}

impl<'a> Words<'a> {
    /// The tokens of `bytes`, classified by `mask` (any backend's entry:
    /// they are bit-identical).
    pub fn with_mask(bytes: &'a [u8], mask: WhitespaceMaskFn) -> Self {
        let mut words = Self {
            bytes,
            mask,
            base: 0,
            ws: 0,
            left: 0,
        };
        words.load();
        words
    }

    /// Classifies the block at `base`.
    #[inline]
    fn load(&mut self) {
        let rest = &self.bytes[self.base..];
        self.ws = match rest.first_chunk::<BLOCK>() {
            Some(block) => (self.mask)(block),
            None => {
                let mut block = [b' '; BLOCK];
                block[..rest.len()].copy_from_slice(rest);
                (self.mask)(&block)
            }
        };
        self.left = !self.ws;
    }
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        while self.left == 0 {
            if self.base + BLOCK >= self.bytes.len() {
                return None;
            }
            self.base += BLOCK;
            self.load();
        }
        let first = self.left.trailing_zeros();
        let start = self.base + first as usize;
        let mut ends = self.ws & (u64::MAX << first);
        while ends == 0 {
            // The token runs on into the next block. A block that ends
            // the slice is padded with whitespace, so there is one.
            self.base += BLOCK;
            self.load();
            ends = self.ws;
        }
        let end = ends.trailing_zeros();
        self.left &= u64::MAX << end;
        Some(&self.bytes[start..self.base + end as usize])
    }
}

/// The tokens of `text`, as `str::split_ascii_whitespace` yields them.
#[inline]
pub fn str_words(text: &str) -> StrWords<'_> {
    StrWords(Words::with_mask(
        text.as_bytes(),
        kernels().ascii_whitespace,
    ))
}

/// The tokens of a `&str`, as `&str`s: see [`str_words`].
pub struct StrWords<'a>(Words<'a>);

impl<'a> Iterator for StrWords<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        // SAFETY: the bytes came from a `&str`, and a token of valid
        // UTF-8 cut at ASCII bytes is valid UTF-8: an ASCII byte never
        // occurs inside a multi-byte character.
        self.0
            .next()
            .map(|word| unsafe { std::str::from_utf8_unchecked(word) })
    }
}
