//! # gw2v-corpus
//!
//! Everything between raw text and the training worklist:
//!
//! * [`tokenizer`] — whitespace tokenization and streaming sentence
//!   extraction with a maximum sentence length (the paper trains on
//!   fixed-length "sentences" of up to 10 K words): the one token loop
//!   that vocabulary counting, encoding and file partitions all run.
//! * [`vocab`] — vocabulary construction (unique words + frequencies),
//!   a streaming builder, `min_count`
//!   filtering and frequency-descending id assignment, exactly as the
//!   Word2Vec C implementation does. Both count and look words up in
//!   one keyed word table that holds short words in its slots.
//! * [`subsample`] — frequent-word down-sampling probabilities
//!   (Mikolov et al. 2013, threshold `t = 1e-4` by default).
//! * [`unigram`] — negative-sampling distributions (`count^0.75`),
//!   both the classic table lookup used by the C code and an exact
//!   Walker alias sampler.
//! * [`zipf`] — Zipf–Mandelbrot rank sampler for synthetic background
//!   text.
//! * [`synth`] — the synthetic corpus generator with *planted analogy
//!   relations*; it stands in for the paper's 1-billion/news/wiki
//!   corpora (see DESIGN.md §1) and co-generates the analogy question
//!   set used for accuracy evaluation.
//! * [`shard`] — in-memory token corpora, contiguous per-host
//!   partitioning (paper §4.2), and per-round worklist chunking.
//! * [`datasets`] — presets mirroring Table 1 of the paper at
//!   laptop-friendly scales.
//! * [`mod@file`] — on-disk streaming: vocabulary construction without
//!   materializing the corpus, and byte-range host partitions of a file
//!   (paper §4.1's "stream C from disk").
//! * [`phrases`] — the `word2phrase` bigram-joining preprocessing pass
//!   of the original Word2Vec toolchain.
//! * [`questions`] — reader/writer for the `question-words.txt` analogy
//!   file format.
//! * [`graphs`] — undirected simple graphs for walk corpora: edge-list
//!   I/O with typed errors, SBM and scale-free generators, holdout
//!   splits and negative-edge sampling for link prediction.
//! * [`walks`] — seeded DeepWalk/node2vec random-walk corpora over a
//!   [`graphs::WalkGraph`], emitted as text for this same pipeline.

#![warn(missing_docs)]

pub mod datasets;
pub mod file;
pub mod graphs;
pub mod phrases;
pub mod questions;
pub mod shard;
pub mod subsample;
pub mod synth;
pub mod tokenizer;
pub mod unigram;
pub mod vocab;
pub mod walks;
mod word_table;
pub mod zipf;

pub use vocab::Vocabulary;
