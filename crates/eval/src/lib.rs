//! # gw2v-eval
//!
//! Evaluation of trained embeddings, following the paper's §5.1
//! methodology: "we used the analogical reasoning task outlined by \[the\]
//! original Word2Vec paper [...] analogies such as Athens : Greece ::
//! Berlin : ?, which are predicted by finding a vector x such that
//! embedding vector(x) is closest to vector(Athens) − vector(Greece) +
//! vector(Berlin) according to the cosine distance. [...] We report
//! semantic, syntactic, and total accuracy."
//!
//! * [`knn`] — a normalized-embedding index with brute-force cosine
//!   nearest-neighbour queries (rayon-parallel).
//! * [`analogy`] — 3CosAdd analogy evaluation with per-category,
//!   semantic, syntactic and total accuracies; question words missing
//!   from the vocabulary are skipped, as the original evaluation script
//!   does.
//! * [`linkpred`] — link-prediction AUC for graph embeddings: held-out
//!   edges vs sampled non-edges, scored by dot or cosine.

#![warn(missing_docs)]

pub mod analogy;
pub mod knn;
pub mod linkpred;
