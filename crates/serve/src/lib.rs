//! # gw2v-serve — the read path for trained embeddings
//!
//! Training (gw2v-core) produces GW2VCKP1 checkpoints and word2vec-format
//! text models; this crate is the subsystem that *answers queries* from
//! them. It is deliberately decoupled from the trainers — the store is
//! immutable once loaded, so serving needs none of the synchronization
//! machinery and can lay data out purely for read throughput.
//!
//! The pipeline is:
//!
//! 1. **Load** ([`store`]): a checkpoint holds one replica per simulated
//!    host. The canonical model assigns each node the row held by its
//!    master's *effective* host (dead masters are adopted cyclically), so
//!    [`ShardedStore::from_checkpoint`] replays the liveness map and
//!    gathers rows with the trainer's own `assemble_canonical_layers` — the
//!    stored vectors are bitwise-equal to what the trainer saved.
//! 2. **Shard**: rows are hash-partitioned into `n_shards` shards, each a
//!    contiguous [`FlatMatrix`](gw2v_util::fvec::FlatMatrix) so the
//!    `gemm_nt` microkernel can stream them, with per-row inverse norms
//!    precomputed once at load time and a 4-bit-coded twin of the rows
//!    beside them.
//! 3. **Query** ([`query`]): similarity and analogy queries are batched
//!    into a matrix, normalized once, and scored against every shard in
//!    256-row tiles, one GEMM per tile, with selection filtered by a
//!    per-query score threshold while the tile's scores are in cache.
//!    One or two queries on their own are filtered from the codes
//!    instead and touch only the `f32` rows that might be hits
//!    (docs/SERVING.md § "Coded scan"); the answers are the same.
//!    Ranking uses scores quantized to 1e-6 with ascending-id
//!    tie-breaks, which makes the served output byte-identical across
//!    SIMD backends (see [`query::quantize`]).
//!
//! Everything is instrumented through gw2v-obs: `serve.queries`,
//! `serve.batches`, `serve.oov`, the useful-over-attempted pairs
//! `serve.rows_scored` / `serve.scan_candidates` and
//! `serve.coded_rows` / `serve.code_survivors`, the `serve.pack` /
//! `serve.scan` / `serve.rescore` spans inside each `serve.batch`, and
//! the `serve.query_ns` / `serve.shard_scan_ns` / `serve.rescore_ns`
//! log-bucketed histograms that the load harness reads back for p50/p99
//! reporting.

#![deny(missing_docs)]

pub mod query;
pub mod store;

pub use query::{Query, QueryEngine};
pub use store::{ServeError, ShardedStore};
