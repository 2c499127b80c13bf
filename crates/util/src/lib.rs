//! # gw2v-util
//!
//! Shared low-level utilities for the GraphWord2Vec workspace.
//!
//! Everything in this crate is dependency-light and deterministic:
//!
//! * [`rng`] — small, fast, *seedable and cloneable* random number
//!   generators ([`rng::SplitMix64`], [`rng::Pcg32`], [`rng::Xoshiro256`]).
//!   Determinism is load-bearing for the whole system: the PullModel
//!   inspection phase replays the exact RNG stream of the upcoming
//!   compute round, and tests pin distributed runs against sequential
//!   references bit-for-bit.
//! * [`bitvec`] — a fixed-capacity bit vector used by the Gluon-style
//!   communication substrate to track which graph nodes were touched in a
//!   synchronization round.
//! * [`crc32`] — CRC-32 (IEEE) checksums guarding wire frames and training
//!   checkpoints against corruption.
//! * [`fvec`] — `f32` vector kernels (dot, axpy, scale, norm, fused SGNS
//!   gradient step) that the SGNS inner loop is built from.
//! * [`simd`] — the runtime-dispatched backends behind [`fvec`]:
//!   AVX2+FMA where the host supports it, the portable scalar reference
//!   otherwise (or when `GW2V_FORCE_SCALAR=1`).
//! * [`sigmoid`] — the C implementation's precomputed sigmoid table,
//!   here because the per-pair kernel in [`simd`] looks gradients up in it.
//! * [`split`] — the token splitter under the text readers (its module
//!   doc lists them): ASCII-whitespace tokens found 64 bytes at a time
//!   from [`simd`]'s whitespace mask.
//! * [`shortest`] — [`shortest::push_f32`], the shortest decimal that
//!   reads back to an `f32`, laid out as `{}` lays it out: the float
//!   formatter under the word2vec text writer.
//! * [`stats`] — the geometric mean the figure binaries report.
//! * [`table`] — a tiny fixed-width table printer for harness output.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitvec;
pub mod crc32;
pub mod fvec;
pub mod rng;
pub mod shortest;
pub mod sigmoid;
pub mod simd;
pub mod split;
pub mod stats;
pub mod table;
