//! The sharded in-memory embedding store and its checkpoint load path.
//!
//! # Checkpoint → store
//!
//! A GW2VCKP1 file stores *per-host replicas* — under the sparse sync
//! plans these are not identical, and only each node's master row is
//! canonical. [`ShardedStore::from_checkpoint`] therefore runs the
//! trainer's own assembly (`assemble_canonical_layers`) under the
//! checkpoint's liveness map: for every node, the `syn0` row held by
//! `effective_master(master_host(node))`. The gathered rows are
//! **bitwise-equal** to the model the trainer would have saved from the
//! same checkpoint — pinned by `tests/serve.rs`.
//!
//! # Shard layout and the SIMD contract
//!
//! Rows are partitioned by a splitmix-style hash of the word id into
//! `n_shards` shards. Within a shard, rows are stored back-to-back in one
//! contiguous [`FlatMatrix`] in ascending-id order — exactly the `B[n×k]`
//! operand shape of [`gemm_nt`](gw2v_util::fvec::gemm_nt), so a scan
//! hands the kernel tiles of a shard with no gather step. Raw
//! (unnormalized) trainer values are preserved; cosine normalization is
//! amortized into a per-row inverse norm computed once at load time
//! (`0.0` for zero or non-finite rows, so they can never win a top-k
//! slot).
//!
//! Every shard also carries a coded twin of its rows (`CodedRows`):
//! one 4-bit code per element plus three `f32` per row, an eighth of the
//! bytes, from which the scan bounds every cosine from above before it
//! reads an `f32` row. docs/SERVING.md § "Coded scan" is the one
//! statement of the layout and of why the bound holds.

use gw2v_core::checkpoint::{Checkpoint, CheckpointError};
use gw2v_gluon::sync::assemble_canonical_layers;
use gw2v_util::fvec::FlatMatrix;
use gw2v_util::simd::{code_block_bytes, kernels, pack_code_block, scalar, CODE_BLOCK_ROWS};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a store could not be built or a serve request could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The checkpoint file failed to load or validate (bad magic,
    /// CRC mismatch, truncation, I/O).
    Checkpoint(CheckpointError),
    /// No `epoch-*.gw2vckp` file exists in the given directory.
    NoCheckpoint(PathBuf),
    /// The checkpoint's liveness map marks every host dead; no replica
    /// can be canonical.
    NoHostsAlive,
    /// The vocabulary used to name rows has a different size than the
    /// checkpoint's embedding table, so ids cannot be aligned.
    VocabMismatch {
        /// Words in the supplied vocabulary.
        words: usize,
        /// Embedding rows in the checkpoint.
        rows: usize,
    },
    /// The checkpoint carries no layers or zero-dimensional rows.
    EmptyModel,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            ServeError::NoCheckpoint(dir) => {
                write!(f, "no .gw2vckp checkpoint found in {}", dir.display())
            }
            ServeError::NoHostsAlive => {
                write!(f, "checkpoint liveness map has no alive host")
            }
            ServeError::VocabMismatch { words, rows } => write!(
                f,
                "vocabulary has {words} words but the checkpoint has {rows} embedding rows; \
                 rebuild the vocabulary from the training corpus with the training --min-count"
            ),
            ServeError::EmptyModel => write!(f, "checkpoint holds an empty model"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// Small provenance record of the checkpoint a store was loaded from.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointSummary {
    /// Last epoch fully trained before the checkpoint was written.
    pub epoch: usize,
    /// Number of simulated hosts in the training run.
    pub n_hosts: usize,
    /// Positive pairs trained up to the checkpoint.
    pub pairs_trained: u64,
    /// Run-identity fingerprint (hyperparameters ⊕ cluster config).
    pub fingerprint: u64,
}

/// The coded twin of a shard's first `8·⌊n/8⌋` rows, aligned with
/// [`Shard::ids`]: row `j`'s 4-bit codes `code_j` sit in block `j / 8` of
/// `codes` ([`pack_code_block`]'s layout) and, for every query `q` of
/// norm 0 or in `[½, 2]`, every backend and every kernel the scan scores
/// with,
///
/// ```text
/// f32 score of row j  ≤  a[j]·fl(q·code_j) + b[j]·Σq + slack[j]·‖q‖₂
/// ```
///
/// evaluated in `f32` — or the right-hand side is NaN. The derivation is
/// docs/SERVING.md § "Coded scan"; `query.rs` holds the test that
/// recomputes it row by row. The shard's `n % 8` last rows have no
/// codes: the scan always scores them exactly.
#[derive(Clone, Debug)]
pub(crate) struct CodedRows {
    /// `⌊n/8⌋` blocks of `code_block_bytes(dim)` bytes; all-zero codes
    /// for an uncoded row.
    pub(crate) codes: Vec<u8>,
    /// `inv_norm · scale`, rounded to nearest; 0 for an uncoded row.
    pub(crate) a: Vec<f32>,
    /// `inv_norm · offset`, rounded to nearest; 0 for an uncoded row.
    pub(crate) b: Vec<f32>,
    /// The measured reconstruction error plus both rounding allowances,
    /// rounded up; `+∞` for an uncoded row, which no threshold rejects.
    pub(crate) slack: Vec<f32>,
}

/// `x` as an `f32` no smaller than it.
pub(crate) fn round_up(x: f64) -> f32 {
    let y = x as f32;
    if (y as f64) < x {
        y.next_up()
    } else {
        y
    }
}

/// 2⁴⁸: the largest inverse norm of a coded row. A row of norm 2⁻⁴⁸ or
/// more has squares far enough above the subnormal range that its
/// stored norm is the true one to within `γ`.
const MAX_CODED_INV_NORM: f64 = (1u64 << 48) as f64;

/// The largest 4-bit code.
pub(crate) const CODE_MAX: f64 = 15.0;

/// Rows reconstructed at a time while a shard's coding error is
/// measured: 64 KB of dim-64 scratch.
const MEASURE_TILE: usize = 256;
const _: () = assert!(MEASURE_TILE.is_multiple_of(CODE_BLOCK_ROWS));

impl CodedRows {
    /// Codes the whole blocks of `rows` with the wire codec's kernel and
    /// folds each 8-bit code onto 4 bits (`(code + 8) / 17`, the scale
    /// times 17, the offset kept), then measures what each row's bound
    /// has to allow for: the rows are reconstructed from the 4-bit codes
    /// by the codec's own decoder, subtracted, and the residual's norm
    /// taken, tile by tile through the dispatched kernels. A row is left
    /// uncoded when its inverse norm is 0 (zero, NaN, ±∞ rows; norms
    /// that overflowed or underflowed) or above 2⁴⁸ (squares near the
    /// subnormal range, where the stored norm says little about the
    /// row), or when a measured quantity is not finite.
    fn build(rows: &FlatMatrix, inv_norms: &[f32]) -> Self {
        let dim = rows.dim();
        let n = rows.rows() / CODE_BLOCK_ROWS * CODE_BLOCK_ROWS;
        let k = kernels();
        let mut codes = vec![0u8; n * dim];
        let (mut a, mut b) = (vec![0.0f32; n], vec![0.0f32; n]);
        let mut slack = vec![f32::INFINITY; n];
        // The kernels leave and read scale and offset where `a` and `b`
        // will go.
        (k.quantize_rows)(&rows.as_slice()[..n * dim], dim, &mut a, &mut b, &mut codes);
        for c in &mut codes {
            *c = ((*c as u16 + 8) / 17) as u8;
        }
        for scale in &mut a {
            *scale *= 17.0;
        }
        // γ = (dim + 8)·2⁻²³, twice the textbook γ_n = n·u/(1 − n·u) of
        // an n-term f32 sum while n·u ≤ ¼ (u = 2⁻²⁴).
        let gamma = (dim + 8) as f64 * (0.5f64).powi(23);
        let sqrt_dim = (dim as f64).sqrt();
        let mut residual = vec![0.0f32; MEASURE_TILE.min(n) * dim];
        for start in (0..n).step_by(MEASURE_TILE) {
            let end = n.min(start + MEASURE_TILE);
            let residual = &mut residual[..(end - start) * dim];
            let tile = start * dim..end * dim;
            (k.dequantize_rows)(
                &codes[tile.clone()],
                dim,
                &a[start..end],
                &b[start..end],
                residual,
            );
            (k.axpy)(-1.0, &rows.as_slice()[tile], residual);
            for j in start..end {
                let inv = inv_norms[j] as f64;
                let (aj, bj) = ((inv * a[j] as f64) as f32, (inv * b[j] as f64) as f32);
                let r = &residual[(j - start) * dim..(j - start + 1) * dim];
                let err = inv * ((k.dot)(r, r) as f64).sqrt();
                // With `inv` in range, inv·‖row‖ ≤ 1 + γ.
                let scores =
                    (aj.abs() as f64 * CODE_MAX + bj.abs() as f64) * sqrt_dim + 1.0 + gamma;
                let bound = round_up((err + gamma * scores) * (1.0 + gamma));
                if inv > 0.0 && inv <= MAX_CODED_INV_NORM && gamma <= 0.5 && bound.is_finite() {
                    (a[j], b[j], slack[j]) = (aj, bj, bound);
                } else {
                    (a[j], b[j]) = (0.0, 0.0);
                    codes[j * dim..(j + 1) * dim].fill(0);
                }
            }
        }
        let block = code_block_bytes(dim);
        let mut packed = vec![0u8; n / CODE_BLOCK_ROWS * block];
        for (rows, out) in codes
            .chunks_exact(CODE_BLOCK_ROWS * dim.max(1))
            .zip(packed.chunks_exact_mut(block.max(1)))
        {
            pack_code_block(rows, dim, out);
        }
        Self {
            codes: packed,
            a,
            b,
            slack,
        }
    }

    /// Rows with codes: the shard's first `8·⌊n/8⌋`.
    pub(crate) fn len(&self) -> usize {
        self.a.len()
    }
}

/// One hash partition of the embedding table: ascending word ids, their
/// raw rows packed contiguously, the matching inverse norms, and the
/// rows' coded twin.
#[derive(Clone, Debug)]
pub(crate) struct Shard {
    ids: Vec<u32>,
    rows: FlatMatrix,
    inv_norms: Vec<f32>,
    coded: CodedRows,
}

impl Shard {
    /// Word ids resident in this shard, ascending.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The shard's rows, contiguous and in `ids` order — the `B` operand
    /// of a `gemm_nt` scan.
    pub(crate) fn rows(&self) -> &FlatMatrix {
        &self.rows
    }

    /// Per-row `1 / ‖row‖` (0 for zero or non-finite rows), aligned with
    /// [`Shard::ids`].
    pub(crate) fn inv_norms(&self) -> &[f32] {
        &self.inv_norms
    }

    /// The coded twin of [`Shard::rows`].
    pub(crate) fn coded(&self) -> &CodedRows {
        &self.coded
    }

    /// Number of rows in this shard.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// The read-optimized embedding store: the canonical `syn0` table,
/// hash-partitioned into contiguous shards with precomputed norms.
#[derive(Clone, Debug)]
pub struct ShardedStore {
    dim: usize,
    shards: Vec<Shard>,
    /// `id → (shard, index-within-shard)` for O(1) row lookup.
    locate: Vec<(u32, u32)>,
}

/// splitmix64-style avalanche of a word id; decouples shard assignment
/// from the frequency-sorted id order so hot words spread across shards.
#[inline]
fn shard_of(id: u32, n_shards: usize) -> usize {
    let mut z = (id as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % n_shards as u64) as usize
}

impl ShardedStore {
    /// Builds a store over an already-assembled embedding matrix. Row `r`
    /// of `table` is word id `r`; values are copied bit-for-bit. The
    /// shard count is clamped to `1..=rows`: more shards than rows could
    /// only add empty ones, and the count comes from a command line.
    pub fn from_matrix(table: &FlatMatrix, n_shards: usize) -> Self {
        // The width of a table with no rows is a header's word and
        // nothing more; nobody downstream may size a buffer from it.
        let n_rows = table.rows();
        let dim = if n_rows == 0 { 0 } else { table.dim() };
        let n_shards = n_shards.clamp(1, n_rows.max(1));
        let span = gw2v_obs::span("serve.load");
        // Two passes: size each shard, then fill preserving ascending-id
        // order (ids are visited in order, so pushes stay sorted).
        let mut counts = vec![0usize; n_shards];
        for id in 0..n_rows as u32 {
            counts[shard_of(id, n_shards)] += 1;
        }
        let mut ids: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut data: Vec<Vec<f32>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c * dim))
            .collect();
        for id in 0..n_rows as u32 {
            let s = shard_of(id, n_shards);
            ids[s].push(id);
            data[s].extend_from_slice(table.row(id as usize));
        }
        let mut locate = vec![(0u32, 0u32); n_rows];
        for (s, shard_ids) in ids.iter().enumerate() {
            for (i, &id) in shard_ids.iter().enumerate() {
                locate[id as usize] = (s as u32, i as u32);
            }
        }
        let shards: Vec<Shard> = ids
            .into_iter()
            .zip(data)
            .map(|(ids, data)| {
                let rows = FlatMatrix::from_vec(data, ids.len(), dim);
                // Norms come from the fixed-order scalar kernel, never
                // the dispatched one: they feed the *canonical* served
                // scores, which must be byte-identical across backends.
                let inv_norms: Vec<f32> = (0..ids.len())
                    .map(|i| {
                        let row = rows.row(i);
                        let n = scalar::dot(row, row).sqrt();
                        if n.is_finite() && n > 0.0 {
                            1.0 / n
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let coded = CodedRows::build(&rows, &inv_norms);
                Shard {
                    ids,
                    rows,
                    inv_norms,
                    coded,
                }
            })
            .collect();
        drop(span);
        gw2v_obs::add("serve.rows_loaded", n_rows as u64);
        Self {
            dim,
            shards,
            locate,
        }
    }

    /// Builds a store from a parsed checkpoint: assembles the canonical
    /// layers under the checkpoint's liveness map with the trainer's own
    /// [`assemble_canonical_layers`] and shards `syn0`.
    pub fn from_checkpoint(ckpt: &Checkpoint, n_shards: usize) -> Result<Self, ServeError> {
        let first = ckpt.layers.first().and_then(|host| host.first());
        let syn0 = first.ok_or(ServeError::EmptyModel)?;
        if !ckpt.alive.contains(&true) {
            return Err(ServeError::NoHostsAlive);
        }
        if syn0.rows() == 0 || syn0.dim() == 0 {
            return Err(ServeError::EmptyModel);
        }
        let layers = assemble_canonical_layers(&ckpt.liveness(), |h| &ckpt.layers[h]);
        Ok(Self::from_matrix(&layers[0], n_shards))
    }

    /// Loads a checkpoint file — or, given a directory, its
    /// highest-epoch checkpoint — and builds a store from it.
    pub fn load(path: &Path, n_shards: usize) -> Result<(Self, CheckpointSummary), ServeError> {
        let file = if path.is_dir() {
            Checkpoint::latest_in(path)?.ok_or_else(|| ServeError::NoCheckpoint(path.into()))?
        } else {
            path.to_path_buf()
        };
        let ckpt = Checkpoint::load(&file)?;
        let summary = CheckpointSummary {
            epoch: ckpt.epoch,
            n_hosts: ckpt.layers.len(),
            pairs_trained: ckpt.pairs_trained,
            fingerprint: ckpt.fingerprint,
        };
        Ok((Self::from_checkpoint(&ckpt, n_shards)?, summary))
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of stored vectors.
    pub fn len(&self) -> usize {
        self.locate.len()
    }

    /// True when the store holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.locate.is_empty()
    }

    /// The shards, in hash order.
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The raw stored vector of word `id` (bitwise-equal to the trainer's
    /// row), or `None` for an out-of-range id.
    pub fn vector(&self, id: u32) -> Option<&[f32]> {
        let &(s, i) = self.locate.get(id as usize)?;
        Some(self.shards[s as usize].rows.row(i as usize))
    }

    /// `1 / ‖vector(id)‖`, or `None` for an out-of-range id. Zero for
    /// zero-norm or non-finite rows.
    pub fn inv_norm(&self, id: u32) -> Option<f32> {
        let &(s, i) = self.locate.get(id as usize)?;
        Some(self.shards[s as usize].inv_norms[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: usize, dim: usize) -> FlatMatrix {
        let mut m = FlatMatrix::zeros(rows, dim);
        for r in 0..rows {
            for d in 0..dim {
                m.row_mut(r)[d] = (r * dim + d) as f32 * 0.25 - 3.0;
            }
        }
        m
    }

    #[test]
    fn sharding_preserves_every_row_bitwise() {
        let t = table(37, 8);
        for n_shards in [1, 2, 7, 64, usize::MAX] {
            let store = ShardedStore::from_matrix(&t, n_shards);
            assert_eq!(store.len(), 37);
            assert_eq!(store.dim(), 8);
            assert_eq!(store.n_shards(), n_shards.min(37), "clamped to the rows");
            let mut seen = 0usize;
            for shard in store.shards() {
                assert!(shard.ids().windows(2).all(|w| w[0] < w[1]), "ids ascending");
                seen += shard.len();
            }
            assert_eq!(seen, 37, "every row lands in exactly one shard");
            for id in 0..37u32 {
                let got = store.vector(id).unwrap();
                let want = t.row(id as usize);
                assert!(
                    got.iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "row {id} altered by sharding"
                );
            }
            assert!(store.vector(37).is_none());
        }
    }

    #[test]
    fn inv_norms_guard_degenerate_rows() {
        let mut t = table(4, 4);
        t.row_mut(1).fill(0.0);
        t.row_mut(2).fill(f32::NAN);
        let store = ShardedStore::from_matrix(&t, 2);
        assert_eq!(store.inv_norm(1), Some(0.0), "zero row");
        assert_eq!(store.inv_norm(2), Some(0.0), "NaN row");
        let n0 = store.inv_norm(0).unwrap();
        assert!(n0 > 0.0 && n0.is_finite());
    }

    #[test]
    fn coded_rows_fold_the_wire_codes_onto_nibbles() {
        // Whole blocks of eight rows only, each row's wire codes folded
        // to (code + 8) / 17 with 17 times the wire scale, and packed.
        for (rows, dim) in [(7usize, 5usize), (8, 8), (23, 9), (40, 67)] {
            let t = table(rows, dim);
            let store = ShardedStore::from_matrix(&t, 1);
            let shard = &store.shards()[0];
            let coded = shard.coded();
            let n = rows / 8 * 8;
            assert_eq!(coded.len(), n);
            let (mut scale, mut offset) = (vec![0.0f32; n], vec![0.0f32; n]);
            let mut codes = vec![0u8; n * dim];
            scalar::quantize_rows(
                &t.as_slice()[..n * dim],
                dim,
                &mut scale,
                &mut offset,
                &mut codes,
            );
            let folded: Vec<u8> = codes.iter().map(|&c| ((c as u16 + 8) / 17) as u8).collect();
            assert!(folded.iter().all(|&c| c <= 15));
            let block = code_block_bytes(dim);
            assert_eq!(coded.codes.len(), n / 8 * block, "{rows} × {dim}");
            for (b, packed) in coded.codes.chunks_exact(block).enumerate() {
                let mut want = vec![0u8; block];
                pack_code_block(&folded[b * 8 * dim..(b + 1) * 8 * dim], dim, &mut want);
                assert_eq!(packed, &want[..], "{rows} × {dim} block {b}");
            }
            for (j, &scale) in scale.iter().enumerate() {
                let inv = shard.inv_norms()[j] as f64;
                let a = (inv * (17.0 * scale) as f64) as f32;
                assert_eq!(coded.a[j].to_bits(), a.to_bits(), "{rows} × {dim} row {j}");
                assert!(coded.slack[j].is_finite() && coded.slack[j] > 0.0);
            }
        }
    }

    #[test]
    fn empty_checkpoint_shapes_are_rejected() {
        let ckpt = Checkpoint {
            fingerprint: 0,
            epoch: 0,
            pairs_trained: 0,
            compute_time: 0.0,
            comm_time: 0.0,
            processed: vec![],
            alive: vec![],
            rng_states: vec![],
            stats: Default::default(),
            layers: vec![],
        };
        assert!(matches!(
            ShardedStore::from_checkpoint(&ckpt, 4),
            Err(ServeError::EmptyModel)
        ));
    }
}
