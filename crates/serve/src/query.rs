//! Batched top-k similarity and analogy queries over a [`ShardedStore`].
//!
//! # Execution model
//!
//! A batch of queries becomes one `m × dim` row-major matrix of unit
//! query vectors (normalization paid once per query, using the store's
//! precomputed inverse norms where possible). Each shard is then scanned
//! in tiles of `SCAN_TILE` rows: one
//! [`gemm_nt`](gw2v_util::fvec::gemm_nt) call — `scores = Q · Rᵀ`, the
//! same microkernel HogBatch uses for its minibatch scores — fills an
//! `m × SCAN_TILE` block that never leaves the cache, and each query
//! selects from its row of the block before the next tile is scored.
//! Raw dot products become cosines through the shard's per-row inverse
//! norms. Selection runs per query with an exclusion list (a similarity
//! query never returns its own word, an analogy never returns its three
//! inputs).
//!
//! Selection is filtered: once a query's pool is full it carries an
//! `f32` threshold below which no score can enter (see
//! `reject_below`); the tile is tested eight lanes at a time without a
//! branch per lane, and only the survivors — a few hundred of 50 000
//! rows — are excluded, quantized and pushed. [`quantize`] is monotone,
//! so a skipped score is one the pool would have refused anyway: the
//! pool is the one a push of every row builds, and the
//! `serve.scan_candidates / serve.rows_scored` counters report how
//! little took the exact path.
//!
//! A batch of at most [`CODED_MAX_QUERIES`] does not read the `f32`
//! tiles to learn that. It scores the shards' 4-bit codes, an eighth of
//! the bytes, in integers against each query rounded to `i8`, and bounds
//! every cosine from above; seeds each pool from the rows with the
//! largest bounds; then runs the GEMM kernel only on the other groups of
//! four rows whose bound is not below the seeded threshold. The pools
//! are the GEMM scan's,
//! score for score; docs/SERVING.md § "Coded scan" is the one statement
//! of why.
//!
//! # The backend-invariance contract
//!
//! The AVX2 kernels are only ULP-equivalent to the scalar ones (FMA and
//! reassociation round differently), so the GEMM scan's raw `f32` scores
//! cannot be the served values — at any quantization granularity a score
//! can land on a rounding boundary and straddle it between backends.
//! Serving therefore runs in two phases:
//!
//! 1. **Scan** (dispatched kernels, fast): the tiled GEMM nominates a
//!    candidate *pool* of `k + POOL_SLACK` ids per query by approximate
//!    quantized score.
//! 2. **Rescore** (fixed-order scalar kernel, tiny): each pool
//!    candidate's canonical score is recomputed as
//!    `scalar::dot(unit_query, row) * inv_norm`, where both the unit
//!    query and the store's inverse norms are themselves built with plain
//!    scalar arithmetic. Canonical scores are quantized by [`quantize`]
//!    and re-ranked with ascending-id tie-breaks.
//!
//! Every value that reaches the output is computed by the same
//! instruction sequence on every backend, so a `serve` run under
//! `GW2V_FORCE_SCALAR=1` emits byte-identical output to the AVX2 run
//! (pinned by `tests/serve.rs`, the CLI backend-parity test, and the CI
//! serve smoke). Backends could only diverge if pool *nomination*
//! differed — which requires more than [`POOL_SLACK`] candidates packed
//! within kernel ULP noise of the k-th best score.

use crate::store::{round_up, CodedRows, Shard, ShardedStore, CODE_MAX};
use gw2v_corpus::vocab::Vocabulary;
use gw2v_util::fvec;
use gw2v_util::simd::{code_block_bytes, scalar, CodeBound, CODE_BLOCK_ROWS};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// Reciprocal of the score quantum: scores are ranked and printed at
/// 1e-6 resolution.
pub(crate) const SCORE_SCALE: f64 = 1e6;

/// Extra candidates the dispatched scan nominates beyond `k`, absorbing
/// any ULP-level disagreement between backends at the pool boundary
/// before the scalar rescore picks the final top-k.
pub const POOL_SLACK: usize = 16;

/// Rows per scan tile: 64 KB of dim-64 rows and, at a batch of 32, a
/// 32 KB score block, so rows are scored and selected while both sit in
/// L1/L2 and the score scratch is `m × SCAN_TILE` floats whatever the
/// shard size.
pub(crate) const SCAN_TILE: usize = 256;

// The AVX2 `gemm_nt` rounds a `B` row in a group of four differently
// from one in the `n % 4` tail; whole tiles must leave a shard's tail
// rows the tail rows, so tiling never changes a score.
const _: () = assert!(SCAN_TILE.is_multiple_of(4));

/// Scores tested against a pool's threshold at a time.
const LANES: usize = 8;

/// Rows the coded scan rescores together: `gemm_nt`'s contract lets a
/// caller split `B` at multiples of four rows without changing a bit,
/// so a group's scores are the ones the GEMM scan computes for them.
const GROUP: usize = 4;
const _: () = assert!(CODE_BLOCK_ROWS.is_multiple_of(GROUP));
const _: () = assert!(SCAN_TILE.is_multiple_of(CODE_BLOCK_ROWS));

/// Seeds a coded query keeps beyond its pool: an exclusion list holds at
/// most three ids, so `pool_k + 3` seeds fill the pool whatever it
/// excludes.
const SEED_EXTRA: usize = 3;

/// Coded queries scanned together: a tile's codes are read once for all
/// of them, and each keeps its bound for every row of the store from the
/// bounds pass to the revisit (8 × 200 KB on a 50 000-row store).
const CODED_CHUNK: usize = 8;

/// The largest batch scanned from the shards' 4-bit codes; a larger one
/// is scored by `gemm_nt`, which streams the `f32` rows once for the
/// whole batch. Chosen from the m-sweep in docs/SERVING.md § "Coded
/// scan"; the pools, and so the answers, are the same on either side.
pub const CODED_MAX_QUERIES: usize = 32;

/// Quantizes a cosine score to integer micro-units for backend-invariant
/// ranking. NaN maps to `i64::MIN` so a poisoned row can never outrank a
/// finite score.
#[inline]
pub fn quantize(score: f32) -> i64 {
    if score.is_nan() {
        i64::MIN
    } else {
        (score as f64 * SCORE_SCALE).round() as i64
    }
}

/// An `f32` threshold for a pool whose worst member scores `micro`: a
/// `t` with `quantize(t) < micro`. [`quantize`] is monotone over
/// non-NaN floats, so every score `s < t` quantizes strictly below the
/// pool's worst and [`TopK::push`] would refuse it. `i64::MIN` (a pool
/// holding a NaN row) yields `-∞`, below which nothing compares.
fn reject_below(micro: i64) -> f32 {
    if micro == i64::MIN {
        return f32::NEG_INFINITY;
    }
    let mut t = ((micro - 1) as f64 / SCORE_SCALE) as f32;
    // The f32 rounding above can land back on `micro`'s bucket.
    while quantize(t) >= micro {
        t = t.next_down();
    }
    t
}

/// One ranked result: a word id and its quantized cosine score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    /// Word id in the store/vocabulary.
    pub id: u32,
    /// Cosine similarity in micro-units (`score() * 1e6`, rounded).
    pub score_micro: i64,
}

impl Hit {
    /// The quantized cosine score as a float in `[-1, 1]`.
    pub fn score(&self) -> f64 {
        self.score_micro as f64 / SCORE_SCALE
    }
}

/// A parsed serve request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// `sim WORD` — nearest neighbours of a word.
    Similar {
        /// The probe word.
        word: String,
    },
    /// `analogy A B C` — words `x` maximizing `cos(x, v(B) − v(A) + v(C))`
    /// over unit vectors: "A is to B as C is to x" (3CosAdd).
    Analogy {
        /// The first pair's source word.
        a: String,
        /// The first pair's target word.
        b: String,
        /// The second pair's source word.
        c: String,
    },
}

impl Query {
    /// Parses one line of the query language. Blank lines and `#`
    /// comments yield `Ok(None)`; anything unrecognized is an error
    /// naming the offending line. Words are split on ASCII whitespace,
    /// as the tokenizer that made the vocabulary splits them, so a word
    /// holding U+00A0 or U+3000 can be asked for.
    ///
    /// ```text
    /// sim king            # also: similar king
    /// analogy man king woman
    /// ```
    pub fn parse(line: &str) -> Result<Option<Query>, String> {
        let line = line.split('#').next().unwrap_or("").trim_ascii();
        if line.is_empty() {
            return Ok(None);
        }
        let mut tok = line.split_ascii_whitespace();
        let verb = tok.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = tok.collect();
        match (verb, rest.as_slice()) {
            ("sim" | "similar", [w]) => Ok(Some(Query::Similar {
                word: (*w).to_owned(),
            })),
            ("analogy", [a, b, c]) => Ok(Some(Query::Analogy {
                a: (*a).to_owned(),
                b: (*b).to_owned(),
                c: (*c).to_owned(),
            })),
            ("sim" | "similar", _) => Err(format!("sim takes exactly one word: {line:?}")),
            ("analogy", _) => Err(format!("analogy takes exactly three words: {line:?}")),
            _ => Err(format!(
                "unknown query {line:?} (want: sim W | analogy A B C)"
            )),
        }
    }

    /// Short tag for output records: `"sim"` or `"analogy"`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Query::Similar { .. } => "sim",
            Query::Analogy { .. } => "analogy",
        }
    }

    /// The query's words, in request order.
    pub(crate) fn words(&self) -> Vec<&str> {
        match self {
            Query::Similar { word } => vec![word],
            Query::Analogy { a, b, c } => vec![a, b, c],
        }
    }
}

/// The outcome of one query: ranked hits, or a per-query error (unknown
/// word, malformed request) that does not abort the batch.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The request this answers.
    pub query: Query,
    /// Ranked hits (best first), or the reason no ranking was possible.
    pub hits: Result<Vec<Hit>, String>,
}

impl Answer {
    /// Renders the answer as one deterministic JSON line. Scores print
    /// with exactly six decimals of their quantized value, so equal
    /// quantized results serialize to identical bytes on every backend.
    pub fn json_line(&self, vocab: &Vocabulary) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"kind\":\"");
        out.push_str(self.query.kind());
        out.push_str("\",\"words\":[");
        for (i, w) in self.query.words().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(w, &mut out);
            out.push('"');
        }
        out.push(']');
        match &self.hits {
            Ok(hits) => {
                out.push_str(",\"hits\":[");
                for (i, h) in hits.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"word\":\"");
                    json_escape_into(vocab.word_of(h.id), &mut out);
                    write!(out, "\",\"id\":{},\"score\":{:.6}}}", h.id, h.score())
                        .expect("writing to a String cannot fail");
                }
                out.push(']');
            }
            Err(e) => {
                out.push_str(",\"error\":\"");
                json_escape_into(e, &mut out);
                out.push('"');
            }
        }
        out.push('}');
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes),
/// appended to `out`. Public so the CLI can emit error records in the
/// same dialect as [`Answer::json_line`].
pub fn json_escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
}

/// Best-first bounded selection: higher quantized score wins, ties break
/// toward the lower word id (both total orders, so selection is
/// deterministic on every backend).
struct TopK {
    k: usize,
    items: Vec<(i64, u32)>,
    /// No score below this can enter: `-∞` while the pool has room,
    /// then [`reject_below`] of its worst member.
    threshold: f32,
}

#[inline]
fn better(a: (i64, u32), b: (i64, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k + 1),
            threshold: f32::NEG_INFINITY,
        }
    }

    #[inline]
    fn push(&mut self, micro: i64, id: u32) {
        if self.k == 0 {
            return;
        }
        if self.items.len() == self.k && !better((micro, id), self.items[self.k - 1]) {
            return;
        }
        let pos = self.items.partition_point(|&it| better(it, (micro, id)));
        self.items.insert(pos, (micro, id));
        self.items.truncate(self.k);
        if self.items.len() == self.k {
            self.threshold = reject_below(self.items[self.k - 1].0);
        }
    }

    /// Offers one query's row of a score tile: `dots[j] * inv[j]` is the
    /// cosine of row `ids[j]`. Chunks of [`LANES`] scores that all fall
    /// below the threshold are skipped whole; the rest go through
    /// [`TopK::offer`]. Returns how many scores took that exact path.
    fn offer_tile(&mut self, dots: &[f32], inv: &[f32], ids: &[u32], exclude: &[u32]) -> u64 {
        let (dot_chunks, dot_tail) = dots.as_chunks::<LANES>();
        let (inv_chunks, inv_tail) = inv.as_chunks::<LANES>();
        let (id_chunks, id_tail) = ids.as_chunks::<LANES>();
        let mut candidates = 0;
        for ((d, w), ids) in dot_chunks.iter().zip(inv_chunks).zip(id_chunks) {
            let t = self.threshold;
            // No branch per lane. A NaN score is not below anything, so
            // it survives to be quantized to `i64::MIN`.
            let all_below = d
                .iter()
                .zip(w)
                .fold(true, |all, (&d, &w)| all & (d * w < t));
            if !all_below {
                candidates += self.offer(d, w, ids, exclude);
            }
        }
        candidates + self.offer(dot_tail, inv_tail, id_tail, exclude)
    }

    /// Scores rows `rows` of `shard` — a group of four, or a shard's
    /// uncoded tail — with the kernel and the bits the GEMM scan scores
    /// them with, and offers them. Returns how many rows were scored and
    /// how many of those passed the threshold.
    fn offer_exact(
        &mut self,
        q: &[f32],
        shard: &Shard,
        rows: Range<usize>,
        exclude: &[u32],
    ) -> (u64, u64) {
        let dim = q.len();
        let mut exact = [0.0f32; CODE_BLOCK_ROWS];
        let exact = &mut exact[..rows.len()];
        let data = &shard.rows().as_slice()[rows.start * dim..rows.end * dim];
        fvec::gemm_nt(1, rows.len(), dim, q, data, exact);
        let passed = self.offer(
            exact,
            &shard.inv_norms()[rows.clone()],
            &shard.ids()[rows.clone()],
            exclude,
        );
        (rows.len() as u64, passed)
    }

    /// The exact path, score by score against the threshold as it
    /// stands: exclusion list, [`quantize`], [`TopK::push`].
    fn offer(&mut self, dots: &[f32], inv: &[f32], ids: &[u32], exclude: &[u32]) -> u64 {
        let mut candidates = 0;
        for ((&d, &w), &id) in dots.iter().zip(inv).zip(ids) {
            let score = d * w;
            if score < self.threshold {
                continue;
            }
            candidates += 1;
            if !exclude.contains(&id) {
                self.push(quantize(score), id);
            }
        }
        candidates
    }
}

/// What the coded bound needs of a query vector: the query rounded to
/// `i8` for the integer kernel, and what that rounding and the rest of
/// the bound must allow for (docs/SERVING.md § "Coded scan").
#[derive(Clone, Debug)]
struct Moments {
    /// `Σ q[i]`, summed in `f64` and rounded to nearest.
    sum: f32,
    /// `‖q‖₂`, summed in `f64` and rounded up.
    norm: f32,
    /// `q̃ = round(q·2^shift)`, the operand of `fvec::dot_codes`.
    q8: Vec<i8>,
    /// `2^-shift`: an integer dot with the codes times this is a dot of
    /// `q̃·2^-shift`.
    unscale: f32,
    /// `ℓ ≥ 15·Σ|q[i] − q̃[i]·2^-shift|`, rounded up: what the
    /// rounding of `q` can hide of a dot with codes of at most 15.
    lift: f32,
}

impl Moments {
    /// The bound of [`CodedRows`] over `rows`, for the kernel's epilogue.
    fn bound<'a>(&self, coded: &'a CodedRows, rows: Range<usize>) -> CodeBound<'a> {
        CodeBound {
            a: &coded.a[rows.clone()],
            b: &coded.b[rows.clone()],
            slack: &coded.slack[rows],
            unscale: self.unscale,
            lift: self.lift,
            sum: self.sum,
            norm: self.norm,
        }
    }

    /// The moments of `q` if the bound's derivation covers it: a unit
    /// vector give or take rounding, or the zero vector of a zero-row
    /// query. Anything else — a NaN row's query, an analogy whose sum
    /// underflowed its own normalisation — takes the GEMM scan.
    fn of(q: &[f32]) -> Option<Self> {
        let (mut sum, mut sq, mut max) = (0.0f64, 0.0f64, 0.0f64);
        for &x in q {
            sum += x as f64;
            sq += x as f64 * x as f64;
            max = max.max((x as f64).abs());
        }
        let norm = round_up(sq.sqrt());
        if !(norm == 0.0 || (0.5..=2.0).contains(&norm)) {
            return None;
        }
        // The finest power-of-two scale at which every coordinate
        // rounds into ±127 (|q[i]| ≤ 2 puts it at 5 or more), then
        // coarser until 15·‖q̃‖₁ < 2³¹.
        let rounded = |shift: i32| -> Vec<i8> {
            let scale = 2f64.powi(shift);
            q.iter()
                .map(|&x| (x as f64 * scale).round() as i8)
                .collect()
        };
        let mut shift = 0;
        while max > 0.0 && max * 2f64.powi(shift + 1) < i8::MAX as f64 + 0.5 {
            shift += 1;
        }
        let mut q8 = rounded(shift);
        while 15 * q8.iter().map(|&x| (x as i64).abs()).sum::<i64>() >= 1 << 31 {
            shift -= 1;
            q8 = rounded(shift);
        }
        let unscale = 2f64.powi(-shift);
        // Each difference is exact in f64; the factor covers the
        // roundings of the sum and of the product with 15.
        let loss: f64 = q
            .iter()
            .zip(&q8)
            .map(|(&x, &r)| (x as f64 - r as f64 * unscale).abs())
            .sum();
        let lift = round_up(CODE_MAX * loss * (1.0 + (q.len() + 1) as f64 * f64::EPSILON));
        Some(Self {
            sum: sum as f32,
            norm,
            q8,
            unscale: unscale as f32,
            lift,
        })
    }
}

/// The rows of the largest bounds a coded query has seen, `keep` of
/// them or up to twice that: its seeds.
struct Seeds {
    keep: usize,
    /// Per row, its bound's bits made to order as the bound does, above
    /// its position in the store (shard by shard), in no order.
    rows: Vec<u64>,
    /// `-∞` until a row is dropped, then the smallest bound kept: no
    /// bound at or below it can be a seed.
    floor: f32,
}

/// `x`'s bits, ordered as `x` is among non-NaN floats.
fn ordered(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The inverse of [`ordered`].
fn unordered(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 {
        key & !(1 << 31)
    } else {
        !key
    })
}

impl Seeds {
    fn new(keep: usize) -> Self {
        Self {
            keep,
            rows: Vec::with_capacity(2 * keep + SCAN_TILE),
            floor: f32::NEG_INFINITY,
        }
    }

    /// Offers one tile's bounds, the first of them row `first` of the
    /// store: a lane of the kernel whose largest bound is not above the
    /// floor holds nothing to offer. When the list holds twice what it
    /// keeps, it drops all but the `keep` largest and raises the floor
    /// to the smallest of them.
    fn offer_tile(&mut self, bounds: &[f32], lane_max: &[f32; CODE_BLOCK_ROWS], first: usize) {
        if self.keep == 0 {
            return;
        }
        let floor = self.floor;
        for (lane, &max) in lane_max.iter().enumerate() {
            if max > floor {
                for j in (lane..bounds.len()).step_by(CODE_BLOCK_ROWS) {
                    if bounds[j] > floor {
                        let key = (ordered(bounds[j]) as u64) << 32 | (first + j) as u64;
                        self.rows.push(key);
                    }
                }
            }
        }
        if self.rows.len() >= 2 * self.keep {
            self.select();
            self.floor = unordered((self.rows[self.keep - 1] >> 32) as u32);
        }
    }

    /// Keeps the `keep` rows of the largest bounds (ties by position),
    /// in no order.
    fn select(&mut self) {
        if self.keep < self.rows.len() {
            let nth = self.keep - 1;
            self.rows
                .select_nth_unstable_by_key(nth, |&key| std::cmp::Reverse(key));
            self.rows.truncate(self.keep);
        }
    }
}

/// A query the coded scan serves, with what its passes carry over.
struct CodedQuery {
    /// Its index in the batch.
    index: usize,
    moments: Moments,
    seeds: Seeds,
    /// One bit per aligned group of four rows, shard by shard: the
    /// groups scored exactly so far.
    scored: Vec<u64>,
}

/// The exact path's running totals on a coded scan.
#[derive(Default)]
struct CodedCounts {
    /// Rows scored by `gemm_nt`.
    survivors: u64,
    /// Of those, rows that passed the threshold.
    candidates: u64,
    /// Rows the pools were seeded from.
    seeds: u64,
}

/// Asks for the `f32` rows of `groups` (shard, rows) ahead of scoring
/// them: they are scattered over the table, and waiting on each group's
/// misses in turn costs more than scoring it.
fn prefetch_groups<'a>(
    shards: &[Shard],
    dim: usize,
    groups: impl IntoIterator<Item = &'a (usize, Range<usize>)>,
) {
    for (s, rows) in groups {
        fvec::prefetch(&shards[*s].rows().as_slice()[rows.start * dim..rows.end * dim]);
    }
}

/// Bounds rows `rows` of `coded` for the query of `moments` into
/// `bounds` (`dots` is the kernel's scratch, as long), returning each
/// lane's largest bound.
fn bound_rows(
    moments: &Moments,
    coded: &CodedRows,
    rows: Range<usize>,
    dots: &mut [i32],
    bounds: &mut [f32],
) -> [f32; CODE_BLOCK_ROWS] {
    let block = code_block_bytes(moments.q8.len());
    let mut lane_max = [f32::NEG_INFINITY; CODE_BLOCK_ROWS];
    fvec::dot_codes(
        &moments.q8,
        &coded.codes[rows.start / CODE_BLOCK_ROWS * block..rows.end / CODE_BLOCK_ROWS * block],
        &moments.bound(coded, rows),
        dots,
        bounds,
        &mut lane_max,
    );
    lane_max
}

thread_local! {
    /// Every coded query's bound for every row of the store, from the
    /// bounds pass to the revisit: grown to the largest batch × store a
    /// thread has scanned, and reused.
    static BOUNDS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A resolved query ready for the GEMM scan: its row in the batch
/// matrix plus the ids its ranking must skip.
struct Resolved {
    query_index: usize,
    /// An analogy's three inputs; a similarity query's word, repeated.
    exclude: [u32; 3],
}

/// A batch resolved for the scan.
struct Packed {
    /// `active.len() × dim` unit query vectors, row-major.
    qmat: Vec<f32>,
    /// The queries that resolved, in request order.
    active: Vec<Resolved>,
    /// Per request, the error of a query that did not resolve.
    failures: Vec<Option<String>>,
}

/// The batched query engine: borrows a store and the vocabulary that
/// names its rows.
pub struct QueryEngine<'a> {
    store: &'a ShardedStore,
    vocab: &'a Vocabulary,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over `store`, whose row ids are named by
    /// `vocab` (row `i` ↔ `vocab.word_of(i)`).
    pub fn new(store: &'a ShardedStore, vocab: &'a Vocabulary) -> Self {
        Self { store, vocab }
    }

    /// Resolves a word to an id present in the store.
    fn id_of(&self, word: &str) -> Result<u32, String> {
        self.vocab
            .id_of(word)
            .filter(|&id| (id as usize) < self.store.len())
            .ok_or_else(|| format!("unknown word {word:?}"))
    }

    /// Writes the unit vector of `id` into `out` (raw row × precomputed
    /// inverse norm; a zero/non-finite row contributes all zeros).
    fn unit_into(&self, id: u32, out: &mut [f32]) {
        let row = self.store.vector(id).expect("id resolved against store");
        let inv = self.store.inv_norm(id).expect("id resolved against store");
        for (o, &x) in out.iter_mut().zip(row) {
            *o = x * inv;
        }
    }

    /// Builds the unit query vector for one request in `vec` (`tmp` is
    /// scratch of the same length) and returns the ids its ranking must
    /// skip, or the per-query error that will be reported instead.
    fn resolve(&self, query: &Query, vec: &mut [f32], tmp: &mut [f32]) -> Result<[u32; 3], String> {
        match query {
            Query::Similar { word } => {
                let id = self.id_of(word)?;
                self.unit_into(id, vec);
                Ok([id; 3])
            }
            Query::Analogy { a, b, c } => {
                let (ia, ib, ic) = (self.id_of(a)?, self.id_of(b)?, self.id_of(c)?);
                // 3CosAdd over unit vectors: v(b) − v(a) + v(c), then
                // normalized so reported scores are true cosines. Plain
                // scalar arithmetic only — the query vector feeds the
                // canonical rescore and must be backend-invariant.
                self.unit_into(ib, vec);
                self.unit_into(ia, tmp);
                for (v, t) in vec.iter_mut().zip(&*tmp) {
                    *v -= *t;
                }
                self.unit_into(ic, tmp);
                for (v, t) in vec.iter_mut().zip(&*tmp) {
                    *v += *t;
                }
                let n = scalar::dot(vec, vec).sqrt();
                if n.is_finite() && n > 0.0 {
                    let inv = 1.0 / n;
                    for v in vec.iter_mut() {
                        *v *= inv;
                    }
                }
                Ok([ia, ib, ic])
            }
        }
    }

    /// Resolves every query of a batch into a packed `m × dim` matrix.
    fn pack(&self, queries: &[Query]) -> Packed {
        let dim = self.store.dim();
        let mut qmat: Vec<f32> = Vec::with_capacity(queries.len() * dim);
        let mut active: Vec<Resolved> = Vec::with_capacity(queries.len());
        let mut failures: Vec<Option<String>> = vec![None; queries.len()];
        let (mut row, mut tmp) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        for (qi, q) in queries.iter().enumerate() {
            row.fill(0.0);
            match self.resolve(q, &mut row, &mut tmp) {
                Ok(exclude) => {
                    qmat.extend_from_slice(&row);
                    active.push(Resolved {
                        query_index: qi,
                        exclude,
                    });
                }
                Err(e) => {
                    gw2v_obs::counter("serve.oov").inc();
                    failures[qi] = Some(e);
                }
            }
        }
        Packed {
            qmat,
            active,
            failures,
        }
    }

    /// The dispatched scan: nominates each active query's pool of (at
    /// most) `pool_k` ids (see the module docs). A batch of at most
    /// [`CODED_MAX_QUERIES`] whose every query the codes can bound is
    /// filtered from the codes; any other is scored by GEMM. The pools
    /// are the same.
    fn scan(&self, qmat: &[f32], active: &[Resolved], pool_k: usize) -> Vec<TopK> {
        let (m, dim) = (active.len(), self.store.dim());
        let mut tops: Vec<TopK> = (0..m).map(|_| TopK::new(pool_k)).collect();
        if m == 0 {
            return tops;
        }
        let moments: Option<Vec<Moments>> = (m <= CODED_MAX_QUERIES && dim > 0)
            .then(|| qmat.chunks_exact(dim).map(Moments::of).collect())
            .flatten();
        let rows = self.store.len() as u64;
        gw2v_obs::add("serve.rows_scored", m as u64 * rows);
        match moments {
            Some(moments) => {
                let counts = self.scan_coded(qmat, active, moments, pool_k, &mut tops);
                gw2v_obs::add("serve.scan_candidates", counts.candidates);
                gw2v_obs::add("serve.coded_rows", m as u64 * rows);
                gw2v_obs::add("serve.code_survivors", counts.survivors);
                gw2v_obs::add("serve.code_seeds", counts.seeds);
            }
            None => {
                let candidates = self.scan_gemm(qmat, active, &mut tops);
                gw2v_obs::add("serve.scan_candidates", candidates);
            }
        }
        tops
    }

    /// The GEMM scan: one `gemm_nt` per tile scores every query of the
    /// batch, then each selects from its row of the block. Returns how
    /// many scores took the exact path.
    fn scan_gemm(&self, qmat: &[f32], active: &[Resolved], tops: &mut [TopK]) -> u64 {
        let (m, dim) = (active.len(), self.store.dim());
        let mut scores = vec![0.0f32; m * SCAN_TILE];
        let mut candidates = 0;
        for shard in self.store.shards() {
            let n = shard.len();
            if n == 0 {
                continue;
            }
            let t_scan = Instant::now();
            let (ids, inv, rows) = (shard.ids(), shard.inv_norms(), shard.rows().as_slice());
            for start in (0..n).step_by(SCAN_TILE) {
                let end = n.min(start + SCAN_TILE);
                let len = end - start;
                let block = &mut scores[..m * len];
                block.fill(0.0);
                fvec::gemm_nt(m, len, dim, qmat, &rows[start * dim..end * dim], block);
                for (i, top) in tops.iter_mut().enumerate() {
                    candidates += top.offer_tile(
                        &block[i * len..(i + 1) * len],
                        &inv[start..end],
                        &ids[start..end],
                        &active[i].exclude,
                    );
                }
            }
            gw2v_obs::observe("serve.shard_scan_ns", t_scan.elapsed().as_nanos() as u64);
        }
        candidates
    }

    /// The coded scan (docs/SERVING.md § "Seeding"), [`CODED_CHUNK`]
    /// queries at a time, in three passes. **Bounds**, tile by tile and
    /// every query per tile: the kernel bounds the tile's rows from their
    /// codes, each query keeps the bounds and the rows of its largest
    /// ones. **Seeds**, query by query: the groups of four rows of its
    /// `k + POOL_SLACK + 3` largest bounds are scored exactly, and so is
    /// every shard's uncoded tail, which fills the pool and sets its
    /// threshold. **Revisit**, query by query: every other group with a
    /// bound not below the threshold is scored exactly. No group is
    /// scored twice.
    fn scan_coded(
        &self,
        qmat: &[f32],
        active: &[Resolved],
        moments: Vec<Moments>,
        pool_k: usize,
        tops: &mut [TopK],
    ) -> CodedCounts {
        let seeds = if pool_k == 0 { 0 } else { pool_k + SEED_EXTRA };
        let mut coded: Vec<CodedQuery> = moments
            .into_iter()
            .enumerate()
            .map(|(index, moments)| CodedQuery {
                index,
                moments,
                seeds: Seeds::new(seeds),
                scored: Vec::new(),
            })
            .collect();
        let mut counts = CodedCounts::default();
        let (dim, shards, n_rows) = (self.store.dim(), self.store.shards(), self.store.len());
        // Per shard, its first row's position and its first group's bit.
        let (mut row_base, mut group_base) = (Vec::new(), Vec::new());
        let (mut rows, mut groups) = (0, 0);
        for shard in shards {
            row_base.push(rows);
            group_base.push(groups);
            rows += shard.len();
            groups += shard.len().div_ceil(GROUP);
        }
        // A position's shard and its aligned group of four rows there.
        let group_of = |at: usize| {
            let s = row_base.partition_point(|&base| base <= at) - 1;
            let lo = (at - row_base[s]) / GROUP * GROUP;
            (s, lo..lo + GROUP)
        };
        // Scores one query's group of four rows of `shard` — or a shard's
        // tail — unless it was scored already.
        let exact = |q: &mut CodedQuery,
                     top: &mut TopK,
                     counts: &mut CodedCounts,
                     s: usize,
                     rows: Range<usize>| {
            if rows.is_empty() {
                return;
            }
            let bit = group_base[s] + rows.start / GROUP;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            if q.scored[word] & mask != 0 {
                return;
            }
            q.scored[word] |= mask;
            let i = q.index;
            let (scored, passed) = top.offer_exact(
                &qmat[i * dim..(i + 1) * dim],
                &shards[s],
                rows,
                &active[i].exclude,
            );
            counts.survivors += scored;
            counts.candidates += passed;
        };

        let mut shard_ns = vec![0u64; shards.len()];
        let mut dots = vec![0i32; SCAN_TILE];
        BOUNDS.with_borrow_mut(|all| {
            let chunk = coded.len().min(CODED_CHUNK);
            if all.len() < chunk * n_rows {
                all.resize(chunk * n_rows, 0.0);
            }
            for coded in coded.chunks_mut(CODED_CHUNK) {
                let span = gw2v_obs::span("serve.scan.bounds");
                for (s, (shard, ns)) in shards.iter().zip(&mut shard_ns).enumerate() {
                    let t_scan = Instant::now();
                    let n = shard.coded().len();
                    for start in (0..n).step_by(SCAN_TILE) {
                        let rows = start..n.min(start + SCAN_TILE);
                        let at = row_base[s] + start;
                        for (k, q) in coded.iter_mut().enumerate() {
                            let bounds = &mut all[k * n_rows + at..][..rows.len()];
                            let dots = &mut dots[..rows.len()];
                            let lane_max =
                                bound_rows(&q.moments, shard.coded(), rows.clone(), dots, bounds);
                            q.seeds.offer_tile(bounds, &lane_max, at);
                        }
                    }
                    *ns += t_scan.elapsed().as_nanos() as u64;
                }
                drop(span);

                let span = gw2v_obs::span("serve.scan.seeds");
                for q in coded.iter_mut() {
                    let top = &mut tops[q.index];
                    q.scored = vec![0; groups.div_ceil(64)];
                    q.seeds.select();
                    counts.seeds += q.seeds.rows.len() as u64;
                    let mut seeded: Vec<(usize, Range<usize>)> = q
                        .seeds
                        .rows
                        .iter()
                        .map(|&key| group_of(key as u32 as usize))
                        .collect();
                    seeded.extend(
                        shards
                            .iter()
                            .enumerate()
                            .map(|(s, shard)| (s, shard.coded().len()..shard.len())),
                    );
                    prefetch_groups(shards, dim, &seeded);
                    for (s, rows) in seeded {
                        exact(q, top, &mut counts, s, rows);
                    }
                }
                drop(span);

                let _span = gw2v_obs::span("serve.scan.revisit");
                for (k, q) in coded.iter_mut().enumerate() {
                    let top = &mut tops[q.index];
                    let bounds = &all[k * n_rows..(k + 1) * n_rows];
                    // The groups with a bound not below the threshold the
                    // seeds set, prefetched together, then each scored
                    // unless its bounds fall below the threshold by then.
                    let mut open: Vec<(usize, Range<usize>)> = Vec::new();
                    for (s, shard) in shards.iter().enumerate() {
                        let coded_rows = &bounds[row_base[s]..row_base[s] + shard.coded().len()];
                        let (chunks, _) = coded_rows.as_chunks::<CODE_BLOCK_ROWS>();
                        let t = top.threshold;
                        for (c, chunk) in chunks.iter().enumerate() {
                            // No branch per lane: most blocks are below.
                            if chunk.iter().fold(true, |all, &b| all & (b < t)) {
                                continue;
                            }
                            for (g, group) in chunk.chunks_exact(GROUP).enumerate() {
                                if !group.iter().all(|&b| b < t) {
                                    let lo = c * CODE_BLOCK_ROWS + g * GROUP;
                                    open.push((s, lo..lo + GROUP));
                                }
                            }
                        }
                    }
                    prefetch_groups(shards, dim, &open);
                    for (s, rows) in open {
                        let t = top.threshold;
                        let at = row_base[s] + rows.start;
                        if !bounds[at..at + GROUP].iter().all(|&b| b < t) {
                            exact(q, top, &mut counts, s, rows);
                        }
                    }
                }
            }
        });
        for (shard, ns) in shards.iter().zip(shard_ns) {
            if shard.len() > 0 {
                gw2v_obs::observe("serve.shard_scan_ns", ns);
            }
        }
        counts
    }

    /// Answers one query; equivalent to a batch of size one.
    pub fn answer(&self, query: &Query, k: usize) -> Answer {
        self.answer_batch(std::slice::from_ref(query), k)
            .pop()
            .expect("one answer per query")
    }

    /// Answers a batch of queries: one GEMM per tile of each shard scores
    /// every resolvable query at once, then each query ranks its own top
    /// `k` under its exclusion list. Answers come back in request order;
    /// unknown words produce per-query errors, not a batch failure.
    pub fn answer_batch(&self, queries: &[Query], k: usize) -> Vec<Answer> {
        let t_batch = Instant::now();
        let span = gw2v_obs::span("serve.batch");
        let dim = self.store.dim();
        gw2v_obs::add("serve.queries", queries.len() as u64);
        gw2v_obs::counter("serve.batches").inc();

        let Packed {
            qmat,
            active,
            failures,
        } = {
            let _span = gw2v_obs::span("serve.pack");
            self.pack(queries)
        };
        // The scan keeps a pool wider than k; the canonical rescore
        // below picks the final k (see the module docs). No pool can
        // hold more than the store, whatever `k` a client sends.
        let pool_k = if k == 0 {
            0
        } else {
            k.saturating_add(POOL_SLACK).min(self.store.len())
        };
        let tops = {
            let _span = gw2v_obs::span("serve.scan");
            self.scan(&qmat, &active, pool_k)
        };

        // Canonical rescore of each query's pool with the fixed-order
        // scalar kernel, then reassemble in request order.
        let rescore_span = gw2v_obs::span("serve.rescore");
        let t_rescore = Instant::now();
        let mut hits: Vec<Option<Vec<Hit>>> = failures.iter().map(|_| None).collect();
        for (i, (resolved, top)) in active.into_iter().zip(tops).enumerate() {
            let q = &qmat[i * dim..(i + 1) * dim];
            let mut scored: Vec<(i64, u32)> = top
                .items
                .iter()
                .map(|&(_, id)| {
                    let row = self.store.vector(id).expect("pool id is in store");
                    let inv = self.store.inv_norm(id).expect("pool id is in store");
                    (quantize(scalar::dot(q, row) * inv), id)
                })
                .collect();
            scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            // A NaN score fills a pool with room to spare; it is not a hit.
            scored.retain(|&(micro, _)| micro != i64::MIN);
            scored.truncate(k);
            hits[resolved.query_index] = Some(
                scored
                    .into_iter()
                    .map(|(score_micro, id)| Hit { id, score_micro })
                    .collect(),
            );
        }
        gw2v_obs::observe("serve.rescore_ns", t_rescore.elapsed().as_nanos() as u64);
        drop(rescore_span);
        let answers: Vec<Answer> = queries
            .iter()
            .zip(hits.into_iter().zip(failures))
            .map(|(q, (h, f))| Answer {
                query: q.clone(),
                hits: match (h, f) {
                    (Some(hs), _) => Ok(hs),
                    (None, Some(e)) => Err(e),
                    (None, None) => unreachable!("query neither resolved nor failed"),
                },
            })
            .collect();

        let elapsed_ns = t_batch.elapsed().as_nanos() as u64;
        gw2v_obs::observe("serve.batch_ns", elapsed_ns);
        if !queries.is_empty() {
            // Amortized per-query latency; the load harness observes true
            // per-request latency separately from the client side.
            let per_query = elapsed_ns / queries.len() as u64;
            let h = gw2v_obs::histogram("serve.query_ns");
            for _ in 0..queries.len() {
                h.observe(per_query);
            }
        }
        let mut span = span;
        span.field("queries", queries.len() as f64);
        span.field("k", k as f64);
        drop(span);
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_util::fvec::FlatMatrix;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Deterministic pseudo-random rows.
    fn random_table(rows: usize, dim: usize) -> FlatMatrix {
        let mut t = FlatMatrix::zeros(rows, dim);
        let mut s = 0x243F_6A88_85A3_08D3u64;
        for r in 0..rows {
            for d in 0..dim {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t.row_mut(r)[d] = ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
            }
        }
        t
    }

    fn vocab_of(rows: usize) -> Vocabulary {
        let n = rows as u64;
        Vocabulary::from_counts((0..rows).map(|i| (format!("w{i}"), n - i as u64)), 1)
    }

    fn store_and_vocab(rows: usize, dim: usize) -> (ShardedStore, Vocabulary) {
        let store = ShardedStore::from_matrix(&random_table(rows, dim), 4);
        (store, vocab_of(rows))
    }

    #[test]
    fn parse_accepts_the_query_language() {
        assert_eq!(Query::parse("").unwrap(), None);
        assert_eq!(Query::parse("  # comment").unwrap(), None);
        assert_eq!(
            Query::parse("sim king # trailing").unwrap(),
            Some(Query::Similar {
                word: "king".into()
            })
        );
        assert_eq!(
            Query::parse("analogy man king woman").unwrap(),
            Some(Query::Analogy {
                a: "man".into(),
                b: "king".into(),
                c: "woman".into()
            })
        );
        assert!(Query::parse("sim a b").is_err());
        assert!(Query::parse("analogy a b").is_err());
        assert!(Query::parse("frobnicate x").is_err());
        // Unicode whitespace is part of a word, as it is to the tokenizer.
        assert_eq!(
            Query::parse("\tsim eps\u{3000}ilon\u{a0}\r\n").unwrap(),
            Some(Query::Similar {
                word: "eps\u{3000}ilon\u{a0}".into()
            })
        );
        assert!(Query::parse("sim a\u{a0}b").unwrap().is_some());
    }

    #[test]
    fn similarity_excludes_self_and_ranks_by_cosine() {
        let (store, vocab) = store_and_vocab(40, 16);
        let engine = QueryEngine::new(&store, &vocab);
        let q = Query::Similar { word: "w3".into() };
        let hits = engine.answer(&q, 5).hits.unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.id != 3), "self excluded");
        assert!(
            hits.windows(2)
                .all(|w| better((w[0].score_micro, w[0].id), (w[1].score_micro, w[1].id))),
            "strictly best-first"
        );
        // Cross-check the winner against a brute-force scan using the
        // canonical score formula (unit query × raw row × inverse norm,
        // fixed-order scalar kernel).
        let inv3 = store.inv_norm(3).unwrap();
        let unit3: Vec<f32> = store.vector(3).unwrap().iter().map(|x| x * inv3).collect();
        let canon = |i: u32| {
            quantize(scalar::dot(&unit3, store.vector(i).unwrap()) * store.inv_norm(i).unwrap())
        };
        let best = (0..40u32)
            .filter(|&i| i != 3)
            .max_by(|&x, &y| canon(x).cmp(&canon(y)).then(y.cmp(&x)))
            .unwrap();
        assert_eq!(hits[0].id, best);
        assert_eq!(hits[0].score_micro, canon(best));
    }

    #[test]
    fn analogy_excludes_all_three_inputs() {
        let (store, vocab) = store_and_vocab(30, 8);
        let engine = QueryEngine::new(&store, &vocab);
        let q = Query::Analogy {
            a: "w1".into(),
            b: "w2".into(),
            c: "w3".into(),
        };
        let hits = engine.answer(&q, 27).hits.unwrap();
        assert_eq!(hits.len(), 27, "k capped by candidates");
        assert!(hits.iter().all(|h| ![1, 2, 3].contains(&h.id)));
    }

    #[test]
    fn unknown_words_fail_per_query_not_per_batch() {
        let (store, vocab) = store_and_vocab(10, 8);
        let engine = QueryEngine::new(&store, &vocab);
        let batch = [
            Query::Similar { word: "w1".into() },
            Query::Similar {
                word: "nope".into(),
            },
            Query::Similar { word: "w2".into() },
        ];
        let answers = engine.answer_batch(&batch, 3);
        assert!(answers[0].hits.is_ok());
        assert!(answers[1].hits.as_ref().unwrap_err().contains("nope"));
        assert!(answers[2].hits.is_ok());
    }

    #[test]
    fn batched_and_single_answers_agree() {
        let (store, vocab) = store_and_vocab(50, 12);
        let engine = QueryEngine::new(&store, &vocab);
        let batch: Vec<Query> = (0..20)
            .map(|i| {
                if i % 3 == 0 {
                    Query::Analogy {
                        a: format!("w{i}"),
                        b: format!("w{}", i + 1),
                        c: format!("w{}", i + 2),
                    }
                } else {
                    Query::Similar {
                        word: format!("w{i}"),
                    }
                }
            })
            .collect();
        let batched = engine.answer_batch(&batch, 7);
        for (q, a) in batch.iter().zip(&batched) {
            let single = engine.answer(q, 7);
            assert_eq!(
                single.hits.as_ref().unwrap(),
                a.hits.as_ref().unwrap(),
                "batch vs single mismatch for {q:?}"
            );
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let (store1, vocab) = store_and_vocab(60, 16);
        // Rebuild the same table with different shardings.
        let mut t = FlatMatrix::zeros(60, 16);
        for id in 0..60u32 {
            t.row_mut(id as usize)
                .copy_from_slice(store1.vector(id).unwrap());
        }
        for n_shards in [1usize, 3, 17] {
            let store2 = ShardedStore::from_matrix(&t, n_shards);
            let e1 = QueryEngine::new(&store1, &vocab);
            let e2 = QueryEngine::new(&store2, &vocab);
            for w in ["w0", "w7", "w59"] {
                let q = Query::Similar { word: w.into() };
                assert_eq!(
                    e1.answer(&q, 10).hits.unwrap(),
                    e2.answer(&q, 10).hits.unwrap(),
                    "sharding must be invisible to ranking ({n_shards} shards)"
                );
            }
        }
    }

    #[test]
    fn json_lines_are_deterministic_and_escaped() {
        let (store, vocab) = store_and_vocab(10, 8);
        let engine = QueryEngine::new(&store, &vocab);
        let a = engine.answer(&Query::Similar { word: "w1".into() }, 2);
        let line = a.json_line(&vocab);
        assert!(line.starts_with("{\"kind\":\"sim\",\"words\":[\"w1\"],\"hits\":["));
        assert!(line.ends_with("}]}"));
        let err = engine.answer(
            &Query::Similar {
                word: "a\"b\\c".into(),
            },
            2,
        );
        let line = err.json_line(&vocab);
        assert!(line.contains("\\\"b\\\\c"), "escaped: {line}");
    }

    /// `json_line` as it was written with one `format!` per hit and per
    /// control byte; the `write!` rendering must equal it byte for byte.
    fn json_line_by_format(a: &Answer, vocab: &Vocabulary) -> String {
        let escape = |s: &str| -> String {
            s.chars()
                .map(|ch| match ch {
                    '"' => "\\\"".to_owned(),
                    '\\' => "\\\\".to_owned(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                    c => c.to_string(),
                })
                .collect()
        };
        let words: Vec<String> = a
            .query
            .words()
            .iter()
            .map(|w| format!("\"{}\"", escape(w)))
            .collect();
        let body = match &a.hits {
            Ok(hits) => {
                let hits: Vec<String> = hits
                    .iter()
                    .map(|h| {
                        format!(
                            "{{\"word\":\"{}\",\"id\":{},\"score\":{:.6}}}",
                            escape(vocab.word_of(h.id)),
                            h.id,
                            h.score()
                        )
                    })
                    .collect();
                format!("\"hits\":[{}]", hits.join(","))
            }
            Err(e) => format!("\"error\":\"{}\"", escape(e)),
        };
        format!(
            "{{\"kind\":\"{}\",\"words\":[{}],{body}}}",
            a.query.kind(),
            words.join(",")
        )
    }

    #[test]
    fn json_line_bytes_equal_the_format_rendering() {
        let vocab = Vocabulary::from_counts(
            [
                ("plain", 9u64),
                ("q\"uote\\", 8),
                ("ctl\u{1}\t\n\u{1f}", 7),
                ("ünï", 6),
            ]
            .into_iter()
            .map(|(w, c)| (w.to_owned(), c)),
            1,
        );
        let hits: Vec<Hit> = [
            1_000_000i64,
            999_999,
            1,
            0,
            -1,
            -123_456,
            -1_000_000,
            i64::MIN,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, score_micro)| Hit {
            id: (i % 4) as u32,
            score_micro,
        })
        .collect();
        let answers = [
            Answer {
                query: Query::Similar {
                    word: "ctl\u{1}\t".into(),
                },
                hits: Ok(hits.clone()),
            },
            Answer {
                query: Query::Analogy {
                    a: "q\"uote\\".into(),
                    b: "ünï".into(),
                    c: "plain".into(),
                },
                hits: Ok(Vec::new()),
            },
            Answer {
                query: Query::Similar {
                    word: "no\u{0}pe".into(),
                },
                hits: Err("unknown word \"no\\u{0}pe\"\u{7}".into()),
            },
        ];
        for a in &answers {
            assert_eq!(a.json_line(&vocab), json_line_by_format(a, &vocab));
        }
        assert!(answers[0].json_line(&vocab).contains("ctl\\u0001\\u0009"));
    }

    #[test]
    fn reject_below_never_rejects_a_score_the_pool_would_take() {
        let mut micros = vec![
            0,
            1,
            -1,
            999_999,
            -999_999,
            1_000_000,
            -1_000_000,
            i64::MIN + 1,
            i64::MAX,
        ];
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly cosines, some far outside [-1, 1], some anywhere.
            micros.push(match i % 4 {
                0 => s as i64,
                1 => (s >> 20) as i64 - (1 << 43),
                _ => (s >> 40) as i64 % 1_100_000 - 550_000,
            });
        }
        for micro in micros {
            let mut t = reject_below(micro);
            assert!(!t.is_nan(), "micro {micro}");
            // The threshold and the floats under it quantize below the
            // pool's worst; by monotonicity so does every `s < t`.
            for _ in 0..4 {
                assert!(quantize(t) < micro, "micro {micro}: t {t:e}");
                t = t.next_down();
            }
        }
        // A pool whose worst is a NaN row rejects nothing: no float
        // quantizes below `i64::MIN`, and none compares below -∞.
        assert_eq!(reject_below(i64::MIN), f32::NEG_INFINITY);
    }

    /// The scan this module shipped with before the tile loop:
    /// materialise every score of a shard, then push each one.
    fn scan_materialized(
        engine: &QueryEngine,
        qmat: &[f32],
        active: &[Resolved],
        pool_k: usize,
    ) -> Vec<TopK> {
        let (m, dim) = (active.len(), engine.store.dim());
        let mut tops: Vec<TopK> = (0..m).map(|_| TopK::new(pool_k)).collect();
        for shard in engine.store.shards() {
            let n = shard.len();
            let mut block = vec![0.0f32; m * n];
            fvec::gemm_nt(m, n, dim, qmat, shard.rows().as_slice(), &mut block);
            let (ids, inv) = (shard.ids(), shard.inv_norms());
            for (i, top) in tops.iter_mut().enumerate() {
                let qrow = &block[i * n..(i + 1) * n];
                for j in 0..n {
                    if !active[i].exclude.contains(&ids[j]) {
                        top.push(quantize(qrow[j] * inv[j]), ids[j]);
                    }
                }
            }
        }
        tops
    }

    /// Asserts the tiled, threshold-filtered scan nominates exactly the
    /// pools of the materialise-then-select loop for `queries`.
    fn assert_scan_matches_oracle(store: &ShardedStore, queries: &[Query], k: usize) {
        let vocab = vocab_of(store.len());
        let engine = QueryEngine::new(store, &vocab);
        let packed = engine.pack(queries);
        assert!(packed.failures.iter().all(Option::is_none));
        let pool_k = if k == 0 {
            0
        } else {
            (k + POOL_SLACK).min(store.len())
        };
        let got = engine.scan(&packed.qmat, &packed.active, pool_k);
        let want = scan_materialized(&engine, &packed.qmat, &packed.active, pool_k);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.items, w.items, "pool of query {i} ({:?})", queries[i]);
        }
    }

    /// A table built to break the scan: zero rows, rows with a NaN or
    /// ±∞ element, duplicated rows (exact score ties, across shards
    /// too), near-copies (scores a fraction of a code step apart),
    /// constant rows (`scale = 0`), rows of magnitude 1e±30 (norms that
    /// overflow and underflow), one-hot rows, rows whose range is 1e6×
    /// their neighbours', rows on a coarse grid, so distinct rows tie
    /// too — among dense rows as a trained table has them.
    fn hostile_table(rng: &mut TestRng, rows: usize, dim: usize) -> FlatMatrix {
        let mut t = FlatMatrix::zeros(rows, dim);
        for r in 0..rows {
            let kind = rng.below(20);
            let at = rng.below(dim as u64) as usize;
            match kind {
                0 => {}
                1 => t.row_mut(r)[at] = f32::NAN,
                2 => t.row_mut(r)[at] = f32::INFINITY,
                3 => t.row_mut(r)[at] = f32::NEG_INFINITY,
                4 | 5 if r > 0 => {
                    let src = t.row(rng.below(r as u64) as usize).to_vec();
                    t.row_mut(r).copy_from_slice(&src);
                }
                6 => t.row_mut(r).fill(rng.below(9) as f32 - 4.0),
                7 => t.row_mut(r)[at] = 1.0,
                8..=11 => {
                    let scale = [1e30, 1e-30, 1e6, 0.25][kind as usize - 8];
                    for v in t.row_mut(r) {
                        *v = (rng.below(9) as f32 - 4.0) * scale;
                    }
                }
                // Near-copies: scores closer together than a code step.
                12..=15 if r > 0 => {
                    let src = t.row(rng.below(r as u64) as usize).to_vec();
                    for (v, x) in t.row_mut(r).iter_mut().zip(src) {
                        *v = x * (1.0 + (rng.below(65) as f32 - 32.0) / 16384.0);
                    }
                }
                // As a trained table has them: dense and graded.
                _ => {
                    for v in t.row_mut(r) {
                        *v = rng.below(1 << 20) as f32 / (1 << 20) as f32 - 0.5;
                    }
                }
            }
        }
        t
    }

    fn mixed_queries(rng: &mut TestRng, rows: usize, batch: usize) -> Vec<Query> {
        let word = |rng: &mut TestRng| format!("w{}", rng.below(rows as u64));
        (0..batch)
            .map(|i| {
                if i % 3 == 1 {
                    Query::Analogy {
                        a: word(rng),
                        b: word(rng),
                        c: word(rng),
                    }
                } else {
                    Query::Similar { word: word(rng) }
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over hostile tables, every k, shard count and exclusion
        /// shape, at dims on both sides of every kernel boundary and at
        /// batch sizes on both sides of the coded/GEMM switch: the scan
        /// nominates the pools a push of every row builds.
        #[test]
        fn tiled_scan_pool_equals_the_materialised_scan(
            rows in 3usize..700,
            dim in prop_oneof![
                1usize..24, Just(1), Just(7), Just(8), Just(9),
                Just(63), Just(64), Just(65), Just(300),
            ],
            seed in any::<u64>(),
            n_shards in prop_oneof![Just(1usize), Just(3), Just(8)],
            batch in prop_oneof![
                1usize..=CODED_MAX_QUERIES, 1usize..=CODED_MAX_QUERIES + 1, Just(3), Just(33),
            ],
            k_kind in 0usize..5,
        ) {
            let mut rng = TestRng::from_seed(seed);
            let t = hostile_table(&mut rng, rows, dim);
            let store = ShardedStore::from_matrix(&t, n_shards);
            let queries = mixed_queries(&mut rng, rows, batch);
            let k = [0, 1, 10, rows, rows + 5][k_kind];
            assert_scan_matches_oracle(&store, &queries, k);
        }
    }

    #[test]
    fn coded_scan_keeps_rows_that_tie_within_a_code_step() {
        // Every row makes the same angle with row 0, each in its own
        // direction: cosines that agree to rounding, coding errors that
        // do not. A bound that forgets a row's error drops it at the tie.
        let (rows, dim) = (1200usize, 32usize);
        let mut t = random_table(rows, dim);
        let centre = t.row(0).to_vec();
        let cc = scalar::dot(&centre, &centre);
        for r in 1..rows {
            let row = t.row_mut(r);
            let along = scalar::dot(row, &centre) / cc;
            for (v, c) in row.iter_mut().zip(&centre) {
                *v -= along * c;
            }
            let across = (cc / scalar::dot(row, row)).sqrt() * 0.75;
            for (v, c) in row.iter_mut().zip(&centre) {
                *v = c + across * *v;
            }
        }
        // Eight shards: ids arrive out of order, so most of a wide pool
        // is admitted at the tie, after the threshold has reached it.
        let store = ShardedStore::from_matrix(&t, 8);
        for k in [10, 500] {
            assert_scan_matches_oracle(&store, &[Query::Similar { word: "w0".into() }], k);
        }
    }

    #[test]
    fn coded_bound_is_never_below_the_exact_score() {
        // Row by row and query by query: the bound the kernel returns is
        // at least the f32 score the scan would offer, and at least the
        // score recomputed in f64 — or it is +∞ (in place of a NaN),
        // which survives too.
        let mut rng = TestRng::from_seed(0x5EED_C0DE);
        let (mut coded, mut sharp) = (0usize, 0usize);
        for dim in [1usize, 7, 8, 9, 63, 64, 65, 300] {
            let rows = 300 + 2 * dim;
            let t = hostile_table(&mut rng, rows, dim);
            let store = ShardedStore::from_matrix(&t, 3);
            let vocab = vocab_of(rows);
            let engine = QueryEngine::new(&store, &vocab);
            let packed = engine.pack(&mixed_queries(&mut rng, rows, 24));
            for q in packed.qmat.chunks_exact(dim) {
                let Some(moments) = Moments::of(q) else {
                    continue;
                };
                for shard in store.shards() {
                    let (n, c) = (shard.coded().len(), shard.coded());
                    let mut bounds = vec![0.0f32; n];
                    bound_rows(&moments, c, 0..n, &mut vec![0; n], &mut bounds);
                    let mut dots = vec![0.0f32; n];
                    fvec::gemm_nt(1, n, dim, q, &shard.rows().as_slice()[..n * dim], &mut dots);
                    for j in 0..n {
                        let ub = bounds[j];
                        let inv = shard.inv_norms()[j];
                        let exact = dots[j] * inv;
                        let real: f64 = q
                            .iter()
                            .zip(shard.rows().row(j))
                            .map(|(&x, &y)| x as f64 * y as f64)
                            .sum::<f64>()
                            * inv as f64;
                        let at = format!("dim {dim} id {}: bound {ub}", shard.ids()[j]);
                        // A NaN score needs a bound nothing is above.
                        let covers = |score: f64| ub == f32::INFINITY || ub as f64 >= score;
                        assert!(!ub.is_nan(), "{at}");
                        assert!(covers(exact as f64), "{at} under the f32 score {exact}");
                        assert!(covers(real), "{at} under the f64 score {real}");
                        coded += c.slack[j].is_finite() as usize;
                        sharp += (ub < 0.9) as usize;
                    }
                }
            }
        }
        // Not vacuously: most rows are coded, and their bounds bite.
        assert!(sharp > coded / 2 && coded > 10_000, "{sharp} of {coded}");
    }

    #[test]
    fn quantized_query_fits_i8_and_its_lift_covers_the_rounding() {
        let scaled = |q: Vec<f32>, norm: f32| -> Vec<f32> {
            let n = q.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
            q.iter()
                .map(|&x| (x as f64 * norm as f64 / n) as f32)
                .collect()
        };
        let (mut checked, mut on_half_steps) = (0, 0);
        for dim in [1usize, 15, 16, 17, 64, 257, 300] {
            let one_hot = |x: f32| (0..dim).map(|i| if i == 0 { x } else { 0.0 }).collect();
            let equal = |norm: f32| scaled(vec![1.0; dim], norm);
            // The largest coordinate is 126.5 steps of 2^-shift, the rest
            // half a step, alternating in sign: every coordinate is a
            // tie, and the largest is the last to round into ±127.
            let half_steps = |shift: i32| -> Vec<f32> {
                let step = 2f32.powi(-shift);
                (0..dim)
                    .map(|i| match i {
                        0 => 126.5 * step,
                        _ if i % 2 == 0 => 0.5 * step,
                        _ => -0.5 * step,
                    })
                    .collect()
            };
            let queries: Vec<(&str, Vec<f32>)> = vec![
                ("one-hot", one_hot(1.0)),
                ("one-hot ½", one_hot(0.5)),
                ("one-hot 2", one_hot(2.0)),
                ("equal", equal(1.0)),
                ("equal ½", equal(0.5)),
                ("equal 2", equal(2.0)),
                ("half-steps 6", half_steps(6)),
                ("half-steps 7", half_steps(7)),
                ("zero", vec![0.0; dim]),
            ];
            for (name, q) in queries {
                let at = format!("dim {dim} {name}");
                let Some(m) = Moments::of(&q) else {
                    // Only a norm rounded just past ½ or 2 may decline.
                    assert!(name.ends_with('½') || name.ends_with('2'), "{at} declined");
                    continue;
                };
                checked += 1;
                let shift = -(m.unscale.log2() as i32);
                assert_eq!(m.unscale, 2f32.powi(-shift), "{at}: a power of two");
                assert_eq!(m.q8.len(), dim);
                let l1: i64 = m.q8.iter().map(|&x| (x as i64).abs()).sum();
                assert!(m.q8.iter().all(|&x| x != i8::MIN), "{at}: |q̃| ≤ 127");
                assert!(15 * l1 < 1 << 31, "{at}: 15·‖q̃‖₁ = {}", 15 * l1);
                let mut loss = 0.0f64;
                for (&x, &r) in q.iter().zip(&m.q8) {
                    let steps = x as f64 * 2f64.powi(shift);
                    assert!((steps - r as f64).abs() <= 0.5, "{at}: {x} rounds to {r}");
                    loss += (steps - r as f64).abs() * m.unscale as f64;
                }
                assert!(
                    m.lift as f64 >= 15.0 * loss,
                    "{at}: lift {} < {}",
                    m.lift,
                    15.0 * loss
                );
                // And no finer scale would have fitted: one more bit
                // breaks the ±127 range.
                let finer = q
                    .iter()
                    .all(|&x| (x as f64 * 2f64.powi(shift + 1)).round().abs() <= 127.0);
                assert!(
                    !finer || name == "zero",
                    "{at}: shift {shift} is not the finest"
                );
                if name.starts_with("half-steps") {
                    // Every coordinate is a tie, the largest rounds to
                    // 127, and the lift is the loss to within its few
                    // ulps of headroom.
                    assert_eq!(m.q8[0], 127, "{at}");
                    assert_eq!(loss, dim as f64 * 0.5 * m.unscale as f64, "{at}");
                    assert!(
                        m.lift as f64 <= 15.0 * loss * (1.0 + 1e-6),
                        "{at}: {}",
                        m.lift
                    );
                    on_half_steps += 1;
                }
            }
        }
        assert!(
            checked >= 50 && on_half_steps == 14,
            "{checked} {on_half_steps}"
        );
    }

    #[test]
    fn tile_edges_keep_the_last_row() {
        // One shard, so shard order is id order: tiles end at rows 255 /
        // 256 / 257, at a 5-row tail, and at 2 and 2.03 tiles. The last
        // row is the query's own direction (cosine 1), alone in the
        // short tail tile — and the first row its runner-up.
        for rows in [255usize, 256, 257, 261, 512, 519] {
            let mut t = random_table(rows, 8);
            let probe: Vec<f32> = t.row(7).iter().map(|x| x * 3.0).collect();
            t.row_mut(rows - 1).copy_from_slice(&probe);
            let near: Vec<f32> = t.row(7).iter().map(|x| x + 0.01).collect();
            t.row_mut(0).copy_from_slice(&near);
            let store = ShardedStore::from_matrix(&t, 1);
            let vocab = vocab_of(rows);
            let engine = QueryEngine::new(&store, &vocab);
            let q = Query::Similar { word: "w7".into() };
            for k in [1usize, 10] {
                let hits = engine.answer(&q, k).hits.unwrap();
                assert_eq!(hits[0].id as usize, rows - 1, "{rows} rows, k {k}");
                assert_eq!(hits[0].score_micro, 1_000_000);
                if k > 1 {
                    assert_eq!(hits[1].id, 0, "{rows} rows");
                }
            }
            let batch: Vec<Query> = (0..33)
                .map(|i| Query::Similar {
                    word: format!("w{i}"),
                })
                .collect();
            // Both scans, and the largest batch each side of the switch.
            for m in [1, CODED_MAX_QUERIES, CODED_MAX_QUERIES + 1, 33] {
                assert_scan_matches_oracle(&store, &batch[..m], 10);
            }
        }
    }

    #[test]
    fn coded_scan_edges_keep_the_materialised_pools() {
        // The best rows in the last tile of the last shard: copies of the
        // query's row, found only after every other tile was bounded.
        let (rows, dim) = (2100usize, 24usize);
        let mut t = random_table(rows, dim);
        let store = ShardedStore::from_matrix(&t, 3);
        let last = store.shards().last().unwrap();
        let coded = last.coded().len();
        let tail_tile = &last.ids()[(coded - 1) / SCAN_TILE * SCAN_TILE..coded];
        let probe = t.row(5).to_vec();
        let planted: Vec<u32> = tail_tile.iter().rev().take(3).copied().collect();
        for (r, &id) in planted.iter().enumerate() {
            let near: Vec<f32> = probe.iter().map(|x| x * (2.0 + r as f32)).collect();
            t.row_mut(id as usize).copy_from_slice(&near);
        }
        let store = ShardedStore::from_matrix(&t, 3);
        let vocab = vocab_of(rows);
        let engine = QueryEngine::new(&store, &vocab);
        let q = Query::Similar { word: "w5".into() };
        let hits = engine.answer(&q, 10).hits.unwrap();
        let mut best: Vec<u32> = hits[..3].iter().map(|h| h.id).collect();
        best.sort_unstable();
        let mut want = planted.clone();
        want.sort_unstable();
        assert_eq!(best, want, "the planted rows of the last tile win");
        // The excluded words hold the largest bounds: a similarity
        // query's own row, an analogy whose second and third words are
        // one, and a planted copy asked for by name.
        let w = |id: u32| format!("w{id}");
        let excluded = [
            q.clone(),
            Query::Similar {
                word: w(planted[0]),
            },
            Query::Analogy {
                a: "w9".into(),
                b: w(planted[1]),
                c: w(planted[1]),
            },
            Query::Analogy {
                a: w(planted[0]),
                b: w(planted[1]),
                c: w(planted[2]),
            },
        ];
        for k in [1, 10, rows - 20, rows, rows + 5] {
            // `k + POOL_SLACK`, and so the seeds, at or above the store.
            assert_scan_matches_oracle(&store, &excluded, k);
            for q in &excluded {
                assert_scan_matches_oracle(&store, std::slice::from_ref(q), k);
            }
        }
        // Shards of 1–7 rows, all of them uncoded tails, and shards of
        // one block and a tail.
        for (rows, n_shards) in [
            (1, 1),
            (2, 1),
            (5, 1),
            (7, 1),
            (9, 1),
            (15, 1),
            (20, 8),
            (40, 8),
        ] {
            let store = ShardedStore::from_matrix(&random_table(rows, 9), n_shards);
            let queries: Vec<Query> = (0..rows.min(5))
                .map(|i| Query::Similar {
                    word: format!("w{i}"),
                })
                .collect();
            for k in [1, 3, rows, rows + 5] {
                assert_scan_matches_oracle(&store, &queries, k);
                assert_scan_matches_oracle(&store, &queries[..1], k);
            }
        }
    }

    #[test]
    fn a_nan_score_fills_a_pool_but_is_not_a_hit() {
        let mut t = FlatMatrix::zeros(3, 3);
        t.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        t.row_mut(1)
            .copy_from_slice(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        t.row_mut(2).copy_from_slice(&[3.0, 2.0, 1.0]);
        let store = ShardedStore::from_matrix(&t, 2);
        let vocab = vocab_of(3);
        let engine = QueryEngine::new(&store, &vocab);
        let hits = engine.answer(&Query::Similar { word: "w0".into() }, 10);
        let ids: Vec<u32> = hits.hits.unwrap().iter().map(|h| h.id).collect();
        assert_eq!(ids, [2], "the NaN row is nominated, rescored and dropped");
        // Asked for by name it has no finite neighbour at all.
        let hits = engine.answer(&Query::Similar { word: "w1".into() }, 10);
        assert_eq!(hits.hits.unwrap(), []);
    }

    #[test]
    fn pool_is_capped_by_the_store() {
        let (store, vocab) = store_and_vocab(20, 8);
        let engine = QueryEngine::new(&store, &vocab);
        let q = Query::Similar { word: "w4".into() };
        let all = engine.answer(&q, usize::MAX).hits.unwrap();
        assert_eq!(all.len(), 19, "every row but the query's own");
        assert_eq!(all, engine.answer(&q, 19).hits.unwrap());
    }
}
