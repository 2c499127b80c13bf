//! Wire format for synchronization payloads.
//!
//! Rows cross the simulated network as serialized buffers, exactly as an
//! MPI deployment would pack them — in both engines. Serializing for
//! real (rather than passing references) keeps the byte accounting
//! honest and lets the threaded engine ship owned buffers between host
//! threads.
//!
//! # Payload modes
//!
//! Three payload layouts exist, selected per run by [`WireMode`] (the
//! full byte-layout reference lives in `docs/WIRE.md`):
//!
//! * **Id+value** ([`WireMode::IdValue`], the default) — every entry
//!   contributes a `u32` node id and `dim` `f32`s ([`entry_bytes`]
//!   bytes), laid out struct-of-arrays: all ids first, then all rows.
//!   Self-describing: the receiver learns *which* rows it got from the
//!   payload itself. Encoded by [`RowEncoder::finish`], decoded by
//!   [`RowDecoder`].
//! * **Delta** ([`WireMode::Delta`]) — row-change shipping: both ends
//!   keep a shadow of the last exchanged payload per
//!   (sender, receiver, layer, channel) key ([`DeltaShadow`], ids *and*
//!   values). When the id list repeats, the sender ships only a changed-
//!   row bitmask plus the rows whose bits actually changed
//!   ([`delta_bytes`]); the receiver reconstructs the untouched rows
//!   bit-exactly from its shadow. Shadows clear at every epoch start and
//!   on any liveness change (crash, adoption, rejoin), so fault recovery
//!   never decodes against a stale shadow. Lossless: delta changes
//!   bytes moved, never training results.
//! * **Quantized** ([`WireMode::Quant`]) — each row crosses the wire as
//!   `dim` `u8` codes plus one `f32` scale/offset pair
//!   ([`quant_entry_bytes`] = `12 + dim` per entry vs `4 + 4·dim`
//!   classic), laid out struct-of-arrays: ids, scales, offsets, codes.
//!   Encoded by [`RowEncoder::finish_quant`] through the
//!   backend-bit-identical `quantize_rows` kernel, decoded by
//!   [`QuantDecoder`]. **Lossy** (values snap to a per-row 256-point
//!   grid) but stateless: nothing to invalidate.
//!
//! Id+value and delta carry bit-identical `f32` row values — the
//! mode changes bytes moved, never training results; quant trades a
//! bounded accuracy delta for the biggest byte cut.
//!
//! # The seam
//!
//! The sync round (`round.rs`) never looks at the mode. It hands
//! every outgoing batch to [`WireState::encode`], which picks the form
//! (full, mask + changed rows, quantized) and advances the sender's
//! shadow, and every incoming payload to [`WireState::decode`], which
//! accepts whatever form arrived, checks it before indexing anything,
//! advances the receiver's shadow and yields `(node, row)` pairs in
//! payload order. A payload that passes its frame CRC but does not fit
//! the receiver's state is a [`WireError`], never a panic. `WireState::encode_dense_reduce` is
//! the one extra mode-aware entry: RepModelNaive's reduce, whose
//! accounted payload (every mirror row) is not the one it ships.
//!
//! # Format invariants
//!
//! * **Layout** — struct-of-arrays. Id+value: all `n` little-endian
//!   `u32` node ids first, then all `n·dim` little-endian IEEE-754
//!   `f32`s in the same order — `n` is self-describing
//!   (`buf.len() / entry_bytes(dim)`), and the total is still
//!   [`entry_bytes`]`(dim)` per entry, so byte accounting is unchanged
//!   from the historical interleaved layout. No header, no padding, no
//!   alignment requirement. Keeping the two regions contiguous is what
//!   lets the encoder run as two bulk passes (the ids, then the whole
//!   value region as one little-endian copy — a `memcpy` on
//!   little-endian targets, no kernel dispatch) instead of `n`
//!   interleaved gather/scatter steps.
//! * **Self-describing length** — `buf.len()` must be an exact multiple
//!   of the entry size, and a delta payload must carry exactly the mask
//!   and changed rows its shadow calls for, so a truncated,
//!   mis-dimensioned, or stale-shadow buffer is a [`WireError`] at the
//!   seam instead of a desynchronization.
//! * **Order-preserving** — entries decode in the order they were
//!   pushed. Determinism of the sync protocol relies on this: receivers
//!   fold messages in host-id order and entries in push order, and the
//!   delta mode relies on it twice over (the shadowed id list *is* the
//!   push order).
//! * **Bit-exact round-trip** — `f32` bits pass through unchanged
//!   (including NaN payloads and negative zero), so a serialize →
//!   deserialize cycle is the identity on rows.
//!
//! # Byte accounting and the paper's Table 3
//!
//! The paper's comm-volume numbers (Table 3, Fig. 6–9) count payload
//! bytes per sync round. [`crate::volume::CommStats`] mirrors that
//! accounting exactly in both engines:
//!
//! * id+value entries count [`entry_bytes`]`(dim)` each — this is the
//!   figure the paper reports for RepModelNaive / RepModelOpt /
//!   PullModel;
//! * compact payloads count the bytes they occupy ([`delta_bytes`] per
//!   delta payload, [`quant_entry_bytes`]`(dim)` per quantized entry);
//!   both engines count the payloads [`WireState::encode`] built, so
//!   they agree to the byte;
//! * sealed-frame armor ([`seal_frame`]'s 12-byte header) and PullModel
//!   request id-lists are transport/control traffic the paper does not
//!   count, and neither do we.

use crate::liveness::Liveness;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gw2v_util::crc32::crc32;
use gw2v_util::simd::kernels;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;

/// `values` as little-endian IEEE-754 bytes, bit-preserving (NaN
/// payloads and `-0.0` survive): a view of their memory on a
/// little-endian target, a converted copy otherwise.
fn le_bytes(values: &[f32]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    // SAFETY: the view covers exactly the memory of `values`, `u8` has no
    // alignment or validity requirement, and on a little-endian target
    // an `f32` slice's memory *is* its wire form.
    return Cow::Borrowed(unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    });
    #[cfg(not(target_endian = "little"))]
    Cow::Owned(
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect(),
    )
}

/// Reads little-endian IEEE-754 bytes from `src` (`4 · values.len()` of
/// them, at any alignment) into `values`; the exact inverse of
/// [`le_bytes`].
fn get_f32s_le(src: &[u8], values: &mut [f32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the view covers exactly the memory of `values`, which
        // it borrows mutably for as long as it lives, and every bit
        // pattern written through it is a valid `f32`.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                values.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(values),
            )
        };
        bytes.copy_from_slice(src);
    }
    #[cfg(not(target_endian = "little"))]
    {
        assert_eq!(src.len(), values.len() * 4, "f32 block length mismatch");
        for (v, b) in values.iter_mut().zip(src.chunks_exact(4)) {
            *v = f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
    }
}

/// The `i`-th little-endian `u32` of an id region.
fn id_at(ids: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([ids[4 * i], ids[4 * i + 1], ids[4 * i + 2], ids[4 * i + 3]])
}

/// Serialized bytes for one `(node, row)` id+value entry at dimension
/// `dim`.
#[inline]
pub const fn entry_bytes(dim: usize) -> usize {
    4 + 4 * dim
}

/// Serialized bytes of one row's values at dimension `dim`: what a
/// delta payload ships for each changed row (the node id lives in the
/// receiver's [`DeltaShadow`]).
#[inline]
pub(crate) const fn value_bytes(dim: usize) -> usize {
    4 * dim
}

/// Serialized bytes of the changed-row bitmask heading a delta payload
/// covering `n` rows (one bit per row, LSB-first within each byte).
#[inline]
pub const fn mask_bytes(n: usize) -> usize {
    n.div_ceil(8)
}

/// Serialized bytes of a delta payload on a shadow hit: the `n`-row
/// bitmask plus full `f32` rows for the `changed` rows only. Always
/// ≤ `n · entry_bytes(dim)` (the mask costs ⅛ byte per row where the
/// classic id costs 4).
#[inline]
pub const fn delta_bytes(dim: usize, n: usize, changed: usize) -> usize {
    mask_bytes(n) + changed * value_bytes(dim)
}

/// Serialized bytes for one quantized entry at dimension `dim`: a `u32`
/// node id, an `f32` scale, an `f32` offset, and `dim` `u8` codes.
/// Beats [`entry_bytes`] for every `dim ≥ 3`.
#[inline]
pub const fn quant_entry_bytes(dim: usize) -> usize {
    12 + dim
}

/// Which payload layout a run ships (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Self-describing id+value entries every round (the default).
    #[default]
    IdValue,
    /// Row-change shipping against a per-key shadow: id+value on the
    /// first exchange (and after any invalidation), bitmask + changed
    /// rows afterwards. Lossless.
    Delta,
    /// Per-row u8 quantization with an `f32` scale/offset pair. Lossy,
    /// stateless, and the biggest byte cut.
    Quant,
}

impl WireMode {
    /// Parses a CLI spelling (`"id-value"` / `"delta"` / `"quant"`).
    pub fn parse(s: &str) -> Option<WireMode> {
        match s {
            "id-value" | "idvalue" => Some(WireMode::IdValue),
            "delta" => Some(WireMode::Delta),
            "quant" | "quantized" => Some(WireMode::Quant),
            _ => None,
        }
    }

    /// Stable label for provenance records and plots.
    pub fn label(self) -> &'static str {
        match self {
            WireMode::IdValue => "id-value",
            WireMode::Delta => "delta",
            WireMode::Quant => "quant",
        }
    }
}

/// An encoder for a batch of `(node, row)` entries of fixed dimension.
///
/// Ids and values are staged separately so one encoder can serve every
/// payload layout: [`finish`](RowEncoder::finish) emits id+value,
/// [`finish_delta`](RowEncoder::finish_delta) a mask plus changed rows
/// and [`finish_quant`](RowEncoder::finish_quant) the quantized form.
/// The finishers are non-consuming and build a fresh buffer on every
/// call; [`WireState::encode`] builds each form that does not depend on
/// the peer at most once per staged batch, so a batch that goes to
/// several peers is serialized once.
#[derive(Debug, Default)]
pub struct RowEncoder {
    dim: usize,
    ids: Vec<u32>,
    values: Vec<f32>,
    /// Peer-independent forms already built for the staged batch,
    /// indexed by [`SharedForm`]; emptied by [`push`](RowEncoder::push).
    built: [OnceCell<Bytes>; 2],
}

/// The payload forms that are the same bytes for every peer.
#[derive(Clone, Copy)]
enum SharedForm {
    Full,
    Quant,
}

impl RowEncoder {
    /// Creates an encoder for rows of length `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            ids: Vec::new(),
            values: Vec::new(),
            built: Default::default(),
        }
    }

    /// Empties the encoder for a new batch of rows of length `dim`,
    /// keeping its buffers.
    pub(crate) fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.ids.clear();
        self.values.clear();
        self.built = Default::default();
    }

    /// Appends one entry.
    pub fn push(&mut self, node: u32, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.ids.push(node);
        self.values.extend_from_slice(row);
        for form in &mut self.built {
            form.take();
        }
    }

    /// `form` of the staged batch, built on first request.
    fn shared(&self, form: SharedForm) -> Bytes {
        self.built[form as usize]
            .get_or_init(|| match form {
                SharedForm::Full => self.finish(),
                SharedForm::Quant => self.finish_quant(),
            })
            .clone()
    }

    /// Entries encoded so far.
    pub(crate) fn count(&self) -> usize {
        self.ids.len()
    }

    /// Id+value payload size in bytes ([`entry_bytes`] per entry).
    pub(crate) fn byte_len(&self) -> usize {
        self.ids.len() * entry_bytes(self.dim)
    }

    /// The node ids pushed so far, in push order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Serializes the staged batch as an id+value buffer: the id
    /// region, then the whole value region as one bulk copy.
    /// Non-consuming: the batch stays staged.
    pub fn finish(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.byte_len());
        for &node in &self.ids {
            buf.put_u32_le(node);
        }
        buf.put_slice(&le_bytes(&self.values));
        buf.freeze()
    }

    /// The staged row values, in push order (`count() · dim` floats).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Serializes the staged batch as a delta payload against `mask`
    /// (one bit per staged entry, LSB-first within each byte, as
    /// produced by [`DeltaShadow::submit`]): the mask bytes first, then
    /// the full `f32` rows of the *set-bit* entries only, in push
    /// order. Non-consuming.
    pub fn finish_delta(&self, mask: &[u8]) -> Bytes {
        let n = self.ids.len();
        assert_eq!(mask.len(), mask_bytes(n), "mask length mismatch");
        let mut buf = BytesMut::new();
        buf.put_slice(mask);
        for r in 0..n {
            if mask[r / 8] & (1 << (r % 8)) != 0 {
                buf.put_slice(&le_bytes(&self.values[r * self.dim..(r + 1) * self.dim]));
            }
        }
        buf.freeze()
    }

    /// Serializes the staged batch as a quantized payload, SoA: the id
    /// region, then per-row `f32` scales, then per-row `f32` offsets,
    /// then all `u8` codes ([`quant_entry_bytes`] per entry). One bulk
    /// call through the backend-bit-identical `quantize_rows` kernel.
    /// Non-consuming.
    pub fn finish_quant(&self) -> Bytes {
        let n = self.ids.len();
        let mut scales = vec![0.0f32; n];
        let mut offsets = vec![0.0f32; n];
        let mut buf = BytesMut::with_capacity(n * quant_entry_bytes(self.dim));
        for &node in &self.ids {
            buf.put_u32_le(node);
        }
        // The kernel fills the code region in place; scales and offsets
        // are known only once it has run.
        buf.resize(n * quant_entry_bytes(self.dim), 0);
        let out = buf.as_mut_slice();
        (kernels().quantize_rows)(
            &self.values,
            self.dim,
            &mut scales,
            &mut offsets,
            &mut out[n * 12..],
        );
        out[n * 4..n * 8].copy_from_slice(&le_bytes(&scales));
        out[n * 8..n * 12].copy_from_slice(&le_bytes(&offsets));
        buf.freeze()
    }
}

/// Serializes a bare node-id list — a PullModel request: control
/// traffic, the same bytes in every mode (an id+value payload of
/// dimension 0). The inverse of [`decode_ids`].
pub(crate) fn encode_ids(ids: &[u32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(ids.len() * 4);
    for &node in ids {
        buf.put_u32_le(node);
    }
    buf.freeze()
}

/// Iterator decoding an id+value buffer produced by
/// [`RowEncoder::finish`].
///
/// Rows are decoded one at a time, straight from the wire bytes into a
/// single aligned row buffer: the payload is read once and nothing the
/// size of the payload is allocated.
pub struct RowDecoder {
    buf: Bytes,
    count: usize,
    next: usize,
    row: Vec<f32>,
}

impl RowDecoder {
    /// Creates a decoder for rows of length `dim`. Panics when `buf` is
    /// not a whole number of [`entry_bytes`] entries: check that first
    /// for a buffer a peer built ([`WireState::decode`] does).
    pub fn new(buf: Bytes, dim: usize) -> Self {
        assert_eq!(
            buf.len() % entry_bytes(dim),
            0,
            "buffer length {} not a multiple of entry size {}",
            buf.len(),
            entry_bytes(dim)
        );
        Self {
            count: buf.len() / entry_bytes(dim),
            buf,
            next: 0,
            row: vec![0.0; dim],
        }
    }

    /// Decodes the next entry, exposing the row as a borrowed slice
    /// (valid until the next call).
    pub fn next_entry(&mut self) -> Option<(u32, &[f32])> {
        if self.next >= self.count {
            return None;
        }
        let src = self.buf.as_slice();
        let node = id_at(src, self.next);
        let at = self.count * 4 + self.next * 4 * self.row.len();
        get_f32s_le(&src[at..at + 4 * self.row.len()], &mut self.row);
        self.next += 1;
        Some((node, &self.row))
    }

    /// Number of entries remaining.
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> usize {
        self.count - self.next
    }
}

/// Iterator decoding a quantized buffer produced by
/// [`RowEncoder::finish_quant`].
///
/// Construction dequantizes the *entire* payload with one bulk
/// `dequantize_rows` kernel call (the backend-bit-identical kernel works
/// best over many rows); iteration then hands out slices of the
/// reconstructed block.
#[derive(Debug)]
pub struct QuantDecoder {
    dim: usize,
    buf: Bytes,
    count: usize,
    next: usize,
    values: Vec<f32>,
}

impl QuantDecoder {
    /// Creates a decoder for rows of length `dim`; fails with
    /// [`WireError::BadLength`] when `buf` is not a whole number of
    /// [`quant_entry_bytes`] entries.
    pub fn new(buf: Bytes, dim: usize) -> Result<Self, WireError> {
        let per = quant_entry_bytes(dim);
        if !buf.len().is_multiple_of(per) {
            return Err(WireError::BadLength {
                claimed: buf.len() / per * per,
                actual: buf.len(),
            });
        }
        let count = buf.len() / per;
        let src = buf.as_slice();
        let mut scales = vec![0.0f32; count];
        let mut offsets = vec![0.0f32; count];
        get_f32s_le(&src[count * 4..count * 8], &mut scales);
        get_f32s_le(&src[count * 8..count * 12], &mut offsets);
        let mut values = vec![0.0f32; count * dim];
        (kernels().dequantize_rows)(&src[count * 12..], dim, &scales, &offsets, &mut values);
        Ok(Self {
            dim,
            buf,
            count,
            next: 0,
            values,
        })
    }

    /// Decodes the next entry, exposing the reconstructed row as a
    /// borrowed slice (valid until the next call).
    pub fn next_entry(&mut self) -> Option<(u32, &[f32])> {
        if self.next >= self.count {
            return None;
        }
        let node = id_at(self.buf.as_slice(), self.next);
        let row = &self.values[self.next * self.dim..(self.next + 1) * self.dim];
        self.next += 1;
        Some((node, row))
    }

    /// Number of entries remaining.
    pub(crate) fn remaining(&self) -> usize {
        self.count - self.next
    }
}

// ---------------------------------------------------------------------------
// Row-change shadows (delta mode)
// ---------------------------------------------------------------------------

/// Which protocol phase a payload belongs to; reduce and broadcast
/// traffic between the same host pair are shadowed independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Mirror deltas shipped to the (effective) master.
    Reduce,
    /// Canonical values shipped back to mirrors (including PullModel
    /// responses).
    Broadcast,
}

/// What a shadow entry is keyed by: `(sender, receiver, layer,
/// channel)`.
type LinkKey = (usize, usize, usize, Channel);

/// The sender-side outcome of a [`DeltaShadow::submit`]: which layout a
/// payload must use and what it costs on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaForm {
    /// Shadow miss (first exchange on this key, or the id list
    /// changed): ship a full id+value payload.
    Full,
    /// Shadow hit: ship the changed-row bitmask plus the `changed`
    /// rows whose `f32` bits differ from the shadow
    /// ([`RowEncoder::finish_delta`]).
    Delta {
        /// One bit per staged row, LSB-first within each byte; set
        /// bits mark rows that changed since the last send.
        mask: Vec<u8>,
        /// Number of set bits in `mask`.
        changed: usize,
    },
}

impl DeltaForm {
    /// Payload bytes this form puts on the wire for `n` rows of
    /// dimension `dim`.
    pub(crate) fn wire_bytes(&self, n: usize, dim: usize) -> usize {
        match self {
            DeltaForm::Full => n * entry_bytes(dim),
            DeltaForm::Delta { changed, .. } => delta_bytes(dim, n, *changed),
        }
    }
}

/// Per-(sender, receiver, layer, channel) shadow of the last exchanged
/// payload (ids *and* row values) driving [`WireMode::Delta`].
///
/// Both ends of a link hold one: the **sender** calls
/// [`submit`](DeltaShadow::submit) with the ids and values it is about
/// to ship — when the id list matches the shadow, only the rows whose
/// `f32` bits changed need to travel ([`DeltaForm::Delta`]); otherwise
/// the payload ships in full id+value form and replaces the shadow
/// ([`DeltaForm::Full`]). The **receiver** calls
/// [`store`](DeltaShadow::store) on every full payload and
/// [`apply_delta`](DeltaShadow::apply_delta) on every delta payload,
/// reconstructing the unchanged rows bit-exactly from its shadow.
/// Because both sides derive their updates from the same payload
/// sequence, the shadows stay in lockstep without extra coordination
/// traffic.
///
/// Invalidation keeps fault plans exact: `begin_epoch` clears
/// everything at each epoch start (checkpoints cut at epoch boundaries,
/// so a resumed run and an uninterrupted run see identical shadows), and
/// `observe_liveness` clears on any alive-set change (crash, adoption,
/// rejoin) since routing — and therefore every id list — changes with
/// it. The first post-fault (and post-checkpoint-resume) exchange on
/// every key is always a full payload.
#[derive(Debug, Default)]
pub struct DeltaShadow {
    cache: HashMap<LinkKey, (Vec<u32>, Vec<f32>)>,
    live: Option<Liveness>,
}

impl DeltaShadow {
    /// An empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every shadow entry (call at each epoch start, both
    /// engines).
    pub(crate) fn begin_epoch(&mut self) {
        self.cache.clear();
        self.live = None;
    }

    /// Clears every shadow entry if the alive set changed since the
    /// last observation. Call once per sync round before any
    /// submit/store.
    pub(crate) fn observe_liveness(&mut self, live: &Liveness) {
        if self.live.as_ref() != Some(live) {
            self.cache.clear();
            self.live = Some(live.clone());
        }
    }

    /// Sender side: decides the layout for the payload `from` is about
    /// to ship `to` on `(layer, channel)` and advances the shadow.
    /// When `ids` matches the shadowed list, returns
    /// [`DeltaForm::Delta`] with a bit set for every row whose `f32`
    /// bits differ from the shadow (updating those shadow rows);
    /// otherwise replaces the whole shadow entry and returns
    /// [`DeltaForm::Full`].
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        from: usize,
        to: usize,
        layer: usize,
        channel: Channel,
        ids: &[u32],
        values: &[f32],
        dim: usize,
    ) -> DeltaForm {
        debug_assert_eq!(values.len(), ids.len() * dim, "values/ids length mismatch");
        let key = (from, to, layer, channel);
        match self.cache.get_mut(&key) {
            Some((cids, cvals)) if cids.as_slice() == ids => {
                let n = ids.len();
                let mut mask = vec![0u8; mask_bytes(n)];
                let mut changed = 0;
                for r in 0..n {
                    let old = &cvals[r * dim..(r + 1) * dim];
                    let new = &values[r * dim..(r + 1) * dim];
                    if old.iter().zip(new).any(|(a, b)| a.to_bits() != b.to_bits()) {
                        mask[r / 8] |= 1 << (r % 8);
                        changed += 1;
                        cvals[r * dim..(r + 1) * dim].copy_from_slice(new);
                    }
                }
                DeltaForm::Delta { mask, changed }
            }
            Some((cids, cvals)) => {
                cids.clear();
                cids.extend_from_slice(ids);
                cvals.clear();
                cvals.extend_from_slice(values);
                DeltaForm::Full
            }
            None => {
                self.cache.insert(key, (ids.to_vec(), values.to_vec()));
                DeltaForm::Full
            }
        }
    }

    /// Receiver side: records the ids and rows decoded from a full
    /// id+value payload so later delta payloads on the same key can be
    /// reconstructed.
    pub fn store(
        &mut self,
        from: usize,
        to: usize,
        layer: usize,
        channel: Channel,
        ids: Vec<u32>,
        values: Vec<f32>,
    ) {
        self.cache.insert((from, to, layer, channel), (ids, values));
    }

    /// Receiver side: reconstructs the full `(ids, rows)` batch from a
    /// delta payload (mask + changed rows) against the shadow,
    /// advancing the shadow to the reconstructed state. Fails with
    /// [`WireError::NoShadow`] when no full payload has been stored on
    /// the key and with [`WireError::BadLength`] when the payload does
    /// not carry exactly `mask_bytes(n) + popcount · value_bytes(dim)`
    /// bytes; the shadow is untouched in both cases.
    pub fn apply_delta(
        &mut self,
        from: usize,
        to: usize,
        layer: usize,
        channel: Channel,
        payload: &Bytes,
        dim: usize,
    ) -> Result<(&[u32], &[f32]), WireError> {
        let key = (from, to, layer, channel);
        let (ids, vals) = self.cache.get_mut(&key).ok_or(WireError::NoShadow)?;
        let n = ids.len();
        let mb = mask_bytes(n);
        if payload.len() < mb {
            return Err(WireError::BadLength {
                claimed: mb,
                actual: payload.len(),
            });
        }
        let src = payload.as_slice();
        let mask = &src[..mb];
        let changed: usize = mask.iter().map(|b| b.count_ones() as usize).sum();
        let claimed = delta_bytes(dim, n, changed);
        if payload.len() != claimed {
            return Err(WireError::BadLength {
                claimed,
                actual: payload.len(),
            });
        }
        let mut at = mb;
        for r in 0..n {
            if mask[r / 8] & (1 << (r % 8)) != 0 {
                let row = &src[at..at + value_bytes(dim)];
                get_f32s_le(row, &mut vals[r * dim..(r + 1) * dim]);
                at += row.len();
            }
        }
        Ok((ids.as_slice(), vals.as_slice()))
    }
}

// ---------------------------------------------------------------------------
// Per-run wire state
// ---------------------------------------------------------------------------

/// One host's wire-protocol state for the run's [`WireMode`]: its
/// sender-side entries for every `(self → peer)` key and its
/// receiver-side entries for every `(peer → self)` key. Each host owns
/// one in both engines — the keys of two hosts overlap (what one sends
/// the other receives), so a state is never shared between hosts.
///
/// [`encode`](WireState::encode), [`decode`](WireState::decode) and
/// `encode_dense_reduce` are the only
/// code that knows what a mode puts on the wire.
#[derive(Debug)]
pub enum WireState {
    /// [`WireMode::IdValue`]: stateless.
    Classic,
    /// [`WireMode::Delta`]: last-sent row shadows.
    Delta(DeltaShadow),
    /// [`WireMode::Quant`]: stateless.
    Quant,
}

impl WireState {
    /// Fresh state for `mode`.
    pub fn for_mode(mode: WireMode) -> Self {
        match mode {
            WireMode::IdValue => WireState::Classic,
            WireMode::Delta => WireState::Delta(DeltaShadow::new()),
            WireMode::Quant => WireState::Quant,
        }
    }

    /// Clears the delta shadows at an epoch start (no-op for the
    /// stateless modes).
    pub fn begin_epoch(&mut self) {
        match self {
            WireState::Delta(d) => d.begin_epoch(),
            WireState::Classic | WireState::Quant => {}
        }
    }

    /// Invalidates the delta shadows on any alive-set change (no-op for
    /// the stateless modes). Call once per sync round before any
    /// encode/decode.
    pub(crate) fn observe_liveness(&mut self, live: &Liveness) {
        match self {
            WireState::Delta(d) => d.observe_liveness(live),
            WireState::Classic | WireState::Quant => {}
        }
    }

    /// Sender side: serializes the batch `from` ships `to` on
    /// `(layer, channel)` in the form the mode and this state call for,
    /// advancing the shadow. Returns the payload and its `value_only`
    /// tag — true for the compact form (delta mask + changed rows) that
    /// only the receiver's shadow can expand. A form that is the same
    /// bytes for every peer is built once per staged batch, however many
    /// peers it goes to.
    pub fn encode(
        &mut self,
        from: usize,
        to: usize,
        layer: usize,
        channel: Channel,
        enc: &RowEncoder,
    ) -> (Bytes, bool) {
        match self {
            WireState::Classic => (enc.shared(SharedForm::Full), false),
            WireState::Quant => (enc.shared(SharedForm::Quant), false),
            WireState::Delta(d) => {
                match d.submit(from, to, layer, channel, enc.ids(), enc.values(), enc.dim) {
                    DeltaForm::Full => (enc.shared(SharedForm::Full), false),
                    DeltaForm::Delta { mask, .. } => (enc.finish_delta(&mask), true),
                }
            }
        }
    }

    /// RepModelNaive's reduce from `from` to master `to`. The plan
    /// *accounts* a dense payload — one delta for every row of
    /// `dense_ids` (all rows `to` masters, ascending), zero for the rows
    /// absent from `touched` — but ships `touched` alone: a zero delta
    /// must not reach the combiner (`Avg` divides by the number of
    /// touching hosts). Advances the shadow with the dense image and
    /// returns the physical payload (never a compact form, the
    /// receiver holds no dense state) with the bytes to account.
    pub(crate) fn encode_dense_reduce(
        &mut self,
        from: usize,
        to: usize,
        layer: usize,
        dense_ids: &[u32],
        touched: &RowEncoder,
    ) -> (Bytes, usize) {
        let (n, dim) = (dense_ids.len(), touched.dim);
        match self {
            WireState::Classic => (touched.finish(), n * entry_bytes(dim)),
            WireState::Quant => (touched.finish_quant(), n * quant_entry_bytes(dim)),
            WireState::Delta(d) => {
                let mut dense = vec![0.0f32; n * dim];
                for (i, node) in touched.ids.iter().enumerate() {
                    let at = dense_ids
                        .binary_search(node)
                        .expect("a touched row is one of its master's rows");
                    dense[at * dim..(at + 1) * dim]
                        .copy_from_slice(&touched.values[i * dim..(i + 1) * dim]);
                }
                let form = d.submit(from, to, layer, Channel::Reduce, dense_ids, &dense, dim);
                (touched.finish(), form.wire_bytes(n, dim))
            }
        }
    }

    /// Receiver side: expands the payload `from` shipped `to` on
    /// `(layer, channel)`, whichever form it came in, into `(node, row)`
    /// pairs handed to `sink` in payload order, and advances the shadow
    /// exactly as the sender's `encode` did.
    ///
    /// Everything is checked before `sink` sees a row or the state
    /// changes: the length against the form, the form against the mode,
    /// a compact payload against the shadow, and every node id against
    /// `n_nodes` — so `sink` may index by node, and a payload that
    /// passed its frame CRC but does not fit is a typed error that
    /// leaves this state as it was.
    #[allow(clippy::too_many_arguments)]
    pub fn decode(
        &mut self,
        from: usize,
        to: usize,
        layer: usize,
        channel: Channel,
        payload: &Bytes,
        value_only: bool,
        dim: usize,
        n_nodes: usize,
        mut sink: impl FnMut(u32, &[f32]),
    ) -> Result<(), WireError> {
        match (self, value_only) {
            (WireState::Delta(d), true) => {
                let (ids, vals) = d.apply_delta(from, to, layer, channel, payload, dim)?;
                for (i, &node) in ids.iter().enumerate() {
                    sink(node, &vals[i * dim..(i + 1) * dim]);
                }
            }
            (WireState::Classic | WireState::Quant, true) => {
                return Err(WireError::UnexpectedForm);
            }
            (WireState::Quant, false) => {
                let mut dec = QuantDecoder::new(payload.clone(), dim)?;
                check_ids(&payload.as_slice()[..dec.remaining() * 4], n_nodes)?;
                while let Some((node, row)) = dec.next_entry() {
                    sink(node, row);
                }
            }
            (state, false) => {
                let per = entry_bytes(dim);
                if !payload.len().is_multiple_of(per) {
                    return Err(WireError::BadLength {
                        claimed: payload.len() / per * per,
                        actual: payload.len(),
                    });
                }
                let n = payload.len() / per;
                let (id_region, values) = payload.as_slice().split_at(n * 4);
                check_ids(id_region, n_nodes)?;
                if let WireState::Delta(d) = state {
                    let ids = (0..n).map(|i| id_at(id_region, i)).collect();
                    let mut rows = vec![0.0f32; n * dim];
                    get_f32s_le(values, &mut rows);
                    d.store(from, to, layer, channel, ids, rows);
                }
                let mut dec = RowDecoder::new(payload.clone(), dim);
                while let Some((node, row)) = dec.next_entry() {
                    sink(node, row);
                }
            }
        }
        Ok(())
    }
}

/// Fails unless every little-endian `u32` of the id region `ids` names
/// one of `n_nodes` rows.
fn check_ids(ids: &[u8], n_nodes: usize) -> Result<(), WireError> {
    match (0..ids.len() / 4)
        .map(|i| id_at(ids, i))
        .find(|&node| node as usize >= n_nodes)
    {
        Some(node) => Err(WireError::NodeOutOfRange { node, n_nodes }),
        None => Ok(()),
    }
}

/// Decodes a bare node-id list ([`encode_ids`]) after checking its
/// length and every id against `n_nodes`.
pub(crate) fn decode_ids(
    payload: &Bytes,
    n_nodes: usize,
) -> Result<impl Iterator<Item = u32> + '_, WireError> {
    let src = payload.as_slice();
    if !src.len().is_multiple_of(4) {
        return Err(WireError::BadLength {
            claimed: src.len() / 4 * 4,
            actual: src.len(),
        });
    }
    check_ids(src, n_nodes)?;
    Ok((0..src.len() / 4).map(move |i| id_at(src, i)))
}

// ---------------------------------------------------------------------------
// Checksummed frames
// ---------------------------------------------------------------------------

/// Magic number opening every sealed frame (`"GW2V"` little-endian).
pub(crate) const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"GW2V");

/// Sealed-frame header size: magic `u32` + payload length `u32` +
/// CRC-32 `u32`, all little-endian.
pub const FRAME_HEADER_BYTES: usize = 12;

/// A frame or payload that failed validation on receipt, or a payload
/// that cannot be framed at all.
///
/// The threaded engine treats a *frame* error ([`open_frame`]) as a
/// corrupted delivery: the receiver NAKs the `(sender, layer)` slot and
/// the sender retransmits from its resend buffer. A *payload* error
/// ([`WireState::decode`], `decode_ids`) comes after the CRC matched —
/// the sender built those bytes — so like the send-side
/// [`WireError::PayloadTooLarge`] no retry can heal it and the round
/// fails with a [`crate::threaded::ClusterError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than a frame header, the header's length
    /// field disagrees with the actual payload size, a payload is not a
    /// whole number of entries, or a delta payload does not match its
    /// shadow.
    BadLength {
        /// Bytes the header (or shadow) claims the payload has
        /// (0 if no header fit).
        claimed: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The frame does not open with `FRAME_MAGIC`.
    BadMagic,
    /// The payload's CRC-32 does not match the header checksum.
    Corrupt {
        /// Checksum carried in the header.
        expected: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The payload does not fit the header's `u32` length field.
    PayloadTooLarge {
        /// Payload size in bytes.
        len: usize,
    },
    /// A delta payload arrived on a key with no shadow entry.
    NoShadow,
    /// A payload tagged compact (`value_only`) arrived in a mode that
    /// never ships one.
    UnexpectedForm,
    /// A payload names a row the model does not have.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Rows per layer.
        n_nodes: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadLength { claimed, actual } => {
                write!(
                    f,
                    "frame length mismatch: expected {claimed} payload bytes, got {actual}"
                )
            }
            WireError::BadMagic => write!(f, "frame does not start with GW2V magic"),
            WireError::Corrupt { expected, computed } => {
                write!(
                    f,
                    "payload checksum mismatch: header {expected:#010x}, computed {computed:#010x}"
                )
            }
            WireError::PayloadTooLarge { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the frame header's u32 length field"
                )
            }
            WireError::NoShadow => write!(f, "delta payload with no shadow entry"),
            WireError::UnexpectedForm => {
                write!(f, "compact payload in a mode that ships none")
            }
            WireError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "payload names node {node} of a {n_nodes}-row model")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Wraps a payload in a checksummed frame:
/// `[magic u32][payload_len u32][crc32(payload) u32][payload]`.
///
/// The frame's 12-byte overhead is transport armor, not model traffic —
/// comm-volume accounting ([`crate::volume::CommStats`]) keeps counting
/// the bare payload bytes, so sealed and unsealed runs report identical
/// volumes.
///
/// Fails with [`WireError::PayloadTooLarge`] for a payload of 4 GiB or
/// more: a wrapped length field would make a frame every receiver
/// rejects as `BadLength` until its NAK retries run out.
pub fn seal_frame(payload: &Bytes) -> Result<Bytes, WireError> {
    let len = frame_len_field(payload.len())?;
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES + payload.len());
    buf.put_u32_le(FRAME_MAGIC);
    buf.put_u32_le(len);
    buf.put_u32_le(crc32(payload.as_slice()));
    buf.put_slice(payload.as_slice());
    Ok(buf.freeze())
}

/// The header's length field for a payload of `len` bytes.
fn frame_len_field(len: usize) -> Result<u32, WireError> {
    u32::try_from(len).map_err(|_| WireError::PayloadTooLarge { len })
}

/// Validates a sealed frame and returns the payload as a zero-copy slice
/// of `frame`.
///
/// Guarantees: a faultless `seal_frame` → `open_frame` round-trip is the
/// identity on payload bytes, and *any* single-bit corruption of the
/// frame (header or payload) is rejected — CRC-32 detects all single-bit
/// errors, and header fields are cross-checked against the buffer.
pub fn open_frame(frame: &Bytes) -> Result<Bytes, WireError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(WireError::BadLength {
            claimed: 0,
            actual: frame.len(),
        });
    }
    let mut header = frame.slice(0..FRAME_HEADER_BYTES);
    if header.get_u32_le() != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let claimed = header.get_u32_le() as usize;
    let actual = frame.len() - FRAME_HEADER_BYTES;
    if claimed != actual {
        return Err(WireError::BadLength { claimed, actual });
    }
    let expected = header.get_u32_le();
    let payload = frame.slice(FRAME_HEADER_BYTES..frame.len());
    let computed = crc32(payload.as_slice());
    if computed != expected {
        return Err(WireError::Corrupt { expected, computed });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut enc = RowEncoder::new(3);
        enc.push(7, &[1.0, -2.5, 0.0]);
        enc.push(u32::MAX - 1, &[f32::MIN_POSITIVE, 1e30, -1e-30]);
        assert_eq!(enc.count(), 2);
        assert_eq!(enc.byte_len(), 2 * entry_bytes(3));
        let buf = enc.finish();
        let mut dec = RowDecoder::new(buf, 3);
        assert_eq!(dec.remaining(), 2);
        let (n, r) = dec.next_entry().unwrap();
        assert_eq!(n, 7);
        assert_eq!(r, &[1.0, -2.5, 0.0]);
        let (n, r) = dec.next_entry().unwrap();
        assert_eq!(n, u32::MAX - 1);
        assert_eq!(r, &[f32::MIN_POSITIVE, 1e30, -1e-30]);
        assert!(dec.next_entry().is_none());
    }

    #[test]
    fn soa_layout_pins_byte_positions() {
        let mut enc = RowEncoder::new(2);
        enc.push(7, &[1.0, 2.0]);
        enc.push(9, &[3.0, 4.0]);
        let buf = enc.finish();
        assert_eq!(buf.len(), 2 * entry_bytes(2));
        let b = buf.as_slice();
        // Id region first: one LE u32 per entry, in push order.
        assert_eq!(&b[0..4], &7u32.to_le_bytes());
        assert_eq!(&b[4..8], &9u32.to_le_bytes());
        // Then the value region: rows back to back, in push order.
        assert_eq!(&b[8..12], &1.0f32.to_le_bytes());
        assert_eq!(&b[12..16], &2.0f32.to_le_bytes());
        assert_eq!(&b[16..20], &3.0f32.to_le_bytes());
        assert_eq!(&b[20..24], &4.0f32.to_le_bytes());
    }

    #[test]
    fn empty_buffer() {
        let enc = RowEncoder::new(5);
        assert_eq!(enc.byte_len(), 0);
        let mut dec = RowDecoder::new(enc.finish(), 5);
        assert!(dec.next_entry().is_none());
    }

    #[test]
    fn entry_bytes_formula() {
        assert_eq!(entry_bytes(0), 4);
        assert_eq!(entry_bytes(200), 804);
        assert_eq!(value_bytes(0), 0);
        assert_eq!(value_bytes(200), 800);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn truncated_buffer_rejected() {
        let mut enc = RowEncoder::new(2);
        enc.push(0, &[1.0, 2.0]);
        let buf = enc.finish();
        let _ = RowDecoder::new(buf.slice(0..7), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_rejected() {
        let mut enc = RowEncoder::new(2);
        enc.push(0, &[1.0]);
    }

    #[test]
    fn f32_blocks_are_little_endian_and_round_trip_bitwise() {
        // Byte order is pinned on any target …
        assert_eq!(*le_bytes(&[1.0]), [0x00, 0x00, 0x80, 0x3f]);
        // … and every bit pattern survives, NaN payloads, −0.0 and
        // subnormals included, at every length up to a few rows.
        for n in 0..=512usize {
            let values: Vec<f32> = (0..n as u32)
                .map(|i| match i % 4 {
                    0 => f32::from_bits(0x7fc0_0001u32.wrapping_mul(i + 1) | 0x7f80_0000),
                    1 => -0.0,
                    2 => f32::from_bits(i),
                    _ => f32::from_bits(i.wrapping_mul(2_654_435_761)),
                })
                .collect();
            let bytes = le_bytes(&values);
            assert_eq!(bytes.len(), n * 4);
            for (v, b) in values.iter().zip(bytes.chunks_exact(4)) {
                assert_eq!(b, v.to_bits().to_le_bytes(), "n={n}");
            }
            // Decode from an odd offset: the source needs no alignment.
            let mut shifted = vec![0xAAu8];
            shifted.extend_from_slice(&bytes);
            let mut back = vec![0.0f32; n];
            get_f32s_le(&shifted[1..], &mut back);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&values), "n={n}");
        }
    }

    #[test]
    fn nan_survives_roundtrip_bitwise() {
        let nan = f32::from_bits(0x7fc0_1234);
        let mut enc = RowEncoder::new(1);
        enc.push(0, &[nan]);
        let mut dec = RowDecoder::new(enc.finish(), 1);
        let (_, r) = dec.next_entry().unwrap();
        assert_eq!(r[0].to_bits(), nan.to_bits());
    }

    #[test]
    fn wire_mode_parse_and_label() {
        assert_eq!(WireMode::parse("id-value"), Some(WireMode::IdValue));
        assert_eq!(WireMode::parse("memo"), None);
        assert_eq!(WireMode::parse("memoized"), None);
        assert_eq!(WireMode::parse("delta"), Some(WireMode::Delta));
        assert_eq!(WireMode::parse("quant"), Some(WireMode::Quant));
        assert_eq!(WireMode::parse("quantized"), Some(WireMode::Quant));
        assert_eq!(WireMode::parse("zip"), None);
        assert_eq!(WireMode::default(), WireMode::IdValue);
        assert_eq!(WireMode::IdValue.label(), "id-value");
        assert_eq!(WireMode::Delta.label(), "delta");
        assert_eq!(WireMode::Quant.label(), "quant");
    }

    #[test]
    fn delta_byte_formulas() {
        assert_eq!(mask_bytes(0), 0);
        assert_eq!(mask_bytes(1), 1);
        assert_eq!(mask_bytes(8), 1);
        assert_eq!(mask_bytes(9), 2);
        // A zero-change delta over n rows costs just the mask …
        assert_eq!(delta_bytes(16, 9, 0), 2);
        // … and even an all-change delta beats classic (mask ≤ ids).
        assert!(delta_bytes(16, 9, 9) < 9 * entry_bytes(16));
        assert_eq!(quant_entry_bytes(16), 28);
        assert!(quant_entry_bytes(3) < entry_bytes(3));
    }

    #[test]
    fn delta_shadow_lifecycle_and_roundtrip() {
        let mut sender = DeltaShadow::new();
        let mut receiver = DeltaShadow::new();
        let dim = 2;
        let ids = [3u32, 7, 9];
        let v1 = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];

        // First exchange: full payload, both ends store.
        let form = sender.submit(0, 1, 0, Channel::Reduce, &ids, &v1, dim);
        assert_eq!(form, DeltaForm::Full);
        assert_eq!(form.wire_bytes(3, dim), 3 * entry_bytes(dim));
        receiver.store(0, 1, 0, Channel::Reduce, ids.to_vec(), v1.to_vec());

        // Second round: only the middle row changes.
        let v2 = [1.0f32, 2.0, 3.5, 4.0, 5.0, 6.0];
        let form = sender.submit(0, 1, 0, Channel::Reduce, &ids, &v2, dim);
        let DeltaForm::Delta { ref mask, changed } = form else {
            panic!("expected delta form on id-list repeat");
        };
        assert_eq!((mask.as_slice(), changed), (&[0b010u8][..], 1));
        assert_eq!(form.wire_bytes(3, dim), delta_bytes(dim, 3, 1));

        // Ship mask + changed rows; receiver reconstructs all rows.
        let mut enc = RowEncoder::new(dim);
        for (i, &node) in ids.iter().enumerate() {
            enc.push(node, &v2[i * dim..(i + 1) * dim]);
        }
        let payload = enc.finish_delta(mask);
        assert_eq!(payload.len(), delta_bytes(dim, 3, 1));
        let (rids, rvals) = receiver
            .apply_delta(0, 1, 0, Channel::Reduce, &payload, dim)
            .unwrap();
        assert_eq!(rids, &ids);
        assert_eq!(rvals, &v2);

        // Third round: nothing changed → mask-only payload, receiver
        // reproduces the same rows from its shadow alone.
        let form = sender.submit(0, 1, 0, Channel::Reduce, &ids, &v2, dim);
        assert_eq!(
            form,
            DeltaForm::Delta {
                mask: vec![0],
                changed: 0
            }
        );
        let DeltaForm::Delta { ref mask, .. } = form else {
            unreachable!()
        };
        let payload = enc.finish_delta(mask);
        assert_eq!(payload.len(), mask_bytes(3));
        let (_, rvals) = receiver
            .apply_delta(0, 1, 0, Channel::Reduce, &payload, dim)
            .unwrap();
        assert_eq!(rvals, &v2);

        // A different id list falls back to full and re-shadows.
        let form = sender.submit(0, 1, 0, Channel::Reduce, &[3, 7], &v2[..4], dim);
        assert_eq!(form, DeltaForm::Full);
    }

    #[test]
    fn delta_shadow_clears_on_epoch_start_and_liveness_change() {
        let mut shadow = DeltaShadow::new();
        let live3 = Liveness::all(3);
        shadow.observe_liveness(&live3);
        let v = [1.0f32, 2.0];
        assert_eq!(
            shadow.submit(0, 1, 0, Channel::Reduce, &[5], &v, 2),
            DeltaForm::Full
        );
        assert!(matches!(
            shadow.submit(0, 1, 0, Channel::Reduce, &[5], &v, 2),
            DeltaForm::Delta { changed: 0, .. }
        ));
        // Keys are independent per (from, to, layer, channel).
        assert_eq!(
            shadow.submit(0, 1, 1, Channel::Reduce, &[5], &v, 2),
            DeltaForm::Full
        );
        assert_eq!(
            shadow.submit(0, 1, 0, Channel::Broadcast, &[5], &v, 2),
            DeltaForm::Full
        );
        // Liveness change (crash) clears; unchanged observation keeps.
        let mut live2 = live3.clone();
        live2.mark_dead(2);
        shadow.observe_liveness(&live2);
        assert_eq!(
            shadow.submit(0, 1, 0, Channel::Reduce, &[5], &v, 2),
            DeltaForm::Full
        );
        shadow.observe_liveness(&live2);
        assert!(matches!(
            shadow.submit(0, 1, 0, Channel::Reduce, &[5], &v, 2),
            DeltaForm::Delta { .. }
        ));
        // Epoch boundary clears too.
        shadow.begin_epoch();
        assert_eq!(
            shadow.submit(0, 1, 0, Channel::Reduce, &[5], &v, 2),
            DeltaForm::Full
        );
    }

    #[test]
    fn shadow_invalidates_when_alive_set_grows_midepoch() {
        // A host coming *back* changes the alive set just like a crash
        // does, and every shadow row is stale the moment routing
        // changes: the shadow must flush on the grow transition.
        let mut live = Liveness::all(3);
        live.mark_dead(1);

        let mut shadow = DeltaShadow::new();
        shadow.observe_liveness(&live);
        let v = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(
            shadow.submit(0, 2, 0, Channel::Reduce, &[4, 5], &v, 2),
            DeltaForm::Full
        );
        assert!(matches!(
            shadow.submit(0, 2, 0, Channel::Reduce, &[4, 5], &v, 2),
            DeltaForm::Delta { changed: 0, .. }
        ));

        // Host 1 rejoins mid-epoch: alive set grows 2 → 3.
        let mut rejoined = live.clone();
        rejoined.mark_alive(1);
        shadow.observe_liveness(&rejoined);
        assert_eq!(
            shadow.submit(0, 2, 0, Channel::Reduce, &[4, 5], &v, 2),
            DeltaForm::Full,
            "shadow must go full after a rejoin grows the alive set"
        );
    }

    #[test]
    fn delta_apply_rejects_bad_lengths() {
        let mut shadow = DeltaShadow::new();
        shadow.store(0, 1, 0, Channel::Reduce, vec![1, 2, 3], vec![0.0; 6]);
        // Too short to hold the 3-row mask (mask_bytes(3) == 1).
        let err = shadow
            .apply_delta(0, 1, 0, Channel::Reduce, &Bytes::from(vec![]), 2)
            .unwrap_err();
        assert_eq!(
            err,
            WireError::BadLength {
                claimed: 1,
                actual: 0
            }
        );
        // Mask claims one changed row but carries no row bytes.
        let err = shadow
            .apply_delta(0, 1, 0, Channel::Reduce, &Bytes::from(vec![0b001u8]), 2)
            .unwrap_err();
        assert_eq!(
            err,
            WireError::BadLength {
                claimed: delta_bytes(2, 3, 1),
                actual: 1
            }
        );
    }

    #[test]
    fn delta_without_shadow_entry_is_a_typed_error() {
        let mut shadow = DeltaShadow::new();
        let err = shadow
            .apply_delta(0, 1, 0, Channel::Reduce, &Bytes::from(vec![0u8]), 2)
            .unwrap_err();
        assert_eq!(err, WireError::NoShadow);
    }

    #[test]
    fn quant_payload_layout_and_roundtrip() {
        let dim = 5;
        let mut enc = RowEncoder::new(dim);
        enc.push(7, &[0.0, 1.0, 2.0, 3.0, 4.0]);
        enc.push(42, &[-1.0, -1.0, -1.0, -1.0, -1.0]); // flat row
        let buf = enc.finish_quant();
        assert_eq!(buf.len(), 2 * quant_entry_bytes(dim));
        let b = buf.as_slice();
        // SoA: ids, then scales, then offsets, then codes.
        assert_eq!(&b[0..4], &7u32.to_le_bytes());
        assert_eq!(&b[4..8], &42u32.to_le_bytes());
        let scale0 = f32::from_le_bytes(b[8..12].try_into().unwrap());
        let scale1 = f32::from_le_bytes(b[12..16].try_into().unwrap());
        let offset0 = f32::from_le_bytes(b[16..20].try_into().unwrap());
        let offset1 = f32::from_le_bytes(b[20..24].try_into().unwrap());
        assert_eq!(scale0, 4.0 / 255.0);
        assert_eq!(offset0, 0.0);
        // Flat rows pin scale 0 with the value in the offset.
        assert_eq!((scale1, offset1), (0.0, -1.0));
        // Codes: row 0 spans the grid, row 1 is all zeros.
        assert_eq!(&b[24 + 5..24 + 10], &[0, 0, 0, 0, 0]);
        assert_eq!(b[24], 0);
        assert_eq!(b[24 + 4], 255);

        let mut dec = QuantDecoder::new(buf, dim).unwrap();
        assert_eq!(dec.remaining(), 2);
        let (n, row) = dec.next_entry().unwrap();
        assert_eq!(n, 7);
        // Reconstruction error is bounded by half a grid step per value.
        for (got, want) in row.iter().zip([0.0, 1.0, 2.0, 3.0, 4.0]) {
            assert!((got - want).abs() <= scale0 * 0.5 + 1e-6);
        }
        let (n, row) = dec.next_entry().unwrap();
        assert_eq!(n, 42);
        assert_eq!(row, &[-1.0; 5]);
        assert!(dec.next_entry().is_none());
    }

    #[test]
    fn quant_decoder_matches_the_kernel_pair_bitwise() {
        // A decoded row is the quantize→dequantize image of the row that
        // was pushed, whichever engine carried the payload.
        let dim = 7;
        let rows = [
            [0.013f32, -4.2, 3.3, 0.0, -0.0, 17.25, -9.5],
            [1e-8f32, 2e-8, 3e-8, -1e-8, 0.0, 5e-8, 4e-8],
        ];
        let mut enc = RowEncoder::new(dim);
        for (i, row) in rows.iter().enumerate() {
            enc.push(i as u32, row);
        }
        let mut dec = QuantDecoder::new(enc.finish_quant(), dim).unwrap();
        for row in &rows {
            let (mut scale, mut offset, mut codes) = ([0.0f32], [0.0f32], vec![0u8; dim]);
            (kernels().quantize_rows)(row, dim, &mut scale, &mut offset, &mut codes);
            let mut image = [0.0f32; 7];
            (kernels().dequantize_rows)(&codes, dim, &scale, &offset, &mut image);
            let (_, decoded) = dec.next_entry().unwrap();
            for (a, b) in decoded.iter().zip(image) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn quant_decoder_rejects_ragged_buffer() {
        let mut enc = RowEncoder::new(3);
        enc.push(0, &[1.0, 2.0, 3.0]);
        let buf = enc.finish_quant();
        let err = QuantDecoder::new(buf.slice(0..buf.len() - 1), 3).unwrap_err();
        assert!(matches!(err, WireError::BadLength { .. }));
    }

    const MODES: [WireMode; 3] = [WireMode::IdValue, WireMode::Delta, WireMode::Quant];

    /// Three rows of dimension 2 at nodes 5, 9 and 11; `salt` moves the
    /// middle row only.
    fn batch(salt: f32) -> RowEncoder {
        let mut enc = RowEncoder::new(2);
        enc.push(5, &[1.5, -2.0]);
        enc.push(9, &[0.25 + salt, 4.0]);
        enc.push(11, &[-8.0, 0.5]);
        enc
    }

    fn decode_all(
        state: &mut WireState,
        payload: &Bytes,
        value_only: bool,
        n_nodes: usize,
    ) -> Result<Vec<(u32, Vec<f32>)>, WireError> {
        let mut rows = Vec::new();
        state.decode(
            0,
            1,
            0,
            Channel::Reduce,
            payload,
            value_only,
            2,
            n_nodes,
            |node, row| rows.push((node, row.to_vec())),
        )?;
        Ok(rows)
    }

    #[test]
    fn seam_round_trips_every_mode_and_goes_compact_on_repeats() {
        for mode in MODES {
            let mut sender = WireState::for_mode(mode);
            let mut receiver = WireState::for_mode(mode);
            let mut sizes = Vec::new();
            for salt in [0.0f32, 1.0, 1.0] {
                let enc = batch(salt);
                let (payload, value_only) = sender.encode(0, 1, 0, Channel::Reduce, &enc);
                sizes.push((payload.len(), value_only));
                let rows = decode_all(&mut receiver, &payload, value_only, 12).unwrap();
                let nodes: Vec<u32> = rows.iter().map(|(n, _)| *n).collect();
                assert_eq!(nodes, enc.ids(), "{mode:?}: payload order");
                for ((_, got), want) in rows.iter().zip(enc.values().chunks_exact(2)) {
                    if mode == WireMode::Quant {
                        assert!(got.iter().zip(want).all(|(g, w)| (g - w).abs() < 0.05));
                    } else {
                        assert_eq!(got, want, "{mode:?}: lossless");
                    }
                }
            }
            let full = 3 * entry_bytes(2);
            let want = match mode {
                WireMode::IdValue => [(full, false); 3],
                WireMode::Quant => [(3 * quant_entry_bytes(2), false); 3],
                WireMode::Delta => [
                    (full, false),
                    (delta_bytes(2, 3, 1), true),
                    (delta_bytes(2, 3, 0), true),
                ],
            };
            assert_eq!(sizes, want, "{mode:?}");
        }
    }

    #[test]
    fn seam_builds_a_peer_independent_form_once_per_batch() {
        for mode in MODES {
            let mut sender = WireState::for_mode(mode);
            let mut enc = batch(0.0);
            let (to_1, _) = sender.encode(0, 1, 0, Channel::Broadcast, &enc);
            let (to_2, _) = sender.encode(0, 2, 0, Channel::Broadcast, &enc);
            assert!(
                std::ptr::eq(to_1.as_slice(), to_2.as_slice()),
                "{mode:?}: both peers share one buffer"
            );
            // The public finishers still serialize afresh (the benchmark
            // probes time them), and a push drops what was built.
            assert!(!std::ptr::eq(
                enc.finish().as_slice(),
                enc.finish().as_slice()
            ));
            enc.push(12, &[0.0, 0.0]);
            let (to_3, _) = sender.encode(0, 3, 0, Channel::Broadcast, &enc);
            assert_eq!(to_3.len() / 4, to_1.len() / 3, "{mode:?}: four rows now");
        }
    }

    #[test]
    fn well_framed_wrong_payloads_are_typed_errors_and_change_no_state() {
        for mode in MODES {
            let mut sender = WireState::for_mode(mode);
            let mut receiver = WireState::for_mode(mode);
            let enc = batch(0.0);
            let (full, _) = sender.encode(0, 1, 0, Channel::Reduce, &enc);
            let short = full.slice(0..full.len() - 1);

            // Before anything was exchanged on the key.
            assert!(
                matches!(
                    decode_all(&mut receiver, &short, false, 12),
                    Err(WireError::BadLength { .. })
                ),
                "{mode:?}: short by one byte"
            );
            assert_eq!(
                decode_all(&mut receiver, &full, false, 11),
                Err(WireError::NodeOutOfRange {
                    node: 11,
                    n_nodes: 11
                }),
                "{mode:?}: node id == n_nodes"
            );
            let compact_too_early = match mode {
                WireMode::IdValue | WireMode::Quant => WireError::UnexpectedForm,
                WireMode::Delta => WireError::NoShadow,
            };
            let compact = enc.finish_delta(&[0b111]);
            assert_eq!(
                decode_all(&mut receiver, &compact, true, 12),
                Err(compact_too_early),
                "{mode:?}: compact flag with nothing to expand it against"
            );
            // None of that stored anything: a compact payload still has
            // nothing to expand against.
            assert_eq!(
                decode_all(&mut receiver, &compact, true, 12),
                Err(compact_too_early),
                "{mode:?}: failed decodes must not seed the shadow"
            );

            // After one good exchange: a bad compact payload fails and
            // the next good one still decodes to the sender's rows.
            decode_all(&mut receiver, &full, false, 12).unwrap();
            let next = batch(1.0);
            let (payload, value_only) = sender.encode(0, 1, 0, Channel::Reduce, &next);
            if value_only {
                let short = payload.slice(0..payload.len() - 1);
                assert!(
                    matches!(
                        decode_all(&mut receiver, &short, true, 12),
                        Err(WireError::BadLength { .. })
                    ),
                    "{mode:?}: compact payload short by one byte"
                );
            }
            let rows = decode_all(&mut receiver, &payload, value_only, 12).unwrap();
            if mode != WireMode::Quant {
                let flat: Vec<f32> = rows.into_iter().flat_map(|(_, r)| r).collect();
                assert_eq!(
                    flat,
                    next.values(),
                    "{mode:?}: state survived the bad payload"
                );
            }
        }
    }

    #[test]
    fn id_lists_are_validated_before_use() {
        let payload = encode_ids(&[3, 8]);
        let ids: Vec<u32> = decode_ids(&payload, 9).unwrap().collect();
        assert_eq!(ids, [3, 8]);
        assert_eq!(
            decode_ids(&payload, 8).err(),
            Some(WireError::NodeOutOfRange {
                node: 8,
                n_nodes: 8
            })
        );
        assert!(matches!(
            decode_ids(&payload.slice(0..7), 9).err(),
            Some(WireError::BadLength {
                claimed: 4,
                actual: 7
            })
        ));
    }

    #[test]
    fn dense_reduce_accounts_every_row_and_ships_the_touched_ones() {
        // Master 1 owns rows 4..10; host 0 touched rows 5 and 9 of them.
        let dense: Vec<u32> = (4..10).collect();
        let touched = |salt: f32| {
            let mut enc = RowEncoder::new(2);
            enc.push(9, &[0.25 + salt, 4.0]);
            enc.push(5, &[1.5, -2.0]);
            enc
        };
        for mode in MODES {
            let mut sender = WireState::for_mode(mode);
            let mut bytes = Vec::new();
            for salt in [0.0f32, 1.0] {
                let enc = touched(salt);
                let (payload, accounted) = sender.encode_dense_reduce(0, 1, 0, &dense, &enc);
                // The physical payload is the touched rows in a form the
                // receiver needs no dense state for.
                let want = if mode == WireMode::Quant {
                    enc.finish_quant()
                } else {
                    enc.finish()
                };
                assert_eq!(payload.as_slice(), want.as_slice(), "{mode:?}");
                bytes.push(accounted);
            }
            let want = match mode {
                WireMode::IdValue => [6 * entry_bytes(2); 2],
                WireMode::Quant => [6 * quant_entry_bytes(2); 2],
                // Round two: only row 9's delta differs from the shadow;
                // the four untouched rows are zero both times.
                WireMode::Delta => [6 * entry_bytes(2), delta_bytes(2, 6, 1)],
            };
            assert_eq!(bytes, want, "{mode:?}");
        }
    }

    fn sample_payload() -> Bytes {
        let mut enc = RowEncoder::new(3);
        enc.push(7, &[1.0, -2.5, f32::NAN]);
        enc.push(42, &[0.0, -0.0, 1e-30]);
        enc.finish()
    }

    #[test]
    fn frame_roundtrip_is_identity_on_payload() {
        let payload = sample_payload();
        let frame = seal_frame(&payload).unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
        let opened = open_frame(&frame).unwrap();
        assert_eq!(opened.as_slice(), payload.as_slice());
    }

    #[test]
    fn empty_payload_frames_fine() {
        let payload = RowEncoder::new(4).finish();
        let opened = open_frame(&seal_frame(&payload).unwrap()).unwrap();
        assert!(opened.is_empty());
    }

    #[test]
    fn length_field_boundary_is_a_typed_error_not_a_wrap() {
        // The check `seal_frame` runs, on the lengths alone: no 4 GiB
        // payload is allocated.
        assert_eq!(frame_len_field(0), Ok(0));
        assert_eq!(frame_len_field(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        for len in [1usize << 32, (1 << 32) + 12, usize::MAX] {
            assert_eq!(
                frame_len_field(len),
                Err(WireError::PayloadTooLarge { len }),
                "a wrapped field would claim {} bytes",
                len as u32
            );
        }
    }

    #[test]
    fn every_single_bit_flip_detected() {
        let frame = seal_frame(&sample_payload()).unwrap();
        for bit in 0..frame.len() * 8 {
            let mut bytes = frame.as_slice().to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                open_frame(&Bytes::from(bytes)).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncated_and_garbage_frames_rejected() {
        let frame = seal_frame(&sample_payload()).unwrap();
        assert_eq!(
            open_frame(&frame.slice(0..4)).unwrap_err(),
            WireError::BadLength {
                claimed: 0,
                actual: 4
            }
        );
        assert!(matches!(
            open_frame(&frame.slice(0..frame.len() - 1)),
            Err(WireError::BadLength { .. })
        ));
        assert_eq!(
            open_frame(&Bytes::from(vec![0xAB; 32])).unwrap_err(),
            WireError::BadMagic
        );
    }
}
