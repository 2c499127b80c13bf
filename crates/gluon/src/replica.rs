//! Per-host model replicas with delta tracking.
//!
//! Every host holds a full replica of the model (paper §4.2): one
//! [`FlatMatrix`] per layer (Word2Vec has two — the embedding layer
//! `syn0` and the training layer `syn1neg`). Between synchronization
//! points the host updates rows in place; the replica snapshots each
//! row's *base* value on first touch so the synchronization phase can
//! ship `delta = current − base` — the "gradient" the paper's model
//! combiner reconciles (accumulated over all of the host's SGD steps in
//! the round, §3/§4.3).

use gw2v_util::bitvec::BitVec;
use gw2v_util::fvec::FlatMatrix;

/// Sentinel for "not tracked this round".
const NO_SLOT: u32 = u32::MAX;

/// Tracks which rows of one layer were touched this round and their
/// pre-round base values.
#[derive(Clone, Debug)]
pub struct DeltaTracker {
    dim: usize,
    slot_of: Vec<u32>,
    /// Touched node ids in first-touch order.
    nodes: Vec<u32>,
    /// Slot-major base row copies.
    base: Vec<f32>,
    touched: BitVec,
}

impl DeltaTracker {
    /// Creates a tracker for `n_nodes` rows of length `dim`.
    pub(crate) fn new(n_nodes: usize, dim: usize) -> Self {
        Self {
            dim,
            slot_of: vec![NO_SLOT; n_nodes],
            nodes: Vec::new(),
            base: Vec::new(),
            touched: BitVec::new(n_nodes),
        }
    }

    /// Records that `node`'s row (currently `current`) is about to be
    /// modified; the first touch per round snapshots the base value.
    #[inline]
    pub(crate) fn on_touch(&mut self, node: u32, current: &[f32]) {
        if self.slot_of[node as usize] != NO_SLOT {
            return;
        }
        debug_assert_eq!(current.len(), self.dim);
        self.slot_of[node as usize] = self.nodes.len() as u32;
        self.nodes.push(node);
        self.base.extend_from_slice(current);
        self.touched.set(node as usize);
    }

    /// True if `node` was touched this round.
    #[inline]
    pub(crate) fn is_touched(&self, node: u32) -> bool {
        self.slot_of[node as usize] != NO_SLOT
    }

    /// The base (pre-round) value of a touched node.
    pub fn base_of(&self, node: u32) -> &[f32] {
        let slot = self.slot_of[node as usize];
        assert_ne!(slot, NO_SLOT, "node {node} not touched");
        &self.base[slot as usize * self.dim..(slot as usize + 1) * self.dim]
    }

    /// Touched nodes in first-touch order.
    pub fn touched_nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Touched nodes as a bit vector (what RepModel-Opt ships as
    /// metadata, paper §4.4).
    pub fn touched_bits(&self) -> &BitVec {
        &self.touched
    }

    /// Number of touched nodes.
    #[cfg(test)]
    pub(crate) fn touched_count(&self) -> usize {
        self.nodes.len()
    }

    /// Writes `current − base` for `node` into `out` (element-wise
    /// subtraction through the SIMD kernel table; bit-identical across
    /// backends).
    pub(crate) fn delta_into(&self, node: u32, current: &[f32], out: &mut [f32]) {
        let base = self.base_of(node);
        (gw2v_util::simd::kernels().sub_into)(current, base, out);
    }

    /// Clears all tracking for the next round; O(touched).
    pub(crate) fn clear(&mut self) {
        for &n in &self.nodes {
            self.slot_of[n as usize] = NO_SLOT;
        }
        self.nodes.clear();
        self.base.clear();
        self.touched.clear_all();
    }
}

/// One host's full model replica: `layers.len()` matrices plus a delta
/// tracker per layer.
#[derive(Clone, Debug)]
pub struct ModelReplica {
    /// The model layers (for Word2Vec: `[syn0, syn1neg]`).
    pub layers: Vec<FlatMatrix>,
    trackers: Vec<DeltaTracker>,
}

impl ModelReplica {
    /// Wraps existing layer matrices (all must have the same row count).
    pub fn new(layers: Vec<FlatMatrix>) -> Self {
        assert!(!layers.is_empty());
        let n = layers[0].rows();
        assert!(layers.iter().all(|l| l.rows() == n), "row count mismatch");
        let trackers = layers
            .iter()
            .map(|l| DeltaTracker::new(n, l.dim()))
            .collect();
        Self { layers, trackers }
    }

    /// Number of layers.
    pub(crate) fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of nodes (rows per layer).
    pub(crate) fn n_nodes(&self) -> usize {
        self.layers[0].rows()
    }

    /// Read-only row access.
    #[inline]
    pub fn row(&self, layer: usize, node: u32) -> &[f32] {
        self.layers[layer].row(node as usize)
    }

    /// Mutable row access *with* delta tracking: snapshots the base on
    /// first touch per round. All training writes must go through here
    /// (or pre-declare via `DeltaTracker::on_touch`).
    #[inline]
    pub fn row_mut(&mut self, layer: usize, node: u32) -> &mut [f32] {
        let current = self.layers[layer].row(node as usize);
        // Tracker borrows current immutably before the mutable borrow below.
        self.trackers[layer].on_touch(node, current);
        self.layers[layer].row_mut(node as usize)
    }

    /// Snapshots the base of each of `nodes` in `layer` not yet touched
    /// this round, in list order, for a caller that then writes the rows
    /// through [`Self::layers`].
    #[inline]
    pub fn touch(&mut self, layer: usize, nodes: &[u32]) {
        for &node in nodes {
            let current = self.layers[layer].row(node as usize);
            self.trackers[layer].on_touch(node, current);
        }
    }

    /// Mutable row access *without* tracking — only for initialization
    /// before training starts.
    #[inline]
    pub(crate) fn row_mut_untracked(&mut self, layer: usize, node: u32) -> &mut [f32] {
        self.layers[layer].row_mut(node as usize)
    }

    /// The layer's tracker.
    pub fn tracker(&self, layer: usize) -> &DeltaTracker {
        &self.trackers[layer]
    }

    /// Clears all trackers (end of a sync round).
    pub(crate) fn clear_tracking(&mut self) {
        for t in &mut self.trackers {
            t.clear();
        }
    }

    /// Simultaneous mutable access to one layer and its tracker, for the
    /// synchronization engine (which rewrites rows while consulting
    /// bases).
    pub(crate) fn layer_and_tracker_mut(
        &mut self,
        layer: usize,
    ) -> (&mut FlatMatrix, &DeltaTracker) {
        (&mut self.layers[layer], &self.trackers[layer])
    }

    /// Split borrow for the SGNS pair step: row `read_node` of
    /// `read_layer`, read-only, beside the whole of `write_layer` (which
    /// must differ) after each of `write_nodes` was first-touched in
    /// list order — the caller may then write exactly those rows.
    pub fn row_and_layer_mut(
        &mut self,
        read_layer: usize,
        read_node: u32,
        write_layer: usize,
        write_nodes: &[u32],
    ) -> (&[f32], &mut FlatMatrix) {
        assert_ne!(read_layer, write_layer, "layers must differ");
        self.touch(write_layer, write_nodes);
        let (read, write) = if read_layer < write_layer {
            let (lo, hi) = self.layers.split_at_mut(write_layer);
            (&lo[read_layer], &mut hi[0])
        } else {
            let (lo, hi) = self.layers.split_at_mut(read_layer);
            (&hi[0], &mut lo[write_layer])
        };
        (read.row(read_node as usize), write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(n: usize, dim: usize) -> ModelReplica {
        ModelReplica::new(vec![FlatMatrix::zeros(n, dim), FlatMatrix::zeros(n, dim)])
    }

    #[test]
    fn first_touch_snapshots_base() {
        let mut r = replica(4, 2);
        r.row_mut_untracked(0, 1).copy_from_slice(&[5.0, 6.0]);
        {
            let row = r.row_mut(0, 1);
            row[0] = 10.0;
        }
        {
            let row = r.row_mut(0, 1);
            row[1] = 20.0;
        }
        let t = r.tracker(0);
        assert!(t.is_touched(1));
        assert_eq!(t.base_of(1), &[5.0, 6.0], "base is the pre-round value");
        let mut delta = [0.0; 2];
        t.delta_into(1, r.row(0, 1), &mut delta);
        assert_eq!(delta, [5.0, 14.0]);
    }

    #[test]
    fn layers_track_independently() {
        let mut r = replica(3, 2);
        r.row_mut(0, 0)[0] = 1.0;
        r.row_mut(1, 2)[0] = 2.0;
        assert!(r.tracker(0).is_touched(0));
        assert!(!r.tracker(0).is_touched(2));
        assert!(r.tracker(1).is_touched(2));
        assert!(!r.tracker(1).is_touched(0));
    }

    #[test]
    fn untracked_writes_invisible() {
        let mut r = replica(2, 2);
        r.row_mut_untracked(0, 0)[0] = 9.0;
        assert_eq!(r.tracker(0).touched_count(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = replica(3, 2);
        r.row_mut(0, 1)[0] = 1.0;
        r.row_mut(0, 2)[1] = 2.0;
        assert_eq!(r.tracker(0).touched_count(), 2);
        r.clear_tracking();
        assert_eq!(r.tracker(0).touched_count(), 0);
        assert!(!r.tracker(0).is_touched(1));
        assert!(r.tracker(0).touched_bits().none());
        // New round: base re-snapshots the *current* value.
        r.row_mut(0, 1)[0] = 5.0;
        assert_eq!(r.tracker(0).base_of(1), &[1.0, 0.0]);
    }

    #[test]
    fn touch_order_preserved() {
        let mut r = replica(5, 1);
        for &n in &[3u32, 0, 4, 0, 3] {
            r.row_mut(0, n)[0] += 1.0;
        }
        assert_eq!(r.tracker(0).touched_nodes(), &[3, 0, 4]);
    }

    #[test]
    fn row_and_layer_mut_touches_the_named_rows_in_list_order() {
        let mut r = replica(5, 2);
        r.row_mut_untracked(0, 3).copy_from_slice(&[7.0, 8.0]);
        r.row_mut_untracked(1, 4).copy_from_slice(&[1.0, 2.0]);
        r.row_mut(1, 2)[0] = 9.0;
        let (read, write) = r.row_and_layer_mut(0, 3, 1, &[4, 0, 4, 2]);
        assert_eq!(read, &[7.0, 8.0]);
        write.row_mut(4)[1] = 5.0;
        // Row 2 keeps its earlier slot; 4 and 0 follow in list order,
        // and 4's base is its value before this call's write.
        assert_eq!(r.tracker(1).touched_nodes(), &[2, 4, 0]);
        assert_eq!(r.tracker(1).base_of(4), &[1.0, 2.0]);
        assert_eq!(r.tracker(1).base_of(2), &[0.0, 0.0]);
        assert_eq!(
            r.tracker(0).touched_count(),
            0,
            "the read row is not tracked"
        );
        // Either layer can be the written one.
        let (read, write) = r.row_and_layer_mut(1, 4, 0, &[1]);
        assert_eq!(read, &[1.0, 5.0]);
        write.row_mut(1)[0] = 3.0;
        assert_eq!(r.tracker(0).touched_nodes(), &[1]);
    }

    #[test]
    #[should_panic(expected = "not touched")]
    fn base_of_untouched_panics() {
        let r = replica(2, 1);
        let _ = r.tracker(0).base_of(0);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_layers_rejected() {
        let _ = ModelReplica::new(vec![FlatMatrix::zeros(2, 2), FlatMatrix::zeros(3, 2)]);
    }
}
