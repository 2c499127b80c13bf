//! Synchronization plans (paper §4.4).
//!
//! All plans run the same reduce/broadcast protocol and produce the same
//! model; they differ in which `(node, row)` payloads actually cross the
//! wire:
//!
//! | plan | reduce ships | broadcast ships |
//! |------|--------------|-----------------|
//! | `RepModelNaive` | every mirror row on every host | every master row to every other host |
//! | `RepModelOpt`   | rows the host touched | rows updated on ≥ 1 host, to every other host |
//! | `PullModel`     | rows the host touched | to each host, exactly the rows it will access next round |
//!
//! `PullModel` needs an *inspection* pass (paper: "we introduce an
//! inspection phase at the beginning of each synchronization round to
//! generate the edges and track the nodes that are accessed") — the
//! trainer replays the upcoming round's edge generation with a cloned
//! RNG and reports per-layer access sets here.

use gw2v_combiner::CombinerKind;
use gw2v_util::bitvec::BitVec;
use serde::{Deserialize, Serialize};

/// Which communication plan to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncPlan {
    /// Fully replicated model, dense communication.
    RepModelNaive,
    /// Fully replicated model, bit-vector sparse communication (default).
    RepModelOpt,
    /// Inspection-driven pull of the rows each host will access.
    PullModel,
}

impl SyncPlan {
    /// Parses `"naive" | "opt" | "pull"` (and the paper's full names).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "naive" | "repmodel-naive" => Some(Self::RepModelNaive),
            "opt" | "repmodel-opt" => Some(Self::RepModelOpt),
            "pull" | "pullmodel" => Some(Self::PullModel),
            _ => None,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Self::RepModelNaive => "RepModel-Naive",
            Self::RepModelOpt => "RepModel-Opt",
            Self::PullModel => "PullModel",
        }
    }
}

/// Per-host, per-layer sets of nodes the host will access in its next
/// compute round; produced by the PullModel inspection pass.
///
/// `sets[host][layer]` is a bit vector over global node ids.
#[derive(Clone, Debug)]
pub struct AccessSets {
    /// `sets[host][layer]`.
    pub sets: Vec<Vec<BitVec>>,
}

impl AccessSets {
    /// Creates all-empty access sets.
    pub fn new(n_hosts: usize, n_layers: usize, n_nodes: usize) -> Self {
        Self {
            sets: (0..n_hosts)
                .map(|_| (0..n_layers).map(|_| BitVec::new(n_nodes)).collect())
                .collect(),
        }
    }

    /// The set for `(host, layer)`.
    pub(crate) fn get(&self, host: usize, layer: usize) -> &BitVec {
        &self.sets[host][layer]
    }

    /// Mutable set for `(host, layer)`.
    pub fn get_mut(&mut self, host: usize, layer: usize) -> &mut BitVec {
        &mut self.sets[host][layer]
    }
}

/// Full synchronization configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SyncConfig {
    /// Communication plan.
    pub plan: SyncPlan,
    /// Reduction operator for concurrent deltas.
    pub combiner: CombinerKind,
}

impl Default for SyncConfig {
    fn default() -> Self {
        Self {
            plan: SyncPlan::RepModelOpt,
            combiner: CombinerKind::ModelCombiner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_labels() {
        assert_eq!(SyncPlan::parse("opt"), Some(SyncPlan::RepModelOpt));
        assert_eq!(
            SyncPlan::parse("RepModel-Naive"),
            Some(SyncPlan::RepModelNaive)
        );
        assert_eq!(SyncPlan::parse("PULL"), Some(SyncPlan::PullModel));
        assert_eq!(SyncPlan::parse("x"), None);
        assert_eq!(SyncPlan::PullModel.label(), "PullModel");
    }

    #[test]
    fn access_sets_shape() {
        let mut a = AccessSets::new(3, 2, 10);
        a.get_mut(1, 0).set(5);
        assert!(a.get(1, 0).get(5));
        assert!(!a.get(1, 1).get(5));
        assert!(!a.get(0, 0).get(5));
    }

    #[test]
    fn default_config_is_paper_default() {
        let c = SyncConfig::default();
        assert_eq!(c.plan, SyncPlan::RepModelOpt);
        assert_eq!(c.combiner, CombinerKind::ModelCombiner);
    }
}
