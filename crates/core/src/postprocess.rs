//! Post-processing repair of systematic mispredictions.
//!
//! The paper observes that "several nodes near the least significant bit
//! are always mispredicted due to their shallow neighborhood structure"
//! (the LSB half adder sits one hop from the inputs, so a K-layer model
//! cannot distinguish it from generic AND/XOR glue) and notes the miss "can
//! be easily corrected during post-processing". This module implements that
//! correction: structurally complete the extracted tree with HA pairs whose
//! support is primary inputs only.
//!
//! [`PostProcess`] is the whole classical half of an extraction job —
//! cuts, candidates, the predicted pairing and this repair — over buffers
//! it keeps, computing the candidate index once for both pairings.

use crate::extract::predicted;
use crate::reasoner::Predictions;
use gamora_aig::cut::CutSets;
use gamora_aig::{Aig, NodeId};
use gamora_exact::{detect, extract_adders, Candidates, ExtractedAdder, Pairing};

/// Logic level below which an adder's leaves count as "shallow" (primary
/// inputs are level 0; partial-product AND gates are level 1 — the support
/// of the paper's systematically-missed LSB half adder).
pub const SHALLOW_LEAF_LEVEL: u32 = 1;

/// Whether the logic level of `node` is at most `bound`, read off the
/// fanins directly (cheaper than levelling the network for the few leaves
/// asked about, and free of a per-subject buffer).
fn level_at_most(aig: &Aig, node: NodeId, bound: u32) -> bool {
    !aig.is_and(node)
        || bound > 0 && {
            let (f0, f1) = aig.fanins(node);
            level_at_most(aig, f0.var(), bound - 1) && level_at_most(aig, f1.var(), bound - 1)
        }
}

/// Keeps in `exact` the shallow-support adders that `adders` missed: those
/// whose leaves are all shallow and whose sum and carry are not already
/// roots in `adders`, so the correction never double-counts.
fn retain_missed_shallow(
    aig: &Aig,
    exact: &mut Vec<ExtractedAdder>,
    adders: &[ExtractedAdder],
    used: &mut Vec<bool>,
) {
    used.clear();
    used.resize(aig.num_nodes(), false);
    for a in adders {
        used[a.sum.index()] = true;
        used[a.carry.index()] = true;
    }
    exact.retain(|cand| {
        let shallow = cand
            .leaf_slice()
            .iter()
            .all(|&l| level_at_most(aig, NodeId::new(l), SHALLOW_LEAF_LEVEL));
        if !shallow || used[cand.sum.index()] || used[cand.carry.index()] {
            return false;
        }
        used[cand.sum.index()] = true;
        used[cand.carry.index()] = true;
        true
    });
}

/// Adds shallow-support adders that exact pairing finds but the
/// prediction-driven extraction missed. Returns how many were added.
///
/// Only pairs whose sum and carry nodes are not already roots of an
/// extracted adder are added, so the correction never double-counts.
pub fn lsb_correction(aig: &Aig, adders: &mut Vec<ExtractedAdder>) -> usize {
    let mut exact = extract_adders(aig, &detect(aig));
    retain_missed_shallow(aig, &mut exact, adders, &mut Vec::new());
    adders.extend_from_slice(&exact);
    adders.sort_unstable_by_key(|a| (a.sum, a.carry));
    exact.len()
}

/// [`crate::extract_from_predictions`] followed by [`lsb_correction`] as
/// one pass over reused working memory: after the first subject of a given
/// size, a run allocates only the list it returns.
#[derive(Clone, Debug, Default)]
pub struct PostProcess {
    cuts: CutSets,
    cands: Candidates,
    pairing: Pairing,
    predicted: Vec<ExtractedAdder>,
    exact: Vec<ExtractedAdder>,
    used: Vec<bool>,
}

impl PostProcess {
    /// The adders the predictions pair up, completed by the shallow-support
    /// adders of the exact tree they missed; sorted by (sum, carry).
    pub fn run(&mut self, aig: &Aig, preds: &Predictions) -> Vec<ExtractedAdder> {
        self.cands.rebuild(aig, &mut self.cuts);
        self.pairing
            .pair(aig, &self.cands, predicted(preds), &mut self.predicted);
        self.pairing
            .pair(aig, &self.cands, |_, _| true, &mut self.exact);
        retain_missed_shallow(aig, &mut self.exact, &self.predicted, &mut self.used);
        let mut adders = Vec::with_capacity(self.predicted.len() + self.exact.len());
        adders.extend_from_slice(&self.predicted);
        adders.extend_from_slice(&self.exact);
        adders.sort_unstable_by_key(|a| (a.sum, a.carry));
        adders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_circuits::csa_multiplier;

    #[test]
    fn repairs_missing_lsb_half_adder() {
        let m = csa_multiplier(3);
        let analysis = gamora_exact::analyze(&m.aig);
        let levels = m.aig.levels();
        // Simulate the paper's Figure 3(e): drop an adder whose leaves are
        // all shallow (the LSB HA over partial-product bits).
        let mut adders = analysis.adders.clone();
        let lsb_pos = adders
            .iter()
            .position(|a| {
                a.leaf_slice()
                    .iter()
                    .all(|&l| levels[l as usize] <= SHALLOW_LEAF_LEVEL)
            })
            .expect("CSA multiplier has a shallow-support adder");
        let dropped = adders.remove(lsb_pos);
        let added = lsb_correction(&m.aig, &mut adders);
        assert_eq!(added, 1);
        assert!(adders
            .iter()
            .any(|a| a.sum == dropped.sum && a.carry == dropped.carry));
        assert_eq!(adders.len(), analysis.adders.len());
    }

    #[test]
    fn complete_tree_needs_no_repair() {
        let m = csa_multiplier(4);
        let analysis = gamora_exact::analyze(&m.aig);
        let mut adders = analysis.adders.clone();
        let added = lsb_correction(&m.aig, &mut adders);
        assert_eq!(added, 0);
        assert_eq!(adders.len(), analysis.adders.len());
    }

    #[test]
    fn interior_misses_are_not_touched() {
        // Dropping a deep adder (leaves not all PIs) is *not* repaired by
        // the LSB pass — that is the point: only the systematic shallow
        // misses are corrected structurally.
        let m = csa_multiplier(4);
        let analysis = gamora_exact::analyze(&m.aig);
        let levels = m.aig.levels();
        let mut adders = analysis.adders.clone();
        let deep_pos = adders
            .iter()
            .position(|a| {
                a.leaf_slice()
                    .iter()
                    .any(|&l| levels[l as usize] > SHALLOW_LEAF_LEVEL)
            })
            .expect("deep adder exists");
        adders.remove(deep_pos);
        let added = lsb_correction(&m.aig, &mut adders);
        assert_eq!(added, 0);
        assert_eq!(adders.len(), analysis.adders.len() - 1);
    }
}
