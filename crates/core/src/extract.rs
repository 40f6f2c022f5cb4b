//! Adder-tree extraction from GNN predictions (paper §III-B3).
//!
//! The predicted XOR/MAJ/root annotations *filter* the cut-classified
//! candidates: detection still runs (it is what knows the leaf set of every
//! candidate), but only nodes the model marked take part in pairing. The
//! pairing pass is the exact one, [`gamora_exact::Pairing`], given the
//! predictions as its admission test.

use crate::reasoner::Predictions;
use gamora_aig::{Aig, NodeId};
use gamora_exact::{
    compare_with_reference, detect, extract_adders, Candidates, ExtractedAdder, Pairing, Role,
    TreeComparison,
};

/// The admission test predictions put on exact candidates.
///
/// Following the paper's procedure ("after removing the nodes that are not
/// marked as adder roots"), XOR candidates must be predicted XOR *and*
/// root; MAJ/AND carry candidates must be predicted MAJ *and* root.
pub(crate) fn predicted(preds: &Predictions) -> impl Fn(NodeId, Role) -> bool + '_ {
    |node, role| {
        let i = node.index();
        // Root or RootAndLeaf
        matches!(preds.root_leaf[i], 1 | 3)
            && match role {
                Role::Sum => preds.is_xor[i],
                Role::Carry => preds.is_maj[i],
            }
    }
}

/// Extracts an adder tree using the model's predictions for detection.
pub fn extract_from_predictions(aig: &Aig, preds: &Predictions) -> Vec<ExtractedAdder> {
    extract_from_predictions_with(aig, &detect(aig), preds)
}

/// [`extract_from_predictions`] with a pre-computed candidate index — the
/// same one [`crate::lsb_correction_with`] takes, so a caller that runs
/// both pays for [`detect`] once. ([`crate::PostProcess`] is both steps
/// over reused buffers.)
pub fn extract_from_predictions_with(
    aig: &Aig,
    cands: &Candidates,
    preds: &Predictions,
) -> Vec<ExtractedAdder> {
    let mut adders = Vec::new();
    Pairing::default().pair(aig, cands, predicted(preds), &mut adders);
    adders
}

/// Extracts from predictions and compares against the exact tree.
pub fn compare_extraction(aig: &Aig, preds: &Predictions) -> (Vec<ExtractedAdder>, TreeComparison) {
    let cands = detect(aig);
    let exact = extract_adders(aig, &cands);
    let predicted = extract_from_predictions_with(aig, &cands, preds);
    let cmp = compare_with_reference(&predicted, exact.iter().map(|a| (a.sum, a.carry)));
    (predicted, cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_circuits::csa_multiplier;
    use gamora_exact::analyze;

    /// With oracle predictions (the exact labels), prediction-driven
    /// extraction must reproduce the exact adder tree bit for bit.
    #[test]
    fn oracle_predictions_reproduce_exact_tree() {
        let m = csa_multiplier(4);
        let analysis = analyze(&m.aig);
        let oracle = Predictions {
            root_leaf: analysis
                .labels
                .root_leaf
                .iter()
                .map(|c| c.as_index() as u32)
                .collect(),
            is_xor: analysis.labels.is_xor.clone(),
            is_maj: analysis.labels.is_maj.clone(),
        };
        let (_, cmp) = compare_extraction(&m.aig, &oracle);
        assert_eq!(cmp.missing, 0, "{cmp}");
        assert_eq!(cmp.spurious, 0, "{cmp}");
    }

    /// Breaking one root prediction loses exactly the adders that depend
    /// on that node.
    #[test]
    fn misprediction_costs_one_adder() {
        let m = csa_multiplier(3);
        let analysis = analyze(&m.aig);
        let mut preds = Predictions {
            root_leaf: analysis
                .labels
                .root_leaf
                .iter()
                .map(|c| c.as_index() as u32)
                .collect(),
            is_xor: analysis.labels.is_xor.clone(),
            is_maj: analysis.labels.is_maj.clone(),
        };
        // Knock out the first extracted adder's sum root (the paper's
        // Figure 3(e) scenario: node 10 mispredicted, one HA lost).
        let victim = analysis.adders[0].sum;
        preds.is_xor[victim.index()] = false;
        let (_, cmp) = compare_extraction(&m.aig, &preds);
        assert_eq!(cmp.missing, 1, "{cmp}");
        assert_eq!(cmp.matched, analysis.adders.len() - 1);
    }

    /// All-false predictions extract nothing.
    #[test]
    fn empty_predictions_extract_nothing() {
        let m = csa_multiplier(3);
        let preds = Predictions {
            root_leaf: vec![0; m.aig.num_nodes()],
            is_xor: vec![false; m.aig.num_nodes()],
            is_maj: vec![false; m.aig.num_nodes()],
        };
        let adders = extract_from_predictions(&m.aig, &preds);
        assert!(adders.is_empty());
    }
}
