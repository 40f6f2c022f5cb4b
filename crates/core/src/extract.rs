//! Adder-tree extraction from GNN predictions (paper §III-B3).
//!
//! The predicted XOR/MAJ/root annotations replace the *functional
//! detection* step of exact extraction; the cheap structural steps (cut
//! support computation and pairing by identical inputs) remain classical.

use crate::reasoner::Predictions;
use gamora_aig::Aig;
use gamora_exact::{
    compare_with_reference, detect, extract_adders, Candidates, ExtractedAdder, TreeComparison,
};

/// Restricts exact candidates to those the model predicted.
///
/// Following the paper's procedure ("after removing the nodes that are not
/// marked as adder roots"), XOR candidates must be predicted XOR *and*
/// root; MAJ/AND carry candidates must be predicted MAJ *and* root.
pub fn filter_candidates(cands: &Candidates, preds: &Predictions) -> Candidates {
    let root = |n: u32| -> bool {
        let c = preds.root_leaf[n as usize];
        c == 1 || c == 3 // Root or RootAndLeaf
    };
    let keep_xor = |n: u32| preds.is_xor[n as usize] && root(n);
    let keep_maj = |n: u32| preds.is_maj[n as usize] && root(n);
    let mut out = cands.clone();
    out.all.retain(|c| match c.class {
        gamora_aig::tt::AdderFunc::Xor2 | gamora_aig::tt::AdderFunc::Xor3 => {
            keep_xor(c.node.as_u32())
        }
        _ => keep_maj(c.node.as_u32()),
    });
    for (i, flag) in out.is_xor.iter_mut().enumerate() {
        *flag = *flag && preds.is_xor[i];
    }
    for (i, flag) in out.is_maj3.iter_mut().enumerate() {
        *flag = *flag && preds.is_maj[i];
    }
    for nodes in out.xor3_by_leaves.values_mut() {
        nodes.retain(|&n| keep_xor(n));
    }
    out.xor3_by_leaves.retain(|_, v| !v.is_empty());
    for nodes in out.maj3_by_leaves.values_mut() {
        nodes.retain(|&n| keep_maj(n));
    }
    out.maj3_by_leaves.retain(|_, v| !v.is_empty());
    for nodes in out.xor2_by_leaves.values_mut() {
        nodes.retain(|&n| keep_xor(n));
    }
    out.xor2_by_leaves.retain(|_, v| !v.is_empty());
    for nodes in out.and2_by_leaves.values_mut() {
        nodes.retain(|&n| keep_maj(n));
    }
    out.and2_by_leaves.retain(|_, v| !v.is_empty());
    out
}

/// Extracts an adder tree using the model's predictions for detection.
pub fn extract_from_predictions(aig: &Aig, preds: &Predictions) -> Vec<ExtractedAdder> {
    extract_from_predictions_with(aig, &detect(aig), preds)
}

/// [`extract_from_predictions`] with a pre-computed candidate index — the
/// same one [`crate::lsb_correction_with`] takes, so a caller that runs
/// both pays for [`detect`] once.
pub fn extract_from_predictions_with(
    aig: &Aig,
    cands: &Candidates,
    preds: &Predictions,
) -> Vec<ExtractedAdder> {
    extract_adders(aig, &filter_candidates(cands, preds))
}

/// Extracts from predictions and compares against the exact tree.
pub fn compare_extraction(aig: &Aig, preds: &Predictions) -> (Vec<ExtractedAdder>, TreeComparison) {
    let cands = detect(aig);
    let exact = extract_adders(aig, &cands);
    let filtered = filter_candidates(&cands, preds);
    let predicted = extract_adders(aig, &filtered);
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
