//! # gamora-exact
//!
//! Exact, ABC-style symbolic reasoning over AIGs: the reproduction of the
//! conventional flow the paper compares against, and the provider of the
//! ground-truth labels Gamora's GNN is trained on.
//!
//! The pipeline mirrors `&atree` (Yu et al., TCAD'17):
//!
//! 1. [`detect`](fn@detect) — enumerate 3-feasible cuts and classify each node's cut
//!    functions against the NPN-widened XOR2/XOR3/MAJ3/AND2 classes
//!    (functional propagation);
//! 2. [`extract_adders`] — pair XOR and MAJ/AND roots over identical leaf
//!    sets into full/half adders (word-level aggregation). [`Pairing`] is
//!    the pass itself: it takes a filter over the candidates, which is how
//!    the GNN's predictions drive the same code, and keeps its working
//!    memory between calls;
//! 3. [`build_labels`] — derive the three per-node classification targets
//!    of the multi-task GNN.
//!
//! ```
//! use gamora_circuits::csa_multiplier;
//! let m = csa_multiplier(4);
//! let analysis = gamora_exact::analyze(&m.aig);
//! // Every adder the generator placed is recovered exactly.
//! let reference = m.provenance.real_adders().map(|r| (r.sum.var(), r.carry.var()));
//! let cmp = gamora_exact::compare_with_reference(&analysis.adders, reference);
//! assert_eq!(cmp.missing, 0);
//! ```

#![warn(missing_docs)]

mod detect;
mod extract;
mod labels;
mod wordlevel;

pub use detect::{detect, Candidate, Candidates, Role};
pub use extract::{extract_adders, ExtractedAdder, ExtractedKind, Pairing};
pub use labels::{build_labels, Labels, RootLeafClass};
pub use wordlevel::{build_tree, compare_with_reference, AdderTree, TreeComparison};

use gamora_aig::Aig;

/// The complete result of exact reasoning over a network.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Classified cut functions per node.
    pub candidates: Candidates,
    /// Extracted full/half adders.
    pub adders: Vec<ExtractedAdder>,
    /// Ground-truth labels for the three GNN tasks.
    pub labels: Labels,
}

/// Runs detection, extraction and labelling in one call.
pub fn analyze(aig: &Aig) -> Analysis {
    let candidates = detect(aig);
    let adders = extract_adders(aig, &candidates);
    let labels = build_labels(aig, &candidates, &adders);
    Analysis {
        candidates,
        adders,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_circuits::{booth_multiplier, csa_multiplier, ripple_carry_adder};

    #[test]
    fn csa_multiplier_extraction_matches_provenance() {
        for bits in [2usize, 3, 4, 6, 8] {
            let m = csa_multiplier(bits);
            let analysis = analyze(&m.aig);
            let reference: Vec<_> = m
                .provenance
                .real_adders()
                .map(|r| (r.sum.var(), r.carry.var()))
                .collect();
            let cmp = compare_with_reference(&analysis.adders, reference);
            assert_eq!(
                cmp.missing,
                0,
                "{bits}-bit CSA: {cmp} (adders {})",
                analysis.adders.len()
            );
        }
    }

    #[test]
    fn booth_multiplier_extraction_recovers_tree() {
        for bits in [4usize, 6, 8] {
            let m = booth_multiplier(bits);
            let analysis = analyze(&m.aig);
            let reference: Vec<_> = m
                .provenance
                .real_adders()
                .map(|r| (r.sum.var(), r.carry.var()))
                .collect();
            let cmp = compare_with_reference(&analysis.adders, reference);
            assert!(
                cmp.recall() > 0.95,
                "{bits}-bit Booth recall too low: {cmp}"
            );
        }
    }

    #[test]
    fn ripple_adder_fully_recovered() {
        let m = ripple_carry_adder(16);
        let analysis = analyze(&m.aig);
        let reference: Vec<_> = m
            .provenance
            .real_adders()
            .map(|r| (r.sum.var(), r.carry.var()))
            .collect();
        let cmp = compare_with_reference(&analysis.adders, reference);
        assert_eq!(cmp.missing, 0, "{cmp}");
        assert_eq!(cmp.spurious, 0, "{cmp}");
    }

    #[test]
    fn label_consistency_roots_are_xor_or_maj() {
        let m = csa_multiplier(6);
        let analysis = analyze(&m.aig);
        for a in &analysis.adders {
            assert!(analysis.labels.root_leaf[a.sum.index()].is_root());
            assert!(analysis.labels.root_leaf[a.carry.index()].is_root());
            assert!(analysis.labels.is_xor[a.sum.index()]);
            assert!(analysis.labels.is_maj[a.carry.index()]);
        }
    }

    #[test]
    fn kogge_stone_yields_no_false_tree() {
        // A prefix adder has almost no FA/HA pairs; ensure we do not
        // hallucinate a large tree (the p/g stage forms one legitimate HA
        // per bit: (p_i, g_i) — that is real arithmetic, not noise).
        let m = gamora_circuits::kogge_stone_adder(16);
        let analysis = analyze(&m.aig);
        let tree = build_tree(&analysis.adders);
        assert!(
            tree.num_full() <= 1,
            "unexpected FAs in prefix logic: {tree}"
        );
    }
}
