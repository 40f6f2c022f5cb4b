//! Cut-based detection of adder-relevant functions (XOR2/3, MAJ3, AND2).
//!
//! For every AND node we enumerate 3-feasible cuts, shrink each cut function
//! to its true support and classify it against the NPN-widened XOR/MAJ/AND
//! classes — the functional-propagation half of conventional symbolic
//! reasoning (the other half, structural shape hashing, is not
//! implemented here).
//!
//! A 3-feasible cut function is one of 256 tables, so support, shrunken
//! table and class all come from one lookup. The result, [`Candidates`],
//! carries the candidates twice: in detection order (`all`) and as keys
//! sorted by leaf set, so that the sums and carries that can pair over one
//! leaf set are one contiguous run — the index [`crate::Pairing`] walks.
//! Both live in buffers [`Candidates::rebuild`] reuses.

use gamora_aig::cut::{CutParams, CutSets};
use gamora_aig::tt::{self, AdderFunc};
use gamora_aig::{Aig, NodeId};
use std::sync::OnceLock;

/// One classified cut of a node.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// The node whose function was classified.
    pub node: NodeId,
    /// Sorted cut leaves (first `len` entries used).
    pub leaves: [u32; 3],
    /// Number of leaves after support shrinking (2 or 3).
    pub len: u8,
    /// The function class of the node over the leaves.
    pub class: AdderFunc,
    /// The shrunken truth table over the leaves.
    pub tt: u64,
}

impl Candidate {
    /// The active leaf slice.
    pub fn leaf_slice(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }
}

/// The part a candidate can play in an adder over its leaves.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Role {
    /// XOR-class: the sum root.
    Sum,
    /// MAJ3-/AND2-class: the carry root.
    Carry,
}

/// A candidate as a pairing key. The derived order is the order pairing
/// runs in: every 3-leaf set before any 2-leaf set, leaf sets ascending,
/// and within one leaf set the sums, then the carries, by node.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Slot {
    /// A 2-leaf (half-adder) candidate; `leaves[2]` is then zero.
    pub half: bool,
    pub leaves: [u32; 3],
    pub role: Role,
    pub node: u32,
}

/// All adder-relevant candidates of a network, indexed for pairing.
#[derive(Clone, Debug, Default)]
pub struct Candidates {
    /// Every classified (node, cut) pair, by node.
    pub all: Vec<Candidate>,
    /// Per-node flag: has an XOR2- or XOR3-class cut.
    pub is_xor: Vec<bool>,
    /// Per-node flag: has a (full-support) MAJ3-class cut.
    pub is_maj3: Vec<bool>,
    /// `all` as sorted, distinct pairing keys.
    pub(crate) slots: Vec<Slot>,
    /// Per node: fanout edges plus primary outputs it drives.
    pub(crate) refs: Vec<u32>,
}

/// What one 3-variable table is on its true support.
#[derive(Copy, Clone)]
struct Class3 {
    /// The table with vacuous variables removed.
    tt: u8,
    /// Bitmask of the variables the table depends on.
    support: u8,
    /// The adder class, when two or three variables are left.
    class: Option<AdderFunc>,
}

fn class_table() -> &'static [Class3; 256] {
    static TABLE: OnceLock<[Class3; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|table| {
            let (tt, k, kept) = tt::shrink(table as u64, 3);
            Class3 {
                tt: tt as u8,
                support: kept[..k].iter().fold(0, |m, &i| m | 1 << i),
                // Constants and wires are not adder functions.
                class: (k >= 2).then(|| tt::classify_adder_func(tt, k)).flatten(),
            }
        })
    })
}

impl Candidates {
    /// Re-runs detection on `aig` into this index, enumerating cuts into
    /// `cuts`; allocation-free once both have held a network of this size.
    ///
    /// Functions are classified on their *true* support: a 3-feasible cut
    /// whose function only depends on two leaves is classified as a 2-input
    /// function over those leaves. Duplicate (node, leaves, table) entries
    /// are merged.
    pub fn rebuild(&mut self, aig: &Aig, cuts: &mut CutSets) {
        cuts.fill(aig, &CutParams::for_adder_extraction());
        let classes = class_table();
        let n = aig.num_nodes();
        self.all.clear();
        self.slots.clear();
        for flags in [&mut self.is_xor, &mut self.is_maj3] {
            flags.clear();
            flags.resize(n, false);
        }
        self.refs.clear();
        self.refs.resize(n, 0);
        for o in aig.outputs() {
            self.refs[o.var().index()] += 1;
        }
        for node in aig.and_ids() {
            let (f0, f1) = aig.fanins(node);
            self.refs[f0.var().index()] += 1;
            self.refs[f1.var().index()] += 1;
            let first = self.all.len();
            for cut in cuts.of(node) {
                // A table over fewer than three leaves, repeated, is the
                // same function over three with the upper ones vacuous.
                let repeat = [0, 0x55, 0x11, 0x01][cut.len()];
                let found = classes[(cut.tt as u8).wrapping_mul(repeat) as usize];
                let Some(class) = found.class else {
                    continue;
                };
                let mut leaves = [0u32; 3];
                let mut len = 0;
                for (i, &leaf) in cut.leaves().iter().enumerate() {
                    if found.support >> i & 1 != 0 {
                        leaves[len] = leaf;
                        len += 1;
                    }
                }
                let cand = Candidate {
                    node,
                    leaves,
                    len: len as u8,
                    class,
                    tt: found.tt as u64,
                };
                if self.all[first..].contains(&cand) {
                    continue;
                }
                // Any product of two literals can be a half-adder carry
                // (mixed polarities arise whenever an adder consumes a
                // complemented literal, which is routine in AIGs).
                // Structural covering during extraction prevents the
                // products *inside* XOR cones from pairing spuriously.
                let role = match class {
                    AdderFunc::Xor2 | AdderFunc::Xor3 => {
                        self.is_xor[node.index()] = true;
                        Role::Sum
                    }
                    AdderFunc::Maj3 => {
                        self.is_maj3[node.index()] = true;
                        Role::Carry
                    }
                    AdderFunc::And2 => Role::Carry,
                };
                self.all.push(cand);
                self.slots.push(Slot {
                    half: len == 2,
                    leaves,
                    role,
                    node: node.as_u32(),
                });
            }
        }
        self.slots.sort_unstable();
        self.slots.dedup();
    }
}

/// Detects and indexes all adder-relevant cut functions; see
/// [`Candidates::rebuild`].
pub fn detect(aig: &Aig) -> Candidates {
    let mut cands = Candidates::default();
    cands.rebuild(aig, &mut CutSets::default());
    cands
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nodes classified as `class` over exactly `leaves`.
    fn nodes_over(cands: &Candidates, class: AdderFunc, leaves: &[u32]) -> Vec<u32> {
        cands
            .all
            .iter()
            .filter(|c| c.class == class && c.leaf_slice() == leaves)
            .map(|c| c.node.as_u32())
            .collect()
    }

    #[test]
    fn detects_full_adder_functions() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        let cands = detect(&aig);
        assert!(cands.is_xor[s.var().index()], "sum is XOR3");
        assert!(cands.is_maj3[c.var().index()], "carry is MAJ3");
        let key = [
            ins[0].var().as_u32(),
            ins[1].var().as_u32(),
            ins[2].var().as_u32(),
        ];
        assert!(nodes_over(&cands, AdderFunc::Xor3, &key).contains(&s.var().as_u32()));
        assert!(nodes_over(&cands, AdderFunc::Maj3, &key).contains(&c.var().as_u32()));
    }

    #[test]
    fn interior_xor2_detected_with_leg_products() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let x = aig.xor(a, b);
        aig.add_output(x);
        let cands = detect(&aig);
        assert!(cands.is_xor[x.var().index()]);
        // The two internal legs compute a&!b and !a&b: indexed as AND2
        // candidates (extraction's cover analysis keeps them from pairing
        // with their own root).
        let key = [a.var().as_u32(), b.var().as_u32()];
        assert_eq!(nodes_over(&cands, AdderFunc::And2, &key).len(), 2);
    }

    #[test]
    fn detects_ha_pair_with_constant_third_input() {
        // Booth correction slices fold FA(a, b, TRUE) into (XNOR, OR).
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let (s, c) = aig.full_adder(a, b, gamora_aig::Lit::TRUE);
        aig.add_output(s);
        aig.add_output(c);
        let cands = detect(&aig);
        assert!(cands.is_xor[s.var().index()], "xnor is XOR class");
        let key = [a.var().as_u32(), b.var().as_u32()];
        assert!(
            !nodes_over(&cands, AdderFunc::And2, &key).is_empty(),
            "or is carry class"
        );
    }

    #[test]
    fn negated_input_fa_still_detected() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(!ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        let cands = detect(&aig);
        assert!(cands.is_xor[s.var().index()]);
        assert!(
            cands.is_maj3[c.var().index()],
            "negated-input MAJ is NPN MAJ"
        );
    }

    #[test]
    fn plain_and_is_not_xor_or_maj() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let g = aig.and(a, b);
        aig.add_output(g);
        let cands = detect(&aig);
        assert!(!cands.is_xor[g.var().index()]);
        assert!(!cands.is_maj3[g.var().index()]);
        // but it is an HA-carry candidate
        let key = [a.var().as_u32(), b.var().as_u32()];
        assert!(!nodes_over(&cands, AdderFunc::And2, &key).is_empty());
    }
}
