//! K-feasible cut enumeration with truth-table computation.
//!
//! A *cut* of node `n` is a set of nodes (leaves) whose values completely
//! determine `n`; a cut is K-feasible if it has at most K leaves. Cuts are
//! enumerated bottom-up by merging fanin cuts, and each cut carries the truth
//! table of the node expressed over its (sorted) leaves — the machinery both
//! ABC and this reproduction use to detect XOR3/MAJ3 roots and to match
//! standard cells.
//!
//! All cuts of a network live in one arena ([`CutSets`]: a flat `Vec<Cut>`
//! plus per-node offsets) that [`CutSets::fill`] refills in place, so a
//! caller that keeps the arena enumerates without touching the allocator.
//! Per fanin-cut pair the enumerator rejects on a leaf signature before
//! merging, lets the merge report where each side's leaves landed, skips
//! leaf sets it has already seen before computing any table, and stretches
//! the two fanin tables onto the merged leaves with a few word operations
//! per moved variable rather than a loop over minterms.

use crate::tt;
use crate::{Aig, Lit, NodeId};

/// Maximum number of leaves a cut can have.
pub const MAX_CUT_SIZE: usize = 6;

/// A cut: sorted leaf set plus the truth table of the root over the leaves.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Cut {
    leaves: [u32; MAX_CUT_SIZE],
    len: u8,
    /// One bit per leaf (`1 << leaf % 32`): a leaf set can only contain
    /// another if its signature contains the other's, and a union has at
    /// least as many leaves as its signature has bits.
    sig: u32,
    /// Truth table of the root over `leaves()` (leaf `i` = variable `i`).
    pub tt: u64,
}

impl Cut {
    /// The constant cut (no leaves) with the given constant table.
    fn constant(tt: u64) -> Cut {
        Cut {
            leaves: [0; MAX_CUT_SIZE],
            len: 0,
            sig: 0,
            tt,
        }
    }

    /// The trivial cut `{n}` whose function is the projection on `n`.
    pub fn trivial(n: NodeId) -> Cut {
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[0] = n.as_u32();
        Cut {
            leaves,
            len: 1,
            sig: 1 << (n.as_u32() % 32),
            tt: tt::var(0) & tt::mask(1),
        }
    }

    /// The sorted leaf node indices.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this is the constant cut (no leaves).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this is a trivial single-leaf cut of `n`.
    pub fn is_trivial_of(&self, n: NodeId) -> bool {
        self.len == 1 && self.leaves[0] == n.as_u32()
    }

    /// Whether every leaf of `self` is also a leaf of `other`.
    fn subsumes(&self, other: &Cut) -> bool {
        if self.len > other.len || self.sig & !other.sig != 0 {
            return false;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j == b.len() || b[j] != x {
                return false;
            }
        }
        true
    }

    /// The order cuts of one node are ranked in: fewer leaves first, then
    /// lexicographic (unused leaf slots are zero, so whole arrays compare).
    fn rank(&self) -> (u8, [u32; MAX_CUT_SIZE]) {
        (self.len, self.leaves)
    }
}

/// The union of two sorted leaf sets if it fits in `k` leaves, as a cut
/// without a table, plus one position mask per side: bit `p` of mask `s` is
/// set when leaf `p` of the union is a leaf of side `s`.
fn merge_leaves(a: &Cut, b: &Cut, k: usize) -> Option<(Cut, [u32; 2])> {
    let (la, lb) = (a.leaves(), b.leaves());
    let mut leaves = [0u32; MAX_CUT_SIZE];
    let mut masks = [0u32; 2];
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < la.len() || j < lb.len() {
        if n == k {
            return None;
        }
        let x = la.get(i).copied().unwrap_or(u32::MAX);
        let y = lb.get(j).copied().unwrap_or(u32::MAX);
        if x <= y {
            masks[0] |= 1 << n;
            i += 1;
        }
        if y <= x {
            masks[1] |= 1 << n;
            j += 1;
        }
        leaves[n] = x.min(y);
        n += 1;
    }
    let merged = Cut {
        leaves,
        len: n as u8,
        sig: a.sig | b.sig,
        tt: 0,
    };
    Some((merged, masks))
}

/// Re-expresses a table over `vars` variables over the variables named by
/// `positions` (ascending: variable `i` moves to the `i`-th set bit); the
/// result is vacuous in every other variable and fills all 64 bits.
fn stretch(table: u64, vars: usize, positions: u32) -> u64 {
    // Repeating a `vars`-variable table across the word makes it a
    // six-variable table vacuous in the upper ones.
    const REPEAT: [u64; tt::MAX_VARS + 1] = [
        u64::MAX,
        0x5555_5555_5555_5555,
        0x1111_1111_1111_1111,
        0x0101_0101_0101_0101,
        0x0001_0001_0001_0001,
        0x0000_0001_0000_0001,
        1,
    ];
    let mut t = table.wrapping_mul(REPEAT[vars]);
    let mut rest = positions;
    // Highest variable first: its target is above every variable still to
    // move and vacuous, so exchanging the two moves it there.
    for i in (0..vars).rev() {
        let p = 31 - rest.leading_zeros() as usize;
        rest ^= 1 << p;
        if p != i {
            let shift = (1 << p) - (1 << i);
            let up = tt::var(i) & !tt::var(p);
            let down = tt::var(p) & !tt::var(i);
            t = (t & !(up | down)) | ((t & up) << shift) | ((t & down) >> shift);
        }
    }
    t
}

/// Parameters controlling cut enumeration.
#[derive(Copy, Clone, Debug)]
pub struct CutParams {
    /// Maximum leaves per cut (K), at most [`MAX_CUT_SIZE`].
    pub max_leaves: usize,
    /// Maximum number of non-trivial cuts stored per node.
    pub max_cuts: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        CutParams {
            max_leaves: 4,
            max_cuts: 8,
        }
    }
}

impl CutParams {
    /// The configuration used for adder extraction (3-feasible cuts).
    pub fn for_adder_extraction() -> Self {
        CutParams {
            max_leaves: 3,
            max_cuts: 10,
        }
    }
}

/// Per-node cut sets: one arena that [`CutSets::fill`] refills in place.
#[derive(Clone, Debug, Default)]
pub struct CutSets {
    cuts: Vec<Cut>,
    /// Node `n` owns `cuts[start[n]..start[n + 1]]`.
    start: Vec<usize>,
    /// The distinct merged leaf sets of the node being filled, in rank
    /// order.
    merged: Vec<Cut>,
}

impl CutSets {
    /// The cuts of node `n` (trivial cut included, last).
    pub fn of(&self, n: NodeId) -> &[Cut] {
        &self.cuts[self.start[n.index()]..self.start[n.index() + 1]]
    }

    /// Total number of stored cuts (diagnostic).
    pub fn total(&self) -> usize {
        self.cuts.len()
    }

    /// Enumerates the K-feasible cuts of every node of `aig` into this
    /// arena, replacing what it held; allocation-free once the arena has
    /// held a network of this size.
    ///
    /// The constant node gets a single empty cut; inputs get their trivial
    /// cut; AND nodes get the pairwise merges of their fanin cuts
    /// (deduplicated, subsumption-filtered, capped at `max_cuts` preferring
    /// fewer leaves) plus their own trivial cut.
    ///
    /// # Panics
    ///
    /// Panics if `params.max_leaves` exceeds [`MAX_CUT_SIZE`] or is zero.
    pub fn fill(&mut self, aig: &Aig, params: &CutParams) {
        assert!(params.max_leaves >= 1 && params.max_leaves <= MAX_CUT_SIZE);
        let CutSets {
            cuts,
            start,
            merged,
        } = self;
        cuts.clear();
        start.clear();
        start.reserve(aig.num_nodes() + 1);
        for n in aig.node_ids() {
            start.push(cuts.len());
            match aig.kind(n) {
                crate::NodeKind::Const0 => cuts.push(Cut::constant(0)),
                crate::NodeKind::Input => cuts.push(Cut::trivial(n)),
                crate::NodeKind::And => {
                    let (f0, f1) = aig.fanins(n);
                    let of = |f: Lit| start[f.var().index()]..start[f.var().index() + 1];
                    merge_cut_sets(
                        &cuts[of(f0)],
                        &cuts[of(f1)],
                        [f0, f1],
                        params.max_leaves,
                        merged,
                    );
                    // Prefer small cuts, drop subsumed ones.
                    let first = cuts.len();
                    for c in merged.iter() {
                        if cuts.len() - first >= params.max_cuts {
                            break;
                        }
                        if !cuts[first..].iter().any(|p| p.subsumes(c)) {
                            cuts.push(*c);
                        }
                    }
                    cuts.push(Cut::trivial(n));
                }
            }
        }
        start.push(cuts.len());
    }
}

/// Fills `merged` with the distinct K-feasible unions of one cut of each
/// fanin, in rank order, each with the table of the AND of the two fanin
/// literals. Of several pairs with the same union the first (fanin-0 cut
/// outermost) provides the table.
fn merge_cut_sets(cuts0: &[Cut], cuts1: &[Cut], fanins: [Lit; 2], k: usize, merged: &mut Vec<Cut>) {
    merged.clear();
    for c0 in cuts0 {
        for c1 in cuts1 {
            if (c0.sig | c1.sig).count_ones() as usize > k {
                continue;
            }
            let Some((mut cut, masks)) = merge_leaves(c0, c1, k) else {
                continue;
            };
            let Err(at) = merged.binary_search_by(|m| m.rank().cmp(&cut.rank())) else {
                continue;
            };
            let mut table = u64::MAX;
            for ((side, f), positions) in [c0, c1].into_iter().zip(fanins).zip(masks) {
                let t = stretch(side.tt, side.len(), positions);
                table &= if f.is_complement() { !t } else { t };
            }
            cut.tt = table & tt::mask(cut.len());
            merged.insert(at, cut);
        }
    }
}

/// Enumerates K-feasible cuts with truth tables for every node into a fresh
/// arena; see [`CutSets::fill`].
///
/// # Panics
///
/// Panics if `params.max_leaves` exceeds [`MAX_CUT_SIZE`] or is zero.
pub fn enumerate_cuts(aig: &Aig, params: &CutParams) -> CutSets {
    let mut sets = CutSets::default();
    sets.fill(aig, params);
    sets
}

/// Computes the truth table of `root` over an explicit ordered leaf set by
/// propagating variable tables through the cone.
///
/// Returns `None` if the cone of `root` reaches a primary input that is not
/// among `leaves` (the leaf set is not a cut), or if `leaves` has more than
/// [`tt::MAX_VARS`] entries. Nodes listed in `leaves` are treated as opaque
/// variables even if they are AND gates. The constant node evaluates to 0.
pub fn cone_function(aig: &Aig, root: Lit, leaves: &[NodeId]) -> Option<u64> {
    if leaves.len() > tt::MAX_VARS {
        return None;
    }
    let k = leaves.len();
    let mut memo: std::collections::HashMap<u32, u64, crate::hasher::FxBuildHasher> =
        Default::default();
    for (i, &l) in leaves.iter().enumerate() {
        memo.insert(l.as_u32(), tt::var(i) & tt::mask(k));
    }
    memo.entry(0).or_insert(0);
    // Iterative post-order evaluation.
    let mut stack = vec![root.var()];
    while let Some(&n) = stack.last() {
        if memo.contains_key(&n.as_u32()) {
            stack.pop();
            continue;
        }
        if !aig.is_and(n) {
            return None; // hit a PI outside the leaf set
        }
        let (f0, f1) = aig.fanins(n);
        let m0 = memo.get(&f0.var().as_u32()).copied();
        let m1 = memo.get(&f1.var().as_u32()).copied();
        match (m0, m1) {
            (Some(t0), Some(t1)) => {
                stack.pop();
                let t0 = if f0.is_complement() {
                    !t0 & tt::mask(k)
                } else {
                    t0
                };
                let t1 = if f1.is_complement() {
                    !t1 & tt::mask(k)
                } else {
                    t1
                };
                memo.insert(n.as_u32(), t0 & t1);
            }
            _ => {
                if m0.is_none() {
                    stack.push(f0.var());
                }
                if m1.is_none() {
                    stack.push(f1.var());
                }
            }
        }
    }
    let t = memo[&root.var().as_u32()];
    Some(if root.is_complement() {
        !t & tt::mask(k)
    } else {
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_has_xor_cut() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a.lit(), b.lit());
        aig.add_output(x);
        let cuts = enumerate_cuts(&aig, &CutParams::for_adder_extraction());
        let root_cuts = cuts.of(x.var());
        let found = root_cuts.iter().any(|c| {
            c.leaves() == [a.as_u32(), b.as_u32()]
                && (if x.is_complement() {
                    !c.tt & tt::mask(2)
                } else {
                    c.tt
                }) == tt::XOR2
        });
        assert!(found, "XOR2 cut not found: {root_cuts:?}");
    }

    #[test]
    fn full_adder_has_xor3_and_maj3_cuts() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        let cuts = enumerate_cuts(&aig, &CutParams::for_adder_extraction());
        let leaf_ids: Vec<u32> = ins.iter().map(|l| l.var().as_u32()).collect();

        let sum_tt = cuts
            .of(s.var())
            .iter()
            .find(|cut| cut.leaves() == leaf_ids)
            .map(|cut| {
                if s.is_complement() {
                    !cut.tt & tt::mask(3)
                } else {
                    cut.tt
                }
            });
        assert_eq!(sum_tt, Some(tt::XOR3));

        let carry_tt = cuts
            .of(c.var())
            .iter()
            .find(|cut| cut.leaves() == leaf_ids)
            .map(|cut| {
                if c.is_complement() {
                    !cut.tt & tt::mask(3)
                } else {
                    cut.tt
                }
            });
        assert_eq!(carry_tt, Some(tt::MAJ3));
    }

    #[test]
    fn trivial_cut_present() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a.lit(), b.lit());
        let cuts = enumerate_cuts(&aig, &CutParams::default());
        assert!(cuts.of(x.var()).iter().any(|c| c.is_trivial_of(x.var())));
        assert!(cuts.of(a).iter().any(|c| c.is_trivial_of(a)));
    }

    #[test]
    fn subsumption_filters() {
        let a = Cut::trivial(NodeId::new(5));
        let mut big = Cut::trivial(NodeId::new(5));
        big.leaves[1] = 9;
        big.len = 2;
        big.sig |= 1 << 9;
        assert!(a.subsumes(&big));
        assert!(!big.subsumes(&a));
        assert!(a.subsumes(&a));
    }

    #[test]
    fn cone_function_matches_cut_enumeration() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, _) = aig.full_adder(ins[0], ins[1], ins[2]);
        let leaves: Vec<NodeId> = ins.iter().map(|l| l.var()).collect();
        let f = cone_function(&aig, s, &leaves).expect("cut");
        assert_eq!(f, tt::XOR3);
        // complemented root complements the function
        let g = cone_function(&aig, !s, &leaves).expect("cut");
        assert_eq!(g, !tt::XOR3 & tt::mask(3));
    }

    #[test]
    fn cone_function_rejects_non_cut() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a.lit(), b.lit());
        // b is missing from the leaf set
        assert_eq!(cone_function(&aig, x, &[a]), None);
    }

    #[test]
    fn constant_cone() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        assert_eq!(cone_function(&aig, Lit::FALSE, &[a]), Some(0));
        assert_eq!(cone_function(&aig, Lit::TRUE, &[a]), Some(tt::mask(1)));
    }

    #[test]
    fn cut_count_bounded() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(8);
        let x = aig.xor_multi(&ins);
        aig.add_output(x);
        let params = CutParams {
            max_leaves: 4,
            max_cuts: 6,
        };
        let cuts = enumerate_cuts(&aig, &params);
        for n in aig.node_ids() {
            assert!(cuts.of(n).len() <= params.max_cuts + 1);
            for c in cuts.of(n) {
                assert!(c.len() <= params.max_leaves);
            }
        }
    }
}
