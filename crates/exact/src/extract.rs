//! Pairing of detected XOR/MAJ candidates into full/half adders — the
//! reproduction of ABC's `&atree` adder-tree extraction (Yu et al.,
//! TCAD'17), which is both the paper's ground-truth provider and its exact
//! baseline.
//!
//! [`Pairing`] walks the sorted runs of a [`Candidates`] index: one run per
//! leaf set, its sums then its carries. A caller-supplied filter decides
//! which candidates take part, so the exact tree (everything) and the tree
//! a model predicts (the nodes it marked) come from the same pass over the
//! same index. All working memory — the `used`/`covered` masks, the
//! traversal stamps and the per-run ranking of carries — lives in the
//! `Pairing` and is reused from call to call.
//!
//! Where several carries are eligible for one leaf set they are ranked
//! once, when the first sum needs a choice, and the ranking is updated as
//! partners are consumed; picking a partner never re-derives the cones of
//! the other candidates, so a run costs its cones plus a logarithm per
//! update however many candidates share the leaf set.

use crate::detect::{Candidates, Role, Slot};
use gamora_aig::{Aig, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Whether an extracted adder is a full (3-input) or half (2-input) slice.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExtractedKind {
    /// XOR3 + MAJ3 pair.
    Full,
    /// XOR2 + AND2/OR2 pair.
    Half,
}

/// An adder bitslice recovered from the netlist.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ExtractedAdder {
    /// Full or half adder.
    pub kind: ExtractedKind,
    /// The sum root (XOR-class node).
    pub sum: NodeId,
    /// The carry root (MAJ/AND-class node).
    pub carry: NodeId,
    /// Sorted input leaves; `leaves[2]` is `u32::MAX` for half adders.
    pub leaves: [u32; 3],
}

impl ExtractedAdder {
    /// The active leaf slice (2 entries for half adders, 3 for full).
    pub fn leaf_slice(&self) -> &[u32] {
        match self.kind {
            ExtractedKind::Full => &self.leaves,
            ExtractedKind::Half => &self.leaves[..2],
        }
    }
}

/// What the ranking of one run knows about a node; stale unless `run` is
/// the current run.
#[derive(Copy, Clone, Default, Debug)]
struct Ranked {
    run: u32,
    /// An eligible carry of the run.
    eligible: bool,
    /// The rank an eligible carry currently has (the heap it is live in).
    rank: u8,
    /// How many eligible carries have this node inside their cone.
    cones: u32,
    /// Fanout edges of this node into eligible carries and their cones.
    inside: u32,
    /// Fanout edges into the sum being served and its cone, counted only
    /// while that sum picks and only where `inside` does not already.
    to_sum: u32,
}

/// Number of ranks: outermost-and-escaping, outermost, escaping, neither.
const RANKS: usize = 4;

/// The adder-pairing pass and its reusable working memory.
#[derive(Clone, Debug, Default)]
pub struct Pairing {
    used: Vec<bool>,
    covered: Vec<bool>,
    /// `seen[n] == epoch`: the current traversal has visited `n`.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    /// Result of the last [`Pairing::interior`].
    cone: Vec<u32>,
    ranked: Vec<Ranked>,
    run: u32,
    /// Eligible carries by rank, smallest node on top; entries whose node
    /// has since left or changed rank are dropped when they surface.
    ranks: [BinaryHeap<Reverse<u32>>; RANKS],
    members: Vec<u32>,
    touched: Vec<u32>,
    aside: Vec<(usize, u32)>,
}

impl Pairing {
    /// Pairs XOR and MAJ/AND candidates with identical leaf sets into
    /// adders, using only the candidates `keep` admits in the given role,
    /// and leaves them in `adders` sorted by (sum, carry).
    ///
    /// The pass structure mirrors ABC's extraction:
    ///
    /// 1. **Full adders first**: every XOR3-class root is matched to a
    ///    MAJ3-class node over the same three leaves.
    /// 2. The *interior* nodes of accepted full adders (strictly between
    ///    roots and leaves) are marked covered, so the XOR2/AND2
    ///    sub-functions that necessarily exist inside every FA cannot spawn
    ///    spurious half adders.
    /// 3. **Half adders second**: remaining XOR2 roots are matched to
    ///    unused, uncovered AND2-class nodes over the same two leaves.
    ///
    /// When several carry candidates share a leaf set (an XOR's internal
    /// legs are themselves 2-literal products, and structural hashing can
    /// even merge the true carry *with* a leg), the partner is chosen by
    /// structural role: prefer candidates that are **maximal** (not interior
    /// to another candidate's cone) and that **escape** the sum cone (have a
    /// fanout used outside the pair) — that is the node whose value the
    /// surrounding logic actually consumes as a carry. The result is
    /// deterministic.
    pub fn pair(
        &mut self,
        aig: &Aig,
        cands: &Candidates,
        keep: impl Fn(NodeId, Role) -> bool,
        adders: &mut Vec<ExtractedAdder>,
    ) {
        let n = aig.num_nodes();
        adders.clear();
        for mask in [&mut self.used, &mut self.covered] {
            mask.clear();
            mask.resize(n, false);
        }
        self.seen.clear();
        self.seen.resize(n, 0);
        self.epoch = 0;
        self.run = 0;
        // Slots sort every 3-leaf run before any 2-leaf run: one walk is
        // the full-adder pass followed by the half-adder pass.
        let mut rest = &cands.slots[..];
        while let Some(first) = rest.first() {
            let len = rest
                .iter()
                .position(|s| (s.half, s.leaves) != (first.half, first.leaves))
                .unwrap_or(rest.len());
            let (run, tail) = rest.split_at(len);
            let (sums, carries) = run.split_at(run.partition_point(|s| s.role == Role::Sum));
            self.pair_run(aig, &cands.refs, sums, carries, &keep, adders);
            rest = tail;
        }
        adders.sort_unstable_by_key(|a| (a.sum, a.carry));
    }

    /// Pairs the sums of one leaf set, in node order, with its carries.
    fn pair_run(
        &mut self,
        aig: &Aig,
        refs: &[u32],
        sums: &[Slot],
        carries: &[Slot],
        keep: &impl Fn(NodeId, Role) -> bool,
        adders: &mut Vec<ExtractedAdder>,
    ) {
        let (Some(first), false) = (sums.first(), carries.is_empty()) else {
            return;
        };
        let half = first.half;
        let leaves = &first.leaves[..if half { 2 } else { 3 }];
        let blocked = |this: &Self, c: u32, role: Role| {
            this.used[c as usize]
                || (half && this.covered[c as usize])
                || !keep(NodeId::new(c), role)
        };
        let mut left = carries
            .iter()
            .filter(|c| !blocked(self, c.node, Role::Carry))
            .count();
        let mut ranking = false;
        for x in sums.iter().map(|s| s.node) {
            if left == 0 {
                break;
            }
            if blocked(self, x, Role::Sum) {
                continue;
            }
            // A sum never partners itself.
            let x_eligible = carries.binary_search_by_key(&x, |c| c.node).is_ok()
                && !blocked(self, x, Role::Carry);
            let others = left - x_eligible as usize;
            let partner = match others {
                0 => continue,
                1 => carries
                    .iter()
                    .map(|c| c.node)
                    .find(|&c| c != x && !blocked(self, c, Role::Carry))
                    .expect("one eligible carry is left"),
                _ => {
                    if !ranking {
                        ranking = true;
                        self.members.clear();
                        for c in carries {
                            if !blocked(self, c.node, Role::Carry) {
                                self.members.push(c.node);
                            }
                        }
                        self.rank_members(aig, refs, leaves);
                    }
                    if x_eligible {
                        // About to be used as a sum.
                        self.retire(aig, refs, leaves, x);
                    }
                    let best = self.choose_partner(aig, refs, leaves, x);
                    self.retire(aig, refs, leaves, best);
                    best
                }
            };
            self.used[x as usize] = true;
            self.used[partner as usize] = true;
            left = others - 1;
            let (kind, third) = if half {
                (ExtractedKind::Half, u32::MAX)
            } else {
                (ExtractedKind::Full, leaves[2])
            };
            adders.push(ExtractedAdder {
                kind,
                sum: NodeId::new(x),
                carry: NodeId::new(partner),
                leaves: [leaves[0], leaves[1], third],
            });
            if !half {
                for root in [x, partner] {
                    self.interior(aig, root, leaves);
                    for &v in &self.cone {
                        self.covered[v as usize] = true;
                    }
                }
            }
        }
    }

    /// Collects into `self.cone` the nodes strictly between `root` and
    /// `leaves` (root and leaves themselves excluded).
    fn interior(&mut self, aig: &Aig, root: u32, leaves: &[u32]) {
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.cone.clear();
        for &l in leaves {
            self.seen[l as usize] = self.epoch;
        }
        if self.seen[root as usize] == self.epoch {
            return;
        }
        self.seen[root as usize] = self.epoch;
        self.stack.clear();
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            if n != root {
                if self.seen[n as usize] == self.epoch {
                    continue;
                }
                self.seen[n as usize] = self.epoch;
                self.cone.push(n);
            }
            if aig.is_and(NodeId::new(n)) {
                let (f0, f1) = aig.fanins(NodeId::new(n));
                self.stack.push(f0.var().as_u32());
                self.stack.push(f1.var().as_u32());
            }
        }
    }

    /// The ranking record of `node` in the current run.
    fn at(&mut self, node: u32) -> &mut Ranked {
        let record = &mut self.ranked[node as usize];
        if record.run != self.run {
            *record = Ranked {
                run: self.run,
                ..Ranked::default()
            };
        }
        record
    }

    /// Starts ranking `self.members`, the eligible carries of a run.
    ///
    /// A carry ranks by (1) not being interior to another eligible carry's
    /// cone (outermost), (2) escaping — some fanout lies outside the sum
    /// cone and outside every candidate cone, i.e. the surrounding logic
    /// consumes it, (3) smallest node id for determinism. (1) and (2) are
    /// kept as counts per node — cones it is inside, fanout edges that stay
    /// inside — so that retiring a carry is a walk over its own cone.
    fn rank_members(&mut self, aig: &Aig, refs: &[u32], leaves: &[u32]) {
        if self.run == 0 || self.run == u32::MAX {
            self.ranked.clear();
            self.ranked.resize(aig.num_nodes(), Ranked::default());
            self.run = 0;
        }
        self.run += 1;
        for heap in &mut self.ranks {
            heap.clear();
        }
        let members = std::mem::take(&mut self.members);
        for &c in &members {
            self.at(c).eligible = true;
            self.count_fanins(aig, refs, c, true);
        }
        for &c in &members {
            self.interior(aig, c, leaves);
            for i in 0..self.cone.len() {
                let v = self.cone[i];
                let record = self.at(v);
                record.cones += 1;
                if record.cones == 1 && !record.eligible {
                    self.count_fanins(aig, refs, v, true);
                }
            }
        }
        for &c in &members {
            // `rerank` only files a changed rank; none is filed yet.
            self.at(c).rank = RANKS as u8;
            self.rerank(refs, c);
        }
        self.members = members;
    }

    /// Adds (`entering`) or removes the fanin edges of `node` from its
    /// fanins' `inside` counts, as `node` joins or leaves the eligible
    /// carries and their cones.
    fn count_fanins(&mut self, aig: &Aig, refs: &[u32], node: u32, entering: bool) {
        if !aig.is_and(NodeId::new(node)) {
            return;
        }
        let (f0, f1) = aig.fanins(NodeId::new(node));
        for f in [f0.var().as_u32(), f1.var().as_u32()] {
            let record = self.at(f);
            if entering {
                record.inside += 1;
            } else {
                record.inside -= 1;
                if record.eligible {
                    self.rerank(refs, f);
                }
            }
        }
    }

    /// Files eligible carry `c` under its current rank if that changed.
    /// Ranks only improve while a run is paired (carries only leave), so a
    /// node is filed at most once per rank.
    fn rerank(&mut self, refs: &[u32], c: u32) {
        let record = self.at(c);
        let rank = 2 * (record.cones > 0) as u8 + (refs[c as usize] == record.inside) as u8;
        if rank != record.rank {
            record.rank = rank;
            self.ranks[rank as usize].push(Reverse(c));
        }
    }

    /// Removes carry `m` from the eligible set of the run being ranked.
    fn retire(&mut self, aig: &Aig, refs: &[u32], leaves: &[u32], m: u32) {
        let record = self.at(m);
        record.eligible = false;
        if record.cones == 0 {
            self.count_fanins(aig, refs, m, false);
        }
        self.interior(aig, m, leaves);
        for i in 0..self.cone.len() {
            let v = self.cone[i];
            let record = self.at(v);
            record.cones -= 1;
            if record.cones == 0 {
                if record.eligible {
                    self.rerank(refs, v);
                } else {
                    self.count_fanins(aig, refs, v, false);
                }
            }
        }
    }

    /// The best-ranked eligible carry for sum `x` (which is not eligible
    /// itself): fanout edges into `x` and its cone do not count as escaping.
    fn choose_partner(&mut self, aig: &Aig, refs: &[u32], leaves: &[u32], x: u32) -> u32 {
        // Carries feeding the sum cone are ranked here, for this sum only.
        self.interior(aig, x, leaves);
        self.touched.clear();
        for i in 0..=self.cone.len() {
            let t = if i == 0 { x } else { self.cone[i - 1] };
            let record = self.at(t);
            if record.eligible || record.cones > 0 || !aig.is_and(NodeId::new(t)) {
                continue;
            }
            let (f0, f1) = aig.fanins(NodeId::new(t));
            for f in [f0.var().as_u32(), f1.var().as_u32()] {
                let record = self.at(f);
                if record.eligible {
                    record.to_sum += 1;
                    if record.to_sum == 1 {
                        self.touched.push(f);
                    }
                }
            }
        }
        let mut best: Option<(usize, u32)> = None;
        'ranks: for rank in 0..RANKS {
            while let Some(&Reverse(c)) = self.ranks[rank].peek() {
                let record = *self.at(c);
                if record.eligible && record.rank as usize == rank {
                    if record.to_sum == 0 {
                        best = Some((rank, c));
                        break 'ranks;
                    }
                    self.aside.push((rank, c));
                }
                self.ranks[rank].pop();
            }
        }
        for i in 0..self.touched.len() {
            let f = self.touched[i];
            let record = self.at(f);
            let stays_inside = refs[f as usize] == record.inside + record.to_sum;
            let rank = 2 * (record.cones > 0) as usize + stays_inside as usize;
            record.to_sum = 0;
            if best.is_none_or(|b| (rank, f) < b) {
                best = Some((rank, f));
            }
        }
        for (rank, c) in self.aside.drain(..) {
            self.ranks[rank].push(Reverse(c));
        }
        best.expect("two or more carries are eligible").1
    }
}

/// Pairs every candidate: the exact adder tree. See [`Pairing::pair`].
pub fn extract_adders(aig: &Aig, cands: &Candidates) -> Vec<ExtractedAdder> {
    let mut adders = Vec::new();
    Pairing::default().pair(aig, cands, |_, _| true, &mut adders);
    adders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect;

    #[test]
    fn extracts_single_full_adder() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        let cands = detect(&aig);
        let adders = extract_adders(&aig, &cands);
        assert_eq!(adders.len(), 1, "{adders:?}");
        let a = adders[0];
        assert_eq!(a.kind, ExtractedKind::Full);
        assert_eq!(a.sum, s.var());
        assert_eq!(a.carry, c.var());
    }

    #[test]
    fn extracts_single_half_adder() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let (s, c) = aig.half_adder(a, b);
        aig.add_output(s);
        aig.add_output(c);
        let cands = detect(&aig);
        let adders = extract_adders(&aig, &cands);
        assert_eq!(adders.len(), 1, "{adders:?}");
        assert_eq!(adders[0].kind, ExtractedKind::Half);
        assert_eq!(adders[0].sum, s.var());
        assert_eq!(adders[0].carry, c.var());
    }

    #[test]
    fn fa_interior_does_not_spawn_half_adders() {
        // A lone full adder contains an (XOR2, AND2) pair over (a, b)
        // inside its cones; the covered mask must suppress it.
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        let cands = detect(&aig);
        let adders = extract_adders(&aig, &cands);
        assert_eq!(
            adders
                .iter()
                .filter(|a| a.kind == ExtractedKind::Half)
                .count(),
            0
        );
    }

    #[test]
    fn shared_xor_serves_one_adder_only() {
        // Two MAJ gates over the same inputs but only one XOR3: only one FA.
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        // A second, structurally distinct MAJ over the same inputs.
        let t0 = aig.and(ins[0], ins[1]);
        let t1 = aig.and(ins[0], ins[2]);
        let t2 = aig.and(ins[1], ins[2]);
        let o1 = aig.or(t0, t1);
        let c2 = aig.or(o1, t2);
        aig.add_output(s);
        aig.add_output(c);
        aig.add_output(c2);
        let cands = detect(&aig);
        let adders = extract_adders(&aig, &cands);
        assert_eq!(
            adders
                .iter()
                .filter(|a| a.kind == ExtractedKind::Full)
                .count(),
            1
        );
    }

    #[test]
    fn no_adders_in_random_and_tree() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(8);
        let root = aig.and_multi(&ins);
        aig.add_output(root);
        let cands = detect(&aig);
        assert!(extract_adders(&aig, &cands).is_empty());
    }
}
