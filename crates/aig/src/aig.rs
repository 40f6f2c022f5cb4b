//! The And-Inverter Graph data structure.
//!
//! An [`Aig`] is a vector of nodes in topological order: node 0 is the
//! constant false, primary inputs have no fanins, and every other node is a
//! two-input AND whose fanin literals may carry inverters. Structural hashing
//! (strashing) and constant folding are applied on construction, so building
//! the same function twice yields the same node.

use crate::hasher::FxHashMap;
use crate::{Lit, NodeId};
use std::fmt;

/// Classification of a node inside an [`Aig`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// The constant-false node (always node 0).
    Const0,
    /// A primary input.
    Input,
    /// A two-input AND gate.
    And,
}

#[derive(Copy, Clone, Debug)]
pub(crate) struct AigNode {
    f0: Lit,
    f1: Lit,
}

impl AigNode {
    const fn leaf() -> Self {
        AigNode {
            f0: Lit::INVALID,
            f1: Lit::INVALID,
        }
    }

    /// Both fanin literals as one word, in memory order (a leaf reads as
    /// two invalid literals) — what the identity digest streams.
    #[inline]
    pub(crate) fn word(self) -> u64 {
        self.f0.raw() as u64 | (self.f1.raw() as u64) << 32
    }
}

/// Summary statistics of an AIG, as printed by `Display`.
///
/// ```
/// use gamora_aig::Aig;
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.and(a.lit(), b.lit());
/// aig.add_output(f);
/// let s = aig.stats();
/// assert_eq!((s.inputs, s.ands, s.outputs, s.levels), (2, 1, 1, 1));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct AigStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of AND nodes.
    pub ands: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of fanin edges (twice the AND count).
    pub edges: usize,
    /// Depth of the deepest output cone.
    pub levels: usize,
}

impl fmt::Display for AigStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "i/o = {}/{}  and = {}  edge = {}  lev = {}",
            self.inputs, self.outputs, self.ands, self.edges, self.levels
        )
    }
}

/// A structurally hashed And-Inverter Graph.
///
/// ```
/// use gamora_aig::Aig;
/// let mut aig = Aig::new();
/// let a = aig.add_input().lit();
/// let b = aig.add_input().lit();
/// let x = aig.xor(a, b);
/// let x2 = aig.xor(a, b);
/// assert_eq!(x, x2); // structural hashing deduplicates
/// aig.add_output(x);
/// assert_eq!(aig.num_ands(), 3); // two AND legs plus the output OR
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<AigNode>,
    inputs: Vec<NodeId>,
    outputs: Vec<Lit>,
    strash: FxHashMap<(u32, u32), u32>,
    name: String,
}

impl Aig {
    /// Creates an empty AIG containing only the constant-false node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::leaf()],
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: FxHashMap::default(),
            name: String::new(),
        }
    }

    /// Creates an empty AIG with capacity for roughly `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut aig = Aig::new();
        aig.nodes.reserve(n);
        aig.strash.reserve(n);
        aig
    }

    /// Creates an empty AIG with room for `inputs` inputs and `ands` AND
    /// nodes (the AIGER reader knows both; inputs never enter the strash
    /// table).
    pub(crate) fn with_shape(inputs: usize, ands: usize) -> Self {
        let mut aig = Aig::new();
        aig.nodes.reserve(inputs + ands);
        aig.inputs.reserve(inputs);
        aig.strash.reserve(ands);
        aig
    }

    /// Sets a human-readable design name (kept by AIGER I/O).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The design name, empty if unset.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Appends a fresh primary input and returns its node id.
    pub fn add_input(&mut self) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(AigNode::leaf());
        self.inputs.push(id);
        id
    }

    /// Appends `n` fresh primary inputs, returning their positive literals.
    pub fn add_inputs(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.add_input().lit()).collect()
    }

    /// Marks `lit` as a primary output.
    pub fn add_output(&mut self, lit: Lit) {
        debug_assert!(lit.var().index() < self.nodes.len());
        self.outputs.push(lit);
    }

    /// Returns the AND of two literals, with constant folding and strashing.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either literal refers to a node that does
    /// not exist yet (construction must be topological).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        debug_assert!(a.var().index() < self.nodes.len(), "fanin {a} out of range");
        debug_assert!(b.var().index() < self.nodes.len(), "fanin {b} out of range");
        // Normalise operand order so strashing is symmetric.
        let (a, b) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        // Constant folding and trivial cases.
        if a == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE || a == b {
            return b;
        }
        let key = (a.raw(), b.raw());
        if let Some(&id) = self.strash.get(&key) {
            return NodeId::new(id).lit();
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode { f0: a, f1: b });
        self.strash.insert(key, id);
        NodeId::new(id).lit()
    }

    /// Returns the OR of two literals (De Morgan on [`Aig::and`]).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Returns the NAND of two literals.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, b)
    }

    /// Returns the NOR of two literals.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(!a, !b)
    }

    /// Returns the XOR of two literals as `(a & !b) | (!a & b)`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// Returns the three-input XOR `a ^ b ^ c`.
    pub fn xor3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.xor(a, b);
        self.xor(ab, c)
    }

    /// Returns the majority function `ab + ac + bc` (full-adder carry).
    pub fn maj3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let aob = self.or(a, b);
        let cab = self.and(c, aob);
        self.or(ab, cab)
    }

    /// Returns the if-then-else `s ? t : e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let st = self.and(s, t);
        let se = self.and(!s, e);
        self.or(st, se)
    }

    /// Balanced AND over a list of literals; the empty list yields true.
    pub fn and_multi(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Self::and)
    }

    /// Balanced XOR over a list of literals; the empty list yields false.
    pub fn xor_multi(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        mut op: impl FnMut(&mut Self, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits {
            [] => empty,
            [l] => *l,
            _ => {
                let mut layer = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(match pair {
                            [x, y] => op(self, *x, *y),
                            [x] => *x,
                            _ => unreachable!(),
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// A half adder: returns `(sum, carry)` = `(a ^ b, a & b)`.
    pub fn half_adder(&mut self, a: Lit, b: Lit) -> (Lit, Lit) {
        (self.xor(a, b), self.and(a, b))
    }

    /// A full adder bitslice: returns `(sum, carry)` =
    /// `(a ^ b ^ c, MAJ3(a, b, c))`.
    pub fn full_adder(&mut self, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
        (self.xor3(a, b, c), self.maj3(a, b, c))
    }

    /// Appends an AND node without folding; fanins must be normalised
    /// (`a.raw() <= b.raw()`). Used by the AIGER reader to preserve
    /// structure exactly; registers the strash key only if free.
    pub(crate) fn push_node_raw(&mut self, a: Lit, b: Lit) {
        debug_assert!(a.raw() <= b.raw());
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode { f0: a, f1: b });
        self.strash.entry((a.raw(), b.raw())).or_insert(id);
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The node array itself, in node order.
    pub(crate) fn nodes(&self) -> &[AigNode] {
        &self.nodes
    }

    /// Total number of nodes, including the constant and the inputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The primary inputs in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The primary output literals in creation order.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Replaces output `i` with a new literal.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_output(&mut self, i: usize, lit: Lit) {
        self.outputs[i] = lit;
    }

    /// The kind of node `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        if n == NodeId::CONST0 {
            NodeKind::Const0
        } else if self.nodes[n.index()].f0.is_valid() {
            NodeKind::And
        } else {
            NodeKind::Input
        }
    }

    /// Whether node `n` is an AND gate.
    pub fn is_and(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::And
    }

    /// Both fanin literals of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an AND node.
    pub fn fanins(&self, n: NodeId) -> (Lit, Lit) {
        let node = &self.nodes[n.index()];
        assert!(node.f0.is_valid(), "{n} is not an AND node");
        (node.f0, node.f1)
    }

    /// Iterates over all node ids in topological order (constant first).
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates over the ids of AND nodes in topological order.
    pub fn and_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.is_and(n))
    }

    // ------------------------------------------------------------------
    // Derived structure
    // ------------------------------------------------------------------

    /// Logic level of every node (inputs and the constant are level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for n in self.node_ids() {
            if self.is_and(n) {
                let (f0, f1) = self.fanins(n);
                level[n.index()] = 1 + level[f0.var().index()].max(level[f1.var().index()]);
            }
        }
        level
    }

    /// Number of internal fanout edges per node (output pins not counted).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for n in self.and_ids() {
            let (f0, f1) = self.fanins(n);
            counts[f0.var().index()] += 1;
            counts[f1.var().index()] += 1;
        }
        counts
    }

    /// Fanout adjacency in CSR form: `(offsets, targets)` where the fanouts
    /// of node `n` are `targets[offsets[n]..offsets[n + 1]]`.
    pub fn fanouts(&self) -> (Vec<u32>, Vec<NodeId>) {
        let counts = self.fanout_counts();
        let mut offsets = vec![0u32; self.nodes.len() + 1];
        for (i, &c) in counts.iter().enumerate() {
            offsets[i + 1] = offsets[i] + c;
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId::CONST0; offsets[self.nodes.len()] as usize];
        for n in self.and_ids() {
            let (f0, f1) = self.fanins(n);
            for f in [f0, f1] {
                let slot = &mut cursor[f.var().index()];
                targets[*slot as usize] = n;
                *slot += 1;
            }
        }
        (offsets, targets)
    }

    /// Streams all fanin edges as `(source, target)` node pairs (two per
    /// AND, in topological order) without materialising a list — the
    /// zero-copy feed for CSR graph assembly.
    pub fn for_each_edge(&self, mut f: impl FnMut(NodeId, NodeId)) {
        for n in self.and_ids() {
            let (f0, f1) = self.fanins(n);
            f(f0.var(), n);
            f(f1.var(), n);
        }
    }

    /// All fanin edges as `(source, target)` node pairs (two per AND).
    ///
    /// Allocates; hot paths should stream via [`Aig::for_each_edge`].
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(2 * self.num_ands());
        self.for_each_edge(|s, d| edges.push((s, d)));
        edges
    }

    /// Summary statistics (node counts and depth).
    pub fn stats(&self) -> AigStats {
        let levels = self.levels();
        let depth = self
            .outputs
            .iter()
            .map(|l| levels[l.var().index()] as usize)
            .max()
            .unwrap_or(0);
        AigStats {
            inputs: self.num_inputs(),
            ands: self.num_ands(),
            outputs: self.num_outputs(),
            edges: 2 * self.num_ands(),
            levels: depth,
        }
    }

    // ------------------------------------------------------------------
    // Restructuring
    // ------------------------------------------------------------------

    /// Returns a copy containing only the logic reachable from the outputs,
    /// together with the mapping `old node id -> new literal` (identity on
    /// polarity) for every retained node.
    ///
    /// Inputs are always retained, in their original order, so that input
    /// indices keep meaning across the cleanup.
    pub fn cleanup(&self) -> (Aig, Vec<Option<Lit>>) {
        let mut reachable = vec![false; self.nodes.len()];
        reachable[0] = true;
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|l| l.var()).collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut reachable[n.index()], true) {
                continue;
            }
            if self.is_and(n) {
                let (f0, f1) = self.fanins(n);
                stack.push(f0.var());
                stack.push(f1.var());
            }
        }
        let mut out = Aig::with_capacity(self.nodes.len());
        out.set_name(self.name.clone());
        let mut map: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        map[0] = Some(Lit::FALSE);
        for &i in &self.inputs {
            map[i.index()] = Some(out.add_input().lit());
        }
        for n in self.node_ids() {
            if reachable[n.index()] && self.is_and(n) {
                let (f0, f1) = self.fanins(n);
                let a = map[f0.var().index()]
                    .expect("topo order")
                    .complement_if(f0.is_complement());
                let b = map[f1.var().index()]
                    .expect("topo order")
                    .complement_if(f1.is_complement());
                map[n.index()] = Some(out.and(a, b));
            }
        }
        for &o in &self.outputs {
            let l = map[o.var().index()].expect("output cone retained");
            out.add_output(l.complement_if(o.is_complement()));
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input_aig() -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        (aig, a, b)
    }

    #[test]
    fn constant_folding() {
        let (mut aig, a, _) = two_input_aig();
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(a, Lit::TRUE), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn strashing_is_commutative() {
        let (mut aig, a, b) = two_input_aig();
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn de_morgan_shares_nodes() {
        let (mut aig, a, b) = two_input_aig();
        let o = aig.or(a, b);
        let n = aig.nor(a, b);
        assert_eq!(o, !n);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn xor_structure() {
        let (mut aig, a, b) = two_input_aig();
        let x = aig.xor(a, b);
        assert_eq!(aig.num_ands(), 3);
        // XOR root must be an AND with both fanins complemented (OR form).
        let root = x.var();
        assert!(x.is_complement());
        let (f0, f1) = aig.fanins(root);
        assert!(f0.is_complement() && f1.is_complement());
    }

    #[test]
    fn multi_reductions() {
        let mut aig = Aig::new();
        let lits = aig.add_inputs(5);
        let all = aig.and_multi(&lits);
        assert_eq!(aig.and_multi(&[]), Lit::TRUE);
        assert_eq!(aig.and_multi(&[lits[0]]), lits[0]);
        // the reduction is balanced: depth is ceil(log2(5)) = 3
        aig.add_output(all);
        assert_eq!(aig.stats().levels, 3);
    }

    #[test]
    fn levels_and_fanouts() {
        let (mut aig, a, b) = two_input_aig();
        let x = aig.xor(a, b);
        aig.add_output(x);
        let lv = aig.levels();
        assert_eq!(lv[x.var().index()], 2);
        let counts = aig.fanout_counts();
        assert_eq!(counts[a.var().index()], 2); // feeds both XOR legs
        let (off, tgt) = aig.fanouts();
        let fo = &tgt[off[a.var().index()] as usize..off[a.var().index() + 1] as usize];
        assert_eq!(fo.len(), 2);
    }

    #[test]
    fn cleanup_drops_dangling() {
        let (mut aig, a, b) = two_input_aig();
        let _dangling = aig.and(a, b);
        let keep = aig.or(a, b);
        aig.add_output(keep);
        let (clean, map) = aig.cleanup();
        assert_eq!(clean.num_ands(), 1);
        assert_eq!(clean.num_inputs(), 2);
        assert_eq!(clean.num_outputs(), 1);
        // output literal mapped with polarity preserved
        let mapped = map[keep.var().index()]
            .unwrap()
            .complement_if(keep.is_complement());
        assert_eq!(clean.outputs()[0], mapped);
    }

    #[test]
    fn full_adder_shape() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        // 6 ANDs for xor3, 4 for maj3 (no sharing in this construction)
        assert_eq!(aig.num_ands(), 10);
        assert_ne!(s.var(), c.var());
    }

    #[test]
    fn edges_match_fanins() {
        let (mut aig, a, b) = two_input_aig();
        let x = aig.and(a, b);
        aig.add_output(x);
        let e = aig.edges();
        assert_eq!(e, vec![(a.var(), x.var()), (b.var(), x.var())]);
    }
}
