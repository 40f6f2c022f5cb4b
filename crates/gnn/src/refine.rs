//! Exact colour refinement of a group of sections: the plan the inference
//! forward runs on.
//!
//! A SAGE layer computes a node's output row from three things: the node's
//! own input row, its degree, and its neighbours' input rows summed in CSR
//! order. Nodes that agree on all three get the same floating-point
//! operations on the same operands, so their output rows are equal bit for
//! bit. Colour refinement (1-WL) tracks exactly that:
//!
//! - round 0 colours a node by the bit pattern of its feature row;
//! - round `l + 1` colours it by its *key*: its round-`l` class, its degree
//!   and its neighbours' round-`l` classes **in CSR order**.
//!
//! By induction, the nodes of one round-`l` class share one layer-`l` row,
//! so layer `l` needs one row per round-`(l + 1)` class, computed from the
//! class's representative (its first node): the self row is the
//! representative's round-`l` class row, and the neighbour mean runs over
//! the quotient adjacency — the representative's CSR row with every
//! neighbour replaced by its round-`l` class. The key keeps CSR order, not
//! the multiset of neighbour classes, so that every member of a class sums
//! the same rows in the same order as its representative.
//!
//! Each kernel thread takes a run of consecutive nodes, encodes their
//! keys and enters them, in node order, into an open-addressed table of
//! its own; the runs are then merged in order. A key that fits 127 bits —
//! a degree and class ids of the width the round needs — is encoded
//! exactly, so two such keys are equal only if the keys are; a longer key
//! (a high-degree node) is a 64-bit hash, and a hit on one is checked
//! against the class representative's key, so a hash collision splits a
//! class and never merges two. Class ids are dense in first-seen node
//! order, so a class's id is never above its representative's index, nor
//! above any member's.
//!
//! Once a round's classes reach [`IDENTITY_SHARE`] of the group's rows,
//! the later rounds are the identity partition: every node its own class,
//! through the same quotient code, with no hashing.

use crate::graph::{inverse_degree, Adjacency, Graph};
use crate::parallel;
use crate::tensor::{clear_exact, grow_within, Matrix};

/// Share of a group's rows, as `(numerator, denominator)`, at which
/// refinement stops: once a round has at least this many classes per row,
/// every later round is the identity partition, so a round that would find
/// almost nothing to share is not paid for. (The deep model on Booth-16
/// reaches 93% of the rows at round 5 and 100% at round 8.)
pub(crate) const IDENTITY_SHARE: (usize, usize) = (7, 8);

/// A node's key as the class table compares it: the key itself when it
/// fits ([`Keys`]), else [`HASHED`] and a 64-bit hash of it.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Key(u128);

/// The top bit of a [`Key`] that is a hash; an exact key leaves it clear.
const HASHED: u128 = 1 << 127;
/// Bits of an exact key below [`HASHED`].
const EXACT_BITS: u32 = 127;
/// Bits an exact key spends on the node's degree.
const DEGREE_BITS: u32 = 8;

/// A free slot of the class table; a taken one holds the class's id, and
/// the key it is compared by lives with the class, not in the table.
const EMPTY: u32 = u32::MAX;

/// How a round's keys are built and where they land in the table: the
/// production encoding ([`Keys::EXACT`]), or, for tests, a table index that
/// sends every key to one slot chain and keys that may all be hashes.
#[derive(Copy, Clone)]
struct Keys {
    /// Whether a key that fits is encoded exactly.
    exact: bool,
    /// A key's home-slot hash, whose top bits [`home`] takes.
    spread: fn(Key) -> u64,
}

impl Keys {
    const EXACT: Keys = Keys {
        exact: true,
        spread,
    };

    /// The key of `head`, `head_bits` wide, followed by `count` words,
    /// each `bits` wide: exact if they fit, else hashed. How many words
    /// follow is fixed by the head (a degree) or by the feature width, so
    /// the packing is unambiguous; a head too wide for its bits is hashed.
    #[inline(always)]
    fn of(
        self,
        (head, head_bits): (u32, u32),
        bits: u32,
        count: usize,
        words: impl Iterator<Item = u32>,
    ) -> Key {
        let width = u64::from(head_bits) + count as u64 * u64::from(bits);
        if self.exact && width <= u64::from(EXACT_BITS) && u64::from(head) >> head_bits == 0 {
            Key(words.fold(u128::from(head), |key, word| key << bits | u128::from(word)))
        } else {
            let hash = words.fold(mix(SEED, head.into()), |h, word| mix(h, word.into()));
            Key(HASHED | u128::from((self.spread)(Key(u128::from(hash)))))
        }
    }
}

/// Bits a class id of a round with `classes` classes needs.
fn id_bits(classes: usize) -> u32 {
    usize::BITS - classes.saturating_sub(1).leading_zeros()
}

/// Slots of the smallest table.
const MIN_TABLE: usize = 16;

/// Slots the table of a round with `classes` classes ends at: at most half
/// full, a power of two.
pub(crate) fn table_slots(classes: usize) -> usize {
    (2 * classes).next_power_of_two().max(MIN_TABLE)
}

/// The refinement of one group of sections and the quotient adjacency of
/// the layer it is at. Every array is reused from group to group, so a
/// warm pass allocates nothing. Only the two class arrays have a slot per
/// node; every other array holds one entry per class, and those a round
/// fills while it finds its classes grow by doubling, as the class table
/// does, up to a class per node.
#[derive(Clone, Debug, Default)]
pub(crate) struct Refinement {
    /// Class of every node of the group (group-local indices) in the round
    /// the current layer reads.
    prev: Vec<u32>,
    /// Class of every node in the round the current layer writes.
    next: Vec<u32>,
    /// One run of the nodes per kernel thread of the round; the first
    /// run's representatives are, after the merge, the representative
    /// (first node) of every class of `next`.
    runs: Vec<Run>,
    /// Whether the rounds after `next` are the identity partition.
    saturated: bool,
    /// The quotient adjacency of the current layer: a CSR row per class of
    /// `next`, that of its representative with classes of `prev` for
    /// neighbours.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    inv_deg: Vec<f32>,
    /// The `prev` class of every representative: the row a class's self
    /// term reads.
    own: Vec<u32>,
}

impl Refinement {
    /// Round 0 over the nodes `lo..hi` of `x`: one class per distinct bit
    /// pattern of a feature row.
    ///
    /// # Panics
    ///
    /// Panics if the group has `u32::MAX` nodes or more.
    pub(crate) fn features(&mut self, x: &Matrix, lo: usize, hi: usize) {
        let n = hi - lo;
        assert!(
            n < u32::MAX as usize,
            "a group of {n} rows exceeds the class ids"
        );
        for classes in [&mut self.prev, &mut self.next] {
            clear_exact(classes, n);
            classes.resize(n, 0);
        }
        let keys = Keys::EXACT;
        let key_of = |v: usize| {
            let row = x.row(lo + v);
            keys.of(
                (0, 0),
                u32::BITS,
                row.len(),
                row.iter().map(|f| f.to_bits()),
            )
        };
        let same = |v: usize, r: usize| {
            let (a, b) = (x.row(lo + v), x.row(lo + r));
            a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
        };
        let Refinement { next, runs, .. } = self;
        assign(key_of, keys.spread, same, 0, next, runs);
        self.saturated = saturated(self.classes(), n);
    }

    /// Moves on one round: the classes of the last round become those the
    /// next layer reads, the round after them is refined from them — or is
    /// the identity partition, once refinement has stopped — and the
    /// layer's quotient adjacency is built. `graph` and `lo` must be those
    /// of the preceding [`Refinement::features`].
    pub(crate) fn step(&mut self, graph: &Graph, lo: usize) {
        self.step_with(graph, lo, Keys::EXACT);
    }

    /// [`Refinement::step`] with the round's keys built by `keys`.
    fn step_with(&mut self, graph: &Graph, lo: usize, keys: Keys) {
        std::mem::swap(&mut self.prev, &mut self.next);
        let n = self.prev.len();
        let csr = graph.csr();
        let neighbors = |v: usize| {
            let (a, b) = (csr.0[lo + v], csr.0[lo + v + 1]);
            &csr.1[a as usize..b as usize]
        };
        let Refinement {
            prev, next, runs, ..
        } = self;
        let before = runs[0].reps.len();
        if self.saturated {
            for (v, class) in next.iter_mut().enumerate() {
                *class = v as u32;
            }
            let reps = &mut runs[0].reps;
            reps.clear();
            grow_within(reps, n, n);
            reps.extend(0..n as u32);
        } else {
            let class = |u: u32| prev[u as usize - lo];
            // The degree in its own bits, then the node's class and its
            // neighbours', each as wide as the last round's ids.
            let bits = id_bits(before);
            let key_of = |v: usize| {
                let around = neighbors(v);
                let head = (around.len() as u32, DEGREE_BITS);
                let words = std::iter::once(prev[v]).chain(around.iter().map(|&u| class(u)));
                keys.of(head, bits, 1 + around.len(), words)
            };
            let same = |v: usize, r: usize| {
                let (a, b) = (neighbors(v), neighbors(r));
                prev[v] == prev[r]
                    && a.len() == b.len()
                    && a.iter().zip(b).all(|(&u, &w)| class(u) == class(w))
            };
            assign(key_of, keys.spread, same, before, next, runs);
            self.saturated = saturated(self.classes(), n);
        }
        self.build_quotient(csr, lo);
    }

    /// The quotient CSR of the current layer from the representatives of
    /// `next` and the classes of `prev`, over the graph's `(offsets,
    /// neighbors)`.
    fn build_quotient(&mut self, (graph_offsets, graph_neighbors): (&[u32], &[u32]), lo: usize) {
        let Refinement {
            prev,
            runs,
            offsets,
            neighbors,
            inv_deg,
            own,
            ..
        } = self;
        let reps = &runs[0].reps;
        let classes = reps.len();
        let row = |r: u32| {
            let v = lo + r as usize;
            graph_offsets[v] as usize..graph_offsets[v + 1] as usize
        };
        clear_exact(offsets, classes + 1);
        offsets.push(0);
        let mut total = 0u32;
        for &r in reps.iter() {
            total += row(r).len() as u32;
            offsets.push(total);
        }
        clear_exact(neighbors, total as usize);
        clear_exact(inv_deg, classes);
        clear_exact(own, classes);
        for &r in reps.iter() {
            own.push(prev[r as usize]);
            let around = &graph_neighbors[row(r)];
            inv_deg.push(inverse_degree(around.len() as u32));
            neighbors.extend(around.iter().map(|&u| prev[u as usize - lo]));
        }
    }

    /// Classes of the last round refined.
    pub(crate) fn classes(&self) -> usize {
        self.reps().len()
    }

    /// The representative of every class of the last round.
    pub(crate) fn reps(&self) -> &[u32] {
        self.runs.first().map_or(&[], |run| &run.reps)
    }

    /// The class of every node of the group in the last round.
    pub(crate) fn node_classes(&self) -> &[u32] {
        &self.next
    }

    /// The current layer's quotient adjacency, and the row of the layer's
    /// input each of its rows takes its self term from.
    pub(crate) fn quotient(&self) -> (Adjacency<'_>, &[u32]) {
        let adj = Adjacency {
            offsets: &self.offsets,
            neighbors: &self.neighbors,
            inv_deg: &self.inv_deg,
        };
        (adj, &self.own)
    }
}

/// Whether `classes` of `rows` reach [`IDENTITY_SHARE`].
fn saturated(classes: usize, rows: usize) -> bool {
    classes * IDENTITY_SHARE.1 >= rows * IDENTITY_SHARE.0
}

const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One word into a running key hash.
#[inline(always)]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(27)
}

/// A key's home-slot hash: both halves multiplied in, so that the top bits
/// of the product, which [`home`] takes, depend on every bit of the key.
#[inline(always)]
fn spread(key: Key) -> u64 {
    let (low, high) = (key.0 as u64, (key.0 >> 64) as u64);
    (low ^ high.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// The home slot of a key of hash `spread` in a table of `slots` slots (a
/// power of two): the hash's top bits.
#[inline(always)]
fn home(spread: u64, slots: usize) -> usize {
    (spread >> (u64::BITS - slots.trailing_zeros())) as usize
}

/// An open-addressed class table: a power of two of slots, each a class
/// id, doubled whenever it would pass half full.
#[derive(Clone, Debug, Default)]
struct Table {
    slots: Vec<u32>,
}

impl Table {
    /// Empties the table to `slots` free slots.
    fn reset(&mut self, slots: usize) {
        clear_exact(&mut self.slots, slots);
        self.slots.resize(slots, EMPTY);
    }

    /// The class of node `v`, of key `key`, among the classes whose keys
    /// and representatives `keys` and `reps` hold: that of the first slot
    /// from the key's home slot on whose class has the key — for a hashed
    /// key, only if also `same(v, representative)` — or a new class,
    /// pushed onto both with `v` its representative.
    #[inline(always)]
    fn enter(
        &mut self,
        key: Key,
        v: usize,
        spread: fn(Key) -> u64,
        same: &impl Fn(usize, usize) -> bool,
        keys: &mut Vec<Key>,
        reps: &mut Vec<u32>,
    ) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = home(spread(key), self.slots.len());
        loop {
            let class = self.slots[i];
            if class == EMPTY {
                let class = reps.len() as u32;
                reps.push(v as u32);
                keys.push(key);
                self.slots[i] = class;
                if 2 * reps.len() > self.slots.len() {
                    self.reset(2 * self.slots.len());
                    for (class, &key) in keys.iter().enumerate() {
                        self.put(key, class as u32, spread);
                    }
                }
                return class;
            }
            let c = class as usize;
            if keys[c] == key && (key.0 & HASHED == 0 || same(v, reps[c] as usize)) {
                return class;
            }
            i = (i + 1) & mask;
        }
    }

    /// Puts a class known to be absent in the first free slot from its
    /// key's home slot on.
    fn put(&mut self, key: Key, class: u32, spread: fn(Key) -> u64) {
        let mask = self.slots.len() - 1;
        let mut i = home(spread(key), self.slots.len());
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = class;
    }
}

/// One kernel thread's run of consecutive nodes in a round: their classes
/// among themselves, before the merge.
#[derive(Clone, Debug, Default)]
struct Run {
    table: Table,
    /// The representative of every class of the run; after the merge,
    /// for the first run, of every class of the group, and for a later
    /// one, the group's class each of its classes is.
    reps: Vec<u32>,
    /// The key of every class of the run, and for the first run, after
    /// the merge, of every class of the group.
    keys: Vec<Key>,
}

/// One round's partition. Node `v` joins the class of the first node `r`
/// before it with its key — equal keys, and for a hashed key also
/// `same(v, r)` — or opens a new class with itself as representative;
/// classes are numbered in first-seen order. Writes every node's class to
/// `classes` and the representatives to the first run's.
///
/// Each kernel thread enters a run of consecutive nodes, in order, into a
/// table of its own, sized for `expected` classes among the threads. The
/// first run's classes are the group's first; every later run's classes
/// are then entered, in order, into the first run's table, which numbers
/// the new ones next — first-seen order over the group — and the later
/// runs' nodes are relabelled. A run's keys and representatives grow with
/// the classes it finds; the first run's then take at most the later
/// runs' classes more, which is what they are given room for before the
/// merge.
fn assign(
    key_of: impl Fn(usize) -> Key + Sync,
    spread: fn(Key) -> u64,
    same: impl Fn(usize, usize) -> bool + Sync,
    expected: usize,
    classes: &mut [u32],
    runs: &mut Vec<Run>,
) {
    let threads = parallel::effective_threads(classes.len());
    if runs.len() < threads {
        runs.resize_with(threads, Run::default);
    }
    let runs = &mut runs[..threads];
    let start = table_slots(expected / threads);
    parallel::for_each_run_with(classes, runs, |_, v0, nodes, run| {
        run.reps.clear();
        run.keys.clear();
        run.table.reset(start);
        let most = nodes.len();
        for (i, class) in nodes.iter_mut().enumerate() {
            // Room for a new class; a run has at most one per node.
            let found = run.reps.len();
            grow_within(&mut run.reps, found + 1, most);
            grow_within(&mut run.keys, found + 1, most);
            let v = v0 + i;
            *class = run
                .table
                .enter(key_of(v), v, spread, &same, &mut run.keys, &mut run.reps);
        }
    });
    let (first, later) = runs.split_first_mut().expect("one run at least");
    let merged: usize = later.iter().map(|run| run.reps.len()).sum();
    first.reps.reserve_exact(merged);
    first.keys.reserve_exact(merged);
    for run in later.iter_mut() {
        for (r, &key) in run.reps.iter_mut().zip(&run.keys) {
            let v = *r as usize;
            *r = first
                .table
                .enter(key, v, spread, &same, &mut first.keys, &mut first.reps);
        }
    }
    parallel::for_each_run_with(classes, runs, |t, _, nodes, run| {
        if t > 0 {
            for class in nodes {
                *class = run.reps[*class as usize];
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    /// A ring of `n` nodes with a chord every third node, features cycling
    /// through three patterns: a graph whose classes are neither one nor
    /// all of the nodes for a few rounds.
    fn subject(n: usize) -> (Graph, Matrix) {
        let graph = Graph::from_edges(n, &edges(n), Direction::Bidirectional);
        let mut x = Matrix::zeros(n, 3);
        for v in 0..n {
            x.set(v, v % 3, 1.0);
        }
        (graph, x)
    }

    fn edges(n: usize) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        edges.extend(
            (0..n as u32)
                .step_by(3)
                .map(|v| (v, (v + n as u32 / 2) % n as u32)),
        );
        edges
    }

    /// The partition of every round over the nodes `lo..hi`.
    fn rounds(graph: &Graph, x: &Matrix, lo: usize, hi: usize, layers: usize) -> Vec<Vec<u32>> {
        let mut refine = Refinement::default();
        refine.features(x, lo, hi);
        let mut out = vec![refine.node_classes().to_vec()];
        for _ in 0..layers {
            refine.step(graph, lo);
            out.push(refine.node_classes().to_vec());
        }
        out
    }

    /// A round whose keys all land on one slot chain yields the partition
    /// of the real table, whether the keys are exact or all one hash: a
    /// hit on a hash is checked against the representative's key, so a
    /// collision splits, never merges.
    #[test]
    fn a_constant_hash_yields_the_real_partition() {
        let (graph, x) = subject(60);
        let mut real = Refinement::default();
        real.features(&x, 0, 60);
        // Every key at one home slot: exact keys, and keys that are all
        // the same hash, so that every hit is a collision `same` settles.
        let spread = |_| 0x5EED;
        let mut chained = [true, false].map(|exact| (real.clone(), Keys { exact, spread }));
        for round in 1..=4 {
            real.step(&graph, 0);
            assert!(real.classes() > 1, "round {round} has several classes");
            for (colliding, keys) in &mut chained {
                colliding.step_with(&graph, 0, *keys);
                let exact = keys.exact;
                assert_eq!(
                    colliding.node_classes(),
                    real.node_classes(),
                    "{round}, {exact}"
                );
                assert_eq!(colliding.reps(), real.reps(), "round {round}, {exact}");
                assert_eq!(colliding.own, real.own, "round {round}, {exact}");
                assert_eq!(
                    colliding.neighbors, real.neighbors,
                    "round {round}, {exact}"
                );
            }
        }
    }

    /// Members of a class share their representative's key, ids are dense
    /// in first-seen order, and refinement never merges: a round's
    /// partition refines the round before it.
    #[test]
    fn classes_are_keys_in_first_seen_order() {
        let (graph, x) = subject(90);
        let all = rounds(&graph, &x, 0, 90, 4);
        for (l, classes) in all.iter().enumerate() {
            let mut seen = 0u32;
            for (v, &c) in classes.iter().enumerate() {
                assert!(
                    c <= seen,
                    "round {l}: node {v} opens class {c} after {seen}"
                );
                seen = seen.max(c + 1);
                assert!(c as usize <= v);
            }
            if l == 0 {
                continue;
            }
            let prev = &all[l - 1];
            for v in 0..90 {
                for w in 0..90 {
                    let key = |v: usize| {
                        let around: Vec<u32> = graph
                            .neighbors(v)
                            .iter()
                            .map(|&u| prev[u as usize])
                            .collect();
                        (prev[v], around)
                    };
                    assert_eq!(classes[v] == classes[w], key(v) == key(w), "round {l}");
                }
            }
        }
    }

    /// The classes do not depend on how many kernel threads build the
    /// keys: at two threads, above the per-thread row cutoff, every round
    /// is the one-thread round.
    #[test]
    fn the_classes_do_not_depend_on_the_thread_count() {
        let n = 3 * 4096 + 5;
        let (graph, x) = subject(n);
        let at = |threads| {
            parallel::set_intra_threads(threads);
            let classes = rounds(&graph, &x, 0, n, 4);
            parallel::set_intra_threads(0);
            classes
        };
        let serial = at(1);
        assert!(serial[4].iter().max() > Some(&10), "several classes");
        assert_eq!(at(2), serial);
    }

    /// Refinement stops at the identity share: the round that reaches it is
    /// kept, every later one is the identity, and the quotient of an
    /// identity round is the graph's own adjacency.
    #[test]
    fn past_the_identity_share_every_node_is_its_own_class() {
        // Distinct features: round 0 already has a class per node.
        let n = 40;
        let (graph, _) = subject(n);
        let x = Matrix::from_vec(n, 1, (0..n).map(|v| v as f32).collect());
        let mut refine = Refinement::default();
        refine.features(&x, 0, n);
        assert!(refine.saturated);
        refine.step(&graph, 0);
        let identity: Vec<u32> = (0..n as u32).collect();
        assert_eq!(refine.node_classes(), identity);
        let (adj, own) = refine.quotient();
        assert_eq!(own, identity);
        for v in 0..n {
            let row = &adj.neighbors[adj.offsets[v] as usize..adj.offsets[v + 1] as usize];
            assert_eq!(row, graph.neighbors(v));
        }
    }

    /// A group is refined on its own: the rounds of a group at an offset in
    /// a larger graph are those of the same section alone.
    #[test]
    fn a_group_at_an_offset_is_refined_like_the_section_alone() {
        let (graph, x) = subject(30);
        let mut union = Graph::default();
        Graph::from_sections_into(
            60,
            Direction::Bidirectional,
            2,
            |i| (30 * i, 30),
            |i, sink| {
                let at = 30 * i as u32;
                for (s, d) in edges(30) {
                    sink(s + at, d + at);
                }
            },
            &mut union,
        );
        let mut both = Matrix::zeros(60, 3);
        for v in 0..60 {
            both.row_mut(v).copy_from_slice(x.row(v % 30));
        }
        let alone = rounds(&graph, &x, 0, 30, 3);
        assert_eq!(rounds(&union, &both, 30, 60, 3), alone);
    }
}
