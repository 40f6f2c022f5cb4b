//! CSR graphs and mean-aggregation message passing.
//!
//! A graph assembled from *sections* — contiguous node ranges with no
//! edges between them, which is what a batch of netlists is — keeps the
//! section starts next to its CSR arrays. Nothing about aggregation
//! depends on them: they tell [`crate::MultiTaskSage::infer`] where the
//! node range may be cut so that a run of rows can go through every layer
//! on its own, refined and aggregated from rows of the same run only (the
//! aggregation kernel checks that for a window of rows).
//!
//! Every builder is one pass on the calling thread: count degrees, prefix
//! sum, fill. It writes the forward offsets and neighbours only. The
//! inverse degrees, which only an aggregation over the whole graph reads
//! (the inference forward runs over quotients, which take their rows'
//! from the offsets), are derived by the first such aggregation; the
//! reverse adjacency, which only training reads, by the first
//! [`Graph::mean_aggregate_backward_add`]. The parallelism is in the
//! aggregation and GEMM row blocks, which cost far more per node.

use crate::kernel::{self, AggArgs, Kernels, Rows, BLOCK_ROWS};
use crate::parallel;
use crate::tensor::{clear_exact, Matrix};
use std::sync::OnceLock;

/// A replayable `(src, dst)` edge stream: called with a sink, invoked
/// once to count degrees and once to fill CSR slots.
type EdgeStream<'a> = &'a dyn Fn(&mut dyn FnMut(u32, u32));

/// Which way messages flow over a directed edge list.
///
/// The AIG's natural edges run fanin → node. Adder roots must "see" their
/// sibling root through a shared fanin (two hops against the edge
/// direction), so the paper-faithful default in the pipeline crate is
/// [`Direction::Bidirectional`]; the others are the message-direction
/// ablation, recorded as the `direction-*` rows of the workspace's
/// `REPRO.md`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Direction {
    /// Aggregate from fanins (edge sources).
    Fanin,
    /// Aggregate from fanouts (edge targets).
    Fanout,
    /// Aggregate from both (symmetrised adjacency).
    #[default]
    Bidirectional,
}

/// A fixed graph in CSR form, ready for mean aggregation and its backward
/// pass.
///
/// A `Graph` is also its own assembly scratch: [`Graph::from_sections_into`]
/// rebuilds every CSR array in place, reusing high-water capacity, so a
/// serve worker can stream a fresh (batch) graph into the same instance on
/// every request without touching the heap. An array that is too small
/// grows to exactly the size the new graph needs.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    num_nodes: usize,
    /// First node of every section, as [`Graph::from_sections_into`]
    /// checked them.
    sections: Vec<usize>,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    /// The reverse adjacency ([`Graph::reversed`]), derived by the first
    /// backward pass over this graph and dropped by every rebuild.
    reverse: OnceLock<Box<Graph>>,
    /// [`inverse_degree`] of every node, derived by the first aggregation
    /// or backward pass over the whole graph and dropped by every rebuild:
    /// the inference forward runs over quotients, whose rows take their
    /// representatives' from the offsets.
    inv_deg: OnceLock<Vec<f32>>,
}

impl Graph {
    /// Builds a graph from `(src, dst)` edges under the given direction:
    /// one section over every node.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of `0..num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)], direction: Direction) -> Graph {
        let mut out = Graph::default();
        Graph::from_sections_into(
            num_nodes,
            direction,
            1,
            |_| (0, num_nodes),
            |_, sink| {
                for &(s, d) in edges {
                    sink(s, d);
                }
            },
            &mut out,
        );
        out
    }

    /// Streams edges into a caller-owned graph over a *sectioned* node
    /// space, rebuilding its CSR arrays in place: no intermediate edge
    /// list, no reverse-pair materialisation, and zero heap allocation once
    /// `out`'s buffers have reached their high-water capacity.
    ///
    /// The nodes `0..num_nodes` are tiled by `num_sections` contiguous
    /// sections (`span(i)` returns section `i`'s `(first_node,
    /// node_count)`), and `edges(i, sink)` streams section `i`'s edges,
    /// **both endpoints of which must lie inside section `i`**.
    /// Disjoint-union batches satisfy this by construction — one section
    /// per constituent, no cross-constituent edges — and a lone graph is
    /// the one section `(0, num_nodes)`.
    ///
    /// The sections stream, in order, through one pass, so the CSR arrays
    /// are those of the concatenated stream. What the sections add is the
    /// starts the graph keeps, which the containment check on every edge
    /// makes safe to cut at. `edges` must stream the same sequence every
    /// time it is invoked — it is called twice per section, once to count
    /// per-node degrees and once to fill the CSR slots. A reverse adjacency
    /// `out` derived for its previous graph is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the sections do not tile `0..num_nodes` in order, if an
    /// edge endpoint leaves its section, if the prefix-summed edge count
    /// overflows the u32 CSR index, or (debug only) if the two `edges`
    /// invocations stream different sequences.
    pub fn from_sections_into<S, F>(
        num_nodes: usize,
        direction: Direction,
        num_sections: usize,
        span: S,
        edges: F,
        out: &mut Graph,
    ) where
        S: Fn(usize) -> (usize, usize),
        F: Fn(usize, &mut dyn FnMut(u32, u32)),
    {
        // Sections must tile the node space contiguously, in order.
        out.sections.clear();
        out.reverse.take();
        out.inv_deg.take();
        let mut covered = 0usize;
        for i in 0..num_sections {
            let (start, len) = span(i);
            assert_eq!(start, covered, "section {i} does not start at {covered}");
            out.sections.push(start);
            covered += len;
        }
        assert_eq!(covered, num_nodes, "sections must cover every node");

        Graph::build_csr(
            num_nodes,
            direction,
            &|sink: &mut dyn FnMut(u32, u32)| {
                for i in 0..num_sections {
                    let (start, len) = span(i);
                    edges(i, &mut |s: u32, d: u32| {
                        assert_section_edge(i, start, len, s, d);
                        sink(s, d);
                    });
                }
            },
            out,
        );
    }

    /// The CSR build under [`Graph::from_sections_into`] and the reverse
    /// adjacency: zero heap allocation once `out` is at capacity.
    ///
    /// The fill needs no cursor array: `offsets[v + 1]` holds row `v`'s
    /// start after the exclusive prefix sum, takes one slot per edge
    /// streamed into the row and so ends as the row's end, which is where
    /// the next row starts.
    fn build_csr(num_nodes: usize, direction: Direction, edges: EdgeStream<'_>, out: &mut Graph) {
        assert_node_count(num_nodes);
        let Graph {
            num_nodes: out_nodes,
            offsets,
            neighbors,
            ..
        } = out;
        *out_nodes = num_nodes;
        // The edge sequence of the count pass, checked against the fill
        // pass's in debug builds.
        let mut streamed = [SEQUENCE_SEED; 2];
        let mut sequence = |pass: usize, s: u32, d: u32| {
            if cfg!(debug_assertions) {
                streamed[pass] = mix_edge(streamed[pass], s, d);
            }
        };

        // Pass 1: count aggregation edges per CSR row.
        refill(offsets, num_nodes + 1);
        edges(&mut |s: u32, d: u32| {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "edge ({s}, {d}) out of range"
            );
            sequence(0, s, d);
            match direction {
                Direction::Fanin => offsets[d as usize + 1] += 1, // node gathers from fanin
                Direction::Fanout => offsets[s as usize + 1] += 1, // node gathers from fanout
                Direction::Bidirectional => {
                    offsets[d as usize + 1] += 1;
                    offsets[s as usize + 1] += 1;
                }
            }
        });
        let total = exclusive_prefix_sum(&mut offsets[1..]);

        // Pass 2: fill the forward CSR slots, each row in stream order.
        refill(neighbors, total);
        edges(&mut |s: u32, d: u32| {
            sequence(1, s, d);
            let mut put = |v: u32, u: u32| {
                let slot = &mut offsets[v as usize + 1];
                neighbors[*slot as usize] = u;
                *slot += 1;
            };
            match direction {
                Direction::Fanin => put(d, s),
                Direction::Fanout => put(s, d),
                Direction::Bidirectional => {
                    put(d, s);
                    put(s, d);
                }
            }
        });
        debug_assert!(
            streamed[0] == streamed[1],
            "edge stream changed between the count and fill passes"
        );
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of (directed) aggregation edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Node count of every section, in order: the spans
    /// [`Graph::from_sections_into`] was given.
    pub(crate) fn section_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let ends = self.sections.iter().skip(1).chain([&self.num_nodes]);
        self.sections.iter().zip(ends).map(|(lo, hi)| hi - lo)
    }

    /// The aggregation neighborhood of node `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Mean aggregation: `out[v] = mean_{u in N(v)} h[u]` (zero row when
    /// `N(v)` is empty).
    ///
    /// # Panics
    ///
    /// Panics if `h.rows() != num_nodes`.
    pub fn mean_aggregate(&self, h: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.mean_aggregate_into(h, &mut out);
        out
    }

    /// [`Graph::mean_aggregate`] into a caller-owned buffer (no heap
    /// allocation once `out` has enough capacity and the first call after
    /// a build has derived the inverse degrees).
    ///
    /// # Panics
    ///
    /// Panics if `h.rows() != num_nodes`.
    pub fn mean_aggregate_into(&self, h: &Matrix, out: &mut Matrix) {
        self.mean_aggregate_with(kernel::active(), h, out);
    }

    /// [`Graph::mean_aggregate_into`] over an explicit kernel variant.
    pub(crate) fn mean_aggregate_with(&self, kernels: &Kernels, h: &Matrix, out: &mut Matrix) {
        assert_eq!(h.rows(), self.num_nodes, "one embedding row per node");
        let dim = h.cols();
        // Every element is written by the kernel: no zero-fill pass.
        out.reshape_for_overwrite(self.num_nodes, dim);
        let (h, adj) = (Rows::all(h), self.adjacency());
        parallel::for_each_row_block(out.as_mut_slice(), dim.max(1), BLOCK_ROWS, |v0, block| {
            adj.aggregate(kernels, v0, h, block)
        });
    }

    /// The forward CSR arrays, as the aggregation kernel reads them (the
    /// first call after a build derives the inverse degrees).
    pub(crate) fn adjacency(&self) -> Adjacency<'_> {
        Adjacency {
            offsets: &self.offsets,
            neighbors: &self.neighbors,
            inv_deg: self.inv_deg(),
        }
    }

    /// The forward CSR's offsets and neighbours, without the inverse
    /// degrees.
    pub(crate) fn csr(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// [`inverse_degree`] of every node, derived on first use.
    fn inv_deg(&self) -> &[f32] {
        self.inv_deg.get_or_init(|| {
            let degrees = self.offsets.windows(2).map(|w| w[1] - w[0]);
            degrees.map(inverse_degree).collect()
        })
    }

    /// Backward of [`Graph::mean_aggregate`], added onto `out`: given
    /// `grad = d(aggregate)`, `out[u] += Σ_{v : u ∈ N(v)} grad[v] / deg(v)`.
    /// The sum over consumers is taken from zero, in reverse-CSR order,
    /// before it meets what `out` holds — the order a separate gradient
    /// matrix added afterwards would give.
    ///
    /// The first call after a build derives the reverse CSR (and the
    /// inverse degrees, if no aggregation has) and keeps it with the graph
    /// (a training graph pays it once per `fit`); later calls allocate
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `grad` and `out` both have one row per node and the
    /// same width.
    pub fn mean_aggregate_backward_add(&self, grad: &Matrix, out: &mut Matrix) {
        assert_eq!(grad.rows(), self.num_nodes);
        assert_eq!((out.rows(), out.cols()), (grad.rows(), grad.cols()));
        /// Columns summed together in registers.
        const LANES: usize = 16;
        let rev = self.reverse.get_or_init(|| Box::new(self.reversed()));
        let inv_deg = self.inv_deg();
        let width = grad.cols().max(1);
        parallel::for_each_row_block(out.as_mut_slice(), width, BLOCK_ROWS, |u0, block| {
            for (i, row) in block.chunks_mut(width).enumerate() {
                let u = u0 + i;
                for (chunk, lanes) in row.chunks_mut(LANES).enumerate() {
                    let mut acc = [0.0f32; LANES];
                    for &v in rev.neighbors(u) {
                        let inv = inv_deg[v as usize];
                        let g = &grad.row(v as usize)[chunk * LANES..][..lanes.len()];
                        for (a, &g) in acc.iter_mut().zip(g) {
                            *a += g * inv;
                        }
                    }
                    for (o, &a) in lanes.iter_mut().zip(&acc) {
                        *o += a;
                    }
                }
            }
        });
    }

    /// The reverse adjacency as a graph of its own: node `u`'s neighbours
    /// are its consumers, the `v` with `u ∈ N(v)`, in ascending order.
    fn reversed(&self) -> Graph {
        let consumers = |sink: &mut dyn FnMut(u32, u32)| {
            for v in 0..self.num_nodes {
                for &u in self.neighbors(v) {
                    sink(u, v as u32);
                }
            }
        };
        let mut rev = Graph::default();
        Graph::build_csr(self.num_nodes, Direction::Fanout, &consumers, &mut rev);
        rev
    }
}

/// A CSR adjacency the mean-aggregation kernel gathers over: a graph's
/// own, or a quotient of one, whose rows are classes and whose
/// neighbours are classes of the round before
/// ([`crate::refine::Refinement`]).
#[derive(Copy, Clone)]
pub(crate) struct Adjacency<'a> {
    pub offsets: &'a [u32],
    pub neighbors: &'a [u32],
    /// `1 / degree` of every row (0 for an isolated one).
    pub inv_deg: &'a [f32],
}

impl Adjacency<'_> {
    /// Mean aggregation of the rows `v0 .. v0 + out.len() / h.cols` into
    /// the whole rows of `out`, gathering from `h`.
    ///
    /// # Panics
    ///
    /// Panics, before anything is gathered, if one of the rows has a
    /// neighbour among the rows `h` does not hold.
    pub(crate) fn aggregate(&self, kernels: &Kernels, v0: usize, h: Rows<'_>, out: &mut [f32]) {
        if out.is_empty() {
            return;
        }
        let args = AggArgs {
            offsets: self.offsets,
            neighbors: self.neighbors,
            inv_deg: self.inv_deg,
            h,
        };
        kernels.aggregate_block(&args, v0, out);
    }
}

/// `1 / degree` of a node (0 for an isolated one): the factor its
/// neighbour sum is scaled by.
pub(crate) fn inverse_degree(degree: u32) -> f32 {
    if degree == 0 {
        0.0
    } else {
        1.0 / degree as f32
    }
}

/// Makes `v` hold `len` zeros, growing to exactly `len` (see
/// [`clear_exact`]).
fn refill<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    clear_exact(v, len);
    v.resize(len, T::default());
}

/// Node ids travel as `u32` through the edge stream and the CSR arrays.
fn assert_node_count(num_nodes: usize) {
    assert!(
        num_nodes as u64 <= u32::MAX as u64 + 1,
        "{num_nodes} nodes exceed the u32 node-id space"
    );
}

/// Both endpoints of a sectioned edge must lie inside the section that
/// streamed it — the disjointness that lets the forward cut the node range
/// at a section start.
#[inline]
fn assert_section_edge(sec: usize, start: usize, len: usize, s: u32, d: u32) {
    let (s, d) = (s as usize, d as usize);
    assert!(
        s >= start && s < start + len && d >= start && d < start + len,
        "edge ({s}, {d}) leaves section {sec} (nodes {start}..{})",
        start + len
    );
}

/// Converts a running (u64) CSR prefix total to the u32 slot type,
/// panicking with a clear message when a multi-million-edge graph
/// overflows the index width.
#[inline]
fn checked_csr_index(total: u64) -> u32 {
    if total > u64::from(u32::MAX) {
        csr_overflow(total);
    }
    total as u32
}

#[cold]
#[inline(never)]
fn csr_overflow(total: u64) -> ! {
    panic!(
        "CSR prefix overflow: {total} aggregation edges exceed the u32 index limit \
         ({} max); split the batch into smaller graphs",
        u32::MAX
    );
}

/// In-place exclusive prefix sum over per-node counts (the `[1..]` tail
/// of an offsets array, which then holds every row's start),
/// overflow-checked; returns the edge total.
fn exclusive_prefix_sum(counts: &mut [u32]) -> usize {
    let mut acc = 0u64;
    for slot in counts.iter_mut() {
        let count = u64::from(*slot);
        *slot = acc as u32;
        acc += count;
        checked_csr_index(acc);
    }
    acc as usize
}

const SEQUENCE_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One edge into a running digest of an edge sequence (order-sensitive).
fn mix_edge(h: u64, s: u32, d: u32) -> u64 {
    (h ^ (u64::from(s) << 32 | u64::from(d)))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(27)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 -> 1 -> 2.
    fn path() -> Vec<(u32, u32)> {
        vec![(0, 1), (1, 2)]
    }

    #[test]
    fn fanin_neighbors() {
        let g = Graph::from_edges(3, &path(), Direction::Fanin);
        assert_eq!(g.neighbors(0), &[] as &[u32]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn bidirectional_neighbors() {
        let g = Graph::from_edges(3, &path(), Direction::Bidirectional);
        assert_eq!(g.neighbors(1).len(), 2);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn mean_aggregation_values() {
        let g = Graph::from_edges(3, &path(), Direction::Bidirectional);
        let h = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 2.0, 4.0, 4.0]);
        let agg = g.mean_aggregate(&h);
        // node 1 averages nodes 0 and 2 -> (2.5, 2.0)
        assert_eq!(agg.row(1), &[2.5, 2.0]);
        // node 0 sees only node 1
        assert_eq!(agg.row(0), &[0.0, 2.0]);
    }

    #[test]
    fn isolated_nodes_aggregate_zero() {
        let g = Graph::from_edges(4, &[(0, 1)], Direction::Fanin);
        let h = Matrix::from_vec(4, 1, vec![5.0, 6.0, 7.0, 8.0]);
        let agg = g.mean_aggregate(&h);
        assert_eq!(agg.row(3), &[0.0]);
        assert_eq!(agg.row(0), &[0.0]); // fanin of 0 is empty
        assert_eq!(agg.row(1), &[5.0]);
    }

    /// An in-place one-section rebuild into a reused graph
    /// (grow-then-shrink and shrink-then-grow) is indistinguishable from
    /// fresh construction, including the derived reverse adjacency.
    #[test]
    fn one_section_reuse_matches_fresh() {
        let mut g = Graph::default();
        for n in [6usize, 3, 9] {
            let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            for dir in [
                Direction::Fanin,
                Direction::Fanout,
                Direction::Bidirectional,
            ] {
                Graph::from_sections_into(
                    n,
                    dir,
                    1,
                    |_| (0, n),
                    |_, sink| {
                        for &(s, d) in &edges {
                            sink(s, d);
                        }
                    },
                    &mut g,
                );
                let fresh = Graph::from_edges(n, &edges, dir);
                assert_eq!(g.num_nodes(), fresh.num_nodes());
                assert_eq!(g.num_edges(), fresh.num_edges());
                for v in 0..n {
                    assert_eq!(g.neighbors(v), fresh.neighbors(v), "{dir:?} node {v}");
                }
                let grad = Matrix::from_vec(n, 1, (0..n).map(|i| i as f32 + 1.0).collect());
                let backward = |g: &Graph| {
                    let mut out = Matrix::zeros(n, 1);
                    g.mean_aggregate_backward_add(&grad, &mut out);
                    out
                };
                assert_eq!(backward(&g), backward(&fresh), "{dir:?} reverse adjacency");
            }
        }
    }

    /// The u32 CSR index accepts exactly `u32::MAX` edges and rejects one
    /// more with a clear message — the boundary of the overflow guard on
    /// multi-million-edge graphs.
    #[test]
    fn csr_index_accepts_the_u32_boundary() {
        assert_eq!(checked_csr_index(u64::from(u32::MAX)), u32::MAX);
        let mut counts = vec![u32::MAX, 0, 0];
        assert_eq!(exclusive_prefix_sum(&mut counts), u32::MAX as usize);
        assert_eq!(counts, [0, u32::MAX, u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "exceed the u32 index limit")]
    fn csr_index_panics_past_the_u32_boundary() {
        let mut counts = vec![u32::MAX, 1];
        exclusive_prefix_sum(&mut counts);
    }

    /// A build over three sections, one of them empty, matches the same
    /// edges streamed as one section.
    #[test]
    fn sectioned_build_matches_streamed_build() {
        let sections: [&[(u32, u32)]; 3] = [&[(0, 1), (1, 2), (0, 2)], &[], &[(3, 4), (4, 3)]];
        let spans = [(0usize, 3usize), (3, 0), (3, 2)];
        for dir in [
            Direction::Fanin,
            Direction::Fanout,
            Direction::Bidirectional,
        ] {
            let mut got = Graph::default();
            Graph::from_sections_into(
                5,
                dir,
                3,
                |i| spans[i],
                |i, sink| {
                    for &(s, d) in sections[i] {
                        sink(s, d);
                    }
                },
                &mut got,
            );
            let all: Vec<(u32, u32)> = sections.iter().flat_map(|s| s.iter().copied()).collect();
            let want = Graph::from_edges(5, &all, dir);
            assert_eq!(got.num_edges(), want.num_edges());
            for v in 0..5 {
                assert_eq!(got.neighbors(v), want.neighbors(v), "{dir:?} node {v}");
            }
        }
    }

    /// An edge whose endpoints leave its section must be rejected — the
    /// disjointness contract the group-major forward relies on.
    #[test]
    #[should_panic(expected = "leaves section")]
    fn sectioned_build_rejects_cross_section_edges() {
        let mut g = Graph::default();
        Graph::from_sections_into(
            4,
            Direction::Fanin,
            2,
            |i| if i == 0 { (0, 2) } else { (2, 2) },
            |i, sink| {
                if i == 0 {
                    sink(0, 3); // crosses into section 1
                }
            },
            &mut g,
        );
    }

    /// The backward pass must be the exact adjoint of the forward pass:
    /// <A x, y> == <x, A^T y> for all x, y.
    #[test]
    fn backward_is_adjoint_of_forward() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 17;
        let edges: Vec<(u32, u32)> = (0..40)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        for dir in [
            Direction::Fanin,
            Direction::Fanout,
            Direction::Bidirectional,
        ] {
            let g = Graph::from_edges(n, &edges, dir);
            let dim = 3;
            let x = Matrix::from_vec(
                n,
                dim,
                (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            );
            let y = Matrix::from_vec(
                n,
                dim,
                (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            );
            let ax = g.mean_aggregate(&x);
            let mut aty = Matrix::zeros(n, dim);
            g.mean_aggregate_backward_add(&y, &mut aty);
            let dot = |a: &Matrix, b: &Matrix| -> f64 {
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .map(|(&p, &q)| p as f64 * q as f64)
                    .sum()
            };
            let lhs = dot(&ax, &y);
            let rhs = dot(&x, &aty);
            assert!((lhs - rhs).abs() < 1e-4, "{dir:?}: {lhs} vs {rhs}");
        }
    }
}
