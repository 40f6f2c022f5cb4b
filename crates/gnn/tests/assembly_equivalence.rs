//! Assembly and cap equivalence: a graph built from sections is
//! **bit-identical** to the same edges streamed as one section, for every
//! direction and across awkward shapes (empty sections, isolated nodes,
//! duplicate edges), and a rebuilt graph keeps nothing of the one before.
//! The tiled aggregation kernels and the whole forward give the same bits
//! at every thread budget, on small graphs and on graphs above
//! `parallel`'s per-thread row cutoff.
//!
//! The same holds one level up, for the **group-major forward**: a union
//! of sections taken through the model one group of sections at a time
//! (`MultiTaskSage::infer` on a sectioned graph) yields the logits, bit
//! for bit, of the same union taken whole and of every section on its
//! own — at section sizes on both sides of the group budget, under one
//! and two kernel threads (groups dealt to threads), and for the training
//! forward, which still aggregates the whole graph at once. A group that
//! is cut anywhere but at a section boundary is refused by name before a
//! row outside its buffer is touched.

use gamora_gnn::{
    parallel, Direction, Graph, KernelVariant, Matrix, ModelConfig, MultiTaskSage, Tape,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Restores the caller's intra-thread cap on drop, so a failing assert
/// can't leak a forced budget into other tests on the same thread.
struct CapGuard(usize);

impl CapGuard {
    fn set(limit: usize) -> CapGuard {
        let prev = parallel::intra_threads();
        parallel::set_intra_threads(limit);
        CapGuard(prev)
    }
}

impl Drop for CapGuard {
    fn drop(&mut self) {
        parallel::set_intra_threads(self.0);
    }
}

/// `(first_node, node_count)` of every section laid end to end.
fn spans_of(sections: &[(usize, Vec<(u32, u32)>)]) -> Vec<(usize, usize)> {
    let mut base = 0;
    let spans = sections.iter().map(|&(n, _)| {
        base += n;
        (base - n, n)
    });
    spans.collect()
}

/// Builds the same edge set cut into its sections and streamed as one
/// section, and asserts every observable array is bit-identical.
fn assert_sectioned_matches_streamed(sections: &[(usize, Vec<(u32, u32)>)], direction: Direction) {
    let spans = spans_of(sections);
    let num_nodes: usize = sections.iter().map(|(n, _)| *n).sum();

    let mut serial = Graph::default();
    Graph::from_sections_into(
        num_nodes,
        direction,
        1,
        |_| (0, num_nodes),
        |_, sink| {
            for ((_, edges), &(base, _)) in sections.iter().zip(&spans) {
                for &(s, d) in edges {
                    sink(s + base as u32, d + base as u32);
                }
            }
        },
        &mut serial,
    );

    let mut sectioned = Graph::default();
    Graph::from_sections_into(
        num_nodes,
        direction,
        sections.len(),
        |i| spans[i],
        |i, sink| {
            let base = spans[i].0 as u32;
            for &(s, d) in &sections[i].1 {
                sink(s + base, d + base);
            }
        },
        &mut sectioned,
    );

    assert_eq!(sectioned.num_nodes(), serial.num_nodes());
    assert_eq!(sectioned.num_edges(), serial.num_edges());
    for v in 0..num_nodes {
        assert_eq!(sectioned.neighbors(v), serial.neighbors(v), "node {v}");
    }
    // inv_deg and the reverse adjacency are private; mean aggregation
    // exercises forward offsets + inv_deg, the backward pass exercises
    // the reverse arrays. Bitwise equality of both outputs pins them all.
    let h = feature_ramp(num_nodes, 3);
    assert_eq!(
        serial.mean_aggregate(&h).as_slice(),
        sectioned.mean_aggregate(&h).as_slice()
    );
    let backward = |g: &Graph| {
        let mut out = Matrix::zeros(h.rows(), h.cols());
        g.mean_aggregate_backward_add(&h, &mut out);
        out
    };
    assert_eq!(
        backward(&serial).as_slice(),
        backward(&sectioned).as_slice()
    );
}

/// Deterministic non-uniform matrix (dyadic values, exact in f32).
fn feature_ramp(rows: usize, cols: usize) -> Matrix {
    let mut h = Matrix::zeros(rows.max(1), cols);
    for (i, v) in h.as_mut_slice().iter_mut().enumerate() {
        *v = ((i % 23) as f32 - 11.0) * 0.25;
    }
    h
}

/// One random section: a node count (possibly zero) and edges drawn
/// inside it, including duplicates and self-loops.
fn section() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (0usize..24, 0usize..48).prop_flat_map(|(n, m)| {
        vec((0u32..24, 0u32..24), m).prop_map(move |edges| {
            if n == 0 {
                (0, Vec::new())
            } else {
                let wrap = |v: u32| v % n as u32;
                (n, edges.iter().map(|&(s, d)| (wrap(s), wrap(d))).collect())
            }
        })
    })
}

/// Between 1 and 5 random sections.
fn sections() -> impl Strategy<Value = Vec<(usize, Vec<(u32, u32)>)>> {
    (1usize..6).prop_flat_map(|k| vec(section(), k))
}

proptest! {
    /// Small sectioned graphs: bit-identical to the streamed build for every direction, including empty sections,
    /// isolated nodes and duplicate edges.
    #[test]
    fn sectioned_equals_streamed_small(sections in sections()) {
        for direction in [Direction::Fanin, Direction::Fanout, Direction::Bidirectional] {
            assert_sectioned_matches_streamed(&sections, direction);
        }
    }

    /// Under a 1-thread cap, the budget multi-section unions are served
    /// at, the sectioned build still matches the streamed build.
    #[test]
    fn sectioned_equals_streamed_forced_serial(sections in sections()) {
        let _guard = CapGuard::set(1);
        assert_sectioned_matches_streamed(&sections, Direction::Bidirectional);
    }

    /// Tiled mean aggregation at a multi-thread cap is bit-identical to
    /// the 1-thread kernel on small graphs of awkward (non-tile-multiple)
    /// sizes.
    #[test]
    fn aggregation_cap_invariant_small(
        n in 1usize..60,
        edges in (0usize..80).prop_flat_map(|m| vec((0u32..60, 0u32..60), m)),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(s, d)| (s % n as u32, d % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges, Direction::Bidirectional);
        let h = feature_ramp(n, 7);
        let serial = {
            let _one = CapGuard::set(1);
            g.mean_aggregate(&h)
        };
        let tiled = {
            let _four = CapGuard::set(4);
            g.mean_aggregate(&h)
        };
        prop_assert_eq!(serial.as_slice(), tiled.as_slice());
    }
}

/// Deterministic sectioned graph large enough for the row-block-parallel
/// kernels: `num_nodes` is far above `parallel`'s per-thread cutoff and
/// the section sizes are deliberately lopsided and non-tile-multiple.
fn large_sections() -> Vec<(usize, Vec<(u32, u32)>)> {
    let sizes = [9473usize, 1, 0, 6301, 4096, 777];
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    sizes
        .iter()
        .map(|&n| {
            let mut edges = Vec::new();
            // ~2 edges per node, plus guaranteed isolated tail nodes.
            for _ in 0..n.saturating_mul(2) {
                let s = (next() % n.max(1) as u64) as u32;
                let d = (next() % n.max(1) as u64) as u32;
                edges.push((s, d));
            }
            (n, edges)
        })
        .collect()
}

#[test]
fn sectioned_reuse_across_thread_budgets() {
    // A Graph instance rebuilt after a backward over a graph of another
    // shape must converge to the arrays of a fresh build — buffer reuse
    // can't leak stale slots — and must not keep that graph's reverse
    // adjacency.
    let sections = large_sections();
    let other: Vec<_> = sections.iter().rev().skip(1).cloned().collect();
    let build = |sections: &[(usize, Vec<(u32, u32)>)], out: &mut Graph| {
        let spans = spans_of(sections);
        Graph::from_sections_into(
            sections.iter().map(|(n, _)| *n).sum(),
            Direction::Bidirectional,
            sections.len(),
            |i| spans[i],
            |i, sink| {
                let base = spans[i].0 as u32;
                for &(s, d) in &sections[i].1 {
                    sink(s + base, d + base);
                }
            },
            out,
        );
    };
    let backward = |g: &Graph| {
        let h = feature_ramp(g.num_nodes(), 3);
        let mut out = Matrix::zeros(h.rows(), h.cols());
        g.mean_aggregate_backward_add(&h, &mut out);
        out
    };
    let mut reference = Graph::default();
    build(&sections, &mut reference);
    let mut reused = Graph::default();
    build(&other, &mut reused);
    backward(&reused);
    build(&sections, &mut reused);
    assert_eq!(reused.num_edges(), reference.num_edges());
    for v in 0..reference.num_nodes() {
        assert_eq!(reused.neighbors(v), reference.neighbors(v), "node {v}");
    }
    assert_eq!(backward(&reused), backward(&reference));
}

#[test]
fn model_embeddings_cap_invariant_large() {
    // Full forward pass on a >8192-node graph: logits at a 4-thread cap
    // must be bit-identical to the 1-thread kernels.
    let sections = large_sections();
    let spans = spans_of(&sections);
    let num_nodes: usize = sections.iter().map(|(n, _)| *n).sum();
    let mut graph = Graph::default();
    Graph::from_sections_into(
        num_nodes,
        Direction::Bidirectional,
        sections.len(),
        |i| spans[i],
        |i, sink| {
            let base = spans[i].0 as u32;
            for &(s, d) in &sections[i].1 {
                sink(s + base, d + base);
            }
        },
        &mut graph,
    );
    let x = feature_ramp(num_nodes, 3);
    let model = MultiTaskSage::new(ModelConfig {
        in_dim: 3,
        hidden: 32,
        layers: 4,
        shared_dim: 32,
        task_classes: vec![4, 2, 2],
        seed: 0x6A3017A,
    });
    let serial_logits = {
        let _one = CapGuard::set(1);
        model.forward(&graph, &x)
    };
    let parallel_logits = {
        let _four = CapGuard::set(4);
        model.forward(&graph, &x)
    };
    assert_eq!(serial_logits.len(), parallel_logits.len());
    for (s, p) in serial_logits.iter().zip(&parallel_logits) {
        assert_eq!(s.as_slice(), p.as_slice());
    }
}

/// Sections of the given sizes, ~2 random edges per node inside each
/// (duplicates, self-loops and isolated nodes included).
fn random_sections(sizes: &[usize], seed: u64) -> Vec<(usize, Vec<(u32, u32)>)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    sizes
        .iter()
        .map(|&n| {
            let edges = (0..2 * n)
                .map(|_| ((next() % n as u64) as u32, (next() % n as u64) as u32))
                .collect();
            (n, edges)
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The three ways to put `sections` through `model` agree on every logit
/// bit: the sectioned union (group-major), the same union streamed as one
/// section (no cuts: one group, layer by layer) and each section as a
/// graph of its own. The training forward over the sectioned union is a
/// fourth.
fn assert_group_major_matches(
    model: &MultiTaskSage,
    sections: &[(usize, Vec<(u32, u32)>)],
    direction: Direction,
) {
    let spans = spans_of(sections);
    let num_nodes: usize = sections.iter().map(|(n, _)| *n).sum();
    let offset_edges = |i: usize, sink: &mut dyn FnMut(u32, u32)| {
        let base = spans[i].0 as u32;
        for &(s, d) in &sections[i].1 {
            sink(s + base, d + base);
        }
    };
    let mut sectioned = Graph::default();
    Graph::from_sections_into(
        num_nodes,
        direction,
        sections.len(),
        |i| spans[i],
        offset_edges,
        &mut sectioned,
    );
    let mut whole = Graph::default();
    Graph::from_sections_into(
        num_nodes,
        direction,
        1,
        |_| (0, num_nodes),
        |_, sink| (0..sections.len()).for_each(|i| offset_edges(i, sink)),
        &mut whole,
    );
    let x = feature_ramp(num_nodes, 3);
    let grouped = model.forward(&sectioned, &x);
    let layered = model.forward(&whole, &x);
    let mut tape = Tape::default();
    let trained = model.forward_train(&sectioned, &x, &mut tape);
    for (t, logits) in grouped.iter().enumerate() {
        assert_eq!(logits.rows(), num_nodes);
        assert_eq!(
            bits(logits),
            bits(&layered[t]),
            "task {t}: union, one group"
        );
        assert_eq!(
            bits(logits),
            bits(&trained[t]),
            "task {t}: training forward"
        );
    }
    for ((n, edges), &(base, _)) in sections.iter().zip(&spans) {
        if *n == 0 {
            continue;
        }
        let alone = Graph::from_edges(*n, edges, direction);
        let mut own = Matrix::zeros(*n, 3);
        own.as_mut_slice()
            .copy_from_slice(&x.as_slice()[base * 3..(base + n) * 3]);
        for (t, logits) in model.forward(&alone, &own).iter().enumerate() {
            let cols = logits.cols();
            let rows = &grouped[t].as_slice()[base * cols..(base + n) * cols];
            let rows: Vec<u32> = rows.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rows, bits(logits), "task {t}: section at row {base} alone");
        }
    }
}

fn model_of(hidden: usize) -> MultiTaskSage {
    MultiTaskSage::new(ModelConfig {
        in_dim: 3,
        hidden,
        layers: 3,
        shared_dim: 32,
        task_classes: vec![4, 2, 2],
        seed: 0x5EC7 + hidden as u64,
    })
}

/// Sections at every interesting distance from the group budget — empty,
/// one row, one short of it, exactly it, one over, five times it (a group
/// of its own, and above the row-block-parallel cutoff) — in an order that
/// makes the greedy walk close groups for both reasons, at both hidden
/// widths the reasoner ships, every direction, and one and two kernel
/// threads (two: groups are dealt to threads; the single-group union and
/// the big section alone go to the row-block-parallel kernels).
#[test]
fn group_major_forward_matches_whole_union_and_lone_sections() {
    for hidden in [32, 80] {
        let model = model_of(hidden);
        let budget = model.config().group_rows();
        let sizes = [
            1,
            budget - 1,
            0,
            budget,
            5 * budget,
            budget + 1,
            1,
            0,
            budget / 2,
            budget / 2,
            7,
        ];
        let sections = random_sections(&sizes, 0x6A0 + hidden as u64);
        for threads in [1, 2] {
            let _guard = CapGuard::set(threads);
            for direction in [
                Direction::Fanin,
                Direction::Fanout,
                Direction::Bidirectional,
            ] {
                assert_group_major_matches(&model, &sections, direction);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random section lists around the budget: a handful of rows, about a
    /// budget's worth, or anything up to three budgets, up to seven
    /// sections long.
    #[test]
    fn group_major_forward_matches_on_random_section_lists(
        picks in (1usize..8).prop_flat_map(|k| vec((0u32..3, 0usize..1 << 16), k)),
        threads in 1usize..3,
        seed in any::<u64>(),
    ) {
        let model = model_of(32);
        let budget = model.config().group_rows();
        let sizes: Vec<usize> = picks
            .iter()
            .map(|&(kind, raw)| match kind {
                0 => raw % 5,
                1 => budget - 2 + raw % 5,
                _ => raw % (3 * budget),
            })
            .collect();
        let _guard = CapGuard::set(threads);
        assert_group_major_matches(&model, &random_sections(&sizes, seed), Direction::Bidirectional);
    }
}

/// Two rings sharing no edge, as two sections.
fn two_rings(a: usize, b: usize) -> Graph {
    let mut graph = Graph::default();
    Graph::from_sections_into(
        a + b,
        Direction::Bidirectional,
        2,
        |i| if i == 0 { (0, a) } else { (a, b) },
        |i, sink| {
            let (base, n) = if i == 0 { (0, a) } else { (a, b) };
            for v in 0..n {
                sink((base + v) as u32, (base + (v + 1) % n) as u32);
            }
        },
        &mut graph,
    );
    graph
}

/// Aggregating a section from a buffer that holds only that section's
/// rows gives the rows of the whole-graph aggregation, under every
/// compiled kernel variant.
#[test]
fn windowed_aggregation_matches_the_whole_graph_rows() {
    let (a, b) = (70, 133);
    let graph = two_rings(a, b);
    let h = feature_ramp(a + b, 7);
    let want = graph.mean_aggregate(&h);
    let window = Matrix::from_vec(b, 7, h.as_slice()[a * 7..].to_vec());
    for v in KernelVariant::supported() {
        let mut out = Matrix::default();
        v.mean_aggregate_rows_into(&graph, a..a + b, &window, a, &mut out);
        assert_eq!(out.as_slice(), &want.as_slice()[a * 7..], "{}", v.isa());
    }
}

/// A group cut one row early: its last row's ring neighbour is the row
/// the buffer no longer holds. The aggregation names the mistake instead
/// of reading past the window.
#[test]
#[should_panic(expected = "outside the activation window 0..69")]
fn a_cut_one_row_early_trips_the_window_assertion() {
    let graph = two_rings(70, 133);
    let h = feature_ramp(69, 7);
    let mut out = Matrix::default();
    KernelVariant::supported()[0].mean_aggregate_rows_into(&graph, 0..69, &h, 0, &mut out);
}

/// The same mistake on the other side of the cut: the second group starts
/// a row early and that row's neighbours sit below the window.
#[test]
#[should_panic(expected = "outside the activation window 69..203")]
fn a_group_starting_one_row_early_trips_the_window_assertion() {
    let graph = two_rings(70, 133);
    let h = feature_ramp(134, 7);
    let mut out = Matrix::default();
    KernelVariant::supported()[0].mean_aggregate_rows_into(&graph, 69..203, &h, 69, &mut out);
}
