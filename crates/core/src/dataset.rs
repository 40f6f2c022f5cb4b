//! Dataset assembly: AIGs to labelled message-passing graphs, plus
//! disjoint-union batching for Figure 8's batched inference.
//!
//! The inference-side builders are zero-copy: AIG edges stream straight
//! into a reusable CSR [`Graph`] (no intermediate edge list) and batch
//! features are written directly into the merged matrix, so a warmed-up
//! [`BatchScratch`] turns raw `&Aig`s into a ready forward-pass input
//! without touching the heap. [`assemble_batch_into`] is the one batch
//! builder; it assembles on the calling thread at any kernel thread cap.
//!
//! What a batch merges is its *graph* and *features* — one section of the
//! union per netlist, which the graph remembers. The forward pass takes
//! the sections through the model a cache-sized group at a time and the
//! predictions are decoded per netlist straight from the logits, so
//! nothing else here is sized by the batch: there is no merged activation
//! or prediction buffer to split.

use crate::features::{build_features, write_features_at, FeatureMode, FEATURE_DIM};
use crate::labels::task_targets;
use crate::reasoner::ClassPrediction;
use crate::Predictions;
use gamora_aig::Aig;
use gamora_exact::Analysis;
use gamora_gnn::{Direction, Graph, GraphData, Matrix};

/// Builds the message-passing graph of an AIG under a direction mode.
pub fn build_graph(aig: &Aig, direction: Direction) -> Graph {
    let mut graph = Graph::default();
    build_graph_into(aig, direction, &mut graph);
    graph
}

/// [`build_graph`] into a caller-owned graph: streams `aig`'s edges
/// directly into the reused CSR arrays as one section (no intermediate
/// edge vector, no heap allocation once `out` is at capacity).
pub fn build_graph_into(aig: &Aig, direction: Direction, out: &mut Graph) {
    let n = aig.num_nodes();
    Graph::from_sections_into(
        n,
        direction,
        1,
        |_| (0, n),
        |_, sink| aig.for_each_edge(|s, d| sink(s.as_u32(), d.as_u32())),
        out,
    );
}

/// Builds a labelled [`GraphData`] from an AIG, running exact analysis for
/// ground truth: one label vector per task, as [`task_targets`] encodes
/// them. Returns the analysis alongside so callers can reuse the
/// extracted adder tree.
pub fn labelled_graph(aig: &Aig, mode: FeatureMode, direction: Direction) -> (GraphData, Analysis) {
    let analysis = gamora_exact::analyze(aig);
    let data = GraphData {
        graph: build_graph(aig, direction),
        features: build_features(aig, mode),
        labels: task_targets(&analysis.labels),
    };
    (data, analysis)
}

/// Reusable buffers for zero-copy batch assembly: the merged
/// disjoint-union graph, the merged feature matrix and the per-constituent
/// node offsets that
/// [`crate::GamoraReasoner::predict_batch_into_timed`] decodes each
/// netlist's predictions at.
///
/// Keep one per serve worker alongside an
/// [`gamora_gnn::InferenceScratch`]: after one warmup batch at a given
/// size, every later batch at the same or smaller size is assembled and
/// predicted without any heap allocation.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    pub(crate) graph: Graph,
    pub(crate) features: Matrix,
    pub(crate) offsets: Vec<usize>,
    /// Warmed per-netlist outputs parked here when a batch shrinks, so a
    /// later larger batch regrows from pooled capacity instead of
    /// allocating fresh `Predictions` (queue-drain sizes fluctuate in the
    /// serve steady state).
    pub(crate) spare: Vec<Predictions>,
    /// The decoded prediction of every class logit row of the last
    /// forward, which each node of the class copies.
    pub(crate) decoded: Vec<ClassPrediction>,
}

impl BatchScratch {
    /// The merged graph assembled by the last batch build.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The merged feature matrix assembled by the last batch build.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Node offset of each constituent in the merged graph.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    fn fill_offsets(&mut self, sizes: impl Iterator<Item = usize>) -> usize {
        self.offsets.clear();
        let mut base = 0usize;
        for n in sizes {
            self.offsets.push(base);
            base += n;
        }
        base
    }
}

/// Streams several AIGs into one disjoint-union graph and feature matrix,
/// writing into caller-owned scratch: edges go straight from the AIGs
/// into the reused CSR arrays and features are encoded directly at their
/// merged row offsets — nothing per-constituent is materialised.
///
/// # Panics
///
/// Panics if `aigs` is empty.
pub fn assemble_batch_into(
    aigs: &[&Aig],
    mode: FeatureMode,
    direction: Direction,
    ws: &mut BatchScratch,
) {
    assert!(!aigs.is_empty(), "batch must be non-empty");
    let total = ws.fill_offsets(aigs.iter().map(|a| a.num_nodes()));
    ws.features.reset(total, FEATURE_DIM);
    let BatchScratch {
        graph,
        features,
        offsets,
        ..
    } = ws;
    for (aig, &off) in aigs.iter().zip(offsets.iter()) {
        write_features_at(aig, mode, features, off);
    }
    // Constituents occupy disjoint contiguous node ranges with no
    // cross-constituent edges — exactly the sectioned contract, so the
    // graph keeps one section per constituent for the forward to cut at.
    Graph::from_sections_into(
        total,
        direction,
        aigs.len(),
        |i| (offsets[i], aigs[i].num_nodes()),
        |i, sink| {
            let off = offsets[i] as u32;
            aigs[i].for_each_edge(|s, d| sink(s.as_u32() + off, d.as_u32() + off));
        },
        graph,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_circuits::csa_multiplier;

    #[test]
    fn labelled_graph_is_consistent() {
        let m = csa_multiplier(3);
        let (data, analysis) = labelled_graph(
            &m.aig,
            FeatureMode::StructuralFunctional,
            Direction::Bidirectional,
        );
        data.validate(3);
        assert_eq!(data.graph.num_nodes(), m.aig.num_nodes());
        // bidirectional: 2 aggregation edges per fanin edge
        assert_eq!(data.graph.num_edges(), 2 * 2 * m.aig.num_ands());
        assert_eq!(analysis.adders.len(), 6); // 3 FA + 3 HA (paper Fig. 3)
    }

    /// The zero-copy assembly (features written straight into the merged
    /// matrix, edges streamed into reused CSR arrays) holds every part
    /// exactly as its own `build_graph` / `build_features` would, shifted
    /// to its offset — including when the scratch is reused across
    /// differently sized batches.
    #[test]
    fn assemble_batch_into_matches_per_part_builds() {
        let m1 = csa_multiplier(2);
        let m2 = csa_multiplier(3);
        let m3 = csa_multiplier(4);
        let mode = FeatureMode::StructuralFunctional;
        let mut ws = BatchScratch::default();
        for aigs in [vec![&m2.aig, &m3.aig, &m1.aig], vec![&m1.aig, &m2.aig]] {
            assemble_batch_into(&aigs, mode, Direction::Bidirectional, &mut ws);
            let total: usize = aigs.iter().map(|a| a.num_nodes()).sum();
            assert_eq!(ws.graph().num_nodes(), total);
            assert_eq!(ws.features().rows(), total);
            assert_eq!(ws.offsets().len(), aigs.len());
            let mut base = 0usize;
            for (aig, &off) in aigs.iter().zip(ws.offsets()) {
                assert_eq!(off, base);
                let graph = build_graph(aig, Direction::Bidirectional);
                let features = build_features(aig, mode);
                for v in 0..aig.num_nodes() {
                    let shifted: Vec<u32> =
                        graph.neighbors(v).iter().map(|&u| u + off as u32).collect();
                    assert_eq!(ws.graph().neighbors(off + v), &shifted[..], "node {v}");
                    assert_eq!(ws.features().row(off + v), features.row(v), "node {v}");
                }
                base += aig.num_nodes();
            }
        }
    }

    #[test]
    fn batching_offsets_edges_and_features() {
        let m1 = csa_multiplier(2);
        let m2 = csa_multiplier(3);
        let x2 = build_features(&m2.aig, FeatureMode::StructuralFunctional);
        let mut ws = BatchScratch::default();
        assemble_batch_into(
            &[&m1.aig, &m2.aig],
            FeatureMode::StructuralFunctional,
            Direction::Bidirectional,
            &mut ws,
        );
        let (g, x, offs) = (ws.graph(), ws.features(), ws.offsets());
        assert_eq!(g.num_nodes(), m1.aig.num_nodes() + m2.aig.num_nodes());
        assert_eq!(offs, &[0, m1.aig.num_nodes()]);
        assert_eq!(g.num_edges(), 4 * (m1.aig.num_ands() + m2.aig.num_ands()));
        // Features of the second part sit at the offset.
        assert_eq!(x.row(offs[1]), x2.row(0));
        // No cross-part edges: a node of part 1 has no neighbor >= offset.
        for v in 0..m1.aig.num_nodes() {
            assert!(g.neighbors(v).iter().all(|&u| (u as usize) < offs[1]));
        }
    }
}
