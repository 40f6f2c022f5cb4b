//! The Gamora reasoner: train on small netlists, infer node functions on
//! large ones (paper §III).

use crate::dataset::{assemble_batch_into, inference_graph, labelled_graph, BatchScratch};
use crate::features::{FeatureMode, FEATURE_DIM};
use crate::labels::{decode_joint, SINGLE_TASK_CLASSES, TASK_CLASSES};
use gamora_aig::Aig;
use gamora_gnn::loss::argmax;
use gamora_gnn::{
    for_each_group, train, Direction, ForwardObserver, Graph, GraphData, InferenceScratch, Matrix,
    ModelConfig, MultiTaskSage, TrainConfig, TrainReport,
};
use std::time::Instant;

/// Wall times of the phases inside one batched prediction, in microseconds
/// (see [`GamoraReasoner::predict_batch_into_timed`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchTimings {
    /// Streaming the AIGs into the merged batch graph + feature matrix.
    pub assemble_micros: u64,
    /// The GNN forward pass over the merged graph.
    pub forward_micros: u64,
    /// Argmax decode of each netlist's rows of the logits into its own
    /// predictions.
    pub split_micros: u64,
}

/// Model capacity presets (paper §IV-A).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ModelDepth {
    /// 4 layers, 32 hidden channels — CSA multipliers and simple mapping.
    #[default]
    Shallow,
    /// 8 layers, 80 hidden channels — Booth multipliers and complex
    /// mapping.
    Deep,
    /// Explicit layer count and hidden width.
    Custom {
        /// Number of SAGE layers.
        layers: usize,
        /// Hidden channel width.
        hidden: usize,
    },
}

impl ModelDepth {
    /// `(layers, hidden)` of the preset — the one table both the model
    /// that is built and [`inference_memory_estimate`] read.
    pub fn dims(self) -> (usize, usize) {
        match self {
            ModelDepth::Shallow => (4, 32),
            ModelDepth::Deep => (8, 80),
            ModelDepth::Custom { layers, hidden } => (layers, hidden),
        }
    }
}

/// Configuration of a [`GamoraReasoner`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ReasonerConfig {
    /// Model capacity preset.
    pub depth: ModelDepth,
    /// Feature encoding (full or structural-only ablation).
    pub feature_mode: FeatureMode,
    /// Message-passing direction over AIG edges.
    pub direction: Direction,
    /// Multi-task heads (paper default) vs collapsed single-task ablation.
    pub multi_task: bool,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for ReasonerConfig {
    fn default() -> Self {
        ReasonerConfig {
            depth: ModelDepth::Shallow,
            feature_mode: FeatureMode::StructuralFunctional,
            direction: Direction::Bidirectional,
            multi_task: true,
            seed: 0xDAC23,
        }
    }
}

impl ReasonerConfig {
    pub(crate) fn model_config(&self) -> ModelConfig {
        let (layers, hidden) = self.depth.dims();
        ModelConfig {
            in_dim: FEATURE_DIM,
            hidden,
            layers,
            shared_dim: 32,
            task_classes: if self.multi_task {
                TASK_CLASSES.to_vec()
            } else {
                vec![SINGLE_TASK_CLASSES]
            },
            seed: self.seed,
        }
    }
}

/// Per-node predictions for the three reasoning tasks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Predictions {
    /// Task 1: root/leaf class index per node (see
    /// [`gamora_exact::RootLeafClass`]).
    pub root_leaf: Vec<u32>,
    /// Task 2: XOR-function flag per node.
    pub is_xor: Vec<bool>,
    /// Task 3: MAJ-function flag per node.
    pub is_maj: Vec<bool>,
}

impl Predictions {
    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.root_leaf.len()
    }
}

/// Node-level accuracy of a prediction against exact ground truth.
#[derive(Copy, Clone, Debug)]
pub struct EvalReport {
    /// Accuracy per task (root/leaf, XOR, MAJ).
    pub task_accuracy: [f64; 3],
    /// Nodes evaluated.
    pub num_nodes: usize,
}

impl EvalReport {
    /// Mean accuracy over the three tasks — the single number the paper's
    /// figures plot.
    pub fn mean(&self) -> f64 {
        self.task_accuracy.iter().sum::<f64>() / 3.0
    }
}

impl std::fmt::Display for EvalReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acc: root/leaf {:.2}% | xor {:.2}% | maj {:.2}% | mean {:.2}% ({} nodes)",
            self.task_accuracy[0] * 100.0,
            self.task_accuracy[1] * 100.0,
            self.task_accuracy[2] * 100.0,
            self.mean() * 100.0,
            self.num_nodes
        )
    }
}

/// The trained (or trainable) Gamora model with its preprocessing pipeline.
#[derive(Clone, Debug)]
pub struct GamoraReasoner {
    config: ReasonerConfig,
    model: MultiTaskSage,
}

impl GamoraReasoner {
    /// Creates an untrained reasoner.
    pub fn new(config: ReasonerConfig) -> GamoraReasoner {
        let model = MultiTaskSage::new(config.model_config());
        GamoraReasoner { config, model }
    }

    /// Creates a zero-weight skeleton with the right shapes for `config`
    /// — for snapshot loaders, which fill every weight and
    /// must not pay the Glorot initialisation of [`GamoraReasoner::new`]
    /// on the cold-start path.
    pub(crate) fn new_zeroed(config: ReasonerConfig) -> GamoraReasoner {
        let model = MultiTaskSage::new_zeroed(config.model_config());
        GamoraReasoner { config, model }
    }

    /// The reasoner's configuration.
    pub fn config(&self) -> &ReasonerConfig {
        &self.config
    }

    /// The underlying model (snapshot serialisation).
    pub(crate) fn model(&self) -> &MultiTaskSage {
        &self.model
    }

    /// Mutable access to the underlying model (weight injection when
    /// loading a snapshot).
    pub(crate) fn model_mut(&mut self) -> &mut MultiTaskSage {
        &mut self.model
    }

    /// Scalar parameter count of the underlying model.
    pub fn num_params(&self) -> usize {
        self.model.num_params()
    }

    /// Trains on a set of netlists; ground truth comes from exact analysis
    /// of each (the role ABC's `&atree` plays in the paper).
    pub fn fit(&mut self, aigs: &[&Aig], cfg: &TrainConfig) -> TrainReport {
        let data: Vec<GraphData> = aigs
            .iter()
            .map(|aig| {
                labelled_graph(
                    aig,
                    self.config.feature_mode,
                    self.config.direction,
                    self.config.multi_task,
                )
                .0
            })
            .collect();
        let mut cfg = cfg.clone();
        if !self.config.multi_task {
            cfg.task_weights = vec![1.0];
        }
        train(&mut self.model, &data, &cfg)
    }

    /// Creates a reusable inference workspace for this reasoner.
    ///
    /// Buffers are sized lazily on first use, so a fresh scratch is cheap;
    /// the point is to *keep* one per worker/thread and pass it to
    /// [`GamoraReasoner::predict_prepared_into`] /
    /// [`GamoraReasoner::predict_batch_into_timed`], which then run
    /// allocation-free once warmed up.
    pub fn scratch(&self) -> InferenceScratch {
        InferenceScratch::default()
    }

    /// Creates a reusable batch-assembly workspace for this reasoner.
    ///
    /// Like [`GamoraReasoner::scratch`], buffers are sized lazily: keep
    /// one per worker and pass it to
    /// [`GamoraReasoner::predict_batch_into_timed`], which then assembles
    /// the merged batch graph and features without heap allocation once
    /// warmed up.
    pub fn batch_scratch(&self) -> BatchScratch {
        BatchScratch::default()
    }

    /// Predicts node functions for a netlist.
    pub fn predict(&self, aig: &Aig) -> Predictions {
        let (graph, features) =
            inference_graph(aig, self.config.feature_mode, self.config.direction);
        let mut out = Predictions::default();
        self.predict_prepared_into(
            &mut InferenceScratch::default(),
            &graph,
            &features,
            &mut out,
        );
        out
    }

    /// The allocation-free single-graph core: predicts on a pre-built
    /// graph into a caller-owned [`Predictions`] through a caller-owned
    /// workspace.
    /// After one warmup call at a given graph size, subsequent calls at
    /// the same or smaller size perform **zero heap allocations** (guarded
    /// by the `alloc_regression` test) while the tensor kernels stay
    /// serial; graphs large enough to cross `gamora_gnn::parallel`'s
    /// per-thread row cutoff spawn scoped worker threads, which allocate.
    pub fn predict_prepared_into(
        &self,
        scratch: &mut InferenceScratch,
        graph: &Graph,
        features: &Matrix,
        out: &mut Predictions,
    ) {
        let logits = self.model.infer(graph, features, scratch, None);
        self.decode_logits(logits, 0..graph.num_nodes(), out);
    }

    /// Argmax-decodes the rows `rows` of the logits — every task's classes
    /// side by side in one row — into per-node predictions.
    fn decode_logits(&self, logits: &Matrix, rows: std::ops::Range<usize>, out: &mut Predictions) {
        out.root_leaf.clear();
        out.is_xor.clear();
        out.is_maj.clear();
        out.root_leaf.reserve_exact(rows.len());
        out.is_xor.reserve_exact(rows.len());
        out.is_maj.reserve_exact(rows.len());
        if self.config.multi_task {
            for r in rows {
                let (root_leaf, rest) = logits.row(r).split_at(TASK_CLASSES[0]);
                let (xor, maj) = rest.split_at(TASK_CLASSES[1]);
                out.root_leaf.push(argmax(root_leaf) as u32);
                out.is_xor.push(argmax(xor) == 1);
                out.is_maj.push(argmax(maj) == 1);
            }
        } else {
            for r in rows {
                let (rl, xor, maj) = decode_joint(argmax(logits.row(r)) as u32);
                out.root_leaf.push(rl);
                out.is_xor.push(xor == 1);
                out.is_maj.push(maj == 1);
            }
        }
    }

    /// Runs batched inference over several netlists in one forward pass
    /// (the paper's Figure 8 batching), returning per-netlist predictions.
    ///
    /// # Panics
    ///
    /// Panics if `aigs` is empty.
    pub fn predict_batch(&self, aigs: &[&Aig]) -> Vec<Predictions> {
        let mut outs = Vec::new();
        self.predict_batch_into_timed(
            &mut BatchScratch::default(),
            &mut InferenceScratch::default(),
            aigs,
            &mut outs,
            None,
        );
        outs
    }

    /// The allocation-free batch core: streams raw AIGs into the merged
    /// batch graph/features held by `batch`, runs one forward pass
    /// through `scratch` — group by group of netlists, so the activations
    /// it holds are sized by a group and not by the batch (see
    /// [`MultiTaskSage::infer`]) — and decodes each netlist's rows of the
    /// logits straight into its caller-owned output (capacity reused;
    /// entries trimmed by a smaller batch park in `batch`'s spare pool and
    /// come back when the batch grows again). After one warmup batch at a
    /// given size, the entire pipeline — graph construction included —
    /// performs **zero heap allocations** at the same or smaller sizes,
    /// even with fluctuating batch sizes, while the kernels stay on their
    /// serial path (see [`GamoraReasoner::predict_prepared_into`]); guarded
    /// by the `alloc_regression` test.
    ///
    /// Returns the wall time of batch assembly, GNN forward and prediction
    /// decode, and reports per-layer forward stages to `observer` when one
    /// is given. The timing overhead is a handful of monotonic clock
    /// reads per *batch* (two per forward stage and group when observed)
    /// — nothing per node — so the serve path can stay instrumented
    /// permanently (guarded by the `metrics_overhead` test).
    ///
    /// # Panics
    ///
    /// Panics if `aigs` is empty.
    pub fn predict_batch_into_timed(
        &self,
        batch: &mut BatchScratch,
        scratch: &mut InferenceScratch,
        aigs: &[&Aig],
        outs: &mut Vec<Predictions>,
        observer: Option<&dyn ForwardObserver>,
    ) -> BatchTimings {
        let assemble_start = Instant::now();
        assemble_batch_into(aigs, self.config.feature_mode, self.config.direction, batch);
        let assemble_micros = assemble_start.elapsed().as_micros() as u64;
        // Resize `outs` without discarding warmed capacity: trimmed
        // entries park in the scratch's spare pool and are reused on
        // regrowth (serve queue-drain sizes fluctuate batch to batch).
        while outs.len() > aigs.len() {
            batch.spare.push(outs.pop().expect("len checked"));
        }
        while outs.len() < aigs.len() {
            outs.push(batch.spare.pop().unwrap_or_default());
        }
        let forward_start = Instant::now();
        let logits = self
            .model
            .infer(&batch.graph, &batch.features, scratch, observer);
        let forward_micros = forward_start.elapsed().as_micros() as u64;
        let decode_start = Instant::now();
        for ((out, &aig), &start) in outs.iter_mut().zip(aigs).zip(&batch.offsets) {
            self.decode_logits(logits, start..start + aig.num_nodes(), out);
        }
        BatchTimings {
            assemble_micros,
            forward_micros,
            split_micros: decode_start.elapsed().as_micros() as u64,
        }
    }

    /// Number of SAGE trunk layers in the underlying model (sizing the
    /// per-layer forward-timing histograms in the serve layer).
    pub fn num_layers(&self) -> usize {
        self.model.config().layers
    }

    /// Predicts and scores against exact ground truth.
    pub fn evaluate(&self, aig: &Aig) -> EvalReport {
        let preds = self.predict(aig);
        let analysis = gamora_exact::analyze(aig);
        score_predictions(&preds, &analysis.labels)
    }
}

/// Scores predictions against exact labels, task by task.
///
/// # Panics
///
/// Panics if the node counts differ.
pub fn score_predictions(preds: &Predictions, labels: &gamora_exact::Labels) -> EvalReport {
    let n = labels.num_nodes();
    assert_eq!(preds.num_nodes(), n, "prediction/label node count mismatch");
    let mut correct = [0usize; 3];
    for i in 0..n {
        if preds.root_leaf[i] == labels.root_leaf[i].as_index() as u32 {
            correct[0] += 1;
        }
        if preds.is_xor[i] == labels.is_xor[i] {
            correct[1] += 1;
        }
        if preds.is_maj[i] == labels.is_maj[i] {
            correct[2] += 1;
        }
    }
    EvalReport {
        task_accuracy: [
            correct[0] as f64 / n.max(1) as f64,
            correct[1] as f64 / n.max(1) as f64,
            correct[2] as f64 / n.max(1) as f64,
        ],
        num_nodes: n,
    }
}

/// Estimated heap a batched prediction holds, in bytes, for netlists of
/// `job_nodes` nodes each and `num_edges` aggregation edges in all
/// ([`Graph::num_edges`]: two per AIG edge under
/// [`Direction::Bidirectional`]) — the analytic model behind the Figure 8
/// memory column. Two kinds of term:
///
/// - **per node of the batch**: the feature row, the CSR arrays (two
///   `u32` offset arrays and the inverse degrees per node, one neighbour
///   per edge — the reverse adjacency is training's), the one
///   `nodes x Σclasses` logit matrix and the decoded predictions;
/// - **per group** ([`for_each_group`]): the two ping-pong embeddings of
///   the largest run of netlists the forward takes through the model
///   together, and the one row block the layers and the fused shared +
///   heads tail work in ([`ModelConfig::block_bytes`], on the serial
///   path). This is the part that does not grow with the batch.
pub fn inference_memory_estimate(
    config: &ReasonerConfig,
    job_nodes: &[usize],
    num_edges: usize,
) -> usize {
    const F32: usize = 4;
    let model = config.model_config();
    let classes: usize = model.task_classes.iter().sum();
    let num_nodes: usize = job_nodes.iter().sum();
    let per_node = FEATURE_DIM * F32        // features
        + 3 * 4                             // offsets, cursor, 1/degree
        + classes * F32                     // logits
        + 4 + 1 + 1; // root/leaf class, XOR flag, MAJ flag
    let mut group_rows = 0;
    for_each_group(model.group_rows(), job_nodes.iter().copied(), |lo, hi| {
        group_rows = group_rows.max(hi - lo)
    });
    num_nodes * per_node + num_edges * 4 + group_rows * 2 * model.hidden * F32 + model.block_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_circuits::csa_multiplier;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 150,
            lr: 1e-2,
            task_weights: vec![0.8, 1.0, 1.0],
            log_every: 0,
        }
    }

    #[test]
    fn overfits_small_multiplier() {
        let m = csa_multiplier(4);
        let mut reasoner = GamoraReasoner::new(ReasonerConfig {
            depth: ModelDepth::Custom {
                layers: 3,
                hidden: 16,
            },
            ..ReasonerConfig::default()
        });
        reasoner.fit(&[&m.aig], &quick_cfg());
        let report = reasoner.evaluate(&m.aig);
        assert!(report.mean() > 0.9, "{report}");
    }

    #[test]
    fn generalises_across_sizes_cheaply() {
        // Train on 4-bit, evaluate on 8-bit: even a quick run must beat
        // the majority-class baseline by a wide margin.
        let train_m = csa_multiplier(4);
        let mut reasoner = GamoraReasoner::new(ReasonerConfig {
            depth: ModelDepth::Custom {
                layers: 3,
                hidden: 16,
            },
            ..ReasonerConfig::default()
        });
        reasoner.fit(&[&train_m.aig], &quick_cfg());
        let report = reasoner.evaluate(&csa_multiplier(8).aig);
        assert!(report.mean() > 0.8, "{report}");
    }

    #[test]
    fn single_task_predictions_decode() {
        let m = csa_multiplier(3);
        let mut reasoner = GamoraReasoner::new(ReasonerConfig {
            multi_task: false,
            depth: ModelDepth::Custom {
                layers: 2,
                hidden: 8,
            },
            ..ReasonerConfig::default()
        });
        reasoner.fit(
            &[&m.aig],
            &TrainConfig {
                epochs: 5,
                ..quick_cfg()
            },
        );
        let preds = reasoner.predict(&m.aig);
        assert_eq!(preds.num_nodes(), m.aig.num_nodes());
        assert!(preds.root_leaf.iter().all(|&c| c < 4));
    }

    /// One scratch workspace and one output reused across differently
    /// sized netlists yield predictions bit-identical to fresh-scratch
    /// calls.
    #[test]
    fn reused_scratch_is_bit_identical() {
        let m1 = csa_multiplier(3);
        let m2 = csa_multiplier(5);
        let mut reasoner = GamoraReasoner::new(ReasonerConfig {
            depth: ModelDepth::Custom {
                layers: 2,
                hidden: 8,
            },
            ..ReasonerConfig::default()
        });
        reasoner.fit(
            &[&m1.aig],
            &TrainConfig {
                epochs: 10,
                ..quick_cfg()
            },
        );
        let mut scratch = reasoner.scratch();
        let mut out = Predictions::default();
        // Big netlist first, then a smaller one into the same buffers,
        // then the small one again (refill without drift).
        for aig in [&m2.aig, &m1.aig, &m1.aig] {
            let (graph, features) = inference_graph(
                aig,
                reasoner.config().feature_mode,
                reasoner.config().direction,
            );
            reasoner.predict_prepared_into(&mut scratch, &graph, &features, &mut out);
            assert_eq!(out, reasoner.predict(aig));
        }
    }

    #[test]
    fn batch_predictions_match_individual() {
        let m1 = csa_multiplier(3);
        let m2 = csa_multiplier(4);
        let mut reasoner = GamoraReasoner::new(ReasonerConfig {
            depth: ModelDepth::Custom {
                layers: 2,
                hidden: 8,
            },
            ..ReasonerConfig::default()
        });
        reasoner.fit(
            &[&m1.aig],
            &TrainConfig {
                epochs: 10,
                ..quick_cfg()
            },
        );
        let batched = reasoner.predict_batch(&[&m1.aig, &m2.aig]);
        let solo1 = reasoner.predict(&m1.aig);
        let solo2 = reasoner.predict(&m2.aig);
        assert_eq!(batched[0].root_leaf, solo1.root_leaf);
        assert_eq!(batched[1].root_leaf, solo2.root_leaf);
        assert_eq!(batched[1].is_xor, solo2.is_xor);
    }

    /// Past one group the estimate is linear in the batch, in a step that
    /// leaves the activations out — they are a per-group term — while a
    /// single netlist of the same size pays for two hidden-wide rows for
    /// every one of its rows, and nothing more.
    #[test]
    fn memory_estimate_scales_linearly() {
        let cfg = ReasonerConfig::default();
        let est =
            |jobs: &[usize]| inference_memory_estimate(&cfg, jobs, 4 * jobs.iter().sum::<usize>());
        // 2048 rows a group under the shallow model: two of these netlists.
        let step = est(&[1_000; 16]) - est(&[1_000; 8]);
        assert_eq!(est(&[1_000; 24]) - est(&[1_000; 16]), step);
        assert!(
            step < 8 * est(&[1_000]) / 2,
            "eight more netlists, no more activations"
        );
        assert_eq!(est(&[8_000]) - est(&[1_000; 8]), 6_000 * 2 * 32 * 4);
    }
}
