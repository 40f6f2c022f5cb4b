//! The Gamora reasoner: train on small netlists, infer node functions on
//! large ones (paper §III).

use crate::dataset::{assemble_batch_into, labelled_graph, BatchScratch};
use crate::features::{FeatureMode, FEATURE_DIM};
use crate::labels::TASK_CLASSES;
use gamora_aig::Aig;
use gamora_gnn::loss::argmax;
use gamora_gnn::{
    for_each_group, train, Direction, ForwardObserver, GraphData, InferenceScratch, ModelConfig,
    MultiTaskSage, TrainConfig, TrainReport,
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
///
/// The task layout is not a setting: every model has one head per task,
/// sized by [`TASK_CLASSES`]. Fig. 4's collapsed single-task formulation
/// scored no better on this substrate (`REPRO.md`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ReasonerConfig {
    /// Model capacity preset.
    pub depth: ModelDepth,
    /// Feature encoding (full or structural-only ablation).
    pub feature_mode: FeatureMode,
    /// Message-passing direction over AIG edges.
    pub direction: Direction,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for ReasonerConfig {
    fn default() -> Self {
        ReasonerConfig {
            depth: ModelDepth::Shallow,
            feature_mode: FeatureMode::StructuralFunctional,
            direction: Direction::Bidirectional,
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
            task_classes: TASK_CLASSES.to_vec(),
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
            .map(|aig| labelled_graph(aig, self.config.feature_mode, self.config.direction).0)
            .collect();
        train(&mut self.model, &data, cfg)
    }

    /// Predicts node functions for a netlist: a batch of one.
    pub fn predict(&self, aig: &Aig) -> Predictions {
        let mut outs = self.predict_batch(&[aig]);
        outs.pop().expect("one prediction per netlist")
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
    /// serial path (one kernel thread, or a batch below
    /// `gamora_gnn::parallel`'s per-thread row cutoff; above it, the
    /// scoped worker threads spawned per call allocate); guarded by the
    /// `alloc_regression` test. Keep one `batch` and one `scratch` per
    /// worker: both start empty (`Default`) and grow on first use.
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
        let decoded = &mut batch.decoded;
        decoded.clear();
        decoded.reserve_exact(logits.class_rows().len());
        decoded.extend(logits.class_rows().map(ClassPrediction::decode));
        for ((out, &aig), &start) in outs.iter_mut().zip(aigs).zip(&batch.offsets) {
            let rows = &logits.row_of()[start..start + aig.num_nodes()];
            copy_class_predictions(decoded, rows, out);
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

/// The argmax decode of one class logit row — every task's classes side
/// by side — which every node of the class copies: the root/leaf class in
/// the low bits, the XOR and MAJ flags in the top two.
#[derive(Copy, Clone, Debug)]
pub(crate) struct ClassPrediction(u8);

impl ClassPrediction {
    const XOR: u8 = 1 << 6;
    const MAJ: u8 = 1 << 7;

    fn decode(row: &[f32]) -> ClassPrediction {
        let (root_leaf, rest) = row.split_at(TASK_CLASSES[0]);
        let (xor, maj) = rest.split_at(TASK_CLASSES[1]);
        let flag = |task: &[f32], bit: u8| if argmax(task) == 1 { bit } else { 0 };
        ClassPrediction(argmax(root_leaf) as u8 | flag(xor, Self::XOR) | flag(maj, Self::MAJ))
    }
}

// A root/leaf class fits below the two flag bits.
const _: () = assert!(TASK_CLASSES[0] <= ClassPrediction::XOR as usize);

/// Gives every node of one netlist the decoded prediction of its class
/// row (`rows`, in node order).
fn copy_class_predictions(decoded: &[ClassPrediction], rows: &[u32], out: &mut Predictions) {
    out.root_leaf.clear();
    out.is_xor.clear();
    out.is_maj.clear();
    out.root_leaf.reserve_exact(rows.len());
    out.is_xor.reserve_exact(rows.len());
    out.is_maj.reserve_exact(rows.len());
    for &r in rows {
        let ClassPrediction(class) = decoded[r as usize];
        out.root_leaf
            .push(u32::from(class & (ClassPrediction::XOR - 1)));
        out.is_xor.push(class & ClassPrediction::XOR != 0);
        out.is_maj.push(class & ClassPrediction::MAJ != 0);
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
/// ([`gamora_gnn::Graph::num_edges`]: two per AIG edge under
/// [`Direction::Bidirectional`]), whose forward found `classes` classes per
/// refinement round (what [`InferenceScratch::classes`] reports after the
/// pass), with `kernel_threads` kernel threads — the analytic model behind
/// the Figure 8 memory column. Three kinds of term:
///
/// - **per node of the batch**: the feature row, the CSR arrays (a `u32`
///   offset per node, one neighbour per edge — the inverse degrees and the
///   reverse adjacency are training's), the row of the node's class in the
///   class logits and the decoded predictions;
/// - **per class row**: a logit row of `Σclasses` floats and its decoded
///   prediction, for the last round's classes of every group (at most its
///   rows);
/// - **per group** ([`for_each_group`]): what the forward holds for the
///   largest run of netlists it takes through the model together
///   ([`ModelConfig::group_bytes`]: the colour refinement's arrays, two
///   matrices of class rows and a row block per kernel thread). This is
///   the part that does not grow with the batch. A lone group forks its
///   kernels to the threads; several groups are dealt to them, and each
///   thread then holds a group's buffers and a share of the class logits.
pub fn inference_memory_estimate(
    config: &ReasonerConfig,
    job_nodes: &[usize],
    num_edges: usize,
    classes: &[usize],
    kernel_threads: usize,
) -> usize {
    const F32: usize = 4;
    let model = config.model_config();
    let logit_width: usize = model.task_classes.iter().sum();
    let num_nodes: usize = job_nodes.iter().sum();
    let per_node = FEATURE_DIM * F32        // features
        + 4                                 // offsets
        + 4                                 // class row
        + 4 + 1 + 1; // root/leaf class, XOR flag, MAJ flag
    let per_class_row = logit_width * F32 + std::mem::size_of::<ClassPrediction>();
    let last = classes.last().copied().unwrap_or(0);
    let (mut group_rows, mut groups, mut class_rows) = (0, 0, 0);
    for_each_group(model.group_rows(), job_nodes.iter().copied(), |lo, hi| {
        group_rows = group_rows.max(hi - lo);
        groups += 1;
        class_rows += last.min(hi - lo);
    });
    let group_edges = num_edges * group_rows / num_nodes.max(1);
    let lanes = gamora_gnn::parallel::threads_for(num_nodes, kernel_threads).min(groups.max(1));
    let (group, logits) = if lanes > 1 {
        let group = lanes * model.group_bytes(group_rows, group_edges, classes, 1);
        (
            group,
            class_rows * per_class_row + class_rows * logit_width * F32 * (lanes - 1) / lanes,
        )
    } else {
        let group = model.group_bytes(group_rows, group_edges, classes, kernel_threads);
        (group, class_rows * per_class_row)
    };
    num_nodes * per_node + num_edges * 4 + logits + group
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

    /// One batch and one inference scratch, and one output, reused across
    /// one-netlist batches of different sizes yield predictions
    /// bit-identical to fresh `predict` calls.
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
        let mut batch = BatchScratch::default();
        let mut scratch = InferenceScratch::default();
        let mut outs = Vec::new();
        // Big netlist first, then a smaller one into the same buffers,
        // then the small one again (refill without drift).
        for aig in [&m2.aig, &m1.aig, &m1.aig] {
            reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &[aig], &mut outs, None);
            assert_eq!(outs, [reasoner.predict(aig)]);
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
    /// leaves the forward's group terms out, while a single netlist of the
    /// same size pays for the two class arrays of every one of its rows and
    /// holds one group's class logit rows instead of four, and nothing
    /// more when its rounds find as many classes.
    #[test]
    fn memory_estimate_scales_linearly() {
        let cfg = ReasonerConfig::default();
        let classes = [5, 40, 300, 700, 900];
        let est = |jobs: &[usize]| {
            inference_memory_estimate(&cfg, jobs, 4 * jobs.iter().sum::<usize>(), &classes, 1)
                as isize
        };
        // 2048 rows a group under the shallow model: two of these netlists.
        let step = est(&[1_000; 16]) - est(&[1_000; 8]);
        assert_eq!(est(&[1_000; 24]) - est(&[1_000; 16]), step);
        assert!(
            step < 8 * est(&[1_000]) / 2,
            "eight more netlists, no more activations"
        );
        // Two class arrays a row; 8 logits and a decoded prediction a class
        // row.
        let class_row = 8 * 4 + std::mem::size_of::<ClassPrediction>() as isize;
        assert_eq!(
            est(&[8_000]) - est(&[1_000; 8]),
            6_000 * (4 + 4) - 3 * 900 * class_row
        );
    }
}
