//! The multi-task GraphSAGE model of the paper (§III-B).
//!
//! `K` GraphSAGE layers produce node embeddings that fuse structural and
//! functional information; a shared linear layer (hard parameter sharing)
//! feeds one softmax classification head per task. The paper's two
//! configurations — a *shallow* 4-layer / 32-hidden model for CSA
//! multipliers and a *deep* 8-layer / 80-hidden model for Booth
//! multipliers and complex technology mapping — are the pipeline crate's
//! `gamora::ModelDepth::dims()` presets.
//!
//! **The inference forward is group-major.** The paper merges a batch of
//! netlists into one graph to fill a GPU; on a CPU, running one layer over
//! every row of the union before the next streams each activation matrix
//! through the cache once per layer. A union's sections share no edges
//! ([`Graph::from_sections_into`]), so [`MultiTaskSage::infer`] cuts the
//! node range into groups of whole sections whose activations fit
//! [`GROUP_BYTES`] per matrix, and takes one group through every trunk
//! layer, the shared layer and the heads before it touches the next: the
//! two ping-pong embedding buffers are group-sized, stay cache-resident
//! from layer to layer, and only the per-node inputs and outputs
//! (features, CSR, each node's class row) and the class logits scale with
//! the batch. A row's arithmetic does
//! not depend on which rows are computed with it, so the logits are
//! bit-identical to those of the union taken whole, or of each section on
//! its own. A graph with one section is one group — the layer-major order
//! — and so is a section larger than the budget.
//!
//! **A group goes through the model on its quotient.** Nodes whose
//! feature rows, degrees and neighbours' rows agree, neighbour by neighbour
//! in CSR order, get bit-identical rows from a layer, so layer `l` computes
//! one row per class of round `l + 1` of the group's colour refinement
//! ([`crate::refine`]), from the class's representative: its self row is
//! gathered from the previous round's class rows, its neighbour mean runs
//! over the quotient adjacency (the representative's CSR row with
//! neighbours replaced by their classes). Each class row gets exactly the
//! operations the representative's row would get in the row-per-node
//! forward, and so does every member, so the logits are bit-identical to
//! [`MultiTaskSage::forward_train`]'s. The two activation buffers hold
//! class rows, not node rows: on the 256-bit CSA, 10% of the trunk's rows.
//! Once a round's classes reach a fixed share of the group's rows, the
//! later rounds are the identity partition, through the same code.
//!
//! **The tail is fused:** the last trunk layer, the shared layer and the
//! heads run one row block at a time ([`FusedLinears::forward_rows_after`])
//! on the last round's classes — 31% of the rows on the 256-bit CSA — so
//! neither the last layer's rows nor the shared layer's are ever written
//! out. What the pass returns ([`Logits`]) is one logit row per class of
//! every group's last round, every task's logits a column range, and for
//! every node the row of its class: no node copies a logit row, and a
//! decoder can take each class row's argmax once.

use crate::graph::Graph;
use crate::kernel::{Rows, BLOCK_ROWS};
use crate::layers::{BackwardScratch, FusedLinears, Linear, SageLayer, SageScratch, SageTape};
use crate::parallel;
use crate::refine::{table_slots, Refinement};
use crate::tensor::{clear_exact, grow_within, Matrix};
use rand::SeedableRng;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// The training workspace: every activation
/// [`MultiTaskSage::forward_train`] computes — each layer writes its
/// output here and the next layer reads it from here — and the buffers
/// [`MultiTaskSage::backward`] threads its gradients through.
///
/// The tape is owned by the trainer (not the model), so the model itself
/// stays immutable through the forward pass and can be shared across
/// threads. Buffers are reused across training steps: once they have
/// grown to the largest training graph, a step allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Tape {
    sage: Vec<SageTape>,
    /// The shared layer's output.
    z: Matrix,
    logits: Vec<Matrix>,
    /// The gradient w.r.t. the output of the layer the backward pass is
    /// at, and the one it writes w.r.t. that layer's input: swapped from
    /// layer to layer.
    grad_out: Matrix,
    grad_in: Matrix,
    ws: BackwardScratch,
}

/// Bytes one activation matrix of a group may occupy (see the module
/// docs): groups of whole sections are filled up to this, so the
/// ping-pong embeddings and a layer's weights sit in L2 together while a
/// group goes through the model. A constant from measurement on this
/// repository's benchmark host (2 MiB of L2 a core), like the kernels'
/// tile sizes, not a setting: the forward over a batch of small netlists
/// reads 339–346 ns/node at 2^16, 343–352 at 2^18, 352–355 at 2^19,
/// 365–367 at 2^20 and 382 at 2^21, against 455–500 layer by layer over
/// the whole batch (README, "Batches").
const GROUP_BYTES: usize = 1 << 18;

/// Cuts consecutive sections of `section_rows` rows each into the groups
/// the inference forward runs one after the other, calling
/// `each(first_row, end_row)` for every group in order: a group takes
/// whole sections for as long as it stays within `budget_rows`
/// ([`ModelConfig::group_rows`]); a section larger than that is a group of
/// its own.
pub fn for_each_group(
    budget_rows: usize,
    section_rows: impl IntoIterator<Item = usize>,
    mut each: impl FnMut(usize, usize),
) {
    let (mut lo, mut hi) = (0, 0);
    for rows in section_rows {
        if hi > lo && hi + rows - lo > budget_rows {
            each(lo, hi);
            lo = hi;
        }
        hi += rows;
    }
    if hi > lo {
        each(lo, hi);
    }
}

/// The buffers one group of sections goes through the model in. There is
/// one lane per kernel thread that takes groups; a serial pass uses the
/// first.
#[derive(Clone, Debug, Default)]
struct Lane {
    ws: SageScratch,
    /// The class rows of the even refinement rounds short of the last
    /// (round 0's are feature rows) and of the odd ones: a layer reads one
    /// and writes the other, and each keeps its rounds from pass to pass,
    /// so a warm pass finds both at their high-water size. The last
    /// round's rows live in the fused tail's row blocks only.
    rows: [Matrix; 2],
    refine: Refinement,
    logits: ClassLogits,
    /// Nanoseconds per stage (trunk layers, shared, heads), summed over
    /// the groups this lane took in the current pass.
    stage_ns: Vec<u64>,
    /// Classes per round, the most of any group this lane took in the
    /// current pass.
    classes: Vec<usize>,
}

/// The class logit rows of the groups a lane took, in order, in the first
/// `len` floats; on a forked pass, the first lane's then take the other
/// lanes' after its own.
#[derive(Clone, Debug, Default)]
struct ClassLogits {
    data: Vec<f32>,
    len: usize,
}

impl ClassLogits {
    /// `rows` more rows of `width` floats after the ones written, the
    /// buffer grown by doubling but never past `bound` rows in all — a
    /// bound of the rows still to come in this pass, so that it ends no
    /// larger than a row per node would be.
    fn more(&mut self, rows: usize, width: usize, bound: usize) -> &mut [f32] {
        let (from, to) = (self.len, self.len + rows * width);
        if self.data.len() < to {
            grow_within(&mut self.data, to, from + bound * width);
            self.data.resize(to, 0.0);
        }
        self.len = to;
        &mut self.data[from..to]
    }
}

/// Reusable per-worker buffers for allocation-free inference: per lane,
/// a group's colour refinement and quotient adjacency, two ping-pong
/// embedding matrices with one row per *class* of the largest group seen
/// (of every round but the last), the row block each kernel thread
/// aggregates in and holds the fused tail's last-layer and shared-layer
/// outputs in, and the class logit rows; and the row of every node's class.
///
/// A warmed-up scratch (after one [`MultiTaskSage::infer`] call at a given
/// graph size) lets every subsequent inference at the same or smaller size
/// run without touching the heap. One scratch serves models and graphs of
/// any shape — buffers are resized lazily, reusing capacity, and one that
/// is too small grows to exactly the size asked for, or, for the class
/// logits and the refinement's per-class arrays, by doubling up to what
/// the pass can need.
#[derive(Clone, Debug, Default)]
pub struct InferenceScratch {
    lanes: Vec<Lane>,
    /// Per node, the row of its class in the first lane's logits.
    row_of: Vec<u32>,
    /// Column-concatenated task-head weights (rebuilt every pass).
    heads: FusedLinears,
    /// `(first_row, end_row)` of every group of the current pass.
    groups: Vec<(usize, usize)>,
    /// Classes per round of the last pass, the most of any group.
    classes: Vec<usize>,
}

impl InferenceScratch {
    /// The class count of every refinement round of the last
    /// [`MultiTaskSage::infer`] through this scratch — round 0 (feature
    /// rows) to round `layers`, the most of any group — which sizes the
    /// activations the pass held ([`ModelConfig::group_bytes`]). A round
    /// past [`MultiTaskSage::infer`]'s identity share counts every row of
    /// its group. Empty before the first pass.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }
}

/// The logits of one [`MultiTaskSage::infer`] pass, which live in its
/// scratch: one row per class of every group's last refinement round, each
/// task's classes side by side in task order (columns 0–3, 4–5, 6–7 for
/// `[4, 2, 2]`), and for every node the row of its class. A node's row is
/// bit for bit its row of [`MultiTaskSage::forward_train`]'s logits.
#[derive(Copy, Clone, Debug)]
pub struct Logits<'a> {
    classes: &'a [f32],
    width: usize,
    row_of: &'a [u32],
}

impl<'a> Logits<'a> {
    /// Number of nodes.
    pub fn rows(&self) -> usize {
        self.row_of.len()
    }

    /// Logits per row: every task's classes.
    pub fn cols(&self) -> usize {
        self.width
    }

    /// The logits of node `v`: its class's row.
    pub fn row(&self, v: usize) -> &'a [f32] {
        let r = self.row_of[v] as usize * self.width;
        &self.classes[r..r + self.width]
    }

    /// The class rows, in order: every group's last-round classes, the
    /// groups in node order.
    pub fn class_rows(&self) -> std::slice::ChunksExact<'a, f32> {
        self.classes.chunks_exact(self.width.max(1))
    }

    /// The class row of every node, in node order.
    pub fn row_of(&self) -> &'a [u32] {
        self.row_of
    }
}

/// What the groups of one [`MultiTaskSage::infer`] call share.
#[derive(Copy, Clone)]
struct Pass<'a> {
    model: &'a MultiTaskSage,
    graph: &'a Graph,
    x: &'a Matrix,
    heads: &'a FusedLinears,
    /// Whether stage times are taken (an observer is listening).
    timed: bool,
}

impl Pass<'_> {
    /// Takes `groups` through the whole model, one after the other, in
    /// `lane`'s buffers: every trunk layer but the last, then the last
    /// one, the shared layer and all task heads fused block by block
    /// ([`FusedLinears`]) into the lane's logit rows, and each node's row
    /// into `row_of`, which holds the nodes from `base` on — every node
    /// on a serial pass, one lane's stretch of them on a forked one.
    fn run_groups(
        &self,
        groups: &[(usize, usize)],
        lane: &mut Lane,
        base: usize,
        row_of: &mut [u32],
    ) {
        let Pass {
            model,
            graph,
            x,
            heads,
            timed,
        } = *self;
        let Lane {
            ws,
            rows: [even, odd],
            refine,
            logits,
            stage_ns,
            classes: seen,
        } = lane;
        let trunk = model.sage.len();
        let width = heads.width();
        logits.len = 0;
        stage_ns.clear();
        stage_ns.resize(trunk + 2, 0);
        seen.clear();
        seen.resize(trunk + 1, 0);
        let end = groups.last().map_or(base, |g| g.1);
        for &(lo, hi) in groups {
            // Round 0 and the feature row of each of its classes are the
            // first layer's work, round l + 1 is layer l's.
            let mut started = timed.then(Instant::now);
            refine.features(x, lo, hi);
            even.reshape_for_overwrite(refine.classes(), x.cols());
            for (c, &r) in refine.reps().iter().enumerate() {
                even.row_mut(c).copy_from_slice(x.row(lo + r as usize));
            }
            seen[0] = seen[0].max(refine.classes());
            for (l, layer) in model.sage.iter().enumerate() {
                refine.step(graph, lo);
                seen[l + 1] = seen[l + 1].max(refine.classes());
                if l + 1 == trunk {
                    break;
                }
                let (input, output) = if l % 2 == 0 {
                    (&*even, &mut *odd)
                } else {
                    (&*odd, &mut *even)
                };
                output.reshape_for_overwrite(refine.classes(), model.config.hidden);
                let (adj, own) = refine.quotient();
                layer.forward_quotient(adj, own, Rows::all(input), ws, output.as_mut_slice());
                if let Some(t) = started {
                    let now = Instant::now();
                    stage_ns[l] += (now - t).as_nanos() as u64;
                    started = Some(now);
                }
            }
            // The last round's refinement is the last layer's; the tail
            // takes its classes through that layer, the shared layer and
            // the heads, and every node is given its class's row. The
            // tail's wall time goes to the three in the proportion its
            // blocks' clock reads give them.
            let tail_started = started.map(|t| {
                let now = Instant::now();
                stage_ns[trunk - 1] += (now - t).as_nanos() as u64;
                now
            });
            let split = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
            let h = Rows::all(if trunk % 2 == 1 { &*even } else { &*odd });
            let first = (logits.len / width.max(1)) as u32;
            let out = logits.more(refine.classes(), width, end - lo);
            let last = (&model.sage[trunk - 1], &model.shared);
            heads.forward_rows_after(last, refine.quotient(), h, ws, out, timed.then_some(&split));
            let nodes = &mut row_of[lo - base..hi - base];
            for (row, &class) in nodes.iter_mut().zip(refine.node_classes()) {
                *row = first + class;
            }
            if let Some(t) = tail_started {
                let wall = t.elapsed().as_nanos();
                let spans = split.map(|ns| u128::from(ns.into_inner()));
                let total = spans.iter().sum::<u128>().max(1);
                let mut left = wall;
                for (stage, span) in [trunk - 1, trunk].into_iter().zip(spans) {
                    let ns = wall * span / total;
                    stage_ns[stage] += ns as u64;
                    left -= ns;
                }
                stage_ns[trunk + 1] += left as u64;
            }
        }
    }

    /// [`Pass::run_groups`] with the groups dealt to one scoped thread per
    /// lane — consecutive groups of about equal row counts, so every
    /// thread owns one stretch of the nodes — instead of a fork-join inside
    /// every kernel call. The first lane's logit rows then take the
    /// others', and their nodes' rows move past the first lane's.
    fn fork_groups(&self, groups: &[(usize, usize)], lanes: &mut [Lane], row_of: &mut [u32]) {
        let per_lane = self.x.rows().div_ceil(lanes.len());
        let last = lanes.len() - 1;
        let mut rest = &mut *row_of;
        let mut dealt = 0;
        let mut stretches = Vec::with_capacity(lanes.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(i, lane)| {
                    // At least one group, then whole groups up to this
                    // lane's share of the rows; the last lane takes what
                    // is left.
                    let from = dealt;
                    while dealt < groups.len()
                        && (dealt == from || i == last || groups[dealt].1 <= (i + 1) * per_lane)
                    {
                        dealt += 1;
                    }
                    let mine = &groups[from..dealt];
                    let base = mine.first().map_or(0, |g| g.0);
                    let rows = mine.last().map_or(0, |g| g.1) - base;
                    let (stretch, tail) = std::mem::take(&mut rest).split_at_mut(rows);
                    rest = tail;
                    stretches.push(base..base + rows);
                    s.spawn(move || {
                        // The fork is here: the kernels inside stay serial.
                        parallel::set_intra_threads(1);
                        self.run_groups(mine, lane, base, stretch);
                    })
                })
                .collect();
            for handle in handles {
                // A lane's panic is the call's, message and all.
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let (first, others) = lanes.split_first_mut().expect("one lane at least");
        let ClassLogits { data, len } = &mut first.logits;
        let total = *len + others.iter().map(|lane| lane.logits.len).sum::<usize>();
        data.truncate(*len);
        data.reserve_exact(total - *len);
        for (lane, nodes) in others.iter().zip(&stretches[1..]) {
            let shift = (*len / self.heads.width().max(1)) as u32;
            for row in &mut row_of[nodes.clone()] {
                *row += shift;
            }
            data.extend_from_slice(&lane.logits.data[..lane.logits.len]);
            *len = data.len();
        }
    }
}

/// Hyper-parameters of a [`MultiTaskSage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Input feature width (3 in the paper: node type + two edge
    /// complement flags).
    pub in_dim: usize,
    /// Hidden channel width of every SAGE layer.
    pub hidden: usize,
    /// Number of SAGE layers (the K-hop fusion radius).
    pub layers: usize,
    /// Width of the shared post-embedding linear layer.
    pub shared_dim: usize,
    /// Output classes per task (e.g. `[4, 2, 2]`: root/leaf, XOR, MAJ).
    pub task_classes: Vec<usize>,
    /// RNG seed for weight initialisation.
    pub seed: u64,
}

impl ModelConfig {
    /// Rows per group of the inference forward: as many as keep the
    /// widest activation matrix of a group within 256 KiB, a measured
    /// constant of this crate.
    pub fn group_rows(&self) -> usize {
        let widest = self.in_dim.max(self.hidden).max(self.shared_dim);
        (GROUP_BYTES / (4 * widest.max(1))).max(1)
    }

    /// Bytes of the row block each kernel thread of the inference forward
    /// works in next to its group's activations: a layer aggregates its
    /// input into one half and gathers its self rows into the other, and
    /// the fused tail holds the last layer's output block beside them and
    /// the shared layer's output in their place on its way into the heads.
    pub fn block_bytes(&self) -> usize {
        let last_in = if self.layers > 1 {
            self.hidden
        } else {
            self.in_dim
        };
        let tail = self.hidden + (2 * last_in).max(self.shared_dim);
        4 * BLOCK_ROWS * (2 * self.in_dim.max(self.hidden)).max(tail)
    }

    /// Bytes one lane of the inference forward holds for a group of `rows`
    /// rows and `edges` aggregation edges whose refinement rounds had
    /// `classes` classes each ([`InferenceScratch::classes`]), with
    /// `threads` kernel threads to fork to:
    ///
    /// - the two ping-pong class-row matrices of every round but the last,
    ///   round 0's feature rows and the even rounds' hidden rows in one,
    ///   the odd rounds' in the other;
    /// - per row, the refinement's two class arrays;
    /// - per class of the largest round, the quotient's offset, inverse
    ///   degree and self row and its neighbours at the group's mean degree;
    /// - per refinement run (one per kernel thread the group's rows fork
    ///   to), a 16-byte key and a representative for each class it finds —
    ///   taken as an even share of the largest round's — and its class
    ///   table of 4-byte slots, all grown by doubling (the keys and
    ///   representatives up to the run's rows); the first run's arrays
    ///   take every class of the group (the table's an upper bound when a
    ///   round ran on the identity partition, which uses no table);
    /// - one row block per kernel thread ([`ModelConfig::block_bytes`]).
    pub fn group_bytes(
        &self,
        rows: usize,
        edges: usize,
        classes: &[usize],
        threads: usize,
    ) -> usize {
        const WORD: usize = 4;
        const KEY: usize = 16;
        let mut matrices = [0usize; 2];
        for (r, &c) in classes.iter().enumerate().take(self.layers) {
            let width = if r == 0 { self.in_dim } else { self.hidden };
            matrices[r % 2] = matrices[r % 2].max(c * width);
        }
        let most = classes.iter().copied().max().unwrap_or(0);
        let runs = parallel::threads_for(rows, threads);
        let per_run = most.div_ceil(runs);
        let grown = per_run.next_power_of_two().min(rows.div_ceil(runs));
        let first_run = (KEY + WORD) * grown.max(most) + WORD * table_slots(most);
        let later_runs = (runs - 1) * ((KEY + WORD) * grown + WORD * table_slots(per_run));
        let refinement = rows * 2 * WORD + first_run + later_runs;
        let quotient = (3 * most + 1) * WORD + most * edges / rows.max(1) * WORD;
        let blocks = parallel::threads_for(most, threads) * self.block_bytes();
        WORD * (matrices[0] + matrices[1]) + refinement + quotient + blocks
    }

    /// `(in_dim, out_dim)` of every linear layer's weight matrix, in
    /// [`MultiTaskSage::linears`] order — what a model of this
    /// configuration holds, computed without building one (snapshot
    /// readers size a file against it before they allocate anything).
    pub fn linear_shapes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let trunk = (0..self.layers).map(|l| {
            let in_dim = if l == 0 { self.in_dim } else { self.hidden };
            (2 * in_dim, self.hidden)
        });
        let shared = (self.hidden, self.shared_dim);
        let heads = self.task_classes.iter().map(|&c| (self.shared_dim, c));
        trunk.chain([shared]).chain(heads)
    }
}

/// A stage of the inference forward pass, as reported to a
/// [`ForwardObserver`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardStage {
    /// One SAGE trunk layer (0-based index).
    Sage(usize),
    /// The shared post-embedding linear layer.
    Shared,
    /// All per-task classification heads together.
    Heads,
}

/// Receives per-stage wall times from [`MultiTaskSage::infer`]. A trunk
/// layer's time ([`ForwardStage::Sage`]`(l)`) includes the refinement
/// round its rows are the classes of — round `l + 1`, and for layer 0
/// round 0 as well — and the quotient adjacency it runs over. The last
/// layer runs inside the fused tail with the shared layer and the heads,
/// row block by row block. The tail's wall time, writing every node's
/// class row included, is split between the three in the proportion of
/// the clock reads around each block's three GEMMs, and the last layer's
/// share is reported as its own `Sage` stage, so the stages stay one per
/// layer.
///
/// This is the seam serving-side observability hooks into: the GNN crate
/// only reports `(stage, micros)` pairs and gains no dependency on any
/// metrics machinery. Implementations must be cheap and allocation-free —
/// they run inside the inference hot path.
pub trait ForwardObserver {
    /// Called once per forward stage with its wall time in microseconds.
    fn record_stage(&self, stage: ForwardStage, micros: u64);
}

/// Multi-task GraphSAGE: shared trunk, shared linear, per-task heads.
#[derive(Clone, Debug)]
pub struct MultiTaskSage {
    config: ModelConfig,
    sage: Vec<SageLayer>,
    shared: Linear,
    heads: Vec<Linear>,
}

impl MultiTaskSage {
    /// Builds a model with Glorot-initialised weights (deterministic in
    /// `config.seed`).
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0` or `task_classes` is empty.
    pub fn new(config: ModelConfig) -> MultiTaskSage {
        Self::build(config, true)
    }

    /// Builds a zero-initialised model skeleton: correct shapes for every
    /// layer, no RNG draws. Snapshot loaders fill every weight anyway,
    /// so this spares cold starts a full Glorot pass over the
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0` or `task_classes` is empty.
    pub fn new_zeroed(config: ModelConfig) -> MultiTaskSage {
        Self::build(config, false)
    }

    fn build(config: ModelConfig, glorot: bool) -> MultiTaskSage {
        assert!(config.layers > 0, "at least one SAGE layer");
        assert!(!config.task_classes.is_empty(), "at least one task");
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut sage = Vec::with_capacity(config.layers);
        for l in 0..config.layers {
            let in_dim = if l == 0 { config.in_dim } else { config.hidden };
            sage.push(if glorot {
                SageLayer::new(in_dim, config.hidden, &mut rng)
            } else {
                SageLayer::new_zeroed(in_dim, config.hidden)
            });
        }
        let shared = if glorot {
            Linear::new(config.hidden, config.shared_dim, true, &mut rng)
        } else {
            Linear::new_zeroed(config.hidden, config.shared_dim, true)
        };
        let heads = config
            .task_classes
            .iter()
            .map(|&c| {
                if glorot {
                    Linear::new(config.shared_dim, c, false, &mut rng)
                } else {
                    Linear::new_zeroed(config.shared_dim, c, false)
                }
            })
            .collect();
        MultiTaskSage {
            config,
            sage,
            shared,
            heads,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of tasks (classification heads).
    pub fn num_tasks(&self) -> usize {
        self.heads.len()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.sage.iter().map(SageLayer::num_params).sum::<usize>()
            + self.shared.num_params()
            + self.heads.iter().map(Linear::num_params).sum::<usize>()
    }

    /// Inference forward pass: per-task logits, one row per node.
    ///
    /// Allocates fresh output matrices; hot loops should hold an
    /// [`InferenceScratch`] and call [`MultiTaskSage::infer`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong feature width or row count.
    pub fn forward(&self, graph: &Graph, x: &Matrix) -> Vec<Matrix> {
        let mut scratch = InferenceScratch::default();
        let logits = self.infer(graph, x, &mut scratch, None);
        let mut c0 = 0;
        let tasks = self.config.task_classes.iter().map(|&c| {
            let rows = (0..logits.rows()).map(|v| logits.row(v));
            let task = rows.flat_map(|row| &row[c0..c0 + c]).copied().collect();
            c0 += c;
            Matrix::from_vec(x.rows(), c, task)
        });
        tasks.collect()
    }

    /// Inference forward pass through caller-owned scratch buffers.
    ///
    /// Returns the logits, which live inside `scratch` (they stay valid
    /// until the next call with the same scratch): one row per class of
    /// every group's last refinement round and the row of every node's
    /// class ([`Logits`]), a node's row bit for bit its row of
    /// [`MultiTaskSage::forward_train`]'s. The graph's sections are taken
    /// through the whole model one cache-sized group at a time, each on
    /// the quotient of its colour refinement (see the module docs);
    /// [`InferenceScratch::classes`] reports the class counts the pass
    /// found. After a warmup call at a given graph size, subsequent calls
    /// perform **zero heap allocations** as long as the kernels stay on
    /// their serial path (one kernel thread, or a graph below
    /// `parallel`'s per-thread row cutoff); above it, the scoped worker
    /// threads spawned per call allocate. With several kernel threads and
    /// several groups the *groups* are dealt to the threads, once per
    /// call; a lone group goes to the row-block-parallel kernels instead.
    ///
    /// When `observer` is `Some`, each trunk layer — with the refinement
    /// round that sizes it, see [`ForwardObserver`] — the shared linear and
    /// the combined heads report their wall time — summed over the groups,
    /// the fused tail's split between the last layer, the shared layer and
    /// the heads by four clock reads per row block — through
    /// [`ForwardObserver::record_stage`], once per stage and call, in order
    /// (two monotonic clock reads per stage and group, no allocations);
    /// when groups ran on several threads, the times are those of the
    /// thread that took longest. When `None`, no clocks are read.
    ///
    /// No fail point is checked here: the serve worker checks its
    /// model-call point before calling in, where it can handle the error.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong feature width or row count.
    pub fn infer<'a>(
        &self,
        graph: &Graph,
        x: &Matrix,
        scratch: &'a mut InferenceScratch,
        observer: Option<&dyn ForwardObserver>,
    ) -> Logits<'a> {
        assert_eq!(x.cols(), self.config.in_dim, "feature width mismatch");
        assert_eq!(x.rows(), graph.num_nodes(), "one feature row per node");
        let InferenceScratch {
            lanes,
            row_of,
            heads,
            groups,
            classes,
        } = scratch;
        heads.gather(&self.heads);
        if row_of.capacity() < x.rows() {
            clear_exact(row_of, x.rows());
        }
        row_of.resize(x.rows(), 0);
        groups.clear();
        for_each_group(self.config.group_rows(), graph.section_rows(), |lo, hi| {
            groups.push((lo, hi))
        });
        let threads = parallel::effective_threads(x.rows()).clamp(1, groups.len().max(1));
        if lanes.len() < threads {
            lanes.resize_with(threads, Lane::default);
        }
        let pass = Pass {
            model: self,
            graph,
            x,
            heads,
            timed: observer.is_some(),
        };
        let lanes = &mut lanes[..threads];
        if threads == 1 {
            pass.run_groups(groups, &mut lanes[0], 0, row_of);
        } else {
            pass.fork_groups(groups, lanes, row_of);
        }
        classes.clear();
        classes.resize(self.sage.len() + 1, 0);
        for lane in lanes.iter() {
            for (most, &c) in classes.iter_mut().zip(&lane.classes) {
                *most = (*most).max(c);
            }
        }
        if let Some(obs) = observer {
            // What the call waited for: the lane that was busy longest.
            let busy = |lane: &&Lane| lane.stage_ns.iter().sum::<u64>();
            let critical = lanes.iter().max_by_key(busy).expect("one lane at least");
            let stages = (0..self.sage.len()).map(ForwardStage::Sage);
            let stages = stages.chain([ForwardStage::Shared, ForwardStage::Heads]);
            for (stage, &ns) in stages.zip(&critical.stage_ns) {
                obs.record_stage(stage, ns / 1_000);
            }
        }
        let ClassLogits { data, len } = &lanes[0].logits;
        Logits {
            classes: &data[..*len],
            width: heads.width(),
            row_of,
        }
    }

    /// Training forward pass: like [`MultiTaskSage::forward`], but every
    /// layer's activations stay on `tape` for [`MultiTaskSage::backward`],
    /// the returned logits included.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong feature width or row count.
    pub fn forward_train<'t>(&self, graph: &Graph, x: &Matrix, tape: &'t mut Tape) -> &'t [Matrix] {
        assert_eq!(x.cols(), self.config.in_dim, "feature width mismatch");
        assert_eq!(x.rows(), graph.num_nodes(), "one feature row per node");
        if tape.sage.len() != self.sage.len() {
            tape.sage.resize_with(self.sage.len(), SageTape::default);
        }
        if tape.logits.len() != self.heads.len() {
            tape.logits.resize_with(self.heads.len(), Matrix::default);
        }
        for (l, layer) in self.sage.iter().enumerate() {
            let (done, rest) = tape.sage.split_at_mut(l);
            let h = done.last().map_or(x, SageTape::output);
            layer.forward_train(graph, h, &mut rest[0]);
        }
        let h = tape.sage.last().expect("at least one layer").output();
        self.shared.forward_into(h, &mut tape.z);
        for (head, logits) in self.heads.iter().zip(&mut tape.logits) {
            head.forward_into(&tape.z, logits);
        }
        &tape.logits
    }

    /// Backward pass from per-task logit gradients, through the
    /// activations the preceding [`MultiTaskSage::forward_train`] of the
    /// same `graph` and `x` left on `tape`. `grads` is consumed: a layer
    /// masks its output gradient in place.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != num_tasks()` or `tape` does not match a
    /// training forward through this model.
    pub fn backward(&mut self, graph: &Graph, x: &Matrix, grads: &mut [Matrix], tape: &mut Tape) {
        assert_eq!(grads.len(), self.heads.len());
        assert_eq!(
            (tape.sage.len(), tape.logits.len()),
            (self.sage.len(), self.heads.len()),
            "tape does not match a training forward through this model"
        );
        let Tape {
            sage,
            z,
            logits,
            grad_out,
            grad_in,
            ws,
        } = tape;
        // d(z) is the heads' input gradients summed in task order.
        let heads = self.heads.iter_mut().zip(grads).zip(&*logits);
        for (t, ((head, g), y)) in heads.enumerate() {
            if t == 0 {
                head.backward(z, y, g, ws, grad_out);
            } else {
                head.backward(z, y, g, ws, grad_in);
                grad_out.add_scaled(grad_in, 1.0);
            }
        }
        let h = sage.last().expect("at least one layer").output();
        self.shared.backward(h, z, grad_out, ws, grad_in);
        for (l, layer) in self.sage.iter_mut().enumerate().rev() {
            std::mem::swap(grad_out, grad_in);
            let h = if l == 0 { x } else { sage[l - 1].output() };
            let dh = (l > 0).then_some(&mut *grad_in);
            layer.backward(graph, h, &sage[l], grad_out, ws, dh);
        }
    }

    /// Clears all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for l in &mut self.sage {
            l.zero_grad();
        }
        self.shared.zero_grad();
        for h in &mut self.heads {
            h.zero_grad();
        }
    }

    /// Calls `visit(parameters, gradients)` for every parameter tensor,
    /// in a stable order, for the optimiser.
    pub fn visit_param_grads(&mut self, visit: &mut dyn FnMut(&mut [f32], &[f32])) {
        for l in &mut self.sage {
            l.visit_param_grads(visit);
        }
        self.shared.visit_param_grads(visit);
        for h in &mut self.heads {
            h.visit_param_grads(visit);
        }
    }

    /// Every linear layer in snapshot order (trunk SAGE linears, shared
    /// linear, task heads) — each contributes its weight tensor then its
    /// bias to the serialised stream, the order of
    /// [`MultiTaskSage::visit_param_grads`].
    pub fn linears(&self) -> Vec<&Linear> {
        let mut out: Vec<&Linear> = Vec::with_capacity(self.sage.len() + 1 + self.heads.len());
        out.extend(self.sage.iter().map(SageLayer::linear));
        out.push(&self.shared);
        out.extend(self.heads.iter());
        out
    }

    /// Mutable counterpart of [`MultiTaskSage::linears`] (snapshot
    /// weight injection).
    pub fn linears_mut(&mut self) -> Vec<&mut Linear> {
        let mut out: Vec<&mut Linear> = Vec::with_capacity(self.sage.len() + 1 + self.heads.len());
        out.extend(self.sage.iter_mut().map(SageLayer::linear_mut));
        out.push(&mut self.shared);
        out.extend(self.heads.iter_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    fn tiny_model() -> MultiTaskSage {
        MultiTaskSage::new(ModelConfig {
            in_dim: 3,
            hidden: 8,
            layers: 2,
            shared_dim: 8,
            task_classes: vec![4, 2, 2],
            seed: 7,
        })
    }

    fn tiny_graph() -> Graph {
        Graph::from_edges(
            6,
            &[(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)],
            Direction::Bidirectional,
        )
    }

    /// Every node's logit row, bit patterns, in node order.
    fn node_bits(logits: Logits<'_>) -> Vec<u32> {
        (0..logits.rows())
            .flat_map(|v| logits.row(v).iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let model = tiny_model();
        let graph = tiny_graph();
        let x = Matrix::zeros(6, 3);
        let logits = model.forward(&graph, &x);
        assert_eq!(logits.len(), 3);
        assert_eq!((logits[0].rows(), logits[0].cols()), (6, 4));
        assert_eq!((logits[1].rows(), logits[1].cols()), (6, 2));
    }

    #[test]
    fn deterministic_construction() {
        let a = tiny_model();
        let b = tiny_model();
        let graph = tiny_graph();
        let x = Matrix::zeros(6, 3);
        let la = a.forward(&graph, &x);
        let lb = b.forward(&graph, &x);
        assert_eq!(la[0].as_slice(), lb[0].as_slice());
    }

    /// A reused scratch produces logits bit-identical to a fresh one,
    /// across graphs of different sizes and both orders (grow-then-shrink
    /// and shrink-then-grow).
    #[test]
    fn infer_with_reused_scratch_matches_forward() {
        let model = tiny_model();
        let mut scratch = InferenceScratch::default();
        for n in [6usize, 11, 4, 9] {
            let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            let graph = Graph::from_edges(n, &edges, Direction::Bidirectional);
            let mut x = Matrix::zeros(n, 3);
            for r in 0..n {
                x.set(r, r % 3, 1.0);
            }
            let expected =
                node_bits(model.infer(&graph, &x, &mut InferenceScratch::default(), None));
            let logits = model.infer(&graph, &x, &mut scratch, None);
            assert_eq!(node_bits(logits), expected, "n = {n}");
        }
    }

    /// The training-mode forward (which detours through the tape) computes
    /// the same logits as inference.
    #[test]
    fn forward_train_matches_inference_logits() {
        let model = tiny_model();
        let graph = tiny_graph();
        let mut x = Matrix::zeros(6, 3);
        for r in 0..6 {
            x.set(r, r % 3, 1.0);
        }
        let mut tape = Tape::default();
        let trained = model.forward_train(&graph, &x, &mut tape);
        let inferred = model.forward(&graph, &x);
        assert_eq!(trained.len(), inferred.len());
        for (a, b) in trained.iter().zip(&inferred) {
            assert_eq!(a, b);
        }
    }

    /// The observed forward pass is bit-identical to the plain one and
    /// reports every stage exactly once, in order — on a graph that is one
    /// group and on a sectioned one that is several, where a stage's time
    /// is the sum over the groups and the stages together cannot exceed
    /// the call's wall time.
    #[test]
    fn infer_with_observer_reports_all_stages() {
        use std::cell::RefCell;
        struct Recorder(RefCell<Vec<(ForwardStage, u64)>>);
        impl ForwardObserver for Recorder {
            fn record_stage(&self, stage: ForwardStage, micros: u64) {
                self.0.borrow_mut().push((stage, micros));
            }
        }
        let model = tiny_model();
        // Rings of one group's worth of rows each: every section is cut
        // off from the next.
        let ring = model.config().group_rows();
        let mut sectioned = Graph::default();
        Graph::from_sections_into(
            3 * ring,
            Direction::Bidirectional,
            3,
            |i| (i * ring, ring),
            |i, sink| {
                for v in 0..ring {
                    sink((i * ring + v) as u32, (i * ring + (v + 1) % ring) as u32);
                }
            },
            &mut sectioned,
        );
        for (graph, groups, threads) in [
            (tiny_graph(), 1, 1),
            (sectioned.clone(), 3, 1),
            (sectioned, 3, 2),
        ] {
            let n = graph.num_nodes();
            let mut x = Matrix::zeros(n, 3);
            for r in 0..n {
                x.set(r, r % 3, 1.0);
            }
            let expected =
                node_bits(model.infer(&graph, &x, &mut InferenceScratch::default(), None));
            let recorder = Recorder(RefCell::new(Vec::new()));
            let mut scratch = InferenceScratch::default();
            parallel::set_intra_threads(threads);
            let started = Instant::now();
            let logits = model.infer(&graph, &x, &mut scratch, Some(&recorder));
            let wall = started.elapsed().as_micros() as u64;
            parallel::set_intra_threads(0);
            assert_eq!(
                node_bits(logits),
                expected,
                "observation must not change the forward"
            );
            assert_eq!(scratch.groups.len(), groups);
            assert_eq!(scratch.lanes.len(), threads, "groups dealt to every thread");
            let (stages, micros): (Vec<_>, Vec<_>) = recorder.0.into_inner().into_iter().unzip();
            assert_eq!(
                stages,
                vec![
                    ForwardStage::Sage(0),
                    ForwardStage::Sage(1),
                    ForwardStage::Shared,
                    ForwardStage::Heads,
                ]
            );
            let staged: u64 = micros.iter().sum();
            assert!(
                staged <= wall,
                "stages {micros:?} exceed the call's {wall} us"
            );
            if groups > 1 && threads == 1 {
                // 49k rows through two 8-wide layers take milliseconds and
                // nearly all of the call: a stage that reported one
                // group's share would fall short.
                assert!(2 * staged >= wall, "stages {micros:?} of a {wall} us call");
            }
        }
    }

    /// Whole sections are packed up to the budget; an oversized section is
    /// a group of its own; empty sections belong to a neighbour.
    #[test]
    fn groups_are_whole_sections_within_the_budget() {
        let cut = |budget: usize, sections: &[usize]| {
            let mut groups = Vec::new();
            for_each_group(budget, sections.iter().copied(), |lo, hi| {
                groups.push((lo, hi))
            });
            groups
        };
        assert_eq!(cut(10, &[4, 6, 1]), [(0, 10), (10, 11)]);
        assert_eq!(cut(10, &[4, 7, 3]), [(0, 4), (4, 14)]);
        assert_eq!(cut(10, &[25, 3, 0, 7, 1]), [(0, 25), (25, 35), (35, 36)]);
        assert_eq!(cut(10, &[0, 0, 3, 0]), [(0, 3)]);
        assert_eq!(cut(10, &[0, 0]), []);
        assert_eq!(cut(1, &[1, 1]), [(0, 1), (1, 2)]);
    }

    /// `ModelConfig::linear_shapes` is exactly what a built model holds.
    #[test]
    fn linear_shapes_match_the_built_model() {
        for config in [
            tiny_model().config().clone(),
            ModelConfig {
                in_dim: 3,
                hidden: 80,
                layers: 8,
                shared_dim: 32,
                task_classes: vec![4, 2, 2],
                seed: 0x6A3017A,
            },
            ModelConfig {
                in_dim: 5,
                hidden: 32,
                layers: 4,
                shared_dim: 32,
                task_classes: vec![7],
                seed: 0x6A3017A,
            },
        ] {
            let built: Vec<(usize, usize)> = MultiTaskSage::new_zeroed(config.clone())
                .linears()
                .iter()
                .map(|l| (l.w.rows(), l.w.cols()))
                .collect();
            assert_eq!(config.linear_shapes().collect::<Vec<_>>(), built);
        }
    }

    /// `linears` exposes every parameter exactly once (each layer's
    /// weights, then its bias), in an order stable enough that injecting
    /// them through `linears_mut` into a differently seeded model
    /// reproduces the source model bit for bit.
    #[test]
    fn param_slices_roundtrip_into_fresh_model() {
        let src = tiny_model();
        let saved: Vec<Vec<f32>> = src
            .linears()
            .iter()
            .flat_map(|l| [l.w.as_slice().to_vec(), l.b.clone()])
            .collect();
        let total: usize = saved.iter().map(Vec::len).sum();
        assert_eq!(total, src.num_params());

        let mut dst = MultiTaskSage::new(ModelConfig {
            seed: 0xBEEF,
            ..src.config().clone()
        });
        let mut slots: Vec<&mut [f32]> = dst
            .linears_mut()
            .into_iter()
            .flat_map(|Linear { w, b, .. }| [w.as_mut_slice(), b.as_mut_slice()])
            .collect();
        assert_eq!(slots.len(), saved.len());
        for (slot, tensor) in slots.iter_mut().zip(&saved) {
            slot.copy_from_slice(tensor);
        }

        let graph = tiny_graph();
        let mut x = Matrix::zeros(6, 3);
        for r in 0..6 {
            x.set(r, r % 3, 1.0);
        }
        let la = src.forward(&graph, &x);
        let lb = dst.forward(&graph, &x);
        for (a, b) in la.iter().zip(&lb) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    /// A gradient step on a toy problem must reduce the loss.
    #[test]
    fn one_adam_step_reduces_loss() {
        use crate::adam::Adam;
        use crate::loss::nll_loss;
        let mut model = tiny_model();
        let graph = tiny_graph();
        let mut x = Matrix::zeros(6, 3);
        for r in 0..6 {
            x.set(r, r % 3, 1.0);
        }
        let targets: Vec<Vec<u32>> = vec![
            vec![0, 1, 2, 3, 0, 1],
            vec![0, 1, 0, 1, 0, 1],
            vec![1, 0, 1, 0, 1, 0],
        ];
        let mut opt = Adam::new(0.01);
        let mut tape = Tape::default();
        let mut grads = vec![Matrix::default(); 3];
        let mut losses = Vec::new();
        for _ in 0..30 {
            model.zero_grad();
            let logits = model.forward_train(&graph, &x, &mut tape);
            let mut total = 0.0;
            for (t, l) in logits.iter().enumerate() {
                total += nll_loss(l, &targets[t], 1.0, &mut grads[t]);
            }
            model.backward(&graph, &x, &mut grads, &mut tape);
            opt.step(|update| model.visit_param_grads(update));
            losses.push(total);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss did not drop: {losses:?}"
        );
    }
}
