//! The multi-task GraphSAGE model of the paper (§III-B).
//!
//! `K` GraphSAGE layers produce node embeddings that fuse structural and
//! functional information; a shared linear layer (hard parameter sharing)
//! feeds one softmax classification head per task. The paper's two
//! configurations are provided as constructors: a *shallow* 4-layer /
//! 32-hidden model for CSA multipliers and a *deep* 8-layer / 80-hidden
//! model for Booth multipliers and complex technology mapping.

use crate::graph::Graph;
use crate::layers::{FusedLinears, Linear, LinearTape, SageLayer, SageScratch};
use crate::tensor::Matrix;
use rand::SeedableRng;

/// Training state recorded by [`MultiTaskSage::forward_train`] and
/// consumed by [`MultiTaskSage::backward`]: one activation tape per layer.
///
/// The tape is owned by the trainer (not the model), so the model itself
/// stays immutable through the forward pass and can be shared across
/// threads. Buffers are reused across training steps.
#[derive(Clone, Debug, Default)]
pub struct Tape {
    sage: Vec<LinearTape>,
    shared: LinearTape,
    heads: Vec<LinearTape>,
}

/// Reusable per-worker buffers for allocation-free inference: ping-pong
/// embedding matrices, aggregation scratch (the split-weight SAGE forward
/// needs no concat buffer), the shared-layer output, and one logit matrix
/// per task.
///
/// A warmed-up scratch (after one [`MultiTaskSage::infer`] call at a given
/// graph size) lets every subsequent inference at the same or smaller size
/// run without touching the heap. One scratch serves models and graphs of
/// any shape — buffers are resized lazily, reusing capacity.
#[derive(Clone, Debug, Default)]
pub struct InferenceScratch {
    ws: SageScratch,
    h_in: Matrix,
    h_out: Matrix,
    z: Matrix,
    logits: Vec<Matrix>,
    /// Column-concatenated task-head weights (rebuilt every pass).
    heads: FusedLinears,
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
    /// The paper's shallow model: 4 layers, 32 hidden channels.
    pub fn shallow(in_dim: usize, task_classes: Vec<usize>) -> ModelConfig {
        ModelConfig {
            in_dim,
            hidden: 32,
            layers: 4,
            shared_dim: 32,
            task_classes,
            seed: 0x6A3017A,
        }
    }

    /// The paper's deep model: 8 layers, 80 hidden channels.
    pub fn deep(in_dim: usize, task_classes: Vec<usize>) -> ModelConfig {
        ModelConfig {
            hidden: 80,
            layers: 8,
            ..ModelConfig::shallow(in_dim, task_classes)
        }
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

/// Receives per-stage wall times from [`MultiTaskSage::infer`].
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
    /// layer, no RNG draws. Snapshot loaders fill (or borrow) every
    /// weight anyway, so this keeps cold starts O(header) instead of
    /// paying a full Glorot pass over the parameters.
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
        self.infer(graph, x, &mut scratch, None);
        scratch.logits
    }

    /// Inference forward pass through caller-owned scratch buffers.
    ///
    /// Returns the per-task logits, which live inside `scratch` (they stay
    /// valid until the next call with the same scratch). After a warmup
    /// call at a given graph size, subsequent calls perform **zero heap
    /// allocations** as long as the kernels stay on their serial path
    /// (graphs below `parallel`'s per-thread row cutoff); above it, the
    /// scoped worker threads spawned per call allocate.
    ///
    /// When `observer` is `Some`, each trunk layer, the shared linear and
    /// the combined heads report their wall time through
    /// [`ForwardObserver::record_stage`] (two monotonic clock reads per
    /// stage, no allocations); when `None`, no clocks are read.
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
    ) -> &'a [Matrix] {
        // Chaos seam: the `forward` fail point fires before any layer
        // runs, so an injected failure never leaves scratch half-written
        // relative to a completed pass. Disarmed cost: one relaxed load.
        gamora_fault::hit_or_panic(gamora_fault::FaultPoint::GnnForward);
        assert_eq!(x.cols(), self.config.in_dim, "feature width mismatch");
        assert_eq!(x.rows(), graph.num_nodes(), "one feature row per node");
        for (l, layer) in self.sage.iter().enumerate() {
            let started = observer.map(|_| std::time::Instant::now());
            {
                let InferenceScratch {
                    ws, h_in, h_out, ..
                } = &mut *scratch;
                let input = if l == 0 { x } else { &*h_in };
                layer.forward_into(graph, input, ws, h_out);
            }
            std::mem::swap(&mut scratch.h_in, &mut scratch.h_out);
            if let (Some(obs), Some(t)) = (observer, started) {
                obs.record_stage(ForwardStage::Sage(l), t.elapsed().as_micros() as u64);
            }
        }
        let started = observer.map(|_| std::time::Instant::now());
        {
            let InferenceScratch { h_in, z, .. } = &mut *scratch;
            self.shared.forward_into(h_in, z);
        }
        if let (Some(obs), Some(t)) = (observer, started) {
            obs.record_stage(ForwardStage::Shared, t.elapsed().as_micros() as u64);
        }
        let started = observer.map(|_| std::time::Instant::now());
        {
            self.heads_into(scratch);
        }
        if let (Some(obs), Some(t)) = (observer, started) {
            obs.record_stage(ForwardStage::Heads, t.elapsed().as_micros() as u64);
        }
        &scratch.logits
    }

    /// All task heads over `scratch.z` as one GEMM (see
    /// [`Linear::forward_many_into`]). The wide `rows x Σclasses` result
    /// goes through the aggregation buffer, which is dead once the trunk
    /// has run, so the fusion adds no per-node memory.
    fn heads_into(&self, scratch: &mut InferenceScratch) {
        let InferenceScratch {
            ws,
            z,
            logits,
            heads,
            ..
        } = scratch;
        if logits.len() != self.heads.len() {
            logits.resize_with(self.heads.len(), Matrix::default);
        }
        Linear::forward_many_into(&self.heads, z, heads, ws.spare(), logits);
    }

    /// Training forward pass: like [`MultiTaskSage::forward`], but records
    /// every layer's activations on `tape` for [`MultiTaskSage::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong feature width or row count.
    pub fn forward_train(&self, graph: &Graph, x: &Matrix, tape: &mut Tape) -> Vec<Matrix> {
        assert_eq!(x.cols(), self.config.in_dim, "feature width mismatch");
        assert_eq!(x.rows(), graph.num_nodes(), "one feature row per node");
        if tape.sage.len() != self.sage.len() {
            tape.sage.resize_with(self.sage.len(), LinearTape::default);
        }
        if tape.heads.len() != self.heads.len() {
            tape.heads
                .resize_with(self.heads.len(), LinearTape::default);
        }
        let mut h = x.clone();
        for (layer, t) in self.sage.iter().zip(tape.sage.iter_mut()) {
            h = layer.forward_train(graph, &h, t);
        }
        let z = self.shared.forward_train(&h, &mut tape.shared);
        self.heads
            .iter()
            .zip(tape.heads.iter_mut())
            .map(|(head, t)| head.forward_train(&z, t))
            .collect()
    }

    /// Backward pass from per-task logit gradients, consuming the tape of
    /// the preceding [`MultiTaskSage::forward_train`].
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != num_tasks()` or `tape` does not match a
    /// training forward through this model.
    pub fn backward(&mut self, graph: &Graph, grads: &[Matrix], tape: &Tape) {
        assert_eq!(grads.len(), self.heads.len());
        assert_eq!(
            (tape.sage.len(), tape.heads.len()),
            (self.sage.len(), self.heads.len()),
            "tape does not match a training forward through this model"
        );
        let mut grad_z: Option<Matrix> = None;
        for ((head, g), t) in self.heads.iter_mut().zip(grads).zip(&tape.heads) {
            let gz = head.backward(g, t);
            match &mut grad_z {
                None => grad_z = Some(gz),
                Some(acc) => acc.add_scaled(&gz, 1.0),
            }
        }
        let mut grad_h = self
            .shared
            .backward(&grad_z.expect("at least one task"), &tape.shared);
        for (layer, t) in self.sage.iter_mut().rev().zip(tape.sage.iter().rev()) {
            grad_h = layer.backward(graph, &grad_h, t);
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

    /// All parameter/gradient pairs, in a stable order, for the optimiser.
    pub fn param_grads(&mut self) -> Vec<(&mut [f32], &[f32])> {
        let mut out = Vec::new();
        for l in &mut self.sage {
            out.extend(l.param_grads());
        }
        out.extend(self.shared.param_grads());
        for h in &mut self.heads {
            out.extend(h.param_grads());
        }
        out
    }

    /// All parameter tensors, in the same stable order as
    /// [`MultiTaskSage::param_grads`] — the canonical serialisation order
    /// for model snapshots (trunk layers, shared linear, task heads; each
    /// layer contributes weights then bias).
    pub fn param_slices(&self) -> Vec<&[f32]> {
        let mut out = Vec::new();
        for l in &self.sage {
            out.extend(l.param_slices());
        }
        out.extend(self.shared.param_slices());
        for h in &self.heads {
            out.extend(h.param_slices());
        }
        out
    }

    /// Mutable access to all parameter tensors in snapshot order, for
    /// injecting deserialised weights into a freshly constructed model.
    pub fn param_slices_mut(&mut self) -> Vec<&mut [f32]> {
        let mut out = Vec::new();
        for l in &mut self.sage {
            out.extend(l.param_slices_mut());
        }
        out.extend(self.shared.param_slices_mut());
        for h in &mut self.heads {
            out.extend(h.param_slices_mut());
        }
        out
    }

    /// Every linear layer in snapshot order (trunk SAGE linears, shared
    /// linear, task heads) — each contributes its weight tensor then its
    /// bias to the serialised stream, so this is the layer-level view of
    /// [`MultiTaskSage::param_slices`].
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

    /// Process-owned bytes of every layer's weights and bias (see
    /// [`Linear::resident_weight_bytes`]).
    pub fn resident_weight_bytes(&self) -> usize {
        self.linears()
            .iter()
            .map(|l| l.resident_weight_bytes())
            .sum()
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

    /// The fused-heads GEMM equals one `Linear::forward_into` per head,
    /// bit for bit.
    #[test]
    fn fused_heads_match_separate_head_forwards() {
        let graph = tiny_graph();
        let mut x = Matrix::zeros(6, 3);
        for r in 0..6 {
            x.set(r, r % 3, 1.0);
        }
        let model = tiny_model();
        let mut scratch = InferenceScratch::default();
        model.infer(&graph, &x, &mut scratch, None);
        for (t, head) in model.heads.iter().enumerate() {
            let separate = head.forward(&scratch.z);
            assert_eq!(
                (scratch.logits[t].rows(), scratch.logits[t].cols()),
                (6, model.config.task_classes[t])
            );
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scratch.logits[t]), bits(&separate), "head {t}");
        }
    }

    /// A reused scratch produces logits bit-identical to the allocating
    /// forward, across graphs of different sizes and both orders
    /// (grow-then-shrink and shrink-then-grow).
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
            let expected = model.forward(&graph, &x);
            let logits = model.infer(&graph, &x, &mut scratch, None);
            assert_eq!(logits.len(), expected.len());
            for (a, b) in logits.iter().zip(&expected) {
                assert_eq!(a, b, "n = {n}");
            }
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
        for (a, b) in trained.iter().zip(&inferred) {
            assert_eq!(a, b);
        }
    }

    /// The observed forward pass is bit-identical to the plain one and
    /// reports every stage exactly once, in order.
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
        let graph = tiny_graph();
        let mut x = Matrix::zeros(6, 3);
        for r in 0..6 {
            x.set(r, r % 3, 1.0);
        }
        let expected = model.forward(&graph, &x);
        let recorder = Recorder(RefCell::new(Vec::new()));
        let mut scratch = InferenceScratch::default();
        let logits = model.infer(&graph, &x, &mut scratch, Some(&recorder));
        for (a, b) in logits.iter().zip(&expected) {
            assert_eq!(a, b, "observation must not change the forward");
        }
        let stages: Vec<ForwardStage> = recorder.0.borrow().iter().map(|&(s, _)| s).collect();
        assert_eq!(
            stages,
            vec![
                ForwardStage::Sage(0),
                ForwardStage::Sage(1),
                ForwardStage::Shared,
                ForwardStage::Heads,
            ]
        );
    }

    #[test]
    fn paper_configs() {
        let shallow = ModelConfig::shallow(3, vec![4, 2, 2]);
        assert_eq!((shallow.layers, shallow.hidden), (4, 32));
        let deep = ModelConfig::deep(3, vec![4, 2, 2]);
        assert_eq!((deep.layers, deep.hidden), (8, 80));
        let m = MultiTaskSage::new(deep);
        assert_eq!(m.num_tasks(), 3);
        assert!(m.num_params() > 50_000, "deep model is non-trivial");
    }

    /// `ModelConfig::linear_shapes` is exactly what a built model holds.
    #[test]
    fn linear_shapes_match_the_built_model() {
        for config in [
            tiny_model().config().clone(),
            ModelConfig::deep(3, vec![4, 2, 2]),
            ModelConfig::shallow(5, vec![7]),
        ] {
            let built: Vec<(usize, usize)> = MultiTaskSage::new_zeroed(config.clone())
                .linears()
                .iter()
                .map(|l| (l.w.rows(), l.w.cols()))
                .collect();
            assert_eq!(config.linear_shapes().collect::<Vec<_>>(), built);
        }
    }

    /// `param_slices` exposes every parameter exactly once, in an order
    /// stable enough that injecting them into a differently seeded model
    /// reproduces the source model bit for bit.
    #[test]
    fn param_slices_roundtrip_into_fresh_model() {
        let src = tiny_model();
        let total: usize = src.param_slices().iter().map(|s| s.len()).sum();
        assert_eq!(total, src.num_params());

        let saved: Vec<Vec<f32>> = src.param_slices().iter().map(|s| s.to_vec()).collect();
        let mut dst = MultiTaskSage::new(ModelConfig {
            seed: 0xBEEF,
            ..src.config().clone()
        });
        let mut slots = dst.param_slices_mut();
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
        let mut losses = Vec::new();
        for _ in 0..30 {
            model.zero_grad();
            let logits = model.forward_train(&graph, &x, &mut tape);
            let mut total = 0.0;
            let mut grads = Vec::new();
            for (t, l) in logits.iter().enumerate() {
                let (loss, grad) = nll_loss(l, &targets[t], 1.0);
                total += loss;
                grads.push(grad);
            }
            model.backward(&graph, &grads, &tape);
            opt.step(model.param_grads());
            losses.push(total);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss did not drop: {losses:?}"
        );
    }
}
