//! Neural layers with explicit forward/backward passes: GraphSAGE
//! convolution and dense linear layers.
//!
//! Layers are **immutable in the forward direction**: inference borrows a
//! layer by `&self` and can write into caller-owned scratch buffers
//! (`forward_into`), so one model instance can be shared read-only across
//! threads. Training-mode forwards record activations on an external
//! [`LinearTape`] owned by the trainer instead of inside the layer; the
//! backward pass consumes that tape and accumulates gradients (`gw`/`gb`)
//! in the layer for the optimiser.

use crate::graph::Graph;
use crate::tensor::{fused_gemm_into, Epilogue, Matrix};
use rand::Rng;

/// Activations recorded by a training-mode forward through one [`Linear`]
/// (layer input and post-activation output), consumed by
/// [`Linear::backward`]. Buffers are reused across training steps.
#[derive(Clone, Debug, Default)]
pub struct LinearTape {
    x: Matrix,
    y: Matrix,
}

/// A dense layer `y = act(x @ W + b)` with optional ReLU.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix, `in_dim x out_dim`.
    pub w: Matrix,
    /// Bias vector, `out_dim`.
    pub b: Vec<f32>,
    /// Weight gradient accumulator.
    pub gw: Matrix,
    /// Bias gradient accumulator.
    pub gb: Vec<f32>,
    relu: bool,
}

impl Linear {
    /// Creates a Glorot-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut impl Rng) -> Linear {
        Linear {
            w: Matrix::glorot(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
            relu,
        }
    }

    /// Creates a zero-initialised layer skeleton: correct shapes, no RNG
    /// draw. Snapshot loaders overwrite (or borrow) every weight anyway,
    /// so the Glorot pass of [`Linear::new`] would be wasted cold-start
    /// work.
    pub fn new_zeroed(in_dim: usize, out_dim: usize, relu: bool) -> Linear {
        Linear {
            w: Matrix::zeros(in_dim, out_dim),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
            relu,
        }
    }

    /// Inference forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, &mut y);
        y
    }

    /// Inference forward pass into a caller-owned buffer (no heap
    /// allocation once `y` has enough capacity). One fused GEMM pass:
    /// the bias and the optional ReLU run in the kernel epilogue.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        let epilogue = Epilogue {
            bias: Some(&self.b),
            relu: self.relu,
        };
        fused_gemm_into(x, self.w.as_slice(), None, epilogue, self.w.cols(), y);
    }

    /// Applies several layers to the same input as **one** GEMM over their
    /// column-concatenated weights, then splits the result into `outs`
    /// (one matrix per layer, reshaped here). Output columns never
    /// interact, so every `outs[i]` is bit-identical to
    /// `layers[i].forward_into(x, ..)` — at the price of one wide GEMM
    /// instead of several narrow ones, which is what the task heads
    /// (`n = 4, 2, 2`) need to fill a vector register.
    ///
    /// The concatenated weights live in `fused` and the wide result in
    /// `wide`; both are rebuilt on every call (a few hundred floats of
    /// weights), so neither can go stale.
    ///
    /// # Panics
    ///
    /// Panics if `outs.len() != layers.len()`, or if the layers disagree
    /// on input width or activation (they could not share a GEMM).
    pub(crate) fn forward_many_into(
        layers: &[Linear],
        x: &Matrix,
        fused: &mut FusedLinears,
        wide: &mut Matrix,
        outs: &mut [Matrix],
    ) {
        assert_eq!(outs.len(), layers.len(), "one output per layer");
        let Some(first) = layers.first() else {
            return;
        };
        let class = |l: &Linear| (l.w.rows(), l.relu);
        assert!(
            layers.iter().all(|l| class(l) == class(first)),
            "layers sharing a GEMM share input width and activation"
        );
        let k = first.w.rows();
        let total: usize = layers.iter().map(|l| l.w.cols()).sum();
        let FusedLinears { w, bias } = fused;
        bias.clear();
        bias.extend(layers.iter().flat_map(|l| &l.b));
        let epilogue = Epilogue {
            bias: Some(bias),
            relu: first.relu,
        };
        w.clear();
        for r in 0..k {
            for l in layers {
                w.extend_from_slice(l.w.row(r));
            }
        }
        fused_gemm_into(x, w, None, epilogue, total, wide);
        let mut c0 = 0;
        for (layer, out) in layers.iter().zip(outs) {
            let c = layer.w.cols();
            out.reshape_for_overwrite(x.rows(), c);
            let rows = out.as_mut_slice().chunks_exact_mut(c.max(1));
            for (dst, src) in rows.zip(wide.as_slice().chunks_exact(total.max(1))) {
                dst.copy_from_slice(&src[c0..c0 + c]);
            }
            c0 += c;
        }
    }

    /// Training forward pass: records the input and output on `tape` for
    /// the backward pass.
    pub fn forward_train(&self, x: &Matrix, tape: &mut LinearTape) -> Matrix {
        tape.x.copy_from(x);
        let y = self.forward(x);
        tape.y.copy_from(&y);
        y
    }

    /// Backward pass: accumulates `gw`/`gb` and returns `d(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `tape` was not filled by a preceding
    /// [`Linear::forward_train`].
    pub fn backward(&mut self, grad_out: &Matrix, tape: &LinearTape) -> Matrix {
        assert!(tape.x.rows() > 0, "backward without a training forward");
        let grad_pre = if self.relu {
            grad_out.relu_backward(&tape.y)
        } else {
            grad_out.clone()
        };
        self.gw.add_scaled(&tape.x.transpose_matmul(&grad_pre), 1.0);
        for (g, v) in self.gb.iter_mut().zip(grad_pre.column_sums()) {
            *g += v;
        }
        grad_pre.matmul_transpose(&self.w)
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gw = Matrix::zeros(self.w.rows(), self.w.cols());
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Parameter/gradient pairs for the optimiser.
    pub fn param_grads(&mut self) -> Vec<(&mut [f32], &[f32])> {
        vec![
            (self.w.as_mut_slice(), self.gw.as_slice()),
            (&mut self.b, &self.gb),
        ]
    }

    /// Parameter tensors in the same stable order as [`Linear::param_grads`]
    /// (weights, then bias) — the serialisation order of model snapshots.
    pub fn param_slices(&self) -> Vec<&[f32]> {
        vec![self.w.as_slice(), &self.b]
    }

    /// Mutable parameter tensors in snapshot order (weight injection).
    pub fn param_slices_mut(&mut self) -> Vec<&mut [f32]> {
        vec![self.w.as_mut_slice(), &mut self.b]
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Resident weight-store bytes: the weights plus the bias. Counts
    /// only process-owned storage — weight spans borrowed from a shared
    /// region (memory-mapped snapshots) count zero.
    pub fn resident_weight_bytes(&self) -> usize {
        self.w.resident_bytes() + self.b.len() * 4
    }
}

/// Reusable concatenated-weight buffers for
/// [`Linear::forward_many_into`].
#[derive(Clone, Debug, Default)]
pub(crate) struct FusedLinears {
    w: Vec<f32>,
    bias: Vec<f32>,
}

/// Reusable aggregation buffer for allocation-free SAGE forwards (shared
/// by every layer of a model, since layers run in sequence).
///
/// There is deliberately no concat buffer: the split-weight forward
/// multiplies `h` and the aggregate against the two row halves of the
/// combined weight matrix, so the `[h | agg]` concatenation is never
/// materialised.
#[derive(Clone, Debug, Default)]
pub struct SageScratch {
    agg: Matrix,
}

impl SageScratch {
    /// The aggregation buffer, for use as scratch between SAGE forwards
    /// (every forward overwrites it whole).
    pub(crate) fn spare(&mut self) -> &mut Matrix {
        &mut self.agg
    }
}

/// One GraphSAGE convolution (Hamilton et al., Eq. 1 of the paper):
///
/// `h_v <- ReLU(W @ concat(h_v, mean_{u in N(v)} h_u) + b)`.
#[derive(Clone, Debug)]
pub struct SageLayer {
    lin: Linear,
    in_dim: usize,
}

impl SageLayer {
    /// Creates a layer mapping `in_dim` to `out_dim` features.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> SageLayer {
        SageLayer {
            lin: Linear::new(2 * in_dim, out_dim, true, rng),
            in_dim,
        }
    }

    /// Creates a zero-initialised layer skeleton for snapshot loaders
    /// (see [`Linear::new_zeroed`]).
    pub fn new_zeroed(in_dim: usize, out_dim: usize) -> SageLayer {
        SageLayer {
            lin: Linear::new_zeroed(2 * in_dim, out_dim, true),
            in_dim,
        }
    }

    /// Inference forward pass over a graph.
    pub fn forward(&self, graph: &Graph, h: &Matrix) -> Matrix {
        let mut ws = SageScratch::default();
        let mut out = Matrix::default();
        self.forward_into(graph, h, &mut ws, &mut out);
        out
    }

    /// Inference forward pass into caller-owned buffers (no heap
    /// allocation once `ws` and `out` have enough capacity).
    pub fn forward_into(&self, graph: &Graph, h: &Matrix, ws: &mut SageScratch, out: &mut Matrix) {
        graph.mean_aggregate_into(h, &mut ws.agg);
        self.fused_into(h, &ws.agg, out);
    }

    /// The split-weight fused convolution: `ReLU(h @ W_self + agg @
    /// W_neigh + b)` in one GEMM pass. `W_self`/`W_neigh` are the row
    /// halves of the combined weight matrix (row-major, so they are
    /// contiguous slices — nothing is copied, and snapshots keep the
    /// combined on-disk layout).
    fn fused_into(&self, h: &Matrix, agg: &Matrix, out: &mut Matrix) {
        let n = self.lin.w.cols();
        let (w_self, w_neigh) = self.lin.w.as_slice().split_at(self.in_dim * n);
        let epilogue = Epilogue {
            bias: Some(&self.lin.b),
            relu: true,
        };
        fused_gemm_into(h, w_self, Some((agg, w_neigh)), epilogue, n, out);
    }

    /// Training forward pass: records activations on `tape`.
    ///
    /// The output is computed through the same split-weight fused kernel
    /// as [`SageLayer::forward_into`] (training and inference logits stay
    /// bit-identical); only the tape still materialises the `[h | agg]`
    /// concatenation, because the backward pass needs it for the weight
    /// gradient `X^T @ dY` over the full `2 * in_dim` width.
    pub fn forward_train(&self, graph: &Graph, h: &Matrix, tape: &mut LinearTape) -> Matrix {
        let agg = graph.mean_aggregate(h);
        h.hconcat_into(&agg, &mut tape.x);
        let mut y = Matrix::default();
        self.fused_into(h, &agg, &mut y);
        tape.y.copy_from(&y);
        y
    }

    /// Backward pass; returns the gradient w.r.t. the layer input.
    ///
    /// # Panics
    ///
    /// Panics if `tape` was not filled by a preceding
    /// [`SageLayer::forward_train`].
    pub fn backward(&mut self, graph: &Graph, grad_out: &Matrix, tape: &LinearTape) -> Matrix {
        let grad_concat = self.lin.backward(grad_out, tape);
        let (grad_self, grad_neigh) = grad_concat.hsplit(self.in_dim);
        let mut grad_h = grad_self;
        grad_h.add_scaled(&graph.mean_aggregate_backward(&grad_neigh), 1.0);
        grad_h
    }

    /// Read access to the underlying linear (snapshot serialisation).
    pub fn linear(&self) -> &Linear {
        &self.lin
    }

    /// Mutable access to the underlying linear (snapshot injection).
    pub fn linear_mut(&mut self) -> &mut Linear {
        &mut self.lin
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.lin.zero_grad();
    }

    /// Parameter/gradient pairs for the optimiser.
    pub fn param_grads(&mut self) -> Vec<(&mut [f32], &[f32])> {
        self.lin.param_grads()
    }

    /// Parameter tensors in snapshot order (see [`Linear::param_slices`]).
    pub fn param_slices(&self) -> Vec<&[f32]> {
        self.lin.param_slices()
    }

    /// Mutable parameter tensors in snapshot order (weight injection).
    pub fn param_slices_mut(&mut self) -> Vec<&mut [f32]> {
        self.lin.param_slices_mut()
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.lin.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;
    use rand::SeedableRng;

    /// Finite-difference gradient check for the linear layer.
    #[test]
    fn linear_gradcheck() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut lin = Linear::new(3, 2, true, &mut rng);
        let x = Matrix::glorot(4, 3, &mut rng);
        // Loss = sum of outputs; d(loss)/d(y) = ones.
        let loss = |lin: &Linear, x: &Matrix| -> f32 { lin.forward(x).as_slice().iter().sum() };
        let mut tape = LinearTape::default();
        let y = lin.forward_train(&x, &mut tape);
        let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let gx = lin.backward(&ones, &tape);

        let eps = 1e-3;
        // Check d(loss)/d(w[0,0]).
        let base = loss(&lin, &x);
        let orig = lin.w.get(0, 0);
        lin.w.set(0, 0, orig + eps);
        let plus = loss(&lin, &x);
        lin.w.set(0, 0, orig);
        let numeric = (plus - base) / eps;
        let analytic = lin.gw.get(0, 0);
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "dW numeric {numeric} vs analytic {analytic}"
        );
        // Check d(loss)/d(x[1,2]).
        let mut x2 = x.clone();
        x2.set(1, 2, x.get(1, 2) + eps);
        let plus_x = loss(&lin, &x2);
        let numeric_x = (plus_x - base) / eps;
        let analytic_x = gx.get(1, 2);
        assert!(
            (numeric_x - analytic_x).abs() < 1e-2,
            "dX numeric {numeric_x} vs analytic {analytic_x}"
        );
    }

    /// Finite-difference gradient check through a SAGE layer, including the
    /// aggregation backward.
    #[test]
    fn sage_gradcheck() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let graph = Graph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
            Direction::Bidirectional,
        );
        let mut layer = SageLayer::new(2, 3, &mut rng);
        let x = Matrix::glorot(5, 2, &mut rng);
        let loss =
            |l: &SageLayer, x: &Matrix| -> f32 { l.forward(&graph, x).as_slice().iter().sum() };
        let mut tape = LinearTape::default();
        let y = layer.forward_train(&graph, &x, &mut tape);
        let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let gx = layer.backward(&graph, &ones, &tape);

        let eps = 1e-3;
        let base = loss(&layer, &x);
        for (r, c) in [(0usize, 0usize), (2, 1), (4, 0)] {
            let mut x2 = x.clone();
            x2.set(r, c, x.get(r, c) + eps);
            let numeric = (loss(&layer, &x2) - base) / eps;
            let analytic = gx.get(r, c);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "d(x[{r},{c}]) numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// The scratch-buffer forward is bit-identical to the allocating one,
    /// including when the scratch is reused across differently sized
    /// inputs.
    #[test]
    fn forward_into_matches_allocating_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let layer = SageLayer::new(3, 4, &mut rng);
        let mut ws = SageScratch::default();
        let mut out = Matrix::default();
        for n in [7usize, 5, 9] {
            let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            let graph = Graph::from_edges(n, &edges, Direction::Bidirectional);
            let h = Matrix::glorot(n, 3, &mut rng);
            layer.forward_into(&graph, &h, &mut ws, &mut out);
            assert_eq!(out, layer.forward(&graph, &h), "n = {n}");
        }
    }

    #[test]
    fn param_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let lin = Linear::new(10, 4, false, &mut rng);
        assert_eq!(lin.num_params(), 44);
        let sage = SageLayer::new(8, 16, &mut rng);
        assert_eq!(sage.num_params(), 2 * 8 * 16 + 16);
    }

    #[test]
    fn zero_grad_resets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut lin = Linear::new(2, 2, false, &mut rng);
        let x = Matrix::glorot(3, 2, &mut rng);
        let mut tape = LinearTape::default();
        let y = lin.forward_train(&x, &mut tape);
        let g = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 6]);
        lin.backward(&g, &tape);
        assert!(lin.gw.norm() > 0.0);
        lin.zero_grad();
        assert_eq!(lin.gw.norm(), 0.0);
    }
}
