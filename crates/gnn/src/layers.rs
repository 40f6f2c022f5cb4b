//! Neural layers with explicit forward/backward passes: GraphSAGE
//! convolution and dense linear layers.
//!
//! Layers are **immutable in the forward direction**: inference borrows a
//! layer by `&self` and can write into caller-owned scratch buffers
//! (`forward_into`), so one model instance can be shared read-only across
//! threads. A training-mode forward writes what the backward pass needs —
//! a layer's output, which is the next layer's input, and a SAGE layer's
//! neighbourhood means ([`SageTape`]) — into buffers the trainer owns; the
//! backward pass reads them there, works in a [`BackwardScratch`] and
//! accumulates gradients (`gw`/`gb`) in the layer for the optimiser. No
//! activation is copied and, once the buffers have grown, nothing is
//! allocated.
//!
//! The inference forward of a [`SageLayer`] never holds the aggregated
//! neighbourhood of more than one row block: a block of
//! [`BLOCK_ROWS`] rows is aggregated into a buffer of the
//! [`SageScratch`] and multiplied at once, while it is in L1, so no
//! `nodes x width` aggregation matrix is written to memory and read back.
//! Only the training forward materialises it — the weight gradient needs
//! every row.

use crate::graph::{Adjacency, Graph};
use crate::kernel::{self, GemmArgs, Kernels, Operand, Rows, BLOCK_ROWS};
use crate::parallel;
use crate::tensor::{fused_gemm_into, Epilogue, Matrix};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Working memory of the backward passes, shared by every layer of a
/// model since they run in sequence: the transposed operand of whichever
/// GEMM is running (`X^T`, then `W^T`), and the neighbour half of a SAGE
/// layer's input gradient before it is scattered back over the edges.
#[derive(Clone, Debug, Default)]
pub struct BackwardScratch {
    transposed: Matrix,
    neigh: Matrix,
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
    /// draw. Snapshot loaders overwrite every weight anyway,
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

    /// Backward pass from `dy`, the gradient w.r.t. the output `y` this
    /// layer computed for the input `x`: masks `dy` through the ReLU in
    /// place, accumulates `gw`/`gb` and writes `d(x)` to `dx`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not those of one forward pass.
    pub fn backward(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        dy: &mut Matrix,
        ws: &mut BackwardScratch,
        dx: &mut Matrix,
    ) {
        if self.relu {
            dy.relu_backward_in_place(y);
        }
        x.transpose_matmul_add_into(dy, &mut ws.transposed, self.gw.as_mut_slice());
        dy.add_column_sums_to(&mut self.gb);
        dy.matmul_transpose_into(self.w.as_slice(), &mut ws.transposed, dx);
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gw.as_mut_slice().fill(0.0);
        self.gb.fill(0.0);
    }

    /// Calls `visit(parameters, gradients)` for the weights, then the
    /// bias.
    pub fn visit_param_grads(&mut self, visit: &mut dyn FnMut(&mut [f32], &[f32])) {
        visit(self.w.as_mut_slice(), self.gw.as_slice());
        visit(&mut self.b, &self.gb);
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// Several [`Linear`] layers over the same input as **one** GEMM: their
/// weights column-concatenated, so that the task heads (`n = 4, 2, 2`)
/// fill a vector register between them. Output columns never interact,
/// so each layer's columns are bit-identical to its own
/// [`Linear::forward_into`].
#[derive(Clone, Debug, Default)]
pub(crate) struct FusedLinears {
    w: Vec<f32>,
    bias: Vec<f32>,
    relu: bool,
}

impl FusedLinears {
    /// Rebuilds the concatenation from `layers` (a few hundred floats:
    /// done on every pass, so it cannot go stale).
    ///
    /// # Panics
    ///
    /// Panics if the layers disagree on input width or activation (they
    /// could not share a GEMM).
    pub(crate) fn gather(&mut self, layers: &[Linear]) {
        let FusedLinears { w, bias, relu } = self;
        w.clear();
        bias.clear();
        let Some(first) = layers.first() else {
            return;
        };
        let class = |l: &Linear| (l.w.rows(), l.relu);
        assert!(
            layers.iter().all(|l| class(l) == class(first)),
            "layers sharing a GEMM share input width and activation"
        );
        *relu = first.relu;
        bias.extend(layers.iter().flat_map(|l| &l.b));
        for r in 0..first.w.rows() {
            for l in layers {
                w.extend_from_slice(l.w.row(r));
            }
        }
    }

    /// The gathered layers' output columns per row, all of them.
    pub(crate) fn width(&self) -> usize {
        self.bias.len()
    }

    /// The model's tail for every row of a quotient: `layer` over
    /// `quotient` ([`SageLayer::forward_quotient`], reading `h`), then
    /// `shared`, then the gathered layers, one output row in `out` per
    /// row of the quotient. Per row block, the layer's output and the
    /// shared layer's go into `ws` and straight on into the next GEMM, so
    /// neither exists for more than one block per kernel thread. Row for
    /// row, the arithmetic of `forward_quotient` and the two
    /// `forward_into`s. With `split`, the nanoseconds of the layer (its
    /// aggregation and gather included), of the shared GEMM and of the
    /// gathered one are added to its three slots.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not `layer`'s input width or misses a row the
    /// quotient names, or if `shared` does not take `layer`'s output.
    pub(crate) fn forward_rows_after(
        &self,
        (layer, shared): (&SageLayer, &Linear),
        quotient: (Adjacency<'_>, &[u32]),
        h: Rows<'_>,
        ws: &mut SageScratch,
        out: &mut [f32],
        split: Option<&[AtomicU64; 3]>,
    ) {
        let (hidden, mid, n) = (layer.out_dim(), shared.w.cols(), self.width());
        assert_eq!(shared.w.rows(), hidden, "embedding width mismatch");
        let kernels = kernel::active();
        let clock = || split.map(|_| Instant::now());
        parallel::for_each_row_block_with(
            out,
            n,
            BLOCK_ROWS,
            &mut ws.block,
            BLOCK_ROWS * (hidden + (2 * layer.in_dim).max(mid)),
            |row0, block, lane| {
                let rows = block.len() / n;
                let (y, lane) = lane.split_at_mut(BLOCK_ROWS * hidden);
                let y = &mut y[..rows * hidden];
                let t0 = clock();
                layer.block(kernels, quotient.0, Some(quotient.1), h, row0, lane, y);
                let t1 = clock();
                let y = Rows {
                    data: y,
                    cols: hidden,
                    first: row0,
                };
                let z = &mut lane[..rows * mid];
                kernels.gemm_block(
                    &dense(y, shared.w.as_slice(), &shared.b, shared.relu),
                    row0,
                    z,
                );
                let t2 = clock();
                let z = Rows {
                    data: z,
                    cols: mid,
                    first: row0,
                };
                kernels.gemm_block(&dense(z, &self.w, &self.bias, self.relu), row0, block);
                if let (Some(split), Some(t0), Some(t1), Some(t2)) = (split, t0, t1, t2) {
                    let spans = [t1 - t0, t2 - t1, t2.elapsed()];
                    for (slot, span) in split.iter().zip(spans) {
                        slot.fetch_add(span.as_nanos() as u64, Ordering::Relaxed);
                    }
                }
            },
        );
    }
}

/// One dense layer's GEMM over `x`: `act(x @ w + bias)`.
fn dense<'a>(x: Rows<'a>, w: &'a [f32], bias: &'a [f32], relu: bool) -> GemmArgs<'a> {
    GemmArgs {
        operands: [Operand { x, w }, Operand::none()],
        epilogue: Epilogue {
            bias: Some(bias),
            relu,
        },
        n: bias.len(),
        accumulate: false,
    }
}

/// The one row block of aggregated neighbourhoods an inference forward
/// through a [`SageLayer`] holds at a time (one block per kernel thread on
/// the row-block-parallel path), next to the block of self rows a layer
/// over a quotient gathers — shared by every layer of a model, since
/// layers run in sequence, and by the fused tail, which holds the last
/// layer's output block beside them and the shared layer's in their place
/// (`FusedLinears::forward_rows_after`).
///
/// There is deliberately no concat buffer either: the split-weight forward
/// multiplies `h` and the aggregate against the two row halves of the
/// combined weight matrix, so the `[h | agg]` concatenation is never
/// materialised.
#[derive(Clone, Debug, Default)]
pub struct SageScratch {
    block: Vec<f32>,
}

/// What a training-mode forward through one [`SageLayer`] leaves for its
/// backward pass: the neighbourhood means of the layer's input, and its
/// output. Buffers are reused across training steps.
#[derive(Clone, Debug, Default)]
pub struct SageTape {
    agg: Matrix,
    y: Matrix,
}

impl SageTape {
    /// The layer's output — the next layer's input.
    pub fn output(&self) -> &Matrix {
        &self.y
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
    /// allocation once `ws` and `out` have enough capacity and the graph's
    /// inverse degrees are derived, by its first aggregation): per row
    /// block, the neighbour mean goes into `ws` and straight on into the
    /// split-weight GEMM (`SageLayer::fused_into`'s arithmetic, row for
    /// row).
    ///
    /// # Panics
    ///
    /// Panics if `h` does not have one `in_dim`-wide row per node.
    pub fn forward_into(&self, graph: &Graph, h: &Matrix, ws: &mut SageScratch, out: &mut Matrix) {
        assert_eq!(h.rows(), graph.num_nodes(), "one embedding row per node");
        out.reshape_for_overwrite(h.rows(), self.lin.w.cols());
        self.forward_adjacency(
            graph.adjacency(),
            None,
            Rows::all(h),
            ws,
            out.as_mut_slice(),
        );
    }

    /// The convolution over a quotient of the graph
    /// ([`crate::refine::Refinement::quotient`]): output row `c` is that of
    /// the representative of class `c`, whose self term is the row
    /// `own[c]` of `h` and whose neighbour mean is row `c` of `adj`,
    /// gathered from `h`. Row for row, the arithmetic of
    /// [`SageLayer::forward_into`] at the representative.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not `in_dim` wide or misses a row `own` or `adj`
    /// names.
    pub(crate) fn forward_quotient(
        &self,
        adj: Adjacency<'_>,
        own: &[u32],
        h: Rows<'_>,
        ws: &mut SageScratch,
        out: &mut [f32],
    ) {
        self.forward_adjacency(adj, Some(own), h, ws, out);
    }

    /// The convolution over `adj`, one output row per row of it; the self
    /// term of row `v` is row `own[v]` of `h`, gathered into `ws` next to
    /// the aggregate, or row `v` itself without `own`.
    fn forward_adjacency(
        &self,
        adj: Adjacency<'_>,
        own: Option<&[u32]>,
        h: Rows<'_>,
        ws: &mut SageScratch,
        out: &mut [f32],
    ) {
        let kernels = kernel::active();
        parallel::for_each_row_block_with(
            out,
            self.out_dim(),
            BLOCK_ROWS,
            &mut ws.block,
            2 * BLOCK_ROWS * self.in_dim,
            |row0, block, lane| self.block(kernels, adj, own, h, row0, lane, block),
        );
    }

    /// Output width.
    fn out_dim(&self) -> usize {
        self.lin.w.cols()
    }

    /// The rows `row0 ..` of the convolution over `adj` that `block` has
    /// room for, the aggregate and the gathered self rows held in `lane`
    /// (two blocks of `in_dim`-wide rows).
    #[allow(clippy::too_many_arguments)]
    fn block(
        &self,
        kernels: &Kernels,
        adj: Adjacency<'_>,
        own: Option<&[u32]>,
        h: Rows<'_>,
        row0: usize,
        lane: &mut [f32],
        block: &mut [f32],
    ) {
        let (k, n) = (self.in_dim, self.out_dim());
        assert_eq!(h.cols, k, "embedding width mismatch");
        let (w_self, w_neigh) = self.lin.w.as_slice().split_at(k * n);
        let rows = block.len() / n;
        let (agg, gathered) = lane.split_at_mut(BLOCK_ROWS * k);
        let agg = &mut agg[..rows * k];
        adj.aggregate(kernels, row0, h, agg);
        let aggregated = Rows {
            data: agg,
            cols: k,
            first: row0,
        };
        let x_self = match own {
            None => h,
            Some(own) => {
                let gathered = &mut gathered[..rows * k];
                let own = &own[row0..row0 + rows];
                for (dst, &r) in gathered.chunks_exact_mut(k).zip(own) {
                    dst.copy_from_slice(h.row(r as usize));
                }
                Rows {
                    data: gathered,
                    cols: k,
                    first: row0,
                }
            }
        };
        let args = GemmArgs {
            operands: [
                Operand {
                    x: x_self,
                    w: w_self,
                },
                Operand {
                    x: aggregated,
                    w: w_neigh,
                },
            ],
            epilogue: Epilogue {
                bias: Some(&self.lin.b),
                relu: true,
            },
            n,
            accumulate: false,
        };
        kernels.gemm_block(&args, row0, block);
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

    /// Training forward pass: the output goes to `tape`, with the
    /// neighbourhood means the backward pass needs for the weight
    /// gradient.
    ///
    /// The output is computed through the same split-weight fused kernel
    /// as [`SageLayer::forward_into`], over the whole aggregation matrix
    /// instead of block by block (training and inference logits stay
    /// bit-identical: a row's arithmetic does not depend on which rows are
    /// computed with it).
    pub fn forward_train(&self, graph: &Graph, h: &Matrix, tape: &mut SageTape) {
        graph.mean_aggregate_into(h, &mut tape.agg);
        self.fused_into(h, &tape.agg, &mut tape.y);
    }

    /// Backward pass from `dy`, the gradient w.r.t. the output `tape`
    /// holds for the input `h`: masks `dy` through the ReLU in place,
    /// accumulates the weight and bias gradients and, when asked, writes
    /// `d(h)` to `dh` (the first layer's input gradient has no taker).
    ///
    /// The `[h | agg]` concatenation of the layer's definition is never
    /// built: its two column halves meet the two row halves of the
    /// combined weights, in `X^T @ dY` as in `dY @ W^T`, so each half is
    /// a product of its own.
    ///
    /// # Panics
    ///
    /// Panics if `tape` was not filled by a [`SageLayer::forward_train`]
    /// of `h` over `graph`.
    pub fn backward(
        &mut self,
        graph: &Graph,
        h: &Matrix,
        tape: &SageTape,
        dy: &mut Matrix,
        ws: &mut BackwardScratch,
        dh: Option<&mut Matrix>,
    ) {
        let lin = &mut self.lin;
        let half = self.in_dim * lin.w.cols();
        dy.relu_backward_in_place(&tape.y);
        let (gw_self, gw_neigh) = lin.gw.as_mut_slice().split_at_mut(half);
        h.transpose_matmul_add_into(dy, &mut ws.transposed, gw_self);
        let agg = &tape.agg;
        agg.transpose_matmul_add_into(dy, &mut ws.transposed, gw_neigh);
        dy.add_column_sums_to(&mut lin.gb);
        if let Some(dh) = dh {
            let (w_self, w_neigh) = lin.w.as_slice().split_at(half);
            dy.matmul_transpose_into(w_self, &mut ws.transposed, dh);
            dy.matmul_transpose_into(w_neigh, &mut ws.transposed, &mut ws.neigh);
            graph.mean_aggregate_backward_add(&ws.neigh, dh);
        }
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

    /// See [`Linear::visit_param_grads`].
    pub fn visit_param_grads(&mut self, visit: &mut dyn FnMut(&mut [f32], &[f32])) {
        self.lin.visit_param_grads(visit);
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
        let y = lin.forward(&x);
        let mut ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let mut gx = Matrix::default();
        let mut ws = BackwardScratch::default();
        lin.backward(&x, &y, &mut ones, &mut ws, &mut gx);

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
        let mut tape = SageTape::default();
        layer.forward_train(&graph, &x, &mut tape);
        let y = tape.output();
        let mut ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let mut gx = Matrix::default();
        let mut ws = BackwardScratch::default();
        layer.backward(&graph, &x, &tape, &mut ones, &mut ws, Some(&mut gx));

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
        let y = lin.forward(&x);
        let mut g = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 6]);
        let mut ws = BackwardScratch::default();
        lin.backward(&x, &y, &mut g, &mut ws, &mut Matrix::default());
        assert!(lin.gw.norm() > 0.0);
        lin.zero_grad();
        assert_eq!(lin.gw.norm(), 0.0);
    }
}
