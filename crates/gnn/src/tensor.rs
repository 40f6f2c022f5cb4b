//! Dense 2-D tensors with multi-threaded, cache-blocked kernels.
//!
//! The paper runs GraphSAGE on an NVIDIA A100; this reproduction substitutes
//! data-parallel CPU kernels (scoped threads over row blocks),
//! which preserves the batching/parallelism story of Figures 7 and 8 at CPU
//! scale. Only the operations the GNN stack needs are implemented.
//!
//! The forward-pass GEMMs all funnel through [`fused_gemm_into`], which
//! fans row blocks out to the register-tiled micro-kernel in
//! [`crate::kernel`]: a 4-row accumulator tile stays in registers across
//! the whole K sweep, and the kernel takes an optional *second*
//! input/weight pair (the split-weight SAGE trick: `concat([h, agg]) @ W
//! == h @ W_self + agg @ W_neigh`, no concat buffer) and a fused
//! bias + ReLU epilogue, so a whole layer is one pass over the output
//! instead of matmul-then-bias-then-activation. That module also says
//! which instruction-set variant runs and why all of them produce the
//! same bits. The two products of a backward pass —
//! [`Matrix::transpose_matmul_add_into`], [`Matrix::matmul_transpose_into`]
//! — go through the same tile in its sequential K order, over a transposed
//! operand the caller keeps the scratch for.
//!
//! A [`Matrix`] owns its elements: one `Vec<f32>`, no other storage
//! class. Snapshot loads copy the weights in (the two presets' payloads
//! are 32 KB and 375 KB), which is what lets every load verify the
//! payload checksum.

use crate::kernel::{self, GemmArgs, Kernels, Operand, Rows, BLOCK_ROWS};
use crate::parallel;
use rand::Rng;
use std::fmt;

/// A row-major `rows x cols` matrix of `f32`.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// The row-major elements, for code generic over "a matrix or a stretch
/// of one".
impl AsMut<[f32]> for Matrix {
    fn as_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialisation.
    pub fn glorot(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying mutable row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Reshapes to `rows x cols` and zero-fills, reusing the existing
    /// allocation whenever capacity allows — the workhorse of the
    /// allocation-free inference path — and growing to exactly the new
    /// size when it does not, with the old buffer released first.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        clear_exact(&mut self.data, rows * cols);
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` *without* zeroing retained elements —
    /// for kernels that overwrite every element anyway (skips the memset
    /// that [`Matrix::reset`] pays unless the buffer has to grow).
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        if self.data.capacity() < rows * cols {
            clear_exact(&mut self.data, rows * cols);
        }
        self.data.resize(rows * cols, 0.0);
    }

    /// Becomes a copy of `src`, reusing the existing allocation whenever
    /// capacity allows.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// `self @ other` with parallel row blocks.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self @ other`, writing into a caller-owned buffer (no heap
    /// allocation once `out` has enough capacity). Runs the register-tiled
    /// micro-kernel (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let w = other.as_slice();
        fused_gemm_into(self, w, None, Epilogue::default(), other.cols, out);
    }

    /// `out += self @ other`, accumulating into an existing buffer — the
    /// standalone counterpart of the split-weight accumulation inside
    /// `fused_gemm_into`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` is not
    /// `self.rows x other.cols`.
    pub fn matmul_add_into(&self, other: &Matrix, out: &mut Matrix) {
        KernelVariant::active().matmul_add_into(self, other, out);
    }

    /// `acc += self^T @ other` (weight gradients: `X^T @ dY`), `acc` being
    /// the `self.cols x other.cols` row-major accumulator. `scratch`
    /// receives `self^T`, which the register-tiled kernel then sweeps in
    /// its sequential K order: every element is the row-ascending sum
    /// `((acc + x[0][i] * y[0][j]) + x[1][i] * y[1][j]) + ...`. The rows —
    /// the reduction — are never split across threads, so the result does
    /// not depend on the thread budget.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `acc` has the wrong length.
    pub fn transpose_matmul_add_into(&self, other: &Matrix, scratch: &mut Matrix, acc: &mut [f32]) {
        KernelVariant::active().transpose_matmul_add_into(self, other, scratch, acc);
    }

    /// `out = self @ w^T` (input gradients: `dY @ W^T`) for a row-major
    /// `w` of `self.cols` columns. `scratch` receives `w^T`; every element
    /// is the dot product accumulated from `+0.0` in ascending column
    /// order, through the register-tiled kernel's sequential K order.
    ///
    /// # Panics
    ///
    /// Panics if `w.len()` is not a multiple of `self.cols`.
    pub fn matmul_transpose_into(&self, w: &[f32], scratch: &mut Matrix, out: &mut Matrix) {
        KernelVariant::active().matmul_transpose_into(self, w, scratch, out);
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.hconcat_into(other, &mut out);
        out
    }

    /// `out = [self | other]`, writing into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hconcat_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "hconcat shape mismatch");
        out.reshape_for_overwrite(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> Matrix {
        let mut out = self.clone();
        out.relu_in_place();
        out
    }

    /// Element-wise ReLU, in place.
    pub fn relu_in_place(&mut self) {
        for v in self.data.iter_mut() {
            *v = v.max(0.0);
        }
    }

    /// Masks gradients through a ReLU, in place: `self *= (activated > 0)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn relu_backward_in_place(&mut self, activated: &Matrix) {
        assert_eq!((self.rows, self.cols), (activated.rows, activated.cols));
        // A select, not a conditional store: the loop vectorises.
        for (g, &a) in self.as_mut_slice().iter_mut().zip(activated.as_slice()) {
            *g = if a <= 0.0 { 0.0 } else { *g };
        }
    }

    /// Adds a row vector (bias) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Adds every row onto `acc`, top to bottom (bias gradients).
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.cols`.
    pub fn add_column_sums_to(&self, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.cols);
        for r in 0..self.rows {
            for (o, &v) in acc.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// In-place scaled add: `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (o, &v) in self.data.iter_mut().zip(&other.data) {
            *o += scale * v;
        }
    }

    /// Frobenius norm (diagnostics and gradient-check tests).
    pub fn norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Empties `v` with room for `len` elements. A buffer too small for that
/// is released *before* its successor of exactly `len` is requested:
/// `Vec::resize` would grow by amortised doubling and carry over whatever
/// the buffer retained, so a worker's scratch sized by a 63-job batch
/// would double — and stay doubled — on the first 64-job one.
pub(crate) fn clear_exact<T>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        *v = Vec::new();
        v.reserve_exact(len);
    } else {
        v.clear();
    }
}

/// Makes room in `v` for `need` elements in all, for a buffer whose final
/// size is not known when it starts to fill: it grows by doubling, as
/// `Vec::push` would, but never past `most` elements (unless `need` is
/// more), a bound of what it can come to hold, so that it ends no larger
/// than a buffer sized by the bound up front.
pub(crate) fn grow_within<T>(v: &mut Vec<T>, need: usize, most: usize) {
    if v.capacity() < need {
        let want = (2 * v.capacity()).min(most).max(need);
        v.reserve_exact(want - v.len());
    }
}

/// The post-accumulation work fused into the GEMM: optional bias add,
/// optional ReLU. Both run on the accumulator tile before it is stored.
#[derive(Copy, Clone, Default)]
pub struct Epilogue<'a> {
    /// Per-output-column bias, length `n`.
    pub bias: Option<&'a [f32]>,
    /// Clamp the result at zero.
    pub relu: bool,
}

/// Fused layer GEMM: `out = act((x1 @ w1 [+ x2 @ w2]) [+ bias])` in one
/// pass over the output, parallel over row blocks, each block computed by
/// the process's kernel variant (see [`crate::kernel`]).
///
/// `w1`/`w2` are row-major `x.cols() x n` weights (for the SAGE
/// split-weight trick they are the two contiguous halves of one combined
/// `2d x n` matrix, so no weights are copied).
///
/// # Panics
///
/// Panics on any shape mismatch between the inputs, weights, bias and
/// `n`.
pub(crate) fn fused_gemm_into(
    x1: &Matrix,
    w1: &[f32],
    pair2: Option<(&Matrix, &[f32])>,
    epilogue: Epilogue<'_>,
    n: usize,
    out: &mut Matrix,
) {
    KernelVariant::active().fused_gemm_into(x1, w1, pair2, epilogue, n, out);
}

/// The shape checks and row-block fan-out behind every kernel-backed
/// GEMM of [`KernelVariant`]: `dst` is the `x1.rows x n` row-major output
/// (or accumulator); `sequential` picks the K order (see
/// [`crate::kernel`]).
#[allow(clippy::too_many_arguments)]
fn gemm_with(
    kernels: &Kernels,
    sequential: bool,
    x1: &Matrix,
    w1: &[f32],
    pair2: Option<(&Matrix, &[f32])>,
    epilogue: Epilogue<'_>,
    n: usize,
    accumulate: bool,
    dst: &mut [f32],
) {
    assert_eq!(w1.len(), x1.cols * n, "weight shape mismatch");
    if let Some((x2, w2)) = pair2 {
        assert_eq!(x2.rows, x1.rows, "fused GEMM input row mismatch");
        assert_eq!(w2.len(), x2.cols * n, "second weight shape mismatch");
    }
    if let Some(b) = epilogue.bias {
        assert_eq!(b.len(), n, "bias width mismatch");
    }
    assert_eq!(
        dst.len(),
        x1.rows * n,
        "GEMM output/accumulator shape mismatch"
    );
    let operand = |x, w| Operand { x: Rows::all(x), w };
    let args = GemmArgs {
        operands: [
            operand(x1, w1),
            pair2.map_or(Operand::none(), |(x2, w2)| operand(x2, w2)),
        ],
        epilogue,
        n,
        accumulate,
    };
    parallel::for_each_row_block(dst, n.max(1), BLOCK_ROWS, |row0, block| {
        if sequential {
            kernels.gemm_seq_block(&args, row0, block);
        } else {
            kernels.gemm_block(&args, row0, block);
        }
    });
}

/// A plain `a @ b` in the sequential K order, onto `dst` or over it: the
/// shape both backward products take once an operand is transposed.
fn gemm_seq_with(
    kernels: &Kernels,
    a: &Matrix,
    b: &[f32],
    n: usize,
    accumulate: bool,
    dst: &mut [f32],
) {
    let plain = Epilogue::default();
    gemm_with(kernels, true, a, b, None, plain, n, accumulate, dst);
}

/// `out = src^T` for a row-major `src` of `cols` columns.
fn transpose_into(src: &[f32], cols: usize, out: &mut Matrix) {
    let rows = src.len().checked_div(cols).unwrap_or(0);
    out.reshape_for_overwrite(cols, rows);
    let dst = out.as_mut_slice();
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// The kernel-backed operations over one compiled kernel variant. The
/// library only ever uses [`KernelVariant::active`]; the list of all
/// variants the CPU supports is the seam `tests/kernel_variants.rs`
/// compares them through — not a setting.
#[doc(hidden)]
#[derive(Copy, Clone)]
pub struct KernelVariant(&'static Kernels);

#[doc(hidden)]
impl KernelVariant {
    /// The variant this process runs ([`crate::kernel_isa`]).
    pub(crate) fn active() -> KernelVariant {
        KernelVariant(kernel::active())
    }

    /// Every variant this CPU can run, `portable` first.
    pub fn supported() -> Vec<KernelVariant> {
        kernel::supported().into_iter().map(KernelVariant).collect()
    }

    /// `"portable"`, `"avx2"` or `"avx512f"`.
    pub fn isa(&self) -> &'static str {
        self.0.isa()
    }

    /// [`fused_gemm_into`] through this variant.
    ///
    /// # Panics
    ///
    /// As [`fused_gemm_into`].
    pub fn fused_gemm_into(
        &self,
        x1: &Matrix,
        w1: &[f32],
        pair2: Option<(&Matrix, &[f32])>,
        epilogue: Epilogue<'_>,
        n: usize,
        out: &mut Matrix,
    ) {
        out.reshape_for_overwrite(x1.rows, n);
        let dst = &mut out.data;
        gemm_with(self.0, false, x1, w1, pair2, epilogue, n, false, dst);
    }

    /// [`Matrix::matmul_add_into`] through this variant.
    ///
    /// # Panics
    ///
    /// As [`Matrix::matmul_add_into`].
    pub fn matmul_add_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols, b.rows, "matmul shape mismatch");
        assert_eq!(out.rows, a.rows, "GEMM accumulator shape mismatch");
        let (w, n, none) = (b.as_slice(), b.cols, Epilogue::default());
        gemm_with(self.0, false, a, w, None, none, n, true, &mut out.data);
    }

    /// [`Matrix::transpose_matmul_add_into`] through this variant.
    ///
    /// # Panics
    ///
    /// As [`Matrix::transpose_matmul_add_into`].
    pub fn transpose_matmul_add_into(
        &self,
        x: &Matrix,
        dy: &Matrix,
        scratch: &mut Matrix,
        acc: &mut [f32],
    ) {
        assert_eq!(x.rows, dy.rows, "transpose_matmul shape mismatch");
        transpose_into(x.as_slice(), x.cols, scratch);
        gemm_seq_with(self.0, scratch, dy.as_slice(), dy.cols, true, acc);
    }

    /// [`Matrix::matmul_transpose_into`] through this variant.
    ///
    /// # Panics
    ///
    /// As [`Matrix::matmul_transpose_into`].
    pub fn matmul_transpose_into(
        &self,
        dy: &Matrix,
        w: &[f32],
        scratch: &mut Matrix,
        out: &mut Matrix,
    ) {
        let n = w.len().checked_div(dy.cols).unwrap_or(0);
        assert_eq!(w.len(), n * dy.cols, "matmul_transpose shape mismatch");
        transpose_into(w, dy.cols, scratch);
        out.reshape_for_overwrite(dy.rows, n);
        gemm_seq_with(self.0, dy, scratch.as_slice(), n, false, &mut out.data);
    }

    /// [`crate::Graph::mean_aggregate_into`] through this variant.
    pub fn mean_aggregate_into(&self, graph: &crate::Graph, h: &Matrix, out: &mut Matrix) {
        graph.mean_aggregate_with(self.0, h, out);
    }

    /// Mean aggregation of the nodes `nodes` alone, gathering from a
    /// buffer that holds only the embedding rows `first .. first +
    /// h.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if one of the nodes has a neighbour outside the held rows.
    pub fn mean_aggregate_rows_into(
        &self,
        graph: &crate::Graph,
        nodes: std::ops::Range<usize>,
        h: &Matrix,
        first: usize,
        out: &mut Matrix,
    ) {
        out.reshape_for_overwrite(nodes.len(), h.cols);
        let h = Rows {
            first,
            ..Rows::all(h)
        };
        graph
            .adjacency()
            .aggregate(self.0, nodes.start, h, out.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::glorot(rows, cols, &mut rng)
    }

    /// Capacity and base pointer of a matrix's storage.
    fn owned_parts(m: &Matrix) -> (usize, *const f32) {
        (m.data.capacity(), m.data.as_ptr())
    }

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = small(17, 9, 1);
        let b = small(9, 13, 2);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    /// The tiled kernel must survive a long K with a non-multiple-of-4
    /// remainder, and N not a register multiple.
    #[test]
    fn tiled_matmul_handles_odd_shapes() {
        for (m, k, n) in [(3, 2 * 256 + 3, 5), (1, 255, 1), (4, 7, 13)] {
            let a = small(m, k, 21 + k as u64);
            let b = small(k, n, 22 + n as u64);
            assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
        }
    }

    #[test]
    fn matmul_add_into_accumulates_on_top() {
        let a = small(7, 9, 31);
        let b = small(9, 6, 32);
        let mut out = Matrix::zeros(7, 6);
        a.matmul_add_into(&b, &mut out);
        a.matmul_add_into(&b, &mut out);
        let once = naive_matmul(&a, &b);
        let mut twice = once.clone();
        twice.add_scaled(&once, 1.0);
        assert_close(&out, &twice);
    }

    /// The fused epilogue (bias + ReLU inside the GEMM) matches the
    /// unfused matmul → bias → ReLU composition exactly.
    #[test]
    fn fused_epilogue_matches_unfused_composition() {
        let x = small(6, 10, 41);
        let w = small(10, 4, 42);
        let bias: Vec<f32> = (0..4).map(|i| i as f32 * 0.25 - 0.4).collect();
        let mut fused = Matrix::default();
        let epilogue = Epilogue {
            bias: Some(&bias),
            relu: true,
        };
        fused_gemm_into(&x, w.as_slice(), None, epilogue, 4, &mut fused);
        let mut unfused = x.matmul(&w);
        unfused.add_row_vector(&bias);
        unfused.relu_in_place();
        assert_eq!(fused, unfused);
    }

    /// Split-weight GEMM: `[h | agg] @ W` equals `h @ W_self + agg @
    /// W_neigh` when the halves are the contiguous row halves of `W`.
    #[test]
    fn split_weight_gemm_matches_concat_path() {
        let h = small(9, 6, 51);
        let agg = small(9, 6, 52);
        let w = small(12, 7, 53);
        let (w_self, w_neigh) = w.as_slice().split_at(6 * 7);
        let mut split = Matrix::default();
        let second = Some((&agg, w_neigh));
        fused_gemm_into(&h, w_self, second, Epilogue::default(), 7, &mut split);
        let concat = h.hconcat(&agg);
        assert_close(&split, &naive_matmul(&concat, &w));
    }

    #[test]
    fn transpose_matmul_matches_naive() {
        let a = small(23, 7, 3);
        let b = small(23, 11, 4);
        // a^T @ b
        let mut at = Matrix::zeros(a.cols(), a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                at.set(j, i, a.get(i, j));
            }
        }
        let (mut scratch, mut out) = (Matrix::default(), Matrix::zeros(7, 11));
        a.transpose_matmul_add_into(&b, &mut scratch, out.as_mut_slice());
        assert_eq!(scratch, at);
        assert_close(&out, &naive_matmul(&at, &b));
        // A second call accumulates on top.
        a.transpose_matmul_add_into(&b, &mut scratch, out.as_mut_slice());
        let mut twice = naive_matmul(&at, &b);
        twice.add_scaled(&naive_matmul(&at, &b), 1.0);
        assert_close(&out, &twice);
    }

    #[test]
    fn matmul_transpose_matches_naive() {
        let a = small(9, 6, 5);
        let b = small(14, 6, 6);
        let mut bt = Matrix::zeros(b.cols(), b.rows());
        for i in 0..b.rows() {
            for j in 0..b.cols() {
                bt.set(j, i, b.get(i, j));
            }
        }
        let (mut scratch, mut out) = (Matrix::default(), Matrix::default());
        a.matmul_transpose_into(b.as_slice(), &mut scratch, &mut out);
        assert_eq!(scratch, bt);
        assert_close(&out, &naive_matmul(&a, &bt));
    }

    #[test]
    fn concat_places_rows_side_by_side() {
        let a = small(5, 3, 7);
        let b = small(5, 4, 8);
        let cat = a.hconcat(&b);
        assert_eq!(cat.cols(), 7);
        for r in 0..5 {
            assert_eq!(cat.row(r)[..3], *a.row(r));
            assert_eq!(cat.row(r)[3..], *b.row(r));
        }
    }

    #[test]
    fn relu_and_backward() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let y = x.relu();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        g.relu_backward_in_place(&y);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn bias_and_column_sums() {
        let mut x = Matrix::zeros(3, 2);
        x.add_row_vector(&[1.0, -2.0]);
        let mut sums = [0.5, 0.0];
        x.add_column_sums_to(&mut sums);
        assert_eq!(sums, [3.5, -6.0]);
    }

    /// `_into` kernels reuse the destination's allocation: repeated calls
    /// at the same (or smaller) shape never reallocate, and results match
    /// the allocating variants exactly.
    #[test]
    fn into_variants_match_and_reuse_capacity() {
        let a = small(17, 9, 1);
        let b = small(9, 13, 2);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_close(&out, &a.matmul(&b));
        let (cap, ptr) = owned_parts(&out);
        // Same shape again: no growth, same buffer.
        a.matmul_into(&b, &mut out);
        assert_eq!(owned_parts(&out), (cap, ptr));
        // Smaller product fits in the same buffer.
        let c = small(5, 9, 3);
        c.matmul_into(&b, &mut out);
        assert_eq!(owned_parts(&out).0, cap);
        assert_close(&out, &c.matmul(&b));

        let mut cat = Matrix::default();
        let x = small(5, 3, 7);
        let y = small(5, 4, 8);
        x.hconcat_into(&y, &mut cat);
        assert_close(&cat, &x.hconcat(&y));

        let mut r = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        r.relu_in_place();
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0, 0.0]);

        let mut dst = Matrix::default();
        dst.copy_from(&x);
        assert_eq!(dst, x);
    }

    #[test]
    fn reset_zeroes_and_reshapes() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0; 6]);
        m.reset(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    /// Multi-row tiles must survive row counts off the tile height: every
    /// `m mod 4` residue, including sub-tile matrices.
    #[test]
    fn tiled_matmul_handles_all_row_remainders() {
        for m in 1..=9usize {
            let a = small(m, 37, 90 + m as u64);
            let b = small(37, 5, 91);
            assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
        }
    }

    #[test]
    fn glorot_is_bounded_and_seeded() {
        let a = small(64, 32, 42);
        let b = small(64, 32, 42);
        assert_eq!(a, b, "deterministic under the same seed");
        let limit = (6.0 / 96.0f32).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() <= limit));
    }
}
