//! The two inner kernels of the forward pass — the fused GEMM row block
//! and the mean-aggregation row block — each written once as a generic
//! body and compiled once per instruction set the crate knows about.
//!
//! **Variants.** `portable` is built with the target's baseline features
//! (SSE2 on x86-64, NEON on aarch64) and exists on every architecture; on
//! x86-64 the same bodies are compiled twice more under
//! `#[target_feature(enable = "avx2")]` and `"avx512f"`, which only widens
//! the vectors the compiler may pick for the fixed-size column loops.
//!
//! **Dispatch.** [`active`] probes the CPU once per process
//! (`is_x86_feature_detected!`), keeps the widest variant it may run in a
//! `OnceLock`, and every row block goes through that table's function
//! pointers. There is nothing to configure: a binary built anywhere runs
//! the best variant of the machine it lands on.
//!
//! **Why every variant computes the same bits.** The bodies spell out one
//! expression tree per output element — `acc += ((a0*v0 + a1*v1) + a2*v2)
//! + a3*v3` over K-quads in ascending K, neighbours in CSR order — and
//! Rust never contracts a multiply and an add into a fused multiply-add,
//! whatever the enabled features (`avx512f` implies `fma` in LLVM; it goes
//! unused). Lanes are independent, so vector width cannot change a lane's
//! result: the variants agree with each other, across CPUs, and with the
//! scalar definition. `tests/kernel_variants.rs` pins that.
//!
//! **Two K orders.** The GEMM body is instantiated twice per variant. The
//! forward pass runs the quad tree above. The backward pass of training
//! runs the *sequential* order, `acc += a_k * v_k` one k at a time in
//! ascending k: the expression a dot product accumulated from `+0.0` and a
//! row-by-row rank-1 update both evaluate, so `dY @ W^T` and `X^T @ dY`
//! through the tile are, bit for bit, the scalar loops the trainer ran
//! before it had a kernel. That sweep has no zero skip: about half of a
//! ReLU gradient is zero, at random, so a branch per activation costs
//! more than the multiply it saves; and over finite operands the `±0.0`
//! product of a zero activation cannot change a sum that started at
//! `+0.0` (such a sum is never `-0.0`), which is why the scalar rank-1
//! loop, which did skip, is reproduced all the same.

#![allow(clippy::needless_range_loop)]

use crate::tensor::Epilogue;
use std::sync::OnceLock;

/// Register-tile height: output rows accumulated together, so the weight
/// rows of a K-quad are loaded once per [`MR`] rows.
pub(crate) const MR: usize = 4;

/// Rows handed to one kernel call, by the GEMM and the aggregation alike,
/// so a SAGE layer can aggregate a block and multiply it while it is in
/// L1: a multiple of [`MR`] (tiles never straddle a worker boundary),
/// large enough that the indirect call through the variant table is
/// noise, small enough that a block's output rows plus its gathered
/// neighbour rows stay cache-resident.
pub(crate) const BLOCK_ROWS: usize = 16 * MR;

/// Rows `first..` of a row-major matrix `cols` wide. The kernels address
/// activations by the whole matrix's row numbers (the graph's node ids),
/// so a buffer may hold only the rows one group of sections works on.
#[derive(Copy, Clone)]
pub(crate) struct Rows<'a> {
    pub data: &'a [f32],
    pub cols: usize,
    pub first: usize,
}

impl<'a> Rows<'a> {
    /// Every row of `m`.
    pub(crate) fn all(m: &'a crate::Matrix) -> Self {
        Rows {
            data: m.as_slice(),
            cols: m.cols(),
            first: 0,
        }
    }

    /// One past the last row held.
    pub(crate) fn end(&self) -> usize {
        self.first + self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Row `r` of the whole matrix.
    #[inline(always)]
    pub(crate) fn row(&self, r: usize) -> &'a [f32] {
        let i = r - self.first;
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// One `x @ w` sweep of a fused GEMM: the output rows' rows of `x`, `k =
/// x.cols` wide, against row-major `k x n` weights.
pub(crate) struct Operand<'a> {
    pub x: Rows<'a>,
    pub w: &'a [f32],
}

impl Operand<'_> {
    /// The absent second sweep of a dense layer.
    pub(crate) fn none() -> Self {
        Operand {
            x: Rows {
                data: &[],
                cols: 0,
                first: 0,
            },
            w: &[],
        }
    }
}

/// Everything a GEMM row block needs besides its output rows:
/// `out = act((Σ_operands x @ w) [+ bias])`, or, with `accumulate`, the
/// same sum added onto what `out` already holds.
pub(crate) struct GemmArgs<'a> {
    /// The split-weight SAGE layer has two sweeps; a dense layer leaves
    /// the second one empty (`k == 0`).
    pub operands: [Operand<'a>; 2],
    pub epilogue: Epilogue<'a>,
    pub n: usize,
    pub accumulate: bool,
}

/// Everything a mean-aggregation row block needs: the CSR arrays and the
/// embeddings to gather from, which must hold every neighbour of the
/// block's nodes.
pub(crate) struct AggArgs<'a> {
    pub offsets: &'a [u32],
    pub neighbors: &'a [u32],
    pub inv_deg: &'a [f32],
    pub h: Rows<'a>,
}

/// `(args, first_row, out_rows)`: computes the whole rows of `out_rows`.
type GemmBlockFn = unsafe fn(&GemmArgs<'_>, usize, &mut [f32]);
type AggBlockFn = unsafe fn(&AggArgs<'_>, usize, &mut [f32]);

/// One compiled variant of the kernels. Values only exist in the
/// per-variant modules below, and [`supported`] hands out only those whose
/// instruction set the running CPU has — the invariant the `unsafe` calls
/// here rest on.
pub(crate) struct Kernels {
    isa: &'static str,
    gemm: GemmBlockFn,
    gemm_seq: GemmBlockFn,
    aggregate: AggBlockFn,
}

impl Kernels {
    /// `"portable"`, `"avx2"` or `"avx512f"`.
    pub(crate) fn isa(&self) -> &'static str {
        self.isa
    }

    /// Runs the fused GEMM over the whole rows in `block` (row `row0`
    /// onwards of the output).
    #[inline]
    pub(crate) fn gemm_block(&self, args: &GemmArgs<'_>, row0: usize, block: &mut [f32]) {
        // SAFETY: a `#[target_feature]` fn is only unsafe to call on a
        // CPU without that feature; `self` came from `supported()`, which
        // checked the feature at run time before yielding this table.
        unsafe { (self.gemm)(args, row0, block) }
    }

    /// [`Kernels::gemm_block`] in the sequential K order (see the module
    /// docs).
    #[inline]
    pub(crate) fn gemm_seq_block(&self, args: &GemmArgs<'_>, row0: usize, block: &mut [f32]) {
        // SAFETY: as in `gemm_block` — `supported()` verified the CPU
        // feature this variant was compiled for.
        unsafe { (self.gemm_seq)(args, row0, block) }
    }

    /// Runs mean aggregation over the whole rows in `block` (node `v0`
    /// onwards).
    #[inline]
    pub(crate) fn aggregate_block(&self, args: &AggArgs<'_>, v0: usize, block: &mut [f32]) {
        // SAFETY: as in `gemm_block` — `supported()` verified the CPU
        // feature this variant was compiled for.
        unsafe { (self.aggregate)(args, v0, block) }
    }
}

/// Every compiled variant the running CPU can execute, `portable` first,
/// widest last.
pub(crate) fn supported() -> Vec<&'static Kernels> {
    let compiled: &[(bool, &'static Kernels)] = &[
        (true, &portable::KERNELS),
        #[cfg(target_arch = "x86_64")]
        (std::is_x86_feature_detected!("avx2"), &avx2::KERNELS),
        #[cfg(target_arch = "x86_64")]
        (std::is_x86_feature_detected!("avx512f"), &avx512f::KERNELS),
    ];
    let runnable = compiled.iter().filter(|(detected, _)| *detected);
    runnable.map(|&(_, kernels)| kernels).collect()
}

/// The variant this process runs: the widest one [`supported`] lists,
/// chosen on first use.
pub(crate) fn active() -> &'static Kernels {
    static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
    ACTIVE.get_or_init(|| supported().pop().expect("portable is always supported"))
}

/// Compiles the generic bodies once under the given attribute. `$width`
/// is the widest column chunk the variant tries (see
/// [`for_each_column_chunk`]) — a constant from measurement on this
/// repository's benchmark host, not a register count: the accumulators
/// stop fitting the register file well below these widths, and wider
/// chunks still win until the per-row zero-quad test and activation
/// broadcasts are amortised over 32 lanes (64 with 512-bit vectors).
macro_rules! compile_variant {
    ($name:ident, $width:literal $(, #[$feature:meta])?) => {
        mod $name {
            use super::{aggregate_block, gemm_block, AggArgs, GemmArgs, Kernels};

            /// # Safety
            ///
            /// The CPU must support this variant's `target_feature`
            /// (`portable` asks for none).
            $(#[$feature])?
            unsafe fn gemm(args: &GemmArgs<'_>, row0: usize, block: &mut [f32]) {
                gemm_block::<$width, false>(args, row0, block);
            }

            /// # Safety
            ///
            /// As for `gemm`.
            $(#[$feature])?
            unsafe fn gemm_seq(args: &GemmArgs<'_>, row0: usize, block: &mut [f32]) {
                gemm_block::<$width, true>(args, row0, block);
            }

            /// # Safety
            ///
            /// As for `gemm`.
            $(#[$feature])?
            unsafe fn aggregate(args: &AggArgs<'_>, v0: usize, block: &mut [f32]) {
                aggregate_block::<$width>(args, v0, block);
            }

            pub(super) static KERNELS: Kernels = Kernels {
                isa: stringify!($name),
                gemm,
                gemm_seq,
                aggregate,
            };
        }
    };
}

compile_variant!(portable, 32);
#[cfg(target_arch = "x86_64")]
compile_variant!(avx2, 32, #[target_feature(enable = "avx2")]);
#[cfg(target_arch = "x86_64")]
compile_variant!(avx512f, 64, #[target_feature(enable = "avx512f")]);

// The bodies below are inlined into `#[target_feature]` functions, and
// only code that is *part of them* is compiled with the wider vectors: a
// closure or iterator adaptor is a function of its own, keeps the baseline
// features and — when the inliner declines it — runs as SSE2 inside an
// AVX-512 loop. Hence macros instead of closures over the accumulator
// rows, and indexed loops over the fixed-size lane arrays.

/// A kernel's work on columns `j0 .. j0 + w` of its current rows, with an
/// `NR`-lane register tile (`w == NR`, or `w < NR` for the ragged end).
trait ColumnTile {
    fn run<const NR: usize>(&mut self, j0: usize, w: usize);
}

/// Covers columns `0..n` with the widest chunks that fit, trying widths
/// `W, W/2, ..., 4` in turn, then one zero-padded 4-lane chunk for the
/// last `n % 4` columns. Columns never interact, so how they are chunked
/// cannot change a result.
#[inline(always)]
fn for_each_column_chunk<const W: usize, T: ColumnTile>(n: usize, tile: &mut T) {
    let mut j0 = 0;
    macro_rules! chunks_of {
        ($nr:literal) => {
            if W >= $nr {
                while j0 + $nr <= n {
                    tile.run::<$nr>(j0, $nr);
                    j0 += $nr;
                }
            }
        };
    }
    chunks_of!(64);
    chunks_of!(32);
    chunks_of!(16);
    chunks_of!(8);
    chunks_of!(4);
    if j0 < n {
        tile.run::<4>(j0, n - j0);
    }
}

/// Lanes `off .. off + w` of `src`, zero-padded to `NR`. Full chunks pass
/// the literal `w == NR`, which folds the loop to a fixed-size vector
/// load once this is inlined.
// An indexed loop, not `copy_from_slice`: the `memcpy` into `lanes` keeps
// the K-sweep's weight rows on the stack, and the hidden-32 forward
// measures ~7% slower end to end (`cold_stream`, 0 of 6 pairs).
#[allow(clippy::manual_memcpy)]
#[inline(always)]
fn load<const NR: usize>(src: &[f32], off: usize, w: usize) -> [f32; NR] {
    let mut lanes = [0.0f32; NR];
    let src = &src[off..off + w];
    for j in 0..w {
        lanes[j] = src[j];
    }
    lanes
}

/// Writes the first `w` lanes to `dst[off .. off + w]`.
#[inline(always)]
fn store<const NR: usize>(lanes: &[f32; NR], dst: &mut [f32], off: usize, w: usize) {
    dst[off..off + w].copy_from_slice(&lanes[..w]);
}

/// One [`MR`]-row tile of a GEMM block. `rows` are the activation row
/// indices; a short last tile repeats its final row and stores only the
/// `live` distinct ones. `SEQ` picks the K order (see the module docs).
struct GemmTile<'a, const SEQ: bool> {
    args: &'a GemmArgs<'a>,
    rows: [usize; MR],
    live: usize,
    out: &'a mut [f32],
}

impl<const SEQ: bool> ColumnTile for GemmTile<'_, SEQ> {
    #[inline(always)]
    fn run<const NR: usize>(&mut self, j0: usize, w: usize) {
        let GemmArgs {
            operands,
            epilogue,
            n,
            accumulate,
        } = self.args;
        let (n, live) = (*n, self.live);
        // [`MR`] named accumulator rows, not `[[f32; NR]; MR]` indexed by
        // a loop variable: with the zero-quad branch in the loop body LLVM
        // keeps the former in registers across the K sweep and spills the
        // latter.
        let (mut c0, mut c1, mut c2, mut c3) = ([0.0f32; NR], [0.0; NR], [0.0; NR], [0.0; NR]);
        macro_rules! each_row {
            (|$i:pat_param, $c:ident| $body:expr) => {{
                {
                    let ($i, $c) = (0usize, &mut c0);
                    $body
                }
                {
                    let ($i, $c) = (1usize, &mut c1);
                    $body
                }
                {
                    let ($i, $c) = (2usize, &mut c2);
                    $body
                }
                {
                    let ($i, $c) = (3usize, &mut c3);
                    $body
                }
            }};
        }
        if *accumulate {
            each_row!(|i, c| *c = load(self.out, i.min(live - 1) * n + j0, w));
        }
        for op in operands {
            let k_total = op.x.cols;
            let [r0, r1, r2, r3] = self.rows;
            let a: [&[f32]; MR] = [op.x.row(r0), op.x.row(r1), op.x.row(r2), op.x.row(r3)];
            let mut k = 0;
            while !SEQ && k + 4 <= k_total {
                let v0 = load::<NR>(op.w, k * n + j0, w);
                let v1 = load::<NR>(op.w, (k + 1) * n + j0, w);
                let v2 = load::<NR>(op.w, (k + 2) * n + j0, w);
                let v3 = load::<NR>(op.w, (k + 3) * n + j0, w);
                each_row!(|i, c| {
                    let (a0, a1, a2, a3) = (a[i][k], a[i][k + 1], a[i][k + 2], a[i][k + 3]);
                    // `a0 != 0.0 || .. || a3 != 0.0` on the bit patterns:
                    // anything but +-0 has a bit below the sign set. The
                    // skip keeps the sparse 0/1 feature rows of the first
                    // layer cheap, and is part of the result's definition
                    // (a skipped quad never turns a -0.0 into +0.0).
                    let any = a0.to_bits() | a1.to_bits() | a2.to_bits() | a3.to_bits();
                    if any << 1 != 0 {
                        for j in 0..NR {
                            c[j] += a0 * v0[j] + a1 * v1[j] + a2 * v2[j] + a3 * v3[j];
                        }
                    }
                });
                k += 4;
            }
            while k < k_total {
                let v = load::<NR>(op.w, k * n + j0, w);
                each_row!(|i, c| {
                    let a = a[i][k];
                    if SEQ || a != 0.0 {
                        for j in 0..NR {
                            c[j] += a * v[j];
                        }
                    }
                });
                k += 1;
            }
        }
        if let Some(bias) = epilogue.bias {
            let b = load::<NR>(bias, j0, w);
            each_row!(|_, c| {
                for j in 0..NR {
                    c[j] += b[j];
                }
            });
        }
        if epilogue.relu {
            each_row!(|_, c| {
                for j in 0..NR {
                    c[j] = c[j].max(0.0);
                }
            });
        }
        each_row!(|i, c| {
            if i < live {
                store(c, self.out, i * n + j0, w);
            }
        });
    }
}

/// The fused GEMM over the whole rows of `block` (output rows `row0..`):
/// per [`MR`]-row tile and column chunk, the accumulators start at zero
/// (or at `block`'s values), sweep the full K of both operands in
/// registers, take the epilogue and are stored once.
#[inline(always)]
fn gemm_block<const W: usize, const SEQ: bool>(
    args: &GemmArgs<'_>,
    row0: usize,
    block: &mut [f32],
) {
    let n = args.n;
    let rows = block.len() / n;
    let mut t = 0;
    while t < rows {
        let live = (rows - t).min(MR);
        let last = row0 + t + live - 1;
        let mut tile = GemmTile::<SEQ> {
            args,
            rows: [
                row0 + t,
                (row0 + t + 1).min(last),
                (row0 + t + 2).min(last),
                last,
            ],
            live,
            out: &mut block[t * n..(t + live) * n],
        };
        for_each_column_chunk::<W, _>(n, &mut tile);
        t += MR;
    }
}

/// One output row of an aggregation block.
struct AggTile<'a> {
    h: Rows<'a>,
    neigh: &'a [u32],
    inv: f32,
    row: &'a mut [f32],
}

impl ColumnTile for AggTile<'_> {
    #[inline(always)]
    fn run<const NR: usize>(&mut self, j0: usize, w: usize) {
        let mut acc = [0.0f32; NR];
        for &u in self.neigh {
            let x = load::<NR>(
                self.h.data,
                (u as usize - self.h.first) * self.h.cols + j0,
                w,
            );
            for j in 0..NR {
                acc[j] += x[j];
            }
        }
        // An isolated node has `inv == 0.0` and an all-zero sum: the
        // product is the +0.0 row it must get.
        for j in 0..NR {
            acc[j] *= self.inv;
        }
        store(&acc, self.row, j0, w);
    }
}

/// Mean aggregation over the whole rows of `block` (nodes `v0..`): each
/// row is summed over its neighbours in CSR order in registers, scaled by
/// `1 / degree` and stored once.
///
/// # Panics
///
/// Panics if a neighbour of the block lies outside the rows `args.h`
/// holds — a group of sections cut in the wrong place — before any row is
/// gathered.
#[inline(always)]
fn aggregate_block<const W: usize>(args: &AggArgs<'_>, v0: usize, block: &mut [f32]) {
    let dim = args.h.cols;
    let rows = block.len() / dim;
    // One subtract-and-max per edge, over indices the gather is about to
    // read anyway (an indexed loop: see the note on closures above).
    let gathered = &args.neighbors[args.offsets[v0] as usize..args.offsets[v0 + rows] as usize];
    let held = args.h.end() - args.h.first;
    let mut furthest = 0usize;
    for e in 0..gathered.len() {
        furthest = furthest.max((gathered[e] as usize).wrapping_sub(args.h.first));
    }
    assert!(
        gathered.is_empty() || furthest < held,
        "rows {v0}..{} have a neighbour outside the activation window {}..{}: \
         a group was not cut at a section boundary",
        v0 + rows,
        args.h.first,
        args.h.end()
    );
    for i in 0..rows {
        let v = v0 + i;
        let mut tile = AggTile {
            h: args.h,
            neigh: &args.neighbors[args.offsets[v] as usize..args.offsets[v + 1] as usize],
            inv: args.inv_deg[v],
            row: &mut block[i * dim..(i + 1) * dim],
        };
        for_each_column_chunk::<W, _>(dim, &mut tile);
    }
}
