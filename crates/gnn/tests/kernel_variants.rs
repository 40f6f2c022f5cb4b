//! Bit-identity guards for the CPU-dispatched kernels (`src/kernel.rs`).
//!
//! Every compiled variant the running CPU supports — reached through the
//! `#[doc(hidden)]` [`KernelVariant`] list, a test seam and not a setting —
//! must produce exactly the bits of the `portable` build, which in turn
//! must produce exactly the bits of the scalar definitions written out
//! below, over shapes that hit every column-chunk width, every row-tile
//! remainder, the K-quad remainder and the zero-quad skip. A golden hash
//! recorded from the previous kernel pins the whole forward pass across
//! the rewrite. The sequential K order the backward pass of training runs
//! is pinned the same way: against the two scalar loops the trainer used
//! before its products went through the tile, kept here verbatim. The
//! inference forward's fused shared + heads tail is pinned against the
//! layers it fuses, each run on its own. CI runs this file in debug and
//! `--release`: code generation differs per `target_feature`.

use gamora_gnn::parallel::set_intra_threads;
use gamora_gnn::{
    Direction, Epilogue, Graph, InferenceScratch, KernelVariant, Matrix, ModelConfig,
    MultiTaskSage, SageLayer, Tape,
};
use rand::{Rng, SeedableRng};

const NS: [usize; 9] = [1, 2, 4, 8, 31, 32, 33, 80, 96];
const KS: [usize; 8] = [1, 3, 4, 5, 32, 64, 160, 257];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Dense activations in [-1, 1] with ReLU-style exact zeros, or sparse
/// 0/1 features with a few `-0.0`s — whole zero K-quads in either case.
fn activations(rows: usize, k: usize, sparse: bool, rng: &mut impl Rng) -> Matrix {
    let mut m = Matrix::zeros(rows, k);
    for v in m.as_mut_slice() {
        *v = if sparse {
            [0.0, 0.0, -0.0, 1.0][rng.gen_range(0..4usize)]
        } else {
            let x: f32 = rng.gen_range(-1.0..1.0);
            x.max(0.0)
                - if rng.gen_range(0..8u32) == 0 {
                    0.5
                } else {
                    0.0
                }
        };
    }
    // One all-zero row: every quad of it is skipped.
    if rows > 1 {
        m.row_mut(rows / 2).fill(0.0);
    }
    m
}

/// The scalar definition of the fused GEMM, one output element at a time:
/// K-quads in ascending K as `acc += ((a0*v0 + a1*v1) + a2*v2) + a3*v3`,
/// skipped when all four activations are zero, then single steps for the
/// last `k % 4`, operand after operand; then bias, ReLU.
fn scalar_gemm(
    init: Option<&Matrix>,
    operands: &[(&Matrix, &[f32])],
    epilogue: Epilogue<'_>,
    n: usize,
) -> Matrix {
    let rows = operands[0].0.rows();
    let mut out = Matrix::zeros(rows, n);
    for r in 0..rows {
        for c in 0..n {
            let mut acc = init.map_or(0.0, |m| m.get(r, c));
            for &(x, w) in operands {
                let a = x.row(r);
                let mut k = 0;
                while k + 4 <= a.len() {
                    if a[k..k + 4].iter().any(|&v| v != 0.0) {
                        acc += a[k] * w[k * n + c]
                            + a[k + 1] * w[(k + 1) * n + c]
                            + a[k + 2] * w[(k + 2) * n + c]
                            + a[k + 3] * w[(k + 3) * n + c];
                    }
                    k += 4;
                }
                while k < a.len() {
                    if a[k] != 0.0 {
                        acc += a[k] * w[k * n + c];
                    }
                    k += 1;
                }
            }
            if let Some(b) = epilogue.bias {
                acc += b[c];
            }
            if epilogue.relu {
                acc = acc.max(0.0);
            }
            out.set(r, c, acc);
        }
    }
    out
}

/// Every variant, one and two operands, all four epilogues, over the
/// shape grid and row counts 1..=9 (every remainder of the 4-row tile,
/// with and without full tiles before it).
#[test]
fn every_variant_matches_the_scalar_gemm_definition() {
    let variants = KernelVariant::supported();
    assert_eq!(variants[0].isa(), "portable");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB175);
    let mut out = Matrix::default();
    let shapes = NS
        .iter()
        .flat_map(|&n| KS.iter().map(move |&k| (n, k)))
        .flat_map(|(n, k)| (1..=9).map(move |rows| (rows, k, n)));
    for (case, (rows, k, n)) in shapes.enumerate() {
        let sparse = case % 2 == 1;
        let x1 = activations(rows, k, sparse, &mut rng);
        let x2 = activations(rows, k, !sparse, &mut rng);
        let w = Matrix::glorot(2 * k, n, &mut rng);
        let (w1, w2) = w.as_slice().split_at(k * n);
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let epilogue = Epilogue {
            bias: (case % 4 < 2).then_some(&bias[..]),
            relu: case % 4 % 2 == 0,
        };
        for pair in [false, true] {
            let ops = if pair { 2 } else { 1 };
            let want = scalar_gemm(None, &[(&x1, w1), (&x2, w2)][..ops], epilogue, n);
            for v in &variants {
                let second = pair.then_some((&x2, w2));
                v.fused_gemm_into(&x1, w1, second, epilogue, n, &mut out);
                let what = format!("{} rows={rows} k={k} n={n} pair={pair}", v.isa());
                assert_eq!(bits(&out), bits(&want), "{what}");
            }
        }
    }
}

/// `matmul_add_into` starts from what the buffer holds — including a
/// `-0.0`, which only survives because an all-zero activation quad is
/// skipped rather than added as `+0.0`.
#[test]
fn matmul_add_into_keeps_negative_zero_under_every_variant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xADD);
    for (rows, k, n) in [(5, 8, 33), (9, 7, 4), (4, 160, 80), (1, 4, 1)] {
        let a = activations(rows, k, true, &mut rng);
        let b = Matrix::glorot(k, n, &mut rng);
        let mut start = Matrix::zeros(rows, n);
        for (i, v) in start.as_mut_slice().iter_mut().enumerate() {
            *v = [-0.0, 1.5, -0.0, -2.25][i % 4];
        }
        let want = scalar_gemm(Some(&start), &[(&a, b.as_slice())], Epilogue::default(), n);
        if rows > 1 {
            // The all-zero row of `a` leaves its accumulator row untouched.
            assert_eq!(
                want.row(rows / 2)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                start
                    .row(rows / 2)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
        for v in KernelVariant::supported() {
            let mut out = start.clone();
            v.matmul_add_into(&a, &b, &mut out);
            assert_eq!(bits(&out), bits(&want), "{} {rows}x{k}x{n}", v.isa());
        }
        let mut out = start.clone();
        a.matmul_add_into(&b, &mut out);
        assert_eq!(bits(&out), bits(&want), "dispatched {rows}x{k}x{n}");
    }
}

/// `x^T @ y` as `Matrix::transpose_matmul` computed the weight gradient
/// until the trainer's products moved into the kernel (its body, for one
/// chunk of rows): a rank-1 update per row, top to bottom, skipped where
/// `x` is zero, the chunk then added onto a zero matrix.
fn scalar_transpose_matmul(x: &Matrix, y: &Matrix) -> Matrix {
    let (m, n) = (x.cols(), y.cols());
    let mut acc = Matrix::zeros(m, n);
    for r in 0..x.rows() {
        let xr = x.row(r);
        let yr = y.row(r);
        for (i, &xv) in xr.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let acc_row = acc.row_mut(i);
            for (a, &yv) in acc_row.iter_mut().zip(yr) {
                *a += xv * yv;
            }
        }
    }
    let mut out = Matrix::zeros(m, n);
    for (o, &v) in out.as_mut_slice().iter_mut().zip(acc.as_slice()) {
        *o += v;
    }
    out
}

/// `a @ b^T` as `Matrix::matmul_transpose` computed the input gradient
/// (its body): one dot product per element, from `+0.0`, in ascending
/// column order.
fn scalar_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    let n = b.rows();
    let mut out = Matrix::zeros(a.rows(), n);
    for r in 0..a.rows() {
        let a_row = a.row(r);
        for c in 0..n {
            let b_row = b.row(c);
            let mut acc = 0.0f32;
            for (&a, &b) in a_row.iter().zip(b_row) {
                acc += a * b;
            }
            out.set(r, c, acc);
        }
    }
    out
}

/// Node counts of the backward products: the reduction length of `X^T @
/// dY`, the row count of `dY @ W^T` — off the 4-row tile, below and above
/// one 64-row block.
const NODES: [usize; 4] = [1, 5, 257, 3000];

/// Every variant's sequential-K sweep computes the two backward products
/// of a dense layer exactly as the scalar loops did: activations with
/// exact zeros, `-0.0`s and an all-zero row on either side, every output
/// width of the grid, reductions of one step and of thousands.
#[test]
fn every_variant_matches_the_scalar_backward_products() {
    let variants = KernelVariant::supported();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAC);
    let (mut scratch, mut out) = (Matrix::default(), Matrix::default());
    let shapes = NS
        .iter()
        .flat_map(|&n| KS.iter().map(move |&k| (n, k)))
        .flat_map(|(n, k)| NODES.iter().map(move |&nodes| (nodes, k, n)));
    for (case, (nodes, k, n)) in shapes.enumerate() {
        let sparse = case % 2 == 1;
        // Weight gradient: `k` input columns (the tile's rows), `n`
        // output columns (its lanes), summed over the nodes.
        let x = activations(nodes, k, sparse, &mut rng);
        let dy = activations(nodes, n, !sparse, &mut rng);
        let want = scalar_transpose_matmul(&x, &dy);
        for v in &variants {
            out.reset(k, n);
            v.transpose_matmul_add_into(&x, &dy, &mut scratch, out.as_mut_slice());
            let what = format!("{} x^T dy: nodes={nodes} k={k} n={n}", v.isa());
            assert_eq!(bits(&out), bits(&want), "{what}");
        }
        // Input gradient: `k` output columns summed over, `n` input
        // columns, one row per node.
        let dy = activations(nodes, k, sparse, &mut rng);
        let w = Matrix::glorot(n, k, &mut rng);
        let want = scalar_matmul_transpose(&dy, &w);
        for v in &variants {
            v.matmul_transpose_into(&dy, w.as_slice(), &mut scratch, &mut out);
            let what = format!("{} dy w^T: nodes={nodes} k={k} n={n}", v.isa());
            assert_eq!(bits(&out), bits(&want), "{what}");
        }
    }
}

/// Two kernel threads split the rows of `dY @ W^T` and never the
/// reduction of `X^T @ dY`: both products come out as on one thread.
#[test]
fn backward_products_do_not_depend_on_the_thread_budget() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7EAD);
    let nodes = 2 * 4096 + 5;
    let x = activations(nodes, 64, false, &mut rng);
    let dy = activations(nodes, 32, false, &mut rng);
    let w = Matrix::glorot(64, 32, &mut rng);
    for v in KernelVariant::supported() {
        let run = |threads: usize| {
            set_intra_threads(threads);
            let (mut scratch, mut dx) = (Matrix::default(), Matrix::default());
            let mut gw = Matrix::zeros(64, 32);
            v.transpose_matmul_add_into(&x, &dy, &mut scratch, gw.as_mut_slice());
            v.matmul_transpose_into(&dy, w.as_slice(), &mut scratch, &mut dx);
            set_intra_threads(0);
            (bits(&gw), bits(&dx))
        };
        let serial = run(1);
        assert_eq!(serial.0, bits(&scalar_transpose_matmul(&x, &dy)));
        assert_eq!(serial, run(2), "{}", v.isa());
    }
}

/// A hub touching every 7th node, random sparse edges, and a band of
/// isolated nodes at the end.
fn hub_graph(n: usize, rng: &mut impl Rng) -> Graph {
    let live = (n - n / 16).max(2) as u32;
    let mut edges: Vec<(u32, u32)> = (0..2 * n)
        .map(|_| (rng.gen_range(0..live), rng.gen_range(0..live)))
        .collect();
    edges.extend((1..live).step_by(7).map(|v| (0, v)));
    Graph::from_edges(n, &edges, Direction::Bidirectional)
}

/// Mean aggregation: sum over neighbours in CSR order from `0.0`, times
/// `1 / degree`; isolated nodes get `+0.0` rows.
#[test]
fn every_variant_matches_the_scalar_mean_aggregate_definition() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA66);
    let graph = hub_graph(300, &mut rng);
    assert!(graph.neighbors(0).len() > 40, "high-degree hub");
    assert!(graph.neighbors(299).is_empty(), "isolated tail");
    let mut out = Matrix::default();
    for dim in NS {
        let mut h = Matrix::glorot(300, dim, &mut rng);
        h.row_mut(3).fill(-0.0);
        let mut want = Matrix::zeros(300, dim);
        for v in 0..300 {
            let neigh = graph.neighbors(v);
            for c in 0..dim {
                let mut acc = 0.0f32;
                for &u in neigh {
                    acc += h.get(u as usize, c);
                }
                let inv = if neigh.is_empty() {
                    0.0
                } else {
                    1.0 / neigh.len() as f32
                };
                want.set(v, c, acc * inv);
            }
        }
        for v in KernelVariant::supported() {
            // A dirty, differently shaped buffer: every element is rewritten.
            out.reset(7, 5);
            out.as_mut_slice().fill(f32::NAN);
            v.mean_aggregate_into(&graph, &h, &mut out);
            assert_eq!(bits(&out), bits(&want), "{} dim={dim}", v.isa());
        }
    }
}

/// The row-block-parallel fan-out hands each worker whole tiles of the
/// same kernel: two threads produce the bits of one.
#[test]
fn row_block_parallel_matches_serial_under_every_variant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x2C0);
    let rows = 2 * 4096 + 5;
    let graph = hub_graph(rows, &mut rng);
    let h = activations(rows, 32, false, &mut rng);
    let w = Matrix::glorot(64, 32, &mut rng);
    let (w1, w2) = w.as_slice().split_at(32 * 32);
    let epilogue = Epilogue {
        relu: true,
        ..Epilogue::default()
    };
    for v in KernelVariant::supported() {
        let run = |threads: usize| {
            set_intra_threads(threads);
            let (mut agg, mut out) = (Matrix::default(), Matrix::default());
            v.mean_aggregate_into(&graph, &h, &mut agg);
            v.fused_gemm_into(&h, w1, Some((&agg, w2)), epilogue, 32, &mut out);
            set_intra_threads(0);
            (bits(&agg), bits(&out))
        };
        assert_eq!(run(1), run(2), "{}", v.isa());
    }
}

/// FNV-1a over the `to_bits` of every element, in order.
fn bits_hash(acc: &mut u64, values: &[f32]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *acc = (*acc ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The [`hub_graph`] plus the 0/1 three-column features the first layer's
/// zero-quad skip is there for.
fn golden_subject(n: usize, seed: u64) -> (Graph, Matrix) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let graph = hub_graph(n, &mut rng);
    let mut x = Matrix::zeros(n, 3);
    for r in 0..n {
        for c in 0..3 {
            if rng.gen_range(0..3u32) == 0 {
                x.set(r, c, 1.0);
            }
        }
    }
    (graph, x)
}

fn golden_hash(hidden: usize, layers: usize, n: usize) -> u64 {
    let model = MultiTaskSage::new(ModelConfig {
        in_dim: 3,
        hidden,
        layers,
        shared_dim: hidden,
        task_classes: vec![4, 2, 2],
        seed: 0x60_1D + hidden as u64,
    });
    let (graph, x) = golden_subject(n, 0xA16 + layers as u64);
    let mut acc = 0xCBF2_9CE4_8422_2325u64;
    for logits in model.forward(&graph, &x) {
        bits_hash(&mut acc, logits.as_slice());
    }
    acc
}

/// Logit bits of fixed seeded models over a fixed seeded graph, recorded
/// from the row-sweep kernel this crate shipped before the register-tiled
/// one (commit 3b9a4ff). 9001 rows cross the row-block-parallel threshold
/// on multi-core hosts and leave a one-row remainder tile.
#[test]
fn golden_logits_hash_matches_the_previous_kernel() {
    let cases = [
        (32, 4, 9001, 0x9b4fe4487356316f_u64),
        (80, 8, 1203, 0x6685ae9cc6020082),
        (37, 3, 1202, 0x9e39fd77426fc708),
    ];
    for (hidden, layers, n, want) in cases {
        let got = golden_hash(hidden, layers, n);
        assert_eq!(got, want, "{hidden}x{layers} model, {n} nodes: {got:#018x}");
    }
}

/// The fused tail is the layers it fuses: every task's columns of
/// `infer`'s one logit matrix are, bit for bit, the trunk's output through
/// `Linear::forward` of the shared layer and then of that task's head — a
/// row block either side of 64 rows and above the row-block-parallel
/// cutoff, at one and two kernel threads, with a shared layer wider than
/// the trunk (the smoke preset's `hidden: 8` under the reasoner's 32).
#[test]
fn the_fused_tail_is_the_shared_layer_then_each_head() {
    let model = MultiTaskSage::new(ModelConfig {
        in_dim: 3,
        hidden: 8,
        layers: 2,
        shared_dim: 32,
        task_classes: vec![4, 2, 2],
        seed: 0x7A11,
    });
    let linears = model.linears();
    let (trunk, tail) = linears.split_at(2);
    let (shared, heads) = tail.split_first().expect("a shared layer");
    let trunk: Vec<SageLayer> = trunk
        .iter()
        .map(|&lin| {
            let mut layer = SageLayer::new_zeroed(lin.w.rows() / 2, lin.w.cols());
            *layer.linear_mut() = lin.clone();
            layer
        })
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7A11);
    for n in [1usize, 63, 64, 65, 2 * 4096 + 1] {
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (rng.gen_range(0..v), v)).collect();
        let graph = Graph::from_edges(n, &edges, Direction::Bidirectional);
        let x = activations(n, 3, true, &mut rng);
        let h = trunk
            .iter()
            .fold(x.clone(), |h, layer| layer.forward(&graph, &h));
        let z = shared.forward(&h);
        for threads in [1, 2] {
            set_intra_threads(threads);
            let mut scratch = InferenceScratch::default();
            let logits = model.infer(&graph, &x, &mut scratch, None);
            set_intra_threads(0);
            assert_eq!((logits.rows(), logits.cols()), (n, 8));
            let mut c0 = 0;
            for (t, head) in heads.iter().enumerate() {
                let want = head.forward(&z);
                let c = want.cols();
                let got: Vec<u32> = (0..n)
                    .flat_map(|r| &logits.row(r)[c0..c0 + c])
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, bits(&want), "{n} rows, {threads} threads, head {t}");
                c0 += c;
            }
        }
    }
}

/// The training forward writes every layer's output straight into the
/// tape and reads the next layer's input from there; its logits are the
/// inference forward's, bit for bit, also when one tape is reused across
/// graphs that grow and shrink.
#[test]
fn forward_train_logits_are_the_inference_logits() {
    let mut tape = Tape::default();
    for (hidden, layers, n) in [(32, 4, 1203), (80, 8, 301), (37, 3, 1202), (32, 4, 77)] {
        let model = MultiTaskSage::new(ModelConfig {
            in_dim: 3,
            hidden,
            layers,
            shared_dim: hidden,
            task_classes: vec![4, 2, 2],
            seed: 0x60_1D + hidden as u64,
        });
        let (graph, x) = golden_subject(n, 0xA16 + layers as u64);
        let inferred = model.forward(&graph, &x);
        let trained = model.forward_train(&graph, &x, &mut tape);
        assert_eq!(trained.len(), inferred.len());
        for (t, (a, b)) in trained.iter().zip(&inferred).enumerate() {
            assert_eq!(bits(a), bits(b), "{hidden}x{layers}, {n} nodes, task {t}");
        }
    }
}
