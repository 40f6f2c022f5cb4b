//! Numerical-equivalence guard for the fused inference kernels on the
//! paper's 16-bit CSA evaluation subject.
//!
//! The register-blocked, split-weight GEMM path regroups floating-point
//! accumulation (4-wide K unroll, `h @ W_self + agg @ W_neigh` instead of
//! `concat @ W`), so logits are not bit-identical to the pre-blocking
//! kernels. This test pins the drift: against a naive reference forward
//! that reproduces the old scalar kernel's summation order exactly, the
//! fused path must stay within 1e-4 max-abs logit difference and produce
//! identical argmax labels on every node and task.

use gamora::dataset::build_graph;
use gamora::features::{build_features, FeatureMode};
use gamora_circuits::csa_multiplier;
use gamora_gnn::loss::argmax;
use gamora_gnn::{Direction, Graph, Matrix, ModelConfig, MultiTaskSage};

/// Naive matmul with k-ascending per-element accumulation — the summation
/// order of the pre-blocking scalar kernel.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn naive_linear(x: &Matrix, w: &[f32], b: &[f32], relu: bool) -> Matrix {
    let n = b.len();
    let w = Matrix::from_vec(x.cols(), n, w.to_vec());
    let mut y = naive_matmul(x, &w);
    y.add_row_vector(b);
    if relu {
        y.relu_in_place();
    }
    y
}

fn naive_mean_aggregate(graph: &Graph, h: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(h.rows(), h.cols());
    for v in 0..graph.num_nodes() {
        let neigh = graph.neighbors(v);
        if neigh.is_empty() {
            continue;
        }
        for &u in neigh {
            for c in 0..h.cols() {
                out.set(v, c, out.get(v, c) + h.get(u as usize, c));
            }
        }
        let inv = 1.0 / neigh.len() as f32;
        for c in 0..h.cols() {
            out.set(v, c, out.get(v, c) * inv);
        }
    }
    out
}

#[test]
fn fused_kernels_match_reference_on_16bit_csa() {
    let config = ModelConfig::shallow(3, vec![4, 2, 2]);
    let (hidden, layers) = (config.hidden, config.layers);
    let task_classes = config.task_classes.clone();
    let model = MultiTaskSage::new(config);

    let m = csa_multiplier(16);
    let graph = build_graph(&m.aig, Direction::Bidirectional);
    let x = build_features(&m.aig, FeatureMode::StructuralFunctional);

    // Reference forward through the snapshot-ordered linears: trunk
    // layers, shared linear, task heads.
    let linears = model.linears();
    let mut h = x.clone();
    for lin in &linears[..layers] {
        let agg = naive_mean_aggregate(&graph, &h);
        let concat = h.hconcat(&agg);
        h = naive_linear(&concat, lin.w.as_slice(), &lin.b, true);
    }
    let shared = linears[layers];
    let z = naive_linear(&h, shared.w.as_slice(), &shared.b, true);
    let reference: Vec<Matrix> = linears[layers + 1..]
        .iter()
        .map(|head| naive_linear(&z, head.w.as_slice(), &head.b, false))
        .collect();
    assert_eq!(reference.len(), task_classes.len());
    assert_eq!(h.cols(), hidden);

    let fused = model.forward(&graph, &x);
    assert_eq!(fused.len(), reference.len());
    let mut max_diff = 0.0f32;
    for (task, (got, want)) in fused.iter().zip(&reference).enumerate() {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            max_diff = max_diff.max((g - w).abs());
        }
        for r in 0..got.rows() {
            assert_eq!(
                argmax(got.row(r)),
                argmax(want.row(r)),
                "task {task}, node {r}: argmax label flipped"
            );
        }
    }
    assert!(
        max_diff <= 1e-4,
        "fused kernels drifted {max_diff} from the reference path (> 1e-4)"
    );
    eprintln!("16-bit CSA max-abs logit diff vs reference: {max_diff:e}");
}
