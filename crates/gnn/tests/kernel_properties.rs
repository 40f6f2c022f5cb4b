//! Property tests for the tiled/fused GEMM kernels against naive
//! references (vendored proptest shim).
//!
//! Activation values are dyadic rationals (multiples of 1/64 in [-1, 1]),
//! so every product is exact in `f32` and the accumulated sums stay well
//! inside the 24-bit mantissa: the blocked kernel and the naive triple
//! loop must then agree *exactly*, which makes the 1e-5 tolerance a hard
//! bound rather than a statistical one, while still exercising every
//! column-chunk and register-remainder path.

use gamora_gnn::{Direction, Graph, Linear, Matrix, SageLayer};
use proptest::collection;
use proptest::prelude::*;
use rand::SeedableRng;

/// A strategy for `len` dyadic `f32`s in [-1, 1] (exact products).
fn dyadic(len: usize) -> impl Strategy<Value = Vec<f32>> {
    collection::vec(0u32..129, len).prop_map(|v| {
        v.into_iter()
            .map(|x| (x as f32 - 64.0) / 64.0)
            .collect::<Vec<f32>>()
    })
}

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

fn assert_close(got: &Matrix, want: &Matrix, tol: f32, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (r, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {r}: {g} vs {w} (diff {})",
            (g - w).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The register-tiled matmul matches the naive triple loop to 1e-5
    /// across shapes that hit every kernel path: short and long K, K and
    /// N not multiples of the 4-wide unroll, single rows and single
    /// columns.
    #[test]
    fn blocked_matmul_matches_naive_reference(
        case in (1usize..5, 1usize..600, 1usize..10).prop_flat_map(|(m, k, n)| {
            (dyadic(m * k), dyadic(k * n)).prop_map(move |(a, b)| (m, k, n, a, b))
        })
    ) {
        let (m, k, n, a, b) = case;
        let a = Matrix::from_vec(m, k, a);
        let b = Matrix::from_vec(k, n, b);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-5, "matmul");

        // The accumulating variant adds exactly one more product term.
        let mut acc = naive_matmul(&a, &b);
        a.matmul_add_into(&b, &mut acc);
        let mut twice = naive_matmul(&a, &b);
        twice.add_scaled(&naive_matmul(&a, &b), 1.0);
        assert_close(&acc, &twice, 1e-5, "matmul_add_into");
    }

    /// The fused linear layer (bias + optional ReLU inside the GEMM
    /// epilogue) matches the unfused naive composition.
    #[test]
    fn fused_linear_matches_naive_reference(
        case in (1usize..7, 1usize..40, 1usize..8, any::<u64>()).prop_flat_map(|(m, k, n, seed)| {
            dyadic(m * k).prop_map(move |x| (m, k, n, seed, x))
        })
    ) {
        let (m, k, n, seed, x) = case;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::from_vec(m, k, x);
        for relu in [false, true] {
            let lin = Linear::new(k, n, relu, &mut rng);
            let mut want = naive_matmul(&x, &lin.w);
            want.add_row_vector(&lin.b);
            if relu {
                want.relu_in_place();
            }
            assert_close(&lin.forward(&x), &want, 1e-5, "fused linear");
        }
    }

    /// The split-weight SAGE forward (`h @ W_self + agg @ W_neigh`, fused
    /// bias + ReLU) matches the concat-then-matmul reference, including
    /// rows whose aggregation neighborhood is empty (isolated nodes: only
    /// the first `n / 2` nodes ever appear in an edge).
    #[test]
    fn split_weight_sage_matches_concat_reference(
        case in (3usize..12, 1usize..5, 1usize..6, 0usize..24, any::<u64>())
            .prop_flat_map(|(n, d_in, d_out, ne, seed)| {
                let span = (n / 2).max(1) as u32;
                (collection::vec((0u32..span, 0u32..span), ne), dyadic(n * d_in))
                    .prop_map(move |(edges, h)| (n, d_in, d_out, seed, edges, h))
            })
    ) {
        let (n, d_in, d_out, seed, edges, h) = case;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let layer = SageLayer::new(d_in, d_out, &mut rng);
        let graph = Graph::from_edges(n, &edges, Direction::Bidirectional);
        let h = Matrix::from_vec(n, d_in, h);

        // Reference: materialise the concat and push it through the
        // combined weight matrix with the naive loop.
        let lin = layer.linear();
        let w = Matrix::from_vec(2 * d_in, d_out, lin.w.as_slice().to_vec());
        let agg = graph.mean_aggregate(&h);
        let concat = h.hconcat(&agg);
        let mut want = naive_matmul(&concat, &w);
        want.add_row_vector(&lin.b);
        want.relu_in_place();

        let got = layer.forward(&graph, &h);
        assert_close(&got, &want, 1e-5, "split-weight SAGE");

        // Isolated nodes aggregate zeros; their row must still equal the
        // reference (pure `h @ W_self` + bias path).
        for v in n / 2..n {
            assert!(graph.neighbors(v).is_empty());
        }
    }
}
