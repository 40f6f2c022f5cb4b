//! Criterion micro-benchmarks of the substrate kernels: strashed
//! construction, cut enumeration, exact analysis, GNN layers, technology
//! mapping, simulation and algebraic verification.

use criterion::{criterion_group, criterion_main, Criterion};
use gamora::dataset::build_graph;
use gamora::features::{build_features, FeatureMode};
use gamora_circuits::csa_multiplier;
use gamora_gnn::{Direction, InferenceScratch, Matrix, ModelConfig, MultiTaskSage};
use gamora_sca::{product_spec, verify, RewriteParams};
use gamora_techmap::{map, Library, MapParams};
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    c.bench_function("csa_multiplier_32 (strashed build)", |b| {
        b.iter(|| black_box(csa_multiplier(32)))
    });
}

fn bench_cut_enumeration(c: &mut Criterion) {
    let m = csa_multiplier(16);
    c.bench_function("cut_enumeration_16 (K=3)", |b| {
        b.iter(|| {
            black_box(gamora_aig::cut::enumerate_cuts(
                &m.aig,
                &gamora_aig::cut::CutParams::for_adder_extraction(),
            ))
        })
    });
}

fn bench_exact_analysis(c: &mut Criterion) {
    let m = csa_multiplier(16);
    c.bench_function("exact_analyze_16 (detect+extract+label)", |b| {
        b.iter(|| black_box(gamora_exact::analyze(&m.aig)))
    });
}

fn bench_gnn_forward(c: &mut Criterion) {
    let m = csa_multiplier(32);
    let graph = build_graph(&m.aig, Direction::Bidirectional);
    let x = build_features(&m.aig, FeatureMode::StructuralFunctional);
    let model = MultiTaskSage::new(ModelConfig {
        in_dim: 3,
        hidden: 32,
        layers: 4,
        shared_dim: 32,
        task_classes: vec![4, 2, 2],
        seed: 1,
    });
    c.bench_function("sage_forward_32 (4x32 model)", |b| {
        b.iter(|| black_box(model.forward(&graph, &x)))
    });
    let mut scratch = InferenceScratch::default();
    model.infer(&graph, &x, &mut scratch, None); // warm the buffers
    c.bench_function("sage_infer_32 (4x32 model, reused scratch)", |b| {
        b.iter(|| {
            model.infer(&graph, &x, &mut scratch, None);
        })
    });
}

fn bench_matmul(c: &mut Criterion) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let a = Matrix::glorot(4096, 64, &mut rng);
    let w = Matrix::glorot(64, 64, &mut rng);
    c.bench_function("matmul_4096x64x64 (blocked kernel)", |b| {
        b.iter(|| black_box(a.matmul(&w)))
    });
    // The pre-blocking scalar reference: per-element k-ascending loop.
    let naive = |a: &Matrix, b: &Matrix| -> Matrix {
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
    };
    c.bench_function("matmul_4096x64x64 (naive reference)", |b| {
        b.iter(|| black_box(naive(&a, &w)))
    });
}

/// Fused split-weight SAGE forward vs the unfused composition it replaced
/// (aggregate, concat, matmul, bias add, ReLU as separate passes).
fn bench_fused_layer(c: &mut Criterion) {
    use gamora_gnn::{SageLayer, SageScratch};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let m = csa_multiplier(16);
    let graph = build_graph(&m.aig, Direction::Bidirectional);
    let n = graph.num_nodes();
    let h = Matrix::glorot(n, 32, &mut rng);

    let layer = SageLayer::new(32, 32, &mut rng);
    let mut ws = SageScratch::default();
    let mut out = Matrix::default();
    layer.forward_into(&graph, &h, &mut ws, &mut out); // warm buffers
    c.bench_function("sage_layer_2594x32 (fused split-weight)", |b| {
        b.iter(|| layer.forward_into(&graph, &h, &mut ws, &mut out))
    });

    let w = Matrix::glorot(64, 32, &mut rng);
    let bias = vec![0.01f32; 32];
    let mut agg = Matrix::default();
    let mut concat = Matrix::default();
    let mut y = Matrix::default();
    c.bench_function("sage_layer_2594x32 (unfused concat path)", |b| {
        b.iter(|| {
            graph.mean_aggregate_into(&h, &mut agg);
            h.hconcat_into(&agg, &mut concat);
            concat.matmul_into(&w, &mut y);
            y.add_row_vector(&bias);
            y.relu_in_place();
        })
    });
}

/// One training epoch in steady state — per graph: forward into the tape,
/// loss, backward through the kernel's sequential-K sweep, Adam — over
/// `gamora-perf`'s two training recipes. ns/iter over the node count in
/// the row's name is the ns per node-step README "Training" quotes.
fn bench_train_step(c: &mut Criterion) {
    use gamora::dataset::labelled_graph;
    use gamora_circuits::generate_multiplier;
    use gamora_circuits::MultiplierKind::{Booth, Csa};
    use gamora_gnn::{TrainConfig, Trainer};
    let shallow = (3..=8).map(|bits| (Csa, bits)).collect();
    let deep = vec![(Csa, 4), (Booth, 4), (Csa, 6), (Booth, 6)];
    let tasks = || vec![4, 2, 2];
    let presets = [
        (
            "shallow, CSA 3-8",
            ModelConfig::shallow(3, tasks()),
            shallow,
        ),
        ("deep, CSA+Booth 4/6", ModelConfig::deep(3, tasks()), deep),
    ];
    for (name, config, train) in presets {
        let data: Vec<_> = train
            .into_iter()
            .map(|(kind, bits)| {
                let aig = generate_multiplier(kind, bits).aig;
                let mode = FeatureMode::StructuralFunctional;
                labelled_graph(&aig, mode, Direction::Bidirectional, true).0
            })
            .collect();
        let nodes: usize = data.iter().map(|d| d.graph.num_nodes()).sum();
        let mut model = MultiTaskSage::new(config);
        let mut trainer = Trainer::new(&TrainConfig::default());
        trainer.epoch(&mut model, &data); // grow the buffers
        c.bench_function(&format!("train_step ({name}: {nodes} nodes)"), |b| {
            b.iter(|| black_box(trainer.epoch(&mut model, &data)))
        });
    }
}

/// Zero-copy graph/batch assembly vs the allocating builders.
fn bench_assembly(c: &mut Criterion) {
    use gamora::dataset::{assemble_batch_into, BatchScratch};
    let m = csa_multiplier(16);
    c.bench_function("build_graph_16 (fresh)", |b| {
        b.iter(|| black_box(build_graph(&m.aig, Direction::Bidirectional)))
    });
    let mut reused = gamora_gnn::Graph::default();
    c.bench_function("build_graph_16 (into reused scratch)", |b| {
        b.iter(|| gamora::dataset::build_graph_into(&m.aig, Direction::Bidirectional, &mut reused))
    });

    let parts: Vec<_> = (0..8).map(|_| csa_multiplier(8)).collect();
    let aigs: Vec<_> = parts.iter().map(|p| &p.aig).collect();
    let mut ws = BatchScratch::default();
    c.bench_function("assemble_batch_8x_csa8 (zero-copy, reused)", |b| {
        b.iter(|| {
            assemble_batch_into(
                &aigs,
                FeatureMode::StructuralFunctional,
                Direction::Bidirectional,
                &mut ws,
            )
        })
    });
}

fn bench_mapping(c: &mut Criterion) {
    let m = csa_multiplier(8);
    let simple = Library::simple();
    let complex = Library::complex7nm();
    c.bench_function("map_8_simple", |b| {
        b.iter(|| black_box(map(&m.aig, &simple, &MapParams::default())))
    });
    c.bench_function("map_8_complex", |b| {
        b.iter(|| black_box(map(&m.aig, &complex, &MapParams::default())))
    });
}

fn bench_simulation(c: &mut Criterion) {
    let m = csa_multiplier(32);
    c.bench_function("random_simulation_32 (8 words)", |b| {
        b.iter(|| black_box(gamora_aig::sim::random_simulation(&m.aig, 8, 1)))
    });
}

fn bench_sca(c: &mut Criterion) {
    let m = csa_multiplier(8);
    let spec = product_spec(&m.a, &m.b);
    let analysis = gamora_exact::analyze(&m.aig);
    c.bench_function("sca_verify_8_tree_assisted", |b| {
        b.iter(|| {
            black_box(
                verify(
                    &m.aig,
                    &spec,
                    Some(&analysis.adders),
                    &RewriteParams::default(),
                )
                .unwrap(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_construction, bench_cut_enumeration, bench_exact_analysis,
              bench_gnn_forward, bench_matmul, bench_fused_layer, bench_train_step,
              bench_assembly,
              bench_mapping, bench_simulation, bench_sca
}
criterion_main!(benches);
