//! The inference forward takes each group of sections through the model on
//! its colour-refinement quotient — one row per class of nodes whose
//! neighbourhoods agree in CSR order — and scatters the classes' logits
//! back to the nodes. This suite pins that it changes no bit:
//! `MultiTaskSage::infer`'s logits equal `forward_train`'s, the
//! row-per-node reference that runs every layer over every node, bit for
//! bit, for a shallow (4 × 32) and a deep (8 × 80) model, at one and at two
//! kernel threads, on:
//!
//! - the subjects `REPRO.md` scores (CSA-12 and CSA-32, Booth-16, and
//!   CSA-12 mapped with `Library::simple` and `Library::complex7nm`);
//! - the benchmark's CSA-16 and CSA-64 (CSA-256, the `cold_giant` subject,
//!   is an ignored case);
//! - the 8- and 12-bit cores mapped with both libraries, taken together as
//!   one batch of several groups, and a core with a gadget welded on;
//! - graphs with random features, where nearly every row is a class of its
//!   own.
//!
//! Run it optimised too (`cargo test --release --test quotient_forward`):
//! the kernels that ship are the `target_feature` copies only an optimised
//! build compiles.

use gamora::dataset::{assemble_batch_into, BatchScratch};
use gamora::{Direction, FeatureMode};
use gamora_aig::{Aig, Lit};
use gamora_circuits::{booth_multiplier, csa_multiplier};
use gamora_gnn::{parallel, Graph, InferenceScratch, Matrix, ModelConfig, MultiTaskSage, Tape};
use gamora_techmap::{map, Library, MapParams};

/// The shallow and the deep preset's shapes, with seeded weights: bit
/// identity holds for any weights, so none are trained.
fn models(deep: bool) -> Vec<MultiTaskSage> {
    let shape = |layers, hidden| {
        MultiTaskSage::new(ModelConfig {
            in_dim: 3,
            hidden,
            layers,
            shared_dim: 32,
            task_classes: vec![4, 2, 2],
            seed: 0x9A_0D + layers as u64,
        })
    };
    let mut out = vec![shape(4, 32)];
    if deep {
        out.push(shape(8, 80));
    }
    out
}

/// Bit patterns of every logit of `infer`, row by row, task after task.
fn inferred_bits(model: &MultiTaskSage, graph: &Graph, x: &Matrix, threads: usize) -> Vec<u32> {
    let prev = parallel::intra_threads();
    parallel::set_intra_threads(threads);
    let mut scratch = InferenceScratch::default();
    let logits = model.infer(graph, x, &mut scratch, None);
    parallel::set_intra_threads(prev);
    let mut bits = Vec::with_capacity(logits.rows() * logits.cols());
    let mut c0 = 0;
    for &c in &model.config().task_classes {
        for r in 0..logits.rows() {
            bits.extend(logits.row(r)[c0..c0 + c].iter().map(|v| v.to_bits()));
        }
        c0 += c;
    }
    bits
}

/// `infer` at one and two kernel threads against `forward_train`, for
/// every model.
fn assert_bit_identical(name: &str, graph: &Graph, x: &Matrix, deep: bool) {
    for model in models(deep) {
        let mut tape = Tape::default();
        let reference: Vec<u32> = model
            .forward_train(graph, x, &mut tape)
            .iter()
            .flat_map(|task| task.as_slice().iter().map(|v| v.to_bits()))
            .collect();
        drop(tape);
        for threads in [1, 2] {
            let shape = (model.config().layers, model.config().hidden);
            assert!(
                inferred_bits(&model, graph, x, threads) == reference,
                "{name}: {shape:?} model at {threads} kernel threads differs from forward_train"
            );
        }
    }
}

/// The netlists as one sectioned batch, as the serve worker assembles it.
fn assert_batch_bit_identical(name: &str, aigs: &[&Aig], deep: bool) {
    let mut batch = BatchScratch::default();
    let mode = FeatureMode::StructuralFunctional;
    assemble_batch_into(aigs, mode, Direction::Bidirectional, &mut batch);
    assert_bit_identical(name, batch.graph(), batch.features(), deep);
}

fn mapped(aig: &Aig, library: &Library) -> Aig {
    map(aig, library, &MapParams::default()).to_aig()
}

/// A chain of twelve AND gates over inputs of `core`, exposed as one more
/// output: the kind of variant the benchmark's `mixed_extract` serves.
fn welded(core: &Aig) -> Aig {
    let mut variant = core.clone();
    let inputs = core.inputs();
    let pick = |i: usize| Lit::new(inputs[(7 * i + 3) % inputs.len()], i.is_multiple_of(3));
    let mut t = variant.and(pick(0), pick(1));
    for i in 2..=12 {
        t = variant.and(t, pick(i));
    }
    variant.add_output(t);
    variant
}

#[test]
fn repro_subjects() {
    let csa12 = csa_multiplier(12).aig;
    for (name, aig) in [
        ("CSA-12", csa12.clone()),
        ("CSA-32", csa_multiplier(32).aig),
        ("Booth-16", booth_multiplier(16).aig),
        ("CSA-12 simple", mapped(&csa12, &Library::simple())),
        ("CSA-12 complex7nm", mapped(&csa12, &Library::complex7nm())),
    ] {
        assert_batch_bit_identical(name, &[&aig], true);
    }
}

#[test]
fn benchmark_csa_subjects() {
    for bits in [16, 64] {
        let aig = csa_multiplier(bits).aig;
        assert_batch_bit_identical(&format!("CSA-{bits}"), &[&aig], true);
    }
}

/// `cold_giant`'s subject: 717,314 nodes. The deep model's tape would hold
/// 3.7 GB, so only the shallow model is compared.
#[test]
#[ignore = "a 717k-node subject and a training tape of 1 GB"]
fn benchmark_giant_subject() {
    let aig = csa_multiplier(256).aig;
    assert_batch_bit_identical("CSA-256", &[&aig], false);
}

/// The `mixed_extract` cores that are mapped, as one batch of several
/// groups (dealt to the kernel threads at two), and a welded variant.
#[test]
fn mapped_cores_and_a_welded_variant() {
    let mut cores = Vec::new();
    for bits in [8, 12] {
        let plain = csa_multiplier(bits).aig;
        for library in [Library::simple(), Library::complex7nm()] {
            cores.push(mapped(&plain, &library));
        }
        cores.push(booth_multiplier(bits).aig);
    }
    let refs: Vec<&Aig> = cores.iter().collect();
    assert_batch_bit_identical("mapped 8- and 12-bit cores", &refs, true);
    let variant = welded(&cores[0]);
    assert_eq!(
        variant.num_ands(),
        cores[0].num_ands() + 12,
        "a real gadget"
    );
    assert_batch_bit_identical("welded mapped CSA-8", &[&variant], true);
}

/// Random edges and random features: round 0 already has a class per row
/// but for a handful, so refinement stops at once and every layer runs on
/// the identity partition — one small graph and one above the kernels'
/// per-thread row cutoff.
#[test]
fn random_feature_graphs() {
    let mut state = 0x51DE_u64;
    let mut draw = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for n in [300usize, 2 * 4096 + 37] {
        let edges: Vec<(u32, u32)> = (1..n as u32)
            .flat_map(|v| [0, 1].map(|_| ((draw() % u64::from(v)) as u32, v)))
            .collect();
        let graph = Graph::from_edges(n, &edges, Direction::Bidirectional);
        let mut x = Matrix::zeros(n, 3);
        for v in 0..n {
            for c in 0..3 {
                // A few repeated rows among the random ones.
                let value = if v % 97 == 0 {
                    0.5
                } else {
                    (draw() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                };
                x.set(v, c, value);
            }
        }
        assert_bit_identical(&format!("random {n}"), &graph, &x, true);
    }
}
