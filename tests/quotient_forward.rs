//! The inference forward takes each group of sections through the model on
//! its colour-refinement quotient — one row per class of nodes whose
//! neighbourhoods agree in CSR order — and returns one logit row per class
//! with every node's class row. This suite pins that it changes no bit:
//! `MultiTaskSage::infer`'s logits equal `forward_train`'s, the
//! row-per-node reference that runs every layer over every node, bit for
//! bit, for a shallow (4 × 32) and a deep (8 × 80) model, at one and at two
//! kernel threads; and that `predict_batch_into_timed`, which decodes each
//! class row once and gives every node its class's decode, predicts on
//! every node the argmax of the reference's logits. On:
//!
//! - the subjects `REPRO.md` scores (CSA-12 and CSA-32, Booth-16, and
//!   CSA-12 mapped with `Library::simple` and `Library::complex7nm`);
//! - the benchmark's CSA-16 and CSA-64 (CSA-256, the `cold_giant` subject,
//!   is an ignored case);
//! - the 8- and 12-bit cores mapped with both libraries, taken together as
//!   one batch of several groups, and a core with a gadget welded on;
//! - graphs with random features, where nearly every row is a class of its
//!   own (logits only: they are not netlists);
//! - a model whose every weight is zero, where every task's logits tie
//!   exactly and the first class must win on every node.
//!
//! Run it optimised too (`cargo test --release --test quotient_forward`):
//! the kernels that ship are the `target_feature` copies only an optimised
//! build compiles.

use gamora::dataset::{assemble_batch_into, BatchScratch};
use gamora::snapshot::{read_snapshot, write_snapshot};
use gamora::{Direction, FeatureMode, GamoraReasoner, ModelDepth, ReasonerConfig};
use gamora_aig::hasher::FxHasher;
use gamora_aig::{Aig, Lit};
use gamora_circuits::{booth_multiplier, csa_multiplier};
use gamora_gnn::loss::argmax;
use gamora_gnn::{parallel, Graph, InferenceScratch, Matrix, ModelConfig, MultiTaskSage, Tape};
use gamora_techmap::{map, Library, MapParams};
use std::hash::Hasher;

/// The shallow and the deep preset's shapes, with seeded weights (bit
/// identity holds for any weights, so none are trained): each as a
/// reasoner, and as the model that reasoner builds, whose `forward_train`
/// is the reference.
fn models(deep: bool) -> Vec<(GamoraReasoner, MultiTaskSage)> {
    let shape = |layers, hidden| {
        let config = ReasonerConfig {
            depth: ModelDepth::Custom { layers, hidden },
            seed: 0x9A_0D + layers as u64,
            ..ReasonerConfig::default()
        };
        (
            GamoraReasoner::new(config),
            MultiTaskSage::new(model_config(&config)),
        )
    };
    let mut out = vec![shape(4, 32)];
    if deep {
        out.push(shape(8, 80));
    }
    out
}

/// The model configuration a reasoner of `config` builds.
fn model_config(config: &ReasonerConfig) -> ModelConfig {
    let (layers, hidden) = config.depth.dims();
    ModelConfig {
        in_dim: 3,
        hidden,
        layers,
        shared_dim: 32,
        task_classes: vec![4, 2, 2],
        seed: config.seed,
    }
}

/// A reasoner of `config` whose every weight and bias is zero: a snapshot
/// of a seeded one with its payload zeroed and both checksums re-signed.
fn zero_weight_reasoner(config: ReasonerConfig) -> GamoraReasoner {
    let mut bytes = Vec::new();
    write_snapshot(&GamoraReasoner::new(config), &mut bytes).expect("written");
    let u64_at = |bytes: &[u8], at: usize| {
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize
    };
    // Behind the section table of 25-byte entries: payload base, payload
    // length, payload hash and header hash, a u64 each.
    let sections = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes")) as usize;
    let tail = 32 + 25 * sections;
    let base = u64_at(&bytes, tail);
    bytes[base..].fill(0);
    let sign = |bytes: &[u8]| {
        let mut hasher = FxHasher::default();
        hasher.write(bytes);
        hasher.finish().to_le_bytes()
    };
    let payload = sign(&bytes[base..]);
    bytes[tail + 16..tail + 24].copy_from_slice(&payload);
    let header = sign(&bytes[..tail + 24]);
    bytes[tail + 24..tail + 32].copy_from_slice(&header);
    read_snapshot(&bytes[..]).expect("a zeroed, re-signed snapshot loads")
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

/// `predict_batch_into_timed` at `threads` kernel threads against the
/// per-node argmax of `reference`, the per-task logits of the netlists'
/// merged batch in batch order.
fn assert_predictions_are_the_argmax(
    name: &str,
    reasoner: &GamoraReasoner,
    reference: &[Matrix],
    aigs: &[&Aig],
    threads: usize,
) {
    let prev = parallel::intra_threads();
    parallel::set_intra_threads(threads);
    let mut outs = Vec::new();
    let (mut batch, mut scratch) = (BatchScratch::default(), InferenceScratch::default());
    reasoner.predict_batch_into_timed(&mut batch, &mut scratch, aigs, &mut outs, None);
    parallel::set_intra_threads(prev);
    let mut base = 0;
    for (i, (aig, out)) in aigs.iter().zip(&outs).enumerate() {
        for v in 0..aig.num_nodes() {
            let task = |t: usize| argmax(reference[t].row(base + v));
            let want = (task(0) as u32, task(1) == 1, task(2) == 1);
            let got = (out.root_leaf[v], out.is_xor[v], out.is_maj[v]);
            assert!(
                got == want,
                "{name}: node {v} of netlist {i} at {threads} kernel threads predicts \
                 {got:?}, the reference's argmax is {want:?}"
            );
        }
        base += aig.num_nodes();
    }
}

/// `infer` at one and two kernel threads against `forward_train`, for
/// every model; and, when the graph and features are `aigs`' batch, the
/// reasoner's predictions against the reference's argmax.
fn assert_exact(
    name: &str,
    graph: &Graph,
    x: &Matrix,
    models: &[(GamoraReasoner, MultiTaskSage)],
    aigs: &[&Aig],
) {
    for (reasoner, model) in models {
        let mut tape = Tape::default();
        let reference = model.forward_train(graph, x, &mut tape);
        let bits: Vec<u32> = reference
            .iter()
            .flat_map(|task| task.as_slice().iter().map(|v| v.to_bits()))
            .collect();
        for threads in [1, 2] {
            let shape = (model.config().layers, model.config().hidden);
            assert!(
                inferred_bits(model, graph, x, threads) == bits,
                "{name}: {shape:?} model at {threads} kernel threads differs from forward_train"
            );
            if !aigs.is_empty() {
                assert_predictions_are_the_argmax(name, reasoner, reference, aigs, threads);
            }
        }
    }
}

/// The netlists as one sectioned batch, as the serve worker assembles it.
fn assert_batch_exact(name: &str, aigs: &[&Aig], models: &[(GamoraReasoner, MultiTaskSage)]) {
    let mut batch = BatchScratch::default();
    let mode = FeatureMode::StructuralFunctional;
    assemble_batch_into(aigs, mode, Direction::Bidirectional, &mut batch);
    assert_exact(name, batch.graph(), batch.features(), models, aigs);
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
        assert_batch_exact(name, &[&aig], &models(true));
    }
}

#[test]
fn benchmark_csa_subjects() {
    for bits in [16, 64] {
        let aig = csa_multiplier(bits).aig;
        assert_batch_exact(&format!("CSA-{bits}"), &[&aig], &models(true));
    }
}

/// `cold_giant`'s subject: 717,314 nodes. The deep model's tape would hold
/// 3.7 GB, so only the shallow model is compared.
#[test]
#[ignore = "a 717k-node subject and a training tape of 1 GB"]
fn benchmark_giant_subject() {
    let aig = csa_multiplier(256).aig;
    assert_batch_exact("CSA-256", &[&aig], &models(false));
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
    assert_batch_exact("mapped 8- and 12-bit cores", &refs, &models(true));
    let variant = welded(&cores[0]);
    assert_eq!(
        variant.num_ands(),
        cores[0].num_ands() + 12,
        "a real gadget"
    );
    assert_batch_exact("welded mapped CSA-8", &[&variant], &models(true));
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
        assert_exact(&format!("random {n}"), &graph, &x, &models(true), &[]);
    }
}

/// A model whose every weight and bias is zero gives every node all-zero
/// logits, so every task ties exactly: decoded once per class row, the
/// first class must still win on every node, as it does in the
/// reference's argmax — on a lone subject and on the mapped multi-group
/// batch, at one and two kernel threads.
#[test]
fn a_zero_weight_model_ties_and_the_first_class_wins() {
    let zero = |layers, hidden| {
        let config = ReasonerConfig {
            depth: ModelDepth::Custom { layers, hidden },
            ..ReasonerConfig::default()
        };
        let model = MultiTaskSage::new_zeroed(model_config(&config));
        (zero_weight_reasoner(config), model)
    };
    let models = [zero(4, 32), zero(8, 80)];
    let csa12 = csa_multiplier(12).aig;
    let cores: Vec<Aig> = [8, 12]
        .into_iter()
        .flat_map(|bits| {
            let plain = csa_multiplier(bits).aig;
            [Library::simple(), Library::complex7nm()].map(|library| mapped(&plain, &library))
        })
        .collect();
    let mapped_cores: Vec<&Aig> = cores.iter().collect();
    for (name, aigs) in [
        ("zero-weight CSA-12", vec![&csa12]),
        ("zero-weight mapped cores", mapped_cores),
    ] {
        assert_batch_exact(name, &aigs, &models);
        for (reasoner, _) in &models {
            for prediction in reasoner.predict_batch(&aigs) {
                let first_wins = prediction.root_leaf.iter().all(|&c| c == 0)
                    && !prediction.is_xor.iter().any(|&x| x)
                    && !prediction.is_maj.iter().any(|&m| m);
                assert!(
                    first_wins,
                    "{name}: a tie decodes to the first class on every node"
                );
            }
        }
    }
}
