//! Determinism pin for the trainer: what `GamoraReasoner::fit` writes is a
//! function of the seed, the training set and the epoch count — not of the
//! kernel variant the host dispatches to, nor of the kernel thread budget.
//!
//! The digests are the Fx hash of the snapshot image after `fit`, recorded
//! at commit a3ac194, whose backward pass was two scalar loops
//! (`Matrix::transpose_matmul`, `Matrix::matmul_transpose`): the trainer
//! that routes those products through the dispatched register tile must
//! write the same bytes. The two full recipes are `gamora-perf`'s
//! (`workloads::recipe`); they take minutes unoptimised, so a debug run
//! checks the cut-down pair only and CI runs this file `--release`.

use gamora::snapshot::write_snapshot;
use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_aig::hasher::FxHasher;
use gamora_circuits::{generate_multiplier, MultiplierKind};
use gamora_gnn::parallel::set_intra_threads;
use std::hash::Hasher;
use MultiplierKind::{Booth, Csa};

/// The snapshot image of a fresh reasoner fitted on `train` under a budget
/// of `threads` kernel threads.
fn fit_image(
    depth: ModelDepth,
    train: &[(MultiplierKind, usize)],
    epochs: usize,
    threads: usize,
) -> Vec<u8> {
    let circuits: Vec<_> = train
        .iter()
        .map(|&(kind, bits)| generate_multiplier(kind, bits))
        .collect();
    let aigs: Vec<_> = circuits.iter().map(|c| &c.aig).collect();
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth,
        ..ReasonerConfig::default()
    });
    set_intra_threads(threads);
    reasoner.fit(
        &aigs,
        &TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
    );
    set_intra_threads(0);
    let mut image = Vec::new();
    write_snapshot(&reasoner, &mut image).unwrap();
    image
}

fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn assert_digest(
    name: &str,
    depth: ModelDepth,
    train: &[(MultiplierKind, usize)],
    epochs: usize,
    want: u64,
) {
    for threads in [1, 2] {
        let got = fx(&fit_image(depth, train, epochs, threads));
        assert_eq!(
            got,
            want,
            "{name}, {threads} kernel thread(s), {}: {got:#018x}",
            gamora_gnn::kernel_isa()
        );
    }
}

fn csa(bits: std::ops::RangeInclusive<usize>) -> Vec<(MultiplierKind, usize)> {
    bits.map(|b| (Csa, b)).collect()
}

/// The two presets over a few epochs of the recipes' smallest graphs.
#[test]
fn cut_down_recipes_reproduce_the_recorded_digests() {
    assert_digest(
        "shallow, CSA 3-5, 6 epochs",
        ModelDepth::Shallow,
        &csa(3..=5),
        6,
        0x0d2d_6986_8fd3_042d,
    );
    assert_digest(
        "deep, CSA 4 + Booth 4, 3 epochs",
        ModelDepth::Deep,
        &[(Csa, 4), (Booth, 4)],
        3,
        0x8db3_8b1f_68d6_7cc0,
    );
}

/// `gamora-perf`'s shallow and deep recipes in full.
#[test]
fn gamora_perf_recipes_reproduce_the_recorded_digests() {
    if cfg!(debug_assertions) {
        return;
    }
    assert_digest(
        "shallow, CSA 3-8, 80 epochs",
        ModelDepth::Shallow,
        &csa(3..=8),
        80,
        0x0c43_2066_5601_4624,
    );
    assert_digest(
        "deep, CSA + Booth 4 and 6, 30 epochs",
        ModelDepth::Deep,
        &[(Csa, 4), (Booth, 4), (Csa, 6), (Booth, 6)],
        30,
        0x4919_cccb_4993_c60f,
    );
}

/// A training graph large enough that two kernel threads share its rows
/// (the 32-bit CSA has more than 2 x 4,096 nodes) yields the weights one
/// thread yields: the reduction over nodes in `X^T @ dY` is never split.
#[test]
fn trained_weights_do_not_depend_on_the_thread_budget() {
    let train = [(Csa, 32)];
    assert!(generate_multiplier(Csa, 32).aig.num_nodes() >= 8192);
    let depth = ModelDepth::Custom {
        layers: 2,
        hidden: 16,
    };
    let one = fit_image(depth, &train, 2, 1);
    let two = fit_image(depth, &train, 2, 2);
    assert!(one == two, "snapshot bytes differ between 1 and 2 threads");
}
