//! End-to-end integration: train Gamora on small multipliers, reason about
//! larger ones, extract adder trees — the full pipeline of the paper —
//! plus the serve-path round trips (AIGER ingest, model snapshots, and the
//! structural-hash prediction cache of `gamora-serve`). The paper's
//! accuracy figures are rows of `REPRO.md`; the figure tests here check
//! them against the bounds that file records (`support/figures.rs`).

use gamora::{
    compare_extraction, extract_from_predictions, lsb_correction, snapshot, GamoraReasoner,
    ModelDepth, ReasonerConfig, SnapshotError, TrainConfig,
};
use gamora_aig::aiger;
use gamora_circuits::csa_multiplier;
use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};

#[path = "support/figures.rs"]
mod figures;

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        ..TrainConfig::default()
    }
}

/// The headline result: a shallow model trained on ≤8-bit CSA multipliers
/// generalises to a 32-bit multiplier with near-perfect node accuracy
/// (`REPRO.md` row `small-to-large`).
#[test]
fn csa_generalisation_small_to_large() {
    figures::assert_rows_hold(figures::small_to_large_rows());
}

/// Prediction-driven adder extraction recovers almost the whole tree, and
/// LSB post-processing closes the systematic shallow misses.
#[test]
fn extraction_recall_with_postprocessing() {
    let train: Vec<_> = [3usize, 4, 5, 6]
        .iter()
        .map(|&b| csa_multiplier(b))
        .collect();
    let refs: Vec<&gamora_aig::Aig> = train.iter().map(|m| &m.aig).collect();
    let mut reasoner = GamoraReasoner::new(ReasonerConfig::default());
    reasoner.fit(&refs, &train_cfg(300));

    let subject = csa_multiplier(16);
    let preds = reasoner.predict(&subject.aig);
    let (mut adders, cmp) = compare_extraction(&subject.aig, &preds);
    let before = cmp.recall();
    lsb_correction(&subject.aig, &mut adders);
    let exact = gamora_exact::analyze(&subject.aig);
    let after = gamora_exact::compare_with_reference(
        &adders,
        exact.adders.iter().map(|a| (a.sum, a.carry)),
    );
    assert!(
        after.recall() >= before,
        "post-processing must not hurt: {before} -> {}",
        after.recall()
    );
    assert!(
        after.recall() > 0.9,
        "16-bit CSA adder recall too low: {after}"
    );
}

/// The deep model handles Booth multipliers; trained on 6-10 bit, evaluated
/// on 16-bit (`REPRO.md` rows `fig6-shallow` and `fig6-6x48`).
#[test]
fn booth_needs_capacity_but_generalises() {
    figures::assert_rows_hold(figures::booth_rows());
}

fn quick_reasoner() -> GamoraReasoner {
    let train: Vec<_> = [3usize, 4].iter().map(|&b| csa_multiplier(b)).collect();
    let refs: Vec<&gamora_aig::Aig> = train.iter().map(|m| &m.aig).collect();
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 3,
            hidden: 16,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(&refs, &train_cfg(120));
    reasoner
}

/// The full serving round trip: a netlist written to AIGER, parsed back,
/// predicted on by a snapshot-restored model, and extracted — with results
/// identical to the in-process pipeline at every step.
#[test]
fn aiger_parse_predict_extract_roundtrip() {
    let reasoner = quick_reasoner();
    let subject = csa_multiplier(8);

    // In-process reference: predict + extract + LSB post-processing.
    let expected_preds = reasoner.predict(&subject.aig);
    let mut expected_adders = extract_from_predictions(&subject.aig, &expected_preds);
    lsb_correction(&subject.aig, &mut expected_adders);

    // AIGER round trip (ASCII is the identity on canonical netlists).
    let mut buf = Vec::new();
    aiger::write_ascii(&subject.aig, &mut buf).unwrap();
    let parsed = aiger::read(&buf[..]).unwrap();
    assert_eq!(parsed.num_nodes(), subject.aig.num_nodes());

    // Snapshot round trip into a fresh reasoner.
    let mut snap = Vec::new();
    snapshot::write_snapshot(&reasoner, &mut snap).unwrap();
    let restored = snapshot::read_snapshot(&snap[..]).unwrap();

    // Serve the parsed netlist with the restored model.
    let server = Server::start(restored, ServeConfig::default());
    let out = server
        .submit(parsed, AnalysisKind::ExtractAdders)
        .expect("admitted")
        .wait()
        .expect("job answered");
    assert_eq!(out.predictions.root_leaf, expected_preds.root_leaf);
    assert_eq!(out.predictions.is_xor, expected_preds.is_xor);
    assert_eq!(out.predictions.is_maj, expected_preds.is_maj);
    let served_adders = out.adders.expect("extraction requested");
    let served_pairs: Vec<_> = served_adders.iter().map(|a| (a.sum, a.carry)).collect();
    let expected_pairs: Vec<_> = expected_adders.iter().map(|a| (a.sum, a.carry)).collect();
    assert_eq!(served_pairs, expected_pairs);
}

/// Repeated submissions are answered from the structural-hash cache with
/// zero additional forward passes; distinct netlists miss.
#[test]
fn serve_cache_hit_and_miss_accounting() {
    let server = Server::start(quick_reasoner(), ServeConfig::default());
    let subject = csa_multiplier(6);

    let first = server
        .submit(subject.aig.clone(), AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect("job answered");
    assert!(!first.cache_hit);
    let baseline = server.stats().forward_passes;

    // Repeat: cache hit, forward-pass counter frozen.
    let repeat = server
        .submit(subject.aig.clone(), AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect("job answered");
    assert!(repeat.cache_hit);
    assert_eq!(repeat.predictions.root_leaf, first.predictions.root_leaf);
    assert_eq!(
        server.stats().forward_passes,
        baseline,
        "cache hits must not run the GNN"
    );

    // A renumbered isomorph (binary AIGER round trip) also hits.
    let mut buf = Vec::new();
    aiger::write_binary(&subject.aig, &mut buf).unwrap();
    let isomorph = aiger::read(&buf[..]).unwrap();
    let transferred = server
        .submit(isomorph, AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect("job answered");
    assert!(
        transferred.cache_hit,
        "isomorphic submission should be cache-served"
    );
    assert_eq!(server.stats().forward_passes, baseline);

    // A different netlist is a genuine miss.
    let other = server
        .submit(csa_multiplier(5).aig, AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect("job answered");
    assert!(!other.cache_hit);
    let stats = server.shutdown();
    assert_eq!(stats.forward_passes, baseline + 1);
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_misses, 2);
}

/// A corrupted snapshot never loads: any bit flip trips the checksum (or
/// an earlier structural check), and truncation is caught too.
#[test]
fn corrupt_snapshots_are_rejected() {
    let reasoner = quick_reasoner();
    let mut pristine = Vec::new();
    snapshot::write_snapshot(&reasoner, &mut pristine).unwrap();
    assert!(snapshot::read_snapshot(&pristine[..]).is_ok());

    for pos in [9usize, 30, pristine.len() / 3, pristine.len() - 10] {
        let mut bad = pristine.clone();
        bad[pos] ^= 0x08;
        assert!(
            snapshot::read_snapshot(&bad[..]).is_err(),
            "bit flip at byte {pos} must be detected"
        );
    }

    let mut truncated = pristine.clone();
    truncated.truncate(truncated.len() / 2);
    assert!(matches!(
        snapshot::read_snapshot(&truncated[..]),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// Multi-task training stays within one point of mean accuracy of the
/// collapsed single-task formulation on the same budget (`REPRO.md` rows
/// `fig4-full` and `fig4-tasks`). The paper's Figure 4 has multi-task
/// ahead; on this shallow setup single-task leads by a fraction of a
/// point, so the row's verdict is "no".
#[test]
fn multi_task_beats_single_task() {
    figures::assert_rows_hold(figures::task_rows());
}

/// Every row of `REPRO.md` whose bound is a range holds it; prints the
/// table with the fresh numbers.
#[test]
fn paper_figures_hold_their_recorded_bounds() {
    figures::assert_table_holds();
}
