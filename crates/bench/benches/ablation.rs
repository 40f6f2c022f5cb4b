//! Ablations of the reproduction's design choices:
//!
//! * message-passing direction — fanin-only vs symmetrised adjacency
//!   (roots must see their sibling through a shared fanin);
//! * multi-task loss weight α on the root/leaf task;
//! * LSB post-processing on extraction recall.
//!
//! Regenerate: `cargo bench -p gamora-bench --bench ablation`

use gamora::{
    compare_extraction, lsb_correction, score_predictions, Direction, GamoraReasoner,
    ReasonerConfig, TrainConfig,
};
use gamora_bench::{pct, train_reasoner, workload, Scale, Table};
use gamora_circuits::MultiplierKind;

fn main() {
    let scale = Scale::from_env();
    let epochs = scale.pick(120, 250, 400);
    let eval_bits = scale.pick(12, 16, 64);

    println!("\n=== Ablation: message-passing direction ===");
    let m_eval = workload(MultiplierKind::Csa, eval_bits);
    let labels = gamora_exact::analyze(&m_eval.aig).labels;
    let mut table = Table::new(&[
        "direction",
        "mean acc (%)",
        "root/leaf (%)",
        "xor (%)",
        "maj (%)",
    ]);
    for dir in [
        Direction::Fanin,
        Direction::Fanout,
        Direction::Bidirectional,
    ] {
        let train: Vec<_> = [4usize, 6, 8]
            .iter()
            .map(|&b| workload(MultiplierKind::Csa, b))
            .collect();
        let refs: Vec<&gamora_aig::Aig> = train.iter().map(|m| &m.aig).collect();
        let mut r = GamoraReasoner::new(ReasonerConfig {
            direction: dir,
            ..ReasonerConfig::default()
        });
        r.fit(
            &refs,
            &TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
        );
        let rep = score_predictions(&r.predict(&m_eval.aig), &labels);
        table.row(vec![
            format!("{dir:?}"),
            pct(rep.mean()),
            pct(rep.task_accuracy[0]),
            pct(rep.task_accuracy[1]),
            pct(rep.task_accuracy[2]),
        ]);
    }
    table.print();

    println!("\n=== Ablation: root/leaf task weight (alpha) ===");
    let mut table = Table::new(&["alpha", "mean acc (%)", "root/leaf (%)"]);
    for alpha in [0.2f32, 0.8, 2.0] {
        let train: Vec<_> = [4usize, 6, 8]
            .iter()
            .map(|&b| workload(MultiplierKind::Csa, b))
            .collect();
        let refs: Vec<&gamora_aig::Aig> = train.iter().map(|m| &m.aig).collect();
        let mut r = GamoraReasoner::new(ReasonerConfig::default());
        r.fit(
            &refs,
            &TrainConfig {
                epochs,
                task_weights: vec![alpha, 1.0, 1.0],
                ..TrainConfig::default()
            },
        );
        let rep = score_predictions(&r.predict(&m_eval.aig), &labels);
        table.row(vec![
            format!("{alpha}"),
            pct(rep.mean()),
            pct(rep.task_accuracy[0]),
        ]);
    }
    table.print();

    println!("\n=== Ablation: LSB post-processing on extraction ===");
    let r = train_reasoner(
        MultiplierKind::Csa,
        &[4, 6, 8],
        gamora::ModelDepth::Shallow,
        gamora::FeatureMode::StructuralFunctional,
        true,
        epochs,
    );
    let preds = r.predict(&m_eval.aig);
    let (mut adders, before) = compare_extraction(&m_eval.aig, &preds);
    let repaired = lsb_correction(&m_eval.aig, &mut adders);
    let exact = gamora_exact::analyze(&m_eval.aig);
    let after = gamora_exact::compare_with_reference(
        &adders,
        exact.adders.iter().map(|a| (a.sum, a.carry)),
    );
    let mut table = Table::new(&["stage", "recall (%)", "precision (%)"]);
    table.row(vec![
        "raw predictions".into(),
        pct(before.recall()),
        pct(before.precision()),
    ]);
    table.row(vec![
        format!("+ LSB repair ({repaired} added)"),
        pct(after.recall()),
        pct(after.precision()),
    ]);
    table.print();
}
