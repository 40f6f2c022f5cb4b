//! **Figure 8** — batched reasoning: average per-netlist inference time and
//! peak memory versus batch size, with the paper's 40 GB device-memory
//! ceiling for context. On this CPU the batch's netlists go through the
//! model a cache-sized group at a time, so the memory column grows by the
//! per-node inputs and outputs only (`inference_memory_estimate`): the
//! activations are those of one group, whatever the batch.
//!
//! Regenerate: `cargo bench -p gamora-bench --bench fig8_batching`

use gamora::{inference_memory_estimate, ModelDepth, ReasonerConfig};
use gamora_bench::{fmt_bytes, fmt_time, time, train_reasoner, workload, PeakAlloc, Scale, Table};
use gamora_circuits::MultiplierKind;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn main() {
    let scale = Scale::from_env();
    let widths: Vec<usize> =
        scale.pick(vec![32], vec![32, 64, 128], vec![128, 256, 512, 1024, 2048]);
    let batch_sizes: Vec<usize> = scale.pick(vec![1, 4], vec![1, 2, 4, 8], vec![1, 4, 8, 16, 32]);
    let epochs = scale.pick(120, 250, 400);
    const DEVICE_LIMIT: usize = 40 << 30; // the paper's A100 has 40 GB

    println!("\n=== Figure 8: batched reasoning (scale {scale:?}) ===");
    let reasoner = train_reasoner(
        MultiplierKind::Csa,
        &[4, 6, 8],
        ModelDepth::Shallow,
        gamora::FeatureMode::StructuralFunctional,
        true,
        epochs,
    );

    let mut table = Table::new(&[
        "bits",
        "batch",
        "t/graph",
        "peak heap",
        "est. heap",
        "of 40 GiB",
    ]);
    for &bits in &widths {
        let m = workload(MultiplierKind::Csa, bits);
        for &bs in &batch_sizes {
            let aigs: Vec<&gamora_aig::Aig> = std::iter::repeat_n(&m.aig, bs).collect();
            PeakAlloc::reset_peak();
            let (preds, t) = time(|| reasoner.predict_batch(&aigs));
            assert_eq!(preds.len(), bs);
            let peak = PeakAlloc::peak();
            // Bidirectional message passing: two aggregation edges per
            // fanin edge, two fanin edges per AND.
            let est = inference_memory_estimate(
                &ReasonerConfig::default(),
                &vec![m.aig.num_nodes(); bs],
                bs * 4 * m.aig.num_ands(),
            );
            table.row(vec![
                bits.to_string(),
                bs.to_string(),
                fmt_time(t / bs as f64),
                fmt_bytes(peak),
                fmt_bytes(est),
                format!("{:.3}%", est as f64 / DEVICE_LIMIT as f64 * 100.0),
            ]);
        }
    }
    table.print();
    println!("\npaper reference: batching amortises per-graph cost until the batch hits the");
    println!("40 GB A100 memory limit (Fig. 8); here the ceiling is host RAM instead.");
}
