//! Scalability sweep (a miniature of the paper's Figure 7): netlist size,
//! exact and GNN runtime, and the heap inference holds at a serve worker's
//! two kernel threads (also scaled to the paper's 33M nodes) as multiplier
//! width grows.
//!
//! Run with: `cargo run --release --example scalability [max_bits]`
//! (default 128; pass 512 or more on a fast machine).

use gamora::{
    inference_memory_estimate, BatchScratch, GamoraReasoner, InferenceScratch, ReasonerConfig,
    TrainConfig,
};
use gamora_circuits::csa_multiplier;
use std::time::Instant;

fn main() {
    let max_bits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);

    let mut reasoner = GamoraReasoner::new(ReasonerConfig::default());
    let train: Vec<_> = [4usize, 6, 8].iter().map(|&b| csa_multiplier(b)).collect();
    let refs: Vec<&gamora_aig::Aig> = train.iter().map(|m| &m.aig).collect();
    eprintln!("training once on 4-8 bit multipliers ...");
    reasoner.fit(
        &refs,
        &TrainConfig {
            epochs: 250,
            ..TrainConfig::default()
        },
    );

    println!(
        "  bits        |V|        |E|   exact (ms)  gamora (ms)  acc (%) mem (MiB) B/node  GiB @33M"
    );
    let mut bits = 16usize;
    while bits <= max_bits {
        let t = Instant::now();
        let m = csa_multiplier(bits);
        let gen_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let analysis = gamora_exact::analyze(&m.aig);
        let exact_ms = t.elapsed().as_secs_f64() * 1e3;

        // A fresh worker's scratch, as `predict` would hold it; it also
        // reports the class counts the memory estimate is a function of.
        let t = Instant::now();
        let mut scratch = InferenceScratch::default();
        let mut outs = Vec::new();
        let (mut batch, aigs) = (BatchScratch::default(), [&m.aig]);
        reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, None);
        let preds = outs.pop().expect("one netlist");
        let gamora_ms = t.elapsed().as_secs_f64() * 1e3;

        // Two aggregation edges per AIG edge (bidirectional message
        // passing), at a serve worker's two kernel threads.
        let nodes = m.aig.num_nodes();
        let edges = 4 * m.aig.num_ands();
        let held =
            inference_memory_estimate(reasoner.config(), &[nodes], edges, scratch.classes(), 2);
        let per_node = held as f64 / nodes as f64;

        let eval = gamora::score_predictions(&preds, &analysis.labels);
        println!(
            "{:>6} {:>10} {:>10} {:>12.1} {:>12.1} {:>8.2} {:>9.1} {:>6.0} {:>9.1}   (gen {gen_ms:.0} ms, {} adders)",
            bits,
            nodes,
            2 * m.aig.num_ands(),
            exact_ms,
            gamora_ms,
            eval.mean() * 100.0,
            held as f64 / (1 << 20) as f64,
            per_node,
            per_node * 33e6 / (1u64 << 30) as f64,
            analysis.adders.len(),
        );
        bits *= 2;
    }
}
