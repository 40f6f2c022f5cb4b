//! # gamora
//!
//! The core of the reproduction of **"Gamora: Graph Learning based Symbolic
//! Reasoning for Large-Scale Boolean Networks"** (DAC 2023): a multi-task
//! GraphSAGE model that annotates every node of a flattened AIG with its
//! high-level role (adder root/leaf, XOR function, MAJ function), from
//! which full/half adder trees are extracted structurally — replacing the
//! expensive functional-detection step of word-level abstraction.
//!
//! The pipeline:
//!
//! 1. [`features`] — the paper's 3-bit functional node encoding;
//! 2. [`labels`] — ground-truth targets from exact analysis
//!    (`gamora-exact`);
//! 3. [`GamoraReasoner`] — train on small multipliers, infer on large ones;
//! 4. [`extract_from_predictions`] — pair predicted XOR/MAJ roots into
//!    adders;
//! 5. [`lsb_correction`] — the paper's post-processing fix for the
//!    systematically-missed LSB half adder. ([`PostProcess`] runs 4 and 5
//!    as one pass over buffers it keeps — what a serve worker holds.)
//!
//! Trained reasoners are durable: [`GamoraReasoner::save`] writes a
//! versioned, checksummed binary snapshot (see [`snapshot`]) and
//! [`GamoraReasoner::load`] restores it bit-exactly in a fresh process —
//! the foundation of the `gamora-serve` inference service, which trains
//! once and serves many netlists.
//!
//! ```
//! use gamora::{GamoraReasoner, ReasonerConfig, ModelDepth};
//! use gamora_gnn::TrainConfig;
//! let train = gamora_circuits::csa_multiplier(4);
//! let test = gamora_circuits::csa_multiplier(8);
//! let mut reasoner = GamoraReasoner::new(ReasonerConfig {
//!     depth: ModelDepth::Custom { layers: 3, hidden: 16 },
//!     ..ReasonerConfig::default()
//! });
//! reasoner.fit(&[&train.aig], &TrainConfig { epochs: 40, ..TrainConfig::default() });
//! let report = reasoner.evaluate(&test.aig);
//! assert!(report.mean() > 0.75); // quick doc run; benches train properly
//! ```

#![warn(missing_docs)]

pub mod dataset;
mod extract;
pub mod features;
pub mod labels;
mod postprocess;
mod reasoner;
pub mod snapshot;

pub use dataset::BatchScratch;
pub use extract::{compare_extraction, extract_from_predictions};
pub use features::FeatureMode;
pub use postprocess::{lsb_correction, PostProcess};
pub use reasoner::{
    inference_memory_estimate, score_predictions, BatchTimings, EvalReport, GamoraReasoner,
    ModelDepth, Predictions, ReasonerConfig,
};
pub use snapshot::SnapshotError;

// Re-export the neighbouring layers a user needs to drive the pipeline.
pub use gamora_gnn::{
    Direction, ForwardObserver, ForwardStage, InferenceScratch, TrainConfig, TrainReport,
};
