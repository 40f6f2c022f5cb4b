//! # gamora-serve
//!
//! Persistent-model batch inference service for the Gamora reproduction:
//! the chassis that turns the train-and-evaluate-in-one-process pipeline
//! into a train-once / serve-many system.
//!
//! * **Model persistence** — `gamora::GamoraReasoner::save` / `load`
//!   (versioned, checksummed binary snapshots; see `gamora::snapshot`)
//!   make a trained reasoner a durable artifact served across processes.
//! * [`cache`] — an LRU prediction cache with two indexes over
//!   `gamora_aig::hasher`: the 128-bit identity digest of the exact
//!   numbering (probed first; a verbatim repeat needs nothing else) and
//!   the canonical structural fingerprint (a renumbered isomorph's way
//!   in), so repeated or isomorphic submissions skip the GNN forward pass
//!   entirely.
//! * [`scheduler`] — a `std::thread` + channel worker pool that coalesces
//!   concurrent jobs into micro-batches for `predict_batch` and fans the
//!   results back out (the serving analogue of the paper's Figure 8).
//!   The pool shares **one** model behind an `Arc` — inference is `&self`
//!   — and each worker carries only a reusable scratch workspace, so a
//!   warmed-up worker serves repeat-sized traffic without heap churn.
//!   The ingress is production-hardened: bounded queues with explicit
//!   admission (`try_submit` → `SubmitError::Overloaded`), a linger
//!   window so trickling traffic still forms real batches, per-job
//!   deadlines honoured before the forward pass, and fail-fast
//!   submission once shutdown begins. It is also **self-healing**: a
//!   supervisor respawns workers killed by panicking batches,
//!   submissions that repeatedly kill workers are quarantined by
//!   structural fingerprint, and `Server::health` reports
//!   healthy/degraded/shutting-down. The `gamora-fault` crate's fail
//!   points (armable via `GAMORA_FAULTS` or `--faults`) make every one
//!   of those recovery paths provokable on demand in tests.
//! * [`metrics`] — full serve-path observability over `gamora_obs`:
//!   per-stage latency histograms (admission, queue wait, linger,
//!   signature hash, batch assembly, GNN forward, prediction split),
//!   end-to-end latency, queue-depth/batch-size distributions, per-tier
//!   cache accounting and optional per-layer forward timing. Each server
//!   owns a private registry ([`Server::metrics`] snapshots it), and
//!   recording is wait-free and allocation-free, so the instrumented hot
//!   path stays within a few percent of the uninstrumented one.
//! * [`report`] — dependency-free JSON for the `gamora` binary's output.
//!
//! The `gamora` binary (this crate's `src/bin/gamora.rs`) wires it
//! together: `gamora train` fits and snapshots a model, `gamora infer`
//! serves AIGER netlists from a snapshot. Serving throughput is measured
//! by the `gamora-perf` benchmark (crate `gamora-bench`).
//!
//! ```
//! use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
//! use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};
//!
//! let m = gamora_circuits::csa_multiplier(3);
//! let mut reasoner = GamoraReasoner::new(ReasonerConfig {
//!     depth: ModelDepth::Custom { layers: 2, hidden: 8 },
//!     ..ReasonerConfig::default()
//! });
//! reasoner.fit(&[&m.aig], &TrainConfig { epochs: 5, ..TrainConfig::default() });
//!
//! let server = Server::start(reasoner, ServeConfig::default());
//! let out = server.submit(m.aig.clone(), AnalysisKind::Classify).unwrap().wait().unwrap();
//! assert_eq!(out.predictions.num_nodes(), m.aig.num_nodes());
//! let repeat = server.submit(m.aig.clone(), AnalysisKind::Classify).unwrap().wait().unwrap();
//! assert!(repeat.cache_hit);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod report;
pub mod scheduler;

pub use cache::{CacheEntry, CacheKey, GraphSignature, HitKind, PredictionCache};
pub use metrics::{LayerObserver, ServeMetrics};
pub use report::Json;
pub use scheduler::{
    AnalysisKind, Health, JobOutput, JobTicket, ServeConfig, ServeError, ServeStats, Server,
    SubmitError,
};
