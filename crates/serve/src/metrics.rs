//! Serve-path metric handles: the named counters, gauges and stage
//! histograms one [`Server`](crate::scheduler::Server) records into.
//!
//! Every server owns a private [`Registry`]; the handles below are `Arc`s
//! captured at startup, so the hot path only touches wait-free atomics —
//! the registry itself is consulted exclusively at snapshot time.
//!
//! ## Stage definitions (all values in microseconds)
//!
//! | metric | span |
//! |---|---|
//! | `stage_snapshot_load_micros` | snapshot open → model ready (cold start; recorded once per load by the binary via [`Server::record_snapshot_load`](crate::scheduler::Server::record_snapshot_load)) |
//! | `stage_admission_micros` | submit call entry → job admitted into the queue (includes blocking waits for queue space) |
//! | `stage_queue_wait_micros` | admission → a worker claims the job into a batch |
//! | `stage_linger_micros` | time a short batch waited for companions |
//! | `stage_signature_hash_micros` | hashing, wherever it runs: the identity digest of one submission, taken on the submitting thread before (not inside) its admission span, and the structural signature pass over one batch's identity-missed jobs in the worker |
//! | `stage_batch_assemble_micros` | merged batch graph + feature assembly |
//! | `stage_gnn_forward_micros` | the coalesced GNN forward pass |
//! | `stage_prediction_split_micros` | argmax decode, netlist by netlist |
//! | `stage_postprocess_micros` | cut detection, pairing and LSB repair of one `ExtractAdders` job (`Classify` jobs record nothing) |
//! | `stage_time_to_rejection_micros` | submit/queue entry → `Overloaded` or `DeadlineExpired` shed |
//! | `latency_e2e_micros` | submission → answer sent (the `JobOutput::latency_micros` distribution) |
//! | `cache_probe_micros` | one O(1) probe of either cache index, under the cache lock |
//! | `cache_resolve_micros` | one verbatim clone or transfer re-index, with no lock held |
//!
//! Distribution metrics `queue_depth` (sampled at every admission) and
//! `batch_size` (per executed batch) use the same histogram type with unit
//! "jobs" instead of microseconds.
//!
//! The cache itself records nothing: the scheduler times its plain calls
//! through [`ServeMetrics::timed_probe`] and [`ServeMetrics::timed_resolve`]
//! and counts the tiers — `cache_hits_verbatim_total` (identity hits
//! included), `cache_hits_transferred_total`, `cache_probe_misses_total`
//! (the structural key missed too) and `cache_resolve_misses_total`.

use crate::cache::HitKind;
use gamora::Predictions;
use gamora_gnn::{ForwardObserver, ForwardStage};
use gamora_obs::{Counter, Gauge, Histogram, Registry, StageTimer};
use std::sync::Arc;

/// Per-layer forward-timing sink: implements the GNN crate's
/// [`ForwardObserver`] seam over obs histograms (`forward_layer_<i>_micros`,
/// `forward_shared_micros`, `forward_heads_micros`).
pub struct LayerObserver {
    sage: Vec<Arc<Histogram>>,
    shared: Arc<Histogram>,
    heads: Arc<Histogram>,
}

impl LayerObserver {
    /// Registers one histogram per trunk layer plus the shared linear and
    /// the combined heads.
    pub fn register(reg: &mut Registry, num_layers: usize) -> LayerObserver {
        LayerObserver {
            sage: (0..num_layers)
                .map(|l| reg.histogram(&format!("forward_layer_{l}_micros")))
                .collect(),
            shared: reg.histogram("forward_shared_micros"),
            heads: reg.histogram("forward_heads_micros"),
        }
    }
}

impl ForwardObserver for LayerObserver {
    fn record_stage(&self, stage: ForwardStage, micros: u64) {
        match stage {
            ForwardStage::Sage(l) => {
                if let Some(h) = self.sage.get(l) {
                    h.record(micros);
                }
            }
            ForwardStage::Shared => self.shared.record(micros),
            ForwardStage::Heads => self.heads.record(micros),
        }
    }
}

/// Every metric handle the scheduler records into, registered under the
/// names documented in the module header. Counters `serve_*_total` mirror
/// the [`ServeStats`](crate::scheduler::ServeStats) fields (stats are read
/// *from* these, so the two views can never diverge).
pub struct ServeMetrics {
    /// Jobs admitted into the queue (tickets issued).
    pub jobs_submitted: Arc<Counter>,
    /// Jobs completed (answer produced and sent).
    pub jobs: Arc<Counter>,
    /// Batches executed with at least one live job.
    pub batches: Arc<Counter>,
    /// GNN forward passes run.
    pub forward_passes: Arc<Counter>,
    /// Completed jobs answered from the cache (or coalesced duplicates).
    pub cache_hits: Arc<Counter>,
    /// Completed jobs that needed the model.
    pub cache_misses: Arc<Counter>,
    /// Admitted jobs dropped unanswered.
    pub jobs_dropped: Arc<Counter>,
    /// Admitted jobs rejected on an expired deadline.
    pub jobs_expired: Arc<Counter>,
    /// Admitted jobs answered `ServeError::AnalysisFailed` (injected
    /// stage errors, quarantined fingerprints).
    pub jobs_failed: Arc<Counter>,
    /// Submissions refused at the door with `Overloaded`.
    pub rejected_overload: Arc<Counter>,
    /// Dead worker threads respawned by the supervisor.
    pub workers_respawned: Arc<Counter>,
    /// Fingerprints quarantined after repeated batch panics.
    pub quarantines: Arc<Counter>,
    /// High-water mark of the queue depth.
    pub peak_queued: Arc<Gauge>,
    /// Current health state (0 = healthy, 1 = degraded, 2 = shutting
    /// down); refreshed on every `health()`/`stats()` read.
    pub health: Arc<Gauge>,

    /// Snapshot open → model ready (cold start). Not on the per-job path:
    /// the binary records it once per load so the cold-start cost shows up
    /// in the same stage table / Prometheus text as the serving stages.
    pub stage_snapshot_load: Arc<Histogram>,
    /// Submit entry → admission (includes blocking waits for space).
    pub stage_admission: Arc<Histogram>,
    /// Admission → batch claim.
    pub stage_queue_wait: Arc<Histogram>,
    /// Linger window actually waited by short batches.
    pub stage_linger: Arc<Histogram>,
    /// Identity digest per submit plus structural signature hashing per
    /// batch.
    pub stage_hash: Arc<Histogram>,
    /// Merged batch graph/feature assembly.
    pub stage_assemble: Arc<Histogram>,
    /// The coalesced GNN forward pass.
    pub stage_forward: Arc<Histogram>,
    /// Argmax decode + per-netlist scatter.
    pub stage_split: Arc<Histogram>,
    /// Classical post-processing of one `ExtractAdders` job.
    pub stage_postprocess: Arc<Histogram>,
    /// Submission → shed (`Overloaded` / `DeadlineExpired`).
    pub stage_time_to_rejection: Arc<Histogram>,
    /// Submission → answer sent.
    pub latency_e2e: Arc<Histogram>,

    /// Queue depth sampled at every admission (unit: jobs).
    pub queue_depth: Arc<Histogram>,
    /// Live jobs per executed batch (unit: jobs).
    pub batch_size: Arc<Histogram>,

    /// O(1) cache probe latency (under the cache lock), one sample per
    /// probe of either index.
    pub cache_probe_micros: Arc<Histogram>,
    /// O(nodes) verbatim-clone / transfer-reindex latency (no lock held).
    pub cache_resolve_micros: Arc<Histogram>,
    /// Resolutions served bit-exactly from the stored vectors (identity
    /// hits included).
    pub cache_hits_verbatim_total: Arc<Counter>,
    /// Resolutions transferred onto a renumbered isomorph.
    pub cache_hits_transferred_total: Arc<Counter>,
    /// Jobs with no entry for their graph: the structural-key probe
    /// missed (and so, before it, had the identity probe).
    pub cache_probe_misses_total: Arc<Counter>,
    /// Probed entries that refused to resolve (duplicate cones or a
    /// genuine fingerprint collision) — honest misses.
    pub cache_resolve_misses_total: Arc<Counter>,
    /// Per-layer forward timing, present iff
    /// [`ServeConfig::layer_timing`](crate::scheduler::ServeConfig::layer_timing)
    /// is on.
    pub layers: Option<LayerObserver>,
}

impl ServeMetrics {
    /// Registers every serve metric in `reg`. `layer_count` switches on the
    /// optional per-layer forward histograms.
    pub fn register(reg: &mut Registry, layer_count: Option<usize>) -> ServeMetrics {
        // Which kernel variant produced every timing below.
        reg.info("gamora_kernel_isa", "isa", gamora_gnn::kernel_isa());
        ServeMetrics {
            jobs_submitted: reg.counter("serve_jobs_submitted_total"),
            jobs: reg.counter("serve_jobs_completed_total"),
            batches: reg.counter("serve_batches_total"),
            forward_passes: reg.counter("serve_forward_passes_total"),
            cache_hits: reg.counter("serve_cache_hits_total"),
            cache_misses: reg.counter("serve_cache_misses_total"),
            jobs_dropped: reg.counter("serve_jobs_dropped_total"),
            jobs_expired: reg.counter("serve_jobs_expired_total"),
            jobs_failed: reg.counter("serve_jobs_failed_total"),
            rejected_overload: reg.counter("serve_rejected_overload_total"),
            workers_respawned: reg.counter("serve_workers_respawned_total"),
            quarantines: reg.counter("serve_quarantines_total"),
            peak_queued: reg.gauge("serve_peak_queued"),
            health: reg.gauge("serve_health"),
            stage_snapshot_load: reg.histogram("stage_snapshot_load_micros"),
            stage_admission: reg.histogram("stage_admission_micros"),
            stage_queue_wait: reg.histogram("stage_queue_wait_micros"),
            stage_linger: reg.histogram("stage_linger_micros"),
            stage_hash: reg.histogram("stage_signature_hash_micros"),
            stage_assemble: reg.histogram("stage_batch_assemble_micros"),
            stage_forward: reg.histogram("stage_gnn_forward_micros"),
            stage_split: reg.histogram("stage_prediction_split_micros"),
            stage_postprocess: reg.histogram("stage_postprocess_micros"),
            stage_time_to_rejection: reg.histogram("stage_time_to_rejection_micros"),
            latency_e2e: reg.histogram("latency_e2e_micros"),
            queue_depth: reg.histogram("queue_depth"),
            batch_size: reg.histogram("batch_size"),
            cache_probe_micros: reg.histogram("cache_probe_micros"),
            cache_resolve_micros: reg.histogram("cache_resolve_micros"),
            cache_hits_verbatim_total: reg.counter("cache_hits_verbatim_total"),
            cache_hits_transferred_total: reg.counter("cache_hits_transferred_total"),
            cache_probe_misses_total: reg.counter("cache_probe_misses_total"),
            cache_resolve_misses_total: reg.counter("cache_resolve_misses_total"),
            layers: layer_count.map(|n| LayerObserver::register(reg, n)),
        }
    }

    /// Runs one cache probe of either index, timed into
    /// `cache_probe_micros`. Whether a miss counts is the caller's call:
    /// only the structural key's does.
    pub fn timed_probe<T>(&self, probe: impl FnOnce() -> T) -> T {
        let timer = StageTimer::start();
        let hit = probe();
        timer.observe(&self.cache_probe_micros);
        hit
    }

    /// Runs one resolve, timed into `cache_resolve_micros` and counted
    /// under the tier it returns, or as a resolve miss.
    pub fn timed_resolve(
        &self,
        resolve: impl FnOnce() -> Option<(Predictions, HitKind)>,
    ) -> Option<Predictions> {
        let timer = StageTimer::start();
        let resolved = resolve();
        timer.observe(&self.cache_resolve_micros);
        let counter = match &resolved {
            Some((_, HitKind::Verbatim)) => &self.cache_hits_verbatim_total,
            Some((_, HitKind::Transferred)) => &self.cache_hits_transferred_total,
            None => &self.cache_resolve_misses_total,
        };
        counter.inc();
        resolved.map(|(predictions, _)| predictions)
    }

    /// The layer observer as the GNN-facing trait object, if enabled.
    pub fn forward_observer(&self) -> Option<&dyn ForwardObserver> {
        self.layers.as_ref().map(|l| l as &dyn ForwardObserver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_observer_routes_stages() {
        let mut reg = Registry::new();
        let obs = LayerObserver::register(&mut reg, 2);
        obs.record_stage(ForwardStage::Sage(0), 10);
        obs.record_stage(ForwardStage::Sage(1), 20);
        obs.record_stage(ForwardStage::Sage(9), 30); // out of range: ignored
        obs.record_stage(ForwardStage::Shared, 40);
        obs.record_stage(ForwardStage::Heads, 50);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("forward_layer_0_micros").unwrap().count(), 1);
        assert_eq!(snap.histogram("forward_layer_1_micros").unwrap().count(), 1);
        assert_eq!(snap.histogram("forward_shared_micros").unwrap().sum, 40);
        assert_eq!(snap.histogram("forward_heads_micros").unwrap().sum, 50);
    }

    #[test]
    fn serve_metrics_register_all_names() {
        let mut reg = Registry::new();
        let m = ServeMetrics::register(&mut reg, Some(4));
        m.jobs_submitted.inc();
        m.stage_forward.record(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve_jobs_submitted_total"), 1);
        assert!(snap.histogram("stage_gnn_forward_micros").is_some());
        assert!(snap.histogram("stage_time_to_rejection_micros").is_some());
        assert!(snap.histogram("queue_depth").is_some());
        assert!(snap.histogram("cache_probe_micros").is_some());
        assert!(snap.histogram("forward_layer_3_micros").is_some());
        assert!(m.forward_observer().is_some());

        let mut cold = Registry::new();
        let c = ServeMetrics::register(&mut cold, None);
        assert!(c.forward_observer().is_none());
        assert!(cold
            .snapshot()
            .histogram("forward_layer_0_micros")
            .is_none());
    }
}
