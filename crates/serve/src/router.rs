//! Structural-hash shard router: N in-process [`Server`] shards over one
//! shared model.
//!
//! The north-star deployment serves heavy repeat traffic, and a single
//! `Server` has exactly one global [`PredictionCache`] mutex — every
//! worker's probe serialises on it. The router removes that cross-worker
//! contention point by construction: it owns `N` independent `Server`
//! shards, each with its *own* bounded queue, worker pool and prediction
//! cache, all borrowing the same [`Arc<GamoraReasoner>`] (PR 2 made
//! inference `&self`, so shards add only scratch memory, never model
//! copies).
//!
//! Routing is by **structural fingerprint**: a submission's canonical
//! whole-graph hash picks its shard, so every repeat (or renumbered
//! isomorph) of a netlist lands on the shard whose cache already holds it
//! — shard affinity turns the per-shard caches into one logically
//! partitioned cache with no shared lock. The signature computed for
//! routing (on the caller's thread) travels with the job, so shard
//! workers never re-hash router-submitted AIGs: they probe the identity
//! index with the signature's digest and fall back to its structural key.
//!
//! The router is a thin, stateless fan-out: it holds no queue of its own,
//! so the bounded-ingress guarantees of the underlying [`Server`]s
//! (admission control, deadlines, fail-fast shutdown) apply per shard
//! unchanged.

use crate::cache::GraphSignature;
use crate::scheduler::{
    AnalysisKind, Health, JobOutput, JobTicket, ServeConfig, ServeError, ServeStats, Server,
    SubmitError,
};
use gamora::GamoraReasoner;
use gamora_aig::hasher::structural_fingerprint;
use gamora_aig::Aig;
use gamora_obs::Snapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A set of [`Server`] shards over one shared reasoner, routed by
/// structural fingerprint.
pub struct ShardRouter {
    shards: Vec<Server>,
    /// Whether the shards were started with structural-hash caching on.
    /// With caching off the full [`GraphSignature`] would be dropped
    /// unused by the workers, so routing computes only the whole-graph
    /// fingerprint (one O(nodes) pass, no retained per-node hash vector).
    hashing_enabled: bool,
    /// Transient-failure retries performed by
    /// [`ShardRouter::submit_all_retrying`]; folded into
    /// [`ShardRouter::stats`].
    retries: AtomicU64,
}

/// Bounded, deterministic retry policy for
/// [`ShardRouter::submit_all_retrying`]: transient refusals —
/// [`SubmitError::Overloaded`] at admission, [`ServeError::JobDropped`]
/// when a worker died under the job — are retried with exponential
/// backoff; terminal answers ([`ServeError::AnalysisFailed`],
/// [`ServeError::DeadlineExpired`]) are returned as-is.
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Maximum retries per job on top of its first attempt.
    pub max_retries: u32,
    /// Base backoff: retry `k` (0-based) sleeps `backoff_micros << k`
    /// (deterministic — chaos tests replay identically; no jitter
    /// source is needed inside one process).
    pub backoff_micros: u64,
    /// Absolute give-up time: once reached, no further retry is
    /// scheduled and the job resolves with what it has. Also shipped to
    /// the shards as the per-job deadline, so queued work respects it
    /// too.
    pub deadline: Option<Instant>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_micros: 500,
            deadline: None,
        }
    }
}

/// Sleeps retry `attempt`'s backoff, clamped to the policy deadline.
/// Returns `false` — without sleeping — when the deadline has already
/// passed, telling the caller to stop retrying.
fn backoff_sleep(policy: &RetryPolicy, attempt: u32) -> bool {
    let scale = 1u64 << attempt.min(16);
    let mut pause = Duration::from_micros(policy.backoff_micros.saturating_mul(scale));
    if let Some(deadline) = policy.deadline {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return false;
        };
        pause = pause.min(left);
    }
    std::thread::sleep(pause);
    true
}

/// A routed submission: the target shard plus the signature to ship with
/// the job (present iff the shards cache).
struct Routed {
    shard: usize,
    sig: Option<GraphSignature>,
}

impl ShardRouter {
    /// Starts `num_shards` servers, each configured with `config`, all
    /// sharing `reasoner` read-only. Total worker threads are
    /// `num_shards * config.workers`; total queued jobs are bounded by
    /// `num_shards * config.queue_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero (or `config` is invalid, see
    /// [`Server::start_shared`]).
    pub fn start(
        reasoner: Arc<GamoraReasoner>,
        num_shards: usize,
        config: ServeConfig,
    ) -> ShardRouter {
        assert!(num_shards > 0, "at least one shard");
        let shards = (0..num_shards)
            .map(|_| Server::start_shared(Arc::clone(&reasoner), config))
            .collect();
        ShardRouter {
            shards,
            hashing_enabled: config.cache_capacity > 0,
            retries: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Records the snapshot load time once, into shard 0's registry (one
    /// model was loaded for the whole fleet, so the merged metric view
    /// reports exactly one observation). See
    /// [`Server::record_snapshot_load`].
    pub fn record_snapshot_load(&self, micros: u64) {
        self.shards[0].record_snapshot_load(micros);
    }

    /// The shard a netlist routes to (stable across submissions and
    /// renumbering: it is a function of the canonical fingerprint only).
    pub fn shard_of(&self, aig: &Aig) -> usize {
        (structural_fingerprint(aig) % self.shards.len() as u64) as usize
    }

    /// Computes the routing decision for one submission. With caching on,
    /// the full signature is computed once here and shipped with the job
    /// (shard workers never re-hash); with caching off, only the
    /// fingerprint is computed — no per-node hash vector is retained.
    fn route(&self, aig: &Aig) -> Routed {
        if self.hashing_enabled {
            let sig = GraphSignature::of(aig);
            Routed {
                shard: (sig.key.fingerprint % self.shards.len() as u64) as usize,
                sig: Some(sig),
            }
        } else {
            Routed {
                shard: self.shard_of(aig),
                sig: None,
            }
        }
    }

    /// Routes and enqueues a job, blocking while the target shard's queue
    /// is at capacity. See [`Server::submit`].
    pub fn submit(&self, aig: Aig, kind: AnalysisKind) -> Result<JobTicket, SubmitError> {
        let r = self.route(&aig);
        self.shards[r.shard].submit_routed(aig, kind, r.sig, None, true)
    }

    /// Non-blocking routed admission: fails with
    /// [`SubmitError::Overloaded`] when the target shard's queue is full.
    /// See [`Server::try_submit`].
    pub fn try_submit(&self, aig: Aig, kind: AnalysisKind) -> Result<JobTicket, SubmitError> {
        let r = self.route(&aig);
        self.shards[r.shard].submit_routed(aig, kind, r.sig, None, false)
    }

    /// Routed submission with a deadline `ttl` from now. See
    /// [`Server::submit_within`].
    pub fn submit_within(
        &self,
        aig: Aig,
        kind: AnalysisKind,
        ttl: Duration,
    ) -> Result<JobTicket, SubmitError> {
        let deadline = Instant::now() + ttl;
        let r = self.route(&aig);
        self.shards[r.shard].submit_routed(aig, kind, r.sig, Some(deadline), true)
    }

    /// Non-blocking routed admission with a deadline. See
    /// [`Server::try_submit_within`].
    pub fn try_submit_within(
        &self,
        aig: Aig,
        kind: AnalysisKind,
        ttl: Duration,
    ) -> Result<JobTicket, SubmitError> {
        let deadline = Instant::now() + ttl;
        let r = self.route(&aig);
        self.shards[r.shard].submit_routed(aig, kind, r.sig, Some(deadline), false)
    }

    /// Routes every job to its shard (one bulk enqueue per shard, so each
    /// shard's worker sees its slice as one coalescable burst), waits for
    /// all of them, and returns the outputs in input order. Fails with
    /// the first dropped job.
    pub fn submit_all(&self, jobs: Vec<(Aig, AnalysisKind)>) -> Result<Vec<JobOutput>, ServeError> {
        // (input index, aig, kind, optional precomputed signature)
        type RoutedJob = (usize, Aig, AnalysisKind, Option<GraphSignature>);
        let n = jobs.len();
        let mut per_shard: Vec<Vec<RoutedJob>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, (aig, kind)) in jobs.into_iter().enumerate() {
            let r = self.route(&aig);
            per_shard[r.shard].push((i, aig, kind, r.sig));
        }
        let mut tickets: Vec<Option<JobTicket>> = (0..n).map(|_| None).collect();
        // Bursts already admitted to earlier shards, so an abort (a shard
        // shutting down mid-routing) can retract their still-queued jobs
        // instead of letting those shards spend forward passes answering
        // receivers that die with our error return.
        let mut admitted: Vec<(&Server, u64)> = Vec::new();
        for (shard, group) in self.shards.iter().zip(per_shard) {
            if group.is_empty() {
                continue;
            }
            let idxs: Vec<usize> = group.iter().map(|(i, ..)| *i).collect();
            let result = shard.submit_batch(
                group
                    .into_iter()
                    .map(|(_, aig, kind, sig)| (aig, kind, sig))
                    .collect(),
            );
            let (burst, shard_tickets) = match result {
                Ok(ok) => ok,
                Err(_) => {
                    for (earlier, burst) in admitted {
                        earlier.retract_burst(burst);
                    }
                    return Err(ServeError::JobDropped);
                }
            };
            admitted.push((shard, burst));
            for (i, t) in idxs.into_iter().zip(shard_tickets) {
                tickets[i] = Some(t);
            }
        }
        tickets
            .into_iter()
            .map(|t| t.expect("every job routed").wait())
            .collect()
    }

    /// One non-blocking admission attempt with Overloaded-retry: routes
    /// `aig`, tries its shard, and on [`SubmitError::Overloaded`] backs
    /// off and retries while `attempts` has budget left. `None` means
    /// the job could not be admitted (budget or deadline exhausted, or
    /// the fleet is shutting down).
    fn admit_retrying(
        &self,
        aig: &Aig,
        kind: AnalysisKind,
        policy: &RetryPolicy,
        attempts: &mut u32,
    ) -> Option<JobTicket> {
        loop {
            let r = self.route(aig);
            match self.shards[r.shard].submit_routed(
                aig.clone(),
                kind,
                r.sig,
                policy.deadline,
                false,
            ) {
                Ok(ticket) => return Some(ticket),
                Err(SubmitError::Overloaded) => {
                    if *attempts >= policy.max_retries || !backoff_sleep(policy, *attempts) {
                        return None;
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    *attempts += 1;
                }
                Err(SubmitError::ShuttingDown) => return None,
            }
        }
    }

    /// [`ShardRouter::submit_all`] with per-job outcomes and bounded
    /// retry around transient failures — the degraded-conditions
    /// ingress. Unlike `submit_all`, it never fails wholesale: every job
    /// gets exactly one terminal `Result`, in input order.
    ///
    /// * Admission [`SubmitError::Overloaded`] (shed queues, injected
    ///   admission faults) and [`ServeError::JobDropped`] (the job's
    ///   worker died mid-batch and was respawned) are *transient*:
    ///   retried up to [`RetryPolicy::max_retries`] times with
    ///   deterministic exponential backoff, then reported as
    ///   [`ServeError::JobDropped`].
    /// * [`ServeError::AnalysisFailed`] (injected stage error, or the
    ///   submission is quarantined for killing workers) and
    ///   [`ServeError::DeadlineExpired`] are *terminal*: retrying a
    ///   poison job would just respawn-loop the pool.
    ///
    /// Jobs are admitted as one pass first (so shards batch the burst)
    /// and waited on in input order; a retried job re-routes from
    /// scratch, which matters when its shard is the one that just lost a
    /// worker.
    pub fn submit_all_retrying(
        &self,
        jobs: Vec<(Aig, AnalysisKind)>,
        policy: &RetryPolicy,
    ) -> Vec<Result<JobOutput, ServeError>> {
        let n = jobs.len();
        let mut results: Vec<Option<Result<JobOutput, ServeError>>> =
            (0..n).map(|_| None).collect();
        // Phase A: admit everything (index, subject, kind, retries spent,
        // ticket). Jobs that exhaust admission resolve immediately.
        let mut pending: Vec<(usize, Aig, AnalysisKind, u32, Option<JobTicket>)> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (aig, kind))| (i, aig, kind, 0u32, None))
            .collect();
        for slot in &mut pending {
            let (i, aig, kind, attempts, ticket) = slot;
            *ticket = self.admit_retrying(aig, *kind, policy, attempts);
            if ticket.is_none() {
                results[*i] = Some(Err(ServeError::JobDropped));
            }
        }
        // Phase B: wait in input order; dropped jobs are resubmitted with
        // whatever retry budget they have left.
        for (i, aig, kind, mut attempts, ticket) in pending {
            let Some(mut current) = ticket else { continue };
            let outcome = loop {
                match current.wait() {
                    Ok(out) => break Ok(out),
                    Err(ServeError::JobDropped) => {
                        if attempts >= policy.max_retries || !backoff_sleep(policy, attempts) {
                            break Err(ServeError::JobDropped);
                        }
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        attempts += 1;
                        match self.admit_retrying(&aig, kind, policy, &mut attempts) {
                            Some(ticket) => current = ticket,
                            None => break Err(ServeError::JobDropped),
                        }
                    }
                    Err(terminal) => break Err(terminal),
                }
            };
            results[i] = Some(outcome);
        }
        results
            .into_iter()
            .map(|r| r.expect("every job resolved"))
            .collect()
    }

    /// Aggregated counters over all shards (sums; `peak_queued` and
    /// `health` merge by max) plus this router's retry count.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total.retries += self.retries.load(Ordering::Relaxed);
        total
    }

    /// Fleet health: the *worst* state across the shards (the same
    /// max-merge rule as [`ServeStats::merge`] and the `serve_health`
    /// gauge).
    pub fn health(&self) -> Health {
        self.shards
            .iter()
            .map(Server::health)
            .max()
            .unwrap_or_default()
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(Server::stats).collect()
    }

    /// One fleet-wide metric snapshot: every shard's registry snapshot
    /// merged by name (counters sum, gauges keep the max, stage
    /// histograms add bucket-wise — so fleet percentiles are computed
    /// over the union of all shards' observations).
    pub fn metrics(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for shard in &self.shards {
            merged.merge(&shard.metrics());
        }
        merged
    }

    /// Per-shard metric snapshots, in shard order.
    pub fn shard_metrics(&self) -> Vec<Snapshot> {
        self.shards.iter().map(Server::metrics).collect()
    }

    /// Begins a graceful shutdown on every shard: new submissions fail
    /// fast, queued work is drained.
    pub fn begin_shutdown(&self) {
        for shard in &self.shards {
            shard.begin_shutdown();
        }
    }

    /// Drains all shards, stops their workers, and returns the aggregated
    /// stats.
    pub fn shutdown(self) -> ServeStats {
        // Flip every shard's flag first so they drain concurrently, then
        // join them one by one. The retry counter lives on the router,
        // not the shards, so fold it in here like `stats()` does.
        self.begin_shutdown();
        let mut total = ServeStats {
            retries: self.retries.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        for shard in self.shards {
            total.merge(&shard.shutdown());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora::{ModelDepth, Predictions, ReasonerConfig, TrainConfig};
    use gamora_aig::aiger;
    use gamora_circuits::csa_multiplier;

    fn tiny_trained() -> Arc<GamoraReasoner> {
        let m = csa_multiplier(3);
        let mut reasoner = GamoraReasoner::new(ReasonerConfig {
            depth: ModelDepth::Custom {
                layers: 2,
                hidden: 8,
            },
            ..ReasonerConfig::default()
        });
        reasoner.fit(
            &[&m.aig],
            &TrainConfig {
                epochs: 15,
                log_every: 0,
                ..TrainConfig::default()
            },
        );
        Arc::new(reasoner)
    }

    #[test]
    fn routing_is_deterministic_and_renumbering_invariant() {
        let router = ShardRouter::start(tiny_trained(), 4, ServeConfig::default());
        let aig = csa_multiplier(4).aig;
        let shard = router.shard_of(&aig);
        assert_eq!(router.shard_of(&aig), shard, "stable across calls");
        // A renumbered isomorph routes identically (canonical fingerprint).
        let mut buf = Vec::new();
        aiger::write_binary(&aig, &mut buf).unwrap();
        let isomorph = aiger::read(&buf[..]).unwrap();
        assert_eq!(
            router.shard_of(&isomorph),
            shard,
            "renumbering must not change the shard"
        );
        router.shutdown();
    }

    /// Shard affinity end to end: distinct netlists spread over shards,
    /// and every repeat of a netlist is served from its shard's warm
    /// cache — across the whole router, repeats cost zero extra forward
    /// passes.
    #[test]
    fn repeats_hit_their_shards_warm_cache() {
        let reasoner = tiny_trained();
        let router = ShardRouter::start(Arc::clone(&reasoner), 3, ServeConfig::default());
        let subjects: Vec<gamora_aig::Aig> = (2..7usize).map(|b| csa_multiplier(b).aig).collect();

        // Round 1: cold — every distinct graph pays its forward slot.
        for aig in &subjects {
            let out = router
                .submit(aig.clone(), AnalysisKind::Classify)
                .expect("admitted")
                .wait()
                .expect("answered");
            assert!(!out.cache_hit, "first submission is a miss");
        }
        let warm = router.stats();
        assert_eq!(warm.cache_misses, subjects.len() as u64);

        // Round 2 (plus a renumbered round 3): all hits, no new forwards.
        let expected: Vec<Predictions> = subjects.iter().map(|a| reasoner.predict(a)).collect();
        for (aig, exp) in subjects.iter().zip(&expected) {
            let repeat = router
                .submit(aig.clone(), AnalysisKind::Classify)
                .expect("admitted")
                .wait()
                .expect("answered");
            assert!(repeat.cache_hit, "repeat must land on the warm shard");
            assert_eq!(repeat.predictions.root_leaf, exp.root_leaf);

            let mut buf = Vec::new();
            aiger::write_binary(aig, &mut buf).unwrap();
            let isomorph = aiger::read(&buf[..]).unwrap();
            let transferred = router
                .submit(isomorph, AnalysisKind::Classify)
                .expect("admitted")
                .wait()
                .expect("answered");
            assert!(
                transferred.cache_hit,
                "a renumbered isomorph routes to the same warm shard"
            );
        }
        // The router signed every job on the caller's thread: the shards
        // neither digested at submit nor hashed in a worker.
        assert_eq!(
            router
                .metrics()
                .histogram("stage_signature_hash_micros")
                .expect("registered")
                .count(),
            0
        );
        let stats = router.shutdown();
        assert_eq!(
            stats.forward_passes, warm.forward_passes,
            "repeats and isomorphs must not run the model"
        );
        assert_eq!(stats.cache_hits, 2 * subjects.len() as u64);
        assert_eq!(stats.jobs, 3 * subjects.len() as u64);
    }

    #[test]
    fn submit_all_preserves_input_order_across_shards() {
        let reasoner = tiny_trained();
        let router = ShardRouter::start(Arc::clone(&reasoner), 4, ServeConfig::default());
        // Distinct sizes so outputs are attributable to their inputs.
        let subjects: Vec<gamora_aig::Aig> = (2..8usize).map(|b| csa_multiplier(b).aig).collect();
        let jobs: Vec<(gamora_aig::Aig, AnalysisKind)> = subjects
            .iter()
            .map(|a| (a.clone(), AnalysisKind::Classify))
            .collect();
        let outs = router.submit_all(jobs).expect("all answered");
        assert_eq!(outs.len(), subjects.len());
        for (aig, out) in subjects.iter().zip(&outs) {
            assert_eq!(
                out.predictions.num_nodes(),
                aig.num_nodes(),
                "output must line up with its input"
            );
        }
        router.shutdown();
    }

    #[test]
    fn router_shutdown_fails_new_submissions_fast() {
        let router = ShardRouter::start(tiny_trained(), 2, ServeConfig::default());
        router.begin_shutdown();
        assert_eq!(
            router
                .submit(csa_multiplier(3).aig, AnalysisKind::Classify)
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        let stats = router.shutdown();
        assert_eq!(stats.jobs_submitted, 0);
    }
}
