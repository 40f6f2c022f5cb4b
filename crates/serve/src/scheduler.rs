//! Micro-batching worker-pool scheduler with a bounded, deadline-aware
//! ingress.
//!
//! Jobs (an AIG plus the requested analysis) are submitted from any thread
//! and answered through per-job channels. Every submit digests its
//! AIG on the caller's thread (one streaming pass, the 128-bit
//! `identity_fingerprint`; nothing in cold mode). Worker threads drain the
//! shared queue in batches of up to `max_batch`, answer what they can from
//! the [`PredictionCache`] — its identity index first, with that digest;
//! structural hashing, the structural key and transfer only for jobs that
//! miss it, each transfer then remembered under the twin's numbering —
//! coalesce the remaining misses into
//! **one** GNN forward pass via
//! [`GamoraReasoner::predict_batch_into_timed`],
//! then fan the results back out — the serving analogue of the paper's
//! Figure 8 batched inference. The cache records no metrics; the worker
//! times each of its probes and resolves and counts the tier each answer
//! came from (`cache_*` in [`crate::metrics`]).
//!
//! The ingress is hardened for overload:
//!
//! * **Bounded queue.** The submission queue holds at most
//!   [`ServeConfig::queue_capacity`] jobs. A single job enters through
//!   [`Server::submit_with`], whose [`Admit`] policy says what a full
//!   queue does to it: [`Admit::Shed`] rejects with
//!   [`SubmitError::Overloaded`] instead of growing memory, while
//!   [`Admit::Block`] ([`Server::submit`]) blocks on a capacity condvar
//!   until a worker frees space. Every submit admits through one loop: a
//!   single submit is a burst of one job, [`Server::submit_all`] a burst
//!   of its whole list, admitted in capacity-sized waves. A burst can
//!   therefore never inflate the server beyond `queue_capacity` queued
//!   AIGs.
//! * **Linger window.** A worker that finds fewer than `max_batch` jobs
//!   waits up to [`ServeConfig::linger_micros`] (via
//!   `Condvar::wait_timeout`) for companions before running a short
//!   batch, so trickling arrival rates still form real batches instead of
//!   degenerating to size-1 forward passes.
//! * **Deadlines.** [`Admit::Within`] attaches a time-to-live: the submit
//!   waits for queue space no longer than that, and workers reject
//!   already-expired jobs with [`ServeError::DeadlineExpired`] *before*
//!   probing, hashing or running the model, so a backed-up server does
//!   not burn forward passes on answers nobody is waiting for.
//! * **Shutdown is observed under the queue lock.** Once
//!   [`Server::begin_shutdown`] (or drop/`shutdown`) flips the flag, every
//!   submit fails fast with [`SubmitError::ShuttingDown`] — a
//!   job can never be enqueued into a queue no worker will drain.
//!
//! The serve loop is also **self-healing** (PR 8):
//!
//! * **Restart in place.** A worker catches a panic of its batch,
//!   accounts the unanswered jobs as dropped, and replaces its whole
//!   `WorkerState` with a fresh one, keeping the same `Arc`'d model,
//!   before it claims the next batch, so no scratch a panic may have
//!   half-written is ever reused. The state holds everything a worker
//!   owns, and the kernel thread budget, its one thread-local, is set
//!   once at spawn and never changed on the worker thread, so the
//!   restarted worker is the one a fresh thread would be. Restarts are
//!   counted in `workers_respawned`.
//! * **Poison quarantine.** A structural fingerprint present in two
//!   panicking batches is quarantined for
//!   [`ServeConfig::quarantine_ttl_micros`]: further submissions of it
//!   are answered [`ServeError::AnalysisFailed`] without touching the
//!   model, so one pathological netlist costs a couple of batches, not
//!   the fleet's throughput. (Attribution is batch-level: innocent
//!   companions of a poison job can collect a strike; the TTL bounds the
//!   damage.)
//! * **Health.** [`Server::health`] derives `Healthy`/`Degraded`/
//!   `ShuttingDown` from the shutdown flag, active quarantines, and the
//!   recency of incidents (sheds, panics, restarts).
//!
//! Admission, signature hashing, the cache probe and the model call each
//! check a deterministic fail point (`gamora-fault`) here, where their
//! failures are handled, so chaos tests can provoke each of these paths
//! on demand; disarmed, each check is one relaxed atomic load (guarded by
//! the `fault_overhead` test).
//!
//! Built on `std::thread` + `std::sync::mpsc` channels only (the same
//! no-external-runtime discipline as `gamora_gnn::parallel`). The server
//! holds exactly **one** trained reasoner behind an [`Arc`]; inference is
//! `&self`, so every worker shares those weights read-only and carries
//! only private scratch: an [`InferenceScratch`] (preallocated forward
//! buffers, sized by one group of netlists rather than by the batch)
//! plus a [`BatchScratch`] (reusable merged batch graph and features)
//! and a recycled per-job output vector. A
//! warmed-up worker therefore runs the whole miss path — graph
//! construction, feature encoding, batch assembly and the forward pass —
//! without heap allocation. Forward passes never contend on a lock, and
//! memory scales with worker count only by the scratch size, not by the
//! model size.
//!
//! Scale a server with `workers`, not with more servers: routed shards
//! with a cache each lost to one server with as many workers on every
//! traffic shape (README "Tried and removed: shard routing").

use crate::cache::{CacheEntry, CacheKey, GraphSignature, HitKind, PredictionCache};
use crate::metrics::ServeMetrics;
use gamora::{BatchScratch, GamoraReasoner, InferenceScratch, PostProcess, Predictions};
use gamora_aig::hasher::{identity_fingerprint, FxHashMap};
use gamora_aig::Aig;
use gamora_exact::ExtractedAdder;
use gamora_fault::FaultPoint;
use gamora_obs::{Registry, Snapshot, StageTimer};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which analysis a job requests.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum AnalysisKind {
    /// Per-node classification only (tasks 1–3).
    #[default]
    Classify,
    /// Classification plus adder-tree extraction with the paper's LSB
    /// post-processing.
    ExtractAdders,
    /// Test-only: panics during post-processing, after any preceding jobs
    /// in the batch have been answered — exercises the partial-batch drop
    /// accounting without a pathological netlist.
    #[cfg(test)]
    PanicForTest,
    /// Test-only: sleeps 300ms in post-processing, keeping the worker
    /// provably busy for a window far wider than any scheduler stall —
    /// the deterministic stand-in for a long forward pass in
    /// timing-sensitive ingress tests.
    #[cfg(test)]
    SleepForTest,
}

/// Scheduler configuration.
#[derive(Copy, Clone, Debug)]
pub struct ServeConfig {
    /// Maximum jobs coalesced into one forward pass.
    pub max_batch: usize,
    /// Inference worker threads (each carries only a scratch workspace;
    /// the model itself is shared).
    pub workers: usize,
    /// Capacity of the structural-hash prediction cache, in graphs.
    /// `0` disables every structural-hash shortcut — cache lookups *and*
    /// intra-batch duplicate coalescing — so each job pays a full model
    /// slot (the cold-path throughput benchmark).
    pub cache_capacity: usize,
    /// Maximum queued (admitted but not yet claimed) jobs. `0` means
    /// unbounded. When full, an [`Admit::Shed`] submit fails with
    /// [`SubmitError::Overloaded`] at once, an [`Admit::Within`] one once
    /// its ttl passes, and [`Admit::Block`] (with [`Server::submit_all`])
    /// waits until a worker drains the queue.
    pub queue_capacity: usize,
    /// How long a worker holding a short batch waits for more jobs before
    /// running it, in microseconds. `0` is fully greedy (run whatever is
    /// there). A full batch never waits.
    pub linger_micros: u64,
    /// Record per-layer GNN forward timings (`forward_layer_*_micros`
    /// histograms). Off by default: the coarse stage histograms are always
    /// on and effectively free, while per-layer timing adds two clock
    /// reads per layer per forward pass — still cheap, but opt-in so the
    /// default hot path stays minimal.
    pub layer_timing: bool,
    /// Intra-subject parallelism budget per worker: the number of threads
    /// each worker's kernel calls may fan out over (million-node subjects
    /// parallelise feature encoding, aggregation, and GEMM row blocks).
    /// `0` (the default) divides the machine's detected cores evenly
    /// across `workers`, so worker-level and intra-subject parallelism
    /// never oversubscribe the machine. `1` forces fully serial kernels
    /// per worker.
    pub intra_threads: usize,
    /// How long a poisoned fingerprint (two batch panics) stays
    /// quarantined, in microseconds. While quarantined, submissions of
    /// that fingerprint are answered [`ServeError::AnalysisFailed`]
    /// without running the model. Quarantine needs structural hashing
    /// (`cache_capacity > 0`); in cold mode no fingerprints exist, so
    /// nothing is ever quarantined.
    pub quarantine_ttl_micros: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            workers: 1,
            cache_capacity: 256,
            queue_capacity: 1024,
            linger_micros: 200,
            layer_timing: false,
            intra_threads: 0,
            quarantine_ttl_micros: 5_000_000,
        }
    }
}

/// A completed job.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Per-node predictions for the submitted AIG.
    pub predictions: Predictions,
    /// Extracted adders (present iff [`AnalysisKind::ExtractAdders`]).
    pub adders: Option<Vec<ExtractedAdder>>,
    /// Whether the predictions came from the structural-hash cache.
    pub cache_hit: bool,
    /// Wall time from submission to completion, in microseconds.
    pub latency_micros: u64,
}

/// How [`Server::submit_with`] admits a job while the bounded queue is
/// full.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Wait for a worker to free space, however long that takes
    /// ([`Server::submit`]).
    Block,
    /// Refuse at once with [`SubmitError::Overloaded`]: the load-shedding
    /// entry, so memory stays bounded however hard clients hammer.
    Shed,
    /// Wait for space at most this long, then refuse with
    /// [`SubmitError::Overloaded`]. An admitted job carries the deadline
    /// `ttl` from submission: a worker that reaches it later answers
    /// [`ServeError::DeadlineExpired`] instead of spending a forward pass
    /// on an answer nobody is waiting for.
    Within(Duration),
}

/// Why a submission was refused at the door (the job never entered the
/// queue; nothing was enqueued and no ticket exists).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Shed at the door: the bounded queue was full for an
    /// [`Admit::Shed`] submit, or stayed full until an [`Admit::Within`]
    /// submit's ttl ran out, or an admission fault is armed (any submit,
    /// bulk ones whole). [`Admit::Block`] waits on a full queue instead.
    /// Back off and retry, or treat as load shedding.
    Overloaded,
    /// Shutdown has begun; no worker will ever drain a new job. Observed
    /// under the queue lock, so this cannot race with the workers exiting.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "serve queue at capacity; submission rejected"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down; submission rejected"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *admitted* job was not answered with predictions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server dropped the job without answering it — a worker panic,
    /// or a shutdown racing the submission. The job may or may not have
    /// run; resubmit against a live server.
    JobDropped,
    /// The job's deadline passed before a worker reached it; it was
    /// rejected without running the model.
    DeadlineExpired,
    /// [`JobTicket::wait_timeout`] gave up waiting. The job is still
    /// queued or running and may complete later.
    WaitTimeout,
    /// The analysis could not be produced: the job's fingerprint is
    /// quarantined after repeated batch panics, or a serve stage failed
    /// (an injected stage error in chaos runs). Unlike
    /// [`ServeError::JobDropped`] this is a *definitive* answer —
    /// resubmitting the same netlist before the quarantine TTL lapses
    /// fails again.
    AnalysisFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::JobDropped => write!(f, "serve worker dropped the job before answering"),
            ServeError::DeadlineExpired => {
                write!(f, "job deadline expired before a worker reached it")
            }
            ServeError::WaitTimeout => write!(f, "timed out waiting for the job to complete"),
            ServeError::AnalysisFailed => {
                write!(f, "analysis failed (stage error or quarantined submission)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Receiving side of a submitted job.
#[derive(Debug)]
pub struct JobTicket {
    rx: mpsc::Receiver<Result<JobOutput, ServeError>>,
}

impl JobTicket {
    /// Blocks until the job completes.
    ///
    /// Returns [`ServeError::JobDropped`] instead of panicking when the
    /// server died or shut down before answering, so a draining server
    /// fails jobs gracefully; [`ServeError::DeadlineExpired`] when the
    /// job's deadline passed unserved.
    pub fn wait(self) -> Result<JobOutput, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::JobDropped),
        }
    }

    /// Like [`JobTicket::wait`], but gives up after `timeout` with
    /// [`ServeError::WaitTimeout`] — no client ever has to block forever
    /// on a wedged server. The ticket stays valid: the caller can keep
    /// waiting with another call.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<JobOutput, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::JobDropped),
        }
    }
}

pub(crate) struct Job {
    pub(crate) aig: Aig,
    pub(crate) kind: AnalysisKind,
    /// The AIG's 128-bit identity digest, taken on the submitting thread
    /// (see [`Server::identity_of`]); `Some` exactly when the server
    /// hashes (`cache_capacity > 0`). The worker probes the cache's
    /// identity index with it, and computes the structural signature only
    /// if that index does not answer the job.
    pub(crate) identity: Option<u128>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) submitted: Instant,
    /// When the job entered the queue (stamped by the admission loop);
    /// together with `submitted` this splits end-to-end latency into
    /// admission wait vs queue wait. Initialised to `submitted` by
    /// [`Server::job`].
    pub(crate) admitted: Instant,
    /// Id of the burst the job was admitted in (`0` = a single submit, a
    /// burst of one): lets a bulk submit aborted by shutdown retract its
    /// own still-queued jobs instead of leaving them to burn forward
    /// passes into dropped receivers. The admission loop retracts only
    /// for a call that has admitted something, so the shared id `0` is
    /// never retracted.
    pub(crate) burst: u64,
    pub(crate) tx: mpsc::Sender<Result<JobOutput, ServeError>>,
}

impl Job {
    /// The identity digest of a job on a hashing server.
    fn digest(&self) -> u128 {
        self.identity
            .expect("a hashing server digests every job at submit")
    }
}

/// Server health, derived from the failure counters (see
/// [`Server::health`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Health {
    /// No shutdown, no active quarantine, no recent incident.
    #[default]
    Healthy = 0,
    /// A fingerprint is quarantined, or an incident (overload shed,
    /// batch panic, worker restart) happened within the last
    /// [`INCIDENT_WINDOW`]. The server still serves.
    Degraded = 1,
    /// Shutdown has begun; new submissions fail fast.
    ShuttingDown = 2,
}

impl Health {
    /// Stable lowercase name (used in bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::ShuttingDown => "shutting_down",
        }
    }
}

/// How long after the last incident (shed, panic, restart, failed job)
/// a server still reports [`Health::Degraded`].
pub const INCIDENT_WINDOW: Duration = Duration::from_millis(500);

/// A point-in-time snapshot of server counters.
///
/// Completion accounting is exact: every admitted job is eventually
/// counted in exactly one of `jobs` (answered), `jobs_expired` (deadline
/// rejection), `jobs_failed` (quarantined / stage-failed, answered
/// [`ServeError::AnalysisFailed`]) or `jobs_dropped` (batch panic /
/// shutdown), so after a drained shutdown
/// `jobs_submitted == jobs + jobs_expired + jobs_failed + jobs_dropped`
/// and `jobs == cache_hits + cache_misses`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Jobs admitted into the queue (tickets issued).
    pub jobs_submitted: u64,
    /// Jobs completed (an answer was produced and sent).
    pub jobs: u64,
    /// Batches executed with at least one live job (cache-only batches
    /// included).
    pub batches: u64,
    /// GNN forward passes run (one per batch with at least one miss).
    pub forward_passes: u64,
    /// Completed jobs answered from the cache (or a coalesced duplicate).
    pub cache_hits: u64,
    /// Completed jobs that needed the model.
    pub cache_misses: u64,
    /// Admitted jobs dropped unanswered (batch panic, or still queued at
    /// shutdown).
    pub jobs_dropped: u64,
    /// Admitted jobs rejected because their deadline expired before a
    /// worker reached them (no forward pass was spent).
    pub jobs_expired: u64,
    /// Admitted jobs answered [`ServeError::AnalysisFailed`]
    /// (quarantined fingerprints, injected stage errors).
    pub jobs_failed: u64,
    /// Submit calls refused at the door with [`SubmitError::Overloaded`]
    /// (these never count as submitted; a refused bulk submit counts
    /// once).
    pub rejected_overload: u64,
    /// Worker restarts after a caught batch panic.
    pub workers_respawned: u64,
    /// Fingerprints quarantined after repeated batch panics.
    pub quarantines: u64,
    /// High-water mark of the queue depth (bounded by `queue_capacity`
    /// when one is set).
    pub peak_queued: u64,
    /// Health at snapshot time. In the report [`Server::shutdown`]
    /// returns, the health of the drained server's failure state.
    pub health: Health,
}

/// Queue state guarded by one mutex: the jobs *and* the shutdown flag, so
/// admission decisions and shutdown can never race.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Strike record of a fingerprint seen in panicking batches.
struct QuarantineEntry {
    strikes: u32,
    /// `Some(deadline)` once quarantined; `None` while accumulating
    /// strikes.
    until: Option<Instant>,
    /// Last strike time — lets stale strike-only entries be purged so
    /// the map cannot grow without bound under sustained chaos.
    last_strike: Instant,
}

/// Batch panics before a fingerprint is quarantined.
const QUARANTINE_STRIKES: u32 = 2;

struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when jobs arrive (workers wait here).
    available: Condvar,
    /// Signalled when queue space frees up (blocked submitters wait here).
    space: Condvar,
    /// Allocator for the [`Job::burst`] ids of bulk submits (`0` is
    /// reserved for single submits, which never retract).
    burst_counter: AtomicU64,
    /// `None` in cold mode (`cache_capacity == 0`), which also switches
    /// off every hash: the digest at submit, the structural pass and
    /// intra-batch dedup.
    cache: Option<Mutex<PredictionCache>>,
    /// Every counter/gauge/histogram the serve path records into. The
    /// handles are `Arc`s into `registry`; recording is wait-free.
    metrics: ServeMetrics,
    /// Owns the metric storage; immutable after construction, snapshotted
    /// by [`Server::metrics`].
    registry: Registry,
    max_batch: usize,
    /// `0` = unbounded.
    queue_capacity: usize,
    linger: Duration,
    /// Server start time; incident timestamps are micros since this.
    started: Instant,
    /// Micros-since-start of the last incident **plus one** (`0` = no
    /// incident yet). Drives the `Degraded` health window.
    last_incident: AtomicU64,
    /// Fingerprint strike/quarantine records (see [`QuarantineEntry`]).
    quarantine: Mutex<FxHashMap<u64, QuarantineEntry>>,
    /// Number of *quarantined* (not merely struck) fingerprints; lets
    /// the batch path skip the quarantine lock entirely when zero.
    quarantine_active: AtomicU64,
    quarantine_ttl: Duration,
}

impl Shared {
    /// Stamps "something went wrong just now" for the health window.
    fn note_incident(&self) {
        let micros = self.started.elapsed().as_micros() as u64;
        self.last_incident.store(micros + 1, Ordering::Relaxed);
    }

    /// Whether an incident occurred within [`INCIDENT_WINDOW`].
    fn recent_incident(&self) -> bool {
        match self.last_incident.load(Ordering::Relaxed) {
            0 => false,
            stamp => {
                let now = self.started.elapsed().as_micros() as u64;
                now.saturating_sub(stamp - 1) <= INCIDENT_WINDOW.as_micros() as u64
            }
        }
    }

    /// Drops expired quarantine records and stale strike-only records,
    /// keeping `quarantine_active` in sync. Caller holds the map lock.
    fn purge_quarantine(&self, map: &mut FxHashMap<u64, QuarantineEntry>, now: Instant) {
        let ttl = self.quarantine_ttl;
        let mut released = 0u64;
        map.retain(|_, e| match e.until {
            Some(until) if now >= until => {
                released += 1;
                false
            }
            Some(_) => true,
            None => now.saturating_duration_since(e.last_strike) < ttl,
        });
        if released > 0 {
            self.quarantine_active
                .fetch_sub(released, Ordering::Relaxed);
        }
    }

    /// Records one strike against every distinct fingerprint of a
    /// panicked batch; fingerprints reaching [`QUARANTINE_STRIKES`] are
    /// quarantined for the TTL.
    fn strike_fingerprints(&self, fps: &[u64]) {
        if fps.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut map = self.quarantine.lock().expect("quarantine poisoned");
        self.purge_quarantine(&mut map, now);
        let mut seen: Vec<u64> = Vec::with_capacity(fps.len());
        for &fp in fps {
            if seen.contains(&fp) {
                continue;
            }
            seen.push(fp);
            let e = map.entry(fp).or_insert(QuarantineEntry {
                strikes: 0,
                until: None,
                last_strike: now,
            });
            e.strikes += 1;
            e.last_strike = now;
            if e.strikes >= QUARANTINE_STRIKES && e.until.is_none() {
                e.until = Some(now + self.quarantine_ttl);
                self.quarantine_active.fetch_add(1, Ordering::Relaxed);
                self.metrics.quarantines.inc();
                self.note_incident();
            }
        }
    }
}

/// A running inference server over one trained reasoner.
pub struct Server {
    shared: Arc<Shared>,
    /// The worker threads, joined by shutdown. A worker outlives every
    /// batch panic (it restarts in place), so this is the whole pool for
    /// the server's lifetime.
    workers: Vec<JoinHandle<()>>,
}

/// Spawns worker `index` over the shared state with its kernel thread
/// budget, the one thread-local a worker has.
fn spawn_worker(
    shared: &Arc<Shared>,
    model: &Arc<GamoraReasoner>,
    intra_threads: usize,
    index: usize,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let model = Arc::clone(model);
    std::thread::Builder::new()
        .name(format!("gamora-serve-{index}"))
        .spawn(move || {
            gamora_gnn::parallel::set_intra_threads(intra_threads);
            worker_loop(&shared, &model);
        })
        .expect("spawn serve worker")
}

impl Server {
    /// Starts the worker pool over an owned reasoner (wraps it in an
    /// [`Arc`] and delegates to [`Server::start_shared`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.workers` is zero.
    pub fn start(reasoner: GamoraReasoner, config: ServeConfig) -> Server {
        Server::start_shared(Arc::new(reasoner), config)
    }

    /// Starts the worker pool over an already-shared reasoner. The server
    /// holds exactly this one model; every worker borrows it through the
    /// `Arc` and owns nothing but a private scratch workspace, so callers
    /// can keep using (or serve elsewhere) the same instance concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.workers` is zero.
    pub fn start_shared(reasoner: Arc<GamoraReasoner>, config: ServeConfig) -> Server {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.workers > 0, "at least one worker");
        let mut registry = Registry::new();
        let metrics = ServeMetrics::register(
            &mut registry,
            config.layer_timing.then(|| reasoner.num_layers()),
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            burst_counter: AtomicU64::new(1),
            cache: (config.cache_capacity > 0)
                .then(|| Mutex::new(PredictionCache::new(config.cache_capacity))),
            metrics,
            registry,
            max_batch: config.max_batch,
            queue_capacity: config.queue_capacity,
            linger: Duration::from_micros(config.linger_micros),
            started: Instant::now(),
            last_incident: AtomicU64::new(0),
            quarantine: Mutex::new(FxHashMap::default()),
            quarantine_active: AtomicU64::new(0),
            quarantine_ttl: Duration::from_micros(config.quarantine_ttl_micros),
        });
        // Split the machine's thread budget across the pool: N workers
        // each fanning kernels over the full core count would oversubscribe
        // quadratically under load.
        let intra_threads = if config.intra_threads > 0 {
            config.intra_threads
        } else {
            (gamora_gnn::parallel::num_threads() / config.workers).max(1)
        };
        let workers = (0..config.workers)
            .map(|i| spawn_worker(&shared, &reasoner, intra_threads, i))
            .collect();
        Server { shared, workers }
    }

    /// Records how long loading the model snapshot took, as the
    /// `stage_snapshot_load_micros` cold-start stage. The server cannot
    /// observe the load itself (it receives an already-built reasoner),
    /// so the loading caller reports it once here and the value then
    /// flows through the same stage table, JSON reports and Prometheus
    /// text as the per-job stages.
    pub fn record_snapshot_load(&self, micros: u64) {
        self.shared.metrics.stage_snapshot_load.record(micros);
    }

    /// Enqueues a job, blocking while the queue is at capacity; returns a
    /// ticket to wait on. Shorthand for [`Server::submit_with`] under
    /// [`Admit::Block`].
    pub fn submit(&self, aig: Aig, kind: AnalysisKind) -> Result<JobTicket, SubmitError> {
        self.submit_with(aig, kind, Admit::Block)
    }

    /// Enqueues one job, admitted as `admit` says, and returns a ticket to
    /// wait on. Fails fast with [`SubmitError::ShuttingDown`] once
    /// shutdown has begun.
    pub fn submit_with(
        &self,
        aig: Aig,
        kind: AnalysisKind,
        admit: Admit,
    ) -> Result<JobTicket, SubmitError> {
        let deadline = match admit {
            Admit::Within(ttl) => Some(Instant::now() + ttl),
            Admit::Block | Admit::Shed => None,
        };
        let (job, ticket) = self.job(aig, kind, deadline, 0);
        self.enqueue([job], admit != Admit::Shed).map(|()| ticket)
    }

    /// Submits many jobs under one queue lock (so an idle worker sees them
    /// as one coalescable burst) and waits for all of them, preserving
    /// input order. Bursts larger than the queue capacity are admitted in
    /// capacity-sized waves: the submitter blocks on the space condvar
    /// between waves, so memory stays bounded even for huge bulk calls.
    /// Fails with the first dropped job.
    ///
    /// This is the one entry that admits a whole list under a single lock;
    /// a loop over [`Server::submit`] lets a worker wake on the first job
    /// and run it alone. `gamora infer` relies on it to serve its file
    /// list as one batch.
    pub fn submit_all(&self, jobs: Vec<(Aig, AnalysisKind)>) -> Result<Vec<JobOutput>, ServeError> {
        let tickets = self
            .submit_batch(jobs)
            .map_err(|_| ServeError::JobDropped)?;
        tickets.into_iter().map(JobTicket::wait).collect()
    }

    /// Bulk enqueue behind `submit_all`: one burst, under a fresh id.
    fn submit_batch(&self, jobs: Vec<(Aig, AnalysisKind)>) -> Result<Vec<JobTicket>, SubmitError> {
        let id = self.shared.burst_counter.fetch_add(1, Ordering::Relaxed);
        let (burst, tickets): (Vec<Job>, Vec<JobTicket>) = jobs
            .into_iter()
            .map(|(aig, kind)| self.job(aig, kind, None, id))
            .unzip();
        self.enqueue(burst, true).map(|()| tickets)
    }

    /// The identity digest a job of this server carries: none in cold mode
    /// (`cache_capacity: 0` hashes nothing anywhere), otherwise taken here
    /// — on the caller's thread and before any queue lock. Submitters
    /// digest in parallel while the worker is the one serial resource, a
    /// job that is shed or expires never costs the worker a pass, and the
    /// caller has just built, parsed or cloned the AIG, so its node array
    /// is in that core's cache. Recorded into
    /// `stage_signature_hash_micros`, outside the admission span.
    fn identity_of(&self, aig: &Aig) -> Option<u128> {
        self.shared.cache.as_ref()?;
        let timer = StageTimer::start();
        let identity = identity_fingerprint(aig);
        timer.observe(&self.shared.metrics.stage_hash);
        Some(identity)
    }

    /// Builds a job and its ticket on the caller's thread: digests the
    /// AIG, opens the answer channel and stamps `submitted`. `burst` is
    /// the bulk id, `0` for a single submit.
    fn job(
        &self,
        aig: Aig,
        kind: AnalysisKind,
        deadline: Option<Instant>,
        burst: u64,
    ) -> (Job, JobTicket) {
        let identity = self.identity_of(&aig);
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        let job = Job {
            aig,
            kind,
            identity,
            deadline,
            submitted,
            admitted: submitted,
            burst,
            tx,
        };
        (job, JobTicket { rx })
    }

    /// The one admission loop behind every submit entry: admits a
    /// burst built by [`Server::job`] in order under one queue lock, then
    /// wakes the workers. `block` waits for queue space instead of
    /// shedding [`SubmitError::Overloaded`], but never past a job's
    /// deadline. Each job's admission span starts where the previous one
    /// ended (the first at the burst's last `submitted` stamp), so the loop
    /// reads the clock once per job. A burst refused part-way — shutdown
    /// between waves — retracts the jobs it queued (their receivers die
    /// with the error) and counts them as dropped; a call that admitted
    /// nothing retracts nothing, so single submits (all burst `0`) never do.
    fn enqueue<B>(&self, burst: B, block: bool) -> Result<(), SubmitError>
    where
        B: AsRef<[Job]> + IntoIterator<Item = Job>,
    {
        let shared = &*self.shared;
        let m = &shared.metrics;
        let Some(last) = burst.as_ref().last() else {
            return Ok(());
        };
        let id = last.burst;
        let mut since = last.submitted;
        let shed = |since: Instant| {
            m.rejected_overload.inc();
            m.stage_time_to_rejection
                .record(since.elapsed().as_micros() as u64);
            SubmitError::Overloaded
        };
        // Chaos seam: an injected admission fault sheds the whole burst at
        // the door, before the queue lock (so a `panic` action can never
        // poison the queue mutex).
        if gamora_fault::armed() && admission_fault_fires() {
            shared.note_incident();
            return Err(shed(since));
        }
        let mut admitted = 0usize;
        let mut queue = shared.queue.lock().expect("queue poisoned");
        for mut job in burst {
            let refused = loop {
                if queue.shutdown {
                    break Some(SubmitError::ShuttingDown);
                }
                if shared.queue_capacity == 0 || queue.jobs.len() < shared.queue_capacity {
                    break None;
                }
                if !block {
                    break Some(shed(since));
                }
                if admitted > 0 {
                    // Wake the workers on this burst's queued jobs, then
                    // wait for them to free space.
                    shared.available.notify_all();
                }
                // A blocking submit with a deadline never waits past it:
                // once the ttl elapses with the queue still full, the job
                // is shed at the door — admitting it would only buy a
                // guaranteed `DeadlineExpired` after occupying a slot.
                queue = match job.deadline {
                    Some(d) => {
                        let Some(left) = d.checked_duration_since(Instant::now()) else {
                            break Some(shed(since));
                        };
                        shared
                            .space
                            .wait_timeout(queue, left)
                            .expect("queue poisoned")
                            .0
                    }
                    None => shared.space.wait(queue).expect("queue poisoned"),
                };
            };
            if let Some(refusal) = refused {
                if admitted > 0 {
                    let before = queue.jobs.len();
                    queue.jobs.retain(|j| j.burst != id);
                    m.jobs_dropped.add((before - queue.jobs.len()) as u64);
                }
                return Err(refusal);
            }
            job.admitted = Instant::now();
            m.stage_admission
                .record(job.admitted.saturating_duration_since(since).as_micros() as u64);
            since = job.admitted;
            queue.jobs.push_back(job);
            admitted += 1;
            m.jobs_submitted.inc();
            m.queue_depth.record(queue.jobs.len() as u64);
            m.peak_queued.set_max(queue.jobs.len() as u64);
        }
        drop(queue);
        if admitted == 1 {
            shared.available.notify_one();
        } else {
            shared.available.notify_all();
        }
        Ok(())
    }

    /// Current counter values, read from the same metric registrations
    /// [`Server::metrics`] snapshots — the two views can never diverge.
    pub fn stats(&self) -> ServeStats {
        let m = &self.shared.metrics;
        ServeStats {
            jobs_submitted: m.jobs_submitted.get(),
            jobs: m.jobs.get(),
            batches: m.batches.get(),
            forward_passes: m.forward_passes.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            jobs_dropped: m.jobs_dropped.get(),
            jobs_expired: m.jobs_expired.get(),
            jobs_failed: m.jobs_failed.get(),
            rejected_overload: m.rejected_overload.get(),
            workers_respawned: m.workers_respawned.get(),
            quarantines: m.quarantines.get(),
            peak_queued: m.peak_queued.get(),
            health: self.health(),
        }
    }

    /// Current health, derived from the failure state:
    ///
    /// * [`Health::ShuttingDown`] once [`Server::begin_shutdown`] ran;
    /// * [`Health::Degraded`] while any fingerprint is quarantined, or
    ///   within [`INCIDENT_WINDOW`] of the last incident (overload shed,
    ///   batch panic, worker restart, failed job);
    /// * [`Health::Healthy`] otherwise.
    ///
    /// Each read refreshes the `serve_health` gauge (0/1/2), so metric
    /// snapshots report it too.
    pub fn health(&self) -> Health {
        let h = self.compute_health();
        self.shared.metrics.health.set(h as u64);
        h
    }

    fn compute_health(&self) -> Health {
        if self.shared.queue.lock().expect("queue poisoned").shutdown {
            return Health::ShuttingDown;
        }
        self.failure_health()
    }

    /// The health the failure state alone implies: `Degraded` under an
    /// active quarantine or within [`INCIDENT_WINDOW`] of an incident,
    /// `Healthy` otherwise.
    fn failure_health(&self) -> Health {
        if self.shared.quarantine_active.load(Ordering::Relaxed) > 0 {
            // Expired quarantines must lapse back to Healthy without
            // waiting for a batch to purge them.
            let mut map = self.shared.quarantine.lock().expect("quarantine poisoned");
            self.shared.purge_quarantine(&mut map, Instant::now());
            if self.shared.quarantine_active.load(Ordering::Relaxed) > 0 {
                return Health::Degraded;
            }
        }
        if self.shared.recent_incident() {
            return Health::Degraded;
        }
        Health::Healthy
    }

    /// A point-in-time snapshot of every serve metric: the counters behind
    /// [`Server::stats`], the per-stage latency histograms, the cache tier
    /// metrics, and (when [`ServeConfig::layer_timing`] is on) per-layer
    /// forward timings.
    pub fn metrics(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }

    /// Begins a graceful shutdown without blocking: new submissions fail
    /// fast with [`SubmitError::ShuttingDown`], workers drain what is
    /// already queued and then exit. Call [`Server::shutdown`] (or drop
    /// the server) to join them.
    pub fn begin_shutdown(&self) {
        self.shared.queue.lock().expect("queue poisoned").shutdown = true;
        self.shared.available.notify_all();
        // Submitters blocked on capacity must wake to observe the flag.
        self.shared.space.notify_all();
    }

    /// Drains outstanding work and stops the workers. The returned
    /// report's `health` is what the drained server's failure state
    /// implies (`Healthy` or `Degraded`), never `ShuttingDown`.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_workers();
        ServeStats {
            health: self.failure_health(),
            ..self.stats()
        }
    }

    fn stop_workers(&mut self) {
        self.begin_shutdown();
        // Workers drain the queue, then exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Defensive: should anything still sit in the queue once every
        // worker is gone (possible only if a worker died outside a batch,
        // on a poisoned lock), account for it and drop it so waiting
        // clients observe `ServeError::JobDropped` instead of blocking
        // forever.
        if let Ok(mut queue) = self.shared.queue.lock() {
            let leftover = queue.jobs.len() as u64;
            if leftover > 0 {
                self.shared.metrics.jobs_dropped.add(leftover);
            }
            queue.jobs.clear();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Safety margin around the linger-window end when deciding whether a
/// queued job's deadline falls inside it: deadlines within the window
/// plus this slack end the linger immediately (covering condvar timer
/// overshoot and the batch-claim latency), so a job whose ttl is shorter
/// than the linger window is served instead of spuriously expiring on an
/// idle server.
const LINGER_DEADLINE_SLACK: Duration = Duration::from_millis(10);

/// Whether a lingering worker could still gain batch companions: the
/// batch is short, the server is live, and — for a bounded queue — there
/// is admission room left for a companion to arrive through.
fn batch_can_grow(queue: &QueueState, shared: &Shared) -> bool {
    queue.jobs.len() < shared.max_batch
        && !queue.shutdown
        && (shared.queue_capacity == 0 || queue.jobs.len() < shared.queue_capacity)
}

/// Per-worker reusable state: every buffer a miss batch needs, preallocated
/// and recycled so the steady state never allocates. It is all a worker
/// owns, so replacing it after a batch panic restarts the worker.
#[derive(Default)]
struct WorkerState {
    scratch: InferenceScratch,
    batch_ws: BatchScratch,
    outs: Vec<Predictions>,
    /// Cut arena, candidate index and pairing memory of `ExtractAdders`
    /// jobs.
    post: PostProcess,
    /// Fingerprints of the batch currently being executed, recorded right
    /// after hashing so the post-panic handler can attribute strikes to
    /// the submissions of the batch that panicked. Empty in
    /// cold mode (no hashing → no fingerprints → no quarantine).
    batch_fps: Vec<u64>,
}

fn worker_loop(shared: &Shared, model: &GamoraReasoner) {
    let mut state = WorkerState::default();
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if !queue.jobs.is_empty() {
                    break;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue poisoned");
            }
            // Linger: a short batch waits briefly for companions so low
            // arrival rates still amortise the forward pass. The wait
            // releases the lock, so submitters keep filling the queue;
            // shutdown, a full batch, or a *full bounded queue* (no
            // companion can be admitted until we drain — waiting would be
            // pure dead time) ends the window early. A queued job whose
            // deadline falls inside the remaining window also ends it
            // immediately: sleeping toward a deadline risks expiring a
            // job (timer overshoot alone can eat a tight ttl), and the
            // conservative exit only costs a batching opportunity.
            if batch_can_grow(&queue, shared) && !shared.linger.is_zero() {
                let linger_timer = StageTimer::start();
                let linger_until = Instant::now() + shared.linger;
                while batch_can_grow(&queue, shared) {
                    if queue
                        .jobs
                        .iter()
                        .filter_map(|j| j.deadline)
                        .min()
                        .is_some_and(|d| d <= linger_until + LINGER_DEADLINE_SLACK)
                    {
                        break;
                    }
                    let Some(left) = linger_until.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    if left.is_zero() {
                        break;
                    }
                    let (guard, _timeout) = shared
                        .available
                        .wait_timeout(queue, left)
                        .expect("queue poisoned");
                    queue = guard;
                }
                // Recorded only when a window was actually entered, so the
                // distribution measures real batching dead time, not the
                // zero-cost full-batch fast path.
                linger_timer.observe(&shared.metrics.stage_linger);
            }
            let take = shared.max_batch.min(queue.jobs.len());
            queue.jobs.drain(..take).collect::<Vec<Job>>()
        };
        // Claimed jobs freed queue space: wake blocked submitters.
        shared.space.notify_all();
        // A panicking batch (a pathological submission or an injected
        // fault) must not strand the jobs behind it: the unwinding batch
        // drops its senders — those clients observe
        // [`ServeError::JobDropped`] — and the panic is accounted here.
        // The worker then restarts in place: a fresh `WorkerState`, the
        // same `Arc`'d model, so no scratch the panic may have
        // half-written is reused. `accounted` tracks how many of the
        // batch's jobs were finalised (answered, failed or
        // deadline-rejected) before the panic, so the dropped-job counter
        // stays exact even for partial batches; the batch's fingerprints
        // collect strikes so a submission that panics batches repeatedly
        // is quarantined instead of restart-looping the worker.
        let batch_len = batch.len() as u64;
        let accounted = Cell::new(0u64);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_batch(shared, model, &mut state, batch, &accounted);
        }));
        if outcome.is_err() {
            shared.metrics.jobs_dropped.add(batch_len - accounted.get());
            shared.strike_fingerprints(&state.batch_fps);
            state = WorkerState::default();
            shared.metrics.workers_respawned.inc();
            shared.note_incident();
            eprintln!(
                "gamora-serve: batch panicked; its unanswered jobs were dropped \
                 and the worker restarted"
            );
        }
    }
}

/// Evaluates the admission fail point (armed chaos runs only — the
/// admission loop gates on [`gamora_fault::armed`]): any injection, an
/// `err` or a contained `panic`, sheds the submission as `Overloaded`.
/// The panic is caught *here*, before any queue lock is taken, so an
/// injected admission panic can neither poison the queue mutex nor
/// unwind into the client's thread.
fn admission_fault_fires() -> bool {
    catch_unwind(|| gamora_fault::hit(FaultPoint::Admission)).map_or(true, |r| r.is_err())
}

/// What phase 1 of [`run_batch`] knows about one live job of a hashing
/// server.
enum Lookup {
    /// The identity index holds exactly this numbering: the slot's
    /// structural key (never recomputed — its fingerprint is what the
    /// quarantine gate and strike attribution use) and the entry to clone
    /// from.
    Verbatim(CacheKey, Arc<CacheEntry>),
    /// Not cached under this numbering: the full signature, for the
    /// structural-key probe, transfer, duplicate coalescing and insert.
    Hashed(GraphSignature),
}

impl Lookup {
    fn fingerprint(&self) -> u64 {
        match self {
            Lookup::Verbatim(key, _) => key.fingerprint,
            Lookup::Hashed(sig) => sig.key.fingerprint,
        }
    }

    /// The signature of a job that goes to the model: identity hits are
    /// served in phase 1 and never get there.
    fn signature(&self) -> &GraphSignature {
        match self {
            Lookup::Hashed(sig) => sig,
            Lookup::Verbatim(..) => unreachable!("an identity hit is never a miss"),
        }
    }
}

fn run_batch(
    shared: &Shared,
    model: &GamoraReasoner,
    state: &mut WorkerState,
    batch: Vec<Job>,
    accounted: &Cell<u64>,
) {
    // Strikes from a panic are attributed to the batch that was live
    // when the worker died; fingerprints from the previous batch must
    // never leak into that attribution.
    state.batch_fps.clear();
    // Phase 0: deadline admission — expired jobs are rejected before any
    // hashing or model work is spent on them. Queue wait (submission →
    // batch claim) is recorded per live job; expired jobs record their
    // whole submission → shed span as time-to-rejection instead.
    let m = &shared.metrics;
    let now = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        if job.deadline.is_some_and(|d| now > d) {
            m.jobs_expired.inc();
            m.stage_time_to_rejection
                .record(now.saturating_duration_since(job.submitted).as_micros() as u64);
            accounted.set(accounted.get() + 1);
            let _ = job.tx.send(Err(ServeError::DeadlineExpired));
        } else {
            m.stage_queue_wait
                .record(now.saturating_duration_since(job.admitted).as_micros() as u64);
            live.push(job);
        }
    }
    let mut batch = live;
    if batch.is_empty() {
        return;
    }

    // Signature-hash fail point. Hashing is load-bearing when enabled —
    // cache keys and quarantine fingerprints both derive from it — so an
    // injected `err` fails the whole batch, before any probe, rather than
    // guessing at identities; `panic` unwinds to the worker handler like
    // any batch panic. Cold mode never hashes, so the point is not checked
    // there.
    let hashing = shared.cache.is_some();
    if hashing && gamora_fault::hit(FaultPoint::SignatureHash).is_err() {
        return fail_batch(shared, batch, accounted);
    }

    // Cache-resolve fail point: an injected `err` skips both probes — every
    // job is treated as a miss (results are still inserted afterwards), so
    // the failure degrades throughput, never correctness. It is checked
    // before the identity probe, i.e. before any fingerprint of this batch
    // is known: a `panic` here strikes nothing, like one at the hash point.
    let usable_cache = shared
        .cache
        .as_ref()
        .filter(|_| gamora_fault::hit(FaultPoint::CacheResolve).is_ok());

    // Phase 1: resolve from the cache, cheapest evidence first. Every job
    // carries the identity digest its submitter took, so the identity
    // index is probed before anything is hashed here: a verbatim repeat is
    // recognised without the worker touching the AIG's nodes at all, and
    // its structural fingerprint (quarantine gate, strike attribution)
    // comes from the slot's own key. Only jobs that miss it pay the
    // canonical per-node pass and go on to the structural key (a renumbered
    // isomorph's way in), transfer, and phase 2. Both locks cover only O(1)
    // probes; the O(nodes) verbatim clone / transfer re-indexing runs on
    // `Arc`'d entries *outside* them, so a big transfer never stalls the
    // other workers' probes. With hashing disabled nothing is looked up and
    // nothing hashed — cold mode measures pure model throughput.
    let mut lookups: Vec<Lookup> = if hashing {
        let verbatim: Vec<Option<(CacheKey, Arc<CacheEntry>)>> = match usable_cache {
            Some(cache) => {
                let mut cache = cache.lock().expect("cache poisoned");
                batch
                    .iter()
                    .map(|j| m.timed_probe(|| cache.probe_identity(j.digest(), j.aig.num_nodes())))
                    .collect()
            }
            None => vec![None; batch.len()],
        };
        let hash_timer = StageTimer::start();
        let mut hashed_here = false;
        let lookups: Vec<Lookup> = batch
            .iter()
            .zip(verbatim)
            .map(|(j, hit)| match hit {
                Some((key, entry)) => Lookup::Verbatim(key, entry),
                None => {
                    hashed_here = true;
                    Lookup::Hashed(GraphSignature::with_identity(&j.aig, j.digest()))
                }
            })
            .collect();
        if hashed_here {
            hash_timer.observe(&m.stage_hash);
        }
        lookups
    } else {
        Vec::new()
    };
    state
        .batch_fps
        .extend(lookups.iter().map(Lookup::fingerprint));

    // Quarantine gate: submissions whose fingerprint is under an active
    // quarantine (they killed workers twice) are answered
    // `AnalysisFailed` without touching the model again — cached or not:
    // an identity hit is gated on its slot key's fingerprint before its
    // predictions are cloned. The atomic gate keeps this a single relaxed
    // load while nothing is quarantined.
    if hashing && shared.quarantine_active.load(Ordering::Relaxed) > 0 {
        let blocked: Vec<bool> = {
            let mut map = shared.quarantine.lock().expect("quarantine poisoned");
            shared.purge_quarantine(&mut map, Instant::now());
            lookups
                .iter()
                .map(|l| map.get(&l.fingerprint()).is_some_and(|e| e.until.is_some()))
                .collect()
        };
        if blocked.iter().any(|&b| b) {
            let mut kept_jobs = Vec::with_capacity(batch.len());
            let mut kept_lookups = Vec::with_capacity(lookups.len());
            for ((job, lookup), &b) in batch.into_iter().zip(lookups).zip(&blocked) {
                if b {
                    fail_job(shared, job, accounted);
                } else {
                    kept_jobs.push(job);
                    kept_lookups.push(lookup);
                }
            }
            batch = kept_jobs;
            lookups = kept_lookups;
            // Strike attribution must track the jobs still live.
            state.batch_fps.clear();
            state
                .batch_fps
                .extend(lookups.iter().map(Lookup::fingerprint));
            if batch.is_empty() {
                return;
            }
        }
    }
    m.batches.inc();
    m.batch_size.record(batch.len() as u64);

    // Tier accounting: one probe sample per probe of either index, a probe
    // miss only when the structural key misses too, and an identity hit
    // counted and timed as a verbatim resolve. Every transfer is handed
    // back to the cache as a remembered numbering of its slot (built here,
    // outside the lock; linked under one lock per batch that transferred),
    // so the same twin's next submission is an identity hit.
    let mut served: Vec<Option<Predictions>> = if hashing {
        let probes: Vec<Option<Arc<CacheEntry>>> = match usable_cache {
            Some(cache) if lookups.iter().any(|l| matches!(l, Lookup::Hashed(_))) => {
                let mut cache = cache.lock().expect("cache poisoned");
                lookups
                    .iter()
                    .map(|l| match l {
                        Lookup::Hashed(sig) => {
                            let entry = m.timed_probe(|| cache.probe(&sig.key));
                            if entry.is_none() {
                                m.cache_probe_misses_total.inc();
                            }
                            entry
                        }
                        Lookup::Verbatim(..) => None,
                    })
                    .collect()
            }
            _ => vec![None; batch.len()],
        };
        let mut transfers: Vec<(CacheKey, Arc<CacheEntry>, Arc<CacheEntry>)> = Vec::new();
        let served = lookups
            .iter()
            .zip(probes)
            .map(|(lookup, probed)| match lookup {
                Lookup::Verbatim(_, entry) => m
                    .timed_resolve(|| Some((entry.verbatim(), HitKind::Verbatim)))
                    .map(|(predictions, _)| predictions),
                Lookup::Hashed(sig) => {
                    let from = probed?;
                    let (predictions, kind) = m.timed_resolve(|| from.resolve(sig))?;
                    if kind == HitKind::Transferred {
                        let twin = CacheEntry::verbatim_only(sig.identity, predictions.clone());
                        transfers.push((sig.key, from, Arc::new(twin)));
                    }
                    Some(predictions)
                }
            })
            .collect();
        if let Some(cache) = usable_cache.filter(|_| !transfers.is_empty()) {
            let mut cache = cache.lock().expect("cache poisoned");
            for (key, from, twin) in transfers {
                cache.remember_transfer(key, &from, twin);
            }
        }
        served
    } else {
        vec![None; batch.len()]
    };

    // Phase 2: one coalesced forward pass over the misses. Duplicate
    // submissions inside the batch (the common hammering pattern) share a
    // single forward slot, so they are answered without extra model work
    // and report as structural-hash hits just like phase-1 resolutions.
    let mut hit_flags: Vec<bool> = served.iter().map(Option::is_some).collect();
    let miss_idx: Vec<usize> = (0..batch.len()).filter(|&i| !hit_flags[i]).collect();
    if !miss_idx.is_empty() {
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(miss_idx.len());
        if hashing {
            let mut seen: FxHashMap<(u64, u128), usize> = FxHashMap::default();
            for &i in &miss_idx {
                let sig = lookups[i].signature();
                let key = (sig.key.fingerprint, sig.identity);
                match seen.get(&key) {
                    Some(&slot) => {
                        slot_of.push(slot);
                        hit_flags[i] = true; // coalesced duplicate
                    }
                    None => {
                        seen.insert(key, unique.len());
                        slot_of.push(unique.len());
                        unique.push(i);
                    }
                }
            }
        } else {
            // Cold mode: no signatures, no coalescing — one slot per job.
            for &i in &miss_idx {
                slot_of.push(unique.len());
                unique.push(i);
            }
        }
        // Model-call fail point, checked before assembly. An injected
        // `err` fails the whole batch (none of it has been answered yet:
        // phase-1 hits fan out in phase 3) and keeps the worker; a `panic`
        // unwinds to the worker-loop handler like any batch panic.
        if gamora_fault::hit(FaultPoint::GnnForward).is_err() {
            return fail_batch(shared, batch, accounted);
        }
        let timings = {
            let aigs: Vec<&Aig> = unique.iter().map(|&i| &batch[i].aig).collect();
            let WorkerState {
                scratch,
                batch_ws,
                outs,
                ..
            } = &mut *state;
            model.predict_batch_into_timed(batch_ws, scratch, &aigs, outs, m.forward_observer())
        };
        m.stage_assemble.record(timings.assemble_micros);
        m.stage_forward.record(timings.forward_micros);
        m.stage_split.record(timings.split_micros);
        m.forward_passes.inc();
        if let Some(cache) = &shared.cache {
            // Build the O(nodes) hash indexes outside the lock; only the
            // O(1) LRU insertion happens under it.
            let entries: Vec<Arc<CacheEntry>> = unique
                .iter()
                .zip(state.outs.iter())
                .map(|(&i, preds)| Arc::new(CacheEntry::new(lookups[i].signature(), preds.clone())))
                .collect();
            let mut cache = cache.lock().expect("cache poisoned");
            for (&i, entry) in unique.iter().zip(entries) {
                cache.insert_entry(lookups[i].signature().key, entry);
            }
        }
        for (pos, &i) in miss_idx.iter().enumerate() {
            served[i] = Some(state.outs[slot_of[pos]].clone());
        }
    }

    // Phase 3: per-job post-processing and fan-out. Counters reflect
    // completions only and are bumped per job at the moment its answer is
    // sent, so a panic mid-batch can never leave `jobs`/`cache_*` claiming
    // work that was actually dropped.
    for ((job, slot), cache_hit) in batch.into_iter().zip(served).zip(hit_flags) {
        let predictions = slot.expect("every job resolved");
        let adders = match job.kind {
            AnalysisKind::Classify => None,
            AnalysisKind::ExtractAdders => {
                let timer = StageTimer::start();
                let adders = state.post.run(&job.aig, &predictions);
                timer.observe(&m.stage_postprocess);
                Some(adders)
            }
            #[cfg(test)]
            AnalysisKind::PanicForTest => panic!("deliberate test panic in post-processing"),
            #[cfg(test)]
            AnalysisKind::SleepForTest => {
                std::thread::sleep(Duration::from_millis(300));
                None
            }
        };
        let latency_micros = job.submitted.elapsed().as_micros() as u64;
        let out = JobOutput {
            predictions,
            adders,
            cache_hit,
            latency_micros,
        };
        m.latency_e2e.record(latency_micros);
        m.jobs.inc();
        if cache_hit {
            m.cache_hits.inc();
        } else {
            m.cache_misses.inc();
        }
        accounted.set(accounted.get() + 1);
        // Free the subject before answering: a client that builds its next
        // subject on the answer would otherwise find this one still alive
        // (on a 717k-node subject, an 18 MiB step in the heap peak).
        drop(job.aig);
        let _ = job.tx.send(Ok(out));
    }
}

/// Fails every job of a batch on an injected stage error. The incident
/// is stamped before the errors fan out: a client that checks health the
/// instant its job fails must already see Degraded.
fn fail_batch(shared: &Shared, batch: Vec<Job>, accounted: &Cell<u64>) {
    shared.note_incident();
    for job in batch {
        fail_job(shared, job, accounted);
    }
}

/// Terminal failure path for one job: bumps `jobs_failed`, records the
/// submission → shed span, accounts the job (so the post-panic drop
/// arithmetic stays exact) and answers [`ServeError::AnalysisFailed`].
/// Callers decide whether the failure is an incident worth degrading
/// health over ([`Shared::note_incident`]).
fn fail_job(shared: &Shared, job: Job, accounted: &Cell<u64>) {
    let m = &shared.metrics;
    m.jobs_failed.inc();
    m.stage_time_to_rejection
        .record(job.submitted.elapsed().as_micros() as u64);
    accounted.set(accounted.get() + 1);
    let _ = job.tx.send(Err(ServeError::AnalysisFailed));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora::{ModelDepth, ReasonerConfig, TrainConfig};
    use gamora_circuits::csa_multiplier;

    fn tiny_trained() -> GamoraReasoner {
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
        reasoner
    }

    #[test]
    fn served_predictions_match_in_process() {
        let reasoner = tiny_trained();
        let subject = csa_multiplier(4);
        let expected = reasoner.predict(&subject.aig);

        let server = Server::start(reasoner, ServeConfig::default());
        let out = server
            .submit(subject.aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("job answered");
        assert!(!out.cache_hit);
        assert_eq!(out.predictions.root_leaf, expected.root_leaf);
        assert_eq!(out.predictions.is_xor, expected.is_xor);
        assert_eq!(out.predictions.is_maj, expected.is_maj);
        assert!(out.adders.is_none());
    }

    #[test]
    fn repeat_submission_is_a_cache_hit_with_no_extra_forward() {
        let server = Server::start(tiny_trained(), ServeConfig::default());
        let subject = csa_multiplier(4);
        let first = server
            .submit(subject.aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("job answered");
        assert!(!first.cache_hit);
        let passes_after_first = server.stats().forward_passes;
        assert_eq!(passes_after_first, 1);

        let second = server
            .submit(subject.aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("job answered");
        assert!(
            second.cache_hit,
            "repeat submission must be served from cache"
        );
        assert_eq!(second.predictions.root_leaf, first.predictions.root_leaf);
        let stats = server.shutdown();
        assert_eq!(
            stats.forward_passes, passes_after_first,
            "cache hit must not run the model"
        );
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.jobs_submitted, 2);
        assert_eq!(stats.jobs_dropped, 0);
    }

    #[test]
    fn extraction_jobs_return_postprocessed_adders() {
        let server = Server::start(tiny_trained(), ServeConfig::default());
        let subject = csa_multiplier(4);
        let out = server
            .submit(subject.aig.clone(), AnalysisKind::ExtractAdders)
            .expect("admitted")
            .wait()
            .expect("job answered");
        let adders = out.adders.expect("extraction requested");
        assert!(!adders.is_empty(), "a 4-bit CSA multiplier contains adders");
    }

    /// 4,000 unstrashed copies of one half adder — 16 KB of ASCII AIGER —
    /// put 12,000 carry candidates on a single leaf set. Pairing them used
    /// to be cubic and held the worker for minutes; the job must resolve,
    /// with one adder per copy, and show up in the post-process stage.
    #[test]
    fn extraction_job_with_thousands_of_candidates_on_one_leaf_set_resolves() {
        let copies = 4_000u32;
        let mut text = format!("aag {0} 2 0 {1} {1}\n2\n4\n", 2 + 4 * copies, 4 * copies);
        for gate in 0..4 * copies {
            text += &format!("{}\n", 2 * (3 + gate));
        }
        for copy in 0..copies {
            let g = 2 * (3 + 4 * copy);
            text += &format!("{g} 2 5\n{} 3 4\n", g + 2);
            text += &format!("{} {} {}\n{} 2 4\n", g + 4, g + 1, g + 3, g + 6);
        }
        let aig = gamora_aig::aiger::read(text.as_bytes()).expect("well-formed AIGER");
        let server = Server::start(tiny_trained(), ServeConfig::default());
        let out = server
            .submit(aig, AnalysisKind::ExtractAdders)
            .expect("admitted")
            .wait_timeout(Duration::from_secs(5))
            .expect("answered within the budget");
        assert_eq!(out.adders.expect("extraction requested").len(), 4_000);
        let snapshot = server.metrics();
        let stage = snapshot
            .histogram("stage_postprocess_micros")
            .expect("registered");
        assert_eq!(stage.count(), 1, "one ExtractAdders job");
        server.shutdown();
    }

    #[test]
    fn distinct_graphs_coalesce_into_one_batch() {
        // One worker + a pre-filled queue: all jobs land in one batch and
        // therefore one forward pass.
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 16,
                workers: 1,
                cache_capacity: 16,
                ..ServeConfig::default()
            },
        );
        let jobs: Vec<(gamora_aig::Aig, AnalysisKind)> = (2..6usize)
            .map(|b| (csa_multiplier(b).aig, AnalysisKind::Classify))
            .collect();
        let outs = server.submit_all(jobs).expect("all jobs answered");
        assert_eq!(outs.len(), 4);
        let stats = server.shutdown();
        assert_eq!(stats.jobs, 4);
        assert_eq!(
            stats.forward_passes, 1,
            "an atomic burst under one idle worker coalesces into one pass"
        );
    }

    #[test]
    fn duplicate_submissions_in_one_burst_share_a_forward_slot() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 8,
                workers: 1,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        let aig = csa_multiplier(3).aig;
        let outs = server
            .submit_all(vec![
                (aig.clone(), AnalysisKind::Classify),
                (aig.clone(), AnalysisKind::Classify),
                (aig.clone(), AnalysisKind::Classify),
            ])
            .expect("all jobs answered");
        assert_eq!(outs[0].predictions.root_leaf, outs[1].predictions.root_leaf);
        assert!(!outs[0].cache_hit);
        assert!(outs[1].cache_hit && outs[2].cache_hit);
        let stats = server.shutdown();
        assert_eq!(stats.forward_passes, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.jobs, stats.cache_hits + stats.cache_misses);
    }

    #[test]
    fn zero_cache_capacity_disables_all_structural_reuse() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 1,
                workers: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let aig = csa_multiplier(3).aig;
        let a = server
            .submit(aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("job answered");
        let b = server
            .submit(aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("job answered");
        assert!(!a.cache_hit && !b.cache_hit);
        // Cold mode hashes nothing anywhere: no digest at submit, no
        // structural pass and no probe in the worker.
        assert_eq!(server.identity_of(&aig), None);
        let snap = server.metrics();
        for untouched in ["stage_signature_hash_micros", "cache_probe_micros"] {
            assert_eq!(
                snap.histogram(untouched).expect(untouched).count(),
                0,
                "{untouched}"
            );
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.forward_passes, 2,
            "cold mode must run the model per job"
        );
        assert_eq!(stats.cache_hits, 0);
    }

    /// The digest a job carries from `submit` is the one
    /// `GraphSignature::of` reports, so a worker probing the identity
    /// index and an eager caller keying on the signature agree.
    #[test]
    fn submit_carries_the_digest_graph_signature_reports() {
        let server = Server::start(tiny_trained(), ServeConfig::default());
        let aig = csa_multiplier(4).aig;
        let sig = GraphSignature::of(&aig);
        assert_eq!(server.identity_of(&aig), Some(sig.identity));
        let snap = server.metrics();
        assert_eq!(
            snap.histogram("stage_signature_hash_micros")
                .expect("registered")
                .count(),
            1,
            "the digest above is a hash sample"
        );
        server.shutdown();
    }

    /// Strike attribution sees cached repeats: a job answered by the
    /// identity index was never hashed structurally, so when its batch
    /// panics (here in post-processing) the strike lands on the
    /// fingerprint read from the cache slot's key — and two such batches
    /// quarantine it, after which even the cached, identical graph is
    /// refused.
    #[test]
    fn panic_on_a_verbatim_hit_strikes_the_slot_keys_fingerprint() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 1,
                workers: 1,
                cache_capacity: 8,
                linger_micros: 0,
                ..ServeConfig::default()
            },
        );
        let aig = csa_multiplier(4).aig;
        let serve = |kind| server.submit(aig.clone(), kind).expect("admitted").wait();
        assert!(!serve(AnalysisKind::Classify).expect("served").cache_hit);
        let structural_passes = |server: &Server| {
            let snap = server.metrics();
            let all = snap
                .histogram("stage_signature_hash_micros")
                .expect("registered")
                .count();
            all - server.stats().jobs_submitted // minus one digest per submit
        };
        assert_eq!(structural_passes(&server), 1, "the cold miss");
        for strike in 0..2 {
            assert_eq!(
                serve(AnalysisKind::PanicForTest).unwrap_err(),
                ServeError::JobDropped,
                "strike {strike}"
            );
        }
        assert_eq!(
            structural_passes(&server),
            1,
            "the panicking repeats were identity hits: nothing hashed them"
        );
        assert_eq!(
            serve(AnalysisKind::Classify).unwrap_err(),
            ServeError::AnalysisFailed,
            "two strikes on the slot key's fingerprint quarantine the graph"
        );
        let stats = server.shutdown();
        assert_eq!(stats.quarantines, 1);
        assert_eq!(stats.workers_respawned, 2);
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(
            stats.jobs_submitted,
            stats.jobs + stats.jobs_dropped + stats.jobs_expired + stats.jobs_failed
        );
    }

    /// Determinism under concurrency: N workers sharing one `Arc`'d model
    /// (cache off, so every job really runs a forward pass) produce
    /// predictions bit-identical to single-threaded `predict` calls over
    /// the same submission set.
    #[test]
    fn shared_model_concurrent_workers_match_single_threaded() {
        let reasoner = Arc::new(tiny_trained());
        let subjects: Vec<gamora_aig::Aig> = (2..6usize).map(|b| csa_multiplier(b).aig).collect();
        let expected: Vec<Predictions> = subjects.iter().map(|a| reasoner.predict(a)).collect();

        let server = Server::start_shared(
            Arc::clone(&reasoner),
            ServeConfig {
                max_batch: 2,
                workers: 4,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let jobs: Vec<(gamora_aig::Aig, AnalysisKind)> = (0..16usize)
            .map(|i| (subjects[i % subjects.len()].clone(), AnalysisKind::Classify))
            .collect();
        let outs = server.submit_all(jobs).expect("all jobs answered");
        for (i, out) in outs.iter().enumerate() {
            let exp = &expected[i % subjects.len()];
            assert_eq!(out.predictions.root_leaf, exp.root_leaf, "job {i}");
            assert_eq!(out.predictions.is_xor, exp.is_xor, "job {i}");
            assert_eq!(out.predictions.is_maj, exp.is_maj, "job {i}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.jobs, 16);
        // The original Arc is still usable — the server never cloned the
        // model, only the handle.
        assert_eq!(Arc::strong_count(&reasoner), 1);
    }

    /// A job the server drops (worker gone before answering) surfaces as
    /// a `ServeError` instead of panicking the client thread.
    #[test]
    fn dropped_job_is_an_error_not_a_panic() {
        let (tx, rx) = mpsc::channel::<Result<JobOutput, ServeError>>();
        drop(tx); // the serving side dies without answering
        let ticket = JobTicket { rx };
        assert_eq!(ticket.wait().unwrap_err(), ServeError::JobDropped);
    }

    #[test]
    fn wait_timeout_returns_instead_of_blocking_forever() {
        let (tx, rx) = mpsc::channel::<Result<JobOutput, ServeError>>();
        let ticket = JobTicket { rx };
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(10)).unwrap_err(),
            ServeError::WaitTimeout,
            "an unanswered ticket must time out, not hang"
        );
        drop(tx);
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(10)).unwrap_err(),
            ServeError::JobDropped
        );
    }

    #[test]
    fn worker_pool_answers_everything_under_contention() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 4,
                workers: 3,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        // 3 distinct graphs, resubmitted 4x each.
        let jobs: Vec<(gamora_aig::Aig, AnalysisKind)> = (0..12usize)
            .map(|i| (csa_multiplier(2 + i % 3).aig, AnalysisKind::Classify))
            .collect();
        let outs = server.submit_all(jobs).expect("all jobs answered");
        assert_eq!(outs.len(), 12);
        let stats = server.shutdown();
        assert_eq!(stats.jobs, 12);
        assert_eq!(stats.cache_hits + stats.cache_misses, 12);
        assert!(stats.cache_misses >= 3, "three distinct graphs");
    }

    /// Stats stay exact through a panicking batch: jobs answered before
    /// the panic count as completions, the rest as drops, and the
    /// accounting identity holds after shutdown.
    #[test]
    fn panicked_batch_accounts_every_job_exactly_once() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 8,
                workers: 1,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        let aig = csa_multiplier(3).aig;
        // One atomic burst: the first job completes, the second panics in
        // post-processing, the third (behind the panic) is dropped.
        let tickets = server
            .submit_batch(vec![
                (aig.clone(), AnalysisKind::Classify),
                (aig.clone(), AnalysisKind::PanicForTest),
                (aig.clone(), AnalysisKind::Classify),
            ])
            .expect("admitted");
        let results: Vec<Result<JobOutput, ServeError>> =
            tickets.into_iter().map(JobTicket::wait).collect();
        assert!(results[0].is_ok(), "job before the panic completes");
        assert_eq!(results[1].as_ref().unwrap_err(), &ServeError::JobDropped);
        assert_eq!(results[2].as_ref().unwrap_err(), &ServeError::JobDropped);

        // The worker caught the panic and restarted in place, so the
        // server keeps serving (and the cache, living in `Shared`, stays
        // warm across the restart).
        let after = server
            .submit(aig.clone(), AnalysisKind::Classify)
            .expect("server still accepts work")
            .wait()
            .expect("respawned worker serves");
        assert!(after.cache_hit, "cache still warm from the first job");

        let stats = server.shutdown();
        assert_eq!(stats.jobs_submitted, 4);
        assert_eq!(stats.jobs, 2, "completions only");
        assert_eq!(stats.jobs_dropped, 2, "panicked + following job");
        assert_eq!(stats.jobs_expired, 0);
        assert_eq!(stats.jobs_failed, 0, "nothing was failed terminally");
        assert!(
            stats.workers_respawned >= 1,
            "the panicking batch must have been healed by a respawn"
        );
        assert_eq!(
            stats.jobs_submitted,
            stats.jobs + stats.jobs_dropped + stats.jobs_expired + stats.jobs_failed,
            "every admitted job is accounted exactly once"
        );
        assert_eq!(
            stats.jobs,
            stats.cache_hits + stats.cache_misses,
            "completions partition into hits and misses"
        );
    }

    /// The report `shutdown` returns names the drained server's health,
    /// not the shutdown: `Healthy` after a clean run, `Degraded` within
    /// [`INCIDENT_WINDOW`] of an incident (the stamp a failed job leaves).
    #[test]
    fn shutdown_reports_the_drained_servers_health() {
        let clean = Server::start(tiny_trained(), ServeConfig::default());
        clean
            .submit(csa_multiplier(3).aig, AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("job answered");
        assert_eq!(clean.shutdown().health, Health::Healthy);

        let incident = Server::start(tiny_trained(), ServeConfig::default());
        incident.shared.note_incident();
        assert_eq!(incident.shutdown().health, Health::Degraded);
    }

    /// Regression: once shutdown has begun, submission fails fast instead
    /// of enqueueing into a queue no worker will ever drain. The flag is
    /// checked under the queue lock, so there is no window in which a
    /// submission can slip past the exiting workers.
    #[test]
    fn submit_after_shutdown_fails_fast() {
        let server = Server::start(tiny_trained(), ServeConfig::default());
        let aig = csa_multiplier(3).aig;
        // Pre-shutdown job: admitted and (being pre-drain) still answered.
        let ticket = server
            .submit(aig.clone(), AnalysisKind::Classify)
            .expect("admitted before shutdown");
        server.begin_shutdown();
        for admit in [
            Admit::Block,
            Admit::Shed,
            Admit::Within(Duration::from_secs(1)),
        ] {
            assert_eq!(
                server
                    .submit_with(aig.clone(), AnalysisKind::Classify, admit)
                    .unwrap_err(),
                SubmitError::ShuttingDown,
                "{admit:?}"
            );
        }
        assert!(
            server
                .submit_batch(vec![(aig, AnalysisKind::Classify)])
                .is_err(),
            "bulk submission must fail fast too"
        );
        // The admitted job is drained, not abandoned.
        ticket
            .wait()
            .expect("pre-shutdown job drained by the exiting workers");
        let stats = server.shutdown();
        assert_eq!(stats.jobs_submitted, 1);
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.jobs_dropped, 0);
    }

    /// The linger window turns a trickle into a batch: two submissions a
    /// few milliseconds apart are served by one forward pass.
    #[test]
    fn linger_coalesces_trickled_submissions() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 8,
                workers: 1,
                cache_capacity: 0, // distinct forward slots, no cache noise
                linger_micros: 500_000,
                ..ServeConfig::default()
            },
        );
        let t1 = server
            .submit(csa_multiplier(3).aig, AnalysisKind::Classify)
            .expect("admitted");
        std::thread::sleep(Duration::from_millis(30));
        let t2 = server
            .submit(csa_multiplier(4).aig, AnalysisKind::Classify)
            .expect("admitted");
        t1.wait().expect("answered");
        t2.wait().expect("answered");
        let stats = server.shutdown();
        assert_eq!(stats.jobs, 2);
        assert_eq!(
            stats.batches, 1,
            "the lingering worker must absorb the late arrival into its batch"
        );
        assert_eq!(stats.forward_passes, 1);
    }

    /// A *full bounded queue* also ends the linger window: with
    /// `queue_capacity < max_batch` no companion can be admitted until
    /// the worker drains, so waiting for one would be pure dead time.
    #[test]
    fn full_bounded_queue_does_not_linger() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 8,
                workers: 1,
                cache_capacity: 0,
                queue_capacity: 1,
                linger_micros: 10_000_000, // 10s: lingering would blow the time box
                ..ServeConfig::default()
            },
        );
        let start = Instant::now();
        for _ in 0..3 {
            server
                .submit(csa_multiplier(3).aig, AnalysisKind::Classify)
                .expect("admitted")
                .wait()
                .expect("answered");
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a worker holding the only admissible job must run it, not linger"
        );
        server.shutdown();
    }

    /// A bulk submission aborted by shutdown retracts its own still-queued
    /// jobs (their receivers die with the error) instead of letting the
    /// drain spend forward passes answering nobody; the accounting
    /// identity survives the abort.
    #[test]
    fn shutdown_mid_burst_retracts_unclaimed_jobs() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 1,
                workers: 1,
                cache_capacity: 0,
                queue_capacity: 1,
                linger_micros: 0,
                ..ServeConfig::default()
            },
        );
        // Through a 1-slot queue the burst can only advance one forward
        // pass at a time, so admitting all BURST jobs inside the sleep
        // would need a per-forward latency far below anything this
        // hardware can do even on cache hits — the interruption is
        // effectively guaranteed in debug *and* release.
        const BURST: usize = 1000;
        let subject = csa_multiplier(12).aig;
        std::thread::scope(|scope| {
            let server = &server;
            let aig = subject.clone();
            let submitter = scope.spawn(move || {
                server.submit_batch(
                    (0..BURST)
                        .map(|_| (aig.clone(), AnalysisKind::Classify))
                        .collect(),
                )
            });
            std::thread::sleep(Duration::from_millis(20));
            server.begin_shutdown();
            let result = submitter.join().expect("submitter thread");
            assert_eq!(
                result.map(|t| t.len()).unwrap_err(),
                SubmitError::ShuttingDown,
                "a {BURST}-job burst through a 1-slot queue cannot finish in 20ms"
            );
        });
        let stats = server.shutdown();
        assert!(
            stats.jobs_submitted < BURST as u64,
            "the burst was interrupted"
        );
        assert_eq!(
            stats.jobs_submitted,
            stats.jobs + stats.jobs_expired + stats.jobs_dropped,
            "retracted jobs are accounted as dropped, completions as jobs"
        );
    }

    /// Lingering never expires a job: the wake-up is clamped to the
    /// earliest queued deadline, so a ttl *shorter than the linger
    /// window* is still served on an otherwise idle server.
    #[test]
    fn linger_window_yields_to_a_queued_job_deadline() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 8,
                workers: 1,
                cache_capacity: 0,
                queue_capacity: 0,
                linger_micros: 500_000, // 0.5s linger vs a 0.2s ttl
                ..ServeConfig::default()
            },
        );
        let out = server
            .submit_with(
                csa_multiplier(3).aig,
                AnalysisKind::Classify,
                Admit::Within(Duration::from_millis(200)),
            )
            .expect("admitted")
            .wait()
            .expect("a lingering worker must claim the job before its deadline");
        assert!(!out.cache_hit);
        let stats = server.shutdown();
        assert_eq!(stats.jobs_expired, 0);
        assert_eq!(stats.jobs, 1);
    }

    /// An `Admit::Within` submit never waits past its own ttl on a full
    /// queue: it is shed at the door instead of being admitted into a
    /// guaranteed `DeadlineExpired`.
    #[test]
    fn within_submit_gives_up_at_its_deadline() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 1,
                workers: 1,
                cache_capacity: 0,
                queue_capacity: 1,
                linger_micros: 0,
                ..ServeConfig::default()
            },
        );
        let subject = csa_multiplier(3).aig;
        // Submit a deterministically slow job and wait until the worker
        // has *just started* its batch (the `batches` counter bumps at
        // run_batch entry): from that instant the next queue-slot release
        // is a full 300ms away — wider than any plausible scheduler stall
        // under parallel test execution on one core — so the 100us ttl
        // below cannot race a transiently-free slot.
        let busy = server
            .submit(subject.clone(), AnalysisKind::SleepForTest)
            .expect("admitted");
        while server.stats().batches < 1 {
            std::thread::yield_now();
        }
        let queued = server
            .submit(subject.clone(), AnalysisKind::SleepForTest)
            .expect("admitted");
        let start = Instant::now();
        let shed = server.submit_with(
            subject,
            AnalysisKind::Classify,
            Admit::Within(Duration::from_micros(100)),
        );
        assert_eq!(
            shed.map(|_| ()).unwrap_err(),
            SubmitError::Overloaded,
            "the 100us ttl elapses long before the 300ms sleeps free a slot"
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the shed submit must return promptly, not block indefinitely"
        );
        busy.wait().expect("answered");
        queued.wait().expect("answered");
        let stats = server.shutdown();
        assert_eq!(stats.rejected_overload, 1);
        assert_eq!(stats.jobs, 2);
    }

    /// The registered metric families are exactly these, in `metrics()`
    /// and in the Prometheus text; no `cache_cone_*` family (the removed
    /// per-cone tier's) is among them.
    #[test]
    fn metric_families_are_pinned() {
        let server = Server::start(tiny_trained(), ServeConfig::default());
        let snap = server.metrics();
        server.shutdown();
        let families: Vec<&str> = snap
            .iter()
            .map(|(name, _)| name.split('{').next().expect("split yields a head"))
            .collect();
        assert_eq!(
            families,
            [
                "gamora_kernel_isa",
                "serve_jobs_submitted_total",
                "serve_jobs_completed_total",
                "serve_batches_total",
                "serve_forward_passes_total",
                "serve_cache_hits_total",
                "serve_cache_misses_total",
                "serve_jobs_dropped_total",
                "serve_jobs_expired_total",
                "serve_jobs_failed_total",
                "serve_rejected_overload_total",
                "serve_workers_respawned_total",
                "serve_quarantines_total",
                "serve_peak_queued",
                "serve_health",
                "stage_snapshot_load_micros",
                "stage_admission_micros",
                "stage_queue_wait_micros",
                "stage_linger_micros",
                "stage_signature_hash_micros",
                "stage_batch_assemble_micros",
                "stage_gnn_forward_micros",
                "stage_prediction_split_micros",
                "stage_postprocess_micros",
                "stage_time_to_rejection_micros",
                "latency_e2e_micros",
                "queue_depth",
                "batch_size",
                "cache_probe_micros",
                "cache_resolve_micros",
                "cache_hits_verbatim_total",
                "cache_hits_transferred_total",
                "cache_probe_misses_total",
                "cache_resolve_misses_total",
            ]
        );
        let text = snap.prometheus();
        assert!(!text.contains("cache_cone_"), "{text}");
        let typed = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(typed, families.len(), "one TYPE line per family");
    }

    /// The metric snapshot tells the full serve story: counters agree
    /// with `stats()`, every stage histogram is present, and the miss/hit
    /// paths each record the spans they must (forward stages for misses,
    /// cache probe/resolve for hits).
    #[test]
    fn metrics_snapshot_covers_stages_and_matches_stats() {
        let server = Server::start(tiny_trained(), ServeConfig::default());
        let subject = csa_multiplier(4).aig;
        let miss = server
            .submit(subject.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("answered");
        assert!(!miss.cache_hit);
        let hit = server
            .submit(subject.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("answered");
        assert!(hit.cache_hit);

        let snap = server.metrics();
        let stats = server.stats();
        assert_eq!(snap.counter("serve_jobs_submitted_total"), 2);
        assert_eq!(snap.counter("serve_jobs_completed_total"), stats.jobs);
        assert_eq!(snap.counter("serve_cache_hits_total"), stats.cache_hits);
        assert_eq!(snap.gauge("serve_peak_queued"), stats.peak_queued);

        // Per-job stages: one observation per completed job.
        for stage in [
            "stage_admission_micros",
            "stage_queue_wait_micros",
            "latency_e2e_micros",
        ] {
            assert_eq!(
                snap.histogram(stage).expect(stage).count(),
                2,
                "{stage} must see both jobs"
            );
        }
        // Per-batch miss-path stages: exactly one forward pass happened.
        for stage in [
            "stage_batch_assemble_micros",
            "stage_gnn_forward_micros",
            "stage_prediction_split_micros",
        ] {
            assert_eq!(snap.histogram(stage).expect(stage).count(), 1, "{stage}");
        }
        // The hit was a verbatim resolve. Probe samples: the miss probed
        // the identity index, then the structural key (2, and the one
        // probe miss between them); the repeat was answered by the
        // identity index alone (1).
        assert_eq!(snap.counter("cache_hits_verbatim_total"), 1);
        assert_eq!(snap.counter("cache_probe_misses_total"), 1);
        assert_eq!(snap.histogram("cache_probe_micros").unwrap().count(), 3);
        // Hash samples: one digest per submit (2) plus the structural pass
        // of the one batch that missed the identity index (1).
        assert_eq!(
            snap.histogram("stage_signature_hash_micros")
                .unwrap()
                .count(),
            3
        );
        // Distributions saw each admission / executed batch.
        assert_eq!(snap.histogram("queue_depth").unwrap().count(), 2);
        assert_eq!(snap.histogram("batch_size").unwrap().count(), 2);
        // Layer timing is off by default — no per-layer series registered.
        assert!(snap.histogram("forward_layer_0_micros").is_none());
        // E2E latency can never undercut its queue-wait component.
        let e2e = snap.histogram("latency_e2e_micros").unwrap();
        let wait = snap.histogram("stage_queue_wait_micros").unwrap();
        assert!(
            e2e.sum >= wait.sum,
            "e2e {} < queue wait {}",
            e2e.sum,
            wait.sum
        );
        server.shutdown();
    }

    /// Opting into `layer_timing` registers and fills one histogram per
    /// GNN trunk layer plus the shared/heads stages.
    #[test]
    fn layer_timing_records_per_layer_forward_spans() {
        let server = Server::start(
            tiny_trained(), // 2 trunk layers
            ServeConfig {
                layer_timing: true,
                ..ServeConfig::default()
            },
        );
        server
            .submit(csa_multiplier(4).aig, AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("answered");
        let snap = server.metrics();
        for name in [
            "forward_layer_0_micros",
            "forward_layer_1_micros",
            "forward_shared_micros",
            "forward_heads_micros",
        ] {
            assert_eq!(snap.histogram(name).expect(name).count(), 1, "{name}");
        }
        assert!(snap.histogram("forward_layer_2_micros").is_none());
        server.shutdown();
    }

    /// Shed submissions record their time-to-rejection: the overload path
    /// is observable, not silent.
    #[test]
    fn overload_rejection_records_time_to_rejection() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 1,
                workers: 1,
                cache_capacity: 0,
                queue_capacity: 1,
                linger_micros: 0,
                ..ServeConfig::default()
            },
        );
        let subject = csa_multiplier(3).aig;
        // Hold the worker, fill the one queue slot, then shed.
        let busy = server
            .submit(subject.clone(), AnalysisKind::SleepForTest)
            .expect("admitted");
        while server.stats().batches < 1 {
            std::thread::yield_now();
        }
        let queued = server
            .submit(subject.clone(), AnalysisKind::Classify)
            .expect("admitted");
        let mut shed = 0u64;
        while shed == 0 {
            if server
                .submit_with(subject.clone(), AnalysisKind::Classify, Admit::Shed)
                .is_err()
            {
                shed = 1;
            }
        }
        let snap = server.metrics();
        assert_eq!(
            snap.counter("serve_rejected_overload_total"),
            server.stats().rejected_overload
        );
        assert!(
            snap.histogram("stage_time_to_rejection_micros")
                .unwrap()
                .count()
                >= 1,
            "every Overloaded shed must record its time to rejection"
        );
        busy.wait().expect("answered");
        queued.wait().expect("answered");
        server.shutdown();
    }

    /// `max_batch` jobs end a linger window immediately — a full batch
    /// never waits out the timer.
    #[test]
    fn full_batch_does_not_linger() {
        let server = Server::start(
            tiny_trained(),
            ServeConfig {
                max_batch: 2,
                workers: 1,
                cache_capacity: 0,
                linger_micros: 10_000_000, // 10s: a timer wait would hang the test
                ..ServeConfig::default()
            },
        );
        let start = Instant::now();
        let outs = server
            .submit_all(vec![
                (csa_multiplier(3).aig, AnalysisKind::Classify),
                (csa_multiplier(4).aig, AnalysisKind::Classify),
            ])
            .expect("answered");
        assert_eq!(outs.len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a full batch must run without waiting out the linger window"
        );
        server.shutdown();
    }
}
