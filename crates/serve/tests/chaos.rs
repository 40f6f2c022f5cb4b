//! Chaos suite: deterministic fail-point storms through a `Server`,
//! exercising the self-healing serve layer end to end — worker restart,
//! poison-fingerprint quarantine, shedding at the door, burst retraction
//! on shutdown, and health reporting.
//!
//! Every test takes `gamora-fault`'s process-global gate with
//! [`gamora_fault::arm`] as its first statement and holds it to the end,
//! switching specs with `rearm`: the fail-point registry is global, so a
//! test's fault-free phases (training, warm-up, "served again once
//! disarmed") must not run while another test's faults are armed — they
//! did on multi-core hosts, and failed at random. The
//! acceptance invariant throughout: **every submitted job gets exactly
//! one terminal outcome** (`Overloaded` at the door, or a prediction,
//! `JobDropped`, `AnalysisFailed` or `DeadlineExpired` — never a hang,
//! never two answers), and the stats equation
//! `jobs_submitted == jobs + jobs_expired + jobs_dropped + jobs_failed`
//! balances once the server is quiescent. CI runs this file under
//! `--release` as part of the robustness guard.

use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_circuits::csa_multiplier;
use gamora_serve::scheduler::{
    Admit, AnalysisKind, Health, ServeConfig, ServeError, Server, SubmitError,
};
use std::time::{Duration, Instant};

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

fn assert_balanced(stats: &gamora_serve::scheduler::ServeStats) {
    assert_eq!(
        stats.jobs_submitted,
        stats.jobs + stats.jobs_expired + stats.jobs_dropped + stats.jobs_failed,
        "every admitted job must be accounted exactly once: {stats:?}"
    );
}

/// Every shed — `Overloaded` at the door, `DeadlineExpired` or
/// `AnalysisFailed` in a worker — records exactly one
/// `stage_time_to_rejection_micros` sample. Call on a quiescent server.
fn assert_rejections_timed(server: &Server) {
    let stats = server.stats();
    let samples = server
        .metrics()
        .histogram("stage_time_to_rejection_micros")
        .expect("registered")
        .count();
    assert_eq!(
        samples,
        stats.rejected_overload + stats.jobs_expired + stats.jobs_failed,
        "one time-to-rejection sample per shed job: {stats:?}"
    );
}

/// The acceptance storm: panic probability on *every* stage fail point,
/// one server with four workers, hundreds of submissions. Each job is
/// submitted, then waited on; a refusal at the door is that job's
/// terminal outcome. Every job resolves exactly once, batches panicked
/// and workers restarted, the accounting equation balances, every shed
/// is timed once, and once the storm
/// passes (faults disarmed, quarantine TTLs and the incident window
/// lapsed) the server reports `Healthy` again.
#[test]
fn chaos_storm_every_job_gets_exactly_one_terminal_outcome() {
    let faults = gamora_fault::arm("");
    let submissions = if cfg!(debug_assertions) { 64 } else { 256 };
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 2,
            workers: 4,
            cache_capacity: 32,
            queue_capacity: 0,
            linger_micros: 0,
            quarantine_ttl_micros: 200_000,
            ..ServeConfig::default()
        },
    );
    let subjects: Vec<_> = (3..=8).map(|b| csa_multiplier(b).aig).collect();

    faults.rearm("all:panic:prob=0.15,seed=11");
    let mut refused = 0u64;
    let tickets: Vec<_> = (0..submissions)
        .filter_map(|i| {
            let aig = subjects[i % subjects.len()].clone();
            match server.submit(aig, AnalysisKind::Classify) {
                Ok(ticket) => Some(ticket),
                Err(SubmitError::Overloaded) => {
                    refused += 1;
                    None
                }
                Err(e) => panic!("job {i}: refused with {e} while live"),
            }
        })
        .collect();
    for (i, ticket) in tickets.iter().enumerate() {
        match ticket.wait_timeout(Duration::from_secs(60)) {
            Ok(_)
            | Err(ServeError::JobDropped)
            | Err(ServeError::AnalysisFailed)
            | Err(ServeError::DeadlineExpired) => {}
            Err(e) => panic!("ticket {i}: non-terminal chaos outcome {e}"),
        }
    }
    faults.rearm("");

    let mid = server.stats();
    assert_eq!(
        mid.jobs_submitted + refused,
        submissions as u64,
        "every submission was either admitted or refused at the door: {mid:?}"
    );
    assert_eq!(mid.rejected_overload, refused);
    assert!(
        mid.workers_respawned > 0,
        "a 15% all-stage panic storm over {submissions} jobs must kill \
         (and respawn) at least one worker: {mid:?}"
    );
    assert!(
        refused > 0,
        "admission faults at 15% must have refused at least one submission"
    );

    // Storm over: give the quarantine TTL (200ms) and the incident
    // window (500ms) time to lapse, then the server must self-report
    // healthy — no operator intervention, no restart.
    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(
        server.health(),
        Health::Healthy,
        "the server must return to Healthy once faults are disarmed and TTLs lapse"
    );
    assert_rejections_timed(&server);

    let stats = server.shutdown();
    assert_eq!(
        stats.health,
        Health::Healthy,
        "the drained server is healthy"
    );
    assert_balanced(&stats);
}

/// A fingerprint whose batches kill two workers is quarantined: further
/// submissions are answered `AnalysisFailed` *without running the
/// model*, the worker stops restart-looping, and after the TTL the
/// fingerprint gets a fresh chance.
#[test]
fn poison_fingerprint_is_quarantined_after_two_worker_deaths() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 0,
            linger_micros: 0,
            quarantine_ttl_micros: 300_000,
            ..ServeConfig::default()
        },
    );
    let poison = csa_multiplier(5).aig;

    faults.rearm("forward:panic");
    for strike in 0..2 {
        let err = server
            .submit(poison.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect_err("the batch panics");
        assert_eq!(
            err,
            ServeError::JobDropped,
            "strike {strike}: a worker death drops the batch"
        );
    }
    faults.rearm("");

    // Third submission: the fingerprint now has two strikes, so it is
    // quarantined at the gate — `AnalysisFailed`, no forward, no death.
    let err = server
        .submit(poison.clone(), AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect_err("quarantined");
    assert_eq!(err, ServeError::AnalysisFailed);
    assert_eq!(
        server.health(),
        Health::Degraded,
        "an active quarantine reports Degraded"
    );

    // Other subjects are unaffected: the respawned worker serves them.
    server
        .submit(csa_multiplier(4).aig, AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect("healthy subjects still serve during a quarantine");

    // TTL (300ms) + incident window (500ms) lapse: health recovers and
    // the fingerprint gets a fresh chance — faults are disarmed, so it
    // now serves.
    std::thread::sleep(Duration::from_millis(900));
    assert_eq!(server.health(), Health::Healthy);
    server
        .submit(poison, AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect("the quarantine expired; the subject serves normally");

    let stats = server.shutdown();
    assert_eq!(stats.workers_respawned, 2, "one respawn per strike");
    assert_eq!(stats.quarantines, 1, "the poison fingerprint, once");
    assert_eq!(stats.jobs_failed, 1, "the quarantined submission");
    assert_balanced(&stats);
}

/// The safety paths see cached repeats. A job answered by the cache's
/// identity index is never hashed structurally in the worker; its
/// fingerprint comes from the cache slot's key. That fingerprint must
/// still collect strikes when the job's batch panics, and once it is
/// quarantined the identical, still-cached graph must be refused at the
/// gate like any other submission of it.
#[test]
fn quarantine_covers_a_graph_the_identity_index_would_answer() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 2,
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 0,
            linger_micros: 0,
            quarantine_ttl_micros: 400_000,
            ..ServeConfig::default()
        },
    );
    let cached = csa_multiplier(5).aig;
    let uncached = csa_multiplier(6).aig;
    let serve = |aig: &gamora_aig::Aig| {
        server
            .submit(aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
    };
    assert!(!serve(&cached).expect("served").cache_hit, "cold: a miss");
    assert!(serve(&cached).expect("served").cache_hit, "warm: a hit");

    // Two batches, each the cached graph (an identity hit — it never
    // reaches the model) next to a graph that does, whose forward pass
    // panics: both fingerprints of the batch are struck, twice.
    faults.rearm("forward:panic");
    for strike in 0..2 {
        let burst = vec![
            (cached.clone(), AnalysisKind::Classify),
            (uncached.clone(), AnalysisKind::Classify),
        ];
        assert_eq!(
            server.submit_all(burst).expect_err("the batch panics"),
            ServeError::JobDropped,
            "strike {strike}"
        );
    }
    faults.rearm("");
    let passes = server.stats().forward_passes;

    // The identical graph is still in the cache and would hit by identity;
    // the gate, reading the slot key's fingerprint, refuses it first.
    assert_eq!(
        serve(&cached).expect_err("quarantined"),
        ServeError::AnalysisFailed
    );
    assert_eq!(
        serve(&uncached).expect_err("quarantined"),
        ServeError::AnalysisFailed
    );
    assert_eq!(server.health(), Health::Degraded);

    // Once the TTL lapses the entry answers again — it was there all along.
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        serve(&cached).expect("the quarantine expired").cache_hit,
        "the quarantined graph never left the cache"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.forward_passes, passes,
        "neither refusal nor the late hit ran the model"
    );
    assert_eq!(stats.quarantines, 2, "both fingerprints of the two batches");
    assert_eq!(stats.workers_respawned, 2);
    assert_eq!(stats.jobs_failed, 2);
    assert_balanced(&stats);
}

/// An injected stage *error* (as opposed to a panic) fails the batch
/// cleanly: the jobs come back `AnalysisFailed`, the worker survives
/// (no respawn), and serving resumes the moment the fault is disarmed.
#[test]
fn injected_stage_error_fails_jobs_without_killing_workers() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 0,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let subject = csa_multiplier(4).aig;

    faults.rearm("forward:err");
    let err = server
        .submit(subject.clone(), AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect_err("the injected stage error fails the job");
    assert_eq!(err, ServeError::AnalysisFailed);
    assert_eq!(
        server.health(),
        Health::Degraded,
        "a just-failed batch is a recent incident"
    );
    faults.rearm("");

    server
        .submit(subject, AnalysisKind::Classify)
        .expect("admitted")
        .wait()
        .expect("the same worker serves once the fault is disarmed");

    let stats = server.shutdown();
    assert_eq!(
        stats.health,
        Health::Degraded,
        "the final report carries the failed job's incident, not the shutdown"
    );
    assert_eq!(
        stats.workers_respawned, 0,
        "an injected error must not kill the worker"
    );
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs, 1);
    assert_balanced(&stats);
}

/// A failing cache degrades to all-miss serving instead of failing
/// jobs: predictions stay correct (the model runs), only the shortcut
/// is lost — and it comes back the moment the fault clears.
#[test]
fn cache_fault_degrades_to_miss_serving() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 0,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let subject = csa_multiplier(4).aig;
    let serve = |aig: &gamora_aig::Aig| {
        server
            .submit(aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("served")
    };

    assert!(!serve(&subject).cache_hit, "cold: a miss");
    assert!(serve(&subject).cache_hit, "warm: a hit");

    faults.rearm("cache:err");
    let degraded = serve(&subject);
    assert!(
        !degraded.cache_hit,
        "with the cache faulted the job is served as a miss — degraded, not failed"
    );
    faults.rearm("");

    assert!(
        serve(&subject).cache_hit,
        "the shortcut returns with the cache"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.jobs, 4,
        "every submission served despite the cache fault"
    );
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(
        stats.forward_passes, 2,
        "cold miss + degraded miss; the two hits were free"
    );
    assert_balanced(&stats);
}

/// Admission faults — error *or* panic — are contained at the door and
/// shed as `Overloaded`: nothing is enqueued, no worker is involved,
/// and the caller can retry.
#[test]
fn admission_fault_sheds_as_overloaded() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 0,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let subject = csa_multiplier(4).aig;

    for spec in ["admission:err", "admission:panic"] {
        faults.rearm(spec);
        assert_eq!(
            server
                .submit_with(subject.clone(), AnalysisKind::Classify, Admit::Shed)
                .expect_err(spec),
            SubmitError::Overloaded,
            "{spec}: an admission fault sheds instead of enqueueing"
        );
    }

    // Disarmed: the very next submission is admitted and served.
    faults.rearm("");
    server
        .submit(subject, AnalysisKind::Classify)
        .expect("admitted once disarmed")
        .wait()
        .expect("served");

    let stats = server.shutdown();
    assert_eq!(stats.rejected_overload, 2);
    assert_eq!(stats.jobs, 1);
    assert_balanced(&stats);
}

/// A bulk submit refused by an admission fault is one shed: the whole
/// burst is refused at the door, counted once in `rejected_overload` and
/// timed once in `stage_time_to_rejection_micros`, like a refused single
/// submit.
#[test]
fn admission_fault_on_a_bulk_submit_records_one_rejection() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 2,
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 0,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let subject = csa_multiplier(4).aig;

    faults.rearm("admission:err");
    let burst = vec![(subject.clone(), AnalysisKind::Classify); 2];
    assert_eq!(
        server.submit_all(burst).expect_err("the burst is refused"),
        ServeError::JobDropped,
        "submit_all reports a refused burst as dropped"
    );
    faults.rearm("");

    let stats = server.stats();
    assert_eq!(stats.rejected_overload, 1, "one refusal for the burst");
    assert_eq!(stats.jobs_submitted, 0, "nothing was enqueued");
    assert_rejections_timed(&server);
    assert_balanced(&server.shutdown());
}

/// Shutdown racing a lingering worker while the model call (batch
/// assembly onwards) is slowed by an injected delay: the linger aborts
/// promptly, the admitted job is still served (never dropped), and
/// shutdown completes without waiting out the full linger window.
#[test]
fn shutdown_during_linger_with_injected_assembly_delay() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 8,
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 0,
            linger_micros: 2_000_000, // the worker would happily wait 2s for companions
            ..ServeConfig::default()
        },
    );
    faults.rearm("forward:delay(20000)");

    let start = Instant::now();
    let ticket = server
        .submit(csa_multiplier(4).aig, AnalysisKind::Classify)
        .expect("admitted");
    // Let the worker claim the lone job and start lingering for batch
    // companions that will never come, then shut down under its feet.
    std::thread::sleep(Duration::from_millis(50));
    server.begin_shutdown();

    ticket
        .wait_timeout(Duration::from_secs(60))
        .expect("the admitted job is served despite shutdown-during-linger");
    let stats = server.shutdown();
    let elapsed = start.elapsed();

    assert!(
        elapsed < Duration::from_millis(1_500),
        "shutdown must abort the 2s linger, not sit it out (took {elapsed:?})"
    );
    assert_eq!(stats.jobs, 1);
    assert_eq!(stats.jobs_dropped, 0, "an admitted job is never abandoned");
    assert_balanced(&stats);
}

/// A burst interrupted by shutdown while an injected delay holds the
/// worker: the burst blocked on the 2-slot queue retracts its queued
/// wave, the caller gets a prompt error — and nobody hangs, nothing
/// leaks.
#[test]
fn burst_retract_under_injected_forward_delay() {
    let faults = gamora_fault::arm("");
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            cache_capacity: 0, // every job is a forward: the queue stays backed up
            queue_capacity: 2,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );

    // Each forward sleeps 100ms, so the 2-slot queue stays full and the
    // 10-job burst must wait through several waves.
    faults.rearm("forward:delay(100000)");
    let jobs = vec![(csa_multiplier(4).aig, AnalysisKind::Classify); 10];

    let start = Instant::now();
    std::thread::scope(|scope| {
        let server = &server;
        let burst = scope.spawn(move || server.submit_all(jobs));
        // Let the burst fill the queue and block mid-wave, then begin
        // shutdown under it.
        std::thread::sleep(Duration::from_millis(80));
        server.begin_shutdown();
        let result = burst.join().expect("burst thread");
        assert_eq!(
            result.expect_err("the interrupted burst reports an error"),
            ServeError::JobDropped,
            "a burst aborted by shutdown is reported dropped, not hung"
        );
    });
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "the aborted burst must return promptly (took {elapsed:?})"
    );

    let stats = server.shutdown();
    assert!(
        stats.jobs_dropped > 0,
        "the retracted wave is accounted as dropped: {stats:?}"
    );
    assert_balanced(&stats);
}

/// Fail points live in the serve layer, where the failures are handled:
/// with every point armed to fail, training, direct prediction and a
/// snapshot round trip — none of which goes through a `Server` — run
/// untouched, and no point fires.
#[test]
fn fail_points_fire_only_in_the_serve_layer() {
    let _faults = gamora_fault::arm("all:err");
    let reasoner = tiny_trained();
    let subject = csa_multiplier(4).aig;
    let predictions = reasoner.predict(&subject);
    assert_eq!(predictions.num_nodes(), subject.num_nodes());

    let path = std::env::temp_dir().join(format!(
        "gamora-chaos-model-crates-{}.gsnap",
        std::process::id()
    ));
    reasoner.save(&path).expect("save with every point armed");
    let loaded = GamoraReasoner::load(&path);
    std::fs::remove_file(&path).ok();
    let loaded = loaded.expect("load with every point armed");
    assert_eq!(loaded.predict(&subject), predictions);
    for point in gamora_fault::ALL_POINTS {
        assert_eq!(
            gamora_fault::fired(point),
            0,
            "'{point}' fired outside serve"
        );
    }
}
