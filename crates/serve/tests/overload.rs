//! Overload, deadline and shutdown end-to-end tests for the bounded
//! serving ingress: a hammered bounded queue sheds load promptly instead
//! of growing, admitted jobs always complete, expired jobs never cost a
//! forward pass, and no client ever hangs — the regression suite for the
//! serve crate's production-ingress guarantees.
//!
//! Timing-sensitive (linger-window) behaviour lives in the scheduler's
//! unit tests with generous margins; CI additionally runs this file under
//! `--release` because debug-profile forwards on the 1-core runner are
//! slow enough to distort queueing behaviour.

use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_circuits::csa_multiplier;
use gamora_serve::scheduler::{
    Admit, AnalysisKind, JobTicket, ServeConfig, ServeError, Server, SubmitError,
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

/// Fill a bounded queue 4x over with `Admit::Shed`: rejections come back
/// promptly (`Overloaded`, never a block), the queue's high-water mark
/// respects the bound (memory stays bounded), and every admitted job
/// still completes.
#[test]
fn saturated_bounded_queue_sheds_load_and_completes_admitted_jobs() {
    const QUEUE_CAP: usize = 4;
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 2,
            workers: 1,
            cache_capacity: 0, // one forward pass per job: the queue really backs up
            queue_capacity: QUEUE_CAP,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let subject = csa_multiplier(6).aig;

    let attempts = 4 * QUEUE_CAP * 4; // 4x oversubmission, several waves
    let mut tickets: Vec<JobTicket> = Vec::new();
    let mut rejected = 0usize;
    let submit_loop = Instant::now();
    for _ in 0..attempts {
        match server.submit_with(subject.clone(), AnalysisKind::Classify, Admit::Shed) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Overloaded) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let submit_elapsed = submit_loop.elapsed();

    assert!(
        rejected > 0,
        "hammering a {QUEUE_CAP}-slot queue with {attempts} jobs must shed load"
    );
    // "Promptly": rejections are O(1) admission decisions, not waits. The
    // whole loop — including the rejections — must finish in far less
    // time than serving even one queue's worth of forwards.
    assert!(
        submit_elapsed < Duration::from_secs(2),
        "a shedding submit must not block: {attempts} attempts took {submit_elapsed:?}"
    );

    // Every admitted job completes; nobody hangs.
    for (i, ticket) in tickets.iter().enumerate() {
        ticket
            .wait_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("admitted job {i} did not complete: {e}"));
    }

    let stats = server.shutdown();
    assert!(
        stats.peak_queued <= QUEUE_CAP as u64,
        "queue bound violated: peak {} > capacity {QUEUE_CAP}",
        stats.peak_queued
    );
    assert_eq!(stats.rejected_overload, rejected as u64);
    assert_eq!(stats.jobs_submitted, tickets.len() as u64);
    assert_eq!(stats.jobs, tickets.len() as u64, "all admitted jobs served");
    assert_eq!(
        stats.jobs_submitted,
        stats.jobs + stats.jobs_expired + stats.jobs_dropped,
        "every admitted job accounted exactly once"
    );
}

/// With hashing on, every submit digests its AIG on the caller's thread
/// before the queue lock — shed attempts included. The digest is one
/// streaming pass, so time-to-rejection against a full queue stays
/// bounded: each refused `Admit::Shed` submit of a ~10k-node subject returns in
/// milliseconds at worst, and the loop as a whole far faster than the
/// forwards it is shedding.
#[test]
fn shed_submissions_stay_prompt_with_the_digest_in_the_submit_path() {
    const QUEUE_CAP: usize = 2;
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            // Three subjects in rotation through a one-entry cache: a job
            // evicts its predecessor and (unless a shed gap lines two of
            // one subject up) misses, so the queue really backs up.
            cache_capacity: 1,
            queue_capacity: QUEUE_CAP,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let subjects: Vec<_> = (30..33).map(|bits| csa_multiplier(bits).aig).collect();

    let attempts = 64;
    let mut tickets: Vec<JobTicket> = Vec::new();
    let mut rejected = 0u64;
    let mut slowest_rejection = Duration::ZERO;
    let mut in_submit = Duration::ZERO;
    for i in 0..attempts {
        let aig = subjects[i % subjects.len()].clone();
        let start = Instant::now();
        let outcome = server.submit_with(aig, AnalysisKind::Classify, Admit::Shed);
        let took = start.elapsed();
        in_submit += took;
        match outcome {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Overloaded) => {
                rejected += 1;
                slowest_rejection = slowest_rejection.max(took);
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        rejected > 0,
        "hammering a {QUEUE_CAP}-slot queue with {attempts} jobs must shed load"
    );
    assert!(
        slowest_rejection < Duration::from_millis(250),
        "a refused shedding submit took {slowest_rejection:?}: the digest must not stall the door"
    );
    assert!(
        in_submit < Duration::from_secs(2),
        "{attempts} shedding submits spent {in_submit:?} in the submit path"
    );

    for (i, ticket) in tickets.iter().enumerate() {
        ticket
            .wait_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("admitted job {i} did not complete: {e}"));
    }
    let snap = server.metrics();
    assert_eq!(
        snap.histogram("stage_time_to_rejection_micros")
            .expect("registered")
            .count(),
        rejected,
        "every shed records its time to rejection"
    );
    let stats = server.shutdown();
    assert!(stats.peak_queued <= QUEUE_CAP as u64);
    assert_eq!(stats.rejected_overload, rejected);
    assert_eq!(stats.jobs, tickets.len() as u64, "all admitted jobs served");
}

/// An expired job is rejected with `DeadlineExpired` and never reaches
/// the model: the forward-pass counter proves no compute was wasted.
#[test]
fn expired_job_is_rejected_without_a_forward_pass() {
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1, // the worker picks jobs up one at a time
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 0,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    // Occupy the worker with a real job, then queue a job whose deadline
    // is microseconds away: it expires while the first forward runs.
    let busy = server
        .submit(csa_multiplier(8).aig, AnalysisKind::Classify)
        .expect("admitted");
    let doomed = server
        .submit_with(
            csa_multiplier(6).aig,
            AnalysisKind::Classify,
            Admit::Within(Duration::from_micros(1)),
        )
        .expect("admitted");

    busy.wait().expect("the live job completes");
    assert_eq!(
        doomed.wait().unwrap_err(),
        ServeError::DeadlineExpired,
        "the queued job's deadline passed while the worker was busy"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.forward_passes, 1,
        "only the live job may run the model — the expired one is free"
    );
    assert_eq!(stats.jobs_expired, 1);
    assert_eq!(stats.jobs, 1);
    assert_eq!(
        stats.jobs_submitted,
        stats.jobs + stats.jobs_expired + stats.jobs_dropped
    );
}

/// A job submitted with a comfortable deadline is served normally — the
/// deadline machinery only bites when time actually runs out.
#[test]
fn unexpired_deadline_jobs_are_served_normally() {
    let server = Server::start(tiny_trained(), ServeConfig::default());
    let out = server
        .submit_with(
            csa_multiplier(4).aig,
            AnalysisKind::Classify,
            Admit::Within(Duration::from_secs(600)),
        )
        .expect("admitted")
        .wait()
        .expect("served well before the deadline");
    assert!(!out.cache_hit);
    let stats = server.shutdown();
    assert_eq!(stats.jobs_expired, 0);
    assert_eq!(stats.jobs, 1);
}

/// Blocking `submit` on a full queue waits for space instead of failing
/// — and every admitted job is served in order, with the queue bound
/// held throughout.
#[test]
fn blocking_submit_waits_for_space_and_respects_the_bound() {
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
    let subject = csa_multiplier(5).aig;
    let tickets: Vec<JobTicket> = (0..6)
        .map(|i| {
            server
                .submit(subject.clone(), AnalysisKind::Classify)
                .unwrap_or_else(|e| panic!("blocking submit {i} must wait, not fail: {e}"))
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        ticket
            .wait_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("job {i} did not complete: {e}"));
    }
    let stats = server.shutdown();
    assert_eq!(stats.jobs, 6);
    assert!(
        stats.peak_queued <= 1,
        "peak {} must respect the 1-slot bound",
        stats.peak_queued
    );
    assert_eq!(stats.rejected_overload, 0, "blocking submits never shed");
}

/// Shutdown racing live submitters: a submitter blocked (or about to
/// submit) when shutdown begins either gets `ShuttingDown` at the door or
/// an admitted job that is drained — never a silently abandoned ticket.
/// This is the regression test for the enqueue-after-shutdown race.
#[test]
fn shutdown_concurrent_with_submitters_leaves_no_hung_client() {
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 2,
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 2,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let subject = csa_multiplier(6).aig;
    std::thread::scope(|scope| {
        let server = &server;
        let submitter = scope.spawn(move || {
            let mut tickets = Vec::new();
            loop {
                match server.submit(subject.clone(), AnalysisKind::Classify) {
                    Ok(t) => tickets.push(t),
                    Err(SubmitError::ShuttingDown) => break,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            tickets
        });
        // Let the submitter make progress (including blocking on the full
        // queue), then begin shutdown under its feet.
        std::thread::sleep(Duration::from_millis(50));
        server.begin_shutdown();
        let tickets = submitter.join().expect("submitter thread");
        assert!(
            !tickets.is_empty(),
            "the submitter ran before shutdown and admitted at least one job"
        );
        // Every ticket issued before shutdown resolves: answered (drained)
        // — never hung. JobDropped would mean an admitted job was
        // abandoned, the exact bug this guards against.
        for (i, ticket) in tickets.into_iter().enumerate() {
            ticket
                .wait_timeout(Duration::from_secs(120))
                .unwrap_or_else(|e| panic!("pre-shutdown job {i} was abandoned: {e}"));
        }
    });
    let stats = server.shutdown();
    assert_eq!(
        stats.jobs, stats.jobs_submitted,
        "all admitted jobs drained"
    );
    assert_eq!(stats.jobs_dropped, 0);
}
