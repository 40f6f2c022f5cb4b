//! Release-profile guard: the PR-8 fail-point subsystem must be free
//! when disarmed — chaos instrumentation that taxes production serving
//! would never be left compiled in, and ours is.
//!
//! Same two-angle methodology as `metrics_overhead.rs`:
//!
//! 1. A micro-bound on one disarmed [`gamora_fault::hit`] — a single
//!    relaxed atomic load and a branch — which must stay in the
//!    single-digit-nanosecond range.
//! 2. An end-to-end budget: serve a real cold workload, bound the
//!    number of fail-point checks the run performed from its own stats
//!    (one admission check per submission, one check per stage per
//!    batch), price them with the measured per-check cost, and require
//!    the total disarmed-chaos bill to be under 1% of the serve wall
//!    time — the CI form of the "disabled fail points within noise of
//!    the PR-7 baseline" acceptance criterion.
//!
//! Debug builds keep the accounting compiling but skip the wall-time
//! ratio: unoptimised atomics are not what ships.

use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_circuits::csa_multiplier;
use gamora_fault::{FaultPoint, ALL_POINTS};
use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};
use std::time::Instant;

fn tiny_trained() -> GamoraReasoner {
    let m = csa_multiplier(4);
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

/// Mean cost of one disarmed fail-point check, cycling through every
/// point so no single atomic monopolises a register. Measured over
/// enough iterations to swamp timer resolution.
fn measured_check_nanos() -> f64 {
    assert!(
        !gamora_fault::armed(),
        "the overhead guard measures the DISARMED path"
    );
    // Warm the enabled-flag cache line.
    for _ in 0..1024 {
        let _ = gamora_fault::hit(FaultPoint::GnnForward);
    }
    const ITERS: u64 = 4_000_000;
    let mut ok = 0u64;
    let start = Instant::now();
    for i in 0..ITERS {
        let point = ALL_POINTS[(i % ALL_POINTS.len() as u64) as usize];
        // Keep the result observable so the loop cannot be elided.
        ok += gamora_fault::hit(point).is_ok() as u64;
    }
    let elapsed = start.elapsed();
    assert_eq!(ok, ITERS, "disarmed checks always pass");
    elapsed.as_nanos() as f64 / ITERS as f64
}

/// One disarmed check is a relaxed load plus a branch: nanoseconds, not
/// microseconds — checking may never rival the stages it gates.
#[test]
fn disarmed_check_cost_stays_nanoscale() {
    let per_op = measured_check_nanos();
    // Release: a relaxed load — give a wide berth for slow CI steppings.
    // Debug: unoptimised but still bounded, catching a pathological
    // (locking, allocating) regression in plain `cargo test` too.
    let bound = if cfg!(debug_assertions) {
        1_000.0
    } else {
        50.0
    };
    assert!(
        per_op < bound,
        "one disarmed fail-point check averaged {per_op:.1} ns (bound {bound} ns): \
         the relaxed-load fast path has regressed"
    );
}

/// End-to-end: price every fail-point check a cold serve run performed
/// and require the disarmed-chaos bill to stay under 1% of the serve
/// wall time.
#[test]
fn disarmed_fault_bill_is_within_one_percent_of_serving() {
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            cache_capacity: 64, // hashing on: the hash/cache points are checked too
            ..ServeConfig::default()
        },
    );
    let subjects: Vec<_> = (3..=6).map(|b| csa_multiplier(b).aig).collect();

    let start = Instant::now();
    let tickets: Vec<_> = (0..64)
        .map(|i| {
            server
                .submit(subjects[i % subjects.len()].clone(), AnalysisKind::Classify)
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("served");
    }
    let serve_nanos = start.elapsed().as_nanos() as f64;

    let stats = server.shutdown();
    // Upper bound on checks performed: one admission gate per
    // submission, and one check per serve stage (hash, cache, the model
    // call) per batch — counted generously per point.
    let checks = stats.jobs_submitted + stats.batches * ALL_POINTS.len() as u64;
    assert!(checks >= 64, "a 64-job run passes at least its admissions");

    if cfg!(debug_assertions) {
        // Debug forwards are orders of magnitude slower than release but
        // atomics are not: the ratio below is only meaningful optimised.
        return;
    }
    let bill_nanos = checks as f64 * measured_check_nanos();
    let fraction = bill_nanos / serve_nanos;
    assert!(
        fraction < 0.01,
        "disarmed fail-point bill {bill_nanos:.0} ns ({checks} checks) is \
         {:.3}% of the {serve_nanos:.0} ns serve run (bound 1%)",
        fraction * 100.0
    );
}
