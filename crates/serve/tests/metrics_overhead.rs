//! Release-profile guard: the PR-6 observability layer must be close to
//! free on the serve hot path.
//!
//! Two angles, both run under `--release` in CI:
//!
//! 1. A micro-bound on the primitive recording operations — one
//!    `Histogram::record` / `Counter::inc` is a bucket-index computation
//!    plus relaxed atomic adds, and must stay in the nanosecond range.
//! 2. An end-to-end budget: serve a real cold workload through the
//!    (always-instrumented) scheduler, count every metric recording the
//!    run actually performed from the final snapshot, price it with the
//!    measured per-record cost, and require the total instrumentation
//!    bill to be a small fraction of the serve wall time. This is the
//!    in-process form of the "instrumented throughput within a few
//!    percent of PR 5" acceptance bar — expressed relatively so it holds
//!    on any machine CI lands on.
//!
//! Debug builds keep the tests compiling and the accounting correct but
//! use loose bounds / skip the wall-time comparison: unoptimised atomics
//! and forwards are not what ships.

use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_circuits::csa_multiplier;
use gamora_obs::{Counter, Histogram, MetricSnapshot, Snapshot};
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

/// Mean cost of one `Histogram::record` across the value range the serve
/// path feeds it (sub-microsecond spans up to multi-second latencies),
/// plus one `Counter::inc`. Measured over enough iterations to swamp
/// timer resolution.
fn measured_record_nanos() -> f64 {
    let h = Histogram::new();
    let c = Counter::new();
    // Warm the cache lines.
    for v in 0..1024u64 {
        h.record(v);
        c.inc();
    }
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for i in 0..ITERS {
        // Vary the value so the bucket-index path is not branch-predicted
        // into irrelevance; spans several histogram decades.
        h.record(i.wrapping_mul(2654435761) >> 12);
        c.inc();
    }
    let elapsed = start.elapsed();
    // Keep the work observable so the loop cannot be optimised away.
    assert_eq!(h.snapshot().count(), ITERS + 1024);
    assert_eq!(c.get(), ITERS + 1024);
    elapsed.as_nanos() as f64 / ITERS as f64
}

/// One histogram record + one counter inc must cost nanoseconds, not
/// microseconds: recording may never rival the spans it measures.
#[test]
fn primitive_recording_cost_stays_nanoscale() {
    let per_op = measured_record_nanos();
    // Release: a record+inc pair is a handful of relaxed atomic RMWs —
    // give a wide berth for slow CI steppings. Debug: unoptimised but
    // still bounded, so a pathological (locking, allocating) regression
    // is caught in plain `cargo test` too.
    let bound = if cfg!(debug_assertions) {
        5_000.0
    } else {
        400.0
    };
    assert!(
        per_op < bound,
        "histogram record + counter inc averaged {per_op:.0} ns/op (bound {bound} ns): \
         the lock-free recording path has regressed"
    );
}

/// Total number of recording operations a serve run performed, recovered
/// from its own snapshot: every histogram observation and every counter
/// increment is one primitive record.
fn total_recordings(snapshot: &Snapshot) -> u64 {
    snapshot
        .iter()
        .map(|(_, m)| match m {
            MetricSnapshot::Counter(n) => *n,
            // Gauges are set/max'd roughly once per admission; counting
            // one op per final value is the cheap upper-bound stand-in.
            MetricSnapshot::Gauge(n) => (*n).min(1),
            MetricSnapshot::Histogram(h) => h.count(),
        })
        .sum()
}

/// End-to-end: price the instrumentation a cold serve run actually did
/// and require it to be a small fraction of the serve wall time. With
/// per-layer timing enabled (the most record-heavy configuration), the
/// bill must still stay under 3% — the CI form of the "instrumented
/// throughput within a few percent of the uninstrumented baseline"
/// acceptance criterion.
#[test]
fn instrumentation_bill_is_within_three_percent_of_serving() {
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            cache_capacity: 0, // all-miss, like a cold bench
            layer_timing: true,
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

    let snapshot = server.metrics();
    server.shutdown();
    let recordings = total_recordings(&snapshot);
    assert!(
        recordings >= 64 * 4,
        "a 64-job instrumented run must have recorded per-job stages (got {recordings})"
    );

    if cfg!(debug_assertions) {
        // Debug forwards are orders of magnitude slower than release but
        // atomics are not: the ratio below is only meaningful optimised.
        return;
    }
    let bill_nanos = recordings as f64 * measured_record_nanos();
    let fraction = bill_nanos / serve_nanos;
    assert!(
        fraction < 0.03,
        "instrumentation bill {bill_nanos:.0} ns ({recordings} recordings) is \
         {:.2}% of the {serve_nanos:.0} ns serve run (bound 3%)",
        fraction * 100.0
    );
}
