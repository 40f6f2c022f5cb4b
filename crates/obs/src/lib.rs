//! # gamora-obs — lock-free serving metrics
//!
//! Observability primitives for the Gamora serving stack: atomic
//! [`Counter`]/[`Gauge`] scalars, a lock-free log-linear [`Histogram`] with
//! preallocated atomic buckets and p50/p90/p99/p99.9 extraction, a
//! [`Registry`] that names and snapshots them together, and a
//! [`StageTimer`] for cheap per-stage latency spans.
//!
//! Design constraints, in order:
//! 1. **Hot-path cost ≈ zero.** Recording is a few relaxed atomic RMWs; no
//!    locks, no allocation, no syscalls. Handles are plain `Arc`s captured at
//!    registration time — the registry itself is never touched while serving.
//! 2. **One view.** Every worker of a server records into the same `Arc`
//!    handles, so one [`Registry`] snapshot is the whole server.
//! 3. **Std-only.** Like the rest of the workspace, no external crates.

#![warn(missing_docs)]

mod hist;
mod registry;

pub use hist::{
    bucket_index, bucket_lower, bucket_upper, Histogram, HistogramSnapshot, NUM_BUCKETS, SUB_BITS,
    SUB_BUCKETS,
};
pub use registry::{MetricSnapshot, Registry, Snapshot};

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// A monotonically increasing atomic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An atomic gauge recording an instantaneous or high-water value.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Create a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A cheap monotonic span timer for stage latencies.
///
/// `StageTimer` is a single `Instant`; starting one is one clock read and
/// observing into a [`Histogram`] is a second read plus the wait-free record.
/// Nothing allocates, so timers are safe inside allocation-free hot paths.
#[derive(Clone, Copy, Debug)]
pub struct StageTimer {
    start: Instant,
}

impl StageTimer {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        StageTimer {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since start (saturating at `u64::MAX`).
    #[inline]
    pub fn elapsed_micros(&self) -> u64 {
        let micros = self.start.elapsed().as_micros();
        if micros > u64::MAX as u128 {
            u64::MAX
        } else {
            micros as u64
        }
    }

    /// Record the elapsed span into `hist` and return it in microseconds.
    #[inline]
    pub fn observe(&self, hist: &Histogram) -> u64 {
        let micros = self.elapsed_micros();
        hist.record(micros);
        micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(3);
        g.set_max(10);
        g.set_max(2);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn stage_timer_records() {
        let h = Histogram::new();
        let t = StageTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let first = t.observe(&h);
        assert!(first >= 1_000, "slept 2ms but measured {first}us");
        let second = t.observe(&h);
        assert!(second >= first, "observing does not restart the timer");
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
    }
}
