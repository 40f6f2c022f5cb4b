//! Named metric registry, point-in-time snapshots, and text exposition.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::{Counter, Gauge};

/// A live metric handle held by a [`Registry`].
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Names a set of live metrics and snapshots them together.
///
/// Registration hands back `Arc` handles that recording sites keep and bump
/// directly — the registry is only consulted at snapshot time, so it adds
/// zero cost to the hot path. Registering an existing name returns the
/// existing handle (and panics on a kind mismatch).
#[derive(Default)]
pub struct Registry {
    entries: Vec<(String, Metric)>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Register (or fetch) a monotonically increasing counter.
    pub fn counter(&mut self, name: &str) -> Arc<Counter> {
        if let Some(m) = self.find(name) {
            match m {
                Metric::Counter(c) => return Arc::clone(c),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let c = Arc::new(Counter::new());
        self.entries
            .push((name.to_string(), Metric::Counter(Arc::clone(&c))));
        c
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&mut self, name: &str) -> Arc<Gauge> {
        if let Some(m) = self.find(name) {
            match m {
                Metric::Gauge(g) => return Arc::clone(g),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let g = Arc::new(Gauge::new());
        self.entries
            .push((name.to_string(), Metric::Gauge(Arc::clone(&g))));
        g
    }

    /// Register an info metric: a constant-`1` gauge whose payload is its
    /// one label, exposed as `<name>{<label>="<value>"} 1` — for facts
    /// about the process (which build, which code path) rather than
    /// measurements.
    pub fn info(&mut self, name: &str, label: &str, value: &str) {
        self.gauge(&format!("{name}{{{label}=\"{value}\"}}")).set(1);
    }

    /// Register (or fetch) a latency histogram.
    pub fn histogram(&mut self, name: &str) -> Arc<Histogram> {
        if let Some(m) = self.find(name) {
            match m {
                Metric::Histogram(h) => return Arc::clone(h),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let h = Arc::new(Histogram::new());
        self.entries
            .push((name.to_string(), Metric::Histogram(Arc::clone(&h))));
        h
    }

    /// Capture every registered metric at a point in time.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .map(|(name, m)| {
                    let snap = match m {
                        Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                        Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                        Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                    };
                    (name.clone(), snap)
                })
                .collect(),
        }
    }
}

/// A snapshotted metric value.
#[derive(Clone, Debug)]
pub enum MetricSnapshot {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of a whole [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    entries: Vec<(String, MetricSnapshot)>,
}

impl Snapshot {
    /// Iterate `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricSnapshot)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricSnapshot::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricSnapshot::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Render a Prometheus-style text exposition.
    ///
    /// Counters become `<name> <value>` with a `# TYPE` line; histograms emit
    /// cumulative `_bucket{le="..."}` series (non-empty buckets plus `+Inf`)
    /// and `_sum`/`_count`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.entries {
            match metric {
                MetricSnapshot::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricSnapshot::Gauge(v) => {
                    // An info metric carries a label set; the TYPE line
                    // names the family only.
                    let family = name.split('{').next().unwrap_or(name);
                    let _ = writeln!(out, "# TYPE {family} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricSnapshot::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (_lower, upper, n) in h.buckets() {
                        cumulative += n;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {cumulative}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_reads_every_kind() {
        let mut reg = Registry::new();
        let jobs = reg.counter("jobs_total");
        let depth = reg.gauge("peak_queued");
        let lat = reg.histogram("latency_micros");
        jobs.add(10);
        depth.set_max(7);
        depth.set_max(3);
        lat.record(100);
        lat.record(200);
        lat.record(400);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs_total"), 10);
        assert_eq!(snap.gauge("peak_queued"), 7);
        let h = snap.histogram("latency_micros").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum, 700);
        assert_eq!(h.max, 400);
        assert_eq!(snap.counter("absent"), 0);
        assert!(snap.histogram("jobs_total").is_none());
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("x"), 2);
        assert_eq!(reg.snapshot().iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.histogram("x");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = Registry::new();
        reg.counter("jobs_total").add(3);
        reg.gauge("peak_queued").set_max(9);
        let h = reg.histogram("lat_micros");
        h.record(1);
        h.record(1);
        h.record(40);
        let text = reg.snapshot().prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 3"));
        assert!(text.contains("# TYPE peak_queued gauge"));
        assert!(text.contains("peak_queued 9"));
        assert!(text.contains("# TYPE lat_micros histogram"));
        assert!(text.contains("lat_micros_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_micros_sum 42"));
        assert!(text.contains("lat_micros_count 3"));
    }

    #[test]
    fn info_metric_exposes_its_label() {
        let mut reg = Registry::new();
        reg.info("build_isa", "isa", "avx2");
        let text = reg.snapshot().prometheus();
        assert!(text.contains("# TYPE build_isa gauge\n"), "{text}");
        assert!(text.contains("build_isa{isa=\"avx2\"} 1\n"), "{text}");
    }
}
