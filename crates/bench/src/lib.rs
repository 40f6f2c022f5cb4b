//! Shared infrastructure for the figure-regeneration benches: scale
//! selection, workload/training helpers, result tables, and a
//! peak-tracking allocator for the memory measurements of Figure 8.

#![warn(missing_docs)]

use gamora::{FeatureMode, GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_circuits::{generate_multiplier, ArithCircuit, MultiplierKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Experiment scale, selected by the `GAMORA_SCALE` environment variable
/// (`quick`, `default`, `paper`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Minutes-level smoke run.
    Quick,
    /// CPU-friendly defaults (the scale when `GAMORA_SCALE` is unset).
    Default,
    /// Paper-sized sweeps (hours on a workstation).
    Paper,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("GAMORA_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("paper") => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// Picks one of three values by scale.
    pub fn pick<T>(self, quick: T, default: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Paper => paper,
        }
    }
}

/// Times a closure, returning its result and elapsed seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Generates (and caches nothing — generators are fast) a multiplier.
pub fn workload(kind: MultiplierKind, bits: usize) -> ArithCircuit {
    generate_multiplier(kind, bits)
}

/// Trains a reasoner on multipliers of the given widths.
pub fn train_reasoner(
    kind: MultiplierKind,
    widths: &[usize],
    depth: ModelDepth,
    feature_mode: FeatureMode,
    multi_task: bool,
    epochs: usize,
) -> GamoraReasoner {
    let circuits: Vec<ArithCircuit> = widths.iter().map(|&b| workload(kind, b)).collect();
    let refs: Vec<&gamora_aig::Aig> = circuits.iter().map(|c| &c.aig).collect();
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth,
        feature_mode,
        multi_task,
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &refs,
        &TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
    );
    reasoner
}

/// A simple aligned text table for bench output.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Formats seconds as engineering-friendly milliseconds/seconds.
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1.0 {
        format!("{:.1} ms", seconds * 1e3)
    } else {
        format!("{seconds:.2} s")
    }
}

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A system-allocator wrapper tracking live and peak heap usage — the
/// stand-in for the paper's GPU memory meter in Figure 8.
pub struct PeakAlloc;

// SAFETY: every allocation and deallocation is forwarded unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the wrapper only
// updates two atomic counters and never allocates itself.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations (non-zero size) are
        // passed on to `System.alloc` as they were received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout` — the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        ALLOCATED.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

impl PeakAlloc {
    /// Live heap bytes.
    pub fn current() -> usize {
        ALLOCATED.load(Ordering::Relaxed)
    }

    /// Peak heap bytes since the last [`PeakAlloc::reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live size.
    pub fn reset_peak() {
        PEAK.store(ALLOCATED.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Bytes formatted as MiB/GiB.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // should not panic
        assert_eq!(pct(0.5), "50.00");
        assert!(fmt_time(0.001).contains("ms"));
        assert!(fmt_time(2.0).contains("s"));
        assert!(fmt_bytes(1 << 20).contains("MiB"));
        assert!(fmt_bytes(1 << 31).contains("GiB"));
    }
}
