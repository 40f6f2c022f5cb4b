//! Shared infrastructure for the `gamora-perf` benchmark and the two
//! `cargo bench` programs (`micro`, `cache_contention`): a timer, the
//! multiplier workloads, an aligned result table, and the peak-tracking
//! allocator behind `gamora-perf`'s `peak_heap_mib`.
//!
//! The paper's figures are not benches: `tests/end_to_end.rs` at the
//! workspace root checks them against `REPRO.md`.

#![warn(missing_docs)]

use gamora_circuits::{generate_multiplier, ArithCircuit, MultiplierKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A system-allocator wrapper tracking live and peak heap usage — the
/// host-memory stand-in for the paper's GPU memory meter (Figure 8).
/// Install it with `#[global_allocator]`; the counters are process-wide.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // should not panic
    }
}
