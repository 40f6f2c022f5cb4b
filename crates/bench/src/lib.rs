//! The library half of the `gamora-perf` benchmark (`src/bin/gamora-perf`):
//! [`PeakAlloc`], the peak-tracking allocator behind its `peak_heap_mib`.
//!
//! The paper's figures are not benches: `tests/end_to_end.rs` at the
//! workspace root checks them against `REPRO.md`.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
