//! `PeakAlloc` is the meter behind `gamora-perf`'s `peak_heap_mib`: it
//! must count what is live, remember the high-water mark across a free,
//! and restart that mark from the live size on `reset_peak`.
//!
//! The counters are process-wide, so this binary holds a single test.

use gamora_bench::PeakAlloc;
use std::hint::black_box;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const MIB: usize = 1 << 20;

#[test]
fn peak_alloc_tracks_live_and_peak_bytes() {
    PeakAlloc::reset_peak();
    assert_eq!(PeakAlloc::peak(), PeakAlloc::current());
    let (live_before, peak_before) = (PeakAlloc::current(), PeakAlloc::peak());

    let block = black_box(vec![1u8; MIB]);
    let (live, peak) = (PeakAlloc::current(), PeakAlloc::peak());
    assert!(live >= live_before + MIB, "{live_before} -> {live}");
    assert!(peak >= peak_before + MIB, "{peak_before} -> {peak}");

    drop(block);
    assert!(
        PeakAlloc::current() + MIB <= live,
        "freeing 1 MiB must lower the live count: {live} -> {}",
        PeakAlloc::current()
    );
    assert_eq!(PeakAlloc::peak(), peak, "a free must not move the peak");

    PeakAlloc::reset_peak();
    assert_eq!(PeakAlloc::peak(), PeakAlloc::current());
    assert!(PeakAlloc::peak() + MIB <= peak);
}
