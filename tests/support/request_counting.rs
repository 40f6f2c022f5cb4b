//! A global allocator that counts what a thread asks of it while it
//! counts — shared by the allocation guards of the inference and training
//! hot paths and by the fuzz tests that bound what a hostile input can
//! make a reader ask for. Each includes this file with
//! `#[path = "…/tests/support/request_counting.rs"] mod request_counting;`.
//!
//! Only the thread inside [`counting`] is observed: the libtest harness
//! thread runs concurrently, and its channel waits can allocate at
//! arbitrary points.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What one thread asked of the allocator inside one [`counting`] window.
#[derive(Copy, Clone, Debug, Default)]
pub struct Counts {
    /// Allocation calls: `alloc`, `alloc_zeroed` and `realloc` (releases
    /// are free to happen; only acquisitions are churn).
    pub calls: usize,
    /// Bytes requested: every allocation's size and every reallocation's
    /// new size (releases are not credited back).
    pub requested: usize,
    /// Bytes requested minus bytes released, wrapping: a window may
    /// release what was allocated before it.
    pub live: usize,
}

std::thread_local! {
    /// The current thread's counts while it is counting (`None` = not
    /// counting).
    static COUNTS: Cell<Option<Counts>> = const { Cell::new(None) };
}

/// Bytes every thread of the process holds, wrapping.
static HELD: AtomicUsize = AtomicUsize::new(0);

/// Adds to the current thread's counts if it is counting, and to the
/// process's held bytes; `live` is a wrapping delta.
fn count(calls: usize, requested: usize, live: usize) {
    HELD.fetch_add(live, Ordering::Relaxed);
    // `try_with` so allocations during TLS teardown never panic.
    let _ = COUNTS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(Counts {
                calls: n.calls + calls,
                requested: n.requested + requested,
                live: n.live.wrapping_add(live),
            }));
        }
    });
}

/// System allocator wrapper that counts a counting thread's requests.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `count` only touches a `const`-initialised
// thread-local through `try_with`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, layout.size().wrapping_neg());
        // SAFETY: `ptr` was allocated by `System` (through this wrapper)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size.wrapping_sub(layout.size()));
        // SAFETY: `ptr`, `layout` and `new_size` meet `realloc`'s contract
        // by the caller's guarantee, and `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with what this thread asked of the
/// allocator meanwhile. What `f` returns is dropped outside the window.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|c| c.set(Some(Counts::default())));
    let out = f();
    let counts = COUNTS.with(|c| c.replace(None));
    (out, counts.expect("counting was on"))
}

/// Runs `f` and returns its result with the bytes the whole process holds
/// more after it than before: what `f` keeps, including what threads it
/// forked allocated and left behind. Every other thread's allocations
/// count too, so callers keep the process otherwise quiet (the tests of a
/// binary serialise on a lock).
#[allow(dead_code)] // the footprint guards' only
pub fn held_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = HELD.load(Ordering::Relaxed);
    let out = f();
    (out, HELD.load(Ordering::Relaxed).wrapping_sub(before))
}
