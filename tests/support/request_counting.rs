//! A global allocator that adds up the bytes a thread requests while it
//! counts — shared by the fuzz tests that bound what a hostile input can
//! make a reader ask for. Each includes this file with
//! `#[path = "…/tests/support/request_counting.rs"] mod request_counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    /// Bytes the current thread has requested from the allocator while
    /// it was counting (`None` = not counting).
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// System allocator wrapper that adds up the sizes a counting thread
/// asks for (frees are not credited back: the bound is on requests).
struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with` so allocations during TLS teardown never panic.
    let _ = REQUESTED.try_with(|r| r.set(r.get().map(|n| n + bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `count` only touches a `const`-initialised
// thread-local through `try_with`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this wrapper)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` meet `realloc`'s contract
        // by the caller's guarantee, and `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes this thread requested
/// from the allocator meanwhile.
pub fn counting_requests<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|r| r.set(Some(0)));
    let out = f();
    let requested = REQUESTED.with(|r| r.replace(None));
    (out, requested.expect("counting was on"))
}
