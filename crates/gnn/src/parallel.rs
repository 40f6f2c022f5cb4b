//! Thread-parallel helpers (the CPU stand-in for the paper's GPU kernels).
//!
//! `std::thread::scope` threads process disjoint row blocks; small
//! workloads fall back to serial execution so training on tiny graphs is
//! not dominated by thread-spawn overhead.

std::thread_local! {
    /// Per-thread intra-op parallelism cap installed by
    /// [`set_intra_threads`] (0 = uncapped). Serve workers pin this at
    /// startup so `workers x kernel threads` never oversubscribes the
    /// machine; tests pin it to force the serial or parallel path
    /// deterministically.
    static INTRA_LIMIT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Caps the parallelism of every kernel call made *from the
/// calling thread* to `limit` threads. `1` forces fully serial execution,
/// `0` removes the cap. The cap takes precedence over hardware detection
/// — it is the per-worker budget a worker pool sets once on each worker
/// thread after consulting [`num_threads`] itself.
pub fn set_intra_threads(limit: usize) {
    INTRA_LIMIT.with(|c| c.set(limit));
}

/// The calling thread's intra-op parallelism cap (0 = uncapped).
pub fn intra_threads() -> usize {
    INTRA_LIMIT.with(|c| c.get())
}

/// Number of worker threads: the calling thread's [`set_intra_threads`]
/// cap if one is installed, else the machine's available parallelism.
///
/// Hardware detection is cached: `available_parallelism` reads cgroup
/// files on Linux (allocating on every call), which would put heap churn
/// and syscalls on the allocation-free inference hot path.
pub fn num_threads() -> usize {
    let cap = INTRA_LIMIT.with(|c| c.get());
    if cap > 0 {
        return cap;
    }
    static DETECTED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Minimum rows each worker thread must have to justify its spawn cost
/// (scoped threads are real OS threads, ~tens of microseconds
/// each; training graphs with a few thousand nodes must stay serial).
const MIN_ROWS_PER_THREAD: usize = 4096;

/// Applies `f(first_row_index, block)` to consecutive blocks of up to
/// `block_rows` full `width`-sized rows of `data`, in parallel over row
/// ranges. Thread boundaries land on block multiples, so a multi-row
/// register tile is never split across workers; the final block may hold
/// fewer than `block_rows` rows.
///
/// # Panics
///
/// Panics if `width` is zero while `data` is non-empty, if `data.len()`
/// is not a multiple of `width`, or if `block_rows` is zero.
pub fn for_each_row_block<F>(data: &mut [f32], width: usize, block_rows: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    for_each_row_block_with(
        data,
        width,
        block_rows,
        &mut Vec::new(),
        0,
        |row0, block, _| f(row0, block),
    );
}

/// [`for_each_row_block`] for a body that needs working memory: every
/// worker calls `f(first_row_index, block, lane)` with its own
/// `lane_len`-element stretch of `lanes`, which is grown here — to exactly
/// one stretch per worker — when it is too short. A lane keeps whatever
/// the previous block left in it.
///
/// # Panics
///
/// As [`for_each_row_block`]. A panic in `f` on a worker thread is
/// re-raised on the calling thread with its own payload.
pub(crate) fn for_each_row_block_with<F>(
    data: &mut [f32],
    width: usize,
    block_rows: usize,
    lanes: &mut Vec<f32>,
    lane_len: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        width > 0 && data.len().is_multiple_of(width),
        "bad row width"
    );
    assert!(block_rows > 0, "bad block height");
    let rows = data.len() / width;
    let nt = effective_threads(rows);
    if lanes.len() < nt * lane_len {
        crate::tensor::clear_exact(lanes, nt * lane_len);
        lanes.resize(nt * lane_len, 0.0);
    }
    if nt <= 1 {
        let lane = &mut lanes[..lane_len];
        for (blk, chunk) in data.chunks_mut(block_rows * width).enumerate() {
            f(blk * block_rows, chunk, lane);
        }
        return;
    }
    let rows_per = rows.div_ceil(nt).next_multiple_of(block_rows);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(nt);
        let mut rest = data;
        let mut lanes_rest = &mut lanes[..];
        let mut start_row = 0;
        while !rest.is_empty() {
            let take = (rows_per * width).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let (lane, lanes_tail) = lanes_rest.split_at_mut(lane_len);
            let fref = &f;
            let sr = start_row;
            handles.push(s.spawn(move || {
                for (i, chunk) in head.chunks_mut(block_rows * width).enumerate() {
                    fref(sr + i * block_rows, chunk, lane);
                }
            }));
            start_row += take / width;
            rest = tail;
            lanes_rest = lanes_tail;
        }
        join_all(handles);
    });
}

/// Joins every handle, then re-raises the first panic among them with its
/// own payload. (Joined here, not by the scope: an unjoined thread's panic
/// leaves the scope as "a scoped thread panicked", its message lost.)
fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    let mut first_panic = None;
    for handle in handles {
        if let Err(payload) = handle.join() {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Cuts `data` into one run of consecutive elements per state, of equal
/// length but for a shorter last one, and calls `f(run, first_index,
/// elements, state)` for each: the first run on the calling thread, every
/// other one on a scoped thread of its own. The same length and state
/// count always give the same runs.
///
/// # Panics
///
/// A panic in `f` is re-raised on the calling thread with its own payload.
pub(crate) fn for_each_run_with<T, S, F>(data: &mut [T], states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(usize, usize, &mut [T], &mut S) + Sync,
{
    let per = data.len().div_ceil(states.len().max(1)).max(1);
    let mut runs = data
        .chunks_mut(per)
        .chain(std::iter::repeat_with(|| &mut [][..]));
    let Some((first, rest)) = states.split_first_mut() else {
        return;
    };
    let head = runs.next().expect("an endless chain");
    if rest.is_empty() {
        f(0, 0, head, first);
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(runs)
            .enumerate()
            .map(|(i, (state, run))| s.spawn(move || f(i + 1, (i + 1) * per, run, state)))
            .collect();
        f(0, 0, head, first);
        join_all(handles);
    });
}

/// Number of worker threads worth spawning for a `rows`-sized workload.
/// Decided from the row count alone first: the serial path must stay
/// completely free of [`num_threads`]' env lookup and its allocation (it
/// is the steady state of warmed-up inference).
pub fn effective_threads(rows: usize) -> usize {
    if rows / MIN_ROWS_PER_THREAD <= 1 {
        1
    } else {
        threads_for(rows, num_threads())
    }
}

/// How many of `threads` threads a `rows`-sized workload forks to:
/// [`effective_threads`] under a cap of `threads`.
pub fn threads_for(rows: usize, threads: usize) -> usize {
    let max_useful = rows / MIN_ROWS_PER_THREAD;
    if max_useful <= 1 {
        1
    } else {
        threads.clamp(1, max_useful)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-row blocks: the body sees every row once, with its own index.
    #[test]
    fn for_each_row_visits_every_row_once() {
        let width = 4;
        let rows = 1000;
        let mut data = vec![0.0f32; rows * width];
        for_each_row_block(&mut data, width, 1, |r, chunk| {
            for v in chunk.iter_mut() {
                *v += r as f32 + 1.0;
            }
        });
        for r in 0..rows {
            for c in 0..width {
                assert_eq!(data[r * width + c], r as f32 + 1.0);
            }
        }
    }

    #[test]
    fn for_each_row_serial_path() {
        let mut data = vec![1.0f32; 8];
        for_each_row_block(&mut data, 2, 1, |r, chunk| chunk[0] = r as f32);
        assert_eq!(data, vec![0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0]);
    }

    /// Row blocks tile the data exactly once, blocks never split across
    /// the parallel boundary, and the first-row index is always a block
    /// multiple — for row counts on and off the block height.
    #[test]
    fn for_each_row_block_visits_every_row_once_in_aligned_blocks() {
        let width = 3;
        for rows in [1usize, 4, 7, 4096 * 3 + 2] {
            let mut data = vec![0.0f32; rows * width];
            for_each_row_block(&mut data, width, 4, |row0, block| {
                assert_eq!(row0 % 4, 0, "blocks start on tile boundaries");
                assert!(block.len() <= 4 * width);
                assert!(block.len().is_multiple_of(width), "only whole rows");
                for (i, chunk) in block.chunks_mut(width).enumerate() {
                    for v in chunk.iter_mut() {
                        *v += (row0 + i) as f32 + 1.0;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..width {
                    assert_eq!(data[r * width + c], r as f32 + 1.0, "rows = {rows}");
                }
            }
        }
    }

    /// A body that panics on a worker thread panics the call with its own
    /// message, not the scope's generic one.
    #[test]
    fn a_worker_panic_keeps_its_message() {
        set_intra_threads(2);
        let mut data = vec![0.0f32; 2 * MIN_ROWS_PER_THREAD + 8];
        assert_eq!(effective_threads(data.len()), 2, "the parallel path");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_row_block(&mut data, 1, 4, |row0, _| {
                if row0 > 0 {
                    panic!("boom");
                }
            });
        }));
        set_intra_threads(0);
        let payload = caught.expect_err("the body panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: Vec<f32> = Vec::new();
        for_each_row_block(&mut empty, 4, 1, |_, _| panic!("must not be called"));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
        // Uncapped, the count is the machine's and nothing else's.
        set_intra_threads(0);
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(num_threads(), detected);
    }

    #[test]
    fn intra_thread_cap_overrides_detection() {
        set_intra_threads(3);
        assert_eq!(num_threads(), 3);
        assert_eq!(intra_threads(), 3);
        set_intra_threads(0);
        assert_eq!(intra_threads(), 0);
        assert!(num_threads() >= 1);
    }
}
