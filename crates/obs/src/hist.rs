//! Lock-free log-linear latency histogram.
//!
//! Values (typically microseconds) are binned into preallocated atomic
//! buckets: an exact linear region for small values followed by
//! [`SUB_BUCKETS`] sub-buckets per power of two (HDR-histogram style), which
//! bounds relative bucket width to `1/SUB_BUCKETS` (~3.1%). Recording is a
//! handful of relaxed atomic RMWs — no locks, no allocation — so histograms
//! can be shared freely across worker threads.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// log2 of the number of sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two (32 → ≤ ~3.1% relative bucket width).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total preallocated buckets covering the full `u64` range.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS as usize;

/// Map a value to its bucket index. Monotone non-decreasing in `v`; exact
/// (width-1 buckets) for `v < SUB_BUCKETS`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let offset_exp = exp - SUB_BITS;
        // v >> offset_exp is in [SUB_BUCKETS, 2*SUB_BUCKETS).
        (offset_exp as usize) * SUB_BUCKETS as usize + (v >> offset_exp) as usize
    }
}

/// Smallest value mapping to bucket `index` (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        index as u64
    } else {
        let offset_exp = (index as u64 / SUB_BUCKETS) - 1;
        let mantissa = index as u64 - offset_exp * SUB_BUCKETS;
        mantissa << offset_exp
    }
}

/// Largest value mapping to bucket `index`.
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        index as u64
    } else {
        let offset_exp = (index as u64 / SUB_BUCKETS) - 1;
        bucket_lower(index) + ((1u64 << offset_exp) - 1)
    }
}

/// A lock-free histogram with preallocated atomic buckets.
///
/// `record` is wait-free (relaxed `fetch_add`/`fetch_min`/`fetch_max`) and
/// allocation-free; concurrent recorders never contend on a lock. Snapshots
/// are taken with [`Histogram::snapshot`].
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram (~15 KiB of buckets).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Wait-free and allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Capture an immutable snapshot for percentile extraction.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSnapshot {
            buckets: buckets.into_boxed_slice(),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], queryable.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: Box<[u64]>,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0u64; NUM_BUCKETS].into_boxed_slice(),
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Per-bucket counts, paired with `(lower, upper)` value bounds.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(i, &n)| (bucket_lower(i), bucket_upper(i), n))
    }

    /// Extract the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// Uses the nearest-rank definition: rank `ceil(q * count)` clamped to
    /// `[1, count]`. The returned value is the lower bound of the bucket
    /// holding that rank, clamped to the observed `[min, max]`, so it always
    /// falls in the same bucket as the exact order statistic — agreement with
    /// a sorted-vector oracle is bucket-exact (and value-exact in the linear
    /// region below `SUB_BUCKETS`).
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lower(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_invertible() {
        // Increasing sweep across every octave: indexes must never regress
        // and every value must fall inside its bucket's bounds.
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            let base = 1u64 << shift;
            for delta in [0u64, 1, 2, 3] {
                probes.push(base.saturating_sub(1).saturating_add(delta));
            }
        }
        probes.sort_unstable();
        let mut prev = 0usize;
        for v in probes {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} i={i}");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
        // Linear region is exact.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_lower(bucket_index(v)), v);
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn buckets_tile_contiguously() {
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper(i) + 1,
                bucket_lower(i + 1),
                "gap or overlap between buckets {i} and {}",
                i + 1
            );
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_percentiles_small_exact() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 5050);
        // p50 of 1..=100 by nearest rank is the 50th value = 50; values <= 31
        // are exact, larger ones bucket-approximate. 50 falls in bucket
        // [48, 49]... check bucket agreement instead for values >= 32.
        let p50 = s.percentile(0.50);
        assert_eq!(bucket_index(p50), bucket_index(50));
        let p10 = s.percentile(0.10);
        assert_eq!(p10, 10); // exact linear region
        assert_eq!(
            s.percentile(1.0),
            s.percentile(0.999).max(s.percentile(1.0))
        );
        assert!(s.percentile(1.0) <= 100);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }
}
