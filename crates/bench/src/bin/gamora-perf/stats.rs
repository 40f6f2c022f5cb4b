//! Order statistics the end-to-end metrics are made of.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q)]
}

/// The highest ladder percentile not above `wanted` that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median has
/// fewer.
pub fn tail_quantile(n: usize, wanted: f64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .filter(|&q| q <= wanted)
        .find(|&q| n > 0 && n - (rank(n, q) + 1) >= MIN_BEYOND)
}

/// The fewest samples of which quantile `q` (below 1) leaves [`MIN_BEYOND`]
/// beyond it.
pub fn min_samples(q: f64) -> usize {
    (MIN_BEYOND..)
        .find(|&n| n - (rank(n, q) + 1) >= MIN_BEYOND)
        .expect("some count is large enough")
}

/// Quantile `q` of each segment's share of `per_job` (a per-job sample list
/// in the order the segments index), ascending.
pub fn segment_quantiles(per_job: &[u64], cut: &[Segment], q: f64) -> Vec<u64> {
    let mut out: Vec<u64> = cut
        .iter()
        .map(|s| {
            let mut samples = per_job[s.jobs.clone()].to_vec();
            samples.sort_unstable();
            quantile(&samples, q)
        })
        .collect();
    out.sort_unstable();
    out
}

/// Median of a non-empty list (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One equal-count run of completions: jobs `jobs.start..jobs.end` in
/// completion order, finished between `opened_ns` and `closed_ns`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    pub jobs: std::ops::Range<usize>,
    pub opened_ns: u64,
    pub closed_ns: u64,
}

impl Segment {
    pub fn seconds(&self) -> f64 {
        (self.closed_ns - self.opened_ns).max(1) as f64 / 1e9
    }

    /// Jobs per second.
    pub fn rate(&self) -> f64 {
        self.jobs.len() as f64 / self.seconds()
    }
}

/// Cuts completions into about `segments` runs of equal job count, a multiple
/// of `align` (so that every run holds whole batches and whole rounds of the
/// job mix and all runs are the same work). `done_ns[i]` is the completion
/// time of the `i`-th finished job since the window opened, non-decreasing.
/// Jobs beyond the last whole run are left out.
pub fn segments(done_ns: &[u64], segments: usize, align: usize) -> Vec<Segment> {
    let n = done_ns.len();
    let len = ((n / segments) / align * align).max(align);
    let mut out = Vec::with_capacity(segments);
    let mut opened_ns = 0u64;
    for start in (0..n.saturating_sub(len - 1)).step_by(len) {
        let closed_ns = done_ns[start + len - 1];
        out.push(Segment {
            jobs: start..start + len,
            opened_ns,
            closed_ns,
        });
        opened_ns = closed_ns;
    }
    out
}

/// The segment with the median rate (the slower middle one of an even
/// count); `None` without segments.
pub fn median_segment(all: &[Segment]) -> Option<&Segment> {
    let mut by_rate: Vec<&Segment> = all.iter().collect();
    by_rate.sort_by(|a, b| a.rate().partial_cmp(&b.rate()).expect("rates are finite"));
    by_rate.get(by_rate.len().checked_sub(1)? / 2).copied()
}

/// The quiet part of a window: its fastest `share` of segments (at least
/// one), in window order. A diagnostic, never a metric: interference from
/// outside the program only ever slows a stretch down, so a quiet part far
/// faster than the median segment marks a disturbed run; but a program that
/// stalls itself looks the same.
pub fn quiet(mut all: Vec<Segment>, share: f64) -> Vec<Segment> {
    let keep = ((all.len() as f64 * share).round() as usize).clamp(1.min(all.len()), all.len());
    all.sort_by(|a, b| b.rate().partial_cmp(&a.rate()).expect("rates are finite"));
    all.truncate(keep);
    all.sort_by_key(|s| s.jobs.start);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.90), 90);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_honours_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999 only 9.
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(999, 0.99), Some(0.95));
        // A workload capped at p90 never reports higher, however many samples.
        assert_eq!(tail_quantile(1_000_000, 0.90), Some(0.90));
        assert_eq!(tail_quantile(100, 0.90), Some(0.90));
        assert_eq!(tail_quantile(99, 0.90), Some(0.75));
        assert_eq!(tail_quantile(40, 0.75), Some(0.75));
        assert_eq!(tail_quantile(39, 0.75), Some(0.50));
        assert_eq!(tail_quantile(20, 0.75), Some(0.50));
        assert_eq!(tail_quantile(19, 0.75), None);
        assert_eq!(tail_quantile(0, 0.99), None);
    }

    #[test]
    fn min_samples_is_where_the_ladder_first_allows_the_percentile() {
        for q in [0.50, 0.75, 0.90, 0.99] {
            let n = min_samples(q);
            assert_eq!(tail_quantile(n, q), Some(q), "{q}");
            assert_ne!(tail_quantile(n - 1, q), Some(q), "{q}");
        }
        assert_eq!(min_samples(0.90), 100);
    }

    #[test]
    fn segment_quantiles_are_per_segment_and_ascending() {
        // Three 10-job segments, one per millisecond; the second one's
        // slowest two jobs took 50 and 90, the third's slowest one 70.
        let done: Vec<u64> = (1..=30).map(|i| i * 1_000_000).collect();
        let mut latency = vec![5u64; 30];
        latency[13] = 90;
        latency[17] = 50;
        latency[29] = 70;
        let cut = segments(&done, 3, 1);
        assert_eq!(segment_quantiles(&latency, &cut, 0.90), vec![5, 5, 50]);
        assert_eq!(segment_quantiles(&latency, &cut, 1.0), vec![5, 70, 90]);
        assert!(segment_quantiles(&latency, &[], 0.9).is_empty());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn segments_are_equal_aligned_work() {
        // 103 jobs, one per millisecond: 10 segments of 10, 3 jobs left out.
        let done: Vec<u64> = (1..=103).map(|i| i * 1_000_000).collect();
        let cut = segments(&done, 10, 1);
        assert_eq!(cut.len(), 10);
        assert!(cut.iter().all(|s| s.jobs.len() == 10));
        assert_eq!(cut[3].jobs, 30..40);
        assert_eq!(
            (cut[3].opened_ns, cut[3].closed_ns),
            (30_000_000, 40_000_000)
        );
        assert!((cut[3].rate() - 1000.0).abs() < 1e-6);
        // Aligned to batches of 8: 12 segments of 8.
        let cut = segments(&done, 10, 8);
        assert_eq!(cut.len(), 12);
        assert!(cut.iter().all(|s| s.jobs.len() == 8));
        // Fewer jobs than one aligned segment: nothing to report.
        assert!(segments(&done[..5], 10, 8).is_empty());
        assert!(segments(&[], 10, 1).is_empty());
    }

    #[test]
    fn median_segment_ignores_a_slow_and_a_fast_minority() {
        // Five 10-job segments taking 10, 50, 11, 2 and 12 ms.
        let mut done = Vec::new();
        let mut now = 0u64;
        for step_us in [1000u64, 5000, 1100, 200, 1200] {
            for _ in 0..10 {
                now += step_us * 1000;
                done.push(now);
            }
        }
        let cut = segments(&done, 5, 1);
        let median = median_segment(&cut).expect("five segments");
        assert_eq!(median.jobs, 20..30);
        assert!((median.rate() - 10.0 / 0.011).abs() < 1e-6);
        // Of four, the slower middle one.
        assert_eq!(
            median_segment(&cut[..4]).map(|s| s.jobs.clone()),
            Some(20..30)
        );
        assert_eq!(
            median_segment(&cut[..1]).map(|s| s.jobs.clone()),
            Some(0..10)
        );
        assert!(median_segment(&[]).is_none());
    }

    #[test]
    fn quiet_part_is_the_fastest_share_in_window_order() {
        // Ten 4-job segments; the 3rd, 4th and 9th take ten times as long.
        let mut done = Vec::new();
        let mut now = 0u64;
        for segment in 0..10 {
            let step = if [2, 3, 8].contains(&segment) {
                10_000_000
            } else {
                1_000_000
            };
            for _ in 0..4 {
                now += step;
                done.push(now);
            }
        }
        let all = segments(&done, 10, 1);
        assert_eq!(all.len(), 10);
        let kept = quiet(all.clone(), 0.5);
        let starts: Vec<usize> = kept.iter().map(|s| s.jobs.start).collect();
        assert_eq!(kept.len(), 5);
        assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "window order: {starts:?}"
        );
        assert!(
            kept.iter().all(|s| (s.rate() - 1000.0).abs() < 1e-6),
            "{kept:?}"
        );
        // At least one segment survives, and never more than there are.
        assert_eq!(quiet(all.clone(), 0.01).len(), 1);
        assert_eq!(quiet(all, 2.0).len(), 10);
        assert!(quiet(Vec::new(), 0.25).is_empty());
    }
}
