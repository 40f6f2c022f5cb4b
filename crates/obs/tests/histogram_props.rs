//! Property tests: `Histogram` percentile extraction against a
//! sorted-vector oracle, including bucket-boundary and single-observation
//! cases.

use gamora_obs::{bucket_index, bucket_lower, bucket_upper, Histogram, SUB_BUCKETS};
use proptest::collection;
use proptest::prelude::*;

/// Nearest-rank order statistic from a sorted slice — the oracle the
/// histogram percentile must agree with (same bucket; exact in the linear
/// region).
fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

const QS: [f64; 6] = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A histogram agrees with a sorted-vector oracle over all recorded
    /// values, at every quantile, to bucket precision.
    #[test]
    fn percentiles_match_oracle(
        values in (1usize..200).prop_flat_map(|n| {
            // raw >> shift mixes magnitudes from full-range u64 down to 0.
            collection::vec(
                (any::<u64>(), 0u32..64).prop_map(|(raw, shift)| raw >> shift),
                n,
            )
        }),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();

        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.count(), sorted.len() as u64);
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        let wrap_sum = sorted.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(snap.sum, wrap_sum);

        for q in QS {
            let got = snap.percentile(q);
            let want = oracle_percentile(&sorted, q);
            prop_assert_eq!(
                bucket_index(got),
                bucket_index(want),
                "q={} got={} want={}",
                q,
                got,
                want
            );
            prop_assert!(got >= snap.min && got <= snap.max);
        }
    }

    /// In the exact linear region (values < SUB_BUCKETS) percentiles equal
    /// the oracle's value exactly, not just to bucket precision.
    #[test]
    fn small_values_are_value_exact(
        values in (1usize..100).prop_flat_map(|n| {
            collection::vec(0u64..SUB_BUCKETS, n)
        }),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in QS {
            prop_assert_eq!(snap.percentile(q), oracle_percentile(&sorted, q), "q={}", q);
        }
    }

    /// A single observation is returned verbatim at every quantile.
    #[test]
    fn single_observation_is_exact(v in any::<u64>()) {
        let h = Histogram::new();
        h.record(v);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), 1);
        for q in QS {
            prop_assert_eq!(snap.percentile(q), v, "q={}", q);
        }
    }

    /// Values sitting exactly on bucket boundaries (powers of two and their
    /// neighbours) land inside their bucket's [lower, upper] bounds, and the
    /// bounds tile without gaps.
    #[test]
    fn bucket_boundaries_contain_their_values(exp in 0u32..64, delta in 0u64..3) {
        let base = 1u64 << exp;
        let v = base.saturating_sub(1).saturating_add(delta); // base-1, base, base+1
        let i = bucket_index(v);
        prop_assert!(bucket_lower(i) <= v && v <= bucket_upper(i));
        if bucket_upper(i) < u64::MAX {
            prop_assert_eq!(bucket_index(bucket_upper(i) + 1), i + 1);
        }
        let h = Histogram::new();
        h.record(v);
        prop_assert_eq!(h.snapshot().percentile(1.0), v);
    }
}
