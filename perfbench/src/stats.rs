//! Summary statistics: percentiles with their sample support, medians,
//! and deltas of the engine's cumulative stage histograms.

use dbi_service::telemetry::LatencyStats;

/// Samples a reported percentile must leave beyond it: a tail quantile
/// resting on fewer samples is a guess, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p` percentile of ascending `sorted`, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie above it.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest sample with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The samples one cumulative stage histogram gained between two reads.
///
/// # Panics
///
/// Panics when `after` has fewer samples than `before` in any bucket —
/// the reads were swapped or taken from different engines.
#[must_use]
pub fn stage_delta(after: &LatencyStats, before: &LatencyStats) -> LatencyStats {
    let mut delta = *after;
    for (mine, earlier) in delta.buckets.iter_mut().zip(&before.buckets) {
        *mine = mine
            .checked_sub(*earlier)
            .expect("stage histograms only grow");
    }
    delta.count = after.count - before.count;
    delta.sum_ns = after.sum_ns - before.sum_ns;
    delta
}

/// A stage-histogram percentile in microseconds (0 for an empty delta).
#[must_use]
pub fn stage_us(stats: &LatencyStats, p: f64) -> f64 {
    stats.percentile_ns(p) as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_service::telemetry::LatencyHistogram;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples is sample 990, with exactly ten above.
        assert_eq!(percentile(&samples, 0.99), Some(990));
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples, 0.5), Some(500));
        assert_eq!(percentile(&samples[..20], 0.5), Some(10));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn stage_delta_keeps_only_the_window_samples() {
        let hist = LatencyHistogram::default();
        for _ in 0..100 {
            hist.record(100_000);
        }
        let before = hist.snapshot();
        for _ in 0..50 {
            hist.record(1_000);
        }
        let delta = stage_delta(&hist.snapshot(), &before);
        assert_eq!(delta.count, 50);
        assert_eq!(delta.sum_ns, 50_000);
        // Every window sample sits in the [512, 1024) ns bucket, so the
        // delta's median lands there, far below the earlier samples.
        let p50 = delta.percentile_ns(0.5);
        assert!((512..1024).contains(&p50), "{p50}");
        assert_eq!(stage_us(&stage_delta(&before, &before), 0.5), 0.0);
    }
}
