//! Order statistics for timings: median, quartiles and the tail percentile
//! the benchmark reports beside every median.
//!
//! A tail is only worth reporting when enough samples lie beyond it to make
//! it repeatable, so [`tail`] picks the highest percentile of a fixed ladder
//! that still has at least [`MIN_BEYOND`] samples strictly above its rank.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile `pct` (0..=100) of ascending `sorted`: the sample
/// at 1-based rank `ceil(pct/100 · n)`, clamped to `1..=n`.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

fn nearest_rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median of `samples` (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// its rank, as `(percentile, value)`; `None` when even the median lacks them.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&pct| n >= 1 && n - nearest_rank(n, pct) >= MIN_BEYOND)
        .map(|&pct| (pct, percentile_sorted(&sorted, pct)))
}

/// Ascending copy of `samples`. Timings are never NaN; a NaN would sort last.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990, exactly 10 beyond -> p99 qualifies,
        // p99.9 (rank 999, 1 beyond) does not.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        // 999 samples: p99 has rank 990 and only 9 beyond -> falls to p95.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().0, 95.0);
        // 10000 samples reach p99.9 (rank 9990, 10 beyond).
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.9, 9990.0)));
    }

    #[test]
    fn tail_is_absent_for_tiny_samples() {
        assert_eq!(tail(&[]), None);
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None, "median rank 10 leaves only 9 beyond");
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((50.0, 10.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        s.reverse();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
    }
}
