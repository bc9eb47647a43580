//! Sample digests: medians, supported percentiles and the per-class
//! report's statistics.

use parambench_stats::bootstrap::{bootstrap_ci, ConfidenceInterval};
use parambench_stats::summary::Summary;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is a handful of outliers, not a rank.
pub const MIN_BEYOND: usize = 10;

/// Samples that lie beyond the `pct`-th percentile of `n` samples.
pub fn beyond(n: usize, pct: u32) -> usize {
    n * (100 - pct.min(100) as usize) / 100
}

/// The highest of `candidates` (percent values such as 99, 90, 50) with at
/// least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates.iter().copied().filter(|&p| beyond(n, p) >= MIN_BEYOND).max()
}

/// Interpolated quantile (`q` in `[0, 1]`) of a sample; 0 for an empty one,
/// so a layer the workload never exercised reads as zero work.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    Summary::new(values).map_or(0.0, |s| s.quantile(q))
}

/// Median of a sample; 0 when empty (see [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Coefficient of variation; `None` below two samples.
pub fn cv(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| Summary::new(values).map(|s| s.coeff_of_variation())).flatten()
}

/// 95% percentile-bootstrap interval of the median.
pub fn median_ci(values: &[f64], seed: u64) -> Option<ConfidenceInterval> {
    bootstrap_ci(values, |s| Summary::new(s).map_or(0.0, |d| d.median()), 200, 0.95, seed)
}

/// Q-error of an estimate against a measurement, both floored at one so
/// an empty result neither divides by zero nor hides a wrong estimate.
pub fn qerror(estimate: f64, actual: f64) -> f64 {
    let (e, a) = (estimate.max(1.0), actual.max(1.0));
    (e / a).max(a / e)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples needed before the `pct`-th percentile is supported.
    fn samples_for(pct: u32) -> usize {
        (1..)
            .find(|&n| beyond(n, pct) >= MIN_BEYOND)
            .expect("every percentile below 100 is reachable")
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for(99), 1000);
        assert_eq!(samples_for(90), 100);
        assert_eq!(samples_for(50), 20);
        assert_eq!(highest_supported(999, &[50, 90, 99]), Some(90));
        assert_eq!(highest_supported(1000, &[50, 90, 99]), Some(99));
        assert_eq!(highest_supported(99, &[50, 90, 99]), Some(50));
        assert_eq!(highest_supported(19, &[50, 90, 99]), None);
    }

    #[test]
    fn empty_samples_read_as_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(cv(&[1.0]).is_none());
    }

    #[test]
    fn qerror_is_symmetric_and_floored() {
        assert_eq!(qerror(10.0, 100.0), 10.0);
        assert_eq!(qerror(100.0, 10.0), 10.0);
        assert_eq!(qerror(0.0, 0.0), 1.0);
    }
}
