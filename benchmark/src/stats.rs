//! Order statistics over timing samples.

use std::time::Duration;

/// The percentiles a tail may be reported at, in per mille.
const LADDER: [usize; 4] = [500, 900, 990, 999];

/// Samples a percentile needs beyond it before it is worth reporting.
const SAMPLES_BEYOND: usize = 10;

/// The highest percentile of the ladder that still has at least ten of
/// `samples` beyond it (the median when even p90 has not).
pub fn supported_percentile(samples: usize) -> f64 {
    let per_mille = LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| samples * (1000 - p) >= SAMPLES_BEYOND * 1000)
        .unwrap_or(LADDER[0]);
    per_mille as f64 / 10.0
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `values` ascending (timings are never `NaN`).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 50.0)
}

/// A duration in microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(15), 50.0);
        assert_eq!(supported_percentile(99), 50.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(999), 90.0);
        assert_eq!(supported_percentile(1_000), 99.0);
        assert_eq!(supported_percentile(9_999), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
    }

    #[test]
    fn nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 99.9), 100.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
