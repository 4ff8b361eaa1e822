//! Order statistics for timings: medians, quartiles and tail percentiles
//! that are only reported when enough samples lie beyond them.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported; with fewer, the percentile is one or two stray samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` (any order), `p` in `0..=100`.
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The median, or NaN for an empty slice (a metric that could not be
/// measured, which the caller reports as a failed check).
pub fn median_or_nan(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// Number of samples that lie beyond the `p`th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The `p`th percentile, but only when at least [`MIN_BEYOND`] samples lie
/// beyond it; `None` otherwise.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    (beyond(values.len(), p) >= MIN_BEYOND)
        .then(|| percentile(values, p))
        .flatten()
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}
