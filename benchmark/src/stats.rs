//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between the two nearest ranks, so a reported time keeps all the
/// digits the samples carry.
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a metric that must
/// have samples, and a silent 0 would read as a perfect result.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// Median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for no samples (used only for per-layer means
/// where "the layer was not exercised" legitimately reads 0).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it — the rule the README states for every tail the
/// benchmark reports.
pub fn supported_tail(samples: usize) -> f64 {
    // Per mille, so the count beyond the percentile is exact.
    [999, 990, 950, 900]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) / 1000 >= 10)
        .map_or(0.5, |per_mille| per_mille as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        // Rank 0.9 * 3 = 2.7: 70 % of the way from 3 to 4.
        assert!((quantile_sorted(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_sample_is_not_a_zero() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(50), 0.5);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
