//! Summary statistics: moments, quantiles, robust scale.
//!
//! The detectors derive adaptive thresholds from these primitives:
//! the PCA detector cuts residual energy at median + λ·MAD, the Gamma
//! detector normalises distances by median/MAD across sketch bins, and
//! the KL detector cuts its divergence series at median + λ·MAD.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (0 for fewer than two points).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (0 for an empty slice). Does not mutate the input.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0,1]` (0 for an empty slice).
/// Values are ordered by [`f64::total_cmp`], so a NaN input sorts
/// (a positive NaN above +∞) instead of panicking.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile outside [0,1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median absolute deviation, scaled by 1.4826 to be a consistent
/// estimator of σ under normality. Returns 0 for constant input.
pub fn mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let med = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    1.4826 * median(&devs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_of_known_set() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_give_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[]), 0.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        assert!((quantile(&xs, 1.0 / 3.0) - 20.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_does_not_mutate_input() {
        let xs = [3.0, 1.0, 2.0];
        let _ = quantile(&xs, 0.5);
        assert_eq!(xs, [3.0, 1.0, 2.0]);
    }

    #[test]
    fn quantile_with_nan_input_returns() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!(quantile(&xs, 1.0).is_nan());
        assert!(median(&[f64::NAN]).is_nan());
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dirty = [1.0, 2.0, 3.0, 4.0, 1000.0];
        // stddev explodes, MAD barely moves.
        assert!(stddev(&dirty) > 100.0 * stddev(&clean) / 2.0);
        assert!((mad(&dirty) - mad(&clean)).abs() < 1.5);
    }

    #[test]
    fn mad_of_constant_is_zero() {
        assert_eq!(mad(&[7.0; 10]), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }
}
