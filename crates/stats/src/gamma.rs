//! The Gamma(α, β) distribution.
//!
//! Dewaele et al.'s detector models per-sketch packet counts at each
//! aggregation scale as Gamma distributed and tracks the evolution of
//! the fitted shape α and scale β across scales (paper §3.2,
//! detector 2). Fitting uses the method of moments — `α = m²/v`,
//! `β = v/m` — which is what makes the multi-resolution trajectory
//! cheap enough to compute per sketch bin. Sampling (for the synthetic
//! generator and for tests) uses Marsaglia–Tsang with the standard
//! α < 1 boost.

use rand::Rng;

/// Gamma distribution with shape `alpha` and scale `beta`
/// (mean `αβ`, variance `αβ²`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    /// Shape parameter α > 0.
    pub alpha: f64,
    /// Scale parameter β > 0.
    pub beta: f64,
}

impl Gamma {
    /// Creates a Gamma distribution; both parameters must be positive
    /// and finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        Gamma { alpha, beta }
    }

    /// Distribution mean `αβ`.
    pub fn mean(&self) -> f64 {
        self.alpha * self.beta
    }

    /// Distribution variance `αβ²`.
    pub fn variance(&self) -> f64 {
        self.alpha * self.beta * self.beta
    }

    /// Method-of-moments fit from a sample: `α = m²/v`, `β = v/m`.
    ///
    /// Returns `None` when the sample is too small (<2), has
    /// non-positive mean, or zero variance — degenerate sketch bins the
    /// detector must skip rather than crash on.
    pub fn fit_moments(samples: &[f64]) -> Option<Gamma> {
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let m = samples.iter().sum::<f64>() / n;
        // NaN means fall through to None, so `<=` plus the finite
        // check covers the negated-comparison forms exactly.
        if m <= 0.0 || !m.is_finite() {
            return None;
        }
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0);
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        Some(Gamma::new(m * m / v, v / m))
    }

    /// Draws one sample (Marsaglia–Tsang 2000; for α < 1 draws from
    /// Gamma(α+1) and applies the `U^{1/α}` boost).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.alpha < 1.0 {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let inner = Gamma::new(self.alpha + 1.0, self.beta);
            return inner.sample(rng) * u.powf(1.0 / self.alpha);
        }
        let d = self.alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // Standard normal via Box–Muller.
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = (1.0 + c * z).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
                return d * v * self.beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match_parameters() {
        let g = Gamma::new(3.0, 2.0);
        assert_eq!(g.mean(), 6.0);
        assert_eq!(g.variance(), 12.0);
    }

    #[test]
    fn fit_recovers_parameters_from_big_sample() {
        let truth = Gamma::new(4.0, 0.5);
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..200_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = Gamma::fit_moments(&samples).unwrap();
        assert!((fit.alpha - 4.0).abs() < 0.15, "alpha = {}", fit.alpha);
        assert!((fit.beta - 0.5).abs() < 0.05, "beta = {}", fit.beta);
    }

    #[test]
    fn fit_rejects_degenerate_samples() {
        assert!(Gamma::fit_moments(&[]).is_none());
        assert!(Gamma::fit_moments(&[1.0]).is_none());
        assert!(Gamma::fit_moments(&[2.0, 2.0, 2.0]).is_none()); // zero variance
        assert!(Gamma::fit_moments(&[0.0, 0.0]).is_none()); // zero mean
        assert!(Gamma::fit_moments(&[-5.0, -3.0]).is_none()); // negative mean
    }

    #[test]
    fn sampling_matches_moments_small_alpha() {
        // Exercises the α < 1 boost path.
        let g = Gamma::new(0.4, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        assert!((m - g.mean()).abs() < 0.05 * g.mean() + 0.02, "mean = {m}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_panics() {
        Gamma::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn negative_beta_panics() {
        Gamma::new(1.0, -1.0);
    }
}
