//! Divergences between discrete probability distributions.
//!
//! The KL detector scores each time bin by the Kullback–Leibler
//! divergence between the current and reference feature histograms
//! (paper §3.2, detector 4). Real histograms contain empty cells, so
//! the divergence is computed with additive (Laplace-style) smoothing
//! to stay finite — the standard treatment in the anomaly-detection
//! literature.

/// Kullback–Leibler divergence `D(p ‖ q)` between two *count*
/// histograms with Laplace smoothing: `pseudo` observations are added
/// to every cell before normalising.
///
/// Unlike a fixed additive mass (say 1e-9 per normalised cell), the
/// pseudo-count is calibrated to the sample size, so cells that flip
/// between zero and a handful of observations contribute
/// `O(p · ln(c/pseudo))` instead of `O(p · ln(p/1e-9))` — sparse-cell
/// churn no longer dominates the divergence of a genuinely shifted
/// distribution.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or `pseudo` is
/// not positive.
pub fn kl_divergence_counts(p: &[u64], q: &[u64], pseudo: f64) -> f64 {
    smoothed_terms(p, q, pseudo).sum::<f64>().max(0.0)
}

/// Per-cell terms `pᵢ · ln(pᵢ/qᵢ)` of [`kl_divergence_counts`], under
/// the same Laplace smoothing. The KL detector ranks these to find
/// the histogram cells responsible for a divergence spike; summing
/// them (clamped at zero) gives exactly the divergence, so the score
/// and its attribution can never use different smoothing.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or `pseudo` is
/// not positive.
pub fn kl_contributions(p: &[u64], q: &[u64], pseudo: f64) -> Vec<f64> {
    smoothed_terms(p, q, pseudo).collect()
}

/// The shared per-cell term computation behind both count-based
/// functions — sum-without-allocating for the series hot path,
/// collected for attribution.
fn smoothed_terms<'a>(p: &'a [u64], q: &'a [u64], pseudo: f64) -> impl Iterator<Item = f64> + 'a {
    assert_eq!(p.len(), q.len(), "distribution lengths differ");
    assert!(!p.is_empty(), "empty distributions");
    assert!(pseudo > 0.0, "pseudo-count must be positive");
    let ps: f64 = p.iter().sum::<u64>() as f64 + pseudo * p.len() as f64;
    let qs: f64 = q.iter().sum::<u64>() as f64 + pseudo * q.len() as f64;
    p.iter().zip(q).map(move |(&pi, &qi)| {
        let pn = (pi as f64 + pseudo) / ps;
        let qn = (qi as f64 + pseudo) / qs;
        pn * (pn / qn).ln()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_kl_of_identical_is_zero() {
        let p = [25u64, 25, 25, 25];
        assert!(kl_divergence_counts(&p, &p, 0.5) < 1e-12);
    }

    #[test]
    fn counts_kl_is_positive_and_asymmetric() {
        let p = [800u64, 100, 100];
        let q = [400u64, 300, 300];
        let dpq = kl_divergence_counts(&p, &q, 0.5);
        let dqp = kl_divergence_counts(&q, &p, 0.5);
        assert!(dpq > 0.0);
        assert!(dqp > 0.0);
        assert!((dpq - dqp).abs() > 1e-3, "D(p‖q)={dpq} vs D(q‖p)={dqp}");
    }

    #[test]
    fn counts_kl_stays_finite_with_empty_cells() {
        let d = kl_divergence_counts(&[1000, 0], &[0, 1000], 0.5);
        assert!(d.is_finite());
        assert!(d > 1.0);
    }

    #[test]
    fn sparse_cell_flips_score_far_below_a_real_shift() {
        // The motivating property of Laplace smoothing over a fixed
        // 1e-9 mass: low-count cells flipping between zero and a
        // couple of observations (background churn) must score far
        // below half the traffic moving into one cell (a flood).
        let mut churn_a = vec![16u64; 128];
        let mut churn_b = vec![16u64; 128];
        for i in 0..12 {
            churn_a[i * 5] = 0;
            churn_b[i * 5] = 2;
            churn_a[i * 5 + 1] = 2;
            churn_b[i * 5 + 1] = 0;
        }
        let churn = kl_divergence_counts(&churn_a, &churn_b, 0.5);

        let base = vec![16u64; 128];
        let mut flood = vec![16u64; 128];
        flood[7] = 2048;
        let shift = kl_divergence_counts(&flood, &base, 0.5);
        assert!(
            shift > 4.0 * churn,
            "flood ({shift:.3}) must dominate churn ({churn:.3})"
        );

        // And the same churn under an absolute smoothing of 1e-9 per
        // normalised cell (a pseudo-count of 1e-9 times the equal
        // totals) scores several times higher — the noise floor the
        // Laplace variant exists to remove.
        let total: u64 = churn_a.iter().sum();
        assert_eq!(total, churn_b.iter().sum::<u64>());
        let old_churn = kl_divergence_counts(&churn_a, &churn_b, 1e-9 * total as f64);
        assert!(
            churn < 0.5 * old_churn,
            "laplace churn ({churn:.3}) must undercut absolute-smoothing churn ({old_churn:.3})"
        );
    }

    #[test]
    fn contributions_sum_to_the_divergence() {
        let p = [500u64, 120, 0, 30];
        let q = [30u64, 400, 200, 20];
        let sum: f64 = kl_contributions(&p, &q, 0.5).iter().sum();
        assert!((sum - kl_divergence_counts(&p, &q, 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pseudo-count must be positive")]
    fn counts_kl_rejects_nonpositive_pseudo() {
        kl_divergence_counts(&[1, 2], &[2, 1], 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        kl_divergence_counts(&[1, 1], &[2], 0.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_distributions_panic() {
        kl_divergence_counts(&[], &[], 0.5);
    }
}
