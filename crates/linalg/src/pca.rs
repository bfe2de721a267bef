//! Principal component analysis over observation matrices.
//!
//! The PCA-based detector (paper §3.2, detector 1) models *normal*
//! traffic as the span of the top principal components of a
//! time×sketch-bin count matrix, and flags time bins whose residual
//! (projection onto the complementary subspace) is anomalously large —
//! the classic subspace method of Lakhina et al.

use crate::eigen::SymmetricEigen;
use crate::matrix::{dot, Matrix};

/// A fitted PCA model: per-column standardisation plus the principal
/// subspace.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    scale: Vec<f64>,
    /// Principal axes as rows, `k × vars`, so each projection reads
    /// one contiguous row.
    components: Matrix,
}

impl Pca {
    /// Fits PCA on `data` (rows = observations, columns = variables)
    /// and keeps the leading `k` components, clamped to `1..=vars`.
    /// Needs at least 2 observations and 1 variable.
    ///
    /// Columns are centred and divided by `√(mean+1)`. The detector's
    /// inputs are sketch×time packet counts, and this scaling
    /// stabilises Poisson variance while *preserving* magnitude, so a
    /// flooded sketch bin keeps its outlying energy instead of being
    /// normalised into the noise floor.
    pub fn fit(data: &Matrix, k: usize) -> Self {
        let (n, m) = (data.rows(), data.cols());
        assert!(n >= 2, "PCA needs at least two observations");
        assert!(m >= 1, "PCA needs at least one variable");

        let mut mean = vec![0.0; m];
        for i in 0..n {
            for (j, v) in data.row(i).iter().enumerate() {
                mean[j] += v;
            }
        }
        for v in &mut mean {
            *v /= n as f64;
        }
        let scale: Vec<f64> = mean.iter().map(|&mu| (mu.max(0.0) + 1.0).sqrt()).collect();

        // Scaled data → covariance matrix.
        let mut z = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                z[(i, j)] = (data[(i, j)] - mean[j]) / scale[j];
            }
        }
        let mut cov = z.gram();
        for i in 0..m {
            for j in 0..m {
                cov[(i, j)] /= (n - 1) as f64;
            }
        }
        let eig = SymmetricEigen::new(&cov);
        Pca {
            mean,
            scale,
            components: eig.vectors.transpose(),
        }
        .truncate(k)
    }

    /// The fit with only the leading `k` components of this one,
    /// clamped to `1..=self.k()`.
    ///
    /// Truncating a full fit (`k = vars`) is bitwise equal to
    /// fitting `k` components on the same data: the eigendecomposition
    /// does not depend on how many components are kept, and every fit
    /// is the full decomposition truncated. Callers that need several
    /// subspace sizes of one matrix fit it once.
    pub fn truncate(&self, k: usize) -> Self {
        let k = k.clamp(1, self.k());
        let mut components = Matrix::zeros(k, self.components.cols());
        for j in 0..k {
            components
                .row_mut(j)
                .copy_from_slice(self.components.row(j));
        }
        Pca {
            mean: self.mean.clone(),
            scale: self.scale.clone(),
            components,
        }
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.rows()
    }

    fn standardise(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.mean.len(), "dimension mismatch");
        row.iter()
            .zip(self.mean.iter().zip(&self.scale))
            .map(|(x, (m, s))| (x - m) / s)
            .collect()
    }

    /// Scores of a standardised observation: its dot product with
    /// each principal axis.
    fn scores(&self, z: &[f64]) -> Vec<f64> {
        (0..self.k())
            .map(|j| dot(z, self.components.row(j)))
            .collect()
    }

    /// Scores (coordinates in the principal subspace) of one
    /// observation.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        self.scores(&self.standardise(row))
    }

    /// The residual vector of one observation: its standardised form
    /// minus the projection onto the principal subspace. Coordinate
    /// `j` tells how much variable `j` deviates from the normal
    /// subspace — the sketch-bin localisation signal of the PCA
    /// detector.
    pub fn residual(&self, row: &[f64]) -> Vec<f64> {
        let mut e = self.standardise(row);
        let scores = self.scores(&e);
        for (j, &s) in scores.iter().enumerate() {
            for (ei, &cj) in e.iter_mut().zip(self.components.row(j)) {
                *ei -= s * cj;
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Pca {
        /// Squared prediction error (SPE / Q-statistic): squared norm
        /// of the observation's residual outside the principal
        /// subspace.
        fn residual_sq(&self, row: &[f64]) -> f64 {
            let z = self.standardise(row);
            let mut resid_sq = dot(&z, &z);
            for s in self.scores(&z) {
                resid_sq -= s * s;
            }
            resid_sq.max(0.0)
        }
    }

    /// Observations lying (noisily) on the line y = x: one dominant
    /// component.
    fn line_data() -> Matrix {
        let mut rows = Vec::new();
        let mut state = 99u64;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.01
        };
        for i in 0..200 {
            let t = i as f64 / 10.0;
            rows.push(vec![t + noise(), t + noise()]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn dominant_direction_is_captured() {
        let pca = Pca::fit(&line_data(), 1);
        assert_eq!(pca.k(), 1);
        // The first axis is y = x: both columns share one scale.
        let axis = pca.components.row(0);
        assert!((axis[0].abs() - 0.5f64.sqrt()).abs() < 1e-3, "{axis:?}");
        assert!(axis[0] * axis[1] > 0.0, "{axis:?}");
    }

    #[test]
    fn on_subspace_points_have_tiny_residual() {
        let data = line_data();
        let pca = Pca::fit(&data, 1);
        let typical = pca.residual_sq(data.row(10));
        let anomaly = pca.residual_sq(&[5.0, -5.0]); // orthogonal to y=x
        assert!(
            anomaly > 1000.0 * (typical + 1e-9),
            "{anomaly} vs {typical}"
        );
    }

    #[test]
    fn full_subspace_has_zero_residual() {
        let data = line_data();
        let pca = Pca::fit(&data, 2);
        for i in 0..data.rows() {
            assert!(pca.residual_sq(data.row(i)) < 1e-9);
        }
    }

    #[test]
    fn count_is_clamped_to_variable_count() {
        let pca = Pca::fit(&line_data(), 10);
        assert_eq!(pca.k(), 2);
    }

    #[test]
    fn constant_columns_do_not_blow_up() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 3.0]).collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 1);
        let r = pca.residual_sq(&[25.0, 3.0]);
        assert!(r.is_finite());
    }

    /// Every number of a fit, as bits.
    fn bits(pca: &Pca) -> Vec<u64> {
        let comps = (0..pca.components.rows()).flat_map(|i| pca.components.row(i));
        pca.mean
            .iter()
            .chain(&pca.scale)
            .chain(comps)
            .map(|x| x.to_bits())
            .chain([pca.k() as u64])
            .collect()
    }

    #[test]
    fn truncating_a_full_fit_is_bitwise_the_smaller_fit() {
        for seed in [1u64, 2, 3] {
            let mut state = seed;
            let mut count = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 40) as f64
            };
            // 30 × 7 counts whose column 3 is constant.
            let rows: Vec<Vec<f64>> = (0..30)
                .map(|_| (0..7).map(|j| if j == 3 { 5.0 } else { count() }).collect())
                .collect();
            let data = Matrix::from_rows(&rows);
            let m = data.cols();
            let full = Pca::fit(&data, m);
            for k in 1..=m + 1 {
                assert_eq!(
                    bits(&full.truncate(k)),
                    bits(&Pca::fit(&data, k)),
                    "seed {seed}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn transform_projects_to_k_dims() {
        let pca = Pca::fit(&line_data(), 1);
        assert_eq!(pca.transform(&[1.0, 1.0]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "two observations")]
    fn single_observation_panics() {
        Pca::fit(&Matrix::from_rows(&[vec![1.0, 2.0]]), 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_width_row_panics() {
        let pca = Pca::fit(&line_data(), 1);
        pca.residual_sq(&[1.0, 2.0, 3.0]);
    }
}
