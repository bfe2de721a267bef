//! Principal component analysis over observation matrices.
//!
//! The PCA-based detector (paper §3.2, detector 1) models *normal*
//! traffic as the span of the top principal components of a
//! time×sketch-bin count matrix, and flags time bins whose residual
//! (projection onto the complementary subspace) is anomalously large —
//! the classic subspace method of Lakhina et al.

use crate::eigen::SymmetricEigen;
use crate::matrix::{dot, Matrix};

/// Column scaling policy applied before the covariance fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnScaling {
    /// Centre and divide by the sample standard deviation
    /// (correlation PCA — the default).
    #[default]
    UnitVariance,
    /// Centre and divide by `√(mean+1)` — variance-stabilising for
    /// Poisson counts, magnitude-preserving for outliers.
    Poisson,
    /// Centre only.
    None,
}

/// How many principal components to retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcaComponents {
    /// A fixed number of components (clamped to the variable count).
    Count(usize),
    /// Enough components to explain at least this fraction of total
    /// variance (must be in `(0, 1]`).
    VarianceFraction(f64),
}

/// A fitted PCA model: per-column standardisation plus the principal
/// subspace.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    scale: Vec<f64>,
    /// Principal axes as columns, `vars × k`.
    components: Matrix,
    /// Variance explained by each retained component.
    explained: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits PCA on `data` (rows = observations, columns = variables).
    /// Columns are centred and scaled to unit variance (constant
    /// columns are left unscaled). Needs at least 2 observations and
    /// 1 variable.
    pub fn fit(data: &Matrix, components: PcaComponents) -> Self {
        Self::fit_scaled(data, components, ColumnScaling::UnitVariance)
    }

    /// Fits PCA with an explicit column-scaling policy.
    ///
    /// Count matrices (the PCA detector's sketch×time inputs) should
    /// use [`ColumnScaling::Poisson`]: dividing by `√(mean+1)`
    /// stabilises Poisson variance while *preserving* magnitude, so a
    /// flooded sketch bin keeps its outlying energy instead of being
    /// normalised into the noise floor.
    pub fn fit_scaled(data: &Matrix, components: PcaComponents, scaling: ColumnScaling) -> Self {
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
        let scale: Vec<f64> = match scaling {
            ColumnScaling::UnitVariance => {
                let mut var = vec![0.0; m];
                for i in 0..n {
                    for (j, v) in data.row(i).iter().enumerate() {
                        let d = v - mean[j];
                        var[j] += d * d;
                    }
                }
                var.iter()
                    .map(|&s| (s / (n - 1) as f64).sqrt())
                    .map(|s| if s > 1e-12 { s } else { 1.0 })
                    .collect()
            }
            ColumnScaling::Poisson => mean.iter().map(|&mu| (mu.max(0.0) + 1.0).sqrt()).collect(),
            ColumnScaling::None => vec![1.0; m],
        };

        // Standardised data → covariance (correlation) matrix.
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
        let total_variance: f64 = eig.values.iter().map(|&l| l.max(0.0)).sum();

        let k = match components {
            PcaComponents::Count(k) => k.clamp(1, m),
            PcaComponents::VarianceFraction(f) => {
                assert!(f > 0.0 && f <= 1.0, "variance fraction outside (0,1]");
                let mut acc = 0.0;
                let mut k = 0;
                for &l in &eig.values {
                    acc += l.max(0.0);
                    k += 1;
                    if total_variance > 0.0 && acc / total_variance >= f {
                        break;
                    }
                }
                k.max(1)
            }
        };
        Pca {
            mean,
            scale,
            components: eig.vectors,
            explained: eig.values.iter().map(|&l| l.max(0.0)).collect(),
            total_variance,
        }
        .truncate(k)
    }

    /// The fit with only the leading `k` components of this one,
    /// clamped like [`PcaComponents::Count`] to `1..=self.k()`.
    ///
    /// Truncating a full fit (`Count(vars)`) is bitwise equal to
    /// fitting `Count(k)` on the same data: the eigendecomposition
    /// does not depend on how many components are kept, and every fit
    /// is the full decomposition truncated. Callers that need several
    /// subspace sizes of one matrix fit it once.
    pub fn truncate(&self, k: usize) -> Self {
        let k = k.clamp(1, self.k());
        let vars = self.components.rows();
        let mut components = Matrix::zeros(vars, k);
        for j in 0..k {
            for i in 0..vars {
                components[(i, j)] = self.components[(i, j)];
            }
        }
        Pca {
            mean: self.mean.clone(),
            scale: self.scale.clone(),
            components,
            explained: self.explained[..k].to_vec(),
            total_variance: self.total_variance,
        }
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.cols()
    }

    /// Variance explained by each retained component.
    pub fn explained(&self) -> &[f64] {
        &self.explained
    }

    /// Fraction of total variance captured by the retained subspace.
    pub fn explained_fraction(&self) -> f64 {
        if self.total_variance <= 0.0 {
            return 1.0;
        }
        self.explained.iter().sum::<f64>() / self.total_variance
    }

    fn standardise(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.mean.len(), "dimension mismatch");
        row.iter()
            .zip(self.mean.iter().zip(&self.scale))
            .map(|(x, (m, s))| (x - m) / s)
            .collect()
    }

    /// Scores (coordinates in the principal subspace) of one
    /// observation.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let z = self.standardise(row);
        (0..self.k())
            .map(|j| dot(&z, &self.components.col(j)))
            .collect()
    }

    /// The residual vector of one observation: its standardised form
    /// minus the projection onto the principal subspace. Coordinate
    /// `j` tells how much variable `j` deviates from the normal
    /// subspace — the sketch-bin localisation signal of the PCA
    /// detector.
    pub fn residual(&self, row: &[f64]) -> Vec<f64> {
        let z = self.standardise(row);
        let scores: Vec<f64> = (0..self.k())
            .map(|j| dot(&z, &self.components.col(j)))
            .collect();
        let mut e = z;
        for (j, &s) in scores.iter().enumerate() {
            let comp = self.components.col(j);
            for (ei, &cj) in e.iter_mut().zip(&comp) {
                *ei -= s * cj;
            }
        }
        e
    }

    /// Squared prediction error (SPE / Q-statistic): squared norm of
    /// the observation's residual outside the principal subspace. This
    /// is the anomaly score of the subspace method.
    pub fn residual_sq(&self, row: &[f64]) -> f64 {
        let z = self.standardise(row);
        let scores = (0..self.k())
            .map(|j| dot(&z, &self.components.col(j)))
            .collect::<Vec<f64>>();
        let mut resid_sq = dot(&z, &z);
        for s in scores {
            resid_sq -= s * s;
        }
        resid_sq.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pca = Pca::fit(&line_data(), PcaComponents::Count(1));
        assert_eq!(pca.k(), 1);
        assert!(pca.explained_fraction() > 0.99);
    }

    #[test]
    fn on_subspace_points_have_tiny_residual() {
        let data = line_data();
        let pca = Pca::fit(&data, PcaComponents::Count(1));
        let typical = pca.residual_sq(data.row(10));
        let anomaly = pca.residual_sq(&[5.0, -5.0]); // orthogonal to y=x
        assert!(
            anomaly > 1000.0 * (typical + 1e-9),
            "{anomaly} vs {typical}"
        );
    }

    #[test]
    fn variance_fraction_selects_enough_components() {
        let data = line_data();
        let pca = Pca::fit(&data, PcaComponents::VarianceFraction(0.95));
        assert_eq!(pca.k(), 1); // one component suffices on a line
        let pca_all = Pca::fit(&data, PcaComponents::VarianceFraction(1.0));
        assert!(pca_all.explained_fraction() > 0.999_999);
    }

    #[test]
    fn full_subspace_has_zero_residual() {
        let data = line_data();
        let pca = Pca::fit(&data, PcaComponents::Count(2));
        for i in 0..data.rows() {
            assert!(pca.residual_sq(data.row(i)) < 1e-9);
        }
    }

    #[test]
    fn count_is_clamped_to_variable_count() {
        let pca = Pca::fit(&line_data(), PcaComponents::Count(10));
        assert_eq!(pca.k(), 2);
    }

    #[test]
    fn constant_columns_do_not_blow_up() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 3.0]).collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, PcaComponents::Count(1));
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
            .chain(&pca.explained)
            .chain([&pca.total_variance])
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
            for scaling in [
                ColumnScaling::UnitVariance,
                ColumnScaling::Poisson,
                ColumnScaling::None,
            ] {
                let full = Pca::fit_scaled(&data, PcaComponents::Count(m), scaling);
                for k in 1..=m + 1 {
                    let fit = Pca::fit_scaled(&data, PcaComponents::Count(k), scaling);
                    assert_eq!(
                        bits(&full.truncate(k)),
                        bits(&fit),
                        "seed {seed}, {scaling:?}, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn transform_projects_to_k_dims() {
        let pca = Pca::fit(&line_data(), PcaComponents::Count(1));
        assert_eq!(pca.transform(&[1.0, 1.0]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "two observations")]
    fn single_observation_panics() {
        Pca::fit(
            &Matrix::from_rows(&[vec![1.0, 2.0]]),
            PcaComponents::Count(1),
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_width_row_panics() {
        let pca = Pca::fit(&line_data(), PcaComponents::Count(1));
        pca.residual_sq(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "variance fraction")]
    fn bad_fraction_panics() {
        Pca::fit(&line_data(), PcaComponents::VarianceFraction(0.0));
    }
}
