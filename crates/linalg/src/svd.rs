//! Thin singular value decomposition through the Gram matrix.
//!
//! [`Svd::with_tolerance`] goes through the symmetric
//! eigendecomposition of the Gram matrix `AᵀA` — `V` are its
//! eigenvectors, `σᵢ = √λᵢ`, and `uᵢ = A vᵢ / σᵢ`. Squaring the
//! condition number is harmless for this workspace: SCANN decomposes
//! standardised residuals of 0/1 vote tables (at most 26 indicator
//! columns) whose singular values live within a few orders of
//! magnitude of each other. Singular directions with `σ² ≤ tol·λmax`
//! are truncated, which is exactly what correspondence analysis wants
//! (it discards the trivial dimension anyway).

use crate::eigen::SymmetricEigen;
use crate::matrix::Matrix;

/// Thin SVD `A = U Σ Vᵀ` with positive singular values only.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `n × r` (columns orthonormal).
    pub u: Matrix,
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `m × r` (columns orthonormal).
    pub v: Matrix,
}

impl Svd {
    /// Computes the thin SVD of `a` (any shape), keeping singular
    /// values above `√(rel_tol · λmax)`.
    pub fn new(a: &Matrix) -> Self {
        Self::with_tolerance(a, 1e-12)
    }

    /// Thin SVD with an explicit relative eigenvalue tolerance:
    /// eigendecompose the Gram matrix `AᵀA` exactly and truncate at
    /// `σ² ≤ rel_tol·λmax`.
    pub fn with_tolerance(a: &Matrix, rel_tol: f64) -> Self {
        let (n, m) = (a.rows(), a.cols());
        if n == 0 || m == 0 {
            return Svd {
                u: Matrix::zeros(n, 0),
                sigma: vec![],
                v: Matrix::zeros(m, 0),
            };
        }
        let eig = SymmetricEigen::new(&a.gram());
        let lam_max = eig.values.first().copied().unwrap_or(0.0).max(0.0);
        let cutoff = rel_tol * lam_max;

        let mut sigma = Vec::new();
        let mut keep = Vec::new();
        for (j, &lam) in eig.values.iter().enumerate() {
            if lam > cutoff && lam > 0.0 {
                sigma.push(lam.sqrt());
                keep.push(j);
            }
        }
        let r = keep.len();
        let mut v = Matrix::zeros(m, r);
        for (newj, &oldj) in keep.iter().enumerate() {
            for i in 0..m {
                v[(i, newj)] = eig.vectors[(i, oldj)];
            }
        }
        // U = A V Σ⁻¹
        let av = a.matmul(&v);
        let mut u = Matrix::zeros(n, r);
        for j in 0..r {
            for i in 0..n {
                u[(i, j)] = av[(i, j)] / sigma[j];
            }
        }
        Svd { u, sigma, v }
    }

    /// Numerical rank (number of retained singular values).
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Reconstructs `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let r = self.rank();
        let mut us = self.u.clone();
        for j in 0..r {
            for i in 0..us.rows() {
                us[(i, j)] *= self.sigma[j];
            }
        }
        us.matmul(&self.v.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;

    #[test]
    fn reconstructs_full_rank_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 3.0], vec![1.0, 1.0]]);
        let svd = Svd::new(&a);
        assert_eq!(svd.rank(), 2);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 2.0]]);
        let svd = Svd::new(&a);
        assert!((svd.sigma[0] - 4.0).abs() < 1e-10);
        assert!((svd.sigma[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn rank_one_matrix_truncates() {
        // Outer product of [1,2,3] and [1,1]: rank 1.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let svd = Svd::new(&a);
        assert_eq!(svd.rank(), 1);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-9);
        // σ₁ = ‖u‖‖v‖ = √14·√2
        assert!((svd.sigma[0] - (28.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn singular_vectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 1.0],
        ]);
        let svd = Svd::new(&a);
        for i in 0..svd.rank() {
            for j in 0..svd.rank() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot(&svd.u.col(i), &svd.u.col(j)) - expect).abs() < 1e-9);
                assert!((dot(&svd.v.col(i), &svd.v.col(j)) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sigma_is_descending_and_positive() {
        let a = Matrix::from_rows(&[
            vec![2.0, 0.0, 1.0],
            vec![0.0, 3.0, 0.5],
            vec![1.0, 0.5, 1.0],
            vec![0.1, 0.2, 0.3],
        ]);
        let svd = Svd::new(&a);
        assert!(svd.sigma.iter().all(|&s| s > 0.0));
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn wide_matrix_works() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]]);
        let svd = Svd::new(&a);
        assert_eq!(svd.rank(), 2);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let svd = Svd::new(&Matrix::zeros(3, 2));
        assert_eq!(svd.rank(), 0);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let svd = Svd::new(&Matrix::zeros(0, 0));
        assert_eq!(svd.rank(), 0);
    }

    #[test]
    fn frobenius_norm_equals_sigma_norm() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let svd = Svd::new(&a);
        let sig_norm: f64 = svd.sigma.iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((sig_norm - a.frobenius()).abs() < 1e-9);
    }
}
