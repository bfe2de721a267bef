//! Symmetric eigendecomposition by the cyclic Jacobi method.
//!
//! Jacobi is quadratically convergent, unconditionally stable, and at
//! the matrix sizes this workspace produces (≤ 64×64 covariance or
//! Gram matrices) entirely adequate — simplicity wins over LAPACK-style
//! tridiagonalisation.

use crate::matrix::Matrix;

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix, with
/// eigenvalues sorted in descending order and eigenvectors as the
/// *columns* of `vectors`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, aligned with `values`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square or not symmetric within
    /// `1e-8` absolute tolerance.
    pub fn new(a: &Matrix) -> Self {
        let n = a.rows();
        assert_eq!(n, a.cols(), "eigendecomposition needs a square matrix");
        for i in 0..n {
            for j in 0..i {
                assert!(
                    (a[(i, j)] - a[(j, i)]).abs() <= 1e-8 * (1.0 + a[(i, j)].abs()),
                    "matrix is not symmetric at ({i},{j})"
                );
            }
        }
        let mut m = a.clone();
        let mut v = Matrix::identity(n);

        // Cyclic sweeps until off-diagonal mass is negligible.
        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() <= 1e-12 * (1.0 + m.frobenius()) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows/columns p and q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into V.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        // Extract and sort descending.
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        order.sort_by(|&a, &b| diag[b].total_cmp(&diag[a]));
        let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (newj, &oldj) in order.iter().enumerate() {
            for i in 0..n {
                vectors[(i, newj)] = v[(i, oldj)];
            }
        }
        SymmetricEigen { values, vectors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{distance, dot};

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let n = e.values.len();
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        e.vectors.matmul(&lam).matmul(&e.vectors.transpose())
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 5.0;
        a[(2, 2)] = 3.0;
        let e = SymmetricEigen::new(&a);
        assert_eq!(e.values, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = SymmetricEigen::new(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector of λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        // Deterministic pseudo-random symmetric matrix.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        let mut state = 1u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in i..n {
                let x = next();
                a[(i, j)] = x;
                a[(j, i)] = x;
            }
        }
        let e = SymmetricEigen::new(&a);
        assert!(reconstruct(&e).max_abs_diff(&a) < 1e-9);
        // VᵀV = I
        for i in 0..n {
            for j in 0..n {
                let d = dot(&e.vectors.col(i), &e.vectors.col(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-9, "col {i}·col {j} = {d}");
            }
        }
    }

    #[test]
    fn eigenvalues_are_sorted_descending() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let e = SymmetricEigen::new(&a);
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]));
        // Trace preserved.
        let trace_sum: f64 = e.values.iter().sum();
        assert!((trace_sum - 9.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvector_satisfies_definition() {
        let a = Matrix::from_rows(&[vec![6.0, 2.0], vec![2.0, 3.0]]);
        let e = SymmetricEigen::new(&a);
        for k in 0..2 {
            let v = e.vectors.col(k);
            let av = a.matvec(&v);
            let lv: Vec<f64> = v.iter().map(|x| x * e.values[k]).collect();
            assert!(distance(&av, &lv) < 1e-10);
        }
    }

    #[test]
    fn rank_deficient_matrix_has_zero_eigenvalues() {
        // Outer product uuᵀ has rank 1.
        let u = [1.0, 2.0, 2.0];
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = u[i] * u[j];
            }
        }
        let e = SymmetricEigen::new(&a);
        assert!((e.values[0] - 9.0).abs() < 1e-10); // ‖u‖² = 9
        assert!(e.values[1].abs() < 1e-10);
        assert!(e.values[2].abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_panics() {
        SymmetricEigen::new(&Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_panics() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        SymmetricEigen::new(&a);
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_rows(&[vec![7.0]]);
        let e = SymmetricEigen::new(&a);
        assert_eq!(e.values, vec![7.0]);
        assert_eq!(e.vectors[(0, 0)], 1.0);
    }
}
