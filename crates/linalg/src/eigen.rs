//! Symmetric eigendecomposition by the cyclic Jacobi method.
//!
//! Jacobi is quadratically convergent, unconditionally stable, and at
//! the matrix sizes this workspace produces (≤ 64×64 covariance or
//! Gram matrices) entirely adequate — simplicity wins over LAPACK-style
//! tridiagonalisation.
//!
//! **Layout.** The working matrix `A` is one flat row-major `Vec<f64>`
//! and the accumulated rotations are kept as `Vᵀ`, also row-major, so
//! row `j` of `Vᵀ` is eigenvector `j`. A rotation in the `(p, q)` plane
//! updates columns `p` and `q` of `A` (one pass over its rows), then
//! rows `p` and `q` of `A` and of `Vᵀ` as pairs of contiguous slices.
//!
//! **Bit-identity.** Rounding leaves the working matrix slightly
//! asymmetric, so both triangles are kept and rotated, exactly as the
//! index-based textbook loop does: every element sees the same
//! expressions (`c*a - s*b`, `s*a + c*b`, no fused multiply-add, no
//! reassociation) in the same order of column step before row step,
//! the sweeps visit `(p, q)` in the same cyclic order, and the
//! convergence test, the `1e-300` skip and the descending `total_cmp`
//! sort are unchanged. The output is therefore bitwise that loop's,
//! which the test module keeps as `jacobi_reference`: the oracle the
//! kernel is pinned to (`lint/oracles.toml`, "contiguous-jacobi").

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
        let mut m: Vec<f64> = (0..n).flat_map(|i| a.row(i)).copied().collect();
        let mut vt = vec![0.0; n * n];
        for i in 0..n {
            vt[i * n + i] = 1.0;
        }

        // Cyclic sweeps until off-diagonal mass is negligible.
        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for x in &m[i * n + i + 1..(i + 1) * n] {
                    off += x * x;
                }
            }
            let frobenius = m.iter().map(|x| x * x).sum::<f64>().sqrt();
            if off.sqrt() <= 1e-12 * (1.0 + frobenius) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[p * n + q];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m[p * n + p];
                    let aqq = m[q * n + q];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Columns p and q of A, then rows p and q of A (reading
                    // the rotated columns), then rows p and q of Vᵀ.
                    for row in m.chunks_exact_mut(n) {
                        let (x, y) = (row[p], row[q]);
                        row[p] = c * x - s * y;
                        row[q] = s * x + c * y;
                    }
                    let (rp, rq) = row_pair(&mut m, n, p, q);
                    rotate(rp, rq, c, s);
                    let (vp, vq) = row_pair(&mut vt, n, p, q);
                    rotate(vp, vq, c, s);
                }
            }
        }

        // Extract and sort descending; eigenvector j is row j of Vᵀ.
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
        order.sort_by(|&a, &b| diag[b].total_cmp(&diag[a]));
        let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (newj, &oldj) in order.iter().enumerate() {
            for (i, &x) in vt[oldj * n..(oldj + 1) * n].iter().enumerate() {
                vectors[(i, newj)] = x;
            }
        }
        SymmetricEigen { values, vectors }
    }
}

/// Rows `p < q` of a row-major matrix of width `n`, both mutable.
fn row_pair(data: &mut [f64], n: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = data.split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

/// Rotates two rows in place: `(x, y) ← (c·x − s·y, s·x + c·y)`.
fn rotate(xs: &mut [f64], ys: &mut [f64], c: f64, s: f64) {
    for (x, y) in xs.iter_mut().zip(ys) {
        let (a, b) = (*x, *y);
        *x = c * a - s * b;
        *y = s * a + c * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{distance, dot};

    /// The index-based cyclic Jacobi loop [`SymmetricEigen::new`]
    /// replaced, kept verbatim as its bitwise oracle.
    fn jacobi_reference(a: &Matrix) -> SymmetricEigen {
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
        let mut next = uniform(1);
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

    /// Values, then every vector entry row by row, as bits.
    fn bits(e: &SymmetricEigen) -> Vec<u64> {
        let rows = (0..e.vectors.rows()).flat_map(|i| e.vectors.row(i));
        e.values.iter().chain(rows).map(|x| x.to_bits()).collect()
    }

    /// Deterministic pseudo-random values in `[-1, 1)`.
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    /// Random symmetric, zero, diagonal (with ties), repeated-eigenvalue
    /// (`I + 11ᵀ`) and rank-deficient Gram matrices of order `n`.
    fn oracle_cases(n: usize) -> Vec<Matrix> {
        let mut cases = Vec::new();
        for seed in 1..=3u64 {
            let mut next = uniform(seed * 1000 + n as u64);
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    let x = next();
                    a[(i, j)] = x;
                    a[(j, i)] = x;
                }
            }
            cases.push(a);
        }
        cases.push(Matrix::zeros(n, n));
        let mut diagonal = Matrix::zeros(n, n);
        for i in 0..n {
            diagonal[(i, i)] = (i % 3) as f64 - 1.0;
        }
        cases.push(diagonal);
        let mut repeated = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                repeated[(i, j)] += 1.0;
            }
        }
        cases.push(repeated);
        // A 0/1 indicator table's Gram matrix, as SCANN's CA builds.
        let mut next = uniform(77 + n as u64);
        let rows: Vec<Vec<f64>> = (0..n / 2 + 1)
            .map(|_| (0..n).map(|_| f64::from(u8::from(next() > 0.0))).collect())
            .collect();
        cases.push(Matrix::from_rows(&rows).gram());
        cases
    }

    #[test]
    fn new_is_bitwise_the_reference() {
        for n in 0..=32 {
            for (case, a) in oracle_cases(n).iter().enumerate() {
                assert_eq!(
                    bits(&SymmetricEigen::new(a)),
                    bits(&jacobi_reference(a)),
                    "n = {n}, case {case}"
                );
            }
        }
    }
}
