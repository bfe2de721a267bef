//! Dense row-major `f64` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices; all rows must share a length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Gram matrix `selfᵀ × self` (symmetric `cols × cols`), computed
    /// without materialising the transpose.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let r = self.row(i);
            for a in 0..self.cols {
                let ra = r[a];
                if ra == 0.0 {
                    continue;
                }
                for b in a..self.cols {
                    g[(a, b)] += ra * r[b];
                }
            }
        }
        for a in 0..self.cols {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }
}

/// Dot product of equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between points.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Matrix {
        /// Column `j` copied into a Vec.
        pub(crate) fn col(&self, j: usize) -> Vec<f64> {
            (0..self.rows).map(|i| self[(i, j)]).collect()
        }

        /// Matrix product `self × rhs`.
        pub(crate) fn matmul(&self, rhs: &Matrix) -> Matrix {
            assert_eq!(self.cols, rhs.rows, "inner dimensions differ");
            let mut out = Matrix::zeros(self.rows, rhs.cols);
            for i in 0..self.rows {
                for k in 0..self.cols {
                    let a = self[(i, k)];
                    if a == 0.0 {
                        continue;
                    }
                    let rrow = rhs.row(k);
                    let orow = out.row_mut(i);
                    for (o, &b) in orow.iter_mut().zip(rrow) {
                        *o += a * b;
                    }
                }
            }
            out
        }

        /// Frobenius norm.
        pub(crate) fn frobenius(&self) -> f64 {
            self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
        }

        /// Matrix–vector product.
        pub(crate) fn matvec(&self, v: &[f64]) -> Vec<f64> {
            assert_eq!(self.cols, v.len(), "dimension mismatch");
            (0..self.rows).map(|i| dot(self.row(i), v)).collect()
        }

        /// Elementwise maximum absolute difference to another matrix.
        pub(crate) fn max_abs_diff(&self, other: &Matrix) -> f64 {
            assert_eq!((self.rows, self.cols), (other.rows, other.cols));
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        }
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 3.0, 1.0],
            vec![4.0, 1.0, 0.0],
            vec![2.0, 2.0, 2.0],
        ]);
        let g1 = a.gram();
        let g2 = a.transpose().matmul(&a);
        assert!(g1.max_abs_diff(&g2) < 1e-12);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.frobenius(), 5.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn bad_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn zero_sized_matrices_are_fine() {
        let a = Matrix::zeros(0, 3);
        assert_eq!(a.rows(), 0);
        let g = a.gram();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.frobenius(), 0.0);
    }
}
