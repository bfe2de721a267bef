//! Correspondence analysis (CA) of two-way count tables.
//!
//! CA is the dimensionality-reduction engine of SCANN (Merz 1999;
//! paper §2.2.3): the combiner builds a communities×votes indicator
//! table, CA embeds the rows (communities) into a low-dimensional
//! space where categorical co-occurrence structure is preserved, and
//! two *supplementary* reference rows — the unanimous-accept and
//! unanimous-reject vote patterns — are projected into the same space
//! without influencing it. A community's class is the nearer
//! reference point.
//!
//! Implementation follows the standard transition-formula formulation:
//! with correspondence matrix `P = N/n`, row masses `r`, column masses
//! `c`, the standardised residuals `S = D_r^{-1/2}(P − rcᵀ)D_c^{-1/2}`
//! are decomposed as `S = UΣVᵀ`; column standard coordinates are
//! `Γ = D_c^{-1/2}V` and row principal coordinates are the row
//! profiles times `Γ`. Supplementary rows use the same profile×Γ
//! transition, which is what makes nearest-reference classification
//! well defined.
//!
//! Only `V` and `Σ` are needed, so the fit takes them from the
//! symmetric eigendecomposition of `SᵀS`: `V` are its eigenvectors and
//! `σᵢ = √λᵢ`, and `U` is never formed. Squaring the condition number
//! is harmless here: SCANN's tables are 0/1 indicator columns (at most
//! 26 of them) whose singular values lie within a few orders of
//! magnitude of each other. Directions with `λ ≤ 10⁻¹²·λmax` are
//! dropped, which also discards CA's trivial dimension.
//!
//! All-zero columns (a detector configuration that never fired) and
//! all-zero rows are dropped from the decomposition; supplementary
//! projection ignores dropped columns, mirroring how CA software
//! treats structurally empty categories.

use crate::eigen::SymmetricEigen;
use crate::matrix::Matrix;

/// Relative eigenvalue cutoff: directions of `SᵀS` with
/// `λ ≤ RANK_TOL·λmax` are numerically zero.
const RANK_TOL: f64 = 1e-12;

/// A fitted correspondence analysis.
#[derive(Debug, Clone)]
pub struct CorrespondenceAnalysis {
    /// Column standard coordinates `Γ`, `m_kept × k`.
    col_standard: Matrix,
    /// Indices of the original columns that had non-zero mass.
    kept_cols: Vec<usize>,
    /// Row principal coordinates of the active rows, `n × k`
    /// (all-zero rows map to the origin).
    row_principal: Matrix,
    /// Principal inertias (squared singular values), one per kept dim.
    inertia: Vec<f64>,
    n_cols: usize,
}

impl CorrespondenceAnalysis {
    /// Fits CA on a non-negative count table (rows = observations,
    /// e.g. communities; columns = categories, e.g. config votes),
    /// keeping `dims` dimensions, clamped to at least 1 and at most the
    /// numerical rank of the standardised residuals (0 when they
    /// vanish).
    ///
    /// # Panics
    /// Panics on negative entries, or when the table has no positive
    /// mass at all.
    pub fn fit(table: &Matrix, dims: usize) -> Self {
        let (n, m) = (table.rows(), table.cols());
        let mut total = 0.0;
        for i in 0..n {
            for &v in table.row(i) {
                assert!(v >= 0.0, "CA table must be non-negative");
                total += v;
            }
        }
        assert!(total > 0.0, "CA table has no mass");

        // Masses.
        let mut r = vec![0.0; n];
        let mut c = vec![0.0; m];
        for (i, ri) in r.iter_mut().enumerate() {
            for (j, &v) in table.row(i).iter().enumerate() {
                *ri += v / total;
                c[j] += v / total;
            }
        }
        let kept_cols: Vec<usize> = (0..m).filter(|&j| c[j] > 0.0).collect();
        let mk = kept_cols.len();

        // Standardised residuals over kept columns and non-empty rows.
        let mut s = Matrix::zeros(n, mk);
        for i in 0..n {
            if r[i] == 0.0 {
                continue;
            }
            for (jj, &j) in kept_cols.iter().enumerate() {
                let p = table[(i, j)] / total;
                s[(i, jj)] = (p - r[i] * c[j]) / (r[i] * c[j]).sqrt();
            }
        }
        // Right singular vectors and values of S, from SᵀS: the
        // eigenvalues are descending, so the kept directions are a
        // prefix.
        let eig = SymmetricEigen::new(&s.gram());
        let cutoff = RANK_TOL * eig.values.first().copied().unwrap_or(0.0).max(0.0);
        let rank = eig
            .values
            .iter()
            .take_while(|&&lam| lam > cutoff && lam > 0.0)
            .count();
        let k = dims.clamp(1, rank.max(1)).min(rank);
        // Inertia is σ² with σ = √λ, not λ itself: the rounding is part
        // of the figures SCANN's inertia tests and the pins read.
        let inertia: Vec<f64> = eig.values[..k]
            .iter()
            .map(|&lam| {
                let sigma = lam.sqrt();
                sigma * sigma
            })
            .collect();

        // Column standard coordinates Γ = D_c^{-1/2} V (kept dims).
        let mut gamma = Matrix::zeros(mk, k);
        for (jj, &j) in kept_cols.iter().enumerate() {
            for d in 0..k {
                gamma[(jj, d)] = eig.vectors[(jj, d)] / c[j].sqrt();
            }
        }

        // Row principal coordinates via transition: profile × Γ.
        let mut rows = Matrix::zeros(n, k);
        for i in 0..n {
            let mass: f64 = kept_cols.iter().map(|&j| table[(i, j)]).sum();
            if mass == 0.0 {
                continue; // empty row stays at the origin
            }
            for d in 0..k {
                let mut acc = 0.0;
                for (jj, &j) in kept_cols.iter().enumerate() {
                    acc += table[(i, j)] / mass * gamma[(jj, d)];
                }
                rows[(i, d)] = acc;
            }
        }

        CorrespondenceAnalysis {
            col_standard: gamma,
            kept_cols,
            row_principal: rows,
            inertia,
            n_cols: m,
        }
    }

    /// Number of retained dimensions.
    pub fn dims(&self) -> usize {
        self.col_standard.cols()
    }

    /// Principal inertia per retained dimension.
    pub fn inertia(&self) -> &[f64] {
        &self.inertia
    }

    /// Principal coordinates of active row `i`.
    pub fn row_coords(&self, i: usize) -> &[f64] {
        self.row_principal.row(i)
    }

    /// Projects a *supplementary* row (a count/indicator vector over
    /// the original columns) into the principal space without
    /// refitting. Rows with no mass on the kept columns map to the
    /// origin.
    pub fn project_row(&self, counts: &[f64]) -> Vec<f64> {
        assert_eq!(counts.len(), self.n_cols, "column count mismatch");
        let mass: f64 = self.kept_cols.iter().map(|&j| counts[j]).sum();
        let k = self.dims();
        if mass <= 0.0 {
            return vec![0.0; k];
        }
        (0..k)
            .map(|d| {
                self.kept_cols
                    .iter()
                    .enumerate()
                    .map(|(jj, &j)| counts[j] / mass * self.col_standard[(jj, d)])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::distance;

    /// A table with two obvious row blocks: rows 0-2 load on columns
    /// 0-1, rows 3-5 on columns 2-3.
    fn blocked_table() -> Matrix {
        Matrix::from_rows(&[
            vec![5.0, 4.0, 0.0, 1.0],
            vec![4.0, 5.0, 1.0, 0.0],
            vec![5.0, 5.0, 0.0, 0.0],
            vec![0.0, 1.0, 5.0, 4.0],
            vec![1.0, 0.0, 4.0, 5.0],
            vec![0.0, 0.0, 5.0, 5.0],
        ])
    }

    #[test]
    fn blocks_separate_in_first_dimension() {
        let ca = CorrespondenceAnalysis::fit(&blocked_table(), 1);
        let first: Vec<f64> = (0..6).map(|i| ca.row_coords(i)[0]).collect();
        // Rows in the same block share a sign; blocks have opposite signs.
        assert!(first[0] * first[1] > 0.0);
        assert!(first[0] * first[2] > 0.0);
        assert!(first[3] * first[4] > 0.0);
        assert!(first[0] * first[3] < 0.0);
    }

    #[test]
    fn supplementary_projection_matches_active_twin() {
        // Projecting a row identical to an active row must land on it.
        let t = blocked_table();
        let ca = CorrespondenceAnalysis::fit(&t, 2);
        let proj = ca.project_row(&[5.0, 4.0, 0.0, 1.0]);
        assert!(distance(&proj, ca.row_coords(0)) < 1e-9);
    }

    #[test]
    fn supplementary_lands_near_its_block() {
        let ca = CorrespondenceAnalysis::fit(&blocked_table(), 2);
        let like_block_a = ca.project_row(&[1.0, 1.0, 0.0, 0.0]);
        let like_block_b = ca.project_row(&[0.0, 0.0, 1.0, 1.0]);
        let d_a0 = distance(&like_block_a, ca.row_coords(0));
        let d_a3 = distance(&like_block_a, ca.row_coords(3));
        assert!(d_a0 < d_a3);
        let d_b3 = distance(&like_block_b, ca.row_coords(3));
        let d_b0 = distance(&like_block_b, ca.row_coords(0));
        assert!(d_b3 < d_b0);
    }

    #[test]
    fn zero_columns_are_dropped_gracefully() {
        let t = Matrix::from_rows(&[
            vec![2.0, 0.0, 1.0],
            vec![1.0, 0.0, 2.0],
            vec![3.0, 0.0, 0.0],
        ]);
        let ca = CorrespondenceAnalysis::fit(&t, 2);
        assert!(ca.dims() >= 1);
        // Projection with mass only on the dropped column → origin.
        let proj = ca.project_row(&[0.0, 7.0, 0.0]);
        assert!(proj.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_rows_map_to_origin() {
        let t = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 0.0], vec![2.0, 1.0]]);
        let ca = CorrespondenceAnalysis::fit(&t, 1);
        assert!(ca.row_coords(1).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn principal_inertias_are_positive_descending_and_sum_to_chi_square() {
        let t = blocked_table();
        let ca = CorrespondenceAnalysis::fit(&t, 10);
        let inertia = ca.inertia();
        assert_eq!(inertia.len(), ca.dims());
        assert!(inertia.iter().all(|&l| l > 0.0), "{inertia:?}");
        assert!(inertia.windows(2).all(|w| w[0] >= w[1]), "{inertia:?}");
        // Total inertia is Pearson's χ²/n of the table.
        let (n, m) = (t.rows(), t.cols());
        let total: f64 = (0..n).flat_map(|i| t.row(i)).sum();
        let row = |i: usize| t.row(i).iter().sum::<f64>() / total;
        let col = |j: usize| (0..n).map(|i| t[(i, j)]).sum::<f64>() / total;
        let mut chi2 = 0.0;
        for i in 0..n {
            for j in 0..m {
                let e = row(i) * col(j);
                chi2 += (t[(i, j)] / total - e).powi(2) / e;
            }
        }
        assert!((inertia.iter().sum::<f64>() - chi2).abs() < 1e-9);
    }

    #[test]
    fn dims_never_exceed_the_residual_rank() {
        // Two distinct row profiles over four columns: rank 1.
        let t = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0, 1.0],
            vec![0.0, 1.0, 1.0, 2.0],
            vec![2.0, 0.0, 4.0, 2.0],
        ]);
        assert_eq!(CorrespondenceAnalysis::fit(&t, 3).dims(), 1);
        // Three rows, each owning a column: rank 2, inertia 1 per axis.
        let ca = CorrespondenceAnalysis::fit(&Matrix::identity(3), 5);
        assert_eq!(ca.dims(), 2);
        assert!(ca.inertia().iter().all(|&l| (l - 1.0).abs() < 1e-9));
    }

    #[test]
    fn independent_table_has_negligible_inertia() {
        // Rank-one P = rcᵀ (independent rows/cols) → residuals ≈ 0.
        let t = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![3.0, 6.0, 9.0],
        ]);
        let ca = CorrespondenceAnalysis::fit(&t, 2);
        let total: f64 = ca.inertia().iter().sum();
        assert!(total < 1e-12, "inertia = {total}");
        // Rank 0 keeps no dimension.
        assert_eq!(ca.dims(), 0);
    }

    #[test]
    fn identity_table_has_maximal_structure() {
        // Perfect association: each row owns one column.
        let t = Matrix::identity(3);
        let ca = CorrespondenceAnalysis::fit(&t, 2);
        // Rows are maximally spread: pairwise distances all equal and
        // strictly positive.
        let d01 = distance(ca.row_coords(0), ca.row_coords(1));
        let d02 = distance(ca.row_coords(0), ca.row_coords(2));
        assert!(d01 > 1.0);
        assert!((d01 - d02).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_entry_panics() {
        let t = Matrix::from_rows(&[vec![1.0, -1.0]]);
        CorrespondenceAnalysis::fit(&t, 1);
    }

    #[test]
    #[should_panic(expected = "no mass")]
    fn empty_table_panics() {
        CorrespondenceAnalysis::fit(&Matrix::zeros(3, 3), 1);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_projection_width_panics() {
        let ca = CorrespondenceAnalysis::fit(&blocked_table(), 1);
        ca.project_row(&[1.0, 2.0]);
    }
}
