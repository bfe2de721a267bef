//! # mawilab-linalg
//!
//! Small dense linear-algebra substrate for the MAWILab reproduction.
//! Two consumers drive the feature set:
//!
//! * the **PCA-based detector** needs covariance eigendecomposition and
//!   principal-subspace residuals over sketch×time matrices
//!   (dimensions ≈ 32–64), and
//! * the **SCANN combiner** needs correspondence analysis — thin SVD of
//!   standardised residuals of a communities×votes indicator table —
//!   plus supplementary-point projection.
//!
//! Matrices here are tiny by numerical-computing standards (tens of
//! columns), so the implementations favour robustness and clarity:
//! cyclic Jacobi for symmetric eigenproblems (unconditionally
//! convergent) and SVD via the Gram matrix, which is perfectly
//! conditioned for the vote tables involved (entries in `{0,1}`).
//!
//! Modules: [`matrix`], [`eigen`], [`svd`], [`pca`], [`ca`].

#![forbid(unsafe_code)]

pub mod ca;
pub mod eigen;
pub mod matrix;
pub mod pca;
pub mod svd;

pub use ca::CorrespondenceAnalysis;
pub use eigen::SymmetricEigen;
pub use matrix::Matrix;
pub use pca::Pca;
pub use svd::Svd;
