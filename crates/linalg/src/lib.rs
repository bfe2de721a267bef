//! # mawilab-linalg
//!
//! Small dense linear-algebra substrate for the MAWILab reproduction.
//! Two consumers drive the feature set:
//!
//! * the **PCA-based detector** needs covariance eigendecomposition and
//!   principal-subspace residuals over sketch×time matrices
//!   (dimensions ≈ 32–64), and
//! * the **SCANN combiner** needs correspondence analysis of a
//!   communities×votes indicator table — the right singular vectors of
//!   its standardised residuals — plus supplementary-point projection.
//!
//! Matrices here are tiny by numerical-computing standards (tens of
//! columns), so the implementations favour robustness and clarity:
//! cyclic Jacobi is the one symmetric eigensolver (unconditionally
//! convergent). PCA decomposes a covariance matrix with it, and CA
//! decomposes the Gram matrix of its residuals, which is well
//! conditioned for the vote tables involved (entries in `{0,1}`).
//!
//! Modules: [`matrix`], [`eigen`], [`pca`], [`ca`].

#![forbid(unsafe_code)]

pub mod ca;
pub mod eigen;
pub mod matrix;
pub mod pca;

pub use ca::CorrespondenceAnalysis;
pub use eigen::SymmetricEigen;
pub use matrix::Matrix;
pub use pca::Pca;
