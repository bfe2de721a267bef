//! # mawilab-stats
//!
//! Statistical substrate shared by the detectors, the synthetic-trace
//! generator and the evaluation harness:
//!
//! * [`histogram`] — fixed-width hashed feature histograms, as used
//!   by the KL-divergence detector.
//! * [`divergence`] — the Laplace-smoothed Kullback–Leibler divergence
//!   between count histograms, and its per-cell terms.
//! * [`gamma`] — the Gamma(α, β) distribution: moments,
//!   method-of-moments fitting (the estimator Dewaele et al.'s
//!   multi-resolution detector relies on) and Marsaglia–Tsang sampling.
//! * [`samplers`] — heavy-tail and counting distributions needed to
//!   synthesise Internet-like traffic (Zipf, Pareto, log-normal,
//!   exponential, Poisson). Implemented here rather than pulling
//!   `rand_distr`, keeping the substrate self-contained.
//! * [`summary`] — moments, quantiles and the median/MAD robust scale
//!   used for adaptive thresholds.

#![forbid(unsafe_code)]

pub mod divergence;
pub mod gamma;
pub mod histogram;
pub mod samplers;
pub mod summary;

pub use divergence::{kl_contributions, kl_divergence_counts};
pub use gamma::Gamma;
pub use histogram::Histogram;
pub use samplers::{Exponential, LogNormal, Pareto, Poisson, Zipf};
pub use summary::{mad, mean, median, quantile, stddev, variance};
