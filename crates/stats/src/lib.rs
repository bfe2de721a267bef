//! # mawilab-stats
//!
//! Statistical substrate shared by the detectors, the synthetic-trace
//! generator and the evaluation harness:
//!
//! * [`histogram`] — fixed-width feature histograms with probability
//!   normalisation, as used by the KL-divergence detector.
//! * [`divergence`] — Kullback–Leibler (smoothed) and Jensen–Shannon
//!   divergences between discrete distributions.
//! * [`gamma`] — the Gamma(α, β) distribution: density, moments,
//!   method-of-moments fitting (the estimator Dewaele et al.'s
//!   multi-resolution detector relies on) and Marsaglia–Tsang sampling.
//! * [`samplers`] — heavy-tail and counting distributions needed to
//!   synthesise Internet-like traffic (Zipf, Pareto, log-normal,
//!   exponential, Poisson). Implemented here rather than pulling
//!   `rand_distr`, keeping the substrate self-contained.
//! * [`summary`] — running moments, quantiles, median/MAD robust
//!   scale, and EWMA baselines used for adaptive thresholds.

#![forbid(unsafe_code)]

pub mod divergence;
pub mod gamma;
pub mod histogram;
pub mod samplers;
pub mod summary;

pub use divergence::{js_divergence, kl_contributions, kl_divergence, kl_divergence_counts};
pub use gamma::Gamma;
pub use histogram::Histogram;
pub use samplers::{Exponential, LogNormal, Pareto, Poisson, Zipf};
pub use summary::{ewma, mad, mean, median, quantile, stddev, variance, Welford};
