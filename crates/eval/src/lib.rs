//! # mawilab-eval
//!
//! Evaluation metrics behind every table and figure of the paper:
//!
//! * [`ratios`] — the **attack ratio** (§4.2.1): the fraction of
//!   communities labeled `Attack` by the Table-1 heuristics, computed
//!   over accepted/rejected classes (Figs. 6–7) and per detector
//!   (Fig. 6(c));
//! * [`gaincost`] — Table 2's four quantities (gain/cost ×
//!   accepted/rejected) overall and per detector (Fig. 8);
//! * [`dists`] — probability-density and CDF series used to render
//!   the distribution figures (Figs. 3, 6, 10);
//! * [`ground_truth`] — scoring against the synthetic archive's
//!   per-packet truth: per-strategy and per-detector
//!   detection/precision/recall, including the paper's headline
//!   "twice as many anomalies as the most accurate detector" check.
//!   (The real MAWI archive has no ground truth — this module is the
//!   evaluation the original authors could not run.)
//! * [`longitudinal`] — month-scale label stability over sequences of
//!   archive days: label churn, per-strategy decision flip rates,
//!   anomalous-set Jaccard drift, and worm-outbreak response — the
//!   operational view of the continuously running MAWILab service.

#![forbid(unsafe_code)]

pub mod condorcet;
pub mod dists;
pub mod gaincost;
pub mod ground_truth;
pub mod longitudinal;
pub mod ratios;

pub use condorcet::majority_accuracy;
pub use dists::{cdf_points, pdf_histogram};
pub use gaincost::{gain_cost, GainCost};
pub use ground_truth::{GroundTruthMatcher, StrategyScore};
pub use longitudinal::{
    adjacent_pairs, era_transitions, outbreak_response, stability_report, AdjacentPair,
    AnomalyIdentity, DaySummary, EraTransition, MonthlyStability, OutbreakResponse, RuleScope,
    StabilityReport, StrategyFlips, WormStatus,
};
pub use ratios::{attack_ratio_by_class, detector_attack_ratio, AttackRatios};
