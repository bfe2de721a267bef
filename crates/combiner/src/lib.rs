//! # mawilab-combiner
//!
//! The combiner — the paper's second main ingredient (§2.2).
//!
//! Given the communities produced by the similarity estimator, the
//! combiner decides which communities are *accepted* (reported as
//! anomalous) and which are *rejected*. Detector outputs are treated
//! as votes:
//!
//! * [`votes`] — the per-community **vote table** over the 12
//!   configurations, and the per-detector **confidence scores**
//!   `ϕ_d(c) = φ_d(c)/T_d` (paper §2.2.2, Fig. 2 worked example);
//! * [`strategies`] — the unsupervised aggregation strategies:
//!   **average**, **minimum**, **maximum** over confidence scores with
//!   the 0.5 acceptance threshold (§2.2.3), plus the classical
//!   **majority vote** (§2.2.1, kept as a baseline extension);
//! * [`scann`] — **SCANN** (Merz 1999): correspondence analysis of the
//!   binary vote table iterated to a stable class assignment,
//!   nearest-unanimous-reference classification, and the *relative
//!   distance* `(d_rej/d_acc) − 1` that drives the MAWILab taxonomy's
//!   Suspicious/Notice split (§4.2.3, Fig. 10);
//! * [`confidence`] — per-label **confidence scores** folded from the
//!   evidence above (strategy agreement, SCANN margin, vote mass) and
//!   the dual-threshold **abstention tier**
//!   (anomalous/uncertain/benign).

#![forbid(unsafe_code)]

pub mod confidence;
pub mod scann;
pub mod strategies;
pub mod votes;

pub use confidence::{
    confidence_score, label_confidences, margin_component, ConfidenceThresholds, ConfidenceTier,
    LabelConfidence,
};
pub use scann::{Scann, SCANN_MAX_ROUNDS};
pub use strategies::{Average, CombinationStrategy, MajorityVote, Maximum, Minimum};
pub use votes::{Decision, VoteTable};
