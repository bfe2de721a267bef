//! # mawilab-label
//!
//! Labeling: from combiner decisions to the published MAWILab
//! database format.
//!
//! * [`heuristics`] — the paper's **Table 1**: rule-of-thumb
//!   classification of a community's traffic into `Attack`, `Special`
//!   or `Unknown` categories. These labels are *not* part of the
//!   pipeline's decisions — they are the evaluation yardstick
//!   (attack ratio, Figs. 5–9) chosen because they are independent of
//!   the detectors' mechanisms.
//! * [`taxonomy`] — the released dataset's four labels (§5):
//!   `Anomalous` (accepted), `Suspicious` (rejected, relative distance
//!   ≤ 0.5), `Notice` (rejected, > 0.5), `Benign` (no alarm at all).
//! * [`summary`] — per-community association-rule summaries: the
//!   concise labels MAWILab publishes instead of raw alarms (§5, §6).
//! * [`output`] — writers for a MAWILab-style CSV and an
//!   admd-flavoured XML annotation file.
//! * [`window`] — per-horizon [`LabeledWindow`]s of a day's labels,
//!   all computed at end of stream.

#![forbid(unsafe_code)]

pub mod evidence;
pub mod heuristics;
pub mod output;
pub mod summary;
pub mod taxonomy;
pub mod window;

pub use evidence::CommunityEvidence;
pub use heuristics::{classify_packets, HeuristicCategory, HeuristicLabel, TrafficProfile};
pub use summary::{summarize_community, CommunitySummary};
pub use taxonomy::{
    label_communities, label_communities_streaming, label_of, LabeledCommunity, MawilabLabel,
};
pub use window::{window_communities, LabeledWindow};
// Re-exported so labeling callers can speak the confidence vocabulary
// without a direct combiner dependency.
pub use mawilab_combiner::{ConfidenceThresholds, ConfidenceTier, LabelConfidence};
