//! Per-label confidence from combiner evidence (ROADMAP, "Explain
//! every label").
//!
//! A hard accept/reject throws away most of what the combiner knows:
//! how many of the paper's four strategies concur, how far SCANN
//! places the community from its decision boundary (Fig. 10's
//! relative distance — computed in [`crate::scann`] but previously
//! dropped before labeling), and how much raw vote mass the community
//! carries. This module folds those three signals into a single
//! anomaly-confidence score in `[0, 1]` and, following the
//! dual-threshold auto-labeler pattern, an explicit abstention tier:
//! `anomalous` past the high threshold, `benign` under the low one,
//! `uncertain` in between.
//!
//! The score is a pure function of the [`VoteTable`] — it does not
//! depend on which strategy the pipeline happens to run, so the batch
//! and single-pass paths agree on it by construction.
//!
//! **Thresholds-off contract.** With `thresholds = None` the tier
//! degenerates to the hard decision (accepted → `Anomalous`, else
//! `Benign`, never `Uncertain`), so existing label output is
//! byte-identical to the pre-confidence pipeline — pinned by
//! `tests/confidence_equivalence.rs`.

use crate::scann::Scann;
use crate::strategies::{Average, CombinationStrategy, Maximum, Minimum};
use crate::votes::{Decision, VoteTable, N_CONFIGS};

/// The four combination strategies of the paper (§2.2.3): average,
/// minimum, maximum, SCANN. The majority-vote baseline is a repo
/// extension and deliberately excluded from the agreement count.
pub const PAPER_STRATEGIES: usize = 4;

/// Weight of the strategy-agreement fraction in the score.
pub const STRATEGY_WEIGHT: f64 = 0.5;
/// Weight of SCANN's boundary-margin component.
pub const MARGIN_WEIGHT: f64 = 0.3;
/// Weight of the raw vote mass (votes / 12 configurations).
pub const VOTE_WEIGHT: f64 = 0.2;

/// Dual decision thresholds for the abstention tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceThresholds {
    /// Scores `≤ low` are confidently benign.
    pub low: f64,
    /// Scores `≥ high` are confidently anomalous.
    pub high: f64,
}

impl ConfidenceThresholds {
    /// Builds a threshold pair, checking `0 ≤ low < high ≤ 1`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high) && low < high,
            "confidence thresholds need 0 ≤ low < high ≤ 1, got low={low} high={high}"
        );
        ConfidenceThresholds { low, high }
    }
}

impl Default for ConfidenceThresholds {
    /// The archive-sweep operating point: unanimous-strategy
    /// communities score ≥ 0.65 even with thin vote mass, while one
    /// lone strategy accept tops out near 0.3 — the band in between
    /// is where day-over-day churn concentrates (see README
    /// "Confidence tiers").
    fn default() -> Self {
        ConfidenceThresholds {
            low: 0.30,
            high: 0.65,
        }
    }
}

/// The abstention tier of a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConfidenceTier {
    /// Confidently anomalous (score past the high threshold, or the
    /// community was accepted and thresholds are off).
    Anomalous,
    /// The dual thresholds disagree: evidence is ambiguous and the
    /// label abstains from a confident call. Never produced with
    /// thresholds off.
    Uncertain,
    /// Confidently benign.
    Benign,
}

impl ConfidenceTier {
    /// Stable lowercase name (JSON/CSV schema).
    pub fn name(&self) -> &'static str {
        match self {
            ConfidenceTier::Anomalous => "anomalous",
            ConfidenceTier::Uncertain => "uncertain",
            ConfidenceTier::Benign => "benign",
        }
    }

    /// Dense index for tier-population arrays (`[anomalous,
    /// uncertain, benign]`).
    pub fn index(&self) -> usize {
        match self {
            ConfidenceTier::Anomalous => 0,
            ConfidenceTier::Uncertain => 1,
            ConfidenceTier::Benign => 2,
        }
    }
}

/// Confidence carried on every labeled community.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelConfidence {
    /// Anomaly confidence in `[0, 1]` — 1 means every strategy and
    /// all the vote mass agree the community is anomalous.
    pub score: f64,
    /// The abstention tier the score falls in.
    pub tier: ConfidenceTier,
}

/// Maps a SCANN decision to its boundary-margin component in
/// `[0, 1]`: 0.5 on the decision boundary, → 1 deep inside the
/// accepted region, → 0 deep inside the rejected region. The
/// relative distance `rel ∈ [0, ∞)` is squashed by `rel/(1+rel)`
/// (∞ → 1). A decision without a distance (the degenerate
/// majority-vote fallback) is treated as boundary-neutral.
pub fn margin_component(scann: &Decision) -> f64 {
    match scann.relative_distance {
        None => 0.5,
        Some(rel) => {
            let m = if rel.is_infinite() {
                1.0
            } else {
                rel / (1.0 + rel)
            };
            if scann.accepted {
                0.5 + m / 2.0
            } else {
                0.5 - m / 2.0
            }
        }
    }
}

/// The confidence score: a convex combination of the
/// strategy-agreement fraction, SCANN's boundary margin, and the raw
/// vote fraction. Each component lies in `[0, 1]` and the weights sum
/// to 1, so the score is in `[0, 1]` and strictly monotone in
/// `strategy_accepts` — pinned by proptests in
/// `tests/confidence_equivalence.rs`.
pub fn confidence_score(strategy_accepts: usize, margin: f64, vote_fraction: f64) -> f64 {
    assert!(
        strategy_accepts <= PAPER_STRATEGIES,
        "at most {PAPER_STRATEGIES} paper strategies can accept, got {strategy_accepts}"
    );
    debug_assert!(
        (0.0..=1.0).contains(&margin),
        "margin {margin} out of range"
    );
    debug_assert!(
        (0.0..=1.0).contains(&vote_fraction),
        "vote fraction {vote_fraction} out of range"
    );
    STRATEGY_WEIGHT * (strategy_accepts as f64 / PAPER_STRATEGIES as f64)
        + MARGIN_WEIGHT * margin
        + VOTE_WEIGHT * vote_fraction
}

/// Scores every community of a vote table and assigns its tier.
///
/// `decisions` are the pipeline's hard decisions for the same table
/// (one per community); with `thresholds = None` they define the tier
/// directly, keeping thresholds-off output byte-identical to hard
/// labels. The score itself never depends on them.
pub fn label_confidences(
    table: &VoteTable,
    decisions: &[Decision],
    thresholds: Option<ConfidenceThresholds>,
) -> Vec<LabelConfidence> {
    assert_eq!(
        decisions.len(),
        table.len(),
        "one decision per community required"
    );
    if table.is_empty() {
        return Vec::new();
    }
    let scann = Scann::default().classify_detailed(table);
    let simple = [
        Average.classify(table),
        Minimum.classify(table),
        Maximum.classify(table),
    ];
    (0..table.len())
        .map(|c| {
            let accepts =
                simple.iter().filter(|d| d[c].accepted).count() + usize::from(scann[c].accepted);
            let margin = margin_component(&scann[c]);
            let vote_fraction = table.vote_count(c) as f64 / N_CONFIGS as f64;
            let score = confidence_score(accepts, margin, vote_fraction);
            let tier = match thresholds {
                None => {
                    if decisions[c].accepted {
                        ConfidenceTier::Anomalous
                    } else {
                        ConfidenceTier::Benign
                    }
                }
                Some(t) => {
                    if score >= t.high {
                        ConfidenceTier::Anomalous
                    } else if score <= t.low {
                        ConfidenceTier::Benign
                    } else {
                        ConfidenceTier::Uncertain
                    }
                }
            };
            LabelConfidence { score, tier }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(on: &[usize]) -> [bool; N_CONFIGS] {
        let mut r = [false; N_CONFIGS];
        for &i in on {
            r[i] = true;
        }
        r
    }

    fn mixed_table() -> VoteTable {
        VoteTable::from_rows(vec![
            row(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]), // unanimous
            row(&[0, 1, 3, 4, 5, 9, 10, 11]),             // strong
            row(&[3, 4, 5, 9, 10, 11]),                   // two detectors
            row(&[0]),                                    // noise
            row(&[]),                                     // silence
        ])
    }

    #[test]
    fn scores_are_in_unit_interval_and_ordered_by_evidence() {
        let t = mixed_table();
        let decisions = Scann::default().classify_detailed(&t);
        let conf = label_confidences(&t, &decisions, None);
        assert_eq!(conf.len(), t.len());
        for lc in &conf {
            assert!((0.0..=1.0).contains(&lc.score), "score {}", lc.score);
        }
        // Unanimous support must outrank silence by a wide margin.
        assert!(conf[0].score > 0.8, "unanimous scored {}", conf[0].score);
        assert!(conf[4].score < 0.2, "silence scored {}", conf[4].score);
        assert!(conf[0].score > conf[2].score && conf[2].score > conf[4].score);
    }

    #[test]
    fn thresholds_off_tier_is_the_hard_decision() {
        let t = mixed_table();
        let decisions = Scann::default().classify_detailed(&t);
        let conf = label_confidences(&t, &decisions, None);
        for (lc, d) in conf.iter().zip(&decisions) {
            let expect = if d.accepted {
                ConfidenceTier::Anomalous
            } else {
                ConfidenceTier::Benign
            };
            assert_eq!(lc.tier, expect);
            assert!(
                lc.tier != ConfidenceTier::Uncertain,
                "thresholds-off must never abstain"
            );
        }
    }

    #[test]
    fn dual_thresholds_carve_out_an_uncertain_band() {
        let t = mixed_table();
        let decisions = Scann::default().classify_detailed(&t);
        let conf = label_confidences(&t, &decisions, Some(ConfidenceThresholds::default()));
        assert_eq!(conf[0].tier, ConfidenceTier::Anomalous);
        assert_eq!(conf[4].tier, ConfidenceTier::Benign);
        assert!(
            conf.iter().any(|lc| lc.tier == ConfidenceTier::Uncertain),
            "mixed table should leave something in the abstention band: {conf:?}"
        );
        // Tiers are consistent with the score ordering.
        for lc in &conf {
            match lc.tier {
                ConfidenceTier::Anomalous => assert!(lc.score >= 0.65),
                ConfidenceTier::Benign => assert!(lc.score <= 0.30),
                ConfidenceTier::Uncertain => {
                    assert!(lc.score > 0.30 && lc.score < 0.65)
                }
            }
        }
    }

    #[test]
    fn score_is_monotone_in_strategy_accepts() {
        for k in 0..PAPER_STRATEGIES {
            assert!(
                confidence_score(k + 1, 0.4, 0.25) > confidence_score(k, 0.4, 0.25),
                "not monotone at {k}"
            );
        }
        assert_eq!(confidence_score(0, 0.0, 0.0), 0.0);
        assert_eq!(confidence_score(PAPER_STRATEGIES, 1.0, 1.0), 1.0);
    }

    #[test]
    fn margin_component_is_symmetric_around_the_boundary() {
        let on_boundary = Decision {
            accepted: true,
            relative_distance: Some(0.0),
        };
        assert_eq!(margin_component(&on_boundary), 0.5);
        let deep_accept = Decision {
            accepted: true,
            relative_distance: Some(f64::INFINITY),
        };
        assert_eq!(margin_component(&deep_accept), 1.0);
        let deep_reject = Decision {
            accepted: false,
            relative_distance: Some(f64::INFINITY),
        };
        assert_eq!(margin_component(&deep_reject), 0.0);
        let fallback = Decision::new(true);
        assert_eq!(margin_component(&fallback), 0.5);
    }

    #[test]
    fn degenerate_tables_are_scored_via_the_majority_fallback() {
        // All-identical rows: SCANN falls back to the majority vote
        // with no distances; the margin component must stay neutral
        // and the score finite.
        let t = VoteTable::from_rows(vec![row(&[0, 1, 2, 3, 4, 5, 6, 7]); 3]);
        let decisions = Scann::default().classify_detailed(&t);
        let conf = label_confidences(&t, &decisions, Some(ConfidenceThresholds::default()));
        for lc in &conf {
            assert!(lc.score.is_finite());
            assert!((0.0..=1.0).contains(&lc.score));
        }
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn inverted_thresholds_are_rejected() {
        ConfidenceThresholds::new(0.8, 0.2);
    }
}
