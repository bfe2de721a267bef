//! The MAWILab four-label taxonomy (paper §5).
//!
//! * **Anomalous** — accepted by SCANN: abnormal, any efficient
//!   detector should find it.
//! * **Suspicious** — rejected, but with relative distance ≤ 0.5:
//!   probably anomalous, not clearly identified.
//! * **Notice** — rejected with relative distance > 0.5: not
//!   anomalous, kept only to trace that some detector fired.
//! * **Benign** — no detector reported it at all (the complement of
//!   the labeled set; it appears here for completeness of the enum).

use crate::evidence::CommunityEvidence;
use crate::heuristics::{classify_packets, HeuristicLabel};
use crate::summary::{summarize_community, CommunitySummary};
use mawilab_combiner::{Decision, LabelConfidence};
use mawilab_detectors::TraceView;
use mawilab_mining::mine_rules;
use mawilab_model::{FastMap, Granularity, ItemIndex, TimeWindow};
use mawilab_similarity::AlarmCommunities;
use std::fmt;

/// The released dataset's label values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MawilabLabel {
    /// Accepted by the combiner.
    Anomalous,
    /// Rejected but near the decision boundary.
    Suspicious,
    /// Rejected, far from the boundary.
    Notice,
    /// Never reported by any detector.
    Benign,
}

impl fmt::Display for MawilabLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MawilabLabel::Anomalous => write!(f, "anomalous"),
            MawilabLabel::Suspicious => write!(f, "suspicious"),
            MawilabLabel::Notice => write!(f, "notice"),
            MawilabLabel::Benign => write!(f, "benign"),
        }
    }
}

/// The relative-distance boundary between Suspicious and Notice
/// (paper §5).
pub const SUSPICIOUS_DISTANCE: f64 = 0.5;

/// Maps one combiner decision to a taxonomy label.
pub fn label_of(decision: &Decision) -> MawilabLabel {
    if decision.accepted {
        MawilabLabel::Anomalous
    } else {
        match decision.relative_distance {
            Some(d) if d <= SUSPICIOUS_DISTANCE => MawilabLabel::Suspicious,
            Some(_) => MawilabLabel::Notice,
            // Strategies without distances: every rejection is Notice.
            None => MawilabLabel::Notice,
        }
    }
}

/// A fully labeled community: taxonomy label, heuristic category,
/// rule summary and span.
#[derive(Debug, Clone)]
pub struct LabeledCommunity {
    /// Community id within the trace.
    pub community: usize,
    /// Taxonomy label derived from the combiner decision.
    pub label: MawilabLabel,
    /// Confidence score + abstention tier from combiner evidence.
    pub confidence: LabelConfidence,
    /// Table-1 heuristic label of the community's traffic.
    pub heuristic: HeuristicLabel,
    /// Association-rule summary.
    pub summary: CommunitySummary,
    /// Time span of the community's alarms.
    pub window: TimeWindow,
    /// Number of alarms merged into this community.
    pub alarms: usize,
    /// Number of distinct detectors involved.
    pub detectors: usize,
}

impl fmt::Display for LabeledCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "community {} [{}] {}: {} alarms, {} detectors, {} rules",
            self.community,
            self.label,
            self.heuristic,
            self.alarms,
            self.detectors,
            self.summary.rules.len()
        )?;
        for (rule, n) in self.summary.rules.iter().take(3) {
            write!(f, "\n    {rule} ({n} units)")?;
        }
        Ok(())
    }
}

/// Labels every community: taxonomy label from the decisions,
/// heuristic label from the community's packets, rule summary from
/// Apriori at `min_support`.
pub fn label_communities(
    view: &TraceView<'_>,
    communities: &AlarmCommunities,
    decisions: &[Decision],
    confidences: &[LabelConfidence],
    min_support: f64,
) -> Vec<LabeledCommunity> {
    assert_eq!(
        decisions.len(),
        communities.community_count(),
        "one decision per community required"
    );
    assert_eq!(
        confidences.len(),
        communities.community_count(),
        "one confidence per community required"
    );
    // Inverted index item-id → communities, then a single pass over
    // packets gathers each community's packet sample for heuristics.
    let mut item_to_comms: FastMap<u32, Vec<u32>> = FastMap::default();
    for c in 0..communities.community_count() {
        for id in communities.community_traffic(c) {
            item_to_comms.entry(id).or_default().push(c as u32);
        }
    }
    let mut packets_of: Vec<Vec<u32>> = vec![Vec::new(); communities.community_count()];
    for (i, _p) in view.trace.packets.iter().enumerate() {
        let item = match communities.granularity {
            Granularity::Packet => i as u32,
            Granularity::Uniflow => view.flows.uniflow_of(i),
            Granularity::Biflow => view.flows.biflow_of(i),
        };
        if let Some(comms) = item_to_comms.get(&item) {
            for &c in comms {
                packets_of[c as usize].push(i as u32);
            }
        }
    }

    (0..communities.community_count())
        .map(|c| {
            let heuristic = classify_packets(
                packets_of[c]
                    .iter()
                    .map(|&i| &view.trace.packets[i as usize]),
            );
            let summary = summarize_community(view, communities, c, min_support);
            LabeledCommunity {
                community: c,
                label: label_of(&decisions[c]),
                confidence: confidences[c],
                heuristic,
                summary,
                window: communities
                    .community_window(c)
                    .unwrap_or_else(|| view.trace.meta.window()),
                alarms: communities.members(c).len(),
                detectors: communities.detectors_in(c).len(),
            }
        })
        .collect()
}

/// Labels every community from streaming-accumulated evidence —
/// no trace, no flow table.
///
/// Produces exactly what [`label_communities`] produces on the
/// materialised trace: taxonomy labels come from the decisions
/// (identical inputs), heuristic labels from per-unit evidence
/// folded into one [`crate::heuristics::TrafficProfile`] (additive,
/// so fold order is irrelevant), and summaries from the same
/// transactions in the same sorted-id order. `fallback_window` replaces the batch path's
/// `view.trace.meta.window()` for alarm-less communities.
pub fn label_communities_streaming(
    fallback_window: TimeWindow,
    index: &ItemIndex,
    evidence: &CommunityEvidence,
    communities: &AlarmCommunities,
    decisions: &[Decision],
    confidences: &[LabelConfidence],
    min_support: f64,
) -> Vec<LabeledCommunity> {
    assert_eq!(
        decisions.len(),
        communities.community_count(),
        "one decision per community required"
    );
    assert_eq!(
        confidences.len(),
        communities.community_count(),
        "one confidence per community required"
    );
    (0..communities.community_count())
        .map(|c| {
            let ids = communities.community_traffic(c);
            let heuristic = evidence.profile_of(&ids, index).classify();
            let txs = evidence.transactions_of(&ids, index);
            let mined = mine_rules(&txs, min_support);
            let summary = CommunitySummary {
                community: c,
                rules: mined.rules,
                rule_degree: mined.rule_degree,
                rule_support: mined.rule_support,
                transactions: txs.len(),
            };
            LabeledCommunity {
                community: c,
                label: label_of(&decisions[c]),
                confidence: confidences[c],
                heuristic,
                summary,
                window: communities.community_window(c).unwrap_or(fallback_window),
                alarms: communities.members(c).len(),
                detectors: communities.detectors_in(c).len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(accepted: bool, rel: Option<f64>) -> Decision {
        Decision {
            accepted,
            relative_distance: rel,
        }
    }

    #[test]
    fn taxonomy_mapping() {
        assert_eq!(label_of(&dec(true, Some(3.0))), MawilabLabel::Anomalous);
        assert_eq!(label_of(&dec(true, None)), MawilabLabel::Anomalous);
        assert_eq!(label_of(&dec(false, Some(0.2))), MawilabLabel::Suspicious);
        assert_eq!(label_of(&dec(false, Some(0.5))), MawilabLabel::Suspicious);
        assert_eq!(label_of(&dec(false, Some(0.500001))), MawilabLabel::Notice);
        assert_eq!(
            label_of(&dec(false, Some(f64::INFINITY))),
            MawilabLabel::Notice
        );
        assert_eq!(label_of(&dec(false, None)), MawilabLabel::Notice);
    }

    #[test]
    fn labels_order_by_severity() {
        assert!(MawilabLabel::Anomalous < MawilabLabel::Suspicious);
        assert!(MawilabLabel::Suspicious < MawilabLabel::Notice);
        assert!(MawilabLabel::Notice < MawilabLabel::Benign);
    }

    #[test]
    fn display_names_match_published_database() {
        assert_eq!(MawilabLabel::Anomalous.to_string(), "anomalous");
        assert_eq!(MawilabLabel::Suspicious.to_string(), "suspicious");
        assert_eq!(MawilabLabel::Notice.to_string(), "notice");
        assert_eq!(MawilabLabel::Benign.to_string(), "benign");
    }
}
