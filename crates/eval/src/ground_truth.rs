//! Ground-truth scoring — the evaluation the paper could not run.
//!
//! The synthetic archive records which injected anomaly produced
//! every packet. This module matches alarm communities against those
//! records, yielding true detection/recall/precision for each
//! combination strategy and each single detector — including the
//! headline check that the combiner finds about twice as many
//! anomalies as the most accurate single detector (§1, §7).

use mawilab_combiner::Decision;
use mawilab_detectors::{DetectorKind, TraceView};
use mawilab_model::Granularity;
use mawilab_similarity::AlarmCommunities;
use mawilab_synth::GroundTruth;
use std::collections::{HashMap, HashSet};

/// Minimum fraction of an anomaly's packets a community must cover to
/// count as detecting it.
pub const DEFAULT_MIN_COVERAGE: f64 = 0.05;

/// Maps traffic-unit ids to the injected anomalies they carry.
#[derive(Debug, Clone)]
pub struct GroundTruthMatcher {
    /// item id → (anomaly id → tagged packet count).
    item_tags: HashMap<u32, HashMap<u32, u32>>,
    /// anomaly id → total packets.
    anomaly_sizes: HashMap<u32, u32>,
    /// Anomaly ids considered attacks.
    attack_ids: HashSet<u32>,
    min_coverage: f64,
}

impl GroundTruthMatcher {
    /// Indexes the truth at the estimator's granularity, with the
    /// [`DEFAULT_MIN_COVERAGE`] threshold.
    pub fn new(view: &TraceView<'_>, truth: &GroundTruth, granularity: Granularity) -> Self {
        Self::build(
            |i| match granularity {
                Granularity::Packet => i as u32,
                Granularity::Uniflow => view.flows.uniflow_of(i),
                Granularity::Biflow => view.flows.biflow_of(i),
            },
            truth,
            DEFAULT_MIN_COVERAGE,
        )
    }

    /// Indexes the truth from a precomputed packet-index → traffic-id
    /// map — the **streaming** path, where no `TraceView` or
    /// `FlowTable` exists. `item_ids[i]` must be the id the pipeline's
    /// `ItemIndex` assigned to packet `i` (stream order equals trace
    /// order), so the matcher speaks the same id space as the
    /// streaming report's communities.
    pub fn from_item_ids(item_ids: &[u32], truth: &GroundTruth, min_coverage: f64) -> Self {
        assert_eq!(
            item_ids.len(),
            truth.tags().len(),
            "item map and truth tags must cover the same packets"
        );
        Self::build(|i| item_ids[i], truth, min_coverage)
    }

    fn build(item_of: impl Fn(usize) -> u32, truth: &GroundTruth, min_coverage: f64) -> Self {
        let mut item_tags: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
        let mut anomaly_sizes: HashMap<u32, u32> = HashMap::new();
        for (i, tag) in truth.tags().iter().enumerate() {
            let Some(id) = *tag else { continue };
            *anomaly_sizes.entry(id).or_insert(0) += 1;
            *item_tags
                .entry(item_of(i))
                .or_default()
                .entry(id)
                .or_insert(0) += 1;
        }
        GroundTruthMatcher {
            item_tags,
            anomaly_sizes,
            attack_ids: truth.attack_ids().into_iter().collect(),
            min_coverage,
        }
    }

    /// Anomalies covered by a traffic-id set: id → tagged packets
    /// reached through the set's items.
    pub fn hits(&self, items: &[u32]) -> HashMap<u32, u32> {
        let mut out: HashMap<u32, u32> = HashMap::new();
        for item in items {
            if let Some(tags) = self.item_tags.get(item) {
                for (&id, &n) in tags {
                    *out.entry(id).or_insert(0) += n;
                }
            }
        }
        out
    }

    /// Anomaly ids a traffic set *detects* (coverage ≥ threshold).
    pub fn detected_by(&self, items: &[u32]) -> HashSet<u32> {
        self.hits(items)
            .into_iter()
            .filter(|(id, n)| {
                let total = self.anomaly_sizes.get(id).copied().unwrap_or(0).max(1);
                *n as f64 / total as f64 >= self.min_coverage
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// All injected anomaly ids.
    pub fn anomaly_ids(&self) -> HashSet<u32> {
        self.anomaly_sizes.keys().copied().collect()
    }

    /// Injected attack ids.
    pub fn attack_ids(&self) -> &HashSet<u32> {
        &self.attack_ids
    }
}

/// Ground-truth score of one strategy on one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StrategyScore {
    /// Distinct anomalies covered by accepted communities.
    pub detected: HashSet<u32>,
    /// Distinct *attacks* covered by accepted communities.
    pub detected_attacks: HashSet<u32>,
    /// Accepted communities covering no anomaly at all (false
    /// positives).
    pub false_accepted: usize,
    /// Total accepted communities.
    pub accepted: usize,
    /// Total injected anomalies.
    pub total_anomalies: usize,
    /// Total injected attacks.
    pub total_attacks: usize,
}

impl StrategyScore {
    /// Recall over all injected anomalies.
    pub fn recall(&self) -> f64 {
        if self.total_anomalies == 0 {
            return 0.0;
        }
        self.detected.len() as f64 / self.total_anomalies as f64
    }

    /// Fraction of accepted communities that cover a real anomaly.
    pub fn precision(&self) -> f64 {
        if self.accepted == 0 {
            return 0.0;
        }
        1.0 - self.false_accepted as f64 / self.accepted as f64
    }
}

/// Scores the accepted communities of a strategy against the truth.
pub fn score_strategy(
    matcher: &GroundTruthMatcher,
    communities: &AlarmCommunities,
    decisions: &[Decision],
) -> StrategyScore {
    assert_eq!(decisions.len(), communities.community_count());
    let mut score = StrategyScore {
        total_anomalies: matcher.anomaly_ids().len(),
        total_attacks: matcher.attack_ids().len(),
        ..Default::default()
    };
    for (c, d) in decisions.iter().enumerate() {
        if !d.accepted {
            continue;
        }
        score.accepted += 1;
        let detected = matcher.detected_by(&communities.community_traffic(c));
        if detected.is_empty() {
            score.false_accepted += 1;
        }
        for id in detected {
            if matcher.attack_ids().contains(&id) {
                score.detected_attacks.insert(id);
            }
            score.detected.insert(id);
        }
    }
    score
}

/// Anomalies detected by a single detector family's own alarms
/// (regardless of the combiner): the per-detector baseline of the
/// headline comparison.
pub fn score_detector(
    matcher: &GroundTruthMatcher,
    communities: &AlarmCommunities,
    detector: DetectorKind,
) -> HashSet<u32> {
    let mut detected = HashSet::new();
    for (i, alarm) in communities.alarms.iter().enumerate() {
        if alarm.detector != detector {
            continue;
        }
        detected.extend(matcher.detected_by(&communities.traffic[i]));
    }
    detected
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_core::{MawilabPipeline, PipelineConfig};
    use mawilab_model::FlowTable;
    use mawilab_synth::{SynthConfig, TraceGenerator};

    fn run() -> (mawilab_synth::LabeledTrace, FlowTable) {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(55)).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        (lt, flows)
    }

    #[test]
    fn matcher_indexes_every_anomaly() {
        let (lt, flows) = run();
        let view = TraceView::new(&lt.trace, &flows);
        let m = GroundTruthMatcher::new(&view, &lt.truth, Granularity::Uniflow);
        assert_eq!(m.anomaly_ids().len(), lt.truth.anomalies().len());
        assert!(!m.attack_ids().is_empty());
        assert!(m.attack_ids().len() < m.anomaly_ids().len()); // benign kinds exist
    }

    #[test]
    fn full_trace_detects_everything() {
        let (lt, flows) = run();
        let view = TraceView::new(&lt.trace, &flows);
        let m = GroundTruthMatcher::new(&view, &lt.truth, Granularity::Uniflow);
        // The set of *all* uniflow ids covers every anomaly.
        let all: Vec<u32> = (0..flows.uniflow_count() as u32).collect();
        assert_eq!(m.detected_by(&all), m.anomaly_ids());
    }

    #[test]
    fn empty_set_detects_nothing() {
        let (lt, flows) = run();
        let view = TraceView::new(&lt.trace, &flows);
        let m = GroundTruthMatcher::new(&view, &lt.truth, Granularity::Uniflow);
        assert!(m.detected_by(&[]).is_empty());
    }

    #[test]
    fn strategy_scoring_bounds() {
        let (lt, flows) = run();
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let m = GroundTruthMatcher::new(&view, &lt.truth, Granularity::Uniflow);
        let score = score_strategy(&m, &report.communities, &report.decisions);
        assert!(score.recall() <= 1.0);
        assert!(score.precision() <= 1.0);
        assert!(score.detected_attacks.len() <= score.detected.len());
        assert_eq!(score.total_anomalies, lt.truth.anomalies().len());
    }

    #[test]
    fn detector_scores_are_subsets_of_union() {
        let (lt, flows) = run();
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let m = GroundTruthMatcher::new(&view, &lt.truth, Granularity::Uniflow);
        let mut union: HashSet<u32> = HashSet::new();
        for d in DetectorKind::ALL {
            union.extend(score_detector(&m, &report.communities, d));
        }
        assert!(union.len() <= m.anomaly_ids().len());
        for d in DetectorKind::ALL {
            assert!(score_detector(&m, &report.communities, d).is_subset(&union));
        }
    }

    #[test]
    fn item_id_matcher_equals_view_matcher() {
        // The streaming constructor, fed the ids an ItemIndex assigns
        // in stream order, indexes exactly what the batch constructor
        // indexes from the flow table, at every granularity.
        let (lt, flows) = run();
        let view = TraceView::new(&lt.trace, &flows);
        for (granularity, units) in [
            (Granularity::Packet, flows.packet_count()),
            (Granularity::Uniflow, flows.uniflow_count()),
            (Granularity::Biflow, flows.biflow_count()),
        ] {
            let from_view = GroundTruthMatcher::new(&view, &lt.truth, granularity);
            let mut ids = Vec::new();
            mawilab_model::ItemIndex::new(granularity).ids_of(&lt.trace.packets, &mut ids);
            let from_ids = GroundTruthMatcher::from_item_ids(&ids, &lt.truth, DEFAULT_MIN_COVERAGE);
            assert_eq!(
                from_view.anomaly_ids(),
                from_ids.anomaly_ids(),
                "{granularity:?}"
            );
            assert_eq!(
                from_view.attack_ids(),
                from_ids.attack_ids(),
                "{granularity:?}"
            );
            let all: Vec<u32> = (0..units as u32).collect();
            assert_eq!(
                from_view.detected_by(&all),
                from_ids.detected_by(&all),
                "{granularity:?}"
            );
        }
    }

    #[test]
    fn higher_coverage_threshold_detects_less() {
        let (lt, flows) = run();
        let ids: Vec<u32> = (0..flows.packet_count())
            .map(|i| flows.uniflow_of(i))
            .collect();
        let loose = GroundTruthMatcher::from_item_ids(&ids, &lt.truth, 0.01);
        let strict = GroundTruthMatcher::from_item_ids(&ids, &lt.truth, 0.9);
        let all: Vec<u32> = (0..flows.uniflow_count() as u32).collect();
        assert!(strict.detected_by(&all).len() <= loose.detected_by(&all).len());
    }
}
