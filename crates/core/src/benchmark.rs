//! Benchmarking a detector against MAWILab labels.
//!
//! The database's purpose (paper §1, §5): researchers compare their
//! detector's alarms to the labels "by using a similarity estimator
//! like the one presented in this work". This module implements that
//! comparison: the candidate detector's alarms are resolved to
//! traffic sets, and each labeled community counts as *detected* when
//! some alarm overlaps its traffic with Simpson similarity at or
//! above `min_overlap`.
//!
//! Unlike the evaluation methodologies the paper criticises, this
//! yields a **false-negative count** — the labeled anomalies the
//! candidate missed.

use crate::pipeline::PipelineReport;
use mawilab_detectors::{Alarm, TraceView};
use mawilab_label::MawilabLabel;
use mawilab_similarity::extractor::intersection_size;
use mawilab_similarity::{extract_traffic, SimilarityMeasure};

/// Outcome of scoring a candidate detector against labeled traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Labeled `Anomalous` communities the candidate hit.
    pub detected: usize,
    /// Labeled `Anomalous` communities the candidate missed
    /// (false negatives — the metric §1 says evaluations omit).
    pub missed: usize,
    /// Candidate alarms overlapping some non-benign community.
    pub matched_alarms: usize,
    /// Candidate alarms overlapping nothing labeled (false-positive
    /// candidates).
    pub unmatched_alarms: usize,
}

impl BenchmarkResult {
    /// Recall over labeled anomalies.
    pub fn recall(&self) -> f64 {
        let total = self.detected + self.missed;
        if total == 0 {
            return 0.0;
        }
        self.detected as f64 / total as f64
    }

    /// Fraction of candidate alarms that matched labeled traffic.
    pub fn alarm_precision(&self) -> f64 {
        let total = self.matched_alarms + self.unmatched_alarms;
        if total == 0 {
            return 0.0;
        }
        self.matched_alarms as f64 / total as f64
    }
}

/// Scores candidate `alarms` against a labeled pipeline report.
///
/// `min_overlap` is the Simpson-similarity floor for a match (0.0
/// counts any intersection, mirroring the estimator's default).
pub fn benchmark_alarms(
    view: &TraceView<'_>,
    report: &PipelineReport,
    alarms: &[Alarm],
    min_overlap: f64,
) -> BenchmarkResult {
    let candidate_sets = extract_traffic(view, alarms, report.communities.granularity);
    let measure = SimilarityMeasure::Simpson;

    // Each labeled community's traffic, built once for both loops.
    let traffics: Vec<Vec<u32>> = report
        .labeled
        .communities
        .iter()
        .map(|lc| report.communities.community_traffic(lc.community))
        .collect();
    let overlaps = |set: &[u32], traffic: &[u32]| {
        let inter = intersection_size(set, traffic);
        inter > 0 && measure.value(inter, set.len().max(1), traffic.len().max(1)) >= min_overlap
    };

    let mut detected = 0;
    let mut missed = 0;
    for (lc, traffic) in report.labeled.communities.iter().zip(&traffics) {
        if lc.label != MawilabLabel::Anomalous {
            continue;
        }
        if candidate_sets.iter().any(|set| overlaps(set, traffic)) {
            detected += 1;
        } else {
            missed += 1;
        }
    }

    // Alarm-side accounting: an alarm matches when it overlaps any
    // labeled (non-benign by construction) community.
    let mut matched_alarms = 0;
    let mut unmatched_alarms = 0;
    for set in &candidate_sets {
        if traffics.iter().any(|traffic| overlaps(set, traffic)) {
            matched_alarms += 1;
        } else {
            unmatched_alarms += 1;
        }
    }

    BenchmarkResult {
        detected,
        missed,
        matched_alarms,
        unmatched_alarms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MawilabPipeline, PipelineConfig};
    use mawilab_detectors::{Detector, KlDetector, Tuning};
    use mawilab_model::FlowTable;
    use mawilab_synth::{SynthConfig, TraceGenerator};

    #[test]
    fn pipeline_detectors_score_perfectly_against_their_own_labels() {
        // Benchmarking the full 12-config ensemble against the labels
        // it produced must find every anomalous community.
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(31)).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let alarms = report.communities.alarms.clone();
        let result = benchmark_alarms(&view, &report, &alarms, 0.0);
        assert_eq!(result.missed, 0, "ensemble missed its own labels");
        if result.detected + result.missed > 0 {
            assert_eq!(result.recall(), 1.0);
        }
    }

    #[test]
    fn single_detector_has_false_negatives() {
        // The headline claim: a single detector misses labeled
        // anomalies the ensemble found.
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(32)).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let kl_alarms = KlDetector::new(Tuning::Optimal).analyze(&view);
        let result = benchmark_alarms(&view, &report, &kl_alarms, 0.0);
        let anomalous = report.labeled.count(mawilab_label::MawilabLabel::Anomalous);
        assert_eq!(result.detected + result.missed, anomalous);
        assert!(result.recall() <= 1.0);
    }

    #[test]
    fn empty_candidate_misses_everything() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(33)).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let result = benchmark_alarms(&view, &report, &[], 0.0);
        assert_eq!(result.detected, 0);
        assert_eq!(result.matched_alarms, 0);
        assert_eq!(result.recall(), 0.0);
        assert_eq!(result.alarm_precision(), 0.0);
    }

    #[test]
    fn stricter_overlap_cannot_increase_detection() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(34)).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let alarms = KlDetector::new(Tuning::Sensitive).analyze(&view);
        let loose = benchmark_alarms(&view, &report, &alarms, 0.0);
        let strict = benchmark_alarms(&view, &report, &alarms, 0.5);
        assert!(strict.detected <= loose.detected);
        assert!(strict.matched_alarms <= loose.matched_alarms);
    }
}
