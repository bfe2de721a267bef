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
//!
//! [`benchmark_alarms`] scores in one pass over the candidate's
//! traffic. It inverts the labeled communities once per call into a
//! dense unit → community table (each community's traffic is the union
//! of its alarms' traffic; a per-unit stamp deduplicates it and counts
//! the community's size, with no per-community sort). Each candidate
//! set then walks its own units once, accumulating intersection counts
//! for exactly the communities it touches, and every touched community
//! is decided with the same Simpson test as the nested loop.
//! [`benchmark_alarms_sequential`] keeps that nested community × alarm
//! loop as the equivalence oracle.

use crate::pipeline::PipelineReport;
use mawilab_detectors::{Alarm, TraceView};
use mawilab_label::MawilabLabel;
use mawilab_similarity::extractor::intersection_size;
use mawilab_similarity::{extract_traffic, SimilarityMeasure};

/// Outcome of scoring a candidate detector against labeled traffic.
///
/// An alarm and a community *match* when their traffic sets intersect
/// and their Simpson similarity is at least the call's `min_overlap`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Labeled `Anomalous` communities the candidate hit.
    pub detected: usize,
    /// Labeled `Anomalous` communities the candidate missed
    /// (false negatives — the metric §1 says evaluations omit).
    pub missed: usize,
    /// Candidate alarms matching some labeled (non-benign) community:
    /// overlapping it with Simpson similarity at or above
    /// `min_overlap`.
    pub matched_alarms: usize,
    /// Candidate alarms matching no labeled community — no overlap, or
    /// only overlaps below `min_overlap` (false-positive candidates).
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

/// The labeled communities inverted by traffic unit, in CSR form:
/// unit `u` lies in labeled communities
/// `communities[starts[u]..starts[u + 1]]` (indices into
/// `report.labeled.communities`, ascending), and labeled community `k`
/// holds `sizes[k]` distinct units.
struct UnitCommunities {
    starts: Vec<u32>,
    communities: Vec<u32>,
    sizes: Vec<usize>,
}

impl UnitCommunities {
    fn new(report: &PipelineReport) -> Self {
        let c = &report.communities;
        let labeled = &report.labeled.communities;
        let traffic_of = |k: usize| {
            c.members(labeled[k].community)
                .iter()
                .flat_map(|&m| c.traffic[m].iter().map(|&u| u as usize))
        };
        let units = (0..labeled.len())
            .flat_map(traffic_of)
            .max()
            .map_or(0, |u| u + 1);
        // `stamp[u]` is the last community that counted `u`, so a unit
        // several of a community's alarms share counts once.
        let mut stamp = vec![u32::MAX; units];
        let mut sizes = vec![0; labeled.len()];
        let mut starts = vec![0u32; units + 1];
        for (k, size) in sizes.iter_mut().enumerate() {
            for u in traffic_of(k) {
                if stamp[u] != k as u32 {
                    stamp[u] = k as u32;
                    starts[u] += 1;
                    *size += 1;
                }
            }
        }
        for u in 1..starts.len() {
            starts[u] += starts[u - 1];
        }
        // `starts[u]` is now the end of unit `u`'s list; filling back to
        // front leaves it at the list's start, communities ascending.
        stamp.fill(u32::MAX);
        let mut communities = vec![0; starts[units] as usize];
        for k in (0..labeled.len()).rev() {
            for u in traffic_of(k) {
                if stamp[u] != k as u32 {
                    stamp[u] = k as u32;
                    starts[u] -= 1;
                    communities[starts[u] as usize] = k as u32;
                }
            }
        }
        UnitCommunities {
            starts,
            communities,
            sizes,
        }
    }

    /// The labeled communities holding unit `u` (none past the table).
    fn of(&self, u: u32) -> &[u32] {
        let u = u as usize;
        match (self.starts.get(u), self.starts.get(u + 1)) {
            (Some(&from), Some(&to)) => &self.communities[from as usize..to as usize],
            _ => &[],
        }
    }
}

/// Scores candidate `alarms` against a labeled pipeline report.
///
/// `min_overlap` is the Simpson-similarity floor for a match (0.0
/// counts any intersection, mirroring the estimator's default).
/// Equal to [`benchmark_alarms_sequential`]; see the module docs for
/// the one-pass matching.
pub fn benchmark_alarms(
    view: &TraceView<'_>,
    report: &PipelineReport,
    alarms: &[Alarm],
    min_overlap: f64,
) -> BenchmarkResult {
    let labeled = &report.labeled.communities;
    let anomalous = |k: usize| labeled[k].label == MawilabLabel::Anomalous;
    if alarms.is_empty() {
        return BenchmarkResult {
            detected: 0,
            missed: (0..labeled.len()).filter(|&k| anomalous(k)).count(),
            matched_alarms: 0,
            unmatched_alarms: 0,
        };
    }
    let candidate_sets = extract_traffic(view, alarms, report.communities.granularity);
    let by_unit = UnitCommunities::new(report);
    let measure = SimilarityMeasure::Simpson;

    // Per candidate set: intersection counts of the communities it
    // touches, reset through the touched list.
    let mut inter = vec![0; labeled.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut hit = vec![false; labeled.len()];
    let mut matched_alarms = 0;
    for set in &candidate_sets {
        for &u in set {
            for &k in by_unit.of(u) {
                if inter[k as usize] == 0 {
                    touched.push(k);
                }
                inter[k as usize] += 1;
            }
        }
        let mut matched = false;
        for k in touched.drain(..) {
            let k = k as usize;
            let n = std::mem::take(&mut inter[k]);
            if n > 0 && measure.value(n, set.len().max(1), by_unit.sizes[k].max(1)) >= min_overlap {
                hit[k] = true;
                matched = true;
            }
        }
        matched_alarms += usize::from(matched);
    }

    let detected = (0..labeled.len())
        .filter(|&k| anomalous(k) && hit[k])
        .count();
    let missed = (0..labeled.len())
        .filter(|&k| anomalous(k) && !hit[k])
        .count();
    BenchmarkResult {
        detected,
        missed,
        matched_alarms,
        unmatched_alarms: candidate_sets.len() - matched_alarms,
    }
}

/// The nested-loop scorer, retained as the equivalence oracle for
/// [`benchmark_alarms`]: every labeled community's traffic is built as
/// a sorted set, then intersected with candidate sets until one
/// matches, once per community and once per alarm.
pub fn benchmark_alarms_sequential(
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
    use mawilab_detectors::{
        Detector, GammaDetector, HoughDetector, KlDetector, PcaDetector, Tuning,
    };
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
    fn researcher_path_scores_are_pinned() {
        // The `benchmark_detector` example's setup: labels from the
        // default ensemble on synth seed 2010, four candidate
        // detectors scored at a 0.1 overlap floor. Each row is
        // (alarms, detected, missed, matched, unmatched).
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(2010)).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let candidates: [(&str, Box<dyn Detector>, _); 4] = [
            (
                "KL",
                Box::new(KlDetector::new(Tuning::Optimal)),
                (6, 5, 0, 6, 0),
            ),
            (
                "Gamma",
                Box::new(GammaDetector::new(Tuning::Optimal)),
                (2, 3, 2, 2, 0),
            ),
            (
                "Hough",
                Box::new(HoughDetector::new(Tuning::Optimal)),
                (36, 5, 0, 36, 0),
            ),
            (
                "PCA",
                Box::new(PcaDetector::new(Tuning::Optimal)),
                (23, 5, 0, 23, 0),
            ),
        ];
        for (name, det, want) in candidates {
            let alarms = det.analyze(&view);
            let r = benchmark_alarms(&view, &report, &alarms, 0.1);
            let got = (
                alarms.len(),
                r.detected,
                r.missed,
                r.matched_alarms,
                r.unmatched_alarms,
            );
            assert_eq!(got, want, "{name}/optimal");
            assert_eq!(
                r,
                benchmark_alarms_sequential(&view, &report, &alarms, 0.1),
                "{name}/optimal"
            );
        }
    }

    #[test]
    fn empty_candidate_misses_everything() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(33)).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        let result = benchmark_alarms(&view, &report, &[], 0.0);
        assert_eq!(
            result,
            benchmark_alarms_sequential(&view, &report, &[], 0.0)
        );
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
