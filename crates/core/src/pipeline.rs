//! The four-step MAWILab pipeline.

use mawilab_combiner::{
    label_confidences, Average, CombinationStrategy, ConfidenceThresholds, Decision,
    LabelConfidence, MajorityVote, Maximum, Minimum, Scann, VoteTable,
};
use mawilab_detectors::{run_all, standard_configurations, Alarm, Detector, TraceView};
use mawilab_label::{label_communities, LabeledCommunity, MawilabLabel};
use mawilab_model::{FlowTable, Granularity, SourceError, Trace};
use mawilab_similarity::{
    extract_traffic, AlarmCommunities, SimilarityEstimator, SimilarityMeasure,
};

/// Which combination strategy step 3 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Mean confidence > 0.5.
    Average,
    /// Min confidence > 0.5.
    Minimum,
    /// Max confidence > 0.5.
    Maximum,
    /// Correspondence-analysis SCANN — the paper's pick (§5).
    #[default]
    Scann,
    /// Raw majority of configurations (baseline, §2.2.1).
    Majority,
}

impl StrategyKind {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Average,
        StrategyKind::Minimum,
        StrategyKind::Maximum,
        StrategyKind::Scann,
        StrategyKind::Majority,
    ];

    /// Instantiates the strategy.
    pub fn build(self) -> Box<dyn CombinationStrategy> {
        match self {
            StrategyKind::Average => Box::new(Average),
            StrategyKind::Minimum => Box::new(Minimum),
            StrategyKind::Maximum => Box::new(Maximum),
            StrategyKind::Scann => Box::new(Scann::default()),
            StrategyKind::Majority => Box::new(MajorityVote),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Average => "average",
            StrategyKind::Minimum => "minimum",
            StrategyKind::Maximum => "maximum",
            StrategyKind::Scann => "SCANN",
            StrategyKind::Majority => "majority",
        }
    }
}

/// Pipeline configuration. The default matches the paper's released
/// settings: uniflow granularity, Simpson similarity, SCANN
/// combination, 20% rule support, no edge pruning, classical
/// modularity.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Traffic granularity for the similarity estimator.
    pub granularity: Granularity,
    /// Edge-weight measure of the similarity graph.
    pub measure: SimilarityMeasure,
    /// Similarity-graph edges at or below this weight are dropped
    /// (0.0 = keep every intersecting pair, the paper's setting).
    pub min_similarity: f64,
    /// Louvain resolution (1.0 = classical modularity).
    pub resolution: f64,
    /// Combination strategy.
    pub strategy: StrategyKind,
    /// Apriori support threshold for community summaries (paper:
    /// 0.2).
    pub min_support: f64,
    /// Dual confidence thresholds for the abstention tier. `None`
    /// (the default) keeps the tier bound to the hard decision —
    /// output is byte-identical to the pre-confidence pipeline.
    pub confidence_thresholds: Option<ConfidenceThresholds>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            granularity: Granularity::Uniflow,
            measure: SimilarityMeasure::Simpson,
            min_similarity: 0.0,
            resolution: 1.0,
            strategy: StrategyKind::Scann,
            min_support: 0.2,
            confidence_thresholds: None,
        }
    }
}

impl PipelineConfig {
    /// Checks the knobs that mining and Louvain would otherwise reject
    /// with an assert only after every detector has run: a
    /// `min_support` outside `(0, 1]`
    /// ([`SourceError::InvalidMinSupport`]) or a `resolution` that is
    /// not positive ([`SourceError::InvalidResolution`]). Both
    /// pipelines call it before any work.
    pub fn validate(&self) -> Result<(), SourceError> {
        let (support, resolution) = (self.min_support, self.resolution);
        if support.is_nan() || support <= 0.0 || support > 1.0 {
            return Err(SourceError::InvalidMinSupport(support));
        }
        if resolution.is_nan() || resolution <= 0.0 {
            return Err(SourceError::InvalidResolution(resolution));
        }
        Ok(())
    }

    /// The similarity estimator this configuration describes — the
    /// single place the pipeline's four estimator knobs are wired
    /// through, shared by the batch and single-pass pipelines.
    pub fn estimator(&self) -> SimilarityEstimator {
        SimilarityEstimator {
            granularity: self.granularity,
            measure: self.measure,
            min_similarity: self.min_similarity,
            resolution: self.resolution,
        }
    }
}

/// The labeled output of one trace.
#[derive(Debug, Clone)]
pub struct LabeledReport {
    /// One labeled entry per community.
    pub communities: Vec<LabeledCommunity>,
}

impl LabeledReport {
    /// Communities labeled `Anomalous`.
    pub fn anomalies(&self) -> impl Iterator<Item = &LabeledCommunity> {
        self.communities
            .iter()
            .filter(|c| c.label == MawilabLabel::Anomalous)
    }

    /// Number of communities carrying `label`.
    pub fn count(&self, label: MawilabLabel) -> usize {
        self.communities.iter().filter(|c| c.label == label).count()
    }
}

/// Everything the pipeline produced for one trace.
#[derive(Debug)]
pub struct PipelineReport {
    /// Step-2 output: alarms, traffic sets, graph, partition.
    pub communities: AlarmCommunities,
    /// Step-3 input: the 12-configuration vote table.
    pub votes: VoteTable,
    /// Step-3 output: one decision per community.
    pub decisions: Vec<Decision>,
    /// Step-4 output: labeled communities.
    pub labeled: LabeledReport,
}

impl PipelineReport {
    /// Total number of alarms the detectors raised.
    pub fn alarm_count(&self) -> usize {
        self.communities.alarms.len()
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.communities.community_count()
    }
}

/// The end-to-end MAWILab pipeline.
pub struct MawilabPipeline {
    config: PipelineConfig,
    detectors: Vec<Box<dyn Detector>>,
}

impl MawilabPipeline {
    /// Builds the pipeline with the paper's 12 standard detector
    /// configurations.
    pub fn new(config: PipelineConfig) -> Self {
        MawilabPipeline {
            config,
            detectors: standard_configurations(),
        }
    }

    /// Replaces the detector set (e.g. to ablate a family or add an
    /// emerging detector — §6 explicitly invites this).
    pub fn with_detectors(mut self, detectors: Vec<Box<dyn Detector>>) -> Self {
        self.detectors = detectors;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs all four steps on one trace.
    ///
    /// # Panics
    ///
    /// Before any detector runs, if the configuration fails
    /// [`PipelineConfig::validate`]; the message is the typed error's.
    pub fn run(&self, trace: &Trace) -> PipelineReport {
        if let Err(e) = self.config.validate() {
            panic!("invalid pipeline configuration: {e}"); // lint:allow(panic-free-data-plane): the batch oracle's run returns no Result yet (ROADMAP, "perfbench traces the production drain"); this is the documented early panic that replaces the asserts in mining and Louvain
        }
        let flows = FlowTable::build(&trace.packets);
        let view = TraceView::new(trace, &flows);

        let alarms = run_all(&self.detectors, &view);
        let traffic = extract_traffic(&view, &alarms, self.config.granularity);
        combine_and_label(
            &self.config,
            alarms,
            traffic,
            |communities, decisions, confidences| {
                label_communities(
                    &view,
                    communities,
                    decisions,
                    confidences,
                    self.config.min_support,
                )
            },
        )
    }

    /// Runs steps 1–2 once and classifies with *every* strategy —
    /// the comparison workload of the paper's §4.2.
    pub fn run_all_strategies(
        &self,
        trace: &Trace,
    ) -> (PipelineReport, Vec<(StrategyKind, Vec<Decision>)>) {
        let report = self.run(trace);
        let per_strategy = StrategyKind::ALL
            .iter()
            .map(|&k| (k, k.build().classify(&report.votes)))
            .collect();
        (report, per_strategy)
    }
}

/// Steps 2–4, shared by the batch and single-pass pipelines: builds
/// the similarity graph and communities from the extracted traffic,
/// combines the 12 configurations' votes, scores confidence, and
/// labels each community through `label_with` — the one step whose
/// evidence source differs between the two pipelines.
pub(crate) fn combine_and_label(
    config: &PipelineConfig,
    alarms: Vec<Alarm>,
    traffic: Vec<Vec<u32>>,
    label_with: impl FnOnce(&AlarmCommunities, &[Decision], &[LabelConfidence]) -> Vec<LabeledCommunity>,
) -> PipelineReport {
    let communities = config.estimator().estimate_from_traffic(alarms, traffic);
    let votes = VoteTable::from_communities(&communities);
    let decisions = config.strategy.build().classify(&votes);
    let confidences = label_confidences(&votes, &decisions, config.confidence_thresholds);
    let labeled = LabeledReport {
        communities: label_with(&communities, &decisions, &confidences),
    };
    PipelineReport {
        communities,
        votes,
        decisions,
        labeled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_synth::{SynthConfig, TraceGenerator};
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn small_trace() -> mawilab_synth::LabeledTrace {
        TraceGenerator::new(SynthConfig::default().with_seed(99)).generate()
    }

    #[test]
    fn validate_accepts_the_default_and_types_each_bad_knob() {
        assert!(PipelineConfig::default().validate().is_ok());
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            let config = PipelineConfig {
                min_support: bad,
                ..PipelineConfig::default()
            };
            let err = config.validate().unwrap_err();
            assert!(matches!(err, SourceError::InvalidMinSupport(_)), "{err}");
        }
        for bad in [0.0, -1.0, f64::NAN] {
            let config = PipelineConfig {
                resolution: bad,
                ..PipelineConfig::default()
            };
            let err = config.validate().unwrap_err();
            assert!(matches!(err, SourceError::InvalidResolution(_)), "{err}");
        }
    }

    /// A PCA configuration that counts how often it is run.
    struct Counting(Arc<AtomicUsize>);

    impl Detector for Counting {
        fn kind(&self) -> mawilab_detectors::DetectorKind {
            mawilab_detectors::DetectorKind::Pca
        }

        fn tuning(&self) -> mawilab_detectors::Tuning {
            mawilab_detectors::Tuning::Optimal
        }

        fn incremental(&self) -> Box<dyn mawilab_detectors::IncrementalDetector> {
            self.0.fetch_add(1, Ordering::SeqCst);
            mawilab_detectors::PcaDetector::new(self.tuning()).incremental()
        }
    }

    #[test]
    fn batch_run_panics_with_the_typed_error_before_any_detector_runs() {
        let trace = small_trace().trace;
        let cases = [
            (
                PipelineConfig {
                    min_support: 0.0,
                    ..PipelineConfig::default()
                },
                SourceError::InvalidMinSupport(0.0),
            ),
            (
                PipelineConfig {
                    resolution: 0.0,
                    ..PipelineConfig::default()
                },
                SourceError::InvalidResolution(0.0),
            ),
        ];
        for (config, err) in cases {
            let runs = Arc::new(AtomicUsize::new(0));
            let pipeline =
                MawilabPipeline::new(config).with_detectors(vec![Box::new(Counting(runs.clone()))]);
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| pipeline.run(&trace)))
                .expect_err("the configuration must be rejected");
            let msg = payload
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert_eq!(*msg, format!("invalid pipeline configuration: {err}"));
            assert_eq!(runs.load(Ordering::SeqCst), 0, "a detector ran: {msg}");
        }
    }

    #[test]
    fn pipeline_produces_consistent_report() {
        let lt = small_trace();
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        assert!(report.alarm_count() > 0, "no alarms");
        assert!(report.community_count() > 0);
        assert_eq!(report.decisions.len(), report.community_count());
        assert_eq!(report.labeled.communities.len(), report.community_count());
    }

    #[test]
    fn anomalous_label_matches_accepted_decision() {
        let lt = small_trace();
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        for (c, d) in report.decisions.iter().enumerate() {
            let label = report.labeled.communities[c].label;
            if d.accepted {
                assert_eq!(label, MawilabLabel::Anomalous);
            } else {
                assert_ne!(label, MawilabLabel::Anomalous);
            }
        }
    }

    #[test]
    fn confidence_rides_along_with_every_label() {
        use mawilab_combiner::ConfidenceTier;
        let lt = small_trace();
        // Thresholds off: the tier IS the hard decision, never
        // Uncertain, and the score is a valid probability-like value.
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
        for (c, lc) in report.labeled.communities.iter().enumerate() {
            assert!((0.0..=1.0).contains(&lc.confidence.score));
            let expect = if report.decisions[c].accepted {
                ConfidenceTier::Anomalous
            } else {
                ConfidenceTier::Benign
            };
            assert_eq!(lc.confidence.tier, expect);
        }
        // Thresholds on: same hard labels, same scores; only the tier
        // may move into the abstention band.
        let with = MawilabPipeline::new(PipelineConfig {
            confidence_thresholds: Some(ConfidenceThresholds::default()),
            ..PipelineConfig::default()
        })
        .run(&lt.trace);
        assert_eq!(with.decisions, report.decisions);
        for (a, b) in with
            .labeled
            .communities
            .iter()
            .zip(&report.labeled.communities)
        {
            assert_eq!(a.label, b.label);
            assert_eq!(a.confidence.score, b.confidence.score);
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let lt = small_trace();
        let p = MawilabPipeline::new(PipelineConfig::default());
        let a = p.run(&lt.trace);
        let b = p.run(&lt.trace);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.votes, b.votes);
        assert_eq!(
            a.labeled
                .communities
                .iter()
                .map(|c| c.label)
                .collect::<Vec<_>>(),
            b.labeled
                .communities
                .iter()
                .map(|c| c.label)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_strategies_classify_every_community() {
        let lt = small_trace();
        let (report, per_strategy) =
            MawilabPipeline::new(PipelineConfig::default()).run_all_strategies(&lt.trace);
        assert_eq!(per_strategy.len(), 5);
        for (kind, decisions) in &per_strategy {
            assert_eq!(
                decisions.len(),
                report.community_count(),
                "strategy {} skipped communities",
                kind.name()
            );
        }
        // Nesting sanity: minimum ⊆ average ⊆ maximum accepted sets.
        let get = |k: StrategyKind| {
            per_strategy
                .iter()
                .find(|(kk, _)| *kk == k)
                .map(|(_, d)| d.clone())
                .unwrap()
        };
        let (mins, avgs, maxs) = (
            get(StrategyKind::Minimum),
            get(StrategyKind::Average),
            get(StrategyKind::Maximum),
        );
        for c in 0..report.community_count() {
            if mins[c].accepted {
                assert!(avgs[c].accepted);
            }
            if avgs[c].accepted {
                assert!(maxs[c].accepted);
            }
        }
    }

    #[test]
    fn strategy_kinds_build_and_name() {
        for k in StrategyKind::ALL {
            let s = k.build();
            assert_eq!(s.name(), k.name());
        }
    }

    #[test]
    fn empty_trace_is_handled() {
        let meta = mawilab_model::TraceMeta::standard(mawilab_model::TraceDate::new(2004, 6, 2));
        let trace = Trace::new(meta, vec![]);
        let report = MawilabPipeline::new(PipelineConfig::default()).run(&trace);
        assert_eq!(report.alarm_count(), 0);
        assert_eq!(report.community_count(), 0);
        assert!(report.labeled.communities.is_empty());
    }

    #[test]
    fn custom_detector_set_is_respected() {
        use mawilab_detectors::{KlDetector, Tuning};
        let lt = small_trace();
        let pipeline = MawilabPipeline::new(PipelineConfig::default())
            .with_detectors(vec![Box::new(KlDetector::new(Tuning::Sensitive))]);
        let report = pipeline.run(&lt.trace);
        assert!(report
            .communities
            .alarms
            .iter()
            .all(|a| a.detector == mawilab_detectors::DetectorKind::Kl));
    }
}
