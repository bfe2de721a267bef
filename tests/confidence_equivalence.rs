//! Confidence equivalence suite — pins the tentpole contract of the
//! confidence-scored labels:
//!
//! 1. **the score is a bounded, monotone evidence summary** —
//!    `confidence_score` stays in [0, 1] and is strictly monotone in
//!    the number of concurring combination strategies, at every
//!    margin and vote fraction (proptest);
//! 2. **thresholds off ≡ the hard labels** — with
//!    `confidence_thresholds: None` the tier is bound to the hard
//!    accept/reject decision (never `Uncertain`), on arbitrary vote
//!    tables (proptest) and through every labeling path;
//! 3. **thresholds only ever add the tier** — batch and single-pass
//!    online runs produce byte-identical decisions, labels and scores
//!    whether thresholds are on or off, and the online run matches
//!    the batch oracle, across `MAWILAB_THREADS` ∈ {1, 2, 4, 13}.
//!
//! Tests mutating `MAWILAB_THREADS` share `ENV_LOCK` (the variable is
//! process-wide).

use mawilab::combiner::{
    confidence_score, label_confidences, CombinationStrategy, ConfidenceThresholds, ConfidenceTier,
    Scann, VoteTable,
};
use mawilab::core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab::label::LabeledCommunity;
use mawilab::model::{NoRewindSource, TraceChunker, DEFAULT_CHUNK_US};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};
use proptest::prelude::*;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn synth() -> mawilab::synth::LabeledTrace {
    TraceGenerator::new(SynthConfig::default().with_seed(77).with_anomalies(vec![
        AnomalySpec::SynFlood {
            victim: 40,
            dport: 80,
            rate_pps: 250.0,
            duration_s: 12.0,
            spoofed: true,
        },
        AnomalySpec::SasserWorm {
            infected: 3,
            scans: 900,
            rate_pps: 60.0,
        },
    ]))
    .generate()
}

fn config(thresholds: Option<ConfidenceThresholds>) -> PipelineConfig {
    PipelineConfig {
        confidence_thresholds: thresholds,
        ..PipelineConfig::default()
    }
}

/// Labels from one path under thresholds-on and thresholds-off must
/// agree on everything except the tier — and the off-run's tier must
/// be the hard decision restated.
fn assert_thresholds_only_add_the_tier(
    off: &[LabeledCommunity],
    on: &[LabeledCommunity],
    what: &str,
) {
    assert_eq!(off.len(), on.len(), "community count differs ({what})");
    assert!(!off.is_empty(), "no communities labeled ({what})");
    for (a, b) in off.iter().zip(on) {
        assert_eq!(a.community, b.community, "{what}");
        assert_eq!(
            a.label, b.label,
            "label of community {} ({what})",
            a.community
        );
        assert_eq!(a.heuristic, b.heuristic, "{what}");
        assert_eq!(a.window, b.window, "{what}");
        assert_eq!(
            a.confidence.score.to_bits(),
            b.confidence.score.to_bits(),
            "score of community {} depends on thresholds ({what})",
            a.community
        );
        // Thresholds-off: the tier is the hard label restated, and
        // abstention cannot happen.
        assert_ne!(a.confidence.tier, ConfidenceTier::Uncertain, "{what}");
        assert_eq!(
            a.confidence.tier == ConfidenceTier::Anomalous,
            a.label == mawilab::label::MawilabLabel::Anomalous,
            "thresholds-off tier not bound to the hard label ({what})"
        );
    }
}

#[test]
fn thresholds_off_is_byte_identical_across_paths_and_threads() {
    let _lock = ENV_LOCK.lock().unwrap();
    let lt = synth();
    let (off_cfg, on_cfg) = (config(None), config(Some(ConfidenceThresholds::default())));

    for threads in ["1", "2", "4", "13"] {
        std::env::set_var("MAWILAB_THREADS", threads);

        // Batch: the oracle.
        let batch_off = MawilabPipeline::new(off_cfg.clone()).run(&lt.trace);
        let batch_on = MawilabPipeline::new(on_cfg.clone()).run(&lt.trace);
        assert_eq!(
            batch_off.decisions, batch_on.decisions,
            "batch decisions, T={threads}"
        );
        assert_thresholds_only_add_the_tier(
            &batch_off.labeled.communities,
            &batch_on.labeled.communities,
            &format!("batch, T={threads}"),
        );

        // Single-pass online (sealed source: no rewinds).
        let run_online = |cfg: &PipelineConfig| {
            let mut sealed =
                NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
            let report = OnlinePipeline::new(cfg.clone()).run(&mut sealed).unwrap();
            assert_eq!(sealed.rewinds_refused(), 0);
            report
        };
        let (off, on) = (run_online(&off_cfg), run_online(&on_cfg));
        assert_eq!(
            off.report.decisions, batch_off.decisions,
            "online/batch decisions, T={threads}"
        );
        assert_eq!(
            on.report.decisions, batch_on.decisions,
            "online/batch decisions with thresholds, T={threads}"
        );
        assert_thresholds_only_add_the_tier(
            &off.report.labeled.communities,
            &on.report.labeled.communities,
            &format!("online, T={threads}"),
        );
        // The online tiers and scores are the batch oracle's.
        for (o, b) in on
            .report
            .labeled
            .communities
            .iter()
            .zip(&batch_on.labeled.communities)
        {
            assert_eq!(o.confidence.tier, b.confidence.tier, "T={threads}");
            assert_eq!(
                o.confidence.score.to_bits(),
                b.confidence.score.to_bits(),
                "T={threads}"
            );
        }
    }
    std::env::remove_var("MAWILAB_THREADS");
}

proptest! {
    /// The score is bounded and strictly monotone in strategy
    /// agreement: one more concurring strategy always raises it,
    /// whatever the margin and vote mass say.
    #[test]
    fn score_is_bounded_and_monotone_in_agreement(
        accepts in 0usize..=4,
        margin_pct in 0u32..=100,
        votes_pct in 0u32..=100,
    ) {
        let margin = margin_pct as f64 / 100.0;
        let votes = votes_pct as f64 / 100.0;
        let s = confidence_score(accepts, margin, votes);
        prop_assert!((0.0..=1.0).contains(&s), "score {s} out of bounds");
        if accepts < 4 {
            prop_assert!(
                confidence_score(accepts + 1, margin, votes) > s,
                "agreement {accepts}→{} did not raise the score",
                accepts + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Thresholds off: on arbitrary vote tables the tier restates the
    /// hard decision — `Uncertain` cannot occur, and the score stays
    /// finite and bounded.
    #[test]
    fn thresholds_off_tier_restates_the_decision(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 12), 0..8),
    ) {
        let rows: Vec<[bool; 12]> = rows
            .into_iter()
            .map(|r| {
                let mut a = [false; 12];
                for (i, b) in r.into_iter().enumerate() {
                    a[i] = b;
                }
                a
            })
            .collect();
        let table = VoteTable::from_rows(rows);
        let decisions = Scann::default().classify(&table);
        let confidences = label_confidences(&table, &decisions, None);
        prop_assert_eq!(confidences.len(), decisions.len());
        for (c, d) in confidences.iter().zip(&decisions) {
            prop_assert!((0.0..=1.0).contains(&c.score));
            let expected = if d.accepted {
                ConfidenceTier::Anomalous
            } else {
                ConfidenceTier::Benign
            };
            prop_assert_eq!(c.tier, expected);
        }
    }
}
