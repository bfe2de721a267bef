//! Single-pass/batch equivalence: the acceptance gate of the online
//! labeler.
//!
//! `OnlinePipeline` drains a source exactly once — detection and
//! traffic extraction share the drain, evidence past the sliding
//! horizon is retired into a flat per-unit record log — yet its labels must
//! be byte-identical to the batch `MawilabPipeline::run` on the
//! materialised trace (the equivalence oracle) across seeds, chunk
//! widths, horizon lags, granularities and thread counts. Every
//! online run here goes through a [`NoRewindSource`] seal, so "single
//! pass" is enforced by construction, not just claimed.
//!
//! Tests in this binary share `ENV_LOCK` where they touch the
//! process-wide `MAWILAB_THREADS` variable.

use mawilab::core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab::label::LabeledCommunity;
use mawilab::model::{
    Granularity, NoRewindSource, PacketSource, SourceError, TraceChunker, DEFAULT_CHUNK_US,
};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn synth(seed: u64) -> mawilab::synth::LabeledTrace {
    TraceGenerator::new(SynthConfig::default().with_seed(seed).with_anomalies(vec![
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

/// Field-by-field comparison of labeled communities (the struct holds
/// f64 metrics, so no derived PartialEq).
fn assert_labels_identical(online: &[LabeledCommunity], oracle: &[LabeledCommunity]) {
    assert_eq!(online.len(), oracle.len(), "community count differs");
    for (s, b) in online.iter().zip(oracle) {
        assert_eq!(s.community, b.community);
        assert_eq!(s.label, b.label, "label of community {}", s.community);
        assert_eq!(
            s.confidence.score.to_bits(),
            b.confidence.score.to_bits(),
            "confidence score of community {}",
            s.community
        );
        assert_eq!(
            s.confidence.tier, b.confidence.tier,
            "confidence tier of community {}",
            s.community
        );
        assert_eq!(
            s.heuristic, b.heuristic,
            "heuristic of community {}",
            s.community
        );
        assert_eq!(s.window, b.window, "window of community {}", s.community);
        assert_eq!(s.alarms, b.alarms);
        assert_eq!(s.detectors, b.detectors);
        assert_eq!(s.summary.rules, b.summary.rules);
        assert_eq!(s.summary.transactions, b.summary.transactions);
        assert!((s.summary.rule_degree - b.summary.rule_degree).abs() < 1e-12);
        assert!((s.summary.rule_support - b.summary.rule_support).abs() < 1e-12);
    }
}

/// One sealed single-pass run vs the batch oracle, byte for byte.
fn assert_online_equals_oracle(
    lt: &mawilab::synth::LabeledTrace,
    config: &PipelineConfig,
    chunk_us: u64,
    lag_us: u64,
    what: &str,
) -> mawilab::core::OnlineReport {
    let oracle = MawilabPipeline::new(config.clone()).run(&lt.trace);

    let mut sealed = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), chunk_us));
    let online = OnlinePipeline::new(config.clone())
        .with_lag_us(lag_us)
        .run(&mut sealed)
        .unwrap();
    assert_eq!(sealed.rewinds_refused(), 0, "online path rewound ({what})");

    assert_eq!(
        online.report.communities.alarms, oracle.communities.alarms,
        "alarms differ ({what})"
    );
    assert_eq!(
        online.report.communities.traffic, oracle.communities.traffic,
        "traffic sets differ ({what})"
    );
    assert_eq!(online.report.votes, oracle.votes, "votes differ ({what})");
    assert_eq!(
        online.report.decisions, oracle.decisions,
        "decisions differ ({what})"
    );
    assert_labels_identical(
        &online.report.labeled.communities,
        &oracle.labeled.communities,
    );
    online
}

#[test]
fn single_pass_equals_batch_across_seeds_and_chunk_widths() {
    let config = PipelineConfig::default();
    for seed in [11u64, 222, 3333] {
        let lt = synth(seed);
        for chunk_us in [DEFAULT_CHUNK_US, 20_000_000] {
            assert_online_equals_oracle(
                &lt,
                &config,
                chunk_us,
                mawilab::core::DEFAULT_LAG_US,
                &format!("seed {seed}, chunk {chunk_us}"),
            );
        }
    }
}

#[test]
fn lag_governs_retention_not_labels() {
    // The detectors only alarm at finish(), so the horizon lag must
    // not change a single output byte — it only decides how much raw
    // evidence stays resident. lag=0 retires everything immediately;
    // a day-scale lag retires nothing.
    let lt = synth(222);
    let config = PipelineConfig::default();
    let day_us: u64 = 86_400_000_000;
    for lag_us in [0, 15_000_000, day_us] {
        let online = assert_online_equals_oracle(
            &lt,
            &config,
            DEFAULT_CHUNK_US,
            lag_us,
            &format!("lag {lag_us}"),
        );
        if lag_us == 0 {
            assert_eq!(
                online.horizon_stats.fresh_chunks, 0,
                "lag=0 must retire every chunk as soon as the next high-water lands"
            );
        }
        if lag_us == day_us {
            assert_eq!(
                online.horizon_stats.retired_chunks, 0,
                "a day-scale lag on a 60 s trace must retire nothing"
            );
        }
    }
}

#[test]
fn single_pass_equals_batch_at_every_granularity() {
    let lt = synth(77);
    for granularity in [
        Granularity::Packet,
        Granularity::Uniflow,
        Granularity::Biflow,
    ] {
        let config = PipelineConfig {
            granularity,
            ..Default::default()
        };
        assert_online_equals_oracle(
            &lt,
            &config,
            DEFAULT_CHUNK_US,
            mawilab::core::DEFAULT_LAG_US,
            &format!("granularity {granularity}"),
        );
    }
}

#[test]
fn the_seal_refuses_a_replay_after_a_single_pass_run() {
    // The seal is real: a finished online run leaves the source
    // drained, and any attempt to replay it is refused — so every
    // sealed run in this suite completed on one drain.
    let lt = synth(11);
    let mut sealed = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
    OnlinePipeline::new(PipelineConfig::default())
        .run(&mut sealed)
        .unwrap();
    assert_eq!(sealed.rewinds_refused(), 0);
    let err = sealed.rewind().unwrap_err();
    assert!(matches!(err, SourceError::RewindUnsupported(_)));
    assert_eq!(sealed.rewinds_refused(), 1);
    assert!(
        sealed.next_chunk().unwrap().is_none(),
        "stream already drained"
    );
}

#[test]
fn anomaly_outlasting_the_lag_labels_identically() {
    // A 12 s SYN flood outlasts the 5 s lag, so its first records
    // retire into the log while it is still sending; its labels must
    // still equal the batch oracle's.
    let lt = synth(3333);
    let config = PipelineConfig::default();
    let oracle = MawilabPipeline::new(config.clone()).run(&lt.trace);

    let mut sealed = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
    let online = OnlinePipeline::new(config)
        .with_lag_us(5_000_000)
        .run(&mut sealed)
        .unwrap();
    assert_eq!(sealed.rewinds_refused(), 0);
    assert_labels_identical(
        &online.report.labeled.communities,
        &oracle.labeled.communities,
    );
}

#[test]
fn single_pass_is_identical_at_every_thread_count() {
    let _lock = ENV_LOCK.lock().unwrap();
    let lt = synth(99);
    let config = PipelineConfig::default();

    let run = |lt: &mawilab::synth::LabeledTrace| {
        let mut sealed = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
        let online = OnlinePipeline::new(config.clone())
            .run(&mut sealed)
            .unwrap();
        assert_eq!(sealed.rewinds_refused(), 0);
        online
    };

    std::env::set_var("MAWILAB_THREADS", "1");
    let single = run(&lt);
    // The oracle at one thread anchors the whole matrix to the batch
    // labels.
    let oracle = MawilabPipeline::new(config.clone()).run(&lt.trace);
    assert_eq!(single.report.decisions, oracle.decisions);
    assert_labels_identical(
        &single.report.labeled.communities,
        &oracle.labeled.communities,
    );

    for threads in ["2", "4", "13"] {
        std::env::set_var("MAWILAB_THREADS", threads);
        let multi = run(&lt);
        assert_eq!(
            multi.report.decisions, single.report.decisions,
            "decisions changed at MAWILAB_THREADS={threads}"
        );
        assert_labels_identical(
            &multi.report.labeled.communities,
            &single.report.labeled.communities,
        );
    }
    std::env::remove_var("MAWILAB_THREADS");
}

#[test]
fn single_pass_is_identical_across_runs_in_one_process() {
    // Every hash map of the drain draws a fresh seed, so four runs in
    // one process iterate their maps in four different orders: any
    // order that leaks into alarms, traffic or labels shows up here.
    let lt = synth(222);
    for granularity in [Granularity::Uniflow, Granularity::Packet] {
        let config = PipelineConfig {
            granularity,
            ..Default::default()
        };
        let run = || {
            let mut sealed =
                NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
            OnlinePipeline::new(config.clone())
                .run(&mut sealed)
                .unwrap()
        };
        let first = run();
        for _ in 1..4 {
            let again = run();
            assert_eq!(
                again.report.communities.alarms, first.report.communities.alarms,
                "alarms differ ({granularity})"
            );
            assert_eq!(
                again.report.communities.traffic, first.report.communities.traffic,
                "traffic sets differ ({granularity})"
            );
            assert_eq!(again.report.votes, first.report.votes);
            assert_eq!(again.report.decisions, first.report.decisions);
            assert_labels_identical(
                &again.report.labeled.communities,
                &first.report.labeled.communities,
            );
        }
    }
}
