//! Thread-count invariance of the full pipeline and the archive sweep.
//!
//! Every parallel stage (detector fan-out, sharded graph build,
//! harness day fan-out) is built on `mawilab-exec`, whose contract is
//! order-preserving determinism — so `MAWILAB_THREADS=1` and any
//! larger setting must label a trace byte-identically, and a whole
//! month-scale archive sweep must reduce to identical metrics.
//!
//! Tests in this binary share `ENV_LOCK`: they mutate the
//! process-wide `MAWILAB_THREADS` variable, and siblings running
//! concurrently would race on it.

use mawilab::core::{MawilabPipeline, OnlinePipeline, PipelineConfig};
use mawilab::label::MawilabLabel;
use mawilab::model::{NoRewindSource, TraceChunker, DEFAULT_CHUNK_US};
use mawilab::synth::{SynthConfig, TraceGenerator};
use mawilab_bench::archive::{
    collect_archive, default_sweep_start, deterministic_view, month_sweep_days, ArchiveBenchArgs,
};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Decisions, labels, graph shape and member lists of one batch run,
/// checked against one single-pass online run.
fn run_once(
    lt: &mawilab::synth::LabeledTrace,
) -> (Vec<bool>, Vec<MawilabLabel>, usize, Vec<Vec<usize>>) {
    let config = PipelineConfig::default();
    let report = MawilabPipeline::new(config.clone()).run(&lt.trace);

    let mut sealed = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
    let online = OnlinePipeline::new(config).run(&mut sealed).unwrap();
    assert_eq!(sealed.rewinds_refused(), 0, "online pipeline rewound");
    assert_eq!(
        online.report.decisions, report.decisions,
        "batch/online diverged"
    );

    let decisions = report.decisions.iter().map(|d| d.accepted).collect();
    let labels = report.labeled.communities.iter().map(|c| c.label).collect();
    let members = (0..report.community_count())
        .map(|c| report.communities.members(c).to_vec())
        .collect();
    (
        decisions,
        labels,
        report.communities.graph.edge_count(),
        members,
    )
}

#[test]
fn pipeline_is_identical_at_every_thread_count() {
    let _lock = ENV_LOCK.lock().unwrap();
    let lt = TraceGenerator::new(SynthConfig::default().with_seed(99)).generate();

    std::env::set_var("MAWILAB_THREADS", "1");
    let single = run_once(&lt);
    for threads in ["2", "4", "13"] {
        std::env::set_var("MAWILAB_THREADS", threads);
        let multi = run_once(&lt);
        assert_eq!(single, multi, "output changed at MAWILAB_THREADS={threads}");
    }
    std::env::remove_var("MAWILAB_THREADS");
}

#[test]
fn archive_sweep_is_identical_at_thread_counts_one_and_four() {
    let _lock = ENV_LOCK.lock().unwrap();
    // The month-smoke sweep: six consecutive days through the
    // 2006-07-01 era boundary, tiny scale.
    let args = ArchiveBenchArgs {
        scale: 0.2,
        days: month_sweep_days(default_sweep_start(), 6),
        ..Default::default()
    };

    std::env::set_var("MAWILAB_THREADS", "1");
    let single = deterministic_view(&collect_archive(&args));
    std::env::set_var("MAWILAB_THREADS", "4");
    let multi = deterministic_view(&collect_archive(&args));
    std::env::remove_var("MAWILAB_THREADS");

    assert!(single.contains("2006-07-01"), "sweep crossed the boundary");
    assert_eq!(
        single, multi,
        "archive sweep metrics changed with MAWILAB_THREADS"
    );
}
