//! The day runner against the batch oracle: on the same generated
//! days, every figure, table and archive reduction sees exactly what
//! `MawilabPipeline::run_all_strategies` computes on the materialised
//! trace, and the runner's unit ids are the flow table's.

use mawilab_bench::run_days;
use mawilab_combiner::Decision;
use mawilab_core::{MawilabPipeline, PipelineConfig, PipelineReport, StrategyKind};
use mawilab_model::{FlowTable, TraceDate};
use mawilab_synth::archive::first_days_of_month;
use mawilab_synth::{ArchiveConfig, ArchiveSimulator, LabeledTrace};

/// Reduces the same generated days through the batch oracle: each
/// day's trace and truth, its report and the five strategies'
/// decisions.
fn oracle_days<T>(
    days: &[TraceDate],
    scale: f64,
    config: &PipelineConfig,
    reduce: impl Fn(LabeledTrace, PipelineReport, Vec<(StrategyKind, Vec<Decision>)>) -> T,
) -> Vec<T> {
    let sim = ArchiveSimulator::new(ArchiveConfig {
        scale,
        ..Default::default()
    });
    days.iter()
        .map(|&date| {
            let lt = sim.generate(date);
            let (report, per_strategy) =
                MawilabPipeline::new(config.clone()).run_all_strategies(&lt.trace);
            reduce(lt, report, per_strategy)
        })
        .collect()
}

#[test]
fn days_match_the_batch_oracle() {
    let days = first_days_of_month(2005, 6, 2);
    let config = PipelineConfig::default();
    let single = run_days(&days, 0.3, config.clone(), |ctx| {
        assert!(ctx.stats.chunks > 1);
        assert!((ctx.stats.peak_chunk_packets as u64) < ctx.stats.packets);
        assert_eq!(
            ctx.item_ids.len() as u64,
            ctx.stats.packets,
            "one item id per streamed packet"
        );
        assert_eq!(
            ctx.item_ids
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            ctx.stats.items,
            "context ids and pipeline extraction agree on the unit universe"
        );
        (
            ctx.report.alarm_count(),
            ctx.report.decisions.clone(),
            ctx.per_strategy.to_vec(),
        )
    })
    .unwrap();
    let oracle = oracle_days(&days, 0.3, &config, |_, report, per_strategy| {
        (report.alarm_count(), report.decisions, per_strategy)
    });
    assert_eq!(single, oracle);
}

#[test]
fn truth_and_unit_ids_match_the_batch_oracle() {
    let days = first_days_of_month(2003, 9, 2);
    let config = PipelineConfig::default();
    assert_eq!(config.granularity, mawilab_model::Granularity::Uniflow);
    let single = run_days(&days, 0.3, config.clone(), |ctx| {
        (
            ctx.report.alarm_count(),
            ctx.report.decisions.clone(),
            ctx.truth.tags().to_vec(),
            ctx.item_ids.to_vec(),
        )
    })
    .unwrap();
    let oracle = oracle_days(&days, 0.3, &config, |lt, report, _| {
        let flows = FlowTable::build(&lt.trace.packets);
        (
            report.alarm_count(),
            report.decisions,
            lt.truth.tags().to_vec(),
            (0..lt.trace.len())
                .map(|i| flows.uniflow_of(i))
                .collect::<Vec<u32>>(),
        )
    });
    assert_eq!(single, oracle);
}
