//! The archive→pipeline day runner.
//!
//! Figure workloads all share one shape: generate N archive days,
//! push each through the pipeline, reduce each day to a small summary
//! value, aggregate. Days are independent, so they fan out through
//! `mawilab_exec::par_map` (honoring `MAWILAB_THREADS`); results come
//! back in day order regardless of scheduling.

use mawilab_combiner::Decision;
use mawilab_core::{
    MawilabPipeline, OnlinePipeline, PipelineConfig, PipelineReport, StrategyKind, StreamStats,
};
use mawilab_detectors::TraceView;
use mawilab_model::{
    FlowTable, NoRewindSource, PacketSource, SourceError, StreamTruthCollector, TapSource,
    TraceDate,
};
use mawilab_synth::{ArchiveConfig, ArchiveSimulator, GroundTruth, LabeledTrace, TraceGenerator};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Everything a per-day reducer can look at.
pub struct DayContext<'a> {
    /// The archive day.
    pub date: TraceDate,
    /// The generated trace with ground truth.
    pub labeled_trace: &'a LabeledTrace,
    /// Trace + flow table view.
    pub view: &'a TraceView<'a>,
    /// Full pipeline output (communities, votes, SCANN decisions,
    /// labels).
    pub report: &'a PipelineReport,
    /// Decisions of all five strategies on this day's vote table.
    pub per_strategy: &'a [(StrategyKind, Vec<Decision>)],
}

/// The shared day scheduler: hands each archive day (and the shared
/// simulator) to `per_day` on the workspace fan-out helper
/// ([`mawilab_exec::par_map`], honoring `MAWILAB_THREADS`), and
/// returns the results in day order regardless of scheduling. Both
/// the batch and the streaming harness entry points are thin wrappers
/// over this.
fn schedule_days<T, F>(days: &[TraceDate], scale: f64, per_day: F) -> Vec<T>
where
    T: Send,
    F: Fn(TraceDate, &ArchiveSimulator) -> T + Sync,
{
    let sim = ArchiveSimulator::new(ArchiveConfig {
        scale,
        ..Default::default()
    });
    let done = AtomicUsize::new(0);
    // Cap the outer day fan-out: each day runs a whole pipeline that
    // fans out internally, so an uncapped outer map would square the
    // worker count on big machines. With multiple days in flight the
    // pipeline's inner fan-outs run inline (one-fan-out-level policy);
    // with a single day they own the thread budget.
    mawilab_exec::par_map_capped(days, 16, |&date| {
        let value = per_day(date, &sim);
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        if d.is_multiple_of(25) || d == days.len() {
            eprintln!("  [{d}/{} days]", days.len());
        }
        value
    })
}

/// Runs `reduce` over every day, in parallel, returning per-day
/// results in day order. Prints a progress line to stderr.
pub fn run_days<T, F>(
    days: &[TraceDate],
    scale: f64,
    pipeline_config: PipelineConfig,
    reduce: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&DayContext<'_>) -> T + Sync,
{
    schedule_days(days, scale, |date, sim| {
        let lt = sim.generate(date);
        let flows = FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let pipeline = MawilabPipeline::new(pipeline_config.clone());
        let (report, per_strategy) = pipeline.run_all_strategies(&lt.trace);
        reduce(&DayContext {
            date,
            labeled_trace: &lt,
            view: &view,
            report: &report,
            per_strategy: &per_strategy,
        })
    })
}

/// Everything a streaming per-day reducer can look at. Unlike
/// [`DayContext`] there is no materialised trace or flow table — the
/// day was drained chunk by chunk through the single-pass pipeline.
pub struct StreamingDayContext<'a> {
    /// The archive day.
    pub date: TraceDate,
    /// Ground truth of the generated day (the packets themselves are
    /// gone — they streamed through).
    pub truth: &'a GroundTruth,
    /// Traffic-unit id of every packet (stream order), at the
    /// pipeline's granularity — the bridge between `truth.tags()`
    /// (per packet) and the report's community traffic sets (per
    /// unit). Feed it to `GroundTruthMatcher::from_item_ids`.
    pub item_ids: &'a [u32],
    /// Full pipeline output (communities, votes, decisions, labels).
    pub report: &'a PipelineReport,
    /// Ingest statistics of the day's drain.
    pub stats: &'a StreamStats,
    /// Wall-clock of the whole single-pass run for this day (packets
    /// generate lazily inside the drain, so generation lands here).
    pub wall: Duration,
}

/// A day the streaming harness could not complete.
#[derive(Debug)]
pub struct DayFailure {
    /// The day whose run failed.
    pub date: TraceDate,
    /// The source error that aborted it.
    pub error: SourceError,
}

impl fmt::Display for DayFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "day {}: {}", self.date, self.error)
    }
}

impl std::error::Error for DayFailure {}

/// Hook for wrapping each day's packet source before the pipeline
/// drains it — the failure-injection seam (tests wrap one day's
/// source in one that errors mid-drain and assert the sweep reports
/// the [`DayFailure`] and keeps the surviving days), also usable for
/// instrumentation (counting chunks, throttling, recording).
pub trait SourceWrap: Sync {
    /// Wraps one day's source. The default identity is [`NoWrap`].
    fn wrap<'a>(
        &self,
        date: TraceDate,
        inner: Box<dyn PacketSource + 'a>,
    ) -> Box<dyn PacketSource + 'a>;
}

/// The identity [`SourceWrap`]: every day's source passes through
/// untouched.
pub struct NoWrap;

impl SourceWrap for NoWrap {
    fn wrap<'a>(
        &self,
        _date: TraceDate,
        inner: Box<dyn PacketSource + 'a>,
    ) -> Box<dyn PacketSource + 'a> {
        inner
    }
}

/// Runs the **single-pass** streaming pipeline over every day, in
/// parallel, returning one entry per day, in day order — the
/// archive-scale evaluation path where no day is ever materialised
/// *or replayed*: each day's [`SynthSource`] emits `PacketChunk`s
/// straight out of the generator, and the one drain feeds
/// detection, extraction evidence **and** ground-truth collection at
/// once. `chunk_us` is the ingest bin width.
///
/// Per-packet truth tags stream out of the generator through a
/// [`TapSource`]/[`StreamTruthCollector`] pair riding the pipeline's
/// own drain (the collector's incremental [`ItemIndex`](mawilab_model::ItemIndex) assigns
/// exactly the unit ids the pipeline's extraction does), so each day
/// pays generation exactly **once**. The source is additionally
/// sealed behind a [`NoRewindSource`]: any rewind attempt is a
/// [`DayFailure`], not a silent replay — the single-pass guarantee
/// is enforced per day, not just asserted in tests.
///
/// A day whose source errors (pcap corruption, a refused rewind, …)
/// yields `Err(DayFailure)` instead of poisoning the whole run: a
/// month-scale benchmark reports the bad day and keeps the month.
///
/// [`SynthSource`]: mawilab_synth::SynthSource
pub fn run_days_streaming<T, F>(
    days: &[TraceDate],
    scale: f64,
    chunk_us: u64,
    pipeline_config: PipelineConfig,
    reduce: F,
) -> Vec<Result<T, DayFailure>>
where
    T: Send,
    F: Fn(&StreamingDayContext<'_>) -> T + Sync,
{
    run_days_streaming_wrapped(days, scale, chunk_us, pipeline_config, &NoWrap, reduce)
}

/// [`run_days_streaming`] with an explicit [`SourceWrap`] applied to
/// each day's sealed source before the pipeline drains it.
pub fn run_days_streaming_wrapped<T, F>(
    days: &[TraceDate],
    scale: f64,
    chunk_us: u64,
    pipeline_config: PipelineConfig,
    wrap: &dyn SourceWrap,
    reduce: F,
) -> Vec<Result<T, DayFailure>>
where
    T: Send,
    F: Fn(&StreamingDayContext<'_>) -> T + Sync,
{
    schedule_days(days, scale, |date, sim| {
        let source = TraceGenerator::new(sim.config_for(date)).stream(chunk_us);
        let records = source.records().to_vec();
        let mut collector = StreamTruthCollector::new(pipeline_config.granularity);
        let pipeline = OnlinePipeline::new(pipeline_config.clone());
        let t0 = std::time::Instant::now();
        let online = {
            let tap = TapSource::new(source, &mut collector);
            let mut sealed = wrap.wrap(date, Box::new(NoRewindSource::new(tap)));
            match pipeline.run(&mut *sealed) {
                Ok(online) => online,
                Err(error) => return Err(DayFailure { date, error }),
            }
        };
        let wall = t0.elapsed();
        let (item_ids, tags) = collector.into_parts();
        let truth = GroundTruth::new(tags, records);
        Ok(reduce(&StreamingDayContext {
            date,
            truth: &truth,
            item_ids: &item_ids,
            report: &online.report,
            stats: &online.stats,
            wall,
        }))
    })
}

/// Peak resident set size of this process in KiB (Linux `VmHWM`), if
/// the platform exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_synth::archive::first_days_of_month;

    #[test]
    fn results_come_back_in_day_order() {
        let days = first_days_of_month(2005, 6, 4);
        let out = run_days(&days, 0.3, PipelineConfig::default(), |ctx| ctx.date);
        assert_eq!(out, days);
    }

    #[test]
    fn context_is_complete() {
        let days = first_days_of_month(2002, 2, 1);
        let ok = run_days(&days, 0.3, PipelineConfig::default(), |ctx| {
            ctx.per_strategy.len() == 5
                && ctx.report.decisions.len() == ctx.report.community_count()
                && !ctx.labeled_trace.trace.is_empty()
                && ctx.view.trace.len() == ctx.labeled_trace.trace.len()
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn streaming_days_match_batch_days() {
        let days = first_days_of_month(2005, 6, 2);
        let batch = run_days(&days, 0.3, PipelineConfig::default(), |ctx| {
            (ctx.report.alarm_count(), ctx.report.decisions.clone())
        });
        let streamed: Vec<_> = run_days_streaming(
            &days,
            0.3,
            mawilab_model::DEFAULT_CHUNK_US,
            PipelineConfig::default(),
            |ctx| {
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
                (ctx.report.alarm_count(), ctx.report.decisions.clone())
            },
        )
        .into_iter()
        .map(|day| day.expect("synthetic day cannot fail"))
        .collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn single_pass_truth_and_unit_ids_agree_with_batch() {
        let days = first_days_of_month(2003, 9, 2);
        let config = PipelineConfig::default();
        assert_eq!(config.granularity, mawilab_model::Granularity::Uniflow);
        let batch = run_days(&days, 0.3, config.clone(), |ctx| {
            let n = ctx.labeled_trace.trace.len();
            (
                ctx.report.alarm_count(),
                ctx.report.decisions.clone(),
                ctx.labeled_trace.truth.tags().to_vec(),
                (0..n)
                    .map(|i| ctx.view.flows.uniflow_of(i))
                    .collect::<Vec<u32>>(),
            )
        });
        let single: Vec<_> =
            run_days_streaming(&days, 0.3, mawilab_model::DEFAULT_CHUNK_US, config, |ctx| {
                (
                    ctx.report.alarm_count(),
                    ctx.report.decisions.clone(),
                    ctx.truth.tags().to_vec(),
                    ctx.item_ids.to_vec(),
                )
            })
            .into_iter()
            .map(|day| day.expect("synthetic day cannot fail"))
            .collect();
        assert_eq!(single, batch);
    }
}
