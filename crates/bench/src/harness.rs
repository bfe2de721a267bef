//! The one archive day runner every `mawilab-bench` bin labels
//! through.
//!
//! Each day is generated in memory ([`ArchiveSimulator::generate`]),
//! its traffic-unit ids are taken with one [`ItemIndex`] pass, and it
//! is drained once by the production [`OnlinePipeline`] from a
//! [`TraceChunker`] sealed behind a [`NoRewindSource`], so a rewind
//! attempt fails the day instead of replaying it. The batch pipeline
//! is the oracle `tests/oracle_days.rs` holds this runner to. Days
//! fan out through `mawilab_exec` (honoring `MAWILAB_THREADS`) and
//! come back in day order.

use mawilab_combiner::Decision;
use mawilab_core::{OnlinePipeline, PipelineConfig, PipelineReport, StrategyKind, StreamStats};
use mawilab_model::{
    ItemIndex, NoRewindSource, PacketSource, SourceError, Trace, TraceChunker, TraceDate,
    DEFAULT_CHUNK_US,
};
use mawilab_synth::{ArchiveConfig, ArchiveSimulator, GroundTruth, LabeledTrace};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Everything a per-day reducer can look at.
pub struct DayContext<'a> {
    /// The archive day.
    pub date: TraceDate,
    /// The generated day, still readable after the drain.
    pub trace: &'a Trace,
    /// Ground truth of the generated day.
    pub truth: &'a GroundTruth,
    /// Traffic-unit id of every packet (stream order), at the
    /// pipeline's granularity — the bridge between `truth.tags()`
    /// (per packet) and the report's community traffic sets (per
    /// unit). Feed it to `GroundTruthMatcher::from_item_ids`.
    pub item_ids: &'a [u32],
    /// Full pipeline output (communities, votes, decisions, labels).
    pub report: &'a PipelineReport,
    /// Decisions of all five strategies on this day's vote table, in
    /// [`StrategyKind::ALL`] order.
    pub per_strategy: &'a [(StrategyKind, Vec<Decision>)],
    /// Ingest statistics of the day's drain.
    pub stats: &'a StreamStats,
    /// Wall-clock of the single-pass drain alone: generation, the
    /// `item_ids` pass and `per_strategy` run outside the clock.
    pub wall: Duration,
}

/// A day the runner could not complete.
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

/// Labels every day at [`DEFAULT_CHUNK_US`]-wide chunks and returns
/// the reductions in day order — the figure and table bins' entry
/// point. The first failed day (in day order) fails the whole run, so
/// no figure silently averages over fewer days.
pub fn run_days<T, F>(
    days: &[TraceDate],
    scale: f64,
    config: PipelineConfig,
    reduce: F,
) -> Result<Vec<T>, DayFailure>
where
    T: Send,
    F: Fn(&DayContext<'_>) -> T + Sync,
{
    run_days_wrapped(days, scale, DEFAULT_CHUNK_US, config, &NoWrap, reduce)
        .into_iter()
        .collect()
}

/// Labels every day at `chunk_us`-wide chunks with `wrap` applied to
/// each day's sealed source, returning one entry per day, in day
/// order. A day whose source errors (a zero `chunk_us`, pcap
/// corruption, a refused rewind, …) yields `Err(DayFailure)` instead
/// of poisoning the whole run: a month-scale benchmark reports the
/// bad day and keeps the month. Prints a progress line to stderr.
pub fn run_days_wrapped<T, F>(
    days: &[TraceDate],
    scale: f64,
    chunk_us: u64,
    config: PipelineConfig,
    wrap: &dyn SourceWrap,
    reduce: F,
) -> Vec<Result<T, DayFailure>>
where
    T: Send,
    F: Fn(&DayContext<'_>) -> T + Sync,
{
    let sim = ArchiveSimulator::new(ArchiveConfig {
        scale,
        ..Default::default()
    });
    let pipeline = OnlinePipeline::new(config);
    let done = AtomicUsize::new(0);
    // Cap the outer day fan-out: each day runs a whole pipeline that
    // fans out internally, so an uncapped outer map would square the
    // worker count on big machines. With multiple days in flight the
    // pipeline's inner fan-outs run inline (one-fan-out-level policy);
    // with a single day they own the thread budget.
    mawilab_exec::par_map_capped(days, 16, |&date| {
        let value = run_day(&sim, &pipeline, date, chunk_us, wrap, &reduce);
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        if d.is_multiple_of(25) || d == days.len() {
            eprintln!("  [{d}/{} days]", days.len());
        }
        value
    })
}

/// Generates, labels and reduces one day.
fn run_day<T>(
    sim: &ArchiveSimulator,
    pipeline: &OnlinePipeline,
    date: TraceDate,
    chunk_us: u64,
    wrap: &dyn SourceWrap,
    reduce: impl Fn(&DayContext<'_>) -> T,
) -> Result<T, DayFailure> {
    let fail = |error| DayFailure { date, error };
    let LabeledTrace { trace, truth } = sim.generate(date);
    let mut chunker = TraceChunker::try_new(trace, chunk_us).map_err(fail)?;
    let mut item_ids = Vec::new();
    ItemIndex::new(pipeline.config().granularity).ids_of(&chunker.trace().packets, &mut item_ids);
    let t0 = Instant::now();
    let online = {
        let mut sealed = wrap.wrap(date, Box::new(NoRewindSource::new(&mut chunker)));
        pipeline.run(&mut *sealed).map_err(fail)?
    };
    let wall = t0.elapsed();
    let per_strategy: Vec<(StrategyKind, Vec<Decision>)> = StrategyKind::ALL
        .iter()
        .map(|&k| (k, k.build().classify(&online.report.votes)))
        .collect();
    Ok(reduce(&DayContext {
        date,
        trace: chunker.trace(),
        truth: &truth,
        item_ids: &item_ids,
        report: &online.report,
        per_strategy: &per_strategy,
        stats: &online.stats,
        wall,
    }))
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
        let out = run_days(&days, 0.3, PipelineConfig::default(), |ctx| ctx.date).unwrap();
        assert_eq!(out, days);
    }

    #[test]
    fn context_is_complete() {
        let days = first_days_of_month(2002, 2, 1);
        let ok = run_days(&days, 0.3, PipelineConfig::default(), |ctx| {
            ctx.per_strategy.len() == 5
                && ctx.report.decisions.len() == ctx.report.community_count()
                && !ctx.trace.is_empty()
                && ctx.trace.len() == ctx.item_ids.len()
                && ctx.item_ids.len() as u64 == ctx.stats.packets
                && ctx.truth.tags().len() == ctx.trace.len()
        })
        .unwrap();
        assert!(ok.iter().all(|&b| b));
    }
}
