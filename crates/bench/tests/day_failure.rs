//! Failure-path coverage for the month-scale streaming sweep.
//!
//! PR 4 made the day runner survive a failing day instead of
//! poisoning the month; PR 6 moved the sweep to the single-pass
//! online path, where the failure-injection seam is the
//! [`SourceWrap`] hook: a wrapper makes one day's source error
//! mid-drain, and the sweep must report it, skip it, and still
//! compute longitudinal metrics over the surviving adjacent pairs.

use mawilab_bench::archive::{
    collect_archive_wrapped, default_sweep_start, month_sweep_days, ArchiveBenchArgs,
};
use mawilab_bench::{run_days_streaming_wrapped, SourceWrap};
use mawilab_core::PipelineConfig;
use mawilab_model::pcap::PcapError;
use mawilab_model::{
    PacketChunk, PacketSource, SourceError, TraceDate, TraceMeta, DEFAULT_CHUNK_US,
};

/// Wraps a source so it errors after `allow` chunks — a mid-drain
/// failure (truncated pcap, dying capture card) on the single-pass
/// path, which never rewinds.
struct FailMidDrain<'a> {
    inner: Box<dyn PacketSource + 'a>,
    allow: usize,
}

impl PacketSource for FailMidDrain<'_> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }
    fn bin_us(&self) -> u64 {
        self.inner.bin_us()
    }
    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        if self.allow == 0 {
            return Err(SourceError::Pcap(PcapError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "injected mid-drain failure",
            ))));
        }
        self.allow -= 1;
        self.inner.next_chunk()
    }
    fn rewind(&mut self) -> Result<(), SourceError> {
        self.inner.rewind()
    }
}

/// The [`SourceWrap`] that injects the failure on one day only.
struct InjectOn {
    bad_day: TraceDate,
    allow: usize,
}

impl SourceWrap for InjectOn {
    fn wrap<'a>(
        &self,
        date: TraceDate,
        inner: Box<dyn PacketSource + 'a>,
    ) -> Box<dyn PacketSource + 'a> {
        if date == self.bad_day {
            Box::new(FailMidDrain {
                inner,
                allow: self.allow,
            })
        } else {
            inner
        }
    }
}

#[test]
fn failing_day_is_reported_skipped_and_survived() {
    // Four consecutive days over the era boundary; the second fails.
    let days = month_sweep_days(default_sweep_start(), 4);
    let bad_day = days[1];
    let args = ArchiveBenchArgs {
        scale: 0.2,
        days: days.clone(),
        out_dir: std::env::temp_dir()
            .join("mawilab-day-failure")
            .to_str()
            .unwrap()
            .to_string(),
        chunk_us: DEFAULT_CHUNK_US,
    };
    let outcome = collect_archive_wrapped(&args, &InjectOn { bad_day, allow: 3 });

    // Reported …
    assert_eq!(outcome.failed.len(), 1, "exactly one day fails");
    assert_eq!(outcome.failed[0].0, bad_day);
    assert!(
        outcome.failed[0].1.contains("injected mid-drain failure"),
        "error text: {}",
        outcome.failed[0].1
    );
    // … skipped …
    let surviving: Vec<TraceDate> = outcome.records.iter().map(|r| r.summary.date).collect();
    assert_eq!(surviving, vec![days[0], days[2], days[3]]);
    // … and the longitudinal metrics still cover the surviving
    // adjacent pairs: (d0, d2) bridges the failure with a 2-day gap
    // inside the old era; (d2, d3) crosses the era boundary and is
    // itemised as a transition instead of pooled.
    let pairs = &outcome.stability.pairs;
    assert_eq!(pairs.len(), 1);
    assert_eq!(
        (pairs[0].from, pairs[0].to, pairs[0].gap_days),
        (days[0], days[2], 2)
    );
    assert!(outcome.stability.label_churn.is_finite());
    assert!(outcome.stability.jaccard_drift.is_finite());
    assert!(
        !outcome.stability.era_transitions.is_empty(),
        "the surviving pairs still cross the era boundary"
    );
    // Monthly trajectory still materialises from the survivors.
    assert!(!outcome.stability.monthly.is_empty());
}

#[test]
fn harness_seam_reports_failures_in_day_order() {
    // The low-level harness contract: one Result per day, in order.
    let days = month_sweep_days(TraceDate::new(2005, 6, 1), 3);
    let bad_day = days[2];
    let outcomes = run_days_streaming_wrapped(
        &days,
        0.2,
        DEFAULT_CHUNK_US,
        PipelineConfig::default(),
        &InjectOn { bad_day, allow: 0 },
        |ctx| ctx.date,
    );
    assert_eq!(outcomes.len(), 3);
    assert_eq!(*outcomes[0].as_ref().unwrap(), days[0]);
    assert_eq!(*outcomes[1].as_ref().unwrap(), days[1]);
    let failure = outcomes[2].as_ref().unwrap_err();
    assert_eq!(failure.date, bad_day);
    assert!(matches!(failure.error, SourceError::Pcap(_)));
}
