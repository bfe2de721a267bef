//! Per-horizon label windows and the bounded in-memory label store.
//!
//! The online pipeline buckets a day's labels **per horizon window**.
//! Every label is computed at end of stream (the detectors alarm in
//! `finish()`), so the windows are a partition of the day's labels,
//! not a feed that fills in early. Window *W* is sealed once the
//! stream's high-water mark passes *W + lag* — the point at which its
//! evidence was complete. [`LabeledWindow`] is one window: the
//! communities whose span starts inside it, plus when (in stream
//! time) it was sealed.
//!
//! An always-on service also cannot keep every label it ever emitted
//! in memory. [`LabelStore`] holds labeled windows keyed by archive
//! day and evicts at **day granularity** — the natural unit of the
//! MAWILab archive, where each day is one published label file —
//! either explicitly ([`LabelStore::evict_before`]) or by capacity
//! (`max_days`, oldest day out first).

use crate::taxonomy::LabeledCommunity;
use mawilab_model::{TimeWindow, TraceDate};
use std::collections::BTreeMap;

/// One horizon window's labels, as emitted by the online pipeline.
#[derive(Debug, Clone)]
pub struct LabeledWindow {
    /// The horizon window `[start, end)` the labels cover.
    pub window: TimeWindow,
    /// Stream time (µs) at which this window sealed: the end of the
    /// chunk whose arrival pushed the high-water mark past
    /// `window.end + lag` — or the stream end, for windows still
    /// inside the lag when the stream finished.
    pub sealed_at_us: u64,
    /// Whether the seal came from end-of-stream rather than the
    /// high-water mark passing `window.end + lag`.
    pub sealed_by_finish: bool,
    /// Communities whose span starts in this window, in community
    /// order.
    pub communities: Vec<LabeledCommunity>,
}

impl LabeledWindow {
    /// Seal latency of the window: how long after the window closed
    /// its evidence was complete. Bounded by `lag + one chunk` for
    /// windows sealed by the moving high-water mark on a dense stream.
    /// This is not when the labels can be read — that is end of
    /// stream for every window.
    ///
    /// A watermark seal *before* the window's end is a clock
    /// inversion — the `SealTracker` monotonicity invariant broken —
    /// not a zero-latency label. Tail windows sealed by end-of-stream
    /// (`sealed_by_finish`) legitimately seal before their nominal
    /// end and clamp to 0.
    pub fn latency_us(&self) -> u64 {
        debug_assert!(
            self.sealed_by_finish || self.sealed_at_us >= self.window.end_us,
            "window [{}, {}) watermark-sealed at {} — before its own end",
            self.window.start_us,
            self.window.end_us,
            self.sealed_at_us
        );
        self.sealed_at_us.saturating_sub(self.window.end_us)
    }

    /// True when the watermark seal landed before the window's end —
    /// the clock inversion `latency_us` refuses to report as zero
    /// latency. Counted into `HorizonStats::negative_latency` by the
    /// online pipeline.
    pub fn sealed_before_end(&self) -> bool {
        !self.sealed_by_finish && self.sealed_at_us < self.window.end_us
    }
}

/// Partitions labeled communities into `n_windows` horizon windows of
/// `horizon_us` starting at `origin_us`. A community lands in the
/// window containing its span start (community windows can outlast a
/// horizon window; the start decides, so each community is published
/// exactly once). Spans starting before `origin_us` fold into window
/// 0, spans past the grid into the last window.
pub fn window_communities(
    origin_us: u64,
    horizon_us: u64,
    n_windows: usize,
    communities: &[LabeledCommunity],
) -> Vec<Vec<LabeledCommunity>> {
    assert!(horizon_us > 0, "horizon width must be positive");
    let mut out: Vec<Vec<LabeledCommunity>> = vec![Vec::new(); n_windows];
    if n_windows == 0 {
        assert!(communities.is_empty(), "communities but no windows");
        return out;
    }
    for c in communities {
        let k = (c.window.start_us.saturating_sub(origin_us) / horizon_us) as usize;
        out[k.min(n_windows - 1)].push(c.clone());
    }
    out
}

/// In-memory store of labeled windows with day-granular eviction.
#[derive(Debug, Default)]
pub struct LabelStore {
    /// Keyed by `TraceDate::days_since_epoch` so iteration is
    /// chronological and eviction pops the front.
    days: BTreeMap<i64, StoredDay>,
    max_days: Option<usize>,
}

/// One archive day's labeled windows.
#[derive(Debug, Clone)]
pub struct StoredDay {
    /// The archive day.
    pub date: TraceDate,
    /// The day's labeled windows, in window order.
    pub windows: Vec<LabeledWindow>,
}

impl LabelStore {
    /// An unbounded store.
    pub fn new() -> Self {
        LabelStore::default()
    }

    /// A store that retains at most `max_days` days, evicting the
    /// oldest day when a newer one pushes it over.
    pub fn with_max_days(max_days: usize) -> Self {
        assert!(max_days > 0, "a zero-day store could never hold an insert");
        LabelStore {
            days: BTreeMap::new(),
            max_days: Some(max_days),
        }
    }

    /// Inserts (or replaces) one day's windows, then applies the
    /// capacity bound. Returns the dates evicted to make room.
    pub fn insert_day(&mut self, date: TraceDate, windows: Vec<LabeledWindow>) -> Vec<TraceDate> {
        self.days
            .insert(date.days_since_epoch(), StoredDay { date, windows });
        let mut evicted = Vec::new();
        if let Some(max) = self.max_days {
            while self.days.len() > max {
                let oldest = *self.days.keys().next().expect("non-empty"); // lint:allow(panic-free-data-plane): loop guard len > max >= 0 keeps the map non-empty
                let day = self.days.remove(&oldest).expect("present"); // lint:allow(panic-free-data-plane): key was just read from this map
                evicted.push(day.date);
            }
        }
        evicted
    }

    /// Drops every stored day strictly before `date`. Returns how
    /// many days were evicted.
    pub fn evict_before(&mut self, date: TraceDate) -> usize {
        let keep = self.days.split_off(&date.days_since_epoch());
        let evicted = self.days.len();
        self.days = keep;
        evicted
    }

    /// One stored day, if present.
    pub fn day(&self, date: TraceDate) -> Option<&StoredDay> {
        self.days.get(&date.days_since_epoch())
    }

    /// Stored days, oldest first.
    pub fn days(&self) -> impl Iterator<Item = &StoredDay> {
        self.days.values()
    }

    /// Number of days currently held.
    pub fn day_count(&self) -> usize {
        self.days.len()
    }

    /// Total labeled windows currently held.
    pub fn window_count(&self) -> usize {
        self.days.values().map(|d| d.windows.len()).sum()
    }

    /// Every stored community whose span overlaps `range`,
    /// chronological by day, then window, then community order.
    pub fn query(&self, range: TimeWindow) -> Vec<&LabeledCommunity> {
        self.days
            .values()
            .flat_map(|d| &d.windows)
            .filter(|w| w.window.overlaps(&range))
            .flat_map(|w| &w.communities)
            .filter(|c| c.window.overlaps(&range))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicLabel;
    use crate::summary::CommunitySummary;
    use crate::taxonomy::MawilabLabel;

    fn community(id: usize, start_us: u64, len_us: u64) -> LabeledCommunity {
        LabeledCommunity {
            community: id,
            label: MawilabLabel::Anomalous,
            confidence: mawilab_combiner::LabelConfidence {
                score: 1.0,
                tier: mawilab_combiner::ConfidenceTier::Anomalous,
            },
            heuristic: HeuristicLabel::Unknown,
            summary: CommunitySummary {
                community: id,
                rules: Vec::new(),
                rule_degree: 0.0,
                rule_support: 0.0,
                transactions: 0,
            },
            window: TimeWindow::new(start_us, start_us + len_us),
            alarms: 1,
            detectors: 1,
        }
    }

    fn window(start_us: u64, end_us: u64, communities: Vec<LabeledCommunity>) -> LabeledWindow {
        LabeledWindow {
            window: TimeWindow::new(start_us, end_us),
            sealed_at_us: end_us,
            sealed_by_finish: false,
            communities,
        }
    }

    #[test]
    fn finish_sealed_tails_clamp_watermark_inversions_trip() {
        // A tail window sealed by end-of-stream before its nominal end
        // is legitimate: zero latency, not an inversion.
        let tail = LabeledWindow {
            window: TimeWindow::new(0, 60),
            sealed_at_us: 45,
            sealed_by_finish: true,
            communities: vec![],
        };
        assert_eq!(tail.latency_us(), 0);
        assert!(!tail.sealed_before_end());
        // A watermark seal before the end is the counted invariant
        // breach.
        let inverted = LabeledWindow {
            window: TimeWindow::new(0, 60),
            sealed_at_us: 45,
            sealed_by_finish: false,
            communities: vec![],
        };
        assert!(inverted.sealed_before_end());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before its own end")]
    fn watermark_seal_before_window_end_asserts() {
        let inverted = LabeledWindow {
            window: TimeWindow::new(0, 60),
            sealed_at_us: 45,
            sealed_by_finish: false,
            communities: vec![],
        };
        let _ = inverted.latency_us();
    }

    #[test]
    fn communities_partition_by_span_start() {
        let cs = vec![
            community(0, 5, 10),    // window 0
            community(1, 60, 5),    // window 1
            community(2, 125, 400), // window 2 (long span, start decides)
            community(3, 9_999, 1), // beyond the grid: folds into last
        ];
        let parts = window_communities(0, 60, 3, &cs);
        assert_eq!(parts.len(), 3);
        let ids: Vec<Vec<usize>> = parts
            .iter()
            .map(|w| w.iter().map(|c| c.community).collect())
            .collect();
        assert_eq!(ids, vec![vec![0], vec![1], vec![2, 3]]);
        // Every community published exactly once.
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), cs.len());
    }

    #[test]
    fn empty_windows_are_kept_in_the_grid() {
        let cs = vec![community(0, 130, 5)];
        let parts = window_communities(0, 60, 4, &cs);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![0, 0, 1, 0],
            "empty horizon windows must still be emitted"
        );
    }

    #[test]
    fn store_evicts_at_day_granularity() {
        let mut store = LabelStore::with_max_days(2);
        let d1 = TraceDate::new(2006, 6, 28);
        let d2 = TraceDate::new(2006, 6, 29);
        let d3 = TraceDate::new(2006, 7, 1);
        assert!(store
            .insert_day(d1, vec![window(0, 60, vec![community(0, 10, 5)])])
            .is_empty());
        assert!(store
            .insert_day(d2, vec![window(60, 120, vec![])])
            .is_empty());
        let evicted = store.insert_day(d3, vec![window(120, 180, vec![community(1, 130, 5)])]);
        assert_eq!(evicted, vec![d1], "oldest day must go first");
        assert_eq!(store.day_count(), 2);
        assert!(store.day(d1).is_none());
        assert!(store.day(d2).is_some() && store.day(d3).is_some());

        let mut store = LabelStore::new();
        for (i, d) in [d1, d2, d3].into_iter().enumerate() {
            store.insert_day(d, vec![window(i as u64 * 60, (i as u64 + 1) * 60, vec![])]);
        }
        assert_eq!(store.evict_before(d3), 2);
        assert_eq!(store.day_count(), 1);
        assert_eq!(store.days().next().unwrap().date, d3);
        assert_eq!(store.window_count(), 1);
    }

    #[test]
    fn query_returns_overlapping_communities_in_order() {
        let mut store = LabelStore::new();
        let d1 = TraceDate::new(2006, 6, 28);
        let d2 = TraceDate::new(2006, 6, 29);
        store.insert_day(
            d1,
            vec![
                window(0, 60, vec![community(0, 10, 5), community(1, 50, 30)]),
                window(60, 120, vec![community(2, 70, 5)]),
            ],
        );
        store.insert_day(d2, vec![window(120, 180, vec![community(3, 150, 5)])]);
        let hits: Vec<usize> = store
            .query(TimeWindow::new(55, 130))
            .iter()
            .map(|c| c.community)
            .collect();
        // Community 0 ends at 15 (no overlap); 1 spans 50..80; 2 spans
        // 70..75; 3 starts at 150 (no overlap).
        assert_eq!(hits, vec![1, 2]);
        assert!(store.query(TimeWindow::new(10_000, 10_001)).is_empty());
    }
}
