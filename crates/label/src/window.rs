//! Per-horizon label windows.
//!
//! The online pipeline buckets a day's labels **per horizon window**.
//! Every label is computed at end of stream (the detectors alarm in
//! `finish()`), so the windows are a partition of the day's labels,
//! not a feed that fills in early. [`LabeledWindow`] is one window:
//! the communities whose span starts inside it.

use crate::taxonomy::LabeledCommunity;
use mawilab_model::TimeWindow;

/// One horizon window's labels, as emitted by the online pipeline.
#[derive(Debug, Clone)]
pub struct LabeledWindow {
    /// The horizon window `[start, end)` the labels cover.
    pub window: TimeWindow,
    /// Communities whose span starts in this window, in community
    /// order.
    pub communities: Vec<LabeledCommunity>,
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
}
