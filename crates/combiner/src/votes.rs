//! Vote tables and confidence scores.

use mawilab_detectors::{DetectorKind, Tuning};
use mawilab_similarity::AlarmCommunities;

/// Number of configurations (4 detectors × 3 tunings).
pub const N_CONFIGS: usize = 12;

/// Binary votes of every configuration for every community.
///
/// `vote[c][k]` is true when configuration `k` (detector-major ×
/// tuning-minor, see [`Alarm::config_index`]) reported at least one
/// alarm inside community `c` — the definition of a detector's vote in
/// paper §2.2.2.
///
/// [`Alarm::config_index`]: mawilab_detectors::Alarm::config_index
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteTable {
    votes: Vec<[bool; N_CONFIGS]>,
}

impl VoteTable {
    /// Builds the table from estimated communities.
    pub fn from_communities(communities: &AlarmCommunities) -> Self {
        let mut votes = vec![[false; N_CONFIGS]; communities.community_count()];
        for (i, alarm) in communities.alarms.iter().enumerate() {
            let c = communities.partition.of(i);
            votes[c][alarm.config_index()] = true;
        }
        VoteTable { votes }
    }

    /// Builds a table from raw rows (used by tests and benches).
    pub fn from_rows(rows: Vec<[bool; N_CONFIGS]>) -> Self {
        VoteTable { votes: rows }
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.votes.len()
    }

    /// True when the table has no communities.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Raw vote row of community `c`.
    pub fn row(&self, c: usize) -> &[bool; N_CONFIGS] {
        &self.votes[c]
    }

    /// Whether configuration `(d, t)` voted for community `c`.
    pub fn voted(&self, c: usize, d: DetectorKind, t: Tuning) -> bool {
        self.votes[c][d.index() * 3 + t.index()]
    }

    /// The confidence score `ϕ_d(c)`: the fraction of detector `d`'s
    /// configurations that reported an alarm in community `c`
    /// (paper §2.2.2).
    pub fn confidence(&self, c: usize, d: DetectorKind) -> f64 {
        let hits = Tuning::ALL.iter().filter(|t| self.voted(c, d, **t)).count();
        hits as f64 / Tuning::ALL.len() as f64
    }

    /// Confidence scores of all four detectors for community `c`,
    /// indexed by [`DetectorKind::index`].
    pub fn confidences(&self, c: usize) -> [f64; 4] {
        let mut out = [0.0; 4];
        for d in DetectorKind::ALL {
            out[d.index()] = self.confidence(c, d);
        }
        out
    }

    /// Total votes (configurations) for community `c`.
    pub fn vote_count(&self, c: usize) -> usize {
        self.votes[c].iter().filter(|&&v| v).count()
    }
}

/// A combiner's verdict on one community.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Accepted (reported anomalous) or rejected (ignored).
    pub accepted: bool,
    /// SCANN's relative distance `(d_rej/d_acc) − 1`; `None` for
    /// strategies that do not produce one. 0 = exactly on the
    /// decision boundary; large = deep in the rejected region
    /// (paper §4.2.3).
    pub relative_distance: Option<f64>,
}

impl Decision {
    /// Plain accept/reject decision without a distance.
    pub fn new(accepted: bool) -> Self {
        Decision {
            accepted,
            relative_distance: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 2 community: detectors A, B, C with 3 configs
    /// each; A voted with 2 configs, B with 3, C with 0. We map
    /// A=PCA, B=Gamma, C=Hough.
    fn fig2_row() -> [bool; N_CONFIGS] {
        let mut row = [false; N_CONFIGS];
        row[0] = true; // PCA conservative (A0)
        row[1] = true; // PCA optimal (A1)
        row[3] = true; // Gamma conservative (B0)
        row[4] = true; // Gamma optimal (B1)
        row[5] = true; // Gamma sensitive (B2)
        row
    }

    #[test]
    fn paper_fig2_confidence_scores() {
        let t = VoteTable::from_rows(vec![fig2_row()]);
        assert!((t.confidence(0, DetectorKind::Pca) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.confidence(0, DetectorKind::Gamma), 1.0);
        assert_eq!(t.confidence(0, DetectorKind::Hough), 0.0);
        assert_eq!(t.confidence(0, DetectorKind::Kl), 0.0);
    }

    #[test]
    fn vote_count_counts_configurations() {
        let t = VoteTable::from_rows(vec![fig2_row()]);
        assert_eq!(t.vote_count(0), 5);
    }

    #[test]
    fn confidences_are_indexed_by_detector() {
        let t = VoteTable::from_rows(vec![fig2_row()]);
        let c = t.confidences(0);
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c[1], 1.0);
        assert_eq!(c[2], 0.0);
        assert_eq!(c[3], 0.0);
    }

    #[test]
    fn confidence_is_always_a_valid_fraction() {
        // Exhaustive over all 2^12 rows would be slow; sample a spread.
        for seed in 0..200u16 {
            let mut row = [false; N_CONFIGS];
            for (k, r) in row.iter_mut().enumerate() {
                *r = (seed as usize >> (k % 12)) & 1 == 1;
            }
            let t = VoteTable::from_rows(vec![row]);
            for d in DetectorKind::ALL {
                let phi = t.confidence(0, d);
                assert!((0.0..=1.0).contains(&phi));
                assert!((phi * 3.0).fract().abs() < 1e-9, "ϕ must be a third");
            }
        }
    }

    #[test]
    fn empty_table() {
        let t = VoteTable::from_rows(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
