//! SCANN: combination by correspondence analysis (Merz 1999;
//! paper §2.2.3).
//!
//! SCANN stores every community's configuration votes in an indicator
//! table (one *voted* and one *abstained* column per configuration, so
//! each row carries equal mass), reduces the table by correspondence
//! analysis, and projects two *reference* communities into the reduced
//! space: the unanimously-accepted pattern (every configuration votes)
//! and the unanimously-rejected pattern (none votes). A community's
//! class is the nearer reference point.
//!
//! The dimensionality reduction is what gives SCANN its selectivity:
//! a configuration that votes indiscriminately (or never) contributes
//! no discriminating inertia and is factored out — exactly how the
//! paper explains SCANN ignoring the PCA detector's noise while
//! keeping the KL detector's sparse-but-precise votes (§4.2.3).
//!
//! **Relative distance.** The paper defines `(d_rej/d_acc) − 1` with
//! range `[0, ∞)` and 0 on the decision boundary. Taken literally the
//! formula goes negative for rejected communities, so — consistent
//! with the stated range and Fig. 10's usage — we compute
//! `d_other/d_own − 1`: the distance to the *other* class's reference
//! over the distance to the *assigned* class's reference. 0 = on the
//! boundary; large = deep inside the assigned class.
//!
//! **Convergence.** Merz's SCANN iterates: after the first CA round
//! assigns classes, the indicator table is *augmented* with one
//! accepted/rejected membership column pair, CA is re-fit, and the
//! communities are re-classified against the augmented references —
//! until the class assignment is a fixed point (or [`SCANN_MAX_ROUNDS`]
//! caps a cycle). The single-round path is retained as
//! [`Scann::classify_single_round`], the equivalence oracle pinned in
//! `lint/oracles.toml`: `max_rounds = 1` is byte-identical to it.

use crate::strategies::CombinationStrategy;
use crate::votes::{Decision, VoteTable, N_CONFIGS};
use mawilab_linalg::matrix::distance;
use mawilab_linalg::{CorrespondenceAnalysis, Matrix};

/// Iteration cap for the convergence loop: boundary communities can
/// oscillate between the two references, so the re-fit loop needs a
/// deterministic stop. Clean tables converge in 2–3 rounds.
pub const SCANN_MAX_ROUNDS: usize = 8;

/// Retained CA dimensionality.
///
/// For a two-class vote table the dominant axis *is* the
/// accept/reject direction; additional axes encode *which detector
/// bloc* voted, which blurs nearest-reference classification. SCANN
/// keeps only the dominant axis — the very low dimensionality Merz's
/// formulation operates at.
const CA_DIMS: usize = 1;

/// The SCANN combination strategy.
#[derive(Debug, Clone, Copy)]
pub struct Scann {
    /// Upper bound on CA re-fit rounds. `1` disables the convergence
    /// loop entirely and reproduces the single-round oracle byte for
    /// byte.
    pub max_rounds: usize,
}

impl Default for Scann {
    fn default() -> Self {
        Scann {
            max_rounds: SCANN_MAX_ROUNDS,
        }
    }
}

impl Scann {
    /// Builds the indicator row of a vote pattern: `[voted, abstained]`
    /// per configuration.
    fn indicator_row(votes: &[bool; N_CONFIGS]) -> Vec<f64> {
        let mut row = Vec::with_capacity(2 * N_CONFIGS);
        for &v in votes {
            row.push(if v { 1.0 } else { 0.0 });
            row.push(if v { 0.0 } else { 1.0 });
        }
        row
    }

    /// Augments an indicator row with the previous round's class
    /// membership as one more `[accepted, rejected]` column pair —
    /// Merz's feedback step: the next CA round sees the current
    /// assignment as an extra (equal-mass) categorical variable.
    fn augmented_row(votes: &[bool; N_CONFIGS], accepted: bool) -> Vec<f64> {
        let mut row = Self::indicator_row(votes);
        row.push(if accepted { 1.0 } else { 0.0 });
        row.push(if accepted { 0.0 } else { 1.0 });
        row
    }

    /// Nearest-reference classification of every table row in a fitted
    /// CA space.
    fn classify_in_space(
        table: &VoteTable,
        ca: &CorrespondenceAnalysis,
        accept_ref: &[f64],
        reject_ref: &[f64],
    ) -> Vec<Decision> {
        (0..table.len())
            .map(|c| {
                let x = ca.row_coords(c);
                let d_acc = distance(x, accept_ref);
                let d_rej = distance(x, reject_ref);
                let accepted = d_acc < d_rej;
                let (d_own, d_other) = if accepted {
                    (d_acc, d_rej)
                } else {
                    (d_rej, d_acc)
                };
                let rel = if d_own > 0.0 {
                    d_other / d_own - 1.0
                } else if d_other > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                Decision {
                    accepted,
                    relative_distance: Some(rel),
                }
            })
            .collect()
    }

    /// One CA round over the raw indicator table — the seed
    /// implementation, kept verbatim as the equivalence oracle for the
    /// convergence loop (`max_rounds = 1` ≡ this, byte for byte).
    /// Falls back to the majority vote when the table carries no
    /// discriminating inertia (e.g. every community has the identical
    /// vote pattern).
    pub fn classify_single_round(&self, table: &VoteTable) -> Vec<Decision> {
        if table.is_empty() {
            return Vec::new();
        }
        let rows: Vec<Vec<f64>> = (0..table.len())
            .map(|c| Self::indicator_row(table.row(c)))
            .collect();
        let t = Matrix::from_rows(&rows);
        let ca = CorrespondenceAnalysis::fit(&t, CA_DIMS);
        let total_inertia: f64 = ca.inertia().iter().sum();
        if total_inertia < 1e-12 {
            // Degenerate: all rows share one profile; no geometry to
            // classify with. Fall back to the raw majority rule.
            return crate::strategies::MajorityVote.classify(table);
        }
        let accept_ref = ca.project_row(&Self::indicator_row(&[true; N_CONFIGS]));
        let reject_ref = ca.project_row(&Self::indicator_row(&[false; N_CONFIGS]));
        Self::classify_in_space(table, &ca, &accept_ref, &reject_ref)
    }

    /// Classifies with full diagnostics, iterating CA re-fits on the
    /// class-augmented table until the assignment is stable (Merz's
    /// SCANN; see module docs). Relative distances come from the
    /// final round's geometry.
    pub fn classify_detailed(&self, table: &VoteTable) -> Vec<Decision> {
        assert!(self.max_rounds >= 1, "SCANN needs at least one CA round");
        let mut decisions = self.classify_single_round(table);
        if decisions.is_empty() || decisions[0].relative_distance.is_none() {
            // Empty table, or the majority-vote fallback fired: there
            // is no CA geometry to iterate on.
            return decisions;
        }
        for _ in 1..self.max_rounds {
            let rows: Vec<Vec<f64>> = (0..table.len())
                .map(|c| Self::augmented_row(table.row(c), decisions[c].accepted))
                .collect();
            let t = Matrix::from_rows(&rows);
            let ca = CorrespondenceAnalysis::fit(&t, CA_DIMS);
            if ca.inertia().iter().sum::<f64>() < 1e-12 {
                // The augmented table lost its geometry (cannot happen
                // unless the class columns are uniform AND the votes
                // are); keep the last well-defined round.
                break;
            }
            let accept_ref = ca.project_row(&Self::augmented_row(&[true; N_CONFIGS], true));
            let reject_ref = ca.project_row(&Self::augmented_row(&[false; N_CONFIGS], false));
            let next = Self::classify_in_space(table, &ca, &accept_ref, &reject_ref);
            let stable = next
                .iter()
                .zip(&decisions)
                .all(|(n, p)| n.accepted == p.accepted);
            decisions = next;
            if stable {
                break;
            }
        }
        decisions
    }
}

impl CombinationStrategy for Scann {
    fn name(&self) -> &'static str {
        "SCANN"
    }

    fn classify(&self, table: &VoteTable) -> Vec<Decision> {
        self.classify_detailed(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(on: &[usize]) -> [bool; N_CONFIGS] {
        let mut r = [false; N_CONFIGS];
        for &i in on {
            r[i] = true;
        }
        r
    }

    /// A table with clear structure: heavily-voted communities and
    /// barely-voted ones.
    fn structured() -> VoteTable {
        VoteTable::from_rows(vec![
            row(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]), // unanimous
            row(&[0, 1, 3, 4, 5, 9, 10, 11]),             // strong
            row(&[3, 4, 5, 9, 10, 11]),                   // two detectors full
            row(&[0]),                                    // single config
            row(&[6]),                                    // single config
            row(&[]),                                     // silence
        ])
    }

    #[test]
    fn unanimous_accepted_silence_rejected() {
        let d = Scann::default().classify(&structured());
        assert!(d[0].accepted, "unanimous community rejected");
        assert!(!d[5].accepted, "silent community accepted");
    }

    #[test]
    fn strong_support_accepted_weak_rejected() {
        let d = Scann::default().classify(&structured());
        assert!(d[1].accepted, "8-vote community rejected");
        assert!(!d[3].accepted, "1-vote community accepted");
        assert!(!d[4].accepted);
    }

    #[test]
    fn relative_distance_present_and_nonnegative() {
        let d = Scann::default().classify(&structured());
        for (i, dec) in d.iter().enumerate() {
            let rel = dec.relative_distance.expect("SCANN must report distances");
            assert!(rel >= 0.0, "negative relative distance at {i}");
        }
    }

    #[test]
    fn boundary_cases_have_smaller_relative_distance() {
        let d = Scann::default().classify(&structured());
        // The silent community is deeper in "rejected" than the
        // single-vote ones.
        let rel_silent = d[5].relative_distance.unwrap();
        let rel_single = d[3].relative_distance.unwrap();
        assert!(
            rel_silent >= rel_single,
            "silence ({rel_silent}) should be deeper than one vote ({rel_single})"
        );
    }

    #[test]
    fn ignores_an_uninformative_detector() {
        // Hough (configs 6..9) votes for *everything* — it carries no
        // information. Communities differing only in the informative
        // detectors must still be separated.
        let t = VoteTable::from_rows(vec![
            row(&[6, 7, 8, 0, 1, 2, 3, 4, 5, 9, 10, 11]),
            row(&[6, 7, 8, 0, 1, 2, 3, 4, 5]),
            row(&[6, 7, 8]),
            row(&[6, 7, 8]),
            row(&[6, 7, 8]),
            row(&[6, 7, 8]),
        ]);
        let d = Scann::default().classify(&t);
        assert!(d[0].accepted);
        assert!(d[1].accepted);
        assert!(
            !d[2].accepted,
            "Hough-only community accepted despite Hough being noise"
        );
    }

    /// A realistic mixed table: unanimous communities, two strong
    /// blocs anchored by KL, single-config noise, KL-exclusive
    /// communities.
    fn realistic() -> VoteTable {
        let mut rows = Vec::new();
        for _ in 0..5 {
            rows.push(row(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]));
        }
        for _ in 0..10 {
            rows.push(row(&[3, 4, 5, 9, 10, 11])); // Gamma+KL
        }
        for _ in 0..10 {
            rows.push(row(&[2, 6, 7, 8, 9, 10, 11])); // Hough+KL (+PCA sens.)
        }
        for _ in 0..15 {
            rows.push(row(&[2])); // PCA-sensitive noise
        }
        for _ in 0..10 {
            rows.push(row(&[1, 2])); // PCA noise
        }
        for _ in 0..8 {
            rows.push(row(&[8])); // Hough-sensitive noise
        }
        for _ in 0..5 {
            rows.push(row(&[9, 10, 11])); // KL-exclusive
        }
        VoteTable::from_rows(rows)
    }

    #[test]
    fn realistic_table_separates_strong_from_noise() {
        let t = realistic();
        let d = Scann::default().classify(&t);
        assert!(
            (0..25).all(|c| d[c].accepted),
            "strong communities rejected"
        );
        assert!((25..58).all(|c| !d[c].accepted), "noise accepted");
    }

    #[test]
    fn exclusive_reliable_detector_sits_near_the_boundary() {
        // §4.2.3/§5: communities reported only by the accurate KL
        // detector are either accepted, or rejected with a *small*
        // relative distance (→ Suspicious in the taxonomy), while
        // single-config noise is rejected deep in the rejected region
        // (→ Notice). The average rule cannot express this at all: it
        // inherently rejects every single-detector community.
        let t = realistic();
        let d = Scann::default().classify(&t);
        let kl_rel: f64 = (58..63)
            .map(|c| d[c].relative_distance.unwrap())
            .fold(0.0, f64::max);
        let noise_rel: f64 = (25..58)
            .filter(|&c| !d[c].accepted)
            .map(|c| d[c].relative_distance.unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(
            (58..63).all(|c| d[c].accepted) || kl_rel < noise_rel,
            "KL-exclusive (rel {kl_rel}) not better placed than noise (rel {noise_rel})"
        );
        // The average strategy rejects all single-detector communities
        // by construction (max ϕ contribution = 1/4).
        let avg = crate::strategies::Average.classify(&t);
        assert!((58..63).all(|c| !avg[c].accepted));
        assert!((25..58).all(|c| !avg[c].accepted));
    }

    #[test]
    fn degenerate_identical_rows_fall_back_to_majority() {
        let t = VoteTable::from_rows(vec![row(&[0, 1, 2, 3, 4, 5, 6, 7]); 4]);
        let d = Scann::default().classify(&t);
        // 8 of 12 votes → majority accepts.
        assert!(d.iter().all(|x| x.accepted));
        let t2 = VoteTable::from_rows(vec![row(&[0]); 4]);
        let d2 = Scann::default().classify(&t2);
        assert!(d2.iter().all(|x| !x.accepted));
    }

    #[test]
    fn empty_table_is_empty_output() {
        assert!(Scann::default()
            .classify(&VoteTable::from_rows(vec![]))
            .is_empty());
    }

    #[test]
    fn single_community_tables_do_not_panic() {
        for votes in [row(&[]), row(&[0, 1, 2]), row(&(0..12).collect::<Vec<_>>())] {
            let t = VoteTable::from_rows(vec![votes]);
            let d = Scann::default().classify(&t);
            assert_eq!(d.len(), 1);
        }
    }

    #[test]
    fn deterministic() {
        let a = Scann::default().classify(&structured());
        let b = Scann::default().classify(&structured());
        assert_eq!(a, b);
    }

    #[test]
    fn one_round_cap_is_the_single_round_oracle() {
        // The oracle contract registered in lint/oracles.toml:
        // `max_rounds = 1` must reproduce the seed single-round path
        // byte for byte, on every table shape including degenerate
        // fallbacks.
        let capped = Scann { max_rounds: 1 };
        for t in [
            structured(),
            realistic(),
            VoteTable::from_rows(vec![row(&[0, 1, 2]); 4]),
            VoteTable::from_rows(vec![]),
            VoteTable::from_rows(vec![row(&[0, 5, 9])]),
        ] {
            assert_eq!(
                capped.classify_detailed(&t),
                capped.classify_single_round(&t)
            );
        }
    }

    #[test]
    fn convergence_reaches_a_fixed_point() {
        // Re-classifying with the converged assignment as the class
        // augmentation must reproduce that assignment: running with a
        // doubled round cap changes nothing.
        for t in [structured(), realistic()] {
            let converged = Scann::default().classify_detailed(&t);
            let extra = Scann {
                max_rounds: 2 * SCANN_MAX_ROUNDS,
            }
            .classify_detailed(&t);
            assert_eq!(converged, extra, "assignment not a fixed point");
        }
    }

    #[test]
    fn convergence_keeps_the_clean_separation() {
        // On tables with clear structure the iterated assignment must
        // agree with the single-round one — the loop sharpens
        // geometry, it must not invent flips where separation is
        // unambiguous.
        let t = structured();
        let single = Scann::default().classify_single_round(&t);
        let converged = Scann::default().classify_detailed(&t);
        for (c, (s, i)) in single.iter().zip(&converged).enumerate() {
            assert_eq!(s.accepted, i.accepted, "community {c} flipped");
        }
    }
}
