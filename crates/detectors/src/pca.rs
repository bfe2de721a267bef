//! PCA-based detector: random-projection sketches + principal-subspace
//! residuals.
//!
//! Reproduces the sketch-assisted subspace method the paper uses as
//! detector 1 (§3.2, after Lakhina et al. \[21\], Li et al. \[23\] and
//! Kanda et al. \[18\]):
//!
//! 1. source addresses are hashed into `M` sketch bins under `H`
//!    independent hash functions;
//! 2. per hash row, the time×bin packet-count matrix is modelled by
//!    PCA — the top-k principal components span the *normal subspace*;
//! 3. time bins whose residual energy exceeds a Q-statistic threshold
//!    are anomalous; within them, sketch bins with outlying residual
//!    coordinates are flagged;
//! 4. a source IP is *identified* when its bin is flagged in **every**
//!    hash row (the sketch reversal of \[23\]), which is what lets this
//!    detector report host-granularity alarms at all.
//!
//! The PCA detector is deliberately the twitchiest of the four — the
//! paper finds it produces by far the most unrelated single-alarm
//! communities (Fig. 5) — so its sensitive tuning flags aggressively.

use crate::alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
use crate::{Accumulator, ChunkView, Detector, Family, IncrementalDetector, ObservationKey};
use mawilab_linalg::{Matrix, Pca};
use mawilab_model::{FastMap, FastSet, TimeWindow, TraceMeta};
use mawilab_sketch::SketchFamily;
use mawilab_stats::{mad, median};
use std::net::Ipv4Addr;

/// The sketch + principal-subspace detector (one configuration).
#[derive(Debug, Clone)]
pub struct PcaDetector {
    tuning: Tuning,
    /// Time-bin width in microseconds.
    bin_us: u64,
    /// Sketch width (bins per hash row).
    sketch_width: usize,
    /// Independent hash rows.
    sketch_rows: usize,
    /// Principal components retained (normal subspace dimension).
    components: usize,
    /// Threshold multiplier over residual mean/stddev.
    threshold: f64,
    /// Hash-family seed (fixed: detectors must be reproducible).
    seed: u64,
}

impl PcaDetector {
    /// Builds the detector with one of the paper's three tunings.
    pub fn new(tuning: Tuning) -> Self {
        // Deliberately twitchy thresholds: the paper's PCA detector is
        // by far the noisiest of the ensemble (Fig. 5 — it owns most
        // single-alarm communities), and that noise is what SCANN is
        // shown to filter out.
        let (components, threshold) = match tuning {
            Tuning::Conservative => (4, 2.8),
            Tuning::Optimal => (3, 2.1),
            Tuning::Sensitive => (2, 1.5),
        };
        PcaDetector {
            tuning,
            bin_us: 2_000_000,
            sketch_width: 24,
            sketch_rows: 3,
            components,
            threshold,
            seed: 0x50CA_0001,
        }
    }
}

impl PcaDetector {
    /// The subspace fit of one sketch row's count matrix with every
    /// component kept: what [`robust_fit`](Self::robust_fit)'s first
    /// pass truncates, identical for every tuning.
    fn full_fit(m: &Matrix) -> Pca {
        Pca::fit(m, m.cols())
    }

    /// Robust subspace fit: a first PCA pass marks observations that
    /// are outlying either *along* the principal axes (score distance)
    /// or *orthogonal* to them (residual distance); the subspace is
    /// then refit without those rows. Without this, a large anomaly
    /// rotates the top components onto itself and hides in the normal
    /// subspace — the contamination effect the paper discusses via
    /// Ringberg et al. [30] and Rubinstein et al.'s ANTIDOTE [31].
    ///
    /// `full` is `m`'s fit with every component kept
    /// ([`full_fit`](Self::full_fit)); the first pass is its leading
    /// `components`, so the tunings of one accumulator share it.
    fn robust_fit(&self, m: &Matrix, full: &Pca) -> Pca {
        let first = full.truncate(self.components);
        let n = m.rows();
        let scores: Vec<Vec<f64>> = (0..n).map(|t| first.transform(m.row(t))).collect();
        let energies: Vec<f64> = (0..n)
            .map(|t| first.residual(m.row(t)).iter().map(|x| x * x).sum())
            .collect();
        // Combined outlyingness: robust z-score along each principal
        // axis (catches anomalies the axes rotated onto) and of the
        // residual energy (catches everything else).
        let dims = scores.first().map_or(0, Vec::len);
        let mut axis_stats = Vec::with_capacity(dims);
        for d in 0..dims {
            let col: Vec<f64> = scores.iter().map(|s| s[d]).collect();
            axis_stats.push((median(&col), mad(&col).max(1e-9)));
        }
        let (e_med, e_mad) = (median(&energies), mad(&energies).max(1e-9));
        let outlyingness: Vec<f64> = (0..n)
            .map(|t| {
                let score_z = axis_stats
                    .iter()
                    .enumerate()
                    .map(|(d, &(med, s))| (scores[t][d] - med).abs() / s)
                    .fold(0.0, f64::max);
                let energy_z = (energies[t] - e_med).abs() / e_mad;
                score_z.max(energy_z)
            })
            .collect();
        // Rank-trim: refit on the cleanest 70% of the observations.
        // Outlyingness is a max of MAD-floored robust z-scores — ≥ 0 and
        // never −0.0 — so `total_cmp` orders it as `partial_cmp` would.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| outlyingness[a].total_cmp(&outlyingness[b]));
        let keep_n = ((n * 7) / 10).max(self.components + 2).min(n);
        let mut keep: Vec<usize> = order[..keep_n].to_vec();
        keep.sort_unstable();
        if keep.len() < n {
            let rows: Vec<Vec<f64>> = keep.iter().map(|&t| m.row(t).to_vec()).collect();
            Pca::fit(&Matrix::from_rows(&rows), self.components)
        } else {
            first
        }
    }
}

impl Detector for PcaDetector {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Pca
    }

    fn tuning(&self) -> Tuning {
        self.tuning
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        Accumulator::boxed(self)
    }

    fn observation_key(&self) -> Option<ObservationKey> {
        Some(ObservationKey::new(
            DetectorKind::Pca,
            &[
                self.bin_us,
                self.sketch_width as u64,
                self.sketch_rows as u64,
                self.seed,
            ],
        ))
    }
}

/// The incremental state of [`PcaDetector`]: chunk observation folds
/// packets into per-row time×bin count matrices keyed by absolute
/// time bin; the robust subspace fit and sketch reversal run once at
/// finish.
pub(crate) struct PcaState {
    window: TimeWindow,
    t_bins: usize,
    sketch: SketchFamily,
    counts: Vec<Matrix>,
    active: Vec<FastSet<u32>>,
}

impl Family for PcaDetector {
    type State = PcaState;

    /// `None` below four time bins.
    fn begin(&self, meta: &TraceMeta) -> Option<PcaState> {
        let window = meta.window();
        let t_bins = (window.len_us() / self.bin_us) as usize;
        (t_bins >= 4).then(|| PcaState {
            window,
            t_bins,
            sketch: SketchFamily::new(self.sketch_rows, self.sketch_width, self.seed),
            counts: vec![Matrix::zeros(t_bins, self.sketch_width); self.sketch_rows],
            active: vec![FastSet::default(); t_bins],
        })
    }

    fn observe(&self, state: &mut PcaState, chunk: &ChunkView<'_>) {
        for p in chunk.packets {
            // Packets stamped outside the nominal window (clock skew
            // in real captures) are skipped.
            let Some(dt) = p.ts_us.checked_sub(state.window.start_us) else {
                continue;
            };
            let t = (dt / self.bin_us) as usize;
            if t >= state.t_bins {
                continue;
            }
            let key = u32::from(p.src) as u64;
            for (row, m) in state.counts.iter_mut().enumerate() {
                m[(t, state.sketch.bin(row, key))] += 1.0;
            }
            state.active[t].insert(u32::from(p.src));
        }
    }

    /// Fits each sketch row's full subspace once; every tuning
    /// truncates it for its first robust pass and refits its own
    /// trimmed rows.
    fn finish_tunings(&self, state: &PcaState, tunings: &[Tuning]) -> Vec<Vec<Alarm>> {
        let full: Vec<Pca> = state.counts.iter().map(PcaDetector::full_fit).collect();
        tunings
            .iter()
            .map(|&t| PcaDetector::new(t).finish_analysis(state, &full))
            .collect()
    }
}

impl PcaDetector {
    /// The batch analysis over fully accumulated sketch state.
    fn finish_analysis(&self, state: &PcaState, full: &[Pca]) -> Vec<Alarm> {
        let PcaState {
            window,
            t_bins,
            ref sketch,
            ref counts,
            ref active,
        } = *state;
        // Per row: subspace fit → flagged (time, bin) pairs.
        // flagged[row][t] = boolean bin vector (empty Vec = untouched).
        let mut flagged: Vec<Vec<Vec<bool>>> = vec![vec![Vec::new(); t_bins]; self.sketch_rows];
        let mut bin_scores = vec![0.0f64; t_bins];
        for (row, (m, full)) in counts.iter().zip(full).enumerate() {
            let pca = self.robust_fit(m, full);
            let residuals: Vec<Vec<f64>> = (0..t_bins).map(|t| pca.residual(m.row(t))).collect();
            let energies: Vec<f64> = residuals
                .iter()
                .map(|e| e.iter().map(|x| x * x).sum())
                .collect();
            // Robust Q-statistic center/spread and per-coordinate
            // spreads for localisation.
            let e_med = median(&energies);
            let e_mad = mad(&energies).max(1e-9);
            let coord_sigma: Vec<f64> = (0..self.sketch_width)
                .map(|j| {
                    let col: Vec<f64> = residuals.iter().map(|e| e[j]).collect();
                    mad(&col)
                })
                .collect();
            // Robust Q-statistic threshold: median + λ·MAD, so the
            // anomaly cannot inflate its own detection threshold.
            let q_thr = e_med + self.threshold * e_mad;
            for t in 0..t_bins {
                if energies[t] <= q_thr || q_thr == 0.0 {
                    continue;
                }
                let mut bins = vec![false; self.sketch_width];
                let mut any = false;
                for j in 0..self.sketch_width {
                    if coord_sigma[j] > 0.0
                        && residuals[t][j].abs() > self.threshold * coord_sigma[j]
                    {
                        bins[j] = true;
                        any = true;
                    }
                }
                if any {
                    flagged[row][t] = bins;
                    bin_scores[t] = bin_scores[t].max(energies[t] / (q_thr + 1e-12));
                }
            }
        }

        // Identification: a source is reported in bin t when all rows
        // flagged the bin it hashes into.
        let mut per_ip_bins: FastMap<Ipv4Addr, Vec<usize>> = FastMap::default();
        for t in 0..t_bins {
            if flagged.iter().any(|rows| rows[t].is_empty()) {
                continue;
            }
            let flag_vecs: Vec<Vec<bool>> = (0..self.sketch_rows)
                .map(|r| flagged[r][t].clone())
                .collect();
            let candidates = active[t].iter().map(|&ip| ip as u64);
            for key in sketch.identify(candidates, &flag_vecs) {
                per_ip_bins
                    .entry(Ipv4Addr::from(key as u32))
                    .or_default()
                    .push(t);
            }
        }

        // Merge adjacent bins of the same source into single alarms.
        let mut alarms = Vec::new();
        let mut ips: Vec<_> = per_ip_bins.into_iter().collect();
        ips.sort_by_key(|(ip, _)| u32::from(*ip));
        for (ip, mut bins) in ips {
            bins.sort_unstable();
            let mut start = bins[0];
            let mut prev = bins[0];
            let mut score: f64 = bin_scores[bins[0]];
            let flush = |s: usize, e: usize, score: f64, alarms: &mut Vec<Alarm>| {
                alarms.push(Alarm {
                    detector: DetectorKind::Pca,
                    tuning: self.tuning,
                    window: TimeWindow::new(
                        window.start_us + s as u64 * self.bin_us,
                        window.start_us + (e + 1) as u64 * self.bin_us,
                    ),
                    scope: AlarmScope::SrcHost(ip),
                    score,
                });
            };
            for &b in &bins[1..] {
                if b == prev + 1 {
                    prev = b;
                    score = score.max(bin_scores[b]);
                } else {
                    flush(start, prev, score, &mut alarms);
                    start = b;
                    prev = b;
                    score = bin_scores[b];
                }
            }
            flush(start, prev, score, &mut alarms);
        }
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceView;
    use mawilab_model::FlowTable;
    use mawilab_synth::{AnomalySpec, SynthConfig, TraceGenerator};

    fn analyze(tuning: Tuning, cfg: SynthConfig) -> (Vec<Alarm>, mawilab_synth::LabeledTrace) {
        let lt = TraceGenerator::new(cfg).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms = PcaDetector::new(tuning).analyze(&TraceView::new(&lt.trace, &flows));
        (alarms, lt)
    }

    fn flood_config() -> SynthConfig {
        SynthConfig::default()
            .with_seed(101)
            .with_anomalies(vec![AnomalySpec::PingFlood {
                src: 0,
                dst: 1,
                rate_pps: 400.0,
                duration_s: 12.0,
            }])
    }

    #[test]
    fn detects_a_heavy_flood_source() {
        let (alarms, lt) = analyze(Tuning::Sensitive, flood_config());
        assert!(!alarms.is_empty(), "no alarms at all");
        let flood_src = lt.truth.anomalies()[0].rule.src.unwrap();
        assert!(
            alarms
                .iter()
                .any(|a| matches!(a.scope, AlarmScope::SrcHost(ip) if ip == flood_src)),
            "flood source {flood_src} not identified among {} alarms",
            alarms.len()
        );
    }

    #[test]
    fn alarm_windows_overlap_the_injection() {
        let (alarms, lt) = analyze(Tuning::Sensitive, flood_config());
        let truth = &lt.truth.anomalies()[0];
        let src = truth.rule.src.unwrap();
        let hit = alarms
            .iter()
            .filter(|a| matches!(a.scope, AlarmScope::SrcHost(ip) if ip == src))
            .any(|a| a.window.overlaps(&truth.window));
        assert!(hit, "no alarm window overlaps the flood window");
    }

    #[test]
    fn sensitive_raises_at_least_as_many_alarms_as_conservative() {
        let (sens, _) = analyze(Tuning::Sensitive, flood_config());
        let (cons, _) = analyze(Tuning::Conservative, flood_config());
        assert!(
            sens.len() >= cons.len(),
            "sensitive {} < conservative {}",
            sens.len(),
            cons.len()
        );
    }

    #[test]
    fn all_alarms_are_src_host_scoped() {
        let (alarms, _) = analyze(Tuning::Sensitive, flood_config());
        assert!(alarms
            .iter()
            .all(|a| matches!(a.scope, AlarmScope::SrcHost(_))));
        assert!(alarms.iter().all(|a| a.detector == DetectorKind::Pca));
    }

    #[test]
    fn deterministic_output() {
        let (a, _) = analyze(Tuning::Optimal, flood_config());
        let (b, _) = analyze(Tuning::Optimal, flood_config());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_yields_no_alarms() {
        let cfg = SynthConfig::default()
            .with_seed(1)
            .with_background_pps(0.000001)
            .with_anomalies(vec![]);
        let lt = TraceGenerator::new(cfg).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms =
            PcaDetector::new(Tuning::Sensitive).analyze(&TraceView::new(&lt.trace, &flows));
        assert!(
            alarms.len() <= 2,
            "near-empty trace produced {} alarms",
            alarms.len()
        );
    }

    #[test]
    fn quiet_uniform_traffic_stays_mostly_quiet() {
        let cfg = SynthConfig::default().with_seed(7).with_anomalies(vec![]);
        let (alarms, lt) = {
            let lt = TraceGenerator::new(cfg).generate();
            let flows = FlowTable::build(&lt.trace.packets);
            let alarms =
                PcaDetector::new(Tuning::Conservative).analyze(&TraceView::new(&lt.trace, &flows));
            (alarms, lt)
        };
        // Conservative tuning on pure background: few alarms relative
        // to the number of active hosts.
        let hosts: std::collections::HashSet<_> = lt.trace.packets.iter().map(|p| p.src).collect();
        assert!(
            alarms.len() < hosts.len() / 10,
            "{} alarms for {} hosts",
            alarms.len(),
            hosts.len()
        );
    }
}
