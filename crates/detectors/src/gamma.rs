//! Gamma-model detector: sketches + multi-resolution Gamma fitting.
//!
//! Reproduces detector 2 of the paper (§3.2, after Dewaele et al.
//! \[11\]): traffic is split by hashing — once on source and once on
//! destination addresses — and each sketch bin's packet-count process
//! is aggregated at several dyadic time scales. At every scale the
//! counts are modelled as Gamma(α, β); the trajectory of the fitted
//! parameters across scales characterises the bin. Bins whose
//! trajectory is far (in robust median/MAD distance) from the
//! adaptively computed reference — the median trajectory over all
//! bins of the same hash row — are anomalous, and the responsible
//! hosts are identified by intersecting flagged bins across the
//! independent hash rows, exactly as in the sketch-reversal of the
//! PCA detector.
//!
//! Alarms carry source- or destination-host scope depending on which
//! hash key exposed them, matching the paper's note that "this method
//! reports source or destination IP addresses".

use crate::alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
use crate::{ChunkView, Detector, IncrementalDetector, ObservationKey};
use mawilab_model::{FastSet, TimeWindow, TraceMeta};
use mawilab_sketch::SketchFamily;
use mawilab_stats::{mad, median, Gamma};
use std::net::Ipv4Addr;

/// Hash-key direction of one sketch pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Src,
    Dst,
}

/// The sketch + multi-resolution Gamma detector (one configuration).
#[derive(Debug, Clone)]
pub struct GammaDetector {
    tuning: Tuning,
    /// Finest aggregation scale, microseconds.
    delta_us: u64,
    /// Number of dyadic scales (j = 0..scales).
    scales: usize,
    /// Sketch width per hash row.
    sketch_width: usize,
    /// Independent hash rows.
    sketch_rows: usize,
    /// Robust-distance threshold λ.
    lambda: f64,
    seed: u64,
}

impl GammaDetector {
    /// Builds the detector with one of the paper's three tunings.
    pub fn new(tuning: Tuning) -> Self {
        let lambda = match tuning {
            Tuning::Conservative => 3.5,
            Tuning::Optimal => 2.5,
            Tuning::Sensitive => 1.8,
        };
        GammaDetector {
            tuning,
            delta_us: 500_000,
            scales: 4,
            sketch_width: 16,
            sketch_rows: 3,
            lambda,
            seed: 0x6A44_0002,
        }
    }

    /// Gamma-parameter trajectory of one count series at all scales:
    /// `[α_0, ln β_0, α_1, ln β_1, …]`. `None` when the series is
    /// degenerate (empty bin).
    fn trajectory(&self, counts: &[f64]) -> Option<Vec<f64>> {
        let mut feats = Vec::with_capacity(self.scales * 2);
        let mut series: Vec<f64> = counts.to_vec();
        for _ in 0..self.scales {
            let g = Gamma::fit_moments(&series)?;
            feats.push(g.alpha);
            feats.push(g.beta.ln());
            // Dyadic aggregation for the next scale.
            series = series.chunks(2).map(|c| c.iter().sum()).collect();
            if series.len() < 4 {
                // Not enough samples to keep fitting; pad by repeating
                // the last scale so all trajectories share a length.
                while feats.len() < self.scales * 2 {
                    let n = feats.len();
                    feats.push(feats[n - 2]);
                    feats.push(feats[n - 1]);
                }
                break;
            }
        }
        Some(feats)
    }

    /// Per-direction sketch accumulator state.
    fn direction_state(&self, dir: Direction, t_bins: usize) -> GammaDirState {
        let seed = self.seed ^ if dir == Direction::Src { 0 } else { 0xFFFF };
        GammaDirState {
            dir,
            sketch: SketchFamily::new(self.sketch_rows, self.sketch_width, seed),
            series: vec![vec![vec![0.0f64; t_bins]; self.sketch_width]; self.sketch_rows],
            hosts: FastSet::default(),
        }
    }

    /// Analyses one direction's accumulated sketch state.
    fn finish_direction(&self, state: &GammaDirState, window: TimeWindow, out: &mut Vec<Alarm>) {
        let GammaDirState {
            dir,
            sketch,
            series,
            hosts,
        } = state;

        // Per row: trajectories → robust distance from the median
        // trajectory → flagged bins.
        let mut flagged: Vec<Vec<bool>> = Vec::with_capacity(self.sketch_rows);
        let mut flagged_any = false;
        let mut max_score: f64 = 0.0;
        for per_bin in series {
            let trajs: Vec<Option<Vec<f64>>> = per_bin.iter().map(|s| self.trajectory(s)).collect();
            let dim = self.scales * 2;
            // Reference: per-coordinate median and MAD over valid bins.
            let mut med = vec![0.0; dim];
            let mut scale = vec![0.0; dim];
            for d in 0..dim {
                let col: Vec<f64> = trajs.iter().flatten().map(|t| t[d]).collect();
                med[d] = median(&col);
                scale[d] = mad(&col);
            }
            let mut flags = vec![false; self.sketch_width];
            for (bin, traj) in trajs.iter().enumerate() {
                let Some(t) = traj else { continue };
                let mut dist = 0.0;
                let mut used = 0;
                for d in 0..dim {
                    if scale[d] > 1e-9 {
                        let z = (t[d] - med[d]) / scale[d];
                        dist += z * z;
                        used += 1;
                    }
                }
                if used == 0 {
                    continue;
                }
                let dist = (dist / used as f64).sqrt();
                if dist > self.lambda {
                    flags[bin] = true;
                    flagged_any = true;
                    max_score = max_score.max(dist / self.lambda);
                }
            }
            flagged.push(flags);
        }
        if !flagged_any {
            return;
        }

        // Identify hosts flagged in every row.
        let identified = sketch.identify(hosts.iter().map(|&h| h as u64), &flagged);
        let mut identified: Vec<u64> = identified;
        identified.sort_unstable();
        for key in identified {
            let ip = Ipv4Addr::from(key as u32);
            out.push(Alarm {
                detector: DetectorKind::Gamma,
                tuning: self.tuning,
                window,
                scope: match dir {
                    Direction::Src => AlarmScope::SrcHost(ip),
                    Direction::Dst => AlarmScope::DstHost(ip),
                },
                score: max_score,
            });
        }
    }
}

impl Detector for GammaDetector {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Gamma
    }

    fn tuning(&self) -> Tuning {
        self.tuning
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        Box::new(GammaAccumulator {
            det: self.clone(),
            window: None,
            t_bins: 0,
            seen: 0,
            dirs: Vec::new(),
        })
    }

    fn observation_key(&self) -> Option<ObservationKey> {
        Some(ObservationKey::new(
            DetectorKind::Gamma,
            &[
                self.delta_us,
                self.sketch_width as u64,
                self.sketch_rows as u64,
                self.seed,
            ],
        ))
    }
}

/// Per-direction accumulated sketch state.
struct GammaDirState {
    dir: Direction,
    sketch: SketchFamily,
    /// Count series per (row, bin): `series[row][bin][t]`.
    series: Vec<Vec<Vec<f64>>>,
    hosts: FastSet<u32>,
}

/// Incremental form of [`GammaDetector`]: chunk observation folds
/// packets into per-(row, bin) count series keyed by absolute time
/// bin; the Gamma fitting and sketch reversal run once at finish.
pub struct GammaAccumulator {
    det: GammaDetector,
    window: Option<TimeWindow>,
    t_bins: usize,
    seen: u64,
    dirs: Vec<GammaDirState>,
}

impl IncrementalDetector for GammaAccumulator {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Gamma
    }

    fn tuning(&self) -> Tuning {
        self.det.tuning
    }

    fn begin(&mut self, meta: &TraceMeta) {
        let window = meta.window();
        self.window = Some(window);
        self.t_bins = (window.len_us() / self.det.delta_us) as usize;
        self.seen = 0;
        self.dirs = if self.t_bins < 8 {
            Vec::new() // too short to analyse; observe() becomes a no-op
        } else {
            vec![
                self.det.direction_state(Direction::Src, self.t_bins),
                self.det.direction_state(Direction::Dst, self.t_bins),
            ]
        };
    }

    fn observe(&mut self, chunk: &ChunkView<'_>) {
        if self.dirs.is_empty() {
            return;
        }
        let window = self.window.expect("observe before begin"); // lint:allow(panic-free-data-plane): begin() runs before observe() in the chunk driver
        self.seen += chunk.packets.len() as u64;
        for p in chunk.packets {
            let Some(dt) = p.ts_us.checked_sub(window.start_us) else {
                continue;
            };
            let t = (dt / self.det.delta_us) as usize;
            if t >= self.t_bins {
                continue;
            }
            for state in &mut self.dirs {
                let ip = match state.dir {
                    Direction::Src => u32::from(p.src),
                    Direction::Dst => u32::from(p.dst),
                };
                state.hosts.insert(ip);
                for (row, per_bin) in state.series.iter_mut().enumerate() {
                    per_bin[state.sketch.bin(row, ip as u64)][t] += 1.0;
                }
            }
        }
    }

    fn finish(&mut self) -> Vec<Alarm> {
        self.finish_tunings(&[self.det.tuning])
            .pop()
            .unwrap_or_default()
    }

    fn finish_tunings(&self, tunings: &[Tuning]) -> Vec<Vec<Alarm>> {
        if self.seen == 0 {
            return vec![Vec::new(); tunings.len()];
        }
        let window = self.window.expect("finish before begin"); // lint:allow(panic-free-data-plane): begin() runs before finish() in the chunk driver
        tunings
            .iter()
            .map(|&t| {
                let det = GammaDetector::new(t);
                let mut out = Vec::new();
                for state in &self.dirs {
                    det.finish_direction(state, window, &mut out);
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceView;
    use mawilab_model::FlowTable;
    use mawilab_synth::{AnomalySpec, SynthConfig, TraceGenerator};

    fn run(tuning: Tuning, cfg: SynthConfig) -> (Vec<Alarm>, mawilab_synth::LabeledTrace) {
        let lt = TraceGenerator::new(cfg).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms = GammaDetector::new(tuning).analyze(&TraceView::new(&lt.trace, &flows));
        (alarms, lt)
    }

    fn flood() -> SynthConfig {
        SynthConfig::default()
            .with_seed(202)
            .with_anomalies(vec![AnomalySpec::SynFlood {
                victim: 0,
                dport: 80,
                rate_pps: 300.0,
                duration_s: 15.0,
                spoofed: false,
            }])
    }

    #[test]
    fn detects_flood_victim_or_attackers() {
        let (alarms, lt) = run(Tuning::Sensitive, flood());
        assert!(!alarms.is_empty());
        let victim = lt.truth.anomalies()[0].rule.dst.unwrap();
        // The victim receives a massive burst: it must surface either
        // as a DstHost alarm or via one of the attacker sources.
        let victim_hit = alarms
            .iter()
            .any(|a| matches!(a.scope, AlarmScope::DstHost(ip) if ip == victim));
        assert!(
            victim_hit,
            "victim {victim} not reported; alarms: {}",
            alarms.len()
        );
    }

    #[test]
    fn reports_both_directions() {
        let cfg = SynthConfig::default().with_seed(203);
        let (alarms, _) = run(Tuning::Sensitive, cfg);
        let has_src = alarms
            .iter()
            .any(|a| matches!(a.scope, AlarmScope::SrcHost(_)));
        let has_dst = alarms
            .iter()
            .any(|a| matches!(a.scope, AlarmScope::DstHost(_)));
        assert!(has_src && has_dst, "src={has_src} dst={has_dst}");
    }

    #[test]
    fn sensitive_flags_more_than_conservative() {
        let (sens, _) = run(Tuning::Sensitive, flood());
        let (cons, _) = run(Tuning::Conservative, flood());
        assert!(sens.len() >= cons.len());
    }

    #[test]
    fn deterministic() {
        let (a, _) = run(Tuning::Optimal, flood());
        let (b, _) = run(Tuning::Optimal, flood());
        assert_eq!(a, b);
    }

    #[test]
    fn trajectory_has_fixed_dimension() {
        let d = GammaDetector::new(Tuning::Optimal);
        let series: Vec<f64> = (0..120).map(|i| ((i * 7919) % 13) as f64 + 1.0).collect();
        let t = d.trajectory(&series).unwrap();
        assert_eq!(t.len(), d.scales * 2);
        // Short series still produce the padded full dimension.
        let short: Vec<f64> = (0..9).map(|i| (i % 3) as f64 + 1.0).collect();
        let t2 = d.trajectory(&short).unwrap();
        assert_eq!(t2.len(), d.scales * 2);
    }

    #[test]
    fn degenerate_series_yields_none() {
        let d = GammaDetector::new(Tuning::Optimal);
        assert!(d.trajectory(&[0.0; 32]).is_none()); // zero mean
        assert!(d.trajectory(&[5.0; 32]).is_none()); // zero variance
    }

    #[test]
    fn gamma_alarms_only() {
        let (alarms, _) = run(Tuning::Sensitive, flood());
        assert!(alarms.iter().all(|a| a.detector == DetectorKind::Gamma));
        assert!(alarms.iter().all(|a| a.score > 0.0));
    }

    #[test]
    fn empty_trace_is_silent() {
        let lt = TraceGenerator::new(
            SynthConfig::default()
                .with_seed(1)
                .with_background_pps(0.000001)
                .with_anomalies(vec![]),
        )
        .generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms =
            GammaDetector::new(Tuning::Sensitive).analyze(&TraceView::new(&lt.trace, &flows));
        assert!(alarms.is_empty());
    }
}
