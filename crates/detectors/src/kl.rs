//! KL-divergence detector: histogram monitoring + anomaly extraction
//! via association rules.
//!
//! Reproduces detector 4 of the paper (§3.2, after Brauckhoff et al.
//! \[8\]): per time bin, one histogram per traffic feature (source/
//! destination address, source/destination port) summarises the
//! feature distribution; the Kullback–Leibler divergence between
//! consecutive bins spikes when an anomaly shifts a distribution.
//! For each spiking (feature, bin) pair the histogram cells that
//! contribute most to the divergence select the *suspicious* packets,
//! and the modified Apriori algorithm condenses them into association
//! rules — so this detector's alarms are 4-tuples with wildcards,
//! the most expressive granularity of the four.
//!
//! The paper finds this detector the most accurate of the ensemble
//! (Fig. 6(c)); its rules bind tightly to real anomaly features, which
//! is why its tunings are the most precise rather than the loudest.

use crate::alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
use crate::{ChunkView, Detector, IncrementalDetector, ObservationKey};
use mawilab_mining::{mine_rules, Transaction};
use mawilab_model::{FastMap, FastSet, TimeWindow, TraceMeta};
use mawilab_stats::{kl_contributions, kl_divergence_counts, mad, median, Histogram};
use std::net::Ipv4Addr;

/// The four monitored features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feature {
    SrcAddr,
    DstAddr,
    SrcPort,
    DstPort,
}

const FEATURES: [Feature; 4] = [
    Feature::SrcAddr,
    Feature::DstAddr,
    Feature::SrcPort,
    Feature::DstPort,
];

impl Feature {
    /// Histogram key of one packet — delegated to
    /// [`PacketTuple::feature_key`] so histogram population and
    /// suspicious-tuple lookup share a single encoding.
    fn key(self, p: &mawilab_model::Packet) -> u64 {
        PacketTuple::of(p).feature_key(self)
    }
}

/// The 4-tuple a packet contributes to rule mining. Packets sharing a
/// tuple are interchangeable for the detector's extraction step, so
/// the accumulator stores tuple *counts* per time bin instead of the
/// packets themselves — the piece that makes KL streamable without
/// retaining packets. The count maps grow with per-bin tuple
/// *diversity*: far below packet volume on normal traffic, but
/// adversarial spoofed-source floods can approach one entry per
/// packet within the flooded bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PacketTuple {
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
}

impl PacketTuple {
    fn of(p: &mawilab_model::Packet) -> Self {
        PacketTuple {
            src: u32::from(p.src),
            dst: u32::from(p.dst),
            sport: p.sport,
            dport: p.dport,
        }
    }

    /// The single feature-key encoding ([`Feature::key`] delegates
    /// here): addresses raw, ports tagged into disjoint bit ranges.
    fn feature_key(&self, f: Feature) -> u64 {
        match f {
            Feature::SrcAddr => self.src as u64,
            Feature::DstAddr => self.dst as u64,
            Feature::SrcPort => self.sport as u64 | 1 << 40,
            Feature::DstPort => self.dport as u64 | 1 << 41,
        }
    }

    fn transaction(&self) -> Transaction {
        Transaction::new(
            Ipv4Addr::from(self.src),
            self.sport,
            Ipv4Addr::from(self.dst),
            self.dport,
        )
    }
}

/// The KL-divergence histogram detector (one configuration).
#[derive(Debug, Clone)]
pub struct KlDetector {
    tuning: Tuning,
    /// Time-bin width, microseconds.
    bin_us: u64,
    /// Histogram cells per feature.
    hist_bins: usize,
    /// Divergence threshold multiplier λ (μ + λσ over the series).
    lambda: f64,
    /// Histogram cells inspected per spike.
    top_cells: usize,
    /// Apriori support threshold over the suspicious packets.
    min_support: f64,
}

impl KlDetector {
    /// Builds the detector with one of the paper's three tunings.
    pub fn new(tuning: Tuning) -> Self {
        let (lambda, top_cells) = match tuning {
            Tuning::Conservative => (3.5, 2),
            Tuning::Optimal => (2.5, 3),
            Tuning::Sensitive => (1.8, 4),
        };
        KlDetector {
            tuning,
            bin_us: 5_000_000,
            hist_bins: 128,
            lambda,
            top_cells,
            min_support: 0.2,
        }
    }
}

/// Ports whose bare presence is background, not anomaly signature.
const SERVICE_PORTS: [u16; 9] = [80, 8080, 443, 53, 25, 22, 21, 20, 123];

fn is_bare_service_port(rule: &mawilab_model::TrafficRule) -> bool {
    let port = rule.sport.or(rule.dport);
    matches!(port, Some(p) if SERVICE_PORTS.contains(&p))
}

impl Detector for KlDetector {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Kl
    }

    fn tuning(&self) -> Tuning {
        self.tuning
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        Box::new(KlAccumulator {
            det: self.clone(),
            window: None,
            t_bins: 0,
            seen: 0,
            hists: Vec::new(),
            bin_tuples: Vec::new(),
        })
    }

    fn observation_key(&self) -> Option<ObservationKey> {
        Some(ObservationKey::new(
            DetectorKind::Kl,
            &[self.bin_us, self.hist_bins as u64],
        ))
    }
}

/// Incremental form of [`KlDetector`]: chunk observation folds
/// packets into per-(feature, bin) histograms plus per-bin 4-tuple
/// counts keyed by absolute time bin; divergence thresholding and
/// rule mining run once at finish.
pub struct KlAccumulator {
    det: KlDetector,
    window: Option<TimeWindow>,
    t_bins: usize,
    seen: u64,
    /// `hists[feature][t]`.
    hists: Vec<Vec<Histogram>>,
    /// Distinct 4-tuples with multiplicities, per time bin.
    bin_tuples: Vec<FastMap<PacketTuple, u32>>,
}

impl IncrementalDetector for KlAccumulator {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Kl
    }

    fn tuning(&self) -> Tuning {
        self.det.tuning
    }

    fn begin(&mut self, meta: &TraceMeta) {
        let window = meta.window();
        self.window = Some(window);
        self.t_bins = (window.len_us() / self.det.bin_us) as usize;
        self.seen = 0;
        if self.t_bins < 3 {
            self.hists = Vec::new();
            self.bin_tuples = Vec::new();
        } else {
            self.hists = FEATURES
                .iter()
                .map(|_| {
                    (0..self.t_bins)
                        .map(|_| Histogram::new(self.det.hist_bins))
                        .collect()
                })
                .collect();
            self.bin_tuples = vec![FastMap::default(); self.t_bins];
        }
    }

    fn observe(&mut self, chunk: &ChunkView<'_>) {
        if self.hists.is_empty() {
            return;
        }
        let window = self.window.expect("observe before begin"); // lint:allow(panic-free-data-plane): begin() runs before observe() in the chunk driver
        self.seen += chunk.packets.len() as u64;
        for p in chunk.packets {
            let t = ((p.ts_us.saturating_sub(window.start_us) / self.det.bin_us) as usize)
                .min(self.t_bins - 1);
            for (fi, f) in FEATURES.iter().enumerate() {
                self.hists[fi][t].add(f.key(p));
            }
            *self.bin_tuples[t].entry(PacketTuple::of(p)).or_insert(0) += 1;
        }
    }

    fn finish(&mut self) -> Vec<Alarm> {
        self.finish_tunings(&[self.det.tuning])
            .pop()
            .unwrap_or_default()
    }

    fn finish_tunings(&self, tunings: &[Tuning]) -> Vec<Vec<Alarm>> {
        if self.hists.is_empty() || self.seen == 0 {
            return vec![Vec::new(); tunings.len()];
        }
        let window = self.window.expect("finish before begin"); // lint:allow(panic-free-data-plane): begin() runs before finish() in the chunk driver
        tunings
            .iter()
            .map(|&t| {
                KlDetector::new(t).finish_analysis(
                    window,
                    self.t_bins,
                    &self.hists,
                    &self.bin_tuples,
                )
            })
            .collect()
    }
}

impl KlDetector {
    /// The batch analysis over fully accumulated histogram state.
    fn finish_analysis(
        &self,
        window: TimeWindow,
        t_bins: usize,
        hists: &[Vec<Histogram>],
        bin_tuples: &[FastMap<PacketTuple, u32>],
    ) -> Vec<Alarm> {
        let mut alarms = Vec::new();
        let mut seen: FastSet<(usize, mawilab_model::TrafficRule)> = FastSet::default();
        for (fi, f) in FEATURES.iter().enumerate() {
            // Divergence series between consecutive bins, on raw
            // counts with Laplace smoothing (pseudo-count ½ per cell):
            // sparse cells flipping between 0 and a few packets must
            // not drown a real distribution shift.
            const PSEUDO: f64 = 0.5;
            let series: Vec<f64> = (1..t_bins)
                .map(|t| {
                    kl_divergence_counts(hists[fi][t].counts(), hists[fi][t - 1].counts(), PSEUDO)
                })
                .collect();
            // Robust baseline: the anomaly's own spikes must not lift
            // the threshold (median/MAD instead of mean/σ).
            let spread = mad(&series);
            let center = median(&series);
            if spread < 1e-12 {
                continue; // flat series: nothing to flag
            }
            let thr = center + self.lambda * spread;
            for (si, &d) in series.iter().enumerate() {
                if d <= thr {
                    continue;
                }
                let t = si + 1;
                // Cells contributing most to the divergence, under the
                // same Laplace smoothing as the series itself.
                let mut contrib: Vec<(usize, f64)> =
                    kl_contributions(hists[fi][t].counts(), hists[fi][t - 1].counts(), PSEUDO)
                        .into_iter()
                        .enumerate()
                        .filter(|&(_, v)| v > 0.0)
                        .collect();
                // Contributions are > 0.0, so `total_cmp` orders them
                // exactly as `partial_cmp` would.
                contrib.sort_by(|a, b| b.1.total_cmp(&a.1));
                let top: FastSet<usize> = contrib
                    .iter()
                    .take(self.top_cells)
                    .map(|&(c, _)| c)
                    .collect();
                if top.is_empty() {
                    continue;
                }
                // Suspicious packets: feature value in a top cell.
                // The accumulated 4-tuples stand in for the packets
                // (multiplicity preserved; sorted for a deterministic
                // mining input — Apriori support counting is
                // order-insensitive anyway).
                let sample_hist = &hists[fi][t];
                let mut tuples: Vec<(&PacketTuple, u32)> =
                    bin_tuples[t].iter().map(|(tp, &n)| (tp, n)).collect();
                tuples.sort_unstable_by_key(|(tp, _)| **tp);
                let mut suspicious: Vec<Transaction> = Vec::new();
                for (tp, n) in tuples {
                    if top.contains(&sample_hist.bin_of(tp.feature_key(*f))) {
                        suspicious
                            .extend(std::iter::repeat_with(|| tp.transaction()).take(n as usize));
                    }
                }
                if suspicious.len() < 5 {
                    continue;
                }
                let mined = mine_rules(&suspicious, self.min_support);
                // The last bin also holds the window's tail past
                // `t_bins · bin_us`, so its alarms end at the window's end.
                let bin_end = if t + 1 == t_bins {
                    window.end_us
                } else {
                    (window.start_us + (t as u64 + 1) * self.bin_us).min(window.end_us)
                };
                let bin_window = TimeWindow::new(window.start_us + t as u64 * self.bin_us, bin_end);
                for (rule, _count) in mined.rules {
                    if rule.degree() == 0 {
                        continue;
                    }
                    // A degree-1 rule that only names a well-known
                    // service port describes the background, not a
                    // change signature — Brauckhoff et al.'s extraction
                    // filters such baseline itemsets out.
                    if rule.degree() == 1 && is_bare_service_port(&rule) {
                        continue;
                    }
                    if seen.insert((t, rule)) {
                        alarms.push(Alarm {
                            detector: DetectorKind::Kl,
                            tuning: self.tuning,
                            window: bin_window,
                            scope: AlarmScope::Rule(rule),
                            score: d / (thr + 1e-12),
                        });
                    }
                }
            }
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

    fn run(tuning: Tuning, cfg: SynthConfig) -> (Vec<Alarm>, mawilab_synth::LabeledTrace) {
        let lt = TraceGenerator::new(cfg).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms = KlDetector::new(tuning).analyze(&TraceView::new(&lt.trace, &flows));
        (alarms, lt)
    }

    fn flood() -> SynthConfig {
        // Victim 60: an unpopular host, so the flood shifts the
        // dst-address histogram hard (victim 0 is the Zipf rank-1
        // host whose distribution barely moves).
        SynthConfig::default()
            .with_seed(406)
            .with_anomalies(vec![AnomalySpec::SynFlood {
                victim: 60,
                dport: 80,
                rate_pps: 350.0,
                duration_s: 12.0,
                spoofed: true,
            }])
    }

    #[test]
    fn flood_yields_a_rule_binding_the_victim() {
        let (alarms, lt) = run(Tuning::Sensitive, flood());
        assert!(!alarms.is_empty());
        let victim = lt.truth.anomalies()[0].rule.dst.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::Rule(r) => {
                r.dst == Some(victim) || r.src == Some(victim) || r.dport == Some(80)
            }
            _ => false,
        });
        assert!(hit, "no rule mentions the victim; alarms: {:#?}", alarms);
    }

    #[test]
    fn worm_yields_a_rule_binding_port_445_or_source() {
        let cfg =
            SynthConfig::default()
                .with_seed(405)
                .with_anomalies(vec![AnomalySpec::SasserWorm {
                    infected: 1,
                    scans: 1500,
                    rate_pps: 120.0,
                }]);
        let (alarms, lt) = run(Tuning::Sensitive, cfg);
        let src = lt.truth.anomalies()[0].rule.src.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::Rule(r) => r.dport == Some(445) || r.src == Some(src),
            _ => false,
        });
        assert!(hit, "worm features not extracted: {:#?}", alarms);
    }

    #[test]
    fn all_rules_are_nontrivial_4tuples() {
        let (alarms, _) = run(Tuning::Sensitive, flood());
        for a in &alarms {
            match &a.scope {
                AlarmScope::Rule(r) => assert!(r.degree() >= 1),
                other => panic!("unexpected scope {other:?}"),
            }
            assert_eq!(a.detector, DetectorKind::Kl);
        }
    }

    #[test]
    fn alarm_windows_are_one_bin_wide() {
        let (alarms, _) = run(Tuning::Sensitive, flood());
        let d = KlDetector::new(Tuning::Sensitive);
        for a in &alarms {
            assert!(a.window.len_us() <= d.bin_us);
        }
    }

    #[test]
    fn last_bin_alarm_ends_at_the_window_end() {
        // 62 s over 5 s bins: the last bin, [55 s, 60 s), also holds
        // the 2 s tail of the window.
        let mut trace = TraceGenerator::new(
            SynthConfig::default()
                .with_seed(407)
                .with_duration(62)
                .with_anomalies(vec![]),
        )
        .generate()
        .trace;
        let window = trace.meta.window();
        let (src, dst) = (Ipv4Addr::new(10, 9, 9, 9), Ipv4Addr::new(192, 168, 7, 7));
        // A flood from 55 s to the window's last microsecond.
        let flood: Vec<u64> = (window.start_us + 55_000_000..window.end_us)
            .step_by(2_500)
            .chain([window.end_us - 1])
            .collect();
        trace.packets.extend(
            flood
                .iter()
                .map(|&ts| mawilab_model::Packet::udp(ts, src, 5000, dst, 9999, 400)),
        );
        let trace = mawilab_model::Trace::new(trace.meta, trace.packets);
        let flows = FlowTable::build(&trace.packets);
        let alarms = KlDetector::new(Tuning::Sensitive).analyze(&TraceView::new(&trace, &flows));
        let flood_alarms: Vec<&Alarm> = alarms
            .iter()
            .filter(|a| matches!(&a.scope, AlarmScope::Rule(r) if r.dst == Some(dst)))
            .collect();
        assert!(!flood_alarms.is_empty(), "flood missed: {alarms:#?}");
        for a in flood_alarms {
            assert_eq!(a.window.start_us, window.start_us + 55_000_000);
            assert_eq!(a.window.end_us, window.end_us);
            assert!(flood.iter().all(|&ts| a.window.contains(ts)));
        }
    }

    #[test]
    fn no_duplicate_rules_per_bin() {
        let (alarms, _) = run(Tuning::Sensitive, flood());
        let mut seen = FastSet::default();
        for a in &alarms {
            if let AlarmScope::Rule(r) = &a.scope {
                assert!(seen.insert((a.window.start_us, *r)), "duplicate rule alarm");
            }
        }
    }

    #[test]
    fn sensitive_detects_at_least_conservative() {
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
    fn quiet_trace_produces_few_alarms() {
        let cfg = SynthConfig::default().with_seed(9).with_anomalies(vec![]);
        let (alarms, _) = run(Tuning::Conservative, cfg);
        assert!(
            alarms.len() <= 8,
            "{} alarms on pure background",
            alarms.len()
        );
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
        let alarms = KlDetector::new(Tuning::Sensitive).analyze(&TraceView::new(&lt.trace, &flows));
        assert!(alarms.is_empty());
    }
}
