//! KL detector against a brute-force per-tuning reference.
//!
//! `tests/family_observe.rs` compares the shared KL accumulator with
//! the batch adapter, which runs the same accumulator, so it cannot
//! catch a fault in the accumulator or in the work its
//! `finish_tunings` shares between tunings. This test keeps an
//! independent, deliberately naive copy of the algorithm, run once
//! per tuning: the packets are split into their time bins, each
//! bin's four feature histograms are rebuilt from its packets, the
//! divergence series and its median and MAD are recomputed for every
//! tuning, and the suspicious packets of a spike are taken straight
//! from the bin's packets before mining. Alarms must be identical to
//! the detector's solo `finish` of each tuning, to one
//! `finish_tunings(&Tuning::ALL)` call, and to a call with a
//! repeated, out-of-order tuning list, over:
//!
//! - synthetic days with a flood, a worm and a port scan, one of them
//!   61 s long (its last bin also holds the window's tail);
//! - chunkings of 5 s (one KL bin each), the whole trace, and 0.3 s
//!   (so a bin spans several chunks);
//! - packets out of time order inside a chunk;
//! - packets stamped before and after the capture window.

use mawilab::detectors::{
    Alarm, AlarmScope, ChunkView, Detector, DetectorKind, IncrementalDetector, KlDetector, Tuning,
};
use mawilab::mining::{mine_rules, Transaction};
use mawilab::model::{Packet, TimeWindow, Trace, TraceMeta, TrafficRule};
use mawilab::stats::{kl_contributions, kl_divergence_counts, mad, median, Histogram};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};
use std::collections::HashSet;

const BIN_US: u64 = 5_000_000;
const HIST_BINS: usize = 128;
const PSEUDO: f64 = 0.5;
const MIN_SUPPORT: f64 = 0.2;
const SERVICE_PORTS: [u16; 9] = [80, 8080, 443, 53, 25, 22, 21, 20, 123];

/// `(lambda, top_cells)` of a tuning.
fn thresholds(tuning: Tuning) -> (f64, usize) {
    match tuning {
        Tuning::Conservative => (3.5, 2),
        Tuning::Optimal => (2.5, 3),
        Tuning::Sensitive => (1.8, 4),
    }
}

/// The four features' histogram keys of a packet: addresses raw,
/// ports tagged into disjoint bit ranges.
fn feature_keys(p: &Packet) -> [u64; 4] {
    [
        u32::from(p.src) as u64,
        u32::from(p.dst) as u64,
        p.sport as u64 | 1 << 40,
        p.dport as u64 | 1 << 41,
    ]
}

fn reference(tuning: Tuning, meta: &TraceMeta, packets: &[Packet]) -> Vec<Alarm> {
    let (lambda, top_cells) = thresholds(tuning);
    let window = meta.window();
    let t_bins = (window.len_us() / BIN_US) as usize;
    let mut out = Vec::new();
    if t_bins < 3 || packets.is_empty() {
        return out;
    }
    let mut bins: Vec<Vec<&Packet>> = vec![Vec::new(); t_bins];
    for p in packets {
        let t = ((p.ts_us.saturating_sub(window.start_us) / BIN_US) as usize).min(t_bins - 1);
        bins[t].push(p);
    }
    let mut seen: HashSet<(usize, TrafficRule)> = HashSet::new();
    for f in 0..4 {
        let hists: Vec<Histogram> = bins
            .iter()
            .map(|bin| {
                let mut h = Histogram::new(HIST_BINS);
                for p in bin {
                    h.add(feature_keys(p)[f]);
                }
                h
            })
            .collect();
        let series: Vec<f64> = (1..t_bins)
            .map(|t| kl_divergence_counts(hists[t].counts(), hists[t - 1].counts(), PSEUDO))
            .collect();
        let spread = mad(&series);
        if spread < 1e-12 {
            continue;
        }
        let thr = median(&series) + lambda * spread;
        for t in 1..t_bins {
            let d = series[t - 1];
            if d <= thr {
                continue;
            }
            let mut contrib: Vec<(usize, f64)> =
                kl_contributions(hists[t].counts(), hists[t - 1].counts(), PSEUDO)
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, v)| v > 0.0)
                    .collect();
            contrib.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let top: Vec<usize> = contrib.iter().take(top_cells).map(|&(c, _)| c).collect();
            let suspicious: Vec<Transaction> = bins[t]
                .iter()
                .filter(|p| top.contains(&hists[t].bin_of(feature_keys(p)[f])))
                .map(|p| Transaction::of_packet(p))
                .collect();
            if suspicious.len() < 5 {
                continue;
            }
            let end = if t + 1 == t_bins {
                window.end_us
            } else {
                (window.start_us + (t as u64 + 1) * BIN_US).min(window.end_us)
            };
            for (rule, _) in mine_rules(&suspicious, MIN_SUPPORT).rules {
                let bare_service_port = rule.degree() == 1
                    && matches!(rule.sport.or(rule.dport), Some(p) if SERVICE_PORTS.contains(&p));
                if rule.degree() == 0 || bare_service_port || !seen.insert((t, rule)) {
                    continue;
                }
                out.push(Alarm {
                    detector: DetectorKind::Kl,
                    tuning,
                    window: TimeWindow::new(window.start_us + t as u64 * BIN_US, end),
                    scope: AlarmScope::Rule(rule),
                    score: d / (thr + 1e-12),
                });
            }
        }
    }
    out
}

/// An accumulator of `tuning` fed `packets` cut into `width_us` chunks
/// by timestamp (stamps outside the window fall into the first or last
/// chunk), each chunk's packets reversed when `reverse` is set.
fn observed(
    tuning: Tuning,
    meta: &TraceMeta,
    packets: &[Packet],
    width_us: u64,
    reverse: bool,
) -> Box<dyn IncrementalDetector> {
    let window = meta.window();
    let mut chunks: Vec<Vec<Packet>> = Vec::new();
    for p in packets {
        let i = (p.ts_us.saturating_sub(window.start_us) / width_us) as usize;
        if chunks.len() <= i {
            chunks.resize(i + 1, Vec::new());
        }
        chunks[i].push(*p);
    }
    let mut inc = KlDetector::new(tuning).incremental();
    inc.begin(meta);
    for mut chunk in chunks {
        if reverse {
            chunk.reverse();
        }
        inc.observe(&ChunkView {
            meta,
            window,
            packets: &chunk,
        });
    }
    inc
}

fn day(seed: u64, duration_s: u32, anomaly: AnomalySpec) -> Trace {
    let mut trace = TraceGenerator::new(
        SynthConfig::default()
            .with_seed(seed)
            .with_duration(duration_s)
            .with_anomalies(vec![anomaly]),
    )
    .generate()
    .trace;
    // Stray stamps: before the window, and at and past its end.
    let window = trace.meta.window();
    let mut strays: Vec<Packet> = trace.packets.iter().step_by(97).copied().collect();
    for (i, p) in strays.iter_mut().enumerate() {
        p.ts_us = match i % 3 {
            0 => window.start_us - 1 - i as u64,
            1 => window.end_us + i as u64,
            _ => window.end_us - 1,
        };
    }
    trace.packets.extend(strays);
    trace
}

fn assert_matches_reference(trace: &Trace) {
    use Tuning::{Conservative, Optimal, Sensitive};
    let meta = &trace.meta;
    let want = Tuning::ALL.map(|t| reference(t, meta, &trace.packets));
    assert!(
        want.iter().all(|w| !w.is_empty()),
        "a tuning raised no alarm, comparison is vacuous: {:?}",
        want.each_ref().map(Vec::len)
    );
    for (width_us, reverse) in [
        (5_000_000, false),
        (u64::MAX, false),
        (300_000, false),
        (300_000, true),
        (5_000_000, true),
    ] {
        let case = format!("{width_us} µs chunks, reversed {reverse}");
        for tuning in Tuning::ALL {
            let got = observed(tuning, meta, &trace.packets, width_us, reverse).finish();
            let want = &want[tuning.index()];
            assert!(
                got == *want,
                "{tuning:?} solo, {case}: {} alarms, reference {}",
                got.len(),
                want.len()
            );
        }
        let shared = observed(Optimal, meta, &trace.packets, width_us, reverse);
        let lists: [&[Tuning]; 2] = [
            &Tuning::ALL,
            &[Sensitive, Conservative, Sensitive, Sensitive, Optimal],
        ];
        for tunings in lists {
            let got = shared.finish_tunings(tunings);
            assert_eq!(got.len(), tunings.len(), "{tunings:?}, {case}");
            for (tuning, got) in tunings.iter().zip(&got) {
                let want = &want[tuning.index()];
                assert!(
                    got == want,
                    "{tuning:?} in {tunings:?}, {case}: {} alarms, reference {}",
                    got.len(),
                    want.len()
                );
            }
        }
    }
}

#[test]
fn flood_day_matches_reference() {
    assert_matches_reference(&day(
        406,
        60,
        AnomalySpec::SynFlood {
            victim: 60,
            dport: 80,
            rate_pps: 350.0,
            duration_s: 12.0,
            spoofed: true,
        },
    ));
}

#[test]
fn worm_day_matches_reference() {
    assert_matches_reference(&day(
        405,
        61,
        AnomalySpec::SasserWorm {
            infected: 1,
            scans: 1500,
            rate_pps: 120.0,
        },
    ));
}

#[test]
fn port_scan_day_matches_reference() {
    assert_matches_reference(&day(
        404,
        60,
        AnomalySpec::PortScan {
            scanner: 1,
            victim: 3,
            ports: 3000,
            rate_pps: 300.0,
        },
    ));
}
