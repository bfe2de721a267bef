//! Hough detector against a brute-force sparse reference.
//!
//! `tests/family_observe.rs` compares the shared Hough accumulator
//! with the batch adapter, which runs the same accumulator, so it
//! cannot catch a fault in the accumulator itself. This test keeps an
//! independent, deliberately naive copy of the algorithm: each picture
//! is a map pixel → (packet count, set of contributing flow keys), the
//! row median sorts the non-zero counts, and every candidate line
//! recomputes ρ over all active pixels. Alarms of all three tunings
//! must be identical to the detector's solo `finish` of each tuning,
//! to one `finish_tunings(&Tuning::ALL)` call (the call the
//! production drain makes, which shares the ρ table, the votes and
//! the log pass between tunings), and to a call with a repeated,
//! out-of-order tuning list, over:
//!
//! - synthetic days with a worm, a port scan and a flood, one of them
//!   61 s long (the time bin is not a whole number of microseconds);
//! - chunkings of 5 s, the whole trace, and 0.3 s (so a Hough time
//!   bin spans several chunks and a (bin, flow) pair recurs);
//! - packets out of time order inside a chunk;
//! - packets stamped before and after the capture window.

use mawilab::detectors::{
    Alarm, AlarmScope, ChunkView, Detector, DetectorKind, HoughDetector, IncrementalDetector,
    Tuning,
};
use mawilab::model::{FlowKey, Packet, TimeWindow, Trace, TraceMeta};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};
use std::collections::{HashMap, HashSet};

const TIME_BINS: usize = 120;
const Y_BINS: usize = 1024;
const N_ANGLES: usize = 24;
const RHO_BINS: usize = 256;

/// `(pixel_min, min_line_pixels, max_lines)` of a tuning.
fn thresholds(tuning: Tuning) -> (u32, usize, usize) {
    match tuning {
        Tuning::Conservative => (4, 40, 10),
        Tuning::Optimal => (3, 26, 18),
        Tuning::Sensitive => (2, 14, 28),
    }
}

type Cells = HashMap<(u16, u16), (u32, HashSet<FlowKey>)>;

/// The two sparse pictures of a packet set (order-insensitive).
fn pictures(window: TimeWindow, packets: &[Packet]) -> [Cells; 2] {
    let bin_us = (window.len_us() / TIME_BINS as u64).max(1);
    let mut out = [Cells::new(), Cells::new()];
    for p in packets {
        let x = ((p.ts_us.saturating_sub(window.start_us) / bin_us) as usize).min(TIME_BINS - 1);
        let ys = [
            (p.dport as usize * Y_BINS) >> 16,
            (u32::from(p.dst).wrapping_mul(2_654_435_761) as usize) % Y_BINS,
        ];
        for (cells, y) in out.iter_mut().zip(ys) {
            let cell = cells.entry((x as u16, y as u16)).or_default();
            cell.0 += 1;
            cell.1.insert(FlowKey::of(p));
        }
    }
    out
}

/// Lines of one sparse picture.
fn reference_picture(tuning: Tuning, window: TimeWindow, cells: &Cells, out: &mut Vec<Alarm>) {
    let (pixel_min, min_line_pixels, max_lines) = thresholds(tuning);
    let bin_us = (window.len_us() / TIME_BINS as u64).max(1);
    let mut rows: HashMap<u16, Vec<u32>> = HashMap::new();
    for (&(_, y), (c, _)) in cells {
        rows.entry(y).or_default().push(*c);
    }
    let mut median: HashMap<u16, u32> = HashMap::new();
    for (y, mut counts) in rows {
        let zeros = TIME_BINS - counts.len();
        let mid = TIME_BINS / 2;
        counts.sort_unstable();
        median.insert(y, if zeros > mid { 0 } else { counts[mid - zeros] });
    }
    let mut pixels: Vec<((u16, u16), &HashSet<FlowKey>)> = cells
        .iter()
        .filter(|(&(_, y), (c, _))| c.saturating_sub(median[&y]) >= pixel_min)
        .map(|(k, (_, flows))| (*k, flows))
        .collect();
    pixels.sort_by_key(|(k, _)| *k);
    if pixels.len() < min_line_pixels {
        return;
    }
    let rho_step = (1.0 + std::f64::consts::SQRT_2) / RHO_BINS as f64;
    let rho_bin = |(x, y): (u16, u16), ai: usize| {
        let th = std::f64::consts::PI * ai as f64 / N_ANGLES as f64;
        let xn = (x as f64 + 0.5) / TIME_BINS as f64;
        let yn = (y as f64 + 0.5) / Y_BINS as f64;
        let rho = xn * th.cos() + yn * th.sin();
        ((((rho + 1.0) / rho_step) as usize).min(RHO_BINS - 1)) as u16
    };
    let mut acc: HashMap<(u16, u16), u32> = HashMap::new();
    for &(px, _) in &pixels {
        for ai in 0..N_ANGLES {
            *acc.entry((ai as u16, rho_bin(px, ai))).or_insert(0) += 1;
        }
    }
    let mut peaks: Vec<((u16, u16), u32)> = acc
        .into_iter()
        .filter(|&(_, v)| v as usize >= min_line_pixels)
        .collect();
    peaks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut taken: Vec<(u16, u16)> = Vec::new();
    let mut used: HashSet<(u16, u16)> = HashSet::new();
    for ((ai, ri), votes) in peaks {
        if taken.len() >= max_lines {
            break;
        }
        if taken
            .iter()
            .any(|&(a, r)| a.abs_diff(ai) <= 1 && r.abs_diff(ri) <= 2)
        {
            continue;
        }
        let mut flows: HashSet<FlowKey> = HashSet::new();
        let (mut x_min, mut x_max, mut fresh) = (u16::MAX, 0u16, 0usize);
        for &(px, set) in &pixels {
            if rho_bin(px, ai as usize) == ri {
                flows.extend(set.iter().copied());
                x_min = x_min.min(px.0);
                x_max = x_max.max(px.0);
                fresh += used.insert(px) as usize;
            }
        }
        if fresh * 2 < min_line_pixels {
            continue;
        }
        taken.push((ai, ri));
        let mut keys: Vec<FlowKey> = flows.into_iter().collect();
        keys.sort();
        keys.truncate(5_000);
        // The last time bin also holds the window's tail.
        let end = if x_max as usize == TIME_BINS - 1 {
            window.end_us
        } else {
            (window.start_us + (x_max as u64 + 1) * bin_us).min(window.end_us)
        };
        out.push(Alarm {
            detector: DetectorKind::Hough,
            tuning,
            window: TimeWindow::new(window.start_us + x_min as u64 * bin_us, end),
            scope: AlarmScope::FlowSet(keys),
            score: votes as f64 / min_line_pixels as f64,
        });
    }
}

fn reference(tuning: Tuning, meta: &TraceMeta, packets: &[Packet]) -> Vec<Alarm> {
    let mut out = Vec::new();
    if packets.is_empty() {
        return out;
    }
    for cells in &pictures(meta.window(), packets) {
        reference_picture(tuning, meta.window(), cells, &mut out);
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
    let mut inc = HoughDetector::new(tuning).incremental();
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
    for (tuning, want) in Tuning::ALL.iter().zip(&want) {
        assert!(
            !want.is_empty(),
            "{tuning:?}: no alarm, comparison is vacuous"
        );
    }
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
fn worm_day_matches_reference() {
    assert_matches_reference(&day(
        303,
        60,
        AnomalySpec::SasserWorm {
            infected: 2,
            scans: 1500,
            rate_pps: 60.0,
        },
    ));
}

#[test]
fn port_scan_day_matches_reference() {
    assert_matches_reference(&day(
        304,
        61,
        AnomalySpec::PortScan {
            scanner: 1,
            victim: 3,
            ports: 3000,
            rate_pps: 120.0,
        },
    ));
}

#[test]
fn flood_day_matches_reference() {
    assert_matches_reference(&day(
        305,
        60,
        AnomalySpec::PingFlood {
            src: 2,
            dst: 4,
            rate_pps: 250.0,
            duration_s: 30.0,
        },
    ));
}
