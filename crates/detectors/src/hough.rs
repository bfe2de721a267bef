//! Hough-transform detector: line detection in 2-D traffic pictures.
//!
//! Reproduces detector 3 of the paper (§3.2, after Fontugne & Fukuda
//! \[14\]): traffic is rendered as two scatter pictures — (time ×
//! destination port) and (time × hashed destination address) — in
//! which anomalies appear as *lines*: a SYN flood or heavy transfer is
//! a horizontal line (one port / one host, long duration), a port
//! scan sweeps ports and a worm sweeps addresses, drawing slanted or
//! vertical streaks. The Hough transform votes every active pixel
//! onto the (ρ, θ) parameter plane; accumulator peaks are detected
//! lines, and the alarm is the **set of flows** whose packets drew the
//! line's pixels — the aggregated-flow granularity the paper ascribes
//! to this detector.
//!
//! Each picture is a dense `time_bins × y_bins` plane of packet
//! counts. The flows behind a pixel are not stored per pixel: in both
//! pictures y is a function of the flow key (the destination-port
//! bucket, the hashed destination address), so one log of distinct
//! (time bin, flow key) pairs serves both pictures. Each pair is
//! packed into one `u128` whose integer order is the pair's tuple
//! order (`pack`), so the per-chunk dedup and the per-line flow
//! gather sort plain integers; only the capped, sorted flow set of
//! an alarm is unpacked back into [`FlowKey`]s. `finish` chooses the
//! lines from the count planes alone, then gathers the flows of every
//! accepted line in one pass over the log. The per-row baselines do
//! not depend on the tuning, so one `finish_tunings` call computes
//! them, and each pixel's excess over its baseline, once for all the
//! tunings it finishes; each tuning only cuts at its `pixel_min`.

use crate::alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
use crate::{ChunkView, Detector, IncrementalDetector, ObservationKey};
use mawilab_model::{FlowKey, Protocol, TimeWindow, TraceMeta};

/// Most flow keys one alarm reports: the smallest, in key order.
const MAX_ALARM_FLOWS: usize = 5_000;

/// `(pixel_min, min_line_pixels, max_lines)` of a tuning.
const fn thresholds(tuning: Tuning) -> (u32, usize, usize) {
    match tuning {
        Tuning::Conservative => (4, 40, 10),
        Tuning::Optimal => (3, 26, 18),
        Tuning::Sensitive => (2, 14, 28),
    }
}

// The accepted lines of a picture are the bits of a per-pixel `u32`.
const _: () = {
    let mut i = 0;
    while i < Tuning::ALL.len() {
        assert!(thresholds(Tuning::ALL[i]).2 <= u32::BITS as usize);
        i += 1;
    }
};

/// Bit offset of the time bin in a packed (time bin, flow key) pair;
/// the flow key fills the 112 bits below it.
const X_SHIFT: u32 = 112;

/// The flow-key bits of a packed pair.
const KEY_MASK: u128 = (1 << X_SHIFT) - 1;

/// Packs `(x, key)` into one integer whose order equals the derived
/// order of the tuple `(x, key)`: from the top, 16 bits of time bin,
/// then the key's fields in declaration order (32-bit source and
/// destination, 16-bit source and destination port) and the rank of
/// its protocol in `Protocol`'s variant order (9 bits used of 16).
fn pack(x: u16, key: &FlowKey) -> u128 {
    let rank = match key.proto {
        Protocol::Tcp => 0,
        Protocol::Udp => 1,
        Protocol::Icmp => 2,
        Protocol::Other(n) => 3 + n as u128,
    };
    (x as u128) << X_SHIFT
        | (u32::from(key.src) as u128) << 80
        | (u32::from(key.dst) as u128) << 48
        | (key.sport as u128) << 32
        | (key.dport as u128) << 16
        | rank
}

/// The time bin of a packed pair.
fn unpack_x(packed: u128) -> u16 {
    (packed >> X_SHIFT) as u16
}

/// The flow key of a packed pair (its time bin is ignored).
fn unpack_key(packed: u128) -> FlowKey {
    FlowKey {
        src: ((packed >> 80) as u32).into(),
        dst: ((packed >> 48) as u32).into(),
        sport: (packed >> 32) as u16,
        dport: (packed >> 16) as u16,
        proto: match packed as u16 {
            0 => Protocol::Tcp,
            1 => Protocol::Udp,
            2 => Protocol::Icmp,
            rank => Protocol::Other((rank - 3) as u8),
        },
    }
}

/// Which picture a pixel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Picture {
    /// y = destination port (bucketed).
    Port,
    /// y = destination address (hashed).
    Addr,
}

/// The two pictures, in alarm order.
const PICTURES: [Picture; 2] = [Picture::Port, Picture::Addr];

impl Picture {
    /// Row of a flow's packets in this picture, read from a packed
    /// (time bin, flow key) pair.
    fn y(self, packed: u128, y_bins: usize) -> usize {
        match self {
            Picture::Port => ((packed >> 16) as u16 as usize * y_bins) >> 16, // port/64
            Picture::Addr => ((packed >> 48) as u32).wrapping_mul(2_654_435_761) as usize % y_bins,
        }
    }
}

/// An accepted line of one picture.
#[derive(Debug)]
struct Line {
    /// Accumulator votes of its (θ, ρ) cell.
    votes: u32,
    /// First time bin of its pixels.
    x_min: u16,
    /// Last time bin of its pixels.
    x_max: u16,
    /// Its pixels, `(x, y)`, in (x, y) order.
    pixels: Vec<(u16, u16)>,
}

/// The Hough-transform line detector (one configuration).
#[derive(Debug, Clone)]
pub struct HoughDetector {
    tuning: Tuning,
    /// Picture width (time bins).
    time_bins: usize,
    /// Picture height.
    y_bins: usize,
    /// Packets needed to activate a pixel.
    pixel_min: u32,
    /// Accumulator votes needed to accept a line.
    min_line_pixels: usize,
    /// Maximum lines reported per picture.
    max_lines: usize,
    /// Angular resolution of the accumulator.
    n_angles: usize,
    /// ρ resolution of the accumulator.
    rho_bins: usize,
}

impl HoughDetector {
    /// Builds the detector with one of the paper's three tunings.
    pub fn new(tuning: Tuning) -> Self {
        let (pixel_min, min_line_pixels, max_lines) = thresholds(tuning);
        HoughDetector {
            tuning,
            time_bins: 120,
            y_bins: 1024,
            pixel_min,
            min_line_pixels,
            max_lines,
            n_angles: 24,
            rho_bins: 256,
        }
    }

    /// Time bin of a timestamp; stamps outside the window clamp into
    /// the first or last bin.
    fn time_bin(&self, window_start_us: u64, bin_us: u64, ts_us: u64) -> u16 {
        ((ts_us.saturating_sub(window_start_us) / bin_us) as usize).min(self.time_bins - 1) as u16
    }

    /// Index of pixel `(x, y)` in a count plane.
    fn cell(&self, x: usize, y: usize) -> usize {
        x * self.y_bins + y
    }

    /// Per-row (y) baselines of one picture: the median count across
    /// all time bins of the row, zeros included. A pixel is
    /// *anomalous* only when it exceeds its baseline by `pixel_min`
    /// ([`active_pixels`](Self::active_pixels)) — constant service
    /// rows (port 80 HTTP, popular hosts) have a high baseline and
    /// stop producing always-on false lines, while transient
    /// floods/scans rise far above their row's median.
    fn row_medians(&self, plane: &[u32]) -> Vec<u32> {
        let mid = self.time_bins / 2;
        let mut busy = vec![0usize; self.y_bins];
        for row in plane.chunks_exact(self.y_bins) {
            for (n, &c) in busy.iter_mut().zip(row) {
                *n += (c > 0) as usize;
            }
        }
        let mut column = vec![0u32; self.time_bins];
        (0..self.y_bins)
            .map(|y| {
                // More than half the row's bins are empty: the median is 0.
                if self.time_bins - busy[y] > mid {
                    return 0;
                }
                for (x, c) in column.iter_mut().enumerate() {
                    *c = plane[self.cell(x, y)];
                }
                *column.select_nth_unstable(mid).1
            })
            .collect()
    }

    /// The pixels of one picture at least `floor` above their row's
    /// baseline, each with its excess over the baseline, in (x, y)
    /// order. Nothing here reads a tuning but `floor`, so one call
    /// with the lowest `pixel_min` serves every tuning's
    /// [`active_pixels`](Self::active_pixels).
    fn rising_pixels(&self, plane: &[u32], floor: u32) -> Vec<((u16, u16), u32)> {
        let medians = self.row_medians(plane);
        let mut pixels = Vec::new();
        for (x, row) in plane.chunks_exact(self.y_bins).enumerate() {
            for (y, (&c, &median)) in row.iter().zip(&medians).enumerate() {
                let excess = c.saturating_sub(median);
                if excess >= floor {
                    pixels.push(((x as u16, y as u16), excess));
                }
            }
        }
        pixels
    }

    /// Active pixels — at least `pixel_min` above their row's
    /// baseline — of a picture's [`rising_pixels`](Self::rising_pixels)
    /// (taken with a floor of at most `pixel_min`), in (x, y) order.
    fn active_pixels(&self, rising: &[((u16, u16), u32)]) -> Vec<(u16, u16)> {
        rising
            .iter()
            .filter(|&&(_, excess)| excess >= self.pixel_min)
            .map(|&(px, _)| px)
            .collect()
    }

    /// The lines of one picture, from its active pixels alone.
    fn choose_lines(&self, pixels: &[(u16, u16)]) -> Vec<Line> {
        if pixels.len() < self.min_line_pixels {
            return Vec::new();
        }
        // Hough accumulation in normalised [0,1]² coordinates.
        // ρ ∈ [-1, √2] for θ ∈ [0, π).
        let rho_min = -1.0f64;
        let rho_span = 1.0 + std::f64::consts::SQRT_2;
        let rho_step = rho_span / self.rho_bins as f64;
        let angles: Vec<(f64, f64)> = (0..self.n_angles)
            .map(|i| {
                let th = std::f64::consts::PI * i as f64 / self.n_angles as f64;
                (th.cos(), th.sin())
            })
            .collect();
        // Normalised pixel centres, per column and per row.
        let xn: Vec<f64> = (0..self.time_bins)
            .map(|x| (x as f64 + 0.5) / self.time_bins as f64)
            .collect();
        let yn: Vec<f64> = (0..self.y_bins)
            .map(|y| (y as f64 + 0.5) / self.y_bins as f64)
            .collect();
        // The ρ bin of every (angle, pixel), angle-major, computed
        // once: the votes and every candidate line read the same bins.
        // Per angle, the x and y terms are tabulated first; their sum
        // is the same `xn * cos + yn * sin` a pixel would compute.
        let mut xc = vec![0.0; self.time_bins];
        let mut ys = vec![0.0; self.y_bins];
        let mut rho_of: Vec<u16> = Vec::with_capacity(self.n_angles * pixels.len());
        for &(c, s) in &angles {
            for (t, &v) in xc.iter_mut().zip(&xn) {
                *t = v * c;
            }
            for (t, &v) in ys.iter_mut().zip(&yn) {
                *t = v * s;
            }
            rho_of.extend(pixels.iter().map(|&(x, y)| {
                let rho = xc[x as usize] + ys[y as usize];
                (((rho - rho_min) / rho_step) as usize).min(self.rho_bins - 1) as u16
            }));
        }
        let mut votes = vec![0u32; self.n_angles * self.rho_bins];
        for (ai, bins) in rho_of.chunks_exact(pixels.len()).enumerate() {
            for &ri in bins {
                votes[ai * self.rho_bins + ri as usize] += 1;
            }
        }

        // Peak extraction with simple non-maximum suppression: votes
        // descending, then (θ, ρ) key.
        let mut peaks: Vec<usize> = (0..votes.len())
            .filter(|&k| votes[k] as usize >= self.min_line_pixels)
            .collect();
        peaks.sort_by(|&a, &b| votes[b].cmp(&votes[a]).then(a.cmp(&b)));
        let mut taken: Vec<(usize, usize)> = Vec::new();
        let mut used = vec![false; pixels.len()];
        let mut lines = Vec::new();
        for k in peaks {
            if lines.len() >= self.max_lines {
                break;
            }
            let (ai, ri) = (k / self.rho_bins, k % self.rho_bins);
            if taken
                .iter()
                .any(|&(a, r)| a.abs_diff(ai) <= 1 && r.abs_diff(ri) <= 2)
            {
                continue;
            }
            // Gather this line's pixels. Every candidate claims its
            // pixels, accepted or not.
            let mut on_line = Vec::new();
            let mut fresh = 0usize;
            let bins = &rho_of[ai * pixels.len()..][..pixels.len()];
            for ((&r, &px), used) in bins.iter().zip(pixels).zip(&mut used) {
                if r as usize == ri {
                    on_line.push(px);
                    fresh += !std::mem::replace(used, true) as usize;
                }
            }
            // Require the line to be mostly new pixels; otherwise it is
            // a re-description of an already-reported line.
            if fresh * 2 < self.min_line_pixels {
                continue;
            }
            taken.push((ai, ri));
            lines.push(Line {
                votes: votes[k],
                x_min: on_line.first().map_or(0, |p| p.0),
                x_max: on_line.last().map_or(0, |p| p.0),
                pixels: on_line,
            });
        }
        lines
    }

    /// The flow keys of every line of both pictures — sorted, distinct
    /// and capped at [`MAX_ALARM_FLOWS`] — from one pass over the
    /// packed (time bin, flow key) log.
    fn line_flows(&self, lines: &[Vec<Line>; 2], log: &[u128]) -> [Vec<Vec<FlowKey>>; 2] {
        if lines.iter().all(Vec::is_empty) {
            return [Vec::new(), Vec::new()];
        }
        let mut flows: [Vec<Vec<u128>>; 2] =
            lines.each_ref().map(|lines| vec![Vec::new(); lines.len()]);
        // Per pixel, one bit per accepted line holding it.
        let masks = lines.each_ref().map(|lines| {
            let mut mask = vec![0u32; self.time_bins * self.y_bins];
            for (i, line) in lines.iter().enumerate() {
                for &(x, y) in &line.pixels {
                    mask[self.cell(x as usize, y as usize)] |= 1 << i;
                }
            }
            mask
        });
        for &packed in log {
            let x = unpack_x(packed) as usize;
            for ((mask, picture), flows) in masks.iter().zip(PICTURES).zip(&mut flows) {
                let mut bits = mask[self.cell(x, picture.y(packed, self.y_bins))];
                while bits != 0 {
                    flows[bits.trailing_zeros() as usize].push(packed & KEY_MASK);
                    bits &= bits - 1;
                }
            }
        }
        flows.map(|flows| {
            flows
                .into_iter()
                .map(|mut keys| {
                    keys.sort_unstable();
                    keys.dedup();
                    keys.truncate(MAX_ALARM_FLOWS);
                    keys.into_iter().map(unpack_key).collect()
                })
                .collect()
        })
    }

    /// The alarm of one line. The last time bin also holds the
    /// window's tail past `time_bins · bin_us`, so a line reaching it
    /// ends at the window's end.
    fn alarm(&self, window: TimeWindow, bin_us: u64, line: &Line, keys: Vec<FlowKey>) -> Alarm {
        let end = if line.x_max as usize + 1 == self.time_bins {
            window.end_us
        } else {
            (window.start_us + (line.x_max as u64 + 1) * bin_us).min(window.end_us)
        };
        Alarm {
            detector: DetectorKind::Hough,
            tuning: self.tuning,
            window: TimeWindow::new(window.start_us + line.x_min as u64 * bin_us, end),
            scope: AlarmScope::FlowSet(keys),
            score: line.votes as f64 / self.min_line_pixels as f64,
        }
    }
}

impl Detector for HoughDetector {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Hough
    }

    fn tuning(&self) -> Tuning {
        self.tuning
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        Box::new(HoughAccumulator {
            det: self.clone(),
            window: None,
            bin_us: 1,
            seen: 0,
            planes: [Vec::new(), Vec::new()],
            log: Vec::new(),
            scratch: Vec::new(),
        })
    }

    fn observation_key(&self) -> Option<ObservationKey> {
        Some(ObservationKey::new(
            DetectorKind::Hough,
            &[self.time_bins as u64, self.y_bins as u64],
        ))
    }
}

/// Incremental form of [`HoughDetector`]: chunk observation counts
/// packets into the two dense pictures (one `time_bins × y_bins`
/// plane each, keyed by absolute time bin) and appends the chunk's
/// distinct (time bin, flow key) pairs to a log both pictures share.
/// Each pair is one `pack`ed `u128` (16 bytes, as the tuple was), so
/// the chunk's dedup is an integer sort. The per-row baselines, the
/// Hough transform, peak extraction and flow gathering run at finish:
/// the baselines once per [`finish_tunings`] call, the rest per
/// tuning.
///
/// [`finish_tunings`]: IncrementalDetector::finish_tunings
pub struct HoughAccumulator {
    det: HoughDetector,
    window: Option<TimeWindow>,
    bin_us: u64,
    seen: u64,
    /// Packet counts per picture (in [`PICTURES`] order), indexed by
    /// [`HoughDetector::cell`].
    planes: [Vec<u32>; 2],
    /// (time bin, flow key) pairs, [`pack`]ed, distinct within a
    /// chunk; a pair whose time bin spans several chunks recurs.
    log: Vec<u128>,
    /// The current chunk's packed pairs, before sort and dedup.
    scratch: Vec<u128>,
}

impl IncrementalDetector for HoughAccumulator {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Hough
    }

    fn tuning(&self) -> Tuning {
        self.det.tuning
    }

    fn begin(&mut self, meta: &TraceMeta) {
        let window = meta.window();
        self.window = Some(window);
        self.bin_us = (window.len_us() / self.det.time_bins as u64).max(1);
        self.seen = 0;
        for plane in &mut self.planes {
            plane.clear();
            plane.resize(self.det.time_bins * self.det.y_bins, 0);
        }
        self.log.clear();
    }

    fn observe(&mut self, chunk: &ChunkView<'_>) {
        let window = self.window.expect("observe before begin"); // lint:allow(panic-free-data-plane): begin() runs before observe() in the chunk driver
        self.seen += chunk.packets.len() as u64;
        let det = &self.det;
        self.scratch.clear();
        for p in chunk.packets {
            let x = det.time_bin(window.start_us, self.bin_us, p.ts_us);
            let packed = pack(x, &FlowKey::of(p));
            for (plane, picture) in self.planes.iter_mut().zip(PICTURES) {
                plane[det.cell(x as usize, picture.y(packed, det.y_bins))] += 1;
            }
            self.scratch.push(packed);
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.log.extend_from_slice(&self.scratch);
    }

    fn finish(&mut self) -> Vec<Alarm> {
        self.finish_tunings(&[self.det.tuning])
            .pop()
            .unwrap_or_default()
    }

    /// Computes both pictures' row baselines and rising pixels once;
    /// each tuning makes its own `pixel_min` cut, lines and flow
    /// gather.
    fn finish_tunings(&self, tunings: &[Tuning]) -> Vec<Vec<Alarm>> {
        let Some(floor) = tunings.iter().map(|&t| thresholds(t).0).min() else {
            return Vec::new();
        };
        if self.seen == 0 {
            return vec![Vec::new(); tunings.len()];
        }
        let window = self.window.expect("finish before begin"); // lint:allow(panic-free-data-plane): begin() runs before finish() in the chunk driver
        let rising = self
            .planes
            .each_ref()
            .map(|plane| self.det.rising_pixels(plane, floor));
        tunings
            .iter()
            .map(|&t| {
                let det = HoughDetector::new(t);
                let lines = rising
                    .each_ref()
                    .map(|rising| det.choose_lines(&det.active_pixels(rising)));
                let flows = det.line_flows(&lines, &self.log);
                lines
                    .iter()
                    .zip(flows)
                    .flat_map(|(lines, flows)| lines.iter().zip(flows))
                    .map(|(line, keys)| det.alarm(window, self.bin_us, line, keys))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceView;
    use mawilab_model::{FlowTable, Packet, Protocol, Trace, TraceDate};
    use mawilab_synth::{AnomalySpec, SynthConfig, TraceGenerator};
    use std::net::Ipv4Addr;

    fn run(tuning: Tuning, cfg: SynthConfig) -> (Vec<Alarm>, mawilab_synth::LabeledTrace) {
        let lt = TraceGenerator::new(cfg).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms = HoughDetector::new(tuning).analyze(&TraceView::new(&lt.trace, &flows));
        (alarms, lt)
    }

    fn worm() -> SynthConfig {
        SynthConfig::default()
            .with_seed(303)
            .with_anomalies(vec![AnomalySpec::SasserWorm {
                infected: 2,
                scans: 1500,
                rate_pps: 60.0,
            }])
    }

    #[test]
    fn detects_worm_sweep_as_flow_set() {
        let (alarms, lt) = run(Tuning::Sensitive, worm());
        assert!(!alarms.is_empty());
        let infected = lt.truth.anomalies()[0].rule.src.unwrap();
        // Some alarm's flow set must contain flows from the worm.
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::FlowSet(keys) => {
                keys.iter()
                    .filter(|k| k.src == infected && k.dport == 445)
                    .count()
                    > 20
            }
            _ => false,
        });
        assert!(
            hit,
            "no alarm captured the 445 sweep; {} alarms",
            alarms.len()
        );
    }

    #[test]
    fn detects_port_scan_line() {
        let cfg =
            SynthConfig::default()
                .with_seed(304)
                .with_anomalies(vec![AnomalySpec::PortScan {
                    scanner: 1,
                    victim: 3,
                    ports: 3000,
                    rate_pps: 120.0,
                }]);
        let (alarms, lt) = run(Tuning::Sensitive, cfg);
        let scanner = lt.truth.anomalies()[0].rule.src.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::FlowSet(keys) => keys.iter().filter(|k| k.src == scanner).count() > 50,
            _ => false,
        });
        assert!(hit, "scan not captured; {} alarms", alarms.len());
    }

    #[test]
    fn flood_appears_as_horizontal_line() {
        let cfg =
            SynthConfig::default()
                .with_seed(305)
                .with_anomalies(vec![AnomalySpec::PingFlood {
                    src: 2,
                    dst: 4,
                    rate_pps: 250.0,
                    duration_s: 30.0,
                }]);
        let (alarms, lt) = run(Tuning::Optimal, cfg);
        let src = lt.truth.anomalies()[0].rule.src.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::FlowSet(keys) => keys
                .iter()
                .any(|k| k.src == src && k.proto == Protocol::Icmp),
            _ => false,
        });
        assert!(hit, "flood line missed");
    }

    #[test]
    fn all_alarms_are_flow_sets_with_nonempty_keys() {
        let (alarms, _) = run(Tuning::Sensitive, worm());
        for a in &alarms {
            match &a.scope {
                AlarmScope::FlowSet(keys) => assert!(!keys.is_empty()),
                other => panic!("unexpected scope {other:?}"),
            }
            assert_eq!(a.detector, DetectorKind::Hough);
        }
    }

    #[test]
    fn sensitive_finds_at_least_conservative() {
        let (sens, _) = run(Tuning::Sensitive, worm());
        let (cons, _) = run(Tuning::Conservative, worm());
        assert!(sens.len() >= cons.len());
    }

    #[test]
    fn line_count_is_capped() {
        let d = HoughDetector::new(Tuning::Sensitive);
        let (alarms, _) = run(Tuning::Sensitive, SynthConfig::default().with_seed(306));
        assert!(alarms.len() <= 2 * d.max_lines, "{} alarms", alarms.len());
    }

    #[test]
    fn deterministic() {
        let (a, _) = run(Tuning::Optimal, worm());
        let (b, _) = run(Tuning::Optimal, worm());
        assert_eq!(a, b);
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
            HoughDetector::new(Tuning::Sensitive).analyze(&TraceView::new(&lt.trace, &flows));
        assert!(alarms.is_empty());
    }

    /// Metadata of a 60 s day: 500 ms time bins.
    fn minute() -> TraceMeta {
        TraceMeta {
            duration_s: 60,
            ..TraceMeta::standard(TraceDate::new(2004, 6, 2))
        }
    }

    /// Packet `n` of a hand-drawn port picture, in pixel `(x, y)` of
    /// a [`minute`] day. Source and destination are unique to `n`, so
    /// every packet is its own flow and the address picture stays
    /// sparse.
    fn drawn(x: u64, y: u16, n: u32) -> Packet {
        Packet::udp(
            minute().window().start_us + x * 500_000 + 1,
            Ipv4Addr::from(0x0a00_0000 + n),
            1000,
            Ipv4Addr::from(0xc0a8_0000 + n),
            y * 64,
            100,
        )
    }

    fn finish(tuning: Tuning, meta: &TraceMeta, packets: &[Packet]) -> Vec<Alarm> {
        let mut inc = HoughDetector::new(tuning).incremental();
        inc.begin(meta);
        inc.observe(&ChunkView {
            meta,
            window: meta.window(),
            packets,
        });
        inc.finish()
    }

    fn flow_set(a: &Alarm) -> &[FlowKey] {
        match &a.scope {
            AlarmScope::FlowSet(keys) => keys,
            other => panic!("unexpected scope {other:?}"),
        }
    }

    #[test]
    fn packed_pairs_round_trip_in_tuple_order() {
        let protos = [
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Icmp,
            Protocol::Other(0),
            Protocol::Other(1),
            Protocol::Other(6),
            Protocol::Other(17),
            Protocol::Other(255),
        ];
        let addrs = [0, 1, 0x8000_0000, u32::MAX].map(Ipv4Addr::from);
        let ports = [0, 1, 0x8000, u16::MAX];
        let mut pairs = Vec::new();
        for x in [0, 1, 119, u16::MAX] {
            for (&src, &dst) in addrs.iter().flat_map(|a| addrs.iter().map(move |b| (a, b))) {
                for (&sport, &dport) in ports.iter().flat_map(|a| ports.iter().map(move |b| (a, b)))
                {
                    for &proto in &protos {
                        let key = FlowKey {
                            src,
                            dst,
                            sport,
                            dport,
                            proto,
                        };
                        pairs.push((x, key));
                    }
                }
            }
        }
        pairs.sort_unstable();
        for &(x, key) in &pairs {
            let packed = pack(x, &key);
            assert_eq!((unpack_x(packed), unpack_key(packed)), (x, key));
            assert_eq!(unpack_key(packed & KEY_MASK), key);
        }
        // Strictly increasing along the sorted tuples: the packed
        // order is the tuple order.
        for w in pairs.windows(2) {
            assert!(pack(w[0].0, &w[0].1) < pack(w[1].0, &w[1].1), "{w:?}");
        }
    }

    #[test]
    fn row_median_counts_empty_bins() {
        let d = HoughDetector::new(Tuning::Sensitive);
        let mut plane = vec![0u32; d.time_bins * d.y_bins];
        // Row 10: exactly time_bins / 2 empty bins, so the median is
        // the row's count and no pixel rises above it.
        for x in 0..d.time_bins / 2 {
            plane[d.cell(x, 10)] = d.pixel_min;
        }
        // Row 20: one more empty bin, so the median is 0 and every
        // drawn pixel is active.
        for x in 0..d.time_bins / 2 - 1 {
            plane[d.cell(x, 20)] = d.pixel_min;
        }
        let active = d.active_pixels(&d.rising_pixels(&plane, d.pixel_min));
        let want: Vec<(u16, u16)> = (0..d.time_bins as u16 / 2 - 1).map(|x| (x, 20)).collect();
        assert_eq!(active, want);
    }

    #[test]
    fn pixel_on_two_lines_gives_its_flows_to_both() {
        // A horizontal port line (row 120, bins 30..80) crossing a
        // vertical one (bin 60, rows 100..150) at pixel (60, 120).
        let mut pixels: Vec<(u64, u16)> = (30..80).map(|x| (x, 120)).collect();
        pixels.extend((100..150).map(|y| (60, y)));
        let packets: Vec<Packet> = pixels
            .iter()
            .flat_map(|&px| [px, px])
            .enumerate()
            .map(|(n, (x, y))| drawn(x, y, n as u32))
            .collect();
        let alarms = finish(Tuning::Sensitive, &minute(), &packets);
        let crossing: Vec<FlowKey> = packets
            .iter()
            .filter(|p| p.ts_us == drawn(60, 120, 0).ts_us && p.dport == 120 * 64)
            .map(FlowKey::of)
            .collect();
        assert_eq!(crossing.len(), 4);
        for key in &crossing {
            let holders = alarms.iter().filter(|a| flow_set(a).contains(key)).count();
            assert_eq!(holders, 2, "{alarms:#?}");
        }
    }

    #[test]
    fn rejected_candidate_still_claims_its_pixels() {
        let d = HoughDetector::new(Tuning::Sensitive);
        // A: a horizontal band (9 rows in one ρ bin at θ = π/2, 20
        // time bins wide), accepted first.
        let mut pixels: Vec<(u16, u16)> = (0..20)
            .flat_map(|x| (300..309).map(move |y| (x, y)))
            .collect();
        // B: time bin 10 (a ρ bin of its own at θ = 0) — A's 9
        // pixels there plus 6 fresh ones in rows 600..606. 15 votes
        // but only 6 fresh: rejected, yet it claims rows 600..606.
        pixels.extend((600..606).map(|y| (10, y)));
        // A2: time bin 40, 25 pixels, 5 of them in rows 600..605;
        // accepted second.
        pixels.extend((600..605).chain(800..820).map(|y| (40, y)));
        // C: the band of rows 598..608 at θ = π/2 holds A2's 5
        // pixels, B's 6 and 3 more in time bin 70 — 14 votes, but
        // only those 3 are fresh once B has claimed its pixels.
        pixels.extend((600..603).map(|y| (70, y)));
        pixels.sort_unstable();
        let lines = d.choose_lines(&pixels);
        let sizes: Vec<usize> = lines.iter().map(|l| l.pixels.len()).collect();
        assert_eq!(sizes, [180, 25], "{lines:#?}");
    }

    #[test]
    fn alarm_keeps_the_smallest_5000_flows() {
        // A horizontal port line over bins 10..50 drawn by 5,200
        // single-packet flows, 130 per pixel.
        let packets: Vec<Packet> = (0..5_200u32)
            .map(|n| drawn(10 + (n % 40) as u64, 200, n))
            .collect();
        let alarms = finish(Tuning::Sensitive, &minute(), &packets);
        let mut keys: Vec<FlowKey> = packets.iter().map(FlowKey::of).collect();
        keys.sort();
        keys.truncate(MAX_ALARM_FLOWS);
        assert_eq!(alarms.len(), 1, "{} alarms", alarms.len());
        assert_eq!(flow_set(&alarms[0]), keys.as_slice());
    }

    #[test]
    fn line_reaching_the_last_bin_ends_at_the_window_end() {
        // 61 s over 120 bins: 508,333 µs bins, and the last bin also
        // holds the window's 40 µs tail.
        let lt = TraceGenerator::new(
            SynthConfig::default()
                .with_seed(307)
                .with_duration(61)
                .with_anomalies(vec![]),
        )
        .generate();
        let window = lt.trace.meta.window();
        let (src, dst) = (Ipv4Addr::new(10, 9, 9, 9), Ipv4Addr::new(192, 168, 7, 7));
        // A ping flood from 40 s to the window's last microsecond.
        let flood: Vec<u64> = (window.start_us + 40_000_000..window.end_us)
            .step_by(4_000)
            .chain([window.end_us - 30, window.end_us - 1])
            .collect();
        let mut packets = lt.trace.packets;
        packets.extend(flood.iter().map(|&ts| Packet::icmp(ts, src, dst, 8, 0, 64)));
        let trace = Trace::new(lt.trace.meta, packets);
        let flows = FlowTable::build(&trace.packets);
        let alarms = HoughDetector::new(Tuning::Optimal).analyze(&TraceView::new(&trace, &flows));
        let key = FlowKey::of(&Packet::icmp(0, src, dst, 8, 0, 64));
        // The flood's horizontal line: the longest alarm holding it.
        let line = alarms
            .iter()
            .filter(|a| flow_set(a).contains(&key))
            .max_by_key(|a| a.window.len_us())
            .expect("flood missed");
        assert_eq!(line.window.end_us, window.end_us);
        assert!(flood.iter().all(|&ts| line.window.contains(ts)));
    }
}
