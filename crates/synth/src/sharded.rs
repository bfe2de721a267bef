//! Trace generation over counter-derived streams.
//!
//! Generation is split into **independent RNG streams**:
//!
//! * every generation unit (the host population, the day-level
//!   modulation phases, each anomaly spec, each [`GEN_BIN_US`]-wide
//!   background bin) draws from its own counter-derived stream,
//!   seeded as `seed ⊕ day ⊕ stream-counter` (`stream_rng`) with no
//!   sequential RNG dependence between units;
//! * background bins therefore generate independently of each
//!   other's order, and the day is a merge of per-unit parts;
//! * every unit generated in order and merged by one global stable
//!   sort is the reference ([`TraceGenerator::generate_sequential`]),
//!   and [`TraceGenerator::generate`]'s bucketed merge is
//!   **byte-identical** to it (`tests/synth_equivalence.rs`).
//!
//! # The canonical packet order
//!
//! Both engines agree on one total order: concatenate every anomaly's
//! emission (spec order), then every background bin (bin order), and
//! stable-sort by timestamp. Ties therefore break anomalies-first,
//! then by bin, then by emission order — the *canonical sequence
//! number* of a packet. The batch engine realises this order with a
//! bucketed counting sort (one bucket per generation bin, each bucket
//! sorted on its own — bin-sized sorts instead of one over the day),
//! which reduces to the oracle's global stable sort.
//!
//! [`TraceGenerator::generate`]: crate::TraceGenerator::generate
//! [`TraceGenerator::generate_sequential`]: crate::TraceGenerator::generate_sequential

use crate::anomalies::AnomalySpec;
use crate::background::{BackgroundModel, HostModel};
use crate::config::SynthConfig;
use crate::truth::{AnomalyRecord, GroundTruth, LabeledTrace};
use mawilab_model::{chunk_index, LinkEra, Packet, TimeWindow, Trace, TraceMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Width of one generation bin: the unit of background generation and
/// of the merge's buckets. One second gives 60 bins on the default
/// miniature day and keeps per-bin flow spill (flows crossing the
/// boundary) small. The
/// value is part of the corpus definition — changing it reshuffles
/// every generated trace (`crates/synth/tests/golden_corpus.rs` pins
/// this).
pub const GEN_BIN_US: u64 = 1_000_000;

/// Stream counters of the per-unit RNG derivation. Each unit kind
/// lives in its own counter space so streams never collide.
const STREAM_DAY: u64 = 0;
const STREAM_HOSTS: u64 = 1;
const STREAM_ANOMALY: u64 = 2;
const STREAM_BIN: u64 = 3;

/// The counter-derived RNG stream of one generation unit:
/// `seed ⊕ day ⊕ stream ⊕ index`, each component spread by its own
/// odd multiplier and whitened through `seed_from_u64`'s SplitMix64.
/// No stream's state depends on how much another stream consumed —
/// the property that makes bins generable in any order.
fn stream_rng(cfg: &SynthConfig, stream: u64, index: u64) -> StdRng {
    let day = cfg.date.days_since_epoch() as u64;
    StdRng::seed_from_u64(
        cfg.seed
            ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7),
    )
}

/// Everything derivable from the config before any packet exists: the
/// metadata, the host population, the day-level background model and
/// the bin grid. Shared by the bucketed engine and its oracle.
#[derive(Debug)]
struct DayPlan {
    cfg: SynthConfig,
    meta: TraceMeta,
    window: TimeWindow,
    hosts: HostModel,
    background: BackgroundModel,
    n_bins: u64,
}

impl DayPlan {
    fn new(cfg: &SynthConfig) -> DayPlan {
        let meta = TraceMeta {
            date: cfg.date,
            duration_s: cfg.duration_s,
            era: LinkEra::for_date(cfg.date),
            samplepoint: cfg.samplepoint.clone(),
        };
        let window = meta.window();
        let hosts = HostModel::new(cfg, &mut stream_rng(cfg, STREAM_HOSTS, 0));
        let mut day_rng = stream_rng(cfg, STREAM_DAY, 0);
        let phases = (day_rng.random::<f64>(), day_rng.random::<f64>());
        let background = BackgroundModel::new(cfg, window, phases);
        let n_bins = window.len_us().div_ceil(GEN_BIN_US).max(1);
        DayPlan {
            cfg: cfg.clone(),
            meta,
            window,
            hosts,
            background,
            n_bins,
        }
    }

    fn bin_window(&self, b: u64) -> TimeWindow {
        let start = self.window.start_us + b * GEN_BIN_US;
        TimeWindow::new(start, (start + GEN_BIN_US).min(self.window.end_us))
    }

    /// Generates anomaly `i` from its own stream. Independent of every
    /// other unit.
    fn anomaly(&self, i: usize, spec: &AnomalySpec) -> (Vec<(Packet, u32)>, AnomalyRecord) {
        let mut rng = stream_rng(&self.cfg, STREAM_ANOMALY, i as u64);
        let mut out = Vec::new();
        let record = spec.build((i + 1) as u32, self.window, &self.hosts, &mut rng, &mut out);
        (out, record)
    }

    /// Generates background bin `b` from its own stream into `out`.
    fn background_bin(&self, b: u64, out: &mut Vec<(Packet, u32)>) {
        let mut rng = stream_rng(&self.cfg, STREAM_BIN, b);
        self.background
            .generate_bin(&self.hosts, self.bin_window(b), &mut rng, out);
    }

    /// Splits the time-sorted tagged sequence into the final trace +
    /// ground truth.
    fn finish(self, tagged: Vec<(Packet, u32)>, records: Vec<AnomalyRecord>) -> LabeledTrace {
        let mut packets = Vec::with_capacity(tagged.len());
        let mut tags = Vec::with_capacity(tagged.len());
        for (p, t) in tagged {
            packets.push(p);
            tags.push(if t == 0 { None } else { Some(t) });
        }
        debug_assert_eq!(
            tags.iter().filter(|t| t.is_some()).count(),
            records.iter().map(|r| r.packet_count).sum::<usize>(),
        );
        LabeledTrace {
            trace: Trace::new(self.meta, packets),
            truth: GroundTruth::new(tags, records),
        }
    }
}

/// The sequential reference: anomalies in spec order, then background
/// bins strictly in order, one global stable sort. The equivalence
/// oracle the bucketed merge is tested against.
pub(crate) fn generate_sequential(cfg: &SynthConfig) -> LabeledTrace {
    let plan = DayPlan::new(cfg);
    let mut tagged: Vec<(Packet, u32)> = Vec::new();
    let mut records = Vec::new();
    for (i, spec) in cfg.anomalies.iter().enumerate() {
        let (packets, record) = plan.anomaly(i, spec);
        tagged.extend(packets);
        records.push(record);
    }
    for b in 0..plan.n_bins {
        plan.background_bin(b, &mut tagged);
    }
    // Stable: equal timestamps keep the canonical (anomalies, then
    // bin-order) sequence.
    tagged.sort_by_key(|(p, _)| p.ts_us);
    plan.finish(tagged, records)
}

/// The batch engine: anomalies and background bins generate in
/// canonical order, then a bucketed counting sort merges the parts —
/// one bucket per generation bin, each bucket stable-sorted on its
/// own, which equals the oracle's global stable sort because buckets
/// partition the timestamp axis.
pub(crate) fn generate_sharded(cfg: &SynthConfig) -> LabeledTrace {
    let plan = DayPlan::new(cfg);
    let anomaly_parts: Vec<_> = cfg
        .anomalies
        .iter()
        .enumerate()
        .map(|(i, spec)| plan.anomaly(i, spec))
        .collect();
    let bin_parts: Vec<Vec<(Packet, u32)>> = (0..plan.n_bins)
        .map(|b| {
            let mut out = Vec::new();
            plan.background_bin(b, &mut out);
            out
        })
        .collect();

    let mut records = Vec::with_capacity(anomaly_parts.len());
    // Bucket by the generation bin of each *timestamp* (not the bin
    // that generated the packet — spills land in their true bucket).
    let n_buckets = plan.n_bins as usize;
    let bucket_of =
        |p: &Packet| chunk_index(plan.window.start_us, GEN_BIN_US, p.ts_us).min(plan.n_bins - 1);
    let mut counts = vec![0usize; n_buckets];
    for (part, _) in &anomaly_parts {
        for (p, _) in part {
            counts[bucket_of(p) as usize] += 1;
        }
    }
    for part in &bin_parts {
        for (p, _) in part {
            counts[bucket_of(p) as usize] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    let mut buckets: Vec<Vec<(Packet, u32)>> =
        counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    // Scatter in canonical order so each bucket's insertion order is
    // the canonical tie-break order. Emission is locally time-ordered,
    // so consecutive packets usually share a bucket — copy maximal
    // same-bucket runs instead of pushing one element at a time.
    let mut scatter = |part: &[(Packet, u32)]| {
        let mut i = 0;
        while i < part.len() {
            let b = bucket_of(&part[i].0) as usize;
            let mut j = i + 1;
            while j < part.len() && bucket_of(&part[j].0) as usize == b {
                j += 1;
            }
            buckets[b].extend_from_slice(&part[i..j]);
            i = j;
        }
    };
    for (part, record) in &anomaly_parts {
        records.push(record.clone());
        scatter(part);
    }
    for part in &bin_parts {
        scatter(part);
    }
    // Per-bucket stable sorts: ~bin-sized inputs instead of the whole
    // day.
    let mut tagged = Vec::with_capacity(total);
    for mut bucket in buckets {
        bucket.sort_by_key(|(p, _)| p.ts_us);
        tagged.extend(bucket);
    }
    plan.finish(tagged, records)
}
