//! Trace generation over counter-derived streams, batch and
//! chunk-native.
//!
//! Generation is split into **independent RNG streams**:
//!
//! * every generation unit (the host population, the day-level
//!   modulation phases, each anomaly spec, each [`GEN_BIN_US`]-wide
//!   background bin) draws from its own counter-derived stream,
//!   seeded as `seed ⊕ day ⊕ stream-counter` (`stream_rng`) with no
//!   sequential RNG dependence between units;
//! * background bins therefore generate in any order — all at once
//!   for [`TraceGenerator::generate`], or lazily, bin by bin, for the
//!   chunk-native [`SynthSource`] that feeds the streaming pipeline
//!   without ever materialising the day;
//! * every unit generated in order and merged by one global stable
//!   sort is the reference ([`TraceGenerator::generate_sequential`]),
//!   and both other paths are **byte-identical** to it
//!   (`tests/synth_equivalence.rs`).
//!
//! # The canonical packet order
//!
//! All paths agree on one total order: concatenate every anomaly's
//! emission (spec order), then every background bin (bin order), and
//! stable-sort by timestamp. Ties therefore break anomalies-first,
//! then by bin, then by emission order — the *canonical sequence
//! number* of a packet. The batch engine realises this order with a
//! bucketed counting sort (one bucket per generation bin, each bucket
//! sorted on its own — bin-sized sorts instead of one over the day);
//! the streaming source realises it with a `(timestamp, sequence)`
//! min-heap over flow spills. Both reduce to the same stable sort.
//!
//! [`TraceGenerator::generate`]: crate::TraceGenerator::generate
//! [`TraceGenerator::generate_sequential`]: crate::TraceGenerator::generate_sequential

use crate::anomalies::AnomalySpec;
use crate::background::{BackgroundModel, HostModel};
use crate::config::SynthConfig;
use crate::truth::{AnomalyRecord, GroundTruth, LabeledTrace};
use mawilab_model::{
    chunk_index, chunk_window, LinkEra, Packet, PacketChunk, PacketSource, SourceError,
    TaggedChunk, TaggedSource, TimeWindow, Trace, TraceMeta,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Width of one generation bin: the unit of background sharding. One
/// second gives a 60-bin fan-out on the default miniature day and
/// keeps per-bin flow spill (flows crossing the boundary) small. The
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
/// the bin grid. Shared by the batch engines and the streaming source.
#[derive(Debug, Clone)]
pub(crate) struct DayPlan {
    cfg: SynthConfig,
    meta: TraceMeta,
    window: TimeWindow,
    hosts: HostModel,
    background: BackgroundModel,
    n_bins: u64,
}

impl DayPlan {
    pub(crate) fn new(cfg: &SynthConfig) -> DayPlan {
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

    fn bin_start(&self, b: u64) -> u64 {
        self.window.start_us + b * GEN_BIN_US
    }

    fn bin_window(&self, b: u64) -> TimeWindow {
        let start = self.bin_start(b);
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
/// oracle the bucketed merge and the streaming source are tested
/// against.
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

/// One spilled (or anomaly) packet waiting for its emission chunk,
/// ordered by `(timestamp, canonical sequence)`.
#[derive(Debug, Clone)]
struct Queued {
    ts: u64,
    seq: u64,
    packet: Packet,
    tag: u32,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.ts, self.seq) == (other.ts, other.seq)
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

/// Chunk-native [`PacketSource`] over the counter-derived streams: emits a
/// synthetic day directly as time-binned [`PacketChunk`]s without ever
/// materialising the trace.
///
/// Anomalies are day-spanning, so their packets (a small fraction of
/// the day) are generated up front; background — the bulk — is
/// generated lazily, one [`GEN_BIN_US`] bin at a time, with flows
/// crossing a bin boundary parked in a spill heap until their chunk
/// comes up. Peak live packets ≈ one generation bin + active spills +
/// the anomaly buffer, not the day.
///
/// The chunk concatenation is byte-identical to
/// [`TraceGenerator::generate`](crate::TraceGenerator::generate) at
/// any chunk width (`tests/synth_equivalence.rs`). Rewinding
/// regenerates — the streams are counter-derived, so replay is exact.
#[derive(Debug, Clone)]
pub struct SynthSource {
    plan: DayPlan,
    bin_us: u64,
    /// Anomaly packets sorted by `(ts, seq)`; `seq` is the canonical
    /// emission index, which orders anomalies before all background.
    anomalies: Vec<Queued>,
    records: Vec<AnomalyRecord>,
    a_pos: usize,
    next_bin: u64,
    next_seq: u64,
    pending: BinaryHeap<Reverse<Queued>>,
    buf: PacketChunk,
    buf_tags: Vec<Option<u32>>,
}

impl SynthSource {
    pub(crate) fn new(cfg: &SynthConfig, bin_us: u64) -> SynthSource {
        assert!(bin_us > 0, "chunk bin width must be positive");
        let plan = DayPlan::new(cfg);
        let mut anomalies = Vec::new();
        let mut records = Vec::new();
        for (i, spec) in cfg.anomalies.iter().enumerate() {
            let (packets, record) = plan.anomaly(i, spec);
            anomalies.extend(packets);
            records.push(record);
        }
        let mut anomalies: Vec<Queued> = anomalies
            .into_iter()
            .enumerate()
            .map(|(seq, (packet, tag))| Queued {
                ts: packet.ts_us,
                seq: seq as u64,
                packet,
                tag,
            })
            .collect();
        anomalies.sort_by_key(|q| (q.ts, q.seq));
        let first_bin_seq = anomalies.len() as u64;
        SynthSource {
            plan,
            bin_us,
            anomalies,
            records,
            a_pos: 0,
            next_bin: 0,
            next_seq: first_bin_seq,
            pending: BinaryHeap::new(),
            buf: PacketChunk::default(),
            buf_tags: Vec::new(),
        }
    }

    /// Ground-truth records of the day's injected anomalies (known
    /// before a single chunk is emitted).
    pub fn records(&self) -> &[AnomalyRecord] {
        &self.records
    }

    /// Per-packet anomaly tags of the most recently emitted chunk,
    /// aligned with its `packets` (`None` = background). The streaming
    /// counterpart of [`GroundTruth::tags`].
    pub fn chunk_tags(&self) -> &[Option<u32>] {
        &self.buf_tags
    }

    /// Drains the rest of the stream and returns the day's ground
    /// truth (tags in emission order + anomaly records). Call on a
    /// fresh or rewound source; rewind again afterwards to replay the
    /// packets.
    pub fn drain_truth(&mut self) -> Result<GroundTruth, SourceError> {
        let mut tags = Vec::new();
        while self.next_chunk()?.is_some() {
            tags.extend_from_slice(&self.buf_tags);
        }
        Ok(GroundTruth::new(tags, self.records.clone()))
    }

    /// Generates the next background bin into the spill heap.
    fn generate_next_bin(&mut self) {
        let mut out = Vec::new();
        self.plan.background_bin(self.next_bin, &mut out);
        for (packet, tag) in out {
            self.pending.push(Reverse(Queued {
                ts: packet.ts_us,
                seq: self.next_seq,
                packet,
                tag,
            }));
            self.next_seq += 1;
        }
        self.next_bin += 1;
    }
}

impl PacketSource for SynthSource {
    fn meta(&self) -> &TraceMeta {
        &self.plan.meta
    }

    fn bin_us(&self) -> u64 {
        self.bin_us
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        let w0 = self.plan.window.start_us;
        loop {
            let a_ts = self.anomalies.get(self.a_pos).map(|q| q.ts);
            let p_ts = self.pending.peek().map(|q| q.0.ts);
            let earliest = match (a_ts, p_ts) {
                (Some(a), Some(p)) => a.min(p),
                (Some(a), None) => a,
                (None, Some(p)) => p,
                (None, None) => {
                    if self.next_bin >= self.plan.n_bins {
                        return Ok(None);
                    }
                    self.generate_next_bin();
                    continue;
                }
            };
            // An ungenerated bin can only emit timestamps at or after
            // its start; pull bins in until none could preempt the
            // current minimum.
            if self.next_bin < self.plan.n_bins && self.plan.bin_start(self.next_bin) < earliest {
                self.generate_next_bin();
                continue;
            }
            // Emit the chunk holding `earliest`. Every generation bin
            // starting before the chunk end may still contribute.
            let k = chunk_index(w0, self.bin_us, earliest);
            let window = chunk_window(w0, self.bin_us, k);
            while self.next_bin < self.plan.n_bins
                && self.plan.bin_start(self.next_bin) < window.end_us
            {
                self.generate_next_bin();
            }
            self.buf.window = window;
            self.buf.packets.clear();
            self.buf_tags.clear();
            // Two-way merge of the anomaly run and the spill heap by
            // (ts, seq) — the canonical order. Both runs are already
            // (ts, seq)-sorted; only entries inside the chunk window
            // participate.
            loop {
                let a_key = self
                    .anomalies
                    .get(self.a_pos)
                    .filter(|q| q.ts < window.end_us)
                    .map(|q| (q.ts, q.seq));
                let p_key = self
                    .pending
                    .peek()
                    .filter(|q| q.0.ts < window.end_us)
                    .map(|q| (q.0.ts, q.0.seq));
                let from_anomalies = match (a_key, p_key) {
                    (Some(a), Some(p)) => a < p,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let q = if from_anomalies {
                    let q = self.anomalies[self.a_pos].clone();
                    self.a_pos += 1;
                    q
                } else {
                    self.pending.pop().expect("peeked").0
                };
                self.buf.packets.push(q.packet);
                self.buf_tags.push((q.tag != 0).then_some(q.tag));
            }
            if self.buf.packets.is_empty() {
                // Empty time bin (possible when all of a bin's flows
                // spilled elsewhere): skip it, like `TraceChunker`.
                continue;
            }
            return Ok(Some(&self.buf));
        }
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.a_pos = 0;
        self.next_bin = 0;
        self.next_seq = self.anomalies.len() as u64;
        self.pending.clear();
        self.buf = PacketChunk::default();
        self.buf_tags.clear();
        Ok(())
    }
}

impl TaggedSource for SynthSource {
    fn next_chunk_tagged(&mut self) -> Result<Option<TaggedChunk<'_>>, SourceError> {
        if self.next_chunk()?.is_none() {
            return Ok(None);
        }
        Ok(Some((&self.buf, &self.buf_tags)))
    }
}
