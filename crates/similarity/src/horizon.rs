//! Horizon-scoped traffic extraction: evidence for alarms that don't
//! exist yet, and the one per-unit resolve every extraction runs.
//!
//! The single-pass pipeline streams the packets past **once**, before
//! any alarm is finalized, so the extractor must bank enough evidence
//! per packet to answer "which alarms designate it?" later. Every
//! [`AlarmScope`](mawilab_detectors::AlarmScope) is a pure function of
//! the 5-tuple ([`AlarmScope::matches_key`](mawilab_detectors::AlarmScope::matches_key))
//! and alarm time windows only ever test `ts`, so the banked record is
//! tiny — `(ts, direction, unit id)`, 12 bytes, the direction in the
//! timestamp word's top bit — and is filed under the unit id the
//! caller already assigned (`ItemIndex`'s dense first-appearance id),
//! so banking hashes nothing. The unit's 5-tuple is kept once, in a
//! table indexed by unit id: the key of its first packet. All packets
//! of one unit share that 5-tuple up to direction; a packet travelling
//! the other way (a biflow reply) sets the record's direction bit. At
//! packet granularity every unit is one record.
//!
//! The sliding horizon only decides how long records stay
//! chunk-shaped: once the stream's high-water mark passes a chunk's
//! window end by more than `lag_us`, the chunk **retires** into the
//! flat record log. At `lag = 0` everything retires as it arrives; at
//! `lag ≥ stream length` nothing does. Either way
//! [`finalize`](HorizonExtractor::finalize) first moves the chunks
//! still inside the lag into the same log, so every record is resolved
//! through one path, and both ends produce byte-identical traffic sets,
//! which the equivalence suite pins against the batch oracle
//! ([`extract_traffic_sequential`](crate::extract_traffic_sequential)).
//!
//! `finalize` counting-sorts the log by unit id (stably, so arrival
//! order survives) into one time run per unit and direction and hands
//! the runs to `resolve_units`. Batch
//! [`extract_traffic`](crate::extract_traffic) builds the same runs
//! from the materialised trace and calls the same function. Each unit
//! resolves once through the inverted alarm index: its key looks up
//! the prebuilt runs of candidate alarms (the reverse direction looks
//! up with the reversed key), each candidate window is stabbed with
//! the unit's time span and confirmed by one binary search into the
//! run — `O(units)` index probes instead of `O(units × alarms)` scope
//! tests. The result is provably the same set of `(alarm, unit)` hits
//! the seed per-alarm scan would produce.

use crate::index::{group_by_bucket, AlarmIndex, HitSink};
use mawilab_detectors::Alarm;
use mawilab_model::{FastSet, FlowKey, Packet, TimeWindow};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::mem::size_of;
use std::ops::Range;

/// Units per shard of the resolve fan-out.
const UNIT_SHARD: usize = 1 << 14;

/// One banked packet: everything alarm matching can ever ask about,
/// given its unit's key. Packed to 12 bytes (4-byte aligned), the
/// horizon's per-packet cost.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Record {
    /// The packet's timestamp (µs), with [`REVERSE`] set when its
    /// 5-tuple is the reverse of its unit's key.
    ts_word: u64,
    unit: u32,
}

/// The direction bit of [`Record::ts_word`]. Timestamps never reach
/// it: a pcap timestamp is at most `u32::MAX` seconds plus
/// `u32::MAX` µs, below 2^53 µs.
const REVERSE: u64 = 1 << 63;

impl Record {
    fn new(ts_us: u64, unit: u32, reverse: bool) -> Self {
        debug_assert!(
            ts_us < REVERSE,
            "timestamp {ts_us} µs reaches the direction bit"
        );
        Record {
            ts_word: ts_us | if reverse { REVERSE } else { 0 },
            unit,
        }
    }

    fn ts_us(self) -> u64 {
        self.ts_word & !REVERSE
    }

    fn reverse(self) -> bool {
        self.ts_word & REVERSE != 0
    }
}

/// A not-yet-retired chunk of records. Matching only ever tests a
/// record's own timestamp, so the chunk needs no prefilter span.
#[derive(Debug)]
struct RawChunk {
    window: TimeWindow,
    records: Vec<Record>,
}

/// Statistics of one horizon-scoped extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HorizonStats {
    /// Chunks retired into the record log during the drain.
    pub retired_chunks: usize,
    /// Chunks still raw at finalize (inside the lag when the stream
    /// ended).
    pub fresh_chunks: usize,
    /// Packet records retired into the log during the drain.
    pub retired_records: u64,
    /// Packet records still raw at finalize.
    pub fresh_records: u64,
    /// Distinct traffic units banked.
    pub units: usize,
}

/// What [`HorizonExtractor::finalize`] produces: the per-alarm traffic
/// sets (same shape as [`extract_traffic`](crate::extract_traffic)'s) plus
/// the set of unit ids that matched ≥ 1 alarm.
#[derive(Debug)]
pub struct HorizonTraffic {
    /// One sorted, deduplicated unit-id set per alarm, in alarm order.
    pub traffic: Vec<Vec<u32>>,
    /// Every unit id that matched at least one alarm. The pipeline
    /// reads no matched set; this one is kept only for perfbench's
    /// traced drain, which hands it to
    /// `CommunityEvidence::retain_matched`.
    pub matched: FastSet<u32>,
    /// Retire/fresh accounting of the drain.
    pub stats: HorizonStats,
}

/// Accumulates alarm-agnostic extraction evidence during the single
/// drain, retiring it past the lag, and resolves the finished alarms
/// against it at end of stream.
#[derive(Debug)]
pub struct HorizonExtractor {
    lag_us: u64,
    high_water_us: u64,
    fresh: VecDeque<RawChunk>,
    /// Retired records in arrival order.
    log: Vec<Record>,
    /// Key of each unit's first packet, indexed by unit id; `None` for
    /// an id not seen yet.
    keys: Vec<Option<FlowKey>>,
    stats: HorizonStats,
}

impl HorizonExtractor {
    /// An empty extractor with the given evidence-retention lag.
    pub fn new(lag_us: u64) -> Self {
        HorizonExtractor {
            lag_us,
            high_water_us: 0,
            fresh: VecDeque::new(),
            log: Vec::new(),
            keys: Vec::new(),
            stats: HorizonStats::default(),
        }
    }

    /// Banks one chunk of the drain. `ids[i]` must be the traffic-unit
    /// id of `packets[i]` (incremental `ItemIndex`, stream order), so
    /// all packets of one id share one 5-tuple up to direction.
    /// Timestamps must stay below 2^63 µs, the record's direction bit
    /// (a pcap timestamp is below 2^53 µs).
    pub fn observe(&mut self, chunk_window: TimeWindow, packets: &[Packet], ids: &[u32]) {
        assert_eq!(packets.len(), ids.len(), "one id per packet required");
        let mut records = Vec::with_capacity(packets.len());
        for (p, &unit) in packets.iter().zip(ids) {
            let key = FlowKey::of(p);
            let slot = unit as usize;
            if slot >= self.keys.len() {
                self.keys.resize(slot + 1, None);
            }
            let reverse = match &self.keys[slot] {
                Some(first) => {
                    debug_assert!(
                        *first == key || first.reversed() == key,
                        "unit {unit} carries two 5-tuples: {first} and {key}"
                    );
                    *first != key
                }
                None => {
                    self.keys[slot] = Some(key);
                    self.stats.units += 1;
                    false
                }
            };
            records.push(Record::new(p.ts_us, unit, reverse));
        }
        self.fresh.push_back(RawChunk {
            window: chunk_window,
            records,
        });
        self.high_water_us = self.high_water_us.max(chunk_window.end_us);
        self.retire_sealed();
    }

    /// Moves every fresh chunk whose window end + lag the stream has
    /// passed into the record log.
    fn retire_sealed(&mut self) {
        while let Some(chunk) = self.fresh.pop_front() {
            if chunk.window.end_us.saturating_add(self.lag_us) > self.high_water_us {
                self.fresh.push_front(chunk);
                break;
            }
            self.stats.retired_chunks += 1;
            self.stats.retired_records += chunk.records.len() as u64;
            self.log.extend_from_slice(&chunk.records);
        }
    }

    /// Number of packet records currently held raw (inside the lag).
    pub fn fresh_records(&self) -> u64 {
        self.fresh.iter().map(|c| c.records.len() as u64).sum()
    }

    /// Bytes the extractor holds: the banked records (logged and
    /// still inside the lag) and the unit key table, each at capacity
    /// times element size. Deterministic for a given stream.
    pub fn heap_bytes(&self) -> usize {
        let records = self.log.capacity()
            + self
                .fresh
                .iter()
                .map(|c| c.records.capacity())
                .sum::<usize>();
        records * size_of::<Record>()
            + self.fresh.capacity() * size_of::<RawChunk>()
            + self.keys.capacity() * size_of::<Option<FlowKey>>()
    }

    /// Resolves the finished alarm set against everything banked: the
    /// log is counting-sorted into one time run per unit and
    /// direction, and every unit resolves once against the alarms'
    /// inverted index. The output is canonical at any thread count.
    pub fn finalize(mut self, alarms: &[Alarm]) -> HorizonTraffic {
        self.stats.fresh_chunks = self.fresh.len();
        self.stats.fresh_records = self.fresh_records();
        for chunk in std::mem::take(&mut self.fresh) {
            self.log.extend_from_slice(&chunk.records);
        }
        let (bounds, ts) = self.unit_runs();
        let keys = &self.keys;
        let (traffic, ids) = resolve_units(alarms, keys.len(), |unit| keys[unit], &bounds, &ts);
        HorizonTraffic {
            traffic,
            matched: ids.into_iter().collect(),
            stats: self.stats,
        }
    }

    /// Counting-sorts the log by `(unit, direction)` into CSR form:
    /// run `b = 2 × unit + reverse` is `ts[bounds[b]..bounds[b + 1]]`,
    /// in arrival order. Consumes the log.
    fn unit_runs(&mut self) -> (Vec<usize>, Vec<u64>) {
        let log = std::mem::take(&mut self.log);
        group_by_bucket(
            log.iter()
                .map(|r| (2 * r.unit as usize + usize::from(r.reverse()), r.ts_us())),
            2 * self.keys.len(),
        )
    }
}

/// Resolves `alarms` against `units` traffic units, each given as two
/// time runs: run `b = 2 × unit + reverse` is
/// `ts[bounds[b]..bounds[b + 1]]` ([`group_by_bucket`] output), and
/// direction 1 holds the packets whose 5-tuple is the reverse of
/// `key_of(unit)` (`None` for an id with no packets). Returns one
/// sorted, deduplicated unit-id set per alarm, in alarm order, and
/// every unit id that matched at least one alarm.
pub(crate) fn resolve_units(
    alarms: &[Alarm],
    units: usize,
    key_of: impl Fn(usize) -> Option<FlowKey> + Sync,
    bounds: &[usize],
    ts: &[u64],
) -> (Vec<Vec<u32>>, Vec<u32>) {
    let index = AlarmIndex::new(alarms);
    let shards: Vec<Range<usize>> = (0..units)
        .step_by(UNIT_SHARD)
        .map(|s| s..(s + UNIT_SHARD).min(units))
        .collect();
    let parts: Vec<(HitSink, Vec<u32>)> = mawilab_exec::par_map(&shards, |range| {
        let mut sink = HitSink::new(alarms.len());
        let mut matched = Vec::new();
        for unit in range.clone() {
            // A unit with empty runs (no packet, or none inside an
            // alarm window) can hit nothing.
            if bounds[2 * unit] == bounds[2 * unit + 2] {
                continue;
            }
            let Some(key) = key_of(unit) else {
                continue;
            };
            let id = unit as u32;
            let mut hit = false;
            for (dir, key) in [(0, key), (1, key.reversed())] {
                let run = &ts[bounds[2 * unit + dir]..bounds[2 * unit + dir + 1]];
                if run.is_empty() {
                    continue;
                }
                let run = if run.is_sorted() {
                    Cow::Borrowed(run)
                } else {
                    let mut sorted = run.to_vec();
                    sorted.sort_unstable();
                    Cow::Owned(sorted)
                };
                index.for_each_run(&key, |alarm_run| {
                    alarm_run.stab_sorted(&run, |ai| {
                        sink.push(ai, id);
                        hit = true;
                    })
                });
            }
            if hit {
                matched.push(id);
            }
        }
        (sink, matched)
    });
    let mut sink = HitSink::new(alarms.len());
    let mut matched = Vec::with_capacity(parts.iter().map(|(_, ids)| ids.len()).sum());
    for (part, ids) in parts {
        sink.absorb(part);
        matched.extend(ids);
    }
    (sink.finish(), matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::extract_traffic_sequential;
    use mawilab_detectors::{AlarmScope, DetectorKind, TraceView, Tuning};
    use mawilab_model::{
        FlowTable, Granularity, ItemIndex, PacketSource, TcpFlags, Trace, TraceChunker, TraceDate,
        TraceMeta, TrafficRule,
    };
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 9, 9, d)
    }

    fn trace() -> Trace {
        let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
        let base = meta.window().start_us;
        let mut packets = Vec::new();
        for i in 0..200u64 {
            let src = ip((i % 7) as u8);
            let dst = ip(100 + (i % 3) as u8);
            packets.push(Packet::tcp(
                base + i * 750_000,
                src,
                1000 + (i % 5) as u16,
                dst,
                if i % 4 == 0 { 80 } else { 445 },
                TcpFlags::syn(),
                60,
            ));
        }
        Trace::new(meta, packets)
    }

    fn alarms(t: &Trace) -> Vec<Alarm> {
        let w = t.meta.window();
        let mk = |scope| Alarm {
            detector: DetectorKind::Pca,
            tuning: Tuning::Optimal,
            window: w,
            scope,
            score: 1.0,
        };
        let mut v = vec![
            mk(AlarmScope::SrcHost(ip(1))),
            mk(AlarmScope::DstHost(ip(101))),
            mk(AlarmScope::Rule(TrafficRule {
                dport: Some(445),
                ..Default::default()
            })),
            mk(AlarmScope::FlowSet(vec![
                FlowKey::of(&t.packets[0]),
                FlowKey::of(&t.packets[3]),
            ])),
        ];
        // A window-restricted alarm: at mid-range lags its window
        // straddles the retire boundary, so its hits come from retired
        // and still-fresh chunks alike.
        v.push(Alarm {
            window: TimeWindow::new(w.start_us + 30_000_000, w.start_us + 90_000_000),
            ..mk(AlarmScope::SrcHost(ip(2)))
        });
        v
    }

    /// Runs the batch oracle over the whole trace and the horizon
    /// extractor over the chunked stream; returns `(oracle, horizon)`.
    fn run_both(
        t: &Trace,
        alarms: &[Alarm],
        g: Granularity,
        bin_us: u64,
        lag_us: u64,
    ) -> (Vec<Vec<u32>>, HorizonTraffic) {
        let flows = FlowTable::build(&t.packets);
        let oracle = extract_traffic_sequential(&TraceView::new(t, &flows), alarms, g);
        let mut index = ItemIndex::new(g);
        let mut horizon = HorizonExtractor::new(lag_us);
        let mut ids = Vec::new();
        let mut source = TraceChunker::new(t.clone(), bin_us);
        while let Some(chunk) = source.next_chunk().unwrap() {
            index.ids_of(&chunk.packets, &mut ids);
            horizon.observe(chunk.window, &chunk.packets, &ids);
        }
        (oracle, horizon.finalize(alarms))
    }

    #[test]
    fn horizon_matches_sequential_extractor_across_lags_and_granularities() {
        let t = trace();
        let alarms = alarms(&t);
        for g in [
            Granularity::Packet,
            Granularity::Uniflow,
            Granularity::Biflow,
        ] {
            for bin_us in [1_000_000u64, 5_000_000, 300_000_000] {
                for lag_us in [0u64, 10_000_000, 86_400_000_000] {
                    let (oracle, horizon) = run_both(&t, &alarms, g, bin_us, lag_us);
                    assert_eq!(
                        horizon.traffic, oracle,
                        "granularity {g}, bin {bin_us}, lag {lag_us}"
                    );
                }
            }
        }
    }

    #[test]
    fn lag_zero_retires_everything_and_huge_lag_retires_nothing() {
        let t = trace();
        let alarms = alarms(&t);
        let (_, eager) = run_both(&t, &alarms, Granularity::Uniflow, 5_000_000, 0);
        assert_eq!(eager.stats.fresh_chunks, 0, "lag 0 must retire every chunk");
        assert!(eager.stats.retired_chunks > 10);
        assert_eq!(eager.stats.retired_records, t.len() as u64);

        let (_, lazy) = run_both(&t, &alarms, Granularity::Uniflow, 5_000_000, u64::MAX / 2);
        assert_eq!(lazy.stats.retired_chunks, 0, "huge lag must retire nothing");
        assert_eq!(lazy.stats.fresh_records, t.len() as u64);
    }

    #[test]
    fn mid_lag_splits_the_stream_and_still_matches() {
        let t = trace();
        let alarms = alarms(&t);
        // 150 s trace, 5 s chunks, 60 s lag: a genuine split, with the
        // window-restricted alarm straddling the retire boundary.
        let (oracle, horizon) = run_both(&t, &alarms, Granularity::Uniflow, 5_000_000, 60_000_000);
        assert!(horizon.stats.retired_chunks > 0, "no chunk retired");
        assert!(horizon.stats.fresh_chunks > 0, "no chunk stayed fresh");
        assert_eq!(horizon.traffic, oracle);
    }

    #[test]
    fn matched_ids_are_exactly_the_union_of_the_traffic_sets() {
        let t = trace();
        let alarms = alarms(&t);
        for lag_us in [0u64, 40_000_000, u64::MAX / 2] {
            let (_, horizon) = run_both(&t, &alarms, Granularity::Packet, 5_000_000, lag_us);
            let union: FastSet<u32> = horizon.traffic.iter().flatten().copied().collect();
            assert_eq!(horizon.matched, union, "lag {lag_us}");
        }
    }

    #[test]
    fn straggler_in_retired_chunk_still_matches_earlier_alarm() {
        // A jittered capture: a 4.9 s packet folded into the [5 s, 10 s) chunk, retired long
        // before finalize, must still be claimed by the [0 s, 5 s)
        // alarm via its own timestamp.
        let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
        let base = meta.window().start_us;
        let straggler = Packet::tcp(
            base + 4_900_000,
            ip(1),
            1000,
            ip(2),
            80,
            TcpFlags::syn(),
            60,
        );
        let filler = Packet::tcp(
            base + 97_000_000,
            ip(3),
            1001,
            ip(4),
            81,
            TcpFlags::syn(),
            60,
        );
        let alarm = Alarm {
            detector: DetectorKind::Kl,
            tuning: Tuning::Optimal,
            window: TimeWindow::new(base, base + 5_000_000),
            scope: AlarmScope::SrcHost(ip(1)),
            score: 1.0,
        };
        let alarms = vec![alarm];
        let mut ex = HorizonExtractor::new(10_000_000);
        ex.observe(
            TimeWindow::new(base + 5_000_000, base + 10_000_000),
            &[straggler],
            &[7],
        );
        // A much later chunk pushes the straggler's chunk past the lag.
        ex.observe(
            TimeWindow::new(base + 95_000_000, base + 100_000_000),
            &[filler],
            &[8],
        );
        let out = ex.finalize(&alarms);
        assert_eq!(out.stats.retired_chunks, 1);
        assert_eq!(out.traffic, vec![vec![7]]);
        assert!(out.matched.contains(&7) && !out.matched.contains(&8));
    }

    #[test]
    fn out_of_order_run_is_sorted_before_it_is_searched() {
        // One flow whose packets arrive at 3 s, 1 s, 2 s across two
        // chunks; the alarm window holds only the 1 s packet.
        let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
        let base = meta.window().start_us;
        let at = |s: u64| {
            Packet::tcp(
                base + s * 1_000_000,
                ip(1),
                1000,
                ip(2),
                80,
                TcpFlags::ack(),
                60,
            )
        };
        let chunks = [
            (TimeWindow::new(base, base + 5_000_000), vec![at(3), at(1)]),
            (
                TimeWindow::new(base + 5_000_000, base + 10_000_000),
                vec![at(2)],
            ),
        ];
        let alarms = vec![Alarm {
            detector: DetectorKind::Kl,
            tuning: Tuning::Optimal,
            window: TimeWindow::new(base + 500_000, base + 1_500_000),
            scope: AlarmScope::SrcHost(ip(1)),
            score: 1.0,
        }];
        for (g, want) in [(Granularity::Uniflow, 0u32), (Granularity::Packet, 1)] {
            for lag_us in [0u64, u64::MAX / 2] {
                let mut index = ItemIndex::new(g);
                let mut ex = HorizonExtractor::new(lag_us);
                let mut ids = Vec::new();
                for (window, packets) in &chunks {
                    index.ids_of(packets, &mut ids);
                    ex.observe(*window, packets, &ids);
                }
                let out = ex.finalize(&alarms);
                assert_eq!(out.traffic, vec![vec![want]], "{g}, lag {lag_us}");
                assert_eq!(out.matched, FastSet::from_iter([want]), "{g}, lag {lag_us}");
            }
        }
    }

    #[test]
    fn biflow_replies_match_through_the_reversed_key() {
        // A conversation whose first packet goes 1 → 2; only the reply
        // (2 → 1) falls in the window of a `SrcHost(2)` alarm. Run once
        // on the archive day and once near the top of the pcap range
        // (`u32::MAX` seconds), where the timestamp word's high bits
        // sit right under the direction bit.
        let day = TraceMeta::standard(TraceDate::new(2004, 6, 2))
            .window()
            .start_us;
        let top = (u64::from(u32::MAX) - 5) * 1_000_000 + 999_999;
        for base in [day, top] {
            let packets = [
                Packet::tcp(base, ip(1), 1000, ip(2), 80, TcpFlags::syn(), 60),
                Packet::tcp(
                    base + 2_000_000,
                    ip(2),
                    80,
                    ip(1),
                    1000,
                    TcpFlags::syn_ack(),
                    60,
                ),
            ];
            let mk = |scope, start_s: u64, end_s: u64| Alarm {
                detector: DetectorKind::Kl,
                tuning: Tuning::Optimal,
                window: TimeWindow::new(base + start_s * 1_000_000, base + end_s * 1_000_000),
                scope,
                score: 1.0,
            };
            let alarms = vec![
                mk(AlarmScope::SrcHost(ip(2)), 1, 3),
                mk(AlarmScope::SrcHost(ip(2)), 0, 1),
                mk(AlarmScope::DstHost(ip(2)), 0, 3),
                mk(AlarmScope::DstHost(ip(1)), 1, 3),
            ];
            let mut ex = HorizonExtractor::new(0);
            ex.observe(TimeWindow::new(base, base + 5_000_000), &packets, &[0, 0]);
            let reply = ex.log[1];
            assert!(reply.reverse() && !ex.log[0].reverse(), "base {base}");
            assert_eq!(reply.ts_us(), base + 2_000_000);
            let out = ex.finalize(&alarms);
            assert_eq!(
                out.traffic,
                vec![vec![0], vec![], vec![0], vec![0]],
                "base {base}"
            );
            assert_eq!(out.stats.units, 1);
        }
    }

    #[test]
    fn records_are_twelve_bytes_and_keep_the_whole_unit_range() {
        assert_eq!(size_of::<Record>(), 12);
        let ts = u64::from(u32::MAX) * 1_000_000 + 999_999;
        for (unit, reverse) in [(u32::MAX, true), (u32::MAX, false), (0, true)] {
            let r = Record::new(ts, unit, reverse);
            assert_eq!((r.ts_us(), { r.unit }, r.reverse()), (ts, unit, reverse));
        }
    }

    #[test]
    fn no_alarms_and_no_packets_are_handled() {
        let out = HorizonExtractor::new(0).finalize(&[]);
        assert!(out.traffic.is_empty());
        assert!(out.matched.is_empty());

        let t = trace();
        let alarms = alarms(&t);
        let out = HorizonExtractor::new(0).finalize(&alarms);
        assert_eq!(out.traffic.len(), alarms.len());
        assert!(out.traffic.iter().all(|s| s.is_empty()));
    }
}
