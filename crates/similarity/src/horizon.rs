//! Horizon-scoped traffic extraction: evidence for alarms that don't
//! exist yet.
//!
//! The batch extractors ([`extract_traffic`](crate::extract_traffic))
//! need the alarms *before* they scan the packets. The single-pass
//! pipeline inverts the order: packets stream past **once**, before
//! any alarm is finalized, so the extractor must bank enough evidence
//! per packet to answer "which alarms designate it?" later. The banked record is
//! tiny — `(FlowKey, ts, unit id)` — because every [`AlarmScope`] is
//! a pure function of the 5-tuple ([`AlarmScope::matches_key`]) and
//! alarm time windows only ever test `ts`.
//!
//! The sliding horizon bounds how long *raw per-packet* records live:
//! once the stream's high-water mark passes a chunk's window end by
//! more than `lag_us`, the chunk **retires** into a compact per-flow
//! store (one entry per distinct 5-tuple, holding a deduplicated
//! `(ts, id)` run). Retirement is the single-pass analogue of "the
//! detectors have now seen window W + lag": evidence inside the lag
//! stays chunk-shaped (cheap to drop if a future design finalizes
//! alarms early), evidence past it is folded down. At `lag = 0`
//! everything retires as it arrives; at `lag ≥ stream length` nothing
//! does — both ends produce byte-identical traffic sets, which the
//! equivalence suite pins against the batch oracle
//! ([`extract_traffic_sequential`](crate::extract_traffic_sequential)).
//!
//! [`finalize`](HorizonExtractor::finalize) resolves the finished
//! alarm set against both stores through the inverted
//! [`AlarmIndex`](crate::index): each retired flow resolves its
//! candidate alarms with a handful of hash probes and a time stab —
//! `O(flows)` index probes instead of `O(flows × alarms)` scope
//! tests — then binary-searches its time run per surviving window,
//! while still-fresh chunks are probed record by record, memoized per
//! flow. The union is provably the same set of
//! `(alarm, unit)` hits the seed per-alarm scan would produce.

use crate::index::{AlarmIndex, HitSink, KeyMemo};
use mawilab_detectors::Alarm;
use mawilab_model::{FlowKey, Packet, TimeWindow};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;

/// Retired flows per shard of the finalize fan-out.
const FLOW_SHARD: usize = 1 << 12;

/// One banked packet: everything alarm matching can ever ask about.
#[derive(Debug, Clone, Copy)]
struct RawRecord {
    key: FlowKey,
    ts_us: u64,
    id: u32,
}

/// A not-yet-retired chunk of raw records. Matching only ever tests a
/// record's own timestamp, so the chunk needs no prefilter span.
#[derive(Debug)]
struct RawChunk {
    window: TimeWindow,
    records: Vec<RawRecord>,
}

/// Compact retired evidence of one flow: its `(ts, id)` run in
/// arrival order, exact duplicates collapsed.
#[derive(Debug, Default)]
struct FlowRun {
    hits: Vec<(u64, u32)>,
    /// Arrival order is time order for a well-formed source; a
    /// misbehaving one flips this and the run is sorted at finalize
    /// instead of silently mis-searched.
    sorted: bool,
}

impl FlowRun {
    fn push(&mut self, ts_us: u64, id: u32) {
        if let Some(&(last_ts, last_id)) = self.hits.last() {
            if (last_ts, last_id) == (ts_us, id) {
                return;
            }
            if last_ts > ts_us {
                self.sorted = false;
            }
        }
        self.hits.push((ts_us, id));
    }
}

/// Statistics of one horizon-scoped extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HorizonStats {
    /// Chunks retired into the compact per-flow store during the
    /// drain (their raw records are gone).
    pub retired_chunks: usize,
    /// Chunks still raw at finalize (inside the lag when the stream
    /// ended).
    pub fresh_chunks: usize,
    /// Packet records folded into the compact store.
    pub retired_records: u64,
    /// Packet records still raw at finalize.
    pub fresh_records: u64,
    /// Distinct flows in the compact store.
    pub retired_flows: usize,
}

/// What [`HorizonExtractor::finalize`] produces: the per-alarm traffic
/// sets (same shape as [`extract_traffic`](crate::extract_traffic)'s) plus
/// the set of unit ids that matched ≥ 1 alarm (what deferred
/// packet-granularity evidence is filtered down to).
#[derive(Debug)]
pub struct HorizonTraffic {
    /// One sorted, deduplicated unit-id set per alarm, in alarm order.
    pub traffic: Vec<Vec<u32>>,
    /// Every unit id that matched at least one alarm.
    pub matched: HashSet<u32>,
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
    retired: HashMap<FlowKey, FlowRun>,
    stats: HorizonStats,
}

impl HorizonExtractor {
    /// An empty extractor with the given evidence-retention lag.
    pub fn new(lag_us: u64) -> Self {
        HorizonExtractor {
            lag_us,
            high_water_us: 0,
            fresh: VecDeque::new(),
            retired: HashMap::new(),
            stats: HorizonStats::default(),
        }
    }

    /// Banks one chunk of the drain. `ids[i]` must be the traffic-unit
    /// id of `packets[i]` (incremental `ItemIndex`, stream order).
    pub fn observe(&mut self, chunk_window: TimeWindow, packets: &[Packet], ids: &[u32]) {
        assert_eq!(packets.len(), ids.len(), "one id per packet required");
        let mut records = Vec::with_capacity(packets.len());
        for (p, &id) in packets.iter().zip(ids) {
            records.push(RawRecord {
                key: FlowKey::of(p),
                ts_us: p.ts_us,
                id,
            });
        }
        self.fresh.push_back(RawChunk {
            window: chunk_window,
            records,
        });
        self.high_water_us = self.high_water_us.max(chunk_window.end_us);
        self.retire_sealed();
    }

    /// Folds every fresh chunk whose window end + lag the stream has
    /// passed into the compact per-flow store.
    fn retire_sealed(&mut self) {
        while let Some(front) = self.fresh.front() {
            if front.window.end_us.saturating_add(self.lag_us) > self.high_water_us {
                break;
            }
            let chunk = self.fresh.pop_front().expect("peeked"); // lint:allow(panic-free-data-plane): front() returned Some on this iteration
            self.stats.retired_chunks += 1;
            self.stats.retired_records += chunk.records.len() as u64;
            for r in chunk.records {
                self.retired.entry(r.key).or_default().push(r.ts_us, r.id);
            }
        }
    }

    /// Number of packet records currently held raw (inside the lag).
    pub fn fresh_records(&self) -> u64 {
        self.fresh.iter().map(|c| c.records.len() as u64).sum()
    }

    /// Resolves the finished alarm set against everything banked.
    ///
    /// Matching runs on the inverted [`AlarmIndex`](crate::index):
    /// each retired flow resolves its candidate alarms with a handful
    /// of hash probes (instead of one scope test per alarm), stabs the
    /// candidates with its run span, and binary-searches the run per
    /// surviving window. The retired store is sharded through
    /// `mawilab-exec`; hash-map shard order varies but the final
    /// per-alarm sort + dedup makes the output canonical at any thread
    /// count.
    pub fn finalize(mut self, alarms: &[Alarm]) -> HorizonTraffic {
        self.stats.fresh_chunks = self.fresh.len();
        self.stats.fresh_records = self.fresh_records();
        self.stats.retired_flows = self.retired.len();

        let index = AlarmIndex::new(alarms);

        // Retired store: sort any out-of-order runs, then shard.
        let mut retired: Vec<(FlowKey, FlowRun)> = self.retired.drain().collect();
        for (_, run) in &mut retired {
            if !run.sorted {
                run.hits.sort_unstable();
                run.hits.dedup();
            }
        }
        let shards: Vec<Range<usize>> = (0..retired.len())
            .step_by(FLOW_SHARD)
            .map(|s| s..(s + FLOW_SHARD).min(retired.len()))
            .collect();
        let parts: Vec<HitSink> = mawilab_exec::par_map(&shards, |range| {
            let mut sink = HitSink::new(alarms.len());
            for (key, run) in &retired[range.clone()] {
                let (first_ts, last_ts) = match (run.hits.first(), run.hits.last()) {
                    (Some(&(f, _)), Some(&(l, _))) => (f, l),
                    _ => continue,
                };
                let candidates = index.candidates_for(key);
                candidates.stab_span(first_ts, last_ts, |ai| {
                    let w = &alarms[ai as usize].window;
                    let from = run.hits.partition_point(|&(ts, _)| ts < w.start_us);
                    for &(ts, id) in &run.hits[from..] {
                        if ts >= w.end_us {
                            break;
                        }
                        sink.push(ai, id);
                    }
                });
            }
            sink
        });
        let mut sink = HitSink::new(alarms.len());
        for part in parts {
            sink.absorb(part);
        }

        // Fresh chunks: one probe per record, memoized per flow.
        let mut memo = KeyMemo::default();
        for chunk in &self.fresh {
            for r in &chunk.records {
                let run = memo.run_for(&index, &r.key);
                run.stab(r.ts_us, |ai| sink.push(ai, r.id));
            }
        }

        let traffic = sink.finish();
        let matched: HashSet<u32> = traffic.iter().flatten().copied().collect();
        HorizonTraffic {
            traffic,
            matched,
            stats: self.stats,
        }
    }
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
        // straddles the retired/fresh boundary, exercising both match
        // paths on one alarm.
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
            let union: HashSet<u32> = horizon.traffic.iter().flatten().copied().collect();
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
