//! Kernel equivalence: traffic extraction against its retained seed
//! oracle, swept across thread counts.
//!
//! Batch `extract_traffic` and the single-pass `HorizonExtractor`
//! share one resolve engine, the per-unit resolve over the inverted
//! `AlarmIndex`; they differ only in how they build each unit's time
//! runs. Their agreement with each other therefore checks the run
//! building, not the resolve. The independent check is the seed
//! per-alarm scan `extract_traffic_sequential`, which both must match.
//!
//! Every comparison here demands *byte identity*, and the
//! comparisons sweep `MAWILAB_THREADS` ∈ {1, 2, 4, 13} to pin the
//! canonical-output claim: shard boundaries and hash-map iteration
//! order must never leak into results.
//!
//! Tests mutating `MAWILAB_THREADS` share `ENV_LOCK` (the variable is
//! process-wide).

use mawilab::detectors::{Alarm, AlarmScope, DetectorKind, TraceView, Tuning};
use mawilab::model::{
    FlowKey, FlowTable, Granularity, ItemIndex, NoRewindSource, Packet, PacketSource, Protocol,
    TcpFlags, Trace, TraceChunker, TraceDate, TraceMeta, TrafficRule,
};
use mawilab::similarity::{extract_traffic, extract_traffic_sequential, HorizonExtractor};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The sweep: serial, even splits, and a prime count that never
/// divides the shard counts evenly.
const THREAD_SWEEP: [&str; 4] = ["1", "2", "4", "13"];

fn ip(d: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 40, (d % 2) * 7, d)
}

/// Packets drawn from small endpoint pools so alarms genuinely match.
/// About half are replies (endpoints and ports swapped), so biflow
/// units carry both directions.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u64..200_000_000,
        0u8..6,
        0u8..6,
        0u8..4,
        0u8..4,
        40u16..1500,
        prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp)],
        any::<bool>(),
    )
        .prop_map(|(ts, s, d, sp, dp, len, proto, reply)| {
            let base = TraceMeta::standard(TraceDate::new(2004, 6, 2))
                .window()
                .start_us;
            let (client, server) = (ip(s), ip(100 + d));
            let (cport, sport) = (1000 + sp as u16, [80, 445, 53, 8080][dp as usize]);
            let (src, dst, sport, dport) = if reply {
                (server, client, sport, cport)
            } else {
                (client, server, cport, sport)
            };
            Packet {
                ts_us: base + ts,
                src,
                dst,
                sport,
                dport,
                len,
                proto,
                flags: match (proto, reply) {
                    (Protocol::Tcp, false) => TcpFlags::syn(),
                    (Protocol::Tcp, true) => TcpFlags::syn_ack(),
                    _ => TcpFlags::empty(),
                },
            }
        })
}

/// (kind, a, b, win_start, win_len) → one alarm over the packet pools.
/// Kinds cover every `AlarmScope` variant and every `AlarmIndex`
/// bucket: host hashes, selective rules, the wildcard rule, flow sets.
fn alarm_from_spec(spec: (u8, u8, u8, u8, u8), packets: &[Packet]) -> Alarm {
    let (kind, a, b, w0, w1) = spec;
    let base = TraceMeta::standard(TraceDate::new(2004, 6, 2))
        .window()
        .start_us;
    let start = base + w0 as u64 * 2_000_000;
    let window = mawilab::model::TimeWindow::new(start, start + (w1 as u64 + 1) * 20_000_000);
    let scope = match kind {
        0 => AlarmScope::SrcHost(ip(a % 6)),
        1 => AlarmScope::DstHost(ip(100 + b % 6)),
        2 => AlarmScope::Rule(TrafficRule {
            dport: Some([80, 445, 53, 8080][a as usize % 4]),
            ..Default::default()
        }),
        3 => AlarmScope::Rule(TrafficRule {
            src: Some(ip(a % 6)),
            sport: Some(1000 + b as u16 % 4),
            ..Default::default()
        }),
        4 => AlarmScope::Rule(TrafficRule::default()), // wildcard
        _ if !packets.is_empty() => AlarmScope::FlowSet(vec![
            FlowKey::of(&packets[a as usize % packets.len()]),
            FlowKey::of(&packets[b as usize % packets.len()]),
        ]),
        _ => AlarmScope::SrcHost(ip(a % 6)),
    };
    Alarm {
        detector: DetectorKind::Pca,
        tuning: Tuning::Optimal,
        window,
        scope,
        score: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch and horizon extraction agree byte-for-byte
    /// with the sequential per-alarm oracle, at every granularity,
    /// chunk width and thread count — with the horizon path driven
    /// through `NoRewindSource` seals.
    #[test]
    fn extraction_matches_sequential_oracle(
        packets in prop::collection::vec(arb_packet(), 0..120),
        specs in prop::collection::vec((0u8..6, any::<u8>(), any::<u8>(), 0u8..90, 0u8..10), 1..7),
        g in prop_oneof![
            Just(Granularity::Packet),
            Just(Granularity::Uniflow),
            Just(Granularity::Biflow),
        ],
    ) {
        let _lock = ENV_LOCK.lock().unwrap();
        let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
        let mut packets = packets;
        packets.sort_by_key(|p| p.ts_us);
        let alarms: Vec<Alarm> = specs.iter().map(|&s| alarm_from_spec(s, &packets)).collect();
        let trace = Trace::new(meta, packets);
        let flows = FlowTable::build(&trace.packets);
        let view = TraceView::new(&trace, &flows);

        let expected = extract_traffic_sequential(&view, &alarms, g);

        for threads in THREAD_SWEEP {
            std::env::set_var("MAWILAB_THREADS", threads);

            prop_assert_eq!(&extract_traffic(&view, &alarms, g), &expected,
                "indexed batch diverged at {} threads", threads);

            for bin_us in [7_000_000u64, 60_000_000] {
                for lag_us in [0u64, 30_000_000] {
                    let mut index = ItemIndex::new(g);
                    let mut ids = Vec::new();
                    let mut ex = HorizonExtractor::new(lag_us);
                    let mut sealed =
                        NoRewindSource::new(TraceChunker::new(trace.clone(), bin_us));
                    while let Some(chunk) = sealed.next_chunk().unwrap() {
                        index.ids_of(&chunk.packets, &mut ids);
                        ex.observe(chunk.window, &chunk.packets, &ids);
                    }
                    let out = ex.finalize(&alarms);
                    prop_assert_eq!(sealed.rewinds_refused(), 0, "horizon path rewound");
                    prop_assert_eq!(&out.traffic, &expected,
                        "horizon diverged at {} threads, bin {}, lag {}",
                        threads, bin_us, lag_us);
                    let union: mawilab::model::FastSet<u32> =
                        expected.iter().flatten().copied().collect();
                    prop_assert_eq!(&out.matched, &union);
                }
            }
        }
        std::env::remove_var("MAWILAB_THREADS");
    }
}
