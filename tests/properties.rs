//! Cross-crate property-based tests (proptest) on the pipeline's core
//! invariants.

use mawilab::combiner::{
    Average, CombinationStrategy, MajorityVote, Maximum, Minimum, Scann, VoteTable,
};
use mawilab::graph::{louvain, modularity, Graph, Partition};
use mawilab::label::{CommunityEvidence, TrafficProfile};
use mawilab::mining::{apriori, Transaction};
use mawilab::model::pcap::{read_pcap, write_pcap};
use mawilab::model::{
    BiflowKey, FlowKey, Granularity, ItemIndex, Packet, Protocol, TcpFlags, Trace, TraceDate,
    TraceMeta,
};
use mawilab::similarity::SimilarityMeasure;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u64..1_000_000,
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        40u16..1500,
        prop_oneof![Just(0u8), Just(1), Just(2)],
        any::<u8>(),
    )
        .prop_map(|(ts, src, dst, sport, dport, len, proto, flags)| {
            let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
            let base = meta.window().start_us;
            Packet {
                ts_us: base + ts,
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                // ICMP carries type/code (u8) in the port fields.
                sport: if proto == 2 { sport & 0xff } else { sport },
                dport: if proto == 2 { dport & 0xff } else { dport },
                len,
                proto: match proto {
                    0 => Protocol::Tcp,
                    1 => Protocol::Udp,
                    _ => Protocol::Icmp,
                },
                // TCP flags are only meaningful (and only serialised)
                // for TCP packets.
                flags: if proto == 0 {
                    TcpFlags(flags & 0x3f)
                } else {
                    TcpFlags::empty()
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pcap round-trips arbitrary packets exactly.
    #[test]
    fn pcap_round_trip(packets in prop::collection::vec(arb_packet(), 0..50)) {
        let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
        let trace = Trace::new(meta.clone(), packets);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let (back, skipped) = read_pcap(std::io::Cursor::new(&buf), meta).unwrap();
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(back.packets, trace.packets);
    }

    /// Biflow keys are direction-invariant for arbitrary packets.
    #[test]
    fn biflow_direction_invariance(p in arb_packet()) {
        let k = FlowKey::of(&p);
        prop_assert_eq!(BiflowKey::from_flow(&k), BiflowKey::from_flow(&k.reversed()));
    }

    /// Similarity measures stay in [0,1] and are symmetric for any
    /// set sizes.
    #[test]
    fn similarity_bounds(inter in 0usize..100, extra_a in 0usize..100, extra_b in 0usize..100) {
        let a = inter + extra_a;
        let b = inter + extra_b;
        prop_assume!(a > 0 && b > 0);
        for m in [SimilarityMeasure::Simpson, SimilarityMeasure::Jaccard, SimilarityMeasure::Constant] {
            let v = m.value(inter, a, b);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert_eq!(v, m.value(inter, b, a));
            if inter == 0 { prop_assert_eq!(v, 0.0); }
            if inter == a.min(b) && inter > 0 && m == SimilarityMeasure::Simpson {
                prop_assert_eq!(v, 1.0);
            }
        }
    }

    /// Louvain returns a valid partition and never does worse than
    /// all-singletons, on arbitrary sparse graphs.
    #[test]
    fn louvain_validity(edges in prop::collection::vec((0u32..30, 0u32..30, 1u32..100), 0..80)) {
        let edges: Vec<(u32, u32, f64)> =
            edges.into_iter().map(|(a, b, w)| (a, b, w as f64 / 100.0)).collect();
        let g = Graph::from_edges(30, &edges);
        let p = louvain(&g, 1.0);
        prop_assert_eq!(p.community.len(), 30);
        // Dense ids.
        for &c in &p.community {
            prop_assert!(c < p.community_count());
        }
        let singles = Partition::from_labels((0..30).collect());
        prop_assert!(modularity(&g, &p) >= modularity(&g, &singles) - 1e-9);
    }

    /// Louvain refines the connected components: two nodes share a
    /// community only if a path joins them. Sparse edge sets leave
    /// many components, self-loops included.
    #[test]
    fn louvain_refines_components(edges in prop::collection::vec((0u32..30, 0u32..30, 1u32..100), 0..40)) {
        let edges: Vec<(u32, u32, f64)> =
            edges.into_iter().map(|(a, b, w)| (a, b, w as f64 / 100.0)).collect();
        let g = Graph::from_edges(30, &edges);
        // Components by breadth-first search.
        let mut component = vec![usize::MAX; 30];
        for start in 0..30 {
            if component[start] != usize::MAX {
                continue;
            }
            component[start] = start;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &(u, _) in g.neighbors(v) {
                    if component[u as usize] == usize::MAX {
                        component[u as usize] = start;
                        queue.push_back(u as usize);
                    }
                }
            }
        }
        let p = louvain(&g, 1.0);
        for v in 0..30 {
            for u in 0..30 {
                if p.of(v) == p.of(u) {
                    prop_assert_eq!(component[v], component[u], "community crosses components");
                }
            }
        }
    }

    /// Every Apriori itemset's reported count is its true frequency,
    /// and meets the threshold.
    #[test]
    fn apriori_support_soundness(
        seeds in prop::collection::vec((0u8..6, 0u8..4, 0u8..6, 0u8..4), 1..40),
        s_pct in 1u8..=10,
    ) {
        let txs: Vec<Transaction> = seeds
            .iter()
            .map(|&(a, sp, b, dp)| {
                Transaction::new(
                    Ipv4Addr::new(10, 0, 0, a),
                    1000 + sp as u16,
                    Ipv4Addr::new(10, 0, 1, b),
                    2000 + dp as u16,
                )
            })
            .collect();
        let min_support = s_pct as f64 / 10.0;
        let min_count = ((min_support * txs.len() as f64).ceil() as usize).max(1);
        for f in apriori(&txs, min_support) {
            let real = txs.iter().filter(|t| t.contains_all(&f.items)).count();
            prop_assert_eq!(real, f.count);
            prop_assert!(f.count >= min_count);
        }
    }

    /// All strategies produce one decision per community, and accepted
    /// sets nest: minimum ⊆ average ⊆ maximum.
    #[test]
    fn strategy_nesting(rows in prop::collection::vec(any::<u16>(), 1..60)) {
        let table = VoteTable::from_rows(
            rows.iter()
                .map(|&bits| {
                    let mut r = [false; 12];
                    for (k, slot) in r.iter_mut().enumerate() {
                        *slot = (bits >> k) & 1 == 1;
                    }
                    r
                })
                .collect(),
        );
        let strategies: Vec<Box<dyn CombinationStrategy>> = vec![
            Box::new(Average), Box::new(Minimum), Box::new(Maximum),
            Box::new(Scann::default()), Box::new(MajorityVote),
        ];
        for s in &strategies {
            prop_assert_eq!(s.classify(&table).len(), table.len());
        }
        let mins = Minimum.classify(&table);
        let avgs = Average.classify(&table);
        let maxs = Maximum.classify(&table);
        for c in 0..table.len() {
            if mins[c].accepted { prop_assert!(avgs[c].accepted); }
            if avgs[c].accepted { prop_assert!(maxs[c].accepted); }
        }
        // SCANN relative distances are finite-or-infinite nonnegative.
        for d in Scann::default().classify(&table) {
            if let Some(rel) = d.relative_distance {
                prop_assert!(rel >= 0.0);
            }
        }
    }
}

/// Every Table-1 port, and two that no rule names.
const PROFILE_PORTS: [u16; 15] = [
    1023, 5554, 9898, 135, 445, 139, 80, 8080, 20, 21, 22, 53, 137, 40000, 0,
];

/// Packets over four hosts and the Table-1 ports, so flows repeat,
/// biflows see both directions, and a rule's port sits on either
/// side. Every protocol carries arbitrary flag bits.
fn arb_profile_packet() -> impl Strategy<Value = Packet> {
    (
        0u64..1_000,
        0u8..4,
        0u8..4,
        0..PROFILE_PORTS.len(),
        0..PROFILE_PORTS.len(),
        0u8..4,
        any::<u8>(),
    )
        .prop_map(|(ts, src, dst, sport, dport, proto, flags)| Packet {
            ts_us: ts,
            src: Ipv4Addr::new(10, 0, 0, src),
            dst: Ipv4Addr::new(10, 0, 0, dst),
            sport: PROFILE_PORTS[sport],
            dport: PROFILE_PORTS[dport],
            len: 60,
            proto: match proto {
                0 => Protocol::Tcp,
                1 => Protocol::Udp,
                2 => Protocol::Icmp,
                _ => Protocol::Other(47),
            },
            flags: TcpFlags(flags),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A community's profile rebuilt from per-unit counters and unit
    /// keys equals profiling its packets, at every granularity, and so
    /// does its Table-1 label. At packet granularity its transactions
    /// are also those of its packets, in id order.
    #[test]
    fn derived_flow_profiles_equal_packet_profiles(
        packets in prop::collection::vec(arb_profile_packet(), 0..80),
        split in 0usize..80,
        pick in any::<u64>(),
    ) {
        for g in [Granularity::Packet, Granularity::Uniflow, Granularity::Biflow] {
            let mut index = ItemIndex::new(g);
            let mut ids = Vec::new();
            index.ids_of(&packets, &mut ids);
            let mut evidence = CommunityEvidence::new(g);
            let cut = split.min(packets.len());
            evidence.observe_units(&packets[..cut], &ids[..cut]);
            evidence.observe_units(&packets[cut..], &ids[cut..]);
            let mut units = ids.clone();
            units.sort_unstable();
            units.dedup();
            // The whole trace, and the community of the units `pick`
            // selects.
            let community: Vec<u32> =
                units.iter().copied().filter(|&u| pick >> (u % 64) & 1 == 1).collect();
            let members: Vec<Packet> = packets
                .iter()
                .zip(&ids)
                .filter(|(_, id)| community.binary_search(id).is_ok())
                .map(|(p, _)| *p)
                .collect();
            for (units, packets) in [(&units, &packets), (&community, &members)] {
                let derived = evidence.profile_of(units, &index);
                let direct = TrafficProfile::collect(packets.iter());
                prop_assert_eq!(&derived, &direct, "{}", g);
                prop_assert_eq!(derived.classify(), direct.classify(), "{}", g);
                if g == Granularity::Packet {
                    // Packet ids are stream positions, so id order is
                    // stream order.
                    let direct: Vec<Transaction> = packets.iter().map(Transaction::of_packet).collect();
                    prop_assert_eq!(evidence.transactions_of(units, &index), direct);
                }
            }
        }
    }
}
