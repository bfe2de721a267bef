//! Traffic extraction: alarms → traffic-unit id sets.
//!
//! The "oracle" of the paper's earlier work [13]: given an alarm's
//! feature scope and time window, return the ids of the traffic units
//! it designates. Ids are indices into the trace (packet index) or
//! into the flow table (uniflow/biflow id), so set intersection is
//! integer intersection regardless of the original alarm granularity.
//!
//! Two engines produce byte-identical output:
//!
//! * [`extract_traffic`] — the inverted-index engine: alarm scopes are
//!   bucketed by concrete 5-tuple fields ([`crate::index`]), every
//!   uniflow's candidate alarms resolve once, and the packet array is
//!   scanned **once** (sharded through `mawilab-exec`), stabbing each
//!   packet's timestamp into its flow's candidate run.
//! * [`extract_traffic_sequential`] — the retained seed engine (one
//!   packet-range scan per alarm), kept as the equivalence oracle.

use crate::index::{AlarmIndex, CandidateRun, HitSink};
use mawilab_detectors::{Alarm, AlarmScope, TraceView};
use mawilab_model::{FlowKey, Granularity};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Packets per scan shard of the indexed engine.
const PACKET_SHARD: usize = 1 << 16;

/// Extracts the traffic id set of every alarm, at the requested
/// granularity. Each result is sorted and deduplicated.
///
/// Inverted-index engine: O(uniflows) scope resolutions + one packet
/// scan, instead of the seed's O(alarms × packets) scope tests.
/// Byte-identical to [`extract_traffic_sequential`] at any
/// `MAWILAB_THREADS` (the shard merge is canonicalized by the final
/// per-alarm sort).
pub fn extract_traffic(
    view: &TraceView<'_>,
    alarms: &[Alarm],
    granularity: Granularity,
) -> Vec<Vec<u32>> {
    if alarms.is_empty() {
        return Vec::new();
    }
    let trace = view.trace;
    let index = AlarmIndex::new(alarms);

    // Scope tests resolve once per dense uniflow id, not per packet.
    let uniflows: Vec<u32> = (0..view.flows.uniflow_count() as u32).collect();
    let runs: Vec<CandidateRun> = mawilab_exec::par_map(&uniflows, |&u| {
        index.candidates_for(view.flows.uniflow_key(u))
    });

    // One pass over the packets, sharded; each shard accumulates
    // per-alarm hit runs merged and canonicalized below.
    let shards: Vec<Range<usize>> = (0..trace.packets.len())
        .step_by(PACKET_SHARD)
        .map(|s| s..(s + PACKET_SHARD).min(trace.packets.len()))
        .collect();
    let parts: Vec<HitSink> = mawilab_exec::par_map(&shards, |range| {
        let mut sink = HitSink::new(alarms.len());
        for i in range.clone() {
            let u = view.flows.uniflow_of(i);
            let run = runs[u as usize].run();
            if run.is_empty() {
                continue;
            }
            let id = match granularity {
                Granularity::Packet => i as u32,
                Granularity::Uniflow => u,
                Granularity::Biflow => view.flows.biflow_of(i),
            };
            run.stab(trace.packets[i].ts_us, |a| sink.push(a, id));
        }
        sink
    });
    let mut merged = HitSink::new(alarms.len());
    for part in parts {
        merged.absorb(part);
    }
    merged.finish()
}

/// The seed per-alarm engine, retained as the equivalence oracle for
/// the inverted-index path: one packet-range scan per alarm. `FlowSet`
/// scopes resolve their keys to dense uniflow ids once per *distinct*
/// scope (detectors re-emit one flow set across windows), not once per
/// alarm.
pub fn extract_traffic_sequential(
    view: &TraceView<'_>,
    alarms: &[Alarm],
    granularity: Granularity,
) -> Vec<Vec<u32>> {
    let mut scope_slots: HashMap<&[FlowKey], usize> = HashMap::new();
    let mut resolved: Vec<HashSet<u32>> = Vec::new();
    let slots: Vec<Option<usize>> = alarms
        .iter()
        .map(|a| match &a.scope {
            AlarmScope::FlowSet(keys) => {
                Some(*scope_slots.entry(keys.as_slice()).or_insert_with(|| {
                    resolved.push(
                        keys.iter()
                            .filter_map(|k| view.flows.find_uniflow(k))
                            .collect(),
                    );
                    resolved.len() - 1
                }))
            }
            _ => None,
        })
        .collect();
    alarms
        .iter()
        .zip(&slots)
        .map(|(a, slot)| extract_one(view, a, granularity, slot.map(|s| &resolved[s])))
        .collect()
}

fn extract_one(
    view: &TraceView<'_>,
    alarm: &Alarm,
    granularity: Granularity,
    flow_ids: Option<&HashSet<u32>>,
) -> Vec<u32> {
    let trace = view.trace;
    let range = trace.packet_range(&alarm.window);

    let mut set: HashSet<u32> = HashSet::new();
    for i in range {
        let p = &trace.packets[i];
        let matched = match (&alarm.scope, flow_ids) {
            (AlarmScope::FlowSet(_), Some(ids)) => ids.contains(&view.flows.uniflow_of(i)),
            (scope, _) => scope.matches(p),
        };
        if !matched {
            continue;
        }
        let id = match granularity {
            Granularity::Packet => i as u32,
            Granularity::Uniflow => view.flows.uniflow_of(i),
            Granularity::Biflow => view.flows.biflow_of(i),
        };
        set.insert(id);
    }
    let mut v: Vec<u32> = set.into_iter().collect();
    v.sort_unstable();
    v
}

/// Intersection size of two sorted id slices.
pub fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_detectors::{DetectorKind, Tuning};
    use mawilab_model::{
        FlowKey, FlowTable, Packet, TcpFlags, TimeWindow, Trace, TraceDate, TraceMeta, TrafficRule,
    };
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 1, d)
    }

    /// Trace with a bidirectional TCP conversation + one UDP flow.
    fn trace() -> Trace {
        let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
        let base = meta.window().start_us;
        Trace::new(
            meta,
            vec![
                Packet::tcp(base, ip(1), 1000, ip(2), 80, TcpFlags::syn(), 40),
                Packet::tcp(base + 10, ip(2), 80, ip(1), 1000, TcpFlags::syn_ack(), 40),
                Packet::tcp(base + 20, ip(1), 1000, ip(2), 80, TcpFlags::ack(), 40),
                Packet::udp(base + 30, ip(3), 53, ip(1), 777, 100),
                Packet::tcp(base + 40, ip(4), 2000, ip(2), 80, TcpFlags::syn(), 40),
            ],
        )
    }

    fn alarm(scope: AlarmScope, window: TimeWindow) -> Alarm {
        Alarm {
            detector: DetectorKind::Pca,
            tuning: Tuning::Optimal,
            window,
            scope,
            score: 1.0,
        }
    }

    #[test]
    fn host_scope_packet_granularity() {
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let a = alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::all());
        let sets = extract_traffic(&view, &[a], Granularity::Packet);
        assert_eq!(sets[0], vec![0, 2]); // the two packets from ip1
    }

    #[test]
    fn uniflow_vs_biflow_granularity() {
        // Paper Fig. 1: alarms on opposite directions of one
        // conversation share nothing at uniflow granularity but are
        // identical at biflow granularity.
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let fwd = alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::all());
        let rev = alarm(AlarmScope::SrcHost(ip(2)), TimeWindow::all());
        let uni = extract_traffic(&view, &[fwd.clone(), rev.clone()], Granularity::Uniflow);
        assert_eq!(intersection_size(&uni[0], &uni[1]), 0);
        let bi = extract_traffic(&view, &[fwd, rev], Granularity::Biflow);
        assert_eq!(intersection_size(&bi[0], &bi[1]), 1);
    }

    #[test]
    fn window_restricts_extraction() {
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let base = t.meta.window().start_us;
        let a = alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(base, base + 5));
        let sets = extract_traffic(&view, &[a], Granularity::Packet);
        assert_eq!(sets[0], vec![0]);
    }

    #[test]
    fn flowset_scope_resolves_keys() {
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let key = FlowKey::of(&t.packets[0]);
        let a = alarm(AlarmScope::FlowSet(vec![key]), TimeWindow::all());
        let sets = extract_traffic(&view, &[a], Granularity::Packet);
        assert_eq!(sets[0], vec![0, 2]); // SYN + ACK of the fwd flow
    }

    #[test]
    fn flowset_with_unknown_keys_is_empty() {
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let ghost = FlowKey {
            src: ip(9),
            dst: ip(8),
            sport: 1,
            dport: 2,
            proto: mawilab_model::Protocol::Tcp,
        };
        let a = alarm(AlarmScope::FlowSet(vec![ghost]), TimeWindow::all());
        let sets = extract_traffic(&view, &[a], Granularity::Uniflow);
        assert!(sets[0].is_empty());
    }

    #[test]
    fn rule_scope_matches_wildcards() {
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let rule = TrafficRule {
            dport: Some(80),
            ..Default::default()
        };
        let a = alarm(AlarmScope::Rule(rule), TimeWindow::all());
        let sets = extract_traffic(&view, &[a], Granularity::Uniflow);
        // fwd conversation flow (ip1→ip2:80) and the second client
        // (ip4→ip2:80): two uniflows.
        assert_eq!(sets[0].len(), 2);
    }

    #[test]
    fn host_alarm_includes_flows_it_sourced_only() {
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let a = alarm(AlarmScope::SrcHost(ip(2)), TimeWindow::all());
        let sets = extract_traffic(&view, &[a], Granularity::Uniflow);
        assert_eq!(sets[0].len(), 1); // only the reverse direction flow
    }

    #[test]
    fn sets_are_sorted_and_unique() {
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let a = alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::all());
        for g in [
            Granularity::Packet,
            Granularity::Uniflow,
            Granularity::Biflow,
        ] {
            let sets = extract_traffic(&view, std::slice::from_ref(&a), g);
            let s = &sets[0];
            assert!(
                s.windows(2).all(|w| w[0] < w[1]),
                "not sorted/unique at {g}"
            );
        }
    }

    #[test]
    fn intersection_size_basics() {
        assert_eq!(intersection_size(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(intersection_size(&[], &[1]), 0);
        assert_eq!(intersection_size(&[5], &[5]), 1);
        assert_eq!(intersection_size(&[1, 3, 5], &[2, 4, 6]), 0);
    }
}
