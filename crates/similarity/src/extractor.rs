//! Traffic extraction: alarms → traffic-unit id sets.
//!
//! The "oracle" of the paper's earlier work \[13\]: given an alarm's
//! feature scope and time window, return the ids of the traffic units
//! it designates. Ids are indices into the trace (packet index) or
//! into the flow table (uniflow/biflow id), so set intersection is
//! integer intersection regardless of the original alarm granularity.
//!
//! One resolve engine, `horizon::resolve_units`, serves batch and
//! single-pass extraction alike; an independent implementation checks
//! it:
//!
//! * [`extract_traffic`] — merges the alarms' windows into disjoint
//!   intervals and groups the packets inside them into one time run
//!   per traffic unit and direction (a counting sort over `FlowTable`
//!   ids), then hands the runs to `resolve_units`, the per-unit
//!   resolve that [`HorizonExtractor::finalize`] also runs. A packet
//!   outside every window can hit no alarm, so leaving it out is
//!   exact; a unit with no packet inside a window gets empty runs and
//!   never probes the index. When the windows cover the whole trace
//!   the grouping reads every packet, as an unwindowed sort would.
//! * [`extract_traffic_sequential`] — the retained seed engine (one
//!   packet-range scan per alarm), kept as the equivalence oracle.
//!
//! [`HorizonExtractor::finalize`]: crate::HorizonExtractor::finalize

use crate::horizon::resolve_units;
use crate::index::group_by_bucket;
use mawilab_detectors::{Alarm, AlarmScope, TraceView};
use mawilab_model::{FastMap, FastSet, FlowKey, Granularity, Packet, TimeWindow, Trace};
use std::ops::Range;

/// Extracts the traffic id set of every alarm, at the requested
/// granularity. Each result is sorted and deduplicated.
///
/// Groups the packets inside the alarms' windows into one time run per
/// traffic unit and direction, then resolves each unit once through
/// the inverted alarm index — `O(units)` index probes instead of the
/// seed's `O(alarms × packets)` scope tests. Byte-identical to
/// [`extract_traffic_sequential`] at any `MAWILAB_THREADS`.
pub fn extract_traffic(
    view: &TraceView<'_>,
    alarms: &[Alarm],
    granularity: Granularity,
) -> Vec<Vec<u32>> {
    if alarms.is_empty() {
        return Vec::new();
    }
    let packets = &view.trace.packets;
    let flows = view.flows;
    match granularity {
        Granularity::Packet => resolve_packets(
            view,
            alarms,
            packets.len(),
            |i, _| (i, false),
            |i| Some(FlowKey::of(&packets[i])),
        ),
        Granularity::Uniflow => resolve_packets(
            view,
            alarms,
            flows.uniflow_count(),
            |i, _| (flows.uniflow_of(i) as usize, false),
            |u| Some(*flows.uniflow_key(u as u32)),
        ),
        // A biflow's key is its `BiflowKey` read from endpoint `a`
        // (the lower `(address, port)`) to `b`, so a packet is reverse
        // exactly when its source endpoint is the higher one.
        Granularity::Biflow => resolve_packets(
            view,
            alarms,
            flows.biflow_count(),
            |i, p| {
                (
                    flows.biflow_of(i) as usize,
                    (p.src, p.sport) > (p.dst, p.dport),
                )
            },
            |b| {
                let k = flows.biflow_key(b as u32);
                Some(FlowKey {
                    src: k.a,
                    dst: k.b,
                    sport: k.aport,
                    dport: k.bport,
                    proto: k.proto,
                })
            },
        ),
    }
}

/// Groups the timestamp of every packet inside some alarm's window
/// under `unit_of(index, packet)` = `(unit, reverse)` and resolves the
/// units' time runs against `alarms`.
fn resolve_packets(
    view: &TraceView<'_>,
    alarms: &[Alarm],
    units: usize,
    unit_of: impl Fn(usize, &Packet) -> (usize, bool),
    key_of: impl Fn(usize) -> Option<FlowKey> + Sync,
) -> Vec<Vec<u32>> {
    let packets = &view.trace.packets;
    let (bounds, ts) = group_by_bucket(
        window_ranges(view.trace, alarms)
            .into_iter()
            .flatten()
            .map(|i| {
                let p = &packets[i];
                let (unit, reverse) = unit_of(i, p);
                (2 * unit + usize::from(reverse), p.ts_us)
            }),
        2 * units,
    );
    resolve_units(alarms, units, key_of, &bounds, &ts).0
}

/// The packet-index ranges of the union of the alarms' windows:
/// disjoint and ascending (packets are time-sorted). Overlapping and
/// touching windows merge; empty windows drop out.
fn window_ranges(trace: &Trace, alarms: &[Alarm]) -> Vec<Range<usize>> {
    let mut windows: Vec<(u64, u64)> = alarms
        .iter()
        .map(|a| (a.window.start_us, a.window.end_us))
        .filter(|&(start, end)| start < end)
        .collect();
    windows.sort_unstable();
    let mut merged: Vec<TimeWindow> = Vec::new();
    for (start, end) in windows {
        match merged.last_mut() {
            Some(last) if start <= last.end_us => last.end_us = last.end_us.max(end),
            _ => merged.push(TimeWindow::new(start, end)),
        }
    }
    merged.iter().map(|w| trace.packet_range(w)).collect()
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
    let mut scope_slots: FastMap<&[FlowKey], usize> = FastMap::default();
    let mut resolved: Vec<FastSet<u32>> = Vec::new();
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
    flow_ids: Option<&FastSet<u32>>,
) -> Vec<u32> {
    let trace = view.trace;
    let range = trace.packet_range(&alarm.window);

    let mut set: FastSet<u32> = FastSet::default();
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
    fn biflow_opened_from_the_higher_endpoint_resolves_each_direction() {
        // The conversation's first packet comes from (ip 9, 5000), the
        // higher endpoint, so the biflow's key runs against it; each
        // alarm's window holds packets of one direction only.
        let meta = TraceMeta::standard(TraceDate::new(2004, 6, 2));
        let base = meta.window().start_us;
        let t = Trace::new(
            meta,
            vec![
                Packet::tcp(base, ip(9), 5000, ip(2), 80, TcpFlags::syn(), 40),
                Packet::tcp(base + 10, ip(2), 80, ip(9), 5000, TcpFlags::syn_ack(), 40),
                Packet::tcp(base + 20, ip(9), 5000, ip(2), 80, TcpFlags::ack(), 40),
                Packet::tcp(base + 30, ip(2), 80, ip(9), 5000, TcpFlags::ack(), 40),
            ],
        );
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let at = |from: u64, to: u64| TimeWindow::new(base + from, base + to);
        let alarms = [
            alarm(AlarmScope::SrcHost(ip(9)), at(0, 15)),
            alarm(AlarmScope::SrcHost(ip(2)), at(5, 15)),
            alarm(AlarmScope::SrcHost(ip(2)), at(15, 25)),
            alarm(AlarmScope::SrcHost(ip(9)), at(25, 35)),
        ];
        for g in [
            Granularity::Packet,
            Granularity::Uniflow,
            Granularity::Biflow,
        ] {
            let want = extract_traffic_sequential(&view, &alarms, g);
            assert!(want[0].len() == 1 && want[1].len() == 1, "at {g}");
            assert!(want[2].is_empty() && want[3].is_empty(), "at {g}");
            assert_eq!(extract_traffic(&view, &alarms, g), want, "at {g}");
        }
    }

    #[test]
    fn windowed_grouping_matches_oracle_on_edge_windows() {
        // Packets sit at +0, +10, +20, +30 and +40 µs. The windows are
        // disjoint, nested, touching (`end == next start`), zero-width,
        // and wholly before or after the trace; each alarm set must
        // extract what the per-alarm scan does.
        let t = trace();
        let flows = FlowTable::build(&t.packets);
        let view = TraceView::new(&t, &flows);
        let base = t.meta.window().start_us;
        let at = |from: u64, to: u64| TimeWindow::new(base + from, base + to);
        let port80 = TrafficRule {
            dport: Some(80),
            ..Default::default()
        };
        let alarms = [
            alarm(AlarmScope::SrcHost(ip(1)), at(0, 5)),
            alarm(AlarmScope::DstHost(ip(2)), at(35, 45)),
            alarm(AlarmScope::Rule(port80), at(0, 25)),
            alarm(AlarmScope::SrcHost(ip(2)), at(5, 15)),
            alarm(AlarmScope::SrcHost(ip(3)), at(25, 31)),
            alarm(AlarmScope::DstHost(ip(1)), at(30, 35)),
            alarm(AlarmScope::SrcHost(ip(4)), at(40, 40)),
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(0, base)),
            alarm(AlarmScope::Rule(port80), at(41, 1_000)),
            alarm(
                AlarmScope::FlowSet(vec![FlowKey::of(&t.packets[3])]),
                at(30, 31),
            ),
        ];
        // The whole set merges into one interval; `[..2]` and `[3..6]`
        // leave two disjoint intervals with packets in each, `[6..9]`
        // two with none.
        let sets: Vec<&[Alarm]> = [&alarms[..], &alarms[..2], &alarms[3..6], &alarms[6..9]]
            .into_iter()
            .chain(alarms.chunks(1))
            .collect();
        for g in [
            Granularity::Packet,
            Granularity::Uniflow,
            Granularity::Biflow,
        ] {
            for set in &sets {
                let want = extract_traffic_sequential(&view, set, g);
                assert_eq!(extract_traffic(&view, set, g), want, "at {g}: {set:?}");
            }
            let all = extract_traffic_sequential(&view, &alarms, g);
            assert!(all[..6].iter().all(|s| !s.is_empty()), "at {g}");
            assert!(all[6..9].iter().all(|s| s.is_empty()), "at {g}");
        }
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
