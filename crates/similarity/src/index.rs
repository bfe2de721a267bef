//! Inverted alarm index: flow key → candidate alarms, stabbed by time.
//!
//! The seed extractors test every packet against every alarm —
//! O(alarms × packets) scope tests with a fresh hash set per alarm.
//! This module inverts the direction: alarms are indexed **once** by
//! the concrete 5-tuple fields their scopes constrain, so resolving a
//! traffic unit costs a handful of bucket lookups on its flow key plus
//! an interval stab over the candidates' time windows. Every
//! [`AlarmScope`] is a pure function of the 5-tuple
//! ([`AlarmScope::matches_key`]), which is what makes per-key
//! resolution sound.
//!
//! Three structures cooperate, all driven by the one per-unit resolve
//! ([`resolve_units`](crate::horizon::resolve_units)) that batch and
//! single-pass extraction share:
//!
//! * [`AlarmRun`] — a set of alarms as an interval-stabbable run:
//!   entries sorted by window start with a prefix-max of window ends,
//!   so a probe with a unit's time span touches only alarms whose
//!   windows can still reach it. It borrows its arrays from the
//!   index's flat run store.
//! * [`AlarmIndex`] — host and flow scopes become hash buckets, each
//!   naming a run of its alarms. `Rule` scopes are deduplicated
//!   (detectors re-emit the same mined rule across many analysis
//!   windows), each distinct rule names the run of its alarms, and
//!   rules are bucketed by their most selective concrete field, with a
//!   verification pass on the remaining wildcards. Every run is built
//!   once per alarm set, back to back in one flat store;
//!   [`AlarmIndex::for_each_run`] hands a key's runs out in place, so
//!   the per-unit resolve allocates and sorts nothing.
//! * [`HitSink`] — per-alarm hits accumulate as append-only runs
//!   (adjacent duplicates collapsed) that are sorted and deduplicated
//!   once at the end, instead of hashing every hit.
//!
//! The final sort + dedup canonicalizes the output, so it is
//! byte-identical to the seed per-alarm scan at any thread count.

use mawilab_detectors::{Alarm, AlarmScope};
use mawilab_model::{FastMap, FlowKey, TrafficRule};
use std::net::Ipv4Addr;

/// One alarm of a run: `(window start, window end, alarm index)`.
type Entry = (u64, u64, u32);

/// A set of alarms, interval-stabbable by timestamp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AlarmRun<'r> {
    /// Sorted by window start.
    entries: &'r [Entry],
    /// `prefix_max_end[j]` = max window end over `entries[..=j]`.
    prefix_max_end: &'r [u64],
}

impl AlarmRun<'_> {
    /// Calls `hit` once for every alarm whose window contains at least
    /// one of the time-sorted timestamps `ts`: the run is stabbed with
    /// the span `[ts[0], ts[last]]`, then each overlapping window gets
    /// one binary search into `ts`.
    pub(crate) fn stab_sorted(&self, ts: &[u64], mut hit: impl FnMut(u32)) {
        debug_assert!(ts.is_sorted(), "stab_sorted needs time-sorted input");
        let (Some(&first), Some(&last)) = (ts.first(), ts.last()) else {
            return;
        };
        let p = self.entries.partition_point(|&(start, _, _)| start <= last);
        for j in (0..p).rev() {
            if self.prefix_max_end[j] <= first {
                break;
            }
            let (start, end, a) = self.entries[j];
            if end <= first {
                continue;
            }
            let from = ts.partition_point(|&t| t < start);
            if ts.get(from).is_some_and(|&t| t < end) {
                hit(a);
            }
        }
    }
}

/// Stable counting sort: groups the `(bucket, value)` items by bucket
/// (`< buckets`), keeping item order within a group. Group `b` is
/// `out[starts[b]..starts[b + 1]]`; returns `(starts, out)`.
pub(crate) fn group_by_bucket<V: Copy + Default>(
    items: impl DoubleEndedIterator<Item = (usize, V)> + Clone,
    buckets: usize,
) -> (Vec<usize>, Vec<V>) {
    let mut starts = vec![0usize; buckets + 1];
    for (b, _) in items.clone() {
        starts[b] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    // `starts[b]` is now the end of group `b`; filling back to front
    // keeps item order and leaves it at the group's start.
    let mut out = vec![V::default(); starts[buckets]];
    for (b, value) in items.rev() {
        let slot = &mut starts[b];
        *slot -= 1;
        out[*slot] = value;
    }
    (starts, out)
}

/// Every run of an index, back to back: run `r` is
/// `entries[bounds[r]..bounds[r + 1]]`.
#[derive(Debug, Default)]
struct RunStore {
    entries: Vec<Entry>,
    prefix_max_end: Vec<u64>,
    bounds: Vec<usize>,
}

impl RunStore {
    /// Builds `runs` runs from `(run, alarm)` pairs: a counting sort
    /// groups the pairs by run, then each run is sorted by window
    /// start and deduplicated in place, compacting the grouped array
    /// into the store.
    fn build(pairs: &[(u32, u32)], runs: usize, alarms: &[Alarm]) -> Self {
        let (mut bounds, mut entries) = group_by_bucket(
            pairs.iter().map(|&(r, a)| {
                let w = &alarms[a as usize].window;
                (r as usize, (w.start_us, w.end_us, a))
            }),
            runs,
        );
        let mut prefix_max_end = Vec::with_capacity(entries.len());
        // Run `r` is read from `entries[read..bounds[r + 1]]` and
        // written back from `write`, never ahead of the read.
        let (mut read, mut write) = (0, 0);
        for r in 0..runs {
            let end = bounds[r + 1];
            entries[read..end].sort_unstable();
            bounds[r] = write;
            let mut max_end = 0u64;
            for i in read..end {
                let e = entries[i];
                // A scope listing one flow key twice registers its
                // alarm twice; the copies are equal entries, adjacent
                // after the sort.
                if write > bounds[r] && entries[write - 1] == e {
                    continue;
                }
                entries[write] = e;
                write += 1;
                max_end = max_end.max(e.1);
                prefix_max_end.push(max_end);
            }
            read = end;
        }
        bounds[runs] = write;
        entries.truncate(write);
        RunStore {
            entries,
            prefix_max_end,
            bounds,
        }
    }

    fn get(&self, run: u32) -> AlarmRun<'_> {
        let range = self.bounds[run as usize]..self.bounds[run as usize + 1];
        AlarmRun {
            entries: &self.entries[range.clone()],
            prefix_max_end: &self.prefix_max_end[range],
        }
    }
}

/// What one host address selects: the run of alarms scoped to the
/// host, and the distinct rules bucketed under it.
#[derive(Debug, Default)]
struct HostBucket {
    run: Option<u32>,
    rules: Vec<u32>,
}

/// Alarm scopes inverted into hash buckets on their concrete 5-tuple
/// fields, each bucket naming a prebuilt [`AlarmRun`]. Build once per
/// alarm set; query per distinct flow key.
#[derive(Debug)]
pub(crate) struct AlarmIndex<'a> {
    store: RunStore,
    /// `SrcHost` alarms, and rules whose most selective field is `src`.
    by_src: FastMap<Ipv4Addr, HostBucket>,
    /// `DstHost` alarms, and rules whose most selective field is `dst`.
    by_dst: FastMap<Ipv4Addr, HostBucket>,
    by_flow: FastMap<FlowKey, u32>,
    /// Distinct `Rule` scopes with the run of alarms carrying each
    /// (detectors re-emit one mined rule across many windows — resolve
    /// it once). A bucket hit still verifies the rule's remaining
    /// constraints.
    rules: Vec<(&'a TrafficRule, u32)>,
    rule_by_dport: FastMap<u16, Vec<u32>>,
    rule_by_sport: FastMap<u16, Vec<u32>>,
    /// Rules with no concrete endpoint field (proto-only/any).
    rule_wild: Vec<u32>,
}

impl<'a> AlarmIndex<'a> {
    pub(crate) fn new(alarms: &'a [Alarm]) -> Self {
        let mut ix = AlarmIndex {
            // Filled once every bucket has numbered its run.
            store: RunStore::default(),
            by_src: FastMap::default(),
            by_dst: FastMap::default(),
            by_flow: FastMap::default(),
            rules: Vec::new(),
            rule_by_dport: FastMap::default(),
            rule_by_sport: FastMap::default(),
            rule_wild: Vec::new(),
        };
        // `(run, alarm)` pairs; runs are numbered on first use.
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(alarms.len());
        let mut runs = 0u32;
        let mut new_run = || {
            runs += 1;
            runs - 1
        };
        let mut rule_ids: FastMap<&TrafficRule, u32> = FastMap::default();
        for (ai, alarm) in alarms.iter().enumerate() {
            let ai = ai as u32;
            let run = match &alarm.scope {
                AlarmScope::SrcHost(ip) => *ix
                    .by_src
                    .entry(*ip)
                    .or_default()
                    .run
                    .get_or_insert_with(&mut new_run),
                AlarmScope::DstHost(ip) => *ix
                    .by_dst
                    .entry(*ip)
                    .or_default()
                    .run
                    .get_or_insert_with(&mut new_run),
                AlarmScope::FlowSet(keys) => {
                    for k in keys {
                        let run = *ix.by_flow.entry(*k).or_insert_with(&mut new_run);
                        pairs.push((run, ai));
                    }
                    continue;
                }
                AlarmScope::Rule(rule) => {
                    let next_id = ix.rules.len() as u32;
                    let rid = *rule_ids.entry(rule).or_insert(next_id);
                    if rid == next_id {
                        ix.rules.push((rule, new_run()));
                        if let Some(ip) = rule.src {
                            ix.by_src.entry(ip).or_default().rules.push(rid);
                        } else if let Some(ip) = rule.dst {
                            ix.by_dst.entry(ip).or_default().rules.push(rid);
                        } else if let Some(port) = rule.dport {
                            ix.rule_by_dport.entry(port).or_default().push(rid);
                        } else if let Some(port) = rule.sport {
                            ix.rule_by_sport.entry(port).or_default().push(rid);
                        } else {
                            ix.rule_wild.push(rid);
                        }
                    }
                    ix.rules[rid as usize].1
                }
            };
            pairs.push((run, ai));
        }
        ix.store = RunStore::build(&pairs, runs as usize, alarms);
        ix
    }

    /// Calls `f` on every prebuilt run whose alarms' scopes match
    /// `key`. The runs are disjoint: a scope is exactly one variant
    /// and each distinct rule lives in exactly one bucket, so every
    /// matching alarm is visited exactly once.
    pub(crate) fn for_each_run(&self, key: &FlowKey, mut f: impl FnMut(AlarmRun<'_>)) {
        let src = self.by_src.get(&key.src);
        let dst = self.by_dst.get(&key.dst);
        let scoped_runs = [
            src.and_then(|b| b.run),
            dst.and_then(|b| b.run),
            self.by_flow.get(key).copied(),
        ];
        for run in scoped_runs.into_iter().flatten() {
            f(self.store.get(run));
        }
        let rule_buckets = [
            src.map(|b| b.rules.as_slice()),
            dst.map(|b| b.rules.as_slice()),
            self.rule_by_dport.get(&key.dport).map(Vec::as_slice),
            self.rule_by_sport.get(&key.sport).map(Vec::as_slice),
            Some(self.rule_wild.as_slice()),
        ];
        for &rid in rule_buckets.into_iter().flatten().flatten() {
            let (rule, run) = self.rules[rid as usize];
            if rule.matches_key(key) {
                f(self.store.get(run));
            }
        }
    }
}

/// Per-alarm hit accumulator: append-only runs with adjacent
/// duplicates collapsed, canonicalized (sorted + deduplicated) once at
/// [`finish`](HitSink::finish) — sorted-run dedup instead of one hash
/// insertion per hit.
#[derive(Debug)]
pub(crate) struct HitSink {
    hits: Vec<Vec<u32>>,
}

impl HitSink {
    pub(crate) fn new(alarm_count: usize) -> Self {
        HitSink {
            hits: vec![Vec::new(); alarm_count],
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, alarm: u32, id: u32) {
        let run = &mut self.hits[alarm as usize];
        if run.last() != Some(&id) {
            run.push(id);
        }
    }

    /// Folds another sink's runs onto this one (shard merge; the final
    /// canonical sort erases the concatenation order).
    pub(crate) fn absorb(&mut self, other: HitSink) {
        for (run, mut extra) in self.hits.iter_mut().zip(other.hits) {
            if run.is_empty() {
                *run = std::mem::take(&mut extra);
            } else {
                run.extend_from_slice(&extra);
            }
        }
    }

    /// One sorted, deduplicated id set per alarm, in alarm order.
    pub(crate) fn finish(self) -> Vec<Vec<u32>> {
        let mut hits = self.hits;
        mawilab_exec::par_for_each_mut(&mut hits, |run| {
            run.sort_unstable();
            run.dedup();
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_detectors::{DetectorKind, Tuning};
    use mawilab_model::TimeWindow;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 4, 4, d)
    }

    fn key(src: u8, sport: u16, dst: u8, dport: u16) -> FlowKey {
        FlowKey {
            src: ip(src),
            dst: ip(dst),
            sport,
            dport,
            proto: mawilab_model::Protocol::Tcp,
        }
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

    /// Every alarm scoped to `key` whose window holds one of the
    /// time-sorted `ts`, sorted: what the per-unit resolve reports for
    /// a unit with key `key` and time run `ts`.
    fn stabbed(index: &AlarmIndex<'_>, key: &FlowKey, ts: &[u64]) -> Vec<u32> {
        let mut got = Vec::new();
        index.for_each_run(key, |run| run.stab_sorted(ts, |a| got.push(a)));
        got.sort_unstable();
        got
    }

    /// Every (key, ts) probe must agree with the direct per-alarm
    /// `matches_key` + window test.
    #[test]
    fn candidates_agree_with_direct_matching() {
        let w1 = TimeWindow::new(0, 100);
        let w2 = TimeWindow::new(50, 150);
        let mut alarms = vec![
            alarm(AlarmScope::SrcHost(ip(1)), w1),
            alarm(AlarmScope::DstHost(ip(2)), w2),
            alarm(AlarmScope::FlowSet(vec![key(1, 10, 2, 20)]), w1),
            alarm(
                AlarmScope::Rule(TrafficRule {
                    dport: Some(20),
                    ..Default::default()
                }),
                w2,
            ),
            alarm(AlarmScope::Rule(TrafficRule::any()), w1),
            alarm(
                AlarmScope::Rule(TrafficRule {
                    src: Some(ip(3)),
                    dport: Some(99),
                    ..Default::default()
                }),
                TimeWindow::new(10, 20),
            ),
            // A FlowSet listing one key twice.
            alarm(
                AlarmScope::FlowSet(vec![key(3, 5, 4, 99), key(3, 5, 4, 99)]),
                w1,
            ),
            // One key named by several alarms, windows arriving out of
            // order.
            alarm(
                AlarmScope::FlowSet(vec![key(5, 1, 6, 2)]),
                TimeWindow::new(120, 160),
            ),
            alarm(
                AlarmScope::FlowSet(vec![key(5, 1, 6, 2), key(1, 10, 2, 20)]),
                TimeWindow::new(40, 60),
            ),
            alarm(
                AlarmScope::FlowSet(vec![key(5, 1, 6, 2)]),
                TimeWindow::new(0, 15),
            ),
        ];
        // A rule shared by many alarms, latest window first.
        let shared = TrafficRule {
            sport: Some(5),
            ..Default::default()
        };
        for i in (0..12u64).rev() {
            let window = TimeWindow::new(i * 13, i * 13 + 20);
            alarms.push(alarm(AlarmScope::Rule(shared), window));
        }
        let index = AlarmIndex::new(&alarms);
        let keys = [
            key(1, 10, 2, 20),
            key(3, 5, 4, 99),
            key(3, 5, 4, 98),
            key(5, 1, 6, 2),
            key(9, 9, 9, 9),
        ];
        for k in &keys {
            for ts in [
                0u64, 10, 14, 15, 49, 50, 59, 99, 100, 121, 149, 159, 160, 200,
            ] {
                let got = stabbed(&index, k, &[ts]);
                let want: Vec<u32> = alarms
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.window.contains(ts) && a.scope.matches_key(k))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, want, "key {k:?} ts {ts}");
            }
        }
    }

    #[test]
    fn shared_rule_scopes_are_deduplicated() {
        let rule = TrafficRule {
            dport: Some(445),
            ..Default::default()
        };
        let alarms: Vec<Alarm> = (0..10)
            .map(|i| alarm(AlarmScope::Rule(rule), TimeWindow::new(i * 10, i * 10 + 10)))
            .collect();
        let index = AlarmIndex::new(&alarms);
        assert_eq!(index.rules.len(), 1, "one distinct rule expected");
        assert_eq!(stabbed(&index, &key(1, 1, 2, 445), &[25]), vec![2]);
    }

    #[test]
    fn stab_sorted_hits_windows_holding_a_timestamp() {
        let alarms = vec![
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(0, 10)),
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(20, 30)),
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(5, 25)),
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(13, 17)),
        ];
        let index = AlarmIndex::new(&alarms);
        let k = key(1, 1, 2, 2);
        // The span [12, 18] overlaps windows 2 and 3, but only window
        // 2 holds one of the timestamps.
        assert_eq!(stabbed(&index, &k, &[12, 18]), vec![2]);
        assert_eq!(stabbed(&index, &k, &[9, 20]), vec![0, 1, 2]);
        assert!(stabbed(&index, &k, &[]).is_empty());
    }

    #[test]
    fn hit_sink_collapses_and_canonicalizes() {
        let mut sink = HitSink::new(2);
        for id in [5u32, 5, 5, 3, 3, 5] {
            sink.push(0, id);
        }
        sink.push(1, 9);
        let mut other = HitSink::new(2);
        other.push(0, 1);
        sink.absorb(other);
        assert_eq!(sink.finish(), vec![vec![1, 3, 5], vec![9]]);
    }

    #[test]
    fn runs_of_a_key_are_disjoint_and_cover_every_matching_scope() {
        let w = TimeWindow::all();
        let rule = TrafficRule {
            src: Some(ip(1)),
            ..Default::default()
        };
        let alarms = vec![
            alarm(AlarmScope::SrcHost(ip(1)), w),
            alarm(AlarmScope::SrcHost(ip(1)), w),
            alarm(AlarmScope::DstHost(ip(2)), w),
            alarm(AlarmScope::Rule(rule), w),
            alarm(AlarmScope::Rule(rule), w),
            alarm(
                AlarmScope::FlowSet(vec![key(1, 1, 2, 2), key(1, 1, 2, 2)]),
                w,
            ),
            alarm(AlarmScope::DstHost(ip(9)), w),
        ];
        let index = AlarmIndex::new(&alarms);
        let mut runs = 0;
        let mut got = Vec::new();
        index.for_each_run(&key(1, 1, 2, 2), |run| {
            runs += 1;
            run.stab_sorted(&[0], |a| got.push(a));
        });
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "each alarm exactly once");
        assert_eq!(runs, 4, "src, dst, flow and one shared rule run");
    }
}
