//! Inverted alarm index: flow key → candidate alarms, stabbed by time.
//!
//! The seed extractors test every packet against every alarm —
//! O(alarms × packets) scope tests with a fresh hash set per alarm.
//! This module inverts the direction: alarms are indexed **once** by
//! the concrete 5-tuple fields their scopes constrain, so resolving a
//! packet costs one candidate lookup per *distinct flow key* plus an
//! interval stab over the candidates' time windows. Every
//! [`AlarmScope`] is a pure function of the 5-tuple
//! ([`AlarmScope::matches_key`]), which is what makes per-key
//! memoization sound.
//!
//! Three structures cooperate:
//!
//! * [`AlarmIndex`] — host/flow scopes become hash buckets; `Rule`
//!   scopes are deduplicated (detectors re-emit the same mined rule
//!   across many analysis windows) and bucketed by their most
//!   selective concrete field, with a verification pass on the
//!   remaining wildcards.
//! * [`AlarmRun`] — one flow key's candidate alarms as an
//!   interval-stabbable run: entries sorted by window start with a
//!   prefix-max of window ends, so a timestamp probe touches only
//!   candidates whose windows can still contain it.
//! * [`KeyMemo`] / [`HitSink`] — candidates are resolved once per
//!   distinct key, and per-alarm hits accumulate as append-only runs
//!   (adjacent duplicates collapsed) that are sorted and deduplicated
//!   once at the end, instead of hashing every hit.
//!
//! All consumers canonicalize by a final sort + dedup, so the output
//! is byte-identical to the seed per-alarm scan at any thread count.

use mawilab_detectors::{Alarm, AlarmScope};
use mawilab_model::{FlowKey, TrafficRule};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One flow key's candidate alarms, interval-stabbable by timestamp.
#[derive(Debug, Clone, Default)]
pub(crate) struct AlarmRun {
    /// `(window start, window end, alarm index)`, sorted.
    entries: Vec<(u64, u64, u32)>,
    /// `prefix_max_end[j]` = max window end over `entries[..=j]`.
    prefix_max_end: Vec<u64>,
}

impl AlarmRun {
    /// `ids` must be duplicate-free — [`AlarmIndex::candidates_for`]
    /// guarantees it (each scope is exactly one variant and each
    /// distinct rule lives in exactly one bucket), which saves a
    /// sort + dedup here on the per-distinct-flow hot path.
    fn build(ids: Vec<u32>, alarms: &[Alarm]) -> Self {
        debug_assert!(
            {
                let mut check = ids.clone();
                check.sort_unstable();
                check.dedup();
                check.len() == ids.len()
            },
            "candidate alarm ids must be unique"
        );
        let mut entries: Vec<(u64, u64, u32)> = ids
            .into_iter()
            .map(|a| {
                let w = &alarms[a as usize].window;
                (w.start_us, w.end_us, a)
            })
            .collect();
        entries.sort_unstable();
        let mut prefix_max_end = Vec::with_capacity(entries.len());
        let mut max_end = 0u64;
        for &(_, end, _) in &entries {
            max_end = max_end.max(end);
            prefix_max_end.push(max_end);
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "AlarmRun entries must be sorted for partition_point stabbing"
        );
        debug_assert!(
            prefix_max_end.windows(2).all(|w| w[0] <= w[1])
                && entries
                    .iter()
                    .zip(&prefix_max_end)
                    .all(|(&(_, end, _), &pm)| pm >= end),
            "prefix_max_end must be the running max of window ends"
        );
        AlarmRun {
            entries,
            prefix_max_end,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Calls `hit` for every candidate alarm whose window contains
    /// `ts` (half-open `[start, end)`). Candidates starting after `ts`
    /// are skipped by binary search; the prefix-max of ends terminates
    /// the backward scan as soon as no earlier window can still reach
    /// `ts`.
    #[inline]
    pub(crate) fn stab(&self, ts: u64, mut hit: impl FnMut(u32)) {
        let p = self.entries.partition_point(|&(start, _, _)| start <= ts);
        for j in (0..p).rev() {
            if self.prefix_max_end[j] <= ts {
                break;
            }
            let (_, end, a) = self.entries[j];
            if end > ts {
                hit(a);
            }
        }
    }

    /// Calls `hit` for every candidate alarm whose window overlaps the
    /// inclusive timestamp range `[first_ts, last_ts]`.
    pub(crate) fn stab_span(&self, first_ts: u64, last_ts: u64, mut hit: impl FnMut(u32)) {
        let p = self
            .entries
            .partition_point(|&(start, _, _)| start <= last_ts);
        for j in (0..p).rev() {
            if self.prefix_max_end[j] <= first_ts {
                break;
            }
            let (_, end, a) = self.entries[j];
            if end > first_ts {
                hit(a);
            }
        }
    }
}

/// Alarm scopes inverted into hash buckets on their concrete 5-tuple
/// fields. Build once per alarm set; query per distinct flow key.
#[derive(Debug)]
pub(crate) struct AlarmIndex<'a> {
    alarms: &'a [Alarm],
    by_src: HashMap<Ipv4Addr, Vec<u32>>,
    by_dst: HashMap<Ipv4Addr, Vec<u32>>,
    by_flow: HashMap<FlowKey, Vec<u32>>,
    /// Distinct `Rule` scopes with the alarms carrying each (detectors
    /// re-emit one mined rule across many windows — resolve it once).
    rules: Vec<(&'a TrafficRule, Vec<u32>)>,
    /// Rule ids bucketed by their most selective concrete field; a
    /// bucket hit still verifies the rule's remaining constraints.
    rule_by_src: HashMap<Ipv4Addr, Vec<u32>>,
    rule_by_dst: HashMap<Ipv4Addr, Vec<u32>>,
    rule_by_dport: HashMap<u16, Vec<u32>>,
    rule_by_sport: HashMap<u16, Vec<u32>>,
    /// Rules with no concrete endpoint field (proto-only/any).
    rule_wild: Vec<u32>,
}

impl<'a> AlarmIndex<'a> {
    pub(crate) fn new(alarms: &'a [Alarm]) -> Self {
        let mut ix = AlarmIndex {
            alarms,
            by_src: HashMap::new(),
            by_dst: HashMap::new(),
            by_flow: HashMap::new(),
            rules: Vec::new(),
            rule_by_src: HashMap::new(),
            rule_by_dst: HashMap::new(),
            rule_by_dport: HashMap::new(),
            rule_by_sport: HashMap::new(),
            rule_wild: Vec::new(),
        };
        let mut rule_ids: HashMap<&TrafficRule, u32> = HashMap::new();
        for (ai, alarm) in alarms.iter().enumerate() {
            let ai = ai as u32;
            match &alarm.scope {
                AlarmScope::SrcHost(ip) => ix.by_src.entry(*ip).or_default().push(ai),
                AlarmScope::DstHost(ip) => ix.by_dst.entry(*ip).or_default().push(ai),
                AlarmScope::FlowSet(keys) => {
                    for k in keys {
                        let bucket = ix.by_flow.entry(*k).or_default();
                        // A scope listing one key twice must not
                        // register the alarm twice.
                        if bucket.last() != Some(&ai) {
                            bucket.push(ai);
                        }
                    }
                }
                AlarmScope::Rule(rule) => {
                    let next_id = ix.rules.len() as u32;
                    let rid = *rule_ids.entry(rule).or_insert(next_id);
                    if rid == next_id {
                        ix.rules.push((rule, Vec::new()));
                        if let Some(ip) = rule.src {
                            ix.rule_by_src.entry(ip).or_default().push(rid);
                        } else if let Some(ip) = rule.dst {
                            ix.rule_by_dst.entry(ip).or_default().push(rid);
                        } else if let Some(port) = rule.dport {
                            ix.rule_by_dport.entry(port).or_default().push(rid);
                        } else if let Some(port) = rule.sport {
                            ix.rule_by_sport.entry(port).or_default().push(rid);
                        } else {
                            ix.rule_wild.push(rid);
                        }
                    }
                    ix.rules[rid as usize].1.push(ai);
                }
            }
        }
        ix
    }

    /// Resolves every alarm whose scope matches `key` into a stabbable
    /// run. Each alarm appears at most once: a scope is exactly one
    /// variant and each distinct rule lives in exactly one bucket.
    pub(crate) fn candidates_for(&self, key: &FlowKey) -> AlarmRun {
        let mut ids: Vec<u32> = Vec::new();
        if let Some(v) = self.by_src.get(&key.src) {
            ids.extend_from_slice(v);
        }
        if let Some(v) = self.by_dst.get(&key.dst) {
            ids.extend_from_slice(v);
        }
        if let Some(v) = self.by_flow.get(key) {
            ids.extend_from_slice(v);
        }
        let mut probe_rules = |rids: &[u32]| {
            for &rid in rids {
                let (rule, alarms) = &self.rules[rid as usize];
                if rule.matches_key(key) {
                    ids.extend_from_slice(alarms);
                }
            }
        };
        if let Some(v) = self.rule_by_src.get(&key.src) {
            probe_rules(v);
        }
        if let Some(v) = self.rule_by_dst.get(&key.dst) {
            probe_rules(v);
        }
        if let Some(v) = self.rule_by_dport.get(&key.dport) {
            probe_rules(v);
        }
        if let Some(v) = self.rule_by_sport.get(&key.sport) {
            probe_rules(v);
        }
        probe_rules(&self.rule_wild);
        AlarmRun::build(ids, self.alarms)
    }
}

/// Memoizes [`AlarmIndex::candidates_for`] per distinct flow key, for
/// the horizon extractor's fresh chunks, where packets of one flow
/// recur across chunks.
#[derive(Debug, Default)]
pub(crate) struct KeyMemo {
    slots: HashMap<FlowKey, u32>,
    runs: Vec<AlarmRun>,
}

impl KeyMemo {
    pub(crate) fn run_for(&mut self, index: &AlarmIndex<'_>, key: &FlowKey) -> &AlarmRun {
        let runs = &mut self.runs;
        let slot = *self.slots.entry(*key).or_insert_with(|| {
            runs.push(index.candidates_for(key));
            (runs.len() - 1) as u32
        });
        &self.runs[slot as usize]
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

    /// Every (key, ts) probe must agree with the direct per-alarm
    /// `matches_key` + window test.
    #[test]
    fn candidates_agree_with_direct_matching() {
        let w1 = TimeWindow::new(0, 100);
        let w2 = TimeWindow::new(50, 150);
        let alarms = vec![
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
        ];
        let index = AlarmIndex::new(&alarms);
        let keys = [
            key(1, 10, 2, 20),
            key(3, 5, 4, 99),
            key(3, 5, 4, 98),
            key(9, 9, 9, 9),
        ];
        for k in &keys {
            for ts in [0u64, 10, 49, 50, 99, 100, 149, 200] {
                let mut got: Vec<u32> = Vec::new();
                index.candidates_for(k).stab(ts, |a| got.push(a));
                got.sort_unstable();
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
        let mut got = Vec::new();
        index
            .candidates_for(&key(1, 1, 2, 445))
            .stab(25, |a| got.push(a));
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn stab_span_finds_overlapping_windows() {
        let alarms = vec![
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(0, 10)),
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(20, 30)),
            alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::new(5, 25)),
        ];
        let index = AlarmIndex::new(&alarms);
        let run = index.candidates_for(&key(1, 1, 2, 2));
        let mut got = Vec::new();
        run.stab_span(12, 18, |a| got.push(a));
        got.sort_unstable();
        assert_eq!(got, vec![2], "only the straddling window overlaps");
        got.clear();
        run.stab_span(9, 20, |a| got.push(a));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
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
    fn key_memo_resolves_each_key_once() {
        let alarms = vec![alarm(AlarmScope::SrcHost(ip(1)), TimeWindow::all())];
        let index = AlarmIndex::new(&alarms);
        let mut memo = KeyMemo::default();
        let k = key(1, 1, 2, 2);
        assert!(!memo.run_for(&index, &k).is_empty());
        assert!(!memo.run_for(&index, &k).is_empty());
        assert_eq!(memo.runs.len(), 1, "second probe must reuse the slot");
    }
}
