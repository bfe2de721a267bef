//! Longitudinal label-stability evaluation — the month-scale view.
//!
//! The MAWILab service's value is *continuous* operation over the
//! archive (paper §3, §6): a label stream is only useful if it stays
//! consistent day after day, through link upgrades and the
//! Blaster/Sasser outbreak epochs that destabilise individual
//! detectors (Figs. 7–8). This module measures exactly that, given a
//! sequence of per-day labeled reports:
//!
//! * **label churn** — communities are matched across adjacent days by
//!   a stable [`AnomalyIdentity`] (Table-1 taxonomy code + dominant
//!   rule scope); churn is the fraction of matched identities whose
//!   taxonomy label flips between the two days;
//! * **decision flip rates** — the same matching, per combination
//!   strategy, over raw accept/reject decisions;
//! * **Jaccard drift** — one minus the Jaccard similarity of the two
//!   days' anomalous identity sets: how much of yesterday's anomalous
//!   picture survives today;
//! * **outbreak response** — for each worm epoch, the calendar days
//!   from onset (first day the worm is injected) until its traffic is
//!   labeled `anomalous`, and how stably the long residual tail keeps
//!   that label.
//!
//! Community ids and traffic-unit ids are per-day artifacts, so none
//! of them can anchor a cross-day match; identities are built purely
//! from day-invariant features of the labeled output.

use mawilab_combiner::{ConfidenceTier, Decision};
use mawilab_label::{HeuristicLabel, LabeledCommunity, MawilabLabel};
use mawilab_model::{LinkEra, TraceDate, TrafficRule};
use std::collections::{BTreeMap, BTreeSet};

/// Scope of a community's dominant association rule: which feature
/// dimensions pin its traffic down. The MAWILab filters distinguish
/// point-to-point anomalies from one-to-many sources/sinks; the scope
/// is stable across days while the concrete addresses are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleScope {
    /// Both endpoints fixed (point-to-point).
    SrcDst,
    /// Source fixed, destinations spread (scan / outbound flood).
    SrcOnly,
    /// Destination fixed, sources spread (DDoS sink / inbound flood).
    DstOnly,
    /// Only ports fixed (service-wide pattern).
    PortsOnly,
    /// No 4-tuple constraint survived mining.
    Broad,
}

impl RuleScope {
    /// Scope of one rule.
    pub fn of(rule: &TrafficRule) -> RuleScope {
        match (rule.src.is_some(), rule.dst.is_some()) {
            (true, true) => RuleScope::SrcDst,
            (true, false) => RuleScope::SrcOnly,
            (false, true) => RuleScope::DstOnly,
            (false, false) if rule.sport.is_some() || rule.dport.is_some() => RuleScope::PortsOnly,
            (false, false) => RuleScope::Broad,
        }
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleScope::SrcDst => "src+dst",
            RuleScope::SrcOnly => "src",
            RuleScope::DstOnly => "dst",
            RuleScope::PortsOnly => "ports",
            RuleScope::Broad => "broad",
        }
    }
}

/// Day-stable identity of an anomaly: the Table-1 taxonomy code of
/// its traffic plus the scope of its dominant (highest-support)
/// association rule. Two communities on different days with the same
/// identity are treated as observations of the same ongoing anomaly
/// class — the granularity at which an archive operator tracks
/// stability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnomalyIdentity {
    /// Table-1 heuristic label.
    pub heuristic: HeuristicLabel,
    /// Dominant rule scope.
    pub scope: RuleScope,
}

impl AnomalyIdentity {
    /// Identity of one labeled community. The dominant rule is the
    /// first of the summary (rules are sorted by support, descending);
    /// rule-less communities get [`RuleScope::Broad`].
    pub fn of(lc: &LabeledCommunity) -> AnomalyIdentity {
        AnomalyIdentity {
            heuristic: lc.heuristic,
            scope: lc
                .summary
                .rules
                .first()
                .map_or(RuleScope::Broad, |(rule, _)| RuleScope::of(rule)),
        }
    }

    /// Stable report code, e.g. `sasser/src` or `unknown/broad`.
    pub fn code(&self) -> String {
        format!(
            "{}/{}",
            self.heuristic.to_string().to_lowercase().replace(' ', "-"),
            self.scope.name()
        )
    }

    fn rank(&self) -> (usize, RuleScope) {
        let h = HeuristicLabel::ALL
            .iter()
            .position(|&h| h == self.heuristic)
            .unwrap_or(HeuristicLabel::ALL.len());
        (h, self.scope)
    }
}

impl PartialOrd for AnomalyIdentity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AnomalyIdentity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// Whether one worm epoch's traffic was injected and caught on a day.
#[derive(Debug, Clone)]
pub struct WormStatus {
    /// Worm name (`blaster`, `sasser`).
    pub worm: &'static str,
    /// True when at least one community labeled `anomalous` covers
    /// this worm's injected traffic that day.
    pub labeled_anomalous: bool,
}

/// One day of the archive, reduced to its stability-relevant facts.
#[derive(Debug, Clone)]
pub struct DaySummary {
    /// The archive day.
    pub date: TraceDate,
    /// Identity → most severe taxonomy label among the day's
    /// communities carrying it (`Anomalous` orders first).
    pub labels: BTreeMap<AnomalyIdentity, MawilabLabel>,
    /// Identity → confidence tier of the community whose label won the
    /// severity merge (first community wins ties). Lets churn and
    /// flip-rate aggregates be restricted to confidently-labeled
    /// identities.
    pub tiers: BTreeMap<AnomalyIdentity, ConfidenceTier>,
    /// Identities labeled `anomalous` (the day's anomalous picture).
    pub anomalous: BTreeSet<AnomalyIdentity>,
    /// Per combination strategy: identity → whether any community
    /// with that identity was accepted.
    pub strategy_accepts: Vec<(&'static str, BTreeMap<AnomalyIdentity, bool>)>,
    /// Worm epochs injected this day, with their detection status.
    pub worms: Vec<WormStatus>,
    /// Total labeled communities (denominator context for reports).
    pub communities: usize,
}

impl DaySummary {
    /// Reduces one day's labeled report. `strategies` carries each
    /// combination strategy's decisions over the same communities (one
    /// decision per labeled community, in community order).
    pub fn new(
        date: TraceDate,
        labeled: &[LabeledCommunity],
        strategies: &[(&'static str, Vec<Decision>)],
        worms: Vec<WormStatus>,
    ) -> Self {
        let mut labels: BTreeMap<AnomalyIdentity, MawilabLabel> = BTreeMap::new();
        let mut tiers: BTreeMap<AnomalyIdentity, ConfidenceTier> = BTreeMap::new();
        let mut anomalous = BTreeSet::new();
        for lc in labeled {
            let id = AnomalyIdentity::of(lc);
            // `MawilabLabel` orders by severity (Anomalous first);
            // identities merging several communities keep the most
            // severe view, as the published database effectively does
            // when filters overlap. The tier follows the community
            // whose label won the merge (strict `<` keeps the first
            // community on ties).
            match labels.get(&id) {
                Some(current) if lc.label >= *current => {}
                _ => {
                    labels.insert(id, lc.label);
                    tiers.insert(id, lc.confidence.tier);
                }
            }
            if lc.label == MawilabLabel::Anomalous {
                anomalous.insert(id);
            }
        }
        let strategy_accepts = strategies
            .iter()
            .map(|(name, decisions)| {
                assert_eq!(
                    decisions.len(),
                    labeled.len(),
                    "strategy {name}: one decision per community required"
                );
                let mut accepts: BTreeMap<AnomalyIdentity, bool> = BTreeMap::new();
                for (lc, d) in labeled.iter().zip(decisions) {
                    let e = accepts.entry(AnomalyIdentity::of(lc)).or_insert(false);
                    *e |= d.accepted;
                }
                (*name, accepts)
            })
            .collect();
        DaySummary {
            date,
            labels,
            tiers,
            anomalous,
            strategy_accepts,
            worms,
            communities: labeled.len(),
        }
    }
}

/// Per-strategy flip counts of one adjacent-day pair.
#[derive(Debug, Clone)]
pub struct StrategyFlips {
    /// Strategy name.
    pub strategy: &'static str,
    /// Identities present on both days.
    pub matched: usize,
    /// Matched identities whose accept/reject decision differs.
    pub flips: usize,
}

impl StrategyFlips {
    /// Flips over matches (0 when nothing matched).
    pub fn flip_rate(&self) -> f64 {
        ratio(self.flips as f64, self.matched)
    }
}

/// Stability comparison of two adjacent sampled days.
#[derive(Debug, Clone)]
pub struct AdjacentPair {
    /// Earlier day.
    pub from: TraceDate,
    /// Later day.
    pub to: TraceDate,
    /// Calendar distance in days.
    pub gap_days: i64,
    /// Identities present on both days.
    pub matched: usize,
    /// Matched identities whose taxonomy label differs.
    pub label_flips: usize,
    /// Matched identities whose merged tier is *not* `Uncertain` on
    /// both days — the confidently-labeled subset of `matched`.
    pub matched_confident: usize,
    /// Label flips among `matched_confident`.
    pub label_flips_confident: usize,
    /// Jaccard similarity of the two anomalous identity sets
    /// (1.0 when both are empty — nothing drifted).
    pub jaccard_anomalous: f64,
    /// Per-strategy decision flips over the matched identities.
    pub strategies: Vec<StrategyFlips>,
}

impl AdjacentPair {
    /// Label flips over matches (0 when nothing matched).
    pub fn churn(&self) -> f64 {
        ratio(self.label_flips as f64, self.matched)
    }

    /// Label flips over the confidently-labeled matches (0 when
    /// nothing confident matched). The abstention tier exists exactly
    /// so this number can sit below [`churn`](Self::churn): flips
    /// concentrated in the uncertain band stop counting against the
    /// service once the band abstains.
    pub fn churn_confident(&self) -> f64 {
        ratio(self.label_flips_confident as f64, self.matched_confident)
    }

    /// `1 - jaccard_anomalous`: how much of the anomalous picture
    /// changed.
    pub fn jaccard_drift(&self) -> f64 {
        1.0 - self.jaccard_anomalous
    }
}

fn compare_pair(a: &DaySummary, b: &DaySummary) -> AdjacentPair {
    let mut matched = 0usize;
    let mut label_flips = 0usize;
    let mut matched_confident = 0usize;
    let mut label_flips_confident = 0usize;
    for (id, la) in &a.labels {
        if let Some(lb) = b.labels.get(id) {
            matched += 1;
            let flipped = la != lb;
            if flipped {
                label_flips += 1;
            }
            // An identity counts as confident only when *both* days'
            // merged tiers sit outside the abstention band.
            let confident = |d: &DaySummary| {
                d.tiers
                    .get(id)
                    .is_some_and(|t| *t != ConfidenceTier::Uncertain)
            };
            if confident(a) && confident(b) {
                matched_confident += 1;
                if flipped {
                    label_flips_confident += 1;
                }
            }
        }
    }
    let inter = a.anomalous.intersection(&b.anomalous).count();
    let union = a.anomalous.union(&b.anomalous).count();
    let jaccard_anomalous = if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    };
    let strategies = a
        .strategy_accepts
        .iter()
        .map(|(name, accepts_a)| {
            let accepts_b = b
                .strategy_accepts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| m);
            let mut s = StrategyFlips {
                strategy: name,
                matched: 0,
                flips: 0,
            };
            if let Some(accepts_b) = accepts_b {
                for (id, va) in accepts_a {
                    if let Some(vb) = accepts_b.get(id) {
                        s.matched += 1;
                        if va != vb {
                            s.flips += 1;
                        }
                    }
                }
            }
            s
        })
        .collect();
    AdjacentPair {
        from: a.date,
        to: b.date,
        gap_days: b.date.days_since_epoch() - a.date.days_since_epoch(),
        matched,
        label_flips,
        matched_confident,
        label_flips_confident,
        jaccard_anomalous,
        strategies,
    }
}

/// Compares every consecutive pair of the (date-ordered) day
/// sequence.
pub fn adjacent_pairs(days: &[DaySummary]) -> Vec<AdjacentPair> {
    days.windows(2)
        .map(|w| compare_pair(&w[0], &w[1]))
        .collect()
}

/// Response of the labeling service to one worm epoch.
#[derive(Debug, Clone)]
pub struct OutbreakResponse {
    /// Worm name.
    pub worm: &'static str,
    /// First sampled day the worm's traffic was injected.
    pub onset: Option<TraceDate>,
    /// First sampled day its traffic was labeled `anomalous`.
    pub first_labeled: Option<TraceDate>,
    /// Calendar days from onset to the first anomalous label (0 =
    /// caught on its first sampled day).
    pub response_days: Option<i64>,
    /// Sampled worm days after the first labeled day — the residual
    /// tail under observation.
    pub residual_days: usize,
    /// Residual-tail days still labeled `anomalous`.
    pub residual_stable_days: usize,
}

impl OutbreakResponse {
    /// Fraction of the residual tail that kept the anomalous label
    /// (1.0 when no residual day was sampled — nothing destabilised).
    pub fn residual_stability(&self) -> f64 {
        if self.residual_days == 0 {
            1.0
        } else {
            self.residual_stable_days as f64 / self.residual_days as f64
        }
    }
}

/// Outbreak response per worm, in order of first appearance.
pub fn outbreak_response(days: &[DaySummary]) -> Vec<OutbreakResponse> {
    let mut order: Vec<&'static str> = Vec::new();
    for day in days {
        for w in &day.worms {
            if !order.contains(&w.worm) {
                order.push(w.worm);
            }
        }
    }
    order
        .into_iter()
        .map(|worm| {
            let mut resp = OutbreakResponse {
                worm,
                onset: None,
                first_labeled: None,
                response_days: None,
                residual_days: 0,
                residual_stable_days: 0,
            };
            for day in days {
                let Some(status) = day.worms.iter().find(|w| w.worm == worm) else {
                    continue;
                };
                if resp.onset.is_none() {
                    resp.onset = Some(day.date);
                }
                match resp.first_labeled {
                    None => {
                        if status.labeled_anomalous {
                            resp.first_labeled = Some(day.date);
                            resp.response_days = Some(
                                day.date.days_since_epoch()
                                    - resp.onset.unwrap().days_since_epoch(),
                            );
                        }
                    }
                    Some(_) => {
                        resp.residual_days += 1;
                        if status.labeled_anomalous {
                            resp.residual_stable_days += 1;
                        }
                    }
                }
            }
            resp
        })
        .collect()
}

/// One calendar month's slice of the stability trajectory — the unit
/// a month-scale (`--days`/`--months`) sweep is read at. Pairs are
/// bucketed by the *later* day's month.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlyStability {
    /// Calendar year of the bucket.
    pub year: u16,
    /// Calendar month 1–12.
    pub month: u8,
    /// Adjacent pairs landing in this month.
    pub pairs: usize,
    /// Total matched identities over those pairs.
    pub matched: usize,
    /// Total taxonomy-label flips over those pairs.
    pub flips: usize,
    /// Sum of per-pair Jaccard drift (divide by `pairs` for the mean).
    pub drift_sum: f64,
}

impl MonthlyStability {
    /// Pooled label churn of the month (0 when nothing matched).
    pub fn churn(&self) -> f64 {
        ratio(self.flips as f64, self.matched)
    }

    /// Mean Jaccard drift of the month (0 when no pairs).
    pub fn jaccard_drift(&self) -> f64 {
        ratio(self.drift_sum, self.pairs)
    }
}

/// An adjacent pair whose days fall under different link eras — the
/// label shock of a capacity upgrade, reported next to (never pooled
/// into) the day-over-day stability aggregates.
#[derive(Debug, Clone)]
pub struct EraTransition {
    /// Last day under the old era.
    pub from: TraceDate,
    /// First sampled day under the new era.
    pub to: TraceDate,
    /// Era before the boundary.
    pub from_era: LinkEra,
    /// Era after the boundary.
    pub to_era: LinkEra,
    /// Identities matched across the boundary.
    pub matched: usize,
    /// Matched identities whose taxonomy label flipped.
    pub label_flips: usize,
    /// Jaccard drift of the anomalous sets across the boundary.
    pub jaccard_drift: f64,
}

impl EraTransition {
    /// Label churn across the boundary.
    pub fn churn(&self) -> f64 {
        ratio(self.label_flips as f64, self.matched)
    }
}

/// `num / den`, or 0 when `den` is 0: every rate here reads "nothing
/// to compare" as no churn.
fn ratio(num: f64, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Buckets gap-filtered pairs by the later day's calendar month.
fn monthly_stability(pairs: &[AdjacentPair]) -> Vec<MonthlyStability> {
    let mut months: BTreeMap<(u16, u8), MonthlyStability> = BTreeMap::new();
    for p in pairs {
        let m = months
            .entry((p.to.year, p.to.month))
            .or_insert(MonthlyStability {
                year: p.to.year,
                month: p.to.month,
                pairs: 0,
                matched: 0,
                flips: 0,
                drift_sum: 0.0,
            });
        m.pairs += 1;
        m.matched += p.matched;
        m.flips += p.label_flips;
        m.drift_sum += p.jaccard_drift();
    }
    months.into_values().collect()
}

/// Extracts the era-boundary crossings from an adjacent-pair sequence
/// (all pairs, not only gap-filtered ones — a sparse sample may jump
/// the boundary with a wide gap).
pub fn era_transitions(pairs: &[AdjacentPair]) -> Vec<EraTransition> {
    pairs
        .iter()
        .filter(|p| LinkEra::for_date(p.from) != LinkEra::for_date(p.to))
        .map(|p| EraTransition {
            from: p.from,
            to: p.to,
            from_era: LinkEra::for_date(p.from),
            to_era: LinkEra::for_date(p.to),
            matched: p.matched,
            label_flips: p.label_flips,
            jaccard_drift: p.jaccard_drift(),
        })
        .collect()
}

/// The full longitudinal report over a sampled day sequence.
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// Adjacent-day comparisons that entered the aggregates: pairs
    /// whose calendar gap is at most `max_gap_days` *and* whose days
    /// share a link era. Wider gaps and era-boundary crossings
    /// measure epoch change, not day-over-day stability — crossings
    /// are itemised in [`era_transitions`](Self::era_transitions)
    /// instead.
    pub pairs: Vec<AdjacentPair>,
    /// Pooled label churn: total flips / total matches over `pairs`.
    pub label_churn: f64,
    /// Pooled label churn restricted to identities confidently
    /// labeled on both days of their pair (tier ≠ `Uncertain`). With
    /// abstention thresholds off every label is confident and this
    /// equals `label_churn`.
    pub label_churn_confident: f64,
    /// Mean Jaccard drift of the anomalous sets over `pairs`.
    pub jaccard_drift: f64,
    /// Pooled per-strategy decision flip rates.
    pub strategy_flip_rates: Vec<(&'static str, f64)>,
    /// Outbreak response per worm epoch, over *all* sampled days.
    pub outbreaks: Vec<OutbreakResponse>,
    /// Month-by-month trajectory of `pairs`.
    pub monthly: Vec<MonthlyStability>,
    /// Link-era boundary crossings (from *all* adjacent pairs,
    /// gap-filtered or not).
    pub era_transitions: Vec<EraTransition>,
}

/// Builds the longitudinal report. `days` must be date-ordered;
/// consecutive pairs farther apart than `max_gap_days` are excluded
/// from the churn/drift aggregates (pass `i64::MAX` to keep all),
/// and pairs crossing a link-era boundary are pulled out into
/// `era_transitions` — the upgrade shock is reported next to, never
/// pooled into, the day-over-day stability numbers.
pub fn stability_report(days: &[DaySummary], max_gap_days: i64) -> StabilityReport {
    let all_pairs = adjacent_pairs(days);
    let transitions = era_transitions(&all_pairs);
    let pairs: Vec<AdjacentPair> = all_pairs
        .into_iter()
        .filter(|p| {
            p.gap_days <= max_gap_days && LinkEra::for_date(p.from) == LinkEra::for_date(p.to)
        })
        .collect();
    let (mut matched, mut flips) = (0usize, 0usize);
    let (mut matched_conf, mut flips_conf) = (0usize, 0usize);
    let mut drift_sum = 0.0;
    let mut strat: BTreeMap<usize, (&'static str, usize, usize)> = BTreeMap::new();
    for p in &pairs {
        matched += p.matched;
        flips += p.label_flips;
        matched_conf += p.matched_confident;
        flips_conf += p.label_flips_confident;
        drift_sum += p.jaccard_drift();
        for (i, s) in p.strategies.iter().enumerate() {
            let e = strat.entry(i).or_insert((s.strategy, 0, 0));
            e.1 += s.matched;
            e.2 += s.flips;
        }
    }
    StabilityReport {
        label_churn: ratio(flips as f64, matched),
        label_churn_confident: ratio(flips_conf as f64, matched_conf),
        jaccard_drift: ratio(drift_sum, pairs.len()),
        strategy_flip_rates: strat
            .into_values()
            .map(|(name, m, f)| (name, ratio(f as f64, m)))
            .collect(),
        outbreaks: outbreak_response(days),
        monthly: monthly_stability(&pairs),
        era_transitions: transitions,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_combiner::LabelConfidence;
    use mawilab_label::{CommunitySummary, HeuristicLabel};
    use mawilab_model::TimeWindow;
    use std::net::Ipv4Addr;

    fn rule(src: bool, dst: bool, dport: Option<u16>) -> TrafficRule {
        TrafficRule {
            src: src.then_some(Ipv4Addr::new(10, 0, 0, 1)),
            dst: dst.then_some(Ipv4Addr::new(10, 0, 0, 2)),
            sport: None,
            dport,
            proto: None,
        }
    }

    fn community(
        c: usize,
        heuristic: HeuristicLabel,
        label: MawilabLabel,
        dom: Option<TrafficRule>,
    ) -> LabeledCommunity {
        // Thresholds-off shape: every label is confident, tier bound
        // to the hard decision.
        let tier = if label == MawilabLabel::Anomalous {
            ConfidenceTier::Anomalous
        } else {
            ConfidenceTier::Benign
        };
        community_tiered(c, heuristic, label, dom, tier)
    }

    fn community_tiered(
        c: usize,
        heuristic: HeuristicLabel,
        label: MawilabLabel,
        dom: Option<TrafficRule>,
        tier: ConfidenceTier,
    ) -> LabeledCommunity {
        LabeledCommunity {
            community: c,
            label,
            confidence: LabelConfidence {
                score: match tier {
                    ConfidenceTier::Anomalous => 0.9,
                    ConfidenceTier::Uncertain => 0.5,
                    ConfidenceTier::Benign => 0.1,
                },
                tier,
            },
            heuristic,
            summary: CommunitySummary {
                community: c,
                rules: dom.into_iter().map(|r| (r, 10)).collect(),
                rule_degree: 1.0,
                rule_support: 0.8,
                transactions: 12,
            },
            window: TimeWindow::new(0, 1_000_000),
            alarms: 2,
            detectors: 2,
        }
    }

    fn accept(n: usize, which: &[usize]) -> Vec<Decision> {
        (0..n).map(|c| Decision::new(which.contains(&c))).collect()
    }

    fn date(d: u8) -> TraceDate {
        TraceDate::new(2004, 6, d)
    }

    #[test]
    fn rule_scope_classification() {
        assert_eq!(RuleScope::of(&rule(true, true, None)), RuleScope::SrcDst);
        assert_eq!(RuleScope::of(&rule(true, false, None)), RuleScope::SrcOnly);
        assert_eq!(RuleScope::of(&rule(false, true, None)), RuleScope::DstOnly);
        assert_eq!(
            RuleScope::of(&rule(false, false, Some(445))),
            RuleScope::PortsOnly
        );
        assert_eq!(RuleScope::of(&rule(false, false, None)), RuleScope::Broad);
    }

    #[test]
    fn identity_codes_are_stable_and_distinct() {
        let a = AnomalyIdentity {
            heuristic: HeuristicLabel::Sasser,
            scope: RuleScope::SrcOnly,
        };
        let b = AnomalyIdentity {
            heuristic: HeuristicLabel::OtherAttack,
            scope: RuleScope::DstOnly,
        };
        assert_eq!(a.code(), "sasser/src");
        assert_eq!(b.code(), "other-attacks/dst");
        assert!(a < b, "identities order by Table-1 rank");
    }

    /// Day 1: sasser/src anomalous + ping/dst notice.
    /// Day 2: sasser/src suspicious (flip!) + ping/dst notice + new
    /// smb/src+dst anomalous.
    fn two_days() -> Vec<DaySummary> {
        let d1 = vec![
            community(
                0,
                HeuristicLabel::Sasser,
                MawilabLabel::Anomalous,
                Some(rule(true, false, Some(5554))),
            ),
            community(
                1,
                HeuristicLabel::Ping,
                MawilabLabel::Notice,
                Some(rule(false, true, None)),
            ),
        ];
        let d2 = vec![
            community(
                0,
                HeuristicLabel::Sasser,
                MawilabLabel::Suspicious,
                Some(rule(true, false, Some(5554))),
            ),
            community(
                1,
                HeuristicLabel::Ping,
                MawilabLabel::Notice,
                Some(rule(false, true, None)),
            ),
            community(
                2,
                HeuristicLabel::Smb,
                MawilabLabel::Anomalous,
                Some(rule(true, true, Some(445))),
            ),
        ];
        vec![
            DaySummary::new(
                date(1),
                &d1,
                &[("scann", accept(2, &[0])), ("maximum", accept(2, &[0, 1]))],
                vec![WormStatus {
                    worm: "sasser",
                    labeled_anomalous: true,
                }],
            ),
            DaySummary::new(
                date(2),
                &d2,
                &[
                    ("scann", accept(3, &[2])),
                    ("maximum", accept(3, &[0, 1, 2])),
                ],
                vec![WormStatus {
                    worm: "sasser",
                    labeled_anomalous: false,
                }],
            ),
        ]
    }

    #[test]
    fn churn_counts_label_flips_over_matches() {
        let days = two_days();
        let pairs = adjacent_pairs(&days);
        assert_eq!(pairs.len(), 1);
        let p = &pairs[0];
        assert_eq!(p.gap_days, 1);
        assert_eq!(p.matched, 2, "sasser/src and ping/dst match");
        assert_eq!(p.label_flips, 1, "only sasser flipped");
        assert_eq!(p.churn(), 0.5);
        // Thresholds-off fixtures: every label confident, so the
        // confident view degenerates to the full one.
        assert_eq!(p.matched_confident, p.matched);
        assert_eq!(p.label_flips_confident, p.label_flips);
        assert_eq!(p.churn_confident(), p.churn());
    }

    #[test]
    fn uncertain_tiers_abstain_from_confident_churn() {
        // Same two-day shape, but day 2's sasser community — the one
        // that flips Anomalous→Suspicious — lands in the uncertain
        // band. The flip then disappears from the confident view.
        let d1 = vec![
            community(
                0,
                HeuristicLabel::Sasser,
                MawilabLabel::Anomalous,
                Some(rule(true, false, Some(5554))),
            ),
            community(
                1,
                HeuristicLabel::Ping,
                MawilabLabel::Notice,
                Some(rule(false, true, None)),
            ),
        ];
        let d2 = vec![
            community_tiered(
                0,
                HeuristicLabel::Sasser,
                MawilabLabel::Suspicious,
                Some(rule(true, false, Some(5554))),
                ConfidenceTier::Uncertain,
            ),
            community(
                1,
                HeuristicLabel::Ping,
                MawilabLabel::Notice,
                Some(rule(false, true, None)),
            ),
        ];
        let days = vec![
            DaySummary::new(date(1), &d1, &[], vec![]),
            DaySummary::new(date(2), &d2, &[], vec![]),
        ];
        let p = &adjacent_pairs(&days)[0];
        assert_eq!((p.matched, p.label_flips), (2, 1));
        assert_eq!(
            (p.matched_confident, p.label_flips_confident),
            (1, 0),
            "the uncertain sasser identity abstains"
        );
        assert_eq!(p.churn(), 0.5);
        assert_eq!(p.churn_confident(), 0.0);
        let report = stability_report(&days, 7);
        assert_eq!(report.label_churn, 0.5);
        assert_eq!(report.label_churn_confident, 0.0);
        assert!(report.label_churn_confident < report.label_churn);
    }

    #[test]
    fn tier_follows_the_severity_merge_winner() {
        // Two communities share an identity; the Anomalous one wins
        // the severity merge, so its tier (Uncertain here) is the
        // identity's tier — not the Benign tier of the Notice loser.
        let d = vec![
            community(
                0,
                HeuristicLabel::Smb,
                MawilabLabel::Notice,
                Some(rule(true, true, Some(445))),
            ),
            community_tiered(
                1,
                HeuristicLabel::Smb,
                MawilabLabel::Anomalous,
                Some(rule(true, true, Some(445))),
                ConfidenceTier::Uncertain,
            ),
        ];
        let s = DaySummary::new(date(1), &d, &[], vec![]);
        assert_eq!(s.tiers.len(), 1);
        assert_eq!(
            *s.tiers.values().next().unwrap(),
            ConfidenceTier::Uncertain,
            "tier of the merge winner"
        );
    }

    #[test]
    fn strategy_flips_follow_decisions() {
        let days = two_days();
        let p = &adjacent_pairs(&days)[0];
        let scann = p.strategies.iter().find(|s| s.strategy == "scann").unwrap();
        // scann: sasser accepted→rejected (flip), ping rejected both.
        assert_eq!((scann.matched, scann.flips), (2, 1));
        let max = p
            .strategies
            .iter()
            .find(|s| s.strategy == "maximum")
            .unwrap();
        // maximum accepted both identities on both days.
        assert_eq!((max.matched, max.flips), (2, 0));
    }

    #[test]
    fn jaccard_measures_anomalous_set_overlap() {
        let days = two_days();
        let p = &adjacent_pairs(&days)[0];
        // Day 1 anomalous: {sasser/src}; day 2: {smb/src+dst}.
        // Intersection 0, union 2.
        assert_eq!(p.jaccard_anomalous, 0.0);
        assert_eq!(p.jaccard_drift(), 1.0);
    }

    #[test]
    fn empty_anomalous_sets_do_not_drift() {
        let quiet = |d: u8| {
            DaySummary::new(
                date(d),
                &[community(
                    0,
                    HeuristicLabel::Unknown,
                    MawilabLabel::Notice,
                    None,
                )],
                &[("scann", accept(1, &[]))],
                vec![],
            )
        };
        let days = vec![quiet(1), quiet(2)];
        let p = &adjacent_pairs(&days)[0];
        assert_eq!(p.jaccard_anomalous, 1.0);
        assert_eq!(p.churn(), 0.0);
    }

    #[test]
    fn outbreak_response_tracks_onset_and_residual() {
        let day = |d: u8, injected: bool, caught: bool| {
            DaySummary::new(
                date(d),
                &[],
                &[],
                if injected {
                    vec![WormStatus {
                        worm: "blaster",
                        labeled_anomalous: caught,
                    }]
                } else {
                    vec![]
                },
            )
        };
        // Not injected, onset missed, caught on day 3, residual:
        // caught, missed, caught.
        let days = vec![
            day(1, false, false),
            day(2, true, false),
            day(3, true, true),
            day(4, true, true),
            day(5, true, false),
            day(6, true, true),
        ];
        let resp = outbreak_response(&days);
        assert_eq!(resp.len(), 1);
        let r = &resp[0];
        assert_eq!(r.worm, "blaster");
        assert_eq!(r.onset, Some(date(2)));
        assert_eq!(r.first_labeled, Some(date(3)));
        assert_eq!(r.response_days, Some(1));
        assert_eq!(r.residual_days, 3);
        assert_eq!(r.residual_stable_days, 2);
        assert!((r.residual_stability() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn report_pools_and_filters_by_gap() {
        let mut days = two_days();
        // A third day far away (era jump): excluded from aggregates.
        days.push(DaySummary::new(
            TraceDate::new(2006, 8, 1),
            &[community(
                0,
                HeuristicLabel::Sasser,
                MawilabLabel::Notice,
                Some(rule(true, false, None)),
            )],
            &[("scann", accept(1, &[])), ("maximum", accept(1, &[]))],
            vec![],
        ));
        let report = stability_report(&days, 7);
        assert_eq!(report.pairs.len(), 1, "era jump filtered out");
        assert_eq!(report.label_churn, 0.5);
        assert_eq!(report.jaccard_drift, 1.0);
        let rates: BTreeMap<_, _> = report.strategy_flip_rates.iter().cloned().collect();
        assert_eq!(rates["scann"], 0.5);
        assert_eq!(rates["maximum"], 0.0);
        // Outbreaks still span all days.
        assert_eq!(report.outbreaks.len(), 1);
        // Even with the gap filter off, the 2004→2006 jump crosses a
        // link-era boundary and stays out of the pooled pairs (it is
        // itemised as a transition instead).
        let all = stability_report(&days, i64::MAX);
        assert_eq!(all.pairs.len(), 1);
        assert_eq!(all.era_transitions.len(), 1);
    }

    #[test]
    fn monthly_trajectory_buckets_by_calendar_month() {
        // Three days at a month boundary (2005 — no link-era change):
        // pair 1 lands in June, pair 2 in July (bucketed by the later
        // day).
        let day = |y: u16, m: u8, d: u8, label: MawilabLabel| {
            DaySummary::new(
                TraceDate::new(y, m, d),
                &[community(
                    0,
                    HeuristicLabel::Sasser,
                    label,
                    Some(rule(true, false, Some(5554))),
                )],
                &[],
                vec![],
            )
        };
        let days = vec![
            day(2005, 6, 29, MawilabLabel::Anomalous),
            day(2005, 6, 30, MawilabLabel::Anomalous),
            day(2005, 7, 1, MawilabLabel::Suspicious), // flip into July
        ];
        let report = stability_report(&days, 7);
        assert_eq!(report.monthly.len(), 2);
        let june = &report.monthly[0];
        assert_eq!((june.year, june.month, june.pairs), (2005, 6, 1));
        assert_eq!(june.churn(), 0.0);
        let july = &report.monthly[1];
        assert_eq!((july.year, july.month, july.pairs), (2005, 7, 1));
        assert_eq!(july.churn(), 1.0, "the flip lands in July's bucket");
        assert!(july.jaccard_drift() > 0.0);
    }

    #[test]
    fn era_transitions_flag_boundary_pairs_only() {
        let day = |y: u16, m: u8, d: u8| {
            DaySummary::new(
                TraceDate::new(y, m, d),
                &[community(
                    0,
                    HeuristicLabel::Sasser,
                    MawilabLabel::Anomalous,
                    Some(rule(true, false, None)),
                )],
                &[],
                vec![],
            )
        };
        // 2006-06-30 → 2006-07-01 crosses CAR→100M; the others do not.
        let days = vec![
            day(2006, 6, 29),
            day(2006, 6, 30),
            day(2006, 7, 1),
            day(2006, 7, 2),
        ];
        let report = stability_report(&days, 7);
        assert_eq!(report.era_transitions.len(), 1);
        let t = &report.era_transitions[0];
        assert_eq!(t.from, TraceDate::new(2006, 6, 30));
        assert_eq!(t.to, TraceDate::new(2006, 7, 1));
        assert_eq!(t.from_era, LinkEra::Car18Mbps);
        assert_eq!(t.to_era, LinkEra::Full100Mbps);
        assert_eq!(t.matched, 1);
        assert_eq!(t.churn(), 0.0);
        // The boundary pair is itemised, never pooled: only the two
        // within-era pairs enter the day-over-day aggregates.
        assert_eq!(report.pairs.len(), 2);
        assert!(report
            .pairs
            .iter()
            .all(|p| LinkEra::for_date(p.from) == LinkEra::for_date(p.to)));
        // Wide-gap epoch jumps are still reported as transitions even
        // though they are excluded from the churn aggregates.
        let sparse = vec![day(2006, 6, 1), day(2008, 6, 1)];
        let sparse_report = stability_report(&sparse, 7);
        assert!(sparse_report.pairs.is_empty());
        assert_eq!(sparse_report.era_transitions.len(), 1);
        assert_eq!(
            sparse_report.era_transitions[0].to_era,
            LinkEra::Full150Mbps
        );
    }

    #[test]
    fn report_on_empty_and_single_day_is_finite() {
        for days in [vec![], two_days()[..1].to_vec()] {
            let r = stability_report(&days, 7);
            assert!(r.pairs.is_empty());
            assert_eq!(r.label_churn, 0.0);
            assert_eq!(r.jaccard_drift, 0.0);
            assert!(r.label_churn.is_finite() && r.jaccard_drift.is_finite());
        }
    }

    #[test]
    fn most_severe_label_wins_within_an_identity() {
        let d = vec![
            community(
                0,
                HeuristicLabel::Smb,
                MawilabLabel::Notice,
                Some(rule(true, true, Some(445))),
            ),
            community(
                1,
                HeuristicLabel::Smb,
                MawilabLabel::Anomalous,
                Some(rule(true, true, Some(445))),
            ),
        ];
        let s = DaySummary::new(date(1), &d, &[("scann", accept(2, &[1]))], vec![]);
        assert_eq!(s.labels.len(), 1);
        assert_eq!(
            *s.labels.values().next().unwrap(),
            MawilabLabel::Anomalous,
            "severity merge"
        );
        assert_eq!(s.anomalous.len(), 1);
    }
}
