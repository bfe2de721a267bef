//! The archive-scale longitudinal benchmark behind the `archive` bin.
//!
//! Streams a day sample of the simulated 2001–2009 archive — the
//! curated 13-day default, or a **month-scale consecutive sweep**
//! (`--days N` / `--months`) spanning a link-era boundary — through
//! [`run_days_wrapped`], reduces every day to a [`DaySummary`] plus
//! a throughput record, and writes `results/BENCH_archive.json` with
//! the longitudinal stability metrics ([`mawilab_eval::longitudinal`]:
//! churn, drift, monthly trajectory, era transitions, outbreak
//! response) next to each day's wall and throughput and the sweep's
//! peak RSS. Generation and per-stage timings belong to perfbench.
//! The document is one `out::Json` tree built by `archive_json` and
//! written by `Json::render`.
//! This is the repo's month-scale answer to the operational question
//! the paper's Figs. 7–8 raise: do the labels stay put while the
//! archive changes under the pipeline?
//!
//! The logic lives in the library (not the bin) so the smoke tests,
//! the thread-determinism suite and CI can run tiny-scale passes
//! in-process and assert the schema.

use crate::harness::{peak_rss_kb, run_days_wrapped, DayContext, DayFailure, NoWrap, SourceWrap};
use crate::out::{obj, Json};
use mawilab_combiner::ConfidenceThresholds;
use mawilab_core::{PipelineConfig, StrategyKind, StreamStats};
use mawilab_eval::ground_truth::DEFAULT_MIN_COVERAGE;
use mawilab_eval::{stability_report, DaySummary, GroundTruthMatcher, StabilityReport, WormStatus};
use mawilab_label::MawilabLabel;
use mawilab_model::{LinkEra, TraceDate, DEFAULT_CHUNK_US};
use mawilab_synth::AnomalyKind;
use std::collections::HashSet;
use std::io;

/// The pipeline configuration every archive sweep runs with: the
/// default pipeline plus the default dual confidence thresholds, so
/// labels carry a real abstention tier and the stability report's
/// `churn_confident` measures something.
pub fn archive_config() -> PipelineConfig {
    PipelineConfig {
        confidence_thresholds: Some(ConfidenceThresholds::default()),
        ..PipelineConfig::default()
    }
}

/// Consecutive sampled days farther apart than this are epoch jumps
/// (era/outbreak boundaries), not day-over-day stability pairs, and
/// stay out of the churn/drift aggregates.
pub const MAX_STABILITY_GAP_DAYS: i64 = 7;

/// Worm epochs the benchmark tracks: name, anomaly kind, and real
/// release date (the epoch onset used for sampling context).
const WORMS: [(&str, AnomalyKind); 2] = [
    ("blaster", AnomalyKind::BlasterWorm),
    ("sasser", AnomalyKind::SasserWorm),
];

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct ArchiveBenchArgs {
    /// Traffic scale multiplier.
    pub scale: f64,
    /// Ingest chunk width, µs.
    pub chunk_us: u64,
    /// Output directory for `BENCH_archive.json`.
    pub out_dir: String,
    /// The sampled days, date-ordered.
    pub days: Vec<TraceDate>,
}

impl Default for ArchiveBenchArgs {
    fn default() -> Self {
        ArchiveBenchArgs {
            scale: 1.0,
            chunk_us: DEFAULT_CHUNK_US,
            out_dir: "results".to_string(),
            days: default_archive_days(),
        }
    }
}

/// The curated archive sample: adjacent-day pairs in every regime the
/// simulator models — quiet 18 Mbps CAR baseline, the Blaster onset
/// (released 2003-08-11), the inter-epoch residual, the Sasser onset
/// (released 2004-04-30), the long residual tail, and both post-
/// upgrade eras (100 Mbps from 2006-07, 150 Mbps from 2007-06).
pub fn default_archive_days() -> Vec<TraceDate> {
    vec![
        // 18 Mbps era, pre-Blaster baseline.
        TraceDate::new(2003, 8, 1),
        TraceDate::new(2003, 8, 2),
        // Blaster outbreak onset.
        TraceDate::new(2003, 8, 12),
        TraceDate::new(2003, 8, 13),
        // Blaster residual, pre-Sasser.
        TraceDate::new(2004, 4, 25),
        // Sasser outbreak onset.
        TraceDate::new(2004, 5, 10),
        TraceDate::new(2004, 5, 11),
        // Residual tail of both epochs.
        TraceDate::new(2005, 6, 1),
        TraceDate::new(2005, 6, 2),
        // 100 Mbps era.
        TraceDate::new(2006, 8, 1),
        TraceDate::new(2006, 8, 2),
        // 150 Mbps era.
        TraceDate::new(2008, 3, 1),
        TraceDate::new(2008, 3, 2),
    ]
}

/// The tiny CI/smoke sample: three adjacent Sasser-onset days (worm
/// path exercised) at whatever scale the caller picks.
pub fn smoke_archive_days() -> Vec<TraceDate> {
    vec![
        TraceDate::new(2004, 5, 10),
        TraceDate::new(2004, 5, 11),
        TraceDate::new(2004, 5, 12),
    ]
}

/// Default start of a consecutive (`--days N`) sweep, chosen so even a
/// short smoke sweep crosses the 2006-07-01 CAR→100 Mbps era
/// boundary.
pub fn default_sweep_start() -> TraceDate {
    TraceDate::new(2006, 6, 28)
}

/// `n` consecutive calendar days from `start` — the month-scale sweep
/// grid ([`default_month_days`] spans June and July 2006, crossing
/// the link-era boundary mid-sweep).
pub fn month_sweep_days(start: TraceDate, n: usize) -> Vec<TraceDate> {
    start.consecutive(n)
}

/// The default `--months` sweep: 61 consecutive days over June–July
/// 2006 — two full months through the 18 Mbps → 100 Mbps upgrade.
pub fn default_month_days() -> Vec<TraceDate> {
    month_sweep_days(TraceDate::new(2006, 6, 1), 61)
}

/// One day's reduction: the stability summary plus the throughput
/// record.
#[derive(Debug, Clone)]
pub struct ArchiveDayRecord {
    /// The stability-relevant reduction of the day.
    pub summary: DaySummary,
    /// The drain's ingest statistics.
    pub stats: StreamStats,
    /// Alarms raised.
    pub alarms: usize,
    /// Communities found.
    pub communities: usize,
    /// Communities labeled anomalous.
    pub anomalous: usize,
    /// Communities per confidence tier, indexed by
    /// [`mawilab_combiner::ConfidenceTier::index`]:
    /// `[anomalous, uncertain, benign]`. Sums to `communities`.
    pub tier_counts: [u64; 3],
    /// Histogram of per-community strategy agreement: slot `k` counts
    /// communities where exactly `k` of the four paper strategies
    /// agree with the day's decision.
    pub agreement_hist: [u64; 5],
    /// Wall-clock of the single-pass drain, seconds (generation
    /// excluded; see [`DayContext::wall`]).
    pub wall_s: f64,
}

fn reduce_day(ctx: &DayContext<'_>) -> ArchiveDayRecord {
    let report = ctx.report;

    // Every strategy's verdict on the day's vote table — the flips
    // between them day over day are a headline stability metric.
    let strategies: Vec<(&'static str, Vec<mawilab_combiner::Decision>)> = ctx
        .per_strategy
        .iter()
        .map(|(k, decisions)| (k.name(), decisions.clone()))
        .collect();

    // Worm detection status against ground truth: which injected worm
    // epochs are covered by a community labeled anomalous today.
    let matcher = GroundTruthMatcher::from_item_ids(ctx.item_ids, ctx.truth, DEFAULT_MIN_COVERAGE);
    let caught: HashSet<u32> = report
        .labeled
        .communities
        .iter()
        .filter(|lc| lc.label == MawilabLabel::Anomalous)
        .flat_map(|lc| matcher.detected_by(&report.communities.community_traffic(lc.community)))
        .collect();
    let worms = WORMS
        .iter()
        .filter_map(|&(name, kind)| {
            let ids: Vec<u32> = ctx
                .truth
                .anomalies()
                .iter()
                .filter(|a| a.kind == kind)
                .map(|a| a.id)
                .collect();
            (!ids.is_empty()).then(|| WormStatus {
                worm: name,
                labeled_anomalous: ids.iter().any(|id| caught.contains(id)),
            })
        })
        .collect();

    // Confidence-tier populations and the strategy-agreement
    // histogram of the day — the per-day inputs of the JSON's
    // `confidence` block. A community's agreement counts the paper's
    // four strategies (not majority) that share the pipeline's verdict.
    let mut tier_counts = [0u64; 3];
    for lc in &report.labeled.communities {
        tier_counts[lc.confidence.tier.index()] += 1;
    }
    let mut agreement_hist = [0u64; 5];
    for (c, own) in report.decisions.iter().enumerate() {
        let agree = ctx
            .per_strategy
            .iter()
            .filter(|(k, d)| *k != StrategyKind::Majority && d[c].accepted == own.accepted)
            .count();
        agreement_hist[agree] += 1;
    }

    ArchiveDayRecord {
        summary: DaySummary::new(ctx.date, &report.labeled.communities, &strategies, worms),
        stats: *ctx.stats,
        alarms: report.alarm_count(),
        communities: report.community_count(),
        anomalous: report.labeled.count(MawilabLabel::Anomalous),
        tier_counts,
        agreement_hist,
        wall_s: ctx.wall.as_secs_f64(),
    }
}

/// Everything a benchmark run measured, before JSON formatting — the
/// deterministic part the thread-determinism suite compares across
/// `MAWILAB_THREADS` settings (wall-clock fields aside, every field
/// here is thread-count invariant).
#[derive(Debug, Clone)]
pub struct ArchiveOutcome {
    /// Per-day records, in day order, failed days skipped.
    pub records: Vec<ArchiveDayRecord>,
    /// Days the streaming harness could not complete, with the error.
    pub failed: Vec<(TraceDate, String)>,
    /// The longitudinal stability report over the surviving days.
    pub stability: StabilityReport,
}

/// Reduces per-day outcomes (successes + skipped failures) to an
/// [`ArchiveOutcome`] with the stability report over the survivors.
fn assemble_outcome(outcomes: Vec<Result<ArchiveDayRecord, DayFailure>>) -> ArchiveOutcome {
    let mut records: Vec<ArchiveDayRecord> = Vec::new();
    let mut failed: Vec<(TraceDate, String)> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(r) => records.push(r),
            Err(DayFailure { date, error }) => {
                eprintln!("  skipping failed day {date}: {error}");
                failed.push((date, error.to_string()));
            }
        }
    }
    let summaries: Vec<DaySummary> = records.iter().map(|r| r.summary.clone()).collect();
    let stability = stability_report(&summaries, MAX_STABILITY_GAP_DAYS);
    ArchiveOutcome {
        records,
        failed,
        stability,
    }
}

/// Runs the sweep single-pass — each generated day drains once, in
/// chunks, through the online pipeline behind a rewind-refusing seal
/// ([`run_days_wrapped`]) — and reduces it to an [`ArchiveOutcome`].
pub fn collect_archive(args: &ArchiveBenchArgs) -> ArchiveOutcome {
    collect_archive_wrapped(args, &NoWrap)
}

/// [`collect_archive`] with a [`SourceWrap`] applied to each day's
/// sealed source — the failure-injection seam
/// (`crates/bench/tests/day_failure.rs` wraps one day's source in one
/// that errors mid-drain and asserts the month survives it) and the
/// hook CI uses to seal the whole sweep behind rewind-refusing
/// wrappers.
pub fn collect_archive_wrapped(args: &ArchiveBenchArgs, wrap: &dyn SourceWrap) -> ArchiveOutcome {
    assemble_outcome(run_days_wrapped(
        &args.days,
        args.scale,
        args.chunk_us,
        archive_config(),
        wrap,
        reduce_day,
    ))
}

/// Everything thread-count-invariant in an [`ArchiveOutcome`]: the
/// per-day reductions minus their wall-clock and drain-count fields,
/// plus the whole stability report (which holds no timing data). Two
/// sweeps over the same days must render identical views whatever
/// `MAWILAB_THREADS` was — the comparison key of the
/// thread-determinism suite, and the byte-identity check a change to
/// the labeling path must pass on the 61-day sweep.
pub fn deterministic_view(outcome: &ArchiveOutcome) -> String {
    let days: Vec<String> = outcome
        .records
        .iter()
        .map(|r| {
            format!(
                "{} packets={} chunks={} peak={} items={} alarms={} communities={} \
                 anomalous={} tiers={:?} agreement={:?} summary={:?}",
                r.summary.date,
                r.stats.packets,
                r.stats.chunks,
                r.stats.peak_chunk_packets,
                r.stats.items,
                r.alarms,
                r.communities,
                r.anomalous,
                r.tier_counts,
                r.agreement_hist,
                r.summary,
            )
        })
        .collect();
    format!(
        "days:{}\nfailed:{:?}\nstability:{:?}",
        days.join("\n"),
        outcome.failed,
        outcome.stability
    )
}

/// Link-era boundaries crossed by consecutive days of a sample.
pub fn era_boundaries_crossed(days: &[TraceDate]) -> usize {
    days.windows(2)
        .filter(|w| LinkEra::for_date(w[0]) != LinkEra::for_date(w[1]))
        .count()
}

/// Era boundaries actually *evaluated* by an outcome: computed over
/// the surviving day records, not the requested sample — if the
/// boundary-straddling day itself failed, the crossing was not
/// measured and must not be reported (the CI month-smoke asserts on
/// this field).
fn era_boundaries_evaluated(outcome: &ArchiveOutcome) -> usize {
    let dates: Vec<TraceDate> = outcome.records.iter().map(|r| r.summary.date).collect();
    era_boundaries_crossed(&dates)
}

/// The benchmark JSON document. Next to the per-day records and the
/// stability report sits the `confidence` block: the thresholds the
/// sweep labeled under, pooled tier populations (summing to the
/// pooled community count), the pooled strategy-agreement histogram,
/// and the headline churn comparison — all matches versus the
/// confidently-labeled subset. The abstention tier earns its place
/// when `churn_confident` sits below `churn_all`.
fn archive_json(args: &ArchiveBenchArgs, outcome: &ArchiveOutcome) -> Json {
    let ArchiveOutcome {
        records,
        failed,
        stability,
    } = outcome;
    let thresholds = archive_config()
        .confidence_thresholds
        .expect("archive sweeps always label with thresholds");
    let mut tiers = [0u64; 3];
    let mut agreement = [0u64; 5];
    let mut communities = 0usize;
    for r in records {
        for (t, n) in tiers.iter_mut().zip(&r.tier_counts) {
            *t += n;
        }
        for (a, n) in agreement.iter_mut().zip(&r.agreement_hist) {
            *a += n;
        }
        communities += r.communities;
    }
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let note = format!(
        "wall times measured on a host with {hardware} hardware thread(s){}; \
         no parallel-scaling claim is made from them",
        if hardware == 1 {
            " — the day-level fan-out runs effectively sequentially here"
        } else {
            ""
        }
    );
    let date = |r: Option<&ArchiveDayRecord>| r.map(|r| r.summary.date.to_string());
    obj! {
        "generated_by" => "cargo run --release -p mawilab-bench --bin archive",
        "hardware_threads" => hardware,
        "note" => note,
        "scale" => Json::Exact(args.scale),
        "chunk_us" => args.chunk_us,
        "sampled_days" => records.len(),
        "first_day" => date(records.first()),
        "last_day" => date(records.last()),
        "era_boundaries_crossed" => era_boundaries_evaluated(outcome),
        "max_stability_gap_days" => MAX_STABILITY_GAP_DAYS,
        "days" => Json::arr(records.iter().map(|r| obj! {
            "date" => r.summary.date.to_string(),
            "packets" => r.stats.packets,
            "chunks" => r.stats.chunks,
            "peak_chunk_packets" => r.stats.peak_chunk_packets,
            "items" => r.stats.items,
            "alarms" => r.alarms,
            "communities" => r.communities,
            "anomalous" => r.anomalous,
            "identities" => r.summary.labels.len(),
            "tiers" => Json::arr(r.tier_counts),
            "strategy_agreement" => Json::arr(r.agreement_hist),
            "wall_s" => r.wall_s,
            "packets_per_s" => r.stats.packets as f64 / r.wall_s.max(1e-9),
            "worms" => Json::arr(r.summary.worms.iter().map(|w| obj! {
                "worm" => w.worm,
                "labeled_anomalous" => w.labeled_anomalous,
            })),
        })),
        "failed_days" => Json::arr(failed.iter().map(|(d, error)| obj! {
            "date" => d.to_string(),
            "error" => error.as_str(),
        })),
        "stability" => obj! {
            "label_churn" => stability.label_churn,
            "label_churn_confident" => stability.label_churn_confident,
            "jaccard_drift" => stability.jaccard_drift,
            "strategy_flip_rates" => Json::arr(stability.strategy_flip_rates.iter().map(
                |&(name, rate)| obj! { "strategy" => name, "flip_rate" => rate },
            )),
            "monthly" => Json::arr(stability.monthly.iter().map(|m| obj! {
                "year" => m.year,
                "month" => m.month,
                "pairs" => m.pairs,
                "matched" => m.matched,
                "flips" => m.flips,
                "churn" => m.churn(),
                "jaccard_drift" => m.jaccard_drift(),
            })),
            "era_transitions" => Json::arr(stability.era_transitions.iter().map(|t| obj! {
                "from" => t.from.to_string(),
                "to" => t.to.to_string(),
                "from_era" => format!("{:?}", t.from_era),
                "to_era" => format!("{:?}", t.to_era),
                "matched" => t.matched,
                "label_flips" => t.label_flips,
                "churn" => t.churn(),
                "jaccard_drift" => t.jaccard_drift,
            })),
            "adjacent_pairs" => Json::arr(stability.pairs.iter().map(|p| obj! {
                "from" => p.from.to_string(),
                "to" => p.to.to_string(),
                "gap_days" => p.gap_days,
                "matched" => p.matched,
                "label_flips" => p.label_flips,
                "churn" => p.churn(),
                "matched_confident" => p.matched_confident,
                "label_flips_confident" => p.label_flips_confident,
                "churn_confident" => p.churn_confident(),
                "jaccard_anomalous" => p.jaccard_anomalous,
                "jaccard_drift" => p.jaccard_drift(),
                "strategies" => Json::arr(p.strategies.iter().map(|s| obj! {
                    "strategy" => s.strategy,
                    "matched" => s.matched,
                    "flips" => s.flips,
                    "flip_rate" => s.flip_rate(),
                })),
            })),
        },
        "confidence" => obj! {
            "thresholds" => obj! { "low" => thresholds.low, "high" => thresholds.high },
            "communities" => communities,
            "tiers" => obj! {
                "anomalous" => tiers[0],
                "uncertain" => tiers[1],
                "benign" => tiers[2],
            },
            "agreement_hist" => Json::arr(agreement),
            "churn_all" => stability.label_churn,
            "churn_confident" => stability.label_churn_confident,
        },
        "outbreaks" => Json::arr(stability.outbreaks.iter().map(|o| obj! {
            "worm" => o.worm,
            "onset" => o.onset.map(|d| d.to_string()),
            "first_labeled" => o.first_labeled.map(|d| d.to_string()),
            "response_days" => o.response_days,
            "residual_days" => o.residual_days,
            "residual_stable_days" => o.residual_stable_days,
            "residual_stability" => o.residual_stability(),
        })),
        "peak_rss_kb" => peak_rss_kb().unwrap_or(0),
    }
}

/// Runs the benchmark and returns the JSON document it wrote to
/// `<out_dir>/BENCH_archive.json`. The directory is created before
/// the first day, so an unwritable `out_dir` fails at once instead of
/// after the sweep.
pub fn run_archive_bench(args: &ArchiveBenchArgs) -> io::Result<String> {
    std::fs::create_dir_all(&args.out_dir)?;
    eprintln!(
        "archive longitudinal benchmark: {} days, scale {} …",
        args.days.len(),
        args.scale
    );
    let json = archive_json(args, &collect_archive(args)).render() + "\n";
    let path = format!("{}/BENCH_archive.json", args.out_dir);
    std::fs::write(&path, &json)?;
    eprintln!("wrote {path}");
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sample_spans_eras_and_epochs() {
        let days = default_archive_days();
        assert!(days.len() >= 12);
        assert!(days.windows(2).all(|w| w[0] < w[1]), "date-ordered");
        for era in [
            LinkEra::Car18Mbps,
            LinkEra::Full100Mbps,
            LinkEra::Full150Mbps,
        ] {
            assert!(
                days.iter().any(|&d| LinkEra::for_date(d) == era),
                "era {era:?} not sampled"
            );
        }
        // Both outbreak onsets have an adjacent pair.
        assert!(days.contains(&TraceDate::new(2003, 8, 12)));
        assert!(days.contains(&TraceDate::new(2004, 5, 10)));
    }

    #[test]
    fn month_sweep_is_consecutive_and_crosses_the_upgrade() {
        let days = default_month_days();
        assert!(days.len() >= 60, "month sweep must span 60+ days");
        assert!(days
            .windows(2)
            .all(|w| w[1].days_since_epoch() - w[0].days_since_epoch() == 1));
        assert_eq!(era_boundaries_crossed(&days), 1);
        // Short smoke sweeps from the default start cross it too.
        let smoke = month_sweep_days(default_sweep_start(), 6);
        assert_eq!(era_boundaries_crossed(&smoke), 1);
        assert_eq!(era_boundaries_crossed(&smoke_archive_days()), 0);
    }

    #[test]
    fn failed_days_render_into_the_json() {
        let outcome = ArchiveOutcome {
            records: Vec::new(),
            failed: vec![(
                TraceDate::new(2006, 7, 1),
                "day 2006-07-01: source \"x\" broke\nbadly".to_string(),
            )],
            stability: stability_report(&[], MAX_STABILITY_GAP_DAYS),
        };
        let json = archive_json(&ArchiveBenchArgs::default(), &outcome).render();
        assert!(json.contains("\"failed_days\": [\n"));
        assert!(!json.contains("\"warm\""));
        assert!(json.contains("{\"date\": \"2006-07-01\", \"error\": \"day 2006-07-01: source \\\"x\\\" broke\\nbadly\"}"));
        assert!(json.contains("\"sampled_days\": 0"));
        assert!(json.contains("\"first_day\": null"));
    }

    #[test]
    fn unwritable_out_dir_fails_before_the_first_day() {
        let file = std::env::temp_dir().join("mawilab-archive-out-is-a-file");
        std::fs::write(&file, "not a directory").unwrap();
        let args = ArchiveBenchArgs {
            // A sweep at this scale panics in `ArchiveSimulator::new`,
            // so an `Err` proves no day ran.
            scale: 0.0,
            days: smoke_archive_days(),
            out_dir: file.join("out").to_str().unwrap().to_string(),
            ..Default::default()
        };
        assert!(run_archive_bench(&args).is_err());
    }

    /// The tiny-scale end-to-end smoke: runs the real benchmark on
    /// three Sasser-onset days and asserts the JSON schema and that
    /// every stability metric is a finite number. It also pins the
    /// sample's [`deterministic_view`] (byte length and FNV-1a 64),
    /// a fast guard against harness drift next to the ignored 61-day
    /// `month_view` test.
    #[test]
    fn smoke_run_produces_schema_with_finite_metrics() {
        let dir = std::env::temp_dir().join("mawilab-archive-smoke");
        let args = ArchiveBenchArgs {
            scale: 0.25,
            days: smoke_archive_days(),
            out_dir: dir.to_str().unwrap().to_string(),
            ..Default::default()
        };
        let view = deterministic_view(&collect_archive(&args));
        let fnv = view.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(
            (view.len(), fnv),
            (14_994, 0x8483_acb5_ba85_6b63),
            "smoke deterministic_view moved: len {} fnv1a {fnv:#018x}",
            view.len()
        );
        let json = run_archive_bench(&args).unwrap();
        assert_eq!(
            json,
            std::fs::read_to_string(dir.join("BENCH_archive.json")).unwrap()
        );
        for key in [
            "\"days\"",
            "\"stability\"",
            "\"label_churn\"",
            "\"jaccard_drift\"",
            "\"strategy_flip_rates\"",
            "\"monthly\"",
            "\"era_transitions\"",
            "\"era_boundaries_crossed\"",
            "\"adjacent_pairs\"",
            "\"outbreaks\"",
            "\"peak_rss_kb\"",
            "\"packets_per_s\"",
            "\"wall_s\"",
            "\"worms\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Stage and generation timing belong to perfbench, not to the
        // archive JSON.
        for key in [
            "\"detect_s\"",
            "\"extract_s\"",
            "\"graph_s\"",
            "\"louvain_s\"",
            "\"combine_s\"",
            "\"label_s\"",
            "\"generation\"",
            "\"gen_s\"",
            "\"gen_packets_per_s\"",
        ] {
            assert!(!json.contains(key), "timing {key} in:\n{json}");
        }
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        // All five strategies appear in the flip table.
        for name in ["average", "minimum", "maximum", "SCANN", "majority"] {
            assert!(
                json.contains(&format!("\"strategy\": \"{name}\"")),
                "strategy {name} missing"
            );
        }
        // Three adjacent days → two stability pairs.
        assert_eq!(json.matches("\"gap_days\"").count(), 2);
        // The confidence block: present, tier populations summing to
        // the pooled community count, churn comparison well-ordered.
        for key in [
            "\"confidence\": {",
            "\"thresholds\"",
            "\"tiers\"",
            "\"agreement_hist\"",
            "\"churn_all\"",
            "\"churn_confident\"",
            "\"label_churn_confident\"",
            "\"matched_confident\"",
            "\"strategy_agreement\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let conf = json.split("\"confidence\": {").nth(1).unwrap();
        let grab = |key: &str| -> f64 {
            conf.split(&format!("\"{key}\": "))
                .nth(1)
                .unwrap()
                .split(&[',', '}', '\n'][..])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let total = grab("communities");
        assert!(total > 0.0, "smoke sweep labeled no communities");
        assert_eq!(
            grab("anomalous") + grab("uncertain") + grab("benign"),
            total,
            "tier populations must sum to the community count"
        );
        assert!(
            grab("churn_confident") <= grab("churn_all"),
            "abstention can only remove flips"
        );
        // The Sasser epoch is present in the outbreak table.
        assert!(json.contains("\"worm\": \"sasser\""));
        // Extract the headline churn value and check it parses.
        let churn = json
            .split("\"label_churn\": ")
            .nth(1)
            .and_then(|s| s.split(&[',', '\n'][..]).next())
            .unwrap()
            .parse::<f64>()
            .expect("label_churn is a number");
        assert!((0.0..=1.0).contains(&churn));
    }

    /// A seconds-scale consecutive sweep through the era boundary —
    /// the in-process twin of the CI `month-smoke` job.
    #[test]
    fn month_smoke_crosses_an_era_boundary() {
        let dir = std::env::temp_dir().join("mawilab-month-smoke");
        let args = ArchiveBenchArgs {
            scale: 0.25,
            days: month_sweep_days(default_sweep_start(), 6),
            out_dir: dir.to_str().unwrap().to_string(),
            ..Default::default()
        };
        let json = run_archive_bench(&args).unwrap();
        assert!(json.contains("\"era_boundaries_crossed\": 1"));
        // Six consecutive days → five 1-day pairs, of which the
        // era-boundary crossing is itemised as a transition and the
        // other four enter the day-over-day aggregates.
        assert_eq!(json.matches("\"gap_days\": 1").count(), 4);
        // The era transition is itemised.
        assert!(json.contains("\"from_era\": \"Car18Mbps\""));
        assert!(json.contains("\"to_era\": \"Full100Mbps\""));
        // Monthly trajectory spans June and July 2006.
        assert!(json.contains("\"year\": 2006, \"month\": 6"));
        assert!(json.contains("\"year\": 2006, \"month\": 7"));
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }
}
