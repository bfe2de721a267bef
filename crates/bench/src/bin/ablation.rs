//! Ablation studies the paper mentions but does not plot:
//!
//! * **similarity measure** — Simpson vs Jaccard vs constant edge
//!   weights (§2.1.2 reports Simpson "outperformed the two other
//!   metrics" without showing data);
//! * **granularity** — packet vs uniflow vs biflow end-to-end effect
//!   on combiner ground-truth scores (§4.1 studies the estimator only).
//!
//! Both are scored against the synthetic archive's ground truth:
//! distinct anomalies recovered by SCANN-accepted communities, and
//! acceptance precision.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin ablation [-- --years 2004:2005]
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::PipelineConfig;
use mawilab_eval::ground_truth::{score_strategy, GroundTruthMatcher, DEFAULT_MIN_COVERAGE};
use mawilab_model::Granularity;
use mawilab_similarity::SimilarityMeasure;

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("ablation: {} days at scale {}", days.len(), args.scale);

    let variants: Vec<(String, PipelineConfig)> = vec![
        ("simpson/uniflow".into(), PipelineConfig::default()),
        (
            "jaccard/uniflow".into(),
            PipelineConfig {
                measure: SimilarityMeasure::Jaccard,
                ..Default::default()
            },
        ),
        (
            "constant/uniflow".into(),
            PipelineConfig {
                measure: SimilarityMeasure::Constant,
                ..Default::default()
            },
        ),
        (
            "simpson/packet".into(),
            PipelineConfig {
                granularity: Granularity::Packet,
                ..Default::default()
            },
        ),
        (
            "simpson/biflow".into(),
            PipelineConfig {
                granularity: Granularity::Biflow,
                ..Default::default()
            },
        ),
    ];

    let mut table = Vec::new();
    let mut rows = Vec::new();
    for (name, config) in variants {
        let per_day = run_days(&days, args.scale, config, |ctx| {
            let matcher =
                GroundTruthMatcher::from_item_ids(ctx.item_ids, ctx.truth, DEFAULT_MIN_COVERAGE);
            let s = score_strategy(&matcher, &ctx.report.communities, &ctx.report.decisions);
            (
                s.detected.len(),
                s.total_anomalies,
                s.accepted,
                s.false_accepted,
                ctx.report.communities.single_count(),
            )
        })
        .expect("synthetic archive days drain without source errors");
        let detected: usize = per_day.iter().map(|r| r.0).sum();
        let total: usize = per_day.iter().map(|r| r.1).sum();
        let accepted: usize = per_day.iter().map(|r| r.2).sum();
        let false_acc: usize = per_day.iter().map(|r| r.3).sum();
        let singles: usize = per_day.iter().map(|r| r.4).sum();
        let recall = detected as f64 / total.max(1) as f64;
        let precision = 1.0 - false_acc as f64 / accepted.max(1) as f64;
        table.push(vec![
            name.clone(),
            format!("{detected}/{total}"),
            format!("{recall:.3}"),
            format!("{precision:.3}"),
            singles.to_string(),
        ]);
        rows.push(vec![
            name,
            out::fmt(recall),
            out::fmt(precision),
            singles.to_string(),
        ]);
    }
    println!("\n== ablation: SCANN ground-truth score per estimator variant ==");
    out::print_table(
        &[
            "variant",
            "anomalies",
            "recall",
            "precision",
            "single communities",
        ],
        &table,
    );
    let path = out::write_csv_series(
        &args.out_dir,
        "ablation",
        &["variant", "recall", "precision", "singles"],
        &rows,
    )
    .unwrap();
    println!("series → {path}");
    println!("\npaper expectation: Simpson ≥ Jaccard ≥ constant; uniflow is the");
    println!("released setting and should lead or tie on the combined score.");
}
