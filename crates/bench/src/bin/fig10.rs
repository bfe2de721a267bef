//! Figure 10: PDF of the relative distance of SCANN-rejected
//! communities, classified with the Table-1 heuristics.
//!
//! The paper's observation: rejected communities labeled `Attack` sit
//! *closer to the decision boundary* (smaller relative distance) than
//! Special/Unknown ones — which motivates the Suspicious/Notice split
//! at 0.5 (§5).
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin fig10
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::PipelineConfig;
use mawilab_eval::pdf_histogram;
use mawilab_label::HeuristicCategory;

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("fig10: {} days at scale {}", days.len(), args.scale);

    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| {
        let mut v: Vec<(HeuristicCategory, f64)> = Vec::new();
        for (lc, d) in ctx
            .report
            .labeled
            .communities
            .iter()
            .zip(&ctx.report.decisions)
        {
            if d.accepted {
                continue;
            }
            if let Some(rel) = d.relative_distance {
                if rel.is_finite() {
                    v.push((lc.heuristic.category(), rel.min(10.0)));
                }
            }
        }
        v
    })
    .expect("synthetic archive days drain without source errors");
    let pooled: Vec<(HeuristicCategory, f64)> = per_day.into_iter().flatten().collect();

    println!("\n== Fig 10: PDF of rejected communities' relative distance ==");
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for cat in [
        HeuristicCategory::Attack,
        HeuristicCategory::Special,
        HeuristicCategory::Unknown,
    ] {
        let values: Vec<f64> = pooled
            .iter()
            .filter(|(c, _)| *c == cat)
            .map(|&(_, v)| v)
            .collect();
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        let below_half = values.iter().filter(|&&v| v <= 0.5).count();
        table.push(vec![
            cat.to_string(),
            values.len().to_string(),
            format!("{mean:.2}"),
            format!(
                "{:.0}%",
                below_half as f64 / values.len().max(1) as f64 * 100.0
            ),
        ]);
        for (x, dens) in pdf_histogram(&values, 20, 0.0, 10.0) {
            rows.push(vec![cat.to_string(), out::fmt(x), out::fmt(dens)]);
        }
    }
    out::print_table(
        &[
            "category",
            "rejected",
            "mean rel. distance",
            "≤0.5 (→Suspicious)",
        ],
        &table,
    );
    let path = out::write_csv_series(
        &args.out_dir,
        "fig10",
        &["category", "relative_distance", "density"],
        &rows,
    )
    .unwrap();
    println!("series → {path}");
    println!("\npaper shape check: Attack-labeled rejections concentrate at lower");
    println!("relative distance than Special/Unknown ones.");
}
