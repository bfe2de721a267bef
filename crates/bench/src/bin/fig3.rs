//! Figure 3: characteristics of communities reported by the
//! similarity estimator at the three traffic granularities.
//!
//! Panels (select with `--panel a|b|c|d`):
//! * (a) CDF of the number of single communities per trace,
//! * (b) CDF of community sizes (singles excluded),
//! * (c) CDF of rule support (singles excluded),
//! * (d) distribution of rule degree (singles excluded).
//!
//! Paper workload: first week of each month, 2001–2009. Default here:
//! `--days 2` per month over the same years (override as needed).
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin fig3 [-- --years 2001:2009 --days 2]
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::PipelineConfig;
use mawilab_detectors::TraceView;
use mawilab_eval::{cdf_points, dists::discrete_pmf};
use mawilab_label::summary::summarize_community;
use mawilab_model::{FlowTable, Granularity};
use mawilab_similarity::SimilarityEstimator;

const GRANULARITIES: [Granularity; 3] = [
    Granularity::Packet,
    Granularity::Uniflow,
    Granularity::Biflow,
];

/// Per-trace, per-granularity reduction.
struct DayStats {
    singles: [usize; 3],
    sizes: [Vec<usize>; 3],
    supports: [Vec<f64>; 3],
    degrees: [Vec<u32>; 3],
}

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("fig3: {} days at scale {}", days.len(), args.scale);

    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| {
        let mut stats = DayStats {
            singles: [0; 3],
            sizes: Default::default(),
            supports: Default::default(),
            degrees: Default::default(),
        };
        let flows = FlowTable::build(&ctx.trace.packets);
        let view = TraceView::new(ctx.trace, &flows);
        for (gi, granularity) in GRANULARITIES.into_iter().enumerate() {
            let estimator = SimilarityEstimator {
                granularity,
                ..Default::default()
            };
            let communities = estimator.estimate(&view, ctx.report.communities.alarms.clone());
            let sizes = communities.sizes();
            stats.singles[gi] = communities.single_count();
            for (c, &size) in sizes.iter().enumerate() {
                if size < 2 {
                    continue; // panels (b)-(d) exclude singles
                }
                stats.sizes[gi].push(size);
                let s = summarize_community(&view, &communities, c, 0.2);
                stats.supports[gi].push(s.rule_support * 100.0);
                stats.degrees[gi].push(s.rule_degree.round() as u32);
            }
        }
        stats
    })
    .expect("synthetic archive days drain without source errors");

    let names = ["packet", "uniflow", "biflow"];
    if args.wants_panel("a") {
        println!("\n== Fig 3(a): CDF of #single communities per trace ==");
        let mut rows = Vec::new();
        for (gi, name) in names.iter().enumerate() {
            let values: Vec<f64> = per_day.iter().map(|d| d.singles[gi] as f64).collect();
            for (x, p) in cdf_points(&values) {
                rows.push(vec![name.to_string(), out::fmt(x), out::fmt(p)]);
            }
            let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
            println!("  {name:8} mean singles/trace = {mean:.1}");
        }
        let path = out::write_csv_series(
            &args.out_dir,
            "fig3a",
            &["granularity", "singles", "cdf"],
            &rows,
        )
        .unwrap();
        println!("  series → {path}");
    }
    if args.wants_panel("b") {
        println!("\n== Fig 3(b): CDF of community size (excl. singles) ==");
        let mut rows = Vec::new();
        for (gi, name) in names.iter().enumerate() {
            let values: Vec<f64> = per_day
                .iter()
                .flat_map(|d| d.sizes[gi].iter().map(|&s| s as f64))
                .collect();
            for (x, p) in cdf_points(&values) {
                rows.push(vec![name.to_string(), out::fmt(x), out::fmt(p)]);
            }
            let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
            let max = values.iter().cloned().fold(0.0, f64::max);
            println!(
                "  {name:8} mean size = {mean:.1}, max = {max:.0}, n = {}",
                values.len()
            );
        }
        let path = out::write_csv_series(
            &args.out_dir,
            "fig3b",
            &["granularity", "size", "cdf"],
            &rows,
        )
        .unwrap();
        println!("  series → {path}");
    }
    if args.wants_panel("c") {
        println!("\n== Fig 3(c): CDF of rule support (excl. singles) ==");
        let mut rows = Vec::new();
        for (gi, name) in names.iter().enumerate() {
            let values: Vec<f64> = per_day
                .iter()
                .flat_map(|d| d.supports[gi].clone())
                .collect();
            for (x, p) in cdf_points(&values) {
                rows.push(vec![name.to_string(), out::fmt(x), out::fmt(p)]);
            }
            let full = values.iter().filter(|&&v| v >= 99.999).count();
            println!(
                "  {name:8} communities at 100% support: {:.0}%",
                full as f64 / values.len().max(1) as f64 * 100.0
            );
        }
        let path = out::write_csv_series(
            &args.out_dir,
            "fig3c",
            &["granularity", "support_pct", "cdf"],
            &rows,
        )
        .unwrap();
        println!("  series → {path}");
    }
    if args.wants_panel("d") {
        println!("\n== Fig 3(d): distribution of rule degree (excl. singles) ==");
        let mut rows = Vec::new();
        println!(
            "  {:8} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "gran.", "deg0", "deg1", "deg2", "deg3", "deg4"
        );
        for (gi, name) in names.iter().enumerate() {
            let values: Vec<u32> = per_day.iter().flat_map(|d| d.degrees[gi].clone()).collect();
            let pmf = discrete_pmf(&values, 4);
            println!(
                "  {:8} {:>7} {:>7} {:>7} {:>7} {:>7}",
                name,
                out::fmt(pmf[0]),
                out::fmt(pmf[1]),
                out::fmt(pmf[2]),
                out::fmt(pmf[3]),
                out::fmt(pmf[4])
            );
            for (deg, &p) in pmf.iter().enumerate() {
                rows.push(vec![name.to_string(), deg.to_string(), out::fmt(p)]);
            }
        }
        let path = out::write_csv_series(
            &args.out_dir,
            "fig3d",
            &["granularity", "degree", "probability"],
            &rows,
        )
        .unwrap();
        println!("  series → {path}");
    }

    println!("\npaper shape check: flows must cut single communities (a) and grow");
    println!("community sizes (b); uniflow has the best rule support (c); packet");
    println!("granularity yields the most specific rules (d).");
}
