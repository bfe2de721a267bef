//! Figure 7: attack-ratio time series of the four combination
//! strategies over the archive years.
//!
//! Panels: (a) accepted communities (higher is better), (b) rejected
//! (lower is better). Printed as monthly means; the full per-day
//! series lands in the CSV.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin fig7 [-- --panel a]
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::{PipelineConfig, StrategyKind};
use mawilab_eval::attack_ratio_by_class;
use std::collections::BTreeMap;

const STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Average,
    StrategyKind::Maximum,
    StrategyKind::Minimum,
    StrategyKind::Scann,
];

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("fig7: {} days at scale {}", days.len(), args.scale);

    // (date, strategy) → (accepted ratio, rejected ratio).
    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| {
        let mut v = Vec::new();
        for (kind, decisions) in ctx.per_strategy {
            if !STRATEGIES.contains(kind) {
                continue;
            }
            let r = attack_ratio_by_class(&ctx.report.labeled.communities, decisions);
            v.push((*kind, r.accepted, r.rejected));
        }
        (ctx.date, v)
    })
    .expect("synthetic archive days drain without source errors");

    for (panel, accepted) in [("a", true), ("b", false)] {
        if !args.wants_panel(panel) {
            continue;
        }
        let better = if accepted { "higher" } else { "lower" };
        println!(
            "\n== Fig 7({panel}): attack ratio over time, {} ({better} is better) ==",
            if accepted { "accepted" } else { "rejected" }
        );

        let mut rows = Vec::new();
        // monthly means per strategy: (year, month) → strategy → (sum, n)
        type MonthlySums = BTreeMap<(u16, u8), BTreeMap<&'static str, (f64, usize)>>;
        let mut monthly: MonthlySums = BTreeMap::new();
        for (date, per_strategy) in &per_day {
            for &(kind, acc, rej) in per_strategy {
                let val = if accepted { acc } else { rej };
                if let Some(v) = val {
                    rows.push(vec![
                        format!("{:.4}", date.fractional_year()),
                        kind.name().to_string(),
                        out::fmt(v),
                    ]);
                    let slot = monthly
                        .entry((date.year, date.month))
                        .or_default()
                        .entry(kind.name())
                        .or_insert((0.0, 0));
                    slot.0 += v;
                    slot.1 += 1;
                }
            }
        }
        // Print yearly means for compactness.
        let mut yearly: BTreeMap<u16, BTreeMap<&'static str, (f64, usize)>> = BTreeMap::new();
        for ((y, _m), per) in &monthly {
            for (name, (s, n)) in per {
                let slot = yearly
                    .entry(*y)
                    .or_default()
                    .entry(name)
                    .or_insert((0.0, 0));
                slot.0 += s;
                slot.1 += n;
            }
        }
        let mut table = Vec::new();
        for (y, per) in &yearly {
            let mut row = vec![y.to_string()];
            for kind in STRATEGIES {
                let (s, n) = per.get(kind.name()).copied().unwrap_or((0.0, 0));
                row.push(if n > 0 {
                    format!("{:.3}", s / n as f64)
                } else {
                    "-".into()
                });
            }
            table.push(row);
        }
        out::print_table(&["year", "average", "maximum", "minimum", "SCANN"], &table);
        let path = out::write_csv_series(
            &args.out_dir,
            &format!("fig7{panel}"),
            &["fractional_year", "strategy", "attack_ratio"],
            &rows,
        )
        .unwrap();
        println!("series → {path}");
    }

    println!("\npaper shape check: SCANN never has the worst ratio; both classes'");
    println!("ratios sag from 2007 on (elephant-flow mislabeling); rejected ratios");
    println!("bump during the 2003-2005 worm years.");
}
