//! Figure 6: probability density of the attack ratio over all
//! analyzed days.
//!
//! Panels (select with `--panel a|b|c`):
//! * (a) accepted communities, four combination strategies — more
//!   mass at high attack ratio is better,
//! * (b) rejected communities — more mass at low ratio is better,
//! * (c) the four detectors alone.
//!
//! Paper workload: every day 2001–2009; default here `--days 2`/mo.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin fig6 [-- --panel a]
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::{PipelineConfig, StrategyKind};
use mawilab_detectors::DetectorKind;
use mawilab_eval::{attack_ratio_by_class, detector_attack_ratio, pdf_histogram};

const STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Average,
    StrategyKind::Maximum,
    StrategyKind::Minimum,
    StrategyKind::Scann,
];

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("fig6: {} days at scale {}", days.len(), args.scale);

    struct Day {
        accepted: Vec<(StrategyKind, f64)>,
        rejected: Vec<(StrategyKind, f64)>,
        detectors: Vec<(DetectorKind, f64)>,
    }

    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| {
        let mut d = Day {
            accepted: vec![],
            rejected: vec![],
            detectors: vec![],
        };
        for (kind, decisions) in ctx.per_strategy {
            if !STRATEGIES.contains(kind) {
                continue;
            }
            let r = attack_ratio_by_class(&ctx.report.labeled.communities, decisions);
            if let Some(a) = r.accepted {
                d.accepted.push((*kind, a));
            }
            if let Some(b) = r.rejected {
                d.rejected.push((*kind, b));
            }
        }
        for det in DetectorKind::ALL {
            if let Some(r) = detector_attack_ratio(
                &ctx.report.communities,
                &ctx.report.labeled.communities,
                det,
            ) {
                d.detectors.push((det, r));
            }
        }
        d
    })
    .expect("synthetic archive days drain without source errors");

    let pdf_of = |values: &[f64]| pdf_histogram(values, 20, 0.0, 1.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    if args.wants_panel("a") || args.wants_panel("b") {
        for (panel, accepted) in [("a", true), ("b", false)] {
            if !args.wants_panel(panel) {
                continue;
            }
            let title = if accepted {
                "accepted (higher is better)"
            } else {
                "rejected (lower is better)"
            };
            println!("\n== Fig 6({panel}): PDF of attack ratio, {title} ==");
            let mut rows = Vec::new();
            let mut table = Vec::new();
            for kind in STRATEGIES {
                let values: Vec<f64> = per_day
                    .iter()
                    .flat_map(|d| if accepted { &d.accepted } else { &d.rejected })
                    .filter(|(k, _)| *k == kind)
                    .map(|&(_, v)| v)
                    .collect();
                table.push(vec![
                    kind.name().to_string(),
                    values.len().to_string(),
                    format!("{:.3}", mean(&values)),
                ]);
                for (x, dens) in pdf_of(&values) {
                    rows.push(vec![kind.name().to_string(), out::fmt(x), out::fmt(dens)]);
                }
            }
            out::print_table(&["strategy", "days", "mean attack ratio"], &table);
            let path = out::write_csv_series(
                &args.out_dir,
                &format!("fig6{panel}"),
                &["strategy", "attack_ratio", "density"],
                &rows,
            )
            .unwrap();
            println!("series → {path}");
        }
    }

    if args.wants_panel("c") {
        println!("\n== Fig 6(c): PDF of attack ratio per detector ==");
        let mut rows = Vec::new();
        let mut table = Vec::new();
        for det in DetectorKind::ALL {
            let values: Vec<f64> = per_day
                .iter()
                .flat_map(|d| &d.detectors)
                .filter(|(k, _)| *k == det)
                .map(|&(_, v)| v)
                .collect();
            table.push(vec![
                det.to_string(),
                values.len().to_string(),
                format!("{:.3}", mean(&values)),
            ]);
            for (x, dens) in pdf_of(&values) {
                rows.push(vec![det.to_string(), out::fmt(x), out::fmt(dens)]);
            }
        }
        out::print_table(&["detector", "days", "mean attack ratio"], &table);
        let path = out::write_csv_series(
            &args.out_dir,
            "fig6c",
            &["detector", "attack_ratio", "density"],
            &rows,
        )
        .unwrap();
        println!("series → {path}");
    }

    println!("\npaper shape check: SCANN has the strongest high-ratio mass among");
    println!("accepted classes (a); maximum has the strongest low-ratio mass among");
    println!("rejected (b); KL is the best single detector, below SCANN (c).");
}
