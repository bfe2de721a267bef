//! Figure 8: gains and costs of SCANN over time (Table-2 quantities),
//! with one detector highlighted per panel.
//!
//! Panels: (a) rejected communities, Gamma highlighted; (b) rejected,
//! Hough highlighted (worm sensitivity); (c) accepted, KL highlighted
//! (KL's false negatives).
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin fig8 [-- --panel b]
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::PipelineConfig;
use mawilab_detectors::DetectorKind;
use mawilab_eval::gain_cost;
use std::collections::BTreeMap;

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("fig8: {} days at scale {}", days.len(), args.scale);

    struct Day {
        year: u16,
        overall: mawilab_eval::GainCost,
        per_detector: Vec<(DetectorKind, mawilab_eval::GainCost)>,
    }

    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| Day {
        year: ctx.date.year,
        overall: gain_cost(
            &ctx.report.communities,
            &ctx.report.labeled.communities,
            &ctx.report.decisions,
            None,
        ),
        per_detector: DetectorKind::ALL
            .iter()
            .map(|&d| {
                (
                    d,
                    gain_cost(
                        &ctx.report.communities,
                        &ctx.report.labeled.communities,
                        &ctx.report.decisions,
                        Some(d),
                    ),
                )
            })
            .collect(),
    })
    .expect("synthetic archive days drain without source errors");

    let panels: [(&str, DetectorKind, bool); 3] = [
        ("a", DetectorKind::Gamma, false), // rejected
        ("b", DetectorKind::Hough, false), // rejected
        ("c", DetectorKind::Kl, true),     // accepted
    ];

    for (panel, detector, accepted) in panels {
        if !args.wants_panel(panel) {
            continue;
        }
        let class = if accepted { "accepted" } else { "rejected" };
        println!("\n== Fig 8({panel}): {class} gain/cost over time, {detector} highlighted ==");
        // Yearly sums: (overall gain, overall cost, det gain, det cost).
        let mut yearly: BTreeMap<u16, (usize, usize, usize, usize)> = BTreeMap::new();
        let mut rows = Vec::new();
        for day in &per_day {
            let det = day
                .per_detector
                .iter()
                .find(|(d, _)| *d == detector)
                .map(|(_, gc)| *gc)
                .unwrap_or_default();
            let (og, oc, dg, dc) = if accepted {
                (
                    day.overall.gain_acc,
                    day.overall.cost_acc,
                    det.gain_acc,
                    det.cost_acc,
                )
            } else {
                (
                    day.overall.gain_rej,
                    day.overall.cost_rej,
                    det.gain_rej,
                    det.cost_rej,
                )
            };
            let slot = yearly.entry(day.year).or_default();
            slot.0 += og;
            slot.1 += oc;
            slot.2 += dg;
            slot.3 += dc;
            rows.push(vec![
                day.year.to_string(),
                og.to_string(),
                oc.to_string(),
                dg.to_string(),
                dc.to_string(),
            ]);
        }
        let mut table = Vec::new();
        for (y, (og, oc, dg, dc)) in &yearly {
            table.push(vec![
                y.to_string(),
                og.to_string(),
                oc.to_string(),
                dg.to_string(),
                dc.to_string(),
            ]);
        }
        out::print_table(
            &[
                "year",
                &format!("overall gain_{}", if accepted { "acc" } else { "rej" }),
                "overall cost",
                &format!("{detector} gain"),
                &format!("{detector} cost"),
            ],
            &table,
        );
        let path = out::write_csv_series(
            &args.out_dir,
            &format!("fig8{panel}"),
            &[
                "year",
                "overall_gain",
                "overall_cost",
                "detector_gain",
                "detector_cost",
            ],
            &rows,
        )
        .unwrap();
        println!("series → {path}");
    }

    println!("\npaper shape check: Gamma carries over half of gain_rej (a); Hough's");
    println!("cost_rej spikes in the 2003-2004 worm years (b); about half of the");
    println!("accepted attacks are missed by KL — its false negatives (c).");
}
