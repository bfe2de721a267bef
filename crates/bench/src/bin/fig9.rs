//! Figure 9: breakdown of SCANN-accepted "Attack" communities by
//! heuristic label and by detector participation.
//!
//! With `--exclusive` also prints the §4.2.3 numbers: how many
//! accepted communities were identified by exactly one detector
//! (paper: PCA 8, Gamma 325, Hough 2467, KL 352 over 9 years), and
//! the share of accepted Attack communities that the KL detector
//! missed (paper: ≈50%).
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin fig9 [-- --exclusive]
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::PipelineConfig;
use mawilab_detectors::DetectorKind;
use mawilab_label::{HeuristicCategory, HeuristicLabel};
use std::collections::HashMap;

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("fig9: {} days at scale {}", days.len(), args.scale);

    #[derive(Default)]
    struct Acc {
        /// heuristic label → detector → count of accepted Attack
        /// communities that detector participates in.
        by_label: HashMap<HeuristicLabel, HashMap<DetectorKind, usize>>,
        /// heuristic label → total accepted Attack communities.
        totals: HashMap<HeuristicLabel, usize>,
        /// accepted communities exclusive to one detector.
        exclusive: HashMap<DetectorKind, usize>,
        /// accepted ∧ Attack missed by KL.
        attack_total: usize,
        attack_without_kl: usize,
    }

    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| {
        let mut acc = Acc::default();
        for (lc, d) in ctx
            .report
            .labeled
            .communities
            .iter()
            .zip(&ctx.report.decisions)
        {
            if !d.accepted {
                continue;
            }
            let detectors = ctx.report.communities.detectors_in(lc.community);
            if detectors.len() == 1 {
                *acc.exclusive.entry(detectors[0]).or_default() += 1;
            }
            if lc.heuristic.category() != HeuristicCategory::Attack {
                continue;
            }
            acc.attack_total += 1;
            if !detectors.contains(&DetectorKind::Kl) {
                acc.attack_without_kl += 1;
            }
            *acc.totals.entry(lc.heuristic).or_default() += 1;
            for det in detectors {
                *acc.by_label
                    .entry(lc.heuristic)
                    .or_default()
                    .entry(det)
                    .or_default() += 1;
            }
        }
        acc
    })
    .expect("synthetic archive days drain without source errors");

    // Merge.
    let mut merged = Acc::default();
    for day in per_day {
        for (l, per) in day.by_label {
            for (d, n) in per {
                *merged.by_label.entry(l).or_default().entry(d).or_default() += n;
            }
        }
        for (l, n) in day.totals {
            *merged.totals.entry(l).or_default() += n;
        }
        for (d, n) in day.exclusive {
            *merged.exclusive.entry(d).or_default() += n;
        }
        merged.attack_total += day.attack_total;
        merged.attack_without_kl += day.attack_without_kl;
    }

    println!("\n== Fig 9: SCANN-accepted Attack communities by label × detector ==");
    let mut table = Vec::new();
    let mut rows = Vec::new();
    for label in HeuristicLabel::ALL {
        if label.category() != HeuristicCategory::Attack {
            continue;
        }
        let total = merged.totals.get(&label).copied().unwrap_or(0);
        if total == 0 {
            continue;
        }
        let mut row = vec![label.to_string(), total.to_string()];
        for d in DetectorKind::ALL {
            let n = merged
                .by_label
                .get(&label)
                .and_then(|per| per.get(&d))
                .copied()
                .unwrap_or(0);
            row.push(n.to_string());
            rows.push(vec![label.to_string(), d.to_string(), n.to_string()]);
        }
        table.push(row);
    }
    out::print_table(
        &["label", "SCANN total", "PCA", "Gamma", "Hough", "KL"],
        &table,
    );
    let path = out::write_csv_series(
        &args.out_dir,
        "fig9",
        &["heuristic", "detector", "count"],
        &rows,
    )
    .unwrap();
    println!("series → {path}");

    if merged.attack_total > 0 {
        println!(
            "\naccepted Attack communities missed by KL: {}/{} = {:.0}% (paper ≈50%)",
            merged.attack_without_kl,
            merged.attack_total,
            merged.attack_without_kl as f64 / merged.attack_total as f64 * 100.0
        );
    }

    if args.exclusive {
        println!("\n== §4.2.3: accepted communities exclusive to one detector ==");
        let mut t2 = Vec::new();
        for d in DetectorKind::ALL {
            t2.push(vec![
                d.to_string(),
                merged.exclusive.get(&d).copied().unwrap_or(0).to_string(),
            ]);
        }
        out::print_table(&["detector", "exclusive accepted"], &t2);
        println!("(paper over 9 full years: PCA 8, Gamma 325, Hough 2467, KL 352 —");
        println!(" the ordering PCA ≪ others is the shape to check)");
    }
}
