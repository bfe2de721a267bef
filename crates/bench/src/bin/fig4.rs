//! Figure 4: rule support and rule degree as functions of community
//! size (uniflow granularity).
//!
//! The paper smooths these curves with a weighted spline; we print
//! means over logarithmic size bins, which exposes the same shape:
//! the largest communities degenerate to degree-1 / support-100%
//! "well-known port" rules while communities under ~20 nodes keep
//! degree > 2 and support > 75%.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin fig4
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::PipelineConfig;

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("fig4: {} days at scale {}", days.len(), args.scale);

    // Pool (size, degree, support%) triples over all communities. The
    // default configuration mines each community's summary at uniflow
    // granularity with 20 % support while it labels.
    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| {
        let sizes = ctx.report.communities.sizes();
        ctx.report
            .labeled
            .communities
            .iter()
            .map(|lc| {
                let s = &lc.summary;
                (sizes[lc.community], s.rule_degree, s.rule_support * 100.0)
            })
            .collect::<Vec<_>>()
    })
    .expect("synthetic archive days drain without source errors");
    let triples: Vec<(usize, f64, f64)> = per_day.into_iter().flatten().collect();

    // Logarithmic size bins: 1, 2, 3-4, 5-8, ..., 513+.
    let bin_of = |size: usize| (size.max(1) as f64).log2().floor() as usize;
    let n_bins = triples
        .iter()
        .map(|&(s, _, _)| bin_of(s))
        .max()
        .unwrap_or(0)
        + 1;
    let mut acc: Vec<(usize, f64, f64)> = vec![(0, 0.0, 0.0); n_bins];
    for &(size, degree, support) in &triples {
        let b = bin_of(size);
        acc[b].0 += 1;
        acc[b].1 += degree;
        acc[b].2 += support;
    }

    println!("\n== Fig 4: rule metrics vs community size (uniflow) ==");
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (b, &(n, deg_sum, sup_sum)) in acc.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let lo = 1usize << b;
        let hi = (1usize << (b + 1)) - 1;
        let deg = deg_sum / n as f64;
        let sup = sup_sum / n as f64;
        table.push(vec![
            format!("{lo}-{hi}"),
            n.to_string(),
            format!("{deg:.2}"),
            format!("{sup:.0}%"),
        ]);
        rows.push(vec![
            lo.to_string(),
            n.to_string(),
            out::fmt(deg),
            out::fmt(sup),
        ]);
    }
    out::print_table(
        &["size", "communities", "rule degree", "rule support"],
        &table,
    );
    let path = out::write_csv_series(
        &args.out_dir,
        "fig4",
        &["size_bin_lo", "n", "rule_degree", "rule_support_pct"],
        &rows,
    )
    .unwrap();
    println!("\nseries → {path}");
    println!("paper shape check: degree falls toward 1 and support toward 100% as");
    println!("communities grow; sizes < ~20 keep degree ≥ 2 and support ≥ 75%.");
}
