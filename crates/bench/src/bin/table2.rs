//! Table 2: the four quantities measuring SCANN's benefits and
//! losses, aggregated over the archive run.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin table2
//! ```

use mawilab_bench::{out, run_days, Args};
use mawilab_core::PipelineConfig;
use mawilab_eval::{gain_cost, GainCost};

fn main() {
    let args = Args::parse();
    let days = args.days();
    eprintln!("table2: {} days at scale {}", days.len(), args.scale);

    let per_day = run_days(&days, args.scale, PipelineConfig::default(), |ctx| {
        gain_cost(
            &ctx.report.communities,
            &ctx.report.labeled.communities,
            &ctx.report.decisions,
            None,
        )
    })
    .expect("synthetic archive days drain without source errors");
    let total = per_day
        .iter()
        .fold(GainCost::default(), |acc, gc| GainCost {
            gain_acc: acc.gain_acc + gc.gain_acc,
            cost_acc: acc.cost_acc + gc.cost_acc,
            gain_rej: acc.gain_rej + gc.gain_rej,
            cost_rej: acc.cost_rej + gc.cost_rej,
        });

    println!("\n== Table 2: SCANN gains and losses (community counts) ==\n");
    out::print_table(
        &["label \\ SCANN", "accepted", "rejected"],
        &[
            vec![
                "Attack".into(),
                format!("gain_acc = {}", total.gain_acc),
                format!("cost_rej = {}", total.cost_rej),
            ],
            vec![
                "Special, Unknown".into(),
                format!("cost_acc = {}", total.cost_acc),
                format!("gain_rej = {}", total.gain_rej),
            ],
        ],
    );
    let accepted = total.gain_acc + total.cost_acc;
    let rejected = total.gain_rej + total.cost_rej;
    println!(
        "\naccepted communities: {accepted}  (attack ratio {:.2})",
        total.gain_acc as f64 / accepted.max(1) as f64
    );
    println!(
        "rejected communities: {rejected}  (attack ratio {:.2})",
        total.cost_rej as f64 / rejected.max(1) as f64
    );
    let _ = out::write_csv_series(
        &args.out_dir,
        "table2",
        &["gain_acc", "cost_acc", "gain_rej", "cost_rej"],
        &[vec![
            total.gain_acc.to_string(),
            total.cost_acc.to_string(),
            total.gain_rej.to_string(),
            total.cost_rej.to_string(),
        ]],
    )
    .unwrap();
    println!("\npaper shape check: rejected communities outnumber accepted ones");
    println!("(PCA noise is filtered), and the accepted attack ratio exceeds the");
    println!("rejected one.");
}
