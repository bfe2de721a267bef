//! §6 runtime claim: "the current implementation requires only a few
//! minutes to combine alarms with a 15-minute traffic trace".
//!
//! Runs the full pipeline on a real-size 900-second trace and reports
//! its total wall clock (perfbench owns the per-stage profile). Use
//! `--scale` to push the packet rate toward MAWI levels.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin runtime [-- --scale 1.0]
//! ```

use mawilab_bench::{out, Args};
use mawilab_core::{MawilabPipeline, PipelineConfig};
use mawilab_model::TraceDate;
use mawilab_synth::{ArchiveConfig, ArchiveSimulator};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let sim = ArchiveSimulator::new(ArchiveConfig {
        scale: args.scale,
        duration_s: 900, // the real 15-minute capture length
        ..Default::default()
    });
    let day = TraceDate::new(2004, 6, 2);
    eprintln!("generating a 900-second trace at scale {} …", args.scale);
    let t0 = Instant::now();
    let lt = sim.generate(day);
    let synth_time = t0.elapsed();
    println!(
        "trace: {} packets over {}s ({:.2} Mbps mean)",
        lt.trace.len(),
        lt.trace.meta.duration_s,
        lt.trace.mean_rate_mbps()
    );

    let pipeline = MawilabPipeline::new(PipelineConfig::default());
    let t1 = Instant::now();
    let report = pipeline.run(&lt.trace);
    let total = t1.elapsed();

    println!(
        "\n{} alarms → {} communities → {} anomalous",
        report.alarm_count(),
        report.community_count(),
        report.labeled.count(mawilab_label::MawilabLabel::Anomalous)
    );
    out::print_table(
        &["stage", "wall-clock"],
        &[
            vec!["trace synthesis".into(), format!("{synth_time:?}")],
            vec!["pipeline total".into(), format!("{total:?}")],
        ],
    );
    let claim_ok = total.as_secs() < 300;
    println!(
        "\n§6 claim (few minutes per 15-minute trace): measured {:.1}s → {}",
        total.as_secs_f64(),
        if claim_ok { "HOLDS" } else { "EXCEEDED" }
    );
}
