//! Quickstart: label one synthetic MAWI-like trace.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a 60-second trace with a representative anomaly mix,
//! runs the full MAWILab pipeline (12 detector configurations →
//! similarity graph → Louvain communities → SCANN), and prints the
//! labeled anomalies with their association-rule summaries.

use mawilab::core::{MawilabPipeline, PipelineConfig};
use mawilab::label::MawilabLabel;
use mawilab::synth::{SynthConfig, TraceGenerator};
use std::time::Instant;

fn main() {
    let labeled_trace = TraceGenerator::new(SynthConfig::default().with_seed(7)).generate();
    println!(
        "trace {} — {} packets, {:.1}% injected anomalous traffic",
        labeled_trace.trace.meta.date,
        labeled_trace.trace.len(),
        labeled_trace.truth.anomalous_fraction() * 100.0
    );

    let pipeline = MawilabPipeline::new(PipelineConfig::default());
    let start = Instant::now();
    let report = pipeline.run(&labeled_trace.trace);
    let elapsed = start.elapsed();

    println!(
        "\n{} alarms → {} communities ({} single) in {:?}",
        report.alarm_count(),
        report.community_count(),
        report.communities.single_count(),
        elapsed
    );
    for label in [
        MawilabLabel::Anomalous,
        MawilabLabel::Suspicious,
        MawilabLabel::Notice,
    ] {
        println!("  {:10} {}", label.to_string(), report.labeled.count(label));
    }

    println!("\nanomalous communities:");
    for lc in report.labeled.anomalies() {
        println!("  {lc}");
    }

    println!("\nground truth for reference:");
    for a in labeled_trace.truth.anomalies() {
        println!("  {a}");
    }
}
