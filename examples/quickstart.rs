//! Quickstart: label one synthetic MAWI-like trace.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a 60-second trace with a representative anomaly mix,
//! drains it once through the production `OnlinePipeline` (12
//! detector configurations → similarity graph → Louvain communities
//! → SCANN; the batch `MawilabPipeline` is its oracle), and prints
//! the labeled anomalies with their association-rule summaries.

use mawilab::core::{OnlinePipeline, PipelineConfig};
use mawilab::label::MawilabLabel;
use mawilab::model::{NoRewindSource, SourceError, TraceChunker, DEFAULT_CHUNK_US};
use mawilab::synth::{SynthConfig, TraceGenerator};
use std::time::Instant;

fn main() -> Result<(), SourceError> {
    let day = TraceGenerator::new(SynthConfig::default().with_seed(7)).generate();
    println!(
        "trace {} — {} packets, {:.1}% injected anomalous traffic",
        day.trace.meta.date,
        day.trace.len(),
        day.truth.anomalous_fraction() * 100.0
    );

    let mut source = NoRewindSource::new(TraceChunker::new(day.trace, DEFAULT_CHUNK_US));
    let pipeline = OnlinePipeline::new(PipelineConfig::default());
    let start = Instant::now();
    let report = pipeline.run(&mut source)?.report;
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
    for a in day.truth.anomalies() {
        println!("  {a}");
    }
    Ok(())
}
