//! §6 runtime claim: "the current implementation requires only a few
//! minutes to combine alarms with a 15-minute traffic trace".
//!
//! Drains a real-size 900-second trace once through `OnlinePipeline`
//! and reports its total wall clock (perfbench owns the per-stage
//! profile) and the bytes the drain's evidence, horizon and unit
//! index hold at end of stream. Use `--scale` to push the packet rate
//! toward MAWI levels.
//!
//! ```sh
//! cargo run --release -p mawilab-bench --bin runtime [-- --scale 1.0]
//! ```

use mawilab_bench::{out, Args};
use mawilab_core::{OnlinePipeline, PipelineConfig};
use mawilab_model::{NoRewindSource, SourceError, TraceChunker, TraceDate, DEFAULT_CHUNK_US};
use mawilab_synth::{ArchiveConfig, ArchiveSimulator};
use std::time::Instant;

fn main() -> Result<(), SourceError> {
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

    let pipeline = OnlinePipeline::new(PipelineConfig::default());
    let mut sealed = NoRewindSource::new(TraceChunker::new(lt.trace, DEFAULT_CHUNK_US));
    let t1 = Instant::now();
    let online = pipeline.run(&mut sealed)?;
    let total = t1.elapsed();
    let (report, stats) = (&online.report, &online.stats);

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
    let per_packet = |bytes: usize| bytes as f64 / stats.packets.max(1) as f64;
    println!();
    out::print_table(
        &["drain state at end of stream", "bytes", "bytes/packet"],
        &[
            ("evidence", stats.evidence_bytes),
            ("horizon records + unit keys", stats.horizon_bytes),
            ("unit index", stats.unit_index_bytes),
        ]
        .map(|(part, bytes)| {
            vec![
                part.into(),
                bytes.to_string(),
                format!("{:.1}", per_packet(bytes)),
            ]
        }),
    );
    let claim_ok = total.as_secs() < 300;
    println!(
        "\n§6 claim (few minutes per 15-minute trace): measured {:.1}s → {}",
        total.as_secs_f64(),
        if claim_ok { "HOLDS" } else { "EXCEEDED" }
    );
    Ok(())
}
