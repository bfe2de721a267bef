//! Drain-bytes probe: the bytes the single-pass drain holds at end of
//! stream, per packet, at each granularity.
//!
//! Drains the `runtime` bin's day (2004-06-02, 900 s) at scale 4 —
//! about 1.47 M packets — once per granularity, and prints the
//! evidence, horizon and unit-index bytes per packet with an FNV-1a 64
//! digest of the labels, so a memory change can show both its bytes
//! and that the labels did not move. It checks the evidence bound:
//! three `u32` counters per traffic unit, at most 24 bytes per packet
//! with `Vec` growth slack, at every granularity.
//!
//! Ignored by default (about 2 s in release, after the build):
//!
//! ```sh
//! cargo test --release -p mawilab-bench --test drain_bytes -- --ignored --nocapture
//! ```

use mawilab_bench::out;
use mawilab_core::{OnlinePipeline, PipelineConfig};
use mawilab_model::{Granularity, NoRewindSource, TraceChunker, TraceDate, DEFAULT_CHUNK_US};
use mawilab_synth::{ArchiveConfig, ArchiveSimulator};

/// FNV-1a, 64-bit (offset basis `0xcbf2_9ce4_8422_2325`, prime
/// `0x100_0000_01b3`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
#[ignore = "scale-4 day at three granularities; run with --release -- --ignored --nocapture"]
fn drain_bytes_per_packet_at_every_granularity() {
    let trace = ArchiveSimulator::new(ArchiveConfig {
        scale: 4.0,
        duration_s: 900,
        ..Default::default()
    })
    .generate(TraceDate::new(2004, 6, 2))
    .trace;
    let mut rows = Vec::new();
    let mut over = Vec::new();
    for granularity in [
        Granularity::Packet,
        Granularity::Uniflow,
        Granularity::Biflow,
    ] {
        let config = PipelineConfig {
            granularity,
            ..Default::default()
        };
        let mut source = NoRewindSource::new(TraceChunker::new(trace.clone(), DEFAULT_CHUNK_US));
        let online = OnlinePipeline::new(config).run(&mut source).unwrap();
        let stats = online.stats;
        let per_packet =
            |bytes: usize| format!("{:.1}", bytes as f64 / stats.packets.max(1) as f64);
        if stats.evidence_bytes as u64 > 24 * stats.packets {
            over.push(granularity);
        }
        rows.push(vec![
            granularity.to_string(),
            stats.packets.to_string(),
            per_packet(stats.evidence_bytes),
            per_packet(stats.horizon_bytes),
            per_packet(stats.unit_index_bytes),
            format!(
                "{:#018x}",
                fnv1a(format!("{:?}", online.report.labeled).as_bytes())
            ),
        ]);
    }
    out::print_table(
        &[
            "granularity",
            "packets",
            "evidence B/packet",
            "horizon B/packet",
            "unit index B/packet",
            "labels fnv1a",
        ],
        &rows,
    );
    assert!(over.is_empty(), "evidence above 24 B/packet at {over:?}");
}
