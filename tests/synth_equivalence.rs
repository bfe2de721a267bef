//! Generation-equivalence suite for the synth engine.
//!
//! `generate` (anomalies + background bins over counter-derived RNG
//! streams, merged by a bucketed per-bin sort) must be
//! **byte-identical** to the sequential reference
//! (`generate_sequential`, one global stable sort) on every config,
//! and the chunk-native streaming source must emit exactly the batch
//! trace at every chunk width.

use mawilab::model::{collect_packets, PacketSource, TraceDate};
use mawilab::synth::{ArchiveConfig, ArchiveSimulator, LabeledTrace, SynthConfig, TraceGenerator};
use proptest::prelude::*;

/// Asserts two labeled traces are byte-identical: packets, per-packet
/// truth tags, and the anomaly records' load-bearing fields.
fn assert_identical(a: &LabeledTrace, b: &LabeledTrace, what: &str) {
    assert_eq!(a.trace.packets, b.trace.packets, "{what}: packets");
    assert_eq!(a.truth.tags(), b.truth.tags(), "{what}: tags");
    assert_eq!(
        a.truth.anomalies().len(),
        b.truth.anomalies().len(),
        "{what}: record count"
    );
    for (ra, rb) in a.truth.anomalies().iter().zip(b.truth.anomalies()) {
        assert_eq!(
            (ra.id, ra.kind, ra.window, ra.packet_count),
            (rb.id, rb.kind, rb.window, rb.packet_count),
            "{what}: record"
        );
    }
}

#[test]
fn bucketed_generate_equals_sequential_oracle() {
    // Plain configs across seeds, plus one archive day (the per-day
    // config path used by the month-scale sweeps).
    let sim = ArchiveSimulator::new(ArchiveConfig {
        scale: 0.4,
        ..Default::default()
    });
    let configs: Vec<SynthConfig> = vec![
        SynthConfig::default().with_seed(7),
        SynthConfig::default().with_seed(99).with_duration(23),
        sim.config_for(TraceDate::new(2004, 5, 10)),
    ];
    for cfg in &configs {
        let generator = TraceGenerator::new(cfg.clone());
        let oracle = generator.generate_sequential();
        assert_identical(
            &generator.generate(),
            &oracle,
            &format!("seed {}", cfg.seed),
        );
        // The chunk-native source must replay the same bytes too.
        let mut source = generator.stream(5_000_000);
        assert_eq!(
            collect_packets(&mut source).unwrap(),
            oracle.trace.packets,
            "stream of seed {}",
            cfg.seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// stream(bin_us) chunk concatenation ≡ generate() across seeds ×
    /// durations × chunk widths (the identity PR 2 proved for
    /// detection, now for generation). Also checks chunk shape: windows
    /// non-overlapping, in order, every packet inside its window.
    #[test]
    fn stream_concatenation_matches_batch(
        seed in 0u64..500,
        duration_s in 8u32..30,
        bin_choice in 0usize..6,
    ) {
        let bin_us = [500_000u64, 1_000_000, 2_500_000, 5_000_000, 7_300_000, 60_000_000]
            [bin_choice];
        let cfg = SynthConfig::default()
            .with_seed(seed)
            .with_duration(duration_s);
        let generator = TraceGenerator::new(cfg);
        let batch = generator.generate();
        let mut source = generator.stream(bin_us);

        let mut streamed = Vec::new();
        let mut tags = Vec::new();
        let mut last_window_end = 0u64;
        while let Some(chunk) = source.next_chunk().unwrap() {
            prop_assert!(!chunk.is_empty(), "empty chunk emitted");
            prop_assert!(chunk.window.start_us >= last_window_end, "windows overlap");
            prop_assert_eq!(chunk.window.len_us(), bin_us);
            for p in &chunk.packets {
                prop_assert!(chunk.window.contains(p.ts_us));
            }
            last_window_end = chunk.window.end_us;
            streamed.extend_from_slice(&chunk.packets);
            tags.extend_from_slice(source.chunk_tags());
        }
        prop_assert_eq!(&streamed, &batch.trace.packets);
        prop_assert_eq!(&tags, &batch.truth.tags().to_vec());

        // Rewinding replays the identical stream.
        source.rewind().unwrap();
        prop_assert_eq!(collect_packets(&mut source).unwrap(), streamed);
    }

    /// Bucketed `generate` ≡ `generate_sequential` under
    /// proptest-chosen configs.
    #[test]
    fn bucketed_generate_equals_sequential_on_arbitrary_configs(
        seed in 0u64..10_000,
        duration_s in 5u32..25,
        pps in 100.0f64..700.0,
    ) {
        let cfg = SynthConfig::default()
            .with_seed(seed)
            .with_duration(duration_s)
            .with_background_pps(pps);
        let generator = TraceGenerator::new(cfg);
        let bucketed = generator.generate();
        let oracle = generator.generate_sequential();
        prop_assert_eq!(&bucketed.trace.packets, &oracle.trace.packets);
        prop_assert_eq!(bucketed.truth.tags(), oracle.truth.tags());
    }
}
