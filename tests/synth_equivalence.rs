//! Generation-equivalence suite for the synth engine.
//!
//! `generate` (anomalies + background bins over counter-derived RNG
//! streams, merged by a bucketed per-bin sort) must be
//! **byte-identical** to the sequential reference
//! (`generate_sequential`, one global stable sort) on every config.

use mawilab::model::TraceDate;
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

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
