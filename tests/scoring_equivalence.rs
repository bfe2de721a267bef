//! Scoring equivalence: one-pass `benchmark_alarms` against its
//! retained nested-loop oracle, `benchmark_alarms_sequential`.
//!
//! Each case labels a synthetic trace with the default ensemble, picks
//! a candidate detector — the ensemble itself, whose alarms lie inside
//! their communities, or one detector tuning, whose alarms overlap
//! communities partially — draws a seeded subset of its alarms (the
//! empty subset included), and scores it at one of the overlap floors
//! {0.0, 0.1, 0.5, 1.0}. The two scorers must return equal
//! `BenchmarkResult`s.

use mawilab::core::{
    benchmark_alarms, benchmark_alarms_sequential, MawilabPipeline, PipelineConfig, PipelineReport,
};
use mawilab::detectors::{
    Alarm, Detector, GammaDetector, HoughDetector, KlDetector, PcaDetector, TraceView, Tuning,
};
use mawilab::model::FlowTable;
use mawilab::synth::{LabeledTrace, SynthConfig, TraceGenerator};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::OnceLock;

const SEEDS: [u64; 3] = [31, 2010, 77];
const OVERLAPS: [f64; 4] = [0.0, 0.1, 0.5, 1.0];

/// One labeled trace and the alarms candidates are drawn from.
struct Fixture {
    lt: LabeledTrace,
    flows: FlowTable,
    report: PipelineReport,
    /// Candidate alarm pools: the ensemble's own alarms, then each
    /// candidate detector's.
    pools: Vec<Vec<Alarm>>,
    /// Whether some traffic unit lies in two or more labeled
    /// communities (the case the one-pass scorer's dedup stamp and
    /// per-unit community lists exist for).
    shared_unit: bool,
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let lt = TraceGenerator::new(SynthConfig::default().with_seed(seed)).generate();
                let flows = FlowTable::build(&lt.trace.packets);
                let report = MawilabPipeline::new(PipelineConfig::default()).run(&lt.trace);
                let view = TraceView::new(&lt.trace, &flows);
                let detectors: [Box<dyn Detector>; 5] = [
                    Box::new(KlDetector::new(Tuning::Sensitive)),
                    Box::new(HoughDetector::new(Tuning::Conservative)),
                    Box::new(GammaDetector::new(Tuning::Optimal)),
                    Box::new(GammaDetector::new(Tuning::Sensitive)),
                    Box::new(PcaDetector::new(Tuning::Sensitive)),
                ];
                let pools = std::iter::once(report.communities.alarms.clone())
                    .chain(detectors.iter().map(|d| d.analyze(&view)))
                    .collect();
                let shared_unit = has_shared_unit(&report);
                Fixture {
                    lt,
                    flows,
                    report,
                    pools,
                    shared_unit,
                }
            })
            .collect()
    })
}

fn has_shared_unit(report: &PipelineReport) -> bool {
    let c = &report.communities;
    let mut owner: HashMap<u32, usize> = HashMap::new();
    for (k, lc) in report.labeled.communities.iter().enumerate() {
        for &m in c.members(lc.community) {
            for &u in &c.traffic[m] {
                if *owner.entry(u).or_insert(k) != k {
                    return true;
                }
            }
        }
    }
    false
}

/// A seeded subset of `pool`, keeping each alarm with probability
/// `keep / 4` (so `keep = 0` is the empty subset).
fn subset(pool: &[Alarm], keep: u64, mut state: u64) -> Vec<Alarm> {
    pool.iter()
        .filter(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % 4 < keep
        })
        .cloned()
        .collect()
}

#[test]
fn benchmark_alarms_equals_benchmark_alarms_sequential() {
    let fixtures = fixtures();
    let shared_cases = Cell::new(0u32);
    let empty_cases = Cell::new(0u32);
    let mut runner = TestRunner::new(
        ProptestConfig::with_cases(64),
        "benchmark_alarms_equals_benchmark_alarms_sequential",
    );
    let strategy = (
        0..fixtures.len(),
        0..fixtures[0].pools.len(),
        0..OVERLAPS.len(),
        0u64..5,
        any::<u64>(),
    );
    runner.run(&strategy, |(f, pool, o, keep, state)| {
        let fx = &fixtures[f];
        let view = TraceView::new(&fx.lt.trace, &fx.flows);
        let alarms = subset(&fx.pools[pool], keep, state);
        let min_overlap = OVERLAPS[o];
        let fast = benchmark_alarms(&view, &fx.report, &alarms, min_overlap);
        let want = benchmark_alarms_sequential(&view, &fx.report, &alarms, min_overlap);
        shared_cases.set(shared_cases.get() + u32::from(fx.shared_unit));
        empty_cases.set(empty_cases.get() + u32::from(alarms.is_empty()));
        prop_assert_eq!(
            fast,
            want,
            "seed {}, {} alarms, min_overlap {}",
            SEEDS[f],
            alarms.len(),
            min_overlap
        );
        Ok(())
    });
    assert!(
        shared_cases.get() > 0,
        "no case had a unit in two labeled communities"
    );
    assert!(empty_cases.get() > 0, "no case scored the empty subset");
}
