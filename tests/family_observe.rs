//! Family-observe equivalence: one accumulator per observation group
//! against one solo accumulator per configuration.
//!
//! The production drain folds each chunk into one accumulator per
//! [`ObservationKey`] (`observation_groups`): the three tunings of a
//! detector family build identical state, so the family observes once
//! and all its configurations are finished from the shared state by
//! one `finish_tunings` call. The oracle is the batch adapter
//! `Detector::analyze`, which keeps a solo accumulator per
//! configuration. Every comparison here demands identical alarms in
//! the caller's configuration order.
//!
//! Tests mutating `MAWILAB_THREADS` share `ENV_LOCK` (the variable is
//! process-wide).

use mawilab::core::{OnlinePipeline, PipelineConfig};
use mawilab::detectors::{
    observation_groups, observe_all, standard_configurations, Alarm, ChunkView, Detector,
    DetectorKind, GammaDetector, HoughDetector, IncrementalDetector, KlDetector, ObservationKey,
    PcaDetector, TraceView, Tuning,
};
use mawilab::model::{
    FlowTable, Packet, PacketSource, Trace, TraceChunker, TraceMeta, DEFAULT_CHUNK_US,
};
use mawilab::synth::{AnomalySpec, LabeledTrace, SynthConfig, TraceGenerator};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn synth(seed: u64) -> LabeledTrace {
    TraceGenerator::new(SynthConfig::default().with_seed(seed).with_anomalies(vec![
        AnomalySpec::SynFlood {
            victim: 40,
            dport: 80,
            rate_pps: 250.0,
            duration_s: 12.0,
            spoofed: true,
        },
        AnomalySpec::SasserWorm {
            infected: 3,
            scans: 900,
            rate_pps: 60.0,
        },
    ]))
    .generate()
}

/// The oracle: a solo accumulator per configuration through the batch
/// adapter, alarms concatenated in configuration order.
fn solo(configs: &[Box<dyn Detector>], trace: &Trace) -> Vec<Alarm> {
    let flows = FlowTable::build(&trace.packets);
    let view = TraceView::new(trace, &flows);
    configs.iter().flat_map(|c| c.analyze(&view)).collect()
}

/// The drain's detector stage: one accumulator per observation group,
/// fed `bin_us` chunks through the `exec` fan-out.
fn fused(configs: &[Box<dyn Detector>], trace: &Trace, bin_us: u64) -> Vec<Alarm> {
    let mut groups = observation_groups(configs);
    groups.begin(&trace.meta);
    let mut source = TraceChunker::new(trace.clone(), bin_us);
    while let Some(chunk) = source.next_chunk().unwrap() {
        observe_all(
            groups.accumulators_mut(),
            &ChunkView::of_chunk(&trace.meta, chunk),
        );
    }
    groups.finish()
}

/// Alarms of the production drain (`OnlinePipeline::run`) over
/// `DEFAULT_CHUNK_US` chunks.
fn drained(configs: Vec<Box<dyn Detector>>, trace: &Trace) -> Vec<Alarm> {
    let mut source = TraceChunker::new(trace.clone(), DEFAULT_CHUNK_US);
    OnlinePipeline::new(PipelineConfig::default())
        .with_detectors(configs)
        .run(&mut source)
        .unwrap()
        .report
        .communities
        .alarms
}

#[test]
fn standard_configurations_fused_equal_solo_across_seeds_chunks_and_threads() {
    let _lock = ENV_LOCK.lock().unwrap();
    let configs = standard_configurations();
    for seed in [3, 11, 29] {
        let lt = synth(seed);
        let expected = solo(&configs, &lt.trace);
        assert!(!expected.is_empty(), "seed {seed} raised no alarms");
        for threads in ["1", "2"] {
            std::env::set_var("MAWILAB_THREADS", threads);
            for bin_us in [1_000_000u64, 5_000_000, 60_000_000] {
                assert_eq!(
                    fused(&configs, &lt.trace, bin_us),
                    expected,
                    "seed {seed}, {bin_us} µs chunks, {threads} threads"
                );
            }
        }
    }
    std::env::remove_var("MAWILAB_THREADS");
}

/// A standard configuration that opts out of sharing: the default
/// `observation_key` (`None`).
struct Keyless(KlDetector);

impl Detector for Keyless {
    fn kind(&self) -> DetectorKind {
        self.0.kind()
    }

    fn tuning(&self) -> Tuning {
        self.0.tuning()
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        self.0.incremental()
    }
}

#[test]
fn custom_sets_keep_the_callers_order() {
    let lt = synth(13);
    type Build = fn() -> Vec<Box<dyn Detector>>;
    let sets: [(&str, Build); 4] = [
        ("duplicated configuration", || {
            vec![
                Box::new(KlDetector::new(Tuning::Sensitive)),
                Box::new(KlDetector::new(Tuning::Sensitive)),
            ]
        }),
        ("subset out of standard order", || {
            vec![
                Box::new(HoughDetector::new(Tuning::Optimal)),
                Box::new(PcaDetector::new(Tuning::Sensitive)),
            ]
        }),
        // One shared finish for all four: the repeats must not take
        // more line bits than three distinct tunings do.
        ("thrice-repeated configuration", || {
            vec![
                Box::new(HoughDetector::new(Tuning::Sensitive)),
                Box::new(HoughDetector::new(Tuning::Sensitive)),
                Box::new(HoughDetector::new(Tuning::Sensitive)),
                Box::new(HoughDetector::new(Tuning::Conservative)),
            ]
        }),
        ("keyless configuration among keyed ones", || {
            vec![
                Box::new(KlDetector::new(Tuning::Optimal)),
                Box::new(Keyless(KlDetector::new(Tuning::Sensitive))),
                Box::new(KlDetector::new(Tuning::Sensitive)),
            ]
        }),
    ];
    for (name, build) in sets {
        let expected = solo(&build(), &lt.trace);
        assert!(!expected.is_empty(), "{name}: no alarms to order");
        assert_eq!(drained(build(), &lt.trace), expected, "{name}");
    }
}

/// A family configuration that counts how often its accumulator is
/// built.
struct Counting {
    inner: PcaDetector,
    built: Arc<AtomicUsize>,
}

impl Detector for Counting {
    fn kind(&self) -> DetectorKind {
        self.inner.kind()
    }

    fn tuning(&self) -> Tuning {
        self.inner.tuning()
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        self.built.fetch_add(1, Ordering::SeqCst);
        self.inner.incremental()
    }

    fn observation_key(&self) -> Option<ObservationKey> {
        self.inner.observation_key()
    }
}

#[test]
fn configurations_sharing_a_key_build_one_accumulator() {
    let built = Arc::new(AtomicUsize::new(0));
    let configs: Vec<Box<dyn Detector>> = Tuning::ALL
        .into_iter()
        .map(|t| {
            Box::new(Counting {
                inner: PcaDetector::new(t),
                built: built.clone(),
            }) as Box<dyn Detector>
        })
        .collect();
    let lt = synth(17);
    let alarms = fused(&configs, &lt.trace, DEFAULT_CHUNK_US);
    assert_eq!(built.load(Ordering::SeqCst), 1, "one accumulator per key");
    assert_eq!(alarms, solo(&configs, &lt.trace));
}

/// One configuration per family, each in every tuning.
fn families() -> [fn(Tuning) -> Box<dyn Detector>; 4] {
    [
        |t| Box::new(PcaDetector::new(t)),
        |t| Box::new(GammaDetector::new(t)),
        |t| Box::new(HoughDetector::new(t)),
        |t| Box::new(KlDetector::new(t)),
    ]
}

/// A background-only day of `duration_s` seconds.
fn short_day(seed: u64, duration_s: u32) -> Trace {
    TraceGenerator::new(
        SynthConfig::default()
            .with_seed(seed)
            .with_duration(duration_s)
            .with_anomalies(vec![]),
    )
    .generate()
    .trace
}

#[test]
fn finish_tuning_on_a_shared_accumulator_equals_the_solo_finish() {
    use Tuning::{Conservative, Optimal, Sensitive};
    let tuning_lists: [&[Tuning]; 7] = [
        &Tuning::ALL,
        &[Sensitive, Optimal, Conservative],
        &[Sensitive, Optimal, Sensitive],
        &[Optimal, Optimal],
        &[Conservative],
        &[Optimal],
        &[Sensitive],
    ];
    let day = synth(23).trace;
    let empty = Trace::new(day.meta.clone(), Vec::new());
    // 6 s: too short for PCA's 2 s bins (< 4), long enough for
    // Gamma's 0.5 s bins; 3 s: too short for both (< 8 bins).
    let traces = [
        ("synthetic day", day),
        ("6 s day", short_day(5, 6)),
        ("3 s day", short_day(5, 3)),
        ("empty day", empty),
    ];
    let mut alarms_per_family = [0usize; 4];
    for (name, trace) in &traces {
        let flows = FlowTable::build(&trace.packets);
        let view = TraceView::new(trace, &flows);
        for (f, family) in families().into_iter().enumerate() {
            let mut shared = family(Optimal).incremental();
            shared.begin(&trace.meta);
            shared.observe(&ChunkView::whole_trace(trace));
            for tunings in tuning_lists {
                let expected: Vec<Vec<Alarm>> =
                    tunings.iter().map(|&t| family(t).analyze(&view)).collect();
                alarms_per_family[f] += expected.iter().map(Vec::len).sum::<usize>();
                assert_eq!(
                    shared.finish_tunings(tunings),
                    expected,
                    "{name}, {}, {tunings:?}",
                    family(Optimal).kind()
                );
            }
        }
    }
    assert!(
        alarms_per_family.iter().all(|&n| n > 0),
        "a family raised no alarm: {alarms_per_family:?}"
    );
}

/// The synthetic trace's packets with a port sweep stamped before the
/// window start and another after its end.
fn with_out_of_window_sweeps(lt: &LabeledTrace) -> (Vec<Packet>, Vec<Packet>) {
    let w = lt.trace.meta.window();
    let sweep = |ts: u64, host: u8| -> Vec<Packet> {
        (0..4096u16)
            .map(|i| {
                Packet::udp(
                    ts,
                    Ipv4Addr::new(10, 99, 0, host),
                    40_000,
                    Ipv4Addr::new(10, 98, 0, host),
                    i * 16,
                    60,
                )
            })
            .collect()
    };
    (
        sweep(w.start_us - 3_000_000, 1),
        sweep(w.end_us + 7_000_000, 2),
    )
}

/// Feeds `chunks` into one solo accumulator of `config`.
fn solo_stream(config: &dyn Detector, meta: &TraceMeta, chunks: &[&[Packet]]) -> Vec<Alarm> {
    let mut inc = config.incremental();
    inc.begin(meta);
    for packets in chunks {
        inc.observe(&ChunkView {
            meta,
            window: meta.window(),
            packets,
        });
    }
    inc.finish()
}

#[test]
fn out_of_window_packets_and_empty_chunks_agree_fused_and_solo() {
    let lt = synth(31);
    let meta = &lt.trace.meta;
    let w = meta.window();
    let (before, after) = with_out_of_window_sweeps(&lt);
    let chunks: [&[Packet]; 4] = [&before, &[], &lt.trace.packets, &after];

    // Fused: one accumulator per family, inline and fanned out.
    let configs = standard_configurations();
    let mut groups = observation_groups(&configs);
    groups.begin(meta);
    for (i, packets) in chunks.iter().enumerate() {
        let view = ChunkView {
            meta,
            window: w,
            packets,
        };
        if i % 2 == 0 {
            observe_all(groups.accumulators_mut(), &view);
        } else {
            for acc in groups.accumulators_mut() {
                acc.observe(&view);
            }
        }
    }
    let fused = groups.finish();
    let solo: Vec<Alarm> = configs
        .iter()
        .flat_map(|c| solo_stream(c.as_ref(), meta, &chunks))
        .collect();
    assert_eq!(fused, solo);

    // Today's per-family behaviour: PCA and Gamma skip packets stamped
    // outside the window, Hough and KL clamp them into the first and
    // last time bins.
    let skipped = |c: &dyn Detector| solo_stream(c, meta, &[&lt.trace.packets]);
    let clamped = |c: &dyn Detector| {
        let restamp = |ps: &[Packet], ts: u64| -> Vec<Packet> {
            ps.iter().map(|p| Packet { ts_us: ts, ..*p }).collect()
        };
        let first = restamp(&before, w.start_us);
        let last = restamp(&after, w.end_us - 1);
        solo_stream(c, meta, &[&first, &lt.trace.packets, &last])
    };
    let mut moved = 0;
    for config in &configs {
        let with_oow = solo_stream(config.as_ref(), meta, &chunks);
        match config.kind() {
            DetectorKind::Pca | DetectorKind::Gamma => {
                assert_eq!(with_oow, skipped(config.as_ref()), "{}", config.label());
            }
            DetectorKind::Hough | DetectorKind::Kl => {
                assert_eq!(with_oow, clamped(config.as_ref()), "{}", config.label());
                moved += usize::from(with_oow != skipped(config.as_ref()));
            }
        }
    }
    assert!(moved > 0, "the clamped sweeps never reached an alarm");
}
