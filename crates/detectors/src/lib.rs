//! # mawilab-detectors
//!
//! From-scratch implementations of the four unsupervised backbone
//! anomaly detectors the paper combines (§3.2), each reporting alarms
//! at its own traffic granularity:
//!
//! | Detector | Technique | Alarm granularity |
//! |---|---|---|
//! | [`pca`]   | random-projection sketches + principal-subspace residuals (Lakhina'04 / Li'06 / Kanda'10) | source host |
//! | [`gamma`] | sketches + multi-resolution Gamma modelling (Dewaele'07) | source *or* destination host |
//! | [`hough`] | Hough-transform line detection on 2-D traffic images (Fontugne & Fukuda'11) | aggregated flow sets |
//! | [`kl`]    | Kullback–Leibler divergence on feature histograms + association rules (Brauckhoff'09) | 4-tuple feature rules |
//!
//! Each detector ships with the paper's **three parameter tunings**
//! (conservative / optimal / sensitive), yielding the 12
//! *configurations* whose votes the combiner consumes.
//! [`standard_configurations`] builds all twelve.
//!
//! Granularity diversity is the whole point: these alarm types cannot
//! be compared naively, which is what motivates the similarity
//! estimator (`mawilab-similarity`).
//!
//! ## One observation per family
//!
//! Within a family the tuning changes only `finish`-side thresholds;
//! bin widths, picture and sketch shapes and hash seeds are
//! constants, so the three tunings fold a chunk into identical state.
//! Each family therefore reports an [`ObservationKey`], and
//! [`observation_groups`] keeps **one accumulator per key**: the
//! production drain observes every chunk once per family and finishes
//! all of a family's configurations from the shared state with one
//! [`IncrementalDetector::finish_tunings`] call, which does the
//! tuning-independent part of the analysis once. The batch path
//! ([`run_all`] → [`Detector::analyze`]) keeps one solo accumulator
//! per configuration and is the oracle the fused drain is checked
//! against (`tests/family_observe.rs`).

#![forbid(unsafe_code)]

pub mod alarm;
pub mod gamma;
pub mod hough;
pub mod kl;
pub mod pca;

pub use alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
pub use gamma::GammaDetector;
pub use hough::HoughDetector;
pub use kl::KlDetector;
pub use pca::PcaDetector;

use mawilab_model::{FlowTable, Packet, PacketChunk, TimeWindow, Trace, TraceMeta};

/// A trace plus its precomputed flow index — the shared input of all
/// detectors.
pub struct TraceView<'a> {
    /// The trace under analysis.
    pub trace: &'a Trace,
    /// Flow index of the same trace.
    pub flows: &'a FlowTable,
}

impl<'a> TraceView<'a> {
    /// Bundles a trace with its flow table.
    pub fn new(trace: &'a Trace, flows: &'a FlowTable) -> Self {
        assert_eq!(
            trace.len(),
            flows.packet_count(),
            "flow table for a different trace"
        );
        TraceView { trace, flows }
    }
}

/// One chunk of a packet stream, as seen by an incremental detector.
///
/// The whole trace fed as a single chunk and the same trace fed as
/// many time-binned chunks accumulate into identical detector state:
/// every detector bins packets by absolute timestamp against
/// `meta.window()`, never by chunk boundary.
pub struct ChunkView<'a> {
    /// Metadata of the trace being streamed.
    pub meta: &'a TraceMeta,
    /// Nominal time bin of this chunk.
    pub window: TimeWindow,
    /// The chunk's packets, in arrival order.
    pub packets: &'a [Packet],
}

impl<'a> ChunkView<'a> {
    /// View over one streamed chunk.
    pub fn of_chunk(meta: &'a TraceMeta, chunk: &'a PacketChunk) -> Self {
        ChunkView {
            meta,
            window: chunk.window,
            packets: &chunk.packets,
        }
    }

    /// View presenting an entire in-memory trace as one chunk — the
    /// batch adapter's input.
    pub fn whole_trace(trace: &'a Trace) -> Self {
        ChunkView {
            meta: &trace.meta,
            window: trace.meta.window(),
            packets: &trace.packets,
        }
    }
}

/// The incremental (streaming) form of a detector configuration.
///
/// Lifecycle: one [`begin`](IncrementalDetector::begin), any number of
/// [`observe`](IncrementalDetector::observe) calls over consecutive
/// chunks, one [`finish`](IncrementalDetector::finish). Accumulated
/// state is chunk-boundary invariant, so any chunking of the same
/// packet sequence — including the whole trace as a single chunk —
/// produces identical alarms.
pub trait IncrementalDetector: Send {
    /// Which of the four detector families this configuration is.
    fn kind(&self) -> DetectorKind;

    /// The tuning of this configuration.
    fn tuning(&self) -> Tuning;

    /// Prepares per-trace state (time-bin counts etc.) from the
    /// trace metadata.
    fn begin(&mut self, meta: &TraceMeta);

    /// Folds one chunk of packets into the accumulated state.
    fn observe(&mut self, chunk: &ChunkView<'_>);

    /// Runs the analysis over the accumulated state and reports
    /// alarms. The detector is spent afterwards; call
    /// [`begin`](IncrementalDetector::begin) to reuse it.
    fn finish(&mut self) -> Vec<Alarm>;

    /// Runs the analysis of every tuning in `tunings` over the
    /// accumulated state, reading it by `&`, so one accumulator
    /// finishes all the configurations of its observation group in
    /// one call. Returns one alarm list per entry of `tunings`, in
    /// that order; a repeated tuning gets its alarms again. Work that
    /// no threshold reads is done once per call: PCA's full subspace
    /// fits; Hough's per-row baselines, ρ table and single pass over
    /// its flow log; KL's divergence series, median and MAD per
    /// feature and its sort of each flagged bin's tuples. Hough and
    /// KL finish each distinct tuning once and copy its alarms to the
    /// repeats. The four families' `finish` is this call with their
    /// own tuning alone.
    ///
    /// The default reports nothing: only accumulators whose detector
    /// returns an [`observation_key`](Detector::observation_key) are
    /// finished this way, and those must override it.
    fn finish_tunings(&self, tunings: &[Tuning]) -> Vec<Vec<Alarm>> {
        vec![Vec::new(); tunings.len()]
    }

    /// Unique label, e.g. `"Gamma/sensitive"`.
    fn label(&self) -> String {
        format!("{}/{}", self.kind(), self.tuning())
    }
}

/// A detector family's side of the accumulator lifecycle, over its own
/// per-trace state (which holds the trace window). [`Accumulator`]
/// runs the lifecycle once for all four families.
pub(crate) trait Family: Detector + Clone + 'static {
    /// What the family folds chunks into.
    type State: Send + 'static;

    /// The state for a trace, or `None` when the trace is too short
    /// to analyse: such a trace reports nothing, as does an
    /// accumulator never begun.
    fn begin(&self, meta: &TraceMeta) -> Option<Self::State>;

    /// Folds one chunk of packets into `state`.
    fn observe(&self, state: &mut Self::State, chunk: &ChunkView<'_>);

    /// One alarm list per entry of `tunings`, in that order, from
    /// state that observed at least one packet (see
    /// [`IncrementalDetector::finish_tunings`]).
    fn finish_tunings(&self, state: &Self::State, tunings: &[Tuning]) -> Vec<Vec<Alarm>>;
}

/// The incremental form of every family's configurations: family
/// state exists only after [`begin`](IncrementalDetector::begin) built
/// it, so "not begun" and "too short to analyse" are the same empty
/// accumulator, which observes nothing and reports no alarms.
pub(crate) struct Accumulator<F: Family> {
    det: F,
    state: Option<F::State>,
    /// Packets observed since `begin`; with none, `finish` reports
    /// nothing.
    seen: u64,
}

impl<F: Family> Accumulator<F> {
    /// A not yet begun accumulator for `det`.
    pub(crate) fn boxed(det: &F) -> Box<dyn IncrementalDetector> {
        Box::new(Accumulator {
            det: det.clone(),
            state: None,
            seen: 0,
        })
    }
}

impl<F: Family> IncrementalDetector for Accumulator<F> {
    fn kind(&self) -> DetectorKind {
        self.det.kind()
    }

    fn tuning(&self) -> Tuning {
        self.det.tuning()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.state = self.det.begin(meta);
        self.seen = 0;
    }

    fn observe(&mut self, chunk: &ChunkView<'_>) {
        if let Some(state) = &mut self.state {
            self.seen += chunk.packets.len() as u64;
            self.det.observe(state, chunk);
        }
    }

    fn finish(&mut self) -> Vec<Alarm> {
        self.finish_tunings(&[self.det.tuning()])
            .pop()
            .unwrap_or_default()
    }

    fn finish_tunings(&self, tunings: &[Tuning]) -> Vec<Vec<Alarm>> {
        match &self.state {
            Some(state) if self.seen > 0 => self.det.finish_tunings(state, tunings),
            _ => vec![Vec::new(); tunings.len()],
        }
    }
}

/// One alarm list per entry of `tunings`, from one call of `finish`
/// with the distinct tunings (in [`Tuning::ALL`] order), which returns
/// one list per tuning it is given. A repeated tuning gets a copy.
pub(crate) fn finish_each_once(
    tunings: &[Tuning],
    finish: impl FnOnce(&[Tuning]) -> Vec<Vec<Alarm>>,
) -> Vec<Vec<Alarm>> {
    let distinct: Vec<Tuning> = Tuning::ALL
        .into_iter()
        .filter(|t| tunings.contains(t))
        .collect();
    let mut by_tuning: [Vec<Alarm>; 3] = Default::default();
    for (t, alarms) in distinct.iter().zip(finish(&distinct)) {
        by_tuning[t.index()] = alarms;
    }
    tunings
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let alarms = &mut by_tuning[t.index()];
            if tunings[i + 1..].contains(t) {
                alarms.clone()
            } else {
                std::mem::take(alarms)
            }
        })
        .collect()
}

/// A traffic anomaly detector with one fixed parameter set
/// (a *configuration* in the paper's terminology).
///
/// The batch entry point [`analyze`](Detector::analyze) is a thin
/// adapter over the incremental form: it feeds the whole trace as one
/// chunk through [`incremental`](Detector::incremental), so batch and
/// streaming runs share one implementation and cannot drift apart.
pub trait Detector: Send + Sync {
    /// Which of the four detector families this configuration is.
    fn kind(&self) -> DetectorKind;

    /// The tuning of this configuration.
    fn tuning(&self) -> Tuning;

    /// Builds the incremental (streaming) form of this configuration.
    fn incremental(&self) -> Box<dyn IncrementalDetector>;

    /// The observation group of this configuration, or `None` (the
    /// default) for an accumulator of its own.
    ///
    /// Returning `Some` promises that configurations with equal keys
    /// fold every chunk into identical state, and that the
    /// accumulator built by [`incremental`](Detector::incremental)
    /// overrides [`finish_tunings`](IncrementalDetector::finish_tunings)
    /// so the state can be finished for any members' tunings.
    fn observation_key(&self) -> Option<ObservationKey> {
        None
    }

    /// Analyzes a trace and reports alarms.
    fn analyze(&self, view: &TraceView<'_>) -> Vec<Alarm> {
        let mut inc = self.incremental();
        inc.begin(&view.trace.meta);
        inc.observe(&ChunkView::whole_trace(view.trace));
        inc.finish()
    }

    /// Unique label, e.g. `"Gamma/sensitive"`.
    fn label(&self) -> String {
        format!("{}/{}", self.kind(), self.tuning())
    }
}

/// What a configuration's `observe` reads besides the packets: its
/// detector family plus every observation constant (bin widths,
/// picture and sketch shapes, hash seeds). Configurations with equal
/// keys build identical accumulator state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObservationKey {
    kind: DetectorKind,
    constants: Vec<u64>,
}

impl ObservationKey {
    /// Key of a `kind` configuration whose observation reads
    /// `constants`.
    pub fn new(kind: DetectorKind, constants: &[u64]) -> Self {
        ObservationKey {
            kind,
            constants: constants.to_vec(),
        }
    }
}

/// The paper's experimental setup: 4 detectors × 3 tunings = 12
/// configurations (§3.2). Order: PCA, Gamma, Hough, KL; conservative,
/// optimal, sensitive within each.
pub fn standard_configurations() -> Vec<Box<dyn Detector>> {
    let mut v: Vec<Box<dyn Detector>> = Vec::with_capacity(12);
    for t in Tuning::ALL {
        v.push(Box::new(PcaDetector::new(t)));
    }
    for t in Tuning::ALL {
        v.push(Box::new(GammaDetector::new(t)));
    }
    for t in Tuning::ALL {
        v.push(Box::new(HoughDetector::new(t)));
    }
    for t in Tuning::ALL {
        v.push(Box::new(KlDetector::new(t)));
    }
    v
}

/// Runs a set of configurations over one trace, in parallel via the
/// workspace fan-out helper ([`mawilab_exec::par_map`], honoring
/// `MAWILAB_THREADS`), returning the concatenated alarms in
/// configuration order (each alarm already carries its detector kind
/// and tuning).
pub fn run_all(configs: &[Box<dyn Detector>], view: &TraceView<'_>) -> Vec<Alarm> {
    mawilab_exec::par_map(configs, |c| c.analyze(view)).concat()
}

/// Folds one chunk into every incremental configuration, in parallel
/// across configurations (the chunk is shared read-only).
pub fn observe_all(configs: &mut [Box<dyn IncrementalDetector>], chunk: &ChunkView<'_>) {
    mawilab_exec::par_for_each_mut(configs, |c| c.observe(chunk));
}

/// Finishes every incremental configuration, returning the
/// concatenated alarms in configuration order — the same order
/// [`run_all`] concatenates batch results in.
pub fn finish_all(configs: &mut [Box<dyn IncrementalDetector>]) -> Vec<Alarm> {
    mawilab_exec::par_map_mut(configs, |c| c.finish()).concat()
}

/// A configuration set folded into one accumulator per observation
/// group (see [`observation_groups`]).
pub struct ObservationGroups {
    /// One accumulator per group, in order of each group's first
    /// configuration.
    accumulators: Vec<Box<dyn IncrementalDetector>>,
    /// Per group, the position in the caller's set and the tuning of
    /// each configuration the group finishes.
    members: Vec<Vec<(usize, Tuning)>>,
}

/// Groups `configs` by [`Detector::observation_key`] and builds one
/// accumulator per group: [`incremental`](Detector::incremental) runs
/// once per group, on its first configuration. Keyless configurations
/// each get their own accumulator, so a set whose keys are all
/// distinct (or `None`) runs exactly as one accumulator per
/// configuration.
pub fn observation_groups(configs: &[Box<dyn Detector>]) -> ObservationGroups {
    let mut keys: Vec<Option<ObservationKey>> = Vec::new();
    let mut groups = ObservationGroups {
        accumulators: Vec::new(),
        members: Vec::new(),
    };
    for (pos, config) in configs.iter().enumerate() {
        let key = config.observation_key();
        let shared = key
            .as_ref()
            .and_then(|k| keys.iter().position(|g| g.as_ref() == Some(k)));
        match shared {
            Some(g) => groups.members[g].push((pos, config.tuning())),
            None => {
                keys.push(key);
                groups.accumulators.push(config.incremental());
                groups.members.push(vec![(pos, config.tuning())]);
            }
        }
    }
    groups
}

impl ObservationGroups {
    /// Prepares every group's accumulator for the trace.
    pub fn begin(&mut self, meta: &TraceMeta) {
        for acc in &mut self.accumulators {
            acc.begin(meta);
        }
    }

    /// The groups' accumulators, one per group: observe each chunk
    /// into these (inline or through [`observe_all`]).
    pub fn accumulators_mut(&mut self) -> &mut [Box<dyn IncrementalDetector>] {
        &mut self.accumulators
    }

    /// Finishes every configuration from its group's state, fanned
    /// out across groups, and returns the concatenated alarms in the
    /// caller's configuration order. A group of one configuration
    /// calls [`finish`](IncrementalDetector::finish), a shared group
    /// [`finish_tunings`](IncrementalDetector::finish_tunings) once
    /// with its members' tunings.
    pub fn finish(mut self) -> Vec<Alarm> {
        let mut jobs: Vec<_> = self
            .accumulators
            .iter_mut()
            .zip(self.members.iter().map(Vec::as_slice))
            .collect();
        let finished = mawilab_exec::par_map_mut(&mut jobs, |(acc, members)| match members {
            [_] => vec![acc.finish()],
            _ => {
                let tunings: Vec<Tuning> = members.iter().map(|&(_, t)| t).collect();
                acc.finish_tunings(&tunings)
            }
        });
        let mut by_position: Vec<Vec<Alarm>> =
            vec![Vec::new(); self.members.iter().map(Vec::len).sum()];
        for (members, alarms) in self.members.iter().zip(finished) {
            for (&(pos, _), a) in members.iter().zip(alarms) {
                by_position[pos] = a;
            }
        }
        by_position.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_synth::{SynthConfig, TraceGenerator};

    #[test]
    fn standard_set_is_twelve_configurations() {
        let configs = standard_configurations();
        assert_eq!(configs.len(), 12);
        let mut labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12, "duplicate configuration labels");
        // 3 per family.
        for kind in [
            DetectorKind::Pca,
            DetectorKind::Gamma,
            DetectorKind::Hough,
            DetectorKind::Kl,
        ] {
            assert_eq!(configs.iter().filter(|c| c.kind() == kind).count(), 3);
        }
    }

    #[test]
    fn run_all_matches_sequential_runs() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(42)).generate();
        let flows = mawilab_model::FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let configs = standard_configurations();
        let par = run_all(&configs, &view);
        let seq: Vec<Alarm> = configs.iter().flat_map(|c| c.analyze(&view)).collect();
        assert_eq!(par.len(), seq.len());
    }

    #[test]
    #[should_panic(expected = "different trace")]
    fn mismatched_flow_table_panics() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(1)).generate();
        let empty = mawilab_model::FlowTable::build(&[]);
        TraceView::new(&lt.trace, &empty);
    }

    #[test]
    fn incremental_is_chunk_boundary_invariant() {
        use mawilab_model::{PacketSource, TraceChunker};
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(42)).generate();
        let flows = mawilab_model::FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        for config in standard_configurations() {
            let batch = config.analyze(&view);
            for bin_us in [2_000_000u64, 5_000_000, 60_000_000] {
                let mut inc = config.incremental();
                inc.begin(&lt.trace.meta);
                let mut source = TraceChunker::new(lt.trace.clone(), bin_us);
                while let Some(chunk) = source.next_chunk().unwrap() {
                    inc.observe(&ChunkView::of_chunk(&lt.trace.meta, chunk));
                }
                let streamed = inc.finish();
                assert_eq!(
                    streamed,
                    batch,
                    "{} diverges between batch and {}s chunks",
                    config.label(),
                    bin_us / 1_000_000
                );
            }
        }
    }

    #[test]
    fn unbegun_accumulators_report_nothing_and_begin_resets_a_used_one() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(42)).generate();
        let whole = ChunkView::whole_trace(&lt.trace);
        let run = |inc: &mut Box<dyn IncrementalDetector>| {
            inc.begin(&lt.trace.meta);
            inc.observe(&whole);
            inc.finish()
        };
        let mut alarms = 0;
        for config in standard_configurations() {
            let mut inc = config.incremental();
            inc.observe(&whole);
            assert!(inc.finish().is_empty(), "{} not begun", config.label());
            assert_eq!(
                inc.finish_tunings(&Tuning::ALL),
                vec![Vec::<Alarm>::new(); 3],
                "{} not begun",
                config.label()
            );
            let fresh = run(&mut config.incremental());
            run(&mut inc);
            assert_eq!(run(&mut inc), fresh, "{} reused", config.label());
            alarms += fresh.len();
        }
        assert!(alarms > 0, "the reuse check compared empty alarm lists");
    }

    #[test]
    fn observe_and_finish_all_match_run_all() {
        use mawilab_model::{PacketSource, TraceChunker};
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(7)).generate();
        let flows = mawilab_model::FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let configs = standard_configurations();
        let batch = run_all(&configs, &view);

        let mut incs: Vec<Box<dyn IncrementalDetector>> =
            configs.iter().map(|c| c.incremental()).collect();
        for inc in &mut incs {
            inc.begin(&lt.trace.meta);
        }
        let mut source = TraceChunker::new(lt.trace.clone(), 5_000_000);
        while let Some(chunk) = source.next_chunk().unwrap() {
            observe_all(&mut incs, &ChunkView::of_chunk(&lt.trace.meta, chunk));
        }
        assert_eq!(finish_all(&mut incs), batch);
    }
}
