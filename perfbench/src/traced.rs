//! The traced ops: the production calls, made from outside the
//! program with a span around each.
//!
//! [`Tracer::label`] recomposes `OnlinePipeline::run`'s single drain
//! from the same public calls in the same order — per chunk: source
//! `next_chunk`, every configuration's `observe` (inline below
//! [`FANOUT_MIN_CHUNK_PACKETS`], else through the `exec` fan-out of
//! `observe_all`), `ItemIndex::ids_of`, `HorizonExtractor::observe`,
//! `CommunityEvidence::observe_units`; then `finish_all`, horizon
//! finalize, graph build, Louvain, votes, SCANN, confidence, labeling
//! and horizon-window bucketing. Its digest must equal the untraced
//! `OnlinePipeline::run`'s on every input, or the trace would be
//! measuring a different program.
//!
//! Two parts of the production drain are crate-private and so are not
//! recomposed: `SealTracker::advance` on every chunk, and building the
//! `LabeledWindow` list with its seal times and `negative_latency`
//! count. The traced op is lighter than the production op by their
//! cost; `trace.overhead_share` compares the two anyway, and
//! `trace.unattributed_s` and the stages-add-up-to-wall check cover
//! only the recomposed calls.

use crate::inputs::{label_digest, ScoringDay, CONFIGS, MIN_OVERLAP};
use crate::spans::{DetectorCall, DetectorLog, Recorder, TimedDetector};
use mawilab_combiner::{label_confidences, VoteTable};
use mawilab_core::{
    benchmark_alarms, BenchmarkResult, PipelineConfig, DEFAULT_HORIZON_US, DEFAULT_LAG_US,
};
use mawilab_detectors::{
    finish_all, observe_all, standard_configurations, ChunkView, Detector, IncrementalDetector,
};
use mawilab_graph::louvain;
use mawilab_label::{label_communities_streaming, window_communities, CommunityEvidence};
use mawilab_model::{ItemIndex, PacketSource, SourceError};
use mawilab_similarity::{extract_traffic, AlarmCommunities, HorizonExtractor, HorizonTraffic};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// The inline/fan-out cutover of the production drain (crate-private
/// there as `FANOUT_MIN_CHUNK_PACKETS`; mirrored here so the traced
/// drain schedules detectors exactly as the untraced one does).
pub const FANOUT_MIN_CHUNK_PACKETS: usize = 1024;

/// Per-layer counts of one op (or a sum of ops), by metric name.
pub type Counts = BTreeMap<String, u64>;

/// Adds `b` into `a`.
pub fn add_counts(a: &mut Counts, b: &Counts) {
    for (k, v) in b {
        *a.entry(k.clone()).or_default() += v;
    }
}

/// Metric-name stem of a configuration: `PCA/optimal` → `pca-optimal`.
pub fn config_stem(label: &str) -> String {
    label.to_lowercase().replace('/', "-")
}

/// Interned span names.
#[derive(Clone, Copy)]
struct Names {
    op: u16,
    next_chunk: u16,
    begin: u16,
    observe_all: u16,
    finish_all: u16,
    drop: u16,
    ids_of: u16,
    horizon_observe: u16,
    evidence_observe: u16,
    horizon_finalize: u16,
    evidence_retain: u16,
    build_graph: u16,
    louvain: u16,
    communities: u16,
    votes: u16,
    classify: u16,
    confidence: u16,
    label: u16,
    windows: u16,
    extract_traffic: u16,
    benchmark_alarms: u16,
}

/// Span name → the per-layer metric its self time reports as.
pub const SPAN_METRICS: [(&str, &str); 19] = [
    ("op", "trace.unattributed_s"),
    ("model.next_chunk", "model.next_chunk_s"),
    ("detectors.begin", "detectors.begin_s"),
    ("detectors.observe_all", "detectors.observe_all_s"),
    ("detectors.finish_all", "detectors.finish_all_s"),
    ("detectors.drop", "detectors.drop_s"),
    ("model.ids_of", "model.ids_of_s"),
    ("similarity.horizon_observe", "similarity.horizon_observe_s"),
    ("label.evidence_observe", "label.evidence_observe_s"),
    (
        "similarity.horizon_finalize",
        "similarity.horizon_finalize_s",
    ),
    ("label.evidence_retain", "label.evidence_retain_s"),
    ("similarity.build_graph", "similarity.build_graph_s"),
    ("graph.louvain", "graph.louvain_s"),
    ("similarity.communities", "similarity.communities_s"),
    ("combiner.votes", "combiner.votes_s"),
    ("combiner.classify", "combiner.classify_s"),
    ("combiner.confidence", "combiner.confidence_s"),
    ("label.label", "label.label_s"),
    ("label.windows", "label.windows_s"),
];

/// Records spans around the production calls of labeling and scoring
/// ops.
pub struct Tracer {
    /// The spans recorded so far.
    pub rec: Recorder,
    n: Names,
    config: PipelineConfig,
    detectors: Vec<Box<dyn Detector>>,
    /// Metric stems of the 12 configurations, in configuration-index
    /// order.
    pub stems: Vec<String>,
    /// `(observe, finish)` span names per configuration.
    detector_names: Vec<(u16, u16)>,
    logs: Vec<DetectorLog>,
    /// Fan-out spans of the last labeling op, in time order.
    fanouts: Vec<u32>,
}

/// What one traced labeling op produced.
pub struct Labeled {
    /// [`label_digest`] of the labels.
    pub digest: u64,
    /// Per-layer counts of the op.
    pub counts: Counts,
}

impl Tracer {
    /// A tracer for `config` with the 12 standard configurations.
    pub fn new(config: PipelineConfig) -> Self {
        let mut rec = Recorder::new();
        let mut name = |s: &str| rec.name(s);
        let n = Names {
            op: name("op"),
            next_chunk: name("model.next_chunk"),
            begin: name("detectors.begin"),
            observe_all: name("detectors.observe_all"),
            finish_all: name("detectors.finish_all"),
            drop: name("detectors.drop"),
            ids_of: name("model.ids_of"),
            horizon_observe: name("similarity.horizon_observe"),
            evidence_observe: name("label.evidence_observe"),
            horizon_finalize: name("similarity.horizon_finalize"),
            evidence_retain: name("label.evidence_retain"),
            build_graph: name("similarity.build_graph"),
            louvain: name("graph.louvain"),
            communities: name("similarity.communities"),
            votes: name("combiner.votes"),
            classify: name("combiner.classify"),
            confidence: name("combiner.confidence"),
            label: name("label.label"),
            windows: name("label.windows"),
            extract_traffic: name("similarity.extract_traffic"),
            benchmark_alarms: name("core.benchmark_alarms"),
        };
        let detectors = standard_configurations();
        let stems: Vec<String> = detectors.iter().map(|d| config_stem(&d.label())).collect();
        for (i, d) in detectors.iter().enumerate() {
            assert_eq!(
                d.kind().index() * 3 + d.tuning().index(),
                i,
                "standard configurations out of configuration-index order"
            );
        }
        let detector_names = stems
            .iter()
            .map(|s| {
                (
                    rec.name(&format!("detectors.{s}.observe")),
                    rec.name(&format!("detectors.{s}.finish")),
                )
            })
            .collect();
        let logs = (0..CONFIGS)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        Tracer {
            rec,
            n,
            config,
            detectors,
            stems,
            detector_names,
            logs,
            fanouts: Vec::new(),
        }
    }

    /// The op-root span name of labeling ops.
    pub fn op_name(&self) -> u16 {
        self.n.op
    }

    /// One traced single-pass labeling drain of `source` under the open
    /// op span `op_span`, which it closes once the last production call
    /// returns; counting and the digest happen after, outside the op.
    pub fn label<S: PacketSource + ?Sized>(
        &mut self,
        op_span: u32,
        source: &mut S,
    ) -> Result<Labeled, SourceError> {
        let n = self.n;
        let rec = &mut self.rec;
        let config = &self.config;
        let meta = source.meta().clone();
        let origin_us = meta.window().start_us;
        let epoch = rec.epoch();
        for log in &self.logs {
            log.lock().expect("detector log poisoned").clear();
        }
        let s = rec.begin(n.begin);
        let mut incs: Vec<Box<dyn IncrementalDetector>> = self
            .detectors
            .iter()
            .zip(&self.logs)
            .map(|(d, log)| {
                Box::new(TimedDetector::new(d.incremental(), epoch, log.clone()))
                    as Box<dyn IncrementalDetector>
            })
            .collect();
        for inc in &mut incs {
            inc.begin(&meta);
        }
        rec.end(s);
        let mut index = ItemIndex::new(config.granularity);
        let mut evidence = CommunityEvidence::new(config.granularity);
        let mut horizon = HorizonExtractor::new(DEFAULT_LAG_US);
        let mut ids: Vec<u32> = Vec::new();
        self.fanouts.clear();
        let (mut packets, mut high_water_us) = (0u64, origin_us);
        loop {
            let s = rec.begin(n.next_chunk);
            let next = source.next_chunk();
            rec.end(s);
            let chunk = match next {
                Ok(Some(chunk)) => chunk,
                Ok(None) => break,
                Err(e) => {
                    rec.end(op_span);
                    return Err(e);
                }
            };
            packets += chunk.packets.len() as u64;
            high_water_us = high_water_us.max(chunk.window.end_us);
            let view = ChunkView::of_chunk(&meta, chunk);
            if chunk.packets.len() < FANOUT_MIN_CHUNK_PACKETS {
                for inc in &mut incs {
                    inc.observe(&view);
                }
            } else {
                let s = rec.begin(n.observe_all);
                observe_all(&mut incs, &view);
                rec.end(s);
                self.fanouts.push(s);
            }
            rec.time(n.ids_of, || index.ids_of(&chunk.packets, &mut ids));
            rec.time(n.horizon_observe, || {
                horizon.observe(chunk.window, &chunk.packets, &ids)
            });
            rec.time(n.evidence_observe, || {
                evidence.observe_units(&chunk.packets, &ids)
            });
        }
        let s = rec.begin(n.finish_all);
        let alarms = finish_all(&mut incs);
        rec.end(s);
        self.fanouts.push(s);
        rec.time(n.drop, || drop(incs));
        let s = rec.begin(n.horizon_finalize);
        let HorizonTraffic {
            traffic,
            matched,
            stats,
        } = horizon.finalize(&alarms);
        rec.end(s);
        rec.time(n.evidence_retain, || evidence.retain_matched(&matched));
        let est = config.estimator();
        let graph = rec.time(n.build_graph, || est.build_graph(&traffic));
        let edges = graph.edge_count();
        let partition = rec.time(n.louvain, || louvain(&graph, est.resolution));
        let communities = rec.time(n.communities, || {
            AlarmCommunities::new(alarms, traffic, graph, partition, est.granularity)
        });
        let votes = rec.time(n.votes, || VoteTable::from_communities(&communities));
        let decisions = rec.time(n.classify, || config.strategy.build().classify(&votes));
        let confidences = rec.time(n.confidence, || {
            label_confidences(&votes, &decisions, config.confidence_thresholds)
        });
        let labeled = rec.time(n.label, || {
            label_communities_streaming(
                meta.window(),
                &index,
                &evidence,
                &communities,
                &decisions,
                &confidences,
                config.min_support,
            )
        });
        let max_start = labeled.iter().map(|c| c.window.start_us).max();
        let n_windows = window_count(origin_us, high_water_us, max_start);
        rec.time(n.windows, || {
            black_box(window_communities(
                origin_us,
                DEFAULT_HORIZON_US,
                n_windows,
                &labeled,
            ))
        });
        rec.end(op_span);
        self.adopt_detector_spans(op_span);

        let mut counts = Counts::new();
        for a in &communities.alarms {
            *counts
                .entry(format!("detectors.{}.alarms", self.stems[a.config_index()]))
                .or_default() += 1;
        }
        for (name, v) in [
            ("model.packets", packets),
            ("model.items", index.item_count() as u64),
            ("similarity.horizon_retired_records", stats.retired_records),
            ("similarity.horizon_fresh_records", stats.fresh_records),
            ("similarity.matched_units", matched.len() as u64),
            ("similarity.graph_edges", edges as u64),
            ("graph.communities", communities.community_count() as u64),
            (
                "combiner.accepted",
                decisions.iter().filter(|d| d.accepted).count() as u64,
            ),
        ] {
            counts.insert(name.to_string(), v);
        }
        for (k, tier) in ["anomalous", "uncertain", "benign"].iter().enumerate() {
            let c = labeled.iter().filter(|lc| lc.confidence.tier.index() == k);
            counts.insert(format!("label.tier_{tier}"), c.count() as u64);
        }
        let digest = label_digest(
            communities.alarms.len(),
            &communities.partition.community,
            &decisions,
            &labeled,
        );
        Ok(Labeled { digest, counts })
    }

    /// Files the per-configuration spans the last drain logged on worker
    /// threads under their fan-out span, or under op span `op_span` when
    /// the chunk was observed inline.
    fn adopt_detector_spans(&mut self, op_span: u32) {
        for (log, &(observe, finish)) in self.logs.iter().zip(&self.detector_names) {
            for &(call, start, end) in log.lock().expect("detector log poisoned").iter() {
                let name = match call {
                    DetectorCall::Observe => observe,
                    DetectorCall::Finish => finish,
                };
                self.rec.adopt(name, start, end, &self.fanouts, op_span);
            }
        }
    }

    /// One traced scoring op: an `extract_traffic` probe span (the
    /// extraction `benchmark_alarms` performs first), then the
    /// `benchmark_alarms` call itself as op `op`'s root span. Returns
    /// the result and the two durations, seconds.
    pub fn score(&mut self, op: u32, day: &ScoringDay, cfg: usize) -> (BenchmarkResult, f64, f64) {
        let view = day.view();
        let alarms = &day.candidates[cfg];
        let probe = self.rec.begin_op(op, self.n.extract_traffic);
        black_box(extract_traffic(
            &view,
            alarms,
            day.report.communities.granularity,
        ));
        self.rec.end(probe);
        let call = self.rec.begin_op(op, self.n.benchmark_alarms);
        let result = benchmark_alarms(&view, &day.report, alarms, MIN_OVERLAP);
        self.rec.end(call);
        (result, self.rec.dur_s(probe), self.rec.dur_s(call))
    }
}

/// Horizon windows the production drain buckets labels into: enough to
/// cover the stream's high-water mark and every community start.
fn window_count(origin_us: u64, high_water_us: u64, max_start_us: Option<u64>) -> usize {
    let cover_end = high_water_us.max(max_start_us.map_or(0, |s| s + 1));
    if cover_end <= origin_us {
        return 0;
    }
    (cover_end - origin_us).div_ceil(DEFAULT_HORIZON_US) as usize
}
