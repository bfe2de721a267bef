//! The single-pass online MAWILab pipeline: one drain, evidence on a
//! sliding horizon, labels at end of stream.
//!
//! [`OnlinePipeline`] is the production labeler. It drains a source
//! **once** — a live link cannot be replayed — doing detection and
//! evidence gathering in the same pass: as each chunk streams past,
//! each detector family observes it once *and* the
//! extraction/labeling evidence is banked
//! (traffic-unit ids from the incremental `ItemIndex`, 12-byte
//! `(ts, direction, unit id)` records filed under those ids in the
//! [`HorizonExtractor`], three counters per traffic unit in
//! [`CommunityEvidence`] at every granularity, a packet-granularity
//! unit being a uniflow of one packet). Nothing is ever re-read: a
//! [`NoRewindSource`](mawilab_model::NoRewindSource)-wrapped source
//! completes a whole archive sweep with zero rewind calls.
//!
//! ## One observation per family
//!
//! The detector set is folded by
//! [`observation_groups`]: configurations whose
//! [`ObservationKey`](mawilab_detectors::ObservationKey)s are equal —
//! the three tunings of a family — share one accumulator, so each
//! chunk is observed once per family rather than once per
//! configuration. At end of stream every configuration is finished
//! from its group's state with its own tuning, and the alarms come
//! back in the caller's configuration order. A custom set whose keys
//! are all distinct (or `None`) keeps one accumulator per
//! configuration. The batch oracle keeps solo accumulators
//! (`Detector::analyze`), so the fused drain is checked against
//! independent state.
//!
//! ## The sliding horizon
//!
//! ```text
//!  stream ──► chunk chunk chunk chunk chunk chunk ─ ─ ─►
//!             └─────────────┘ └───────────┘
//!               retired (past   fresh (inside
//!               the lag): one   the lag): per-
//!               flat record     chunk records
//!               log
//!                      ▲                   ▲
//!                      │◄───── lag ───────►│ high-water mark
//!
//!  finalize: fresh chunks ──► log ──► counting sort by unit id
//!            ──► one time run per unit ──► resolve each unit once
//! ```
//!
//! Each record is banked under the unit id `ItemIndex` just assigned,
//! so the horizon hashes nothing per packet; the lag only decides how
//! long records stay chunk-shaped. At end of stream every record,
//! retired or fresh, is resolved through the same path: the log is
//! sorted by unit into time runs, and each unit stabs the alarm index
//! once with its key. The lag never touches alarm timing: the
//! paper's detectors calibrate on whole-trace state (PCA subspace,
//! Gamma fits, KL reference histograms), so alarms finalize at end of
//! stream and byte-identity with the batch oracle
//! ([`MawilabPipeline`](crate::MawilabPipeline)) holds at *every* lag —
//! `lag = 0` (every chunk retired on arrival) through
//! `lag ≥ stream` (every chunk still fresh) produce identical labels,
//! which `tests/online_equivalence.rs` pins across seeds × chunk
//! widths × thread counts.

use crate::pipeline::{combine_and_label, PipelineConfig, PipelineReport};
use mawilab_detectors::{
    observation_groups, observe_all, standard_configurations, ChunkView, Detector,
};
use mawilab_label::{label_communities_streaming, CommunityEvidence};
use mawilab_model::{ItemIndex, PacketSource, SourceError};
use mawilab_similarity::{HorizonExtractor, HorizonStats, HorizonTraffic};

/// Default evidence-retention lag: 30 s — six default chunks, two
/// orders of magnitude below a day, comfortably above every
/// detector's analysis bin.
pub const DEFAULT_LAG_US: u64 = 30_000_000;

/// Width of the 60 s label windows that perfbench's traced drain
/// still times as its `label.windows` stage. The pipeline itself does
/// not bucket labels; this constant goes once perfbench times the
/// production drain instead.
pub const DEFAULT_HORIZON_US: u64 = 60_000_000;

/// Chunks below this packet count are observed inline rather than
/// fanned out across the observation groups: `observe_all` spins up a
/// scoped-thread round per call, and for near-empty chunks (narrow
/// `--chunk-us` bins, quiet periods) the spawn/join barrier would
/// dwarf the detector work itself. The cutover is by chunk size only
/// — never by thread count — so output stays identical at any
/// `MAWILAB_THREADS` setting (groups are independent; only the
/// schedule changes).
pub(crate) const FANOUT_MIN_CHUNK_PACKETS: usize = 1024;

/// Ingest statistics of one single-pass drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Chunks the drain consumed.
    pub chunks: usize,
    /// Packets the drain consumed.
    pub packets: u64,
    /// Largest number of packets alive at once — the size of the
    /// biggest single chunk. It bounds the packets held, not the
    /// drain's memory: the evidence, horizon and unit-index bytes
    /// below grow with the stream.
    pub peak_chunk_packets: usize,
    /// Distinct traffic units assigned during extraction.
    pub items: usize,
    /// Bytes of labeling evidence held at the end of the drain
    /// ([`CommunityEvidence::heap_bytes`]).
    pub evidence_bytes: usize,
    /// Bytes of horizon records and unit keys held at the end of the
    /// drain ([`HorizonExtractor::heap_bytes`]).
    pub horizon_bytes: usize,
    /// Bytes of the traffic-unit id index at the end of the drain
    /// ([`ItemIndex::heap_bytes`]).
    pub unit_index_bytes: usize,
}

/// Everything one single-pass run produced: the batch oracle's report
/// plus the drain's ingest and horizon statistics.
#[derive(Debug)]
pub struct OnlineReport {
    /// The run's report — byte-identical to what the batch oracle
    /// [`MawilabPipeline::run`](crate::MawilabPipeline::run) produces
    /// on the materialised trace.
    pub report: PipelineReport,
    /// Ingest statistics of the drain.
    pub stats: StreamStats,
    /// Retire/fresh accounting of the horizon extractor.
    pub horizon_stats: HorizonStats,
}

/// The end-to-end single-pass MAWILab pipeline.
pub struct OnlinePipeline {
    config: PipelineConfig,
    detectors: Vec<Box<dyn Detector>>,
    lag_us: u64,
}

impl OnlinePipeline {
    /// Builds the pipeline with the paper's 12 standard detector
    /// configurations and the default lag.
    pub fn new(config: PipelineConfig) -> Self {
        OnlinePipeline {
            config,
            detectors: standard_configurations(),
            lag_us: DEFAULT_LAG_US,
        }
    }

    /// Replaces the detector set (any batch [`Detector`] works — its
    /// incremental form is used, one accumulator per observation
    /// group).
    pub fn with_detectors(mut self, detectors: Vec<Box<dyn Detector>>) -> Self {
        self.detectors = detectors;
        self
    }

    /// Sets the evidence-retention lag (µs): how long banked records
    /// stay chunk-shaped before they retire into the horizon's record
    /// log. Labels are byte-identical at any lag.
    pub fn with_lag_us(mut self, lag_us: u64) -> Self {
        self.lag_us = lag_us;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Drains the source **once** and runs all four steps. Never
    /// calls [`rewind`](PacketSource::rewind). A configured
    /// `min_support` outside `(0, 1]` or a `resolution` that is not
    /// positive is rejected by [`PipelineConfig::validate`] before the
    /// first chunk is read ([`SourceError::InvalidMinSupport`],
    /// [`SourceError::InvalidResolution`]).
    pub fn run<S: PacketSource + ?Sized>(
        &self,
        source: &mut S,
    ) -> Result<OnlineReport, SourceError> {
        self.config.validate()?;
        let meta = source.meta().clone();
        let mut stats = StreamStats::default();

        // The one drain: each observation group (a detector family's
        // three tunings) observes each chunk once (fanned out across
        // groups through `mawilab-exec`, inline below the cutover;
        // detector state is chunk-boundary invariant, so every alarm
        // equals the batch pipeline's), while the extraction/labeling
        // evidence is banked alongside.
        let mut groups = observation_groups(&self.detectors);
        groups.begin(&meta);
        let mut index = ItemIndex::new(self.config.granularity);
        let mut evidence = CommunityEvidence::new(self.config.granularity);
        let mut horizon = HorizonExtractor::new(self.lag_us);
        let mut ids: Vec<u32> = Vec::new();
        while let Some(chunk) = source.next_chunk()? {
            stats.chunks += 1;
            stats.packets += chunk.packets.len() as u64;
            stats.peak_chunk_packets = stats.peak_chunk_packets.max(chunk.packets.len());
            let view = ChunkView::of_chunk(&meta, chunk);
            let accumulators = groups.accumulators_mut();
            if chunk.packets.len() < FANOUT_MIN_CHUNK_PACKETS {
                for acc in accumulators {
                    acc.observe(&view);
                }
            } else {
                observe_all(accumulators, &view);
            }
            index.ids_of(&chunk.packets, &mut ids);
            horizon.observe(chunk.window, &chunk.packets, &ids);
            evidence.observe_units(&chunk.packets, &ids);
        }
        // Every configuration finishes its own tuning over its group's
        // state; alarms come back in configuration order.
        let alarms = groups.finish();
        stats.evidence_bytes = evidence.heap_bytes();
        stats.horizon_bytes = horizon.heap_bytes();
        stats.unit_index_bytes = index.heap_bytes();

        // End of stream: resolve the finished alarms against the
        // banked evidence.
        let HorizonTraffic {
            traffic,
            stats: horizon_stats,
            ..
        } = horizon.finalize(&alarms);
        stats.items = index.item_count();

        // Steps 2–4: the batch pipeline's graph, Louvain, combine and
        // label code, labeling from the banked evidence.
        let report = combine_and_label(
            &self.config,
            alarms,
            traffic,
            |communities, decisions, confidences| {
                label_communities_streaming(
                    meta.window(),
                    &index,
                    &evidence,
                    communities,
                    decisions,
                    confidences,
                    self.config.min_support,
                )
            },
        );
        Ok(OnlineReport {
            report,
            stats,
            horizon_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MawilabPipeline;
    use mawilab_model::{NoRewindSource, TraceChunker, DEFAULT_CHUNK_US};
    use mawilab_synth::{SynthConfig, TraceGenerator};

    fn small_trace() -> mawilab_synth::LabeledTrace {
        TraceGenerator::new(SynthConfig::default().with_seed(99)).generate()
    }

    #[test]
    fn single_pass_report_matches_batch_through_a_sealed_source() {
        let lt = small_trace();
        let config = PipelineConfig::default();
        let oracle = MawilabPipeline::new(config.clone()).run(&lt.trace);

        let mut source = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
        let online = OnlinePipeline::new(config).run(&mut source).unwrap();
        assert_eq!(source.rewinds_refused(), 0, "single-pass must never rewind");

        assert_eq!(online.report.communities.alarms, oracle.communities.alarms);
        assert_eq!(
            online.report.communities.traffic,
            oracle.communities.traffic
        );
        assert_eq!(online.report.votes, oracle.votes);
        assert_eq!(online.report.decisions, oracle.decisions);
        assert_eq!(
            online.report.labeled.communities.len(),
            oracle.labeled.communities.len()
        );
        // Ingest accounting: one drain of the whole stream.
        assert!(online.stats.chunks > 1, "expected a multi-chunk stream");
        assert_eq!(online.stats.packets, lt.trace.len() as u64);
        assert!(online.stats.peak_chunk_packets < lt.trace.len());
    }

    #[test]
    fn packet_granularity_evidence_holds_twelve_bytes_per_packet() {
        let config = PipelineConfig {
            granularity: mawilab_model::Granularity::Packet,
            ..PipelineConfig::default()
        };
        let mut source = TraceChunker::new(small_trace().trace, DEFAULT_CHUNK_US);
        let stats = OnlinePipeline::new(config).run(&mut source).unwrap().stats;
        // 12 B of counters per packet, plus at most 2× `Vec` growth slack.
        assert!(
            stats.evidence_bytes as u64 <= 24 * stats.packets,
            "evidence holds {} B for {} packets",
            stats.evidence_bytes,
            stats.packets
        );
    }

    /// Runs a configuration that mining or Louvain would reject only
    /// after the whole stream was drained, and checks that `run`
    /// refuses it before reading the first chunk.
    fn run_refuses(config: PipelineConfig) -> SourceError {
        let mut source = TraceChunker::new(small_trace().trace, DEFAULT_CHUNK_US);
        let start_us = source.meta().window().start_us;
        let err = OnlinePipeline::new(config)
            .run(&mut source)
            .expect_err("the configuration must be rejected");
        let first = source
            .next_chunk()
            .unwrap()
            .expect("the stream was left unread");
        assert_eq!(first.window.start_us, start_us);
        err
    }

    #[test]
    fn out_of_range_min_support_is_a_typed_error() {
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            let config = PipelineConfig {
                min_support: bad,
                ..PipelineConfig::default()
            };
            let err = run_refuses(config);
            assert!(matches!(err, SourceError::InvalidMinSupport(_)), "{err}");
        }
    }

    #[test]
    fn non_positive_resolution_is_a_typed_error() {
        for bad in [0.0, -1.0, f64::NAN] {
            let config = PipelineConfig {
                resolution: bad,
                ..PipelineConfig::default()
            };
            let err = run_refuses(config);
            assert!(matches!(err, SourceError::InvalidResolution(_)), "{err}");
        }
    }

    #[test]
    fn empty_stream_yields_no_alarms_and_no_communities() {
        let meta = mawilab_model::TraceMeta::standard(mawilab_model::TraceDate::new(2004, 6, 2));
        let trace = mawilab_model::Trace::new(meta, vec![]);
        let mut source = NoRewindSource::new(TraceChunker::new(trace, DEFAULT_CHUNK_US));
        let online = OnlinePipeline::new(PipelineConfig::default())
            .run(&mut source)
            .unwrap();
        assert_eq!(source.rewinds_refused(), 0);
        assert_eq!(online.report.alarm_count(), 0);
        assert!(online.report.labeled.communities.is_empty());
        assert_eq!(online.stats.chunks, 0);
    }
}
