//! # mawilab-synth
//!
//! A deterministic, seeded substitute for the MAWI archive.
//!
//! The paper labels nine years of real trans-Pacific backbone traces.
//! Those traces cannot ship with this reproduction, so this crate
//! synthesises MAWI-*like* traffic with the properties the MAWILab
//! methodology actually depends on:
//!
//! * heavy-tailed, application-structured **background traffic**
//!   (Zipf host popularity, log-normal/Pareto flow sizes, a dated
//!   application mix whose peer-to-peer share grows over the years);
//! * a diverse, overlapping **anomaly mix** covering every class the
//!   paper's Table-1 heuristics name — Sasser/Blaster/NetBIOS worm
//!   scanning, RPC/SMB probes, ping floods, SYN floods, port scans,
//!   plus the benign-but-odd traffic (flash crowds, elephant flows)
//!   that stresses the combiner;
//! * a **longitudinal calendar** (2001–2009) with the real archive's
//!   link upgrades and worm-outbreak epochs (Blaster from Aug 2003,
//!   Sasser from May 2004), so the time-series figures reproduce their
//!   shape;
//! * per-packet **ground truth** — which the real archive famously
//!   lacks — enabling the precision/recall validation the original
//!   authors could not run.
//!
//! Everything is deterministic given a seed: the same
//! [`SynthConfig`]/[`ArchiveSimulator`] inputs always produce the same
//! bytes, which the test suite relies on.

#![forbid(unsafe_code)]

pub mod anomalies;
pub mod archive;
pub mod background;
pub mod config;
pub mod sharded;
pub mod truth;

pub use anomalies::{AnomalyKind, AnomalySpec};
pub use archive::{worm_intensity, ArchiveConfig, ArchiveSimulator};
pub use background::{BackgroundModel, HostModel};
pub use config::SynthConfig;
pub use sharded::{SynthSource, GEN_BIN_US};
pub use truth::{AnomalyRecord, GroundTruth, LabeledTrace};

/// End-to-end trace generator: background + anomalies + ground truth.
///
/// Every anomaly and every [`GEN_BIN_US`]-wide background bin draws
/// from its own counter-derived RNG stream (`crate::sharded`), so the
/// units generate independently of each other's order.
/// [`generate`](Self::generate) merges them with a bucketed per-bin
/// sort; [`stream`](Self::stream) emits them bin by bin without
/// materialising the day. [`generate_sequential`](Self::generate_sequential)
/// is the in-order reference with one global sort; both paths are
/// byte-identical to it (`tests/synth_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: SynthConfig,
}

impl TraceGenerator {
    /// Creates a generator for one trace.
    pub fn new(config: SynthConfig) -> Self {
        TraceGenerator { config }
    }

    /// Generates the trace and its ground truth: every unit in
    /// canonical order on the calling thread, merged by a bucketed
    /// per-bin sort. Deterministic in the config (seed included).
    pub fn generate(&self) -> LabeledTrace {
        sharded::generate_sharded(&self.config)
    }

    /// The reference generator: every unit in canonical order, merged
    /// by one global stable sort. Kept as the equivalence oracle for
    /// [`generate`](Self::generate)'s bucketed merge.
    pub fn generate_sequential(&self) -> LabeledTrace {
        sharded::generate_sequential(&self.config)
    }

    /// Streams the trace chunk-natively: a [`SynthSource`] generates
    /// background bins lazily and emits time-binned
    /// [`mawilab_model::PacketChunk`]s directly, so the day is never
    /// materialised. The chunk concatenation is byte-identical to
    /// [`generate`](Self::generate) at any `bin_us`. Ground-truth
    /// records are available via [`SynthSource::records`]; per-chunk
    /// tags via [`SynthSource::chunk_tags`].
    pub fn stream(&self, bin_us: u64) -> SynthSource {
        SynthSource::new(&self.config, bin_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_model::TraceDate;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::default().with_seed(77);
        let a = TraceGenerator::new(cfg.clone()).generate();
        let b = TraceGenerator::new(cfg).generate();
        assert_eq!(a.trace.packets, b.trace.packets);
        assert_eq!(a.truth.tags(), b.truth.tags());
    }

    #[test]
    fn sharded_engine_matches_sequential_oracle() {
        // The full sweep (seeds × bin widths) lives in
        // tests/synth_equivalence.rs; this is the fast in-crate guard.
        let generator = TraceGenerator::new(SynthConfig::default().with_seed(41));
        let sharded = generator.generate();
        let oracle = generator.generate_sequential();
        assert_eq!(sharded.trace.packets, oracle.trace.packets);
        assert_eq!(sharded.truth.tags(), oracle.truth.tags());
    }

    #[test]
    fn stream_concatenation_matches_generate() {
        use mawilab_model::{collect_packets, PacketSource};
        let generator = TraceGenerator::new(SynthConfig::default().with_seed(23));
        let batch = generator.generate();
        let mut source = generator.stream(2_500_000);
        assert_eq!(collect_packets(&mut source).unwrap(), batch.trace.packets);
        // Rewind replays the identical stream, and the streamed ground
        // truth equals the batch truth.
        source.rewind().unwrap();
        let truth = source.drain_truth().unwrap();
        assert_eq!(truth.tags(), batch.truth.tags());
        assert_eq!(truth.anomalies().len(), batch.truth.anomalies().len());
    }

    #[test]
    fn stream_chunks_cover_the_generated_trace() {
        use mawilab_model::PacketSource;
        let cfg = SynthConfig::default().with_seed(77);
        let total = TraceGenerator::new(cfg.clone()).generate().trace.len();
        let mut source = TraceGenerator::new(cfg).stream(5_000_000);
        let mut seen = 0usize;
        let mut peak = 0usize;
        while let Some(chunk) = source.next_chunk().unwrap() {
            seen += chunk.len();
            peak = peak.max(chunk.len());
        }
        assert_eq!(seen, total);
        assert!(peak < total, "single chunk held the whole trace");
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(SynthConfig::default().with_seed(1)).generate();
        let b = TraceGenerator::new(SynthConfig::default().with_seed(2)).generate();
        assert_ne!(a.trace.packets, b.trace.packets);
    }

    #[test]
    fn packets_are_sorted_and_inside_window() {
        let t = TraceGenerator::new(SynthConfig::default().with_seed(3)).generate();
        let w = t.trace.meta.window();
        assert!(t.trace.packets.windows(2).all(|p| p[0].ts_us <= p[1].ts_us));
        assert!(t.trace.packets.iter().all(|p| w.contains(p.ts_us)));
    }

    #[test]
    fn tags_align_with_packets() {
        let t = TraceGenerator::new(SynthConfig::default().with_seed(4)).generate();
        assert_eq!(t.truth.tags().len(), t.trace.len());
    }

    #[test]
    fn anomaly_records_cover_tagged_packets() {
        let t = TraceGenerator::new(SynthConfig::default().with_seed(5)).generate();
        let tagged = t.truth.tags().iter().filter(|x| x.is_some()).count();
        let recorded: usize = t.truth.anomalies().iter().map(|r| r.packet_count).sum();
        assert_eq!(tagged, recorded);
        assert!(!t.truth.anomalies().is_empty());
    }

    #[test]
    fn trace_has_meaningful_volume() {
        let t = TraceGenerator::new(SynthConfig::default().with_seed(6)).generate();
        assert!(t.trace.len() > 1000, "only {} packets", t.trace.len());
    }

    #[test]
    fn dates_flow_into_metadata() {
        let cfg = SynthConfig {
            date: TraceDate::new(2008, 2, 7),
            ..Default::default()
        };
        let t = TraceGenerator::new(cfg).generate();
        assert_eq!(t.trace.meta.date, TraceDate::new(2008, 2, 7));
        assert_eq!(t.trace.meta.era, mawilab_model::LinkEra::Full150Mbps);
    }
}
